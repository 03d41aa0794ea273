"""Repository tools: ``tools/bench_record.py`` runs on the committed benchmark records and measures holders."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_RECORD = ROOT / "tools" / "bench_record.py"


def bench_record(*argv):
    return subprocess.run([sys.executable, str(BENCH_RECORD), *argv], cwd=ROOT, capture_output=True, text=True)


def test_summary_prints_every_benchmark_workload_and_end_to_end_metric():
    proc = bench_record("summary", "--out", str(ROOT / "BENCH_forward.json"))
    assert proc.returncode == 0, proc.stderr
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = proc.stdout.splitlines()
    for workload in benchmark["workloads"]:
        assert any(line.startswith(f"{workload['name']} at ") for line in lines), workload["name"]
    for metric in benchmark["end_to_end"]:
        assert any(line.split()[:1] == [metric["name"]] for line in lines), metric["name"]


def test_checkout_without_the_benchmark_exits_2_with_one_error_line(tmp_path):
    proc = bench_record("runs", "--checkout", f"change={tmp_path}", "--out", str(tmp_path / "bench.json"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error" in line] == [
        f"bench_record.py: error: argument --checkout: expected LABEL=DIR with DIR/perfbench/run.py, "
        f"got 'change={tmp_path}'"]
    assert not (tmp_path / "bench.json").exists()


def test_top_holder_reads_the_unwatched_peak(tmp_path):
    # the watcher leaves out the bytes it keeps itself, so the op running at the peak reads the peak
    out = tmp_path / "bench.json"
    proc = bench_record("holders", "--workloads", "train-reduced", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    [record] = json.loads(out.read_text())["records"]
    assert record["kind"] == "holders" and record["modes"]
    for mode in record["modes"]:
        top, peak = mode["holders"][0]["peak_bytes"], mode["peak_bytes"]
        assert abs(top - peak) <= 0.01 * peak, mode


def tool_and_test_files():
    return [p for d in ("tools", "tests") for p in sorted((ROOT / d).rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts]


def test_no_tool_or_test_names_the_op_finalizer():
    # tools and tests watch ops through nd.observer, never through nd's private op finalizer
    name = re.compile(rb"\b_" rb"apply\b")  # in two parts, so that this guard does not name it itself
    files = tool_and_test_files()
    assert files and [str(p.relative_to(ROOT)) for p in files if name.search(p.read_bytes())] == []


def test_no_tool_or_test_walks_python_frames():
    # where an op ran is its nd.scope path: no tool or test finds it by walking the caller's frames
    name = re.compile(rb"\b_" rb"getframe\b")  # in two parts, so that this guard does not name it itself
    files = tool_and_test_files()
    assert files and [str(p.relative_to(ROOT)) for p in files if name.search(p.read_bytes())] == []
