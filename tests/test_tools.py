"""Repository tools: ``tools/bench_record.py`` runs on the committed benchmark records."""

import json
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
