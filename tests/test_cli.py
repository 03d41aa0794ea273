"""Command-line interface: artifacts, exit codes, determinism, manifests."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparx import cli, nd, verify
from sparx.blocks import MIXERS
from sparx.config import get_variant
from sparx.cli import main
from sparx.dmca import DMCA_MODES
from sparx.tensor_io import read_tensor, write_tensor
from sparx.topology import Mode


def run(argv):
    return main(argv)


def run_isolated(argv):
    """``sparx argv`` in a process of its own with a 60 s timeout and 2 GiB of address space, so a read
    that blocks or never ends fails the test instead of hanging it or filling memory."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "sparx.cli", *argv], capture_output=True, text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])))


class TestPlanCommand:
    def test_worked_example_via_cli(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run(["plan", "--layers", "8", "--stride", "2", "--window", "2",
                    "--out", str(out)]) == 0
        assert "ganglion layers: [2, 4, 6, 8]" in capsys.readouterr().out
        dot = (out / "plan.dot").read_text()
        for g in (2, 4, 6, 8):
            assert f"  {g} [shape=doublecircle" in dot

    def test_variant_emits_four_stage_plans(self, tmp_path):
        out = tmp_path / "p"
        assert run(["plan", "--variant", "tiny", "--out", str(out)]) == 0
        plans = sorted(p.name for p in out.glob("plan_stage*.json"))
        assert plans == [f"plan_stage{i}.json" for i in range(1, 5)]
        stage1 = json.loads((out / "plan_stage1.json").read_text())
        assert all(l["role"] == "normal" for l in stage1["layers"])

    def test_plain_with_cross_stage_is_config_error(self, tmp_path):
        code = run(["plan", "--layers", "5", "--mode", "plain", "--cross-stage",
                    "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_layer_spec_is_config_error(self, tmp_path):
        assert run(["plan", "--out", str(tmp_path / "x")]) == 2

    def test_variant_with_layers_is_config_error(self, tmp_path, capsys):
        assert run(["plan", "--variant", "tiny", "--layers", "3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --variant or --layers, not both\n"

    def test_config_error_removes_the_directories_it_made_and_no_other(self, tmp_path):
        made, existing = tmp_path / "new" / "out", tmp_path / "old"
        existing.mkdir()
        for out in (made, existing):
            assert run(["plan", "--variant", "tiny", "--layers", "3", "--out", str(out)]) == 2
        assert not (tmp_path / "new").exists() and existing.is_dir()

    def test_plan_outputs_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["plan", "--variant", "tiny", "--out", str(a)])
        run(["plan", "--variant", "tiny", "--out", str(b)])
        for name in ("plan_stage1.json", "plan_stage3.dot"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("created_at"), mb.pop("created_at")
        assert ma == mb


class TestStatsCommand:
    def test_memory_column_increases_across_modes(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run(["stats", "--variant", "tiny", "--modes", "sparx,dgc,dsn",
                    "--out", str(out)]) == 0
        rows = (out / "stats.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        col = header.index("total_training_bytes")
        values = [int(r.split(",")[col]) for r in rows[1:]]
        assert values[0] < values[1] < values[2]

    def test_tiny_params_within_band(self, tmp_path):
        out = tmp_path / "s"
        assert run(["stats", "--variant", "tiny", "--input", "224", "--out", str(out)]) == 0
        rows = (out / "stats.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        params = int(rows[1].split(",")[header.index("params")])
        assert abs(params - 27.1e6) / 27.1e6 <= 0.10

    def test_csv_reemission_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["stats", "--variant", "tiny-reduced", "--out", str(a)])
        run(["stats", "--variant", "tiny-reduced", "--out", str(b)])
        assert (a / "stats.csv").read_bytes() == (b / "stats.csv").read_bytes()


def check_passing():
    return verify.CheckResult("passing", True, "0", "0")


def check_failing():
    return verify.CheckResult("failing", False, "1", "0")


def check_raising():
    raise RuntimeError("boom")


class TestVerifyCommand:
    def test_fresh_checkout_passes_and_reports_enough_checks(self, verify_run):
        code, report, _ = verify_run
        failing = [f"{c['name']}: measured {c['measured']} (tolerance {c['tolerance']})"
                   for c in report["checks"] if not c["passed"]]
        assert code == 0 and report["failed"] == 0, "; ".join(failing)
        assert report["total"] >= 20
        assert all(set(c) >= {"name", "passed", "measured", "tolerance"}
                   for c in report["checks"])
        names = [c["name"] for c in report["checks"]]
        assert len(set(names)) == len(names), names

    # One test id per registered invariant, read from the shared run: a failing
    # check is reported under its own name without running the registry twice.
    @pytest.mark.parametrize("index", range(len(verify.CHECKS)),
                             ids=[fn.__name__ for fn in verify.CHECKS])
    def test_registered_check_passes(self, index, verify_run):
        _, report, _ = verify_run
        assert report["total"] == len(verify.CHECKS)
        c = report["checks"][index]
        assert c["passed"], f"{c['name']}: measured {c['measured']} (tolerance {c['tolerance']})"

    def test_failed_and_raising_checks_fail_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "CHECKS", [check_passing, check_failing, check_raising])
        assert run(["verify", "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:3]] == [
            ["PASS", "passing:"], ["FAIL", "failing:"], ["FAIL", "raising:"]]
        assert lines[3:] == ["1/3 checks passed"]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert (report["total"], report["failed"]) == (3, 2)
        raised = report["checks"][2]
        assert raised["passed"] is False and raised["measured"].startswith("exception:")

    def test_all_passing_checks_exit_0(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "CHECKS", [check_passing])
        assert run(["verify", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("eps", [1e-3, 1e-7])  # 16 columns: row sums off by 1.6e-2 and 1.6e-6
    def test_softmax_check_detects_a_corrupted_softmax(self, eps, monkeypatch):
        real = nd.softmax_lastdim
        monkeypatch.setattr(nd, "softmax_lastdim", lambda a: nd.Tensor(real(a).data + eps))
        assert not verify.check_softmax_rowsum().passed

class TestForwardCaptureCka:
    def test_forward_twice_identical_logits_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["forward", "--variant", "tiny-reduced", "--seed", "0", "--out", str(a)]) == 0
        assert run(["forward", "--variant", "tiny-reduced", "--seed", "0", "--out", str(b)]) == 0
        assert (a / "logits.spxt").read_bytes() == (b / "logits.spxt").read_bytes()
        assert read_tensor(a / "logits.spxt").shape == (2,)

    def test_different_seed_changes_logits(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["forward", "--variant", "tiny-reduced", "--seed", "0", "--out", str(a)])
        run(["forward", "--variant", "tiny-reduced", "--seed", "1", "--out", str(b)])
        assert (a / "logits.spxt").read_bytes() != (b / "logits.spxt").read_bytes()

    def test_capture_dumps_and_manifest(self, tmp_path):
        out = tmp_path / "c"
        assert run(["capture", "--variant", "tiny-reduced", "--images", "3",
                    "--out", str(out)]) == 0
        manifest = json.loads((out / "capture_manifest.json").read_text())
        assert len(manifest["layers"]) == 6  # blocks (1,1,3,1)
        rec = manifest["layers"][0]
        arr = read_tensor(out / rec["file"])
        assert list(arr.shape) == rec["shape"] and arr.shape[0] == 3
        assert {r["role"] for r in manifest["layers"]} == {"normal", "ganglion"}

    def test_capture_then_cka_pipeline(self, tmp_path):
        dump, out = tmp_path / "c", tmp_path / "k"
        run(["capture", "--variant", "tiny-reduced", "--images", "4", "--out", str(dump)])
        assert run(["cka", "--dump-dir", str(dump), "--out", str(out)]) == 0
        rows = (out / "cka.csv").read_text().strip().splitlines()
        assert len(rows) == 7  # header + 6 layers
        diag = [float(r.split(",")[i + 1]) for i, r in enumerate(rows[1:])]
        assert all(abs(d - 1) <= 1e-6 for d in diag)

    def test_cka_on_two_identical_dumps_is_all_ones(self, tmp_path):
        dump, out = tmp_path / "d", tmp_path / "k"
        dump.mkdir()
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((5, 7)).astype(np.float32)
        write_tensor(dump / "a.spxt", feats)
        write_tensor(dump / "b.spxt", feats)
        assert run(["cka", "--dump-dir", str(dump), "--out", str(out)]) == 0
        rows = (out / "cka.csv").read_text().strip().splitlines()
        vals = [float(v) for r in rows[1:] for v in r.split(",")[1:]]
        assert all(abs(v - 1) <= 1e-6 for v in vals)

    def test_cka_empty_dir_is_config_error(self, tmp_path):
        empty = tmp_path / "e"
        empty.mkdir()
        assert run(["cka", "--dump-dir", str(empty), "--out", str(tmp_path / "k")]) == 2

    @pytest.mark.parametrize("blob", [
        b"SPXT" + bytes([0, 4]) + (65536).to_bytes(4, "little") * 4,  # element count wraps to 0
        b"SPXT" + bytes([0, 0]) + np.float32(1).tobytes(),
        b"SPXT" + bytes([0, 2]) + (0).to_bytes(4, "little") + (3).to_bytes(4, "little"),
    ], ids=["wrapping_count", "scalar", "no_rows"])
    def test_cka_crafted_dump_exits_2_with_one_line(self, blob, tmp_path, capsys):
        dump = tmp_path / "d"
        dump.mkdir()
        write_tensor(dump / "a.spxt", np.ones((2, 3), np.float32))
        (dump / "b.spxt").write_bytes(blob)
        assert run(["cka", "--dump-dir", str(dump), "--out", str(tmp_path / "k")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("manifest", [
        "{not json", "[]", '{"images": 1}', '{"layers": 5}', '{"layers": [{"stage": 1}]}',
        '{"layers": [{"file": 3}]}', '{"layers": [{"file": ["a.spxt"]}]}', '{"layers": ["a.spxt"]}',
    ])
    def test_malformed_capture_manifest_exits_2_with_one_line(self, manifest, tmp_path, capsys):
        dump = tmp_path / "d"
        dump.mkdir()
        write_tensor(dump / "a.spxt", np.ones((2, 3), np.float32))
        (dump / "capture_manifest.json").write_text(manifest)
        assert run(["cka", "--dump-dir", str(dump), "--out", str(tmp_path / "k")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: malformed ") and err.count("\n") == 1

    @pytest.mark.parametrize("make", [
        lambda d: os.mkfifo(d / "x.spxt"),
        lambda d: (d / "x.spxt").mkdir(),
        lambda d: (d / "x.spxt").symlink_to("/dev/zero"),
        lambda d: os.mkfifo(d / "capture_manifest.json"),
        lambda d: (d / "capture_manifest.json").write_text('{"layers": [{"file": "/dev/null"}]}'),
        lambda d: (d / "capture_manifest.json").write_text('{"layers": [{"file": "../x.spxt"}]}'),
        lambda d: (d / "capture_manifest.json").write_text('{"layers": [{"file": "sub/x.spxt"}]}'),
    ], ids=["fifo", "directory", "symlink_to_dev_zero", "fifo_manifest", "absolute", "parent", "subdirectory"])
    def test_cka_reads_only_regular_files_in_the_dump_directory(self, make, tmp_path):
        dump = tmp_path / "d"
        (dump / "sub").mkdir(parents=True)
        for path in (dump / "a.spxt", tmp_path / "x.spxt", dump / "sub" / "x.spxt"):
            write_tensor(path, np.ones((2, 3), np.float32))
        make(dump)
        proc = run_isolated(["cka", "--dump-dir", str(dump), "--out", str(tmp_path / "k")])
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "not a regular file" in proc.stderr or "naming a file in" in proc.stderr, proc.stderr


class TestErfAndTraining:
    def test_erf_artifacts(self, tmp_path):
        out = tmp_path / "e"
        assert run(["erf", "--variant", "tiny-reduced", "--stage", "2", "--images", "2",
                    "--out", str(out)]) == 0
        values = read_tensor(out / "erf.spxt")
        assert values.shape == (32, 32)
        assert values.max() == 1.0 and values.min() >= 0.0
        assert (out / "erf.pgm").read_text().startswith("P2\n32 32\n255\n")

    def test_erf_stage_out_of_range_is_config_error(self, tmp_path):
        assert run(["erf", "--variant", "tiny-reduced", "--stage", "9",
                    "--out", str(tmp_path / "e")]) == 2

    def test_train_toy_writes_results(self, tmp_path):
        out = tmp_path / "t"
        assert run(["train-toy", "--steps", "3", "--seed", "0", "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["steps_run"] == 3
        losses = (out / "losses.csv").read_text().strip().splitlines()
        assert losses[0] == "step,loss" and len(losses) == 4


# Cheap arguments for each subcommand but verify, whose manifest the shared run provides; cka reads
# the two-image capture made in the DUMP directory.
_CHEAP_ARGV = {
    "plan": ["--layers", "4"],
    "stats": ["--variant", "tiny-reduced"],
    "forward": ["--variant", "tiny-reduced"],
    "capture": ["--variant", "tiny-reduced", "--images", "2"],
    "cka": ["--dump-dir", "DUMP"],
    "erf": ["--variant", "tiny-reduced", "--stage", "2", "--images", "2"],
    "train-toy": ["--steps", "2"],
}


class TestManifests:
    @pytest.mark.parametrize("command", ["verify", *_CHEAP_ARGV])
    def test_manifest_names_the_command_and_checksums_every_artifact(self, command, tmp_path, request):
        if command == "verify":
            out = request.getfixturevalue("verify_run")[2]
        else:
            dump, out = tmp_path / "dump", tmp_path / "out"
            if command == "cka":
                assert run(["capture", *_CHEAP_ARGV["capture"], "--out", str(dump)]) == 0
            argv = [str(dump) if a == "DUMP" else a for a in _CHEAP_ARGV[command]]
            assert run([command, *argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        artifacts = sorted(f for f in out.iterdir() if f.name != "manifest.json")
        assert manifest["checksums"] == {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in artifacts}
        assert not {"out", "func"} & set(manifest["args"])
        assert "created_at" in manifest and manifest["versions"]["numpy"]

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("SPARX_OUT", str(target))
        assert run(["plan", "--layers", "4"]) == 0
        assert (target / "plan.json").exists()


class TestConflictingOptions:
    @pytest.mark.parametrize("argv", [
        ["plan", "--variant", "tiny", "--stride", "2"],
        ["plan", "--variant", "tiny", "--window", "2"],
        ["plan", "--variant", "tiny", "--cross-stage"],
        ["forward", "--variant", "tiny-reduced", "--config"],
        ["capture", "--variant", "tiny-reduced", "--config"],
        ["erf", "--variant", "tiny-reduced", "--config"],
    ], ids=" ".join)
    def test_option_the_command_would_ignore_exits_2_with_one_line(self, argv, tmp_path, capsys):
        flag = argv[3]
        if flag == "--config":
            path = tmp_path / "cfg.json"
            path.write_text(get_variant("tiny-reduced").to_json())
            argv = argv + [str(path)]
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: --variant or {flag}, not both\n"

    def test_omitted_plan_options_keep_stride_2_window_2(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["plan", "--layers", "8", "--out", str(a)]) == 0
        assert run(["plan", "--layers", "8", "--stride", "2", "--window", "2", "--out", str(b)]) == 0
        for name in ("plan.json", "plan.dot"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_file_alone_matches_its_variant(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(get_variant("tiny-reduced").to_json())
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["forward", "--config", str(path), "--out", str(a)]) == 0
        assert run(["forward", "--variant", "tiny-reduced", "--out", str(b)]) == 0
        assert (a / "logits.spxt").read_bytes() == (b / "logits.spxt").read_bytes()


class TestNumericInputs:
    @pytest.mark.parametrize("argv", [
        ["forward", "--variant", "tiny-reduced", "--input", "0"],
        ["forward", "--variant", "tiny-reduced", "--input", "48"],
        ["stats", "--variant", "tiny-reduced", "--input", "0"],
        ["capture", "--variant", "tiny-reduced", "--images", "0"],
        ["erf", "--variant", "tiny-reduced", "--images", "-1"],
        ["train-toy", "--steps", "0"],
        ["train-toy", "--batch", "0"],
        ["forward", "--variant", "tiny-reduced", "--seed", "-1"],
        ["stats", "--variant", "tiny-reduced", "--modes", ""],
        ["train-toy", "--steps", "1", "--lr", "nan"],
        ["train-toy", "--steps", "1", "--lr", "inf"],
    ], ids=" ".join)
    def test_non_positive_values_exit_2_with_one_line(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [
        ("input_size", "32"), ("stride", "2"), ("groups", 4.0), ("state_dim", True),
        ("channels", [8, "16", 24, 32]), ("blocks", "1113"), ("mixer", 3),
    ], ids=lambda v: json.dumps(v))
    def test_wrongly_typed_config_field_exits_2_with_one_line(self, field, value, tmp_path, capsys):
        raw = {"name": "x", "channels": [8, 16, 24, 32], "blocks": [1, 1, 3, 1], "stride": 2,
               "window": 3, "input_size": 32, "num_classes": 2, "head_dim": 4, "window_size": 4}
        raw[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert run(["forward", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be") and err.count("\n") == 1

    @pytest.mark.parametrize("make,message", [
        (os.mkfifo, "not a regular file"),
        (lambda p: p.symlink_to("/dev/zero"), "not a regular file"),
        (lambda p: p.mkdir(), "not a regular file"),
        (lambda p: p.write_bytes(get_variant("tiny-reduced").to_json().replace("tiny", "tiny\xff").encode("latin-1")),
         "is not UTF-8 text"),
        (lambda p: None, "cannot read config file"),
    ], ids=["fifo", "symlink_to_dev_zero", "directory", "not_utf8", "missing"])
    def test_config_that_is_no_readable_text_file_exits_2_with_one_line(self, make, message, tmp_path):
        path = tmp_path / "cfg.json"
        make(path)
        proc = run_isolated(["forward", "--config", str(path), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert message in proc.stderr, proc.stderr

    def test_lr_overflow_prints_one_runtime_error_line(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
            code = run(["train-toy", "--lr", "1e300", "--steps", "2", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime error: non-finite values produced by op ")
        assert err.count("\n") == 1

    def test_impossible_parameter_shape_prints_one_runtime_error_line(self, tmp_path, capsys):
        # a head of 10**18 classes is beyond the address space: it fails when its weight is drawn
        raw = {"name": "x", "channels": [8, 16, 24, 32], "blocks": [1, 1, 3, 1], "stride": 2,
               "window": 3, "input_size": 32, "num_classes": 10**18, "head_dim": 4, "window_size": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert run(["forward", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime error: cannot allocate") and err.count("\n") == 1, err

    def test_memory_error_without_a_message_prints_its_type(self, tmp_path, capsys, monkeypatch):
        def bare_memory_error(args, out):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_plan", bare_memory_error)
        assert run(["plan", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "runtime error: MemoryError\n"

    @pytest.mark.parametrize("argv", [
        ["capture", "--variant", "tiny-reduced", "--images", "100000000000"],
        ["forward", "--variant", "tiny-reduced", "--input", "3200000000"]])
    def test_impossible_image_sizes_print_one_runtime_error_line(self, argv, tmp_path, capsys):
        # both fail when the image array is allocated, before any forward runs
        assert run(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1, err


_JUNK = ["", "-1", "0", "2.5", "nan", "inf", "abc", "1e9", "--bogus"]
_MODES = [m.value for m in Mode]
_MODEL_OPTIONS = {"--input": ["32", "64", "48", "3200000000"], "--mixer": list(MIXERS),
                  "--topology-mode": _MODES, "--dmca-mode": list(DMCA_MODES),
                  "--seed": ["0", "3", "12345678901234567890"]}
# (leading option, its values) and the other options with their valid values.
# No value, valid or junk, asks for an expensive run: at most 40 layers, only
# tiny-reduced models, at most 2 images or training steps. The PiB-scale
# --input and --images values fail when the image array is allocated.
_FUZZ_OPTIONS = {
    "plan": (("--layers", ["1", "13", "40"]),
             {"--variant": ["tiny-reduced", "tiny"], "--stride": ["1", "2", "8"],
              "--window": ["1", "3"], "--mode": _MODES, "--cross-stage": [None], "--seed": ["0"]}),
    "stats": (("--variant", ["tiny-reduced", "tiny-reduced,tiny-reduced", "tiny-reduced,"]),
              {"--input": ["32", "64", "48"], "--modes": ["sparx", "plain,dsn", "sparx,zzz"],
               "--seed": ["0", "5"]}),
    "forward": (("--variant", ["tiny-reduced"]), _MODEL_OPTIONS),
    "capture": (("--variant", ["tiny-reduced"]),
                {**_MODEL_OPTIONS, "--images": ["1", "2", "100000000000"]}),
    "train-toy": (("--steps", ["1", "2"]),  # the default of 500 steps is not cheap
                  {"--lr": ["0.02", "-1", "1e300"], "--batch": ["1", "2"],
                   "--target-acc": ["0.5", "2"], "--seed": ["0", "3"]}),
}


@st.composite
def _argv(draw, command):
    """A valid argv for ``command`` with up to two values (or a stray token) made junk."""
    (lead, lead_values), opts = _FUZZ_OPTIONS[command]
    flags = [lead] + draw(st.lists(st.sampled_from(sorted(opts)), unique=True))
    values = [draw(st.sampled_from(lead_values))] + [draw(st.sampled_from(opts[f])) for f in flags[1:]]
    stray = []
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(flags)))
        junk = draw(st.sampled_from(_JUNK))
        if i == len(flags):
            stray.append(junk)
        else:
            values[i] = junk
    argv = [command]
    for flag, value in zip(flags, values):
        argv += [flag] if value is None else [flag, value]
    return argv + stray


def _fuzz_run(argv):
    """(exit code, stderr, whether argparse exited) of one run in a fresh output dir."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a warning would add a line to stderr
        try:
            return main(argv + ["--out", out]), err.getvalue(), False
        except SystemExit as e:
            return e.code, err.getvalue(), True


class TestArgvFuzz:
    def _check(self, argv):
        code, err, parse_exit = _fuzz_run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv
        if code and not parse_exit:
            assert err.startswith(("error: ", "runtime error: ")) and err.count("\n") == 1, (argv, err)

    @pytest.mark.parametrize("command", ["plan", "stats", "forward", "capture"])
    @settings(max_examples=50)
    @given(data=st.data())
    def test_cheap_commands_end_in_0_1_or_2(self, command, data):
        self._check(data.draw(_argv(command)))

    @settings(max_examples=6)  # a valid run takes about a second
    @given(argv=_argv("train-toy"))
    def test_train_toy_ends_in_0_1_or_2(self, argv):
        self._check(argv)
