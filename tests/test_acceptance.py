"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Each criterion is also an independent pytest test. A
criterion built on registered ``verify`` checks reads their entries from the
one shared ``sparx verify`` run (the ``verify_run`` fixture) instead of
running them again.
"""

import json
import time

import numpy as np

from sparx import verify
from sparx.analysis import erf
from sparx.backbone import build, forward_bound, train_toy
from sparx.cli import main as cli_main
from sparx.config import get_variant
from sparx.dmca import cgca_attention, group_channels
from sparx.nd import Tensor, sum_all
from sparx.params import count_arrays, iter_arrays
from sparx.topology import Mode, StageTopologyConfig, plan_stage
from sparx.verify import oracle_stage_plan, plan_as_tuples


def report(num, description, passed, detail):
    line = f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {description}: {detail}"
    print(line)
    assert passed, line


def entry(verify_run, check):
    """The shared verify run's report entry of the registered ``check``."""
    return verify_run[1]["checks"][verify.CHECKS.index(check)]


def test_c01_topology_oracle_exact_and_fast():
    t0 = time.time()
    mismatches = 0
    total = 0
    for mode in Mode:
        for depth in range(1, 13):
            for stride in range(1, 5):
                for window in range(1, 5):
                    total += 1
                    plan = plan_stage(StageTopologyConfig(depth, stride, window, mode))
                    if plan_as_tuples(plan) != oracle_stage_plan(depth, stride, window, mode.value):
                        mismatches += 1
    elapsed = time.time() - t0
    report(1, "topology oracle sweep", mismatches == 0 and elapsed < 1.0,
           f"{total} configs, {mismatches} mismatches, {elapsed:.2f}s")


def test_c02_worked_example(verify_run):
    res = entry(verify_run, verify.check_worked_example)
    report(2, "8-layer stride-2 placement", res["passed"], res["measured"])


def test_c03_gradient_fidelity(verify_run):
    t0 = time.time()
    block_checks = [
        verify.check_grad_dpe, verify.check_grad_convffn, verify.check_grad_window_attn,
        verify.check_grad_scan, verify.check_grad_ss2d, verify.check_grad_bissm,
        verify.check_grad_dmca,
    ]
    worst_block = 0.0
    for chk in block_checks:
        res = entry(verify_run, chk)
        assert res["passed"], f"{res['name']}: {res['measured']}"
        worst_block = max(worst_block, float(res["measured"]))
    cfg = get_variant("tiny-reduced")
    model = build(cfg, 0, dtype=np.float64)
    img = np.random.default_rng(16).standard_normal((3, cfg.input_size, cfg.input_size))
    total = count_arrays(model)
    sample = max(1, total // 100)  # a 1% sample of all parameters
    worst_model = verify.grad_check(lambda m: sum_all(forward_bound(m, Tensor(img))[0]), [model],
                                    max_elements=sample, rng=np.random.default_rng(17))
    elapsed = time.time() - t0
    ok = worst_block <= 1e-4 and worst_model <= 1e-3 and elapsed < 300
    report(3, "gradients vs central differences", ok,
           f"blocks max {worst_block:.2e} (tol 1e-4), model max {worst_model:.2e} "
           f"(tol 1e-3, {sample}/{total} sampled), {elapsed:.0f}s")


def test_c04_parameter_and_mac_accounting(verify_run):
    res = entry(verify_run, verify.check_accounting_bands)
    report(4, "params within 10%, MACs within 15%", res["passed"], res["measured"])


def test_c05_memory_ordering(verify_run):
    res = entry(verify_run, verify.check_memory_ordering)
    report(5, "modeled memory ordering sparx < dgc < dsn, plain minimal", res["passed"], res["measured"])


def test_c06_aggregation_resolution_independence():
    C, G = 64, 4
    rng = np.random.default_rng(0)
    shapes = set()
    for n in (49, 196, 784, 3136):
        r = n // 49
        q = group_channels(Tensor(rng.standard_normal((C, n // r))), G)
        k = group_channels(Tensor(rng.standard_normal((C, n // r))), G)
        shapes.add(cgca_attention(q, k, scale_n=n // r).shape)
    worst = 0.0
    for _ in range(100):
        q = group_channels(Tensor(rng.standard_normal((C, 49))), G)
        k = group_channels(Tensor(rng.standard_normal((C, 49))), G)
        s = cgca_attention(q, k, scale_n=49).data.sum(axis=-1)
        worst = max(worst, float(np.abs(s - 1).max()))
    ok = shapes == {(G, C // G, C // G)} and worst <= 1e-6
    report(6, "attention map shape independent of token count", ok,
           f"shapes={sorted(shapes)}, max row-sum error {worst:.2e}")


def test_c07_mac_resolution_scaling(verify_run):
    res = entry(verify_run, verify.check_flops_resolution)
    a = build(get_variant("tiny", input_size=224), 0)
    b = build(get_variant("tiny", input_size=384), 0)
    params_same = all(np.array_equal(xa, xb)
                      for (_, xa), (_, xb) in zip(iter_arrays(a), iter_arrays(b)))
    ok = res["passed"] and params_same
    report(7, "MACs(384)/MACs(224) in [2.9, 3.1], params resolution-independent", ok,
           f"ratio={res['measured']}, params bit-identical={params_same}")


def test_c08_mixer_versatility(verify_run):
    mixers = entry(verify_run, verify.check_mixer_interchangeability)
    attn = entry(verify_run, verify.check_window_attn_oracle)
    report(8, "mixers interchange; one-window attention matches dense oracle",
           mixers["passed"] and attn["passed"],
           f"{mixers['measured']}, dense-oracle err {attn['measured']} (tol {attn['tolerance']})")


def test_c09_cka_identities(verify_run):
    res = entry(verify_run, verify.check_cka_identities)
    report(9, "CKA identities", res["passed"],
           f"worst of self, orthogonal and symmetry errors {res['measured']}")


def test_c10_erf_sanity(verify_run):
    footprints = entry(verify_run, verify.check_erf_footprints)
    rng = np.random.default_rng(3)
    model = build(get_variant("tiny-reduced"), 0, dtype=np.float64)
    probes = [rng.standard_normal((3, 32, 32)) for _ in range(2)]
    s1 = erf(model, 1, probes).support()
    s4 = erf(model, 4, probes).support()
    nested = bool(np.all(s4[s1]))
    ok = footprints["passed"] and nested
    report(10, "ERF footprints", ok,
           f"conv footprints {footprints['measured']}, "
           f"stage4 support contains stage1={nested} "
           f"({int(s1.sum())} vs {int(s4.sum())} cells)")


def test_c11_end_to_end_trainability():
    t0 = time.time()
    result = train_toy(get_variant("tiny-reduced"), steps=500, seed=0, target_acc=0.97)
    probe_a = train_toy(get_variant("tiny-reduced"), steps=3, seed=0)
    probe_b = train_toy(get_variant("tiny-reduced"), steps=3, seed=0)
    elapsed = time.time() - t0
    ok = (result.accuracy >= 0.95 and result.steps_run <= 500
          and probe_a.losses == probe_b.losses and elapsed < 300)
    report(11, "synthetic two-class training", ok,
           f"accuracy {result.accuracy:.3f} after {result.steps_run} steps, "
           f"deterministic={probe_a.losses == probe_b.losses}, {elapsed:.0f}s")


def test_c12_command_determinism(tmp_path):
    commands = {
        "forward": ["forward", "--variant", "tiny-reduced", "--seed", "0"],
        "plan": ["plan", "--variant", "tiny"],
        "stats": ["stats", "--variant", "tiny-reduced"],
        "capture": ["capture", "--variant", "tiny-reduced", "--images", "2", "--seed", "0"],
    }
    mismatches = []
    for name, argv in commands.items():
        dirs = []
        for run_idx in (0, 1):
            out = tmp_path / f"{name}{run_idx}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            dirs.append(out)
        for artifact in sorted(dirs[0].iterdir()):
            other = dirs[1] / artifact.name
            if artifact.name == "manifest.json":
                ma = json.loads(artifact.read_text())
                mb = json.loads(other.read_text())
                ma.pop("created_at"), mb.pop("created_at")
                if ma != mb:
                    mismatches.append(f"{name}/{artifact.name}")
            elif artifact.read_bytes() != other.read_bytes():
                mismatches.append(f"{name}/{artifact.name}")
    report(12, "byte-identical reruns for forward/plan/stats/capture", not mismatches,
           "all artifacts identical" if not mismatches else f"differs: {mismatches}")
