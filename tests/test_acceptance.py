"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Each criterion is also an independent pytest test.
"""

import json
import time

import numpy as np

from sparx import verify
from sparx.analysis import erf
from sparx.backbone import build, forward_bound, memory_report, train_toy
from sparx.cli import main as cli_main
from sparx.config import get_variant
from sparx.dmca import cgca_attention, group_channels
from sparx.nd import Tensor, sum_all
from sparx.params import bind, count_arrays, iter_arrays
from sparx.topology import Mode, StageTopologyConfig, plan_stage
from sparx.verify import dense_attention_oracle, oracle_stage_plan, plan_as_tuples


def report(num, description, passed, detail):
    line = f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {description}: {detail}"
    print(line)
    assert passed, line


def test_c01_topology_oracle_exact_and_fast():
    t0 = time.time()
    mismatches = 0
    total = 0
    for mode in ("sparx", "dgc", "dsn"):
        for depth in range(1, 13):
            for stride in range(1, 5):
                for window in range(1, 5):
                    total += 1
                    plan = plan_stage(StageTopologyConfig(depth, stride, window, Mode(mode)))
                    if plan_as_tuples(plan) != oracle_stage_plan(depth, stride, window, mode):
                        mismatches += 1
    elapsed = time.time() - t0
    report(1, "topology oracle sweep", mismatches == 0 and elapsed < 1.0,
           f"{total} configs, {mismatches} mismatches, {elapsed:.2f}s")


def test_c02_worked_example():
    plan = plan_stage(StageTopologyConfig(8, 2, 2))
    ok = plan.ganglion_indices == (2, 4, 6, 8) and plan.normal_indices == (1, 3, 5, 7)
    report(2, "8-layer stride-2 placement", ok,
           f"ganglion={plan.ganglion_indices} normal={plan.normal_indices}")


def test_c03_gradient_fidelity():
    t0 = time.time()
    block_checks = [
        verify.check_grad_dpe, verify.check_grad_convffn, verify.check_grad_window_attn,
        verify.check_grad_scan, verify.check_grad_ss2d, verify.check_grad_bissm,
        verify.check_grad_dmca,
    ]
    worst_block = 0.0
    for chk in block_checks:
        res = chk(frozenset())
        assert res.passed, f"{res.name}: {res.measured}"
        worst_block = max(worst_block, float(res.measured))
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


def test_c04_parameter_and_mac_accounting():
    res = verify.check_accounting_bands(frozenset())
    report(4, "params within 10%, MACs within 15%", res.passed, res.measured)


def test_c05_memory_ordering():
    cfg = get_variant("tiny")
    vals = {m: memory_report(cfg, mode=m)["total_training_bytes"]
            for m in ("plain", "sparx", "dgc", "dsn")}
    ok = vals["plain"] < vals["sparx"] < vals["dgc"] < vals["dsn"]
    report(5, "modeled memory ordering sparx < dgc < dsn, plain minimal", ok,
           " < ".join(f"{m}={vals[m]/2**20:.1f}MiB" for m in ("plain", "sparx", "dgc", "dsn")))


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


def test_c07_mac_resolution_scaling():
    res = verify.check_flops_resolution(frozenset())
    a = build(get_variant("tiny", input_size=224), 0)
    b = build(get_variant("tiny", input_size=384), 0)
    params_same = all(np.array_equal(xa, xb)
                      for (_, xa), (_, xb) in zip(iter_arrays(a), iter_arrays(b)))
    ok = res.passed and params_same
    report(7, "MACs(384)/MACs(224) in [2.9, 3.1], params resolution-independent", ok,
           f"ratio={res.measured}, params bit-identical={params_same}")


def test_c08_mixer_versatility():
    structural = {}
    for mixer in ("ss2d", "ssm", "bissm", "window_attn"):
        model = build(get_variant("tiny-reduced", mixer=mixer), 0)
        plans = tuple(tuple(plan_as_tuples(p)) for p in model.plans)
        shapes = tuple(tuple(a.shape for _, a in iter_arrays(st.layers[i].dmca))
                       for st in model.stages for i in range(len(st.layers))
                       if st.layers[i].dmca is not None)
        structural[mixer] = (plans, shapes)
    same_structure = len(set(structural.values())) == 1

    rng = np.random.default_rng(1)
    C, H = 8, 4
    from sparx.blocks import init_window_attn, window_attention_forward
    from sparx.params import Initializer
    p = init_window_attn(Initializer(1, dtype=np.float64), C, H, heads=2, shifted=False)
    for name in ("w_qkv", "b_qkv", "w_out", "b_out"):
        setattr(p, name, rng.standard_normal(getattr(p, name).shape))
    x = rng.standard_normal((C, H, H))
    got = window_attention_forward(Tensor(x), bind(p)).data.reshape(C, H * H).T
    ref = dense_attention_oracle(x.reshape(C, H * H).T, p.w_qkv, p.b_qkv, p.w_out, p.b_out, 2)
    attn_err = float(np.abs(got - ref).max())
    ok = same_structure and attn_err <= 1e-6
    report(8, "mixers interchange; one-window attention matches dense oracle", ok,
           f"structural match={same_structure}, dense-oracle err {attn_err:.2e}")


def test_c09_cka_identities():
    res = verify.check_cka_identities(frozenset())
    report(9, "CKA identities", res.passed,
           f"worst of self, orthogonal and symmetry errors {res.measured}")


def test_c10_erf_sanity():
    footprints = verify.check_erf_footprints(frozenset())
    rng = np.random.default_rng(3)
    model = build(get_variant("tiny-reduced"), 0, dtype=np.float64)
    probes = [rng.standard_normal((3, 32, 32)) for _ in range(2)]
    s1 = erf(model, 1, probes).support()
    s4 = erf(model, 4, probes).support()
    nested = bool(np.all(s4[s1]))
    ok = footprints.passed and nested
    report(10, "ERF footprints", ok,
           f"conv footprints {footprints.measured}, "
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
