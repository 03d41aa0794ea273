"""Self-verification: independent oracles and a named-check registry.

The topology oracle re-derives stage plans by literally walking layer lists
per the placement and wiring rules, sharing no code with the planner. The
dense-attention oracle recomputes multi-head attention directly in numpy.
``grad_check`` compares tape gradients with central differences over arrays
or parameter structures. ``CHECKS`` holds every ``check_*`` function in the
order they are defined; ``run_checks`` runs them and returns structured results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nd
from .analysis import cka_linear, erf_map
from .backbone import build, count_flops, forward, forward_bound, memory_report
from .blocks import (MIXERS, DpeParams, convffn_forward, dpe_forward, init_convffn, init_ssm,
                     init_vss_block, init_window_attn, scan_forward, vss_block_forward,
                     window_attention_forward)
from .config import get_variant
from .dmca import (DMCA_MODES, cgca_attention, dmca_forward, dmca_param_count,
                   group_channels, init_dmca)
from .nd import Tensor, sum_all
from .params import Initializer, bind, count_arrays, iter_arrays, map_arrays, pair_leaves, stack
from .topology import (ConnectionPlan, Mode, Role, StageTopologyConfig, cache_schedule,
                       plan_stage)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_stage_plan(num_layers, stride, window, mode, has_cross=False):
    """Literal layer-walking interpretation of the connectivity rules.

    Returns [(role, intra, inter, cross), ...] (1-based order). Placement
    walks the chain counting normal layers since the last hub; one hub is
    placed whenever stride-1 normals have accumulated, the final layer is
    forced to be a hub, and a first-layer hub with nothing to read is
    demoted. Sources are collected by scanning backwards layer by layer.
    """
    n = num_layers
    roles = ["normal"] * (n + 1)
    if mode != "plain":
        s = 1 if mode == "dsn" else stride
        pending = 0
        for i in range(1, n + 1):
            if pending == s - 1:
                roles[i] = "ganglion"
                pending = 0
            else:
                pending += 1
        roles[n] = "ganglion"
        if roles[1] == "ganglion" and not has_cross:
            roles[1] = "normal"
    out = []
    seen_first = False
    for i in range(1, n + 1):
        if roles[i] == "normal":
            out.append(("normal", (), (), False))
            continue
        if mode in ("dgc", "dsn"):
            intra = tuple(j for j in range(1, i) if roles[j] == "normal")
            inter = tuple(j for j in range(1, i) if roles[j] == "ganglion")
        else:
            intra = []
            j = i - 1
            while j >= 1 and roles[j] == "normal":
                intra.append(j)
                j -= 1
            intra = tuple(reversed(intra))
            inter = []
            j = i - 1
            while j >= 1 and len(inter) < window:
                if roles[j] == "ganglion":
                    inter.append(j)
                j -= 1
            inter = tuple(reversed(inter))
        cross = has_cross and not seen_first
        seen_first = True
        out.append(("ganglion", intra, inter, cross))
    return out


def oracle_peak_live(num_layers, stride, window, mode, has_cross=False):
    """Peak cached features plus the running activation, walked step by step.

    Entering each step, an earlier layer's output (or the cross-stage input)
    is live when some layer at this step or later reads it, per the
    ``oracle_stage_plan`` tuples.
    """
    plan = oracle_stage_plan(num_layers, stride, window, mode, has_cross)
    peak = 0
    for step in range(1, num_layers + 1):
        later = plan[step - 1:]
        live = {j for _, intra, inter, _ in later for j in intra + inter if j < step}
        cross = any(takes_cross for *_, takes_cross in later)
        peak = max(peak, len(live) + int(cross))
    return peak + 1


def plan_as_tuples(plan: ConnectionPlan):
    return [(l.role.value, l.intra_sources, l.inter_sources, l.takes_cross_stage)
            for l in plan.layers]


def dense_attention_oracle(tokens, w_qkv, b_qkv, w_out, b_out, heads):
    """Direct numpy multi-head self-attention over (T, C) tokens."""
    T, C = tokens.shape
    dh = C // heads
    qkv = tokens @ w_qkv.T + b_qkv
    q, k, v = qkv[:, :C], qkv[:, C:2 * C], qkv[:, 2 * C:]
    out = np.zeros((T, C))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        out[:, sl] = attn @ v[:, sl]
    return out @ w_out.T + b_out


# ---------------------------------------------------------------------------
# check registry
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    tolerance: str
    detail: str = ""


def _result(name, passed, measured, tolerance, detail=""):
    return CheckResult(name, bool(passed), str(measured), str(tolerance), detail)


def _sweep_configs():
    for mode in (m.value for m in Mode if m is not Mode.PLAIN):
        for depth in range(1, 13):
            for stride in range(1, 5):
                for window in range(1, 5):
                    yield depth, stride, window, mode


def check_topology_oracle():
    mismatches = 0
    total = 0
    for depth, stride, window, mode in _sweep_configs():
        for cross in (False, True):
            total += 1
            plan = plan_stage(StageTopologyConfig(depth, stride, window, Mode(mode),
                                                  has_cross_stage_input=cross))
            if plan_as_tuples(plan) != oracle_stage_plan(depth, stride, window, mode, cross):
                mismatches += 1
    return _result("topology_oracle_sweep", mismatches == 0, mismatches, "0 mismatches",
                   f"{total} configurations")


def check_worked_example():
    plan = plan_stage(StageTopologyConfig(8, 2, 2))
    ok = plan.ganglion_indices == (2, 4, 6, 8) and plan.normal_indices == (1, 3, 5, 7)
    last = plan.layer(8)
    ok = ok and last.inter_sources == (4, 6) and last.intra_sources == (7,)
    return _result("topology_worked_example", ok,
                   f"ganglion={plan.ganglion_indices}", "{2,4,6,8} exact")


def check_window_locality():
    bad = 0
    for depth, stride, window, mode in _sweep_configs():
        if mode != "sparx":
            continue
        plan = plan_stage(StageTopologyConfig(depth, stride, window, Mode.SPARX))
        for l in plan.layers:
            if l.role is not Role.GANGLION:
                continue
            nearest = [g for g in plan.ganglion_indices if g < l.index][-window:]
            if set(l.inter_sources) - set(nearest):
                bad += 1
    return _result("topology_window_locality", bad == 0, bad, "0 violations")


def check_window_monotonicity():
    bad = 0
    for depth in range(2, 13):
        for stride in range(1, 5):
            for window in range(1, 4):
                a = plan_stage(StageTopologyConfig(depth, stride, window, Mode.SPARX))
                b = plan_stage(StageTopologyConfig(depth, stride, window + 1, Mode.SPARX))
                for la, lb in zip(a.layers, b.layers):
                    if not set(la.sources) <= set(lb.sources):
                        bad += 1
    return _result("topology_window_monotonic", bad == 0, bad, "0 removed edges")


def check_stride_monotonicity():
    bad = 0
    for depth in range(1, 13):
        sets = {s: set(plan_stage(StageTopologyConfig(depth, s, 2, Mode.SPARX)).ganglion_indices)
                for s in range(1, 5)}
        for s_small in range(1, 5):
            for s_big in range(s_small, 5):
                if len(sets[s_small]) < len(sets[s_big]):
                    bad += 1
                if s_big % s_small == 0 and not sets[s_small] >= sets[s_big]:
                    bad += 1
    return _result("topology_stride_monotonic", bad == 0, bad,
                   "count monotone; superset for divisor strides")


def check_reachability():
    bad = 0
    for depth, stride, window, mode in _sweep_configs():
        plan = plan_stage(StageTopologyConfig(depth, stride, window, Mode(mode)))
        adj = {i: set() for i in range(1, depth + 1)}
        for i in range(1, depth):
            adj[i].add(i + 1)
        for l in plan.layers:
            for src in l.sources:
                adj[src].add(l.index)
        frontier, seen, hops = {1}, {1}, 0
        while depth not in seen and frontier and hops <= depth:
            frontier = {j for i in frontier for j in adj[i]} - seen
            seen |= frontier
            hops += 1
        if depth not in seen or hops > depth:
            bad += 1
    return _result("topology_reachability", bad == 0, bad, "path within depth hops")


def check_cache_ordering():
    bad = 0
    for depth in range(1, 13):
        for stride in range(1, 5):
            for window in range(1, 5):
                peaks = [cache_schedule(plan_stage(
                    StageTopologyConfig(depth, stride, window, m))).peak_live_count for m in Mode]
                if any(a > b for a, b in zip(peaks, peaks[1:])):
                    bad += 1
    plain_peak = cache_schedule(plan_stage(StageTopologyConfig(5, 2, 2, Mode.PLAIN))).peak_live_count
    bad += int(plain_peak != 1)
    return _result("cache_peak_ordering", bad == 0, bad, "plain<=sparx<=dgc<=dsn; plain==1")


def check_cost_model_agreement():
    bad = 0
    for depth, stride, window, mode in _sweep_configs():
        plan = plan_stage(StageTopologyConfig(depth, stride, window, Mode(mode)))
        if cache_schedule(plan).peak_live_count != oracle_peak_live(depth, stride, window, mode):
            bad += 1
    return _result("cost_model_schedule_agreement", bad == 0, bad, "exact")


def check_concat_split():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((64, 196)).astype(np.float32))
    b = Tensor(rng.standard_normal((64, 196)).astype(np.float32))
    cat = nd.concat([a, b], axis=0)
    ra, rb = nd.split(cat, 2, axis=0)
    ok = (cat.shape == (128, 196) and np.array_equal(ra.data, a.data)
          and np.array_equal(rb.data, b.data))
    return _result("concat_split_roundtrip", ok, "bit-equal" if ok else "mismatch", "bit-exact")


def check_softmax_rowsum():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        x = Tensor(rng.uniform(-50, 50, size=(8, 16)))
        s = nd.softmax_lastdim(x).data
        worst = max(worst, float(np.abs(s.sum(axis=-1) - 1).max()))
    return _result("softmax_rowsum", worst <= 1e-6, f"{worst:.2e}", "1e-6")


def check_softmax_shift():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 9))
    d = np.abs(nd.softmax_lastdim(Tensor(x)).data
               - nd.softmax_lastdim(Tensor(x + 100.0)).data).max()
    return _result("softmax_shift_invariance", d <= 1e-6, f"{d:.2e}", "1e-6")


def check_layernorm_moments():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 10)) * 3 + 2
    y = nd.layernorm_channels(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    dm = float(np.abs(y.mean(axis=0)).max())
    dv = float(np.abs(y.var(axis=0) - 1).max())
    return _result("layernorm_moments", dm <= 1e-5 and dv <= 1e-5,
                   f"mean {dm:.2e}, var {dv:.2e}", "1e-5")


def check_dwconv_independence():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 6, 6))
    x[2] = 0.0
    w = rng.standard_normal((4, 3, 3))
    y = nd.dwconv(Tensor(x), Tensor(w), pad=1).data
    ok = np.all(y[2] == 0.0)
    return _result("dwconv_channel_independence", ok, "channel stays zero" if ok else "mixed",
                   "exact")


def check_scan_causality():
    rng = np.random.default_rng(5)
    init = Initializer(5, dtype=np.float64)
    p = bind(stack([init_ssm(init, 3, 2)]))
    x = rng.standard_normal((3, 1, 6))
    y1 = scan_forward(Tensor(x), p).data
    x2 = x.copy()
    x2[..., -1] += 10.0
    y2 = scan_forward(Tensor(x2), p).data
    ok = np.array_equal(y1[..., :-1], y2[..., :-1])
    return _result("scan_causality", ok, "prefix bit-equal" if ok else "leaked", "bit-exact")


def check_scan_recurrence():
    # one direction in token order, constant delta=softplus(log(e-1))=1 (a zero step-input
    # weight plus that bias, unit step projection), A=-exp(0)=-1, b=1 and c=1 (zero weights
    # plus unit biases), d=0, x=[1,0,0] -> y = [1, e^-1, e^-2]
    one, zero = Tensor(np.ones((1, 1, 1))), Tensor(np.zeros((1, 1)))
    y = nd.selective_scan(Tensor([[1.0, 0.0, 0.0]]), Tensor(np.zeros((1, 3, 1))), Tensor([[np.log(np.e - 1), 1, 1]]),
                          one, zero, Tensor(np.zeros((1, 1, 1))), zero, np.arange(3)[None]).data
    ref = np.array([1.0, np.exp(-1.0), np.exp(-2.0)])
    err = float(np.abs(y[0] - ref).max())
    return _result("scan_hand_recurrence", err <= 1e-4, f"{err:.2e}", "1e-4")


def check_ss2d_equivariance():
    rng = np.random.default_rng(6)
    init = Initializer(6, dtype=np.float64)
    ps = [init_ssm(init, 2, 2) for _ in range(4)]
    x = rng.standard_normal((2, 4, 4))
    y = scan_forward(Tensor(x), bind(stack(ps))).data
    xr = x[:, ::-1, ::-1].copy()
    yr = scan_forward(Tensor(xr), bind(stack([ps[1], ps[0], ps[3], ps[2]]))).data
    err_rot = float(np.abs(yr[:, ::-1, ::-1] - y).max())
    xt = x.transpose(0, 2, 1).copy()
    yt = scan_forward(Tensor(xt), bind(stack([ps[2], ps[3], ps[0], ps[1]]))).data
    err_t = float(np.abs(yt.transpose(0, 2, 1) - y).max())
    err = max(err_rot, err_t)
    return _result("ss2d_symmetry_equivariance", err <= 1e-12, f"{err:.2e}", "1e-12",
                   "180-degree rotation and transpose with matching direction swaps")


def check_window_attn_oracle():
    rng = np.random.default_rng(7)
    C, H = 8, 4
    init = Initializer(7, dtype=np.float64)
    p = init_window_attn(init, C, H, heads=2, shifted=False)
    p.w_qkv = rng.standard_normal(p.w_qkv.shape)
    p.b_qkv = rng.standard_normal(p.b_qkv.shape)
    p.w_out = rng.standard_normal(p.w_out.shape)
    p.b_out = rng.standard_normal(p.b_out.shape)
    x = rng.standard_normal((C, H, H))
    got = window_attention_forward(Tensor(x), bind(p)).data
    tokens = x.reshape(C, H * H).T
    ref = dense_attention_oracle(tokens, p.w_qkv, p.b_qkv, p.w_out, p.b_out, heads=2)
    err = float(np.abs(got.reshape(C, H * H).T - ref).max())
    return _result("window_attn_dense_oracle", err <= 1e-6, f"{err:.2e}", "1e-6")


def grad_check(f, params, h=1e-4, rng=None, max_elements=None):
    """Max relative error between tape gradients and central differences.

    Each entry of ``params`` is an ndarray or a parameter structure; ``f``
    takes the entries bound as Tensors and returns a scalar Tensor, and it
    must be deterministic. Checks run on a float64 copy of ``params``. When
    ``max_elements`` is given, a random subset of parameter elements is
    checked (seeded through ``rng``). The relative error per element is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    params = [map_arrays(p, lambda a: np.array(a, dtype=np.float64)) for p in params]
    tape = nd.Tape()
    bound = [bind(p, tape) for p in params]
    grads = nd.backward(tape, f(*bound))
    leaves = [pair for p, b in zip(params, bound) for pair in pair_leaves(p, b)]

    coords = [(i, j) for i, (arr, _) in enumerate(leaves) for j in range(arr.size)]
    if max_elements is not None and len(coords) > max_elements:
        rng = rng if rng is not None else np.random.default_rng(0)
        chosen = rng.choice(len(coords), size=max_elements, replace=False)
        coords = [coords[int(k)] for k in sorted(chosen)]

    def eval_loss():
        return float(f(*[bind(p) for p in params]).data.reshape(-1)[0])

    worst = 0.0
    for i, j in coords:
        arr, leaf = leaves[i]
        orig = arr.flat[j]
        arr.flat[j] = orig + h
        fp = eval_loss()
        arr.flat[j] = orig - h
        fm = eval_loss()
        arr.flat[j] = orig
        numeric = (fp - fm) / (2.0 * h)
        ana = grads[leaf.node].data.flat[j]
        worst = max(worst, abs(ana - numeric) / max(1.0, abs(ana), abs(numeric)))
    return worst


def _grad_case(name, fn, params, tol=1e-4, max_elements=None):
    err = grad_check(fn, params, max_elements=max_elements,
                     rng=np.random.default_rng(99))
    return _result(name, err <= tol, f"{err:.2e}", f"{tol:g}")


def check_grad_dpe():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 4, 4))
    p = DpeParams(rng.standard_normal((2, 3, 3)) * 0.3, rng.standard_normal(2) * 0.1)
    return _grad_case("grad_dpe", lambda xx, pp: sum_all(dpe_forward(xx, pp)), [x, p])


def check_grad_convffn():
    rng = np.random.default_rng(9)
    init = Initializer(9, dtype=np.float64)
    p = init_convffn(init, 3, 2)
    x = rng.standard_normal((3, 3, 3))
    ln_g, ln_b = 1 + 0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3)
    return _grad_case("grad_convffn", lambda xx, gg, bb, pp: sum_all(convffn_forward(xx, gg, bb, pp)),
                      [x, ln_g, ln_b, p])


def _grad_scan_case(name, seed, k, shape, max_elements=None):
    """Gradient of a k-direction scan mixer over its input map and stacked parameters."""
    rng = np.random.default_rng(seed)
    init = Initializer(seed, dtype=np.float64)
    p = stack([init_ssm(init, 2, 2) for _ in range(k)])
    x = rng.standard_normal(shape)
    return _grad_case(name, lambda xx, pp: sum_all(scan_forward(xx, pp)), [x, p],
                      max_elements=max_elements)


def check_grad_scan():
    return _grad_scan_case("grad_selective_scan", 10, 1, (2, 1, 5))


def check_grad_ss2d():
    return _grad_scan_case("grad_ss2d", 11, 4, (2, 4, 4), max_elements=80)


def check_grad_bissm():
    return _grad_scan_case("grad_bissm", 12, 2, (2, 3, 3), max_elements=80)


def check_grad_window_attn():
    rng = np.random.default_rng(13)
    init = Initializer(13, dtype=np.float64)
    p = init_window_attn(init, 4, 2, heads=2, shifted=True)
    x = rng.standard_normal((4, 4, 4))
    return _grad_case("grad_window_attn",
                      lambda xx, pp: sum_all(window_attention_forward(xx, pp)), [x, p],
                      max_elements=80)


def check_grad_dmca():
    rng = np.random.default_rng(14)
    init = Initializer(14, dtype=np.float64)
    p = init_dmca(init, 8, 2, reduce_stride=2, groups=4)
    x = rng.standard_normal((8, 4, 4))
    ys = list(rng.standard_normal((2, 8, 4, 4)))
    return _grad_case("grad_dmca_full", lambda xx, yy, pp: sum_all(dmca_forward(xx, yy, pp)),
                      [x, ys, p], max_elements=120)


def check_grad_vss_block():
    rng = np.random.default_rng(15)
    init = Initializer(15, dtype=np.float64)
    p = init_vss_block(init, "ss2d", 2, 2, 2, window=2, heads=1, layer_index=0)
    x = rng.standard_normal((2, 3, 3))
    return _grad_case("grad_vss_block", lambda xx, pp: sum_all(vss_block_forward(xx, pp)),
                      [x, p], max_elements=100)


def check_grad_reduced_model():
    cfg = get_variant("tiny-reduced")
    model = build(cfg, 0, dtype=np.float64)
    img = np.random.default_rng(16).standard_normal((3, cfg.input_size, cfg.input_size))
    worst = grad_check(lambda m: sum_all(forward_bound(m, Tensor(img))[0]), [model],
                       max_elements=60, rng=np.random.default_rng(17))
    return _result("grad_reduced_model", worst <= 1e-3, f"{worst:.2e}", "1e-3",
                   f"sampled 60 of {count_arrays(model)} parameters")


def check_dmca_shape_independence():
    shapes = set()
    for side in (7, 14, 28, 56):
        n = side * side
        stride = side // 7
        rng = np.random.default_rng(21)
        q = group_channels(Tensor(rng.standard_normal((8, side // stride, side // stride))), 4)
        k = group_channels(Tensor(rng.standard_normal((8, side // stride, side // stride))), 4)
        attn = cgca_attention(q, k, scale_n=n // (stride * stride))
        shapes.add(attn.shape)
    ok = shapes == {(4, 2, 2)}
    return _result("dmca_attention_shape_independence", ok, str(sorted(shapes)),
                   "G x C/G x C/G for all N")


def check_dmca_rowsum():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        q = group_channels(Tensor(rng.standard_normal((8, 4, 4))), 4)
        k = group_channels(Tensor(rng.standard_normal((8, 4, 4))), 4)
        attn = cgca_attention(q, k, scale_n=16).data
        worst = max(worst, float(np.abs(attn.sum(axis=-1) - 1).max()))
    return _result("dmca_attention_rowsum", worst <= 1e-6, f"{worst:.2e}", "1e-6")


def check_dmca_zero_sources():
    init = Initializer(23, dtype=np.float64)
    p = bind(init_dmca(init, 8, 2, reduce_stride=1, groups=4))
    rng = np.random.default_rng(24)
    x = rng.standard_normal((8, 4, 4))
    zeros = [Tensor(np.zeros((8, 4, 4))) for _ in range(2)]
    out1 = dmca_forward(Tensor(x), zeros, p).data
    out2 = dmca_forward(Tensor(2 * x), zeros, p).data
    err = float(np.abs(out2 - 2 * out1).max())  # linear in x when sources are zero
    return _result("dmca_zero_sources_linear", err <= 1e-9, f"{err:.2e}", "1e-9")


def check_dmca_param_formula():
    bad = 0
    for mode in DMCA_MODES:
        for C, L, s in ((8, 1, 1), (8, 3, 2), (16, 2, 4)):
            init = Initializer(25, dtype=np.float64)
            p = init_dmca(init, C, L, reduce_stride=s, mode=mode)
            actual = sum(a.size for _, a in iter_arrays(p))
            if actual != dmca_param_count(C, L, s, mode=mode):
                bad += 1
    return _result("dmca_param_count_formula", bad == 0, bad, "exact for all modes")


def check_accounting_bands():
    rows = []
    ok = True
    for name, p_t, f_t in (("tiny", 27.1e6, 5.2e9), ("small", 47e6, 9.3e9), ("base", 84e6, 15.9e9)):
        cfg = get_variant(name)
        p = count_arrays(build(cfg, 0))
        f = count_flops(cfg)["total"]
        ok = ok and abs(p - p_t) / p_t <= 0.10 and abs(f - f_t) / f_t <= 0.15
        rows.append(f"{name} {p/1e6:.1f}M/{f/1e9:.2f}G")
    return _result("params_flops_bands", ok, "; ".join(rows), "params +-10%, flops +-15%")


def check_flops_resolution():
    cfg = get_variant("tiny")
    ratio = count_flops(cfg, 384)["total"] / count_flops(cfg, 224)["total"]
    return _result("flops_resolution_ratio", 2.9 <= ratio <= 3.1, f"{ratio:.4f}", "[2.9, 3.1]")


def check_build_determinism():
    cfg = get_variant("tiny-reduced")
    a = build(cfg, 0)
    b = build(cfg, 0)
    same = all(np.array_equal(x, y) for (_, x), (_, y) in
               zip(iter_arrays(a), iter_arrays(b)))
    return _result("build_determinism", same, "bit-identical" if same else "differs", "bit-exact")


def check_forward_determinism():
    cfg = get_variant("tiny-reduced")
    model = build(cfg, 0)
    img = np.random.default_rng(30).standard_normal((3, 32, 32)).astype(np.float32)
    l1, _ = forward(model, img)
    l2, _ = forward(model, img)
    same = np.array_equal(l1, l2)
    return _result("forward_determinism", same, "bit-identical" if same else "differs", "bit-exact")


def check_memory_ordering():
    cfg = get_variant("tiny")
    vals = {m.value: memory_report(cfg, mode=m.value)["total_training_bytes"] for m in Mode}
    seq = list(vals.values())
    ok = all(a < b for a, b in zip(seq, seq[1:]))
    return _result("memory_mode_ordering", ok,
                   " < ".join(f"{m}:{v//2**20}MiB" for m, v in vals.items()),
                   "plain < sparx < dgc < dsn")


def check_mixer_interchangeability():
    plans = {}
    dmca_shapes = {}
    for mixer in MIXERS:
        cfg = get_variant("tiny-reduced", mixer=mixer)
        model = build(cfg, 0)
        plans[mixer] = [plan_as_tuples(p) for p in model.plans]
        dmca_shapes[mixer] = [
            tuple(a.shape for _, a in iter_arrays(l.dmca))
            for st in model.stages for l in st.layers if l.dmca is not None
        ]
    ok = (len({str(v) for v in plans.values()}) == 1
          and len({str(v) for v in dmca_shapes.values()}) == 1)
    return _result("mixer_interchangeability", ok,
                   "plans and aggregator shapes identical" if ok else "diverged", "exact")


def check_cka_identities():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((32, 12))
    self_err = abs(cka_linear(a, a) - 1.0)
    qm, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    orth_err = abs(cka_linear(a, 3.0 * (a @ qm)) - 1.0)
    b = rng.standard_normal((32, 12))
    sym_err = abs(cka_linear(a, b) - cka_linear(b, a))
    worst = max(self_err, orth_err, sym_err)
    return _result("cka_identities", worst <= 1e-6, f"{worst:.2e}", "1e-6")


def check_erf_footprints():
    rng = np.random.default_rng(41)
    w1 = Tensor(rng.standard_normal((1, 3, 3)))
    w2 = Tensor(rng.standard_normal((1, 3, 3)))
    images = [rng.standard_normal((1, 9, 9)) for _ in range(2)]
    one = erf_map(lambda img: nd.dwconv(img, w1, pad=1), images)
    two = erf_map(lambda img: nd.dwconv(nd.dwconv(img, w1, pad=1), w2, pad=1), images)
    s1 = one.support()
    s2 = two.support()
    ok = s1.sum() == 9 and s2.sum() == 25 and np.all(s2[s1])
    return _result("erf_conv_footprints", ok, f"3x3 support={int(s1.sum())}, stacked={int(s2.sum())}",
                   "9 and 25 cells")


def run_checks() -> list[CheckResult]:
    """Run every registered check; failures never abort the suite early."""
    results = []
    for fn in CHECKS:
        try:
            results.append(fn())
        except Exception as e:  # a crashed check is a failed check
            results.append(_result(fn.__name__.removeprefix("check_"), False,
                                   f"exception: {type(e).__name__}: {e}", "no exception"))
    return results


CHECKS = [fn for name, fn in list(globals().items()) if name.startswith("check_")]
