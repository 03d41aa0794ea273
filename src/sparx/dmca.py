"""Multi-layer channel aggregation with grouped channel cross-attention.

A ganglion layer's current feature map ``x`` (C,H,W) queries a stack of
earlier maps ``ys`` (each C,H,W). The earlier maps are concatenated,
projected to 2C and split into a key source and a value source. Query and
key are spatially reduced, then flattened into channel groups: channel-to-
channel attention is computed within ``groups`` channel groups, so the
attention map is (G, C/G, C/G) regardless of how many tokens the map has;
the value keeps full resolution. The output concatenates x, the value
source, and the attended feature, projected to a (2C,H,W) map.

Spatial reduction is a learned depthwise filter over non-overlapping s x s
windows (``nd.window_reduce``) with s*s = r, chosen so N/r (N = H*W) matches
the token count of the network's final stage.

Ablation modes:
* ``concat``: single linear over cat(x, ys...), no attention.
* ``no_cgca``: value branch only; output fuses cat(x, value source).
* ``no_sr``: full pipeline with identity reducers (r = 1).
* ``no_skip``: output projects the attended feature alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nd import (Tensor, concat, matmul, permute, reshape, scale,
                 softmax_lastdim, split, window_reduce, ShapeError)
from .params import Initializer

DMCA_MODES = ("full", "concat", "no_cgca", "no_sr", "no_skip")


@dataclass
class DmcaParams:
    mode: str
    channels: int
    l_count: int
    groups: int
    reduce_stride: int
    mix_w: np.ndarray | None = None   # (2C, L*C); (C, L*C) in no_cgca
    mix_b: np.ndarray | None = None
    q_w: np.ndarray | None = None     # (C, C)
    q_b: np.ndarray | None = None
    k_w: np.ndarray | None = None
    k_b: np.ndarray | None = None
    v_w: np.ndarray | None = None
    v_b: np.ndarray | None = None
    out_w: np.ndarray | None = None   # (2C, fan-in); fan-in depends on mode
    out_b: np.ndarray | None = None
    q_red: np.ndarray | None = None   # (C, s, s) depthwise reducer, no bias
    k_red: np.ndarray | None = None


def init_dmca(init: Initializer, channels: int, l_count: int, reduce_stride: int,
              groups: int = 4, mode: str = "full") -> DmcaParams:
    C, L = channels, l_count
    if mode not in DMCA_MODES:
        raise ShapeError(f"unknown aggregation mode {mode!r}")
    if C % groups:
        raise ShapeError(f"channels {C} not divisible by groups {groups}")
    if L < 1:
        raise ShapeError("aggregation needs at least one source feature")
    s = 1 if mode == "no_sr" else int(reduce_stride)
    p = DmcaParams(mode=mode, channels=C, l_count=L, groups=groups, reduce_stride=s)
    if mode == "concat":
        p.out_w = init.trunc_normal((2 * C, (L + 1) * C))
        p.out_b = init.zeros((2 * C,))
        return p
    if mode == "no_cgca":
        p.mix_w = init.trunc_normal((C, L * C))
        p.mix_b = init.zeros((C,))
        p.out_w = init.trunc_normal((2 * C, 2 * C))
        p.out_b = init.zeros((2 * C,))
        return p
    p.mix_w = init.trunc_normal((2 * C, L * C))
    p.mix_b = init.zeros((2 * C,))
    p.q_w, p.q_b = init.trunc_normal((C, C)), init.zeros((C,))
    p.k_w, p.k_b = init.trunc_normal((C, C)), init.zeros((C,))
    p.v_w, p.v_b = init.trunc_normal((C, C)), init.zeros((C,))
    fan_in = C if mode == "no_skip" else 3 * C
    p.out_w = init.trunc_normal((2 * C, fan_in))
    p.out_b = init.zeros((2 * C,))
    if s > 1:
        p.q_red = init.trunc_normal((C, s, s))
        p.k_red = init.trunc_normal((C, s, s))
    return p


def group_channels(t: Tensor, groups: int) -> Tensor:
    """(C, *rest) -> (G, C/G, N) with contiguous channel groups; N flattens ``rest``."""
    C = t.shape[0]
    if C % groups:
        raise ShapeError(f"channels {C} not divisible by groups {groups}")
    return reshape(t, (groups, C // groups, math.prod(t.shape[1:])))


def cgca_attention(q: Tensor, k: Tensor, scale_n: int) -> Tensor:
    """Grouped channel-to-channel attention map, softmaxed per row.

    q and k are (G, C/G, N/r); the map is (G, C/G, C/G): its size does not
    depend on the token count.
    """
    if q.shape != k.shape:
        raise ShapeError(f"attention: query {q.shape} and key {k.shape} differ")
    logits = scale(matmul(q, permute(k, (0, 2, 1))), 1.0 / math.sqrt(scale_n))
    return softmax_lastdim(logits)


def dmca_forward(x: Tensor, ys: list, p: DmcaParams) -> Tensor:
    """Aggregate earlier feature maps into the current one; (C,H,W) -> (2C,H,W).

    ``ys`` holds maps shaped like ``x``, ordered the way the mixing
    projection was built (the caller owns that ordering and keeps it fixed).
    The window reducers need H and W divisible by the reduction stride;
    ``window_reduce`` checks that. ``ys`` is dropped right after the concat
    that first reads it, and never changed: a source that only the list
    holds (``backbone.forward_bound`` passes the ones its cache evicts) is
    freed before any projection runs.
    """
    if len(ys) != p.l_count:
        raise ShapeError(f"expected {p.l_count} source features, got {len(ys)}")
    mismatched = [y.shape for y in ys if y.shape != x.shape]  # no loop variable outlives the check
    if mismatched:
        raise ShapeError(f"source feature {mismatched[0]} does not match current {x.shape}")
    if x.shape[0] != p.channels:
        raise ShapeError(f"feature channels {x.shape[0]} do not match aggregator channels {p.channels}")

    if p.mode == "concat":
        cat = concat([x, *ys], axis=0)
        del ys
        return matmul(p.out_w, cat, p.out_b)

    # each intermediate is dropped after its last use, so only live maps count towards the peak
    cat_ys = concat(ys, axis=0)
    del ys
    if p.mode == "no_cgca":
        yv = matmul(p.mix_w, cat_ys, p.mix_b)
        del cat_ys
        return matmul(p.out_w, concat([x, yv], axis=0), p.out_b)

    mixed = matmul(p.mix_w, cat_ys, p.mix_b)
    del cat_ys
    yk, yv = split(mixed, 2, axis=0)
    del mixed
    s = p.reduce_stride
    q_in = x if s == 1 else window_reduce(x, p.q_red)
    k_in = yk if s == 1 else window_reduce(yk, p.k_red)
    del yk
    q = group_channels(matmul(p.q_w, q_in, p.q_b), p.groups)
    del q_in
    k = group_channels(matmul(p.k_w, k_in, p.k_b), p.groups)
    del k_in
    v = group_channels(matmul(p.v_w, yv, p.v_b), p.groups)
    z = reshape(matmul(cgca_attention(q, k, q.shape[2]), v), x.shape)
    del q, k, v
    if p.mode == "no_skip":
        return matmul(p.out_w, z, p.out_b)
    return matmul(p.out_w, concat([x, yv, z], axis=0), p.out_b)


def dmca_param_count(channels: int, l_count: int, reduce_stride: int,
                     mode: str = "full") -> int:
    """Closed-form parameter count, biases included; must agree with the built structures."""
    C, L = channels, l_count
    s = 1 if mode == "no_sr" else reduce_stride
    if mode == "concat":
        return (L + 1) * C * 2 * C + 2 * C
    if mode == "no_cgca":
        return (L * C * C + C) + (2 * C * 2 * C + 2 * C)
    total = L * C * 2 * C + 2 * C              # mixing projection
    total += 3 * (C * C + C)                   # query/key/value projections
    fan_in = C if mode == "no_skip" else 3 * C
    total += fan_in * 2 * C + 2 * C            # output projection
    if s > 1:
        total += 2 * s * s * C                 # depthwise reducers, no bias
    return total


def dmca_macs(channels: int, l_count: int, tokens: int, reduce_stride: int, groups: int,
              mode: str = "full") -> int:
    """Closed-form multiply-accumulates of one ``dmca_forward`` on N = ``tokens``.

    Counts the projections, the window reducers and both attention products;
    ``no_sr`` runs at stride 1 whatever ``reduce_stride`` says.
    """
    C, L, N = channels, l_count, tokens
    if mode == "concat":
        return N * ((L + 1) * C) * 2 * C
    if mode == "no_cgca":
        return N * (L * C) * C + N * 2 * C * 2 * C
    s = 1 if mode == "no_sr" else reduce_stride
    r = s * s
    macs = N * (L * C) * 2 * C                 # mixing projection
    macs += 2 * (N // r) * C * C + N * C * C   # q, k, v projections
    if s > 1:
        macs += 2 * (N // r) * C * s * s       # depthwise window reducers
    macs += (C * C // groups) * (N // r)       # channel attention logits
    macs += (C * C // groups) * N              # attention applied to value
    fan_in = C if mode == "no_skip" else 3 * C
    macs += N * fan_in * 2 * C                 # output projection
    return macs
