"""Layer-level building blocks: position encoding, token mixers, feed-forward.

Every block maps a (C,H,W) map to a (C,H,W) map, and the channel ops it
calls (``matmul`` projection, layernorm, depthwise convolution) take maps
directly. A reshape appears only where the token axes change: a scan
flattens the map into sequences, window attention partitions it into
windows.

Four interchangeable token mixers are provided: shifted window attention and
one selective scan run over the first 1, 2 or 4 of four fixed directions (a
causal 1-d scan, a bidirectional 1-d scan, and a four-direction 2-d scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .nd import (Tensor, add, concat, dwconv, gather_rows, gelu, matmul, pad_spatial, permute,
                 reshape, roll2d, scale, selective_scan, slice_axis,
                 softmax_lastdim, split, layernorm_channels, ShapeError)
from .params import Initializer, stack

# Scan mixers by the number of directions they run, taken in the fixed order
# row-major forward, row-major reversed, column-major forward, column-major
# reversed.
SCAN_DIRECTIONS = {"ssm": 1, "bissm": 2, "ss2d": 4}
MIXERS = (*SCAN_DIRECTIONS, "window_attn")


def delta_rank(channels: int) -> int:
    """Rank of the low-rank step-size projection inside the scan mixers."""
    return max(1, math.ceil(channels / 8))


def mixer_macs(kind: str, C: int, N: int, state: int, window: int) -> int:
    """Multiply-accumulates of one token mixer over N tokens of width C.

    A scan direction counts its step-size, B and C projections, 9 MACs per
    channel-state-step and the skip term.
    """
    if kind == "window_attn":
        T = window * window
        return 3 * N * C * C + 2 * N * T * C + N * C * C
    rank = delta_rank(C)
    per_direction = 2 * N * C * rank + 2 * N * C * state + 9 * C * state * N + N * C
    return SCAN_DIRECTIONS[kind] * per_direction


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass
class DpeParams:
    """Residual 3x3 depthwise convolution (dynamic position encoding)."""
    w: np.ndarray  # (C,3,3)
    b: np.ndarray  # (C,)


@dataclass
class SsmParams:
    """Scan directions of a selective state-space mixer.

    ``init_ssm`` makes one direction with the shapes below; a mixer stacks
    its k directions on a new leading axis (``params.stack``). The state
    matrix is diagonal and strictly negative, A = -exp(a_log). The step size
    is softplus(w_dt_out @ (w_dt_in @ token + b_dt_in) + b_dt_out), so it is
    strictly positive: the mixer runs the rank-r inner projection on the whole
    map, and the selective scan applies the outer one and softplus chunk by
    chunk, so no full (C, tokens) step tensor is built.
    """
    a_log: np.ndarray     # (C, state)
    d: np.ndarray         # (C,) passthrough
    w_dt_in: np.ndarray   # (rank, C)
    b_dt_in: np.ndarray   # (rank,)
    w_dt_out: np.ndarray  # (C, rank), applied inside the scan
    b_dt_out: np.ndarray  # (C,), applied inside the scan
    w_b: np.ndarray       # (state, C)
    b_b: np.ndarray       # (state,)
    w_c: np.ndarray       # (state, C)
    b_c: np.ndarray       # (state,)


@dataclass
class WindowAttnParams:
    w_qkv: np.ndarray       # (3C, C)
    b_qkv: np.ndarray       # (3C,)
    w_out: np.ndarray       # (C, C)
    b_out: np.ndarray       # (C,)
    bias_table: np.ndarray  # ((2w-1)^2, heads)
    window: int
    heads: int
    shifted: bool = False


@dataclass
class ConvFfnParams:
    w1: np.ndarray  # (hidden, C) expand
    b1: np.ndarray
    dw: np.ndarray  # (hidden, 3, 3) depthwise between the two linears
    db: np.ndarray
    w2: np.ndarray  # (C, hidden) contract
    b2: np.ndarray


@dataclass
class VssBlockParams:
    mixer: object  # SsmParams with k stacked directions for scans, WindowAttnParams for attention
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    ffn: ConvFfnParams


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

def init_dpe(init: Initializer, channels: int) -> DpeParams:
    return DpeParams(init.trunc_normal((channels, 3, 3)), init.zeros((channels,)))


def init_ssm(init: Initializer, channels: int, state_dim: int) -> SsmParams:
    rank = delta_rank(channels)
    a_log = np.log(np.arange(1, state_dim + 1, dtype=np.float64))
    return SsmParams(
        a_log=init.constant(np.tile(a_log, (channels, 1))),
        d=init.ones((channels,)),
        w_dt_in=init.trunc_normal((rank, channels)),
        b_dt_in=init.zeros((rank,)),
        w_dt_out=init.trunc_normal((channels, rank)),
        b_dt_out=init.zeros((channels,)),
        w_b=init.trunc_normal((state_dim, channels)),
        b_b=init.zeros((state_dim,)),
        w_c=init.trunc_normal((state_dim, channels)),
        b_c=init.zeros((state_dim,)),
    )


def init_window_attn(init: Initializer, channels: int, window: int, heads: int,
                     shifted: bool) -> WindowAttnParams:
    if channels % heads:
        raise ShapeError(f"window attention: channels {channels} not divisible by heads {heads}")
    table = (2 * window - 1) ** 2
    return WindowAttnParams(
        w_qkv=init.trunc_normal((3 * channels, channels)),
        b_qkv=init.zeros((3 * channels,)),
        w_out=init.trunc_normal((channels, channels)),
        b_out=init.zeros((channels,)),
        bias_table=init.zeros((table, heads)),
        window=window, heads=heads, shifted=shifted,
    )


def init_convffn(init: Initializer, channels: int, ratio: int) -> ConvFfnParams:
    hidden = channels * ratio
    return ConvFfnParams(
        w1=init.trunc_normal((hidden, channels)), b1=init.zeros((hidden,)),
        dw=init.trunc_normal((hidden, 3, 3)), db=init.zeros((hidden,)),
        w2=init.trunc_normal((channels, hidden)), b2=init.zeros((channels,)),
    )


def init_vss_block(init: Initializer, kind: str, channels: int, state_dim: int,
                   ffn_ratio: int, window: int, heads: int, layer_index: int) -> VssBlockParams:
    if kind == "window_attn":
        mixer = init_window_attn(init, channels, window, heads, shifted=layer_index % 2 == 1)
    else:
        mixer = stack([init_ssm(init, channels, state_dim) for _ in range(SCAN_DIRECTIONS[kind])])
    return VssBlockParams(
        mixer=mixer,
        ln1_g=init.ones((channels,)), ln1_b=init.zeros((channels,)),
        ln2_g=init.ones((channels,)), ln2_b=init.zeros((channels,)),
        ffn=init_convffn(init, channels, ffn_ratio),
    )


# ---------------------------------------------------------------------------
# forward passes (params hold Tensors: ``params.bind`` makes them from arrays)
# ---------------------------------------------------------------------------

def dpe_forward(x: Tensor, p: DpeParams) -> Tensor:
    return add(x, dwconv(x, p.w, p.b, pad=1))


# Output tokens per row band of a map that is computed band by band (the
# ConvFFN, the stem's second convolution): a map with more tokens runs in row
# bands, so no full-size intermediate of it is live. A 56 x 56 map (stage 1 of
# `tiny`@224) runs in three bands of 19/19/18 rows; stage 2 and later fit in one.
_BAND_TOKENS = 1120


def row_bands(C: int, H: int, W: int) -> list[tuple[int, int]]:
    """Row ranges [r0, r1) of the bands a C x H x W output map runs in, top to bottom.

    n = min(H, ceil(H*W / _BAND_TOKENS)) bands of equal height, the first
    H % n one row taller; a map of at most ``_BAND_TOKENS`` tokens is one band.
    A band's cells are computed as on the whole map, so the joined bands
    equal the one-band result up to the order in which BLAS sums a product.
    numpy sends a product with one output channel, or with one token, through
    a matrix-vector kernel that sums by a token's column, so a one-channel map
    stays one band and a one-column map keeps two rows a band. OpenBLAS' matrix
    kernels sum every token alike when a band's width in tokens is a multiple
    of their column block: on the 56-column maps of `tiny`@224 the joined bands
    are bit-identical to one band in float32 and float64, while on other
    widths float64 results may differ in the last bits.
    """
    n = -(-H * W // _BAND_TOKENS) if C > 1 else 1
    n = max(1, min(n, H if W > 1 else H // 2))
    rows, extra = divmod(H, n)
    ends = np.cumsum([0] + [rows + (i < extra) for i in range(n)]).tolist()
    return list(zip(ends, ends[1:]))


def banded(f, x: Tensor, c_out: int, stride: int = 1) -> Tensor:
    """``f(band, pad)``, a 3x3 convolution with padding 1 and ``stride``, run over the ``row_bands`` of its output.

    Output rows [r0, r1) read input rows stride*r0 - 1 to stride*(r1 - 1) + 1: a band slices those inside
    the map, and its pad ((top, bottom), (1, 1)) has a zero row only where the map ends, so each output
    cell is computed as on the whole map (bit for bit where ``row_bands`` says so). One band is ``f(x, 1)``.
    """
    H, W = x.shape[1:]
    bands = row_bands(c_out, (H - 1) // stride + 1, (W - 1) // stride + 1)
    if len(bands) == 1:
        return f(x, 1)
    return concat([f(slice_axis(x, 1, max(stride * r0 - 1, 0), min(stride * (r1 - 1) + 2, H)),
                     ((int(r0 == 0), max(stride * (r1 - 1) + 2 - H, 0)), (1, 1))) for r0, r1 in bands], axis=1)


def convffn_forward(x: Tensor, p: ConvFfnParams) -> Tensor:
    """Expand, 3x3 depthwise, gelu, contract; a map of over ``_BAND_TOKENS`` tokens in row bands.

    Each band of ``banded`` expands its rows and halo rows. Within a band each hidden map is freed
    after its last use, so at most two band-sized hidden maps are live at once.
    """
    def ffn(t, pad):
        return matmul(p.w2, gelu(dwconv(matmul(p.w1, t, p.b1), p.dw, p.db, pad=pad)), p.b2)

    return banded(ffn, x, x.shape[0])


@lru_cache(maxsize=32)
def scan_orders(H: int, W: int, k: int) -> np.ndarray:
    """The (k, H*W) token orders of the first k scan directions on an H x W map."""
    rows, cols = np.arange(H * W), np.arange(H * W).reshape(H, W).T.reshape(-1)
    order = np.stack([rows, rows[::-1], cols, cols[::-1]][:k])
    order.flags.writeable = False
    return order


def scan_forward(x: Tensor, p: SsmParams) -> Tensor:
    """Selective scan over the first k directions of ``SCAN_DIRECTIONS``, summed.

    ``p`` holds k = 1 (causal scan), 2 (bidirectional scan) or 4 (2-d scan)
    stacked directions. Every projection is per token, so each runs once on
    the flattened map for all k directions, in token order: B, C and the
    rank-r step input. The one selective scan projects the step input to
    step sizes chunk by chunk, visits the tokens in each direction's order
    and returns the directions summed in token order.
    """
    k = p.a_log.shape[0]
    if k not in SCAN_DIRECTIONS.values():
        raise ShapeError(f"scan mixer: expected 1, 2 or 4 stacked directions, got {k}")
    C, H, W = x.shape
    seq = reshape(x, (1, C, H * W))
    dt = matmul(p.w_dt_in, seq, p.b_dt_in)
    b, c = matmul(p.w_b, seq, p.b_b), matmul(p.w_c, seq, p.b_c)
    y = selective_scan(reshape(x, (C, H * W)), dt, p.w_dt_out, p.b_dt_out, p.a_log, b, c, p.d,
                       scan_orders(H, W, k))
    return reshape(y, (C, H, W))


@lru_cache(maxsize=32)
def relative_index(window: int) -> np.ndarray:
    """Map (T,T) token pairs inside a window to bias-table rows."""
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :]
    rel = rel + window - 1
    return (rel[0] * (2 * window - 1) + rel[1]).astype(np.int64)


@lru_cache(maxsize=32)
def shift_mask(hp: int, wp: int, window: int, shift: int) -> np.ndarray:
    """Additive attention mask hiding cross-boundary pairs after a cyclic shift."""
    img = np.zeros((hp, wp))
    cnt = 0
    for hs in (slice(0, -window), slice(-window, -shift), slice(-shift, None)):
        for ws_ in (slice(0, -window), slice(-window, -shift), slice(-shift, None)):
            img[hs, ws_] = cnt
            cnt += 1
    nh, nw = hp // window, wp // window
    wins = img.reshape(nh, window, nw, window).transpose(0, 2, 1, 3).reshape(-1, window * window)
    mask = np.where(wins[:, None, :] != wins[:, :, None], -1e4, 0.0)
    return mask  # (num_windows, T, T)


def window_attention_forward(x: Tensor, p: WindowAttnParams) -> Tensor:
    """Multi-head attention inside non-overlapping windows, shifted when ``p.shifted``.

    The map is zero-padded to a window multiple, cyclically shifted by half a
    window when shifted, projected to q/k/v on the map, partitioned once into
    (window x head) batches, attended (with learned relative position bias
    and, for the shifted case, a cross-boundary mask), reassembled once, rolled
    back and cropped. The output projection runs on the cropped map: a
    per-token projection commutes with the roll and the crop.
    """
    C, H, W = x.shape
    ws, heads = p.window, p.heads
    if C % heads:
        raise ShapeError(f"window attention: channels {C} not divisible by heads {heads}")
    dh = C // heads
    hp = (H + ws - 1) // ws * ws
    wp = (W + ws - 1) // ws * ws
    h = pad_spatial(x, (0, hp - H), (0, wp - W)) if (hp != H or wp != W) else x
    shift = ws // 2 if (p.shifted and (hp > ws or wp > ws)) else 0
    if shift:
        h = roll2d(h, -shift, -shift)

    nh, nw = hp // ws, wp // ws
    B, T = nh * nw, ws * ws
    # (3C,hp,wp) -> (3,nh,nw,heads,ws,ws,dh) -> q, k, v of (B*heads,T,dh). Each
    # intermediate is dropped after its last use: at most two copies of q/k/v
    # are live at once.
    qkv = reshape(matmul(p.w_qkv, h, p.b_qkv), (3, heads, dh, nh, ws, nw, ws))
    del h
    qkv = permute(qkv, (0, 3, 5, 1, 4, 6, 2))
    q, k, v = split(reshape(qkv, (3 * B * heads, T, dh)), 3)
    del qkv

    attn = scale(matmul(q, permute(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    del q, k
    bias = gather_rows(p.bias_table, relative_index(ws).reshape(-1))   # (T*T, heads)
    bias = reshape(permute(bias, (1, 0)), (1, heads, T, T))
    attn = add(reshape(attn, (B, heads, T, T)), bias)
    if shift:
        mask = shift_mask(hp, wp, ws, shift).astype(x.dtype)
        attn = add(attn, Tensor(mask.reshape(B, 1, T, T)))
    attn = softmax_lastdim(reshape(attn, (B * heads, T, T)))

    # (B*heads,T,dh) -> (nh,nw,heads,ws,ws,dh) -> (C,hp,wp)
    out = reshape(matmul(attn, v), (nh, nw, heads, ws, ws, dh))
    del attn, v
    out = reshape(permute(out, (2, 5, 0, 3, 1, 4)), (C, hp, wp))
    if shift:
        out = roll2d(out, shift, shift)
    if hp != H or wp != W:
        out = slice_axis(out, (1, 2), (0, 0), (H, W))
    return matmul(p.w_out, out, p.b_out)


def mixer_forward(x: Tensor, params) -> Tensor:
    """Window attention for ``WindowAttnParams``, otherwise the scan over stacked ``SsmParams``."""
    if isinstance(params, WindowAttnParams):
        return window_attention_forward(x, params)
    return scan_forward(x, params)


def vss_block_forward(x: Tensor, p: VssBlockParams) -> Tensor:
    """Pre-norm residual token mixer followed by a pre-norm residual ConvFFN."""
    x1 = add(x, mixer_forward(layernorm_channels(x, p.ln1_g, p.ln1_b), p.mixer))
    return add(x1, convffn_forward(layernorm_channels(x1, p.ln2_g, p.ln2_b), p.ffn))
