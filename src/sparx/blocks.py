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

from .nd import (Tensor, add, checkpoint, concat, dwconv, gather_rows, gelu, matmul, pad_spatial, permute, pieces,
                 reshape, roll2d, scale, scope, selective_scan, slice_axis,
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
    matrix is diagonal and strictly negative, A = -exp(a_log). Each token is
    projected by ``x_proj`` (VMamba's name) to its rank-r step input, its B
    and its C, and the step size is softplus(w_dt @ step input + b_dt), so it
    is strictly positive. The selective scan applies every projection and
    softplus itself, chunk by chunk, so no (rows, tokens) projection and no
    full (C, tokens) step tensor is built.
    """
    a_log: np.ndarray   # (C, state)
    d: np.ndarray       # (C,) passthrough
    x_proj: np.ndarray  # (rank + 2 state, C): step input, B and C rows
    b_proj: np.ndarray  # (rank + 2 state,)
    w_dt: np.ndarray    # (C, rank)
    b_dt: np.ndarray    # (C,)


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
    a_log, d = init.constant(np.tile(a_log, (channels, 1))), init.ones((channels,))
    w_dt_in, b_dt_in = init.trunc_normal((rank, channels)), init.zeros((rank,))
    w_dt, b_dt = init.trunc_normal((channels, rank)), init.zeros((channels,))
    w_b, b_b = init.trunc_normal((state_dim, channels)), init.zeros((state_dim,))
    w_c, b_c = init.trunc_normal((state_dim, channels)), init.zeros((state_dim,))
    return SsmParams(a_log=a_log, d=d, x_proj=np.concatenate([w_dt_in, w_b, w_c]),
                     b_proj=np.concatenate([b_dt_in, b_b, b_c]), w_dt=w_dt, b_dt=b_dt)


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


# Elements per row band (``row_bands``) of the widest intermediate a banded computation makes (the
# ConvFFN's hidden map, window attention's q/k/v, the stem's and a downsample's patch matrix, the
# aggregator's output concat): one stage-1 `tiny`@224 map, 96 x 56 x 56. At `tiny`@224 the stage-1 ConvFFN
# runs in bands of 12/11/11/11/11 rows and the stage-2 one in 10/9/9 (each with its halo rows within the
# budget), window attention's stage 1 in 2/2/2/2 and stage 2 in 2/2 window rows, the stem in
# 12/11/11/11/11 rows, the stage-2 downsample in 10/9/9 and the stage-3 one in 7/7 output rows, and the
# full aggregator's output in 14/14/14/14 rows at stage 1 and 14/14 at stage 2; later stages and every
# `tiny-reduced` map run in one band.
_BAND_ELEMS = 96 * 56 * 56


def row_bands(C: int, H: int, W: int, width: int, halo: int = 0) -> list[tuple[int, int]]:
    """Row ranges [r0, r1) of the bands an H x W output map of C channels runs in, top to bottom.

    The bands are ``nd.pieces(H, W * width, _BAND_ELEMS - halo * W * width)``, ``width`` being the
    elements the widest intermediate holds per token and ``halo`` the extra rows it holds per band, so a
    band's rows and its halo rows fit the budget together. A band's cells are computed as on the whole
    map, so the joined bands equal the one-band result up to the order in which BLAS sums a product.
    numpy sends a product with one output channel, or with one token, through a matrix-vector kernel
    that sums by a token's column, so a one-channel map (C is the fewest output channels of the banded
    products) and a one-column map are one band. Whether OpenBLAS' matrix kernels then sum every token
    alike depends on a band's width in tokens and the product's inner size. On `tiny`@224 every banded
    computation is bit-identical to one band in float32, and in float64 all but three: the stage-1
    ConvFFN (672- and 616-token bands), window attention (784- and 392-token bands), the stem and the
    aggregator's output (784- and 392-token bands) keep their bits, while the stage-2 ConvFFN's 280- and
    252-token bands, whose contraction is 768 wide, and the stage-2 and stage-3 downsamples' 280/252- and
    98-token bands, 864 and 1728 wide, move the last row of a band by up to 9e-16 relative in float64.
    Other maps may differ in the last bits of float64.
    """
    if C == 1 or W == 1:
        return [(0, H)]
    return [(b.start, b.stop) for b in pieces(H, W * width, _BAND_ELEMS - halo * W * width)]


def banded(f, xs: list[Tensor], c_out: int, width: int, strides: tuple[int, ...] = (1,)) -> Tensor:
    """``f(band, *pads)``, a chain of 3x3 convolutions with padding 1 and ``strides``, run over the ``row_bands`` of its output.

    ``xs`` are maps of one size, and a band is their rows joined along channels (one map's rows are a
    slice of it); ``c_out`` and ``width`` are ``row_bands``' C and width. A one-level stride-1 chain
    (the ConvFFN) makes its widest map on the rows it slices, so its bands leave room for two halo
    rows; a strided chain's widest map is its last convolution's patch matrix (the stem, a
    downsample), which has no halo; with no ``strides`` (the aggregator's output projection) a band
    is exactly its own rows and ``f`` gets no pads. Output rows [r0, r1) of a convolution with stride
    s read its input rows s*r0 - 1 to s*(r1 - 1) + 1. Walking that back from the last convolution to
    the first, a band slices the rows of ``xs`` it needs, and each convolution gets the pad
    ((top, bottom), (1, 1)) with a zero row only where its map ends, so every cell of every level is
    computed as on the whole map (bit for bit where ``row_bands`` says so): a band recomputes the halo
    rows of the levels before the last. One band is ``f`` of the whole maps joined, with pads of 1.
    """
    def join(ts):
        return ts[0] if len(ts) == 1 else concat(ts, axis=0)

    sizes = [xs[0].shape[1:]]
    for s in strides:
        sizes.append(tuple((n - 1) // s + 1 for n in sizes[-1]))
    bands = row_bands(c_out, *sizes[-1], width, 2 if strides == (1,) else 0)
    if len(bands) == 1:
        return f(join(xs), *[1] * len(strides))
    outs = []
    for r0, r1 in bands:
        pads = []
        for s, (H, _) in zip(strides[::-1], sizes[-2::-1]):
            lo, hi = s * r0 - 1, s * (r1 - 1) + 2
            pads.insert(0, ((int(lo < 0), max(hi - H, 0)), (1, 1)))
            r0, r1 = max(lo, 0), min(hi, H)
        outs.append(f(join([slice_axis(x, 1, r0, r1) for x in xs]), *pads))  # the slices die with the join
    return concat(outs, axis=1)


def convffn_forward(x: Tensor, ln_g: Tensor, ln_b: Tensor, p: ConvFfnParams) -> Tensor:
    """Layernorm, expand, 3x3 depthwise, gelu, contract; in row bands when a hidden map exceeds ``_BAND_ELEMS``.

    ``x`` is the residual stream and ``ln_g``/``ln_b`` the norm's affine parameters. Each band of ``banded`` normalizes and expands its rows and halo
    rows: layernorm works per token, so a band normalizes as the whole map does, and no normalized
    copy of the whole map exists. Within a band each hidden map is freed after its last use, so at
    most two band-sized hidden maps are live at once. Each band is one ``nd.checkpoint`` of the band
    and the eight parameters: on a tape it keeps its slice of ``x`` instead of its normalized and
    hidden maps, and backward re-records one band at a time. Runs in scope ``ffn``.
    """
    def band(t, pad):
        def ffn(t, ln_g, ln_b, w1, b1, dw, db, w2, b2):
            return matmul(w2, gelu(dwconv(matmul(w1, layernorm_channels(t, ln_g, ln_b), b1), dw, db, pad=pad)),
                          b2)

        return checkpoint(ffn, t, ln_g, ln_b, p.w1, p.b1, p.dw, p.db, p.w2, p.b2)

    with scope("ffn"):
        return banded(band, [x], x.shape[0], p.w1.shape[0])


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
    stacked directions. The one selective scan takes the flattened map and
    every projection: chunk by chunk it projects the tokens it visits to
    their step inputs, B and C and the step inputs to step sizes, visits the
    tokens in each direction's order and returns the directions summed in
    token order.
    """
    k = p.a_log.shape[0]
    if k not in SCAN_DIRECTIONS.values():
        raise ShapeError(f"scan mixer: expected 1, 2 or 4 stacked directions, got {k}")
    C, H, W = x.shape
    y = selective_scan(reshape(x, (C, H * W)), p.x_proj, p.b_proj, p.w_dt, p.b_dt, p.a_log, p.d,
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
def shift_mask(hp: int, wp: int, window: int, shift: int, dtype: np.dtype) -> np.ndarray:
    """Additive attention mask hiding cross-boundary pairs after a cyclic shift, read-only in ``dtype``."""
    img = np.zeros((hp, wp))
    cnt = 0
    for hs in (slice(0, -window), slice(-window, -shift), slice(-shift, None)):
        for ws_ in (slice(0, -window), slice(-window, -shift), slice(-shift, None)):
            img[hs, ws_] = cnt
            cnt += 1
    nh, nw = hp // window, wp // window
    wins = img.reshape(nh, window, nw, window).transpose(0, 2, 1, 3).reshape(-1, window * window)
    mask = np.where(wins[:, None, :] != wins[:, :, None], -1e4, 0.0).astype(dtype)  # both exact in float32
    mask.flags.writeable = False
    return mask  # (num_windows, T, T)


def window_attention_forward(x: Tensor, p: WindowAttnParams, norm: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Multi-head attention inside non-overlapping windows, shifted when ``p.shifted``, on ``x`` normalized by ``norm``.

    ``norm`` is the block's ``ln1`` as (gamma, beta), or None to attend ``x`` itself. The map is zero-padded
    to a window multiple and cyclically shifted by half a window when shifted. Windows are independent, so
    the attention then runs in ``row_bands`` of whole window rows, sized by their q/k/v: a band reads its
    rows (through the shift, one ``roll2d`` of the band's rows, so no whole shifted copy is made),
    normalizes them with ``norm``, is projected to q/k/v, partitioned once into (window x head) batches,
    attended (with learned relative position bias and, for the shifted case, its windows' rows of the
    cross-boundary mask) and reassembled once; the joined bands are rolled back and cropped. Layernorm
    works per token, so it commutes with the roll and a band normalizes as the whole map does: an
    unpadded map has no normalized copy larger than a band. A map that needs padding is normalized
    whole before it is padded, since a pad cell must stay zero (as in Swin). One band is the whole map.
    The output projection runs on the cropped map: a per-token projection commutes with the roll and
    the crop.
    """
    C, H, W = x.shape
    ws, heads = p.window, p.heads
    if C % heads:
        raise ShapeError(f"window attention: channels {C} not divisible by heads {heads}")
    dh = C // heads
    hp = (H + ws - 1) // ws * ws
    wp = (W + ws - 1) // ws * ws
    if hp != H or wp != W:
        if norm is not None:
            x, norm = layernorm_channels(x, *norm), None
        h = pad_spatial(x, (0, hp - H), (0, wp - W))
    else:
        h = x
    shift = ws // 2 if (p.shifted and (hp > ws or wp > ws)) else 0

    nh, nw, T = hp // ws, wp // ws, ws * ws
    bias = gather_rows(p.bias_table, relative_index(ws).reshape(-1))   # (T*T, heads)
    bias = reshape(permute(bias, (1, 0)), (1, heads, T, T))
    mask = shift_mask(hp, wp, ws, shift, x.dtype) if shift else None  # (nh*nw, T, T): a band's rows are a view

    def attend(band, w0, w1):
        """Attention over window rows [w0, w1), whose (C, (w1-w0)*ws, wp) map is ``band``."""
        n, B = w1 - w0, (w1 - w0) * nw
        # (3C,n*ws,wp) -> (3,n,nw,heads,ws,ws,dh) -> q, k, v of (B*heads,T,dh). Each intermediate is
        # dropped after its last use: at most two copies of q/k/v are live at once.
        qkv = reshape(matmul(p.w_qkv, band, p.b_qkv), (3, heads, dh, n, ws, nw, ws))
        del band
        qkv = permute(qkv, (0, 3, 5, 1, 4, 6, 2))
        q, k, v = split(reshape(qkv, (3 * B * heads, T, dh)), 3)
        del qkv
        attn = scale(matmul(q, permute(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
        del q, k
        attn = add(reshape(attn, (B, heads, T, T)), bias)
        if shift:
            attn = add(attn, Tensor(mask[w0 * nw:w1 * nw].reshape(B, 1, T, T)))
        attn = softmax_lastdim(reshape(attn, (B * heads, T, T)))
        # (B*heads,T,dh) -> (n,nw,heads,ws,ws,dh) -> (C,n*ws,wp)
        out = reshape(matmul(attn, v), (n, nw, heads, ws, ws, dh))
        del attn, v
        return reshape(permute(out, (2, 5, 0, 3, 1, 4)), (C, n * ws, wp))

    def rows(w0, w1):
        """The (C, (w1-w0)*ws, wp) window rows [w0, w1) of the padded map, shifted when ``shift``, then normalized."""
        if shift:
            band = roll2d(h, -shift, -shift, (w0 * ws, w1 * ws))
        else:
            band = h if w1 - w0 == nh else slice_axis(h, 1, w0 * ws, w1 * ws)
        return band if norm is None else layernorm_channels(band, *norm)

    outs = [attend(rows(w0, w1), w0, w1) for w0, w1 in row_bands(3 * C, nh, ws * wp, 3 * C)]
    del h
    out = outs.pop() if len(outs) == 1 else concat(outs, axis=1)
    del outs
    if shift:
        out = roll2d(out, shift, shift)
    if hp != H or wp != W:
        out = slice_axis(out, (1, 2), (0, 0), (H, W))
    return matmul(p.w_out, out, p.b_out)


def mixer_forward(x: Tensor, ln_g: Tensor, ln_b: Tensor, params) -> Tensor:
    """The token mixer on ``ln1(x)``, ``ln_g``/``ln_b`` being ``ln1``'s affine parameters; in scope ``mixer``.

    Window attention (``WindowAttnParams``) normalizes each band it reads, so no normalized copy of the
    whole map exists; a scan over stacked ``SsmParams`` reads every token, so it normalizes the whole map.
    """
    with scope("mixer"):
        if isinstance(params, WindowAttnParams):
            return window_attention_forward(x, params, (ln_g, ln_b))
        return scan_forward(layernorm_channels(x, ln_g, ln_b), params)


def mixer_residual(x: Tensor, p: VssBlockParams) -> Tensor:
    """The block's first half, ``x + mixer(ln1(x))``: the last op that reads the block input ``x``.

    ``ln1`` runs inside ``mixer_forward``, in scope ``mixer``; the add runs in the caller's scope.
    """
    return add(x, mixer_forward(x, p.ln1_g, p.ln1_b, p.mixer))


def ffn_residual(x1: Tensor, p: VssBlockParams) -> Tensor:
    """The block's second half, ``x1 + convffn(ln2(x1))``; ``ln2`` runs in each ConvFFN band, in scope ``ffn``."""
    return add(x1, convffn_forward(x1, p.ln2_g, p.ln2_b, p.ffn))
