"""Dense n-d tensor engine with reverse-mode differentiation.

Tensors wrap row-major contiguous numpy arrays, float32 or float64 (any
other dtype raises), and optionally participate in a recording ``Tape``.
Ops take Tensors: a raw parameter array becomes a constant Tensor through
``params.bind`` (or a tape leaf through ``Tape.leaf``), never inside an op,
and no op casts a dtype; the only plain values are fixed integer tables (a
scan's ``order``, a gather index) and Python scalars. Operations are pure: given the same inputs they
produce bit-identical outputs. Every op validates shapes up front, an op with
several tensor inputs requires one dtype for all of them, and every op that
computes values checks its output for NaN/Inf, so non-finite values surface
as errors at the op that produced them instead of propagating silently. Ops
that only move values (reshape, permute, slice, concat, pad, roll) cannot
produce one and are not scanned, nor is a ``checkpoint``'s output, which its
function's ops have checked. The check tests ``isfinite`` one block of
``_CHECK_BLOCK`` elements at a time, so it stays exact and its mask is never
larger than one block. Apart from layernorm, no op keeps output-sized
scratch either: softmax works in its output buffer, gelu and the scan's
chunks run through cache-sized buffers (the scan projects each chunk's
tokens to their step inputs, B, C and step sizes itself, so no (k,r,T),
(k,S,T) or (k,C,T) tensor exists, forward or backward), dwconv and
window_reduce build their patch columns one channel block at a time, and
the dense convolution frees its patch matrix before it returns. Scan chunks,
channel blocks and ``blocks.row_bands`` are all the ``pieces`` of an element
budget. An op's other full-size arrays are values its backward pass reads
and cannot rebuild cheaply (layernorm's normalized input); what it can
rebuild from its inputs it does not keep: gelu recomputes erf, the dense
convolution its patch matrix, and the scan its chunks' projections and
states. Layernorm makes one full-size temporary, its squared deviations, to
keep the arithmetic of ``var`` bit for bit.

The op surface is deliberately small: exactly the primitives the backbone
needs (one linear op, ``matmul``, for every channel projection outside the
scan and every attention product, plain or stacked over a leading axis;
channel layernorm; channel
concat/split, depthwise and dense convolution, one weighted reduction over
non-overlapping windows (the aggregator's strided reducers and the bridge's
2x2 average), softmax, a handful of pointwise nonlinearities, and an
input-dependent selective scan over k token orders of one sequence, which
applies its token projection, step-size projection and softplus itself).
Channel ops take ``(C, *rest)`` and treat every trailing axis as a token
axis, so a (C,H,W) map goes in and comes out as a map; a reshape is needed
only where the token axes themselves change.
Broadcasting is supported only where these ops require it (bias adds,
attention-bias adds, one right operand shared by a stack of left ones);
there is no general-rank broadcasting.
``scope`` names the stage x component an op runs in, and ``macs`` counts
an op's multiply-accumulates from its operand shapes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _np_erf


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class NumericError(ArithmeticError):
    """An op produced NaN or Inf, or was fed numerically invalid input."""


class TapeError(RuntimeError):
    """Invalid use of a recording tape (mixed tapes, non-scalar loss, ...)."""


_FLOAT_DTYPES = (np.float32, np.float64)


class _Node:
    """One recorded primitive: input handles plus a vector-Jacobian product."""

    __slots__ = ("op", "inputs", "vjp", "is_leaf", "shape", "dtype")

    def __init__(self, op, inputs, vjp, is_leaf, shape, dtype):
        self.op = op
        self.inputs = inputs
        self.vjp = vjp
        self.is_leaf = is_leaf
        self.shape = shape
        self.dtype = dtype


class Tape:
    """Append-only record of ops in execution order.

    Node indices are handles. Because ops append at execution time, the node
    list is always topologically sorted: every node's inputs precede it.
    A tape has a single owner; do not share one across concurrent recordings.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def _record(self, op, inputs, vjp, shape, dtype, is_leaf=False):
        self.nodes.append(_Node(op, inputs, vjp, is_leaf, shape, dtype))
        return len(self.nodes) - 1

    def leaf(self, data):
        """Register ``data`` as a differentiable leaf (parameter) tensor."""
        arr = _validate_array(data)
        nid = self._record("leaf", (), None, arr.shape, arr.dtype, is_leaf=True)
        return Tensor(arr, self, nid)

    def __len__(self):
        return len(self.nodes)


def _validate_array(data):
    arr = np.asarray(data)
    if arr.dtype not in _FLOAT_DTYPES:
        raise ShapeError(f"Tensor: expects float32 or float64 data, got {arr.dtype.name}")
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """Dense row-major array, optionally linked to a tape node."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape=None, node=None):
        self.data = _validate_array(data)
        self.tape = tape
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, taped={self.tape is not None})"


def _check_same_dtype(op, *ts):
    dtypes = {t.dtype for t in ts}
    if len(dtypes) > 1:
        raise ShapeError(f"{op}: mixed dtypes {sorted(d.name for d in dtypes)}")


def _wrap(data, tape=None, node=None):
    """A Tensor around an op's output, which is already a contiguous float array."""
    t = Tensor.__new__(Tensor)
    t.data, t.tape, t.node = data, tape, node
    return t


# Ops whose outputs are not scanned: those that only carry input values to new positions (or add
# zeros), which cannot make a value non-finite, and a checkpoint, whose function's ops scanned theirs.
_UNSCANNED = frozenset({"reshape", "permute", "slice", "concat", "pad_spatial", "roll2d", "checkpoint"})
# Elements per cache-sized block: the float32 gelu's scratch and output
# blocks, and the patch columns of one channel block of dwconv and
# window_reduce (the ``pieces`` of the channels), stay in cache across their passes.
_BLOCK = 1 << 15
# Elements per block of the finiteness check, so its boolean mask is at most
# this many bytes: 1/37 of a stage-1 `tiny`@224 hidden map. Smaller blocks cost
# more in per-block calls than the check itself on stage-sized maps.
_CHECK_BLOCK = 1 << 17
# The one way to watch what runs, None unless a tool or test watches: ``observer(op, out, inputs, node)``
# after every op (``node`` None when untaped) and ``observer("vjp", grads, (g,), node)`` after every vjp a
# sweep runs, a checkpoint's untaped first run and its sub-tape included. ``scopes[-1]`` is where it ran:
observer = None
scopes = []  # the dotted paths of the open ``scope``s, outermost first: ``["s1", "s1.l2", "s1.l2.ffn"]``
_paths = {}  # (enclosing path or None, name) -> path: one string per path, shared by every entry into it


class scope:
    """``with scope(name):`` runs ops under ``name`` in the innermost open scope: ``scopes[-1]`` is their path,
    which a ``NumericError`` names. A class, so that a tracer that wraps nd's functions sees no call."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        outer = scopes[-1] if scopes else None
        path = _paths.get((outer, self.name))
        if path is None:
            path = _paths[outer, self.name] = self.name if outer is None else f"{outer}.{self.name}"
        scopes.append(path)

    def __exit__(self, *exc):
        scopes.pop()


def macs(op, out, inputs):
    """Multiply-accumulates of one op by ``count_flops``' conventions, from the shapes an observer sees: for ``matmul``
    a's elements times out's token cells, for ``conv2d``, ``dwconv`` and ``window_reduce`` kernel times out's cells,
    for ``selective_scan`` 9 per channel-state-step plus its token and step-size projections and skip; 0 for any
    other op, a checkpoint included (each op inside one is observed itself)."""
    if op == "matmul":
        return math.prod(inputs[0].shape) * math.prod(out.shape[len(inputs[0].shape) - 1:])
    if op in ("conv2d", "dwconv", "window_reduce"):
        return math.prod(inputs[1].shape) * math.prod(out.shape[1:])
    if op == "selective_scan":  # x (C,T), x_proj (k,r+2S,C), w_dt (k,C,r), a_log (k,C,S)
        (k, rows, _), r, S = inputs[1].shape, inputs[3].shape[2], inputs[5].shape[2]
        return math.prod(inputs[0].shape) * k * (rows + r + 9 * S + 1)
    return 0


def pieces(n, each, budget):
    """Slices that cut ``n`` units of ``each`` elements into the fewest pieces of at most ``budget`` elements.

    One unit at least a piece, the first n % k of k pieces one unit longer, none for n = 0; cheap
    enough that a vjp calls it again instead of keeping the list.
    """
    k = -(-n // max(1, budget // max(1, each)))
    q, extra = divmod(n, max(1, k))
    return [slice(i * q + min(i, extra), (i + 1) * q + min(i + 1, extra)) for i in range(k)]


def _all_finite(out):
    """No NaN or Inf anywhere in ``out``, tested one block at a time: each block's mask is freed before the next."""
    if out.size <= _CHECK_BLOCK:  # one block: one call, without the per-block slicing
        return np.isfinite(out).all()
    flat = out.reshape(-1)
    for b0 in range(0, flat.size, _CHECK_BLOCK):
        if not np.isfinite(flat[b0:b0 + _CHECK_BLOCK]).all():
            return False
    return True


def _apply(op, out, inputs, vjp):
    """Finalize an op: finiteness check, tape wiring, output wrapping."""
    if not (out.flags["C_CONTIGUOUS"] if isinstance(out, np.ndarray) else False):
        out = np.asarray(out, order="C")
    if op not in _UNSCANNED and not _all_finite(out):
        raise NumericError(f"non-finite values produced by op '{op}'" + (f" in {scopes[-1]}" if scopes else ""))
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif t.tape is not tape:
                raise TapeError(f"{op}: inputs come from different tapes")
    if tape is None:
        y = _wrap(out)
    else:
        ids = tuple(t.node if t.tape is tape else -1 for t in inputs)
        y = _wrap(out, tape, tape._record(op, ids, vjp, out.shape, out.dtype))
    if observer is not None:
        observer(op, y, inputs, None if tape is None else tape.nodes[y.node])
    return y


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward op."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------

def add(a, b):
    _check_same_dtype("add", a, b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    ash, bsh = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _apply("add", out, (a, b), vjp)


def scale(a, s: float):
    """Multiply by a python scalar."""
    s = a.dtype.type(s)
    return _apply("scale", a.data * s, (a,), lambda g: (g * s,))


def matmul(a, b, bias=None):
    """a @ b + bias, one op: every weight and attention product in the backbone.

    ``a`` (m, k) multiplies ``b`` (k, *rest) to (m, *rest), with ``bias``
    (m,) added at every position: every axis of ``b`` after its first is a
    token axis, so a (C,H,W) map is projected as a map. A stack ``a``
    (B, m, k) multiplies ``b`` (B, k, *rest), or one ``b`` (1, k, *rest)
    shared by the whole stack (its gradient is summed over the stack in one
    product), with ``bias`` (B, m). The token axes are flattened with a view,
    so a call is one matrix product whatever the rank of ``rest``.
    """
    inputs = (a, b) if bias is None else (a, b, bias)
    _check_same_dtype("matmul", *inputs)
    nb = a.data.ndim - 2  # a stack: 0 or 1 leading axis
    shared = nb == 1 and b.shape[:1] == (1,)  # one b for every product of the stack
    if nb not in (0, 1) or b.shape[:nb + 1] != ((1,) if shared else a.shape[:-2]) + a.shape[-1:]:
        raise ShapeError(f"matmul: a {a.shape} does not multiply b {b.shape}")
    if bias is not None and bias.shape != a.shape[:-1]:
        raise ShapeError(f"matmul: bias {bias.shape} does not match fan-out {a.shape[:-1]}")
    ad, bd = a.data, b.data
    out = ad @ bd.reshape(*bd.shape[:nb + 1], -1)
    if bias is not None:
        out += bias.data[..., None]

    def vjp(g):
        bf = bd.reshape(*bd.shape[:nb + 1], -1)
        g = g.reshape(*ad.shape[:-1], bf.shape[-1])
        gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1]) if shared else np.swapaxes(ad, -1, -2) @ g
        ga = g @ np.swapaxes(bf, -1, -2)
        return (ga, gb.reshape(bd.shape)) if bias is None else (ga, gb.reshape(bd.shape), g.sum(axis=-1))

    return _apply("matmul", out.reshape(a.shape[:-1] + bd.shape[nb + 1:]), inputs, vjp)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if min(shape, default=0) < 0 or math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    in_shape = a.shape
    return _apply("reshape", a.data.reshape(shape), (a,), lambda g: (g.reshape(in_shape),))


def permute(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _apply("permute", a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis=0):
    """Concatenate along ``axis``; all other dims must match exactly."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat: empty input list")
    _check_same_dtype("concat", *ts)
    ref = list(ts[0].shape)
    for t in ts[1:]:
        cur = list(t.shape)
        if len(cur) != len(ref) or any(c != r for i, (c, r) in enumerate(zip(cur, ref)) if i != axis):
            raise ShapeError(f"concat: shape {t.shape} incompatible with {ts[0].shape} on axis {axis}")
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(np.ascontiguousarray(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis))
                     for i in range(len(sizes)))

    return _apply("concat", np.concatenate([t.data for t in ts], axis=axis), ts, vjp)


def slice_axis(a, axis, start, stop):
    """Keep [start, stop) of ``axis``; equal-length tuples of axes, starts and
    stops slice several axes in one op."""
    idx = [slice(None)] * a.data.ndim
    axes, starts, stops = (v if isinstance(v, tuple) else (v,) for v in (axis, start, stop))
    for ax, lo, hi in zip(axes, starts, stops, strict=True):
        if not (0 <= lo < hi <= a.shape[ax]):
            raise ShapeError(f"slice_axis: [{lo}:{hi}) out of range for axis {ax} of {a.shape}")
        idx[ax] = slice(lo, hi)
    idx = tuple(idx)
    in_shape, in_dtype = a.shape, a.dtype

    def vjp(g):
        z = np.zeros(in_shape, dtype=in_dtype)
        z[idx] = g
        return (z,)

    return _apply("slice", a.data[idx].copy(), (a,), vjp)


def split(a, parts, axis=0):
    """Split into ``parts`` equal segments along ``axis``; inverse of concat."""
    n = a.shape[axis]
    if parts < 1 or n % parts != 0:
        raise ShapeError(f"split: axis {axis} of {a.shape} not divisible into {parts} parts")
    step = n // parts
    return tuple(slice_axis(a, axis, i * step, (i + 1) * step) for i in range(parts))


def _roll_runs(n, shift, lo, hi):
    """(out, in) slice pairs that copy positions [lo, hi) of a length-``n`` axis rolled by ``shift``: one, or two
    where the roll wraps."""
    start, size = (lo - shift) % n, hi - lo
    run = min(size, n - start)
    pairs = [(slice(0, run), slice(start, start + run))]
    if run < size:  # the rest comes from the start of the axis
        pairs.append((slice(run, size), slice(0, size - run)))
    return pairs


def roll2d(a, shift_h, shift_w, rows=None):
    """Cyclic shift of the two trailing spatial axes of a (C,H,W) tensor, or rows [r0, r1) of it for ``rows``.

    Row i of the shifted map is row (i - shift_h) mod H of ``a``, so a band of rows is read through the
    shift directly, with at most four block copies, and no whole shifted copy is made for it; ``rows``
    None is the whole map, rows (0, H).
    """
    if a.data.ndim != 3:
        raise ShapeError(f"roll2d: expects (C,H,W), got {a.shape}")
    C, H, W = a.shape
    r0, r1 = (0, H) if rows is None else rows
    if not 0 <= r0 < r1 <= H:
        raise ShapeError(f"roll2d: rows [{r0}:{r1}) out of range for {a.shape}")
    runs = [(ro, co, ri, ci) for ro, ri in _roll_runs(H, shift_h, r0, r1) for co, ci in _roll_runs(W, shift_w, 0, W)]
    xd = a.data
    out = np.empty((C, r1 - r0, W), dtype=xd.dtype)
    for ro, co, ri, ci in runs:
        out[:, ro, co] = xd[:, ri, ci]

    def vjp(g):
        gx = (np.empty if r1 - r0 == H else np.zeros)((C, H, W), dtype=g.dtype)  # a band's other rows get 0
        for ro, co, ri, ci in runs:
            gx[:, ri, ci] = g[:, ro, co]
        return (gx,)

    return _apply("roll2d", out, (a,), vjp)


def pad_spatial(a, pad_h, pad_w):
    """Zero-pad the spatial axes of (C,H,W); pads are (before, after) pairs."""
    if a.data.ndim != 3:
        raise ShapeError(f"pad_spatial: expects (C,H,W), got {a.shape}")
    (ht, hb), (wl, wr) = pad_h, pad_w
    if min(ht, hb, wl, wr) < 0:
        raise ShapeError(f"pad_spatial: pads must be >= 0, got {pad_h}, {pad_w}")
    out = _zero_pad(a.data, (pad_h, pad_w))
    H, W = a.shape[1], a.shape[2]

    def vjp(g):
        return (g[:, ht:ht + H, wl:wl + W].copy(),)

    return _apply("pad_spatial", out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(a):
    in_shape, in_dtype = a.shape, a.dtype

    def vjp(g):
        return (np.full(in_shape, g, dtype=in_dtype),)

    return _apply("sum_all", np.asarray(a.data.sum(), dtype=a.dtype), (a,), vjp)


def mean_axis(a, axis, keepdims=False):
    in_shape = a.shape
    if in_shape[axis] == 0:
        raise ShapeError(f"mean_axis: empty reduction axis {axis} of {in_shape}")
    inv_n = a.dtype.type(1.0 / in_shape[axis])

    def vjp(g):
        g = g * inv_n
        return (np.broadcast_to(g if keepdims else np.expand_dims(g, axis), in_shape).copy(),)

    return _apply("mean_axis", a.data.sum(axis=axis, keepdims=keepdims) * inv_n, (a,), vjp)


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------

# Abramowitz & Stegun 7.1.26, lowest order first and halved: for z >= 0,
# erfc(z) / 2 = t * sum_n a_n t^n * exp(-z*z), t = 1 / (1 + p z), with an absolute
# error in erfc of at most 1.5e-7 everywhere.
_ERFC_P = 0.3275911
_ERFC_A = (np.array([0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429]) / 2).astype(np.float32)


def _gelu_f32(x):
    """float32 gelu as max(x, 0) - |x| erfc(|x|/sqrt2) / 2, from the A&S 7.1.26 fit.

    Branch-free: both signs share the one erfc of |x|. Runs block by block on
    three cache-sized scratch buffers with in-place SIMD ufuncs, 20 passes a
    block, so the output is the only full-size allocation.
    """
    out = np.empty_like(x)
    xf, of = x.reshape(-1), out.reshape(-1)
    abs_x, t, e = np.empty((3, min(xf.size, _BLOCK)), dtype=np.float32)
    p_over_sqrt2, a = np.float32(_ERFC_P * np.sqrt(0.5)), _ERFC_A
    with np.errstate(over="ignore"):  # x*x is inf for |x| above ~1.8e19, where erfc is 0
        for b0 in range(0, xf.size, _BLOCK):
            xb, ob = xf[b0:b0 + _BLOCK], of[b0:b0 + _BLOCK]
            n = len(xb)
            ab, tb, eb = abs_x[:n], t[:n], e[:n]
            np.abs(xb, out=ab)
            np.multiply(ab, p_over_sqrt2, out=tb)    # p z with z = |x|/sqrt2
            tb += np.float32(1)
            np.reciprocal(tb, out=tb)                # t = 1/(1 + p z)
            np.multiply(tb, a[4], out=eb)
            for an in a[3::-1]:                      # Horner from the top coefficient down
                eb += an
                eb *= tb
            np.multiply(xb, xb, out=ob)
            ob *= np.float32(-0.5)                   # -z*z
            np.exp(ob, out=ob)
            eb *= ob                                 # erfc(z) / 2
            eb *= ab                                 # |x| erfc(z) / 2
            np.maximum(xb, np.float32(0), out=ob)
            ob -= eb
    return out


def gelu(a):
    """Exact (erf-based) Gaussian error linear unit, x * Phi(x).

    float64 calls scipy's ``erf``. float32 evaluates the same function through
    Abramowitz & Stegun's 7.1.26 fit of erfc (``_gelu_f32``), in cache-sized
    blocks of SIMD ufuncs; its error against float64 is below 1e-6 absolute. In either dtype
    the node keeps only its input: the backward pass recomputes Phi with
    ``erf`` instead of keeping it.
    """
    ad = a.data

    def one_plus_erf():
        inner = ad / ad.dtype.type(np.sqrt(2.0))
        _np_erf(inner, out=inner)
        inner += 1
        return inner

    if ad.dtype == np.float32:
        out = _gelu_f32(ad)
    else:
        out = ad * one_plus_erf()
        out *= 0.5
    inv_sqrt2pi = ad.dtype.type(1.0 / np.sqrt(2.0 * np.pi))

    def vjp(g):
        pdf = np.exp(-0.5 * ad * ad) * inv_sqrt2pi
        return (g * (0.5 * one_plus_erf() + ad * pdf),)

    return _apply("gelu", out, (a,), vjp)


def softmax_lastdim(a):
    """Softmax over the last axis, max-subtracted for stability."""
    if a.shape[-1] == 0:
        raise ShapeError("softmax_lastdim: empty reduction axis")
    out = a.data - a.data.max(axis=-1, keepdims=True)  # exp and normalize in place: one full-size array
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _apply("softmax", out, (a,), vjp)


def layernorm_channels(x, gamma, beta):
    """Normalize (C, *rest) over the channel axis at every token, with eps 1e-6, then affine.

    The tokens are flattened with a view, so the statistics are one
    reduction over axis 0 whatever the rank of ``rest``.
    """
    _check_same_dtype("layernorm_channels", x, gamma, beta)
    C = x.shape[0] if x.data.ndim else 0
    if C < 1:
        raise ShapeError(f"layernorm_channels: expects a non-empty channel axis, got {x.shape}")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"layernorm_channels: affine shapes {gamma.shape}/{beta.shape} do not match C={C}")
    x_shape, xd = x.shape, x.data.reshape(C, -1)
    xhat = xd - xd.mean(axis=0)  # centered here, normalized in place below
    var = (xhat * xhat).sum(axis=0) / C  # the arithmetic of ``xd.var(axis=0)``, bit for bit
    inv = 1.0 / np.sqrt(var + x.dtype.type(1e-6))
    xhat *= inv
    gd = gamma.data
    out = gd[:, None] * xhat
    out += beta.data[:, None]

    def vjp(g):
        g = g.reshape(C, -1)
        dgamma = (g * xhat).sum(axis=1)
        dbeta = g.sum(axis=1)
        dxhat = g * gd[:, None]
        dx = inv / C * (C * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        return dx.reshape(x_shape), dgamma, dbeta

    return _apply("layernorm", out.reshape(x_shape), (x, gamma, beta), vjp)


def cross_entropy_logits(logits, label):
    """Softmax cross-entropy of a single logit vector against an int label."""
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy_logits: expects 1-d logits, got {logits.shape}")
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise ShapeError(f"cross_entropy_logits: label {label} out of range for {logits.shape}")
    z = logits.data - logits.data.max()
    lse = np.log(np.exp(z).sum())
    loss = np.asarray(lse - z[label], dtype=logits.dtype)
    probs = np.exp(z - lse)

    def vjp(g):
        d = probs.copy()
        d[label] -= 1.0
        return (g * d,)

    return _apply("cross_entropy", loss, (logits,), vjp)


# ---------------------------------------------------------------------------
# convolution building blocks
# ---------------------------------------------------------------------------

def _side_pads(pad):
    """((top, bottom), (left, right)) of an int pad or of such a pair of pairs."""
    if isinstance(pad, (tuple, list)):
        try:
            (top, bottom), (left, right) = pad
        except (TypeError, ValueError):
            raise ShapeError(f"pad: expects an int or ((top, bottom), (left, right)), got {pad}") from None
        return (int(top), int(bottom)), (int(left), int(right))
    p = int(pad)
    return (p, p), (p, p)


def _conv_out_hw(op, shape, kernel, stride, pad):
    """(Ho, Wo) of a kernel x kernel window moved by ``stride`` over a (C,H,W) map
    padded by ``pad``: an int for every side, or ((top, bottom), (left, right))."""
    if len(shape) != 3:
        raise ShapeError(f"{op}: expects (C,H,W), got {shape}")
    (top, bottom), (left, right) = _side_pads(pad)
    if kernel < 1 or stride < 1 or min(top, bottom, left, right) < 0:
        raise ShapeError(f"{op}: needs kernel >= 1, stride >= 1 and pad >= 0, "
                         f"got kernel {kernel}, stride {stride}, pad {pad}")
    Hp, Wp = shape[1] + top + bottom, shape[2] + left + right
    if Hp < kernel or Wp < kernel:
        raise ShapeError(f"{op}: spatial dims {shape} smaller than kernel {kernel}")
    return (Hp - kernel) // stride + 1, (Wp - kernel) // stride + 1


def _zero_pad(xd, pads):
    """(C,H,W) ``xd`` copied into a zeroed buffer padded by ((top, bottom), (left, right)), or ``xd`` without pads.

    Not ``numpy.pad``, whose per-call cost is several times the copy on small maps."""
    (top, bottom), (left, right) = pads
    if not (top or bottom or left or right):
        return xd
    C, H, W = xd.shape
    xp = np.zeros((C, H + top + bottom, W + left + right), dtype=xd.dtype)
    xp[:, top:top + H, left:left + W] = xd
    return xp


def _im2col(xd, k, s, pads, Ho, Wo):
    """(C, k*k, Ho*Wo) patch columns of (C,H,W) ``xd`` padded by ``pads``: one copy of a strided view."""
    C, xp = xd.shape[0], _zero_pad(xd, pads)
    sc, sh, sw = xp.strides
    view = np.ndarray((C, k, k, Ho, Wo), xp.dtype, xp, 0, (sc, sh, sw, sh * s, sw * s))
    return view.reshape(C, k * k, Ho * Wo)


def _col2im(g, shape, k, s, pads, Ho, Wo):
    """The (C,H,W) gradient of ``_im2col`` from ``g``, its columns' gradient: each tap scatter-added."""
    (top, bottom), (left, right) = pads
    C, H, W = shape
    gp = np.zeros((C, H + top + bottom, W + left + right), dtype=g.dtype)
    gk = g.reshape(C, k, k, Ho, Wo)
    for i in range(k):
        for j in range(k):
            gp[:, i:i + Ho * s:s, j:j + Wo * s:s] += gk[:, i, j]
    return gp if gp.shape == shape else gp[:, top:top + H, left:left + W].copy()


def _tap_sum(w, cols, out):
    """``out`` (n, r) = the taps of ``cols`` (n, t, r) weighted by ``w`` (n, t), summed over t per cell.

    On contiguous columns with two or more cells, ``einsum`` runs this as one multiply and one add
    per tap, in tap order: a loop's arithmetic, except that an all-zero sum is +0. Wherever the taps
    are innermost in memory it runs a dot kernel that reorders the sum instead, so a strided view
    (an ``_im2col`` one column wide) is copied first, and one cell gets a real zero column (a
    broadcast view of zeros does not keep the order).
    """
    cols = np.ascontiguousarray(cols)
    if cols.shape[2] > 1:
        np.einsum("nt,ntr->nr", w, cols, out=out)
    else:
        out[:] = np.einsum("nt,ntr->nr", w, np.concatenate((cols, np.zeros_like(cols)), axis=2))[:, :1]


def dwconv(x, weight, bias=None, pad=0):
    """Depthwise 2-d convolution of a (C,H,W) map with a (C,k,k) kernel, stride 1.

    Channel i of the output sees only channel i. ``pad`` is one int for every
    side or ((top, bottom), (left, right)), so a band of rows can be padded
    with zeros only at the map's real edges. The map runs in the ``pieces`` of
    its channels whose patch columns (``_im2col``) hold at most ``_BLOCK`` elements; each
    block is one contraction of its columns with its taps (``_tap_sum``), the
    taps summed in row-major order, and the bias is added last: a loop's
    arithmetic in either dtype. The backward pass rebuilds each block's
    columns for the weight gradient, and reads the zero-padded output
    gradient through the taps flipped for the input gradient, so each input
    cell still sums its taps in row-major order.
    Non-overlapping strided windows are ``window_reduce``.
    """
    inputs = (x, weight) if bias is None else (x, weight, bias)
    _check_same_dtype("dwconv", *inputs)
    if x.data.ndim != 3:
        raise ShapeError(f"dwconv: expects (C,H,W), got {x.shape}")
    C, H, W = x.shape
    if weight.data.ndim != 3 or weight.shape[0] != C or weight.shape[1] != weight.shape[2]:
        raise ShapeError(f"dwconv: kernel {weight.shape} does not match input channels {x.shape}")
    if bias is not None and bias.shape != (C,):
        raise ShapeError(f"dwconv: bias {bias.shape} does not match input channels {x.shape}")
    k = weight.shape[1]
    Ho, Wo = _conv_out_hw("dwconv", x.shape, k, 1, pad)
    (top, bottom), (left, right) = pads = _side_pads(pad)
    xd, wd = x.data, weight.data
    wt, cells = wd.reshape(C, k * k), k * k * max(H * W, Ho * Wo)  # the backward's flipped columns read H x W

    out = np.empty((C, Ho, Wo), dtype=xd.dtype)
    for blk in pieces(C, cells, _BLOCK):
        _tap_sum(wt[blk], _im2col(xd[blk], k, 1, pads, Ho, Wo), out[blk].reshape(-1, Ho * Wo))
    if bias is not None:
        out += bias.data[:, None, None]

    def vjp(g):
        gx, gw = np.empty_like(xd), np.empty_like(wd)
        for blk in pieces(C, cells, _BLOCK):
            np.einsum("nr,ntr->nt", g[blk].reshape(-1, Ho * Wo), _im2col(xd[blk], k, 1, pads, Ho, Wo),
                      out=gw[blk].reshape(-1, k * k))
            # input cell (y, x) at tap (i, j) reads output cell (y + top - i, x + left - j): flipped
            # taps over g padded by k - 1 on every side, which covers every pad
            gp = _zero_pad(g[blk], ((k - 1, k - 1), (k - 1, k - 1)))
            sc, sh, sw = gp.strides
            flipped = np.ndarray((len(gp), k, k, H, W), gp.dtype, gp, (top + k - 1) * sh + (left + k - 1) * sw,
                                 (sc, -sh, -sw, sh, sw))
            _tap_sum(wt[blk], flipped.reshape(len(gp), k * k, H * W), gx[blk].reshape(-1, H * W))
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=(1, 2)))

    return _apply("dwconv", out, inputs, vjp)


def window_reduce(x, weight):
    """Depthwise (C,s,s) ``weight`` over the non-overlapping s x s windows of a (C,H,W) map: (C, H/s, W/s).

    A depthwise convolution whose stride is its kernel, unpadded; s must divide H and W. It runs as
    ``dwconv`` does: per channel block, the ``_im2col`` columns of its windows contracted with its taps,
    summed in row-major order (a loop's arithmetic). A constant 1/(s*s) kernel averages each window. The
    backward pass writes the input gradient with one broadcast multiply into the (C,s,s,H/s,W/s) strided
    view of ``gx`` (each cell is in one window) and contracts the rebuilt columns with ``g`` for the weight
    gradient. It forms neither for an operand that is not on the tape (the bridge's constant kernel),
    returns None for it, and keeps only the arrays the other gradient reads.
    """
    _check_same_dtype("window_reduce", x, weight)
    if x.data.ndim != 3 or weight.shape != x.shape[:1] + weight.shape[-1:] * 2 or weight.shape[-1] < 1:
        raise ShapeError(f"window_reduce: weight {weight.shape} does not match a (C,H,W) input {x.shape}")
    (C, H, W), s = x.shape, weight.shape[1]
    if H < s or W < s or H % s or W % s:
        raise ShapeError(f"window_reduce: {s}x{s} windows do not tile {x.shape}")
    Ho, Wo = H // s, W // s
    xd, wd, no_pad = x.data, weight.data, ((0, 0), (0, 0))

    out = np.empty((C, Ho, Wo), dtype=xd.dtype)
    for blk in pieces(C, H * W, _BLOCK):
        _tap_sum(wd[blk].reshape(-1, s * s), _im2col(xd[blk], s, s, no_pad, Ho, Wo), out[blk].reshape(-1, Ho * Wo))

    x_read = xd if weight.tape is not None else None  # read by the weight gradient only
    w_read = wd if x.tape is not None else None  # read by the input gradient only

    def vjp(g):
        gx = gw = None
        if w_read is not None:
            gx = np.empty((C, H, W), dtype=g.dtype)
            np.multiply(g[:, None, None], w_read[..., None, None],
                        out=gx.reshape(C, Ho, s, Wo, s).transpose(0, 2, 4, 1, 3))
        if x_read is not None:
            gw = np.empty((C, s, s), dtype=g.dtype)
            for blk in pieces(C, H * W, _BLOCK):
                np.einsum("nr,ntr->nt", g[blk].reshape(-1, Ho * Wo), _im2col(x_read[blk], s, s, no_pad, Ho, Wo),
                          out=gw[blk].reshape(-1, s * s))
        return gx, gw

    return _apply("window_reduce", out, (x, weight), vjp)


def conv2d(x, weight, bias=None, stride=1, pad=0):
    """Dense 2-d convolution of a (Cin,H,W) map to (Cout,Ho,Wo), weight (Cout, Cin, k, k).

    One op: the flattened weight times the (Cin*k*k, Ho*Wo) im2col patch
    matrix of ``x``, plus ``bias`` (Cout,). ``pad`` is one int for every side
    or ((top, bottom), (left, right)), as in ``dwconv``. The patch matrix is
    freed inside the op; the backward pass keeps only ``x`` and the weight,
    rebuilds the patches for the weight gradient, and scatter-adds each tap
    of the patches' gradient into a zero-padded map for the input gradient.
    An input that is not on the tape (the stem's image) gets no gradient,
    only None, and then the node does not keep the weight.
    """
    inputs = (x, weight) if bias is None else (x, weight, bias)
    _check_same_dtype("conv2d", *inputs)
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d: weight must be (Cout,Cin,k,k), got {weight.shape}")
    Cout, Cin, k, k2 = weight.shape
    s = int(stride)
    Ho, Wo = _conv_out_hw("conv2d", x.shape, k, s, pad)
    if k != k2 or Cin != x.shape[0]:
        raise ShapeError(f"conv2d: weight {weight.shape} does not match input {x.shape}")
    if bias is not None and bias.shape != (Cout,):
        raise ShapeError(f"conv2d: bias {bias.shape} does not match fan-out {Cout}")
    pads, xd, wd, n_in = _side_pads(pad), x.data, weight.data, len(inputs)
    out = wd.reshape(Cout, -1) @ _im2col(xd, k, s, pads, Ho, Wo).reshape(Cin * k * k, -1)
    if bias is not None:
        out += bias.data[:, None]

    w_read = wd if x.tape is not None else None  # read by the input gradient only

    def vjp(g):
        g = g.reshape(Cout, -1)
        gw = (g @ _im2col(xd, k, s, pads, Ho, Wo).reshape(Cin * k * k, -1).T).reshape(Cout, Cin, k, k)
        gx = None if w_read is None else _col2im(w_read.reshape(Cout, -1).T @ g, xd.shape, k, s, pads, Ho, Wo)
        return (gx, gw, g.sum(axis=-1))[:n_in]

    return _apply("conv2d", out.reshape(Cout, Ho, Wo), inputs, vjp)


def gather_rows(table, index):
    """Row lookup out[i] = table[index[i]]; index is a fixed, non-empty int array."""
    idx = np.asarray(index, dtype=np.int64).reshape(-1)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-d, got {table.shape}")
    if idx.size == 0:
        raise ShapeError("gather_rows: empty index")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise ShapeError(f"gather_rows: index out of range for table {table.shape}")
    tshape, tdtype = table.shape, table.dtype

    def vjp(g):
        z = np.zeros(tshape, dtype=tdtype)
        np.add.at(z, idx, g)
        return (z,)

    return _apply("gather_rows", table.data[idx], (table,), vjp)


# ---------------------------------------------------------------------------
# selective scan
# ---------------------------------------------------------------------------

# Elements per (L,k,S,C) state or decay buffer of one scan chunk (the ``pieces``
# of the steps), so its working memory is O(_SCAN_ELEMS) whatever T and C are.
_SCAN_ELEMS = 1 << 17


def _scan_states(h0, dl, dx, ad, b):
    """States h_t and decays exp(delta_t * a) of one chunk of L steps, time-major.

    ``dl`` (delta) and ``dx`` (delta * x) are (L,k,C) for k directions, ``ad``
    is (k,S,C) and ``b`` is (L,k,S); ``h0`` is the (k,S,C) state before the
    chunk. Returns two contiguous (L,k,S,C) arrays, states and decays, so
    every bulk multiply runs along contiguous rows of C.
    """
    decay = dl[:, :, None, :] * ad
    np.exp(decay, out=decay)
    hs = np.einsum("tkc,tks->tksc", dx, b)  # one multiply per element, like a broadcast `*`, but faster
    prev, tmp = h0, np.empty_like(h0)
    for t in range(len(hs)):
        np.multiply(decay[t], prev, out=tmp)
        prev = hs[t]
        np.add(prev, tmp, out=prev)
    return hs, decay


def selective_scan(x, x_proj, b_proj, w_dt, b_dt, a_log, d, order):
    """Input-dependent linear state recurrence over k token orders of one sequence, summed.

    x (C,T) is shared by the k directions; row i of the fixed (k,T) int array
    ``order`` is a permutation of the tokens, the order in which direction i
    visits them. Each direction projects every token, as VMamba's ``x_proj``
    does, through x_proj (k,r+2S,C) and b_proj (k,r+2S): rows [0,r) are its
    low-rank step input, rows [r,r+S) its B and rows [r+S,r+2S) its C. The
    step sizes are delta = softplus(w_dt @ step input + b_dt) with w_dt
    (k,C,r) and b_dt (k,C), strictly positive; a_log (k,C,S) and d (k,C).
    With A = -exp(a_log), direction i runs over its visiting steps
    u = order[i, t], per channel and state,
        h_t = exp(delta_u * A) * h_{t-1} + delta_u * b_u * x_u,   h_0 = 0
        y_u = sum_s c_u[s] * h_t[s] + d * x_u
    so it is causal in its own order. The k outputs are summed in token order
    as a balanced tree, (y0+y1)+(y2+y3) for k = 4.

    The loop runs time-major over chunks of visiting steps, the ``pieces`` of
    the T steps whose (L,k,S,C) buffers hold at most ``_SCAN_ELEMS`` elements
    each (on `tiny`@224 ss2d 85 and 84 steps at stage 1, 42 and 41 at stage 2,
    25 and 24 at stage 3, 13 and 12 at stage 4). The state is
    carried exactly from chunk to chunk, and on those four shapes the outputs
    are bit-identical to fixed 128-step chunks in float32 and float64. A
    chunk gathers x's columns in visiting order as (L,k,C) and projects them
    in one stacked product, through a transposed view of x_proj, to its
    (L,k,r+2S) step inputs, B and C, adding b_proj; B and C are then copied to
    contiguous (L,k,S) rows. A second stacked product takes the step inputs to
    the (L,k,C) step sizes, adds b_dt and applies softplus in place as
    max(z, 0) + log1p(exp(-|z|)), so no (k,r,T) or (k,S,T) projection and no
    (k,C,T) delta is ever built; a non-finite or non-positive step size raises
    ``NumericError``. The chunk keeps its states and decays as (L,k,S,C), and
    adds each direction's outputs as C-rows into a time-first (T,C) pair
    buffer: ceil(k/2) of them, filled with -0.0, buffer j taking directions 2j
    and 2j+1. The buffers are then summed in place as the rest of the tree.
    On a tape the node keeps each chunk's slice and the (k,S,C) state entering
    it, one (k,S,C) copy of A, and references to x and the parameter arrays;
    untaped, only the running state is kept from one chunk to the next. The
    backward pass recomputes each chunk's projections, step sizes, states and
    decays from that state, and adds the chunk's gradients onto x_proj,
    b_proj, w_dt, b_dt and a time-first (T,C) gradient of x as it goes, so no
    (k,·,T) gradient buffer exists either.
    """
    inputs = (x, x_proj, b_proj, w_dt, b_dt, a_log, d)
    _check_same_dtype("selective_scan", *inputs)
    order = np.asarray(order)
    if x.data.ndim != 2 or order.ndim != 2 or order.dtype.kind not in "iu":
        raise ShapeError(f"selective_scan: expects x (C,T) and an integer order (k,T), got {x.shape}, {order.shape}")
    (C, T), k = x.shape, order.shape[0]
    S = a_log.shape[2] if a_log.data.ndim == 3 else -1
    r = w_dt.shape[2] if w_dt.data.ndim == 3 else -1
    if (order.shape != (k, T) or x_proj.shape != (k, r + 2 * S, C) or b_proj.shape != (k, r + 2 * S)
            or w_dt.shape != (k, C, r) or b_dt.shape != (k, C) or a_log.shape != (k, C, S) or d.shape != (k, C)):
        raise ShapeError(f"selective_scan: inconsistent shapes x{x.shape} x_proj{x_proj.shape} b_proj{b_proj.shape} "
                         f"w_dt{w_dt.shape} b_dt{b_dt.shape} a_log{a_log.shape} d{d.shape} order{order.shape}")
    if not np.array_equal(np.sort(order, axis=1), np.broadcast_to(np.arange(T), order.shape)):
        raise ShapeError("selective_scan: every row of order must be a permutation of the tokens")
    with np.errstate(over="ignore"):
        neg_a = -np.exp(a_log.data)
    if not np.isfinite(neg_a).all():
        raise NumericError("selective_scan: exp(a_log) overflows")

    xd, wp, bp, wd, bdt, dd = x.data, x_proj.data, b_proj.data, w_dt.data, b_dt.data, d.data
    ad = neg_a.transpose(0, 2, 1).copy()  # A as (k,S,C)

    def chunk_inputs(idx):
        """A chunk's x (L,k,C), delta (L,k,C), delta * x, contiguous B and C (L,k,S), projections (L,k,r+2S) and
        step pre-activation (L,k,C), in visiting order."""
        xc = xd.T[idx.T]
        proj, pre = np.empty((idx.shape[1], k, r + 2 * S), dtype=xd.dtype), np.empty_like(xc)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step size raises below
            np.matmul(np.swapaxes(xc, 0, 1), np.swapaxes(wp, 1, 2), out=np.swapaxes(proj, 0, 1))
            proj += bp
            np.matmul(np.swapaxes(proj[..., :r], 0, 1), np.swapaxes(wd, 1, 2), out=np.swapaxes(pre, 0, 1))
            pre += bdt
        dlc = np.abs(pre)  # softplus: -|z|, exp, log1p in place, then + max(z, 0)
        np.negative(dlc, out=dlc)
        np.exp(dlc, out=dlc)
        np.log1p(dlc, out=dlc)
        dlc += np.maximum(pre, 0)
        return xc, dlc, dlc * xc, proj[..., r:r + S].copy(), proj[..., r + S:].copy(), proj, pre

    # Pair j of the k outputs in token order, time-first: directions 2j and 2j+1
    # are added onto -0, the identity of IEEE addition, so in whichever order
    # they arrive the pair holds y_2j + y_2j+1 bit for bit.
    pairs = [np.full((T, C), -0.0, dtype=xd.dtype) for _ in range(0, k, 2)]
    taped = any(t.tape is not None for t in inputs)
    starts, h = [], np.zeros((k, S, C), dtype=xd.dtype)  # on a tape, each chunk and the state entering it
    for ch in pieces(T, k * S * C, _SCAN_ELEMS):
        if taped:
            starts.append((ch, h))
        idx = order[:, ch]
        xc, dlc, dxc, bc, cc = chunk_inputs(idx)[:5]  # the projections and pre-activation are for backward
        if not _all_finite(dlc):
            raise NumericError("selective_scan: non-finite step size delta")
        if np.fmin.reduce(dlc, axis=None, initial=np.inf) <= 0:  # any(delta <= 0) without a mask
            raise NumericError("selective_scan: delta must be strictly positive")
        hs = _scan_states(h, dlc, dxc, ad, bc)[0]
        yc = dd * xc + np.einsum("tksc,tks->tkc", hs, cc)
        for i in range(k):  # one add per direction: two directions may visit one token in a chunk
            pairs[i // 2][idx[i]] += yc[:, i]
        h = hs[-1].copy()
        del dlc, xc, dxc, bc, cc, hs, yc  # free this chunk's buffers before the next chunk's are made

    def vjp(g):
        gx = np.multiply(g.T, dd.sum(axis=0), out=np.empty((T, C), dtype=g.dtype))  # time-first
        gwp, gbp, gwd, gbdt = np.zeros_like(wp), np.zeros_like(bp), np.zeros_like(wd), np.zeros_like(bdt)
        ga = np.zeros_like(ad)
        tmp = np.empty((k, S, C), dtype=xd.dtype)
        carry = np.zeros((k, S, C), dtype=xd.dtype)  # decay_{t+1} * dL/dh_{t+1} from the later chunk
        for ch, h0 in reversed(starts):
            idx = order[:, ch]
            xc, dlc, dxc, bc, cc, proj, pre = chunk_inputs(idx)
            hs, decay = _scan_states(h0, dlc, dxc, ad, bc)
            gl = g.T[idx.T]
            gproj = np.empty_like(proj)  # dL/d(step input, B, C), (L,k,r+2S)
            gproj[..., r + S:] = np.einsum("tksc,tkc->tks", hs, gl)
            # dL/dh_t = g_t c_t + decay_{t+1} dL/dh_{t+1}, run backwards in time
            gh = np.einsum("tkc,tks->tksc", gl, cc)
            gh[-1] += carry
            for t in range(len(gh) - 2, -1, -1):
                np.multiply(decay[t + 1], gh[t + 1], out=tmp)
                np.add(gh[t], tmp, out=gh[t])
            carry = decay[0] * gh[0]
            # dL/d(decay_t) * decay_t = dL/dh_t * h_{t-1} * decay_t, built in the decay buffer
            decay[1:] *= hs[:-1]
            decay[0] *= h0
            decay *= gh
            ga += np.einsum("tksc,tkc->ksc", decay, dlc)
            gbs = np.einsum("tksc,tks->tkc", gh, bc)
            gdl = np.einsum("tksc,ksc->tkc", decay, ad) + gbs * xc
            e = np.exp(-np.abs(pre))
            gpre = np.swapaxes(gdl * np.where(pre >= 0, 1, e) / (1 + e), 0, 1)  # sigmoid(z), no overflow; (k,L,C)
            gproj[..., r:r + S] = np.einsum("tksc,tkc->tks", gh, dxc)
            np.matmul(gpre, wd, out=np.swapaxes(gproj[..., :r], 0, 1))
            gwd += np.swapaxes(gpre, 1, 2) @ np.swapaxes(proj[..., :r], 0, 1)
            gbdt += gpre.sum(axis=1)
            gproj = np.swapaxes(gproj, 0, 1)  # (k,L,r+2S)
            gwp += np.swapaxes(gproj, 1, 2) @ np.swapaxes(xc, 0, 1)
            gbp += gproj.sum(axis=1)
            gbs *= dlc  # dL/dx through delta * x, then through the projections
            gxs = np.swapaxes(gbs, 0, 1)
            gxs += gproj @ wp
            for j, gxi in zip(idx, gxs):
                gx[j] += gxi  # the directions share x: one add each
        gd = np.tile((g * xd).sum(axis=1), (k, 1))  # d_i multiplies the same x in every direction
        return gx.T, gwp, gbp, gwd, gbdt, (ga * ad).transpose(0, 2, 1), gd

    while len(pairs) > 1:  # the rest of a balanced tree, in place: (y0+y1)+(y2+y3) for k = 4
        for left, right in zip(pairs[::2], pairs[1::2]):
            left += right
        pairs = pairs[::2]
    return _apply("selective_scan", pairs.pop().T, inputs, vjp)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def checkpoint(f, *inputs):
    """``f(*inputs)`` as one recompute boundary: on a tape, one node that keeps only its inputs.

    ``f`` maps Tensors to one Tensor. With no taped input the call is exactly ``f(*inputs)``.
    Otherwise ``f`` runs once without recording, and the node's vjp runs it again on a fresh
    sub-tape, whose leaves are the taped inputs, and sweeps that sub-tape from the incoming
    cotangent: backward holds one boundary's intermediates at a time, and the gradients are the
    ones ``f`` recorded directly would give wherever ``f`` reads each input once (ops are pure,
    so the re-run computes the same values). The re-run and its sweep re-enter the ``scope`` path
    ``f`` first ran under. Inputs that are not on the tape stay constants and get no gradient.
    """
    if all(t.tape is None for t in inputs):
        return f(*inputs)
    out = f(*[_wrap(t.data) for t in inputs])
    at = scopes[-1] if scopes else None  # the path ``f`` ran under, which its re-run re-enters

    def vjp(g):
        depth = len(scopes)
        if at is not None:
            scopes.append(at)
        try:
            sub = Tape()
            ins = [t if t.tape is None else sub.leaf(t.data) for t in inputs]
            y = f(*ins)
            grads = _sweep(sub, y.node, g) if y.tape is sub else {}
            return tuple(None if t.tape is None else grads.get(t.node) for t in ins)
        finally:
            del scopes[depth:]

    return _apply("checkpoint", out.data, inputs, vjp)


def _sweep(tape, start, g):
    """Run the vjps from node ``start``, whose cotangent is ``g``, down to the first node; returns {node id: grad}.

    Each node's vjp is dropped once it has run, and with it the arrays it kept.
    """
    grads: dict[int, np.ndarray] = {start: g}
    for nid in range(start, -1, -1):
        node = tape.nodes[nid]
        if node.is_leaf:
            continue
        g = grads.pop(nid, None)
        if g is None:
            continue
        if node.vjp is None:
            raise TapeError(f"backward: node {nid} ('{node.op}') was freed by an earlier backward sweep")
        vjp, node.vjp = node.vjp, None
        gins = vjp(g)
        if observer is not None:
            observer("vjp", gins, (g,), node)
        for in_id, gin in zip(node.inputs, gins):
            if in_id < 0 or gin is None:
                continue
            acc = grads.get(in_id)
            grads[in_id] = gin if acc is None else acc + gin
    return grads


def backward(tape, loss):
    """Reverse sweep from a scalar loss; returns {leaf node id: grad Tensor}.

    Every leaf registered on the tape appears in the result; leaves the loss
    does not reach map to zero tensors of the leaf's shape. Each node's vjp
    is dropped once it has run, and with it the arrays it kept, so a later
    sweep through that node raises ``TapeError``; sweeps from losses over
    disjoint nodes of one tape still work. A ``checkpoint`` node's vjp runs
    its own sweep over a sub-tape.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape or loss.node is None:
        raise TapeError("backward: loss is not recorded on this tape")
    if loss.size != 1:
        raise TapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads = _sweep(tape, loss.node, np.ones(loss.shape, dtype=loss.dtype))
    out = {}
    for nid, node in enumerate(tape.nodes):
        if node.is_leaf:
            g = grads.get(nid)
            out[nid] = Tensor(g if g is not None else np.zeros(node.shape, dtype=node.dtype))
    return out

