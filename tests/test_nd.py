"""Tensor engine: forward kernels, tape gradients, binary format."""

import ast
import pathlib
import re
import zlib

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import assume, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from oracles import dwconv_oracle, scan_oracle
from scipy.special import erf, expit

from sparx import blocks, nd
from sparx.backbone import build, forward_bound
from sparx.config import get_variant
from sparx.nd import (NumericError, ShapeError, Tape, TapeError, Tensor, add,
                      backward, concat, conv2d, cross_entropy_logits, dwconv,
                      gather_rows, gelu, layernorm_channels,
                      matmul, mean_axis, permute, reshape, scale, selective_scan,
                      slice_axis, softmax_lastdim, split, sum_all, window_reduce)
from sparx.params import bind
from sparx.tensor_io import TensorFormatError, read_tensor, tensor_bytes, tensor_from_bytes, write_tensor
from sparx.verify import grad_check


def _dot(a, b):
    """Scalar inner product <a, b> as one matmul: the nonlinear losses of the gradient tests."""
    return sum_all(matmul(reshape(a, (1, a.size)), reshape(b, (b.size,))))


# (name, op, operand shapes) of every op with two or more tensor inputs
_MULTI_INPUT_OPS = [
    ("add", add, [(3,), (3,)]),
    ("matmul", matmul, [(2, 3), (3, 4), (2,)]),
    ("concat", lambda *ts: concat(ts), [(2, 3), (1, 3)]),
    ("layernorm_channels", layernorm_channels, [(3, 4), (3,), (3,)]),
    ("dwconv", lambda x, w, b: dwconv(x, w, b, pad=1), [(2, 3, 3), (2, 3, 3), (2,)]),
    ("window_reduce", window_reduce, [(2, 4, 4), (2, 2, 2)]),
    ("conv2d", lambda x, w, b: conv2d(x, w, b, pad=1), [(2, 4, 4), (3, 2, 3, 3), (3,)]),
    ("selective_scan", lambda *ts: selective_scan(*ts, np.arange(4)[None]),
     [(2, 4), (1, 7, 2), (1, 7), (1, 2, 1), (1, 2), (1, 2, 3), (1, 2)]),
]


class TestDenseOps:
    def test_matmul_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(out.data, [[3, 4], [5, 6]])

    def test_matmul_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[19, 22], [43, 50]])

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_split_requires_divisibility(self):
        with pytest.raises(ShapeError):
            split(Tensor(np.zeros((5, 2))), 2, axis=0)

    @pytest.mark.parametrize("name,op,shapes,wide", [pytest.param(name, op, shapes, i, id=f"{name}-{i}")
                                                      for name, op, shapes in _MULTI_INPUT_OPS
                                                      for i in range(len(shapes))])
    def test_mixed_dtypes_rejected(self, name, op, shapes, wide):
        # the error names the op that was called, not a kernel it delegates to
        ts = [Tensor(np.ones(s, np.float64 if i == wide else np.float32)) for i, s in enumerate(shapes)]
        with pytest.raises(ShapeError, match=f"^{name}: mixed dtypes"):
            op(*ts)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.bool_, np.float16, np.complex128])
    def test_non_float_data_rejected(self, dtype):
        data = np.ones((2, 3), dtype)
        with pytest.raises(ShapeError, match=np.dtype(dtype).name):
            Tensor(data)
        with pytest.raises(ShapeError, match=np.dtype(dtype).name):
            Tape().leaf(data)

    def test_slice_of_several_axes_is_one_op_equal_to_chained_slices(self):
        x = np.random.default_rng(3).standard_normal((2, 5, 4))
        tape = Tape()
        a = tape.leaf(x)
        one = slice_axis(a, (1, 2), (1, 0), (4, 3))
        assert len(tape) == 2
        chained = slice_axis(slice_axis(a, 1, 1, 4), 2, 0, 3)
        assert np.array_equal(one.data, chained.data)
        probe = Tensor(np.random.default_rng(4).standard_normal(one.shape))
        g_one = backward(tape, _dot(one, probe))[a.node].data
        g_chained = backward(tape, _dot(chained, probe))[a.node].data
        assert np.array_equal(g_one, g_chained)
        with pytest.raises(ShapeError, match="out of range for axis 2"):
            slice_axis(a, (1, 2), (0, 0), (5, 5))

    def test_nonfinite_output_raises(self):
        big = Tensor(np.array([[1e300]]))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="matmul"):
            matmul(big, big)

    def test_data_movement_carries_values_and_the_next_computing_op_raises(self):
        moved = permute(reshape(Tensor(np.array([[1.0, np.inf]])), (2, 1)), (1, 0))
        assert moved.data[0, 1] == np.inf
        with pytest.raises(NumericError, match="scale"):
            scale(moved, 2.0)

    @example(n=nd._CHECK_BLOCK + 1, where=1.0, bad=np.nan, dtype=np.float32)  # the last element, alone in its block
    @example(n=2 * nd._CHECK_BLOCK, where=0.5, bad=-np.inf, dtype=np.float64)  # the first of the second block
    @given(n=st.integers(nd._CHECK_BLOCK + 1, 3 * nd._CHECK_BLOCK), where=st.floats(0, 1),
           bad=st.sampled_from([np.nan, np.inf, -np.inf, None]), dtype=st.sampled_from([np.float32, np.float64]))
    def test_one_nonfinite_value_anywhere_in_an_output_of_several_check_blocks_raises(self, n, where, bad, dtype):
        x = np.random.default_rng(n).standard_normal(n).astype(dtype)
        if bad is None:  # all finite: no error, and the values pass through
            assert np.array_equal(scale(Tensor(x), 1.0).data, x)
            return
        x[min(n - 1, int(where * n))] = bad
        with pytest.raises(NumericError, match="scale"):
            scale(Tensor(x), 1.0)

    def test_elementwise_op_keeps_no_output_sized_scratch(self):
        # a tiny@224 stage-1 FFN hidden map: an output-sized finiteness mask alone is 1.25x the output
        m = Tensor(np.random.default_rng(31).standard_normal((384, 56, 56)).astype(np.float32))
        out, peak = traced_peak(lambda: scale(m, 2.0))
        assert peak <= 1.05 * out.data.nbytes, peak / out.data.nbytes

    def test_matmul_batch_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_reshape_rejects_wrapping_and_negative_sizes(self):
        # 65536^4 = 2^64 elements: a 64-bit product wraps to 0, the size of an empty array
        with pytest.raises(ShapeError, match="reshape"):
            reshape(Tensor(np.zeros(0, np.float32)), (65536,) * 4)
        with pytest.raises(ShapeError, match="reshape"):
            reshape(Tensor(np.zeros(2, np.float32)), (-1, -2))

    def test_matmul_bias_fanout_mismatch(self):
        with pytest.raises(ShapeError, match="fan-out"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))


class TestConvOps:
    def test_dwconv3x3_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5, 5))
        w = np.zeros((3, 3, 3))
        w[:, 1, 1] = 1.0
        out = dwconv(Tensor(x), Tensor(w), pad=1)
        assert np.allclose(out.data, x, atol=0)

    def test_window_mean_constant_invariance(self):
        out = window_reduce(Tensor(np.full((1, 4, 4), 5.0)), Tensor(np.full((1, 2, 2), 0.25)))
        assert out.shape == (1, 2, 2)
        assert np.array_equal(out.data, np.full((1, 2, 2), 5.0))

    def test_window_reduce_2x2_hand_average(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = window_reduce(Tensor(x), Tensor(np.full((1, 2, 2), 0.25)))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 2.5

    def test_window_reduce_requires_windows_that_tile(self):
        with pytest.raises(ShapeError, match="do not tile"):
            window_reduce(Tensor(np.zeros((1, 5, 5))), Tensor(np.zeros((1, 2, 2))))

    def test_dwconv_channel_count_mismatch(self):
        with pytest.raises(ShapeError):
            dwconv(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((2, 3, 3))), pad=1)

    def test_depthwise_never_mixes_channels(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6, 6))
        x[1] = 0.0
        w = rng.standard_normal((4, 3, 3))
        out = dwconv(Tensor(x), Tensor(w), pad=1)
        assert np.all(out.data[1] == 0.0)

    # Patch columns run in channel blocks of at most _BLOCK elements, so one call's working memory is
    # its output plus about one block (1.04 blocks for dwconv and 0.98 for window_reduce here)
    @pytest.mark.parametrize("op,shape,k", [("dwconv", (384, 14, 56), 3),  # a tiny@224 stage-1 FFN band
                                            ("window_reduce", (96, 56, 56), 4)])  # a stage-1 aggregator reducer
    def test_working_memory_is_the_output_and_one_block(self, op, shape, k):
        rng = np.random.default_rng(17)
        x, w = (Tensor(rng.standard_normal(s).astype(np.float32)) for s in (shape, (shape[0], k, k)))
        call = (lambda: dwconv(x, w, pad=1)) if op == "dwconv" else (lambda: window_reduce(x, w))
        y, peak = traced_peak(call)
        assert peak <= y.data.nbytes + 1.25 * nd._BLOCK * 4, (peak - y.data.nbytes) / (nd._BLOCK * 4)

    @pytest.mark.parametrize("op", ["dwconv", "window_reduce"])
    @pytest.mark.parametrize("C,budget", [(37, 200), (5, 1), (6, 1 << 20)], ids=["37-channels", "one-each", "one-block"])
    def test_channel_blocks_cover_the_channels_within_the_block_budget(self, op, C, budget, monkeypatch):
        # the forward pass and the weight gradient each build their patch columns block by block: the
        # blocks cover the channels in order, hold at most _BLOCK elements (one channel at least), and
        # differ by one channel at most, the longer first
        rng = np.random.default_rng(18)
        tape = Tape()
        x, w = tape.leaf(rng.standard_normal((C, 4, 4))), tape.leaf(rng.standard_normal((C, 2, 2)))
        sizes, real = [], nd._im2col

        def spy(xd, *rest):
            cols = real(xd, *rest)
            sizes.append((len(xd), cols.size))
            return cols

        monkeypatch.setattr(nd, "_BLOCK", budget)
        monkeypatch.setattr(nd, "_im2col", spy)
        y = dwconv(x, w, pad=((0, 1), (1, 0))) if op == "dwconv" else window_reduce(x, w)
        forward = len(sizes)
        backward(tape, sum_all(y))
        for one_pass in (sizes[:forward], sizes[forward:]):
            channels = [n for n, _ in one_pass]
            assert sum(channels) == C and channels == sorted(channels, reverse=True), channels
            assert channels[0] - channels[-1] <= 1 and all(n == 1 or size <= budget for n, size in one_pass)
        assert len(sizes) > forward

    @pytest.mark.parametrize("call", [
        lambda: window_reduce(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 0, 0)))),
        lambda: window_reduce(Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 2, 2)))),
        lambda: conv2d(Tensor(np.zeros((4, 4))), Tensor(np.zeros((2, 4, 3, 3))), pad=1),
        lambda: conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((2, 1, 3, 3))), stride=0),
        lambda: split(Tensor(np.zeros((4, 2))), 0),
        lambda: gather_rows(Tensor(np.zeros((3, 2))), np.zeros(0, dtype=np.int64)),
        lambda: nd.pad_spatial(Tensor(np.zeros((1, 2, 2))), (-3, 5), (0, 0)),  # would fit a 2-row map in 4 rows
    ], ids=["window-reduce-0", "window-reduce-2d", "conv2d-2d", "conv2d-stride0", "split-0", "gather-empty",
            "pad-negative"])
    def test_bad_op_arguments_raise_shape_error(self, call):
        with pytest.raises(ShapeError):
            call()

    @example(cin=3, cout=4, H=8, W=8, k=3, stride=2, pad=1, seed=0)  # the stem and downsample
    @example(cin=2, cout=3, H=7, W=5, k=3, stride=2, pad=1, seed=0)  # odd map at stride 2
    @given(cin=st.integers(1, 4), cout=st.integers(1, 4), H=st.integers(1, 8), W=st.integers(1, 8),
           k=st.integers(1, 3), stride=st.integers(1, 2), pad=st.integers(0, 1),
           seed=st.integers(0, 2**16))
    def test_conv2d_matches_naive(self, cin, cout, H, W, k, stride, pad, seed):
        assume(H + 2 * pad >= k and W + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        x, b = rng.standard_normal((cin, H, W)), rng.standard_normal(cout)
        w = rng.standard_normal((cout, cin, k, k))
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad).data
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        Ho, Wo = (H + 2 * pad - k) // stride + 1, (W + 2 * pad - k) // stride + 1
        ref = np.zeros((cout, Ho, Wo))
        for o in range(cout):
            for i in range(Ho):
                for j in range(Wo):
                    ref[o, i, j] = (w[o] * xp[:, i * stride:i * stride + k,
                                              j * stride:j * stride + k]).sum() + b[o]
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @example(dtype=np.float32, cin=3, cout=4, H=8, W=8, k=3, stride=2, pads=((1, 1), (1, 1)), bias=True, seed=0)
    @example(dtype=np.float64, cin=2, cout=3, H=5, W=7, k=3, stride=2, pads=((0, 1), (1, 1)), bias=False, seed=0)
    @given(dtype=st.sampled_from([np.float32, np.float64]), cin=st.integers(1, 3), cout=st.integers(1, 3),
           H=st.integers(1, 7), W=st.integers(1, 7), k=st.integers(1, 3), stride=st.integers(1, 2),
           pads=st.one_of(st.integers(0, 2), st.tuples(*[st.tuples(st.integers(0, 2), st.integers(0, 2))] * 2)),
           bias=st.booleans(), seed=st.integers(0, 2**16))
    def test_conv2d_equals_the_patch_matmul_composition_bit_for_bit(self, dtype, cin, cout, H, W, k, stride, pads,
                                                                   bias, seed):
        # the reference is numpy alone: an im2col of a zero-padded copy, the weight products, and the
        # input gradient scatter-added tap by tap in row-major order, forward and every gradient
        (top, bottom), (left, right) = pads if isinstance(pads, tuple) else ((pads, pads), (pads, pads))
        assume(H + top + bottom >= k and W + left + right >= k)
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s).astype(dtype) for s in [(cin, H, W), (cout, cin, k, k), (cout,)][:2 + bias]]
        tape = Tape()
        leaves = [tape.leaf(a) for a in arrays]
        out = conv2d(*leaves, stride=stride, pad=pads)
        g = np.random.default_rng(seed + 1).standard_normal(out.shape).astype(dtype)
        grads = backward(tape, _dot(out, Tensor(g)))

        x, w = arrays[:2]
        Ho, Wo = out.shape[1:]
        xp = np.zeros((cin, H + top + bottom, W + left + right), dtype=dtype)
        xp[:, top:top + H, left:left + W] = x
        windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]  # (cin, Ho, Wo, k, k)
        cols = windows.transpose(0, 3, 4, 1, 2).reshape(cin * k * k, Ho * Wo)
        wf, gf = w.reshape(cout, -1), g.reshape(cout, -1)
        ref = wf @ cols
        if bias:
            ref += arrays[2][:, None]
        gcols = (wf.T @ gf).reshape(cin, k, k, Ho, Wo)
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                gxp[:, i:i + (Ho - 1) * stride + 1:stride, j:j + (Wo - 1) * stride + 1:stride] += gcols[:, i, j]
        refs = [ref.reshape(out.shape), gxp[:, top:top + H, left:left + W], (gf @ cols.T).reshape(w.shape),
                gf.sum(axis=-1)][:3 + bias]
        for got, want in zip([out.data] + [grads[t.node].data for t in leaves], refs, strict=True):
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want)


class TestNonlinearOps:
    def test_softmax_uniform_logits(self):
        out = softmax_lastdim(Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.25, atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 7))
        a = softmax_lastdim(Tensor(x)).data
        b = softmax_lastdim(Tensor(x + 100.0)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_softmax_rowsum_wide_spread(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(-50, 50, size=(6, 11))
            s = softmax_lastdim(Tensor(x)).data.sum(axis=-1)
            assert np.abs(s - 1).max() <= 1e-6

    def test_layernorm_closed_form(self):
        x = np.array([[2.0], [4.0], [6.0]])
        out = layernorm_channels(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_layernorm_affine_shape_check(self):
        with pytest.raises(ShapeError):
            layernorm_channels(Tensor(np.zeros((3, 2))), Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_softmax_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            softmax_lastdim(Tensor(np.zeros((2, 0))))

    def test_gelu_softplus_values(self):
        x = np.array([0.0])
        assert abs(gelu(Tensor(x)).data[0]) < 1e-12
        # one scan step with unit x, b and c (zero token weights plus unit biases), a zero step input
        # and d = 0 returns its step size, softplus(0) = log 2
        y = selective_scan(Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 3, 1))), Tensor([[0.0, 1.0, 1.0]]),
                           Tensor(np.ones((1, 1, 1))), Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1, 1))),
                           Tensor(np.zeros((1, 1))), np.arange(1)[None])
        assert abs(y.data[0, 0] - np.log(2)) < 1e-12

    def test_gelu_float32_runs_in_float32(self):
        x = np.random.default_rng(11).standard_normal((256, 1024)).astype(np.float32) * 2
        t = Tensor(x)
        y, peak = traced_peak(lambda: gelu(t))
        assert y.dtype == np.float32
        assert np.abs(y.data - gelu(Tensor(x.astype(np.float64))).data).max() <= 1e-6
        assert peak < 3.5 * x.nbytes, peak / x.nbytes  # no float64 intermediate

    def test_gelu_float32_fit_against_float64_on_a_dense_grid(self):
        # the float32 forward is Abramowitz & Stegun's 7.1.26 erfc fit, the float64 one scipy's erf
        x = np.concatenate([np.linspace(-12, 12, 240_001, dtype=np.float32),
                            np.array([0.0, 1e-30, -1e-30], dtype=np.float32)])
        x64 = x.astype(np.float64)
        ref = 0.5 * x64 * (1 + erf(x64 / np.sqrt(2.0)))
        got = gelu(Tensor(x)).data
        assert got.dtype == np.float32
        assert np.abs(got - ref).max() <= 1e-6
        grads = []
        for arr in (x, x64):
            tape = Tape()
            leaf = tape.leaf(arr)
            grads.append(backward(tape, sum_all(gelu(leaf)))[leaf.node].data)
        assert grads[0].dtype == np.float32
        assert np.abs(grads[0] - grads[1]).max() <= 1e-6


class TestBackward:
    def test_linear_map_gradient_is_broadcast_of_input(self):
        tape = Tape()
        w = tape.leaf(np.zeros((3, 4)))
        x = Tensor(np.arange(4.0))
        loss = sum_all(matmul(w, reshape(x, (4, 1))))
        grads = backward(tape, loss)
        expect = np.tile(np.arange(4.0), (3, 1))
        assert np.allclose(grads[w.node].data, expect)

    def test_softmax_sum_gradient_is_zero(self):
        tape = Tape()
        v = tape.leaf(np.array([0.3, -1.0, 2.0]))
        loss = sum_all(softmax_lastdim(v))
        grads = backward(tape, loss)
        assert np.abs(grads[v.node].data).max() < 1e-12

    def test_unreached_leaf_gets_zero_gradient(self):
        tape = Tape()
        used = tape.leaf(np.ones(2))
        unused = tape.leaf(np.ones(3))
        grads = backward(tape, sum_all(used))
        assert np.array_equal(grads[unused.node].data, np.zeros(3))

    def test_loss_must_be_scalar_and_on_tape(self):
        tape = Tape()
        v = tape.leaf(np.ones(3))
        with pytest.raises(TapeError):
            backward(tape, v)
        with pytest.raises(TapeError):
            backward(tape, Tensor(np.asarray(1.0)))

    def test_mixing_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(TapeError):
            add(a, b)

    def test_tape_nodes_topologically_ordered(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf(np.ones((2, 2)))
        out = sum_all(softmax_lastdim(add(matmul(a, b), matmul(b, a))))
        assert out.node == len(tape.nodes) - 1
        for idx, node in enumerate(tape.nodes):
            assert all(i < idx for i in node.inputs if i >= 0)

    def test_second_sweep_through_a_freed_node_raises(self):
        tape = Tape()
        a = tape.leaf(np.array([0.5, -1.0]))
        shared = gelu(a)
        first = backward(tape, sum_all(shared))[a.node].data
        with pytest.raises(TapeError, match="freed"):
            backward(tape, sum_all(scale(shared, 2.0)))
        x = a.data
        assert np.allclose(first, 0.5 * (1 + erf(x / np.sqrt(2))) + x * np.exp(-x * x / 2) / np.sqrt(2 * np.pi))
        assert tape.nodes[shared.node].vjp is None

    def test_cross_entropy_gradient(self):
        tape = Tape()
        logits = tape.leaf(np.array([0.2, -0.1, 1.3]))
        loss = cross_entropy_logits(logits, 1)
        grads = backward(tape, loss)
        z = logits.data - logits.data.max()
        probs = np.exp(z) / np.exp(z).sum()
        probs[1] -= 1
        assert np.allclose(grads[logits.node].data, probs, atol=1e-12)


class TestCheckpoint:
    """``nd.checkpoint``: one node that keeps its inputs and re-runs its function on a sub-tape in backward."""

    def test_untaped_call_is_one_plain_call_of_the_function(self):
        made = []

        def f(*ts):
            made.append(_expand_gelu(*ts))
            return made[-1]

        rng = np.random.default_rng(30)
        out = nd.checkpoint(f, *(Tensor(rng.standard_normal(s)) for s in [(3, 4), (3, 3), (3,)]))
        assert out is made[0] and len(made) == 1 and out.tape is None

    def test_constant_inputs_get_no_gradient_and_the_taped_ones_match_direct_recording(self):
        rng = np.random.default_rng(31)
        x, w, b = (rng.standard_normal(s) for s in [(3, 4), (3, 3), (3,)])
        probe = Tensor(rng.standard_normal((3, 4)))
        grads = []
        for record in (_expand_gelu, lambda *ts: nd.checkpoint(_expand_gelu, *ts)):
            tape = Tape()
            tx, tb = tape.leaf(x), tape.leaf(b)
            y = record(tx, Tensor(w), tb)
            g = backward(tape, _dot(y, probe))
            grads.append([g[tx.node].data, g[tb.node].data])
        assert [n.op for n in tape.nodes if not n.is_leaf] == ["checkpoint", "reshape", "matmul", "sum_all"]
        assert all(a.tobytes() == c.tobytes() for a, c in zip(*grads))
        tape = Tape()
        y = nd.checkpoint(_expand_gelu, tape.leaf(x), Tensor(w), tape.leaf(b))
        assert tape.nodes[y.node].vjp(probe.data)[1] is None

    def test_second_sweep_through_a_freed_boundary_raises(self):
        rng = np.random.default_rng(32)
        tape = Tape()
        ins = [tape.leaf(rng.standard_normal(s)) for s in [(3, 4), (3, 3), (3,)]]
        y = nd.checkpoint(_expand_gelu, *ins)
        backward(tape, sum_all(y))
        with pytest.raises(TapeError, match="freed"):
            backward(tape, sum_all(scale(y, 2.0)))


class TestScope:
    """``nd.scope`` pushes a dotted path on ``nd.scopes`` and pops it however its block ends."""

    def test_an_op_that_raises_in_nested_scopes_names_the_innermost_and_leaves_the_entry_state(self):
        entry, big = list(nd.scopes), Tensor(np.array([1e308]))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=r"^non-finite values produced by op 'scale' in outer\.inner$"):
                with nd.scope("outer"), nd.scope("inner"):
                    assert nd.scopes == [*entry, "outer", "outer.inner"]
                    scale(big, 10.0)
            assert nd.scopes == entry
            with pytest.raises(NumericError, match=r"^non-finite values produced by op 'scale'$"):
                scale(big, 10.0)

    def test_a_checkpoint_re_runs_under_the_path_it_ran_under_and_its_backward_leaves_the_entry_state(self):
        rng = np.random.default_rng(34)
        tape, paths = Tape(), []
        ins = [tape.leaf(rng.standard_normal(s)) for s in [(3, 4), (3, 3), (3,)]]

        def f(*ts):
            paths.append(list(nd.scopes))
            return _expand_gelu(*ts)

        with nd.scope("s1"), nd.scope("band"):
            y = nd.checkpoint(f, *ins)
        with nd.scope("train"):
            backward(tape, sum_all(y))
            assert nd.scopes == ["train"]
        assert paths == [["s1", "s1.band"], ["train", "s1.band"]] and nd.scopes == []

    def test_every_entry_into_a_path_shares_one_string_which_a_checkpoint_keeps_without_a_container(self):
        rng = np.random.default_rng(35)
        tape = Tape()
        ins = [tape.leaf(rng.standard_normal(s)) for s in [(3, 4), (3, 3), (3,)]]
        with nd.scope("s1"), nd.scope("band"):
            first = nd.scopes[-1]
        with nd.scope("s1"), nd.scope("band"):
            assert nd.scopes[-1] is first
            y = nd.checkpoint(_expand_gelu, *ins)
        kept = [cell.cell_contents for cell in tape.nodes[y.node].vjp.__closure__]
        assert any(v is first for v in kept) and not any(isinstance(v, (list, dict)) for v in kept)


class TestObserver:
    """``nd.observer`` sees every op and every vjp once, in the order they run, and changes no value."""

    @staticmethod
    def taped_step(observer):
        """(tape, logits, gradients) of a taped float64 ``tiny-reduced`` forward and backward under ``observer``."""
        cfg = get_variant("tiny-reduced")
        image = Tensor(np.random.default_rng(33).standard_normal((3, cfg.input_size, cfg.input_size)))
        tape = Tape()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nd, "observer", observer)
            logits, _ = forward_bound(bind(build(cfg, 33, dtype=np.float64), tape), image)
            grads = backward(tape, cross_entropy_logits(logits, 1))
        return tape, logits, grads

    def test_sees_every_op_and_vjp_once_in_order_including_checkpoints_and_changes_nothing(self):
        events = []  # (op or "vjp", output Tensor or the vjp's gradients, node)
        tape, logits, grads = self.taped_step(lambda op, out, inputs, node: events.append((op, out, node)))
        _, logits0, grads0 = self.taped_step(None)
        assert logits.data.tobytes() == logits0.data.tobytes() and grads.keys() == grads0.keys()
        assert all(grads[k].data.tobytes() == grads0[k].data.tobytes() for k in grads)

        def recorded(t):  # the non-leaf nodes of a tape, in the order they were recorded
            return [id(n) for n in t.nodes if not n.is_leaf]

        # the main tape: every recorded op once in order, then every vjp once in reverse order
        assert [id(n) for op, out, n in events if op != "vjp" and out.tape is tape] == recorded(tape)
        main = {id(n) for n in tape.nodes}
        assert [id(n) for op, _, n in events if op == "vjp" and id(n) in main] == recorded(tape)[::-1]
        assert all(n.vjp is None for n in tape.nodes)  # every node's vjp ran
        # a checkpoint's function runs untaped right before its node, and again on a sub-tape in its vjp:
        # that sub-tape's ops in order, then its vjps in reverse order, then the checkpoint's own vjp
        boundaries = [i for i, (op, out, _) in enumerate(events) if op == "checkpoint" and out.tape is tape]
        first_runs = []
        for i in boundaries:
            j = i
            while events[j - 1][2] is None:
                j -= 1
            first_runs.append(events[j:i])
        untaped = [e for e in events if e[0] != "vjp" and e[2] is None]
        assert boundaries and sum(map(len, first_runs)) == len(untaped)
        re_runs = []
        for i, (op, _, n) in enumerate(events):
            if op == "vjp" and n.op == "checkpoint":
                j = i
                while id(events[j - 1][2]) not in main:
                    j -= 1
                re_runs.append(events[j:i])
        assert len(re_runs) == len(boundaries)
        for first, again in zip(first_runs, re_runs[::-1]):
            sub = again[0][1].tape
            ops = [e for e in again if e[0] != "vjp"]
            assert sub is not None and sub is not tape and [id(n) for _, _, n in ops] == recorded(sub)
            assert [id(n) for op, _, n in again[len(ops):]] == recorded(sub)[::-1]
            assert all(n.vjp is None for n in sub.nodes)
            assert [(op, out.data.tobytes()) for op, out, _ in first] == [(op, y.data.tobytes()) for op, y, _ in ops]


def _kept_arrays(vjp):
    """The distinct ndarrays a vjp reaches through its closure cells, nested closures, containers and Tensors."""
    seen, found, todo = set(), {}, [vjp]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found[id(obj)] = obj
        elif isinstance(obj, Tensor):
            todo.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return list(found.values())


class TestTapeKeeps:
    """A node keeps for backward only the arrays its vjp cannot rebuild cheaply."""

    @pytest.mark.parametrize("bias", [False, True])
    def test_conv2d_is_one_node_that_keeps_its_operands_only(self, bias):
        rng = np.random.default_rng(21)
        tape = Tape()
        x = tape.leaf(rng.standard_normal((3, 9, 9)))
        w = tape.leaf(rng.standard_normal((4, 3, 3, 3)))
        b = tape.leaf(rng.standard_normal(4)) if bias else None
        out = conv2d(x, w, b, stride=2, pad=1)
        nodes = [n for n in tape.nodes if not n.is_leaf]
        assert [n.op for n in nodes] == ["conv2d"]
        kept = sum(a.nbytes for a in _kept_arrays(nodes[0].vjp))
        # the (27, 25) patch matrix would add 5400 bytes
        assert kept <= x.data.nbytes + w.data.nbytes + (b.data.nbytes if bias else 0), kept
        assert out.shape == (4, 5, 5)

    @pytest.mark.parametrize("op,constant", [("window_reduce", "w"), ("window_reduce", "x"), ("conv2d", "x")])
    def test_no_gradient_is_formed_for_an_operand_off_the_tape(self, op, constant):
        # the bridge's constant 1/4 kernel and the stem's image: the vjp returns None in the constant's slot,
        # the taped operand's gradient bit for bit as when both are taped, and keeps no array only the
        # constant's gradient would read
        rng = np.random.default_rng(27)
        if op == "window_reduce":
            x, w, call = rng.standard_normal((3, 4, 6)), np.full((3, 2, 2), 0.25), window_reduce
        else:
            x, w = rng.standard_normal((3, 7, 7)), rng.standard_normal((4, 3, 3, 3))

            def call(a, b):
                return conv2d(a, b, stride=2, pad=1)

        probe = rng.standard_normal(call(Tensor(x), Tensor(w)).shape)
        tape = Tape()
        both = tape.nodes[call(tape.leaf(x), tape.leaf(w)).node].vjp(probe)
        tape = Tape()
        y = call(Tensor(x) if constant == "x" else tape.leaf(x), Tensor(w) if constant == "w" else tape.leaf(w))
        node = tape.nodes[y.node]
        kept = {id(a) for a in _kept_arrays(node.vjp)}
        got = node.vjp(probe)
        i = "xw".index(constant)
        assert got[i] is None and got[1 - i].tobytes() == both[1 - i].tobytes()
        read_only_for_the_constant = x if constant == "w" else w
        assert id(read_only_for_the_constant) not in kept

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_node_keeps_only_its_input(self, dtype):
        tape = Tape()
        a = tape.leaf(np.linspace(-3, 3, 12, dtype=dtype).reshape(3, 4))
        out = gelu(a)
        assert [id(arr) for arr in _kept_arrays(tape.nodes[out.node].vjp)] == [id(a.data)]

    def test_scan_node_holds_a_once(self):
        rng = np.random.default_rng(22)
        k, C, S, T, r = 2, 3, 4, 5, 2
        shapes = [(C, T), (k, r + 2 * S, C), (k, r + 2 * S), (k, C, r), (k, C), (k, C, S), (k, C)]
        tape = Tape()
        leaves = [tape.leaf(rng.standard_normal(s)) for s in shapes]
        out = selective_scan(*leaves, np.stack([np.arange(T), np.arange(T)[::-1]]))
        a_sorted = np.sort(-np.exp(leaves[5].data), axis=None)
        copies = [arr for arr in _kept_arrays(tape.nodes[out.node].vjp)
                  if arr.size == a_sorted.size and np.array_equal(np.sort(arr, axis=None), a_sorted)]
        assert len(copies) == 1, [c.shape for c in copies]


class TestGradCheck:
    def test_quadratic_at_three(self):
        err = grad_check(lambda w: _dot(w, w), [np.array([3.0])], h=1e-4)
        assert err <= 1e-8

    def test_composites_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 2))
            g = rng.standard_normal(3) + 1.5
            be = rng.standard_normal(3)

            def f(ta, tb, tg, tbe):
                h = matmul(ta, tb)
                h = layernorm_channels(h, tg, tbe)
                h = gelu(h)
                return sum_all(softmax_lastdim(h))

            assert grad_check(f, [a, b, g, be]) <= 1e-4

    def test_conv_and_window_reduce_gradients(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 4))
        w = rng.standard_normal((2, 3, 3))
        r = rng.standard_normal((2, 2, 2))

        def f(tx, tw, tr):
            y = window_reduce(dwconv(tx, tw, pad=1), tr)
            return _dot(y, y)

        assert grad_check(f, [x, w, r]) <= 1e-4

    def test_gather_and_slice_gradients(self):
        rng = np.random.default_rng(9)
        table = rng.standard_normal((5, 3))
        idx = np.array([0, 2, 2, 4])

        def f(tt):
            g = gather_rows(tt, idx)
            return _dot(g, g)

        assert grad_check(f, [table]) <= 1e-6

    def test_selective_scan_against_finite_differences(self):
        rng = np.random.default_rng(7)
        k, C, T, S, r = 2, 2, 4, 2, 3
        order = np.stack([np.arange(T), np.arange(T)[::-1]])
        for trial in range(5):
            x = rng.standard_normal((C, T))
            x_proj = rng.standard_normal((k, r + 2 * S, C))
            b_proj = rng.standard_normal((k, r + 2 * S))
            w_dt = rng.standard_normal((k, C, r))
            b_dt = rng.standard_normal((k, C))
            a_log = rng.standard_normal((k, C, S))
            d = rng.standard_normal((k, C))

            def f(*ts):
                return sum_all(selective_scan(*ts, order))

            assert grad_check(f, [x, x_proj, b_proj, w_dt, b_dt, a_log, d]) <= 1e-4


def _op_cases():
    """One scalar-valued probe per differentiable primitive."""
    return [
        ("add", lambda a, b: sum_all(add(a, b)), [(2, 3), (2, 3)]),
        ("add_broadcast", lambda a, b: _dot(add(a, b), add(a, b)), [(2, 3), (3,)]),
        ("scale", lambda a: _dot(scale(a, -1.7), a), [(4,)]),
        ("matmul", lambda a, b: _dot(matmul(a, b), matmul(a, b)), [(2, 3), (3, 2)]),
        ("matmul_bias_map", lambda a, b, c: _dot(matmul(a, b, c), matmul(a, b, c)), [(2, 3), (3, 5, 2), (2,)]),
        ("matmul_batched", lambda a, b: _dot(matmul(a, b), matmul(a, b)), [(2, 2, 3), (2, 3, 2)]),
        ("matmul_stacked_bias", lambda a, b, c: _dot(matmul(a, b, c), matmul(a, b, c)),
         [(2, 2, 3), (2, 3, 5), (2, 2)]),
        ("matmul_shared", lambda a, b, c: _dot(matmul(a, b, c), matmul(a, b, c)), [(2, 2, 3), (1, 3, 5), (2, 2)]),
        ("concat", lambda a, b: _dot(concat([a, b], 0), concat([a, b], 0)), [(2, 3), (1, 3)]),
        ("split", lambda a: _dot(*split(a, 2, axis=0)), [(4, 3)]),
        ("slice", lambda a: _dot(slice_axis(a, 1, 1, 3), slice_axis(a, 1, 0, 2)), [(2, 4)]),
        ("reshape_permute", lambda a: _dot(permute(reshape(a, (2, 6)), (1, 0)),
                                           permute(reshape(a, (2, 6)), (1, 0))), [(3, 4)]),
        ("roll", lambda a: _dot(nd.roll2d(a, 1, -1), a), [(2, 3, 3)]),
        ("pad_crop", lambda a: _dot(slice_axis(nd.pad_spatial(a, (1, 1), (0, 2)), (1, 2), (0, 0), (3, 3)),
                                    slice_axis(nd.pad_spatial(a, (1, 1), (0, 2)), (1, 2), (0, 0), (3, 3))),
         [(2, 3, 3)]),
        ("mean_axis", lambda a: _dot(mean_axis(a, 1), mean_axis(a, 1)), [(3, 4)]),
        ("gelu", lambda a: sum_all(gelu(a)), [(2, 3)]),
        ("softmax", lambda a: _dot(softmax_lastdim(a), a), [(3, 4)]),
        ("layernorm", lambda a, g, b: _dot(layernorm_channels(a, g, b), layernorm_channels(a, g, b)),
         [(3, 4), (3,), (3,)]),
        ("cross_entropy", lambda a: cross_entropy_logits(a, 1), [(4,)]),
        ("dwconv", lambda a, w, b: _dot(dwconv(a, w, b, pad=1), a),
         [(2, 3, 3), (2, 3, 3), (2,)]),
        ("conv2d", lambda a, w, b: _dot(conv2d(a, w, b, stride=2, pad=1), conv2d(a, w, b, stride=2, pad=1)),
         [(2, 4, 4), (3, 2, 3, 3), (3,)]),
        ("conv2d_sides", lambda a, w: _dot(conv2d(a, w, pad=((1, 0), (0, 2))), conv2d(a, w, pad=((1, 0), (0, 2)))),
         [(2, 3, 4), (2, 2, 2, 2)]),
        ("window_reduce", lambda a, w: _dot(window_reduce(a, w), window_reduce(a, w)), [(2, 4, 6), (2, 2, 2)]),
        ("checkpoint", lambda a, w, b: _dot(nd.checkpoint(_expand_gelu, a, w, b), a), [(3, 4), (3, 3), (3,)]),
    ]


def _expand_gelu(x, w, b):
    """gelu(w @ x + b): a function with a few recorded ops, for the recompute boundary's tests."""
    return gelu(matmul(w, x, b))


class TestEveryOpGradient:
    @pytest.mark.parametrize("name,fn,shapes", _op_cases(), ids=[c[0] for c in _op_cases()])
    def test_five_random_instances(self, name, fn, shapes):
        for trial in range(5):
            rng = np.random.default_rng(zlib.crc32(name.encode()) + trial)
            arrays = [rng.standard_normal(s) for s in shapes]
            if name == "layernorm":
                arrays[1] = arrays[1] + 1.5  # keep the affine gain away from zero
            err = grad_check(fn, arrays)
            assert err <= 1e-4, f"{name} trial {trial}: {err}"


def scan_projections(x, x_proj, b_proj, w_dt, b_dt):
    """The step sizes delta (k,C,T) and B and C (k,S,T) of a scan's inputs, projected in numpy (float64)."""
    r = w_dt.shape[2]
    S = (x_proj.shape[1] - r) // 2
    proj = x_proj @ x + b_proj[..., None]
    return np.logaddexp(0, w_dt @ proj[:, :r] + b_dt[..., None]), proj[:, r:r + S], proj[:, r + S:]


def scan_reference(x, x_proj, b_proj, w_dt, b_dt, a_log, d, order):
    """The k directions' loop oracles on the numpy projections, each scattered back to token order and summed."""
    delta, b, c = scan_projections(x, x_proj, b_proj, w_dt, b_dt)
    ref = np.zeros(x.shape)
    for i, idx in enumerate(order):  # direction i on its visiting-order sequence, scattered back
        ref[:, idx] += scan_oracle(x[:, idx], delta[i][:, idx], -np.exp(a_log[i]), b[i][:, idx], c[i][:, idx], d[i])
    return ref


def random_scan_weights(rng, k, C, S, r):
    """Random x_proj, b_proj, w_dt, b_dt, a_log and d, the projections scaled by their fan-in's root."""
    return [rng.standard_normal((k, r + 2 * S, C)) / np.sqrt(C), rng.standard_normal((k, r + 2 * S)),
            rng.standard_normal((k, C, r)) / np.sqrt(r), rng.standard_normal((k, C)),
            rng.standard_normal((k, C, S)), rng.standard_normal((k, C))]


_SCAN_INPUTS = ("x", "x_proj", "b_proj", "w_dt", "b_dt", "a_log", "d")
CHUNK = 128  # chunk steps the small scans below run in, so their sequences span several chunks


def chunk_budget(steps, k, S, C):
    """The ``_SCAN_ELEMS`` with which a (k directions, S states, C channels) scan runs chunks of at most ``steps``."""
    return steps * k * S * C


class TestScanSemantics:
    @staticmethod
    def _args(rng, k, C, S, T):
        """Every input but x: random B and C weights and a constant step size, softplus(0.7), from a zero
        step-input weight plus a bias."""
        x_proj, b_proj, *rest = random_scan_weights(rng, k, C, S, 1)
        x_proj[:, 0], b_proj[:, 0] = 0, 0.7
        w_dt, b_dt = np.ones((k, C, 1)), np.zeros((k, C))
        return [Tensor(a) for a in (x_proj, b_proj, w_dt, b_dt, *rest[2:])]

    def test_causality_bitwise(self):
        # one direction in a shuffled order: changing its last-visited token leaves the others bitwise
        rng = np.random.default_rng(10)
        C, T, S = 3, 6, 2
        order = rng.permutation(T)[None]
        args = self._args(rng, 1, C, S, T)
        x = rng.standard_normal((C, T))
        y1 = selective_scan(Tensor(x), *args, order).data
        x2 = x.copy()
        x2[:, order[0, -1]] = 99.0
        y2 = selective_scan(Tensor(x2), *args, order).data
        rest = order[0, :-1]
        assert np.array_equal(y1[:, rest], y2[:, rest])

    def test_reversed_order_is_the_forward_scan_of_the_flipped_sequence(self, monkeypatch):
        rng = np.random.default_rng(11)
        C, T, S = 2, 2 * CHUNK + 5, 3
        monkeypatch.setattr(nd, "_SCAN_ELEMS", chunk_budget(CHUNK, 1, S, C))
        x = rng.standard_normal((C, T))
        args = self._args(rng, 1, C, S, T)
        backward = selective_scan(Tensor(x), *args, np.arange(T)[None, ::-1]).data
        # x is the only per-token input: the scan projects each token itself
        forward = selective_scan(Tensor(x[:, ::-1].copy()), *args, np.arange(T)[None]).data
        assert np.allclose(backward, forward[:, ::-1], rtol=0, atol=1e-12)

    @staticmethod
    def _random_scan(rng, k, C, S, T, dtype=np.float64):
        """Scan inputs (random x and weights, step rank 2) and k random token orders."""
        arrays = [rng.standard_normal((C, T)), *random_scan_weights(rng, k, C, S, 2)]
        return [a.astype(dtype) for a in arrays], np.stack([rng.permutation(T) for _ in range(k)])

    @staticmethod
    def _output_and_grads(arrays, order, probe):
        tape = Tape()
        leaves = [tape.leaf(a) for a in arrays]
        y = selective_scan(*leaves, order)
        grads = backward(tape, _dot(y, Tensor(probe)))
        return [y.data] + [grads[t.node].data for t in leaves]

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_chunk_length_does_not_change_outputs_or_gradients(self, k, monkeypatch):
        # chunks of 1 step carry the state across every step; chunks of at most 10 steps run 26
        # chunks of 9 and 10, and a budget below one step still runs one step a chunk
        rng = np.random.default_rng(20 + k)
        C, S, T = 3, 2, 259
        arrays, order = self._random_scan(rng, k, C, S, T)
        probe = rng.standard_normal((C, T))
        ref = self._output_and_grads(arrays, order, probe)
        for budget in (chunk_budget(1, k, S, C), chunk_budget(10, k, S, C), 1):
            monkeypatch.setattr(nd, "_SCAN_ELEMS", budget)
            got = self._output_and_grads(arrays, order, probe)
            for name, r, v in zip(("y",) + _SCAN_INPUTS, ref, got):
                assert np.abs(v - r).max() <= 1e-13 * max(1.0, np.abs(r).max()), (budget, name)

    def test_chunks_are_the_fewest_within_the_budget_and_of_equal_length(self, monkeypatch):
        rng = np.random.default_rng(24)
        lengths = []
        real = nd._scan_states

        def spy(h0, dl, *rest):
            lengths.append(len(dl))
            return real(h0, dl, *rest)

        monkeypatch.setattr(nd, "_scan_states", spy)
        # at most 10 steps: 26 chunks; a budget below one step: one step a chunk; a sequence within the
        # budget: one chunk; a tiny@224 stage-3 ss2d call runs the ``pieces`` of its steps at the real budget
        for k, S, C, T, budget, expect in ((1, 2, 3, 259, 60, [10] * 25 + [9]), (2, 1, 1, 5, 1, [1] * 5),
                                           (1, 1, 1, 7, 100, [7]), (4, 4, 320, 196, nd._SCAN_ELEMS, None)):
            monkeypatch.setattr(nd, "_SCAN_ELEMS", budget)
            lengths.clear()
            arrays, order = self._random_scan(rng, k, C, S, T, np.float32)
            selective_scan(*(Tensor(a) for a in arrays), order)
            expect = expect or [len(range(T)[p]) for p in nd.pieces(T, k * S * C, budget)]
            assert lengths == expect, (k, S, C, T, lengths)

    def test_kernel_never_writes_its_inputs(self, monkeypatch):
        rng = np.random.default_rng(12)
        C, S, T = 3, 2, CHUNK + 9
        monkeypatch.setattr(nd, "_SCAN_ELEMS", chunk_budget(CHUNK, 4, S, C))
        arrays, order = self._random_scan(rng, 4, C, S, T)
        before = [a.copy() for a in arrays] + [order.copy()]
        self._output_and_grads(arrays, order, rng.standard_normal((C, T)))
        for name, b, a in zip(_SCAN_INPUTS + ("order",), before, arrays + [order]):
            assert np.array_equal(a, b), name

    @staticmethod
    def _tiny_scan(seed, C=96, T=56 * 56):
        """A tiny@224 ss2d call (stage 1: C 96, 56 x 56; k 4, S 4, step rank C/8) in float32, and k C T * 4 bytes."""
        k, S, r = 4, 4, C // 8
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(shape).astype(np.float32) * scale for shape, scale in (
            ((C, T), 1), ((k, r + 2 * S, C), C ** -0.5), ((k, r + 2 * S), 1), ((k, C, r), 0.3), ((k, C), 1),
            ((k, C, S), 1), ((k, C), 1))]
        order = np.stack([rng.permutation(T) for _ in range(k)])
        return [Tensor(a) for a in arrays], order, k * C * T * 4

    def test_working_memory_stays_within_twice_delta_at_stage_one(self):
        # a full-size reordered copy of x, or a (k,C,T) delta, pre-activation or output buffer passes the bound
        ts, order, delta_bytes = self._tiny_scan(13)
        _, peak = traced_peak(lambda: selective_scan(*ts, order))
        assert peak <= 9_633_792 == 2 * delta_bytes, peak / delta_bytes

    def test_outputs_accumulate_in_pair_buffers_at_stage_one(self):
        # ceil(k/2) time-first (T,C) sums and one chunk's buffers (0.857 delta): a (T,k,C) output buffer
        # passes the bound, and so did fixed 128-step chunks (0.99 delta)
        ts, order, delta_bytes = self._tiny_scan(14)
        _, peak = traced_peak(lambda: selective_scan(*ts, order))
        assert peak <= 4_214_784 == 0.875 * delta_bytes, peak / delta_bytes

    def test_chunk_buffers_follow_the_element_budget_at_stage_three(self):
        # C 320, 14 x 14: chunks of 24-25 steps keep each (L,k,S,C) buffer within 2^17 elements (2.14 delta);
        # fixed 128-step chunks made two (128,4,4,320) buffers next to the pair buffers (7.79 delta)
        ts, order, delta_bytes = self._tiny_scan(15, C=320, T=14 * 14)
        _, peak = traced_peak(lambda: selective_scan(*ts, order))
        assert peak <= 2_207_744 == 2.2 * delta_bytes, peak / delta_bytes

    def test_nonpositive_delta_rejected(self):
        # softplus(-1000) underflows to 0 in float64: a zero step-input weight plus a bias of -1000
        with pytest.raises(NumericError, match="delta"):
            selective_scan(Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 3, 1))), Tensor([[-1000.0, 1.0, 1.0]]),
                           Tensor(np.ones((1, 1, 1))), Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1, 1))),
                           Tensor(np.ones((1, 1))), np.arange(2)[None])


class TestKernelProperties:
    """Random shapes against loop oracles, closed forms and finite differences (in float64)."""

    @settings(max_examples=60)  # pad -1 or a map smaller than the kernel make about 3 draws in 10 invalid
    @example(C=3, H=7, W=9, k=3, pad=1, seed=0)
    @example(C=2, H=4, W=4, k=3, pad=-1, seed=0)
    @example(C=1, H=1, W=1, k=3, pad=1, seed=0)  # a 1 x 1 map, as at stage 4 of tiny-reduced
    @example(C=3, H=1, W=1, k=3, pad=1, seed=0)
    @example(C=2, H=2, W=2, k=2, pad=0, seed=0)  # one output cell, which einsum would sum as a dot
    @example(C=2, H=3, W=3, k=3, pad=0, seed=0)
    @example(C=2, H=5, W=1, k=3, pad=1, seed=0)  # one column: the patch columns are a strided view
    @given(C=st.integers(1, 4), H=st.integers(1, 9), W=st.integers(1, 9), k=st.integers(1, 4),
           pad=st.integers(-1, 2), seed=st.integers(0, 2**16))
    def test_dwconv_matches_loop_oracle_and_finite_differences(self, C, H, W, k, pad, seed):
        Hp, Wp = H + 2 * pad, W + 2 * pad
        if pad < 0 or Hp < k or Wp < k:
            with pytest.raises(ShapeError):
                dwconv(Tensor(np.zeros((C, H, W))), Tensor(np.zeros((C, k, k))), pad=pad)
            return
        rng = np.random.default_rng(seed)
        x, w, b = rng.standard_normal((C, H, W)), rng.standard_normal((C, k, k)), rng.standard_normal(C)
        Ho, Wo = Hp - k + 1, Wp - k + 1
        for dtype in (np.float32, np.float64):
            xd, wd, bd = x.astype(dtype), w.astype(dtype), b.astype(dtype)
            got = dwconv(Tensor(xd), Tensor(wd), Tensor(bd), pad=pad).data
            # the same arithmetic as a loop over windows: taps summed in row-major order, then the bias
            xp = np.pad(xd, ((0, 0), (pad, pad), (pad, pad)))
            ref = None
            for i in range(k):
                for j in range(k):
                    term = xp[:, i:i + Ho, j:j + Wo] * wd[:, i, j, None, None]
                    ref = term if ref is None else ref + term
            assert got.dtype == dtype and np.array_equal(got, ref + bd[:, None, None])
        # got is the float64 output from here on
        assert np.allclose(got, dwconv_oracle(x, w, b, 1, pad), atol=1e-12)
        probe = rng.standard_normal(got.shape)
        err = grad_check(lambda a, ww, bb: _dot(dwconv(a, ww, bb, pad=pad), Tensor(probe)), [x, w, b])
        assert err <= 1e-4

    @settings(max_examples=40)
    @example(C=2, H=3, W=4, k=3, pads=((1, 0), (1, 1)), dtype=np.float32, seed=0)  # a band's top
    @example(C=2, H=4, W=5, k=3, pads=((0, 1), (2, 0)), dtype=np.float64, seed=0)
    @example(C=2, H=3, W=4, k=1, pads=((0, 0), (0, 1)), dtype=np.float64, seed=0)  # a side pad above k - 1
    @given(C=st.integers(1, 3), H=st.integers(1, 7), W=st.integers(1, 7), k=st.integers(1, 3),
           pads=st.tuples(*[st.tuples(st.integers(0, 2), st.integers(0, 2))] * 2),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_dwconv_side_pads_equal_padding_the_input_first(self, C, H, W, k, pads, dtype, seed):
        (t, bt), (le, r) = pads
        assume(H + t + bt >= k and W + le + r >= k)
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s).astype(dtype) for s in ((C, H, W), (C, k, k), (C,))]
        results = []
        for padded_first in (False, True):
            tape = Tape()
            x, w, b = (tape.leaf(a) for a in arrays)
            if padded_first:
                y = dwconv(nd.pad_spatial(x, (t, bt), (le, r)), w, b, pad=0)
            else:
                y = dwconv(x, w, b, pad=pads)
            probe = Tensor(np.linspace(-1, 1, y.size).astype(dtype))
            grads = backward(tape, _dot(y, probe))
            results.append([y.data] + [grads[leaf.node].data for leaf in (x, w, b)])
        for got, ref in zip(*results):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @example(C=2, H=4, W=5, shift_h=-2, shift_w=-2, band=(1, 3), seed=0)  # a band whose rows wrap
    @example(C=1, H=3, W=1, shift_h=1, shift_w=1, band=(0, 3), seed=0)  # the whole map
    @given(C=st.integers(1, 3), H=st.integers(1, 8), W=st.integers(1, 8), shift_h=st.integers(-9, 9),
           shift_w=st.integers(-9, 9), band=st.tuples(st.integers(0, 7), st.integers(1, 8)),
           seed=st.integers(0, 2**16))
    def test_roll2d_rows_are_those_of_the_rolled_map_and_their_gradient_is_the_finite_difference(
            self, C, H, W, shift_h, shift_w, band, seed):
        r0, r1 = band
        assume(r0 < r1 <= H)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((C, H, W))
        for dtype in (np.float32, np.float64):
            xd = x.astype(dtype)
            got = nd.roll2d(Tensor(xd), shift_h, shift_w, (r0, r1)).data
            assert got.dtype == dtype and np.array_equal(got, np.roll(xd, (shift_h, shift_w), axis=(1, 2))[:, r0:r1])
        assert np.array_equal(nd.roll2d(Tensor(x), shift_h, shift_w).data,
                              nd.roll2d(Tensor(x), shift_h, shift_w, (0, H)).data)
        probe = Tensor(rng.standard_normal((C, r1 - r0, W)))
        assert grad_check(lambda a: _dot(nd.roll2d(a, shift_h, shift_w, (r0, r1)), probe), [x]) <= 1e-9

    @pytest.mark.parametrize("rows", [(2, 2), (-1, 2), (0, 5)])
    def test_roll2d_rows_out_of_range_rejected(self, rows):
        with pytest.raises(ShapeError, match="roll2d: rows"):
            nd.roll2d(Tensor(np.zeros((2, 4, 3))), 1, 1, rows)

    def test_dwconv_int_pad_is_the_same_pad_on_every_side(self):
        rng = np.random.default_rng(3)
        x, w, b = (Tensor(rng.standard_normal(s)) for s in ((2, 5, 6), (2, 3, 3), (2,)))
        for p in (0, 1, 2):
            assert np.array_equal(dwconv(x, w, b, pad=p).data, dwconv(x, w, b, pad=((p, p), (p, p))).data)

    @pytest.mark.parametrize("pads", [((-1, 1), (1, 1)), ((1, 1), (1, -1)), (1, 1)],
                             ids=["negative-top", "negative-right", "not-pairs"])
    def test_dwconv_bad_side_pads_raise_shape_error(self, pads):
        with pytest.raises(ShapeError, match="pad"):
            dwconv(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 3, 3))), pad=pads)

    @settings(max_examples=40)
    @example(C=2, hq=2, wq=3, s=4, dtype=np.float32, seed=0)  # an aggregator reducer's stride
    @example(C=3, hq=2, wq=2, s=2, dtype=np.float64, seed=0)  # the bridge's 2 x 2 windows
    @example(C=2, hq=1, wq=1, s=2, dtype=np.float64, seed=0)  # one output cell, and the 1/4 mean of one window
    @example(C=2, hq=1, wq=1, s=4, dtype=np.float32, seed=0)
    @example(C=2, hq=3, wq=1, s=2, dtype=np.float64, seed=0)  # one column of windows: a strided view
    @given(C=st.integers(1, 3), hq=st.integers(1, 3), wq=st.integers(1, 3), s=st.integers(1, 4),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_window_reduce_matches_loop_oracle_and_finite_differences(self, C, hq, wq, s, dtype, seed):
        rng = np.random.default_rng(seed)
        x, w = rng.standard_normal((C, s * hq, s * wq)), rng.standard_normal((C, s, s))
        got = window_reduce(Tensor(x.astype(dtype)), Tensor(w.astype(dtype))).data
        assert got.dtype == dtype and got.shape == (C, hq, wq)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got, dwconv_oracle(x, w, None, stride=s, pad=0), rtol=tol, atol=tol)
        probe = rng.standard_normal(got.shape)
        assert grad_check(lambda a, ww: _dot(window_reduce(a, ww), Tensor(probe)), [x, w]) <= 1e-4
        # a constant 1/4 kernel is the mean of each 2 x 2 window, bit for bit: scaling by 1/4 is exact
        m = rng.standard_normal((C, 2 * hq, 2 * wq)).astype(dtype)
        mean = window_reduce(Tensor(m), Tensor(np.full((C, 2, 2), 0.25, dtype=dtype))).data
        ref = np.empty((C, hq, wq), dtype=dtype)
        for c in range(C):
            for i in range(hq):
                for j in range(wq):
                    ref[c, i, j] = (m[c, 2 * i, 2 * j] + m[c, 2 * i, 2 * j + 1] + m[c, 2 * i + 1, 2 * j]
                                    + m[c, 2 * i + 1, 2 * j + 1]) / dtype(4)
        assert np.array_equal(mean, ref)
        if s > 1:
            for bad in (x[:, 1:], x[:, :, 1:]):
                with pytest.raises(ShapeError, match="do not tile"):
                    window_reduce(Tensor(bad), Tensor(w))

    def test_dwconv_rejects_mixed_dtypes_and_bad_bias(self):
        x, w = np.zeros((2, 3, 3), np.float32), np.zeros((2, 3, 3))
        with pytest.raises(ShapeError, match="dtype"):
            dwconv(Tensor(x), Tensor(w), pad=1)
        with pytest.raises(ShapeError, match="dtype"):
            dwconv(Tensor(x), Tensor(w.astype(np.float32)), Tensor(np.zeros(2)), pad=1)
        with pytest.raises(ShapeError, match="bias"):
            dwconv(Tensor(x), Tensor(w.astype(np.float32)), Tensor(np.zeros(3, np.float32)), pad=1)

    @settings(max_examples=10, deadline=None)
    @example(k=4, C=2, S=2, T=2 * CHUNK + 3, dtype=np.float64, seed=0)
    @example(k=3, C=2, S=1, T=CHUNK + 1, dtype=np.float32, seed=1)
    @given(k=st.sampled_from([1, 2, 3, 4]), C=st.integers(1, 3), S=st.integers(1, 3),
           T=st.sampled_from([1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_scan_over_token_orders_matches_loop_oracle_and_finite_differences(self, k, C, S, T, dtype, seed):
        rng = np.random.default_rng(seed)
        order = np.stack([rng.permutation(T) for _ in range(k)])
        r = int(rng.integers(1, 4))
        inputs = [rng.standard_normal((C, T)), *random_scan_weights(rng, k, C, S, r)]
        ref = scan_reference(*inputs, order)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nd, "_SCAN_ELEMS", chunk_budget(CHUNK, k, S, C))
            got = selective_scan(*(Tensor(v.astype(dtype)) for v in inputs), order).data
            tol = 1e-12 if dtype == np.float64 else 1e-5 * max(1.0, np.abs(ref).max())
            assert got.dtype == dtype and np.allclose(got, ref, rtol=0, atol=tol)
            probe = Tensor(rng.standard_normal((C, T)))
            for i in range(len(inputs)):  # every input, each on its own sampled elements

                def f(t, i=i):
                    ts = [Tensor(v) for v in inputs]
                    ts[i] = t
                    return _dot(selective_scan(*ts, order), probe)

                assert grad_check(f, [inputs[i]], max_elements=8, rng=np.random.default_rng(seed)) <= 1e-4

    @settings(max_examples=30, deadline=None)
    @example(k=4, C=3, S=2, r=2, T=40, seed=0)
    @example(k=1, C=1, S=1, r=1, T=1, seed=0)
    @given(k=st.sampled_from([1, 2, 4]), C=st.integers(1, 4), S=st.integers(1, 3), r=st.integers(1, 3),
           T=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_scan_projections_match_numpy_and_a_directional_derivative_matches_central_differences(self, k, C, S,
                                                                                                   r, T, seed):
        # float64: the output against the numpy projections and the loop oracle, and the tape's derivative of
        # <y, probe> along one random direction through every input at once against a central difference
        rng = np.random.default_rng(seed)
        order = np.stack([rng.permutation(T) for _ in range(k)])
        inputs = [rng.standard_normal((C, T)), *random_scan_weights(rng, k, C, S, r)]
        got = selective_scan(*(Tensor(v) for v in inputs), order).data
        assert np.allclose(got, scan_reference(*inputs, order), rtol=0, atol=1e-12)
        probe, along = rng.standard_normal((C, T)), [rng.standard_normal(v.shape) for v in inputs]
        tape = Tape()
        leaves = [tape.leaf(v) for v in inputs]
        grads = backward(tape, _dot(selective_scan(*leaves, order), Tensor(probe)))
        analytic = sum(float((grads[t.node].data * u).sum()) for t, u in zip(leaves, along))

        def loss(s):
            return float((selective_scan(*(Tensor(v + s * u) for v, u in zip(inputs, along)), order).data
                          * probe).sum())

        h = 1e-5
        numeric = (loss(h) - loss(-h)) / (2 * h)
        assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(analytic), abs(numeric)), (analytic, numeric)

    @settings(max_examples=12)
    @example(k=4, C=2, S=2, T=2 * CHUNK + 3, dtype=np.float32, seed=0)
    @given(k=st.sampled_from([1, 2, 3, 4]), C=st.integers(1, 3), S=st.integers(1, 3),
           T=st.sampled_from([1, 5, CHUNK + 1, 2 * CHUNK + 3]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_k_direction_scan_is_the_balanced_tree_sum_of_one_direction_scans_bit_for_bit(self, k, C, S, T,
                                                                                         dtype, seed):
        arrays, order = TestScanSemantics._random_scan(np.random.default_rng(seed), k, C, S, T, dtype)
        x, per_direction = Tensor(arrays[0]), arrays[1:]
        with pytest.MonkeyPatch.context() as mp:  # every scan below runs the same chunks of at most CHUNK steps
            mp.setattr(nd, "_SCAN_ELEMS", chunk_budget(CHUNK, 1, S, C))
            parts = [selective_scan(x, *(Tensor(a[i:i + 1].copy()) for a in per_direction), order[i:i + 1]).data
                     for i in range(k)]
            mp.setattr(nd, "_SCAN_ELEMS", chunk_budget(CHUNK, k, S, C))
            got = selective_scan(*(Tensor(a) for a in arrays), order).data
        while len(parts) > 1:  # (y0+y1)+(y2+y3) for k = 4, (y0+y1)+y2 for k = 3
            parts = [parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i] for i in range(0, len(parts), 2)]
        assert got.dtype == dtype and got.tobytes() == parts[0].tobytes()

    @given(dtype=st.sampled_from([np.float32, np.float64]), C=st.integers(1, 9), n=st.integers(1, 40),
           loc=st.floats(-100, 100), spread=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
    def test_layernorm_channels_is_the_numpy_variance_formula_bit_for_bit(self, dtype, C, n, loc, spread, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((C, n)) * spread + loc).astype(dtype)
        g, b = rng.standard_normal(C).astype(dtype), rng.standard_normal(C).astype(dtype)
        probe = rng.standard_normal((C, n)).astype(dtype)
        inv = 1.0 / np.sqrt(x.var(axis=0) + dtype(1e-6))
        xhat = (x - x.mean(axis=0)) * inv
        dxhat = probe * g[:, None]
        ref = {"out": g[:, None] * xhat + b[:, None],
               "dx": inv / C * (C * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)),
               "dgamma": (probe * xhat).sum(axis=1)}
        tape = Tape()
        leaves = [tape.leaf(a) for a in (x, g, b)]
        out = layernorm_channels(*leaves)
        grads = backward(tape, _dot(out, Tensor(probe)))
        got = {"out": out.data, "dx": grads[leaves[0].node].data, "dgamma": grads[leaves[1].node].data}
        for name in ref:
            assert got[name].dtype == dtype and got[name].tobytes() == ref[name].tobytes(), name

    def test_scan_rejects_bad_orders_shapes_and_delta(self):
        k, C, S, T, r = 2, 2, 1, 3, 1
        P = r + 2 * S
        args = [np.ones((C, T)), np.ones((k, P, C)), np.zeros((k, P)), np.ones((k, C, r)), np.zeros((k, C)),
                np.zeros((k, C, S)), np.ones((k, C))]
        good = np.stack([np.arange(T), np.arange(T)[::-1]])

        def run(arrays, order):
            return selective_scan(*(Tensor(v) for v in arrays), order)

        assert run(args, good).shape == (C, T)
        for order in (np.array([[0, 1, 1], [2, 1, 0]]), np.array([[0, 1, 3], [2, 1, 0]]), good[:, :2],
                      good[:1], good[0], good.astype(np.float64)):
            with pytest.raises(ShapeError, match="order|inconsistent"):
                run(args, order)
        for i, shape in ((0, (C, T + 1)), (1, (k, P + 1, C)), (1, (k, P, C + 1)), (2, (k, P + 1)), (3, (k, C + 1, r)),
                         (3, (k, C, r + 1)), (4, (k, C + 1)), (5, (k, C, S, 1)), (5, (k + 1, C, S)), (6, (C,))):
            with pytest.raises(ShapeError):
                run(args[:i] + [np.ones(shape)] + args[i + 1:], good)
        with pytest.raises(NumericError, match="delta"):  # softplus(-1000) underflows to 0
            run(args[:4] + [np.full((k, C), -1000.0)] + args[5:], good)
        for bias in (np.full((k, P), 1e200), np.full((k, P), np.nan)):  # the step product overflows, or is NaN
            with pytest.raises(NumericError, match="non-finite step size"):
                run(args[:2] + [bias, np.full((k, C, r), 1e200)] + args[4:], good)
        with pytest.raises(NumericError, match="a_log"):
            run(args[:5] + [np.full((k, C, S), 1000.0)] + args[6:], good)

    # (a, b) shapes of every call form in the backbone: a 2-d product, a projected (C,H,W) map, k stacked
    # projections of k maps, one map shared by k stacked projections, and a same-batch attention product
    _MATMUL_FORMS = {
        "2d": lambda B, m, k, n, w: ((m, k), (k, n)),
        "map": lambda B, m, k, n, w: ((m, k), (k, n, w)),
        "stacked": lambda B, m, k, n, w: ((B, m, k), (B, k, n, w)),
        "shared": lambda B, m, k, n, w: ((B, m, k), (1, k, n, w)),
        "attention": lambda B, m, k, n, w: ((B, m, k), (B, k, n)),
    }

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    @pytest.mark.parametrize("form", _MATMUL_FORMS)
    @settings(max_examples=8)
    @given(dtype=st.sampled_from([np.float32, np.float64]), B=st.integers(1, 3), m=st.integers(1, 4),
           k=st.integers(1, 4), n=st.integers(1, 5), w=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_matmul_matches_einsum_and_finite_differences(self, form, with_bias, dtype, B, m, k, n, w, seed):
        a_shape, b_shape = self._MATMUL_FORMS[form](B, m, k, n, w)
        nb, rest = len(a_shape) - 2, b_shape[len(a_shape) - 1:]
        rng = np.random.default_rng(seed)
        a, b, bias = (rng.standard_normal(s) for s in (a_shape, b_shape, a_shape[:-1]))
        args = [a, b, bias] if with_bias else [a, b]

        def run(arrays):
            return matmul(*(Tensor(v.astype(dtype)) for v in arrays)).data

        got = run(args)
        # float64 reference; a size-1 stack axis of b is shared by every product of the stack
        b_flat = np.broadcast_to(b, a_shape[:nb] + b_shape[nb:]).reshape(a_shape[:nb] + (k, -1))
        ref = np.einsum("...mk,...kt->...mt", a, b_flat).reshape(a_shape[:-1] + rest)
        if with_bias:
            ref += bias.reshape(bias.shape + (1,) * len(rest))
        tol = 1e-12 if dtype == np.float64 else 1e-5 * max(1.0, np.abs(ref).max())
        assert got.dtype == dtype and got.shape == ref.shape
        assert np.allclose(got, ref, rtol=0, atol=tol)
        # bit for bit the call on b with its token axes flattened, and with a shared b repeated over the stack
        flat = run([a, b.reshape(b_shape[:nb + 1] + (-1,))] + args[2:])
        assert np.array_equal(got, flat.reshape(got.shape))
        if form == "shared":
            assert np.array_equal(got, run([a, np.repeat(b, B, axis=0)] + args[2:]))
        probe = Tensor(rng.standard_normal(ref.shape))
        assert grad_check(lambda *ts: _dot(matmul(*ts), probe), args) <= 1e-4
        bad = [(np.zeros(a_shape[:-1] + (k + 1,)), None), (a, np.zeros(a_shape[:-2] + (m + 1,)))]
        if nb:
            bad.append((a, np.zeros((B + 1, m))))
        if nb and B > 1 and form != "shared":  # a size-1 stack of b is shared by any stack of a
            bad.append((np.zeros((B + 1, m, k)), None))
        for ba, bb in bad:
            with pytest.raises(ShapeError, match="^matmul"):
                matmul(Tensor(ba), Tensor(b), None if bb is None else Tensor(bb))

    @example(dtype=np.float32, C=2, n=5, extra=[2, 3], seed=1)  # two channels 0.012 apart at a token
    @given(dtype=st.sampled_from([np.float32, np.float64]), C=st.integers(1, 4), n=st.integers(1, 6),
           extra=st.lists(st.integers(1, 3), max_size=2), seed=st.integers(0, 2**16))
    def test_layernorm_channels_on_maps_matches_flattened_call_and_finite_differences(self, dtype, C, n,
                                                                                      extra, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((C, n, *extra)) * 3 + 1).astype(dtype)
        g, b = (rng.standard_normal(C) + 1.5).astype(dtype), rng.standard_normal(C).astype(dtype)
        xs = x.reshape(C, -1)
        flat = layernorm_channels(Tensor(xs), Tensor(g), Tensor(b)).data
        ref = (xs - xs.mean(axis=0)) / np.sqrt(xs.var(axis=0) + 1e-6) * g[:, None] + b[:, None]
        assert np.allclose(flat, ref, atol=1e-5 if dtype == np.float32 else 1e-12)
        got = layernorm_channels(Tensor(x), Tensor(g), Tensor(b)).data
        assert got.dtype == dtype and got.shape == x.shape
        assert np.array_equal(got, flat.reshape(x.shape))
        probe = Tensor(rng.standard_normal(x.shape))
        # h = 1e-5: where two channels are 0.012 apart (the example above) the normalization is so
        # steep that the O(h^2) error of central differences at h = 1e-4 is 1.2e-4
        assert grad_check(lambda *ts: _dot(layernorm_channels(*ts), probe), [x, g, b], h=1e-5) <= 1e-4

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           values=st.lists(st.floats(-80, 200), min_size=1, max_size=40), seed=st.integers(0, 2**16))
    def test_scan_step_softplus_matches_logaddexp_and_sigmoid(self, dtype, values, seed):
        # one step of one direction with one state: zero token weights, so the step input is its bias ``pre``
        # (rank C), taken to the step pre-activations by w_dt = I, and B and C are their biases b and c.
        # y = (delta b c + d) x with delta = softplus(pre), so the output and every gradient have a closed form
        pre = np.array(values + [-80.0, -60.0, -31.0, 31.0, 60.0, 200.0], dtype=dtype)
        C, rng, eps = len(pre), np.random.default_rng(seed), np.finfo(dtype).eps
        x, d, probe = (rng.standard_normal(C).astype(dtype) for _ in range(3))
        b, c = rng.standard_normal(2).astype(dtype)

        def inputs(x, b, c, d):
            return [x[:, None].astype(dtype), np.zeros((1, C + 2, C), dtype),
                    np.concatenate([pre, [b, c]])[None].astype(dtype), np.eye(C, dtype=dtype)[None],
                    np.zeros((1, C), dtype), rng.standard_normal((1, C, 1)).astype(dtype), d[None].astype(dtype)]

        tape = Tape()
        leaves = [tape.leaf(a) for a in inputs(x, b, c, d)]
        y = selective_scan(*leaves, np.zeros((1, 1), dtype=np.int64))
        grads = backward(tape, _dot(y, Tensor(probe[:, None])))
        got = {"y": y.data} | {n: grads[t.node].data for n, t in zip(_SCAN_INPUTS, leaves)}
        g_in = got.pop("b_proj").reshape(-1)  # the step input's, B's and C's gradients
        got |= {"dt": g_in[:C], "b": g_in[C], "c": g_in[C + 1]}
        assert np.array_equal(got.pop("x_proj")[0], np.outer(g_in, x))  # x_proj's: theirs times x, one product each
        pre, x, d, probe, b, c = (np.float64(v) for v in (pre, x, d, probe, b, c))  # float64 oracle
        delta, sig = np.logaddexp(0, pre), expit(pre)
        gpre = probe * x * b * c * sig
        terms = {"y": (delta * b * c * x, d * x), "x": (probe * delta * b * c, probe * d), "dt": (gpre,),
                 "w_dt": (np.outer(gpre, pre),), "b_dt": (gpre,), "a_log": (0 * pre,),  # h_0 = 0: A is not reached
                 "b": (probe * c * delta * x,), "c": (probe * b * delta * x,), "d": (probe * x,)}
        for name, parts in terms.items():
            ref, mag = sum(parts), sum(np.abs(p) for p in parts)
            if name in ("b", "c"):  # one state shared by the channels
                ref, mag = ref.sum(), mag.sum()
            v = got[name].reshape(np.shape(ref))
            tol = 16 * eps * mag + 16 * np.finfo(dtype).smallest_normal
            assert got[name].dtype == dtype and np.all(np.abs(v - ref) <= tol), name
        # with unit x, b and c and d = 0 the output is the step size itself, and dL/dpre is sigmoid(pre)
        tape = Tape()
        leaves = [tape.leaf(a) for a in inputs(np.ones(C), 1.0, 1.0, np.zeros(C))]
        y = selective_scan(*leaves, np.zeros((1, 1), dtype=np.int64))
        g = backward(tape, sum_all(y))[leaves[2].node].data.reshape(-1)[:C]
        assert np.allclose(y.data.reshape(-1), delta, rtol=4 * eps, atol=4 * eps)
        assert np.allclose(g, sig, rtol=4 * eps, atol=4 * eps)


class TestPieces:
    @example(n=0, each=3, budget=10)  # nothing to cut: no piece
    @example(n=7, each=5, budget=4)  # a unit above the budget: one unit a piece
    @example(n=259, each=6, budget=60)  # 26 pieces, the first 25 of 10 units
    @given(n=st.integers(0, 300), each=st.integers(1, 50), budget=st.integers(0, 3000))
    def test_fewest_near_equal_pieces_within_the_budget(self, n, each, budget):
        got = nd.pieces(n, each, budget)
        lengths = [len(range(n)[p]) for p in got]
        # the pieces cover [0, n) in order, one unit at least each
        assert [i for p in got for i in range(n)[p]] == list(range(n))
        assert all(length >= 1 for length in lengths)
        # within the budget whenever one unit fits it
        fit = budget // each
        if fit:
            assert all(length <= fit for length in lengths), lengths
        # the fewest: one piece less could not hold the n units
        assert len(got) == 0 or (len(got) - 1) * max(1, fit) < n
        # near-equal, the longer first
        assert lengths == sorted(lengths, reverse=True) and (not lengths or lengths[0] - lengths[-1] <= 1)


def test_every_public_nd_function_is_used_outside_nd():
    # no dead helpers: each public function of nd is named (called or looked up) by another module of
    # the package; an import alone does not count
    trees = {p.stem: ast.parse(p.read_text()) for p in pathlib.Path(nd.__file__).parent.glob("*.py")}
    public = {f.name for f in trees["nd"].body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    named = {n.id if isinstance(n, ast.Name) else n.attr for stem, tree in trees.items() if stem != "nd"
             for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    assert public and sorted(public - named) == []


def _stated_value(expr):
    """The integer a doc writes as a product of factors, each ``a``, ``a^b``, ``a**b`` or ``a << b``."""
    value = 1
    for factor in re.split(r"[·×]|(?<!\*)\*(?!\*)", expr):
        base, op, exp = re.fullmatch(r"\s*(\d+)\s*(?:(\^|\*\*|<<)\s*(\d+))?\s*", factor).groups()
        value *= int(base) if op is None else int(base) << int(exp) if op == "<<" else int(base) ** int(exp)
    return value


def test_docs_state_the_budget_constants_the_code_has():
    # README and nd/blocks (docstrings, comments and the assignments themselves) may write
    # `NAME = value` for a budget constant; every such value must be the code's, and README states each
    constants = {"_SCAN_ELEMS": nd._SCAN_ELEMS, "_BAND_ELEMS": blocks._BAND_ELEMS, "_BLOCK": nd._BLOCK,
                 "_CHECK_BLOCK": nd._CHECK_BLOCK}
    factor = r"\d+(?:\s*(?:\^|\*\*|<<)\s*\d+)?"
    pattern = re.compile(rf"(?<!\w)({'|'.join(constants)})`*\s*=\s*({factor}(?:\s*[·×*]\s*{factor})*)")
    readme = pathlib.Path(nd.__file__).parents[2] / "README.md"
    stated = [(path.name, name, expr) for path in (readme, pathlib.Path(nd.__file__), pathlib.Path(blocks.__file__))
              for name, expr in pattern.findall(path.read_text())]
    assert [s for s in stated if _stated_value(s[2]) != constants[s[1]]] == []
    assert {name for where, name, _ in stated if where == "README.md"} == set(constants)


class TestTensorFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip(self, tmp_path, dtype):
        rng = np.random.default_rng(11)
        arr = rng.standard_normal((3, 4, 5)).astype(dtype)
        path = tmp_path / "t.spxt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_rejects_bad_magic(self):
        buf = b"XXXX" + tensor_bytes(np.zeros(2, np.float32))[4:]
        with pytest.raises(TensorFormatError, match="magic"):
            tensor_from_bytes(buf)

    def test_rejects_truncated_payload(self):
        buf = tensor_bytes(np.zeros(8, np.float32))
        with pytest.raises(TensorFormatError, match="payload"):
            tensor_from_bytes(buf[:-4])

    def test_rejects_unknown_dtype_code(self):
        buf = bytearray(tensor_bytes(np.zeros(2, np.float32)))
        buf[4] = 9
        with pytest.raises(TensorFormatError, match="dtype"):
            tensor_from_bytes(bytes(buf))

    def test_rejects_shape_whose_element_count_wraps_to_zero(self):
        # 65536^4 = 2^64 elements: a 64-bit product wraps to 0 and an empty
        # payload would pass a length check done with it
        buf = b"SPXT" + bytes([0, 4]) + (65536).to_bytes(4, "little") * 4
        assert len(buf) == 22
        with pytest.raises(TensorFormatError):
            tensor_from_bytes(buf)

    @given(code=st.integers(0, 2),
           shape=st.lists(st.sampled_from([0, 1, 2, 3, 65536, 2**32 - 1]), min_size=0, max_size=6),
           payload=st.sampled_from([0, -1, 1]), seed=st.integers(0, 2**16))
    @settings(max_examples=200)
    def test_reader_returns_declared_array_or_format_error(self, code, shape, payload, seed):
        # any header with an exact, one byte short or one byte long payload
        dtype = np.dtype("<f4" if code == 0 else "<f8")
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=object))
        try:  # a declared array is valid when numpy can hold it
            valid = code in (0, 1) and nbytes <= 2**16 and np.empty(shape, dtype) is not None
        except ValueError:
            valid = False
        n = max((nbytes if nbytes <= 2**16 else 0) + payload, 0)
        valid = valid and n == nbytes
        buf = (b"SPXT" + bytes([code, len(shape)]) + b"".join(d.to_bytes(4, "little") for d in shape)
               + np.random.default_rng(seed).bytes(n))
        try:
            arr = tensor_from_bytes(buf)
        except TensorFormatError:
            assert not valid
            return
        assert valid
        assert arr.shape == tuple(shape) and arr.dtype == dtype
        assert tensor_bytes(arr) == buf
