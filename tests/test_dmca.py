"""Multi-layer channel aggregation: shapes, attention, ablations, counts."""

import math

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings, strategies as st
from oracles import dwconv_oracle

from sparx import nd
from sparx.dmca import (DMCA_MODES, cgca_attention, dmca_forward, dmca_macs, dmca_param_count,
                        group_channels, init_dmca)
from sparx.nd import ShapeError, Tensor
from sparx.params import Initializer, bind


def make_params(channels, l_count, stride, mode="full", seed=0, dtype=np.float64, groups=4):
    return init_dmca(Initializer(seed, dtype=dtype), channels, l_count, stride, groups=groups,
                     mode=mode)


def run(p, x, ys):
    return dmca_forward(Tensor(x), [Tensor(y) for y in ys], bind(p)).data


def flat(a):
    """(C,H,W) map -> (C,H*W) token matrix, for closed-form comparisons."""
    return a.reshape(a.shape[0], -1)


class TestShapes:
    def test_stage3_like_shape_trace(self):
        # C=64, G=4, L=3, N=196 (14x14), reduction 4
        C, L, H = 64, 3, 14
        p = make_params(C, L, stride=2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((C, H, H))
        ys = rng.standard_normal((L, C, H, H))
        out = run(p, x, list(ys))
        assert out.shape == (2 * C, H, H)
        q = group_channels(Tensor(rng.standard_normal((C, H // 2, H // 2))), 4)
        k = group_channels(Tensor(rng.standard_normal((C, H // 2, H // 2))), 4)
        v = group_channels(Tensor(rng.standard_normal((C, H, H))), 4)
        assert q.shape == (4, 16, 49)
        assert v.shape == (4, 16, 196)
        attn = cgca_attention(q, k, scale_n=49)
        assert attn.shape == (4, 16, 16)

    @pytest.mark.parametrize("n_side,stride", [(7, 1), (14, 2), (28, 4), (56, 8)])
    def test_attention_shape_independent_of_resolution(self, n_side, stride):
        C = 8
        n = n_side * n_side
        nr = n // (stride * stride)
        rng = np.random.default_rng(1)
        q = group_channels(Tensor(rng.standard_normal((C, nr))), 4)
        k = group_channels(Tensor(rng.standard_normal((C, nr))), 4)
        assert cgca_attention(q, k, scale_n=nr).shape == (4, 2, 2)

    def test_source_count_mismatch_rejected(self):
        p = make_params(8, 2, stride=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4, 4))
        with pytest.raises(ShapeError, match="source features"):
            run(p, x, [x])

    def test_token_count_must_divide_reduction(self):
        p = make_params(8, 1, stride=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 2, 3))
        with pytest.raises(ShapeError, match=r"window_reduce: 2x2 windows do not tile \(8, 2, 3\)"):
            run(p, x, [x])

    def test_channels_must_divide_groups(self):
        with pytest.raises(ShapeError, match="groups"):
            make_params(6, 1, stride=1)


class TestAttention:
    def test_single_channel_group_attention_is_identity(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.standard_normal((1, 1, 5)))
        k = Tensor(rng.standard_normal((1, 1, 5)))
        v = Tensor(rng.standard_normal((1, 1, 9)))
        attn = cgca_attention(q, k, scale_n=5)
        assert attn.shape == (1, 1, 1) and abs(attn.data[0, 0, 0] - 1.0) < 1e-12
        z = nd.matmul(attn, v)
        assert z.shape == v.shape and np.allclose(z.data, v.data, atol=1e-12)

    def test_equal_norm_orthogonal_rows_peak_on_diagonal(self):
        q = np.zeros((1, 2, 4))
        q[0, 0] = [1.0, 1.0, 0.0, 0.0]
        q[0, 1] = [0.0, 0.0, 1.0, 1.0]
        attn = cgca_attention(Tensor(q), Tensor(q.copy()), scale_n=4).data
        assert np.array_equal(np.argmax(attn[0], axis=1), [0, 1])

    def test_rowsum_100_random_trials(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = Tensor(rng.standard_normal((2, 4, 8)))
            k = Tensor(rng.standard_normal((2, 4, 8)))
            s = cgca_attention(q, k, scale_n=8).data.sum(axis=-1)
            assert np.abs(s - 1).max() <= 1e-6

    def test_group_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.standard_normal((2, 3, 4)))
        k = Tensor(rng.standard_normal((2, 4, 4)))
        with pytest.raises(ShapeError):
            cgca_attention(q, k, scale_n=4)


class TestFullMode:
    def test_zero_sources_make_output_linear_in_x(self):
        p = make_params(8, 2, stride=1)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 4, 4))
        zeros = [np.zeros((8, 4, 4))] * 2
        out1 = run(p, x, zeros)
        out2 = run(p, 2 * x, zeros)
        assert np.allclose(out2, 2 * out1, atol=1e-9)
        # and equals the output projection applied to cat(x, 0, 0)
        stacked = np.concatenate([flat(x), np.zeros((16, 16))], axis=0)
        assert np.allclose(flat(out1), p.out_w @ stacked + p.out_b[:, None], atol=1e-9)

    def test_channel_permutation_consistency(self):
        # permuting source channels and the mixing projection's columns
        # together leaves the output unchanged (parameter relabeling)
        C, L = 8, 2
        p = make_params(C, L, stride=1)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((C, 4, 4))
        ys = [rng.standard_normal((C, 4, 4)) for _ in range(L)]
        base = run(p, x, ys)
        perm = rng.permutation(C)
        p2 = make_params(C, L, stride=1)
        cols = np.concatenate([block * C + perm for block in range(L)])
        p2.mix_w = p.mix_w[:, cols]
        p2.mix_b = p.mix_b.copy()
        for name in ("q_w", "q_b", "k_w", "k_b", "v_w", "v_b", "out_w", "out_b"):
            setattr(p2, name, getattr(p, name).copy())
        permuted = run(p2, x, [y[perm] for y in ys])
        assert np.allclose(permuted, base, atol=1e-12)


class TestAblations:
    def test_concat_mode_is_single_projection(self):
        p = make_params(8, 2, stride=1, mode="concat")
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 4, 4))
        ys = [rng.standard_normal((8, 4, 4)) for _ in range(2)]
        out = run(p, x, ys)
        stacked = np.concatenate([flat(x)] + [flat(y) for y in ys], axis=0)
        assert np.allclose(flat(out), p.out_w @ stacked + p.out_b[:, None], atol=1e-12)

    def test_no_sr_equals_full_when_reduction_is_identity(self):
        a = make_params(8, 2, stride=1, mode="full", seed=5)
        b = make_params(8, 2, stride=1, mode="no_sr", seed=5)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((8, 4, 4))
        ys = [rng.standard_normal((8, 4, 4)) for _ in range(2)]
        oa = run(a, x, ys)
        ob = run(b, x, ys)
        assert np.array_equal(oa, ob)

    def test_no_cgca_uses_value_branch_only(self):
        p = make_params(8, 2, stride=2, mode="no_cgca")
        assert p.q_w is None and p.k_w is None and p.q_red is None
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 4, 4))
        ys = [rng.standard_normal((8, 4, 4)) for _ in range(2)]
        out = run(p, x, ys)
        yv = p.mix_w @ np.concatenate([flat(y) for y in ys], axis=0) + p.mix_b[:, None]
        expect = p.out_w @ np.concatenate([flat(x), yv], axis=0) + p.out_b[:, None]
        assert np.allclose(flat(out), expect, atol=1e-12)

    def test_no_skip_depends_on_x_only_through_query(self):
        p = make_params(8, 2, stride=1, mode="no_skip")
        p.q_w = np.zeros_like(p.q_w)
        p.q_b = np.zeros_like(p.q_b)
        rng = np.random.default_rng(12)
        ys = [rng.standard_normal((8, 4, 4)) for _ in range(2)]
        out1 = run(p, rng.standard_normal((8, 4, 4)), ys)
        out2 = run(p, rng.standard_normal((8, 4, 4)), ys)
        assert np.array_equal(out1, out2)

    def test_no_skip_output_width(self):
        p = make_params(8, 1, stride=1, mode="no_skip")
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 4, 4))
        out = run(p, x, [rng.standard_normal((8, 4, 4))])
        assert out.shape == (16, 4, 4)


class TestParamCount:
    def test_mixing_projection_example(self):
        # C=64, L=3, bias on: 192*128 + 128 = 24704 for the mixing projection
        with_l3 = dmca_param_count(64, 3, reduce_stride=2)
        without_mix = with_l3 - (3 * 64 * 128 + 128)
        assert with_l3 - without_mix == 24704

    def test_source_count_difference(self):
        d = dmca_param_count(64, 3, reduce_stride=2) - dmca_param_count(64, 1, reduce_stride=2)
        assert d == 2 * 64 * 128  # == 16384

    def test_minimal_config_by_formula(self):
        # C=4, L=1, identity reduction, biases included:
        # mix 1*4*8+8=40, q/k/v 3*(16+4)=60, out 12*8+8=104
        assert dmca_param_count(4, 1, reduce_stride=1) == 204


def dmca_oracle(x, ys, p):
    """Float64 loop reference of ``dmca_forward`` on a (C,H,W) map and L source maps.

    Projections are ``w @ a + b`` on (C, N) token matrices; the window
    reducers run through the nested-loop ``dwconv_oracle``; channel attention
    is a softmax over explicit per-group channel dot products.
    """
    C, H, W = x.shape
    N = H * W

    def lin(w, b, a):
        return w @ a + b[:, None]

    def out(a):
        return lin(p.out_w, p.out_b, a).reshape(2 * C, H, W)

    xf = x.reshape(C, N)
    if p.mode == "concat":
        return out(np.concatenate([x] + ys).reshape(-1, N))
    mixed = lin(p.mix_w, p.mix_b, np.concatenate(ys).reshape(-1, N))
    if p.mode == "no_cgca":
        return out(np.concatenate([xf, mixed]))
    yk, yv = mixed[:C], mixed[C:]
    s = p.reduce_stride
    if s == 1:
        q_in, k_in = xf, yk
    else:
        q_in = dwconv_oracle(x, p.q_red, stride=s, pad=0).reshape(C, -1)
        k_in = dwconv_oracle(yk.reshape(C, H, W), p.k_red, stride=s, pad=0).reshape(C, -1)
    q, k, v = lin(p.q_w, p.q_b, q_in), lin(p.k_w, p.k_b, k_in), lin(p.v_w, p.v_b, yv)
    cg = C // p.groups
    z = np.zeros((C, N))
    for g in range(p.groups):
        chans = range(g * cg, (g + 1) * cg)
        for i in chans:
            logits = np.array([q[i] @ k[j] for j in chans]) / math.sqrt(q.shape[1])
            wts = np.exp(logits - logits.max())
            wts /= wts.sum()
            for wt, j in zip(wts, chans):
                z[i] += wt * v[j]
    if p.mode == "no_skip":
        return out(z)
    return out(np.concatenate([xf, yv, z]))


class TestValueOracle:
    @settings(max_examples=80)
    @given(mode=st.sampled_from(DMCA_MODES), stride=st.sampled_from([1, 2, 4]),
           l_count=st.integers(1, 4), groups=st.sampled_from([1, 2, 4]),
           per_group=st.integers(1, 3), hq=st.integers(1, 3), wq=st.integers(1, 3),
           aligned=st.booleans(), off=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           seed=st.integers(0, 2 ** 16))
    def test_forward_matches_loop_reference(self, mode, stride, l_count, groups, per_group,
                                            hq, wq, aligned, off, seed):
        # maps are stride multiples, or fall short of one by up to stride - 1
        h, w = (stride * hq, stride * wq) if aligned else (stride * hq - off[0] % stride,
                                                          stride * wq - off[1] % stride)
        C = groups * per_group
        p = make_params(C, l_count, stride, mode=mode, seed=seed, groups=groups)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((C, h, w))
        ys = list(rng.standard_normal((l_count, C, h, w)))
        if p.q_red is not None and (h % stride or w % stride):
            with pytest.raises(ShapeError):
                run(p, x, ys)
            return
        np.testing.assert_allclose(run(p, x, ys), dmca_oracle(x, ys, p), rtol=1e-10, atol=1e-12)


class TestMacCount:
    @pytest.mark.parametrize("mode", DMCA_MODES)
    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("groups", [1, 4])
    def test_closed_form_matches_counted_calls(self, mode, stride, groups, monkeypatch):
        # nd.macs charges each op that ran from its operand shapes
        macs = []
        monkeypatch.setattr(nd, "observer", lambda op, out, inputs, node: macs.append(nd.macs(op, out, inputs)))
        C, L, H, W = 8, 3, 8, 4
        p = make_params(C, L, stride, mode=mode, groups=groups)
        rng = np.random.default_rng(7)
        run(p, rng.standard_normal((C, H, W)), list(rng.standard_normal((L, C, H, W))))
        assert macs and sum(macs) == dmca_macs(C, L, H * W, stride, groups, mode)


class TestWorkingMemory:
    def test_stage_two_aggregator_keeps_no_dead_intermediate(self):
        # a tiny@224 stage-2 ganglion layer (C 192, 28 x 28, two sources, reducer stride 4): the final
        # (3C) concat and (2C) output next to yv and z make 7 maps; the source concat, the mixed
        # projection, its split halves and q/k/v kept to the end took the peak to 13.5 maps
        p = bind(make_params(192, 2, 4, dtype=np.float32))
        rng = np.random.default_rng(41)
        x, *ys = [Tensor(rng.standard_normal((192, 28, 28)).astype(np.float32)) for _ in range(3)]
        _, peak = traced_peak(lambda: dmca_forward(x, ys, p))
        assert peak <= 8 * x.data.nbytes, peak / x.data.nbytes
