"""Model assembly, forward, scopes, accounting, memory model, toy training."""

import collections
import math
import re
import weakref

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import assume, example, given, strategies as st
from oracles import layernorm_reference

from sparx import backbone, blocks, nd
from sparx.blocks import MIXERS
from sparx.backbone import (build, count_flops, forward, forward_bound, make_toy_dataset,
                            memory_report, train_toy)
from sparx.config import ConfigError, ModelConfig, get_variant
from sparx.nd import NumericError, Tape, Tensor, add, backward, cross_entropy_logits, scale, sum_all
from sparx.params import Initializer, bind, count_arrays, iter_arrays
from sparx.topology import CROSS_STAGE_SLOT, Mode, cache_schedule, plan_model
from sparx.verify import grad_check


def _rescan_trunc_normal(init, shape):
    """The loop ``Initializer.trunc_normal`` replaced, which rescans the whole array every round: the reference."""
    rng, std = init._rng(), 0.02
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2.0 * std
    return out.astype(init.dtype)


class TestBuild:
    @example(shape=(96, 3, 3), seed=0, dtype=np.float32)  # resampling runs several rounds
    @given(shape=st.lists(st.integers(0, 7), max_size=3).map(tuple), seed=st.integers(0, 2**63),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_trunc_normal_draws_what_the_rescanning_loop_draws(self, shape, seed, dtype):
        # empty, one-element and 0-d shapes included; the second draw checks the stream stays in step
        ours, ref = Initializer(seed, dtype), Initializer(seed, dtype)
        for _ in range(2):
            got, want = ours.trunc_normal(shape), _rescan_trunc_normal(ref, shape)
            assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_build_deterministic_bitwise(self):
        cfg = get_variant("tiny-reduced")
        a, b = build(cfg, 0), build(cfg, 0)
        for (na, xa), (nb, xb) in zip(iter_arrays(a), iter_arrays(b)):
            assert na == nb and np.array_equal(xa, xb)

    def test_different_seeds_differ(self):
        cfg = get_variant("tiny-reduced")
        a, b = build(cfg, 0), build(cfg, 1)
        assert any(not np.array_equal(xa, xb)
                   for (_, xa), (_, xb) in zip(iter_arrays(a), iter_arrays(b)))

    def test_tiny_stage3_layer6_mixing_width(self):
        model = build(get_variant("tiny"), 0)
        layer6 = model.stages[2].layers[5]
        assert layer6.dmca is not None
        assert layer6.dmca.mix_w.shape == (2 * 320, 3 * 320)

    def test_window_attention_head_count(self):
        cfg = get_variant("tiny", mixer="window_attn")
        model = build(cfg, 0)
        attn = model.stages[2].layers[0].block.mixer
        assert attn.heads == 10  # 320 channels / head_dim 32

    def test_ganglion_layers_carry_aggregator_and_fuse(self):
        model = build(get_variant("tiny-reduced"), 0)
        for plan, stage in zip(model.plans, model.stages):
            for lp, layer in zip(plan.layers, stage.layers):
                if lp.role.value == "ganglion":
                    assert layer.dmca is not None and layer.fuse_w.shape[1] == 2 * layer.fuse_w.shape[0]
                else:
                    assert layer.dmca is None and layer.fuse_w is None

    def test_variant_table_values(self):
        tiny, small, base = get_variant("tiny"), get_variant("small"), get_variant("base")
        assert tiny.channels == (96, 192, 320, 512) and tiny.blocks == (2, 2, 7, 2)
        assert (tiny.stride, tiny.window) == (2, 3)
        assert small.channels == (96, 192, 328, 544) and small.blocks == (2, 2, 17, 2)
        assert (small.stride, small.window) == (3, 3)
        assert base.channels == (120, 240, 396, 636) and base.blocks == (2, 2, 21, 3)
        assert (base.stride, base.window) == (3, 3)
        assert tiny.stage4_policy == "all_ganglion" and small.stage4_policy == "all_ganglion"
        assert base.stage4_policy == "last_only"

    def test_get_variant_returns_a_fresh_copy(self):
        expected = get_variant("tiny").to_json()
        for cfg in (get_variant("tiny"), get_variant("tiny", mixer="window_attn")):
            cfg.stride, cfg.channels, cfg.mixer = 9, (1, 2, 3, 4), "ssm"
        assert get_variant("tiny").to_json() == expected

    def test_config_json_roundtrip_and_unknown_fields(self):
        cfg = get_variant("tiny-reduced")
        again = ModelConfig.from_json(cfg.to_json())
        assert again == cfg
        with pytest.raises(ConfigError, match="unknown"):
            ModelConfig.from_json('{"name":"x","channels":[4,8,12,16],"blocks":[1,1,1,1],'
                                  '"stride":2,"window":2,"bogus":1}')


class TestForward:
    def test_logits_shape_and_determinism(self):
        model = build(get_variant("tiny-reduced"), 0)
        img = np.random.default_rng(0).standard_normal((3, 32, 32)).astype(np.float32)
        l1, _ = forward(model, img)
        l2, _ = forward(model, img)
        assert l1.shape == (2,)
        assert np.array_equal(l1, l2)

    def test_indivisible_input_rejected_before_compute(self):
        model = build(get_variant("tiny-reduced"), 0)
        with pytest.raises(ConfigError, match="divisible"):
            forward(model, np.zeros((3, 30, 30), np.float32))

    def test_capture_covers_every_layer(self):
        cfg = get_variant("tiny-reduced")
        model = build(cfg, 0)
        img = np.random.default_rng(1).standard_normal((3, 32, 32)).astype(np.float32)
        _, caps = forward(model, img, capture=True)
        assert len(caps) == sum(cfg.blocks)
        roles = [(c.stage, c.layer, c.role) for c in caps]
        assert roles[0] == (1, 1, "normal")
        assert roles[-1] == (4, 1, "ganglion")

    def test_tiny_224_stage_token_counts(self):
        model = build(get_variant("tiny"), 0)
        img = np.random.default_rng(2).standard_normal((3, 224, 224)).astype(np.float32)
        logits, caps = forward(model, img, capture=True)
        assert logits.shape == (1000,)
        sides = {}
        for c in caps:
            sides.setdefault(c.stage, c.data.shape[1] * c.data.shape[2])
        assert sides == {1: 3136, 2: 784, 3: 196, 4: 49}

    @pytest.mark.parametrize("mixer", MIXERS)
    def test_every_mixer_runs_end_to_end(self, mixer):
        cfg = get_variant("tiny-reduced", mixer=mixer)
        model = build(cfg, 0)
        img = np.random.default_rng(3).standard_normal((3, 32, 32)).astype(np.float32)
        logits, _ = forward(model, img)
        assert logits.shape == (2,)
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("mixer,reshapes,ops", [("ss2d", 30, 158), ("window_attn", 60, 280)])
    def test_taped_forward_reshapes_only_where_token_axes_change(self, mixer, reshapes, ops):
        # maps stay (C,H,W) through every channel op; reshapes remain for scan
        # sequences, window partitions, channel groups and the head's pooling,
        # a scan mixer's token orders live inside the one selective scan,
        # each bridge's 2 x 2 mean is one stride-2 dwconv, and each ConvFFN band
        # is one checkpoint, its ln2 included
        cfg = get_variant("tiny-reduced", mixer=mixer)
        tape = Tape()
        img = np.random.default_rng(0).standard_normal((3, 32, 32)).astype(np.float32)
        forward_bound(bind(build(cfg, 0), tape), Tensor(img))
        assert sum(node.op == "reshape" for node in tape.nodes) == reshapes
        assert sum(not node.is_leaf for node in tape.nodes) == ops


def recomputed_macs(cfg) -> dict:
    """The MACs a forward runs beyond ``count_flops``, per component, from the band layout and the widths alone.

    Each stem band recomputes the first convolution's rows it shares with the band before it, each ConvFFN
    band expands its halo rows (``blocks.row_bands``, as ``blocks.banded`` cuts them), and a bridge averages
    the previous stage's final map over 2 x 2 windows with a stride-2 ``dwconv``, 4 MACs per output cell.
    """
    size, half = cfg.input_size, cfg.channels[0] // 2
    first = sum(min(2 * r1, size // 2) - max(2 * r0 - 1, 0)
                for r0, r1 in blocks.row_bands(half, size // 4, size // 4, 9 * half))
    extra = {"stem": (first - size // 2) * (size // 2) * half * 3 * 9, "ffn": 0, "bridge": 0}
    for i, plan in enumerate(plan_model(cfg)):
        C, side = cfg.channels[i], size // (4 * 2 ** i)
        hidden = cfg.ffn_ratio * C
        rows = sum(min(r1 + 1, side) - max(r0 - 1, 0) for r0, r1 in blocks.row_bands(C, side, side, hidden, 2))
        extra["ffn"] += plan.num_layers * (rows - side) * side * hidden * C
        if any(layer.takes_cross_stage for layer in plan.layers):
            extra["bridge"] += 4 * cfg.channels[i - 1] * side * side
    return extra


def scope_events(mixer):
    """(op or "vjp:" + op, the scope it was recorded in, the scope open as it ran, on the main tape) of every
    event a taped float64 ``tiny-reduced`` forward, its loss (in the scope ``loss``) and backward show."""
    cfg, tape, events, recorded = get_variant("tiny-reduced", mixer=mixer), Tape(), [], {}

    def watch(op, out, inputs, node):
        now = nd.scopes[-1] if nd.scopes else ""
        if op == "vjp":
            events.append(("vjp:" + node.op, recorded.pop(id(node)), now, id(node)))
        else:
            events.append((op, now, now, None if node is None else id(node)))
            if node is not None:
                recorded[id(node)] = now

    image = Tensor(np.random.default_rng(8).standard_normal((3, cfg.input_size, cfg.input_size)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nd, "observer", watch)
        logits, _ = forward_bound(bind(build(cfg, 8, dtype=np.float64), tape), image)
        with nd.scope("loss"):
            loss = cross_entropy_logits(logits, 1)
        backward(tape, loss)
    main = {id(n) for n in tape.nodes}
    return [(op, at, now, node in main) for op, at, now, node in events]


class TestScopes:
    """Every op runs in an ``nd.scope`` named after its stage x component, and ``nd.macs`` counts it."""

    @pytest.mark.parametrize("mixer,mode", [("window_attn", m.value) for m in Mode] + [("ss2d", "sparx")])
    def test_counted_macs_per_component_are_count_flops_plus_the_recomputed_rows_and_the_bridge_mean(
            self, mixer, mode, monkeypatch):
        cfg = get_variant("tiny", mixer=mixer, topology_mode=mode)
        counted = collections.Counter()
        monkeypatch.setattr(nd, "observer", lambda op, out, inputs, node: counted.update(
            {nd.scopes[-1].rsplit(".", 1)[-1]: nd.macs(op, out, inputs)}))
        forward(build(cfg, 9), np.random.default_rng(9).standard_normal((3, 224, 224)).astype(np.float32))
        expected, extra = count_flops(cfg), recomputed_macs(cfg)
        del expected["total"]
        assert extra["stem"] > 0 and extra["ffn"] > 0 and (extra["bridge"] > 0) == (mode != "plain")
        for component, n in extra.items():
            expected[component] += n
        assert {k: n for k, n in counted.items() if n} == {k: n for k, n in expected.items() if n}

    @pytest.mark.parametrize("mixer", ["ss2d", "window_attn"])
    def test_every_op_and_vjp_is_scoped_by_component_or_layer(self, mixer):
        events = scope_events(mixer)
        assert nd.scopes == []
        assert [e[:3] for e in events if e[1] == "loss"] == [("cross_entropy", "loss", "loss"),
                                                             ("vjp:cross_entropy", "loss", "")]
        components = set(count_flops(get_variant("tiny-reduced"))) - {"total"}
        for op, at, now, on_main in events:
            if at != "loss":
                assert at.split(".")[-1] in components or re.fullmatch(r"s\d\.l\d+", at), (op, at)
            # main-tape vjps run after the forward's scopes have closed; a checkpoint re-runs its band,
            # and sweeps the band's sub-tape, in the scope the band ran in
            assert now == ("" if op.startswith("vjp:") and on_main else at), (op, at, now)
        # off the main tape: the bands' untaped first runs, their re-runs on sub-tapes and those vjps
        off_main = [(op.startswith("vjp:"), at.split(".")[-1]) for op, at, _, on_main in events if not on_main]
        assert set(off_main) == {(False, "ffn"), (True, "ffn")}

    def test_a_non_finite_op_names_its_scope_and_leaves_none_open(self):
        model = build(get_variant("tiny-reduced"), 10)
        model.stages[2].layers[1].block.ffn.w1[:] = np.finfo(np.float32).max
        image = np.random.default_rng(10).standard_normal((3, 32, 32)).astype(np.float32)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match=r"^non-finite values produced by op 'matmul' in s3\.l2\.ffn$"):
            forward(model, image)
        assert nd.scopes == []


def owner(a):
    """The array that owns ``a``'s memory, which every view of it keeps alive."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class TestLifetimes:
    """In an untaped forward each whole map dies at its last use. Weak references to the arrays of op inputs, taken in
    an ``nd.observer``, tell whether a map is still referenced anywhere, with no byte count."""

    @pytest.mark.parametrize("mixer,mode", [("window_attn", m.value) for m in Mode] + [("ss2d", "sparx")])
    def test_block_inputs_and_evicted_sources_are_dead_after_their_last_use(self, mixer, mode, monkeypatch):
        cfg = get_variant("tiny-reduced", mixer=mixer, topology_mode=mode)
        model = build(cfg, 11)
        refs, sources, firsts, seen = {}, {}, set(), collections.Counter()

        def watch(op, out, inputs, node):
            at = nd.scopes[-1]
            layer, _, component = at.rpartition(".")
            first = at not in firsts  # the first op in its scope
            firsts.add(at)
            if op == "add" and first and re.fullmatch(r"s\d\.l\d+", at):  # the mixer's residual sum: its last reader
                refs[at] = refs["last"] = weakref.ref(owner(inputs[0].data))
            elif component == "ffn" and first:
                assert refs.pop(layer)() is None, f"the block input of {layer} is alive in its ConvFFN"
                seen["block input"] += 1
            elif op == "conv2d" and component == "downsample":
                assert refs["last"]() is None, f"the previous stage's last block input is alive at {at}"
                seen["downsample"] += 1
            elif component == "aggregation" and first:  # the concat of the sources
                stage, index = (int(n) for n in re.fullmatch(r"s(\d)\.l(\d+)", layer).groups())
                plan = model.plans[stage - 1].layers[index - 1]
                evicted = cache_schedule(model.plans[stage - 1]).steps[index - 1].evictions
                slots = ([CROSS_STAGE_SLOT] if plan.takes_cross_stage else []) + list(plan.sources)
                assert op == "concat" and len(inputs) == len(slots)
                sources[at] = [(weakref.ref(owner(t.data)), j in evicted) for t, j in zip(inputs, slots)]
            elif op == "matmul" and at in sources:  # the mixing projection
                for ref, evicted in sources.pop(at):
                    assert (ref() is None) == evicted, f"a source {layer} {'evicts' if evicted else 'keeps'}"
                    seen["evicted" if evicted else "kept"] += 1

        monkeypatch.setattr(nd, "observer", watch)
        forward(model, np.random.default_rng(11).standard_normal((3, 32, 32)).astype(np.float32))
        # every block and downsample checked; an evicted source in every mode with ganglion layers, and a source
        # still cached for a later layer where the topology has one
        assert seen["block input"] == sum(cfg.blocks) and seen["downsample"] == 3
        assert (seen["evicted"] > 0) == (mode != "plain") and (seen["kept"] > 0) == (mode in ("dgc", "dsn")), seen


def stem_width(stem):
    """Elements per output token of the stem's widest intermediate, its second convolution's patch matrix."""
    return math.prod(stem.w2.shape[1:])


class TestStemBands:
    """The whole stem runs in the output row bands of ``blocks.row_bands``, each recomputing its rows of the first convolution."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_banded_stem_equals_one_band_bitwise_at_tiny_224(self, dtype, monkeypatch):
        stem = bind(build(get_variant("tiny"), 0, dtype=dtype).stem)
        img = np.random.default_rng(40).standard_normal((3, 224, 224)).astype(dtype)
        tape = Tape()
        banded = backbone._stem_forward(stem, tape.leaf(img))
        # 12/11/11/11/11 output rows read 24/23/23/23/23 rows of the first convolution, which read these image rows
        assert [n.shape[1] for n in tape.nodes if n.op == "slice"] == [48, 47, 47, 47, 47]
        assert [n.shape[1] for n in tape.nodes if n.op == "conv2d"] == [24, 12] + [23, 11] * 4
        monkeypatch.setattr(blocks, "_BAND_ELEMS", 56 * 56 * stem_width(stem))
        whole = backbone._stem_forward(stem, Tensor(img))
        assert banded.dtype == dtype and banded.data.tobytes() == whole.data.tobytes()

    @pytest.mark.parametrize("band", [1, 20, 30])
    @pytest.mark.parametrize("size", [(32, 32), (30, 22)], ids=["32x32", "30x22"])
    def test_banded_stem_matches_one_band_on_small_maps(self, size, band, monkeypatch):
        # 30 x 22 makes a 15-row map, so the last band reads the zero row below it. A band a few
        # tokens wide sends BLAS down another kernel path, so the sums may differ in the last bits.
        stem = bind(build(get_variant("tiny-reduced"), 0, dtype=np.float64).stem)
        img = np.random.default_rng(40).standard_normal((3, *size))
        whole = backbone._stem_forward(stem, Tensor(img)).data
        monkeypatch.setattr(blocks, "_BAND_ELEMS", band * stem_width(stem))
        tape = Tape()
        banded = backbone._stem_forward(stem, tape.leaf(img)).data
        bands = blocks.row_bands(stem.w1.shape[0], *whole.shape[1:], stem_width(stem))
        assert sum(node.op == "slice" for node in tape.nodes) == len(bands) > 1
        assert np.allclose(banded, whole, rtol=0, atol=1e-13 * np.abs(whole).max())

    def test_stage_one_working_memory_holds_no_full_first_map(self):
        # tiny@224 float32: the bands' outputs, their join and one band's maps measure 3.13 output maps;
        # a full (48,112,112) first map with its layernorm and gelu, as before the whole stem was banded, 6.33
        stem = bind(build(get_variant("tiny"), 0).stem)
        img = Tensor(np.random.default_rng(41).standard_normal((3, 224, 224)).astype(np.float32))
        out, peak = traced_peak(lambda: backbone._stem_forward(stem, img))
        assert peak <= 3.2 * out.data.nbytes, peak / out.data.nbytes

    def test_banded_stem_gradients_match_finite_differences(self, monkeypatch):
        stem = build(get_variant("tiny-reduced"), 0, dtype=np.float64).stem
        monkeypatch.setattr(blocks, "_BAND_ELEMS", 5 * stem_width(stem))  # a 4 x 4 output map in four one-row bands
        rng = np.random.default_rng(42)
        img, probe = rng.standard_normal((3, 16, 16)), Tensor(rng.standard_normal((8, 4, 4)))
        assert len(blocks.row_bands(4, 4, 4, stem_width(stem))) == 4
        err = grad_check(lambda ti, tp: nd.sum_all(nd.matmul(nd.reshape(backbone._stem_forward(tp, ti), (1, 128)),
                                                             nd.reshape(probe, (128,)))), [img, stem], h=1e-6)
        assert err <= 1e-6  # the stem's layernorms are stiff: at h = 1e-4 the unbanded stem measures 2e-4


def downsample_params(c_in, c_out, dtype, seed):
    """A downsample with its convolution, bias and layernorm affine drawn at random."""
    rng = np.random.default_rng(seed)
    return backbone.DownsampleParams(
        w=(0.3 * rng.standard_normal((c_out, c_in, 3, 3))).astype(dtype), b=(0.1 * rng.standard_normal(c_out)).astype(dtype),
        ln_g=(1 + 0.2 * rng.standard_normal(c_out)).astype(dtype), ln_b=(0.2 * rng.standard_normal(c_out)).astype(dtype))


class TestDownsampleBands:
    """A stage's downsample runs in the output row bands of ``blocks.banded``, sized by its patch matrix (Cin*9 per
    token): each band convolves the input rows it reads and normalizes its own output rows."""

    @example(c_in=2, c_out=3, H=8, W=6, band=1, dtype=np.float64, seed=0)   # four one-row bands
    @example(c_in=1, c_out=2, H=7, W=5, band=5, dtype=np.float32, seed=0)   # an odd map: the last band's zero row
    @given(c_in=st.integers(1, 3), c_out=st.integers(2, 4), H=st.integers(2, 12), W=st.integers(2, 12),
           band=st.integers(1, 12), dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_bands_equal_a_whole_convolution_then_layernorm(self, c_in, c_out, H, W, band, dtype, seed):
        p = downsample_params(c_in, c_out, dtype, seed)
        x = np.random.default_rng(seed).standard_normal((c_in, H, W)).astype(dtype)
        conv = nd.conv2d(Tensor(x), Tensor(p.w), Tensor(p.b), stride=2, pad=1).data
        ref = layernorm_reference(conv, p.ln_g, p.ln_b)
        with pytest.MonkeyPatch.context() as mp:  # bands of at most ``band`` output tokens
            mp.setattr(blocks, "_BAND_ELEMS", band * c_in * 9)
            bands = blocks.row_bands(c_out, *conv.shape[1:], c_in * 9)
            assume(len(bands) > 1)
            tape = Tape()
            got = backbone._downsample_forward(bind(p), tape.leaf(x)).data
        assert [n.shape[1] for n in tape.nodes if n.op == "conv2d"] == [r1 - r0 for r0, r1 in bands]
        assert got.dtype == dtype
        tol = (1e-12 if dtype == np.float64 else 1e-5) * np.abs(ref).max()
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stage", [2, 3])
    def test_tiny_224_bands_equal_one_band(self, stage, dtype, monkeypatch):
        # stage 2 in 10/9/9 output rows and stage 3 in 7/7; stage 4's patch matrix fits one band. float32 keeps
        # its bits; in float64 OpenBLAS sums the last row of a 280- or 98-token band in another order
        cfg = get_variant("tiny")
        c_in, side = cfg.channels[stage - 2], 224 // 2 ** stage  # the previous stage's map
        p = bind(downsample_params(c_in, cfg.channels[stage - 1], dtype, stage))
        x = Tensor(np.random.default_rng(stage).standard_normal((c_in, side, side)).astype(dtype))
        tape = Tape()
        banded = backbone._downsample_forward(p, tape.leaf(x.data))
        assert [n.shape[1] for n in tape.nodes if n.op == "conv2d"] == {2: [10, 9, 9], 3: [7, 7]}[stage]
        monkeypatch.setattr(blocks, "_BAND_ELEMS", c_in * 9 * (side // 2) ** 2)
        whole = backbone._downsample_forward(p, x).data
        if dtype == np.float32:
            assert banded.data.tobytes() == whole.tobytes()
        else:  # measured 5e-16 and 9e-16
            np.testing.assert_allclose(banded.data, whole, rtol=0, atol=2e-15 * np.abs(whole).max())

    def test_multi_band_gradients_match_finite_differences(self, monkeypatch):
        p = downsample_params(2, 3, np.float64, 44)
        monkeypatch.setattr(blocks, "_BAND_ELEMS", 3 * 2 * 9)  # a 4 x 3 output map in four one-row bands
        assert len(blocks.row_bands(3, 4, 3, 2 * 9)) == 4
        rng = np.random.default_rng(44)
        x, probe = rng.standard_normal((2, 8, 5)), Tensor(rng.standard_normal(3 * 4 * 3))
        err = grad_check(lambda tx, tp: nd.sum_all(nd.matmul(nd.reshape(backbone._downsample_forward(tp, tx),
                                                                        (1, probe.size)), probe)), [x, p], h=1e-6)
        assert err <= 1e-6, err


class TestInferenceFloor:
    """The float32 ``tiny``@224 window-attention forward peaks at the stage-1 ConvFFN's band, not at a whole-map
    transient: ``ln1`` runs inside the attention bands, and the downsample and the aggregator's output run in bands."""

    @pytest.mark.parametrize("mode", ["sparx", "plain"])
    def test_forward_peak_stays_within_4_1_stage_one_maps(self, mode):
        # 3.97 (sparx) and 3.96 (plain) stage-1 maps; 4.43 and 4.42 with ln1 on the whole map, the whole
        # downsample patch matrix and the whole aggregator concat and output
        cfg = get_variant("tiny", mixer="window_attn", topology_mode=mode)
        model = build(cfg, 0)
        img = np.random.default_rng(45).standard_normal((3, 224, 224)).astype(np.float32)
        forward(model, img)  # what a first call caches (shift masks) is no forward's memory
        _, peak = traced_peak(lambda: forward(model, img))
        stage_one_map = cfg.channels[0] * (224 // 4) ** 2 * 4
        assert peak <= 4.1 * stage_one_map, peak / stage_one_map


class TestAccounting:
    def test_params_independent_of_input_resolution(self):
        a = build(get_variant("tiny", input_size=224), 0)
        b = build(get_variant("tiny", input_size=384), 0)
        for (_, xa), (_, xb) in zip(iter_arrays(a), iter_arrays(b)):
            assert np.array_equal(xa, xb)

    def test_macs_resolution_scaling(self):
        cfg = get_variant("tiny")
        r = count_flops(cfg, 384)["total"] / count_flops(cfg, 224)["total"]
        assert 2.9 <= r <= 3.1
        r2 = count_flops(cfg, 448)["total"] / count_flops(cfg, 224)["total"]
        assert r2 > 3.99  # linear in token count except the constant-cost head

    def test_breakdown_sums_to_total(self):
        fl = count_flops(get_variant("tiny"))
        assert fl["total"] == sum(v for k, v in fl.items() if k != "total")
        assert fl["aggregation"] > 0 and fl["mixer"] > 0

    def test_memory_plain_has_single_live_feature_per_stage(self):
        rep = memory_report(get_variant("tiny"), mode="plain")
        assert all(s["peak_live_features"] == 1 for s in rep["stages"])

    def test_memory_bytes_scale_with_resolution(self):
        cfg = get_variant("tiny")
        a = memory_report(cfg, input_size=224)
        b = memory_report(cfg, input_size=448)
        assert b["total_training_bytes"] == 4 * a["total_training_bytes"]

    @pytest.mark.parametrize("size", [0, -32, 16, 48, 230])
    def test_explicit_bad_input_size_is_rejected_not_replaced(self, size):
        cfg = get_variant("tiny-reduced")
        with pytest.raises(ConfigError, match="multiple of 32"):
            count_flops(cfg, size)
        with pytest.raises(ConfigError, match="multiple of 32"):
            memory_report(cfg, input_size=size)

    def test_input_size_none_uses_config(self):
        cfg = get_variant("tiny-reduced")
        assert count_flops(cfg, None) == count_flops(cfg, cfg.input_size)
        assert memory_report(cfg)["input_size"] == cfg.input_size == 32


class TestToyTraining:
    def test_zero_learning_rate_leaves_parameters_bit_unchanged(self):
        cfg = get_variant("tiny-reduced")
        result = train_toy(cfg, steps=2, lr=0.0, seed=0)
        fresh = build(cfg, 0, dtype=np.float64)
        for (_, trained), (_, initial) in zip(iter_arrays(result.model), iter_arrays(fresh)):
            assert np.array_equal(trained, initial)
        assert len(result.losses) == 2

    def test_first_loss_near_log_num_classes(self):
        result = train_toy(get_variant("tiny-reduced"), steps=1, seed=0)
        assert abs(result.losses[0] - np.log(2)) <= 0.2

    def test_training_deterministic_under_seed(self):
        a = train_toy(get_variant("tiny-reduced"), steps=3, seed=7)
        b = train_toy(get_variant("tiny-reduced"), steps=3, seed=7)
        assert a.losses == b.losses

    def test_non_finite_update_names_sgd_update_and_step(self, monkeypatch):
        real_backward = backbone.backward

        def overflowing_backward(tape, loss):  # every gradient overflows the update
            return {k: Tensor(np.full(g.shape, np.inf)) for k, g in real_backward(tape, loss).items()}

        monkeypatch.setattr(backbone, "backward", overflowing_backward)
        with pytest.raises(NumericError, match=r"^non-finite values produced by op 'sgd_update' at step 0$"):
            train_toy(get_variant("tiny-reduced"), steps=2, seed=0)

    def test_dataset_is_linearly_separable_by_construction(self):
        images, labels = make_toy_dataset(n=16, size=32, seed=0)
        halves = images[:, :, :, :16].mean(axis=(1, 2, 3)) - images[:, :, :, 16:].mean(axis=(1, 2, 3))
        assert np.all((halves > 0) == (labels == 0))


class TestGradientEndToEnd:
    def test_reduced_model_gradient_sample(self):
        cfg = get_variant("tiny-reduced")
        model = build(cfg, 0, dtype=np.float64)
        img = np.random.default_rng(16).standard_normal((3, cfg.input_size, cfg.input_size))
        worst = grad_check(lambda m: sum_all(forward_bound(m, Tensor(img))[0]), [model],
                           max_elements=40, rng=np.random.default_rng(17))
        assert worst <= 1e-3, worst
        assert count_arrays(model) > 50_000

    def test_reduced_training_step_peak(self):
        # one float64 SGD step's forward and backward over 4 images: conv2d rebuilds its patch matrices and
        # gelu its 1 + erf in backward; a tape that keeps both peaks at 3.30-3.51 MB
        cfg = get_variant("tiny-reduced")
        model = build(cfg, 0, dtype=np.float64)
        images, labels = make_toy_dataset(n=4, size=cfg.input_size, seed=0)
        images = np.asarray(images, dtype=np.float64)

        def step():
            tape = Tape()
            bound = bind(model, tape)
            loss = None
            for img, label in zip(images, labels):
                li = cross_entropy_logits(forward_bound(bound, Tensor(img))[0], int(label))
                loss = li if loss is None else add(loss, li)
            loss = scale(loss, 1.0 / len(images))
            return backward(tape, loss)

        _, peak = traced_peak(step)
        assert peak <= 3_160_000, peak
