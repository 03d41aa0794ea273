"""Connectivity planning: placement rules, sources, schedules, exports."""

import json
import re

import pytest
from hypothesis import assume, example, given, strategies as st

from sparx.config import get_variant
from sparx.topology import (CROSS_STAGE_SLOT, Mode, PlanError, Role, StageTopologyConfig,
                            cache_schedule, plan_model, plan_stage, plan_to_json, to_dot)
from sparx.verify import oracle_peak_live, oracle_stage_plan, plan_as_tuples


class TestPlanStage:
    def test_worked_example_8_layers_stride2(self):
        plan = plan_stage(StageTopologyConfig(8, 2, 2))
        assert plan.ganglion_indices == (2, 4, 6, 8)
        assert plan.normal_indices == (1, 3, 5, 7)

    def test_sources_8_layers_stride2_window2(self):
        plan = plan_stage(StageTopologyConfig(8, 2, 2))
        last = plan.layer(8)
        assert last.inter_sources == (4, 6)
        assert last.intra_sources == (7,)
        first = plan.layer(2)
        assert first.inter_sources == ()
        assert first.intra_sources == (1,)

    def test_dense_mode_sources_everything(self):
        plan = plan_stage(StageTopologyConfig(4, 1, 1, Mode.DSN))
        assert plan.layer(1).role is Role.NORMAL
        for i in range(2, 5):
            layer = plan.layer(i)
            assert layer.role is Role.GANGLION
            assert layer.sources == tuple(range(1, i))

    def test_plain_mode_no_connections(self):
        plan = plan_stage(StageTopologyConfig(5, 2, 2, Mode.PLAIN))
        assert plan.ganglion_indices == ()
        assert all(l.sources == () for l in plan.layers)

    def test_dgc_sources_all_predecessors(self):
        plan = plan_stage(StageTopologyConfig(7, 2, 3, Mode.DGC))
        assert plan.ganglion_indices == (2, 4, 6, 7)
        assert plan.layer(7).sources == (1, 2, 3, 4, 5, 6)

    def test_normal_layers_have_no_sources(self):
        plan = plan_stage(StageTopologyConfig(9, 3, 2))
        for l in plan.layers:
            if l.role is Role.NORMAL:
                assert l.sources == () and l.y_count == 0

    def test_override_out_of_range_rejected(self):
        with pytest.raises(PlanError, match="out of range"):
            plan_stage(StageTopologyConfig(4, 2, 2, ganglion_override=(5,)))

    def test_plain_with_cross_stage_rejected(self):
        with pytest.raises(PlanError, match="cross-stage"):
            plan_stage(StageTopologyConfig(4, 2, 2, Mode.PLAIN, has_cross_stage_input=True))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(PlanError):
            StageTopologyConfig(0, 2, 2)
        with pytest.raises(PlanError):
            StageTopologyConfig(4, 0, 2)
        with pytest.raises(PlanError):
            StageTopologyConfig(4, 2, 0)

    def test_first_layer_hub_kept_when_cross_stage_feeds_it(self):
        plan = plan_stage(StageTopologyConfig(3, 1, 2, has_cross_stage_input=True))
        assert plan.layer(1).role is Role.GANGLION
        assert plan.layer(1).takes_cross_stage
        assert plan.layer(1).y_count == 1

    def test_source_indices_strictly_precede_layer(self):
        for mode in Mode:
            for depth in range(1, 10):
                plan = plan_stage(StageTopologyConfig(depth, 2, 2, mode))
                for l in plan.layers:
                    assert all(s < l.index for s in l.sources)


class TestOracleEquivalence:
    @given(depth=st.integers(13, 64), stride=st.integers(1, 8), window=st.integers(1, 8),
           mode=st.sampled_from(list(Mode)), cross=st.booleans())
    @example(depth=13, stride=1, window=1, mode=Mode.PLAIN, cross=True)
    @example(depth=64, stride=8, window=8, mode=Mode.DSN, cross=True)
    def test_deep_stages_match_oracle(self, depth, stride, window, mode, cross):
        cfg = StageTopologyConfig(depth, stride, window, mode, has_cross_stage_input=cross)
        if mode is Mode.PLAIN and cross:
            with pytest.raises(PlanError):
                plan_stage(cfg)
            return
        plan = plan_stage(cfg)
        args = (depth, stride, window, mode.value, cross)
        assert plan_as_tuples(plan) == oracle_stage_plan(*args)
        assert cache_schedule(plan).peak_live_count == oracle_peak_live(*args)


class TestPlanModel:
    def test_tiny_stage_plans(self):
        plans = plan_model(get_variant("tiny"))
        assert plans[0].ganglion_indices == ()          # stage 1 stays plain
        assert plans[1].ganglion_indices == (2,)
        assert plans[2].ganglion_indices == (2, 4, 6, 7)
        assert plans[3].ganglion_indices == (1, 2)      # all-ganglion policy

    def test_base_stage4_last_only(self):
        plans = plan_model(get_variant("base"))
        assert plans[3].ganglion_indices == (3,)

    def test_small_stage3_placement(self):
        plans = plan_model(get_variant("small"))
        assert plans[2].ganglion_indices == (3, 6, 9, 12, 15, 17)

    def test_first_ganglion_of_later_stages_takes_cross_stage(self):
        for name in ("tiny", "small", "base"):
            plans = plan_model(get_variant(name))
            for plan in plans[1:]:
                takers = [l.index for l in plan.layers if l.takes_cross_stage]
                assert takers == [min(plan.ganglion_indices)]

    def test_window_never_spans_stages(self):
        # all inter sources are indices within the same stage by construction
        plans = plan_model(get_variant("tiny"))
        for plan in plans:
            for l in plan.layers:
                assert all(1 <= s < l.index for s in l.inter_sources) or not l.inter_sources

    def test_tiny_stage3_layer6_aggregates_three_features(self):
        plans = plan_model(get_variant("tiny"))
        layer6 = plans[2].layer(6)
        assert layer6.intra_sources == (5,)
        assert layer6.inter_sources == (2, 4)
        assert layer6.y_count == 3


class TestCacheSchedule:
    def test_plain_only_running_activation(self):
        sched = cache_schedule(plan_stage(StageTopologyConfig(5, 2, 2, Mode.PLAIN)))
        assert sched.peak_live_count == 1
        assert all(s.live == () for s in sched.steps)

    def test_dense_8_layer_peak_is_depth(self):
        sched = cache_schedule(plan_stage(StageTopologyConfig(8, 1, 1, Mode.DSN)))
        assert sched.peak_live_count == 8
        assert sched.steps[7].live == (1, 2, 3, 4, 5, 6, 7)

    def test_sparse_beats_dense_at_same_depth(self):
        sparse = cache_schedule(plan_stage(StageTopologyConfig(8, 2, 2)))
        dense = cache_schedule(plan_stage(StageTopologyConfig(8, 1, 1, Mode.DSN)))
        assert sparse.peak_live_count < dense.peak_live_count

    @pytest.mark.parametrize("cfg", [StageTopologyConfig(8, 2, 2),
                                     StageTopologyConfig(5, 1, 1, Mode.PLAIN),
                                     StageTopologyConfig(7, 3, 1, has_cross_stage_input=True)])
    def test_feature_lifetimes_end_at_last_use(self, cfg):
        # an evicted index is read for the last time at this step, or is this
        # step's own output and read by no later layer
        plan = plan_stage(cfg)
        sched = cache_schedule(plan)
        last_use = {}
        for l in plan.layers:
            for s in l.sources + ((CROSS_STAGE_SLOT,) if l.takes_cross_stage else ()):
                last_use[s] = max(last_use.get(s, 0), l.index)
        for step in sched.steps:
            for idx in step.live:
                assert last_use[idx] >= step.step
            for idx in step.evictions:
                assert last_use.get(idx) == step.step or (idx == step.step and idx not in last_use)
        assert sched.steps[-1].evictions[-1] == plan.num_layers  # no layer reads the stage output

    @given(depth=st.integers(1, 40), stride=st.integers(1, 40), window=st.integers(1, 40),
           mode=st.sampled_from(list(Mode)), cross=st.booleans())
    @example(depth=8, stride=1, window=1, mode=Mode.PLAIN, cross=False)
    @example(depth=40, stride=1, window=40, mode=Mode.DSN, cross=True)
    def test_replayed_evictions_hold_exactly_the_live_features(self, depth, stride, window, mode,
                                                              cross):
        # replays the schedule the way forward_bound runs its cache: store the
        # bridged input and every output, read sources, delete the evictions
        assume(not (mode is Mode.PLAIN and cross))
        plan = plan_stage(StageTopologyConfig(depth, stride, window, mode,
                                              has_cross_stage_input=cross))
        oracle = oracle_stage_plan(depth, stride, window, mode.value, cross)
        held = {CROSS_STAGE_SLOT} if any(l.takes_cross_stage for l in plan.layers) else set()
        for step in cache_schedule(plan).steps:
            later = oracle[step.step - 1:]
            live = {j for _, intra, inter, _ in later for j in intra + inter if j < step.step}
            if any(takes_cross for *_, takes_cross in later):
                live.add(CROSS_STAGE_SLOT)
            assert held == live, step.step
            _, intra, inter, takes_cross = oracle[step.step - 1]
            assert set(intra + inter) | ({CROSS_STAGE_SLOT} if takes_cross else set()) <= held
            held.add(step.step)
            for j in step.evictions:
                held.remove(j)
        assert held == set()

    def test_cross_stage_feature_lives_until_first_ganglion(self):
        plan = plan_stage(StageTopologyConfig(5, 3, 2, has_cross_stage_input=True))
        sched = cache_schedule(plan)
        first_g = min(plan.ganglion_indices)
        for step in sched.steps:
            if step.step <= first_g:
                assert CROSS_STAGE_SLOT in step.live
            else:
                assert CROSS_STAGE_SLOT not in step.live


class TestExports:
    def test_plain_dot_is_pure_chain(self):
        text = to_dot(plan_stage(StageTopologyConfig(3, 2, 2, Mode.PLAIN)))
        edges = re.findall(r"(\d+) -> (\d+)", text)
        assert edges == [("1", "2"), ("2", "3")]

    def test_dot_source_edges_match_plan(self):
        plan = plan_stage(StageTopologyConfig(8, 2, 2))
        text = to_dot(plan)
        tagged = re.findall(r"(\d+) -> (\d+) \[style=\w+, class=(intra|inter)\];", text)
        got = {(int(a), int(b)) for a, b, _ in tagged}
        expect = {(s, l.index) for l in plan.layers for s in l.sources}
        assert got == expect

    def test_dot_emission_deterministic(self):
        cfg = StageTopologyConfig(8, 2, 3)
        assert to_dot(plan_stage(cfg)) == to_dot(plan_stage(cfg))

    def test_ganglion_nodes_visually_distinguished(self):
        text = to_dot(plan_stage(StageTopologyConfig(4, 2, 2)))
        assert "doublecircle" in text

    def test_json_dump_stable_and_parseable(self):
        plan = plan_stage(StageTopologyConfig(6, 2, 2, has_cross_stage_input=True))
        a = plan_to_json(plan)
        b = plan_to_json(plan_stage(StageTopologyConfig(6, 2, 2, has_cross_stage_input=True)))
        assert a == b
        doc = json.loads(a)
        assert doc["layers"][1]["role"] == "ganglion"
        assert doc["layers"][1]["takes_cross_stage"] is True

