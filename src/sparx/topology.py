"""Cross-layer connectivity planning.

A stage is a chain of layers; a subset of them ("ganglion" layers) aggregate
the outputs of earlier layers before mixing tokens. Two hyperparameters shape
a plan:

* ``stride``: one plus the number of normal layers between two nearest
  ganglion layers. Ganglion layers sit at indices {stride, 2*stride, ...},
  and the last layer of a stage is always a ganglion layer so the stage
  output carries aggregated context.
* ``window``: a ganglion layer draws "inter" edges from at most ``window``
  closest preceding ganglion layers; its "intra" edges come from the normal
  layers strictly between the closest preceding ganglion layer (or the stage
  start) and itself.

Three ablation connectivities are planned through the same interface:

* ``dgc`` keeps the stride placement but drops the window entirely: every
  ganglion layer connects to all preceding layers, normal and ganglion.
* ``dsn`` additionally sets stride to 1, which makes every layer after the
  first a ganglion layer sourcing all of its predecessors (dense,
  DenseNet-style connectivity).
* ``plain`` has no ganglion layers and therefore no cross-layer edges.

A ganglion candidate with nothing to aggregate (the stage's first layer when
no cross-stage input arrives) is demoted to a normal layer, since an
aggregator with zero inputs is undefined.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import ModelConfig


class PlanError(ValueError):
    """Invalid topology configuration."""


class Mode(str, enum.Enum):
    """Connectivity modes, declared from sparsest to densest.

    The verify checks of the cache-peak and memory orderings walk the modes
    in this order.
    """
    PLAIN = "plain"
    SPARX = "sparx"
    DGC = "dgc"
    DSN = "dsn"


class Role(str, enum.Enum):
    NORMAL = "normal"
    GANGLION = "ganglion"


@dataclass(frozen=True)
class StageTopologyConfig:
    num_layers: int
    stride: int = 2
    window: int = 2
    mode: Mode = Mode.SPARX
    ganglion_override: tuple[int, ...] | None = None
    has_cross_stage_input: bool = False

    def __post_init__(self):
        if self.num_layers < 1:
            raise PlanError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.stride < 1:
            raise PlanError(f"stride must be >= 1, got {self.stride}")
        if self.window < 1:
            raise PlanError(f"window must be >= 1, got {self.window}")
        if self.ganglion_override is not None:
            bad = [i for i in self.ganglion_override if not 1 <= i <= self.num_layers]
            if bad:
                raise PlanError(f"ganglion_override indices {bad} out of range 1..{self.num_layers}")


@dataclass(frozen=True)
class LayerPlan:
    index: int                      # 1-based within the stage
    role: Role
    intra_sources: tuple[int, ...]  # normal-layer indices feeding this layer
    inter_sources: tuple[int, ...]  # ganglion-layer indices feeding this layer
    takes_cross_stage: bool

    @property
    def y_count(self) -> int:
        """Number of aggregated inputs (intra + inter + cross-stage)."""
        return len(self.intra_sources) + len(self.inter_sources) + int(self.takes_cross_stage)

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(sorted(self.intra_sources + self.inter_sources))


@dataclass(frozen=True)
class ConnectionPlan:
    cfg: StageTopologyConfig
    layers: tuple[LayerPlan, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def ganglion_indices(self) -> tuple[int, ...]:
        return tuple(l.index for l in self.layers if l.role is Role.GANGLION)

    @property
    def normal_indices(self) -> tuple[int, ...]:
        return tuple(l.index for l in self.layers if l.role is Role.NORMAL)

    def layer(self, index: int) -> LayerPlan:
        return self.layers[index - 1]


def _ganglion_candidates(cfg: StageTopologyConfig) -> set[int]:
    n = cfg.num_layers
    if cfg.ganglion_override is not None:
        return set(cfg.ganglion_override)
    if cfg.mode is Mode.PLAIN:
        return set()
    stride = 1 if cfg.mode is Mode.DSN else cfg.stride
    cand = set(range(stride, n + 1, stride))
    cand.add(n)  # the stage output is always aggregated
    return cand


def plan_stage(cfg: StageTopologyConfig) -> ConnectionPlan:
    """Assign roles and source lists to every layer of one stage."""
    n = cfg.num_layers
    if cfg.mode is Mode.PLAIN and cfg.ganglion_override is None and cfg.has_cross_stage_input:
        raise PlanError("plain mode has no ganglion layer to receive a cross-stage input")

    ganglia = _ganglion_candidates(cfg)
    if ganglia:
        first = min(ganglia)
        if first == 1 and not cfg.has_cross_stage_input:
            ganglia.discard(1)  # nothing to aggregate: demote to normal
    if not ganglia and cfg.has_cross_stage_input:
        raise PlanError("stage has a cross-stage input but no ganglion layer to receive it")

    unbounded = cfg.mode in (Mode.DGC, Mode.DSN)
    first_g = min(ganglia) if ganglia else None
    layers = []
    for i in range(1, n + 1):
        if i not in ganglia:
            layers.append(LayerPlan(i, Role.NORMAL, (), (), False))
            continue
        preceding_g = sorted(g for g in ganglia if g < i)
        if unbounded:
            intra = tuple(j for j in range(1, i) if j not in ganglia)
            inter = tuple(preceding_g)
        else:
            lo = preceding_g[-1] if preceding_g else 0
            intra = tuple(j for j in range(lo + 1, i) if j not in ganglia)
            inter = tuple(preceding_g[-cfg.window:])
        layers.append(LayerPlan(i, Role.GANGLION, intra, inter,
                                cfg.has_cross_stage_input and i == first_g))
    return ConnectionPlan(cfg, tuple(layers))


def plan_model(model_cfg: ModelConfig) -> list[ConnectionPlan]:
    """Plan all four stages of a model.

    Stage 1 is always plain (no aggregation at the highest resolution). Later
    stages receive a downsampled copy of the previous stage's final feature,
    delivered to their first ganglion layer. The sliding window never spans
    stages. Stage 4 placement follows the model's policy: every layer, or
    only the last one.
    """
    mode = Mode(model_cfg.topology_mode)
    plans = []
    for stage_idx in range(4):
        depth = model_cfg.blocks[stage_idx]
        if stage_idx == 0 or mode is Mode.PLAIN:
            cfg = StageTopologyConfig(depth, model_cfg.stride, model_cfg.window, Mode.PLAIN)
        else:
            override = None
            if stage_idx == 3:
                if model_cfg.stage4_policy == "all_ganglion":
                    override = tuple(range(1, depth + 1))
                else:
                    override = (depth,)
            cfg = StageTopologyConfig(depth, model_cfg.stride, model_cfg.window, mode,
                                      ganglion_override=override, has_cross_stage_input=True)
        try:
            plans.append(plan_stage(cfg))
        except PlanError as e:
            raise PlanError(f"stage {stage_idx + 1}: {e}") from e
    return plans


# ---------------------------------------------------------------------------
# feature-cache scheduling
# ---------------------------------------------------------------------------

CROSS_STAGE_SLOT = 0  # pseudo-index for the bridged previous-stage feature


@dataclass(frozen=True)
class CacheStep:
    step: int
    live: tuple[int, ...]       # feature indices retained entering this step
    evictions: tuple[int, ...]  # indices dropped after this step


@dataclass(frozen=True)
class CacheSchedule:
    steps: tuple[CacheStep, ...]
    peak_live_count: int   # max cached features plus the running activation


def cache_schedule(plan: ConnectionPlan) -> CacheSchedule:
    """Lifetimes for cached layer outputs under eager eviction.

    Index 0 stands for the cross-stage input when the plan has one. A feature
    is live from its production until the last step that consumes it as an
    aggregation source, and is evicted after that step; a layer output that
    no later layer reads is evicted after the step that produced it. The
    running chain activation is not a cache entry but counts as one extra
    slot in ``peak_live_count``.
    """
    n = plan.num_layers
    last_need: dict[int, int] = {}
    for layer in plan.layers:
        for src in layer.sources:
            last_need[src] = max(last_need.get(src, 0), layer.index)
        if layer.takes_cross_stage:
            last_need[CROSS_STAGE_SLOT] = max(last_need.get(CROSS_STAGE_SLOT, 0), layer.index)

    steps = []
    peak = 0
    for i in range(1, n + 1):
        live = tuple(sorted(j for j, last in last_need.items()
                            if last >= i and (j == CROSS_STAGE_SLOT or j < i)))
        evict = tuple(sorted(j for j in live if last_need[j] == i))
        if i not in last_need:
            evict += (i,)
        steps.append(CacheStep(i, live, evict))
        peak = max(peak, len(live))
    return CacheSchedule(tuple(steps), peak + 1)  # + the running activation


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def to_dot(plan: ConnectionPlan) -> str:
    """Render the plan as a DOT digraph with deterministic ordering.

    Chain edges are solid; intra edges dashed; inter edges bold; the
    cross-stage input is a separate node. Ganglion nodes are drawn as filled
    double circles.
    """
    lines = ["digraph stage {", "  rankdir=LR;"]
    if any(l.takes_cross_stage for l in plan.layers):
        lines.append('  x [label="cross-stage", shape=box];')
    for layer in plan.layers:
        if layer.role is Role.GANGLION:
            lines.append(f'  {layer.index} [shape=doublecircle, style=filled, fillcolor=lightblue];')
        else:
            lines.append(f'  {layer.index} [shape=circle];')
    for i in range(1, plan.num_layers):
        lines.append(f"  {i} -> {i + 1};")
    for layer in plan.layers:
        for src in layer.intra_sources:
            lines.append(f'  {src} -> {layer.index} [style=dashed, class=intra];')
        for src in layer.inter_sources:
            lines.append(f'  {src} -> {layer.index} [style=bold, class=inter];')
        if layer.takes_cross_stage:
            lines.append(f'  x -> {layer.index} [style=dotted, class=cross];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def plan_to_dict(plan: ConnectionPlan) -> dict:
    return {
        "mode": plan.cfg.mode.value,
        "num_layers": plan.num_layers,
        "stride": plan.cfg.stride,
        "window": plan.cfg.window,
        "layers": [
            {
                "index": l.index,
                "role": l.role.value,
                "intra_sources": list(l.intra_sources),
                "inter_sources": list(l.inter_sources),
                "takes_cross_stage": l.takes_cross_stage,
                "y_count": l.y_count,
            }
            for l in plan.layers
        ],
    }


def plan_to_json(plan: ConnectionPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True) + "\n"
