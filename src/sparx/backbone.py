"""Four-stage hierarchical backbone assembly.

Stem and stage transitions are strided 3x3 convolutions; each stage runs its
planned chain of normal layers (position encoding -> token-mixer block) and
ganglion layers (position encoding -> multi-layer aggregation -> fuse ->
token-mixer block). The first ganglion layer of stages 2..4 additionally
consumes a downsampled, re-projected copy of the previous stage's final
feature (the bridge: each 2x2 window averaged by a stride-2 depthwise
convolution with a constant 1/4 kernel, then projected). The feature cache
is driven by the stage's cache schedule: a layer output that a later layer
reads is stored, and leaves the cache as the step whose evictions name it
starts, so that step's aggregator holds its last reference and drops it
after reading it.

Also here: analytic MAC counting, the cache-driven memory model, and a small
synthetic training loop demonstrating end-to-end differentiability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nd
from .nd import (Tape, Tensor, add, backward, conv2d, cross_entropy_logits, dwconv, gelu,
                 layernorm_channels, matmul, mean_axis, reshape, scale, scope)
from .blocks import (VssBlockParams, DpeParams, banded, dpe_forward, ffn_residual, init_dpe, init_vss_block,
                     mixer_macs, mixer_residual)
from .config import ConfigError, ModelConfig
from .dmca import DmcaParams, dmca_forward, dmca_macs, init_dmca
from .params import Initializer, bind, pair_leaves
from .topology import CROSS_STAGE_SLOT, ConnectionPlan, Role, cache_schedule, plan_model

# Spatial-reducer strides per stage, chosen so reduced token counts match the
# final stage's token count (stage 4 tokens = stage_i tokens / 4^(3-i)).
STAGE_REDUCE_STRIDE = (8, 4, 2, 1)


@dataclass
class StemParams:
    w1: np.ndarray
    b1: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class DownsampleParams:
    w: np.ndarray
    b: np.ndarray
    ln_g: np.ndarray
    ln_b: np.ndarray


@dataclass
class BridgeParams:
    """Average-pool by 2 then pointwise projection to the new stage width."""
    w: np.ndarray
    b: np.ndarray


@dataclass
class LayerParams:
    dpe: DpeParams
    dmca: DmcaParams | None
    fuse_w: np.ndarray | None
    fuse_b: np.ndarray | None
    block: VssBlockParams


@dataclass
class StageParams:
    downsample: DownsampleParams | None
    bridge: BridgeParams | None
    layers: list[LayerParams] = field(default_factory=list)


@dataclass
class HeadParams:
    ln_g: np.ndarray
    ln_b: np.ndarray
    w: np.ndarray
    b: np.ndarray


@dataclass
class ModelParams:
    cfg: ModelConfig
    plans: list[ConnectionPlan]
    stem: StemParams
    stages: list[StageParams]
    head: HeadParams


def build(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Instantiate all parameters deterministically from one seed."""
    plans = plan_model(cfg)
    init = Initializer(seed, dtype=dtype)
    c1 = cfg.channels[0]
    if c1 % 2:
        raise ConfigError(f"first stage width {c1} must be even for the stem")
    stem = StemParams(
        w1=init.trunc_normal((c1 // 2, 3, 3, 3)), b1=init.zeros((c1 // 2,)),
        ln1_g=init.ones((c1 // 2,)), ln1_b=init.zeros((c1 // 2,)),
        w2=init.trunc_normal((c1, c1 // 2, 3, 3)), b2=init.zeros((c1,)),
        ln2_g=init.ones((c1,)), ln2_b=init.zeros((c1,)),
    )
    stages = []
    for i, plan in enumerate(plans):
        C = cfg.channels[i]
        down = None
        if i > 0:
            prev = cfg.channels[i - 1]
            down = DownsampleParams(
                w=init.trunc_normal((C, prev, 3, 3)), b=init.zeros((C,)),
                ln_g=init.ones((C,)), ln_b=init.zeros((C,)),
            )
        bridge = None
        if any(l.takes_cross_stage for l in plan.layers):
            prev = cfg.channels[i - 1]
            bridge = BridgeParams(w=init.trunc_normal((C, prev)), b=init.zeros((C,)))
        heads = max(1, C // cfg.head_dim)
        layers = []
        for layer_plan in plan.layers:
            dmca = None
            fuse_w = fuse_b = None
            if layer_plan.role is Role.GANGLION:
                dmca = init_dmca(init, C, layer_plan.y_count, STAGE_REDUCE_STRIDE[i],
                                 groups=cfg.groups, mode=cfg.dmca_mode)
                fuse_w = init.trunc_normal((C, 2 * C))
                fuse_b = init.zeros((C,))
            block = init_vss_block(init, cfg.mixer, C, cfg.state_dim, cfg.ffn_ratio,
                                   cfg.window_size, heads, layer_plan.index - 1)
            layers.append(LayerParams(init_dpe(init, C), dmca, fuse_w, fuse_b, block))
        stages.append(StageParams(down, bridge, layers))
    c4 = cfg.channels[3]
    head = HeadParams(ln_g=init.ones((c4,)), ln_b=init.zeros((c4,)),
                      w=init.trunc_normal((cfg.num_classes, c4)), b=init.zeros((cfg.num_classes,)))
    return ModelParams(cfg, plans, stem, stages, head)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

@dataclass
class CapturedFeature:
    stage: int       # 1-based
    layer: int       # 1-based within the stage
    role: str
    data: np.ndarray


def _stem_forward(p: StemParams, img: Tensor) -> Tensor:
    """Two stride-2 3x3 convolutions with a layernorm and gelu between them, in row bands of the output.

    ``banded`` runs the chain over the row bands of the second convolution's output, sized by its patch
    matrix; each band recomputes the rows of the first convolution it reads, halo rows included, so
    neither the first convolution's full map nor the second one's full patch matrix is ever live.
    """
    def stem(t, pad1, pad2):
        h = gelu(layernorm_channels(conv2d(t, p.w1, p.b1, stride=2, pad=pad1), p.ln1_g, p.ln1_b))
        return conv2d(h, p.w2, p.b2, stride=2, pad=pad2)

    h = banded(stem, [img], p.w1.shape[0], math.prod(p.w2.shape[1:]), strides=(2, 2))
    return layernorm_channels(h, p.ln2_g, p.ln2_b)


def _downsample_forward(p: DownsampleParams, prev_final: Tensor) -> Tensor:
    """A stride-2 3x3 convolution then a layernorm, in row bands of the output sized by its patch matrix.

    Each band of ``banded`` convolves the input rows it reads and normalizes its own output rows, so no
    whole patch matrix exists.
    """
    def down(t, pad):
        return layernorm_channels(conv2d(t, p.w, p.b, stride=2, pad=pad), p.ln_g, p.ln_b)

    return banded(down, [prev_final], p.w.shape[0], math.prod(p.w.shape[1:]), strides=(2,))


def _bridge_forward(p: BridgeParams, prev_final: Tensor) -> Tensor:
    quarter = Tensor(np.full((prev_final.shape[0], 2, 2), 0.25, dtype=prev_final.dtype))
    return matmul(p.w, dwconv(prev_final, quarter, stride=2), p.b)


def forward_bound(bound: ModelParams, image: Tensor, capture: bool = False,
                  to_stage: int | None = None):
    """Run a model on one (3,H,W) image.

    ``bound`` is a model passed through ``params.bind``: its leaves are
    Tensors, tape leaves when gradients are wanted. Features stay (C,H,W) maps
    throughout: the feature cache holds maps and the aggregator takes and
    returns them. Returns (logits Tensor, captured list). With ``to_stage``
    in 1..4 the walk stops after that stage and returns its final feature
    instead of logits. Ops run in the ``nd.scope`` of their stage x component
    (``s2.l3.ffn``), a block's norms in its mixer's and its ConvFFN's, and
    a layer's residual adds in the layer's (``s2.l3``). Untaped, each whole map
    is freed at its last use: a layer input once the position encoding has
    read it, a block input once the mixer's residual sum exists, an evicted
    source after the aggregator's first concat. No stage-sized transient sits
    whole beside them: the stem, each downsample, the aggregator's output
    projection, window attention (``ln1`` included) and the ConvFFN (``ln2``
    included) run in the row bands of ``blocks.banded`` or ``row_bands``.
    """
    cfg = bound.cfg
    _, H, W = image.shape
    if H % 32 or W % 32:
        raise ConfigError(f"input size ({H},{W}) must be divisible by 32")
    captured: list[CapturedFeature] = []
    with scope("stem"):
        x = _stem_forward(bound.stem, image)
    prev_final = None
    for i, (stage, plan) in enumerate(zip(bound.stages, bound.plans)):
        with scope(f"s{i + 1}"):
            if i > 0:
                with scope("downsample"):
                    x = _downsample_forward(stage.downsample, prev_final)
            cache: dict[int, Tensor] = {}
            if stage.bridge is not None:
                with scope("bridge"):
                    cache[CROSS_STAGE_SLOT] = _bridge_forward(stage.bridge, prev_final)
            prev_final = None  # read by the downsample and the bridge only
            for layer_plan, layer, step in zip(plan.layers, stage.layers, cache_schedule(plan).steps):
                with scope(f"l{layer_plan.index}"):
                    with scope("dpe"):
                        t = dpe_forward(x, layer.dpe)
                    del x  # the cache holds it while a later layer reads it
                    if layer_plan.role is Role.GANGLION:
                        slots = ([CROSS_STAGE_SLOT] if layer_plan.takes_cross_stage else []) + list(layer_plan.sources)
                        with scope("aggregation"):
                            # the sources this step evicts leave the cache first, and the list is the
                            # aggregator's alone: it drops them after its first op
                            t = matmul(layer.fuse_w, dmca_forward(
                                t, [cache.pop(j) if j in step.evictions else cache[j] for j in slots],
                                layer.dmca), layer.fuse_b)
                    x = mixer_residual(t, layer.block)
                    del t  # the block input: dead before the ConvFFN runs, and never carried into the next stage
                    x = ffn_residual(x, layer.block)
                if step.step not in step.evictions:  # a later layer reads it
                    cache[step.step] = x
                if capture:
                    captured.append(CapturedFeature(i + 1, step.step, layer_plan.role.value,
                                                    np.array(x.data)))
        prev_final = x
        if to_stage is not None and i + 1 == to_stage:
            return x, captured
    with scope("head"):
        c4 = prev_final.shape[0]
        pooled = mean_axis(reshape(prev_final, (c4, prev_final.shape[1] * prev_final.shape[2])), axis=1)
        normed = layernorm_channels(pooled, bound.head.ln_g, bound.head.ln_b)
        logits = reshape(matmul(bound.head.w, normed, bound.head.b), (cfg.num_classes,))
    return logits, captured


def forward(model: ModelParams, image, capture: bool = False):
    """Inference on a raw-array model, bound once as constants; returns
    (logits ndarray, captures)."""
    img = image if isinstance(image, Tensor) else Tensor(np.asarray(image, dtype=model.stem.w1.dtype))
    logits, captured = forward_bound(bind(model), img, capture=capture)
    return np.array(logits.data), captured


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def _input_size(cfg: ModelConfig, input_size: int | None) -> int:
    """The explicit ``input_size``, or the config's when it is None; a positive multiple of 32."""
    size = cfg.input_size if input_size is None else input_size
    if size < 32 or size % 32:
        raise ConfigError(f"input size {size} must be a positive multiple of 32")
    return int(size)


def count_flops(cfg: ModelConfig, input_size: int | None = None) -> dict:
    """Multiply-accumulate counts (1 MAC = 1 FLOP) with a component breakdown.

    Counts cover convolutions, linear projections, attention matmuls, and
    scans (9 MACs per channel-state-step); normalizations and pointwise
    nonlinearities are not counted.
    """
    size = _input_size(cfg, input_size)
    plans = plan_model(cfg)
    fl = {"stem": 0, "downsample": 0, "bridge": 0, "dpe": 0, "mixer": 0, "ffn": 0,
          "aggregation": 0, "head": 0}
    fl["stem"] += (size // 2) ** 2 * (cfg.channels[0] // 2) * 3 * 9
    fl["stem"] += (size // 4) ** 2 * cfg.channels[0] * (cfg.channels[0] // 2) * 9
    for i, plan in enumerate(plans):
        C = cfg.channels[i]
        side = size // (4 * 2 ** i)
        N = side * side
        if i > 0:
            fl["downsample"] += N * C * cfg.channels[i - 1] * 9
        if any(l.takes_cross_stage for l in plan.layers):
            fl["bridge"] += N * C * cfg.channels[i - 1]
        for layer in plan.layers:
            fl["dpe"] += N * C * 9
            fl["mixer"] += mixer_macs(cfg.mixer, C, N, cfg.state_dim, cfg.window_size)
            fl["ffn"] += N * C * (cfg.ffn_ratio * C) * 2 + N * (cfg.ffn_ratio * C) * 9
            if layer.role is Role.GANGLION:
                fl["aggregation"] += dmca_macs(C, layer.y_count, N, STAGE_REDUCE_STRIDE[i],
                                               cfg.groups, cfg.dmca_mode)
                fl["aggregation"] += N * 2 * C * C   # fuse back to C
    fl["head"] += cfg.channels[3] * cfg.num_classes
    fl["total"] = sum(v for k, v in fl.items() if k != "total")
    return fl


AGG_WORK_FEATURES = 6  # key/value/attended/output working buffers, in feature units


def memory_report(cfg: ModelConfig, input_size: int | None = None, mode: str | None = None,
                  bytes_per_value: int = 4) -> dict:
    """Cache-schedule-driven memory model.

    Per stage: the inference peak (live cached features plus the running
    activation, from the eviction schedule) and a training-footprint proxy
    (every layer output retained for the backward pass, plus each aggregation
    layer's concatenation input and working buffers). Totals across stages
    are reported for both.
    """
    size = _input_size(cfg, input_size)
    if mode is not None:
        cfg = replace(cfg, topology_mode=mode)
    plans = plan_model(cfg)
    stages = []
    total_train = 0
    peak_inference = 0
    for i, plan in enumerate(plans):
        C = cfg.channels[i]
        side = size // (4 * 2 ** i)
        feat_bytes = C * side * side * bytes_per_value
        peak = cache_schedule(plan).peak_live_count
        train_feats = plan.num_layers  # every output retained for backward
        if any(l.takes_cross_stage for l in plan.layers):
            train_feats += 1
        for layer in plan.layers:
            if layer.role is Role.GANGLION:
                train_feats += layer.y_count + AGG_WORK_FEATURES
        train_bytes = train_feats * feat_bytes
        stages.append({
            "stage": i + 1,
            "feature_bytes": feat_bytes,
            "peak_live_features": peak,
            "peak_live_bytes": peak * feat_bytes,
            "training_bytes": train_bytes,
        })
        total_train += train_bytes
        peak_inference = max(peak_inference, peak * feat_bytes)
    return {
        "mode": cfg.topology_mode,
        "input_size": size,
        "stages": stages,
        "peak_inference_bytes": peak_inference,
        "total_training_bytes": total_train,
    }


# ---------------------------------------------------------------------------
# toy training
# ---------------------------------------------------------------------------

def make_toy_dataset(n: int = 64, size: int = 32, seed: int = 0):
    """Linearly separable two-class set: left-bright vs right-bright images."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(9000,))))
    images = 0.1 * rng.standard_normal((n, 3, size, size))
    labels = np.arange(n) % 2
    half = size // 2
    for i in range(n):
        if labels[i] == 0:
            images[i, :, :, :half] += 1.0
        else:
            images[i, :, :, half:] += 1.0
    return images, labels


@dataclass
class ToyTrainResult:
    losses: list[float]
    accuracy: float
    steps_run: int
    model: "ModelParams"


def evaluate(model: ModelParams, images, labels) -> float:
    bound = bind(model)
    correct = 0
    for img, lbl in zip(images, labels):
        logits, _ = forward_bound(bound, Tensor(np.asarray(img, dtype=model.stem.w1.dtype)))
        correct += int(np.argmax(logits.data) == int(lbl))
    return correct / len(labels)


TOY_EVAL_EVERY = 25  # steps between early-stop accuracy checks in train_toy


def train_toy(cfg: ModelConfig, steps: int = 500, lr: float = 0.02,
              seed: int = 0, batch_size: int = 4, target_acc: float | None = None) -> ToyTrainResult:
    """Plain SGD on softmax cross-entropy over the synthetic set (``make_toy_dataset``).

    Deterministic under ``seed`` (model init, data, and batch order all
    derive from it). ``lr`` must be finite. Aborts with the failing step
    index if the loss or an updated parameter goes non-finite. With
    ``target_acc`` set, the full training set is evaluated every
    ``TOY_EVAL_EVERY`` steps and training stops once it reaches that accuracy.
    """
    if steps < 1 or batch_size < 1:
        raise ConfigError(f"steps ({steps}) and batch size ({batch_size}) must be positive")
    if not np.isfinite(lr):
        raise ConfigError(f"learning rate must be finite, got {lr}")
    model = build(cfg, seed, dtype=np.float64)
    images, labels = make_toy_dataset(size=cfg.input_size, seed=seed)
    images = np.asarray(images, dtype=np.float64)
    order_rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(9001,))))
    losses: list[float] = []
    steps_run = 0
    for step in range(steps):
        idx = order_rng.choice(len(labels), size=min(batch_size, len(labels)), replace=False)
        tape = Tape()
        bound = bind(model, tape)
        loss = None
        for j in idx:
            logits, _ = forward_bound(bound, Tensor(images[j]))
            li = cross_entropy_logits(logits, int(labels[j]))
            loss = li if loss is None else add(loss, li)
        loss = scale(loss, 1.0 / len(idx))
        value = float(loss.data)
        if not np.isfinite(value):
            raise nd.NumericError(f"non-finite loss at step {step}")
        losses.append(value)
        grads = backward(tape, loss)
        for arr, leaf in pair_leaves(model, bound):
            arr -= lr * grads[leaf.node].data
            if not np.all(np.isfinite(arr)):
                raise nd.NumericError(f"non-finite values produced by op 'sgd_update' at step {step}")
        steps_run = step + 1
        if target_acc is not None and steps_run % TOY_EVAL_EVERY == 0:
            if evaluate(model, images, labels) >= target_acc:
                break
    return ToyTrainResult(losses, evaluate(model, images, labels), steps_run, model)
