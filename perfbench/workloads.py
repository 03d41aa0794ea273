"""The benchmark's workloads: seeded inputs, the timed op and its correctness check.

Each workload is a closed loop with one client. Its ops come in rounds; every
round visits each (model, input) pair once, so a run that stops at a round
boundary always holds the same mix of ops.

Correctness. Every op's output is compared with a reference, within a
tolerance rather than bitwise, so a kernel that sums in another order stays
admissible while a wrong one fails:
* inference logits: half the ops run a fixed anchor image whose float64 logits
  are frozen in ``golden.json``; the other half run the seeded image, whose
  reference is a float64 forward of the same weights computed before timing.
  Pass when ``max|logits - ref| <= LOGIT_TOL * max(1, max|ref|)``.
* training losses: a trajectory for the anchor seed is compared with frozen
  losses, and one for ``--seed`` with ``backbone.train_toy`` run for the same
  seed. Pass when ``|loss - ref| <= LOSS_TOL * max(1, |ref|)``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from sparx import backbone, config, nd, params

MODEL_SEED = 0      # weights of every inference model; golden.json holds their anchor logits
ANCHOR_SEED = 0     # seed of the anchor image and of the anchor training trajectory
IMAGE_STREAM = {"seeded": 0, "anchor": 1}
TRAIN_STEPS = 8     # steps of a training trajectory before it restarts from its initial weights
TRAIN_BATCH = 4
TRAIN_LR = 0.02
LOGIT_TOL = 1e-5    # float32 logits sit within 7e-7 of float64 references here
LOSS_TOL = 1e-8     # float64 losses of one code path; reordered sums move them by ~1e-13

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def seeded_image(seed: int, which: str, size: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(IMAGE_STREAM[which],))))
    return rng.standard_normal((3, size, size)).astype(np.float32)


def logits_match(out, ref) -> bool:
    out = np.asarray(out)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False
    return float(np.max(np.abs(out - ref))) <= LOGIT_TOL * max(1.0, float(np.max(np.abs(ref))))


class Infer:
    """One ``tiny``@224 float32 forward per op, round-robin over topology modes."""

    images_per_op = 1
    variant = "tiny"

    def __init__(self, mixer: str, modes: tuple[str, ...]):
        self.mixer, self.modes = mixer, modes
        self.cfgs = {m: config.get_variant(self.variant, mixer=mixer, topology_mode=m) for m in modes}
        self.ops = [(m, which) for m in modes for which in ("anchor", "seeded")]
        self.models: dict = {}
        self.refs: dict = {}

    def golden_key(self, mode: str) -> str:
        return f"{self.variant}/{self.mixer}/{mode}"

    def discard(self):
        self.models = {}

    def setup(self, seed: int):
        """Build the models, make the inputs and run one warm-up forward per model."""
        size = self.cfgs[self.modes[0]].input_size
        self.images = {w: seeded_image(s, w, size) for w, s in (("anchor", ANCHOR_SEED), ("seeded", seed))}
        for mode, cfg in self.cfgs.items():
            self.models[mode] = backbone.build(cfg, MODEL_SEED)
            backbone.forward(self.models[mode], self.images["seeded"])

    def reference(self, golden: dict, seed: int):
        for mode, model in self.models.items():
            self.refs[(mode, "anchor")] = np.asarray(golden[self.golden_key(mode)], dtype=np.float64)
            model64 = params.astype(model, np.float64)
            self.refs[(mode, "seeded")], _ = backbone.forward(model64, self.images["seeded"].astype(np.float64))
            del model64  # one float64 copy at a time

    def prepare(self, op):
        pass

    def run(self, op):
        mode, which = op
        logits, _ = backbone.forward(self.models[mode], self.images[which])
        return logits

    def check(self, op, out) -> bool:
        return logits_match(out, self.refs[op])

    def peak_ops(self):
        """One op per model, labelled by its topology mode."""
        return [(mode, (mode, "seeded")) for mode in self.modes]

    def mode_of(self, op) -> str:
        return op[0]

    def macs(self, op) -> dict:
        return backbone.count_flops(self.cfgs[op[0]])

    def modeled_memory(self, mode: str) -> dict:
        return backbone.memory_report(self.cfgs[mode], bytes_per_value=4)


def sgd_update(model, bound, grads, lr: float):
    """The update ``train_toy`` applies after ``backward``."""
    for arr, leaf in params.pair_leaves(model, bound):
        arr -= lr * grads[leaf.node].data


def train_step(model, images, labels, batch, lr: float):
    """One SGD step in the sequence ``train_toy`` runs; returns (loss, tape nodes)."""
    tape = nd.Tape()
    bound = params.bind(model, tape)
    loss = None
    for j in batch:
        logits, _ = backbone.forward_bound(bound, nd.Tensor(images[j]))
        li = nd.cross_entropy_logits(logits, int(labels[j]))
        loss = li if loss is None else nd.add(loss, li)
    loss = nd.scale(loss, 1.0 / len(batch))
    value = float(loss.data)
    grads = nd.backward(tape, loss)
    sgd_update(model, bound, grads, lr)
    return value, len(tape)


class Trajectory:
    """Initial float64 weights, toy data and batch order for one training seed."""

    def __init__(self, cfg, seed: int):
        self.initial = backbone.build(cfg, seed, dtype=np.float64)
        images, self.labels = backbone.make_toy_dataset(size=cfg.input_size, seed=seed)
        self.images = np.asarray(images, dtype=np.float64)
        order = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(9001,))))
        n = len(self.labels)
        self.batches = [order.choice(n, size=min(TRAIN_BATCH, n), replace=False) for _ in range(TRAIN_STEPS)]
        self.model = None

    def restart(self):
        self.model = params.map_arrays(self.initial, np.copy)


class Train:
    """One SGD step of ``tiny-reduced`` in float64 per op, batch 4."""

    images_per_op = TRAIN_BATCH
    variant = "tiny-reduced"
    golden_key = "tiny-reduced/train"

    def __init__(self):
        self.cfg = config.get_variant(self.variant)
        self.modes = (self.cfg.topology_mode,)
        self.ops = [(which, j) for which in ("anchor", "seeded") for j in range(TRAIN_STEPS)]
        self.trajs: dict = {}
        self.refs: dict = {}

    def discard(self):
        self.trajs = {}

    def setup(self, seed: int):
        """Build both trajectories' weights and data, then run one warm-up step."""
        self.trajs = {"anchor": Trajectory(self.cfg, ANCHOR_SEED), "seeded": Trajectory(self.cfg, seed)}
        t = self.trajs["seeded"]
        t.restart()
        train_step(t.model, t.images, t.labels, t.batches[0], TRAIN_LR)

    def reference(self, golden: dict, seed: int):
        anchor = golden[self.golden_key]
        seeded = backbone.train_toy(self.cfg, steps=TRAIN_STEPS, lr=TRAIN_LR, seed=seed,
                                    batch_size=TRAIN_BATCH).losses
        for j in range(TRAIN_STEPS):
            self.refs[("anchor", j)] = float(anchor[j])
            self.refs[("seeded", j)] = float(seeded[j])

    def prepare(self, op):
        which, j = op
        if j == 0:
            self.trajs[which].restart()

    def run(self, op):
        which, j = op
        t = self.trajs[which]
        loss, self.last_tape_nodes = train_step(t.model, t.images, t.labels, t.batches[j], TRAIN_LR)
        return loss

    def check(self, op, out) -> bool:
        ref = self.refs[op]
        return bool(np.isfinite(out)) and abs(out - ref) <= LOSS_TOL * max(1.0, abs(ref))

    def peak_ops(self):
        return [(self.modes[0], ("seeded", 0))]

    def mode_of(self, op) -> str:
        return self.modes[0]

    def macs(self, op) -> dict:
        return {k: v * TRAIN_BATCH for k, v in backbone.count_flops(self.cfg).items()}

    def modeled_memory(self, mode: str) -> dict:
        return backbone.memory_report(self.cfg, mode=mode, bytes_per_value=8)


def make(name: str):
    if name == "infer-ss2d":
        return Infer("ss2d", ("sparx",))
    if name == "infer-attn-modes":
        return Infer("window_attn", ("sparx", "dgc", "dsn", "plain"))
    if name == "train-reduced":
        return Train()
    raise KeyError(name)
