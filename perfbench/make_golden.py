"""Regenerate ``golden.json``: float64 outputs of the anchor inputs.

    python3 perfbench/make_golden.py

The benchmark compares its anchor ops with these frozen values, so rerun this
only when the model's numerics change on purpose.
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from sparx import backbone, params  # noqa: E402


def main() -> int:
    golden = {}
    for name in ("infer-ss2d", "infer-attn-modes"):
        wl = workloads.make(name)
        image = workloads.seeded_image(workloads.ANCHOR_SEED, "anchor", wl.cfgs[wl.modes[0]].input_size)
        for mode, cfg in wl.cfgs.items():
            model = params.astype(backbone.build(cfg, workloads.MODEL_SEED), np.float64)
            logits, _ = backbone.forward(model, image.astype(np.float64))
            golden[wl.golden_key(mode)] = [float(f"{v:.12g}") for v in logits]
    train = workloads.Train()
    golden[train.golden_key] = backbone.train_toy(
        train.cfg, steps=workloads.TRAIN_STEPS, lr=workloads.TRAIN_LR, seed=workloads.ANCHOR_SEED,
        batch_size=workloads.TRAIN_BATCH).losses
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=0)
        f.write("\n")
    print(f"wrote {os.path.relpath(workloads.GOLDEN_PATH, run.ROOT)}: {sorted(golden)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
