"""Representation analyses: linear CKA and effective receptive fields."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backbone import ModelParams, forward_bound
from .nd import Tape, backward, slice_axis, sum_all
from .params import astype, bind


class AnalysisError(ValueError):
    """Invalid input to an analysis routine."""


def center_columns(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2:
        raise AnalysisError(f"feature matrix must be (n>=2, d), got {m.shape}")
    return m - m.mean(axis=0, keepdims=True)


def cka_linear(a: np.ndarray, b: np.ndarray) -> float:
    """Linear centered kernel alignment between two (n, d) feature matrices.

    Computed on Gram matrices of the column-centered inputs, which makes the
    value exactly symmetric in its arguments. Result lies in [0, 1]; 1 for
    identical representations up to orthogonal transforms and scaling.
    """
    a, b = center_columns(a), center_columns(b)
    if a.shape[0] != b.shape[0]:
        raise AnalysisError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    ka = a @ a.T
    kb = b @ b.T
    na = float(np.sum(ka * ka))
    nb = float(np.sum(kb * kb))
    if na == 0.0 or nb == 0.0:
        raise AnalysisError("zero-variance feature matrix: CKA undefined")
    return float(np.sum(ka * kb) / np.sqrt(na * nb))


def cka_matrix(features: list[np.ndarray]) -> np.ndarray:
    """Pairwise linear CKA over per-layer feature matrices (same n rows)."""
    if not features:
        raise AnalysisError("no feature matrices given")
    flat = []
    for i, f in enumerate(features):
        f = np.asarray(f, dtype=np.float64)
        if f.ndim == 0:
            raise AnalysisError(f"layer {i} is a scalar, expected (n, ...) features")
        flat.append(f.reshape(f.shape[0], math.prod(f.shape[1:])))
        if flat[i].shape[0] != flat[0].shape[0]:
            raise AnalysisError(f"layer {i} has {f.shape[0]} rows, expected {flat[0].shape[0]}")
    k = len(flat)
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = cka_linear(flat[i], flat[j])
    return out


def cka_matrix_csv(matrix: np.ndarray, labels: list[str]) -> str:
    lines = ["," + ",".join(labels)]
    for lbl, row in zip(labels, matrix):
        lines.append(lbl + "," + ",".join(f"{v:.10f}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# effective receptive field
# ---------------------------------------------------------------------------

@dataclass
class ErfMap:
    values: np.ndarray        # (H,W), max-normalized to 1
    argmax: tuple[int, int]

    def support(self) -> np.ndarray:
        return self.values > 1e-6  # cells above a millionth of the peak

    def to_pgm(self) -> str:
        """ASCII PGM rendering (P2, 255 gray levels)."""
        h, w = self.values.shape
        px = np.clip(np.round(self.values * 255), 0, 255).astype(int)
        rows = [" ".join(str(v) for v in row) for row in px]
        return "P2\n" + f"{w} {h}\n255\n" + "\n".join(rows) + "\n"


def erf_map(feature_fn, images) -> ErfMap:
    """Input-gradient footprint of the center output unit of ``feature_fn``.

    For each image, the sum of the center position's feature vector is
    differentiated with respect to the input; absolute gradients are summed
    over input channels, averaged over images, and max-normalized.
    """
    acc = None
    for img in images:
        tape = Tape()
        leaf = tape.leaf(np.asarray(img, dtype=np.float64))
        feat = feature_fn(leaf)
        if feat.data.ndim != 3:
            raise AnalysisError(f"feature_fn must return (C,h,w), got {feat.shape}")
        _, h, w = feat.shape
        center = slice_axis(feat, (1, 2), (h // 2, w // 2), (h // 2 + 1, w // 2 + 1))
        grads = backward(tape, sum_all(center))
        g = grads[leaf.node].data
        sal = np.abs(g).sum(axis=0) if g.ndim == 3 else np.abs(g)
        acc = sal if acc is None else acc + sal
    if acc is None:
        raise AnalysisError("no images given")
    acc = acc / len(images)
    peak = float(acc.max())
    if peak > 0:
        acc = acc / peak
    ij = np.unravel_index(int(np.argmax(acc)), acc.shape)
    return ErfMap(acc, (int(ij[0]), int(ij[1])))


def erf(model: ModelParams, probe_stage: int, images) -> ErfMap:
    """ERF of a backbone stage's final feature on a batch of images."""
    if not 1 <= probe_stage <= len(model.stages):
        raise AnalysisError(f"probe stage {probe_stage} outside 1..{len(model.stages)}")
    # the weights are bound as constants (only the image is a tape leaf), in
    # float64 to match the image leaves regardless of the model's inference dtype
    model64 = bind(astype(model, np.float64))

    def fn(img):
        feat, _ = forward_bound(model64, img, to_stage=probe_stage)
        return feat

    return erf_map(fn, images)
