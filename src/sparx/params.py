"""Parameter containers: tape binding, traversal, deterministic init.

Parameter structures are plain dataclasses whose leaves are numpy arrays.
``bind`` mirrors a structure with Tensors (tape leaves when a tape is given),
``stack`` stacks same-shaped structures leaf by leaf, ``iter_arrays`` walks
leaves with stable dotted names, and ``pair_leaves`` zips an array structure
with its bound twin for in-place updates.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import nd


def map_arrays(obj, fn):
    """Rebuild a parameter structure, applying ``fn`` to every ndarray leaf."""
    if isinstance(obj, np.ndarray):
        return fn(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        kwargs = {f.name: map_arrays(getattr(obj, f.name), fn) for f in dataclasses.fields(obj)}
        return type(obj)(**kwargs)
    if isinstance(obj, list):
        return [map_arrays(v, fn) for v in obj]
    if isinstance(obj, tuple):
        return tuple(map_arrays(v, fn) for v in obj)
    return obj


def bind(obj, tape=None):
    """Return a parallel structure with ndarray leaves wrapped as Tensors.

    With a tape the leaves are differentiable tape leaves; without one they
    are constants. Ops take only Tensors, so this is where parameter arrays
    become op inputs.
    """
    if tape is not None:
        return map_arrays(obj, tape.leaf)
    return map_arrays(obj, nd.Tensor)


def stack(structs):
    """One dataclass whose ndarray leaves stack the matching leaves of ``structs``
    on a new leading axis."""
    first = structs[0]
    if isinstance(first, np.ndarray):
        return np.stack(structs)
    return type(first)(**{f.name: stack([getattr(s, f.name) for s in structs])
                          for f in dataclasses.fields(first)})


def astype(obj, dtype):
    """Copy of a parameter structure with every leaf cast to ``dtype``."""
    return map_arrays(obj, lambda a: a.astype(dtype))


def iter_arrays(obj, prefix=""):
    """Yield (dotted_name, ndarray) pairs in a stable traversal order."""
    if isinstance(obj, np.ndarray):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from iter_arrays(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from iter_arrays(v, f"{prefix}[{i}]")


def pair_leaves(orig, bound):
    """Zip ndarray leaves of a structure with the Tensors of its bound twin."""
    if isinstance(orig, np.ndarray):
        yield orig, bound
    elif dataclasses.is_dataclass(orig) and not isinstance(orig, type):
        for f in dataclasses.fields(orig):
            yield from pair_leaves(getattr(orig, f.name), getattr(bound, f.name))
    elif isinstance(orig, (list, tuple)):
        for o, b in zip(orig, bound):
            yield from pair_leaves(o, b)


def count_arrays(obj) -> int:
    return sum(int(a.size) for _, a in iter_arrays(obj))


class Initializer:
    """Deterministic per-parameter random streams from one 64-bit seed.

    Each parameter draws from its own counter-based generator (Philox keyed
    by seed and parameter ordinal), so values do not depend on how other
    parameters were sized, only on creation order.
    """

    def __init__(self, seed: int, dtype=np.float32):
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self._counter = 0

    def _rng(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self._counter,))
        self._counter += 1
        return np.random.Generator(np.random.Philox(ss))

    def trunc_normal(self, shape):
        """Normal(0, 0.02) truncated to two standard deviations by resampling; MemoryError if numpy cannot hold it.

        Each round redraws only the entries still out of range, in index order, and checks only those.
        """
        rng, std = self._rng(), 0.02
        try:
            out = rng.standard_normal(shape) * std
        except ValueError as e:  # numpy's "array is too big": beyond the address space
            raise MemoryError(f"cannot allocate a parameter of shape {tuple(shape)}: {e}") from e
        lim, flat = 2.0 * std, out.reshape(-1)
        bad = np.flatnonzero(np.abs(flat) > lim)
        while bad.size:
            redrawn = rng.standard_normal(bad.size) * std
            flat[bad] = redrawn
            bad = bad[np.abs(redrawn) > lim]
        return out.astype(self.dtype)

    def zeros(self, shape):
        self._counter += 1  # keep ordinals stable across init kinds
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape):
        self._counter += 1
        return np.ones(shape, dtype=self.dtype)

    def constant(self, values):
        self._counter += 1
        return np.asarray(values, dtype=self.dtype)
