"""Host-speed calibration: fixed numpy/Python kernels timed between ops.

On a shared host the same code runs up to ~1.7x slower for tens of seconds at
a time, and a whole run can fall into a slow stretch. The benchmark therefore
times this fixed probe after every op and divides each op's wall time by the
host's slowness at that moment. The probe never calls the program, so a change
to the program moves only the op times, while a slow stretch of the host moves
both and largely cancels.

The probe has one kernel per kind of work the workloads do: interpreted Python
with small numpy calls, a strided per-step recurrence over a (C,S,T) array,
streaming elementwise work over a 16 MiB array, and a float32 BLAS matmul.
``factor`` is the mean of each kernel's time over its ``NOMINAL_S``, so it is
1.0 on a host as fast as the one the nominals were taken on (a 2-core VM,
Python 3.11, numpy 2.4, one BLAS thread) and 1.3 on one 30% slower.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20240914)
_SMALL = [_rng.standard_normal((8, 8)) for _ in range(4)]
_DECAY = np.exp(-np.abs(_rng.standard_normal((64, 16, 2048)))).astype(np.float32)
_DRIVE = _rng.standard_normal((64, 16, 2048)).astype(np.float32)
_STEPS = 360  # rows 8 KiB apart, as in a stage-1 scan; a few hundred steps suffice
_STREAM = _rng.standard_normal(1 << 22).astype(np.float32)
_STREAM_OUT = np.empty_like(_STREAM)
_LHS = _rng.standard_normal((3136, 64)).astype(np.float32)
_RHS = _rng.standard_normal((64, 256)).astype(np.float32)


def _python():
    a, b, c, d = _SMALL
    s = 0.0
    for _ in range(1500):
        x = a * b + c
        s += float(x[0, 0]) + float(np.maximum(d, 0.0).sum())
    return s


def _recurrence():
    h = np.zeros(_DECAY.shape[:2], dtype=np.float32)
    for t in range(_STEPS):
        h = _DECAY[:, :, t] * h + _DRIVE[:, :, t]
    return h


def _stream():
    np.abs(_STREAM, out=_STREAM_OUT)
    np.negative(_STREAM_OUT, out=_STREAM_OUT)
    np.exp(_STREAM_OUT, out=_STREAM_OUT)
    np.multiply(_STREAM_OUT, _STREAM, out=_STREAM_OUT)
    return _STREAM_OUT


def _blas():
    for _ in range(3):
        out = _LHS @ _RHS
    return out


KERNELS = {"python": _python, "recurrence": _recurrence, "stream": _stream, "blas": _blas}
NOMINAL_S = {"python": 0.0070, "recurrence": 0.0065, "stream": 0.0110, "blas": 0.0044}


def kernel_times() -> dict:
    out = {}
    for name, fn in KERNELS.items():
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


def factor() -> float:
    """Host slowness now: 1.0 at nominal speed, >1 when slower."""
    times = kernel_times()
    return sum(times[k] / NOMINAL_S[k] for k in KERNELS) / len(KERNELS)
