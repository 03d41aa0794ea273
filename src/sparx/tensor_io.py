"""Binary tensor file format for dumps and fixtures.

Layout: magic bytes ``SPXT``, one u8 dtype code (0 = float32, 1 = float64),
one u8 rank, then rank u32 little-endian dims, then the row-major payload in
little-endian order. Readers reject bad magic, unknown dtype codes, shapes
no array can have, and payloads whose length does not match the shape.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

MAGIC = b"SPXT"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class TensorFormatError(ValueError):
    """Raised on malformed tensor files."""


def tensor_bytes(arr) -> bytes:
    arr = np.asarray(arr)  # not ascontiguousarray, which makes a 0-d array 1-d
    if arr.dtype not in _CODE_FOR:
        raise TensorFormatError(f"unsupported dtype {arr.dtype}; expected float32 or float64")
    if arr.ndim > 255:
        raise TensorFormatError("rank too large")
    head = MAGIC + struct.pack("<BB", _CODE_FOR[arr.dtype], arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(order="C")
    return head + dims + payload


def write_tensor(path, arr):
    with open(path, "wb") as fh:
        fh.write(tensor_bytes(arr))


def tensor_from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 6:
        raise TensorFormatError("file too short for header")
    if buf[:4] != MAGIC:
        raise TensorFormatError(f"bad magic {buf[:4]!r}; expected {MAGIC!r}")
    code, ndim = struct.unpack("<BB", buf[4:6])
    if code not in _DTYPE_CODES:
        raise TensorFormatError(f"unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    off = 6 + 4 * ndim
    if len(buf) < off:
        raise TensorFormatError("truncated dimension block")
    shape = struct.unpack(f"<{ndim}I", buf[6:off]) if ndim else ()
    # exact integer products: a fixed-width product can wrap to a small count
    if dtype.itemsize * math.prod(d for d in shape if d) > np.iinfo(np.intp).max:
        raise TensorFormatError(f"shape {shape} is too large for an array")
    expected = off + math.prod(shape) * dtype.itemsize
    if len(buf) != expected:
        raise TensorFormatError(f"payload length {len(buf) - off} does not match shape {shape}")
    arr = np.frombuffer(buf[off:], dtype=dtype).reshape(shape)
    return arr.astype(dtype.newbyteorder("="), order="C")


def read_regular(path) -> bytes:
    """The bytes of the regular file ``path``; a FIFO, device or directory is refused without being read."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))  # opening a FIFO does not wait for a writer
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise TensorFormatError(f"{path} is not a regular file")
    with os.fdopen(fd, "rb") as fh:
        return fh.read()


def read_tensor(path) -> np.ndarray:
    return tensor_from_bytes(read_regular(path))
