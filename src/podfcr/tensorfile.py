"""Binary tensor container with a bit-exact round trip.

Layout (little endian throughout):
    bytes 0-3   magic "PODF"
    byte  4     version (1)
    byte  5     dtype code: 0 = float64, 1 = float32
    byte  6     rank
    byte  7     reserved (0)
    next 4*rank u32 extents
    payload     row-major values

A rank-4 tensor therefore carries a 24-byte header. A file holds one such
record; a checkpoint (``training``) holds many, one after another. Corrupt
records raise distinct error types rather than crashing.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"PODF"
VERSION = 1
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_DTYPE_CODES = {np.dtype("float64"): 0, np.dtype("float32"): 1}


class TensorFileError(ValueError):
    """Base class for container format violations."""


class BadMagicError(TensorFileError):
    pass


class UnsupportedVersionError(TensorFileError):
    pass


class UnsupportedDtypeError(TensorFileError):
    pass


class TruncatedPayloadError(TensorFileError):
    pass


def write_tensor(dest, array: np.ndarray) -> None:
    """Write ``array`` as one record to the file at path ``dest``, or at the
    current position of ``dest`` when it is a binary file open for writing."""
    arr = np.ascontiguousarray(array)
    if arr.dtype not in _DTYPE_CODES:
        arr = arr.astype(np.float64)
    code = _DTYPE_CODES[arr.dtype]
    header = MAGIC + struct.pack("<BBBB", VERSION, code, arr.ndim, 0)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype(_DTYPES[code], copy=False)
    if hasattr(dest, "write"):
        dest.write(header)
        dest.write(payload)
    else:
        with open(dest, "wb") as f:
            f.write(header)
            f.write(payload)


def read_tensor(source) -> np.ndarray:
    """Read the record in the file at path ``source``, or the record that the
    ``bytes`` ``source`` holds."""
    if isinstance(source, bytes):
        blob, where = source, "tensor record"
    else:
        blob, where = Path(source).read_bytes(), source
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise BadMagicError(f"{where}: not a tensor container (bad magic)")
    version, code, rank, _reserved = struct.unpack("<BBBB", blob[4:8])
    if version != VERSION:
        raise UnsupportedVersionError(f"{where}: unsupported container version {version}")
    if code not in _DTYPES:
        raise UnsupportedDtypeError(f"{where}: unsupported dtype code {code}")
    header_end = 8 + 4 * rank
    if len(blob) < header_end:
        raise TruncatedPayloadError(f"{where}: header truncated")
    shape = struct.unpack(f"<{rank}I", blob[8:header_end])
    dtype = _DTYPES[code]
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    payload = blob[header_end:]
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"{where}: payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
