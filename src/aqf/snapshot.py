"""Byte-level helpers shared by the snapshot formats.

All integers are little-endian.  Variable-size payloads travel as
length-prefixed sections: a u64 byte count followed by the raw bytes.
Every snapshot ends in a CRC32 (zlib's) of all the bytes before it,
written by ``sealed`` and checked by ``unseal`` before any field is read.

An encoder builds its snapshot as a list of parts, each a bytes-like
object of single bytes (``bytes``, or a ``memoryview`` of an array's
little-endian bytes, see ``le_bytes``): headers, length prefixes and
the columns as they lie in memory.  ``sealed`` computes the trailer part
by part, and the outermost encoder joins the list once, so each byte of
a column is copied once.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import FormatError

_CRC = struct.Struct("<I")
_LEN = struct.Struct("<Q")


def le_bytes(a: np.ndarray, dtype: str) -> memoryview:
    """The bytes of array a as the little-endian dtype; no copy when a is
    already stored so."""
    return memoryview(np.ascontiguousarray(a, dtype=dtype)).cast("B")


def section(parts: list) -> list:
    """parts as one length-prefixed section: their byte count first."""
    return [_LEN.pack(sum(map(len, parts))), *parts]


def sealed(parts: list) -> list:
    """parts followed by the CRC32 trailer of their bytes, computed part
    by part."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return [*parts, _CRC.pack(crc)]


def unseal(data) -> memoryview:
    """The bytes before the trailer, once the trailer matches them."""
    mv = memoryview(data)
    if len(mv) < _CRC.size:
        raise FormatError("snapshot truncated")
    body = mv[: -_CRC.size]
    if zlib.crc32(body) != _CRC.unpack(mv[-_CRC.size :])[0]:
        raise FormatError("checksum mismatch: the snapshot is corrupt, truncated "
                          "or not a version 2 snapshot")
    return body


class ByteReader:
    """Cursor over snapshot bytes with failure-checked reads."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n: int):
        if self.pos + n > len(self.data):
            raise FormatError("snapshot truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return _LEN.unpack(self.take(8))[0]

    def section(self):
        return self.take(self.u64())

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} trailing bytes")
