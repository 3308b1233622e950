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
a column is copied once.  ``sealed`` hands out its parts as a run that
knows its bytes' CRC32, and such a run nested in the parts of an outer
``sealed`` enters the outer CRC by zlib's crc32_combine arithmetic
(``crc32_combine``), so each byte is checksummed once for each seal
around it.  A ``section`` is a plain list of parts.
"""

from __future__ import annotations

import struct
import zlib
from functools import lru_cache

import numpy as np

from .errors import FormatError

_CRC = struct.Struct("<I")
_LEN = struct.Struct("<Q")


def le_bytes(a: np.ndarray, dtype: str) -> memoryview:
    """The bytes of array a as the little-endian dtype; no copy when a is
    already stored so."""
    return memoryview(np.ascontiguousarray(a, dtype=dtype)).cast("B")


# zlib's CRC-32 polynomial, bit-reflected
_POLY = 0xEDB88320


def _mulmod(a: int, b: int) -> int:
    """a * b modulo the CRC-32 polynomial, both bit-reflected; a != 0."""
    m, p = 1 << 31, 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


# x**(2**k) modulo the CRC-32 polynomial for k = 0 .. 31, zlib's
# x2n_table; x**(2**32) is x again, so k + 32 takes the entry of k
_X2N = [1 << 30]
for _ in range(31):
    _X2N.append(_mulmod(_X2N[-1], _X2N[-1]))


@lru_cache(maxsize=64)
def _shift(n: int) -> int:
    """x**(8 * n) modulo the CRC-32 polynomial: the factor that moves a
    CRC past n bytes of zeros, one product per set bit of n."""
    p, k = 1 << 31, 3  # 1, and the k for which n's low bit stands for x**(2**k)
    while n:
        if n & 1:
            p = _mulmod(_X2N[k & 31], p)
        n >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """The CRC32 of a + b, from crc1 = crc32(a), crc2 = crc32(b) and
    len2 = len(b), as zlib's crc32_combine computes it."""
    return (_mulmod(_shift(len2), crc1) if crc1 else 0) ^ crc2


class _Run(list):
    """The bytes-like parts of a sealed run, with the CRC32 and the
    length of their bytes."""

    def __init__(self, parts, crc: int, size: int):
        super().__init__(parts)
        self.crc, self.size = crc, size


def _nbytes(parts) -> int:
    """The byte count of parts, nested lists included."""
    return sum(part.size if isinstance(part, _Run) else
               _nbytes(part) if isinstance(part, list) else len(part) for part in parts)


def _splice(parts, flat: list, crc: int) -> int:
    """Append the bytes-like parts of parts, nested lists spliced in, to
    flat, and return crc continued over their bytes: a sealed run among
    them enters by crc32_combine, its bytes not read again."""
    for part in parts:
        if isinstance(part, _Run):
            flat += part
            crc = crc32_combine(crc, part.crc, part.size)
        elif isinstance(part, list):
            crc = _splice(part, flat, crc)
        else:
            flat.append(part)
            crc = zlib.crc32(part, crc)
    return crc


def section(parts: list) -> list:
    """parts as one length-prefixed section: their byte count first.  The
    seal around it checksums its bytes."""
    return [_LEN.pack(_nbytes(parts)), *parts]


def sealed(parts: list) -> _Run:
    """parts, nested lists spliced in, followed by the CRC32 trailer of
    their bytes, computed part by part."""
    flat = []
    crc = _splice(parts, flat, 0)
    flat.append(_CRC.pack(crc))
    return _Run(flat, zlib.crc32(flat[-1], crc), _nbytes(flat))


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
