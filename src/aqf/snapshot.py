"""Byte-level helpers shared by the snapshot formats.

All integers are little-endian.  Variable-size payloads travel as
length-prefixed sections: a u64 byte count followed by the raw bytes.
Every snapshot ends in a CRC32 (zlib's) of all the bytes before it,
written by ``seal`` and checked by ``unseal`` before any field is read.
"""

from __future__ import annotations

import struct
import zlib

from .errors import FormatError

_CRC = struct.Struct("<I")


def pack_section(payload: bytes) -> bytes:
    return struct.pack("<Q", len(payload)) + payload


def seal(body: bytes) -> bytes:
    """body followed by its CRC32 trailer."""
    return body + _CRC.pack(zlib.crc32(body))


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
        return struct.unpack("<Q", self.take(8))[0]

    def section(self):
        return self.take(self.u64())

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} trailing bytes")
