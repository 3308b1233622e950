"""Byte-level helpers shared by the snapshot formats.

All integers are little-endian.  Variable-size payloads travel as
length-prefixed sections: a u64 byte count followed by the raw bytes.
"""

from __future__ import annotations

import struct

from .errors import FormatError


def pack_section(payload: bytes) -> bytes:
    return struct.pack("<Q", len(payload)) + payload


class ByteReader:
    """Cursor over snapshot bytes with failure-checked reads."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.pos = offset

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("snapshot truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def section(self) -> bytes:
        return self.take(self.u64())

    def expect_magic(self, magic: bytes):
        got = self.take(len(magic))
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} trailing bytes")
