"""Byte-level helpers shared by the snapshot formats.

All integers are little-endian.  Variable-size payloads travel as
length-prefixed sections: a u64 byte count followed by the raw bytes.
Every snapshot ends in a CRC32 (zlib's) of all the bytes before it,
written by ``seal`` and checked by ``unseal`` before any field is read.

An encoder builds its snapshot as a list of parts, each a bytes-like
object of single bytes (``bytes``, or a ``memoryview`` of an array's
little-endian bytes, see ``le_bytes``): headers, length prefixes and
the columns as they lie in memory; or a ``Fill``, which writes its
bytes in place, so that a column made for the snapshot is made where it
lies in the snapshot.  ``seal`` lays the parts out in the one buffer
that becomes the snapshot and computes the trailer part by part, so
each byte of a column is copied once.  A ``section`` is a plain list of
parts.  One seal covers a whole snapshot: the sections nested in it
carry no trailer of their own, so a save and a load checksum each byte
once.
"""

from __future__ import annotations

import io
import os
import secrets
import struct
import zlib
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .errors import FormatError

_CRC = struct.Struct("<I")
_LEN = struct.Struct("<Q")


def replace_file(path, data) -> None:
    """Put the bytes data in the file at path, or at no point a part of
    them: they go to a new file beside it, which is flushed and synced
    (os.fsync) and then renamed onto path (os.replace), so that a reader
    of path finds the old file or the new one, whole, and a handle open
    on the old file keeps reading it.  On any failure up to the rename
    the new file is removed and the error raised as it came (an OSError
    stays one), and the file at path is as it was.  On POSIX the
    directory of path is then synced too, so that the rename outlives a
    crash; a failure of that sync is raised with the new file already
    in place at path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if os.name == "posix":
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def le_bytes(a: np.ndarray, dtype: str) -> memoryview:
    """The bytes of array a as the little-endian dtype; no copy when a is
    already stored so."""
    return memoryview(np.ascontiguousarray(a, dtype=dtype)).cast("B")


class Fill:
    """A part of nbytes bytes that write(dest) puts in dest, the
    writable byte memoryview where they lie in the snapshot."""

    __slots__ = ("nbytes", "write")

    def __init__(self, nbytes: int, write: Callable[[memoryview], None]):
        self.nbytes, self.write = nbytes, write

    def __len__(self) -> int:
        return self.nbytes


def _nbytes(parts) -> int:
    """The byte count of parts, nested lists included."""
    return sum(_nbytes(part) if isinstance(part, list) else len(part) for part in parts)


def _flat(parts):
    """The bytes-like and Fill parts of parts, nested lists spliced in."""
    for part in parts:
        if isinstance(part, list):
            yield from _flat(part)
        else:
            yield part


def section(parts: list) -> list:
    """parts as one length-prefixed section: their byte count first.  The
    seal around it checksums its bytes."""
    return [_LEN.pack(_nbytes(parts)), *parts]


def seal(parts: list) -> bytes:
    """parts, nested lists spliced in, followed by the CRC32 trailer of
    their bytes, as one bytes object.

    The parts are laid out in a BytesIO's buffer of the snapshot's size,
    which getvalue hands out without a copy once no view of it is left,
    so a snapshot takes no memory beyond its bytes but what its parts
    take.
    """
    parts = list(_flat(parts))
    out = io.BytesIO(bytes(sum(map(len, parts)) + _CRC.size))
    at = crc = 0
    with out.getbuffer() as buf:
        for part in parts:
            if isinstance(part, Fill):
                with buf[at : at + len(part)] as dest:
                    part.write(dest)
                    crc = zlib.crc32(dest, crc)
            else:
                buf[at : at + len(part)] = part
                crc = zlib.crc32(part, crc)
            at += len(part)
        buf[at:] = _CRC.pack(crc)
    return out.getvalue()


def unseal(data) -> memoryview:
    """The bytes before the trailer, once the trailer matches them."""
    mv = memoryview(data)
    if len(mv) < _CRC.size:
        raise FormatError("snapshot truncated")
    body = mv[: -_CRC.size]
    if zlib.crc32(body) != _CRC.unpack(mv[-_CRC.size :])[0]:
        raise FormatError("checksum mismatch: the snapshot is corrupt or truncated")
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

    def section(self):
        """A length-prefixed section's bytes."""
        return self.take(_LEN.unpack(self.take(8))[0])

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} trailing bytes")
