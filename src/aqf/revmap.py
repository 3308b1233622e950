"""Reverse map from minirun ids back to the keys behind them.

The slot array stores fingerprints only; correcting a false positive
needs the original key so the right extension chunks can be pulled from
its hash.  Each minirun id owns an ordered list of (key, value) pairs
whose order mirrors minirun rank order, so an (id, rank) pair coming out
of the slot array addresses exactly one key here.

Values are optional byte strings.  Storing them makes the map double as
a small key-value store (the merged setup); leaving them None keeps the
map a pure key index (the split setup, values living elsewhere).

A map constructed with a path persists as a single snapshot file on
flush(); the in-memory dict is the only index and is rebuilt whenever
the file is read back.
"""

from __future__ import annotations

import struct
from pathlib import Path

from .errors import ConfigMismatchError, FormatError, InvalidConfigError, NotFoundError
from .snapshot import ByteReader

MAP_MAGIC = b"AQFM"
MAP_VERSION = 1

# value length sentinel meaning "no value stored"
_NO_VALUE = 0xFFFFFFFF

_MASK64 = (1 << 64) - 1


class ReverseMap:
    """Ordered key lists per minirun id, with rank addressing.

    ``accesses`` counts every list read or write and exists so callers
    can prove a code path never touched the map.
    """

    def __init__(self, qbits: int, path=None):
        if not 1 <= qbits <= 56:
            raise InvalidConfigError(f"qbits {qbits} out of range [1, 56]")
        self.qbits = qbits
        self.entries: dict[int, list[tuple[int, bytes | None]]] = {}
        self.accesses = 0
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self._read(self.path.read_bytes())

    @staticmethod
    def check_entry(key: int, value: bytes | None) -> None:
        """Raise InvalidConfigError unless (key, value) can be stored."""
        if not 0 <= key <= _MASK64:
            raise InvalidConfigError("key must fit in 64 bits")
        if value is not None and not isinstance(value, bytes):
            raise InvalidConfigError("value must be bytes or None")

    def map_insert(self, mid: int, rank: int, key: int, value: bytes | None = None) -> None:
        """Insert key at position rank; later entries shift back one."""
        self.check_entry(key, value)
        lst = self.entries.setdefault(mid, [])
        if not 0 <= rank <= len(lst):
            if not lst:
                del self.entries[mid]
            raise NotFoundError(f"rank {rank} out of bounds for list of {len(lst)}")
        lst.insert(rank, (key, value))
        self.accesses += 1

    def map_get(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        lst = self.entries.get(mid)
        if lst is None or not 0 <= rank < len(lst):
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        self.accesses += 1
        return lst[rank]

    def map_remove(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        """Remove and return the entry at rank; empty ids are dropped."""
        lst = self.entries.get(mid)
        if lst is None or not 0 <= rank < len(lst):
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        self.accesses += 1
        out = lst.pop(rank)
        if not lst:
            del self.entries[mid]
        return out

    def find_rank(self, mid: int, key: int) -> int | None:
        """Rank of the first exact occurrence of key, or None."""
        self.accesses += 1
        for rank, (k, _) in enumerate(self.entries.get(mid, ())):
            if k == key:
                return rank
        return None

    def list_size(self, mid: int) -> int:
        return len(self.entries.get(mid, ()))

    def map_concat(self, other: "ReverseMap") -> "ReverseMap":
        """New map holding self's lists with other's appended per id."""
        if self.qbits != other.qbits:
            raise ConfigMismatchError(
                f"cannot concat maps with qbits {self.qbits} and {other.qbits}"
            )
        out = ReverseMap(self.qbits)
        for mid, lst in self.entries.items():
            out.entries[mid] = list(lst)
        for mid, lst in other.entries.items():
            out.entries.setdefault(mid, []).extend(lst)
        return out

    @property
    def key_count(self) -> int:
        return sum(len(lst) for lst in self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReverseMap):
            return NotImplemented
        return self.qbits == other.qbits and self.entries == other.entries

    # ------------------------------------------------------------------
    # snapshot

    def to_bytes(self) -> bytes:
        """Serialize in hash order (quotient, then remainder)."""
        q = self.qbits
        qmask = (1 << q) - 1
        out = [struct.pack("<4sIQ", MAP_MAGIC, MAP_VERSION, len(self.entries))]
        for mid in sorted(self.entries, key=lambda m: (m & qmask, m >> q)):
            lst = self.entries[mid]
            out.append(struct.pack("<BQI", q, mid, len(lst)))
            for key, value in lst:
                out.append(struct.pack("<I", 8))
                out.append(key.to_bytes(8, "little"))
                if value is None:
                    out.append(struct.pack("<I", _NO_VALUE))
                else:
                    out.append(struct.pack("<I", len(value)))
                    out.append(value)
        return b"".join(out)

    def _read(self, data: bytes) -> None:
        rd = ByteReader(data)
        rd.expect_magic(MAP_MAGIC)
        version = rd.u32()
        if version != MAP_VERSION:
            raise FormatError(f"unsupported map snapshot version {version}")
        count = rd.u64()
        for _ in range(count):
            q = rd.u8()
            if q != self.qbits:
                raise ConfigMismatchError(
                    f"snapshot records qbits {q}, map expects {self.qbits}"
                )
            mid = rd.u64()
            if mid in self.entries:
                raise FormatError(f"duplicate minirun id {mid}")
            length = rd.u32()
            lst = []
            for _ in range(length):
                klen = rd.u32()
                if klen != 8:
                    raise FormatError(f"key record of {klen} bytes, expected 8")
                key = int.from_bytes(rd.take(8), "little")
                vlen = rd.u32()
                value = None if vlen == _NO_VALUE else bytes(rd.take(vlen))
                lst.append((key, value))
            if not lst:
                raise FormatError(f"minirun id {mid} has an empty list")
            self.entries[mid] = lst
        rd.done()

    @classmethod
    def from_bytes(cls, data: bytes, qbits: int | None = None) -> "ReverseMap":
        """Parse a snapshot.  qbits may be omitted when records exist,
        since every record carries it; an empty snapshot needs it."""
        if qbits is None:
            rd = ByteReader(data)
            rd.expect_magic(MAP_MAGIC)
            rd.u32()
            if rd.u64() == 0:
                raise FormatError("empty snapshot does not record the quotient width")
            qbits = rd.u8()
        m = cls(qbits)
        m._read(data)
        return m

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path, qbits: int | None = None) -> "ReverseMap":
        m = cls.from_bytes(Path(path).read_bytes(), qbits)
        m.path = Path(path)
        return m

    def flush(self) -> None:
        """Persist to the backing file; only file-backed maps have one."""
        if self.path is None:
            raise InvalidConfigError("map has no backing path")
        self.save(self.path)
