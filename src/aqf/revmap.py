"""Reverse map from minirun ids back to the keys behind them.

The slot array stores fingerprints only; correcting a false positive
needs the original key so the right extension chunks can be pulled from
its hash.  Each minirun id owns an ordered list of (key, value) pairs
whose order mirrors minirun rank order, so an (id, rank) pair coming out
of the slot array addresses exactly one key here.

Values are optional byte strings.  Storing them makes the map double as
a small key-value store (the merged setup); leaving them None keeps the
map a pure key index (the split setup, values living elsewhere).

Whole-map passes move the map as columns.  ``_columns()`` hands out the
ids, list lengths, keys and values in hash order; the snapshot encoder,
the filter's consistency check, merge and rebuild read it.
``_from_columns()`` builds a map from hash-ordered rows, one list per
run of equal ids; bulk load, merge and rebuild build their maps with
it.  The decoder is one loop of precompiled struct unpacks and accepts
records only in strictly increasing hash order, so every snapshot it
loads encodes back to its own bytes.
"""

from __future__ import annotations

import itertools
import operator
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigMismatchError, FormatError, InvalidConfigError, NotFoundError

MAP_MAGIC = b"AQFM"
MAP_VERSION = 1

# value length sentinel meaning "no value stored"
_NO_VALUE = 0xFFFFFFFF

_MASK64 = (1 << 64) - 1

# snapshot head, per-id record and per-entry header
_HEAD = struct.Struct("<4sIQ")
_REC = struct.Struct("<BQI")
_ENT = struct.Struct("<IQI")
_REC_DT = np.dtype([("q", "u1"), ("mid", "<u8"), ("n", "<u4")])
_ENT_DT = np.dtype([("klen", "<u4"), ("key", "<u8"), ("vlen", "<u4")])


def _rotr(x: np.ndarray, k: int) -> np.ndarray:
    """uint64 values rotated right by k bits, 0 < k < 64."""
    return (x >> np.uint64(k)) | (x << np.uint64(64 - k))


def _head(data) -> int:
    """Record count of a map snapshot, after checking magic and version."""
    try:
        magic, version, count = _HEAD.unpack_from(data)
    except struct.error as exc:
        raise FormatError("snapshot truncated") from exc
    if magic != MAP_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAP_MAGIC!r}")
    if version != MAP_VERSION:
        raise FormatError(f"unsupported map snapshot version {version}")
    return count


class ReverseMap:
    """Ordered key lists per minirun id, with rank addressing.

    ``accesses`` counts every list read or write and exists so callers
    can prove a code path never touched the map.
    """

    def __init__(self, qbits: int):
        if not 1 <= qbits <= 56:
            raise InvalidConfigError(f"qbits {qbits} out of range [1, 56]")
        self.qbits = qbits
        self.entries: dict[int, list[tuple[int, bytes | None]]] = {}
        self.accesses = 0

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
    # columns: the one way out of the map and the one way in

    def _columns(self):
        """(ids, lengths, keys, values) in hash order.

        ids is a uint64 array of the minirun ids sorted by quotient, then
        remainder; lengths (int64) gives each id's list length; keys
        (uint64) and values (a list) hold the entries of those lists one
        after the other, each list in rank order.
        """
        q = self.qbits
        mids = np.fromiter(self.entries, dtype=np.uint64, count=len(self.entries))
        # rotating an id right by q bits puts its quotient on top
        mids = _rotr(np.sort(_rotr(mids, q)), 64 - q)
        lists = list(map(self.entries.__getitem__, mids.tolist()))
        lengths = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        flat = list(itertools.chain.from_iterable(lists))
        keys = np.fromiter(map(operator.itemgetter(0), flat), dtype=np.uint64, count=len(flat))
        return mids, lengths, keys, list(map(operator.itemgetter(1), flat))

    @classmethod
    def _from_columns(cls, qbits: int, mids: np.ndarray, keys: np.ndarray,
                      values) -> "ReverseMap":
        """Map holding (keys[i], values[i]) under mids[i].

        Rows come in hash order, so equal ids are adjacent, and ties in
        rank order: each list is one slice of the rows.  Counts one
        access per entry, as building it with map_insert would.
        """
        m = cls(qbits)
        if not len(mids):
            return m
        rows = list(zip(keys.tolist(), values))
        bounds = [0, *(np.flatnonzero(np.diff(mids)) + 1).tolist(), len(rows)]
        m.entries = {mid: rows[a:b] for mid, a, b
                     in zip(mids[bounds[:-1]].tolist(), bounds, bounds[1:])}
        m.accesses = len(rows)
        return m

    # ------------------------------------------------------------------
    # snapshot

    def to_bytes(self) -> bytes:
        """Serialize in hash order (quotient, then remainder).

        v1, little-endian: magic, version (u32), record count (u64); per
        minirun id a 13-byte record (q u8, id u64, list length u32); per
        entry a 16-byte header (key length u32, always 8; key u64; value
        length u32, 0xFFFFFFFF for None) and then the value's bytes.
        """
        mids, lengths, keys, values = self._columns()
        nrec, nent = len(mids), len(keys)
        rec = np.empty(nrec, dtype=_REC_DT)
        rec["q"], rec["mid"], rec["n"] = self.qbits, mids, lengths
        ent = np.empty(nent, dtype=_ENT_DT)
        ent["klen"], ent["key"] = 8, keys
        ent["vlen"] = np.fromiter((_NO_VALUE if v is None else len(v) for v in values),
                                  dtype=np.uint32, count=nent)
        vbytes = np.where(ent["vlen"] == _NO_VALUE, 0, ent["vlen"])

        # segments in file order: a record, then per entry its header
        # and its value; one kind code (0, 1, 2) per byte routes each
        # stream of bytes to its places
        seg_rec = np.arange(nrec) + 2 * (np.cumsum(lengths) - lengths)
        seg_ent = np.repeat(np.arange(nrec), lengths) + 1 + 2 * np.arange(nent)
        kind = np.full(nrec + 2 * nent, 2, dtype=np.uint8)
        kind[seg_rec], kind[seg_ent] = 0, 1
        size = np.empty(len(kind), dtype=np.int64)
        size[seg_rec], size[seg_ent], size[seg_ent + 1] = _REC.size, _ENT.size, vbytes
        del seg_rec, seg_ent
        kind = np.repeat(kind, size)

        out = np.empty(_HEAD.size + len(kind), dtype=np.uint8)
        out[: _HEAD.size] = np.frombuffer(_HEAD.pack(MAP_MAGIC, MAP_VERSION, nrec), np.uint8)
        body = out[_HEAD.size :]
        for code, part in enumerate((rec, ent, b"".join(filter(None, values)))):
            body[kind == code] = np.frombuffer(part, dtype=np.uint8)
        return out.tobytes()

    def _read(self, data) -> None:
        """Load the records of a v1 snapshot into this (empty) map.

        Records must come in strictly increasing hash order, as
        to_bytes writes them, so that every snapshot that loads encodes
        back to its own bytes.
        """
        count = _head(data)
        mv = memoryview(data)
        end = len(mv)
        q = self.qbits
        rec, ent = _REC.unpack_from, _ENT.unpack_from
        entries = self.entries
        pos, prev = _HEAD.size, -1
        try:
            for _ in range(count):
                rq, mid, length = rec(mv, pos)
                pos += _REC.size
                if rq != q:
                    if not 1 <= rq <= 56:
                        raise FormatError(f"record qbits {rq} out of range [1, 56]")
                    raise ConfigMismatchError(
                        f"snapshot records qbits {rq}, map expects {q}"
                    )
                order = ((mid << (64 - q)) & _MASK64) | (mid >> q)
                if order <= prev:
                    raise FormatError(f"minirun id {mid} is not past its predecessor "
                                      "in hash order")
                prev = order
                lst = []
                for _ in range(length):
                    klen, key, vlen = ent(mv, pos)
                    pos += _ENT.size
                    if klen != 8:
                        raise FormatError(f"key record of {klen} bytes, expected 8")
                    if vlen == _NO_VALUE:
                        lst.append((key, None))
                        continue
                    if pos + vlen > end:
                        raise FormatError("snapshot truncated")
                    lst.append((key, mv[pos : pos + vlen].tobytes()))
                    pos += vlen
                if not lst:
                    raise FormatError(f"minirun id {mid} has an empty list")
                entries[mid] = lst
        except struct.error as exc:
            raise FormatError("snapshot truncated") from exc
        if pos != end:
            raise FormatError(f"{end - pos} trailing bytes")

    @classmethod
    def from_bytes(cls, data: bytes, qbits: int | None = None) -> "ReverseMap":
        """Parse a snapshot.  qbits may be omitted when records exist,
        since every record carries it; an empty snapshot needs it."""
        if qbits is None:
            if _head(data) == 0:
                raise FormatError("empty snapshot does not record the quotient width")
            if len(data) <= _HEAD.size:
                raise FormatError("snapshot truncated")
            qbits = data[_HEAD.size]
            if not 1 <= qbits <= 56:
                raise FormatError(f"record qbits {qbits} out of range [1, 56]")
        m = cls(qbits)
        m._read(data)
        return m

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path, qbits: int | None = None) -> "ReverseMap":
        return cls.from_bytes(Path(path).read_bytes(), qbits)
