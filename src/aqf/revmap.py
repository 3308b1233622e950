"""Reverse map from minirun ids back to the keys behind them.

The slot array stores fingerprints only; correcting a false positive
needs the original key so the right extension chunks can be pulled from
its hash.  Each minirun id owns an ordered list of (key, value) pairs
whose order mirrors minirun rank order, so an (id, rank) pair coming out
of the slot array addresses exactly one key here.

Values are optional byte strings.  Storing them makes the map double as
a small key-value store (the merged setup); leaving them None keeps the
map a pure key index (the split setup, values living elsewhere).

The map is stored flat.  The base holds one row per entry in hash order
(quotient, then remainder; the id rotated right by q bits), ties in rank
order: a uint64 id array, a uint64 key array, and a list of values that
is dropped while every value is None.  A directory over the top bits of
the quotient (the whole quotient once the map holds half as many rows as
there are quotients), like the slot array's ``FrozenIndex.dir``, bounds
each bucket's rows, so a scalar read is a dict miss, two directory reads
and a scan of about one row.  Writes go to an overlay, a dict holding
the whole list of every id written since the last compaction: the first
write to an id copies its base rows there, and reads try the overlay
first.  Once the overlay holds more ids than a fixed share of the base
rows, it is merged back: its ids are sorted once into hash order, and
its rows are placed between the kept base rows, which stay in order,
where the ids' base rows were (``_merged``); a save merges the same way
and leaves the overlay in place.  Live, a map without
values takes about 20 bytes per key at q=20: 16 in the two columns, the
rest in the directory.

Whole-map passes move the map as columns.  ``_columns()`` hands out the
ids, list lengths, keys and values in hash order, the row order of the
slot array's ``_columns()``, so the two pair row by row: the filter's
consistency check reads it, and merge and rebuild read it through
``setops._key_columns``.  ``_from_columns()`` stores hash-ordered rows
as the base; bulk load, merge and rebuild build their maps with it, and
no map is built by joining two maps.

The snapshot (version 2) is the key column in hash order, plus a length
column and the value bytes only when some value is stored, and a CRC32
trailer: 8 bytes per key without values.  No minirun id is written.
The ids are the slot array's, one per fingerprint in hash order, so the
filter's decoder hands them to ``from_bytes``, which loads the key
column as an array and checks every length against the bytes at hand.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .core import _ranges, _stable_order
from .errors import (
    FormatError,
    InvalidConfigError,
    NotFoundError,
    UnsortedInputError,
)
from .hashing import MASK64
from .snapshot import le_bytes, sealed, unseal

# value length sentinel meaning "no value stored"
_NO_VALUE = 0xFFFFFFFF

# the overlay is merged into the base once it holds more ids than this
# share of the base rows, and more than _COMPACT_MIN
_COMPACT_SHARE = 0.125
_COMPACT_MIN = 64


def _rotr(x: np.ndarray, k: int) -> np.ndarray:
    """uint64 values rotated right by k bits, 0 < k < 64."""
    return (x >> np.uint64(k)) | (x << np.uint64(64 - k))


def _join_values(*parts: tuple[list | None, int]) -> list | None:
    """(value column, row count) parts joined; None stands for a column
    of all None, in the parts and in the result."""
    if all(v is None or v.count(None) == n for v, n in parts):
        return None
    return [x for v, n in parts for x in (itertools.repeat(None, n) if v is None else v)]


def _sort_rows(q: int, mids: np.ndarray, keys: np.ndarray, values: list | None):
    """Rows stably sorted into hash order, so each id's rows keep their order."""
    perm = _stable_order(_rotr(mids, q), 64)
    return (mids[perm], keys[perm],
            None if values is None else list(map(values.__getitem__, perm.tolist())))


class ReverseMap:
    """Ordered key lists per minirun id, with rank addressing.

    ``accesses`` counts every list read or write and exists so callers
    can prove a code path never touched the map.  Compaction, the
    column passes and the decoder count nothing.
    """

    def __init__(self, qbits: int):
        if not 1 <= qbits <= 56:
            raise InvalidConfigError(f"qbits {qbits} out of range [1, 56]")
        self.qbits = qbits
        self.accesses = 0
        self._set_base(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64), None)

    def _set_base(self, mids: np.ndarray, keys: np.ndarray, values: list | None) -> None:
        """Make hash-ordered rows the base and empty the overlay.

        values is None when every value is None.
        """
        n = len(mids)
        # at most one row per bucket on average; a whole quotient per
        # bucket once the map holds over half as many rows as quotients
        bits = min(self.qbits, n.bit_length())
        self._qmask, self._qshift = (1 << self.qbits) - 1, self.qbits - bits
        # a bucket is the top bits of the quotient, the id's low q bits
        bucket = (mids & np.uint64(self._qmask)) >> np.uint64(self._qshift)
        dirs = np.zeros((1 << bits) + 1, dtype=np.int32 if n < 1 << 31 else np.int64)
        np.cumsum(np.bincount(bucket.astype(np.intp), minlength=1 << bits), out=dirs[1:])
        self._mids, self._keys, self._values = mids, keys, values
        # memoryviews index to Python ints without a numpy scalar
        self._midv, self._keyv, self._dirv = memoryview(mids), memoryview(keys), memoryview(dirs)
        self._over: dict[int, list[tuple[int, bytes | None]]] = {}
        self._found = (None, 0, 0)  # (id, lo, hi) of find_rank's last base scan
        self._nkeys = n
        self._nids = int(np.count_nonzero(mids[1:] != mids[:-1])) + (n > 0)
        # overlay size past which a write compacts
        self._limit = max(_COMPACT_MIN, _COMPACT_SHARE * n)

    def _span(self, mid: int) -> tuple[int, int]:
        """Base rows [lo, hi) of mid; an empty range when it has none."""
        b = (mid & self._qmask) >> self._qshift
        midv, dv = self._midv, self._dirv
        lo, end = dv[b], dv[b + 1]
        while lo < end and midv[lo] != mid:
            lo += 1
        hi = lo
        while hi < end and midv[hi] == mid:
            hi += 1
        return lo, hi

    def _writable(self, mid: int, rank: int, room: int) -> list:
        """mid's overlay list, for a write at a rank below its length
        plus room; a first write copies the id's base rows there.  The
        rows come from find_rank's scan when it was the last to look mid
        up in the base, so a delete or a deduplicated insert scans once."""
        lst = self._over.get(mid)
        if lst is None:
            found, lo, hi = self._found
            if found != mid:
                lo, hi = self._span(mid)
            size = hi - lo
        else:
            size = len(lst)
        if not 0 <= rank < size + room:
            raise NotFoundError(f"rank {rank} out of bounds for the {size} entries "
                                f"of minirun {mid}")
        if lst is None:
            keyv, values = self._keyv, self._values
            lst = self._over[mid] = []
            while lo < hi:
                lst.append((keyv[lo], None if values is None else values[lo]))
                lo += 1
        return lst

    def _compact(self) -> None:
        """Merge the overlay into the base."""
        self._set_base(*self._merged())

    @staticmethod
    def check_entry(key: int, value: bytes | None) -> None:
        """Raise InvalidConfigError unless (key, value) can be stored."""
        if not 0 <= key <= MASK64:
            raise InvalidConfigError("key must fit in 64 bits")
        if value is not None and not isinstance(value, bytes):
            raise InvalidConfigError("value must be bytes or None")

    def map_insert(self, mid: int, rank: int, key: int, value: bytes | None = None) -> None:
        """Insert key at position rank; later entries shift back one."""
        self.check_entry(key, value)
        if not 0 <= mid <= MASK64:
            raise InvalidConfigError("minirun id must fit in 64 bits")
        lst = self._writable(mid, rank, 1)
        lst.insert(rank, (key, value))
        self._nids += len(lst) == 1
        self._nkeys += 1
        self.accesses += 1
        if len(self._over) > self._limit:
            self._compact()

    def map_get(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        lst = self._over.get(mid)
        if lst is not None:
            if not 0 <= rank < len(lst):
                raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
            self.accesses += 1
            return lst[rank]
        lo, hi = self._span(mid)
        if not 0 <= rank < hi - lo:
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        self.accesses += 1
        values = self._values
        return self._keyv[lo + rank], None if values is None else values[lo + rank]

    def map_remove(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        """Remove and return the entry at rank; empty ids are dropped."""
        lst = self._writable(mid, rank, 0)
        out = lst.pop(rank)
        self._nids -= not lst
        self._nkeys -= 1
        self.accesses += 1
        if len(self._over) > self._limit:
            self._compact()
        return out

    def find_rank(self, mid: int, key: int) -> int | None:
        """Rank of the first exact occurrence of key, or None."""
        self.accesses += 1
        lst = self._over.get(mid)
        if lst is not None:
            for rank, (k, _) in enumerate(lst):
                if k == key:
                    return rank
            return None
        lo, hi = self._span(mid)
        self._found = (mid, lo, hi)
        keyv = self._keyv
        for row in range(lo, hi):
            if keyv[row] == key:
                return row - lo
        return None

    def list_size(self, mid: int) -> int:
        lst = self._over.get(mid)
        if lst is not None:
            return len(lst)
        lo, hi = self._span(mid)
        return hi - lo

    @property
    def key_count(self) -> int:
        return self._nkeys

    def __len__(self) -> int:
        return self._nids

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReverseMap):
            return NotImplemented
        if self.qbits != other.qbits:
            return False
        (ma, ka, va), (mb, kb, vb) = self._merged(), other._merged()
        return (np.array_equal(ma, mb) and np.array_equal(ka, kb)
                and _join_values((va, len(ma))) == _join_values((vb, len(mb))))

    # ------------------------------------------------------------------
    # columns: the one way out of the map and the one way in

    def _merged(self) -> tuple[np.ndarray, np.ndarray, list | None]:
        """(ids, keys, values) of every entry, overlay included.

        Rows in hash order, ties in rank order; values is None when
        every value is None.  The base rows of the overlay's ids are
        dropped and its lists take their place; nothing is re-sorted but
        the overlay's ids.
        """
        over = self._over
        if not over:
            return self._mids, self._keys, self._values
        q, mids, values = self.qbits, self._mids, self._values
        ids = np.fromiter(over, dtype=np.uint64, count=len(over))
        lists = list(over.values())
        lengths = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        flat = list(itertools.chain.from_iterable(lists))
        # the overlay's ids in hash order (they are distinct), and its
        # rows in that order, each list in rank order
        at = _rotr(ids, q)
        by_hash = np.argsort(at)
        rows = _ranges((np.cumsum(lengths) - lengths)[by_hash], lengths[by_hash])
        ids, at, lengths = ids[by_hash], at[by_hash], lengths[by_hash]
        order = _rotr(mids, q)
        lo = np.searchsorted(order, at, side="left")
        dropped = np.searchsorted(order, at, side="right") - lo
        keep = np.ones(len(mids), dtype=bool)
        keep[_ranges(lo, dropped)] = False

        # the kept rows stay in hash order, and an id's overlay rows go
        # where its base rows were: after the kept rows below it and the
        # overlay rows of the ids below it
        start = lo - (np.cumsum(dropped) - dropped) + (np.cumsum(lengths) - lengths)
        mine = np.zeros(len(mids) - int(dropped.sum()) + len(flat), dtype=bool)
        mine[_ranges(start, lengths)] = True
        base = ~mine
        out_mids = np.empty(len(mine), dtype=np.uint64)
        out_mids[mine] = np.repeat(ids, lengths)
        out_mids[base] = mids[keep]
        out_keys = np.empty(len(mine), dtype=np.uint64)
        out_keys[mine] = np.fromiter(map(operator.itemgetter(0), flat), dtype=np.uint64,
                                     count=len(flat))[rows]
        out_keys[base] = self._keys[keep]
        new_values = list(map(operator.itemgetter(1), flat))
        kept_values = [] if values is None else list(itertools.compress(values, keep.tolist()))
        if kept_values.count(None) == len(kept_values) and new_values.count(None) == len(flat):
            return out_mids, out_keys, None
        kept = iter(kept_values or itertools.repeat(None))
        fresh = map(new_values.__getitem__, rows.tolist())
        return out_mids, out_keys, [next(fresh) if m else next(kept) for m in mine.tolist()]

    def _columns(self):
        """(ids, lengths, keys, values) in hash order.

        ids is a uint64 array of the minirun ids sorted by quotient, then
        remainder; lengths (int64) gives each id's list length; keys
        (uint64) and values (a list, or None when every value is None)
        hold the entries of those lists one after the other, each list in
        rank order.
        """
        mids, keys, values = self._merged()
        starts = np.flatnonzero(np.diff(mids, prepend=~mids[:1]))
        return (mids[starts], np.diff(starts, append=len(mids)), keys,
                None if values is None else list(values))

    @classmethod
    def _from_columns(cls, qbits: int, mids: np.ndarray, keys: np.ndarray,
                      values) -> "ReverseMap":
        """Map holding (keys[i], values[i]) under mids[i]; values None
        stands for a value of None at every key.

        Each list's rows come in rank order.  Rows in hash order become
        the base as they are; others are stably sorted into it first.
        Counts one access per entry, as building it with map_insert
        would.
        """
        m = cls(qbits)
        rows = (np.array(mids, dtype=np.uint64), np.array(keys, dtype=np.uint64),
                _join_values((values, len(keys))))
        order = _rotr(rows[0], qbits)
        if (order[1:] < order[:-1]).any():
            rows = _sort_rows(qbits, *rows)
        m._set_base(*rows)
        m.accesses = len(keys)
        return m

    # ------------------------------------------------------------------
    # snapshot

    def to_bytes(self) -> bytes:
        """Serialize as version 2: the key column in hash order.

        Little-endian: one u64 key per entry, ties in rank order.  When
        some value is stored, a u32 length per entry follows
        (0xFFFFFFFF for None), then the values' bytes one after the
        other.  A CRC32 of everything before it ends the bytes.  The
        minirun ids are not written: the slot array implies them.
        """
        return b"".join(self._parts())

    def _parts(self) -> list:
        """to_bytes as a list of parts (see snapshot), the key column as
        a view of the map's own array."""
        _, keys, values = self._merged()
        parts = [le_bytes(keys, "<u8")]
        if values is not None:
            lengths = np.fromiter((_NO_VALUE if v is None else len(v) for v in values),
                                  dtype="<u4", count=len(values))
            parts += [le_bytes(lengths, "<u4"), b"".join(filter(None, values))]
        return sealed(parts)

    @classmethod
    def from_bytes(cls, data: bytes, qbits: int, mids: np.ndarray) -> "ReverseMap":
        """Parse a snapshot whose entries belong to mids, the uint64 id
        of each entry in hash order (ties: one id per rank).

        Only what to_bytes writes loads: a length column appears only
        when some entry holds a value, and the value bytes must fill the
        rest exactly.  The lengths are summed and checked against the
        bytes at hand before any value is cut out.
        """
        m = cls(qbits)
        body = unseal(data)
        n = len(mids)
        if len(body) < 8 * n:
            raise FormatError(f"map section of {len(body)} bytes is short of {n} keys")
        mids = np.asarray(mids, dtype=np.uint64)
        order = _rotr(mids, qbits)
        if (order[1:] < order[:-1]).any():
            raise UnsortedInputError("minirun ids are not in hash order")
        keys = np.frombuffer(body, dtype="<u8", count=n).astype(np.uint64)
        rest = body[8 * n :]
        values = None
        if len(rest):
            if len(rest) < 4 * n:
                raise FormatError(f"map section is short of a length column for {n} keys")
            lengths = np.frombuffer(rest, dtype="<u4", count=n).astype(np.int64)
            held = lengths != _NO_VALUE
            if not held.any():
                raise FormatError("length column without a value")
            ends = np.cumsum(np.where(held, lengths, 0))
            blob = bytes(rest[4 * n :])
            if ends[-1] != len(blob):
                raise FormatError(f"lengths add up to {ends[-1]} value bytes, "
                                  f"the section holds {len(blob)}")
            values = [blob[a - k : a] if h else None
                      for a, k, h in zip(ends.tolist(), lengths.tolist(), held.tolist())]
        m._set_base(mids, keys, values)
        return m
