"""Reverse map from minirun ids back to the keys behind them.

The slot array stores fingerprints only; correcting a false positive
needs the original key so the right extension chunks can be pulled from
its hash.  Each minirun id owns an ordered list of (key, value) pairs
whose order mirrors minirun rank order, so an (id, rank) pair coming out
of the slot array addresses exactly one key here.  A filter's map holds
each key's hash word in place of the key (``hashing.unhash_word`` gives
the key back); the map compares its entries as plain u64s and needs
nothing else of them.  An id is its
(quotient, remainder) pair packed as ``(quotient << r) | remainder``,
so ascending ids are hash order; the map needs nothing else of them.

Values are optional byte strings.  Storing them makes the map double as
a small key-value store (the merged setup); leaving them None keeps the
map a pure key index (the split setup, values living elsewhere).

The map is stored flat.  The base holds one row per entry in ascending
id order, ties in rank order: a uint64 id array, a uint64 key array, and
a list of values that is dropped while every value is None.  A scalar
read is a dict miss, a bisection of the id column and a scan of about
one row; an id outside
[0, 2**64) is read as missing, and refused by writes.  Writes go to an
overlay, a dict holding the whole list of every id written since the
last compaction: the first write to an id copies its base rows there,
and reads try the overlay first.  Once the overlay holds more ids than a
fixed share of the base rows, it is merged back: its ids are sorted
once, and its rows are placed between the kept base rows, which stay in
order, where the ids' base rows were (``_merged``); a save merges the
same way and leaves the overlay in place.  Live, a map without values
takes 16 bytes per key, its two columns.

Whole-map passes move the map as columns.  ``_merged()`` hands out the
id, key and value of every row in hash order, the row order of the slot
array's ``_columns()``, so the two pair row by row: the filter's
consistency check compares them, and merge and rebuild read them
through ``setops._key_columns``.  ``_from_columns()`` stores
hash-ordered rows as the base, and refuses rows out of order; bulk
load, merge, rebuild and the yes/no build make their maps with it, and
no map is built by joining two maps.

A snapshot holds the entries in hash order, then a length column and
the value bytes only when some value is stored.  No minirun id is
written: the ids are the slot array's, one per fingerprint in hash
order, so the filter's decoder hands them to the map's, which checks
every length against the bytes at hand.  A map's own snapshot
(``to_bytes``) writes each entry whole, as a u64, under a CRC32
trailer.  A filter's entries are its keys' hash words, whose top q + r
bits are their ids, so its section (``_parts(w)``) writes only the low
w = 64 - q - r bits of each (``_columns_of``): 5 bytes per key for
q + r in 24..31, and the loader puts each row's id back above them.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left

import numpy as np

from .core import _BLOCK, _ranges, _slot_dtype
from .errors import (
    FormatError,
    InvalidConfigError,
    NotFoundError,
    UnsortedInputError,
)
from .hashing import MASK64, as_index
from .snapshot import le_bytes, sealed, unseal

# value length sentinel meaning "no value stored"
_NO_VALUE = 0xFFFFFFFF

# the overlay is merged into the base once it holds more ids than this
# share of the base rows, and more than _COMPACT_MIN
_COMPACT_SHARE = 0.125
_COMPACT_MIN = 64


def _hash_ordered(mids) -> np.ndarray:
    """mids as a uint64 array; UnsortedInputError unless they ascend,
    which is hash order.  Checked a block at a time so that no
    whole-column temporary is made."""
    mids = np.asarray(mids, dtype=np.uint64)
    for a in range(0, len(mids), _BLOCK):
        at = mids[a : a + _BLOCK + 1]
        if (at[1:] < at[:-1]).any():
            raise UnsortedInputError("minirun ids are not in hash order")
    return mids


def _columns_of(w: int) -> list[tuple[int, int, np.dtype]]:
    """(shift, width, little-endian dtype) of each snapshot column that
    holds the low w bits of the entries, low bits first: a whole entry
    (w = 64) is one u64 column; else the low 32 bits, or all w when
    fewer, then the rest, each column in the narrowest unsigned dtype
    that holds it (_slot_dtype)."""
    widths = [(0, 64)] if w == 64 else [(0, min(w, 32)), (32, w - 32)]
    return [(shift, width, np.dtype(_slot_dtype(width)).newbyteorder("<"))
            for shift, width in widths if width > 0]


def _join_values(*parts: tuple[list | None, int]) -> list | None:
    """(value column, row count) parts joined; None stands for a column
    of all None, in the parts and in the result."""
    if all(v is None or v.count(None) == n for v, n in parts):
        return None
    return [x for v, n in parts for x in (itertools.repeat(None, n) if v is None else v)]


class ReverseMap:
    """Ordered key lists per minirun id, with rank addressing.

    ``accesses`` counts every list read or write and exists so callers
    can prove a code path never touched the map.  Compaction, the
    column passes and the decoder count nothing.
    """

    def __init__(self):
        self.accesses = 0
        self._set_base(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64), None)

    def _set_base(self, mids: np.ndarray, keys: np.ndarray, values: list | None) -> None:
        """Make hash-ordered rows the base and empty the overlay; the
        map keeps the arrays it is handed.

        values is None when every value is None.
        """
        n = len(mids)
        self._mids, self._keys, self._values = mids, keys, values
        # memoryviews index to Python ints without a numpy scalar
        self._midv, self._keyv = memoryview(mids), memoryview(keys)
        self._over: dict[int, list[tuple[int, bytes | None]]] = {}
        self._found = (None, 0, 0)  # (id, lo, hi) of find_rank's last base scan
        self._nkeys = n
        # overlay size past which a write compacts
        self._limit = max(_COMPACT_MIN, _COMPACT_SHARE * n)

    def _span(self, mid: int) -> tuple[int, int]:
        """Base rows [lo, hi) of mid; an empty range when it has none."""
        midv = self._midv
        lo = hi = bisect_left(midv, mid)
        end = len(midv)
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
        rank = as_index(rank, "rank")
        lst = self._writable(mid, rank, 1)
        lst.insert(rank, (key, value))
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
        rank = as_index(rank, "rank")
        lst = self._writable(mid, rank, 0)
        out = lst.pop(rank)
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReverseMap):
            return NotImplemented
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
        mids, values = self._mids, self._values
        ids = np.fromiter(over, dtype=np.uint64, count=len(over))
        lists = list(over.values())
        lengths = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        flat = list(itertools.chain.from_iterable(lists))
        # the overlay's ids in hash order (they are distinct), and its
        # rows in that order, each list in rank order
        by_hash = np.argsort(ids)
        rows = _ranges((np.cumsum(lengths) - lengths)[by_hash], lengths[by_hash])
        ids, lengths = ids[by_hash], lengths[by_hash]
        lo = np.searchsorted(mids, ids, side="left")
        dropped = np.searchsorted(mids, ids, side="right") - lo
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

    @classmethod
    def _from_columns(cls, mids: np.ndarray, keys: np.ndarray, values) -> "ReverseMap":
        """Map holding (keys[i], values[i]) under mids[i]; values None
        stands for a value of None at every key.

        Rows come in hash order, each list's in rank order, and become
        the base as they are; the map keeps the arrays, which the caller
        no longer uses.  Counts one access per entry, as building it
        with map_insert would.  Ids out of order raise
        UnsortedInputError.
        """
        m = cls()
        m._set_base(_hash_ordered(mids), np.asarray(keys, dtype=np.uint64),
                    _join_values((values, len(keys))))
        m.accesses = len(keys)
        return m

    # ------------------------------------------------------------------
    # snapshot

    def to_bytes(self) -> bytes:
        """Serialize: every entry whole, then the values, sealed.

        Little-endian: one u64 entry per row in hash order, ties in rank
        order.  When some value is stored, a u32 length per entry follows
        (0xFFFFFFFF for None), then the values' bytes one after the
        other.  A CRC32 of everything before it ends the bytes.  The
        minirun ids are not written: the slot array implies them.
        """
        return b"".join(sealed(self._parts(64)))

    def _parts(self, w: int) -> list:
        """The entries' low w bits (see _columns_of) and the values, as a
        list of parts (see snapshot) without a trailer."""
        _, keys, values = self._merged()
        parts = []
        for shift, width, dt in _columns_of(w):
            if shift:
                col = np.right_shift(keys, np.uint64(shift), out=np.empty(len(keys), dtype=dt),
                                     casting="unsafe")
            else:
                col = keys.astype(dt)  # a plain cast: the low bits, and faster than a shift
            if width < 8 * dt.itemsize:
                col &= dt.type((1 << width) - 1)
            parts.append(le_bytes(col, dt))
        if values is not None:
            lengths = np.fromiter((_NO_VALUE if v is None else len(v) for v in values),
                                  dtype="<u4", count=len(values))
            parts += [le_bytes(lengths, "<u4"), b"".join(filter(None, values))]
        return parts

    @classmethod
    def from_bytes(cls, data: bytes, mids: np.ndarray) -> "ReverseMap":
        """Parse a snapshot whose entries belong to mids, the uint64 id
        of each entry in hash order (ties: one id per rank)."""
        return cls._decode(unseal(data), mids, 64)

    @classmethod
    def _decode(cls, body, mids: np.ndarray, w: int) -> "ReverseMap":
        """from_bytes of _parts(w): each entry is its id above its w
        written bits.

        Only what _parts writes loads: no bit set past a column's width,
        a length column only when some entry holds a value, and value
        bytes that fill the rest exactly.  The lengths are summed and
        checked against the bytes at hand before any value is cut out.
        Ids out of order raise UnsortedInputError.
        """
        m = cls()
        n = len(mids)
        size = n * sum(dt.itemsize for _, _, dt in _columns_of(w))
        if len(body) < size:
            raise FormatError(f"map section of {len(body)} bytes is short of {n} entries")
        mids = _hash_ordered(mids)
        keys = mids.copy()
        for shift, width, dt in reversed(_columns_of(w)):
            col = np.frombuffer(body, dtype=dt, count=n, offset=n * shift // 8)
            if width < 8 * dt.itemsize and int(col.max(initial=0)) >> width:
                raise FormatError(f"map entry with bits set past its {width}-bit column")
            keys <<= np.uint64(width)  # numpy shifts a whole entry's id out to 0
            keys |= col
        rest = body[size:]
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
