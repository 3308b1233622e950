"""Reverse map from minirun ids back to the keys behind them.

The slot array stores fingerprints only; correcting a false positive
needs the original key so the right extension chunks can be pulled from
its hash.  Each minirun id owns an ordered list of (entry, value) pairs
whose order mirrors minirun rank order, so an (id, rank) pair coming out
of the slot array addresses exactly one entry here.  An id is its
(quotient, remainder) pair packed as ``(quotient << r) | remainder``,
so ascending ids are hash order.  A filter's map holds each key's hash
word in place of the key (``hashing.unhash_word`` gives the key back),
whose top q + r bits are its id: every entry carries its id above its
w = 64 - q - r low bits, the map reads a row's id as ``entry >> w``, and
keeps no id of its own.  The map is built with w, and refuses an entry
that does not carry the id it is written under.

Values are optional byte strings.  Storing them makes the map double as
a small key-value store (the merged setup); leaving them None keeps the
map a pure key index (the split setup, values living elsewhere).

The map is a list of 2**k blocks, block i holding the rows whose ids'
top k bits are i, each block owning its rows as an array ('Q') of
entries and, when some value in it is set, a list of values, in
ascending id order, ties in rank order.  k is the fewest bits, at most
the id's q + r, that keep the average block at _ROWS rows or fewer; an
entry is a hash word, whose top bits are uniform, so the blocks come
out about even.  A scalar read finds its id's block by the id's top k
bits, ``(mid >> shift) & (len(blocks) - 1)``, then bisects the block's
entries for ``mid << w``.  A write shifts the rows after it within its
block.  One path slices hash-ordered rows into blocks (``_fill``):
builds and loads take it.  An insert that takes the map past _ROWS rows
per block cuts each block in two at one more bit (``_split``), block i
into blocks 2i and 2i + 1, which are the slices ``_fill`` would cut.
Removes never slice: a drained map keeps its blocks until it is built
or loaded again.  Keys whose hashes share their top bits, or one
key stored many times, make one large block, as they make one long run
in the slot array.  A map without values takes 8 bytes per key.

Whole-map passes read the blocks' entries, in hash order, the row
order of the slot array's ``_columns()``, so the two pair row by row:
the filter's consistency check compares them a table block at a time
(``_reader``), and merge, rebuild and a save read them run by run
(``_runs``): a save casts each block's rows into the snapshot's columns.
``_from_columns()`` refuses rows out of order; bulk load, merge, rebuild
and the yes/no build make their maps with it, and no map is built by
joining two maps.

A snapshot holds the entries in hash order, then a length column and
the value bytes only when some value is stored.  No minirun id is
written: the ids are the slot array's, one per fingerprint in hash
order, so the filter's decoder hands them to the map's, which checks
every length against the bytes at hand.  Only the low w bits of each
entry are written (``_columns_of``): 5 bytes per key for q + r in
24..31, and the loader puts each row's id back above them.  A map's own
snapshot (``to_bytes``) is the filter's section under a CRC32 trailer.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from bisect import bisect_left
from functools import cache, partial

import numpy as np

from .core import _BLOCK, _slot_dtype
from .errors import (
    FormatError,
    InvalidConfigError,
    NotFoundError,
    UnsortedInputError,
)
from .hashing import MASK64, _int_in, as_index
from .snapshot import Fill, le_bytes, seal, unseal

# value length sentinel meaning "no value stored"
_NO_VALUE = 0xFFFFFFFF

# the most rows a block holds on average: past that, an insert slices
# the map anew with one more bit
_ROWS = 4096

_NONE = np.zeros(0, dtype=np.uint64)

# which of a uint64's two 32-bit halves, in memory, holds its high bits
_HIGH = int(sys.byteorder == "little")


def _hash_ordered(entries, w: int) -> np.ndarray:
    """entries as a uint64 array; UnsortedInputError unless their ids,
    entry >> w, ascend, which is hash order.  Checked a block at a time
    so that no whole-column temporary is made."""
    entries = np.asarray(entries, dtype=np.uint64)
    for a in range(0, len(entries), _BLOCK):
        ids = entries[a : a + _BLOCK + 1] >> np.uint64(w)
        if (ids[1:] < ids[:-1]).any():
            raise UnsortedInputError("minirun ids are not in hash order")
    return entries


@cache
def _columns_of(w: int) -> tuple[tuple[int, int, np.dtype], ...]:
    """(shift, width, little-endian dtype) of each snapshot column that
    holds the low w bits of the entries, low bits first: the low 32
    bits, or all w when fewer, then the rest, each column in the
    narrowest unsigned dtype that holds it (_slot_dtype)."""
    return tuple((shift, width, np.dtype(_slot_dtype(width)).newbyteorder("<"))
                 for shift, width in ((0, min(w, 32)), (32, w - 32)) if width > 0)


def _join_values(*parts: tuple[list | None, int]) -> list | None:
    """(value column, row count) parts joined; None stands for a column
    of all None, in the parts and in the result."""
    if all(v is None or v.count(None) == n for v, n in parts):
        return None
    return [x for v, n in parts for x in (itertools.repeat(None, n) if v is None else v)]


class _Block:
    """A block's rows: entries, an array ('Q') of their entries, which
    the block owns, and vals, vals[i] the value of row i, None while
    every value is None.  A block takes every write to its slice of
    the ids in place."""

    __slots__ = ("entries", "vals")

    def __init__(self, rows: np.ndarray, vals: list | None):
        # sized exactly, where frombytes would keep a sixteenth more room
        self.entries = array("Q", [0]) * len(rows)
        np.frombuffer(self.entries, dtype=np.uint64)[:] = rows
        self.vals = vals


def _reader(runs: list):
    """take(n): the next n rows of runs, entry arrays such as
    ReverseMap._runs hands out, as a list of such arrays of n rows in
    all, fewer once the runs run out."""
    runs, rest = iter(runs), _NONE

    def take(n: int) -> list[np.ndarray]:
        nonlocal rest
        pieces = []
        # the next run once this one is read, until there is none
        while n and (len(rest) or (rest := next(runs, _NONE)) is not _NONE):
            pieces.append(rest[:n])
            rest = rest[n:]
            n -= len(pieces[-1])
        return pieces

    return take


def _write_columns(runs: list, w: int, dest: memoryview) -> None:
    """Write the columns of the low w bits of the entries of runs (see
    _columns_of), one after the other, into dest, a run at a time, so
    that each column reads a block's rows from cache.  Each column is a
    cast, which keeps the low bits of each entry, or of its high half."""
    n, outs, at = sum(map(len, runs)), [], 0
    for shift, width, dt in _columns_of(w):
        outs.append((shift, np.frombuffer(dest[: n * dt.itemsize], dtype=dt)))
        dest = dest[n * dt.itemsize :]
    for entries in runs:
        for shift, out in outs:
            out[at : at + len(entries)] = entries.view(np.uint32)[_HIGH::2] if shift else entries
        at += len(entries)
    for (_, width, dt), (_, out) in zip(_columns_of(w), outs):
        if width < 8 * dt.itemsize:
            out &= dt.type((1 << width) - 1)


class ReverseMap:
    """Ordered entry lists per minirun id, with rank addressing; each
    entry carries its id in its bits above the low w.

    ``accesses`` counts every list read or write and exists so callers
    can prove a code path never touched the map.  Slicing the map, the
    column passes and the decoder count nothing.
    """

    def __init__(self, w: int):
        self.accesses = 0
        self._w = _int_in(w, "entry bits below the minirun id", 0, 63)
        self._blocks = [_Block(_NONE, None)]
        self._shift = 64 - self._w  # an id's block is its bits above this
        self._nkeys = 0

    def _fill(self, keys, w: int, piece, vals: list | None) -> None:
        """Put in place of the blocks the slices of hash-ordered rows,
        whose ids are keys >> w: block i a copy of piece(lo, hi), the
        entries of rows [lo, hi), those whose ids' top k bits are i,
        with vals[lo:hi] (vals None: every value is None), k the fewest
        bits that keep the average block at _ROWS rows or fewer."""
        n, bits = len(keys), 64 - self._w
        k = min(bits, ((max(n, 1) - 1) // _ROWS).bit_length())
        self._shift = bits - k
        starts = np.array([i << self._shift + w for i in range(1 << k)], dtype=np.uint64)
        cuts = np.searchsorted(keys, starts).tolist() + [n]
        self._blocks = [_Block(piece(lo, hi), None if vals is None else vals[lo:hi])
                        for lo, hi in itertools.pairwise(cuts)]

    def _split(self) -> None:
        """Slice the map with one more bit: old block i is cut, at its
        first entry whose id is at or past (2i + 1) << shift, the new
        shift, into new blocks 2i and 2i + 1, exactly the slices that
        _fill would cut.  Each row is copied once, and each old block is
        dropped once it is cut."""
        self._shift -= 1
        old, self._blocks = self._blocks, []
        for i in range(len(old)):
            blk, old[i] = old[i], None
            rows, vals = np.frombuffer(blk.entries, dtype=np.uint64), blk.vals
            cut = bisect_left(blk.entries, ((2 * i + 1) << self._shift) << self._w)
            self._blocks += (_Block(rows[:cut], None if vals is None else vals[:cut]),
                             _Block(rows[cut:], None if vals is None else vals[cut:]))

    def _find(self, mid: int) -> tuple[_Block, int]:
        """(block, row): the block of mid's slice, and its first row at
        or past mid, where mid's rows start when it has some.  An id
        outside [0, 2**(64 - w)) lands in a block that does not hold it.
        InvalidConfigError for an id that is no int."""
        mid = as_index(mid, "minirun id")
        blk = self._blocks[(mid >> self._shift) & (len(self._blocks) - 1)]
        return blk, bisect_left(blk.entries, mid << self._w)

    @staticmethod
    def check_entry(key: int, value: bytes | None) -> None:
        """Raise InvalidConfigError unless (key, value) can be stored."""
        if not 0 <= key <= MASK64:
            raise InvalidConfigError("key must fit in 64 bits")
        if value is not None and not isinstance(value, bytes):
            raise InvalidConfigError("value must be bytes or None")

    def map_insert(self, mid: int, rank: int, key: int, value: bytes | None = None) -> None:
        """Insert key, an entry whose bits above the low w are mid, at
        position rank; later entries shift back one."""
        self.check_entry(key, value)
        w = self._w
        if key >> w != mid:
            raise InvalidConfigError(f"entry {key:#x} does not carry minirun id {mid} "
                                     f"in its top {64 - w} bits")
        rank = as_index(rank, "rank")
        blk, row = self._find(mid)
        at = row + rank
        # rank is in bounds when it is 0 or mid holds the row before it
        if rank < 0 or rank and (at > len(blk.entries) or blk.entries[at - 1] >> w != mid):
            raise NotFoundError(f"rank {rank} out of bounds for the "
                                f"{self.list_size(mid)} entries of minirun {mid}")
        if value is not None and blk.vals is None:
            blk.vals = [None] * len(blk.entries)
        if blk.vals is not None:
            blk.vals.insert(at, value)
        blk.entries.insert(at, key)
        self._nkeys += 1
        self.accesses += 1
        if self._nkeys > _ROWS * len(self._blocks) and self._shift:
            self._split()

    def map_get(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        rank = as_index(rank, "rank")
        blk, row = self._find(mid)
        at = row + rank
        entries = blk.entries
        if rank < 0 or at >= len(entries) or entries[at] >> self._w != mid:
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        self.accesses += 1
        return entries[at], None if blk.vals is None else blk.vals[at]

    def map_remove(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        """Remove and return the entry at rank; empty ids are dropped."""
        rank = as_index(rank, "rank")
        blk, row = self._find(mid)
        at = row + rank
        if rank < 0 or at >= len(blk.entries) or blk.entries[at] >> self._w != mid:
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        out = blk.entries.pop(at), None if blk.vals is None else blk.vals.pop(at)
        self._nkeys -= 1
        self.accesses += 1
        return out

    def find_rank(self, mid: int, key: int) -> int | None:
        """Rank of the first exact occurrence of key, or None."""
        blk, first = self._find(mid)
        self.accesses += 1
        entries, w = blk.entries, self._w
        row = first
        while row < len(entries) and (entry := entries[row]) >> w == mid:
            if entry == key:
                return row - first
            row += 1
        return None

    def list_size(self, mid: int) -> int:
        blk, row = self._find(mid)
        return bisect_left(blk.entries, (mid + 1) << self._w, row) - row

    @property
    def key_count(self) -> int:
        return self._nkeys

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReverseMap):
            return NotImplemented
        (ea, va), (eb, vb) = self._rows(), other._rows()
        return self._w == other._w and np.array_equal(ea, eb) and va == vb

    # ------------------------------------------------------------------
    # columns: the one way out of the map and the one way in

    def _runs(self) -> list[np.ndarray]:
        """Views of the blocks' entries as uint64 arrays, in hash order,
        ties in rank order; an empty map has one, empty.

        A view of a block's array keeps it from growing, so no view may
        outlive the pass that reads it; _rows hands out a copy.
        """
        return [np.frombuffer(blk.entries, dtype=np.uint64) for blk in self._blocks]

    def _values(self) -> list | None:
        """The value of every row in hash order; None when every value
        is None, which a map that holds none learns joining nothing."""
        if all(blk.vals is None for blk in self._blocks):
            return None
        return _join_values(*((blk.vals, len(blk.entries)) for blk in self._blocks))

    def _rows(self) -> tuple[np.ndarray, list | None]:
        """(entries, values) of every row in hash order, ties in rank
        order, the entries joined in a copy; values is None when every
        value is None."""
        return np.concatenate(self._runs()), self._values()

    @classmethod
    def _from_columns(cls, entries: np.ndarray, values, w: int) -> "ReverseMap":
        """Map holding (entries[i], values[i]), each entry carrying its
        minirun id above its low w bits; values None stands for a value
        of None at every entry.

        Rows come in hash order, each list's in rank order; the map
        copies them into blocks (_fill).  Counts one access per entry, as
        building it with map_insert would.  Ids out of order raise
        UnsortedInputError.
        """
        m = cls(w)
        entries = _hash_ordered(entries, m._w)
        m._fill(entries, m._w, lambda lo, hi: entries[lo:hi],
                _join_values((values, len(entries))))
        m._nkeys = m.accesses = len(entries)
        return m

    # ------------------------------------------------------------------
    # snapshot

    def to_bytes(self) -> bytes:
        """Serialize: the filter's map section (_parts), sealed with a
        CRC32 trailer.  The minirun ids are not written: the slot array
        implies them."""
        return seal(self._parts())

    def _parts(self) -> list:
        """The entries' low w bits (see _columns_of) and the values, as a
        list of parts (see snapshot) without a trailer.  The entry
        columns are one Fill, which writes the blocks' entries straight
        into the snapshot (_write_columns).  When some value is stored,
        a little-endian u32 length per entry follows (0xFFFFFFFF for
        None), then the values' bytes one after the other."""
        size = self._nkeys * sum(dt.itemsize for _, _, dt in _columns_of(self._w))
        parts = [Fill(size, partial(_write_columns, self._runs(), self._w))]
        values = self._values()
        if values is not None:
            lengths = np.fromiter((_NO_VALUE if v is None else len(v) for v in values),
                                  dtype="<u4", count=len(values))
            parts += [le_bytes(lengths, "<u4"), b"".join(filter(None, values))]
        return parts

    @classmethod
    def from_bytes(cls, data: bytes, mids, w: int) -> "ReverseMap":
        """Parse to_bytes' bytes of a map of entries with w bits below
        their ids, whose entries belong to mids, the id of each entry in
        hash order (ties: one id per rank)."""
        return cls._decode(unseal(data), mids, w)

    @classmethod
    def _decode(cls, body, mids: np.ndarray, w: int) -> "ReverseMap":
        """from_bytes of _parts(): each entry is its id, from mids, above
        its w written bits.

        Only what _parts writes loads: no bit set past a column's width,
        a length column only when some entry holds a value, and value
        bytes that fill the rest exactly.  The lengths are summed and
        checked against the bytes at hand before any value is cut out.
        Ids out of order raise UnsortedInputError.  The blocks, sliced as
        _from_columns slices them, are decoded from mids and the columns a
        _BLOCK of rows at a time: no whole-column temporary is made.
        """
        m = cls(w)
        n = len(mids)
        size = n * sum(dt.itemsize for _, _, dt in _columns_of(w))
        if len(body) < size:
            raise FormatError(f"map section of {len(body)} bytes is short of {n} entries")
        mids = _hash_ordered(mids, 0)
        cols = [(width, np.frombuffer(body, dtype=dt, count=n, offset=n * shift // 8))
                for shift, width, dt in reversed(_columns_of(w))]
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

        decoded = [0, 0, _NONE]  # rows [a, b) and their entries

        def piece(lo: int, hi: int) -> np.ndarray:
            # rows [lo, hi), asked for in row order, from a decoded chunk
            a, b, entries = decoded
            if hi > b:
                a, b = lo, max(hi, min(lo + _BLOCK, n))
                entries = mids[a:b].copy()
                for width, col in cols:
                    col = col[a:b]
                    if width < 8 * col.itemsize and int(col.max(initial=0)) >> width:
                        raise FormatError(f"map entry with bits set past its {width}-bit column")
                    entries <<= np.uint64(width)
                    entries |= col
                decoded[:] = a, b, entries
            return entries[lo - a : hi - a]

        m._fill(mids, 0, piece, values)
        m._nkeys = n
        return m
