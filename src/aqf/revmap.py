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

The map is the leaf level of a B-tree held in memory: a list of blocks
in hash order, each holding rows of a uint64 entry and, when some value
in it is set, a value, in ascending id order, ties in rank order.  An
id's rows never straddle two blocks.  A directory keeps each block's
first id.  A scalar read bisects the directory, then the block's entries
for ``mid << w``.  A write shifts the rows after it within its block.  A
block holds up to _ROWS rows (more only when one id's rows need them)
with room at its end; a full one is cut in two, and one that falls
below a quarter of _ROWS joins a neighbour (``_recut``).  A map built
from a column (``_from_columns``, the loader) cuts it into unwritten
blocks of about _BLOCK rows, views of the column, with no copy; a write
to one cuts out the piece of about half a block that it writes, and
copies only that piece into room (``_own``).  Live, a map without
values takes 8 bytes per key while no block has been written; a written
block holds copies of its rows, and the column is let go once no block
views it.

Whole-map passes read the blocks as views, one per written block and
one per stretch of unwritten ones (``_runs``), the base column itself
while no block has been written.  Their rows are in hash order, the row
order of the slot array's ``_columns()``, so the two pair row by row:
the filter's consistency check compares them a table block at a time
(``_reader``), merge and rebuild read them joined through ``_rows``
(``setops._key_columns``), and a save writes them block by block into
the snapshot.  ``_from_columns()`` refuses rows out of order; bulk load,
merge, rebuild and the yes/no build make their maps with it, and no map
is built by joining two maps.

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
from bisect import bisect_left, bisect_right
from functools import cache, partial
from operator import attrgetter

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

# rows a written block holds before an insert cuts it in two; blocks
# are cut into pieces of about half that, and join a neighbour below a
# quarter
_ROWS = 1024

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


def _cuts(entries, w: int, lo: int, hi: int, rows: int) -> list[int]:
    """Row offsets that cut hash-ordered entries[lo:hi] of w bits below
    their ids into pieces of about rows rows, each cut at the first row
    of an id: lo, the cuts, hi."""
    k = -(-(hi - lo) // rows)
    cuts = [lo]
    for i in range(1, k):
        at = bisect_left(entries, entries[lo + i * (hi - lo) // k] >> w << w, lo, hi)
        if at > cuts[-1]:
            cuts.append(at)
    return cuts + [hi]


class _Block:
    """Rows [lo, hi) of entries, a sequence that indexes to Python ints,
    and their values, vals[i] that of row lo + i, None while every value
    is None.  An unwritten block's entries are a memoryview of the column
    it shares with the blocks around it, and cap is 0: a write copies it
    first.  A written block owns them as an array ('Q'), which holds its
    rows alone (lo is 0, hi their length), and is cut anew once it holds
    cap rows."""

    __slots__ = ("entries", "lo", "hi", "vals", "cap")

    def __init__(self, entries, lo: int, hi: int, vals: list | None, cap: int = 0):
        self.entries, self.lo, self.hi, self.vals, self.cap = entries, lo, hi, vals, cap

    @classmethod
    def owned(cls, entries: np.ndarray, vals: list | None) -> "_Block":
        """A written block of copies of the rows, cut anew at twice as
        many rows, and _ROWS at least."""
        blk = cls(array("Q"), 0, len(entries), vals, max(_ROWS, 2 * len(entries)))
        blk.entries.frombytes(memoryview(entries).cast("B"))
        return blk


def _reader(runs: list):
    """take(n): the next n rows of runs, entry arrays such as
    ReverseMap._runs hands out, as a list of such arrays of n rows in
    all, fewer once the runs run out."""
    runs = iter(runs)
    rest = _NONE

    def take(n: int) -> list[np.ndarray]:
        nonlocal rest
        pieces = []
        while n:
            if not len(rest):
                rest = next(runs, None)
                if rest is None:
                    rest = _NONE
                    break
                continue
            pieces.append(rest[:n])
            rest = rest[n:]
            n -= len(pieces[-1])
        return pieces

    return take


def _joined(pieces: list) -> np.ndarray:
    """The entry arrays that a reader's take hands out, as one array: a
    view when there is one."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces or [_NONE])


def _write_columns(runs: list, w: int, dest: memoryview) -> None:
    """Write the columns of the low w bits of the entries of runs (see
    _columns_of), one after the other, into dest, a _BLOCK of rows at a
    time, so that each column reads them from cache.  Each column is a
    cast, which keeps the low bits of each entry, or of its high half."""
    n, outs = sum(map(len, runs)), []
    for shift, width, dt in _columns_of(w):
        outs.append((shift, np.frombuffer(dest[: n * dt.itemsize], dtype=dt)))
        dest = dest[n * dt.itemsize :]
    take, at = _reader(runs), 0
    while chunk := take(_BLOCK):
        rows = sum(map(len, chunk))
        for shift, out in outs:
            cols = [entries.view(np.uint32)[_HIGH::2] for entries in chunk] if shift else chunk
            np.concatenate(cols, out=out[at : at + rows], casting="unsafe")
        at += rows
    for (_, width, dt), (_, out) in zip(_columns_of(w), outs):
        if width < 8 * dt.itemsize:
            out &= dt.type((1 << width) - 1)


class ReverseMap:
    """Ordered entry lists per minirun id, with rank addressing; each
    entry carries its id in its bits above the low w.

    ``accesses`` counts every list read or write and exists so callers
    can prove a code path never touched the map.  Block cuts and joins,
    the column passes and the decoder count nothing.
    """

    def __init__(self, w: int):
        self.accesses = 0
        self._w = _int_in(w, "entry bits below the minirun id", 0, 63)
        self._set_columns(_NONE, None)

    def _set_columns(self, entries: np.ndarray, values: list | None) -> None:
        """Make hash-ordered rows the map's, as unwritten blocks of about
        _BLOCK rows, views of the array, which the map keeps; values is
        None when every value is None."""
        self._cols = entries, values
        self._blocks = [_Block(memoryview(entries), 0, len(entries), values)]
        self._firsts = [0]  # the directory
        self._nkeys = len(entries)
        self._unwritten = 1
        self._cut_view(0, _cuts(memoryview(entries), self._w, 0, len(entries), _BLOCK))

    def _cut_view(self, b: int, cuts: list[int]) -> None:
        """Cut unwritten block b at cuts, rows that ascend from its first
        to its end, into unwritten blocks, views of the same column."""
        blk = self._blocks[b]
        self._blocks[b : b + 1] = [
            _Block(blk.entries, lo, hi,
                   None if blk.vals is None else blk.vals[lo - blk.lo : hi - blk.lo])
            for lo, hi in itertools.pairwise(cuts)]
        if blk.hi > blk.lo:
            self._firsts[b : b + 1] = [blk.entries[cut] >> self._w for cut in cuts[:-1]]
        self._unwritten += len(cuts) - 2

    def _find(self, mid: int) -> tuple[int, _Block, int]:
        """(b, block b, row): the block where mid's rows are, or would
        go (block 0 for an id below every block), and its first row at
        or past mid, where mid's rows start when it has some."""
        b = bisect_right(self._firsts, mid) - 1
        if b < 0:
            b = 0
        blk = self._blocks[b]
        return b, blk, bisect_left(blk.entries, mid << self._w, blk.lo, blk.hi)

    def _recut(self, a: int, b: int) -> None:
        """Copy the rows of blocks [a, b) into written blocks, cut into
        pieces of about half a block (_cuts)."""
        old = self._blocks[a:b]
        entries = np.concatenate(list(map(self._rows_of, old)))
        vals = _join_values(*((blk.vals, blk.hi - blk.lo) for blk in old))
        self._unwritten -= sum(not blk.cap for blk in old)
        if not self._unwritten:  # no block views the column any more
            self._cols = _NONE, None
        view = memoryview(entries)
        cuts = _cuts(view, self._w, 0, len(entries), _ROWS // 2)
        self._blocks[a:b] = [_Block.owned(entries[lo:hi], None if vals is None else vals[lo:hi])
                             for lo, hi in itertools.pairwise(cuts)]
        self._firsts[a:b] = [view[cut] >> self._w for cut in cuts[:-1]] if len(entries) else [0]

    def _own(self, b: int, mid: int) -> tuple[int, _Block, int]:
        """Write block b, where mid's rows are or would go, anew, with
        room, and _find mid again: from an unwritten block, the piece of
        about half a block that holds mid's rows is first cut out as an
        unwritten block of its own, so that only it is copied; a full one
        is cut in two."""
        blk = self._blocks[b]
        if not blk.cap and blk.hi - blk.lo > _ROWS // 2:
            # of the pieces _cuts would cut, only mid's is cut out
            cuts = _cuts(blk.entries, self._w, blk.lo, blk.hi, _ROWS // 2)
            j = max(1, bisect_right([blk.entries[cut] >> self._w for cut in cuts[:-1]], mid))
            inner = [cut for cut in cuts[j - 1 : j + 1] if blk.lo < cut < blk.hi]
            self._cut_view(b, [blk.lo, *inner, blk.hi])
            b = self._find(mid)[0]
        self._recut(b, b + 1)
        return self._find(mid)

    @property
    def _written(self) -> bool:
        """Whether some block has been written."""
        return self._unwritten < len(self._blocks)

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
        b, blk, row = self._find(mid)
        at = row + rank
        # rank is in bounds when it is 0 or mid holds the row before it
        if rank < 0 or rank and (at > blk.hi or blk.entries[at - 1] >> w != mid):
            raise NotFoundError(f"rank {rank} out of bounds for the "
                                f"{self.list_size(mid)} entries of minirun {mid}")
        if blk.hi >= blk.cap:  # unwritten, or full
            b, blk, row = self._own(b, mid)
            at = row + rank
        blk.entries.insert(at, key)
        if value is not None and blk.vals is None:
            blk.vals = [None] * blk.hi
        if blk.vals is not None:
            blk.vals.insert(at, value)
        blk.hi += 1
        if not at:
            self._firsts[b] = key >> w
        self._nkeys += 1
        self.accesses += 1

    def map_get(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        _, blk, row = self._find(mid)
        at = row + rank
        if rank < 0 or at >= blk.hi or blk.entries[at] >> self._w != mid:
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        self.accesses += 1
        vals = blk.vals
        return blk.entries[at], None if vals is None else vals[at - blk.lo]

    def map_remove(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        """Remove and return the entry at rank; empty ids are dropped."""
        rank = as_index(rank, "rank")
        b, blk, row = self._find(mid)
        at = row + rank
        if rank < 0 or at >= blk.hi or blk.entries[at] >> self._w != mid:
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        if not blk.cap:
            b, blk, row = self._own(b, mid)
            at = row + rank
        out = blk.entries.pop(at), None if blk.vals is None else blk.vals.pop(at)
        blk.hi -= 1
        if not at and blk.hi:
            self._firsts[b] = blk.entries[0] >> self._w
        if blk.hi < _ROWS // 4 and len(self._blocks) > 1:  # join a neighbour
            a = b if b + 1 < len(self._blocks) else b - 1
            self._recut(a, a + 2)
        self._nkeys -= 1
        self.accesses += 1
        return out

    def find_rank(self, mid: int, key: int) -> int | None:
        """Rank of the first exact occurrence of key, or None."""
        self.accesses += 1
        _, blk, first = self._find(mid)
        entries, hi, w = blk.entries, blk.hi, self._w
        row = first
        while row < hi and (entry := entries[row]) >> w == mid:
            if entry == key:
                return row - first
            row += 1
        return None

    def list_size(self, mid: int) -> int:
        _, blk, row = self._find(mid)
        return bisect_left(blk.entries, (mid + 1) << self._w, row, blk.hi) - row

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
        """Entry views of the rows in hash order, ties in rank order:
        one per non-empty written block and one per stretch of unwritten
        blocks, which lie side by side in the column they share (the
        rows between two of them can only go through a write, which
        writes their block).

        A view of a written block's array keeps it from growing, so no
        view may outlive the pass that reads it; _rows hands out copies
        of them.
        """
        entries, _ = self._cols
        if not self._written:
            return [entries]
        runs = []
        for cap, group in itertools.groupby(self._blocks, attrgetter("cap")):
            if cap:
                runs += [self._rows_of(blk) for blk in group if blk.hi]
            else:
                stretch = list(group)
                runs.append(entries[stretch[0].lo : stretch[-1].hi])
        return runs

    def _rows_of(self, blk: _Block) -> np.ndarray:
        """blk's rows' entries, as a uint64 view."""
        if not blk.cap:
            return self._cols[0][blk.lo : blk.hi]
        return np.frombuffer(blk.entries, dtype=np.uint64)

    def _values(self) -> list | None:
        """The value of every row in hash order; None when every value
        is None."""
        if not self._written:
            return self._cols[1]
        if not any(map(attrgetter("vals"), self._blocks)):
            return None
        return _join_values(*((blk.vals, blk.hi - blk.lo) for blk in self._blocks))

    def _rows(self) -> tuple[np.ndarray, list | None]:
        """(entries, values) of every row in hash order, ties in rank
        order; values is None when every value is None.  The map's
        column itself while no block has been written, else a joined
        copy."""
        runs = self._runs()
        entries = runs[0] if not self._written else np.concatenate(runs or [_NONE])
        return entries, self._values()

    @classmethod
    def _from_columns(cls, entries: np.ndarray, values, w: int) -> "ReverseMap":
        """Map holding (entries[i], values[i]), each entry carrying its
        minirun id above its low w bits; values None stands for a value
        of None at every entry.

        Rows come in hash order, each list's in rank order; the map's
        blocks are views of the array, which the caller no longer uses.
        Counts one access per entry, as building it with map_insert
        would.  Ids out of order raise UnsortedInputError.
        """
        m = cls(w)
        entries = _hash_ordered(entries, m._w)
        m._set_columns(entries, _join_values((values, len(entries))))
        m.accesses = len(entries)
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
        Ids out of order raise UnsortedInputError.
        """
        m = cls(w)
        n = len(mids)
        size = n * sum(dt.itemsize for _, _, dt in _columns_of(w))
        if len(body) < size:
            raise FormatError(f"map section of {len(body)} bytes is short of {n} entries")
        entries = _hash_ordered(mids, 0).copy()
        for shift, width, dt in reversed(_columns_of(w)):
            col = np.frombuffer(body, dtype=dt, count=n, offset=n * shift // 8)
            if width < 8 * dt.itemsize and int(col.max(initial=0)) >> width:
                raise FormatError(f"map entry with bits set past its {width}-bit column")
            entries <<= np.uint64(width)
            entries |= col
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
        m._set_columns(entries, values)
        return m
