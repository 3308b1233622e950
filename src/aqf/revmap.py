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

The map is the leaf level of a B-tree held in memory: a list of blocks
in hash order, each holding rows of a uint64 id, a uint64 key and, when
some value in it is set, a value, in ascending id order, ties in rank
order.  An id's rows never straddle two blocks.  A directory keeps each
block's first id.  A scalar read bisects the directory, then the block;
an id outside [0, 2**64) is read as missing, and refused by writes.  A
write shifts the rows after it within its block.  A block holds up to
_ROWS rows (more only when one id's rows need them) with room at its
end; a full one is cut in two, and one that falls below a quarter of
_ROWS joins a neighbour (``_recut``).  A map built from columns
(``_from_columns``, the loader) cuts them into unwritten blocks of about
_BLOCK rows, views of the columns, with no copy; a write to one cuts
out the piece of about half a block that it writes, and copies only
that piece into room (``_own``).  Live, a map without values takes 16
bytes per key while no block has been written; a written block holds
copies of its rows, and the columns are let go once no block views
them.

Whole-map passes read the blocks as views, one per written block and
one per stretch of unwritten ones (``_runs``), the base columns
themselves while no block has been written.  Their rows are in hash
order, the row order of the slot array's ``_columns()``, so the two
pair row by row: the filter's consistency check compares them a table
block at a time (``_reader``), merge and rebuild read them joined
through ``_rows`` (``setops._key_columns``), and a save writes them
block by block into the snapshot.  ``_from_columns()`` refuses rows out
of order; bulk load, merge, rebuild and the yes/no build make their
maps with it, and no map is built by joining two maps.

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
from .hashing import MASK64, as_index
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


@cache
def _columns_of(w: int) -> tuple[tuple[int, int, np.dtype], ...]:
    """(shift, width, little-endian dtype) of each snapshot column that
    holds the low w bits of the entries, low bits first: a whole entry
    (w = 64) is one u64 column; else the low 32 bits, or all w when
    fewer, then the rest, each column in the narrowest unsigned dtype
    that holds it (_slot_dtype)."""
    widths = [(0, 64)] if w == 64 else [(0, min(w, 32)), (32, w - 32)]
    return tuple((shift, width, np.dtype(_slot_dtype(width)).newbyteorder("<"))
                 for shift, width in widths if width > 0)


def _join_values(*parts: tuple[list | None, int]) -> list | None:
    """(value column, row count) parts joined; None stands for a column
    of all None, in the parts and in the result."""
    if all(v is None or v.count(None) == n for v, n in parts):
        return None
    return [x for v, n in parts for x in (itertools.repeat(None, n) if v is None else v)]


def _cuts(ids, lo: int, hi: int, rows: int) -> list[int]:
    """Row offsets that cut hash-ordered ids[lo:hi] into pieces of about
    rows rows, each cut at the first row of an id: lo, the cuts, hi."""
    k = -(-(hi - lo) // rows)
    cuts = [lo]
    for i in range(1, k):
        at = bisect_left(ids, ids[lo + i * (hi - lo) // k], lo, hi)
        if at > cuts[-1]:
            cuts.append(at)
    return cuts + [hi]


class _Block:
    """Rows [lo, hi) of ids and keys, sequences that index to Python
    ints, and their values, vals[i] that of row lo + i, None while every
    value is None.  An unwritten block's ids and keys are memoryviews of
    columns it shares with the blocks around it, and cap is 0: a write
    copies it first.  A written block owns them as arrays ('Q'), which
    hold its rows alone (lo is 0, hi their length), and is cut anew once
    it holds cap rows."""

    __slots__ = ("ids", "keys", "lo", "hi", "vals", "cap")

    def __init__(self, ids, keys, lo: int, hi: int, vals: list | None, cap: int = 0):
        self.ids, self.keys, self.lo, self.hi, self.vals, self.cap = ids, keys, lo, hi, vals, cap

    @classmethod
    def owned(cls, ids: np.ndarray, keys: np.ndarray, vals: list | None) -> "_Block":
        """A written block of copies of the rows, cut anew at twice as
        many rows, and _ROWS at least."""
        blk = cls(array("Q"), array("Q"), 0, len(ids), vals, max(_ROWS, 2 * len(ids)))
        blk.ids.frombytes(memoryview(ids).cast("B"))
        blk.keys.frombytes(memoryview(keys).cast("B"))
        return blk


def _reader(runs: list):
    """take(n): the next n rows of runs, (ids, keys) views such as
    ReverseMap._runs hands out (ids may be None), as a list of such
    pairs of n rows in all, fewer once the runs run out."""
    runs = iter(runs)
    ids, keys = None, _NONE

    def take(n: int) -> list[tuple[np.ndarray | None, np.ndarray]]:
        nonlocal ids, keys
        pieces = []
        while n:
            if not len(keys):
                run = next(runs, None)
                if run is None:
                    break
                ids, keys = run
                continue
            pieces.append((None if ids is None else ids[:n], keys[:n]))
            ids, keys = None if ids is None else ids[n:], keys[n:]
            n -= len(pieces[-1][1])
        return pieces

    return take


def _joined(pieces: list, c: int) -> np.ndarray:
    """Column c of pieces that a reader's take hands out, as one array: a
    view when there is one piece."""
    return pieces[0][c] if len(pieces) == 1 else np.concatenate([p[c] for p in pieces] or [_NONE])


def _write_columns(runs: list, w: int, dest: memoryview) -> None:
    """Write the columns of the low w bits of the keys of runs (see
    _columns_of), one after the other, into dest, a _BLOCK of rows at a
    time, so that each column reads them from cache.  Each column is a
    cast, which keeps the low bits of each key, or of its high half."""
    n, outs = sum(len(keys) for _, keys in runs), []
    for shift, width, dt in _columns_of(w):
        outs.append((shift, np.frombuffer(dest[: n * dt.itemsize], dtype=dt)))
        dest = dest[n * dt.itemsize :]
    take, at = _reader(runs), 0
    while chunk := [keys for _, keys in take(_BLOCK)]:
        rows = sum(map(len, chunk))
        for shift, out in outs:
            cols = [keys.view(np.uint32)[_HIGH::2] for keys in chunk] if shift else chunk
            np.concatenate(cols, out=out[at : at + rows], casting="unsafe")
        at += rows
    for (_, width, dt), (_, out) in zip(_columns_of(w), outs):
        if width < 8 * dt.itemsize:
            out &= dt.type((1 << width) - 1)


class ReverseMap:
    """Ordered key lists per minirun id, with rank addressing.

    ``accesses`` counts every list read or write and exists so callers
    can prove a code path never touched the map.  Block cuts and joins,
    the column passes and the decoder count nothing.
    """

    def __init__(self):
        self.accesses = 0
        self._set_columns(_NONE, _NONE, None)

    def _set_columns(self, mids: np.ndarray, keys: np.ndarray, values: list | None) -> None:
        """Make hash-ordered rows the map's, as unwritten blocks of about
        _BLOCK rows, views of the arrays, which the map keeps; values is
        None when every value is None."""
        self._cols = mids, keys, values
        self._blocks = [_Block(memoryview(mids), memoryview(keys), 0, len(mids), values)]
        self._firsts = [0]  # the directory
        self._nkeys = len(mids)
        self._unwritten = 1
        self._cut_view(0, _cuts(memoryview(mids), 0, len(mids), _BLOCK))

    def _cut_view(self, b: int, cuts: list[int]) -> None:
        """Cut unwritten block b at cuts, rows that ascend from its first
        to its end, into unwritten blocks, views of the same columns."""
        blk = self._blocks[b]
        self._blocks[b : b + 1] = [
            _Block(blk.ids, blk.keys, lo, hi,
                   None if blk.vals is None else blk.vals[lo - blk.lo : hi - blk.lo])
            for lo, hi in itertools.pairwise(cuts)]
        if blk.hi > blk.lo:
            self._firsts[b : b + 1] = [blk.ids[cut] for cut in cuts[:-1]]
        self._unwritten += len(cuts) - 2

    def _find(self, mid: int) -> tuple[int, _Block, int]:
        """(b, block b, row): the block where mid's rows are, or would
        go (block 0 for an id below every block), and its first row at
        or past mid, where mid's rows start when it has some."""
        b = bisect_right(self._firsts, mid) - 1
        if b < 0:
            b = 0
        blk = self._blocks[b]
        return b, blk, bisect_left(blk.ids, mid, blk.lo, blk.hi)

    def _recut(self, a: int, b: int) -> None:
        """Copy the rows of blocks [a, b) into written blocks, cut into
        pieces of about half a block (_cuts)."""
        old = self._blocks[a:b]
        rows = list(map(self._rows_of, old))
        ids = np.concatenate([ids for ids, _ in rows])
        keys = np.concatenate([keys for _, keys in rows])
        vals = _join_values(*((blk.vals, blk.hi - blk.lo) for blk in old))
        self._unwritten -= sum(not blk.cap for blk in old)
        if not self._unwritten:  # no block views the columns any more
            self._cols = _NONE, _NONE, None
        idv = memoryview(ids)
        cuts = _cuts(idv, 0, len(ids), _ROWS // 2)
        self._blocks[a:b] = [_Block.owned(ids[lo:hi], keys[lo:hi],
                                          None if vals is None else vals[lo:hi])
                             for lo, hi in itertools.pairwise(cuts)]
        self._firsts[a:b] = [idv[cut] for cut in cuts[:-1]] if len(ids) else [0]

    def _own(self, b: int, mid: int) -> tuple[int, _Block, int]:
        """Write block b, where mid's rows are or would go, anew, with
        room, and _find mid again: from an unwritten block, the piece of
        about half a block that holds mid's rows is first cut out as an
        unwritten block of its own, so that only it is copied; a full one
        is cut in two."""
        blk = self._blocks[b]
        if not blk.cap and blk.hi - blk.lo > _ROWS // 2:
            # of the pieces _cuts would cut, only mid's is cut out
            cuts = _cuts(blk.ids, blk.lo, blk.hi, _ROWS // 2)
            j = max(1, bisect_right([blk.ids[cut] for cut in cuts[:-1]], mid))
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
        """Insert key at position rank; later entries shift back one."""
        self.check_entry(key, value)
        if not 0 <= mid <= MASK64:
            raise InvalidConfigError("minirun id must fit in 64 bits")
        rank = as_index(rank, "rank")
        b, blk, row = self._find(mid)
        at = row + rank
        # rank is in bounds when it is 0 or mid holds the row before it
        if rank < 0 or rank and (at > blk.hi or blk.ids[at - 1] != mid):
            raise NotFoundError(f"rank {rank} out of bounds for the "
                                f"{self.list_size(mid)} entries of minirun {mid}")
        if blk.hi >= blk.cap:  # unwritten, or full
            b, blk, row = self._own(b, mid)
            at = row + rank
        blk.ids.insert(at, mid)
        blk.keys.insert(at, key)
        if value is not None and blk.vals is None:
            blk.vals = [None] * blk.hi
        if blk.vals is not None:
            blk.vals.insert(at, value)
        blk.hi += 1
        if not at:
            self._firsts[b] = mid
        self._nkeys += 1
        self.accesses += 1

    def map_get(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        _, blk, row = self._find(mid)
        at = row + rank
        if rank < 0 or at >= blk.hi or blk.ids[at] != mid:
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        self.accesses += 1
        vals = blk.vals
        return blk.keys[at], None if vals is None else vals[at - blk.lo]

    def map_remove(self, mid: int, rank: int) -> tuple[int, bytes | None]:
        """Remove and return the entry at rank; empty ids are dropped."""
        rank = as_index(rank, "rank")
        b, blk, row = self._find(mid)
        at = row + rank
        if rank < 0 or at >= blk.hi or blk.ids[at] != mid:
            raise NotFoundError(f"minirun {mid} has no entry at rank {rank}")
        if not blk.cap:
            b, blk, row = self._own(b, mid)
            at = row + rank
        del blk.ids[at]
        out = blk.keys.pop(at), None if blk.vals is None else blk.vals.pop(at)
        blk.hi -= 1
        if not at and blk.hi:
            self._firsts[b] = blk.ids[0]
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
        ids, keys, hi = blk.ids, blk.keys, blk.hi
        row = first
        while row < hi and ids[row] == mid:
            if keys[row] == key:
                return row - first
            row += 1
        return None

    def list_size(self, mid: int) -> int:
        _, blk, row = self._find(mid)
        return bisect_right(blk.ids, mid, row, blk.hi) - row

    @property
    def key_count(self) -> int:
        return self._nkeys

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReverseMap):
            return NotImplemented
        (ma, ka, va), (mb, kb, vb) = self._rows(), other._rows()
        return np.array_equal(ma, mb) and np.array_equal(ka, kb) and va == vb

    # ------------------------------------------------------------------
    # columns: the one way out of the map and the one way in

    def _runs(self, with_ids: bool = True) -> list[tuple[np.ndarray | None, np.ndarray]]:
        """(ids, keys) views of the rows in hash order, ties in rank
        order, ids None unless with_ids: one per non-empty written block
        and one per stretch of unwritten blocks, which lie side by side
        in the columns they share (the rows between two of them can only
        go through a write, which writes their block).

        A view of a written block's arrays keeps them from growing, so
        no view may outlive the pass that reads them; _rows hands out
        copies of them.
        """
        ids, keys, _ = self._cols
        if not self._written:
            return [(ids if with_ids else None, keys)]
        runs = []
        for cap, group in itertools.groupby(self._blocks, attrgetter("cap")):
            if cap:
                runs += [self._rows_of(blk, with_ids) for blk in group if blk.hi]
            else:
                stretch = list(group)
                lo, hi = stretch[0].lo, stretch[-1].hi
                runs.append((ids[lo:hi] if with_ids else None, keys[lo:hi]))
        return runs

    def _rows_of(self, blk: _Block, with_ids: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        """blk's rows' ids, None unless with_ids, and keys, as uint64
        views."""
        if not blk.cap:
            ids, keys, _ = self._cols
            return ids[blk.lo : blk.hi] if with_ids else None, keys[blk.lo : blk.hi]
        return (np.frombuffer(blk.ids, dtype=np.uint64) if with_ids else None,
                np.frombuffer(blk.keys, dtype=np.uint64))

    def _values(self) -> list | None:
        """The value of every row in hash order; None when every value
        is None."""
        if not self._written:
            return self._cols[2]
        if not any(map(attrgetter("vals"), self._blocks)):
            return None
        return _join_values(*((blk.vals, blk.hi - blk.lo) for blk in self._blocks))

    def _rows(self) -> tuple[np.ndarray, np.ndarray, list | None]:
        """(ids, keys, values) of every row in hash order, ties in rank
        order; values is None when every value is None.  The map's
        columns themselves while no block has been written, else joined
        copies."""
        runs = self._runs()
        if not self._written:
            (ids, keys), = runs
        else:
            ids = np.concatenate([ids for ids, _ in runs] or [_NONE])
            keys = np.concatenate([keys for _, keys in runs] or [_NONE])
        return ids, keys, self._values()

    @classmethod
    def _from_columns(cls, mids: np.ndarray, keys: np.ndarray, values) -> "ReverseMap":
        """Map holding (keys[i], values[i]) under mids[i]; values None
        stands for a value of None at every key.

        Rows come in hash order, each list's in rank order; the map's
        blocks are views of the arrays, which the caller no longer uses.
        Counts one access per entry, as building it with map_insert
        would.  Ids out of order raise UnsortedInputError.
        """
        m = cls()
        m._set_columns(_hash_ordered(mids), np.asarray(keys, dtype=np.uint64),
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
        return seal(self._parts(64))

    def _parts(self, w: int) -> list:
        """The entries' low w bits (see _columns_of) and the values, as a
        list of parts (see snapshot) without a trailer.  The entry
        columns are one Fill, which writes the blocks' keys straight into
        the snapshot (_write_columns)."""
        size = self._nkeys * sum(dt.itemsize for _, _, dt in _columns_of(w))
        parts = [Fill(size, partial(_write_columns, self._runs(with_ids=False), w))]
        values = self._values()
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
        m._set_columns(mids, keys, values)
        return m
