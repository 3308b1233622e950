"""Slot array for a quotient filter with in-place fingerprint extension.

Layout.  The table is a circular array of ``2**q`` slots.  Every slot
carries an ``r``-bit payload (widened by ``value_bits`` when the caller
stores a per-fingerprint flag) plus three metadata bits:

* ``occupied`` marks a canonical slot whose quotient has at least one
  stored fingerprint.  It is indexed by quotient and never moves.
* ``runend`` on a remainder slot terminates a run.  On an extension-
  flagged slot it marks a counter digit instead; the double duty is safe
  because run termination is only ever tested on remainder slots.
* ``extension`` marks a slot that continues the preceding remainder:
  with runend clear it holds one adaptation chunk, with runend set one
  base-``2**r`` digit of the duplicate count.

The fingerprints of one quotient form a run, stored contiguously at or
after their canonical slot (Robin Hood displacement, wrapping past the
top of the array).  Inside a run, fingerprints are ordered by remainder;
the group sharing one (quotient, remainder) is a minirun, and a
fingerprint's index inside its minirun is the rank the reverse map keys
off.  A minirun's id is its pair as hash order sorts it, ``(quotient <<
r) | remainder`` (``pack_minirun_id``).  New fingerprints append at the
end of their minirun, so existing ranks never change, and extending a
fingerprint inserts slots in place, which is what lets adaptation leave
the reverse map untouched.

A slot's duplicate count ``c`` occupies zero extra slots when ``c == 1``
and otherwise the little-endian base-``2**r`` digits of ``c - 1``.

Metadata bit vectors are the uint64 rows of one word matrix.  As in the
counting quotient filter, each 64-slot block keeps the offset from its
first slot to the run end of the last occupied quotient before it
(``SlotArray.offsets``, derived, never saved), so one rank and select
(``SlotArray._find_run``) finds a run from its block, reading rightwards
into Python ints.  A query scans the runend and extension rows bare; a
mutation's walk (``SlotArray._walk_to_run``) cuts all four to a window,
which ``SlotArray._run`` reads fingerprint by fingerprint (both by the
rule of ``_fp_span``).  A mutation reads on to its cluster's end, edits
the window and writes it back once (``SlotArray._store``), one slot at
a time: an open (``SlotArray._open_slot``) moves the cluster's tail
right by one into the unused slot past it, joining the next cluster
when that slot was its last gap, and a close (``SlotArray._close_slot``)
moves the rest of the run and the later runs left by one, up to the
first run at its canonical slot, which the offsets help find; the
offsets in the moved span move by one with them.  An insert is one
open; extensions and growing counters open one slot per chunk or digit,
and deletes, shortening cuts and shrinking counters close theirs from
the last.  Whole-table work goes through two
helpers: ``SlotArray._blocks`` decodes the table a block of clusters at
a time into numpy columns (quotient, remainder, value, extension and
counter-digit spans), one row per fingerprint in hash order (by
quotient, then remainder, then rank), for the bulk index
(``FrozenIndex``: like the table, a remainder per pair under a quotient
directory), consistency checks, the loader's minirun ids and, joined,
merge and rebuild.  The stored runs are a rotation of that order, which
it alone turns back.  ``SlotArray._lay_out`` writes such columns over a
table, placing every run with one cumulative max, for merge, rebuild
and bulk load.  Both scalar edits leave the layout that ``_lay_out``
would write.

Widths.  The payloads are stored in the smallest unsigned dtype that
holds ``r + value_bits`` bits (``_slot_dtype``: uint16 at r = 9), and
whole-table columns of slot and row positions, offsets and span lengths
are int32 while the table has fewer than 2**31 slots, int64 past that
(``_pos_dtype``); in columns, remainders, values and chunks take the
slot dtype.  Scalar walks read words, payloads and offsets as Python
ints through memoryviews.  Whole-table passes drop each temporary once
it is spent, or go a block of about ``_BLOCK`` slots or rows at a time,
so that their temporaries stay small.

Snapshot.  Only the occupied, runend and extension vectors and the
payloads are written, with a header that names the first unused slot.
A slot array's own snapshot ends in a CRC32 trailer; inside a filter's
snapshot, that snapshot's one trailer covers it.  The used bits are rebuilt
on load with the rule the walks use for where runs end (``_run_ends``):
from the slot past the first unused one, a slot is used while more
occupied quotients than run ends lie at or before it.  The payloads are
packed with word arithmetic, 64 slots to w words (``_pack_slots``), and
the encoder hands out views of the table's words rather than copies
(``SlotArray._parts``).  Loading
accepts only bytes the encoder writes: a table that loads is in the
layout ``_lay_out`` writes, which ``SlotArray._reconstruct_used``
checks, with zero padding bits, and encodes back to the same bytes.
The minirun ids in hash order, which a filter's load hands to the
reverse map (``SlotArray._decode``), are those of the loaded table's
blocks; they are also the top q + r bits of the map's entries, which
the map's section therefore leaves out.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    FilterFullError,
    FormatError,
    InvalidConfigError,
    NotFoundError,
    StateCorruptionError,
)
from .hashing import (
    FilterConfig,
    HashStream,
    _key_array,
    as_index,
    extension_chunk,
    extension_chunk_batch,
    split,
    split_batch,
)
from .snapshot import ByteReader, le_bytes, seal, section, unseal

SNAPSHOT_MAGIC = b"AQF1"
SNAPSHOT_VERSION = 2
# magic, version, q, r, seed, used-slot count, first unused slot
_HEAD = struct.Struct("<4sIBBQQQ")

# the space accounting's header: magic + version + q + r + seed +
# occupied slot count = 26 bytes, a model fixed by the acceptance tests
# rather than the size of _HEAD (34 bytes)
HEADER_BITS = (4 + 4 + 1 + 1 + 8 + 8) * 8

# load factor ceiling: used slots may not exceed 19/20 of the table
_LOAD_NUM, _LOAD_DEN = 19, 20

# metadata bits per slot: occupied, runend and extension
_META_BITS = 3

# slots a walk reads first on each side of its quotient
_READ = 128

# slots or rows that a blockwise pass over the table or its columns
# takes at once
_BLOCK = 1 << 14

# groups of 64 slots that the payload codec packs or unpacks per pass:
# 256 KiB of slots, so that a pass's steps find them and their packed
# words still in cache
_CODEC_GROUPS = 1 << 9


def max_used(nslots: int) -> int:
    """The most used slots that a table of nslots slots may hold."""
    return _LOAD_NUM * nslots // _LOAD_DEN


def pack_minirun_id(quotient: int, remainder: int, r: int) -> int:
    """A minirun's id: its pair packed as hash order sorts it, so hash
    order is ascending id order."""
    return (quotient << r) | remainder


def unpack_minirun_id(mid: int, r: int) -> tuple[int, int]:
    return mid >> r, mid & ((1 << r) - 1)


@dataclass
class SpaceReport:
    total_bits: int
    metadata_bits: int
    remainder_bits: int
    extension_slots: int
    counter_slots: int
    load_factor: float
    bits_per_item: float


def _count_digits(count: int, r: int) -> list[int]:
    """Base-2**r little-endian digits of count-1; empty when count == 1."""
    v = count - 1
    out = []
    while v:
        out.append(v & ((1 << r) - 1))
        v >>= r
    return out


def _common_prefix(a: list, b: list) -> int:
    """Length of the longest common prefix of a and b."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _kept_chunks(exts: list[list[int]]) -> list[int]:
    """How many leading extension chunks each of one minirun's surviving
    fingerprints keeps after a shortening delete: one past its longest
    common prefix with any other of them (identical twins stay whole),
    and none for a lone survivor."""
    return [max((min(_common_prefix(ext, other) + 1, len(ext))
                 for j, other in enumerate(exts) if j != k), default=0)
            for k, ext in enumerate(exts)]


def _pos_dtype(n: int) -> type:
    """The dtype of positions, offsets and counts below n: int32 while
    n < 2**31, int64 past that.  Whole-table columns of slot positions,
    row positions and span lengths take it."""
    return np.int32 if n < 1 << 31 else np.int64


def _slot_dtype(bits: int) -> type:
    """The smallest unsigned dtype that holds bits-bit payloads: uint16
    for a 9-bit remainder.  The table's slots, and remainders, values
    and chunks in columns, take it."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if bits <= np.iinfo(t).bits)


def _group_starts(*cols: np.ndarray) -> np.ndarray:
    """Mask of the rows that open a group: the first row, and each row
    that differs from the row before it in one of the columns."""
    first = np.zeros(len(cols[0]), dtype=bool)
    first[:1] = True
    for col in cols:
        first[1:] |= col[1:] != col[:-1]
    return first


def _ranges(off: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The aranges [off[i], off[i] + length[i]), concatenated."""
    ends = np.cumsum(length)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(off - (ends - length), length) + np.arange(total)


def _stable_order(keys: np.ndarray, bits: int) -> np.ndarray:
    """The stable argsort of integer keys in [0, 2**bits), exactly.

    Each key is joined with its index below it, (key << b) | i with b the
    bit length of len(keys) - 1, so the composites are distinct and one
    plain sort of them is the stable order; the indices are then read
    back from their low bits in place.  When a key and an index do not
    fit one 64-bit word together, numpy's stable argsort does the work.
    """
    b = max(len(keys) - 1, 0).bit_length()
    if bits + b > 64:
        return np.argsort(keys, kind="stable")
    order = keys.astype(np.uint64)
    order <<= np.uint64(b)
    order |= np.arange(len(keys), dtype=np.uint64)
    order.sort()
    order &= np.uint64((1 << b) - 1)
    return order.view(np.intp)


def _bools(x: int, n: int) -> np.ndarray:
    """Bits [0, n) of the int x >= 0 as n bools, bit i at index i."""
    raw = (x & ((1 << n) - 1)).to_bytes((n + 7) >> 3, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n,
                         bitorder="little").view(bool)


def _codec_plan(w: int):
    """Where slot k of a 64-slot group lies in the group's w payload
    words: its low bits' word k*w >> 6 and shift k*w & 63, the first
    slot of each word, and the slots whose top bits spill into the next
    word."""
    k = np.arange(64)
    word = (k * w) >> 6
    shift = ((k * w) & 63).astype(np.uint64)
    spill = np.flatnonzero(shift + np.uint64(w) > 64)
    return word, shift, np.searchsorted(word, np.arange(w)), spill


def _le_words(data, nwords: int) -> np.ndarray:
    """data's bytes as nwords little-endian uint64 words, zero-padded."""
    words = np.zeros(nwords, dtype="<u8")
    words.view(np.uint8)[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    return words


def _pack_slots(slots: np.ndarray, w: int) -> np.ndarray:
    """Payloads below 2**w as a little-endian stream of w bits each, bit
    k of slot i at stream bit i*w + k: its (n*w + 7) >> 3 bytes, uint8.

    Each group of 64 slots fills exactly w uint64 words (see _codec_plan),
    a block of _CODEC_GROUPS groups per pass: every slot shifted to its
    place, the slots of each word or-ed together, and the spilled top
    bits or-ed into the next words.  A partial last group is padded with
    zero slots.
    """
    n = len(slots)
    groups = (n + 63) >> 6
    word, shift, firsts, spill = _codec_plan(w)
    grid = slots
    if n & 63:
        grid = np.zeros(groups << 6, dtype=slots.dtype)
        grid[:n] = slots
    grid = grid.reshape(groups, 64)
    words = np.empty((groups, w), dtype="<u8")
    for a in range(0, groups, _CODEC_GROUPS):
        blk, out = grid[a : a + _CODEC_GROUPS], words[a : a + _CODEC_GROUPS]
        np.bitwise_or.reduceat(blk << shift, firsts, axis=1, out=out)
        out[:, word[spill] + 1] |= blk[:, spill] >> (np.uint64(64) - shift[spill])
    return words.reshape(-1).view(np.uint8)[: (n * w + 7) >> 3]


def _unpack_slots(data, n: int, w: int) -> np.ndarray:
    """The n payloads that _pack_slots packed into data, in _slot_dtype(w);
    the stream's padding bits are ignored.  Each block is decoded in
    uint64 words and narrowed as it is stored."""
    groups = (n + 63) >> 6
    word, shift, _, spill = _codec_plan(w)
    words = _le_words(data, groups * w).reshape(groups, w)
    slots = np.empty((groups, 64), dtype=_slot_dtype(w))
    mask = np.uint64((1 << w) - 1)
    for a in range(0, groups, _CODEC_GROUPS):
        blk = words[a : a + _CODEC_GROUPS]
        wide = blk[:, word] >> shift
        wide[:, spill] |= blk[:, word[spill] + 1] << (np.uint64(64) - shift[spill])
        np.bitwise_and(wide, mask, out=slots[a : a + _CODEC_GROUPS], casting="unsafe")
    return slots.reshape(-1)[:n]


def _check_padding(blob, nbits: int, what: str) -> None:
    """Refuse a set bit past the first nbits bits of blob's last byte."""
    if nbits & 7 and blob[-1] >> (nbits & 7):
        raise FormatError(f"padding bits set past the {what}")


class _Cols(NamedTuple):
    """Per-fingerprint columns, one row per fingerprint; _blocks hands
    them out in hash order, and _lay_out takes them so.

    A fingerprint's extension chunks are chunks[ext_off:ext_off+ext_len]
    and its counter digits the ctr_len entries right after them; value
    and ctr_len may be None where they are not needed (_blocks).
    Quotients, extension offsets and spans take the table's position
    dtype (_pos_dtype of its slot count), which holds any span a table
    can store; remainders, values and chunks take its slot dtype
    (_slot_dtype of its payload width).
    """

    quot: np.ndarray
    rem: np.ndarray
    value: np.ndarray
    ext_off: np.ndarray
    ext_len: np.ndarray
    ctr_len: np.ndarray
    chunks: np.ndarray

    @classmethod
    def build(cls, cfg: FilterConfig, value_bits: int, packed: np.ndarray, value,
              ext_len, ctr_len, chunks) -> "_Cols":
        """Columns for a table of cfg with value_bits value bits, of the
        pairs packed (see packed), over a chunk array holding,
        fingerprint after fingerprint, its extension chunks and then its
        counter digits."""
        pos, slot = _pos_dtype(cfg.nslots), _slot_dtype(cfg.r + value_bits)
        ext_len = np.asarray(ext_len, dtype=pos)
        ctr_len = np.asarray(ctr_len, dtype=pos)
        ext_off = ext_len + ctr_len
        np.cumsum(ext_off, out=ext_off)
        ext_off -= ext_len
        ext_off -= ctr_len
        return cls(*cls._split(packed, cfg, slot), np.asarray(value, dtype=slot), ext_off,
                   ext_len, ctr_len, np.asarray(chunks, dtype=slot))

    @classmethod
    def bare(cls, packed: np.ndarray, cfg: FilterConfig) -> "_Cols":
        """Bare fingerprints of the pairs packed (see packed), valued 0."""
        zero = np.zeros(len(packed), dtype=_pos_dtype(cfg.nslots))
        slot = _slot_dtype(cfg.r)
        return cls(*cls._split(packed, cfg, slot), np.zeros(len(packed), dtype=slot),
                   zero, zero, zero, np.zeros(0, dtype=slot))

    @staticmethod
    def _split(packed: np.ndarray, cfg: FilterConfig, slot: type) -> tuple[np.ndarray, np.ndarray]:
        """The quotient and remainder columns of the pairs packed, each
        narrowed as it is computed."""
        quot = np.empty(len(packed), dtype=_pos_dtype(cfg.nslots))
        np.right_shift(packed, np.uint64(cfg.r), out=quot, casting="unsafe")
        rem = packed.astype(slot)  # the low bits, the remainder's among them
        rem &= (1 << cfg.r) - 1
        return quot, rem

    @staticmethod
    def join(parts: list) -> "_Cols":
        """The rows of parts one after another, ext_off moved to match."""
        shift = np.cumsum([0] + [len(part.chunks) for part in parts]).tolist()
        return _Cols(*map(np.concatenate, zip(*(part._replace(ext_off=part.ext_off + at)
                                                for part, at in zip(parts, shift)))))

    def packed(self, r: int, rows=slice(None)) -> np.ndarray:
        """(quotient << r) | remainder: the minirun id of each row, or of
        the rows ``rows`` (a slice, indices or a mask)."""
        out = self.quot[rows].astype(np.uint64)
        out <<= np.uint64(r)
        out |= self.rem[rows]
        return out


def _run_ends(run: int, ext: int) -> int:
    """Run ends of runend bits run and extension bits ext, ints whose bit
    i is slot i: bit i is set when slot i is just past a run, past its
    terminator (runend without extension) and the extension slots that
    trail it.  Adding each terminator's next bit to the extension bits
    carries through those slots, so the bits that the sum sets outside
    the extension bits are the ends.  The one rule for where runs end,
    for the scalar walks, the offsets and the loader alike."""
    return (ext + ((run & ~ext) << 1)) & ~ext


class _Win:
    """The used, runend, extension and occupied bits from one quotient's
    slot to its run's end or past (SlotArray._walk_to_run), or its
    cluster's end (SlotArray._read_rest, before edits); queries need none.

    ``base`` is that quotient's slot, and bit i of each row is slot
    base + i, wrapping past the top of the table.  Every bit past the
    window is zero, and the quotient's run ends inside it, so walks stop
    without bounds checks.

    Scalar mutations edit these ints and store them back in one write
    (SlotArray._store), opening or closing one slot per edit.  A close
    keeps the window whole.  An open holds true only up to the end of
    its edit, so nothing walks on after one; the next open reads in the
    cluster the edit joined (see SlotArray._open_slot).  The edits
    between a walk and its store are all opens or all closes.
    """

    __slots__ = ("base", "used", "run", "ext", "occ")

    def __init__(self, base: int, used: int, run: int, ext: int, occ: int):
        self.base = base
        self.used = used
        self.run = run
        self.ext = ext
        self.occ = occ


def _fp_span(run: int, ext: int, e0: int) -> tuple[int, int]:
    """(counter offset, next fingerprint offset) of the fingerprint whose
    remainder slot lies just before offset e0: the next fingerprint
    starts at the first slot from e0 on without the extension bit, the
    counter digits at the first between with the runend bit.  The one
    rule for where a fingerprint's tail slots end; its callers skip it
    when slot e0 lacks the extension bit, where both offsets are e0."""
    tail = ext >> e0
    nxt = e0 + ((tail + 1) & ~tail).bit_length() - 1
    digits = (run >> e0) & ((1 << (nxt - e0)) - 1)
    return (e0 + (digits & -digits).bit_length() - 1 if digits else nxt), nxt


class SlotArray:
    """Physical quotient-filter table; all indices are slot numbers mod 2**q."""

    def __init__(self, cfg: FilterConfig, value_bits: int = 0):
        value_bits = as_index(value_bits, "value_bits")
        if value_bits < 0 or cfg.r + value_bits > 63:
            raise InvalidConfigError(f"value_bits {value_bits} out of range [0, {63 - cfg.r}]")
        self.cfg = cfg
        self.value_bits = value_bits
        self.slot_bits = cfg.r + value_bits
        n = cfg.nslots
        self.nslots = n
        self.nwords = (n + 63) >> 6
        # the four metadata bit vectors are rows of one word matrix, so
        # that a range of all four moves in one numpy call
        self._meta = np.zeros((4, self.nwords), dtype=np.uint64)
        self.used, self.run, self.ext, self.occ = self._meta
        self.slots = np.zeros(n, dtype=_slot_dtype(self.slot_bits))
        # block offsets (_block_offsets); words (row r's j-th at r * nwords
        # + j), payloads and offsets as walks read them
        self.offsets = np.zeros(self.nwords, dtype=_pos_dtype(n))
        self._words = memoryview(self._meta).cast("B").cast("Q")
        self._pay, self._offs = memoryview(self.slots), memoryview(self.offsets)
        self.used_count = 0
        self.fp_count = 0
        self.ext_slot_count = 0
        self.ctr_slot_count = 0
        # the last exact FrozenIndex, or None, and the minirun ids
        # extended since it was built; see frozen_index()
        self._index = None
        self._touched = set()

    # ------------------------------------------------------------------
    # word-level bit plumbing

    def _read_bits(self, start: int, length: int) -> list[int]:
        """Bits [start, start+length) circularly of the four rows of the
        word matrix (used, run, ext, occ), one int per row whose bit k is
        slot start+k.  A range longer than the table repeats it."""
        n = self.nslots
        if start + length > n:
            head = n - start
            tail = self._read_bits(0, length - head)
            return [a | (b << head) for a, b in zip(self._read_bits(start, head), tail)]
        block = self._meta[:, start >> 6 : (start + length + 63) >> 6]
        bits = int.from_bytes(block.tobytes(), "little") >> (start & 63)
        step, mask = block.shape[1] << 6, (1 << length) - 1
        return [bits & mask, (bits >> step) & mask, (bits >> 2 * step) & mask,
                (bits >> 3 * step) & mask]

    def _bits(self, start: int, length: int, rows=slice(None)) -> np.ndarray:
        """Bools of metadata rows ``rows`` over slots [start, start+length)."""
        n = self.nslots
        if start + length > n:
            return np.concatenate([self._bits(start, n - start, rows),
                                   self._bits(0, start + length - n, rows)], axis=1)
        words = self._meta[rows, start >> 6 : (start + length + 63) >> 6]
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        return bits[:, start & 63 : (start & 63) + length].view(bool)

    def _pack(self, bits: np.ndarray, start: int) -> None:
        """Overwrite the leading rows of the word matrix with bits laid out
        as _bits(start, nslots)'s: all four rows, or only the used bits."""
        n = self.nslots
        flat = bits  # already laid out as the words are
        if start or n & 63:
            flat = np.zeros((len(bits), self.nwords << 6), dtype=bool)
            flat[:, start:n] = bits[:, : n - start]
            flat[:, :start] = bits[:, n - start :]
        self._meta[: len(bits)] = np.packbits(flat, axis=1, bitorder="little").view(np.uint64)

    def _payloads(self, start: int, length: int):
        """Payloads of slots [start, start+length) circularly: a memoryview
        of the table, or across the seam a copy that _set_payloads stores."""
        n = self.nslots
        if start + length <= n:
            return self._pay[start : start + length]
        return np.concatenate((self.slots[start:], self.slots[: start + length - n]))

    def _set_payloads(self, start: int, buf: np.ndarray) -> None:
        """Store what _payloads(start, len(buf)) handed out, once edited."""
        head = self.nslots - start
        if len(buf) > head:
            self.slots[start:] = buf[:head]
            self.slots[: len(buf) - head] = buf[head:]

    def _store(self, win: _Win, lo: int, hi: int) -> None:
        """Write the window's rows over its offsets [lo, hi) in one read-
        modify-write, two across the seam; edits moved the block offsets."""
        n = self.nslots
        start = (win.base + lo) % n
        if start + hi - lo > n:
            self._store(win, lo, lo + n - start)
            self._store(win, lo + n - start, hi)
            return
        block = self._meta[:, start >> 6 : (start + hi - lo + 63) >> 6]
        step, m = block.shape[1] << 6, (1 << (hi - lo)) - 1
        new = ((win.used >> lo) & m | ((win.run >> lo) & m) << step
               | ((win.ext >> lo) & m) << 2 * step | ((win.occ >> lo) & m) << 3 * step)
        m |= m << step
        m |= m << 2 * step
        at = start & 63
        bits = int.from_bytes(block.tobytes(), "little") & ~(m << at) | new << at
        block[:] = np.ndarray(block.shape, np.uint64, bits.to_bytes(block.size << 3, "little"))

    def _open_slot(self, win: _Win, at: int, run: int, ext: int, payload: int) -> int:
        """Open one slot at window offset ``at`` and fill it with
        ``payload`` and the runend and extension bits ``run`` and ``ext``.
        Returns the offset just past the edit, which the caller stores
        (_store) with its own bit edits.

        The slots [at, end) move right by one into the unused slot at
        the cluster's end, which is where _lay_out places every run, and
        so do the run ends and the offsets of the blocks there (_shift).
        That slot may lie just before the next cluster, which the open
        then joins, so each open first reads in the rest of the cluster
        that the window's end lies in (_read_rest).
        """
        n = self.nslots
        end = self._read_rest(win)
        self._shift(win, end, 1)
        low = (1 << at) - 1
        win.used |= 1 << end
        win.run = win.run & low | (win.run & ~low) << 1 | run << at
        win.ext = win.ext & low | (win.ext & ~low) << 1 | ext << at
        start = (win.base + at) % n
        buf = self._payloads(start, end + 1 - at)
        buf[1:] = buf[:-1]
        buf[0] = payload
        self._set_payloads(start, buf)
        self.used_count += 1
        return end + 1

    def _read_rest(self, win: _Win) -> int:
        """Read the rest of the window's cluster in, a doubling margin at a
        time, and return the offset of the unused slot past it."""
        n = self.nslots
        end = win.used.bit_length()
        width = _READ if n > _READ else n
        s = (win.base + end) % n
        while (self._words[s >> 6] >> (s & 63)) & 1:
            if end >= n:
                raise StateCorruptionError("no cluster boundary found")
            rows = self._read_bits(s, width)
            part = ((rows[0] + 1) & ~rows[0]).bit_length() - 1  # the used slots leading it
            keep = (1 << part) - 1
            win.used, win.run, win.ext, win.occ = (
                x | (y & keep) << end for x, y in zip((win.used, win.run, win.ext, win.occ), rows))
            end += part
            s = (win.base + end) % n
            width <<= 1
        return end

    def _shift(self, win: _Win, stop: int, step: int) -> None:
        """Move by step, floored at 0, the offset of each block whose first
        slot lies at window offset p in (0, stop], where an open or close
        moves every run end.  A new run ends one past the run before it,
        and an emptied one where it began, so neither needs more."""
        n, offs, base = self.nslots, self._offs, win.base
        size = n if n < 64 else 64
        for p in range(-base % size or size, stop + 1, size):
            b = (base + p) % n >> 6
            offs[b] = max(offs[b] + step, 0)

    # ------------------------------------------------------------------
    # run navigation

    def _find_run(self, qt: int, full: bool = False) -> tuple[int, int, int, int, int]:
        """(run, ext, used, occ, start): the word matrix's rows as ints
        whose bit i is slot (qt & ~63) + i, and the offset there at which
        quotient ``qt``'s run starts, or would begin; used and occ only
        when ``full`` (a query needs neither).

        Rank and select: of the k occupied quotients of qt's block before
        qt, the k-th run end past the block's offset ends the run before
        qt's.  One read of two words of each row (or the table) from the
        block's first slot doubles until that run end, and qt's own if it
        is occupied, lie inside it.
        """
        n, nw, w = self.nslots, self.nwords, self._words
        b, d = qt >> 6, qt & 63
        occ, at = w[3 * nw + b], self._offs[b]
        k, need = (occ & ((1 << d) - 1)).bit_count(), (occ >> d) & 1
        width = _READ if n > _READ else n
        if width == 128:  # the usual read: two words of each row, no numpy call
            c = (b + 1) % nw
            run, ext = w[nw + b] | w[nw + c] << 64, w[2 * nw + b] | w[2 * nw + c] << 64
            used, occ = (w[b] | w[c] << 64, occ | w[3 * nw + c] << 64) if full else (0, 0)
        else:
            used, run, ext, occ = self._read_bits(qt - d, width)
        while ((ends := _run_ends(run, ext) & ((1 << width) - 1) & -2 << at)).bit_count() < k + need:
            if width >= d + n:
                raise StateCorruptionError("run without a terminator")
            more = self._read_bits((qt - d + width) % n, width)
            used, run, ext, occ = (x | (m << width) for x, m in zip((used, run, ext, occ), more))
            width <<= 1
        p = at if at > d else d
        k -= (ends & ((2 << p) - 1)).bit_count()  # the runs that end by p
        if k > 0:  # qt's run starts at the k-th run end past p
            ends >>= p + 1
            for _ in range(k - 1):
                ends &= ends - 1
            p += (ends & -ends).bit_length()
        return run, ext, used, occ, p

    def _walk_to_run(self, qt: int) -> tuple[_Win, int]:
        """(window from slot ``qt`` to its run's end or past, run start):
        _find_run's rows from qt on, cut at the first unused slot.  The
        mutators' walk."""
        run, ext, used, occ, p = self._find_run(qt, True)
        d = qt & 63
        tail = used >> d
        keep = (1 << (((tail + 1) & ~tail).bit_length() - 1)) - 1
        return _Win(qt, keep, (run >> d) & keep, (ext >> d) & keep, (occ >> d) & keep), p - d

    def _run(self, qt: int):
        """Yield (window, previous fp offset, fp offset, remainder, ext
        group offset, ctr offset, next fp offset) for each fingerprint of
        quotient ``qt``'s run in storage order, and nothing when ``qt`` is
        unoccupied.  Offsets are window offsets; the previous fingerprint
        is the one before it in the run, or None for the run's first.
        The mutators' reader of a run: inserts and minirun access."""
        if not (self._words[3 * self.nwords + (qt >> 6)] >> (qt & 63)) & 1:
            return
        win, pos = self._walk_to_run(qt)
        n, vb, slots, base = self.nslots, self.value_bits, self._pay, win.base
        prev = None
        while True:
            is_term = (win.run >> pos) & 1
            c0 = nxt = pos + 1
            if (win.ext >> nxt) & 1:  # extension or counter slots follow
                c0, nxt = _fp_span(win.run, win.ext, nxt)
            yield win, prev, pos, slots[(base + pos) % n] >> vb, pos + 1, c0, nxt
            if is_term:
                return
            prev, pos = pos, nxt

    # ------------------------------------------------------------------
    # public operations

    def has_room(self, extra: int) -> bool:
        """Whether ``extra`` more used slots stay within the load cap."""
        return self.used_count + extra <= max_used(self.nslots)

    def query_fp(self, stream: HashStream | list, start: int = 0,
                 pair: tuple[int, int] | None = None) -> tuple[int, int, int] | None:
        """First stored fingerprint that is a prefix of ``stream``, at
        minirun rank ``start`` or later.  ``pair`` is the stream's
        (quotient, remainder) when the caller has split it already; only
        with it, ``stream`` may be a one-item list holding the key, where
        the key's HashStream is put when chunks are first compared, so
        that the caller builds it at most once.

        Returns (minirun rank, matched extension length, value bits of
        its remainder slot) or None.  The scan reads _find_run's rows
        bare, and stops at a larger remainder or the run's terminator.
        """
        cfg = self.cfg
        qt, rem = split(stream, cfg) if pair is None else pair
        if not (self._words[3 * self.nwords + (qt >> 6)] >> (qt & 63)) & 1:
            return None
        run, ext, _, _, pos = self._find_run(qt)
        n, vb, slots, base = self.nslots, self.value_bits, self._pay, qt - (qt & 63)
        rank = 0
        while True:  # over the run's remainders, which ascend
            payload = slots[(base + pos) % n]
            if (rem_i := payload >> vb) > rem:
                return None
            c0 = nxt = pos + 1
            if (ext >> nxt) & 1:  # extension or counter slots follow
                c0, nxt = _fp_span(run, ext, nxt)
            if rem_i == rem:
                if rank >= start:
                    if c0 > pos + 1 and isinstance(stream, list):  # [key]: stream it
                        stream[0] = stream = HashStream(stream[0], cfg.seed)
                    for t in range(c0 - pos - 1):
                        if slots[(base + pos + 1 + t) % n] >> vb != extension_chunk(stream, cfg, t):
                            break
                    else:
                        return rank, c0 - pos - 1, payload & ((1 << vb) - 1)
                rank += 1
            if (run >> pos) & 1:
                return None
            pos = nxt

    def insert_fp(self, qt: int, rem: int, value: int = 0) -> tuple[int, int]:
        """Insert the bare fingerprint (qt, rem) with value bits ``value``;
        returns (minirun id, rank).

        Appends at the end of its minirun so existing ranks survive.  One
        walk finds the place, one _open_slot opens its one slot, and one
        store writes its bits with the moved terminator and the occupied
        bit.  Extension chunks come later through extend_fp, a count
        through set_count or add_count.
        """
        if not self.has_room(1):
            raise FilterFullError("insert would exceed the load limit")
        self._index = None
        vb = self.value_bits
        payload = (rem << vb) | (value & ((1 << vb) - 1))

        # the new fingerprint goes before the run's first larger remainder,
        # or past its terminator, taking over the runend bit; a new run
        # goes where the walk finds it would begin
        rank, new_term = 0, 1
        if (self._words[3 * self.nwords + (qt >> 6)] >> (qt & 63)) & 1:
            for win, _, pos, rem_i, _, _, nxt in self._run(qt):
                if rem_i > rem:
                    at = lo = pos
                    new_term = 0
                    break
                rank += rem_i == rem
            else:
                win.run ^= 1 << pos
                lo, at = pos, nxt
        else:
            win, at = self._walk_to_run(qt)
            lo, win.occ = 0, win.occ | 1
        self._store(win, lo, self._open_slot(win, at, new_term, 0, payload))
        self.fp_count += 1
        return pack_minirun_id(qt, rem, self.cfg.r), rank

    def _minirun(self, mid: int) -> list[tuple[_Win, int | None, int, int, int, int]]:
        """(window, previous fp offset, fp offset, ext group offset, ctr
        offset, next) of each fingerprint of a minirun, in rank order:
        the fingerprints of _run with the minirun's remainder.
        InvalidConfigError for an id that is no int."""
        qt, rem = unpack_minirun_id(as_index(mid, "minirun id"), self.cfg.r)
        fps = []
        for win, prev, pos, rem_i, e0, c0, nxt in self._run(qt):
            if rem_i > rem:
                break
            if rem_i == rem:
                fps.append((win, prev, pos, e0, c0, nxt))
        return fps

    def _locate_fp(self, mid: int, rank: int) -> tuple[_Win, int | None, int, int, int, int]:
        """The rank-th fingerprint of a minirun as _minirun lists it.
        Raises if missing, InvalidConfigError for a rank that is no int."""
        rank = as_index(rank, "rank")
        fps = self._minirun(mid)
        if not 0 <= rank < len(fps):
            raise NotFoundError(f"minirun {mid} has no rank {rank}")
        return fps[rank]

    def get_ext(self, mid: int, rank: int) -> tuple[int, ...]:
        win, _, _, e0, c0, _ = self._locate_fp(mid, rank)
        n, vb = self.nslots, self.value_bits
        return tuple(self.slots.item((win.base + i) % n) >> vb for i in range(e0, c0))

    def extend_fp(self, mid: int, rank: int, chunks) -> None:
        """Append extension chunks to one fingerprint, in place: one open
        per chunk behind its last chunk (see _open_slot), on the window
        of one walk, stored once."""
        chunks = list(chunks)
        if not chunks:
            return
        if not self.has_room(len(chunks)):
            raise FilterFullError("extension would exceed the load limit")
        win, _, _, _, c0, _ = self._locate_fp(mid, rank)
        vb = self.value_bits
        for i, chunk in enumerate(chunks):
            hi = self._open_slot(win, c0 + i, 0, 1, chunk << vb)
        self._store(win, c0, hi)
        self.ext_slot_count += len(chunks)
        if self._index is not None:
            self._touched.add(mid)

    def get_count(self, mid: int, rank: int) -> int:
        return self._count(self._locate_fp(mid, rank))

    def set_count(self, mid: int, rank: int, count: int) -> None:
        if count < 1:
            raise InvalidConfigError("count must be at least 1")
        self._write_count(self._locate_fp(mid, rank), count)

    def add_count(self, mid: int, rank: int, delta: int) -> int:
        """Add delta to one fingerprint's count, reading and rewriting it
        in one walk; returns the new count.  A count that would fall
        below 1 is left as it is, for the caller to remove the
        fingerprint instead."""
        fp = self._locate_fp(mid, rank)
        count = self._count(fp) + delta
        if count >= 1:
            self._write_count(fp, count)
        return count

    def _count(self, fp: tuple[_Win, int | None, int, int, int, int]) -> int:
        """The count of a fingerprint as _minirun lists it."""
        win, _, _, _, c0, nxt = fp
        n, vb = self.nslots, self.value_bits
        r = self.cfg.r
        v = 0
        for i in range(nxt - c0):
            v |= (self.slots.item((win.base + c0 + i) % n) >> vb) << (i * r)
        return v + 1

    def _write_count(self, fp: tuple[_Win, int | None, int, int, int, int], count: int) -> None:
        """Rewrite the counter digits of the fingerprint fp (as _minirun
        lists it) in place.  The digits it keeps are
        overwritten; growth opens the new ones behind them one at a time
        (_open_slot), shrinkage closes the dropped ones from the last
        (_close_slot), all on the walk's window, stored once."""
        win, _, pos, _, c0, nxt = fp
        digits = _count_digits(count, self.cfg.r)
        have = nxt - c0
        if not self.has_room(len(digits) - have):
            raise FilterFullError("counter growth would exceed the load limit")
        n, vb = self.nslots, self.value_bits
        for i, digit in enumerate(digits[:have]):
            self.slots[(win.base + c0 + i) % n] = digit << vb
        hi = 0
        for i in range(have, len(digits)):
            hi = self._open_slot(win, c0 + i, 1, 1, digits[i] << vb)
        self._read_rest(win)  # for the closes
        for at in range(nxt - 1, c0 + len(digits) - 1, -1):
            hi = max(hi, self._close_slot(win, pos, at))
        if len(digits) != have:
            self._store(win, c0 + min(have, len(digits)), hi)
        self.ctr_slot_count += len(digits) - have

    def get_value(self, mid: int, rank: int) -> int:
        win, _, pos, _, _, _ = self._locate_fp(mid, rank)
        return self.slots.item((win.base + pos) % self.nslots) & ((1 << self.value_bits) - 1)

    def remove_fp(self, mid: int, rank: int, shorten: bool = False) -> None:
        """Remove one fingerprint with its extension and counter slots.

        Its slots close one at a time (see _close_slot).  If it ended its
        run, the runend bit moves to the fingerprint before it, and an
        emptied run clears its occupied bit.  With shorten, the survivors
        of its minirun also drop the extension chunks they no longer need
        to stay apart from each other (see _kept_chunks).  The slots close
        from the last backwards, so that the offsets below each stay valid
        and every state on the way is a layout.  All of it edits the one
        window the walk read, and one store writes the moved bits with the
        moved terminator or the cleared occupied bit.
        """
        rank = as_index(rank, "rank")
        fps = self._minirun(mid)
        if not 0 <= rank < len(fps):
            raise NotFoundError(f"minirun {mid} has no rank {rank}")
        win, prev, pos, e0, c0, nxt = fps[rank]
        gone = [(at, pos) for at in range(pos, nxt)]  # (slot, its fingerprint's offset)
        if shorten:
            n, vb = self.nslots, self.value_bits
            rest = [fp[2:5] for i, fp in enumerate(fps) if i != rank]
            exts = [[self.slots.item((win.base + i) % n) >> vb for i in range(x0, y0)]
                    for _, x0, y0 in rest]
            for (at, x0, y0), keep in zip(rest, _kept_chunks(exts)):
                gone += [(i, at) for i in range(x0 + keep, y0)]
        lo = min(gone)[0]
        if (win.run >> pos) & 1 and prev is None:
            lo, win.occ = 0, win.occ ^ 1
        elif (win.run >> pos) & 1:
            lo = min(lo, prev)
            win.run |= 1 << prev
        self._read_rest(win)  # for the closes
        hi = 0
        for at, fp in sorted(gone, reverse=True):
            hi = max(hi, self._close_slot(win, fp, at))
        self._store(win, lo, hi)
        cut = len(gone) - (nxt - pos)
        self.fp_count -= 1
        self.ext_slot_count -= c0 - e0 + cut
        self.ctr_slot_count -= nxt - c0
        self._index = None

    def _close_slot(self, win: _Win, fp: int, at: int) -> int:
        """Remove the slot at window offset ``at``, a slot of the
        fingerprint at offset fp in the run of the window's quotient, and
        close the gap: the inverse of _open_slot.  Returns the offset just
        past the edit, which the caller stores (_store).

        The rest of the run moves left by one, and so does each later
        run of the cluster up to the first one already at its canonical
        slot, which is where _lay_out would place them; with no such run
        the shift reaches the end of the cluster.  A run that starts at an
        occupied slot x is at its canonical one when no run of an earlier
        quotient still waits at x: counted in x's block, whose runs start
        past its offset t, as the block's quotients before x less the run
        ends in (t, x] (in the window's own block, the quotients past its
        own less the run ends past fp's run).  Starts before t are
        skipped, and when w runs wait at x, the search goes on from
        x + w + 1, since they and x's own end at distinct slots past x.

        The run ends in (at, hi] and the offsets of the blocks there
        move left by one (_shift), the runend, extension and used bits
        as bit strings, the payloads as one slice, and the slot the shift
        leaves behind is cleared.  The occupied bits, the store and the
        fingerprint counters are the caller's.
        """
        n, offs, base, occ = self.nslots, self._offs, win.base, win.occ
        ends = _run_ends(win.run, win.ext)
        rest = ends >> (fp + 1)
        end = fp + (rest & -rest).bit_length()  # just past fp's run
        used = win.used >> end
        hi = end + ((used + 1) & ~used).bit_length() - 1  # the cluster's end
        size = n if n < 64 else 64
        f = -base % size or size  # the first block past the window's quotient
        s, t = 1, end  # before it: the quotients past qt, the run ends past fp's run
        o, e = occ >> s, ends >> (t + 1)
        cand = ends & occ & ((1 << hi) - (1 << end))  # runs that start at an occupied slot
        while cand:
            x = (cand & -cand).bit_length() - 1
            if x >= f:  # x's block: its quotients, the run ends past its offset
                s = x - (x - f) % size
                f, t = s + size, s + offs[(base + s) % n >> 6]
                o, e = occ >> s, ends >> (t + 1)
                if x < t:  # the runs before the block end past x
                    cand &= -1 << t
                    continue
            wait = (o & ((1 << (x - s)) - 1)).bit_count() - (e & ((1 << (x - t)) - 1)).bit_count()
            if wait <= 0:  # below 0 only with wrong offsets: stop all the same
                hi = x
                break
            cand &= -1 << (x + wait + 1)
        self._shift(win, hi, -1)
        start = (win.base + at) % n
        buf = self._payloads(start, hi - at)
        buf[:-1] = buf[1:]
        buf[-1] = 0
        self._set_payloads(start, buf)
        low = (1 << at) - 1
        moved = (1 << (hi - 1)) - 1 - low  # [at, hi - 1): each takes the next slot's bits
        win.used ^= 1 << (hi - 1)  # the slot the shift leaves behind
        win.run = win.run & (low | -1 << hi) | (win.run >> 1) & moved
        win.ext = win.ext & (low | -1 << hi) | (win.ext >> 1) & moved
        self.used_count -= 1
        return hi

    # ------------------------------------------------------------------
    # columnar decode and layout

    def _quotients(self, lo: int, m: int, span: int) -> np.ndarray:
        """The first m occupied quotients from slot lo on (fewer if so)."""
        while True:
            top = min(self.nslots, lo + span)
            Q = np.flatnonzero(self._bits(lo, top - lo, slice(3, 4))[0])
            if len(Q) >= m or top == self.nslots:
                return Q[:m] + lo
            span <<= 1

    def _blocks(self, full: bool = False):
        """The table's rows in hash order (by quotient, remainder, rank:
        the map's order, and _lay_out's) as _Cols of about _BLOCK slots,
        each cut just past an unused slot so that it holds whole runs.
        The table is read circularly from the first slot of the run of
        its smallest occupied quotient, so that the k-th run belongs to
        the k-th occupied quotient.  Values and counter spans are
        decoded only when full is set, and chunks holds the block's tail
        slots alone."""
        n, vb, pos = self.nslots, self.value_bits, _pos_dtype(self.nslots)
        start = next_q = a = 0
        for qt in self._quotients(0, 1, _READ).tolist():
            start = (qt - (qt & 63) + self._find_run(qt)[4]) % n
        while a < n:
            b = min(a + _BLOCK, n)
            if b < n:  # the cut goes just past the end of the cluster at b - 1
                b = min(n, b + self._read_rest(_Win((start + b - 1) % n, 0, 0, 0, 0)))
            at, size, a = (start + a) % n, b - a, b
            used, run, ext = self._bits(at, size, slice(3))
            R = np.flatnonzero(used & ~ext)
            ends = np.flatnonzero(run[R])  # the rows that end a run
            tails = np.flatnonzero(used & ext)
            owner = np.searchsorted(R, tails, side="right") - 1
            Q = self._quotients(next_q, len(ends), size + 64).astype(pos)
            if len(Q) < len(ends) or (R.size and not run[R[-1]]) or (owner < 0).any():
                raise StateCorruptionError("runs and occupied quotients do not pair up")
            next_q = int(Q[-1]) + 1 if len(Q) else next_q
            ext_off, ext_len, ctr_len = (np.zeros(len(R), dtype=pos) for _ in range(3))
            if tails.size:  # rare: count the tail slots before each row and its own
                ext_off[:] = np.searchsorted(tails, R)
                ctr_len[:] = np.bincount(owner[run[tails]], minlength=len(R))
                ext_len[:] = np.bincount(owner, minlength=len(R)) - ctr_len
            pay = np.asarray(self._payloads(at, size))
            head = pay[R]
            yield _Cols(np.repeat(Q, np.diff(ends, prepend=-1)), head >> vb,
                        head & ((1 << vb) - 1) if full else None, ext_off, ext_len,
                        ctr_len if full else None, pay[tails] >> vb)
        if self._quotients(next_q, 1, n).size:
            raise StateCorruptionError("runs and occupied quotients do not pair up")

    def _columns(self) -> _Cols:
        """The whole table's rows in hash order: the blocks joined."""
        return _Cols.join(list(self._blocks(full=True)))

    def _lay_out(self, cols: _Cols) -> None:
        """Write fingerprints over the whole table, replacing whatever it
        held, and set the slot counters to match.

        ``cols`` lists the fingerprints in hash order, as _columns hands
        them out.  Each run starts at the larger of its canonical slot and
        the end of the run before it (the counting quotient filter's
        placement), so with P the slots taken by the fingerprints before
        row i, row i lands at P[i] + max over j <= i of (quotient j - P[j]):
        one cumulative max.  The overflow past the top of the table pushes
        the first runs right, so it floors every row's drift.  The last
        row's drift is the largest, and the load cap keeps the rows'
        slots below the table's, so that floor moves the last row not at
        all: the overflow is the last row's alone.  Columns whose slots
        would pass the cap raise FilterFullError before anything is
        written.

        No pass compacts: the head slots are distinct, so the terminator
        mask is assigned at them, not gathered.  The tail passes run only
        when some row has extension chunks or counter digits; with none,
        as in a fill, the slots before row i are i.
        """
        n, vb, fps = self.nslots, self.value_bits, len(cols.quot)
        pos = _pos_dtype(n)
        ext_slots, ctr_slots = int(cols.ext_len.sum()), int(cols.ctr_len.sum())
        total = fps + ext_slots + ctr_slots
        if total > max_used(n):
            raise FilterFullError(f"{total} slots exceed the load limit of {n}")
        at = np.arange(fps, dtype=pos)  # the slots before each row
        tails = rows = tail = digit = np.zeros(0, dtype=pos)
        if total > fps:
            tails = cols.ext_len + cols.ctr_len
            at += np.cumsum(tails, dtype=pos)
            at -= tails
        drift = cols.quot - at
        np.maximum.accumulate(drift, out=drift)
        if len(at):  # the last row ends at total + its drift
            np.maximum(drift, max(0, total + int(drift[-1]) - n), out=drift)
        at += drift
        del drift
        self.offsets[:] = 0
        # from the rows in hand, where _block_offsets would read the table back
        if fps:  # the end of the last row of each block's last quotient before it
            first = np.arange(0, n, 64, dtype=pos)
            row = np.searchsorted(cols.quot, first) - 1
            end = at[row] + 1 - first + (tails[row] if total > fps else 0)
            end[row < 0] -= n  # the top quotient's run, a turn before
            np.maximum(end, 0, out=self.offsets)

        # each row's remainder lands at its head slot, and its extension
        # chunks, then its counter digits, in the tail slots after it
        if total > fps:
            rows = np.flatnonzero(tails)
            tail = _ranges(at[rows] + 1, tails[rows]) % n
            digit = _ranges(at[rows] + 1 + cols.ext_len[rows], cols.ctr_len[rows]) % n
        if len(at) and at[-1] >= n:  # slots ascend: wrap the rows past the top
            np.subtract(at, n, out=at, where=at >= n)
        last = np.ones(fps, dtype=bool)  # run terminators
        np.not_equal(cols.quot[1:], cols.quot[:-1], out=last[:-1])
        bits = np.zeros((4, n), dtype=bool)
        used, run, ext, occ = bits
        used[at] = True
        used[tail] = True
        run[at] = last
        run[digit] = True
        ext[tail] = True
        occ[cols.quot] = True
        del last, digit
        self._pack(bits, 0)
        del bits, used, run, ext, occ
        self.slots[:] = 0
        self.slots[at] = (cols.rem << vb) | cols.value if vb else cols.rem
        self.slots[tail] = cols.chunks[_ranges(cols.ext_off[rows], tails[rows])] << vb
        self.fp_count, self.ext_slot_count, self.ctr_slot_count = fps, ext_slots, ctr_slots
        self.used_count = total

    def _anchor(self) -> int:
        """The first unused slot, which the load cap guarantees."""
        word = int(np.flatnonzero(~self.used)[0])
        free = ~int(self.used[word])
        return (word << 6) + (free & -free).bit_length() - 1

    def _block_offsets(self, rot: int = 0, ends: np.ndarray | None = None) -> np.ndarray:
        """Each block's offset afresh: from slot rot, just past an unused
        one, the k-th occupied quotient owns the k-th run end, whose
        bools from rot on are ends (read from the table if not given)."""
        n = self.nslots
        if ends is None:
            rot = (self._anchor() + 1) % n
            _, run, ext, _ = self._read_bits(rot, n)
            ends = _bools(_run_ends(run, ext), n)
        pos = np.flatnonzero(ends)
        first = np.arange(0, n, 64)
        k = np.cumsum(np.bitwise_count(self.occ), dtype=np.int64)
        k -= np.bitwise_count(self.occ)  # before each block's first slot
        k -= k[rot >> 6] + (int(self.occ[rot >> 6]) & ((1 << (rot & 63)) - 1)).bit_count()
        k[first < rot] += len(pos)  # ... counted from rot on
        end = pos[k - 1] - (first - rot) % n if len(pos) else k
        return np.where(k > 0, np.maximum(end, 0), 0).astype(_pos_dtype(n))

    # ------------------------------------------------------------------
    # bulk probing

    def frozen_index(self) -> "FrozenIndex":
        """Exact index of the table as it is now.

        The last index is cached.  insert_fp and remove_fp drop it, and
        the table is decoded again; extend_fp records its minirun id, and
        the cached index is patched (FrozenIndex.patched); a count edit
        leaves it as it is.  An index once handed out never changes.
        """
        if self._index is None:
            self._index = FrozenIndex(self.cfg, self._blocks())
        elif self._touched:
            self._index = self._index.patched(self, self._touched)
        self._touched.clear()
        return self._index

    # ------------------------------------------------------------------
    # accounting and serialization

    def space_report(self) -> SpaceReport:
        n = self.nslots
        metadata = _META_BITS * n + ((n * 8) >> 6) + HEADER_BITS
        remainder = n * self.slot_bits
        total = metadata + remainder
        per_item = total / self.fp_count if self.fp_count else float("inf")
        return SpaceReport(
            total_bits=total,
            metadata_bits=metadata,
            remainder_bits=remainder,
            extension_slots=self.ext_slot_count,
            counter_slots=self.ctr_slot_count,
            load_factor=self.used_count / n,
            bits_per_item=per_item,
        )

    def to_bytes(self) -> bytes:
        """Serialize: _parts, sealed.

        Little-endian: magic, version (u32), q (u8), r (u8), seed (u64),
        used-slot count (u64) and the first unused slot (u64), the
        anchor from which the used bits are rebuilt on load.  Then
        length-prefixed sections: the occupied, runend and extension bit
        vectors, and the slot width w (u8) followed by the payloads
        packed at w bits each, bit k of slot i at bit i*w + k of the
        stream.  Each group of 64 slots so fills exactly w u64 words:
        slot k of a group lies at shift k*w & 63 of its word k*w >> 6 and
        spills into the next word when it crosses a word's end.  Padding
        bits, past the last slot of a bit vector or the last payload, are
        zero.  A CRC32 of everything before it ends the bytes.
        """
        return seal(self._parts())

    def _parts(self) -> list:
        """to_bytes without its trailer, as a list of parts (see
        snapshot), the bit vectors as views of their words."""
        cfg = self.cfg
        parts = [_HEAD.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, cfg.q, cfg.r, cfg.seed,
                            self.used_count, self._anchor())]
        nbytes = (self.nslots + 7) >> 3
        for vec in (self.occ, self.run, self.ext):
            parts.append(section([le_bytes(vec, "<u8")[:nbytes]]))
        w = self.slot_bits
        parts.append(section([bytes([w]), memoryview(_pack_slots(self.slots, w))]))
        return parts

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlotArray":
        """Parse a snapshot (see to_bytes)."""
        return cls._decode(unseal(data))[0]

    @classmethod
    def _decode(cls, body) -> tuple["SlotArray", np.ndarray]:
        """from_bytes of the bytes before the trailer, and the minirun id
        of each fingerprint in hash order (see _reconstruct_used)."""
        rd = ByteReader(body)
        magic, version, q, r, seed, used_count, anchor = _HEAD.unpack(rd.take(_HEAD.size))
        if magic != SNAPSHOT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {SNAPSHOT_MAGIC!r}")
        if version != SNAPSHOT_VERSION:
            raise FormatError(f"unsupported filter snapshot version {version}")
        try:
            cfg = FilterConfig(q=q, r=r, seed=seed)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        n = 1 << q
        nbytes = (n + 7) >> 3
        sections = [rd.section() for _ in range(3)]
        payload = rd.section()
        rd.done()
        if any(len(s) != nbytes for s in sections):
            raise FormatError("bit vector section has the wrong size")
        if not payload:
            raise FormatError("payload section empty")
        w = payload[0]
        if w < r or w > 63:
            raise FormatError("slot width out of range")
        if len(payload) - 1 != (n * w + 7) >> 3:
            raise FormatError("payload section has the wrong size")
        if anchor >= n:
            raise FormatError(f"anchor slot {anchor} outside the table of {n} slots")
        arr = cls(cfg, value_bits=w - r)
        for vec, blob, name in zip((arr.occ, arr.run, arr.ext), sections,
                                   ("occupied", "runend", "extension")):
            _check_padding(blob, n, f"last slot's {name} bit")
            vec[:] = _le_words(blob, arr.nwords)
        _check_padding(payload[1:], n * w, "last payload")
        arr.slots = _unpack_slots(payload[1:], n, w)
        arr._pay = memoryview(arr.slots)
        return arr, arr._reconstruct_used(used_count, anchor)

    def _reconstruct_used(self, expect_used: int, anchor: int) -> np.ndarray:
        """Rebuild the derived used bits from the canonical vectors, refuse
        a table that is not in the layout the encoder writes, and return
        the minirun id of each fingerprint in hash order, the reverse
        map's row order, as _blocks decodes them.

        ``anchor`` must name the first unused slot, as the snapshot header
        does.  In coordinates rotated to start just past it no cluster
        wraps, so the k-th occupied quotient owns the k-th terminator
        (runend without extension), and its run ends at the k-th run end
        of the rule the walks use (_run_ends).  A slot is used while more
        occupied quotients than run ends lie at or before it: one
        cumulative sum over the table.  A terminator where that count is
        not positive lies before its quotient, so that quotient's run has
        none.  Whole-table temporaries are dropped as soon as they are
        spent, which bounds the peak of a load.

        The layout checks: every run starts with a remainder slot, no
        extension chunk follows a counter digit, an unused slot holds no
        payload, an extension or counter slot no value bits, a
        fingerprint's last counter digit is not zero (_count_digits
        writes none), and the remainders of a run ascend.  No run
        straddles two blocks and the quotients of the runs ascend, so
        that last check is that the ids ascend.
        """
        n, vb = self.nslots, self.value_bits
        if expect_used > max_used(n):
            raise FormatError("used-slot count exceeds the load limit")
        rot = (anchor + 1) % n
        _, run, ext, occ = self._read_bits(rot, n)
        terms, quots = (run & ~ext).bit_count(), occ.bit_count()
        if terms != quots:
            raise FormatError(f"{terms} run terminators for {quots} occupied quotients")
        ends = _bools(_run_ends(run, ext), n)
        used = np.cumsum(_bools(occ, n).view(np.int8) - ends.view(np.int8), dtype=_pos_dtype(n)) > 0
        run, ext = _bools(run, n), _bools(ext, n)
        if (run & ~ext & ~used).any():
            raise FormatError("run has no terminator")
        total = int(np.count_nonzero(used))
        if total != expect_used:
            raise FormatError(
                f"decoded {total} used slots, header says {expect_used}"
            )
        if used[-1]:
            raise FormatError("anchor slot decoded as used")
        self.offsets[:] = self._block_offsets(rot, ends)  # every run ends by the anchor
        del ends
        if ((run | ext) & ~used).any():
            raise FormatError("runend or extension bit on an unused slot")
        # slots 0 .. anchor - 1 sit at the rotated end, just before the anchor
        if not used[n - 1 - anchor : n - 1].all():
            raise FormatError(f"anchor slot {anchor} is not the first unused slot")
        # a cluster starts on a used slot after an unused one (slot 0
        # after the anchor), and any other run starts where the run before
        # it ends, on a slot without the extension bit; by now every
        # extension bit lies on a used slot
        if (ext & ~np.roll(used, 1)).any():
            raise FormatError("run starts with an extension or counter slot")
        if (run[:-1] & ext[:-1] & ext[1:] & ~run[1:]).any():
            raise FormatError("extension chunk after a counter digit")
        pay = np.concatenate([self.slots[rot:], self.slots[:rot]])
        if np.logical_and(pay, ~used).any():
            raise FormatError("payload in an unused slot")
        if (pay[ext] & ((1 << vb) - 1)).any():
            raise FormatError("value bits on an extension or counter slot")
        digit = run & ext
        if not pay[digit & ~np.append(digit[1:], False)].all():
            raise FormatError("count ends in a zero counter digit")
        del pay, digit, run, ext
        self._pack(used[None], rot)
        del used
        mids = np.concatenate([cols.packed(self.cfg.r) for cols in self._blocks()])
        if (mids[1:] < mids[:-1]).any():
            raise FormatError("remainders out of order within a run")
        self.used_count = total
        self.fp_count = len(mids)
        self.ext_slot_count = int(np.bitwise_count(self.ext & ~self.run).sum())
        self.ctr_slot_count = int(np.bitwise_count(self.ext & self.run).sum())
        return mids


class FrozenIndex:
    """Read-only index of fingerprint columns for bulk membership probes.

    Built from columns in hash order: a table's decode, block by block,
    or bare fingerprints sorted by pair with no table at all.  Like a
    quotient filter, it keeps each distinct (quotient, remainder) pair's
    remainder alone, in the columns' remainder dtype, and lets a
    quotient directory imply the quotient, as the counting quotient
    filter's offsets do: ``base[dir[qt]:dir[qt + 1]]`` holds quotient
    qt's remainders, ascending, so a probe compares at most the few
    remainders of one bucket.  Each fingerprint of the rare pairs with
    an extended one is a candidate row: its pair (minirun id) in
    ``cand_packed``, its extension length in ``cand_len`` (a bare one's
    0 matches any key of the pair) and its chunks in a zero-padded
    matrix, which a probe that hits such a pair compares column by
    column.  Exact for the columns it was built from; after extensions
    alone, patched() makes it exact again without decoding the table.
    Equivalence with the slot-walk query is pinned by tests.
    """

    # keys probed per pass; bounds the temporaries of a large batch
    CHUNK = 1 << 16

    def __init__(self, cfg: FilterConfig, cols):
        self.cfg = cfg
        self.dir = np.zeros(cfg.nslots + 1, dtype=_pos_dtype(cfg.nslots))
        base, cands = [], []
        for block in [cols] if isinstance(cols, _Cols) else cols:
            first = np.flatnonzero(_group_starts(block.quot, block.rem))  # each pair's first row
            quots = block.quot[first]
            for a in range(0, len(quots), _BLOCK):  # sorted: a block spans few buckets
                part = quots[a : a + _BLOCK]
                self.dir[int(part[0]) + 1 : int(part[-1]) + 2] += np.bincount(part - part[0])
            base.append(block.rem[first])
            # every row of each pair that has an extended fingerprint
            pair = np.searchsorted(first, np.flatnonzero(block.ext_len), "right") - 1
            pair = pair[_group_starts(pair)]
            bounds = np.append(first, len(block.quot))
            rows = _ranges(bounds[pair], bounds[pair + 1] - bounds[pair])
            cands.append((block.packed(cfg.r, rows), block.ext_len[rows],
                          block.chunks[_ranges(block.ext_off[rows], block.ext_len[rows])]))
        np.cumsum(self.dir, out=self.dir)  # each bucket's first row
        self.base = np.concatenate(base)
        self.cand_packed, self.cand_len, chunks = map(np.concatenate, zip(*cands))
        width = int(self.cand_len.max(initial=0))
        self.cand_chunks = np.zeros((len(self.cand_len), width), dtype=_slot_dtype(cfg.r))
        self.cand_chunks[np.arange(width) < self.cand_len[:, None]] = chunks  # row-major

    def patched(self, arr: SlotArray, mids) -> "FrozenIndex":
        """A new index equal to the FrozenIndex of arr's columns, given
        that arr has had only fingerprints of the miniruns ``mids``
        extended since this index was exact for it.

        Extension keeps every pair, so ``base`` and ``dir`` are shared.
        Each touched pair's candidate rows are read again from its
        minirun; the other candidate rows are kept.
        """
        n, vb = arr.nslots, arr.value_bits
        touched = set(mids)
        pairs, exts = [], []
        for mid in touched:
            fps = [[arr.slots.item((win.base + i) % n) >> vb for i in range(e0, c0)]
                   for win, _, _, e0, c0, _ in arr._minirun(mid)]
            if any(fps):
                pairs += [mid] * len(fps)
                exts += fps
        keep = np.array([p not in touched for p in self.cand_packed.tolist()], dtype=bool)
        kept = int(keep.sum())
        cand_packed = np.concatenate([self.cand_packed[keep], np.array(pairs, dtype=np.uint64)])
        cand_len = np.concatenate([self.cand_len[keep], np.array([len(e) for e in exts],
                                                                 dtype=self.cand_len.dtype)])
        chunks = np.zeros((cand_len.size, int(cand_len.max(initial=0))),
                          dtype=self.cand_chunks.dtype)
        chunks[:kept, :self.cand_chunks.shape[1]] = self.cand_chunks[keep]
        for i, ext in enumerate(exts, kept):
            chunks[i, :len(ext)] = ext
        # stable, so that each pair's rows stay in rank order
        order = _stable_order(cand_packed, self.cfg.q + self.cfg.r)
        new = copy.copy(self)
        new.cand_packed, new.cand_len, new.cand_chunks = (
            cand_packed[order], cand_len[order], chunks[order])
        return new

    def query_keys(self, keys: np.ndarray) -> np.ndarray:
        """Membership verdict per key, adaptation frozen."""
        keys = _key_array(keys)
        found = np.zeros(len(keys), dtype=bool)
        for a in range(0, len(keys), self.CHUNK):
            part = keys[a : a + self.CHUNK]
            found[a : a + len(part)] = self._probe(part)
        return found

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """query_keys for one chunk of keys."""
        packed = split_batch(keys, self.cfg)
        qt = (packed >> np.uint64(self.cfg.r)).astype(np.intp)
        rem = (packed & np.uint64((1 << self.cfg.r) - 1)).astype(self.base.dtype)
        pos, end = self.dir[qt], self.dir[qt + 1]
        found = np.zeros(len(keys), dtype=bool)
        # step k compares entry k of every bucket still live: a bucket is
        # sorted, so a key leaves at its match, at a larger remainder, or
        # at the bucket's end
        live = np.flatnonzero(pos < end)
        while live.size:
            seen = self.base[pos[live]]
            want = rem[live]
            found[live[seen == want]] = True
            live = live[(seen < want) & (pos[live] + 1 < end[live])]
            pos[live] += 1
        if self.cand_packed.size:
            recheck = np.flatnonzero(found)
            lo = np.searchsorted(self.cand_packed, packed[recheck], side="left")
            hi = np.searchsorted(self.cand_packed, packed[recheck], side="right")
            listed = lo < hi
            recheck, lo, hi = recheck[listed], lo[listed], hi[listed]
            found[recheck] = self._ext_match(keys[recheck], lo, hi)
        return found

    def _ext_match(self, keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per key: whether one of the candidate rows [lo, hi) has every
        extension chunk equal to the key's chunk at the same index; a
        bare row matches at once."""
        counts = hi - lo
        key_of = np.repeat(np.arange(len(keys)), counts)
        row = _ranges(lo, counts)
        need = self.cand_len[row]
        hit = np.zeros(len(keys), dtype=bool)
        hit[key_of[need == 0]] = True
        going = need > 0
        t = 0
        while (key_of := key_of[going]).size:
            row, need = row[going], need[going]
            same = extension_chunk_batch(keys[key_of], self.cfg, t) == self.cand_chunks[row, t]
            hit[key_of[same & (need == t + 1)]] = True
            going = same & (need > t + 1)
            t += 1
        return hit
