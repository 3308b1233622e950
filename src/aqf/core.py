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
off.  New fingerprints append at the end of their minirun, so existing
ranks never change, and extending a fingerprint inserts slots in place,
which is what lets adaptation leave the reverse map untouched.

A slot's duplicate count ``c`` occupies zero extra slots when ``c == 1``
and otherwise the little-endian base-``2**r`` digits of ``c - 1``.

Metadata bit vectors are the uint64 rows of one word matrix.  Scalar
work stays cluster local: a walk reads the four rows over its whole
cluster into Python ints at once, a window (``SlotArray._walk_to_run``,
which widens the read by its missing margins until both cluster bounds
fall inside it), and bit-twiddles from there, finding run ends and
fingerprint bounds a word at a time.  One generator, ``SlotArray._run``,
reads a run fingerprint by fingerprint; it is the only scalar walk,
behind queries, inserts and the minirun access of extension, counter
edits and delete.  A mutation edits the window it walked and writes it
back once (``SlotArray._store``), one slot at a time: an open
(``SlotArray._open_slot``) moves the cluster's tail right by one into
the unused slot past it, joining the next cluster when that slot was
its last gap, and a close (``SlotArray._close_slot``) moves the rest of
the run and the later runs left by one, up to the first run at its
canonical slot.  An insert is one open; extensions and growing counters
open one slot per chunk or digit, and deletes, shortening cuts and
shrinking counters close theirs from the last.  Whole-table work goes
through two helpers:
``SlotArray._columns`` decodes the table into numpy columns (quotient,
remainder, value, extension and counter-digit spans), one row per
fingerprint in hash order (by quotient, then remainder, then rank), for
the bulk index, consistency checks, snapshot loading, merge and rebuild;
it is the only code that knows the stored runs are a rotation of that
order.  ``SlotArray._lay_out`` writes such columns over a table, placing
every run with one cumulative max, for merge, rebuild and bulk load.
Both scalar edits leave the layout that ``_lay_out`` would write.

Snapshot (version 2).  Only the occupied, runend and extension vectors
and the payloads are written, with a header that names the first unused
slot; the used bits are rebuilt from those on load, and a CRC32 trailer
covers all of it.  The payloads are packed with word arithmetic, 64
slots to w words (``_pack_slots``), and the encoder hands out views of
the table's words rather than copies (``SlotArray._parts``).  Loading
accepts only bytes the encoder writes: a table that loads is in the
layout ``_lay_out`` writes, which ``SlotArray._reconstruct_used``
checks, with zero padding bits, and encodes back to the same bytes.
The same pass over the rows yields the minirun ids in hash order, which
a filter's load hands to the reverse map (``SlotArray._decode``).
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass
from itertools import compress, count
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
    MASK64,
    FilterConfig,
    HashStream,
    as_index,
    extension_chunk,
    extension_chunk_batch,
    split,
    split_batch,
)
from .snapshot import ByteReader, le_bytes, section, sealed, unseal

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

# groups of 64 slots that the payload codec packs or unpacks per pass:
# 256 KiB of slots, so that a pass's steps find them and their packed
# words still in cache
_CODEC_GROUPS = 1 << 9


def max_used(nslots: int) -> int:
    """The most used slots that a table of nslots slots may hold."""
    return _LOAD_NUM * nslots // _LOAD_DEN


def pack_minirun_id(quotient: int, remainder: int, q: int) -> int:
    """Minirun ids carry the remainder above the quotient so that the
    quotient width alone suffices to unpack them."""
    return (remainder << q) | quotient


def unpack_minirun_id(mid: int, q: int) -> tuple[int, int]:
    return mid & ((1 << q) - 1), mid >> q


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


_BITS = bytes.maketrans(b"01", b"\0\1")


def _ones(x: int) -> list[int]:
    """Positions of the set bits of x, lowest first, found in C: one
    byte per bit of x's binary text, and compress keeps the nonzero."""
    return list(compress(count(), bin(x)[:1:-1].encode().translate(_BITS)))


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
        grid = np.zeros(groups << 6, dtype=np.uint64)
        grid[:n] = slots
    grid = grid.reshape(groups, 64)
    words = np.empty((groups, w), dtype="<u8")
    for a in range(0, groups, _CODEC_GROUPS):
        blk, out = grid[a : a + _CODEC_GROUPS], words[a : a + _CODEC_GROUPS]
        np.bitwise_or.reduceat(blk << shift, firsts, axis=1, out=out)
        out[:, word[spill] + 1] |= blk[:, spill] >> (np.uint64(64) - shift[spill])
    return words.reshape(-1).view(np.uint8)[: (n * w + 7) >> 3]


def _unpack_slots(data, n: int, w: int) -> np.ndarray:
    """The n payloads that _pack_slots packed into data, as uint64; the
    stream's padding bits are ignored."""
    groups = (n + 63) >> 6
    word, shift, _, spill = _codec_plan(w)
    words = _le_words(data, groups * w).reshape(groups, w)
    slots = np.empty((groups, 64), dtype=np.uint64)
    mask = np.uint64((1 << w) - 1)
    for a in range(0, groups, _CODEC_GROUPS):
        blk, out = words[a : a + _CODEC_GROUPS], slots[a : a + _CODEC_GROUPS]
        np.right_shift(blk[:, word], shift, out=out)
        out[:, spill] |= blk[:, word[spill] + 1] << (np.uint64(64) - shift[spill])
        out &= mask
    return slots.reshape(-1)[:n]


def _check_padding(blob, nbits: int, what: str) -> None:
    """Refuse a set bit past the first nbits bits of blob's last byte."""
    if nbits & 7 and blob[-1] >> (nbits & 7):
        raise FormatError(f"padding bits set past the {what}")


class _Cols(NamedTuple):
    """Per-fingerprint columns, one row per fingerprint; _columns hands
    them out in hash order, and _lay_out takes them so.

    A fingerprint's extension chunks are chunks[ext_off:ext_off+ext_len]
    and its counter digits the ctr_len entries right after them.
    Quotients and spans are int64; remainders, values and chunks uint64.
    """

    quot: np.ndarray
    rem: np.ndarray
    value: np.ndarray
    ext_off: np.ndarray
    ext_len: np.ndarray
    ctr_len: np.ndarray
    chunks: np.ndarray

    @classmethod
    def build(cls, quot, rem, value, ext_len, ctr_len, chunks) -> "_Cols":
        """Columns over a chunk array holding, fingerprint after
        fingerprint, its extension chunks and then its counter digits."""
        ext_len = np.asarray(ext_len, dtype=np.int64)
        ctr_len = np.asarray(ctr_len, dtype=np.int64)
        return cls(np.asarray(quot, dtype=np.int64), np.asarray(rem, dtype=np.uint64),
                   np.asarray(value, dtype=np.uint64),
                   np.cumsum(ext_len + ctr_len) - ext_len - ctr_len, ext_len, ctr_len,
                   np.asarray(chunks, dtype=np.uint64))

    @classmethod
    def bare(cls, packed: np.ndarray, r: int) -> "_Cols":
        """Bare fingerprints of the pairs packed (see packed), valued 0."""
        zero = np.zeros(len(packed), dtype=np.int64)
        return cls.build(packed >> np.uint64(r), packed & np.uint64((1 << r) - 1),
                         zero, zero, zero, ())

    def take(self, idx) -> "_Cols":
        """The rows idx (indices or a mask), sharing the chunk array."""
        return _Cols(*(col[idx] for col in self[:-1]), self.chunks)

    def concat(self, other: "_Cols") -> "_Cols":
        """self's rows followed by other's."""
        moved = other._replace(ext_off=other.ext_off + len(self.chunks))
        return _Cols(*(np.concatenate(pair) for pair in zip(self, moved)))

    def packed(self, r: int) -> np.ndarray:
        """(quotient << r) | remainder: the hash order of each row."""
        return (self.quot.astype(np.uint64) << np.uint64(r)) | self.rem

    def mids(self, q: int) -> np.ndarray:
        """Minirun id of each row (see pack_minirun_id)."""
        return (self.rem << np.uint64(q)) | self.quot.astype(np.uint64)


class _Win:
    """One cluster's used, runend, extension and occupied bits, read at
    once by SlotArray._walk_to_run.

    ``base`` is the cluster's first slot, and bit i of each row is slot
    base + i, wrapping past the top of the table.  Every bit past the
    cluster is zero, so walks stop at its end without bounds checks: the
    unused slot there ends the last run, and no fingerprint follows it.

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

    def ends(self) -> int:
        """Run ends: bit i is set when offset i is just past a run, past
        its terminator (runend without extension) and the extension slots
        that trail it.  Adding each terminator's next bit to the extension
        bits carries through those slots, so the bits that the sum sets
        outside the extension bits are the ends; the last run's carry
        lands on the unused slot past the cluster."""
        ext = self.ext
        return (ext + ((self.run & ~ext) << 1)) & ~ext


def _select_end(ends: int, pos: int, k: int) -> int:
    """Offset just past the k-th run ending at or after offset pos, given
    the run ends of _Win.ends, selected a word at a time."""
    ends >>= pos + 1
    while ends:
        word = ends & MASK64
        have = word.bit_count()
        if have >= k:
            for _ in range(k - 1):
                word &= word - 1
            return pos + (word & -word).bit_length()
        k -= have
        ends >>= 64
        pos += 64
    raise StateCorruptionError("run without a terminator")


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
        self.slots = np.zeros(n, dtype=np.uint64)
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

    def _unpack(self, start: int) -> np.ndarray:
        """Metadata bits of every slot, read circularly from slot start: a
        (4, nslots) bool array with rows used, run, ext, occ."""
        n = self.nslots
        bits = np.unpackbits(self._meta.view(np.uint8), axis=1, bitorder="little")
        return np.concatenate([bits[:, start:n], bits[:, :start]], axis=1).view(bool)

    def _pack(self, bits: np.ndarray, start: int) -> None:
        """Overwrite the leading rows of the word matrix with bits laid out
        as _unpack(start)'s: all four rows, or only the used bits."""
        n = self.nslots
        flat = np.zeros((len(bits), self.nwords << 6), dtype=bool)
        flat[:, start:n] = bits[:, : n - start]
        flat[:, :start] = bits[:, n - start :]
        self._meta[: len(bits)] = np.packbits(flat, axis=1, bitorder="little").view(np.uint64)

    def _payloads(self, start: int, length: int) -> np.ndarray:
        """Payloads of slots [start, start+length) circularly: a view of
        the table, or across the seam a copy that _set_payloads stores."""
        n = self.nslots
        if start + length <= n:
            return self.slots[start : start + length]
        return np.concatenate((self.slots[start:], self.slots[: start + length - n]))

    def _set_payloads(self, start: int, buf: np.ndarray) -> None:
        """Store what _payloads(start, len(buf)) handed out, once edited."""
        head = self.nslots - start
        if len(buf) > head:
            self.slots[start:] = buf[:head]
            self.slots[: len(buf) - head] = buf[head:]

    def _store(self, win: _Win, lo: int, hi: int) -> None:
        """Write the window's four rows over its offsets [lo, hi): one
        read-modify-write of the words they touch, two across the seam."""
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
        the cluster's end, which is where _lay_out places every run.
        That slot may lie just before the next cluster, which the open
        then joins; the window is known only up to the edit.  So when
        the table has the slot at the window's end used, an earlier open
        on this window joined the cluster that begins there, and this one
        reads it in first, a margin at a time as _walk_to_run grows its
        reads.  A lone open reads nothing past the walk's window.
        """
        n = self.nslots
        end = win.used.bit_length()
        width = _READ if n > _READ else n
        s = (win.base + end) % n
        while (self.used.item(s >> 6) >> (s & 63)) & 1:
            rows = self._read_bits(s, width)
            part = ((rows[0] + 1) & ~rows[0]).bit_length() - 1  # the used slots leading it
            keep = (1 << part) - 1
            win.used, win.run, win.ext, win.occ = (
                x | (y & keep) << end for x, y in zip((win.used, win.run, win.ext, win.occ), rows))
            end += part
            s = (win.base + end) % n
            width <<= 1
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

    # ------------------------------------------------------------------
    # run navigation

    def _walk_to_run(self, qt: int) -> tuple[_Win, int]:
        """(window over the cluster holding slot ``qt``, run start offset).

        The run located is the one for quotient ``qt`` if occupied, else
        the position where that run would begin.  One read of all four
        metadata rows over slots [qt - _READ, qt + _READ), or the whole
        table if that is smaller, finds the cluster's bounds, the unused
        slots nearest to qt on either side.  While a bound lies outside
        the read, the read grows on that side by as much as it already
        holds there, reading only the new margin.  An unused slot ``qt``
        gets an empty window based at it.
        """
        n = self.nslots
        left = right = _READ if n > _READ else n  # slots read before qt, and from it on
        used, run, ext, occ = self._read_bits((qt - left) % n, 2 * left)
        if not (used >> left) & 1:
            return _Win(qt, 0, 0, 0, 0), 0
        while True:
            lo = (~used & ((1 << left) - 1)).bit_length()  # the cluster's first slot
            tail = used >> left
            end = ((tail + 1) & ~tail).bit_length() - 1  # its end, counted from qt
            if lo and end < right:
                break
            if (not lo and left >= n) or (end >= right and right >= n):
                raise StateCorruptionError("no cluster boundary found")
            if not lo:
                more = self._read_bits((qt - 2 * left) % n, left)
                used, run, ext, occ = (m | (x << left) for m, x in zip(more, (used, run, ext, occ)))
                left <<= 1
            if end >= right:
                more = self._read_bits((qt + right) % n, right)
                used, run, ext, occ = (x | (m << (left + right))
                                       for x, m in zip((used, run, ext, occ), more))
                right <<= 1
        keep = (1 << (left - lo + end)) - 1
        run, ext, occ = (run >> lo) & keep, (ext >> lo) & keep, (occ >> lo) & keep
        win = _Win((qt - left + lo) % n, (used >> lo) & keep, run, ext, occ)
        # qt's run starts at the end of the run of the last occupied
        # quotient before qt; of those runs, the ones ending by qt's slot
        # are counted off, and the rest end past it
        dist = left - lo
        ends = win.ends()
        skip = (occ & ((1 << dist) - 1)).bit_count() - (ends & ((2 << dist) - 1)).bit_count()
        return win, _select_end(ends, dist, skip) if skip else dist

    def _run(self, qt: int):
        """Yield (window, previous fp offset, fp offset, remainder, ext
        group offset, ctr offset, next fp offset, is_terminator) for each
        fingerprint of quotient ``qt``'s run in storage order, and
        nothing when ``qt`` is unoccupied.  Offsets are window offsets;
        the previous fingerprint is the one before it in the run, or None
        for the run's first.  The next fingerprint starts at the first
        slot past the remainder slot without the extension bit, and the
        counter digits at the first slot between them with the runend
        bit.  The one scalar reader of a run: queries, inserts and
        minirun access all walk through it."""
        if not (self.occ.item(qt >> 6) >> (qt & 63)) & 1:
            return
        win, pos = self._walk_to_run(qt)
        n, vb, slots, base = self.nslots, self.value_bits, self.slots, win.base
        prev = None
        while True:
            is_term = (win.run >> pos) & 1
            e0 = pos + 1
            tail = win.ext >> e0
            if tail & 1:
                nxt = e0 + ((tail + 1) & ~tail).bit_length() - 1
                digits = (win.run >> e0) & ((1 << (nxt - e0)) - 1)
                c0 = e0 + (digits & -digits).bit_length() - 1 if digits else nxt
            else:
                c0 = nxt = e0
            yield win, prev, pos, slots.item((base + pos) % n) >> vb, e0, c0, nxt, is_term
            if is_term:
                return
            prev, pos = pos, nxt

    # ------------------------------------------------------------------
    # public operations

    def has_room(self, extra: int) -> bool:
        """Whether ``extra`` more used slots stay within the load cap."""
        return self.used_count + extra <= max_used(self.nslots)

    def query_fp(self, stream: HashStream, start: int = 0,
                 pair: tuple[int, int] | None = None) -> tuple[int, int, int] | None:
        """First stored fingerprint that is a prefix of ``stream``, at
        minirun rank ``start`` or later.  ``pair`` is the stream's
        (quotient, remainder) when the caller has split it already.

        Returns (minirun rank, matched extension length, value bits of
        its remainder slot) or None.
        """
        cfg = self.cfg
        qt, rem = split(stream, cfg) if pair is None else pair
        n, vb, slots = self.nslots, self.value_bits, self.slots
        rank = 0
        for win, _, pos, rem_i, e0, c0, _, _ in self._run(qt):
            if rem_i > rem:
                return None
            if rem_i == rem:
                if rank >= start:
                    for t in range(c0 - e0):
                        if slots.item((win.base + e0 + t) % n) >> vb != extension_chunk(stream, cfg, t):
                            break
                    else:
                        value = slots.item((win.base + pos) % n) & ((1 << vb) - 1)
                        return rank, c0 - e0, value
                rank += 1
        return None

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
        if (self.occ.item(qt >> 6) >> (qt & 63)) & 1:
            for win, _, pos, rem_i, _, _, nxt, _ in self._run(qt):
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
            lo = (qt - win.base) % self.nslots
            win.occ |= 1 << lo
        self._store(win, lo, self._open_slot(win, at, new_term, 0, payload))
        self.fp_count += 1
        return pack_minirun_id(qt, rem, self.cfg.q), rank

    def _minirun(self, mid: int) -> list[tuple[_Win, int | None, int, int, int, int]]:
        """(window, previous fp offset, fp offset, ext group offset, ctr
        offset, next) of each fingerprint of a minirun, in rank order:
        the fingerprints of _run with the minirun's remainder."""
        qt, rem = unpack_minirun_id(mid, self.cfg.q)
        fps = []
        for win, prev, pos, rem_i, e0, c0, nxt, _ in self._run(qt):
            if rem_i > rem:
                break
            if rem_i == rem:
                fps.append((win, prev, pos, e0, c0, nxt))
        return fps

    def _locate_fp(self, mid: int, rank: int) -> tuple[_Win, int | None, int, int, int, int]:
        """The rank-th fingerprint of a minirun as _minirun lists it.
        Raises if missing."""
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
        self._write_count(mid, self._locate_fp(mid, rank), count)

    def add_count(self, mid: int, rank: int, delta: int) -> int:
        """Add delta to one fingerprint's count, reading and rewriting it
        in one walk; returns the new count.  A count that would fall
        below 1 is left as it is, for the caller to remove the
        fingerprint instead."""
        fp = self._locate_fp(mid, rank)
        count = self._count(fp) + delta
        if count >= 1:
            self._write_count(mid, fp, count)
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

    def _write_count(self, mid: int, fp: tuple[_Win, int | None, int, int, int, int],
                     count: int) -> None:
        """Rewrite the counter digits of minirun mid's fingerprint fp (as
        _minirun lists it) in place.  The digits it keeps are
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
        qt = mid & ((1 << self.cfg.q) - 1)
        hi = 0
        for i in range(have, len(digits)):
            hi = self._open_slot(win, c0 + i, 1, 1, digits[i] << vb)
        for at in range(nxt - 1, c0 + len(digits) - 1, -1):
            hi = max(hi, self._close_slot(win, qt, pos, at))
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
        qt = mid & ((1 << self.cfg.q) - 1)
        lo = min(gone)[0]
        if (win.run >> pos) & 1 and prev is None:
            lo = (qt - win.base) % self.nslots
            win.occ ^= 1 << lo
        elif (win.run >> pos) & 1:
            lo = min(lo, prev)
            win.run |= 1 << prev
        hi = 0
        for at, fp in sorted(gone, reverse=True):
            hi = max(hi, self._close_slot(win, qt, fp, at))
        self._store(win, lo, hi)
        cut = len(gone) - (nxt - pos)
        self.fp_count -= 1
        self.ext_slot_count -= c0 - e0 + cut
        self.ctr_slot_count -= nxt - c0
        self._index = None

    def _close_slot(self, win: _Win, qt: int, fp: int, at: int) -> int:
        """Remove the slot at window offset ``at``, a slot of the
        fingerprint at offset fp in the run of quotient qt, and close the
        gap: the inverse of _open_slot.  Returns the offset just past the
        edit, which the caller stores (_store).

        The rest of the run moves left by one, and so does each later
        run of the cluster up to the first one already at its canonical
        slot, which is where _lay_out would place them; with no such run
        the shift reaches the end of the cluster.  A run sits at its
        canonical slot when its start and its quotient are the same
        distance past qt's slot: the run starts and the occupied bits
        are paired off in order (_ones), from a prefix of the cluster
        that doubles until it holds such a run.  Nothing is read when no
        run follows, or the next one does not move.  The window's
        runend, extension and used bits move as bit strings, the payloads
        as one slice, and the slot the shift leaves behind is cleared.
        The occupied bits, the store and the fingerprint counters are the
        caller's.
        """
        n = self.nslots
        ends = win.ends()
        rest = ends >> (fp + 1)
        end = fp + (rest & -rest).bit_length()  # just past fp's run
        used = win.used >> end
        hi = end + ((used + 1) & ~used).bit_length() - 1  # the cluster's end
        q0 = (qt - win.base) % n + 1
        occ = win.occ >> q0
        if end < hi and (occ & -occ).bit_length() - 1 == end - q0:
            hi = end
        elif end < hi:
            reach = 64
            while True:
                lim = min(hi, end + reach)
                starts = _ones(((ends >> end) & ((1 << (lim - end)) - 1)) << (end - q0))
                quots = _ones(occ & ((1 << (lim - q0)) - 1))
                fixed = [s for s, t in zip(starts, quots) if s == t]
                if fixed or lim == hi:
                    break
                reach <<= 1
            if fixed:
                hi = q0 + fixed[0]
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

    def _columns(self) -> _Cols:
        """Decode the whole table into rows in hash order: by quotient,
        then remainder, then minirun rank.  That is the order of the
        reverse map's rows and the order _lay_out takes.

        The table is read circularly from the first slot of the run of
        its smallest occupied quotient, so that the runs come in quotient
        order: the k-th run belongs to the k-th occupied quotient.  A
        remainder slot is a used slot without the extension bit; the k-th
        of them with runend set ends the k-th run.  A fingerprint's other
        slots follow its remainder slot: extension chunks (extension bit
        only), then counter digits (both bits).
        """
        n, vb = self.nslots, self.value_bits
        Q = np.flatnonzero(np.unpackbits(self.occ.view(np.uint8), bitorder="little")[:n].view(bool))
        start = 0
        if len(Q):
            win, at = self._walk_to_run(int(Q[0]))
            start = (win.base + at) % n
        used, run, ext, _ = self._unpack(start)
        pay = np.concatenate([self.slots[start:], self.slots[:start]])
        R = np.flatnonzero(used & ~ext)
        ends_run = run[R]
        run_of = np.cumsum(ends_run)
        run_of -= ends_run  # terminators before each row
        tails = np.flatnonzero(used & ext)
        owner = np.searchsorted(R, tails, side="right") - 1
        if ends_run.sum() != len(Q) or (R.size and not ends_run[-1]) or (owner < 0).any():
            raise StateCorruptionError("runs and occupied quotients do not pair up")
        ctr_len = np.bincount(owner[run[tails]], minlength=len(R))
        ext_len = np.bincount(owner, minlength=len(R))
        ext_len -= ctr_len
        # the last columns are made in place of the arrays they come
        # from, so that the decode holds fewer whole-table temporaries
        value = pay[R]
        rem = value >> np.uint64(vb)
        value &= np.uint64((1 << vb) - 1)
        R += 1  # the extension offsets
        pay >>= np.uint64(vb)  # the chunks
        return _Cols(quot=Q[run_of], rem=rem, value=value, ext_off=R, ext_len=ext_len,
                     ctr_len=ctr_len, chunks=pay)

    def _lay_out(self, cols: _Cols) -> None:
        """Write fingerprints over the whole table, replacing whatever it
        held, and set the slot counters to match.

        ``cols`` lists the fingerprints in hash order, as _columns hands
        them out.  Each run starts at the larger of its canonical slot and
        the end of the run before it (the counting quotient filter's
        placement), so with P the slots taken by the fingerprints before
        row i, row i lands at P[i] + max over j <= i of (quotient j - P[j]):
        one cumulative max.  The overflow past the top of the table pushes
        the first runs right, so the positions are recomputed with that
        overflow as a floor until it settles; the load cap leaves a free
        slot, which ends the chase.  Columns whose slots would pass the cap
        raise FilterFullError before anything is written.
        """
        n, vb = self.nslots, self.value_bits
        tails = cols.ext_len + cols.ctr_len
        width = tails + 1
        ends = np.cumsum(width)
        total = int(ends[-1]) if len(ends) else 0
        if total > max_used(n):
            raise FilterFullError(f"{total} slots exceed the load limit of {n}")
        before = ends - width
        drift = np.maximum.accumulate(cols.quot - before)
        at, floor = before + drift, 0
        for _ in range(n + 1):
            over = max(0, int(at[-1] + width[-1]) - n) if len(at) else 0
            if over == floor:
                break
            floor = over
            at = before + np.maximum(drift, floor)
        else:
            raise StateCorruptionError("layout overflow chase did not settle")

        # each row's remainder lands at its head slot, and its extension
        # chunks, then its counter digits, in the tail slots after it
        head = at % n
        rows = np.flatnonzero(tails)
        tail = _ranges(at[rows] + 1, tails[rows]) % n
        digit = _ranges(at[rows] + 1 + cols.ext_len[rows], cols.ctr_len[rows]) % n
        last = np.ones(len(width), dtype=bool)  # run terminators
        last[:-1] = cols.quot[1:] != cols.quot[:-1]
        bits = np.zeros((4, n), dtype=bool)
        used, run, ext, occ = bits
        used[head] = True
        used[tail] = True
        run[head[last]] = True
        run[digit] = True
        ext[tail] = True
        occ[cols.quot[last]] = True
        self._pack(bits, 0)
        self.slots[:] = 0
        self.slots[head] = (cols.rem << np.uint64(vb)) | cols.value
        self.slots[tail] = cols.chunks[_ranges(cols.ext_off[rows], tails[rows])] << np.uint64(vb)
        self.fp_count = len(cols.quot)
        self.ext_slot_count = int(cols.ext_len.sum())
        self.ctr_slot_count = int(cols.ctr_len.sum())
        self.used_count = total

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
            self._index = FrozenIndex(self.cfg, self._columns())
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
        """Serialize as version 2.

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
        return b"".join(self._parts())

    def _parts(self) -> list:
        """to_bytes as a list of parts (see snapshot), the bit vectors as
        views of their words."""
        cfg = self.cfg
        # the first unused slot, which the load cap guarantees
        word = int(np.flatnonzero(~self.used)[0])
        free = ~int(self.used[word])
        anchor = (word << 6) + (free & -free).bit_length() - 1
        parts = [_HEAD.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, cfg.q, cfg.r, cfg.seed,
                            self.used_count, anchor)]
        nbytes = (self.nslots + 7) >> 3
        for vec in (self.occ, self.run, self.ext):
            parts += section([le_bytes(vec, "<u8")[:nbytes]])
        w = self.slot_bits
        parts += section([bytes([w]), memoryview(_pack_slots(self.slots, w))])
        return sealed(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlotArray":
        """Parse a version 2 snapshot (see to_bytes)."""
        return cls._decode(data)[0]

    @classmethod
    def _decode(cls, data) -> tuple["SlotArray", np.ndarray]:
        """from_bytes, and the minirun id of each fingerprint in hash
        order, from the same pass over the table's rows."""
        rd = ByteReader(unseal(data))
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
        return arr, arr._reconstruct_used(used_count, anchor)

    def _reconstruct_used(self, expect_used: int, anchor: int) -> np.ndarray:
        """Rebuild the derived used bits from the canonical vectors, refuse
        a table that is not in the layout the encoder writes, and return
        the minirun id of each fingerprint in hash order, the reverse
        map's row order: one pass over the table's rows for all of it.

        ``anchor`` must name the first unused slot, as the snapshot header
        does.  In coordinates rotated to start just past it no cluster
        wraps, so the k-th occupied quotient owns the k-th terminator
        (runend without extension).  Run k starts at the larger of its
        quotient and the end of run k-1, and ends at the first slot past
        its terminator without the extension bit.  The runs tile the
        clusters, so the used slots are those from each cluster's first
        run start to its last run end.  Hash order is the rotated order
        of the rows, turned so that the run of the smallest quotient
        comes first.  Whole-table temporaries are dropped as soon as
        they are spent, which bounds the peak of a load.

        The layout checks: every run starts with a remainder slot, the
        remainders of a run ascend, no extension chunk follows a counter
        digit, an unused slot holds no payload, an extension or counter
        slot no value bits, and a fingerprint's last counter digit is not
        zero (_count_digits writes none).
        """
        n, vb = self.nslots, self.value_bits
        if expect_used > max_used(n):
            raise FormatError("used-slot count exceeds the load limit")
        rot = (anchor + 1) % n
        _, run, ext, occ = self._unpack(rot)
        Q = np.flatnonzero(occ)
        T = np.flatnonzero(run & ~ext)
        if len(T) != len(Q):
            raise FormatError(f"{len(T)} run terminators for {len(Q)} occupied quotients")
        # a run ends at the first slot past its terminator without the
        # extension bit: past the stretch of extension slots that follows
        # the terminator, if one does
        end = T + 1
        tails = np.flatnonzero(np.append(ext, False)[end])
        if tails.size:
            E = np.flatnonzero(ext)
            last = np.flatnonzero(np.diff(E, append=n + 1) != 1)  # each stretch's last
            end[tails] = E[last[np.searchsorted(last, np.searchsorted(E, end[tails]))]] + 1
        start = np.maximum(Q, np.append(0, end[:-1]))
        if (T < start).any():
            raise FormatError("run has no terminator")
        del T
        total = int((end - start).sum())
        if total != expect_used:
            raise FormatError(
                f"decoded {total} used slots, header says {expect_used}"
            )
        if len(end) and end[-1] == n:
            raise FormatError("anchor slot decoded as used")
        # the runs tile the clusters: a run that does not start where the
        # run before it ends starts a cluster, and the run before it ends one
        apart = np.ones(len(start) + 1, dtype=bool)
        apart[1:-1] = start[1:] != end[:-1]
        edge = np.zeros(n + 1, dtype=np.int8)
        edge[start[apart[:-1]]] = 1
        edge[end[apart[1:]]] = -1
        used = np.cumsum(edge[:n], dtype=np.int8).view(bool)
        del edge
        if ((run | ext) & ~used).any():
            raise FormatError("runend or extension bit on an unused slot")
        # slots 0 .. anchor - 1 sit at the rotated end, just before the anchor
        if not used[n - 1 - anchor : n - 1].all():
            raise FormatError(f"anchor slot {anchor} is not the first unused slot")
        if ext[start].any():
            raise FormatError("run starts with an extension or counter slot")
        del start, end
        if (run[:-1] & ext[:-1] & ext[1:] & ~run[1:]).any():
            raise FormatError("extension chunk after a counter digit")
        pay = np.concatenate([self.slots[rot:], self.slots[:rot]])
        R = np.flatnonzero(used & ~ext)
        term = run[R]  # whether each row ends its run
        mids = pay[R] >> np.uint64(vb)  # the remainders, then the ids
        del R
        if ((mids[1:] < mids[:-1]) & ~term[:-1]).any():
            raise FormatError("remainders out of order within a run")
        if np.logical_and(pay, ~used).any():
            raise FormatError("payload in an unused slot")
        if (pay[ext] & np.uint64((1 << vb) - 1)).any():
            raise FormatError("value bits on an extension or counter slot")
        digit = run & ext
        if not pay[digit & ~np.append(digit[1:], False)].all():
            raise FormatError("count ends in a zero counter digit")
        del pay
        run_of = np.cumsum(term)
        run_of -= term
        # hash order starts at quotient 0: the runs of the rotated
        # quotients n - rot and up come first
        cut = int(np.searchsorted(run_of, np.searchsorted(Q, n - rot)))
        quot = Q[run_of]
        del run_of
        quot += rot
        quot &= n - 1
        mids <<= np.uint64(self.cfg.q)
        mids |= quot.view(np.uint64)
        del quot
        self._pack(used[None], rot)
        self.used_count = total
        self.fp_count = len(mids)
        self.ext_slot_count = int(np.bitwise_count(self.ext & ~self.run).sum())
        self.ctr_slot_count = int(np.bitwise_count(self.ext & self.run).sum())
        return np.concatenate((mids[cut:], mids[:cut]))


class FrozenIndex:
    """Read-only index of fingerprint columns for bulk membership probes.

    Built from columns in hash order: a table's decode, or bare
    fingerprints sorted by pair with no table at all.  Baseline pairs,
    packed as (quotient << r) | remainder, go into one sorted array
    ``base``.  A quotient directory locates each quotient's pairs
    without a search, as the counting quotient filter's offsets do:
    ``base[dir[qt]:dir[qt + 1]]`` holds quotient qt's pairs, so a probe
    gathers its bucket bounds and compares at most the few remainders of
    one bucket.  The rare pairs whose fingerprints are all extended are
    flagged in ``all_ext``; their fingerprints keep their chunks on the
    side, in a zero-padded matrix that a probe hitting such a pair
    compares column by column.  Exact for the columns it was built from;
    after extensions alone, patched() makes it exact again without
    decoding the table.  Equivalence with the slot-walk query is pinned
    by tests.
    """

    # keys probed per pass; bounds the temporaries of a large batch
    CHUNK = 1 << 16

    def __init__(self, cfg: FilterConfig, cols: _Cols):
        self.cfg = cfg
        packed = cols.packed(cfg.r)
        starts = np.flatnonzero(np.diff(packed, prepend=~packed[:1]))
        self.base = packed[starts]
        self.all_ext = np.minimum.reduceat((cols.ext_len > 0).astype(np.uint8),
                                           starts).astype(bool)
        counts = np.bincount((self.base >> np.uint64(cfg.r)).astype(np.intp),
                             minlength=cfg.nslots)
        dtype = np.int32 if self.base.size < 1 << 31 else np.int64
        self.dir = np.zeros(cfg.nslots + 1, dtype=dtype)
        np.cumsum(counts, out=self.dir[1:])
        # every fingerprint of an all-extended pair, sorted by pair,
        # chunks zero-padded to the longest extension
        cand = np.flatnonzero(np.repeat(self.all_ext, np.diff(starts, append=len(packed))))
        self.cand_packed = packed[cand]
        self.cand_len = cols.ext_len[cand]
        width = int(self.cand_len.max()) if cand.size else 0
        self.cand_chunks = np.zeros((cand.size, width), dtype=np.uint64)
        off = cols.ext_off[cand]
        at = _ranges(off, self.cand_len)
        row = np.repeat(np.arange(cand.size), self.cand_len)
        self.cand_chunks[row, at - off[row]] = cols.chunks[at]

    def patched(self, arr: SlotArray, mids) -> "FrozenIndex":
        """A new index equal to the FrozenIndex of arr's columns, given
        that arr has had only fingerprints of the miniruns ``mids``
        extended since this index was exact for it.

        Extension keeps every pair, so ``base`` and ``dir`` are shared.
        Each touched pair's ``all_ext`` flag and candidate rows are read
        again from its minirun; the other candidate rows are kept.
        """
        n, vb, q, r = arr.nslots, arr.value_bits, self.cfg.q, self.cfg.r
        mids = list(mids)
        touched = [((m & ((1 << q) - 1)) << r) | (m >> q) for m in mids]
        at = np.searchsorted(self.base, np.array(touched, dtype=np.uint64)).tolist()
        new = copy.copy(self)
        new.all_ext = self.all_ext.copy()
        pairs, exts = [], []
        for mid, pair, row in zip(mids, touched, at):
            fps = [[arr.slots.item((win.base + i) % n) >> vb for i in range(e0, c0)]
                   for win, _, _, e0, c0, _ in arr._minirun(mid)]
            new.all_ext[row] = all(fps)
            if all(fps):
                pairs += [pair] * len(fps)
                exts += fps
        gone = set(touched)
        keep = np.array([p not in gone for p in self.cand_packed.tolist()], dtype=bool)
        kept = int(keep.sum())
        cand_packed = np.concatenate([self.cand_packed[keep], np.array(pairs, dtype=np.uint64)])
        cand_len = np.concatenate([self.cand_len[keep], np.array([len(e) for e in exts],
                                                                 dtype=np.int64)])
        chunks = np.zeros((cand_len.size, int(cand_len.max(initial=0))), dtype=np.uint64)
        chunks[:kept, :self.cand_chunks.shape[1]] = self.cand_chunks[keep]
        for i, ext in enumerate(exts, kept):
            chunks[i, :len(ext)] = ext
        # stable, so that each pair's rows stay in rank order
        order = _stable_order(cand_packed, q + r)
        new.cand_packed, new.cand_len, new.cand_chunks = (
            cand_packed[order], cand_len[order], chunks[order])
        return new

    def query_keys(self, keys: np.ndarray) -> np.ndarray:
        """Membership verdict per key, adaptation frozen."""
        keys = np.asarray(keys, dtype=np.uint64)
        found = np.zeros(len(keys), dtype=bool)
        for a in range(0, len(keys), self.CHUNK):
            part = keys[a : a + self.CHUNK]
            found[a : a + len(part)] = self._probe(part)
        return found

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """query_keys for one chunk of keys."""
        packed = split_batch(keys, self.cfg)
        qt = (packed >> np.uint64(self.cfg.r)).astype(np.intp)
        pos, end = self.dir[qt], self.dir[qt + 1]
        found = np.zeros(len(keys), dtype=bool)
        # step k compares entry k of every bucket still live: a bucket is
        # sorted, so a key leaves at its match (pos stays on it), at a
        # larger pair, or at the bucket's end
        live = np.flatnonzero(pos < end)
        while live.size:
            seen = self.base[pos[live]]
            want = packed[live]
            found[live[seen == want]] = True
            live = live[(seen < want) & (pos[live] + 1 < end[live])]
            pos[live] += 1
        if self.cand_packed.size:
            recheck = np.flatnonzero(found)
            recheck = recheck[self.all_ext[pos[recheck]]]
            lo = np.searchsorted(self.cand_packed, packed[recheck], side="left")
            hi = np.searchsorted(self.cand_packed, packed[recheck], side="right")
            found[recheck] = self._ext_match(keys[recheck], lo, hi)
        return found

    def _ext_match(self, keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per key: whether one of the candidate rows [lo, hi) has every
        extension chunk equal to the key's chunk at the same index."""
        counts = hi - lo
        key_of = np.repeat(np.arange(len(keys)), counts)
        first = np.cumsum(counts) - counts
        row = np.arange(int(counts.sum())) + np.repeat(lo - first, counts)
        need = self.cand_len[row]
        hit = np.zeros(len(keys), dtype=bool)
        t = 0
        while key_of.size:
            same = extension_chunk_batch(keys[key_of], self.cfg, t) == self.cand_chunks[row, t]
            hit[key_of[same & (need == t + 1)]] = True
            going = same & (need > t + 1)
            key_of, row, need = key_of[going], row[going], need[going]
            t += 1
        return hit
