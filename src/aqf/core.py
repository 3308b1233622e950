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

Fingerprints with equal quotient form a run, stored contiguously at or
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
edits stay cluster local: scans gather the words covering one cluster
into Python ints and bit-twiddle from there, finding run ends a word at
a time.  One generator, ``SlotArray._run``, reads a run fingerprint by
fingerprint; it is the only scalar walk, behind queries, inserts and the
minirun access of extension, counter edits and delete.  Inserts,
extensions and growing counters open slots by shifting the cluster's
tail right (``SlotArray._open_slot``); deletes, the shortening of a
minirun's survivors and shrinking counters close them
(``SlotArray._close_span``), moving each later run left by no more than
its distance from its canonical slot.  Whole-table work goes through two
helpers: ``SlotArray._columns`` decodes the table into numpy columns
(quotient, remainder, value, extension and counter-digit spans) for the
bulk index, consistency checks and merge, and
``SlotArray._lay_out`` writes such columns over a table, placing every
run with one cumulative max, for merge and bulk load.  Both scalar edits
leave the layout that ``_lay_out`` would write.

Snapshot (version 2).  Only the occupied, runend and extension vectors
and the payloads are written, with a header that names the first unused
slot; the used bits are rebuilt from those on load, and a CRC32 trailer
covers all of it.  Loading accepts only bytes the encoder writes: a
table that loads encodes back to the same bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    FilterFullError,
    FormatError,
    NotFoundError,
    StateCorruptionError,
)
from .hashing import (
    MASK64,
    FilterConfig,
    HashStream,
    extension_chunk,
    extension_chunk_batch,
    split,
    split_batch,
)
from .snapshot import ByteReader, pack_section, seal, unseal

SNAPSHOT_MAGIC = b"AQF1"
SNAPSHOT_VERSION = 2
# magic, version, q, r, seed, used-slot count, first unused slot
_HEAD = struct.Struct("<4sIBBQQQ")

# magic + version + q + r + seed + occupied slot count = 26 bytes
HEADER_BITS = (4 + 4 + 1 + 1 + 8 + 8) * 8

# load factor ceiling: used slots may not exceed 19/20 of the table
_LOAD_NUM, _LOAD_DEN = 19, 20


@dataclass(frozen=True)
class Fingerprint:
    """Decoded fingerprint: baseline pair, extension chunks, duplicate count."""

    quotient: int
    remainder: int
    ext: tuple[int, ...] = ()
    count: int = 1


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


class _Cols(NamedTuple):
    """Per-fingerprint columns, one row per fingerprint in filter order.

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

    def hash_order(self, r: int) -> np.ndarray:
        """Row indices sorted into hash order, each minirun's rows kept in
        rank order: the order of the reverse map's rows."""
        return np.argsort(self.packed(r), kind="stable")

    def mids(self, q: int) -> np.ndarray:
        """Minirun id of each row (see pack_minirun_id)."""
        return (self.rem << np.uint64(q)) | self.quot.astype(np.uint64)


class _Win:
    """Cluster-local window over the runend, extension and occupied bit
    vectors.

    Gathers bits lazily, anchored at a cluster start, so per-operation
    cost tracks the cluster length rather than the table size.  Reads
    past the gathered region extend it; reads past the cluster hit the
    zero bits of unused slots, which every walk treats as a stop sign.
    For tables smaller than one chunk the window wraps and repeats, which
    valid walks never see because they stop at the first unused slot.
    """

    __slots__ = ("arr", "base", "length", "run", "ext", "occ")

    _CHUNK = 128

    def __init__(self, arr: "SlotArray", base: int):
        self.arr = arr
        self.base = base
        self.length = 0
        self.run = 0
        self.ext = 0
        self.occ = 0

    def _grow(self, upto: int):
        arr = self.arr
        while self.length <= upto:
            at = (self.base + self.length) % arr.nslots
            run, ext, occ = arr._read_bits(arr._win_rows, at, self._CHUNK)
            self.run |= run << self.length
            self.ext |= ext << self.length
            self.occ |= occ << self.length
            self.length += self._CHUNK
            if self.length > 2 * arr.nslots + self._CHUNK:
                raise StateCorruptionError("window walk escaped the table")

    def run_bit(self, i: int) -> int:
        if i >= self.length:
            self._grow(i)
        return (self.run >> i) & 1

    def ext_bit(self, i: int) -> int:
        if i >= self.length:
            self._grow(i)
        return (self.ext >> i) & 1

    def ends(self) -> int:
        """Run ends: bit i is set when offset i is just past a run, past
        its terminator (runend without extension) and the extension slots
        that trail it.  Adding each terminator's next bit to the extension
        bits carries through those slots, so the bits that the sum sets
        outside the extension bits are the ends.  A carry cut off at the
        top of the window lands past it: only bits below length hold."""
        ext = self.ext
        return (ext + ((self.run & ~ext) << 1)) & ~ext

    def run_end(self, pos: int, k: int = 1) -> int:
        """Offset just past the k-th run ending at or after offset pos, a
        remainder slot, selected a word of ends() at a time."""
        while True:
            ends = self.ends() >> (pos + 1)
            left, at = k, 0
            while ends >> at:
                word = (ends >> at) & MASK64
                have = word.bit_count()
                if have >= left:
                    for _ in range(left - 1):
                        word &= word - 1
                    end = pos + at + (word & -word).bit_length()
                    if end < self.length:
                        return end
                    break
                left -= have
                at += 64
            self._grow(self.length)


class SlotArray:
    """Physical quotient-filter table; all indices are slot numbers mod 2**q."""

    def __init__(self, cfg: FilterConfig, value_bits: int = 0):
        if value_bits < 0 or cfg.r + value_bits > 63:
            raise ValueError("value_bits out of range")
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
        # runend, extension and occupied: the rows every walk's window
        # reads, sliced once rather than per read
        self._win_rows = self._meta[1:]
        self.slots = np.zeros(n, dtype=np.uint64)
        self.used_count = 0
        self.fp_count = 0
        self.ext_slot_count = 0
        self.ctr_slot_count = 0
        # FrozenIndex whose positives are a superset of the current ones,
        # or None; see superset_index()
        self._superset = None

    # ------------------------------------------------------------------
    # word-level bit plumbing

    def _get_bit(self, vec: np.ndarray, i: int) -> int:
        return (int(vec[i >> 6]) >> (i & 63)) & 1

    def _set_bit(self, vec: np.ndarray, i: int):
        vec[i >> 6] = int(vec[i >> 6]) | (1 << (i & 63))

    def _clear_bit(self, vec: np.ndarray, i: int):
        vec[i >> 6] = int(vec[i >> 6]) & ~(1 << (i & 63)) & MASK64

    def _read_bits(self, rows: np.ndarray, start: int, length: int) -> list[int]:
        """Bits [start, start+length) circularly of each row of a block of
        the word matrix, one int per row whose bit k is slot start+k.  A
        range longer than the table repeats it."""
        n = self.nslots
        if start + length > n:
            head = n - start
            tail = self._read_bits(rows, 0, length - head)
            return [a | (b << head) for a, b in zip(self._read_bits(rows, start, head), tail)]
        w0, w1 = start >> 6, (start + length + 63) >> 6
        block = int.from_bytes(rows[:, w0:w1].tobytes(), "little") >> (start & 63)
        step, mask = (w1 - w0) << 6, (1 << length) - 1
        out = []
        for _ in range(len(rows)):
            out.append(block & mask)
            block >>= step
        return out

    def _write_bits(self, rows: np.ndarray, start: int, length: int, values: list[int]):
        """Overwrite bits [start, start+length) circularly of each row of a
        block with the low bits of its value, laid out as _read_bits'."""
        n = self.nslots
        if start + length > n:
            head = n - start
            self._write_bits(rows, start, head, values)
            self._write_bits(rows, 0, length - head, [v >> head for v in values])
            return
        w0, w1 = start >> 6, (start + length + 63) >> 6
        block = int.from_bytes(rows[:, w0:w1].tobytes(), "little")
        step, at = (w1 - w0) << 6, start & 63
        for v in values:
            mask = ((1 << length) - 1) << at
            block = (block & ~mask) | ((v << at) & mask)
            at += step
        out = block.to_bytes(len(values) * step >> 3, "little")
        rows[:, w0:w1] = np.frombuffer(out, dtype=np.uint64).reshape(len(values), -1)

    def _segments(self, start: int, length: int) -> list[tuple[int, int, int]]:
        """Slots [start, start+length) circularly, as at most two linear
        pieces (a, b, o): slots a..b-1, which begin o slots into the range."""
        end = start + length
        if end <= self.nslots:
            return [(start, end, 0)]
        return [(start, self.nslots, 0), (0, end - self.nslots, self.nslots - start)]

    def _load_bits(self, start: int, length: int) -> np.ndarray:
        """Metadata bits of slots [start, start+length) circularly, as a
        (4, length) bool array with rows used, run, ext, occ."""
        parts = []
        for a, b, _ in self._segments(start, length):
            w = a >> 6
            words = self._meta[:, w : (b + 63) >> 6].view(np.uint8)
            bits = np.unpackbits(words, axis=1, bitorder="little")
            parts.append(bits[:, a - (w << 6) : b - (w << 6)])
        return np.concatenate(parts, axis=1).view(bool)

    def _store_bits(self, start: int, bits: np.ndarray) -> None:
        """Overwrite the metadata bits of slots [start, start+length)
        circularly with a (4, length) array laid out as _load_bits'."""
        for a, b, o in self._segments(start, bits.shape[1]):
            w0, w1 = a >> 6, (b + 63) >> 6
            cur = np.unpackbits(self._meta[:, w0:w1].view(np.uint8), axis=1, bitorder="little")
            cur[:, a - (w0 << 6) : b - (w0 << 6)] = bits[:, o : o + b - a]
            self._meta[:, w0:w1] = np.packbits(cur, axis=1, bitorder="little").view(np.uint64)

    def _nearest_unused(self, pos: int, step: int) -> int | None:
        """The first unused slot met walking circularly from ``pos``, itself
        included, forward (step 1) or backward (step -1); None when every
        slot is used.  Reads a word of used bits at a time."""
        n, nw = self.nslots, self.nwords
        tail = n & 63  # slots in a partial last word, or 0
        w, b = pos >> 6, pos & 63
        # bits of the first word at or past pos in the walk's direction
        keep = (MASK64 >> b) << b if step > 0 else (2 << b) - 1
        left = nw + 1
        while left:
            inv = ~int(self.used[w]) & keep
            if tail and w == nw - 1:
                inv &= (1 << tail) - 1
            if inv:
                return (w << 6) + ((inv & -inv) if step > 0 else inv).bit_length() - 1
            w = (w + step) % nw
            keep = MASK64
            left -= 1
        return None

    def _find_first_unused(self, start: int) -> int:
        free = self._nearest_unused(start, 1)
        if free is None:
            raise FilterFullError("no unused slot in the table")
        return free

    def _cluster_start(self, pos: int) -> int:
        """First slot of the cluster containing used slot ``pos``."""
        free = self._nearest_unused(pos, -1)
        if free is None:
            raise StateCorruptionError("no cluster boundary found")
        return (free + 1) % self.nslots

    def _shift_payload_right(self, start: int, free: int):
        """Move payloads [start, free) one slot right; ``free`` is unused."""
        s = self.slots
        n = self.nslots
        if free >= start:
            s[start + 1 : free + 1] = s[start:free]
        else:
            s[1 : free + 1] = s[0:free]
            s[0] = s[n - 1]
            s[start + 1 : n] = s[start : n - 1]

    def _open_slot(self, pos: int):
        """Make slot ``pos`` writable, shifting the tail of its cluster
        right by one.  Leaves runend/extension clear at ``pos``."""
        free = self._find_first_unused(pos)
        if free != pos:
            length = (free - pos) % self.nslots
            self._shift_payload_right(pos, free)
            rows = self._meta[1:3]  # runend, extension
            bits = self._read_bits(rows, pos, length)
            self._write_bits(rows, pos, length + 1, [v << 1 for v in bits])
        self._set_bit(self.used, free)
        self.used_count += 1

    # ------------------------------------------------------------------
    # run navigation

    def _walk_to_run(self, qt: int) -> tuple[int, _Win, int]:
        """(cluster start, window, run start relative to cluster).

        Precondition: slot ``qt`` is used.  The run located is the one
        for quotient ``qt`` if occupied, else the position where that
        run would begin.
        """
        c = self._cluster_start(qt)
        win = _Win(self, c)
        dist = (qt - c) % self.nslots
        if not dist:
            return c, win, 0
        win._grow(dist - 1)
        skip = (win.occ & ((1 << dist) - 1)).bit_count()
        return c, win, win.run_end(0, skip)

    def find_run(self, quotient: int) -> tuple[int, int] | None:
        """Physical (start, length) of the run for ``quotient``, trailing
        extension and counter slots included, or None if unoccupied."""
        if not self._get_bit(self.occ, quotient):
            return None
        c, win, start = self._walk_to_run(quotient)
        return (c + start) % self.nslots, win.run_end(start) - start

    def _scan_fp(self, win: _Win, pos: int) -> tuple[int, int, int, bool]:
        """From a remainder slot at window offset ``pos``: offsets of the
        extension and counter groups and whether this fp ends the run.
        Returns (first_ext, first_ctr, next_fp, is_terminator)."""
        is_term = bool(win.run_bit(pos))
        pos += 1
        e0 = pos
        ext = win.ext_bit(pos)
        while ext and not win.run_bit(pos):
            pos += 1
            ext = win.ext_bit(pos)
        c0 = pos
        while ext and win.run_bit(pos):
            pos += 1
            ext = win.ext_bit(pos)
        return e0, c0, pos, is_term

    def _run(self, qt: int):
        """Yield (cluster, window, previous fp offset, fp offset, remainder,
        ext group offset, ctr offset, next fp offset, is_terminator) for
        each fingerprint of quotient ``qt``'s run in storage order, and
        nothing when ``qt`` is unoccupied.  Offsets are window offsets;
        the previous fingerprint is the one before it in the run, or None
        for the run's first.  The one scalar reader of a run: queries,
        inserts and minirun access all walk through it."""
        if not self._get_bit(self.occ, qt):
            return
        c, win, pos = self._walk_to_run(qt)
        n, vb, slots = self.nslots, self.value_bits, self.slots
        prev = None
        while True:
            e0, c0, nxt, is_term = self._scan_fp(win, pos)
            yield c, win, prev, pos, int(slots[(c + pos) % n]) >> vb, e0, c0, nxt, is_term
            if is_term:
                return
            prev, pos = pos, nxt

    # ------------------------------------------------------------------
    # public operations

    def has_room(self, extra: int) -> bool:
        """Whether ``extra`` more used slots stay within the load cap."""
        return _LOAD_DEN * (self.used_count + extra) <= _LOAD_NUM * self.nslots

    def query_fp(self, stream: HashStream, start: int = 0) -> tuple[int, int] | None:
        """First stored fingerprint that is a prefix of ``stream``, at
        minirun rank ``start`` or later.

        Returns (minirun rank, matched extension length) or None.
        """
        cfg = self.cfg
        qt, rem = split(stream, cfg)
        n, vb, slots = self.nslots, self.value_bits, self.slots
        rank = 0
        for c, _, _, _, rem_i, e0, c0, _, _ in self._run(qt):
            if rem_i > rem:
                return None
            if rem_i == rem:
                if rank >= start:
                    for t in range(c0 - e0):
                        if int(slots[(c + e0 + t) % n]) >> vb != extension_chunk(stream, cfg, t):
                            break
                    else:
                        return rank, c0 - e0
                rank += 1
        return None

    def insert_fp(self, fp: Fingerprint, value: int = 0) -> tuple[int, int]:
        """Insert a fingerprint; returns (minirun id, rank).

        Appends at the end of its minirun so existing ranks survive.
        """
        cfg = self.cfg
        qt, rem = fp.quotient, fp.remainder
        digits = _count_digits(fp.count, cfg.r)
        width = 1 + len(fp.ext) + len(digits)
        if not self.has_room(width):
            raise FilterFullError(
                f"insert of {width} slot(s) would exceed the load limit"
            )
        self._superset = None
        vb = self.value_bits
        vmask = (1 << vb) - 1
        payloads = [(rem << vb) | (value & vmask)]
        payloads += [(ch << vb) for ch in fp.ext]
        payloads += [(d << vb) for d in digits]

        mid = pack_minirun_id(qt, rem, cfg.q)
        n = self.nslots

        # the new fingerprint goes before the run's first larger remainder,
        # or past its terminator, taking over the runend bit
        at, rank, new_term, old_term = qt, 0, True, None
        if self._get_bit(self.occ, qt):
            for c, _, _, pos, rem_i, _, _, nxt, _ in self._run(qt):
                if rem_i > rem:
                    at, new_term = (c + pos) % n, False
                    break
                rank += rem_i == rem
            else:
                at, old_term = (c + nxt) % n, (c + pos) % n
        elif self._get_bit(self.used, qt):
            c, _, pos = self._walk_to_run(qt)
            at = (c + pos) % n

        for i, payload in enumerate(payloads):
            p = (at + i) % n
            self._open_slot(p)
            self.slots[p] = payload
            if i == 0:
                if new_term:
                    self._set_bit(self.run, p)
            else:
                self._set_bit(self.ext, p)
                if i > len(fp.ext):
                    self._set_bit(self.run, p)
        if old_term is not None:
            self._clear_bit(self.run, old_term)
        self._set_bit(self.occ, qt)
        self.fp_count += 1
        self.ext_slot_count += len(fp.ext)
        self.ctr_slot_count += len(digits)
        return mid, rank

    def _minirun(self, mid: int):
        """Yield (cluster, window, previous fp offset, fp offset, ext group
        offset, ctr offset, next) for each fingerprint of a minirun, in
        rank order: the fingerprints of _run with the minirun's
        remainder."""
        qt, rem = unpack_minirun_id(mid, self.cfg.q)
        for c, win, prev, pos, rem_i, e0, c0, nxt, _ in self._run(qt):
            if rem_i > rem:
                return
            if rem_i == rem:
                yield c, win, prev, pos, e0, c0, nxt

    def _locate_fp(self, mid: int, rank: int) -> tuple[int, _Win, int | None, int, int, int, int]:
        """The rank-th fingerprint of a minirun as _minirun yields it.
        Raises if missing."""
        for i, found in enumerate(self._minirun(mid)):
            if i == rank:
                return found
        raise NotFoundError(f"minirun {mid} has no rank {rank}")

    def get_ext(self, mid: int, rank: int) -> tuple[int, ...]:
        c, _, _, _, e0, c0, _ = self._locate_fp(mid, rank)
        n, vb = self.nslots, self.value_bits
        return tuple(int(self.slots[(c + i) % n]) >> vb for i in range(e0, c0))

    def extend_fp(self, mid: int, rank: int, chunks) -> None:
        """Append extension chunks to one fingerprint, in place."""
        chunks = list(chunks)
        if not chunks:
            return
        if not self.has_room(len(chunks)):
            raise FilterFullError("extension would exceed the load limit")
        c, _, _, _, e0, c0, _ = self._locate_fp(mid, rank)
        n, vb = self.nslots, self.value_bits
        for t, ch in enumerate(chunks):
            p = (c + c0 + t) % n
            self._open_slot(p)
            self.slots[p] = ch << vb
            self._set_bit(self.ext, p)
        self.ext_slot_count += len(chunks)

    def get_count(self, mid: int, rank: int) -> int:
        c, _, _, _, e0, c0, nxt = self._locate_fp(mid, rank)
        n, vb = self.nslots, self.value_bits
        r = self.cfg.r
        v = 0
        for i in range(nxt - c0):
            v |= (int(self.slots[(c + c0 + i) % n]) >> vb) << (i * r)
        return v + 1

    def set_count(self, mid: int, rank: int, count: int) -> None:
        """Rewrite one fingerprint's counter digits in place.  Growth opens
        slots behind the digits it keeps, shrinkage closes the gap the
        dropped digits leave (see _close_span)."""
        if count < 1:
            raise ValueError("count must be at least 1")
        c, win, _, pos, e0, c0, nxt = self._locate_fp(mid, rank)
        digits = _count_digits(count, self.cfg.r)
        have = nxt - c0
        if not self.has_room(len(digits) - have):
            raise FilterFullError("counter growth would exceed the load limit")
        n, vb = self.nslots, self.value_bits
        for i, digit in enumerate(digits):
            p = (c + c0 + i) % n
            if i >= have:
                self._open_slot(p)
                self._set_bit(self.ext, p)
                self._set_bit(self.run, p)
            self.slots[p] = digit << vb
        if len(digits) < have:
            qt = mid & ((1 << self.cfg.q) - 1)
            self._close_span(c, win, qt, pos, c0 + len(digits), have - len(digits))
        self.ctr_slot_count += len(digits) - have

    def get_value(self, mid: int, rank: int) -> int:
        c, _, _, pos, _, _, _ = self._locate_fp(mid, rank)
        return int(self.slots[(c + pos) % self.nslots]) & ((1 << self.value_bits) - 1)

    def remove_fp(self, mid: int, rank: int, shorten: bool = False) -> None:
        """Remove one fingerprint with its extension and counter slots.

        Its slots close like a gap (see _close_span).  If it ended its
        run, the runend bit moves to the fingerprint before it, and an
        emptied run clears its occupied bit.  With shorten, the survivors
        of its minirun also drop the extension chunks they no longer need
        to stay apart from each other (see _kept_chunks), one closed span
        each, highest first so that the offsets below stay valid.
        """
        fps = list(self._minirun(mid))
        if not 0 <= rank < len(fps):
            raise NotFoundError(f"minirun {mid} has no rank {rank}")
        c, win, prev, pos, e0, c0, nxt = fps[rank]
        width = nxt - pos
        cuts = []  # (fingerprint, first chunk cut, chunks cut), offsets after the removal
        if shorten:
            n, vb = self.nslots, self.value_bits
            rest = [fp[3:6] for i, fp in enumerate(fps) if i != rank]
            exts = [[int(self.slots[(c + i) % n]) >> vb for i in range(x0, y0)]
                    for _, x0, y0 in rest]
            for (at, x0, y0), keep in zip(rest, _kept_chunks(exts)):
                if keep < y0 - x0:
                    moved = width if at > pos else 0
                    cuts.append((at - moved, x0 + keep - moved, y0 - x0 - keep))
        qt = mid & ((1 << self.cfg.q) - 1)
        is_term = (win.run >> pos) & 1
        self._close_span(c, win, qt, pos, pos, width)
        if is_term and prev is None:
            self._clear_bit(self.occ, qt)
        elif is_term:
            self._set_bit(self.run, (c + prev) % self.nslots)
            win.run |= 1 << prev
        self.fp_count -= 1
        self.ext_slot_count -= c0 - e0
        self.ctr_slot_count -= nxt - c0
        for at, start, length in sorted(cuts, reverse=True):
            self._close_span(c, win, qt, at, start, length)
            self.ext_slot_count -= length
        if cuts:
            self._superset = None

    def _close_span(self, c: int, win: _Win, qt: int, fp: int, at: int, length: int) -> None:
        """Remove the slots at window offsets [at, at+length), all of them
        slots of the fingerprint at offset fp in the run of quotient qt, and
        close the gap: the inverse of _open_slot.

        The rest of the run moves left by length.  Each later run of the
        cluster moves by the smaller of the previous run's shift and its
        distance from its canonical slot, which is where _lay_out would
        place it, so the shift stops at the first run already at its
        canonical slot or at the end of the cluster.  The runend,
        extension and used bits move as bit strings, the payloads as one
        slice per shift, and the slots left behind are cleared.  The
        window follows the edit; the occupied bits and the fingerprint
        counters are the caller's.
        """
        n = self.nslots
        stop = (self._find_first_unused((c + at) % n) - c) % n  # end of the cluster
        if stop >= win.length:
            win._grow(stop)
        ends, occ = win.ends(), win.occ
        rest = ends >> (fp + 1)
        end = fp + (rest & -rest).bit_length()
        moves = [(at + length, end, length)]  # (from, to, shift)
        shift, q = length, (qt - c) % n
        while end < stop:
            rest = occ >> (q + 1)
            q += (rest & -rest).bit_length()  # the next run's quotient
            if q == end:
                break
            shift = min(shift, end - q)
            rest = ends >> (end + 1)
            nxt = end + (rest & -rest).bit_length()
            if nxt == end:
                raise StateCorruptionError("run without a terminator")
            if shift == moves[-1][2]:
                moves[-1] = (moves[-1][0], nxt, shift)
            else:
                moves.append((end, nxt, shift))
            end = nxt
        span = end - at
        keep = (1 << span) - 1
        run, ext = (win.run >> at) & keep, (win.ext >> at) & keep
        new_run = new_ext = new_used = 0
        out = np.zeros(span, dtype=np.uint64)
        idx = np.arange(c + at, c + end)
        pay = self.slots.take(idx, mode="wrap")
        for a, b, d in moves:
            m = ((1 << (b - a)) - 1) << (a - at)
            new_run |= (run & m) >> d
            new_ext |= (ext & m) >> d
            new_used |= m >> d
            out[a - d - at : b - d - at] = pay[a - at : b - at]
        start = (c + at) % n
        self._write_bits(self._meta[:3], start, span, [new_used, new_run, new_ext])
        self.slots.put(idx, out, mode="wrap")
        win.run = (win.run & ~(keep << at)) | (new_run << at)
        win.ext = (win.ext & ~(keep << at)) | (new_ext << at)
        self.used_count -= length

    # ------------------------------------------------------------------
    # columnar decode and layout

    def _columns(self) -> _Cols:
        """Decode the whole table, read from just past its first unused
        slot, where no cluster can straddle the ends of the range.  Rows
        come in storage order: by quotient from the range start, then
        remainder, then minirun rank.  A remainder slot is a used slot
        without the extension bit; the k-th of them with runend set ends
        the k-th run, whose quotient is the k-th occupied slot of the
        range.  A fingerprint's other slots follow its remainder slot:
        extension chunks (extension bit only), then counter digits
        (both bits).
        """
        n, vb = self.nslots, self.value_bits
        start = (self._find_first_unused(0) + 1) % n
        used, run, ext, occ = self._load_bits(start, n)
        pay = np.concatenate([self.slots[start:], self.slots[:start]])
        R = np.flatnonzero(used & ~ext)
        Q = np.flatnonzero(occ)
        ends_run = run[R]
        run_of = np.cumsum(ends_run) - ends_run  # terminators before each row
        tails = np.flatnonzero(used & ext)
        owner = np.searchsorted(R, tails, side="right") - 1
        if ends_run.sum() != len(Q) or (R.size and not ends_run[-1]) or (owner < 0).any():
            raise StateCorruptionError("runs and occupied quotients do not pair up")
        ctr_len = np.bincount(owner[run[tails]], minlength=len(R))
        head = pay[R]
        return _Cols(
            quot=(Q[run_of] + start) % n,
            rem=head >> np.uint64(vb),
            value=head & np.uint64((1 << vb) - 1),
            ext_off=R + 1,
            ext_len=np.bincount(owner, minlength=len(R)) - ctr_len,
            ctr_len=ctr_len,
            chunks=pay >> np.uint64(vb),
        )

    def _lay_out(self, cols: _Cols) -> None:
        """Write fingerprints over the whole table, replacing whatever it
        held, and set the slot counters to match.

        ``cols`` lists the fingerprints in run order: quotients never
        decrease.  Each run starts at the larger of its canonical slot and
        the end of the run before it (the counting quotient filter's
        placement), so with P the slots taken by the fingerprints before
        row i, row i lands at P[i] + max over j <= i of (quotient j - P[j]):
        one cumulative max.  The overflow past the top of the table pushes
        the first runs right, so the positions are recomputed with that
        overflow as a floor until it settles; the load cap leaves a free
        slot, which ends the chase.
        """
        n, vb = self.nslots, self.value_bits
        width = 1 + cols.ext_len + cols.ctr_len
        ends = np.cumsum(width)
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

        # one entry per slot filled: its row and its offset in that row
        row = np.repeat(np.arange(len(width)), width)
        inrow = np.arange(len(row)) - before[row]
        slot = (at[row] + inrow) % n
        tail = inrow > 0
        last = np.ones(len(width), dtype=bool)  # run terminators
        last[:-1] = cols.quot[1:] != cols.quot[:-1]
        bits = np.zeros((4, n), dtype=bool)  # used, run, ext, occ
        bits[0, slot] = True
        bits[1, slot[inrow > cols.ext_len[row]]] = True
        bits[1, slot[before[last]]] = True
        bits[2, slot[tail]] = True
        bits[3, cols.quot[last]] = True
        self._store_bits(0, bits)
        self.slots[:] = 0
        self.slots[slot[before]] = (cols.rem << np.uint64(vb)) | cols.value
        self.slots[slot[tail]] = cols.chunks[(cols.ext_off[row] + inrow - 1)[tail]] << np.uint64(vb)
        self.fp_count = len(cols.quot)
        self.ext_slot_count = int(cols.ext_len.sum())
        self.ctr_slot_count = int(cols.ctr_len.sum())
        self.used_count = len(row)

    # ------------------------------------------------------------------
    # bulk probing

    def frozen_index(self) -> "FrozenIndex":
        """Exact index of the table as it is now.

        It also replaces the cached superset index, being the tightest
        one available.
        """
        self._superset = None  # not kept alive through the build
        self._superset = FrozenIndex(self)
        return self._superset

    def superset_index(self) -> "FrozenIndex":
        """Index whose positives include every key the table matches now.

        Built on first use and kept until a mutation that can widen the
        match set.  Extending a fingerprint only narrows what it matches,
        and removing one or rewriting its count leaves the other
        fingerprints as they were, so only insert_fp and a shortening
        remove_fp that cuts an extension drop the cache.
        """
        if self._superset is None:
            self._superset = FrozenIndex(self)
        return self._superset

    # ------------------------------------------------------------------
    # accounting and serialization

    @property
    def load_factor(self) -> float:
        return self.used_count / self.nslots

    def space_report(self) -> SpaceReport:
        n = self.nslots
        metadata = 3 * n + ((n * 8) >> 6) + HEADER_BITS
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

    def _bits_to_bytes(self, vec: np.ndarray) -> bytes:
        nbytes = (self.nslots + 7) >> 3
        return vec.tobytes()[:nbytes]

    def to_bytes(self) -> bytes:
        """Serialize as version 2.

        Little-endian: magic, version (u32), q (u8), r (u8), seed (u64),
        used-slot count (u64) and the first unused slot (u64), the
        anchor from which the used bits are rebuilt on load.  Then
        length-prefixed sections: the occupied, runend and extension bit
        vectors, and the slot width (u8) followed by the payloads packed
        at that width.  A CRC32 of everything before it ends the bytes.
        """
        cfg = self.cfg
        head = _HEAD.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, cfg.q, cfg.r, cfg.seed,
                          self.used_count, self._find_first_unused(0))
        w = self.slot_bits
        # bit k of slot i is payload bit i*w + k; one bit column per pass
        bits = np.empty((self.nslots, w), dtype=np.uint8)
        for k in range(w):
            bits[:, k] = (self.slots >> np.uint64(k)) & np.uint64(1)
        payload_bits = np.packbits(bits, bitorder="little").tobytes()
        out = bytearray(head)
        out += pack_section(self._bits_to_bytes(self.occ))
        out += pack_section(self._bits_to_bytes(self.run))
        out += pack_section(self._bits_to_bytes(self.ext))
        out += pack_section(bytes([w]) + payload_bits)
        return seal(bytes(out))

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlotArray":
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
        for vec, blob in zip((arr.occ, arr.run, arr.ext), sections):
            padded = bytes(blob) + b"\0" * (arr.nwords * 8 - len(blob))
            vec[:] = np.frombuffer(padded, dtype=np.uint64)
        bits = np.unpackbits(np.frombuffer(payload[1:], dtype=np.uint8), bitorder="little")
        bits = bits[: n * w].reshape(n, w)
        for k in range(w):
            arr.slots |= bits[:, k].astype(np.uint64) << np.uint64(k)
        arr._reconstruct_used(used_count, anchor)
        if arr._find_first_unused(0) != anchor:
            raise FormatError(f"anchor slot {anchor} is not the first unused slot")
        return arr

    @classmethod
    def load(cls, path) -> "SlotArray":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def _reconstruct_used(self, expect_used: int, anchor: int) -> None:
        """Rebuild the derived used bits from the canonical vectors.

        ``anchor`` must name an unused slot (the snapshot header carries
        the first one).  In coordinates rotated to start just past it no
        cluster wraps, so the k-th occupied quotient owns the k-th terminator
        (runend without extension).  Run k starts at the larger of its
        quotient and the end of run k-1, and ends past the extension
        slots that follow its terminator.
        """
        n = self.nslots
        if expect_used > (_LOAD_NUM * n) // _LOAD_DEN:
            raise FormatError("used-slot count exceeds the load limit")
        rot = (anchor + 1) % n
        bits = self._load_bits(rot, n)
        used, run, ext, occ = bits
        Q = np.flatnonzero(occ)
        T = np.flatnonzero(run & ~ext)
        if len(T) != len(Q):
            raise FormatError(f"{len(T)} run terminators for {len(Q)} occupied quotients")
        plain = np.append(np.flatnonzero(~ext), n)
        end = plain[np.searchsorted(plain, T, side="right")]
        start = np.maximum(Q, np.append(0, end[:-1]))
        if (T < start).any():
            raise FormatError("run has no terminator")
        total = int((end - start).sum())
        if total != expect_used:
            raise FormatError(
                f"decoded {total} used slots, header says {expect_used}"
            )
        if len(end) and end[-1] == n:
            raise FormatError("anchor slot decoded as used")
        used[_ranges(start, end - start)] = True
        if ((run | ext) & ~used).any():
            raise FormatError("runend or extension bit on an unused slot")
        self._store_bits(rot, bits)
        self.used_count = total
        self.fp_count = int(np.bitwise_count(self.used & ~self.ext).sum())
        self.ext_slot_count = int(np.bitwise_count(self.ext & ~self.run).sum())
        self.ctr_slot_count = int(np.bitwise_count(self.ext & self.run).sum())


class FrozenIndex:
    """Read-only decode of a slot array for bulk membership probes.

    Baseline pairs, packed as (quotient << r) | remainder, go into one
    sorted array ``base``.  A quotient directory locates each quotient's
    pairs without a search, as the counting quotient filter's offsets
    do: ``base[dir[qt]:dir[qt + 1]]`` holds quotient qt's pairs, so a
    probe gathers its bucket bounds and compares at most the few
    remainders of one bucket.  The rare pairs whose fingerprints are all
    extended are flagged in ``all_ext``; their fingerprints keep their
    chunks on the side, in a zero-padded matrix that a probe hitting such
    a pair compares column by column.  Exact for the table it was built
    from.  Afterwards its positives stay a superset of the table's until
    a fingerprint is inserted or a shortening delete cuts an extension,
    since extending only narrows what a fingerprint matches.  Equivalence
    with the slot-walk query is pinned by tests.
    """

    # keys probed per pass; bounds the temporaries of a large batch
    CHUNK = 1 << 16

    def __init__(self, arr: SlotArray):
        self.cfg = arr.cfg
        cols = arr._columns()
        packed = cols.packed(arr.cfg.r)
        order = np.argsort(packed, kind="stable")
        ps = packed[order]
        he = (cols.ext_len[order] > 0).astype(np.uint8)
        starts = np.flatnonzero(np.diff(ps, prepend=~ps[:1]))
        self.base = ps[starts]
        self.all_ext = np.minimum.reduceat(he, starts).astype(bool)
        counts = np.bincount((self.base >> np.uint64(arr.cfg.r)).astype(np.intp),
                             minlength=arr.nslots)
        dtype = np.int32 if self.base.size < 1 << 31 else np.int64
        self.dir = np.zeros(arr.nslots + 1, dtype=dtype)
        np.cumsum(counts, out=self.dir[1:])
        # every fingerprint of an all-extended pair, sorted by pair,
        # chunks zero-padded to the longest extension
        cand = order[np.isin(ps, self.base[self.all_ext])]
        self.cand_packed = packed[cand]
        self.cand_len = cols.ext_len[cand]
        width = int(self.cand_len.max()) if cand.size else 0
        self.cand_chunks = np.zeros((cand.size, width), dtype=np.uint64)
        off = cols.ext_off[cand]
        at = _ranges(off, self.cand_len)
        row = np.repeat(np.arange(cand.size), self.cand_len)
        self.cand_chunks[row, at - off[row]] = cols.chunks[at]

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

    def contains(self, key: int) -> bool:
        return bool(self.query_keys(np.array([key], dtype=np.uint64))[0])
