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

Metadata bit vectors are the uint64 rows of one word matrix.  Queries,
inserts and growing edits stay cluster local: scans gather the words
covering one cluster into Python ints and bit-twiddle from there.
Everything else goes through two helpers: ``SlotArray._columns``
decodes the clusters of a slot range into numpy columns (quotient,
remainder, value, extension and counter-digit spans), and
``SlotArray._lay_out`` writes such columns back, placing every run with
one cumulative max.  Shrinking edits use them on one cluster; iteration,
the bulk index, consistency checks, merge and bulk load on the table.
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
from .snapshot import ByteReader, pack_section

SNAPSHOT_MAGIC = b"AQF1"
SNAPSHOT_VERSION = 1

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

    def mids(self, q: int) -> np.ndarray:
        """Minirun id of each row (see pack_minirun_id)."""
        return (self.rem << np.uint64(q)) | self.quot.astype(np.uint64)

    def counts(self, r: int) -> list[int]:
        """Duplicate count of each row, as Python ints."""
        out = [1] * len(self.quot)
        for i in np.flatnonzero(self.ctr_len).tolist():
            o = int(self.ext_off[i] + self.ext_len[i])
            digits = self.chunks[o : o + int(self.ctr_len[i])].tolist()
            out[i] += sum(d << (k * r) for k, d in enumerate(digits))
        return out


class _Win:
    """Cluster-local window over the runend and extension bit vectors.

    Gathers bits lazily, anchored at a cluster start, so per-operation
    cost tracks the cluster length rather than the table size.  Reads
    past the gathered region extend it; reads past the cluster hit the
    zero bits of unused slots, which every walk treats as a stop sign.
    For tables smaller than one chunk the window wraps and repeats, which
    valid walks never see because they stop at the first unused slot.
    """

    __slots__ = ("arr", "base", "length", "run", "ext")

    _CHUNK = 128

    def __init__(self, arr: "SlotArray", base: int):
        self.arr = arr
        self.base = base
        self.length = 0
        self.run = 0
        self.ext = 0

    def _grow(self, upto: int):
        arr = self.arr
        while self.length <= upto:
            at = (self.base + self.length) % arr.nslots
            take = self._CHUNK
            self.run |= arr._read_bits(arr.run, at, take) << self.length
            self.ext |= arr._read_bits(arr.ext, at, take) << self.length
            self.length += take
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

    def _read_bits(self, vec: np.ndarray, start: int, length: int) -> int:
        """Bits [start, start+length) circularly; bit k of the result is
        slot start+k.  Bits past the table read as zero via wraparound."""
        n = self.nslots
        out = 0
        got = 0
        pos = start
        while got < length:
            if pos >= n:
                pos -= n
            off = pos & 63
            take = min(length - got, 64 - off, n - pos)
            chunk = (int(vec[pos >> 6]) >> off) & ((1 << take) - 1)
            out |= chunk << got
            got += take
            pos += take
        return out

    def _write_bits(self, vec: np.ndarray, start: int, length: int, value: int):
        n = self.nslots
        pos = start
        put = 0
        while put < length:
            if pos >= n:
                pos -= n
            off = pos & 63
            take = min(length - put, 64 - off, n - pos)
            mask = (1 << take) - 1
            chunk = (value >> put) & mask
            w = pos >> 6
            vec[w] = (int(vec[w]) & ~(mask << off) & MASK64) | (chunk << off)
            put += take
            pos += take

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

    def _find_first_unused(self, start: int) -> int:
        n = self.nslots
        nw = self.nwords
        tail = n & 63
        w = start >> 6
        off = start & 63
        scanned = 0
        while scanned <= n + 64:
            inv = ~int(self.used[w]) & MASK64
            if tail and w == nw - 1:
                inv &= (1 << tail) - 1
            inv &= ~((1 << off) - 1) & MASK64
            if inv:
                return (w << 6) + ((inv & -inv).bit_length() - 1)
            scanned += 64 - off
            off = 0
            w += 1
            if w == nw:
                w = 0
        raise FilterFullError("no unused slot in the table")

    def _cluster_start(self, pos: int) -> int:
        """First slot of the cluster containing used slot ``pos``."""
        n = self.nslots
        nw = self.nwords
        tail = n & 63
        w = pos >> 6
        limit = pos & 63
        scanned = 0
        while scanned <= n + 64:
            inv = ~int(self.used[w]) & MASK64
            if tail and w == nw - 1:
                inv &= (1 << tail) - 1
            if limit is not None:
                inv &= (1 << limit) - 1
            if inv:
                return ((w << 6) + inv.bit_length()) % n
            scanned += 64
            w -= 1
            if w < 0:
                w = nw - 1
            limit = tail if (tail and w == nw - 1) else None
        raise StateCorruptionError("no cluster boundary found")

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
            for vec in (self.run, self.ext):
                v = self._read_bits(vec, pos, length)
                self._write_bits(vec, pos, length + 1, v << 1)
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
        dist = (qt - c) % self.nslots
        skip = self._read_bits(self.occ, c, dist).bit_count() if dist else 0
        win = _Win(self, c)
        pos = 0
        for _ in range(skip):
            while not (win.run_bit(pos) and not win.ext_bit(pos)):
                pos += 1
            pos += 1
            while win.ext_bit(pos):
                pos += 1
        return c, win, pos

    def find_run(self, quotient: int) -> tuple[int, int] | None:
        """Physical (start, length) of the run for ``quotient``, trailing
        extension and counter slots included, or None if unoccupied."""
        if not self._get_bit(self.occ, quotient):
            return None
        c, win, pos = self._walk_to_run(quotient)
        start = pos
        while not (win.run_bit(pos) and not win.ext_bit(pos)):
            pos += 1
        pos += 1
        while win.ext_bit(pos):
            pos += 1
        return (c + start) % self.nslots, pos - start

    def _scan_fp(self, win: _Win, pos: int) -> tuple[int, int, int, bool]:
        """From a remainder slot at window offset ``pos``: offsets of the
        extension and counter groups and whether this fp ends the run.
        Returns (first_ext, first_ctr, next_fp, is_terminator)."""
        is_term = bool(win.run_bit(pos))
        pos += 1
        e0 = pos
        while win.ext_bit(pos) and not win.run_bit(pos):
            pos += 1
        c0 = pos
        while win.ext_bit(pos) and win.run_bit(pos):
            pos += 1
        return e0, c0, pos, is_term

    # ------------------------------------------------------------------
    # public operations

    def query_fp(self, stream: HashStream) -> tuple[int, int] | None:
        """First stored fingerprint that is a prefix of ``stream``.

        Returns (minirun rank, matched extension length) or None.
        """
        cfg = self.cfg
        qt, rem = split(stream, cfg)
        if not self._get_bit(self.occ, qt):
            return None
        c, win, pos = self._walk_to_run(qt)
        n = self.nslots
        vb = self.value_bits
        rank = 0
        while True:
            payload = int(self.slots[(c + pos) % n])
            rem_i = payload >> vb
            e0, c0, nxt, is_term = self._scan_fp(win, pos)
            if rem_i > rem:
                return None
            if rem_i == rem:
                n_ext = c0 - e0
                for t in range(n_ext):
                    stored = int(self.slots[(c + e0 + t) % n]) >> vb
                    if stored != extension_chunk(stream, cfg, t):
                        break
                else:
                    return rank, n_ext
                rank += 1
            if is_term:
                return None
            pos = nxt

    def insert_fp(self, fp: Fingerprint, value: int = 0) -> tuple[int, int]:
        """Insert a fingerprint; returns (minirun id, rank).

        Appends at the end of its minirun so existing ranks survive.
        """
        cfg = self.cfg
        qt, rem = fp.quotient, fp.remainder
        digits = _count_digits(fp.count, cfg.r)
        width = 1 + len(fp.ext) + len(digits)
        if _LOAD_DEN * (self.used_count + width) > _LOAD_NUM * self.nslots:
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

        if not self._get_bit(self.occ, qt) and not self._get_bit(self.used, qt):
            at, rank, new_term, old_term_abs = qt, 0, True, None
        elif not self._get_bit(self.occ, qt):
            c, win, pos = self._walk_to_run(qt)
            at, rank, new_term, old_term_abs = (c + pos) % n, 0, True, None
        else:
            c, win, pos = self._walk_to_run(qt)
            rank = 0
            insert_rel = None
            new_term = False
            term_rem_rel = None
            while True:
                payload = int(self.slots[(c + pos) % n])
                rem_i = payload >> vb
                term_rem_rel = pos
                e0, c0, nxt, is_term = self._scan_fp(win, pos)
                if rem_i > rem:
                    insert_rel = pos
                    break
                if rem_i == rem:
                    rank += 1
                if is_term:
                    insert_rel = nxt
                    new_term = True
                    break
                pos = nxt
            at = (c + insert_rel) % n
            old_term_abs = (c + term_rem_rel) % n if new_term else None

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
        if old_term_abs is not None:
            self._clear_bit(self.run, old_term_abs)
        self._set_bit(self.occ, qt)
        self.fp_count += 1
        self.ext_slot_count += len(fp.ext)
        self.ctr_slot_count += len(digits)
        return mid, rank

    def _locate_fp(self, mid: int, rank: int) -> tuple[int, _Win, int, int, int, int]:
        """(cluster, window, fp offset, ext group offset, ctr offset, next)
        for the rank-th fingerprint of a minirun.  Raises if missing."""
        qt, rem = unpack_minirun_id(mid, self.cfg.q)
        if not self._get_bit(self.occ, qt):
            raise NotFoundError(f"quotient {qt} has no run")
        c, win, pos = self._walk_to_run(qt)
        n = self.nslots
        vb = self.value_bits
        seen = 0
        while True:
            payload = int(self.slots[(c + pos) % n])
            rem_i = payload >> vb
            e0, c0, nxt, is_term = self._scan_fp(win, pos)
            if rem_i > rem:
                break
            if rem_i == rem:
                if seen == rank:
                    return c, win, pos, e0, c0, nxt
                seen += 1
            if is_term:
                break
            pos = nxt
        raise NotFoundError(f"minirun {mid} has no rank {rank}")

    def get_ext(self, mid: int, rank: int) -> tuple[int, ...]:
        c, _, _, e0, c0, _ = self._locate_fp(mid, rank)
        n, vb = self.nslots, self.value_bits
        return tuple(int(self.slots[(c + i) % n]) >> vb for i in range(e0, c0))

    def extend_fp(self, mid: int, rank: int, chunks) -> None:
        """Append extension chunks to one fingerprint, in place."""
        chunks = list(chunks)
        if not chunks:
            return
        if _LOAD_DEN * (self.used_count + len(chunks)) > _LOAD_NUM * self.nslots:
            raise FilterFullError("extension would exceed the load limit")
        c, _, _, e0, c0, _ = self._locate_fp(mid, rank)
        n, vb = self.nslots, self.value_bits
        for t, ch in enumerate(chunks):
            p = (c + c0 + t) % n
            self._open_slot(p)
            self.slots[p] = ch << vb
            self._set_bit(self.ext, p)
        self.ext_slot_count += len(chunks)

    def get_count(self, mid: int, rank: int) -> int:
        c, _, _, e0, c0, nxt = self._locate_fp(mid, rank)
        n, vb = self.nslots, self.value_bits
        r = self.cfg.r
        v = 0
        for i in range(nxt - c0):
            v |= (int(self.slots[(c + c0 + i) % n]) >> vb) << (i * r)
        return v + 1

    def set_count(self, mid: int, rank: int, count: int) -> None:
        if count < 1:
            raise ValueError("count must be at least 1")
        c, _, pos, e0, c0, nxt = self._locate_fp(mid, rank)
        digits = _count_digits(count, self.cfg.r)
        have = nxt - c0
        n, vb = self.nslots, self.value_bits
        if len(digits) >= have:
            extra = len(digits) - have
            if _LOAD_DEN * (self.used_count + extra) > _LOAD_NUM * self.nslots:
                raise FilterFullError("counter growth would exceed the load limit")
            for i in range(have):
                p = (c + c0 + i) % n
                self.slots[p] = digits[i] << vb
            for i in range(have, len(digits)):
                p = (c + c0 + i) % n
                self._open_slot(p)
                self.slots[p] = digits[i] << vb
                self._set_bit(self.ext, p)
                self._set_bit(self.run, p)
            self.ctr_slot_count += extra
        else:
            self._edit_cluster(mid, rank, ("count", count))

    def get_value(self, mid: int, rank: int) -> int:
        c, _, pos, _, _, _ = self._locate_fp(mid, rank)
        return int(self.slots[(c + pos) % self.nslots]) & ((1 << self.value_bits) - 1)

    def set_value(self, mid: int, rank: int, value: int) -> None:
        c, _, pos, _, _, _ = self._locate_fp(mid, rank)
        p = (c + pos) % self.nslots
        vb = self.value_bits
        rem_part = (int(self.slots[p]) >> vb) << vb
        self.slots[p] = rem_part | (value & ((1 << vb) - 1))

    def remove_fp(self, mid: int, rank: int) -> None:
        self._edit_cluster(mid, rank, ("remove",))

    def truncate_ext(self, mid: int, rank: int, keep: int) -> None:
        """Drop extension chunks beyond the first ``keep``."""
        if keep >= len(self.get_ext(mid, rank)):
            return
        self._superset = None
        self._edit_cluster(mid, rank, ("ext", keep))

    # ------------------------------------------------------------------
    # columnar decode and layout

    def _columns(self, start: int | None = None, length: int | None = None) -> _Cols:
        """Decode the whole clusters in slots [start, start+length).

        Without arguments, the whole table from just past its first
        unused slot, where no cluster can straddle the range ends.  Rows
        come in storage order: by quotient from the range start, then
        remainder, then minirun rank.  A remainder slot is a used slot
        without the extension bit; the k-th of them with runend set ends
        the k-th run, whose quotient is the k-th occupied slot of the
        range.  A fingerprint's other slots follow its remainder slot:
        extension chunks (extension bit only), then counter digits
        (both bits).
        """
        n, vb = self.nslots, self.value_bits
        if start is None:
            start, length = (self._find_first_unused(0) + 1) % n, n
        used, run, ext, occ = self._load_bits(start, length)
        pay = np.concatenate([self.slots[a:b] for a, b, _ in self._segments(start, length)])
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

    def _lay_out(self, start: int, length: int, cols: _Cols) -> None:
        """Write fingerprints over slots [start, start+length), replacing
        whatever the range held, and add them to the slot counters (a
        caller replacing fingerprints takes those off with _count).

        ``cols`` lists the fingerprints in run order: quotients, taken
        relative to ``start``, never decrease.  Each run starts at the
        larger of its canonical slot and the end of the run before it
        (the counting quotient filter's placement), so with P the slots
        taken by the fingerprints before row i, row i lands at
        P[i] + max over j <= i of (quotient j - P[j]): one cumulative max.
        Only a range covering the whole table wraps.  Its overflow past
        the top pushes the first runs right, so the positions are
        recomputed with that overflow as a floor until it settles; the
        load cap leaves a free slot, which ends the chase.
        """
        n, vb = self.nslots, self.value_bits
        width = 1 + cols.ext_len + cols.ctr_len
        ends = np.cumsum(width)
        before = ends - width
        drift = np.maximum.accumulate((cols.quot - start) % n - before)
        at, floor = before + drift, 0
        for _ in range(n + 1):
            over = max(0, int(at[-1] + width[-1]) - length) if len(at) else 0
            if over == floor:
                break
            if length < n:
                raise StateCorruptionError("layout outgrew its range")
            floor = over
            at = before + np.maximum(drift, floor)
        else:
            raise StateCorruptionError("layout overflow chase did not settle")

        # one entry per slot filled: its row and its offset in that row
        row = np.repeat(np.arange(len(width)), width)
        inrow = np.arange(len(row)) - before[row]
        slot = (at[row] + inrow) % length
        tail = inrow > 0
        last = np.ones(len(width), dtype=bool)  # run terminators
        last[:-1] = cols.quot[1:] != cols.quot[:-1]
        bits = np.zeros((4, length), dtype=bool)  # used, run, ext, occ
        bits[0, slot] = True
        bits[1, slot[inrow > cols.ext_len[row]]] = True
        bits[1, slot[before[last]]] = True
        bits[2, slot[tail]] = True
        bits[3, (cols.quot[last] - start) % n] = True
        pay = np.zeros(length, dtype=np.uint64)
        pay[slot[before]] = (cols.rem << np.uint64(vb)) | cols.value
        pay[slot[tail]] = cols.chunks[(cols.ext_off[row] + inrow - 1)[tail]] << np.uint64(vb)
        self._store_bits(start, bits)
        for a, b, o in self._segments(start, length):
            self.slots[a:b] = pay[o : o + b - a]
        self._count(cols, 1)

    def _count(self, cols: _Cols, sign: int) -> None:
        """Add (sign 1) or take away (sign -1) the slots of cols."""
        e, c = int(cols.ext_len.sum()), int(cols.ctr_len.sum())
        self.fp_count += sign * len(cols.quot)
        self.ext_slot_count += sign * e
        self.ctr_slot_count += sign * c
        self.used_count += sign * (len(cols.quot) + e + c)

    def _edit_cluster(self, mid: int, rank: int, edit: tuple) -> None:
        """Apply a shrinking edit to one fingerprint and lay its cluster
        out again: ("remove",), ("ext", chunks kept) or ("count", count)."""
        qt, rem = unpack_minirun_id(mid, self.cfg.q)
        if not self._get_bit(self.occ, qt):
            raise NotFoundError(f"quotient {qt} has no run")
        c = self._cluster_start(qt)
        length = (self._find_first_unused(c) - c) % self.nslots
        cols = self._columns(c, length)
        hits = np.flatnonzero((cols.quot == qt) & (cols.rem == rem))
        if not 0 <= rank < len(hits):
            raise NotFoundError(f"minirun {mid} has no rank {rank}")
        i = hits[rank]
        self._count(cols, -1)
        if edit[0] == "remove":
            cols = cols.take(np.arange(len(cols.quot)) != i)
        else:
            # rewrite the row's tail in place: it only shrinks
            o, e, d = int(cols.ext_off[i]), int(cols.ext_len[i]), int(cols.ctr_len[i])
            if edit[0] == "ext":
                k = edit[1]
                cols.chunks[o + k : o + k + d] = cols.chunks[o + e : o + e + d]
                cols.ext_len[i] = k
            else:
                digits = _count_digits(edit[1], self.cfg.r)
                cols.chunks[o + e : o + e + len(digits)] = digits
                cols.ctr_len[i] = len(digits)
        self._lay_out(c, length, cols)

    def iter_fps(self):
        """Yield (Fingerprint, value) in storage order from just past the
        first unused slot: by quotient from there, then remainder, then
        minirun rank."""
        cols = self._columns()
        chunks = cols.chunks.tolist()
        for qt, rem, value, off, ln, count in zip(
            cols.quot.tolist(), cols.rem.tolist(), cols.value.tolist(),
            cols.ext_off.tolist(), cols.ext_len.tolist(), cols.counts(self.cfg.r),
        ):
            yield Fingerprint(qt, rem, tuple(chunks[off : off + ln]), count), value

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
        and removing one, rewriting its count or its value leaves the
        other fingerprints as they were, so only insert_fp and
        truncate_ext drop the cache.
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

    def _block_offsets(self) -> np.ndarray:
        """Derived per-block acceleration bytes: distance from each block
        base to the next unused slot, saturating at 255."""
        n = self.nslots
        nblocks = (n + 63) >> 6
        used_b = np.unpackbits(self.used.view(np.uint8), bitorder="little")[:n]
        zeros = np.flatnonzero(used_b == 0)
        out = np.zeros(nblocks, dtype=np.uint8)
        if zeros.size == 0:
            out[:] = 255
            return out
        bases = np.arange(nblocks, dtype=np.int64) << 6
        idx = np.searchsorted(zeros, bases)
        wrapped = np.concatenate([zeros, zeros[:1] + n])
        dist = wrapped[idx] - bases
        out[:] = np.minimum(dist, 255).astype(np.uint8)
        return out

    def _bits_to_bytes(self, vec: np.ndarray) -> bytes:
        nbytes = (self.nslots + 7) >> 3
        return vec.tobytes()[:nbytes]

    def to_bytes(self) -> bytes:
        cfg = self.cfg
        head = struct.pack(
            "<4sIBBQQ",
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            cfg.q,
            cfg.r,
            cfg.seed,
            self.used_count,
        )
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
        out += pack_section(self._block_offsets().tobytes())
        out += pack_section(bytes([w]) + payload_bits)
        return bytes(out)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlotArray":
        rd = ByteReader(data)
        rd.expect_magic(SNAPSHOT_MAGIC)
        version = rd.u32()
        if version != SNAPSHOT_VERSION:
            raise FormatError(f"unsupported filter snapshot version {version}")
        q, r = rd.u8(), rd.u8()
        seed = rd.u64()
        used_count = rd.u64()
        try:
            cfg = FilterConfig(q=q, r=r, seed=seed)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        n = 1 << q
        nbytes = (n + 7) >> 3
        sections = [rd.section() for _ in range(3)]
        offsets = rd.section()
        payload = rd.section()
        rd.done()
        if any(len(s) != nbytes for s in sections):
            raise FormatError("bit vector section has the wrong size")
        if len(offsets) != (n + 63) >> 6:
            raise FormatError("block offset section has the wrong size")
        if not payload:
            raise FormatError("payload section empty")
        w = payload[0]
        if w < r or w > 63:
            raise FormatError("slot width out of range")
        if len(payload) - 1 != (n * w + 7) >> 3:
            raise FormatError("payload section has the wrong size")
        arr = cls(cfg, value_bits=w - r)
        for vec, blob in zip((arr.occ, arr.run, arr.ext), sections):
            padded = blob + b"\0" * (arr.nwords * 8 - len(blob))
            vec[:] = np.frombuffer(padded, dtype=np.uint64)
        bits = np.unpackbits(np.frombuffer(payload[1:], dtype=np.uint8), bitorder="little")
        bits = bits[: n * w].reshape(n, w)
        for k in range(w):
            arr.slots |= bits[:, k].astype(np.uint64) << np.uint64(k)
        anchor = None
        for b, off in enumerate(offsets):
            if off < 64:
                cand = (b << 6) + off
                if cand < n:
                    anchor = cand
                    break
        if anchor is None:
            raise FormatError("block offsets identify no unused slot")
        arr._reconstruct_used(used_count, anchor)
        if arr._block_offsets().tobytes() != offsets:
            raise FormatError("block offsets disagree with the decoded table")
        return arr

    @classmethod
    def load(cls, path) -> "SlotArray":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def _reconstruct_used(self, expect_used: int, anchor: int) -> None:
        """Rebuild the derived used bits from the canonical vectors.

        ``anchor`` must name an unused slot (the block offsets encode
        one).  In coordinates rotated to start just past it no cluster
        wraps, so the k-th occupied quotient owns the k-th terminator
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

    Baseline pairs go into one sorted array; the rare miniruns whose
    fingerprints are all extended keep their chunks on the side, in a
    zero-padded matrix that queries compare against column by column.
    Exact for the table it was built from.  Afterwards its positives stay
    a superset of the table's until a fingerprint is inserted or an
    extension truncated, since extending only narrows what a fingerprint
    matches.  Equivalence with the slot-walk query is pinned by tests.
    """

    def __init__(self, arr: SlotArray):
        self.cfg = arr.cfg
        cols = arr._columns()
        packed = cols.packed(arr.cfg.r)
        order = np.argsort(packed, kind="stable")
        ps = packed[order]
        he = (cols.ext_len[order] > 0).astype(np.uint8)
        starts = np.flatnonzero(np.diff(ps, prepend=~ps[:1]))
        uniq = ps[starts]
        all_ext = np.minimum.reduceat(he, starts).astype(bool)
        self.base = uniq
        self.ext_only = uniq[all_ext]
        # every fingerprint of an ext_only pair, sorted by pair, chunks
        # zero-padded to the longest extension
        cand = order[np.isin(ps, self.ext_only)]
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
        packed = split_batch(keys, self.cfg)
        if self.base.size == 0:
            return np.zeros(len(packed), dtype=bool)
        idx = np.searchsorted(self.base, packed)
        idx_c = np.minimum(idx, self.base.size - 1)
        found = self.base[idx_c] == packed
        if self.ext_only.size:
            recheck = np.flatnonzero(found & np.isin(packed, self.ext_only))
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
