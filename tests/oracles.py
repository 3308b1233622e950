"""Reference implementations the test suite checks the package against.

Everything here is rebuilt from the documented definitions: the hash
from its mixer constants, the slot decoder from the published bit
layout, the membership model from "a stored fingerprint is a prefix of
its owner's hash stream".  Nothing imports the package's internals
beyond reading raw state off a slot array, so agreement between the two
sides is evidence rather than tautology.

The bit-string extractor is deliberately naive: materialize hash words
as binary text and slice.  Slow and obviously correct, which is the
point.
"""

from __future__ import annotations

import struct

import numpy as np

MASK64 = (1 << 64) - 1

# per-word seed increment and the two avalanche multipliers
STEP = 0x9E3779B97F4A7C15
M1 = 0xFF51AFD7ED558CCD
M2 = 0xC4CEB9FE1A85EC53


def mix(z: int) -> int:
    z &= MASK64
    z ^= z >> 33
    z = (z * M1) & MASK64
    z ^= z >> 33
    z = (z * M2) & MASK64
    z ^= z >> 33
    return z


def ref_word(key: int, seed: int, i: int) -> int:
    """Word i of the key's hash stream."""
    return mix((key ^ mix((seed + i * STEP) & MASK64)) & MASK64)


def bit_text(key: int, seed: int, nbits: int) -> str:
    """First nbits of the stream as a '0'/'1' string, MSB of word 0 first."""
    nwords = -(-nbits // 64)
    s = "".join(format(ref_word(key, seed, i), "064b") for i in range(nwords))
    return s[:nbits]


def ref_split(key: int, seed: int, q: int, r: int) -> tuple[int, int]:
    bits = bit_text(key, seed, q + r)
    return int(bits[:q], 2), int(bits[q:], 2)


def ref_chunk(key: int, seed: int, q: int, r: int, i: int) -> int:
    hi = q + r + (i + 1) * r
    return int(bit_text(key, seed, hi)[hi - r :], 2)


def vector_word0(keys: np.ndarray, seed: int) -> np.ndarray:
    """Word 0 for an array of keys.  uint64 arithmetic wraps, which is
    exactly the modular behavior the scalar path gets from masking."""
    z = keys.astype(np.uint64) ^ np.uint64(mix(seed))
    for m in (M1, M2):
        z = z ^ (z >> np.uint64(33))
        z = z * np.uint64(m)
    return z ^ (z >> np.uint64(33))


def find_colliders(q, r, seed, owner, chunks_equal, count, salt=0):
    """Keys sharing owner's baseline fingerprint plus its first
    chunks_equal extension chunks, then diverging at the next one.

    Vectorized prefix scan over random candidates; the agreed prefix
    must fit in one hash word.
    """
    want = q + r + chunks_equal * r
    if want > 64:
        raise ValueError("prefix longer than one hash word")
    prefix = np.uint64(int(bit_text(owner, seed, want), 2))
    boundary = ref_chunk(owner, seed, q, r, chunks_equal)
    rng = np.random.default_rng((owner * 0x9E3779B9 + salt) & 0xFFFFFFFF)
    out = []
    while len(out) < count:
        cand = rng.integers(0, 1 << 63, size=1 << 18, dtype=np.uint64)
        hits = cand[vector_word0(cand, seed) >> np.uint64(64 - want) == prefix]
        for k in map(int, hits):
            if k != owner and ref_chunk(k, seed, q, r, chunks_equal) != boundary:
                out.append(k)
    return out[:count]


# ----------------------------------------------------------------------
# slot-array decoding straight from the bit vectors


def _bit(vec, i: int) -> int:
    return (int(vec[i >> 6]) >> (i & 63)) & 1


def decode_raw(arr) -> list[tuple[int, int, tuple[int, ...], int, int]]:
    """Decode a slot array by walking its raw state.

    Returns [(quotient, remainder, ext, count, value), ...] in storage
    order.  The walk rotates the circular table to start just past an
    unused slot so no cluster spans the seam, then pairs runs with
    occupied quotients in scan order: each run is peeled into remainder
    slots, extension slots (extension bit set, runend clear) and counter
    digits (both bits set), with the runend-flagged remainder marking
    the run's last fingerprint.
    """
    n = arr.nslots
    vb = arr.value_bits
    r = arr.cfg.r
    vmask = (1 << vb) - 1
    free = next((i for i in range(n) if not _bit(arr.used, i)), None)
    assert free is not None, "decoding needs an unused slot; the load cap guarantees one"

    def phys(i: int) -> int:
        return (free + 1 + i) % n

    quots = sorted(((s - free - 1) % n, s) for s in range(n) if _bit(arr.occ, s))
    out = []
    pos = 0
    for qrel, qslot in quots:
        for gap in range(pos, qrel):
            assert not _bit(arr.used, phys(gap)), "used slot outside any run"
        pos = max(pos, qrel)
        while True:
            p = phys(pos)
            assert _bit(arr.used, p) and not _bit(arr.ext, p), "expected a remainder slot"
            payload = int(arr.slots[p])
            last = bool(_bit(arr.run, p))
            pos += 1
            ext = []
            while _bit(arr.used, phys(pos)) and _bit(arr.ext, phys(pos)) and not _bit(
                arr.run, phys(pos)
            ):
                ext.append(int(arr.slots[phys(pos)]) >> vb)
                pos += 1
            digits = []
            while _bit(arr.used, phys(pos)) and _bit(arr.ext, phys(pos)) and _bit(
                arr.run, phys(pos)
            ):
                digits.append(int(arr.slots[phys(pos)]) >> vb)
                pos += 1
            count = 1
            for k, d in enumerate(digits):
                count += d << (k * r)
            out.append((qslot, payload >> vb, tuple(ext), count, payload & vmask))
            if last:
                break
    return out


# ----------------------------------------------------------------------
# reverse-map snapshot, one entry at a time


def encode_map_v1(m) -> bytes:
    """Version 1 reverse-map snapshot of m, written entry by entry.

    Records in hash order (quotient, then remainder): q u8, minirun id
    u64, list length u32; then per entry key length u32 (8), key u64,
    value length u32 (0xFFFFFFFF for None) and the value's bytes.  All
    little-endian, after magic, version u32 and record count u64.
    """
    q = m.qbits
    qmask = (1 << q) - 1
    out = [struct.pack("<4sIQ", b"AQFM", 1, len(m.entries))]
    for mid in sorted(m.entries, key=lambda i: (i & qmask, i >> q)):
        lst = m.entries[mid]
        out.append(struct.pack("<BQI", q, mid, len(lst)))
        for key, value in lst:
            out.append(struct.pack("<I", 8))
            out.append(key.to_bytes(8, "little"))
            if value is None:
                out.append(struct.pack("<I", 0xFFFFFFFF))
            else:
                out.append(struct.pack("<I", len(value)))
                out.append(value)
    return b"".join(out)


# ----------------------------------------------------------------------
# whole-filter membership model


class PrefixModel:
    """The adaptive filter reduced to (owner key, stored bit length).

    Since every stored fingerprint is a prefix of its owner's stream,
    filter state is fully described by how many bits of each owner are
    pinned down.  Miniruns keep insertion order, mirroring rank order.
    """

    def __init__(self, q: int, r: int, seed: int):
        self.q, self.r, self.seed = q, r, seed
        self.miniruns: dict[tuple[int, int], list[list]] = {}

    def _entry_matches(self, entry: list, key: int) -> bool:
        owner, nbits = entry
        return bit_text(owner, self.seed, nbits) == bit_text(key, self.seed, nbits)

    def insert(self, key: int) -> None:
        qr = ref_split(key, self.seed, self.q, self.r)
        self.miniruns.setdefault(qr, []).append([key, self.q + self.r])

    def delete(self, key: int) -> bool:
        """Drop the first entry owned by key; False when absent."""
        qr = ref_split(key, self.seed, self.q, self.r)
        lst = self.miniruns.get(qr, [])
        for i, entry in enumerate(lst):
            if entry[0] == key:
                lst.pop(i)
                if not lst:
                    del self.miniruns[qr]
                return True
        return False

    def lookup(self, key: int) -> str:
        """Adapting lookup: walk the minirun in rank order, growing each
        colliding entry in whole chunks until it no longer covers the
        query, stopping early on an entry the query itself owns."""
        qr = ref_split(key, self.seed, self.q, self.r)
        outcome = "not_present"
        for entry in self.miniruns.get(qr, []):
            if not self._entry_matches(entry, key):
                continue
            if entry[0] == key:
                return "present"
            nbits = entry[1]
            while bit_text(entry[0], self.seed, nbits) == bit_text(key, self.seed, nbits):
                nbits += self.r
            entry[1] = nbits
            outcome = "false_positive_corrected"
        return outcome

    def contains(self, key: int) -> bool:
        qr = ref_split(key, self.seed, self.q, self.r)
        return any(self._entry_matches(e, key) for e in self.miniruns.get(qr, []))

    def keys(self) -> list[int]:
        return [e[0] for lst in self.miniruns.values() for e in lst]

    def positive_mask(self, keys: np.ndarray, word0: np.ndarray) -> np.ndarray:
        """Membership verdict for every probe at once.

        Entries pinned to at most 64 bits reduce to an integer compare
        on a shifted word 0; anything deeper falls back to the string
        extractor on the handful of probes whose first word matches.
        """
        out = np.zeros(len(keys), dtype=bool)
        by_len: dict[int, set[int]] = {}
        deep = []
        for lst in self.miniruns.values():
            for owner, nbits in lst:
                if nbits <= 64:
                    by_len.setdefault(nbits, set()).add(
                        int(bit_text(owner, self.seed, nbits), 2)
                    )
                else:
                    deep.append((owner, nbits))
        for nbits, vals in by_len.items():
            pref = word0 >> np.uint64(64 - nbits)
            out |= np.isin(pref, np.fromiter(vals, dtype=np.uint64))
        for owner, nbits in deep:
            head = np.uint64(int(bit_text(owner, self.seed, 64), 2))
            for i in np.flatnonzero(word0 == head):
                if bit_text(int(keys[i]), self.seed, nbits) == bit_text(
                    owner, self.seed, nbits
                ):
                    out[i] = True
        return out
