"""Reference implementations the test suite checks the package against.

Everything here is rebuilt from the documented definitions: the hash
from its mixer constants, the slot decoder from the published bit
layout, the membership model from "a stored fingerprint is a prefix of
its owner's hash stream", the snapshot encoders from their byte layouts
(versions 1 and 2 kept here as the references their successors are
checked against), a filter's map entries turned back into keys from the
mixer's inverse, the zipf workload's ranks from numpy's own sampler.  Nothing imports the package's internals beyond reading raw
state off a slot array or the columns of a reverse map, so agreement
between the two sides is evidence rather than tautology.  The
exceptions: find_run reports where the package's own walk lands, so
that layout tests can pin it; relaid lays a table's own columns out
again, so that scalar edits can be held to the one layout writer;
insert_whole stores an extended or counted fingerprint through the
package's own insert, extend and count edits; and the sequential yes/no
build and the rebuilt adaptation trace run the package's own pieces the
slow, plain way, so that its faster paths must match them.

The bit-string extractor is deliberately naive: materialize hash words
as binary text and slice.  Slow and obviously correct, which is the
point.
"""

from __future__ import annotations

import itertools
import struct
import zlib

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


def ref_unword(word: int, seed: int) -> int:
    """The key whose word 0 under seed is word: mix undone step by step
    (an xorshift by 33 of a 64-bit word is its own inverse, and an odd
    multiplier has an inverse modulo 2**64), then the salt xored out."""
    z = word ^ (word >> 33)
    z = (z * pow(M2, -1, 1 << 64)) & MASK64
    z ^= z >> 33
    z = (z * pow(M1, -1, 1 << 64)) & MASK64
    z ^= z >> 33
    return z ^ mix(seed)


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


def find_run(arr, quotient: int) -> tuple[int, int] | None:
    """Physical (start, length) of quotient's run, trailing extension and
    counter slots included, or None if unoccupied.  Read through the
    package's own walk (SlotArray._walk_to_run), so that tests can pin
    where the walk lands."""
    from aqf.core import _select_end

    if not _bit(arr.occ, quotient):
        return None
    win, start = arr._walk_to_run(quotient)
    return (win.base + start) % arr.nslots, _select_end(win.ends(), start, 1) - start


def relaid(arr):
    """A fresh table that the package's layout writer (SlotArray._lay_out)
    writes from arr's columns: what every scalar edit must leave, vacated
    payloads zeroed, since the snapshot bytes depend on it."""
    out = type(arr)(arr.cfg, value_bits=arr.value_bits)
    out._lay_out(arr._columns())
    return out


def insert_whole(arr, qt: int, rem: int, ext=(), count: int = 1,
                 value: int = 0) -> tuple[int, int]:
    """Store fingerprint (qt, rem) with extension chunks ext and duplicate
    count count as three scalar edits: a bare insert_fp, then extend_fp
    and set_count.  A fingerprint that would pass the load cap raises
    FilterFullError before the first of them, leaving arr as it was.
    Returns insert_fp's (minirun id, rank)."""
    from aqf.errors import FilterFullError

    digits, v = 0, count - 1
    while v:
        digits += 1
        v >>= arr.cfg.r
    if not arr.has_room(1 + len(ext) + digits):
        raise FilterFullError("fingerprint would exceed the load limit")
    mid, rank = arr.insert_fp(qt, rem, value)
    arr.extend_fp(mid, rank, ext)
    if count > 1:
        arr.set_count(mid, rank, count)
    return mid, rank


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


def shorten_minirun(exts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extensions of one minirun's survivors after a shortening delete.

    Each survivor keeps one chunk past its longest common prefix with
    any other survivor (identical twins stay whole); a lone survivor
    goes back to its baseline.  Pairwise, chunk by chunk.
    """
    out = []
    for k, ext in enumerate(exts):
        need = 0
        for j, other in enumerate(exts):
            if j == k:
                continue
            lcp = 0
            while lcp < len(ext) and lcp < len(other) and ext[lcp] == other[lcp]:
                lcp += 1
            need = max(need, min(lcp + 1, len(ext)))
        out.append(ext[:need])
    return out


# ----------------------------------------------------------------------
# snapshots: the version 1 and version 2 encoders as they were last
# written, and the version 2 map section entry by entry


def mutants(snapshot: bytes) -> list[bytes]:
    """Every proper prefix of snapshot, and every single-bit flip of it."""
    out = [snapshot[:cut] for cut in range(len(snapshot))]
    for bit in range(len(snapshot) * 8):
        blob = bytearray(snapshot)
        blob[bit >> 3] ^= 1 << (bit & 7)
        out.append(bytes(blob))
    return out


def reseal(blob: bytes) -> bytes:
    """blob with its CRC32 trailer recomputed over the bytes before it,
    so that a test's edit reaches the field checks behind the trailer."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def _slot_offsets(blob: bytes) -> tuple[int, int, int, int]:
    """(slots, bytes per bit vector, offset of the first bit vector, slot
    width) of a version 2 slot snapshot: a 34-byte header with q at byte
    8, then three length-prefixed bit vectors and the payload section,
    whose first byte is the width."""
    n = 1 << blob[8]
    nbytes = (n + 7) >> 3
    return n, nbytes, 34, blob[34 + 3 * (8 + nbytes) + 8]


def payload_bits(payloads: np.ndarray, w: int) -> bytes:
    """Payloads below 2**w packed through an n x w bit matrix: bit k of
    payload i is bit i*w + k of the little-endian stream, zero-padded to
    whole bytes."""
    bits = (payloads[:, None] >> np.arange(w, dtype=np.uint64)) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8).ravel(), bitorder="little").tobytes()


def payloads_of_bits(raw: bytes, n: int, w: int) -> np.ndarray:
    """The n payloads (uint64) that payload_bits packed into raw."""
    flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    bits = flat[: n * w].reshape(n, w).astype(np.uint64)
    return (bits << np.arange(w, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def slot_fields(blob: bytes) -> tuple[list[np.ndarray], np.ndarray]:
    """The occupied, runend and extension bits (bool, one per slot) and
    the payloads (uint64, one per slot) of a version 2 slot snapshot,
    read from its byte layout."""
    n, nbytes, pos, w = _slot_offsets(blob)
    rows = []
    for _ in range(3):
        raw = np.frombuffer(blob[pos + 8 : pos + 8 + nbytes], dtype=np.uint8)
        rows.append(np.unpackbits(raw, bitorder="little")[:n].astype(bool))
        pos += 8 + nbytes
    return rows, payloads_of_bits(blob[pos + 9 : pos + 9 + ((n * w + 7) >> 3)], n, w)


def with_slot_fields(blob: bytes, rows: list[np.ndarray], payloads: np.ndarray) -> bytes:
    """blob with its three bit vectors and its payloads replaced by rows
    and payloads (as slot_fields hands them out), the trailer
    recomputed."""
    n, nbytes, pos, w = _slot_offsets(blob)
    out = bytearray(blob)
    for row in rows:
        out[pos + 8 : pos + 8 + nbytes] = np.packbits(row, bitorder="little").tobytes()
        pos += 8 + nbytes
    packed = payload_bits(payloads, w)
    out[pos + 9 : pos + 9 + len(packed)] = packed
    return reseal(bytes(out))


def map_lists(m) -> dict:
    """A reverse map's lists, {minirun id: [(key, value), ...]}, grouped
    from its _merged() rows, which must come in hash order (ascending
    ids), each list in rank order; the dict holds the ids in that order."""
    mids, keys, values = m._merged()
    ids = mids.tolist()
    assert ids == sorted(ids), "map rows out of hash order"
    out = {}
    for mid, key, value in zip(ids, keys.tolist(),
                               itertools.repeat(None) if values is None else values):
        out.setdefault(mid, []).append((key, value))
    return out


def key_lists(f) -> dict:
    """map_lists of a filter's map with each entry, its key's hash word,
    turned back into the key: {minirun id: [(key, value), ...]}."""
    seed = f.cfg.seed
    return {mid: [(ref_unword(word, seed), value) for word, value in lst]
            for mid, lst in map_lists(f.map).items()}


def key_rank(f, mid: int, key: int) -> int:
    """The rank of key's first entry in minirun mid of f's map, read
    through key_lists."""
    return [k for k, _ in key_lists(f)[mid]].index(key)


def encode_map_v1(q: int, entries: dict) -> bytes:
    """Version 1 snapshot of a reverse map at quotient width q whose
    entries are {minirun id: [(key, value), ...]} (no empty lists),
    written entry by entry.

    Records in hash order (ascending ids): q u8, minirun id u64, list
    length u32; then per entry key length u32 (8), key u64, value length
    u32 (0xFFFFFFFF for None) and the value's bytes.  All little-endian,
    after magic, version u32 and record count u64.
    """
    out = [struct.pack("<4sIQ", b"AQFM", 1, len(entries))]
    for mid in sorted(entries):
        lst = entries[mid]
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


def encode_map_v2(entries: dict) -> bytes:
    """Version 2 map section of the same entries, entry by entry: every
    key (u64) in hash order, each list in rank order; when some value is
    not None, every value length (u32, 0xFFFFFFFF for None) and then
    every value's bytes; a CRC32 of all of it last."""
    rows = [row for mid in sorted(entries) for row in entries[mid]]
    out = [key.to_bytes(8, "little") for key, _ in rows]
    if any(value is not None for _, value in rows):
        out += [struct.pack("<I", 0xFFFFFFFF if v is None else len(v)) for _, v in rows]
        out += [v for _, v in rows if v is not None]
    return reseal(b"".join(out) + bytes(4))


def _section(payload: bytes) -> bytes:
    return struct.pack("<Q", len(payload)) + payload


def _block_offsets_v1(arr) -> np.ndarray:
    """Derived per-block acceleration bytes: distance from each block
    base to the next unused slot, saturating at 255."""
    n = arr.nslots
    nblocks = (n + 63) >> 6
    used_b = np.unpackbits(arr.used.view(np.uint8), bitorder="little")[:n]
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


def encode_slots_v1(arr) -> bytes:
    """Version 1 snapshot of a slot array: header (magic, version, q, r,
    seed, used-slot count), the occupied, runend and extension vectors,
    the block offsets and the packed payloads, as sections."""
    cfg = arr.cfg
    head = struct.pack("<4sIBBQQ", b"AQF1", 1, cfg.q, cfg.r, cfg.seed, arr.used_count)
    w = arr.slot_bits
    # bit k of slot i is payload bit i*w + k; one bit column per pass
    bits = np.empty((arr.nslots, w), dtype=np.uint8)
    for k in range(w):
        bits[:, k] = (arr.slots >> np.uint64(k)) & np.uint64(1)
    payload_bits = np.packbits(bits, bitorder="little").tobytes()
    nbytes = (arr.nslots + 7) >> 3
    out = bytearray(head)
    for vec in (arr.occ, arr.run, arr.ext):
        out += _section(vec.tobytes()[:nbytes])
    out += _section(_block_offsets_v1(arr).tobytes())
    out += _section(bytes([w]) + payload_bits)
    return bytes(out)


def encode_filter_v1(f) -> bytes:
    """Version 1 combined snapshot of an adaptive filter: magic, version,
    policy flags (auto_adapt 1, dedupe 2, shorten 4), max_extensions,
    value bits and a zero byte, then the slot array's and the map's
    version 1 snapshots as sections.  No counters, no checksum."""
    p = f.policy
    flags = p.auto_adapt | p.dedupe_keys << 1 | p.shorten_on_delete << 2
    head = struct.pack("<4sIBBBB", b"AQFS", 1, flags, p.max_extensions, f.value_bits, 0)
    entries = key_lists(f)
    return head + _section(encode_slots_v1(f.arr)) + _section(encode_map_v1(f.cfg.q, entries))


def encode_filter_v2(f) -> bytes:
    """Version 2 combined snapshot of an adaptive filter: magic,
    version, policy flags, max_extensions, value bits, a zero byte and
    the adaptations, adaptivity_bits and adaptation_failures counters
    (u64 each); then as sections the slot array's own snapshot, trailer
    included, and the version 2 map section of its keys; then a CRC32 of
    all of it."""
    p = f.policy
    flags = p.auto_adapt | p.dedupe_keys << 1 | p.shorten_on_delete << 2
    head = struct.pack("<4sIBBBBQQQ", b"AQFS", 2, flags, p.max_extensions, f.value_bits, 0,
                       f.adaptations, f.adaptivity_bits, f.adaptation_failures)
    body = head + _section(f.arr.to_bytes()) + _section(encode_map_v2(key_lists(f)))
    return reseal(body + bytes(4))


# ----------------------------------------------------------------------
# static yes/no construction, one scalar insert per YES key


def build_static_sequential(yes_keys, no_keys, epsilon, slack=1.5, seed=0):
    """The yes/no build as the paper states it: insert every YES key,
    then query every NO key and adapt every false positive away.

    Runs on the package's scalar insert and lookup_many, so a bulk build
    must match it byte for byte, counter for counter, error for error.
    """
    from aqf.errors import ConstructionFailedError, FilterFullError, InvalidConfigError
    from aqf.filter import LookupResult
    from aqf.yesno import YES, YesNoFilter, YesNoParams

    yes_keys = list(yes_keys)
    no_keys = list(no_keys)
    overlap = set(yes_keys) & set(no_keys)
    if overlap:
        raise InvalidConfigError(
            f"{len(overlap)} key(s) appear on both lists; lists must be disjoint"
        )
    if not yes_keys:
        raise InvalidConfigError("need at least one YES key")

    params = YesNoParams(n=len(yes_keys), m=len(no_keys), epsilon=epsilon)
    f = YesNoFilter.create(params, slack=slack, seed=seed)
    inner = f.inner
    try:
        for y in yes_keys:
            inner.insert(y, tag=YES)
    except FilterFullError as exc:
        raise ConstructionFailedError(
            f"filter filled during YES inserts: {exc}",
            consumed_bits=inner.adaptivity_bits,
            budget_bits=f.budget_bits,
        ) from exc

    # NO keys are never stored and the lists are disjoint, so no verdict
    # is PRESENT; a fresh filter counts one adaptation failure per
    # uncorrected verdict, which spares a Python pass over the list
    verdicts = inner.lookup_many(no_keys)
    if inner.adaptation_failures:
        # lookup degrades to an uncorrected verdict when the array
        # cannot take another extension; here that means the
        # construction failed, not the query
        z = no_keys[verdicts.index((LookupResult.FALSE_POSITIVE, None))]
        raise ConstructionFailedError(
            f"ran out of room extending away NO key {z}",
            consumed_bits=inner.adaptivity_bits,
            budget_bits=f.budget_bits,
        )
    return f


# ----------------------------------------------------------------------
# adaptation trace, every checkpoint decoded afresh


def zipf_ranks_numpy(rng, s: float, universe: int, count: int) -> np.ndarray:
    """count 0-based zipf ranks up to universe, straight from numpy's own
    sampler: ``rng.zipf`` draws, those past universe dropped."""
    if not count:
        return np.empty(0, dtype=np.uint64)
    out = []
    got = 0
    while got < count:
        draw = rng.zipf(s, size=max(count - got, 1024))
        draw = draw[draw <= universe]
        out.append(draw)
        got += len(draw)
    ranks = np.concatenate(out)[:count]
    return ranks.astype(np.uint64) - np.uint64(1)


def gen_workload_every_rank(spec) -> np.ndarray:
    """gen_workload with numpy's zipf sampler and the rank permutation
    applied to every draw, not once per distinct rank."""
    from aqf.workbench import _permute

    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        return rng.integers(0, spec.universe, size=spec.count, dtype=np.uint64)
    ranks = zipf_ranks_numpy(rng, spec.s, spec.universe, spec.count)
    return _permute(ranks, spec.universe, spec.perm_seed ^ 0xD6E8FEB8)


def probe_arrays(spec, probe_sets: int, probe_size: int) -> list[np.ndarray]:
    """make_probe_sets' sets as plain draws, each drawn by
    gen_workload_every_rank."""
    from dataclasses import replace

    return [gen_workload_every_rank(replace(spec, count=probe_size,
                                            seed=spec.seed + 7919 * (i + 1)))
            for i in range(probe_sets)]


def trace_fprs_rebuilt(f, workload, measure_every_pct, probe_sets, probe_size) -> list[float]:
    """run_adaptation_trace's FPR column, each checkpoint a fresh
    FrozenIndex of the table probed with every probe, duplicates
    included, and averaged with np.mean."""
    from aqf.core import FrozenIndex
    from aqf.workbench import WorkloadSpec

    if isinstance(workload, WorkloadSpec):
        queries = gen_workload_every_rank(workload)
        probes = probe_arrays(workload, probe_sets, probe_size)
    else:
        queries = np.asarray(workload, dtype=np.uint64)
        rng = np.random.default_rng(0x5EED)
        probes = [rng.choice(queries, size=probe_size) for _ in range(probe_sets)]

    def checkpoint() -> float:
        index = FrozenIndex(f.cfg, f.arr._columns())
        fracs = [float(np.mean(index.query_keys(p))) for p in probes]
        return sum(fracs) / len(fracs)

    fprs = [checkpoint()]
    step = max(1, len(queries) * measure_every_pct // 100)
    for done in range(0, len(queries), step):
        f.lookup_many(queries[done : done + step])
        fprs.append(checkpoint())
    return fprs


# ----------------------------------------------------------------------
# whole-filter membership model


class PrefixModel:
    """The adaptive filter reduced to (owner key, stored bit length).

    Since every stored fingerprint is a prefix of its owner's stream,
    filter state is fully described by how many bits of each owner are
    pinned down.  Miniruns keep insertion order, mirroring rank order.
    With adapt off, lookups leave every entry as it is, as a filter
    with auto_adapt off does.
    """

    def __init__(self, q: int, r: int, seed: int, adapt: bool = True):
        self.q, self.r, self.seed = q, r, seed
        self.adapt = adapt
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
        query, stopping early on an entry the query itself owns.  With
        adapt off a colliding entry stays and the walk goes on past it."""
        qr = ref_split(key, self.seed, self.q, self.r)
        outcome = "not_present"
        for entry in self.miniruns.get(qr, []):
            if not self._entry_matches(entry, key):
                continue
            if entry[0] == key:
                return "present"
            if not self.adapt:
                outcome = "false_positive"
                continue
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
