"""Whole-filter operations: merge, bulk load, reseed.

All three build their output with the same linear placement routine
instead of repeated single inserts.  Given runs in quotient order, each
run starts at the larger of its canonical slot and the previous run's
end, so nothing ever shifts.  A cluster running past the top of the
array wraps; the wrapped tail pushes early runs to the right, which the
placement resolves by re-running its layout pass with the overflow fed
back in until the overflow stops changing.  Load stays capped at 19/20,
so a free slot always breaks the chase and the fixpoint is the same
layout sequential insertion would have produced (pinned by tests).
"""

from __future__ import annotations

import heapq
import warnings
from collections import defaultdict

import numpy as np

from .core import (
    _LOAD_DEN,
    _LOAD_NUM,
    SlotArray,
    _count_digits,
    new_filter,
    pack_minirun_id,
)
from .errors import (
    ConfigMismatchError,
    FilterFullError,
    StateCorruptionError,
    UnsortedInputError,
)
from .filter import AdaptiveFilter, Policy
from .hashing import FilterConfig, HashStream, extension_chunk, split, split_batch
from .revmap import ReverseMap

# grow the merge output when the inputs together would pass this load
_GROW_AT = 0.90


def _place(arr: SlotArray, records) -> None:
    """Write sorted fingerprint records into a fresh slot array.

    records: iterable of (quotient, remainder, ext, count, tag) in
    non-decreasing (quotient, remainder) order; ties are miniruns and
    keep their arrival order as rank order.
    """
    if arr.used_count:
        raise StateCorruptionError("placement needs an empty array")
    cfg = arr.cfg
    n = arr.nslots
    vb = arr.value_bits

    runs = []  # (quotient, [(payload, is_ext, is_ctr), ...], last fp's remainder offset)
    prev_packed = -1
    total = 0
    fp_total = 0
    ext_total = 0
    ctr_total = 0
    for qt, rem, ext, count, tag in records:
        packed = (qt << cfg.r) | rem
        if packed < prev_packed:
            raise UnsortedInputError(
                f"record (q={qt}, rem={rem}) arrived after a larger one"
            )
        prev_packed = packed
        if not runs or runs[-1][0] != qt:
            runs.append((qt, [], [0]))
        slots = runs[-1][1]
        runs[-1][2][0] = len(slots)
        slots.append(((rem << vb) | tag, False, False))
        for ch in ext:
            slots.append(((ch << vb), True, False))
        digits = _count_digits(count, cfg.r)
        for d in digits:
            slots.append(((d << vb), True, True))
        width = 1 + len(ext) + len(digits)
        total += width
        fp_total += 1
        ext_total += len(ext)
        ctr_total += len(digits)

    if _LOAD_DEN * total > _LOAD_NUM * n:
        raise FilterFullError(f"{total} slots exceed the load limit of {n}")

    carry = 0
    for _ in range(n + 1):
        pos = carry
        for qt, slots, _ in runs:
            pos = max(qt, pos) + len(slots)
        overflow = max(0, pos - n)
        if overflow == carry:
            break
        carry = overflow
    else:
        raise StateCorruptionError("layout overflow chase did not settle")

    pos = carry
    for qt, slots, (term_off,) in runs:
        start = max(qt, pos)
        arr._set_bit(arr.occ, qt)
        for off, (payload, is_ext, is_ctr) in enumerate(slots):
            p = (start + off) % n
            arr.slots[p] = payload
            arr._set_bit(arr.used, p)
            if is_ext:
                arr._set_bit(arr.ext, p)
            if is_ctr:
                arr._set_bit(arr.run, p)
        arr._set_bit(arr.run, (start + term_off) % n)
        pos = start + len(slots)

    arr.used_count = total
    arr.fp_count = fp_total
    arr.ext_slot_count = ext_total
    arr.ctr_slot_count = ctr_total


def bulk_load(items, cfg: FilterConfig, policy: Policy | None = None,
              value_bits: int = 0) -> AdaptiveFilter:
    """Build a filter from (key, value) pairs sorted by hash order.

    Input must be sorted by (quotient, remainder) under cfg; bare keys
    are accepted in place of pairs.  One left-to-right pass, no shifts.
    """
    keys = []
    values = []
    for it in items:
        if isinstance(it, tuple):
            key, value = it
        else:
            key, value = int(it), None
        keys.append(key)
        values.append(value)

    arr = new_filter(cfg, value_bits=value_bits)
    revmap = ReverseMap(cfg.q)
    f = AdaptiveFilter._from_parts(arr, revmap, policy if policy is not None else Policy())
    if not keys:
        return f

    packed = split_batch(np.array(keys, dtype=np.uint64), cfg)
    if np.any(packed[1:] < packed[:-1]):
        raise UnsortedInputError("keys are not in (quotient, remainder) order")
    rmask = np.uint64((1 << cfg.r) - 1)
    quots = (packed >> np.uint64(cfg.r)).tolist()
    rems = (packed & rmask).tolist()

    _place(arr, ((quots[i], rems[i], (), 1, 0) for i in range(len(keys))))

    ranks: dict[int, int] = defaultdict(int)
    for i, key in enumerate(keys):
        mid = pack_minirun_id(quots[i], rems[i], cfg.q)
        revmap.map_insert(mid, ranks[mid], key, values[i])
        ranks[mid] += 1
    return f


def _fingerprint_records(f: AdaptiveFilter):
    """(quotient, remainder, ext, count, tag) per fingerprint, filter order."""
    for fp, tag in f.arr.iter_fps():
        yield fp.quotient, fp.remainder, fp.ext, fp.count, tag


def _key_records(f: AdaptiveFilter):
    """Pair each fingerprint with its map entry, in filter order.

    Yields (key, value, tag, count, ext_len).  Relies on map lists
    mirroring minirun rank order; check_consistency() proves that.
    """
    seen: dict[int, int] = defaultdict(int)
    for fp, tag in f.arr.iter_fps():
        mid = pack_minirun_id(fp.quotient, fp.remainder, f.cfg.q)
        rank = seen[mid]
        seen[mid] += 1
        key, value = f.map.entries[mid][rank]
        yield key, value, tag, fp.count, len(fp.ext)


def _build_rederived(key_records, cfg: FilterConfig, policy: Policy,
                     value_bits: int, keep_ext: bool) -> AdaptiveFilter:
    """Re-derive fingerprints from keys under cfg and place them.

    keep_ext re-derives each fingerprint's extension chunks at their
    prior length from the key's own hash, so corrections carry over;
    otherwise extensions are dropped and everything reverts to baseline.
    """
    out = []
    for key, value, tag, count, ext_len in key_records:
        stream = HashStream(key, cfg.seed)
        qt, rem = split(stream, cfg)
        ext = ()
        if keep_ext and ext_len:
            ext = tuple(extension_chunk(stream, cfg, i) for i in range(ext_len))
        out.append((qt, rem, ext, count, tag, key, value))
    out.sort(key=lambda t: (t[0], t[1]))

    arr = new_filter(cfg, value_bits=value_bits)
    revmap = ReverseMap(cfg.q)
    _place(arr, ((qt, rem, ext, count, tag) for qt, rem, ext, count, tag, _, _ in out))
    ranks: dict[int, int] = defaultdict(int)
    for qt, rem, _, _, _, key, value in out:
        mid = pack_minirun_id(qt, rem, cfg.q)
        revmap.map_insert(mid, ranks[mid], key, value)
        ranks[mid] += 1
    return AdaptiveFilter._from_parts(arr, revmap, policy)


def merge(a: AdaptiveFilter, b: AdaptiveFilter) -> AdaptiveFilter:
    """Combine two filters built under the same (q, r, seed).

    When both fit, a linear co-scan emits runs in fingerprint order
    with a's entries ahead of b's for shared minirun ids, extensions
    kept verbatim.  When the union would pass 90% load, the output
    takes one more quotient bit; fingerprints are re-derived from the
    keys (the shared seed makes the streams agree), extension lengths
    preserved so prior corrections keep holding.
    """
    if a.cfg != b.cfg:
        raise ConfigMismatchError(f"configs differ: {a.cfg} vs {b.cfg}")
    if a.value_bits != b.value_bits:
        raise ConfigMismatchError(
            f"value widths differ: {a.value_bits} vs {b.value_bits}"
        )
    cfg = a.cfg
    combined = a.arr.used_count + b.arr.used_count
    if combined <= _GROW_AT * cfg.nslots:
        arr = new_filter(cfg, value_bits=a.value_bits)
        key = lambda rec: (rec[0], rec[1])
        _place(arr, heapq.merge(_fingerprint_records(a), _fingerprint_records(b), key=key))
        return AdaptiveFilter._from_parts(arr, a.map.map_concat(b.map), a.policy)

    grown = FilterConfig(q=cfg.q + 1, r=cfg.r, seed=cfg.seed)
    records = list(_key_records(a)) + list(_key_records(b))
    return _build_rederived(records, grown, a.policy, a.value_bits, keep_ext=True)


def rebuild(f: AdaptiveFilter, new_seed: int) -> AdaptiveFilter:
    """Re-hash every key under new_seed, dropping all extensions.

    Counts, values, and tags survive.  Corrected queries revert to the
    baseline false-positive risk, which is the point: periodic reseeding
    starves an adversary of anything durable to replay.
    """
    if new_seed == f.cfg.seed:
        warnings.warn("rebuilding with the same seed keeps the same collisions",
                      stacklevel=2)
    cfg = FilterConfig(q=f.cfg.q, r=f.cfg.r, seed=new_seed)
    return _build_rederived(_key_records(f), cfg, f.policy, f.value_bits, keep_ext=False)
