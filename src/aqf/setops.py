"""Whole-filter operations: merge, bulk load, reseed.

All three build their output by handing fingerprint columns in
(quotient, remainder) order to the slot array's one layout writer,
``SlotArray._lay_out``, instead of repeated single inserts.  Each run
starts at the larger of its canonical slot and the previous run's end,
so nothing ever shifts.  A cluster running past the top of the array
wraps; the writer feeds the wrapped tail back in as a floor for the
first runs until it stops changing.  Load stays capped at 19/20, so a
free slot always breaks the chase and the fixpoint is the same layout
sequential insertion would have produced (pinned by tests).  Merge reads
its inputs with the matching columnar decoder, ``SlotArray._columns``.
"""

from __future__ import annotations

import warnings
from collections import defaultdict

import numpy as np

from .core import (
    _LOAD_DEN,
    _LOAD_NUM,
    SlotArray,
    _Cols,
    _count_digits,
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


def _place(arr: SlotArray, cols: _Cols) -> None:
    """Lay fingerprint columns out over a fresh slot array.

    Rows must be in non-decreasing (quotient, remainder) order; ties are
    miniruns and keep their row order as rank order.
    """
    if arr.used_count:
        raise StateCorruptionError("placement needs an empty array")
    total = len(cols.quot) + int(cols.ext_len.sum() + cols.ctr_len.sum())
    if _LOAD_DEN * total > _LOAD_NUM * arr.nslots:
        raise FilterFullError(f"{total} slots exceed the load limit of {arr.nslots}")
    arr._lay_out(0, arr.nslots, cols)


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

    arr = SlotArray(cfg, value_bits=value_bits)
    revmap = ReverseMap(cfg.q)
    f = AdaptiveFilter._from_parts(arr, revmap, policy if policy is not None else Policy())
    if not keys:
        return f

    packed = split_batch(np.array(keys, dtype=np.uint64), cfg)
    if np.any(packed[1:] < packed[:-1]):
        raise UnsortedInputError("keys are not in (quotient, remainder) order")
    quots = packed >> np.uint64(cfg.r)
    rems = packed & np.uint64((1 << cfg.r) - 1)
    bare = np.zeros(len(keys), dtype=np.int64)
    _place(arr, _Cols.build(quots, rems, bare, bare, bare, ()))

    quots, rems = quots.tolist(), rems.tolist()

    ranks: dict[int, int] = defaultdict(int)
    for i, key in enumerate(keys):
        mid = pack_minirun_id(quots[i], rems[i], cfg.q)
        revmap.map_insert(mid, ranks[mid], key, values[i])
        ranks[mid] += 1
    return f


def _key_records(f: AdaptiveFilter):
    """Pair each fingerprint with its map entry, in filter order.

    Yields (key, value, tag, count, ext_len).  Relies on map lists
    mirroring minirun rank order; check_consistency() proves that.
    """
    cols = f.arr._columns()
    seen: dict[int, int] = defaultdict(int)
    for mid, tag, count, ext_len in zip(cols.mids(f.cfg.q).tolist(), cols.value.tolist(),
                                        cols.counts(f.cfg.r), cols.ext_len.tolist()):
        rank = seen[mid]
        seen[mid] += 1
        key, value = f.map.entries[mid][rank]
        yield key, value, tag, count, ext_len


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
        out.append((qt, rem, tag, ext, tuple(_count_digits(count, cfg.r)), key, value))
    out.sort(key=lambda t: (t[0], t[1]))
    qts, rems, tags, exts, digits, keys, values = zip(*out) if out else [()] * 7

    arr = SlotArray(cfg, value_bits=value_bits)
    revmap = ReverseMap(cfg.q)
    _place(arr, _Cols.build(qts, rems, tags, [len(e) for e in exts], [len(d) for d in digits],
                            [c for e, d in zip(exts, digits) for c in e + d]))
    ranks: dict[int, int] = defaultdict(int)
    for qt, rem, key, value in zip(qts, rems, keys, values):
        mid = pack_minirun_id(qt, rem, cfg.q)
        revmap.map_insert(mid, ranks[mid], key, value)
        ranks[mid] += 1
    return AdaptiveFilter._from_parts(arr, revmap, policy)


def merge(a: AdaptiveFilter, b: AdaptiveFilter) -> AdaptiveFilter:
    """Combine two filters built under the same (q, r, seed).

    When both fit, both tables' columns are concatenated and stably
    sorted into fingerprint order, so a's entries come ahead of b's for
    shared minirun ids; extensions and counts are kept verbatim.  When
    the union would pass 90% load, the output takes one more quotient
    bit; fingerprints are re-derived from the keys (the shared seed
    makes the streams agree), extension lengths preserved so prior
    corrections keep holding.
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
        arr = SlotArray(cfg, value_bits=a.value_bits)
        cols = a.arr._columns().concat(b.arr._columns())
        _place(arr, cols.take(np.argsort(cols.packed(cfg.r), kind="stable")))
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
