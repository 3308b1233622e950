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
The reverse map goes the same way: merge and rebuild read their inputs'
maps with ``ReverseMap._columns``, and every output map is built in one
pass over hash-ordered rows by ``ReverseMap._from_columns``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (
    _LOAD_DEN,
    _LOAD_NUM,
    SlotArray,
    _Cols,
    _ranges,
)
from .errors import (
    ConfigMismatchError,
    FilterFullError,
    StateCorruptionError,
    UnsortedInputError,
)
from .filter import AdaptiveFilter, Policy, _key_array
# HashStream, split and extension_chunk are unused here but stay module
# attributes: the benchmark's tracer (perfbench/spans.py) wraps them
from .hashing import (  # noqa: F401
    FilterConfig,
    HashStream,
    extension_chunk,
    extension_chunk_batch,
    split,
    split_batch,
)
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
    are accepted in place of pairs, and so is an integer key array.
    Every key and value is checked before anything is placed.  One
    left-to-right pass, no shifts.
    """
    if isinstance(items, np.ndarray):
        keys = _key_array(items)
        values = [None] * len(keys)
    else:
        pairs = [it if isinstance(it, tuple) else (it, None) for it in items]
        keys = _key_array([key for key, _ in pairs])
        values = [value for _, value in pairs]
        for key, value in zip(keys.tolist(), values):
            ReverseMap.check_entry(key, value)

    arr = SlotArray(cfg, value_bits=value_bits)
    policy = policy if policy is not None else Policy()
    if not len(keys):
        return AdaptiveFilter._from_parts(arr, ReverseMap(cfg.q), policy)
    packed = split_batch(keys, cfg)
    if np.any(packed[1:] < packed[:-1]):
        raise UnsortedInputError("keys are not in (quotient, remainder) order")
    bare = np.zeros(len(keys), dtype=np.int64)
    cols = _Cols.build(packed >> np.uint64(cfg.r), packed & np.uint64((1 << cfg.r) - 1),
                       bare, bare, bare, ())
    _place(arr, cols)
    revmap = ReverseMap._from_columns(cfg.q, cols.mids(cfg.q), keys, values)
    return AdaptiveFilter._from_parts(arr, revmap, policy)


def _key_columns(f: AdaptiveFilter) -> tuple[_Cols, np.ndarray, list]:
    """f's slot columns, in filter order, with each row's key and value.

    The map's columns come in hash order.  Filter order is hash order
    rotated to start past the first unused slot, and a stable sort by
    hash order keeps minirun rank order, which map lists mirror
    (check_consistency() proves that), so one permutation pairs them.
    """
    cols = f.arr._columns()
    back = np.empty(len(cols.quot), dtype=np.int64)
    back[np.argsort(cols.packed(f.cfg.r), kind="stable")] = np.arange(len(back))
    _, _, keys, values = f.map._columns()
    return cols, keys[back], list(map(values.__getitem__, back.tolist()))


def _build_rederived(cols: _Cols, keys: np.ndarray, values: list, cfg: FilterConfig,
                     policy: Policy, value_bits: int, keep_ext: bool) -> AdaptiveFilter:
    """Re-derive fingerprints from keys under cfg and place them.

    cols are the keys' rows in their old filter, in filter order; tags
    and counter digits (cfg keeps r) carry over.  keep_ext re-derives
    each fingerprint's extension chunks at their prior length from the
    key's own hash, so corrections carry over; otherwise extensions are
    dropped and everything reverts to baseline.  Rows whose fingerprints
    tie keep their order as rank order.
    """
    packed = split_batch(keys, cfg)
    order = np.argsort(packed, kind="stable")
    cols, keys, packed = cols.take(order), keys[order], packed[order]
    ext_len = cols.ext_len if keep_ext else np.zeros_like(cols.ext_len)
    width = ext_len + cols.ctr_len
    off = np.cumsum(width) - width
    chunks = np.empty(int(width.sum()), dtype=np.uint64)
    for t in range(int(ext_len.max(initial=0))):
        rows = np.flatnonzero(ext_len > t)
        chunks[off[rows] + t] = extension_chunk_batch(keys[rows], cfg, t)
    chunks[_ranges(off + ext_len, cols.ctr_len)] = cols.chunks[
        _ranges(cols.ext_off + cols.ext_len, cols.ctr_len)]

    arr = SlotArray(cfg, value_bits=value_bits)
    new = _Cols.build(packed >> np.uint64(cfg.r), packed & np.uint64((1 << cfg.r) - 1),
                      cols.value, ext_len, cols.ctr_len, chunks)
    _place(arr, new)
    revmap = ReverseMap._from_columns(cfg.q, new.mids(cfg.q), keys,
                                      list(map(values.__getitem__, order.tolist())))
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
    (ca, ka, va), (cb, kb, vb) = _key_columns(a), _key_columns(b)
    return _build_rederived(ca.concat(cb), np.concatenate([ka, kb]), va + vb, grown,
                            a.policy, a.value_bits, keep_ext=True)


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
    return _build_rederived(*_key_columns(f), cfg, f.policy, f.value_bits, keep_ext=False)
