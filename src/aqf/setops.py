"""Whole-filter operations: merge, bulk load, reseed.

All three build their output by handing fingerprint columns in
(quotient, remainder) order to the slot array's one layout writer,
``SlotArray._lay_out``, instead of repeated single inserts.  Each run
starts at the larger of its canonical slot and the previous run's end,
so nothing ever shifts.  A cluster running past the top of the array
wraps; the writer feeds the wrapped tail back in as a floor for the
first runs until it stops changing.  Load stays capped at 19/20, so a
free slot always breaks the chase and the fixpoint is the same layout
sequential insertion would have produced (pinned by tests).

Keys in any order are sorted into hash order once, by ``_hash_order``
(one ``core._stable_order`` sort of their packed pairs).  ``bulk_load``
checks its sorted input, and ``_fill``, behind ``workbench.fill_to_load``
and the CLI's key files, sorts its own; both hand the pairs to
``_place``, so each key is hashed once.

Merge and rebuild take one path, ``_build_rederived``: they read their
inputs' tables and maps as columns in hash order
(``SlotArray._columns`` and ``ReverseMap._columns``), which pair row by
row, re-derive every fingerprint from its key under the output config,
and place the result.  Every output map is built in one pass over
hash-ordered rows by ``ReverseMap._from_columns``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import SlotArray, _Cols, _ranges, _stable_order
from .errors import ConfigMismatchError, UnsortedInputError
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
from .revmap import ReverseMap, _join_values

# grow the merge output when the inputs together would pass this load
_GROW_AT = 0.90


def bulk_load(items, cfg: FilterConfig, policy: Policy | None = None) -> AdaptiveFilter:
    """Build a filter from (key, value) pairs sorted by hash order.

    Input must be sorted by (quotient, remainder) under cfg; bare keys
    are accepted in place of pairs, and so is an integer key array.
    Every key and value is checked before anything is placed.  One
    left-to-right pass, no shifts.
    """
    if isinstance(items, np.ndarray):
        keys = _key_array(items)
        values = None
    else:
        pairs = [it if isinstance(it, tuple) else (it, None) for it in items]
        keys = _key_array([key for key, _ in pairs])
        values = [value for _, value in pairs]
        for key, value in zip(keys.tolist(), values):
            ReverseMap.check_entry(key, value)

    packed = split_batch(keys, cfg)
    if np.any(packed[1:] < packed[:-1]):
        raise UnsortedInputError("keys are not in (quotient, remainder) order")
    return _place(keys, packed, values, cfg, policy)


def _hash_order(keys: np.ndarray, cfg: FilterConfig) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts keys into hash order, so tied keys
    keep their list order as rank order, and the keys' (quotient,
    remainder) pairs (see split_batch) in that order."""
    packed = split_batch(keys, cfg)
    order = _stable_order(packed, cfg.q + cfg.r)
    return order, packed[order]


def _fill(keys: np.ndarray, cfg: FilterConfig,
          policy: Policy | None) -> tuple[AdaptiveFilter, np.ndarray]:
    """A filter of the uint64 keys, given in any order, and the keys in
    the hash order they were placed in; each key is hashed once."""
    order, packed = _hash_order(keys, cfg)
    keys = keys[order]
    return _place(keys, packed, None, cfg, policy), keys


def _place(keys: np.ndarray, packed: np.ndarray, values: list | None, cfg: FilterConfig,
           policy: Policy | None) -> AdaptiveFilter:
    """A filter of bare fingerprints: keys[i], with values[i] (None: no
    key has a value), at the pair packed[i]; packed is in hash order."""
    cols = _Cols.bare(packed, cfg.r)
    arr = SlotArray(cfg)
    arr._lay_out(cols)
    revmap = ReverseMap._from_columns(cfg.q, cols.mids(cfg.q), keys, values)
    return AdaptiveFilter._from_parts(arr, revmap, policy if policy is not None else Policy())


def _key_columns(f: AdaptiveFilter) -> tuple[_Cols, np.ndarray, list | None]:
    """f's slot columns with each row's key and value (None when every
    value is None).

    Both the table's columns and the map's come in hash order, ties in
    rank order, which map lists mirror (check_consistency() proves
    that), so row i of one is row i of the other.
    """
    _, _, keys, values = f.map._columns()
    return f.arr._columns(), keys, values


def _build_rederived(cols: _Cols, keys: np.ndarray, values: list | None, cfg: FilterConfig,
                     policy: Policy, value_bits: int, keep_ext: bool) -> AdaptiveFilter:
    """Re-derive fingerprints from keys under cfg and place them.

    cols hold one row per key, whose tag and counter digits carry over
    (cfg keeps r), as does its value in values (None: no key has one).
    keep_ext re-derives each fingerprint's extension chunks at their
    prior length from the key's own hash, so corrections carry over;
    otherwise extensions are dropped and everything reverts to baseline.
    Rows whose fingerprints tie under cfg keep their order as rank order.
    """
    order, packed = _hash_order(keys, cfg)
    cols, keys = cols.take(order), keys[order]
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
    arr._lay_out(new)
    if values is not None:
        values = list(map(values.__getitem__, order.tolist()))
    revmap = ReverseMap._from_columns(cfg.q, new.mids(cfg.q), keys, values)
    return AdaptiveFilter._from_parts(arr, revmap, policy)


def merge(a: AdaptiveFilter, b: AdaptiveFilter) -> AdaptiveFilter:
    """Combine two filters built under the same (q, r, seed).

    Every fingerprint is re-derived from both filters' keys, a's rows ahead
    of b's, and placed in one pass, so a's entries come ahead of b's in
    a shared minirun.  Extension lengths, counts and tags are kept, so
    prior corrections keep holding.  Under the inputs' config the
    re-derived fingerprints are the stored ones (the shared seed makes
    the streams agree).  When the union would pass 90% load, the output
    takes one more quotient bit, and every fingerprint one more bit.
    """
    if a.cfg != b.cfg:
        raise ConfigMismatchError(f"configs differ: {a.cfg} vs {b.cfg}")
    if a.value_bits != b.value_bits:
        raise ConfigMismatchError(
            f"value widths differ: {a.value_bits} vs {b.value_bits}"
        )
    cfg = a.cfg
    if a.arr.used_count + b.arr.used_count > _GROW_AT * cfg.nslots:
        cfg = FilterConfig(q=cfg.q + 1, r=cfg.r, seed=cfg.seed)
    (ca, ka, va), (cb, kb, vb) = _key_columns(a), _key_columns(b)
    return _build_rederived(ca.concat(cb), np.concatenate([ka, kb]),
                            _join_values((va, len(ka)), (vb, len(kb))), cfg,
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
