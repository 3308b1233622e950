"""Whole-filter operations: merge, bulk load, reseed.

All three build their output by handing fingerprint columns in
(quotient, remainder) order to the slot array's one layout writer,
``SlotArray._lay_out``, instead of repeated single inserts.  Each run
starts at the larger of its canonical slot and the previous run's end,
so nothing ever shifts.  A cluster running past the top of the array
wraps; the writer takes how far the last run passes the top as a floor
for the first runs.  Load stays capped at 19/20, so that floor never
reaches the last run, and the layout is the one sequential insertion
would have produced (pinned by tests).

A filter's map holds each key's hash word (word 0 of its stream), whose
top q + r bits are the key's (quotient, remainder) pair.  Keys in any
order are hashed once and sorted into hash order once, by
``_hash_order`` (one ``core._stable_order`` sort of their packed
pairs).  ``bulk_load`` checks its sorted input, and ``_fill``, behind
``workbench.fill_to_load`` and the CLI's key files, sorts its own; both
hand the pairs, as bare fingerprint columns, and the words to
``_place``.  ``_fill`` hands back its keys in hash order by turning the
placed words back into keys (``hashing.unhash_word_batch``).

Merge and rebuild take one path, ``_build_rederived``: they read their
inputs' tables and maps as columns in hash order (``SlotArray._columns``,
and ``ReverseMap._runs``, views of the map's blocks), which pair row by
row: both come in hash order, ties in rank order, which map lists
mirror (``check_consistency()`` proves that).  They re-derive every
fingerprint from its word under the output config, and place the
result.  Merge keeps the seed, so the words stand as they
are, joined in one array; rebuild turns them back into keys and hashes
those under its new seed, run by run into one array.  Extension chunks
past the pair are drawn from the keys of the rows that carry them.  The
yes/no build, whose YES keys are already in hash order, skips the
re-derivation and hands its extension lengths to ``_extended_cols``
directly.  Every build ends in ``_place``: the table is laid out, and
its map is built in one pass over hash-ordered rows by
``ReverseMap._from_columns``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import SlotArray, _Cols, _ranges, _slot_dtype, _stable_order
from .errors import ConfigMismatchError, UnsortedInputError
from .filter import AdaptiveFilter, Policy, _policy
# HashStream, split, extension_chunk and split_batch are unused here but
# stay module attributes: the benchmark's tracer (perfbench/spans.py)
# wraps them
from .hashing import (  # noqa: F401
    FilterConfig,
    HashStream,
    _chunk_rounds,
    _key_array,
    _pairs,
    extension_chunk,
    hash_word_batch,
    split,
    split_batch,
    unhash_word_batch,
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

    words = hash_word_batch(keys, cfg.seed)
    packed = _pairs(words, cfg)
    if np.any(packed[1:] < packed[:-1]):
        raise UnsortedInputError("keys are not in (quotient, remainder) order")
    return _place(words, _Cols.bare(packed, cfg), values, cfg, policy)


def _hash_order(words: np.ndarray, cfg: FilterConfig) -> tuple[np.ndarray, ...]:
    """The stable order that sorts hash words into hash order, so tied
    words keep their list order as rank order, and the words and their
    (quotient, remainder) pairs (see _pairs) in that order."""
    packed = _pairs(words, cfg)
    order = _stable_order(packed, cfg.q + cfg.r)
    packed = packed[order]  # the unsorted pairs go before the words are gathered
    return order, words[order], packed


def _fill(keys: np.ndarray, cfg: FilterConfig,
          policy: Policy | None) -> tuple[AdaptiveFilter, np.ndarray]:
    """A filter of the uint64 keys, given in any order, and the keys in
    the hash order they were placed in; each key is hashed once, and
    the keys handed back are the placed words turned back into keys."""
    words = hash_word_batch(keys, cfg.seed)
    del keys
    order, words, packed = _hash_order(words, cfg)
    del order
    cols = _Cols.bare(packed, cfg)
    del packed
    f = _place(words, cols, None, cfg, policy)
    del cols
    return f, unhash_word_batch(words, cfg.seed)


def _place(words: np.ndarray, cols: _Cols, values: list | None, cfg: FilterConfig,
           policy: Policy | None, value_bits: int = 0) -> AdaptiveFilter:
    """A filter with value_bits value bits of the fingerprints cols (see
    _Cols), in hash order: row i holds the key whose hash word is
    words[i], with values[i] (None: no key has a value).  The filter's
    map keeps words, whose top q + r bits are their minirun ids."""
    policy = _policy(policy)
    arr = SlotArray(cfg, value_bits=value_bits)
    arr._lay_out(cols)
    revmap = ReverseMap._from_columns(words, values, 64 - cfg.q - cfg.r)
    return AdaptiveFilter._from_parts(arr, revmap, policy)


def _rehashed(runs: list, seed: int, new_seed: int) -> np.ndarray:
    """The hash words under new_seed of the keys whose words under seed
    are the runs', in one array, hashed a run at a time."""
    words = np.empty(sum(map(len, runs)), dtype=np.uint64)
    at = 0
    for run in runs:
        words[at : at + len(run)] = hash_word_batch(unhash_word_batch(run, seed), new_seed)
        at += len(run)
    return words


def _build_rederived(cols: _Cols, words: np.ndarray, values: list | None, cfg: FilterConfig,
                     policy: Policy, value_bits: int, keep_ext: bool) -> AdaptiveFilter:
    """Re-derive fingerprints from hash words under cfg and place them.

    cols hold one row per key, words its word 0 under cfg.seed, whose
    tag and counter digits carry over (cfg keeps r), as does its value
    in values (None: no key has one).  keep_ext re-derives each
    fingerprint's extension chunks at their prior length from the key's
    own hash, so corrections carry over; otherwise extensions are
    dropped and everything reverts to baseline.  Rows whose
    fingerprints tie under cfg keep their order as rank order.
    """
    order, words, packed = _hash_order(words, cfg)
    cols = _Cols(*(col[order] for col in cols[:-1]), cols.chunks)
    if values is not None:
        values = list(map(values.__getitem__, order.tolist()))
    del order
    new = _extended_cols(words, packed, cols.value,
                         cols.ext_len if keep_ext else np.zeros_like(cols.ext_len),
                         cols.ctr_len, cols.chunks[_ranges(cols.ext_off + cols.ext_len,
                                                           cols.ctr_len)], cfg, value_bits)
    del cols, packed
    return _place(words, new, values, cfg, policy, value_bits)


def _extended_cols(words: np.ndarray, packed: np.ndarray, value, ext_len: np.ndarray,
                   ctr_len: np.ndarray, digits, cfg: FilterConfig, value_bits: int) -> _Cols:
    """Columns (see _Cols) of the keys whose hash words are words, in
    hash order, packed their pairs: row i is valued value[i], and its
    fingerprint carries the first ext_len[i] extension chunks of its
    key's stream, then ctr_len[i] counter digits, taken in turn from
    digits."""
    width = ext_len + ctr_len
    off = np.cumsum(width) - width
    chunks = np.empty(int(width.sum()), dtype=_slot_dtype(cfg.r + value_bits))
    for t, rows, ext in _chunk_rounds(words, ext_len, cfg):
        chunks[off[rows] + t] = ext
    chunks[_ranges(off + ext_len, ctr_len)] = digits
    del width, off
    return _Cols.build(cfg, value_bits, packed, value, ext_len, ctr_len, chunks)


def merge(a: AdaptiveFilter, b: AdaptiveFilter) -> AdaptiveFilter:
    """Combine two filters built under the same (q, r, seed).

    Every fingerprint is re-derived from both filters' hash words, a's
    rows ahead of b's, and placed in one pass, so a's entries come ahead of b's in
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
    # the inputs' columns and the views of their maps' blocks go with the
    # calls that join them, before the build
    return _build_rederived(_Cols.join([a.arr._columns(), b.arr._columns()]),
                            np.concatenate(a.map._runs() + b.map._runs()),
                            _join_values((a.map._values(), a.map.key_count),
                                         (b.map._values(), b.map.key_count)), cfg,
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
    # the new words go without a name, so that _build_rederived drops them once sorted
    return _build_rederived(f.arr._columns(), _rehashed(f.map._runs(), f.cfg.seed, new_seed),
                            f.map._values(), cfg, f.policy, f.value_bits, keep_ext=False)
