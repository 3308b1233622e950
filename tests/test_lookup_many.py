"""Batched lookups: lookup_many against the scalar lookup loop, and the
vectorized extension recheck of the table's batch query (contains_many)
against the slot walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqf import core
from aqf.core import SlotArray
from aqf.errors import FilterFullError, InvalidConfigError
from aqf.filter import AdaptiveFilter, LookupResult, Policy
from aqf.hashing import FilterConfig, HashStream, extension_chunk, split, split_batch

from oracles import insert_whole

# 64 slots and 2-bit remainders: false positives, corrections, long
# extensions and a full table are all a few keys away
SMALL = FilterConfig(q=6, r=2, seed=3)
MASK64 = (1 << 64) - 1


def state(f: AdaptiveFilter):
    """Everything a verdict can change, snapshot bytes included."""
    return (f.adaptations, f.adaptivity_bits, f.adaptation_failures,
            f.map.accesses, f.to_bytes())


def scalar(f: AdaptiveFilter, keys):
    return [f.lookup(int(k)) for k in keys]


def twins(policy: Policy, stored, with_values: bool):
    """Two filters built by the same insert sequence."""
    out = []
    for _ in range(2):
        f = AdaptiveFilter(SMALL, policy=policy)
        for k in stored:
            f.insert(k, value=k.to_bytes(8, "little") if with_values else None)
        out.append(f)
    return out


def same_pair_keys(cfg: FilterConfig, key: int, count: int, seed: int = 0):
    """count keys other than key whose baseline (quotient, remainder) is key's."""
    want = split_batch(np.array([key], dtype=np.uint64), cfg)[0]
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        cand = rng.integers(0, 1 << 62, size=1 << 14, dtype=np.uint64)
        out += [int(k) for k in cand[split_batch(cand, cfg) == want] if int(k) != key]
    return out[:count]


keys_st = st.one_of(st.integers(0, 150), st.integers(MASK64 - 20, MASK64))
step_st = st.one_of(
    st.tuples(st.just("lookup"), st.lists(keys_st, max_size=40), st.booleans()),
    st.tuples(st.just("insert"), keys_st, st.booleans()),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(
    auto_adapt=st.booleans(),
    dedupe=st.booleans(),
    with_values=st.booleans(),
    stored=st.lists(keys_st, max_size=30),
    steps=st.lists(step_st, max_size=8),
)
def test_matches_the_scalar_loop(auto_adapt, dedupe, with_values, stored, steps):
    policy = Policy(auto_adapt=auto_adapt, dedupe_keys=dedupe)
    a, b = twins(policy, stored, with_values)
    live = list(stored)
    for op, arg, flag in steps:
        if op == "lookup":
            batch = np.array(arg, dtype=np.uint64) if flag else list(arg)
            assert b.lookup_many(batch) == scalar(a, arg)
        elif op == "insert":
            outcome = []
            for f in (a, b):
                try:
                    f.insert(arg, value=arg.to_bytes(8, "little") if flag else None)
                    outcome.append(True)
                except FilterFullError:
                    outcome.append(False)
            assert outcome[0] == outcome[1]
            if outcome[0]:
                live.append(arg)
        elif live:
            key = live.pop(arg % len(live))
            a.delete(key)
            b.delete(key)
        assert state(a) == state(b)


def test_repeated_false_positive_without_adaptation():
    a, b = twins(Policy(auto_adapt=False), list(range(30)), False)
    probes = np.arange(100, 1000, dtype=np.uint64)
    fp = int(probes[a.arr.contains_many(probes)][0])
    got = b.lookup_many([fp, fp, fp])
    assert got == [(LookupResult.FALSE_POSITIVE, None)] * 3
    assert got == scalar(a, [fp, fp, fp])
    assert state(a) == state(b)


def test_duplicates_in_one_batch_are_corrected_once():
    a, b = twins(Policy(), list(range(30)), True)
    probes = list(range(100, 400)) * 2
    got = b.lookup_many(probes)
    assert got == scalar(a, probes)
    corrected = [v for v, _ in got[:300] if v is LookupResult.FALSE_POSITIVE_CORRECTED]
    assert corrected
    assert LookupResult.FALSE_POSITIVE_CORRECTED not in {v for v, _ in got[300:]}
    assert state(a) == state(b)


def counting_lookup(f: AdaptiveFilter, monkeypatch):
    """Record every key that f.lookup is called with."""
    calls = []
    inner = f.lookup

    def lookup(key):
        calls.append(key)
        return inner(key)

    monkeypatch.setattr(f, "lookup", lookup)
    return calls


def test_repeated_present_keys_read_the_map_every_copy(monkeypatch):
    a, b = twins(Policy(), list(range(30)), True)
    calls = counting_lookup(b, monkeypatch)
    batch = [7, 7, 9, 7, 7]
    before = b.map.accesses
    got = b.lookup_many(batch)
    assert got == scalar(a, batch)
    assert {v for v, _ in got} == {LookupResult.PRESENT}
    assert calls == batch
    assert b.map.accesses - before >= len(batch)
    assert state(a) == state(b)


def test_repeated_false_positives_on_a_full_table_fail_every_copy(monkeypatch):
    fs = []
    for _ in range(2):
        f = AdaptiveFilter(SMALL)
        k = 0
        while True:
            try:
                f.insert(k)
            except FilterFullError:
                break
            k += 1
        fs.append(f)
    a, b = fs
    probes = np.arange(1000, 2000, dtype=np.uint64)
    fp = int(probes[a.arr.contains_many(probes)][0])
    calls = counting_lookup(b, monkeypatch)
    got = b.lookup_many([fp] * 4)
    assert got == scalar(a, [fp] * 4) == [(LookupResult.FALSE_POSITIVE, None)] * 4
    assert calls == [fp] * 4
    assert b.adaptation_failures == 4
    assert state(a) == state(b)


def test_a_corrected_key_is_walked_once_per_batch(monkeypatch):
    a, b = twins(Policy(), list(range(30)), False)
    probes = np.arange(100, 1000, dtype=np.uint64)
    fp = int(probes[a.arr.contains_many(probes)][0])
    calls = counting_lookup(b, monkeypatch)
    batch = [fp] * 6 + [3, fp]
    got = b.lookup_many(batch)
    assert got == scalar(a, batch)
    assert got[0][0] is LookupResult.FALSE_POSITIVE_CORRECTED
    assert calls == [fp, 3]
    # the next batch's probe reads fp's correction from the table, and
    # rejects every copy of fp without a walk
    calls.clear()
    assert b.lookup_many([fp] * 3) == scalar(a, [fp] * 3)
    assert calls == []
    assert not b.arr.contains_many(np.array([fp], dtype=np.uint64))[0]
    assert state(a) == state(b)


def test_stored_values_come_back():
    a, b = twins(Policy(dedupe_keys=True), [5, 9, 9, 77], True)
    got = b.lookup_many([9, 5, 77])
    assert got == [(LookupResult.PRESENT, k.to_bytes(8, "little")) for k in (9, 5, 77)]
    assert got == scalar(a, [9, 5, 77])


def test_insert_between_batches_is_seen():
    f = AdaptiveFilter(SMALL)
    for k in range(20):
        f.insert(k)
    assert f.lookup_many([500]) == [(LookupResult.NOT_PRESENT, None)]
    f.insert(500)
    assert f.lookup_many([500]) == [(LookupResult.PRESENT, None)]


def test_a_batch_after_a_delete_equals_the_scalar_loop(monkeypatch):
    owner = 12345
    probe = same_pair_keys(SMALL, owner, 1)[0]
    a, b = twins(Policy(), [owner], False)
    # the table matches probe through owner's fingerprint, the only one
    # stored
    assert b.lookup_many([owner]) == scalar(a, [owner])
    assert b.arr.contains_many(np.array([probe], dtype=np.uint64))[0]
    a.delete(owner)
    b.delete(owner)
    calls = counting_lookup(b, monkeypatch)
    assert b.lookup_many([probe]) == scalar(a, [probe]) == [(LookupResult.NOT_PRESENT, None)]
    assert calls == []
    assert state(a) == state(b)


def test_nearly_full_filter_degrades_the_same_way():
    fs = []
    for _ in range(2):
        f = AdaptiveFilter(SMALL)
        k = 0
        while True:
            try:
                f.insert(k)
            except FilterFullError:
                break
            k += 1
        fs.append(f)
    a, b = fs
    probes = list(range(1000, 1400))
    got = b.lookup_many(probes)
    assert got == scalar(a, probes)
    assert b.adaptation_failures > 0
    assert LookupResult.FALSE_POSITIVE in {v for v, _ in got}
    assert state(a) == state(b)


@pytest.mark.parametrize("auto_adapt", [False, True])
def test_stored_keys_behind_unadaptable_matches(auto_adapt):
    """Without adaptation, or with it at the load cap, a stored key's own
    fingerprint can sit behind others it matches; the batch still equals
    the scalar loop, and every stored key answers PRESENT."""
    fs = []
    for _ in range(2):
        f = AdaptiveFilter(SMALL, policy=Policy(auto_adapt=auto_adapt))
        stored = []
        for k in range(200):
            try:
                f.insert(k, value=k.to_bytes(8, "little"))
            except FilterFullError:
                break
            stored.append(k)
        fs.append(f)
    a, b = fs
    assert not a.arr.has_room(1)
    probes = stored + list(range(1000, 1200)) + stored[::3]
    want = scalar(a, probes)
    assert b.lookup_many(probes) == want
    assert want[:len(stored)] == [(LookupResult.PRESENT, k.to_bytes(8, "little"))
                                  for k in stored]
    assert LookupResult.FALSE_POSITIVE in {v for v, _ in want}
    assert (a.adaptation_failures > 0) == auto_adapt
    assert state(a) == state(b)


@pytest.mark.parametrize("bad", [[-1], [1 << 64], [3, -7], np.array([4, -2]),
                                 [1.5], ["7"], np.array([[1, 2]], dtype=np.uint64)])
def test_rejects_keys_outside_u64(bad):
    f = AdaptiveFilter(SMALL)
    f.insert(3)
    with pytest.raises(InvalidConfigError):
        f.lookup_many(bad)


def test_empty_batch():
    f = AdaptiveFilter(SMALL)
    assert f.lookup_many([]) == []
    assert f.lookup_many(np.empty(0, dtype=np.uint64)) == []


def test_frozen_recheck_matches_the_slot_walk_on_long_extensions():
    # at q=20, r=9 chunk 3 spans hash bits 56-65, across a word boundary
    cfg = FilterConfig(q=20, r=9, seed=21)
    arr = SlotArray(cfg)
    rng = np.random.default_rng(22)
    probes = rng.integers(0, 1 << 63, size=300, dtype=np.uint64).tolist()
    for i, key in enumerate(probes[:200]):
        s = HashStream(key, cfg.seed)
        qt, rem = split(s, cfg)
        chunks = [extension_chunk(s, cfg, t) for t in range(5 + i % 4)]
        # a miniruns of two or three extended fingerprints, each agreeing
        # with the probe up to a chosen chunk
        for differ in (i % 9, 3, 9)[: 2 + i % 2]:
            ext = list(chunks)
            if differ < len(ext):
                ext[differ] ^= 1
            insert_whole(arr, qt, rem, tuple(ext))
        if i % 10 == 0:  # a pair with a bare fingerprint is always positive
            arr.insert_fp(qt, rem)
    want = [arr.query_fp(HashStream(k, cfg.seed)) is not None for k in probes]
    got = arr.contains_many(np.array(probes, dtype=np.uint64))
    assert got.tolist() == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_PROBE", 37)  # probe chunk boundaries fall mid-batch
        assert arr.contains_many(probes).tolist() == want
    assert arr.frozen_index().query_keys(probes).tolist() == want
    assert 0 < sum(want[:200]) < 200


# 1024 slots, read two words at a time: the batch probe settles most keys
# itself
WIDE = FilterConfig(q=10, r=2, seed=5)


@settings(max_examples=30, deadline=None)
@given(
    auto_adapt=st.booleans(),
    dedupe=st.booleans(),
    with_values=st.booleans(),
    n_stored=st.integers(0, 900),
    batches=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 3000),
                               st.sampled_from([1, 4, 64])), max_size=4),
)
def test_matches_the_scalar_loop_on_a_table_the_probe_reads(auto_adapt, dedupe, with_values,
                                                            n_stored, batches):
    """Stored keys, repeated keys and false positives in batches that
    may repeat (so that each distinct key is probed once) or not, on a
    table whose runs the vectorized probe finds itself."""
    policy = Policy(auto_adapt=auto_adapt, dedupe_keys=dedupe)
    stored = list(range(1 << 20, (1 << 20) + n_stored))
    fs = []
    for _ in range(2):
        f = AdaptiveFilter(WIDE, policy=policy)
        for k in stored:
            try:
                f.insert(k, value=k.to_bytes(8, "little") if with_values else None)
            except FilterFullError:
                break
        fs.append(f)
    a, b = fs
    for seed, size, spread in batches:
        rng = np.random.default_rng(seed)
        pool = np.concatenate([rng.integers(0, 1 << 20, size=max(1, size // spread),
                                            dtype=np.uint64),
                               np.array(stored[:50], dtype=np.uint64)])
        batch = rng.choice(pool, size=size)
        assert b.lookup_many(batch) == scalar(a, batch)
        assert state(a) == state(b)


def test_stored_keys_share_miniruns_with_keys_that_adapt_in_the_batch():
    """Each stored key's minirun also holds the fingerprints of other
    stored keys, and the batch's false positives of those miniruns adapt
    them between the stored keys' lookups: every stored key still
    answers PRESENT, and the batch equals the scalar loop."""
    cfg = FilterConfig(q=10, r=4, seed=8)
    owners = list(range(1 << 30, (1 << 30) + 200))
    pairs = split_batch(np.array(owners, dtype=np.uint64), cfg)
    stored = owners + [k for p, k in zip(pairs.tolist(), owners)
                       for k in same_pair_keys(cfg, k, 2, seed=p)]
    fs = []
    for _ in range(2):
        f = AdaptiveFilter(cfg)
        for k in stored:
            f.insert(k)
        fs.append(f)
    a, b = fs
    # keys of the stored pairs that are stored nowhere: false positives
    # of those miniruns, each adapting one of their fingerprints
    intruders = [k for p, k in zip(pairs.tolist(), owners)
                 for k in same_pair_keys(cfg, k, 3, seed=p + 1)]
    rng = np.random.default_rng(9)
    batch = rng.permutation(np.array(stored + intruders + stored[::7], dtype=np.uint64))
    want = scalar(a, batch)
    assert b.lookup_many(batch) == want
    assert a.adaptations > 0
    assert {v for v, _ in want[: len(batch)]} >= {LookupResult.PRESENT,
                                                 LookupResult.FALSE_POSITIVE_CORRECTED}
    assert all(v is LookupResult.PRESENT for k, (v, _) in zip(batch.tolist(), want)
               if k in set(stored))
    assert state(a) == state(b)
