"""Batched lookups: lookup_many against the scalar lookup loop, and the
vectorized extension recheck of FrozenIndex against the slot walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqf.core import FrozenIndex, SlotArray
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
    shorten=st.booleans(),
    with_values=st.booleans(),
    stored=st.lists(keys_st, max_size=30),
    steps=st.lists(step_st, max_size=8),
)
def test_matches_the_scalar_loop(auto_adapt, dedupe, shorten, with_values, stored, steps):
    policy = Policy(auto_adapt=auto_adapt, dedupe_keys=dedupe, shorten_on_delete=shorten)
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
    fp = int(probes[a.frozen_index().query_keys(probes)][0])
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
    fp = int(probes[a.frozen_index().query_keys(probes)][0])
    calls = counting_lookup(b, monkeypatch)
    got = b.lookup_many([fp] * 4)
    assert got == scalar(a, [fp] * 4) == [(LookupResult.FALSE_POSITIVE, None)] * 4
    assert calls == [fp] * 4
    assert b.adaptation_failures == 4
    assert state(a) == state(b)


def test_a_corrected_key_is_walked_once_per_batch(monkeypatch):
    a, b = twins(Policy(), list(range(30)), False)
    probes = np.arange(100, 1000, dtype=np.uint64)
    fp = int(probes[a.frozen_index().query_keys(probes)][0])
    calls = counting_lookup(b, monkeypatch)
    batch = [fp] * 6 + [3, fp]
    got = b.lookup_many(batch)
    assert got == scalar(a, batch)
    assert got[0][0] is LookupResult.FALSE_POSITIVE_CORRECTED
    assert calls == [fp, 3]
    # the next batch patches fp's correction into the cached index,
    # which then rejects every copy of fp without a walk
    calls.clear()
    assert b.lookup_many([fp] * 3) == scalar(a, [fp] * 3)
    assert calls == []
    assert not b.frozen_index().query_keys(np.array([fp], dtype=np.uint64))[0]
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


def test_a_delete_drops_the_cached_index(monkeypatch):
    owner = 12345
    probe = same_pair_keys(SMALL, owner, 1)[0]
    a, b = twins(Policy(), [owner], False)
    # the first batch builds the index, which matches probe through
    # owner's fingerprint, the only one stored
    assert b.lookup_many([owner]) == scalar(a, [owner])
    assert b.frozen_index().query_keys(np.array([probe], dtype=np.uint64))[0]
    a.delete(owner)
    b.delete(owner)
    calls = counting_lookup(b, monkeypatch)
    assert b.lookup_many([probe]) == scalar(a, [probe]) == [(LookupResult.NOT_PRESENT, None)]
    assert calls == []
    assert state(a) == state(b)


def test_shortening_between_batches_drops_the_cached_index():
    cfg = FilterConfig(q=8, r=4, seed=11)
    owner = 12345
    mates = same_pair_keys(cfg, owner, 400)
    policy = Policy(shorten_on_delete=True)
    fs = []
    for _ in range(2):
        f = AdaptiveFilter(cfg, policy=policy)
        f.insert(owner)
        f.insert(mates[0])
        fs.append(f)
    a, b = fs
    # both fingerprints of the pair get extended, then patched into the
    # cached index
    assert b.lookup_many(mates[:60]) == scalar(a, mates[:60])
    stale = b.frozen_index()
    assert b.frozen_index() is stale
    # a key of the pair that the extended fingerprints both reject
    probe = next(k for k in mates[60:]
                 if not stale.query_keys(np.array([k], dtype=np.uint64))[0])
    a.delete(mates[0])
    b.delete(mates[0])
    # the owner's extension is gone, so probe collides with it again
    want = scalar(a, [probe])
    assert want[0][0] is LookupResult.FALSE_POSITIVE_CORRECTED
    assert b.lookup_many([probe]) == want
    # the delete dropped the index: the batch's one is built anew
    assert b.frozen_index().base is not stale.base
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
    index = FrozenIndex(arr.cfg, arr._columns())
    got = index.query_keys(np.array(probes, dtype=np.uint64))
    want = [arr.query_fp(HashStream(k, cfg.seed)) is not None for k in probes]
    assert got.tolist() == want
    assert 0 < sum(want[:200]) < 200
