"""Bulk load, merge, and reseed against sequential construction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aqf.core import pack_minirun_id
from aqf.errors import (
    ConfigMismatchError,
    FilterFullError,
    InvalidConfigError,
    UnsortedInputError,
)
from aqf.filter import AdaptiveFilter, LookupResult, Policy
from aqf.hashing import FilterConfig, HashStream, split, split_batch
from aqf.revmap import ReverseMap
from aqf.setops import _GROW_AT, bulk_load, merge, rebuild
from oracles import decode_raw, find_colliders, key_lists, key_rank, map_lists, ref_split

PRESENT = LookupResult.PRESENT


def hash_sorted(keys, cfg):
    order = np.argsort(split_batch(np.asarray(keys, dtype=np.uint64), cfg), kind="stable")
    return [int(keys[i]) for i in order]


def sequential(keys, cfg, value_bits=0, values=None):
    f = AdaptiveFilter(cfg, value_bits=value_bits)
    for i, k in enumerate(keys):
        f.insert(k, value=None if values is None else values[i])
    return f


class TestBulkLoad:
    def test_a_key_array_is_copied_not_kept(self):
        """The map keeps the keys it is handed, so bulk_load copies an
        array of the caller's rather than keep it."""
        cfg = FilterConfig(q=8, r=6, seed=81)
        keys = np.array(hash_sorted(np.arange(1, 200, dtype=np.uint64), cfg), dtype=np.uint64)
        f = bulk_load(keys, cfg)
        before = f.to_bytes()
        keys[:] = 0
        assert f.to_bytes() == before
        f.check_consistency()

    def test_matches_sequential_construction_exactly(self):
        cfg = FilterConfig(q=10, r=6, seed=81)
        rng = np.random.default_rng(82)
        keys = hash_sorted(rng.choice(1 << 62, size=600, replace=False), cfg)
        f = bulk_load(keys, cfg)
        assert f.to_bytes() == sequential(keys, cfg).to_bytes()
        assert len(f) == 600

    def test_wrapping_cluster_matches_too(self):
        cfg = FilterConfig(q=6, r=8, seed=83)
        rng = np.random.default_rng(84)
        cand = rng.integers(0, 1 << 62, size=4000, dtype=np.uint64)
        quots = split_batch(cand, cfg) >> np.uint64(cfg.r)
        # pile up the top quotients so the last cluster spills past the
        # end of the array, plus a few early ones for the spill to push
        keys = [int(k) for k in cand[quots >= 60][:24]]
        keys += [int(k) for k in cand[quots <= 2][:4]]
        keys = hash_sorted(keys, cfg)
        f = bulk_load(keys, cfg)
        assert f.to_bytes() == sequential(keys, cfg).to_bytes()
        assert all(f.lookup(k)[0] is PRESENT for k in keys)
        decode_raw(f.arr)  # layout invariants hold across the seam

    def test_values_ride_along(self):
        cfg = FilterConfig(q=8, r=8, seed=85)
        rng = np.random.default_rng(86)
        keys = hash_sorted(rng.choice(1 << 62, size=50, replace=False), cfg)
        f = bulk_load([(k, bytes([i])) for i, k in enumerate(keys)], cfg)
        for i, k in enumerate(keys):
            assert f.lookup(k) == (PRESENT, bytes([i]))

    def test_bare_keys_and_pairs_of_any_value_length_mix(self):
        """A list may mix bare keys with pairs whose values differ in
        length; it loads as inserting them one at a time would."""
        cfg = FilterConfig(q=8, r=8, seed=85)
        rng = np.random.default_rng(87)
        keys = hash_sorted(rng.choice(1 << 62, size=60, replace=False), cfg)
        values = [None if i % 3 == 0 else bytes([i]) * (i * 37 % 1000) for i in range(60)]
        items = [k if v is None else (k, v) for k, v in zip(keys, values)]
        f = bulk_load(items, cfg)
        assert f.to_bytes() == sequential(keys, cfg, values=values).to_bytes()
        for k, v in zip(keys, values):
            assert f.lookup(k) == (PRESENT, v)
        f.check_consistency()

    def test_duplicate_keys_occupy_two_ranks(self):
        cfg = FilterConfig(q=8, r=8, seed=87)
        f = bulk_load(hash_sorted([123, 123, 456], cfg) , cfg)
        assert len(f) == 3
        assert f.lookup(123)[0] is PRESENT

    def test_rejects_unsorted_input(self):
        cfg = FilterConfig(q=10, r=6, seed=81)
        rng = np.random.default_rng(88)
        keys = hash_sorted(rng.choice(1 << 62, size=100, replace=False), cfg)
        keys[10], keys[60] = keys[60], keys[10]
        with pytest.raises(UnsortedInputError):
            bulk_load(keys, cfg)

    def test_rejects_overfull_input(self):
        cfg = FilterConfig(q=4, r=8, seed=89)
        rng = np.random.default_rng(90)
        keys = hash_sorted(rng.choice(1 << 62, size=16, replace=False), cfg)
        with pytest.raises(FilterFullError):
            bulk_load(keys, cfg)

    def test_empty_input_gives_an_empty_filter(self):
        f = bulk_load([], FilterConfig(q=8, r=8, seed=91))
        assert len(f) == 0
        assert f.lookup(7)[0] is LookupResult.NOT_PRESENT


class TestMerge:
    CFG = FilterConfig(q=11, r=6, seed=92)

    def _pair(self, na=400, nb=300, adapt=True):
        rng = np.random.default_rng(93)
        pool = rng.choice(1 << 62, size=na + nb, replace=False)
        a = sequential([int(k) for k in pool[:na]], self.CFG)
        b = sequential([int(k) for k in pool[na:]], self.CFG)
        if adapt:
            # trigger a few corrections so merged extensions are exercised
            for f in (a, b):
                probes = rng.integers(0, 1 << 62, size=40000, dtype=np.uint64)
                hits = probes[f.frozen_index().query_keys(probes)]
                for p in hits[:20]:
                    f.lookup(int(p))
                assert f.arr.ext_slot_count > 0
        return a, b, pool

    def test_positive_set_is_the_exact_union(self):
        a, b, pool = self._pair()
        m = merge(a, b)
        assert m.cfg == self.CFG
        rng = np.random.default_rng(94)
        probes = np.concatenate(
            [pool.astype(np.uint64), rng.integers(0, 1 << 63, size=30000, dtype=np.uint64)]
        )
        want = a.frozen_index().query_keys(probes) | b.frozen_index().query_keys(probes)
        got = m.frozen_index().query_keys(probes)
        assert np.array_equal(got, want)
        m.check_consistency()

    def test_every_stored_key_survives(self):
        a, b, pool = self._pair()
        m = merge(a, b)
        assert len(m) == len(pool)
        for k in pool:
            assert m.lookup(int(k))[0] is PRESENT

    def test_shared_minirun_keeps_left_before_right(self):
        cfg = FilterConfig(q=8, r=6, seed=95)
        x = 1234
        y = find_colliders(cfg.q, cfg.r, cfg.seed, x, 0, 1)[0]
        a = sequential([x], cfg)
        b = sequential([y], cfg)
        m = merge(a, b)
        mid = pack_minirun_id(*split(HashStream(x, cfg.seed), cfg), cfg.r)
        assert key_rank(m, mid, x) == 0
        assert key_rank(m, mid, y) == 1

    def test_counts_and_policy_come_from_the_left(self):
        cfg = FilterConfig(q=9, r=6, seed=96)
        a = AdaptiveFilter(cfg, policy=Policy(dedupe_keys=True))
        for _ in range(3):
            a.insert(42)
        b = sequential([77], cfg)
        m = merge(a, b)
        assert m.policy == a.policy
        mid, rank = a.insert(42)  # fetch the id; count is now 4 in a only
        assert m.arr.get_count(mid, rank) == 3

    def test_cluster_across_the_seam_merges(self):
        cfg = FilterConfig(q=6, r=8, seed=83)
        rng = np.random.default_rng(84)
        cand = rng.integers(0, 1 << 62, size=4000, dtype=np.uint64)
        quots = split_batch(cand, cfg) >> np.uint64(cfg.r)
        # a's last cluster runs past the top of the table into slot 0
        left = [int(k) for k in cand[quots >= 61][:6]] + [int(k) for k in cand[quots == 0][:1]]
        right = [int(k) for k in cand[(quots > 2) & (quots < 60)][:10]]
        a, b = sequential(left, cfg), sequential(right, cfg)
        assert decode_raw(a.arr)[-1][0] == 0
        m = merge(a, b)
        assert m.to_bytes() == sequential(hash_sorted(left + right, cfg), cfg).to_bytes()
        m.check_consistency()

    def test_mismatched_inputs_are_rejected(self):
        base = FilterConfig(q=8, r=6, seed=1)
        a = AdaptiveFilter(base)
        for bad in (FilterConfig(q=9, r=6, seed=1), FilterConfig(q=8, r=6, seed=2)):
            with pytest.raises(ConfigMismatchError):
                merge(a, AdaptiveFilter(bad))
        with pytest.raises(ConfigMismatchError):
            merge(a, AdaptiveFilter(base, value_bits=1))


class TestMergeGrowth:
    def test_overfull_union_takes_another_quotient_bit(self):
        cfg = FilterConfig(q=8, r=6, seed=97)
        rng = np.random.default_rng(98)
        pool = rng.choice(1 << 62, size=300, replace=False)
        a = sequential([int(k) for k in pool[:150]], cfg)
        b = sequential([int(k) for k in pool[150:]], cfg)
        # extend something in a so length preservation is observable
        probes = rng.integers(0, 1 << 62, size=60000, dtype=np.uint64)
        hits = probes[a.frozen_index().query_keys(probes)]
        for p in hits[:10]:
            a.lookup(int(p))
        m = merge(a, b)
        assert m.cfg.q == cfg.q + 1
        assert m.cfg.r == cfg.r and m.cfg.seed == cfg.seed
        for k in pool:
            assert m.lookup(int(k))[0] is PRESENT
        m.check_consistency()

    def test_growth_preserves_extension_lengths(self):
        cfg = FilterConfig(q=8, r=6, seed=99)
        rng = np.random.default_rng(100)
        pool = rng.choice(1 << 62, size=300, replace=False)
        a = sequential([int(k) for k in pool[:150]], cfg)
        b = sequential([int(k) for k in pool[150:]], cfg)
        x = int(pool[0])
        z = find_colliders(cfg.q, cfg.r, cfg.seed, x, 0, 1)[0]
        assert a.lookup(z)[0] is LookupResult.FALSE_POSITIVE_CORRECTED
        mid = pack_minirun_id(*split(HashStream(x, cfg.seed), cfg), cfg.r)
        old_len = len(a.arr.get_ext(mid, key_rank(a, mid, x)))
        m = merge(a, b)
        assert m.cfg.q == cfg.q + 1
        grown_mid = pack_minirun_id(*split(HashStream(x, cfg.seed), m.cfg), m.cfg.r)
        new_len = len(m.arr.get_ext(grown_mid, key_rank(m, grown_mid, x)))
        assert new_len == old_len >= 1
        assert m.lookup(x)[0] is PRESENT


class TestRebuild:
    def test_reseeding_drops_extensions_and_keeps_keys(self):
        cfg = FilterConfig(q=9, r=6, seed=101)
        rng = np.random.default_rng(102)
        keys = [int(k) for k in rng.choice(1 << 62, size=200, replace=False)]
        f = sequential(keys, cfg, value_bits=0)
        corrected = []
        probes = rng.integers(0, 1 << 62, size=80000, dtype=np.uint64)
        for p in probes[f.frozen_index().query_keys(probes)][:30]:
            if f.lookup(int(p))[0] is LookupResult.FALSE_POSITIVE_CORRECTED:
                corrected.append(int(p))
        assert f.arr.ext_slot_count > 0
        g = rebuild(f, new_seed=555)
        assert g.cfg.seed == 555
        assert g.arr.ext_slot_count == 0
        assert len(g) == len(keys)
        for k in keys:
            assert g.lookup(k)[0] is PRESENT
        g.check_consistency()
        # the old colliders are nothing special under the new seed
        replay = g.frozen_index().query_keys(np.array(corrected, dtype=np.uint64))
        assert replay.sum() <= 2

    def test_values_and_counts_survive(self):
        cfg = FilterConfig(q=8, r=8, seed=103)
        f = AdaptiveFilter(cfg, policy=Policy(dedupe_keys=True))
        mid, rank = f.insert(9, value=b"nine")
        f.insert(9)
        g = rebuild(f, new_seed=104)
        assert g.lookup(9) == (PRESENT, b"nine")
        gmid = pack_minirun_id(*split(HashStream(9, 104), g.cfg), g.cfg.r)
        assert g.arr.get_count(gmid, key_rank(g, gmid, 9)) == 2

    def test_same_seed_warns(self):
        f = sequential([1, 2, 3], FilterConfig(q=8, r=8, seed=105))
        with pytest.warns(UserWarning):
            rebuild(f, new_seed=105)


class TestBulkLoadValidation:
    @pytest.mark.parametrize("items", [[-1], [1 << 64], [(5, "text")], np.array([-1])])
    def test_bad_keys_and_values_are_rejected(self, items):
        with pytest.raises(InvalidConfigError):
            bulk_load(items, FilterConfig(q=6, r=4, seed=1))


def fingerprints(f):
    """(minirun id, rank, extension chunks) of every fingerprint of f."""
    ranks = {}
    for qt, rem, ext, _, _ in decode_raw(f.arr):
        mid = pack_minirun_id(qt, rem, f.cfg.r)
        ranks[mid] = ranks.get(mid, -1) + 1
        yield mid, ranks[mid], ext


def hash_order_records(f):
    """(key, value) of every fingerprint in hash order, ties in rank
    order: the raw decoder's rows stably sorted by quotient."""
    ranks = {}
    out = []
    lists = key_lists(f)
    for qt, rem, _, _, _ in sorted(decode_raw(f.arr), key=lambda row: row[0]):
        mid = pack_minirun_id(qt, rem, f.cfg.r)
        rank = ranks[mid] = ranks.get(mid, -1) + 1
        out.append(lists[mid][rank])
    return out


def in_hash_order(records, cfg):
    """(key, value) records stably sorted by their keys' fingerprints."""
    return sorted(records, key=lambda kv: ref_split(kv[0], cfg.seed, cfg.q, cfg.r))


def sequential_map(records, cfg):
    """The map that map_insert builds from records in hash order under
    cfg, each appended to its minirun's list."""
    m = ReverseMap()
    for key, value in in_hash_order(records, cfg):
        mid = pack_minirun_id(*ref_split(key, cfg.seed, cfg.q, cfg.r), cfg.r)
        m.map_insert(mid, m.list_size(mid), key, value)
    return m


# few distinct keys, so duplicates and shared miniruns are common
record_st = st.tuples(st.integers(0, 60),
                      st.one_of(st.none(), st.just(b""), st.binary(min_size=1, max_size=3)))


def adapted(records, cfg, probes):
    f = AdaptiveFilter(cfg)
    for key, value in records:
        f.insert(key, value)
    for p in probes:
        f.lookup(p)
    return f


class TestMapsMatchSequentialConstruction:
    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(record_st, max_size=24), seed=st.integers(0, 3))
    def test_bulk_load(self, records, seed):
        cfg = FilterConfig(q=5, r=3, seed=seed)
        records = in_hash_order(records, cfg)
        f = bulk_load(records, cfg)
        assert key_lists(f) == map_lists(sequential_map(records, cfg))
        assert f.to_bytes() == adapted(records, cfg, ()).to_bytes()

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(record_st, max_size=24),
           probes=st.lists(st.integers(61, 400), max_size=30), seed=st.integers(0, 3))
    def test_rebuild(self, records, probes, seed):
        f = adapted(records, FilterConfig(q=5, r=3, seed=seed), probes)
        g = rebuild(f, new_seed=seed + 10)
        records = hash_order_records(f)
        assert key_lists(g) == map_lists(sequential_map(records, g.cfg))
        assert g.to_bytes() == adapted(in_hash_order(records, g.cfg), g.cfg, ()).to_bytes()
        g.check_consistency()

    @settings(max_examples=100, deadline=None)
    @given(left=st.lists(record_st, max_size=16), right=st.lists(record_st, max_size=16),
           probes=st.lists(st.integers(61, 400), max_size=30), seed=st.integers(0, 3))
    def test_merge_that_fits(self, left, right, probes, seed):
        cfg = FilterConfig(q=6, r=3, seed=seed)
        a, b = adapted(left, cfg, probes), adapted(right, cfg, probes[::-1])
        assume(a.arr.used_count + b.arr.used_count <= _GROW_AT * cfg.nslots)
        m = merge(a, b)
        assert m.cfg == cfg
        assert key_lists(m) == map_lists(sequential_map(hash_order_records(a)
                                                       + hash_order_records(b), cfg))
        # every key keeps its chunks; b's entries follow a's in a minirun
        for mid, rank, ext in fingerprints(a):
            assert m.map.map_get(mid, rank) == a.map.map_get(mid, rank)
            assert m.arr.get_ext(mid, rank) == ext
        for mid, rank, ext in fingerprints(b):
            at = a.map.list_size(mid) + rank
            assert m.map.map_get(mid, at) == b.map.map_get(mid, rank)
            assert m.arr.get_ext(mid, at) == ext
        universe = np.arange(1024, dtype=np.uint64)
        assert np.array_equal(m.frozen_index().query_keys(universe),
                              a.frozen_index().query_keys(universe)
                              | b.frozen_index().query_keys(universe))
        m.check_consistency()

    @settings(max_examples=100, deadline=None)
    @given(left=st.lists(record_st, min_size=15, max_size=20),
           right=st.lists(record_st, min_size=15, max_size=20),
           probes=st.lists(st.integers(61, 400), max_size=30), seed=st.integers(0, 3))
    def test_merge_that_grows_the_table(self, left, right, probes, seed):
        cfg = FilterConfig(q=5, r=3, seed=seed)
        a, b = adapted(left, cfg, probes), adapted(right, cfg, ())
        m = merge(a, b)
        assert m.cfg.q == cfg.q + 1
        assert key_lists(m) == map_lists(sequential_map(hash_order_records(a)
                                                       + hash_order_records(b), m.cfg))
        m.check_consistency()
