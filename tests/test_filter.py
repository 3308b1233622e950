"""Adaptive filter behavior: lookup semantics, correction, degradation."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqf import core, revmap
from aqf.core import SlotArray, pack_minirun_id
from aqf.errors import (
    AdaptationExhaustedError,
    FilterError,
    FilterFullError,
    FormatError,
    InvalidConfigError,
    NotFoundError,
    StateCorruptionError,
)
from aqf.filter import AdaptiveFilter, LookupResult, Policy
from aqf.hashing import (
    FilterConfig,
    HashStream,
    extension_chunk,
    extension_chunk_batch,
    hash_word_batch,
    split,
)
from aqf.setops import rebuild
from aqf.workbench import CHURN_SPACE, fill_to_load

from oracles import (
    encode_filter_v1,
    encode_filter_v2,
    key_rank,
    mutants,
    relaid,
    reseal,
    shorten_minirun,
)

NOT_PRESENT = LookupResult.NOT_PRESENT
PRESENT = LookupResult.PRESENT
CORRECTED = LookupResult.FALSE_POSITIVE_CORRECTED
UNCORRECTED = LookupResult.FALSE_POSITIVE


def key_with_quotient(cfg, qt, start=0):
    """Smallest key at or after start whose quotient is qt."""
    k = start
    while split(HashStream(k, cfg.seed), cfg)[0] != qt:
        k += 1
    return k


def colliders(cfg, owner, chunks_equal, count, salt=0):
    """Keys sharing owner's baseline plus its first chunks_equal extension
    chunks, then diverging.  Found by vectorized prefix search."""
    want = cfg.q + cfg.r + chunks_equal * cfg.r
    owner_stream = HashStream(owner, cfg.seed)
    prefix = np.uint64(owner_stream.bits(0, want))
    boundary = extension_chunk(owner_stream, cfg, chunks_equal)
    rng = np.random.default_rng(owner ^ salt ^ 0xC011)
    out = []
    while len(out) < count:
        cand = rng.integers(0, 1 << 63, size=1 << 16, dtype=np.uint64)
        hits = cand[hash_word_batch(cand, cfg.seed) >> np.uint64(64 - want) == prefix]
        for k in hits:
            k = int(k)
            if k != owner and extension_chunk(HashStream(k, cfg.seed), cfg, chunks_equal) != boundary:
                out.append(k)
    return out[:count]


class TestPolicy:
    def test_extension_cap_bounds(self):
        with pytest.raises(InvalidConfigError):
            Policy(max_extensions=0)
        with pytest.raises(InvalidConfigError):
            Policy(max_extensions=256)
        assert Policy(max_extensions=255).max_extensions == 255


def _count_of_zero():
    arr = SlotArray(FilterConfig(q=4, r=4))
    arr.set_count(*arr.insert_fp(0, 0), 0)


# each raises InvalidConfigError, not a bare ValueError or TypeError
BAD_CONFIGS = {
    "q_float": lambda: FilterConfig(q=8.0, r=4),
    "q_str": lambda: FilterConfig(q="8", r=4),
    "seed_float": lambda: FilterConfig(q=8, r=4, seed=1.5),
    "value_bits_float": lambda: AdaptiveFilter(FilterConfig(q=8, r=4), value_bits=1.5),
    "value_bits_too_wide": lambda: AdaptiveFilter(FilterConfig(q=8, r=4), value_bits=60),
    "value_bits_negative": lambda: AdaptiveFilter(FilterConfig(q=8, r=4), value_bits=-1),
    "max_extensions_float": lambda: Policy(max_extensions=2.5),
    "chunk_index_negative": lambda: extension_chunk(HashStream(1, 0), FilterConfig(q=4, r=4), -1),
    "chunk_batch_index_negative": lambda: extension_chunk_batch(
        np.arange(3, dtype=np.uint64), FilterConfig(q=4, r=4), -1),
    "count_of_zero": _count_of_zero,
}


@pytest.mark.parametrize("make", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_configuration_raises_invalid_config(make):
    with pytest.raises(InvalidConfigError):
        make()


class TestInsertLookup:
    CFG = FilterConfig(q=10, r=8, seed=51)

    def test_present_with_value(self):
        f = AdaptiveFilter(self.CFG)
        f.insert(12345, value=b"stored bytes")
        assert f.lookup(12345) == (PRESENT, b"stored bytes")
        assert len(f) == 1

    def test_negative_lookup_never_reads_the_map(self):
        f = AdaptiveFilter(self.CFG)
        for k in range(100, 200):
            f.insert(k)
        rng = np.random.default_rng(52)
        index = f.frozen_index()
        draws = rng.integers(1 << 32, 1 << 60, size=5000, dtype=np.uint64)
        probes = [int(p) for p in draws[~index.query_keys(draws)]]
        before = f.map_accesses
        for p in probes:
            assert f.lookup(p) == (NOT_PRESENT, None)
        assert f.map_accesses == before

    def test_engineered_baseline_pair_shares_a_minirun(self):
        cfg = FilterConfig(q=8, r=4, seed=53)
        f = AdaptiveFilter(cfg)
        x = 9000
        y = colliders(cfg, x, 0, 1)[0]
        mid_x, _ = f.insert(x)
        mid_y, _ = f.insert(y)
        assert mid_x == mid_y
        assert f.map.list_size(mid_x) == 2
        assert f.lookup(x)[0] is PRESENT
        assert f.lookup(y)[0] is PRESENT

    def test_duplicate_key_without_dedupe_stores_twice(self):
        f = AdaptiveFilter(self.CFG)
        f.insert(777)
        f.insert(777)
        assert len(f) == 2
        assert f.lookup(777)[0] is PRESENT

    def test_dedupe_counts_instead(self):
        f = AdaptiveFilter(self.CFG, policy=Policy(dedupe_keys=True))
        mid, rank = f.insert(777)
        assert f.insert(777) == (mid, rank)
        assert len(f) == 1
        assert f.arr.get_count(mid, rank) == 2
        f.delete(777)
        assert f.lookup(777)[0] is PRESENT
        assert f.arr.get_count(mid, rank) == 1
        f.delete(777)
        assert f.lookup(777)[0] is NOT_PRESENT

    def test_tag_bit_rides_in_the_slot(self):
        f = AdaptiveFilter(self.CFG, value_bits=1)
        mid, rank = f.insert(31, tag=1)
        assert f.arr.get_value(mid, rank) == 1

    @pytest.mark.parametrize("value_bits, tag", [(1, 2), (1, -1), (1, 2.5), (0, 1)],
                             ids=["past-the-bits", "negative", "fraction", "no-value-bits"])
    def test_a_tag_outside_the_value_bits_is_refused_without_a_trace(self, value_bits, tag):
        """A fresh key and, with dedupe_keys on, a stored one, whose
        count would otherwise go up."""
        f = AdaptiveFilter(self.CFG, policy=Policy(dedupe_keys=True), value_bits=value_bits)
        f.insert(31)
        before = f.to_bytes()
        for key in (32, 31):
            with pytest.raises(InvalidConfigError, match="tag"):
                f.insert(key, tag=tag)
            assert f.to_bytes() == before


    @pytest.mark.parametrize("key, value", [(-1, None), (2**64, None), (7, "text")])
    def test_rejected_insert_leaves_no_trace(self, key, value):
        f = AdaptiveFilter(FilterConfig(q=6, r=4, seed=51))
        for k in range(20):
            f.insert(k)
        before = f.to_bytes()
        with pytest.raises(InvalidConfigError):
            f.insert(key, value=value)
        assert f.to_bytes() == before
        f.check_consistency()
        assert f.lookup(2**64 - 1)[0] is not PRESENT


class TestScalarKeys:
    """Every scalar entry point takes the keys lookup_many takes."""

    CFG = FilterConfig(q=8, r=4, seed=54)

    @pytest.mark.parametrize("key", [2**64 + 7, -1, "x", 2.5, None, b"7"])
    @pytest.mark.parametrize("op", ["insert", "delete", "lookup", "contains"])
    def test_bad_key_is_refused_without_a_trace(self, op, key):
        f = AdaptiveFilter(self.CFG)
        f.insert(7)
        before = (f.to_bytes(), f.map_accesses, f.adaptation_failures, f.adaptations)
        with pytest.raises(InvalidConfigError):
            getattr(f, op)(key)
        assert (f.to_bytes(), f.map_accesses, f.adaptation_failures, f.adaptations) == before

    def test_a_key_past_64_bits_is_not_its_masked_twin(self):
        f = AdaptiveFilter(self.CFG)
        f.insert(7)
        with pytest.raises(InvalidConfigError):
            f.lookup(2**64 + 7)
        with pytest.raises(InvalidConfigError):
            f.contains(2**64 + 7)
        assert f.adaptation_failures == 0
        assert f.lookup(7)[0] is PRESENT

    @pytest.mark.parametrize("kind", [np.uint64, np.int64, np.uint8])
    def test_numpy_integer_keys_act_as_ints(self, kind):
        f, g = AdaptiveFilter(self.CFG), AdaptiveFilter(self.CFG)
        for k in (3, 5, 200):
            f.insert(kind(k))
            g.insert(k)
        assert f.to_bytes() == g.to_bytes()
        assert f.lookup(kind(5)) == (PRESENT, None)
        assert f.contains(kind(200))
        f.delete(kind(3))
        g.delete(3)
        assert f.to_bytes() == g.to_bytes()
        assert f.lookup(kind(3)) == g.lookup(3)


class TestCorrection:
    CFG = FilterConfig(q=8, r=4, seed=54)

    def test_collider_is_corrected_once(self):
        f = AdaptiveFilter(self.CFG)
        x = 4242
        y = colliders(self.CFG, x, 0, 1)[0]
        f.insert(x)
        map_before = f.map.to_bytes()
        assert f.lookup(y)[0] is CORRECTED
        assert f.lookup(y)[0] is NOT_PRESENT
        assert f.lookup(x)[0] is PRESENT
        assert (f.adaptations, f.adaptivity_bits) == (1, self.CFG.r)
        # correction rewrites slots only; the key map is untouched
        assert f.map.to_bytes() == map_before

    def test_deeper_agreement_costs_more_chunks(self):
        f = AdaptiveFilter(self.CFG)
        x = 777
        y = colliders(self.CFG, x, 1, 1)[0]
        f.insert(x)
        assert f.lookup(y)[0] is CORRECTED
        assert f.adaptivity_bits == 2 * self.CFG.r
        mid = f.insert(10**9)[0]  # unrelated; just proving inserts still work
        assert f.lookup(y)[0] is NOT_PRESENT

    def test_adapting_a_key_against_itself_is_refused(self):
        f = AdaptiveFilter(self.CFG)
        x = 55
        mid, rank = f.insert(x)
        before = f.to_bytes()
        with pytest.raises(AdaptationExhaustedError):
            f.adapt(mid, rank, x, HashStream(x, self.CFG.seed))
        assert f.to_bytes() == before

    def test_adaptation_off_leaves_the_collision(self):
        f = AdaptiveFilter(self.CFG, policy=Policy(auto_adapt=False))
        x = 31415
        y = colliders(self.CFG, x, 0, 1)[0]
        f.insert(x)
        assert f.lookup(y)[0] is UNCORRECTED
        assert f.lookup(y)[0] is UNCORRECTED
        assert f.adaptations == 0

    def test_corrected_batch_never_recurs(self):
        cfg = FilterConfig(q=12, r=4, seed=55)
        f = AdaptiveFilter(cfg)
        rng = np.random.default_rng(56)
        stored = rng.integers(0, 1 << 62, size=1000, dtype=np.uint64)
        for k in stored:
            f.insert(int(k))
        probes = rng.integers(1 << 62, 1 << 63, size=5000, dtype=np.uint64)
        first = [f.lookup(int(p))[0] for p in probes]
        assert CORRECTED in first
        assert PRESENT not in first
        assert not f.frozen_index().query_keys(probes).any()
        assert f.adaptation_failures == 0

    def test_residual_match_rate_is_one_chunk_worth(self):
        cfg = self.CFG
        f = AdaptiveFilter(cfg)
        x = 271828
        f.insert(x)
        trigger = colliders(cfg, x, 0, 1)[0]
        assert f.lookup(trigger)[0] is CORRECTED
        assert f.arr.ext_slot_count == 1
        # fresh baseline colliders now match only if their first chunk
        # agrees with the owner's: one-in-2^r odds
        rng = np.random.default_rng(57)
        want = cfg.q + cfg.r
        prefix = np.uint64(HashStream(x, cfg.seed).bits(0, want))
        fresh = []
        for _ in range(512):
            cand = rng.integers(0, 1 << 63, size=1 << 16, dtype=np.uint64)
            hits = cand[hash_word_batch(cand, cfg.seed) >> np.uint64(64 - want) == prefix]
            fresh.extend(int(k) for k in hits if int(k) not in (x, trigger))
        verdicts = f.frozen_index().query_keys(np.array(fresh, dtype=np.uint64))
        rate = verdicts.mean()
        p = 2.0**-cfg.r
        assert abs(rate - p) < 4 * np.sqrt(p * (1 - p) / len(fresh))


class TestDegradation:
    def test_full_table_downgrades_correction_and_recovers(self):
        cfg = FilterConfig(q=4, r=4, seed=58)
        f = AdaptiveFilter(cfg)
        stored = []
        start = 0
        for qt in range(15):
            k = key_with_quotient(cfg, qt, start)
            start = k + 1
            f.insert(k)
            stored.append(k)
        assert f.arr.used_count == 15
        x = stored[7]
        y = colliders(cfg, x, 0, 1)[0]
        assert f.lookup(y)[0] is UNCORRECTED
        assert f.adaptation_failures == 1
        assert f.contains(y)
        assert f.lookup(y)[0] is UNCORRECTED
        assert f.adaptation_failures == 2
        f.delete(stored[0])
        assert f.lookup(y)[0] is CORRECTED
        assert f.lookup(y)[0] is NOT_PRESENT
        assert (f.adaptations, f.adaptation_failures) == (1, 2)

    def test_adaptation_at_the_load_cap(self):
        """Negatives alone fill the room below the load cap with
        extension slots; this pins what the filter does from there."""
        cfg = FilterConfig(q=10, r=4, seed=2)
        f, keys = fill_to_load(cfg, 0.85, seed=2)
        rng = np.random.default_rng(2)
        negatives = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=20_000, dtype=np.uint64)
        f.lookup_many(negatives)
        assert not f.arr.has_room(1)
        assert f.arr.ext_slot_count > 0 and f.adaptation_failures > 0
        assert f.frozen_index().query_keys(keys).all()
        assert {verdict for verdict, _ in f.lookup_many(keys)} == {PRESENT}

        state = (f.to_bytes(), f.adaptations, f.adaptation_failures, f.map.accesses)
        with pytest.raises(FilterFullError):
            f.insert(CHURN_SPACE[0] + 5)
        assert (f.to_bytes(), f.adaptations, f.adaptation_failures, f.map.accesses) == state

        g = rebuild(f, 102)
        assert g.arr.ext_slot_count == 0 and g.arr.has_room(1)
        assert g.frozen_index().query_keys(keys).all()
        more = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=2000, dtype=np.uint64)
        assert CORRECTED in {verdict for verdict, _ in g.lookup_many(more)}
        assert g.adaptations > 0


class TestStoredKeysArePresent:
    """A stored key answers PRESENT with its value even when fingerprints
    of other keys that lookup cannot adapt away come first in its
    minirun: 2-bit remainders put many keys in one minirun."""

    KEYS = np.random.default_rng(0).choice(1 << 40, size=400, replace=False).tolist()

    def test_without_adaptation(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=2, seed=0), policy=Policy(auto_adapt=False))
        keys = self.KEYS[:200]
        for k in keys:
            f.insert(k, value=k.to_bytes(8, "little"))
        reads = f.map_accesses
        assert [f.lookup(k) for k in keys] == [(PRESENT, k.to_bytes(8, "little")) for k in keys]
        # some keys read other keys' entries before their own
        assert f.map_accesses - reads > len(keys)
        assert (f.adaptations, f.adaptation_failures) == (0, 0)

    def test_at_the_load_cap(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=2, seed=1))
        keys = []
        for k in self.KEYS:
            try:
                f.insert(k, value=k.to_bytes(8, "little"))
            except FilterFullError:
                break
            keys.append(k)
        assert not f.arr.has_room(1)
        # per call: (verdict, value, failures added, map entries read)
        calls = []
        for k in keys:
            failures, reads = f.adaptation_failures, f.map_accesses
            verdict, value = f.lookup(k)
            calls.append((verdict, value, f.adaptation_failures - failures,
                          f.map_accesses - reads))
        assert [c[:2] for c in calls] == [(PRESENT, k.to_bytes(8, "little")) for k in keys]
        assert f.adaptations == 0
        assert f.adaptation_failures == sum(c[2] for c in calls) > 0
        # a call that met two other keys' fingerprints counts one failure
        assert max(c[2] for c in calls) == 1
        assert any(c[2:] == (1, 3) for c in calls)
        f.check_consistency()


class TestDelete:
    CFG = FilterConfig(q=8, r=4, seed=59)

    def test_roundtrip_empties_the_filter(self):
        f = AdaptiveFilter(self.CFG)
        f.insert(12)
        f.delete(12)
        assert f.lookup(12)[0] is NOT_PRESENT
        assert len(f) == 0 and f.arr.used_count == 0

    def test_deleting_a_missing_key_raises(self):
        f = AdaptiveFilter(self.CFG)
        with pytest.raises(NotFoundError):
            f.delete(999)

    def _extended_siblings(self, policy):
        cfg = self.CFG
        f = AdaptiveFilter(cfg, policy=policy)
        x = 161803
        y = colliders(cfg, x, 0, 1)[0]
        mid, _ = f.insert(x)
        f.insert(y)
        assert f.lookup(y)[0] is PRESENT  # walks past x's fp, extending it
        assert len(f.arr.get_ext(mid, 0)) >= 1
        # now extend y's fp too, via a query that dodges x's extension
        z = next(
            k
            for k in colliders(cfg, y, 0, 40, salt=1)
            if extension_chunk(HashStream(k, cfg.seed), cfg, 0)
            != extension_chunk(HashStream(x, cfg.seed), cfg, 0)
        )
        assert f.lookup(z)[0] is CORRECTED
        assert len(f.arr.get_ext(mid, 1)) >= 1
        return f, mid, x

    def test_shortening_strips_a_lone_survivor(self):
        f, mid, x = self._extended_siblings(Policy(shorten_on_delete=True))
        f.delete(x)
        assert f.arr.get_ext(mid, 0) == ()

    def test_without_shortening_extensions_stay(self):
        f, mid, x = self._extended_siblings(Policy())
        f.delete(x)
        assert len(f.arr.get_ext(mid, 0)) >= 1

    def test_shortening_delete_is_one_cluster_edit(self, monkeypatch):
        """A plain or a shortening delete closes gaps in place in one walk of
        the minirun: no columnar decode or layout of the cluster, and no
        per-fingerprint relocation or read."""
        cfg = self.CFG
        x = 271828
        keys = [x, *colliders(cfg, x, 0, 3)]
        z = colliders(cfg, x, 0, 1, salt=2)[0]
        assert z not in keys
        filters = []
        for policy in (Policy(), Policy(shorten_on_delete=True)):
            f = AdaptiveFilter(cfg, policy=policy)
            for k in keys:
                mid, _ = f.insert(k)
            assert f.lookup(z)[0] is CORRECTED  # extends all four fingerprints
            filters.append(f)
        exts = [f.arr.get_ext(mid, rank) for rank in range(4)]
        assert all(exts) and f.arr.ctr_slot_count == 0
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_columns", "_lay_out", "_locate_fp", "get_ext", "get_count"):
            monkeypatch.setattr(SlotArray, name, counted(name, getattr(SlotArray, name)))
        for f in filters:
            f.delete(x)
        monkeypatch.undo()
        assert calls == {}
        plain, short = filters
        assert [plain.arr.get_ext(mid, rank) for rank in range(3)] == exts[1:]
        assert [short.arr.get_ext(mid, rank) for rank in range(3)] == shorten_minirun(exts[1:])
        for f in filters:
            f.check_consistency()

    def test_counted_duplicates_take_one_walk(self, monkeypatch):
        """A counted re-insert and a counted delete read and rewrite the
        count in one walk of the cluster, and the table stays as the
        layout writer would lay it out."""
        f = AdaptiveFilter(FilterConfig(q=10, r=4, seed=60), policy=Policy(dedupe_keys=True))
        keys = range(1000, 1100)
        for k in keys:
            f.insert(k)
        walks = Counter()
        walk = f.arr._walk_to_run

        def counted(qt):
            walks["walks"] += 1
            return walk(qt)

        monkeypatch.setattr(f.arr, "_walk_to_run", counted)
        for _ in range(2):
            for k in keys:
                f.insert(k)
        assert walks["walks"] == 2 * len(keys)
        walks.clear()
        for k in keys:
            f.delete(k)
        assert walks["walks"] == len(keys)
        monkeypatch.undo()
        assert f.arr.to_bytes() == relaid(f.arr).to_bytes()
        for k in keys:
            mid = pack_minirun_id(*split(HashStream(k, f.cfg.seed), f.cfg), f.cfg.r)
            assert f.arr.get_count(mid, key_rank(f, mid, k)) == 2
        for _ in range(2):
            for k in keys:
                f.delete(k)
        assert len(f) == 0 and f.arr.used_count == 0

    def test_delete_scans_the_map_bucket_once(self, monkeypatch):
        """find_rank's scan of the id's base rows serves map_remove too;
        the map still counts two accesses per delete."""
        f, keys = fill_to_load(FilterConfig(q=10, r=6, seed=61), 0.5, seed=62)
        scans = Counter()
        span = f.map._span

        def counted(mid):
            scans["scans"] += 1
            return span(mid)

        monkeypatch.setattr(f.map, "_span", counted)
        before = f.map.accesses
        victims = [int(k) for k in keys[:50]]
        for k in victims:
            f.delete(k)
        assert scans["scans"] == len(victims)
        assert f.map.accesses == before + 2 * len(victims)
        monkeypatch.undo()
        f.check_consistency()


class TestConsistency:
    def test_clean_after_mixed_workload(self):
        cfg = FilterConfig(q=10, r=5, seed=60)
        f = AdaptiveFilter(cfg)
        rng = np.random.default_rng(61)
        live = []
        for _ in range(2000):
            roll = rng.random()
            if roll < 0.5 or not live:
                k = int(rng.integers(0, 1 << 60))
                f.insert(k)
                live.append(k)
            elif roll < 0.7:
                f.delete(live.pop(int(rng.integers(0, len(live)))))
            else:
                f.lookup(int(rng.integers(0, 1 << 60)))
        f.check_consistency()

    @staticmethod
    def swap_key(f, mid, rank):
        """Put another key at (mid, rank) of f's map; check_consistency
        must notice."""
        f.map.map_remove(mid, rank)
        f.map.map_insert(mid, rank, 2002)
        assert f.map.map_get(mid, rank) == (2002, None)
        with pytest.raises(StateCorruptionError):
            f.check_consistency()

    def test_detects_a_missing_or_moved_map_entry(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=62))
        mid, rank = f.insert(1001)
        f.insert(1002)
        f.map.map_remove(mid, rank)
        with pytest.raises(StateCorruptionError, match="2 fingerprints, 1 map entries"):
            f.check_consistency()
        f.map.map_insert(mid ^ 1, 0, 1001)
        with pytest.raises(StateCorruptionError, match="disagree on minirun ids"):
            f.check_consistency()

    def test_detects_map_tampering(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=62))
        mid, rank = f.insert(1001)
        assert f.map._over
        self.swap_key(f, mid, rank)
        assert f.map._over

    def test_detects_map_tampering_in_the_base_columns(self, monkeypatch):
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=62))
        mid, rank = f.insert(1001)
        # a reload puts every entry in the map's base columns, and
        # compacting on every write puts the swapped entry there too
        monkeypatch.setattr(revmap, "_COMPACT_MIN", 0)
        monkeypatch.setattr(revmap, "_COMPACT_SHARE", 0)
        f = AdaptiveFilter.from_bytes(f.to_bytes())
        assert not f.map._over
        self.swap_key(f, mid, rank)
        assert not f.map._over

    def test_detects_an_extension_its_owner_does_not_share(self):
        cfg = FilterConfig(q=8, r=4, seed=62)
        f = AdaptiveFilter(cfg)
        for k in range(40):
            f.insert(k)
        mid, rank = f.insert(1001)
        wrong = extension_chunk(HashStream(1001, cfg.seed), cfg, 0) ^ 1
        f.arr.extend_fp(mid, rank, [wrong])
        with pytest.raises(StateCorruptionError, match="key 1001"):
            f.check_consistency()

    @pytest.mark.parametrize("fault", ["key", "id", "extra", "missing"])
    def test_blocks_of_a_few_slots_report_the_same_fault(self, fault, monkeypatch):
        """The check reads the table a block at a time and compares it
        with the map's base rows in place; it names the same fault, by
        its row in the whole table, whatever the block size."""
        f = AdaptiveFilter.from_bytes(fill_to_load(FilterConfig(q=8, r=4, seed=64), 0.6,
                                                   seed=65)[0].to_bytes())
        mids, keys = f.map._mids.copy(), f.map._keys.copy()
        assert not f.map._over and len(mids) > 120
        if fault == "key":
            keys[120] ^= 1 << 63
        elif fault == "id":
            mids[120] ^= 1
        elif fault == "extra":
            mids, keys = np.append(mids, mids[-1]), np.append(keys, keys[-1])
        else:
            mids, keys = mids[:-1], keys[:-1]
        f.map._set_base(mids, keys, None)
        messages = []
        for block in (1 << 14, 5, 1):
            monkeypatch.setattr(core, "_BLOCK", block)
            with pytest.raises(StateCorruptionError) as err:
                f.check_consistency()
            messages.append(str(err.value))
        assert len(set(messages)) == 1
        assert ("row 120" in messages[0]) == (fault == "id")

    def test_detects_missing_map_entry(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=62))
        mid, rank = f.insert(1001)
        f.map.map_remove(mid, rank)
        with pytest.raises(StateCorruptionError):
            f.check_consistency()


class TestCombinedSnapshot:
    def test_roundtrip_preserves_answers_and_policy(self, tmp_path):
        cfg = FilterConfig(q=9, r=6, seed=63)
        policy = Policy(auto_adapt=False, max_extensions=20, dedupe_keys=True,
                        shorten_on_delete=True)
        f = AdaptiveFilter(cfg, policy=policy, value_bits=1)
        rng = np.random.default_rng(64)
        keys = [int(k) for k in rng.integers(0, 1 << 60, size=150, dtype=np.uint64)]
        for i, k in enumerate(keys):
            f.insert(k, value=bytes([i % 251]), tag=i & 1)
        path = tmp_path / "filter.aqfs"
        f.save(path)
        g = AdaptiveFilter.load(path)
        assert g.policy == policy
        assert g.value_bits == 1
        for i, k in enumerate(keys):
            assert g.lookup(k) == (PRESENT, bytes([i % 251]))
        assert g.to_bytes() == f.to_bytes()

    def test_roundtrip_keeps_the_counters(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=67), policy=Policy(max_extensions=1))
        for k in range(200):
            f.insert(k)
        f.lookup_many(range(1000, 30_000))
        counters = (f.adaptations, f.adaptivity_bits, f.adaptation_failures)
        assert all(counters)
        g = AdaptiveFilter.from_bytes(f.to_bytes())
        assert (g.adaptations, g.adaptivity_bits, g.adaptation_failures) == counters
        g.adaptations, g.adaptivity_bits, g.adaptation_failures = 2**64 - 1, 2**40 + 3, 1
        h = AdaptiveFilter.from_bytes(g.to_bytes())
        assert (h.adaptations, h.adaptivity_bits, h.adaptation_failures) == (
            2**64 - 1, 2**40 + 3, 1)

    def test_corruption_is_rejected(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=65))
        f.insert(5)
        blob = f.to_bytes()

        with pytest.raises(FormatError):
            AdaptiveFilter.from_bytes(blob[:-1])
        with pytest.raises(FormatError):
            AdaptiveFilter.from_bytes(b"AQFX" + blob[4:])
        with pytest.raises(FormatError):
            AdaptiveFilter.from_bytes(blob + b"!")
        with pytest.raises(FormatError, match="bad magic"):
            AdaptiveFilter.from_bytes(reseal(b"AQFX" + blob[4:]))

    def test_version_1_is_not_read(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=65))
        f.insert(5)
        v1 = encode_filter_v1(f)
        with pytest.raises(FormatError, match="checksum"):
            AdaptiveFilter.from_bytes(v1)
        # given a trailer, its version number refuses it
        with pytest.raises(FormatError, match="unsupported combined snapshot version 1"):
            AdaptiveFilter.from_bytes(reseal(v1 + bytes(4)))

    def test_version_2_is_not_read(self):
        """A version 2 snapshot, whole keys in its map section and a
        trailer on each section, has a valid trailer of its own; its
        version number refuses it."""
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=65))
        f.insert(5)
        with pytest.raises(FormatError, match="unsupported combined snapshot version 2"):
            AdaptiveFilter.from_bytes(encode_filter_v2(f))

    @staticmethod
    def map_section(blob):
        """(offset, size) of the map section's bytes in a combined
        snapshot: after the 36-byte header and the slot section."""
        at = 44 + int.from_bytes(blob[36:44], "little")
        return at + 8, int.from_bytes(blob[at : at + 8], "little")

    def test_a_map_section_one_byte_short_is_refused(self):
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=65))
        for k in range(30):
            f.insert(k)
        blob = f.to_bytes()
        at, size = self.map_section(blob)
        assert size == 30 * 8  # a u32 and a u32 of 20 bits at q + r = 12
        short = (blob[: at - 8] + (size - 1).to_bytes(8, "little") + blob[at : at + size - 1]
                 + blob[at + size :])
        with pytest.raises(FormatError, match="map section of 239 bytes is short of 30"):
            AdaptiveFilter.from_bytes(reseal(short))

    @pytest.mark.parametrize("q, r, column, bit", [(8, 4, 1, 20), (8, 4, 1, 31),
                                                   (20, 9, 1, 3), (20, 20, 0, 24)])
    def test_a_bit_past_the_written_width_is_refused(self, q, r, column, bit):
        """The map section writes each word's w = 64 - q - r bits below
        its minirun id, the low 32 (or all w) and then the rest, each
        column in the narrowest type that holds it; a bit set above
        them in a column would overlap the id, and is refused."""
        f = AdaptiveFilter(FilterConfig(q=q, r=r, seed=65))
        f.insert(5)
        blob = bytearray(f.to_bytes())
        at, size = self.map_section(blob)
        assert size == {12: 8, 29: 5, 40: 4}[q + r]
        blob[at + 4 * column + bit // 8] |= 1 << (bit & 7)
        with pytest.raises(FormatError, match="bits set past"):
            AdaptiveFilter.from_bytes(reseal(blob))

    @pytest.mark.parametrize("at, value", [(8, 8), (8, 0x80), (8, 0xFF), (11, 1), (11, 0x80),
                                           (9, 0)])
    def test_unknown_flags_and_reserved_byte_are_rejected(self, at, value):
        """Unknown flag bits, a reserved byte other than 0 and a
        max_extensions of 0, each behind a recomputed trailer."""
        f = AdaptiveFilter(FilterConfig(q=8, r=4, seed=65))
        f.insert(5)
        blob = bytearray(f.to_bytes())
        assert blob[8] == 1 and blob[9] == 56 and blob[11] == 0
        blob[at] = value
        with pytest.raises(FormatError):
            AdaptiveFilter.from_bytes(reseal(blob))


@pytest.fixture(scope="module")
def small_snapshot():
    """A q=6 combined snapshot with a value bit, map values and extensions."""
    cfg = FilterConfig(q=6, r=3, seed=66)
    f = AdaptiveFilter(cfg, policy=Policy(dedupe_keys=True), value_bits=1)
    for i in range(20):
        f.insert(i, value=[None, b"", bytes([i])][i % 3], tag=i & 1)
    f.insert(4)  # a counted duplicate
    f.lookup_many(range(100, 400))
    assert f.adaptations and f.arr.ext_slot_count and f.arr.ctr_slot_count
    return f.to_bytes()


def test_every_bit_flip_and_truncation_fails(small_snapshot):
    """No mutant loads: the trailer catches every single-bit flip and
    every cut."""
    for blob in mutants(small_snapshot):
        with pytest.raises(FormatError):
            AdaptiveFilter.from_bytes(blob)


def test_every_bit_flip_and_truncation_fails_cleanly_or_reloads_identically(small_snapshot):
    """Behind the trailers: with every trailer recomputed, a mutant
    either fails a field check or loads a filter that encodes to the
    same bytes."""
    loaded = 0
    for blob in mutants(small_snapshot[:-4]):
        blob = reseal(blob + bytes(4))
        try:
            g = AdaptiveFilter.from_bytes(blob)
        except FilterError:
            continue
        assert g.to_bytes() == blob
        loaded += 1
    # counter, slot payload, key and value bits carry no redundancy, so
    # their flips must load
    assert loaded >= 3 * 64 + 20 * 64


# filters with values, tags, counted duplicates and extensions
filter_cases = dict(
    q=st.integers(3, 7), r=st.integers(2, 6), seed=st.integers(0, 1 << 16),
    value_bits=st.integers(0, 2), dedupe=st.booleans(),
    items=st.lists(st.tuples(st.one_of(st.integers(0, 60), st.integers(0, (1 << 64) - 1)),
                             st.one_of(st.none(), st.binary(max_size=3)),
                             st.integers(0, 3)), max_size=40),
    probes=st.lists(st.integers(0, 3000), max_size=300))


def filled(q, r, seed, value_bits, dedupe, items, probes):
    f = AdaptiveFilter(FilterConfig(q=q, r=r, seed=seed), policy=Policy(dedupe_keys=dedupe),
                       value_bits=value_bits)
    for key, value, tag in items:
        try:
            f.insert(key, value, tag & ((1 << value_bits) - 1))
        except FilterFullError:
            break
    f.lookup_many(probes)
    return f


@settings(max_examples=80, deadline=None)
@given(**filter_cases)
def test_reloaded_filter_encodes_to_the_same_v1_bytes(**case):
    """The version 1 encoder, kept as an oracle, sees the same filter
    before a save and after the load."""
    f = filled(**case)
    assert encode_filter_v1(AdaptiveFilter.from_bytes(f.to_bytes())) == encode_filter_v1(f)


@settings(max_examples=80, deadline=None)
@given(**filter_cases)
def test_reloaded_filter_encodes_to_the_same_v2_bytes(**case):
    """The version 2 encoder, kept as an oracle, sees the same filter
    before a save and after the load: the keys come back from the words
    that the map section cuts below their ids."""
    f = filled(**case)
    assert encode_filter_v2(AdaptiveFilter.from_bytes(f.to_bytes())) == encode_filter_v2(f)
