"""Workload generation, experiment drivers, CSV plumbing, CLI surface."""

import math
from dataclasses import replace

import numpy as np
import pytest

import aqf.workbench as workbench
from aqf.cli import main
from aqf.core import SlotArray
from aqf.errors import InvalidConfigError, StateCorruptionError
from aqf.filter import AdaptiveFilter, Policy
from aqf.hashing import FilterConfig, split_batch
from aqf.setops import bulk_load
from aqf.workbench import (
    CHURN_SPACE,
    FILL_SPACE,
    LatencyModel,
    ProbeSets,
    TraceRow,
    WorkloadSpec,
    _permute,
    _zipf_ranks,
    extra_bits_per_item,
    fill_to_load,
    gen_workload,
    make_probe_sets,
    measure_fpr,
    parse_csv,
    report_csv,
    run_adaptation_trace,
    run_adversary,
    run_churn,
    zipf_normalizer,
)
from oracles import (
    bit_text,
    gen_workload_every_rank,
    probe_arrays,
    trace_fprs_rebuilt,
    zipf_ranks_numpy,
)


class TestWorkloadSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="gaussian", count=10),
            dict(kind="uniform", count=-1),
            dict(kind="uniform", count=10, universe=0),
            dict(kind="uniform", count=10, universe=(1 << 32) + 1),
            dict(kind="zipfian", count=10, s=1.0),
            dict(kind="churn", count=10, s=0.5),
            dict(kind="adversarial", count=10),
            dict(kind="churn", count=10, interval_pct=0),
            dict(kind="churn", count=10, replace_pct=100),
            dict(kind="zipfian", count=10, s="2"),
            dict(kind="zipfian", count=10, s=None),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InvalidConfigError):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("count", 2.5), ("seed", -1), ("seed", 1.5), ("universe", 10.5), ("interval_pct", 2.5),
        ("replace_pct", 2.5), ("perm_seed", 0.5)])
    def test_a_field_that_is_no_whole_number_in_range_is_refused(self, field, value):
        """Refused by the spec itself, not later by numpy or a slice."""
        with pytest.raises(InvalidConfigError, match=field):
            WorkloadSpec(**{"kind": "zipfian", "count": 10, field: value})

    def test_integral_fields_become_ints(self):
        spec = WorkloadSpec(kind="zipfian", count=np.int64(10), seed=np.uint8(3), universe=True)
        assert (spec.count, spec.seed, spec.universe) == (10, 3, 1)
        assert all(type(v) is int for v in (spec.count, spec.seed, spec.universe))


class TestGenWorkload:
    def test_deterministic_and_seed_sensitive(self):
        spec = WorkloadSpec(kind="zipfian", count=5000, seed=3, universe=10**6)
        a = gen_workload(spec)
        b = gen_workload(spec)
        c = gen_workload(WorkloadSpec(kind="zipfian", count=5000, seed=4, universe=10**6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_stays_in_range(self):
        draws = gen_workload(WorkloadSpec(kind="uniform", count=20000, seed=5,
                                          universe=1000))
        assert draws.max() < 1000 and draws.min() >= 0

    def test_hottest_key_matches_truncated_zeta(self):
        universe = 10**6
        s = 1.5
        spec = WorkloadSpec(kind="zipfian", count=200_000, seed=6, universe=universe)
        draws = gen_workload(spec)
        assert draws.max() < universe
        _, counts = np.unique(draws, return_counts=True)
        top = counts.max() / len(draws)
        p1 = 1.0 / zipf_normalizer(s, universe)
        assert abs(top - p1) < 4 * np.sqrt(p1 * (1 - p1) / len(draws))

    def test_perm_seed_fixes_which_keys_are_hot(self):
        base = WorkloadSpec(kind="zipfian", count=50_000, seed=7, universe=10**5,
                            perm_seed=9)
        hottest = []
        for seed in (7, 8):
            draws = gen_workload(
                WorkloadSpec(kind="zipfian", count=50_000, seed=seed, universe=10**5,
                             perm_seed=9)
            )
            vals, counts = np.unique(draws, return_counts=True)
            hottest.append(int(vals[counts.argmax()]))
        assert hottest[0] == hottest[1]
        relabeled = gen_workload(
            WorkloadSpec(kind="zipfian", count=50_000, seed=7, universe=10**5,
                         perm_seed=10)
        )
        vals, counts = np.unique(relabeled, return_counts=True)
        assert int(vals[counts.argmax()]) != hottest[0]
        # same rank stream, different labels: frequency profile is identical
        base_counts = np.unique(gen_workload(base), return_counts=True)[1]
        assert np.array_equal(np.sort(base_counts), np.sort(counts))

    def test_rank_permutation_is_a_bijection(self):
        for universe in (1000, 4096):
            image = _permute(np.arange(universe, dtype=np.uint64), universe, seed=11)
            assert np.array_equal(np.sort(image), np.arange(universe))

    @pytest.mark.parametrize("kind", ["zipfian", "churn"])
    def test_each_distinct_rank_permuted_once_changes_nothing(self, kind):
        for count, seed in ((30_000, 12), (1, 13), (2000, 14)):
            spec = WorkloadSpec(kind=kind, count=count, seed=seed, universe=10**5,
                                perm_seed=15)
            got = gen_workload(spec)
            assert got.dtype == np.uint64 and got.tolist() == gen_workload_every_rank(spec).tolist()

    @pytest.mark.parametrize("kind", ["uniform", "zipfian", "churn"])
    def test_zero_count_is_empty(self, kind):
        got = gen_workload(WorkloadSpec(kind=kind, count=0, seed=16))
        assert got.dtype == np.uint64 and got.size == 0

    def test_zeta_sum_small_case(self):
        want = sum(k**-1.5 for k in range(1, 6))
        assert zipf_normalizer(1.5, 5) == pytest.approx(want, rel=1e-12)


class RecordingRng:
    """A Generator that records the size of every ``random`` request."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


class TestZipfRanks:
    """_zipf_ranks against numpy's own sampler, draw for draw."""

    @staticmethod
    def same(seed, s, universe, count):
        got = _zipf_ranks(np.random.default_rng(seed), s, universe, count)
        want = zipf_ranks_numpy(np.random.default_rng(seed), s, universe, count)
        assert got.dtype == np.uint64 and np.array_equal(got, want)

    @pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 10.0, 1025.0, float("inf")])
    @pytest.mark.parametrize("universe", [1, 7, 10**5, 1 << 32])
    def test_equals_numpy_across_batches(self, monkeypatch, s, universe):
        monkeypatch.setattr(workbench, "_ZIPF_BATCH", 256)
        for count, seed in ((0, 40), (1, 41), (3000, 42)):
            self.same(seed, s, universe, count)

    def test_equals_numpy_past_a_full_batch(self):
        self.same(43, 1.5, 10**7, 3 * workbench._ZIPF_BATCH + 5)

    def test_pinned_seed_takes_the_scalar_redo(self, monkeypatch):
        calls = []
        attempt = workbench._zipf_attempt

        def counted(*args):
            calls.append(args)
            return attempt(*args)

        monkeypatch.setattr(workbench, "_zipf_attempt", counted)
        self.same(44, 1.01, 1 << 32, 5000)
        assert calls

    # (U01, V) pairs at s=1.5 whose attempts np.power's AVX-512 loop and
    # libm's pow, the one numpy's sampler calls, settle differently
    UMIN = math.pow(float((1 << 63) - 1), -0.5)

    @staticmethod
    def repeating(*pairs):
        doubles = np.array(pairs, dtype=np.float64).ravel()

        class Repeating:
            def random(self, size):
                return np.resize(doubles, size)

        return Repeating()

    def test_libm_settles_a_power_that_straddles_an_integer(self):
        """U = 0.20851441405707477: libm's pow(U, -2) is 23.0, np.power's
        22.999999999999996.  V = 0 always accepts."""
        u01 = 7129068382190758 / 2**53
        assert math.floor(math.pow(u01 * self.UMIN + (1 - u01), -2.0)) == 23
        got = _zipf_ranks(self.repeating((u01, 0.0)), 1.5, 10**5, 300)
        assert got.tolist() == [22] * 300

    def test_libm_settles_a_test_at_its_boundary(self):
        """X = 144, and V sits where libm's T rejects the attempt while
        np.power's T, one ulp lower, would accept it; the attempts after
        each of them make X = 2 and accept."""
        u01, v = 8257899060692351 / 2**53, 5303760020207408 / 2**53
        b = math.pow(2.0, 0.5)
        x = math.floor(math.pow(u01 * self.UMIN + (1 - u01), -2.0))
        t = math.pow(1.0 + 1.0 / x, 0.5)
        assert x == 144 and not v * x * (t - 1.0) / (b - 1.0) <= t / b
        plain = (3310546259040520 / 2**53, 0.0)
        got = _zipf_ranks(self.repeating((u01, v), plain), 1.5, 10**5, 300)
        assert got.tolist() == [1] * 300

    def test_no_random_request_passes_the_batch_cap(self):
        rec = RecordingRng(45)
        got = _zipf_ranks(rec, 1.5, 10**7, 4 * workbench._ZIPF_BATCH)
        want = zipf_ranks_numpy(np.random.default_rng(45), 1.5, 10**7, len(got))
        assert np.array_equal(got, want)
        assert len(rec.sizes) > 4 and max(rec.sizes) <= 2 * workbench._ZIPF_BATCH


class TestFillAndMeasure:
    def test_fill_to_load_hits_the_target(self):
        cfg = FilterConfig(q=10, r=6, seed=20)
        f, keys = fill_to_load(cfg, 0.5, seed=21)
        assert len(keys) == 512
        assert f.arr.fp_count == 512
        assert f.arr.space_report().load_factor == pytest.approx(0.5, abs=0.01)
        assert keys.min() >= FILL_SPACE[0] and keys.max() < FILL_SPACE[1]
        assert f.frozen_index().query_keys(keys).all()

    @pytest.mark.parametrize("q", [8, 12, 16])
    def test_fill_to_load_is_bulk_load_of_the_keys_in_hash_order(self, q):
        """The fill hashes its keys once and places them itself; its keys,
        table bytes and map are bulk_load's of the same draws sorted by
        the stable argsort of their hashes."""
        cfg = FilterConfig(q=q, r=9, seed=q)
        f, keys = fill_to_load(cfg, 0.9, seed=q + 1)
        drawn = np.random.default_rng(q + 1).integers(
            FILL_SPACE[0], FILL_SPACE[1], size=int(0.9 * cfg.nslots), dtype=np.uint64)
        sorted_keys = drawn[np.argsort(split_batch(drawn, cfg), kind="stable")]
        ref = bulk_load(sorted_keys, cfg)
        assert np.array_equal(keys, sorted_keys)
        assert f.arr.to_bytes() == ref.arr.to_bytes()
        assert f.map == ref.map
        assert f.to_bytes() == ref.to_bytes()

    def test_the_returned_keys_are_the_callers_own(self):
        """The filter's map keeps the placed keys; the fill hands the
        caller a copy, so writing to it leaves the map as it was."""
        f, keys = fill_to_load(FilterConfig(q=10, r=6, seed=20), 0.5, seed=21)
        before = f.to_bytes()
        keys[:] = 0
        assert f.to_bytes() == before
        f.check_consistency()

    def test_fill_load_bounds(self):
        cfg = FilterConfig(q=8, r=6, seed=20)
        with pytest.raises(InvalidConfigError):
            fill_to_load(cfg, 0.96)
        with pytest.raises(InvalidConfigError):
            fill_to_load(cfg, -0.1)

    @pytest.mark.parametrize("load", ["x", None])
    def test_a_load_that_is_no_number_is_refused(self, load):
        with pytest.raises(InvalidConfigError, match="load"):
            fill_to_load(FilterConfig(q=8, r=6, seed=20), load)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_a_bad_fill_seed_is_refused(self, seed):
        with pytest.raises(InvalidConfigError, match="seed"):
            fill_to_load(FilterConfig(q=8, r=6, seed=20), 0.5, seed=seed)

    def test_measure_fpr_against_prefix_arithmetic(self):
        cfg = FilterConfig(q=8, r=4, seed=22)
        f, keys = fill_to_load(cfg, 0.2, seed=23)
        rng = np.random.default_rng(24)
        probe_sets = [
            rng.integers(0, 1 << 20, size=3000, dtype=np.uint64) for _ in range(2)
        ]
        stored = {bit_text(int(k), cfg.seed, cfg.q + cfg.r) for k in keys}
        want = sum(
            sum(bit_text(int(p), cfg.seed, cfg.q + cfg.r) in stored for p in ps) / len(ps)
            for ps in probe_sets
        ) / 2
        assert measure_fpr(f.arr, probe_sets) == pytest.approx(want)

    def test_measure_fpr_needs_probes(self):
        f, _ = fill_to_load(FilterConfig(q=8, r=4, seed=22), 0.2)
        with pytest.raises(InvalidConfigError):
            measure_fpr(f.arr, [])
        with pytest.raises(InvalidConfigError):
            measure_fpr(f.arr, [np.arange(5, dtype=np.uint64), np.zeros(0, dtype=np.uint64)])

    @pytest.mark.parametrize("keys", [[-1], [1 << 64], [1.5], ["3"], [[1, 2]],
                                      np.array([-1], dtype=np.int64),
                                      np.array([[1, 2]], dtype=np.uint64)])
    def test_index_and_measure_fpr_refuse_a_bad_key(self, keys):
        f, _ = fill_to_load(FilterConfig(q=8, r=4, seed=22), 0.2)
        with pytest.raises(InvalidConfigError):
            f.frozen_index().query_keys(keys)
        with pytest.raises(InvalidConfigError):
            f.arr.contains_many(keys)
        with pytest.raises(InvalidConfigError):
            measure_fpr(f.arr, [np.arange(5, dtype=np.uint64), keys])

    def test_measure_fpr_counts_repeated_probes(self):
        cfg = FilterConfig(q=8, r=3, seed=28)
        f, _ = fill_to_load(cfg, 0.5, seed=29)
        rng = np.random.default_rng(30)
        pool = rng.integers(0, 1 << 20, size=400, dtype=np.uint64)
        probe_sets = [rng.choice(pool, size=n) for n in (1, 7, 3000, 4999)]
        want = [float(np.mean(f.arr.contains_many(p))) for p in probe_sets]
        assert 0 < sum(want) < len(want)
        assert measure_fpr(f.arr, probe_sets) == sum(want) / len(want)

    def test_extra_bits_accounting(self):
        cfg = FilterConfig(q=10, r=4, seed=25)
        f, _ = fill_to_load(cfg, 0.5, seed=26)
        assert extra_bits_per_item(AdaptiveFilter(cfg)) == 0.0
        rng = np.random.default_rng(27)
        probes = rng.integers(0, 1 << 30, size=30000, dtype=np.uint64)
        for p in probes[f.arr.contains_many(probes)][:25]:
            f.lookup(int(p))
        assert f.arr.ext_slot_count > 0
        want = f.arr.ext_slot_count * (cfg.r + 3) / f.arr.fp_count
        assert extra_bits_per_item(f) == pytest.approx(want)


class TestProbeSets:
    SPECS = {
        "zipfian": WorkloadSpec(kind="zipfian", count=0, seed=60, universe=10**5, perm_seed=61),
        "uniform": WorkloadSpec(kind="uniform", count=0, seed=62, universe=3000),
        "churn": WorkloadSpec(kind="churn", count=0, seed=63, universe=10**5, perm_seed=61),
    }

    @pytest.mark.parametrize("probe_size", [1, 2000])
    @pytest.mark.parametrize("kind", SPECS)
    def test_measure_fpr_is_the_mean_over_every_draw(self, kind, probe_size):
        spec, n = self.SPECS[kind], 6
        table = fill_to_load(FilterConfig(q=8, r=3, seed=64), 0.5, seed=65)[0].arr
        sets = probe_arrays(spec, n, probe_size)
        want = sum(float(np.mean(table.contains_many(p))) for p in sets) / n
        probes = make_probe_sets(spec, n, probe_size)
        assert measure_fpr(table, probes) == want
        assert measure_fpr(table, sets) == want
        if probe_size > 1:
            assert want > 0
        # each set is its distinct draws with their counts, and the union
        # holds a key that several sets drew once
        distinct = [np.unique(p, return_counts=True) for p in sets]
        for (keys, counts), rows, got, size in zip(distinct, probes.rows, probes.counts,
                                                   probes.sizes):
            order = np.argsort(probes.keys[rows])
            assert np.array_equal(probes.keys[rows][order], keys)
            assert np.array_equal(got[order], counts) and size == probe_size
        assert np.array_equal(probes.keys, np.unique(np.concatenate([k for k, _ in distinct])))
        if probe_size > 1:
            assert len(probes.keys) < sum(len(k) for k, _ in distinct)

    @pytest.mark.parametrize("kind", SPECS)
    def test_equal_to_the_sets_of_plain_draws(self, kind):
        """Each set's distinct draws, permuted once as the union of all
        sets, give the keys, rows and counts that the plain draws give."""
        spec = self.SPECS[kind]
        got = make_probe_sets(spec, 7, 3000)
        want = ProbeSets.from_arrays(probe_arrays(spec, 7, 3000))
        assert got.keys.dtype == want.keys.dtype and np.array_equal(got.keys, want.keys)
        assert got.sizes == want.sizes == (3000,) * 7
        for rows, counts, want_rows, want_counts in zip(got.rows, got.counts, want.rows,
                                                        want.counts):
            order = np.argsort(rows)
            assert np.array_equal(rows[order], want_rows)
            assert np.array_equal(counts[order], want_counts)

    def test_empty_sets_are_refused(self):
        spec = self.SPECS["zipfian"]
        for n, size in ((0, 10), (2, 0)):
            with pytest.raises(InvalidConfigError):
                make_probe_sets(spec, n, size)

    @pytest.mark.parametrize("name, value", [("probe_sets", 2.5), ("probe_size", 2.5),
                                             ("probe_sets", "3"), ("probe_size", -1)])
    def test_bad_counts_are_refused(self, name, value):
        args = dict(probe_sets=2, probe_size=10) | {name: value}
        with pytest.raises(InvalidConfigError, match=name):
            make_probe_sets(self.SPECS["zipfian"], **args)

    @staticmethod
    def count_calls(monkeypatch):
        """Count SlotArray.contains_many (with its batch sizes),
        workbench._zipf_ranks and np.unique calls."""
        calls = {"contains_many": [], "_zipf_ranks": 0, "unique": 0}
        contains_many, zipf_ranks, unique = (SlotArray.contains_many, workbench._zipf_ranks,
                                             np.unique)

        def counted_query(table, keys):
            calls["contains_many"].append(len(keys))
            return contains_many(table, keys)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SlotArray, "contains_many", counted_query)
        monkeypatch.setattr(workbench, "_zipf_ranks", counted("_zipf_ranks", zipf_ranks))
        monkeypatch.setattr(np, "unique", counted("unique", unique))
        return calls

    @pytest.mark.parametrize("every_pct", [50, 10])
    def test_one_probe_per_checkpoint_and_one_draw_per_set(self, monkeypatch, every_pct):
        f = fill_to_load(FilterConfig(q=10, r=4, seed=66), 0.5, seed=67)[0]
        spec = replace(self.SPECS["zipfian"], count=3000)
        union = len(make_probe_sets(spec, 4, 500).keys)
        step = 3000 * every_pct // 100
        queries = gen_workload(spec)
        batches = [(len(np.unique(queries[a : a + step])), step) for a in range(0, 3000, step)]
        calls = self.count_calls(monkeypatch)
        rows = run_adaptation_trace(f, spec, measure_every_pct=every_pct, probe_sets=4,
                                    probe_size=500)
        assert len(rows) == 1 + 100 // every_pct
        # a checkpoint probes the union once; between checkpoints
        # lookup_many probes its batch, or the batch's distinct keys,
        # once against the table
        assert calls["contains_many"][::2] == [union] * len(rows)
        assert len(calls["contains_many"]) == 2 * len(rows) - 1
        assert all(n in batch for n, batch in zip(calls["contains_many"][1::2], batches))
        assert calls["_zipf_ranks"] == 4 + 1
        # the trace's ranks, each set's draws and the sets' union
        assert calls["unique"] == 1 + 4 + 1

    def test_churn_checkpoints_probe_the_union_once(self, monkeypatch):
        f, keys = fill_to_load(FilterConfig(q=10, r=4, seed=68), 0.5, seed=69)
        spec = WorkloadSpec(kind="churn", count=2000, seed=70, universe=10**5,
                            interval_pct=25, replace_pct=20)
        union = len(make_probe_sets(spec, 3, 400).keys)
        queries = gen_workload(spec)
        batches = [(len(np.unique(queries[a : a + 500])), 500) for a in range(0, 2000, 500)]
        calls = self.count_calls(monkeypatch)
        rows = run_churn(f, keys, spec, probe_sets=3, probe_size=400)
        # each checkpoint: the live-key check, then the probe sets' union;
        # lookup_many's probe of each step's batch, or of its distinct
        # keys, in between
        got = calls["contains_many"]
        assert len(got) == 3 * len(rows) - 1
        assert got[0::3] == [len(keys)] * len(rows) and got[1::3] == [union] * len(rows)
        assert all(n in batch for n, batch in zip(got[2::3], batches))
        assert calls["_zipf_ranks"] == 3 + 1


class TestAdaptationTrace:
    def _filter(self, seed=30):
        return fill_to_load(FilterConfig(q=10, r=4, seed=seed), 0.5, seed=seed + 1)[0]

    def test_checkpoints_and_monotone_columns(self):
        f = self._filter()
        spec = WorkloadSpec(kind="zipfian", count=2000, seed=31, universe=10**5)
        rows = run_adaptation_trace(f, spec, measure_every_pct=25, probe_sets=3,
                                    probe_size=2000)
        assert [r.ops_done for r in rows] == [0, 500, 1000, 1500, 2000]
        assert rows[0].bits_per_item_extra == 0.0
        for prev, cur in zip(rows, rows[1:]):
            # corrections only shrink the positive set, and the probe
            # arrays are fixed, so the frozen FPR cannot rise
            assert cur.instantaneous_fpr <= prev.instantaneous_fpr
            assert cur.bits_per_item_extra >= prev.bits_per_item_extra
            assert cur.map_accesses >= prev.map_accesses
            assert cur.wall_nanos >= prev.wall_nanos
        assert rows[-1].instantaneous_fpr < rows[0].instantaneous_fpr

    def test_external_trace_uses_bootstrap_probes(self):
        f = self._filter(seed=32)
        rng = np.random.default_rng(33)
        trace = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=1500, dtype=np.uint64)
        rows = run_adaptation_trace(f, trace, measure_every_pct=50, probe_sets=2,
                                    probe_size=500)
        assert [r.ops_done for r in rows] == [0, 750, 1500]

    def test_bad_interval_rejected(self):
        with pytest.raises(InvalidConfigError):
            run_adaptation_trace(self._filter(seed=34),
                                 WorkloadSpec(kind="uniform", count=10),
                                 measure_every_pct=0)

    @pytest.mark.parametrize("name", ["measure_every_pct", "probe_sets", "probe_size"])
    @pytest.mark.parametrize("workload", ["spec", "trace"])
    def test_a_fractional_count_is_refused(self, name, workload):
        f = self._filter(seed=34)
        before = f.to_bytes()
        if workload == "spec":
            workload = WorkloadSpec(kind="zipfian", count=10)
        else:
            workload = np.arange(10, dtype=np.uint64)
        with pytest.raises(InvalidConfigError, match=name):
            run_adaptation_trace(f, workload, **{name: 2.5})
        assert f.to_bytes() == before

    @pytest.mark.parametrize("probe_size", [0, -3])
    @pytest.mark.parametrize("workload", ["spec", "trace"])
    def test_bad_probe_size_rejected(self, probe_size, workload):
        if workload == "spec":
            workload = WorkloadSpec(kind="zipfian", count=10)
        else:
            workload = np.arange(10, dtype=np.uint64)
        with pytest.raises(InvalidConfigError):
            run_adaptation_trace(self._filter(seed=35), workload, probe_size=probe_size)

    @pytest.mark.parametrize("trace", [[1.5, 2.5], [-1, 2], [], np.array([-1, 2]),
                                       np.array([1.5, 2.5]), [1 << 64]])
    def test_bad_external_trace_rejected(self, trace):
        f = self._filter(seed=36)
        before = f.to_bytes()
        with pytest.raises(InvalidConfigError):
            run_adaptation_trace(f, trace, probe_sets=1, probe_size=10)
        assert f.to_bytes() == before

    @pytest.mark.parametrize("workload", [
        WorkloadSpec(kind="zipfian", count=3000, seed=37, universe=10**5, perm_seed=38),
        WorkloadSpec(kind="uniform", count=3000, seed=39, universe=10**5),
        "trace",
    ])
    def test_checkpoints_equal_a_fresh_index_over_every_probe(self, workload):
        if workload == "trace":
            rng = np.random.default_rng(40)
            workload = rng.integers(0, 2000, size=3000, dtype=np.uint64)
        args = dict(measure_every_pct=20, probe_sets=4, probe_size=1500)
        f, twin = self._filter(seed=41), self._filter(seed=41)
        rows = run_adaptation_trace(f, workload, **args)
        want = trace_fprs_rebuilt(twin, workload, **args)
        assert [row.instantaneous_fpr for row in rows] == want
        assert want[-1] < want[0] and f.adaptations > 0
        assert f.to_bytes() == twin.to_bytes()


class TestAdversary:
    def _reports(self):
        out = {}
        for label, adapt in (("adaptive", True), ("frozen", False)):
            # half load leaves room for every warmup correction; at high
            # load the story changes to saturation, which is not this test
            cfg = FilterConfig(q=10, r=4, seed=40)
            f, _ = fill_to_load(cfg, 0.5, seed=41, policy=Policy(auto_adapt=adapt))
            out[label] = (
                run_adversary(f, warmup=5000, total=5000, adv_frac=0.5,
                              seed=42, universe=10**6),
                f,
            )
        return out

    def test_replay_dies_against_adaptation(self):
        reps = self._reports()
        (adaptive, fa), (frozen, _) = reps["adaptive"], reps["frozen"]
        assert fa.adaptation_failures == 0
        assert adaptive.pool_size > 0
        assert frozen.pool_size > 0
        assert adaptive.degenerate_draws == frozen.degenerate_draws == 0
        assert frozen.realized_fp_rate > 0.3
        assert adaptive.realized_fp_rate < 0.1
        assert frozen.realized_fp_rate > 5 * adaptive.realized_fp_rate
        # positives feed the simulated backing store, so the frozen
        # filter also serves fewer queries per second
        assert frozen.effective_qps < adaptive.effective_qps
        assert frozen.positives >= frozen.realized_fps

    def test_no_adversary_means_benign_rates(self):
        cfg = FilterConfig(q=10, r=4, seed=43)
        f, _ = fill_to_load(cfg, 0.8, seed=44)
        rep = run_adversary(f, warmup=1000, total=4000, adv_frac=0.0, seed=45,
                            universe=10**6)
        assert rep.degenerate_draws == 0
        assert rep.realized_fp_rate < 0.1

    def test_adv_frac_is_validated(self):
        f, _ = fill_to_load(FilterConfig(q=8, r=4, seed=46), 0.5)
        with pytest.raises(InvalidConfigError):
            run_adversary(f, warmup=10, total=10, adv_frac=1.5)

    @pytest.mark.parametrize("adv_frac", ["x", None])
    def test_an_adv_frac_that_is_no_number_is_refused_before_any_lookup(self, adv_frac):
        f, _ = fill_to_load(FilterConfig(q=8, r=4, seed=46), 0.5)
        blob, accesses = f.to_bytes(), f.map.accesses
        with pytest.raises(InvalidConfigError, match="adv_frac"):
            run_adversary(f, warmup=10_000, total=10, adv_frac=adv_frac, universe=10**6)
        assert (f.to_bytes(), f.adaptations, f.map.accesses) == (blob, 0, accesses)

    @pytest.mark.parametrize("field, value", [
        ("base_ns", "x"), ("hit_ns", "x"), ("base_ns", -1), ("hit_ns", 2.5)])
    def test_a_latency_that_is_no_whole_number_in_range_is_refused(self, field, value):
        """Refused by the model itself, before an adversary runs a lookup."""
        with pytest.raises(InvalidConfigError, match=field):
            LatencyModel(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        dict(warmup=-1, total=10),
        dict(warmup=10, total=-1),
        dict(warmup=10, total=10, universe=0),
        dict(warmup=2.5, total=10),
        dict(warmup=10, total=2.5),
        dict(warmup=10, total=10, seed=-1),
        dict(warmup=10, total=10, universe=2**70),
        dict(warmup=10, total=10, universe=2.5),
    ], ids=["negative-warmup", "negative-total", "empty-universe", "fractional-warmup",
            "fractional-total", "negative-seed", "universe-past-the-fill-space",
            "fractional-universe"])
    def test_counts_and_universe_are_validated_before_any_lookup(self, kwargs):
        f, _ = fill_to_load(FilterConfig(q=8, r=4, seed=46), 0.5)
        # adapt the filter first, so that state a refused call moved shows
        run_adversary(f, warmup=10_000, total=0, adv_frac=0.0, universe=10**6)
        blob, adapted, accesses = f.to_bytes(), f.adaptations, f.map.accesses
        assert adapted > 0
        with pytest.raises(InvalidConfigError):
            run_adversary(f, adv_frac=0.5, **kwargs)
        assert (f.to_bytes(), f.adaptations, f.map.accesses) == (blob, adapted, accesses)

    def test_latency_model_scales_qps(self):
        cfg = FilterConfig(q=10, r=4, seed=47)
        f, _ = fill_to_load(cfg, 0.8, seed=48)
        cheap_hits = run_adversary(f, warmup=1000, total=2000, adv_frac=0.0, seed=49,
                                   latency=LatencyModel(base_ns=1000, hit_ns=1000),
                                   universe=10**6)
        assert cheap_hits.effective_qps > 0


class TestChurn:
    SPEC = WorkloadSpec(kind="churn", count=2000, seed=50, universe=10**5,
                        interval_pct=20, replace_pct=20)

    def test_zero_replacement_matches_a_plain_trace(self):
        cfg = FilterConfig(q=10, r=4, seed=51)
        spec = WorkloadSpec(kind="churn", count=2000, seed=50, universe=10**5,
                            interval_pct=20, replace_pct=0)
        f1, keys = fill_to_load(cfg, 0.5, seed=52)
        f2, _ = fill_to_load(cfg, 0.5, seed=52)
        churn_rows = run_churn(f1, keys, spec, probe_sets=2, probe_size=1000)
        trace_rows = run_adaptation_trace(f2, spec, measure_every_pct=20,
                                          probe_sets=2, probe_size=1000)
        strip = lambda r: (r.ops_done, r.instantaneous_fpr, r.bits_per_item_extra,
                           r.map_accesses)
        assert [strip(r) for r in churn_rows] == [strip(r) for r in trace_rows]

    def test_replacement_keeps_population_and_membership(self):
        cfg = FilterConfig(q=10, r=4, seed=53)
        f, keys = fill_to_load(cfg, 0.5, seed=54)
        rows = run_churn(f, keys, self.SPEC, probe_sets=2, probe_size=1000)
        assert len(rows) == 6
        assert len(f) == len(keys)
        f.check_consistency()

    def test_bad_probe_size_rejected(self):
        cfg = FilterConfig(q=10, r=4, seed=57)
        f, keys = fill_to_load(cfg, 0.5, seed=58)
        with pytest.raises(InvalidConfigError):
            run_churn(f, keys, self.SPEC, probe_sets=1, probe_size=0)

    @pytest.mark.parametrize("args", [dict(probe_sets=1, probe_size=2.5),
                                      dict(probe_sets=2.5, probe_size=10)])
    def test_fractional_probe_counts_rejected(self, args):
        cfg = FilterConfig(q=10, r=4, seed=57)
        f, keys = fill_to_load(cfg, 0.5, seed=58)
        before = f.to_bytes()
        with pytest.raises(InvalidConfigError):
            run_churn(f, keys, self.SPEC, **args)
        assert f.to_bytes() == before

    def test_lost_key_is_caught(self):
        cfg = FilterConfig(q=10, r=4, seed=55)
        f, keys = fill_to_load(cfg, 0.5, seed=56)
        f.delete(int(keys[17]))
        with pytest.raises(StateCorruptionError):
            run_churn(f, keys, self.SPEC, probe_sets=1, probe_size=100)


class TestCsv:
    def test_roundtrip_with_metadata(self, tmp_path):
        rows = [
            TraceRow(0, 0.012345678901234567, 0.0, 3, 11),
            TraceRow(500, 0.0009, 1.5, 700, 22),
        ]
        path = tmp_path / "trace.csv"
        report_csv(rows, path, meta={"cmd": "trace", "qbits": 10})
        assert parse_csv(path) == rows
        first = path.read_text().splitlines()[0]
        assert first.startswith("#") and "qbits=10" in first

    def test_foreign_header_is_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidConfigError):
            parse_csv(path)

    @pytest.mark.parametrize("row", ["1,x,0.0,3,11", "1,0.5,0.0,3", "1,0.5,0.0,3,11,7", ""])
    def test_a_bad_row_is_rejected_by_its_number(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        report_csv([TraceRow(0, 0.1, 0.0, 3, 11)], path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(InvalidConfigError, match="data row 2"):
            parse_csv(path)


class TestCli:
    def test_build_reports_space_and_saves(self, tmp_path, capsys):
        out = tmp_path / "f.aqfs"
        rc = main(["build", "--qbits", "8", "--rbits", "8", "--load", "0.5",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "total bits" in text and "bits/item" in text
        assert len(AdaptiveFilter.load(out)) == 128

    def test_trace_writes_parseable_csv(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        rc = main(["trace", "--qbits", "10", "--rbits", "4", "--load", "0.5",
                   "--count", "400", "--dist", "zipf:1.5:100000",
                   "--measure-every", "50", "--probe-sets", "2",
                   "--probe-size", "500", "--csv", str(csv_path)])
        assert rc == 0
        rows = parse_csv(csv_path)
        assert [r.ops_done for r in rows] == [0, 200, 400]

    def test_adversary_prints_the_report(self, capsys):
        rc = main(["adversary", "--qbits", "9", "--rbits", "4", "--load", "0.6",
                   "--count", "500", "--warmup", "500", "--adv-frac", "0.3"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "realized_fp_rate" in text and "pool_size" in text

    def test_churn_runs_small(self, tmp_path):
        csv_path = tmp_path / "c.csv"
        rc = main(["churn", "--qbits", "9", "--rbits", "4", "--load", "0.4",
                   "--count", "300", "--dist", "zipf:1.5:50000",
                   "--interval-pct", "50", "--replace-pct", "10",
                   "--probe-sets", "1", "--probe-size", "200",
                   "--csv", str(csv_path)])
        assert rc == 0
        assert len(parse_csv(csv_path)) == 3

    def test_yesno_reports_bounds(self, capsys):
        rc = main(["yesno", "--yes", "50", "--no", "500", "--epsilon", "0.03125"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "budget bits" in text and "lower bound" in text

    def test_yesno_large_epsilon_has_no_bound(self, capsys):
        rc = main(["yesno", "--yes", "20", "--no", "50", "--epsilon", "0.6"])
        assert rc == 0
        assert "n/a" in capsys.readouterr().out

    def test_merge_command_combines_snapshots(self, tmp_path, capsys):
        cfg = FilterConfig(q=8, r=8, seed=70)
        a = AdaptiveFilter(cfg)
        b = AdaptiveFilter(cfg)
        for k in range(40):
            (a if k % 2 else b).insert(k + 1000)
        pa, pb, po = (tmp_path / n for n in ("a.aqfs", "b.aqfs", "m.aqfs"))
        a.save(pa)
        b.save(pb)
        assert main(["merge", str(pa), str(pb), str(po)]) == 0
        merged = AdaptiveFilter.load(po)
        assert len(merged) == 40

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as info:
            main(["trace", "--qbits", "8"])  # missing --rbits
        assert info.value.code == 1

    def test_runtime_errors_exit_one(self, tmp_path):
        empty = tmp_path / "empty.u64"
        empty.write_bytes(b"")
        rc = main(["build", "--qbits", "8", "--rbits", "8",
                   "--keys-file", str(empty)])
        assert rc == 1

    @pytest.mark.parametrize("size", [1, 7, 9, 15])
    def test_a_keys_file_of_a_partial_key_exits_one(self, tmp_path, capsys, size):
        """A keys file holds whole 8-byte keys: any other size is refused,
        not read as the keys that fit."""
        path, snap = tmp_path / "keys.u64", tmp_path / "f.aqf"
        path.write_bytes(bytes(range(size)))
        assert main(["build", "--qbits", "8", "--rbits", "4", "--keys-file", str(path),
                     "--out", str(snap)]) == 1
        assert f"holds {size} bytes" in capsys.readouterr().err
        assert not snap.exists()

    def test_build_from_a_keys_file_places_them_in_hash_order(self, tmp_path, capsys):
        """Keys from a file, repeats included, go in as bulk_load of the
        same keys sorted by the stable argsort of their hashes."""
        keys = np.random.default_rng(76).integers(0, 1 << 64, size=700, dtype=np.uint64)
        keys[::7] = keys[1]
        path, snap = tmp_path / "keys.u64", tmp_path / "f.aqf"
        keys.astype("<u8").tofile(path)
        assert main(["build", "--qbits", "10", "--rbits", "7", "--seed", "5",
                     "--keys-file", str(path), "--out", str(snap)]) == 0
        cfg = FilterConfig(q=10, r=7, seed=5)
        ref = bulk_load(keys[np.argsort(split_batch(keys, cfg), kind="stable")], cfg)
        assert snap.read_bytes() == ref.to_bytes()
        assert "fingerprints 700" in capsys.readouterr().out

    def test_construction_failure_exits_two(self, tmp_path):
        from oracles import find_colliders

        rng = np.random.default_rng(75)
        yes = [int(k) for k in rng.choice(1 << 62, size=20, replace=False)]
        no = [find_colliders(7, 1, 7, x, 10, 1)[0] for x in yes]
        yes_path, no_path = tmp_path / "yes.u64", tmp_path / "no.u64"
        np.array(yes, dtype="<u8").tofile(yes_path)
        np.array(no, dtype="<u8").tofile(no_path)
        rc = main(["yesno", "--epsilon", "0.5", "--slack", "1.0", "--seed", "7",
                   "--yes-file", str(yes_path), "--no-file", str(no_path)])
        assert rc == 2
