"""Yes/no-list filtering: the calculators, the static build, dynamic updates."""

import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqf import yesno
from aqf.core import FrozenIndex, SlotArray, pack_minirun_id
from aqf.errors import (
    ConstructionFailedError,
    FilterFullError,
    FormatError,
    InvalidConfigError,
)
from aqf.filter import AdaptiveFilter, Policy
from aqf.hashing import (
    FilterConfig,
    HashStream,
    _key_array,
    hash_word_batch,
    split,
    split_batch,
)
from aqf.yesno import (
    NO,
    YES,
    YesNoFilter,
    YesNoParams,
    _no_hits,
    _place_yes,
    adaptivity_budget,
    build_static,
    expected_adaptivity_bits,
    lower_bound_bits,
)
from oracles import build_static_sequential, find_colliders, key_rank


def adversarial_lists(seed, q, r, depth, n):
    """n random YES keys, and per YES key one NO key that agrees with
    its fingerprint for depth extension chunks under (q, r, seed)."""
    rng = np.random.default_rng(75)
    yes = [int(k) for k in rng.choice(1 << 62, size=n, replace=False)]
    no = [find_colliders(q, r, seed, x, depth, 1)[0] for x in yes]
    return yes, no


class TestParams:
    def test_mu(self):
        assert YesNoParams(1000, 2000, 0.5).mu == 1.0
        assert YesNoParams(1000, 0, 0.01).mu == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=5, epsilon=0.1),
            dict(n=5, m=-1, epsilon=0.1),
            dict(n=5, m=5, epsilon=0.0),
            dict(n=5, m=5, epsilon=1.0),
            dict(n=5, m=5, epsilon=0.1, u=0),
            dict(n=2.5, m=5, epsilon=0.1),
            dict(n=5, m=0.5, epsilon=0.1),
            dict(n=5, m=5, epsilon=0.1, u=2.5),
            dict(n=5, m=5, epsilon=None),
            dict(n=5, m=5, epsilon="x"),
        ],
    )
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(InvalidConfigError):
            YesNoParams(**kwargs)

    @pytest.mark.parametrize("epsilon", ["x", None])
    def test_a_build_refuses_an_epsilon_that_is_no_number(self, epsilon):
        with pytest.raises(InvalidConfigError, match="epsilon"):
            build_static([2, 4], [1, 3], epsilon=epsilon)


class TestBudget:
    def test_frozen_values(self):
        # ceil(slack * n * (2 + log2 e + log2(1+mu))), worked by hand
        assert adaptivity_budget(YesNoParams(1000, 0, 0.01), slack=1.0) == 3443
        assert adaptivity_budget(YesNoParams(1000, 2000, 0.5), slack=1.0) == 4443
        assert adaptivity_budget(YesNoParams(1000, 0, 0.01), slack=1.5) == 5165

    def test_slack_below_one_is_rejected(self):
        with pytest.raises(InvalidConfigError):
            adaptivity_budget(YesNoParams(10, 10, 0.1), slack=0.99)

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf, "x"])
    def test_slack_that_is_not_a_finite_number_is_rejected(self, slack):
        # NaN compares false against every bound, an infinite budget has
        # no ceiling, and a string is no number; each build entry point
        # refuses them alike
        with pytest.raises(InvalidConfigError):
            adaptivity_budget(YesNoParams(10, 10, 0.1), slack=slack)
        with pytest.raises(InvalidConfigError):
            YesNoFilter.create(YesNoParams(10, 10, 0.1), slack=slack)
        with pytest.raises(InvalidConfigError):
            build_static([2, 4], [1, 3], epsilon=0.1, slack=slack)

    def test_budget_dominates_expectation_by_a_bit_per_key(self):
        for n in (1, 10, 1000):
            for m in (0, 10, 10**6):
                for eps in (2**-9, 0.25):
                    p = YesNoParams(n, m, eps)
                    assert adaptivity_budget(p, 1.0) >= expected_adaptivity_bits(p) + n


class TestExpectedBits:
    def test_frozen_values(self):
        no_misses = YesNoParams(1000, 0, 0.5)  # mu = 0
        one_each = YesNoParams(1000, 2000, 0.5)  # mu = 1
        assert expected_adaptivity_bits(no_misses) == pytest.approx(
            2442.6950408889634, rel=1e-12
        )
        assert expected_adaptivity_bits(one_each) == pytest.approx(
            3442.6950408889634, rel=1e-12
        )


class TestLowerBound:
    def test_frozen_values(self):
        assert lower_bound_bits(YesNoParams(1000, 1000, 2**-9)) == pytest.approx(
            9002.81776375174, rel=1e-12
        )
        assert lower_bound_bits(YesNoParams(1000, 10**6, 2**-9)) == pytest.approx(
            11408.479325551051, rel=1e-12
        )
        assert lower_bound_bits(YesNoParams(100, 100, 0.5)) == pytest.approx(
            172.13475204444817, rel=1e-12
        )

    def test_against_high_precision_arithmetic(self):
        getcontext().prec = 60
        ln2 = Decimal(2).ln()
        for n, m, eps in [
            (1000, 1000, Decimal(1) / 512),
            (1000, 10**6, Decimal(1) / 512),
            (100, 100, Decimal("0.5")),
            (7, 2, Decimal("0.25")),
        ]:
            want = Decimal(n) * (max(1 / eps, Decimal(m) / n).ln() / ln2) + (
                min(eps * m, Decimal(n)) / ln2
            )
            got = lower_bound_bits(YesNoParams(n, m, float(eps)))
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_large_epsilon_is_out_of_scope(self):
        with pytest.raises(InvalidConfigError):
            lower_bound_bits(YesNoParams(10, 10, 0.6))
        lower_bound_bits(YesNoParams(10, 10, 0.5))

    def test_small_universe_warns(self):
        with pytest.warns(UserWarning):
            lower_bound_bits(YesNoParams(1000, 1000, 2**-9, u=10**6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower_bound_bits(YesNoParams(1000, 1000, 2**-9, u=10**11))


class TestCreate:
    def test_remainder_width_tracks_epsilon(self):
        assert YesNoFilter.create(YesNoParams(100, 0, 2**-9)).inner.cfg.r == 9
        assert YesNoFilter.create(YesNoParams(100, 0, 0.01)).inner.cfg.r == 7
        assert YesNoFilter.create(YesNoParams(100, 0, 0.6)).inner.cfg.r == 1

    def test_table_is_smallest_that_fits(self):
        p = YesNoParams(5000, 20000, 2**-6)
        f = YesNoFilter.create(p, slack=1.5, seed=3)
        need = p.n + math.ceil(f.budget_bits / f.inner.cfg.r)
        q = f.inner.cfg.q
        assert 20 * need <= 19 * (1 << q)
        assert 20 * need > 19 * (1 << (q - 1))

    def test_dynamic_reserves_room_for_the_no_list(self):
        p = YesNoParams(5000, 20000, 2**-6)
        static_q = YesNoFilter.create(p).inner.cfg.q
        dynamic_q = YesNoFilter.create(p, dynamic=True).inner.cfg.q
        assert dynamic_q > static_q

    def test_oversized_problem_is_rejected(self):
        with pytest.raises(InvalidConfigError):
            YesNoFilter.create(YesNoParams(1 << 58, 0, 2**-9))

    def test_wrapper_requires_the_tag_bit(self):
        inner = AdaptiveFilter(FilterConfig(q=8, r=4, seed=0))
        with pytest.raises(InvalidConfigError):
            YesNoFilter(inner, YesNoParams(10, 10, 0.1))


class TestStaticBuild:
    def _lists(self, n, m, rng):
        pool = rng.choice(1 << 62, size=n + m, replace=False)
        return [int(k) for k in pool[:n]], [int(k) for k in pool[n:]]

    def test_exact_on_both_lists(self):
        rng = np.random.default_rng(71)
        yes, no = self._lists(300, 3000, rng)
        f = build_static(yes, no, epsilon=2**-4, seed=5)
        assert f.inner.cfg.r == 4
        assert all(f.yn_query(y) == YES for y in yes)
        assert all(f.yn_query(z) == NO for z in no)
        # nothing from the NO list was stored
        assert len(f.inner) == 300
        assert 0 < f.consumed_adaptivity_bits < f.budget_bits

    def test_off_list_keys_stay_under_epsilon(self):
        rng = np.random.default_rng(72)
        yes, no = self._lists(300, 3000, rng)
        f = build_static(yes, no, epsilon=2**-4, seed=5)
        fresh = rng.integers(1 << 62, 1 << 63, size=20000, dtype=np.uint64)
        rate = f.inner.frozen_index().query_keys(fresh).mean()
        assert 0 < rate < 2**-4

    def test_construction_is_deterministic(self):
        rng = np.random.default_rng(73)
        yes, no = self._lists(100, 500, rng)
        a = build_static(yes, no, epsilon=2**-5, seed=9)
        b = build_static(yes, no, epsilon=2**-5, seed=9)
        assert a.inner.to_bytes() == b.inner.to_bytes()

    def test_queries_touch_no_state(self):
        rng = np.random.default_rng(74)
        yes, no = self._lists(50, 200, rng)
        f = build_static(yes, no, epsilon=2**-4, seed=1)
        blob = f.inner.to_bytes()
        accesses = f.inner.map_accesses
        for k in yes + no + [int(x) for x in rng.integers(0, 1 << 62, size=100)]:
            f.yn_query(k)
        assert f.inner.to_bytes() == blob
        assert f.inner.map_accesses == accesses

    def test_overlapping_lists_are_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_static([1, 2, 3], [3, 4], epsilon=0.1)

    def test_empty_yes_list_is_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_static([], [1, 2], epsilon=0.1)

    def test_uint64_arrays_build_like_int_lists(self):
        rng = np.random.default_rng(78)
        pool = rng.choice(1 << 62, size=400, replace=False).astype(np.uint64)
        pool[0] = 2**64 - 1
        a = build_static(pool[:50], pool[50:], epsilon=2**-4, seed=2)
        b = build_static(pool[:50].tolist(), pool[50:].tolist(), epsilon=2**-4, seed=2)
        assert a.inner.to_bytes() == b.inner.to_bytes()
        f = build_static(np.array([5, 6], dtype=np.uint64), np.array([7], dtype=np.uint64),
                         epsilon=0.1)
        assert (f.yn_query(5), f.yn_query(6), f.yn_query(7)) == (YES, YES, NO)

    @pytest.mark.parametrize("yes, no", [
        (["5"], [7]),
        ([5], [7.0]),
        ([2.5], []),
        (np.array([5.0, 6.0]), []),
        ([-1], [7]),
        ([5], [2**64]),
        (np.array([5, -6]), []),
    ])
    def test_keys_that_are_not_uint64_are_refused(self, yes, no):
        with pytest.raises(InvalidConfigError):
            build_static(yes, no, epsilon=0.1)


def _outcome(build, yes, no, epsilon, slack, seed):
    """What a build leaves behind: the filter's bytes and counters, or
    the error it raised with the bits it reports."""
    try:
        f = build(yes, no, epsilon, slack=slack, seed=seed)
    except ConstructionFailedError as exc:
        return type(exc), exc.consumed_bits, exc.budget_bits
    except InvalidConfigError as exc:
        return type(exc), str(exc)
    inner = f.inner
    return (inner.to_bytes(), inner.map.accesses, inner.adaptivity_bits, inner.adaptations,
            inner.adaptation_failures, f.budget_bits, f.params)


class TestBulkBuild:
    """build_static places the YES list in one pass; it must leave what
    one insert per YES key followed by the NO pass leaves."""

    @settings(max_examples=120, deadline=None)
    @given(
        yes=st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1)),
                     min_size=1, max_size=60),
        no=st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1)), max_size=300),
        repeat=st.integers(0, 3),
        shared=st.integers(0, 2),
        log_eps=st.integers(1, 6),
        slack=st.sampled_from([1.0, 1.5, 3.0]),
        seed=st.integers(0, 1 << 16),
        as_array=st.booleans(),
    )
    def test_matches_sequential_inserts(self, yes, no, repeat, shared, log_eps, slack,
                                        seed, as_array):
        # even YES keys, odd NO keys: disjoint unless keys are shared on
        # purpose; small draws repeat keys on either list
        yes = [2 * k for k in yes]
        no = ([2 * k + 1 for k in no] + yes[:shared]) * (1 + repeat)
        want = _outcome(build_static_sequential, yes, no, 2.0**-log_eps, slack, seed)
        if as_array:
            yes, no = np.array(yes, dtype=np.uint64), np.array(no, dtype=np.uint64)
        assert _outcome(build_static, yes, no, 2.0**-log_eps, slack, seed) == want

    @pytest.mark.parametrize("slack", [1.0, 1.5, 3.0])
    def test_adversarial_lists_fail_or_succeed_alike(self, slack):
        yes, no = adversarial_lists(7, 7, 1, depth=10, n=20)
        want = _outcome(build_static_sequential, yes, no, 0.5, slack, 7)
        assert _outcome(build_static, yes, no, 0.5, slack, 7) == want
        assert _outcome(build_static, yes + yes[:3], no + no[:5], 0.5, slack, 7) == \
            _outcome(build_static_sequential, yes + yes[:3], no + no[:5], 0.5, slack, 7)

    def test_yes_list_past_the_load_cap_fails_construction(self, monkeypatch):
        # create() always leaves room for the YES list; shrink the table
        # to reach the placement's load check
        create = YesNoFilter.create.__func__

        def cramped(cls, params, slack=1.5, seed=0, dynamic=False, policy=None):
            f = create(cls, params, slack, seed, dynamic, policy)
            f.inner = AdaptiveFilter(FilterConfig(q=3, r=f.inner.cfg.r, seed=seed),
                                     value_bits=1)
            return f

        monkeypatch.setattr(YesNoFilter, "create", classmethod(cramped))
        yes = list(range(0, 20, 2))
        want = _outcome(build_static_sequential, yes, [1, 3], 0.25, 1.5, 4)
        assert want[0] is ConstructionFailedError
        assert _outcome(build_static, yes, [1, 3], 0.25, 1.5, 4) == want


def refuse_lookups(monkeypatch):
    """Make AdaptiveFilter.lookup raise, so that a build that still
    calls it, one that fell back to the scalar pass, fails."""
    def lookup(self, key):
        raise AssertionError(f"scalar lookup of {key}")

    monkeypatch.setattr(AdaptiveFilter, "lookup", lookup)


def count_lookups(monkeypatch) -> list:
    """Record every key AdaptiveFilter.lookup is called with."""
    calls = []
    lookup = AdaptiveFilter.lookup
    monkeypatch.setattr(AdaptiveFilter, "lookup",
                        lambda self, key: calls.append(key) or lookup(self, key))
    return calls


class TestClosedFormNoPass:
    """build_static settles the NO keys that reach a YES fingerprint in
    closed form; each case pins one rule of it against the scalar pass.
    At epsilon 1/2 a chunk is one bit, so keys that agree with a YES key
    for d chunks are cheap to mine."""

    SEED = 3

    def _lists(self, owned, pairs):
        """YES keys owners[i] for i in owned, and one NO key per (i, d)
        that shares owners[i]'s fingerprint and its first d chunks and
        leaves its stream at chunk d; equal pairs give equal keys."""
        owners = [5000, 7000]
        yes = [owners[i] for i in owned]
        q = YesNoFilter.create(YesNoParams(len(yes), len(pairs), 0.5), seed=self.SEED).inner.cfg.q
        no = [find_colliders(q, 1, self.SEED, owners[i], d, 1, salt=d)[0] for i, d in pairs]
        return yes, no

    @pytest.mark.parametrize("owned, pairs, adaptations, chunks", [
        # a later key with a smaller d misses the longer fingerprint
        ([0], [(0, 3), (0, 1)], 1, 4),
        # a later key with a larger d still matches it and adapts again
        ([0], [(0, 1), (0, 3)], 2, 4),
        # repeats of a key settle with its first copy
        ([0], [(0, 2), (0, 2), (0, 0), (0, 2)], 1, 3),
        # each YES copy is its own fingerprint, adapted in its own turn
        ([0, 0], [(0, 1), (0, 2), (0, 0)], 4, 6),
        # keys of two YES fingerprints keep to their own
        ([0, 1], [(1, 2), (0, 1), (1, 0), (0, 4)], 3, 8),
    ], ids=["smaller-later", "larger-later", "repeated-no", "yes-copies", "two-owners"])
    def test_matches_the_scalar_pass(self, monkeypatch, owned, pairs, adaptations, chunks):
        yes, no = self._lists(owned, pairs)
        want = _outcome(build_static_sequential, yes, no, 0.5, 1.5, self.SEED)
        refuse_lookups(monkeypatch)
        got = _outcome(build_static, yes, no, 0.5, 1.5, self.SEED)
        assert got == want
        _, accesses, bits, adapted, *_ = got
        assert (adapted, bits, accesses) == (adaptations, chunks, len(yes) + adaptations)

    def test_a_succeeding_build_makes_no_scalar_lookup(self, monkeypatch):
        pool = np.random.default_rng(79).choice(1 << 62, size=10300, replace=False)
        yes, no = pool[:300].tolist(), pool[300:].tolist()
        want = _outcome(build_static_sequential, yes, no, 2**-4, 1.5, 5)
        assert want[3] > 100  # adaptations
        refuse_lookups(monkeypatch)
        assert _outcome(build_static, yes, no, 2**-4, 1.5, 5) == want

    def test_adversarial_lists_fall_back_and_fail_alike(self, monkeypatch):
        yes, no = adversarial_lists(7, 7, 1, depth=10, n=20)
        with pytest.raises(ConstructionFailedError) as want:
            build_static_sequential(yes, no, 0.5, slack=1.0, seed=7)
        calls = count_lookups(monkeypatch)
        with pytest.raises(ConstructionFailedError) as got:
            build_static(yes, no, 0.5, slack=1.0, seed=7)
        assert calls
        assert (str(got.value), got.value.consumed_bits, got.value.budget_bits) == (
            str(want.value), want.value.consumed_bits, want.value.budget_bits)

    def test_agreement_to_max_extensions_falls_back(self, monkeypatch):
        create = YesNoFilter.create.__func__

        def capped(cls, params, slack=1.5, seed=0, dynamic=False, policy=None):
            return create(cls, params, slack, seed, dynamic, Policy(max_extensions=3))

        monkeypatch.setattr(YesNoFilter, "create", classmethod(capped))
        yes, no = self._lists([0], [(0, 1), (0, 3)])
        want = _outcome(build_static_sequential, yes, no, 0.5, 1.5, self.SEED)
        assert want[0] is ConstructionFailedError
        calls = count_lookups(monkeypatch)
        assert _outcome(build_static, yes, no, 0.5, 1.5, self.SEED) == want
        assert calls == no


class TestOneLayout:
    """build_static finds the NO keys that reach a YES fingerprint with
    a remainder mask per quotient and a binary search of the YES keys'
    sorted pairs, rather than with an index or a table holding them."""

    def test_a_closed_form_build_lays_out_one_table_and_decodes_none(self, monkeypatch):
        calls = {"_lay_out": 0, "_columns": 0, "__init__": 0}
        for owner, name in ((SlotArray, "_lay_out"), (SlotArray, "_columns"),
                            (FrozenIndex, "__init__")):
            def counted(self, *args, _name=name, _fn=getattr(owner, name)):
                calls[_name] += 1
                return _fn(self, *args)

            monkeypatch.setattr(owner, name, counted)
        pool = np.random.default_rng(79).choice(1 << 62, size=10300, replace=False)
        f = build_static(pool[:300], pool[300:], 2**-4, seed=5)
        assert f.inner.adaptations > 100
        assert calls == {"_lay_out": 1, "_columns": 0, "__init__": 0}

    @settings(max_examples=120, deadline=None)
    @given(q=st.integers(1, 8), r=st.integers(1, 5), seed=st.integers(0, 1 << 16),
           keys=st.lists(st.one_of(st.integers(0, 30), st.integers(0, 2**64 - 1)),
                         min_size=1, max_size=240),
           as_list=st.booleans())
    def test_the_no_pass_probe_hits_like_the_laid_out_tables_index(self, q, r, seed, keys,
                                                                     as_list):
        # tables under 64 slots, and remainders no wider than the mask's
        # 5-bit index, whose bit then takes quotient bits too
        cfg = FilterConfig(q=q, r=r, seed=seed)
        # small draws repeat keys; the table must stay under the load cap
        yes = np.array(keys[: cfg.nslots * 19 // 20], dtype=np.uint64)
        if not len(yes):
            return
        packed = split_batch(yes, cfg)
        order = np.argsort(packed, kind="stable")
        # _place_yes takes the keys' hash words, whose top bits the map checks
        words = hash_word_batch(yes, cfg.seed)
        table = _place_yes(AdaptiveFilter(cfg, value_bits=1), words[order], packed[order],
                           np.zeros(len(yes), dtype=np.int64)).arr
        probes = np.concatenate([
            yes, np.random.default_rng(seed).integers(0, 1 << 64, size=300, dtype=np.uint64)])
        hits = _no_hits(probes.tolist() if as_list else probes, packed[order], cfg)
        assert hits[: len(yes)].tolist() == yes.tolist()  # every YES key hits
        assert hits.tolist() == probes[table.frozen_index().query_keys(probes)].tolist()


class TestChunkedNoList:
    """A NO list is read, checked and probed a chunk at a time; a list
    of six chunks builds, and fails, as the same keys in one array."""

    CHUNK = 64
    EPSILON = 2**-2

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(yesno, "_NO_CHUNK", self.CHUNK)

    def _lists(self):
        pool = np.random.default_rng(83).choice(1 << 62, size=40 + 5 * self.CHUNK + 7,
                                                replace=False)
        return pool[:40].tolist(), pool[40:].tolist()

    def test_a_list_of_several_chunks_builds_like_an_array_and_a_generator(self):
        yes, no = self._lists()
        want = _outcome(build_static_sequential, yes, no, self.EPSILON, 1.5, 6)
        assert want[3] > 5  # adaptations
        for form in (no, np.array(no, dtype=np.uint64), (k for k in no)):
            assert _outcome(build_static, yes, form, self.EPSILON, 1.5, 6) == want

    @pytest.mark.parametrize("bad", [-1, 7.0, 2**64])
    @pytest.mark.parametrize("at", [0, -1])
    def test_a_bad_key_in_the_first_or_last_chunk_is_refused(self, bad, at):
        yes, no = self._lists()
        no[at] = bad
        with pytest.raises(InvalidConfigError) as want:
            _key_array(no)
        # ahead of a key on both lists, in another chunk
        no[-1 - at] = yes[0]
        with pytest.raises(InvalidConfigError) as got:
            build_static(yes, no, self.EPSILON, seed=6)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("yes", [[], None])
    @pytest.mark.parametrize("epsilon", [0.0, 1.5, "x", 2**-2])
    def test_a_bad_key_is_reported_ahead_of_every_other_error(self, yes, epsilon):
        yes = self._lists()[0] if yes is None else yes
        no = self._lists()[1] + yes[:1] + [-1]
        with pytest.raises(InvalidConfigError, match="keys must be ints"):
            build_static(yes, no, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, "x", 2**-2])
    def test_a_key_on_both_lists_is_reported_ahead_of_a_bad_epsilon(self, epsilon):
        yes, no = self._lists()
        no[-1] = yes[-1]
        with pytest.raises(InvalidConfigError, match="both lists"):
            build_static(yes, no, epsilon)

    @pytest.mark.parametrize("no", [np.array(5, dtype=np.uint64), np.array(5.0),
                                    np.zeros((2, 3), dtype=np.uint64)])
    def test_an_array_that_is_not_flat_is_refused(self, no):
        with pytest.raises(InvalidConfigError):
            build_static([1, 2], no, self.EPSILON)


class TestConstructionFailure:
    def test_deep_colliders_blow_the_reserve(self):
        # epsilon 1/2 gives one-bit chunks, so ten-deep agreement is
        # cheap to mine and each NO key burns eleven slots
        seed = 7
        p = YesNoParams(20, 20, 0.5)
        probe = YesNoFilter.create(p, slack=1.0, seed=seed)
        assert (probe.inner.cfg.q, probe.inner.cfg.r) == (7, 1)
        yes, no = adversarial_lists(seed, 7, 1, depth=10, n=20)
        with pytest.raises(ConstructionFailedError) as info:
            build_static(yes, no, epsilon=0.5, slack=1.0, seed=seed)
        assert info.value.budget_bits == adaptivity_budget(p, 1.0)
        assert info.value.consumed_bits > info.value.budget_bits

    def test_more_slack_absorbs_the_same_lists(self):
        seed = 7
        yes, no = adversarial_lists(seed, 7, 1, depth=10, n=20)
        f = build_static(yes, no, epsilon=0.5, slack=3.0, seed=seed)
        assert all(f.yn_query(y) == YES for y in yes)
        assert all(f.yn_query(z) == NO for z in no)


class TestDynamic:
    def _fresh(self, n=200, m=200, epsilon=2**-6, seed=11):
        p = YesNoParams(n, m, epsilon)
        return YesNoFilter.create(p, seed=seed, dynamic=True)

    def test_mixed_inserts_answer_correctly(self):
        f = self._fresh()
        rng = np.random.default_rng(76)
        pool = rng.choice(1 << 62, size=400, replace=False)
        yes, no = [int(k) for k in pool[:200]], [int(k) for k in pool[200:]]
        for y, z in zip(yes, no):
            f.yn_insert_yes(y)
            f.yn_insert_no(z)
        assert all(f.yn_query(y) == YES for y in yes)
        assert all(f.yn_query(z) == NO for z in no)

    def test_contradicting_a_stored_key_is_refused(self):
        f = self._fresh()
        f.yn_insert_yes(42)
        with pytest.raises(InvalidConfigError):
            f.yn_insert_no(42)
        f.yn_insert_yes(42)  # same answer again is merely redundant
        assert f.yn_query(42) == YES

    def test_cross_class_collision_extends_the_stored_side(self):
        f = self._fresh(seed=12)
        cfg = f.inner.cfg
        x = 5000
        f.yn_insert_yes(x)
        z = find_colliders(cfg.q, cfg.r, cfg.seed, x, 0, 1)[0]
        f.yn_insert_no(z)
        mid = pack_minirun_id(*split(HashStream(x, cfg.seed), cfg), cfg.r)
        rank = key_rank(f.inner, mid, x)
        assert len(f.inner.arr.get_ext(mid, rank)) >= 1
        assert f.yn_query(x) == YES
        assert f.yn_query(z) == NO

    def test_same_class_collision_is_left_alone(self):
        f = self._fresh(seed=13)
        cfg = f.inner.cfg
        x = 6000
        f.yn_insert_yes(x)
        y = find_colliders(cfg.q, cfg.r, cfg.seed, x, 0, 1)[0]
        f.yn_insert_yes(y)
        assert f.inner.arr.ext_slot_count == 0
        assert f.yn_query(x) == YES
        assert f.yn_query(y) == YES

    def test_full_table_refuses_an_insert_without_a_trace(self):
        # the NO key fits in the last free slot but its YES collider
        # needs one more for its extension
        inner = AdaptiveFilter(FilterConfig(q=6, r=3, seed=4), value_bits=1)
        f = YesNoFilter(inner, YesNoParams(60, 1, 2**-3))
        key = 0
        while inner.arr.used_count < 59:
            key += 1
            f.yn_insert_yes(key)
        stored = {split(HashStream(y, 4), inner.cfg) for y in range(1, key + 1)}
        k = next(k for k in range(10**6, 10**7) if split(HashStream(k, 4), inner.cfg) in stored)
        before = inner.to_bytes()
        with pytest.raises(FilterFullError):
            f.yn_insert_no(k)
        assert inner.to_bytes() == before
        assert (len(inner), inner.adaptivity_bits, inner.adaptations) == (59, 0, 0)
        inner.check_consistency()

    def test_scalar_keys_are_checked(self):
        f = self._fresh()
        f.yn_insert_yes(np.uint64(5))
        f.yn_insert_no(np.int64(6))
        assert (f.yn_query(np.uint64(5)), f.yn_query(6)) == (YES, NO)
        before = f.inner.to_bytes()
        for bad in (2**64 + 5, -1, "5", 5.0):
            with pytest.raises(InvalidConfigError):
                f.yn_query(bad)
            with pytest.raises(InvalidConfigError):
                f.yn_insert_yes(bad)
            with pytest.raises(InvalidConfigError):
                f.yn_insert_no(bad)
            with pytest.raises(InvalidConfigError):
                f.yn_delete(bad)
        assert f.inner.to_bytes() == before

    def test_delete_frees_the_slot(self):
        f = self._fresh()
        f.yn_insert_no(909)
        f.yn_delete(909)
        assert len(f.inner) == 0
        assert f.yn_query(909) == NO


class TestSnapshot:
    def test_static_build_roundtrips(self, tmp_path):
        rng = np.random.default_rng(77)
        pool = rng.choice(1 << 62, size=600, replace=False)
        yes, no = [int(k) for k in pool[:100]], [int(k) for k in pool[100:]]
        f = build_static(yes, no, epsilon=2**-5, seed=21)
        path = tmp_path / "lists.aqfs"
        f.save(path)
        g = YesNoFilter.load(path, f.params, budget_bits=f.budget_bits)
        assert g.budget_bits == f.budget_bits
        assert g.consumed_adaptivity_bits == f.consumed_adaptivity_bits > 0
        assert g.space_bits() == f.space_bits()
        assert all(g.yn_query(y) == YES for y in yes)
        assert all(g.yn_query(z) == NO for z in no)

    def test_untagged_snapshot_is_refused(self, tmp_path):
        plain = AdaptiveFilter(FilterConfig(q=8, r=4, seed=0))
        plain.insert(1)
        path = tmp_path / "plain.aqfs"
        plain.save(path)
        with pytest.raises(FormatError):
            YesNoFilter.load(path, YesNoParams(1, 0, 0.1))
