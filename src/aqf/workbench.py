"""Desk-scale experiment drivers: workloads, traces, adversaries, churn.

Everything here is deterministic given its seeds, so a CSV produced by
one run can be regenerated bit-for-bit (wall-clock columns aside).  Key
spaces are kept disjoint by construction: filters fill from the middle
of the 64-bit space, workload universes sit at the bottom, churn
replacements come from the top.  Probe keys therefore never collide
with stored keys and every positive probe is a real false positive.

Zipfian ranks are the draws of numpy's ``Generator.zipf`` for the same
seed, bit for bit, kept while within the universe.  They are made in
batches of array arithmetic, in buffers that every batch of a call
reuses, rather than by numpy's one-at-a-time rejection loop; since
np.power can differ from the libm pow that loop calls in the last bit,
any attempt that close to an integer or to the acceptance boundary is
redone in scalar with math.pow, so the stream stays the one
``rng.zipf`` gives (see ``_zipf_ranks``).

The instantaneous false-positive rate is measured with adaptation
frozen: the filter's read-only index (decoded at the first checkpoint,
then patched where lookups extended fingerprints) is probed with
independent query sets drawn from the workload's distribution.  Each
set is drawn once per trace and kept as its distinct keys with their
counts; the union of the sets' distinct ranks is permuted onto keys
once, and each checkpoint probes that union in one batch.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import _LOAD_DEN, _LOAD_NUM, _META_BITS, FrozenIndex
from .errors import InvalidConfigError, StateCorruptionError
from .filter import AdaptiveFilter, LookupResult, Policy
# split_batch and bulk_load are unused here but stay module attributes:
# the benchmark's tracer (perfbench/spans.py) wraps them
from .hashing import (  # noqa: F401
    MASK64, FilterConfig, _int_in, _key_array, _real, split_batch)
from .setops import _fill, bulk_load  # noqa: F401

# key-space carve-up (inclusive low, exclusive high)
FILL_SPACE = (1 << 32, 1 << 62)
CHURN_SPACE = (1 << 62, 1 << 63)

WORKLOAD_KINDS = ("uniform", "zipfian", "churn")

# zipf attempts per batch, two doubles each: _zipf_ranks' buffers hold
# one batch, small enough to stay in cache
_ZIPF_BATCH = 1 << 14
# relative error allowed np.power against libm's pow; an attempt that
# this much error could change is redone in scalar (_zipf_attempt)
_POW_SLACK = 32 * float(np.finfo(np.float64).eps)
# numpy's zipf sampler rejects X above (double)INT64_MAX
_INT64_MAX_F = float((1 << 63) - 1)


@dataclass(frozen=True)
class WorkloadSpec:
    """What to query and how much of it.

    kind picks the generator; the remaining fields apply per kind:
    uniform and zipfian draw from [0, universe), zipfian with rank
    frequencies proportional to rank**(-s); churn reads interval_pct
    and replace_pct on top of the zipfian fields.  Percent fields are
    whole percents.  An adversary takes its own arguments
    (run_adversary), not a spec.

    seed drives the draws; perm_seed fixes which keys the zipfian ranks
    land on.  Two specs sharing perm_seed (and s, universe) describe
    the same distribution, so probe sets vary seed only; that is what
    lets them see the trace's hot keys.
    """

    kind: str
    count: int
    seed: int = 0
    s: float = 1.5
    universe: int = 10_000_000
    interval_pct: int = 10
    replace_pct: int = 20
    perm_seed: int = 0

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise InvalidConfigError(f"unknown workload kind {self.kind!r}")
        for name, low, high in (("count", 0, math.inf), ("seed", 0, math.inf),
                                ("universe", 1, FILL_SPACE[0]), ("interval_pct", 1, 100),
                                ("replace_pct", 0, 99), ("perm_seed", -math.inf, math.inf)):
            object.__setattr__(self, name, _int_in(getattr(self, name), name, low, high))
        if self.kind in ("zipfian", "churn") and not _real(self.s, "s") > 1:
            raise InvalidConfigError(f"zipf exponent must exceed 1, got {self.s}")


@dataclass(frozen=True)
class TraceRow:
    ops_done: int
    instantaneous_fpr: float
    bits_per_item_extra: float
    map_accesses: int
    wall_nanos: int


@dataclass(frozen=True)
class LatencyModel:
    """Simulated per-query costs, nanoseconds.

    Every query pays base_ns; a positive answer pays hit_ns on top,
    standing in for the backing-store probe a positive would trigger.
    """

    base_ns: int = 1_000
    hit_ns: int = 100_000

    def __post_init__(self):
        for name in ("base_ns", "hit_ns"):
            object.__setattr__(self, name, _int_in(getattr(self, name), name, 0, math.inf))


@dataclass(frozen=True)
class AdversaryReport:
    warmup_queries: int
    attack_queries: int
    pool_size: int
    realized_fps: int
    realized_fp_rate: float
    positives: int
    effective_qps: float
    degenerate_draws: int
    wall_nanos: int


def _permute(idx: np.ndarray, universe: int, seed: int) -> np.ndarray:
    """Seeded permutation of [0, universe) applied elementwise.

    Four-round Feistel over the smallest even-bit domain covering the
    universe, cycle-walking escapes back into range.  Hot ranks land on
    arbitrary keys instead of small integers, so skew and hash structure
    stay uncorrelated.
    """
    half = max(1, ((universe - 1).bit_length() + 1) // 2)
    hmask = np.uint64((1 << half) - 1)
    rks = [
        np.uint64((seed * 0x9E3779B97F4A7C15 + i * 0xBF58476D1CE4E5B9) & MASK64)
        for i in range(4)
    ]

    def perm(v):
        left = (v >> np.uint64(half)) & hmask
        right = v & hmask
        for rk in rks:
            t = (right * np.uint64(0x2545F4914F6CDD1D)) ^ rk
            t ^= t >> np.uint64(29)
            left, right = right, left ^ (t & hmask)
        return (left << np.uint64(half)) | right

    out = np.empty(len(idx), dtype=np.uint64)
    pending = np.arange(len(idx))
    cur = idx.astype(np.uint64)
    while pending.size:
        cur = perm(cur)
        ok = cur < universe
        out[pending[ok]] = cur[ok]
        pending = pending[~ok]
        cur = cur[~ok]
    return out


def _zipf_attempt(u01: float, v: float, am1: float, b: float, umin: float) -> float:
    """One attempt of numpy's zipf sampler on its two doubles, in its C
    order of operations and through libm's pow: X, or 0.0 if rejected.
    Where C's pow returns inf, math.pow raises; that X is rejected too."""
    u = u01 * umin + (1 - u01)
    try:
        x = float(math.floor(math.pow(u, -1.0 / am1)))
    except OverflowError:
        return 0.0
    if x > _INT64_MAX_F or x < 1.0:
        return 0.0
    t = math.pow(1.0 + 1.0 / x, am1)
    return x if v * x * (t - 1.0) / (b - 1.0) <= t / b else 0.0


def _zipf_ranks(rng: np.random.Generator, s: float, universe: int, count: int) -> np.ndarray:
    """count draws of 0-based ranks with P(rank) ~ (rank+1)**(-s), truncated.

    The ranks are exactly those of ``rng.zipf(s)`` draws kept while at
    most universe: numpy's sampler makes attempts, each on two doubles
    (U01, V), and returns the X of the first one its test accepts.  So
    the attempts are drawn in batches of at most _ZIPF_BATCH as
    ``rng.random`` pairs and run as array arithmetic in the C order of
    operations, each step writing into buffers allocated once per call,
    and the accepted X up to universe are kept in order.  np.power may
    differ from libm's pow in the last bit, so an attempt whose X lies
    near an integer, or whose test lies near its boundary, is redone by
    _zipf_attempt; the boundary margin grows with X/(s-1), by which
    T - 1 amplifies an error in T.  rng ends past the last attempt
    used, at a point rng.zipf would not leave it.
    """
    if not count:
        return np.empty(0, dtype=np.uint64)
    if s >= 1025:  # numpy returns 1 and reads nothing
        return np.zeros(count, dtype=np.uint64)
    am1 = s - 1.0
    b = math.pow(2.0, am1)
    umin = math.pow(_INT64_MAX_F, -am1)
    # p is capped at top: an X past universe yields no rank, whatever it is
    top = universe + 1.5
    # unsure: p within near of an integer, or the test's two sides within
    # _POW_SLACK * (2 + (x+1)/(s-1)) = (x + k1) * k2 of each other, relative
    near = _POW_SLACK * (universe + 2)
    k1, k2 = 2 * am1 + 1, _POW_SLACK / am1
    ranks = np.empty(count, dtype=np.uint64)
    floats, flags = np.empty((5, _ZIPF_BATCH)), np.empty((3, _ZIPF_BATCH), dtype=bool)
    got = tried = 0
    while got < count:
        rate = max(got, 1) / tried if tried else 1.0  # ranks per attempt so far
        pairs = min(_ZIPF_BATCH, int((count - got) / rate * 1.05) + 64)
        tried += pairs
        d = rng.random(2 * pairs)
        u01, v = d[0::2], d[1::2]
        p, x, t, diff, w = floats[:, :pairs]
        keep, unsure, f = flags[:, :pairs]
        with np.errstate(all="ignore"):
            np.subtract(1, u01, out=p)
            p += np.multiply(u01, umin, out=w)
            np.power(p, -1.0 / am1, out=p)
            np.minimum(p, top, out=p)
            np.floor(p, out=x)
            p -= x  # p's fraction
            np.divide(1.0, x, out=t)
            t += 1.0
            np.power(t, am1, out=t)
            np.multiply(v, x, out=diff)
            diff *= np.subtract(t, 1.0, out=w)
            diff /= b - 1.0
            t /= b
            diff -= t  # the test's left side minus its right side, t/b
            np.less_equal(diff, 0, out=keep)
            keep &= np.less_equal(x, universe, out=f)
            np.abs(diff, out=diff)
            t *= np.add(x, k1, out=w)
            t *= k2
            np.less_equal(diff, t, out=unsure)
            unsure |= np.less_equal(p, near, out=f)
            unsure |= np.greater_equal(p, 1 - near, out=f)
        for i in np.flatnonzero(unsure).tolist():
            x[i] = _zipf_attempt(float(u01[i]), float(v[i]), am1, b, umin)
            keep[i] = 1 <= x[i] <= universe
        kept = np.compress(keep, x)[: count - got]
        # X, an integer of at most 2^32, is exact as an int64 of the same bits
        ranks.view(np.int64)[got : got + len(kept)] = kept
        got += len(kept)
    ranks -= np.uint64(1)
    return ranks


def _draws(spec: WorkloadSpec) -> np.ndarray:
    """The spec's draws: uniform keys as uint64, zipfian ranks as uint32.

    Every draw lies below the universe, at most 2^32, so uint32 holds a
    rank and halves the bytes that sorting the ranks moves.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        return rng.integers(0, spec.universe, size=spec.count, dtype=np.uint64)
    return _zipf_ranks(rng, spec.s, spec.universe, spec.count).astype(np.uint32)


def _rank_keys(spec: WorkloadSpec, ranks: np.ndarray) -> np.ndarray:
    """The keys that the spec's zipfian ranks land on."""
    return _permute(ranks, spec.universe, spec.perm_seed ^ 0xD6E8FEB8)


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) through numpy's sort path: asked for values alone,
    numpy 2 builds a hash table instead, several times slower here."""
    return np.unique(a, return_counts=True)[0]


def gen_workload(spec: WorkloadSpec) -> np.ndarray:
    """Deterministic key sequence for the spec, dtype uint64.

    Zipfian ranks repeat heavily, so each distinct rank is permuted once.
    """
    draws = _draws(spec)
    if spec.kind == "uniform":
        return draws
    ranks, at = np.unique(draws, return_inverse=True)
    return _rank_keys(spec, ranks)[at]


def zipf_normalizer(s: float, universe: int) -> float:
    """Truncated zeta sum(k**-s, k=1..universe) by direct summation."""
    k = np.arange(1, universe + 1, dtype=np.float64)
    return float(np.sum(k**-s))


def fill_to_load(
    cfg: FilterConfig,
    load: float,
    seed: int = 0,
    policy: Policy | None = None,
) -> tuple[AdaptiveFilter, np.ndarray]:
    """Fresh filter at the target load, plus the keys that went in.

    Keys are uniform over the fill space, hashed once, sorted into hash
    order, and placed in one pass.
    """
    cap = _LOAD_NUM / _LOAD_DEN
    if not 0.0 <= _real(load, "load") <= cap:
        raise InvalidConfigError(f"load {load} outside [0, {cap}]")
    n_keys = int(load * cfg.nslots)
    rng = np.random.default_rng(_int_in(seed, "seed", 0, math.inf))
    # handed over without a name, so that _fill drops the draw once sorted
    return _fill(rng.integers(FILL_SPACE[0], FILL_SPACE[1], size=n_keys, dtype=np.uint64),
                 cfg, policy)


@dataclass(frozen=True, eq=False)
class ProbeSets:
    """Independent probe sets, each kept as its distinct keys with counts.

    keys is the sorted union of every set's distinct keys.  Set i drew
    keys[rows[i]] counts[i] times each, sizes[i] draws in all.
    """

    keys: np.ndarray
    rows: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...]
    sizes: tuple[int, ...]

    @classmethod
    def from_arrays(cls, arrays) -> "ProbeSets":
        """From plain key arrays, repeats allowed; there must be at least
        one array, and none may be empty."""
        sets = [np.unique(_key_array(a), return_counts=True) for a in arrays]
        if not sets:
            raise InvalidConfigError("need at least one probe set")
        sizes = tuple(int(counts.sum()) for _, counts in sets)
        if not all(sizes):
            raise InvalidConfigError("a probe set cannot be empty")
        keys = _sorted_distinct(np.concatenate([k for k, _ in sets]))
        return cls(keys, tuple(np.searchsorted(keys, k) for k, _ in sets),
                   tuple(counts for _, counts in sets), sizes)


def measure_fpr(index: FrozenIndex, probe_sets: ProbeSets | list[np.ndarray]) -> float:
    """Mean false-positive fraction over independent, non-empty probe sets.

    Probes must be true negatives (the key-space carve-up guarantees
    this for generated workloads), so every positive verdict counts.
    The union of the sets' distinct keys is probed in one batch; a set's
    fraction is its positive draws over its size, the same float as the
    mean of its verdicts.  Plain key arrays are deduplicated first.
    """
    if not isinstance(probe_sets, ProbeSets):
        probe_sets = ProbeSets.from_arrays(probe_sets)
    hit = index.query_keys(probe_sets.keys)
    fracs = [int(counts[hit[rows]].sum()) / size for rows, counts, size
             in zip(probe_sets.rows, probe_sets.counts, probe_sets.sizes)]
    return sum(fracs) / len(fracs)


def extra_bits_per_item(f: AdaptiveFilter) -> float:
    """Extension-slot bits amortized over stored fingerprints."""
    arr = f.arr
    if arr.fp_count == 0:
        return 0.0
    per_slot = arr.slot_bits + _META_BITS
    return arr.ext_slot_count * per_slot / arr.fp_count


def make_probe_sets(spec: WorkloadSpec, probe_sets: int, probe_size: int) -> ProbeSets:
    """Independent query sets from the spec's distribution.

    Seeds are derived from the spec's, offset so they never collide
    with the trace stream itself.  Set i holds the distinct keys of
    gen_workload(replace(spec, count=probe_size, seed=...)) with their
    counts, drawn once; the key sequence is never built.  Each set is
    kept as its distinct draws, and the union of those is permuted onto
    keys once and sorted into the sets' shared key column.
    """
    probe_sets = _int_in(probe_sets, "probe_sets", 1, math.inf)
    probe_size = _int_in(probe_size, "probe_size", 1, math.inf)
    sets = [np.unique(_draws(replace(spec, count=probe_size, seed=spec.seed + 7919 * (i + 1)))
                      .astype(np.uint32, copy=False), return_counts=True)
            for i in range(probe_sets)]
    union = _sorted_distinct(np.concatenate([draws for draws, _ in sets]))
    keys = union.astype(np.uint64) if spec.kind == "uniform" else _rank_keys(spec, union)
    order = np.argsort(keys)
    row = np.empty(len(order), dtype=np.intp)  # each union draw's row in the sorted keys
    row[order] = np.arange(len(order))
    return ProbeSets(keys[order], tuple(row[np.searchsorted(union, draws)] for draws, _ in sets),
                     tuple(counts for _, counts in sets), (probe_size,) * probe_sets)


def _trace(f: AdaptiveFilter, queries: np.ndarray, probes: ProbeSets,
           every_pct: int, check=None, event=None) -> list[TraceRow]:
    """Adapting lookups of queries in steps of every_pct percent, with a
    checkpoint row before the first step and after each.  check(index,
    done) vets each checkpoint's frozen index; event() runs between steps."""
    t0 = time.perf_counter_ns()

    def checkpoint(done: int) -> TraceRow:
        index = f.frozen_index()
        if check is not None:
            check(index, done)
        return TraceRow(
            ops_done=done,
            instantaneous_fpr=measure_fpr(index, probes),
            bits_per_item_extra=extra_bits_per_item(f),
            map_accesses=f.map_accesses,
            wall_nanos=time.perf_counter_ns() - t0,
        )

    rows = [checkpoint(0)]
    step = max(1, len(queries) * every_pct // 100)
    done = 0
    while done < len(queries):
        stop = min(done + step, len(queries))
        f.lookup_many(queries[done:stop])
        done = stop
        rows.append(checkpoint(done))
        if done < len(queries) and event is not None:
            event()
    return rows


def run_adaptation_trace(
    f: AdaptiveFilter,
    workload: WorkloadSpec | np.ndarray,
    measure_every_pct: int = 10,
    probe_sets: int = 20,
    probe_size: int = 100_000,
) -> list[TraceRow]:
    """Adapting query run with frozen-FPR checkpoints.

    Row 0 is the untouched filter; later rows land every
    measure_every_pct of the workload.  A key array in place of a spec
    is treated as an external trace: probe sets become bootstrap
    resamples of it, which only estimate an FPR if the trace keys are
    disjoint from the stored ones.  Such a trace holds at least one key,
    and every key is an int in [0, 2**64).
    """
    measure_every_pct = _int_in(measure_every_pct, "measure_every_pct", 1, 100)
    probe_sets = _int_in(probe_sets, "probe_sets", 1, math.inf)
    probe_size = _int_in(probe_size, "probe_size", 1, math.inf)
    if isinstance(workload, WorkloadSpec):
        queries = gen_workload(workload)
        probes = make_probe_sets(workload, probe_sets, probe_size)
    else:
        queries = _key_array(workload)
        if not len(queries):
            raise InvalidConfigError("an external trace needs at least one key")
        rng = np.random.default_rng(0x5EED)
        probes = ProbeSets.from_arrays(rng.choice(queries, size=probe_size)
                                       for _ in range(probe_sets))
    return _trace(f, queries, probes, measure_every_pct)


def run_adversary(
    f: AdaptiveFilter,
    warmup: int,
    total: int,
    adv_frac: float,
    latency: LatencyModel | None = None,
    seed: int = 0,
    universe: int = 10_000_000,
) -> AdversaryReport:
    """Replay attack: collect false positives, then feed them back.

    During warmup every query is benign and each false positive joins
    the adversary's pool.  During the attack each query replays a pool
    entry with probability adv_frac.  Against an adapting filter the
    pool is already dead (each entry was corrected the moment it was
    observed); with adaptation off every replay hits.
    """
    if latency is None:
        latency = LatencyModel()
    if not 0.0 <= _real(adv_frac, "adv_frac") <= 1.0:
        raise InvalidConfigError(f"adv_frac {adv_frac} outside [0, 1]")
    warmup = _int_in(warmup, "warmup", 0, math.inf)
    total = _int_in(total, "total", 0, math.inf)
    seed = _int_in(seed, "seed", 0, math.inf)
    universe = _int_in(universe, "universe", 1, FILL_SPACE[0])
    rng = np.random.default_rng(seed)
    benign = rng.integers(0, universe, size=warmup + total, dtype=np.uint64)
    adversarial = rng.random(size=total) < adv_frac
    t0 = time.perf_counter_ns()

    positive = (
        LookupResult.PRESENT,
        LookupResult.FALSE_POSITIVE,
        LookupResult.FALSE_POSITIVE_CORRECTED,
    )
    false_pos = positive[1:]
    warm = f.lookup_many(benign[:warmup])
    pool = benign[:warmup][np.array([r in false_pos for r, _ in warm], dtype=bool)]

    pool_picks = rng.integers(0, max(1, len(pool)), size=total)
    attack = benign[warmup:].copy()
    if len(pool):
        attack[adversarial] = pool[pool_picks[adversarial]]
    degenerate = 0 if len(pool) else int(adversarial.sum())
    verdicts = [result for result, _ in f.lookup_many(attack)]
    positives = sum(result in positive for result in verdicts)
    realized = sum(result in false_pos for result in verdicts)

    sim_ns = total * latency.base_ns + positives * latency.hit_ns
    return AdversaryReport(
        warmup_queries=warmup,
        attack_queries=total,
        pool_size=len(pool),
        realized_fps=realized,
        realized_fp_rate=realized / total if total else 0.0,
        positives=positives,
        effective_qps=total / (sim_ns / 1e9) if sim_ns else 0.0,
        degenerate_draws=degenerate,
        wall_nanos=time.perf_counter_ns() - t0,
    )


def run_churn(
    f: AdaptiveFilter,
    live_keys,
    spec: WorkloadSpec,
    probe_sets: int = 20,
    probe_size: int = 100_000,
) -> list[TraceRow]:
    """Adapting queries with periodic delete-and-replace events.

    Every spec.interval_pct of the run, spec.replace_pct percent of the
    live keys leave and as many fresh ones arrive.  Checkpoints land
    immediately before each churn event and at the end, and each one
    re-checks that every live key still answers positive.  Which keys
    leave, and the fresh keys, come from a fixed seed, the same for
    every spec.
    """
    probes = make_probe_sets(spec, probe_sets, probe_size)
    live = [int(k) for k in live_keys]
    queries = gen_workload(spec)
    rng = np.random.default_rng(1)

    def check(index: FrozenIndex, done: int) -> None:
        alive = index.query_keys(np.array(live, dtype=np.uint64))
        if not alive.all():
            raise StateCorruptionError(
                f"{int((~alive).sum())} live keys answered negative at op {done}"
            )

    def replace_keys() -> None:
        n_replace = len(live) * spec.replace_pct // 100
        victims = set(int(v) for v in rng.choice(len(live), size=n_replace, replace=False))
        for v in victims:
            f.delete(live[v])
        live[:] = [k for i, k in enumerate(live) if i not in victims]
        fresh = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=n_replace, dtype=np.uint64)
        for k in fresh:
            f.insert(int(k))
            live.append(int(k))

    return _trace(f, queries, probes, spec.interval_pct, check,
                  replace_keys if spec.replace_pct else None)


CSV_HEADER = ["ops", "fpr", "extra_bits_per_item", "map_accesses", "wall_nanos"]


def report_csv(rows: list[TraceRow], path, meta: dict | None = None) -> None:
    """Write rows under the standard header, metadata as a # comment."""
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([
                row.ops_done,
                repr(row.instantaneous_fpr),
                repr(row.bits_per_item_extra),
                row.map_accesses,
                row.wall_nanos,
            ])


def parse_csv(path) -> list[TraceRow]:
    """The rows report_csv wrote; InvalidConfigError names a bad header or row."""
    rows = []
    with open(path, newline="") as fh:
        lines = (ln for ln in fh if not ln.startswith("#"))
        reader = csv.reader(lines)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise InvalidConfigError(f"unexpected CSV header {header}")
        for rec in reader:
            try:  # zip's strict raises ValueError on a wrong field count
                rows.append(TraceRow(*(cast(x) for cast, x in
                                       zip((int, float, float, int, int), rec, strict=True))))
            except ValueError as exc:
                raise InvalidConfigError(f"bad CSV data row {len(rows) + 1} {rec}: {exc}") from exc
    return rows
