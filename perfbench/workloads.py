"""The benchmark's three workloads, each a closed loop with one caller.

Every workload builds its inputs from the seed alone, hands the library
only those inputs, and calls the public ``aqf`` API from one thread.
Library functions are looked up on their modules at call time
(``workbench.fill_to_load``), so the traced run's wrappers see them.

The measured phase does a fixed amount of work per ``--seconds``
(``Shape.ops_per_second`` ops for each second), sized so that it takes
about that long at the commit that defined the benchmark.  A fixed op
count keeps inputs, verdicts and snapshots identical whatever the speed,
which is what lets a later change compare its behaviour fingerprint
with this one's.

zipf-trace     the paper's headline experiment: skewed, read-only,
               repeat-heavy lookups on a table larger than L2.  Hashing,
               the run walk and ``lookup`` do the work; the reverse map
               and adaptation stay nearly idle.  Batched or cached
               lookups show here.
mixed-churn    reads beside writes, nothing repeats, the table fits in
               L2.  The mutation paths (cluster rewrite on delete) and
               the reverse map do the work; a read-side cache or batch
               path is bypassed and must cost nothing.
build-persist  bulk placement, snapshot encode and decode and the
               yes/no construction, with almost no scalar lookups.

Timings are kept as wall-clock intervals and turned into seconds by the
Report: reference seconds in an untraced run (see speed.py), plain wall
seconds in a traced one.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from aqf import (
    YES,
    AdaptiveFilter,
    FilterConfig,
    LookupResult,
    WorkloadSpec,
    expected_adaptivity_bits,
    workbench,
    yesno,
)
from aqf.workbench import CHURN_SPACE, FILL_SPACE, extra_bits_per_item
from spans import SpanSummary, Tracer, layer_metrics
from speed import Speedometer

# setups per untraced run; setup_s is their median
SETUPS = 3
# save_s is the median of at least this many to_bytes calls, repeated
# until they have taken SAVE_SECONDS of wall time
SAVE_REPEATS = 3
SAVE_SECONDS = 1.0
# mixed-churn's ops_per_s is the median rate over this many equal chunks
CHURN_CHUNKS = 20

# queries outside both stored spaces: every positive is a false positive
NEGATIVE_SPACE = (0, FILL_SPACE[0])
# remainder bits of every filter, the paper's and the acceptance suite's
R = 9


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload; the defaults are the benchmark's, tests shrink them."""

    q: int
    load: float
    ops_per_second: int = 0
    # keys per probe set: zipf-trace's checkpoint sets, build-persist's
    # keys on neither list
    probe_size: int = 100_000
    n_yes: int = 0
    n_no: int = 0


SHAPES = {
    "zipf-trace": Shape(q=20, load=0.9, ops_per_second=30_000),
    "mixed-churn": Shape(q=16, load=0.85, ops_per_second=9_000),
    "build-persist": Shape(q=18, load=0.9, n_yes=1 << 16, n_no=1 << 22,
                           probe_size=1 << 20),
}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "save_s": "s",
    "snapshot_bytes_per_key": "B/key",
    "peak_rss_mb": "MB",
}


def timed(fn, *args, **kwargs):
    """fn's result and the wall interval (start, end) the call took."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (t0, time.perf_counter())


def wall(iv) -> float:
    return iv[1] - iv[0]


class Report:
    """What one run measured and checked, in print order."""

    def __init__(self, speedometer: Speedometer | None = None):
        self.speedometer = speedometer
        self.metrics: dict[str, tuple[float, str, str]] = {}
        self.extras: dict[str, tuple[float, str, str]] = {}
        self.checks: list[tuple[str, int, int]] = []
        self.behaviour: dict = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def seconds(self, iv) -> float:
        """Reference seconds of a wall interval; wall seconds when traced."""
        if self.speedometer is None:
            return wall(iv)
        return self.speedometer.seconds(*iv)

    def median_seconds(self, name, intervals):
        """Report the median of intervals as metric ``name``, wall beside it."""
        ref = statistics.median(self.seconds(iv) for iv in intervals)
        raw = statistics.median(wall(iv) for iv in intervals)
        self.metric(name, ref, "s", f"median of {len(intervals)}, wall {raw:.4g} s")

    def metric(self, name, value, unit, detail=""):
        self.metrics[name] = (float(value), unit, detail)

    def extra(self, name, value, unit, detail=""):
        """A figure printed beside the metrics but not in the result line."""
        self.extras[name] = (float(value), unit, detail)

    def tally(self, name, bad, total):
        """Count total attempted items of which bad failed."""
        self.checks.append((name, int(bad), int(total)))
        self.attempted += int(total)
        self.failed += int(bad)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def latency_summary(rep, name, samples_ns):
    """p50 and p99 in wall microseconds, each with its sample count."""
    n = len(samples_ns)
    if not n:
        return
    us = np.asarray(samples_ns, dtype=np.float64) / 1e3
    p50, p99 = np.percentile(us, [50, 99])
    rep.extra(f"{name}_p50_us", p50, "us", f"n={n}")
    rep.extra(f"{name}_p99_us", p99, "us", f"n={n}, {n - int(0.99 * n)} beyond")


def cluster_lengths(arr) -> np.ndarray:
    """Lengths of the maximal runs of used slots, wrap-around included."""
    n = arr.nslots
    used = np.unpackbits(arr.used.view(np.uint8), bitorder="little")[:n]
    if not used.any():
        return np.zeros(0, dtype=np.int64)
    if used.all():
        return np.array([n])
    rot = int(np.flatnonzero(used == 0)[0])
    bits = np.concatenate(([0], np.roll(used, -rot), [0])).astype(np.int8)
    edges = np.diff(bits)
    return np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)


def filter_state(f) -> Counter:
    return Counter(map_accesses=f.map.accesses, adaptivity_bits=f.adaptivity_bits,
                   adaptation_failures=f.adaptation_failures)


def state_delta(before: Counter, f) -> dict:
    after = filter_state(f)
    return {k: after[k] - before[k] for k in after}


def snapshot_sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def timed_saves(f, repeats: int, seconds: float = 0.0):
    """The filter's snapshot and the interval of each encode: ``repeats``
    of them at least, more until ``seconds`` of wall time have passed."""
    intervals = []
    while len(intervals) < repeats or sum(map(wall, intervals)) < seconds:
        blob, iv = timed(f.to_bytes)
        intervals.append(iv)
    return blob, intervals


class ZipfTrace:
    """fill_to_load at 90%, then one run_adaptation_trace call.

    The filter and the hot keys are acceptance criterion 5's (filter seed
    2, fill seed 102, perm_seed 26); the seed draws the trace and its
    probe sets (trace seed 500 + seed), so --seed 2 is criterion 5's
    trace.  Under s=1.5 the hottest key takes 38% of the queries, so
    throughput follows where the few hottest keys sit in the table: over
    five filter seeds the expected run-walk distance per query (200
    hottest keys) ranged from 21 to 46 slots.  Holding the instance fixed
    keeps that placement out of the run-to-run spread.
    """

    FILTER_SEED, FILL_SEED = 2, 102
    PROBE_SETS = 20
    # traced (T) and untraced (U) parts of a traced run; the mirrored
    # order cancels drift in machine speed across the run
    TRACE_ORDER = "TUUT"

    def __init__(self, shape: Shape, seed: int, seconds: int):
        self.shape = shape
        self.cfg = FilterConfig(q=shape.q, r=R, seed=self.FILTER_SEED)
        self.spec = WorkloadSpec(kind="zipfian", count=shape.ops_per_second * seconds,
                                 seed=500 + seed, s=1.5, universe=10**7, perm_seed=26)
        self.traces: list[tuple[WorkloadSpec, list, tuple]] = []

    def setup(self):
        self.f, self.keys = workbench.fill_to_load(self.cfg, self.shape.load,
                                                   seed=self.FILL_SEED)

    def phase(self, part: int, parts: int):
        n = self.spec.count
        count = n * (part + 1) // parts - n * part // parts
        spec = replace(self.spec, count=count, seed=self.spec.seed + 1_000_000 * part)
        before = filter_state(self.f)
        rows, iv = timed(workbench.run_adaptation_trace, self.f, spec,
                         measure_every_pct=50, probe_sets=self.PROBE_SETS,
                         probe_size=self.shape.probe_size)
        self.traces.append((spec, rows, iv))
        return count, wall(iv), state_delta(before, self.f)

    def finish(self, rep: Report, measured: bool):
        f = self.f
        blob, saves = timed_saves(f, SAVE_REPEATS if measured else 1)  # ~1.7 s each
        if measured:
            spec, rows, iv = self.traces[0]
            rep.metric("ops_per_s", spec.count / rep.seconds(iv), "ops/s",
                       f"{spec.count} trace queries, wall {spec.count / wall(iv):.4g}/s")
            rep.median_seconds("save_s", saves)
            rep.metric("snapshot_bytes_per_key", len(blob) / len(f), "B/key")
            rep.extra("fp_rate", rows[-1].instantaneous_fpr, "ratio",
                      f"last checkpoint, {self.PROBE_SETS * self.shape.probe_size} probes")
            rep.extra("extra_bits_per_key", extra_bits_per_item(f), "bits")
        queries = sum(spec.count for spec, _, _ in self.traces)
        rep.tally("lookups_adapted", f.adaptation_failures, queries)
        index = f.frozen_index()
        distinct = np.unique(np.concatenate(
            [workbench.gen_workload(spec) for spec, _, _ in self.traces]))
        rep.tally("queried_keys_stay_corrected", index.query_keys(distinct).sum(),
                  len(distinct))
        rep.tally("stored_keys_present", (~index.query_keys(self.keys)).sum(),
                  len(self.keys))
        steps = [(a.instantaneous_fpr, b.instantaneous_fpr)
                 for _, rows, _ in self.traces for a, b in zip(rows, rows[1:])]
        rep.tally("frozen_fpr_never_rises", sum(b > a for a, b in steps), len(steps))
        rep.behaviour = {
            "adaptations": f.adaptations,
            "adaptivity_bits": f.adaptivity_bits,
            "map_accesses": f.map_accesses,
            "checkpoint_fpr": [[row.instantaneous_fpr for row in rows]
                               for _, rows, _ in self.traces],
            "snapshot_sha256": snapshot_sha(blob),
        }


LOOKUP, INSERT, DELETE = 0, 1, 2


class MixedChurn:
    """fill_to_load at 85%, then 70% lookup / 15% insert / 15% delete.

    Lookups go half to live keys, half to fresh negatives.  Each op is
    one scalar public call, timed by itself.  Op stream seed 1000 + seed,
    as acceptance criterion 3 seeds its churn.
    """

    # per-op cost swings with the delete tail, so alternate more often
    TRACE_ORDER = "TUUTTUUT"

    def __init__(self, shape: Shape, seed: int, seconds: int):
        self.shape = shape
        self.seed = seed
        self.cfg = FilterConfig(q=shape.q, r=R, seed=seed)
        n = shape.ops_per_second * seconds
        rng = np.random.default_rng(1000 + seed)
        roll = rng.random(n)
        self.kind = np.select([roll < 0.70, roll < 0.85], [LOOKUP, INSERT],
                              DELETE).tolist()
        self.pick = rng.random(n).tolist()
        self.to_live = (rng.random(n) < 0.5).tolist()
        self.negative = rng.integers(*NEGATIVE_SPACE, size=n, dtype=np.uint64).tolist()
        self.fresh = rng.integers(*CHURN_SPACE, size=n, dtype=np.uint64).tolist()
        self.latency = {"lookup": [], "insert": [], "delete": []}
        self.chunks: list[tuple[int, tuple]] = []
        self.verdicts: Counter = Counter()
        self.negatives = 0
        self.live_misses = 0
        self.errors = Counter()

    def setup(self):
        self.f, keys = workbench.fill_to_load(self.cfg, self.shape.load,
                                              seed=100 + self.seed)
        self.live = keys.tolist()

    def phase(self, part: int, parts: int):
        n = len(self.kind)
        lo, hi = n * part // parts, n * (part + 1) // parts
        step = -(-n // CHURN_CHUNKS)
        before = filter_state(self.f)
        seconds = 0.0
        for c in range(lo, hi, step):
            end = min(c + step, hi)
            _, iv = timed(self._run, c, end)
            self.chunks.append((end - c, iv))
            seconds += wall(iv)
        return hi - lo, seconds, state_delta(before, self.f)

    def _run(self, lo: int, hi: int) -> None:
        """Ops lo..hi of the stream, each call timed by itself."""
        f, live, clock = self.f, self.live, time.perf_counter_ns
        lat_l, lat_i, lat_d = (self.latency[k] for k in ("lookup", "insert", "delete"))
        verdicts = self.verdicts
        present = LookupResult.PRESENT
        for i in range(lo, hi):
            kind = self.kind[i]
            if kind == LOOKUP:
                is_live = self.to_live[i]
                key = live[int(self.pick[i] * len(live))] if is_live else self.negative[i]
                t0 = clock()
                try:
                    verdict, _ = f.lookup(key)
                except Exception:  # counted as a failed op, the loop keeps going
                    self.errors["lookup"] += 1
                    continue
                lat_l.append(clock() - t0)
                verdicts[verdict] += 1
                if is_live:
                    self.live_misses += verdict is not present
                else:
                    self.negatives += 1
            elif kind == INSERT:
                key = self.fresh[i]
                t0 = clock()
                try:
                    f.insert(key)
                except Exception:
                    self.errors["insert"] += 1
                    continue
                lat_i.append(clock() - t0)
                live.append(key)
            else:
                j = int(self.pick[i] * len(live))
                key = live[j]
                live[j] = live[-1]
                live.pop()
                t0 = clock()
                try:
                    f.delete(key)
                except Exception:
                    self.errors["delete"] += 1
                    continue
                lat_d.append(clock() - t0)

    def finish(self, rep: Report, measured: bool):
        f = self.f
        blob, saves = timed_saves(f, SAVE_REPEATS, SAVE_SECONDS if measured else 0.0)
        v = self.verdicts
        wrong = v[LookupResult.FALSE_POSITIVE] + self.live_misses
        if measured:
            rate = statistics.median(ops / rep.seconds(iv) for ops, iv in self.chunks)
            raw = statistics.median(ops / wall(iv) for ops, iv in self.chunks)
            rep.metric("ops_per_s", rate, "ops/s",
                       f"median over {len(self.chunks)} chunks of {len(self.kind)} ops, "
                       f"wall {raw:.4g}/s")
            rep.median_seconds("save_s", saves)
            rep.metric("snapshot_bytes_per_key", len(blob) / len(f), "B/key")
            for name, samples in self.latency.items():
                latency_summary(rep, name, samples)
            positives = v[LookupResult.FALSE_POSITIVE_CORRECTED] + v[LookupResult.FALSE_POSITIVE]
            rep.extra("fp_rate", positives / max(1, self.negatives), "ratio",
                      f"{positives} of {self.negatives} negative lookups")
            rep.extra("extra_bits_per_key", extra_bits_per_item(f), "bits")
        rep.tally("ops", wrong + sum(self.errors.values()), len(self.kind))
        try:
            f.check_consistency()
            broken = 0
        except Exception:  # any exception here is a failed output check
            broken = 1
        rep.tally("check_consistency", broken, 1)
        rep.behaviour = {
            "verdicts": {k.value: v[k] for k in LookupResult},
            "errors": dict(self.errors),
            "adaptations": f.adaptations,
            "stored": len(f),
            "snapshot_sha256": snapshot_sha(blob),
        }


class BuildPersist:
    """fill_to_load at 90%, then to_bytes, from_bytes and build_static.

    The setup filter is encoded and decoded in memory ``max(1, seconds
    // 3)`` times; build_static runs once with YES keys from the fill
    space and NO keys from the churn space, epsilon 2^-9.  YES/NO seed
    2000 + seed, build seed = seed, as acceptance criterion 6 seeds them.
    """

    # each part builds once; two parts keep the traced run short
    TRACE_ORDER = "TU"
    EPSILON = 2**-9

    def __init__(self, shape: Shape, seed: int, seconds: int):
        self.shape = shape
        self.seed = seed
        self.cfg = FilterConfig(q=shape.q, r=R, seed=seed)
        self.reps = max(1, seconds // 3)
        rng = np.random.default_rng(2000 + seed)
        self.yes = rng.integers(*FILL_SPACE, size=shape.n_yes, dtype=np.uint64)
        self.no = rng.integers(*CHURN_SPACE, size=shape.n_no, dtype=np.uint64)
        self.fresh = rng.integers(*NEGATIVE_SPACE, size=shape.probe_size, dtype=np.uint64)
        self.saves, self.loads, self.builds = [], [], []

    def setup(self):
        self.f, _ = workbench.fill_to_load(self.cfg, self.shape.load,
                                           seed=100 + self.seed)

    def phase(self, part: int, parts: int):
        reps = self.reps if parts == 1 else 1
        for _ in range(reps):
            self.blob, iv = timed(self.f.to_bytes)
            self.saves.append(iv)
            self.loaded, iv = timed(AdaptiveFilter.from_bytes, self.blob)
            self.loads.append(iv)
        yes_keys, no_keys = self.yes.tolist(), self.no.tolist()
        self.yn = None
        self.yn, iv = timed(yesno.build_static, yes_keys, no_keys, self.EPSILON,
                            seed=self.seed)
        self.builds.append(iv)
        self.keys = keys = reps * 2 * len(self.f) + len(yes_keys) + len(no_keys)
        seconds = sum(map(wall, self.saves[-reps:] + self.loads[-reps:] + [iv]))
        inner = self.yn.inner
        return keys, seconds, {"adaptivity_bits": inner.adaptivity_bits,
                               "adaptation_failures": inner.adaptation_failures,
                               "map_accesses": inner.map.accesses,
                               "consumed_bits": self.yn.consumed_adaptivity_bits,
                               "expected_bits": expected_adaptivity_bits(self.yn.params),
                               "no_keys": len(no_keys)}

    def finish(self, rep: Report, measured: bool):
        yn = self.yn
        if measured:
            spent = self.saves + self.loads + self.builds
            rep.metric("ops_per_s", self.keys / sum(map(rep.seconds, spent)), "ops/s",
                       f"{self.keys} keys encoded, decoded or built, "
                       f"wall {self.keys / sum(map(wall, spent)):.4g}/s")
            rep.median_seconds("save_s", self.saves)
            rep.metric("snapshot_bytes_per_key", len(self.blob) / len(self.f), "B/key")
            rep.extra("load_s", statistics.median(map(rep.seconds, self.loads)), "s",
                      f"median of {len(self.loads)}")
            rep.extra("yesno_build_s", rep.seconds(self.builds[-1]), "s",
                      f"{len(self.yes)} YES, {len(self.no)} NO keys")
        index = yn.inner.frozen_index()
        fp_rate = float(index.query_keys(self.fresh).mean())
        if measured:
            rep.extra("fp_rate", fp_rate, "ratio",
                      f"yes/no filter, {len(self.fresh)} keys on neither list")
        rep.tally("snapshot_roundtrip", self.loaded.to_bytes() != self.blob, 1)
        yes_answers = sum(yn.yn_query(k) == YES for k in self.yes.tolist())
        rep.tally("yes_keys_answer_yes", len(self.yes) - yes_answers, len(self.yes))
        # extensions only narrow, so a NO key absent from the frozen index
        # answers NO; the index and yn_query agree by the library's tests
        no_hits = int(index.query_keys(self.no).sum())
        rep.tally("no_keys_answer_no", no_hits, len(self.no))
        rep.behaviour = {
            "yes_answers": yes_answers,
            "no_answers": len(self.no) - no_hits,
            "consumed_bits": yn.consumed_adaptivity_bits,
            "fresh_positives": int(round(fp_rate * len(self.fresh))),
            "snapshot_sha256": snapshot_sha(self.blob),
            "yesno_sha256": snapshot_sha(yn.inner.to_bytes()),
        }


WORKLOADS = {"zipf-trace": ZipfTrace, "mixed-churn": MixedChurn,
             "build-persist": BuildPersist}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def execute(name: str, shape: Shape, seed: int, seconds: int, trace: bool):
    """Run one workload; returns its Report and, when traced, the Tracer.

    Untraced: SETUPS setups, then the whole measured phase, all under a
    Speedometer.  Traced: one setup under the tracer, then the phase
    split into the parts of the workload's TRACE_ORDER, traced (T) or not
    (U); the two sides' wall time per op gives the tracing overhead.
    End-to-end metrics come only from untraced runs.
    """
    wl = WORKLOADS[name](shape, seed, seconds)
    if not trace:
        with Speedometer() as speedometer:
            rep = Report(speedometer)
            setups = []
            for _ in range(SETUPS):
                wl.f = None  # free the previous filter outside the timed region
                _, iv = timed(wl.setup)
                setups.append(iv)
            rep.median_seconds("setup_s", setups)
            wl.phase(0, 1)
            wl.finish(rep, measured=True)
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss")
        rep.extra("slowdown", speedometer.slowdown(setups[0][0], time.perf_counter()),
                  "x", "median probe time over its nominal, whole run")
        return rep, None

    rep = Report()
    tracer = Tracer()
    with tracer.active():
        wl.setup()
    clusters = cluster_lengths(wl.f.arr)
    facts: Counter = Counter()
    cost = {"T": [0, 0.0], "U": [0, 0.0]}  # ops and wall seconds per mode
    for part, mode in enumerate(wl.TRACE_ORDER):
        with tracer.active() if mode == "T" else nullcontext():
            ops, spent, part_facts = wl.phase(part, len(wl.TRACE_ORDER))
        cost[mode][0] += ops
        cost[mode][1] += spent
        if mode == "T":
            facts.update(part_facts)
    wl.finish(rep, measured=False)
    facts.update(
        cluster_len_mean=float(clusters.mean()) if clusters.size else 0.0,
        cluster_len_max=int(clusters.max()) if clusters.size else 0,
        overhead_frac=(cost["T"][1] / cost["T"][0]) / (cost["U"][1] / cost["U"][0]) - 1,
    )
    rep.layers = layer_metrics(SpanSummary(tracer), facts)
    return rep, tracer
