"""In-memory span recorder for the traced benchmark run.

Wrappers are installed on the public entry points of the aqf modules,
where their callers look them up: class attributes such as
``SlotArray.query_fp`` and module globals such as ``aqf.filter.split``.
Each call records one span (name, start, end, parent) into flat arrays;
nothing is written until the run ends.  A span's self time is its
duration minus the time its child spans cover.  Calls are strictly
nested (one thread, no generators are wrapped), so the children of a
span never overlap and their durations simply add up.
"""

from __future__ import annotations

import array
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import aqf.core
import aqf.filter
import aqf.setops
import aqf.workbench
import aqf.yesno
from aqf import AdaptiveFilter, FrozenIndex, ReverseMap, SlotArray

_HASH_USERS = (aqf.filter, aqf.core, aqf.yesno, aqf.setops)


def _count_keys(pos):
    def observe(counts, name, args, out):
        counts[name + ".keys"] += len(args[pos])
    return observe


def _count_map_bytes(counts, name, args, out):
    counts[name + ".bytes"] += len(out)
    counts[name + ".keys"] += args[0].key_count


def _count_verdict(counts, name, args, out):
    counts["verdict." + out[0].value] += 1


def entry_points():
    """(owner, attribute, span name, observer) for every wrapped entry.

    An observer sees the call's arguments and result after the span
    closes and adds to the tracer's counters.
    """
    points = []
    for mod in _HASH_USERS:
        points += [
            (mod, "HashStream", "hashing.HashStream", None),
            (mod, "split", "hashing.split", None),
            (mod, "extension_chunk", "hashing.extension_chunk", None),
        ]
    for mod in (aqf.core, aqf.setops, aqf.workbench):
        points.append((mod, "split_batch", "hashing.split_batch", _count_keys(0)))
    for attr in ("query_fp", "insert_fp", "remove_fp", "extend_fp", "get_ext",
                 "get_count", "get_value", "set_count", "to_bytes", "from_bytes"):
        points.append((SlotArray, attr, "core." + attr, None))
    points += [
        (FrozenIndex, "__init__", "core.frozen_build", None),
        (FrozenIndex, "query_keys", "core.frozen_query", _count_keys(1)),
    ]
    for attr in ("map_get", "map_insert", "map_remove", "find_rank", "list_size",
                 "from_bytes"):
        points.append((ReverseMap, attr, "revmap." + attr, None))
    points.append((ReverseMap, "to_bytes", "revmap.to_bytes", _count_map_bytes))
    points.append((AdaptiveFilter, "lookup", "filter.lookup", _count_verdict))
    for attr in ("insert", "delete", "adapt", "frozen_index", "to_bytes", "from_bytes"):
        points.append((AdaptiveFilter, attr, "filter." + attr, None))
    points += [
        (aqf.yesno, "build_static", "yesno.build_static", None),
        (aqf.workbench, "bulk_load", "setops.bulk_load", _count_keys(0)),
    ]
    for attr in ("fill_to_load", "run_adaptation_trace", "gen_workload",
                 "make_probe_sets", "measure_fpr", "extra_bits_per_item"):
        points.append((aqf.workbench, attr, "workbench." + attr, None))
    return points


class Tracer:
    """Records spans while active() is open; aggregates them afterwards."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array.array("H")
        self._start = array.array("q")
        self._end = array.array("q")
        self._parent = array.array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.wall_ns = 0

    def _wrap(self, name, fn, observe):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, start, end, parent = self._name, self._start, self._end, self._parent
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(start)
            start.append(t0)
            end.append(t0)
            names.append(nid)
            parent.append(stack[-1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()
            if observe is not None:
                observe(counts, name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Install every wrapper, count the wall time, restore on exit."""
        saved = []
        try:
            for owner, attr, name, observe in entry_points():
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, observe))
                else:
                    new = self._wrap(name, raw, observe)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            t0 = time.perf_counter_ns()
            try:
                yield self
            finally:
                self.wall_ns += time.perf_counter_ns() - t0
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # aggregation

    def arrays(self):
        """(name id, start, end, parent) as numpy arrays, one row per span."""
        # copies, so the arrays can keep growing in a later window
        return (
            np.array(self._name, dtype=np.int64),
            np.array(self._start, dtype=np.int64),
            np.array(self._end, dtype=np.int64),
            np.array(self._parent, dtype=np.int64),
        )

    def write(self, path: Path) -> None:
        nid, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=nid, start=start,
                 end=end, parent=parent)


class SpanSummary:
    """Per-name call counts, inclusive and self seconds of a finished trace."""

    def __init__(self, tracer: Tracer):
        nid, start, end, parent = tracer.arrays()
        self.names = list(tracer.names)
        self.counts = tracer.counts
        self.wall_s = tracer.wall_ns / 1e9
        self.span_count = len(nid)
        k = len(self.names)
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        self._nid, self._parent, self._dur = nid, parent, dur
        self.calls = np.bincount(nid, minlength=k)
        self.incl_s = np.bincount(nid, weights=dur, minlength=k) / 1e9
        self.self_s_by_name = np.bincount(nid, weights=self_t, minlength=k) / 1e9
        self.total_self_s = float(self_t.sum()) / 1e9
        # the time inside the traced window that no wrapped call covers
        self.unattributed_s = self.wall_s - float(dur[~nested].sum()) / 1e9

    def _idx(self, name):
        return self.names.index(name) if name in self.names else None

    def n(self, name) -> int:
        i = self._idx(name)
        return 0 if i is None else int(self.calls[i])

    def self_s(self, *names) -> float:
        return sum(float(self.self_s_by_name[i]) for i in map(self._idx, names)
                   if i is not None)

    def self_prefix(self, prefix) -> float:
        return sum(float(s) for nm, s in zip(self.names, self.self_s_by_name)
                   if nm.startswith(prefix))

    def incl_s_of(self, name) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self.incl_s[i])

    def under(self, child: str, parent: str, weight: bool = False) -> float:
        """Calls of ``child`` (or their seconds) made directly by ``parent``."""
        ci, pi = self._idx(child), self._idx(parent)
        if ci is None or pi is None:
            return 0.0
        mine = self._nid == ci
        has_parent = mine & (self._parent >= 0)
        sel = np.zeros(len(mine), dtype=bool)
        sel[has_parent] = self._nid[self._parent[has_parent]] == pi
        return float(self._dur[sel].sum()) / 1e9 if weight else float(sel.sum())


# per-layer metric name -> unit; every traced run reports all of them,
# 0 where the workload does not reach that layer
PER_LAYER = {
    "hashing.scalar_streams": "count",
    "hashing.batch_keys": "count",
    "hashing.self_s": "s",
    "core.query_fp.calls": "count",
    "core.query_fp.self_s": "s",
    "core.insert_fp.self_s": "s",
    "core.remove_fp.self_s": "s",
    "core.locate.self_s": "s",
    "core.extend_fp.calls": "count",
    "core.extend_fp.self_s": "s",
    "core.frozen_build.calls": "count",
    "core.frozen_build.self_s": "s",
    "core.frozen_query.keys": "count",
    "core.frozen_query.self_s": "s",
    "core.to_bytes_s": "s",
    "core.from_bytes_s": "s",
    "core.cluster_len_mean": "slots",
    "core.cluster_len_max": "slots",
    "revmap.accesses": "count",
    "revmap.self_s": "s",
    "revmap.to_bytes_s": "s",
    "revmap.from_bytes_s": "s",
    "revmap.bytes_per_key": "B/key",
    "filter.lookup.calls": "count",
    "filter.lookup.self_s": "s",
    "filter.insert.self_s": "s",
    "filter.delete.self_s": "s",
    "filter.adapt.calls": "count",
    "filter.adapt.self_s": "s",
    "filter.adaptivity_bits": "bits",
    "filter.adaptation_failures": "count",
    "filter.verdict.present": "count",
    "filter.verdict.not_present": "count",
    "filter.verdict.fp_corrected": "count",
    "filter.verdict.fp": "count",
    "filter.map_reads_per_positive": "ratio",
    "yesno.build.self_s": "s",
    "yesno.no_survivors": "count",
    "yesno.survivor_share": "ratio",
    "yesno.consumed_bits": "bits",
    "yesno.consumed_over_expected": "ratio",
    "setops.bulk_load.self_s": "s",
    "setops.bulk_load.keys_per_s": "keys/s",
    "workbench.gen_s": "s",
    "workbench.fill_self_s": "s",
    "workbench.checkpoint_s": "s",
    "workbench.checkpoints": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(s: SpanSummary, facts: dict) -> dict[str, float]:
    """Every PER_LAYER value from a finished trace plus the run's facts.

    facts carries what the spans cannot see: state deltas read through
    public attributes over the traced phase, cluster lengths after
    setup, the yes/no budget and the traced-vs-untraced overhead.
    """
    c = s.counts
    positives = c["verdict.present"] + c["verdict.false_positive_corrected"] + c[
        "verdict.false_positive"]
    survivors = s.under("filter.lookup", "yesno.build_static")
    consumed = facts.get("consumed_bits", 0)
    checkpoint = ("workbench.measure_fpr", "workbench.extra_bits_per_item",
                  "filter.frozen_index")
    out = {
        "hashing.scalar_streams": s.n("hashing.HashStream"),
        "hashing.batch_keys": c["hashing.split_batch.keys"],
        "hashing.self_s": s.self_prefix("hashing."),
        "core.query_fp.calls": s.n("core.query_fp"),
        "core.query_fp.self_s": s.self_s("core.query_fp"),
        "core.insert_fp.self_s": s.self_s("core.insert_fp"),
        "core.remove_fp.self_s": s.self_s("core.remove_fp"),
        "core.locate.self_s": s.self_s("core.get_ext", "core.get_count",
                                       "core.get_value", "core.set_count"),
        "core.extend_fp.calls": s.n("core.extend_fp"),
        "core.extend_fp.self_s": s.self_s("core.extend_fp"),
        "core.frozen_build.calls": s.n("core.frozen_build"),
        "core.frozen_build.self_s": s.self_s("core.frozen_build"),
        "core.frozen_query.keys": c["core.frozen_query.keys"],
        "core.frozen_query.self_s": s.self_s("core.frozen_query"),
        "core.to_bytes_s": s.incl_s_of("core.to_bytes"),
        "core.from_bytes_s": s.incl_s_of("core.from_bytes"),
        "core.cluster_len_mean": facts["cluster_len_mean"],
        "core.cluster_len_max": facts["cluster_len_max"],
        "revmap.accesses": facts["map_accesses"],
        "revmap.self_s": s.self_s("revmap.map_get", "revmap.map_insert",
                                  "revmap.map_remove", "revmap.find_rank",
                                  "revmap.list_size"),
        "revmap.to_bytes_s": s.incl_s_of("revmap.to_bytes"),
        "revmap.from_bytes_s": s.incl_s_of("revmap.from_bytes"),
        "revmap.bytes_per_key": _ratio(c["revmap.to_bytes.bytes"],
                                       c["revmap.to_bytes.keys"]),
        "filter.lookup.calls": s.n("filter.lookup"),
        "filter.lookup.self_s": s.self_s("filter.lookup"),
        "filter.insert.self_s": s.self_s("filter.insert"),
        "filter.delete.self_s": s.self_s("filter.delete"),
        "filter.adapt.calls": s.n("filter.adapt"),
        "filter.adapt.self_s": s.self_s("filter.adapt"),
        "filter.adaptivity_bits": facts["adaptivity_bits"],
        "filter.adaptation_failures": facts["adaptation_failures"],
        "filter.verdict.present": c["verdict.present"],
        "filter.verdict.not_present": c["verdict.not_present"],
        "filter.verdict.fp_corrected": c["verdict.false_positive_corrected"],
        "filter.verdict.fp": c["verdict.false_positive"],
        "filter.map_reads_per_positive": _ratio(s.n("revmap.map_get"), positives),
        "yesno.build.self_s": s.self_s("yesno.build_static"),
        "yesno.no_survivors": survivors,
        "yesno.survivor_share": _ratio(survivors, facts.get("no_keys", 0)),
        "yesno.consumed_bits": consumed,
        "yesno.consumed_over_expected": _ratio(consumed, facts.get("expected_bits", 0)),
        "setops.bulk_load.self_s": s.self_s("setops.bulk_load"),
        "setops.bulk_load.keys_per_s": _ratio(c["setops.bulk_load.keys"],
                                              s.incl_s_of("setops.bulk_load")),
        "workbench.gen_s": s.self_s("workbench.gen_workload", "workbench.make_probe_sets"),
        "workbench.fill_self_s": s.self_s("workbench.fill_to_load"),
        "workbench.checkpoint_s": sum(
            s.under(name, "workbench.run_adaptation_trace", weight=True)
            for name in checkpoint),
        "workbench.checkpoints": s.under("workbench.measure_fpr",
                                         "workbench.run_adaptation_trace"),
        "trace.overhead_frac": facts["overhead_frac"],
        "trace.unattributed_s": s.unattributed_s,
        "trace.wall_s": s.wall_s,
        "trace.spans": s.span_count,
    }
    return {name: float(value) for name, value in out.items()}
