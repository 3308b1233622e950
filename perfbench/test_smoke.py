"""Smoke test of the benchmark itself, at tiny geometry.

    python3 -m pytest perfbench

Each workload runs traced and untraced in a few hundred milliseconds.
The repository's own test suite does not collect this file.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.load_aqf()

import workloads  # noqa: E402
from aqf import AdaptiveFilter, StateCorruptionError  # noqa: E402
from spans import PER_LAYER, SpanSummary  # noqa: E402
from workloads import END_TO_END, SHAPES, Shape, execute  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "zipf-trace": Shape(q=10, load=0.9, ops_per_second=2_000, probe_size=2_000),
    "mixed-churn": Shape(q=10, load=0.85, ops_per_second=2_000),
    "build-persist": Shape(q=10, load=0.9, n_yes=64, n_no=4_096, probe_size=4_096),
}


def units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(TINY) == set(SHAPES) == set(run.WORKLOAD_NAMES)
    assert units(BENCHMARK["end_to_end"]) == END_TO_END
    assert units(BENCHMARK["per_layer"]) == PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric(name, trace):
    rep, tracer = execute(name, TINY[name], seed=1, seconds=1, trace=trace)
    assert rep.correct and rep.attempted > 0
    result = json.loads(run.result_line(rep, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = units(BENCHMARK["per_layer" if trace else "end_to_end"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = [v["value"] for v in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert tracer is None
        assert all(v > 0 for v in values)
        return
    summary = SpanSummary(tracer)
    assert summary.span_count > 0
    assert (summary.self_s_by_name >= 0).all()
    assert summary.unattributed_s >= 0
    assert rep.layers["trace.unattributed_s"] == summary.unattributed_s
    assert rep.layers["trace.wall_s"] == summary.wall_s
    assert summary.total_self_s + summary.unattributed_s == pytest.approx(
        summary.wall_s, rel=1e-9, abs=1e-9)


def test_tracer_leaves_the_library_as_it_was():
    before = AdaptiveFilter.lookup, AdaptiveFilter.from_bytes
    execute("mixed-churn", TINY["mixed-churn"], seed=3, seconds=1, trace=True)
    assert (AdaptiveFilter.lookup, AdaptiveFilter.from_bytes) == before


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    def broken(self):
        raise StateCorruptionError("injected")

    monkeypatch.setattr(workloads, "SHAPES", TINY)
    monkeypatch.setattr(AdaptiveFilter, "check_consistency", broken)
    code = run.main(["--workload", "mixed-churn", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf-trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
