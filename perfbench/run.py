"""Benchmark for the aqf package: one workload per run, one result line.

    python3 perfbench/run.py --workload zipf-trace --seed 2 --seconds 10 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else, so the run fails (exit 2, no result line)
when the source tree is missing.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` a separate traced run's per-layer metrics, whose
spans are also written to ``.perfbench_out/``.  Human-readable lines come
first; the last line of standard output is the JSON result.  The exit
code is 1 when any output check failed.  See NOTES.md for the workloads
and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("zipf-trace", "mixed-churn", "build-persist")


class SourceMissing(RuntimeError):
    pass


def load_aqf():
    """Import aqf from this checkout's src/, refusing any other copy."""
    if not (SRC / "aqf" / "__init__.py").is_file():
        raise SourceMissing(f"no aqf package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import aqf

    if SRC not in Path(aqf.__file__).resolve().parents:
        raise SourceMissing(f"aqf was imported from {aqf.__file__}, not {SRC}")
    return aqf


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(rep, env, trace: bool) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    # "metric" lines are in the result line, "figure" lines only here
    rows = [("metric", name, v) for name, v in rep.metrics.items()]
    rows += [("figure", name, v) for name, v in rep.extras.items()]
    rows.append(("figure", "fail_frac", (rep.failed / max(1, rep.attempted), "ratio",
                                         f"{rep.failed} of {rep.attempted} failed")))
    for kind, name, (value, unit, detail) in rows:
        print(f"{kind} {name} {_fmt(value)} {unit}" + (f"  ({detail})" if detail else ""))
    if trace:
        from spans import PER_LAYER

        for name, value in rep.layers.items():
            print(f"layer {name} {_fmt(value)} {PER_LAYER[name]}")
        print(f"overhead {rep.layers['trace.overhead_frac']:+.3f} "
              "(traced vs untraced time per op)")
    for name, bad, total in rep.checks:
        print(f"check {name} {'ok' if not bad else 'FAIL'} {total - bad}/{total}")
    print("behaviour " + json.dumps(rep.behaviour, sort_keys=True))


def result_line(rep, trace: bool) -> str:
    if trace:
        from spans import PER_LAYER

        metrics = {k: {"value": rep.layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        from workloads import END_TO_END

        metrics = {k: {"value": rep.metrics[k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    return json.dumps({"correct": rep.correct, "attempted": rep.attempted,
                       "failed": rep.failed, "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed non-negative")
    try:
        load_aqf()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from workloads import SHAPES, execute

    trace = bool(args.trace)
    rep, tracer = execute(args.workload, SHAPES[args.workload], args.seed,
                          args.seconds, trace)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.npz")
    print_report(rep, environment(args), trace)
    print(result_line(rep, trace), flush=True)
    return 0 if rep.correct else 1


if __name__ == "__main__":
    sys.exit(main())
