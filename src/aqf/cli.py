"""Command-line workbench: build filters, replay workloads, dump CSVs.

Exit codes: 0 on success, 1 on usage errors, 2 when a filter cannot be
built within its space budget.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .errors import ConstructionFailedError, FilterError, FilterFullError
from .filter import AdaptiveFilter, Policy
from .hashing import FilterConfig
from .setops import _fill, merge
from .workbench import (
    CHURN_SPACE,
    FILL_SPACE,
    WorkloadSpec,
    fill_to_load,
    report_csv,
    run_adaptation_trace,
    run_adversary,
    run_churn,
)
from .yesno import build_static, expected_adaptivity_bits, lower_bound_bits


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; we reserve 2 for construction failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_dist(text: str, count: int, seed: int) -> WorkloadSpec:
    if text == "uniform":
        return WorkloadSpec(kind="uniform", count=count, seed=seed)
    if text.startswith("zipf:"):
        parts = text.split(":")
        if len(parts) == 3:
            return WorkloadSpec(kind="zipfian", count=count, seed=seed,
                                s=float(parts[1]), universe=int(parts[2]))
    raise ValueError(f"bad --dist {text!r}; expected uniform or zipf:S:U")


def _load_keys(path: str) -> np.ndarray:
    keys = np.fromfile(path, dtype="<u8")
    if keys.size == 0:
        raise ValueError(f"{path} holds no keys")
    return keys


def _build_filter(args) -> tuple[AdaptiveFilter, np.ndarray]:
    cfg = FilterConfig(q=args.qbits, r=args.rbits, seed=args.seed)
    policy = Policy(auto_adapt=not getattr(args, "no_adapt", False))
    if getattr(args, "keys_file", None):
        return _fill(_load_keys(args.keys_file), cfg, policy)
    return fill_to_load(cfg, args.load, seed=args.seed, policy=policy)


def _print_space(f: AdaptiveFilter) -> None:
    rep = f.arr.space_report()
    print(f"slots        {f.arr.nslots}")
    print(f"fingerprints {len(f)}")
    print(f"load         {rep.load_factor:.4f}")
    print(f"total bits   {rep.total_bits}")
    print(f"bits/item    {rep.bits_per_item:.2f}")
    print(f"ext slots    {rep.extension_slots}")
    print(f"ctr slots    {rep.counter_slots}")


def _rows_out(rows, args, meta: dict) -> None:
    if args.csv:
        report_csv(rows, args.csv, meta=meta)
        print(f"wrote {len(rows)} rows to {args.csv}")
        return
    for row in rows:
        print(f"ops={row.ops_done} fpr={row.instantaneous_fpr:.3e} "
              f"extra_bits={row.bits_per_item_extra:.4f} "
              f"map_accesses={row.map_accesses} wall_ms={row.wall_nanos // 10**6}")


def cmd_build(args) -> int:
    f, _ = _build_filter(args)
    _print_space(f)
    if args.out:
        f.save(args.out)
        print(f"saved {args.out}")
    return 0


def cmd_trace(args) -> int:
    f, _ = _build_filter(args)
    if args.keys_file:
        workload = _load_keys(args.keys_file)
        meta_dist = f"file:{args.keys_file}"
    else:
        workload = _parse_dist(args.dist, args.count, args.seed)
        meta_dist = args.dist
    rows = run_adaptation_trace(f, workload, measure_every_pct=args.measure_every,
                                probe_sets=args.probe_sets, probe_size=args.probe_size)
    _rows_out(rows, args, {"cmd": "trace", "qbits": args.qbits, "rbits": args.rbits,
                           "seed": args.seed, "load": args.load, "dist": meta_dist,
                           "adapt": int(not args.no_adapt)})
    return 0


def cmd_adversary(args) -> int:
    f, _ = _build_filter(args)
    rep = run_adversary(f, warmup=args.warmup, total=args.count,
                        adv_frac=args.adv_frac, seed=args.seed)
    for name in ("warmup_queries", "attack_queries", "pool_size", "realized_fps",
                 "realized_fp_rate", "positives", "effective_qps", "degenerate_draws"):
        print(f"{name} {getattr(rep, name)}")
    return 0


def cmd_churn(args) -> int:
    f, keys = _build_filter(args)
    base = _parse_dist(args.dist, args.count, args.seed)
    if base.kind != "zipfian":
        raise ValueError("churn replays a zipfian stream; use --dist zipf:S:U")
    spec = WorkloadSpec(kind="churn", count=args.count, seed=args.seed,
                        s=base.s, universe=base.universe,
                        interval_pct=args.interval_pct, replace_pct=args.replace_pct)
    rows = run_churn(f, keys, spec, probe_sets=args.probe_sets,
                     probe_size=args.probe_size)
    _rows_out(rows, args, {"cmd": "churn", "qbits": args.qbits, "rbits": args.rbits,
                           "seed": args.seed, "dist": args.dist,
                           "interval_pct": args.interval_pct,
                           "replace_pct": args.replace_pct})
    return 0


def cmd_yesno(args) -> int:
    if args.yes_file:
        yes = _load_keys(args.yes_file)
    else:
        rng = np.random.default_rng(args.seed)
        yes = rng.integers(FILL_SPACE[0], FILL_SPACE[1], size=args.yes, dtype=np.uint64)
    if args.no_file:
        no = _load_keys(args.no_file)
    else:
        rng = np.random.default_rng(args.seed + 1)
        no = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=args.no, dtype=np.uint64)
    yn = build_static(yes, no, args.epsilon, slack=args.slack, seed=args.seed)
    p = yn.params
    print(f"n {p.n}  m {p.m}  epsilon {p.epsilon}  mu {p.mu:.4f}")
    print(f"qbits {yn.inner.cfg.q}  rbits {yn.inner.cfg.r}")
    print(f"budget bits    {yn.budget_bits}")
    print(f"consumed bits  {yn.consumed_adaptivity_bits}")
    print(f"expected bits  {expected_adaptivity_bits(p):.1f}")
    print(f"space bits     {yn.space_bits()}")
    if p.epsilon <= 0.5:
        print(f"lower bound    {lower_bound_bits(p):.1f}")
    else:
        print("lower bound    n/a (defined for epsilon <= 1/2)")
    if args.out:
        yn.save(args.out)
        print(f"saved {args.out}")
    return 0


def cmd_merge(args) -> int:
    a = AdaptiveFilter.load(args.a)
    b = AdaptiveFilter.load(args.b)
    merged = merge(a, b)
    merged.save(args.out)
    _print_space(merged)
    print(f"saved {args.out}")
    return 0


def cmd_bench(args) -> int:
    f, keys = _build_filter(args)
    rng = np.random.default_rng(args.seed + 1)
    pos = rng.choice(keys, size=min(args.count, len(keys)))
    neg = rng.integers(CHURN_SPACE[0], CHURN_SPACE[1], size=args.count, dtype=np.uint64)

    t0 = time.perf_counter()
    for k in pos:
        f.contains(int(k))
    t1 = time.perf_counter()
    for k in neg:
        f.contains(int(k))
    t2 = time.perf_counter()
    # builds the cached index on the way, as a first batch does
    f.lookup_many(neg)
    t3 = time.perf_counter()
    idx = f.frozen_index()
    idx.query_keys(neg)
    t4 = time.perf_counter()

    print(f"positive lookups {len(pos) / (t1 - t0):,.0f}/s")
    print(f"negative lookups {len(neg) / (t2 - t1):,.0f}/s")
    print(f"batch lookups    {len(neg) / (t3 - t2):,.0f}/s")
    print(f"frozen batch     {len(neg) / (t4 - t3):,.0f}/s")
    return 0


def _add_geometry(p, load=True):
    p.add_argument("--qbits", type=int, required=True, help="log2 of the slot count")
    p.add_argument("--rbits", type=int, required=True, help="remainder bits per slot")
    p.add_argument("--seed", type=int, default=0, help="hash and workload seed")
    if load:
        p.add_argument("--load", type=float, default=0.90,
                       help="fill fraction of the slot array")
        p.add_argument("--keys-file", help="raw little-endian u64 keys to insert")


def _add_probes(p):
    p.add_argument("--probe-sets", type=int, default=20)
    p.add_argument("--probe-size", type=int, default=100_000)
    p.add_argument("--csv", help="write the trace here instead of stdout")


def build_parser() -> _Parser:
    top = _Parser(prog="aqf", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="fill a filter and report its space")
    _add_geometry(p)
    p.add_argument("--out", help="snapshot path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("trace", help="adapting query run with FPR checkpoints")
    _add_geometry(p)
    p.add_argument("--count", type=int, default=1_000_000, help="queries to run")
    p.add_argument("--dist", default="zipf:1.5:10000000",
                   help="uniform or zipf:S:U (--keys-file overrides)")
    p.add_argument("--measure-every", type=int, default=10, metavar="PCT")
    p.add_argument("--no-adapt", action="store_true", help="freeze the filter")
    _add_probes(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("adversary", help="replay discovered false positives")
    _add_geometry(p)
    p.add_argument("--count", type=int, default=1_000_000, help="attack queries")
    p.add_argument("--warmup", type=int, default=100_000)
    p.add_argument("--adv-frac", type=float, default=0.1)
    p.add_argument("--no-adapt", action="store_true")
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("churn", help="zipfian queries with delete/replace events")
    _add_geometry(p)
    p.add_argument("--count", type=int, default=1_000_000)
    p.add_argument("--dist", default="zipf:1.5:10000000")
    p.add_argument("--interval-pct", type=int, default=10)
    p.add_argument("--replace-pct", type=int, default=20)
    _add_probes(p)
    p.set_defaults(func=cmd_churn)

    p = sub.add_parser("yesno", help="build a yes/no list pair and report bounds")
    p.add_argument("--yes", type=int, default=1000, help="yes-list size")
    p.add_argument("--no", type=int, default=100_000, help="no-list size")
    p.add_argument("--epsilon", type=float, default=2**-9)
    p.add_argument("--slack", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--yes-file", help="raw u64 yes keys")
    p.add_argument("--no-file", help="raw u64 no keys")
    p.add_argument("--out", help="snapshot path")
    p.set_defaults(func=cmd_yesno)

    p = sub.add_parser("merge", help="merge two snapshots")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("out")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("bench", help="lookup throughput on a filled filter")
    _add_geometry(p)
    p.add_argument("--count", type=int, default=100_000, help="queries per phase")
    p.set_defaults(func=cmd_bench)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionFailedError, FilterFullError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 2
    except (FilterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
