"""``pvm-bench``: regenerate the paper's tables and figures.

Examples::

    pvm-bench --list
    pvm-bench table1 table2
    pvm-bench fig10 --scale 2.0
    pvm-bench all --jobs 4          # fan rows across 4 worker processes
    pvm-bench all --no-cache        # recompute everything
    pvm-bench all --cache-dir /tmp/c

Experiment runs always go through the work-unit engine
(:mod:`repro.bench.parallel`): ``--jobs 1`` computes the same units
in-process, so parallel output is bit-identical to serial output.  A
content-keyed result cache (:mod:`repro.bench.cache`) is on by default;
re-running after a change that does not touch ``src/repro`` or the cost
model serves every row from disk (the trailing ``cache:`` stats line
shows the hit rate).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List

from repro.bench.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.parallel import RunStats, run_experiments
from repro.bench.report import render, render_chart


def _stats_line(stats: RunStats, cache_enabled: bool) -> str:
    """The trailing cache/fan-out summary printed after the tables."""
    if cache_enabled:
        total = stats.cache_hits + stats.computed
        rate = stats.cache_hits / total if total else 0.0
        cache_part = (f"cache: {stats.cache_hits} hits, "
                      f"{stats.computed} misses ({rate:.0%} hit rate)")
    else:
        cache_part = "cache: off"
    return (f"{cache_part} | {stats.units} units @ {stats.jobs} jobs | "
            f"{stats.wall_seconds:.1f}s wall "
            f"({stats.compute_seconds:.1f}s compute)")


def _scale(text: str) -> float:
    """``--scale``: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value


def _jobs(text: str) -> int:
    """``--jobs``: a whole number of worker processes, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="pvm-bench",
        description="Regenerate the PVM paper's tables and figures "
                    "on the simulation substrate.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (table1, table2, fig2, fig4, fig10, table3, "
             "table4, fig11, fig12, fig13, chaos, overcommit) or 'all'; "
             "'wallclock' runs the simulator-throughput microbenchmark; "
             "'selftest' runs the sanitizer bug drills + a sanitized "
             "chaos smoke",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--scale", type=_scale, default=1.0,
        help="workload scale factor (1.0 = quick default)",
    )
    parser.add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes for the row fan-out (1 = in-process; "
             "output is bit-identical either way)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache and recompute every work unit",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"result-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="re-seed the chaos experiment's fault plan; its rows are "
             "then computed directly (serial, never cached) since the "
             "result cache keys on code, not runtime parameters",
    )
    parser.add_argument(
        "--sanitize", nargs="?", const="sampled", default=None,
        choices=["sampled", "full"], metavar="MODE",
        help="attach the runtime sanitizers (repro.sanitize) to every "
             "machine: MODE is 'sampled' (default) or 'full'; implies "
             "recomputing every row, since cached rows would skip the "
             "checks",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="render figures as ASCII bar charts instead of tables",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON instead of tables",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="(wallclock only) rewrite BENCH_walk.json from this run",
    )
    args = parser.parse_args(argv)

    if args.sanitize is not None:
        # Machines consult PVM_SANITIZE at construction, so the flag
        # reaches every machine any experiment builds — including in
        # worker processes, which inherit the environment.
        os.environ["PVM_SANITIZE"] = args.sanitize

    if "selftest" in args.experiments:
        # Sanitizer smoke gate: seeded bug drills (each checker must
        # catch its planted bug) + one sanitized chaos scenario.
        from repro.sanitize.selftest import run_selftest

        return run_selftest(mode=args.sanitize or "sampled")

    if "wallclock" in args.experiments:
        # Simulator-throughput benchmark: separate driver, separate
        # output contract (one-line summary + baseline gate).
        from repro.bench.wallclock import run_wallclock

        return run_wallclock(
            scale=args.scale, update_baseline=args.update_baseline
        )

    if args.list or not args.experiments:
        for exp_id, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{exp_id:8s} {doc}")
        return 0

    wanted = list(ALL_EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [e for e in wanted if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2

    use_cache = not args.no_cache and args.sanitize is None
    cache = ResultCache(args.cache_dir) if use_cache else None
    engine_wanted = list(dict.fromkeys(wanted))
    reseeded = {}
    if args.fault_seed is not None or args.sanitize is not None:
        # A re-seeded (or sanitized) fault-driven run is a different
        # result than the canonical one; the cache keys on code + scale
        # only, so route it around the work-unit engine entirely.
        from repro.bench.experiments import chaos, overcommit

        for exp_id, fn in (("chaos", chaos), ("overcommit", overcommit)):
            if exp_id in engine_wanted:
                engine_wanted.remove(exp_id)
                reseeded[exp_id] = fn(
                    scale=args.scale, seed=args.fault_seed,
                    sanitize=args.sanitize is not None,
                )
    results, stats = run_experiments(
        engine_wanted, scale=args.scale, jobs=args.jobs, cache=cache
    )
    results.update(reseeded)
    if args.as_json:
        json_out = {
            exp_id: {
                "title": results[exp_id].title,
                "unit": results[exp_id].unit,
                "notes": results[exp_id].notes,
                "data": results[exp_id].as_dict(),
            }
            for exp_id in dict.fromkeys(wanted)
        }
        json_out["_run"] = {
            "jobs": stats.jobs,
            "units": stats.units,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.computed,
            "wall_seconds": round(stats.wall_seconds, 2),
            "compute_seconds": round(stats.compute_seconds, 2),
        }
        print(json.dumps(json_out, indent=2, default=str))
        return 0
    for exp_id in dict.fromkeys(wanted):
        result = results[exp_id]
        print(render_chart(result) if args.chart else render(result))
        print()
    print(_stats_line(stats, cache_enabled=cache is not None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
