"""Host-time benchmark of the PVM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fault-storm --seed 1 --seconds 20 --trace 0

Each pass runs in a fresh interpreter (``worker.py``) that imports
``repro``, plans the workload's rows, computes them serially with no
result cache and checks each against its golden copy.  Passes repeat
until ``--seconds`` is used up (at least two), and the end-to-end
metrics are medians over passes.  ``setup_s`` is also sampled by extra
set-up-only interpreters.  Times are normalised by a host-speed probe
sampled throughout each pass (see ``PROBE_REF_S``).  With
``--trace 1`` the first pass runs under the layer tracer, later passes
run untraced, and the per-layer metrics come from the traced pass; its
Chrome trace goes to ``perfbench/out/trace-<workload>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (rows) and ``metrics``.  The exit code is
non-zero, with no JSON line, when a pass cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("fault-storm", "exit-storm", "proc-lifecycle", "fleet")
MIN_PASSES = 2
SETUP_SAMPLES = 8
#: Duration of the worker's speed-probe loop on the reference host (a
#: shared 2-core x86 VM).  ``wall_s`` is each pass's host time scaled by
#: (PROBE_REF_S / its mean probe duration) ** PROBE_EXPONENT: the time
#: the pass would take at the reference host speed.  ``setup_s`` is
#: scaled the same way by the median probe of the run's passes.
PROBE_REF_S = 0.004
#: The simulator's host time grows as the probe's to this power: a
#: log-log fit over back-to-back passes gave 0.845 (proc-lifecycle, 20
#: passes) and 0.86 (fleet, 14 passes).
PROBE_EXPONENT = 0.85
#: Hard cap on one invocation, below the 180 s a run may take.
DEADLINE_S = 165.0


class PassError(RuntimeError):
    """A worker interpreter failed to run (not a failed row)."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Bytecode goes to the ignored output directory, warmed by the
        # first set-up-only pass, so setup_s measures a warm import.
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


def _spawn(args: List[str], timeout: float) -> dict:
    """Run one worker; returns its JSON line plus ``setup_s``/``elapsed``."""
    if timeout <= 0:
        raise PassError("time budget exhausted")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise PassError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["planned_at"] - start
    result["elapsed"] = time.monotonic() - start
    return result


def _speed(probe_s: float) -> float:
    """Factor that scales host time to the reference host speed."""
    return (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


def _layer_metrics(traced: dict, untraced_wall: float) -> Dict[str, dict]:
    metrics: Dict[str, dict] = {}
    for layer, row in traced["layers"].items():
        metrics[f"{layer}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": row["self_s"], "unit": "s"}
    s = traced["stats"]
    for name, hits, lookups in (("hw.tlb.hit_ratio", "tlb_hits", "tlb_lookups"),
                                ("hw.psc.hit_ratio", "psc_hits", "psc_lookups")):
        ratio = s[hits] / s[lookups] if s[lookups] else 0.0
        metrics[name] = {"value": ratio, "unit": "ratio"}
    for name, key in (("hw.events.world_switches", "world_switches"),
                      ("hw.events.l0_traps", "l0_traps"),
                      ("hw.events.guest_faults", "guest_faults")):
        metrics[name] = {"value": s[key], "unit": "count"}
    metrics["sim.locks.wait_virtual_ns"] = {"value": s["lock_wait_ns"],
                                            "unit": "ns"}
    metrics["trace_overhead"] = {"value": traced["wall_s"] / untraced_wall,
                                 "unit": "x"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    start = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    traced = None
    setups: List[float] = []
    passes: List[dict] = []
    try:
        _spawn(common + ["--setup-only"], remaining())  # warm bytecode
        window = time.monotonic()
        if args.trace:
            traced = _spawn(common + ["--trace", str(
                OUT / f"trace-{args.workload}.json")], remaining())
        else:
            setups = [_spawn(common + ["--setup-only"], remaining())["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            window = time.monotonic()
        min_passes = 1 if args.trace else MIN_PASSES
        while True:
            if passes:
                typical = statistics.median(p["elapsed"] for p in passes)
                used = time.monotonic() - window
                if typical > remaining() or (
                        len(passes) >= min_passes
                        and used + typical > args.seconds):
                    break
            passes.append(_spawn(common, remaining()))
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    every = passes + ([traced] if traced else [])
    for p in every:
        for failure in p["failures"]:
            print(f"perfbench: failed row: {failure}", file=sys.stderr)
    if traced:
        metrics = _layer_metrics(
            traced, statistics.median(p["wall_s"] for p in passes))
    else:
        wall = statistics.median(
            p["wall_s"] * _speed(p["probe_s"]) for p in passes)
        # Set-up interpreters are too short to probe; they ran seconds
        # before the passes, so the passes' probe stands in for them.
        speed = _speed(statistics.median(p["probe_s"] for p in passes))
        setup = statistics.median(setups + [p["setup_s"] for p in passes])
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup * speed, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MiB"},
            "guest_ops_per_s": {"value": passes[0]["guest_ops"] / wall,
                                "unit": "1/s"},
        }
    print(f"{args.workload} seed={args.seed}: {len(passes)} untraced "
          f"pass(es){', 1 traced' if traced else ''}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    failed = sum(p["failed"] for p in every)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in every),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
