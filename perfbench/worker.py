"""One benchmark pass in a fresh interpreter.

Usage (normally spawned by ``run.py`` with ``PYTHONPATH=src``)::

    python3 perfbench/worker.py --workload fault-storm --seed 1
    python3 perfbench/worker.py --workload fleet --seed 1 --setup-only
    python3 perfbench/worker.py --workload fleet --seed 1 --trace out.json

Imports ``repro``, plans the workload's rows, computes each unit
serially (no result cache, no worker pool), checks every row against
its golden copy and prints one JSON line: the monotonic time at which
planning finished (the spawner turns it into ``setup_s``), the host
seconds spent computing rows, the host-speed probe, peak RSS and the
failed-row count.  With ``--trace`` the layers are wrapped first (see
``tracer.py``), a Chrome trace is written to the given path and the
per-layer table and simulated statistics are added to
the line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time


def _probe_step(x: int) -> int:
    return (x * 1103515245 + 12345) & 0xFFFF


def probe_loop(table: dict, n: int = 10_000) -> float:
    """Seconds for a fixed pure-Python loop of calls, arithmetic and
    dict updates.  It allocates no container objects and runs with the
    collector off, so the simulator's heap cannot change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = 1
        for _ in range(n):
            x = _probe_step(x)
            key = x & 1023
            table[key] = table.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples host speed every ``interval`` s of a pass from SIGALRM.

    The host is shared and its speed drifts within seconds; the mean
    probe duration over a pass tracks that drift, which ``run.py`` uses
    to normalise the pass time.  Time spent probing is returned by
    :meth:`stop` so it can be taken out of the pass time.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.table = dict.fromkeys(range(1024), 0)
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(probe_loop(self.table))
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._sample()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        spent = self.spent
        self._sample()
        return spent

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="PATH")
    args = parser.parse_args()

    from plan import failed_rows, plan

    units = plan(args.workload, args.seed)
    planned_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"planned_at": planned_at}))
        return 0

    tr = probe = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
        stats = dict.fromkeys(tracer.machine_stats([]), 0)
    else:
        probe = SpeedProbe()
        probe.start()

    attempted = failed = guest_ops = 0
    failures = []
    wall = 0.0
    for row, unit in enumerate(units):
        golden = unit.golden
        attempted += len(golden["rows"])
        start = time.perf_counter()
        try:
            if tr is None:
                rows = unit.compute()
            else:
                ops_before = tr.ops
                rows = tr.run_row(row, unit.uid, unit.compute)
        except Exception as exc:  # a raising row is a failed row
            wall += time.perf_counter() - start
            failed += len(golden["rows"])
            failures.append(f"{unit.uid}: {type(exc).__name__}: {exc}")
            continue
        wall += time.perf_counter() - start
        bad = [f"{unit.uid}: {msg}"
               for msg in failed_rows(rows, golden["rows"])]
        if tr is not None:
            ops = tr.ops - ops_before
            if ops != golden["guest_ops"] and not bad:
                bad = [f"{unit.uid}: {ops} guest ops, golden "
                       f"{golden['guest_ops']}"] * len(golden["rows"])
            for key, value in tracer.machine_stats(tr.take_machines()).items():
                stats[key] += value
        guest_ops += golden["guest_ops"]
        failed += len(bad)
        failures.extend(bad)

    out = {
        "planned_at": planned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "guest_ops": guest_ops,
    }
    if probe is not None:
        wall -= probe.stop()
        out["probe_s"] = probe.mean
    out["wall_s"] = wall
    if tr is not None:
        tr.write_chrome_trace(args.trace, [u.uid for u in units])
        out["layers"] = tr.layer_table()
        out["stats"] = stats
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
