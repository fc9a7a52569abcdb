"""Write or self-check the golden rows in ``goldens/``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/golden.py --write [WORKLOAD ...]
    PYTHONPATH=src python3 perfbench/golden.py --check-cli [WORKLOAD ...]

``--write`` computes every unit of each workload (for the fleet, once
per chaos fault seed) untraced, then again under the tracer to count
its guest operations; the traced rows must equal the untraced ones.
``--check-cli`` compares every golden row with the ``data`` that
``pvm-bench <exp> --json --no-cache --jobs 1`` prints at the same scale
and fault seed.  Units whose size parameters the CLI cannot express
(``procs``, ``concurrency``, ``density``, ``frames``, ``densities``)
are recomputed through the public experiment function instead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from plan import (FAULT_SEEDS, WORKLOADS, failed_rows, golden_path,
                  load_goldens, plan, same_value)

ROOT = Path(__file__).resolve().parent.parent


def _all_units(workload: str):
    """Every unit any seed can plan for ``workload``, by uid."""
    units = {}
    for seed in range(len(FAULT_SEEDS)):
        for unit in plan(workload, seed, with_goldens=False):
            units.setdefault(unit.uid, unit)
    return units


def write(workloads: List[str]) -> int:
    import tracer

    planned = {w: _all_units(w) for w in workloads}
    out: Dict[str, Dict[str, dict]] = {w: {} for w in workloads}
    for w, units in planned.items():
        for uid, unit in sorted(units.items()):
            rows = unit.compute()
            out[w][uid] = {
                "exp": unit.exp,
                "cli": unit.cli_args,
                "columns": unit.columns(),
                "rows": rows,
            }
            print(f"{w}: {uid}: {len(rows)} rows", file=sys.stderr)
    tr = tracer.Tracer()
    tracer.install(tr)
    for w, units in planned.items():
        for uid, unit in sorted(units.items()):
            before = tr.ops
            rows = tr.run_row(0, uid, unit.compute)
            bad = failed_rows(rows, json.loads(json.dumps(out[w][uid]["rows"])))
            if bad:
                print(f"{w}: {uid}: traced rows differ: {bad}", file=sys.stderr)
                return 1
            out[w][uid]["guest_ops"] = tr.ops - before
            tr.take_machines()
    for w in workloads:
        with open(golden_path(w), "w") as f:
            json.dump({
                "workload": w,
                "generated_by": "PYTHONPATH=src python3 perfbench/golden.py "
                                "--write",
                "units": out[w],
            }, f, indent=1)
            f.write("\n")
    return 0


def _cli_data(args: List[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.cli", *args,
         "--json", "--no-cache", "--jobs", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)[args[0]]["data"]


def check_cli(workloads: List[str]) -> int:
    bad = 0
    for w in workloads:
        goldens = load_goldens(w)
        units = _all_units(w)
        cli_cache: Dict[tuple, dict] = {}
        for uid, golden in sorted(goldens.items()):
            if golden["cli"] is None:
                rows = units[uid].compute()
                errors = failed_rows(rows, golden["rows"])
                how = "public function"
            else:
                key = tuple(golden["cli"])
                if key not in cli_cache:
                    cli_cache[key] = _cli_data(golden["cli"])
                data = cli_cache[key]
                errors = []
                for label, values in golden["rows"]:
                    cells = data.get(label)
                    want = dict(zip(golden["columns"], values))
                    if cells is None or list(cells) != list(want) or not all(
                        same_value(cells[c], want[c]) for c in want
                    ):
                        errors.append(f"row {label!r}: cli {cells!r}")
                how = "pvm-bench " + " ".join(golden["cli"])
            status = "ok" if not errors else f"MISMATCH {errors}"
            print(f"{w}: {uid} vs {how}: {status}")
            bad += bool(errors)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser()
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check-cli", action="store_true")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; "
                     f"choose from {list(WORKLOADS)}")
    workloads = args.workloads or list(WORKLOADS)
    return write(workloads) if args.write else check_cli(workloads)


if __name__ == "__main__":
    sys.exit(main())
