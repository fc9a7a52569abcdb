"""Workload definitions, row planning and the golden-row check.

A workload is a list of *units*.  A unit computes one or more rows of a
paper artifact exactly the way ``pvm-bench <exp> --json --no-cache
--jobs 1`` computes them:

* ``Spec`` units call ``EXPERIMENT_SPECS[exp].compute_row(key, scale)``,
  one unit per row key (the CLI's own work units);
* ``Call`` units call the public experiment function
  (``ALL_EXPERIMENTS[exp](**kwargs)``) where a size parameter the CLI
  does not expose (``procs``, ``concurrency``, ``density``, ``frames``,
  ``densities``) or a re-seeded fault plan is needed.

Every unit's rows are compared bit for bit (``repr`` equality, so NaN
equals NaN and -0.0 differs from 0.0) with the checked-in golden copy
in ``goldens/<workload>.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments import ALL_EXPERIMENTS, EXPERIMENT_SPECS

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Chaos fault-plan seeds of the ``fleet`` workload; ``--seed n`` picks
#: ``FAULT_SEEDS[n % len(FAULT_SEEDS)]``.  Goldens exist for each one.
FAULT_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)

Row = Tuple[str, List[float]]


@dataclass(frozen=True)
class Spec:
    """Rows of ``exp`` through its spec work units at ``scale``."""

    exp: str
    scale: float
    keys: Optional[Tuple[str, ...]] = None  # None = every row key


@dataclass(frozen=True)
class Call:
    """All rows of ``exp`` through its public function."""

    exp: str
    kwargs: Tuple[Tuple[str, object], ...]


def call(exp: str, **kwargs) -> Call:
    return Call(exp, tuple(sorted(kwargs.items())))


#: Sizes are chosen so one untraced pass of each workload takes roughly
#: 5-16 s on a 2-core host; see README.md for what each one stresses.
#: The ``seed`` keyword of the fleet's chaos unit is filled in per run.
WORKLOADS: Dict[str, Tuple[object, ...]] = {
    "fault-storm": (
        Spec("fig4", 0.25),
        call("fig10", scale=0.25, procs=(1, 4)),
    ),
    "exit-storm": (
        Spec("table1", 25.0),
        Spec("table2", 25.0),
        Spec("switchcost", 25.0),
    ),
    "proc-lifecycle": (
        call("table3", concurrency=(1, 4)),
        Spec("table4", 1.0),
    ),
    "fleet": (
        call("fig12", density=(8,), frames=1),
        call("bootstorm", densities=(1, 50, 150)),
        Spec("overcommit", 1.0, keys=("1.5x",)),
        call("chaos", scale=1.0, seed=None),
    ),
}


@dataclass
class Unit:
    """One independently computed group of rows."""

    uid: str
    exp: str
    compute: Callable[[], List[Row]]
    columns: Callable[[], List[str]]
    #: CLI arguments that reproduce these rows, or None when the CLI has
    #: no flag for a parameter the unit uses.
    cli_args: Optional[List[str]] = None
    golden: Optional[dict] = field(default=None, repr=False)


def _spec_units(item: Spec) -> List[Unit]:
    spec = EXPERIMENT_SPECS[item.exp]
    keys = item.keys or spec.row_keys(item.scale)
    return [
        Unit(
            uid=f"{item.exp}/{key}@{item.scale}",
            exp=item.exp,
            compute=lambda key=key: [spec.compute_row(key, item.scale)],
            columns=lambda: list(spec.header(item.scale).columns),
            cli_args=[item.exp, "--scale", repr(item.scale)],
        )
        for key in keys
    ]


def _call_unit(item: Call, fault_seed: int) -> Unit:
    kwargs = {k: (fault_seed if k == "seed" else v) for k, v in item.kwargs}
    fn = ALL_EXPERIMENTS[item.exp]
    cli_args = None
    if set(kwargs) <= {"scale", "seed"}:
        cli_args = [item.exp, "--scale", repr(kwargs.get("scale", 1.0))]
        if "seed" in kwargs:
            cli_args += ["--fault-seed", str(kwargs["seed"])]
    result: Dict[str, object] = {}

    def compute() -> List[Row]:
        res = fn(**kwargs)
        result["columns"] = list(res.columns)
        return [(label, list(values)) for label, values in res.rows]

    args = ", ".join(f"{k}={v!r}" for k, v in sorted(kwargs.items()))
    return Unit(
        uid=f"{item.exp}({args})",
        exp=item.exp,
        compute=compute,
        columns=lambda: result["columns"],
        cli_args=cli_args,
    )


def plan(workload: str, seed: int, with_goldens: bool = True) -> List[Unit]:
    """The workload's units in paper order, goldens attached.

    ``seed`` only picks the fleet's chaos fault seed: the other rows are
    deterministic artifacts with no random input.  The order is fixed
    because it moves peak RSS through allocator fragmentation (25 vs
    30 MiB for two orders of fault-storm), not because values depend
    on it.
    """
    units: List[Unit] = []
    for item in WORKLOADS[workload]:
        if isinstance(item, Spec):
            units.extend(_spec_units(item))
        else:
            units.append(
                _call_unit(item, FAULT_SEEDS[seed % len(FAULT_SEEDS)]))
    if with_goldens:
        goldens = load_goldens(workload)
        for unit in units:
            unit.golden = goldens.get(unit.uid)
            if unit.golden is None:
                raise KeyError(f"{workload}: no golden for unit {unit.uid}")
    return units


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_goldens(workload: str) -> Dict[str, dict]:
    with open(golden_path(workload)) as f:
        return json.load(f)["units"]


def same_value(a: object, b: object) -> bool:
    """Bit-identical as JSON would print it; NaN equals NaN."""
    return repr(a) == repr(b)


def failed_rows(got: Sequence[Row], golden: Sequence[Sequence]) -> List[str]:
    """Descriptions of golden rows that ``got`` does not reproduce."""
    if len(got) != len(golden):
        return [f"{len(got)} rows, golden has {len(golden)}"] * len(golden)
    bad = []
    for (label, values), (g_label, g_values) in zip(got, golden):
        if label != g_label or len(values) != len(g_values) or not all(
            same_value(a, b) for a, b in zip(values, g_values)
        ):
            bad.append(f"row {g_label!r}: got {label!r} {values!r}, "
                       f"golden {g_values!r}")
    return bad
