"""Per-layer tracing of the simulator from outside its source tree.

A layer is a module (or package) of ``repro``.  :func:`install` wraps
the public entry points of every layer — public methods (plus
``__init__``) of the classes a layer module defines, and its public
module-level functions wherever they were imported — so each call that
enters a layer from another layer opens a span.  Calls inside one layer
are not boundary crossings and pass straight through.  Private helpers
are never wrapped: ``hw.types.table_index`` alone runs millions of
times per fault-storm row.

Spans opened outside any guest operation (rows, fleet launches, engine
runs, set-up of machines) are kept in full: name, start, end, parent
span and row.  A guest operation is an outermost call to one of
:data:`GUEST_OPS` on a machine; it and everything below it are only
aggregated (calls and self time per layer, op counts per row), which
keeps memory flat however many pages a row touches.

A layer's self time is its span time minus the time of the child spans
it opened.  Modules outside :data:`LAYERS` (``hw.tlb``, ``sim.clock``,
...) are not wrapped, so their time lands in the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import types
from enum import Enum
from typing import Dict, List

LAYERS = (
    "hw.pagetable", "hw.mmu", "hw.memory", "hw.events", "hw.vmx",
    "core.shadow", "core.switcher", "core.sptlocks", "core.pvm_machine",
    "hypervisors", "guest.kernel", "sim.engine", "sim.locks",
    "containers.runtime", "memory.qos", "io.balloon", "workloads", "bench",
)

#: Public guest-operation methods of ``Machine`` (and the nested exit
#: probe) — the unit of ``guest_ops_per_s``.
GUEST_OPS = frozenset({
    "touch", "mmap", "munmap", "mprotect", "syscall", "fork", "exec",
    "exit", "compute", "halt", "context_switch", "blk_read", "blk_write",
    "net_send", "net_recv", "hypercall", "exception", "msr_access",
    "cpuid", "pio", "l2_exit_to_l1",
})
_GUEST_OP_LAYERS = ("hypervisors", "core.pvm_machine")

#: Full spans kept per traced pass; later ones are only aggregated.
SPAN_CAP = 50_000

_BENCH = LAYERS.index("bench")


def layer_of(module_name: str):
    """Index in :data:`LAYERS` of the layer owning ``module_name``."""
    for i, layer in enumerate(LAYERS):
        prefix = "repro." + layer
        if module_name == prefix or module_name.startswith(prefix + "."):
            return i
    return None


class Tracer:
    """Span stack, per-layer aggregates and the full-span log."""

    def __init__(self) -> None:
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        #: Layer of the innermost open span (-1 = none).
        self.cur = -1
        #: One ``[child_seconds]`` cell per open span.
        self.stack: List[List[float]] = []
        self.in_op = False
        self.ops = 0
        #: (row, op name) -> outermost guest-op calls.
        self.op_calls: Dict[tuple, int] = {}
        #: Full spans: (name, layer, start, end, parent, row).
        self.spans: List[tuple] = []
        self.open_span = -1
        self.dropped = 0
        self.row = -1
        self.t0 = time.perf_counter()
        #: Machines built since the last :meth:`take_machines`.
        self.machines: List[object] = []

    def wrap(self, fn, layer: int, name: str, guest_op: bool = False,
             full: bool = True):
        """``fn`` with a span of ``layer`` around every boundary call."""
        tr = self
        clock = time.perf_counter
        calls, self_s, stack, spans = tr.calls, tr.self_s, tr.stack, tr.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = guest_op and not tr.in_op
            if not op and tr.cur == layer:
                return fn(*args, **kwargs)
            prev, parent = tr.cur, tr.open_span
            index = -1
            if op:
                tr.in_op = True
                tr.ops += 1
                key = (tr.row, name)
                tr.op_calls[key] = tr.op_calls.get(key, 0) + 1
            elif full and not tr.in_op:
                if len(spans) < SPAN_CAP:
                    index = len(spans)
                    spans.append(None)
                    tr.open_span = index
                else:
                    tr.dropped += 1
            calls[layer] += 1
            tr.cur = layer
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                self_s[layer] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
                tr.cur = prev
                if op:
                    tr.in_op = False
                if index >= 0:
                    spans[index] = (name, layer, start, end, parent, tr.row)
                    tr.open_span = parent

        return traced

    def wrap_generator(self, fn, layer: int, name: str):
        """Generator function whose every resume is a (non-full) span."""
        step = self.wrap(lambda gen, value: gen.send(value), layer, name,
                         full=False)

        def proxy(gen):
            value = None
            while True:
                try:
                    item = step(gen, value)
                except StopIteration as stop:
                    return stop.value
                value = yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return proxy(fn(*args, **kwargs))

        return traced

    def run_row(self, row: int, name: str, fn):
        """Run one unit as a full ``bench`` span tagged with ``row``."""
        self.row = row
        try:
            return self.wrap(fn, _BENCH, name)()
        finally:
            self.row = -1

    def take_machines(self) -> List[object]:
        machines, self.machines = self.machines, []
        return machines

    # -- output ------------------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        return {
            layer: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, layer in enumerate(LAYERS)
        }

    def write_chrome_trace(self, path: str, row_names: List[str]) -> None:
        """Full spans as Chrome-trace complete events (open in Perfetto
        or chrome://tracing), per-layer table and op counts as metadata."""
        events = [
            {
                "name": name, "cat": LAYERS[layer], "ph": "X",
                "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1,
                "args": {"id": i, "parent": parent,
                         "row": row_names[row] if row >= 0 else None},
            }
            for i, (name, layer, start, end, parent, row) in enumerate(self.spans)
        ]
        ops: Dict[str, Dict[str, int]] = {}
        for (row, op), n in sorted(self.op_calls.items()):
            ops.setdefault(row_names[row] if row >= 0 else "-", {})[op] = n
        with open(path, "w") as f:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {
                    "layers": self.layer_table(),
                    "guest_ops_by_row": ops,
                    "spans_dropped": self.dropped,
                },
            }, f)


def _wrap_class(tr: Tracer, cls: type, layer: int) -> None:
    guest_ops = LAYERS[layer] in _GUEST_OP_LAYERS
    for attr, fn in list(vars(cls).items()):
        if not isinstance(fn, types.FunctionType):
            continue
        if attr.startswith("_") and attr != "__init__":
            continue
        name = f"{cls.__name__}.{attr}"
        if inspect.isgeneratorfunction(fn):
            wrapped = tr.wrap_generator(fn, layer, name)
        else:
            wrapped = tr.wrap(fn, layer, name,
                              guest_op=guest_ops and attr in GUEST_OPS)
        setattr(cls, attr, wrapped)


def _repro_modules() -> List[types.ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and m is not None]


def install(tr: Tracer) -> None:
    """Wrap every layer's public entry points, and ``make_machine`` so
    the machines each row builds can be read after it."""
    import repro

    for layer in LAYERS:
        mod = importlib.import_module("repro." + layer)
        if hasattr(mod, "__path__"):
            for info in pkgutil.iter_modules(mod.__path__, mod.__name__ + "."):
                importlib.import_module(info.name)

    replaced: Dict[int, tuple] = {}
    for mod in _repro_modules():
        layer = layer_of(mod.__name__)
        if layer is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, (Enum, BaseException)):
                    _wrap_class(tr, obj, layer)
            elif isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                name = f"{LAYERS[layer]}.{attr}"
                wrapped = (tr.wrap_generator(obj, layer, name)
                           if inspect.isgeneratorfunction(obj)
                           else tr.wrap(obj, layer, name))
                replaced[id(obj)] = (obj, wrapped)

    original_make = repro.make_machine

    @functools.wraps(original_make)
    def make_machine(*args, **kwargs):
        machine = original_make(*args, **kwargs)
        tr.machines.append(machine)
        return machine

    replaced[id(original_make)] = (original_make, make_machine)

    def swap(obj):
        hit = replaced.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    # Rebind every import of a wrapped function, including registry
    # dicts such as lmbench.PROCESS_SUITE and workloads.apps.APPS.
    for mod in _repro_modules():
        for attr, obj in list(vars(mod).items()):
            new = swap(obj)
            if new is not None:
                setattr(mod, attr, new)
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    new = swap(value)
                    if new is not None:
                        obj[key] = new


def machine_stats(machines: List[object]) -> Dict[str, int]:
    """Simulated statistics summed over the given machines.

    Event logs and contexts can be shared between machines (one fleet
    shares its L0 service), so each object is counted once.
    """
    logs = {id(m.events): m.events for m in machines}
    ctxs = {id(c): c for m in machines for c in m.contexts}
    out = {"tlb_hits": 0, "tlb_lookups": 0, "psc_hits": 0, "psc_lookups": 0}
    for ctx in ctxs.values():
        out["tlb_hits"] += ctx.tlb.stats.hits
        out["tlb_lookups"] += ctx.tlb.stats.lookups
        psc = ctx.mmu.psc
        if psc is not None:
            out["psc_hits"] += psc.stats.hits
            out["psc_lookups"] += psc.stats.lookups
    out["world_switches"] = sum(e.world_switches.total for e in logs.values())
    out["l0_traps"] = sum(e.l0_exits.total for e in logs.values())
    out["guest_faults"] = sum(e.page_faults.get("phase1:guest-pt")
                              for e in logs.values())
    out["lock_wait_ns"] = sum(e.lock_wait_ns.total for e in logs.values())
    return out
