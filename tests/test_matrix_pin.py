"""Pin the whole machine matrix on one lifecycle script.

The script drives every machine through the operations whose
implementation is shared between machines: demand faults (read and
write), fork with copy-on-write, the child's read-flush-write sequence
that re-syncs an existing shadow entry, exec, mprotect, munmap, balloon
inflate/deflate, working-set harvests, exit and guest memory
teardown.  The final virtual clock, the event counters and the
used host/L1/guest frames are compared with the values recorded in
``tests/data/matrix_pin.json``; a refactor of the shared parts must not
move any of them.

The balloon runs before the fork, so no discard meets a shadow entry
that a copy-on-write break retargeted; ``tests/test_shadow_rmap.py``
covers that case.

Regenerate the data file (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_matrix_pin.py > tests/data/matrix_pin.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import SCENARIOS, make_machine
from repro.hypervisors.base import MachineConfig

DATA = Path(__file__).parent / "data" / "matrix_pin.json"

#: Configurations the script runs under, by label.
CONFIGS = {
    "kpti": dict(kpti=True),
    "nokpti": dict(kpti=False),
    "thp": dict(thp=True),
}


def _touch_range(m, ctx, proc, start, count, write=False):
    for vpn in range(start, start + count):
        m.touch(ctx, proc, vpn, write=write)


def _used(phys):
    return None if phys is None else phys.allocator.used_frames


def _frames(m):
    return {
        "host": _used(m.host_phys),
        "l1": _used(m.chain.phys if m.chain is not None else None),
        "guest": _used(m.guest_phys),
    }


def run_script(name: str, config: dict) -> dict:
    """Run the lifecycle script on one machine; return what it pins."""
    m = make_machine(name, config=MachineConfig(**config))
    ctx = m.new_context()
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, 32 << 12)
    base = vma.start_vpn
    _touch_range(m, ctx, proc, base, 16)
    _touch_range(m, ctx, proc, base, 24, write=True)
    big = m.mmap(ctx, proc, 1024 << 12)
    for vpn in (big.start_vpn, big.start_vpn + 3, big.start_vpn + 700):
        m.touch(ctx, proc, vpn, write=True)

    scratch = m.mmap(ctx, proc, 64 << 12)
    _touch_range(m, ctx, proc, scratch.start_vpn, 64, write=True)
    m.munmap(ctx, proc, scratch)
    m.balloon.inflate(ctx, 96 << 12)
    m.balloon.deflate(ctx, 96 << 12)
    scratch = m.mmap(ctx, proc, 48 << 12)
    _touch_range(m, ctx, proc, scratch.start_vpn, 48, write=True)

    child = m.fork(ctx, proc)
    _touch_range(m, ctx, child, base, 8)
    # The A-bit harvest flushes, so the writes below miss the TLB and
    # break copy-on-write against the shadow entries the reads made.
    m.harvest_working_set(ctx)
    _touch_range(m, ctx, child, base, 8, write=True)
    _touch_range(m, ctx, child, base + 16, 4)
    _touch_range(m, ctx, proc, base + 8, 4, write=True)
    m.exec(ctx, child)
    m.exit(ctx, child)

    m.mprotect(ctx, proc, vma, writable=False)
    _touch_range(m, ctx, proc, base, 8)
    m.mprotect(ctx, proc, vma, writable=True)
    _touch_range(m, ctx, proc, base, 12, write=True)
    m.harvest_working_set(ctx)
    _touch_range(m, ctx, proc, base, 24)
    m.munmap(ctx, proc, big)

    frames_live = _frames(m)
    m.exit(ctx, proc)
    m.teardown_guest_memory()
    return {
        "clock": ctx.clock.now,
        "events": m.events.snapshot(),
        "frames_live": frames_live,
        "frames_final": _frames(m),
        "refaults": m.events.refaults.total,
        "released": m.balloon.host_frames_released,
    }


def _key(name: str, label: str) -> str:
    return f"{name}|{label}"


def record() -> dict:
    """Every (machine, configuration) result, keyed for the data file."""
    return {
        _key(name, label): run_script(name, cfg)
        for name in SCENARIOS for label, cfg in CONFIGS.items()
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("label", sorted(CONFIGS))
@pytest.mark.parametrize("name", SCENARIOS)
def test_matrix_matches_pinned_values(pinned, name, label):
    got = json.loads(json.dumps(run_script(name, CONFIGS[label])))
    assert got == pinned[_key(name, label)]


def test_pinned_data_covers_the_matrix(pinned):
    assert set(pinned) == {
        _key(name, label) for name in SCENARIOS for label in CONFIGS
    }


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
