"""The shadow reverse map is exact.

Every shadow entry is listed under the guest frame it currently
translates, and nothing else: a retargeted entry (a copy-on-write
break) moves to its new frame's set, and an emptied set goes away with
its inverse entry.  A balloon discard therefore zaps exactly the
entries that translate the discarded frame.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import make_machine
from repro.core.shadow import ShadowManager
from repro.guest.kernel import GuestKernel
from repro.hw.costs import DEFAULT_COSTS
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import Pte
from repro.hw.types import MIB

#: Shadow target of guest frame ``gfn`` in these tests.
OFFSET = 10_000


def _manager(kpti):
    kernel = GuestKernel(PhysicalMemory("g", 8 * MIB), DEFAULT_COSTS)
    shadow = ShadowManager(
        PhysicalMemory("tables", 8 * MIB), DEFAULT_COSTS,
        lambda gfn: gfn + OFFSET, kpti=kpti,
    )
    procs = [kernel.create_process() for _ in range(3)]
    return shadow, procs


def _rebuilt_rmap(shadow):
    """The reverse index read back from the shadow tables themselves."""
    index = {}
    for (pid, half), table in shadow._spts.items():
        for vpn, pte in table.iter_mappings():
            index.setdefault(pte.frame - OFFSET, set()).add((pid, half, vpn))
    return index


_ops = st.one_of(
    st.tuples(st.just("sync"), st.integers(0, 2), st.integers(0, 15),
              st.integers(0, 15), st.booleans()),
    st.tuples(st.just("unmap"), st.integers(0, 2), st.integers(0, 15)),
    st.tuples(st.just("drop"), st.integers(0, 2)),
)


@pytest.mark.parametrize("kpti", [True, False], ids=["dual", "single"])
@given(ops=st.lists(_ops, max_size=60))
@settings(max_examples=60, deadline=None)
def test_rmap_matches_tables(kpti, ops):
    shadow, procs = _manager(kpti)
    for kind, pi, *rest in ops:
        proc = procs[pi]
        if kind == "sync":
            vpn, gfn, writable = rest
            shadow.sync(proc, vpn, Pte(frame=gfn, writable=writable))
        elif kind == "unmap":
            shadow.unmap(proc, rest[0])
        else:
            shadow.drop(proc)
        assert shadow._rmap == _rebuilt_rmap(shadow)
        assert all(shadow._rmap.values())
        assert shadow._inverse == {gfn + OFFSET: gfn for gfn in shadow._rmap}


def test_retarget_moves_the_entry():
    shadow, (proc, *_) = _manager(kpti=True)
    shadow.sync(proc, 0x100, Pte(frame=5))
    shadow.sync(proc, 0x100, Pte(frame=9, writable=True))
    assert shadow.entries_for_gfn(5) == set()
    assert shadow.entries_for_gfn(9) == {
        (proc.pid, "user", 0x100), (proc.pid, "kernel", 0x100)}
    assert shadow.lookup(proc, 0x100).frame == 9 + OFFSET
    assert 5 + OFFSET not in shadow._inverse


@pytest.mark.parametrize("name", ["kvm-spt (BM)", "kvm-spt (NST)",
                                  "pvm (BM)", "pvm (NST)"])
def test_discard_after_cow_break_keeps_live_entries(name):
    """Discarding the frame a child copied away from must not zap the
    child's entry, which now translates its own copy."""
    m = make_machine(name)
    ctx = m.new_context()
    parent = m.spawn_process()
    vpn = m.mmap(ctx, parent, 16 << 12).start_vpn
    m.touch(ctx, parent, vpn, write=True)
    shared_gfn = parent.gpt.lookup(vpn).frame
    child = m.fork(ctx, parent)
    m.touch(ctx, child, vpn)
    m.harvest_working_set(ctx)
    child_frame = m.touch(ctx, child, vpn, write=True)
    m.exit(ctx, parent)  # frees the shared frame: only the child is left
    m.discard_gfn_backing(shared_gfn)
    assert m.shadow.lookup(child, vpn) is not None
    faults = m.events.page_faults.total
    assert m.touch(ctx, child, vpn) == child_frame
    assert m.events.page_faults.total == faults
