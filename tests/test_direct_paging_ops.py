"""Operational tests for the direct-paging machine beyond fault counts."""

import pytest

from repro import make_machine
from repro.guest.addrspace import SegfaultError
from repro.hw.events import diff_snapshots
from repro.hw.types import KIB, MIB
from repro.hypervisors.base import MachineConfig


@pytest.fixture
def m():
    return make_machine("pvm-dp (NST)")


def _ctx_proc(m):
    return m.new_context(), m.spawn_process()


class TestDirectPagingMemoryOps:
    def test_munmap_batches_one_hypercall(self, m):
        ctx, proc = _ctx_proc(m)
        vma = m.mmap(ctx, proc, 8 << 12)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        before = m.events.hypercalls.get("set_pte")
        m.munmap(ctx, proc, vma)
        # All 8 invalidations in one validated hypercall.
        assert m.events.hypercalls.get("set_pte") == before + 1

    def test_mprotect_enforced(self, m):
        ctx, proc = _ctx_proc(m)
        vma = m.mmap(ctx, proc, 8 << 12)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        m.mprotect(ctx, proc, vma, writable=False)
        with pytest.raises(SegfaultError):
            m.touch(ctx, proc, vma.start_vpn, write=True)

    def test_fork_exec_exit_cycle(self, m):
        ctx, proc = _ctx_proc(m)
        vma = m.mmap(ctx, proc, 16 << 12)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        child = m.fork(ctx, proc)
        m.exec(ctx, child, image_pages=16)
        m.exit(ctx, child)
        assert set(m.kernel.processes) == {proc.pid}
        # Parent's COW write still converges.
        m.touch(ctx, proc, vma.start_vpn, write=True)

    def test_guest_allocates_machine_frames(self, m):
        """Direct paging: the guest's allocator *is* the L1 space."""
        assert m.guest_phys is m.chain.phys

    def test_validation_scales_with_writes(self, m):
        ctx, proc = _ctx_proc(m)
        vma = m.mmap(ctx, proc, 4 << 12)
        v0 = m.validated_updates
        m.touch(ctx, proc, vma.start_vpn, write=True)  # cold: 4 levels
        cold = m.validated_updates - v0
        m.touch(ctx, proc, vma.start_vpn + 1, write=True)  # warm: 1
        warm = m.validated_updates - v0 - cold
        assert cold == 4
        assert warm == 1

    def test_timer_and_halt_stay_cheap(self, m):
        ctx, proc = _ctx_proc(m)
        before = m.events.snapshot()
        m.halt(ctx, wake_after_ns=1000)
        delta = diff_snapshots(before, m.events.snapshot())
        assert delta.get("l0_exits", {}).get("total", 0) == 0

    def test_thp_composes_with_direct_paging(self):
        m = make_machine("pvm-dp (NST)", config=MachineConfig(thp=True))
        ctx, proc = m.new_context(), m.spawn_process()
        vma = m.mmap(ctx, proc, 2 * MIB)
        before = m.events.snapshot()
        m.touch(ctx, proc, vma.start_vpn, write=True)
        delta = diff_snapshots(before, m.events.snapshot())
        # One huge fix: still the constant six switches, one set_pte.
        assert delta["world_switches"]["total"] == 6
        assert proc.gpt.lookup(vma.start_vpn).huge
        # The rest of the block is covered without further faults.
        t0 = ctx.clock.now
        m.touch(ctx, proc, vma.start_vpn + 100, write=True)
        assert ctx.clock.now - t0 < 1000
