"""Behavioural tests for the machine implementations beyond counts."""

import gc
import weakref

import pytest

from repro import make_machine, SCENARIOS
from repro.hw.types import MIB, KIB
from repro.hypervisors.base import MachineConfig
from repro.guest.addrspace import SegfaultError


ALL = list(SCENARIOS)


@pytest.fixture(params=ALL)
def machine(request):
    return make_machine(request.param)


class TestTouchSemantics:
    def test_touch_converges_and_is_idempotent(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 64 * KIB)
        f1 = machine.touch(ctx, proc, vma.start_vpn, write=True)
        f2 = machine.touch(ctx, proc, vma.start_vpn, write=True)
        assert f1 == f2

    def test_retouch_is_cheap(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 64 * KIB)
        machine.touch(ctx, proc, vma.start_vpn, write=True)
        before = ctx.clock.now
        machine.touch(ctx, proc, vma.start_vpn, write=True)
        assert ctx.clock.now - before <= machine.costs.tlb_hit

    def test_read_then_write_upgrade(self, machine):
        """Read faults install read mappings; a later write must still
        converge (COW-style upgrade or wp sync)."""
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 64 * KIB)
        machine.touch(ctx, proc, vma.start_vpn, write=False)
        machine.touch(ctx, proc, vma.start_vpn, write=True)

    def test_segfault_propagates(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        with pytest.raises(SegfaultError):
            machine.touch(ctx, proc, 0x500, write=True)  # no VMA there

    def test_munmap_then_touch_faults_again(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 64 * KIB)
        machine.touch(ctx, proc, vma.start_vpn, write=True)
        machine.munmap(ctx, proc, vma)
        with pytest.raises(SegfaultError):
            machine.touch(ctx, proc, vma.start_vpn, write=True)


class TestForkExecSemantics:
    def test_fork_child_shares_then_cows(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 32 * KIB)
        parent_frame = machine.touch(ctx, proc, vma.start_vpn, write=True)
        child = machine.fork(ctx, proc)
        # Child read sees the shared frame's backing.
        machine.touch(ctx, child, vma.start_vpn, write=False)
        # Parent write breaks COW and converges.
        machine.touch(ctx, proc, vma.start_vpn, write=True)
        machine.exit(ctx, child)

    def test_exec_faults_in_fresh_image(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        machine.exec(ctx, proc, image_pages=16)
        assert proc.gpt.mapped_pages > 0

    def test_exit_cleans_up(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 32 * KIB)
        machine.touch(ctx, proc, vma.start_vpn, write=True)
        machine.exit(ctx, proc)
        assert not proc.alive


class TestComputeAndTimers:
    def test_compute_advances_exactly(self, machine):
        ctx = machine.new_context()
        # Less than one timer interval: no interrupt cost.
        before = ctx.clock.now
        machine.compute(ctx, 1000)
        assert ctx.clock.now == before + 1000

    def test_timer_delivered_across_interval(self, machine):
        ctx = machine.new_context()
        machine.compute(ctx, machine.costs.timer_interval + 1000)
        assert machine.events.interrupts.get("timer") == 1
        # And time advanced at least the computed amount.
        assert ctx.clock.now >= machine.costs.timer_interval + 1000

    def test_multiple_ticks(self, machine):
        ctx = machine.new_context()
        machine.compute(ctx, 3 * machine.costs.timer_interval + 10)
        assert machine.events.interrupts.get("timer") == 3

    def test_negative_compute_rejected(self, machine):
        ctx = machine.new_context()
        with pytest.raises(ValueError):
            machine.compute(ctx, -1)


class TestMprotect:
    def test_mprotect_write_protection_enforced(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 32 * KIB)
        machine.touch(ctx, proc, vma.start_vpn, write=True)
        machine.mprotect(ctx, proc, vma, writable=False)
        with pytest.raises(SegfaultError):
            machine.touch(ctx, proc, vma.start_vpn, write=True)
        # Reads still work.
        machine.touch(ctx, proc, vma.start_vpn, write=False)

    def test_mprotect_reenable(self, machine):
        ctx = machine.new_context()
        proc = machine.spawn_process()
        vma = machine.mmap(ctx, proc, 32 * KIB)
        machine.touch(ctx, proc, vma.start_vpn, write=True)
        machine.mprotect(ctx, proc, vma, writable=False)
        machine.mprotect(ctx, proc, vma, writable=True)
        machine.touch(ctx, proc, vma.start_vpn, write=True)


class TestScenarioRegistry:
    def test_scenario_registry(self):
        # The paper's six configurations plus the §5 direct-paging design.
        assert len(SCENARIOS) == 7
        assert "pvm-dp (NST)" in SCENARIOS

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            make_machine("xen (BM)")

    def test_names_match(self):
        for name in SCENARIOS:
            assert make_machine(name).name == name

    def test_nested_flags(self):
        for name in SCENARIOS:
            m = make_machine(name)
            assert m.nested == ("NST" in name)


class TestMachineConfigValidation:
    @pytest.mark.parametrize("mode", ["bogus", "", None, "FULL"])
    def test_bad_sanitize_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="sanitize_mode"):
            MachineConfig(sanitize_mode=mode)

    @pytest.mark.parametrize("retries", [0, -3, 1.5, "16", True])
    def test_bad_max_fault_retries_rejected(self, retries):
        with pytest.raises(ValueError, match="max_fault_retries"):
            MachineConfig(max_fault_retries=retries)

    def test_valid_values_accepted(self):
        assert MachineConfig(sanitize_mode="full").sanitize_mode == "full"
        assert MachineConfig(max_fault_retries=1).max_fault_retries == 1


class TestMachineLifetime:
    @pytest.mark.parametrize("pcid_mapping", [True, False])
    @pytest.mark.parametrize("scenario", ALL)
    def test_dropped_machine_freed_by_refcount(self, scenario, pcid_mapping):
        """No reference cycle runs through a machine: dropping the last
        reference frees it (and every table and lock it owns) at once,
        without waiting for the cyclic garbage collector."""
        m = make_machine(scenario,
                         config=MachineConfig(pcid_mapping=pcid_mapping))
        ctx = m.new_context()
        proc = m.spawn_process()
        vma = m.mmap(ctx, proc, 64 * KIB)
        m.touch(ctx, proc, vma.start_vpn, write=True)
        m.exit(ctx, m.fork(ctx, proc))
        m.hypercall(ctx)
        m.syscall(ctx, proc, "get_pid")
        ref = weakref.ref(m)
        gc.disable()
        try:
            del m, ctx, proc, vma
            assert ref() is None
        finally:
            gc.enable()
