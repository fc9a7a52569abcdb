"""Classic shadow paging, shared by kvm-spt (BM) and kvm-spt (NST).

KVM's shadow MMU over a single-table
:class:`~repro.core.shadow.ShadowManager`: write-protected guest
tables, a zap on fork/exec, every update under one global lock.  A
machine supplies only its legs: how a trap reaches the hypervisor that
owns the shadow table (``spt_exit``) and how that hypervisor resumes
the guest (``spt_entry``).
"""

from __future__ import annotations

from typing import Callable

from repro.core.shadow import ShadowManager, ShadowTables
from repro.guest.process import Process
from repro.hw.events import FaultPhase
from repro.hw.memory import PhysicalMemory
from repro.hw.types import PageFault
from repro.hypervisors.base import CpuCtx
from repro.sim.locks import SimLock


class ClassicShadowPaging(ShadowTables):
    """Mixin: KVM's classic shadow MMU, given the machine's legs.

    The host class defines ``spt_exit(ctx, reason)`` (a guest trap
    reaches the hypervisor owning the shadow table) and
    ``spt_entry(ctx)`` (that hypervisor resumes the guest).
    """

    #: Classic shadow paging shadows at 4K granularity only.
    supports_thp = False
    #: ``l0_trap`` key of the exit that delivers a shadow-table #PF.
    pf_exit_reason = "#PF"

    def init_shadow_paging(self, table_phys: PhysicalMemory,
                           translate_gfn: Callable[[int], int],
                           lock: SimLock) -> None:
        """One shadow table per process in ``table_phys``, mapping to
        ``translate_gfn(gfn)``; every update serialized on ``lock``."""
        self.shadow = ShadowManager(
            table_phys, self.costs, translate_gfn, kpti=False
        )
        self.shadow_lock = lock

    def queue_pf_injection(self) -> None:
        """Record the #PF injection before ``spt_entry`` delivers it."""

    # -- fault handling -------------------------------------------------------

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """Hardware #PF on the shadow table: always exits.

        The hypervisor distinguishes a *shadow-stale* fault (the guest
        table has the mapping; sync one shadow entry under the lock)
        from a *true guest* fault (inject #PF; the guest's fix-up
        writes then trap one by one under write protection).
        """
        vpn = fault.vaddr >> 12
        costs = self.costs
        self.spt_exit(ctx, self.pf_exit_reason)
        gpt_pte = proc.gpt.lookup(vpn)
        if gpt_pte is not None and gpt_pte.permits(fault.access, user=True):
            # Install or refresh the shadow entry under the lock.
            writes = self.shadow.sync(proc, vpn, gpt_pte).entry_writes
            self.shadow_lock.run_locked(
                ctx.clock,
                hold_ns=costs.mmu_lock_hold + writes * costs.spt_sync_per_entry,
                overhead_ns=costs.mmu_lock_op,
            )
            self.spt_entry(ctx)
            self.events.fault(FaultPhase.SHADOW_PT, ctx.clock.now, ctx.cpu_id)
            return
        # True guest fault: inject #PF and resume into the guest handler.
        ctx.clock.advance(costs.irq_inject)
        self.queue_pf_injection()
        self.events.inject("#PF")
        self.spt_entry(ctx)
        ctx.clock.advance(costs.pf_delivery)
        fix = self.kernel.fix_fault(proc, vpn, fault.access)
        ctx.clock.advance(self.fault_body_ns(proc, fix))
        # Each guest PTE write trapped under write protection.
        self.priced_gpt_writes(ctx, proc, fix.entry_writes)
        self.guest_internal_transition(ctx)  # guest iret (no exit)
        self.events.fault(FaultPhase.GUEST_PT, ctx.clock.now, ctx.cpu_id)
        # The retry will fault again on the shadow table and take the
        # sync path above — the "second phase" of §2.2.

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """Every guest PTE write traps: exit, emulate under the lock, enter."""
        costs = self.costs
        for _ in range(writes):
            self.spt_exit(ctx, "gpt-write")
            self.shadow_lock.run_locked(
                ctx.clock,
                hold_ns=costs.wp_emulate_write + costs.mmu_lock_hold,
                overhead_ns=costs.mmu_lock_op,
            )
            self.events.emulate("gpt-write")
            self.spt_entry(ctx)

    # -- invalidation ---------------------------------------------------------

    def invalidate_pages(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """munmap/mprotect: zap stale shadow entries + TLB."""
        # The table is materialized even when nothing is zapped: its
        # root frame counts in the host/L1 footprint the results report.
        self.shadow.spt(proc)
        asid = self.asid_for(proc)
        for vpn in vpns:
            if self.shadow.unmap(proc, vpn):
                self.shadow_lock.run_locked(
                    ctx.clock, hold_ns=self.costs.mmu_lock_hold // 2,
                    overhead_ns=self.costs.mmu_lock_op,
                )
            ctx.mmu.flush_page(ctx.clock, asid, vpn)

    # -- process lifecycle ------------------------------------------------------

    def on_process_created(self, ctx: CpuCtx, proc: Process) -> None:
        """Fork downgraded the parent's mappings for CoW, so its shadow
        entries are stale: zap them and let them re-sync on demand."""
        parent = self.kernel.processes.get(proc.parent_pid or -1)
        if parent is not None:
            self.shadow.drop(parent)
            self.invalidate_asid(ctx, parent)

    def on_process_reset(self, ctx: CpuCtx, proc: Process) -> None:
        """Exec: KVM's bulk zap of the process's shadow entries."""
        self.shadow.drop(proc)
        self.invalidate_asid(ctx, proc)
