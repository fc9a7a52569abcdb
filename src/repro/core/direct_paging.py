"""Direct paging on KVM — the paper's §5 "Xen-like" future direction.

Instead of shadowing, the L2 guest's page tables map guest-virtual
addresses *directly* to L1-physical frames (the GPA->HPA relationship
is exposed to the guest, as in Xen PV).  There are no shadow tables to
maintain and no write-protect traps; instead every page-table update is
submitted through validated ``set_pte``-family hypercalls, batched per
fault, so the hypervisor can enforce that the guest only ever maps
frames it owns.

An L2 page fault then costs a constant **6 world switches** regardless
of table depth: deliver (2) + one batched set_pte hypercall (2) +
iret (2) — compared with PVM-on-EPT's ``2n + 4`` — and, like PVM, zero
L0 exits.  The trade-off is the paravirtual MMU contract: the guest
kernel must be modified to call the hypervisor for *every* update, and
validation work scales with the batch.
"""

from __future__ import annotations

from repro.core.pvm_machine import PvmMachine
from repro.core.switcher import GuestWorld
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.hw.events import FaultPhase
from repro.hw.types import AccessType, PageFault


class DirectPagingMachine(PvmMachine):
    """``pvm-dp (NST)``: PVM with direct paging instead of shadowing.

    The guest allocates straight from the L1 VM's physical space (the
    hypervisor's allocator *is* the guest's allocator, under hypercall
    validation), so GPT leaves hold gfn1 values that EPT01 translates.
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("nested", True)
        super().__init__(*args, **kwargs)
        self.name = "pvm-dp (NST)" if self.nested else "pvm-dp (BM)"
        # Direct paging: guest page tables reference machine (L1) frames
        # directly; rebuild the kernel over the L1 physical space.
        if self.nested:
            self.guest_phys = self.chain.phys
        self.kernel = GuestKernel(
            self.guest_phys, self.costs, kpti=self.config.kpti, name=self.name,
            thp=self.config.thp and self.supports_thp,
        )
        self.validated_updates = 0

    # -- translation ---------------------------------------------------------

    def translate(self, ctx, proc: Process, vpn: int, access: AccessType) -> int:
        """One hardware translation attempt; raises on fault."""
        asid = self.asid_for(proc)
        if not self.nested:
            # Bare-metal direct paging degenerates to native paging.
            return ctx.mmu.access_1d(ctx.clock, asid, proc.gpt, vpn, access,
                                     user=True)
        return self.chain.access(ctx, asid, proc.gpt, vpn, access)

    # -- fault dance: constant-cost, shadow-free --------------------------------

    def on_guest_fault(self, ctx, proc: Process, fault: PageFault) -> None:
        """Architecture-specific guest page-fault dance."""
        vpn = fault.vaddr >> 12
        sw = self.hv.switcher
        # Deliver the #PF into the L2 kernel (2 switches).
        sw.vm_exit(ctx.clock, ctx.cpu_id, "#PF")
        ctx.clock.advance(self.costs.irq_inject // 3)
        self.events.inject("#PF")
        sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.KERNEL)
        ctx.clock.advance(self.costs.pf_delivery)
        # The kernel computes the fix and submits it as ONE batched
        # set_pte hypercall; PVM validates every entry.
        fix = self.kernel.fix_fault(proc, vpn, fault.access)
        ctx.clock.advance(self.fault_body_ns(proc, fix))
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:set_pte")
        ctx.clock.advance(
            self.costs.pvm_hypercall_handler
            + fix.entry_writes * self.costs.direct_paging_validate
        )
        self.events.hypercall("set_pte")
        self.validated_updates += fix.entry_writes
        self.locks.locked_fix(
            ctx.clock, pt_key=(proc.pid, vpn >> 9), gfn=fix.pte.frame,
            work_ns=0, structural=bool(fix.levels_allocated > 1),
        )
        sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.KERNEL)
        # iret hypercall back to user (2 switches; nothing to prefault —
        # the hardware walks the guest's own table).
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:iret")
        ctx.clock.advance(self.costs.pvm_hypercall_handler)
        self.events.hypercall("iret")
        sw.vm_enter(ctx.clock, ctx.cpu_id, GuestWorld.USER)
        self.events.fault(FaultPhase.GUEST_PT, ctx.clock.now, ctx.cpu_id)

    def priced_gpt_writes(self, ctx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """Non-fault updates (munmap, mprotect, fork) are batched into a
        single validated hypercall per operation."""
        sw = self.hv.switcher
        resume = sw.state_for(ctx.cpu_id).world
        if resume is GuestWorld.HYPERVISOR:
            resume = GuestWorld.KERNEL
        sw.vm_exit(ctx.clock, ctx.cpu_id, "hypercall:set_pte")
        ctx.clock.advance(
            self.costs.pvm_hypercall_handler
            + writes * self.costs.direct_paging_validate
        )
        self.events.hypercall("set_pte")
        self.validated_updates += writes
        sw.vm_enter(ctx.clock, ctx.cpu_id, resume)

    # -- memory chain ---------------------------------------------------------

    def discard_gfn_backing(self, gfn: int) -> bool:
        """Balloon release under direct paging: there is no shadow chain
        and no separate L2->L1 mapping — the guest's frame *is* the L1
        frame — so only the host backing and its EPT01 entry are
        dropped.  The guest frame itself stays held by the balloon."""
        if self.huge_block_base(gfn) is not None:
            return False
        if not self.nested:
            return super().discard_gfn_backing(gfn)
        return self.chain.release(gfn)

    def accessed_bit_tables(self, proc: Process):
        """The hardware walks the guest's own tables — A-bits land in
        the GPT, not in (absent) shadow tables."""
        return [proc.gpt]

    # -- shadow machinery is absent -----------------------------------------------

    def invalidate_pages(self, ctx, proc: Process, vpns) -> None:
        """Zap stale shadow/TLB state after unmap/mprotect."""
        vpns = tuple(vpns)
        if not vpns:
            return
        self._flush_after_unmap(ctx, proc, len(vpns))

    def on_process_created(self, ctx, child: Process) -> None:
        """No shadow entries to downgrade; COW protection lives in the
        guest's own (validated) tables."""
