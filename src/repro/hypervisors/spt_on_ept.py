"""SPT-on-EPT: shadow paging at L1 over hardware EPT at L0 (§2.2).

The straw-man nested memory virtualization of Figure 3(a): L1 maintains
SPT12 (GVA_L2 -> GPA_L1) and hardware translates the rest through EPT01.
Every L2 #PF exits to L0 and is *forwarded* to L1; every GPT2 write is
emulated by L1 — also through L0.  An L2 page fault costs up to
``4n + 8`` world switches and ``2n + 4`` L0 exits, which is why the
paper excludes this design from production consideration.

EPT01 is assumed warm (§2.2 footnote): violations on it are filled
silently without charging nested machinery.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.guest.process import Process
from repro.hw.events import FaultPhase
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import EptViolationException
from repro.hw.pagetable import PageTable, Pte
from repro.hw.types import AccessType, EptViolation, PageFault
from repro.hypervisors.base import PRIVILEGED_HANDLERS, CpuCtx, Machine
from repro.hypervisors.nested import NestedVmxMixin
from repro.sim.locks import SimLock


class SptOnEptMachine(NestedVmxMixin, Machine):
    """Secure container in an L2 guest under SPT-on-EPT."""

    name = "kvm-spt (NST)"
    nested = True
    #: SPT12 shadows at 4K granularity only.
    supports_thp = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.init_nested_vmx()
        self.l1_phys = PhysicalMemory("l1-vm", self.config.host_mem_bytes)
        #: EPT01: gfn1 -> hfn, maintained by L0, assumed warm.
        self.ept01 = PageTable(self.host_phys, name="EPT01")
        #: Per-process SPT12: GVA_L2 -> gfn1, maintained by L1.
        self._spts: Dict[int, PageTable] = {}
        #: gfn2 -> gfn1 backing (L1's memslots for the L2 guest).
        self._l1_backing: Dict[int, int] = {}
        #: Reverse map: gfn1 -> {(pid, vpn)} SPT12 entries naming it,
        #: so discarding a gfn2's backing can zap exactly the shadow
        #: entries translating to the freed gfn1.
        self._spt_rmap: Dict[int, Set[Tuple[int, int]]] = {}
        self.l1_mmu_lock = SimLock("l1-mmu_lock", self.events)

    # -- memory chain --------------------------------------------------------

    def spt_for(self, proc: Process) -> PageTable:
        """The process's shadow table (created on demand)."""
        spt = self._spts.get(proc.pid)
        if spt is None:
            spt = PageTable(self.l1_phys, name=f"SPT12:{proc.pid}")
            self._spts[proc.pid] = spt
        return spt

    def gfn1_for(self, gfn2: int) -> int:
        """The gfn1 backing one gfn2 (allocated lazily)."""
        gfn1 = self._l1_backing.get(gfn2)
        if gfn1 is None:
            gfn1 = self.l1_phys.alloc_frame(tag="l2-ram")
            self._l1_backing[gfn2] = gfn1
            if self._discarded_gfns:
                self.note_gfn_rebacked(gfn2)
        return gfn1

    # -- translation -------------------------------------------------------------

    def translate(self, ctx: CpuCtx, proc: Process, vpn: int,
                  access: AccessType) -> int:
        """Hardware walk: SPT12 nested over the (warm) EPT01."""
        while True:
            try:
                return ctx.mmu.access_2d(
                    ctx.clock, self.asid_for(proc), self.spt_for(proc),
                    self.ept01, vpn, access, user=True,
                )
            except EptViolationException as exc:
                # Warm-EPT01 assumption: fill silently, free of nested cost.
                self._warm_fill(exc.violation)

    def _warm_fill(self, violation: EptViolation) -> None:
        gfn1 = violation.gpa >> 12
        if self.ept01.lookup(gfn1) is None:
            hfn = self.backing_frame(gfn1)
            self.ept01.map(gfn1, Pte(frame=hfn, writable=True, user=False))
        else:
            self.ept01.protect(gfn1, writable=True)

    # -- fault handling --------------------------------------------------------------

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """Figure 3(a): every L2 #PF exits to L0 and is forwarded to L1."""
        vpn = fault.vaddr >> 12
        self.l2_exit_to_l1(ctx, "#PF")
        gpt_pte = proc.gpt.lookup(vpn)
        if gpt_pte is not None and gpt_pte.permits(fault.access, user=True):
            # Second phase: L1 syncs SPT12 and resumes L2 user directly.
            self._sync_spt12(ctx, proc, vpn, gpt_pte)
            self.l1_resume_l2(ctx)
            self.events.fault(FaultPhase.SHADOW_PT, ctx.clock.now, ctx.cpu_id)
            return
        # First phase: L1 injects the #PF into L2's VMCS12 and resumes
        # into the L2 kernel's fault handler (via L0 again).
        ctx.clock.advance(self.costs.irq_inject)
        self.vmcs12.write()
        self.events.inject("#PF")
        self.l1_resume_l2(ctx)
        ctx.clock.advance(self.costs.pf_delivery)
        fix = self.kernel.fix_fault(proc, vpn, fault.access)
        ctx.clock.advance(self.fault_body_ns(proc, fix))
        # Every GPT2 write needs L1's assistance — each one a full
        # L2 -> L0 -> L1 -> L0 -> L2 round (4 switches, 2 L0 exits).
        self.priced_gpt_writes(ctx, proc, fix.entry_writes)
        self.guest_internal_transition(ctx)  # L2 kernel iret
        self.events.fault(FaultPhase.GUEST_PT, ctx.clock.now, ctx.cpu_id)

    def on_ept_violation(self, ctx: CpuCtx, proc: Process,
                         violation: EptViolation) -> None:
        # translate() handles EPT01 warm fills internally; reaching here
        # would mean a logic error.
        """Extended-dimension fault dance (or assertion if N/A)."""
        raise AssertionError("EPT01 is warmed inside translate()")

    def _sync_spt12(self, ctx: CpuCtx, proc: Process, vpn: int, gpt_pte: Pte) -> None:
        gfn1 = self.gfn1_for(gpt_pte.frame)
        spt = self.spt_for(proc)
        if spt.lookup(vpn) is None:
            result = spt.map(vpn, Pte(
                frame=gfn1,
                writable=gpt_pte.writable,
                user=gpt_pte.user,
                executable=gpt_pte.executable,
            ))
            self._spt_rmap.setdefault(gfn1, set()).add((proc.pid, vpn))
            levels = len(result.written_frames)
        else:
            spt.protect(vpn, writable=gpt_pte.writable, user=gpt_pte.user)
            levels = 1
        self.l1_mmu_lock.run_locked(
            ctx.clock,
            hold_ns=self.costs.mmu_lock_hold + levels * self.costs.spt_sync_per_entry,
            overhead_ns=self.costs.mmu_lock_op,
        )

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """GPT2 is read-only to L2; L1 emulates each write — via L0."""
        for _ in range(writes):
            self.l2_exit_to_l1(ctx, "gpt-write")
            self.l1_mmu_lock.run_locked(
                ctx.clock,
                hold_ns=self.costs.wp_emulate_write + self.costs.mmu_lock_hold,
                overhead_ns=self.costs.mmu_lock_op,
            )
            self.events.emulate("gpt-write")
            self.l1_resume_l2(ctx)

    # -- invalidation -------------------------------------------------------------------

    def invalidate_pages(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """Zap stale shadow/TLB state after unmap/mprotect."""
        spt = self.spt_for(proc)
        asid = self.asid_for(proc)
        for vpn in vpns:
            if spt.lookup(vpn) is not None:
                pte = spt.unmap(vpn)
                entries = self._spt_rmap.get(pte.frame)
                if entries is not None:
                    entries.discard((proc.pid, vpn))
                    if not entries:
                        del self._spt_rmap[pte.frame]
                self.l1_mmu_lock.run_locked(
                    ctx.clock, hold_ns=self.costs.mmu_lock_hold // 2,
                    overhead_ns=self.costs.mmu_lock_op,
                )
            ctx.mmu.flush_page(ctx.clock, asid, vpn)

    # -- process lifecycle ------------------------------------------------------------------

    def on_process_created(self, ctx: CpuCtx, proc: Process) -> None:
        """Shadow-side bookkeeping for a new (forked) process."""
        parent = self.kernel.processes.get(proc.parent_pid or -1)
        if parent is not None:
            self._drop_spt(ctx, parent)

    def on_process_reset(self, ctx: CpuCtx, proc: Process) -> None:
        """Shadow-side teardown on exec."""
        self._drop_spt(ctx, proc)

    def on_process_destroyed(self, ctx: CpuCtx, proc: Process) -> None:
        """Shadow-side teardown on exit."""
        spt = self._spts.pop(proc.pid, None)
        if spt is not None:
            self._forget_spt_rmap(spt, proc.pid)
            spt.release()

    def _drop_spt(self, ctx: CpuCtx, proc: Process) -> None:
        spt = self._spts.pop(proc.pid, None)
        if spt is not None:
            self._forget_spt_rmap(spt, proc.pid)
            spt.release()
        self.invalidate_asid(ctx, proc)

    def _forget_spt_rmap(self, spt: PageTable, pid: int) -> None:
        """Drop a whole shadow table's reverse-map entries."""
        for vpn, pte in spt.iter_mappings():
            entries = self._spt_rmap.get(pte.frame)
            if entries is not None:
                entries.discard((pid, vpn))
                if not entries:
                    del self._spt_rmap[pte.frame]

    # -- balloon / reclaim ----------------------------------------------------

    def discard_gfn_backing(self, gfn2: int) -> bool:
        """Balloon release: unwind the full gfn2 -> gfn1 -> hfn chain.

        The base implementation would pop ``_backing[gfn2]`` against a
        dict keyed by *gfn1* — a wrong-frame free whenever the numbers
        collide — and would leave SPT12 entries translating to the
        freed gfn1.  Zap the shadow entries (via the reverse map), the
        warm EPT01 entry, and both backing levels instead.
        """
        if self.huge_block_base(gfn2) is not None:
            return False
        gfn1 = self._l1_backing.pop(gfn2, None)
        if gfn1 is None:
            return False
        for pid, vpn in sorted(self._spt_rmap.pop(gfn1, ())):
            spt = self._spts.get(pid)
            if spt is not None:
                pte = spt.lookup(vpn)
                if pte is not None and pte.frame == gfn1 and not pte.huge:
                    spt.unmap(vpn)
            proc = self.kernel.processes.get(pid)
            if proc is not None:
                asid = self.asid_for(proc)
                for ctx in self.contexts:
                    ctx.tlb.flush_page(asid, vpn)
        self.l1_phys.free_frame(gfn1)
        if self.ept01.lookup(gfn1) is not None and not self.ept01.lookup(gfn1).huge:
            self.ept01.unmap(gfn1)
        hfn = self._backing.pop(gfn1, None)
        if hfn is not None:
            self.host_phys.free_frame(hfn)
        return hfn is not None

    def accessed_bit_tables(self, proc: Process) -> List[PageTable]:
        """The walker sets A-bits in SPT12, not the L2 guest table."""
        spt = self._spts.get(proc.pid)
        return [spt] if spt is not None else []

    def teardown_guest_memory(self) -> None:
        """Eviction: shadow tables, warm EPT01, and L1 memslots go too."""
        for spt in self._spts.values():
            spt.release()
        self._spts.clear()
        self._spt_rmap.clear()
        self.ept01.destroy()
        self.l1_phys.free_many(self._l1_backing.values())
        self._l1_backing.clear()
        super().teardown_guest_memory()

    # -- transitions -----------------------------------------------------------------------------

    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        """With KPTI the L2 kernel's CR3 switch traps — all the way
        through L0.  This is what makes SPT-on-EPT unusable."""
        if self.config.kpti:
            self.l2_exit_to_l1(ctx, "cr3-switch")
            ctx.clock.advance(self.costs.spt_cr3_switch_handler)
            self.l1_resume_l2(ctx)
        else:
            self.guest_internal_transition(ctx)
            self.guest_internal_transition(ctx)

    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        handler = getattr(self.costs, PRIVILEGED_HANDLERS[kind][0])
        self.nested_privileged_roundtrip(ctx, handler, kind)
