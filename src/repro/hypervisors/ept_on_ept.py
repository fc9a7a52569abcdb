"""kvm-ept (NST): hardware-assisted nested virtualization (EPT-on-EPT).

The state-of-the-art baseline of §2.2 / Figure 3(b).  L2 updates its own
GPT2 freely; the expensive path is the extended dimension: L1 maintains
EPT12 (read-only to L1, emulated by L0) and L0 maintains the compressed
EPT02 actually used by hardware.  An L2 EPT violation costs ``2n + 6``
world switches and ``n + 3`` L0 exits — counts asserted by the tests —
and nearly all the root-mode work serializes on L0.
"""

from __future__ import annotations

from typing import Dict

from repro.guest.process import Process
from repro.hw.events import FaultPhase
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import PageTable, Pte
from repro.hw.types import AccessType, EptViolation, PageFault
from repro.hypervisors.base import PRIVILEGED_HANDLERS, CpuCtx, Machine
from repro.hypervisors.nested import NestedVmxMixin


class EptOnEptMachine(NestedVmxMixin, Machine):
    """Secure container in an L2 guest under EPT-on-EPT (kvm-ept NST)."""

    name = "kvm-ept (NST)"
    nested = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.init_nested_vmx()
        #: The L1 VM's guest-physical space (GPA_L1).
        self.l1_phys = PhysicalMemory("l1-vm", self.config.host_mem_bytes)
        #: EPT12: gfn2 -> gfn1, maintained by L1, read-only to L1.
        self.ept12 = PageTable(self.l1_phys, name="EPT12")
        #: EPT02: gfn2 -> hfn, the compressed table L0 gives the MMU.
        self.ept02 = PageTable(self.host_phys, name="EPT02")
        #: gfn2 -> gfn1 backing (L1's memslots for the L2 guest).
        self._l1_backing: Dict[int, int] = {}

    # -- memory chain -------------------------------------------------------

    def gfn1_for(self, gfn2: int) -> int:
        """The gfn1 backing one gfn2 (allocated lazily)."""
        gfn1 = self._l1_backing.get(gfn2)
        if gfn1 is None:
            gfn1 = self.l1_phys.alloc_frame(tag="l2-ram")
            self._l1_backing[gfn2] = gfn1
            if self._discarded_gfns:
                self.note_gfn_rebacked(gfn2)
        return gfn1

    def gfn1_block_for(self, base2: int) -> int:
        """Aligned 512-frame gfn1 block backing a guest 2 MiB run."""
        gfn1 = self._l1_backing.get(base2)
        if gfn1 is None:
            block = self.l1_phys.alloc_aligned(512, tag="l2-ram-huge")
            for i in range(512):
                self._l1_backing[base2 + i] = block.start + i
            gfn1 = block.start
        return gfn1

    # -- translation -----------------------------------------------------------

    def translate(self, ctx: CpuCtx, proc: Process, vpn: int,
                  access: AccessType) -> int:
        """One hardware translation attempt; raises on fault."""
        return ctx.mmu.access_2d(
            ctx.clock, self.asid_for(proc), proc.gpt, self.ept02, vpn, access,
            user=True,
        )

    # -- fault handling ------------------------------------------------------------

    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """L2 guest #PF: handled entirely inside L2 (Fig 3b steps 1-3)."""
        self.guest_internal_transition(ctx)
        ctx.clock.advance(self.costs.pf_delivery)
        fix = self.kernel.fix_fault(proc, fault.vaddr >> 12, fault.access)
        ctx.clock.advance(
            self.fault_body_ns(proc, fix)
            + fix.entry_writes * self.costs.pte_write
        )
        self.guest_internal_transition(ctx)
        self.events.fault(FaultPhase.GUEST_PT, ctx.clock.now, ctx.cpu_id)

    def on_ept_violation(self, ctx: CpuCtx, proc: Process,
                         violation: EptViolation) -> None:
        """The Figure 3(b) dance: fix EPT12 via L1, then EPT02 via L0."""
        gfn2 = violation.gpa >> 12
        huge_base = self.huge_block_base(gfn2)
        if huge_base is not None:
            self._huge_violation(ctx, huge_base)
            return
        # Phase 1 (steps 1-10): L0 forwards the violation to L1 ...
        self.l2_exit_to_l1(ctx, "ept-violation")
        gfn1 = self.gfn1_for(gfn2)
        writes = self._install(self.ept12, gfn2, gfn1)
        # ... whose EPT12 updates each trap back to L0 for emulation ...
        for _ in range(writes):
            self.l1_l0_service(
                ctx,
                self.costs.wp_emulate_write + self.costs.ept_fix_per_level,
                reason="ept12-write",
            )
        # ... and L1 finally VMRESUMEs L2 (merge + real entry).
        self.l1_resume_l2(ctx)
        # Phase 2 (steps 11-13): the access faults again on EPT02; L0
        # compresses EPT12 o EPT01 into EPT02 directly.
        hfn = self.backing_frame(gfn1)
        writes02 = self._install(self.ept02, gfn2, hfn)
        self.l2_l0_roundtrip(
            ctx, writes02 * self.costs.ept_fix_per_level, reason="ept02-fix"
        )
        self.events.fault(FaultPhase.SHADOW_PT, ctx.clock.now, ctx.cpu_id)

    def _huge_violation(self, ctx: CpuCtx, base2: int) -> None:
        """Back a guest 2 MiB run with huge EPT12 and EPT02 entries —
        the same dance, but one entry covers 512 pages."""
        self.l2_exit_to_l1(ctx, "ept-violation")
        gfn1 = self.gfn1_block_for(base2)
        if self.ept12.lookup(base2) is None:
            self.ept12.map_huge(base2, Pte(frame=gfn1, writable=True,
                                           user=False, huge=True))
        self.l1_l0_service(
            ctx, self.costs.wp_emulate_write + self.costs.ept_fix_per_level,
            reason="ept12-write",
        )
        self.l1_resume_l2(ctx)
        hfn = self.backing_block(gfn1)
        if self.ept02.lookup(base2) is None:
            self.ept02.map_huge(base2, Pte(frame=hfn, writable=True,
                                           user=False, huge=True))
        self.l2_l0_roundtrip(ctx, self.costs.ept_fix_per_level,
                             reason="ept02-fix")
        self.events.fault(FaultPhase.SHADOW_PT, ctx.clock.now, ctx.cpu_id)

    def discard_gfn_backing(self, gfn2: int) -> bool:
        """Balloon release: unwind the gfn2 -> gfn1 -> hfn chain."""
        if self.huge_block_base(gfn2) is not None:
            return False
        for table in (self.ept12, self.ept02):
            pte = table.lookup(gfn2)
            if pte is not None and not pte.huge:
                table.unmap(gfn2)
        gfn1 = self._l1_backing.pop(gfn2, None)
        if gfn1 is None:
            return False
        self.l1_phys.free_frame(gfn1)
        hfn = self._backing.pop(gfn1, None)
        if hfn is not None:
            self.host_phys.free_frame(hfn)
        return hfn is not None

    def teardown_guest_memory(self) -> None:
        """Eviction: drop both EPT dimensions and the L1 memslots."""
        self.ept12.destroy()
        self.ept02.destroy()
        self.l1_phys.free_many(self._l1_backing.values())
        self._l1_backing.clear()
        super().teardown_guest_memory()

    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """GPT2 is the guest's own: writes are ordinary stores.

        Bulk table construction (fork/exec) allocates fresh guest
        frames *for the tables themselves*; hardware must translate
        those through EPT02, so each new table page costs one nested
        EPT-violation dance — the reason the paper's fork is measurably
        slower nested (113 us vs 82 us) even though no write traps.
        """
        ctx.clock.advance(writes * self.costs.pte_write)
        if structural:
            new_table_pages = max(1, writes // 128)
            for _ in range(new_table_pages):
                self.l2_exit_to_l1(ctx, "ept-violation")
                self.l1_l0_service(
                    ctx,
                    self.costs.wp_emulate_write + self.costs.ept_fix_per_level,
                    reason="ept12-write",
                )
                self.l1_resume_l2(ctx)

    # -- transitions --------------------------------------------------------------------

    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        """Syscalls stay inside L2 (Table 2: kvm NST = 0.23 us)."""
        self.guest_internal_transition(ctx)
        if self.config.kpti:
            ctx.clock.advance(self.costs.kpti_syscall_overhead)
        self.guest_internal_transition(ctx)

    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        handler = getattr(self.costs, PRIVILEGED_HANDLERS[kind][0])
        self.nested_privileged_roundtrip(ctx, handler, kind)
        if kind == "pio":
            # Device emulation lives in L1 userspace; each leg of the
            # kernel<->VMM bounce multiplies into nested VMCS traffic.
            for _ in range(self.costs.pio_userspace_trips):
                self.l1_l0_service(
                    ctx, self.costs.vmcs_merge_reload, reason="pio-userspace"
                )

    # -- helpers ---------------------------------------------------------------------------------

    @staticmethod
    def _install(table: PageTable, gfn: int, target: int) -> int:
        if table.lookup(gfn) is not None:
            table.protect(gfn, writable=True)
            return 1
        result = table.map(gfn, Pte(frame=target, writable=True, user=False))
        return len(result.written_frames)

