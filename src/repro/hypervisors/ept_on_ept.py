"""kvm-ept (NST): hardware-assisted nested virtualization (EPT-on-EPT).

The state-of-the-art baseline of §2.2 / Figure 3(b).  L2 updates its own
GPT2 freely; the expensive path is the extended dimension: L1 maintains
EPT12 (read-only to L1, emulated by L0) and L0 maintains the compressed
EPT02 actually used by hardware.  An L2 EPT violation costs ``2n + 6``
world switches and ``n + 3`` L0 exits — counts asserted by the tests —
and nearly all the root-mode work serializes on L0.
"""

from __future__ import annotations

from repro.guest.process import Process
from repro.hw.events import FaultPhase
from repro.hw.pagetable import PageTable, Pte
from repro.hw.types import AccessType, EptViolation
from repro.hypervisors.base import CpuCtx, Machine
from repro.hypervisors.kvm_ept import EptGuestPaging, install_ept_entry
from repro.hypervisors.l1chain import L1Chain
from repro.hypervisors.nested import NestedVmxMixin


def _install_huge(table: PageTable, base: int, target: int) -> int:
    """Map one 2 MiB run with a huge entry (if absent); one entry write."""
    if table.lookup(base) is None:
        table.map_huge(base, Pte(frame=target, writable=True, user=False,
                                 huge=True))
    return 1


class EptOnEptMachine(EptGuestPaging, NestedVmxMixin, Machine):
    """Secure container in an L2 guest under EPT-on-EPT (kvm-ept NST)."""

    name = "kvm-ept (NST)"
    nested = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.init_nested_vmx()
        #: The L1 VM's memory under L2; EPT02 replaces EPT01 walks.
        self.chain = L1Chain(self, warm_ept01=False)
        #: EPT12: gfn2 -> gfn1, maintained by L1, read-only to L1.
        self.ept12 = PageTable(self.chain.phys, name="EPT12")
        #: EPT02: gfn2 -> hfn, the compressed table L0 gives the MMU.
        self.ept02 = PageTable(self.host_phys, name="EPT02")

    # -- translation -----------------------------------------------------------

    def translate(self, ctx: CpuCtx, proc: Process, vpn: int,
                  access: AccessType) -> int:
        """One hardware translation attempt; raises on fault."""
        return ctx.mmu.access_2d(
            ctx.clock, self.asid_for(proc), proc.gpt, self.ept02, vpn, access,
            user=True,
        )

    # -- fault handling ------------------------------------------------------------
    # An L2 guest #PF is handled entirely inside L2 (Fig 3b steps 1-3):
    # EptGuestPaging.on_guest_fault.

    def on_ept_violation(self, ctx: CpuCtx, proc: Process,
                         violation: EptViolation) -> None:
        """The Figure 3(b) dance: fix EPT12 via L1, then EPT02 via L0.

        A guest 2 MiB run is backed by huge EPT12 and EPT02 entries: the
        same dance, but one entry covers 512 pages.
        """
        gfn2 = violation.gpa >> 12
        base2 = self.huge_block_base(gfn2)
        # Phase 1 (steps 1-10): L0 forwards the violation to L1 ...
        self.l2_exit_to_l1(ctx, "ept-violation")
        if base2 is None:
            gfn1 = self.chain.gfn1_for(gfn2)
            writes = install_ept_entry(self.ept12, gfn2, gfn1)
        else:
            gfn1 = self.chain.gfn1_block_for(base2)
            writes = _install_huge(self.ept12, base2, gfn1)
        self._ept12_writes_and_resume(ctx, writes)
        # Phase 2 (steps 11-13): the access faults again on EPT02; L0
        # compresses EPT12 o EPT01 into EPT02 directly.
        if base2 is None:
            writes02 = install_ept_entry(self.ept02, gfn2, self.backing_frame(gfn1))
        else:
            writes02 = _install_huge(self.ept02, base2, self.backing_block(gfn1))
        self.l2_l0_roundtrip(
            ctx, writes02 * self.costs.ept_fix_per_level, reason="ept02-fix"
        )
        self.events.fault(FaultPhase.SHADOW_PT, ctx.clock.now, ctx.cpu_id)

    def discard_gfn_backing(self, gfn2: int) -> bool:
        """Balloon release: zap both EPT dimensions, then the chain."""
        if self.huge_block_base(gfn2) is not None:
            return False
        for table in (self.ept12, self.ept02):
            pte = table.lookup(gfn2)
            if pte is not None and not pte.huge:
                table.unmap(gfn2)
        return super().discard_gfn_backing(gfn2)

    def teardown_guest_memory(self) -> None:
        """Eviction: drop both EPT dimensions, then the chain."""
        self.ept12.destroy()
        self.ept02.destroy()
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
            for _ in range(max(1, writes // 128)):  # new table pages
                self.l2_exit_to_l1(ctx, "ept-violation")
                self._ept12_writes_and_resume(ctx, 1)

    def _ept12_writes_and_resume(self, ctx: CpuCtx, writes: int) -> None:
        """L1's EPT12 updates each trap back to L0 for emulation, then
        L1 VMRESUMEs L2 (merge + real entry)."""
        for _ in range(writes):
            self.l1_l0_service(
                ctx,
                self.costs.wp_emulate_write + self.costs.ept_fix_per_level,
                reason="ept12-write",
            )
        self.l1_resume_l2(ctx)

    # -- transitions --------------------------------------------------------------------
    # Syscalls stay inside L2 (Table 2: kvm NST = 0.23 us):
    # EptGuestPaging._syscall_round_trip.

    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        super()._privileged(ctx, kind)
        if kind == "pio":
            # Device emulation lives in L1 userspace; each leg of the
            # kernel<->VMM bounce multiplies into nested VMCS traffic.
            for _ in range(self.costs.pio_userspace_trips):
                self.l1_l0_service(
                    ctx, self.costs.vmcs_merge_reload, reason="pio-userspace"
                )

