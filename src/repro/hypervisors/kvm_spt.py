"""kvm-spt (BM): single-level virtualization with classic shadow paging.

The software-memory-virtualization baseline.  CPU virtualization is
identical to kvm-ept (VT-x traps), but the hardware walks a per-process
*shadow* page table mapping GVA directly to HPA.  Consequences the
paper measures:

* every hardware #PF exits to the hypervisor (even pure guest faults),
* every guest PTE write traps (the GPT is write-protected),
* with KPTI, every syscall's CR3 switch traps so the hypervisor can
  swap user/kernel shadow roots (Table 2's 2.09 us row),
* all shadow updates serialize on the global ``mmu_lock``.
"""

from __future__ import annotations

from repro.guest.process import Process
from repro.hw.events import SwitchKind
from repro.hw.types import AccessType
from repro.hypervisors.base import CpuCtx, weak_method
from repro.hypervisors.kvm_ept import KvmEptMachine
from repro.hypervisors.shadow_paging import ClassicShadowPaging
from repro.sim.locks import SimLock


class KvmSptMachine(ClassicShadowPaging, KvmEptMachine):
    """Secure container under single-level shadow paging (kvm-spt BM)."""

    name = "kvm-spt (BM)"
    nested = False
    pf_exit_reason = "spt-fault"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mmu_lock = SimLock("mmu_lock", self.events)
        #: Per-process shadow tables: GVA -> HPA.
        self.init_shadow_paging(
            self.host_phys, weak_method(self, "backing_frame"), self.mmu_lock
        )

    # -- translation ----------------------------------------------------------

    def translate(self, ctx: CpuCtx, proc: Process, vpn: int,
                  access: AccessType) -> int:
        """One hardware translation attempt; raises on fault."""
        return ctx.mmu.access_1d(
            ctx.clock, self.asid_for(proc), self.shadow.spt(proc), vpn, access,
            user=True,
        )

    # -- the legs: hardware VM exits to L0 ----------------------------------------

    def spt_exit(self, ctx: CpuCtx, reason: str) -> None:
        """A guest trap exits to the host (one hardware switch)."""
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        self.events.l0_trap(reason)

    #: VM entry back into the guest (one hardware switch).
    spt_entry = KvmEptMachine.hw_exit_entry

    # -- transitions -------------------------------------------------------------------

    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        """With KPTI, the guest's user<->kernel CR3 writes trap so the
        hypervisor can switch shadow roots (the 2.09 us of Table 2).
        Without KPTI there is no CR3 switch and no exit."""
        if self.config.kpti:
            self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
            self.events.l0_trap("cr3-switch")
            ctx.clock.advance(self.costs.spt_cr3_switch_handler)
            self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
            self.events.emulate("cr3-switch")
        else:
            self.guest_internal_transition(ctx)
            self.guest_internal_transition(ctx)
