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

from repro.guest.process import Process
from repro.hw.types import AccessType
from repro.hypervisors.base import CpuCtx, Machine
from repro.hypervisors.l1chain import L1Chain
from repro.hypervisors.nested import NestedVmxMixin
from repro.hypervisors.shadow_paging import ClassicShadowPaging
from repro.sim.locks import SimLock


class SptOnEptMachine(ClassicShadowPaging, NestedVmxMixin, Machine):
    """Secure container in an L2 guest under SPT-on-EPT."""

    name = "kvm-spt (NST)"
    nested = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.init_nested_vmx()
        #: The L1 VM's memory under L2, over the warm EPT01.
        self.chain = L1Chain(self)
        self.ept01 = self.chain.ept01
        self.l1_mmu_lock = SimLock("l1-mmu_lock", self.events)
        #: Per-process SPT12: GVA_L2 -> gfn1, maintained by L1.
        self.init_shadow_paging(
            self.chain.phys, self.chain.gfn1_for, self.l1_mmu_lock
        )

    # -- translation -------------------------------------------------------------

    def translate(self, ctx: CpuCtx, proc: Process, vpn: int,
                  access: AccessType) -> int:
        """Hardware walk: SPT12 nested over the (warm) EPT01."""
        return self.chain.access(
            ctx, self.asid_for(proc), self.shadow.spt(proc), vpn, access
        )

    # -- the legs: every trap is forwarded through L0 (Figure 3(a)) -----------------
    # Each direction is two world switches and one L0 exit.

    spt_exit = NestedVmxMixin.l2_exit_to_l1
    spt_entry = NestedVmxMixin.l1_resume_l2

    def queue_pf_injection(self) -> None:
        """L1 injects the #PF by writing it into L2's VMCS12."""
        self.vmcs12.write()

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
