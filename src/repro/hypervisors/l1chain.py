"""The nested guest's memory chain: gfn2 -> gfn1 -> hfn.

A nested L2 guest runs in memory the L1 VM allocates from its own
guest-physical space; L0 backs each L1 frame with a host frame through
the machine's memslot map (``Machine.backing_frame``).  One
:class:`L1Chain` per nested machine owns the L1 part: the L1 memory, the
gfn2 -> gfn1 map (4K frames and 2 MiB blocks), the warm EPT01 that
hardware walks below a shadow or direct-paging table, and the unwind of
the chain on balloon discard and teardown.  EPT-on-EPT walks EPT02
instead, so its chain has no EPT01.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import EptViolationException
from repro.hw.pagetable import PageTable, Pte
from repro.hw.types import AccessType, Asid, EptViolation
from repro.hypervisors.base import weak_method


class L1Chain:
    """The L1 VM's memory under one nested L2 guest."""

    def __init__(self, machine, warm_ept01: bool = True) -> None:
        self.phys = PhysicalMemory("l1-vm", machine.config.host_mem_bytes)
        #: gfn2 -> gfn1 backing (L1's memslots for the L2 guest).
        self.backing: Dict[int, int] = {}
        #: gfn1 bases of 2 MiB L1 blocks (for huge EPT01 warm fills).
        self.huge_bases: Set[int] = set()
        #: EPT01 below us, maintained by the unmodified L0; warm.
        self.ept01: Optional[PageTable] = (
            PageTable(machine.host_phys, name="EPT01") if warm_ept01 else None
        )
        # L0's side of the chain is the machine's own memslot map; the
        # callbacks are weak so the chain keeps no machine alive.
        self._host_phys = machine.host_phys
        self._host_backing = machine._backing
        self._discarded = machine._discarded_gfns
        self._note_rebacked = weak_method(machine, "note_gfn_rebacked")
        self._backing_frame = weak_method(machine, "backing_frame")
        self._backing_block = weak_method(machine, "backing_block")

    # -- gfn2 -> gfn1 -----------------------------------------------------

    def gfn1_for(self, gfn2: int) -> int:
        """The gfn1 backing one gfn2 (allocated lazily)."""
        gfn1 = self.backing.get(gfn2)
        if gfn1 is None:
            gfn1 = self.phys.alloc_frame(tag="l2-ram")
            self.backing[gfn2] = gfn1
            if self._discarded:
                self._note_rebacked(gfn2)
        return gfn1

    def gfn1_block_for(self, base2: int) -> int:
        """Aligned 512-frame gfn1 block backing a guest 2 MiB run."""
        gfn1 = self.backing.get(base2)
        if gfn1 is None:
            block = self.phys.alloc_aligned(512, tag="l2-ram-huge")
            for i in range(512):
                self.backing[base2 + i] = block.start + i
            gfn1 = block.start
            self.huge_bases.add(gfn1)
        return gfn1

    # -- hardware walks over the warm EPT01 -----------------------------------

    def access(self, ctx, asid: Asid, table: PageTable, vpn: int,
               access: AccessType) -> int:
        """Walk ``table`` nested over EPT01.  Warm-EPT01 assumption
        (§2.2 footnote, §4.1): the L1 VM has been up for hours, so L0
        fills violations below the guest's notice, free of nested cost."""
        while True:
            try:
                return ctx.mmu.access_2d(
                    ctx.clock, asid, table, self.ept01, vpn, access, user=True
                )
            except EptViolationException as exc:
                self.warm_fill(exc.violation)

    def warm_fill(self, violation: EptViolation) -> None:
        """Map one gfn1 in EPT01 (a whole 2 MiB block for huge bases)."""
        ept01 = self.ept01
        gfn1 = violation.gpa >> 12
        if ept01.lookup(gfn1) is not None:
            ept01.protect(gfn1, writable=True)
            return
        base = gfn1 - (gfn1 % 512)
        if base in self.huge_bases:
            # L0's EPT backs 2 MiB L1 runs with huge entries, preserving
            # the guest-huge translation's TLB reach.
            hfn = self._backing_block(base)
            ept01.map_huge(base, Pte(frame=hfn, writable=True,
                                     user=False, huge=True))
            return
        hfn = self._backing_frame(gfn1)
        ept01.map(gfn1, Pte(frame=hfn, writable=True, user=False))

    # -- unwinding -----------------------------------------------------------

    def discard(self, gfn2: int) -> bool:
        """Balloon release of one gfn2: free its gfn1 and that frame's
        host backing.  True when a host frame was released."""
        gfn1 = self.backing.pop(gfn2, None)
        if gfn1 is None:
            return False
        self.phys.free_frame(gfn1)
        return self.release(gfn1)

    def release(self, gfn1: int) -> bool:
        """Drop one gfn1's EPT01 entry and free its host frame."""
        ept01 = self.ept01
        if ept01 is not None:
            pte = ept01.lookup(gfn1)
            if pte is not None and not pte.huge:
                ept01.unmap(gfn1)
        hfn = self._host_backing.pop(gfn1, None)
        if hfn is None:
            return False
        self._host_phys.free_frame(hfn)
        return True

    def teardown(self) -> None:
        """Eviction: drop EPT01 and every L1 frame backing the guest."""
        if self.ept01 is not None:
            self.ept01.destroy()
        self.phys.free_many(self.backing.values())
        self.backing.clear()
        self.huge_bases.clear()
