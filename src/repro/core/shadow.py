"""PVM's shadow page tables (paper §3.3.2).

PVM maintains **two** shadow tables per L2 process — one for the guest
user (v_ring3) and one for the guest kernel (v_ring0) — simulating KPTI
for L2 at the hypervisor level: the user table simply never contains
kernel mappings.  Synchronization with the guest's GPT2 uses write
protection: GPT2 is read-only to L2, every guest PTE write traps, and
the hypervisor applies it to the shadow side.

A reverse map (gfn -> shadow entries) makes invalidation by guest frame
O(entries-for-frame) instead of O(table) — one of the three data groups
the fine-grained locks protect.  It is exact: every shadow entry is
listed under the guest frame it currently translates, and nothing else.

With ``kpti=False`` the manager keeps a single table per process; that
is also how classic (KVM) shadow paging keeps its tables
(:mod:`repro.hypervisors.shadow_paging`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.guest.process import Process
from repro.hw.costs import CostModel
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import PageTable, Pte


class SyncResult(NamedTuple):
    """Outcome of synchronizing one guest PTE into the shadow side."""

    vpn: int
    #: Total shadow entry writes across the dual tables.
    entry_writes: int
    #: True when new shadow table pages had to be allocated (structural
    #: change -> needs the meta lock under the fine-grained regime).
    structural: bool
    target_frame: int


class ShadowManager:
    """Dual shadow tables + reverse maps for one PVM hypervisor."""

    def __init__(
        self,
        table_phys: PhysicalMemory,
        costs: CostModel,
        translate_gfn: Callable[[int], int],
        kpti: bool = True,
        translate_block: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.table_phys = table_phys
        self.costs = costs
        self.translate_gfn = translate_gfn
        #: Block translation for 2 MiB guest mappings: base gfn -> an
        #: aligned, contiguous 512-frame target base.  When absent, huge
        #: guest entries are shadowed as huge only if per-frame
        #: translation happens to preserve contiguity (it usually does
        #: not), so machines that support THP must provide this.
        self.translate_block = translate_block
        self.kpti = kpti
        #: (pid, half) -> shadow table; half is "user" or "kernel".
        self._spts: Dict[Tuple[int, str], PageTable] = {}
        #: gfn -> set of (pid, half, vpn) shadow entries mapping it.
        self._rmap: Dict[int, Set[Tuple[int, str, int]]] = {}
        #: Frames of guest page-table pages currently write-protected.
        self.write_protected_frames: Set[int] = set()
        #: pid -> ``(gpt.uid, gpt.node_allocations, gpt.epoch)`` when its
        #: guest table was last scanned: an unchanged stamp means no table
        #: node was allocated or freed since, so a rescan finds nothing.
        self._gpt_stamps: Dict[int, Tuple[int, int, int]] = {}
        #: target frame -> guest frame (inverse of translate_gfn, filled
        #: on sync so rmap maintenance on unmap is O(1)).
        self._inverse: Dict[int, int] = {}
        self.syncs = 0
        self.rmap_invalidations = 0

    # -- table access -------------------------------------------------------

    def spt(self, proc: Process, half: str = "user") -> PageTable:
        """The process's shadow table for one half (created on demand)."""
        key = (proc.pid, half)
        table = self._spts.get(key)
        if table is None:
            if half not in ("user", "kernel"):
                raise ValueError(f"half must be user|kernel, got {half!r}")
            table = PageTable(self.table_phys, name=f"SPT12:{proc.pid}:{half}")
            self._spts[key] = table
        return table

    def halves(self, proc: Process) -> List[str]:
        """Which shadow tables a user-page sync must update."""
        return ["user", "kernel"] if self.kpti else ["user"]

    def tables_for(self, proc: Process) -> List[PageTable]:
        """The process's *existing* shadow tables (no creation).

        Working-set estimation harvests accessed bits from whatever
        tables the hardware actually walked; materializing empty ones
        here would charge table-page allocations to a read-only scan.
        """
        tables = []
        for half in ("user", "kernel"):
            table = self._spts.get((proc.pid, half))
            if table is not None:
                tables.append(table)
        return tables

    # -- write protection ---------------------------------------------------------

    def write_protect_gpt(self, proc: Process) -> int:
        """(Re-)write-protect all of a process's guest table frames.

        Returns the number of frames newly protected.  Called when a
        process comes under shadow management; new table nodes are added
        by :meth:`note_gpt_growth` as the guest table grows.  The scan is
        skipped (0 returned) while the guest table has neither allocated
        nor freed a node since this process's last scan.
        """
        gpt = proc.gpt
        stamp = (gpt.uid, gpt.node_allocations, gpt.epoch)
        if self._gpt_stamps.get(proc.pid) == stamp:
            return 0
        self._gpt_stamps[proc.pid] = stamp
        frames = set(gpt.node_frames())
        new = frames - self.write_protected_frames
        self.write_protected_frames |= new
        return len(new)

    def note_gpt_growth(self, proc: Process) -> None:
        """Write-protect any newly-allocated guest table frames."""
        self.write_protect_gpt(proc)

    # -- synchronization --------------------------------------------------------------

    def sync(self, proc: Process, vpn: int, gpt_pte: Pte) -> SyncResult:
        """Install/refresh the shadow entries for one guest PTE.

        Performs the real table updates in both halves (under KPTI) and
        maintains the reverse map.  Lock costs are charged by the caller
        through :class:`~repro.core.sptlocks.SptLockManager` — this
        method is pure mechanism.
        """
        gfn = gpt_pte.frame
        if gpt_pte.huge:
            if self.translate_block is None:
                raise ValueError(
                    "huge guest mapping but no block translator configured"
                )
            target = self.translate_block(gfn)
        else:
            target = self.translate_gfn(gfn)
        self._inverse[target] = gfn
        writes = 0
        structural = False
        pid = proc.pid
        for half in ("user", "kernel") if self.kpti else ("user",):
            table = self._spts.get((pid, half)) or self.spt(proc, half)
            existing = table.lookup(vpn)
            key = (pid, half, vpn)
            if existing is None:
                shadow_pte = Pte(
                    frame=target,
                    writable=gpt_pte.writable,
                    user=(half == "user"),
                    executable=gpt_pte.executable,
                    huge=gpt_pte.huge,
                )
                if gpt_pte.huge:
                    result = table.map_huge(vpn, shadow_pte)
                else:
                    result = table.map(vpn, shadow_pte)
                writes += len(result.written_frames)
                if result.allocated_levels:
                    structural = True
            else:
                if existing.frame != target:
                    # Retarget (e.g. a CoW break): the entry moves to
                    # the new guest frame's rmap set.
                    self._forget(key, existing.frame)
                    existing.frame = target
                table.protect(vpn, writable=gpt_pte.writable)
                writes += 1
            self._rmap.setdefault(gfn, set()).add(key)
        self.syncs += 1
        return SyncResult(
            vpn=vpn, entry_writes=writes, structural=structural,
            target_frame=target,
        )

    def unmap(self, proc: Process, vpn: int) -> int:
        """Drop the shadow entries covering ``vpn``.

        For a huge shadow entry only the (aligned) base unmaps it; other
        vpns inside the run are no-ops once the base has been dropped.
        """
        removed = 0
        for half in ("user", "kernel"):
            table = self._spts.get((proc.pid, half))
            if table is None:
                continue
            pte = table.lookup(vpn)
            if pte is None:
                continue
            if pte.huge:
                if vpn % 512 == 0:
                    table.unmap_huge(vpn)
                else:
                    continue
            else:
                table.unmap(vpn)
            self._forget((proc.pid, half, vpn), pte.frame)
            removed += 1
        return removed

    def lookup(self, proc: Process, vpn: int, half: str = "user") -> Optional[Pte]:
        """Current mapping state without faulting (None when absent)."""
        table = self._spts.get((proc.pid, half))
        return table.lookup(vpn) if table is not None else None

    def coherence_error(
        self, proc: Process, vpn: int, gpt_pte: Pte, target: int
    ) -> Optional[str]:
        """Audit the shadow entries for one guest PTE (sanitizer oracle).

        Read-only: compares every half's shadow entry against the guest
        PTE and the expected ``target`` frame, returning a description
        of the first incoherence or ``None`` when everything agrees.
        Charges nothing and mutates nothing.
        """
        for half in self.halves(proc):
            pte = self.lookup(proc, vpn, half)
            if pte is None:
                return f"{half}-half shadow entry missing"
            if pte.huge != gpt_pte.huge:
                return (f"{half}-half page-size mismatch "
                        f"(shadow huge={pte.huge}, guest huge={gpt_pte.huge})")
            if pte.frame != target:
                return (f"{half}-half shadow target {pte.frame:#x} != "
                        f"expected {target:#x}")
            if pte.writable and not gpt_pte.writable:
                return f"{half}-half shadow writable but guest PTE read-only"
        return None

    # -- reverse-map operations -----------------------------------------------------------

    def entries_for_gfn(self, gfn: int) -> Set[Tuple[int, str, int]]:
        """Reverse map: shadow entries that map one guest frame."""
        return set(self._rmap.get(gfn, ()))

    def downgrade_gfn(self, gfn: int, processes: Dict[int, Process]) -> int:
        """Make every shadow entry of ``gfn`` read-only (COW downgrade).

        The rmap turns this from a table scan into a direct walk of the
        affected entries.  Returns entries touched.
        """
        touched = 0
        for pid, half, vpn in self.entries_for_gfn(gfn):
            table = self._spts.get((pid, half))
            if table is None or table.lookup(vpn) is None:
                continue
            table.protect(vpn, writable=False)
            touched += 1
        self.rmap_invalidations += touched
        return touched

    # -- lifecycle --------------------------------------------------------------------------

    def drop_all(self) -> None:
        """Release every shadow table at once (guest eviction)."""
        for table in self._spts.values():
            table.release()
        self._spts.clear()
        self._rmap.clear()
        self._inverse.clear()
        self.write_protected_frames.clear()
        self._gpt_stamps.clear()

    def drop(self, proc: Process) -> int:
        """Release all shadow state of a process (exec/exit)."""
        dropped = 0
        for half in ("user", "kernel"):
            table = self._spts.pop((proc.pid, half), None)
            if table is None:
                continue
            for vpn, pte in table.iter_mappings():
                self._forget((proc.pid, half, vpn), pte.frame)
                dropped += 1
            table.release()
        return dropped

    # -- internals -----------------------------------------------------------------------------

    def _forget(self, key: Tuple[int, str, int], target: int) -> None:
        """Remove one shadow entry, which maps to ``target``, from the
        rmap; an emptied set goes together with its inverse entry."""
        # The rmap is keyed by *guest* frame; shadow PTEs store the
        # translated target.  The inverse map is filled on every sync,
        # so this is a plain lookup (identity as a safe fallback).
        gfn = self._inverse.get(target, target)
        entries = self._rmap.get(gfn)
        if entries is not None:
            entries.discard(key)
            if not entries:
                del self._rmap[gfn]
                self._inverse.pop(target, None)


class ShadowTables:
    """Mixin for machines whose hardware walks the shadow tables of a
    :class:`ShadowManager` in ``self.shadow``.

    PVM (dual tables) and classic shadow paging (single table) keep
    them the same way: a balloon discard zaps the frame's shadow entries
    through the reverse map, the walker sets A-bits in the shadow
    tables, and eviction drops them all.
    """

    shadow: ShadowManager

    def on_ept_violation(self, ctx, proc: Process, violation) -> None:
        """Never reached: the walks are one-dimensional, or run over an
        EPT01 the L1 chain warms inside ``translate``."""
        raise AssertionError(f"{self.name}: no EPT violation leaves translate()")

    def on_process_reset(self, ctx, proc: Process) -> None:
        """Shadow-side teardown on exec."""
        self.shadow.drop(proc)

    def on_process_destroyed(self, ctx, proc: Process) -> None:
        """Shadow-side teardown on exit."""
        self.shadow.drop(proc)

    def discard_gfn_backing(self, gfn: int) -> bool:
        """Balloon release: zap every shadow entry of the frame (via the
        reverse map), then release its backing."""
        if self.huge_block_base(gfn) is not None:
            return False
        shadow = self.shadow
        for pid, half, vpn in sorted(shadow.entries_for_gfn(gfn)):
            proc = self.kernel.processes.get(pid)
            if proc is not None:
                shadow.unmap(proc, vpn)
                # Scrub cached translations of the zapped entry: a TLB
                # hit after the host frame is reused would read someone
                # else's memory.  Raw flush (no clock charge) — reclaim
                # work is priced by the balloon device, not here.
                asid = self.asid_for(proc, kernel_half=(half == "kernel"))
                for cpu in self.contexts:
                    cpu.tlb.flush_page(asid, vpn)
        return super().discard_gfn_backing(gfn)

    def accessed_bit_tables(self, proc: Process) -> List[PageTable]:
        """The walker sets A-bits in the shadow tables, not the GPT."""
        return self.shadow.tables_for(proc)

    def teardown_guest_memory(self) -> None:
        """Eviction: drop every shadow table before freeing backing."""
        self.shadow.drop_all()
        super().teardown_guest_memory()
