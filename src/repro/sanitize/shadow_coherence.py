"""Shadow-paging coherence checker.

Cross-checks the *cached* translation state (TLB entries, shadow PTEs)
against fresh, uncached walks of the authoritative tables (guest GPT,
the L1 chain's backing map, EPT01) — the 2-D ground truth.  Three hook
families:

* ``check_flush_*`` — called by :class:`~repro.hw.mmu.Mmu` immediately
  after each flush executes, asserting the flush left no matching
  translation behind (the "skipped flush" bug class).
* ``after_sync`` — called after every SPT fix, asserting both shadow
  halves agree with the guest PTE and the expected target frame.
* ``after_zap`` — called after ``invalidate_pages``, asserting the
  zapped range is gone from both the shadow tables and the TLB.

``after_sync``/``after_zap`` additionally audit the cached TLB entries
against fresh guest-GPT×EPT walks: every Nth call in ``sampled`` mode
(deterministic counter, never wall clock or RNG), every call in
``full`` mode.

All probes are read-only and charge no virtual time: the oracle uses
``PageTable.lookup`` (never ``walk``, which sets accessed/dirty bits),
``dict.get`` on the backing maps (never the lazily-allocating
``backing_frame``), and :meth:`Tlb.peek_packed` (never ``lookup``,
which counts hits/misses).
"""

from __future__ import annotations

from typing import Optional

from repro.hw.tlb import HUGE_SPAN, HUGE_TAG, KEY_SHIFT, Tlb
from repro.hw.types import NUM_PCIDS, PCID_BITS, Asid
from repro.sanitize.core import SanitizeReport, Violation

#: In ``sampled`` mode, audit the TLBs on every Nth sync/zap hook.
SAMPLE_EVERY = 16


class ShadowCoherenceSanitizer:
    """TLB/shadow-vs-guest-table coherence checks for one machine."""

    def __init__(self, machine, report: SanitizeReport) -> None:
        self.machine = machine
        self.report = report
        self._tick = 0

    # -- flush invariants (machine-agnostic, called from the Mmu) --------

    def check_flush_page(self, tlb: Tlb, asid: Asid, vpn: int) -> None:
        """After INVLPG, no 4K entry for (asid, vpn) may remain.

        Only the 4K key is asserted: hardware INVLPG drops the entry it
        finds, and the model pops the covering huge entry only when no
        4K entry existed — mirroring that, the huge key is only checked
        when the page had no 4K mapping (i.e. always, via peek, minus
        the case where a huge entry coexists with a removed 4K one,
        which the pcid/vpid flush invariants still cover).
        """
        self.report.check("shadow")
        akey = asid.key
        if (akey << KEY_SHIFT) | vpn in tlb._entries:
            self._stale(tlb, akey, vpn, "stale-after-page-flush",
                        "4K entry survived flush_page")

    def check_flush_pcid(self, tlb: Tlb, asid: Asid) -> None:
        """After a PCID flush, no non-global entry of the ASID remains."""
        self.report.check("shadow")
        akey = asid.key
        for key, entry in tlb._entries.items():
            if key >> KEY_SHIFT == akey and not entry.global_:
                self._stale(tlb, akey, self._entry_vpn(key, entry),
                            "stale-after-pcid-flush",
                            "entry survived flush_pcid")

    def check_flush_vpid(self, tlb: Tlb, vpid: int) -> None:
        """After a VPID flush, no non-global entry of the VM remains."""
        self.report.check("shadow")
        for key, entry in tlb._entries.items():
            akey = key >> KEY_SHIFT
            if akey >> PCID_BITS == vpid and not entry.global_:
                self._stale(tlb, akey, self._entry_vpn(key, entry),
                            "stale-after-vpid-flush",
                            "entry survived flush_vpid")

    def check_flush_all(self, tlb: Tlb) -> None:
        """After a full flush the TLB must be empty."""
        self.report.check("shadow")
        if tlb._entries:
            key, entry = next(iter(tlb._entries.items()))
            akey = key >> KEY_SHIFT
            self._stale(tlb, akey, self._entry_vpn(key, entry),
                        "stale-after-full-flush", "entry survived flush_all")

    # -- SPT fix / zap hooks (PVM machines) ------------------------------

    def after_sync(self, ctx, proc, vpn: int, gpt_pte, result) -> None:
        """Audit the shadow entries just installed for one guest PTE."""
        self.report.check("shadow")
        machine = self.machine
        target = self._expected_target(gpt_pte.frame)
        if target is not None:
            err = machine.shadow.coherence_error(proc, vpn, gpt_pte, target)
            if err is not None:
                self.report.violation(Violation(
                    checker="shadow", kind="shadow-incoherent-after-sync",
                    detail=err, vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                    expected=target,
                    actual=getattr(machine.shadow.lookup(proc, vpn),
                                   "frame", None),
                ))
        self._maybe_scan()

    def after_zap(self, ctx, proc, vpns) -> None:
        """Audit that a zapped range is gone from shadow tables + TLB."""
        machine = self.machine
        self.report.check("shadow", max(1, len(vpns)))
        akey = self._user_akey(proc)
        for vpn in vpns:
            for half in ("user", "kernel"):
                pte = machine.shadow.lookup(proc, vpn, half)
                # A huge leftover is legal: only the aligned base vpn
                # unmaps a 2 MiB shadow entry, so zapping a partial run
                # leaves the covering entry in place by design.
                if pte is not None and not pte.huge:
                    self.report.violation(Violation(
                        checker="shadow", kind="shadow-survived-zap",
                        detail=f"{half}-half shadow entry survived "
                               f"invalidate_pages",
                        vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                        expected=None, actual=pte.frame,
                    ))
            if akey is not None:
                frame = ctx.tlb.peek_packed(akey, vpn)
                if frame is not None:
                    self._stale(ctx.tlb, akey, vpn, "stale-after-zap",
                                "TLB entry survived invalidate_pages")
        self._maybe_scan()

    def after_discard(self) -> None:
        """Audit cached translations after a balloon/reclaim discard.

        A discarded (and soon reallocated) host frame must not remain
        reachable through any TLB entry or shadow PTE; a full
        cross-check right after the discard catches the "forgot to
        zap" bug class at its source instead of at the next sampled
        sync.
        """
        self.report.check("shadow")
        self.scan_tlbs()

    # -- TLB-vs-2D-walk audit --------------------------------------------

    def scan_tlbs(self) -> int:
        """Cross-check every cached TLB entry against fresh table walks.

        Returns the number of entries audited.  Restricted to machines
        with shadow tables *and* an active, never-recycled PCID mapping:
        attribution of a hardware PCID to a guest process is only
        unambiguous while the mapping window has not stolen slots (and
        with the mapping disabled, every process shares PCID 0).
        """
        machine = self.machine
        pcids = getattr(machine, "pcids", None)
        shadow = getattr(machine, "shadow", None)
        if pcids is None or shadow is None or not pcids.enabled:
            return 0
        if pcids.recycled:
            return 0
        # hw pcid -> (guest pcid, kernel_half); read-only view of the map.
        reverse = {hw: key for key, hw in pcids._map.items()}
        # guest pcid -> live processes (collisions mod the PCID window
        # make attribution ambiguous; those entries are skipped).
        by_pcid = {}
        for p in machine.kernel.processes.values():
            if p.alive:
                by_pcid.setdefault(p.pcid, []).append(p)
        checked = 0
        for ctx in machine.contexts:
            for key, entry in ctx.tlb._entries.items():
                if entry.global_:
                    continue
                akey = key >> KEY_SHIFT
                if akey >> PCID_BITS != machine.vpid:
                    continue
                mapping = reverse.get(akey & (NUM_PCIDS - 1))
                if mapping is None:
                    continue
                guest_pcid, kernel_half = mapping
                if kernel_half:
                    continue  # translate() only fills user-half tags
                procs = by_pcid.get(guest_pcid, ())
                if len(procs) != 1:
                    continue
                checked += 1
                self._check_entry(ctx, procs[0], key, entry)
        if checked:
            self.report.check("shadow-scan", checked)
        return checked

    def _check_entry(self, ctx, proc, key: int, entry) -> None:
        if entry.huge:
            vpn = (key & (HUGE_TAG - 1)) << 9
        else:
            vpn = key & (HUGE_TAG - 1)
        machine = self.machine
        gpt_pte = proc.gpt.lookup(vpn)
        if gpt_pte is None:
            self.report.violation(Violation(
                checker="shadow", kind="tlb-maps-unmapped",
                detail="cached translation for a guest-unmapped page",
                vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                expected=None, actual=entry.frame,
            ))
            return
        if entry.huge != gpt_pte.huge:
            self.report.violation(Violation(
                checker="shadow", kind="tlb-page-size-mismatch",
                detail=f"cached huge={entry.huge} but guest PTE "
                       f"huge={gpt_pte.huge}",
                vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                expected=gpt_pte.huge, actual=entry.huge,
            ))
            return
        # Past the size check the entry and the guest PTE agree on huge-
        # ness: a 4K pair compares its one frame, a huge pair compares
        # at the 2 MiB base (TLB huge entries are normalized to their
        # base frame on insert) — either way the guest frame is
        # ``gpt_pte.frame``.
        expected = self._expected_host_frame(gpt_pte.frame)
        if expected is None:
            return  # backing not materialized: nothing to compare against
        if entry.frame != expected:
            self.report.violation(Violation(
                checker="shadow", kind="tlb-stale-translation",
                detail="cached frame disagrees with fresh GPT x EPT walk",
                vpid=machine.vpid, pcid=proc.pcid, vpn=vpn,
                expected=expected, actual=entry.frame,
            ))

    # -- internals --------------------------------------------------------

    def _maybe_scan(self) -> None:
        self._tick += 1
        if self.report.mode == "full" or self._tick % SAMPLE_EVERY == 0:
            self.scan_tlbs()

    def _user_akey(self, proc) -> Optional[int]:
        """Packed user-half ASID key for ``proc`` without touching the
        PCID mapper's LRU state (``asid_for`` would)."""
        machine = self.machine
        pcids = getattr(machine, "pcids", None)
        if pcids is None:
            return (machine.vpid << PCID_BITS) | proc.pcid
        if not pcids.enabled:
            return (machine.vpid << PCID_BITS) | 0
        hw = pcids._map.get((proc.pcid, False))
        if hw is None:
            return None
        return (machine.vpid << PCID_BITS) | hw

    def _expected_target(self, gfn: int) -> Optional[int]:
        """Shadow target for a guest frame, via read-only map probes."""
        machine = self.machine
        chain = getattr(machine, "chain", None)
        if chain is not None:
            return chain.backing.get(gfn)
        return machine._backing.get(gfn)

    def _expected_host_frame(self, gfn: int) -> Optional[int]:
        """Host frame a fresh 2-D walk would produce for a guest frame."""
        target = self._expected_target(gfn)
        if target is None:
            return None
        chain = getattr(self.machine, "chain", None)
        ept01 = None if chain is None else chain.ept01
        if ept01 is None:
            return target  # no EPT01 below: targets are host frames
        ept_pte = ept01.lookup(target)
        if ept_pte is None:
            return None  # EPT01 not warmed for this frame yet
        if ept_pte.huge:
            return ept_pte.frame + target % HUGE_SPAN
        return ept_pte.frame

    def _entry_vpn(self, key: int, entry) -> int:
        if entry.huge:
            return (key & (HUGE_TAG - 1)) << 9
        return key & (HUGE_TAG - 1)

    def _stale(self, tlb: Tlb, akey: int, vpn: int, kind: str,
               detail: str) -> None:
        self.report.violation(Violation(
            checker="shadow", kind=kind, detail=detail,
            vpid=akey >> PCID_BITS, pcid=akey & (NUM_PCIDS - 1), vpn=vpn,
            expected=None, actual=tlb.peek_packed(akey, vpn),
        ))
