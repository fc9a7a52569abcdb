"""The deployment-scenario abstraction shared by every stack.

A :class:`Machine` is one of the paper's five secure-container
deployment scenarios.  Workloads and the container runtime program
against its API — ``compute``, ``syscall``, ``touch``, ``mmap``,
``fork``, ``halt``, the Table-1 privileged micro-ops — and each concrete
machine implements the architectural dances behind them: how a
user/kernel transition is priced, what happens on a guest page fault,
who gets trapped by a guest page-table write.

Concurrency: each workload task runs on its own :class:`CpuCtx`
(clock + private TLB + MMU), while locks, the host's root-mode service,
and the shadow/extended page tables are shared machine state, so
contention emerges from the engine's earliest-clock interleaving.
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.guest.addrspace import SegfaultError, Vma  # noqa: F401 (re-exported)
from repro.guest.kernel import ForkWork, GptFix, GuestKernel
from repro.guest.process import Process
from repro.guest.syscalls import Syscall, syscall as lookup_syscall
from repro.hw.costs import CostModel, DEFAULT_COSTS
from repro.hw.events import EventLog, SwitchKind, TraceEvent
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import EptViolationException, Mmu
from repro.hw.pagetable import PageFaultException
from repro.hw.psc import PagingStructureCache
from repro.hw.tlb import Tlb
from repro.hw.types import MIB, AccessType, Asid, PageFault
from repro.sim.clock import Clock
from repro.sim.locks import SimLock


#: Table 1 privileged operation -> the :class:`CostModel` fields of its
#: handler body: (hardware-assisted VMX, PVM).
PRIVILEGED_HANDLERS: Dict[str, Tuple[str, str]] = {
    "hypercall": ("hypercall_handler", "pvm_hypercall_handler"),
    "exception": ("exception_handler", "pvm_exception_handler"),
    "msr": ("msr_handler", "pvm_msr_handler"),
    "cpuid": ("cpuid_handler", "pvm_cpuid_handler"),
    "pio": ("pio_handler", "pvm_pio_handler"),
}


def weak_method(obj, name: str):
    """``getattr(obj, name)`` that does not keep ``obj`` alive.

    Components a machine owns (its shadow manager, switcher, L1 memory
    chain) call back into it.  Bound methods would close a reference
    cycle, so a retired machine, with its page tables, shadow state and
    per-page locks, would wait for the cyclic garbage collector instead
    of being freed when its last reference goes.
    """
    ref = weakref.ref(obj)
    func = getattr(type(obj), name)
    return lambda *args: func(ref(), *args)


#: Valid :attr:`MachineConfig.sanitize_mode` values.
SANITIZE_MODES = ("sampled", "full")


@dataclass
class MachineConfig:
    """Tunable knobs shared by all machines (ablations override these)."""

    kpti: bool = True
    #: Transparent huge pages in the guest kernel (2 MiB anonymous
    #: mappings).  Honoured only by machines whose paging design can
    #: back huge mappings (``Machine.supports_thp``).
    thp: bool = False
    #: Guest memory per machine; scaled down from the paper's testbed.
    guest_mem_bytes: int = 512 * MIB
    host_mem_bytes: int = 2048 * MIB
    tlb_capacity: int = 1536
    #: Paging-structure caches (PML4E/PDPTE/PDE caches + nested GPA
    #: cache).  Off by default so virtual-time numbers stay bit-identical
    #: to the seed model; experiments opt in to study partial walks.
    psc: bool = False
    #: Cached intermediate entries per vCPU when ``psc`` is on.
    psc_capacity: int = 64
    #: Cap on fault-retry loops; a correct machine never hits it.
    max_fault_retries: int = 16
    # -- PVM optimization toggles (ignored by KVM machines) -------------
    direct_switch: bool = True
    prefault: bool = True
    pcid_mapping: bool = True
    fine_grained_locks: bool = True
    # -- PVM future-work extensions (§5), off by default -----------------
    #: Advanced direct switching: sysret completes at h_ring3, saving
    #: the h_ring0 exit on the syscall return path.
    advanced_direct_switch: bool = False
    #: The switcher distinguishes guest-PT faults from shadow-PT faults
    #: and injects the former straight back into L2, saving one exit to
    #: the PVM hypervisor.
    switcher_fault_triage: bool = False
    #: Write-protection-less synchronization: the guest and hypervisor
    #: build page tables collaboratively; GPT writes no longer trap and
    #: the dirty entries are synchronized in batch on the iret path.
    wp_less_sync: bool = False
    # -- runtime sanitizers (repro.sanitize) ------------------------------
    #: Attach the runtime-invariant sanitizers (shadow coherence,
    #: lockdep, VMX state machine).  Off by default: checks charge no
    #: virtual time, but they cost host CPU.  Also switchable via the
    #: ``PVM_SANITIZE`` environment variable (``1``/``sampled``/``full``).
    sanitize: bool = False
    #: "sampled" cross-checks a deterministic subset of TLB entries per
    #: sync; "full" audits every cached entry after every SPT fix/zap.
    sanitize_mode: str = "sampled"

    def __post_init__(self) -> None:
        if self.sanitize_mode not in SANITIZE_MODES:
            raise ValueError(
                f"MachineConfig.sanitize_mode must be one of "
                f"{SANITIZE_MODES}, got {self.sanitize_mode!r}"
            )
        retries = self.max_fault_retries
        if type(retries) is not int or retries < 1:
            raise ValueError(
                f"MachineConfig.max_fault_retries must be an int >= 1, "
                f"got {retries!r}"
            )


@dataclass
class CpuCtx:
    """One virtual CPU's execution context: clock + private TLB."""

    cpu_id: int
    clock: Clock
    tlb: Tlb
    mmu: Mmu
    #: Virtual time of the last timer tick delivered on this context.
    last_timer: int = 0


class Machine(abc.ABC):
    """Base class for the five deployment scenarios."""

    #: Scenario label as used in the paper's figures ("kvm-ept (BM)", ...).
    name: str = "abstract"
    #: True for 2-level nested scenarios.
    nested: bool = False
    #: Whether this paging design can back 2 MiB guest mappings.
    supports_thp: bool = True
    #: The L1 VM's memory under the guest
    #: (:class:`~repro.hypervisors.l1chain.L1Chain`); None on bare metal.
    chain = None

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        costs: CostModel = DEFAULT_COSTS,
        events: Optional[EventLog] = None,
        host_phys: Optional[PhysicalMemory] = None,
    ) -> None:
        self.config = config or MachineConfig()
        self.costs = costs
        self.events = events or EventLog()
        # A shared pool (memory-QoS fleets overcommitting one host)
        # may be passed in; by default each machine owns its host RAM.
        self.host_phys = host_phys or PhysicalMemory(
            "host", self.config.host_mem_bytes
        )
        # Guest RAM streams: the guest kernel prefers fresh frames, so
        # the paper's alloc/touch benchmarks keep faulting on new
        # guest-physical pages (see FrameAllocator policy docs).
        self.guest_phys = PhysicalMemory(
            "guest", self.config.guest_mem_bytes, policy="stream"
        )
        self.kernel = GuestKernel(
            self.guest_phys, costs, kpti=self.config.kpti, name=self.name,
            thp=self.config.thp and self.supports_thp,
        )
        #: The guest's VPID in the host TLB hierarchy.
        self.vpid = 1
        self.contexts: List[CpuCtx] = []
        #: Root-mode service lock: L0's handling of exits is serialized
        #: per host resource (VMCS merge, EPT02 updates share this).
        self.l0_lock = SimLock("l0-service", self.events)
        #: Guest-kernel-internal serialization of process creation (pid
        #: table, anon rmap, zone locks) — a property of the guest
        #: kernel, identical across platforms; drives the fork-family
        #: degradation every configuration shows at high concurrency.
        self.guest_fork_lock = SimLock("guest-fork", self.events)
        #: Fault-injection plan consulted by the I/O stack and the
        #: container supervisor (None = no faults, zero-cost paths).
        self.fault_plan = None
        #: guest frame -> host frame backing (the "memslot" mapping).
        self._backing: Dict[int, int] = {}
        #: Guest frames whose host backing was discarded (ballooned /
        #: reclaimed) and not yet re-established; next touch refaults.
        self._discarded_gfns: Set[int] = set()
        #: Base gfns of 2 MiB guest allocations (for huge EPT/shadow fills).
        self._huge_gfn_bases: set = set()
        #: Runtime-sanitizer suite (:class:`repro.sanitize.SanitizerSuite`)
        #: or None.  Attached lazily at the first ``new_context`` so
        #: subclass state (locks, VMCS shadows, shared l0_lock rebinding)
        #: exists before the checkers wire into it.
        self.sanitizers = None
        self._sanitize_checked = False

    # ------------------------------------------------------------------
    # context / process management
    # ------------------------------------------------------------------

    def new_context(self) -> CpuCtx:
        """Create one vCPU context (clock + private TLB [+ PSC])."""
        if not self._sanitize_checked:
            self._sanitize_checked = True
            self._maybe_attach_sanitizers()
        cpu_id = len(self.contexts)
        tlb = Tlb(self.config.tlb_capacity)
        psc = (
            PagingStructureCache(self.config.psc_capacity)
            if self.config.psc else None
        )
        ctx = CpuCtx(
            cpu_id=cpu_id,
            clock=Clock(),
            tlb=tlb,
            mmu=Mmu(tlb, self.events, self.costs, psc=psc),
        )
        if self.sanitizers is not None:
            ctx.mmu.sanitizer = self.sanitizers.shadow
        self.contexts.append(ctx)
        return ctx

    def _maybe_attach_sanitizers(self) -> None:
        """Attach the sanitizer suite when config or env asks for it."""
        from repro.sanitize import attach_sanitizers, resolve_mode

        mode = resolve_mode(self.config)
        if mode is not None:
            attach_sanitizers(self, mode=mode)

    def spawn_process(self, vmas: Optional[List[Vma]] = None) -> Process:
        """Create the guest's next process."""
        return self.kernel.create_process(vmas)

    def backing_frame(self, guest_frame: int) -> int:
        """Host frame backing a guest-physical frame (allocated lazily)."""
        frame = self._backing.get(guest_frame)
        if frame is None:
            frame = self.host_phys.alloc_frame(tag="guest-ram")
            self._backing[guest_frame] = frame
            # Only where _backing is keyed by the guest's own frames
            # (bare metal, or direct paging's guest in L1 memory); other
            # nested machines key it by gfn1 and their L1 chain reports
            # refaults instead (gfn1/gfn2 numbers would collide here).
            chain = self.chain
            if self._discarded_gfns and (
                    chain is None or chain.phys is self.guest_phys):
                self.note_gfn_rebacked(guest_frame)
        return frame

    def note_gfn_rebacked(self, gfn: int) -> None:
        """Record that a previously discarded guest frame refaulted in."""
        if gfn in self._discarded_gfns:
            self._discarded_gfns.discard(gfn)
            self.events.refault("balloon")

    def backing_block(self, guest_base: int) -> int:
        """Aligned 512-frame host block backing a guest 2 MiB run."""
        frame = self._backing.get(guest_base)
        if frame is None:
            block = self.host_phys.alloc_aligned(512, tag="guest-ram-huge")
            for i in range(512):
                self._backing[guest_base + i] = block.start + i
            frame = block.start
        return frame

    def fault_body_ns(self, proc: Process, fix: GptFix) -> int:
        """Guest kernel work for one fault fix (shared across stacks).

        Also records huge allocations so the extended/shadow dimension
        can back them with huge entries.
        """
        if fix.huge:
            self._huge_gfn_bases.add(fix.pte.frame)
            return self.costs.minor_fault_body + self.costs.thp_fault_extra
        if fix.cow_break:
            return self.costs.minor_fault_body + self.costs.cow_copy
        vma = proc.addr_space.vma_at(fix.vpn)
        if vma.kind == "file":
            return self.costs.file_fault_body
        return self.costs.minor_fault_body

    def huge_block_base(self, gfn: int):
        """The 2 MiB guest block containing ``gfn``, if one exists."""
        base = gfn - (gfn % 512)
        return base if base in self._huge_gfn_bases else None

    def asid_for(self, proc: Process, kernel_half: bool = False) -> Asid:
        """TLB tag for a process (PVM overrides to apply PCID mapping)."""
        return Asid(vpid=self.vpid, pcid=proc.pcid)

    # ------------------------------------------------------------------
    # workload-facing API
    # ------------------------------------------------------------------

    def compute(self, ctx: CpuCtx, ns: int) -> None:
        """Burn ``ns`` of guest user-mode CPU, absorbing timer interrupts."""
        if ns < 0:
            raise ValueError("compute time must be non-negative")
        end = ctx.clock.now + ns
        interval = self.costs.timer_interval
        while True:
            next_tick = ctx.last_timer + interval
            if next_tick > end:
                break
            ctx.clock.advance_to(next_tick)
            ctx.last_timer = next_tick
            self.deliver_timer(ctx)
        ctx.clock.advance_to(end)

    def syscall(self, ctx: CpuCtx, proc: Process, name: str) -> None:
        """Execute one named syscall: transition + kernel body."""
        spec = lookup_syscall(name)
        self._syscall_round_trip(ctx, proc)
        ctx.clock.advance(spec.body_ns)
        for _ in range(spec.extra_transitions):
            self._syscall_round_trip(ctx, proc)
        if spec.pte_writes:
            self.priced_gpt_writes(ctx, proc, spec.pte_writes, kernel_pages=True)

    def touch(self, ctx: CpuCtx, proc: Process, vpn: int, write: bool = False) -> int:
        """Access one user page, handling any faults per-architecture.

        Returns the host frame finally backing the page.
        """
        access = AccessType.WRITE if write else AccessType.READ
        for _ in range(self.config.max_fault_retries):
            try:
                return self.translate(ctx, proc, vpn, access)
            except PageFaultException as exc:
                try:
                    self.on_guest_fault(ctx, proc, exc.fault)
                except SegfaultError:
                    # Unservable fault: the guest kernel delivers SIGSEGV
                    # to the process (lmbench's prot-fault path).
                    self.on_segfault(ctx, proc)
                    raise
            except EptViolationException as exc:
                self.on_ept_violation(ctx, proc, exc.violation)
        raise RuntimeError(
            f"{self.name}: fault loop did not converge for vpn {vpn:#x}"
        )

    def mmap(self, ctx: CpuCtx, proc: Process, length_bytes: int,
             writable: bool = True, kind: str = "anon",
             file_key: Optional[str] = None) -> Vma:
        """Guest mmap syscall (lazy; pages fault in on touch)."""
        self._syscall_round_trip(ctx, proc)
        ctx.clock.advance(self.costs.syscall_dispatch + 300)
        return self.kernel.sys_mmap(
            proc, length_bytes, writable=writable, kind=kind, file_key=file_key
        )

    def munmap(self, ctx: CpuCtx, proc: Process, vma: Vma) -> None:
        """Guest munmap syscall: VMA + PTE + shadow teardown."""
        self._syscall_round_trip(ctx, proc)
        ctx.clock.advance(self.costs.syscall_dispatch + 300)
        work = self.kernel.sys_munmap(proc, vma)
        if work.entry_writes:
            self.priced_gpt_writes(ctx, proc, work.entry_writes)
            self.invalidate_pages(ctx, proc, work.vpns)

    def mprotect(self, ctx: CpuCtx, proc: Process, vma: Vma, writable: bool) -> None:
        """Guest mprotect syscall with shadow/TLB invalidation."""
        self._syscall_round_trip(ctx, proc)
        writes = self.kernel.sys_mprotect(proc, vma, writable)
        if writes:
            self.priced_gpt_writes(ctx, proc, writes)
            vpns = tuple(range(vma.start_vpn, vma.end_vpn))
            self.invalidate_pages(ctx, proc, vpns)

    def fork(self, ctx: CpuCtx, proc: Process) -> Process:
        """Fork: page-table-heavy and touch-free (paper §4.2's fork rows)."""
        self._syscall_round_trip(ctx, proc)
        work: ForkWork = self.kernel.sys_fork(proc)
        ctx.clock.advance(self.costs.fork_body)
        # Per-page duplication work runs under the guest kernel's own
        # process-creation serialization.
        self.guest_fork_lock.run_locked(
            ctx.clock, hold_ns=work.pages_shared * self.costs.fork_per_page
        )
        total_writes = work.parent_writes + work.child_writes
        if total_writes:
            self.priced_gpt_writes(ctx, proc, total_writes, structural=True)
        if work.parent_writes:
            # Parent pages were downgraded to read-only: stale writable
            # translations must go.
            self.invalidate_asid(ctx, proc)
        self.on_process_created(ctx, work.child)
        return work.child

    def exec(self, ctx: CpuCtx, proc: Process, image_pages: int = 64) -> None:
        """Guest exec: image teardown + fresh VMAs + demand faults."""
        self._syscall_round_trip(ctx, proc)
        work = self.kernel.sys_exec(proc, image_pages=image_pages)
        ctx.clock.advance(self.costs.exec_body)
        if work.entry_writes:
            self.priced_gpt_writes(ctx, proc, work.entry_writes)
        self.invalidate_asid(ctx, proc)
        self.on_process_reset(ctx, proc)
        # Fault in the fresh image (text+data) — demand paging.
        for vma in list(proc.addr_space):
            for vpn in range(vma.start_vpn, min(vma.end_vpn, vma.start_vpn + 8)):
                self.touch(ctx, proc, vpn, write=vma.writable)

    def exit(self, ctx: CpuCtx, proc: Process) -> None:
        """Guest process exit: full teardown."""
        self._syscall_round_trip(ctx, proc)
        n_pages = proc.gpt.mapped_pages
        self.kernel.exit_process(proc)
        ctx.clock.advance(self.costs.syscall_dispatch + n_pages * 40)
        self.invalidate_asid(ctx, proc)
        self.on_process_destroyed(ctx, proc)

    def context_switch(self, ctx: CpuCtx, from_proc: Process, to_proc: Process) -> None:
        """Guest scheduler switches processes (CR3 load)."""
        ctx.clock.advance(self.costs.context_switch)
        self.on_cr3_switch(ctx, from_proc, to_proc)

    # -- paravirtual I/O ---------------------------------------------------

    @property
    def io(self):
        """The machine's paravirtual I/O stack (virtio-blk + vhost-net)."""
        stack = getattr(self, "_io_stack", None)
        if stack is None:
            from repro.io.devices import IoStack

            stack = self._io_stack = IoStack(self)
        return stack

    def blk_read(self, ctx: CpuCtx, proc: Process, nbytes: int):
        """Block read through the paravirtual I/O stack."""
        return self.io.blk_request(ctx, nbytes, write=False)

    def blk_write(self, ctx: CpuCtx, proc: Process, nbytes: int):
        """Block write through the paravirtual I/O stack."""
        return self.io.blk_request(ctx, nbytes, write=True)

    def net_send(self, ctx: CpuCtx, proc: Process, nbytes: int):
        """Transmit; see the shared request path."""
        return self.io.net_send(ctx, nbytes)

    def net_recv(self, ctx: CpuCtx, proc: Process, nbytes: int):
        """Receive; see the shared request path."""
        return self.io.net_recv(ctx, nbytes)

    @property
    def balloon(self):
        """The machine's virtio-balloon device (created lazily)."""
        dev = getattr(self, "_balloon", None)
        if dev is None:
            from repro.io.balloon import BalloonDevice

            dev = self._balloon = BalloonDevice(self)
        return dev

    def discard_gfn_backing(self, gfn: int) -> bool:
        """Drop the host backing of one ballooned guest frame.

        Returns True when a host frame was actually released.  Frames
        inside 2 MiB-backed runs are skipped (splitting huge backing is
        not worth one page).  Nested machines unwind the whole L1 chain.
        Subclasses extend this to invalidate their extended/shadow state
        for the frame.
        """
        if self.huge_block_base(gfn) is not None:
            return False
        if self.chain is not None:
            return self.chain.discard(gfn)
        hfn = self._backing.pop(gfn, None)
        if hfn is None:
            return False
        self.host_phys.free_frame(hfn)
        return True

    # -- memory QoS (working-set estimation + reclaim support) -----------

    def accessed_bit_tables(self, proc: Process) -> List:
        """Page tables whose leaf A-bits the walker sets for ``proc``.

        The hardware walker marks accessed/dirty in whatever table it
        actually walks: the guest table here (EPT designs), the shadow
        tables on shadow-paging machines (which override this).  Only
        *existing* tables are returned — a scan must never materialize
        shadow state.
        """
        return [proc.gpt]

    def harvest_working_set(self, ctx: CpuCtx) -> Tuple[int, int]:
        """PML-style A-bit scan-and-clear over every live process.

        Returns ``(accessed_pages, scanned_entries)``.  Each scanned
        leaf entry is charged ``costs.wse_scan_per_entry``, and every
        scanned process is invalidated through the machine's own hook —
        clearing A-bits without flushing would let cached translations
        keep the bits stale, so the scan pays real flushes and the
        guest pays real refaults, exactly like hardware PML.
        """
        accessed = scanned = 0
        for pid in sorted(self.kernel.processes):
            proc = self.kernel.processes[pid]
            proc_scanned = 0
            for table in self.accessed_bit_tables(proc):
                a, s = table.harvest_accessed(clear=True)
                accessed += a
                proc_scanned += s
            scanned += proc_scanned
            if proc_scanned:
                self.invalidate_asid(ctx, proc)
        if scanned:
            ctx.clock.advance(scanned * self.costs.wse_scan_per_entry)
        self.events.pressure_event("wse-scan")
        return accessed, scanned

    def resident_guest_pages(self) -> int:
        """Guest pages currently backed by host frames."""
        return len(self._backing)

    def teardown_guest_memory(self) -> None:
        """Release every host frame backing this guest (eviction path).

        Nested machines release their L1 chain first.  Subclasses extend
        this to drop extended/shadow state that references the freed
        frames; the base leaves translation caches to the supervisor's
        regular crash teardown.
        """
        if self.chain is not None:
            self.chain.teardown()
        self.host_phys.free_many(self._backing.values())
        self._backing.clear()
        self._huge_gfn_bases.clear()
        self._discarded_gfns.clear()

    def virtio_doorbell(self, ctx: CpuCtx) -> None:
        """Guest kicks a virtqueue: one exit to the vhost backend.

        Default (single-level VMX): a hardware round trip to the host's
        vhost worker.  Nested machines override with their switch paths.
        """
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)
        self.events.l0_trap("virtio-doorbell")
        ctx.clock.advance(self.costs.virtio_doorbell_handler)
        self.hw_exit_entry(ctx, SwitchKind.HW_L1_L0)

    def deliver_device_irq(self, ctx: CpuCtx) -> None:
        """Completion interrupt: rides the same path as the timer."""
        self.deliver_timer(ctx)
        self.events.interrupt("virtio")

    # -- Table 1 privileged micro-operations -----------------------------

    def hypercall(self, ctx: CpuCtx) -> None:
        """Look up a hypercall by name (KeyError with catalog on typo)."""
        self._privileged(ctx, "hypercall")

    def exception(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: invalid-opcode exception round trip."""
        self._privileged(ctx, "exception")

    def msr_access(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: MSR access round trip."""
        self._privileged(ctx, "msr")

    def cpuid(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: CPUID round trip."""
        self._privileged(ctx, "cpuid")

    def pio(self, ctx: CpuCtx) -> None:
        """Table-1 micro-op: port I/O round trip."""
        self._privileged(ctx, "pio")

    # ------------------------------------------------------------------
    # architecture-specific machinery
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def translate(self, ctx: CpuCtx, proc: Process, vpn: int,
                  access: AccessType) -> int:
        """One hardware translation attempt; raises on fault."""

    @abc.abstractmethod
    def on_guest_fault(self, ctx: CpuCtx, proc: Process, fault: PageFault) -> None:
        """Architecture-specific guest page-fault dance."""

    @abc.abstractmethod
    def on_ept_violation(self, ctx: CpuCtx, proc: Process, violation) -> None:
        """Architecture-specific extended-dimension fault dance."""

    @abc.abstractmethod
    def priced_gpt_writes(self, ctx: CpuCtx, proc: Process, writes: int,
                          kernel_pages: bool = False,
                          structural: bool = False) -> None:
        """Charge whatever the platform charges for guest PTE writes.

        ``structural`` marks bulk table construction (fork/exec), whose
        shadow-side bookkeeping touches inter-shadow-page structure."""

    @abc.abstractmethod
    def _syscall_round_trip(self, ctx: CpuCtx, proc: Process) -> None:
        """User -> kernel -> user transition for one syscall."""

    @abc.abstractmethod
    def _privileged(self, ctx: CpuCtx, kind: str) -> None:
        """One privileged guest operation round trip (Table 1)."""

    @abc.abstractmethod
    def deliver_timer(self, ctx: CpuCtx) -> None:
        """External timer interrupt while the guest runs."""

    @abc.abstractmethod
    def halt(self, ctx: CpuCtx, wake_after_ns: int) -> None:
        """HLT + wakeup after ``wake_after_ns`` (blocking sync pattern)."""

    # -- invalidation hooks (default: per-ASID TLB hygiene only) ----------

    def invalidate_pages(self, ctx: CpuCtx, proc: Process, vpns) -> None:
        """Zap stale shadow/TLB state after unmap/mprotect."""
        asid = self.asid_for(proc)
        for vpn in vpns:
            ctx.mmu.flush_page(ctx.clock, asid, vpn)

    def invalidate_asid(self, ctx: CpuCtx, proc: Process) -> None:
        """Flush one process's translations."""
        ctx.mmu.flush_pcid(ctx.clock, self.asid_for(proc))

    def on_segfault(self, ctx: CpuCtx, proc: Process) -> None:
        """Signal delivery for an unservable fault: the kernel builds a
        signal frame and upcalls the user handler (one extra user/kernel
        round trip beyond the fault itself)."""
        ctx.clock.advance(self.costs.pf_delivery)
        self._syscall_round_trip(ctx, proc)  # handler upcall + sigreturn

    def on_cr3_switch(self, ctx: CpuCtx, from_proc: Process, to_proc: Process) -> None:
        """Default: PCID-tagged hardware needs no flush on CR3 load."""

    def on_process_created(self, ctx: CpuCtx, proc: Process) -> None:
        """Hook for shadow-table setup on fork."""

    def on_process_reset(self, ctx: CpuCtx, proc: Process) -> None:
        """Hook for shadow-table teardown on exec."""

    def on_process_destroyed(self, ctx: CpuCtx, proc: Process) -> None:
        """Hook for shadow-table teardown on exit."""

    # -- shared plumbing -----------------------------------------------------

    def hw_exit_entry(self, ctx: CpuCtx,
                      kind: SwitchKind = SwitchKind.HW_L1_L0) -> None:
        """One hardware world switch (one direction) of a ``HW_*`` kind.

        The one hardware leg, updated in place: the arithmetic of
        :meth:`Clock.advance` and :meth:`EventLog.switch` without their
        calls (:class:`CostModel` rejects negative costs up front).
        """
        clock = ctx.clock
        clock.now += self.costs.hw_world_switch
        events = self.events
        key = kind._value_
        counter = events.world_switches
        counter.total += 1
        by_key = counter.by_key
        by_key[key] = by_key.get(key, 0) + 1
        if events.detailed:
            events.trace.append(TraceEvent(clock.now, ctx.cpu_id, "switch", key))

    def guest_internal_transition(self, ctx: CpuCtx) -> None:
        """User<->kernel switch fully inside a hardware-paged guest."""
        self.events.switch(SwitchKind.GUEST_INTERNAL, ctx.clock.now, ctx.cpu_id)
