"""Tests for the virtio memory balloon."""

import pytest

from repro import make_machine
from repro.hw.types import KIB, MIB
from repro.hypervisors.base import MachineConfig


def _warm(name, pages=32, **cfg):
    m = make_machine(name, config=MachineConfig(**cfg)) if cfg else make_machine(name)
    ctx = m.new_context()
    proc = m.spawn_process()
    vma = m.mmap(ctx, proc, pages << 12)
    for vpn in range(vma.start_vpn, vma.end_vpn):
        m.touch(ctx, proc, vpn, write=True)
    return m, ctx, proc, vma


class TestInflateDeflate:
    @pytest.mark.parametrize("name", ["kvm-ept (BM)", "kvm-ept (NST)",
                                      "pvm (BM)", "pvm (NST)"])
    def test_inflate_reclaims_guest_frames(self, name):
        m, ctx, proc, vma = _warm(name)
        free_before = m.guest_phys.free_frames
        got = m.balloon.inflate(ctx, 1 * MIB)
        assert got == 256
        assert m.guest_phys.free_frames == free_before - 256
        assert m.balloon.held_pages == 256

    def test_deflate_returns_frames(self):
        m, ctx, proc, vma = _warm("pvm (NST)")
        m.balloon.inflate(ctx, 1 * MIB)
        free_mid = m.guest_phys.free_frames
        released = m.balloon.deflate(ctx, 512 * KIB)
        assert released == 128
        assert m.guest_phys.free_frames == free_mid + 128
        assert m.balloon.held_pages == 128

    def test_inflate_backs_off_under_pressure(self):
        m = make_machine(
            "pvm (NST)", config=MachineConfig(guest_mem_bytes=4 * MIB)
        )
        ctx = m.new_context()
        got = m.balloon.inflate(ctx, 64 * MIB)  # more than exists
        assert 0 < got < (64 * MIB >> 12)

    def test_balloon_uses_doorbells(self):
        m, ctx, proc, vma = _warm("pvm (NST)")
        before = m.events.hypercalls.get("send_ipi")
        m.balloon.inflate(ctx, 2 * MIB)  # two 256-page batches
        assert m.events.hypercalls.get("send_ipi") - before == 2


class TestHostRelease:
    def test_host_frames_released_for_touched_memory(self):
        """Frames the guest previously used (host-backed) are actually
        released when the balloon reclaims and reports them."""
        m, ctx, proc, vma = _warm("kvm-ept (BM)", pages=64)
        m.munmap(ctx, proc, vma)  # guest frees; host backing persists
        host_used_before = m.host_phys.allocator.used_frames
        m.balloon.inflate(ctx, 64 << 12)
        # The streaming guest allocator hands the balloon *fresh* frames
        # first, so the released count depends on overlap; assert the
        # accounting is consistent rather than a fixed number.
        released = m.balloon.host_frames_released
        assert m.host_phys.allocator.used_frames == host_used_before - released

    def test_ept_entries_zapped(self):
        m, ctx, proc, vma = _warm("kvm-ept (BM)", pages=8)
        gfns = [proc.gpt.lookup(v).frame for v in range(vma.start_vpn,
                                                        vma.end_vpn)]
        m.munmap(ctx, proc, vma)
        for gfn in gfns:
            if m.ept01.lookup(gfn) is not None:
                assert m.discard_gfn_backing(gfn) or True
                assert m.ept01.lookup(gfn) is None

    def test_nested_chain_unwound(self):
        m, ctx, proc, vma = _warm("kvm-ept (NST)", pages=8)
        gfn2 = proc.gpt.lookup(vma.start_vpn).frame
        m.munmap(ctx, proc, vma)
        l1_used = m.chain.phys.allocator.used_frames
        assert m.discard_gfn_backing(gfn2)
        assert m.chain.phys.allocator.used_frames == l1_used - 1
        assert m.ept02.lookup(gfn2) is None

    def test_pvm_shadow_entries_dropped(self):
        m, ctx, proc, vma = _warm("pvm (NST)", pages=8)
        gfn2 = proc.gpt.lookup(vma.start_vpn).frame
        assert m.shadow.entries_for_gfn(gfn2)
        m.discard_gfn_backing(gfn2)
        # Shadow entries for the frame are gone (rmap-guided).
        assert m.shadow.lookup(proc, vma.start_vpn) is None

    def test_huge_backed_frames_skipped(self):
        m, ctx, proc, vma = _warm("kvm-ept (BM)", pages=512, thp=True)
        gpte = proc.gpt.lookup(vma.start_vpn)
        assert gpte.huge
        assert m.discard_gfn_backing(gpte.frame) is False

    def test_refault_after_deflate_and_reuse(self):
        """End to end: balloon, deflate, and the guest reuses the memory
        with fresh demand faults."""
        m, ctx, proc, _ = _warm("pvm (NST)", pages=4)
        m.balloon.inflate(ctx, 256 * KIB)
        m.balloon.deflate(ctx, 256 * KIB)
        vma = m.mmap(ctx, proc, 128 * KIB)
        for vpn in range(vma.start_vpn, vma.end_vpn):
            m.touch(ctx, proc, vpn, write=True)


ALL_SCENARIOS = ["kvm-ept (BM)", "kvm-spt (BM)", "pvm (BM)",
                 "kvm-ept (NST)", "kvm-spt (NST)", "pvm (NST)",
                 "pvm-dp (NST)"]


class TestRecycledInflate:
    """The accounting fix: inflate prefers *recycled* (previously
    guest-used, host-backed) frames, so ballooning memory the guest has
    freed actually releases host frames instead of grabbing fresh
    never-backed ones and releasing nothing."""

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_inflate_releases_host_backing(self, name):
        m, ctx, proc, vma = _warm(name, pages=32)
        m.munmap(ctx, proc, vma)  # guest frees; frames go to recycled
        host_used = m.host_phys.allocator.used_frames
        got = m.balloon.inflate(ctx, 32 << 12)
        assert got == 32
        released = m.balloon.host_frames_released
        assert released > 0
        assert m.host_phys.allocator.used_frames == host_used - released

    def test_fresh_frames_release_nothing(self):
        """Fresh (never-touched) guest frames have no host backing, so
        inflating them cannot release host memory — the pre-fix
        behavior, still reachable with ``prefer_recycled=False``."""
        m, ctx, proc, vma = _warm("kvm-ept (BM)", pages=8)
        host_used = m.host_phys.allocator.used_frames
        got = m.balloon.inflate(ctx, 8 << 12, prefer_recycled=False)
        assert got == 8
        assert m.balloon.host_frames_released == 0
        assert m.host_phys.allocator.used_frames == host_used


def _churn_to_refault(m, ctx, proc, max_pages=64):
    """Touch fresh pages until the stream allocator wraps into the
    recycled (discarded) frames; returns the refaulting vpn or None."""
    vma = m.mmap(ctx, proc, max_pages << 12)
    for vpn in range(vma.start_vpn, vma.end_vpn):
        before = m.events.refaults.total
        m.touch(ctx, proc, vpn, write=True)
        if m.events.refaults.total > before:
            return vpn
    return None


class TestRefaultCost:
    def test_refault_counted_and_charged(self):
        """A deflated-then-reused frame must take the full fault path:
        the EventLog refault counter records it and the guest pays
        fault-service time, not a TLB hit."""
        m, ctx, proc, vma = _warm("pvm (NST)", pages=16,
                                  guest_mem_bytes=1 * MIB)
        m.munmap(ctx, proc, vma)
        m.balloon.inflate(ctx, 16 << 12)
        # Not necessarily all 16: the recycled queue can contain freed
        # page-table pages that never had host backing.
        assert m.balloon.host_frames_released > 0
        m.balloon.deflate(ctx, 16 << 12)
        assert m.events.refaults.total == 0
        vpn = _churn_to_refault(m, ctx, proc, max_pages=240)
        assert vpn is not None, "discarded frames never reused"
        assert m.events.refaults.get("balloon") > 0
        # The refaulting touch paid fault service; a re-touch is a hit.
        t0 = ctx.clock.now
        m.touch(ctx, proc, vpn, write=True)
        warm_ns = ctx.clock.now - t0
        assert warm_ns < 1000  # warm touch is TLB-hit cheap

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_discarded_reuse_refaults_everywhere(self, name):
        """Every machine type re-faults (and counts) reuse of a frame
        whose host backing the balloon discarded."""
        m, ctx, proc, vma = _warm(name, pages=16, guest_mem_bytes=1 * MIB)
        m.munmap(ctx, proc, vma)
        m.balloon.inflate(ctx, 16 << 12)
        assert m.balloon.host_frames_released > 0, (
            f"{name}: ballooned recycled frames must release host backing"
        )
        m.balloon.deflate(ctx, 16 << 12)
        assert _churn_to_refault(m, ctx, proc, max_pages=240) is not None
        assert m.events.refaults.get("balloon") > 0


@pytest.mark.sanitize
class TestBalloonShadowCoherence:
    """Satellite regression for the "forgot to zap" bug class: balloon
    out memory, hand it back, and touch it again on every machine type
    with the shadow-coherence sanitizer attached.  A discard that
    leaves a stale shadow entry or TLB translation behind trips the
    sanitizer during inflate (``after_discard``) or on the re-touch."""

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_balloon_then_touch_sanitized(self, name):
        m, ctx, proc, vma = _warm(name, pages=32, sanitize=True)
        m.munmap(ctx, proc, vma)
        m.balloon.inflate(ctx, 32 << 12)
        m.balloon.deflate(ctx, 32 << 12)
        vma2 = m.mmap(ctx, proc, 32 << 12)
        for vpn in range(vma2.start_vpn, vma2.end_vpn):
            m.touch(ctx, proc, vpn, write=True)
        suite = m.sanitizers
        assert suite is not None
        suite.shadow.after_discard()
        assert suite.violations == []
