"""Property-based tests (hypothesis) on core data-structure invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.memory import FrameAllocator
from repro.hw.pagetable import HUGE_PAGE_PAGES, PageFaultException, PageTable, Pte
from repro.hw.memory import PhysicalMemory
from repro.hw.tlb import Tlb
from repro.hw.types import MIB, AccessType, Asid, HardwareError, NUM_PCIDS
from repro.guest.addrspace import AddressSpace, SegfaultError, Vma
from repro.sim.clock import Clock
from repro.sim.locks import SimLock
from repro.sim.stats import LatencyStats


vpns = st.integers(min_value=0, max_value=(1 << 35) - 1)


class TestPageTableProperties:
    @given(st.lists(vpns, unique=True, min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_map_then_walkable_and_sorted(self, vpn_list):
        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        for i, vpn in enumerate(vpn_list):
            pt.map(vpn, Pte(frame=i))
        assert pt.mapped_pages == len(vpn_list)
        seen = [v for v, _ in pt.iter_mappings()]
        assert seen == sorted(vpn_list)
        for i, vpn in enumerate(vpn_list):
            assert pt.lookup(vpn).frame == i

    @given(st.lists(vpns, unique=True, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_map_unmap_releases_all_frames(self, vpn_list):
        phys = PhysicalMemory("t", 64 * MIB)
        free0 = phys.free_frames
        pt = PageTable(phys, "p")
        for vpn in vpn_list:
            pt.map(vpn, Pte(frame=0))
        for vpn in vpn_list:
            pt.unmap(vpn)
        # Only the root remains allocated.
        assert phys.free_frames == free0 - 1
        assert pt.mapped_pages == 0

    @given(st.lists(vpns, unique=True, min_size=2, max_size=30),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_partial_unmap_preserves_others(self, vpn_list, data):
        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        for i, vpn in enumerate(vpn_list):
            pt.map(vpn, Pte(frame=i))
        victim_idx = data.draw(
            st.integers(min_value=0, max_value=len(vpn_list) - 1))
        pt.unmap(vpn_list[victim_idx])
        for i, vpn in enumerate(vpn_list):
            if i == victim_idx:
                assert pt.lookup(vpn) is None
            else:
                assert pt.lookup(vpn).frame == i


class TestAllocatorProperties:
    @given(st.lists(st.integers(min_value=1, max_value=16),
                    min_size=1, max_size=30),
           st.sampled_from(["firstfit", "stream"]))
    @settings(max_examples=50, deadline=None)
    def test_no_frame_issued_twice(self, sizes, policy):
        alloc = FrameAllocator(2048, policy=policy)
        issued = set()
        live = []
        for i, size in enumerate(sizes):
            r = alloc.alloc(size) if policy == "firstfit" else None
            if r is None:
                frames = [alloc.alloc_frame() for _ in range(size)]
            else:
                frames = list(r)
            for f in frames:
                assert f not in issued
                issued.add(f)
            live.append(frames)
            if i % 3 == 2:  # free every third allocation
                for f in live.pop(0):
                    alloc.free_frame(f)
                    issued.discard(f)
        assert alloc.used_frames == sum(len(f) for f in live)
        assert alloc.used_frames + alloc.free_frames == 2048

    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, ops):
        alloc = FrameAllocator(256)
        held = []
        for take in ops:
            if take or not held:
                try:
                    held.append(alloc.alloc_frame())
                except MemoryError:
                    pass
            else:
                alloc.free_frame(held.pop())
            assert alloc.used_frames + alloc.free_frames == 256


class TestTlbProperties:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, NUM_PCIDS - 1),
                              st.integers(0, 200)),
                    min_size=1, max_size=200),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, inserts, capacity):
        tlb = Tlb(capacity=capacity)
        for vpid, pcid, vpn in inserts:
            tlb.insert(Asid(vpid, pcid), vpn, frame=vpn)
            assert len(tlb) <= capacity

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                              st.integers(0, 50)),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_vpid_flush_complete(self, inserts):
        tlb = Tlb()
        for vpid, pcid, vpn in inserts:
            tlb.insert(Asid(vpid, pcid), vpn, frame=1)
        tlb.flush_vpid(1)
        for vpid, pcid, vpn in inserts:
            if vpid == 1:
                assert tlb.lookup(Asid(vpid, pcid), vpn) is None


class TestLockProperties:
    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 500)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_timeline_monotonic_and_exclusive(self, requests):
        """Lock grants never overlap and free_at never goes backwards,
        provided requests arrive in nondecreasing time order (the engine
        guarantees earliest-first)."""
        lock = SimLock("l")
        requests.sort(key=lambda rh: rh[0])
        last_free = 0
        for req_time, hold in requests:
            clock = Clock(start=req_time)
            lock.run_locked(clock, hold_ns=hold)
            assert lock.free_at >= last_free
            assert clock.now == lock.free_at
            last_free = lock.free_at

    @given(st.integers(1, 64), st.integers(1, 1000))
    @settings(max_examples=50, deadline=None)
    def test_total_serialization(self, n, hold):
        """N simultaneous requesters serialize to exactly n*hold."""
        lock = SimLock("l")
        clocks = [Clock() for _ in range(n)]
        for c in clocks:
            lock.run_locked(c, hold_ns=hold)
        assert max(c.now for c in clocks) == n * hold


class TestAddressSpaceProperties:
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_mmap_never_overlaps(self, sizes):
        a = AddressSpace()
        vmas = [a.mmap(s << 12) for s in sizes]
        for i, v1 in enumerate(vmas):
            for v2 in vmas[i + 1:]:
                assert not v1.overlaps(v2)
        assert a.total_pages == sum(sizes)

    @given(st.lists(st.integers(1, 32), min_size=1, max_size=20),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_munmap_removes_exactly_one(self, sizes, data):
        a = AddressSpace()
        vmas = [a.mmap(s << 12) for s in sizes]
        victim = data.draw(st.sampled_from(vmas))
        a.munmap(victim.start_vpn)
        assert not a.covers(victim.start_vpn)
        for v in vmas:
            if v is not victim:
                assert a.covers(v.start_vpn)


class TestHugePageProperties:
    @given(st.lists(st.integers(0, 63), unique=True, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_huge_map_walk_roundtrip(self, blocks):
        from repro.hw.pagetable import HUGE_PAGE_PAGES

        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        for i, block in enumerate(blocks):
            pt.map_huge(block * HUGE_PAGE_PAGES,
                        Pte(frame=(i + 1) * HUGE_PAGE_PAGES))
        assert pt.mapped_pages == len(blocks) * HUGE_PAGE_PAGES
        from repro.hw.types import AccessType as AT

        for i, block in enumerate(blocks):
            base = block * HUGE_PAGE_PAGES
            for off in (0, 1, HUGE_PAGE_PAGES - 1):
                w = pt.walk(base + off, AT.READ, user=True)
                assert w.huge
                assert w.frame == (i + 1) * HUGE_PAGE_PAGES + off

    @given(st.integers(0, 32))
    @settings(max_examples=20, deadline=None)
    def test_split_preserves_translation(self, block):
        from repro.hw.pagetable import HUGE_PAGE_PAGES
        from repro.hw.types import AccessType as AT

        pt = PageTable(PhysicalMemory("t", 64 * MIB), "p")
        base = block * HUGE_PAGE_PAGES
        pt.map_huge(base, Pte(frame=0x4000))
        before = [pt.walk(base + off, AT.READ, True).frame
                  for off in (0, 7, 511)]
        pt.split_huge(base)
        after = [pt.walk(base + off, AT.READ, True).frame
                 for off in (0, 7, 511)]
        assert before == after
        assert not pt.lookup(base).huge

    @given(st.integers(1, 7), st.integers(3, 10))
    @settings(max_examples=30, deadline=None)
    def test_alloc_aligned_is_aligned_and_disjoint(self, log2_count, n):
        count = 1 << log2_count
        alloc = FrameAllocator(8192)
        seen = set()
        for _ in range(n):
            r = alloc.alloc_aligned(count)
            assert r.start % count == 0
            for f in r:
                assert f not in seen
                seen.add(f)


#: A few huge-page blocks with offsets at both ends, plus vpns that fork
#: off at levels 3 and 4, so random streams collide on every level.
_diff_vpns = st.one_of(
    st.builds(lambda block, off: block * HUGE_PAGE_PAGES + off,
              st.integers(0, 3), st.sampled_from([0, 1, 7, 511])),
    st.sampled_from([(1 << 18) + 3, 1 << 27]),
)
_perms = st.fixed_dictionaries({
    "writable": st.booleans(), "user": st.booleans(),
    "executable": st.booleans(),
})
_table_ops = st.one_of(
    st.tuples(st.just("map"), _diff_vpns, _perms),
    st.tuples(st.just("unmap"), _diff_vpns),
    st.tuples(st.just("map_huge"), st.integers(0, 3), _perms),
    st.tuples(st.just("split_huge"), st.integers(0, 3)),
    st.tuples(st.just("protect"), _diff_vpns, _perms),
)
_probes = st.tuples(_diff_vpns, st.sampled_from(list(AccessType)), st.booleans())


def _apply(pt: PageTable, op) -> object:
    """Run one table op; returns the error type it raised, if any."""
    kind, arg, *rest = op
    try:
        if kind == "map":
            pt.map(arg, Pte(frame=arg + 0x100000, **rest[0]))
        elif kind == "unmap":
            pt.unmap(arg)
        elif kind == "map_huge":
            pt.map_huge(arg * HUGE_PAGE_PAGES,
                        Pte(frame=(arg + 1) * 0x10000, **rest[0]))
        elif kind == "split_huge":
            pt.split_huge(arg * HUGE_PAGE_PAGES)
        else:
            pt.protect(arg, **rest[0])
    except (HardwareError, ValueError) as exc:
        return type(exc)
    return None


class TestResolveMatchesWalk:
    """Differential check of the leaf-only ``resolve`` (the PSC-off EPT
    leg) against the full ``walk`` on identical tables."""

    @given(st.lists(st.tuples(_table_ops, _probes), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_same_leaf_fault_and_ad_bits(self, steps):
        walked = PageTable(PhysicalMemory("w", 64 * MIB), "w")
        resolved = PageTable(PhysicalMemory("r", 64 * MIB), "r")
        for op, (vpn, access, user) in steps:
            assert _apply(walked, op) == _apply(resolved, op)
            try:
                result = walked.walk(vpn, access, user)
            except PageFaultException as exc:
                with pytest.raises(PageFaultException) as other:
                    resolved.resolve(vpn, access, user)
                assert other.value.fault == exc.fault
            else:
                pte = resolved.resolve(vpn, access, user)
                assert pte == result.pte and pte.huge == result.huge
                offset = vpn % HUGE_PAGE_PAGES if pte.huge else 0
                assert pte.frame + offset == result.frame
            assert (list(walked.iter_mappings())
                    == list(resolved.iter_mappings()))


class TestStatsProperties:
    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_ordered_and_bounded(self, samples):
        s = LatencyStats()
        s.extend(samples)
        assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum
        assert s.minimum <= s.mean <= s.maximum
