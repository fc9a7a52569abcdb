"""Property-based tests (hypothesis) on core data-structure invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import make_machine
from repro.hw.memory import FrameAllocator
from repro.hw.pagetable import (
    HUGE_PAGE_PAGES,
    PageFaultException,
    PageTable,
    PageTableNode,
    Pte,
)
from repro.hw.memory import PhysicalMemory
from repro.hw.tlb import Tlb
from repro.hw.types import (
    MIB,
    NUM_PCIDS,
    PAGE_SIZE,
    AccessType,
    Asid,
    HardwareError,
    PageFault,
    PageFaultError,
)
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


#: vpns for the leaf-index streams: the differential set plus one whose
#: bits above a 4-level walk's reach alias vpn 5 (shallower tables
#: alias more of the set).
_index_vpns = st.one_of(_diff_vpns, st.just((1 << 36) | 5))
_index_ops = st.one_of(
    st.tuples(st.just("map"), _index_vpns, _perms),
    st.tuples(st.just("unmap"), _index_vpns),
    st.tuples(st.just("map_huge"), st.integers(0, 3), _perms),
    st.tuples(st.just("unmap_huge"), st.integers(0, 3)),
    st.tuples(st.just("split_huge"), st.integers(0, 3)),
    st.tuples(st.just("protect"), _index_vpns, _perms),
    st.tuples(st.just("destroy"), st.just(0)),
)
_index_probes = st.tuples(
    _index_vpns, st.sampled_from(list(AccessType)), st.booleans()
)


def _apply_index_op(pt: PageTable, op) -> None:
    """One table op; table errors are part of the stream, not failures."""
    kind, arg, *rest = op
    if kind in ("map_huge", "unmap_huge", "split_huge") and pt.levels < 2:
        return  # a huge entry needs a level-2 table
    try:
        if kind == "map":
            pt.map(arg, Pte(frame=arg + 0x100000, **rest[0]))
        elif kind == "unmap":
            pt.unmap(arg)
        elif kind == "map_huge":
            pt.map_huge(arg * HUGE_PAGE_PAGES,
                        Pte(frame=(arg + 1) * 0x10000, **rest[0]))
        elif kind == "unmap_huge":
            pt.unmap_huge(arg * HUGE_PAGE_PAGES)
        elif kind == "split_huge":
            pt.split_huge(arg * HUGE_PAGE_PAGES)
        elif kind == "protect":
            pt.protect(arg, **rest[0])
        else:
            pt.destroy()
    except (HardwareError, ValueError):
        pass


def _reachable_leaves(pt: PageTable) -> dict:
    """Reference index: every reachable level-1 table, keyed by the
    index bits a walk reads above level 1, with its root-down nodes."""
    leaves = {}
    stack = [(pt.root, 0, (pt.root,))]
    while stack:
        node, key, path = stack.pop()
        if node.level == 1:
            leaves[key] = path
            continue
        for idx, child in node.entries.items():
            if isinstance(child, PageTableNode):
                stack.append((child, (key << 9) | idx, path + (child,)))
    return leaves


def _full_descent(pt: PageTable, vpn: int):
    """Reference walk from the root, ignoring the index: the nodes read,
    the entry where the walk stopped (or None) and its level."""
    node, nodes = pt.root, [pt.root]
    for level in range(pt.levels, 1, -1):
        child = node.entries.get((vpn >> (9 * (level - 1))) & 511)
        if not isinstance(child, PageTableNode):
            return tuple(nodes), child, level
        node = child
        nodes.append(node)
    return tuple(nodes), node.entries.get(vpn & 511), 1


def _ids(nodes) -> tuple:
    return tuple(id(node) for node in nodes)


class TestLeafIndexProperties:
    """The leaf-table index is exact and every indexed operation agrees
    with a full descent from the root."""

    @given(st.integers(1, 4),
           st.lists(st.tuples(_index_ops, _index_probes), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_index_exact_and_ops_match_descent(self, levels, steps):
        pt = PageTable(PhysicalMemory("i", 64 * MIB), "i", levels=levels)
        for op, (vpn, access, user) in steps:
            _apply_index_op(pt, op)
            assert ({k: _ids(v) for k, v in pt._leaves.items()}
                    == {k: _ids(v) for k, v in _reachable_leaves(pt).items()})
            nodes, entry, level = _full_descent(pt, vpn)
            assert pt.lookup(vpn) is entry
            self._check_translation(pt, pt.walk, vpn, access, user,
                                    nodes, entry, level)
            self._check_translation(pt, pt.resolve, vpn, access, user,
                                    nodes, entry, level)
            if entry is None or (level > 1 and not entry.huge):
                for mutate in (lambda: pt.protect(vpn, writable=True),
                               lambda: pt.unmap(vpn)):
                    with pytest.raises(HardwareError):
                        mutate()
                continue
            assert pt.protect(vpn, global_=True) is entry and entry.global_
            if level == 1:
                assert pt.unmap(vpn) is entry
                assert pt.lookup(vpn) is None
            else:
                with pytest.raises(HardwareError):
                    pt.unmap(vpn)  # a huge run unmaps only via unmap_huge

    @staticmethod
    def _check_translation(pt, translate, vpn, access, user,
                           nodes, entry, level):
        before = None if entry is None else (entry.accessed, entry.dirty)
        if entry is None or not entry.permits(access, user):
            with pytest.raises(PageFaultException) as exc:
                translate(vpn, access, user)
            error = PageFaultError.NONE
            if entry is not None:
                error |= PageFaultError.PRESENT
            if access is AccessType.WRITE:
                error |= PageFaultError.WRITE
            if access is AccessType.EXECUTE:
                error |= PageFaultError.FETCH
            if user:
                error |= PageFaultError.USER
            assert exc.value.fault == PageFault(
                vaddr=vpn << 12, access=access, error=error, level=level
            )
            if entry is not None:
                assert (entry.accessed, entry.dirty) == before
            return
        result = translate(vpn, access, user)
        assert entry.accessed
        assert entry.dirty == (before[1] or access is AccessType.WRITE)
        if translate == pt.resolve:
            assert result is entry
            return
        huge = level == 2
        assert result.pte is entry and result.huge == huge
        assert result.frame == entry.frame + (vpn % HUGE_PAGE_PAGES
                                              if huge else 0)
        assert _ids(result.nodes) == _ids(nodes)
        assert result.levels_walked == len(nodes)


class TestFreeManyProperties:
    """``free_many`` leaves exactly the state of one ``free_frame`` per
    frame, in order, over fragmented pools."""

    @given(st.sampled_from(["firstfit", "stream"]),
           st.integers(8, 96), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_frees(self, policy, total, data):
        batched = FrameAllocator(total, policy=policy)
        single = FrameAllocator(total, policy=policy)
        for a in (batched, single):
            live = [a.alloc_frame(tag=f"t{i % 3}") for i in range(total)]
        # Fragment both pools the same way before the batch.
        holes = data.draw(st.lists(st.sampled_from(live), unique=True))
        for a in (batched, single):
            for f in holes:
                a.free_frame(f)
        allocated = [f for f in live if f not in set(holes)]
        batch = data.draw(st.permutations(allocated).flatmap(
            lambda order: st.integers(0, len(order)).map(
                lambda n: order[:n])))
        batched.free_many(batch)
        for f in batch:
            single.free_frame(f)
        assert batched._free == single._free
        assert batched._owner == single._owner
        assert list(batched._recycled) == list(single._recycled)
        assert batched.free_frames == single.free_frames
        if batch or holes:
            again = data.draw(st.sampled_from(list(batch) + holes))
            with pytest.raises(HardwareError):
                batched.free_many([again])
        if batch:
            survivors = [f for f in allocated if f not in set(batch)]
            if survivors:
                with pytest.raises(HardwareError):
                    batched.free_many([survivors[0], survivors[0]])


_pvm_ops = st.one_of(
    st.tuples(st.just("mmap"), st.integers(0, 7), st.integers(1, 40)),
    st.tuples(st.just("touch"), st.integers(0, 7), st.integers(0, 7),
              st.integers(0, 600), st.booleans()),
    st.tuples(st.just("fork"), st.integers(0, 7)),
    st.tuples(st.just("exec"), st.integers(0, 7)),
    st.tuples(st.just("munmap"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("exit"), st.integers(0, 7)),
)


class TestGptWriteProtectProperties:
    """Skipping the guest-table rescan when nothing changed protects the
    same frames as rescanning on every fault."""

    @given(st.lists(_pvm_ops, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_matches_always_rescan(self, ops):
        machine = make_machine("pvm (BM)")
        shadow = machine.shadow
        rescanned = set()
        incremental = shadow.write_protect_gpt

        def write_protect_gpt(proc):
            rescanned.update(proc.gpt.node_frames())
            return incremental(proc)

        shadow.write_protect_gpt = write_protect_gpt
        ctx = machine.new_context()
        procs = [machine.spawn_process()]
        for kind, pi, *rest in ops:
            proc = procs[pi % len(procs)]
            vmas = list(proc.addr_space)
            try:
                if kind == "mmap":
                    machine.mmap(ctx, proc, rest[0] * PAGE_SIZE)
                elif kind == "touch" and vmas:
                    vma = vmas[rest[0] % len(vmas)]
                    vpn = vma.start_vpn + rest[1] % (vma.end_vpn - vma.start_vpn)
                    machine.touch(ctx, proc, vpn, write=rest[2])
                elif kind == "fork":
                    procs.append(machine.fork(ctx, proc))
                elif kind == "exec":
                    machine.exec(ctx, proc, image_pages=8)
                elif kind == "munmap" and vmas:
                    machine.munmap(ctx, proc, vmas[rest[0] % len(vmas)])
                elif kind == "exit" and len(procs) > 1:
                    machine.exit(ctx, proc)
                    procs.remove(proc)
            except SegfaultError:
                pass
            assert shadow.write_protected_frames == rescanned


class TestStatsProperties:
    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_ordered_and_bounded(self, samples):
        s = LatencyStats()
        s.extend(samples)
        assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum
        assert s.minimum <= s.mean <= s.maximum
