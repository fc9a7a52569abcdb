"""Unit tests for the 4-level radix page tables."""

import pickle

import pytest

from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import EptViolationException
from repro.hw.pagetable import HUGE_PAGE_PAGES, PageFaultException, PageTable, Pte
from repro.hw.types import (
    MIB,
    PT_LEVELS,
    AccessType,
    EptViolation,
    HardwareError,
    PageFault,
    PageFaultError,
)


@pytest.fixture
def phys():
    return PhysicalMemory("t", size_bytes=16 * MIB)


@pytest.fixture
def pt(phys):
    return PageTable(phys, name="test")


class TestConstruction:
    @pytest.mark.parametrize("levels", [0, -1, PT_LEVELS + 1])
    def test_levels_out_of_range_rejected(self, phys, levels):
        with pytest.raises(ValueError, match=r"levels must be in 1\.\.4"):
            PageTable(phys, name="bad", levels=levels)

    @pytest.mark.parametrize("levels", range(1, PT_LEVELS + 1))
    def test_every_supported_depth_maps_and_walks(self, phys, levels):
        pt = PageTable(phys, name="shallow", levels=levels)
        pt.map(0x1FF, Pte(frame=9))
        result = pt.walk(0x1FF, AccessType.READ, user=True)
        assert result.frame == 9 and result.levels_walked == levels
        assert pt.resolve(0x1FF, AccessType.READ, user=True).frame == 9

    def test_rejected_depth_allocates_nothing(self, phys):
        free = phys.free_frames
        with pytest.raises(ValueError):
            PageTable(phys, levels=5)
        assert phys.free_frames == free


class TestMap:
    def test_first_map_allocates_all_levels(self, pt):
        result = pt.map(0x1000, Pte(frame=5))
        # Root exists; levels 3, 2, 1 allocated.
        assert result.allocated_levels == (3, 2, 1)
        assert len(result.written_frames) == PT_LEVELS

    def test_neighbour_map_writes_one_entry(self, pt):
        pt.map(0x1000, Pte(frame=5))
        result = pt.map(0x1001, Pte(frame=6))
        assert result.allocated_levels == ()
        assert len(result.written_frames) == 1

    def test_huge_pte_needs_map_huge(self, pt):
        with pytest.raises(HardwareError, match="map_huge"):
            pt.map(0x1, Pte(frame=1, huge=True))
        assert pt.mapped_pages == 0

    def test_double_map_rejected(self, pt):
        pt.map(0x1000, Pte(frame=5))
        with pytest.raises(HardwareError):
            pt.map(0x1000, Pte(frame=6))

    def test_mapped_pages_counter(self, pt):
        for i in range(10):
            pt.map(i, Pte(frame=i))
        assert pt.mapped_pages == 10

    def test_distant_vpns_use_distinct_subtrees(self, pt):
        r1 = pt.map(0, Pte(frame=1))
        r2 = pt.map(1 << 27, Pte(frame=2))  # different level-4 index
        assert r2.allocated_levels == (3, 2, 1)
        assert pt.lookup(0).frame == 1
        assert pt.lookup(1 << 27).frame == 2


class TestUnmap:
    def test_unmap_returns_pte(self, pt):
        pt.map(0x42, Pte(frame=9))
        pte = pt.unmap(0x42)
        assert pte.frame == 9
        assert pt.lookup(0x42) is None

    def test_unmap_missing_raises(self, pt):
        with pytest.raises(HardwareError):
            pt.unmap(0x42)

    def test_unmap_prunes_empty_nodes(self, pt, phys):
        before = phys.free_frames
        pt.map(0x42, Pte(frame=9))
        pt.unmap(0x42)
        # All intermediate nodes freed again.
        assert phys.free_frames == before

    def test_unmap_keeps_shared_nodes(self, pt):
        pt.map(0x1000, Pte(frame=1))
        pt.map(0x1001, Pte(frame=2))
        pt.unmap(0x1000)
        assert pt.lookup(0x1001).frame == 2


class TestProtect:
    def test_protect_flags(self, pt):
        pt.map(0x7, Pte(frame=1, writable=True))
        pte = pt.protect(0x7, writable=False)
        assert not pte.writable

    def test_protect_unknown_flag(self, pt):
        pt.map(0x7, Pte(frame=1))
        with pytest.raises(ValueError):
            pt.protect(0x7, bogus=True)

    def test_protect_cannot_toggle_huge(self, pt):
        pt.map(0x1, Pte(frame=1))
        with pytest.raises(ValueError):
            pt.protect(0x1, huge=True)
        assert not pt.lookup(0x1).huge

    def test_protect_unmapped(self, pt):
        with pytest.raises(HardwareError):
            pt.protect(0x7, writable=False)

    def test_protect_counts_as_entry_write(self, pt):
        pt.map(0x7, Pte(frame=1))
        before = pt.entry_writes
        pt.protect(0x7, writable=False)
        assert pt.entry_writes == before + 1


class TestWalk:
    def test_successful_walk(self, pt):
        pt.map(0x1234, Pte(frame=77))
        result = pt.walk(0x1234, AccessType.READ, user=True)
        assert result.frame == 77
        assert len(result.node_frames) == PT_LEVELS

    def test_walk_sets_accessed_dirty(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.walk(0x1, AccessType.WRITE, user=True)
        pte = pt.lookup(0x1)
        assert pte.accessed and pte.dirty

    def test_read_does_not_dirty(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.walk(0x1, AccessType.READ, user=True)
        assert not pt.lookup(0x1).dirty

    def test_miss_reports_level(self, pt):
        with pytest.raises(PageFaultException) as exc:
            pt.walk(0x1234, AccessType.READ, user=True)
        assert exc.value.fault.level == PT_LEVELS  # empty root

    def test_leaf_miss_level_one(self, pt):
        pt.map(0x1000, Pte(frame=5))
        with pytest.raises(PageFaultException) as exc:
            pt.walk(0x1001, AccessType.READ, user=True)
        assert exc.value.fault.level == 1

    def test_write_to_readonly_faults(self, pt):
        pt.map(0x9, Pte(frame=1, writable=False))
        with pytest.raises(PageFaultException) as exc:
            pt.walk(0x9, AccessType.WRITE, user=True)
        assert exc.value.fault.is_protection

    def test_user_access_to_supervisor_faults(self, pt):
        pt.map(0x9, Pte(frame=1, user=False))
        with pytest.raises(PageFaultException):
            pt.walk(0x9, AccessType.READ, user=True)
        # Supervisor access succeeds.
        assert pt.walk(0x9, AccessType.READ, user=False).frame == 1

    def test_nx_fetch_faults(self, pt):
        pt.map(0x9, Pte(frame=1, executable=False))
        with pytest.raises(PageFaultException):
            pt.walk(0x9, AccessType.EXECUTE, user=True)


class TestResolve:
    """``resolve`` is the leaf-only walk: same PTE, faults and A/D bits."""

    def test_returns_leaf_and_sets_bits(self, pt):
        pt.map(0x1234, Pte(frame=77))
        pte = pt.resolve(0x1234, AccessType.WRITE, user=True)
        assert pte is pt.lookup(0x1234)
        assert pte.frame == 77 and pte.accessed and pte.dirty

    def test_huge_leaf(self, pt):
        pt.map_huge(HUGE_PAGE_PAGES, Pte(frame=0x4000))
        pte = pt.resolve(HUGE_PAGE_PAGES + 5, AccessType.READ, user=True)
        assert pte.huge and pte.frame == 0x4000
        assert pte.accessed and not pte.dirty

    def test_miss_levels_match_walk(self, pt):
        pt.map(0x1000, Pte(frame=5))
        for vpn, level in ((0x1001, 1), (1 << 18, PT_LEVELS - 1),
                           (1 << 30, PT_LEVELS)):
            with pytest.raises(PageFaultException) as exc:
                pt.resolve(vpn, AccessType.READ, user=True)
            assert exc.value.fault.level == level

    def test_protection_fault(self, pt):
        pt.map(0x9, Pte(frame=1, writable=False))
        with pytest.raises(PageFaultException) as exc:
            pt.resolve(0x9, AccessType.WRITE, user=True)
        assert exc.value.fault.is_protection
        assert not pt.lookup(0x9).accessed


class TestFaultExceptions:
    """Messages are formatted lazily but read exactly as before, and the
    exceptions survive pickling (``--jobs`` moves them across
    processes)."""

    FAULT = PageFault(
        vaddr=0x1234000, access=AccessType.WRITE,
        error=PageFaultError.PRESENT | PageFaultError.WRITE | PageFaultError.USER,
        level=1,
    )
    VIOLATION = EptViolation(gpa=0xABC000, access=AccessType.READ, level=2)

    def test_page_fault_message(self):
        exc = PageFaultException(self.FAULT)
        assert str(exc) == "page fault @ 0x1234000 (PageFaultError.PRESENT|WRITE|USER)"
        none = PageFault(vaddr=0x5000, access=AccessType.READ,
                         error=PageFaultError.NONE, level=4)
        assert str(PageFaultException(none)) == "page fault @ 0x5000 (PageFaultError.NONE)"

    def test_ept_violation_message(self):
        assert str(EptViolationException(self.VIOLATION)) == "EPT violation @ gpa 0xabc000"

    def test_walk_fault_error_codes(self, pt):
        pt.map(0x9, Pte(frame=1, user=False, executable=False))
        cases = [
            (0x8, AccessType.READ, False, PageFaultError.NONE),
            (0x8, AccessType.WRITE, True, PageFaultError.WRITE | PageFaultError.USER),
            (0x9, AccessType.READ, True, PageFaultError.PRESENT | PageFaultError.USER),
            (0x9, AccessType.EXECUTE, False,
             PageFaultError.PRESENT | PageFaultError.FETCH),
        ]
        for vpn, access, user, error in cases:
            with pytest.raises(PageFaultException) as exc:
                pt.walk(vpn, access, user)
            assert exc.value.fault.error == error
            assert exc.value.fault.vaddr == vpn << 12

    @pytest.mark.parametrize("make,attr", [
        (lambda: PageFaultException(TestFaultExceptions.FAULT), "fault"),
        (lambda: EptViolationException(TestFaultExceptions.VIOLATION), "violation"),
    ])
    def test_pickle_roundtrip(self, make, attr):
        exc = make()
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert getattr(clone, attr) == getattr(exc, attr)
        assert str(clone) == str(exc)


class TestIteration:
    def test_iter_sorted(self, pt):
        vpns = [500, 3, 1 << 20, 77]
        for v in vpns:
            pt.map(v, Pte(frame=v))
        seen = [v for v, _ in pt.iter_mappings()]
        assert seen == sorted(vpns)

    def test_iter_reconstructs_vpn(self, pt):
        pt.map(0xABCDE, Pte(frame=1))
        assert [v for v, _ in pt.iter_mappings()] == [0xABCDE]


class TestLifecycle:
    def test_destroy_clears(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.destroy()
        assert pt.mapped_pages == 0
        assert pt.lookup(0x1) is None
        # Table remains usable.
        pt.map(0x1, Pte(frame=2))
        assert pt.lookup(0x1).frame == 2

    def test_release_frees_everything(self, pt, phys):
        before = phys.free_frames + 1  # +1 for the root allocated at init
        pt.map(0x1, Pte(frame=1))
        pt.release()
        assert phys.free_frames == before

    @pytest.mark.parametrize("levels", [1, 2, PT_LEVELS])
    def test_released_table_refuses_mutation(self, phys, levels):
        pt = PageTable(phys, name="gone", levels=levels)
        pt.map(0x1, Pte(frame=1))
        pt.release()
        free = phys.free_frames
        assert pt._leaves == {}
        mutations = [
            lambda: pt.map(0x1, Pte(frame=1)),
            lambda: pt.map(0x2, Pte(frame=2)),
            lambda: pt.unmap(0x1),
            lambda: pt.protect(0x1, writable=False),
            lambda: pt.destroy(),
            lambda: pt.release(),
        ]
        if levels >= 2:
            mutations += [
                lambda: pt.map_huge(0, Pte(frame=0)),
                lambda: pt.unmap_huge(0),
                lambda: pt.split_huge(0),
            ]
        for mutate in mutations:
            with pytest.raises(HardwareError):
                mutate()
        # Nothing was allocated (no table frames leaked under a dead
        # root) and reads find nothing.
        assert phys.free_frames == free
        assert pt.lookup(0x1) is None
        assert pt.node_allocations == levels  # root + the one map's nodes
        with pytest.raises(PageFaultException):
            pt.walk(0x1, AccessType.READ, True)

    def test_write_hook_invoked(self, pt):
        touched = []
        pt.write_hook = touched.append
        pt.map(0x1, Pte(frame=1))
        assert len(touched) == PT_LEVELS
        pt.protect(0x1, writable=False)
        assert len(touched) == PT_LEVELS + 1

    def test_node_frames_cover_tree(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.map(1 << 30, Pte(frame=2))
        # root + 2 x 3 inner/leaf nodes
        assert len(pt.node_frames()) == 7


class TestLeafIndex:
    """The leaf-table index short-cuts walks to the level-1 table."""

    def test_walk_reuses_cached_ancestor_tuple(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.map(0x2, Pte(frame=2))
        first = pt.walk(0x1, AccessType.READ, True)
        second = pt.walk(0x2, AccessType.READ, True)
        assert first.nodes is second.nodes
        assert first.nodes[0] is pt.root and first.nodes[-1].level == 1
        assert first.levels_walked == PT_LEVELS

    def test_high_vpn_bits_alias_like_the_walk(self, pt):
        # Bits above the top level's index are ignored by the walk, and
        # so by the index key.
        pt.map(0x5, Pte(frame=9))
        alias = (1 << (9 * PT_LEVELS)) | 0x5
        assert pt.lookup(alias) is pt.lookup(0x5)
        assert pt.walk(alias, AccessType.READ, True).frame == 9

    def test_entry_dropped_when_leaf_table_pruned(self, pt):
        pt.map(0x1, Pte(frame=1))
        assert len(pt._leaves) == 1
        pt.unmap(0x1)
        assert pt._leaves == {}
        with pytest.raises(PageFaultException) as exc:
            pt.walk(0x1, AccessType.READ, True)
        assert exc.value.fault.level == PT_LEVELS

    def test_huge_region_misses_index(self, pt):
        pt.map_huge(0, Pte(frame=0x200))
        assert pt._leaves == {}
        assert pt.walk(7, AccessType.READ, True).frame == 0x207
        pt.split_huge(0)
        assert len(pt._leaves) == 1
        assert pt.walk(7, AccessType.READ, True).frame == 0x207

    def test_destroy_resets_index(self, pt):
        pt.map(0x1, Pte(frame=1))
        pt.destroy()
        assert pt._leaves == {}
        pt.map(0x1, Pte(frame=2))
        assert pt.walk(0x1, AccessType.READ, True).nodes[0] is pt.root
