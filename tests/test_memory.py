"""Unit tests for physical memory and frame allocation."""

import pytest

from repro.hw.memory import FrameAllocator, FrameRange, PhysicalMemory
from repro.hw.types import MIB, HardwareError


class TestFrameRange:
    def test_iteration(self):
        assert list(FrameRange(3, 4)) == [3, 4, 5, 6]

    def test_end(self):
        assert FrameRange(3, 4).end == 7


class TestFirstFit:
    def test_alloc_from_start(self):
        a = FrameAllocator(100)
        r = a.alloc(10)
        assert (r.start, r.count) == (0, 10)
        assert a.free_frames == 90

    def test_alloc_contiguous_sequences(self):
        a = FrameAllocator(100)
        r1 = a.alloc(10)
        r2 = a.alloc(10)
        assert r2.start == r1.end

    def test_exhaustion(self):
        a = FrameAllocator(4)
        a.alloc(4)
        with pytest.raises(MemoryError):
            a.alloc_frame()

    def test_free_and_reuse(self):
        a = FrameAllocator(16)
        r = a.alloc(8)
        a.free(r)
        assert a.free_frames == 16
        r2 = a.alloc(8)
        assert r2.start == 0  # first-fit reuses immediately

    def test_coalescing(self):
        a = FrameAllocator(16)
        r1 = a.alloc(4)
        r2 = a.alloc(4)
        r3 = a.alloc(4)
        a.free(r1)
        a.free(r3)
        a.free(r2)  # middle free merges all three with the tail
        assert a.alloc(16).count == 16

    def test_double_free_rejected(self):
        a = FrameAllocator(8)
        r = a.alloc(2)
        a.free(r)
        with pytest.raises(HardwareError):
            a.free(r)

    def test_invalid_count(self):
        a = FrameAllocator(8)
        with pytest.raises(ValueError):
            a.alloc(0)

    def test_owner_tags(self):
        a = FrameAllocator(8)
        f = a.alloc_frame(tag="pt:test")
        assert a.owner_of(f) == "pt:test"
        assert a.frames_tagged("pt:test") == {f}
        a.free_frame(f)
        assert a.owner_of(f) is None

    def test_usage_by_tag(self):
        a = FrameAllocator(16)
        a.alloc(3, tag="x")
        a.alloc(2, tag="y")
        assert a.usage_by_tag() == {"x": 3, "y": 2}


class TestStreamPolicy:
    def test_prefers_fresh_frames(self):
        a = FrameAllocator(8, policy="stream")
        f1 = a.alloc_frame()
        a.free_frame(f1)
        f2 = a.alloc_frame()
        # Fresh pool preferred: the freed frame is NOT reused.
        assert f2 != f1

    def test_recycles_fifo_when_exhausted(self):
        a = FrameAllocator(4, policy="stream")
        frames = [a.alloc_frame() for _ in range(4)]
        a.free_frame(frames[2])
        a.free_frame(frames[0])
        assert a.alloc_frame() == frames[2]  # oldest freed first
        assert a.alloc_frame() == frames[0]

    def test_free_counts_include_recycled(self):
        a = FrameAllocator(4, policy="stream")
        f = a.alloc_frame()
        a.free_frame(f)
        assert a.free_frames == 4

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            FrameAllocator(4, policy="lifo")

    def test_stream_exhaustion_raises(self):
        a = FrameAllocator(2, policy="stream")
        a.alloc_frame()
        a.alloc_frame()
        with pytest.raises(MemoryError):
            a.alloc_frame()


class TestFreeMany:
    def test_coalesces_like_single_frees(self):
        batched, single = FrameAllocator(64), FrameAllocator(64)
        for a in (batched, single):
            for _ in range(40):
                a.alloc_frame(tag="x")
        victims = [7, 3, 4, 20, 5, 39, 0]
        batched.free_many(victims)
        for f in victims:
            single.free_frame(f)
        assert batched._free == single._free
        assert batched._owner == single._owner
        assert batched.free_frames == 64 - 40 + len(victims)

    def test_stream_keeps_batch_order(self):
        a = FrameAllocator(4, policy="stream")
        frames = [a.alloc_frame() for _ in range(4)]
        a.free_many([frames[2], frames[0], frames[3]])
        assert [a.alloc_frame() for _ in range(3)] == [
            frames[2], frames[0], frames[3]]

    @pytest.mark.parametrize("batch", [[1, 1], [1, 6], [6], [2, 12]])
    def test_double_free_rejected_atomically(self, batch):
        a = FrameAllocator(16)
        for _ in range(8):
            a.alloc_frame()
        a.free_frame(6)
        free, owner = list(a._free), dict(a._owner)
        with pytest.raises(HardwareError, match="double free"):
            a.free_many(batch)
        assert a._free == free and a._owner == owner

    def test_physical_memory_forwards(self):
        pm = PhysicalMemory("t", size_bytes=1 * MIB)
        frames = [pm.alloc_frame() for _ in range(5)]
        pm.free_many(frames)
        assert pm.free_frames == 256


class TestPhysicalMemory:
    def test_frame_counts(self):
        pm = PhysicalMemory("t", size_bytes=1 * MIB)
        assert pm.total_frames == 256
        f = pm.alloc_frame()
        assert pm.free_frames == 255
        pm.free_frame(f)
        assert pm.free_frames == 256

    def test_unaligned_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory("t", size_bytes=1 * MIB + 1)

    def test_policy_forwarded(self):
        pm = PhysicalMemory("t", size_bytes=1 * MIB, policy="stream")
        f = pm.alloc_frame()
        pm.free_frame(f)
        assert pm.alloc_frame() != f


class TestPreferRecycled:
    def test_stream_prefers_recycled_when_asked(self):
        a = FrameAllocator(8, policy="stream")
        f1 = a.alloc_frame()
        a.free_frame(f1)
        assert a.alloc_frame(prefer_recycled=True) == f1

    def test_prefer_recycled_falls_back_to_fresh(self):
        a = FrameAllocator(4, policy="stream")
        assert a.alloc_frame(prefer_recycled=True) == 0  # nothing recycled

    def test_firstfit_ignores_hint(self):
        a = FrameAllocator(8)
        f = a.alloc_frame(prefer_recycled=True)
        a.free_frame(f)
        assert a.alloc_frame(prefer_recycled=True) == f


class TestChurn:
    """Alloc/free interleave torture: tag tracking, coalescing, and the
    fragmentation gauge stay consistent through arbitrary churn."""

    def test_interleaved_churn_tag_tracking(self):
        a = FrameAllocator(256)
        held = {}
        # A fixed pseudo-random-ish interleave (deterministic, no RNG):
        # allocate two, free one, in shifting tag lanes.
        for i in range(200):
            tag = f"lane{i % 3}"
            f = a.alloc_frame(tag=tag)
            held.setdefault(tag, []).append(f)
            if i % 2:
                victim_lane = f"lane{(i + 1) % 3}"
                if held.get(victim_lane):
                    a.free_frame(held[victim_lane].pop(0))
        by_tag = a.usage_by_tag()
        for tag, frames in held.items():
            assert by_tag.get(tag, 0) == len(frames)
            for f in frames:
                assert a.owner_of(f) == tag
        assert a.used_frames == sum(len(v) for v in held.values())
        assert a.free_frames == 256 - a.used_frames

    def test_churn_then_full_free_coalesces_completely(self):
        a = FrameAllocator(128)
        ranges = [a.alloc(n) for n in (5, 17, 3, 40, 1, 9)]
        singles = [a.alloc_frame() for _ in range(10)]
        for r in ranges[::2]:
            a.free(r)
        for f in singles[::3]:
            a.free_frame(f)
        for r in ranges[1::2]:
            a.free(r)
        for i, f in enumerate(singles):
            if i % 3:
                a.free_frame(f)
        assert a.free_frames == 128
        stats = a.fragmentation_stats()
        assert stats["free_runs"] == 1
        assert stats["largest_run"] == 128
        assert stats["fragmentation"] == 0.0
        assert a.alloc(128).count == 128  # fully coalesced: one big run

    def test_fragmentation_gauge_tracks_holes(self):
        a = FrameAllocator(64)
        frames = [a.alloc_frame() for _ in range(64)]
        for f in frames[::2]:  # free every other frame: max fragmentation
            a.free_frame(f)
        stats = a.fragmentation_stats()
        assert stats["free_frames"] == 32
        assert stats["free_runs"] == 32
        assert stats["largest_run"] == 1
        assert stats["fragmentation"] == pytest.approx(1 - 1 / 32)
        for f in frames[1::2]:  # free the rest: holes merge away
            a.free_frame(f)
        stats = a.fragmentation_stats()
        assert stats["free_runs"] == 1
        assert stats["fragmentation"] == 0.0

    def test_stream_gauge_excludes_recycled(self):
        a = FrameAllocator(16, policy="stream")
        f = a.alloc_frame()
        a.free_frame(f)
        stats = a.fragmentation_stats()
        assert stats["recycled"] == 1
        assert stats["free_frames"] == 16  # fresh 15 + recycled 1
        assert stats["largest_run"] == 15  # contiguous gauge: fresh only

    def test_churn_double_free_still_rejected(self):
        a = FrameAllocator(32)
        keep = [a.alloc_frame() for _ in range(8)]
        a.free_frame(keep[3])
        with pytest.raises(HardwareError):
            a.free_frame(keep[3])
