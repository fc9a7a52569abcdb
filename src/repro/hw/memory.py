"""Physical memory and frame allocation.

Each virtualization level owns a :class:`PhysicalMemory`: the host's
machine memory (frames identified by HPA frame numbers), an L1 VM's
guest-physical memory, and an L2 guest's guest-physical memory.  Frames
are identified by integer frame numbers; the allocator hands them out
first-fit from a free list and tracks ownership tags so tests can verify
that teardown releases everything.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set

from repro.hw.types import GIB, PAGE_SHIFT, PAGE_SIZE, HardwareError


@dataclass
class FrameRange:
    """A contiguous run of physical frames [start, start + count)."""

    start: int
    count: int

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.start + self.count))

    @property
    def end(self) -> int:
        """One past the last frame of the range."""
        return self.start + self.count


class FrameAllocator:
    """First-fit allocator over a fixed pool of physical frames.

    The allocator is deliberately simple — allocation order is
    deterministic, which keeps simulations reproducible.  ``tag`` strings
    record the purpose of each allocation (page table, guest RAM, ...) so
    accounting reports and leak checks can group by owner.

    Two reuse policies are supported:

    * ``"firstfit"`` — freed frames coalesce back and are reused
      immediately (lowest address first).
    * ``"stream"`` — never-allocated frames are preferred; freed frames
      queue FIFO and are only reused once the fresh pool is exhausted.
      This models the streaming behaviour of a guest kernel's allocator
      over a large RAM pool, under which the paper's alloc/touch
      micro-benchmark keeps touching *new* guest-physical frames — the
      property that makes every page a fresh EPT violation in nested
      configurations (Figs. 4 and 10).
    """

    def __init__(self, total_frames: int, policy: str = "firstfit") -> None:
        if total_frames <= 0:
            raise ValueError(f"total_frames must be positive, got {total_frames}")
        if policy not in ("firstfit", "stream"):
            raise ValueError(f"unknown reuse policy {policy!r}")
        self.total_frames = total_frames
        self.policy = policy
        self._free: List[FrameRange] = [FrameRange(0, total_frames)]
        self._recycled: Deque[int] = deque()
        self._owner: Dict[int, str] = {}

    @property
    def free_frames(self) -> int:
        """Frames currently available."""
        return sum(r.count for r in self._free) + len(self._recycled)

    @property
    def used_frames(self) -> int:
        """Frames currently allocated."""
        return self.total_frames - self.free_frames

    def alloc(self, count: int = 1, tag: str = "anon") -> FrameRange:
        """Allocate ``count`` contiguous frames, first-fit.

        Raises :class:`MemoryError` when no contiguous run is available;
        callers that can tolerate fragmentation should allocate page by
        page.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        for i, r in enumerate(self._free):
            if r.count >= count:
                got = FrameRange(r.start, count)
                if r.count == count:
                    del self._free[i]
                else:
                    self._free[i] = FrameRange(r.start + count, r.count - count)
                for f in got:
                    self._owner[f] = tag
                return got
        raise MemoryError(
            f"out of physical frames: wanted {count} contiguous, "
            f"{self.free_frames} free (fragmented into {len(self._free)} runs)"
        )

    def alloc_frame(self, tag: str = "anon", prefer_recycled: bool = False) -> int:
        """Allocate a single frame and return its frame number.

        ``prefer_recycled`` inverts the "stream" policy's preference for
        never-allocated frames: recycled (previously freed, still
        host-backed) frames are handed out first.  The balloon driver
        uses this so reclaim releases frames the host actually backs
        instead of inflating into fresh, never-faulted guest memory.
        """
        if prefer_recycled and self._recycled:
            frame = self._recycled.popleft()
            self._owner[frame] = tag
            return frame
        free = self._free
        if free:
            # First fit for one frame is always the head of the first run.
            run = free[0]
            frame = run.start
            if run.count == 1:
                del free[0]
            else:
                # A fresh range: callers may still hold the one freed here.
                free[0] = FrameRange(frame + 1, run.count - 1)
            self._owner[frame] = tag
            return frame
        if self._recycled:
            frame = self._recycled.popleft()
            self._owner[frame] = tag
            return frame
        raise MemoryError("out of physical frames")

    def alloc_aligned(self, count: int, tag: str = "anon") -> FrameRange:
        """Allocate ``count`` contiguous frames aligned to ``count``.

        Used for huge-page backing, which needs both contiguity and
        natural alignment.  Raises :class:`MemoryError` when no free run
        can satisfy the alignment.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        for i, r in enumerate(self._free):
            start = ((r.start + count - 1) // count) * count
            if start + count > r.end:
                continue
            # Carve [start, start+count) out of the run.
            del self._free[i]
            if start > r.start:
                self._free.insert(i, FrameRange(r.start, start - r.start))
                i += 1
            if start + count < r.end:
                self._free.insert(i, FrameRange(start + count,
                                                r.end - start - count))
            got = FrameRange(start, count)
            for f in got:
                self._owner[f] = tag
            return got
        raise MemoryError(
            f"no aligned run of {count} frames available "
            f"({self.free_frames} free)"
        )

    def free(self, frames: FrameRange) -> None:
        """Return a frame range to the pool.

        Under "firstfit" the range coalesces back into the free runs;
        under "stream" the frames queue FIFO for last-resort reuse.
        """
        for f in frames:
            if f not in self._owner:
                raise HardwareError(f"double free of frame {f:#x}")
            del self._owner[f]
        if self.policy == "stream":
            self._recycled.extend(frames)
        else:
            self._insert_free(frames)

    def free_frame(self, frame: int) -> None:
        """Return one frame to the pool."""
        self.free(FrameRange(frame, 1))

    def free_many(self, frames: Iterable[int]) -> None:
        """Return many single frames to the pool at once.

        Leaves exactly the state that :meth:`free_frame` on each frame in
        order would: under "stream" the batch queues in its own order;
        under "firstfit" the free list is sorted, disjoint and fully
        coalesced, so one sort of the batch and one merge rebuild it.  A frame
        that is not allocated, or that appears twice, raises
        :class:`HardwareError` before anything is freed.
        """
        batch = list(frames)
        owner = self._owner
        unique = set(batch)
        if len(unique) != len(batch) or not owner.keys() >= unique:
            seen: Set[int] = set()
            for f in batch:
                if f in seen or f not in owner:
                    raise HardwareError(f"double free of frame {f:#x}")
                seen.add(f)
        for f in batch:
            del owner[f]
        if not batch:
            return
        if self.policy == "stream":
            self._recycled.extend(batch)
            return
        # Group the batch into runs of consecutive frames, then coalesce
        # them with the existing runs in one pass over both, by start.
        fresh: List[FrameRange] = []
        start = end = -1
        for f in sorted(batch):
            if f != end:
                if end >= 0:
                    fresh.append(FrameRange(start, end - start))
                start = f
            end = f + 1
        if end >= 0:
            fresh.append(FrameRange(start, end - start))
        merged: List[FrameRange] = []
        for run in sorted(self._free + fresh, key=attrgetter("start")):
            if merged:
                last = merged[-1]
                if last.end > run.start:
                    raise HardwareError("overlapping free ranges")
                if last.end == run.start:
                    merged[-1] = FrameRange(last.start, last.count + run.count)
                    continue
            merged.append(run)
        self._free[:] = merged

    def owner_of(self, frame: int) -> Optional[str]:
        """Return the allocation tag of ``frame``, or None if free."""
        return self._owner.get(frame)

    def frames_tagged(self, tag: str) -> Set[int]:
        """All frames allocated under one tag."""
        return {f for f, t in self._owner.items() if t == tag}

    def usage_by_tag(self) -> Dict[str, int]:
        """Frame counts grouped by allocation tag (for accounting)."""
        usage: Dict[str, int] = {}
        for t in self._owner.values():
            usage[t] = usage.get(t, 0) + 1
        return usage

    def fragmentation_stats(self) -> Dict[str, int | float]:
        """External-fragmentation gauge over the coalesced free list.

        ``fragmentation`` is ``1 - largest_run / contiguous_free`` —
        0.0 when all contiguous free memory is one run, approaching 1.0
        as it shatters.  Recycled (FIFO-queued) frames are reported
        separately: they are reusable one at a time but never satisfy a
        contiguous allocation, so they do not enter the ratio.
        """
        contiguous = sum(r.count for r in self._free)
        largest = max((r.count for r in self._free), default=0)
        return {
            "free_frames": self.free_frames,
            "contiguous_free": contiguous,
            "free_runs": len(self._free),
            "largest_run": largest,
            "recycled": len(self._recycled),
            "fragmentation": 1.0 - largest / contiguous if contiguous else 0.0,
        }

    def _insert_free(self, frames: FrameRange) -> None:
        # Keep the free list sorted by start and coalesce adjacent runs.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].start < frames.start:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, frames)
        self._coalesce_around(lo)

    def _coalesce_around(self, idx: int) -> None:
        # Merge with the next run first, then the previous one.
        if idx + 1 < len(self._free):
            cur, nxt = self._free[idx], self._free[idx + 1]
            if cur.end > nxt.start:
                raise HardwareError("overlapping free ranges")
            if cur.end == nxt.start:
                self._free[idx] = FrameRange(cur.start, cur.count + nxt.count)
                del self._free[idx + 1]
        if idx > 0:
            prv, cur = self._free[idx - 1], self._free[idx]
            if prv.end > cur.start:
                raise HardwareError("overlapping free ranges")
            if prv.end == cur.start:
                self._free[idx - 1] = FrameRange(prv.start, prv.count + cur.count)
                del self._free[idx]


@dataclass
class PhysicalMemory:
    """The physical address space of one virtualization level.

    ``name`` identifies the level ("host", "l1-vm", "l2-guest-3", ...);
    the embedded allocator manages its frames.  We do not store page
    *contents* — the evaluation never depends on data values, only on
    mapping state — but we do track per-frame metadata via the allocator.
    """

    name: str
    size_bytes: int = 4 * GIB
    policy: str = "firstfit"
    allocator: FrameAllocator = field(init=False)

    def __post_init__(self) -> None:
        if self.size_bytes % PAGE_SIZE:
            raise ValueError("memory size must be page-aligned")
        self.allocator = FrameAllocator(self.size_bytes >> PAGE_SHIFT, policy=self.policy)

    @property
    def total_frames(self) -> int:
        """Total frames in the pool."""
        return self.allocator.total_frames

    @property
    def free_frames(self) -> int:
        """Frames currently available."""
        return self.allocator.free_frames

    def alloc_frame(self, tag: str = "anon", prefer_recycled: bool = False) -> int:
        """Allocate one frame; returns its frame number."""
        return self.allocator.alloc_frame(tag, prefer_recycled=prefer_recycled)

    def alloc(self, count: int, tag: str = "anon") -> FrameRange:
        """Allocate contiguous frames."""
        return self.allocator.alloc(count, tag)

    def free_frame(self, frame: int) -> None:
        """Return one frame to the pool."""
        self.allocator.free_frame(frame)

    def free_many(self, frames: Iterable[int]) -> None:
        """Return many single frames to the pool at once."""
        self.allocator.free_many(frames)

    def alloc_aligned(self, count: int, tag: str = "anon") -> FrameRange:
        """Allocate naturally-aligned contiguous frames."""
        return self.allocator.alloc_aligned(count, tag)

    def free(self, frames: FrameRange) -> None:
        """Return frames to the pool."""
        self.allocator.free(frames)
