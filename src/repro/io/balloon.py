"""virtio-balloon: guest memory reclamation.

One of the "advanced cloud-native features" (§6) that motivate building
secure containers on KVM.  The guest's balloon driver allocates guest
frames and hands them to the hypervisor, which drops their host backing
— shrinking the VM's footprint without its cooperation ending.  Deflate
returns the frames; subsequent guest use re-faults backing on demand.

The hypervisor-side release goes through each machine's
``discard_gfn_backing`` hook, so extended/shadow state (EPT entries,
shadow rmaps) is invalidated per architecture.
"""

from __future__ import annotations

from typing import List

from repro.hw.types import PAGE_SHIFT
from repro.io.virtio import VirtQueue


#: Guest-side driver work per ballooned page (allocation + list insert).
BALLOON_PAGE_NS = 280
#: Pages reported to the host per doorbell.
BALLOON_BATCH = 256


class BalloonDevice:
    """Per-machine virtio-balloon front/back end."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.queue = VirtQueue(size=256)
        #: Guest frames currently held by the balloon.
        self._held: List[int] = []
        self.inflations = 0
        self.deflations = 0
        self.host_frames_released = 0

    @property
    def held_pages(self) -> int:
        """Pages the balloon currently holds."""
        return len(self._held)

    # -- guest-driven operations ------------------------------------------

    def inflate(self, ctx, nbytes: int, prefer_recycled: bool = True) -> int:
        """Balloon up by ``nbytes``; returns pages actually reclaimed.

        The driver prefers *recycled* guest frames: those have been
        touched, so they carry host backing the discard can actually
        release.  Fresh never-touched frames shrink nothing (the
        pre-fix accounting bug: the balloon "released" frames that had
        no backing, so the host footprint never moved).  Stops early if
        guest memory runs out (the driver backs off under memory
        pressure rather than OOMing the guest).
        """
        want = max(1, nbytes >> PAGE_SHIFT)
        machine = self.machine
        got = 0
        while got < want:
            batch = min(BALLOON_BATCH, want - got)
            gfns = []
            for _ in range(batch):
                try:
                    gfns.append(machine.guest_phys.alloc_frame(
                        tag="balloon", prefer_recycled=prefer_recycled
                    ))
                except MemoryError:
                    break
            if not gfns:
                break
            ctx.clock.advance(len(gfns) * BALLOON_PAGE_NS)
            for gfn in gfns:
                self.queue.add_buf(4096, write=False)
            self.queue.kick()
            machine.virtio_doorbell(ctx)
            # Host side: drop the backing of each reported frame.  A
            # discarded frame refaults its backing on the next guest
            # touch after deflate — tracked for the refault counter.
            for gfn in gfns:
                if machine.discard_gfn_backing(gfn):
                    self.host_frames_released += 1
                    machine._discarded_gfns.add(gfn)
            san = machine.sanitizers
            if san is not None:
                san.shadow.after_discard()
            self.queue.reap()
            self._held.extend(gfns)
            got += len(gfns)
        self.inflations += 1
        return got

    def deflate(self, ctx, nbytes: int) -> int:
        """Return up to ``nbytes`` of ballooned pages to the guest.

        Returned frames have no host backing any more: the next guest
        touch takes the full fault path and re-faults backing on
        demand, charged at that touch (and counted by the EventLog's
        ``refaults`` counter) — deflate itself only does driver work.
        """
        want = max(1, nbytes >> PAGE_SHIFT)
        machine = self.machine
        released = 0
        while self._held and released < want:
            gfn = self._held.pop()
            machine.guest_phys.free_frame(gfn)
            released += 1
        if released:
            ctx.clock.advance(released * (BALLOON_PAGE_NS // 2))
            self.queue.add_buf(4096, write=False)
            self.queue.kick()
            machine.virtio_doorbell(ctx)
            self.queue.reap()
        self.deflations += 1
        return released
