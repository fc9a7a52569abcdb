"""Copy-on-write isolation across the machine matrix.

Guest-visible semantics must match on every machine: once a forked
child writes a shared page, child and parent map different host frames,
whatever the paging design underneath.
"""

import pytest

from repro import SCENARIOS, make_machine


def _forked(name):
    m = make_machine(name)
    ctx = m.new_context()
    parent = m.spawn_process()
    vma = m.mmap(ctx, parent, 16 << 12)
    vpn = vma.start_vpn
    parent_frame = m.touch(ctx, parent, vpn, write=True)
    child = m.fork(ctx, parent)
    return m, ctx, parent, child, vpn, parent_frame


@pytest.mark.parametrize("name", SCENARIOS)
def test_child_write_after_read_and_flush_breaks_cow(name):
    m, ctx, parent, child, vpn, parent_frame = _forked(name)
    assert m.touch(ctx, child, vpn) == parent_frame
    # The harvest flushes every scanned process, so the write below
    # misses the TLB and faults on the read-only entry the read left.
    m.harvest_working_set(ctx)
    child_frame = m.touch(ctx, child, vpn, write=True)
    assert child_frame != parent_frame
    assert m.touch(ctx, child, vpn) == child_frame
    assert m.touch(ctx, parent, vpn) == parent_frame


@pytest.mark.xfail(strict=True, reason=(
    "Mmu.access_1d/access_2d trust a TLB hit for write permission, so a "
    "read-filled entry lets the child's write through without breaking "
    "copy-on-write"))
@pytest.mark.parametrize("name", SCENARIOS)
def test_child_write_after_read_breaks_cow_without_flush(name):
    m, ctx, parent, child, vpn, parent_frame = _forked(name)
    m.touch(ctx, child, vpn)
    child_frame = m.touch(ctx, child, vpn, write=True)
    assert child_frame != parent_frame
