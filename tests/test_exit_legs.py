"""Equivalence tests for the single-pass world-switch legs.

The switcher legs, the hardware leg (``Machine.hw_exit_entry``) and the
lock grant update clocks and counters in place; the detailed trace is
an optional append on the same path.  These tests pin that turning the
trace on changes nothing but the trace, that the trace holds exactly
one ``switch`` event per counted switch, and that the lock hooks
(lockdep, a stall hook that never fires) leave every grant unchanged.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import SCENARIOS, make_machine
from repro.hw.events import EventLog, SwitchKind
from repro.hw.types import PAGE_SIZE
from repro.hypervisors.base import MachineConfig
from repro.sanitize.core import SanitizeReport
from repro.sanitize.lockdep import LockdepSanitizer
from repro.sim.clock import Clock
from repro.sim.locks import SimLock

#: get_pid under KPTI on/off and the direct switch on/off (ignored by
#: the KVM machines), plus PVM without PCID mapping, whose every guest
#: CR3 load runs the switcher's flush hook.
CONFIGS = [
    {"kpti": kpti, "direct_switch": direct}
    for kpti in (True, False) for direct in (True, False)
] + [{"pcid_mapping": False}]

TABLE1_OPS = ("hypercall", "exception", "msr_access", "cpuid", "pio")


def _drive(scenario: str, overrides: dict, detailed: bool):
    events = EventLog(detailed=detailed)
    m = make_machine(scenario, config=MachineConfig(**overrides), events=events)
    ctx = m.new_context()
    proc = m.spawn_process()
    for op in TABLE1_OPS:
        getattr(m, op)(ctx)
    m.syscall(ctx, proc, "get_pid")
    m.deliver_timer(ctx)
    m.virtio_doorbell(ctx)
    m.halt(ctx, 5_000)
    vma = m.mmap(ctx, proc, 4 * PAGE_SIZE)
    m.touch(ctx, proc, vma.start_vpn, write=True)  # one demand fault
    return events, ctx.clock.now


@pytest.mark.parametrize("overrides", CONFIGS,
                         ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_detailed_trace_changes_only_the_trace(scenario, overrides):
    plain, plain_now = _drive(scenario, overrides, detailed=False)
    traced, traced_now = _drive(scenario, overrides, detailed=True)
    assert traced_now == plain_now
    assert traced.snapshot() == plain.snapshot()
    assert plain.trace == []

    switches = Counter(ev.detail for ev in traced.trace if ev.kind == "switch")
    guest_key = SwitchKind.GUEST_INTERNAL.value
    assert switches.pop(guest_key, 0) == traced.guest_transitions.total
    assert dict(switches) == traced.world_switches.by_key
    assert sum(switches.values()) == traced.world_switches.total > 0
    l1_exits = Counter(ev.detail for ev in traced.trace if ev.kind == "l1_exit")
    assert dict(l1_exits) == traced.l1_exits.by_key
    # One vCPU: events are appended in virtual-time order.
    times = [ev.time_ns for ev in traced.trace]
    assert times == sorted(times)


#: (virtual ns, world switches, L0 exits) of ``_drive`` per scenario and
#: ``CONFIGS`` entry: every leg's charge and count, pinned.
RECORDED = {
    "kvm-ept (BM)": [(24128, 26, 13), (24128, 26, 13), (23808, 26, 13),
                     (23808, 26, 13), (24128, 26, 13)],
    "kvm-spt (BM)": [(31060, 32, 16), (31060, 32, 16), (27200, 28, 14),
                     (27200, 28, 14), (31060, 32, 16)],
    "pvm (BM)": [(26478, 34, 0), (29450, 38, 0), (26158, 34, 0),
                 (29130, 38, 0), (32748, 34, 0)],
    "kvm-ept (NST)": [(138248, 86, 43), (138248, 86, 43), (137928, 86, 43),
                      (137928, 86, 43), (138248, 86, 43)],
    "kvm-spt (NST)": [(144260, 66, 33), (144260, 66, 33), (126600, 58, 29),
                      (126600, 58, 29), (144260, 66, 33)],
    "pvm (NST)": [(39178, 42, 4), (42150, 46, 4), (38858, 42, 4),
                  (41830, 46, 4), (45448, 42, 4)],
    "pvm-dp (NST)": [(35560, 36, 4), (38532, 40, 4), (35560, 36, 4),
                     (38532, 40, 4), (40840, 36, 4)],
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_drive_matches_recorded_values(scenario):
    assert set(RECORDED) == set(SCENARIOS)
    for overrides, expected in zip(CONFIGS, RECORDED[scenario], strict=True):
        events, now = _drive(scenario, overrides, detailed=False)
        got = (now, events.world_switches.total, events.l0_exits.total)
        assert got == expected, overrides


# -- lock grants -------------------------------------------------------------

#: One acquisition: (vCPU, think time before it, hold, overhead).
acquisitions = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 500),
              st.integers(0, 400), st.integers(0, 50)),
    min_size=1, max_size=40,
)


def _run(lock: SimLock, steps):
    clocks = [Clock() for _ in range(3)]
    waits = []
    for cpu, think, hold, overhead in steps:
        clocks[cpu].now += think
        waits.append(lock.run_locked(clocks[cpu], hold, overhead))
    return (waits, [c.now for c in clocks], lock.free_at, lock.acquisitions,
            lock.total_wait_ns, lock.total_hold_ns)


class TestLockGrantEquivalence:
    @given(acquisitions)
    @settings(max_examples=100, deadline=None)
    def test_hooks_leave_grants_unchanged(self, steps):
        plain_events, stall_events, dep_events = EventLog(), EventLog(), EventLog()
        plain = SimLock("l", plain_events)
        stalled = SimLock("l", stall_events)
        stalled.stall_hook = lambda now: 0
        dep = SimLock("l", dep_events)
        dep.lockdep = LockdepSanitizer(SanitizeReport())

        expected = _run(plain, steps)
        assert _run(stalled, steps) == expected
        assert _run(dep, steps) == expected
        assert stalled.stalls_injected_ns == 0
        assert dep.lockdep.report.checks["lockdep"] == len(steps)
        snap = plain_events.snapshot()
        assert stall_events.snapshot() == snap == dep_events.snapshot()
        assert snap["lock_wait_ns"]["total"] == plain.total_wait_ns

    @given(acquisitions)
    @settings(max_examples=100, deadline=None)
    def test_grants_match_the_timeline_model(self, steps):
        """Reference: grant = max(request, free_at), end = grant +
        overhead + hold, and the clock never moves backwards."""
        lock = SimLock("l")
        clocks = [Clock() for _ in range(3)]
        free_at = 0
        for cpu, think, hold, overhead in steps:
            clocks[cpu].now += think
            request = clocks[cpu].now
            grant = max(request, free_at)
            free_at = grant + overhead + hold
            assert lock.run_locked(clocks[cpu], hold, overhead) == grant - request
            assert clocks[cpu].now == free_at == lock.free_at

    def test_negative_duration_still_rejected(self):
        lock = SimLock("l")
        with pytest.raises(ValueError):
            lock.run_locked(Clock(), -1)
        with pytest.raises(ValueError):
            lock.run_locked(Clock(), 0, overhead_ns=-1)
        assert lock.acquisitions == 0

    def test_zero_wait_records_no_event(self):
        events = EventLog()
        lock = SimLock("l", events)
        lock.run_locked(Clock(), 100)
        assert events.lock_wait_ns.by_key == {}
        lock.run_locked(Clock(), 100)  # second vCPU queues 100 ns
        assert events.lock_wait_ns.by_key == {"l": 100}
