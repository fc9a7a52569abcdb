"""The simulator-throughput benchmark: baseline file contract (tier-1)
and the timing assertions (opt-in via ``-m wallclock_bench``)."""

import json

import pytest

from repro.bench import wallclock


class TestBaselineContract:
    def test_baseline_checked_in(self):
        """BENCH_walk.json must exist with the gated metrics present."""
        baseline = wallclock.load_baseline()
        assert baseline is not None, "BENCH_walk.json missing at repo root"
        results = baseline["results"]
        for metric in wallclock.GATED_METRICS:
            assert results.get(metric, 0) > 0
        assert results["speedup_vs_legacy"] >= 1.5

    def test_regression_gate_logic(self):
        baseline = {"results": {"speedup_vs_legacy": 1.8,
                                "warm_translations_per_sec": 1000.0,
                                "miss_walks_per_sec": 100.0,
                                "faults_per_sec": 10.0}}
        ok = {"speedup_vs_legacy": 1.6,          # -11%: within 20%
              "warm_translations_per_sec": 850.0,
              "miss_walks_per_sec": 70.0,        # -30%: inside the 50%
              "faults_per_sec": 10.0}            # absolute-noise band
        assert wallclock.check_regressions(ok, baseline) == []
        # Ratios carry the tight gate: a 25% speedup drop is a failure.
        bad_ratio = dict(ok, speedup_vs_legacy=1.35)
        failures = wallclock.check_regressions(bad_ratio, baseline)
        assert len(failures) == 1 and "speedup_vs_legacy" in failures[0]
        # Absolute rates fail only past the 2x-class threshold.
        bad_abs = dict(ok, miss_walks_per_sec=45.0)  # -55%
        failures = wallclock.check_regressions(bad_abs, baseline)
        assert len(failures) == 1 and "miss_walks_per_sec" in failures[0]

    def test_host_slow_waiver(self):
        """Absolute shortfalls are waived when the untouched legacy loop
        slowed past tolerance too (host load, not a code regression)."""
        baseline = {"results": {"legacy_translations_per_sec": 1000.0,
                                "faults_per_sec": 10.0}}
        slow_host = {"legacy_translations_per_sec": 400.0,
                     "faults_per_sec": 4.0}  # -60%, but so is legacy
        assert wallclock.check_regressions(slow_host, baseline) == []
        fast_host = {"legacy_translations_per_sec": 1100.0,
                     "faults_per_sec": 4.0}  # -60% with a healthy host
        failures = wallclock.check_regressions(fast_host, baseline)
        assert len(failures) == 1 and "faults_per_sec" in failures[0]

    def test_parallel_gate_waived_on_smaller_host(self):
        """A host with fewer workers than the baseline host cannot reach
        the recorded fan-out speedup; the gate must waive, not fail."""
        baseline = {"results": {"parallel_speedup": 3.0, "parallel_jobs": 4}}
        small_host = {"parallel_speedup": 1.0, "parallel_jobs": 1}
        assert wallclock.check_regressions(small_host, baseline) == []
        same_host_regressed = {"parallel_speedup": 1.5, "parallel_jobs": 4}
        failures = wallclock.check_regressions(same_host_regressed, baseline)
        assert len(failures) == 1 and "parallel_speedup" in failures[0]
        bigger_host = {"parallel_speedup": 2.9, "parallel_jobs": 8}
        assert wallclock.check_regressions(bigger_host, baseline) == []

    def test_baseline_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_walk.json"
        wallclock.write_baseline({"warm_translations_per_sec": 123.456}, path)
        loaded = json.loads(path.read_text())
        assert loaded["results"]["warm_translations_per_sec"] == 123.46
        assert wallclock.load_baseline(path) == loaded

    def test_summary_line_shape(self):
        line = wallclock.summary_line({
            "warm_translations_per_sec": 5e6,
            "speedup_vs_legacy": 1.7,
            "miss_walks_per_sec": 2e5,
            "miss_psc_hit_rate": 0.99,
            "faults_per_sec": 1.2e4,
        })
        assert line.startswith("wallclock:") and "vs legacy" in line
        assert "fan-out" not in line  # phase absent: no fan-out segment
        line = wallclock.summary_line({
            "warm_translations_per_sec": 5e6,
            "speedup_vs_legacy": 1.7,
            "miss_walks_per_sec": 2e5,
            "miss_psc_hit_rate": 0.99,
            "faults_per_sec": 1.2e4,
            "parallel_speedup": 2.5,
            "parallel_jobs": 4,
        })
        assert "fan-out 2.50x @4j" in line
        assert "nested" not in line  # phase absent: no nested segment
        line = wallclock.summary_line({
            "warm_translations_per_sec": 5e6,
            "speedup_vs_legacy": 1.7,
            "miss_walks_per_sec": 2e5,
            "miss_psc_hit_rate": 0.99,
            "faults_per_sec": 1.2e4,
            "nested_faults_per_sec": 6.3e3,
        })
        assert "6.3k nested faults/s (psc off)" in line

    def test_nested_fault_phase_is_gated_psc_off(self, monkeypatch):
        """The PSC-off gate drives pvm (NST) with the default config —
        the paper machines' configuration — not a PSC-on one."""
        from repro.hypervisors.base import MachineConfig

        seen = []
        monkeypatch.setattr(
            wallclock, "_fault_rate",
            lambda name, config, npages: seen.append((name, config)) or 1.0,
        )
        assert wallclock.bench_nested_faults(64) == {"nested_faults_per_sec": 1.0}
        assert seen == [("pvm (NST)", MachineConfig())]
        assert not seen[0][1].psc
        assert "nested_faults_per_sec" in wallclock.GATED_METRICS

    def test_exit_roundtrip_phase_is_gated(self):
        """The exit-path gate drives Table 1's five round trips on both
        nested exit paths and is gated like the other absolute rates."""
        assert wallclock.EXIT_BENCH_MACHINES == ("pvm (NST)", "kvm-ept (NST)")
        assert len(wallclock.EXIT_BENCH_OPS) == 5
        results = wallclock.bench_exit_roundtrips(iters=2)
        assert results["exit_roundtrips_per_sec"] > 0
        assert "exit_roundtrips_per_sec" in wallclock.GATED_METRICS
        baseline = {"results": {"exit_roundtrips_per_sec": 1000.0}}
        assert wallclock.check_regressions(
            {"exit_roundtrips_per_sec": 600.0}, baseline) == []  # -40%
        failures = wallclock.check_regressions(
            {"exit_roundtrips_per_sec": 400.0}, baseline)  # -60%
        assert len(failures) == 1 and "exit_roundtrips_per_sec" in failures[0]
        line = wallclock.summary_line({
            "warm_translations_per_sec": 5e6,
            "speedup_vs_legacy": 1.7,
            "miss_walks_per_sec": 2e5,
            "miss_psc_hit_rate": 0.99,
            "faults_per_sec": 1.2e4,
            "exit_roundtrips_per_sec": 2.5e5,
        })
        assert "250k nested exit round trips/s" in line


    def test_parallel_speedup_is_median_of_repeats(self, monkeypatch):
        """Each repeat times one serial and one fan-out pass; the
        reported speedup is the median ratio, not one draw."""
        from repro.bench import parallel as par

        clock = [0.0]
        # (serial, fan-out) durations per repeat: ratios 2.0, 1.0, 4.0.
        durations = iter([2.0, 1.0, 2.0, 2.0, 2.0, 0.5])
        jobs_seen = []

        def fake_map_units(fn, units, jobs):
            jobs_seen.append(jobs)
            clock[0] += next(durations)
            return [("uid", "row")]

        monkeypatch.setattr(par, "plan_units", lambda exps, scale: [1, 2])
        monkeypatch.setattr(par, "map_units", fake_map_units)
        monkeypatch.setattr(wallclock.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(wallclock.time, "perf_counter", lambda: clock[0])
        results = wallclock.bench_parallel_speedup()
        assert wallclock.PARALLEL_BENCH_REPEATS == 3
        assert jobs_seen == [1, 2] * 3
        assert results == {
            "parallel_speedup": 2.0,
            "parallel_jobs": 2,
            "parallel_units_per_sec": 2 / 1.0,
        }


@pytest.mark.wallclock_bench
class TestThroughput:
    """Wall-clock timing assertions — excluded from tier-1 (noisy on
    loaded CI machines); run with ``pytest -m wallclock_bench``."""

    def test_hot_path_speedup_over_legacy(self):
        """Acceptance: >= 1.5x translations/sec over the pre-PR TLB
        design, measured in the same run."""
        results = wallclock.bench_warm_translations(iters=120)
        assert results["speedup_vs_legacy"] >= 1.5

    def test_no_regression_vs_checked_in_baseline(self):
        # Full scale: smaller runs under-amortize setup and would
        # trip the gate against the full-scale baseline.
        results = wallclock.run_benchmarks(scale=1.0)
        baseline = wallclock.load_baseline()
        assert baseline is not None
        assert wallclock.check_regressions(results, baseline) == []

    def test_psc_keeps_miss_walks_partial(self):
        results = wallclock.bench_miss_walks(iters=4)
        assert results["miss_psc_hit_rate"] > 0.9
