"""CI perf-trajectory gate: structural-drift reporting + core-aware gates.

Satellite (ISSUE 4): a missing section must produce one clear, actionable
failure naming the offending key *and which side lost it*, instead of a
wall of leaf paths; the new process sections are ratio-gated only on
machines that can physically parallelise CPU work.
"""

from __future__ import annotations

import copy
import importlib.util
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_trajectory",
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "check_trajectory.py",
)
check_trajectory_mod = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_trajectory_mod)

check_trajectory = check_trajectory_mod.check_trajectory
offending_sections = check_trajectory_mod.offending_sections


def baseline_payload() -> dict:
    return {
        "typed_expansion": {
            "typed": {"best_s": 0.001, "steps_per_count": 432},
        },
        "compiled_match": {
            "speedup": 11.0,
            "rewrite_batch": {"speedup": 8.0},
            "program_cache": {},
        },
        "process_pool": {
            "cpu_cores": 2,
            "workers_cap": 2,
            "speedup_2w": 1.8,
            "serial_s": 0.2,
        },
        "affine_placement": {
            "cpu_cores": 2,
            "workers_cap": 2,
            "payload_ratio_4s": 3.5,
            "speedup_2s": 1.3,
            "payloads": {},
        },
        "mutate_while_serving": {
            "csr": {"patch_rate": 1.0},
            "catchup": {"warm_hit_rate": 1.0, "reship_ratio": 3000.0},
        },
        "observability": {
            "enabled_ratio": 0.98,
            "heavy_count": {},
            "rewrite_batch": {},
        },
        "server_protocol": {
            "streamed_identical": 1.0,
            "open_loop": {
                "2": {"ttfc_ratio": 0.6, "p99_over_p50": 1.1},
                "8": {"ttfc_ratio": 0.7, "p99_over_p50": 1.2},
            },
        },
        "restart_warm": {
            "unmutated": {"warm_hit_rate": 1.0, "counts_identical": True},
            "mutated": {"warm_hit_rate": 0.96875, "counts_identical": True},
        },
        "path1_estimator": {
            "estimates": 812,
            "path1_misses": 311,
            "counts_identical": 1.0,
            "speedup": 2.8,
        },
        "interpreter_core": {
            "counts": 308,
            "steps": 138682,
            "counts_identical": 1.0,
            "steps_identical": 1.0,
            "speedup": 2.4,
        },
    }


class TestOffendingSections:
    def test_collapses_to_shortest_paths(self):
        paths = {
            "process_pool",
            "process_pool.workers",
            "process_pool.workers.2",
            "process_pool.workers.2.speedup",
            "observability.enabled_ratio",
        }
        assert offending_sections(paths) == [
            "observability.enabled_ratio",
            "process_pool",
        ]

    def test_independent_paths_all_reported(self):
        paths = {"a.x", "b.y"}
        assert offending_sections(paths) == ["a.x", "b.y"]


class TestStructuralDrift:
    def test_section_missing_from_fresh_names_key_and_side(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        del fresh["process_pool"]
        gate = check_trajectory(baseline, fresh)
        assert len(gate.failures) == 1  # one section, one message
        message = gate.failures[0]
        assert "'process_pool'" in message
        assert "FRESH" in message
        assert "fix the benchmark" in message

    def test_section_missing_from_baseline_names_key_and_side(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["brand_new_section"] = {"speedup": 2.0, "nested": {"deep": 1}}
        gate = check_trajectory(baseline, fresh)
        assert len(gate.failures) == 1
        message = gate.failures[0]
        assert "'brand_new_section'" in message
        assert "BASELINE" in message
        assert "regenerate and commit BENCH_micro_core.json" in message

    def test_matching_structure_passes(self):
        baseline = baseline_payload()
        gate = check_trajectory(baseline, copy.deepcopy(baseline))
        assert gate.failures == []

    def test_retired_sections_only_in_baseline_are_not_drift(self):
        """A baseline recorded before a code path was deleted still
        carries that path's keys; only those exact keys are tolerated."""
        fresh = baseline_payload()
        baseline = copy.deepcopy(fresh)
        baseline["sharded_expansion"] = {"speedup_2s": 0.4, "shards": {}}
        baseline["typed_expansion"]["speedup"] = 3.0
        baseline["typed_expansion"]["legacy"] = {"steps_per_count": 9264}
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        retired = [line for line in gate.lines if "retired section" in line]
        assert len(retired) == 3
        # a retired key reappearing in a fresh run is still drift
        assert check_trajectory(fresh, baseline).failures

    def test_typed_expansion_steps_increase_fails(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["typed_expansion"]["typed"]["steps_per_count"] = 600
        gate = check_trajectory(baseline, fresh)
        assert any("typed-expansion steps" in f for f in gate.failures)


class TestCoreAwareSpeedupGate:
    def test_single_core_fresh_run_is_recorded_not_gated(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"].update(cpu_cores=1, speedup_2w=0.95)
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        skipped = [line for line in gate.lines if "SKIPPED" in line]
        assert len(skipped) == 1

    def test_worker_cap_below_two_is_recorded_not_gated(self):
        """REPRO_BENCH_PROCESS_WORKERS=1 on a multi-core box records a
        1-worker ratio; the gate must not demand a 2-worker speedup the
        configuration made unobservable."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"].update(cpu_cores=8, workers_cap=1, speedup_2w=0.9)
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        assert sum("SKIPPED" in line for line in gate.lines) == 1

    def test_multicore_regression_fails(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["speedup_2w"] = 1.0  # below 1.8 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("process-pool" in f for f in gate.failures)

    def test_single_core_baseline_cannot_water_down_the_target(self):
        """A baseline regenerated on a 1-core box records ~1.0; a
        multi-core fresh run must still clear the absolute target."""
        baseline = baseline_payload()
        baseline["process_pool"].update(cpu_cores=1, speedup_2w=1.0)
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"].update(cpu_cores=4, speedup_2w=1.0)
        gate = check_trajectory(baseline, fresh)
        # expected = max(1.0 baseline, 1.5 target) -> floor 1.125 > 1.0
        assert any("process-pool" in f for f in gate.failures)
        fresh["process_pool"]["speedup_2w"] = 1.6
        assert check_trajectory(baseline, fresh).failures == []

    @pytest.mark.parametrize("tolerance", [0.1, 0.25])
    def test_tolerance_applies_to_gated_ratio(self, tolerance):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["speedup_2w"] = 1.8 * (1 - tolerance) + 0.01
        assert check_trajectory(baseline, fresh, tolerance).failures == []
        fresh["process_pool"]["speedup_2w"] = 1.8 * (1 - tolerance) - 0.01
        assert check_trajectory(baseline, fresh, tolerance).failures != []


class TestFourWorkerGate:
    def test_absent_on_both_sides_is_not_gated(self):
        baseline = baseline_payload()
        gate = check_trajectory(baseline, copy.deepcopy(baseline))
        assert not any("4 workers" in line for line in gate.lines)

    def test_gated_when_present_and_hardware_allows(self):
        baseline = baseline_payload()
        baseline["process_pool"].update(cpu_cores=4, workers_cap=4, speedup_4w=3.0)
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["speedup_4w"] = 1.5  # below 3.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("4 workers" in f for f in gate.failures)
        fresh["process_pool"]["speedup_4w"] = 2.8
        assert check_trajectory(baseline, fresh).failures == []

    def test_two_core_fresh_run_is_recorded_not_gated(self):
        """The 4-worker point needs 4 cores, not just the generic 2."""
        baseline = baseline_payload()
        baseline["process_pool"].update(cpu_cores=4, workers_cap=4, speedup_4w=3.0)
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"].update(cpu_cores=2, speedup_4w=0.9)
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        assert any(
            "4 workers" in line and "SKIPPED" in line for line in gate.lines
        )


class TestDeltaSyncGates:
    def test_patch_rate_below_the_absolute_floor_fails(self):
        """0.9 is an acceptance floor, not baseline-relative: tolerance
        must not let the patch pipeline degrade toward rebuilding."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["mutate_while_serving"]["csr"]["patch_rate"] = 0.85
        gate = check_trajectory(baseline, fresh)
        assert any("patch rate" in f for f in gate.failures)
        fresh["mutate_while_serving"]["csr"]["patch_rate"] = 0.92
        assert check_trajectory(baseline, fresh).failures == []

    def test_warm_hit_rate_regression_fails(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["mutate_while_serving"]["catchup"]["warm_hit_rate"] = 0.7
        gate = check_trajectory(baseline, fresh)
        assert any("warm-hit" in f for f in gate.failures)
        fresh["mutate_while_serving"]["catchup"]["warm_hit_rate"] = 0.8
        assert check_trajectory(baseline, fresh).failures == []

    def test_reship_ratio_regression_fails_and_is_not_core_aware(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["cpu_cores"] = 1  # byte gates ignore cores
        fresh["mutate_while_serving"]["catchup"]["reship_ratio"] = 2000.0
        gate = check_trajectory(baseline, fresh)
        assert any("reship ratio" in f for f in gate.failures)

    def test_low_baseline_cannot_water_down_the_5x_target(self):
        baseline = baseline_payload()
        baseline["mutate_while_serving"]["catchup"]["reship_ratio"] = 1.0
        fresh = copy.deepcopy(baseline)
        fresh["mutate_while_serving"]["catchup"]["reship_ratio"] = 3.0
        gate = check_trajectory(baseline, fresh)
        assert any("reship ratio" in f for f in gate.failures)
        fresh["mutate_while_serving"]["catchup"]["reship_ratio"] = 6.0
        assert check_trajectory(baseline, fresh).failures == []


class TestCompiledMatchGate:
    def test_regression_fails_even_on_single_core(self):
        """Pure single-core CPU ratio: never skipped, like typed-expansion."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["compiled_match"]["speedup"] = 5.0  # below 11.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("compiled-match speedup" in f for f in gate.failures)

    def test_low_baseline_cannot_water_down_the_2x_target(self):
        baseline = baseline_payload()
        baseline["compiled_match"]["speedup"] = 1.0
        fresh = copy.deepcopy(baseline)
        fresh["compiled_match"]["speedup"] = 1.2  # below 2.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("compiled-match speedup" in f for f in gate.failures)
        fresh["compiled_match"]["speedup"] = 2.1
        assert check_trajectory(baseline, fresh).failures == []

    def test_rewrite_batch_gated_independently(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["compiled_match"]["rewrite_batch"]["speedup"] = 1.0
        gate = check_trajectory(baseline, fresh)
        assert any("rewrite-batch" in f for f in gate.failures)


class TestPath1EstimatorGate:
    def test_regression_fails_even_on_single_core(self):
        """Pure single-core CPU ratio: never skipped."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["cpu_cores"] = 1
        fresh["path1_estimator"]["speedup"] = 1.9  # below 2.8 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("path(1) estimator speedup" in f for f in gate.failures)
        fresh["path1_estimator"]["speedup"] = 2.2
        assert check_trajectory(baseline, fresh).failures == []

    def test_low_baseline_cannot_water_down_the_2x_target(self):
        baseline = baseline_payload()
        baseline["path1_estimator"]["speedup"] = 0.99
        fresh = copy.deepcopy(baseline)
        fresh["path1_estimator"]["speedup"] = 1.2  # below 2.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("path(1) estimator speedup" in f for f in gate.failures)
        fresh["path1_estimator"]["speedup"] = 2.1
        assert check_trajectory(baseline, fresh).failures == []

    def test_count_divergence_fails_exactly(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["path1_estimator"]["counts_identical"] = 0.0
        gate = check_trajectory(baseline, fresh)
        assert any("path(1) estimator DIVERGED" in f for f in gate.failures)

    def test_section_missing_from_a_stale_baseline_is_drift(self):
        fresh = baseline_payload()
        baseline = copy.deepcopy(fresh)
        del baseline["path1_estimator"]
        gate = check_trajectory(baseline, fresh)
        assert len(gate.failures) == 1
        assert "'path1_estimator'" in gate.failures[0]


class TestInterpreterCoreGate:
    def test_regression_fails_even_on_single_core(self):
        """Pure single-core CPU ratio: never skipped."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["process_pool"]["cpu_cores"] = 1
        fresh["interpreter_core"]["speedup"] = 1.7  # below 2.4 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("interpreter core speedup" in f for f in gate.failures)
        fresh["interpreter_core"]["speedup"] = 1.9
        assert check_trajectory(baseline, fresh).failures == []

    def test_low_baseline_cannot_water_down_the_target(self):
        baseline = baseline_payload()
        baseline["interpreter_core"]["speedup"] = 0.9
        fresh = copy.deepcopy(baseline)
        fresh["interpreter_core"]["speedup"] = 1.1  # below 1.5 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("interpreter core speedup" in f for f in gate.failures)
        fresh["interpreter_core"]["speedup"] = 1.2
        assert check_trajectory(baseline, fresh).failures == []

    @pytest.mark.parametrize("what", ["counts", "steps"])
    def test_divergence_fails_exactly(self, what):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["interpreter_core"][f"{what}_identical"] = 0.0
        gate = check_trajectory(baseline, fresh)
        assert len(gate.failures) == 1
        assert f"{what}_identical is false" in gate.failures[0]

    def test_section_missing_from_a_stale_baseline_is_drift(self):
        fresh = baseline_payload()
        baseline = copy.deepcopy(fresh)
        del baseline["interpreter_core"]
        gate = check_trajectory(baseline, fresh)
        assert len(gate.failures) == 1
        assert "'interpreter_core'" in gate.failures[0]


class TestObservabilityGate:
    def test_below_the_absolute_floor_fails_even_on_single_core(self):
        """Tracing overhead is a pure single-core CPU ratio: the 0.9
        enabled/disabled throughput floor is never skipped."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["observability"]["enabled_ratio"] = 0.85
        gate = check_trajectory(baseline, fresh)
        assert any("tracing-enabled" in f for f in gate.failures)
        fresh["observability"]["enabled_ratio"] = 0.92
        assert check_trajectory(baseline, fresh).failures == []

    def test_low_baseline_cannot_water_down_the_floor(self):
        """0.9 is an acceptance floor: a slack committed baseline must
        not let tracing overhead creep past it within tolerance."""
        baseline = baseline_payload()
        baseline["observability"]["enabled_ratio"] = 0.5
        fresh = copy.deepcopy(baseline)
        fresh["observability"]["enabled_ratio"] = 0.88  # below the 0.9 floor
        gate = check_trajectory(baseline, fresh)
        assert any("tracing-enabled" in f for f in gate.failures)


class TestServerProtocolGate:
    def test_streamed_divergence_fails_exactly(self):
        """Bit-identity of streamed vs plain explains is deterministic:
        no tolerance, any fraction below 1.0 fails."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["server_protocol"]["streamed_identical"] = 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("DIVERGED" in f for f in gate.failures)

    def test_ttfc_degenerating_to_result_time_fails(self):
        """Streaming that delivers the first candidate only alongside the
        final frame (ratio -> 1.0) is a regression even within noise."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["server_protocol"]["open_loop"]["2"]["ttfc_ratio"] = 0.95
        gate = check_trajectory(baseline, fresh)
        assert any("ttfc ratio @2" in f for f in gate.failures)
        fresh["server_protocol"]["open_loop"]["2"]["ttfc_ratio"] = 0.7
        assert check_trajectory(baseline, fresh).failures == []

    def test_lucky_low_ttfc_baseline_is_floored(self):
        """A lucky 0.2 baseline draw must not make ordinary scheduling
        jitter (say 0.55) a failure: the baseline contributes >= 0.5."""
        baseline = baseline_payload()
        baseline["server_protocol"]["open_loop"]["2"]["ttfc_ratio"] = 0.2
        fresh = copy.deepcopy(baseline)
        fresh["server_protocol"]["open_loop"]["2"]["ttfc_ratio"] = 0.55
        assert check_trajectory(baseline, fresh).failures == []

    def test_detached_tail_fails_and_jitter_does_not(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        # tail baseline is floored at 5.0 -> ceiling 6.25: ordinary
        # jitter passes, a tail detached from the median fails
        fresh["server_protocol"]["open_loop"]["8"]["p99_over_p50"] = 4.0
        assert check_trajectory(baseline, fresh).failures == []
        fresh["server_protocol"]["open_loop"]["8"]["p99_over_p50"] = 8.0
        gate = check_trajectory(baseline, fresh)
        assert any("tail ratio @8" in f for f in gate.failures)

    def test_levels_gated_independently(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["server_protocol"]["open_loop"]["8"]["ttfc_ratio"] = 0.95
        gate = check_trajectory(baseline, fresh)
        assert any("ttfc ratio @8" in f for f in gate.failures)
        assert not any("ttfc ratio @2" in f for f in gate.failures)


class TestRestartWarmGate:
    def test_unmutated_below_the_absolute_floor_fails(self):
        """0.9 is an acceptance floor, not baseline-relative: a restart
        that comes back mostly cold fails even within tolerance."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["restart_warm"]["unmutated"]["warm_hit_rate"] = 0.85
        gate = check_trajectory(baseline, fresh)
        assert any("unmutated restart" in f for f in gate.failures)
        fresh["restart_warm"]["unmutated"]["warm_hit_rate"] = 0.95
        assert check_trajectory(baseline, fresh).failures == []

    def test_low_baseline_cannot_water_down_the_floor(self):
        baseline = baseline_payload()
        baseline["restart_warm"]["unmutated"]["warm_hit_rate"] = 0.5
        fresh = copy.deepcopy(baseline)
        fresh["restart_warm"]["unmutated"]["warm_hit_rate"] = 0.88
        gate = check_trajectory(baseline, fresh)
        assert any("unmutated restart" in f for f in gate.failures)

    def test_mutated_rate_is_baseline_relative_with_tolerance(self):
        """The delta-mutated rate is deliberately partial; it has no
        absolute floor, only the committed baseline within tolerance."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["restart_warm"]["mutated"]["warm_hit_rate"] = 0.8  # within 25%
        assert check_trajectory(baseline, fresh).failures == []
        fresh["restart_warm"]["mutated"]["warm_hit_rate"] = 0.5
        gate = check_trajectory(baseline, fresh)
        assert any("delta-mutated restart" in f for f in gate.failures)

    @pytest.mark.parametrize("variant", ["unmutated", "mutated"])
    def test_count_divergence_fails_exactly(self, variant):
        """Restored-vs-cold count identity is deterministic: any
        divergence is a wrong answer, never noise."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["restart_warm"][variant]["counts_identical"] = False
        gate = check_trajectory(baseline, fresh)
        assert any("DIVERGED" in f and variant in f for f in gate.failures)


class TestAffinePlacementGate:
    def test_payload_ratio_gated_even_on_single_core(self):
        """Payload bytes are deterministic: a 1-core fresh run skips the
        timing gates but must still clear the payload ratio."""
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        for section in ("process_pool", "affine_placement"):
            fresh[section]["cpu_cores"] = 1
        fresh["affine_placement"]["payload_ratio_4s"] = 1.2
        gate = check_trajectory(baseline, fresh)
        assert any("payload ratio" in f for f in gate.failures)

    def test_payload_ratio_regression_fails(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["affine_placement"]["payload_ratio_4s"] = 2.0  # below 3.5 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("payload ratio" in f for f in gate.failures)

    def test_low_baseline_cannot_water_down_the_2x_target(self):
        """Even if a committed baseline somehow recorded < 2x, the fresh
        run must clear the absolute acceptance target."""
        baseline = baseline_payload()
        baseline["affine_placement"]["payload_ratio_4s"] = 1.0
        fresh = copy.deepcopy(baseline)
        fresh["affine_placement"]["payload_ratio_4s"] = 1.2  # below 2.0 * 0.75
        gate = check_trajectory(baseline, fresh)
        assert any("payload ratio" in f for f in gate.failures)
        fresh["affine_placement"]["payload_ratio_4s"] = 2.1
        assert check_trajectory(baseline, fresh).failures == []

    def test_affine_speedup_is_core_aware(self):
        baseline = baseline_payload()
        fresh = copy.deepcopy(baseline)
        fresh["affine_placement"].update(cpu_cores=1, speedup_2s=0.7)
        gate = check_trajectory(baseline, fresh)
        assert gate.failures == []
        assert any(
            "affine-placement speedup" in line and "SKIPPED" in line
            for line in gate.lines
        )
        fresh["affine_placement"].update(cpu_cores=4)
        gate = check_trajectory(baseline, fresh)
        assert any("affine-placement speedup" in f for f in gate.failures)
