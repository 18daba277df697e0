"""Gradient-noise estimation: raw ratio, smoothing, stabilization."""

import numpy as np
import pytest

from scalefit.errors import ConfigurationError, DegenerateGradientError
from scalefit.noise import (
    EwmaConfig,
    IterationSample,
    NoiseEstimate,
    NoiseTracker,
    compute_raw_noise,
    is_stabilized,
    normalized_noises,
    window_relative_spread,
)
from scalefit.simulator import SimCluster, SimEnvironment, preset_cluster, preset_workload


def sample(norms, agg, t=0, compute=0.1, sync=0.1):
    return IterationSample(
        iteration=t,
        per_worker_grad_sqnorms=tuple(norms),
        aggregated_grad_sqnorm=agg,
        compute_time_s=compute,
        sync_time_s=sync,
    )


class TestRawNoise:
    def test_single_worker_is_one(self):
        assert compute_raw_noise(sample([4.0], 4.0)) == 1.0

    def test_identical_gradients_are_one(self):
        assert compute_raw_noise(sample([9.0, 9.0, 9.0, 9.0], 9.0)) == 1.0

    def test_orthogonal_gradients_reach_worker_count(self):
        # gradients (1,0) and (0,1): per-worker sqnorms 1 and 1, mean (0.5, 0.5)
        assert compute_raw_noise(sample([1.0, 1.0], 0.5)) == 2.0

    def test_zero_aggregate_is_degenerate(self):
        with pytest.raises(DegenerateGradientError):
            compute_raw_noise(sample([1.0, 1.0], 0.0))

    def test_normalized_noises_leave_out_zero_aggregates(self):
        samples = [sample([3.0, 3.0], 1.0), sample([1.0, 1.0], 0.0), sample([4.0, 2.0], 2.0)]
        assert normalized_noises(samples, 2) == [1.5, 0.75]
        assert normalized_noises(samples[1:2], 2) == []

    def test_sample_validation(self):
        with pytest.raises(ConfigurationError):
            sample([], 1.0)
        with pytest.raises(ConfigurationError):
            sample([-1.0], 1.0)
        with pytest.raises(ConfigurationError):
            sample([1.0], -1.0)
        with pytest.raises(ConfigurationError):
            IterationSample(-1, (1.0,), 1.0, 0.1, 0.1)
        with pytest.raises(ConfigurationError):
            IterationSample(0, (1.0,), 1.0, -0.1, 0.1)

    def test_iteration_time_is_compute_plus_sync(self):
        s = sample([1.0], 1.0, compute=0.4, sync=0.25)
        assert s.iteration_time_s == pytest.approx(0.65)


class TestEwma:
    def test_alpha_one_tracks_latest_raw(self):
        tracker = NoiseTracker(1, EwmaConfig(alpha=1.0))
        rng = np.random.default_rng(3)
        for t, raw in enumerate(rng.uniform(0.5, 4.0, size=50)):
            est = tracker.update(sample([float(raw)], 1.0, t=t))
            assert est.smoothed == pytest.approx(raw)

    def test_half_alpha_midpoint(self):
        tracker = NoiseTracker(1, EwmaConfig(alpha=0.5))
        tracker.update(sample([2.0], 1.0, t=0))
        est = tracker.update(sample([4.0], 1.0, t=1))
        assert est.smoothed == pytest.approx(3.0)

    def test_constant_stream_is_fixed_point(self):
        tracker = NoiseTracker(2, EwmaConfig(warmup_iters=10, stability_window=5))
        for t in range(20):
            est = tracker.update(sample([3.0, 3.0], 2.0, t=t))
            assert est.smoothed == pytest.approx(1.5)
        assert est.stabilized

    def test_first_sample_seeds_the_average(self):
        tracker = NoiseTracker(1)
        est = tracker.update(sample([7.0], 1.0))
        assert est.smoothed == 7.0

    def test_smoothed_stays_in_convex_hull_of_raws(self):
        rng = np.random.default_rng(11)
        for alpha in (0.05, 0.3, 0.9):
            tracker = NoiseTracker(1, EwmaConfig(alpha=alpha))
            raws = rng.uniform(0.1, 9.0, size=200)
            lo, hi = np.inf, -np.inf
            for t, raw in enumerate(raws):
                lo, hi = min(lo, raw), max(hi, raw)
                est = tracker.update(sample([float(raw)], 1.0, t=t))
                assert lo - 1e-12 <= est.smoothed <= hi + 1e-12

    def test_normalized_is_smoothed_over_workers(self):
        tracker = NoiseTracker(4)
        est = tracker.update(sample([2.0, 2.0, 2.0, 2.0], 1.0))
        assert est.normalized == est.smoothed / 4

    def test_window_capped_at_configured_length(self):
        tracker = NoiseTracker(1, EwmaConfig(stability_window=8))
        for t in range(30):
            est = tracker.update(sample([1.0], 1.0, t=t))
        assert len(est.recent_window) == 8


class TestTrackerEdgeCases:
    def test_worker_count_mismatch_rejected(self):
        tracker = NoiseTracker(2)
        with pytest.raises(ConfigurationError, match="expects 2"):
            tracker.update(sample([1.0], 1.0))

    def test_degenerate_sample_skipped_and_counted(self):
        tracker = NoiseTracker(1)
        tracker.update(sample([2.0], 1.0, t=0))
        before = tracker.estimate
        with pytest.raises(DegenerateGradientError):
            tracker.update(sample([2.0], 0.0, t=1))
        after = tracker.estimate
        assert after.skipped_samples == 1
        assert after.samples_seen == before.samples_seen
        assert after.smoothed == before.smoothed

    def test_invalid_tracker_and_config(self):
        with pytest.raises(ConfigurationError):
            NoiseTracker(0)
        with pytest.raises(ConfigurationError):
            EwmaConfig(alpha=0.0)
        with pytest.raises(ConfigurationError):
            EwmaConfig(alpha=1.5)
        with pytest.raises(ConfigurationError):
            EwmaConfig(warmup_iters=0)
        with pytest.raises(ConfigurationError):
            EwmaConfig(stability_window=1)
        with pytest.raises(ConfigurationError):
            EwmaConfig(stability_rel_tol=0.0)


class TestStabilization:
    def test_window_relative_spread_values(self):
        assert window_relative_spread(()) == 0.0
        assert window_relative_spread((3.0, 3.0, 3.0)) == 0.0
        assert window_relative_spread((1.0, 2.0)) == pytest.approx(0.5)
        assert window_relative_spread((0.0, 0.0)) == 0.0

    def test_warmup_gate(self):
        cfg = EwmaConfig(warmup_iters=100, stability_window=5)
        est = NoiseEstimate(
            smoothed=1.0,
            normalized=1.0,
            samples_seen=99,
            skipped_samples=0,
            stabilized=False,
            recent_window=(1.0,) * 5,
        )
        assert not is_stabilized(est, cfg)
        est_after = NoiseEstimate(
            smoothed=1.0,
            normalized=1.0,
            samples_seen=100,
            skipped_samples=0,
            stabilized=False,
            recent_window=(1.0,) * 5,
        )
        assert is_stabilized(est_after, cfg)

    def test_tolerance_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            window = tuple(rng.uniform(0.5, 2.0, size=20))
            est = NoiseEstimate(
                smoothed=window[-1],
                normalized=window[-1],
                samples_seen=1000,
                skipped_samples=0,
                stabilized=False,
                recent_window=window,
            )
            tight, loose = sorted(rng.uniform(0.001, 1.0, size=2))
            cfg_tight = EwmaConfig(stability_rel_tol=float(tight))
            cfg_loose = EwmaConfig(stability_rel_tol=float(loose))
            if is_stabilized(est, cfg_tight):
                assert is_stabilized(est, cfg_loose)

    def test_simulator_ramp_stabilizes_in_declared_interval(self):
        # Exponential noise ramp with a 500-iteration horizon, warmup 1000,
        # window 200, tolerance 0.01: stabilization must land in (1000, 5000].
        env = SimEnvironment(
            preset_workload("resnet18-like", seed=0), preset_cluster("resnet18-like")
        )
        cfg = EwmaConfig(
            alpha=0.01, warmup_iters=1000, stability_window=200, stability_rel_tol=0.01
        )
        tracker = NoiseTracker(8, cfg)
        t_star = None
        cursor = 0
        while cursor < 6000 and t_star is None:
            for s in env.profile(8, 512, 200, cursor):
                if tracker.update(s).stabilized:
                    t_star = tracker.estimate.samples_seen
                    break
            cursor += 200
        assert t_star is not None
        assert 1000 < t_star <= 5000
        assert t_star == 2067  # regression pin for the default simulator stream
