"""Synthetic profiling environment: exactness, determinism, presets."""

import math
import sys

import numpy as np
import pytest

from conftest import true_iteration_time
from scalefit.config import JobConfig, PricingModel, SearchBounds, VMShape
from scalefit.errors import ConfigurationError, ModelOutOfDomainError, SearchFailedError
from scalefit.noise import SampleBatch, compute_raw_noise
from scalefit.perfmodel import predict
from scalefit.policy import Objective
from scalefit.simulator import (
    PRESET_NAMES,
    EndToEnd,
    SimCluster,
    SimEnvironment,
    SimWorkload,
    compose_end_to_end,
    ground_truth,
    ground_truth_points,
    oracle_best,
    preset_cluster,
    preset_workload,
)


def small_workload(**overrides):
    defaults = dict(
        name="toy",
        dataset_size=50_000,
        noise_slope=48.0,
        noise_intercept=0.0,
        epochs_base=10.0,
        epochs_slope=50.0,
        time_base_s=0.2,
        time_per_sample_s=0.001,
        time_per_worker_s=0.05,
        ramp_iters=100.0,
        jitter=0.0,
        seed=0,
    )
    defaults.update(overrides)
    return SimWorkload(**defaults)


def flat_cluster(restore=37.0):
    return SimCluster(VMShape(4, 16.0), PricingModel.flat(0.13402), restore)


class TestWorkload:
    def test_true_value_formulas(self):
        w = small_workload()
        assert w.true_normalized_noise(576) == pytest.approx(2.0)
        assert w.true_epochs(576) == pytest.approx(110.0)
        assert true_iteration_time(w, 8, 64) == pytest.approx(0.664)

    def test_to_perf_model_is_ground_truth(self):
        model = small_workload().to_perf_model()
        assert model.provenance == "ground_truth"
        assert model.fingerprint == "toy"
        assert model.stat.noise_slope == 48.0
        assert model.parallel.per_worker_s == 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_workload(dataset_size=0)
        with pytest.raises(ConfigurationError):
            small_workload(ramp_iters=0.5)
        with pytest.raises(ConfigurationError):
            small_workload(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            SimCluster(VMShape(4, 16.0), PricingModel.flat(0.1), restore_overhead_s=-1)

    def test_dataset_size_past_the_float_range_rejected(self):
        small_workload(dataset_size=10**308)
        with pytest.raises(ConfigurationError, match="dataset_size must be >= 1 and fit in a float"):
            small_workload(dataset_size=10**400)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_name_the_field(self, value):
        with pytest.raises(ConfigurationError, match="ramp_iters must be finite and >= 1"):
            small_workload(ramp_iters=value)
        with pytest.raises(ConfigurationError, match="jitter must be finite and >= 0"):
            small_workload(jitter=value)
        with pytest.raises(ConfigurationError, match="restore_overhead_s must be finite and >= 0"):
            SimCluster(VMShape(4, 16.0), PricingModel.flat(0.1), restore_overhead_s=value)

    @pytest.mark.parametrize("field", ["noise_slope", "noise_intercept", "epochs_base",
                                       "epochs_slope", "time_base_s", "time_per_sample_s",
                                       "time_per_worker_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError) as exc_info:
            small_workload(**{field: value})
        assert str(exc_info.value) == f"{field} must be finite, got {value}"

    @pytest.mark.parametrize("field,value,message", [
        ("seed", -1, "seed must be >= 0, got -1"),
    ], ids=["negative_seed"])
    def test_integer_knobs_name_the_field(self, field, value, message):
        with pytest.raises(ConfigurationError) as exc_info:
            small_workload(**{field: value})
        assert str(exc_info.value) == message


class TestProfile:
    def test_saturated_noise_ratio_is_exact(self):
        # Deep into the ramp at zero jitter the raw ratio equals K * gamma-hat.
        w = small_workload()
        env = SimEnvironment(w, flat_cluster())
        samples = env.profile(8, 512, 10, start_iteration=5000)
        target = 8 * w.true_normalized_noise(512)
        for s in samples:
            assert compute_raw_noise(s) == pytest.approx(target, rel=1e-9)

    def test_iteration_times_match_plane_at_zero_jitter(self):
        w = small_workload()
        env = SimEnvironment(w, flat_cluster())
        for s in env.profile(8, 512, 5):
            assert s.iteration_time_s == pytest.approx(
                true_iteration_time(w, 8, 64), rel=1e-12
            )

    def test_first_iteration_has_zero_ramp(self):
        env = SimEnvironment(small_workload(), flat_cluster())
        s = env.profile(8, 512, 1, start_iteration=0)[0]
        assert compute_raw_noise(s) == 0.0

    def test_ramp_grows_monotonically_at_zero_jitter(self):
        env = SimEnvironment(small_workload(), flat_cluster())
        raws = [compute_raw_noise(s) for s in env.profile(4, 256, 50, 1)]
        assert raws == sorted(raws)

    def test_determinism_across_environments(self):
        w = small_workload(jitter=0.05, seed=42)
        s1 = SimEnvironment(w, flat_cluster()).profile(8, 512, 20)
        s2 = SimEnvironment(w, flat_cluster()).profile(8, 512, 20)
        assert s1 == s2

    def test_different_seeds_differ(self):
        a = SimEnvironment(small_workload(jitter=0.05, seed=1), flat_cluster())
        b = SimEnvironment(small_workload(jitter=0.05, seed=2), flat_cluster())
        assert a.profile(8, 512, 20) != b.profile(8, 512, 20)

    def test_profile_argument_validation(self):
        env = SimEnvironment(small_workload(), flat_cluster())
        with pytest.raises(ConfigurationError):
            env.profile(8, 512, 0)
        with pytest.raises(ConfigurationError):
            env.profile(8, 512, 5, start_iteration=-1)
        with pytest.raises(ConfigurationError, match="start_iteration"):
            env.profile(8, 512, 5, start_iteration=2**63)
        with pytest.raises(ConfigurationError):
            env.profile(8, 100, 5)  # indivisible batch

    @pytest.mark.parametrize("workers", [1, 3, 16])
    def test_draws_follow_the_documented_order(self, workers):
        # Three values per row: noise jitter, compute jitter, sync jitter;
        # every worker's squared norm is the row's target, and a second call
        # continues the same generator.
        w = small_workload(jitter=0.05, seed=7)
        env = SimEnvironment(w, flat_cluster())
        rng = np.random.default_rng(w.seed)
        for start in (0, 30):
            t = start + np.arange(30, dtype=float)
            noise_jit, compute_jit, sync_jit = (w.jitter * rng.standard_normal(3 * 30)
                                                .reshape(30, 3)).T
            ramp = 1.0 - np.array([math.exp(v) for v in (-t / w.ramp_iters).tolist()])
            gamma = workers * w.true_normalized_noise(96) * ramp
            gamma = np.clip(gamma * (1.0 + noise_jit), 0.0, None)
            expected = SampleBatch(
                t.astype(np.int64),
                np.repeat(gamma[:, None], workers, axis=1),
                np.ones(30),
                np.clip((w.time_base_s / 2.0 + w.time_per_sample_s * (96 // workers))
                        * (1.0 + compute_jit), 0.0, None),
                np.clip((w.time_base_s / 2.0 + w.time_per_worker_s * workers)
                        * (1.0 + sync_jit), 0.0, None),
            )
            assert env.profile(workers, 96, 30, start) == expected

    @pytest.mark.parametrize("workers", [1, 16, 64])
    @pytest.mark.parametrize("sizes", [(40, 40, 40), (40, 40, 40, 7), (1, 40, 1, 1, 5), (1,)])
    def test_any_split_of_calls_equals_one_call(self, workers, sizes):
        w = small_workload(jitter=0.05, seed=7)
        at_once, split = SimEnvironment(w, flat_cluster()), SimEnvironment(w, flat_cluster())
        batch = at_once.profile(workers, 6144, sum(sizes), 300)
        starts = 300 + np.cumsum((0, *sizes[:-1]))
        parts = [split.profile(workers, 6144, n, int(t)) for n, t in zip(sizes, starts)]
        for name in SampleBatch.__slots__:
            column = np.concatenate([getattr(part, name) for part in parts])
            assert getattr(batch, name).tobytes() == column.tobytes(), name
        assert at_once.profile(3, 96, 5) == split.profile(3, 96, 5)

    def test_calls_at_different_worker_counts_read_the_same_values(self):
        w = small_workload(jitter=0.05, seed=7)
        envs = [SimEnvironment(w, flat_cluster()) for _ in range(3)]
        for env, workers in zip(envs, (1, 16, 64)):
            env.profile(workers, 6144, 45, 10)
        nexts = [env.profile(2, 96, 9) for env in envs]
        assert nexts[0] == nexts[1] == nexts[2]

    @pytest.mark.parametrize("workers", [1, 16])
    def test_give_back_equals_never_drawing_the_rows(self, workers):
        w = small_workload(jitter=0.05, seed=3)
        env, fresh = SimEnvironment(w, flat_cluster()), SimEnvironment(w, flat_cluster())
        env.profile(workers, 1536, 207, 0)
        env.give_back(93)
        env.give_back(31)  # any number of the kept rows, again
        fresh.profile(workers, 1536, 83, 0)
        for args in ((workers, 1536, 3 * 40 + 7, 83), (2, 96, 11, 0)):
            assert env.profile(*args) == fresh.profile(*args)

    @pytest.mark.parametrize("workers", [1, 16])
    def test_given_back_draws_are_the_raw_draws(self, workers):
        # Synthesis must not write into the draw.
        env = SimEnvironment(small_workload(jitter=0.05), flat_cluster())
        first = env.profile(workers, 1536, 200, 0)
        env.give_back(200)
        assert env.profile(workers, 1536, 200, 0) == first

    def test_an_overflowing_call_can_give_its_draws_back(self):
        # b = B / K: 96 per worker overflows the compute plane, 6 does not.
        w = small_workload(jitter=0.05, time_per_sample_s=1e307)
        env, fresh = SimEnvironment(w, flat_cluster()), SimEnvironment(w, flat_cluster())
        with pytest.raises(ModelOutOfDomainError, match="overflow the synthesized compute_s"):
            env.profile(1, 96, 120, 0)
        env.give_back(120)
        assert env.profile(16, 96, 30) == fresh.profile(16, 96, 30)

    def test_give_back_takes_rows_of_the_previous_call(self):
        env = SimEnvironment(small_workload(), flat_cluster())
        with pytest.raises(ConfigurationError, match="rows must be <= 0, got 1"):
            env.give_back(1)  # nothing drawn yet
        env.profile(4, 96, 87, 0)
        for rows, match in ((-1, "rows must be >= 0"), (88, "rows must be <= 87")):
            with pytest.raises(ConfigurationError, match=match):
                env.give_back(rows)
        env.give_back(47)
        with pytest.raises(ConfigurationError, match="rows must be <= 40, got 41"):
            env.give_back(41)
        env.give_back(1)
        env.give_back(0)

    def test_epochs_query_is_worker_independent(self):
        assert small_workload().true_epochs(576) == pytest.approx(110.0)


class TestJitterRealism:
    def test_iteration_time_spread_band(self):
        # At 5% multiplicative jitter the relative std of iteration times over
        # a short profile should land near 0.05 * sqrt(c^2+s^2)/(c+s) — within
        # [0.03, 0.07] averaged over many seeds.
        w0 = preset_workload("resnet18-like")
        spreads = []
        for seed in range(100):
            w = preset_workload("resnet18-like", seed=seed, jitter=0.05)
            env = SimEnvironment(w, preset_cluster("resnet18-like"))
            times = [
                s.iteration_time_s for s in env.profile(8, 512, 20, start_iteration=4000)
            ]
            spreads.append(np.std(times, ddof=1) / np.mean(times))
        assert 0.03 <= float(np.mean(spreads)) <= 0.07
        assert w0.jitter == 0.0  # presets default to no jitter


class TestGroundTruth:
    def test_matches_prediction_chain(self):
        w = small_workload()
        cluster = flat_cluster()
        config = JobConfig(8, 512)
        p = ground_truth(w, cluster, config)
        expected = predict(w.to_perf_model(), config, cluster.pricing, cluster.shape)
        assert p == expected
        assert p.total_time_s == pytest.approx(7526.15580138478, rel=1e-12)

    def test_run_to_target_projects_prediction(self):
        class Outcome:
            chosen = JobConfig(8, 512)
            overhead_time_s = 100.0
            overhead_cost_usd = 1.0

        e = compose_end_to_end(Outcome(), small_workload(), flat_cluster())
        assert e.run_time_s == pytest.approx(7526.15580138478, rel=1e-12)
        assert e.run_cost_usd == pytest.approx(2.241456445559085, rel=1e-12)
        assert e.total_time_s == 100.0 + e.run_time_s

    def test_points_cover_valid_configs(self):
        w = small_workload()
        bounds = SearchBounds(
            k_min=8, k_max=20, b_min=1, b_max=2048, k_step=4,
            b_candidates=(384, 512, 768, 1024),
        )
        pts = ground_truth_points(w, flat_cluster(), bounds)
        assert len(pts) == 10
        assert [(p.config.workers, p.config.global_batch) for p in pts[:4]] == [
            (8, 384), (8, 512), (8, 768), (8, 1024),
        ]

    def test_oracle_best_on_acceptance_grid(self):
        w = small_workload()
        bounds = SearchBounds(
            k_min=8, k_max=20, b_min=1, b_max=2048, k_step=4,
            b_candidates=(384, 512, 768, 1024),
        )
        rec = oracle_best(w, flat_cluster(), bounds, Objective.min_cost_time())
        # The toy workload's epochs curve rewards large batches so strongly
        # that (8, 1024) is simultaneously the fastest and cheapest point.
        assert rec.chosen.config == JobConfig(8, 1024)
        assert rec.chosen.time_s == pytest.approx(3021.484375, rel=1e-12)
        assert rec.chosen.cost_usd == pytest.approx(0.8998651909722223, rel=1e-12)


class TestRestoreAndEndToEnd:
    def test_end_to_end_totals(self):
        e = EndToEnd(
            overhead_time_s=100.0,
            overhead_cost_usd=1.0,
            run_time_s=900.0,
            run_cost_usd=9.0,
        )
        assert e.total_time_s == 1000.0
        assert e.total_cost_usd == 10.0

    def test_compose_requires_chosen(self):
        class Outcome:
            chosen = None
            overhead_time_s = 0.0
            overhead_cost_usd = 0.0

        with pytest.raises(ConfigurationError, match="no chosen configuration"):
            compose_end_to_end(Outcome(), small_workload(), flat_cluster())

    def test_overflowing_total_is_rejected(self):
        class Outcome:
            chosen = JobConfig(8, 512)
            overhead_time_s = sys.float_info.max
            overhead_cost_usd = 0.0

        # Some 1e299 s of run time exceeds half a unit in the last place of the
        # largest float, so the sum overflows.
        workload = small_workload(dataset_size=10**300)
        with pytest.raises(SearchFailedError) as exc_info:
            compose_end_to_end(Outcome(), workload, flat_cluster())
        assert str(exc_info.value) == "total_time_s must be finite and >= 0, got inf"


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("resnet18-like", "resnet50-like", "transformer-like")

    def test_seed_and_jitter_overrides(self):
        w = preset_workload("resnet50-like", seed=7, jitter=0.02)
        assert w.seed == 7
        assert w.jitter == 0.02
        assert w.noise_slope == 60.0
        assert w.dataset_size == 1_300_000

    def test_unknown_preset(self):
        # One message from both lookups.
        messages = []
        for lookup in (preset_workload, preset_cluster):
            with pytest.raises(ConfigurationError) as exc_info:
                lookup("alexnet-like")
            messages.append(str(exc_info.value))
        assert messages == [f"unknown preset 'alexnet-like'; choose from {PRESET_NAMES}"] * 2

    def test_cluster_table(self):
        for name, restore in (
            ("resnet18-like", 37.0),
            ("resnet50-like", 40.0),
            ("transformer-like", 127.0),
        ):
            cluster = preset_cluster(name)
            assert cluster.restore_overhead_s == restore
            assert cluster.shape == VMShape(4, 16.0)
            assert cluster.pricing.flat_hourly_usd == 0.13402

    def test_ramp_saturation_near_declared_horizon(self):
        # Each preset's ramp should be ~98% saturated at its nominal horizon.
        horizons = {
            "resnet18-like": 2000,
            "resnet50-like": 3000,
            "transformer-like": 10000,
        }
        for name, t in horizons.items():
            w = preset_workload(name)
            ramp = 1.0 - math.exp(-t / w.ramp_iters)
            assert 0.97 <= ramp <= 0.995
