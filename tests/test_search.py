"""Search drivers: full grid, anchor-and-corner, scaling, and model reuse."""

import pytest

from scalefit.config import JobConfig, PricingModel, SearchBounds, VMShape, run_cost_usd
from scalefit.errors import (
    ConfigurationError,
    ModelNotFoundError,
    SearchFailedError,
)
from scalefit.perfmodel import predict
from scalefit.policy import Objective
from scalefit.search import (
    GridSampling,
    RandomSampling,
    SearchParams,
    full_search,
    no_search,
    online_scaling_search,
    partial_search,
    run_search,
)
from scalefit.scenario import scenario_from_document
from scalefit.simulator import (
    SimEnvironment,
    ground_truth_points,
    oracle_best,
    preset_cluster,
    preset_workload,
)
from scalefit.store import ModelStore

GRID = SearchBounds(
    k_min=8, k_max=20, b_min=1, b_max=2048, k_step=4,
    b_candidates=(384, 512, 768, 1024),
)


def make_env(seed=0, jitter=None):
    return SimEnvironment(
        preset_workload("resnet18-like", seed=seed, jitter=jitter),
        preset_cluster("resnet18-like"),
    )


def overhead_identity(outcome, pricing, shape):
    """Recompute the exploration ledger the way the contract states it."""
    total_t = 0.0
    total_c = 0.0
    for e in outcome.explored:
        if e.kind == "skipped":
            continue
        dt = e.restore_s + e.iterations * e.mean_iteration_time_s
        total_t += dt
        total_c += run_cost_usd(pricing, shape, e.workers, dt)
    return total_t, total_c


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SearchParams(mode="exhaustive")
        with pytest.raises(ConfigurationError):
            SearchParams(profile_iters=0)
        with pytest.raises(ConfigurationError):
            SearchParams(max_stabilize_iters=0)
        with pytest.raises(ConfigurationError):
            RandomSampling(seed=1, bspace=0)


class TestFullSearch:
    def test_acceptance_grid(self):
        env = make_env()
        outcome = full_search(env, GRID, SearchParams(mode="full"), Objective.min_cost_time())
        assert outcome.mode == "full"
        assert outcome.chosen == JobConfig(16, 1024)

        # Sixteen grid entries in row-major order; invalid pairs are recorded
        # as skipped, and the cold-start stabilization run is not listed.
        assert len(outcome.explored) == 16
        assert [(e.workers, e.global_batch) for e in outcome.explored] == GRID.grid()
        kinds = [e.kind for e in outcome.explored]
        assert kinds.count("profile") == 10
        assert kinds.count("skipped") == 6
        assert "anchor" not in kinds
        skipped = [
            (e.workers, e.global_batch)
            for e in outcome.explored
            if e.kind == "skipped"
        ]
        assert skipped == [(12, 512), (12, 1024), (20, 384), (20, 512), (20, 768), (20, 1024)]
        for e in outcome.explored:
            if e.kind == "profile":
                assert e.iterations == 20
                assert e.restore_s == 37.0
            else:
                assert e.iterations == 0 and e.elapsed_s() == 0.0

        assert len(outcome.tradeoff_points) == 10
        assert outcome.model.provenance == "full_search"
        assert outcome.model.fingerprint == "resnet18-like"
        assert outcome.recommendation.feasible

        t, c = overhead_identity(outcome, env.cluster.pricing, env.cluster.shape)
        assert outcome.overhead_time_s == t
        assert outcome.overhead_cost_usd == c

    def test_matches_oracle_on_noiseless_grid(self):
        env = make_env()
        outcome = full_search(env, GRID, SearchParams(mode="full"), Objective.min_cost_time())
        oracle = oracle_best(
            env.workload, env.cluster, GRID, Objective.min_cost_time()
        )
        assert outcome.chosen == oracle.chosen.config

    def test_singleton_grid(self):
        env = make_env()
        bounds = SearchBounds(k_min=8, k_max=8, b_min=512, b_max=512)
        outcome = full_search(
            env, bounds, SearchParams(mode="full"), Objective.min_cost_time()
        )
        assert outcome.chosen == JobConfig(8, 512)
        assert len(outcome.explored) == 1
        only = outcome.explored[0]
        assert only.kind == "profile"
        assert only.iterations == 20
        # tau(K=8, b=64) = 0.25 + 0.012*64 + 0.008*8 = 1.082
        assert only.mean_iteration_time_s == pytest.approx(1.082, rel=1e-12)
        assert outcome.overhead_time_s == pytest.approx(37.0 + 20 * 1.082, rel=1e-12)

    def test_all_invalid_bounds_rejected(self):
        env = make_env()
        bounds = SearchBounds(k_min=20, k_max=20, b_min=512, b_max=512)
        with pytest.raises(SearchFailedError, match="no valid"):
            full_search(env, bounds, SearchParams(mode="full"), Objective.min_cost_time())


class TestPartialSearch:
    def test_exploration_ledger_is_pinned(self):
        env = make_env()
        outcome = partial_search(env, GRID, SearchParams(), Objective.min_cost_time())
        assert outcome.mode == "partial"
        assert outcome.chosen == JobConfig(16, 1024)
        assert outcome.model.provenance == "partial_search"

        ledger = [
            (e.kind, e.workers, e.global_batch, e.iterations) for e in outcome.explored
        ]
        assert ledger == [
            ("anchor", 8, 384, 1730),
            ("anchor", 8, 1024, 1000),
            ("profile", 8, 384, 20),
            ("profile", 8, 1024, 20),
            ("profile", 16, 384, 20),
            ("profile", 16, 1024, 20),
        ]
        taus = [e.mean_iteration_time_s for e in outcome.explored]
        assert taus == pytest.approx([0.89, 1.85, 0.89, 1.85, 0.666, 1.146], rel=1e-9)

        t, c = overhead_identity(outcome, env.cluster.pricing, env.cluster.shape)
        assert outcome.overhead_time_s == t
        assert outcome.overhead_cost_usd == c

    def test_predictions_match_truth_when_noiseless(self):
        # Scale error in the anchor noise measurements cancels in the epoch
        # line, and the timing plane is exact at zero jitter, so predicted
        # run times agree with ground truth to float precision.
        env = make_env()
        outcome = partial_search(env, GRID, SearchParams(), Objective.min_cost_time())
        truth = {
            p.config: p for p in ground_truth_points(env.workload, env.cluster, GRID)
        }
        assert len(outcome.tradeoff_points) == 10
        for p in outcome.tradeoff_points:
            assert p.time_s == pytest.approx(truth[p.config].time_s, rel=1e-9)
            assert p.cost_usd == pytest.approx(truth[p.config].cost_usd, rel=1e-9)

    def test_epoch_line_passes_through_anchors(self):
        env = make_env()
        outcome = partial_search(env, GRID, SearchParams(), Objective.min_cost_time())
        stat = outcome.model.stat
        for b in (384, 1024):
            predicted = stat.predicted_epochs(stat.predicted_noise(b))
            assert predicted == pytest.approx(env.workload.true_epochs(b), rel=1e-12)

    def test_measured_noise_close_to_truth(self):
        env = make_env()
        outcome = partial_search(env, GRID, SearchParams(), Objective.min_cost_time())
        stat = outcome.model.stat
        for b in (384, 1024):
            assert stat.predicted_noise(b) == pytest.approx(
                env.workload.true_normalized_noise(b), rel=0.05
            )

    def test_needs_two_batches_and_two_worker_counts(self):
        env = make_env()
        one_b = SearchBounds(k_min=8, k_max=16, b_min=512, b_max=512, k_step=8)
        with pytest.raises(SearchFailedError, match="2 distinct batch sizes"):
            partial_search(env, one_b, SearchParams(), Objective.min_cost_time())
        one_k = SearchBounds(k_min=8, k_max=8, b_min=1, b_max=2048, b_candidates=(384, 1024))
        with pytest.raises(SearchFailedError, match="2 distinct worker counts"):
            partial_search(env, one_k, SearchParams(), Objective.min_cost_time())

    def test_stabilization_cap_enforced(self):
        env = make_env()
        params = SearchParams(max_stabilize_iters=500)
        with pytest.raises(SearchFailedError, match="did not stabilize within 500"):
            partial_search(env, GRID, params, Objective.min_cost_time())

    def test_deterministic_across_fresh_environments(self):
        r1 = partial_search(make_env(seed=5), GRID, SearchParams(), Objective.min_cost_time())
        r2 = partial_search(make_env(seed=5), GRID, SearchParams(), Objective.min_cost_time())
        assert r1 == r2


class TestScalingSearch:
    def test_grid_sampling_matches_oracle_when_noiseless(self):
        env = make_env()
        outcome = online_scaling_search(env, GRID, SearchParams(mode="scaling"))
        assert outcome.mode == "scaling"
        assert outcome.chosen == JobConfig(16, 1024)
        assert outcome.recommendation is None
        assert outcome.model.provenance == "partial_search"
        # Two anchors plus one timing profile per valid pair.
        kinds = [e.kind for e in outcome.explored]
        assert kinds.count("anchor") == 2
        assert kinds.count("profile") == 10
        t, c = overhead_identity(outcome, env.cluster.pricing, env.cluster.shape)
        assert outcome.overhead_time_s == t
        assert outcome.overhead_cost_usd == c

    def test_single_worker_count_is_allowed(self):
        env = make_env()
        bounds = SearchBounds(
            k_min=8, k_max=8, b_min=1, b_max=2048, b_candidates=(384, 512, 1024)
        )
        outcome = online_scaling_search(env, bounds, SearchParams(mode="scaling"))
        assert outcome.chosen.workers == 8

    def test_single_batch_rejected(self):
        env = make_env()
        bounds = SearchBounds(k_min=8, k_max=16, b_min=512, b_max=512, k_step=8)
        with pytest.raises(SearchFailedError, match="2 distinct batch sizes"):
            online_scaling_search(env, bounds, SearchParams(mode="scaling"))

    def test_random_sampling_deterministic_and_in_bounds(self):
        params = SearchParams(mode="scaling", sampling=RandomSampling(seed=3))
        r1 = online_scaling_search(make_env(), GRID, params)
        r2 = online_scaling_search(make_env(), GRID, params)
        assert r1 == r2
        valid = {(c.workers, c.global_batch) for c in GRID.valid_configs()}
        for e in r1.explored:
            if e.kind != "skipped":
                assert (e.workers, e.global_batch) in valid

    def test_random_seeds_can_differ(self):
        outcomes = set()
        for seed in range(6):
            params = SearchParams(mode="scaling", sampling=RandomSampling(seed=seed))
            out = online_scaling_search(make_env(), GRID, params)
            outcomes.add(tuple((e.workers, e.global_batch) for e in out.explored))
        assert len(outcomes) > 1


class TestNoSearch:
    def test_exact_hit_marks_reused(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        store.save(make_model(fingerprint="resnet18-like"))
        model = no_search(store, "resnet18-like")
        assert model.provenance == "reused"
        assert model.fingerprint == "resnet18-like"

    def test_miss_falls_back_to_universal(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        store.save(make_model(noise_slope=40, fingerprint="a"))
        store.save(make_model(noise_slope=56, fingerprint="b"))
        model = no_search(store, "new-workload", dataset_size=123_000)
        assert model.provenance == "universal"
        assert model.fingerprint == "new-workload"
        assert model.dataset_size == 123_000
        assert model.stat.noise_slope == pytest.approx(48.0)

    def test_miss_without_universal_raises(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        store.save(make_model(fingerprint="a"))
        with pytest.raises(ModelNotFoundError):
            no_search(store, "missing", dataset_size=1000, allow_universal=False)

    def test_universal_needs_dataset_size(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        store.save(make_model(fingerprint="a"))
        with pytest.raises(ConfigurationError, match="dataset_size"):
            no_search(store, "missing")

    def test_empty_store(self, tmp_path):
        store = ModelStore(tmp_path)
        with pytest.raises(ModelNotFoundError, match="store is empty"):
            no_search(store, "anything", dataset_size=1000)

    def test_reused_model_predicts(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        store.save(make_model())
        model = no_search(store, "example")
        p = predict(model, JobConfig(8, 512), PricingModel.flat(0.13402), VMShape(4, 16))
        assert p.total_time_s == pytest.approx(7526.15580138478, rel=1e-12)


class TestRunSearch:
    @staticmethod
    def scenario(**overrides):
        doc = {
            "workload": {"preset": "resnet18-like"},
            "cluster": {"pricing": {"flat_hourly_usd": 0.13402}},
            "bounds": {"k_min": 8, "k_max": 20, "k_step": 4, "b_min": 1, "b_max": 2048,
                       "b_candidates": [384, 512, 768, 1024]},
            "objective": {"kind": "min_cost_time"},
            **overrides,
        }
        return scenario_from_document(doc)

    def test_dispatches_partial_to_its_driver(self):
        s = self.scenario(search={"mode": "partial"})
        direct = partial_search(
            SimEnvironment(s.workload, s.cluster), s.bounds, s.params, s.objective,
            pricing=s.cluster.pricing, shape=s.cluster.shape, constraints=s.constraints,
        )
        assert run_search(s) == direct

    def test_mode_none_reuses_stored_model(self, tmp_path):
        ModelStore(tmp_path).save(preset_workload("resnet18-like").to_perf_model())
        outcome = run_search(self.scenario(search={"mode": "none"}, store_dir=str(tmp_path)))
        assert outcome.mode == "none"
        assert outcome.model.provenance == "reused"
        assert outcome.explored == ()
        assert (outcome.overhead_time_s, outcome.overhead_cost_usd) == (0.0, 0.0)
        assert outcome.chosen == JobConfig(16, 1024)

    def test_mode_none_out_of_domain_everywhere_fails(self, tmp_path, make_model):
        ModelStore(tmp_path).save(make_model(noise_intercept=-5.0, fingerprint="resnet18-like"))
        s = self.scenario(search={"mode": "none"}, store_dir=str(tmp_path))
        with pytest.raises(SearchFailedError, match="no configuration produced a usable"):
            run_search(s)
