"""Search drivers: full grid, anchor-and-corner, scaling, and model reuse."""

import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import scalefit.search as search_module
from scalefit.config import JobConfig, PricingModel, SearchBounds, VMShape, run_cost_usd
from scalefit.errors import (
    ConfigurationError,
    ModelNotFoundError,
    ModelOutOfDomainError,
    SearchFailedError,
    ordered_sum,
)
from scalefit.noise import EwmaConfig, NoiseTracker, SampleBatch
from scalefit.perfmodel import StatFit, predict, predict_columns
from scalefit.policy import Objective
from scalefit.search import (
    Exploration,
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
    compose_end_to_end,
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

    @pytest.mark.parametrize("build,message", [
        (lambda: RandomSampling(seed=-1), "seed must be >= 0, got -1"),
        (lambda: RandomSampling(seed=1, bspace=0), "bspace must be >= 1, got 0"),
        (lambda: RandomSampling(seed=1, kspace=10**30), f"kspace must be <= 1048576, got {10**30}"),
        (lambda: RandomSampling(seed=1, bspace=2**62), f"bspace must be <= 1048576, got {2**62}"),
        (lambda: SearchParams(profile_iters=10**400),
         f"profile_iters must be <= 2**62, got {10**400}"),
        (lambda: SearchParams(max_stabilize_iters=0), "max_stabilize_iters must be >= 1, got 0"),
    ], ids=["seed", "bspace", "kspace", "bspace_2**62", "profile_iters", "max_stabilize_iters"])
    def test_out_of_range_integer_names_the_field(self, build, message):
        with pytest.raises(ConfigurationError) as exc_info:
            build()
        assert str(exc_info.value) == message


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
            predicted = stat.epochs_base + stat.epochs_slope * stat.predicted_noise(b)
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
        outcome = online_scaling_search(
            env, GRID, SearchParams(mode="scaling"), Objective.min_cost_time()
        )
        assert outcome.mode == "scaling"
        assert outcome.chosen == JobConfig(16, 1024)
        oracle = oracle_best(env.workload, env.cluster, GRID, Objective.min_cost_time())
        assert outcome.chosen == oracle.chosen.config
        assert outcome.recommendation.feasible
        assert outcome.recommendation.chosen.config == outcome.chosen
        assert outcome.model.provenance == "scaling_search"
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
        outcome = online_scaling_search(
            env, bounds, SearchParams(mode="scaling"), Objective.min_cost_time()
        )
        assert outcome.chosen.workers == 8

    def test_single_batch_rejected(self):
        env = make_env()
        bounds = SearchBounds(k_min=8, k_max=16, b_min=512, b_max=512, k_step=8)
        with pytest.raises(SearchFailedError, match="2 distinct batch sizes"):
            online_scaling_search(
                env, bounds, SearchParams(mode="scaling"), Objective.min_cost_time()
            )

    def test_random_sampling_deterministic_and_in_bounds(self):
        params = SearchParams(mode="scaling", sampling=RandomSampling(seed=3))
        r1 = online_scaling_search(make_env(), GRID, params, Objective.min_cost_time())
        r2 = online_scaling_search(make_env(), GRID, params, Objective.min_cost_time())
        assert r1 == r2
        valid = {(c.workers, c.global_batch) for c in GRID.valid_configs()}
        for e in r1.explored:
            if e.kind != "skipped":
                assert (e.workers, e.global_batch) in valid

    def test_random_seeds_can_differ(self):
        outcomes = set()
        for seed in range(6):
            params = SearchParams(mode="scaling", sampling=RandomSampling(seed=seed))
            out = online_scaling_search(make_env(), GRID, params, Objective.min_cost_time())
            outcomes.add(tuple((e.workers, e.global_batch) for e in out.explored))
        assert len(outcomes) > 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_anchor_scenario_picks_the_oracle(self, seed):
        """Transformer-like, jitter 0.05, 127 s restores: the benchmark's search scenario."""
        s = scenario_from_document({
            "seed": seed,
            "workload": {"preset": "transformer-like", "jitter": 0.05},
            "cluster": {"pricing": {"flat_hourly_usd": 0.13402}, "restore_overhead_s": 127.0},
            "bounds": {"k_min": 16, "k_max": 64, "k_step": 16, "b_min": 1024, "b_max": 8192,
                       "b_candidates": [1024, 2048, 4096, 8192]},
            "search": {"mode": "scaling", "profile_iters": 20},
            "objective": {"kind": "min_cost_time"},
        })
        outcome = run_search(s)
        oracle = oracle_best(s.workload, s.cluster, s.bounds, s.objective)
        assert outcome.chosen == oracle.chosen.config == JobConfig(64, 8192)
        totals = compose_end_to_end(outcome, s.workload, s.cluster)
        assert totals.total_time_s / oracle.chosen.time_s - 1.0 <= 0.5


@pytest.mark.parametrize("driver", [full_search, partial_search, online_scaling_search])
def test_flat_measured_noise_pins_the_epochs_at_the_anchor_mean(monkeypatch, driver):
    # Every profile and anchor run measures the same noise, so the fitted
    # curve is flat and the epochs cannot depend on it.
    run_anchor = search_module._Session.run_anchor
    monkeypatch.setattr(search_module, "normalized_noises", lambda batch: [0.5] * len(batch))
    monkeypatch.setattr(search_module._Session, "run_anchor",
                        lambda session, config: (run_anchor(session, config)[0], 0.5))
    env = make_env()
    stat = driver(env, GRID, SearchParams(), Objective.min_cost_time()).model.stat
    mean = (env.workload.true_epochs(384) + env.workload.true_epochs(1024)) / 2
    assert stat == StatFit(0.0, 0.5, mean, 0.0)


@pytest.mark.parametrize("driver", [full_search, partial_search, online_scaling_search])
def test_pricing_and_shape_overrides_price_every_point_and_the_ledger(driver):
    pricing, shape = PricingModel.per_resource(0.05, 0.01), VMShape(8, 32.0)
    env = make_env()
    assert (pricing, shape) != (env.cluster.pricing, env.cluster.shape)
    outcome = driver(env, GRID, SearchParams(), Objective.min_cost_time(),
                     pricing=pricing, shape=shape)
    assert outcome.tradeoff_points
    for p in outcome.tradeoff_points:
        assert p.cost_usd == run_cost_usd(pricing, shape, p.config.workers, p.time_s)
    assert (outcome.overhead_time_s, outcome.overhead_cost_usd) == overhead_identity(
        outcome, pricing, shape
    )


# Each preset's grid, with batch sizes in powers of two.
PRESET_GRIDS = {
    "transformer-like": SearchBounds(k_min=16, k_max=64, k_step=16, b_min=1024, b_max=8192,
                                     b_candidates=(1024, 2048, 4096, 8192)),
    "resnet18-like": SearchBounds(k_min=1, k_max=16, b_min=64, b_max=2048,
                                  b_candidates=(64, 128, 256, 512, 1024, 2048)),
    "resnet50-like": SearchBounds(k_min=2, k_max=32, k_step=2, b_min=256, b_max=4096,
                                  b_candidates=(256, 512, 1024, 2048, 4096)),
}


@pytest.mark.parametrize("driver", [full_search, partial_search, online_scaling_search])
@pytest.mark.parametrize("preset", list(PRESET_GRIDS))
def test_noiseless_search_model_predicts_ground_truth(preset, driver):
    """Without jitter, every mode's fitted model reproduces T and C over its grid."""
    workload, cluster = preset_workload(preset, seed=1, jitter=0.0), preset_cluster(preset)
    bounds = PRESET_GRIDS[preset]
    model = driver(SimEnvironment(workload, cluster), bounds, SearchParams(),
                   Objective.min_cost_time()).model
    grid = predict_columns(model, *bounds.columns(), cluster.pricing, cluster.shape)
    truth = ground_truth_points(workload, cluster, bounds)
    assert grid.skipped == []
    assert [p.config for p in grid.points.points()] == [p.config for p in truth]
    for got, want in zip(grid.points.points(), truth):
        assert got.time_s == pytest.approx(want.time_s, rel=1e-9)
        assert got.cost_usd == pytest.approx(want.cost_usd, rel=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("preset", list(PRESET_GRIDS))
def test_the_anchor_worker_count_moves_no_draw(preset, seed, monkeypatch):
    # Partial search with both anchors on the smallest and on the largest
    # worker count valid at both anchor batches.  The draws do not depend on
    # K; the noise target carries a factor K that the per-row sum over the
    # workers rounds, so the fitted noise agrees to rounding only.
    init, outcomes = search_module._Session.__init__, []
    for pick in (min, max):
        def forced(session, *args, pick=pick):
            init(session, *args)
            _, ks_lo, _, ks_hi = session.extremes
            k = pick(set(ks_lo) & set(ks_hi))
            session.anchors = tuple(JobConfig(k, c.global_batch) for c in session.anchors)

        monkeypatch.setattr(search_module._Session, "__init__", forced)
        workload, cluster = preset_workload(preset, seed=seed, jitter=0.05), preset_cluster(preset)
        outcomes.append(partial_search(SimEnvironment(workload, cluster), PRESET_GRIDS[preset],
                                       SearchParams(), Objective.min_cost_time()))
    lo, hi = outcomes
    assert lo.explored[0].workers < hi.explored[0].workers
    assert [e.iterations for e in lo.explored] == [e.iterations for e in hi.explored]
    assert lo.chosen == hi.chosen
    assert lo.model.parallel == hi.model.parallel
    for f in fields(StatFit):
        assert getattr(lo.model.stat, f.name) == pytest.approx(getattr(hi.model.stat, f.name),
                                                               rel=1e-12, abs=0), f.name


def chunked_anchor(session, config):
    """The anchor loop with one ``stability_window`` chunk per ``profile`` call.

    The rows of the stopping chunk past the stop are given back.
    """
    tracker = NoiseTracker(config.workers, session.params.ewma)
    limit = session.params.max_stabilize_iters
    taus, stop = [], None
    while stop is None and len(taus) < limit:
        chunk = min(session.params.ewma.stability_window, limit - len(taus))
        batch = session.env.profile(config.workers, config.global_batch, chunk, session.cursor)
        stop = tracker.consume(batch)
        used = len(batch) if stop is None else stop + 1
        session.env.give_back(len(batch) - used)
        taus.extend(batch.iteration_time_s[:used].tolist())
        session.cursor += used
    if stop is None:
        raise SearchFailedError(
            f"noise did not stabilize within {limit} "
            f"iterations at K={config.workers}, B={config.global_batch}"
        )
    record = Exploration(config.workers, config.global_batch, "anchor", len(taus),
                         ordered_sum(taus) / len(taus), session.env.cluster.restore_overhead_s)
    return record, tracker.estimate.normalized


def anchor_runs(run, workload, cluster, bounds, params, configs):
    """Per config: (record, noise) or (error type, message), then the cursor; then the next draws."""
    session = search_module._Session(SimEnvironment(workload, cluster), bounds, params,
                                     None, None, "partial")
    results = []
    for config in configs:
        try:
            results.append(run(session, config))
        except (SearchFailedError, ModelOutOfDomainError) as exc:
            results.append((type(exc), str(exc)))
        results.append(session.cursor)
    return results, session.env.profile(1, 1, 7)


class TestAnchorBlocks:
    """``run_anchor`` draws several chunks per call and matches the chunk-by-chunk loop."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("preset", list(PRESET_GRIDS))
    @pytest.mark.parametrize("edge", [0, -1])
    def test_matches_one_chunk_per_call_on_each_grid(self, preset, seed, edge):
        # Both anchor batches at the grid's smallest and largest worker count.
        workload, cluster = preset_workload(preset, seed=seed, jitter=0.05), preset_cluster(preset)
        bounds = PRESET_GRIDS[preset]
        k = (bounds.k_min, bounds.k_max)[edge]
        b = sorted(bounds.b_candidates)
        configs = [JobConfig(k, b[0]), JobConfig(k, b[-1])]
        expected = anchor_runs(chunked_anchor, workload, cluster, bounds, SearchParams(), configs)
        assert all(isinstance(r[0], Exploration) for r in expected[0][::2])
        assert anchor_runs(search_module._Session.run_anchor, workload, cluster, bounds,
                           SearchParams(), configs) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("preset", list(PRESET_GRIDS))
    def test_equals_one_profile_call_over_the_rows_it_used(self, preset, seed):
        workload, cluster = preset_workload(preset, seed=seed, jitter=0.05), preset_cluster(preset)
        params = SearchParams()
        session = search_module._Session(SimEnvironment(workload, cluster), PRESET_GRIDS[preset],
                                         params, None, None, "partial")
        env = SimEnvironment(workload, cluster)
        cursor = 0
        for config in session.anchors:
            record, noise = session.run_anchor(config)
            batch = env.profile(config.workers, config.global_batch, record.iterations, cursor)
            tracker = NoiseTracker(config.workers, params.ewma)
            assert tracker.consume(batch) == len(batch) - 1
            assert tracker.estimate.normalized == noise
            taus = batch.iteration_time_s.tolist()
            assert record.mean_iteration_time_s == ordered_sum(taus) / len(taus)
            cursor += len(batch)
            assert session.cursor == cursor
        assert session.env.profile(1, 1, 7) == env.profile(1, 1, 7)

    # With seed 1 the first anchor stops at row 1644 with a window of 200,
    # and at row 2127 with a window of 300.
    @pytest.mark.parametrize("warmup,window,limit,tol,stops", [
        (1000, 200, 930, 0.02, False),  # the limit ends inside the warm-up
        (1000, 200, 1730, 0.02, True),  # the stop falls in the short last chunk
        (1000, 200, 1930, 0.02, True),  # the short last chunk's rows past the stop go back
        (350, 200, 1790, 0.02, True),
        (1000, 300, 2230, 0.02, True),
        (350, 200, 1130, 1e-9, False),
    ])
    def test_limits_that_are_not_whole_chunks(self, warmup, window, limit, tol, stops):
        params = SearchParams(max_stabilize_iters=limit, ewma=EwmaConfig(
            warmup_iters=warmup, stability_window=window, stability_rel_tol=tol))
        workload, cluster = preset_workload("resnet18-like", seed=1, jitter=0.05), preset_cluster(
            "resnet18-like")
        configs = [JobConfig(8, 1024), JobConfig(8, 384)]
        expected = anchor_runs(chunked_anchor, workload, cluster, GRID, params, configs)
        assert isinstance(expected[0][0][0], Exploration) == stops
        assert anchor_runs(search_module._Session.run_anchor, workload, cluster, GRID, params,
                           configs) == expected

    @pytest.mark.parametrize("seed,stops", [(52, True), (116, True), (1, False), (18, False)])
    def test_an_overflow_is_raised_only_where_the_loop_meets_it(self, seed, stops, monkeypatch):
        # Jitter above 3 sigma overflows the compute plane at b = 128, and
        # only there.  With seeds 52 and 116 the chunk-by-chunk loop stops,
        # and a multi-chunk call draws an overflowing row past the stop; with
        # 1 and 18 the loop meets one inside a multi-chunk call, and the
        # error names the first overflowing chunk.
        workload = replace(preset_workload("resnet18-like", seed=seed, jitter=0.05),
                           time_base_s=0.0, time_per_sample_s=sys.float_info.max / (128 * 1.15))
        cluster = preset_cluster("resnet18-like")
        configs = [JobConfig(8, 1024)]
        expected = anchor_runs(chunked_anchor, workload, cluster, GRID, SearchParams(), configs)
        assert isinstance(expected[0][0][0], Exploration) == stops
        profile, overflowed = SimEnvironment.profile, []

        def logged(env, workers, global_batch, iters, *args):
            try:
                return profile(env, workers, global_batch, iters, *args)
            except ModelOutOfDomainError:
                overflowed.append(iters)
                raise

        monkeypatch.setattr(SimEnvironment, "profile", logged)
        assert anchor_runs(search_module._Session.run_anchor, workload, cluster, GRID,
                           SearchParams(), configs) == expected
        assert max(overflowed) > SearchParams().ewma.stability_window

    def test_mean_time_adds_like_ordered_sum_with_signed_zeros(self, monkeypatch):
        profile = SimEnvironment.profile

        def negative_zero_times(env, *args, **kwargs):
            batch = profile(env, *args, **kwargs)
            zeros = np.full(len(batch), -0.0)
            return SampleBatch(batch.iteration, batch.worker_sqnorms, batch.agg_sqnorm, zeros, zeros)

        monkeypatch.setattr(SimEnvironment, "profile", negative_zero_times)
        workload, cluster = make_env(seed=1, jitter=0.05).workload, preset_cluster("resnet18-like")
        runs = [anchor_runs(run, workload, cluster, GRID, SearchParams(), [JobConfig(8, 384)])
                for run in (chunked_anchor, search_module._Session.run_anchor)]
        assert runs[0] == runs[1]
        assert [repr(r[0][0][0].mean_iteration_time_s) for r in runs] == ["0.0", "0.0"]


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

    @pytest.mark.parametrize("mode", ["full", "partial", "scaling", "none"])
    def test_every_mode_chooses_its_recommendation(self, tmp_path, mode):
        ModelStore(tmp_path).save(preset_workload("resnet18-like").to_perf_model())
        s = self.scenario(search={"mode": mode, "profile_iters": 5}, store_dir=str(tmp_path))
        outcome = run_search(s)
        assert outcome.mode == mode
        assert outcome.recommendation.feasible
        assert outcome.chosen == outcome.recommendation.chosen.config

    def test_mode_none_out_of_domain_everywhere_fails(self, tmp_path, make_model):
        ModelStore(tmp_path).save(make_model(noise_intercept=-5.0, fingerprint="resnet18-like"))
        s = self.scenario(search={"mode": "none"}, store_dir=str(tmp_path))
        with pytest.raises(SearchFailedError, match="no configuration produced a usable"):
            run_search(s)
