"""Performance model: statistical and parallel fits plus prediction chains."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalefit.config import JobConfig, PricingModel, SearchBounds, VMShape, run_cost_usd
from scalefit.errors import DegenerateFitError, ModelOutOfDomainError
from scalefit.perfmodel import (
    ParallelFit,
    PerfModel,
    Prediction,
    StatFit,
    average_over_workers,
    chain_columns,
    fit_epochs_vs_noise,
    fit_iteration_time,
    fit_iteration_time_best_effort,
    fit_noise_curve,
    fit_noise_vs_batch,
    predict,
    predict_columns,
)


class TestNoiseFit:
    def test_two_point_example(self):
        slope, intercept = fit_noise_vs_batch([(256, 3.0), (1024, 1.5)])
        assert slope == pytest.approx(48.0)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        fit = StatFit(slope, intercept, 1.0, 0.0)
        assert fit.predicted_noise(576) == pytest.approx(2.0)

    def test_two_point_exactness_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b1, b2 = rng.choice(np.arange(32, 4096), size=2, replace=False)
            g1, g2 = rng.uniform(0.2, 8.0, size=2)
            slope, intercept = fit_noise_vs_batch([(int(b1), g1), (int(b2), g2)])
            fit = StatFit(slope, intercept, 1.0, 0.0)
            assert fit.predicted_noise(int(b1)) == pytest.approx(g1, rel=1e-9)
            assert fit.predicted_noise(int(b2)) == pytest.approx(g2, rel=1e-9)

    def test_overdetermined_least_squares(self):
        xs = [64, 128, 256, 512, 1024]
        pts = [(b, 48.0 / math.sqrt(b) + 0.1) for b in xs]
        slope, intercept = fit_noise_vs_batch(pts)
        assert slope == pytest.approx(48.0, rel=1e-9)
        assert intercept == pytest.approx(0.1, rel=1e-9)

    def test_degenerate_single_batch(self):
        with pytest.raises(DegenerateFitError, match="no variation in global_batch"):
            fit_noise_vs_batch([(256, 3.0), (256, 3.1)])

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            fit_noise_vs_batch([])
        with pytest.raises(DegenerateFitError):
            fit_noise_vs_batch([(256, 3.0)])


class TestEpochsFit:
    def test_two_point_example(self):
        base, slope = fit_epochs_vs_noise([(2.0, 110.0), (4.0, 210.0)])
        assert base == pytest.approx(10.0)
        assert slope == pytest.approx(50.0)
        fit = StatFit(1.0, 0.0, base, slope)
        assert fit.predicted_epochs(3.0) == pytest.approx(160.0)

    def test_degenerate_identical_noise(self):
        with pytest.raises(DegenerateFitError, match="no variation in noise"):
            fit_epochs_vs_noise([(2.0, 110.0), (2.0, 111.0)])


class TestIterationTimeFit:
    def test_plane_recovery(self):
        # Timing samples generated from base 0.2, per-sample 0.001, per-worker 0.05.
        pts = [
            ((8, 64.0), 0.664),
            ((8, 128.0), 0.728),
            ((16, 64.0), 1.064),
        ]
        fit = fit_iteration_time(pts)
        assert fit.base_s == pytest.approx(0.2, abs=1e-12)
        assert fit.per_sample_s == pytest.approx(0.001, abs=1e-12)
        assert fit.per_worker_s == pytest.approx(0.05, abs=1e-12)

    def test_qualitative_corner_plane(self):
        pts = [
            ((8, 96.0), 1.45),
            ((12, 64.0), 1.55),
            ((16, 48.0), 1.64),
        ]
        # mini-batches 96, 64, 48 with rising worker count: per-worker cost
        # dominates, per-sample coefficient comes out slightly negative.
        fit = fit_iteration_time(pts)
        assert fit.base_s == pytest.approx(1.35, abs=1e-9)
        assert fit.per_sample_s == pytest.approx(-0.000625, abs=1e-9)
        assert fit.per_worker_s == pytest.approx(0.02, abs=1e-9)
        assert fit.per_worker_s > 0

    def test_collinear_configs_rejected(self):
        # mini_batch = 4 * workers on every sample: both axes vary but the
        # design plane is rank-deficient.
        pts = [
            ((8, 32.0), 0.5),
            ((12, 48.0), 0.6),
            ((16, 64.0), 0.7),
        ]
        with pytest.raises(DegenerateFitError, match="collinear"):
            fit_iteration_time(pts)

    def test_no_batch_variation_rejected(self):
        pts = [
            ((8, 64.0), 0.5),
            ((16, 64.0), 0.7),
            ((32, 64.0), 0.9),
        ]
        with pytest.raises(DegenerateFitError, match="mini_batch"):
            fit_iteration_time(pts)

    def test_no_worker_variation_rejected(self):
        pts = [
            ((8, 32.0), 0.5),
            ((8, 64.0), 0.6),
            ((8, 128.0), 0.7),
        ]
        with pytest.raises(DegenerateFitError, match="workers"):
            fit_iteration_time(pts)

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            fit_iteration_time([((8, 64.0), 0.5), ((16, 32.0), 0.7)])


class TestBestEffortFit:
    def test_full_rank_matches_strict(self):
        pts = [
            ((8, 64.0), 0.664),
            ((8, 128.0), 0.728),
            ((16, 64.0), 1.064),
        ]
        strict = fit_iteration_time(pts)
        loose = fit_iteration_time_best_effort(pts)
        assert loose.base_s == pytest.approx(strict.base_s)
        assert loose.per_sample_s == pytest.approx(strict.per_sample_s)
        assert loose.per_worker_s == pytest.approx(strict.per_worker_s)

    def test_single_worker_count_falls_back_to_batch_line(self):
        pts = [
            ((8, 32.0), 0.232),
            ((8, 64.0), 0.264),
        ]
        fit = fit_iteration_time_best_effort(pts)
        assert fit.per_worker_s == 0.0
        assert fit.per_sample_s == pytest.approx(0.001)
        assert fit.predicted_iteration_time(8, 32) == pytest.approx(0.232)
        assert fit.predicted_iteration_time(8, 64) == pytest.approx(0.264)

    def test_single_mini_batch_falls_back_to_worker_line(self):
        pts = [
            ((8, 64.0), 0.6),
            ((16, 64.0), 1.0),
        ]
        fit = fit_iteration_time_best_effort(pts)
        assert fit.per_worker_s == pytest.approx(0.05)
        assert fit.per_sample_s == 0.0
        assert fit.predicted_iteration_time(8, 64) == pytest.approx(0.6)

    def test_single_point_flat(self):
        fit = fit_iteration_time_best_effort([((8, 64.0), 0.75)])
        assert fit.base_s == pytest.approx(0.75)
        assert fit.per_sample_s == 0.0
        assert fit.per_worker_s == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_iteration_time_best_effort([])


class TestAverageOverWorkers:
    def test_unweighted_mean(self):
        fits = [(8, 40.0, 0.1), (16, 56.0, 0.3)]
        slope, intercept = average_over_workers(fits)
        assert slope == pytest.approx(48.0)
        assert intercept == pytest.approx(0.2)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateFitError):
            average_over_workers([])


class TestNoiseCurve:
    def test_averages_per_worker_fits(self):
        measured = {(4, 256): (3.0, 0.1), (4, 1024): (1.5, 0.1),
                    (8, 256): (4.0, 0.1), (8, 1024): (2.0, 0.1), (16, 512): (9.0, 0.1)}
        slope, intercept = fit_noise_curve(measured)
        assert slope == pytest.approx((48.0 + 64.0) / 2)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_pools_when_no_worker_count_varies_batch(self):
        measured = {(4, 256): (3.0, 0.1), (8, 1024): (1.5, 0.1)}
        assert fit_noise_curve(measured) == fit_noise_vs_batch([(256, 3.0), (1024, 1.5)])

    def test_single_batch_is_flat_mean(self):
        assert fit_noise_curve({(4, 256): (3.0, 0.1), (8, 256): (4.0, 0.1)}) == (0.0, 3.5)


def _bits(prediction) -> tuple[str, ...]:
    """Every field of a Prediction as an exact hex string."""
    return tuple(getattr(prediction, f.name).hex() for f in fields(prediction))


GRID = SearchBounds(k_min=1, k_max=12, b_min=1, b_max=600, k_step=1,
                    b_candidates=(1, 12, 36, 64, 96, 240, 360, 480, 600))


# Signed intercepts and a signed worker term put part of the grid out of
# domain for all three reasons (noise, epochs, iteration time).
models = st.builds(
    PerfModel,
    stat=st.builds(
        StatFit,
        noise_slope=st.floats(0.1, 100.0),
        noise_intercept=st.floats(-3.0, 2.0),
        epochs_base=st.floats(-20.0, 20.0),
        epochs_slope=st.floats(0.0, 60.0),
    ),
    parallel=st.builds(
        ParallelFit,
        base_s=st.floats(-0.5, 1.0),
        per_sample_s=st.floats(0.0, 0.05),
        per_worker_s=st.floats(-0.1, 0.1),
    ),
    dataset_size=st.integers(1, 5_000_000),
    fingerprint=st.just("hyp"),
    provenance=st.just("full_search"),
)
pricings = st.one_of(
    st.builds(PricingModel.flat, st.floats(0.0, 5.0)),
    st.builds(PricingModel.per_resource, st.floats(0.0, 0.1), st.floats(0.0, 0.02)),
)


# Coefficients up to +-1e300 overflow products to +-inf, and opposite
# infinities in the iteration time make NaN rows; moderate positive ones
# keep part of each grid in domain.
extreme = st.floats(-1e300, 1e300) | st.floats(1e-3, 1e3)
extreme_models = st.builds(
    PerfModel,
    stat=st.builds(StatFit, extreme, extreme, extreme, extreme),
    parallel=st.builds(ParallelFit, extreme, extreme, extreme),
    dataset_size=st.integers(1, 10**15),
    fingerprint=st.just("hyp"),
    provenance=st.just("full_search"),
)
extreme_pricings = st.one_of(
    st.builds(PricingModel.flat, st.floats(0.0, 1e300)),
    st.builds(PricingModel.per_resource, st.floats(0.0, 1e300), st.floats(0.0, 1e300)),
)


def _columns(configs: list[JobConfig]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([c.workers for c in configs], dtype=np.int64),
            np.array([c.global_batch for c in configs], dtype=np.int64))


def _predictions(grid) -> list[Prediction]:
    columns = (grid.normalized_noise, grid.epochs, grid.iterations, grid.iteration_time_s,
               grid.points.time_s, grid.points.cost_usd)
    return [Prediction(*row) for row in zip(*(c.tolist() for c in columns))]


class TestPredictGrid:
    @settings(max_examples=200)
    @given(
        model=models,
        pricing=pricings,
        picks=st.lists(st.integers(0, len(GRID.valid_configs()) - 1), max_size=40),
    )
    def test_matches_scalar_predict_bit_for_bit(self, model, pricing, picks):
        valid = GRID.valid_configs()
        configs = [valid[i] for i in picks]
        shape = VMShape(4, 16.0)
        grid = predict_columns(model, *_columns(configs), pricing, shape)
        points, predictions, skipped = grid.points.points(), _predictions(grid), grid.skipped
        want_points, want_predictions, want_skipped = [], [], []
        for config in configs:
            try:
                p = predict(model, config, pricing, shape)
            except ModelOutOfDomainError as exc:
                want_skipped.append((config, str(exc)))
                continue
            want_points.append(config)
            want_predictions.append(p)
        assert [pt.config for pt in points] == want_points
        assert [_bits(p) for p in predictions] == [_bits(p) for p in want_predictions]
        assert [(pt.time_s.hex(), pt.cost_usd.hex()) for pt in points] == [
            (p.total_time_s.hex(), p.cost_usd.hex()) for p in want_predictions
        ]
        assert skipped == want_skipped

    @settings(max_examples=300)
    @given(
        model=extreme_models,
        pricing=extreme_pricings,
        shape=st.builds(VMShape, st.integers(1, 64), st.floats(0.5, 1e300)),
        pairs=st.lists(
            st.tuples(st.integers(1, 2**20), st.integers(1, 2**28)), min_size=1, max_size=30
        ),
    )
    # per_sample_s * mini_batch overflows to +inf and per_worker_s * K to -inf,
    # so the iteration time is inf - inf = NaN.
    @example(
        model=PerfModel(StatFit(0.0, 1.0, 1.0, 0.0), ParallelFit(0.0, 1e300, -1e300),
                        1, "hyp", "full_search"),
        pricing=PricingModel.flat(1.0),
        shape=VMShape(4, 16.0),
        pairs=[(2**20, 2**28), (1, 1)],
    )
    def test_columns_match_scalar_predict_at_extreme_coefficients(
        self, model, pricing, shape, pairs
    ):
        workers = np.array([k for k, _ in pairs], dtype=np.int64)
        batch = np.array([k * m for k, m in pairs], dtype=np.int64)
        grid = predict_columns(model, workers, batch, pricing, shape)
        rows, want, want_skipped = [], [], []
        for i, (k, m) in enumerate(pairs):
            config = JobConfig(k, k * m)
            try:
                want.append(predict(model, config, pricing, shape))
                rows.append(i)
            except ModelOutOfDomainError as exc:
                want_skipped.append((config, str(exc)))
        assert grid.skipped == want_skipped
        got = zip(
            grid.normalized_noise.tolist(), grid.epochs.tolist(), grid.iterations.tolist(),
            grid.iteration_time_s.tolist(), grid.points.time_s.tolist(),
            grid.points.cost_usd.tolist(),
        )
        assert [tuple(v.hex() for v in row) for row in got] == [_bits(p) for p in want]
        assert grid.points.workers.tolist() == [pairs[i][0] for i in rows]
        assert grid.points.global_batch.tolist() == [batch[i] for i in rows]

    @settings(max_examples=200)
    @given(
        model=extreme_models,
        pricing=extreme_pricings,
        rows=st.lists(
            st.tuples(st.integers(1, 64), st.integers(1, 2**20),
                      extreme | st.sampled_from([0.0, math.nan]), extreme | st.just(0.0)),
            min_size=1, max_size=30,
        ),
    )
    def test_chain_on_given_noise_and_tau_matches_scalar_chain(self, model, pricing, rows):
        """Measured search points: the scalar recipe they used is the reference.

        The columns go in as tuples, as the search drivers pass them.
        """
        shape = VMShape(4, 16.0)
        columns = zip(*[(k, k * m, n, t) for k, m, n, t in rows])
        grid, bad = chain_columns(model, *columns, pricing, shape)
        want = []
        for k, m, n, t in rows:
            epochs = model.stat.predicted_epochs(n)
            total = epochs * model.dataset_size / (k * m) * t
            cost = run_cost_usd(pricing, shape, k, total)
            if n > 0 and epochs > 0 and t > 0 and 0 < total < math.inf and math.isfinite(cost):
                want.append((k, k * m, epochs.hex(), total.hex(), cost.hex()))
        got = zip(grid.points.workers.tolist(), grid.points.global_batch.tolist(),
                  grid.epochs.tolist(), grid.points.time_s.tolist(),
                  grid.points.cost_usd.tolist())
        assert [(k, b, e.hex(), t.hex(), c.hex()) for k, b, e, t, c in got] == want
        assert grid.skipped == [] and int(bad.sum()) == len(rows) - len(want)

    def test_fully_in_domain_model_skips_nothing(self, make_model):
        configs = GRID.valid_configs()
        grid = predict_columns(
            make_model(), *GRID.columns(), PricingModel.flat(0.13402), VMShape(4, 16.0)
        )
        assert grid.skipped == []
        assert [p.config for p in grid.points.points()] == configs
        assert len(grid.epochs) == len(configs)

    def test_partly_out_of_domain_model_reports_each_reason(self, make_model):
        model = make_model(noise_intercept=-2.0, epochs_base=-10.0, per_worker_s=-0.05)
        configs = GRID.valid_configs()
        grid = predict_columns(
            model, *GRID.columns(), PricingModel.flat(0.13402), VMShape(4, 16.0)
        )
        assert len(grid.points) and grid.skipped
        assert len(grid.points) + len(grid.skipped) == len(configs)
        reasons = " ".join(reason for _, reason in grid.skipped)
        for word in ("predicted noise", "predicted epochs", "predicted iteration time"):
            assert word in reasons


class TestFlags:
    def test_all_clear_on_reference_model(self, make_model):
        assert make_model().stat.flags == ()

    def test_negative_coefficients_flagged(self):
        fit = StatFit(-1.0, 0.0, -2.0, -3.0)
        assert set(fit.flags) == {
            "negative_noise_slope",
            "negative_epochs_slope",
            "negative_epochs_base",
        }


class TestPredict:
    def test_reference_chain(self, make_model):
        model = make_model()
        pricing = PricingModel.flat(0.13402)
        shape = VMShape(4, 16)
        pred = predict(model, JobConfig(8, 512), pricing, shape)
        assert pred.normalized_noise == pytest.approx(2.121320343559643, rel=1e-15)
        assert pred.epochs == pytest.approx(116.06601717798215, rel=1e-15)
        assert pred.iterations == pytest.approx(11334.571990037319, rel=1e-15)
        assert pred.iteration_time_s == pytest.approx(0.664, rel=1e-15)
        assert pred.total_time_s == pytest.approx(7526.15580138478, rel=1e-13)
        assert pred.cost_usd == pytest.approx(2.241456445559085, rel=1e-13)

    def test_internal_identities(self, make_model):
        model = make_model()
        pricing = PricingModel.flat(0.25)
        shape = VMShape(4, 16)
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = int(rng.integers(1, 33))
            b = k * int(rng.integers(1, 257))
            pred = predict(model, JobConfig(k, b), pricing, shape)
            assert pred.iterations == pytest.approx(
                pred.epochs * model.dataset_size / b, rel=1e-12
            )
            assert pred.total_time_s == pytest.approx(
                pred.iterations * pred.iteration_time_s, rel=1e-12
            )
            assert pred.cost_usd == pytest.approx(
                pred.total_time_s / 3600 * 0.25 * k, rel=1e-12
            )

    def test_epochs_decrease_as_batch_grows(self, make_model):
        model = make_model()
        pricing = PricingModel.flat(0.134)
        shape = VMShape(4, 16)
        batches = [256, 512, 1024, 2048, 4096]
        epochs = [
            predict(model, JobConfig(8, b), pricing, shape).epochs for b in batches
        ]
        assert epochs == sorted(epochs, reverse=True)

    def test_price_scaling_keeps_cheapest_config(self, make_model):
        model = make_model()
        shape = VMShape(4, 16)
        configs = [JobConfig(k, b) for k in (4, 8, 16) for b in (256, 512, 1024)]

        def cheapest(rate):
            pricing = PricingModel.flat(rate)
            costs = [predict(model, c, pricing, shape).cost_usd for c in configs]
            return configs[int(np.argmin(costs))]

        assert cheapest(0.134) == cheapest(134.0)

    def test_out_of_domain_errors(self):
        pricing = PricingModel.flat(0.1)
        shape = VMShape(4, 16)
        bad_noise = PerfModel(
            StatFit(-48.0, 0.0, 10.0, 50.0),
            ParallelFit(0.2, 0.001, 0.05),
            50000,
            "x",
            "full_search",
        )
        with pytest.raises(ModelOutOfDomainError, match="noise"):
            predict(bad_noise, JobConfig(8, 512), pricing, shape)

        bad_epochs = PerfModel(
            StatFit(48.0, 0.0, -500.0, 50.0),
            ParallelFit(0.2, 0.001, 0.05),
            50000,
            "x",
            "full_search",
        )
        with pytest.raises(ModelOutOfDomainError, match="epochs"):
            predict(bad_epochs, JobConfig(8, 512), pricing, shape)

        bad_time = PerfModel(
            StatFit(48.0, 0.0, 10.0, 50.0),
            ParallelFit(-5.0, 0.001, 0.05),
            50000,
            "x",
            "full_search",
        )
        with pytest.raises(ModelOutOfDomainError, match="iteration time"):
            predict(bad_time, JobConfig(8, 512), pricing, shape)

    def test_underflowed_or_overflowed_totals_are_out_of_domain(self, make_model):
        shape = VMShape(4, 16)
        tiny = make_model(base_s=5e-324, per_sample_s=0.0, per_worker_s=0.0,
                          epochs_base=1e-300, epochs_slope=0.0)
        with pytest.raises(ModelOutOfDomainError, match="total time 0 s"):
            predict(tiny, JobConfig(1, 1), PricingModel.flat(0.1), shape)
        with pytest.raises(ModelOutOfDomainError, match="total time inf s"):
            predict(make_model(epochs_base=1e305), JobConfig(1, 1), PricingModel.flat(0.1), shape)
        with pytest.raises(ModelOutOfDomainError, match="cost inf USD"):
            predict(make_model(), JobConfig(8, 512), PricingModel.flat(1e308), shape)
        grid = predict_columns(tiny, *_columns([JobConfig(1, 1)]), PricingModel.flat(0.1), shape)
        assert len(grid.points) == 0 and [c for c, _ in grid.skipped] == [JobConfig(1, 1)]


class TestValidation:
    def test_model_field_checks(self):
        stat = StatFit(48.0, 0.0, 10.0, 50.0)
        par = ParallelFit(0.2, 0.001, 0.05)
        with pytest.raises(ModelOutOfDomainError, match="dataset_size"):
            PerfModel(stat, par, 0, "x", "full_search")
        with pytest.raises(ModelOutOfDomainError, match="dataset_size is too large to be a float"):
            PerfModel(stat, par, 10**400, "x", "full_search")
        with pytest.raises(ModelOutOfDomainError, match="provenance"):
            PerfModel(stat, par, 50000, "x", "guesswork")
