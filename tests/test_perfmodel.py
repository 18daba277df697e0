"""Performance model: statistical and parallel fits plus prediction chains."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scalefit.config import (
    JobConfig,
    PricingModel,
    SearchBounds,
    VMShape,
    mini_batch,
    run_cost_usd,
)
from scalefit.errors import DegenerateFitError, ModelOutOfDomainError
from scalefit.perfmodel import (
    ParallelFit,
    PerfModel,
    Prediction,
    StatFit,
    _chain,
    _lstsq,
    average_over_workers,
    chain_columns,
    fit_epochs_vs_noise,
    fit_iteration_time,
    fit_iteration_time_best_effort,
    fit_noise_curve,
    fit_noise_vs_batch,
    fit_stat,
    predict,
    predict_columns,
)
from scalefit.store import write_model_file


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
        assert fit.epochs_base + fit.epochs_slope * 3.0 == pytest.approx(160.0)

    def test_degenerate_identical_noise(self):
        with pytest.raises(DegenerateFitError, match="no variation in noise"):
            fit_epochs_vs_noise([(2.0, 110.0), (2.0, 111.0)])


class TestIterationTimeFit:
    # At 1e-162 the mini-batches spread by about 1e-160: their squares are
    # subnormal, and the unscaled design looks rank-deficient.
    @pytest.mark.parametrize("unit", [1.0, 1e-162])
    def test_plane_recovery(self, unit):
        # Timing samples generated from base 0.2, per-sample 0.001 / unit,
        # per-worker 0.05, with mini-batches in multiples of ``unit``.
        pts = [
            ((8, 64.0 * unit), 0.664),
            ((8, 128.0 * unit), 0.728),
            ((16, 64.0 * unit), 1.064),
        ]
        fit = fit_iteration_time(pts)
        assert fit.base_s == pytest.approx(0.2, abs=1e-12)
        assert fit.per_sample_s * unit == pytest.approx(0.001, abs=1e-12)
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

    # Two points, or mini_batch = 4 * workers: both axes vary, but no plane
    # is determined.
    @pytest.mark.parametrize("pts,mean", [
        ([((8, 64.0), 0.75)], 0.75),
        ([((8, 64.0), 0.5), ((16, 32.0), 0.7)], 0.6),
        ([((8, 32.0), 0.5), ((12, 48.0), 0.6), ((16, 64.0), 0.7)], 0.6),
    ], ids=["single-point", "two-points", "collinear"])
    def test_flat_mean(self, pts, mean):
        fit = fit_iteration_time_best_effort(pts)
        assert fit.base_s == pytest.approx(mean)
        assert fit.per_sample_s == 0.0
        assert fit.per_worker_s == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_iteration_time_best_effort([])


def _reference_fit(columns: list[list[float]], y: list[float]):
    """(intercept, slopes, condition number) from ``np.linalg.lstsq`` on [1, columns].

    Each column is first divided by the power of two at its largest
    magnitude, which is exact, so the reference sees entries in (-1, 1].
    """
    x = np.array(columns, dtype=float)
    exps = np.frexp(np.abs(x).max(axis=1))[1]
    design = np.column_stack([np.ones(x.shape[1]), *np.ldexp(x, -exps[:, None])])
    coef = np.linalg.lstsq(design, np.array(y, dtype=float), rcond=None)[0]
    return coef[0], np.ldexp(coef[1:], -exps), np.linalg.cond(design)


def _assert_close_to_reference(intercept, slopes, columns, y, reference):
    ref_intercept, ref_slopes, _ = reference
    size = max(abs(v) for v in y)
    for slope, ref, col in zip(slopes, ref_slopes, columns):
        assert abs(slope - ref) * (max(col) - min(col)) <= 1e-9 * size
    reach = size + sum(abs(r) * max(abs(v) for v in c) for r, c in zip(ref_slopes, columns))
    assert abs(intercept - ref_intercept) <= 1e-9 * reach


multiples = st.integers(1, 20)
# Responses in steps of 1e-3: a subnormal response has no relative precision
# left, for the reference as for the fit.
responses = st.integers(-10**6, 10**6).map(lambda m: m / 1000)


class TestLeastSquaresReference:
    """The fits against ``np.linalg.lstsq`` on random well-posed designs.

    Well-posed: the reference design [1, columns], each column scaled by a
    power of two to (-1, 1], has condition number at most 1e3.  Tolerance:
    each slope times its column's spread agrees with the reference to 1e-9
    of the largest |y|, and the intercept to 1e-9 of the largest |y| plus
    each slope's largest term.  The solve's error grows with the square of
    that condition number times the float64 epsilon, about 2e-10 here.
    """

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_iteration_time_plane(self, data):
        """Mini-batch spreads run from 1e-150 to 1e150, worker spreads from 1 to 1e150."""
        n = data.draw(st.integers(3, 8))
        unit_b = 10.0 ** data.draw(st.integers(-150, 150))
        unit_k = 10 ** data.draw(st.integers(0, 150))
        bs = [m * unit_b for m in data.draw(st.lists(multiples, min_size=n, max_size=n))]
        ks = [m * unit_k for m in data.draw(st.lists(multiples, min_size=n, max_size=n))]
        taus = data.draw(st.lists(responses, min_size=n, max_size=n))
        reference = _reference_fit([bs, ks], taus)
        assume(reference[2] <= 1e3)
        fit = fit_iteration_time([((k, b), t) for b, k, t in zip(bs, ks, taus)])
        _assert_close_to_reference(fit.base_s, [fit.per_sample_s, fit.per_worker_s],
                                   [bs, ks], taus, reference)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_noise_line(self, data):
        """Batches up to 2e301, so ``B**-0.5`` spreads run from 1e-150 to 1."""
        unit = 10 ** data.draw(st.integers(0, 300))
        batches = [m * unit for m in data.draw(st.lists(multiples, min_size=2, max_size=8))]
        noise = data.draw(st.lists(responses, min_size=len(batches), max_size=len(batches)))
        x = [b**-0.5 for b in batches]
        reference = _reference_fit([x], noise)
        assume(reference[2] <= 1e3)
        slope, intercept = fit_noise_vs_batch(list(zip(batches, noise)))
        _assert_close_to_reference(intercept, [slope], [x], noise, reference)


def _sum_left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def _closed_form(columns: list[list[float]], y: list[float]):
    """``_lstsq`` written out in plain Python floats, every sum added left to right.

    Returns ``det / (g00 * g11)`` of two varying columns (else None) and the
    (intercept, slopes) fit, None where the determinant is within the
    collinearity tolerance.
    """
    n = len(y)
    ybar = _sum_left_to_right(y) / n
    vary = [i for i, c in enumerate(columns) if min(c) != max(c)]
    xbar = {i: _sum_left_to_right(columns[i]) / n for i in vary}
    scale = {i: max(abs(v - xbar[i]) for v in columns[i]) for i in vary}
    z = [[(v - xbar[i]) / scale[i] for v in columns[i]] for i in vary]
    r = [_sum_left_to_right(a * (b - ybar) for a, b in zip(zi, y)) for zi in z]
    g = [[_sum_left_to_right(a * b for a, b in zip(zi, zj)) for zj in z] for zi in z]
    ratio = None
    if len(z) == 2:
        det = g[0][0] * g[1][1] - g[0][1] * g[0][1]
        ratio = det / (g[0][0] * g[1][1])
        if det <= 16 * n * 2**-52 * g[0][0] * g[1][1]:
            return ratio, None
        solved = [(g[1][1] * r[0] - g[0][1] * r[1]) / det,
                  (g[0][0] * r[1] - g[0][1] * r[0]) / det]
    else:
        solved = [rk / g[0][0] for rk in r]
    slopes = [0.0] * len(columns)
    for i, s in zip(vary, solved):
        slopes[i] = s / scale[i]
    return ratio, (ybar - _sum_left_to_right(slopes[i] * xbar[i] for i in vary), slopes)


moderate = st.floats(-1e150, 1e150, allow_nan=False)


class TestClosedForm:
    """``_lstsq`` against its closed form in plain Python floats, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_plain_python_closed_form(self, data):
        n = data.draw(st.integers(1, 8))
        column = st.lists(moderate, min_size=n, max_size=n) | moderate.map(lambda v: [v] * n)
        columns = [data.draw(column) for _ in range(data.draw(st.integers(1, 2)))]
        y = data.draw(st.lists(moderate, min_size=n, max_size=n))
        _, want = _closed_form(columns, y)
        if want is None:
            with pytest.raises(DegenerateFitError, match="collinear"):
                _lstsq(columns, y)
        else:
            intercept, slopes = _lstsq(columns, y)
            assert [v.hex() for v in (intercept, *slopes)] == [v.hex() for v in (want[0], *want[1])]

    # Mini-batches 1..4 against workers 1..4 with the last bumped:
    # det / (g00 * g11) is about 0.06 * bump**2, against a tolerance of
    # 16 * 4 * 2**-52 = 1.42e-14 for four points.
    @pytest.mark.parametrize("bump,collinear", [(4.4e-7, True), (5.4e-7, False)])
    def test_collinearity_tolerance(self, bump, collinear):
        columns, taus = [[1.0, 2.0, 3.0, 4.0 + bump], [1.0, 2.0, 3.0, 4.0]], [0.5, 0.6, 0.8, 0.9]
        tol = 16 * 4 * 2**-52
        ratio, want = _closed_form(columns, taus)
        if collinear:
            assert 0.75 * tol < ratio < tol and want is None
            with pytest.raises(DegenerateFitError, match="collinear"):
                _lstsq(columns, taus)
        else:
            assert tol < ratio < 1.25 * tol
            assert _lstsq(columns, taus) == want

    def test_three_varying_columns_raise(self):
        with pytest.raises(ValueError, match="at most 2 predictor columns may vary, got 3"):
            _lstsq([[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0], [1.0, 1.0, 2.0, 3.0]],
                   [1.0, 2.0, 3.0, 4.0])


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
        measured = {(4, 256): 3.0, (4, 1024): 1.5, (8, 256): 4.0, (8, 1024): 2.0, (16, 512): 9.0}
        slope, intercept = fit_noise_curve(measured)
        assert slope == pytest.approx((48.0 + 64.0) / 2)
        assert intercept == pytest.approx(0.0, abs=1e-12)

    def test_pools_when_no_worker_count_varies_batch(self):
        measured = {(4, 256): 3.0, (8, 1024): 1.5}
        assert fit_noise_curve(measured) == fit_noise_vs_batch([(256, 3.0), (1024, 1.5)])

    def test_single_batch_is_flat_mean(self):
        assert fit_noise_curve({(4, 256): 3.0, (8, 256): 4.0}) == (0.0, 3.5)


class TestFitStat:
    def test_epochs_regressed_on_the_fitted_noise(self):
        noise = {(4, 256): 3.0, (4, 1024): 1.5, (8, 256): 4.0, (8, 1024): 2.0}
        anchors = [(256, 60.0), (1024, 40.0)]
        stat = fit_stat(noise, anchors)
        assert (stat.noise_slope, stat.noise_intercept) == fit_noise_curve(noise)
        fitted = [(stat.predicted_noise(b), e) for b, e in anchors]
        assert (stat.epochs_base, stat.epochs_slope) == fit_epochs_vs_noise(fitted)

    # The noise each caller hands over, flat across batch sizes: fit's and
    # full search's per-configuration means, and the two anchors' estimates.
    @pytest.mark.parametrize("noise", [
        {(4, 256): 2.0, (4, 1024): 2.0, (8, 256): 1.0, (8, 1024): 1.0, (8, 512): 1.0},
        {(4, 256): 2.0, (4, 1024): 2.0},
        {(4, 256): 2.0, (8, 1024): 2.0},
        {(4, 512): 2.0, (8, 512): 1.0},
    ], ids=["grid", "anchors-shared-workers", "anchors", "single-batch"])
    @pytest.mark.parametrize("anchors", [
        [(256, 30.0), (1024, 20.0)], [(256, 30.0), (1024, 20.0), (512, 40.0)], [(512, 25.0)],
    ], ids=["two", "three", "one"])
    def test_flat_curve_pins_the_anchor_mean(self, noise, anchors):
        stat = fit_stat(noise, anchors)
        assert stat.noise_slope == 0.0
        mean = sum(e for _, e in anchors) / len(anchors)
        assert (stat.epochs_base, stat.epochs_slope) == (mean, 0.0)

    def test_noise_of_order_1e_200_fits(self):
        # Centred, the fitted noise at the anchors squares to 0 unless scaled.
        stat = fit_stat({(4, 256): 3e-200, (4, 1024): 1.5e-200}, [(256, 60.0), (1024, 50.0)])
        assert stat.noise_slope == pytest.approx(4.8e-199, rel=1e-12)
        for b, epochs in [(256, 60.0), (1024, 50.0)]:
            noise = stat.predicted_noise(b)
            assert stat.epochs_base + stat.epochs_slope * noise == pytest.approx(epochs)

    def test_anchors_sharing_one_batch_on_a_sloped_curve_are_degenerate(self):
        with pytest.raises(DegenerateFitError, match="no variation in noise"):
            fit_stat({(4, 256): 3.0, (4, 1024): 1.5}, [(256, 60.0), (256, 50.0)])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_predicted_epochs_do_not_depend_on_the_noise_values(self, data):
        """Two noise maps over the same configurations predict the same epochs.

        Noise values lie in [-10, 10], negative ones included, and anchor
        epochs in [1, 1000].  Each fitted curve must be clearly sloped: across
        the anchor batches it varies by at least 1e-6, and by at least 1e-4 of
        its magnitude there, so its squares do not underflow and rounding in
        the fitted noise stays small next to its spread.  Epochs are compared
        at the anchors and at batches between them, to 1e-10 of the largest
        anchor epochs.
        """
        batch = st.integers(1, 4096)
        configs = data.draw(st.lists(
            st.tuples(st.integers(1, 16), batch), min_size=2, max_size=8, unique=True
        ).filter(lambda cs: len({b for _, b in cs}) >= 2))
        maps = [{c: data.draw(st.floats(-10.0, 10.0)) for c in configs} for _ in range(2)]
        anchors = data.draw(st.lists(
            st.tuples(batch, st.floats(1.0, 1000.0)), min_size=2, max_size=4
        ).filter(lambda a: len({b for b, _ in a}) >= 2))
        lo, hi = min(b for b, _ in anchors), max(b for b, _ in anchors)
        for noise in maps:
            slope, intercept = fit_noise_curve(noise)
            spread = abs(slope) * (lo**-0.5 - hi**-0.5)
            level = max(abs(slope * x + intercept) for x in (lo**-0.5, hi**-0.5))
            assume(spread >= max(1e-6, 1e-4 * level))
        fits = [fit_stat(noise, anchors) for noise in maps]
        queries = [b for b, _ in anchors] + data.draw(st.lists(st.integers(lo, hi), max_size=4))
        scale = max(e for _, e in anchors)
        for b in queries:
            e1, e2 = (f.epochs_base + f.epochs_slope * f.predicted_noise(b) for f in fits)
            assert abs(e1 - e2) <= 1e-10 * scale


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
        model=PerfModel(StatFit(0.0, 1.0, 1.0, 0.0), ParallelFit(0.0, 1e300, -1e305),
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
            epochs = model.stat.epochs_base + model.stat.epochs_slope * n
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


def _reference_predict(model, config, pricing, shape) -> Prediction:
    """The scalar chain ``predict`` ran before it became one row of ``predict_columns``.

    Its arithmetic, test order and messages, verbatim; the model methods it
    called are written out, in the same IEEE operations.
    """
    stat, par = model.stat, model.parallel
    noise = stat.noise_slope * config.global_batch**-0.5 + stat.noise_intercept
    if noise <= 0:
        raise ModelOutOfDomainError(
            f"predicted noise {noise:.6g} is not positive at B={config.global_batch}"
        )
    epochs = stat.epochs_base + stat.epochs_slope * noise
    if epochs <= 0:
        raise ModelOutOfDomainError(
            f"predicted epochs {epochs:.6g} is not positive at B={config.global_batch}"
        )
    iterations = epochs * model.dataset_size / config.global_batch
    tau = par.base_s + par.per_sample_s * mini_batch(config) + par.per_worker_s * config.workers
    if tau <= 0:
        raise ModelOutOfDomainError(
            f"predicted iteration time {tau:.6g} s is not positive at "
            f"K={config.workers}, B={config.global_batch}"
        )
    total_time = iterations * tau
    cost = run_cost_usd(pricing, shape, config.workers, total_time)
    # Positive factors can still underflow the product to 0 or overflow it.
    if not (math.isfinite(total_time) and total_time > 0):
        raise ModelOutOfDomainError(
            f"predicted total time {total_time:.6g} s is not finite and positive "
            f"at K={config.workers}, B={config.global_batch}"
        )
    if not math.isfinite(cost):
        raise ModelOutOfDomainError(
            f"predicted cost {cost:.6g} USD is not finite "
            f"at K={config.workers}, B={config.global_batch}"
        )
    return Prediction(
        normalized_noise=noise,
        epochs=epochs,
        iterations=iterations,
        iteration_time_s=tau,
        total_time_s=total_time,
        cost_usd=cost,
    )


def _assert_matches_reference(model, configs, pricing, shape) -> None:
    """``predict_columns`` over ``configs`` and ``predict`` on each, bit for bit the reference."""
    want = []  # each config's reference Prediction or message
    for config in configs:
        try:
            want.append(_reference_predict(model, config, pricing, shape))
        except ModelOutOfDomainError as exc:
            want.append(str(exc))
    kept = [(c, p) for c, p in zip(configs, want) if isinstance(p, Prediction)]
    grid = predict_columns(model, *_columns(configs), pricing, shape)
    assert list(zip(grid.points.workers.tolist(), grid.points.global_batch.tolist())) == [
        (c.workers, c.global_batch) for c, _ in kept
    ]
    assert [_bits(p) for p in _predictions(grid)] == [_bits(p) for _, p in kept]
    assert grid.skipped == [(c, m) for c, m in zip(configs, want) if isinstance(m, str)]
    for config, expected in zip(configs, want):
        try:
            got = _bits(predict(model, config, pricing, shape))
        except ModelOutOfDomainError as exc:
            got = str(exc)
        assert got == (expected if isinstance(expected, str) else _bits(expected))


class TestScalarReference:
    @settings(max_examples=200)
    @given(
        model=models,
        pricing=pricings,
        picks=st.lists(st.integers(0, len(GRID.valid_configs()) - 1), max_size=40),
    )
    def test_grid_models(self, model, pricing, picks):
        valid = GRID.valid_configs()
        _assert_matches_reference(model, [valid[i] for i in picks], pricing, VMShape(4, 16.0))

    @settings(max_examples=300)
    @given(
        model=extreme_models,
        pricing=extreme_pricings,
        shape=st.builds(VMShape, st.integers(1, 64), st.floats(0.5, 1e300)),
        pairs=st.lists(
            st.tuples(st.integers(1, 2**20), st.integers(1, 2**28)), min_size=1, max_size=30
        ),
    )
    def test_extreme_models(self, model, pricing, shape, pairs):
        _assert_matches_reference(model, [JobConfig(k, k * m) for k, m in pairs], pricing, shape)


# One model per domain test, each failing only that test at its configuration
# (flat price 0.13402 per VM-hour unless given), and the exact message.
REASON_CASES = {
    "noise": (dict(noise_slope=-48.0), (8, 512), None,
              "predicted noise -2.12132 is not positive at B=512"),
    "epochs": (dict(epochs_base=-500.0), (8, 512), None,
               "predicted epochs -393.934 is not positive at B=512"),
    "iteration-time": (dict(base_s=-5.0), (8, 512), None,
                       "predicted iteration time -4.536 s is not positive at K=8, B=512"),
    "total-time": (dict(base_s=5e-324, per_sample_s=0.0, per_worker_s=0.0,
                        epochs_base=1e-300, epochs_slope=0.0), (1, 1), None,
                   "predicted total time 0 s is not finite and positive at K=1, B=1"),
    "cost": (dict(), (8, 512), 1e308,
             "predicted cost inf USD is not finite at K=8, B=512"),
    # Every test but the total's fails: the first in order is reported.
    "several": (dict(noise_slope=-48.0, epochs_base=-500.0, base_s=-5.0), (8, 512), None,
                "predicted noise -2.12132 is not positive at B=512"),
    "epochs-and-tau": (dict(epochs_base=-500.0, base_s=-5.0), (8, 512), None,
                       "predicted epochs -393.934 is not positive at B=512"),
    # per_sample_s * mini_batch is +inf and per_worker_s * K is -inf: a NaN
    # iteration time passes ``tau <= 0`` and fails at the total.
    "nan-iteration-time": (
        dict(noise_slope=0.0, noise_intercept=1.0, epochs_base=1.0, epochs_slope=0.0,
             base_s=0.0, per_sample_s=1e300, per_worker_s=-1e305, dataset_size=1),
        (2**20, 2**48), None,
        "predicted total time nan s is not finite and positive at K=1048576, B=281474976710656",
    ),
}


class TestReasons:
    @pytest.mark.parametrize("case", list(REASON_CASES))
    def test_message_in_columns_scalar_and_cli(self, case, make_model, run_cli, tmp_path):
        coefficients, (k, b), price, message = REASON_CASES[case]
        model = make_model(**coefficients)
        pricing, shape = PricingModel.flat(price or 0.13402), VMShape(4, 16.0)
        config = JobConfig(k, b)
        grid = predict_columns(model, *_columns([config]), pricing, shape)
        assert grid.skipped == [(config, message)] and len(grid.points) == 0
        with pytest.raises(ModelOutOfDomainError) as exc_info:
            predict(model, config, pricing, shape)
        assert str(exc_info.value) == message
        path = tmp_path / "model.json"
        write_model_file(path, model)
        flags = ["--price-flat", repr(price)] if price else []
        code, out, err = run_cli("predict", "--model", str(path), f"{k}x{b}", *flags)
        assert (code, err) == (5, "")
        assert json.loads(out) == [{"workers": k, "global_batch": b, "error": message}]

    def test_cli_rows_keep_their_order(self, make_model, run_cli, tmp_path):
        # Invalid, out-of-domain and in-domain rows, in sorted (K, B) order.
        path = tmp_path / "model.json"
        write_model_file(path, make_model(base_s=-0.5))
        code, out, _ = run_cli("predict", "--model", str(path), "16x1024", "8x512", "7x512")
        rows = json.loads(out)
        assert code == 5 and [(r["workers"], r["global_batch"]) for r in rows] == [
            (7, 512), (8, 512), (16, 1024),
        ]
        assert rows[0]["error"] == "global_batch 512 is not divisible by workers 7"
        assert rows[1]["error"] == (
            "predicted iteration time -0.036 s is not positive at K=8, B=512"
        )
        assert "error" not in rows[2] and rows[2]["iteration_time_s"] > 0

    def test_nan_noise_is_reported_at_the_total(self, make_model):
        # The fitted laws never give NaN noise; a given noise column can.
        grid, bad = _chain(make_model(), [8], [512], [math.nan], [0.664],
                           PricingModel.flat(0.13402), VMShape(4, 16.0))
        assert bad.tolist() == [True] and grid.skipped == [(
            JobConfig(8, 512),
            "predicted total time nan s is not finite and positive at K=8, B=512",
        )]


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
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls,field", [(StatFit, f.name) for f in fields(StatFit)]
                             + [(ParallelFit, f.name) for f in fields(ParallelFit)])
    def test_non_finite_coefficient_names_the_field(self, cls, field, value):
        args = {f.name: 1.0 for f in fields(cls)}
        with pytest.raises(ModelOutOfDomainError) as exc_info:
            cls(**{**args, field: value})
        assert str(exc_info.value) == f"{field} must be finite, got {value}"

    def test_fits_past_the_float_range_are_rejected_quietly(self):
        # inf in the data turns the OLS arithmetic to NaN without a warning,
        # and the fit's dataclass names the coefficient.
        slope, intercept = fit_noise_vs_batch([(64, math.inf), (256, 1.0)])
        assert math.isnan(slope) and math.isnan(intercept)
        points = [((1, 1.0), 1e308), ((2, 1.0), 1e308), ((1, 2.0), math.inf)]
        with pytest.raises(ModelOutOfDomainError, match="^base_s must be finite, got nan$"):
            fit_iteration_time(points)

    def test_model_field_checks(self):
        stat = StatFit(48.0, 0.0, 10.0, 50.0)
        par = ParallelFit(0.2, 0.001, 0.05)
        with pytest.raises(ModelOutOfDomainError, match="dataset_size"):
            PerfModel(stat, par, 0, "x", "full_search")
        with pytest.raises(ModelOutOfDomainError, match="dataset_size is too large to be a float"):
            PerfModel(stat, par, 10**400, "x", "full_search")
        with pytest.raises(ModelOutOfDomainError, match="provenance"):
            PerfModel(stat, par, 50000, "x", "guesswork")
