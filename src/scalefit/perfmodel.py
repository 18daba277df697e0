"""Statistical-efficiency and parallel-performance model.

Three small regressions carry the whole prediction chain:

* normalized noise vs. global batch: ``noise = a * B**-0.5 + c``
* epochs-to-target vs. normalized noise: ``epochs = base + slope * noise``
* iteration time vs. (mini-batch, workers): ``tau = c0 + c_b * b + c_K * K``

Every fit goes through one least-squares kernel, :func:`_lstsq`: it centres
each predictor column, divides it by its largest deviation and solves the
normal equations of the one or two scaled columns in closed form, with every
sum added left to right, so no BLAS or LAPACK kernel reaches a coefficient.
A column that does not vary gets coefficient 0, and two columns whose Gram
determinant is zero up to rounding are collinear.  There is no iterative
optimizer anywhere, so two exact points reproduce a line and three
non-collinear points reproduce a plane to rounding.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .config import JobConfig, PricingModel, VMShape, vm_hourly_price
from .errors import DegenerateFitError, ModelOutOfDomainError, check, ordered_sum
from .tradeoff import PointColumns

PROVENANCES = ("full_search", "partial_search", "scaling_search", "trace_fit", "reused",
               "universal", "ground_truth")


def _check_finite(coefficients) -> None:
    for name, value in vars(coefficients).items():
        check(name, value, -math.inf, finite=True, error=ModelOutOfDomainError)


@dataclass(frozen=True)
class StatFit:
    """Coefficients of the two statistical-efficiency regressions, all finite."""

    noise_slope: float
    noise_intercept: float
    epochs_base: float
    epochs_slope: float

    def __post_init__(self) -> None:
        _check_finite(self)

    @property
    def flags(self) -> tuple[str, ...]:
        """Suspicious-but-not-fatal coefficient signs."""
        out = []
        if self.noise_slope < 0:
            out.append("negative_noise_slope")
        if self.epochs_slope < 0:
            out.append("negative_epochs_slope")
        if self.epochs_base < 0:
            out.append("negative_epochs_base")
        return tuple(out)

    def predicted_noise(self, global_batch: int) -> float:
        return self.noise_slope * global_batch**-0.5 + self.noise_intercept


@dataclass(frozen=True)
class ParallelFit:
    """Coefficients of the iteration-time plane, all finite."""

    base_s: float
    per_sample_s: float
    per_worker_s: float

    def __post_init__(self) -> None:
        _check_finite(self)

    def predicted_iteration_time(self, workers: int, mini_batch: float) -> float:
        return self.base_s + self.per_sample_s * mini_batch + self.per_worker_s * workers


@dataclass(frozen=True)
class PerfModel:
    """A complete fitted model for one workload."""

    stat: StatFit
    parallel: ParallelFit
    dataset_size: int
    fingerprint: str
    provenance: str

    def __post_init__(self) -> None:
        check("dataset_size", self.dataset_size, 1, error=ModelOutOfDomainError)
        if self.dataset_size > sys.float_info.max:
            raise ModelOutOfDomainError("dataset_size is too large to be a float")
        if self.provenance not in PROVENANCES:
            raise ModelOutOfDomainError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )


@dataclass(frozen=True)
class Prediction:
    """Full prediction chain output for one configuration."""

    normalized_noise: float
    epochs: float
    iterations: float
    iteration_time_s: float
    total_time_s: float
    cost_usd: float


def _lstsq(columns: Sequence[Sequence[float]], y: Sequence[float]) -> tuple[float, list[float]]:
    """Least-squares intercept and slopes of ``y`` on the predictor ``columns``.

    Each column is centred and divided by its largest deviation, so its
    entries lie in [-1, 1] whatever its spread, and spreads far below 1e-154
    square without underflow.  A column that does not vary gets slope 0.
    The normal equations are solved in closed form, every sum added left to
    right by :func:`ordered_sum`: one varying column is a division, two are
    Cramer's rule on their Gram matrix ``g``, more raise ``ValueError``.
    Two columns with ``g00*g11 - g01**2 <= 16 * n * 2**-52 * g00 * g11`` over
    ``n`` points (a determinant zero up to rounding) are collinear and raise
    :class:`DegenerateFitError`, worded for the timing plane.  Values past the
    float range give inf or NaN coefficients quietly; the dataclass rejects them.
    """
    x = np.array(columns, dtype=float)
    ys = np.asarray(y, dtype=float)
    n, slopes = len(ys), np.zeros(len(x))
    with np.errstate(all="ignore"):
        vary = np.flatnonzero(x.min(axis=1) != x.max(axis=1))  # NaN varies, so it reaches the fit
        if len(vary) > 2:
            raise ValueError(f"at most 2 predictor columns may vary, got {len(vary)}")
        xbar = [ordered_sum(x[i]) / n for i in vary]
        scale = [float(np.abs(x[i] - m).max()) for i, m in zip(vary, xbar)]
        z = [(x[i] - m) / s for i, m, s in zip(vary, xbar, scale)]
        ybar = ordered_sum(ys) / n
        r = [ordered_sum(zi * (ys - ybar)) for zi in z]
        g = [[ordered_sum(zi * zj) for zj in z] for zi in z]
        if len(z) == 2:
            (g00, g01), (_, g11) = g
            det = g00 * g11 - g01 * g01
            if det <= 16 * n * 2**-52 * g00 * g11:  # NaN is not <=, so it reaches the fit
                raise DegenerateFitError("timing points are collinear in the "
                                         "(mini_batch, workers) plane")
            r = [(g11 * r[0] - g01 * r[1]) / det, (g00 * r[1] - g01 * r[0]) / det]
        elif z:
            r = [r[0] / g[0][0]]
        slopes[vary] = np.divide(r, scale)
        return ybar - ordered_sum(slopes[vary] * xbar), slopes.tolist()


def fit_noise_vs_batch(points: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """Fit normalized noise against ``B**-0.5``.

    Args:
        points: (global_batch, normalized_noise) pairs, at least two
            distinct batch sizes.

    Returns:
        (slope, intercept) of the inverse-square-root line.
    """
    if len(points) < 2:
        raise DegenerateFitError("need at least 2 noise points")
    if len({b for b, _ in points}) < 2:
        raise DegenerateFitError("no variation in global_batch among noise points")
    intercept, (slope,) = _lstsq([[b**-0.5 for b, _ in points]], [g for _, g in points])
    return slope, intercept


def fit_epochs_vs_noise(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Fit epochs-to-target against normalized noise.

    Args:
        points: (normalized_noise, epochs) pairs, at least two distinct
            noise values.

    Returns:
        (base, slope): epochs predicted as ``base + slope * noise``.
    """
    if len(points) < 2:
        raise DegenerateFitError("need at least 2 epoch anchor points")
    noises = [g for g, _ in points]
    if len(set(noises)) < 2:
        raise DegenerateFitError("no variation in noise among epoch anchors")
    base, (slope,) = _lstsq([noises], [e for _, e in points])
    return base, slope


def fit_iteration_time(
    points: Sequence[tuple[tuple[int, float], float]],
) -> ParallelFit:
    """Fit the iteration-time plane from ((workers, mini_batch), tau) samples.

    Needs at least three samples that are not collinear in the
    (mini_batch, workers) plane; the error message names the missing
    variation axis.
    """
    if len(points) < 3:
        raise DegenerateFitError("need at least 3 iteration-time points")
    bs, ks, taus = zip(*[(float(b), float(k), t) for (k, b), t in points])
    if len(set(bs)) < 2:
        raise DegenerateFitError("no variation in mini_batch among timing points")
    if len(set(ks)) < 2:
        raise DegenerateFitError("no variation in workers among timing points")
    base, (per_sample, per_worker) = _lstsq([bs, ks], taus)
    return ParallelFit(base_s=base, per_sample_s=per_sample, per_worker_s=per_worker)


def fit_iteration_time_best_effort(
    points: Sequence[tuple[tuple[int, float], float]],
) -> ParallelFit:
    """Plane fit that degrades gracefully on rank-deficient profiling grids.

    An axis that does not vary gets coefficient 0, so the fit is a line
    along the axis that does vary, or a flat mean when nothing varies; when
    both axes vary but collinearly, it is the flat mean too.  Search drivers
    use this so a degenerate bounds box (a single batch size, say) still
    yields a usable model.
    """
    if not points:
        raise DegenerateFitError("need at least 1 iteration-time point")
    bs, ks, taus = zip(*[(float(b), float(k), t) for (k, b), t in points])
    try:
        base, (per_sample, per_worker) = _lstsq([bs, ks], taus)
    except DegenerateFitError:
        base, per_sample, per_worker = ordered_sum(taus) / len(taus), 0.0, 0.0
    return ParallelFit(base_s=base, per_sample_s=per_sample, per_worker_s=per_worker)


def average_over_workers(
    fits: Sequence[tuple[int, float, float]],
) -> tuple[float, float]:
    """Average per-worker-count noise fits into one curve.

    Args:
        fits: (workers, slope, intercept) triples from per-K noise fits.

    Returns:
        Unweighted mean (slope, intercept).
    """
    if len(fits) == 0:
        raise DegenerateFitError("no per-worker-count fits to average")
    slope = ordered_sum(f[1] for f in fits) / len(fits)
    intercept = ordered_sum(f[2] for f in fits) / len(fits)
    return slope, intercept


def fit_noise_curve(noise: Mapping[tuple[int, int], float]) -> tuple[float, float]:
    """Noise-vs-batch (slope, intercept) from (workers, global_batch) -> mean noise.

    Averages the per-worker-count fits of every worker count measured at two
    or more batch sizes; without any, fits all points pooled, which with a
    single batch size is a flat curve at the mean noise.
    """
    by_k: dict[int, list[tuple[int, float]]] = defaultdict(list)
    for (k, b), gamma in sorted(noise.items()):
        by_k[k].append((b, gamma))
    per_k = [
        (k, *fit_noise_vs_batch(pts))
        for k, pts in sorted(by_k.items())
        if len({b for b, _ in pts}) >= 2
    ]
    if per_k:
        return average_over_workers(per_k)
    pooled = sorted(noise.items())
    intercept, (slope,) = _lstsq([[b**-0.5 for (_, b), _ in pooled]], [g for _, g in pooled])
    return slope, intercept


def fit_stat(
    noise: Mapping[tuple[int, int], float],
    epoch_anchors: Sequence[tuple[int, float]],
) -> StatFit:
    """Both statistical laws: the noise curve, then epochs on its fitted noise.

    ``noise`` maps (workers, global_batch) to mean normalized noise, as
    :func:`fit_noise_curve` takes it.  ``epoch_anchors`` are (global_batch,
    epochs) pairs, regressed on the fitted noise at each anchor's batch; a
    flat curve pins the epochs at their mean.  On a sloped curve the
    predicted epochs at any batch then depend on the anchors alone, not on
    the measured noise.
    """
    slope, intercept = fit_noise_curve(noise)
    curve = StatFit(slope, intercept, 0.0, 1.0)
    fitted = [curve.predicted_noise(b) for b, _ in epoch_anchors]
    if slope != 0.0 and len(set(fitted)) < 2:
        raise DegenerateFitError("no variation in noise among epoch anchors")
    base, (epochs_slope,) = _lstsq([fitted], [e for _, e in epoch_anchors])
    return StatFit(slope, intercept, base, epochs_slope)


# The chain's domain tests, in the order they run: a dropped row's code is
# the index of the first it fails, and its message the entry at that index.
_REASONS = (
    "predicted noise {:.6g} is not positive at B={b}",
    "predicted epochs {:.6g} is not positive at B={b}",
    "predicted iteration time {:.6g} s is not positive at K={k}, B={b}",
    "predicted total time {:.6g} s is not finite and positive at K={k}, B={b}",
    "predicted cost {:.6g} USD is not finite at K={k}, B={b}",
)


def _reason(code: int, k: int, b: int, *values: float) -> str:
    """The message of row (k, b), from its code and its noise, epochs, tau, total and cost."""
    return _REASONS[code].format(values[code], k=k, b=b)


@dataclass(frozen=True)
class GridPrediction:
    """The prediction chain over many configurations, as columns.

    Every column holds the in-domain configurations, in input order.
    ``skipped`` lists (config, reason) for the rest, in input order, each
    with the message of the first domain test it fails.
    """

    points: PointColumns
    normalized_noise: np.ndarray
    epochs: np.ndarray
    iterations: np.ndarray
    iteration_time_s: np.ndarray
    skipped: list[tuple[JobConfig, str]]


def _chain(
    model: PerfModel,
    workers: Sequence[int] | np.ndarray,
    global_batch: Sequence[int] | np.ndarray,
    noise: Sequence[float] | np.ndarray,
    tau: Sequence[float] | np.ndarray,
    pricing: PricingModel,
    shape: VMShape,
) -> tuple[GridPrediction, np.ndarray]:
    """The one copy of the chain past noise and tau, and of its five domain tests.

    epochs -> iterations -> time -> cost, on columns taken as int64 and
    float64 arrays, each (workers, global_batch) row a valid
    :class:`JobConfig`.  Returns the in-domain rows, every other row in
    ``skipped``, and the mask of those other rows.  Codes and messages are
    worked out over the dropped rows only.
    """
    workers, global_batch = np.asarray(workers, np.int64), np.asarray(global_batch, np.int64)
    noise, tau = np.asarray(noise, float), np.asarray(tau, float)
    stat = model.stat
    with np.errstate(all="ignore"):
        epochs = stat.epochs_base + stat.epochs_slope * noise
        iterations = epochs * float(model.dataset_size) / global_batch
        total = iterations * tau
        cost = total / 3600.0 * (workers * vm_hourly_price(pricing, shape))
        # In _REASONS' order.  NaN passes the ``<= 0`` tests and fails at the
        # total, as does a product of positive factors that under- or overflows.
        failed = (noise <= 0, epochs <= 0, tau <= 0,
                  ~(np.isfinite(total) & (total > 0)), ~np.isfinite(cost))
    bad = failed[0] | failed[1] | failed[2] | failed[3] | failed[4]
    ok = ~bad
    rows = np.flatnonzero(bad)
    codes = np.argmax([f[rows] for f in failed], axis=0)  # every dropped row fails one
    values = (c[rows].tolist() for c in (workers, global_batch, noise, epochs, tau, total, cost))
    return GridPrediction(
        points=PointColumns(workers[ok], global_batch[ok], total[ok], cost[ok]),
        normalized_noise=noise[ok],
        epochs=epochs[ok],
        iterations=iterations[ok],
        iteration_time_s=tau[ok],
        skipped=[(JobConfig(k, b), _reason(code, k, b, *rest))
                 for code, k, b, *rest in zip(codes.tolist(), *values)],
    ), bad


def chain_columns(
    model: PerfModel,
    workers: Sequence[int] | np.ndarray,
    global_batch: Sequence[int] | np.ndarray,
    noise: Sequence[float] | np.ndarray,
    tau: Sequence[float] | np.ndarray,
    pricing: PricingModel,
    shape: VMShape,
) -> tuple[GridPrediction, np.ndarray]:
    """The chain from given noise and iteration-time columns: epochs -> iterations -> time -> cost.

    Search's measured rows take this path, and search drops the rows outside
    the chain's domain without a note.  Returns the in-domain rows, with no
    ``skipped`` entries, and the mask of the rest.
    """
    grid, bad = _chain(model, workers, global_batch, noise, tau, pricing, shape)
    return replace(grid, skipped=[]), bad


def predict_columns(
    model: PerfModel,
    workers: np.ndarray,
    global_batch: np.ndarray,
    pricing: PricingModel,
    shape: VMShape,
) -> GridPrediction:
    """The full chain on int64 (workers, global_batch) columns: noise -> ... -> cost.

    ``B**-0.5`` is taken in Python once per distinct batch (``np.power``
    rounds differently), so every row's value is the scalar arithmetic's, one
    IEEE operation at a time.  Out-of-domain rows go to ``skipped``.
    """
    stat, par = model.stat, model.parallel
    distinct, inverse = np.unique(global_batch, return_inverse=True)
    x = np.array([b**-0.5 for b in distinct.tolist()], dtype=float)[inverse]
    with np.errstate(all="ignore"):
        noise = stat.noise_slope * x + stat.noise_intercept
        tau = (par.base_s + par.per_sample_s * (global_batch // workers)) + (
            par.per_worker_s * workers
        )
    return _chain(model, workers, global_batch, noise, tau, pricing, shape)[0]


def predict(
    model: PerfModel,
    config: JobConfig,
    pricing: PricingModel,
    shape: VMShape,
) -> Prediction:
    """Run the full chain: noise -> epochs -> iterations -> time -> cost.

    :func:`predict_columns` on one row: raises :class:`ModelOutOfDomainError`
    with the row's reason, or returns its values.
    """
    grid = predict_columns(model, np.array([config.workers], np.int64),
                           np.array([config.global_batch], np.int64), pricing, shape)
    if grid.skipped:
        raise ModelOutOfDomainError(grid.skipped[0][1])
    return Prediction(*(float(c[0]) for c in (
        grid.normalized_noise, grid.epochs, grid.iterations, grid.iteration_time_s,
        grid.points.time_s, grid.points.cost_usd,
    )))
