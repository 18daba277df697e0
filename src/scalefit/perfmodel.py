"""Statistical-efficiency and parallel-performance model.

Three small regressions carry the whole prediction chain:

* normalized noise vs. global batch: ``noise = a * B**-0.5 + c``
* epochs-to-target vs. normalized noise: ``epochs = base + slope * noise``
* iteration time vs. (mini-batch, workers): ``tau = c0 + c_b * b + c_K * K``

All fits are solved in closed form through the normal equations; there is
no iterative optimizer anywhere, so two exact points reproduce a line
exactly and three non-collinear points reproduce a plane exactly.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import (
    JobConfig,
    PricingModel,
    VMShape,
    mini_batch,
    run_cost_usd,
    vm_hourly_price,
)
from .errors import DegenerateFitError, ModelOutOfDomainError
from .tradeoff import PointColumns

PROVENANCES = ("full_search", "partial_search", "reused", "universal", "ground_truth")


@dataclass(frozen=True)
class StatFit:
    """Coefficients of the two statistical-efficiency regressions."""

    noise_slope: float
    noise_intercept: float
    epochs_base: float
    epochs_slope: float

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

    def predicted_epochs(self, normalized_noise: float) -> float:
        return self.epochs_base + self.epochs_slope * normalized_noise


@dataclass(frozen=True)
class ParallelFit:
    """Coefficients of the iteration-time plane."""

    base_s: float
    per_sample_s: float
    per_worker_s: float

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
        if self.dataset_size < 1:
            raise ModelOutOfDomainError(
                f"dataset_size must be >= 1, got {self.dataset_size}"
            )
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


def _ols_line(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept via the centered normal equations."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    xbar = xs.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateFitError("all predictor values are identical")
    sxy = float(((xs - xbar) * (ys - ys.mean())).sum())
    slope = sxy / sxx
    intercept = float(ys.mean() - slope * xbar)
    return slope, intercept


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
    batches = [b for b, _ in points]
    if len(set(batches)) < 2:
        raise DegenerateFitError("no variation in global_batch among noise points")
    x = [b**-0.5 for b in batches]
    y = [g for _, g in points]
    return _ols_line(x, y)


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
    slope, intercept = _ols_line(noises, [e for _, e in points])
    return intercept, slope


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
    ks = np.array([k for (k, _), _ in points], dtype=float)
    bs = np.array([b for (_, b), _ in points], dtype=float)
    taus = np.array([t for _, t in points], dtype=float)
    if len(set(bs.tolist())) < 2:
        raise DegenerateFitError("no variation in mini_batch among timing points")
    if len(set(ks.tolist())) < 2:
        raise DegenerateFitError("no variation in workers among timing points")
    design = np.column_stack([np.ones_like(bs), bs, ks])
    if np.linalg.matrix_rank(design) < 3:
        raise DegenerateFitError(
            "timing points are collinear in the (mini_batch, workers) plane"
        )
    coef = np.linalg.solve(design.T @ design, design.T @ taus)
    return ParallelFit(
        base_s=float(coef[0]), per_sample_s=float(coef[1]), per_worker_s=float(coef[2])
    )


def fit_iteration_time_best_effort(
    points: Sequence[tuple[tuple[int, float], float]],
) -> ParallelFit:
    """Plane fit that degrades gracefully on rank-deficient profiling grids.

    Falls back to a line along whichever axis does vary, or to a flat mean
    when nothing varies.  Search drivers use this so a degenerate bounds
    box (a single batch size, say) still yields a usable model.
    """
    try:
        return fit_iteration_time(points)
    except DegenerateFitError:
        pass
    if not points:
        raise DegenerateFitError("need at least 1 iteration-time point")
    ks = [float(k) for (k, _), _ in points]
    bs = [float(b) for (_, b), _ in points]
    taus = [t for _, t in points]
    if len(set(bs)) >= 2 and len(set(ks)) < 2:
        slope, intercept = _ols_line(bs, taus)
        return ParallelFit(base_s=intercept, per_sample_s=slope, per_worker_s=0.0)
    if len(set(ks)) >= 2 and len(set(bs)) < 2:
        slope, intercept = _ols_line(ks, taus)
        return ParallelFit(base_s=intercept, per_sample_s=0.0, per_worker_s=slope)
    mean_tau = sum(taus) / len(taus)
    return ParallelFit(base_s=mean_tau, per_sample_s=0.0, per_worker_s=0.0)


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
    slope = sum(f[1] for f in fits) / len(fits)
    intercept = sum(f[2] for f in fits) / len(fits)
    return slope, intercept


def fit_noise_curve(
    measured: Mapping[tuple[int, int], tuple[float, float]],
) -> tuple[float, float]:
    """Noise-vs-batch (slope, intercept) from per-configuration measurements.

    Args:
        measured: (workers, global_batch) -> (mean normalized noise, mean
            iteration time); only the noise is used.

    Averages the per-worker-count fits of every worker count measured at two
    or more batch sizes; without any, fits all points pooled, and with a
    single batch size returns a flat curve at the mean noise.
    """
    by_k: dict[int, list[tuple[int, float]]] = defaultdict(list)
    for (k, b), (noise, _) in sorted(measured.items()):
        by_k[k].append((b, noise))
    per_k = [
        (k, *fit_noise_vs_batch(pts))
        for k, pts in sorted(by_k.items())
        if len({b for b, _ in pts}) >= 2
    ]
    if per_k:
        return average_over_workers(per_k)
    pooled = [(b, noise) for (_, b), (noise, _) in sorted(measured.items())]
    if len({b for b, _ in pooled}) >= 2:
        return fit_noise_vs_batch(pooled)
    return 0.0, sum(n for _, n in pooled) / len(pooled)


def predict(
    model: PerfModel,
    config: JobConfig,
    pricing: PricingModel,
    shape: VMShape,
) -> Prediction:
    """Run the full chain: noise -> epochs -> iterations -> time -> cost."""
    noise = model.stat.predicted_noise(config.global_batch)
    if noise <= 0:
        raise ModelOutOfDomainError(
            f"predicted noise {noise:.6g} is not positive at B={config.global_batch}"
        )
    epochs = model.stat.predicted_epochs(noise)
    if epochs <= 0:
        raise ModelOutOfDomainError(
            f"predicted epochs {epochs:.6g} is not positive at B={config.global_batch}"
        )
    iterations = epochs * model.dataset_size / config.global_batch
    tau = model.parallel.predicted_iteration_time(config.workers, mini_batch(config))
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


@dataclass(frozen=True)
class GridPrediction:
    """:func:`predict` over many configurations, as columns.

    Every column holds the in-domain configurations, in input order.
    ``skipped`` lists (config, reason) for the rest, in input order, with
    :func:`predict`'s message.
    """

    points: PointColumns
    normalized_noise: np.ndarray
    epochs: np.ndarray
    iterations: np.ndarray
    iteration_time_s: np.ndarray
    skipped: list[tuple[JobConfig, str]]


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

    The one copy of :func:`predict`'s arithmetic past noise and tau, in its
    order of IEEE operations, on columns taken as int64 and float64 arrays.
    Returns the in-domain rows, with no ``skipped`` entries, and the mask of
    the rows outside :func:`predict`'s domain.
    """
    workers, global_batch = np.asarray(workers, np.int64), np.asarray(global_batch, np.int64)
    noise, tau = np.asarray(noise, float), np.asarray(tau, float)
    stat = model.stat
    with np.errstate(all="ignore"):
        epochs = stat.epochs_base + stat.epochs_slope * noise
        iterations = epochs * float(model.dataset_size) / global_batch
        total = iterations * tau
        cost = total / 3600.0 * (workers * vm_hourly_price(pricing, shape))
        # NaN passes the ``<= 0`` tests, as in predict, and fails at the total.
        bad = (noise <= 0) | (epochs <= 0) | (tau <= 0)
        bad |= ~(np.isfinite(total) & (total > 0)) | ~np.isfinite(cost)
    ok = ~bad
    return GridPrediction(
        points=PointColumns(workers[ok], global_batch[ok], total[ok], cost[ok]),
        normalized_noise=noise[ok],
        epochs=epochs[ok],
        iterations=iterations[ok],
        iteration_time_s=tau[ok],
        skipped=[],
    ), bad


def predict_columns(
    model: PerfModel,
    workers: np.ndarray,
    global_batch: np.ndarray,
    pricing: PricingModel,
    shape: VMShape,
) -> GridPrediction:
    """Run :func:`predict` on int64 (workers, global_batch) columns.

    Bit for bit the scalar chain: ``B**-0.5`` is taken in Python once per
    distinct batch (``np.power`` rounds differently), and every other step
    is the same IEEE operation in the same order.  The domain mask applies
    the scalar tests; out-of-domain rows get their reason from :func:`predict`.
    """
    stat, par = model.stat, model.parallel
    distinct, inverse = np.unique(global_batch, return_inverse=True)
    x = np.array([b**-0.5 for b in distinct.tolist()], dtype=float)[inverse]
    with np.errstate(all="ignore"):
        noise = stat.noise_slope * x + stat.noise_intercept
        tau = (par.base_s + par.per_sample_s * (global_batch // workers)) + (
            par.per_worker_s * workers
        )
    grid, bad = chain_columns(model, workers, global_batch, noise, tau, pricing, shape)
    for i in np.flatnonzero(bad).tolist():
        config = JobConfig(int(workers[i]), int(global_batch[i]))
        try:
            predict(model, config, pricing, shape)
        except ModelOutOfDomainError as exc:
            grid.skipped.append((config, str(exc)))
    return grid
