"""Streaming gradient-noise estimation.

The raw noise of one iteration is the mean of the per-worker squared
gradient norms divided by the squared norm of the aggregated gradient.
Raw values are smoothed with an exponentially weighted moving average and
reported both as-is and normalized by the worker count, which maps the
saturation level of the raw ratio to 1 regardless of cluster size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable

from .errors import ConfigurationError, DegenerateGradientError


@dataclass(frozen=True)
class IterationSample:
    """Per-iteration measurements reported by a profiling source."""

    iteration: int
    per_worker_grad_sqnorms: tuple[float, ...]
    aggregated_grad_sqnorm: float
    compute_time_s: float
    sync_time_s: float

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ConfigurationError(f"iteration must be >= 0, got {self.iteration}")
        if len(self.per_worker_grad_sqnorms) < 1:
            raise ConfigurationError("per_worker_grad_sqnorms must not be empty")
        if any(v < 0 for v in self.per_worker_grad_sqnorms):
            raise ConfigurationError("per-worker squared norms must be >= 0")
        if self.aggregated_grad_sqnorm < 0:
            raise ConfigurationError("aggregated_grad_sqnorm must be >= 0")
        if self.compute_time_s < 0 or self.sync_time_s < 0:
            raise ConfigurationError("iteration times must be >= 0")

    @property
    def iteration_time_s(self) -> float:
        return self.compute_time_s + self.sync_time_s


def compute_raw_noise(sample: IterationSample) -> float:
    """Ratio of the mean per-worker squared norm to the aggregated squared norm."""
    if sample.aggregated_grad_sqnorm == 0:
        raise DegenerateGradientError(
            f"aggregated gradient norm is zero at iteration {sample.iteration}"
        )
    mean_worker = sum(sample.per_worker_grad_sqnorms) / len(
        sample.per_worker_grad_sqnorms
    )
    return mean_worker / sample.aggregated_grad_sqnorm


def normalized_noises(samples: Iterable[IterationSample], workers: int) -> list[float]:
    """Raw noise over ``workers`` for each sample, leaving out zero-aggregate samples."""
    out = []
    for s in samples:
        try:
            out.append(compute_raw_noise(s) / workers)
        except DegenerateGradientError:
            continue
    return out


@dataclass(frozen=True)
class EwmaConfig:
    """Smoothing and stabilization parameters for the noise tracker."""

    alpha: float = 0.01
    warmup_iters: int = 1000
    stability_window: int = 200
    stability_rel_tol: float = 0.02

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.warmup_iters < 1:
            raise ConfigurationError(
                f"warmup_iters must be >= 1, got {self.warmup_iters}"
            )
        if self.stability_window < 2:
            raise ConfigurationError(
                f"stability_window must be >= 2, got {self.stability_window}"
            )
        if self.stability_rel_tol <= 0:
            raise ConfigurationError(
                f"stability_rel_tol must be > 0, got {self.stability_rel_tol}"
            )


@dataclass(frozen=True)
class NoiseEstimate:
    """Snapshot of the tracker state after an update."""

    smoothed: float
    normalized: float
    samples_seen: int
    skipped_samples: int
    stabilized: bool
    recent_window: tuple[float, ...]


def window_relative_spread(window: tuple[float, ...] | list[float]) -> float:
    """(max - min) / max over a window of smoothed values; 0 for a flat window."""
    if not window:
        return 0.0
    hi = max(window)
    lo = min(window)
    if hi == 0:
        return 0.0
    return (hi - lo) / hi


def is_stabilized(estimate: NoiseEstimate, cfg: EwmaConfig) -> bool:
    """Whether the smoothed series has settled.

    Requires the warm-up sample count and a relative spread of the recent
    smoothed values no larger than the tolerance.  Loosening the tolerance
    never turns a stabilized estimate back into an unstabilized one.
    """
    if estimate.samples_seen < cfg.warmup_iters:
        return False
    return window_relative_spread(estimate.recent_window) <= cfg.stability_rel_tol


class NoiseTracker:
    """Accumulates per-iteration samples for one configuration.

    Samples with a zero aggregated gradient cannot produce a noise ratio;
    the tracker counts them as skipped, leaves the smoothed state unchanged,
    and re-raises so the caller can decide whether to continue.
    """

    def __init__(self, workers: int, cfg: EwmaConfig | None = None) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cfg = cfg if cfg is not None else EwmaConfig()
        self._smoothed: float | None = None
        self._seen = 0
        self._skipped = 0
        self._window: deque[float] = deque(maxlen=self.cfg.stability_window)

    def update(self, sample: IterationSample) -> NoiseEstimate:
        if len(sample.per_worker_grad_sqnorms) != self.workers:
            raise ConfigurationError(
                f"sample has {len(sample.per_worker_grad_sqnorms)} workers, "
                f"tracker expects {self.workers}"
            )
        try:
            raw = compute_raw_noise(sample)
        except DegenerateGradientError:
            self._skipped += 1
            raise
        if self._smoothed is None:
            self._smoothed = raw
        else:
            a = self.cfg.alpha
            self._smoothed = a * raw + (1.0 - a) * self._smoothed
        self._seen += 1
        self._window.append(self._smoothed)
        return self.estimate

    @property
    def estimate(self) -> NoiseEstimate:
        smoothed = self._smoothed if self._smoothed is not None else 0.0
        est = NoiseEstimate(
            smoothed=smoothed,
            normalized=smoothed / self.workers,
            samples_seen=self._seen,
            skipped_samples=self._skipped,
            stabilized=False,
            recent_window=tuple(self._window),
        )
        if is_stabilized(est, self.cfg):
            est = replace(est, stabilized=True)
        return est
