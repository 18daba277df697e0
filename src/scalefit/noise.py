"""Streaming gradient-noise estimation.

The raw noise of one iteration is the mean of the per-worker squared
gradient norms divided by the squared norm of the aggregated gradient.
Raw values are smoothed with an exponentially weighted moving average and
reported both as-is and normalized by the worker count, which maps the
saturation level of the raw ratio to 1 regardless of cluster size.

Samples travel as one columnar :class:`SampleBatch` per profiling run or
trace file, validated once; an :class:`IterationSample` is one of its rows.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable

import numpy as np

from .errors import (
    MAX_GRID_VALUE, ConfigurationError, DegenerateGradientError, InvalidSampleError, check
)


@dataclass(frozen=True)
class IterationSample:
    """Per-iteration measurements reported by a profiling source."""

    iteration: int
    per_worker_grad_sqnorms: tuple[float, ...]
    aggregated_grad_sqnorm: float
    compute_time_s: float
    sync_time_s: float

    def __post_init__(self) -> None:
        check("iteration", self.iteration, 0)
        if len(self.per_worker_grad_sqnorms) < 1:
            raise ConfigurationError("per_worker_grad_sqnorms must not be empty")
        for value in self.per_worker_grad_sqnorms:
            check("per_worker_grad_sqnorms", value, 0, finite=True)
        for name in ("aggregated_grad_sqnorm", "compute_time_s", "sync_time_s"):
            check(name, getattr(self, name), 0, finite=True)

    @property
    def iteration_time_s(self) -> float:
        return self.compute_time_s + self.sync_time_s


_FLOAT_COLUMNS = ("worker_sqnorms", "agg_sqnorm", "compute_s", "sync_s")


def iteration_column(iteration) -> np.ndarray:
    """The integers ``iteration`` as a new int64 array; the first one outside int64 is an
    InvalidSampleError for its row."""
    try:
        return np.array(iteration, dtype=np.int64)
    except OverflowError:
        row = next(i for i, t in enumerate(iteration) if not -(2**63) <= t < 2**63)
        bound = ">= 0" if iteration[row] < 0 else "< 2**63"
        raise InvalidSampleError(
            "iteration", row, f"must be {bound}, got {iteration[row]}"
        ) from None


class SampleBatch(Sequence):
    """Per-iteration samples of one configuration as read-only columns.

    ``iteration`` is int64 of shape ``(n,)``; ``worker_sqnorms`` is float64
    of shape ``(n, K)``; ``agg_sqnorm``, ``compute_s`` and ``sync_s`` are
    float64 of shape ``(n,)``.  Construction copies and validates the
    columns once (:meth:`adopt` takes fresh arrays without copying them):
    shapes must agree, iterations must be >= 0 and every float finite and
    >= 0, or :class:`InvalidSampleError` names the column and the first bad
    row.  As a sequence the batch yields :class:`IterationSample`
    rows; two batches are equal when their columns are.
    """

    __slots__ = ("iteration", *_FLOAT_COLUMNS)

    def __init__(self, iteration, worker_sqnorms, agg_sqnorm, compute_s, sync_s) -> None:
        self._own(iteration_column(iteration), *(np.array(column, dtype=np.float64)
                               for column in (worker_sqnorms, agg_sqnorm, compute_s, sync_s)))

    @classmethod
    def adopt(cls, iteration, worker_sqnorms, agg_sqnorm, compute_s, sync_s) -> SampleBatch:
        """A batch that takes ownership of fresh int64 and float64 arrays without copying them.

        The arrays become the batch's read-only columns, so the caller must
        hold no other reference it writes through.  Validation is the
        constructor's.
        """
        batch = cls.__new__(cls)
        batch._own(np.asarray(iteration, dtype=np.int64),
                   *(np.asarray(column, dtype=np.float64)
                     for column in (worker_sqnorms, agg_sqnorm, compute_s, sync_s)))
        return batch

    def _own(self, iteration, worker_sqnorms, agg_sqnorm, compute_s, sync_s) -> None:
        """Freeze and validate the typed columns as this batch's own."""
        self.iteration = iteration
        self.worker_sqnorms = worker_sqnorms
        self.agg_sqnorm = agg_sqnorm
        self.compute_s = compute_s
        self.sync_s = sync_s
        shapes = {name: getattr(self, name).shape for name in self.__slots__}
        n, k = shapes["worker_sqnorms"] if self.worker_sqnorms.ndim == 2 else (0, 0)
        rows = {shape for name, shape in shapes.items() if name != "worker_sqnorms"}
        if not n or not k or rows != {(n,)}:
            raise ConfigurationError(
                f"columns need n >= 1 rows and worker_sqnorms shape (n, K >= 1), got {shapes}"
            )
        for name in self.__slots__:
            getattr(self, name).flags.writeable = False
        if self.iteration.min() < 0:
            row = int(np.argmax(self.iteration < 0))
            raise InvalidSampleError(
                "iteration", row, f"must be >= 0, got {self.iteration[row]}"
            )
        for name in _FLOAT_COLUMNS:
            column = getattr(self, name)
            if not (column.min() >= 0 and column.max() < np.inf):  # False for NaN too
                first = tuple(np.argwhere(~((column >= 0) & (column < np.inf)))[0])
                raise InvalidSampleError(
                    name, int(first[0]), f"must be finite and >= 0, got {float(column[first])}"
                )

    @classmethod
    def from_samples(cls, samples: Iterable[IterationSample]) -> SampleBatch:
        rows = list(samples)
        return cls(
            [s.iteration for s in rows],
            [s.per_worker_grad_sqnorms for s in rows],
            [s.aggregated_grad_sqnorm for s in rows],
            [s.compute_time_s for s in rows],
            [s.sync_time_s for s in rows],
        )

    @property
    def workers(self) -> int:
        return self.worker_sqnorms.shape[1]

    @property
    def iteration_time_s(self) -> np.ndarray:
        return self.compute_s + self.sync_s

    def __len__(self) -> int:
        return len(self.iteration)

    def __getitem__(self, i: int) -> IterationSample:
        return IterationSample(
            iteration=int(self.iteration[i]),
            per_worker_grad_sqnorms=tuple(self.worker_sqnorms[i].tolist()),
            aggregated_grad_sqnorm=float(self.agg_sqnorm[i]),
            compute_time_s=float(self.compute_s[i]),
            sync_time_s=float(self.sync_s[i]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__
        )

    __hash__ = None  # type: ignore[assignment]


def _raw_noise_column(batch: SampleBatch) -> tuple[np.ndarray, np.ndarray]:
    """(raw noise per row, rows with a non-zero aggregate); raw is 0 elsewhere.

    Each row's worker norms are added one worker column at a time onto
    ``0.0``, strictly left to right, so every value equals the ordered
    per-sample ratio bit for bit (a ``-0.0`` total becomes ``0.0``);
    ``np.sum`` adds pairwise.  No ``(n, K)`` temporary is built.
    """
    usable = batch.agg_sqnorm != 0
    with np.errstate(over="ignore"):  # overflow gives inf, as the float sum does
        total = batch.worker_sqnorms[:, 0] + 0.0
        for column in batch.worker_sqnorms.T[1:]:
            total += column
        raw = np.divide(
            total / batch.workers, batch.agg_sqnorm, out=np.zeros_like(total), where=usable
        )
    return raw, usable


def compute_raw_noise(sample: IterationSample) -> float:
    """Ratio of the mean per-worker squared norm to the aggregated squared norm."""
    if sample.aggregated_grad_sqnorm == 0:
        raise DegenerateGradientError(
            f"aggregated gradient norm is zero at iteration {sample.iteration}"
        )
    raw, _ = _raw_noise_column(SampleBatch.from_samples([sample]))
    return float(raw[0])


def normalized_noises(batch: SampleBatch) -> np.ndarray:
    """Raw noise over the worker count for each row, leaving out zero-aggregate rows."""
    raw, usable = _raw_noise_column(batch)
    return raw[usable] / batch.workers


@dataclass(frozen=True)
class EwmaConfig:
    """Smoothing and stabilization parameters for the noise tracker."""

    alpha: float = 0.01
    warmup_iters: int = 1000
    stability_window: int = 200
    stability_rel_tol: float = 0.02

    def __post_init__(self) -> None:
        check("alpha", self.alpha, 0, 1, lo_open=True)
        check("warmup_iters", self.warmup_iters, 1, MAX_GRID_VALUE)
        check("stability_window", self.stability_window, 2, MAX_GRID_VALUE)
        check("stability_rel_tol", self.stability_rel_tol, 0, lo_open=True, finite=True)


@dataclass(frozen=True)
class NoiseEstimate:
    """Snapshot of the tracker state after an update."""

    smoothed: float
    normalized: float
    samples_seen: int
    skipped_samples: int
    stabilized: bool
    recent_window: tuple[float, ...]


def _sliding_max_min(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and min of ``values[max(0, i - width + 1) : i + 1]`` for every ``i``.

    van Herk / Gil-Werman: running extremes forward and backward within
    blocks of ``width``; a full window is one block's suffix and the next's
    prefix, a shorter leading one a prefix of the first.  NaN propagates.
    """
    n = len(values)
    width = min(width, n)
    # Repeating the last value fills the last block without changing any extreme.
    blocks = np.concatenate((values, values[-1:].repeat(-n % width))).reshape(-1, width)
    extremes = []
    for ufunc in (np.maximum, np.minimum):
        prefix = ufunc.accumulate(blocks, axis=1).ravel()[:n]
        suffix = ufunc.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
        ufunc(suffix[: n - width + 1], prefix[width - 1 :], out=prefix[width - 1 :])
        extremes.append(prefix)
    return extremes[0], extremes[1]


class NoiseTracker:
    """Accumulates per-iteration samples for one configuration.

    Samples with a zero aggregated gradient cannot produce a noise ratio;
    the tracker counts them as skipped and leaves the smoothed state
    unchanged.  A batch is tested a chunk at a time: its EWMA is one
    ``itertools.accumulate`` over the usable rows, rows inside the warm-up
    do no window work, and the rest take their window extremes at once from
    :func:`_sliding_max_min` over the previous window and the new values.
    """

    def __init__(self, workers: int, cfg: EwmaConfig | None = None) -> None:
        self.workers = check("workers", workers, 1)
        self.cfg = cfg if cfg is not None else EwmaConfig()
        self._smoothed: float | None = None
        self._seen = 0
        self._skipped = 0
        self._window: deque[float] = deque(maxlen=self.cfg.stability_window)

    def consume(self, batch: SampleBatch) -> int | None:
        """Feed the rows of ``batch`` in order until the estimate is stabilized.

        Returns the index of the row after which it first is, consuming no
        row past that one, or ``None`` once every row is consumed.
        """
        if batch.workers != self.workers:
            raise ConfigurationError(
                f"sample has {batch.workers} workers, tracker expects {self.workers}"
            )
        raws, usable = _raw_noise_column(batch)
        rows = np.flatnonzero(usable)
        cfg, prev = self.cfg, self._smoothed
        a, b = cfg.alpha, 1.0 - cfg.alpha
        # The same expression, in the same order, as a per-row update.
        smoothed = list(accumulate(raws[rows].tolist(), lambda s, r: a * r + b * s,
                                   initial=prev))
        if prev is not None:
            del smoothed[0]  # accumulate yields its initial value first
        # Values before first_test are still inside the warm-up.
        first_test = max(cfg.warmup_iters - self._seen - 1, 0)
        used, stop = len(smoothed), None
        if first_test < used:
            old = len(self._window)
            hi, lo = _sliding_max_min(np.fromiter(chain(self._window, smoothed), float),
                                      cfg.stability_window)
            hi, lo = hi[old + first_test :], lo[old + first_test :]
            with np.errstate(invalid="ignore", divide="ignore"):
                spread = np.where(hi == 0, 0.0, (hi - lo) / hi)
            hit = int(np.argmax(spread <= cfg.stability_rel_tol))
            if spread[hit] <= cfg.stability_rel_tol:
                used = first_test + hit + 1
                stop = int(rows[used - 1])
        self._skipped += (len(batch) if stop is None else stop + 1) - used
        self._smoothed = smoothed[used - 1] if used else prev
        self._seen += used
        self._window.extend(smoothed[:used])
        return stop

    def update(self, sample: IterationSample) -> NoiseEstimate:
        """Feed one sample; a zero aggregate is counted as skipped, then raised."""
        self.consume(SampleBatch.from_samples([sample]))
        if sample.aggregated_grad_sqnorm == 0:
            raise DegenerateGradientError(
                f"aggregated gradient norm is zero at iteration {sample.iteration}"
            )
        return self.estimate

    @property
    def estimate(self) -> NoiseEstimate:
        """Snapshot of the tracker.

        Stabilized once the warm-up count is reached and the window's relative
        spread ``(max - min) / max`` (0 if empty or its max is 0) is within tolerance.
        """
        smoothed = self._smoothed if self._smoothed is not None else 0.0
        window = tuple(self._window)
        hi = max(window, default=0.0)
        spread = 0.0 if hi == 0 else (hi - min(window)) / hi
        cfg = self.cfg
        return NoiseEstimate(
            smoothed=smoothed,
            normalized=smoothed / self.workers,
            samples_seen=self._seen,
            skipped_samples=self._skipped,
            stabilized=self._seen >= cfg.warmup_iters and spread <= cfg.stability_rel_tol,
            recent_window=window,
        )
