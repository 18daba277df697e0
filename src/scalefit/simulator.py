"""Synthetic profiling environment with known ground truth.

A simulated workload carries the true coefficients of the prediction chain
plus a noise-ramp horizon and a jitter level.  Per-iteration samples are
synthesized so that the raw noise ratio equals the ramped true value (times
multiplicative jitter) exactly: the aggregated squared norm is pinned to 1
and the per-worker squared norms carry the target mean.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    JobConfig,
    PricingModel,
    SearchBounds,
    VMShape,
    mini_batch,
)
from .errors import (
    MAX_GRID_VALUE, ConfigurationError, InvalidSampleError, ModelOutOfDomainError,
    SearchFailedError, check,
)
from .noise import SampleBatch
from .perfmodel import ParallelFit, PerfModel, Prediction, StatFit, predict, predict_columns
from .policy import Constraints, Objective, Recommendation, select_rows
from .tradeoff import PointColumns, TradeoffPoint

_LAW_FIELDS = ("noise_slope", "noise_intercept", "epochs_base", "epochs_slope",
               "time_base_s", "time_per_sample_s", "time_per_worker_s")
# The workload coefficients each synthesized sample column is computed from.
_COLUMN_SOURCES = {
    "worker_sqnorms": "noise_slope, noise_intercept and jitter",
    "compute_s": "time_base_s, time_per_sample_s and jitter",
    "sync_s": "time_base_s, time_per_worker_s and jitter",
}


@dataclass(frozen=True)
class SimWorkload:
    """Ground-truth coefficients (all finite) and trace-synthesis knobs for one workload."""

    name: str
    dataset_size: int
    noise_slope: float
    noise_intercept: float
    epochs_base: float
    epochs_slope: float
    time_base_s: float
    time_per_sample_s: float
    time_per_worker_s: float
    ramp_iters: float = 500.0
    jitter: float = 0.0
    grad_dim: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.dataset_size <= sys.float_info.max:
            raise ConfigurationError("dataset_size must be >= 1 and fit in a float")
        for name in _LAW_FIELDS:
            check(name, getattr(self, name), -math.inf, finite=True)
        check("ramp_iters", self.ramp_iters, 1, finite=True)
        check("jitter", self.jitter, 0, finite=True)
        check("grad_dim", self.grad_dim, 2, MAX_GRID_VALUE)
        check("seed", self.seed, 0)

    def true_normalized_noise(self, global_batch: int) -> float:
        return self.noise_slope * global_batch**-0.5 + self.noise_intercept

    def true_epochs(self, global_batch: int) -> float:
        return self.epochs_base + self.epochs_slope * self.true_normalized_noise(
            global_batch
        )

    def to_perf_model(self) -> PerfModel:
        return PerfModel(
            stat=StatFit(
                noise_slope=self.noise_slope,
                noise_intercept=self.noise_intercept,
                epochs_base=self.epochs_base,
                epochs_slope=self.epochs_slope,
            ),
            parallel=ParallelFit(
                base_s=self.time_base_s,
                per_sample_s=self.time_per_sample_s,
                per_worker_s=self.time_per_worker_s,
            ),
            dataset_size=self.dataset_size,
            fingerprint=self.name,
            provenance="ground_truth",
        )


@dataclass(frozen=True)
class SimCluster:
    """VM shape, pricing, and checkpoint-restore overhead of the test cluster."""

    shape: VMShape
    pricing: PricingModel
    restore_overhead_s: float = 37.0

    def __post_init__(self) -> None:
        check("restore_overhead_s", self.restore_overhead_s, 0, finite=True)


class SimEnvironment:
    """Deterministic profiling environment over a simulated workload.

    Traces are reproducible from the workload seed and the sequence of
    ``profile`` calls; every call advances one shared generator in a fixed
    draw order.
    """

    def __init__(self, workload: SimWorkload, cluster: SimCluster) -> None:
        self.workload = workload
        self.cluster = cluster
        self._rng = np.random.default_rng(workload.seed)

    # Coefficients whose products pass the float range give inf or NaN samples
    # quietly; SampleBatch then rejects them, and the rejection is reported
    # against the workload coefficients rather than a synthesized row.
    @np.errstate(all="ignore")
    def profile(
        self,
        workers: int,
        global_batch: int,
        iters: int,
        start_iteration: int = 0,
    ) -> SampleBatch:
        """Synthesize ``iters`` per-iteration samples starting at ``start_iteration``.

        The raw noise target ramps as ``1 - exp(-t / ramp_iters)`` toward
        ``workers * true_normalized_noise(B)``; compute and sync times split
        the plane with half the base each and jitter independently.
        """
        config = JobConfig(workers, global_batch)
        check("iters", iters, 1, MAX_GRID_VALUE)
        # Iterations are stored as int64, so the last one stays below 2**63.
        check("start_iteration", start_iteration, 0, MAX_GRID_VALUE)
        w = self.workload
        b = mini_batch(config)
        t_idx = start_iteration + np.arange(iters, dtype=float)
        ramp = 1.0 - np.exp(-t_idx / w.ramp_iters)
        noise_jit = w.jitter * self._rng.standard_normal(iters)
        spread = self._rng.standard_normal((iters, workers)) * math.sqrt(
            2.0 / w.grad_dim
        )
        compute_jit = w.jitter * self._rng.standard_normal(iters)
        sync_jit = w.jitter * self._rng.standard_normal(iters)

        gamma = workers * w.true_normalized_noise(global_batch) * ramp
        gamma = np.clip(gamma * (1.0 + noise_jit), 0.0, None)
        # Center the per-worker spread so the Eq-style ratio stays exact.
        spread -= spread.mean(axis=1, keepdims=True)
        worker_vals = np.clip(gamma[:, None] * (1.0 + spread), 0.0, None)

        compute = np.clip(
            (w.time_base_s / 2.0 + w.time_per_sample_s * b) * (1.0 + compute_jit),
            0.0,
            None,
        )
        sync = np.clip(
            (w.time_base_s / 2.0 + w.time_per_worker_s * workers) * (1.0 + sync_jit),
            0.0,
            None,
        )

        try:
            return SampleBatch(
                t_idx.astype(np.int64), worker_vals, np.ones(iters), compute, sync
            )
        except InvalidSampleError as exc:
            raise ModelOutOfDomainError(
                f"workload {w.name!r} at K={workers}, B={global_batch}: "
                f"{_COLUMN_SOURCES[exc.field]} overflow the synthesized {exc.field} "
                f"({exc.reason})"
            ) from None


def ground_truth(
    workload: SimWorkload, cluster: SimCluster, config: JobConfig
) -> Prediction:
    """Closed-form truth for one configuration via the shared prediction chain."""
    return predict(workload.to_perf_model(), config, cluster.pricing, cluster.shape)


def _truth_columns(
    workload: SimWorkload, cluster: SimCluster, bounds: SearchBounds
) -> PointColumns:
    grid = predict_columns(
        workload.to_perf_model(), *bounds.columns(), cluster.pricing, cluster.shape
    )
    if grid.skipped:
        raise ModelOutOfDomainError(grid.skipped[0][1])
    return grid.points


def ground_truth_points(
    workload: SimWorkload, cluster: SimCluster, bounds: SearchBounds
) -> list[TradeoffPoint]:
    """Ground-truth tradeoff points for every valid configuration in bounds.

    Raises ModelOutOfDomainError for the first configuration the true
    coefficients cannot evaluate.
    """
    return _truth_columns(workload, cluster, bounds).points()


def oracle_best(
    workload: SimWorkload,
    cluster: SimCluster,
    bounds: SearchBounds,
    objective: Objective,
    constraints: Constraints | None = None,
) -> Recommendation:
    """Brute-force selection over ground-truth points."""
    cols = _truth_columns(workload, cluster, bounds)
    return select_rows(cols, objective, constraints).recommendation(cols.point)


@dataclass(frozen=True)
class EndToEnd:
    """Search overhead composed with the chosen configuration's full run."""

    overhead_time_s: float
    overhead_cost_usd: float
    run_time_s: float
    run_cost_usd: float

    @property
    def total_time_s(self) -> float:
        return self.overhead_time_s + self.run_time_s

    @property
    def total_cost_usd(self) -> float:
        return self.overhead_cost_usd + self.run_cost_usd


def compose_end_to_end(outcome, workload: SimWorkload, cluster: SimCluster) -> EndToEnd:
    """End-to-end totals for a search outcome: exploration plus remaining run."""
    if outcome.chosen is None:
        raise ConfigurationError("search outcome has no chosen configuration")
    run = ground_truth(workload, cluster, outcome.chosen)
    totals = EndToEnd(
        overhead_time_s=outcome.overhead_time_s,
        overhead_cost_usd=outcome.overhead_cost_usd,
        run_time_s=run.total_time_s,
        run_cost_usd=run.cost_usd,
    )
    check("total_time_s", totals.total_time_s, 0, finite=True, error=SearchFailedError)
    check("total_cost_usd", totals.total_cost_usd, 0, finite=True, error=SearchFailedError)
    return totals


# Preset workloads.  Ramp horizons are tuned so the noise ramp reaches 98%
# of its plateau (t = ln(50)·R ≈ 3.9·R) near iteration 2000, 3000, and
# 10000 respectively; restore overheads reflect typical checkpoint-restart
# times for models of these sizes.
_PRESET_WORKLOADS: dict[str, SimWorkload] = {
    "resnet18-like": SimWorkload(
        name="resnet18-like",
        dataset_size=1_000_000,
        noise_slope=48.0,
        noise_intercept=0.1,
        epochs_base=6.0,
        epochs_slope=16.0,
        time_base_s=0.25,
        time_per_sample_s=0.012,
        time_per_worker_s=0.008,
        ramp_iters=500.0,
        jitter=0.0,
        grad_dim=10_000,
    ),
    "resnet50-like": SimWorkload(
        name="resnet50-like",
        dataset_size=1_300_000,
        noise_slope=60.0,
        noise_intercept=0.2,
        epochs_base=8.0,
        epochs_slope=20.0,
        time_base_s=0.4,
        time_per_sample_s=0.03,
        time_per_worker_s=0.012,
        ramp_iters=750.0,
        jitter=0.0,
        grad_dim=25_000,
    ),
    "transformer-like": SimWorkload(
        name="transformer-like",
        dataset_size=4_500_000,
        noise_slope=120.0,
        noise_intercept=0.5,
        epochs_base=4.0,
        epochs_slope=10.0,
        time_base_s=0.6,
        time_per_sample_s=0.05,
        time_per_worker_s=0.02,
        ramp_iters=2500.0,
        jitter=0.0,
        grad_dim=60_000,
    ),
}

_PRESET_RESTORE_S = {
    "resnet18-like": 37.0,
    "resnet50-like": 40.0,
    "transformer-like": 127.0,
}

PRESET_NAMES = tuple(_PRESET_WORKLOADS)


def preset_workload(
    name: str, seed: int = 0, jitter: float | None = None
) -> SimWorkload:
    """A named preset workload with the given seed and optional jitter override."""
    if name not in _PRESET_WORKLOADS:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose from {PRESET_NAMES}"
        )
    w = replace(_PRESET_WORKLOADS[name], seed=seed)
    if jitter is not None:
        w = replace(w, jitter=jitter)
    return w


def preset_cluster(name: str) -> SimCluster:
    """The matching 4-vCPU/16-GB flat-priced cluster for a preset workload."""
    if name not in _PRESET_RESTORE_S:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose from {PRESET_NAMES}"
        )
    return SimCluster(
        shape=VMShape(vcpus=4, memory_gb=16.0),
        pricing=PricingModel.flat(0.13402),
        restore_overhead_s=_PRESET_RESTORE_S[name],
    )
