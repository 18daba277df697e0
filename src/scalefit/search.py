"""Configuration-search drivers over a profiling environment.

Three exploration strategies share the same machinery:

* ``full_search`` profiles every grid configuration briefly and predicts
  from per-configuration measurements.
* ``partial_search`` stabilizes the noise estimate on two extreme-batch
  anchor runs, profiles iteration time on the four grid corners only, and
  predicts everything else from the fitted model.
* ``online_scaling_search`` samples batch sizes and worker counts, measures
  iteration time per sampled pair, predicts the statistical side from the
  anchors, takes the knee of each per-batch worker sweep, and keeps the
  knee with the smallest cost-time product.

``no_search`` skips profiling entirely and reuses a stored model.
``run_search`` runs a scenario's mode, any of the four, against its
simulated environment.

The profiling drivers run against a :class:`SimEnvironment` and read its
workload and cluster directly.

Every run on a configuration is recorded with its iteration count, restore
overhead, and mean measured iteration time; the reported search overhead is
exactly the sum of ``restore + iterations * mean_time`` over those records,
priced at each record's own cluster size.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .config import (
    JobConfig,
    PricingModel,
    SearchBounds,
    VMShape,
    mini_batch,
    run_cost_usd,
)
from .errors import (
    ConfigurationError,
    ModelNotFoundError,
    SearchFailedError,
)
from .noise import EwmaConfig, NoiseTracker, normalized_noises
from .perfmodel import (
    PerfModel,
    StatFit,
    chain_columns,
    fit_epochs_vs_noise,
    fit_iteration_time_best_effort,
    fit_noise_curve,
    fit_noise_vs_batch,
    predict_columns,
)
from .policy import Constraints, Objective, Recommendation, select_rows
from .simulator import SimEnvironment, SimWorkload
from .store import ModelStore
from .tradeoff import PointColumns, TradeoffCurve, TradeoffPoint, kneedle_knee, min_cost_time

if TYPE_CHECKING:
    from .scenario import Scenario

SEARCH_MODES = ("full", "partial", "scaling", "none")


@dataclass(frozen=True)
class GridSampling:
    """Exhaustive deterministic sampling over the valid grid."""


@dataclass(frozen=True)
class RandomSampling:
    """Seeded uniform sampling of batch sizes and worker counts."""

    seed: int
    bspace: int = 4
    kspace: int = 4

    def __post_init__(self) -> None:
        if self.bspace < 1 or self.kspace < 1:
            raise ConfigurationError("bspace and kspace must be >= 1")


@dataclass(frozen=True)
class SearchParams:
    mode: str = "partial"
    profile_iters: int = 20
    sampling: GridSampling | RandomSampling = field(default_factory=GridSampling)
    ewma: EwmaConfig = field(default_factory=EwmaConfig)
    max_stabilize_iters: int = 50_000

    def __post_init__(self) -> None:
        if self.mode not in SEARCH_MODES:
            raise ConfigurationError(
                f"mode must be one of {SEARCH_MODES}, got {self.mode!r}"
            )
        if self.profile_iters < 1:
            raise ConfigurationError("profile_iters must be >= 1")
        if self.max_stabilize_iters < 1:
            raise ConfigurationError("max_stabilize_iters must be >= 1")


@dataclass(frozen=True)
class Exploration:
    """One run (or refusal) on a configuration during the search."""

    workers: int
    global_batch: int
    kind: str  # "anchor", "profile", or "skipped"
    iterations: int
    mean_iteration_time_s: float
    restore_s: float

    def elapsed_s(self) -> float:
        return self.restore_s + self.iterations * self.mean_iteration_time_s


@dataclass(frozen=True)
class SearchOutcome:
    mode: str
    chosen: JobConfig | None
    model: PerfModel
    explored: tuple[Exploration, ...]
    overhead_time_s: float
    overhead_cost_usd: float
    tradeoff_points: tuple[TradeoffPoint, ...]
    recommendation: Recommendation | None


def _extreme_batches(
    valid: Iterable[tuple[int, int]],
) -> tuple[int, list[int], int, list[int]]:
    """(smallest batch, its sorted worker counts, largest batch, its sorted worker counts)."""
    pairs = list(valid)
    b_lo = min(b for _, b in pairs)
    b_hi = max(b for _, b in pairs)
    ks_lo = sorted(k for k, b in pairs if b == b_lo)
    ks_hi = sorted(k for k, b in pairs if b == b_hi)
    return b_lo, ks_lo, b_hi, ks_hi


def _anchor_configs(valid: list[tuple[int, int]]) -> tuple[JobConfig, JobConfig]:
    """Extreme-batch anchor configs, sharing the smallest worker count when possible."""
    b_lo, ks_lo, b_hi, ks_hi = _extreme_batches(valid)
    common = set(ks_lo) & set(ks_hi)
    if common:
        return JobConfig(min(common), b_lo), JobConfig(min(common), b_hi)
    return JobConfig(ks_lo[0], b_lo), JobConfig(ks_hi[0], b_hi)


def _corner_configs(valid: list[tuple[int, int]]) -> list[JobConfig]:
    """Unique timing-profile corners: extreme workers at each extreme batch."""
    b_lo, ks_lo, b_hi, ks_hi = _extreme_batches(valid)
    corners = [(ks_lo[0], b_lo), (ks_hi[0], b_hi), (ks_lo[-1], b_lo), (ks_hi[-1], b_hi)]
    return [JobConfig(k, b) for k, b in dict.fromkeys(corners)]


class _Session:
    """Tracks the global iteration cursor across exploration runs."""

    def __init__(self, env: SimEnvironment, params: SearchParams) -> None:
        self.env = env
        self.params = params
        self.cursor = 0

    def run_profile(self, config: JobConfig) -> tuple[Exploration, float, float]:
        """Short profiling pass: (record, mean normalized noise, mean tau)."""
        iters = self.params.profile_iters
        batch = self.env.profile(config.workers, config.global_batch, iters, self.cursor)
        self.cursor += len(batch)
        noises = normalized_noises(batch)
        mean_noise = sum(noises) / len(noises) if noises else 0.0
        taus = batch.iteration_time_s.tolist()
        mean_tau = sum(taus) / len(taus)
        record = Exploration(
            workers=config.workers,
            global_batch=config.global_batch,
            kind="profile",
            iterations=len(batch),
            mean_iteration_time_s=mean_tau,
            restore_s=self.env.cluster.restore_overhead_s,
        )
        return record, mean_noise, mean_tau

    def run_anchor(self, config: JobConfig) -> tuple[Exploration, float]:
        """Run until the noise estimate stabilizes: (record, noise).

        Profiles in chunks of ``stability_window`` iterations; the rows of a
        chunk past the one that stabilizes the estimate are discarded.
        """
        tracker = NoiseTracker(config.workers, self.params.ewma)
        limit = self.params.max_stabilize_iters
        consumed = 0
        total_time = 0.0
        stop = None
        while stop is None and consumed < limit:
            chunk = min(self.params.ewma.stability_window, limit - consumed)
            batch = self.env.profile(
                config.workers, config.global_batch, chunk, self.cursor
            )
            stop = tracker.consume(batch)
            used = len(batch) if stop is None else stop + 1
            for tau in batch.iteration_time_s[:used].tolist():
                total_time += tau
            self.cursor += used
            consumed += used
        if stop is None:
            raise SearchFailedError(
                f"noise did not stabilize within {limit} "
                f"iterations at K={config.workers}, B={config.global_batch}"
            )
        record = Exploration(
            workers=config.workers,
            global_batch=config.global_batch,
            kind="anchor",
            iterations=consumed,
            mean_iteration_time_s=total_time / consumed,
            restore_s=self.env.cluster.restore_overhead_s,
        )
        return record, tracker.estimate.normalized

    def fit_anchors(self, valid: list[tuple[int, int]]) -> tuple[list[Exploration], StatFit]:
        """Stabilize noise on the two extreme-batch anchors and fit both statistical laws."""
        lo, hi = _anchor_configs(valid)
        rec_lo, gamma_lo = self.run_anchor(lo)
        rec_hi, gamma_hi = self.run_anchor(hi)
        e_lo = self.env.workload.true_epochs(lo.global_batch)
        e_hi = self.env.workload.true_epochs(hi.global_batch)
        a_n, c_n = fit_noise_vs_batch([(lo.global_batch, gamma_lo), (hi.global_batch, gamma_hi)])
        e_base, e_slope = _epoch_anchor_fit(gamma_lo, e_lo, gamma_hi, e_hi)
        return [rec_lo, rec_hi], StatFit(a_n, c_n, e_base, e_slope)


def _overheads(
    explored: list[Exploration], pricing: PricingModel, shape: VMShape
) -> tuple[float, float]:
    total_t = 0.0
    total_c = 0.0
    for e in explored:
        if e.kind == "skipped":
            continue
        dt = e.elapsed_s()
        total_t += dt
        total_c += run_cost_usd(pricing, shape, e.workers, dt)
    return total_t, total_c


def _epoch_anchor_fit(
    gamma_lo: float, e_lo: float, gamma_hi: float, e_hi: float
) -> tuple[float, float]:
    if gamma_lo == gamma_hi:
        # Flat noise curve: epochs cannot depend on it, pin the mean.
        return (e_lo + e_hi) / 2.0, 0.0
    return fit_epochs_vs_noise([(gamma_lo, e_lo), (gamma_hi, e_hi)])


def _selected_outcome(
    mode: str,
    model: PerfModel,
    explored: list[Exploration],
    cols: PointColumns,
    objective: Objective,
    constraints: Constraints | None,
    pricing: PricingModel,
    shape: VMShape,
) -> SearchOutcome:
    """Select from the predicted points and account the exploration ledger."""
    if not len(cols):
        raise SearchFailedError("no configuration produced a usable prediction")
    points = cols.points()
    rec = select_rows(cols, objective, constraints).recommendation(points.__getitem__)
    overhead_t, overhead_c = _overheads(explored, pricing, shape)
    return SearchOutcome(
        mode=mode,
        chosen=rec.chosen.config if rec.chosen is not None else None,
        model=model,
        explored=tuple(explored),
        overhead_time_s=overhead_t,
        overhead_cost_usd=overhead_c,
        tradeoff_points=tuple(points),
        recommendation=rec,
    )


def full_search(
    env: SimEnvironment,
    bounds: SearchBounds,
    params: SearchParams,
    objective: Objective,
    *,
    pricing: PricingModel | None = None,
    shape: VMShape | None = None,
    constraints: Constraints | None = None,
) -> SearchOutcome:
    """Profile every grid configuration and select from measured predictions.

    The job first trains on the initial (smallest-workers, smallest-batch)
    configuration until the noise estimate stabilizes; that cold-start run
    is productive training and is not charged to the exploration ledger.
    Every grid pair is then profiled for ``profile_iters`` iterations —
    pairs that violate divisibility are recorded as skipped.
    """
    pricing = pricing if pricing is not None else env.cluster.pricing
    shape = shape if shape is not None else env.cluster.shape
    combos = bounds.grid()
    valid = [(k, b) for k, b in combos if b % k == 0]
    if not valid:
        raise SearchFailedError("bounds contain no valid (workers, batch) pair")
    session = _Session(env, params)
    session.run_anchor(_anchor_configs(valid)[0])

    explored: list[Exploration] = []
    measured: dict[tuple[int, int], tuple[float, float]] = {}
    for k, b in combos:
        if b % k != 0:
            explored.append(Exploration(k, b, "skipped", 0, 0.0, 0.0))
            continue
        record, mean_noise, mean_tau = session.run_profile(JobConfig(k, b))
        explored.append(record)
        measured[(k, b)] = (mean_noise, mean_tau)

    rows = [(k, b, noise, tau) for (k, b), (noise, tau) in sorted(measured.items())]
    model = PerfModel(
        stat=_stat_from_measurements(env.workload, measured),
        parallel=fit_iteration_time_best_effort([((k, b / k), tau) for k, b, _, tau in rows]),
        dataset_size=env.workload.dataset_size,
        fingerprint=env.workload.name,
        provenance="full_search",
    )
    # Measured noise and iteration time; rows outside the model's domain drop.
    grid, _ = chain_columns(model, *zip(*rows), pricing, shape)
    return _selected_outcome(
        "full", model, explored, grid.points, objective, constraints, pricing, shape
    )


def _stat_from_measurements(
    workload: SimWorkload, measured: dict[tuple[int, int], tuple[float, float]]
) -> StatFit:
    """Noise curve from the measured noise; epoch line from extreme-batch anchors."""
    a_n, c_n = fit_noise_curve(measured)
    b_lo, ks_lo, b_hi, ks_hi = _extreme_batches(measured)
    e_lo = workload.true_epochs(b_lo)
    gamma_lo = measured[(ks_lo[0], b_lo)][0]
    if b_lo == b_hi:
        e_base, e_slope = e_lo, 0.0
    else:
        e_hi = workload.true_epochs(b_hi)
        gamma_hi = measured[(ks_hi[0], b_hi)][0]
        e_base, e_slope = _epoch_anchor_fit(gamma_lo, e_lo, gamma_hi, e_hi)
    return StatFit(a_n, c_n, e_base, e_slope)


def partial_search(
    env: SimEnvironment,
    bounds: SearchBounds,
    params: SearchParams,
    objective: Objective,
    *,
    pricing: PricingModel | None = None,
    shape: VMShape | None = None,
    constraints: Constraints | None = None,
) -> SearchOutcome:
    """Anchor-and-corner search: two stabilized noise runs plus four timing profiles.

    The anchors sit at the extreme batch sizes on the smallest worker count
    valid at both; iteration time is profiled only at the four grid corners.
    Every other configuration is predicted from the fitted model.
    """
    pricing = pricing if pricing is not None else env.cluster.pricing
    shape = shape if shape is not None else env.cluster.shape
    workers, batch = bounds.columns()
    valid = list(zip(workers.tolist(), batch.tolist()))
    if not valid:
        raise SearchFailedError("bounds contain no valid (workers, batch) pair")
    if len({b for _, b in valid}) < 2:
        raise SearchFailedError("partial search needs at least 2 distinct batch sizes")
    if len({k for k, _ in valid}) < 2:
        raise SearchFailedError("partial search needs at least 2 distinct worker counts")

    session = _Session(env, params)
    explored, stat = session.fit_anchors(valid)
    timing = []
    for config in _corner_configs(valid):
        record, _, mean_tau = session.run_profile(config)
        explored.append(record)
        timing.append(((config.workers, float(mini_batch(config))), mean_tau))

    model = PerfModel(
        stat=stat,
        parallel=fit_iteration_time_best_effort(timing),
        dataset_size=env.workload.dataset_size,
        fingerprint=env.workload.name,
        provenance="partial_search",
    )
    grid = predict_columns(model, workers, batch, pricing, shape)
    return _selected_outcome(
        "partial", model, explored, grid.points, objective, constraints, pricing, shape
    )


def _sampled_configs(
    valid: list[tuple[int, int]], sampling: GridSampling | RandomSampling
) -> dict[int, list[int]]:
    """Batch size -> sorted worker counts to measure."""
    by_b: dict[int, list[int]] = defaultdict(list)
    for k, b in valid:
        by_b[b].append(k)
    if isinstance(sampling, GridSampling):
        return {b: sorted(ks) for b, ks in sorted(by_b.items())}
    rng = np.random.default_rng(sampling.seed)
    bs = sorted(by_b)
    drawn_bs = {bs[i] for i in rng.integers(0, len(bs), size=sampling.bspace)}
    out: dict[int, list[int]] = {}
    for b in sorted(drawn_bs):
        ks = sorted(by_b[b])
        drawn_ks = {ks[i] for i in rng.integers(0, len(ks), size=sampling.kspace)}
        out[b] = sorted(drawn_ks)
    return out


def online_scaling_search(
    env: SimEnvironment,
    bounds: SearchBounds,
    params: SearchParams,
    *,
    pricing: PricingModel | None = None,
    shape: VMShape | None = None,
) -> SearchOutcome:
    """Knee-of-each-batch search with measured iteration times.

    After the two anchor runs fix the statistical fits, every sampled
    (batch, workers) pair gets a short timing profile; its run time is the
    measured iteration time times the predicted iteration count.  Each
    batch size contributes the knee of its worker sweep, and the knee with
    the smallest cost-time product wins.
    """
    pricing = pricing if pricing is not None else env.cluster.pricing
    shape = shape if shape is not None else env.cluster.shape
    workers, batch = bounds.columns()
    valid = list(zip(workers.tolist(), batch.tolist()))
    if not valid:
        raise SearchFailedError("bounds contain no valid (workers, batch) pair")
    if len({b for _, b in valid}) < 2:
        raise SearchFailedError("scaling search needs at least 2 distinct batch sizes")

    session = _Session(env, params)
    explored, stat = session.fit_anchors(valid)
    sampled = []
    for b, ks in _sampled_configs(valid, params.sampling).items():
        for k in ks:
            record, _, mean_tau = session.run_profile(JobConfig(k, b))
            explored.append(record)
            sampled.append((k, b, stat.predicted_noise(b), mean_tau))

    model = PerfModel(
        stat=stat,
        parallel=fit_iteration_time_best_effort(
            [((k, float(b // k)), tau) for k, b, _, tau in sampled]
        ),
        dataset_size=env.workload.dataset_size,
        fingerprint=env.workload.name,
        provenance="partial_search",
    )
    # Predicted noise and measured iteration time; rows outside the model's domain drop.
    grid, _ = chain_columns(model, *zip(*sampled), pricing, shape)
    all_points = grid.points.points()
    knees = [
        kneedle_knee(TradeoffCurve.build(list(batch_points))).point
        for _, batch_points in groupby(all_points, key=lambda p: p.config.global_batch)
    ]
    if not knees:
        raise SearchFailedError("every sampled batch size was skipped")
    best = min_cost_time(knees)
    overhead_t, overhead_c = _overheads(explored, pricing, shape)
    return SearchOutcome(
        mode="scaling",
        chosen=best.config,
        model=model,
        explored=tuple(explored),
        overhead_time_s=overhead_t,
        overhead_cost_usd=overhead_c,
        tradeoff_points=tuple(all_points),
        recommendation=None,
    )


def no_search(
    store,
    fingerprint: str,
    *,
    dataset_size: int | None = None,
    allow_universal: bool = True,
) -> PerfModel:
    """Reuse a stored model, falling back to the coefficient-averaged universal one.

    An exact fingerprint hit is returned with provenance ``reused``.  On a
    miss, and only when allowed, the store's universal average stands in;
    it needs the requesting job's dataset size to scale iteration counts.
    """
    try:
        stored = store.load(fingerprint)
    except ModelNotFoundError:
        if not allow_universal:
            raise
        if dataset_size is None:
            raise ConfigurationError(
                "dataset_size is required to fall back to the universal model"
            )
        return store.universal_average(dataset_size, fingerprint=fingerprint)
    return replace(stored.model, provenance="reused")


def run_search(scenario: Scenario) -> SearchOutcome:
    """Run a scenario's search mode against its simulated environment.

    Mode ``none`` profiles nothing: it predicts the grid from the stored
    model that :func:`no_search` returns and selects from that.
    """
    pricing, shape = scenario.cluster.pricing, scenario.cluster.shape
    mode = scenario.params.mode
    if mode == "none":
        model = no_search(
            ModelStore(scenario.store_dir),
            scenario.workload.name,
            dataset_size=scenario.workload.dataset_size,
            allow_universal=scenario.allow_universal,
        )
        grid = predict_columns(model, *scenario.bounds.columns(), pricing, shape)
        return _selected_outcome(
            "none", model, [], grid.points, scenario.objective, scenario.constraints,
            pricing, shape,
        )
    env = SimEnvironment(scenario.workload, scenario.cluster)
    if mode == "scaling":
        return online_scaling_search(
            env, scenario.bounds, scenario.params, pricing=pricing, shape=shape
        )
    driver = full_search if mode == "full" else partial_search
    return driver(
        env,
        scenario.bounds,
        scenario.params,
        scenario.objective,
        pricing=pricing,
        shape=shape,
        constraints=scenario.constraints,
    )
