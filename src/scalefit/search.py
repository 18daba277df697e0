"""Configuration-search drivers over a profiling environment.

Every profiling mode is one :class:`_Session` over the grid's valid pairs.
The session runs each configuration, advances one iteration cursor and
keeps one exploration ledger; every run is recorded with its iteration
count, restore overhead and mean measured iteration time, and the reported
search overhead is exactly the sum of ``restore + iterations * mean_time``
over those records, priced at each record's own cluster size.  It fits both
statistical laws once, with :func:`~scalefit.perfmodel.fit_stat`: the noise
curve from the noise the mode measured, and the epoch line from the
workload's true epochs at the extreme batch sizes, which are read, not
measured.  One model-and-select step then fits iteration time on the
profiled ``(K, B / K)`` points and picks a configuration.  The modes differ
only in what they run and what they predict:

* ``full_search`` trains an uncharged cold start, profiles every grid pair
  briefly (indivisible pairs are recorded as skipped), fits noise over all
  of them, and predicts each pair from its measured iteration time.
* ``partial_search`` stabilizes noise on two extreme-batch anchor runs,
  profiles iteration time at the four grid corners only, and predicts the
  whole grid from the fitted model.
* ``online_scaling_search`` stabilizes noise on the same two anchors,
  samples batch sizes and worker counts, and predicts each sampled pair
  from its measured iteration time.

``no_search`` skips profiling entirely and reuses a stored model.
``run_search`` runs a scenario's mode, any of the four, against its
simulated environment.  Every mode selects the same way: the scenario's
objective and constraints pick among the predicted points with
:func:`~scalefit.policy.select_rows`, and when nothing is feasible the
outcome has no chosen configuration and its recommendation names the
nearest miss.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .config import (
    JobConfig,
    PricingModel,
    SearchBounds,
    VMShape,
    run_cost_usd,
)
from .errors import (
    MAX_GRID_VALUE, ConfigurationError, ModelNotFoundError, ModelOutOfDomainError,
    SearchFailedError, check, ordered_sum,
)
from .noise import EwmaConfig, NoiseTracker, normalized_noises
from .perfmodel import (
    PerfModel,
    StatFit,
    chain_columns,
    fit_iteration_time_best_effort,
    fit_stat,
    predict_columns,
)
from .policy import Constraints, Objective, Recommendation, select_rows
from .simulator import SimEnvironment
from .store import ModelStore
from .tradeoff import PointColumns, TradeoffPoint

if TYPE_CHECKING:
    from .scenario import Scenario

SEARCH_MODES = ("full", "partial", "scaling", "none")
# Most stability windows an anchor synthesizes in one ``profile`` call.
# Larger calls cost less per row but hold more rows at once.  At 4, the
# search-anchor benchmark's peak RSS is within 0.2 MB of one window per
# call, no more than moving the same code to another directory moves it.
_ANCHOR_CALL_CHUNKS = 4
# Most draws of a random sampling's bspace or kspace; each is drawn in one array.
_MAX_DRAWS = 2**20


@dataclass(frozen=True)
class GridSampling:
    """Exhaustive deterministic sampling over the valid grid."""


@dataclass(frozen=True)
class RandomSampling:
    """Seeded uniform sampling of batch sizes and worker counts (at most 2**20 draws each)."""

    seed: int
    bspace: int = 4
    kspace: int = 4

    def __post_init__(self) -> None:
        check("seed", self.seed, 0)
        check("bspace", self.bspace, 1, _MAX_DRAWS)
        check("kspace", self.kspace, 1, _MAX_DRAWS)


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
        check("profile_iters", self.profile_iters, 1, MAX_GRID_VALUE)
        check("max_stabilize_iters", self.max_stabilize_iters, 1, MAX_GRID_VALUE)


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
    recommendation: Recommendation


class _Session:
    """One profiling session: the grid, the iteration cursor and the exploration ledger.

    Pricing and shape default to the environment's cluster.  The anchors sit
    at the extreme batches, on the smallest worker count valid at both if any.
    """

    def __init__(self, env: SimEnvironment, bounds: SearchBounds, params: SearchParams,
                 pricing: PricingModel | None, shape: VMShape | None, mode: str) -> None:
        self.env, self.params, self.mode = env, params, mode
        self.pricing = pricing if pricing is not None else env.cluster.pricing
        self.shape = shape if shape is not None else env.cluster.shape
        self.workers, self.batch = bounds.columns()
        self.valid = list(zip(self.workers.tolist(), self.batch.tolist()))
        if not self.valid:
            raise SearchFailedError("bounds contain no valid (workers, batch) pair")
        if mode != "full" and len({b for _, b in self.valid}) < 2:
            raise SearchFailedError(f"{mode} search needs at least 2 distinct batch sizes")
        if mode == "partial" and len({k for k, _ in self.valid}) < 2:
            raise SearchFailedError("partial search needs at least 2 distinct worker counts")
        b_lo = min(b for _, b in self.valid)
        b_hi = max(b for _, b in self.valid)
        ks_lo = sorted(k for k, b in self.valid if b == b_lo)
        ks_hi = sorted(k for k, b in self.valid if b == b_hi)
        self.extremes = (b_lo, ks_lo, b_hi, ks_hi)
        common = set(ks_lo) & set(ks_hi)
        k_lo, k_hi = (min(common),) * 2 if common else (ks_lo[0], ks_hi[0])
        self.anchors = (JobConfig(k_lo, b_lo), JobConfig(k_hi, b_hi))
        self.cursor = 0
        self.explored: list[Exploration] = []

    def run_anchor(self, config: JobConfig) -> tuple[Exploration, float]:
        """Run until the noise estimate stabilizes: (record, noise).

        Profiles in chunks of ``stability_window`` iterations, at most
        ``_ANCHOR_CALL_CHUNKS`` per ``profile`` call: first the chunks up to
        the one holding the first row that can stabilize the estimate (row
        ``warmup_iters - 1``) in as few calls as that allows, then 1, 2,
        4... chunks per call.  After the stop, every row past it is given
        back to the environment's stream.  A row's draws do not depend on
        the call that reads them, so the record, the noise, the cursor and
        every later draw are those of one ``profile`` call over the rows the
        run used.  A multi-chunk call whose synthesized samples overflow
        gives all its draws back, and the run goes on one chunk per call, so
        an overflow is raised only from the chunk where a chunk-by-chunk run
        meets it.
        """
        ewma, limit = self.params.ewma, self.params.max_stabilize_iters
        window = ewma.stability_window
        tracker = NoiseTracker(config.workers, ewma)
        # Chunks up to the one holding the first row that can stop the run.
        warm, growth, cap = -(-min(ewma.warmup_iters, limit) // window), 1, _ANCHOR_CALL_CHUNKS
        taus, seen, stop = [], 0, None
        while stop is None and seen < limit:
            if seen // window < warm:
                chunks = min(warm - seen // window, cap)
            else:
                chunks, growth = growth, min(2 * growth, cap)
            rows = min(chunks * window, limit - seen)
            try:
                batch = self.env.profile(config.workers, config.global_batch, rows, self.cursor)
            except ModelOutOfDomainError:
                if rows <= window:
                    raise
                self.env.give_back(rows)
                growth = cap = 1
                continue
            stop = tracker.consume(batch)
            used = rows if stop is None else stop + 1
            self.env.give_back(rows - used)
            taus.append(batch.iteration_time_s[:used])
            del batch  # frees its columns before the next call synthesizes more
            seen += used
            self.cursor += used
        if stop is None:
            raise SearchFailedError(
                f"noise did not stabilize within {limit} "
                f"iterations at K={config.workers}, B={config.global_batch}"
            )
        record = Exploration(config.workers, config.global_batch, "anchor", seen,
                             ordered_sum(np.concatenate(taus)) / seen,
                             self.env.cluster.restore_overhead_s)
        return record, tracker.estimate.normalized

    def fit_anchors(self) -> StatFit:
        """Stabilize noise on the two anchors, record both runs and fit the statistical laws."""
        noise = {}
        for c in self.anchors:
            record, noise[(c.workers, c.global_batch)] = self.run_anchor(c)
            self.explored.append(record)
        return self.fit(noise)

    def profile(
        self, pairs: Iterable[tuple[int, int]]
    ) -> tuple[dict[tuple[int, int], float], list[tuple[int, int, float]]]:
        """Short profiling passes: (mean normalized noise by pair, (K, B, mean tau) rows).

        Each pair runs ``profile_iters`` iterations; a pair whose batch its
        worker count does not divide is recorded as skipped and not run.
        """
        noise: dict[tuple[int, int], float] = {}
        rows = []
        for k, b in pairs:
            if b % k != 0:
                self.explored.append(Exploration(k, b, "skipped", 0, 0.0, 0.0))
                continue
            batch = self.env.profile(k, b, self.params.profile_iters, self.cursor)
            self.cursor += len(batch)
            noises = normalized_noises(batch)
            noise[(k, b)] = ordered_sum(noises) / len(noises) if len(noises) else 0.0
            mean_tau = ordered_sum(batch.iteration_time_s) / len(batch)
            self.explored.append(Exploration(
                k, b, "profile", len(batch), mean_tau, self.env.cluster.restore_overhead_s
            ))
            rows.append((k, b, mean_tau))
        return noise, rows

    def fit(self, noise: dict[tuple[int, int], float]) -> StatFit:
        """Both statistical laws: measured noise, and true epochs at the extreme batches."""
        b_lo, _, b_hi, _ = self.extremes
        epochs = [(b, self.env.workload.true_epochs(b)) for b in dict.fromkeys((b_lo, b_hi))]
        return fit_stat(noise, epochs)

    def select(self, stat: StatFit, rows: list[tuple[int, int, float]], objective: Objective,
               constraints: Constraints | None, whole_grid: bool = False) -> SearchOutcome:
        """Fit iteration time on the profiled rows, predict, and select.

        ``whole_grid`` predicts every valid pair from the model; otherwise
        each profiled row is predicted from its fitted noise and measured
        iteration time, and rows outside the model's domain drop.
        """
        model = PerfModel(
            stat=stat,
            parallel=fit_iteration_time_best_effort([((k, b / k), tau) for k, b, tau in rows]),
            dataset_size=self.env.workload.dataset_size,
            fingerprint=self.env.workload.name,
            provenance=f"{self.mode}_search",
        )
        if whole_grid:
            grid = predict_columns(model, self.workers, self.batch, self.pricing, self.shape)
        else:
            ks, bs, taus = zip(*rows)
            noise = [stat.predicted_noise(b) for b in bs]
            grid, _ = chain_columns(model, ks, bs, noise, taus, self.pricing, self.shape)
        return _selected_outcome(
            self.mode, model, self.explored, grid.points, objective, constraints,
            self.pricing, self.shape,
        )


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
    overhead_t = overhead_c = 0.0
    for e in explored:
        if e.kind != "skipped":
            dt = e.elapsed_s()
            overhead_t += dt
            overhead_c += run_cost_usd(pricing, shape, e.workers, dt)
    check("overhead_time_s", overhead_t, 0, finite=True, error=SearchFailedError)
    check("overhead_cost_usd", overhead_c, 0, finite=True, error=SearchFailedError)
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
    """Profile every grid configuration and select from its measured iteration times.

    The job first trains on the smallest-batch anchor until the noise
    estimate stabilizes; that cold-start run is productive training and is
    not charged to the exploration ledger.  Every grid pair is then profiled
    for ``profile_iters`` iterations — pairs that violate divisibility are
    recorded as skipped — and predicted from its mean iteration time and the
    noise curve fitted over all pairs.
    """
    session = _Session(env, bounds, params, pricing, shape, "full")
    session.run_anchor(session.anchors[0])
    noise, rows = session.profile(bounds.grid())
    return session.select(session.fit(noise), rows, objective, constraints)


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

    The anchors sit at the extreme batch sizes; iteration time is profiled
    only at the unique corners, the extreme worker counts at each extreme
    batch.  Every configuration is predicted from the fitted model.
    """
    session = _Session(env, bounds, params, pricing, shape, "partial")
    stat = session.fit_anchors()
    b_lo, ks_lo, b_hi, ks_hi = session.extremes
    corners = [(ks_lo[0], b_lo), (ks_hi[0], b_hi), (ks_lo[-1], b_lo), (ks_hi[-1], b_hi)]
    _, rows = session.profile(dict.fromkeys(corners))
    return session.select(stat, rows, objective, constraints, whole_grid=True)


def _sampled_pairs(
    valid: list[tuple[int, int]], sampling: GridSampling | RandomSampling
) -> list[tuple[int, int]]:
    """(K, B) pairs to measure, in (B, K) order."""
    by_b: dict[int, list[int]] = defaultdict(list)
    for k, b in sorted(valid, key=lambda pair: pair[::-1]):
        by_b[b].append(k)
    if isinstance(sampling, RandomSampling):
        rng = np.random.default_rng(sampling.seed)
        bs = list(by_b)
        drawn = sorted({bs[i] for i in rng.integers(0, len(bs), size=sampling.bspace)})
        by_b = {
            b: sorted({by_b[b][i] for i in rng.integers(0, len(by_b[b]), size=sampling.kspace)})
            for b in drawn
        }
    return [(k, b) for b, ks in by_b.items() for k in ks]


def online_scaling_search(
    env: SimEnvironment,
    bounds: SearchBounds,
    params: SearchParams,
    objective: Objective,
    *,
    pricing: PricingModel | None = None,
    shape: VMShape | None = None,
    constraints: Constraints | None = None,
) -> SearchOutcome:
    """Anchor search with a measured iteration time for every sampled pair.

    After the two anchor runs fix the statistical fits, every sampled
    (batch, workers) pair gets a short timing profile; its run time is the
    measured iteration time times the predicted iteration count.  The
    objective and constraints then select among the sampled pairs, as in
    every other mode.
    """
    session = _Session(env, bounds, params, pricing, shape, "scaling")
    stat = session.fit_anchors()
    _, rows = session.profile(_sampled_pairs(session.valid, params.sampling))
    return session.select(stat, rows, objective, constraints)


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
    driver = {"full": full_search, "partial": partial_search, "scaling": online_scaling_search}
    return driver[mode](
        SimEnvironment(scenario.workload, scenario.cluster),
        scenario.bounds,
        scenario.params,
        scenario.objective,
        pricing=pricing,
        shape=shape,
        constraints=scenario.constraints,
    )
