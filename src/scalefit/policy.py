"""Objective-driven selection over predicted tradeoff points."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, EmptyInputError
from .tradeoff import TradeoffCurve, TradeoffPoint, kneedle_knee, pareto_frontier

OBJECTIVE_KINDS = ("deadline", "budget", "knee_point", "min_cost_time")


def _check_caps(caps: Objective | Constraints) -> None:
    for name in ("deadline_s", "budget_usd"):
        value = getattr(caps, name)
        if value is not None and not 0 < value < math.inf:
            raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Objective:
    """What the user optimizes for.

    ``deadline`` minimizes cost under a time cap, ``budget`` minimizes time
    under a cost cap, ``knee_point`` picks the knee of the pareto frontier,
    and ``min_cost_time`` minimizes the cost-time product.
    """

    kind: str
    deadline_s: float | None = None
    budget_usd: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigurationError(
                f"objective kind must be one of {OBJECTIVE_KINDS}, got {self.kind!r}"
            )
        _check_caps(self)
        if self.kind == "deadline" and self.deadline_s is None:
            raise ConfigurationError("deadline objective needs deadline_s > 0")
        if self.kind == "budget" and self.budget_usd is None:
            raise ConfigurationError("budget objective needs budget_usd > 0")

    @classmethod
    def deadline(cls, deadline_s: float) -> "Objective":
        return cls(kind="deadline", deadline_s=deadline_s)

    @classmethod
    def budget(cls, budget_usd: float) -> "Objective":
        return cls(kind="budget", budget_usd=budget_usd)

    @classmethod
    def knee_point(cls) -> "Objective":
        return cls(kind="knee_point")

    @classmethod
    def min_cost_time(cls) -> "Objective":
        return cls(kind="min_cost_time")


@dataclass(frozen=True)
class Constraints:
    """Extra feasibility caps applied on top of the objective's own cap."""

    deadline_s: float | None = None
    budget_usd: float | None = None

    def __post_init__(self) -> None:
        _check_caps(self)


@dataclass(frozen=True)
class Recommendation:
    chosen: TradeoffPoint | None
    feasible: bool
    feasible_count: int
    nearest_miss: TradeoffPoint | None


def _violation(p: TradeoffPoint, t_cap: float | None, c_cap: float | None) -> float:
    v = 0.0
    if t_cap is not None and p.time_s > t_cap:
        v += p.time_s - t_cap
    if c_cap is not None and p.cost_usd > c_cap:
        v += p.cost_usd - c_cap
    return v


def select(
    points: list[TradeoffPoint],
    objective: Objective,
    constraints: Constraints | None = None,
) -> Recommendation:
    """Pick the best point for the objective among feasible ones.

    Residual ties break toward smaller cost, then time, then workers, then
    batch, for every objective kind.  When no point is feasible the
    recommendation is marked infeasible and carries the point with the
    smallest total constraint violation.
    """
    if not points:
        raise EmptyInputError("cannot select from zero points")
    constraints = constraints if constraints is not None else Constraints()

    t_caps = [v for v in (objective.deadline_s, constraints.deadline_s) if v is not None]
    c_caps = [v for v in (objective.budget_usd, constraints.budget_usd) if v is not None]
    t_cap = min(t_caps) if t_caps else None
    c_cap = min(c_caps) if c_caps else None

    feasible = [
        p
        for p in points
        if (t_cap is None or p.time_s <= t_cap)
        and (c_cap is None or p.cost_usd <= c_cap)
    ]
    if not feasible:
        nearest = min(
            points,
            key=lambda p: (
                _violation(p, t_cap, c_cap),
                p.cost_usd,
                p.time_s,
                p.config.workers,
                p.config.global_batch,
            ),
        )
        return Recommendation(
            chosen=None,
            feasible=False,
            feasible_count=0,
            nearest_miss=nearest,
        )

    if objective.kind == "deadline":
        chosen = min(
            feasible,
            key=lambda p: (p.cost_usd, p.time_s, p.config.workers, p.config.global_batch),
        )
    elif objective.kind == "budget":
        chosen = min(
            feasible,
            key=lambda p: (p.time_s, p.cost_usd, p.config.workers, p.config.global_batch),
        )
    elif objective.kind == "min_cost_time":
        chosen = min(
            feasible,
            key=lambda p: (
                p.time_s * p.cost_usd,
                p.cost_usd,
                p.time_s,
                p.config.workers,
                p.config.global_batch,
            ),
        )
    else:
        frontier = pareto_frontier(feasible)
        chosen = kneedle_knee(TradeoffCurve.build(frontier)).point
    return Recommendation(
        chosen=chosen,
        feasible=True,
        feasible_count=len(feasible),
        nearest_miss=None,
    )
