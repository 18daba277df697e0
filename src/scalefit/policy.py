"""Objective-driven selection over predicted tradeoff points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, EmptyInputError, check
from .tradeoff import PointColumns, TradeoffPoint, frontier_knee

OBJECTIVE_KINDS = ("deadline", "budget", "knee_point", "min_cost_time")


def _check_caps(caps: Objective | Constraints) -> None:
    for name in ("deadline_s", "budget_usd"):
        value = getattr(caps, name)
        if value is not None:
            check(name, value, 0, lo_open=True, finite=True)


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


class RowPick(NamedTuple):
    """:func:`select_rows`' answer as rows of the columns it was given."""

    chosen: int | None
    feasible_count: int
    nearest_miss: int | None

    def recommendation(self, point_at: Callable[[int], TradeoffPoint]) -> Recommendation:
        return Recommendation(
            chosen=None if self.chosen is None else point_at(self.chosen),
            feasible=self.chosen is not None,
            feasible_count=self.feasible_count,
            nearest_miss=None if self.nearest_miss is None else point_at(self.nearest_miss),
        )


def _tightest(*caps: float | None) -> float | None:
    """The smallest given cap as a float; an integer past the float range caps nothing."""
    given = [cap for cap in caps if cap is not None]
    if not given:
        return None
    try:
        return float(min(given))
    except OverflowError:
        return math.inf


def select_rows(
    cols: PointColumns,
    objective: Objective,
    constraints: Constraints | None = None,
) -> RowPick:
    """Pick the best row for the objective among feasible ones; see :func:`select`.

    Each choice is the first row of a stable ``np.lexsort`` on the objective's
    keys and tie-breaks, found by :meth:`PointColumns.first`'s argmin cascade.
    """
    if not len(cols):
        raise EmptyInputError("cannot select from zero points")
    constraints = constraints if constraints is not None else Constraints()
    t_cap = _tightest(objective.deadline_s, constraints.deadline_s)
    c_cap = _tightest(objective.budget_usd, constraints.budget_usd)

    t, c = cols.time_s, cols.cost_usd
    feasible = np.ones(len(cols), dtype=bool)
    if t_cap is not None:
        feasible &= t <= t_cap
    if c_cap is not None:
        feasible &= c <= c_cap
    rows = np.flatnonzero(feasible)
    if not len(rows):
        # Total violation: the time excess, then the cost excess, added to 0.0.
        violation = np.zeros(len(cols))
        if t_cap is not None:
            violation = violation + np.where(t > t_cap, t - t_cap, 0.0)
        if c_cap is not None:
            violation = violation + np.where(c > c_cap, c - c_cap, 0.0)
        nearest = cols.first(violation, c)
        return RowPick(chosen=None, feasible_count=0, nearest_miss=int(nearest))

    sub = cols if len(rows) == len(cols) else cols.take(rows)
    t, c = sub.time_s, sub.cost_usd
    if objective.kind == "knee_point":
        best = frontier_knee(sub)
    else:
        with np.errstate(over="ignore"):
            leading = {
                "deadline": (c,),
                "budget": (t,),
                "min_cost_time": (t * c, c),
            }[objective.kind]
        best = sub.first(*leading)
    return RowPick(chosen=int(rows[best]), feasible_count=len(rows), nearest_miss=None)


def select(
    points: list[TradeoffPoint],
    objective: Objective,
    constraints: Constraints | None = None,
) -> Recommendation:
    """Pick the best point for the objective among feasible ones.

    ``deadline`` ranks feasible points by cost, ``budget`` by time,
    ``min_cost_time`` by the cost-time product and ``knee_point`` takes the
    kneedle knee of their pareto frontier.  Residual ties break toward
    smaller cost, then time, then workers, then batch, for every objective
    kind.  When no point is feasible the recommendation is marked
    infeasible and carries the point with the smallest total constraint
    violation.  Wraps :func:`select_rows`.
    """
    pick = select_rows(PointColumns.of(points), objective, constraints)
    return pick.recommendation(points.__getitem__)
