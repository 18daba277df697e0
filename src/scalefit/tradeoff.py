"""Cost/time tradeoff curves, pareto filtering, and knee-point detection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .config import JobConfig
from .errors import ConfigurationError, EmptyInputError


@dataclass(frozen=True)
class TradeoffPoint:
    """One configuration's predicted (or measured) run time and cost."""

    config: JobConfig
    time_s: float
    cost_usd: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_s) or self.time_s <= 0:
            raise ConfigurationError(f"time_s must be finite and > 0, got {self.time_s}")
        if not math.isfinite(self.cost_usd) or self.cost_usd < 0:
            raise ConfigurationError(
                f"cost_usd must be finite and >= 0, got {self.cost_usd}"
            )


def _point_order(p: TradeoffPoint) -> tuple[float, float, int, int]:
    return (p.time_s, p.cost_usd, p.config.workers, p.config.global_batch)


@dataclass(frozen=True)
class TradeoffCurve:
    """Points sorted by time with exact time ties collapsed to the cheapest."""

    points: tuple[TradeoffPoint, ...]
    fixed_batch: int | None = None

    @classmethod
    def build(
        cls, points: list[TradeoffPoint] | tuple[TradeoffPoint, ...],
        fixed_batch: int | None = None,
    ) -> "TradeoffCurve":
        if not points:
            raise EmptyInputError("cannot build a curve from zero points")
        by_time: dict[float, TradeoffPoint] = {}
        for p in sorted(points, key=_point_order):
            by_time.setdefault(p.time_s, p)
        ordered = tuple(by_time[t] for t in sorted(by_time))
        return cls(points=ordered, fixed_batch=fixed_batch)


def pareto_frontier(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """Points not dominated in both time and cost, sorted by time.

    A point dominates another when it is no worse on both axes and strictly
    better on at least one.  So of several points at one time only the
    cheapest survive, a point survives only if it is strictly cheaper than
    every faster point, and exact duplicate (time, cost) points all survive.
    Ties in the output order break by workers, then batch.

    Sort-and-sweep in O(n log n) (Kung, Luccio & Preparata, JACM 1975): sort
    by time then cost and walk the groups of equal time, keeping a group's
    cheapest points when they beat the best cost seen so far.
    """
    if not points:
        raise EmptyInputError("cannot take the pareto frontier of zero points")
    frontier = []
    best_cost = math.inf
    for _, group in groupby(sorted(points, key=_point_order), key=lambda p: p.time_s):
        cheapest = next(group)
        if cheapest.cost_usd >= best_cost:
            continue
        best_cost = cheapest.cost_usd
        frontier.append(cheapest)
        for p in group:
            if p.cost_usd != best_cost:
                break
            frontier.append(p)
    return frontier


def min_cost_time(points: list[TradeoffPoint]) -> TradeoffPoint:
    """Point with the smallest cost-time product.

    Exact product ties break toward smaller time, then cost, then workers,
    then batch.
    """
    if not points:
        raise EmptyInputError("cannot select from zero points")
    return min(points, key=lambda p: (p.time_s * p.cost_usd, *_point_order(p)))


@dataclass(frozen=True)
class KneeResult:
    """Knee selection plus the difference curve for diagnostics."""

    point: TradeoffPoint
    method: str
    difference: tuple[float, ...] = ()


def kneedle_knee(curve: TradeoffCurve) -> KneeResult:
    """Offline kneedle knee of a tradeoff curve.

    Normalizes both axes to [0, 1], classifies direction and curvature from
    the endpoints and the interior-mean-versus-chord test, maps the curve to
    the increasing-concave canonical form, and returns the point with the
    maximum difference between the canonical value and the normalized time.
    Difference ties break toward smaller time.  Curves with fewer than three
    points, or flat-cost curves that normalization cannot separate, fall
    back to the minimum cost-time product.
    """
    pts = curve.points
    if len(pts) < 3:
        return KneeResult(point=min_cost_time(list(pts)), method="fallback_min_cost_time")
    t = [p.time_s for p in pts]
    c = [p.cost_usd for p in pts]
    t_span = t[-1] - t[0]
    c_lo, c_hi = min(c), max(c)
    if c_hi == c_lo:
        return KneeResult(point=min_cost_time(list(pts)), method="fallback_min_cost_time")
    x = [(ti - t[0]) / t_span for ti in t]
    y = [(ci - c_lo) / (c_hi - c_lo) for ci in c]

    increasing = y[-1] >= y[0]
    # Interior mean above the endpoint chord means concave, below means convex.
    chord_dev = [
        y[i] - (y[0] + (y[-1] - y[0]) * x[i]) for i in range(1, len(pts) - 1)
    ]
    concave = sum(chord_dev) / len(chord_dev) > 0

    if increasing and concave:
        d = [yi - xi for xi, yi in zip(x, y)]
    elif increasing and not concave:
        d = [xi - yi for xi, yi in zip(x, y)]
    elif not increasing and not concave:
        d = [(1.0 - yi) - xi for xi, yi in zip(x, y)]
    else:
        d = [xi + yi - 1.0 for xi, yi in zip(x, y)]

    best = 0
    for i in range(1, len(d)):
        if d[i] > d[best]:
            best = i
    return KneeResult(point=pts[best], method="kneedle", difference=tuple(d))
