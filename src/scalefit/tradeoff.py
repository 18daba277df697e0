"""Cost/time tradeoff curves, pareto filtering, and knee-point detection.

The pareto and knee kernels work on :class:`PointColumns`; the functions on
:class:`TradeoffPoint` lists are thin wrappers over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import JobConfig
from .errors import EmptyInputError, check

KNEEDLE = "kneedle"
FALLBACK = "fallback_min_cost_time"


@dataclass(frozen=True)
class TradeoffPoint:
    """One configuration's predicted (or measured) run time and cost."""

    config: JobConfig
    time_s: float
    cost_usd: float

    def __post_init__(self) -> None:
        check("time_s", self.time_s, 0, lo_open=True, finite=True)
        check("cost_usd", self.cost_usd, 0, finite=True)


def _point_order(p: TradeoffPoint) -> tuple[float, float, int, int]:
    return (p.time_s, p.cost_usd, p.config.workers, p.config.global_batch)


@dataclass(frozen=True)
class PointColumns:
    """Tradeoff points as columns: int64 configurations, float64 time and cost."""

    workers: np.ndarray
    global_batch: np.ndarray
    time_s: np.ndarray
    cost_usd: np.ndarray

    @classmethod
    def of(cls, points: Sequence[TradeoffPoint]) -> "PointColumns":
        return cls(
            np.array([p.config.workers for p in points], dtype=np.int64),
            np.array([p.config.global_batch for p in points], dtype=np.int64),
            np.array([p.time_s for p in points], dtype=float),
            np.array([p.cost_usd for p in points], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.time_s)

    def take(self, rows: np.ndarray) -> "PointColumns":
        return PointColumns(
            self.workers[rows], self.global_batch[rows], self.time_s[rows], self.cost_usd[rows]
        )

    def point(self, row: int) -> TradeoffPoint:
        config = JobConfig(int(self.workers[row]), int(self.global_batch[row]))
        return TradeoffPoint(config, float(self.time_s[row]), float(self.cost_usd[row]))

    def points(self) -> list[TradeoffPoint]:
        """Every row as a :class:`TradeoffPoint`, in row order."""
        return [self.point(row) for row in range(len(self))]

    def order(self, *leading: np.ndarray) -> np.ndarray:
        """Rows in the order of a stable ``np.lexsort`` by ``leading``, then :func:`_point_order`.

        Only the first key sorts every row; each later key sorts just the runs
        of rows that tie on every earlier key.  NaN sorts last and ties with NaN.
        """
        keys = (*leading, self.time_s, self.cost_usd, self.workers, self.global_batch)
        order = keys[0].argsort(kind="stable")
        v = keys[0][order]
        same = v[1:] == v[:-1]  # same[i]: positions i and i + 1 tie on every key so far
        if len(v) > 1 and v[-2] != v[-2]:  # NaNs sort last, so two NaNs end the run
            same |= np.isnan(v[:-1])
        for key in keys[1:]:
            if not np.count_nonzero(same):
                break
            at = (np.concatenate(([False], same)) | np.concatenate((same, [False]))).nonzero()[0]
            rows = order[at]
            order[at] = rows[np.lexsort((key[rows], np.concatenate(([True], ~same)).cumsum()[at]))]
            v = key[order]
            same &= (v[1:] == v[:-1]) | (v[:-1] != v[:-1])
        return order

    def first(self, *leading: np.ndarray) -> int:
        """``order(*leading)[0]`` by an argmin cascade over the rows still tied."""
        rows = np.arange(len(self))
        for key in (*leading, self.time_s, self.cost_usd, self.workers, self.global_batch):
            v = key[rows]
            low = v[v.argmin()]
            if low != low:  # argmin finds NaN first, but NaN sorts last
                low = np.fmin.reduce(v)  # NaN only if every value is, and then all tie
            if low == low:
                rows = rows[v == low]
            if len(rows) == 1:
                break
        return int(rows[0])


@dataclass(frozen=True)
class TradeoffCurve:
    """Points sorted by time with exact time ties collapsed to the cheapest."""

    points: tuple[TradeoffPoint, ...]

    @classmethod
    def build(cls, points: list[TradeoffPoint] | tuple[TradeoffPoint, ...]) -> "TradeoffCurve":
        if not points:
            raise EmptyInputError("cannot build a curve from zero points")
        by_time: dict[float, TradeoffPoint] = {}
        for p in sorted(points, key=_point_order):
            by_time.setdefault(p.time_s, p)
        ordered = tuple(by_time[t] for t in sorted(by_time))
        return cls(points=ordered)


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted ``keys`` that begin a run of equal keys."""
    starts = np.zeros(len(keys[0]), dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def pareto_rows(cols: PointColumns) -> np.ndarray:
    """Rows of a non-empty column set on the pareto frontier, in point order.

    Sort-and-sweep (Kung, Luccio & Preparata, JACM 1975): :meth:`PointColumns.order`
    sorts by time, then by cost, workers and batch only among equal times, and a
    walk over the groups of equal time keeps a group's cheapest rows when that
    cost is strictly below every earlier group's; exact duplicates all survive.
    """
    order = cols.order()
    t, c = cols.time_s[order], cols.cost_usd[order]
    new_time = _run_starts(t)
    group = new_time.cumsum() - 1
    cheapest = c[new_time]
    earlier = np.concatenate(([math.inf], np.minimum.accumulate(cheapest)[:-1]))
    keep = (cheapest < earlier)[group] & (c == cheapest[group])
    return order[keep]


def pareto_frontier(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """Points not dominated in both time and cost, sorted by time.

    A point dominates another when it is no worse on both axes and strictly
    better on at least one.  So of several points at one time only the
    cheapest survive, a point survives only if it is strictly cheaper than
    every faster point, and exact duplicate (time, cost) points all survive.
    Ties in the output order break by workers, then batch.  See
    :func:`pareto_rows`.
    """
    if not points:
        raise EmptyInputError("cannot take the pareto frontier of zero points")
    return [points[i] for i in pareto_rows(PointColumns.of(points)).tolist()]


def frontier_knee(cols: PointColumns) -> int:
    """Kneedle knee row of a non-empty column set's frontier, one curve in point order."""
    frontier = pareto_rows(cols)
    curve = frontier[_run_starts(cols.time_s[frontier])]
    picks, _ = _curve_knees(cols.take(curve), np.zeros(1, dtype=np.intp))
    return int(curve[picks[0]])


@dataclass(frozen=True)
class KneeResult:
    """Knee selection and the method that made it."""

    point: TradeoffPoint
    method: str


def knee_rows(cols: PointColumns, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kneedle knee of each group's curve in a non-empty column set, by ascending group.

    Each group's rows form a curve as :meth:`TradeoffCurve.build` does: in
    :meth:`PointColumns.order` on group, with exact time ties collapsed to the
    first row.  Returns the knee row of every group and whether kneedle picked
    it (see :func:`kneedle_knee`) rather than the fallback.
    """
    order = cols.order(group)
    g = group[order]
    first = _run_starts(g, cols.time_s[order])
    rows = order[first]
    picks, kneedle = _curve_knees(cols.take(rows), _run_starts(g[first]).nonzero()[0])
    return rows[picks], kneedle


def _ordered_sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``errors.ordered_sum`` of each of one or more ``values[s:s + n]``, bit for bit: one add
    per position over the segments still running, a prefix when taken longest first."""
    by_len = (-counts).argsort(kind="stable")
    at, neg, sums = starts[by_len], -counts[by_len], np.zeros(len(counts))
    for j, running in enumerate(np.searchsorted(neg, np.arange(0, neg[0], -1)).tolist()):
        sums[:running] += values[j:][at[:running]]
    return sums[by_len.argsort()]


def _curve_knees(curve: PointColumns, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knee position of each curve in ``curve``, whose curves begin at ``starts``.

    Every curve is sorted by time with distinct times.  Returns the knee
    positions and whether kneedle, not the fallback, picked each.
    """
    t, c = curve.time_s, curve.cost_usd
    ends = np.concatenate((starts[1:], [len(t)])) - 1
    counts = ends - starts + 1
    seg = np.arange(len(starts)).repeat(counts)
    c_lo, c_hi = np.minimum.reduceat(c, starts), np.maximum.reduceat(c, starts)
    kneedle = (counts >= 3) & (c_hi != c_lo)
    with np.errstate(all="ignore"):
        # Normalize both axes to [0, 1] per curve; rows of fallback curves
        # may turn NaN here and are never read.
        t0 = t[starts]
        x = (t - t0[seg]) / (t[ends] - t0)[seg]
        y = (c - c_lo[seg]) / (c_hi - c_lo)[seg]
        y0, y1 = y[starts], y[ends]
        chord_dev = y - (y0[seg] + (y1 - y0)[seg] * x)
        # Interior mean above the endpoint chord means concave, below means
        # convex.  The sums add in order; NumPy's pairwise sum can flip the
        # sign of a mean near zero.
        interior = counts - 2
        concave = _ordered_sums(chord_dev[1:], starts, interior) / interior > 0
        # Map each curve to the increasing-concave canonical form.
        increasing, concave = (y1 >= y0)[seg], concave[seg]
        d = np.where(
            increasing,
            np.where(concave, y - x, x - y),
            np.where(concave, x + y - 1.0, (1.0 - y) - x),
        )
        # First maximal gap, so gap ties break toward smaller time.
        at_top = d == np.maximum.reduceat(d, starts)[seg]
        picks = np.minimum.reduceat(np.where(at_top, np.arange(len(d)), len(d)), starts)
        if not kneedle.all():
            # Fallback: smallest cost-time product, ties toward time, cost,
            # workers, batch.  Only the fallback curves' rows are ordered.
            rows = (~kneedle)[seg].nonzero()[0]
            order = curve.take(rows).order(seg[rows], t[rows] * c[rows])
            picks[~kneedle] = rows[order[_run_starts(seg[rows])]]
    return picks, kneedle


def kneedle_knee(curve: TradeoffCurve) -> KneeResult:
    """Offline kneedle knee of a tradeoff curve.

    Normalizes both axes to [0, 1], classifies direction and curvature from
    the endpoints and the interior-mean-versus-chord test, maps the curve to
    the increasing-concave canonical form, and returns the point with the
    maximum gap between the canonical value and the normalized time.  Gap
    ties break toward smaller time.  Curves with fewer than three
    points, or flat-cost curves that normalization cannot separate, fall
    back to the minimum cost-time product.  Shares :func:`knee_rows`' arithmetic.
    """
    pts = curve.points
    if not pts:
        raise EmptyInputError("cannot select from zero points")
    picks, kneedle = _curve_knees(PointColumns.of(pts), np.zeros(1, dtype=np.intp))
    return KneeResult(point=pts[int(picks[0])], method=KNEEDLE if kneedle[0] else FALLBACK)
