"""Time/cost tradeoff curves: pareto filtering and knee detection."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import all_pairs_frontier, batched_points, scalar_kneedle
from scalefit.config import JobConfig
from scalefit.errors import ConfigurationError, EmptyInputError
from scalefit.policy import Objective, select
from scalefit.tradeoff import (
    FALLBACK,
    KNEEDLE,
    PointColumns,
    TradeoffCurve,
    TradeoffPoint,
    knee_rows,
    kneedle_knee,
    pareto_frontier,
    pareto_rows,
)


class TestPointAndCurve:
    def test_point_validation(self, point):
        with pytest.raises(ConfigurationError):
            TradeoffPoint(JobConfig(1, 1), 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            TradeoffPoint(JobConfig(1, 1), 1.0, -1.0)
        assert point(1.0, 0.0).cost_usd == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_rejects_non_finite_values_naming_the_field(self, bad):
        with pytest.raises(ConfigurationError, match="time_s"):
            TradeoffPoint(JobConfig(1, 1), bad, 1.0)
        with pytest.raises(ConfigurationError, match="cost_usd"):
            TradeoffPoint(JobConfig(1, 1), 1.0, bad)

    def test_build_sorts_by_time(self, point):
        curve = TradeoffCurve.build([point(3, 1), point(1, 3), point(2, 2)])
        assert [p.time_s for p in curve.points] == [1, 2, 3]

    def test_build_collapses_duplicate_times_to_cheapest(self, point):
        a = point(2, 5, workers=1)
        b = point(2, 3, workers=2)
        curve = TradeoffCurve.build([a, b])
        assert len(curve.points) == 1
        assert curve.points[0].cost_usd == 3

    def test_build_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            TradeoffCurve.build([])


class TestPareto:
    def test_example(self, point):
        pts = [point(1, 5), point(2, 2), point(3, 4)]
        front = pareto_frontier(pts)
        assert [(p.time_s, p.cost_usd) for p in front] == [(1, 5), (2, 2)]

    def test_no_point_dominates_another(self, point):
        rng = np.random.default_rng(9)
        for _ in range(50):
            pts = [
                point(float(t), float(c))
                for t, c in rng.uniform(0.5, 10.0, size=(12, 2))
            ]
            front = pareto_frontier(pts)
            for p in front:
                for q in front:
                    if p is q:
                        continue
                    dominates = (
                        q.time_s <= p.time_s
                        and q.cost_usd <= p.cost_usd
                        and (q.time_s < p.time_s or q.cost_usd < p.cost_usd)
                    )
                    assert not dominates

    def test_every_input_dominated_by_some_front_point(self, point):
        rng = np.random.default_rng(10)
        pts = [
            point(float(t), float(c)) for t, c in rng.uniform(0.5, 10.0, size=(20, 2))
        ]
        front = pareto_frontier(pts)
        for p in pts:
            assert any(
                q.time_s <= p.time_s and q.cost_usd <= p.cost_usd for q in front
            )

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            pareto_frontier([])


# A few small values per axis, so equal times, equal costs and exact
# duplicate points are common.
tied_points = st.lists(
    st.builds(
        lambda k, m, t, c: TradeoffPoint(JobConfig(k, k * m), t, c),
        st.integers(1, 3),
        st.integers(1, 2),
        st.sampled_from([1.0, 2.0, 3.0, 4.0]),
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    ),
    min_size=1,
    max_size=30,
)


class TestParetoMatchesAllPairs:
    @given(tied_points | batched_points)
    def test_same_points_in_same_order(self, pts):
        want = [id(p) for p in all_pairs_frontier(pts)]
        assert [id(p) for p in pareto_frontier(pts)] == want
        assert [id(pts[i]) for i in pareto_rows(PointColumns.of(pts)).tolist()] == want

    @given(tied_points)
    def test_knee_select_picks_the_knee_of_the_reference_frontier(self, pts):
        want = kneedle_knee(TradeoffCurve.build(all_pairs_frontier(pts))).point
        assert select(pts, Objective.knee_point()).chosen is want


class TestMinCostTime:
    """The knee's fallback for curves kneedle cannot shape: smallest cost-time product."""

    def test_prefers_smaller_product(self, point):
        pts = [point(2, 3), point(3, 2.1)]
        assert kneedle_knee(TradeoffCurve.build(pts)).point.time_s == 2

    def test_tie_breaks_on_time_first(self, point):
        pts = [point(3, 2), point(2, 3)]
        best = kneedle_knee(TradeoffCurve.build(pts)).point
        assert (best.time_s, best.cost_usd) == (2, 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            kneedle_knee(TradeoffCurve(points=()))


class TestColumnKnees:
    @given(batched_points)
    # Equal cost-time products on a two-point curve: the fallback takes the faster.
    @example([TradeoffPoint(JobConfig(1, 12), 1.0, 2.0), TradeoffPoint(JobConfig(2, 12), 2.0, 1.0)])
    def test_per_batch_knees_match_the_scalar_reference(self, pts):
        cols = PointColumns.of(pts)
        rows, kneedle = knee_rows(cols, cols.global_batch)
        got = [(id(pts[r]), KNEEDLE if k else FALLBACK)
               for r, k in zip(rows.tolist(), kneedle.tolist())]
        want = []
        for b in sorted({p.config.global_batch for p in pts}):
            curve = TradeoffCurve.build([p for p in pts if p.config.global_batch == b])
            point, method = scalar_kneedle(curve)
            result = kneedle_knee(curve)
            assert (result.point, result.method) == (point, method)
            assert result.point is point
            want.append((id(point), method))
        assert got == want


def convex_decreasing_curve(rng, n, point):
    """Random strictly convex, strictly decreasing cost-vs-time point set."""
    times = np.sort(rng.uniform(1.0, 50.0, size=n))
    while len(np.unique(times)) < n:
        times = np.sort(rng.uniform(1.0, 50.0, size=n))
    # Descending slope magnitudes give positive second differences (convexity).
    drops = np.sort(rng.uniform(0.5, 5.0, size=n - 1))[::-1]
    costs = np.empty(n)
    costs[0] = rng.uniform(50.0, 80.0)
    for i in range(1, n):
        costs[i] = costs[i - 1] - drops[i - 1] * (times[i] - times[i - 1]) / 10.0
    costs += abs(costs.min()) + 1.0
    return [point(float(t), float(c)) for t, c in zip(times, costs)]


class TestKneedle:
    def test_reciprocal_example(self, point):
        pts = [point(x, 1.0 / x) for x in (1, 2, 3, 4, 5)]
        result = kneedle_knee(TradeoffCurve.build(pts))
        assert result.method == "kneedle"
        assert result.point.time_s == 2.0

    def test_two_points_fall_back_to_min_product(self, point):
        pts = [point(2, 3), point(3, 2.1)]
        result = kneedle_knee(TradeoffCurve.build(pts))
        assert result.method == "fallback_min_cost_time"
        assert result.point.time_s == 2

    def test_empty_curve_rejected(self):
        with pytest.raises(EmptyInputError):
            kneedle_knee(TradeoffCurve(points=()))

    def test_flat_cost_falls_back(self, point):
        pts = [point(1, 4), point(2, 4), point(3, 4)]
        result = kneedle_knee(TradeoffCurve.build(pts))
        assert result.method == "fallback_min_cost_time"
        assert result.point.time_s == 1

    def test_knee_is_member_of_curve(self, point):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pts = convex_decreasing_curve(rng, int(rng.integers(4, 11)), point)
            curve = TradeoffCurve.build(pts)
            result = kneedle_knee(curve)
            assert result.point in curve.points

    def test_cost_scale_invariance(self, point):
        rng = np.random.default_rng(22)
        for _ in range(30):
            pts = convex_decreasing_curve(rng, int(rng.integers(4, 11)), point)
            base = kneedle_knee(TradeoffCurve.build(pts))
            scaled = [
                point(p.time_s, p.cost_usd * 1000.0, workers=p.config.workers)
                for p in pts
            ]
            again = kneedle_knee(TradeoffCurve.build(scaled))
            assert again.point.time_s == base.point.time_s

    def test_affine_invariance(self, point):
        rng = np.random.default_rng(23)
        for _ in range(30):
            pts = convex_decreasing_curve(rng, int(rng.integers(4, 11)), point)
            base = kneedle_knee(TradeoffCurve.build(pts))
            a_t, b_t = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 20.0))
            a_c, b_c = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 20.0))
            mapped = [
                point(a_t * p.time_s + b_t, a_c * p.cost_usd + b_c) for p in pts
            ]
            again = kneedle_knee(TradeoffCurve.build(mapped))
            assert again.point.time_s == pytest.approx(
                a_t * base.point.time_s + b_t, rel=1e-12
            )
