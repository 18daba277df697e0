"""Time/cost tradeoff curves: pareto filtering and knee detection."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import all_pairs_frontier, batched_points, scalar_kneedle
from scalefit.config import JobConfig, SearchBounds
from scalefit.errors import ConfigurationError, EmptyInputError, ordered_sum
from scalefit.perfmodel import predict_columns
from scalefit.policy import Objective, select, select_rows
from scalefit.simulator import preset_cluster, preset_workload
from scalefit.tradeoff import (
    FALLBACK,
    KNEEDLE,
    PointColumns,
    TradeoffCurve,
    TradeoffPoint,
    _ordered_sums,
    knee_rows,
    kneedle_knee,
    pareto_frontier,
    pareto_rows,
)

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan]


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


@st.composite
def pooled_column(draw, n, floating):
    """``n`` values from a small pool, so ties are heavy; float pools hold every special value."""
    if floating:
        pool = np.array(SPECIAL_FLOATS + draw(st.lists(st.floats(), max_size=20)))
    else:
        pool = np.array(draw(st.lists(st.integers(-2, 4), min_size=1, max_size=5)), dtype=np.int64)
    return pool[draw(arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]


@st.composite
def keyed_columns(draw):
    """A column set of 1-300 rows and 0-2 leading keys, each float or int."""
    n = draw(st.integers(1, 300))
    floating = (False, False, True, True)  # workers, batch, time, cost
    cols = PointColumns(*(draw(pooled_column(n, f)) for f in floating))
    leading = [draw(pooled_column(n, draw(st.booleans()))) for _ in range(draw(st.integers(0, 2)))]
    return cols, leading


def lexsort_order(cols, *leading):
    """Reference point order: one stable lexsort over every key of every row."""
    return np.lexsort((cols.global_batch, cols.workers, cols.cost_usd, cols.time_s, *leading[::-1]))


def same_float(a: float, b: float) -> bool:
    """Equal with the same sign, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1, a) == math.copysign(1, b)


class TestOrderKernel:
    @given(keyed_columns())
    def test_order_and_first_match_a_full_lexsort(self, case):
        cols, leading = case
        want = lexsort_order(cols, *leading)
        assert cols.order(*leading).tolist() == want.tolist()
        assert cols.first(*leading) == want[0]

    def test_every_value_tied(self):
        for value in (0.0, math.nan, math.inf):
            cols = PointColumns(np.ones(5, np.int64), np.ones(5, np.int64), np.full(5, value),
                                np.array([0.0, -0.0, math.nan, -0.0, 0.0]))
            assert cols.order().tolist() == lexsort_order(cols).tolist() == [0, 1, 3, 4, 2]
            assert cols.first(np.full(5, math.nan)) == 0

    @given(
        short=st.lists(st.integers(1, 4), max_size=60),
        long=st.integers(1, 120),
        long_at=st.integers(0, 60),
        data=st.data(),
    )
    def test_position_sums_match_the_per_curve_loop(self, short, long, long_at, data):
        # One long curve among many short ones; the sums run over each
        # curve's interior, as the knee's concavity test takes them.
        lengths = np.array(short[:long_at] + [long] + short[long_at:])
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        values = data.draw(pooled_column(int(lengths.sum()), True))
        with np.errstate(over="ignore", invalid="ignore"):  # as inside the knee kernel
            got = _ordered_sums(values, starts + 1, lengths - 2).tolist()
        want = [ordered_sum(values[s + 1 : s + n - 1].tolist()) for s, n in zip(starts, lengths)]
        assert all(same_float(a, b) for a, b in zip(got, want, strict=True))


@pytest.fixture(scope="module")
def large_grid() -> PointColumns:
    """Every valid configuration of K 1-128 x B 1-8192 under the resnet18-like preset's model."""
    workload, cluster = preset_workload("resnet18-like"), preset_cluster("resnet18-like")
    workers, batch = SearchBounds(1, 128, 1, 8192).columns()
    model = workload.to_perf_model()
    return predict_columns(model, workers, batch, cluster.pricing, cluster.shape).points


def reference_frontier(cols: PointColumns) -> list[int]:
    """Frontier rows by a walk over a full lexsort: each time's cheapest rows, if below every
    faster row's cost."""
    order = lexsort_order(cols).tolist()
    t, c = cols.time_s.tolist(), cols.cost_usd.tolist()
    frontier, best, i = [], math.inf, 0
    while i < len(order):
        j = i + 1
        while j < len(order) and t[order[j]] == t[order[i]]:
            j += 1
        low = c[order[i]]
        if low < best:
            frontier += [r for r in order[i:j] if c[r] == low]
        best, i = min(best, low), j
    return frontier


class TestLargeGrid:
    """The 44,461-point grid against references built on ``np.lexsort``."""

    def test_pareto_rows(self, large_grid):
        assert len(large_grid) == 44_461
        assert pareto_rows(large_grid).tolist() == reference_frontier(large_grid)

    def test_knee_rows_by_batch(self, large_grid):
        cols = large_grid
        curves: dict[int, list[int]] = {}
        for r in lexsort_order(cols, cols.global_batch).tolist():
            rows = curves.setdefault(int(cols.global_batch[r]), [])
            if not rows or cols.time_s[rows[-1]] != cols.time_s[r]:
                rows.append(r)
        want_rows, want_methods = [], []
        for rows in curves.values():
            pts = tuple(cols.point(r) for r in rows)
            point, method = scalar_kneedle(TradeoffCurve(points=pts))
            want_rows.append(rows[next(i for i, p in enumerate(pts) if p is point)])
            want_methods.append(method == KNEEDLE)
        got_rows, got_kneedle = knee_rows(cols, cols.global_batch)
        assert got_rows.tolist() == want_rows
        assert got_kneedle.tolist() == want_methods

    def test_select_rows_every_kind_and_a_nearest_miss(self, large_grid):
        cols = large_grid
        t, c, w, b = cols.time_s, cols.cost_usd, cols.workers, cols.global_batch
        deadline, budget = float(np.quantile(t, 0.3)), float(np.quantile(c, 0.3))

        def lex_first(rows, *keys):
            return int(rows[np.lexsort(tuple(k[rows] for k in reversed(keys)))[0]])

        fast, cheap = np.flatnonzero(t <= deadline), np.flatnonzero(c <= budget)
        every = np.arange(len(t))
        frontier = reference_frontier(cols)
        curve = [r for i, r in enumerate(frontier) if i == 0 or t[r] != t[frontier[i - 1]]]
        knee, _ = scalar_kneedle(TradeoffCurve(points=tuple(cols.point(r) for r in curve)))
        cases = [
            (Objective.deadline(deadline), lex_first(fast, c, t, w, b), len(fast)),
            (Objective.budget(budget), lex_first(cheap, t, c, w, b), len(cheap)),
            (Objective.min_cost_time(), lex_first(every, t * c, c, t, w, b), len(t)),
            (Objective.knee_point(), next(r for r in curve if cols.point(r) == knee), len(t)),
        ]
        for objective, row, count in cases:
            assert select_rows(cols, objective) == (row, count, None)
        cap = float(t.min()) / 2
        miss = lex_first(every, t - cap, c, t, w, b)
        assert select_rows(cols, Objective.deadline(cap)) == (None, 0, miss)
