"""Objective-driven selection over tradeoff points."""

import math

import numpy as np
import pytest

from scalefit.errors import ConfigurationError, EmptyInputError
from scalefit.policy import Constraints, Objective, Recommendation, select
from scalefit.tradeoff import TradeoffCurve, kneedle_knee, min_cost_time, pareto_frontier


class TestObjective:
    def test_classmethods(self):
        assert Objective.deadline(250.0).deadline_s == 250.0
        assert Objective.budget(3.0).budget_usd == 3.0
        assert Objective.min_cost_time().kind == "min_cost_time"
        assert Objective.knee_point().kind == "knee_point"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Objective("deadline")  # missing deadline_s
        with pytest.raises(ConfigurationError):
            Objective("budget")
        with pytest.raises(ConfigurationError):
            Objective("min_cost_time", deadline_s=-5.0)
        with pytest.raises(ConfigurationError):
            Objective("sideways")
        with pytest.raises(ConfigurationError):
            Objective.deadline(0.0)
        with pytest.raises(ConfigurationError):
            Objective.budget(-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_caps_name_the_field(self, value):
        with pytest.raises(ConfigurationError, match="deadline_s must be finite"):
            Objective.deadline(value)
        with pytest.raises(ConfigurationError, match="budget_usd must be finite"):
            Objective("knee_point", budget_usd=value)
        with pytest.raises(ConfigurationError, match="deadline_s must be finite"):
            Constraints(deadline_s=value)
        with pytest.raises(ConfigurationError, match="budget_usd must be finite"):
            Constraints(budget_usd=value)


class TestSelectExamples:
    def test_deadline_picks_cheapest_within(self, point):
        pts = [point(100, 10), point(200, 5), point(400, 4)]
        rec = select(pts, Objective.deadline(250.0))
        assert (rec.chosen.time_s, rec.chosen.cost_usd) == (200, 5)
        assert rec.feasible
        assert rec.feasible_count == 2

    def test_budget_infeasible_reports_nearest(self, point):
        pts = [point(100, 10), point(200, 5), point(400, 4)]
        rec = select(pts, Objective.budget(3.0))
        assert not rec.feasible
        assert rec.chosen is None
        assert rec.feasible_count == 0
        assert (rec.nearest_miss.time_s, rec.nearest_miss.cost_usd) == (400, 4)

    def test_huge_deadline_is_min_cost(self, point):
        pts = [point(100, 10), point(200, 5), point(400, 4)]
        rec = select(pts, Objective.deadline(1e12))
        assert rec.chosen.cost_usd == 4

    def test_min_cost_time_tie_prefers_lower_cost(self, point):
        # Equal products: the selector resolves toward cheaper, the curve
        # utility toward faster. Both are pinned deliberately.
        pts = [point(2, 3), point(3, 2)]
        rec = select(pts, Objective.min_cost_time())
        assert (rec.chosen.time_s, rec.chosen.cost_usd) == (3, 2)
        curve_best = min_cost_time(pts)
        assert (curve_best.time_s, curve_best.cost_usd) == (2, 3)

    def test_knee_objective_matches_detector(self, point):
        pts = [point(x, 1.0 / x, workers=x) for x in (1, 2, 3, 4, 5)]
        rec = select(pts, Objective.knee_point())
        expected = kneedle_knee(TradeoffCurve.build(pareto_frontier(pts)))
        assert rec.chosen == expected.point

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            select([], Objective.min_cost_time())


class TestConstraints:
    def test_caps_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="deadline_s must be finite and > 0"):
            Constraints(deadline_s=0.0)
        with pytest.raises(ConfigurationError, match="budget_usd must be finite and > 0"):
            Constraints(budget_usd=-1.0)
        assert Constraints(deadline_s=1e300, budget_usd=10**400).budget_usd == 10**400

    def test_caps_combine_to_tightest(self, point):
        pts = [point(100, 10), point(200, 5), point(400, 4)]
        rec = select(
            pts,
            Objective.deadline(1e9),
            Constraints(deadline_s=250.0),
        )
        assert rec.chosen.time_s == 200

    def test_budget_constraint_layers_onto_deadline_objective(self, point):
        pts = [point(100, 10), point(200, 5), point(400, 4)]
        rec = select(pts, Objective.deadline(450.0), Constraints(budget_usd=4.5))
        assert (rec.chosen.time_s, rec.chosen.cost_usd) == (400, 4)
        assert rec.feasible_count == 1

    def test_tightest_cap_wins_regardless_of_source(self, point):
        pts = [point(100, 10), point(200, 5), point(400, 4)]
        # Objective cap tighter than constraint cap, then the reverse.
        r1 = select(pts, Objective.deadline(250.0), Constraints(deadline_s=1e9))
        r2 = select(pts, Objective.deadline(1e9), Constraints(deadline_s=250.0))
        assert r1.chosen == r2.chosen
        assert r1.chosen.time_s == 200

    def test_relaxing_deadline_never_raises_cost(self, point):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pts = [
                point(float(t), float(c))
                for t, c in rng.uniform(1.0, 100.0, size=(10, 2))
            ]
            d1, d2 = sorted(rng.uniform(1.0, 120.0, size=2))
            r1 = select(pts, Objective.deadline(float(d1)))
            r2 = select(pts, Objective.deadline(float(d2)))
            if r1.feasible:
                assert r2.feasible
                assert r2.chosen.cost_usd <= r1.chosen.cost_usd


def brute_force(points, objective):
    """Reference selector: filter then exhaustively rank."""
    if objective.kind == "deadline":
        feas = [p for p in points if p.time_s <= objective.deadline_s]
        key = lambda p: (p.cost_usd, p.time_s, p.config.workers, p.config.global_batch)
    elif objective.kind == "budget":
        feas = [p for p in points if p.cost_usd <= objective.budget_usd]
        key = lambda p: (p.time_s, p.cost_usd, p.config.workers, p.config.global_batch)
    else:  # min_cost_time
        feas = list(points)
        key = lambda p: (
            p.time_s * p.cost_usd,
            p.cost_usd,
            p.time_s,
            p.config.workers,
            p.config.global_batch,
        )
    if not feas:
        return None
    return min(feas, key=key)


class TestBruteForceEquivalence:
    def test_random_point_sets(self, point):
        rng = np.random.default_rng(41)
        for trial in range(40):
            n = int(rng.integers(1, 15))
            pts = []
            for _ in range(n):
                k = int(rng.integers(1, 9))
                pts.append(
                    point(
                        float(rng.uniform(10, 500)),
                        float(rng.uniform(1, 50)),
                        workers=k,
                        batch=k * int(rng.integers(1, 65)),
                    )
                )
            objectives = [
                Objective.deadline(float(rng.uniform(10, 600))),
                Objective.budget(float(rng.uniform(1, 60))),
                Objective.min_cost_time(),
            ]
            for obj in objectives:
                rec = select(pts, obj)
                expected = brute_force(pts, obj)
                if expected is None:
                    assert not rec.feasible
                    assert rec.nearest_miss is not None
                else:
                    assert rec.feasible
                    assert rec.chosen == expected
