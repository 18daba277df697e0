"""Job configurations, pricing, and search grids."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalefit.config import (
    JobConfig,
    PricingModel,
    SearchBounds,
    VMShape,
    hourly_cluster_price,
    mini_batch,
    run_cost_usd,
)
from scalefit.errors import ConfigurationError


class TestJobConfig:
    def test_mini_batch_weak_scaling_values(self):
        assert mini_batch(JobConfig(8, 768)) == 96
        assert mini_batch(JobConfig(12, 768)) == 64
        assert mini_batch(JobConfig(16, 768)) == 48

    def test_mini_batch_single_worker(self):
        assert mini_batch(JobConfig(1, 32)) == 32

    def test_rejects_indivisible_batch(self):
        with pytest.raises(ConfigurationError, match="not divisible"):
            JobConfig(8, 100)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ConfigurationError):
            JobConfig(0, 8)
        with pytest.raises(ConfigurationError):
            JobConfig(2, 0)

    def test_equality_and_hash(self):
        assert JobConfig(4, 64) == JobConfig(4, 64)
        assert len({JobConfig(4, 64), JobConfig(4, 64), JobConfig(8, 64)}) == 2


class TestPricing:
    def test_flat_price_eight_workers(self):
        price = hourly_cluster_price(PricingModel.flat(0.13402), VMShape(4, 16.0), 8)
        assert price == pytest.approx(1.07216, rel=1e-12)

    def test_zero_rates_price_zero(self):
        assert hourly_cluster_price(PricingModel.flat(0.0), VMShape(4, 16.0), 5) == 0.0
        assert (
            hourly_cluster_price(PricingModel.per_resource(0.0, 0.0), VMShape(4, 16.0), 5)
            == 0.0
        )

    def test_per_resource_price(self):
        price = hourly_cluster_price(
            PricingModel.per_resource(0.02, 0.003), VMShape(4, 16.0), 10
        )
        assert price == pytest.approx(1.28, rel=1e-12)

    def test_price_linear_in_workers_and_rates(self):
        shape = VMShape(8, 32.0)
        base = hourly_cluster_price(PricingModel.flat(0.25), shape, 3)
        assert hourly_cluster_price(PricingModel.flat(0.25), shape, 6) == pytest.approx(
            2 * base
        )
        assert hourly_cluster_price(PricingModel.flat(0.75), shape, 3) == pytest.approx(
            3 * base
        )
        pr = hourly_cluster_price(PricingModel.per_resource(0.01, 0.002), shape, 4)
        assert hourly_cluster_price(
            PricingModel.per_resource(0.02, 0.004), shape, 4
        ) == pytest.approx(2 * pr)

    def test_run_cost_converts_hours_once(self):
        pricing = PricingModel.flat(0.5)
        shape = VMShape(4, 16.0)
        assert run_cost_usd(pricing, shape, 2, 3600.0) == pytest.approx(1.0)
        assert run_cost_usd(pricing, shape, 2, 0.0) == 0.0
        assert run_cost_usd(pricing, shape, 2, 1800.0) == pytest.approx(0.5)

    def test_invalid_pricing_rejected(self):
        with pytest.raises(ConfigurationError):
            PricingModel(mode="spot")
        with pytest.raises(ConfigurationError):
            PricingModel.flat(-0.1)
        with pytest.raises(ConfigurationError):
            hourly_cluster_price(PricingModel.flat(1.0), VMShape(4, 16.0), 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_prices_name_the_field(self, value):
        with pytest.raises(ConfigurationError, match="flat_hourly_usd must be finite"):
            PricingModel.flat(value)
        with pytest.raises(ConfigurationError, match="per_gb_hourly_usd must be finite"):
            PricingModel.per_resource(0.02, value)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            VMShape(0, 16.0)
        with pytest.raises(ConfigurationError):
            VMShape(4, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_memory_names_the_field(self, value):
        with pytest.raises(ConfigurationError, match="memory_gb must be finite and > 0"):
            VMShape(4, value)


class TestSearchBounds:
    def test_grid_enumeration_order(self):
        bounds = SearchBounds(k_min=2, k_max=4, b_min=4, b_max=5, k_step=2)
        assert bounds.k_values() == (2, 4)
        assert bounds.b_values() == (4, 5)
        assert bounds.grid() == [(2, 4), (2, 5), (4, 4), (4, 5)]

    def test_valid_configs_filter_divisibility(self):
        bounds = SearchBounds(k_min=2, k_max=4, b_min=4, b_max=6, k_step=2)
        assert [(c.workers, c.global_batch) for c in bounds.valid_configs()] == [
            (2, 4),
            (2, 6),
            (4, 4),
        ]

    @given(
        k_min=st.integers(1, 12),
        k_span=st.integers(0, 20),
        k_step=st.integers(1, 5),
        b_min=st.integers(1, 200),
        b_span=st.integers(0, 200),
        b_candidates=st.none() | st.lists(st.integers(1, 400), min_size=1, max_size=12),
    )
    def test_valid_configs_equal_the_filtered_grid(
        self, k_min, k_span, k_step, b_min, b_span, b_candidates
    ):
        bounds = SearchBounds(
            k_min=k_min, k_max=k_min + k_span, b_min=b_min, b_max=b_min + b_span,
            k_step=k_step, b_candidates=None if b_candidates is None else tuple(b_candidates),
        )
        want = [JobConfig(k, b) for k, b in bounds.grid() if b % k == 0]
        assert bounds.valid_configs() == want
        workers, batch = bounds.columns()
        assert workers.dtype == batch.dtype == np.int64
        assert list(zip(workers.tolist(), batch.tolist())) == [
            (c.workers, c.global_batch) for c in want
        ]

    def test_b_candidates_sorted_and_deduplicated(self):
        bounds = SearchBounds(
            k_min=1, k_max=1, b_min=1, b_max=100, b_candidates=(64, 16, 64, 32)
        )
        assert bounds.b_values() == (16, 32, 64)

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            SearchBounds(k_min=0, k_max=4, b_min=1, b_max=2)
        with pytest.raises(ConfigurationError):
            SearchBounds(k_min=4, k_max=2, b_min=1, b_max=2)
        with pytest.raises(ConfigurationError):
            SearchBounds(k_min=1, k_max=2, b_min=4, b_max=2)
        with pytest.raises(ConfigurationError):
            SearchBounds(k_min=1, k_max=2, b_min=1, b_max=2, k_step=0)
        with pytest.raises(ConfigurationError):
            SearchBounds(k_min=1, k_max=2, b_min=1, b_max=2, b_candidates=())
        with pytest.raises(ConfigurationError):
            SearchBounds(k_min=1, k_max=2, b_min=1, b_max=2, b_candidates=(0,))

    @pytest.mark.parametrize("field", ["k_min", "k_max", "b_min", "b_max", "k_step"])
    def test_bounds_past_int64_range_name_the_field(self, field):
        args = dict(k_min=1, k_max=2, b_min=1, b_max=2**62)
        args[field] = 2**62 + 1
        with pytest.raises(ConfigurationError, match=f"^{field} must be <= 2\\*\\*62"):
            SearchBounds(**args)
        with pytest.raises(ConfigurationError, match="b_candidates must all be <= 2"):
            SearchBounds(k_min=1, k_max=2, b_min=1, b_max=2, b_candidates=(4, 2**62 + 1))

    def test_largest_bounds_enumerate_without_wrapping(self):
        top = 2**62
        bounds = SearchBounds(k_min=top - 2, k_max=top, b_min=top - 1, b_max=top)
        workers, batch = bounds.columns()
        assert list(zip(workers.tolist(), batch.tolist())) == [(top - 1, top - 1), (top, top)]
        assert bounds.valid_configs() == [JobConfig(top - 1, top - 1), JobConfig(top, top)]
