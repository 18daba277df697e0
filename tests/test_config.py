"""Job configurations, pricing, and search grids."""

import ast
import math
import operator
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NESTED_JSON
import scalefit
from scalefit.config import (
    JobConfig,
    PricingModel,
    SearchBounds,
    VMShape,
    mini_batch,
    run_cost_usd,
)
from scalefit.errors import (
    ConfigurationError,
    ModelOutOfDomainError,
    check,
    decode_json,
    ordered_sum,
    read_json,
)


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

    @pytest.mark.parametrize("field", ["workers", "global_batch"])
    def test_fields_capped_at_2_62(self, field):
        JobConfig(2**62, 2**62)
        args = {"workers": 1, "global_batch": 1, field: 10**400}
        with pytest.raises(ConfigurationError, match=f"^{field} must be <= 2\\*\\*62, got 1"):
            JobConfig(**args)

    def test_equality_and_hash(self):
        assert JobConfig(4, 64) == JobConfig(4, 64)
        assert len({JobConfig(4, 64), JobConfig(4, 64), JobConfig(8, 64)}) == 2


class TestCheck:
    """The one range check every constructor runs."""

    @pytest.mark.parametrize("value,lo,hi,options", [
        (1, 1, math.inf, {}),
        (2**62, 1, 2**62, {}),
        (0.5, 0, 1, {"lo_open": True}),
        (0.0, 0, math.inf, {"finite": True}),
        (-1e308, -math.inf, math.inf, {"finite": True}),
        (10**400, 1, math.inf, {}),
    ])
    def test_in_range_returns_the_value(self, value, lo, hi, options):
        assert check("x", value, lo, hi, **options) is value

    @pytest.mark.parametrize("value,lo,hi,options,message", [
        (0, 1, math.inf, {}, "x must be >= 1, got 0"),
        (0, 0, math.inf, {"lo_open": True}, "x must be > 0, got 0"),
        (2**62 + 1, 1, 2**62, {}, f"x must be <= 2**62, got {2**62 + 1}"),
        (1.5, 0, 1, {"lo_open": True}, "x must be <= 1, got 1.5"),
        (math.inf, 0, math.inf, {"finite": True}, "x must be finite and >= 0, got inf"),
        (-1.0, 0, math.inf, {"finite": True, "lo_open": True},
         "x must be finite and > 0, got -1.0"),
        (-math.inf, -math.inf, math.inf, {"finite": True}, "x must be finite, got -inf"),
        (math.nan, 0, 1, {}, "x must be >= 0, got nan"),
        (math.nan, -math.inf, math.inf, {"finite": True}, "x must be finite, got nan"),
    ])
    def test_out_of_range_raises_naming_the_rule(self, value, lo, hi, options, message):
        with pytest.raises(ConfigurationError) as exc_info:
            check("x", value, lo, hi, **options)
        assert str(exc_info.value) == message

    def test_error_type_is_the_callers(self):
        with pytest.raises(ModelOutOfDomainError, match="^x must be finite, got inf$"):
            check("x", math.inf, -math.inf, finite=True, error=ModelOutOfDomainError)


class TestOrderedSum:
    """Float totals that do not depend on the interpreter's ``sum``."""

    def test_adds_left_to_right_without_compensation(self):
        # A compensated sum gives 1.0 and 1.0 here.
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0

    def test_empty_and_negative_zero_totals_are_positive_zero(self):
        assert math.copysign(1.0, ordered_sum([])) == 1.0
        assert math.copysign(1.0, ordered_sum([-0.0, -0.0])) == 1.0

    @pytest.mark.parametrize("form", [list, lambda xs: np.array(xs, dtype=np.float64),
                                      lambda xs: (x for x in xs)],
                             ids=["list", "float64_array", "generator"])
    @settings(max_examples=300)
    @example(xs=[])
    @example(xs=[-0.0, -0.0])
    @example(xs=[5e-324, -0.0, -5e-324, 2.2250738585072014e-308 / 3])
    @example(xs=[math.inf, 1.0, -math.inf])
    @example(xs=[math.nan, -0.0])
    @example(xs=[1.7e308, 1e308, -1e308])
    @example(xs=[-1.7e308, -1.7e308])
    @given(xs=st.lists(
        st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
        | st.floats(1e307, 1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x])),
        max_size=12,
    ))
    def test_matches_a_left_to_right_reduce_bit_for_bit(self, form, xs):
        want = reduce(operator.add, xs, 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = ordered_sum(form(xs))
        assert caught == []
        assert type(got) is float
        assert got.hex() == want.hex()


class TestPricing:
    """An hour of running costs the cluster's hourly price."""

    def test_flat_price_eight_workers(self):
        price = run_cost_usd(PricingModel.flat(0.13402), VMShape(4, 16.0), 8, 3600.0)
        assert price == pytest.approx(1.07216, rel=1e-12)

    def test_zero_rates_price_zero(self):
        assert run_cost_usd(PricingModel.flat(0.0), VMShape(4, 16.0), 5, 3600.0) == 0.0
        assert (
            run_cost_usd(PricingModel.per_resource(0.0, 0.0), VMShape(4, 16.0), 5, 3600.0)
            == 0.0
        )

    def test_per_resource_price(self):
        price = run_cost_usd(
            PricingModel.per_resource(0.02, 0.003), VMShape(4, 16.0), 10, 3600.0
        )
        assert price == pytest.approx(1.28, rel=1e-12)

    def test_price_linear_in_workers_and_rates(self):
        shape = VMShape(8, 32.0)
        base = run_cost_usd(PricingModel.flat(0.25), shape, 3, 3600.0)
        assert run_cost_usd(PricingModel.flat(0.25), shape, 6, 3600.0) == pytest.approx(
            2 * base
        )
        assert run_cost_usd(PricingModel.flat(0.75), shape, 3, 3600.0) == pytest.approx(
            3 * base
        )
        pr = run_cost_usd(PricingModel.per_resource(0.01, 0.002), shape, 4, 3600.0)
        assert run_cost_usd(
            PricingModel.per_resource(0.02, 0.004), shape, 4, 3600.0
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
        with pytest.raises(ConfigurationError, match="workers must be >= 1, got 0"):
            run_cost_usd(PricingModel.flat(1.0), VMShape(4, 16.0), 0, 3600.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_prices_name_the_field(self, value):
        with pytest.raises(ConfigurationError, match="flat_hourly_usd must be finite"):
            PricingModel.flat(value)
        with pytest.raises(ConfigurationError, match="per_gb_hourly_usd must be finite"):
            PricingModel.per_resource(0.02, value)

    def test_vcpus_capped_at_2_62(self):
        VMShape(2**62, 16.0)
        with pytest.raises(ConfigurationError, match="^vcpus must be <= 2\\*\\*62, got 1"):
            VMShape(10**400, 16.0)

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
        with pytest.raises(ConfigurationError, match="^b_candidates must all be >= 1"):
            SearchBounds(k_min=1, k_max=4, b_min=1, b_max=8, b_candidates=(math.nan,))

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


class TestReadJson:
    """The one JSON file reader every input file goes through."""

    @staticmethod
    def fail(path, kind, detail):
        return ConfigurationError(f"{kind}: {detail}")

    def test_reads_the_value(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, 2.5]}')
        assert read_json(str(path), self.fail) == {"a": [1, 2.5]}

    def test_missing_file_gives_or_raises_what_error_returns(self, tmp_path):
        path = str(tmp_path / "absent.json")
        assert read_json(path, lambda *failure: failure) == (path, "missing", None)
        missing = ModelOutOfDomainError("no file")
        with pytest.raises(ModelOutOfDomainError) as exc_info:
            read_json(path, lambda *failure: missing)
        assert exc_info.value is missing

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read: Is a directory"),
        (b'{"\xff": 1}', "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 2: "
                         "invalid start byte"),
        (b"[" + b"9" * 5000 + b"]", "invalid JSON: Exceeds the limit (4300 digits) for "
                                    "integer string conversion: value has 5000 digits; use "
                                    "sys.set_int_max_str_digits() to increase the limit"),
        (NESTED_JSON.encode(), "invalid JSON: value is nested too deeply"),
        (b"{", "invalid JSON: Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1)"),
    ], ids=["directory", "undecodable", "digit-limit", "nested", "malformed"])
    def test_each_failure_is_one_error_of_its_kind(self, tmp_path, content, message):
        path = tmp_path / "doc.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ConfigurationError) as exc_info:
            read_json(str(path), self.fail)
        assert str(exc_info.value) == message

    def test_decode_json_nesting_is_a_value_error(self):
        deep = reduce(lambda inner, _: [inner], range(499), [])
        assert decode_json("[" * 500 + "]" * 500) == deep
        with pytest.raises(ValueError, match="^value is nested too deeply$"):
            decode_json(NESTED_JSON)

    def test_no_other_module_decodes_json(self):
        """``json.load``/``json.loads`` appear only in ``errors.decode_json``, so every reader
        of an input file shares its one ``except`` ladder."""
        calls = []
        for path in sorted(Path(scalefit.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            owner = {id(node): fn.name for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
            calls += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                      and isinstance(node.value, ast.Name) and node.value.id == "json"]
        assert calls == [("errors.py", "decode_json")]
