"""Scenario documents: defaults, overrides, and dotted-path validation."""

import json

import pytest

from scalefit.errors import ScenarioError
from scalefit.scenario import load_scenario, scenario_from_document
from scalefit.search import GridSampling, RandomSampling


def minimal_doc(**overrides):
    doc = {
        "workload": {"preset": "resnet18-like"},
        "cluster": {"pricing": {"flat_hourly_usd": 0.13402}},
        "bounds": {"k_min": 8, "k_max": 16, "b_min": 256, "b_max": 1024, "k_step": 8},
    }
    doc.update(overrides)
    return doc


class TestDefaults:
    def test_minimal_document(self):
        s = scenario_from_document(minimal_doc())
        assert s.seed == 0
        assert s.workload.name == "resnet18-like"
        assert s.workload.seed == 0
        assert s.cluster.shape.vcpus == 4
        assert s.cluster.shape.memory_gb == 16.0
        assert s.cluster.restore_overhead_s == 37.0
        assert s.cluster.pricing.flat_hourly_usd == 0.13402
        assert s.params.mode == "partial"
        assert s.params.profile_iters == 20
        assert s.params.max_stabilize_iters == 50_000
        assert isinstance(s.params.sampling, GridSampling)
        assert s.params.ewma.alpha == 0.01
        assert s.params.ewma.warmup_iters == 1000
        assert s.params.ewma.stability_window == 200
        assert s.params.ewma.stability_rel_tol == 0.02
        assert s.objective.kind == "min_cost_time"
        assert s.constraints.deadline_s is None
        assert s.store_dir is None
        assert s.allow_universal is True

    def test_seed_propagates_to_workload(self):
        s = scenario_from_document(minimal_doc(seed=17))
        assert s.seed == 17
        assert s.workload.seed == 17

    def test_preset_overrides(self):
        doc = minimal_doc()
        doc["workload"] = {
            "preset": "resnet50-like",
            "jitter": 0.05,
            "ramp_iters": 900,
            "grad_dim": 5000,
            "dataset_size": 42_000,
        }
        s = scenario_from_document(doc)
        assert s.workload.name == "resnet50-like"
        assert s.workload.jitter == 0.05
        assert s.workload.ramp_iters == 900.0
        assert s.workload.grad_dim == 5000
        assert s.workload.dataset_size == 42_000
        assert s.workload.noise_slope == 60.0  # untouched preset coefficient

    def test_custom_workload(self):
        doc = minimal_doc()
        doc["workload"] = {
            "name": "toy",
            "dataset_size": 50_000,
            "noise_slope": 48,
            "epochs_base": 10,
            "epochs_slope": 50,
            "time_base_s": 0.2,
            "time_per_sample_s": 0.001,
            "time_per_worker_s": 0.05,
        }
        s = scenario_from_document(doc)
        assert s.workload.name == "toy"
        assert s.workload.noise_intercept == 0.0
        assert s.workload.ramp_iters == 500.0
        assert s.workload.grad_dim == 10_000

    def test_objective_and_constraints(self):
        doc = minimal_doc(
            objective={"kind": "deadline", "deadline_s": 4000},
            constraints={"budget_usd": 25},
        )
        s = scenario_from_document(doc)
        assert s.objective.kind == "deadline"
        assert s.objective.deadline_s == 4000.0
        assert s.constraints.budget_usd == 25.0

    def test_random_sampling(self):
        doc = minimal_doc(
            search={"mode": "scaling", "sampling": {"kind": "random", "seed": 9}}
        )
        s = scenario_from_document(doc)
        assert s.params.sampling == RandomSampling(seed=9)

    def test_per_resource_pricing(self):
        doc = minimal_doc()
        doc["cluster"] = {
            "pricing": {
                "mode": "per_resource",
                "per_vcpu_hourly_usd": 0.02,
                "per_gb_hourly_usd": 0.003,
            },
            "shape": {"vcpus": 8, "memory_gb": 32},
            "restore_overhead_s": 55,
        }
        s = scenario_from_document(doc)
        assert s.cluster.pricing.mode == "per_resource"
        assert s.cluster.shape.vcpus == 8
        assert s.cluster.restore_overhead_s == 55.0

    def test_b_candidates(self):
        doc = minimal_doc()
        doc["bounds"]["b_candidates"] = [1024, 384, 512]
        s = scenario_from_document(doc)
        assert s.bounds.b_candidates == (384, 512, 1024)


def error_path(doc):
    with pytest.raises(ScenarioError) as exc_info:
        scenario_from_document(doc)
    return exc_info.value.field_path, str(exc_info.value)


class TestValidationErrors:
    def test_root_must_be_object(self):
        path, msg = error_path([1, 2])
        assert path == "<root>"

    def test_missing_sections(self):
        doc = minimal_doc()
        del doc["workload"]
        path, _ = error_path(doc)
        assert path == "<root>.workload"
        doc = minimal_doc()
        del doc["cluster"]
        assert error_path(doc)[0] == "<root>.cluster"
        doc = minimal_doc()
        del doc["bounds"]
        assert error_path(doc)[0] == "<root>.bounds"

    def test_missing_bound_field(self):
        doc = minimal_doc()
        del doc["bounds"]["k_min"]
        path, msg = error_path(doc)
        assert path == "bounds.k_min"
        assert "is required" in msg

    def test_bad_types_name_their_path(self):
        doc = minimal_doc()
        doc["bounds"]["k_min"] = "eight"
        path, _ = error_path(doc)
        assert path == "bounds.k_min"

        doc = minimal_doc(search={"mode": "scaling", "sampling": {"kind": "random"}})
        path, msg = error_path(doc)
        assert path == "search.sampling.seed"
        assert "is required" in msg

    def test_boolean_is_not_a_number(self):
        doc = minimal_doc()
        doc["workload"] = {"preset": "resnet18-like", "jitter": True}
        path, msg = error_path(doc)
        assert path == "workload.jitter"
        assert "boolean" in msg

    def test_bad_preset_name(self):
        doc = minimal_doc()
        doc["workload"]["preset"] = "vgg-like"
        path, msg = error_path(doc)
        assert path == "workload"
        assert "unknown preset" in msg

    def test_bad_objective_kind(self):
        doc = minimal_doc(objective={"kind": "fastest"})
        path, _ = error_path(doc)
        assert path == "objective.kind"

    def test_bad_search_mode(self):
        doc = minimal_doc(search={"mode": "thorough"})
        path, _ = error_path(doc)
        assert path == "search.mode"

    def test_mode_none_needs_store_dir(self):
        doc = minimal_doc(search={"mode": "none"})
        path, msg = error_path(doc)
        assert path == "store_dir"
        assert "required when search.mode is none" in msg

    def test_invalid_bounds_values(self):
        doc = minimal_doc()
        doc["bounds"]["k_max"] = 2
        path, msg = error_path(doc)
        assert path == "bounds"
        assert "k_max" in msg

    def test_bad_pricing_mode(self):
        doc = minimal_doc()
        doc["cluster"] = {"pricing": {"mode": "spot", "flat_hourly_usd": 0.1}}
        path, _ = error_path(doc)
        assert path == "cluster.pricing.mode"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_invalid_constraints_name_their_path(self, value):
        path, msg = error_path(minimal_doc(constraints={"budget_usd": value}))
        assert path == "constraints"
        assert "budget_usd must be finite and > 0" in msg

    def test_b_candidates_must_be_integers(self):
        doc = minimal_doc()
        doc["bounds"]["b_candidates"] = [512, "768"]
        path, _ = error_path(doc)
        assert path == "bounds.b_candidates"


class TestLoadScenario:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_doc(seed=3)))
        s = load_scenario(path)
        assert s.seed == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError) as exc_info:
            load_scenario(tmp_path / "absent.json")
        assert exc_info.value.field_path == "<file>"
        assert "no scenario file" in str(exc_info.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{broken")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)
