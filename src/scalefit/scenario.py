"""Declarative scenario documents for the search command.

A scenario bundles a simulated workload, a cluster, grid bounds, search
parameters, and an objective into one JSON object, so a whole experiment is
reproducible from a single file plus its seed.  Validation failures name
the dotted path of the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .config import PricingModel, SearchBounds, VMShape
from .errors import ConfigurationError, ScenarioError, read_json
from .noise import EwmaConfig
from .policy import OBJECTIVE_KINDS, Constraints, Objective
from .search import GridSampling, RandomSampling, SearchParams, SEARCH_MODES
from .simulator import SimCluster, SimWorkload, preset_workload


@dataclass(frozen=True)
class Scenario:
    workload: SimWorkload
    cluster: SimCluster
    bounds: SearchBounds
    params: SearchParams
    objective: Objective
    constraints: Constraints
    seed: int
    store_dir: str | None = None
    allow_universal: bool = True


def _expect(doc: dict, key: str, kinds, path: str, default=None, required=False):
    if key not in doc:
        if required:
            raise ScenarioError(f"{path}.{key}", "is required")
        return default
    value = doc[key]
    if kinds is not None and not isinstance(value, kinds):
        names = (
            kinds.__name__
            if isinstance(kinds, type)
            else "/".join(k.__name__ for k in kinds)
        )
        raise ScenarioError(f"{path}.{key}", f"must be {names}, got {type(value).__name__}")
    if isinstance(value, bool) and kinds in (int, (int, float)):
        raise ScenarioError(f"{path}.{key}", "must be a number, got a boolean")
    return value


def _number(doc: dict, key: str, path: str, default=None, required=False) -> float | None:
    """A JSON number field as a float, or ``default`` when it is absent."""
    value = _expect(doc, key, (int, float), path, default, required)
    if value is None:
        return None
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{path}.{key}", "is too large to be a float") from None


def _build_workload(doc: dict, seed: int) -> SimWorkload:
    if not isinstance(doc, dict):
        raise ScenarioError("workload", "must be an object")
    preset = _expect(doc, "preset", str, "workload")
    try:
        if preset is not None:
            base = preset_workload(preset, seed=seed)
            overrides = {}
            for key in ("jitter", "ramp_iters"):
                if key in doc:
                    overrides[key] = _number(doc, key, "workload")
            if "dataset_size" in doc:
                overrides["dataset_size"] = _expect(doc, "dataset_size", int, "workload")
            return replace(base, **overrides) if overrides else base
        return SimWorkload(
            name=_expect(doc, "name", str, "workload", default="custom"),
            dataset_size=_expect(doc, "dataset_size", int, "workload", required=True),
            noise_slope=_number(doc, "noise_slope", "workload", required=True),
            noise_intercept=_number(doc, "noise_intercept", "workload", default=0.0),
            epochs_base=_number(doc, "epochs_base", "workload", required=True),
            epochs_slope=_number(doc, "epochs_slope", "workload", required=True),
            time_base_s=_number(doc, "time_base_s", "workload", required=True),
            time_per_sample_s=_number(doc, "time_per_sample_s", "workload", required=True),
            time_per_worker_s=_number(doc, "time_per_worker_s", "workload", required=True),
            ramp_iters=_number(doc, "ramp_iters", "workload", default=500.0),
            jitter=_number(doc, "jitter", "workload", default=0.0),
            seed=seed,
        )
    except ConfigurationError as exc:
        raise ScenarioError("workload", str(exc)) from None


def _build_cluster(doc: dict) -> SimCluster:
    if not isinstance(doc, dict):
        raise ScenarioError("cluster", "must be an object")
    shape_doc = _expect(doc, "shape", dict, "cluster", default={"vcpus": 4, "memory_gb": 16})
    pricing_doc = _expect(doc, "pricing", dict, "cluster", required=True)
    try:
        shape = VMShape(
            vcpus=_expect(shape_doc, "vcpus", int, "cluster.shape", required=True),
            memory_gb=_number(shape_doc, "memory_gb", "cluster.shape", required=True),
        )
    except ConfigurationError as exc:
        raise ScenarioError("cluster.shape", str(exc)) from None
    mode = _expect(pricing_doc, "mode", str, "cluster.pricing", default="flat_per_vm")
    try:
        if mode == "flat_per_vm":
            pricing = PricingModel.flat(
                _number(pricing_doc, "flat_hourly_usd", "cluster.pricing", required=True)
            )
        elif mode == "per_resource":
            pricing = PricingModel.per_resource(
                _number(pricing_doc, "per_vcpu_hourly_usd", "cluster.pricing", required=True),
                _number(pricing_doc, "per_gb_hourly_usd", "cluster.pricing", required=True),
            )
        else:
            raise ScenarioError(
                "cluster.pricing.mode", "must be flat_per_vm or per_resource"
            )
        return SimCluster(
            shape=shape,
            pricing=pricing,
            restore_overhead_s=_number(doc, "restore_overhead_s", "cluster", default=37.0),
        )
    except ConfigurationError as exc:
        raise ScenarioError("cluster", str(exc)) from None


def _build_bounds(doc: dict) -> SearchBounds:
    if not isinstance(doc, dict):
        raise ScenarioError("bounds", "must be an object")
    candidates = _expect(doc, "b_candidates", list, "bounds")
    if candidates is not None:
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in candidates):
            raise ScenarioError("bounds.b_candidates", "must be a list of integers")
        candidates = tuple(candidates)
    try:
        return SearchBounds(
            k_min=_expect(doc, "k_min", int, "bounds", required=True),
            k_max=_expect(doc, "k_max", int, "bounds", required=True),
            b_min=_expect(doc, "b_min", int, "bounds", required=True),
            b_max=_expect(doc, "b_max", int, "bounds", required=True),
            k_step=_expect(doc, "k_step", int, "bounds", default=1),
            b_candidates=candidates,
        )
    except ConfigurationError as exc:
        raise ScenarioError("bounds", str(exc)) from None


def _build_params(doc: dict) -> SearchParams:
    if not isinstance(doc, dict):
        raise ScenarioError("search", "must be an object")
    mode = _expect(doc, "mode", str, "search", default="partial")
    if mode not in SEARCH_MODES:
        raise ScenarioError("search.mode", f"must be one of {SEARCH_MODES}, got {mode!r}")
    sampling_doc = _expect(doc, "sampling", dict, "search", default={"kind": "grid"})
    kind = _expect(sampling_doc, "kind", str, "search.sampling", default="grid")
    try:
        if kind == "grid":
            sampling: GridSampling | RandomSampling = GridSampling()
        elif kind == "random":
            sampling = RandomSampling(
                seed=_expect(sampling_doc, "seed", int, "search.sampling", required=True),
                bspace=_expect(sampling_doc, "bspace", int, "search.sampling", default=4),
                kspace=_expect(sampling_doc, "kspace", int, "search.sampling", default=4),
            )
        else:
            raise ScenarioError("search.sampling.kind", "must be grid or random")
        ewma_doc = _expect(doc, "ewma", dict, "search", default={})
        ewma = EwmaConfig(
            alpha=_number(ewma_doc, "alpha", "search.ewma", default=0.01),
            warmup_iters=_expect(ewma_doc, "warmup_iters", int, "search.ewma", default=1000),
            stability_window=_expect(ewma_doc, "stability_window", int, "search.ewma", default=200),
            stability_rel_tol=_number(ewma_doc, "stability_rel_tol", "search.ewma", default=0.02),
        )
        return SearchParams(
            mode=mode,
            profile_iters=_expect(doc, "profile_iters", int, "search", default=20),
            sampling=sampling,
            ewma=ewma,
            max_stabilize_iters=_expect(
                doc, "max_stabilize_iters", int, "search", default=50_000
            ),
        )
    except ConfigurationError as exc:
        raise ScenarioError("search", str(exc)) from None


def _build_objective(doc: dict) -> Objective:
    if not isinstance(doc, dict):
        raise ScenarioError("objective", "must be an object")
    kind = _expect(doc, "kind", str, "objective", required=True)
    if kind not in OBJECTIVE_KINDS:
        raise ScenarioError(
            "objective.kind", f"must be one of {OBJECTIVE_KINDS}, got {kind!r}"
        )
    try:
        return Objective(
            kind=kind,
            deadline_s=_number(doc, "deadline_s", "objective"),
            budget_usd=_number(doc, "budget_usd", "objective"),
        )
    except ConfigurationError as exc:
        raise ScenarioError("objective", str(exc)) from None


def scenario_from_document(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    seed = _expect(doc, "seed", int, "<root>", default=0)
    workload = _build_workload(_expect(doc, "workload", dict, "<root>", required=True), seed)
    cluster = _build_cluster(_expect(doc, "cluster", dict, "<root>", required=True))
    bounds = _build_bounds(_expect(doc, "bounds", dict, "<root>", required=True))
    params = _build_params(_expect(doc, "search", dict, "<root>", default={"mode": "partial"}))
    objective = _build_objective(
        _expect(doc, "objective", dict, "<root>", default={"kind": "min_cost_time"})
    )
    constraints_doc = _expect(doc, "constraints", dict, "<root>", default={})
    try:
        constraints = Constraints(
            deadline_s=_number(constraints_doc, "deadline_s", "constraints"),
            budget_usd=_number(constraints_doc, "budget_usd", "constraints"),
        )
    except ConfigurationError as exc:
        raise ScenarioError("constraints", str(exc)) from None
    store_dir = _expect(doc, "store_dir", str, "<root>")
    allow_universal = _expect(doc, "allow_universal", bool, "<root>", default=True)
    if params.mode == "none" and store_dir is None:
        raise ScenarioError("store_dir", "is required when search.mode is none")
    return Scenario(
        workload=workload,
        cluster=cluster,
        bounds=bounds,
        params=params,
        objective=objective,
        constraints=constraints,
        seed=seed,
        store_dir=store_dir,
        allow_universal=allow_universal,
    )


_FILE_FAILURES = {"missing": "no {what} file at {path}",
                  "cannot read": "cannot read {path}: {detail}",
                  "invalid JSON": "invalid JSON in {path}: {detail}"}


def read_file(path: Path, what: str):
    """The JSON value in a scenario or workload file; each failure is a ScenarioError naming it."""
    return read_json(path, lambda path, kind, detail: ScenarioError(
        "<file>", _FILE_FAILURES[kind].format(what=what, path=path, detail=detail)))


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_document(read_file(Path(path), "scenario"))
