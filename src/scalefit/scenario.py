"""Declarative scenario documents for the search command.

A scenario bundles a simulated workload, a cluster, grid bounds, search
parameters, and an objective into one JSON object, so a whole experiment is
reproducible from a single file plus its seed.  Validation failures name
the dotted path of the offending field.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
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
    if not isinstance(value, kinds):
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


_KINDS = {"int": int, "str": str}


def _fields(cls, doc: dict, path: str, defaults=None, **given):
    """``cls`` built from ``given`` and, for each other field, the key of its name in ``doc``.

    A ``float`` field reads a number, an ``int`` or ``str`` field a value of
    that type.  An absent key takes ``defaults[name]``, else the field's own
    default; a key with neither is required."""
    defaults = defaults or {}
    for f in fields(cls):
        if f.name not in given:
            default = defaults.get(f.name, f.default)
            required = default is MISSING
            if f.type in ("float", "float | None"):
                given[f.name] = _number(doc, f.name, path, default, required)
            else:
                given[f.name] = _expect(doc, f.name, _KINDS[f.type], path, default, required)
    return cls(**given)


def _build_workload(doc: dict, seed: int) -> SimWorkload:
    if not isinstance(doc, dict):
        raise ScenarioError("workload", "must be an object")
    preset = _expect(doc, "preset", str, "workload")
    try:
        defaults = (vars(preset_workload(preset, seed=seed)) if preset is not None
                    else {"name": "custom", "noise_intercept": 0.0})
        return _fields(SimWorkload, doc, "workload", defaults, seed=seed)
    except ConfigurationError as exc:
        raise ScenarioError("workload", str(exc)) from None


def _build_cluster(doc: dict) -> SimCluster:
    shape_doc = _expect(doc, "shape", dict, "cluster", default={"vcpus": 4, "memory_gb": 16})
    pricing_doc = _expect(doc, "pricing", dict, "cluster", required=True)
    try:
        shape = _fields(VMShape, shape_doc, "cluster.shape")
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
        return _fields(SimCluster, doc, "cluster", shape=shape, pricing=pricing)
    except ConfigurationError as exc:
        raise ScenarioError("cluster", str(exc)) from None


def _build_bounds(doc: dict) -> SearchBounds:
    candidates = _expect(doc, "b_candidates", list, "bounds")
    if candidates is not None:
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in candidates):
            raise ScenarioError("bounds.b_candidates", "must be a list of integers")
        candidates = tuple(candidates)
    try:
        return _fields(SearchBounds, doc, "bounds", b_candidates=candidates)
    except ConfigurationError as exc:
        raise ScenarioError("bounds", str(exc)) from None


def _build_params(doc: dict) -> SearchParams:
    mode = _expect(doc, "mode", str, "search", default=SearchParams.mode)
    if mode not in SEARCH_MODES:
        raise ScenarioError("search.mode", f"must be one of {SEARCH_MODES}, got {mode!r}")
    sampling_doc = _expect(doc, "sampling", dict, "search", default={})
    kind = _expect(sampling_doc, "kind", str, "search.sampling", default="grid")
    try:
        if kind == "grid":
            sampling: GridSampling | RandomSampling = GridSampling()
        elif kind == "random":
            sampling = _fields(RandomSampling, sampling_doc, "search.sampling")
        else:
            raise ScenarioError("search.sampling.kind", "must be grid or random")
        ewma = _fields(EwmaConfig, _expect(doc, "ewma", dict, "search", default={}), "search.ewma")
        return _fields(SearchParams, doc, "search", mode=mode, sampling=sampling, ewma=ewma)
    except ConfigurationError as exc:
        raise ScenarioError("search", str(exc)) from None


def _build_objective(doc: dict) -> Objective:
    kind = _expect(doc, "kind", str, "objective", required=True)
    if kind not in OBJECTIVE_KINDS:
        raise ScenarioError(
            "objective.kind", f"must be one of {OBJECTIVE_KINDS}, got {kind!r}"
        )
    try:
        return _fields(Objective, doc, "objective", kind=kind)
    except ConfigurationError as exc:
        raise ScenarioError("objective", str(exc)) from None


def scenario_from_document(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    seed = _expect(doc, "seed", int, "<root>", default=0)
    workload = _build_workload(_expect(doc, "workload", dict, "<root>", required=True), seed)
    cluster = _build_cluster(_expect(doc, "cluster", dict, "<root>", required=True))
    bounds = _build_bounds(_expect(doc, "bounds", dict, "<root>", required=True))
    params = _build_params(_expect(doc, "search", dict, "<root>", default={}))
    objective = _build_objective(
        _expect(doc, "objective", dict, "<root>", default={"kind": "min_cost_time"})
    )
    constraints_doc = _expect(doc, "constraints", dict, "<root>", default={})
    try:
        constraints = _fields(Constraints, constraints_doc, "constraints")
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
