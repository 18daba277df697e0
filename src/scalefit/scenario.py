"""Declarative scenario documents for the search command.

A scenario bundles a simulated workload, a cluster, grid bounds, search
parameters, and an objective into one JSON object, so a whole experiment is
reproducible from a single file plus its seed.  Validation failures name
the dotted path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .config import PricingModel, SearchBounds, VMShape
from .errors import ConfigurationError, ScenarioError
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
                    overrides[key] = float(_expect(doc, key, (int, float), "workload"))
            if "grad_dim" in doc:
                overrides["grad_dim"] = _expect(doc, "grad_dim", int, "workload")
            if "dataset_size" in doc:
                overrides["dataset_size"] = _expect(doc, "dataset_size", int, "workload")
            return replace(base, **overrides) if overrides else base
        return SimWorkload(
            name=_expect(doc, "name", str, "workload", default="custom"),
            dataset_size=_expect(doc, "dataset_size", int, "workload", required=True),
            noise_slope=float(_expect(doc, "noise_slope", (int, float), "workload", required=True)),
            noise_intercept=float(_expect(doc, "noise_intercept", (int, float), "workload", default=0.0)),
            epochs_base=float(_expect(doc, "epochs_base", (int, float), "workload", required=True)),
            epochs_slope=float(_expect(doc, "epochs_slope", (int, float), "workload", required=True)),
            time_base_s=float(_expect(doc, "time_base_s", (int, float), "workload", required=True)),
            time_per_sample_s=float(_expect(doc, "time_per_sample_s", (int, float), "workload", required=True)),
            time_per_worker_s=float(_expect(doc, "time_per_worker_s", (int, float), "workload", required=True)),
            ramp_iters=float(_expect(doc, "ramp_iters", (int, float), "workload", default=500.0)),
            jitter=float(_expect(doc, "jitter", (int, float), "workload", default=0.0)),
            grad_dim=_expect(doc, "grad_dim", int, "workload", default=10_000),
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
            memory_gb=float(
                _expect(shape_doc, "memory_gb", (int, float), "cluster.shape", required=True)
            ),
        )
    except ConfigurationError as exc:
        raise ScenarioError("cluster.shape", str(exc)) from None
    mode = _expect(pricing_doc, "mode", str, "cluster.pricing", default="flat_per_vm")
    try:
        if mode == "flat_per_vm":
            pricing = PricingModel.flat(
                float(
                    _expect(pricing_doc, "flat_hourly_usd", (int, float), "cluster.pricing", required=True)
                )
            )
        elif mode == "per_resource":
            pricing = PricingModel.per_resource(
                float(
                    _expect(pricing_doc, "per_vcpu_hourly_usd", (int, float), "cluster.pricing", required=True)
                ),
                float(
                    _expect(pricing_doc, "per_gb_hourly_usd", (int, float), "cluster.pricing", required=True)
                ),
            )
        else:
            raise ScenarioError(
                "cluster.pricing.mode", "must be flat_per_vm or per_resource"
            )
        return SimCluster(
            shape=shape,
            pricing=pricing,
            restore_overhead_s=float(
                _expect(doc, "restore_overhead_s", (int, float), "cluster", default=37.0)
            ),
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
            alpha=float(_expect(ewma_doc, "alpha", (int, float), "search.ewma", default=0.01)),
            warmup_iters=_expect(ewma_doc, "warmup_iters", int, "search.ewma", default=1000),
            stability_window=_expect(ewma_doc, "stability_window", int, "search.ewma", default=200),
            stability_rel_tol=float(
                _expect(ewma_doc, "stability_rel_tol", (int, float), "search.ewma", default=0.02)
            ),
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
    deadline = _expect(doc, "deadline_s", (int, float), "objective")
    budget = _expect(doc, "budget_usd", (int, float), "objective")
    try:
        return Objective(
            kind=kind,
            deadline_s=float(deadline) if deadline is not None else None,
            budget_usd=float(budget) if budget is not None else None,
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
    deadline = _expect(constraints_doc, "deadline_s", (int, float), "constraints")
    budget = _expect(constraints_doc, "budget_usd", (int, float), "constraints")
    try:
        constraints = Constraints(
            deadline_s=float(deadline) if deadline is not None else None,
            budget_usd=float(budget) if budget is not None else None,
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


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioError("<file>", f"no scenario file at {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>", f"invalid JSON in {path}: {exc}") from None
    return scenario_from_document(doc)
