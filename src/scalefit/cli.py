"""Command-line interface.

Subcommands: ``simulate`` (trace export), ``fit`` (model from traces),
``predict`` (per-configuration table), ``curves`` (tradeoff curves with
knees and pareto flags), ``recommend`` (objective-driven pick), and
``search`` (scenario-driven simulated search).

Exit codes: 0 success, 2 usage error (also an ``--out`` path that cannot be
written: a directory, a missing parent directory, or for ``simulate`` an
existing file), 3 objective infeasible, 4 model not found, 5 data error
(unparseable traces, invalid scenario, corrupt model document, failed
prediction rows, or an unreadable input file: a missing trace or anchors
file, a directory, bytes that are not UTF-8, or a value nested too deeply), 6
degenerate fit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import JobConfig, PricingModel, SearchBounds, VMShape
from .errors import (
    MAX_GRID_VALUE,
    ConfigurationError,
    CorruptDocumentError,
    DegenerateFitError,
    EmptyInputError,
    ModelNotFoundError,
    ModelOutOfDomainError,
    ScalefitError,
    ScenarioError,
    SearchFailedError,
    TraceParseError,
    check,
    ordered_sum,
)
from .noise import normalized_noises
from .perfmodel import GridPrediction, PerfModel, fit_iteration_time, fit_stat, predict_columns
from .policy import Constraints, Objective, Recommendation, select_rows
from .scenario import Scenario, _build_workload, load_scenario, read_file
from .search import SearchOutcome, run_search
from .simulator import (
    PRESET_NAMES,
    SimCluster,
    SimEnvironment,
    compose_end_to_end,
    oracle_best,
    preset_workload,
)
from .store import model_to_document, read_model_file, write_model_file
from .tradeoff import FALLBACK, KNEEDLE, TradeoffPoint, knee_rows, pareto_rows
from .traces import read_anchors, read_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_FOUND = 4
EXIT_DATA = 5
EXIT_DEGENERATE = 6


def _fmt6(value: float) -> str:
    return f"{value:.6g}"


def _config_arg(text: str) -> tuple[int, int]:
    """Parse a KxB pair like ``8x512``."""
    for sep in ("x", "X", ","):
        if sep in text:
            left, _, right = text.partition(sep)
            try:
                return int(left), int(right)
            except ValueError:
                break
    raise argparse.ArgumentTypeError(
        f"expected a WORKERSxBATCH pair like 8x512, got {text!r}"
    )


def _dataset_size_arg(text: str) -> int:
    """An integer >= 1 that fits in a float, as ``PerfModel`` requires."""
    try:
        value = int(text)
    except ValueError:  # also an integer past the digit limit
        value = 0
    if not 1 <= value <= sys.float_info.max:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1 that fits in a float, got {text!r}"
        )
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


def _add_pricing_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--price-flat",
        type=float,
        default=None,
        help="flat $/hour per VM (default 0.13402 when no pricing flag is given)",
    )
    parser.add_argument("--price-vcpu", type=float, default=None, help="$/vCPU-hour")
    parser.add_argument("--price-gb", type=float, default=None, help="$/GB-hour")
    parser.add_argument("--vm-vcpus", type=int, default=4, help="vCPUs per VM")
    parser.add_argument(
        "--vm-memory-gb", type=float, default=16.0, help="memory per VM in GB"
    )


def _pricing_from_args(parser: argparse.ArgumentParser, args) -> tuple[PricingModel, VMShape]:
    per_resource = args.price_vcpu is not None or args.price_gb is not None
    if args.price_flat is not None and per_resource:
        parser.error("--price-flat conflicts with --price-vcpu/--price-gb")
    try:
        shape = VMShape(vcpus=args.vm_vcpus, memory_gb=args.vm_memory_gb)
        if per_resource:
            if args.price_vcpu is None or args.price_gb is None:
                parser.error("per-resource pricing needs both --price-vcpu and --price-gb")
            pricing = PricingModel.per_resource(args.price_vcpu, args.price_gb)
        else:
            rate = args.price_flat if args.price_flat is not None else 0.13402
            pricing = PricingModel.flat(rate)
    except ConfigurationError as exc:
        parser.error(str(exc))
    return pricing, shape


def _add_bounds_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k-min", type=int, required=True, help="smallest worker count")
    parser.add_argument("--k-max", type=int, required=True, help="largest worker count")
    parser.add_argument("--k-step", type=int, default=1, help="worker count step")
    parser.add_argument("--b-min", type=int, required=True, help="smallest global batch")
    parser.add_argument("--b-max", type=int, required=True, help="largest global batch")
    parser.add_argument(
        "--b-candidates",
        type=_int_list,
        default=None,
        help="explicit comma-separated batch sizes (overrides the range)",
    )


def _bounds_from_args(parser: argparse.ArgumentParser, args) -> SearchBounds:
    try:
        return SearchBounds(
            k_min=args.k_min,
            k_max=args.k_max,
            b_min=args.b_min,
            b_max=args.b_max,
            k_step=args.k_step,
            b_candidates=args.b_candidates,
        )
    except ConfigurationError as exc:
        parser.error(str(exc))


@contextmanager
def _writing(path):
    """An OSError inside is a ConfigurationError naming ``path``: a bad ``--out`` exits 2."""
    try:
        yield
    except OSError as exc:  # a directory, say, or a missing parent directory
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with _writing(out):
            Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------- simulate


def _workload_from_arg(parser: argparse.ArgumentParser, args):
    if args.workload in PRESET_NAMES:
        return preset_workload(args.workload, seed=args.seed, jitter=args.jitter)
    path = Path(args.workload)
    if not path.exists():
        parser.error(
            f"--workload must be a preset ({', '.join(PRESET_NAMES)}) or a JSON file"
        )
    w = _build_workload(read_file(path, "workload"), seed=args.seed)
    return w if args.jitter is None else replace(w, jitter=args.jitter)


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    workload = _workload_from_arg(parser, args)
    cluster = SimCluster(
        shape=VMShape(4, 16.0), pricing=PricingModel.flat(0.13402)
    )
    env = SimEnvironment(workload, cluster)
    configs = []
    for k, b in args.config:
        try:
            configs.append(JobConfig(k, b))
        except ConfigurationError as exc:
            parser.error(str(exc))
    check("iters", args.iters, 1, MAX_GRID_VALUE)
    # The checks ``profile`` makes of the first and the last run's start.
    for start in (args.start_iteration, args.start_iteration + args.iters * (len(configs) - 1)):
        check("start_iteration", start, 0, MAX_GRID_VALUE)
    for i, config in enumerate(configs):
        if config in configs[:i]:
            parser.error(f"--config {config.workers}x{config.global_batch} is given twice")
    out_dir = Path(args.out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    start = args.start_iteration
    for config in configs:
        k, b = config.workers, config.global_batch
        samples = env.profile(k, b, args.iters, start)
        start += args.iters
        path = out_dir / f"trace_K{k}_B{b}.jsonl"
        with _writing(path):
            write_trace(path, config, samples)
        written.append(str(path))
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------- fit


def _measure_traces(paths: list[str]) -> dict[tuple[int, int], tuple[float, float]]:
    """Per-configuration (mean normalized noise, mean iteration time)."""
    measured: dict[tuple[int, int], tuple[list[np.ndarray], list[np.ndarray]]] = defaultdict(
        lambda: ([], [])
    )
    for path in paths:
        config, batch = read_trace(path)
        noises, taus = measured[(config.workers, config.global_batch)]
        noises.append(normalized_noises(batch))
        taus.append(batch.iteration_time_s)
    out = {}
    for key, (noises, taus) in measured.items():
        noises, taus = np.concatenate(noises), np.concatenate(taus)
        if not noises.size:
            raise DegenerateFitError(
                f"trace for K={key[0]}, B={key[1]} has no usable samples"
            )
        out[key] = (ordered_sum(noises) / noises.size, ordered_sum(taus) / taus.size)
    return out


def cmd_fit(parser: argparse.ArgumentParser, args) -> int:
    measured = _measure_traces(args.traces)
    if len({b for _, b in measured}) < 2:
        raise DegenerateFitError("no variation in global_batch across trace files")
    anchors = [(cfg.global_batch, epochs) for cfg, epochs in read_anchors(args.anchors)]
    if len(anchors) < 2:
        raise DegenerateFitError("need at least 2 epoch anchors")
    stat = fit_stat({key: noise for key, (noise, _) in measured.items()}, anchors)

    timing = [((k, b / k), tau) for (k, b), (_, tau) in sorted(measured.items())]
    parallel = fit_iteration_time(timing)

    model = PerfModel(
        stat=stat,
        parallel=parallel,
        dataset_size=args.dataset_size,
        fingerprint=args.fingerprint,
        provenance="trace_fit",
    )
    with _writing(args.out):
        write_model_file(args.out, model)

    noise_resid = max(
        abs(stat.predicted_noise(b) - noise)
        for (_, b), (noise, _) in measured.items()
    )
    tau_resid = max(
        abs(parallel.predicted_iteration_time(k, b / k) - tau)
        for (k, b), (_, tau) in measured.items()
    )
    print(f"configs: {len(measured)}")
    print(
        f"noise fit: slope={_fmt6(stat.noise_slope)} "
        f"intercept={_fmt6(stat.noise_intercept)} max_resid={_fmt6(noise_resid)}"
    )
    print(f"epochs fit: base={_fmt6(stat.epochs_base)} slope={_fmt6(stat.epochs_slope)}")
    print(
        f"timing fit: base={_fmt6(parallel.base_s)} per_sample={_fmt6(parallel.per_sample_s)} "
        f"per_worker={_fmt6(parallel.per_worker_s)} max_resid={_fmt6(tau_resid)}"
    )
    if stat.flags:
        print(f"flags: {', '.join(stat.flags)}")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- predict


# One prediction row: the configuration, then ``Prediction``'s fields in order.
_ROW_FIELDS = (
    "workers",
    "global_batch",
    "mini_batch",
    "normalized_noise",
    "epochs",
    "iterations",
    "iteration_time_s",
    "time_s",
    "cost_usd",
)


def _row_columns(grid: GridPrediction) -> tuple[np.ndarray, ...]:
    """The columns of the in-domain prediction rows, in ``_ROW_FIELDS`` order."""
    points = grid.points
    return (points.workers, points.global_batch, points.global_batch // points.workers,
            grid.normalized_noise, grid.epochs, grid.iterations, grid.iteration_time_s,
            points.time_s, points.cost_usd)


def cmd_predict(parser: argparse.ArgumentParser, args) -> int:
    model = read_model_file(args.model).model
    pricing, shape = _pricing_from_args(parser, args)
    configs = sorted(args.configs)
    errors = {}
    for k, b in configs:
        try:
            JobConfig(k, b)
        except ConfigurationError as exc:
            errors[k, b] = str(exc)
    valid = np.array([c for c in configs if c not in errors], dtype=np.int64).reshape(-1, 2)
    grid = predict_columns(model, valid[:, 0], valid[:, 1], pricing, shape)
    errors.update(((c.workers, c.global_batch), reason) for c, reason in grid.skipped)
    predicted = zip(*(c.tolist() for c in _row_columns(grid)))
    rows = [
        {"workers": k, "global_batch": b, "error": errors[k, b]}
        if (k, b) in errors else dict(zip(_ROW_FIELDS, next(predicted)))
        for k, b in configs
    ]
    if args.format == "json":
        _write_output(_dump_json(rows), args.out)
    else:
        header = list(_ROW_FIELDS) + ["error"]
        table = []
        for row in rows:
            table.append(
                [
                    _fmt6(row[f]) if isinstance(row.get(f), float) else str(row.get(f, ""))
                    for f in header
                ]
            )
        _write_output(_csv_table(header, table), args.out)
    return EXIT_DATA if errors else EXIT_OK


# ---------------------------------------------------------------- curves


# One curves CSV row: the three integer columns, the three batch-only fields
# (formatted once per batch), the three per-row floats and both flags.  No
# field can hold a delimiter or quote, so nothing is quoted, as csv.writer
# would also leave it.
_CURVES_CSV_ROW = "%d,%d,%d,%s,%.6g,%.6g,%.6g,%s"
# on_pareto,is_knee, indexed by 2*on_pareto + is_knee.
_CURVES_FLAGS = np.array(["false,false", "false,true", "true,false", "true,true"], dtype=object)


def cmd_curves(parser: argparse.ArgumentParser, args) -> int:
    model = read_model_file(args.model).model
    pricing, shape = _pricing_from_args(parser, args)
    workers, batch = _bounds_from_args(parser, args).columns()
    # Batch-major order keeps each batch's curve, and the skip notes, together.
    order = np.lexsort((workers, batch))
    grid = predict_columns(model, workers[order], batch[order], pricing, shape)
    _note_skipped(grid.skipped)
    points = grid.points
    if not len(points):
        raise EmptyInputError("no configuration in bounds was predictable")
    knees, kneedle = knee_rows(points, points.global_batch)
    frontier = pareto_rows(points)
    columns = _row_columns(grid)
    starts = np.flatnonzero(np.diff(points.global_batch, prepend=0))
    if args.format == "json":
        rows = [dict(zip(_ROW_FIELDS, row)) for row in zip(*(c.tolist() for c in columns))]
        starts = starts.tolist()
        batches = [
            {
                "global_batch": rows[start]["global_batch"],
                "points": rows[start:end],
                "knee": {
                    **{f: rows[knee][f] for f in ("workers", "global_batch", "time_s", "cost_usd")},
                    "method": KNEEDLE if by_kneedle else FALLBACK,
                },
            }
            for start, end, knee, by_kneedle in zip(
                starts, starts[1:] + [len(rows)], knees.tolist(), kneedle.tolist()
            )
        ]
        doc = {"batches": batches, "pareto": [rows[i] for i in frontier.tolist()]}
        _write_output(_dump_json(doc), args.out)
    else:
        # normalized_noise, epochs and iterations depend on the batch alone.
        per_batch = np.array(["%.6g,%.6g,%.6g" % row for row in zip(
            *(c[starts].tolist() for c in columns[3:6]))], dtype=object)
        code = np.zeros(len(points), dtype=np.intp)
        code[frontier] += 2
        code[knees] += 1
        header = ",".join((*_ROW_FIELDS, "on_pareto", "is_knee"))
        rows = map(_CURVES_CSV_ROW.__mod__, zip(
            *(c.tolist() for c in columns[:3]),
            per_batch.repeat(np.diff(starts, append=len(points))).tolist(),
            *(c.tolist() for c in columns[6:]), _CURVES_FLAGS[code].tolist()))
        _write_output("\n".join((header, *rows)) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------- recommend


_OBJECTIVE_CLI_KINDS = {
    "deadline": "deadline",
    "budget": "budget",
    "knee": "knee_point",
    "min-cost-time": "min_cost_time",
}


def _objective_from_args(parser: argparse.ArgumentParser, args) -> tuple[Objective, Constraints]:
    if args.objective is None:
        if args.deadline is not None and args.budget is not None:
            parser.error("--deadline and --budget together need an explicit --objective")
        if args.deadline is not None:
            kind = "deadline"
        elif args.budget is not None:
            kind = "budget"
        else:
            parser.error("give --objective, or one of --deadline/--budget")
    else:
        kind = _OBJECTIVE_CLI_KINDS[args.objective]
    try:
        if kind == "deadline":
            if args.deadline is None:
                parser.error("--objective deadline needs --deadline")
            objective = Objective.deadline(args.deadline)
            constraints = Constraints(budget_usd=args.budget)
        elif kind == "budget":
            if args.budget is None:
                parser.error("--objective budget needs --budget")
            objective = Objective.budget(args.budget)
            constraints = Constraints(deadline_s=args.deadline)
        else:
            objective = Objective(kind=kind)
            constraints = Constraints(deadline_s=args.deadline, budget_usd=args.budget)
    except ConfigurationError as exc:
        parser.error(str(exc))
    return objective, constraints


def _note_skipped(skipped: list[tuple[JobConfig, str]]) -> None:
    for config, reason in skipped:
        print(
            f"note: skipping K={config.workers}, B={config.global_batch}: {reason}",
            file=sys.stderr,
        )


def _point_doc(point: TradeoffPoint | None) -> dict | None:
    if point is None:
        return None
    return {
        "workers": point.config.workers,
        "global_batch": point.config.global_batch,
        "time_s": point.time_s,
        "cost_usd": point.cost_usd,
    }


def _recommendation_doc(rec: Recommendation) -> dict:
    return {
        "feasible": rec.feasible,
        "feasible_count": rec.feasible_count,
        "chosen": _point_doc(rec.chosen),
        "nearest_miss": _point_doc(rec.nearest_miss),
    }


def cmd_recommend(parser: argparse.ArgumentParser, args) -> int:
    model = read_model_file(args.model).model
    pricing, shape = _pricing_from_args(parser, args)
    workers, batch = _bounds_from_args(parser, args).columns()
    objective, constraints = _objective_from_args(parser, args)
    grid = predict_columns(model, workers, batch, pricing, shape)
    _note_skipped(grid.skipped)
    if not len(grid.points):
        raise EmptyInputError("no configuration in bounds was predictable")
    rec = select_rows(grid.points, objective, constraints).recommendation(grid.points.point)
    doc = {
        "objective": {
            "kind": objective.kind,
            "deadline_s": objective.deadline_s,
            "budget_usd": objective.budget_usd,
        },
        "constraints": {
            "deadline_s": constraints.deadline_s,
            "budget_usd": constraints.budget_usd,
        },
        **_recommendation_doc(rec),
    }
    _write_output(_dump_json(doc), args.out)
    return EXIT_OK if rec.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------- search


def _model_doc_for_outcome(model: PerfModel) -> dict:
    doc = model_to_document(model, created_at="")
    del doc["created_at"]
    return doc


def _outcome_doc(outcome: SearchOutcome, scenario: Scenario) -> dict:
    chosen = None
    if outcome.chosen is not None:
        chosen = {
            "workers": outcome.chosen.workers,
            "global_batch": outcome.chosen.global_batch,
        }
    return {
        "mode": outcome.mode,
        "seed": scenario.seed,
        "workload": scenario.workload.name,
        "chosen": chosen,
        "model": _model_doc_for_outcome(outcome.model),
        "explored": [
            {
                "workers": e.workers,
                "global_batch": e.global_batch,
                "kind": e.kind,
                "iterations": e.iterations,
                "mean_iteration_time_s": e.mean_iteration_time_s,
                "restore_s": e.restore_s,
            }
            for e in outcome.explored
        ],
        "overhead_time_s": outcome.overhead_time_s,
        "overhead_cost_usd": outcome.overhead_cost_usd,
        "tradeoff_points": [_point_doc(p) for p in outcome.tradeoff_points],
        "recommendation": _recommendation_doc(outcome.recommendation),
    }


def cmd_search(parser: argparse.ArgumentParser, args) -> int:
    scenario = load_scenario(args.scenario)
    outcome = run_search(scenario)
    doc = _outcome_doc(outcome, scenario)

    oracle = oracle_best(
        scenario.workload,
        scenario.cluster,
        scenario.bounds,
        scenario.objective,
        scenario.constraints,
    )
    doc["oracle"] = {
        "feasible": oracle.feasible,
        "chosen": _point_doc(oracle.chosen),
    }
    if outcome.chosen is not None and oracle.chosen is not None:
        totals = compose_end_to_end(outcome, scenario.workload, scenario.cluster)
        oracle_time = oracle.chosen.time_s
        oracle_cost = oracle.chosen.cost_usd
        doc["end_to_end"] = {
            "run_time_s": totals.run_time_s,
            "run_cost_usd": totals.run_cost_usd,
            "total_time_s": totals.total_time_s,
            "total_cost_usd": totals.total_cost_usd,
            "oracle_time_s": oracle_time,
            "oracle_cost_usd": oracle_cost,
            "time_increase_fraction": totals.total_time_s / oracle_time - 1.0,
            "cost_increase_fraction": (
                totals.total_cost_usd / oracle_cost - 1.0 if oracle_cost > 0 else 0.0
            ),
        }

    if args.format == "json":
        _write_output(_dump_json(doc), args.out)
    else:
        rows = ["%d,%d,%.6g,%.6g" % (p.config.workers, p.config.global_batch, p.time_s, p.cost_usd)
                for p in outcome.tradeoff_points]
        _write_output("\n".join(("workers,global_batch,time_s,cost_usd", *rows)) + "\n", args.out)
    return EXIT_OK if outcome.recommendation.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalefit",
        description="Cost/time-aware configuration planning for distributed SGD jobs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="export synthetic profiling traces")
    p.add_argument(
        "--workload",
        required=True,
        help=f"preset name ({', '.join(PRESET_NAMES)}) or workload JSON file",
    )
    p.add_argument("--config", dest="config", type=_config_arg, action="append",
                   required=True, help="WORKERSxBATCH pair, repeatable")
    p.add_argument("--iters", type=int, default=100, help="iterations per config")
    p.add_argument("--start-iteration", type=int, default=0,
                   help="global iteration of the first sample")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--jitter", type=float, default=None, help="jitter override")
    p.add_argument("--out", required=True, help="output directory for trace files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model from trace files")
    p.add_argument("--traces", nargs="+", required=True, help="trace JSONL files")
    p.add_argument("--anchors", required=True, help="epochs-to-target anchors JSON file")
    p.add_argument("--dataset-size", type=_dataset_size_arg, required=True,
                   help="samples per epoch")
    p.add_argument("--fingerprint", default="unnamed", help="workload identity string")
    p.add_argument("--out", required=True, help="output model document path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict time and cost for configurations")
    p.add_argument("--model", required=True, help="model document path")
    p.add_argument("configs", nargs="+", type=_config_arg, metavar="KxB",
                   help="configurations like 8x512")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    _add_pricing_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("curves", help="tradeoff curves with knees and pareto flags")
    p.add_argument("--model", required=True, help="model document path")
    _add_bounds_flags(p)
    _add_pricing_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("recommend", help="pick a configuration for an objective")
    p.add_argument("--model", required=True, help="model document path")
    _add_bounds_flags(p)
    _add_pricing_flags(p)
    p.add_argument("--objective", choices=tuple(_OBJECTIVE_CLI_KINDS), default=None)
    p.add_argument("--deadline", type=float, default=None, help="deadline in seconds")
    p.add_argument("--budget", type=float, default=None, help="budget in dollars")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("search", help="run a simulated search scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_search)

    return parser


_ERROR_EXITS: list[tuple[type, int]] = [
    (TraceParseError, EXIT_DATA),
    (ScenarioError, EXIT_DATA),
    (CorruptDocumentError, EXIT_DATA),
    (ModelNotFoundError, EXIT_NOT_FOUND),
    (DegenerateFitError, EXIT_DEGENERATE),
    (EmptyInputError, EXIT_DATA),
    (SearchFailedError, EXIT_DATA),
    (ModelOutOfDomainError, EXIT_DATA),
    (ConfigurationError, EXIT_USAGE),
]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except ScalefitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for err_type, code in _ERROR_EXITS:
            if isinstance(exc, err_type):
                return code
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
