#!/usr/bin/env python3
"""scalefit benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root::

    python3 bench/run.py --workload plan-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, one table

With ``--trace 0`` the run reports end-to-end metrics; with ``--trace 1``
it runs a fixed set of rounds untraced, then the same rounds traced, and
reports per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A results file with the environment record and per-op
sample counts goes to ``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy is imported

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

import reference
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Runner, SpeedSampler, digest, fresh_dir

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
SLOTS = ("op1_s", "op2_s", "op3_s")


def import_scalefit() -> tuple[ModuleType, float]:
    """Import the package from this checkout's ``src``; (modules, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    import scalefit.cli  # noqa: F401
    elapsed = perf_counter() - start
    sf = sys.modules["scalefit"]
    if Path(sf.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"scalefit was imported from {sf.__file__}, not from {src}")
    return sf, elapsed


def tail(values: list[float]) -> dict:
    """Sample count, mean, median, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "mean": statistics.fmean(ordered), "median": statistics.median(ordered),
           "tail_pct": None, "tail": None}
    for pct in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            out.update(tail_pct=pct, tail=ordered[rank - 1])
            break
    return out


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = git / ref_name
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(
        1 for f in sorted((ROOT / "src").rglob("*.py"))
        for line in f.read_text().splitlines() if line.strip()
    )
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_nonblank_lines": src_lines,
        "machine_tuning": "none (no governor, cache-drop or cgroup changes)",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(wl, runner: Runner, work: Path) -> tuple[list[float], str, list[str]]:
    """Generate inputs and run one warm-up op, several times.

    Returns seconds per repetition (timed like ops), the inputs' SHA-256,
    and any problems found.
    """
    seconds, digests = [], []
    for _ in range(SETUP_REPEATS):
        mark = runner.mark()
        fresh_dir(work)
        digests.append(digest(wl.setup(work)))
        wl.warm_up(runner)
        seconds.append(runner.elapsed(mark)[0])
    problems = [] if len(set(digests)) == 1 else ["inputs differ between set-ups of one seed"]
    return seconds, digests[0], problems


def timed_rounds(wl, runner: Runner, seconds: float) -> list[float]:
    """Closed loop: run rounds until ``seconds`` elapse (and at least ``min_rounds``)."""
    rounds = []
    deadline = perf_counter() + seconds
    r = 0
    while r < wl.min_rounds or perf_counter() < deadline:
        before = runner.op_total
        wl.round(r, runner)
        rounds.append(runner.op_total - before)
        r += 1
    return rounds


def end_to_end(wl, runner: Runner, rounds, setup_s) -> tuple[dict, dict, dict]:
    """(gated metrics, named metrics, per-op sample stats).

    The gated metrics are the ``end_to_end`` list of BENCHMARK.json.

    Timing metrics are per-run medians of calibrated seconds (see
    ``SpeedSampler``); the stats also give the wall-clock median.
    """
    stats = {}
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MB"),
             "failed_frac": (runner.failed / runner.attempted, "ratio")}
    for name, kinds in wl.timings.items():
        stats[name] = tail([v for kind in kinds for v in runner.times[kind]])
        stats[name]["wall_median"] = statistics.median(
            v for kind in kinds for v in runner.raw_times[kind])
        named[name] = (stats[name]["median"], "s")
    stats["round_s"] = tail(rounds)
    named["round_s"] = (stats["round_s"]["median"], "s")
    named.update(wl.quality())
    gated = {name: named[name] for name in ("setup_s", "peak_rss_mb")}
    for slot, name in zip(SLOTS, wl.slots):
        gated[slot] = named[name]
    return gated, named, stats


def per_layer(runner: Runner, tracer: Tracer, untraced_op_s: float) -> dict:
    """Per-layer counts, and self/inclusive time as a percentage of traced op time."""
    summary = tracer.summary()
    op_s = summary["op_s"]
    counts = tracer.counts

    def pct(seconds: float) -> tuple[float, str]:
        return (100.0 * seconds / op_s if op_s else 0.0, "%")

    def count(key: str) -> tuple[float, str]:
        return (counts.get(key, 0.0), "count")

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0, "ratio")

    inc = summary["inclusive"]
    consumed = counts.get("noise.update.calls", 0.0) + counts.get("simulator.samples_consumed", 0.0)
    m = {
        "config.grid_pairs": count("config.grid_pairs"),
        "config.valid_configs": count("config.valid_configs"),
        "config.valid_ratio": ratio(counts.get("config.valid_configs", 0.0),
                                    counts.get("config.grid_pairs", 0.0)),
        "config.valid_configs_pct": pct(inc.get("config.valid_configs", 0.0)),
        "config.jobconfigs_built": count("config.jobconfigs_built"),
        "perfmodel.predict_calls": count("perfmodel.predict.calls"),
        "perfmodel.predict_pct": pct(inc.get("perfmodel.predict", 0.0)),
        "perfmodel.predict_out_of_domain": count("perfmodel.predict_out_of_domain"),
        "perfmodel.fit_calls": count("perfmodel.fit.calls"),
        "perfmodel.fit_pct": pct(inc.get("perfmodel.fit", 0.0)),
        "tradeoff.points_built": count("tradeoff.points_built"),
        "tradeoff.pareto_calls": count("tradeoff.pareto.calls"),
        "tradeoff.pareto_points_in": count("tradeoff.pareto_points_in"),
        "tradeoff.pareto_points_out": count("tradeoff.pareto_points_out"),
        "tradeoff.pareto_pct": pct(inc.get("tradeoff.pareto", 0.0)),
        "tradeoff.knee_calls": count("tradeoff.knee.calls"),
        "tradeoff.knee_pct": pct(inc.get("tradeoff.knee", 0.0)),
        "policy.select_calls": count("policy.select.calls"),
        "policy.select_points_in": count("policy.select_points_in"),
        "policy.feasible_ratio": ratio(counts.get("policy.feasible", 0.0),
                                       counts.get("policy.select_points_in", 0.0)),
        "policy.select_pct": pct(inc.get("policy.select", 0.0)),
        "noise.update_calls": count("noise.update.calls"),
        "noise.update_pct": pct(inc.get("noise.update", 0.0)),
        "noise.skipped": count("noise.skipped"),
        "noise.anchor_iters": count("noise.anchor_iters"),
        "noise.samples_built": count("noise.samples_built"),
        "simulator.profile_calls": count("simulator.profile.calls"),
        "simulator.profile_samples": count("simulator.profile_samples"),
        "simulator.profile_pct": pct(inc.get("simulator.profile", 0.0)),
        "simulator.samples_used_ratio": ratio(consumed, counts.get("simulator.profile_samples", 0.0)),
        "simulator.oracle_pct": pct(inc.get("simulator.oracle", 0.0)),
        "search.explored": count("search.explored"),
        "search.dropped_configs": count("search.dropped_configs"),
        "traces.write_lines": count("traces.write_lines"),
        "traces.write_bytes": (counts.get("traces.write_bytes", 0.0), "B"),
        "traces.write_pct": pct(inc.get("traces.write", 0.0)),
        "traces.read_lines": count("traces.read_lines"),
        "traces.read_pct": pct(inc.get("traces.read", 0.0)),
        "store.save_calls": count("store.save.calls"),
        "store.save_pct": pct(inc.get("store.save", 0.0)),
        "store.bytes_written": (counts.get("store.bytes_written", 0.0), "B"),
        "store.load_calls": count("store.load.calls"),
        "store.load_pct": pct(inc.get("store.load", 0.0)),
        "scenario.load_pct": pct(inc.get("scenario.load", 0.0)),
        "cli.output_bytes": (float(runner.output_bytes), "B"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = pct(summary["layer_self"][layer])
    m["trace.overhead_frac"] = (op_s / untraced_op_s - 1.0, "ratio")
    return m


def run_workload(sf, sampler: SpeedSampler | None, import_s: float, name: str, seed: int,
                 seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name](sf, seed)
    work = OUT / f"work-{name}-{seed}"
    runner = Runner(sf, sampler)
    problems = reference.self_test()
    try:
        setup_seconds, inputs_sha256, setup_problems = set_up(wl, runner, work)
        problems += setup_problems
        setup_s = import_s + statistics.median(setup_seconds)
        result = {"workload": name, "seed": seed, "trace": trace, "inputs_sha256": inputs_sha256,
                  "setup_seconds": [import_s, *setup_seconds]}
        if not trace:
            rounds = timed_rounds(wl, runner, seconds)
            metrics, named, stats = end_to_end(wl, runner, rounds, setup_s)
            result.update(rounds=len(rounds), named=named, ops=stats,
                          samples={**runner.times, "round": rounds},
                          wall_samples=runner.raw_times)
            runners = [runner]
        else:
            plain = Runner(sf)
            for r in range(wl.trace_rounds):
                wl.round(r, plain)
            tracer = Tracer()
            traced = Runner(sf, tracer=tracer)
            tracer.install()
            try:
                for r in range(wl.trace_rounds):
                    wl.round(r, traced)
            finally:
                tracer.uninstall()
            metrics = per_layer(traced, tracer, plain.op_total)
            summary = tracer.summary()
            share = sum(summary["layer_self"][l] for l in wl.stressed) / summary["op_s"]
            result.update(rounds=wl.trace_rounds, layer_self_s=summary["layer_self"],
                          op_s=summary["op_s"], untraced_op_s=plain.op_total,
                          rationale={"layers": wl.stressed, "self_share": share})
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_spans(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
            runners = [runner, plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    errors = [e for r in runners for e in r.errors] + problems
    if sampler is not None:
        result["calibration"] = {"nominal_kernel_s": sampler.NOMINAL_S,
                                 "period_s": sampler.PERIOD_S, **tail(sampler.kernel_s),
                                 "min": min(sampler.kernel_s), "max": max(sampler.kernel_s)}
    result.update(metrics=metrics, attempted=attempted, failed=failed,
                  correct=failed == 0 and not problems, errors=errors[:50])
    return result


def print_result(result: dict) -> None:
    print(f"# {result['workload']} seed {result['seed']}: {result['rounds']} rounds, "
          f"{result['attempted']} ops, {result['failed']} failed")
    for error in result["errors"][:10]:
        print(f"#   FAILED {error}")
    if not result["trace"]:
        slot_of = dict(zip(WORKLOADS[result["workload"]].slots, SLOTS))
        for name, (value, unit) in result["named"].items():
            stat = result["ops"].get(name)
            extra = f"  n={stat['n']}" if stat else ""
            if stat and stat["tail_pct"] is not None:
                extra += f" p{stat['tail_pct']:g}={stat['tail']:.6g}"
            slot = f"  [{slot_of[name]}]" if name in slot_of else ""
            print(f"#   {name:<22} {value:>14.6g} {unit:<6}{extra}{slot}")
    else:
        for layer, seconds in result["layer_self_s"].items():
            share = 100.0 * seconds / result["op_s"]
            print(f"#   {layer:<10} self {seconds:10.4f} s  {share:6.2f} %")
        rat = result["rationale"]
        print(f"#   {' + '.join(rat['layers'])} self share {rat['self_share']:.3f}"
              f" ({'meets' if rat['self_share'] >= 0.5 else 'BELOW'} 0.5)")
        print(f"#   tracing overhead {result['metrics']['trace.overhead_frac'][0]:.3f}"
              f" ({result['op_s']:.3f} s traced vs {result['untraced_op_s']:.3f} s)")


def as_metrics(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sampler = None if args.trace else SpeedSampler()
    results = []
    with sampler or contextlib.nullcontext():
        mark = sampler.mark() if sampler is not None else None
        sf, import_s = import_scalefit()
        if sampler is not None:
            import_s = sampler.calibrate(mark)[0]
        OUT.mkdir(parents=True, exist_ok=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        env = environment()
        for name in names:
            result = run_workload(sf, sampler, import_s, name, args.seed, args.seconds,
                                  bool(args.trace))
            result["environment"] = env
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=2, default=str) + "\n")
            print_result(result)
            results.append(result)
    if len(results) == 1:
        metrics = as_metrics(results[0]["metrics"])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in as_metrics(r["named"] if not r["trace"] else r["metrics"]).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
