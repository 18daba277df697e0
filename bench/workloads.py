"""The benchmark's workloads and the closed-loop runner that drives them.

Each workload generates its inputs from the seed alone, runs rounds of
user-facing commands through ``scalefit.cli.main`` in-process (one command
at a time, each issued after the previous one returned), and checks every
output against a reference computed here.  See README.md for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import signal
import statistics
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref

FLAT_HOURLY_USD = 0.13402
CLUSTER = {
    "shape": {"vcpus": 4, "memory_gb": 16},
    "pricing": {"mode": "flat_per_vm", "flat_hourly_usd": FLAT_HOURLY_USD},
}
EPOCH = "1970-01-01T00:00:00+00:00"


def _kernel(n: int = 600) -> float:
    """Fixed pure-Python arithmetic that allocates nothing the GC tracks."""
    acc = 0.0
    for i in range(n):
        x = (i % 97) + 1.5
        acc += x ** -0.5 * 3.0 + (i // 7) * 0.25
    return acc


class SpeedSampler:
    """Samples the host's speed all through the run, ops included.

    The host is shared and left untuned: each core flips between a quiet
    and a busy state every few seconds (up to 1.7x slower) as neighbours
    load it, so a 2 s op sees its own random share of busy time.  While
    active, an interval timer times a fixed kernel every ``PERIOD_S``.
    ``calibrate`` takes an op's wall-clock time, removes the sampler's own
    time, and scales it by ``NOMINAL_S`` over the mean kernel time during
    the op (over the last ``WINDOW`` samples for a short op): the time the
    op would take on a host that runs the kernel in ``NOMINAL_S``.
    """

    NOMINAL_S = 150e-6
    PERIOD_S = 0.01
    WINDOW = 20

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        start = perf_counter()
        _kernel()
        end = perf_counter()
        self.kernel_s.append(end - start)
        self.spent_s += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        for _ in range(self.WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float, float]:
        return len(self.kernel_s), self.spent_s, perf_counter()

    def calibrate(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(calibrated, wall-clock) seconds since ``mark``, sampler time removed."""
        end = perf_counter()
        first, spent, start = mark
        wall = end - start - (self.spent_s - spent)
        last = len(self.kernel_s)
        window = self.kernel_s[max(0, min(first, last - self.WINDOW)):last]
        return wall * self.NOMINAL_S / statistics.fmean(window), wall


class Runner:
    """Runs one operation at a time, times it, and checks its output.

    An operation fails when it raises, exits with an unexpected code, or
    its output check returns a message; failures are counted, not raised.
    With a sampler, ``times`` holds calibrated seconds per op kind (see
    ``SpeedSampler``) and ``raw_times`` wall-clock seconds; without one,
    both hold wall-clock seconds.  ``op_total`` sums ``times``.
    """

    def __init__(self, sf, sampler: SpeedSampler | None = None, tracer=None) -> None:
        self.sf = sf
        self.sampler = sampler
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.raw_times: dict[str, list[float]] = defaultdict(list)
        self.op_total = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.output_bytes = 0

    def count(self, key: str, n: float) -> None:
        if self.tracer is not None:
            self.tracer.counts[key] += n

    def mark(self) -> tuple[int, float, float]:
        return self.sampler.mark() if self.sampler is not None else (0, 0.0, perf_counter())

    def elapsed(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(seconds as recorded in ``times``, wall-clock seconds) since ``mark``."""
        if self.sampler is not None:
            return self.sampler.calibrate(mark)
        wall = perf_counter() - mark[2]
        return wall, wall

    def op(self, kind: str, thunk, check=None):
        """Time ``thunk()``; return its result, or None when the op failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted, kind)
        error = None
        result = None
        mark = self.mark()
        try:
            result = thunk()
        except Exception as exc:  # a crashing op is a counted failure
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            seconds, wall = self.elapsed(mark)
            if self.tracer is not None:
                self.tracer.end_op()
        self.times[kind].append(seconds)
        self.raw_times[kind].append(wall)
        self.op_total += seconds
        if error is None and check is not None:
            try:
                error = check(result)
            except Exception as exc:  # a malformed output is a counted failure
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{kind}: {error}")
            return None
        return result

    def cli(self, kind: str, argv: list[str], check=None, expect: int = 0) -> str | None:
        """Run one CLI command with stdout captured; return stdout or None."""
        main = self.sf.cli.main

        def thunk():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        def full_check(result):
            code, out, err = result
            if code != expect:
                return f"exit {code}, expected {expect}: {err.strip()[-300:]}"
            self.output_bytes += len(out.encode())
            return check(out) if check is not None else None

        result = self.op(kind, thunk, full_check)
        return None if result is None else result[1]


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def preset_coefficients(sf, name: str) -> tuple[dict, int]:
    w = sf.simulator.preset_workload(name)
    coef = {
        "noise_slope": w.noise_slope, "noise_intercept": w.noise_intercept,
        "epochs_base": w.epochs_base, "epochs_slope": w.epochs_slope,
        "base_s": w.time_base_s, "per_sample_s": w.time_per_sample_s,
        "per_worker_s": w.time_per_worker_s,
    }
    return coef, w.dataset_size


def model_coefficients(model_doc: dict) -> dict:
    """Coefficients of a model document, parsed from its decimal strings."""
    both = {**model_doc["stat"], **model_doc["parallel"]}
    return {k: float(both[k]) for k in ref.COEFFICIENTS}


def point_tuple(K, B, t, c, i):
    return (int(K[i]), int(B[i]), float(t[i]), float(c[i]))


def pred_err(coef, dataset, K, B, true_t) -> float:
    """Mean |T_pred - T_true| / T_true of a model over a grid."""
    pred_t, _, _ = ref.predict(coef, dataset, K, B, FLAT_HOURLY_USD)
    return float(np.mean(np.abs(pred_t - true_t) / true_t))


def overhead_identity(doc: dict) -> str | None:
    """The reported overhead must equal the sum of the explored runs' elapsed time."""
    total_t = total_c = 0.0
    for e in doc["explored"]:
        if e["kind"] == "skipped":
            continue
        dt = e["restore_s"] + e["iterations"] * e["mean_iteration_time_s"]
        total_t += dt
        total_c += dt / 3600.0 * (e["workers"] * FLAT_HOURLY_USD)
    if (total_t, total_c) != (doc["overhead_time_s"], doc["overhead_cost_usd"]):
        return (f"overhead ({doc['overhead_time_s']}, {doc['overhead_cost_usd']}) "
                f"!= explored sum ({total_t}, {total_c})")
    return None


# ---------------------------------------------------------------- plan-dense


class PlanDense:
    """``curves`` and ``recommend`` on a dense K 1-20 x B 1-2048 grid."""

    name = "plan-dense"
    stressed = ("config", "perfmodel", "tradeoff", "policy")
    timings = {
        "curves_s": ("curves",),
        "recommend_knee_s": ("recommend_knee",),
        "recommend_cap_s": ("recommend_cap", "recommend_miss"),
    }
    slots = tuple(timings)
    min_rounds = 1
    trace_rounds = 1
    K_MAX, B_MAX = 20, 2048
    BASE = {  # resnet18-like
        "noise_slope": 48.0, "noise_intercept": 0.1, "epochs_base": 6.0,
        "epochs_slope": 16.0, "base_s": 0.25, "per_sample_s": 0.012,
        "per_worker_s": 0.008,
    }
    DATASET = 1_000_000

    def __init__(self, sf, seed: int) -> None:
        self.sf = sf
        self.seed = seed

    def setup(self, work: Path) -> list[Path]:
        rng = np.random.default_rng([self.seed, 0])
        scale = rng.uniform(0.75, 1.25, size=len(self.BASE) + 1)
        coef = {k: float(v * s) for (k, v), s in zip(self.BASE.items(), scale)}
        dataset = int(round(self.DATASET * scale[-1]))
        self.model = write_json(work / "model.json", {
            "schema_version": 1, "fingerprint": "plan-dense", "created_at": EPOCH,
            "dataset_size": dataset, "provenance": "full_search",
            "stat": {k: repr(coef[k]) for k in ref.COEFFICIENTS[:4]},
            "parallel": {k: repr(coef[k]) for k in ref.COEFFICIENTS[4:]},
        })
        K, B = ref.grid(range(1, self.K_MAX + 1), range(1, self.B_MAX + 1))
        t, c, ok = ref.predict(coef, dataset, K, B, FLAT_HOURLY_USD)
        if not ok.all():
            raise RuntimeError("generated model leaves its domain on the grid")
        self.K, self.B, self.t, self.c = K, B, t, c
        self.index = {(int(k), int(b)): i for i, (k, b) in enumerate(zip(K, B))}
        self.rows = {key: (f"{t[i]:.6g}", f"{c[i]:.6g}") for key, i in self.index.items()}
        mask = ref.frontier_mask(t, c)
        self.frontier = {(int(k), int(b)) for k, b in zip(K[mask], B[mask])}
        self.grid_args = ["--model", str(self.model), "--k-min", "1",
                          "--k-max", str(self.K_MAX), "--b-min", "1",
                          "--b-max", str(self.B_MAX)]
        return [self.model]

    def warm_up(self, run: Runner) -> None:
        run.cli("warmup", ["recommend", *self.grid_args, "--objective", "min-cost-time"])

    def caps(self, r: int) -> list[tuple[str, float]]:
        """Two deadlines and two budgets at seeded quantiles of the reference."""
        rng = np.random.default_rng([self.seed, r + 1])
        q_time = rng.uniform(0.05, 0.95, size=2)
        q_cost = rng.uniform(0.05, 0.95, size=2)
        return ([("deadline", float(q)) for q in np.quantile(self.t, q_time)]
                + [("budget", float(q)) for q in np.quantile(self.c, q_cost)])

    def round(self, r: int, run: Runner) -> None:
        run.cli("curves", ["curves", *self.grid_args, "--format", "csv"], self.check_curves)
        run.cli("recommend_knee", ["recommend", *self.grid_args, "--objective", "knee"],
                self.check_knee)
        capped = [(kind, [f"--{kind}", repr(cap)], {kind: cap}) for kind, cap in self.caps(r)]
        for kind, flags, caps in capped + [("min_cost_time", ["--objective", "min-cost-time"], {})]:
            run.cli("recommend_cap", ["recommend", *self.grid_args, *flags],
                    lambda out, kind=kind, caps=caps: self.check_pick(out, kind, caps))
        # Caps below every point: the exit-3 nearest-miss path.
        for kind, cap in (("deadline", 0.5 * float(self.t.min())),
                          ("budget", 0.5 * float(self.c.min()))):
            run.cli("recommend_miss", ["recommend", *self.grid_args, f"--{kind}", repr(cap)],
                    lambda out, kind=kind, cap=cap: self.check_pick(out, kind, {kind: cap}),
                    expect=3)

    def check_curves(self, out: str) -> str | None:
        table = list(csv.reader(io.StringIO(out)))
        header, body = table[0], table[1:]
        col = {name: header.index(name) for name in
               ("workers", "global_batch", "time_s", "cost_usd", "on_pareto", "is_knee")}
        if len(body) != len(self.rows):
            return f"{len(body)} rows, expected {len(self.rows)}"
        pareto = set()
        knees = 0
        for row in body:
            key = (int(row[col["workers"]]), int(row[col["global_batch"]]))
            if self.rows.get(key) != (row[col["time_s"]], row[col["cost_usd"]]):
                return f"row {key} is {row}, expected time/cost {self.rows.get(key)}"
            if row[col["on_pareto"]] == "true":
                pareto.add(key)
            knees += row[col["is_knee"]] == "true"
        if knees != self.B_MAX:
            return f"{knees} knee rows, expected one per batch size ({self.B_MAX})"
        return ref.check_frontier(pareto, self.frontier)

    def check_knee(self, out: str) -> str | None:
        doc = json.loads(out)
        chosen = doc["chosen"]
        key = (chosen["workers"], chosen["global_batch"])
        if key not in self.frontier:
            return f"knee {key} is not on the reference frontier"
        if doc["feasible_count"] != len(self.t):
            return f"feasible_count {doc['feasible_count']}, expected {len(self.t)}"
        return ref.check_point("knee", chosen, point_tuple(self.K, self.B, self.t, self.c,
                                                           self.index[key]))

    def check_pick(self, out: str, kind: str, caps: dict) -> str | None:
        doc = json.loads(out)
        i, feasible = ref.pick(kind, self.t, self.c, self.K, self.B, **caps)
        want = point_tuple(self.K, self.B, self.t, self.c, i)
        if doc["feasible"] != feasible:
            return f"feasible {doc['feasible']}, expected {feasible}"
        count = int(np.sum((self.t <= caps.get("deadline", np.inf))
                           & (self.c <= caps.get("budget", np.inf))))
        if doc["feasible_count"] != count:
            return f"feasible_count {doc['feasible_count']}, expected {count}"
        if feasible:
            return ref.check_point(kind, doc["chosen"], want)
        return ref.check_point("nearest_miss", doc["nearest_miss"], want)

    def quality(self) -> dict:
        return {}


# ---------------------------------------------------------------- search-anchor


class SearchAnchor:
    """``search`` in full, partial and scaling mode on a transformer-like scenario."""

    name = "search-anchor"
    stressed = ("noise", "simulator")
    timings = {
        "search_full_s": ("search_full",),
        "search_partial_s": ("search_partial", "search_rerun"),
        "search_scaling_s": ("search_scaling",),
    }
    slots = tuple(timings)
    min_rounds = 5  # quality metrics average exactly these rounds
    trace_rounds = 3
    MODES = ("full", "partial", "scaling")
    K_VALUES = (16, 32, 48, 64)
    B_VALUES = (1024, 2048, 4096, 8192)

    def __init__(self, sf, seed: int) -> None:
        self.sf = sf
        self.seed = seed
        self.samples: dict[str, list[float]] = defaultdict(list)

    def setup(self, work: Path) -> list[Path]:
        self.work = work
        coef, self.dataset = preset_coefficients(self.sf, "transformer-like")
        self.K, self.B = ref.grid(self.K_VALUES, self.B_VALUES)
        self.true_t, _, _ = ref.predict(coef, self.dataset, self.K, self.B, FLAT_HOURLY_USD)
        self.valid = {(int(k), int(b)) for k, b in zip(self.K, self.B)}
        return [self.scenario(0, mode) for mode in self.MODES]

    def scenario(self, r: int, mode: str) -> Path:
        return write_json(self.work / f"scenario-{mode}.json", {
            "seed": self.seed + r,
            "workload": {"preset": "transformer-like", "jitter": 0.05},
            "cluster": {**CLUSTER, "restore_overhead_s": 127.0},
            "bounds": {"k_min": self.K_VALUES[0], "k_max": self.K_VALUES[-1],
                       "k_step": self.K_VALUES[1] - self.K_VALUES[0],
                       "b_min": self.B_VALUES[0], "b_max": self.B_VALUES[-1],
                       "b_candidates": list(self.B_VALUES)},
            "search": {"mode": mode, "profile_iters": 20},
            "objective": {"kind": "min_cost_time"},
        })

    def warm_up(self, run: Runner) -> None:
        run.cli("warmup", ["search", "--scenario", str(self.work / "scenario-partial.json")])

    def round(self, r: int, run: Runner) -> None:
        outputs = {}
        for mode in self.MODES:
            path = self.scenario(r, mode)
            outputs[mode] = run.cli(
                "search_" + mode, ["search", "--scenario", str(path)],
                lambda out, mode=mode: self.check(out, mode, r, run))
        if outputs["partial"] is not None:
            run.cli("search_rerun", ["search", "--scenario", str(self.work / "scenario-partial.json")],
                    lambda out: None if out == outputs["partial"]
                    else "re-running the partial scenario gave different output")

    def check(self, out: str, mode: str, r: int, run: Runner) -> str | None:
        doc = json.loads(out)
        if doc["mode"] != mode or doc["seed"] != self.seed + r:
            return f"outcome is for mode {doc['mode']!r} seed {doc['seed']}"
        chosen = (doc["chosen"]["workers"], doc["chosen"]["global_batch"])
        if chosen not in self.valid:
            return f"chosen {chosen} is not a valid grid configuration"
        error = overhead_identity(doc)
        if error is not None:
            return error
        explored = [e for e in doc["explored"] if e["kind"] != "skipped"]
        run.count("noise.anchor_iters",
                  sum(e["iterations"] for e in explored if e["kind"] == "anchor"))
        run.count("simulator.samples_consumed",
                  sum(e["iterations"] for e in explored if e["kind"] == "profile"))
        run.count("search.explored", len(explored))
        run.count("search.dropped_configs", len(self.valid) - len(doc["tradeoff_points"]))
        if r < self.min_rounds and run.tracer is None:
            coef = model_coefficients(doc["model"])
            self.samples["regret_time_frac"].append(doc["end_to_end"]["time_increase_fraction"])
            self.samples["profiling_cost_usd"].append(doc["overhead_cost_usd"])
            self.samples["pred_err_frac"].append(
                pred_err(coef, doc["model"]["dataset_size"], self.K, self.B, self.true_t))
        return None

    def quality(self) -> dict:
        units = {"regret_time_frac": "ratio", "profiling_cost_usd": "USD", "pred_err_frac": "ratio"}
        return {k: (float(np.mean(v)), units[k]) for k, v in self.samples.items()}


# ---------------------------------------------------------------- trace-fit-store


class TraceFitStore:
    """simulate -> fit -> 200 store saves -> reuse search on a fingerprint miss."""

    name = "trace-fit-store"
    stressed = ("traces", "simulator", "store")
    timings = {
        "simulate_s": ("simulate",),
        "fit_s": ("fit",),
        "store_save_s": ("store_save",),
        "search_reuse_s": ("search_reuse",),
    }
    # Saves are file-metadata bound; on a shared disk their latency swings
    # 2x in phases of tens of seconds, so they are reported but not gated.
    slots = ("simulate_s", "fit_s", "search_reuse_s")
    min_rounds = 3  # pred_err_frac averages exactly these rounds
    trace_rounds = 2
    K_VALUES = (8, 16, 32)
    B_VALUES = (512, 1024, 2048, 4096)
    ITERS = 1000
    TENANTS = 200
    FIT_TOLERANCE = 0.05

    def __init__(self, sf, seed: int) -> None:
        self.sf = sf
        self.seed = seed
        self.samples: dict[str, list[float]] = defaultdict(list)

    def setup(self, work: Path) -> list[Path]:
        self.work = work
        self.truth, self.dataset = preset_coefficients(self.sf, "resnet50-like")
        self.K, self.B = ref.grid(range(8, 33, 8), self.B_VALUES)
        self.true_t, _, _ = ref.predict(self.truth, self.dataset, self.K, self.B, FLAT_HOURLY_USD)
        k0 = self.K_VALUES[0]
        self.anchor_epochs = {b: self.true_epochs(b) for b in self.B_VALUES}
        self.anchors = write_json(work / "anchors.json", {"anchors": [
            {"K": k0, "B": b, "epochs": e} for b, e in self.anchor_epochs.items()]})
        return [self.anchors, self.reuse_scenario(0)]

    def true_epochs(self, b: int) -> float:
        noise = self.truth["noise_slope"] * b ** -0.5 + self.truth["noise_intercept"]
        return self.truth["epochs_base"] + self.truth["epochs_slope"] * noise

    def config_args(self) -> list[str]:
        return [arg for k in self.K_VALUES for b in self.B_VALUES for arg in ("--config", f"{k}x{b}")]

    def reuse_scenario(self, r: int) -> Path:
        return write_json(self.work / "scenario-reuse.json", {
            "seed": self.seed + r,
            "workload": {"preset": "resnet50-like", "jitter": 0.05},
            "cluster": {**CLUSTER, "restore_overhead_s": 40.0},
            "bounds": {"k_min": 8, "k_max": 32, "k_step": 8, "b_min": 512, "b_max": 4096,
                       "b_candidates": list(self.B_VALUES)},
            "search": {"mode": "none"},
            "objective": {"kind": "min_cost_time"},
            "store_dir": str(self.work / "round" / "store"),
        })

    def warm_up(self, run: Runner) -> None:
        out_dir = fresh_dir(self.work / "warmup")
        run.cli("warmup", ["simulate", "--workload", "resnet50-like", "--seed", str(self.seed),
                           "--iters", "200", "--out", str(out_dir), "--config", "8x512"])
        shutil.rmtree(out_dir)

    def round(self, r: int, run: Runner) -> None:
        d = fresh_dir(self.work / "round")
        try:
            self.run_round(r, run, d)
        finally:
            shutil.rmtree(d)

    def run_round(self, r: int, run: Runner, d: Path) -> None:
        n_configs = len(self.K_VALUES) * len(self.B_VALUES)
        out = run.cli("simulate", [
            "simulate", "--workload", "resnet50-like", "--jitter", "0.05",
            "--seed", str(self.seed + r), "--iters", str(self.ITERS),
            "--out", str(d / "traces"), *self.config_args()],
            lambda out: None if len(out.split()) == n_configs
            and all(Path(p).stat().st_size > 0 for p in out.split())
            else f"expected {n_configs} trace files, got {out.split()}")
        if out is None:
            return
        run.count("simulator.samples_consumed", n_configs * self.ITERS)
        model_path = d / "model.json"
        fitted = run.cli("fit", [
            "fit", "--traces", *out.split(), "--anchors", str(self.anchors),
            "--dataset-size", str(self.dataset), "--fingerprint", "resnet50-like",
            "--out", str(model_path)], lambda _: self.check_fit(model_path, r, run))
        if fitted is None:
            return
        store = self.sf.store.ModelStore(d / "store")
        model = self.sf.store.read_model_file(model_path).model
        for i in range(self.TENANTS):
            tenant = replace(model, fingerprint=f"tenant-{i:03d}")
            run.op("store_save", lambda m=tenant: store.save(m),
                   lambda _, m=tenant: None if store.load(m.fingerprint).model == m
                   else "save -> load round trip is not bit-exact")
        run.cli("search_reuse", ["search", "--scenario", str(self.reuse_scenario(r))],
                self.check_reuse)

    def check_fit(self, model_path: Path, r: int, run: Runner) -> str | None:
        doc = json.loads(model_path.read_text())
        coef = model_coefficients(doc)
        for name in ("base_s", "per_sample_s", "per_worker_s"):
            if abs(coef[name] / self.truth[name] - 1.0) > self.FIT_TOLERANCE:
                return f"fitted {name} {coef[name]} is not within 5% of {self.truth[name]}"
        for b, epochs in self.anchor_epochs.items():
            noise = coef["noise_slope"] * b ** -0.5 + coef["noise_intercept"]
            fitted = coef["epochs_base"] + coef["epochs_slope"] * noise
            if abs(fitted / epochs - 1.0) > self.FIT_TOLERANCE:
                return f"fitted epochs at B={b} is {fitted}, anchor says {epochs}"
        if r < self.min_rounds and run.tracer is None:
            self.samples["pred_err_frac"].append(
                pred_err(coef, doc["dataset_size"], self.K, self.B, self.true_t))
        return None

    def check_reuse(self, out: str) -> str | None:
        doc = json.loads(out)
        model = doc["model"]
        if model["provenance"] != "universal" or doc["explored"] or doc["overhead_time_s"] != 0.0:
            return "fingerprint miss did not fall back to the universal model"
        t, c, ok = ref.predict(model_coefficients(model), model["dataset_size"],
                               self.K, self.B, FLAT_HOURLY_USD)
        i, _ = ref.pick("min_cost_time", t[ok], c[ok], self.K[ok], self.B[ok])
        want = point_tuple(self.K[ok], self.B[ok], t[ok], c[ok], i)
        return ref.check_point("reuse", doc["recommendation"]["chosen"], want)

    def quality(self) -> dict:
        return {k: (float(np.mean(v)), "ratio") for k, v in self.samples.items()}


WORKLOADS = {w.name: w for w in (PlanDense, SearchAnchor, TraceFitStore)}
