"""Span tracing around scalefit's public functions, from outside the package.

``Tracer.install`` wraps each traced function or method and rebinds the
name in every ``scalefit`` module that imported it, so calls made from
inside the package are seen too.  A span is (name, start, end, parent, op);
spans are kept in memory and written out as JSON Lines when the run ends.
Object construction is counted, not timed, by wrapping ``__post_init__``.
Calls made while no operation is open (set-up and output checks) are
neither timed nor counted.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "config", "perfmodel", "tradeoff", "policy", "noise", "simulator",
    "search", "traces", "store", "scenario", "cli",
)


def _len_result(key):
    def after(counts, args, result):
        counts[key] += len(result)
    return after


def _after_pareto(counts, args, result):
    counts["tradeoff.pareto_points_in"] += len(args[0])
    counts["tradeoff.pareto_points_out"] += len(result)


def _after_select(counts, args, result):
    counts["policy.select_points_in"] += len(args[0])
    counts["policy.feasible"] += result.feasible_count


def _after_write_trace(counts, args, result):
    counts["traces.write_lines"] += len(args[2])
    counts["traces.write_bytes"] += Path(args[0]).stat().st_size


def _after_read_trace(counts, args, result):
    counts["traces.read_lines"] += len(result[1])


def _after_save(counts, args, result):
    counts["store.bytes_written"] += (
        result.stat().st_size + (args[0].root / "index.json").stat().st_size
    )


def _error_counter(key, exc_name):
    def on_error(counts, exc):
        if type(exc).__name__ == exc_name:
            counts[key] += 1
    return on_error


def _targets(sf):
    """(span name, owner, attribute, after-hook, error-hook) for every traced call.

    Calls that only ever run inside another span of the same layer, or that
    cost nothing measurable, are left unwrapped.
    """
    c, pm, tr, po, no, si = sf.config, sf.perfmodel, sf.tradeoff, sf.policy, sf.noise, sf.simulator
    se, tc, st, sc, cl = sf.search, sf.traces, sf.store, sf.scenario, sf.cli
    return [
        ("config.grid", c.SearchBounds, "grid", _len_result("config.grid_pairs"), None),
        ("config.valid_configs", c.SearchBounds, "valid_configs",
         _len_result("config.valid_configs"), None),
        ("perfmodel.predict", pm, "predict", None,
         _error_counter("perfmodel.predict_out_of_domain", "ModelOutOfDomainError")),
        ("perfmodel.fit", pm, "fit_noise_vs_batch", None, None),
        ("perfmodel.fit", pm, "fit_epochs_vs_noise", None, None),
        ("perfmodel.fit", pm, "fit_iteration_time", None, None),
        ("tradeoff.pareto", tr, "pareto_frontier", _after_pareto, None),
        ("tradeoff.knee", tr, "kneedle_knee", None, None),
        ("tradeoff.curve_build", tr.TradeoffCurve, "build", None, None),
        ("policy.select", po, "select", _after_select, None),
        ("noise.update", no.NoiseTracker, "update", None,
         _error_counter("noise.skipped", "DegenerateGradientError")),
        ("noise.compute_raw_noise", no, "compute_raw_noise", None, None),
        ("simulator.profile", si.SimEnvironment, "profile",
         _len_result("simulator.profile_samples"), None),
        ("simulator.oracle", si, "oracle_best", None, None),
        ("search.full", se, "full_search", None, None),
        ("search.partial", se, "partial_search", None, None),
        ("search.scaling", se, "online_scaling_search", None, None),
        ("search.none", se, "no_search", None, None),
        ("traces.write", tc, "write_trace", _after_write_trace, None),
        ("traces.read", tc, "read_trace", _after_read_trace, None),
        ("store.save", st.ModelStore, "save", _after_save, None),
        ("store.load", st.ModelStore, "load", None, None),
        ("scenario.load", sc, "load_scenario", None, None),
        ("cli.main", cl, "main", None, None),
    ]


def _constructors(sf):
    return [
        ("config.jobconfigs_built", sf.config.JobConfig),
        ("tradeoff.points_built", sf.tradeoff.TradeoffPoint),
        ("noise.samples_built", sf.noise.IterationSample),
    ]


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import scalefit.cli  # noqa: F401  (loads every module that is traced)

        sf = sys.modules["scalefit"]
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "scalefit"]
        for name, owner, attr, after, on_error in _targets(sf):
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, after, on_error))
                self._rebind(owner, attr, raw, wrapped)
            elif isinstance(owner, type):
                self._rebind(owner, attr, raw, self._wrap(name, raw, after, on_error))
            else:
                wrapped = self._wrap(name, raw, after, on_error)
                for module in modules:
                    if getattr(module, attr, None) is raw:
                        self._rebind(module, attr, raw, wrapped)
        for key, cls in _constructors(sf):
            raw = cls.__dict__["__post_init__"]
            self._rebind(cls, "__post_init__", raw, self._counting(key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _rebind(self, owner, attr, raw, wrapped) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, after, on_error):
        spans, stack, counts, tracer = self.spans, self._stack, self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, op)
                counts[name + ".calls"] += 1
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def _counting(self, key, fn):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(obj):
            if tracer.op is not None:
                counts[key] += 1
            fn(obj)

        return wrapper

    # ------------------------------------------------------------ operations

    def begin_op(self, op: int, kind: str) -> None:
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(("op." + kind, perf_counter(), None, None, op))

    def end_op(self) -> None:
        idx = self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent, op)
        self.op = None

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """Inclusive and self seconds per span name, and the total op time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        op_s = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
            if parent is None:
                op_s += end - start
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, seconds in own.items():
            layer = name.split(".")[0]
            if layer in layer_self:
                layer_self[layer] += seconds
        return {"inclusive": dict(inclusive), "self": dict(own),
                "layer_self": layer_self, "op_s": op_s}

    def write_spans(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op}) + "\n")
