"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from scalefit.cli import main as cli_main
from scalefit.config import JobConfig
from scalefit.noise import EwmaConfig, NoiseEstimate
from scalefit.perfmodel import ParallelFit, PerfModel, StatFit
from scalefit.simulator import SimWorkload
from scalefit.tradeoff import TradeoffCurve, TradeoffPoint

# Same examples on every run, and no per-example time limit: wall-clock
# deadlines would make results depend on machine load.
settings.register_profile("scalefit", derandomize=True, deadline=None)
settings.load_profile("scalefit")

# 100,000 nested arrays: past the recursion limit of any JSON decoder call.
NESTED_JSON = "[" * 100_000 + "]" * 100_000


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process and capture (exit_code, stdout, stderr)."""

    def run(*argv: str) -> tuple[int, str, str]:
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def build_model(
    noise_slope: float = 48.0,
    noise_intercept: float = 0.0,
    epochs_base: float = 10.0,
    epochs_slope: float = 50.0,
    base_s: float = 0.2,
    per_sample_s: float = 0.001,
    per_worker_s: float = 0.05,
    dataset_size: int = 50_000,
    fingerprint: str = "example",
    provenance: str = "full_search",
) -> PerfModel:
    """The reference model used by the worked examples throughout the suite."""
    return PerfModel(
        stat=StatFit(
            noise_slope=noise_slope,
            noise_intercept=noise_intercept,
            epochs_base=epochs_base,
            epochs_slope=epochs_slope,
        ),
        parallel=ParallelFit(
            base_s=base_s, per_sample_s=per_sample_s, per_worker_s=per_worker_s
        ),
        dataset_size=dataset_size,
        fingerprint=fingerprint,
        provenance=provenance,
    )


def build_point(
    time_s: float, cost_usd: float, workers: int = 1, batch: int | None = None
) -> TradeoffPoint:
    """TradeoffPoint with a throwaway but valid config."""
    if batch is None:
        batch = workers
    return TradeoffPoint(JobConfig(workers, batch), time_s, cost_usd)


def all_pairs_frontier(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """Reference frontier: test every point against every other point."""
    frontier = [
        p
        for p in points
        if not any(
            q.time_s <= p.time_s
            and q.cost_usd <= p.cost_usd
            and (q.time_s < p.time_s or q.cost_usd < p.cost_usd)
            for q in points
        )
    ]
    return sorted(
        frontier,
        key=lambda p: (p.time_s, p.cost_usd, p.config.workers, p.config.global_batch),
    )


def scalar_kneedle(curve: TradeoffCurve) -> tuple[TradeoffPoint, str]:
    """Reference knee: kneedle on Python lists, one curve at a time."""
    pts = curve.points
    fallback = min(pts, key=lambda p: (
        p.time_s * p.cost_usd, p.time_s, p.cost_usd, p.config.workers, p.config.global_batch
    ))
    t = [p.time_s for p in pts]
    c = [p.cost_usd for p in pts]
    c_lo, c_hi = min(c), max(c)
    if len(pts) < 3 or c_hi == c_lo:
        return fallback, "fallback_min_cost_time"
    x = [(ti - t[0]) / (t[-1] - t[0]) for ti in t]
    y = [(ci - c_lo) / (c_hi - c_lo) for ci in c]
    increasing = y[-1] >= y[0]
    chord_dev = [y[i] - (y[0] + (y[-1] - y[0]) * x[i]) for i in range(1, len(pts) - 1)]
    concave = sum(chord_dev) / len(chord_dev) > 0
    if increasing and concave:
        d = [yi - xi for xi, yi in zip(x, y)]
    elif increasing:
        d = [xi - yi for xi, yi in zip(x, y)]
    elif not concave:
        d = [(1.0 - yi) - xi for xi, yi in zip(x, y)]
    else:
        d = [xi + yi - 1.0 for xi, yi in zip(x, y)]
    best = 0
    for i in range(1, len(d)):
        if d[i] > d[best]:
            best = i
    return pts[best], "kneedle"


def is_stabilized(estimate: NoiseEstimate, cfg: EwmaConfig) -> bool:
    """Reference stability test: warm-up reached and the window's relative spread
    ``(max - min) / max`` within tolerance; an empty window or a max of 0 has spread 0."""
    if estimate.samples_seen < cfg.warmup_iters:
        return False
    window = estimate.recent_window
    if not window or max(window) == 0:
        return True
    return (max(window) - min(window)) / max(window) <= cfg.stability_rel_tol


def true_iteration_time(workload: SimWorkload, workers: int, mini_batch: float) -> float:
    """Reference iteration time of the workload's timing plane."""
    return (
        workload.time_base_s
        + workload.time_per_sample_s * mini_batch
        + workload.time_per_worker_s * workers
    )


# Points on a few batch sizes with many worker counts each.  Times and costs
# come from a few fixed values or anywhere, so equal times, flat costs,
# exact duplicates and curves of one or two points are all common.
batched_points = st.lists(
    st.builds(
        lambda b, k, t, c: TradeoffPoint(JobConfig(k, b), t, c),
        st.sampled_from([12, 24, 36]),
        st.sampled_from([1, 2, 3, 4, 6, 12]),
        st.sampled_from([1.0, 2.0, 3.0]) | st.floats(0.5, 100.0),
        st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 100.0),
    ),
    min_size=1,
    max_size=40,
)


@pytest.fixture
def make_model():
    return build_model


@pytest.fixture
def point():
    return build_point
