"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from scalefit.cli import main as cli_main
from scalefit.config import JobConfig
from scalefit.perfmodel import ParallelFit, PerfModel, StatFit
from scalefit.tradeoff import TradeoffPoint

# Same examples on every run, and no per-example time limit: wall-clock
# deadlines would make results depend on machine load.
settings.register_profile("scalefit", derandomize=True, deadline=None)
settings.load_profile("scalefit")


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


@pytest.fixture
def make_model():
    return build_model


@pytest.fixture
def point():
    return build_point
