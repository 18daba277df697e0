"""Job configurations, VM shapes, cluster pricing, and search bounds.

Conventions used throughout the package: prices are $/hour, durations are
seconds, batch sizes are samples.  Seconds become hours in two places, with
one operation order, ``duration / 3600.0 * (workers * price)``:
:func:`run_cost_usd` and ``perfmodel._chain``, which prices prediction columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MAX_GRID_VALUE, ConfigurationError, check

PRICING_MODES = ("flat_per_vm", "per_resource")


@dataclass(frozen=True)
class JobConfig:
    """One (worker count, global batch size) training configuration, each in [1, 2**62]."""

    workers: int
    global_batch: int

    def __post_init__(self) -> None:
        check("workers", self.workers, 1, MAX_GRID_VALUE)
        check("global_batch", self.global_batch, 1, MAX_GRID_VALUE)
        if self.global_batch % self.workers != 0:
            raise ConfigurationError(
                f"global_batch {self.global_batch} is not divisible by "
                f"workers {self.workers}"
            )


def mini_batch(config: JobConfig) -> int:
    """Per-worker mini-batch size; exact because JobConfig enforces divisibility."""
    return config.global_batch // config.workers


@dataclass(frozen=True)
class VMShape:
    """Resources of a single worker VM."""

    vcpus: int
    memory_gb: float

    def __post_init__(self) -> None:
        check("vcpus", self.vcpus, 1, MAX_GRID_VALUE)
        check("memory_gb", self.memory_gb, 0, lo_open=True, finite=True)


@dataclass(frozen=True)
class PricingModel:
    """Hourly cluster pricing, either flat per VM or per allocated resource."""

    mode: str
    flat_hourly_usd: float = 0.0
    per_vcpu_hourly_usd: float = 0.0
    per_gb_hourly_usd: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in PRICING_MODES:
            raise ConfigurationError(
                f"pricing mode must be one of {PRICING_MODES}, got {self.mode!r}"
            )
        for name in ("flat_hourly_usd", "per_vcpu_hourly_usd", "per_gb_hourly_usd"):
            check(name, getattr(self, name), 0, finite=True)

    @classmethod
    def flat(cls, hourly_usd: float) -> "PricingModel":
        return cls(mode="flat_per_vm", flat_hourly_usd=hourly_usd)

    @classmethod
    def per_resource(cls, vcpu_hourly_usd: float, gb_hourly_usd: float) -> "PricingModel":
        return cls(
            mode="per_resource",
            per_vcpu_hourly_usd=vcpu_hourly_usd,
            per_gb_hourly_usd=gb_hourly_usd,
        )


def vm_hourly_price(pricing: PricingModel, shape: VMShape) -> float:
    """Hourly price of one VM of ``shape``."""
    if pricing.mode == "flat_per_vm":
        return pricing.flat_hourly_usd
    return (
        shape.vcpus * pricing.per_vcpu_hourly_usd
        + shape.memory_gb * pricing.per_gb_hourly_usd
    )


def run_cost_usd(
    pricing: PricingModel, shape: VMShape, workers: int, duration_s: float
) -> float:
    """Cost of running a cluster of ``workers`` identical VMs for ``duration_s`` seconds."""
    check("workers", workers, 1)
    return duration_s / 3600.0 * (workers * vm_hourly_price(pricing, shape))


@dataclass(frozen=True)
class SearchBounds:
    """Inclusive grid bounds over worker counts and global batch sizes.

    ``b_candidates`` replaces the batch range enumeration when given; worker
    counts always step from ``k_min`` by ``k_step``.  Candidate pairs that
    violate the JobConfig divisibility invariant are skipped, not rounded.
    Every bound and candidate is at most ``MAX_GRID_VALUE``.
    """

    k_min: int
    k_max: int
    b_min: int
    b_max: int
    k_step: int = 1
    b_candidates: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name, lo in (("k_min", 1), ("k_max", self.k_min), ("b_min", 1),
                         ("b_max", self.b_min), ("k_step", 1)):
            check(name, getattr(self, name), lo, MAX_GRID_VALUE)
        if self.b_candidates is not None:
            if len(self.b_candidates) == 0:
                raise ConfigurationError("b_candidates must not be empty")
            if any(not b >= 1 for b in self.b_candidates):  # NaN fails it too
                raise ConfigurationError("b_candidates must all be >= 1")
            if any(not b <= MAX_GRID_VALUE for b in self.b_candidates):
                raise ConfigurationError("b_candidates must all be <= 2**62")
            object.__setattr__(
                self, "b_candidates", tuple(sorted(set(self.b_candidates)))
            )

    def k_values(self) -> tuple[int, ...]:
        return tuple(range(self.k_min, self.k_max + 1, self.k_step))

    def b_values(self) -> tuple[int, ...]:
        if self.b_candidates is not None:
            return self.b_candidates
        return tuple(range(self.b_min, self.b_max + 1))

    def grid(self) -> list[tuple[int, int]]:
        """All (workers, global_batch) pairs of the grid, valid or not."""
        return [(k, b) for k in self.k_values() for b in self.b_values()]

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(workers, global_batch) int64 columns of the valid pairs, in grid order.

        Batch ranges step through each worker count's multiples directly
        instead of filtering the full product.  Worker counts above the
        largest batch divide none of them and are never enumerated.
        """
        b_hi = self.b_candidates[-1] if self.b_candidates is not None else self.b_max
        ks = np.arange(self.k_min, min(self.k_max, b_hi) + 1, self.k_step, dtype=np.int64)
        if self.b_candidates is not None:
            bs = np.array(self.b_candidates, dtype=np.int64)
            workers = np.repeat(ks, len(bs))
            batch = np.tile(bs, len(ks))
            keep = batch % workers == 0
            return workers[keep], batch[keep]
        first = -(-self.b_min // ks) * ks
        counts = np.maximum((self.b_max - first) // ks + 1, 0)
        workers = np.repeat(ks, counts)
        step = np.arange(len(workers), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        return workers, np.repeat(first, counts) + step * workers

    def valid_configs(self) -> list[JobConfig]:
        """Grid pairs that satisfy the JobConfig invariants, in grid order."""
        workers, batch = self.columns()
        return [JobConfig(k, b) for k, b in zip(workers.tolist(), batch.tolist())]
