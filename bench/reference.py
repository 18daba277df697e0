"""Reference computations the benchmark checks scalefit's outputs against.

Everything here is computed independently of the package under test, with
NumPy, in the same floating-point operation order as scalefit's scalar
prediction chain, so predicted times and costs compare bit for bit.
"""

from __future__ import annotations

import numpy as np

COEFFICIENTS = (
    "noise_slope",
    "noise_intercept",
    "epochs_base",
    "epochs_slope",
    "base_s",
    "per_sample_s",
    "per_worker_s",
)


def grid(k_values, b_values) -> tuple[np.ndarray, np.ndarray]:
    """Valid (K, B) pairs of a grid in scalefit's grid order (K outer, B inner)."""
    pairs = [(k, b) for k in k_values for b in b_values if b % k == 0]
    return (
        np.array([k for k, _ in pairs], dtype=np.int64),
        np.array([b for _, b in pairs], dtype=np.int64),
    )


def predict(coef: dict, dataset_size: int, K: np.ndarray, B: np.ndarray,
            hourly_per_vm: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(time_s, cost_usd, in_domain) for each configuration.

    Mirrors noise -> epochs -> iterations -> iteration time -> cost; the
    inverse square root is taken with Python's float power, as the scalar
    chain does, and every later step is an elementwise IEEE operation.
    """
    inv_sqrt = np.array([b ** -0.5 for b in B.tolist()])
    noise = coef["noise_slope"] * inv_sqrt + coef["noise_intercept"]
    epochs = coef["epochs_base"] + coef["epochs_slope"] * noise
    iterations = epochs * dataset_size / B
    tau = coef["base_s"] + coef["per_sample_s"] * (B // K) + coef["per_worker_s"] * K
    time_s = iterations * tau
    cost = time_s / 3600.0 * (K * hourly_per_vm)
    return time_s, cost, (noise > 0) & (epochs > 0) & (tau > 0)


def frontier_mask(t: np.ndarray, c: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Brute-force Pareto set: points no other point strictly dominates."""
    dominated = np.zeros(len(t), dtype=bool)
    for lo in range(0, len(t), chunk):
        tp = t[lo:lo + chunk, None]
        cp = c[lo:lo + chunk, None]
        dom = (t <= tp) & (c <= cp) & ((t < tp) | (c < cp))
        dominated[lo:lo + chunk] = dom.any(axis=1)
    return ~dominated


def argmin_lex(mask: np.ndarray, *keys: np.ndarray) -> int | None:
    """Index of the smallest point under ``mask``, ordered by ``keys`` in turn."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    order = np.lexsort(tuple(k[idx] for k in reversed(keys)))
    return int(idx[order[0]])


def pick(kind: str, t, c, K, B, deadline=None, budget=None) -> tuple[int, bool]:
    """(index, feasible) of scalefit's documented choice for one objective.

    Ties break toward smaller cost, time, workers, then batch; with no
    feasible point the pick is the nearest miss by total cap violation.
    """
    feasible = np.ones(len(t), dtype=bool)
    if deadline is not None:
        feasible &= t <= deadline
    if budget is not None:
        feasible &= c <= budget
    if not feasible.any():
        violation = np.zeros(len(t))
        if deadline is not None:
            violation += np.where(t > deadline, t - deadline, 0.0)
        if budget is not None:
            violation += np.where(c > budget, c - budget, 0.0)
        return argmin_lex(np.ones(len(t), dtype=bool), violation, c, t, K, B), False
    if kind == "deadline":
        keys = (c, t, K, B)
    elif kind == "budget":
        keys = (t, c, K, B)
    elif kind == "min_cost_time":
        keys = (t * c, c, t, K, B)
    else:
        raise ValueError(f"no reference pick for objective {kind!r}")
    return argmin_lex(feasible, *keys), True


def check_frontier(got: set, want: set) -> str | None:
    """Compare a reported Pareto set of (K, B) keys with the reference one."""
    if got == want:
        return None
    extra = sorted(got - want)[:3]
    missing = sorted(want - got)[:3]
    return f"pareto set differs: extra {extra}, missing {missing}"


def check_point(label: str, got: dict | None, want: tuple | None) -> str | None:
    """Compare a reported point with a reference (K, B, time_s, cost_usd) tuple."""
    if want is None:
        return None if got is None else f"{label}: expected none, got {got}"
    if got is None:
        return f"{label}: expected {want}, got none"
    seen = (got["workers"], got["global_batch"], got["time_s"], got["cost_usd"])
    if seen != want:
        return f"{label}: expected {want}, got {seen}"
    return None


def self_test() -> list[str]:
    """Feed a wrong frontier and a wrong pick to the checkers; both must be flagged."""
    rng = np.random.default_rng(0)
    t = rng.uniform(1.0, 2.0, 200)
    c = 3.0 - t + rng.uniform(0.0, 0.5, 200)
    K = np.arange(1, 201)
    B = np.full(200, 64)
    mask = frontier_mask(t, c)
    want = {(int(k), int(b)) for k, b in zip(K[mask], B[mask])}
    inside = int(np.flatnonzero(~mask)[0])
    wrong_frontier = set(want)
    wrong_frontier.discard(next(iter(sorted(want))))
    wrong_frontier.add((int(K[inside]), int(B[inside])))
    problems = []
    if check_frontier(wrong_frontier, want) is None:
        problems.append("self-test: a wrong pareto set was not flagged")
    if check_frontier(want, want) is not None:
        problems.append("self-test: the right pareto set was flagged")
    best, _ = pick("min_cost_time", t, c, K, B)
    second = argmin_lex(np.arange(200) != best, t * c, c, t, K, B)

    def point(i):
        return {"workers": int(K[i]), "global_batch": int(B[i]),
                "time_s": float(t[i]), "cost_usd": float(c[i])}

    want_pick = tuple(point(best).values())
    if check_point("self-test", point(second), want_pick) is None:
        problems.append("self-test: a wrong pick was not flagged")
    if check_point("self-test", point(best), want_pick) is not None:
        problems.append("self-test: the right pick was flagged")
    return problems
