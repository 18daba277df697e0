"""Byte-level golden outputs of the CLI on small fixed inputs.

Every case runs one command in-process, from inside a workspace built from
fixed inputs, and compares its exit code and the SHA-256 of its stdout, its
stderr and the files it writes against digests recorded before the grid,
fit and search code paths were merged.  A refactor that changes any output
byte, message or exit code fails here.  ``created_at`` in written model
documents is the only masked value.

Print the digests of the code under test with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from scalefit.cli import main as cli_main
from scalefit.config import JobConfig
from scalefit.perfmodel import ParallelFit, PerfModel, StatFit
from scalefit.simulator import SimEnvironment, preset_cluster, preset_workload
from scalefit.store import ModelStore, write_model_file
from scalefit.traces import write_anchors, write_trace

CREATED_AT = "2026-01-01T00:00:00+00:00"
GRID_FLAGS = [
    "--k-min", "2", "--k-max", "16", "--k-step", "2",
    "--b-min", "64", "--b-max", "2048",
    "--b-candidates", "128,256,384,512,768,960,1024,1536,2048",
]
RESNET_GRID_FLAGS = [
    "--k-min", "8", "--k-max", "20", "--k-step", "4",
    "--b-min", "1", "--b-max", "2048", "--b-candidates", "384,512,768,1024",
]
# A dense batch range with b_min not a multiple of most worker counts, so the
# range enumeration (not --b-candidates) produces the grid.
DENSE_GRID_FLAGS = ["--k-min", "1", "--k-max", "6", "--b-min", "3", "--b-max", "96"]
TRACE_CONFIGS = [(8, 384), (8, 1024), (16, 384), (16, 1024), (12, 768)]
TRACES = [f"traces/trace_K{k}_B{b}.jsonl" for k, b in TRACE_CONFIGS]
# Copies of TRACES[0] and TRACES[3] with zero-aggregate rows and blank lines.
MIXED = ["traces/mixed_K8_B384.jsonl", "traces/mixed_K16_B1024.jsonl"]


def _model(stat: tuple, parallel: tuple, fingerprint: str) -> PerfModel:
    return PerfModel(
        stat=StatFit(*stat),
        parallel=ParallelFit(*parallel),
        dataset_size=1_000_000,
        fingerprint=fingerprint,
        provenance="full_search",
    )


# In domain on every grid point: the resnet18-like preset's true coefficients.
RESNET = _model((48.0, 0.1, 6.0, 16.0), (0.25, 0.012, 0.008), "resnet18-like")
# Out of domain on part of the grid, with all three reasons: noise <= 0 at
# B >= 1024, epochs <= 0 at B = 960, and iteration time <= 0 at large K.
PARTIAL = _model((48.0, -1.5, -1.0, 16.0), (0.25, 0.012, -0.05), "partly")
SMALL_BOUNDS = {"k_min": 2, "k_max": 8, "k_step": 2, "b_min": 1, "b_max": 512,
                "b_candidates": [64, 128, 256, 512]}
# True epochs stay positive on SMALL_BOUNDS, but barely at B = 512: jittered
# measured noise there falls below the fitted epoch line's zero, so full
# search drops those measured points.
THIN_EPOCHS = {"name": "thin-epochs", "dataset_size": 200_000, "noise_slope": 3.0,
               "noise_intercept": 0.3, "epochs_base": -5.0, "epochs_slope": 12.0,
               "time_base_s": 0.3, "time_per_sample_s": 0.01, "time_per_worker_s": 0.01,
               "jitter": 0.2}
# The sync half of the iteration time is negative at K >= 6; with heavy
# jitter a one-iteration profile can clip both halves to 0, so scaling search
# drops points whose measured iteration time is not positive.
CLIPPED_SYNC = {"name": "clipped-sync", "dataset_size": 200_000, "noise_slope": 30.0,
                "noise_intercept": 0.2, "epochs_base": 5.0, "epochs_slope": 12.0,
                "time_base_s": 2.0, "time_per_sample_s": 0.0, "time_per_worker_s": -0.2,
                "jitter": 1.5}


def _scenario(mode: str, **extra) -> dict:
    return {
        "seed": 3,
        "workload": {"preset": "resnet18-like", "jitter": 0.02},
        "cluster": {
            "shape": {"vcpus": 4, "memory_gb": 16},
            "pricing": {"mode": "flat_per_vm", "flat_hourly_usd": 0.13402},
            "restore_overhead_s": 37.0,
        },
        "bounds": {
            "k_min": 8, "k_max": 20, "k_step": 4, "b_min": 1, "b_max": 2048,
            "b_candidates": [384, 512, 768, 1024],
        },
        "search": {"mode": mode, "profile_iters": 20},
        "objective": {"kind": "min_cost_time"},
        **extra,
    }


def _build_workspace(root: Path) -> None:
    env = SimEnvironment(preset_workload("resnet18-like"), preset_cluster("resnet18-like"))
    (root / "traces").mkdir()
    for i, (k, b) in enumerate(TRACE_CONFIGS):
        write_trace(root / TRACES[i], JobConfig(k, b), env.profile(k, b, 15, 12_500 + 15 * i))
    for source, mixed in zip((TRACES[0], TRACES[3]), MIXED):
        lines = []
        for i, line in enumerate((root / source).read_text().splitlines()):
            if i % 4 == 1:
                line = line.replace('"agg_sqnorm": 1.0', '"agg_sqnorm": 0.0')
            lines += [line, "  "] if i % 5 == 2 else [line]
        (root / mixed).write_text("\n".join(lines) + "\n\n")
    write_model_file(root / "resnet.json", RESNET, created_at=CREATED_AT)
    write_model_file(root / "partly.json", PARTIAL, created_at=CREATED_AT)
    write_anchors(
        root / "anchors.json",
        [(JobConfig(8, 384), 46.79183673469388), (JobConfig(8, 1024), 31.6)],
    )
    (root / "workload.json").write_text(json.dumps(
        {"name": "custom-wl", "dataset_size": 200_000, "noise_slope": 30.0,
         "noise_intercept": 0.2, "epochs_base": 5.0, "epochs_slope": 12.0,
         "time_base_s": 0.3, "time_per_sample_s": 0.01, "time_per_worker_s": 0.01,
         "jitter": 0.5}
    ))
    store = ModelStore(root / "store")
    store.save(RESNET, created_at=CREATED_AT)
    store.save(_model((60.0, 0.2, 8.0, 20.0), (0.4, 0.03, 0.012), "resnet50-like"),
               created_at=CREATED_AT)
    (root / "empty_store").mkdir()
    out_of_domain = ModelStore(root / "ood_store")
    out_of_domain.save(
        _model((48.0, -5.0, 6.0, 16.0), (0.25, 0.012, 0.008), "resnet18-like"),
        created_at=CREATED_AT,
    )
    scenarios = {
        "full": _scenario("full"),
        "partial": _scenario("partial"),
        "partial_capped": _scenario("partial", constraints={"deadline_s": 1000.0}),
        "scaling": _scenario("scaling"),
        "scaling_random": _scenario(
            "scaling",
            search={"mode": "scaling", "profile_iters": 10,
                    "sampling": {"kind": "random", "seed": 7, "bspace": 3, "kspace": 2}},
        ),
        "none_hit": _scenario("none", store_dir="store",
                              objective={"kind": "deadline", "deadline_s": 60000.0}),
        "none_universal": _scenario(
            "none", store_dir="store", workload={"preset": "transformer-like"},
            objective={"kind": "knee_point"},
        ),
        "none_no_universal": _scenario(
            "none", store_dir="store", workload={"preset": "transformer-like"},
            allow_universal=False,
        ),
        "none_empty": _scenario("none", store_dir="empty_store"),
        "none_out_of_domain": _scenario("none", store_dir="ood_store"),
        "full_drops": _scenario("full", seed=5, workload=THIN_EPOCHS, bounds=SMALL_BOUNDS,
                                search={"mode": "full", "profile_iters": 10}),
        "scaling_drops": _scenario(
            "scaling", seed=4, workload=CLIPPED_SYNC, bounds=SMALL_BOUNDS,
            search={"mode": "scaling", "profile_iters": 1,
                    "ewma": {"warmup_iters": 10, "stability_window": 20,
                             "stability_rel_tol": 0.5}},
        ),
    }
    for name, doc in scenarios.items():
        (root / f"scenario_{name}.json").write_text(json.dumps(doc))


def _trace_args(out: str) -> list[str]:
    args = ["simulate", "--workload", "resnet18-like", "--iters", "15",
            "--start-iteration", "12500", "--out", out]
    for k, b in TRACE_CONFIGS[:4]:
        args += ["--config", f"{k}x{b}"]
    return args


# Each command runs in a fresh workspace built by ``_build_workspace``.
CASES: list[tuple[str, list[str]]] = [
    ("simulate-preset", _trace_args("sim")),
    ("simulate-preset-jitter", _trace_args("sim_jitter") + ["--jitter", "0.05", "--seed", "4"]),
    ("simulate-json", ["simulate", "--workload", "workload.json", "--config", "4x64",
                       "--config", "2x128", "--iters", "12", "--seed", "2",
                       "--out", "sim_json"]),
    ("simulate-json-jitter", ["simulate", "--workload", "workload.json", "--config", "4x64",
                              "--iters", "12", "--jitter", "0.1", "--out", "sim_json_jitter"]),
    ("fit-anchors", ["fit", "--traces", *TRACES[:4], "--anchors", "anchors.json",
                     "--dataset-size", "1000000", "--fingerprint", "resnet18-like",
                     "--out", "fit_anchors.json"]),
    ("fit-relative", ["fit", "--traces", *TRACES[:4], "--dataset-size", "1000000",
                      "--out", "fit_relative.json"]),
    # No worker count sees two batch sizes, so the noise curve is fitted pooled.
    ("fit-pooled", ["fit", "--traces", TRACES[0], TRACES[3], TRACES[4],
                    "--dataset-size", "1000000", "--out", "fit_pooled.json"]),
    # Skipped zero-aggregate rows and blank lines in two of the four traces.
    ("fit-mixed", ["fit", "--traces", MIXED[0], TRACES[1], TRACES[2], MIXED[1],
                   "--anchors", "anchors.json", "--dataset-size", "1000000",
                   "--out", "fit_mixed.json"]),
    ("fit-single-batch", ["fit", "--traces", TRACES[0], TRACES[2],
                          "--dataset-size", "1000000", "--out", "fit_single.json"]),
    ("predict-json", ["predict", "--model", "resnet.json", "8x512", "16x1024", "3x512"]),
    ("predict-csv", ["predict", "--model", "partly.json", "--format", "csv",
                     "2x128", "4x1024", "16x256"]),
    ("curves-json", ["curves", "--model", "resnet.json", *GRID_FLAGS]),
    ("curves-csv", ["curves", "--model", "resnet.json", *GRID_FLAGS, "--format", "csv"]),
    ("curves-partial-json", ["curves", "--model", "partly.json", *GRID_FLAGS]),
    ("curves-partial-csv", ["curves", "--model", "partly.json", *GRID_FLAGS,
                            "--format", "csv", "--price-vcpu", "0.03", "--price-gb", "0.004"]),
    ("curves-empty", ["curves", "--model", "partly.json", "--k-min", "16", "--k-max", "16",
                      "--b-min", "1024", "--b-max", "2048"]),
    ("recommend-deadline", ["recommend", "--model", "resnet.json", *RESNET_GRID_FLAGS,
                            "--objective", "deadline", "--deadline", "60000"]),
    ("recommend-budget", ["recommend", "--model", "resnet.json", *RESNET_GRID_FLAGS,
                          "--objective", "budget", "--budget", "25", "--deadline", "100000"]),
    ("recommend-knee", ["recommend", "--model", "resnet.json", *GRID_FLAGS,
                        "--objective", "knee"]),
    ("recommend-min-cost-time", ["recommend", "--model", "resnet.json", *GRID_FLAGS,
                                 "--objective", "min-cost-time", "--budget", "30"]),
    ("recommend-implied-deadline", ["recommend", "--model", "resnet.json",
                                    *RESNET_GRID_FLAGS, "--deadline", "40000"]),
    ("recommend-nearest-miss", ["recommend", "--model", "resnet.json", *RESNET_GRID_FLAGS,
                                "--objective", "deadline", "--deadline", "100"]),
    ("recommend-partial", ["recommend", "--model", "partly.json", *GRID_FLAGS,
                           "--objective", "knee"]),
    ("curves-dense-csv", ["curves", "--model", "resnet.json", *DENSE_GRID_FLAGS,
                          "--format", "csv"]),
    ("curves-dense-json", ["curves", "--model", "resnet.json", *DENSE_GRID_FLAGS]),
    # All three skip reasons: iteration time at K=6, epochs at B 944-1023,
    # noise from B=1024 on.
    ("curves-dense-partial", ["curves", "--model", "partly.json", *DENSE_GRID_FLAGS[:-1],
                              "1100", "--format", "csv"]),
    ("recommend-dense-knee", ["recommend", "--model", "resnet.json", *DENSE_GRID_FLAGS,
                              "--objective", "knee"]),
    ("recommend-dense-min-cost-time", ["recommend", "--model", "resnet.json",
                                       *DENSE_GRID_FLAGS, "--objective", "min-cost-time",
                                       "--price-vcpu", "0.03", "--price-gb", "0.004"]),
    ("recommend-dense-nearest-miss", ["recommend", "--model", "resnet.json",
                                      *DENSE_GRID_FLAGS, "--budget", "1", "--deadline",
                                      "50000", "--objective", "budget"]),
    ("search-full", ["search", "--scenario", "scenario_full.json"]),
    ("search-partial", ["search", "--scenario", "scenario_partial.json"]),
    ("search-partial-csv", ["search", "--scenario", "scenario_partial.json",
                            "--format", "csv"]),
    ("search-partial-capped", ["search", "--scenario", "scenario_partial_capped.json"]),
    ("search-scaling", ["search", "--scenario", "scenario_scaling.json"]),
    ("search-scaling-random", ["search", "--scenario", "scenario_scaling_random.json"]),
    ("search-none-hit", ["search", "--scenario", "scenario_none_hit.json"]),
    ("search-none-universal", ["search", "--scenario", "scenario_none_universal.json"]),
    ("search-none-no-universal", ["search", "--scenario",
                                  "scenario_none_no_universal.json"]),
    ("search-none-empty", ["search", "--scenario", "scenario_none_empty.json"]),
    ("search-none-out-of-domain", ["search", "--scenario",
                                   "scenario_none_out_of_domain.json"]),
    # Measured points outside the model's domain are dropped, not selected.
    ("search-full-drops", ["search", "--scenario", "scenario_full_drops.json"]),
    ("search-scaling-drops", ["search", "--scenario", "scenario_scaling_drops.json"]),
]

GOLDEN: dict[str, tuple[int, str, str, str]] = {
    "simulate-preset": (
        0,
        "ae8f5fd41c2e56c9db51f0354f3b77e095b7a9f8b061492c51849d4e479855d4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "12ecf05846591b735411b739893fe0c5b881d24ee5bb9ce4301de358c42a12ff",
    ),
    "simulate-preset-jitter": (
        0,
        "ce5fac9c77f91d56d8654733a0d25c404486938fed41eba81871539fad903b32",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f566f088182c00eb5f43b93f8245da1c2c7c42c8de4618f9d2f6d65bbf121023",
    ),
    "simulate-json": (
        0,
        "c0e150203d609b4147e1ebee4a62ea8d50dbe8eff865cb12234b07c5353604c1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8983c4d9cf42718f5ec5a75fbf1e2aef68af729a0a3a8e93a442cbbe37b36f47",
    ),
    "simulate-json-jitter": (
        0,
        "1035fb99f06985b1b6122a4196ff724ffdcd0c90d948e9015fcdae14c4b0a98e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f004b74c60ec5353bf1bf63d0742de3f782e3c70f70a21c0574206f0e99b6a48",
    ),
    "fit-anchors": (
        0,
        "82fc0d640ac55abae3cc674f29807ccb6862c0e5f1d6db3d8f603b58a7a96991",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "65481b5a125dc1a5dad1211b3f265566fd8b4ff5657ba5a01237c0787eb98d23",
    ),
    "fit-relative": (
        0,
        "489b407bfe53c8730cbbbb45b4037d49bf9891d2fb26a979982f5e0a4667aa2a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e1cb311f4a8afe9cd03b9ed3150b68f94988badb6768dbd03559b9e52d4ee2a1",
    ),
    "fit-pooled": (
        0,
        "d9db948098506c68e11514981390d94adc43438d5abae7c047f28a1aadcb53df",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5a190bb008e1d9e7922e1aa1b232a1c54cba4cf5d90cfe739c7ca98e4f6afc7a",
    ),
    "fit-mixed": (
        0,
        "f578182d276a269867c17330bf4a32dfe855e4ed127cc2a3c5ff8336950698be",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4a60f60a623f454e677ea59ead7fa2dfb6d94117ab94d32cea9b4026a5d107d3",
    ),
    "fit-single-batch": (
        6,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1840957f248bb243bb26712711640f92deb9a8a1ac6a2e3afd4b3fc646a23d72",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "predict-json": (
        5,
        "b2968e6121df2ca59b4928480d1b2039462aba014b9698438f73bc89ca24a61a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "predict-csv": (
        5,
        "bd46934d85cfa0df3ee383ca7408aa9bd033676b485823bdd97355e6a277735b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "curves-json": (
        0,
        "9a5dafe259afd57129a091fc5bca58f73bfd3f5ebe8783bd5c934b0f4089ed7a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "curves-csv": (
        0,
        "e357b6982134194eaee521f51d41dab8c78b4a1f473bcf62f52f9a71446b9df2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "curves-partial-json": (
        0,
        "2ccdc623c7f4aad7998e99dff85284ce54dd4f2564feb4a0f18c5da27eb39aa2",
        "9653b82bf057ca59fca71cd22010501d68f857a45a74c08c83749d31b356f758",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "curves-partial-csv": (
        0,
        "c5f864504d68302db73477b2aaabee34fb5945558b040e01ee4cc9fc6031bf1f",
        "9653b82bf057ca59fca71cd22010501d68f857a45a74c08c83749d31b356f758",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "curves-empty": (
        5,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1a6c68e5f893e65b95ad64eb19c02840d74c6bb282f7321e6b94cb057f5804fc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-deadline": (
        0,
        "bd7e6c50d3d6cf8b58872a3f996112336090f11dc0e1e4d184eebd34e6a9a2ce",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-budget": (
        0,
        "10711222e4ed048f0d79add05b7d15fc537e3ab2e6a5f9802dd1db2c2ff8ea88",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-knee": (
        0,
        "08a9ceaf040ff58888a733bea449f8fa0f0ff53f0a56fa1ea8dda5bec7439322",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-min-cost-time": (
        0,
        "a51a711c725f2069c4ebce0ad97253f60f2da92e93b9a5b7a6f6ad65656b3f15",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-implied-deadline": (
        0,
        "c88e8bf94e29c697fd0175abe2ab0bb0e54aa2e19471c6453c0473297d14b3b6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-nearest-miss": (
        3,
        "4061217eda2e10e1cfb11ca9a013c3780026d6955ce2242b6693e7acaa3e2574",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-partial": (
        0,
        "70e6cc0c0c8afb3a82641aeec0cbffe78584a3b46f64afb3ba4da54d0ff27b9a",
        "c9e98ee79af083b900adcb989c22e69407222fdb84c7d7ea625cd4b0a8cf0942",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "curves-dense-csv": (
        0,
        "15980a227c948f690497b85e95dd2c9e0c915a9e9ed34d152423a558c59eec48",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "curves-dense-json": (
        0,
        "c5ce67ac5401146de0b5c28dba2c9e2af3c5c19954eb2cd80d18e32b9552db27",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "curves-dense-partial": (
        0,
        "c8a4bb02e1807b47c8787db18232bfc5555987d76921b9712b6d93eb42805f25",
        "56d3efb4b743cc33c04efe315a535b1470f0f5afad8344e381cb36a78ec66e01",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-dense-knee": (
        0,
        "53ed102df7ddd49dd4441a909648581332ee25bff83eed0f8f5d4243423474a0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-dense-min-cost-time": (
        0,
        "950bb30e6167776ebf2528cc61ed07d3d0e04ecd1674f674d0c3c69fd932120a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "recommend-dense-nearest-miss": (
        3,
        "60121a0960e7aaa502f24467ad879eaf041fe9f518661782dbb4988415fada82",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-full": (
        0,
        "6cf3a5b615a8f1b3f82c8f5b2619619aad01863b4abef12df4e6f9d97846a7c3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-partial": (
        0,
        "159326d2074774207e425f08bd1233d3fd7bd84a8061c4fff469d31873c7b4ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-partial-csv": (
        0,
        "b10872170b22195a11256216713b63b56c3e0b82da21147ad2ce1573c3a263a0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-partial-capped": (
        3,
        "b5f78e535c98b56146bd6737b43259a96feb1f58af2abcd39b4a63cab54262bb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-scaling": (
        0,
        "bd4b622683ae1488c05171821ef419e6e873e6a4df7dde462319b132e9ed4cb0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-scaling-random": (
        0,
        "34363613ce7ee6a9c7791723041373e341dde37882edd2de77eb4b8d2cf79e2f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-none-hit": (
        0,
        "bbc552d9dbe710234371924ef53025fca01b4dc11fb72c1484431b6e333ea899",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-none-universal": (
        0,
        "11e29b444df2e1be6375abe939f95200cbdeacfbee457dec1575966f7da7a9af",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-none-no-universal": (
        4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dd940bd6d98bac6033bc7c056b9c4787488018d1ef0b1d90e0e20a9b72517edb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-none-empty": (
        4,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "23931b2accaa344e5c13fbdfd1088a16f8f271d67b46def9e49369745cb6684e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-none-out-of-domain": (
        5,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b1b049bcc268725ea7a0be5c11c7fceeae34efdc6303c1ed8662ac37429a52de",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-full-drops": (
        0,
        "68bca055178b28744c249b081cd155d6cdebd075fb40db457378c94b4a961879",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "search-scaling-drops": (
        0,
        "61711b4b85c3f349d7a7dea0eef38e091dd697203abac68deebf8377b7ccdc75",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _files_digest(root: Path, before: set[Path]) -> str:
    """Digest of every file the command created, ``created_at`` masked."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p not in before):
        text = re.sub(r'"created_at": "[^"]*"', '"created_at": ""', path.read_text())
        h.update(f"{path.relative_to(root).as_posix()}\0{text}\0".encode())
    return h.hexdigest()


def run_case(root: Path, argv: list[str]) -> tuple[int, str, str, str]:
    """(exit code, stdout, stderr, created-files) digests of one command run in ``root``."""
    before = {p for p in root.rglob("*") if p.is_file()}
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        os.chdir(cwd)
    return code, _sha(out.getvalue()), _sha(err.getvalue()), _files_digest(root, before)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_bytes_match_golden(tmp_path, name, argv):
    _build_workspace(tmp_path)
    assert run_case(tmp_path, argv) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    print("GOLDEN: dict[str, tuple[int, str, str, str]] = {")
    for case_name, case_argv in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            _build_workspace(Path(tmp))
            code, out_d, err_d, files_d = run_case(Path(tmp), case_argv)
            print(f'    "{case_name}": (\n        {code},\n        "{out_d}",\n'
                  f'        "{err_d}",\n        "{files_d}",\n    ),')
    print("}")
