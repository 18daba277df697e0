"""End-to-end command-line behavior for all six subcommands."""

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NESTED_JSON, build_model
import scalefit
from scalefit.cli import main as cli_main
from scalefit.config import JobConfig, PricingModel, SearchBounds, VMShape
from scalefit.perfmodel import predict
from scalefit.policy import Objective
from scalefit.simulator import (
    SimEnvironment,
    ground_truth,
    oracle_best,
    preset_cluster,
    preset_workload,
)
from scalefit.store import ModelStore, model_from_document, read_model_file, write_model_file
from scalefit.tradeoff import TradeoffCurve, TradeoffPoint, kneedle_knee, pareto_frontier
from scalefit.traces import read_anchors, read_trace, write_anchors, write_trace

GRID_FLAGS = [
    "--k-min", "8", "--k-max", "20", "--k-step", "4",
    "--b-min", "1", "--b-max", "2048", "--b-candidates", "384,512,768,1024",
]
GRID = SearchBounds(
    k_min=8, k_max=20, b_min=1, b_max=2048, k_step=4,
    b_candidates=(384, 512, 768, 1024),
)


@pytest.fixture
def model_file(tmp_path, make_model):
    path = tmp_path / "model.json"
    write_model_file(path, make_model(), created_at="2026-01-01T00:00:00+00:00")
    return path


RESNET_COEFFS = dict(
    noise_slope=48.0, noise_intercept=0.1, epochs_base=6.0, epochs_slope=16.0,
    base_s=0.25, per_sample_s=0.012, per_worker_s=0.008,
    dataset_size=1_000_000, fingerprint="resnet18-like",
)


@pytest.fixture
def resnet_model_file(tmp_path, make_model):
    """Model with a genuine time/cost tradeoff across the standard grid."""
    path = tmp_path / "resnet_model.json"
    write_model_file(
        path, make_model(**RESNET_COEFFS), created_at="2026-01-01T00:00:00+00:00"
    )
    return path


class TestPredict:
    def test_json_has_exact_floats(self, run_cli, model_file):
        code, out, err = run_cli("predict", "--model", str(model_file), "8x512")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["workers"] == 8
        assert row["global_batch"] == 512
        assert row["mini_batch"] == 64
        assert row["normalized_noise"] == 2.121320343559643
        assert row["epochs"] == 116.06601717798215
        assert row["iterations"] == 11334.571990037319
        assert row["iteration_time_s"] == 0.664
        assert row["time_s"] == 7526.15580138478
        assert row["cost_usd"] == 2.241456445559085

    def test_csv_row_and_header(self, run_cli, model_file):
        code, out, err = run_cli(
            "predict", "--model", str(model_file), "8x512", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "workers,global_batch,mini_batch,normalized_noise,epochs,"
            "iterations,iteration_time_s,time_s,cost_usd,error"
        )
        assert lines[1] == "8,512,64,2.12132,116.066,11334.6,0.664,7526.16,2.24146,"

    def test_rows_sorted_by_workers_then_batch(self, run_cli, model_file):
        code, out, _ = run_cli(
            "predict", "--model", str(model_file), "16x1024", "8x512", "8x384"
        )
        assert code == 0
        rows = json.loads(out)
        assert [(r["workers"], r["global_batch"]) for r in rows] == [
            (8, 384), (8, 512), (16, 1024),
        ]

    def test_invalid_config_row_exits_5(self, run_cli, model_file):
        code, out, _ = run_cli("predict", "--model", str(model_file), "8x512", "7x512")
        assert code == 5
        rows = json.loads(out)
        assert "not divisible" in rows[0]["error"]
        assert rows[0]["workers"] == 7
        assert "error" not in rows[1]

    def test_configuration_past_the_grid_cap_is_an_error_row(self, run_cli, model_file):
        code, out, err = run_cli("predict", "--model", str(model_file), "8x512",
                                 f"1x{10**400}")
        assert (code, err) == (5, "")
        rows = json.loads(out)
        assert rows[0] == {"workers": 1, "global_batch": 10**400,
                           "error": f"global_batch must be <= 2**62, got {10**400}"}
        assert "error" not in rows[1]

    def test_zero_price(self, run_cli, model_file):
        code, out, _ = run_cli(
            "predict", "--model", str(model_file), "8x512", "--price-flat", "0"
        )
        assert code == 0
        assert json.loads(out)[0]["cost_usd"] == 0.0

    def test_per_resource_pricing(self, run_cli, model_file):
        code, out, _ = run_cli(
            "predict", "--model", str(model_file), "8x512",
            "--price-vcpu", "0.02", "--price-gb", "0.003",
        )
        assert code == 0
        row = json.loads(out)[0]
        # 8 workers * (4 * 0.02 + 16 * 0.003) = 1.024 $/h over 7526.16 s
        assert row["cost_usd"] == pytest.approx(7526.15580138478 / 3600 * 1.024)

    def test_pricing_flag_conflicts(self, run_cli, model_file):
        code, _, err = run_cli(
            "predict", "--model", str(model_file), "8x512",
            "--price-flat", "0.1", "--price-vcpu", "0.02",
        )
        assert code == 2
        code, _, _ = run_cli(
            "predict", "--model", str(model_file), "8x512", "--price-vcpu", "0.02"
        )
        assert code == 2

    def test_missing_model_exits_4(self, run_cli, tmp_path):
        code, _, err = run_cli(
            "predict", "--model", str(tmp_path / "absent.json"), "8x512"
        )
        assert code == 4
        assert err.startswith("error:")

    def test_corrupt_model_exits_5(self, run_cli, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{]")
        code, _, err = run_cli("predict", "--model", str(path), "8x512")
        assert code == 5

    @pytest.mark.parametrize("field,value", [("noise_slope", "nan"), ("base_s", "-inf")])
    def test_non_finite_coefficient_exits_5_naming_the_field(
        self, run_cli, model_file, field, value
    ):
        doc = json.loads(model_file.read_text())
        section = "stat" if field in doc["stat"] else "parallel"
        doc[section][field] = value
        model_file.write_text(json.dumps(doc))
        code, out, err = run_cli("recommend", "--model", str(model_file), *GRID_FLAGS,
                                 "--objective", "knee")
        assert (code, out) == (5, "")
        assert err == f"error: {model_file}: field {field!r} must be finite, got {value!r}\n"

    def test_integer_past_the_digit_limit_exits_5(self, run_cli, model_file):
        text = model_file.read_text().replace('"dataset_size": 50000',
                                              '"dataset_size": ' + "9" * 5000)
        model_file.write_text(text)
        code, out, err = run_cli("recommend", "--model", str(model_file), *GRID_FLAGS,
                                 "--objective", "knee")
        assert (code, out) == (5, "")
        assert f"{model_file}: invalid JSON" in err and "Exceeds the limit" in err

    def test_dataset_size_past_the_float_range_exits_5(self, run_cli, model_file):
        text = model_file.read_text().replace('"dataset_size": 50000',
                                              '"dataset_size": ' + "9" * 400)
        model_file.write_text(text)
        code, out, err = run_cli("recommend", "--model", str(model_file), *GRID_FLAGS,
                                 "--objective", "knee")
        assert (code, out) == (5, "")
        assert err == f"error: {model_file}: dataset_size is too large to be a float\n"

    def test_out_file(self, run_cli, model_file, tmp_path):
        dest = tmp_path / "rows.json"
        code, out, _ = run_cli(
            "predict", "--model", str(model_file), "8x512", "--out", str(dest)
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())[0]["workers"] == 8


class TestSimulate:
    def test_writes_named_traces_with_shared_cursor(self, run_cli, tmp_path):
        out_dir = tmp_path / "traces"
        code, out, _ = run_cli(
            "simulate", "--workload", "resnet18-like",
            "--config", "8x384", "--config", "8x1024",
            "--iters", "5", "--out", str(out_dir),
        )
        assert code == 0
        paths = out.splitlines()
        assert paths == [
            str(out_dir / "trace_K8_B384.jsonl"),
            str(out_dir / "trace_K8_B1024.jsonl"),
        ]
        cfg1, s1 = read_trace(paths[0])
        cfg2, s2 = read_trace(paths[1])
        assert cfg1 == JobConfig(8, 384)
        assert cfg2 == JobConfig(8, 1024)
        assert [s.iteration for s in s1] == [0, 1, 2, 3, 4]
        assert [s.iteration for s in s2] == [5, 6, 7, 8, 9]

    def test_start_iteration_flag(self, run_cli, tmp_path):
        out_dir = tmp_path / "traces"
        code, out, _ = run_cli(
            "simulate", "--workload", "resnet18-like", "--config", "8x512",
            "--iters", "3", "--start-iteration", "100", "--out", str(out_dir),
        )
        assert code == 0
        _, samples = read_trace(out.splitlines()[0])
        assert [s.iteration for s in samples] == [100, 101, 102]

    def test_deterministic_bytes(self, run_cli, tmp_path):
        args = [
            "simulate", "--workload", "resnet50-like", "--config", "8x512",
            "--iters", "10", "--jitter", "0.05", "--seed", "3",
        ]
        code1, out1, _ = run_cli(*args, "--out", str(tmp_path / "a"))
        code2, out2, _ = run_cli(*args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        b1 = (tmp_path / "a" / "trace_K8_B512.jsonl").read_bytes()
        b2 = (tmp_path / "b" / "trace_K8_B512.jsonl").read_bytes()
        assert b1 == b2

    def test_jitter_changes_samples(self, run_cli, tmp_path):
        base = [
            "simulate", "--workload", "resnet18-like", "--config", "8x512",
            "--iters", "10",
        ]
        run_cli(*base, "--out", str(tmp_path / "a"))
        run_cli(*base, "--jitter", "0.05", "--out", str(tmp_path / "b"))
        assert (
            (tmp_path / "a" / "trace_K8_B512.jsonl").read_bytes()
            != (tmp_path / "b" / "trace_K8_B512.jsonl").read_bytes()
        )

    def test_workload_json_file(self, run_cli, tmp_path):
        doc = {
            "name": "toy",
            "dataset_size": 50_000,
            "noise_slope": 48,
            "epochs_base": 10,
            "epochs_slope": 50,
            "time_base_s": 0.2,
            "time_per_sample_s": 0.001,
            "time_per_worker_s": 0.05,
        }
        wl = tmp_path / "workload.json"
        wl.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            "simulate", "--workload", str(wl), "--config", "4x64",
            "--iters", "2", "--out", str(tmp_path / "t"),
        )
        assert code == 0
        cfg, samples = read_trace(out.splitlines()[0])
        assert cfg == JobConfig(4, 64)
        # tau = 0.2 + 0.001*16 + 0.05*4 = 0.416 at zero jitter
        assert samples[0].iteration_time_s == pytest.approx(0.416, rel=1e-12)

    def test_integer_past_the_digit_limit_exits_5(self, run_cli, tmp_path):
        wl = tmp_path / "workload.json"
        wl.write_text('{"name": "toy", "dataset_size": ' + "9" * 5000 + "}")
        code, out, err = run_cli("simulate", "--workload", str(wl), "--config", "4x64",
                                 "--out", str(tmp_path / "t"))
        assert (code, out) == (5, "")
        assert "<file>: invalid JSON in" in err and "Exceeds the limit" in err

    def test_nested_workload_exits_5_naming_it(self, run_cli, tmp_path):
        wl = tmp_path / "workload.json"
        wl.write_text(NESTED_JSON)
        code, out, err = run_cli("simulate", "--workload", str(wl), "--config", "4x64",
                                 "--out", str(tmp_path / "t"))
        assert (code, out) == (5, "")
        assert err == f"error: <file>: invalid JSON in {wl}: value is nested too deeply\n"

    def test_workload_directory_exits_5_naming_it(self, run_cli, tmp_path):
        wl = tmp_path / "workload.json"
        wl.mkdir()
        code, out, err = run_cli("simulate", "--workload", str(wl), "--config", "4x64",
                                 "--out", str(tmp_path / "t"))
        assert (code, out) == (5, "")
        assert err == f"error: <file>: cannot read {wl}: Is a directory\n"

    @pytest.mark.parametrize("field,value", [("dataset_size", 10**400), ("jitter", math.nan),
                                             ("ramp_iters", math.inf), ("time_base_s", math.inf)],
                             ids=["dataset_size", "jitter", "ramp_iters", "time_base_s"])
    def test_out_of_range_workload_file_exits_5_naming_the_field(self, run_cli, tmp_path,
                                                                 field, value):
        doc = {"dataset_size": 50_000, "noise_slope": 48, "epochs_base": 10,
               "epochs_slope": 50, "time_base_s": 0.2, "time_per_sample_s": 0.001,
               "time_per_worker_s": 0.05, field: value}
        wl = tmp_path / "workload.json"
        wl.write_text(json.dumps(doc))
        code, out, err = run_cli("simulate", "--workload", str(wl), "--config", "4x64",
                                 "--out", str(tmp_path / "t"))
        assert (code, out) == (5, "")
        assert err.startswith(f"error: workload: {field} must be")

    def test_negative_seed_exits_2(self, run_cli, tmp_path):
        code, out, err = run_cli("simulate", "--workload", "resnet18-like", "--config", "8x512",
                                 "--seed", "-1", "--out", str(tmp_path / "t"))
        assert (code, out) == (2, "")
        assert err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "t").exists()

    def test_non_finite_jitter_flag_exits_2(self, run_cli, tmp_path):
        code, out, err = run_cli("simulate", "--workload", "resnet18-like", "--config", "8x512",
                                 "--jitter", "nan", "--out", str(tmp_path / "t"))
        assert (code, out) == (2, "")
        assert "jitter must be finite and >= 0, got nan" in err

    def test_unknown_preset_exits_2(self, run_cli, tmp_path):
        code, _, err = run_cli(
            "simulate", "--workload", "vgg-like", "--config", "8x512",
            "--out", str(tmp_path / "t"),
        )
        assert code == 2
        assert "preset" in err

    def test_bad_config_syntax_exits_2(self, run_cli, tmp_path):
        code, _, err = run_cli(
            "simulate", "--workload", "resnet18-like", "--config", "8y512",
            "--out", str(tmp_path / "t"),
        )
        assert code == 2

    def test_indivisible_config_exits_2(self, run_cli, tmp_path):
        code, _, _ = run_cli(
            "simulate", "--workload", "resnet18-like", "--config", "8x100",
            "--out", str(tmp_path / "t"),
        )
        assert code == 2


    # Each is refused before anything is written: a bad second config, a
    # config given twice, no iterations, and a last start past 2**62.
    @pytest.mark.parametrize("flags, message", [
        (["--config", "8x512", "--config", "3x512"], "not divisible"),
        (["--config", "8x512", "--config", "8x512", "--iters", "3"],
         "--config 8x512 is given twice"),
        (["--config", "8x512", "--iters", "0"], "iters must be >= 1, got 0"),
        (["--config", "8x512", "--config", "8x1024", "--config", "16x512", "--iters", "10",
          "--start-iteration", str(2**62 - 15)],
         f"start_iteration must be <= 2**62, got {2**62 + 5}"),
    ], ids=["bad-second-config", "config-twice", "no-iterations", "last-start-past-cap"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_argument_error_exits_2_and_leaves_out_as_it_was(self, run_cli, tmp_path, flags,
                                                             message, existing):
        out_dir = tmp_path / "traces"
        if existing:
            out_dir.mkdir()
            (out_dir / "trace_K8_B512.jsonl").write_text("kept\n")
        code, out, err = run_cli("simulate", "--workload", "resnet18-like", *flags,
                                 "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert message in err
        if existing:
            assert [p.name for p in out_dir.iterdir()] == ["trace_K8_B512.jsonl"]
            assert (out_dir / "trace_K8_B512.jsonl").read_text() == "kept\n"
        else:
            assert not out_dir.exists()


@pytest.fixture
def corner_traces(run_cli, tmp_path):
    """Saturated noiseless traces at the four grid corners plus true anchors."""
    out_dir = tmp_path / "traces"
    code, out, err = run_cli(
        "simulate", "--workload", "resnet18-like",
        "--config", "8x384", "--config", "8x1024",
        "--config", "16x384", "--config", "16x1024",
        "--iters", "20", "--start-iteration", "12500", "--out", str(out_dir),
    )
    assert code == 0, err
    paths = out.splitlines()
    w = preset_workload("resnet18-like")
    anchors = tmp_path / "anchors.json"
    write_anchors(
        anchors,
        [
            (JobConfig(8, 384), w.true_epochs(384)),
            (JobConfig(8, 1024), w.true_epochs(1024)),
        ],
    )
    return paths, anchors


class TestFit:
    def test_recovers_ground_truth(self, run_cli, tmp_path, corner_traces):
        paths, anchors = corner_traces
        out_model = tmp_path / "fitted.json"
        code, out, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--fingerprint", "resnet18-like",
            "--out", str(out_model),
        )
        assert code == 0, err
        assert "configs: 4" in out
        assert "noise fit: slope=" in out
        assert "epochs fit: base=" in out
        assert "timing fit: base=" in out
        assert f"wrote {out_model}" in out

        model = read_model_file(out_model).model
        assert model.provenance == "trace_fit"
        assert model.fingerprint == "resnet18-like"
        assert model.stat.noise_slope == pytest.approx(48.0, rel=1e-6)
        assert model.stat.noise_intercept == pytest.approx(0.1, abs=1e-6)
        assert model.stat.epochs_base == pytest.approx(6.0, rel=1e-6)
        assert model.stat.epochs_slope == pytest.approx(16.0, rel=1e-6)
        assert model.parallel.base_s == pytest.approx(0.25, rel=1e-9)
        assert model.parallel.per_sample_s == pytest.approx(0.012, rel=1e-9)
        assert model.parallel.per_worker_s == pytest.approx(0.008, rel=1e-9)

        w = preset_workload("resnet18-like")
        cluster = preset_cluster("resnet18-like")
        for config in GRID.valid_configs():
            fitted = predict(model, config, cluster.pricing, cluster.shape)
            truth = ground_truth(w, cluster, config)
            assert fitted.total_time_s == pytest.approx(truth.total_time_s, rel=1e-6)
            assert fitted.cost_usd == pytest.approx(truth.cost_usd, rel=1e-6)

    # Either way of leaving out the anchors file is a usage error.
    @pytest.mark.parametrize("tail", [[], ["--anchors"]], ids=["absent", "no-value"])
    def test_missing_anchors_exits_2(self, run_cli, tmp_path, corner_traces, tail):
        paths, _ = corner_traces
        out_model = tmp_path / "fitted.json"
        code, _, err = run_cli(
            "fit", "--traces", *paths, "--dataset-size", "1000000",
            "--out", str(out_model), *tail,
        )
        assert code == 2
        assert "--anchors" in err
        assert not out_model.exists()

    def test_epochs_scale_with_the_anchors_file(self, run_cli, tmp_path, corner_traces):
        # The anchors alone set the epochs scale: tripling every anchor's
        # epochs triples both epochs coefficients and every predicted time,
        # and leaves the noise and timing fits as they were.
        paths, anchors = corner_traces
        tripled = tmp_path / "tripled.json"
        write_anchors(tripled, [(cfg, 3.0 * e) for cfg, e in read_anchors(anchors)])
        models = []
        for name, path in [("base", anchors), ("tripled", tripled)]:
            out_model = tmp_path / f"{name}.json"
            code, _, err = run_cli(
                "fit", "--traces", *paths, "--anchors", str(path),
                "--dataset-size", "1000000", "--out", str(out_model),
            )
            assert code == 0, err
            models.append(read_model_file(out_model).model)
        base, scaled = models
        assert scaled.parallel == base.parallel
        assert (scaled.stat.noise_slope, scaled.stat.noise_intercept) == (
            base.stat.noise_slope, base.stat.noise_intercept)
        assert scaled.stat.epochs_base == pytest.approx(3.0 * base.stat.epochs_base, rel=1e-12)
        assert scaled.stat.epochs_slope == pytest.approx(3.0 * base.stat.epochs_slope, rel=1e-12)
        cluster = preset_cluster("resnet18-like")
        for config in GRID.valid_configs():
            one, three = (predict(m, config, cluster.pricing, cluster.shape) for m in models)
            assert three.total_time_s == pytest.approx(3.0 * one.total_time_s, rel=1e-12)

    def test_single_batch_exits_6(self, run_cli, tmp_path):
        out_dir = tmp_path / "traces"
        _, out, _ = run_cli(
            "simulate", "--workload", "resnet18-like",
            "--config", "8x512", "--config", "16x512",
            "--iters", "20", "--start-iteration", "12500", "--out", str(out_dir),
        )
        w = preset_workload("resnet18-like")
        anchors = tmp_path / "anchors.json"
        write_anchors(anchors, [(JobConfig(8, 384), w.true_epochs(384)),
                                (JobConfig(8, 1024), w.true_epochs(1024))])
        code, _, err = run_cli(
            "fit", "--traces", *out.splitlines(), "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert code == 6
        assert "no variation in global_batch" in err

    def test_one_configuration_split_over_two_traces_fits_as_one(self, run_cli, tmp_path):
        # Jittered rows, so the per-configuration sums depend on their order.
        out_dir = tmp_path / "traces"
        code, out, err = run_cli(
            "simulate", "--workload", "resnet18-like", "--jitter", "0.05", "--seed", "4",
            "--config", "8x384", "--config", "8x1024", "--config", "16x384",
            "--config", "16x1024", "--iters", "40", "--start-iteration", "12500",
            "--out", str(out_dir),
        )
        assert code == 0, err
        whole, *others = out.splitlines()
        lines = Path(whole).read_text().splitlines(keepends=True)
        head, tail = tmp_path / "head.jsonl", tmp_path / "tail.jsonl"
        head.write_text("".join(lines[:17]))
        tail.write_text("".join(lines[17:]))
        w = preset_workload("resnet18-like")
        anchors = tmp_path / "anchors.json"
        write_anchors(anchors, [(JobConfig(8, 384), w.true_epochs(384)),
                                (JobConfig(8, 1024), w.true_epochs(1024))])
        models = []
        for name, traces in (("one", [whole, *others]), ("split", [head, *others, tail])):
            models.append(tmp_path / f"{name}.json")
            code, _, err = run_cli(
                "fit", "--traces", *map(str, traces), "--anchors", str(anchors),
                "--dataset-size", "1000000", "--out", str(models[-1]),
            )
            assert code == 0, err
        one, split = (re.sub(r'"created_at": "[^"]*"', "", m.read_text()) for m in models)
        assert one == split

    def test_too_few_anchors_exits_6(self, run_cli, tmp_path, corner_traces):
        paths, _ = corner_traces
        anchors = tmp_path / "one_anchor.json"
        write_anchors(anchors, [(JobConfig(8, 384), 35.0)])
        code, _, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert code == 6
        assert "at least 2 epoch anchors" in err

    def test_flat_noise_pins_the_anchor_mean(self, run_cli, tmp_path, corner_traces):
        # The same gradient norms in every row: each worker count measures
        # one noise value at both batch sizes, so the fitted curve is flat.
        paths, anchors = corner_traces
        for path in paths:
            records = [json.loads(line) for line in Path(path).read_text().splitlines()]
            Path(path).write_text("".join(
                json.dumps({**r, "worker_sqnorms": [2.0] * r["K"], "agg_sqnorm": 1.0}) + "\n"
                for r in records
            ))
        out_model = tmp_path / "flat.json"
        code, out, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(out_model),
        )
        assert code == 0, err
        model = read_model_file(out_model).model
        assert model.fingerprint == "unnamed"
        stat = model.stat
        w = preset_workload("resnet18-like")
        assert (stat.noise_slope, stat.noise_intercept) == (0.0, (2.0 / 8 + 2.0 / 16) / 2)
        assert stat.epochs_slope == 0.0
        assert stat.epochs_base == (w.true_epochs(384) + w.true_epochs(1024)) / 2

    def test_anchors_sharing_one_batch_exit_6(self, run_cli, tmp_path, corner_traces):
        paths, _ = corner_traces
        anchors = tmp_path / "shared.json"
        write_anchors(anchors, [(JobConfig(8, 384), 35.0), (JobConfig(16, 384), 36.0)])
        code, _, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert code == 6
        assert "no variation in noise among epoch anchors" in err

    @pytest.mark.parametrize("epochs", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_anchor_epochs_exits_5(self, run_cli, tmp_path, corner_traces, epochs):
        paths, _ = corner_traces
        anchors = tmp_path / "bad_anchors.json"
        anchors.write_text(
            '{"anchors": [{"K": 8, "B": 384, "epochs": 35.0}, '
            '{"K": 8, "B": 1024, "epochs": ' + epochs + "}]}"
        )
        code, out, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert (code, out) == (5, "")
        assert f"anchors[1].epochs must be > 0 and finite, got {float(epochs)}" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("size", ["0", "9" * 400], ids=["zero", "400_digits"])
    def test_bad_dataset_size_exits_2_naming_the_flag(self, run_cli, tmp_path, corner_traces,
                                                      size):
        paths, anchors = corner_traces
        code, out, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", size, "--out", str(tmp_path / "m.json"),
        )
        assert (code, out) == (2, "")
        assert "argument --dataset-size: must be an integer >= 1 that fits in a float" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("target", ["anchors", "trace"])
    def test_batch_past_the_grid_cap_exits_5(self, run_cli, tmp_path, corner_traces, target):
        paths, anchors = corner_traces
        victim = anchors if target == "anchors" else Path(paths[1])
        victim.write_text(victim.read_text().replace('"B": 1024', f'"B": {10**400}'))
        code, out, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert (code, out) == (5, "")
        where = f"{anchors}:0: anchors[1]:" if target == "anchors" else f"{victim}:1:"
        assert err == f"error: {where} global_batch must be <= 2**62, got {10**400}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("field,coefficient", [("worker_sqnorms", "noise_slope"),
                                                   ("compute_s", "base_s")])
    def test_overflowing_trace_values_exit_5_naming_the_coefficient(
        self, run_cli, tmp_path, corner_traces, field, coefficient
    ):
        """Finite values whose means overflow leave NaN coefficients, which fit rejects."""
        paths, anchors = corner_traces
        with open(paths[1]) as fh:
            records = [json.loads(line) for line in fh]
        for record in records:
            record[field] = [1e308] * 8 if field == "worker_sqnorms" else 1e308
        with open(paths[1], "w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)
        code, out, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert (code, out) == (5, "")
        assert err == f"error: {coefficient} must be finite, got nan\n"
        assert not (tmp_path / "m.json").exists()

    def test_malformed_trace_line_exits_5(self, run_cli, tmp_path, corner_traces):
        paths, anchors = corner_traces
        victim = paths[0]
        with open(victim) as fh:
            lines = fh.read().splitlines()
        lines[16] = "{broken"
        with open(victim, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, _, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert code == 5
        assert ":17:" in err

    @pytest.mark.parametrize("field,value", [
        ("compute_s", float("nan")), ("agg_sqnorm", float("inf")), ("sync_s", -0.5),
    ])
    def test_non_finite_trace_value_exits_5(self, run_cli, tmp_path, corner_traces,
                                            field, value):
        paths, anchors = corner_traces
        with open(paths[1]) as fh:
            records = [json.loads(line) for line in fh]
        records[6][field] = value
        with open(paths[1], "w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)
        code, out, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert code == 5
        assert out == ""
        assert f"{paths[1]}:7: {field} must be finite and >= 0, got {value}" in err
        assert not (tmp_path / "m.json").exists()

    def test_zero_gradient_trace_exits_6(self, run_cli, tmp_path, corner_traces):
        paths, anchors = corner_traces
        victim = paths[0]
        with open(victim) as fh:
            records = [json.loads(line) for line in fh]
        with open(victim, "w") as fh:
            for record in records:
                fh.write(json.dumps({**record, "agg_sqnorm": 0.0}) + "\n")
        code, _, err = run_cli(
            "fit", "--traces", *paths, "--anchors", str(anchors),
            "--dataset-size", "1000000", "--out", str(tmp_path / "m.json"),
        )
        assert code == 6
        assert "trace for K=8, B=384 has no usable samples" in err


CURVE_FLAGS = [
    "--k-min", "2", "--k-max", "8", "--k-step", "2",
    "--b-min", "1", "--b-max", "512", "--b-candidates", "48,96,192,384",
]

# A curves row's fields and their CSV formats.
CURVES_FIELDS = ("workers", "global_batch", "mini_batch", "normalized_noise", "epochs",
                 "iterations", "iteration_time_s", "time_s", "cost_usd")
CURVES_FORMATS = ("%d",) * 3 + ("%.6g",) * 6


@st.composite
def curves_inputs(draw):
    """(coefficients, grid flags): a resnet-like model with each coefficient scaled.

    Some draws make ``per_worker_s`` negative enough that a batch loses its
    high-K rows to ``tau <= 0``, or ``per_sample_s`` so that it loses its
    low-K rows.  Grids are small, with and without ``--b-candidates``.
    """
    coeffs = {name: value * draw(st.floats(0.75, 1.25)) if isinstance(value, float) else value
              for name, value in RESNET_COEFFS.items()}
    drop = draw(st.sampled_from([None, "per_worker_s", "per_sample_s"]))
    if drop == "per_worker_s":
        coeffs[drop] = -coeffs["base_s"] / draw(st.floats(1.0, 12.0))
    elif drop == "per_sample_s":
        coeffs[drop] = -coeffs["base_s"] / draw(st.floats(1.0, 64.0))
    k_min, b_min = draw(st.integers(1, 4)), draw(st.integers(1, 64))
    flags = ["--k-min", str(k_min), "--k-max", str(draw(st.integers(k_min, 12))),
             "--k-step", str(draw(st.integers(1, 3))),
             "--b-min", str(b_min), "--b-max", str(draw(st.integers(b_min, 256)))]
    if draw(st.booleans()):
        candidates = draw(st.lists(st.integers(1, 512), min_size=1, max_size=6))
        flags += ["--b-candidates", ",".join(map(str, candidates))]
    return coeffs, flags


class TestCurves:
    def test_json_structure_and_knees(self, run_cli, model_file, make_model):
        code, out, _ = run_cli("curves", "--model", str(model_file), *CURVE_FLAGS)
        assert code == 0
        doc = json.loads(out)
        assert [c["global_batch"] for c in doc["batches"]] == [48, 96, 192, 384]
        assert sum(len(c["points"]) for c in doc["batches"]) == 16
        for c in doc["batches"]:
            assert len(c["points"]) == 4
            points = [
                TradeoffPoint(
                    JobConfig(r["workers"], r["global_batch"]),
                    r["time_s"],
                    r["cost_usd"],
                )
                for r in c["points"]
            ]
            expected = kneedle_knee(TradeoffCurve.build(points))
            assert c["knee"]["workers"] == expected.point.config.workers
            assert c["knee"]["time_s"] == expected.point.time_s
            assert c["knee"]["method"] == expected.method

    def test_pareto_section(self, run_cli, model_file):
        code, out, _ = run_cli("curves", "--model", str(model_file), *CURVE_FLAGS)
        doc = json.loads(out)
        all_rows = [r for c in doc["batches"] for r in c["points"]]
        min_time = min(all_rows, key=lambda r: r["time_s"])
        min_cost = min(all_rows, key=lambda r: r["cost_usd"])
        pareto_keys = {(r["workers"], r["global_batch"]) for r in doc["pareto"]}
        assert (min_time["workers"], min_time["global_batch"]) in pareto_keys
        assert (min_cost["workers"], min_cost["global_batch"]) in pareto_keys

    def test_csv_flags(self, run_cli, model_file):
        code, out, _ = run_cli(
            "curves", "--model", str(model_file), *CURVE_FLAGS, "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("on_pareto,is_knee")
        assert len(lines) == 17
        knee_rows = [l for l in lines[1:] if l.endswith("true")]
        assert len(knee_rows) == 4
        for line in lines[1:]:
            assert line.split(",")[-1] in ("true", "false")
            assert line.split(",")[-2] in ("true", "false")

    @settings(max_examples=150)
    @given(inputs=curves_inputs())
    def test_csv_is_the_json_at_six_digits(self, tmp_path_factory, inputs):
        """Each CSV row is its JSON row at ``%d``/``%.6g``, flagged as the JSON marks it.

        ``on_pareto`` marks exactly the ``pareto`` rows and ``is_knee`` exactly
        each batch's ``knee``; the two documents are rendered apart.
        """
        coeffs, grid_flags = inputs
        path = tmp_path_factory.getbasetemp() / "curves_model.json"
        write_model_file(path, build_model(**coeffs))
        outputs = {}
        for fmt in ("csv", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(["curves", "--model", str(path), *grid_flags, "--format", fmt])
            outputs[fmt] = code, out.getvalue()
        if outputs["json"][0] == 5:  # every row in bounds dropped
            assert outputs["csv"] == (5, "")
            return
        assert outputs["json"][0] == outputs["csv"][0] == 0
        doc = json.loads(outputs["json"][1])
        pareto = {(r["workers"], r["global_batch"]) for r in doc["pareto"]}
        expected = [",".join((*CURVES_FIELDS, "on_pareto", "is_knee"))]
        for batch in doc["batches"]:
            knee = batch["knee"]["workers"], batch["knee"]["global_batch"]
            for row in batch["points"]:
                key = row["workers"], row["global_batch"]
                flags = [str(key in pareto).lower(), str(key == knee).lower()]
                expected.append(",".join(
                    [fmt % row[f] for fmt, f in zip(CURVES_FORMATS, CURVES_FIELDS)] + flags))
        assert outputs["csv"][1] == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("flags,field", [
        (["--b-candidates", "99999999999999999998,4"], "b_candidates"),
        (["--b-max", str(2**62 + 1)], "b_max"),
        (["--k-max", str(2**62 + 1)], "k_max"),
    ])
    def test_bounds_past_int64_range_exit_2_naming_the_field(self, run_cli, model_file,
                                                             flags, field):
        for command in (["curves"], ["recommend", "--objective", "knee"]):
            code, out, err = run_cli(*command, "--model", str(model_file),
                                     *GRID_FLAGS, *flags)
            assert (code, out) == (2, "")
            assert f"error: {field} must" in err and "<= 2**62" in err

    def test_unpredictable_bounds_exit_5(self, run_cli, model_file):
        code, _, err = run_cli(
            "curves", "--model", str(model_file),
            "--k-min", "5", "--k-max", "5", "--b-min", "48", "--b-max", "48",
        )
        assert code == 5
        assert "no configuration in bounds" in err


class TestRecommend:
    def test_min_cost_time_matches_oracle(self, run_cli, resnet_model_file):
        code, out, _ = run_cli(
            "recommend", "--model", str(resnet_model_file), *GRID_FLAGS,
            "--objective", "min-cost-time",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["feasible_count"] == 10
        assert doc["nearest_miss"] is None
        assert doc["chosen"]["workers"] == 16
        assert doc["chosen"]["global_batch"] == 1024
        assert doc["chosen"]["time_s"] == pytest.approx(35364.84375, rel=1e-12)
        assert doc["chosen"]["cost_usd"] == pytest.approx(21.064872708333336, rel=1e-12)

    def test_deadline_inferred_from_flag(self, run_cli, resnet_model_file):
        code, out, _ = run_cli(
            "recommend", "--model", str(resnet_model_file), *GRID_FLAGS,
            "--deadline", "60000",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"]["kind"] == "deadline"
        assert doc["feasible_count"] == 4
        assert doc["chosen"]["workers"] == 8
        assert doc["chosen"]["global_batch"] == 1024
        assert doc["chosen"]["cost_usd"] == pytest.approx(17.002624, rel=1e-6)

    def test_budget_infeasible_exits_3(self, run_cli, resnet_model_file):
        code, out, _ = run_cli(
            "recommend", "--model", str(resnet_model_file), *GRID_FLAGS,
            "--budget", "17",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["feasible_count"] == 0
        assert doc["chosen"] is None
        assert doc["nearest_miss"]["workers"] == 8
        assert doc["nearest_miss"]["global_batch"] == 1024

    def test_knee_objective_matches_library(self, run_cli, resnet_model_file, make_model):
        code, out, _ = run_cli(
            "recommend", "--model", str(resnet_model_file), *GRID_FLAGS,
            "--objective", "knee",
        )
        assert code == 0
        doc = json.loads(out)
        model = make_model(**RESNET_COEFFS)
        pricing, shape = PricingModel.flat(0.13402), VMShape(4, 16)
        points = [
            TradeoffPoint(
                c,
                predict(model, c, pricing, shape).total_time_s,
                predict(model, c, pricing, shape).cost_usd,
            )
            for c in GRID.valid_configs()
        ]
        expected = kneedle_knee(TradeoffCurve.build(pareto_frontier(points))).point
        assert doc["chosen"]["workers"] == expected.config.workers
        assert doc["chosen"]["global_batch"] == expected.config.global_batch

    def test_both_caps_need_explicit_objective(self, run_cli, model_file):
        code, _, err = run_cli(
            "recommend", "--model", str(model_file), *GRID_FLAGS,
            "--deadline", "60000", "--budget", "25",
        )
        assert code == 2

    def test_objective_without_its_cap_exits_2(self, run_cli, model_file):
        code, _, _ = run_cli(
            "recommend", "--model", str(model_file), *GRID_FLAGS,
            "--objective", "deadline",
        )
        assert code == 2

    def test_no_objective_at_all_exits_2(self, run_cli, model_file):
        code, _, _ = run_cli("recommend", "--model", str(model_file), *GRID_FLAGS)
        assert code == 2

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--objective", "min-cost-time", "--price-flat", "nan"], "flat_hourly_usd"),
            (["--deadline", "nan"], "deadline_s"),
            (["--objective", "knee", "--deadline", "inf"], "deadline_s"),
            (["--objective", "knee", "--budget", "nan"], "budget_usd"),
            (["--objective", "knee", "--budget", "inf"], "budget_usd"),
            (["--objective", "knee", "--vm-memory-gb", "nan", "--price-vcpu", "0.03",
              "--price-gb", "0.004"], "memory_gb"),
            (["--objective", "knee", "--vm-memory-gb", "inf"], "memory_gb"),
        ],
    )
    def test_non_finite_flags_exit_2_naming_the_field(self, run_cli, model_file, flags, field):
        code, out, err = run_cli("recommend", "--model", str(model_file), *GRID_FLAGS, *flags)
        assert code == 2
        assert out == ""
        assert f"{field} must be finite" in err


CUSTOM_WORKLOAD = {"dataset_size": 50_000, "noise_slope": 48, "epochs_base": 10,
                   "epochs_slope": 50, "time_base_s": 0.2, "time_per_sample_s": 0.001,
                   "time_per_worker_s": 0.05}


def scenario_doc(**overrides):
    doc = {
        "workload": {"preset": "resnet18-like"},
        "cluster": {"pricing": {"flat_hourly_usd": 0.13402}},
        "bounds": {
            "k_min": 8, "k_max": 20, "k_step": 4,
            "b_min": 1, "b_max": 2048,
            "b_candidates": [384, 512, 768, 1024],
        },
        "search": {"mode": "partial"},
        "objective": {"kind": "min_cost_time"},
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def scenario_file(tmp_path):
    def write(**overrides):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc(**overrides)))
        return path

    return write


class TestSearch:
    def test_partial_outcome_document(self, run_cli, scenario_file):
        code, out, err = run_cli("search", "--scenario", str(scenario_file()))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["mode"] == "partial"
        assert doc["seed"] == 0
        assert doc["workload"] == "resnet18-like"
        assert doc["chosen"] == {"workers": 16, "global_batch": 1024}
        assert doc["model"]["provenance"] == "partial_search"
        assert "created_at" not in doc["model"]
        assert [(e["kind"], e["iterations"]) for e in doc["explored"]] == [
            ("anchor", 1730), ("anchor", 1000),
            ("profile", 20), ("profile", 20), ("profile", 20), ("profile", 20),
        ]
        assert len(doc["tradeoff_points"]) == 10
        assert doc["recommendation"]["feasible"] is True
        assert doc["oracle"]["chosen"]["workers"] == 16
        assert doc["oracle"]["chosen"]["global_batch"] == 1024

    def test_end_to_end_block_identities(self, run_cli, scenario_file):
        _, out, _ = run_cli("search", "--scenario", str(scenario_file()))
        doc = json.loads(out)
        e2e = doc["end_to_end"]
        assert e2e["total_time_s"] == doc["overhead_time_s"] + e2e["run_time_s"]
        assert e2e["total_cost_usd"] == doc["overhead_cost_usd"] + e2e["run_cost_usd"]
        w = preset_workload("resnet18-like")
        cluster = preset_cluster("resnet18-like")
        run = ground_truth(w, cluster, JobConfig(16, 1024))
        assert e2e["run_time_s"] == run.total_time_s
        assert e2e["run_cost_usd"] == run.cost_usd
        oracle = oracle_best(w, cluster, GRID, Objective.min_cost_time())
        assert e2e["oracle_time_s"] == oracle.chosen.time_s
        assert e2e["time_increase_fraction"] == (
            e2e["total_time_s"] / e2e["oracle_time_s"] - 1.0
        )
        assert 0 < e2e["time_increase_fraction"] < 0.15

    def test_same_seed_byte_identical(self, run_cli, scenario_file, tmp_path):
        path = scenario_file(seed=11)
        f1, f2 = tmp_path / "out1.json", tmp_path / "out2.json"
        code1, _, _ = run_cli("search", "--scenario", str(path), "--out", str(f1))
        code2, _, _ = run_cli("search", "--scenario", str(path), "--out", str(f2))
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_csv_format(self, run_cli, scenario_file):
        code, out, _ = run_cli(
            "search", "--scenario", str(scenario_file()), "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "workers,global_batch,time_s,cost_usd"
        assert len(lines) == 11

    def test_mode_none_reuses_stored_model(self, run_cli, scenario_file, tmp_path):
        store_dir = tmp_path / "store"
        ModelStore(store_dir).save(preset_workload("resnet18-like").to_perf_model())
        path = scenario_file(search={"mode": "none"}, store_dir=str(store_dir))
        code, out, _ = run_cli("search", "--scenario", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "none"
        assert doc["model"]["provenance"] == "reused"
        assert doc["explored"] == []
        assert doc["overhead_time_s"] == 0.0
        assert doc["overhead_cost_usd"] == 0.0
        assert doc["chosen"] == {"workers": 16, "global_batch": 1024}
        assert doc["end_to_end"]["time_increase_fraction"] == 0.0

    def test_mode_none_empty_store_exits_4(self, run_cli, scenario_file, tmp_path):
        path = scenario_file(
            search={"mode": "none"}, store_dir=str(tmp_path / "empty-store")
        )
        code, _, err = run_cli("search", "--scenario", str(path))
        assert code == 4
        assert "store is empty" in err

    def test_mode_none_missing_store_exits_4_and_creates_nothing(
        self, run_cli, scenario_file, tmp_path
    ):
        root = tmp_path / "typo"
        path = scenario_file(search={"mode": "none"}, store_dir=str(root / "deep" / "store"))
        code, out, _ = run_cli("search", "--scenario", str(path))
        assert (code, out) == (4, "")
        assert not root.exists()

    def test_mode_none_out_of_domain_model_exits_5(
        self, run_cli, scenario_file, tmp_path, make_model
    ):
        store_dir = tmp_path / "store"
        ModelStore(store_dir).save(
            make_model(noise_intercept=-5.0, fingerprint="resnet18-like")
        )
        path = scenario_file(search={"mode": "none"}, store_dir=str(store_dir))
        code, out, err = run_cli("search", "--scenario", str(path))
        assert code == 5
        assert out == ""
        assert err == "error: no configuration produced a usable prediction\n"

    @pytest.mark.parametrize("entry", [5, "../outside.json"], ids=["not-a-string", "escapes"])
    def test_mode_none_index_entry_outside_the_store_exits_5(
        self, run_cli, scenario_file, tmp_path, entry
    ):
        # A readable document for the fingerprint sits just outside the store.
        write_model_file(tmp_path / "outside.json",
                         preset_workload("resnet18-like").to_perf_model())
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "index.json").write_text(json.dumps({"resnet18-like": entry}))
        path = scenario_file(search={"mode": "none"}, store_dir=str(store_dir))
        code, out, err = run_cli("search", "--scenario", str(path))
        assert (code, out) == (5, "")
        assert f"index.json: entry 'resnet18-like' must be a .json file name, got {entry!r}" in err

    def test_mode_none_nested_index_exits_5(self, run_cli, scenario_file, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "index.json").write_text(NESTED_JSON)
        path = scenario_file(search={"mode": "none"}, store_dir=str(store_dir))
        code, out, err = run_cli("search", "--scenario", str(path))
        assert (code, out) == (5, "")
        assert err == (f"error: {store_dir / 'index.json'}: invalid JSON: "
                       "value is nested too deeply\n")

    def test_infeasible_objective_exits_3(self, run_cli, scenario_file):
        path = scenario_file(objective={"kind": "budget", "budget_usd": 0.01})
        code, out, _ = run_cli("search", "--scenario", str(path))
        assert code == 3
        doc = json.loads(out)
        assert doc["chosen"] is None
        assert doc["recommendation"]["feasible"] is False
        assert doc["recommendation"]["nearest_miss"] is not None

    @pytest.mark.parametrize("mode", ["full", "partial", "scaling"])
    def test_unreachable_deadline_exits_3_with_a_nearest_miss(self, run_cli, scenario_file,
                                                                mode):
        path = scenario_file(search={"mode": mode, "profile_iters": 5},
                             objective={"kind": "deadline", "deadline_s": 1000})
        code, out, _ = run_cli("search", "--scenario", str(path))
        assert code == 3
        doc = json.loads(out)
        assert doc["chosen"] is None
        assert doc["recommendation"]["feasible"] is False
        assert doc["recommendation"]["nearest_miss"] is not None

    def test_non_finite_constraint_exits_5(self, run_cli, scenario_file):
        path = scenario_file(constraints={"deadline_s": float("nan")})
        code, out, err = run_cli("search", "--scenario", str(path))
        assert code == 5
        assert out == ""
        assert "constraints: deadline_s must be finite and > 0, got nan" in err

    @pytest.mark.parametrize("overrides,field", [
        ({"constraints": {"deadline_s": 10**400}}, "constraints.deadline_s"),
        ({"search": {"mode": "partial", "ewma": {"stability_rel_tol": 10**400}}},
         "search.ewma.stability_rel_tol"),
        ({"workload": {"preset": "resnet18-like", "jitter": 10**400}}, "workload.jitter"),
    ])
    def test_huge_integer_exits_5_naming_its_path(self, run_cli, scenario_file, overrides,
                                                  field):
        code, out, err = run_cli("search", "--scenario", str(scenario_file(**overrides)))
        assert code == 5
        assert out == ""
        assert err == f"error: {field}: is too large to be a float\n"

    @pytest.mark.parametrize("overrides,path,message", [
        ({"workload": {"preset": "resnet18-like", "dataset_size": 10**400}}, "workload",
         "dataset_size must be >= 1 and fit in a float"),
        ({"workload": {"dataset_size": 10**400, "noise_slope": 48, "epochs_base": 10,
                       "epochs_slope": 50, "time_base_s": 0.2, "time_per_sample_s": 0.001,
                       "time_per_worker_s": 0.05}}, "workload",
         "dataset_size must be >= 1 and fit in a float"),
        ({"workload": {"preset": "resnet18-like", "jitter": math.nan}}, "workload",
         "jitter must be finite and >= 0, got nan"),
        ({"workload": {"preset": "resnet18-like", "ramp_iters": math.nan}}, "workload",
         "ramp_iters must be finite and >= 1, got nan"),
        ({"cluster": {"pricing": {"flat_hourly_usd": 0.13402}, "restore_overhead_s": math.nan}},
         "cluster", "restore_overhead_s must be finite and >= 0, got nan"),
        ({"cluster": {"pricing": {"flat_hourly_usd": 0.13402},
                      "shape": {"vcpus": 4, "memory_gb": math.inf}}},
         "cluster.shape", "memory_gb must be finite and > 0, got inf"),
        ({"workload": {**CUSTOM_WORKLOAD, "noise_slope": math.nan}}, "workload",
         "noise_slope must be finite, got nan"),
        ({"workload": {**CUSTOM_WORKLOAD, "epochs_base": math.nan}}, "workload",
         "epochs_base must be finite, got nan"),
        ({"seed": -1}, "workload", "seed must be >= 0, got -1"),
        ({"search": {"mode": "scaling", "sampling": {"kind": "random", "seed": -1}}},
         "search", "seed must be >= 0, got -1"),
        ({"cluster": {"pricing": {"flat_hourly_usd": 0.13402},
                      "shape": {"vcpus": 10**400, "memory_gb": 16}}},
         "cluster.shape", f"vcpus must be <= 2**62, got {10**400}"),
        ({"search": {"mode": "scaling",
                     "sampling": {"kind": "random", "seed": 1, "bspace": 10**30}}},
         "search", f"bspace must be <= 1048576, got {10**30}"),
        ({"search": {"mode": "scaling",
                     "sampling": {"kind": "random", "seed": 1, "kspace": 10**30}}},
         "search", f"kspace must be <= 1048576, got {10**30}"),
        ({"search": {"mode": "scaling",
                     "sampling": {"kind": "random", "seed": 1, "bspace": 2**62}}},
         "search", f"bspace must be <= 1048576, got {2**62}"),
        ({"search": {"mode": "scaling",
                     "sampling": {"kind": "random", "seed": 1, "kspace": 2**62}}},
         "search", f"kspace must be <= 1048576, got {2**62}"),
        ({"search": {"mode": "partial", "profile_iters": 10**400}}, "search",
         f"profile_iters must be <= 2**62, got {10**400}"),
    ], ids=["preset_dataset_size", "dataset_size", "jitter", "ramp_iters", "restore_overhead_s",
            "memory_gb", "noise_slope", "epochs_base", "seed", "sampling_seed", "vcpus",
            "bspace", "kspace", "bspace_2**62", "kspace_2**62", "profile_iters"])
    def test_out_of_range_value_exits_5_naming_the_field(self, run_cli, scenario_file,
                                                         overrides, path, message):
        code, out, err = run_cli("search", "--scenario", str(scenario_file(**overrides)))
        assert (code, out) == (5, "")
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("workload", [{"preset": "resnet18-like"}, CUSTOM_WORKLOAD])
    def test_a_grad_dim_key_is_ignored(self, run_cli, scenario_file, workload):
        # The simulator has no gradient dimension; like any unknown key, an
        # old scenario's grad_dim loads and changes nothing.
        expected = run_cli("search", "--scenario", str(scenario_file(workload=workload)))
        assert expected[0] == 0, expected[2]
        old = scenario_file(workload={**workload, "grad_dim": 10**400})
        assert run_cli("search", "--scenario", str(old)) == expected

    @pytest.mark.parametrize("mode,message", [
        ("full", "no configuration produced a usable prediction"),
        ("partial", "no configuration produced a usable prediction"),
        ("scaling", "no configuration produced a usable prediction"),
    ], ids=["full", "partial", "scaling"])
    def test_overflowing_total_exits_5_in_every_profiling_mode(self, run_cli, scenario_file,
                                                               mode, message):
        """At 10**308 samples every total time overflows, measured or predicted."""
        workload = {"preset": "resnet18-like", "dataset_size": 10**308}
        path = scenario_file(workload=workload, search={"mode": mode, "profile_iters": 5})
        code, out, err = run_cli("search", "--scenario", str(path))
        assert (code, out) == (5, "")
        assert err == f"error: {message}\n"

    def test_overflowing_overhead_exits_5(self, run_cli, scenario_file, tmp_path):
        """A finite restore time whose sum overflows would print Infinity, not JSON."""
        cluster = {"pricing": {"flat_hourly_usd": 0.13402}, "restore_overhead_s": 1e308}
        out_path = tmp_path / "outcome.json"
        code, out, err = run_cli("search", "--scenario", str(scenario_file(cluster=cluster)),
                                 "--out", str(out_path))
        assert (code, out) == (5, "")
        assert err == "error: overhead_time_s must be finite and >= 0, got inf\n"
        assert not out_path.exists()

    def test_bounds_past_int64_range_exit_5(self, run_cli, scenario_file):
        bounds = {**scenario_doc()["bounds"], "b_candidates": [384, 2**62 + 2]}
        code, out, err = run_cli("search", "--scenario", str(scenario_file(bounds=bounds)))
        assert (code, out) == (5, "")
        assert err == "error: bounds: b_candidates must all be <= 2**62\n"

    def test_integer_past_the_digit_limit_exits_5(self, run_cli, tmp_path):
        path = tmp_path / "scenario.json"
        text = json.dumps(scenario_doc())
        path.write_text('{"seed": ' + "9" * 5000 + ", " + text[1:])
        code, out, err = run_cli("search", "--scenario", str(path))
        assert (code, out) == (5, "")
        assert "<file>: invalid JSON in" in err and "Exceeds the limit" in err

    def test_non_finite_tolerance_exits_5(self, run_cli, scenario_file):
        ewma = {"stability_rel_tol": float("nan")}
        path = scenario_file(search={"mode": "partial", "ewma": ewma})
        code, _, err = run_cli("search", "--scenario", str(path))
        assert code == 5
        assert "search: stability_rel_tol must be finite and > 0, got nan" in err

    def test_bad_scenario_exits_5(self, run_cli, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{broken")
        code, _, err = run_cli("search", "--scenario", str(path))
        assert code == 5
        assert "invalid JSON" in err


class TestSynthesisOverflow:
    """Finite coefficients whose synthesized samples overflow name the workload."""

    @pytest.mark.parametrize("field,column,sources", [
        ("time_per_sample_s", "compute_s", "time_base_s, time_per_sample_s and jitter"),
        ("time_per_worker_s", "sync_s", "time_base_s, time_per_worker_s and jitter"),
        ("noise_intercept", "worker_sqnorms", "noise_slope, noise_intercept and jitter"),
        ("jitter", "worker_sqnorms", "noise_slope, noise_intercept and jitter"),
    ], ids=["compute_s", "sync_s", "worker_sqnorms", "jitter"])
    @pytest.mark.parametrize("command", ["simulate", "search"])
    def test_exits_5_naming_workload_config_and_coefficients(
            self, run_cli, scenario_file, tmp_path, command, field, column, sources):
        workload = dict(CUSTOM_WORKLOAD, name="toy", **{field: 1e308})
        if command == "simulate":
            wl = tmp_path / "workload.json"
            wl.write_text(json.dumps(workload))
            argv = ["simulate", "--workload", str(wl), "--config", "8x384", "--iters", "100",
                    "--out", str(tmp_path / "t")]
        else:
            argv = ["search", "--scenario", str(scenario_file(workload=workload))]
        code, out, err = run_cli(*argv)
        assert (code, out) == (5, "")
        assert err.startswith(f"error: workload 'toy' at K=8, B=384: {sources} overflow "
                              f"the synthesized {column} (must be finite and >= 0, got ")
        assert "row" not in err


class TestTopLevel:
    def test_help_exits_0(self, run_cli):
        code, out, _ = run_cli("--help")
        assert code == 0
        assert "simulate" in out
        assert "recommend" in out

    def test_no_command_exits_2(self, run_cli):
        code, _, _ = run_cli()
        assert code == 2

    def test_module_entrypoint(self):
        src_dir = str(Path(scalefit.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "scalefit.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert proc.returncode == 0
        assert "scalefit" in proc.stdout


# ---------------------------------------------------------------- unreadable input files

# Each flag that reads an input file, with the exit code a missing file gets;
# a directory, bytes that do not decode or a value nested too deeply exit 5.
MISSING_FILE_EXITS = {
    "predict --model": 4, "curves --model": 4, "recommend --model": 4,
    "search --scenario": 5, "fit --traces": 5, "fit --anchors": 5, "store document": 4,
}


@pytest.fixture
def file_reading_command(tmp_path, model_file, corner_traces, scenario_file):
    """``(argv, input file)`` for a flag of ``MISSING_FILE_EXITS``; argv has no ``--out``."""
    traces, anchors = corner_traces

    def command(flag):
        if flag == "store document":
            store_dir = tmp_path / "store"
            document = ModelStore(store_dir).save(preset_workload("resnet18-like").to_perf_model())
            scenario = scenario_file(search={"mode": "none"}, store_dir=str(store_dir))
            return ["search", "--scenario", str(scenario)], document
        fit = ["fit", "--traces", *traces, "--anchors", str(anchors), "--dataset-size", "1000"]
        scenario = scenario_file()
        return {
            "predict --model": (["predict", "--model", str(model_file), "8x512"], model_file),
            "curves --model": (["curves", "--model", str(model_file), *GRID_FLAGS], model_file),
            "recommend --model": (["recommend", "--model", str(model_file), *GRID_FLAGS,
                                   "--objective", "knee"], model_file),
            "search --scenario": (["search", "--scenario", str(scenario)], scenario),
            "fit --traces": (fit, Path(traces[0])),
            "fit --anchors": (fit, anchors),
        }[flag]

    return command


class TestUnreadableInputFiles:
    @pytest.mark.parametrize("case", ["missing", "directory", "undecodable", "nested"])
    @pytest.mark.parametrize("flag", list(MISSING_FILE_EXITS))
    def test_one_error_line_naming_the_file(self, run_cli, tmp_path, file_reading_command,
                                            flag, case):
        argv, target = file_reading_command(flag)
        code, _, err = run_cli(*argv, "--out", str(tmp_path / "out.json"))
        assert code == 0, err  # the command reads the file as it stands
        target.unlink()
        if case == "directory":
            target.mkdir()
        elif case == "undecodable":
            target.write_bytes(b'{"\xff": 1}\n')
        elif case == "nested":
            target.write_text(NESTED_JSON)
        out_path = tmp_path / "out.json"
        out_path.unlink()
        code, _, err = run_cli(*argv, "--out", str(out_path))
        assert code == (MISSING_FILE_EXITS[flag] if case == "missing" else 5), err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert str(target) in err
        assert case != "nested" or "invalid JSON" in err and "value is nested too deeply" in err
        assert not out_path.exists()


# Each flag that names an output path, with the ``file_reading_command`` flag whose argv it ends.
OUTPUT_FLAGS = {
    "predict --out": "predict --model", "curves --out": "curves --model",
    "recommend --out": "recommend --model", "search --out": "search --scenario",
    "fit --out": "fit --traces", "simulate --out": None,
}


class TestUnwritableOutputs:
    @pytest.mark.parametrize("case", ["directory", "missing parent"])
    @pytest.mark.parametrize("flag", OUTPUT_FLAGS)
    def test_one_error_line_naming_the_path(self, run_cli, tmp_path, file_reading_command,
                                            flag, case):
        """A path that cannot be written exits 2 and leaves no temporary file behind.

        ``simulate --out`` names a directory it creates, so there the path is
        an existing regular file, or a path under one.
        """
        if flag == "simulate --out":
            argv = ["simulate", "--workload", "resnet18-like", "--config", "4x64", "--iters", "3"]
            (tmp_path / "taken").touch()
        else:
            argv, _ = file_reading_command(OUTPUT_FLAGS[flag])
            (tmp_path / "taken").mkdir()
        out_path = tmp_path / ("taken" if case == "directory" else "absent/out.json")
        if flag == "simulate --out" and case == "missing parent":
            out_path = tmp_path / "taken" / "traces"
        before = set(tmp_path.rglob("*"))
        code, out, err = run_cli(*argv, "--out", str(out_path))
        assert (code, out) == (2, ""), err
        assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1, err
        assert set(tmp_path.rglob("*")) == before  # no stray ``*.tmp`` or partial output


# ---------------------------------------------------------------- fuzz

# A scaling search whose anchors stabilize within a few dozen iterations, so
# one search takes milliseconds; it sets every field a profiling search reads.
FUZZ_SCENARIO = {
    "seed": 2,
    "workload": {"name": "fuzz", "dataset_size": 200_000, "noise_slope": 30.0,
                 "noise_intercept": 0.2, "epochs_base": 5.0, "epochs_slope": 12.0,
                 "time_base_s": 0.3, "time_per_sample_s": 0.01, "time_per_worker_s": 0.01,
                 "ramp_iters": 5.0, "jitter": 0.05},
    "cluster": {"shape": {"vcpus": 4, "memory_gb": 16},
                "pricing": {"mode": "flat_per_vm", "flat_hourly_usd": 0.13402},
                "restore_overhead_s": 37.0},
    "bounds": {"k_min": 2, "k_max": 8, "k_step": 2, "b_min": 1, "b_max": 512,
               "b_candidates": [64, 128, 512]},
    "search": {"mode": "scaling", "profile_iters": 3, "max_stabilize_iters": 400,
               "sampling": {"kind": "random", "seed": 7, "bspace": 2, "kspace": 2},
               "ewma": {"alpha": 0.5, "warmup_iters": 5, "stability_window": 5,
                        "stability_rel_tol": 0.5}},
    "objective": {"kind": "deadline", "deadline_s": 1e9},
    "constraints": {"budget_usd": 1e6},
}
MUTATIONS = ("drop", "wrong_type", "bool", "nan_string", "inf_string", "nan", "inf",
             "negative", "huge_int", "huge_float", "deep", "truncate")
# ``json.dumps`` cannot write ``NESTED_JSON``'s value: "deep" writes this string,
# and the dumped text gets the nested arrays spliced in its place.
DEEP_PLACEHOLDER = "<100,000 nested arrays>"


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """(directory, trace records by file name, documents by file name) of valid inputs."""
    root = tmp_path_factory.mktemp("fuzz")
    env = SimEnvironment(preset_workload("resnet18-like"), preset_cluster("resnet18-like"))
    traces = {}
    for i, (k, b) in enumerate([(8, 384), (8, 1024), (16, 384), (16, 1024)]):
        path = root / f"trace_K{k}_B{b}.jsonl"
        write_trace(path, JobConfig(k, b), env.profile(k, b, 4, 12_500 + 4 * i))
        traces[path.name] = [json.loads(line) for line in path.read_text().splitlines()]
    w = preset_workload("resnet18-like")
    write_anchors(root / "anchors.json", [(JobConfig(8, 384), w.true_epochs(384)),
                                          (JobConfig(8, 1024), w.true_epochs(1024))])
    write_model_file(root / "model.json", w.to_perf_model())
    (root / "scenario.json").write_text(json.dumps(FUZZ_SCENARIO))
    docs = {name: json.loads((root / name).read_text())
            for name in ("anchors.json", "model.json", "scenario.json")}
    return root, traces, docs


def _paths(doc, prefix=()):
    """Paths to every value nested in a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [prefix]
    out = [prefix] if prefix else []
    for key, value in items:
        out += _paths(value, prefix + (key,))
    return out


def _mutated(doc, path, mutation):
    """``doc`` with the value at ``path`` dropped or replaced, as JSON text."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if mutation == "drop":
        del parent[path[-1]]
    elif mutation != "truncate":
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        parent[path[-1]] = {
            "wrong_type": str(value) if number else 1,
            "bool": True,
            "nan_string": "nan",
            "inf_string": "inf",
            "nan": math.nan,
            "inf": math.inf,
            "negative": -abs(value) if number and value else -1,
            "huge_int": 10**400,
            "huge_float": 1e308,
            "deep": DEEP_PLACEHOLDER,
        }[mutation]
    return json.dumps(doc).replace(json.dumps(DEEP_PLACEHOLDER), NESTED_JSON)


@st.composite
def fuzzed_input(draw, fuzz_inputs):
    """(file name, its mutated text) for one trace line, anchors file, model or scenario."""
    _, traces, docs = fuzz_inputs
    name = draw(st.sampled_from(["trace", *sorted(docs)]))
    mutation = draw(st.sampled_from(MUTATIONS))
    if name == "trace":
        name = draw(st.sampled_from(sorted(traces)))
        lines = [json.dumps(record) for record in traces[name]]
        row = draw(st.integers(0, len(lines) - 1))
        doc = traces[name][row]
    else:
        doc = docs[name]
    text = _mutated(doc, draw(st.sampled_from(_paths(doc))), mutation)
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    if name in traces:
        lines[row] = text
        text = "\n".join(lines) + "\n"
    return name, text


def _fuzz_command(root, name):
    """The command that reads ``name``: recommend, search, or fit for traces and anchors."""
    if name == "model.json":
        return ["recommend", "--model", str(root / name), "--k-min", "8", "--k-max", "16",
                "--k-step", "8", "--b-min", "384", "--b-max", "1024",
                "--b-candidates", "384,512,1024", "--objective", "min-cost-time"]
    if name == "scenario.json":
        return ["search", "--scenario", str(root / name)]
    return ["fit", "--traces", *sorted(str(p) for p in root.glob("trace_*.jsonl")),
            "--anchors", str(root / "anchors.json"), "--dataset-size", "1000000"]


class TestFuzz:
    @settings(max_examples=400)
    @given(data=st.data())
    def test_every_mutated_input_exits_cleanly(self, fuzz_inputs, data):
        """A mutated input file never raises out of ``main``.

        The exit code is a documented one.  Every failure prints exactly one
        ``error:`` line and writes no output file; exit 3 (nothing feasible)
        is a result and writes its document.  No output holds ``NaN`` or
        ``Infinity``, and a model that ``fit`` writes reads back.
        """
        root, _, _ = fuzz_inputs
        name, text = data.draw(fuzzed_input(fuzz_inputs))
        target, out_path = root / name, root / "out.json"
        original = target.read_text()
        target.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([*_fuzz_command(root, name), "--out", str(out_path)])
            written = out_path.read_text() if out_path.exists() else None
        finally:
            target.write_text(original)
            out_path.unlink(missing_ok=True)
        assert code in (0, 2, 3, 5, 6), err.getvalue()
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        if code in (0, 3):
            assert errors == [] and written is not None
            doc = json.loads(written)
            if _fuzz_command(root, name)[0] == "fit":
                model_from_document(doc)  # a written model reads back
        else:
            assert len(errors) == 1 and written is None, err.getvalue()
        for output in (out.getvalue(), written or ""):
            assert "NaN" not in output and "Infinity" not in output
