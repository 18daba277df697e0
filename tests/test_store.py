"""Model persistence: bit-exact round trips, validation, universal averaging."""

import json
import math
import multiprocessing
import operator
from dataclasses import asdict, replace
from functools import reduce
from pathlib import Path

import pytest

from conftest import NESTED_JSON
import scalefit.store as store_module
from scalefit.errors import CorruptDocumentError, ModelNotFoundError
from scalefit.perfmodel import ParallelFit, PerfModel, StatFit
from scalefit.store import (
    ModelStore,
    StoredModel,
    model_from_document,
    model_to_document,
    read_model_file,
    write_model_file,
)


ODD_FLOATS = {
    "noise_slope": 48.000000000000014,
    "noise_intercept": 1e-308,
    "epochs_base": 10.1,
    "epochs_slope": 0.1 + 0.2,  # 0.30000000000000004
    "base_s": math.pi,
    "per_sample_s": 2**-1074,  # smallest subnormal
    "per_worker_s": 0.05,
}


def odd_model():
    return PerfModel(
        StatFit(
            ODD_FLOATS["noise_slope"],
            ODD_FLOATS["noise_intercept"],
            ODD_FLOATS["epochs_base"],
            ODD_FLOATS["epochs_slope"],
        ),
        ParallelFit(
            ODD_FLOATS["base_s"], ODD_FLOATS["per_sample_s"], ODD_FLOATS["per_worker_s"]
        ),
        123457,
        "odd floats",
        "full_search",
    )


def _save_models(root: str, worker: int, count: int) -> None:
    store = ModelStore(root)
    for i in range(count):
        store.save(replace(odd_model(), fingerprint=f"worker{worker}-model{i}"))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = odd_model()
        path = tmp_path / "model.json"
        write_model_file(path, model, created_at="2026-01-01T00:00:00+00:00")
        back = read_model_file(path).model
        for field in ("noise_slope", "noise_intercept", "epochs_base", "epochs_slope"):
            assert getattr(back.stat, field) == getattr(model.stat, field)
        for field in ("base_s", "per_sample_s", "per_worker_s"):
            assert getattr(back.parallel, field) == getattr(model.parallel, field)
        assert back == model

    def test_document_numbers_are_strings(self):
        doc = model_to_document(odd_model(), created_at="t")
        assert doc["stat"]["epochs_slope"] == "0.30000000000000004"
        assert all(isinstance(v, str) for v in doc["stat"].values())
        assert all(isinstance(v, str) for v in doc["parallel"].values())

    def test_store_save_load(self, tmp_path, make_model):
        store = ModelStore(tmp_path / "store")
        model = make_model(fingerprint="cifar10-resnet18")
        path = store.save(model, created_at="2026-02-03T04:05:06+00:00")
        assert path.exists()
        stored = store.load("cifar10-resnet18")
        assert stored.model == model
        assert stored.created_at == "2026-02-03T04:05:06+00:00"

    @pytest.mark.parametrize("provenance", ["scaling_search", "trace_fit"])
    def test_scaling_and_fit_provenances_round_trip(self, tmp_path, make_model, provenance):
        store = ModelStore(tmp_path)
        model = make_model(provenance=provenance)
        store.save(model)
        assert store.load("example").model == model

    def test_document_written_before_the_scaling_and_fit_provenances_loads(self, tmp_path):
        # `fit` wrote `full_search` and scaling search `partial_search`.
        doc = {
            "schema_version": 1, "fingerprint": "resnet18-like",
            "created_at": "2026-01-01T00:00:00+00:00", "dataset_size": 1000000,
            "stat": {"noise_slope": "48.0", "noise_intercept": "0.1",
                     "epochs_base": "6.0", "epochs_slope": "16.0"},
            "parallel": {"base_s": "0.25", "per_sample_s": "0.012", "per_worker_s": "0.008"},
            "provenance": "full_search",
        }
        (tmp_path / "old.json").write_text(json.dumps(doc))
        (tmp_path / "index.json").write_text(json.dumps({"resnet18-like": "old.json"}))
        model = ModelStore(tmp_path).load("resnet18-like").model
        assert model.provenance == "full_search"
        assert model.stat == StatFit(48.0, 0.1, 6.0, 16.0)

    def test_save_overwrites_same_fingerprint(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        store.save(make_model(noise_slope=48))
        store.save(make_model(noise_slope=60))
        assert store.load("example").model.stat.noise_slope == 60
        assert store.fingerprints() == ["example"]

    def test_slug_handles_awkward_fingerprints(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        fp = "my workload/v2 ünïcode"
        path = store.save(make_model(fingerprint=fp))
        assert path.parent == store.root
        assert "/" not in path.name.replace(store.root.name, "")
        assert path.suffix == ".json"
        assert store.load(fp).model.fingerprint == fp

    def test_distinct_fingerprints_distinct_files(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        p1 = store.save(make_model(fingerprint="a b"))
        p2 = store.save(make_model(fingerprint="a-b"))
        assert p1 != p2
        assert sorted(store.fingerprints()) == ["a b", "a-b"]


    def test_concurrent_writers_leave_a_usable_store(self, tmp_path):
        # Writers that shared one temporary file renamed each other's files
        # away and interleaved their writes into an unparseable index.
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            pool.starmap_async(
                _save_models, [(str(tmp_path), w, 20) for w in range(4)]
            ).get(timeout=120)
        store = ModelStore(tmp_path)
        json.loads((tmp_path / "index.json").read_text())
        # Racing index updates can still drop entries, never documents.
        assert all(s.model.stat == odd_model().stat for s in store.load_all())
        documents = [p for p in tmp_path.glob("*.json") if p.name != "index.json"]
        assert len(documents) == 80
        assert {read_model_file(p).model.fingerprint for p in documents} == {
            f"worker{w}-model{i}" for w in range(4) for i in range(20)
        }
        assert not list(tmp_path.glob("*.tmp"))


class TestSnapshotReads:
    def test_load_all_survives_an_entry_dropped_mid_read(self, tmp_path, make_model,
                                                         monkeypatch):
        # A racing writer's lost update can drop an index entry between the
        # listing and the document reads; load_all keeps the listing's snapshot.
        store = ModelStore(tmp_path)
        for fp in ("a", "b", "c"):
            store.save(make_model(fingerprint=fp))
        index_path = tmp_path / "index.json"
        real_read = store_module._read_document

        def read_and_drop_c(path):
            index = json.loads(index_path.read_text())
            if "c" in index:
                del index["c"]
                index_path.write_text(json.dumps(index))
            return real_read(path)

        monkeypatch.setattr(store_module, "_read_document", read_and_drop_c)
        assert [s.model.fingerprint for s in store.load_all()] == ["a", "b", "c"]
        with pytest.raises(ModelNotFoundError, match="'c'"):
            store.load("c")

    @pytest.mark.parametrize("call", [
        lambda store: store.load_all(),
        lambda store: store.universal_average(dataset_size=1000),
        lambda store: store.load("model-123"),
    ], ids=["load_all", "universal_average", "load"])
    def test_each_read_parses_the_index_once(self, tmp_path, make_model, monkeypatch, call):
        store = ModelStore(tmp_path)
        for i in range(200):
            store.save(make_model(fingerprint=f"model-{i}"))
        reads = []
        real_read_index = ModelStore._read_index

        def counting_read_index(self):
            reads.append(self.root)
            return real_read_index(self)

        monkeypatch.setattr(ModelStore, "_read_index", counting_read_index)
        call(store)
        assert len(reads) == 1


class TestValidation:
    def test_empty_fingerprint_rejected(self, make_model):
        model = make_model()
        object.__setattr__(model, "fingerprint", "")
        with pytest.raises(CorruptDocumentError):
            StoredModel(model, "now")

    def test_missing_model(self, tmp_path):
        store = ModelStore(tmp_path)
        with pytest.raises(ModelNotFoundError, match="nope"):
            store.load("nope")
        with pytest.raises(ModelNotFoundError):
            read_model_file(tmp_path / "absent.json")

    def test_reads_leave_a_missing_root_absent_and_save_creates_it(self, tmp_path, make_model):
        root = tmp_path / "deep" / "store"
        store = ModelStore(root)
        assert store.fingerprints() == [] and store.load_all() == []
        with pytest.raises(ModelNotFoundError):
            store.load("nope")
        assert not (tmp_path / "deep").exists()
        store.save(make_model())
        assert store.fingerprints() == [make_model().fingerprint]

    def test_truncated_document(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        path = store.save(make_model(fingerprint="broken"))
        path.write_text(path.read_text()[:40])
        with pytest.raises(CorruptDocumentError, match="invalid JSON"):
            store.load("broken")
        # The rest of the store must stay usable.
        store.save(make_model(fingerprint="fine"))
        assert store.load("fine").model.fingerprint == "fine"


    def test_integer_past_the_digit_limit(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        path = store.save(make_model(fingerprint="huge"))
        path.write_text(path.read_text().replace('"dataset_size": 50000',
                                                 '"dataset_size": ' + "9" * 5000))
        with pytest.raises(CorruptDocumentError, match="invalid JSON.*Exceeds the limit"):
            store.load("huge")
        index = store.root / "index.json"
        index.write_text('{"huge": ' + "9" * 5000 + "}")
        with pytest.raises(CorruptDocumentError, match="index.json: invalid JSON"):
            store.fingerprints()

    def test_schema_and_field_errors(self, make_model):
        good = model_to_document(make_model(), created_at="t")
        bad = dict(good, schema_version=99)
        with pytest.raises(CorruptDocumentError, match="schema_version"):
            model_from_document(bad)
        missing = dict(good)
        del missing["parallel"]
        with pytest.raises(CorruptDocumentError, match="parallel"):
            model_from_document(missing)
        nonstring = dict(good, stat=dict(good["stat"], noise_slope=48.0))
        with pytest.raises(CorruptDocumentError, match="decimal string"):
            model_from_document(nonstring)
        unparseable = dict(good, stat=dict(good["stat"], noise_slope="forty-eight"))
        with pytest.raises(CorruptDocumentError, match="not a parseable number"):
            model_from_document(unparseable)
        for value in ("nan", "inf", "-Infinity"):
            non_finite = dict(good, parallel=dict(good["parallel"], per_worker_s=value))
            with pytest.raises(CorruptDocumentError, match="'per_worker_s' must be finite"):
                model_from_document(non_finite)
        bad_prov = dict(good, provenance="hearsay")
        with pytest.raises(CorruptDocumentError, match="provenance"):
            model_from_document(bad_prov)
        bad_ds = dict(good, dataset_size="big")
        with pytest.raises(CorruptDocumentError, match="dataset_size"):
            model_from_document(bad_ds)

    @pytest.mark.parametrize("field,value,message", [
        ("schema_version", True, "unsupported schema_version True"),
        ("schema_version", 1.0, "unsupported schema_version 1.0"),
        ("dataset_size", True, "dataset_size must be a positive integer"),
        ("dataset_size", 50000.0, "dataset_size must be a positive integer"),
        ("created_at", 5, "created_at must be a string"),
        ("created_at", None, "created_at must be a string"),
    ])
    def test_fields_must_have_their_json_type(self, make_model, field, value, message):
        # True == 1 and 1.0 == 1, so a value test alone lets these through.
        doc = dict(model_to_document(make_model(), created_at="t"), **{field: value})
        with pytest.raises(CorruptDocumentError) as exc_info:
            model_from_document(doc, source="model.json")
        assert str(exc_info.value) == f"model.json: {message}"

    @pytest.mark.parametrize("entry", [5, None, "../outside.json", "/abs/model.json",
                                       "sub/model.json", "model.txt", "nul\0.json"])
    def test_index_entry_must_name_a_document_in_the_store(self, tmp_path, make_model, entry):
        store = ModelStore(tmp_path / "store")
        store.save(make_model(fingerprint="fine"))
        index = json.loads((store.root / "index.json").read_text())
        (store.root / "index.json").write_text(json.dumps({**index, "bad": entry}))
        for read in (store.fingerprints, store.load_all, lambda: store.load("fine")):
            with pytest.raises(CorruptDocumentError, match="index.json: entry 'bad' must be"):
                read()

    def test_index_fingerprint_cross_check(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        store.save(make_model(fingerprint="alpha"))
        store.save(make_model(fingerprint="beta"))
        index = json.loads((store.root / "index.json").read_text())
        index["alpha"], index["beta"] = index["beta"], index["alpha"]
        (store.root / "index.json").write_text(json.dumps(index))
        with pytest.raises(CorruptDocumentError, match="points at a document"):
            store.load("alpha")


# What json.loads says of the text "{".
OPEN_BRACE = "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"


class TestDocumentPaths:
    """A document is named as ``str(Path(root) / name)`` names it, however the root is spelt."""

    @pytest.mark.parametrize("root", [".", "a//b/", "./a"])
    def test_corrupt_and_missing_documents(self, tmp_path, make_model, monkeypatch, root):
        monkeypatch.chdir(tmp_path)
        store = ModelStore(root)
        path = store.save(make_model(fingerprint="m"))
        named = str(Path(root) / path.name)
        path.write_text("{")
        with pytest.raises(CorruptDocumentError) as exc_info:
            store.load("m")
        assert str(exc_info.value) == f"{named}: {OPEN_BRACE}"
        path.unlink()
        with pytest.raises(ModelNotFoundError) as exc_info:
            store.load_all()
        assert str(exc_info.value) == f"no model document at {named}"

    @pytest.mark.parametrize("root", [".", "a//b/", "./a", "/"])
    def test_missing_document_under_any_root(self, tmp_path, monkeypatch, root):
        monkeypatch.chdir(tmp_path)
        store = ModelStore(root)
        name = "absent-scalefit-model.json"
        monkeypatch.setattr(store, "_read_index", lambda: {"m": name})
        with pytest.raises(ModelNotFoundError) as exc_info:
            store.load("m")
        assert str(exc_info.value) == f"no model document at {Path(root) / name}"

    def test_read_model_file_names_the_normalised_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ModelNotFoundError) as exc_info:
            read_model_file("./m.json")
        assert str(exc_info.value) == "no model document at m.json"
        Path("m.json").write_text("{")
        with pytest.raises(CorruptDocumentError) as exc_info:
            read_model_file("./m.json")
        assert str(exc_info.value) == f"m.json: {OPEN_BRACE}"

    def test_nested_index_is_corrupt(self, tmp_path):
        (tmp_path / "index.json").write_text(NESTED_JSON)
        with pytest.raises(CorruptDocumentError) as exc_info:
            ModelStore(tmp_path).load_all()
        assert str(exc_info.value) == (
            f"{tmp_path / 'index.json'}: invalid JSON: value is nested too deeply"
        )

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, make_model):
        (tmp_path / "taken").mkdir()
        for path in (tmp_path / "taken", tmp_path / "absent" / "m.json"):
            with pytest.raises(OSError):
                write_model_file(path, make_model())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert list((tmp_path / "taken").iterdir()) == []

    def test_unreadable_index_is_corrupt(self, tmp_path):
        (tmp_path / "index.json").mkdir()
        with pytest.raises(CorruptDocumentError) as exc_info:
            ModelStore(tmp_path).load_all()
        assert str(exc_info.value) == f"{tmp_path / 'index.json'}: cannot read: Is a directory"


class TestUniversalAverage:
    def test_empty_store_rejected(self, tmp_path):
        store = ModelStore(tmp_path)
        with pytest.raises(ModelNotFoundError, match="store is empty"):
            store.universal_average(dataset_size=1000)

    def test_single_model_is_identity(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        model = make_model()
        store.save(model)
        avg = store.universal_average(dataset_size=777)
        assert avg.stat == model.stat
        assert avg.parallel == model.parallel
        assert avg.dataset_size == 777
        assert avg.fingerprint == "universal"
        assert avg.provenance == "universal"

    def test_mean_of_x_and_3x_is_2x(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        base = make_model(fingerprint="one")
        store.save(base)
        store.save(
            make_model(
                noise_slope=base.stat.noise_slope * 3,
                noise_intercept=0.3,
                epochs_base=base.stat.epochs_base * 3,
                epochs_slope=base.stat.epochs_slope * 3,
                base_s=base.parallel.base_s * 3,
                per_sample_s=base.parallel.per_sample_s * 3,
                per_worker_s=base.parallel.per_worker_s * 3,
                fingerprint="three",
            )
        )
        avg = store.universal_average(dataset_size=1000)
        assert avg.stat.noise_slope == pytest.approx(base.stat.noise_slope * 2)
        assert avg.stat.noise_intercept == pytest.approx(0.15)
        assert avg.stat.epochs_base == pytest.approx(base.stat.epochs_base * 2)
        assert avg.stat.epochs_slope == pytest.approx(base.stat.epochs_slope * 2)
        assert avg.parallel.base_s == pytest.approx(base.parallel.base_s * 2)
        assert avg.parallel.per_sample_s == pytest.approx(base.parallel.per_sample_s * 2)
        assert avg.parallel.per_worker_s == pytest.approx(base.parallel.per_worker_s * 2)

    def test_averaging_is_order_independent(self, tmp_path, make_model):
        s1 = ModelStore(tmp_path / "a")
        s2 = ModelStore(tmp_path / "b")
        m1 = make_model(noise_slope=40, fingerprint="m1")
        m2 = make_model(noise_slope=56, fingerprint="m2")
        s1.save(m1)
        s1.save(m2)
        s2.save(m2)
        s2.save(m1)
        assert s1.universal_average(100) == s2.universal_average(100)

    def test_each_field_is_a_left_to_right_mean(self, tmp_path, make_model):
        # A compensated total of 1e16 * j, j, -1e16 * j and 0.1 is j + 0.1; added left
        # to right from 0.0, j is rounded at 1e16 * j first.
        fields = ("noise_slope", "noise_intercept", "epochs_base", "epochs_slope",
                  "base_s", "per_sample_s", "per_worker_s")
        columns = {f: (1e16 * j, 1.0 * j, -1e16 * j, 0.1) for j, f in enumerate(fields, 1)}
        store = ModelStore(tmp_path)
        for i, fingerprint in enumerate("abcd"):  # load_all reads in fingerprint order
            store.save(make_model(fingerprint=fingerprint,
                                  **{f: values[i] for f, values in columns.items()}))
        avg = store.universal_average(dataset_size=1000)
        got = {**asdict(avg.stat), **asdict(avg.parallel)}
        for f, values in columns.items():
            want = reduce(operator.add, values, 0.0) / len(values)
            assert want != math.fsum(values) / len(values)
            assert got[f].hex() == want.hex(), f
