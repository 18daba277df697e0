"""Model persistence: bit-exact round trips, validation, universal averaging."""

import json
import math
import multiprocessing
from dataclasses import replace

import pytest

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
        real_read = store_module.read_model_file

        def read_and_drop_c(path):
            index = json.loads(index_path.read_text())
            if "c" in index:
                del index["c"]
                index_path.write_text(json.dumps(index))
            return real_read(path)

        monkeypatch.setattr(store_module, "read_model_file", read_and_drop_c)
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

    def test_index_fingerprint_cross_check(self, tmp_path, make_model):
        store = ModelStore(tmp_path)
        store.save(make_model(fingerprint="alpha"))
        store.save(make_model(fingerprint="beta"))
        index = json.loads((store.root / "index.json").read_text())
        index["alpha"], index["beta"] = index["beta"], index["alpha"]
        (store.root / "index.json").write_text(json.dumps(index))
        with pytest.raises(CorruptDocumentError, match="points at a document"):
            store.load("alpha")


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
