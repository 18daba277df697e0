"""Filesystem store for fitted models.

One JSON document per fingerprint plus an index file.  Coefficients are
stored as decimal strings produced by ``repr(float)``, whose shortest
round-trip guarantee makes save/load bit-exact.  Writes go through a
temporary file private to the writing process and thread, then an atomic
rename, so a crashed writer never leaves a half-written document behind and
concurrent writers never rename each other's temporary files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import CorruptDocumentError, ModelNotFoundError, ModelOutOfDomainError
from .perfmodel import PROVENANCES, ParallelFit, PerfModel, StatFit

SCHEMA_VERSION = 1

_STAT_FIELDS = ("noise_slope", "noise_intercept", "epochs_base", "epochs_slope")
_PARALLEL_FIELDS = ("base_s", "per_sample_s", "per_worker_s")


@dataclass(frozen=True)
class StoredModel:
    """A fitted model plus its storage metadata."""

    model: PerfModel
    created_at: str

    def __post_init__(self) -> None:
        if not self.model.fingerprint:
            raise CorruptDocumentError("stored models need a non-empty fingerprint")


def _num(value: float) -> str:
    return repr(float(value))


def _parse_num(doc_path: str, field: str, value) -> float:
    if not isinstance(value, str):
        raise CorruptDocumentError(f"{doc_path}: field {field!r} must be a decimal string")
    try:
        number = float(value)
    except ValueError:
        raise CorruptDocumentError(
            f"{doc_path}: field {field!r} is not a parseable number: {value!r}"
        ) from None
    if not math.isfinite(number):
        raise CorruptDocumentError(f"{doc_path}: field {field!r} must be finite, got {value!r}")
    return number


def model_to_document(model: PerfModel, created_at: str | None = None) -> dict:
    """The JSON-serializable document for one model."""
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat()
    return {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": model.fingerprint,
        "created_at": created_at,
        "dataset_size": model.dataset_size,
        "stat": {f: _num(getattr(model.stat, f)) for f in _STAT_FIELDS},
        "parallel": {f: _num(getattr(model.parallel, f)) for f in _PARALLEL_FIELDS},
        "provenance": model.provenance,
    }


def model_from_document(doc: dict, source: str = "<document>") -> StoredModel:
    """Parse and validate a model document."""
    if not isinstance(doc, dict):
        raise CorruptDocumentError(f"{source}: document must be a JSON object")
    for key in (
        "schema_version",
        "fingerprint",
        "created_at",
        "dataset_size",
        "stat",
        "parallel",
        "provenance",
    ):
        if key not in doc:
            raise CorruptDocumentError(f"{source}: missing field {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise CorruptDocumentError(
            f"{source}: unsupported schema_version {doc['schema_version']!r}"
        )
    if not isinstance(doc["fingerprint"], str) or not doc["fingerprint"]:
        raise CorruptDocumentError(f"{source}: fingerprint must be a non-empty string")
    if not isinstance(doc["dataset_size"], int) or doc["dataset_size"] < 1:
        raise CorruptDocumentError(f"{source}: dataset_size must be a positive integer")
    if doc["provenance"] not in PROVENANCES:
        raise CorruptDocumentError(
            f"{source}: provenance must be one of {PROVENANCES}"
        )
    stat_doc = doc["stat"]
    par_doc = doc["parallel"]
    if not isinstance(stat_doc, dict) or set(stat_doc) != set(_STAT_FIELDS):
        raise CorruptDocumentError(f"{source}: stat must have fields {_STAT_FIELDS}")
    if not isinstance(par_doc, dict) or set(par_doc) != set(_PARALLEL_FIELDS):
        raise CorruptDocumentError(
            f"{source}: parallel must have fields {_PARALLEL_FIELDS}"
        )
    stat = StatFit(**{f: _parse_num(source, f, stat_doc[f]) for f in _STAT_FIELDS})
    parallel = ParallelFit(
        **{f: _parse_num(source, f, par_doc[f]) for f in _PARALLEL_FIELDS}
    )
    try:
        model = PerfModel(
            stat=stat,
            parallel=parallel,
            dataset_size=doc["dataset_size"],
            fingerprint=doc["fingerprint"],
            provenance=doc["provenance"],
        )
    except ModelOutOfDomainError as exc:
        raise CorruptDocumentError(f"{source}: {exc}") from None
    return StoredModel(model=model, created_at=doc["created_at"])


def _write_json_atomically(path: Path, doc: dict) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def write_model_file(path: str | Path, model: PerfModel, created_at: str | None = None) -> None:
    """Write one model document atomically to an arbitrary path."""
    _write_json_atomically(Path(path), model_to_document(model, created_at))


def read_model_file(path: str | Path) -> StoredModel:
    """Read and validate one model document."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ModelNotFoundError(f"no model document at {path}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past the digit limit
        raise CorruptDocumentError(f"{path}: invalid JSON: {exc}") from None
    return model_from_document(doc, source=str(path))


def _slug(fingerprint: str) -> str:
    clean = re.sub(r"[^A-Za-z0-9._-]+", "-", fingerprint).strip("-") or "model"
    digest = hashlib.sha256(fingerprint.encode()).hexdigest()[:12]
    return f"{clean[:48]}-{digest}.json"


class ModelStore:
    """Directory of model documents addressed by workload fingerprint."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / "index.json"

    def _read_index(self) -> dict[str, str]:
        if not self._index_path.exists():
            return {}
        try:
            index = json.loads(self._index_path.read_text())
        except ValueError as exc:  # also an integer past the digit limit
            raise CorruptDocumentError(
                f"{self._index_path}: invalid JSON: {exc}"
            ) from None
        if not isinstance(index, dict):
            raise CorruptDocumentError(f"{self._index_path}: index must be an object")
        return index

    def save(self, model: PerfModel, created_at: str | None = None) -> Path:
        """Persist a model under its fingerprint, replacing any previous one."""
        if not model.fingerprint:
            raise CorruptDocumentError("cannot store a model without a fingerprint")
        filename = _slug(model.fingerprint)
        write_model_file(self.root / filename, model, created_at)
        index = self._read_index()
        index[model.fingerprint] = filename
        _write_json_atomically(self._index_path, index)
        return self.root / filename

    def _load_entry(self, index: dict[str, str], fingerprint: str) -> StoredModel:
        if fingerprint not in index:
            raise ModelNotFoundError(f"no stored model for fingerprint {fingerprint!r}")
        stored = read_model_file(self.root / index[fingerprint])
        if stored.model.fingerprint != fingerprint:
            raise CorruptDocumentError(
                f"index entry {fingerprint!r} points at a document for "
                f"{stored.model.fingerprint!r}"
            )
        return stored

    def load(self, fingerprint: str) -> StoredModel:
        return self._load_entry(self._read_index(), fingerprint)

    def fingerprints(self) -> list[str]:
        return sorted(self._read_index())

    def load_all(self) -> list[StoredModel]:
        """Every model in fingerprint order, from one snapshot of the index."""
        index = self._read_index()
        return [self._load_entry(index, fp) for fp in sorted(index)]

    def universal_average(
        self, dataset_size: int, fingerprint: str = "universal"
    ) -> PerfModel:
        """Coefficient-wise unweighted mean of every stored model.

        The iteration count scale comes from the requesting job, so its
        dataset size is a required argument.
        """
        stored = self.load_all()
        if not stored:
            raise ModelNotFoundError("store is empty; no universal model available")
        n = len(stored)

        def mean(get) -> float:
            return sum(get(s.model) for s in stored) / n

        stat = StatFit(
            noise_slope=mean(lambda m: m.stat.noise_slope),
            noise_intercept=mean(lambda m: m.stat.noise_intercept),
            epochs_base=mean(lambda m: m.stat.epochs_base),
            epochs_slope=mean(lambda m: m.stat.epochs_slope),
        )
        parallel = ParallelFit(
            base_s=mean(lambda m: m.parallel.base_s),
            per_sample_s=mean(lambda m: m.parallel.per_sample_s),
            per_worker_s=mean(lambda m: m.parallel.per_worker_s),
        )
        return PerfModel(
            stat=stat,
            parallel=parallel,
            dataset_size=dataset_size,
            fingerprint=fingerprint,
            provenance="universal",
        )
