"""Trace and anchor file formats.

A trace file is JSON Lines, one record per iteration::

    {"t": 0, "K": 8, "B": 512, "worker_sqnorms": [...], "agg_sqnorm": 1.0,
     "compute_s": 0.33, "sync_s": 0.33}

All records in one file must share the same (K, B); ``t``, ``K`` and ``B``
must be JSON integers, and every number must be finite and >= 0: ``NaN``
and ``Infinity`` are rejected at their line.  The anchors side file is a
single JSON object: ``{"anchors": [{"K": 8, "B": 384, "epochs": 35.2}, ...]}``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .config import JobConfig
from .errors import ConfigurationError, InvalidSampleError, TraceParseError
from .noise import SampleBatch

_KEYS = ("t", "K", "B", "worker_sqnorms", "agg_sqnorm", "compute_s", "sync_s")


def _integer(name: str, value) -> int:
    """``value`` if it is a JSON integer; anything else, a bool too, is a ConfigurationError."""
    if type(value) is not int:
        raise ConfigurationError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def write_trace(path: str | Path, config: JobConfig, samples: SampleBatch) -> None:
    """Write one line per row, byte for byte what ``json.dumps`` gives for the record."""
    head = f'"K": {config.workers}, "B": {config.global_batch}, "worker_sqnorms": ['
    with Path(path).open("w") as fh:
        fh.writelines(
            f'{{"t": {t}, {head}{", ".join(map(repr, norms))}], '
            f'"agg_sqnorm": {agg!r}, "compute_s": {compute!r}, "sync_s": {sync!r}}}\n'
            for t, norms, agg, compute, sync in zip(
                samples.iteration.tolist(),
                samples.worker_sqnorms.tolist(),
                samples.agg_sqnorm.tolist(),
                samples.compute_s.tolist(),
                samples.sync_s.tolist(),
            )
        )


def read_trace(path: str | Path) -> tuple[JobConfig, SampleBatch]:
    """Parse one trace file, validating record shape and (K, B) consistency.

    Lines are parsed one at a time; the columns are stacked and validated
    once at the end, and a bad value is reported at the line it came from.
    """
    path = Path(path)
    config: JobConfig | None = None
    first_kb = None
    linenos: list[int] = []
    rows: list[tuple] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an integer past the digit limit
                raise TraceParseError(str(path), lineno, f"invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise TraceParseError(str(path), lineno, "record must be an object")
            for key in _KEYS:
                if key not in record:
                    raise TraceParseError(str(path), lineno, f"missing field {key!r}")
            kb = (record["K"], record["B"])
            if kb != first_kb:
                try:
                    line_config = JobConfig(_integer("K", kb[0]), _integer("B", kb[1]))
                except ConfigurationError as exc:
                    raise TraceParseError(str(path), lineno, str(exc)) from None
                if config is None:
                    config, first_kb = line_config, kb
                elif line_config != config:
                    raise TraceParseError(
                        str(path),
                        lineno,
                        f"configuration changed mid-file: expected "
                        f"K={config.workers}, B={config.global_batch}",
                    )
            norms = record["worker_sqnorms"]
            if not isinstance(norms, list) or len(norms) != config.workers:
                raise TraceParseError(
                    str(path),
                    lineno,
                    f"worker_sqnorms must list exactly {config.workers} values",
                )
            try:
                rows.append((
                    _integer("t", record["t"]),
                    list(map(float, norms)),
                    float(record["agg_sqnorm"]),
                    float(record["compute_s"]),
                    float(record["sync_s"]),
                ))
            except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
                raise TraceParseError(str(path), lineno, str(exc)) from None
            linenos.append(lineno)
    if config is None:
        raise TraceParseError(str(path), 0, "trace file has no records")
    try:
        return config, SampleBatch(*zip(*rows))
    except InvalidSampleError as exc:
        raise TraceParseError(
            str(path), linenos[exc.row], f"{exc.field} {exc.reason}"
        ) from None


def write_anchors(path: str | Path, anchors: list[tuple[JobConfig, float]]) -> None:
    doc = {
        "anchors": [
            {"K": cfg.workers, "B": cfg.global_batch, "epochs": epochs}
            for cfg, epochs in anchors
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_anchors(path: str | Path) -> list[tuple[JobConfig, float]]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # also an integer past the digit limit
        raise TraceParseError(str(path), 0, f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "anchors" not in doc or not isinstance(
        doc["anchors"], list
    ):
        raise TraceParseError(str(path), 0, 'expected an object with an "anchors" list')
    out = []
    for i, entry in enumerate(doc["anchors"]):
        where = f"anchors[{i}]"
        if not isinstance(entry, dict) or not {"K", "B", "epochs"} <= set(entry):
            raise TraceParseError(str(path), 0, f"{where} needs K, B, and epochs")
        try:
            cfg = JobConfig(_integer("K", entry["K"]), _integer("B", entry["B"]))
            epochs = float(entry["epochs"])
        except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
            raise TraceParseError(str(path), 0, f"{where}: {exc}") from None
        if not 0 < epochs < math.inf:  # False for NaN too
            raise TraceParseError(
                str(path), 0, f"{where}.epochs must be > 0 and finite, got {epochs}"
            )
        out.append((cfg, epochs))
    return out
