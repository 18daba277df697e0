"""Trace and anchor file formats.

A trace file is JSON Lines, one record per iteration::

    {"t": 0, "K": 8, "B": 512, "worker_sqnorms": [...], "agg_sqnorm": 1.0,
     "compute_s": 0.33, "sync_s": 0.33}

All records in one file must share the same (K, B); ``t``, ``K`` and ``B``
must be JSON integers, the other fields JSON numbers (a string or a bool
is rejected, an integer reads as a float), and every number must be finite
and >= 0: ``NaN`` and ``Infinity`` are rejected at their line.  The anchors
side file is a single JSON object:
``{"anchors": [{"K": 8, "B": 384, "epochs": 35.2}, ...]}``, where ``epochs``
follows the same number rule.

A trace is read one line at a time, and every ``_BLOCK_ROWS`` records become
typed column blocks, so a read's peak memory is about twice the columns it
returns.
"""

from __future__ import annotations

import json
import math
from array import array
from itertools import chain
from pathlib import Path

import numpy as np

from .config import JobConfig
from .errors import ConfigurationError, InvalidSampleError, TraceParseError, decode_json, read_json
from .noise import SampleBatch, iteration_column

_KEYS = ("t", "K", "B", "worker_sqnorms", "agg_sqnorm", "compute_s", "sync_s")
_KEY_SET = frozenset(_KEYS)
_FLOAT_KEYS = ("agg_sqnorm", "compute_s", "sync_s")
# Records read into Python objects before they become typed column blocks.
_BLOCK_ROWS = 256
# ``json.loads`` on a stripped line is this one call plus an end check; the
# decoder holds no state between calls.
_raw_decode = json.JSONDecoder().raw_decode


def _integer(name: str, value) -> int:
    """``value`` if it is a JSON integer; anything else, a bool too, is a ConfigurationError."""
    if type(value) is not int:
        raise ConfigurationError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def _number(name: str, value) -> float:
    """``float(value)`` for a JSON number; anything else, a bool too, is a ConfigurationError.

    An integer past the float range raises OverflowError.
    """
    if type(value) is float or type(value) is int:
        return float(value)
    raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")


def _typed_row(path: str, lineno: int, row: tuple) -> tuple:
    """``row`` with integer K, B and ``t``, float norms and float times, or a TraceParseError."""
    k, b, t, norms, *scalars = row
    try:
        return (_integer("K", k), _integer("B", b), _integer("t", t),
                [_number("worker_sqnorms value", v) for v in norms],
                *map(_number, _FLOAT_KEYS, scalars))
    except (ConfigurationError, OverflowError) as exc:
        raise TraceParseError(path, lineno, str(exc)) from None


def write_trace(path: str | Path, config: JobConfig, samples: SampleBatch) -> None:
    """Write one line per row, byte for byte what ``json.dumps`` gives for the record.

    A row whose K worker norms are bitwise equal (``0.0`` and ``-0.0``
    differ) has its norm formatted once and repeated; every other row
    formats each value.  Lines stream to the file as they are built.
    """
    head = f'"K": {config.workers}, "B": {config.global_batch}, "worker_sqnorms": ['
    norms, workers = samples.worker_sqnorms, samples.workers
    bits = norms.view(np.uint64)
    uniform = (bits[:, 1:] == bits[:, :1]).all(axis=1)
    mixed = iter(norms[~uniform].tolist())
    texts = (
        ", ".join([repr(first)] * workers) if same else ", ".join(map(repr, next(mixed)))
        for same, first in zip(uniform.tolist(), norms[:, 0].tolist())
    )
    with Path(path).open("w") as fh:
        fh.writelines(
            f'{{"t": {t}, {head}{text}], '
            f'"agg_sqnorm": {agg!r}, "compute_s": {compute!r}, "sync_s": {sync!r}}}\n'
            for t, text, agg, compute, sync in zip(
                samples.iteration.tolist(),
                texts,
                samples.agg_sqnorm.tolist(),
                samples.compute_s.tolist(),
                samples.sync_s.tolist(),
            )
        )


def _read_file(path: str, what: str, *read):
    """``read_json`` for a trace or anchors file: each failure is a TraceParseError at line 0."""
    return read_json(path, lambda path, kind, detail: TraceParseError(
        path, 0, f"no {what} file at {path}" if kind == "missing" else f"{kind}: {detail}"), *read)


def _line_blocks(path: str, lines):
    """Each run of up to ``_BLOCK_ROWS`` records as the configuration, their line numbers and
    raw rows, every record checked for shape and K, B as it is read.  Every fault is a
    TraceParseError: ``read_json`` maps only the file's own errors."""
    config: JobConfig | None = None
    first_kb = None
    linenos: list[int] = []
    rows: list[tuple] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record, end = _raw_decode(line)
        except (ValueError, RecursionError):
            end = -1
        if end != len(line):  # json.loads raises what it says of the line, a leading BOM too
            try:
                record = decode_json(line)
            except ValueError as exc:  # also an integer past the digit limit, or nesting
                raise TraceParseError(path, lineno, f"invalid JSON: {exc}") from None
        if type(record) is not dict:
            raise TraceParseError(path, lineno, "record must be an object")
        if not _KEY_SET <= record.keys():
            missing = next(key for key in _KEYS if key not in record)
            raise TraceParseError(path, lineno, f"missing field {missing!r}")
        kb = (record["K"], record["B"])
        if kb != first_kb:
            try:
                line_config = JobConfig(_integer("K", kb[0]), _integer("B", kb[1]))
            except ConfigurationError as exc:
                raise TraceParseError(path, lineno, str(exc)) from None
            if config is None:
                config, first_kb = line_config, kb
            elif line_config != config:
                raise TraceParseError(
                    path,
                    lineno,
                    f"configuration changed mid-file: expected "
                    f"K={config.workers}, B={config.global_batch}",
                )
        norms = record["worker_sqnorms"]
        if type(norms) is not list or len(norms) != config.workers:
            raise TraceParseError(
                path,
                lineno,
                f"worker_sqnorms must list exactly {config.workers} values",
            )
        rows.append((*kb, record["t"], norms, record["agg_sqnorm"], record["compute_s"],
                     record["sync_s"]))
        linenos.append(lineno)
        if len(rows) == _BLOCK_ROWS:
            yield config, linenos, rows
            linenos, rows = [], []
    if rows:
        yield config, linenos, rows


def _typed_block(path: str, linenos: list[int], rows: list[tuple]) -> list[np.ndarray]:
    """The rows' ``t`` as int64, their norms as ``(rows, K)`` float64 and their times as float64.

    The first row holding a value not of its column's JSON type is a
    TraceParseError; then the first ``t`` outside int64 is an InvalidSampleError
    for its row of the block.  Only a block holding a mistyped value (an
    integer norm, or a K of 1.0, say) is converted row by row.
    """
    # K and B too: a later line's 1.0 or true equals the first line's 1.
    ks, bs, *columns = zip(*rows)
    iteration, norms, *scalars = columns
    if (set(map(type, chain(ks, bs, iteration))) != {int}
            or set(map(type, chain(chain.from_iterable(norms), *scalars))) != {float}):
        typed = (_typed_row(path, lineno, row) for lineno, row in zip(linenos, rows))
        columns = list(zip(*typed))[2:]
    iteration, *floats = columns
    return [iteration_column(iteration), *(np.array(column, dtype=np.float64)
                                           for column in floats)]


def _column_blocks(path: str, lines) -> tuple[JobConfig | None, array, list[list[np.ndarray]]]:
    """The configuration, each record's line number and the typed column blocks.

    A structural fault raises at its line; the first type fault, then the
    first ``t`` outside int64, raises once every line has been read.
    """
    config, linenos, blocks = None, array("q"), []
    type_fault = range_fault = None
    for config, block_linenos, rows in _line_blocks(path, lines):
        linenos.extend(block_linenos)
        if type_fault is None:
            try:
                blocks.append(_typed_block(path, block_linenos, rows))
            except TraceParseError as exc:
                type_fault = exc
            except InvalidSampleError as exc:
                range_fault = range_fault or TraceParseError(
                    path, block_linenos[exc.row], f"{exc.field} {exc.reason}")
    if type_fault or range_fault:
        raise type_fault or range_fault
    return config, linenos, blocks


def read_trace(path: str | Path) -> tuple[JobConfig, SampleBatch]:
    """Parse one trace file, validating record shape and (K, B) consistency.

    Lines are read and parsed one at a time, and every ``_BLOCK_ROWS``
    records become typed column blocks, so the rows' Python objects never
    outlive their block.  The blocks are joined once at the end and validated
    there, and a bad value is reported at the line it came from.  The peak
    memory is about twice the returned columns.
    """
    path = str(Path(path))
    config, linenos, blocks = _read_file(path, "trace", lambda fh: _column_blocks(path, fh))
    if config is None:
        raise TraceParseError(path, 0, "trace file has no records")
    columns = [np.concatenate(column) for column in zip(*blocks)]
    del blocks  # before validation builds its temporaries
    try:
        return config, SampleBatch.adopt(*columns)
    except InvalidSampleError as exc:
        raise TraceParseError(path, linenos[exc.row], f"{exc.field} {exc.reason}") from None


def write_anchors(path: str | Path, anchors: list[tuple[JobConfig, float]]) -> None:
    doc = {
        "anchors": [
            {"K": cfg.workers, "B": cfg.global_batch, "epochs": epochs}
            for cfg, epochs in anchors
        ]
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_anchors(path: str | Path) -> list[tuple[JobConfig, float]]:
    path = str(Path(path))
    doc = _read_file(path, "anchors")
    if not isinstance(doc, dict) or "anchors" not in doc or not isinstance(
        doc["anchors"], list
    ):
        raise TraceParseError(path, 0, 'expected an object with an "anchors" list')
    out = []
    for i, entry in enumerate(doc["anchors"]):
        where = f"anchors[{i}]"
        if not isinstance(entry, dict) or not {"K", "B", "epochs"} <= set(entry):
            raise TraceParseError(path, 0, f"{where} needs K, B, and epochs")
        try:
            cfg = JobConfig(_integer("K", entry["K"]), _integer("B", entry["B"]))
            epochs = _number("epochs", entry["epochs"])
        except (ConfigurationError, OverflowError) as exc:
            raise TraceParseError(path, 0, f"{where}: {exc}") from None
        if not 0 < epochs < math.inf:  # False for NaN too
            raise TraceParseError(
                path, 0, f"{where}.epochs must be > 0 and finite, got {epochs}"
            )
        out.append((cfg, epochs))
    return out
