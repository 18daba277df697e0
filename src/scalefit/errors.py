"""Exceptions shared across the package, the one range check, the one left-to-right sum and
the one JSON file reader."""

from __future__ import annotations

import json
import math

import numpy as np

# Largest accepted configuration or count integer: grids are enumerated in
# int64, and sums such as ``b_min + k - 1`` must not wrap.
MAX_GRID_VALUE = 2**62


def ordered_sum(values) -> float:
    """``values`` (an array or any iterable) added left to right from ``0.0``, quietly as float
    adds are, unlike the compensated ``sum`` of 3.12+ and NumPy's pairwise ``sum``."""
    values = values if isinstance(values, np.ndarray) else np.fromiter(values, float)
    if not values.size:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # ``+ 0.0``: a -0.0 total is 0.0
        return float(np.add.accumulate(values, dtype=float)[-1]) + 0.0


class ScalefitError(Exception):
    """Base class for all scalefit errors."""


class ConfigurationError(ScalefitError):
    """A job configuration, VM shape, pricing model, or bounds value is invalid."""


class InvalidSampleError(ConfigurationError):
    """A sample batch holds a value out of range.

    Carries the column name and the first offending row, so a trace reader
    can point at the line the row came from.
    """

    def __init__(self, field: str, row: int, reason: str) -> None:
        super().__init__(f"{field} {reason} at row {row}")
        self.field = field
        self.row = row
        self.reason = reason


class DegenerateGradientError(ScalefitError):
    """The aggregated gradient norm is exactly zero; the noise ratio is undefined."""


class DegenerateFitError(ScalefitError):
    """The fitting data lacks variation along a required axis."""


class ModelOutOfDomainError(ScalefitError):
    """A fitted model produced a non-positive noise, epoch, or iteration-time value."""


class EmptyInputError(ScalefitError):
    """An operation that requires at least one point received none."""


class SearchFailedError(ScalefitError):
    """No candidate configuration could be profiled or selected."""


class ModelNotFoundError(ScalefitError):
    """No stored model matches the requested fingerprint."""


class CorruptDocumentError(ScalefitError):
    """A stored model document does not conform to the expected schema."""


class TraceParseError(ScalefitError):
    """A trace file could not be parsed.

    Carries the offending file and line number so the CLI can point at them.
    """

    def __init__(self, path: str, line: int, reason: str) -> None:
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


class ScenarioError(ScalefitError):
    """A scenario document failed validation.

    Carries the dotted field path of the offending value.
    """

    def __init__(self, field_path: str, reason: str) -> None:
        super().__init__(f"{field_path}: {reason}")
        self.field_path = field_path
        self.reason = reason


def check(name: str, value, lo: float, hi: float = math.inf, *, lo_open: bool = False,
          finite: bool = False, error: type[ScalefitError] = ConfigurationError):
    """``value`` if ``lo <= value <= hi`` (``lo < value`` with ``lo_open``), else raise ``error``.

    ``finite`` also rejects ±inf, and NaN fails every range.  The message
    names the side that failed: ``"<name> must be <= <hi>, got <value>"``
    above the range, else ``"<name> must be [finite and ]>= <lo>, got
    <value>"`` (``> <lo>`` with ``lo_open``), with ``MAX_GRID_VALUE`` as ``2**62``.
    """
    if value > hi:
        rule = "<= 2**62" if hi == MAX_GRID_VALUE else f"<= {hi}"
    elif (lo < value if lo_open else lo <= value) and not (finite and abs(value) == math.inf):
        return value
    else:
        parts = ["finite"] if finite else []
        if lo > -math.inf:
            parts.append(f"{'>' if lo_open else '>='} {lo}")
        rule = " and ".join(parts)
    raise error(f"{name} must be {rule}, got {value}")


def decode_json(text: str):
    """``json.loads(text)``; a value nested past the recursion limit is a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("value is nested too deeply") from None


def read_json(path, error, read=lambda fh: decode_json(fh.read())):
    """``read`` of the open text file at ``path``, by default its JSON value.

    A failure gives ``error(path, kind, detail)``, raised if it is an exception:
    kind ``"missing"`` for no file, ``"cannot read"`` with the OS's reason for
    any other OSError (a directory, say), or ``"invalid JSON"`` with the message
    of a ValueError (bytes that are not UTF-8, an integer past the digit limit,
    a value nested too deeply, or malformed text)."""
    try:
        with open(path) as fh:
            return read(fh)
    except FileNotFoundError:
        failure = error(path, "missing", None)
    except OSError as exc:
        failure = error(path, "cannot read", exc.strerror)
    except ValueError as exc:
        failure = error(path, "invalid JSON", str(exc))
    if isinstance(failure, Exception):
        raise failure
    return failure
