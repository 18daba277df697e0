"""Trace (JSONL) and epoch-anchor file round trips and error reporting."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NESTED_JSON
from scalefit import traces
from scalefit.config import JobConfig
from scalefit.errors import ConfigurationError, InvalidSampleError, TraceParseError
from scalefit.noise import IterationSample, SampleBatch
from scalefit.traces import read_anchors, read_trace, write_anchors, write_trace


def make_samples(workers, n):
    return SampleBatch.from_samples(
        IterationSample(
            iteration=t,
            per_worker_grad_sqnorms=tuple(1.0 + 0.1 * w for w in range(workers)),
            aggregated_grad_sqnorm=0.9 + 0.01 * t,
            compute_time_s=0.3,
            sync_time_s=0.12,
        )
        for t in range(n)
    )


class TestTraceRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "trace_K8_B512.jsonl"
        samples = make_samples(8, 5)
        write_trace(path, JobConfig(8, 512), samples)
        config, back = read_trace(path)
        assert config == JobConfig(8, 512)
        assert back == samples

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(2, 64), make_samples(2, 2))
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n\n" + lines[1] + "\n\n")
        _, back = read_trace(path)
        assert len(back) == 2


FLOATS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308, 1.7976931348623157e308]
)


@st.composite
def worker_row(draw, k):
    """K worker norms: one value repeated, a mix of ``0.0`` and ``-0.0``, or any values."""
    kind = draw(st.sampled_from(["uniform", "signed_zeros", "any"]))
    if kind == "uniform":
        return [draw(FLOATS)] * k
    values = st.sampled_from([0.0, -0.0]) if kind == "signed_zeros" else FLOATS
    return draw(st.lists(values, min_size=k, max_size=k))


@st.composite
def batches(draw):
    k = draw(st.integers(1, 64))
    n = draw(st.integers(1, 6))
    column = st.lists(FLOATS, min_size=n, max_size=n)
    iteration = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # one norm per row, broadcast to K workers as the simulator does
        gamma = np.array(draw(column))
        return SampleBatch.adopt(np.array(iteration), np.broadcast_to(gamma[:, None], (n, k)),
                                 *(np.array(draw(column)) for _ in range(3)))
    return SampleBatch(
        iteration,
        draw(st.lists(worker_row(k), min_size=n, max_size=n)),
        draw(column),
        draw(column),
        draw(column),
    )


def json_lines(config, batch):
    """What writing each row as a ``json.dumps`` record gives."""
    return "".join(
        json.dumps({
            "t": s.iteration,
            "K": config.workers,
            "B": config.global_batch,
            "worker_sqnorms": list(s.per_worker_grad_sqnorms),
            "agg_sqnorm": s.aggregated_grad_sqnorm,
            "compute_s": s.compute_time_s,
            "sync_s": s.sync_time_s,
        }) + "\n"
        for s in batch
    )


class TestTraceProperties:
    @given(batch=batches(), per_worker=st.integers(1, 64))
    def test_bytes_equal_json_dumps_and_round_trip_bit_exact(self, batch, per_worker):
        config = JobConfig(batch.workers, batch.workers * per_worker)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            write_trace(path, config, batch)
            assert path.read_text() == json_lines(config, batch)
            back_config, back = read_trace(path)
        assert back_config == config
        for name in SampleBatch.__slots__:
            column, read = getattr(batch, name), getattr(back, name)
            assert read.dtype == column.dtype
            assert read.tobytes() == column.tobytes()

    def test_signed_zeros_in_one_row_keep_their_signs(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        batch = SampleBatch([0], [[0.0, -0.0]], [1.0], [0.3], [0.1])
        write_trace(path, JobConfig(2, 64), batch)
        assert '"worker_sqnorms": [0.0, -0.0]' in path.read_text()
        assert path.read_text() == json_lines(JobConfig(2, 64), batch)

    def test_one_worker_writes_what_json_dumps_gives(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        batch = SampleBatch([0, 1, 2], [[0.1], [-0.0], [1e308]], [1.0, 0.0, 2.5],
                            [0.3, 0.31, 0.29], [0.1, 0.0, 0.12])
        write_trace(path, JobConfig(1, 32), batch)
        assert path.read_text() == json_lines(JobConfig(1, 32), batch)


class TestTraceErrors:
    @pytest.mark.parametrize("field,value", [
        ("compute_s", "NaN"), ("agg_sqnorm", "Infinity"), ("sync_s", "-Infinity"),
    ])
    def test_non_finite_value_cites_line_and_field(self, tmp_path, field, value):
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(2, 64), make_samples(2, 3))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(f'"{field}": ', f'"{field}": {value}, "was": ')
        path.write_text(lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert exc_info.value.line == 4
        assert f"{path}:4: {field} must be finite and >= 0, got " in str(exc_info.value)

    def test_integer_past_the_digit_limit_cites_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(2, 64), make_samples(2, 2))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"t": 1', '"t": ' + "9" * 5000)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError, match=":2: invalid JSON: Exceeds the limit"):
            read_trace(path)

    def test_nested_value_cites_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(2, 64), make_samples(2, 3))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"agg_sqnorm": ', f'"agg_sqnorm": {NESTED_JSON}, "was": ')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert str(exc_info.value) == f"{path}:2: invalid JSON: value is nested too deeply"

    def test_bad_worker_value_cites_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = {"t": 0, "K": 2, "B": 64, "worker_sqnorms": [1.0, "x"], "agg_sqnorm": 1.0,
               "compute_s": 0.1, "sync_s": 0.1}
        good = dict(rec, worker_sqnorms=[1.0, 2.0])
        path.write_text(json.dumps(good) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(TraceParseError,
                           match=":2: worker_sqnorms value must be a number, got str"):
            read_trace(path)

    @pytest.mark.parametrize("field", ["agg_sqnorm", "compute_s", "sync_s", "worker_sqnorms"])
    @pytest.mark.parametrize("value,kind", [("0.5", "str"), (" 2 ", "str"), (True, "bool"),
                                            (False, "bool"), (None, "NoneType"), ([1.0], "list")])
    def test_float_field_must_be_a_json_number(self, tmp_path, field, value, kind):
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(2, 64), make_samples(2, 3))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if field == "worker_sqnorms":
            records[1][field] = [1.5, value]
            field = "worker_sqnorms value"
        else:
            records[1][field] = value
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert str(exc_info.value) == f"{path}:2: {field} must be a number, got {kind}"

    def test_json_integers_are_read_as_floats(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = {"t": 0, "K": 2, "B": 64, "worker_sqnorms": [1, 2.5], "agg_sqnorm": 3,
               "compute_s": 0, "sync_s": 1}
        path.write_text(json.dumps(rec) + "\n")
        _, back = read_trace(path)
        assert back == SampleBatch([0], [[1.0, 2.5]], [3.0], [0.0], [1.0])

    def test_the_first_mistyped_row_is_cited(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = {"t": 0, "K": 2, "B": 64, "worker_sqnorms": [1, 2], "agg_sqnorm": 1,
               "compute_s": 0.1, "sync_s": 0.1}
        rows = [rec, dict(rec, t=1, sync_s="0.1"), dict(rec, t=True, agg_sqnorm=False)]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert str(exc_info.value) == f"{path}:2: sync_s must be a number, got str"

    @pytest.mark.parametrize("old,new", [('"agg_sqnorm": 1.0', '"agg_sqnorm": 1' + "0" * 400),
                                         ("2.0]", "1" + "0" * 400 + "]")])
    def test_integer_past_the_float_range_cites_line(self, tmp_path, old, new):
        path = tmp_path / "trace.jsonl"
        rec = {"t": 0, "K": 2, "B": 64, "worker_sqnorms": [1.0, 2.0], "agg_sqnorm": 1.0,
               "compute_s": 0.1, "sync_s": 0.1}
        line = json.dumps(rec)
        path.write_text(line + "\n" + line.replace(old, new) + "\n")
        with pytest.raises(TraceParseError, match=":2: int too large to convert to float"):
            read_trace(path)

    @pytest.mark.parametrize("field", ["t", "K", "B"])
    @pytest.mark.parametrize("value,kind", [(8.5, "float"), (8.0, "float"), ("8", "str"),
                                            (True, "bool"), (None, "NoneType")])
    def test_integer_field_must_be_a_json_integer(self, tmp_path, field, value, kind):
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(8, 512), make_samples(8, 3))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0][field] = value
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert str(exc_info.value) == f"{path}:1: {field} must be an integer, got {kind}"

    @pytest.mark.parametrize("line", [2, 3])
    @pytest.mark.parametrize("field", ["K", "B"])
    @pytest.mark.parametrize("value,kind", [(1.0, "float"), (True, "bool")])
    def test_later_k_or_b_equal_to_the_first_is_still_type_checked(self, tmp_path, line,
                                                                    field, value, kind):
        # 1.0 == 1 and True == 1, so the value matches the first line's K or B.
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(1, 1), make_samples(1, 3))
        records = [json.loads(text) for text in path.read_text().splitlines()]
        records[line - 1][field] = value
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert str(exc_info.value) == f"{path}:{line}: {field} must be an integer, got {kind}"

    def test_configuration_past_the_grid_cap_cites_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(8, 512), make_samples(8, 2))
        path.write_text(path.read_text().replace('"B": 512', f'"B": {10**400}'))
        with pytest.raises(TraceParseError, match=f":1: global_batch must be <= 2\\*\\*62, got 1"):
            read_trace(path)

    @pytest.mark.parametrize("t,reason", [(2**63, "must be < 2**63"), (-(2**63) - 1, "must be >= 0")])
    def test_iteration_outside_int64_names_its_bound(self, tmp_path, t, reason):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"t": t, "K": 2, "B": 64, "worker_sqnorms": [1.0, 1.0],
                                    "agg_sqnorm": 1.0, "compute_s": 0.1, "sync_s": 0.1}) + "\n")
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert str(exc_info.value) == f"{path}:1: iteration {reason}, got {t}"

    def test_mid_file_config_change_cites_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec1 = {
            "t": 0, "K": 8, "B": 512,
            "worker_sqnorms": [1.0] * 8, "agg_sqnorm": 1.0,
            "compute_s": 0.3, "sync_s": 0.1,
        }
        rec2 = dict(rec1, t=1, B=1024, worker_sqnorms=[1.0] * 8)
        path.write_text(json.dumps(rec1) + "\n" + json.dumps(rec2) + "\n")
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert exc_info.value.line == 2
        assert "changed mid-file" in str(exc_info.value)
        assert f"{path}:2:" in str(exc_info.value)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0, "K": 1\n')
        with pytest.raises(TraceParseError, match="invalid JSON"):
            read_trace(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = {"t": 0, "K": 1, "B": 32, "agg_sqnorm": 1.0, "compute_s": 0.1, "sync_s": 0.1}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(TraceParseError, match="worker_sqnorms"):
            read_trace(path)

    def test_wrong_sqnorm_count(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = {
            "t": 0, "K": 4, "B": 128,
            "worker_sqnorms": [1.0, 1.0], "agg_sqnorm": 1.0,
            "compute_s": 0.1, "sync_s": 0.1,
        }
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(TraceParseError, match="exactly 4"):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(TraceParseError) as exc_info:
            read_trace(path)
        assert exc_info.value.line == 0
        assert "no records" in str(exc_info.value)

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TraceParseError, match="must be an object"):
            read_trace(path)

    def test_indivisible_batch(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = {
            "t": 0, "K": 8, "B": 100,
            "worker_sqnorms": [1.0] * 8, "agg_sqnorm": 1.0,
            "compute_s": 0.1, "sync_s": 0.1,
        }
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(TraceParseError, match="not divisible"):
            read_trace(path)


def reference_read_trace(path):
    """``read_trace`` with one ``json.loads``, an ``isinstance`` test and a key loop per line."""
    path = Path(path)
    config = None
    first_kb = None
    linenos, rows = [], []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceParseError(str(path), lineno, f"invalid JSON: {exc}") from None
            except RecursionError:
                raise TraceParseError(str(path), lineno,
                                      "invalid JSON: value is nested too deeply") from None
            if not isinstance(record, dict):
                raise TraceParseError(str(path), lineno, "record must be an object")
            for key in traces._KEYS:
                if key not in record:
                    raise TraceParseError(str(path), lineno, f"missing field {key!r}")
            kb = (record["K"], record["B"])
            if kb != first_kb:
                try:
                    line_config = JobConfig(traces._integer("K", kb[0]),
                                            traces._integer("B", kb[1]))
                except ConfigurationError as exc:
                    raise TraceParseError(str(path), lineno, str(exc)) from None
                if config is None:
                    config, first_kb = line_config, kb
                elif line_config != config:
                    raise TraceParseError(
                        str(path), lineno,
                        f"configuration changed mid-file: expected "
                        f"K={config.workers}, B={config.global_batch}",
                    )
            norms = record["worker_sqnorms"]
            if not isinstance(norms, list) or len(norms) != config.workers:
                raise TraceParseError(
                    str(path), lineno, f"worker_sqnorms must list exactly {config.workers} values"
                )
            rows.append((*kb, record["t"], norms, record["agg_sqnorm"], record["compute_s"],
                         record["sync_s"]))
            linenos.append(lineno)
    if config is None:
        raise TraceParseError(str(path), 0, "trace file has no records")
    typed = [traces._typed_row(str(path), lineno, row) for lineno, row in zip(linenos, rows)]
    try:
        return config, SampleBatch(*list(zip(*typed))[2:])
    except InvalidSampleError as exc:
        raise TraceParseError(str(path), linenos[exc.row], f"{exc.field} {exc.reason}") from None


# Characters ``str.strip`` removes that JSON does not count as whitespace.
UNICODE_SPACES = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000"
LINE_CHANGES = ("none", "bom", "spaced_bom", "trailing_text", "second_record", "outer_space",
                "inner_space", "not_object", "missing_keys", "long_integer", "nested")


def valid_records(k, n):
    return [{"t": t, "K": k, "B": 32 * k, "worker_sqnorms": [1.0 + w for w in range(k)],
             "agg_sqnorm": 0.5, "compute_s": 0.3, "sync_s": 0.125} for t in range(n)]


@st.composite
def trace_texts(draw):
    """A valid trace whose one line has a BOM, trailing data, stripped space, a non-object
    top level, missing keys, a long integer or a value nested too deeply, or is left as it is."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    records = valid_records(k, n)
    lines = [json.dumps(record) for record in records]
    row = draw(st.integers(0, n - 1))
    lines[row] = changed_line(draw, records, lines, row, draw(st.sampled_from(LINE_CHANGES)))
    return "\n".join(lines) + "\n"


def changed_line(draw, records, lines, row, change):
    """``lines[row]``, the dump of ``records[row]``, with ``change`` made to it."""
    line = lines[row]
    space = st.text(st.sampled_from(UNICODE_SPACES + " \t"), min_size=1, max_size=3)
    if change == "bom":
        line = "\ufeff" + line
    elif change == "spaced_bom":  # strip leaves the BOM leading the line
        line = draw(space) + "\ufeff" + line
    elif change == "trailing_text":
        line += draw(st.sampled_from(["x", "}", ",", "]", " 1", "null"]))
    elif change == "second_record":
        line += draw(st.sampled_from(["", " ", "\t", "\x1c"])) + draw(st.sampled_from(lines))
    elif change == "outer_space":
        line = draw(space) + line + draw(space)
    elif change == "inner_space":
        line = line.replace(", ", "," + draw(space), 1)
    elif change == "not_object":
        line = json.dumps(draw(st.sampled_from([[1, 2], [], 5, 1.5, "s", None, True])))
    elif change == "missing_keys":
        dropped = draw(st.sets(st.sampled_from(traces._KEYS), min_size=1))
        line = json.dumps({key: v for key, v in records[row].items() if key not in dropped})
    elif change == "long_integer":  # 4300 digits is the limit
        key = draw(st.sampled_from(["t", "K", "B", "agg_sqnorm"]))
        digits = "9" * draw(st.integers(4295, 4305))
        line = json.dumps({**records[row], key: 0}).replace(f'"{key}": 0', f'"{key}": {digits}')
    elif change == "nested":
        key = draw(st.sampled_from(traces._KEYS))
        line = json.dumps({**records[row], key: 0}).replace(f'"{key}": 0',
                                                             f'"{key}": {NESTED_JSON}')
    return line


def _outcome(read, path):
    """What ``read(path)`` returns, or the class and text of what it raises."""
    try:
        return read(path)
    except Exception as exc:  # the property compares what each side raises
        return type(exc), str(exc)


class TestDecodeEquivalence:
    @given(text=trace_texts())
    def test_read_trace_matches_one_json_loads_per_line(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            path.write_text(text)
            got, want = _outcome(read_trace, path), _outcome(reference_read_trace, path)
        if isinstance(want[0], JobConfig):
            assert isinstance(got[0], JobConfig)
            assert got[0] == want[0] and got[1] == want[1]
        else:
            assert got == want
            assert want[0] is TraceParseError


FLOAT_FIELDS = ("worker_sqnorms", "agg_sqnorm", "compute_s", "sync_s")


@st.composite
def faulty_trace_texts(draw):
    """A trace of up to nine lines with one to three faults, each a line change (structural),
    a value of the wrong JSON type (type) or a value out of its column's range (value)."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    records = valid_records(k, n)
    rows = st.integers(0, n - 1)
    changes = []
    for _ in range(draw(st.integers(1, 3))):
        phase, row = draw(st.sampled_from(["structural", "type", "value"])), draw(rows)
        if phase == "structural":
            changes.append((row, draw(st.sampled_from(LINE_CHANGES[1:]))))
            continue
        # ``t`` is drawn as often as the four float columns together.
        key = draw(st.sampled_from(["t", draw(st.sampled_from(FLOAT_FIELDS))]))
        if phase == "type":
            value = 1.0 if key == "t" else draw(st.sampled_from([True, "0.5", None]))
        else:
            value = draw(st.sampled_from([2**63, 2**64 + 5, -(2**63) - 1, -1] if key == "t"
                                         else [-1.0, -5e-324, math.nan, math.inf]))
        if key == "worker_sqnorms":
            records[row]["worker_sqnorms"][draw(st.integers(0, k - 1))] = value
        else:
            records[row][key] = value
    lines = [json.dumps(record) for record in records]
    for row, change in changes:
        lines[row] = changed_line(draw, records, lines, row, change)
    return "\n".join(lines) + "\n"


class TestFaultOrderAcrossBlocks:
    """With two or three records to a block, every trace spans blocks, and a fault in a later
    block still wins over one of a later phase in an earlier block: structure, then the first
    type fault, then the first ``t`` outside int64, then the first value out of range."""

    @settings(max_examples=400)
    @given(text=faulty_trace_texts(), block_rows=st.sampled_from([2, 3]))
    def test_read_trace_matches_the_one_block_reference(self, text, block_rows):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(traces, "_BLOCK_ROWS", block_rows)
            path = Path(tmp) / "trace.jsonl"
            path.write_text(text)
            got, want = _outcome(read_trace, path), _outcome(reference_read_trace, path)
        if isinstance(want[0], JobConfig):
            assert got[0] == want[0] and got[1] == want[1]
        else:
            assert got == want
            assert want[0] is TraceParseError


def _column_bytes(batch):
    return sum(getattr(batch, name).nbytes for name in ("iteration", *FLOAT_FIELDS))


class TestReadMemory:
    @pytest.mark.parametrize("workers", [8, 64])
    def test_peak_is_at_most_three_times_the_columns(self, tmp_path, workers):
        n, rng = 4000, np.random.default_rng(workers)
        path = tmp_path / "trace.jsonl"
        write_trace(path, JobConfig(workers, 64 * workers),
                    SampleBatch(np.arange(n), rng.random((n, workers)), *rng.random((3, n))))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _, batch = read_trace(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(batch) == n
        assert peak <= 3 * _column_bytes(batch)


class TestAnchors:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "anchors.json"
        anchors = [(JobConfig(8, 384), 35.2), (JobConfig(8, 1024), 52.75)]
        write_anchors(path, anchors)
        assert read_anchors(path) == anchors

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text("{nope")
        with pytest.raises(TraceParseError, match="invalid JSON"):
            read_anchors(path)

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text('{"anchor": []}')
        with pytest.raises(TraceParseError, match="anchors"):
            read_anchors(path)

    def test_entry_missing_keys(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text('{"anchors": [{"K": 8, "B": 384}]}')
        with pytest.raises(TraceParseError, match=r"anchors\[0\]"):
            read_anchors(path)

    def test_epochs_past_the_float_range(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text('{"anchors": [{"K": 8, "B": 384, "epochs": 1' + "0" * 400 + "}]}")
        with pytest.raises(TraceParseError, match=r"anchors\[0\]: int too large"):
            read_anchors(path)

    @pytest.mark.parametrize("field", ["K", "B"])
    @pytest.mark.parametrize("value,kind", [(8.5, "float"), ("8", "str"), (True, "bool")])
    def test_integer_field_must_be_a_json_integer(self, tmp_path, field, value, kind):
        path = tmp_path / "anchors.json"
        entry = {"K": 8, "B": 384, "epochs": 35.0, field: value}
        path.write_text(json.dumps({"anchors": [entry]}))
        with pytest.raises(TraceParseError) as exc_info:
            read_anchors(path)
        assert str(exc_info.value) == (
            f"{path}:0: anchors[0]: {field} must be an integer, got {kind}"
        )

    @pytest.mark.parametrize("value,kind", [("35.2", "str"), (True, "bool"), (None, "NoneType")])
    def test_epochs_must_be_a_json_number(self, tmp_path, value, kind):
        path = tmp_path / "anchors.json"
        path.write_text(json.dumps({"anchors": [{"K": 8, "B": 384, "epochs": value}]}))
        with pytest.raises(TraceParseError) as exc_info:
            read_anchors(path)
        assert str(exc_info.value) == f"{path}:0: anchors[0]: epochs must be a number, got {kind}"

    def test_integer_epochs_are_read_as_floats(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text('{"anchors": [{"K": 8, "B": 384, "epochs": 35}]}')
        [(_, epochs)] = read_anchors(path)
        assert epochs == 35.0 and type(epochs) is float

    def test_nonpositive_epochs(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text('{"anchors": [{"K": 8, "B": 384, "epochs": 0}]}')
        with pytest.raises(TraceParseError, match="epochs must be > 0"):
            read_anchors(path)
