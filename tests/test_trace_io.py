"""Trace codec: byte identity with json.dumps, the round trip, and the line a
malformed record is reported at."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stitlab.errors import ConfigError
from stitlab.geometry import ConvexPolygon, Line
from stitlab.line_measure import DirectionMixture, IsotropicMeasure
from stitlab.processes import (
    ModelTag,
    ProcessTrace,
    TraceEvent,
    cowan_el_simulate,
    mecke_continuous_simulate,
    mecke_discrete_simulate,
    stit_simulate,
)
from stitlab.trace_io import read_trace, trace_to_lines, write_trace

UNIT_SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
ISO = IsotropicMeasure(1.0)
DIRS = DirectionMixture(((0.0, 1.0), (1.0471975511965976, 2.0), (2.0943951023931953, 1.0)))


def reference_event_line(event: TraceEvent, discrete: bool) -> str:
    """An event line as the codec wrote it before it formatted records
    directly: json.dumps of one dict per event."""
    record: dict = {}
    if discrete:
        record["n"] = int(event.time)
    else:
        record["t"] = float(event.time)
    record["cell"] = event.cell_index
    record["line"] = {"theta": event.line.theta, "p": event.line.offset}
    record["jump"] = event.jump
    return json.dumps(record)


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
     math.nan, math.inf, -math.inf, math.pi, 0.1]
)
ANY_FLOAT = st.one_of(st.floats(), SPECIAL_FLOATS)
FINITE_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    SPECIAL_FLOATS.filter(math.isfinite),
)


@st.composite
def events(draw, discrete: bool) -> TraceEvent:
    if discrete:
        time = draw(st.one_of(st.integers(1, 10**6), st.integers(10**30, 10**40)))
    else:
        time = draw(ANY_FLOAT)
    line = Line(draw(FINITE_FLOAT), draw(ANY_FLOAT))  # a Line refuses a non-finite theta
    return TraceEvent(time, draw(st.integers(0, 10**9)), line, draw(st.booleans()))


@st.composite
def traces_of_events(draw) -> ProcessTrace:
    tag = draw(st.sampled_from(list(ModelTag)))
    evs = draw(st.lists(events(tag is ModelTag.MECKE_DISCRETE), max_size=6))
    return ProcessTrace(UNIT_SQUARE, ISO, tuple(evs), tag, seed=draw(st.integers(0, 10)))


class TestCodec:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(traces_of_events())
    @example(ProcessTrace(UNIT_SQUARE, ISO, (
        TraceEvent(-0.0, 0, Line(-0.0, -0.0), True),
        TraceEvent(5e-324, 1, Line(5e-324, 1e300), False),
        TraceEvent(math.nan, 2, Line(1.0, math.inf), True),
        TraceEvent(math.inf, 3, Line(3.0, -math.inf), False),
        TraceEvent(np.float64(0.125), 4, Line(np.float64(0.5), np.float64(-0.0)), True),
    ), ModelTag.STIT, seed=0))
    @example(ProcessTrace(TRIANGLE, DIRS, (
        TraceEvent(1, 0, Line(0.0, 0.25), True),
        TraceEvent(10**35, 7, Line(2.0, math.nan), False),
    ), ModelTag.MECKE_DISCRETE, seed=None))
    def test_event_lines_equal_json_dumps_of_the_record_dict(self, trace):
        discrete = trace.model_tag is ModelTag.MECKE_DISCRETE
        lines = trace_to_lines(trace)
        assert lines[1:] == [reference_event_line(e, discrete) for e in trace.events]

    def test_non_finite_values_read_back(self, tmp_path):
        trace = ProcessTrace(UNIT_SQUARE, ISO, (
            TraceEvent(0.5, 0, Line(1.0, math.inf), True),
            TraceEvent(0.75, 1, Line(2.0, -math.inf), True),
        ), ModelTag.STIT, seed=3)
        write_trace(trace, tmp_path / "t.jsonl")
        assert "Infinity" in (tmp_path / "t.jsonl").read_text()
        assert read_trace(tmp_path / "t.jsonl") == trace


def _simulated(model: str, window: ConvexPolygon, measure, seed: int, size: int) -> ProcessTrace:
    rng = np.random.default_rng(seed)
    if model == "stit":
        return stit_simulate(window, measure, rng, max_jumps=size, seed=seed)
    if model == "cowan-el":
        return cowan_el_simulate(window, measure, rng, max_jumps=size, seed=seed)
    if model == "mecke-discrete":
        return mecke_discrete_simulate(window, measure, rng, max_decisions=size, seed=seed)
    return mecke_continuous_simulate(window, measure, rng, max_time=0.05 * size, seed=seed)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["stit", "cowan-el", "mecke-discrete", "mecke-continuous"]),
        st.sampled_from([UNIT_SQUARE, TRIANGLE]),
        st.sampled_from([ISO, DIRS]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 20),
    )
    def test_read_of_write_is_the_trace(self, model, window, measure, seed, size):
        trace = _simulated(model, window, measure, seed, size)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            write_trace(trace, path)
            back = read_trace(path)
        assert back == trace
        assert trace_to_lines(back) == trace_to_lines(trace)


class TestMalformedRecords:
    @pytest.fixture
    def lines(self, tmp_path) -> list[str]:
        """A 5-jump STIT trace: a header line and five event lines."""
        trace = stit_simulate(UNIT_SQUARE, ISO, np.random.default_rng(1), max_jumps=5, seed=1)
        write_trace(trace, tmp_path / "ok.jsonl")
        return (tmp_path / "ok.jsonl").read_text().splitlines()

    def _read(self, tmp_path, lines: list[str]):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return read_trace(path)

    def test_truncated_middle_line_is_named(self, tmp_path, lines):
        lines[3] = lines[3][: len(lines[3]) // 2]
        with pytest.raises(ConfigError, match=r"bad\.jsonl, line 4: ") as info:
            self._read(tmp_path, lines)
        assert "line 1 column" not in str(info.value)

    def test_record_without_cell_is_named(self, tmp_path, lines):
        rec = json.loads(lines[2])
        del rec["cell"]
        lines[2] = json.dumps(rec)
        with pytest.raises(ConfigError, match=r"line 3: missing key 'cell'"):
            self._read(tmp_path, lines)

    def test_blank_lines_count_toward_the_line_number(self, tmp_path, lines):
        lines[5] = "[]"
        lines[1:1] = ["", "  "]
        with pytest.raises(ConfigError, match=r"line 8: "):
            self._read(tmp_path, lines)

    def test_bad_header_is_line_one(self, tmp_path, lines):
        lines[0] = lines[0].replace('"model_tag"', '"tag"')
        with pytest.raises(ConfigError, match=r"line 1: missing key 'model_tag'"):
            self._read(tmp_path, lines)

    @pytest.mark.parametrize("cell", [3, 7, -1])
    def test_cell_outside_the_slots_is_named(self, tmp_path, lines, cell):
        # before the third event there are three slots, 0..2
        rec = json.loads(lines[3])
        rec["cell"] = cell
        lines[3] = json.dumps(rec)
        with pytest.raises(ConfigError, match=rf"line 4: cell {cell} outside the slots 0\.\.2"):
            self._read(tmp_path, lines)

    @pytest.mark.parametrize("key", ["p", "theta"])
    def test_nan_line_value_is_named(self, tmp_path, lines, key):
        rec = json.loads(lines[2])
        rec["line"][key] = math.nan
        lines[2] = json.dumps(rec)
        with pytest.raises(ConfigError, match=r"line 3: line value is NaN"):
            self._read(tmp_path, lines)

    @pytest.mark.parametrize(
        "times, bad, problem",
        [
            ((0.27, 5.0, -1.0, 0.49, 0.6), 4, "is negative"),
            ((0.27, 5.0, 1.0, 5.5, 6.0), 4, "comes before the previous event's t = 5.0"),
            ((0.27, math.nan, 1.0, 5.5, 6.0), 3, "is NaN"),
        ],
    )
    def test_unordered_times_are_named(self, tmp_path, lines, times, bad, problem):
        for i, t in enumerate(times, start=1):
            rec = json.loads(lines[i])
            rec["t"] = t
            lines[i] = json.dumps(rec)
        with pytest.raises(ConfigError, match=rf"line {bad}: time t.* {problem}"):
            self._read(tmp_path, lines)

    def test_equal_times_and_infinite_offsets_read(self, tmp_path, lines):
        for i in (1, 2):
            rec = json.loads(lines[i])
            rec["t"], rec["line"]["p"] = 0.0, math.inf
            lines[i] = json.dumps(rec)
        assert self._read(tmp_path, lines).events[1].line.offset == math.inf

    @pytest.mark.parametrize("n, bad", [((0, 1, 2), 2), ((1, 3, 3), 4), ((2, 1, 3), 3)])
    def test_decision_indices_rise_strictly_from_one(self, tmp_path, n, bad):
        trace = mecke_discrete_simulate(UNIT_SQUARE, ISO, np.random.default_rng(2), max_decisions=3)
        write_trace(trace, tmp_path / "ok.jsonl")
        lines = (tmp_path / "ok.jsonl").read_text().splitlines()
        for i, value in enumerate(n, start=1):
            rec = json.loads(lines[i])
            rec["n"] = value
            lines[i] = json.dumps(rec)
        with pytest.raises(ConfigError, match=rf"line {bad}: decision index n = "):
            self._read(tmp_path, lines)

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("jump", "false", 'jump = "false" is not true or false'),
            ("jump", 0, "jump = 0 is not true or false"),
            ("jump", None, "jump = null is not true or false"),
            ("cell", 0.9, "cell = 0.9 is not an integer"),
            ("cell", 1.0, "cell = 1.0 is not an integer"),
            ("cell", "1", 'cell = "1" is not an integer'),
            ("cell", True, "cell = true is not an integer"),
            ("t", "0.5", 't = "0.5" is not a number'),
            ("t", True, "t = true is not a number"),
            ("theta", "1.0", 'theta = "1.0" is not a number'),
            ("p", None, "p = null is not a number"),
        ],
    )
    def test_field_of_the_wrong_type_is_named(self, tmp_path, lines, key, value, problem):
        rec = json.loads(lines[2])
        (rec["line"] if key in ("theta", "p") else rec)[key] = value
        lines[2] = json.dumps(rec)
        with pytest.raises(ConfigError, match=rf"line 3: {re.escape(problem)}"):
            self._read(tmp_path, lines)

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", False])
    def test_decision_index_must_be_an_integer(self, tmp_path, value):
        trace = mecke_discrete_simulate(UNIT_SQUARE, ISO, np.random.default_rng(2), max_decisions=3)
        write_trace(trace, tmp_path / "ok.jsonl")
        lines = (tmp_path / "ok.jsonl").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["n"] = value
        lines[2] = json.dumps(rec)
        with pytest.raises(ConfigError, match=rf"line 3: n = {re.escape(json.dumps(value))} is not an integer"):
            self._read(tmp_path, lines)

    def test_infinite_theta_is_a_config_error(self, tmp_path, lines):
        rec = json.loads(lines[2])
        rec["line"]["theta"] = math.inf
        lines[2] = json.dumps(rec)
        with pytest.raises(ConfigError, match=r"line 3: "):
            self._read(tmp_path, lines)
