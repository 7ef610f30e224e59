"""JSON Lines persistence for process traces and JSON output for reports.

Trace layout: one header record
    {"window": {"vertices": [[x, y], ...]}, "measure": {...},
     "model_tag": "STIT", "seed": 7}
followed by one record per event
    {"t": 0.12, "cell": 0, "line": {"theta": .., "p": ..}, "jump": true}
where discrete-model events carry an integer decision index "n" instead of
the real time "t".
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator, Sequence

from .errors import ConfigError, GeometryError
from .geometry import ConvexPolygon, Line
from .line_measure import measure_from_json, measure_to_json
from .processes import ModelTag, ProcessTrace, TraceEvent
from .stats import VerificationReport


def polygon_to_json(poly: ConvexPolygon) -> dict:
    return {"vertices": [[x, y] for x, y in poly.vertices]}


def polygon_from_json(obj: dict) -> ConvexPolygon:
    return ConvexPolygon(tuple((float(x), float(y)) for x, y in obj["vertices"]))


def _event_lines(events: Sequence[TraceEvent], discrete: bool) -> Iterator[str]:
    """One JSON line per event, formatted straight from the record.  `%r` of
    an int or of a finite float is the text json.dumps writes; an event with
    a non-finite float has its numbers written by json.dumps, as NaN,
    Infinity or -Infinity."""
    key, number = ("n", int) if discrete else ("t", float)
    fast = '{"' + key + '": %r, "cell": %d, "line": {"theta": %r, "p": %r}, "jump": %s}'
    exact = fast.replace("%r", "%s")
    dumps, isfinite = json.dumps, math.isfinite
    for time, cell, (theta, p), jump in events:
        time = number(time)
        flag = "true" if jump else "false"
        if isfinite(theta + p) and (discrete or isfinite(time)):
            yield fast % (time, cell, theta, p, flag)
        else:
            yield exact % (dumps(time), cell, dumps(theta), dumps(p), flag)


def trace_to_lines(trace: ProcessTrace) -> list[str]:
    header = {
        "window": polygon_to_json(trace.window),
        "measure": measure_to_json(trace.measure),
        "model_tag": trace.model_tag.value,
        "seed": trace.seed,
    }
    lines = [json.dumps(header)]
    lines.extend(_event_lines(trace.events, trace.model_tag is ModelTag.MECKE_DISCRETE))
    return lines


def write_trace(trace: ProcessTrace, path: str | Path) -> None:
    Path(path).write_text("\n".join(trace_to_lines(trace)) + "\n", encoding="utf-8")


def _problem(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):  # its own text counts lines of one record
        return f"{exc.msg} at column {exc.colno}"
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    return str(exc)


def _out_of_order(key: str, time: float | int, last: float | int) -> str:
    if key == "n":
        return f"decision index n = {time!r} does not follow {last!r} (indices rise strictly from 1)"
    if time != time:
        return "time t is NaN"
    if time < 0.0:
        return f"time t = {time!r} is negative"
    return f"time t = {time!r} comes before the previous event's t = {last!r}"


_NUMBER = (int, float)  # JSON numbers; a bool is neither
_FIELD_TYPES = {
    "cell": ((int,), "an integer"), "n": ((int,), "an integer"), "t": (_NUMBER, "a number"),
    "theta": (_NUMBER, "a number"), "p": (_NUMBER, "a number"), "jump": ((bool,), "true or false"),
}


def _wrong_type(fields: dict) -> str:
    """The first of `fields` (name: value) whose JSON type is not its own."""
    for key, value in fields.items():
        types, what = _FIELD_TYPES[key]
        if type(value) not in types:
            return f"{key} = {json.dumps(value)} is not {what}"
    return ""


def read_trace(path: str | Path) -> ProcessTrace:
    """The trace in `path`; blank lines are skipped, and ConfigError names the
    1-based line of a record it cannot read.  A cell and a decision index n
    are JSON integers, a time t and the line's theta and p numbers, and
    "jump" is true or false.  Event times must be ordered: continuous times
    t >= 0 and nondecreasing, decision indices n rising strictly from 1; no
    time or line value may be NaN (a line at +-inf is read)."""
    text = Path(path).read_text(encoding="utf-8")
    records = ((n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip())
    lineno, first = next(records, (0, None))
    if first is None:
        raise ConfigError(f"trace file {path} is empty")
    decode = json.JSONDecoder().decode  # json.loads without its per-call checks
    try:
        header = decode(first)
        window = polygon_from_json(header["window"])
        measure = measure_from_json(header["measure"])
        tag = ModelTag(header["model_tag"])
        seed = header.get("seed")
        discrete = tag is ModelTag.MECKE_DISCRETE
        time_key, number = ("n", int) if discrete else ("t", float)
        time_types = _FIELD_TYPES[time_key][0]
        events = []
        record = events.append
        last = 0
        for lineno, ln in records:
            rec = decode(ln)
            line = rec["line"]
            cell, time, theta, p, jump = rec["cell"], rec[time_key], line["theta"], line["p"], rec["jump"]
            if not (
                type(cell) is int and type(time) in time_types and type(theta) in _NUMBER
                and type(p) in _NUMBER and type(jump) is bool
            ):
                fields = {"cell": cell, time_key: time, "theta": theta, "p": p, "jump": jump}
                raise ValueError(_wrong_type(fields))
            if not 0 <= cell <= len(events):  # event i splits one of the i + 1 slots
                raise ValueError(f"cell {cell} outside the slots 0..{len(events)}")
            time = number(time)
            if not (time > last if discrete else time >= last):
                raise ValueError(_out_of_order(time_key, time, last))
            theta, p = float(theta), float(p)
            if theta != theta or p != p:
                raise ValueError(f"line value is NaN (theta {theta!r}, p {p!r})")
            record(TraceEvent(time, cell, Line(theta, p), jump))
            last = time
    except (KeyError, ValueError, TypeError, OverflowError, GeometryError) as exc:
        raise ConfigError(f"malformed trace file {path}, line {lineno}: {_problem(exc)}") from exc
    return ProcessTrace(window, measure, tuple(events), tag, seed)


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def write_reports(reports: Sequence[VerificationReport], path: str | Path) -> None:
    Path(path).write_text(reports_to_json(reports) + "\n", encoding="utf-8")
