"""The wave replay against a per-event scalar replay (the oracle): the same
chords, final cells and weight sequences, bit for bit."""

import math

import numpy as np
import pytest

from stitlab import processes
from stitlab.errors import DegenerateSplit
from stitlab.geometry import ConvexPolygon, Line, split
from stitlab.line_measure import DirectionMixture, IsotropicMeasure, hitting_measure
from stitlab.processes import (
    LSequence,
    ModelTag,
    ProcessTrace,
    TraceEvent,
    cowan_el_simulate,
    final_state,
    l_sequence,
    mecke_continuous_simulate,
    mecke_discrete_simulate,
    replay,
    stit_simulate,
)
from stitlab.render import chord_segments

from conftest import horizontal_line_at, vertical_line_at

ISO = IsotropicMeasure(1.0)
DIRS = DirectionMixture(((0.0, 1.0), (math.pi / 3, 0.5), (2.0, 0.8)))
UNIT_SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def _scalar_replay(trace):
    """Yield (event, split target, its `SplitResult` or None for an empty
    slot, slots after the event): one `geometry.split` per event on a list of
    slots, the far part kept in place and the origin part appended."""
    slots = [trace.window]
    for event in trace.events:
        target = slots[event.cell_index]
        parts = None if target is None else split(target, event.line)
        slots[event.cell_index] = None if parts is None else parts.negative_part
        slots.append(None if parts is None else parts.positive_part)
        yield event, target, parts, slots


def _cut(parts) -> bool:
    return parts is not None and parts.chord_ends is not None


def _oracle(trace, at=None):
    """Chords (of jumps up to `at`), final slots and running-total weights."""
    chords, slots = [], [trace.window]
    rate = total = hitting_measure(trace.measure, trace.window)
    values = [1.0]
    for event, target, parts, slots in _scalar_replay(trace):
        if at is not None and event.time > at:
            break
        if _cut(parts):
            if event.jump:
                chords.append(parts.chord_ends)
            total += (
                hitting_measure(trace.measure, parts.negative_part)
                + hitting_measure(trace.measure, parts.positive_part)
                - hitting_measure(trace.measure, target)
            )
            values.append(total / rate)
    return np.array(chords, dtype=float).reshape(-1, 2, 2), tuple(slots), values, rate


def _assert_matches_oracle(trace):
    chords, slots, values, rate = _oracle(trace)
    got = chord_segments(trace)
    assert got.shape == chords.shape and np.array_equal(got, chords)
    assert final_state(trace).quasi_cells == slots  # vertices and measures, bit for bit
    assert l_sequence(trace).values == LSequence(tuple(values), rate).values


def _simulated(model, window, measure, seed):
    rng = np.random.default_rng(seed)
    if model == "stit":
        return stit_simulate(window, measure, rng, max_jumps=40)
    if model == "cowan-el":
        return cowan_el_simulate(window, measure, rng, max_jumps=40)
    if model == "mecke-discrete":
        return mecke_discrete_simulate(window, measure, rng, max_decisions=80)
    rate = hitting_measure(measure, window)
    return mecke_continuous_simulate(window, measure, rng, max_time=math.log1p(80) / rate)


@pytest.mark.parametrize("measure", [ISO, DIRS], ids=["iso", "dirs"])
@pytest.mark.parametrize("window", [UNIT_SQUARE, TRIANGLE], ids=["square", "triangle"])
@pytest.mark.parametrize("model", ["stit", "cowan-el", "mecke-discrete", "mecke-continuous"])
def test_simulated_traces_match_the_scalar_replay(model, window, measure):
    for seed in range(20):
        _assert_matches_oracle(_simulated(model, window, measure, seed))


def _hand_made(times, tag):
    """Cuts, lines at +-inf, empty slots, and misses on both sides of the origin."""
    diagonal = Line(3 * math.pi / 4, -0.2 / math.sqrt(2))  # x + y = 0.2
    rows = (
        (0, vertical_line_at(0.5), True),  # slot 0 keeps x > 0.5, slot 1 takes x < 0.5
        (1, Line(0.0, math.inf), False),  # misses: x < 0.5 moves to slot 2, slot 1 empties
        (1, horizontal_line_at(0.5), False),  # an empty slot
        (0, Line(1.0, -math.inf), False),  # misses: x > 0.5 moves to slot 4
        (2, horizontal_line_at(0.3), True),
        (4, vertical_line_at(0.25), False),  # the line between the cell and the origin: it stays
        (4, vertical_line_at(0.75), True),
        (6, vertical_line_at(0.1), False),  # empty, left so by the miss on the far side
        (5, diagonal, True),
        (7, horizontal_line_at(0.9), True),
    )
    events = tuple(TraceEvent(t, *row) for t, row in zip(times, rows))
    return ProcessTrace(UNIT_SQUARE, ISO, events, tag)


HAND_MADE = {
    "discrete": _hand_made(range(1, 11), ModelTag.MECKE_DISCRETE),
    "continuous": _hand_made((0.1, 0.2, 0.2, 0.35, 0.4, 0.55, 0.6, 0.6, 0.8, 1.2), ModelTag.STIT),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made_traces_match_the_scalar_replay(name):
    trace = HAND_MADE[name]
    _assert_matches_oracle(trace)
    whole = [parts is not None and not _cut(parts) for _, _, parts, _ in _scalar_replay(trace)]
    assert sum(whole) == 3  # three events leave their cell whole
    assert sum(c is None for c in final_state(trace).quasi_cells) == 5
    times = sorted({e.time for e in trace.events})
    for at in (-1.0, *times, *(t + 0.05 for t in times)):
        want = _oracle(trace, at)[0]
        got = chord_segments(trace, at)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_infinite_offsets_leave_the_window_whole():
    trace = ProcessTrace(UNIT_SQUARE, ISO, (
        TraceEvent(0.5, 0, Line(1.0, math.inf), True),
        TraceEvent(0.75, 1, Line(2.0, -math.inf), True),
    ), ModelTag.STIT, seed=3)
    _assert_matches_oracle(trace)
    assert final_state(trace).quasi_cells == (None, None, UNIT_SQUARE)


def test_waves_cut_independent_cells_together():
    trace = stit_simulate(UNIT_SQUARE, ISO, np.random.default_rng(5), max_jumps=2000)
    waves = [wave for wave, *_ in replay(trace)]
    assert sorted(np.concatenate(waves).tolist()) == list(range(2000))
    assert len(waves) < 60  # the depth of the nesting, not the event count
    for wave in waves:
        cells = [trace.events[i].cell_index for i in wave]
        assert len(set(cells)) == len(cells)


def test_mecke_waves_hold_only_cell_events_one_wave_per_depth():
    trace = mecke_discrete_simulate(UNIT_SQUARE, ISO, np.random.default_rng(5), max_decisions=8000)
    on_cells = [i for i, (_, target, _, _) in enumerate(_scalar_replay(trace)) if target is not None]
    waves = [wave for wave, *_ in replay(trace)]
    assert sorted(np.concatenate(waves).tolist()) == on_cells  # each event on a cell, once
    depth, _ = processes._depths([e.cell_index for e in trace.events])
    assert len(waves) <= len(set(depth[on_cells].tolist()))
    assert len(on_cells) < 8000  # some events fall on empty slots


def test_degenerate_event_raises():
    sliver = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.5, 3e-9)))
    trace = ProcessTrace(sliver, ISO, (TraceEvent(0.1, 0, Line(math.pi / 2, -0.5), True),), ModelTag.STIT)
    with pytest.raises(DegenerateSplit):
        split(sliver, trace.events[0].line)
    with pytest.raises(DegenerateSplit, match="event 0"):
        final_state(trace)
