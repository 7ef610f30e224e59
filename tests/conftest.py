"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stitlab.geometry import ConvexPolygon


@pytest.fixture
def unit_square() -> ConvexPolygon:
    return ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


@pytest.fixture
def right_triangle() -> ConvexPolygon:
    return ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def random_convex_polygon(rng: np.random.Generator, max_vertices: int = 8) -> ConvexPolygon:
    """Random convex polygon: jittered angles on a random ellipse, random center."""
    n = int(rng.integers(3, max_vertices + 1))
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
    if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 0.15:
        return random_convex_polygon(rng, max_vertices)
    a, b = rng.uniform(0.4, 2.5, size=2)
    cx, cy = rng.uniform(-2.0, 2.0, size=2)
    verts = tuple((cx + a * math.cos(t), cy + b * math.sin(t)) for t in angles)
    return ConvexPolygon(verts)


def vertical_line_at(x: float):
    """Line {x = const}: direction pi/2, offset -x (normal (-1, 0))."""
    from stitlab.geometry import Line

    return Line(math.pi / 2.0, -x)


def horizontal_line_at(y: float):
    from stitlab.geometry import Line

    return Line(0.0, y)


def scalar_mecke(window, measure, rng, *, rate=None, max_time=None, max_jumps=None, max_decisions=None):
    """The Mecke process one decision at a time, kept as the oracle of the
    block engine in `processes`: each decision is a `mecke_discrete_step`
    (a uniform slot, then a window line).  With `rate`, decision n comes after
    an Exp(n * rate) wait, drawn before it, and the events carry the times."""
    from stitlab.processes import initial_quasi_state, mecke_discrete_step

    time_cap = math.inf if max_time is None else max_time
    jump_cap = math.inf if max_jumps is None else max_jumps
    slot_cap = math.inf if max_decisions is None else max_decisions
    state, t, events = initial_quasi_state(window), 0.0, []
    while state.jump_count < jump_cap and state.decision_count < slot_cap:
        if rate is not None:
            t += rng.exponential(1.0 / (rate * (state.decision_count + 1)))
            if t > time_cap:
                break
        state, event = mecke_discrete_step(state, measure, window, rng)
        events.append(event if rate is None else event._replace(time=t))
    return events
