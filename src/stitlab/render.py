"""SVG rendering of a tessellation trace.

The picture is exactly the union of internal cell boundaries: the window
outline plus, for every jump event, the splitting chord clipped to the cell
it divided.  Output is deterministic (fixed coordinate formatting) so
renders can be diffed in CI.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from operator import attrgetter

import numpy as np

from .batch import CUT
from .errors import DomainError
from .processes import ProcessTrace, replay

_MARGIN_FRACTION = 0.05


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def chord_segments(trace: ProcessTrace, at: float | None = None) -> np.ndarray:
    """(chords, 2, 2): the chord endpoints of every jump event with
    time/index <= `at`, in event order, as the replayed split found them.
    Event times are nondecreasing, so the events up to `at` are a prefix.  A
    non-finite `at` raises DomainError; a negative one gives no chord."""
    if at is not None:
        if not math.isfinite(at):
            raise DomainError(f"at must be finite, got {at!r}")
        stop = bisect.bisect_right(trace.events, at, key=attrgetter("time"))
        trace = dataclasses.replace(trace, events=trace.events[:stop])
    n = len(trace.events)
    ends = np.empty((n, 2, 2))
    drawn = np.zeros(n, dtype=bool)
    for wave, _, res, _ in replay(trace):
        cut = wave[res.status == CUT]
        ends[cut], drawn[cut] = res.ends, True
    drawn &= np.fromiter((e.jump for e in trace.events), dtype=bool, count=n)
    return ends[drawn]


def render_svg(trace: ProcessTrace, at: float | None = None) -> str:
    """Render the tessellation state (optionally at an intermediate time)."""
    window = trace.window
    xs = [v[0] for v in window.vertices]
    ys = [v[1] for v in window.vertices]
    margin = _MARGIN_FRACTION * window.diameter
    x0, y0 = min(xs) - margin, min(ys) - margin
    w = max(xs) - min(xs) + 2 * margin
    h = max(ys) - min(ys) + 2 * margin
    stroke = window.diameter / 300.0

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} '
        f'{_fmt(w)} {_fmt(h)}">',
        # flip the y axis so CCW geometry renders in the usual orientation
        f'<g transform="translate(0 {_fmt(2 * y0 + h)}) scale(1 -1)" fill="none" '
        f'stroke="black" stroke-width="{_fmt(stroke)}" stroke-linecap="round">',
    ]
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in window.vertices)
    lines.append(f'<polygon points="{points}"/>')
    lines.extend(
        '<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"/>' % tuple(chord)  # as _fmt
        for chord in chord_segments(trace, at).reshape(-1, 4).tolist()
    )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
