"""Batched geometry: a struct-of-arrays cell store, the split kernel that
the STIT and Cowan simulators, `processes.replay` and the lockstep Mecke
stepper share, and the event clocks (`Clock`).

A batch of convex polygons is a `Polys`: padded vertices of shape
(cells, vmax, 2) with a vertex count per cell, where a cell with fewer than
vmax vertices repeats its last vertex in the padding.  A repeated vertex
adds a zero-length edge and a zero shoelace term and never changes a
projection, so support intervals, diameters, perimeters, areas and the
half-plane split need no mask.  Every operation runs over the whole batch
and applies the scalar rules of `geometry.split` and
`line_measure.sample_hitting_line`, which stay the oracle: the same
EPS_GEOM * diameter tolerances, the same ring order, the same dedupe,
sliver and degeneracy tests.  A row's split status, part vertices and chord
endpoints are those of `split`, bit for bit.  Its measures are not:
`_ring_measures` takes the square root of summed squares where the scalar
code calls `math.hypot` and `math.dist`, so a perimeter or diameter can
differ from the scalar one in its last bit and an area by a few ulps.  Nor
are a part's area and perimeter the row's own: `np.add.reduce` adds a row of
up to 7 columns in order and a wider one pairwise, so they can move in their
last bits with the widest part of the same `split_cells` call (and the
status with them, where an area lies within ulps of its tolerance).  STIT's
clock rate is the perimeter, so a cell's death time can depend on the cells
cut with it.  Part vertices, diameters and chord ends do not depend on the
batch.  `split_cells` builds both sides of all cuts in one stack, the far
sides and then the origin sides, gathered through flat indices from one
array of candidate points.

The unconditional equivalence check counts the cells of its replicas in
blocks of at most BLOCK, so its memory is bounded by the block, not by the
replica count.  A block of either side returns its cut log, the time and
the replica of each cut, and `cell_count_histograms` counts and bins both.
STIT's side is its one engine, the per-cell clocks
(`processes.stit_cell_counts`).  The Mecke side is `mecke_cell_counts`: the
stepper of `processes.mecke_discrete_step` under a `Clock` of the number n
of quasi-cells, in lockstep, one event per live replica per step.  Empty
slots are not stored: a wait draws at once the run of decisions that pick
an empty slot before the next cell pick (`skip`) and the clock's time over
them (`Clock.span`), and the event cuts a cell picked uniformly by one
window line.  Window lines are drawn from read-only rows of one cached
batch (`window_rows`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, SamplerStall
from .geometry import EPS_GEOM, ConvexPolygon, _dedupe_ring
from .line_measure import MAX_REJECTION_ITERATIONS, IsotropicMeasure, LineMeasureSpec

BLOCK = 2048  # replicas run together
# the rows of a cached window batch (`window_rows`): no fewer than BLOCK, nor
# than the largest decision block of `processes._mecke_run`
WINDOW_ROWS = 4096

_AHEAD_BACK = np.array([1.0, -1.0])[:, None, None]  # positions along a line, and back along it

# the outcome of a split, per row: both parts present, the cell left whole on
# the origin side or on the far side, or DegenerateSplit
CUT, WHOLE_ORIGIN, WHOLE_FAR, DEGENERATE = range(4)


class Clock(NamedTuple):
    """The event rate with n slots: rate * n (the equally-likely clock, with
    rate W(window)) or, not `per_slot`, a constant rate; n may be an array."""

    rate: float
    per_slot: bool = True

    def __call__(self, n):
        return self.rate * n if self.per_slot else self.rate

    def span(self, n: np.ndarray, w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Per row, the sum of w waits Exp(clock(n + j)), j < w: for rate * n,
        -log(B) / rate with B ~ Beta(n, w), drawn as log1p(Y / X) / rate with
        Y ~ Gamma(w) and X ~ Gamma(n); for a constant rate, Y / rate."""
        y = rng.standard_gamma(w)
        return (np.log1p(y / rng.standard_gamma(n)) if self.per_slot else y) / self.rate


def check_rate(rate: float | np.ndarray) -> None:
    """DomainError unless every clock rate in `rate`, a number or an array, is finite and positive."""
    if not np.logical_and(rate > 0.0, rate < math.inf).all():  # NaN fails too
        raise DomainError(f"clock rate must be finite and positive, got {float(np.min(rate))!r}")


@dataclass(frozen=True)
class Polys:
    """A batch of convex polygons as arrays, one row per polygon."""

    verts: np.ndarray  # (m, vmax, 2), padded by repeating the last vertex
    nv: np.ndarray  # (m,) vertex counts
    area: np.ndarray
    perimeter: np.ndarray
    diameter: np.ndarray

    @staticmethod
    def of(polygons: Sequence[ConvexPolygon]) -> Polys:
        vmax = max(len(p.vertices) for p in polygons)
        verts = np.array([p.vertices + p.vertices[-1:] * (vmax - len(p.vertices)) for p in polygons])
        return Polys(
            verts,
            np.array([len(p.vertices) for p in polygons]),
            np.array([p.area for p in polygons]),
            np.array([p.perimeter for p in polygons]),
            np.array([p.diameter for p in polygons]),
        )

    def __len__(self) -> int:
        return len(self.nv)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return self.verts, self.nv, self.area, self.perimeter, self.diameter

    def take(self, rows: np.ndarray) -> Polys:
        return Polys(*(a[rows] for a in self.arrays()))

    def widened(self, width: int) -> Polys:
        """The same polygons in `width` vertex columns (more than now)."""
        pad = np.repeat(self.verts[:, -1:], width - self.verts.shape[1], axis=1)
        verts = np.concatenate([self.verts, pad], axis=1)
        return Polys(verts, *self.arrays()[1:])

    @staticmethod
    def stack(batches: Sequence[Polys]) -> Polys:
        """The rows of `batches`, one after another, in the widest one's columns
        (a lone batch as it is)."""
        if len(batches) == 1:
            return batches[0]
        width = max(b.verts.shape[1] for b in batches)
        wide = (b if b.verts.shape[1] == width else b.widened(width) for b in batches)
        return Polys(*map(np.concatenate, zip(*(b.arrays() for b in wide))))


@functools.lru_cache(maxsize=8)
def _window_batch(window: ConvexPolygon) -> Polys:
    rows = Polys.of([window]).take(np.zeros(WINDOW_ROWS, dtype=np.int64))
    for a in rows.arrays():
        a.flags.writeable = False
    return rows


def window_rows(window: ConvexPolygon, size: int) -> Polys:
    """`size` rows of `window`, read-only views of one cached batch of
    WINDOW_ROWS rows; a larger `size` raises ValueError."""
    if size > WINDOW_ROWS:
        raise ValueError(f"{size} window rows asked for, {WINDOW_ROWS} cached")
    return _window_batch(window).take(slice(size))


@functools.cache
def _ring_pairs(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The column pairs i < j of rings of `width` columns."""
    return np.triu_indices(width, 1)


def _next(a: np.ndarray) -> np.ndarray:
    """Per row of rings, each column's next one: columns 1, 2, ... and then 0."""
    return np.concatenate((a[:, 1:], a[:, :1]), axis=1)


def _ring_measures(verts: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Area, perimeter and diameter of padded rings, and the squared length
    of each ring step (column i to its next)."""
    x, y = verts[..., 0], verts[..., 1]
    i, j = _ring_pairs(verts.shape[1])
    xn, yn = _next(x), _next(y)
    area = 0.5 * np.add.reduce(x * yn - y * xn, axis=1)
    step = (xn - x) ** 2 + (yn - y) ** 2
    diameter = np.sqrt(np.maximum.reduce((x[:, i] - x[:, j]) ** 2 + (y[:, i] - y[:, j]) ** 2, axis=1, initial=0.0))
    return (area, np.add.reduce(np.sqrt(step), axis=1), diameter), step


def support_intervals(verts: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the projection interval onto the unit normal of direction theta."""
    s = np.cos(theta)[:, None] * verts[..., 1] - np.sin(theta)[:, None] * verts[..., 0]
    return np.minimum.reduce(s, axis=1), np.maximum.reduce(s, axis=1)


def _atom_widths(measure, polys: Polys) -> np.ndarray:
    """(m, atoms): weight * width of each polygon at each atom's direction."""
    m = len(polys)
    cols = []
    for th, w in measure.atoms:
        lo, hi = support_intervals(polys.verts, np.full(m, th))
        cols.append(w * (hi - lo))
    return np.stack(cols, axis=1)


def hitting_weights(measure: LineMeasureSpec, polys: Polys) -> np.ndarray:
    """`line_measure.hitting_measure` of every row."""
    if isinstance(measure, IsotropicMeasure):
        return measure.scale * polys.perimeter
    return _atom_widths(measure, polys).sum(axis=1)


def sample_lines(
    measure: LineMeasureSpec, polys: Polys, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, offset) of one line per row from that row's hitting distribution,
    by the rules of `line_measure.sample_hitting_line`: the isotropic theta by
    rejection against the diameter, a mixture atom in proportion to weight *
    width, the offset uniform on the support interval and redrawn (with
    theta) within EPS_GEOM * diameter of the origin.  Rows still undrawn
    after MAX_REJECTION_ITERATIONS rounds raise SamplerStall."""
    iso = isinstance(measure, IsotropicMeasure)
    if not iso:
        atom_theta = np.array([th for th, _ in measure.atoms])
        cum = np.cumsum(_atom_widths(measure, polys), axis=1)
    verts, diameter, todo = polys.verts, polys.diameter, None  # todo: the rows still undrawn
    for _ in range(MAX_REJECTION_ITERATIONS):
        # a round's uniforms in the order theta or atom, envelope (isotropic), offset
        u = rng.random((3 if iso else 2, len(diameter)))
        if iso:
            th = math.pi * u[0]
            lo, hi = support_intervals(verts, th)
            width = hi - lo
            ok = diameter * u[1] <= width
        else:
            c = cum if todo is None else cum[todo]
            th = atom_theta[np.minimum((c <= (c[:, -1] * u[0])[:, None]).sum(axis=1), len(atom_theta) - 1)]
            lo, hi = support_intervals(verts, th)
            width, ok = hi - lo, True
        p = lo + width * u[-1]
        ok &= np.abs(p) > EPS_GEOM * diameter
        if todo is None:
            theta, offset, todo = th, p, np.flatnonzero(~ok)
        else:
            theta[todo[ok]], offset[todo[ok]] = th[ok], p[ok]
            todo = todo[~ok]
        if not todo.size:
            return theta, offset
        verts, diameter = polys.verts[todo], polys.diameter[todo]
    raise SamplerStall("batched line sampler exceeded its iteration budget")


@dataclass(frozen=True)
class BatchSplit:
    """`split_cells` per row: a status (CUT, WHOLE_ORIGIN, WHOLE_FAR or
    DEGENERATE) and the chord length (0 unless CUT); the two parts and the
    chord's endpoints of the CUT rows, in row order: `parts` holds the far
    parts (`SplitResult.negative_part`) and then the origin parts
    (`positive_part`), and `ends[i]` is `chord_ends`."""

    status: np.ndarray
    chord: np.ndarray
    parts: Polys
    ends: np.ndarray  # (CUT rows, 2, 2)

    @property
    def far(self) -> Polys:
        return self.parts.take(slice(None, len(self.ends)))

    @property
    def origin(self) -> Polys:
        return self.parts.take(slice(len(self.ends), None))


def _sides(cand: np.ndarray, keep: np.ndarray, eps: np.ndarray) -> Polys:
    """Per row of `keep`, a stack of cut sides of the rows of `cand` (row i
    of `keep` takes its points from row i mod len(cand)), each keeping at
    least one point: the kept candidate points in ring order, deduped as
    `geometry._dedupe_ring` does and padded to the widest row, with their
    measures."""
    n = np.add.reduce(keep, axis=1, dtype=np.int64)
    width = int(np.maximum.reduce(n, initial=1))
    start = n.cumsum() - n  # np.flatnonzero(keep) lists each row's kept points in ring order, row by row
    at = np.flatnonzero(keep) % (cand.shape[0] * cand.shape[1])
    pts = cand.reshape(-1, 2).take(at[start[:, None] + np.minimum(np.arange(width), n[:, None] - 1)], axis=0)
    measures, step = _ring_measures(pts)
    # rows where two ring neighbours are within eps (with a margin, so every
    # row the scalar pass would change is caught) take the scalar pass
    close = np.arange(1, width + 1) < n[:, None]
    close[:, -1] = n > 1  # the last column holds the closing step
    close &= step <= ((eps * (1.0 + 1e-9)) ** 2)[:, None]
    redo = close.any(axis=1).nonzero()[0]
    for r in redo:
        ring = _dedupe_ring(list(map(tuple, pts[r, : n[r]])), float(eps[r]))
        n[r] = len(ring)
        pts[r, : n[r]] = ring
        pts[r, n[r]:] = ring[-1]
    if redo.size:
        measures, _ = _ring_measures(pts)
    return Polys(pts, n, *measures)


def split_cells(polys: Polys, theta: np.ndarray, offset: np.ndarray) -> BatchSplit:
    """Cut row i of `polys` by the line (theta[i], offset[i]), as `geometry.split` does.
    Both sides of the crossed rows run through `_sides` in one stack, the far
    sides and then the origin sides, so that when every crossed row is CUT
    the stack is `parts` as it is."""
    m = len(polys)
    verts = polys.verts[:, : int(np.maximum.reduce(polys.nv, initial=1))]  # the rest is padding
    eps = EPS_GEOM * polys.diameter
    sin, cos = np.sin(theta)[:, None], np.cos(theta)[:, None]
    s = -sin * verts[..., 0] + cos * verts[..., 1]
    s -= offset[:, None]
    hi = s.max(axis=1)
    plus_is_origin = offset < 0.0
    status = np.where((hi >= eps) == plus_is_origin, WHOLE_ORIGIN, WHOLE_FAR)
    # the rest runs on the rows the line crosses (all of them: a view, no copies)
    hit = (~((s.min(axis=1) > -eps) | (hi < eps))).nonzero()[0]
    if hit.size == m:
        hit = slice(None)
    verts, s, eps, plus_is_origin = verts[hit], s[hit], eps[hit], plus_is_origin[hit]
    k, v, _ = verts.shape
    e = eps[:, None]
    s_next = _next(s)
    on = np.abs(s) <= e
    crosses = ~(on | _next(on)) & (s * s_next < 0.0)
    t = s / np.where(crosses, s - s_next, 1.0)  # used on the crossing edges only
    # candidate points in ring order: vertex i, then the crossing on edge (i, i + 1)
    cand = np.empty((k, 2 * v, 2))
    cand[:, 0::2] = verts
    cand[:, 1::2] = verts + t[..., None] * (_next(verts) - verts)

    # both sides in one pass: the far side in keep[0], the origin side in keep[1]
    real = np.arange(v) < polys.nv[hit, None]  # padding repeats the last vertex: take it once
    upper, lower = (s >= -e) & real, (s <= e) & real  # the side s > 0, and the side s < 0
    flip = plus_is_origin[:, None]
    keep = np.empty((2, k, 2 * v), dtype=bool)
    keep[0, :, 0::2], keep[1, :, 0::2] = np.where(flip, lower, upper), np.where(flip, upper, lower)
    keep[:, :, 1::2] = crosses
    sides = _sides(cand, keep.reshape(2 * k, 2 * v), np.concatenate([eps, eps]))
    area_tol = eps * polys.diameter[hit]
    far_none, origin_none = ((sides.nv < 3) | (sides.area <= np.concatenate([area_tol, area_tol]))).reshape(2, k)

    along = cos[hit] * cand[..., 0] + sin[hit] * cand[..., 1]
    # per row, the on-line points (the vertices within eps of the line and the
    # crossings) along the line, and the same negated: the chord runs from the
    # lowest to the highest
    ahead = np.where(keep[0] & keep[1], _AHEAD_BACK * along, np.inf)
    low, neg_high = ahead.min(axis=2)
    length = -neg_high - low

    got = np.where(far_none, WHOLE_ORIGIN, WHOLE_FAR)  # with one side empty, the cell stays on the other
    both = ~far_none & ~origin_none
    got[both] = CUT
    got[(far_none & origin_none) | (both & (length <= eps))] = DEGENERATE
    status[hit] = got
    is_cut = got == CUT
    cut = is_cut.nonzero()[0]
    chord = np.zeros(m)
    chord[hit] = np.where(is_cut, length, 0.0)
    parts = sides if cut.size == k else sides.take(np.concatenate([cut, cut + k]))
    # the chord's ends are the first lowest and the first highest on-line point, as `_span` picks
    ends = cand[cut[:, None], ahead.argmin(axis=2).T[cut]]
    return BatchSplit(status, chord, parts, ends)


# ---------------------------------------------------------------------------
# cell-count histograms, and the lockstep Mecke stepper


def cell_count_histograms(run: Callable[[int], list], replicas: int, times: Sequence[float]) -> np.ndarray:
    """hist[j, c]: how many of `replicas` runs show c cells at times[j], where
    a run shows 1 plus its cuts by then.  `run(size)` makes the next `size`
    runs, at most BLOCK of them, and gives their cut log up to the largest
    time: pieces whose first two columns are the times and the runs (0 to
    size - 1) of cuts."""
    hist = np.zeros((len(times), 2), dtype=np.int64)
    for first in range(0, replicas, BLOCK):
        size = min(BLOCK, replicas - first)
        # zip keeps the first two columns of each piece
        time, cut_run = (np.concatenate(c) for c in zip((np.empty(0), np.empty(0, dtype=np.int64)), *run(size)))
        seen = [1 + np.bincount(cut_run[time <= g], minlength=size) for g in times]
        top = max(int(s.max()) for s in seen) + 1
        if top > hist.shape[1]:
            hist = np.pad(hist, ((0, 0), (0, top - hist.shape[1])))
        for j, s in enumerate(seen):
            hist[j, :top] += np.bincount(s, minlength=top)
    return hist


def skip(n: np.ndarray, k: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per row, the number V of decisions that pick an empty slot before the
    next pick of one of k cells, from n slots on: P(V >= v) = prod_{m=n}^{n+v-1}
    (1 - k/m) = E[X^v] with X ~ Beta(n - k, k), so V = floor(log U / log X) for
    U uniform on (0, 1], with X = H / (G + H), G ~ Gamma(k) and H ~ Gamma(n - k)
    (V = 0 when n = k).  V is clipped so that n + V stays in int64."""
    g, h = rng.standard_gamma(k), rng.standard_gamma(n - k)
    with np.errstate(divide="ignore"):
        v = rng.standard_exponential(n.shape) / np.log1p(g / h)  # log U / log X
    return np.minimum(np.minimum(v, 2.0**62).astype(np.int64), np.iinfo(np.int64).max - n)


class _Mecke:
    """A block of replicas of the Mecke stepper: a wait ends at the next
    decision that picks a cell, and the event cuts a cell picked uniformly by
    one window line.  The cells are rows of a growing store (a `Polys`);
    per replica, the store rows of its cells in order are the first `count`
    columns of its row of `members`, `slots` counts its quasi-cells, empty
    ones included, and `t` is the time of its last event.  `log` holds the
    time and the replica of each cut, one piece per call of `apply`."""

    def __init__(self, measure: LineMeasureSpec, window: ConvexPolygon, size: int, clock: Clock) -> None:
        self.measure, self.clock = measure, clock
        self.windows = window_rows(window, size)
        self.cells = self.windows.take(np.zeros(8 * size, dtype=np.int64))  # a writable copy
        self.used = size
        self.members = np.arange(size)[:, None]
        self.count = np.ones(size, dtype=np.int64)
        self.slots = np.ones(size, dtype=np.int64)
        self.t = np.zeros(size)
        self.log: list[tuple[np.ndarray, np.ndarray]] = []

    def apply(self, reps: np.ndarray, rows: np.ndarray, res: BatchSplit) -> None:
        """Where res.status is CUT, row rows[i] of replica reps[i] keeps the far
        part and the origin part is appended as the replica's next cell; both
        parts go in at once, one write per field."""
        cut = res.status == CUT
        if not cut.any():
            return
        reps, rows = reps[cut], rows[cut]
        self.log.append((self.t[reps], reps))
        parts = res.parts
        width = parts.verts.shape[1]
        if width > self.cells.verts.shape[1]:
            self.cells = self.cells.widened(max(width, 2 * self.cells.verts.shape[1]))
        end = self.used + reps.size
        if end > len(self.cells):
            grow = np.zeros(end, dtype=np.int64)  # at least twice the rows needed, copies of row 0
            self.cells = self.cells.take(np.concatenate([np.arange(self.used), grow]))
        new = np.arange(self.used, end)
        target = np.concatenate([rows, new])
        verts = self.cells.verts
        verts[target, :width], verts[target, width:] = parts.verts, parts.verts[:, -1:]
        for store, part in zip(self.cells.arrays()[1:], parts.arrays()[1:]):
            store[target] = part
        self.used = end
        if self.count[reps].max() >= self.members.shape[1]:
            self.members = np.pad(self.members, ((0, 0), (0, self.members.shape[1])))
        self.members[reps, self.count[reps]] = new
        self.count[reps] += 1

    def wait(self, reps: np.ndarray, t: np.ndarray, rng) -> np.ndarray:
        n = self.slots[reps]
        w = skip(n, self.count[reps], rng) + 1
        if np.any(w > np.iinfo(np.int64).max - n):  # e^(rate * t) slots, rate * t past ~43
            raise DomainError("the quasi-cell count passes the int64 range")
        self.slots[reps] += w
        return t + self.clock.span(n, w, rng)

    def event(self, reps: np.ndarray, rng: np.random.Generator) -> None:
        slot = rng.integers(0, self.count[reps])
        for _ in range(MAX_REJECTION_ITERATIONS):
            if not reps.size:
                return
            rows = self.members[reps, slot]
            lines = sample_lines(self.measure, self.windows.take(slice(reps.size)), rng)
            res = split_cells(self.cells.take(rows), *lines)
            self.apply(reps, rows, res)
            reps = reps[res.status == DEGENERATE]  # the decision is drawn again
            slot = rng.integers(0, self.slots[reps] - 1)
            reps, slot = reps[slot < self.count[reps]], slot[slot < self.count[reps]]
        raise SamplerStall("degenerate splits exceeded the iteration budget")

    def run(self, t_max: float, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
        """The log of a run to t_max.  A step draws every live replica's wait
        to its next event, retires it past t_max, and runs the events of the
        rest."""
        live = np.arange(self.t.size)
        while live.size:
            self.t[live] = self.wait(live, self.t[live], rng)
            live = live[self.t[live] <= t_max]
            self.event(live, rng)
        return self.log


def mecke_cell_counts(
    window: ConvexPolygon, measure: LineMeasureSpec, grid: Sequence[float], replicas: int,
    rng: np.random.Generator, clock: Clock,
) -> np.ndarray:
    """Cell-count histograms of `replicas` runs of the Mecke stepper at each
    grid time, in lockstep blocks of at most BLOCK replicas; the decision
    taken with n quasi-cells comes after an Exp(clock(n)) wait.  A rate that
    is not finite and positive, or a slot count past the int64 range, raises
    DomainError."""
    check_rate(clock.rate)
    t_max = float(max(grid))
    return cell_count_histograms(
        lambda size: _Mecke(measure, window, size, clock).run(t_max, rng), replicas, grid
    )
