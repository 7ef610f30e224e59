"""The tessellation processes and their cell-configuration statistics.

All four models are one split process on a list of slots (cells, or empty
quasi-cells as None in the Mecke models): an event cuts the cell of a slot
by a line, the slot keeps the far part of the cut and the origin part takes
the next slot.  The models differ in their clocks and selectors.

* STIT: every cell C runs its own clock (Nagel & Weiss): it lives an
  Exp(W(C)) time, W(C) = Lambda([C]) its hitting weight, and is then cut by
  a line from its normalized hitting distribution.
* Cowan equally-likely: the same with rate W(window) for every cell; the
  k cells' clocks add up to the equally-likely clock k * W(window), whose
  event count by time t is geometric.
* Mecke discrete: one of the n quasi-cells picked uniformly, cut by a line
  from the window's hitting distribution; no clock, event n is decision n.
  A decision is a jump only when the quasi-cell is nonempty and the line hits it.
* Mecke continuous: the Mecke selector driven by the equally-likely clock.

STIT and Cowan run in one generation engine (`_run_clocks`): each cell draws
its death time when it is born, and the cells that die before a horizon are
cut generation by generation by `batch.sample_lines` and `batch.split_cells`
on `batch.Polys` rows.  A line that does not split its cell is drawn again
for the same cell, so every STIT and Cowan event is a jump.  The same
generations count the cells of many STIT windows (`stit_cell_counts`).  The
Mecke models run in one block engine (`_mecke_run`): a block of decisions
draws its waits (continuous model, under a `batch.Clock`), its picks and its
window lines with one numpy call each, and only a pick that lands on a cell
is cut by `geometry.split`.  `mecke_discrete_step` makes one decision with scalar
draws, slot then line.  The lockstep Mecke stepper and `stats` drive the
Mecke selector by a `batch.Clock` of the slot count n; the negative controls
in `stats` are two more clocks.

Every simulator takes `(window, measure, rng, *, <stop keywords>, seed=None)`
and returns a `ProcessTrace`; `replay` rebuilds any state from it.  It cuts
the trace's cells in dependency waves: an event's depth is one more than
that of the event that last wrote the slot it cuts, so the events of one
depth share no slot, and the events of a depth whose slot holds a cell are
cut together by `batch.split_cells` (a trace of 8000 STIT jumps has 30 to
37 depths).  The split rules, and the vertices
and chords they give, are those of `geometry.split`, bit for bit;
`final_state` and `l_sequence` take each cell's measures from a
`ConvexPolygon` of its vertices, so they are the scalar ones too.

The normalized hitting-weight sequence (values[k-1] = sum of cell weights
just before the k-th jump, divided by the window weight; `l_sequence`) is
the sufficient statistic for every conditional jump-time law.  Given a
frozen sequence, only the time/counting layer is left to re-simulate; that
layer is vectorized over replicas in `stats` (`simulate_conditional_*`,
`simulate_cowan_counts`) and checked there against the closed forms.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .batch import (
    CUT,
    DEGENERATE,
    WHOLE_ORIGIN,
    BatchSplit,
    Clock,
    Polys,
    cell_count_histograms,
    check_rate,
    hitting_weights,
    sample_lines,
    split_cells,
)
from .errors import DegenerateSplit, DomainError, GeometryError, SamplerStall
from .geometry import ConvexPolygon, Line, Point, SplitResult, _measure_ring, split
from .line_measure import (
    MAX_REJECTION_ITERATIONS,
    LineMeasureSpec,
    crossing_measure,
    hitting_measure,
    sample_hitting_line,
)

# A run is refused (_check_expected_work) when it expects more events than
# this: expm1(rate * t) decisions of the equally-likely clock to a time t, or
# stit_mean_jumps jumps of STIT, or a cap of more events, whichever is fewer.
MAX_EXPECTED_DECISIONS = 10**6
# stats.EquivalenceConfig refuses a check that expects more events than this
# in total: a Cowan check whose replicas race the equally-likely clock,
# cowan_replicas * expm1(rate * t) at the largest t of its grid, or the
# conditional draws, the STIT cells or the selection hits of the others.
MAX_EXPECTED_CLOCK_EVENTS = 10**8


class ModelTag(enum.Enum):
    STIT = "STIT"
    MECKE_DISCRETE = "MeckeDiscrete"
    MECKE_CONTINUOUS = "MeckeContinuous"
    COWAN_EL = "CowanEL"


class TraceEvent(NamedTuple):
    """One decision/jump: `time` is a real time for continuous models and a
    1-based decision index for the discrete model."""

    time: float | int
    cell_index: int
    line: Line
    jump: bool


@dataclass(frozen=True)
class ProcessTrace:
    window: ConvexPolygon
    measure: LineMeasureSpec
    events: tuple[TraceEvent, ...]
    model_tag: ModelTag
    seed: int | None = None

    @property
    def jump_count(self) -> int:
        return sum(1 for e in self.events if e.jump)


@dataclass(frozen=True)
class QuasiCellState:
    """Mecke state: one slot per quasi-cell, empty slots are None."""

    quasi_cells: tuple[ConvexPolygon | None, ...]
    decision_count: int
    jump_count: int

    @property
    def cells(self) -> tuple[ConvexPolygon, ...]:
        return tuple(c for c in self.quasi_cells if c is not None)

    def validate(self, window: ConvexPolygon, rel_tol: float = 1e-9) -> None:
        if len(self.quasi_cells) != self.decision_count + 1:
            raise GeometryError("quasi-cell count must equal decision count + 1")
        cells = self.cells
        if len(cells) != self.jump_count + 1:
            raise GeometryError("cell count must equal jump count + 1")
        total = sum(c.area for c in cells)
        if not abs(total - window.area) <= rel_tol * window.area:  # NaN fails too
            raise GeometryError("cells do not tile the window")


@dataclass(frozen=True)
class LSequence:
    """Normalized cumulative hitting weights of a nested cell configuration.

    values[k-1] is the total hitting weight of the k cells present just
    before the k-th jump, divided by the window weight `rate`; it always
    starts at exactly 1, stays within [1, k] and never decreases (else a
    DomainError); an evaluator refuses neighbours it cannot resolve.
    """

    values: tuple[float, ...]
    rate: float

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if vals[:1] != (1.0,):
            raise DomainError(f"sequence must start at exactly 1.0, got {vals[:1]!r}")
        if not self.rate > 0.0:
            raise DomainError(f"rate must be positive, got {self.rate!r}")
        for k, (prev, v) in enumerate(zip(vals, vals[1:]), start=2):
            if not prev <= v <= k * (1.0 + 1e-12):  # NaN fails too
                raise DomainError(f"value {v!r} at position {k} outside [{prev!r}, {k}]")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def replica_rng(seed: int, index: int = 0, *key: int) -> np.random.Generator:
    """Deterministic child stream (index, *key) of master `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, *key)))


# ---------------------------------------------------------------------------
# the Mecke engine: decisions drawn in blocks, only the picks of a cell cut

# Decisions are drawn in blocks whose sizes double from FIRST_DECISION_BLOCK up
# to DECISION_BLOCK.  The schedule does not depend on the stop rule, so a run
# stopped earlier is a prefix of the same stream.
FIRST_DECISION_BLOCK = 16
DECISION_BLOCK = 4096


def _apply_split(slots: list, idx: int, far, origin) -> None:
    """The slot update of every model: the split slot keeps the far part and
    the origin part is appended (an empty slot stays None and appends None)."""
    slots[idx] = far
    slots.append(origin)


_NO_PARTS = SplitResult(None, None, 0.0)  # the cut of an empty slot


def _caps(*stops: float | None) -> list[float]:
    """The stop values, math.inf for each one not given; DomainError when
    none is given or the first, a time, is not finite and nonnegative."""
    if all(stop is None for stop in stops):
        raise DomainError("a stopping rule is required")
    if stops[0] is not None and not 0.0 <= stops[0] < math.inf:
        raise DomainError(f"time must be finite and nonnegative, got {stops[0]!r}")
    return [math.inf if stop is None else stop for stop in stops]


def _decide(
    cell_at: Callable,
    n: int,
    measure: LineMeasureSpec,
    window: ConvexPolygon,
    rng: np.random.Generator,
    idx: int = 0,
    line: Line | None = None,
) -> tuple[int, Line, SplitResult]:
    """One Mecke decision among n quasi-cells: slot `idx`'s cell (`cell_at(idx)`,
    None if empty) cut by a window line.  Without a `line` given, the slot is
    picked uniformly and the line drawn here, in that order.  A degenerate
    split draws the slot and the line again; past MAX_REJECTION_ITERATIONS
    draws it raises SamplerStall."""
    for _ in range(MAX_REJECTION_ITERATIONS):
        if line is None:
            idx, line = int(rng.integers(n)), sample_hitting_line(measure, window, rng)
        cell = cell_at(idx)
        try:
            return idx, line, _NO_PARTS if cell is None else split(cell, line)
        except DegenerateSplit:
            line = None
    raise SamplerStall("degenerate splits exceeded the iteration budget")


@functools.lru_cache(maxsize=8)
def _window_rows(window: ConvexPolygon) -> Polys:
    """DECISION_BLOCK rows of `window`, read-only: a run takes the rows it needs
    as a view."""
    rows = Polys.of([window]).take(np.zeros(DECISION_BLOCK, dtype=np.int64))
    for a in rows.arrays():
        a.flags.writeable = False
    return rows


def _mecke_run(
    window: ConvexPolygon,
    measure: LineMeasureSpec,
    rng: np.random.Generator,
    clock: Clock | None = None,
    *,
    max_time: float | None = None,
    max_jumps: int | None = None,
    max_decisions: int | None = None,
) -> list[TraceEvent]:
    """Mecke's decisions from the bare window until a stop rule fires.

    Decision n picks one of the n quasi-cells uniformly and cuts it by one
    window line.  Without a `clock` its event time is n; with it, decision n
    comes after an Exp(clock(n)) wait.  A block of decisions draws its waits,
    then its picks, then its lines, each with one numpy call.  Only a pick
    that lands on a cell needs `geometry.split`; the slots are updated as
    `_apply_split` does.  A clock rate that is not finite and positive, or an
    event time that is not finite, raises DomainError."""
    time_cap, jump_cap, slot_cap = _caps(max_time, max_jumps, max_decisions)
    windows = _window_rows(window)
    cells = {0: window}  # per slot its cell, or None; a slot not in it is empty
    events: list[TraceEvent] = []
    n, t, jumps, size = 1, 0.0, 0, FIRST_DECISION_BLOCK
    while jumps < jump_cap and n <= slot_cap:
        count = np.arange(n, n + size)  # the slot count of each decision
        stop = int(min(size, slot_cap - n + 1))
        if clock is None:
            time = count
        else:
            with np.errstate(over="ignore", divide="ignore"):
                time = t + np.cumsum(rng.standard_exponential(size) / clock(count))
            stop = min(stop, int(time.searchsorted(time_cap, "right")))
            # the rates rise with n: check the last one a decision drew on
            top = clock(n + min(stop, size - 1))
            check_rate(top)
            if stop and not math.isfinite(time[stop - 1]):
                raise DomainError(f"event time is not finite ({time[stop - 1]!r}) at rate {top!r}")
        picks = rng.integers(count)[:stop].tolist()
        rows = windows.take(slice(size))
        theta, offset = (a[:stop].tolist() for a in sample_lines(measure, rows, rng))
        jump = [False] * stop
        for j, pick in enumerate(picks):
            if cells.get(pick) is None:
                continue
            line = Line(theta[j], offset[j])
            idx, line, parts = _decide(cells.get, n + j, measure, window, rng, pick, line)
            picks[j], theta[j], offset[j] = idx, *line
            far, origin = parts.negative_part, parts.positive_part
            cells[idx], cells[n + j] = far, origin
            jump[j] = far is not None and origin is not None
            jumps += jump[j]
            if jumps >= jump_cap:
                stop = j + 1
                break
        lines = map(Line, theta[:stop], offset[:stop])
        events += map(TraceEvent, time[:stop].tolist(), picks[:stop], lines, jump[:stop])
        if stop < size:
            break
        n, t, size = n + size, time[-1], min(2 * size, DECISION_BLOCK)
    return events


# ---------------------------------------------------------------------------
# STIT and Cowan: every cell runs its own clock


WAVE_ROWS = 256  # the most cells one `split_cells` call cuts: bounds its working set
_FAR_ORIGIN = np.array([[1], [2]])  # the cut of event e makes cells 2e + 1 and 2e + 2
# A cell that this many lines have failed to split is at the resolution of
# floats (Cowan's clocks cut some cells down to diameters near 1e-15, where no
# line splits them within the EPS_GEOM tolerances): it stays whole for good.
MAX_CELL_LINES = 10_000
# A Cowan horizon aims at no more cuts than this many per alive cell.  k cells
# of rate W make k * expm1(W * d) cuts in a time d on average, a count that
# spreads widely while k is small, so a run aims short of the cuts it still
# needs until k is large, with horizons that grow the cells about fivefold.
COWAN_AIM = 4


class _Alive(NamedTuple):
    """Cells not yet cut: `batch.Polys` rows, their death times, their ids
    (the window is cell 0; the cut of event e makes cells 2e + 1, the far
    part, and 2e + 2, the origin part) and how many lines each has drawn
    that did not split it."""

    polys: Polys
    death: np.ndarray
    ids: np.ndarray
    drawn: np.ndarray

    def take(self, rows) -> _Alive:
        return _Alive(self.polys.take(rows), self.death[rows], self.ids[rows], self.drawn[rows])

    @staticmethod
    def stack(parts: list[_Alive]) -> _Alive:
        if len(parts) == 1:
            return parts[0]
        polys, *rest = zip(*parts)
        return _Alive(Polys.stack(polys), *map(np.concatenate, rest))


class _Clocks:
    """The cuts of a run in which each cell dies after an Exp(rate) life of
    its own and is then cut by a line from its own hitting distribution.

    `rate(polys)` gives each row's clock rate.  `cut` cuts a generation of
    cells that are due, in pieces of at most WAVE_ROWS rows, `grow` cuts
    generation after generation up to a horizon, and `events` puts the cuts
    in time order."""

    def __init__(self, measure: LineMeasureSpec, rate: Callable, rng: np.random.Generator) -> None:
        self.measure, self.rate, self.rng = measure, rate, rng
        self.cuts: list[tuple[np.ndarray, ...]] = []  # per draw: times, cell ids, theta, offset
        self.made = 0

    def born(self, polys: Polys, birth: np.ndarray, ids: np.ndarray) -> _Alive:
        """Cells born at `birth`, each with its death time drawn.  A rate that
        is not finite and positive raises DomainError."""
        with np.errstate(over="ignore"):  # an extreme measure scale gives an infinite rate or life
            rate = self.rate(polys)
            death = birth + self.rng.standard_exponential(birth.size) / rate
        check_rate(rate)
        return _Alive(polys, death, ids, np.zeros(ids.size, dtype=np.int64))

    def _record(self, t: np.ndarray, ids: np.ndarray, theta, offset, parts: Polys) -> _Alive:
        """Cuts at times t of the cells `ids` by the lines (theta, offset)
        into `parts` (the far parts, then the origin parts); the cells they make."""
        e = np.arange(self.made, self.made + t.size)
        self.cuts.append((t, ids, theta, offset))
        self.made += t.size
        return self.born(parts, np.concatenate([t, t]), self._part_ids(e, ids))

    def _part_ids(self, e: np.ndarray, ids: np.ndarray) -> np.ndarray:  # far parts, then origin parts
        return (2 * e + _FAR_ORIGIN).ravel()

    def grow(self, alive: _Alive, horizon: float) -> list[_Alive]:
        """Cut every cell of `alive` that dies by `horizon`, then the cells
        those cuts make that die by it too, one generation at a time; the
        cells left, which die after it, in pieces."""
        later = []
        while (due := alive.death <= horizon).any():
            if not due.all():
                later.append(alive.take(~due))
                alive = alive.take(due)
            alive = self.cut(alive)
        later.append(alive)
        return later

    def cut(self, due: _Alive) -> _Alive:
        """Cut every cell of `due` at its death time; the cells the cuts make,
        and the cells no line has split yet (not CUT), which stay due.  A cell
        draws one line from its hitting distribution; once k lines have failed
        it, it draws up to k at once and the first that splits it is taken, as
        single draws in turn would.  A cell that MAX_CELL_LINES lines have
        failed is dropped: it is never cut."""
        born = []
        again = due.drawn > 0
        if again.any():
            born.append(self._redraw(due.take(again)))
            due = due.take(~again)
        for j in range(0, due.ids.size, WAVE_ROWS):
            piece = due.take(slice(j, j + WAVE_ROWS)) if due.ids.size > WAVE_ROWS else due
            theta, offset = sample_lines(self.measure, piece.polys, self.rng)
            res = split_cells(piece.polys, theta, offset)
            ok = res.status == CUT
            born.append(self._record(piece.death[ok], piece.ids[ok], theta[ok], offset[ok], res.parts))
            if not ok.all():
                failed = piece.take(~ok)
                born.append(failed._replace(drawn=failed.drawn + 1))
        return _Alive.stack(born)

    def _redraw(self, cells: _Alive) -> _Alive:
        """`cut` for cells that have drawn lines that did not split them: each
        draws as many again, in one `split_cells` call of about WAVE_ROWS rows
        at most."""
        copies = np.minimum(cells.drawn, max(1, WAVE_ROWS // cells.ids.size))
        row = np.repeat(np.arange(cells.ids.size), copies)
        polys = cells.polys.take(row)
        theta, offset = sample_lines(self.measure, polys, self.rng)
        res = split_cells(polys, theta, offset)
        hit = (res.status == CUT).nonzero()[0]
        first = np.unique(row[hit], return_index=True)[1]  # per cell, its first line that split it
        line, done = hit[first], row[hit[first]]
        parts = res.parts.take(np.concatenate([first, first + hit.size]))
        born = self._record(cells.death[done], cells.ids[done], theta[line], offset[line], parts)
        drawn = cells.drawn + copies
        again = drawn < MAX_CELL_LINES
        again[done] = False
        return _Alive.stack([born, cells.take(again)._replace(drawn=drawn[again])])

    def events(self, limit: float) -> list[TraceEvent]:
        """The first `limit` cuts in time order.  Slots are numbered as
        `_apply_split` numbers them: the cut cell's slot keeps the far part,
        and the origin part of the i-th cut in time order takes slot i + 1."""
        if not self.cuts:
            return []
        time, cell, theta, offset = map(np.concatenate, zip(*self.cuts))
        order = np.argsort(time, kind="stable")
        rank = np.argsort(order)
        slot_of = [0] * (2 * order.size + 1)  # per cell id
        slots = []
        for e, (c, r) in enumerate(zip(cell.tolist(), rank.tolist())):  # a cell is made before it is cut
            slots.append(slot_of[c])
            slot_of[2 * e + 1], slot_of[2 * e + 2] = slot_of[c], r + 1
        order = order[: min(order.size, limit)]
        return [
            TraceEvent(t, s, Line(th, p), True)
            for t, s, th, p in zip(
                time[order].tolist(), np.array(slots)[order].tolist(),
                theta[order].tolist(), offset[order].tolist(),
            )
        ]


def _run_clocks(
    window: ConvexPolygon,
    measure: LineMeasureSpec,
    rate: Callable,
    aim: Callable,
    rng: np.random.Generator,
    *,
    max_time: float | None = None,
    max_jumps: int | None = None,
) -> list[TraceEvent]:
    """Run the split process of `_Clocks` from the window until `max_time` or
    `max_jumps` = N cuts, one horizon at a time.

    Every cell that dies before the horizon is cut, then the cells those cuts
    make that die before it too, one generation at a time; cells past the
    horizon keep the death times they drew, and every cut before it is made.
    With `max_time` only, the horizon is `max_time`.  With N, it is the
    smaller of `aim(n, start, k, r)`, a time the model expects to reach with
    r cuts still needed and k cells alive at `start` (the last horizon; n is
    N, doubled each time the run is still short), and the r-th smallest
    pending death time, which finishes the run; but never before the first
    pending death, so a 1-jump run is one generation.  The first N cuts are
    then exact.  A horizon that is not finite raises DomainError, and a run
    short of N cuts with no cell left that a line splits (`_Clocks.cut`)
    raises SamplerStall."""
    time_cap, jump_cap = _caps(max_time, max_jumps)
    clocks = _Clocks(measure, rate, rng)
    later = [clocks.born(_window_rows(window).take(slice(1)), np.zeros(1), np.zeros(1, dtype=np.int64))]
    horizon, expect = -math.inf, jump_cap
    while clocks.made < jump_cap and horizon < time_cap:
        alive = _Alive.stack(later)
        k = alive.ids.size
        if not k:
            raise SamplerStall("no cell is left that a line splits")
        start, horizon = max(horizon, 0.0), time_cap
        if jump_cap < math.inf:
            needed = jump_cap - clocks.made
            first = float(alive.death.min())
            last = float(np.partition(alive.death, needed - 1)[needed - 1]) if k >= needed else math.inf
            horizon = min(horizon, last, max(aim(expect, start, k, needed), first))
            expect *= 2
        if not math.isfinite(horizon):
            raise DomainError(f"event time is not finite ({horizon!r})")
        later = clocks.grow(alive, horizon)
    return clocks.events(jump_cap)


class _ReplicaClocks(_Clocks):
    """`_Clocks` over many windows at once: a cell's id is the replica of its
    window, and both parts of a cut keep the id of the cell cut."""

    def _part_ids(self, e: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return np.concatenate([ids, ids])


def stit_cell_counts(
    window: ConvexPolygon, measure: LineMeasureSpec, grid: Sequence[float], replicas: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """hist[j, c]: how many of `replicas` STIT runs show c cells at time grid[j].

    Each block of at most `batch.BLOCK` windows is one `_ReplicaClocks` run to
    the largest grid time; a replica's count at g is 1 plus the cuts of its
    cells by g.  One replica is `stit_simulate`'s run to that time, draw for
    draw.  A clock rate that is not finite and positive raises DomainError."""
    times = np.asarray(grid, dtype=float)
    rows = Polys.of([window])

    def run(size: int) -> np.ndarray:
        clocks = _ReplicaClocks(measure, functools.partial(hitting_weights, measure), rng)
        ids = np.arange(size)
        clocks.grow(clocks.born(rows.take(np.zeros(size, dtype=np.int64)), np.zeros(size), ids), times.max())
        # the time and the replica of each cut (zip keeps the first two columns)
        time, replica = (np.concatenate(c) for c in zip((np.empty(0), ids[:0]), *clocks.cuts))
        return 1 + np.stack([np.bincount(replica[time <= g], minlength=size) for g in times], axis=1)

    return cell_count_histograms(run, replicas, times.size)


def _check_expected_work(
    rate_t: float | None, budget: str, what: str, copies: int = 1, cap: int | None = None
) -> None:
    """Refuse, with DomainError, `copies` runs named `what` whose copies *
    expm1(rate_t) expected events pass the budget named `budget`: they would
    spin for hours.  rate_t is W(window) * t of the equally-likely clock to a
    time t (STIT passes log1p of its mean jump count), None for no time limit.
    A cap of N events counts as log1p(N); with both stop rules, the smaller
    count decides, so `what` may name either.  Compared in log1p space, as
    expm1 overflows past rate_t ~ 710, and a cap as N itself, exact for any
    int; a NaN, no copies, or no stop rule passes for the caller's own checks."""
    if copies <= 0 or (rate_t is None and cap is None):
        return
    limit = globals()[budget]
    share = limit / copies
    if (rate_t is None or rate_t > math.log1p(share)) and (cap is None or cap > share):
        raise DomainError(f"{what} expects more than {budget} = {limit} events")


def stit_mean_jumps(window: ConvexPolygon, measure: LineMeasureSpec, t: float) -> float:
    """E N_t - 1, the mean jump count of STIT in `window` by time t:
    t * W(window) + (t^2 / 2) * area(window) * crossing_measure(measure), the
    mean line count plus the mean crossing count of a Poisson line process
    of intensity t * measure in the window (1 + 4t + pi t^2 cells on the unit
    square under iso:1).  It follows from d/dt E N_t = E sum_c W(c)."""
    crossings = 0.5 * t * t * window.area * crossing_measure(measure)
    return t * hitting_measure(measure, window) + crossings


# ---------------------------------------------------------------------------
# the simulators


def _stit_mean_time(window: ConvexPolygon, measure: LineMeasureSpec, jumps: float) -> float:
    """The time t at which stit_mean_jumps(window, measure, t) = jumps > 0."""
    a = hitting_measure(measure, window)
    b = 0.5 * window.area * crossing_measure(measure)
    return 2.0 * jumps / (a + math.sqrt(a * a + 4.0 * b * jumps))


def stit_simulate(
    window: ConvexPolygon,
    measure: LineMeasureSpec,
    rng: np.random.Generator,
    *,
    max_time: float | None = None,
    max_jumps: int | None = None,
    seed: int | None = None,
) -> ProcessTrace:
    """STIT run by per-cell clocks of rate W(C) (`_run_clocks`); stops at
    `max_time` or after `max_jumps` jumps.

    A run that expects more than MAX_EXPECTED_DECISIONS jumps, by `max_time`
    (stit_mean_jumps) or by `max_jumps` if fewer, is refused with DomainError.
    """
    log_jumps, what = None, f"a cap of {max_jumps} jumps"
    if max_time is not None:
        jumps = stit_mean_jumps(window, measure, max_time) if max_time > 0.0 else 0.0
        log_jumps, what = math.log1p(jumps), f"t = {max_time:.6g} ({jumps:.3g} STIT jumps)"
    _check_expected_work(log_jumps, "MAX_EXPECTED_DECISIONS", what, cap=max_jumps)
    events = _run_clocks(
        window, measure, functools.partial(hitting_weights, measure),
        lambda expect, *_: _stit_mean_time(window, measure, expect), rng,
        max_time=max_time, max_jumps=max_jumps,
    )
    return ProcessTrace(window, measure, tuple(events), ModelTag.STIT, seed)


def cowan_el_simulate(
    window: ConvexPolygon,
    measure: LineMeasureSpec,
    rng: np.random.Generator,
    *,
    max_time: float | None = None,
    max_jumps: int | None = None,
    seed: int | None = None,
) -> ProcessTrace:
    """Equally-likely continuous model: every cell dies after an Exp(rate) life,
    rate = W(window) (`_run_clocks`), so k cells wait Exp(k * rate) for a uniform pick.

    Every event is a jump; a run that expects more than
    MAX_EXPECTED_DECISIONS events, by `max_time` or by `max_jumps` if fewer,
    is refused.  With `max_jumps`, each horizon is sized from the cells alive
    (`COWAN_AIM`).
    """
    rate = hitting_measure(measure, window)
    rate_t = None if max_time is None else rate * max_time
    what = f"a cap of {max_jumps} jumps" if rate_t is None else f"rate * t = {rate_t:.6g}"
    _check_expected_work(rate_t, "MAX_EXPECTED_DECISIONS", what, cap=max_jumps)

    def aim(expect: float, start: float, alive: int, needed: float) -> float:
        """The time by which `alive` cells expect min(needed, COWAN_AIM * alive) cuts after `start`."""
        return start + math.log1p(min(needed, COWAN_AIM * alive) / alive) / rate

    events = _run_clocks(
        window, measure, lambda polys: np.full(len(polys), rate), aim, rng,
        max_time=max_time, max_jumps=max_jumps,
    )
    return ProcessTrace(window, measure, tuple(events), ModelTag.COWAN_EL, seed)


def initial_quasi_state(window: ConvexPolygon) -> QuasiCellState:
    return QuasiCellState(quasi_cells=(window,), decision_count=0, jump_count=0)


def mecke_discrete_step(
    state: QuasiCellState,
    measure: LineMeasureSpec,
    window: ConvexPolygon,
    rng: np.random.Generator,
) -> tuple[QuasiCellState, TraceEvent]:
    """One decision: uniform quasi-cell choice, one window-hitting line."""
    slots = list(state.quasi_cells)
    n = len(slots)
    idx, line, parts = _decide(slots.__getitem__, n, measure, window, rng)
    far, origin = parts.negative_part, parts.positive_part
    _apply_split(slots, idx, far, origin)
    jump = far is not None and origin is not None
    state = QuasiCellState(tuple(slots), state.decision_count + 1, state.jump_count + jump)
    return state, TraceEvent(n, idx, line, jump)


def mecke_discrete_simulate(
    window: ConvexPolygon,
    measure: LineMeasureSpec,
    rng: np.random.Generator,
    *,
    max_decisions: int | None = None,
    max_jumps: int | None = None,
    seed: int | None = None,
) -> ProcessTrace:
    """Run decisions (`_mecke_run`) until the stop rule; events carry 1-based
    decision indices.

    A run that expects more than MAX_EXPECTED_DECISIONS decisions, by
    `max_jumps` = N or by `max_decisions` if fewer, is refused with
    DomainError: by the equivalence with STIT, N jumps come at about t_N =
    `_stit_mean_time(N)` of the equally-likely clock, which has made
    expm1(W(window) * t_N) decisions by then."""
    rate_t, what = None, f"a cap of {max_decisions} decisions"
    if max_jumps is not None:
        rate_t = hitting_measure(measure, window) * _stit_mean_time(window, measure, max(max_jumps, 0))
        what = f"{max_jumps} jumps, due near rate * t = {rate_t:.6g},"
    _check_expected_work(rate_t, "MAX_EXPECTED_DECISIONS", what, cap=max_decisions)
    events = _mecke_run(window, measure, rng, max_decisions=max_decisions, max_jumps=max_jumps)
    return ProcessTrace(window, measure, tuple(events), ModelTag.MECKE_DISCRETE, seed)


def mecke_continuous_simulate(
    window: ConvexPolygon,
    measure: LineMeasureSpec,
    rng: np.random.Generator,
    *,
    max_time: float | None = None,
    seed: int | None = None,
) -> ProcessTrace:
    """Discrete Mecke process driven by the equally-likely clock up to `max_time`.

    With n quasi-cells extant the next decision arrives after an
    Exp(n * rate) wait, so the decision count by time t is geometric and the
    trajectory for a smaller horizon is a prefix of the same run.  The
    expected decision count is expm1(rate * t); past MAX_EXPECTED_DECISIONS
    the run is refused with DomainError.  `final_state` gives the quasi-cells.
    """
    rate = hitting_measure(measure, window)
    if max_time is not None:
        rate_t = rate * max_time
        _check_expected_work(rate_t, "MAX_EXPECTED_DECISIONS", f"rate * t = {rate_t:.6g}")
    events = _mecke_run(window, measure, rng, Clock(rate), max_time=max_time)
    return ProcessTrace(window, measure, tuple(events), ModelTag.MECKE_CONTINUOUS, seed)


# ---------------------------------------------------------------------------
# replay and derived statistics


class Written(NamedTuple):
    """The cells a wave left in slots: the slots, their cells as `batch.Polys`
    rows, and whether each is final (no later event reads its slot)."""

    slots: np.ndarray
    cells: Polys
    final: np.ndarray


def _depths(cells: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per event, its depth; per slot, the depth of its last writer.  Event i
    reads slot cells[i], written last by an earlier event or holding the
    window (depth 0), and writes it and slot i + 1; its depth is one more than
    the writer's.  So two events of one depth never share a slot, and a slot
    written at depth d is read next, if at all, at depth d + 1."""
    slot_depth = [0] * (len(cells) + 1)
    depth = []
    for i, c in enumerate(cells):
        d = slot_depth[c] + 1
        slot_depth[c] = slot_depth[i + 1] = d
        depth.append(d)
    return np.array(depth), np.array(slot_depth)


def replay(trace: ProcessTrace) -> Iterator[tuple[np.ndarray, np.ndarray, BatchSplit, Written]]:
    """Replay `trace` in dependency waves: the events of one depth (`_depths`)
    whose slot holds a cell cut their cells in one `batch.split_cells` call,
    in pieces of at most WAVE_ROWS.  Only the cells the last depth left and
    the next one reads are kept.

    Yields per wave, in depth order: the indices of its events whose slot
    held a cell, in time order; the parts they cut, numbered 0 for the window
    and 2i + 1 and 2i + 2 for the far and the origin part cut by event i;
    their `BatchSplit`, row for row; and the cells they left (`Written`).  As
    in the simulators (`_apply_split`), a cut slot keeps the far part and slot
    i + 1 takes the origin part; a cell left whole on the origin side moves to
    slot i + 1, one left on the far side stays.  An event on an empty slot
    needs no geometry; a DEGENERATE row raises DegenerateSplit.
    """
    n = len(trace.events)
    if not n:
        return
    cell = np.fromiter((e.cell_index for e in trace.events), np.int64, n)
    theta = np.fromiter((e.line.theta for e in trace.events), float, n)
    offset = np.fromiter((e.line.offset for e in trace.events), float, n)
    depth, last = _depths(cell.tolist())
    part = np.full(n + 1, -1)  # per slot, the part it holds; -1 none
    part[0] = 0
    held, row = Polys.of([trace.window]), np.zeros(n + 1, dtype=np.int64)
    by_depth = np.argsort(depth, kind="stable")
    for group in np.split(by_depth, np.flatnonzero(np.diff(depth[by_depth])) + 1):
        group = group[part[cell[group]] >= 0]  # an event of one depth reads no slot another one writes
        kept_slots, kept = [], []
        for j in range(0, group.size, WAVE_ROWS):
            wave = group[j : j + WAVE_ROWS]
            at = cell[wave]
            before = held.take(row[at])
            res = split_cells(before, theta[wave], offset[wave])
            if (res.status == DEGENERATE).any():
                event = wave[res.status == DEGENERATE][0]
                raise DegenerateSplit(f"event {event} splits its cell into two degenerate parts")
            target = part[at]
            cut, moved = res.status == CUT, res.status == WHOLE_ORIGIN
            whole = ~cut  # left whole: moved to slot i + 1, or kept in place
            e = wave[cut]
            slots = np.concatenate([at[cut], e + 1, np.where(moved, wave + 1, at)[whole]])
            left = Polys.stack([res.parts, before.take(whole)])
            part[wave[moved] + 1], part[at[moved]] = part[at[moved]], -1
            part[at[cut]], part[e + 1] = 2 * e + 1, 2 * e + 2
            final = last[slots] == depth[wave[0]]
            yield wave, target, res, Written(slots, left, final)
            kept_slots.append(slots[~final])
            kept.append(left.take(~final))
        if kept:
            held = Polys.stack(kept)
            row[np.concatenate(kept_slots)] = np.arange(len(held))


def final_state(trace: ProcessTrace) -> QuasiCellState:
    """The slots after the last event, each cell a `ConvexPolygon` of its
    replayed vertices (so its measures are those of `geometry.split`)."""
    quasi_cells = [trace.window] if not trace.events else [None] * (len(trace.events) + 1)
    # neighbouring cells share their vertex tuples, as split's parts do; a
    # point with a zero coordinate is not shared, as 0.0 == -0.0
    points: dict[Point, Point] = {}
    for *_, written in replay(trace):
        final = written.cells.take(written.final)
        for s, ring, k in zip(
            written.slots[written.final].tolist(), final.verts.tolist(), final.nv.tolist()
        ):
            ring = tuple(p if 0.0 in p else points.setdefault(p, p) for p in map(tuple, ring[:k]))
            quasi_cells[s] = ConvexPolygon._from_ring(ring, *_measure_ring(ring))
    return QuasiCellState(
        quasi_cells=tuple(quasi_cells),
        decision_count=len(trace.events),
        jump_count=trace.jump_count,
    )


def _hitting_measures(measure: LineMeasureSpec, polys: Polys) -> list[float]:
    """`hitting_measure` of each row as a `ConvexPolygon`, bit for bit."""
    rings = polys.verts.tolist()
    return [hitting_measure(measure, ConvexPolygon(r[:k])) for r, k in zip(rings, polys.nv.tolist())]


def l_sequence(trace: ProcessTrace) -> LSequence:
    """Normalized hitting-weight sequence of the trace's cell configurations:
    a running total, updated at each cut in time order by the weights of the
    two parts less that of the cell cut."""
    measure = trace.measure
    rate = hitting_measure(measure, trace.window)
    weight = np.empty(2 * len(trace.events) + 1)  # per part, numbered as `replay` numbers them
    weight[0] = rate
    cuts, targets = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for wave, target, res, _ in replay(trace):
        cut = res.status == CUT
        e = wave[cut]
        weight[np.concatenate([2 * e + 1, 2 * e + 2])] = _hitting_measures(measure, res.parts)
        cuts.append(e)
        targets.append(target[cut])
    e = np.concatenate(cuts)
    order = np.argsort(e)
    e, target = e[order], np.concatenate(targets)[order]
    # add.accumulate sums in order: the running total, bit for bit
    total = np.cumsum(np.concatenate([[rate], weight[2 * e + 1] + weight[2 * e + 2] - weight[target]]))
    return LSequence(values=(1.0, *(total[1:] / rate).tolist()), rate=rate)
