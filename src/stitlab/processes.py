"""The tessellation processes and their cell-configuration statistics.

All four models are one split process on a list of slots (cells, or empty
quasi-cells as None in the Mecke models): an event picks a slot and a line,
the slot keeps the far part of the cut and the origin part is appended.  A
*selector* picks the slot and the line, a *clock* times the next event:
STIT's is its selector's total weight, every other one a `batch.Clock` of
the slot count n (shared with the lockstep simulators and `stats`).

* STIT: a cell picked in proportion to its hitting weight W(C), cut by a
  line from its normalized hitting distribution; clock rate sum_j W(C_j).
* Cowan equally-likely: a cell picked uniformly, cut by a line from its own
  hitting distribution; the equally-likely clock, rate n * W(window), whose
  event count by time t is geometric.
* Mecke discrete: one of the n quasi-cells picked uniformly, cut by a line
  from the window's hitting distribution; no clock, event n is decision n.
  A decision is a jump only when the quasi-cell is nonempty and the line hits it.
* Mecke continuous: the Mecke selector driven by the equally-likely clock.

The cell selectors redraw until the line splits the cell, so every STIT and
Cowan event is a jump.  The negative controls in `stats` are two more clocks
for the Mecke selector.  Each event draws in the order clock, selection, line.

Every simulator takes `(window, measure, rng, *, <stop keywords>, seed=None)`
and returns a `ProcessTrace`; `replay` rebuilds any state from it.  It cuts
the trace's cells in dependency waves: an event's depth is one more than
that of the event that last wrote the slot it cuts, so the events of one
depth share no slot and each depth is one `batch.split_cells` call (a trace
of 8000 STIT jumps has 30 to 37 depths).  The split rules, and the vertices
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
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .batch import CUT, DEGENERATE, WHOLE_ORIGIN, BatchSplit, Clock, Polys, split_cells
from .errors import DegenerateSplit, DomainError, GeometryError, LCollision, SamplerStall
from .geometry import ConvexPolygon, Line, Point, SplitResult, _measure_ring, split
from .line_measure import (
    MAX_REJECTION_ITERATIONS,
    LineMeasureSpec,
    crossing_measure,
    hitting_measure,
    sample_hitting_line,
)

L_MIN_RELATIVE_GAP = 1e-9
# A timed run without a jump cap is refused (_check_expected_work) at a
# horizon where it expects more events than this: expm1(rate * t) decisions of
# the equally-likely clock, or stit_mean_jumps jumps of STIT.
MAX_EXPECTED_DECISIONS = 10**6
# stats.EquivalenceConfig refuses a Cowan check whose replicas race the
# equally-likely clock through more events than this in total,
# cowan_replicas * expm1(rate * t) at the largest t of its grid.
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
    starts at exactly 1, stays within [1, k] and increases strictly.
    """

    values: tuple[float, ...]
    rate: float

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise DomainError("sequence must not be empty")
        if vals[0] != 1.0:
            raise DomainError(f"first value must be exactly 1.0, got {vals[0]!r}")
        if not self.rate > 0.0:
            raise DomainError(f"rate must be positive, got {self.rate!r}")
        for k, v in enumerate(vals, start=1):
            if not 1.0 <= v <= k * (1.0 + 1e-12):
                raise DomainError(f"value {v!r} at position {k} outside [1, {k}]")
        for a, b in zip(vals, vals[1:]):
            if b - a <= L_MIN_RELATIVE_GAP * b:
                raise LCollision(f"values {a!r} and {b!r} closer than the minimum gap")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def replica_rng(seed: int, index: int = 0, *key: int) -> np.random.Generator:
    """Deterministic child stream (index, *key) of master `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, *key)))


# ---------------------------------------------------------------------------
# the split engine: a selector picks the slot and the line, a clock times events


def _apply_split(slots: list, idx: int, far, origin) -> None:
    """The slot update of every model: the split slot keeps the far part and
    the origin part is appended (an empty slot stays None and appends None)."""
    slots[idx] = far
    slots.append(origin)


_NO_PARTS = SplitResult(None, None, 0.0)


def _cut(cell: ConvexPolygon | None, line: Line) -> SplitResult:
    """`cell` cut by `line`: the far part is `negative_part`, the origin part
    `positive_part`; an empty slot (None) has neither."""
    return _NO_PARTS if cell is None else split(cell, line)


def _grow(
    slots: list,
    pick: Callable,
    clock: Callable | None,
    rng: np.random.Generator,
    *,
    max_time: float | None = None,
    max_jumps: int | None = None,
    max_decisions: int | None = None,
) -> list[TraceEvent]:
    """Run the split process on `slots`, in place, until a stop rule fires.

    `pick(slots, rng)` returns (slot index, line, far part, origin part);
    `clock(len(slots))` is the rate of the next event, or `clock` is None and
    event n is the n-th decision (n = len(slots) before it).  A clock rate that is
    not finite and positive, or an event time that is not finite, raises
    DomainError before the event is recorded (hitting weights can underflow
    or overflow for extreme measure scales).
    """
    if max_time is None and max_jumps is None and max_decisions is None:
        raise DomainError("a stopping rule is required")
    if max_time is not None and not 0.0 <= max_time < math.inf:
        raise DomainError(f"time must be finite and nonnegative, got {max_time!r}")
    inf = math.inf
    time_cap = inf if max_time is None else max_time
    jump_cap = inf if max_jumps is None else max_jumps
    slot_cap = inf if max_decisions is None else max_decisions
    exponential, isfinite, apply_split = rng.exponential, math.isfinite, _apply_split
    events: list[TraceEvent] = []
    record = events.append
    t, jumps = 0.0, 0
    while jumps < jump_cap and len(slots) <= slot_cap:
        if clock is None:
            t = len(slots)
        else:
            rate = clock(len(slots))
            if not 0.0 < rate < inf:
                raise DomainError(f"clock rate must be finite and positive, got {rate!r}")
            t += exponential(1.0 / rate)
            if t > time_cap:
                break
            if not isfinite(t):
                raise DomainError(f"event time is not finite ({t!r}) at rate {rate!r}")
        idx, line, far, origin = pick(slots, rng)
        apply_split(slots, idx, far, origin)
        jump = far is not None and origin is not None
        jumps += jump
        record(TraceEvent(t, idx, line, jump))
    return events


def _cut_until_split(measure: LineMeasureSpec, slots: list, rng, draw_index) -> tuple:
    """Draw a cell index and a line from that cell's hitting distribution
    until the line splits the cell; the clock is not re-advanced.  Gives up
    with SamplerStall after MAX_REJECTION_ITERATIONS draws (a cell too small
    to split would otherwise hang the run)."""
    for _ in range(MAX_REJECTION_ITERATIONS):
        idx = draw_index(rng)
        line = sample_hitting_line(measure, slots[idx], rng)
        try:
            parts = _cut(slots[idx], line)
        except DegenerateSplit:
            continue
        far, origin = parts.negative_part, parts.positive_part
        if far is not None and origin is not None:
            return idx, line, far, origin
    raise SamplerStall("no line split the selected cells within the iteration budget")


class _SumTree:
    """Fenwick tree over a growing list of weights (Fenwick 1994, "A new data
    structure for cumulative frequency tables"): add to a weight, append a
    weight, and find where the running sum passes u, each in O(log k).

    `nodes` is 1-based: nodes[i] sums the weights at 0-based positions
    i - lowbit(i) .. i - 1.
    """

    def __init__(self) -> None:
        self.nodes = [0.0]

    def add(self, index: int, delta: float) -> None:
        nodes = self.nodes
        i = index + 1
        while i < len(nodes):
            nodes[i] += delta
            i += i & -i

    def append(self, weight: float) -> None:
        nodes = self.nodes
        i = len(nodes)
        j, stop = i - 1, i - (i & -i)
        while j > stop:  # the new node also covers the nodes to its left
            weight += nodes[j]
            j -= j & -j
        nodes.append(weight)

    def find(self, u: float) -> int:
        """The first index whose prefix sum exceeds u; the last index when
        none does (u at or past the total)."""
        nodes = self.nodes
        n = len(nodes) - 1
        pos = 0
        step = 1 << (n.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= n and nodes[nxt] <= u:
                pos = nxt
                u -= nodes[nxt]
            step >>= 1
        return pos if pos < n else n - 1


class _ByWeight:
    """STIT selector: a cell picked in proportion to its hitting weight, found
    in a `_SumTree` over the weights.  The running total of the weights is the
    rate of the STIT clock (`rate`)."""

    def __init__(self, measure: LineMeasureSpec, window: ConvexPolygon) -> None:
        self.measure = measure
        self.weights = [hitting_measure(measure, window)]
        self.total = self.weights[0]
        self.tree = _SumTree()
        self.tree.append(self.total)

    def rate(self, n: int) -> float:
        return self.total

    def _index(self, rng: np.random.Generator) -> int:
        return self.tree.find(self.total * rng.random())

    def __call__(self, slots: list, rng: np.random.Generator) -> tuple:
        idx, line, far, origin = _cut_until_split(self.measure, slots, rng, self._index)
        w_far, w_origin = hitting_measure(self.measure, far), hitting_measure(self.measure, origin)
        self.total += w_far + w_origin - self.weights[idx]
        self.tree.add(idx, w_far - self.weights[idx])
        self.tree.append(w_origin)
        _apply_split(self.weights, idx, w_far, w_origin)  # weights mirror the slots
        return idx, line, far, origin


def _uniform_cell(measure: LineMeasureSpec) -> Callable:
    """Cowan selector: a cell picked uniformly."""
    return lambda slots, rng: _cut_until_split(
        measure, slots, rng, lambda rng: int(rng.integers(len(slots)))
    )


def _uniform_slot(measure: LineMeasureSpec, window: ConvexPolygon) -> Callable:
    """Mecke selector: one of the n quasi-cells picked uniformly, one window
    line.  A degenerate split draws the decision (slot and line) again, as
    the batched stepper does; past MAX_REJECTION_ITERATIONS draws it raises
    SamplerStall."""

    def pick(slots: list, rng: np.random.Generator) -> tuple:
        for _ in range(MAX_REJECTION_ITERATIONS):
            idx = int(rng.integers(len(slots)))
            line = sample_hitting_line(measure, window, rng)
            try:
                parts = _cut(slots[idx], line)
            except DegenerateSplit:
                continue
            return idx, line, parts.negative_part, parts.positive_part
        raise SamplerStall("degenerate splits exceeded the iteration budget")

    return pick


def _check_expected_work(rate_t: float, budget: str, what: str, copies: int = 1) -> None:
    """Refuse, with DomainError, `copies` runs of the equally-likely clock to
    W(window) * t = rate_t when their copies * expm1(rate_t) expected events
    pass the budget named `budget` (STIT passes log1p of its mean jump count):
    they would spin for hours.  Compared in log1p space, as expm1 overflows
    past rate_t ~ 710; a NaN, or no copies, passes for the caller's own checks."""
    limit = globals()[budget]
    if copies > 0 and rate_t > math.log1p(limit / copies):
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


def stit_simulate(
    window: ConvexPolygon,
    measure: LineMeasureSpec,
    rng: np.random.Generator,
    *,
    max_time: float | None = None,
    max_jumps: int | None = None,
    seed: int | None = None,
) -> ProcessTrace:
    """Global-clock STIT run; stops at `max_time` or after `max_jumps` jumps.

    Without `max_jumps`, a `max_time` at which STIT expects more than
    MAX_EXPECTED_DECISIONS jumps (stit_mean_jumps) is refused with DomainError.
    """
    if max_jumps is None and max_time is not None and max_time > 0.0:
        jumps = stit_mean_jumps(window, measure, max_time)
        what = f"t = {max_time:.6g} ({jumps:.3g} STIT jumps)"
        _check_expected_work(math.log1p(jumps), "MAX_EXPECTED_DECISIONS", what)
    by_weight = _ByWeight(measure, window)
    events = _grow(
        [window], by_weight, by_weight.rate, rng, max_time=max_time, max_jumps=max_jumps
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
    """Equally-likely continuous model: Exp(k * rate) waits, uniform cell choice.

    Every event is a jump; without `max_jumps`, a `max_time` at which the
    clock expects more than MAX_EXPECTED_DECISIONS events is refused.
    """
    rate = hitting_measure(measure, window)
    if max_jumps is None and max_time is not None:
        rate_t = rate * max_time
        _check_expected_work(rate_t, "MAX_EXPECTED_DECISIONS", f"rate * t = {rate_t:.6g}")
    events = _grow(
        [window], _uniform_cell(measure), Clock(rate), rng,
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
    (event,) = _grow(slots, _uniform_slot(measure, window), None, rng, max_decisions=len(slots))
    state = QuasiCellState(tuple(slots), state.decision_count + 1, state.jump_count + event.jump)
    return state, event


def mecke_discrete_simulate(
    window: ConvexPolygon,
    measure: LineMeasureSpec,
    rng: np.random.Generator,
    *,
    max_decisions: int | None = None,
    max_jumps: int | None = None,
    seed: int | None = None,
) -> ProcessTrace:
    """Run decisions until the stop rule; events carry 1-based decision indices."""
    events = _grow(
        [window], _uniform_slot(measure, window), None, rng,
        max_decisions=max_decisions, max_jumps=max_jumps,
    )
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
    events = _grow(
        [window], _uniform_slot(measure, window), Clock(rate), rng, max_time=max_time
    )
    return ProcessTrace(window, measure, tuple(events), ModelTag.MECKE_CONTINUOUS, seed)


# ---------------------------------------------------------------------------
# replay and derived statistics


WAVE_ROWS = 256  # the most cells one `split_cells` call of a replay cuts: bounds its working set


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
    cut their cells in one `batch.split_cells` call, in pieces of at most
    WAVE_ROWS.  Only the cells the last depth left and the next one reads are
    kept.

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
        kept_slots, kept = [], []
        for j in range(0, group.size, WAVE_ROWS):
            wave = group[j : j + WAVE_ROWS]
            wave = wave[part[cell[wave]] >= 0]
            if not wave.size:
                continue
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
            left = Polys.stack([res.far, res.origin, before.take(whole)])
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
    two parts less that of the cell cut, as `_ByWeight` updates its own."""
    measure = trace.measure
    rate = hitting_measure(measure, trace.window)
    weight = np.empty(2 * len(trace.events) + 1)  # per part, numbered as `replay` numbers them
    weight[0] = rate
    cuts, targets = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for wave, target, res, _ in replay(trace):
        cut = res.status == CUT
        e = wave[cut]
        weight[2 * e + 1] = _hitting_measures(measure, res.far)
        weight[2 * e + 2] = _hitting_measures(measure, res.origin)
        cuts.append(e)
        targets.append(target[cut])
    e = np.concatenate(cuts)
    order = np.argsort(e)
    e, target = e[order], np.concatenate(targets)[order]
    # add.accumulate sums in order: the running total, bit for bit
    total = np.cumsum(np.concatenate([[rate], weight[2 * e + 1] + weight[2 * e + 2] - weight[target]]))
    return LSequence(values=(1.0, *(total[1:] / rate).tolist()), rate=rate)
