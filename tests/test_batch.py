"""The batched geometry against the scalar oracle (`geometry.split`), the
lockstep Mecke stepper against the scalar one, and the STIT cell counts of
the equivalence check against `stit_simulate`."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stitlab import batch, processes
from stitlab.errors import DegenerateSplit, DomainError
from stitlab.geometry import ConvexPolygon, Line, split
from stitlab.line_measure import DirectionMixture, IsotropicMeasure, hitting_measure
from stitlab.batch import Clock
from stitlab.processes import stit_mean_jumps, stit_simulate
from stitlab.stats import chi_square_gof, counts_from_values, ks_test, two_sample_chi_square

from conftest import random_convex_polygon, scalar_mecke
from test_geometry import polygons_and_lines

ISO = IsotropicMeasure(1.0)
DIRS = DirectionMixture(((0.0, 1.0), (math.pi / 3, 0.5), (2.0, 0.8)))
UNIT_SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def _ring(polys: batch.Polys, i: int) -> np.ndarray:
    return polys.verts[i, : polys.nv[i]]


class TestSplitAgainstScalar:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(polygons_and_lines(), min_size=1, max_size=6))
    def test_same_children_as_split(self, cases):
        polys = batch.Polys.of([poly for poly, _ in cases])
        theta = np.array([line.theta for _, line in cases])
        offset = np.array([line.offset for _, line in cases])
        res = batch.split_cells(polys, theta, offset)
        cut = 0
        for i, (poly, line) in enumerate(cases):
            try:
                want = split(poly, line)
            except DegenerateSplit:
                assert res.status[i] == batch.DEGENERATE
                continue
            if want.positive_part is None or want.negative_part is None:
                whole = batch.WHOLE_ORIGIN if want.positive_part is poly else batch.WHOLE_FAR
                assert res.status[i] == whole
                assert res.chord[i] == 0.0
                continue
            assert res.status[i] == batch.CUT
            assert np.array_equal(res.ends[cut], want.chord_ends)  # bit for bit
            for got, part in ((res.origin, want.positive_part), (res.far, want.negative_part)):
                np.testing.assert_allclose(_ring(got, cut), part.vertices, rtol=0.0, atol=1e-12)
                assert got.area[cut] == pytest.approx(part.area, rel=1e-12)
                assert got.perimeter[cut] == pytest.approx(part.perimeter, rel=1e-12)
                assert got.diameter[cut] == pytest.approx(part.diameter, rel=1e-12)
            # criterion 08's conservation tolerances
            area = res.origin.area[cut] + res.far.area[cut]
            perimeter = res.origin.perimeter[cut] + res.far.perimeter[cut]
            assert abs(area - poly.area) <= 1e-9 * poly.area
            assert abs(perimeter - poly.perimeter - 2.0 * res.chord[i]) <= 1e-9 * poly.perimeter
            cut += 1
        assert cut == len(res.origin) == len(res.far) == len(res.ends)

    def test_near_duplicate_vertices_are_deduped_as_split_does(self):
        # two vertices 1e-12 apart, well inside EPS_GEOM * diameter
        poly = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 1.0 - 1e-12)))
        theta = np.linspace(0.05, 3.0, 12)
        offset = np.array([Line(th, 0.0).signed_distance((0.4, 0.6)) for th in theta])  # through it
        res = batch.split_cells(batch.Polys.of([poly] * len(theta)), theta, offset)
        assert np.all(res.status == batch.CUT)
        for i, (th, p) in enumerate(zip(theta, offset)):
            want = split(poly, Line(th, p))
            for got, part in ((res.origin, want.positive_part), (res.far, want.negative_part)):
                assert got.nv[i] == len(part.vertices)
                np.testing.assert_allclose(_ring(got, i), part.vertices, rtol=0.0, atol=1e-12)
        assert min(res.origin.nv.min(), res.far.nv.min()) >= 3
        assert (res.origin.nv + res.far.nv < 5 + 4).any()  # some side lost its duplicate

    def test_padding_is_ignored(self):
        # a square stored in eight columns splits as it does in four
        square = batch.Polys.of([UNIT_SQUARE])
        wide = square.widened(8)
        theta, offset = np.array([0.3]), np.array([0.2])
        a, b = batch.split_cells(square, theta, offset), batch.split_cells(wide, theta, offset)
        assert a.status[0] == b.status[0] == batch.CUT
        np.testing.assert_array_equal(_ring(a.origin, 0), _ring(b.origin, 0))
        np.testing.assert_array_equal(_ring(a.far, 0), _ring(b.far, 0))


def _pinned_batch() -> tuple[batch.Polys, np.ndarray, np.ndarray]:
    """A fixed batch, padded to 12 columns, with iso lines on the first half
    and dirs: lines on the rest, then hand-made rows: WHOLE_FAR and
    WHOLE_ORIGIN misses, a near-duplicate vertex pair that takes the dedupe
    pass, a sliver triangle cut into two slivers (DEGENERATE) and a corner
    cut below the area tolerance (left whole); the square before them is cut
    through a vertex."""
    rng = np.random.default_rng(18)
    polygons = [random_convex_polygon(rng) for _ in range(24)] + [
        UNIT_SQUARE,
        ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 1.0 - 1e-12))),
        ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.5, 3e-9))),
        UNIT_SQUARE,
    ]
    polys = batch.Polys.of(polygons).widened(12)
    half = len(polygons) // 2
    theta, offset = np.empty(len(polygons)), np.empty(len(polygons))
    for rows, measure in ((slice(None, half), ISO), (slice(half, None), DIRS)):
        theta[rows], offset[rows] = batch.sample_lines(measure, polys.take(rows), rng)
    theta[:4] = 0.0
    offset[:4] = -0.3, 10.0, 0.09, -20.0  # the line between the cell and 0, or both on one side
    theta[-4:] = 0.3, 0.3, math.pi / 2, -math.pi / 4
    offset[-4:] = 0.0, Line(0.3, 0.0).signed_distance((0.4, 0.6)), -0.5, 1e-5
    return polys, theta, offset


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# recorded before the split kernel was restructured: every bit of its output stays
GOLDEN_SPLIT_DIGEST = "2bc0a2bd6a71b4edf8149421fcb0e3102eb84506b46116fc3c872cdbea96f696"
# the chord endpoints of the same split, recorded when `split_cells` began to return them
GOLDEN_ENDS_DIGEST = "8863537c3ebe844f7c247026a0c4424ee566ee957ccb98ff4371c5d10c97d6cc"
# the whole output of the split of `_cut_batch`, recorded before the kernel
# stacked its sides far-then-origin and skipped the closing take
GOLDEN_CUT_SPLIT_DIGEST = "514e91deb412886e34c1b1724700578a75dd6085442f55afadaf9c03bfec3458"
# the STIT and Mecke cell-count histograms at two depths, recorded when STIT
# came to be counted by the per-cell clocks (`processes.stit_cell_counts`);
# the Mecke histograms are those of the lockstep stepper before that change
GOLDEN_DEPTH_DIGESTS = {
    "square-iso": "62e57834d38bfc79e9ba7596ef945e6bde0d71d5d5398ecd65d1103510f9fa45",
    "triangle-dirs": "3db1342cf85586a7f857608af7a5de01f8d0c96003f5ae52d718943c9438b0bf",
}


def _cut_batch() -> tuple[batch.Polys, np.ndarray, np.ndarray]:
    """Forty random polygons, each cut by a line through a random inner
    point, but the first three, which their lines miss: every row the lines
    cross is CUT, so the stack of sides is the parts as it is."""
    rng = np.random.default_rng(24)
    polys = batch.Polys.of([random_convex_polygon(rng) for _ in range(40)])
    theta = rng.uniform(0.0, math.pi, len(polys))
    inner = np.einsum("rv,rvc->rc", rng.dirichlet(np.ones(polys.verts.shape[1]), len(polys)), polys.verts)
    offset = np.array([Line(th, 0.0).signed_distance(tuple(p)) for th, p in zip(theta, inner)])
    offset[:3] = 50.0, -50.0, 30.0
    return polys, theta, offset


class TestSplitPinned:
    def test_split_cells_bit_for_bit(self):
        res = batch.split_cells(*_pinned_batch())
        assert set(res.status) == {batch.CUT, batch.WHOLE_ORIGIN, batch.WHOLE_FAR, batch.DEGENERATE}
        np.testing.assert_array_equal(res.status[-4:], [batch.CUT, batch.CUT, batch.DEGENERATE, batch.WHOLE_FAR])
        digest = _digest(res.status, res.chord, *res.origin.arrays(), *res.far.arrays())
        assert digest == GOLDEN_SPLIT_DIGEST

    def test_chord_ends_bit_for_bit(self):
        polys, theta, offset = _pinned_batch()
        res = batch.split_cells(polys, theta, offset)
        rows = np.flatnonzero(res.status == batch.CUT)
        for row, ends in zip(rows, res.ends):
            ring = tuple(map(tuple, _ring(polys, row).tolist()))
            want = split(ConvexPolygon(ring), Line(theta[row], offset[row])).chord_ends
            assert np.array_equal(ends, want)
        assert _digest(res.ends) == GOLDEN_ENDS_DIGEST

    def test_every_crossed_row_cut_bit_for_bit(self):
        res = batch.split_cells(*_cut_batch())
        np.testing.assert_array_equal(res.status[:3], batch.WHOLE_ORIGIN)
        np.testing.assert_array_equal(res.status[3:], batch.CUT)
        assert _digest(res.status, res.chord, *res.parts.arrays(), res.ends) == GOLDEN_CUT_SPLIT_DIGEST

    def test_a_wide_batch_splits_each_row_as_alone(self):
        # np.add.reduce adds a row of up to 7 columns in order and a wider one
        # pairwise, so a part's area and perimeter can move in their last bits
        # with the widest row of its call; the rest is the row's own
        polys, theta, offset = _pinned_batch()
        res = batch.split_cells(polys, theta, offset)
        assert res.parts.verts.shape[1] >= 8
        cut = 0
        for i in range(len(polys)):
            alone = batch.split_cells(polys.take([i]), theta[i : i + 1], offset[i : i + 1])
            assert (alone.status[0], alone.chord[0]) == (res.status[i], res.chord[i])
            if res.status[i] != batch.CUT:
                continue
            for got, own in ((res.far, alone.far), (res.origin, alone.origin)):
                assert got.nv[cut] == own.nv[0]
                np.testing.assert_array_equal(_ring(got, cut), _ring(own, 0))
                assert got.diameter[cut] == own.diameter[0]
            np.testing.assert_array_equal(res.ends[cut], alone.ends[0])
            cut += 1
        assert cut == len(res.ends)

    @pytest.mark.parametrize("case", sorted(GOLDEN_DEPTH_DIGESTS))
    def test_cell_counts_at_depth_bit_for_bit(self, case):
        # t = 3 reaches rings much wider than the suite's t <= 1
        window, measure = {"square-iso": (UNIT_SQUARE, ISO), "triangle-dirs": (TRIANGLE, DIRS)}[case]
        grid = (1.0, 3.0)
        stit = processes.stit_cell_counts(window, measure, grid, 500, np.random.default_rng(3))
        clock = Clock(hitting_measure(measure, window))
        mecke = batch.mecke_cell_counts(window, measure, grid, 500, np.random.default_rng(3), clock)
        digest = hashlib.sha256(json.dumps([stit.tolist(), mecke.tolist()]).encode()).hexdigest()
        assert digest == GOLDEN_DEPTH_DIGESTS[case]


class TestEdgeBatches:
    def _assert_no_parts(self, res: batch.BatchSplit) -> None:
        for part in (res.origin, res.far):
            assert len(part) == 0
            for a in part.arrays()[1:]:
                assert a.shape == (0,)
        assert res.origin.verts.shape == res.far.verts.shape
        assert res.origin.verts.shape[0] == 0 and res.origin.verts.shape[2] == 2

    def test_no_rows(self):
        none = batch.Polys.of([UNIT_SQUARE]).take(np.zeros(0, dtype=np.int64))
        res = batch.split_cells(none, np.zeros(0), np.zeros(0))
        assert res.status.shape == res.chord.shape == (0,)
        self._assert_no_parts(res)

    def test_every_line_misses(self):
        polys = batch.Polys.of([UNIT_SQUARE, TRIANGLE, UNIT_SQUARE])
        theta = np.zeros(3)
        offset = np.array([5.0, -5.0, 0.5e-10])  # the last touches the cells' bottom edges
        res = batch.split_cells(polys, theta, offset)
        want = [
            batch.WHOLE_ORIGIN if split(poly, Line(0.0, p)).positive_part is poly else batch.WHOLE_FAR
            for poly, p in zip((UNIT_SQUARE, TRIANGLE, UNIT_SQUARE), offset)
        ]
        assert want == [batch.WHOLE_ORIGIN, batch.WHOLE_ORIGIN, batch.WHOLE_FAR]
        np.testing.assert_array_equal(res.status, want)
        np.testing.assert_array_equal(res.chord, 0.0)
        self._assert_no_parts(res)

    def test_apply_without_a_cut_is_a_no_op(self):
        block = batch._Mecke(ISO, batch.Polys.of([UNIT_SQUARE]), 3, Clock(4.0))
        before = [a.copy() for a in (*block.cells.arrays(), block.members, block.count)]
        used = block.used
        res = batch.split_cells(block.cells.take(np.arange(3)), np.zeros(3), np.full(3, 5.0))
        assert not (res.status == batch.CUT).any()
        block.apply(np.arange(3), np.arange(3), res)
        after = (*block.cells.arrays(), block.members, block.count)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        assert block.used == used


class TestBatchedMeasures:
    @pytest.mark.parametrize("measure", [ISO, DIRS], ids=["iso", "dirs"])
    def test_weights_and_support(self, measure):
        rng = np.random.default_rng(5)
        polygons = [random_convex_polygon(rng) for _ in range(50)]
        polys = batch.Polys.of(polygons)
        np.testing.assert_allclose(
            batch.hitting_weights(measure, polys),
            [hitting_measure(measure, p) for p in polygons], rtol=1e-12,
        )
        theta, offset = batch.sample_lines(measure, polys, rng)
        lo, hi = batch.support_intervals(polys.verts, theta)
        assert np.all((lo <= offset) & (offset <= hi))
        if isinstance(measure, DirectionMixture):
            assert set(theta) <= {th for th, _ in measure.atoms}


# ---------------------------------------------------------------------------
# the counts of many replicas against single runs: STIT's per-cell clocks over
# many windows against `stit_simulate`, bit for bit for one window and in law
# for many (which replica each cut counts for), and the lockstep Mecke stepper
# against the scalar one, in law

GRID = (0.3, 0.7)


def _scalar_counts(window, measure, seed: int, replicas: int, mecke: bool) -> list[dict]:
    """Cell-count histograms at GRID of `stit_simulate` runs, or of the scalar
    Mecke stepper under the equally-likely clock."""
    rng = np.random.default_rng(seed)
    counts = np.empty((replicas, len(GRID)), dtype=np.int64)
    for r in range(replicas):
        if mecke:
            events = scalar_mecke(window, measure, rng, rate=hitting_measure(measure, window),
                                  max_time=GRID[-1])
            times = [e.time for e in events if e.jump]
        else:
            times = [e.time for e in stit_simulate(window, measure, rng, max_time=GRID[-1]).events]
        counts[r] = [1 + sum(x <= t for x in times) for t in GRID]
    return [counts_from_values(counts[:, j]) for j in range(len(GRID))]


def _batched_counts(window, measure, seed: int, replicas: int, mecke: bool, grid=GRID) -> list[dict]:
    rng = np.random.default_rng(seed)
    if mecke:
        clock = Clock(hitting_measure(measure, window))
        hist = batch.mecke_cell_counts(window, measure, grid, replicas, rng, clock)
    else:
        hist = processes.stit_cell_counts(window, measure, grid, replicas, rng)
    return [{k: int(c) for k, c in enumerate(row) if c} for row in hist]


@pytest.mark.parametrize("mecke", [False, True], ids=["stit", "mecke"])
@pytest.mark.parametrize(
    "window, measure", [(UNIT_SQUARE, ISO), (TRIANGLE, DIRS)], ids=["square-iso", "triangle-dirs"]
)
def test_batched_counts_match_scalar(window, measure, mecke):
    scalar = _scalar_counts(window, measure, 71, 600, mecke)
    batched = _batched_counts(window, measure, 72, 4000, mecke)
    for a, b in zip(scalar, batched):
        _, p = two_sample_chi_square(a, b)
        assert p > 1e-3, (a, b)


@pytest.mark.parametrize("mecke", [False, True], ids=["stit", "mecke"])
@pytest.mark.parametrize(
    "window, measure", [(UNIT_SQUARE, ISO), (TRIANGLE, DIRS)], ids=["square-iso", "triangle-dirs"]
)
def test_mean_cell_count_matches_closed_form(window, measure, mecke):
    # E N_t = 1 + stit_mean_jumps, which is 1 + 4t + pi t^2 on the unit square
    # under iso:1 (the edge length intensity of STIT at time t is pi * t)
    grid = (0.5, 1.0, 2.0)
    for t, hist in zip(grid, _batched_counts(window, measure, 73, 10_000, mecke, grid)):
        values = np.repeat(list(hist), list(hist.values()))
        expected = 1.0 + stit_mean_jumps(window, measure, t)
        if measure is ISO:
            assert expected == pytest.approx(1.0 + 4.0 * t + math.pi * t * t, rel=1e-14)
        z = (values.mean() - expected) / math.sqrt(values.var(ddof=1) / values.size)
        assert abs(z) <= 4.0, (t, values.mean(), expected)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "window, measure", [(UNIT_SQUARE, ISO), (TRIANGLE, DIRS)], ids=["square-iso", "triangle-dirs"]
)
def test_one_stit_replica_is_stit_simulate_bit_for_bit(window, measure, seed):
    grid = (0.2, 0.5, 1.0)
    hist = processes.stit_cell_counts(window, measure, grid, 1, np.random.default_rng(seed))
    trace = stit_simulate(window, measure, np.random.default_rng(seed), max_time=max(grid))
    for g, row in zip(grid, hist):
        count = 1 + sum(e.time <= g for e in trace.events)
        assert row.tolist() == [0] * count + [1] + [0] * (row.size - count - 1)


def test_stit_refuses_a_rate_that_is_not_finite():
    # W(window) = 4e308 overflows to inf
    with pytest.raises(DomainError, match="finite and positive"):
        processes.stit_cell_counts(UNIT_SQUARE, IsotropicMeasure(1e308), (0.5,), 10, np.random.default_rng(0))


@pytest.mark.parametrize("clock", [Clock(math.inf), Clock(0.0), Clock(math.nan, per_slot=False)])
def test_mecke_refuses_a_rate_that_is_not_finite_and_positive(clock):
    with pytest.raises(DomainError, match="finite and positive"):
        batch.mecke_cell_counts(UNIT_SQUARE, ISO, (0.5,), 10, np.random.default_rng(0), clock)


def test_mecke_refuses_a_slot_count_past_int64():
    # the equally-likely clock holds about e^(rate * t) slots at time t, past 2^63
    # once rate * t passes about 44 (about 500 cells on the unit square)
    block = batch._Mecke(ISO, batch.Polys.of([UNIT_SQUARE]), 4, Clock(4.0))
    block.slots[:] = np.iinfo(np.int64).max - 10
    with pytest.raises(DomainError, match="int64"):
        block.wait(np.arange(4), np.zeros(4), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the draws that skip the empty slots


def _skip_p(n: int, k: int, draws: np.ndarray) -> float:
    """Chi-square p-value of skip draws against P(V >= v) = prod_{m=n}^{n+v-1}
    (1 - k/m) = Gamma(n - k + v) Gamma(n) / (Gamma(n - k) Gamma(n + v)), in
    bins whose edges grow geometrically (merged by chi_square_gof until each
    expects five draws)."""
    edges = np.unique(np.concatenate([[0], np.geomspace(1, 1e12, 80).astype(np.int64)]))

    def survival(v: int) -> float:
        lg = math.lgamma
        return math.exp(lg(n - k + v) - lg(n + v) + lg(n) - lg(n - k))

    mass = -np.diff([survival(int(v)) for v in edges] + [0.0])
    counts = counts_from_values(np.searchsorted(edges, draws, side="right") - 1)
    counts = {b: counts.get(b, 0) for b in range(mass.size)}  # every bin, drawn or not
    return chi_square_gof(counts, lambda b: mass[b], support_lo=0)[1]


@pytest.mark.parametrize("n, k", [(2, 1), (5, 3), (40, 2), (10**6, 7)])
def test_skip_follows_the_product_law(n, k):
    rng = np.random.default_rng(n + k)
    size = 20_000
    assert _skip_p(n, k, batch.skip(np.full(size, n), np.full(size, k), rng)) > 1e-3
    # the law must tell one cell more apart
    assert _skip_p(n, k, batch.skip(np.full(size, n), np.full(size, k + 1), rng)) < 1e-6


def test_skip_is_zero_when_every_slot_holds_a_cell():
    n = np.array([1, 2, 3, 50, 10**9])
    assert np.all(batch.skip(n, n, np.random.default_rng(1)) == 0)


@pytest.mark.parametrize(
    "clock", [Clock(2.5), Clock(2.5, per_slot=False)], ids=["per-slot", "constant"]
)
@pytest.mark.parametrize("n, w", [(1, 1), (3, 4), (30, 12)])
def test_clock_span_is_a_sum_of_exponential_waits(clock, n, w):
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(9 + n + w)
    size = 20_000
    span = clock.span(np.full(size, n), np.full(size, w), rng)
    direct = sum(rng.exponential(size=size) / clock(n + j) for j in range(w))
    assert ks_2samp(span, direct).pvalue > 1e-3
    if w == 1:  # a single wait: Exp(clock(n))
        assert ks_test(span, lambda x: -np.expm1(-clock(n) * x))[1] > 1e-3


def test_blocks_bound_peak_allocation(monkeypatch):
    # four times the replicas, in four times the blocks, must not take twice the memory
    monkeypatch.setattr(batch, "BLOCK", 256)

    def peak(replicas: int) -> int:
        tracemalloc.start()
        try:
            processes.stit_cell_counts(UNIT_SQUARE, ISO, (0.5,), replicas, np.random.default_rng(3))
            batch.mecke_cell_counts(
                UNIT_SQUARE, ISO, (0.5,), replicas, np.random.default_rng(3), Clock(4.0)
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # one-time allocations (lazy imports) out of the way
    assert peak(4 * 512) < 2 * peak(512)
