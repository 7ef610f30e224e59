"""The batched cell store against the scalar oracle (`geometry.split`,
`stit_simulate`, the Mecke stepper)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stitlab import batch
from stitlab.errors import DegenerateSplit
from stitlab.geometry import ConvexPolygon, Line, split
from stitlab.line_measure import DirectionMixture, IsotropicMeasure, hitting_measure
from stitlab.processes import _equally_likely, _grow, _uniform_slot, stit_mean_jumps, stit_simulate
from stitlab.stats import counts_from_values, two_sample_chi_square

from conftest import random_convex_polygon
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
        assert cut == len(res.origin) == len(res.far)

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
# batched simulators against the scalar processes, in law

GRID = (0.3, 0.7)


def _scalar_counts(window, measure, seed: int, replicas: int, mecke: bool) -> list[dict]:
    """Cell-count histograms at GRID of scalar STIT runs, or of the scalar Mecke
    stepper under the equally-likely clock."""
    rng = np.random.default_rng(seed)
    counts = np.empty((replicas, len(GRID)), dtype=np.int64)
    for r in range(replicas):
        if mecke:
            events = _grow([window], _uniform_slot(measure, window),
                           _equally_likely(hitting_measure(measure, window)), rng,
                           max_time=GRID[-1])
            times = [e.time for e in events if e.jump]
        else:
            times = [e.time for e in stit_simulate(window, measure, rng, max_time=GRID[-1]).events]
        counts[r] = [1 + sum(x <= t for x in times) for t in GRID]
    return [counts_from_values(counts[:, j]) for j in range(len(GRID))]


def _batched_counts(window, measure, seed: int, replicas: int, mecke: bool, grid=GRID) -> list[dict]:
    rng = np.random.default_rng(seed)
    if mecke:
        clock = _equally_likely(hitting_measure(measure, window))
        hist = batch.mecke_cell_counts(window, measure, grid, replicas, rng, clock)
    else:
        hist = batch.stit_cell_counts(window, measure, grid, replicas, rng)
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
    grid = (0.5, 1.0)
    for t, hist in zip(grid, _batched_counts(window, measure, 73, 10_000, mecke, grid)):
        values = np.repeat(list(hist), list(hist.values()))
        expected = 1.0 + stit_mean_jumps(window, measure, t)
        if measure is ISO:
            assert expected == pytest.approx(1.0 + 4.0 * t + math.pi * t * t, rel=1e-14)
        z = (values.mean() - expected) / math.sqrt(values.var(ddof=1) / values.size)
        assert abs(z) <= 4.0, (t, values.mean(), expected)


def test_blocks_bound_peak_allocation(monkeypatch):
    # four times the replicas, in four times the blocks, must not take twice the memory
    monkeypatch.setattr(batch, "BLOCK", 256)

    def peak(replicas: int) -> int:
        tracemalloc.start()
        try:
            batch.stit_cell_counts(UNIT_SQUARE, ISO, (0.5,), replicas, np.random.default_rng(3))
            batch.mecke_cell_counts(
                UNIT_SQUARE, ISO, (0.5,), replicas, np.random.default_rng(3), lambda n: 4.0 * n
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # one-time allocations (lazy imports) out of the way
    assert peak(4 * 512) < 2 * peak(512)
