import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stitlab.errors import DegenerateSplit, GeometryError
from stitlab.geometry import (
    ConvexPolygon,
    Line,
    _measure_ring,
    chord,
    contains_line_hit,
    split,
    support_interval,
    width,
)

from conftest import horizontal_line_at, random_convex_polygon, vertical_line_at


class TestConvexPolygon:
    def test_record_is_immutable_copyable_and_compares_by_value(self, unit_square):
        import copy
        import pickle

        with pytest.raises(AttributeError):
            unit_square.area = 2.0
        assert not hasattr(unit_square, "__dict__")
        same = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert same == unit_square and hash(same) == hash(unit_square)
        assert copy.deepcopy(unit_square) == unit_square
        assert pickle.loads(pickle.dumps(unit_square)) == unit_square
        assert ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (0.0, 1.0))) != unit_square

    def test_cached_measures_match_recomputation(self, unit_square):
        xs = [v[0] for v in unit_square.vertices]
        ys = [v[1] for v in unit_square.vertices]
        area = 0.5 * abs(
            sum(
                xs[i] * ys[(i + 1) % 4] - xs[(i + 1) % 4] * ys[i]
                for i in range(4)
            )
        )
        perim = sum(
            math.hypot(xs[(i + 1) % 4] - xs[i], ys[(i + 1) % 4] - ys[i]) for i in range(4)
        )
        assert abs(unit_square.area - area) <= 1e-12 * area
        assert abs(unit_square.perimeter - perim) <= 1e-12 * perim

    def test_rejects_clockwise(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)))

    def test_rejects_nonconvex(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (1.0, 0.2), (0.0, 2.0)))

    def test_rejects_degenerate(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
        with pytest.raises(GeometryError):
            ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))

    def test_random_polygons_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            poly = random_convex_polygon(rng)
            assert poly.area > 0.0
            assert poly.perimeter > 0.0
            assert poly.diameter > 0.0


# the rejection cases of TestConvexPolygon, with the message each must raise
REJECTED = [
    (((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)), "vertices not convex in CCW order"),
    (((0.0, 0.0), (2.0, 0.0), (1.0, 0.2), (0.0, 2.0)), "vertices not convex in CCW order"),
    (((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), "polygon area is not positive"),
    (((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)), "all vertices coincide"),
]


@pytest.mark.parametrize("verts, message", REJECTED)
def test_split_children_share_the_validator(verts, message):
    # the constructor that split uses for its children raises what the public one does
    with pytest.raises(GeometryError, match=message):
        ConvexPolygon(verts)
    with pytest.raises(GeometryError, match=message):
        ConvexPolygon._from_ring(verts, *_measure_ring(verts))


@st.composite
def convex_polygons(draw) -> ConvexPolygon:
    """Vertices on a random ellipse at angles at least 2 pi / 80 apart."""
    n = draw(st.integers(3, 8))
    gaps = draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    start = draw(st.floats(0.0, 2.0 * math.pi))
    a, b = draw(st.floats(0.4, 2.5)), draw(st.floats(0.4, 2.5))
    cx, cy = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    angles, acc = [], start
    for g in gaps:
        angles.append(acc)
        acc += 2.0 * math.pi * g / sum(gaps)
    return ConvexPolygon(tuple((cx + a * math.cos(t), cy + b * math.sin(t)) for t in angles))


@st.composite
def polygons_and_lines(draw) -> tuple[ConvexPolygon, Line]:
    """A polygon and a line at a random or near-degenerate offset: through a
    vertex, just inside or outside the support interval, or through the origin."""
    poly = draw(convex_polygons())
    theta = draw(st.floats(0.0, math.pi, exclude_max=True))
    lo, hi = support_interval(poly, theta)
    nx, ny = -math.sin(theta), math.cos(theta)
    vertex_offsets = [nx * x + ny * y for x, y in poly.vertices]
    offset = draw(
        st.one_of(
            st.floats(lo - 0.1, hi + 0.1),
            st.sampled_from(vertex_offsets),
            st.sampled_from([lo + 1e-12, hi - 1e-12, lo - 1e-12, hi + 1e-12, 0.0]),
        )
    )
    return poly, Line(theta, offset)


class TestSplitProperties:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(polygons_and_lines())
    def test_children_measures_and_chord_ends(self, case):
        poly, line = case
        try:
            result = split(poly, line)
        except DegenerateSplit:
            return
        for part in (result.positive_part, result.negative_part):
            if part is None or part is poly:
                continue
            rebuilt = ConvexPolygon(part.vertices)
            assert rebuilt == part
            assert part.area == rebuilt.area
            assert part.perimeter == rebuilt.perimeter
            assert part.diameter == rebuilt.diameter
        both = result.positive_part is not None and result.negative_part is not None
        if both:
            assert result.chord_ends is not None
            assert result.chord_ends == chord(poly, line)[1]
            (ax, ay), (bx, by) = result.chord_ends  # on the line, in its direction
            dx, dy = line.direction
            assert dx * ax + dy * ay < dx * bx + dy * by
            assert math.hypot(bx - ax, by - ay) == pytest.approx(result.chord_length, rel=1e-9)
            for end in result.chord_ends:
                assert abs(line.signed_distance(end)) <= 1e-9 * poly.diameter
        else:
            assert result.chord_ends is None


def reference_canonical(theta: float, offset: float) -> tuple[float, float]:
    """The canonical (theta, offset) of a line, by the rule Line applied in
    every case before it returned at once for a theta already in [0, pi)."""
    th = float(theta)
    p = float(offset)
    k = math.floor(th / math.pi)
    th -= k * math.pi
    if th >= math.pi:
        th -= math.pi
        k += 1
    if th < 0.0:
        th = 0.0
    if k % 2:
        p = -p
    return th + 0.0, p + 0.0


@st.composite
def raw_thetas(draw) -> float:
    """Any finite theta, with weight on multiples of pi and their neighbours."""
    k = draw(st.integers(-40, 40))
    near = k * math.pi
    for _ in range(draw(st.integers(0, 3))):
        near = math.nextafter(near, draw(st.sampled_from([math.inf, -math.inf])))
    return draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-20.0, 20.0),
        st.just(near),
        st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                         math.nextafter(0.0, -1.0), 5e-324, -5e-324, 1e300, -1e300]),
    ))


class TestLine:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(raw_thetas(), st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 5e-324])
    ))
    @example(6.126952139465275e16, 0.0)  # the reference rule leaves theta at 4.858...
    def test_canonical_form_matches_the_reference_rule(self, theta, offset):
        line = Line(theta, offset)
        if abs(theta) < 1e16:  # past about pi * 2**53 the rounding of k * pi exceeds pi
            want = reference_canonical(theta, offset)
            assert (repr(line.theta), repr(line.offset)) == tuple(map(repr, want))  # -0.0 != 0.0
        assert 0.0 <= line.theta < math.pi
        assert Line(line.theta, line.offset) == line
        assert type(line.theta) is float and type(line.offset) is float

    def test_record_is_immutable_and_compares_by_value(self):
        line = Line(math.pi + 0.5, 0.25)
        with pytest.raises(AttributeError):
            line.theta = 0.0
        assert not hasattr(line, "__dict__")
        assert line == Line(0.5, -0.25) and hash(line) == hash(Line(0.5, -0.25))
        assert line != Line(0.5, 0.25)

    def test_canonical_theta_range(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            raw_theta = float(rng.uniform(-10.0, 10.0))
            raw_p = float(rng.uniform(-3.0, 3.0))
            line = Line(raw_theta, raw_p)
            assert 0.0 <= line.theta < math.pi

    def test_flip_preserves_point_set(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            th = float(rng.uniform(0.0, math.pi))
            p = float(rng.uniform(-2.0, 2.0))
            a = Line(th, p)
            b = Line(th + math.pi, -p)  # same line, flipped parametrization
            assert a.theta == pytest.approx(b.theta, abs=1e-12)
            assert a.offset == pytest.approx(b.offset, abs=1e-12)

    def test_signed_distance(self):
        line = vertical_line_at(0.5)
        assert line.signed_distance((0.0, 0.0)) == pytest.approx(0.5)
        assert line.signed_distance((1.0, 0.0)) == pytest.approx(-0.5)


class TestWidth:
    def test_unit_square_axis(self, unit_square):
        assert width(unit_square, 0.0) == pytest.approx(1.0)

    def test_unit_square_diagonal(self, unit_square):
        assert width(unit_square, math.pi / 4.0) == pytest.approx(math.sqrt(2.0))

    def test_triangle_axis(self, right_triangle):
        assert width(right_triangle, 0.0) == pytest.approx(1.0)

    def test_matches_projection_oracle(self):
        # oracle: rotate vertices so the normal becomes the y-axis, take the extent
        rng = np.random.default_rng(4)
        poly = random_convex_polygon(rng)
        verts = np.asarray(poly.vertices)
        for theta in rng.uniform(0.0, math.pi, size=1000):
            c, s = math.cos(theta), math.sin(theta)
            rotated_y = verts @ np.array([-s, c])
            expected = float(rotated_y.max() - rotated_y.min())
            assert width(poly, float(theta)) == pytest.approx(expected, rel=1e-12)
            assert width(poly, float(theta)) > 0.0


class TestSplit:
    def test_symmetric_bisection(self, unit_square):
        result = split(unit_square, vertical_line_at(0.5))
        assert result.positive_part is not None and result.negative_part is not None
        assert result.positive_part.area == pytest.approx(0.5, rel=1e-12)
        assert result.negative_part.area == pytest.approx(0.5, rel=1e-12)
        assert result.chord_length == pytest.approx(1.0, rel=1e-12)

    def test_origin_side_is_positive_part(self, unit_square):
        result = split(unit_square, vertical_line_at(0.5))
        assert result.positive_part.contains_point((0.0, 0.0), slack=1e-12)
        assert not result.negative_part.contains_point((0.0, 0.0), slack=-1e-6)

    def test_miss_keeps_polygon_whole(self, unit_square):
        result = split(unit_square, vertical_line_at(2.0))
        assert result.chord_length == 0.0
        assert result.negative_part is None
        assert result.positive_part is unit_square

    def test_miss_on_far_side_of_origin(self):
        shifted = ConvexPolygon(((2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0)))
        result = split(shifted, vertical_line_at(1.0))  # separates origin from the square
        assert result.positive_part is None
        assert result.negative_part is shifted

    def test_perimeter_chord_identity(self, unit_square):
        result = split(unit_square, vertical_line_at(0.25))
        perims = sorted([result.positive_part.perimeter, result.negative_part.perimeter])
        assert perims[0] == pytest.approx(2.5, rel=1e-12)
        assert perims[1] == pytest.approx(3.5, rel=1e-12)
        total = perims[0] + perims[1]
        assert total == pytest.approx(unit_square.perimeter + 2.0 * result.chord_length, rel=1e-12)

    def test_edge_touch_is_a_miss(self, unit_square):
        result = split(unit_square, vertical_line_at(1.0))
        assert result.chord_length == 0.0
        assert (result.positive_part is None) != (result.negative_part is None)

    def test_vertex_crossing(self, unit_square):
        # diagonal through (0,0) and (1,1): theta = pi/4, offset 0
        result = split(unit_square, Line(math.pi / 4.0, 1e-6))
        assert result.positive_part is not None and result.negative_part is not None
        assert result.chord_length == pytest.approx(math.sqrt(2.0), rel=1e-4)

    def test_children_keep_ccw_convexity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            poly = random_convex_polygon(rng)
            line = _random_hitting_line(rng, poly)
            result = split(poly, line)
            for part in (result.positive_part, result.negative_part):
                assert part is None or part.area > 0.0  # constructor re-validated it

    def test_conservation_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            poly = random_convex_polygon(rng)
            line = _random_hitting_line(rng, poly)
            result = split(poly, line)
            if result.positive_part is None or result.negative_part is None:
                continue
            area_sum = result.positive_part.area + result.negative_part.area
            assert area_sum == pytest.approx(poly.area, rel=1e-9)
            perim_sum = result.positive_part.perimeter + result.negative_part.perimeter
            expected = poly.perimeter + 2.0 * result.chord_length
            assert perim_sum == pytest.approx(expected, rel=1e-9)

    def test_chord_positive_iff_two_parts(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            poly = random_convex_polygon(rng)
            theta = float(rng.uniform(0.0, math.pi))
            offset = float(rng.uniform(-4.0, 4.0))
            result = split(poly, Line(theta, offset))
            both = result.positive_part is not None and result.negative_part is not None
            assert (result.chord_length > 0.0) == both
            assert result.positive_part is not None or result.negative_part is not None


class TestContainsLineHit:
    def test_trivial_cases(self, unit_square):
        assert contains_line_hit(unit_square, vertical_line_at(0.5))
        assert not contains_line_hit(unit_square, vertical_line_at(2.0))
        assert not contains_line_hit(unit_square, vertical_line_at(1.0))

    def test_horizontal(self, unit_square):
        assert contains_line_hit(unit_square, horizontal_line_at(0.3))
        assert not contains_line_hit(unit_square, horizontal_line_at(-0.2))

    def test_agrees_with_chord(self, unit_square):
        rng = np.random.default_rng(8)
        for _ in range(500):
            line = Line(float(rng.uniform(0.0, math.pi)), float(rng.uniform(-2.0, 2.0)))
            length, endpoints = chord(unit_square, line)
            assert contains_line_hit(unit_square, line) == (length > 0.0)
            if endpoints is not None:
                (ax, ay), (bx, by) = endpoints
                assert math.hypot(bx - ax, by - ay) == pytest.approx(length, rel=1e-9)


def _random_hitting_line(rng: np.random.Generator, poly) -> Line:
    while True:
        theta = float(rng.uniform(0.0, math.pi))
        lo, hi = support_interval(poly, theta)
        offset = float(rng.uniform(lo, hi))
        line = Line(theta, offset)
        if abs(offset) > 1e-7 and contains_line_hit(poly, line):
            return line
