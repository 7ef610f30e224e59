"""Planar convex-polygon primitives: widths, chords, and half-plane splits.

Lines are parametrized as (theta, offset) with theta in [0, pi): the line is
{(x, y): -x*sin(theta) + y*cos(theta) = offset}, i.e. it runs in direction
(cos(theta), sin(theta)) at signed distance `offset` from the origin along
the unit normal (-sin(theta), cos(theta)).

All degeneracy decisions (zero chords, vertex hits, sliver parts) use the
tolerance EPS_GEOM scaled by the polygon diameter.
"""

from __future__ import annotations

import math
from itertools import combinations, starmap
from typing import NamedTuple

from .errors import DegenerateSplit, GeometryError

EPS_GEOM = 1e-9

Point = tuple[float, float]

# records are tuples: their constructors fill every field in one call
_tuple_new = tuple.__new__


class _LineFields(NamedTuple):
    theta: float
    offset: float


class Line(_LineFields):
    """An undirected line in canonical (theta, offset) form, theta in [0, pi).

    (theta + k*pi, (-1)^k * offset) is the same line for every integer k;
    construction picks the k that puts theta in [0, pi), so a theta already
    there is the k = 0 case and is kept as it is.  Negative zeros become +0.0.
    """

    __slots__ = ()

    def __new__(cls, theta: float, offset: float) -> Line:
        th = float(theta)
        p = float(offset)
        if not 0.0 <= th < math.pi:
            k = math.floor(th / math.pi)
            th -= k * math.pi
            if th >= math.pi:  # guard rounding at the upper edge
                th -= math.pi
                k += 1
            if th < 0.0:
                th = 0.0
            if k % 2:
                p = -p
            if th >= math.pi:  # past |theta| ~ pi * 2**53, k * pi rounds by more than pi
                # theta % 2pi is an exact fmod, plus 2pi (one rounding, maybe onto
                # 2pi) for a negative theta; each pi step is exact and flips the offset
                th, p = float(theta) % (2.0 * math.pi), float(offset)
                while th >= math.pi:
                    th, p = th - math.pi, -p
        return _tuple_new(cls, (th + 0.0, p + 0.0))

    @property
    def normal(self) -> Point:
        return (-math.sin(self.theta), math.cos(self.theta))

    @property
    def direction(self) -> Point:
        return (math.cos(self.theta), math.sin(self.theta))

    def signed_distance(self, point: Point) -> float:
        """Signed distance of `point` from the line along the normal."""
        nx, ny = self.normal
        return nx * point[0] + ny * point[1] - self.offset


def _measure_ring(verts: tuple[Point, ...]) -> tuple[float, float, float]:
    """Doubled signed area, perimeter and smallest turn cross product of a
    closed ring, in one pass over the (i, i + 1) vertex pairs."""
    area2 = 0.0
    perim = 0.0
    min_cross = math.inf
    (ax, ay), (bx, by) = verts[-1], verts[0]
    for cx, cy in verts[1:] + verts[:1]:
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross < min_cross:
            min_cross = cross
        area2 += bx * cy - by * cx
        perim += math.hypot(cx - bx, cy - by)
        ax, ay, bx, by = bx, by, cx, cy
    return area2, perim, min_cross


class _PolygonFields(NamedTuple):
    vertices: tuple[Point, ...]
    area: float
    perimeter: float
    diameter: float


class ConvexPolygon(_PolygonFields):
    """Closed convex polygon with CCW vertices and cached size measures,
    built from its vertices alone: ConvexPolygon(vertices)."""

    __slots__ = ()

    def __new__(cls, vertices) -> ConvexPolygon:
        verts = tuple((float(x), float(y)) for x, y in vertices)
        if len(verts) < 3:
            raise GeometryError(f"polygon needs >= 3 vertices, got {len(verts)}")
        return cls._from_ring(verts, *_measure_ring(verts))

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild from the vertices
        return (self.vertices,)

    @classmethod
    def _from_ring(
        cls, verts: tuple[Point, ...], area2: float, perim: float, min_cross: float
    ) -> ConvexPolygon:
        """A polygon from a ring of float pairs that `_measure_ring` has
        already measured (split children); validated like any other."""
        diam = max(starmap(math.dist, combinations(verts, 2)))
        if diam <= 0.0:
            raise GeometryError("all vertices coincide")
        eps_cross = EPS_GEOM * diam * diam
        if min_cross < -eps_cross:
            raise GeometryError("vertices not convex in CCW order")
        area = 0.5 * area2
        if area <= eps_cross:
            raise GeometryError("polygon area is not positive")
        return _tuple_new(cls, (verts, area, perim, diam))

    def contains_point(self, point: Point, slack: float = 0.0) -> bool:
        """True if `point` lies in the closed polygon (within `slack`)."""
        px, py = point
        verts = self.vertices
        m = len(verts)
        for i in range(m):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % m]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) < -slack:
                return False
        return True


class SplitResult(NamedTuple):
    """Outcome of cutting a polygon by a line.

    `positive_part` is the closed side whose open half-plane contains the
    origin; `negative_part` is the other side.  `chord_length` is positive,
    and `chord_ends` holds the chord's endpoints as `chord` gives them,
    exactly when both parts are present.
    """

    positive_part: ConvexPolygon | None
    negative_part: ConvexPolygon | None
    chord_length: float
    chord_ends: tuple[Point, Point] | None = None


def support_interval(poly: ConvexPolygon, theta: float) -> tuple[float, float]:
    """Projection interval of `poly` onto the unit normal of direction theta."""
    nx, ny = -math.sin(theta), math.cos(theta)
    lo = hi = nx * poly.vertices[0][0] + ny * poly.vertices[0][1]
    for x, y in poly.vertices:
        s = nx * x + ny * y
        if s < lo:
            lo = s
        elif s > hi:
            hi = s
    return lo, hi


def width(poly: ConvexPolygon, theta: float) -> float:
    """Width of `poly` perpendicular to direction theta (always positive)."""
    lo, hi = support_interval(poly, theta)
    return hi - lo


def _classify(poly: ConvexPolygon, line: Line) -> tuple[list[float], float]:
    eps = EPS_GEOM * poly.diameter
    nx, ny = line.normal
    p = line.offset
    return [nx * x + ny * y - p for x, y in poly.vertices], eps


def _walk(verts: tuple[Point, ...], dist: list[float], eps: float) -> tuple[list[Point], ...]:
    """One walk round the ring `verts` at signed distances `dist` from a line: its points
    (edge crossings too) on the side dist >= -eps, on dist <= eps and on the line, in order."""
    m = len(verts)
    upper: list[Point] = []
    lower: list[Point] = []
    cross: list[Point] = []
    for i in range(m):
        si = dist[i]
        vi = verts[i]
        if si >= -eps:
            upper.append(vi)
        if si <= eps:
            lower.append(vi)
        if abs(si) <= eps:
            cross.append(vi)
            continue
        sj = dist[(i + 1) % m]
        if abs(sj) <= eps or si * sj >= 0.0:
            continue
        t = si / (si - sj)
        bx, by = verts[(i + 1) % m]
        pt = (vi[0] + t * (bx - vi[0]), vi[1] + t * (by - vi[1]))
        upper.append(pt)
        lower.append(pt)
        cross.append(pt)
    return upper, lower, cross


def _span(pts: list[Point], line: Line) -> tuple[float, tuple[Point, Point]]:
    """Length and endpoints of the stretch of `line` through `pts` (points on
    it): the first lowest and the first highest along its direction."""
    dx, dy = line.direction
    proj = [dx * x + dy * y for x, y in pts]
    lo, hi = min(proj), max(proj)
    return hi - lo, (pts[proj.index(lo)], pts[proj.index(hi)])


def chord(poly: ConvexPolygon, line: Line) -> tuple[float, tuple[Point, Point] | None]:
    """Length and endpoints of line ∩ poly; (0.0, None) when below tolerance."""
    dist, eps = _classify(poly, line)
    if min(dist) > -eps or max(dist) < eps:
        return 0.0, None
    pts = _walk(poly.vertices, dist, eps)[2]
    if len(pts) < 2:
        return 0.0, None
    length, ends = _span(pts, line)
    if length <= eps:
        return 0.0, None
    return length, ends


def contains_line_hit(poly: ConvexPolygon, line: Line) -> bool:
    """True iff the line crosses the closed polygon with a chord above tolerance."""
    return chord(poly, line)[0] > 0.0


def _dedupe_ring(pts: list[Point], eps: float) -> list[Point]:
    out: list[Point] = []
    for p in pts:
        if out and math.dist(p, out[-1]) <= eps:
            continue
        out.append(p)
    while len(out) > 1 and math.dist(out[0], out[-1]) <= eps:
        out.pop()
    return out


def _side_polygon(pts: list[Point], eps: float, eps_area: float) -> ConvexPolygon | None:
    ring = tuple(_dedupe_ring(pts, eps))
    if len(ring) < 3:
        return None
    area2, perim, min_cross = _measure_ring(ring)
    if 0.5 * area2 <= eps_area:
        return None
    return ConvexPolygon._from_ring(ring, area2, perim, min_cross)


def split(poly: ConvexPolygon, line: Line) -> SplitResult:
    """Cut `poly` by `line` into the origin side and the far side.

    A line that misses (or merely touches the boundary of) the polygon
    leaves it whole on the appropriate side with a zero chord.  Sliver
    parts below tolerance are treated as absent.
    """
    dist, eps = _classify(poly, line)
    eps_area = EPS_GEOM * poly.diameter * poly.diameter
    # origin lies strictly on the positive-distance side iff offset < 0
    plus_is_positive = line.offset < 0.0

    lo, hi = min(dist), max(dist)
    if lo > -eps or hi < eps:
        whole_positive = (hi >= eps) == plus_is_positive
        return SplitResult(poly, None, 0.0) if whole_positive else SplitResult(None, poly, 0.0)

    upper, lower, cross = _walk(poly.vertices, dist, eps)

    up_poly = _side_polygon(upper, eps, eps_area)
    low_poly = _side_polygon(lower, eps, eps_area)

    if up_poly is None and low_poly is None:
        raise DegenerateSplit("both split parts degenerate")
    if up_poly is None or low_poly is None:
        whole_positive = (low_poly is None) == plus_is_positive
        return SplitResult(poly, None, 0.0) if whole_positive else SplitResult(None, poly, 0.0)

    chord_len, ends = _span(cross, line)
    if chord_len <= eps:
        raise DegenerateSplit(f"chord length {chord_len!r} below tolerance with two parts")

    if plus_is_positive:
        return SplitResult(up_poly, low_poly, chord_len, ends)
    return SplitResult(low_poly, up_poly, chord_len, ends)
