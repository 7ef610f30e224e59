"""Translation-invariant line measures: hitting weights and exact line sampling.

Two variants are supported.  The isotropic measure is the uniform measure
d(offset) d(theta) on [0, pi) x R scaled by `scale`; its hitting weight for a
convex body K is scale * perimeter(K) (Cauchy's formula).  A direction
mixture puts an atom of mass `weight` on each direction theta_i with the
uniform offset measure, so the hitting weight is sum_i weight_i * width_i(K).

Both variants give strictly subadditive hitting weights under a chord split
(lines through the chord hit both children), which is what makes the
normalized hitting-weight sequence of a tessellation strictly increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Union

import numpy as np

from .errors import GeometryError, SamplerStall
from .geometry import EPS_GEOM, ConvexPolygon, Line, support_interval, width

MAX_REJECTION_ITERATIONS = 10**6


@dataclass(frozen=True)
class IsotropicMeasure:
    """Rotation-invariant measure; hitting weight = scale * perimeter."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale > 0.0:
            raise GeometryError(f"isotropic scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class DirectionMixture:
    """Finite mixture of direction atoms (theta_i, weight_i), theta in [0, pi)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = tuple((float(th) % math.pi, float(w)) for th, w in self.atoms)
        if len(atoms) < 2:
            raise GeometryError("direction mixture needs at least two atoms")
        if any(w <= 0.0 for _, w in atoms):
            raise GeometryError("atom weights must be positive")
        thetas = sorted(th for th, _ in atoms)
        if all(abs(b - a) <= 1e-12 for a, b in zip(thetas, thetas[1:])):
            raise GeometryError("measure must not concentrate on one direction")
        object.__setattr__(self, "atoms", atoms)


LineMeasureSpec = Union[IsotropicMeasure, DirectionMixture]


def hitting_measure(measure: LineMeasureSpec, poly: ConvexPolygon) -> float:
    """Total measure of the lines that hit `poly` (strictly positive)."""
    if isinstance(measure, IsotropicMeasure):
        return measure.scale * poly.perimeter
    return sum(w * width(poly, th) for th, w in measure.atoms)


def crossing_measure(measure: LineMeasureSpec) -> float:
    """Measure of the ordered pairs of lines that cross inside a region of unit
    area: the double integral of |sin(theta - theta')| over both directions,
    2 pi scale^2 for the isotropic measure and sum_i sum_j w_i w_j
    |sin(theta_i - theta_j)| for a direction mixture."""
    if isinstance(measure, IsotropicMeasure):
        return 2.0 * math.pi * measure.scale**2
    return sum(
        wi * wj * abs(math.sin(ti - tj)) for ti, wi in measure.atoms for tj, wj in measure.atoms
    )


def _sample_offset_line(
    poly: ConvexPolygon, theta: float, interval: tuple[float, float], rng: np.random.Generator
) -> Line | None:
    """Uniform offset on `interval`, the support interval of `poly` at theta;
    None when the line passes within EPS_GEOM * diameter of the origin."""
    lo, hi = interval
    p = lo + (hi - lo) * rng.random()
    eps = EPS_GEOM * poly.diameter
    if abs(p) <= eps:  # origin convention undefined on the line itself; resample
        return None
    return Line(theta, p)


def sample_hitting_line(
    measure: LineMeasureSpec, poly: ConvexPolygon, rng: np.random.Generator
) -> Line:
    """Draw a line from the hitting distribution of `measure` restricted to `poly`.

    Isotropic: theta is drawn with density width(poly, theta) / perimeter by
    rejection against the polygon diameter (the exact maximum width), then
    the offset is uniform on the support interval.  Direction mixture: an
    atom is chosen with probability proportional to weight * width, then the
    offset is uniform.
    """
    if isinstance(measure, IsotropicMeasure):
        envelope = poly.diameter
        for _ in range(MAX_REJECTION_ITERATIONS):
            theta = math.pi * rng.random()
            lo, hi = support_interval(poly, theta)
            if envelope * rng.random() > hi - lo:  # hi - lo is width(poly, theta)
                continue
            line = _sample_offset_line(poly, theta, (lo, hi), rng)
            if line is not None:
                return line
        raise SamplerStall("isotropic line sampler exceeded its iteration budget")

    weights = [w * width(poly, th) for th, w in measure.atoms]
    total = sum(weights)
    for _ in range(MAX_REJECTION_ITERATIONS):
        u = total * rng.random()
        acc = 0.0
        theta = measure.atoms[-1][0]
        for (th, _), ww in zip(measure.atoms, weights):
            acc += ww
            if u < acc:
                theta = th
                break
        line = _sample_offset_line(poly, theta, support_interval(poly, theta), rng)
        if line is not None:
            return line
    raise SamplerStall("direction-mixture line sampler exceeded its iteration budget")


def measure_to_json(measure: LineMeasureSpec) -> dict[str, Any]:
    if isinstance(measure, IsotropicMeasure):
        return {"type": "isotropic", "scale": measure.scale}
    return {
        "type": "directions",
        "atoms": [{"theta": th, "weight": w} for th, w in measure.atoms],
    }


def measure_from_json(obj: dict[str, Any]) -> LineMeasureSpec:
    kind = obj.get("type")
    if kind == "isotropic":
        return IsotropicMeasure(scale=float(obj["scale"]))
    if kind == "directions":
        return DirectionMixture(
            atoms=tuple((float(a["theta"]), float(a["weight"])) for a in obj["atoms"])
        )
    raise GeometryError(f"unknown measure type: {kind!r}")
