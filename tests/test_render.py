import hashlib

import numpy as np
import pytest

from stitlab.geometry import ConvexPolygon
from stitlab.line_measure import DirectionMixture, IsotropicMeasure
from stitlab.processes import mecke_discrete_simulate, stit_simulate
from stitlab.errors import DomainError
from stitlab.render import chord_segments, render_svg

UNIT_SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
MEASURES = {
    "iso": IsotropicMeasure(1.0),
    "dirs": DirectionMixture(((0.0, 1.0), (1.0471975511965976, 2.0), (2.0943951023931953, 1.0))),
}

# SHA-256 of the SVGs at seeds 0, 1 and 2 written one after another, keyed by
# (model, stop rule, stop value, measure, `at`).  Recorded before `render`
# took its chords from the replayed splits instead of calling `chord` again;
# any change to the picture's bytes has to update this table on purpose.  The
# STIT entries were re-recorded when STIT moved to per-cell clocks, the Mecke
# entries when the Mecke models moved to block draws.
GOLDEN_SVGS = {
    ("stit", "max_jumps", 2000, "iso", None):
        "ec748a5d08200399176012c1779a98b49b3dfe0cd8084949dcc30e66b89a9897",
    ("stit", "max_jumps", 2000, "dirs", None):
        "6a49e662eeb524fcd9133d786c0cb24e2abf93e3d24da3128931fa06f78c7c67",
    ("stit", "max_jumps", 2000, "iso", 16.0):
        "feaf68099172f3ed8acc28d952541148a6d9d4901d806f6ec413fcb6464aba30",
    ("mecke-discrete", "max_decisions", 400, "iso", None):
        "c1837feb9409b1e8c52fd0fc5410c28f2fc747c30e6df61f780fcb0eb4a68894",
    ("mecke-discrete", "max_decisions", 400, "dirs", 250):
        "0b552ee12e2498ddae887ecb3290fa866d5e2a231f7930f67747ce21ab928e44",
}


@pytest.mark.parametrize("case", list(GOLDEN_SVGS), ids=lambda c: "-".join(map(str, c)))
def test_golden_svg_digests(case):
    model, stop, value, measure, at = case
    simulate = {"stit": stit_simulate, "mecke-discrete": mecke_discrete_simulate}[model]
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        trace = simulate(
            UNIT_SQUARE, MEASURES[measure], np.random.default_rng(seed), seed=seed, **{stop: value}
        )
        h.update(render_svg(trace, at=at).encode())
    assert h.hexdigest() == GOLDEN_SVGS[case]


@pytest.mark.parametrize("at", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_at_is_refused(at):
    trace = stit_simulate(UNIT_SQUARE, MEASURES["iso"], np.random.default_rng(1), max_jumps=5)
    with pytest.raises(DomainError, match="at must be finite"):
        chord_segments(trace, at=at)
    with pytest.raises(DomainError, match="at must be finite"):
        render_svg(trace, at=at)


def test_negative_at_draws_the_bare_window():
    trace = stit_simulate(UNIT_SQUARE, MEASURES["iso"], np.random.default_rng(1), max_jumps=5)
    assert chord_segments(trace, at=-1.0).shape == (0, 2, 2)
    assert "<line " not in render_svg(trace, at=-1.0)
    assert len(chord_segments(trace)) == 5
