import hashlib
import math

import numpy as np
import pytest

from stitlab import processes
from stitlab.batch import DEGENERATE, BatchSplit
from stitlab.distributions import discrete_waiting_pmf, nu_pmf, stit_jump_cdf
from stitlab.errors import (
    DegenerateSplit,
    DomainError,
    GeometryError,
    IllConditioned,
    SamplerStall,
)
from stitlab.geometry import ConvexPolygon, Line, split
from stitlab.line_measure import DirectionMixture, IsotropicMeasure, hitting_measure
from stitlab.processes import (
    LSequence,
    ModelTag,
    ProcessTrace,
    QuasiCellState,
    TraceEvent,
    cowan_el_simulate,
    final_state,
    initial_quasi_state,
    l_sequence,
    mecke_continuous_simulate,
    mecke_discrete_simulate,
    mecke_discrete_step,
    replay,
    replica_rng,
    stit_mean_jumps,
    stit_simulate,
)
from stitlab.stats import chi_square_gof, counts_from_values, ks_test, two_sample_chi_square
from stitlab.trace_io import trace_to_lines

from conftest import scalar_mecke, vertical_line_at

ISO = IsotropicMeasure(1.0)


class TestStitSimulate:
    def test_requires_stop_rule(self, unit_square):
        with pytest.raises(DomainError):
            stit_simulate(unit_square, ISO, np.random.default_rng(0))

    def test_max_jumps_contract(self, unit_square):
        trace = stit_simulate(unit_square, ISO, np.random.default_rng(0), max_jumps=3)
        assert len(trace.events) == 3
        assert trace.jump_count == 3
        state = final_state(trace)
        assert len(state.cells) == 4

    def test_event_times_strictly_increasing(self, unit_square):
        trace = stit_simulate(unit_square, ISO, np.random.default_rng(1), max_jumps=40)
        times = [e.time for e in trace.events]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_tiling_invariant(self, unit_square):
        rng = np.random.default_rng(2)
        for _ in range(20):
            trace = stit_simulate(unit_square, ISO, rng, max_jumps=15)
            state = final_state(trace)
            state.validate(unit_square)

    def test_first_waiting_time_is_exponential(self, unit_square):
        # window weight is 4, so the first lifetime is Exponential(4)
        rng = np.random.default_rng(3)
        n = 100_000
        samples = [
            stit_simulate(unit_square, ISO, rng, max_jumps=1).events[0].time
            for _ in range(n)
        ]
        _, p = ks_test(samples, lambda t: -np.expm1(-4.0 * np.asarray(t)))
        assert p > 0.01


    def test_mean_jumps_closed_form(self, unit_square):
        for t in (0.5, 1.0, 1000.0):  # E N_t = 1 + 4t + pi t^2 under iso:1
            expected = 4.0 * t + math.pi * t * t
            assert stit_mean_jumps(unit_square, ISO, t) == pytest.approx(expected, rel=1e-14)
        # axis-parallel lines: (1 + h)(1 + v) cells, h and v independent Poisson(t)
        axes = DirectionMixture(((0.0, 1.0), (math.pi / 2, 1.0)))
        assert stit_mean_jumps(unit_square, axes, 3.0) == pytest.approx(2.0 * 3.0 + 3.0**2)
        # atoms of weight 1 and 2, pi/6 apart: crossing_measure = 2 * 1 * 2 * sin(pi/6)
        # = 2, so (t^2 / 2) * area * 2 = 4 crossings in the unit square by t = 2
        pair = DirectionMixture(((0.0, 1.0), (math.pi / 6, 2.0)))
        expected = 2.0 * hitting_measure(pair, unit_square) + 4.0
        assert stit_mean_jumps(unit_square, pair, 2.0) == pytest.approx(expected)
        assert stit_mean_jumps(unit_square, IsotropicMeasure(2.0), 1.0) == pytest.approx(
            8.0 + 4.0 * math.pi
        )

    def test_refuses_more_than_the_expected_work_budget(self, unit_square, monkeypatch):
        # 1 + 4t + pi t^2 is about 3.1e6 cells at t = 1000: refused, no draw made
        rng = np.random.default_rng(24)
        with pytest.raises(DomainError, match="MAX_EXPECTED_DECISIONS"):
            stit_simulate(unit_square, ISO, rng, max_time=1000.0)
        assert rng.random() == np.random.default_rng(24).random()
        assert stit_simulate(unit_square, ISO, rng, max_time=1000.0, max_jumps=5).jump_count == 5
        # on both sides of a lowered budget: 4t + pi t^2 = 200 at t = budget_t
        monkeypatch.setattr(processes, "MAX_EXPECTED_DECISIONS", 200)
        budget_t = (math.sqrt(16.0 + 800.0 * math.pi) - 4.0) / (2.0 * math.pi)
        trace = stit_simulate(unit_square, ISO, rng, max_time=0.999 * budget_t)
        assert trace.jump_count > 100
        with pytest.raises(DomainError, match="MAX_EXPECTED_DECISIONS = 200"):
            stit_simulate(unit_square, ISO, rng, max_time=1.001 * budget_t)


class TestCowanEl:
    def test_max_jumps_contract(self, unit_square):
        trace = cowan_el_simulate(unit_square, ISO, np.random.default_rng(5), max_jumps=6)
        assert trace.model_tag is ModelTag.COWAN_EL
        assert trace.jump_count == 6
        final_state(trace).validate(unit_square)


# ---------------------------------------------------------------------------
# the per-cell clocks in law: STIT's n-th jump time given its weight sequence,
# Cowan's geometric event count, and clocks that run 1.2 times too fast


TRIANGLE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
DIRS = DirectionMixture(((0.0, 1.0), (math.pi / 3, 0.5), (2.0, 0.8)))


def _stit_jump_time_p(window, measure, seed: int, runs: int = 400, jumps: int = 4) -> float:
    """KS p-value of U = stit_jump_cdf(l_sequence, jumps, T_jumps) over independent
    STIT runs: U is uniform when each jump time has its law given the sequence.
    A sequence the closed form refuses (IllConditioned, clustered weights) is
    skipped: U is uniform given any sequence, so the rest stay uniform."""
    rng = np.random.default_rng(seed)
    u = []
    for _ in range(runs):
        trace = stit_simulate(window, measure, rng, max_jumps=jumps)
        try:
            u.append(stit_jump_cdf(l_sequence(trace), jumps, trace.events[-1].time))
        except IllConditioned:
            continue
    assert len(u) >= 0.98 * runs
    return ks_test(u, lambda x: x)[1]


def _cowan_count_p(window, seed: int, runs: int = 1000, rate_t: float = 1.0) -> float:
    """Chi-square p-value of Cowan's event counts at W(window) * t = rate_t
    against the geometric law `nu_pmf`."""
    rate = hitting_measure(ISO, window)
    t = rate_t / rate
    rng = np.random.default_rng(seed)
    counts = counts_from_values(
        len(cowan_el_simulate(window, ISO, rng, max_time=t).events) for _ in range(runs)
    )
    return chi_square_gof(counts, lambda k: nu_pmf(rate, t, k), support_lo=0)[1]


@pytest.mark.parametrize(
    "window, measure, seed", [("square", ISO, 2011), ("triangle", DIRS, 2012)], ids=["square-iso", "triangle-dirs"]
)
def test_stit_jump_times_follow_the_conditional_law(window, measure, seed, unit_square):
    window = unit_square if window == "square" else TRIANGLE
    assert _stit_jump_time_p(window, measure, seed) > 1e-3


def test_cowan_event_count_is_geometric(unit_square):
    assert _cowan_count_p(unit_square, 2014) > 1e-3


def test_clocks_too_fast_fail_both_laws(unit_square, monkeypatch):
    # STIT's clocks read batch.hitting_weights and Cowan's hitting_measure;
    # l_sequence and the closed forms read the measure itself
    weights, measure = processes.hitting_weights, processes.hitting_measure
    monkeypatch.setattr(processes, "hitting_weights", lambda m, p: 1.2 * weights(m, p))
    assert _stit_jump_time_p(unit_square, ISO, 2013, runs=800) < 1e-3
    monkeypatch.setattr(processes, "hitting_weights", weights)
    monkeypatch.setattr(processes, "hitting_measure", lambda m, w: 1.2 * measure(m, w))
    assert _cowan_count_p(unit_square, 2015) < 1e-3


@pytest.mark.parametrize("simulate", [stit_simulate, cowan_el_simulate, mecke_discrete_simulate])
def test_unsplittable_cell_stalls_instead_of_hanging(simulate, unit_square, monkeypatch):
    def degenerate(cell, line):
        raise DegenerateSplit("no split")

    def degenerate_rows(polys, theta, offset):
        none = polys.take(np.zeros(0, dtype=np.int64))
        return BatchSplit(np.full(len(polys), DEGENERATE), np.zeros(len(polys)), none, np.zeros((0, 2, 2)))

    # STIT and Cowan cut through the batched split and leave a cell whole after
    # MAX_CELL_LINES lines, so no cell is left to cut; the Mecke models cut
    # through `split` and redraw up to MAX_REJECTION_ITERATIONS decisions
    monkeypatch.setattr(processes, "split", degenerate)
    monkeypatch.setattr(processes, "split_cells", degenerate_rows)
    monkeypatch.setattr(processes, "MAX_CELL_LINES", 50)
    monkeypatch.setattr(processes, "MAX_REJECTION_ITERATIONS", 50)
    with pytest.raises(SamplerStall):
        simulate(unit_square, ISO, np.random.default_rng(0), max_jumps=3)


@pytest.mark.parametrize("model", ["mecke-discrete", "mecke-continuous"])
def test_mecke_redraws_a_degenerate_decision(model, unit_square, monkeypatch):
    calls, real_split = [], processes.split

    def fifth_degenerate(cell, line):
        calls.append(line)
        if len(calls) == 5:
            raise DegenerateSplit("forced")
        return real_split(cell, line)

    monkeypatch.setattr(processes, "split", fifth_degenerate)
    rng = np.random.default_rng(3)
    if model == "mecke-discrete":
        trace = mecke_discrete_simulate(unit_square, ISO, rng, max_decisions=40)
        assert len(trace.events) == 40
    else:
        trace = mecke_continuous_simulate(unit_square, ISO, rng, max_time=1.0)
    assert len(calls) > 5
    final_state(trace).validate(unit_square)


@pytest.mark.parametrize("simulate", [stit_simulate, cowan_el_simulate])
@pytest.mark.parametrize("scale", [1e-320, 1e308])
def test_non_finite_clock_raises_before_recording(simulate, scale, unit_square):
    # W(window) is subnormal (1/rate overflows, so the first wait is inf) or
    # overflows to inf (STIT's running total would become inf - inf)
    with pytest.raises(DomainError, match="not finite|finite and positive"):
        simulate(unit_square, IsotropicMeasure(scale), np.random.default_rng(0), max_jumps=3)


def test_validate_refuses_a_nan_cell(unit_square):
    # a cell with a NaN vertex has a NaN area, which no tolerance test may pass
    cell = ConvexPolygon(((math.nan, math.nan), (1.0, 0.0), (0.0, 1.0)))
    assert math.isnan(cell.area)
    with pytest.raises(GeometryError, match="do not tile"):
        QuasiCellState((cell,), decision_count=0, jump_count=0).validate(unit_square)


class TestMeckeDiscreteStep:
    def test_first_decision_always_jumps(self, unit_square):
        rng = np.random.default_rng(6)
        for _ in range(300):
            state, event = mecke_discrete_step(initial_quasi_state(unit_square), ISO, unit_square, rng)
            assert event.jump
            assert state.jump_count == 1
            assert state.decision_count == 1
            assert len(state.quasi_cells) == 2

    def test_selecting_absent_quasi_cell(self, unit_square):
        halves = (
            ConvexPolygon(((0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0))),
            ConvexPolygon(((0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.0))),
        )
        state = QuasiCellState(
            quasi_cells=(halves[0], None, halves[1]), decision_count=2, jump_count=1
        )
        rng = np.random.default_rng(7)
        saw_absent = False
        for _ in range(200):
            new_state, event = mecke_discrete_step(state, ISO, unit_square, rng)
            assert new_state.decision_count == 3
            assert len(new_state.quasi_cells) == 4
            if event.cell_index == 1:
                saw_absent = True
                assert not event.jump
                assert new_state.cells == state.cells
                assert new_state.quasi_cells[1] is None
                assert new_state.quasi_cells[3] is None
        assert saw_absent

    def test_jump_probability_matches_weights(self, unit_square):
        # P(jump at decision n) = (1/n) * sum of cell weights / window weight
        rng = np.random.default_rng(8)
        state = initial_quasi_state(unit_square)
        for _ in range(4):
            state, _ = mecke_discrete_step(state, ISO, unit_square, rng)
        n = state.decision_count + 1
        rate = hitting_measure(ISO, unit_square)
        p_expected = sum(hitting_measure(ISO, c) for c in state.cells) / (n * rate)
        trials = 20_000
        jumps = sum(
            mecke_discrete_step(state, ISO, unit_square, rng)[1].jump for _ in range(trials)
        )
        sigma = math.sqrt(trials * p_expected * (1.0 - p_expected))
        assert abs(jumps - trials * p_expected) <= 3.0 * sigma

    def test_split_cell_frequencies(self, unit_square):
        # conditional on a jump, cell k is the split one with prob weight_k / total
        rng = np.random.default_rng(9)
        trace = mecke_discrete_simulate(unit_square, ISO, rng, max_jumps=2)
        state = final_state(trace)
        weights = {
            i: hitting_measure(ISO, c)
            for i, c in enumerate(state.quasi_cells)
            if c is not None
        }
        total = sum(weights.values())
        n_events = 20_000
        hits = dict.fromkeys(weights, 0)
        seen = 0
        while seen < n_events:
            _, event = mecke_discrete_step(state, ISO, unit_square, rng)
            if event.jump:
                hits[event.cell_index] += 1
                seen += 1
        for idx, w in weights.items():
            p = w / total
            sigma = math.sqrt(n_events * p * (1.0 - p))
            assert abs(hits[idx] - n_events * p) <= 3.5 * sigma


class TestMeckeDiscreteSimulate:
    def test_stop_rules(self, unit_square):
        rng = np.random.default_rng(10)
        trace = mecke_discrete_simulate(unit_square, ISO, rng, max_decisions=25)
        assert len(trace.events) == 25
        assert [e.time for e in trace.events] == list(range(1, 26))
        trace = mecke_discrete_simulate(unit_square, ISO, rng, max_jumps=5)
        assert trace.jump_count == 5
        assert trace.events[-1].jump

    def test_refuses_jumps_it_cannot_reach(self, unit_square):
        # 300 jumps come near t = 9.2 of the equally-likely clock, after about
        # e^36 decisions: refused, no draw made; a decision cap bounds the run
        rng = np.random.default_rng(24)
        with pytest.raises(DomainError, match="MAX_EXPECTED_DECISIONS"):
            mecke_discrete_simulate(unit_square, ISO, rng, max_jumps=300)
        assert rng.random() == np.random.default_rng(24).random()
        assert mecke_discrete_simulate(unit_square, ISO, rng, max_jumps=3).jump_count == 3
        trace = mecke_discrete_simulate(unit_square, ISO, rng, max_jumps=300, max_decisions=50)
        assert len(trace.events) == 50

    def test_first_jump_at_decision_one(self, unit_square):
        rng = np.random.default_rng(11)
        for _ in range(300):
            trace = mecke_discrete_simulate(unit_square, ISO, rng, max_jumps=1)
            assert [e.time for e in trace.events if e.jump] == [1]

    def test_tiling_and_counting_invariants(self, unit_square):
        rng = np.random.default_rng(12)
        for _ in range(20):
            trace = mecke_discrete_simulate(unit_square, ISO, rng, max_decisions=30)
            state = final_state(trace)
            state.validate(unit_square)

    def test_restart_preserves_waiting_law(self, unit_square):
        # Markov property surrogate: a fresh stream from a saved state gives the
        # waiting-time pmf of the closed form evaluator.  The state is fixed, so
        # the test's cost does not hang on a stream: the waits' tail falls like
        # w^(-L), and the cuts x = 0.5, 0.25, 0.75 give four strips with
        # L = 10 / 4 = 2.5, in six slots (n0 = 6, k = 4)
        def halves(cell, x):
            res = split(cell, vertical_line_at(x))
            return res.positive_part, res.negative_part

        left, right = halves(unit_square, 0.5)
        saved = QuasiCellState(
            quasi_cells=(*halves(left, 0.25), None, *halves(right, 0.75), None),
            decision_count=5, jump_count=3,
        )
        saved.validate(unit_square)
        n0 = saved.decision_count + 1
        k = saved.jump_count + 1
        l_k = sum(hitting_measure(ISO, c) for c in saved.cells) / hitting_measure(
            ISO, unit_square
        )
        waits = []
        for r in range(20_000):
            fresh = replica_rng(1000, r)
            state, event = mecke_discrete_step(saved, ISO, unit_square, fresh)
            wait = 1
            while not event.jump:
                state, event = mecke_discrete_step(state, ISO, unit_square, fresh)
                wait += 1
            waits.append(wait)
        pmf = lambda w: discrete_waiting_pmf(n0, k, l_k, w) if w >= 1 else 0.0
        _, p, _ = chi_square_gof(counts_from_values(waits), pmf, support_lo=1)
        assert p > 0.001


class TestMeckeContinuous:
    def test_zero_time_is_bare_window(self, unit_square):
        trace = mecke_continuous_simulate(unit_square, ISO, np.random.default_rng(19), max_time=0.0)
        state = final_state(trace)
        assert state.decision_count == 0
        assert state.cells == (unit_square,)
        assert trace.events == ()

    def test_decision_count_geometric(self, unit_square):
        rng = np.random.default_rng(20)
        t = 0.5
        rate = hitting_measure(ISO, unit_square)
        n = 20_000
        decisions = []
        for _ in range(n):
            trace = mecke_continuous_simulate(unit_square, ISO, rng, max_time=t)
            decisions.append(len(trace.events))
        p0 = math.exp(-rate * t)
        pmf = lambda k: p0 * (1.0 - p0) ** k if k >= 0 else 0.0
        _, p, _ = chi_square_gof(counts_from_values(decisions), pmf, support_lo=0)
        assert p > 0.001

    def test_prefix_property(self, unit_square):
        # one run restricted to a smaller horizon is a prefix of the longer run
        for seed in range(20):
            short = mecke_continuous_simulate(
                unit_square, ISO, np.random.default_rng(seed), max_time=0.4
            )
            long = mecke_continuous_simulate(
                unit_square, ISO, np.random.default_rng(seed), max_time=1.0
            )
            assert long.events[: len(short.events)] == short.events
            assert all(e.time > 0.4 for e in long.events[len(short.events):])

    def test_state_matches_trace(self, unit_square):
        trace = mecke_continuous_simulate(unit_square, ISO, np.random.default_rng(21), max_time=0.8)
        assert trace.model_tag is ModelTag.MECKE_CONTINUOUS
        final_state(trace).validate(unit_square)

    def test_refuses_more_than_the_expected_work_budget(self, unit_square):
        # rate * t = 4 * 5 means about 4.9e8 expected decisions: refused, no draw made
        rng = np.random.default_rng(22)
        with pytest.raises(DomainError, match="MAX_EXPECTED_DECISIONS"):
            mecke_continuous_simulate(unit_square, ISO, rng, max_time=5.0)
        assert rng.random() == np.random.default_rng(22).random()
        budget_t = math.log1p(processes.MAX_EXPECTED_DECISIONS) / hitting_measure(ISO, unit_square)
        with pytest.raises(DomainError):
            mecke_continuous_simulate(unit_square, ISO, rng, max_time=budget_t * 1.001)

    def test_cowan_el_refuses_the_same_budget_without_a_jump_cap(self, unit_square):
        rng = np.random.default_rng(23)
        with pytest.raises(DomainError, match="MAX_EXPECTED_DECISIONS"):
            cowan_el_simulate(unit_square, ISO, rng, max_time=5.0)
        assert rng.random() == np.random.default_rng(23).random()
        trace = cowan_el_simulate(unit_square, ISO, rng, max_time=5.0, max_jumps=7)
        assert trace.jump_count == 7


# ---------------------------------------------------------------------------
# the block engine against the scalar oracle (`conftest.scalar_mecke`), in
# law, and a control whose picks never reach the newest slot; seeds 2201-2205
# were fixed before any result was seen


class _PicksOneShort:
    """A generator whose picks range over n - 1 of the n slots (at least 1),
    so the newest quasi-cell is never picked; every other draw is the real one."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def integers(self, high):
        return self.rng.integers(np.maximum(np.asarray(high) - 1, 1))

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _jump_count_p(window, decisions: int, seed: int, runs: int, oracle_runs: int, rng_of=None) -> float:
    """Two-sample chi-square p-value of the jump count after `decisions`
    decisions: `mecke_discrete_simulate` against the scalar oracle."""
    rng = np.random.default_rng(seed)
    block_rng = rng if rng_of is None else rng_of(rng)
    block = counts_from_values(
        mecke_discrete_simulate(window, ISO, block_rng, max_decisions=decisions).jump_count
        for _ in range(runs)
    )
    oracle = counts_from_values(
        sum(e.jump for e in scalar_mecke(window, ISO, rng, max_decisions=decisions))
        for _ in range(oracle_runs)
    )
    return two_sample_chi_square(block, oracle)[1]


@pytest.mark.parametrize(
    "decisions, seed, runs, oracle_runs", [(2, 2201, 3000, 1500), (40, 2202, 1500, 600)]
)
def test_block_jump_count_matches_the_oracle(decisions, seed, runs, oracle_runs, unit_square):
    assert _jump_count_p(unit_square, decisions, seed, runs, oracle_runs) > 1e-3


def test_block_l_sequence_matches_the_oracle(unit_square):
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(2203)

    def values(events):
        trace = ProcessTrace(unit_square, ISO, tuple(events), ModelTag.MECKE_DISCRETE)
        return l_sequence(trace).values

    block = np.array([values(mecke_discrete_simulate(unit_square, ISO, rng, max_jumps=3).events)
                      for _ in range(800)])
    oracle = np.array([values(scalar_mecke(unit_square, ISO, rng, max_jumps=3)) for _ in range(400)])
    for k in (1, 2, 3):
        assert ks_2samp(block[:, k], oracle[:, k]).pvalue > 1e-3, k


def test_block_continuous_counts_match_the_oracle(unit_square):
    # at rate * t = 2.5: the decision count is Geometric(e^-2.5) on {0, 1, ...},
    # and the jump count has the oracle's law
    rate = hitting_measure(ISO, unit_square)
    t = 2.5 / rate
    rng = np.random.default_rng(2204)
    traces = [mecke_continuous_simulate(unit_square, ISO, rng, max_time=t) for _ in range(2000)]
    decisions = counts_from_values(len(trace.events) for trace in traces)
    assert chi_square_gof(decisions, lambda k: nu_pmf(rate, t, k), support_lo=0)[1] > 1e-3
    jumps = counts_from_values(trace.jump_count for trace in traces)
    oracle = counts_from_values(
        sum(e.jump for e in scalar_mecke(unit_square, ISO, rng, rate=rate, max_time=t))
        for _ in range(800)
    )
    assert two_sample_chi_square(jumps, oracle)[1] > 1e-3


def test_picks_over_one_slot_too_few_fail(unit_square):
    # at n = 2 the control always picks slot 0, the far part of the first cut
    assert _jump_count_p(unit_square, 2, 2205, 3000, 1500, rng_of=_PicksOneShort) < 1e-3


def _polygons(polys):
    return [ConvexPolygon(v[:k]) for v, k in zip(polys.verts.tolist(), polys.nv.tolist())]


class TestLSequence:
    def test_bare_window(self, unit_square):
        trace = ProcessTrace(unit_square, ISO, (), ModelTag.STIT, None)
        assert l_sequence(trace).values == (1.0,)

    def test_symmetric_split_value(self, unit_square):
        event = TraceEvent(time=0.3, cell_index=0, line=vertical_line_at(0.5), jump=True)
        trace = ProcessTrace(unit_square, ISO, (event,), ModelTag.STIT, None)
        lseq = l_sequence(trace)
        assert lseq.rate == pytest.approx(4.0)
        assert lseq.values[0] == 1.0
        assert lseq.values[1] == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize(
        "measure", [ISO, DirectionMixture(((0.0, 1.0), (math.pi / 3, 0.5), (2.0, 0.8)))],
        ids=["iso", "dirs"],
    )
    def test_running_total_matches_a_re_sum(self, unit_square, measure):
        trace = stit_simulate(unit_square, measure, np.random.default_rng(24), max_jumps=1000)
        rate = hitting_measure(measure, unit_square)
        parts = {}  # event: the weights of its far and origin parts
        for wave, _, res, _ in replay(trace):
            for i, far, origin in zip(wave, _polygons(res.far), _polygons(res.origin)):
                parts[i] = hitting_measure(measure, far), hitting_measure(measure, origin)
        weights, want = [rate], [1.0]  # one weight per slot, summed again at every jump
        for i, event in enumerate(trace.events):
            weights[event.cell_index], w_origin = parts[i]
            weights.append(w_origin)
            want.append(math.fsum(weights) / rate)
        assert l_sequence(trace).values == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_strictly_increasing_on_simulated_traces(self, unit_square):
        rng = np.random.default_rng(22)
        for model in ("stit", "mecke"):
            for _ in range(20):
                if model == "stit":
                    trace = stit_simulate(unit_square, ISO, rng, max_jumps=10)
                else:
                    trace = mecke_discrete_simulate(unit_square, ISO, rng, max_jumps=8)
                values = l_sequence(trace).values
                assert all(a < b for a, b in zip(values, values[1:]))
                assert all(1.0 <= v <= k for k, v in enumerate(values, start=1))

    def test_validation(self):
        with pytest.raises(DomainError):
            LSequence((1.5, 2.0), rate=1.0)  # must start at exactly 1
        with pytest.raises(DomainError):
            LSequence((1.0, 2.5), rate=1.0)  # value above its position bound
        with pytest.raises(DomainError):
            LSequence((1.0, 1.5), rate=0.0)
        with pytest.raises(DomainError):
            LSequence((1.0, 1.5, 1.4), rate=1.0)  # a decrease
        # neighbours closer than any fixed gap are a valid sequence; an
        # evaluator that cannot resolve them refuses it (IllConditioned)
        assert LSequence((1.0, 1.0 + 1e-12), rate=1.0).values == (1.0, 1.0 + 1e-12)
        assert LSequence((1.0, 2.0, 2.0), rate=1.0).values == (1.0, 2.0, 2.0)

    def test_a_long_trace_with_close_weights_has_its_sequence(self, unit_square):
        # at this seed two neighbouring values are 5.7e-10 apart (relative)
        trace = stit_simulate(unit_square, ISO, np.random.default_rng(3), max_jumps=8000)
        values = l_sequence(trace).values
        assert len(values) == 8001
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert min((b - a) / b for a, b in zip(values, values[1:])) < 1e-9


class TestReplicaRng:
    def test_deterministic_and_distinct(self):
        a = replica_rng(42, 0).random(4)
        b = replica_rng(42, 0).random(4)
        c = replica_rng(42, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_keyed_child_stream(self):
        # the equivalence harness keys each check's stream as (check, *indices)
        expected = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(2, 1, 0)))
        assert np.array_equal(replica_rng(42, 2, 1, 0).random(4), expected.random(4))
        assert np.array_equal(replica_rng(42).random(4), replica_rng(42, 0).random(4))


# SHA-256 of the traces at seeds 0, 1 and 2 written one after another.  The
# digests pin the random stream: a change that moves them (a different draw
# order, a different selector) changes every pinned-seed result downstream,
# so it must update this table on purpose and be checked over many seeds.
# The STIT and Cowan entries were re-recorded when those models moved to
# per-cell clocks (the law tests above and a sweep over fresh seeds); the
# Mecke entries when those models moved to block draws, and Cowan's jump-capped
# entries when its horizons came to be sized from the alive cells.
GOLDEN_SEEDS = (0, 1, 2)
GOLDEN_WINDOWS = {
    "unit-square": ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
    "triangle": ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
}
GOLDEN_MEASURES = {
    "iso": ISO,
    "dirs": DirectionMixture(
        ((0.0, 1.0), (1.0471975511965976, 2.0), (2.0943951023931953, 1.0))
    ),
}
GOLDEN_TRACES = {
    ("stit", "max_jumps", 2000, "unit-square", "iso"):
        "ffa4506fea7fae61ed9dd6a6b4c7467efe327701465c730991713e08d777fd34",
    ("cowan-el", "max_jumps", 25, "triangle", "dirs"):
        "f6ebc795b9878fe0e8c29c2b6670c2aafa04b0ff5f5a8428437fcbbdc2cce114",
    ("cowan-el", "max_jumps", 25, "triangle", "iso"):
        "8bad4c887e7a4d9e85b5b49556ee7cc93abbf7f9f018cf62e8f78754068117ef",
    ("cowan-el", "max_jumps", 25, "unit-square", "dirs"):
        "f5c0a6e9ca89bd8552f0b1221d63551cb9104a439810ed9957375c2b17878992",
    ("cowan-el", "max_jumps", 25, "unit-square", "iso"):
        "c6ce00623376504365f8aa4bc072720a3bfe360a61ee2b86b97f262b17fe2ba0",
    ("cowan-el", "max_time", 1.0, "triangle", "dirs"):
        "5551fda384c34f58ce1366618cf1ac7f093e1d1b2ec78ab74ec58e58aabb27e2",
    ("cowan-el", "max_time", 1.0, "triangle", "iso"):
        "8fe51cad49864e33ab0341177eb25e932116ebc9a706e61756dacd737fa7ca94",
    ("cowan-el", "max_time", 1.0, "unit-square", "dirs"):
        "f02f0eeab007063ce800527cbd0a6731d03356587e60b88c46ae29f687f642ee",
    ("cowan-el", "max_time", 1.0, "unit-square", "iso"):
        "cd6b7888c8dd7d6a2c9bfdf72a9c2d4d2804a9b84e618a002d2179a8bfdf02e1",
    ("mecke-continuous", "max_time", 0.8, "triangle", "dirs"):
        "1136226529be97e942cec117f362cf250e10721f918283bc6a6f3bc79fb1b591",
    ("mecke-continuous", "max_time", 0.8, "triangle", "iso"):
        "b17283000833977d39bd8af3b3ab2819ac60494ccc0a7c0ba30bf1aa4c434c8e",
    ("mecke-continuous", "max_time", 0.8, "unit-square", "dirs"):
        "a594b3d40c7e9fa85c54d7c97b0ffd74dbd4fbc6517672a6178eb0b0e33e4897",
    ("mecke-continuous", "max_time", 0.8, "unit-square", "iso"):
        "807d1bf58b83de80c855ff8f8f42d08e3bf9e153dc36a951f773cfd913fd384c",
    ("mecke-discrete", "max_decisions", 60, "triangle", "dirs"):
        "337e9a729cddc597db3795e8b18122ea86315d7fbe44113d1126e400c15ff012",
    ("mecke-discrete", "max_decisions", 60, "triangle", "iso"):
        "9b4e34083406e0410ab3137735d86cd46c925938fe9caecdf742b56d723fdfa8",
    ("mecke-discrete", "max_decisions", 60, "unit-square", "dirs"):
        "a80af6c539e7f2b6e32199f7b9ae273e725260a20112111c3cfe6bd8581aa86b",
    ("mecke-discrete", "max_decisions", 60, "unit-square", "iso"):
        "ed74a9609ce53231b926d2772850efd7f9b90eb5a3647d792b9ae4a948db37ef",
    ("mecke-discrete", "max_jumps", 8, "triangle", "dirs"):
        "f5ac5ef7d26119fa9026e7082f23c5206b827485c12318d90a44d1e490834673",
    ("mecke-discrete", "max_jumps", 8, "triangle", "iso"):
        "4a4d3b20a0d1355b14940ee2f7fc5f0d288acc2db968665cdfa62af9cba8b655",
    ("mecke-discrete", "max_jumps", 8, "unit-square", "dirs"):
        "f05b7adce21667071e6a240d5e1c2ee70df9143036b58b4ebc57e236a793787c",
    ("mecke-discrete", "max_jumps", 8, "unit-square", "iso"):
        "698f8341e2ee4b8ed651c1b9e746988f9691c7fbd6bde68b3f9fc1000a397d47",
    ("stit", "max_jumps", 25, "triangle", "dirs"):
        "969109fecf7ab67e9c536978e07b190cb1e53a02923efd8e92bec19af5811270",
    ("stit", "max_jumps", 25, "triangle", "iso"):
        "d4b9bd93d9966124e5e335bb9b32b32d8866cbbbdd9325b2924c177a98b8ab37",
    ("stit", "max_jumps", 25, "unit-square", "dirs"):
        "db20e6037b2df6cbf12d537c9de75a49050a2b73a9a853ec622f4e6f20649abf",
    ("stit", "max_jumps", 25, "unit-square", "iso"):
        "72be4bbfb6945fa26a231368b1e1e5067e9c17259b9621453edafadc11285bde",
    ("stit", "max_time", 1.0, "triangle", "dirs"):
        "76dd7d259018efedb322a7b44ab304c3a269dbf1a2635fba01c7043a84d60cdf",
    ("stit", "max_time", 1.0, "triangle", "iso"):
        "d65271892588f81180f9832437a445bf5760a2ed3707143dd9476c5d6ded561e",
    ("stit", "max_time", 1.0, "unit-square", "dirs"):
        "20fafb316c9a48ea77be33a1069a5f4a06ad763ec8a8c397187822d34c839efc",
    ("stit", "max_time", 1.0, "unit-square", "iso"):
        "f739468e274acccefb5526c516695b1f1444cb889f8acc9f8d0c145d0ec5be88",
}


def _golden_trace(model, stop, value, window, measure, seed):
    simulate = {
        "stit": stit_simulate,
        "cowan-el": cowan_el_simulate,
        "mecke-discrete": mecke_discrete_simulate,
        "mecke-continuous": mecke_continuous_simulate,
    }[model]
    return simulate(window, measure, np.random.default_rng(seed), seed=seed, **{stop: value})


@pytest.mark.parametrize("case", sorted(GOLDEN_TRACES), ids=lambda c: "-".join(map(str, c)))
def test_golden_trace_digests(case):
    model, stop, value, window, measure = case
    h = hashlib.sha256()
    for seed in GOLDEN_SEEDS:
        trace = _golden_trace(
            model, stop, value, GOLDEN_WINDOWS[window], GOLDEN_MEASURES[measure], seed
        )
        h.update("\n".join(trace_to_lines(trace)).encode())
    assert h.hexdigest() == GOLDEN_TRACES[case]


# The scalar oracle's digests, computed as GOLDEN_TRACES computes them: they
# are the Mecke entries that table held before the block engine, so the oracle
# draws the stream of the former one-decision-at-a-time engine.
SCALAR_ORACLE_TRACES = {
    ("mecke-continuous", "max_time", 0.8, "triangle", "dirs"):
        "a2bf2fb23d73b3ff2215dc75f7eaef2627c89dfd2975dffc9d76e9f204d07ae9",
    ("mecke-continuous", "max_time", 0.8, "triangle", "iso"):
        "415e043dc30100570ac3fbb9e2d3bd59b4a6f71661086f45d82471d71a7e5a3e",
    ("mecke-continuous", "max_time", 0.8, "unit-square", "dirs"):
        "5e83f65486f45c412ab550ba9b74d086244b8dbbcba5b1a5f72dae7ecfa233df",
    ("mecke-continuous", "max_time", 0.8, "unit-square", "iso"):
        "e9e654b61782c1d99eee05b350d4c7fcedabe418d240e66ea564627773117811",
    ("mecke-discrete", "max_decisions", 60, "triangle", "dirs"):
        "66bcd9b43213be78a96fb2f22651e5690cf66f639e88901f780ca5a13e17d550",
    ("mecke-discrete", "max_decisions", 60, "triangle", "iso"):
        "4c71ebed2a213cd633859d2ac7b521297f8cc7889093242180f6c2f78fdbc82e",
    ("mecke-discrete", "max_decisions", 60, "unit-square", "dirs"):
        "8708defc45e1680afd64594f40e754af3c1b3618fca366b8364e54e364f415dd",
    ("mecke-discrete", "max_decisions", 60, "unit-square", "iso"):
        "20436177e263345f37e57708eca4b50e48014ace148ed5fc722ea03238368164",
    ("mecke-discrete", "max_jumps", 8, "triangle", "dirs"):
        "757134cc265e53932d958575484a581aacabd2233b42f0d6934fa4f1f7930c9e",
    ("mecke-discrete", "max_jumps", 8, "triangle", "iso"):
        "b83c468061470eff294b7a03d3c2030d50ca4bd7d1e59e29466d1bc66cc4715f",
    ("mecke-discrete", "max_jumps", 8, "unit-square", "dirs"):
        "b61c6a276b954bc40da5114d60fc8884137818160f6bf8c0d19138d28f115276",
    ("mecke-discrete", "max_jumps", 8, "unit-square", "iso"):
        "1cabd87138f2f970ca40db745433c27332a160a8216bef6c0aa2263f82c6fac6",
}


@pytest.mark.parametrize("case", sorted(SCALAR_ORACLE_TRACES), ids=lambda c: "-".join(map(str, c)))
def test_scalar_oracle_is_the_former_engine(case):
    model, stop, value, window, measure = case
    window, measure = GOLDEN_WINDOWS[window], GOLDEN_MEASURES[measure]
    rate = hitting_measure(measure, window) if model == "mecke-continuous" else None
    tag = ModelTag.MECKE_CONTINUOUS if rate else ModelTag.MECKE_DISCRETE
    h = hashlib.sha256()
    for seed in GOLDEN_SEEDS:
        events = scalar_mecke(window, measure, np.random.default_rng(seed), rate=rate, **{stop: value})
        h.update("\n".join(trace_to_lines(ProcessTrace(window, measure, tuple(events), tag, seed))).encode())
    assert h.hexdigest() == SCALAR_ORACLE_TRACES[case]
