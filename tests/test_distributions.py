import hashlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import stitlab
from stitlab.distributions import (
    CONDITION_LIMIT,
    ELL_MAX,
    N_MAX,
    TruncationPolicy,
    cowan_sum_cdf,
    discrete_jump_pmf,
    discrete_jump_pmf_mass,
    discrete_jump_pmf_sequence,
    discrete_waiting_pmf,
    discrete_waiting_pmf_mass,
    discrete_waiting_pmf_sequence,
    mecke_jump_tail,
    nu_pmf,
    stit_jump_cdf,
    stit_jump_pdf,
)
from stitlab.errors import DomainError, IllConditioned
from stitlab.processes import LSequence
from stitlab.stats import ks_test, random_l_sequence

L_SIMPLE = LSequence((1.0, 1.5), rate=1.0)
L_THREE = LSequence((1.0, 1.5, 2.2), rate=1.0)

# Frozen oracle: CDF of Exp(1) + Exp(1.5) by adaptive quadrature of the
# convolution integral (quad error < 1e-14 at every point).
CONV_CDF_ORACLE = {
    0.25: 0.03817620836772978,
    0.5: 0.12514112634412913,
    1.0: 0.3426219967825327,
    1.75: 0.6235576837171676,
    3.0: 0.8728567879728928,
}


def brute_force_jump_pmf(values: tuple[float, ...], ell: int, n_max: int) -> np.ndarray:
    """Absorption probabilities of the decision chain by dynamic programming.

    State: number of jumps j after n decisions; decision n+1 jumps with
    probability values[j] / (n+1).  Independent of the evaluator under test.
    """
    probs = np.zeros((n_max + 1, ell + 1))
    probs[0, 0] = 1.0
    for n in range(1, n_max + 1):
        for j in range(min(n, ell) + 1):
            stay = probs[n - 1, j] * (1.0 - values[j] / n) if j < len(values) else 0.0
            come = probs[n - 1, j - 1] * values[j - 1] / n if j >= 1 else 0.0
            probs[n, j] = stay + come
    out = np.zeros(n_max + 1)
    for n in range(ell, n_max + 1):
        out[n] = probs[n - 1, ell - 1] * values[ell - 1] / n
    return out


class TestStitJumpCdf:
    def test_single_jump_median(self):
        lseq = LSequence((1.0,), rate=1.0)
        assert stit_jump_cdf(lseq, 1, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_zero_time(self):
        for n in (1, 2, 3):
            assert stit_jump_cdf(L_THREE, n, 0.0) == 0.0

    def test_matches_convolution_quadrature(self):
        for t, expected in CONV_CDF_ORACLE.items():
            assert stit_jump_cdf(L_SIMPLE, 2, t) == pytest.approx(expected, abs=1e-12)

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.0, 6.0, 400)
        for n in (1, 2, 3):
            values = stit_jump_cdf(L_THREE, n, grid)
            assert np.all(values >= 0.0) and np.all(values <= 1.0)
            assert np.all(np.diff(values) >= -1e-12)
        assert stit_jump_cdf(L_THREE, 3, 60.0) == pytest.approx(1.0, abs=1e-9)

    def test_vector_matches_scalar(self):
        grid = np.linspace(0.0, 3.0, 17)
        vec = stit_jump_cdf(L_THREE, 3, grid)
        scl = [stit_jump_cdf(L_THREE, 3, float(t)) for t in grid]
        assert vec.tolist() == scl

    def test_precision_guards(self):
        long_seq = LSequence(tuple(1.0 + 0.25 * k for k in range(16)), rate=1.0)
        with pytest.raises(IllConditioned):
            stit_jump_cdf(long_seq, 16, 1.0)
        tight = LSequence((1.0, 1.0 + 1e-7, 1.0 + 2e-7), rate=1.0)
        with pytest.raises(IllConditioned):
            stit_jump_cdf(tight, 3, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            stit_jump_cdf(L_SIMPLE, 3, 1.0)
        with pytest.raises(DomainError):
            stit_jump_cdf(L_SIMPLE, 2, -0.1)


class TestStitJumpPdf:
    def test_single_jump_is_exponential(self):
        lseq = LSequence((1.0,), rate=4.0)
        for t in (0.0, 0.2, 1.0):
            assert stit_jump_pdf(lseq, 1, t) == pytest.approx(4.0 * math.exp(-4.0 * t))

    def test_finite_difference_consistency(self):
        # oracle: central difference of the CDF with h = 1e-5
        h = 1e-5
        for t in (0.3, 0.8, 1.5):
            fd = (stit_jump_cdf(L_THREE, 3, t + h) - stit_jump_cdf(L_THREE, 3, t - h)) / (2 * h)
            assert stit_jump_pdf(L_THREE, 3, t) == pytest.approx(fd, rel=1e-6)

    def test_integrates_to_one(self):
        # the density decays like e^{-4t}; mass beyond t=10 is below e^{-40}
        lseq = LSequence((1.0, 1.4, 1.9), rate=4.0)
        total, err = quad(lambda x: stit_jump_pdf(lseq, 3, x), 0.0, 10.0, limit=200)
        assert err < 1e-10
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative(self):
        grid = np.linspace(0.0, 8.0, 500)
        assert np.all(stit_jump_pdf(L_THREE, 3, grid) >= 0.0)


class TestDiscreteWaitingPmf:
    def test_one_step_wait(self):
        assert discrete_waiting_pmf(3, 2, 1.5, 1) == pytest.approx(0.5)

    def test_two_step_wait(self):
        n, l_k = 3, 1.5
        expected = (1.0 - l_k / n) * l_k / (n + 1)
        assert discrete_waiting_pmf(3, 2, 1.5, 2) == pytest.approx(expected, rel=1e-12)

    def test_bare_window_waits_one_step(self):
        assert discrete_waiting_pmf(1, 1, 1.0, 1) == 1.0
        assert discrete_waiting_pmf(1, 1, 1.0, 2) == 0.0
        # the recurrence's first factor is (2 - 1 - 1)/2 = 0
        assert discrete_waiting_pmf(1, 1, 1.0, [3, 1, 70_000]).tolist() == [0.0, 1.0, 0.0]
        assert discrete_waiting_pmf_sequence(1, 1, 1.0, 4).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert discrete_waiting_pmf_mass(1, 1, 1.0, 10) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            discrete_waiting_pmf(1, 2, 1.5, 1)  # n=1 forces k=1
        with pytest.raises(DomainError):
            discrete_waiting_pmf(3, 1, 1.0, 1)  # k=1 impossible after a decision
        with pytest.raises(DomainError):
            discrete_waiting_pmf(3, 4, 2.0, 1)  # k cannot exceed n
        with pytest.raises(DomainError):
            discrete_waiting_pmf(4, 2, 2.5, 1)  # weight above its cell count
        with pytest.raises(DomainError):
            discrete_waiting_pmf(1, 1, 1.0 + 1e-13, 1)  # the single-cell weight is exactly 1
        with pytest.raises(DomainError):
            discrete_waiting_pmf(3, 2, 1.5, 0)
        with pytest.raises(DomainError):
            discrete_waiting_pmf(3, 2, 1.5, [4, 0])
        with pytest.raises(DomainError, match="integer"):
            discrete_waiting_pmf(3, 2, 1.5, 2.5)
        with pytest.raises(DomainError, match="integer"):
            discrete_waiting_pmf(3, 2, 1.5, [2, 2.5])
        for max_wait in (0, -5):  # an empty range of waits
            for evaluate in (discrete_waiting_pmf_sequence, discrete_waiting_pmf_mass):
                with pytest.raises(DomainError, match="max_wait"):
                    evaluate(3, 2, 1.5, max_wait)

    def test_weight_above_its_cell_count_is_refused(self):
        # l_k/n above 1 gave a first value of 1.0000000000001 and negative values after it
        with pytest.raises(DomainError, match="outside"):
            discrete_waiting_pmf(2, 2, 2.0000000000002, [1, 2, 3])
        assert discrete_waiting_pmf(2, 2, 2.0, [1, 2, 3]).tolist() == [1.0, 0.0, 0.0]

    def test_sequence_matches_scalar(self):
        seq = discrete_waiting_pmf_sequence(4, 3, 2.2, 30)
        for w in range(1, 31):
            assert seq[w - 1] == pytest.approx(discrete_waiting_pmf(4, 3, 2.2, w), rel=1e-12)

    def test_point_values_read_the_sequence(self):
        # an unsorted grid with a repeat, across a window boundary of the stream
        waits = [70_001, 3, 65_536, 65_537, 3, 1]
        seq = discrete_waiting_pmf_sequence(4, 3, 2.2, 70_001)
        got = discrete_waiting_pmf(4, 3, 2.2, waits)
        assert got.tobytes() == seq[np.array(waits) - 1].tobytes()
        assert discrete_waiting_pmf(4, 3, 2.2, 65_537) == seq[65_536]
        assert type(discrete_waiting_pmf(4, 3, 2.2, 5)) is float
        assert discrete_waiting_pmf(4, 3, 2.2, []).shape == (0,)

    def test_normalization(self):
        for n, l_k in ((2, 1.5), (5, 1.9), (8, 2.7)):
            k = max(2, math.ceil(l_k))
            mass = discrete_waiting_pmf_mass(n, k, l_k, 10**8, stop_mass=1.0 - 1e-8)
            assert mass >= 1.0 - 1e-8

    @staticmethod
    def _beta_geometric_gap(shift: float) -> float:
        """Largest |1 - mass through M - P(wait > M)| with the beta-geometric
        tail Gamma(n)Gamma(n-L+M)/(Gamma(n-L)Gamma(n+M)) evaluated at L + shift."""
        gap = 0.0
        for n in (2, 4, 6, 9):
            for l_k in (1.5, 1.9, 2.7, 3.3):
                k = max(2, math.ceil(l_k))
                if k > n:
                    continue
                lw = l_k + shift
                for max_wait in (1, 2, 10, 1000, 10**5):
                    tail = math.exp(math.lgamma(n) + math.lgamma(n - lw + max_wait)
                                    - math.lgamma(n - lw) - math.lgamma(n + max_wait))
                    mass = discrete_waiting_pmf_mass(n, k, l_k, max_wait)
                    gap = max(gap, abs(1.0 - mass - tail))
        return gap

    def test_beta_geometric_tail(self):
        # P(wait > M) = prod_{m=n}^{n+M-1} (1 - L/m) = (n-L)_M/(n)_M
        assert self._beta_geometric_gap(0.0) <= 1e-12
        assert self._beta_geometric_gap(1e-6) > 1e-12  # a mutant weight fails it


class TestDiscreteJumpPmf:
    def test_second_jump_closed_form(self):
        # for two cells: pmf(n) = value * (1/n!) * prod_{m=2}^{n-1} (m - value)
        value = 1.5
        lseq = LSequence((1.0, value), rate=1.0)
        for n in (2, 3, 4, 7, 12):
            prod = 1.0
            for m in range(2, n):
                prod *= m - value
            expected = value * prod / math.factorial(n)
            assert discrete_jump_pmf(lseq, 2, n) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_chain(self):
        lseq = LSequence((1.0, 1.4, 2.3, 2.9), rate=1.0)
        for ell in (2, 3, 4):
            oracle = brute_force_jump_pmf(lseq.values, ell, 40)
            for n in range(ell, 41):
                assert discrete_jump_pmf(lseq, ell, n) == pytest.approx(
                    float(oracle[n]), rel=1e-10, abs=1e-15
                )

    def test_recursion_consistency(self):
        # convolving the ell-jump law with the waiting law gives the (ell+1)-jump law
        lseq = LSequence((1.0, 1.6, 2.4), rate=1.0)
        for n in range(3, 26):
            direct = discrete_jump_pmf(lseq, 3, n)
            conv = sum(
                discrete_jump_pmf(lseq, 2, k)
                * discrete_waiting_pmf(k + 1, 3, lseq.values[2], n - k)
                for k in range(2, n)
            )
            assert direct == pytest.approx(conv, rel=1e-10)

    def test_nonnegative_and_normalized(self):
        seq = discrete_jump_pmf_sequence(L_THREE, 3, 2000)
        assert np.all(seq >= 0.0)
        mass = discrete_jump_pmf_mass(L_THREE, 3, 10**6)
        assert mass >= 1.0 - 1e-8

    def test_precision_guard(self):
        long_seq = LSequence(tuple(1.0 + 0.2 * k for k in range(13)), rate=1.0)
        with pytest.raises(IllConditioned):
            discrete_jump_pmf(long_seq, 13, 20)

    def test_condition_guard_below_the_length_cap(self):
        # the last two weights are 1e-7 apart: about 87 times the relative gap
        # LSequence demands, yet the alternating sum's condition passes 1e8
        close = LSequence((1.0, 1.05, 1.1, 1.15, 1.15 + 1e-7), rate=1.0)
        assert len(close) < ELL_MAX
        for evaluate in (discrete_jump_pmf, discrete_jump_pmf_sequence):
            with pytest.raises(IllConditioned, match="condition .* exceeds"):
                evaluate(close, 5, 20)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            discrete_jump_pmf(L_THREE, 1, 5)
        with pytest.raises(DomainError):
            discrete_jump_pmf(L_THREE, 3, 2)
        with pytest.raises(DomainError, match="n=2"):
            discrete_jump_pmf(L_THREE, 3, [7, 2, 5])
        with pytest.raises(DomainError, match="integer"):
            discrete_jump_pmf(L_THREE, 3, 5.5)
        for evaluate in (discrete_jump_pmf_sequence, discrete_jump_pmf_mass):
            with pytest.raises(DomainError, match="n_last"):  # an empty range of decisions
                evaluate(L_THREE, 3, 2)

    def test_point_values_read_the_sequence(self):
        # an unsorted grid with a repeat, across a window boundary of the stream
        ns = [70_000, 3, 65_538, 65_539, 3, 41]
        seq = discrete_jump_pmf_sequence(L_THREE, 3, 70_000)
        assert discrete_jump_pmf(L_THREE, 3, ns).tobytes() == seq[np.array(ns) - 3].tobytes()
        assert discrete_jump_pmf(L_THREE, 3, 65_539) == seq[65_536]
        assert type(discrete_jump_pmf(L_THREE, 3, 5)) is float

    def test_far_point_value_holds_a_bounded_window(self):
        import tracemalloc

        from stitlab.distributions import _CHUNK

        window = _CHUNK * 2 * 8  # bytes of one window of rows for ell = 3 (two columns)
        discrete_jump_pmf(L_THREE, 3, 10)
        tracemalloc.start()
        try:
            value = discrete_jump_pmf(L_THREE, 3, 3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < value < 1e-15
        assert peak < 3 * window  # the values up to n would take 23 windows


def test_precision_limits_are_fixed():
    # the past-cap rounds of the benchmark expect refusals at lengths 17 and 14
    assert (N_MAX, ELL_MAX, CONDITION_LIMIT) == (15, 12, 1e8)
    for fn in (stit_jump_cdf, stit_jump_pdf, discrete_jump_pmf, discrete_jump_pmf_sequence,
               discrete_jump_pmf_mass, mecke_jump_tail):
        assert not {"n_max", "ell_max", "condition_limit"} & set(inspect.signature(fn).parameters)


def _load_reference():
    """The benchmark's positive-term reference laws (perfbench/reference.py)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# equal nodes, nodes 1e-13 apart, and integer-valued ties, where a node gap
# of 0 meets a seed term of 0 in the discrete laws
TIED_SEQUENCES = [
    (1.0, 1.0), (1.0, 1.5, 1.5), (1.0, 1.5, 1.5, 2.5),
    (1.0, 1.0 + 1e-13), (1.0, 1.5, 1.5 + 1e-13), (1.0, 1.4, 2.2, 2.2 + 1e-13),
    (1.0, 2.0, 2.0), (1.0, 2.0, 3.0, 3.0), (1.0, 2.0, 2.0 + 1e-13),
]


@pytest.mark.parametrize("values", TIED_SEQUENCES, ids=str)
def test_tied_nodes_are_refused_or_exact(values):
    """Every jump law on equal or near-equal weights either raises
    IllConditioned or returns finite values within 1e-8 of the reference."""
    ref = _load_reference()
    lseq, times, n_last = LSequence(values, rate=1.0), (0.5, 1.0), 300
    cases = []
    for n in range(1, len(values) + 1):
        cases += [(stit_jump_cdf, (n, times), ref.jump_cdf(values, 1.0, n, times)),
                  (stit_jump_pdf, (n, times), ref.jump_pdf(values, 1.0, n, times))]
        pmf = ref.discrete_jump_pmf(values, n, n_last)  # n = ell..n_last
        decay = np.power.outer(-np.expm1(-np.array(times)), np.arange(n, n_last + 1))
        cases.append((mecke_jump_tail, (n, times), decay @ pmf))
        if n >= 2:
            cases += [(discrete_jump_pmf, (n, list(range(n, n + 8))), pmf[:8]),
                      (discrete_jump_pmf_sequence, (n, n + 40), pmf[:41]),
                      (discrete_jump_pmf_mass, (n, n_last), pmf.sum())]
    refused = 0
    for fn, args, want in cases:
        try:
            got = np.asarray(fn(lseq, *args), dtype=float)
        except IllConditioned:
            refused += 1
            continue
        assert np.isfinite(got).all(), (fn.__name__, args)
        assert np.abs(got - want).max() <= 1e-8, (fn.__name__, args)
    assert refused > 0  # each sequence has a tie some law cannot resolve


class TestMeckeJumpTail:
    def test_zero_time(self):
        assert mecke_jump_tail(L_THREE, 2, 0.0) == 0.0

    def test_first_jump_tail(self):
        lseq = LSequence((1.0,), rate=2.0)
        for t in (0.1, 0.7, 3.0):
            assert mecke_jump_tail(lseq, 1, t) == pytest.approx(-math.expm1(-2.0 * t))

    def test_equals_stit_cdf(self):
        rng = np.random.default_rng(30)
        for _ in range(15):
            lseq = random_l_sequence(rng, int(rng.integers(2, 7)), float(rng.uniform(0.5, 4.0)))
            for ell in range(1, len(lseq) + 1):
                for t in (0.1, 0.6, 1.7):
                    assert mecke_jump_tail(lseq, ell, t) == pytest.approx(
                        stit_jump_cdf(lseq, ell, t), abs=1e-6
                    )

    def test_any_valid_policy_gives_the_same_value(self):
        # the tail is a finite sum: a policy is accepted and changes nothing
        lseq = LSequence((1.0, 1.05), rate=4.0)
        times = np.array([0.001, 0.2, 3.0, 10.0, 175.0])  # rate * t up to 700
        value = mecke_jump_tail(lseq, 2, times)
        assert value.tolist() == [mecke_jump_tail(lseq, 2, t) for t in times]
        for policy in (None, TruncationPolicy(), TruncationPolicy(tail_bound=1e-10, max_terms=10),
                       TruncationPolicy(tail_bound=1e-15, max_terms=10**9)):
            assert mecke_jump_tail(lseq, 2, times, policy).tolist() == value.tolist()
            assert mecke_jump_tail(lseq, 2, 3.0, policy) == value[2]

    def test_integer_weight_values_have_no_pole(self):
        # a weight value equal to an integer k < ell zeroes (k - v_i) in a term
        lseq = LSequence((1.0, 2.0, 3.0, 3.5, 5.0), rate=1.0)
        times = np.array([1e-3, 0.1, 0.9, 3.0, 12.0, 50.0])
        for ell in range(2, len(lseq) + 1):
            tail = mecke_jump_tail(lseq, ell, times)
            assert np.abs(tail - stit_jump_cdf(lseq, ell, times)).max() <= 1e-13

    def test_refusal_leaves_no_cache_entry(self):
        long_seq = LSequence(tuple(1.0 + 0.2 * k for k in range(13)), rate=1.0)
        with pytest.raises(IllConditioned):
            mecke_jump_tail(long_seq, 13, 1.0)

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            TruncationPolicy(tail_bound=1e-3)
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=5)

    def test_far_horizon_equals_the_cdf(self):
        # at rate * t = 40, 80 and 700, 1 - exp(-rate * t) rounds to 1 and the
        # series has no geometric decay; the closed form needs none
        rng = np.random.default_rng(43)
        for _ in range(20):
            lseq = random_l_sequence(rng, int(rng.integers(2, 9)), float(rng.uniform(0.5, 4.0)))
            times = np.array([40.0, 80.0, 700.0]) / lseq.rate
            for ell in range(1, len(lseq) + 1):
                tail = mecke_jump_tail(lseq, ell, times)
                assert np.abs(tail - stit_jump_cdf(lseq, ell, times)).max() <= 1e-13
        lseq = LSequence((1.0, 1.5, 2.2), rate=4.0)
        assert mecke_jump_tail(lseq, 1, 10.0) == 1.0  # no series behind the first jump
        assert mecke_jump_tail(lseq, 3, [math.inf, 1e300]).tolist() == [1.0, 1.0]


def _grid_cases():
    """(lseq, ell, times) over random sequences and the special cases: t = 0,
    ell = 1, a time of 1e-12 (a tail of about 1e-24), unsorted grids with
    repeats, and a far horizon rate*t = 12."""
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(12):
        lseq = random_l_sequence(rng, int(rng.integers(2, 8)), float(rng.uniform(0.5, 4.0)))
        times = [0.0, 1e-12, 0.05, 2.5, 0.3, 1.0, 0.3, 12.0 / lseq.rate]
        cases += [(lseq, ell, times) for ell in range(1, len(lseq) + 1)]
    return cases


class TestGridEqualsPoint:
    """A point is a grid of one: every grid value equals its point call bit
    for bit, and a grid raises exactly when one of its times would."""

    @pytest.mark.parametrize("law", [stit_jump_cdf, stit_jump_pdf, mecke_jump_tail])
    def test_grid_values_equal_point_values(self, law):
        for lseq, ell, times in _grid_cases():
            grid = law(lseq, ell, np.array(times))
            assert grid.shape == (len(times),)
            assert grid.tolist() == [law(lseq, ell, t) for t in times]
            assert all(type(law(lseq, ell, t)) is float for t in times[:2])
        square = np.array([[0.0, 0.5], [1.0, 2.0]])
        assert law(L_THREE, 2, square).tolist() == [[law(L_THREE, 2, t) for t in row]
                                                    for row in square]

    def test_tail_special_cases(self):
        times = np.array([0.0, 1e-12, 0.7])
        tail = mecke_jump_tail(L_THREE, 2, times)
        assert tail[0] == 0.0
        assert tail[1] == pytest.approx(7.5e-25, rel=0.0, abs=1e-15)  # a^2 * pmf(2)
        first = mecke_jump_tail(LSequence((1.0,), rate=2.0), 1, times)
        assert first.tolist() == [-math.expm1(-2.0 * t) for t in times]
        assert mecke_jump_tail(L_THREE, 2, np.array([])).shape == (0,)

    def test_a_grid_raises_iff_one_of_its_points_raises(self):
        # weights 0.1 apart: the set-up's condition is 4.1e5, and the tail's
        # own terms pass CONDITION_LIMIT between rate * t of about 0.01 and 5
        lseq = LSequence(tuple(1.0 + 0.1 * k for k in range(12)), rate=1.0)
        times = [1e-3, 100.0, 1.0, 0.1]

        def raises(t) -> bool:
            try:
                mecke_jump_tail(lseq, 12, t)
            except IllConditioned:
                return True
            return False

        points = [raises(t) for t in times]
        assert points == [False, False, True, True]  # both sides are exercised
        for last in range(1, len(times) + 1):
            assert raises(np.array(times[:last][::-1])) is any(points[:last])


class TestTailOracles:
    """The closed-form tail against two routes it does not share: a plain
    summation of Mecke's decision law and Gauss's hypergeometric function in
    50-digit arithmetic."""

    def test_equals_the_weighted_pmf_stream(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            lseq = random_l_sequence(rng, int(rng.integers(2, 9)), 1.0)
            ell, h = int(rng.integers(2, len(lseq) + 1)), float(rng.uniform(0.2, 4.0))
            a = -math.expm1(-h)
            n_last = math.ceil((math.log(1e-15) + math.log1p(-a)) / math.log(a))
            ns = np.arange(ell, n_last + 1)
            pmf = discrete_jump_pmf_sequence(lseq, ell, n_last)
            series = math.fsum(np.power(a, ns) * pmf)
            assert mecke_jump_tail(lseq, ell, h) == pytest.approx(series, rel=0.0, abs=1e-13)

    def test_far_horizon_within_twice_the_tail_bound(self):
        policy = TruncationPolicy()
        rng = np.random.default_rng(42)
        for length in range(2, 9):
            values = np.cumsum([1.0, *rng.uniform(0.3, 0.9, length - 1)])
            lseq = LSequence(tuple(float(v) for v in values), rate=1.0)
            cold = mecke_jump_tail(lseq, length, 12.0, policy)
            assert abs(cold - stit_jump_cdf(lseq, length, 12.0)) <= 2 * policy.tail_bound
            assert mecke_jump_tail(lseq, length, 12.0, policy) == cold  # nothing is memoized

    def test_against_mpmath_hyp2f1(self):
        # each weight column sums to T_i(ell) a^ell 2F1(1, ell - v_i; ell + 1; a)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def mp_tail(values, rate, ell, t):
            vals = [mp.mpf(repr(v)) for v in values[1:ell]]
            a = -mp.expm1(-mp.mpf(repr(rate)) * mp.mpf(repr(float(t))))
            total = mp.mpf(0)
            for i, v in enumerate(vals):
                coef = 1 / mp.fprod(v - w for j, w in enumerate(vals) if j != i)
                seed = mp.fprod(1 - v / m for m in range(2, ell)) / ell
                total += coef * seed * a**ell * mp.hyp2f1(1, ell - v, ell + 1, a)
            return float((-1) ** ell * mp.fprod(vals) * total)

        rng = np.random.default_rng(44)
        for _ in range(12):
            lseq = random_l_sequence(rng, int(rng.integers(2, 9)), float(rng.uniform(0.5, 4.0)))
            times = np.array([0.01, 0.3, 1.0, 2.5, 6.0, 12.0]) / lseq.rate
            for ell in range(2, len(lseq) + 1):
                tail = mecke_jump_tail(lseq, ell, times)
                for got, t in zip(tail, times):
                    assert got == pytest.approx(mp_tail(lseq.values, lseq.rate, ell, t),
                                                rel=0.0, abs=1e-12)


class TestHighPrecisionOracles:
    """Cross-check the product-form evaluators against 50-digit arithmetic.

    The oracle evaluates the raw gamma-function forms directly (negative
    arguments included), which the double-precision implementation
    deliberately avoids; agreement ties the two routes together.
    """

    def test_against_mpmath_gamma_forms(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def mp_cdf(vals, rate, n, t):
            L = [mp.mpf(repr(v)) for v in vals[:n]]
            total = mp.mpf(1)
            for k in range(n):
                prod = mp.mpf(1)
                for i in range(n):
                    if i != k:
                        prod *= L[i] / (L[k] - L[i])
                total += (-1) ** n * mp.e ** (-mp.mpf(repr(rate)) * L[k] * mp.mpf(repr(t))) * prod
            return float(total)

        def mp_jump(vals, ell, n):
            L = [mp.mpf(repr(v)) for v in vals]
            lead = (-1) ** ell / mp.factorial(n)
            for i in range(1, ell):
                lead *= L[i]
            s = mp.mpf(0)
            for i in range(1, ell):
                term = mp.gamma(n - L[i]) / mp.gamma(2 - L[i])
                for j in range(1, ell):
                    if j != i:
                        term /= L[i] - L[j]
                s += term
            return float(lead * s)

        def mp_wait(n, l_k, w):
            L = mp.mpf(repr(l_k))
            return float(
                L * mp.factorial(n - 1) / mp.factorial(n + w - 1)
                * mp.gamma(n + w - L - 1) / mp.gamma(n - L)
            )

        rng = np.random.default_rng(77)
        for _ in range(10):
            length = int(rng.integers(2, 8))
            lseq = random_l_sequence(rng, length, float(rng.uniform(0.5, 4.0)))
            for t in (0.1, 0.9, 2.5):
                assert stit_jump_cdf(lseq, length, t) == pytest.approx(
                    mp_cdf(lseq.values, lseq.rate, length, t), abs=1e-11
                )
            for n in (length, length + 5, length + 40):
                assert discrete_jump_pmf(lseq, length, n) == pytest.approx(
                    mp_jump(lseq.values, length, n), abs=1e-13
                )
        for _ in range(20):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(2, n + 1))
            l_k = float(rng.uniform(1.0, k))
            for w in (1, 2, 5, 19):
                assert discrete_waiting_pmf(n, k, l_k, w) == pytest.approx(
                    mp_wait(n, l_k, w), abs=1e-14
                )


class TestCountingLaws:
    def test_nu_pmf_base(self):
        assert nu_pmf(1.0, 1.0, 0) == pytest.approx(math.exp(-1.0))
        assert nu_pmf(2.0, 0.0, 0) == 1.0
        assert nu_pmf(2.0, 0.0, 3) == 0.0

    def test_tail_is_geometric_power(self):
        # P(count >= n) = (1 - e^{-rate t})^n, checked against partial sums
        rate, t = 1.3, 0.9
        a = -math.expm1(-rate * t)
        pmf = nu_pmf(rate, t, np.arange(0, 5000))
        for n in (1, 2, 5, 10):
            tail = float(pmf[n:].sum())
            assert tail == pytest.approx(a**n, rel=1e-9)

    def test_cowan_sum_cdf_base(self):
        assert cowan_sum_cdf(2.0, 1, 0.5) == pytest.approx(-math.expm1(-1.0))
        assert cowan_sum_cdf(1.0, 3, 1.0) == pytest.approx((-math.expm1(-1.0)) ** 3)

    def test_cowan_sum_cdf_matches_simulation(self):
        rng = np.random.default_rng(31)
        for rate, n in ((1.0, 3), (4.0, 6)):
            rates = rate * np.arange(1, n + 1)
            sums = rng.exponential(1.0 / rates, size=(20_000, n)).sum(axis=1)
            _, p = ks_test(sums, lambda t: cowan_sum_cdf(rate, n, t))
            assert p > 0.01

    def test_grid_values_equal_point_values(self):
        # numpy's scalar power differs from its array power in the last bit for
        # some k; a point is a grid of one
        rng = np.random.default_rng(32)
        for _ in range(40):
            rate, t, n = float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.0, 3.0)), 7
            ks = list(range(int(rng.integers(1, 150))))
            assert nu_pmf(rate, t, ks).tolist() == [nu_pmf(rate, t, k) for k in ks]
            times = rng.uniform(0.0, 5.0, size=30).tolist()
            assert cowan_sum_cdf(rate, n, times).tolist() == [
                cowan_sum_cdf(rate, n, x) for x in times
            ]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nu_pmf(-1.0, 1.0, 0)
        with pytest.raises(DomainError):
            nu_pmf(1.0, -1.0, 0)
        with pytest.raises(DomainError):
            cowan_sum_cdf(1.0, 0, 1.0)


@pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])])
def test_nan_time_is_a_domain_error(t):
    for call in (
        lambda: stit_jump_cdf(L_THREE, 2, t),
        lambda: stit_jump_pdf(L_THREE, 2, t),
        lambda: cowan_sum_cdf(1.0, 2, t),
        lambda: mecke_jump_tail(L_THREE, 1, t),
        lambda: mecke_jump_tail(L_THREE, 2, t),
    ):
        with pytest.raises(DomainError, match="not NaN"):
            call()
    if np.ndim(t) == 0:  # the count law takes one time
        with pytest.raises(DomainError, match="not NaN"):
            nu_pmf(1.0, t, 2)


# Golden values recorded before the discrete laws were rewritten onto one
# product recurrence.  The jump pmf sequence and the hypoexponential CDF/PDF
# keep their arithmetic and must match bit for bit.  The pmf4000 digests were
# re-recorded when the stream was reduced by an einsum over its columns (it
# was a BLAS matrix product): 892 of 4000 ("three") and 832 ("six") values
# moved, by at most 2.7e-16 and 3.8e-16 relative.  The tail was re-recorded
# when it moved from the truncated series to its finite closed form: it moved
# by at most 1.8e-11 absolute, inside the series' 1e-10 tail bound, and every
# value is now within 1.2e-14 of stit_jump_cdf (at rate*t = 0.25 it equals
# CONV_CDF_ORACLE to the last digit, at 0.5 it is 9e-17 above).  It sums
# without BLAS, so it is pinned to 1e-13 relative, a warm call must repeat
# the cold one exactly and the sweep must not depend on the thread count;
# neither may the pmf stream.
# The scalar pmfs and the masses change their arithmetic order and must
# match to 1e-12 relative.
# The cdfpdf digests were re-recorded when a scalar time became a grid of one
# summed by einsum (it was math.fsum, and an array was a BLAS product): 151
# of 756 ("three") and 464 of 1512 ("six") values moved, by at most 6.5e-16
# and 2.0e-14 absolute.
GOLDEN_SEQUENCES = {
    "three": (LSequence((1.0, 1.5, 2.2), rate=1.0), 3),
    "six": (LSequence((1.0, 1.45, 2.05, 2.6, 3.3, 3.95), rate=1.3), 6),
}
GOLDEN_T = np.concatenate([np.linspace(0.0, 6.0, 61), [40.0, 800.0]])
GOLDEN_DIGESTS = {
    ("three", "pmf4000"): "2ca72555fd578746dcd5d9e9c7e22e95841c8c191017136a1ddf0bf3dd58c9d8",
    ("three", "cdfpdf"): "c255e1959c5beb99624ec690640aafcf8509d37dfe0247f1a71436d3f8806234",
    ("six", "pmf4000"): "d7b03f9d173b1afdc3d6a86db8cecbba9842bd8a84a25d9eb0b62dc382bbc302",
    ("six", "cdfpdf"): "9b9b38d5122c5d0134b1ae0c626916d10a7c618a84ea3a05bb11882389bfe5fc",
}
GOLDEN_TAIL = {  # rate*t = 0.25 .. 12 (outer) by ell = 2 .. len (inner)
    "three": [
        0.03817620836772978, 0.006432212685372252, 0.12514112634412922, 0.0388299107774665,
        0.34262199678253263, 0.181332725985887, 0.6935682870258898, 0.546679407826867,
        0.9500105876871303, 0.9145755478740514, 0.9928105630781744, 0.9871392771518842,
        0.9990059005409991, 0.9981935357376501, 0.9998644120153535, 0.9997522227027731,
        0.9999815978228995, 0.9999663025572424
    ],
    "six": [
        0.037051507166899866, 0.005863786226031953, 0.0008856913446464443,
        0.00013526320501067168, 2.0589317635266724e-05, 0.12190024971565333,
        0.03579015661923324, 0.010062579936595206, 0.0028503667283972245,
        0.0008042169948958566, 0.33587799643379174, 0.17037050159290934,
        0.08330718990288366, 0.04082211404426417, 0.019906296895626507,
        0.6861934652518195, 0.5282304508616174, 0.3968931388349909,
        0.29730919293708746, 0.2215471960635491, 0.9477108407926915,
        0.9071310694072563, 0.8618330347513837, 0.8165859987668261,
        0.771568237696235, 0.9923831003440475, 0.9856604988987804,
        0.9774705630749458, 0.9686150803444524, 0.9591124440940082,
        0.9989394339495058, 0.9979590235835004, 0.9967271303708259,
        0.9953580764812153, 0.9938506056490696, 0.9998548321100156,
        0.9997182152306439, 0.9995445257778712, 0.9993494986626332,
        0.9991326853529575, 0.9999802636509335, 0.9999615573806556,
        0.9999376645739195, 0.9999107281959687, 0.999880670928432
    ],
}
GOLDEN_JUMP = {  # at n = ell, ell + 1, ell + 5, ell + 40, ell + 150 and 5000
    "three": [0.55, 0.17874999999999996, 0.02071042433035714, 0.00023452116856665688,
              9.384079477344274e-06, 1.5063270591985317e-09],
    "six": [0.13991805208333338, 0.13292214947916667, 0.055842770987377326,
            0.0017160814203787018, 8.436396427891769e-05, 1.6952248494790102e-08],
}
GOLDEN_JUMP_MASS = {  # at 10**5 decisions, then 10**7 with stop_mass 1 - 1e-8
    "three": [0.9999999439236364, 0.9999999905466935],
    "six": [0.9999992422934266, 0.9999999903828393],
}
GOLDEN_WAIT_ARGS = ((3, 2, 1.5), (4, 3, 2.2), (10, 7, 5.3))
GOLDEN_WAIT_W = (1, 2, 5, 19, 100, 1000)
GOLDEN_WAIT = [
    0.5, 0.1875, 0.03515624999999999, 0.0018369331519352266, 3.281798428028911e-05,
    1.0671371231076916e-07, 0.55, 0.198, 0.030095999999999994, 0.0008476249280147459,
    5.312995003502102e-06, 3.5384070596984146e-09, 0.53, 0.22645454545454544,
    0.030490798076923075, 0.0001809113742891074, 2.1260677787168127e-08,
    1.5077126601511672e-14,
]
GOLDEN_WAIT_SEQ_AT = (0, 1, 9, 99, 999, 3999)  # of discrete_waiting_pmf_sequence(4, 3, 2.2, 4000)
GOLDEN_WAIT_SEQ = [0.55, 0.198, 0.0051699845119999996, 5.31299500350209e-06,
                   3.5384070596983352e-09, 4.2091398469331474e-11]
GOLDEN_WAIT_MASS_MAX = (10, 1000, 10**5)
GOLDEN_WAIT_MASS = [  # then (4, 3, 2.2) to 10**8 with stop_mass 1 - 1e-8
    0.9439373016357422, 0.9999288219538887, 0.9999999286369088, 0.9746200760320001,
    0.9999983903464612, 0.9999999999355832, 0.9924213549421228, 0.9999999999971447, 1.0,
    0.9999999998367957,
]


def _digest(values) -> str:
    return hashlib.sha256(",".join(repr(float(v)) for v in values).encode()).hexdigest()


def _tail_sweep(lseq: LSequence) -> list[float]:
    return [
        mecke_jump_tail(lseq, ell, h / lseq.rate)
        for h in (0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        for ell in range(2, len(lseq) + 1)
    ]


class TestGoldenValues:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SEQUENCES))
    def test_kept_arithmetic(self, name):
        lseq, ell = GOLDEN_SEQUENCES[name]
        assert _digest(discrete_jump_pmf_sequence(lseq, ell, 4000)) == GOLDEN_DIGESTS[
            (name, "pmf4000")
        ]
        cold = _tail_sweep(lseq)
        assert _tail_sweep(lseq) == cold
        assert cold == pytest.approx(GOLDEN_TAIL[name], rel=1e-13, abs=0.0)
        values = []
        for n in range(1, len(lseq) + 1):
            for fn in (stit_jump_cdf, stit_jump_pdf):
                values += list(fn(lseq, n, GOLDEN_T)) + [fn(lseq, n, float(t)) for t in GOLDEN_T]
        assert _digest(values) == GOLDEN_DIGESTS[(name, "cdfpdf")]

    def test_tail_does_not_depend_on_blas_threads(self):
        src = str(Path(stitlab.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")])
        )
        code = (
            "from test_distributions import GOLDEN_SEQUENCES, _digest, _tail_sweep\n"
            "from stitlab.distributions import discrete_jump_pmf_sequence\n"
            "print([_tail_sweep(lseq) for lseq, _ in GOLDEN_SEQUENCES.values()])\n"
            "print([_digest(discrete_jump_pmf_sequence(lseq, ell, 4000))"
            " for lseq, ell in GOLDEN_SEQUENCES.values()])"
        )
        sweeps = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert out.returncode == 0, out.stderr
            sweeps.append(out.stdout)
        assert sweeps[0] == sweeps[1]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SEQUENCES))
    def test_jump_law_within_1e12(self, name):
        lseq, ell = GOLDEN_SEQUENCES[name]
        ns = (ell, ell + 1, ell + 5, ell + 40, ell + 150, 5000)
        got = [discrete_jump_pmf(lseq, ell, n) for n in ns]
        assert got == pytest.approx(GOLDEN_JUMP[name], rel=1e-12, abs=0.0)
        mass = [
            discrete_jump_pmf_mass(lseq, ell, 10**5),
            discrete_jump_pmf_mass(lseq, ell, 10**7, stop_mass=1.0 - 1e-8),
        ]
        assert mass == pytest.approx(GOLDEN_JUMP_MASS[name], rel=1e-12, abs=0.0)

    def test_waiting_law_within_1e12(self):
        got = [discrete_waiting_pmf(*args, w) for args in GOLDEN_WAIT_ARGS for w in GOLDEN_WAIT_W]
        assert got == pytest.approx(GOLDEN_WAIT, rel=1e-12, abs=0.0)
        seq = discrete_waiting_pmf_sequence(4, 3, 2.2, 4000)
        assert [seq[i] for i in GOLDEN_WAIT_SEQ_AT] == pytest.approx(
            GOLDEN_WAIT_SEQ, rel=1e-12, abs=0.0
        )
        mass = [
            discrete_waiting_pmf_mass(*args, m) for args in GOLDEN_WAIT_ARGS
            for m in GOLDEN_WAIT_MASS_MAX
        ] + [discrete_waiting_pmf_mass(4, 3, 2.2, 10**8, stop_mass=1.0 - 1e-8)]
        assert mass == pytest.approx(GOLDEN_WAIT_MASS, rel=1e-12, abs=0.0)
