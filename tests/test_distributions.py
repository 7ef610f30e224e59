import math

import numpy as np
import pytest
from scipy.integrate import quad

from stitlab.distributions import (
    TruncationPolicy,
    cowan_count_pmf,
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
from stitlab.errors import DomainError, IllConditioned, TruncationFailure
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
        assert np.allclose(vec, scl, rtol=0.0, atol=1e-14)

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
            discrete_waiting_pmf(3, 2, 1.5, 0)

    def test_sequence_matches_scalar(self):
        seq = discrete_waiting_pmf_sequence(4, 3, 2.2, 30)
        for w in range(1, 31):
            assert seq[w - 1] == pytest.approx(discrete_waiting_pmf(4, 3, 2.2, w), rel=1e-12)

    def test_normalization(self):
        for n, l_k in ((2, 1.5), (5, 1.9), (8, 2.7)):
            k = max(2, math.ceil(l_k))
            mass = discrete_waiting_pmf_mass(n, k, l_k, 10**8, stop_mass=1.0 - 1e-8)
            assert mass >= 1.0 - 1e-8


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

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            discrete_jump_pmf(L_THREE, 1, 5)
        with pytest.raises(DomainError):
            discrete_jump_pmf(L_THREE, 3, 2)


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

    def test_truncation_failure(self):
        lseq = LSequence((1.0, 1.05), rate=4.0)
        policy = TruncationPolicy(tail_bound=1e-10, max_terms=10)
        with pytest.raises(TruncationFailure):
            mecke_jump_tail(lseq, 2, 3.0, policy)

    def test_refusal_leaves_no_cache_entry(self):
        from stitlab.distributions import _PMF_PREFIX_CACHE

        long_seq = LSequence(tuple(1.0 + 0.2 * k for k in range(13)), rate=1.0)
        with pytest.raises(IllConditioned):
            mecke_jump_tail(long_seq, 13, 1.0)
        assert (long_seq.values, 13) not in _PMF_PREFIX_CACHE

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            TruncationPolicy(tail_bound=1e-3)
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=5)


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

    def test_two_names_one_law(self):
        ks = np.arange(0, 40)
        for rate in (0.5, 1.0, 4.0):
            for t in (0.0, 0.3, 2.0):
                assert np.array_equal(nu_pmf(rate, t, ks), cowan_count_pmf(rate, t, ks))

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

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nu_pmf(-1.0, 1.0, 0)
        with pytest.raises(DomainError):
            nu_pmf(1.0, -1.0, 0)
        with pytest.raises(DomainError):
            cowan_sum_cdf(1.0, 0, 1.0)
