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


def test_precision_limits_are_fixed():
    # the past-cap rounds of the benchmark expect refusals at lengths 17 and 14
    assert (N_MAX, ELL_MAX, CONDITION_LIMIT) == (15, 12, 1e8)
    for fn in (stit_jump_cdf, stit_jump_pdf, discrete_jump_pmf, discrete_jump_pmf_sequence,
               discrete_jump_pmf_mass, mecke_jump_tail):
        assert not {"n_max", "ell_max", "condition_limit"} & set(inspect.signature(fn).parameters)


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

    def test_geometric_weight_of_one_refuses_at_once(self):
        from stitlab.distributions import _PMF_PREFIX_CACHE

        # rate * t = 40: 1 - exp(-40) rounds to 1, and no bound can close the series
        lseq = LSequence((1.0, 1.5, 2.2), rate=4.0)
        _PMF_PREFIX_CACHE.clear()
        with pytest.raises(TruncationFailure, match="rounds to 1"):
            mecke_jump_tail(lseq, 2, 10.0)
        assert not _PMF_PREFIX_CACHE
        assert mecke_jump_tail(lseq, 1, 10.0) == 1.0  # no series behind the first jump


class TestPmfPrefixCache:
    """The tail's memo of the endless pmf stream: windows of _CHUNK values,
    the first grown in pieces, each value as a one-piece build gives it."""

    def test_cold_short_horizon_builds_a_short_prefix(self):
        from stitlab.distributions import _PMF_PREFIX_CACHE

        _PMF_PREFIX_CACHE.clear()
        mecke_jump_tail(L_THREE, 3, 1.0)  # rate * t = 1
        assert _PMF_PREFIX_CACHE[(L_THREE.values, 3)].rows <= 2048

    def test_values_do_not_depend_on_the_growth_history(self):
        from stitlab.distributions import _CHUNK, _PMF_PREFIX_CACHE

        lseq, ell = LSequence((1.0, 1.45, 2.05, 2.6), rate=1.0), 4
        _PMF_PREFIX_CACHE.clear()
        for h in (0.5, 1.0, 3.0, 5.0, 2.0, 8.0, 11.0):
            mecke_jump_tail(lseq, ell, h)
        entry = _PMF_PREFIX_CACHE[(lseq.values, ell)]
        assert entry.rows > 70_001 > _CHUNK
        cached = np.concatenate(entry.pmf)[:70_001]
        assert cached.tobytes() == discrete_jump_pmf_sequence(lseq, ell, ell + 70_000).tobytes()
        # each whole window's end mass: the mass before it plus its own running sum
        assert len(entry.mass) == entry.rows // _CHUNK
        base = 0.0
        for pmf, mass in zip(entry.pmf, entry.mass):
            assert mass == base + np.cumsum(pmf)[-1]
            base = mass

    def test_budget_counts_what_entries_hold(self, monkeypatch):
        from stitlab import distributions
        from stitlab.distributions import _PMF_PREFIX_CACHE

        budget = 3_000_000
        monkeypatch.setattr(distributions, "_PMF_PREFIX_CACHE_MAX_FLOATS", budget)
        _PMF_PREFIX_CACHE.clear()
        calls = 8
        for i in range(calls):  # each a far horizon: about a million values
            lseq = LSequence((1.0, 1.3 + 0.05 * i, 2.1), rate=1.0)
            mecke_jump_tail(lseq, 3, 12.0)
            entries = list(_PMF_PREFIX_CACHE.values())
            held = sum(e.floats for e in entries)
            assert all(e.floats == sum(map(len, e.pmf)) + len(e.mass) for e in entries)
            assert _PMF_PREFIX_CACHE.floats == held
            assert held <= budget or len(entries) == 1
        assert len(_PMF_PREFIX_CACHE) < calls  # the budget did evict
        _PMF_PREFIX_CACHE.clear()
        assert _PMF_PREFIX_CACHE.floats == 0


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
    ):
        with pytest.raises(DomainError, match="not NaN"):
            call()
    if np.ndim(t) == 0:  # the scalar-time laws
        for call in (
            lambda: nu_pmf(1.0, t, 2),
            lambda: mecke_jump_tail(L_THREE, 1, t),
            lambda: mecke_jump_tail(L_THREE, 2, t),
        ):
            with pytest.raises(DomainError, match="not NaN"):
                call()


# Golden values recorded before the discrete laws were rewritten onto one
# product recurrence.  The jump pmf sequence and the hypoexponential CDF/PDF
# keep their arithmetic and must match bit for bit.  The tail was recorded
# with BLAS dot products, which round differently with the number of BLAS
# threads (by up to 5e-15 relative); it now sums without BLAS, so it is
# pinned to 1e-13 relative, a warm call must repeat the cold one exactly and
# the sweep must not depend on the thread count.  The scalar pmfs and the
# masses change their arithmetic order and must match to 1e-12 relative.
GOLDEN_SEQUENCES = {
    "three": (LSequence((1.0, 1.5, 2.2), rate=1.0), 3),
    "six": (LSequence((1.0, 1.45, 2.05, 2.6, 3.3, 3.95), rate=1.3), 6),
}
GOLDEN_T = np.concatenate([np.linspace(0.0, 6.0, 61), [40.0, 800.0]])
GOLDEN_DIGESTS = {
    ("three", "pmf4000"): "12d84b004661ae97b28504563498c96a3599001429404ed4308b6313b9b706b7",
    ("three", "cdfpdf"): "5815b2818c971cac14bbde3c5e2a64f51c13de9bd60887a28e90b323a4f23d21",
    ("six", "pmf4000"): "b3e7235820e19f26475b0eb1295e8fffcab74e922433b58e1fda94022c0da769",
    ("six", "cdfpdf"): "1c8a9fdf7b8e72055c0e578adc76cce3025fa97407996296deb1cd01f2683380",
}
GOLDEN_TAIL = {  # rate*t = 0.25 .. 12 (outer) by ell = 2 .. len (inner)
    "three": [
        0.03817620836769195, 0.0064322126852475675, 0.1251411263441171, 0.03882991077742734,
        0.34262199678252964, 0.18133272598587752, 0.6935682870258897, 0.5466794078268665,
        0.9500105876871299, 0.9145755478740513, 0.9928105630781747, 0.9871392771518843,
        0.9990059005410011, 0.998193535737649, 0.9998644120096893, 0.9997522226849684,
        0.9999815978062986, 0.9999663025428335
    ],
    "six": [
        0.037051507166854014, 0.005863786225872862, 0.0008856913442891735,
        0.00013526320438941327, 2.058931669888686e-05, 0.12190024971563831,
        0.03579015661918115, 0.010062579936477864, 0.002850366728188945,
        0.0008042169945739593, 0.3358779964337878, 0.17037050159289605, 0.08330718990285318,
        0.04082211404421002, 0.019906296895542536, 0.6861934652518195, 0.5282304508616168,
        0.3968931388349897, 0.29730919293708474, 0.2215471960635443, 0.9477108407926917,
        0.9071310694072562, 0.8618330347513841, 0.816585998766826, 0.7715682376962346,
        0.992383100344047, 0.9856604988987802, 0.977470563074946, 0.9686150803444527,
        0.9591124440940083, 0.998939433949505, 0.9979590235835007, 0.996727130370826,
        0.9953580764812164, 0.9938506056490691, 0.9998548320991297, 0.9997182152298754,
        0.9995445257761355, 0.9993494986595347, 0.9991326853480627, 0.999980263633039,
        0.9999615573628434, 0.9999376645613809, 0.9999107281832499, 0.9998806709168878
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
        from stitlab.distributions import _PMF_PREFIX_CACHE

        lseq, ell = GOLDEN_SEQUENCES[name]
        assert _digest(discrete_jump_pmf_sequence(lseq, ell, 4000)) == GOLDEN_DIGESTS[
            (name, "pmf4000")
        ]
        _PMF_PREFIX_CACHE.clear()
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
            "from test_distributions import GOLDEN_SEQUENCES, _tail_sweep\n"
            "print([_tail_sweep(lseq) for lseq, _ in GOLDEN_SEQUENCES.values()])"
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
