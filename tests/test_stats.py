import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stitlab import stats
from stitlab.errors import DegenerateBins, DomainError, TooFewSamples
from stitlab.geometry import ConvexPolygon
from stitlab.line_measure import IsotropicMeasure, hitting_measure
from stitlab.processes import LSequence
from stitlab.stats import (
    MUTATIONS,
    EquivalenceConfig,
    VerificationReport,
    _clock_counts,
    _mecke_clock,
    chi_square_gof,
    counts_from_values,
    format_pass_rates,
    format_report_table,
    ks_test,
    random_l_sequence,
    run_equivalence_suite,
    run_identity_suite,
    simulate_conditional_jump_decisions,
    simulate_conditional_mecke_counts,
    simulate_conditional_stit_counts,
    simulate_cowan_counts,
    two_sample_chi_square,
)

ISO = IsotropicMeasure(1.0)
L_TWO = LSequence((1.0, 1.5), rate=1.0)


def geometric_pmf(p):
    return lambda k: p * (1.0 - p) ** k if k >= 0 else 0.0


class TestKsTest:
    def test_quantile_samples_fit_tightly(self):
        n = 1000
        samples = [(i + 1) / (n + 1) for i in range(n)]
        d, p = ks_test(samples, lambda x: np.clip(np.asarray(x), 0.0, 1.0))
        assert d < 0.002
        assert p > 0.9

    def test_enumerated_supremum(self):
        # oracle: direct enumeration of the step-function supremum
        d, _ = ks_test([0.25, 0.5, 0.75] * 10, lambda x: np.clip(np.asarray(x), 0.0, 1.0))
        assert d == pytest.approx(0.25, abs=1e-12)

    def test_rejects_wrong_rate(self):
        rng = np.random.default_rng(50)
        samples = rng.exponential(1.0, size=10_000)
        _, p = ks_test(samples, lambda t: -np.expm1(-2.0 * np.asarray(t)))
        assert p < 1e-6

    def test_accepts_correct_rate(self):
        rng = np.random.default_rng(51)
        samples = rng.exponential(1.0, size=10_000)
        _, p = ks_test(samples, lambda t: -np.expm1(-np.asarray(t)))
        assert p > 0.01

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            ks_test([0.5] * 9, lambda x: np.asarray(x))


class TestChiSquareGof:
    def test_exact_expectation_gives_zero(self):
        counts = {0: 25, 1: 25, 2: 25, 3: 25}
        stat, p, dof = chi_square_gof(counts, lambda k: 0.25 if 0 <= k < 4 else 0.0)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)
        assert dof == 3

    def test_geometric_self_consistency(self):
        rng = np.random.default_rng(52)
        sample = rng.geometric(0.5, size=100_000) - 1
        _, p, _ = chi_square_gof(counts_from_values(sample), geometric_pmf(0.5), support_lo=0)
        assert p > 0.001

    def test_geometric_wrong_parameter(self):
        rng = np.random.default_rng(53)
        sample = rng.geometric(0.5, size=100_000) - 1
        _, p, _ = chi_square_gof(counts_from_values(sample), geometric_pmf(0.6), support_lo=0)
        assert p < 1e-6

    def test_merges_sparse_tail(self):
        rng = np.random.default_rng(54)
        sample = rng.geometric(0.8, size=2_000) - 1
        stat, p, dof = chi_square_gof(counts_from_values(sample), geometric_pmf(0.8),
                                      support_lo=0)
        assert dof >= 1 and p > 1e-6

    def test_degenerate_bins(self):
        with pytest.raises(DegenerateBins):
            chi_square_gof({0: 100}, lambda k: 1.0 if k == 0 else 0.0)


class TestTwoSampleChiSquare:
    def test_identical_histograms(self):
        counts = {0: 40, 1: 30, 2: 20, 3: 10}
        stat, p = two_sample_chi_square(counts, dict(counts))
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_same_law_passes(self):
        rng = np.random.default_rng(55)
        a = counts_from_values(rng.geometric(0.5, size=100_000) - 1)
        b = counts_from_values(rng.geometric(0.5, size=100_000) - 1)
        _, p = two_sample_chi_square(a, b)
        assert p > 0.001

    def test_different_laws_fail(self):
        rng = np.random.default_rng(56)
        a = counts_from_values(rng.geometric(0.5, size=100_000) - 1)
        b = counts_from_values(rng.geometric(0.7, size=100_000) - 1)
        _, p = two_sample_chi_square(a, b)
        assert p < 1e-6

    def test_degenerate_bins(self):
        with pytest.raises(DegenerateBins):
            two_sample_chi_square({0: 10}, {0: 12})


class TestTestable:
    """Whether a law and a replica count give a chi-square test two bins,
    decided from the law alone."""

    def test_agrees_with_the_merge_over_the_whole_support(self):
        rng = np.random.default_rng(57)
        for _ in range(400):
            pmf = rng.dirichlet(rng.uniform(0.05, 2.0, size=int(rng.integers(1, 8))))
            n = int(rng.integers(1, 400))
            merged = stats._merge_bins([[n * q] for q in pmf], expected_col=0)
            assert stats._testable(lambda j: float(pmf[j:].sum()), n) is (len(merged) >= 2)

    def test_geometric_law(self):
        def testable(t, n, rate=4.0):
            a = -math.expm1(-rate * t)
            return stats._testable(lambda j: a**j, n)

        assert not testable(0.0, 10**6)  # no jump can have happened
        assert not testable(1e-7, 10**5)  # 0.04 replicas expected above 0
        assert not testable(0.5, 9)  # fewer than two bins' worth of replicas
        assert testable(0.5, 40) and testable(1e-4, 10**5)
        assert testable(3.0, 20)  # the mass far from 0, spread over many counts
        with pytest.raises(TooFewSamples):  # no replica: a check that draws none fails
            testable(0.5, 0)


class TestVectorizedSimulators:
    def test_first_jump_is_first_decision(self):
        lseq = random_l_sequence(np.random.default_rng(60), 2, 1.0)
        rng = np.random.default_rng(61)
        out = simulate_conditional_jump_decisions(lseq, 1, 1_000, rng)
        assert np.all(out == 1)

    def test_conditional_counts_capped(self):
        lseq = random_l_sequence(np.random.default_rng(62), 4, 2.0)
        rng = np.random.default_rng(63)
        for counts in (
            simulate_conditional_mecke_counts(lseq, 1.5, 5_000, rng),
            simulate_conditional_stit_counts(lseq, 1.5, 5_000, rng),
        ):
            assert counts.min() >= 0 and counts.max() <= len(lseq)

    def test_zero_time_counts(self):
        lseq = random_l_sequence(np.random.default_rng(64), 3, 1.0)
        rng = np.random.default_rng(65)
        assert np.all(simulate_conditional_mecke_counts(lseq, 0.0, 100, rng) == 0)
        assert np.all(simulate_conditional_stit_counts(lseq, 0.0, 100, rng) == 0)
        assert np.all(simulate_cowan_counts(4.0, 0.0, 100, rng) == 0)

    def test_poisson_clock_counts_are_poisson(self, unit_square):
        # the constant-rate control: its race of Exp(W) waits counts Poisson(W * t) events
        config = EquivalenceConfig(window=unit_square, measure=ISO, mutation="poisson-clock")
        mean = hitting_measure(ISO, unit_square) * 0.8
        counts = _clock_counts(_mecke_clock(config), 0.8, 20_000, np.random.default_rng(7))
        poisson = lambda k: math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
        _, p, _ = chi_square_gof(counts_from_values(counts), poisson, support_lo=0)
        assert p > 1e-3

    @pytest.mark.parametrize("replicas", [1, 1000])
    @pytest.mark.parametrize("t", [0.0, 1e-9, 0.2, 1.0])
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=str)
    def test_clock_counts_match_the_full_length_race(self, unit_square, mutation, t, replicas):
        # the same draws as the loop over full-length arrays, so the same
        # counts and the same generator state after them
        clock = _mecke_clock(EquivalenceConfig(window=unit_square, measure=ISO, mutation=mutation))
        rng, oracle_rng = np.random.default_rng(25), np.random.default_rng(25)
        counts = _clock_counts(clock, t, replicas, rng)
        np.testing.assert_array_equal(counts, _full_length_race(clock, t, replicas, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize(
        "call",
        [
            lambda rng: simulate_cowan_counts(0.0, 1.0, 10, rng),
            lambda rng: simulate_cowan_counts(1.0, -0.5, 10, rng),
            lambda rng: simulate_cowan_counts(1.0, 1.0, 0, rng),
            lambda rng: simulate_conditional_jump_decisions(L_TWO, 0, 10, rng),
            lambda rng: simulate_conditional_jump_decisions(L_TWO, 3, 10, rng),
        ],
        ids=["rate-0", "negative-t", "no-replicas", "ell-0", "ell-past-end"],
    )
    def test_domain_errors(self, call):
        with pytest.raises(DomainError):
            call(np.random.default_rng(18))


def _full_length_race(clock, t, n_replicas, rng):
    """The race of `_clock_counts` on full-length arrays indexed by the
    replicas still racing, kept as its oracle."""
    remaining = np.full(n_replicas, t, dtype=float)
    counts = np.zeros(n_replicas, dtype=np.int64)
    active = np.arange(n_replicas)
    k = 1
    while active.size:
        waits = rng.exponential(1.0 / clock(k), size=active.size)
        remaining[active] -= waits
        alive = remaining[active] >= 0.0
        counts[active[alive]] += 1
        active = active[alive]
        k += 1
    return counts


@pytest.mark.parametrize(
    "values",
    [
        lambda: np.random.default_rng(26).geometric(0.3, size=5000) - 1,
        lambda: [3, 0, 3, 7, 7, 12, 7],
        lambda: (k * k % 11 for k in range(40)),
        lambda: np.array([-1, 2, -1, 0, 5, -3]),
        lambda: np.array([4]),
        lambda: [],
        lambda: np.array([], dtype=np.int64),
    ],
    ids=["int-array", "list", "generator", "negative", "single", "empty-list", "empty-array"],
)
def test_counts_from_values_matches_unique(values):
    uniq, cnt = np.unique(np.asarray(list(values()), dtype=np.int64), return_counts=True)
    got = counts_from_values(values())
    assert list(got.items()) == [(int(k), int(c)) for k, c in zip(uniq, cnt)]
    assert all(type(k) is int and type(c) is int for k, c in got.items())


class TestRandomLSequence:
    def test_bounds_and_gaps(self):
        rng = np.random.default_rng(66)
        for _ in range(200):
            length = int(rng.integers(1, 9))
            lseq = random_l_sequence(rng, length, 1.0)
            assert len(lseq) == length
            for k, v in enumerate(lseq.values, start=1):
                assert 1.0 <= v <= k
            for a, b in zip(lseq.values, lseq.values[1:]):
                assert (b - a) / b >= 0.05


class TestCappedCountPmfs:
    def test_rows_are_nonnegative_and_sum_to_one(self):
        # differenced tails: at small t the closed-form tail's round-off can
        # put a tail a few ulps of its condition above the one before it
        from stitlab.distributions import ELL_MAX, mecke_jump_tail, stit_jump_cdf
        from stitlab.stats import _capped_count_pmfs

        rng = np.random.default_rng(19)
        for _ in range(60):
            lseq = random_l_sequence(rng, int(rng.integers(2, ELL_MAX + 1)),
                                     float(rng.uniform(0.5, 4.0)))
            times = np.geomspace(1e-3, 3.0, 12) / lseq.rate
            for law in (mecke_jump_tail, stit_jump_cdf):
                pmfs = _capped_count_pmfs(lseq, times, law)
                assert pmfs.shape == (len(times), len(lseq) + 1)
                assert (pmfs >= 0.0).all()
                assert np.abs(pmfs.sum(axis=1) - 1.0).max() <= 1e-12


class TestReports:
    def test_round_trip_and_table(self):
        report = VerificationReport(
            check_name="demo", statistic=0.5, p_value=0.2, tolerance=0.001,
            passed=True, sample_size=100, seed=7,
        )
        blob = json.dumps([report.to_dict()])
        parsed = json.loads(blob)[0]
        assert parsed["check_name"] == "demo"
        assert parsed["passed"] is True
        table = format_report_table([report])
        assert "demo" in table and "PASS" in table

    def test_pass_rates_count_a_check_that_raised_as_a_failure(self, unit_square):
        config = EquivalenceConfig(
            window=unit_square, measure=ISO, time_grid=(0.8,), replicas=0, conditional_replicas=50,
            cowan_replicas=50, selection_events=50, identity_sequences=1,
        )
        raised = run_equivalence_suite(config)
        assert raised[1].note.startswith("DegenerateBins")
        passed = [*raised[:1], dataclasses.replace(raised[1], passed=True, note=""), *raised[2:]]
        rows = [line for line in format_pass_rates([raised, passed]).splitlines() if "unconditional" in line]
        assert len(rows) == 1
        assert rows[0].split()[:2] == ["unconditional-cell-counts", "1/2"]


# SHA-256 of the JSON of a run's reports, recorded when the unconditional and
# the selection checks moved to batched draws (the other three reports kept
# their earlier values field for field); the same under
# OPENBLAS_NUM_THREADS=1 and =2.  Re-recorded with the identity digest when
# mecke_jump_tail moved to per-column sums: only the tail-vs-cdf statistics
# and the conditional-jump-counts statistic and p-value moved (that one by
# 2.3e-14 relative), and no pass/fail outcome changed.  The identity digest
# was re-recorded again when the jump-time CDF lost its math.fsum branch for
# a scalar time: only the tail-vs-cdf statistic moved, 6.300515664747763e-12
# to 6.303235711158095e-12; the suite digests did not move.  All four were
# re-recorded when mecke_jump_tail became a finite closed form: the identity
# suite's tail-vs-cdf statistic fell from 6.303235711158095e-12 to
# 1.6064927166326015e-13, and in each suite run the tail-vs-cdf statistic fell
# from 1.6e-14 to 8.4e-15 and the conditional-jump-counts statistic and
# p-value moved by 8e-13 relative.  Over seeds 0-19 of the default suite,
# plain and under both mutations, no pass/fail outcome changed.  The three
# suite digests were re-recorded when the Mecke stepper drew each run of
# empty-slot decisions at once: the unconditional-cell-counts statistic,
# p-value and note moved in each run, and the conditional-jump-counts
# statistic and p-value moved by 3.6e-15 relative (l_sequence keeps a running
# total of the weights); no pass/fail outcome changed.  The three suite
# digests were re-recorded when mecke_discrete_simulate moved to block draws:
# the frozen sequences and the selection check's two-jump state come from it,
# so the conditional-jump-counts statistic and p-value (0.0504 to 0.0108) and
# the selection-probabilities statistic (1.04 to 0.43) moved in each run, and
# no pass/fail outcome changed.  Over seeds 0-19 of the default suite, plain
# and under both mutations, one check changed: selection-probabilities at
# seed 17, which failed at the parent, now passes, in all three runs.  The
# three suite digests were re-recorded when STIT came to be counted by the
# per-cell clocks (`processes.stit_cell_counts`): only the
# unconditional-cell-counts statistic, p-value and note moved (plain p 0.484
# to 0.577, poisson-clock 9.0e-44 to 1.2e-41, wrong-rate 0.0209 to 3.7e-05),
# and no pass/fail outcome changed.
GOLDEN_SUITE_DIGESTS = {
    None: "4fb9172e43cc721f4bf6c7bbec1bd4d6f0c0815dbf2f02c9fd29a84b215e0c1b",
    "poisson-clock": "ded92dbe80202cb6a30e4c2a169a00c14400bf2e247e2006e0704cfe0e4efbcd",
    "wrong-rate": "46c487f9e281753119644f055520f398e7cb8a2ab2a88b495c521d986c94e4c7",
}
GOLDEN_IDENTITY_DIGEST = "4056a5364e2d0144e8cf422366b3d5b1610f35dbf2f300f782d34f20ddc31da6"
# the same digests at the configuration of the perfbench `ensemble` workload
# (unit square, iso:1, grid (0.2, 0.5, 1), 1000 replicas, 1000 conditional
# replicas, 10 000 Cowan replicas, 500 selection events, seed 2024), plain and
# under the poisson-clock control, recorded before the Cowan race ran on
# compact arrays and its pmf came from one table per grid time
GOLDEN_ENSEMBLE_DIGESTS = {
    None: "f8cb22e53e4b017d8f690be3986252a89ea3c81c3db980e0b5b130bc09d3481a",
    "poisson-clock": "d9facf4ed5f266dfddb504887b37251397452cf330de281b6c90e0f82d44083e",
}

def _report_digest(reports) -> str:
    return hashlib.sha256(json.dumps([r.to_dict() for r in reports]).encode()).hexdigest()


class TestIdentitySuite:
    def test_all_pass(self):
        reports = run_identity_suite(seed=3, instances=80)
        assert all(r.passed for r in reports)
        assert len(reports) == 8

    def test_golden_report_digest(self):
        assert _report_digest(run_identity_suite(seed=0)) == GOLDEN_IDENTITY_DIGEST


class TestEquivalenceSuite:
    @pytest.fixture
    def small_config(self, unit_square):
        return EquivalenceConfig(
            window=unit_square,
            measure=ISO,
            time_grid=(0.3, 0.8),
            replicas=1200,
            conditional_replicas=3000,
            cowan_replicas=15_000,
            selection_events=4000,
            identity_sequences=4,
            seed=11,
        )

    def test_honest_run_passes(self, small_config):
        reports = run_equivalence_suite(small_config)
        assert len(reports) == 5
        assert all(r.passed for r in reports), format_report_table(reports)

    def test_degenerate_grid_trivially_passes(self, small_config):
        import dataclasses

        config = dataclasses.replace(
            small_config, time_grid=(0.0,), replicas=50, conditional_replicas=50,
            cowan_replicas=50, identity_sequences=1,
        )
        reports = run_equivalence_suite(config)
        assert all(r.passed for r in reports), format_report_table(reports)

    def test_a_grid_with_nothing_testable_says_so(self, small_config):
        config = dataclasses.replace(small_config, time_grid=(0.0,), conditional_replicas=50,
                                     cowan_replicas=50)
        for check in (stats._check_conditional, stats._check_cowan):
            report = check(config, "check")
            assert report.passed and report.sample_size == 0
            assert report.note.startswith("nothing was testable, skipped: ")
        assert stats._check_cowan(config, "check").note.endswith("t = 0")

    def test_a_deep_grid_skips_and_names_the_times_it_cannot_test(self, unit_square):
        # at t = 2 the second sequence expects about 3 of 500 replicas below
        # its cap: one bin after merging, which once failed the whole check
        config = EquivalenceConfig(
            window=unit_square, measure=ISO, time_grid=(0.5, 2.0), replicas=500,
            conditional_replicas=500, cowan_replicas=10_000, selection_events=10_000, seed=0,
        )
        report = stats._check_conditional(config, "conditional-jump-counts")
        assert report.passed, report
        assert report.note == "not testable, skipped: sequence 1 at t = 2"
        assert report.sample_size == 5 * 2 * 500

    def test_a_sampler_that_never_jumps_fails(self, small_config, monkeypatch):
        monkeypatch.setattr(stats, "simulate_conditional_mecke_counts",
                            lambda lseq, t, n, rng: np.zeros(n, dtype=np.int64))
        report = run_equivalence_suite(small_config)[0]
        assert report.check_name == "conditional-jump-counts" and not report.passed

    @pytest.mark.parametrize("replicas", [0, 1])
    def test_too_few_replicas_are_reported(self, small_config, replicas):
        import dataclasses

        config = dataclasses.replace(small_config, replicas=replicas, time_grid=(0.8,))
        by_name = {r.check_name: r for r in run_equivalence_suite(config)}
        assert not by_name["unconditional-cell-counts"].passed
        assert by_name["unconditional-cell-counts"].note.startswith("DegenerateBins")

    @pytest.mark.parametrize("mutation", ["poisson-clock", "wrong-rate"])
    def test_mutations_fail(self, small_config, mutation):
        import dataclasses

        config = dataclasses.replace(small_config, mutation=mutation)
        reports = run_equivalence_suite(config)
        by_name = {r.check_name: r for r in reports}
        failing = [r for r in reports if not r.passed]
        assert failing, "mutated run must not pass"
        assert not by_name["unconditional-cell-counts"].passed
        assert by_name["unconditional-cell-counts"].p_value < 1e-4
        assert not by_name["cowan-geometric"].passed

    def test_refuses_more_than_the_expected_work_budget(self, unit_square):
        # at the largest time W * t = 4 * 10: about 2.4e17 events per replica
        with pytest.raises(DomainError, match="MAX_EXPECTED_DECISIONS"):
            EquivalenceConfig(window=unit_square, measure=ISO, time_grid=(0.2, 10.0))
        # W * t = 12 passes the per-replica bound (expm1(12) ~ 1.6e5 events), but the
        # Cowan check's 100 000 default replicas would race 1.6e10 events in total
        with pytest.raises(DomainError, match="MAX_EXPECTED_CLOCK_EVENTS"):
            EquivalenceConfig(window=unit_square, measure=ISO, time_grid=(0.2, 3.0))
        EquivalenceConfig(window=unit_square, measure=ISO, time_grid=(0.2, 3.0), cowan_replicas=600)
        # the library default: 100 000 replicas at W * t = 4, about 5.4e6 events
        EquivalenceConfig(window=unit_square, measure=ISO)

    @pytest.mark.parametrize("field", ["conditional_replicas", "replicas", "selection_events"])
    def test_refuses_counts_past_the_clock_event_budget(self, unit_square, field):
        # at W * t = 0.004 the Cowan race expects about 4e3 events, but each of
        # these counts asks for 1e9 or more draws, cells or hits
        EquivalenceConfig(window=unit_square, measure=ISO, time_grid=(0.001,), **{field: 10**6})
        with pytest.raises(DomainError, match="MAX_EXPECTED_CLOCK_EVENTS"):
            EquivalenceConfig(window=unit_square, measure=ISO, time_grid=(0.001,), **{field: 10**9})

    @pytest.mark.parametrize("grid", [(), (math.nan,), (0.2, math.inf)])
    def test_refuses_an_empty_or_non_finite_time_grid(self, unit_square, grid):
        with pytest.raises(DomainError, match="time grid"):
            EquivalenceConfig(window=unit_square, measure=ISO, time_grid=grid)

    def test_unknown_mutation_rejected(self, unit_square):
        with pytest.raises(DomainError):
            EquivalenceConfig(window=unit_square, measure=ISO, mutation="bogus")

    @pytest.fixture
    def quick_config(self, small_config):
        import dataclasses

        return dataclasses.replace(
            small_config, replicas=300, conditional_replicas=400, cowan_replicas=1000,
            selection_events=500, identity_sequences=2,
        )

    def test_tail_runs_once_per_sequence_and_jump(self, quick_config, monkeypatch):
        from stitlab import stats

        calls = []
        tail = stats.mecke_jump_tail
        monkeypatch.setattr(
            stats, "mecke_jump_tail", lambda lseq, ell, t: calls.append(t) or tail(lseq, ell, t)
        )
        by_name = {r.check_name: r for r in run_equivalence_suite(quick_config)}
        grid = quick_config.time_grid
        pairs = by_name["tail-vs-cdf-identity"].sample_size // len(grid)
        assert len(calls) == stats.N_CONDITIONAL_SEQUENCES * stats.CONDITIONAL_DEPTH + pairs
        assert all(tuple(t) == grid for t in calls)

    def test_reproducible_reports(self, quick_config):
        first = run_equivalence_suite(quick_config)
        second = run_equivalence_suite(quick_config)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    @pytest.mark.parametrize("mutation", sorted(GOLDEN_SUITE_DIGESTS, key=str))
    def test_golden_report_digests(self, quick_config, mutation):
        import dataclasses

        reports = run_equivalence_suite(dataclasses.replace(quick_config, mutation=mutation))
        assert _report_digest(reports) == GOLDEN_SUITE_DIGESTS[mutation]

    @pytest.mark.parametrize("mutation", sorted(GOLDEN_ENSEMBLE_DIGESTS, key=str))
    def test_golden_ensemble_digests(self, unit_square, mutation):
        config = EquivalenceConfig(
            window=unit_square, measure=ISO, time_grid=(0.2, 0.5, 1.0), replicas=1000,
            conditional_replicas=1000, cowan_replicas=10_000, selection_events=500, seed=2024,
            mutation=mutation,
        )
        assert _report_digest(run_equivalence_suite(config)) == GOLDEN_ENSEMBLE_DIGESTS[mutation]


class TestFrozenSequences:
    def test_a_refused_sequence_is_replaced_by_the_next_seed(self, right_triangle):
        # at this seed the first trace's weights (1, 1.03177, 1.03181, 1.04373)
        # give stit_jump_cdf a condition of 1.39e8: that sequence is dropped
        config = EquivalenceConfig(window=right_triangle, measure=ISO, seed=1183)
        frozen = stats._frozen_sequences(config)
        assert len(frozen) == stats.N_CONDITIONAL_SEQUENCES
        for lseq, tables in frozen:
            assert len(lseq) == stats.CONDITIONAL_DEPTH and lseq.values[1] > 1.1
            for law, table in zip((stats.stit_jump_cdf, stats.mecke_jump_tail), tables):
                assert np.array_equal(table, stats._capped_count_pmfs(lseq, config.time_grid, law))

    def test_weights_no_law_resolves_fail_the_check_after_bounded_attempts(self, tmp_path):
        # nearly all lines horizontal: every cut leaves the total weight almost
        # unchanged, so every frozen sequence is refused; this once ran forever
        src = str(Path(stats.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = tmp_path / "reports.json"
        argv = ["verify", "--suite", "equivalence", "--measure", "dirs:0:1,1.5:1e-11",
                "--replicas", "200", "--t-grid", "0.2,0.5", "--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "stitlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1, done.stderr
        report = json.loads(out.read_text())[0]
        assert report["check_name"] == "conditional-jump-counts" and not report["passed"]
        assert report["note"].startswith("IllConditioned: ")
        attempts = stats.MAX_SEQUENCE_ATTEMPTS
        assert f"{attempts} of {attempts} attempts refused" in report["note"]
