"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the stochastic checks use fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from stitlab.distributions import (
    TruncationPolicy,
    cowan_sum_cdf,
    discrete_jump_pmf_mass,
    discrete_jump_pmf_sequence,
    discrete_waiting_pmf_mass,
    mecke_jump_tail,
    nu_pmf,
    stit_jump_cdf,
    verify_binomial_gamma_identity,
    verify_lagrange_gamma_identity,
    verify_lagrange_identity,
    verify_telescoping_identity,
)
from stitlab.geometry import ConvexPolygon, split
from stitlab.line_measure import IsotropicMeasure, hitting_measure, sample_hitting_line
from stitlab.processes import (
    LSequence,
    final_state,
    l_sequence,
    mecke_discrete_simulate,
    mecke_discrete_step,
    stit_simulate,
)
from stitlab.stats import (
    EquivalenceConfig,
    chi_square_gof,
    counts_from_values,
    format_report_table,
    ks_test,
    random_l_sequence,
    run_equivalence_suite,
    simulate_conditional_jump_decisions,
    simulate_cowan_counts,
)

from conftest import random_convex_polygon

ISO = IsotropicMeasure(1.0)
UNIT_SQUARE = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
TAIL_POLICY = TruncationPolicy(tail_bound=1e-10, max_terms=10**7)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} [{name}]: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_tail_equals_cdf_identity():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(2, 9))
        values = random_l_sequence(rng, length, 1.0).values
        for rate in (0.5, 1.0, 4.0):
            lseq = LSequence(values, rate=rate)
            for t in (0.1, 0.3, 1.0, 3.0):
                diff = abs(
                    mecke_jump_tail(lseq, length, t, TAIL_POLICY)
                    - stit_jump_cdf(lseq, length, t)
                )
                worst = max(worst, diff)
    elapsed = time.time() - started
    report(
        1,
        "jump-tail identity",
        worst <= 1e-6 and elapsed < 30.0,
        f"max |tail - cdf| = {worst:.3e} (tol 1e-6), runtime {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_02_jump_time_cdf_vs_simulation():
    rng = np.random.default_rng(102)
    passes = 0
    for _ in range(20):
        length = int(rng.integers(2, 7))
        lseq = random_l_sequence(rng, length, 1.0)
        scales = 1.0 / (lseq.rate * np.asarray(lseq.values))
        samples = rng.exponential(scales, size=(100_000, length)).sum(axis=1)
        _, p = ks_test(samples, lambda t: stit_jump_cdf(lseq, length, t))
        passes += p > 0.01
    report(
        2,
        "hypoexponential jump times",
        passes >= 19,
        f"{passes}/20 sequences pass the KS test at alpha = 0.01",
    )


def test_criterion_03_discrete_jump_pmf_vs_chain():
    rng = np.random.default_rng(103)
    worst_p = 1.0
    worst_mass_gap = 0.0
    cap = 20_000
    for ell in (2, 3, 4):
        lseq = random_l_sequence(rng, ell, 1.0)
        decisions = simulate_conditional_jump_decisions(
            lseq, ell, 100_000, rng, max_decisions=cap
        )
        observed = np.where(decisions < 0, cap + 1, decisions)
        hi = int(observed.max())
        pmf_values = discrete_jump_pmf_sequence(lseq, ell, min(hi, cap))
        pmf = lambda n: float(pmf_values[n - ell]) if ell <= n <= cap else 0.0
        _, p, _ = chi_square_gof(counts_from_values(observed), pmf, support_lo=ell)
        worst_p = min(worst_p, p)
        mass = discrete_jump_pmf_mass(lseq, ell, 10**7, stop_mass=1.0 - 1e-8)
        worst_mass_gap = max(worst_mass_gap, 1.0 - mass)
    report(
        3,
        "discrete jump-time law",
        worst_p > 0.001 and worst_mass_gap <= 1e-8,
        f"min chi-square p = {worst_p:.4f} (need > 0.001), "
        f"max normalization gap = {worst_mass_gap:.2e} (tol 1e-8)",
    )


def test_criterion_04_waiting_pmf_normalization():
    worst_gap = 0.0
    cache: dict[tuple[int, float], float] = {}
    combos = 0
    for n in range(2, 11):
        for k in range(2, n + 1):
            for l_k in (1.2, 1.9, 2.7, k - 0.1):
                if not 1.0 <= l_k <= k:
                    continue
                combos += 1
                key = (n, round(l_k, 12))  # pmf depends only on (n, l_k)
                if key not in cache:
                    cache[key] = discrete_waiting_pmf_mass(
                        n, k, l_k, 10**8, stop_mass=1.0 - 1e-8
                    )
                worst_gap = max(worst_gap, 1.0 - cache[key])
    report(
        4,
        "waiting-time normalization",
        worst_gap <= 1e-8,
        f"max 1 - mass = {worst_gap:.2e} over {combos} (n, k, weight) combos (tol 1e-8)",
    )


def test_criterion_05_process_equivalence_at_desk_scale():
    started = time.time()
    config = EquivalenceConfig(
        window=UNIT_SQUARE,
        measure=ISO,
        time_grid=(0.2, 0.5, 1.0),
        replicas=20_000,
        conditional_replicas=20_000,
        cowan_replicas=100_000,
        selection_events=100_000,
        identity_sequences=20,
        seed=105,
    )
    reports = run_equivalence_suite(config)
    elapsed = time.time() - started
    table = format_report_table(reports)
    print(table)
    by_name = {r.check_name: r for r in reports}
    unconditional = by_name["unconditional-cell-counts"]
    report(
        5,
        "STIT vs composed process",
        all(r.passed for r in reports) and elapsed < 300.0,
        f"all 5 checks pass (cell-count min p = {unconditional.p_value:.4f}, "
        f"{unconditional.note}); runtime {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_06_equally_likely_clock_laws():
    rng = np.random.default_rng(106)
    worst_p_geom = 1.0
    for rate in (1.0, 4.0):
        for t in (0.5, 1.0):
            counts = simulate_cowan_counts(rate, t, 100_000, rng)
            _, p, _ = chi_square_gof(
                counts_from_values(counts), lambda k: nu_pmf(rate, t, k), support_lo=0
            )
            worst_p_geom = min(worst_p_geom, p)
    worst_p_sum = 1.0
    for rate in (1.0, 4.0):
        for n in (1, 3, 6):
            rates = rate * np.arange(1, n + 1)
            sums = rng.exponential(1.0 / rates, size=(100_000, n)).sum(axis=1)
            _, p = ks_test(sums, lambda t: cowan_sum_cdf(rate, n, t))
            worst_p_sum = min(worst_p_sum, p)
    report(
        6,
        "equally-likely clock laws",
        worst_p_geom > 0.001 and worst_p_sum > 0.01,
        f"geometric-count min p = {worst_p_geom:.4f} (need > 0.001), "
        f"jump-time-sum min KS p = {worst_p_sum:.4f} (need > 0.01)",
    )


def test_criterion_07_interpolation_identities():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        count = int(rng.integers(2, 11))
        steps = rng.uniform(0.35, 0.9, size=count - 1)
        nodes = 1.0 + rng.uniform(0.0, 0.5) + np.concatenate([[0.0], np.cumsum(steps)])
        x = float(rng.uniform(nodes[0] - 1.0, nodes[-1] + 1.0))
        if float(np.min(np.abs(nodes - x))) < 1e-6:
            continue
        worst = max(worst, verify_lagrange_identity(nodes, x))
    for _ in range(1000):
        length = int(rng.integers(2, 11))
        lseq = random_l_sequence(rng, length, 1.0)
        nodes = np.asarray(lseq.values[1:]) if length > 1 else np.asarray([1.0])
        worst = max(
            worst, verify_lagrange_gamma_identity(nodes, float(nodes[-1] + rng.uniform(0.1, 0.9)))
        )
    checked = 0
    while checked < 1000:
        ell = int(rng.integers(1, 11))
        l_i = float(rng.uniform(1.0, max(1.5, float(ell))))
        l_next = float(rng.uniform(1.0, ell + 1.0))
        if abs(l_i - l_next) < 0.05:
            continue
        if any(abs(m - l_next) < 0.01 for m in range(ell, ell + 14)):
            continue
        worst = max(
            worst,
            verify_telescoping_identity(l_i, l_next, ell, ell + int(rng.integers(1, 13))),
        )
        checked += 1
    checked = 0
    while checked < 1000:
        ell = int(rng.integers(2, 11))
        k = int(rng.integers(0, ell))
        l_value = float(rng.uniform(1.0, float(ell)))
        if not 0.05 < l_value % 1.0 < 0.95:
            continue
        worst = max(worst, verify_binomial_gamma_identity(ell, k, l_value))
        checked += 1
    report(
        7,
        "interpolation/telescoping identities",
        worst < 1e-9,
        f"max residual = {worst:.3e} over 4000 random instances (tol 1e-9)",
    )


def test_criterion_08_geometry_conservation():
    rng = np.random.default_rng(108)
    worst_area = 0.0
    worst_perim = 0.0
    done = 0
    while done < 10_000:
        poly = random_convex_polygon(rng)
        line = sample_hitting_line(ISO, poly, rng)
        parts = split(poly, line)
        if parts.positive_part is None or parts.negative_part is None:
            continue
        done += 1
        area_gap = abs(parts.positive_part.area + parts.negative_part.area - poly.area)
        worst_area = max(worst_area, area_gap / poly.area)
        perim_gap = abs(
            parts.positive_part.perimeter
            + parts.negative_part.perimeter
            - poly.perimeter
            - 2.0 * parts.chord_length
        )
        worst_perim = max(worst_perim, perim_gap / poly.perimeter)
    increasing = 0
    for i in range(100):
        seed_rng = np.random.default_rng(1080 + i)
        if i % 2 == 0:
            trace = stit_simulate(UNIT_SQUARE, ISO, seed_rng, max_jumps=10)
        else:
            trace = mecke_discrete_simulate(UNIT_SQUARE, ISO, seed_rng, max_jumps=8)
        values = l_sequence(trace).values
        increasing += all(a < b for a, b in zip(values, values[1:]))
    report(
        8,
        "geometry conservation",
        worst_area <= 1e-9 and worst_perim <= 1e-9 and increasing == 100,
        f"10^4 splits: max rel area gap {worst_area:.2e}, max rel perimeter gap "
        f"{worst_perim:.2e} (tol 1e-9); {increasing}/100 traces strictly increasing",
    )


def test_criterion_09_selection_probabilities():
    rng = np.random.default_rng(109)
    trace = mecke_discrete_simulate(UNIT_SQUARE, ISO, rng, max_jumps=2)
    state = final_state(trace)
    cells = {i: c for i, c in enumerate(state.quasi_cells) if c is not None}
    assert len(cells) == 3
    weights = {i: hitting_measure(ISO, c) for i, c in cells.items()}
    total = sum(weights.values())
    n_events = 100_000
    hits = dict.fromkeys(cells, 0)
    seen = 0
    while seen < n_events:
        _, event = mecke_discrete_step(state, ISO, UNIT_SQUARE, rng)
        if event.jump:
            hits[event.cell_index] += 1
            seen += 1
    worst_z = 0.0
    for idx, w in weights.items():
        p = w / total
        sigma = math.sqrt(n_events * p * (1.0 - p))
        worst_z = max(worst_z, abs(hits[idx] - n_events * p) / sigma)
    report(
        9,
        "selection probabilities",
        worst_z <= 3.0,
        f"max |z| = {worst_z:.2f} over 3 cells and 10^5 jump events (limit 3)",
    )


@pytest.mark.parametrize("mutation", ["poisson-clock", "wrong-rate"])
def test_criterion_10_negative_controls(mutation):
    config = EquivalenceConfig(
        window=UNIT_SQUARE,
        measure=ISO,
        time_grid=(0.5, 1.0),
        replicas=4000,
        conditional_replicas=4000,
        cowan_replicas=30_000,
        selection_events=5000,
        identity_sequences=3,
        seed=110,
        mutation=mutation,
    )
    reports = run_equivalence_suite(config)
    by_name = {r.check_name: r for r in reports}
    cell = by_name["unconditional-cell-counts"]
    cowan = by_name["cowan-geometric"]
    broken = min(
        p for p in (cell.p_value, cowan.p_value) if p is not None
    )
    report(
        10,
        f"negative control ({mutation})",
        (not cell.passed or not cowan.passed) and broken < 1e-4,
        f"mutated clock detected: min p = {broken:.2e} (need < 1e-4)",
    )
