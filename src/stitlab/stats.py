"""Goodness-of-fit machinery and the Monte Carlo equivalence harness.

The harness turns the distributional claims about the processes into
executable checks: conditional jump-count laws on frozen weight sequences,
unconditional cell-count comparison of the two continuous models, the
geometric law of the equally-likely clock, the deterministic tail-vs-CDF
identity, and the selection probabilities of the discrete process.  Each
check draws from its own child stream of the seed, so every report is
reproducible from (seed, config).  The unconditional check counts STIT's
cells by its per-cell clocks and the Mecke side's by the lockstep stepper of
`stitlab.batch`, both in blocks of at most `batch.BLOCK` replicas.  The
Cowan check races its replicas on compact arrays of the ones still racing
(the same draws as on full-length arrays) and tests each grid time's counts
against one table of the geometric pmf, which holds the bits of each scalar
`nu_pmf` call.
SciPy is imported only by the three p-values (`ks_test`, `chi_square_gof`,
`two_sample_chi_square`), at their call, so importing stitlab loads none of it.

Negative controls are built in: a mutated clock (`poisson-clock` or
`wrong-rate`) must make the stochastic checks fail, so the harness cannot
pass vacuously.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import batch, processes
from .batch import Clock  # the clock of the Cowan and Mecke models
from .distributions import (
    cowan_sum_cdf,
    discrete_jump_pmf_mass,
    discrete_waiting_pmf_mass,
    mecke_jump_tail,
    nu_pmf,
    stit_jump_cdf,
    verify_binomial_gamma_identity,
    verify_lagrange_gamma_identity,
    verify_lagrange_identity,
    verify_telescoping_identity,
)
from .errors import DegenerateBins, DomainError, IllConditioned, StitlabError, TooFewSamples
from .geometry import ConvexPolygon
from .line_measure import LineMeasureSpec, hitting_measure
from .processes import LSequence, final_state, l_sequence, mecke_discrete_simulate, replica_rng
# the expected-work budget of the clock of the Cowan and Mecke models
from .processes import _check_expected_work

MUTATIONS = (None, "poisson-clock", "wrong-rate")
WRONG_RATE_FACTOR = 1.2
MIN_REL_GAP = 0.05  # between neighbouring values of a random_l_sequence
# Fixed settings of the equivalence harness: the conditional check freezes
# N_CONDITIONAL_SEQUENCES weight sequences of CONDITIONAL_DEPTH values each
# from MAX_SEQUENCE_ATTEMPTS traces at most; a p-valued check passes above
# P_THRESHOLD, the tail-vs-CDF residual at or below IDENTITY_TOL; a
# chi-square test merges bins until each expects MIN_EXPECTED.
CONDITIONAL_DEPTH = 4
N_CONDITIONAL_SEQUENCES = 3
MAX_SEQUENCE_ATTEMPTS = 30
P_THRESHOLD = 1e-3
IDENTITY_TOL = 1e-6
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity or goodness-of-fit check."""

    check_name: str
    statistic: float
    p_value: float | None
    tolerance: float
    passed: bool
    sample_size: int
    seed: int
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _residual_report(
    name: str, worst: float, tol: float, count: int, seed: int
) -> VerificationReport:
    """Report of a check that passes when its worst residual (or z-score) is at most `tol`."""
    return VerificationReport(
        check_name=name, statistic=worst, p_value=None, tolerance=tol,
        passed=worst <= tol, sample_size=count, seed=seed,
    )


def _p_report(
    name: str, worst_p: float, count: int, seed: int, *, passed: bool = True, note: str = ""
) -> VerificationReport:
    """Report of a check that passes when its worst p-value is above P_THRESHOLD
    (and `passed`, any further condition of the check, holds)."""
    return VerificationReport(
        check_name=name, statistic=worst_p, p_value=worst_p, tolerance=P_THRESHOLD,
        passed=passed and worst_p > P_THRESHOLD, sample_size=count, seed=seed, note=note,
    )


def format_report_table(reports: Sequence[VerificationReport]) -> str:
    lines = [f"{'check':<28} {'statistic':>12} {'p-value':>10} {'tol':>9} {'n':>8}  result"]
    for r in reports:
        p_txt = f"{r.p_value:.3g}" if r.p_value is not None else "-"
        lines.append(
            f"{r.check_name:<28} {r.statistic:>12.4g} {p_txt:>10} {r.tolerance:>9.3g}"
            f" {r.sample_size:>8d}  {'PASS' if r.passed else 'FAIL'}"
        )
    return "\n".join(lines)


def format_pass_rates(runs: Sequence[Sequence[VerificationReport]], note: str = "") -> str:
    """Pass count and rate of each check, and of the whole suite, over runs of
    a suite at several seeds; `note` follows the whole-suite row."""
    names = list(dict.fromkeys(r.check_name for run in runs for r in run))
    rows = [(name, sum(all(r.passed for r in run if r.check_name == name) for run in runs))
            for name in names]
    rows.append(("whole suite", sum(all(r.passed for r in run) for run in runs)))
    lines = [f"{'check':<28} {'passed':>9} {'rate':>7}"]
    for name, passed in rows:
        lines.append(f"{name:<28} {f'{passed}/{len(runs)}':>9} {passed / len(runs):>7.1%}")
    lines[-1] += note
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# test statistics


def ks_test(samples: Iterable[float], cdf: Callable) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value; `cdf`
    takes the sorted sample as one array."""
    x = np.sort(np.asarray(list(samples), dtype=float))
    n = x.size
    if n < 10:
        raise TooFewSamples(f"need >= 10 samples, got {n}")
    f = np.asarray(cdf(x), dtype=float)
    d_plus = float(np.max(np.arange(1, n + 1) / n - f))
    d_minus = float(np.max(f - np.arange(0, n) / n))
    d = max(d_plus, d_minus)
    from scipy.special import kolmogorov  # SciPy is loaded at the first p-value

    return d, float(kolmogorov(math.sqrt(n) * d))


def counts_from_values(values: Iterable[int]) -> dict[int, int]:
    """Integer histogram as a plain dict, in ascending key order: one
    `np.bincount` pass over nonnegative values (its memory grows with the
    largest value), `np.unique` when some value is negative."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=np.int64)
    if arr.size and arr.min() < 0:
        keys, cnt = np.unique(arr, return_counts=True)
    else:
        cnt = np.bincount(arr)
        keys = cnt.nonzero()[0]
        cnt = cnt[keys]
    return dict(zip(keys.tolist(), cnt.tolist()))


def _merge_bins(raw: list[list[float]], expected_col: int) -> list[list[float]]:
    """Greedy left-to-right merge until each bin's expected column reaches MIN_EXPECTED."""
    merged: list[list[float]] = []
    acc = [0.0] * len(raw[0])
    for row in raw:
        acc = [a + b for a, b in zip(acc, row)]
        if acc[expected_col] >= MIN_EXPECTED:
            merged.append(acc)
            acc = [0.0] * len(raw[0])
    if any(acc):
        if merged:
            merged[-1] = [a + b for a, b in zip(merged[-1], acc)]
        else:
            merged.append(acc)
    return merged


def chi_square_gof(
    counts: Mapping[int, int],
    pmf: Callable[[int], float],
    *,
    support_lo: int | None = None,
) -> tuple[float, float, int]:
    """Pearson test of an integer histogram against a pmf.

    Bins run from `support_lo` (default: smallest observed value, which must
    be the start of the pmf's support) to the largest observed value; the
    pmf mass beyond that range is folded into the last bin.  Adjacent bins
    are merged until every expected count reaches MIN_EXPECTED.
    """
    if not counts:
        raise DegenerateBins("empty histogram")
    lo = min(counts) if support_lo is None else support_lo
    hi = max(counts)
    n = sum(counts.values())
    raw = []
    cum = 0.0
    for k in range(lo, hi + 1):
        q = float(pmf(k))
        cum += q
        raw.append([float(counts.get(k, 0)), n * q])
    raw[-1][1] += n * max(0.0, 1.0 - cum)
    merged = _merge_bins(raw, expected_col=1)
    if len(merged) < 2:
        raise DegenerateBins(f"only {len(merged)} bin(s) after merging")
    stat = math.fsum((o - e) ** 2 / e for o, e in merged)
    dof = len(merged) - 1
    from scipy.special import chdtrc  # SciPy is loaded at the first p-value

    return stat, float(chdtrc(dof, stat)), dof


def two_sample_chi_square(
    counts_a: Mapping[int, int],
    counts_b: Mapping[int, int],
) -> tuple[float, float]:
    """Contingency-table test that two integer histograms share a law."""
    if not counts_a or not counts_b:
        raise DegenerateBins("empty histogram")
    lo = min(min(counts_a), min(counts_b))
    hi = max(max(counts_a), max(counts_b))
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    total = n_a + n_b
    raw = []
    for k in range(lo, hi + 1):
        o_a = float(counts_a.get(k, 0))
        o_b = float(counts_b.get(k, 0))
        col = o_a + o_b
        raw.append([o_a, o_b, min(n_a, n_b) * col / total])
    merged = _merge_bins(raw, expected_col=2)
    if len(merged) < 2:
        raise DegenerateBins(f"only {len(merged)} bin(s) after merging")
    stat = 0.0
    for o_a, o_b, _ in merged:
        col = o_a + o_b
        e_a = n_a * col / total
        e_b = n_b * col / total
        stat += (o_a - e_a) ** 2 / e_a + (o_b - e_b) ** 2 / e_b
    dof = len(merged) - 1
    from scipy.special import chdtrc  # SciPy is loaded at the first p-value

    return stat, float(chdtrc(dof, stat))


# ---------------------------------------------------------------------------
# vectorized replica simulators (time/counting layer only)


def _clock_counts(clock: Clock, t: float, n_replicas: int, rng: np.random.Generator) -> np.ndarray:
    """Event counts by time t of a clock of the slot count k (1 at the start
    and one more per event): races of Exp(clock(k)) waits."""
    if not clock(1) > 0.0 or t < 0.0 or n_replicas < 1:
        raise DomainError("need rate > 0, t >= 0, n_replicas >= 1")
    # the race runs on compact arrays of the replicas still racing: the one
    # whose remaining time drops below 0 at the k-th wait counted k - 1 events
    remaining = np.full(n_replicas, t, dtype=float)
    counts = np.empty(n_replicas, dtype=np.int64)
    active = np.arange(n_replicas)
    k = 1
    while active.size:
        remaining -= rng.exponential(1.0 / clock(k), size=active.size)
        alive = remaining >= 0.0
        counts[active[~alive]] = k - 1
        active, remaining = active[alive], remaining[alive]
        k += 1
    return counts


def simulate_cowan_counts(
    rate: float, t: float, n_replicas: int, rng: np.random.Generator
) -> np.ndarray:
    """Jump counts of the equally-likely clock: races of Exp(k * rate) waits."""
    return _clock_counts(Clock(rate), t, n_replicas, rng)


def _decision_chain(
    lseq: LSequence, last: np.ndarray, cap: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The conditional decision chain of each replica over decisions
    1..last[r], until it has `cap` jumps: decision n jumps with probability
    values[j]/n, j the jumps so far.  Each replica's jump count, and the
    decision of its cap-th jump (-1 when it has none)."""
    vals = np.asarray(lseq.values, dtype=float)
    jumps = np.zeros(last.size, dtype=np.int64)
    at = np.full(last.size, -1, dtype=np.int64)
    active = np.arange(last.size)
    for n in range(1, int(last.max(initial=0)) + 1):
        active = active[(last[active] >= n) & (jumps[active] < cap)]
        if not active.size:
            break
        hit = active[rng.random(active.size) < vals[jumps[active]] / n]
        jumps[hit] += 1
        at[hit[jumps[hit] == cap]] = n
    return jumps, at


def simulate_conditional_jump_decisions(
    lseq: LSequence,
    ell: int,
    n_replicas: int,
    rng: np.random.Generator,
    *,
    max_decisions: int = 10**4,
) -> np.ndarray:
    """Decision index of the ell-th jump per replica; -1 when censored."""
    if not 1 <= ell <= len(lseq):
        raise DomainError(f"ell={ell} outside 1..{len(lseq)}")
    return _decision_chain(lseq, np.full(n_replicas, max_decisions), ell, rng)[1]


def simulate_conditional_mecke_counts(
    lseq: LSequence, t: float, n_replicas: int, rng: np.random.Generator
) -> np.ndarray:
    """Jumps among the geometric number of decisions by time t, capped at len(lseq)."""
    decisions = rng.geometric(math.exp(-lseq.rate * t), size=n_replicas).astype(np.int64) - 1
    return _decision_chain(lseq, decisions, len(lseq), rng)[0]


def simulate_conditional_stit_counts(
    lseq: LSequence, t: float, n_replicas: int, rng: np.random.Generator
) -> np.ndarray:
    """Jumps by time t from Exp(rate * values[k]) waits, capped at len(lseq)."""
    cap = len(lseq)
    scales = 1.0 / (lseq.rate * np.asarray(lseq.values, dtype=float))
    waits = rng.exponential(scales, size=(n_replicas, cap))
    return (np.cumsum(waits, axis=1) <= t).sum(axis=1).astype(np.int64)


def random_l_sequence(rng: np.random.Generator, length: int, rate: float) -> LSequence:
    """Seeded random weight sequence with a relative gap of at least MIN_REL_GAP."""
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    values = [1.0]
    while len(values) < length:
        prev = values[-1]
        k_next = len(values) + 1
        lo = prev * MIN_REL_GAP / (1.0 - MIN_REL_GAP) + 1e-3
        hi = min(0.8, k_next - prev - 1e-3)
        step = lo if hi <= lo else float(rng.uniform(lo, hi))
        values.append(prev + step)
    return LSequence(values=tuple(values), rate=rate)


# ---------------------------------------------------------------------------
# the equivalence harness


@dataclass(frozen=True)
class EquivalenceConfig:
    window: ConvexPolygon
    measure: LineMeasureSpec
    time_grid: tuple[float, ...] = (0.2, 0.5, 1.0)
    replicas: int = 20_000
    conditional_replicas: int = 20_000
    cowan_replicas: int = 100_000
    selection_events: int = 100_000
    identity_sequences: int = 20
    seed: int = 0
    mutation: str | None = None

    def __post_init__(self) -> None:
        if self.mutation not in MUTATIONS:
            raise DomainError(f"unknown mutation {self.mutation!r}; options: {MUTATIONS}")
        if not self.time_grid or not all(0.0 <= t < math.inf for t in self.time_grid):
            raise DomainError(
                f"time grid must be nonempty, finite and nonnegative, got {self.time_grid!r}"
            )
        t_max = max(self.time_grid)
        rate_t = hitting_measure(self.measure, self.window) * t_max
        clock = f"the equally-likely clock to t = {t_max:.6g} (rate * t = {rate_t:.6g})"
        _check_expected_work(rate_t, "MAX_EXPECTED_DECISIONS", clock)
        replicas = self.cowan_replicas
        cowan = f"the Cowan check, {replicas} replicas of {clock},"
        _check_expected_work(rate_t, "MAX_EXPECTED_CLOCK_EVENTS", cowan, copies=replicas)
        # the other checks' work: the conditional draws, the cell-count
        # replicas at no less than one jump each, and the selection hits
        draws = self.conditional_replicas * N_CONDITIONAL_SEQUENCES * len(self.time_grid) * CONDITIONAL_DEPTH
        conditional = f"the conditional check, {draws} draws,"
        _check_expected_work(None, "MAX_EXPECTED_CLOCK_EVENTS", conditional, cap=draws)
        log_jumps = math.log1p(max(1.0, processes.stit_mean_jumps(self.window, self.measure, t_max)))
        cells = f"the cell-count check, {self.replicas} replicas of STIT to t = {t_max:.6g},"
        _check_expected_work(log_jumps, "MAX_EXPECTED_CLOCK_EVENTS", cells, copies=self.replicas)
        selection = f"the selection check, {self.selection_events} hits,"
        _check_expected_work(None, "MAX_EXPECTED_CLOCK_EVENTS", selection, cap=self.selection_events)


def _frozen_sequences(config: EquivalenceConfig) -> list[tuple[LSequence, list[np.ndarray]]]:
    """Weight sequences frozen from seeded discrete-process traces, each with its
    pmf tables (STIT's, Mecke's).  A sequence the laws refuse is replaced by the
    next child seed's; past MAX_SEQUENCE_ATTEMPTS traces the last refusal is raised."""
    out = []
    for attempt in range(MAX_SEQUENCE_ATTEMPTS):
        rng = replica_rng(config.seed, 1, attempt)
        lseq = l_sequence(mecke_discrete_simulate(
            config.window, config.measure, rng, max_jumps=CONDITIONAL_DEPTH - 1))
        try:
            out.append((lseq, [_capped_count_pmfs(lseq, config.time_grid, law)
                               for law in (stit_jump_cdf, mecke_jump_tail)]))
        except IllConditioned as exc:
            refusal = exc
        if len(out) == N_CONDITIONAL_SEQUENCES:
            return out
    refused = MAX_SEQUENCE_ATTEMPTS - len(out)
    raise IllConditioned(f"{refusal}; {refused} of {MAX_SEQUENCE_ATTEMPTS} attempts refused")


def _capped_count_pmfs(lseq: LSequence, times: Sequence[float], tail: Callable) -> np.ndarray:
    """pmf of min(jump count by t, len(lseq)) at each t of `times`, one row
    per time, from a tail evaluator P(count >= j) over a time grid.

    Round-off can leave a tail a few ulps of its condition above the one
    before it; the tails are held non-increasing in j, which clips each
    difference at 0 and keeps every row summing to 1."""
    tails = [tail(lseq, j, times) for j in range(1, len(lseq) + 1)]
    # P(count >= j), j = 0..len(lseq)
    upper = np.minimum.accumulate(np.array([np.ones(len(times)), *tails]), axis=0)
    return np.vstack([upper[:-1] - upper[1:], upper[-1:]]).T


def _check_conditional(config: EquivalenceConfig, name: str) -> VerificationReport:
    """Capped jump counts of STIT and of Mecke on each frozen sequence, against
    their pmfs and against each other."""
    simulators = (simulate_conditional_stit_counts, simulate_conditional_mecke_counts)
    worst_p = 1.0
    n_total = 0
    for s_idx, (lseq, tables) in enumerate(_frozen_sequences(config)):
        for t_idx, t in enumerate(config.time_grid):
            if -math.expm1(-lseq.rate * t) <= 0.0:
                continue  # no jumps can have happened; trivially consistent
            rng = replica_rng(config.seed, 2, s_idx, t_idx)
            hists = [counts_from_values(simulate(lseq, t, config.conditional_replicas, rng))
                     for simulate in simulators]  # STIT's draws, then Mecke's
            n_total += 2 * config.conditional_replicas
            for hist, table in zip(hists, tables):
                pmf = table[t_idx]
                _, p, _ = chi_square_gof(
                    hist, lambda k: pmf[k] if 0 <= k < len(pmf) else 0.0, support_lo=0
                )
                worst_p = min(worst_p, p)
            worst_p = min(worst_p, two_sample_chi_square(*hists)[1])
    return _p_report(name, worst_p, n_total, config.seed)


def _mecke_clock(config: EquivalenceConfig) -> Clock:
    """The clock of the Mecke decisions: the equally-likely clock, or a
    deliberately wrong clock under a mutation."""
    rate = hitting_measure(config.measure, config.window)
    return {
        None: Clock(rate),
        "poisson-clock": Clock(rate, per_slot=False),  # ignores how many quasi-cells exist
        "wrong-rate": Clock(rate * WRONG_RATE_FACTOR),
    }[config.mutation]


def _moments(hist: np.ndarray) -> tuple[float, float, int]:
    """Mean, variance (ddof 1) and size of a cell-count histogram (size >= 2)."""
    values = np.arange(hist.size)
    size = int(hist.sum())
    mean = float(values @ hist) / size
    return mean, float(((values - mean) ** 2) @ hist) / (size - 1), size


def _check_unconditional(config: EquivalenceConfig, name: str) -> VerificationReport:
    grid = config.time_grid
    rng = replica_rng(config.seed, 3)
    stit = processes.stit_cell_counts(config.window, config.measure, grid, config.replicas, rng)
    mecke = batch.mecke_cell_counts(
        config.window, config.measure, grid, config.replicas, rng, _mecke_clock(config)
    )
    worst_p = 1.0
    worst_z = 0.0
    for a, b in zip(stit, mecke):
        ca, cb = ({k: int(c) for k, c in enumerate(h) if c} for h in (a, b))
        if ca == cb and len(ca) == 1:
            continue  # e.g. t = 0: every replica still shows the bare window
        _, p = two_sample_chi_square(ca, cb)  # DegenerateBins below ten replicas
        worst_p = min(worst_p, p)
        (mean_a, var_a, n_a), (mean_b, var_b, n_b) = _moments(a), _moments(b)
        spread = math.sqrt(var_a / n_a + var_b / n_b)
        if spread > 0.0:
            worst_z = max(worst_z, abs(mean_a - mean_b) / spread)
    return _p_report(
        name, worst_p, 2 * config.replicas * len(grid), config.seed,
        passed=worst_z <= 3.0, note=f"max mean z-score {worst_z:.2f} (limit 3)",
    )


def _check_cowan(config: EquivalenceConfig, name: str) -> VerificationReport:
    """The event counts of the clock under test against the geometric law of
    the equally-likely clock."""
    rate = hitting_measure(config.measure, config.window)
    clock = _mecke_clock(config)
    worst_p = 1.0
    n_total = 0
    for t_idx, t in enumerate(config.time_grid):
        if -math.expm1(-rate * t) <= 0.0:
            continue
        counts = _clock_counts(clock, t, config.cowan_replicas, replica_rng(config.seed, 4, t_idx))
        n_total += config.cowan_replicas
        pmf = nu_pmf(rate, t, np.arange(counts.max() + 1))  # the bits of each scalar call
        _, p, _ = chi_square_gof(counts_from_values(counts), lambda k: pmf[k], support_lo=0)
        worst_p = min(worst_p, p)
    return _p_report(name, worst_p, n_total, config.seed)


def _tail_cdf_residual(
    rng: np.random.Generator, sequences: int, rate: float, times: Sequence[float]
) -> tuple[float, int]:
    """Largest |mecke_jump_tail - stit_jump_cdf| over `sequences` random weight
    sequences of length 2..6, every ell and every t in `times`, and the number
    of pairs compared."""
    worst = 0.0
    count = 0
    for _ in range(sequences):
        lseq = random_l_sequence(rng, int(rng.integers(2, 7)), rate)
        for ell in range(1, len(lseq) + 1):
            gap = mecke_jump_tail(lseq, ell, times) - stit_jump_cdf(lseq, ell, times)
            worst = max(worst, float(np.abs(gap).max(initial=0.0)))
            count += len(times)
    return worst, count


def _check_identity(config: EquivalenceConfig, name: str) -> VerificationReport:
    rate = hitting_measure(config.measure, config.window)
    worst, count = _tail_cdf_residual(
        replica_rng(config.seed, 5), config.identity_sequences, rate, config.time_grid
    )
    return _residual_report(name, worst, IDENTITY_TOL, count, config.seed)


def _check_selection(config: EquivalenceConfig, name: str) -> VerificationReport:
    """From a frozen two-jump state, decisions that pick one of its k cells
    uniformly, each with one window line, are drawn in bulk rounds until
    `selection_events` of them hit: the line's offset lies strictly inside the
    cell's support interval at the line's theta.  A decision that picks an
    empty slot never hits, so leaving those out keeps the law of the hits."""
    rng = replica_rng(config.seed, 6)
    trace = mecke_discrete_simulate(config.window, config.measure, rng, max_jumps=2)
    cells = final_state(trace).cells
    polys = batch.Polys.of(cells)
    weights = np.array([hitting_measure(config.measure, c) for c in cells])
    windows = batch.Polys.of([config.window]).take(np.zeros(batch.BLOCK, dtype=np.int64))
    hits = np.zeros(len(cells), dtype=np.int64)
    while hits.sum() < config.selection_events:
        picked = rng.integers(0, len(cells), size=batch.BLOCK)
        theta, offset = batch.sample_lines(config.measure, windows, rng)
        lo, hi = batch.support_intervals(polys.verts[picked], theta)
        hit = picked[(lo < offset) & (offset < hi)]
        hits += np.bincount(hit[: config.selection_events - hits.sum()], minlength=len(cells))
    p = weights / weights.sum()
    n = config.selection_events
    worst_z = float(np.max(np.abs(hits - n * p) / np.sqrt(n * p * (1.0 - p))))
    return _residual_report(name, worst_z, 3.0, n, config.seed)


def _spaced_nodes(rng: np.random.Generator, count: int, lo: float = 1.0) -> np.ndarray:
    """Random increasing nodes in [lo, lo+9] with spacing >= 0.35 (well conditioned)."""
    steps = rng.uniform(0.35, 0.9, size=count - 1) if count > 1 else np.empty(0)
    return lo + rng.uniform(0.0, 0.5) + np.concatenate([[0.0], np.cumsum(steps)])


def _non_integer_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    while True:
        x = float(rng.uniform(lo, hi))
        if 0.05 < x % 1.0 < 0.95:
            return x


def run_identity_suite(seed: int = 0, *, instances: int = 200) -> list[VerificationReport]:
    """Deterministic residual checks of the interpolation/telescoping identities,
    the tail-vs-CDF identity, and the series normalizations."""
    reports: list[VerificationReport] = []

    rng = replica_rng(seed, 100)
    worst = verify_lagrange_identity([1.0, 2.0, 3.0], 4.0)
    for _ in range(instances):
        nodes = _spaced_nodes(rng, int(rng.integers(2, 11)))
        x_eval = float(rng.uniform(nodes[0] - 1.0, nodes[-1] + 1.0))
        if float(np.min(np.abs(nodes - x_eval))) < 1e-6:
            continue
        worst = max(worst, verify_lagrange_identity(nodes, x_eval))
    reports.append(_residual_report("lagrange-constant", worst, 1e-9, instances + 1, seed))

    rng = replica_rng(seed, 101)
    worst = 0.0
    for _ in range(instances):
        lseq = random_l_sequence(rng, int(rng.integers(2, 11)), 1.0)
        nodes = np.asarray(lseq.values[1:])
        x_eval = float(nodes[-1] + rng.uniform(0.1, 0.9))
        worst = max(worst, verify_lagrange_gamma_identity(nodes, x_eval))
    reports.append(_residual_report("lagrange-gamma", worst, 1e-9, instances, seed))

    rng = replica_rng(seed, 102)
    worst = verify_telescoping_identity(1.3, 2.7, 3, 4)  # base case: one-term sum
    for _ in range(instances):
        ell = int(rng.integers(1, 11))
        l_i = _non_integer_uniform(rng, 1.0, max(1.5, float(ell)))
        l_next = _non_integer_uniform(rng, 1.0, ell + 1.0)
        if abs(l_i - l_next) < 0.05:
            continue
        n = ell + int(rng.integers(1, 13))
        worst = max(worst, verify_telescoping_identity(l_i, l_next, ell, n))
    reports.append(_residual_report("telescoping", worst, 1e-9, instances + 1, seed))

    rng = replica_rng(seed, 103)
    worst = max(
        verify_binomial_gamma_identity(2, 0, 1.4),
        verify_binomial_gamma_identity(2, 1, 1.4),
    )
    for _ in range(instances):
        ell = int(rng.integers(2, 11))
        k = int(rng.integers(0, ell))
        l_value = _non_integer_uniform(rng, 1.0, float(ell))
        worst = max(worst, verify_binomial_gamma_identity(ell, k, l_value))
    reports.append(_residual_report("binomial-gamma", worst, 1e-9, instances + 2, seed))

    worst, count = _tail_cdf_residual(replica_rng(seed, 104), 10, 1.0, (0.1, 0.5, 1.0, 2.0))
    reports.append(_residual_report("tail-vs-cdf", worst, IDENTITY_TOL, count, seed))

    worst = 0.0
    count = 0
    for n in (2, 4, 6):
        for l_k in (1.5, 1.9, 2.7):
            k = max(2, math.ceil(l_k))
            if k > n:
                continue
            mass = discrete_waiting_pmf_mass(n, k, l_k, 10**8, stop_mass=1.0 - 1e-8)
            worst = max(worst, 1.0 - mass)
            count += 1
    reports.append(_residual_report("waiting-normalization", worst, 1e-8, count, seed))

    lseq = LSequence((1.0, 1.5, 2.2), rate=1.0)
    mass = discrete_jump_pmf_mass(lseq, 3, 10**7, stop_mass=1.0 - 1e-8)
    reports.append(_residual_report("jump-normalization", 1.0 - mass, 1e-8, 1, seed))

    worst = 0.0  # P(N_t >= n) from the count pmf against the clock-sum CDF
    for rate in (0.5, 1.0, 4.0):
        for t in (0.0, 0.3, 1.0):
            pmf = nu_pmf(rate, t, range(19))
            for n in range(1, 20):
                worst = max(worst, abs(1.0 - math.fsum(pmf[:n]) - cowan_sum_cdf(rate, n, t)))
    reports.append(_residual_report("count-pmf-match", worst, 1e-12, 171, seed))

    return reports


def run_equivalence_suite(config: EquivalenceConfig) -> list[VerificationReport]:
    """Run the five equivalence checks; failures are reported, not raised.

    Thresholds are applied per check, not family-wise: under the null each
    p-valued sub-test trips with probability about equal to the threshold
    (0.1% by default), so across the roughly two dozen sub-tests a *fresh*
    seed carries a few-percent false-alarm rate.  The fixed seeds recorded
    in the reports make the shipped configuration deterministic.
    """
    reports: list[VerificationReport] = []
    for name, check in (  # each check's one name, whether it reports or raises
        ("conditional-jump-counts", _check_conditional),
        ("unconditional-cell-counts", _check_unconditional),
        ("cowan-geometric", _check_cowan),
        ("tail-vs-cdf-identity", _check_identity),
        ("selection-probabilities", _check_selection),
    ):
        try:
            reports.append(check(config, name))
        except StitlabError as exc:
            reports.append(
                VerificationReport(
                    check_name=name,
                    statistic=math.nan,
                    p_value=None,
                    tolerance=math.nan,
                    passed=False,
                    sample_size=0,
                    seed=config.seed,
                    note=f"{type(exc).__name__}: {exc}",
                )
            )
    return reports
