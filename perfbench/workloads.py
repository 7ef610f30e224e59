"""The three benchmark workloads: grow, ensemble and laws.

Each workload builds its inputs from the benchmark seed, runs a fixed set of
calls into stitlab's public functions or its CLI entry point (one "round"),
and checks the outputs.  The simulations stop after a count of jumps or
decisions, never at a time horizon, so the work in a round does not depend on
the random stream, which an equal-in-law rewrite of the package may change.

Calls go through module attributes (``cli.main``, ``dist.mecke_jump_tail``)
so that a traced run sees them through the tracer's rebound names.
``stitlab.stats`` and the scipy-based references are imported where they are
first needed, so that set-up, which only builds inputs, loads no more than
the workload's own calls do.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from stitlab import cli, errors, geometry, line_measure, processes, trace_io
from stitlab import distributions as dist

# Refusals a caller can get from the closed forms and the sampler.
REFUSALS = (errors.IllConditioned, errors.TruncationFailure, errors.SamplerStall)
CLI_RUNTIME_EXIT = 3


class Round:
    """What one pass of a workload did: per-operation times, counts, failures."""

    def __init__(self) -> None:
        self.op_s: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: dict[str, list[str]] = defaultdict(list)  # operation: messages
        self.refusals = 0
        self.tail: list[tuple[str, float, float]] = []  # (kind, rate*t, seconds)
        self.wall_s = 0.0
        self.tracer = None

    def fail(self, op: str, message: str) -> None:
        """Mark operation `op` (one call, named uniquely within the round) as failed."""
        self.failures[op].append(message)

    def span(self, op: str):
        """A ``bench.<op>`` span around one operation when the round is traced."""
        return self.tracer.span(f"bench.{op}") if self.tracer else contextlib.nullcontext()


def _seeds(seed: int, *key: int, count: int) -> list[int]:
    """`count` 32-bit seeds for the child stream `key` of the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed, spawn_key=key).generate_state(count)]


def run_cli(rec: Round, op: str, argv: list[str]) -> int | None:
    """Call ``stitlab.cli.main(argv)`` and time it; None when it raised."""
    rec.attempted += 1
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with rec.span(op), contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failure of the operation
        rec.op_s[op].append(time.perf_counter() - t0)
        rec.fail(op, f"{type(exc).__name__}: {exc}")
        return None
    rec.op_s[op].append(time.perf_counter() - t0)
    return code


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# grow: a few long single runs through the CLI


class Grow:
    """Long single simulations through ``stitlab.cli.main``, then a render.

    Each run has thousands of cells, so the linear selection scan, the
    per-decision copy of the slot tuple, trace I/O and render's replay
    dominate; ``distributions`` and ``stats`` stay idle.
    """

    SMALL_JUMPS = 500
    LARGE_JUMPS = 8000
    DIRS_JUMPS = 1000
    COWAN_JUMPS = 2000
    MECKE_DECISIONS = 8000
    DIRS = "dirs:0:1,1.0471975511965976:1,2.0943951023931953:1"
    # l_sequence costs one hitting_measure call per cell per jump, so it is
    # checked only on the traces where that quadratic cost stays small.
    L_SEQUENCE_CHECKED = ("stit_small", "mecke")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        s = _seeds(seed, 1, count=5)
        self.runs = {
            # op name: (model, measure, stop flag, count, seed)
            "stit_small": ("stit", "iso:1", "--jumps", self.SMALL_JUMPS, s[0]),
            "stit_large": ("stit", "iso:1", "--jumps", self.LARGE_JUMPS, s[1]),
            "stit_dirs": ("stit", self.DIRS, "--jumps", self.DIRS_JUMPS, s[2]),
            "cowan_el": ("cowan-el", "iso:1", "--jumps", self.COWAN_JUMPS, s[3]),
            "mecke": ("mecke-discrete", "iso:1", "--decisions", self.MECKE_DECISIONS, s[4]),
        }
        self.argv = {
            op: ["simulate", "--model", model, "--window", "unit-square", "--measure", measure,
                 flag, str(count), "--seed", str(sd), "--out", str(self.path(op))]
            for op, (model, measure, flag, count, sd) in self.runs.items()
        }
        self.argv["render"] = [
            "render", str(self.path("stit_large")), "--out", str(workdir / "stit_large.svg")
        ]
        self.digests: dict[str, str] | None = None

    def path(self, op: str) -> Path:
        return self.workdir / f"{op}.jsonl"

    def build(self, index: int) -> None:
        """Inputs are the same every round; nothing to build."""

    def run_round(self, index: int, rec: Round) -> None:
        for op, argv in self.argv.items():
            code = run_cli(rec, op, argv)
            if code is not None and code != 0:
                rec.fail(op, f"exit {code}")

    def outputs(self) -> dict[str, Path]:
        return {**{op: self.path(op) for op in self.runs}, "render": self.workdir / "stit_large.svg"}

    def check_round(self, index: int, rec: Round, full: bool) -> None:
        digests = {op: _digest(p) for op, p in self.outputs().items() if p.exists()}
        if self.digests is not None:
            for op, digest in self.digests.items():
                if digests.get(op) != digest:
                    rec.fail(op, "output differs from the first round's for the same seed")
        if not full:
            return
        self.digests = digests
        for op, (_, _, flag, count, _) in self.runs.items():
            self._check_trace(rec, op, flag, count)
        svg = (self.workdir / "stit_large.svg").read_text(encoding="utf-8")
        if svg.count("<line ") != self.LARGE_JUMPS:
            rec.fail("render", f"{svg.count('<line ')} chords for {self.LARGE_JUMPS} jumps")

    def _check_trace(self, rec: Round, op: str, flag: str, count: int) -> None:
        path = self.path(op)
        try:
            trace = trace_io.read_trace(path)
        except errors.StitlabError as exc:
            rec.fail(op, f"trace unreadable: {exc}")
            return
        if len(trace.events) != count:
            rec.fail(op, f"{len(trace.events)} events, asked for {count}")
        if flag == "--jumps" and trace.jump_count != count:
            rec.fail(op, f"{trace.jump_count} jumps, asked for {count}")
        written = path.read_text(encoding="utf-8").splitlines()
        if trace_io.trace_to_lines(trace) != written:
            rec.fail(op, "trace does not read back equal to what was written")
        try:
            processes.final_state(trace).validate(trace.window)
        except errors.GeometryError as exc:
            rec.fail(op, f"final state invalid: {exc}")
        if op in self.L_SEQUENCE_CHECKED:
            try:
                values = processes.l_sequence(trace).values
            except errors.LCollision:
                rec.refusals += 1  # an explicit refusal, documented by LSequence
                return
            if len(values) != trace.jump_count + 1 or any(
                b <= a for a, b in zip(values, values[1:])
            ):
                rec.fail(op, "l_sequence is not strictly increasing over every jump")


# ---------------------------------------------------------------------------
# ensemble: the equivalence harness on many tiny replicas


class Ensemble:
    """``run_equivalence_suite`` on the unit square with ``iso:1``, then one
    ``poisson-clock`` negative control, which must fail.

    Thousands of short replicas of a few cells each: the per-call cost of
    ``split``, the line sampler and polygon construction, plus the stats
    binning, dominate; the cell-selection scan is negligible.  Each round
    runs the suite at its own seed, as a fresh process would, so its cold
    pmf-prefix cache is paid every round.  The selection check's cost grows
    with the decisions its seeded two-jump start took, which is heavy-tailed
    across seeds; a run's median round stays typical, and a modest event
    count keeps a rare heavy round short.
    """

    REPLICAS = 1000
    COWAN_REPLICAS = 10_000
    SELECTION_EVENTS = 500
    # Each of the roughly thirty sub-tests of a normal run trips with
    # probability about 1e-3 at a fresh seed.  A check counts as failed only
    # when it also fails at both confirmation seeds, which keeps the false
    # alarm rate of the gate near 1e-6 while a real defect still fails all.
    CONFIRMATIONS = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.configs = None
        self.reports = None

    def make_config(self, suite_seed: int, mutation: str | None = None):
        from stitlab import stats

        window = geometry.ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        return stats.EquivalenceConfig(
            window=window,
            measure=line_measure.IsotropicMeasure(1.0),
            time_grid=(0.2, 0.5, 1.0),
            replicas=self.REPLICAS,
            conditional_replicas=self.REPLICAS,
            cowan_replicas=self.COWAN_REPLICAS,
            selection_events=self.SELECTION_EVENTS,
            seed=suite_seed,
            mutation=mutation,
        )

    def build(self, index: int) -> None:
        suite_seed, *confirm = _seeds(self.seed, 2, index, count=1 + self.CONFIRMATIONS)
        self.configs = (
            self.make_config(suite_seed),
            self.make_config(suite_seed, "poisson-clock"),
            [self.make_config(s) for s in confirm],
        )

    def _suite(self, rec: Round, op: str, config):
        from stitlab import stats

        rec.attempted += 1
        t0 = time.perf_counter()
        try:
            with rec.span(op):
                return stats.run_equivalence_suite(config)
        except Exception as exc:
            rec.fail(op, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            rec.op_s[op].append(time.perf_counter() - t0)

    def run_round(self, index: int, rec: Round) -> None:
        normal, control, _ = self.configs
        self.reports = (
            self._suite(rec, "suite", normal),
            self._suite(rec, "negative_control", control),
        )

    def check_round(self, index: int, rec: Round, full: bool) -> None:
        normal, control = self.reports
        if control is not None and all(r.passed for r in control):
            rec.fail("negative_control", "poisson-clock passed every check")
        if normal is None:
            return
        failed = {r.check_name for r in normal if not r.passed}
        for config in self.configs[2]:
            if not failed:
                return
            again = self._suite(rec, "confirmation", config)
            if again is None:
                return
            failed &= {r.check_name for r in again if not r.passed}
        for name in sorted(failed):
            rec.fail("suite", f"check {name} failed at the suite seed and both confirmations")


# ---------------------------------------------------------------------------
# laws: a sweep of the closed forms that never touches geometry


def make_sequence(rng: np.random.Generator, length: int) -> list[float]:
    """Normalized weight sequence: starts at 1, gaps in [0.3, 0.9], so values[k-1] <= k."""
    values = [1.0]
    for _ in range(1, length):
        values.append(values[-1] + float(rng.uniform(0.3, 0.9)))
    return values


class Laws:
    """Closed-form laws: the identity suite, a ``mecke_jump_tail`` sweep over
    fresh sequences, vector jump-time CDF/PDF, the discrete jump pmf,
    ``stitlab table`` calls, and inputs past today's precision caps.

    Each round draws fresh sequences, so the first tail query of a sequence
    misses the pmf-prefix cache, as it does in a fresh process, and the
    repeats hit it.  The cost of a far-horizon query depends on the values,
    so fresh draws also let a run's median round average over them.
    """

    SEQUENCES = 8
    HORIZONS = (0.5, 1.0, 2.0, 4.0, 8.0)  # rate * t
    FAR_HORIZON = 12.0  # asked for the first and last jump only: a cold query costs 0.02-0.35 s
    RATE = 1.0
    T_GRID = np.linspace(0.0, 8.0, 41)
    PMF_DECISIONS = 4000
    STIT_PAST_CAP = 17  # above the STIT cap of 15 jump times
    DISCRETE_PAST_CAP = 14  # above the discrete cap of 12 jumps
    TAIL_POLICY_TERMS = 10**7
    CDF_TOL = 2e-8  # the package's stated absolute error policy
    PDF_TOL = 1e-6
    PMF_TOL = 1e-9
    TAIL_TOL = 1e-6

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.inputs = None
        self.results: dict = {}

    def build(self, index: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(3, index)))
        lengths = [3 + s % 6 for s in range(self.SEQUENCES)] + [self.STIT_PAST_CAP]
        seqs = [processes.LSequence(tuple(make_sequence(rng, n)), self.RATE) for n in lengths]
        wait_n = int(rng.integers(3, 9))
        self.inputs = {
            "sequences": seqs[:-1],
            "long": seqs[-1],
            "policy": dist.TruncationPolicy(tail_bound=1e-10, max_terms=self.TAIL_POLICY_TERMS),
            "waiting": (wait_n, float(rng.uniform(1.2, min(2.9, wait_n - 0.1)))),
        }

    def _queries(self, s: int, length: int) -> list[tuple[int, float, str]]:
        """(ell, rate*t, kind) in call order for sequence number s: each jump
        index is asked cold at one horizon, again there, then at the others."""
        out = []
        for ell in range(2, length + 1):
            horizons = list(self.HORIZONS)
            if ell in (2, length):
                horizons.append(self.FAR_HORIZON)
            first = horizons[-1 - (s + ell) % len(horizons)]
            out.append((ell, first, "cold"))
            out.append((ell, first, "warm"))
            out.extend((ell, h, "other") for h in horizons if h != first)
        return out

    def _api(self, rec: Round, op: str, fn, *args, past_cap: bool = False, **kwargs):
        """Time one call; returns (value or None, the call's name in failure reports)."""
        rec.attempted += 1
        key = f"{op}#{rec.attempted}"
        t0 = time.perf_counter()
        try:
            with rec.span(op):
                value = fn(*args, **kwargs)
        except REFUSALS as exc:
            if past_cap:
                rec.refusals += 1
            else:
                rec.fail(key, f"refused inside the caps: {type(exc).__name__}: {exc}")
            value = None
        except Exception as exc:
            rec.fail(key, f"{type(exc).__name__}: {exc}")
            value = None
        rec.op_s[op].append(time.perf_counter() - t0)
        return value, key

    def run_round(self, index: int, rec: Round) -> None:
        from stitlab import stats

        inp = self.inputs
        res = self.results = {"tail": [], "cdf": [], "pdf": [], "pmf": [], "tables": {}}
        # The suite's pinned tolerances hold at its default seed; at some other
        # seeds the telescoping residual exceeds them (see BASELINE.md).
        res["identity"] = self._api(rec, "identity_suite", stats.run_identity_suite)
        for s, lseq in enumerate(inp["sequences"]):
            for ell, h, kind in self._queries(s, len(lseq)):
                t = h / self.RATE
                t0 = time.perf_counter()
                got = self._api(rec, "tail", dist.mecke_jump_tail, lseq, ell, t, inp["policy"])
                rec.tail.append((kind, h, time.perf_counter() - t0))
                res["tail"].append((lseq, ell, t, got))
        for lseq in inp["sequences"]:
            n = len(lseq)
            for key, fn, arg in (
                ("cdf", dist.stit_jump_cdf, self.T_GRID),
                ("pdf", dist.stit_jump_pdf, self.T_GRID),
                ("pmf", dist.discrete_jump_pmf_sequence, self.PMF_DECISIONS),
            ):
                res[key].append((lseq, n, self._api(rec, key, fn, lseq, n, arg)))
        self._tables(rec, res["tables"])
        self._past_caps(rec, res)

    def _tables(self, rec: Round, out: dict) -> None:
        lseq = self.inputs["sequences"][-1]
        n = len(lseq)
        values = ",".join(repr(v) for v in lseq.values)
        wait_n, wait_l = self.inputs["waiting"]
        long_values = ",".join(repr(v) for v in self.inputs["long"].values)
        calls = {
            "stit-cdf": ["--L", values, "--t", "0:6:0.2"],
            "stit-pdf": ["--L", values, "--t", "0:6:0.2"],
            "waiting-pmf": ["--n", str(wait_n), "--Lk", repr(wait_l), "--l", "1:200"],
            "jump-pmf": ["--L", values, "--ell", str(n), "--n-grid", f"{n}:{n + 150}"],
            "cowan-pmf": ["--rate", "1.5", "--t", "1.2", "--k", "0:60"],
            "cowan-cdf": ["--rate", "1.5", "--n", "5", "--t", "0:6:0.1"],
            "mecke-tail": ["--L", values, "--ell", str(n), "--t", "0.5,1,2,4"],
            "stit-cdf-past-cap": ["--L", long_values, "--t", "0:6:0.5"],
        }
        for name, extra in calls.items():
            path = self.workdir / f"table-{name}.csv"
            argv = ["table", name.removesuffix("-past-cap"), *extra, "--out", str(path)]
            code = run_cli(rec, "table", argv)
            if code == 0:
                out[name] = path
            elif code == CLI_RUNTIME_EXIT and name.endswith("past-cap"):
                rec.refusals += 1
            elif code is not None:
                rec.fail(f"table {name}", f"exit {code}")

    def _past_caps(self, rec: Round, res: dict) -> None:
        long = self.inputs["long"]
        short = processes.LSequence(long.values[: self.DISCRETE_PAST_CAP], self.RATE)
        n, ell = len(long), len(short)
        for key, fn, lseq, arg in (
            ("cdf", dist.stit_jump_cdf, long, self.T_GRID),
            ("pdf", dist.stit_jump_pdf, long, self.T_GRID),
            ("pmf", dist.discrete_jump_pmf_sequence, short, self.PMF_DECISIONS),
        ):
            res[key].append((lseq, len(lseq), self._api(rec, key, fn, lseq, len(lseq), arg,
                                                         past_cap=True)))
        t = 4.0 / self.RATE
        res["past_tail"] = (short, ell, t, self._api(
            rec, "tail", dist.mecke_jump_tail, short, ell, t, self.inputs["policy"],
            past_cap=True))

    # -- correctness ---------------------------------------------------------

    def check_round(self, index: int, rec: Round, full: bool) -> None:
        import reference as ref

        res = self.results
        identity, key = res["identity"]
        for r in identity or ():
            if not r.passed:
                rec.fail(key, f"{r.check_name}: {r.statistic:.3g} > {r.tolerance}")
        # tail vs the STIT jump-time CDF: the package's own inside the caps,
        # the reference past them
        for lseq, ell, t, (value, key) in res["tail"]:
            if value is not None and abs(value - float(dist.stit_jump_cdf(lseq, ell, t))) > self.TAIL_TOL:
                rec.fail(key, f"tail {value!r} differs from the jump-time CDF at ell={ell}, t={t}")
        lseq, ell, t, (value, key) = res["past_tail"]
        if value is not None:
            self._compare(rec, key, [value], ref.jump_cdf(lseq.values, lseq.rate, ell, [t]),
                          self.TAIL_TOL)
        for lseq, n, (got, key) in res["cdf"]:
            if got is not None:
                self._compare(rec, key, got, ref.jump_cdf(lseq.values, lseq.rate, n, self.T_GRID),
                              self.CDF_TOL)
        for lseq, n, (got, key) in res["pdf"]:
            if got is not None:
                self._compare(rec, key, got, ref.jump_pdf(lseq.values, lseq.rate, n, self.T_GRID),
                              self.PDF_TOL)
        for lseq, ell, (got, key) in res["pmf"]:
            if got is not None:
                self._compare(rec, key, got, ref.discrete_jump_pmf(lseq.values, ell, self.PMF_DECISIONS),
                              self.PMF_TOL)
        self._check_tables(rec, res["tables"])

    def _compare(self, rec: Round, what: str, got, expect, tol: float) -> None:
        got = np.asarray(got, dtype=float)
        if got.shape != expect.shape:
            rec.fail(what, f"shape {got.shape} vs {expect.shape}")
            return
        err = float(np.max(np.abs(got - expect))) if got.size else 0.0
        if not err <= tol:
            rec.fail(what, f"max error {err:.3g} above {tol:.3g}")

    def _check_tables(self, rec: Round, tables: dict) -> None:
        import reference as ref

        lseq = self.inputs["sequences"][-1]
        long = self.inputs["long"]
        n = len(lseq)
        wait_n, wait_l = self.inputs["waiting"]
        expected = {
            "stit-cdf": lambda x: ref.jump_cdf(lseq.values, lseq.rate, n, x),
            "stit-pdf": lambda x: ref.jump_pdf(lseq.values, lseq.rate, n, x),
            "waiting-pmf": lambda x: ref.waiting_pmf(wait_n, wait_l, x.astype(int)),
            "jump-pmf": lambda x: ref.discrete_jump_pmf(lseq.values, n, n + 150),
            "cowan-pmf": lambda x: ref.geometric_pmf(1.5, 1.2, x.astype(int)),
            "cowan-cdf": lambda x: ref.clock_sum_cdf(1.5, 5, x),
            "mecke-tail": lambda x: ref.jump_cdf(lseq.values, lseq.rate, n, x),
            "stit-cdf-past-cap": lambda x: ref.jump_cdf(long.values, long.rate, len(long), x),
        }
        tol = {"stit-pdf": self.PDF_TOL, "mecke-tail": self.TAIL_TOL, "waiting-pmf": 1e-12}
        for name, path in tables.items():
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            self._compare(
                rec, f"table {name}", rows[:, 1], expected[name](rows[:, 0]),
                tol.get(name, self.CDF_TOL),
            )


WORKLOADS = {"grow": Grow, "ensemble": Ensemble, "laws": Laws}
