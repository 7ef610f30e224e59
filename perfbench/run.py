"""stitlab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload grow|ensemble|laws --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stitlab is imported from ``src/``.
The workload's inputs come from ``--seed``.  Rounds of the workload's fixed
calls repeat until their measured time reaches ``--seconds`` (at least
MIN_ROUNDS), after one untimed warm-up round; every round's outputs are
checked.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import ``stitlab.cli`` and build the inputs),
``wall_s`` (median wall time of one round) and ``peak_rss_mb``.  The
machine's speed drifts by a quarter and more over tens of seconds when other
load shares it, so the set-up runs are interleaved with the rounds rather
than taken in one burst.
``--trace 1`` repeats the untraced rounds, then traces one more round with
spans around the calls into each stitlab module, then runs one more untraced
round, and reports the per-layer metrics, including the tracing overhead.

Human-readable metric lines and the environment come first on stdout; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the checkout holds no stitlab
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["grow", "ensemble", "laws"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and set-up


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "stitlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "processes": 1,
    }


def child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )


class Setup:
    """Wall time of fresh interpreters that import stitlab.cli and build the inputs.

    Made after the benchmark process has imported the same modules, which
    writes the bytecode caches a user's second call would find.
    """

    def __init__(self, args, workdir: Path) -> None:
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"),
                    args.workload, str(args.seed), str(workdir)]
        self.times: list[float] = []

    def measure(self) -> None:
        t0 = time.perf_counter()
        child(self.cmd)
        self.times.append(time.perf_counter() - t0)


def measure_import() -> tuple[float, float]:
    """(stitlab.cli import, scipy.stats share) in seconds, from ``-X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import stitlab.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    totals, scipy_stats = [], []
    for _ in range(IMPORTTIME_REPEATS):
        err = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        ).stderr
        total = scipy_us = 0
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", line)
            if not m:
                continue
            cumulative, indent, name = int(m.group(1)), len(m.group(2)), m.group(3)
            if indent == 0 and name.split(".")[0] == "stitlab":
                total += cumulative
            if name == "scipy.stats":
                scipy_us = cumulative
        totals.append(total * 1e-6)
        scipy_stats.append(scipy_us * 1e-6)
    return statistics.median(totals), statistics.median(scipy_stats)


# ---------------------------------------------------------------------------
# rounds


def timed_round(wl, index: int):
    """One untraced round, timed, then checked."""
    from workloads import Round

    wl.build(index)
    rec = Round()
    t0 = time.perf_counter()
    wl.run_round(index, rec)
    rec.wall_s = time.perf_counter() - t0
    wl.check_round(index, rec, full=False)
    return rec


def run_rounds(wl, seconds: float, first_index: int, rounds: list, setup: Setup | None) -> None:
    """Timed rounds until `seconds` of them and MIN_ROUNDS; a set-up run precedes each
    round until SETUP_REPEATS are taken."""
    spent = 0.0
    index = first_index
    while (spent < seconds or index - first_index < MIN_ROUNDS
           or (setup and len(setup.times) < SETUP_REPEATS)):
        if setup and len(setup.times) < SETUP_REPEATS:
            setup.measure()
        rec = timed_round(wl, index)
        spent += rec.wall_s
        rounds.append(rec)
        index += 1


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def untraced_metrics(name: str, rounds: list, wl) -> dict[str, tuple[float, str]]:
    """Workload-level figures of the untraced rounds (tracing off)."""
    out = {"wall_s": (median([r.wall_s for r in rounds]), "s")}
    ops = lambda op: [t for r in rounds for t in r.op_s.get(op, [])]  # noqa: E731
    if name == "grow":
        out["stit_us_per_jump"] = (median(ops("stit_large")) / wl.LARGE_JUMPS * 1e6, "us")
        out["mecke_us_per_decision"] = (median(ops("mecke")) / wl.MECKE_DECISIONS * 1e6, "us")
        out["render_s"] = (median(ops("render")), "s")
    if name == "laws":
        tail = [t for r in rounds for _, _, t in r.tail]
        out["tail_ms_p50"] = (percentile(tail, 50) * 1e3, "ms")
        out["tail_ms_p99"] = (percentile(tail, 99) * 1e3, "ms")
        out["tail.samples"] = (float(len(tail)), "count")
        for kind in ("cold", "warm"):
            sample = [t for r in rounds for k, _, t in r.tail if k == kind]
            out[f"distributions.mecke_jump_tail.{kind}_ms_p50"] = (median(sample) * 1e3, "ms")
    return out


# ---------------------------------------------------------------------------
# traced round


def traced_round(wl, index: int, workdir: Path):
    from tracer import Tracer
    from workloads import Round

    wl.build(index)
    rec = Round()
    with Tracer() as tracer:
        rec.tracer = tracer
        with tracer.span("bench.round"):
            wl.run_round(index, rec)
        with tracer.span("bench.check"):
            wl.check_round(index, rec, full=True)
    table = tracer.table()
    table.write(workdir / "spans.jsonl")
    return rec, table


def layer_metrics(name: str, wl, table, untraced: dict, neighbours_s: float):
    import numpy as np

    in_round = table.below(lambda n: n == "bench.round")
    names = np.array(table.names, dtype=object)

    def pick(span_name, mask=in_round):
        return np.flatnonzero((names == span_name) & mask)

    def total(span_name, mask=in_round):
        return float(table.dur[pick(span_name, mask)].sum())

    def self_total(span_name):
        return float(table.self_time[pick(span_name)].sum())

    def p50_us(span_name):
        idx = pick(span_name)
        return float(np.median(table.dur[idx])) * 1e6 if idx.size else 0.0

    def under(op):
        return table.below(lambda n: n == f"bench.{op}")

    everywhere = np.ones(len(table), dtype=bool)
    parent_names = np.array(
        [table.names[p] if p >= 0 else "" for p in table.parent], dtype=object
    )
    m: dict[str, tuple[float, str]] = {}

    # processes
    m["processes.stit_simulate.self_s"] = (self_total("processes.stit_simulate"), "s")
    growth = 0.0
    small = pick("processes.stit_simulate", under("stit_small"))
    large = pick("processes.stit_simulate", under("stit_large"))
    if small.size and large.size:
        growth = (table.dur[large].sum() / wl.LARGE_JUMPS) / (table.dur[small].sum() / wl.SMALL_JUMPS)
    m["processes.stit.cost_growth"] = (float(growth), "ratio")
    steps = pick("processes.mecke_discrete_step")
    m["processes.mecke_discrete_step.calls"] = (float(steps.size), "count")
    m["processes.mecke_discrete_step.us_p50"] = (p50_us("processes.mecke_discrete_step"), "us")
    growth = 0.0
    run_steps = pick("processes.mecke_discrete_step", under("mecke"))
    if run_steps.size >= 2000:
        d = table.dur[run_steps]
        growth = float(np.median(d[-1000:]) / np.median(d[:1000]))
    m["processes.mecke.cost_growth"] = (growth, "ratio")
    ratio = 0.0
    if name == "grow":
        events = wl.path("mecke").read_text(encoding="utf-8").splitlines()[1:]
        ratio = sum('"jump": true' in e for e in events) / len(events)
    m["processes.jump_ratio"] = (float(ratio), "ratio")
    m["processes.cowan_el_simulate.self_s"] = (self_total("processes.cowan_el_simulate"), "s")
    # replay and l_sequence also run in the correctness checks, which call them
    m["processes.replay.s"] = (total("processes.replay", everywhere), "s")
    m["processes.l_sequence.s"] = (total("processes.l_sequence", everywhere), "s")

    # geometry and line_measure
    splits = pick("geometry.split")
    m["geometry.split.calls"] = (float(splits.size), "count")
    m["geometry.split.self_s"] = (self_total("geometry.split"), "s")
    m["geometry.split.us_p50"] = (p50_us("geometry.split"), "us")
    m["geometry.degenerate_split.count"] = (
        float(sum(table.errors[i] == "DegenerateSplit" for i in splits)), "count")
    samples = pick("line_measure.sample_hitting_line")
    m["line_measure.sample_hitting_line.calls"] = (float(samples.size), "count")
    m["line_measure.sample_hitting_line.us_p50"] = (p50_us("line_measure.sample_hitting_line"), "us")
    proposals = np.flatnonzero(
        (names == "geometry.width") & (parent_names == "line_measure.sample_hitting_line") & in_round
    )
    m["line_measure.accept_ratio"] = (
        samples.size / proposals.size if proposals.size else 0.0, "ratio")
    m["line_measure.hitting_measure.calls"] = (float(pick("line_measure.hitting_measure").size), "count")
    m["line_measure.hitting_measure.self_s"] = (self_total("line_measure.hitting_measure"), "s")

    # stats
    for check in ("conditional", "unconditional", "cowan", "identity", "selection"):
        m[f"stats.check.{check}_s"] = (total(f"stats.check_{check}"), "s")
    pairs = []
    for idx in pick("stats.check_unconditional", under("suite")):
        kids = np.flatnonzero(table.parent == idx)
        kid_names = [table.names[k] for k in kids]
        for a, b, na, nb in zip(kids, kids[1:], kid_names, kid_names[1:]):
            if na == "processes.stit_simulate" and nb == "processes.mecke_continuous_simulate":
                pairs.append(table.dur[a] + table.dur[b])
    m["stats.replica_ms_p50"] = (percentile(pairs, 50) * 1e3, "ms")
    m["stats.replica_ms_p99"] = (percentile(pairs, 99) * 1e3, "ms")
    m["stats.identity_suite_s"] = (total("stats.run_identity_suite"), "s")

    # distributions
    for key in ("distributions.mecke_jump_tail.cold_ms_p50", "distributions.mecke_jump_tail.warm_ms_p50"):
        m[key] = untraced.get(key, (0.0, "ms"))
    m["distributions.stit_jump_cdf.us_p50"] = (p50_us("distributions.stit_jump_cdf"), "us")
    m["distributions.discrete_jump_pmf_sequence.s"] = (
        total("distributions.discrete_jump_pmf_sequence"), "s")
    refused = [
        i for i in np.flatnonzero(in_round)
        if table.names[i].startswith("distributions.")
        and table.errors[i] in ("IllConditioned", "TruncationFailure")
        and not parent_names[i].startswith("distributions.")
    ]
    m["distributions.refusals"] = (float(len(refused)), "count")

    # trace_io and render
    m["trace_io.write_trace.s"] = (total("trace_io.write_trace"), "s")
    m["trace_io.read_trace.s"] = (total("trace_io.read_trace"), "s")
    per_event = 0.0
    if name == "grow":
        files = [wl.path(op) for op in wl.runs]
        events = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1 for p in files)
        per_event = sum(p.stat().st_size for p in files) / events
    m["trace_io.bytes_per_event"] = (float(per_event), "B")
    m["render.render_svg.s"] = (total("render.render_svg"), "s")
    m["render.split_calls"] = (
        float(pick("geometry.split", in_round & table.below(lambda n: n == "render.render_svg")).size),
        "count")

    # cli
    m["cli.import_s"], m["cli.import_scipy_s"] = [(v, "s") for v in measure_import()]
    for command in ("simulate", "render", "table"):
        m[f"cli.main.{command}_s"] = (total(f"cli.main.{command}"), "s")

    # workload-level figures with tracing off, and the tracing overhead
    for key, unit in (("stit_us_per_jump", "us"), ("mecke_us_per_decision", "us"),
                      ("render_s", "s"), ("tail_ms_p50", "ms"), ("tail_ms_p99", "ms"),
                      ("tail.samples", "count")):
        m[key] = untraced.get(key, (0.0, unit))
    traced_wall = total("bench.round", everywhere)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - neighbours_s, "s")
    m["trace.spans"] = (float(len(table)), "count")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stitlab" / "cli.py").is_file():
        print(f"error: no stitlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    sys.path[:0] = [str(SRC), str(HERE)]
    import stitlab.cli

    if Path(stitlab.cli.__file__).resolve().parent != SRC / "stitlab":
        print(f"error: imported stitlab from {stitlab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    setup = None if args.trace else Setup(args, workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    rounds: list = []
    warm = workloads.Round()
    wl.build(0)
    wl.run_round(0, warm)
    wl.check_round(0, warm, full=True)
    run_rounds(wl, args.seconds, 1, rounds, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = untraced_metrics(args.workload, rounds, wl)
    all_rounds = [warm, *rounds]

    if args.trace:
        rec, table = traced_round(wl, len(all_rounds), workdir)
        after = timed_round(wl, len(all_rounds) + 1)
        all_rounds += [rec, after]
        # The machine's speed drifts within a run, so the traced round is
        # compared with the untraced rounds just before and after it.
        neighbours_s = (rounds[-1].wall_s + after.wall_s) / 2
        metrics = layer_metrics(args.workload, wl, table, untraced, neighbours_s)
    else:
        metrics = {
            "setup_s": (median(setup.times), "s"),
            "wall_s": untraced["wall_s"],
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(len(r.failures) for r in all_rounds)
    refusals = sum(r.refusals for r in all_rounds)
    if args.trace:
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    shown = dict(untraced, **metrics)
    shown["fail_ratio"] = (failed / attempted, "ratio")
    shown["refusal_ratio"] = (refusals / attempted, "ratio")
    for r in all_rounds:
        for op, messages in r.failures.items():
            print(f"FAIL {op}: {'; '.join(messages)}")
    print(f"rounds {[round(r.wall_s, 3) for r in rounds]} s; "
          f"setup runs {[round(t, 3) for t in setup.times] if setup else []} s")
    ops = sorted({op for r in rounds for op in r.op_s})
    print("median op s " + json.dumps(
        {op: round(median([t for r in rounds for t in r.op_s.get(op, [])]), 4) for op in ops}))
    for key, (value, unit) in shown.items():
        print(f"metric {key} = {value:.6g} {unit}")
    print("env " + json.dumps(environment(args)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
