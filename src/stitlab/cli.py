"""Command-line interface: simulate, render, verify, table.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
or configuration error, 3 runtime error.  Output is deterministic given the
flags and the seed (flag > config file > STITLAB_SEED > 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import distributions as dist
from .errors import ConfigError, DomainError, GeometryError, LCollision, StitlabError
from .geometry import ConvexPolygon
from .line_measure import (
    DirectionMixture,
    IsotropicMeasure,
    LineMeasureSpec,
    hitting_measure,
    measure_from_json,
)
from .processes import (
    LSequence,
    cowan_el_simulate,
    mecke_continuous_simulate,
    mecke_discrete_simulate,
    stit_simulate,
)
from .render import render_svg
from .stats import (
    EquivalenceConfig,
    format_pass_rates,
    format_report_table,
    run_equivalence_suite,
    run_identity_suite,
)
from .trace_io import polygon_from_json, read_trace, write_reports, write_trace

WINDOW_SHORTCUTS = {
    "unit-square": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
    "triangle": ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
}

MAX_GRID_POINTS = 100_000

_CONFIG_KEYS = {
    "model", "window", "measure", "seed", "replicas", "time_grid",
    "t", "jumps", "decisions", "out", "suite", "mutate",
}


def parse_window(spec: str) -> ConvexPolygon:
    if spec in WINDOW_SHORTCUTS:
        return ConvexPolygon(WINDOW_SHORTCUTS[spec])
    try:
        obj = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"window must be a shortcut name or JSON vertices: {exc}") from exc
    if isinstance(obj, dict):
        return polygon_from_json(obj)
    return ConvexPolygon(tuple((float(x), float(y)) for x, y in obj))


def parse_measure(spec: str) -> LineMeasureSpec:
    try:
        if spec.startswith("iso:"):
            measure = IsotropicMeasure(scale=float(spec[4:]))
        elif spec.startswith("dirs:"):
            atoms = []
            for part in spec[5:].split(","):
                th, w = part.split(":")
                atoms.append((float(th), float(w)))
            measure = DirectionMixture(tuple(atoms))
        else:
            measure = measure_from_json(json.loads(spec))
    except (ValueError, KeyError, TypeError, GeometryError) as exc:
        raise ConfigError(f"bad measure spec {spec!r}: {exc}") from exc
    if isinstance(measure, IsotropicMeasure):
        numbers = [measure.scale]
    else:
        numbers = [v for atom in measure.atoms for v in atom]
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"bad measure spec {spec!r}: numbers must be finite")
    return measure


def parse_float_grid(spec: str) -> list[float]:
    """Grids: 'a:b:step' (inclusive), 'v1,v2,...', or a single value; finite
    values only, at most MAX_GRID_POINTS of them."""
    parts = spec.split(":") if ":" in spec else spec.split(",")
    if ":" in spec and len(parts) != 3:
        raise ConfigError(f"float grid must be start:stop:step, got {spec!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad float grid {spec!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"float grid values must be finite, got {spec!r}")
    if ":" not in spec:
        return values
    start, stop, step = values
    if step <= 0:
        raise ConfigError("grid step must be positive")
    count = round((stop - start) / step) + 1
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(max(count, 1))]


def parse_int_grid(spec: str) -> list[int]:
    """Grids: 'a:b' (inclusive), 'v1,v2,...', or a single value; at most
    MAX_GRID_POINTS values."""
    try:
        if ":" not in spec:
            return [int(p) for p in spec.split(",")]
        lo_s, hi_s = spec.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ConfigError(f"bad integer grid {spec!r}: {exc}") from exc
    if hi < lo:
        raise ConfigError(f"empty integer grid {spec!r}")
    if hi - lo >= MAX_GRID_POINTS:
        raise ConfigError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return list(range(lo, hi + 1))


def resolve_seed(flag_value: int | None, config: dict) -> int:
    if flag_value is not None:
        value = flag_value
    elif "seed" in config:
        value = config["seed"]
    else:
        value = os.environ.get("STITLAB_SEED") or 0
    return _number("seed", value, int)


def parse_seed_range(spec: str) -> list[int]:
    """`--seeds A:B`: the seeds A..B inclusive, 0 <= A <= B."""
    if spec.count(":") != 1:
        raise ConfigError(f"--seeds must be A:B, got {spec!r}")
    seeds = parse_int_grid(spec)
    if seeds[0] < 0:
        raise ConfigError(f"--seeds must be nonnegative, got {spec!r}")
    return seeds


def checked_measure(window: ConvexPolygon, spec: str) -> LineMeasureSpec:
    """The measure of `spec`, refused when the window's hitting weight under
    it leaves the normal float range (every clock and weight sequence is
    built from that weight)."""
    measure = parse_measure(spec)
    weight = hitting_measure(measure, window)
    if not sys.float_info.min <= weight < math.inf:
        raise ConfigError(
            f"measure {spec!r} gives the window a hitting weight of {weight!r}, "
            "outside the normal float range"
        )
    return measure


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return obj


def _number(name: str, value, kind: type, minimum: int = 0) -> float | int | None:
    """A `--name` value (flag or config) as `kind`; it must be finite and >= minimum."""
    if value is None:
        return None
    try:
        number = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--{name} must be a number: {exc}") from exc
    if not minimum <= number < math.inf:
        raise ConfigError(f"--{name} must be finite and >= {minimum}, got {value!r}")
    return number


def _time_grid(flag: str | None, cfg: dict) -> tuple[float, ...]:
    """The equivalence time grid (--t-grid or config `time_grid`): finite times > 0."""
    grid = parse_float_grid(flag) if flag is not None else cfg.get("time_grid", [0.2, 0.5, 1.0])
    try:
        times = tuple(float(t) for t in grid)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--t-grid must be a list of times: {exc}") from exc
    if not times or not all(0.0 < t < math.inf for t in times):
        raise ConfigError(f"--t-grid times must be finite and > 0, got {grid!r}")
    return times


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated simulate-command inputs."""

    model: str
    window: ConvexPolygon
    measure: LineMeasureSpec
    seed: int
    t: float | None
    jumps: int | None
    decisions: int | None
    out: str

    @staticmethod
    def from_args(args: argparse.Namespace) -> "ExperimentConfig":
        cfg = load_config_file(args.config)
        model = args.model or cfg.get("model")
        if model is None:
            raise ConfigError("a model is required (--model or config)")
        window = parse_window(args.window or cfg.get("window", "unit-square"))
        measure = checked_measure(window, args.measure or cfg.get("measure", "iso:1"))
        t = args.t if args.t is not None else cfg.get("t")
        jumps = args.jumps if args.jumps is not None else cfg.get("jumps")
        decisions = args.decisions if args.decisions is not None else cfg.get("decisions")
        out = args.out or cfg.get("out")
        if out is None:
            raise ConfigError("an output path is required (--out or config)")
        return ExperimentConfig(
            model=model,
            window=window,
            measure=measure,
            seed=resolve_seed(args.seed, cfg),
            t=_number("t", t, float),
            jumps=_number("jumps", jumps, int),
            decisions=_number("decisions", decisions, int),
            out=str(out),
        )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_args(args)
    model = config.model
    if model in ("stit", "cowan-el") and config.t is None and config.jumps is None:
        raise ConfigError(f"{model} needs --t or --jumps")
    if model == "mecke-discrete" and config.decisions is None and config.jumps is None:
        raise ConfigError("mecke-discrete needs --decisions or --jumps")
    rng = np.random.default_rng(config.seed)
    try:  # the expected-work guard, and a clock the measure makes non-finite
        if model == "stit":
            trace = stit_simulate(
                config.window, config.measure, rng,
                max_time=config.t, max_jumps=config.jumps, seed=config.seed,
            )
        elif model == "mecke-discrete":
            trace = mecke_discrete_simulate(
                config.window, config.measure, rng,
                max_decisions=config.decisions, max_jumps=config.jumps, seed=config.seed,
            )
        elif model == "mecke-continuous":
            if config.t is None:
                raise ConfigError("mecke-continuous needs --t")
            _, trace = mecke_continuous_simulate(
                config.window, config.measure, config.t, rng, seed=config.seed
            )
        elif model == "cowan-el":
            trace = cowan_el_simulate(
                config.window, config.measure, rng,
                max_time=config.t, max_jumps=config.jumps, seed=config.seed,
            )
        else:
            raise ConfigError(f"unknown model {model!r}")
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    write_trace(trace, config.out)
    print(f"wrote {len(trace.events)} events ({trace.jump_count} jumps) to {config.out}")
    if trace.jump_count == 0 and config.t is not None and config.jumps != 0:
        # every model's first event is a jump of the whole window, at rate W(window)
        chance = -math.expm1(-config.t * hitting_measure(config.measure, config.window))
        print(
            f"warning: no jump by t={config.t!r}; the chance of a first jump by then "
            f"is {chance:.3g}",
            file=sys.stderr,
        )
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    svg = render_svg(trace, at=args.at)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config)
    if args.seeds is not None:
        if args.seed is not None:
            raise ConfigError("use --seed or --seeds, not both")
        seeds = parse_seed_range(args.seeds)
    else:
        seeds = [resolve_seed(args.seed, cfg)]
    note = ""
    if args.suite == "identities":
        suite = lambda seed: run_identity_suite(seed=seed)
    elif args.suite == "equivalence":
        window = parse_window(args.window or cfg.get("window", "unit-square"))
        measure = checked_measure(window, args.measure or cfg.get("measure", "iso:1"))
        grid = _time_grid(args.t_grid, cfg)
        replicas = _number(
            "replicas", args.replicas if args.replicas is not None else cfg.get("replicas", 20_000),
            int, minimum=1,
        )
        mutation = args.mutate or cfg.get("mutate")
        config = EquivalenceConfig(
            window=window,
            measure=measure,
            time_grid=grid,
            replicas=replicas,
            conditional_replicas=replicas,
            cowan_replicas=max(replicas, 10_000),
            selection_events=max(replicas, 10_000),
            seed=seeds[0],
            mutation=mutation,
        )
        suite = lambda seed: run_equivalence_suite(dataclasses.replace(config, seed=seed))
        # see run_equivalence_suite
        note = "  (nominal false-alarm rate per fresh seed: about 2-3 %)"
    else:
        raise ConfigError(f"unknown suite {args.suite!r}")
    if args.seeds is None:
        runs = [suite(seeds[0])]
        print(format_report_table(runs[0]))
    else:
        runs = []
        for seed in seeds:
            runs.append(suite(seed))
            failed = [r.check_name for r in runs[-1] if not r.passed]
            print(f"seed {seed}: " + (f"FAIL ({', '.join(failed)})" if failed else "PASS"), flush=True)
        print(format_pass_rates(runs, note))
    reports = [r for run in runs for r in run]
    if args.out:
        write_reports(reports, args.out)
        print(f"wrote {args.out}")
    return 0 if all(r.passed for r in reports) else 1


def _weight_sequence(args: argparse.Namespace) -> LSequence:
    """The --L sequence at --rate; a malformed or invalid one is a usage error."""
    try:
        return LSequence(tuple(float(v) for v in args.L.split(",")), rate=args.rate)
    except (ValueError, DomainError, LCollision) as exc:
        raise ConfigError(f"bad --L {args.L!r}: {exc}") from exc


def _table_rows(args: argparse.Namespace) -> tuple[list[str], list[list[float]]]:
    name = args.distribution
    if not 0.0 < args.rate < math.inf:
        raise ConfigError(f"--rate must be finite and > 0, got {args.rate!r}")
    if name in ("stit-cdf", "stit-pdf"):
        if not args.L:
            raise ConfigError(f"{name} needs --L")
        lseq = _weight_sequence(args)
        fn = dist.stit_jump_cdf if name == "stit-cdf" else dist.stit_jump_pdf
        col = "cdf" if name == "stit-cdf" else "pdf"
        grid = parse_float_grid(args.t or "0:1:0.1")
        return ["t", col], [[t, float(fn(lseq, len(lseq), t))] for t in grid]
    if name == "waiting-pmf":
        if args.n is None or args.Lk is None:
            raise ConfigError("waiting-pmf needs --n and --Lk")
        l_k = _number("Lk", args.Lk, float)
        if args.k is not None:
            k = _number("k", args.k, int)
        else:
            k = 1 if args.n == 1 else max(2, math.ceil(l_k))
        grid = parse_int_grid(args.l or "1:10")
        pmf = dist.discrete_waiting_pmf(args.n, k, l_k, grid)
        return ["wait", "pmf"], [[w, p] for w, p in zip(grid, pmf)]
    if name == "jump-pmf":
        if not args.L or args.ell is None:
            raise ConfigError("jump-pmf needs --L and --ell")
        lseq = _weight_sequence(args)
        grid = parse_int_grid(args.n_grid or f"{args.ell}:{args.ell + 10}")
        pmf = dist.discrete_jump_pmf(lseq, args.ell, grid)
        return ["n", "pmf"], [[n, p] for n, p in zip(grid, pmf)]
    if name == "cowan-pmf":
        if args.t is None:
            raise ConfigError("cowan-pmf needs --t")
        t = _number("t", args.t, float)
        grid = parse_int_grid(args.k or "0:10")
        return ["k", "pmf"], [[k, dist.nu_pmf(args.rate, t, k)] for k in grid]
    if name == "cowan-cdf":
        if args.n is None:
            raise ConfigError("cowan-cdf needs --n")
        grid = parse_float_grid(args.t or "0:1:0.1")
        return ["t", "cdf"], [[t, dist.cowan_sum_cdf(args.rate, args.n, t)] for t in grid]
    if name == "mecke-tail":
        if not args.L or args.ell is None:
            raise ConfigError("mecke-tail needs --L and --ell")
        lseq = _weight_sequence(args)
        grid = parse_float_grid(args.t or "0:1:0.1")
        return ["t", "tail"], [[t, dist.mecke_jump_tail(lseq, args.ell, t)] for t in grid]
    raise ConfigError(f"unknown distribution {name!r}")


def cmd_table(args: argparse.Namespace) -> int:
    try:
        header, rows = _table_rows(args)
    except DomainError as exc:  # arguments outside an evaluator's domain come from the flags
        raise ConfigError(str(exc)) from exc
    lines = [",".join(header)]
    for row in rows:
        cells = [repr(int(v)) if float(v).is_integer() and i == 0 else repr(float(v))
                 for i, v in enumerate(row)]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stitlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a tessellation process and write a JSONL trace")
    sim.add_argument("--model", choices=["stit", "mecke-discrete", "mecke-continuous", "cowan-el"])
    sim.add_argument("--window", help="unit-square | triangle | JSON vertex list")
    sim.add_argument("--measure", help="iso:SCALE | dirs:TH:W,... | JSON")
    sim.add_argument("--t", type=float, help="stop at continuous time t")
    sim.add_argument("--jumps", type=int, help="stop after this many jumps")
    sim.add_argument("--decisions", type=int, help="stop after this many decisions")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", help="trace output path (JSONL)")
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.set_defaults(func=cmd_simulate)

    ren = sub.add_parser("render", help="render a JSONL trace as SVG")
    ren.add_argument("trace", help="trace file from `simulate`")
    ren.add_argument("--out", required=True, help="SVG output path")
    ren.add_argument("--at", type=float, help="render the state at a time/decision index")
    ren.set_defaults(func=cmd_render)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=["identities", "equivalence"], required=True)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--seeds", help="run at each seed of A:B (inclusive) and report pass rates")
    ver.add_argument("--window")
    ver.add_argument("--measure")
    ver.add_argument("--t-grid", dest="t_grid", help="e.g. 0.2,0.5,1.0")
    ver.add_argument("--replicas", type=int)
    ver.add_argument("--mutate", choices=["poisson-clock", "wrong-rate"])
    ver.add_argument("--out", help="report JSON output path")
    ver.add_argument("--config", help="JSON config file; flags override it")
    ver.set_defaults(func=cmd_verify)

    tab = sub.add_parser("table", help="tabulate a closed-form distribution as CSV")
    tab.add_argument(
        "distribution",
        choices=["stit-cdf", "stit-pdf", "waiting-pmf", "jump-pmf",
                 "cowan-pmf", "cowan-cdf", "mecke-tail"],
    )
    tab.add_argument("--L", help="comma-separated weight sequence, first value 1")
    tab.add_argument("--rate", type=float, default=1.0)
    tab.add_argument("--t", help="float grid start:stop:step or comma list")
    tab.add_argument("--n", type=int)
    tab.add_argument("--k", help="count grid lo:hi (cowan-pmf) or cell count (waiting-pmf)")
    tab.add_argument("--Lk", type=float)
    tab.add_argument("--l", help="integer grid lo:hi for waits")
    tab.add_argument("--ell", type=int)
    tab.add_argument("--n-grid", dest="n_grid", help="integer grid lo:hi for decisions")
    tab.add_argument("--out", help="CSV output path (default: stdout)")
    tab.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StitlabError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
