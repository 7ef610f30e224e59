"""Command-line interface: simulate, render, verify, table.

`simulate`, `table` and `verify` each pick a model, law or suite from their
table, which says what flags it takes and needs (flag > config key > default).

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
or configuration error, 3 runtime error.  An --out path is checked before
any work: an empty one, a directory and one in a missing directory exit 2.
Output is deterministic given the flags and the seed (flag > config file >
STITLAB_SEED > 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import distributions as dist
from . import processes, stats
from .errors import ConfigError, DomainError, GeometryError, StitlabError
from .geometry import ConvexPolygon
from .line_measure import (
    DirectionMixture,
    IsotropicMeasure,
    LineMeasureSpec,
    hitting_measure,
    measure_from_json,
)
from .render import render_svg
from .trace_io import polygon_from_json, read_trace, write_reports, write_trace

WINDOW_SHORTCUTS = {
    "unit-square": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
    "triangle": ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
}

MAX_GRID_POINTS = 100_000


def parse_window(spec: str) -> ConvexPolygon:
    try:
        if spec in WINDOW_SHORTCUTS:
            return ConvexPolygon(WINDOW_SHORTCUTS[spec])
        obj = json.loads(spec)
        if isinstance(obj, dict):
            return polygon_from_json(obj)
        return ConvexPolygon(tuple((float(x), float(y)) for x, y in obj))
    except (ValueError, TypeError, KeyError, GeometryError) as exc:
        raise ConfigError(f"window must be a shortcut name or JSON vertices: {exc}") from exc


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
    except (ValueError, KeyError, TypeError, AttributeError, GeometryError) as exc:
        raise ConfigError(f"bad measure spec {spec!r}: {exc}") from exc
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
    if stop < start:
        raise ConfigError(f"empty float grid {spec!r}")
    count = round((stop - start) / step) + 1
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(count)]


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


def load_config_file(path: str | None) -> dict:
    try:
        obj = {} if path is None else json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config file must hold a JSON object")
    return obj


def _check_out(out) -> None:
    """Refuse an output path before any work is done: it must be a nonempty
    path that names no directory, in a directory that exists."""
    if not isinstance(out, str) or not out or "\0" in out:
        raise ConfigError(f"--out must be a nonempty file path, got {out!r}")
    path = Path(out)
    if path.is_dir() or out.endswith(("/", os.sep)):
        raise ConfigError(f"--out {out!r} names a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {out!r}: no directory {str(path.parent)!r}")


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


# ---------------------------------------------------------------------------
# the input tables and their one resolver


class Entry(NamedTuple):
    """A model, law or suite: `run`, the flags (dests) it takes besides the
    common ones, the flags it needs (one of each `|` group), and a note for
    its help line, a refused flag's error and a suite's pass rates."""

    run: Callable
    takes: str = ""
    needs: str = ""
    note: str = ""


class Command(NamedTuple):
    """The dest that picks an entry, the entries, and the flags all take."""

    pick: str
    entries: dict[str, Entry]
    common: str


# A flag's config key is its dest, except these; None: a flag only.
_CONFIG_SPELLING = {"t_grid": "time_grid", "seeds": None, "suite": None, "config": None}


def _flags(spec: str, sep: str = ", ") -> str:
    """Dests as options: 'L n_grid|t' -> '--L, --n-grid or --t'."""
    options = (" or ".join("--" + f.replace("_", "-") for f in g.split("|")) for g in spec.split())
    return sep.join(options)


def _resolve(cmd: Command, args: argparse.Namespace) -> tuple[Entry, Callable]:
    """The entry that `args` picks and `get(flag, default=None)`, which reads
    an input as the flag, then its config key, then the default.  A flag or
    config key that the entry does not take, a missing need and an --out that
    cannot be written raise ConfigError naming it."""
    config = load_config_file(getattr(args, "config", None))
    name = getattr(args, cmd.pick) or config.get(cmd.pick)
    if not isinstance(name, str) or name not in cmd.entries:
        choices = ", ".join(cmd.entries)
        raise ConfigError(f"{_flags(cmd.pick)} must be one of {choices}, got {name!r}")
    entry = cmd.entries[name]
    takes = {cmd.pick, *cmd.common.split(), *entry.takes.split()}
    for flag, value in vars(args).items():
        if value is not None and flag not in takes | {"command"}:
            note = f": {entry.note}" if entry.note else ""
            raise ConfigError(f"{name} does not take {_flags(flag)}{note}")
    for key in config.keys() - {_CONFIG_SPELLING.get(flag, flag) for flag in takes}:
        raise ConfigError(f"{name} takes no config key {key!r}")

    def get(flag: str, default=None):
        value = getattr(args, flag)
        if value is None:
            value = config.get(_CONFIG_SPELLING.get(flag, flag))
        return default if value is None else value

    for group in entry.needs.split():  # an empty --out or --L is not given
        if all(get(flag) in (None, "") for flag in group.split("|")):
            raise ConfigError(f"{name} needs {_flags(group)}")
    out = get("out")
    if out is not None:
        _check_out(out)
    return entry, get


def _entries_help(cmd: Command) -> str:
    """A help epilog: each entry's flags and needs, read off the table."""
    lines = [f"the flags each {cmd.pick} takes (any other flag exits 2):"]
    for name, entry in cmd.entries.items():
        needs = f"; needs {_flags(entry.needs, ' and ')}" if entry.needs else ""
        note = f"; {entry.note}" if entry.note else ""
        lines.append(f"  {name:<17} {_flags(entry.takes) or '(none)'}{needs}{note}")
    return "\n".join(lines + [f"every {cmd.pick} also takes {_flags(cmd.common)}"])


def _seed(get: Callable) -> int:
    return _number("seed", get("seed", os.environ.get("STITLAB_SEED") or 0), int)


def _geometry(get: Callable) -> tuple[ConvexPolygon, LineMeasureSpec]:
    """The window and the measure (JSON values in a config file), refused when the
    window's hitting weight, which every clock is built from, is not a normal float."""
    specs = (get("window", "unit-square"), get("measure", "iso:1"))
    window, spec = (s if isinstance(s, str) else json.dumps(s) for s in specs)
    polygon, measure = parse_window(window), parse_measure(spec)
    weight = hitting_measure(measure, polygon)
    if not sys.float_info.min <= weight < math.inf:
        raise ConfigError(f"measure {spec!r} gives the window a hitting weight of {weight!r}, "
                          "outside the normal float range")
    return polygon, measure


# ---------------------------------------------------------------------------
# simulate

# the simulators' keyword for each stop flag
_STOPS = {"t": "max_time", "jumps": "max_jumps", "decisions": "max_decisions"}

# Entries call the library through its module-level names when they run, so
# a rebinding of those names (a profiler's wrapper, a test's patch) is seen.
SIMULATE = Command("model", {
    "stit": Entry(lambda *a, **kw: processes.stit_simulate(*a, **kw), "t jumps", "t|jumps out"),
    "mecke-discrete": Entry(lambda *a, **kw: processes.mecke_discrete_simulate(*a, **kw),
                            "decisions jumps", "decisions|jumps out"),
    "mecke-continuous": Entry(lambda *a, **kw: processes.mecke_continuous_simulate(*a, **kw),
                              "t", "t out"),
    "cowan-el": Entry(lambda *a, **kw: processes.cowan_el_simulate(*a, **kw),
                      "t jumps", "t|jumps out"),
}, common="window measure seed out config")


def cmd_simulate(args: argparse.Namespace) -> int:
    entry, get = _resolve(SIMULATE, args)
    window, measure = _geometry(get)
    seed = _seed(get)
    stops = {f: _number(f, get(f), float if f == "t" else int) for f in entry.takes.split()}
    rng = np.random.default_rng(seed)
    try:  # the expected-work guard, and a clock the measure makes non-finite
        trace = entry.run(window, measure, rng, seed=seed,
                          **{_STOPS[flag]: value for flag, value in stops.items()})
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    out = str(get("out"))
    write_trace(trace, out)
    print(f"wrote {len(trace.events)} events ({trace.jump_count} jumps) to {out}")
    t = stops.get("t")
    if trace.jump_count == 0 and t is not None and stops.get("jumps") != 0:
        # every model's first event is a jump of the whole window, at rate W(window)
        chance = -math.expm1(-t * hitting_measure(measure, window))
        print(f"warning: no jump by t={t!r}; the chance of a first jump by then is "
              f"{chance:.3g}", file=sys.stderr)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    _check_out(args.out)
    if args.at is not None and not math.isfinite(args.at):
        raise ConfigError(f"--at must be finite, got {args.at!r}")
    trace = read_trace(args.trace)
    svg = render_svg(trace, at=args.at)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _time_grid(grid) -> tuple[float, ...]:
    """The equivalence time grid (a --t-grid spec or a config list): finite times > 0."""
    try:
        times = tuple(parse_float_grid(grid) if isinstance(grid, str) else map(float, grid))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"--t-grid must be a list of times: {exc}") from exc
    if not times or not all(0.0 < t < math.inf for t in times):
        raise ConfigError(f"--t-grid times must be finite and > 0, got {grid!r}")
    return times


def _equivalence(get: Callable) -> Callable[[int], list]:
    window, measure = _geometry(get)
    grid = _time_grid(get("t_grid", [0.2, 0.5, 1.0]))
    replicas = _number("replicas", get("replicas", 20_000), int, minimum=1)
    config = stats.EquivalenceConfig(
        window=window, measure=measure, time_grid=grid, replicas=replicas,
        conditional_replicas=replicas, cowan_replicas=max(replicas, 10_000),
        selection_events=max(replicas, 10_000), mutation=get("mutate"),
    )
    return lambda seed: stats.run_equivalence_suite(dataclasses.replace(config, seed=seed))


VERIFY = Command("suite", {
    "identities": Entry(lambda get: lambda seed: stats.run_identity_suite(seed=seed)),
    "equivalence": Entry(  # the note: see run_equivalence_suite
        _equivalence, "window measure t_grid replicas mutate",
        note="nominal false-alarm rate per fresh seed: about 2-3 %",
    ),
}, common="seed seeds out config")


def cmd_verify(args: argparse.Namespace) -> int:
    entry, get = _resolve(VERIFY, args)
    if args.seeds is not None and get("seed") is not None:
        raise ConfigError("use --seed or --seeds, not both")
    seeds = [_seed(get)] if args.seeds is None else parse_int_grid(args.seeds)
    if args.seeds is not None and (args.seeds.count(":") != 1 or seeds[0] < 0):
        raise ConfigError(f"--seeds must be A:B with 0 <= A <= B, got {args.seeds!r}")
    try:
        suite = entry.run(get)
    except DomainError as exc:  # an unknown mutation from the config file
        raise ConfigError(str(exc)) from exc
    runs = []
    for seed in seeds:
        runs.append(suite(seed))
        failed = ", ".join(r.check_name for r in runs[-1] if not r.passed)
        if args.seeds is not None:
            print(f"seed {seed}: " + (f"FAIL ({failed})" if failed else "PASS"), flush=True)
    if args.seeds is None:
        print(stats.format_report_table(runs[0]))
    else:
        print(stats.format_pass_rates(runs, f"  ({entry.note})" if entry.note else ""))
    reports = [r for run in runs for r in run]
    out = get("out")
    if out is not None:
        write_reports(reports, str(out))
        print(f"wrote {out}")
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# table: each law gives (header, grid, values)


def _rate(get: Callable) -> float:
    rate = get("rate", 1.0)
    if not 0.0 < rate < math.inf:
        raise ConfigError(f"--rate must be finite and > 0, got {rate!r}")
    return rate


def _weight_sequence(get: Callable, rate: float = 1.0) -> processes.LSequence:
    """The --L sequence at `rate`; a malformed or invalid one is a usage error."""
    spec = get("L")
    try:
        return processes.LSequence(tuple(float(v) for v in spec.split(",")), rate=rate)
    except ValueError as exc:  # a DomainError is one too
        raise ConfigError(f"bad --L {spec!r}: {exc}") from exc


def _jump_time_rows(get: Callable, fn: Callable, column: str) -> tuple:
    """A law of the time of jump --ell; the STIT laws take no --ell and give jump len(L)."""
    lseq = _weight_sequence(get, _rate(get))
    ell, grid = get("ell", len(lseq)), parse_float_grid(get("t", "0:1:0.1"))
    return ["t", column], grid, fn(lseq, ell, grid)


def _jump_rows(get: Callable) -> tuple:
    lseq, ell = _weight_sequence(get), get("ell")
    grid = parse_int_grid(get("n_grid", f"{ell}:{ell + 10}"))
    return ["n", "pmf"], grid, dist.discrete_jump_pmf(lseq, ell, grid)


def _waiting_rows(get: Callable) -> tuple:
    n, l_k = get("n"), _number("Lk", get("Lk"), float)
    k = _number("k", get("k", 1 if n == 1 else max(2, math.ceil(l_k))), int)
    grid = parse_int_grid(get("l", "1:10"))
    return ["wait", "pmf"], grid, dist.discrete_waiting_pmf(n, k, l_k, grid)


def _cowan_pmf_rows(get: Callable) -> tuple:
    rate, t = _rate(get), _number("t", get("t"), float)
    grid = parse_int_grid(get("k", "0:10"))
    return ["k", "pmf"], grid, dist.nu_pmf(rate, t, grid)


def _cowan_cdf_rows(get: Callable) -> tuple:
    rate, grid = _rate(get), parse_float_grid(get("t", "0:1:0.1"))
    return ["t", "cdf"], grid, dist.cowan_sum_cdf(rate, get("n"), grid)


TABLE = Command("distribution", {
    "stit-cdf": Entry(lambda get: _jump_time_rows(get, dist.stit_jump_cdf, "cdf"), "L rate t",
                      "L", "it tabulates the CDF of jump len(L)"),
    "stit-pdf": Entry(lambda get: _jump_time_rows(get, dist.stit_jump_pdf, "pdf"), "L rate t",
                      "L", "it tabulates the PDF of jump len(L)"),
    "waiting-pmf": Entry(_waiting_rows, "n Lk k l", "n Lk"),
    "jump-pmf": Entry(_jump_rows, "L ell n_grid", "L ell"),
    "cowan-pmf": Entry(_cowan_pmf_rows, "rate t k", "t"),
    "cowan-cdf": Entry(_cowan_cdf_rows, "rate n t", "n"),
    "mecke-tail": Entry(lambda get: _jump_time_rows(get, dist.mecke_jump_tail, "tail"),
                        "L ell rate t", "L ell"),
}, common="out")


def cmd_table(args: argparse.Namespace) -> int:
    entry, get = _resolve(TABLE, args)
    try:
        header, grid, values = entry.run(get)
    except DomainError as exc:  # arguments outside an evaluator's domain come from the flags
        raise ConfigError(str(exc)) from exc
    lines = [",".join(header)]
    for x, value in zip(grid, values):
        x = int(x) if float(x).is_integer() else float(x)
        lines.append(f"{x!r},{float(value)!r}")
    text = "\n".join(lines) + "\n"
    out = get("out")
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stitlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    config = "JSON config file keyed by flag name (--t-grid: time_grid); flags override it"

    sim = sub.add_parser("simulate", help="run a tessellation process and write a JSONL trace")
    sim.add_argument("--model", choices=list(SIMULATE.entries))
    sim.add_argument("--window", help="unit-square | triangle | JSON vertex list")
    sim.add_argument("--measure", help="iso:SCALE | dirs:TH:W,... | JSON")
    sim.add_argument("--t", type=float, help="stop at continuous time t")
    sim.add_argument("--jumps", type=int, help="stop after this many jumps")
    sim.add_argument("--decisions", type=int, help="stop after this many decisions")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", help="trace output path (JSONL)")
    sim.add_argument("--config", help=config)

    ren = sub.add_parser("render", help="render a JSONL trace as SVG")
    ren.add_argument("trace", help="trace file from `simulate`")
    ren.add_argument("--out", required=True, help="SVG output path")
    ren.add_argument("--at", type=float, help="render the state at a time/decision index")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=list(VERIFY.entries), required=True)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--seeds", help="run at each seed of A:B (inclusive) and report pass rates")
    ver.add_argument("--window")
    ver.add_argument("--measure")
    ver.add_argument("--t-grid", dest="t_grid", help="e.g. 0.2,0.5,1.0")
    ver.add_argument("--replicas", type=int)
    ver.add_argument("--mutate", choices=[m for m in stats.MUTATIONS if m])
    ver.add_argument("--out", help="report JSON output path")
    ver.add_argument("--config", help=config)

    tab = sub.add_parser("table", help="tabulate a closed-form distribution as CSV")
    tab.add_argument("distribution", choices=list(TABLE.entries))
    tab.add_argument("--L", help="comma-separated weight sequence, first value 1")
    tab.add_argument("--rate", type=float, help="clock rate (default 1)")
    tab.add_argument("--t", help="float grid start:stop:step or comma list")
    tab.add_argument("--n", type=int)
    tab.add_argument("--k", help="count grid lo:hi, or the cell count of the waiting law")
    tab.add_argument("--Lk", type=float)
    tab.add_argument("--l", help="integer grid lo:hi for waits")
    tab.add_argument("--ell", type=int)
    tab.add_argument("--n-grid", dest="n_grid", help="integer grid lo:hi for decisions")
    tab.add_argument("--out", help="CSV output path (default: stdout)")
    for name, cmd in (("simulate", SIMULATE), ("verify", VERIFY), ("table", TABLE)):
        sub.choices[name].epilog = _entries_help(cmd)  # the flags of each entry
        sub.choices[name].formatter_class = argparse.RawDescriptionHelpFormatter
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run = {"simulate": cmd_simulate, "render": cmd_render, "verify": cmd_verify, "table": cmd_table}
    try:
        return run[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StitlabError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
