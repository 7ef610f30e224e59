import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stitlab
from stitlab import cli
from stitlab import distributions as dist
from stitlab.cli import (
    SIMULATE,
    TABLE,
    VERIFY,
    build_parser,
    main,
    parse_float_grid,
    parse_int_grid,
    parse_measure,
    parse_window,
)
from stitlab.errors import ConfigError
from stitlab.line_measure import DirectionMixture, IsotropicMeasure
from stitlab.processes import ModelTag
from stitlab.trace_io import read_trace, write_trace


def run(args):
    return main(list(args))


# Run in a fresh interpreter: which SciPy modules each step leaves loaded.
# Only a p-value (the equivalence suite) may load SciPy.
SCIPY_PROBE = """
import contextlib, io, json, sys
from stitlab.cli import main

def step(name, *argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv)) if argv else 0
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps([name, code, loaded]))

tmp = sys.argv[1]
step("import")
for model, stop in [("stit", "--jumps"), ("mecke-discrete", "--decisions"),
                    ("mecke-continuous", "--t"), ("cowan-el", "--jumps")]:
    step(model, "simulate", "--model", model, stop, "1" if stop == "--t" else "6",
         "--out", tmp + "/trace.jsonl")
step("render", "render", tmp + "/trace.jsonl", "--out", tmp + "/trace.svg", "--at", "0.5")
step("stit-cdf", "table", "stit-cdf", "--L", "1,1.5", "--t", "0:1:0.5")
step("mecke-tail", "table", "mecke-tail", "--L", "1,1.5", "--ell", "2", "--t", "0.5")
step("mecke-tail-far", "table", "mecke-tail", "--L", "1,1.5", "--ell", "2", "--t", "40")
step("cowan-pmf", "table", "cowan-pmf", "--t", "1", "--k", "0:3")
step("jump-pmf", "table", "jump-pmf", "--L", "1,1.5", "--ell", "2")
step("identities", "verify", "--suite", "identities", "--seed", "3")
step("equivalence", "verify", "--suite", "equivalence", "--seed", "7",
     "--replicas", "20", "--t-grid", "0.2")
"""


def test_only_a_p_value_loads_scipy(tmp_path):
    src = str(Path(stitlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    steps = [json.loads(line) for line in out.stdout.splitlines()]
    assert [name for name, _, _ in steps][-1] == "equivalence" and len(steps) == 13
    for name, code, loaded in steps[:-1]:
        assert (name, code, loaded) == (name, 0, [])
    _, code, loaded = steps[-1]
    assert code == 0 and "scipy.special" in loaded


def test_public_names_resolve_once():
    names = stitlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(stitlab, name) is not None


class TestParsers:
    def test_window_shortcuts(self):
        assert parse_window("unit-square").area == pytest.approx(1.0)
        assert parse_window("triangle").area == pytest.approx(0.5)
        poly = parse_window("[[0,0],[2,0],[2,1],[0,1]]")
        assert poly.area == pytest.approx(2.0)
        with pytest.raises(ConfigError):
            parse_window("pentagon")

    def test_measure_specs(self):
        assert parse_measure("iso:2.5") == IsotropicMeasure(2.5)
        mix = parse_measure("dirs:0:1,1.5707963267948966:2")
        assert isinstance(mix, DirectionMixture)
        assert parse_measure('{"type": "isotropic", "scale": 1.0}') == IsotropicMeasure(1.0)
        with pytest.raises(ConfigError):
            parse_measure("nope")

    def test_grids(self):
        assert len(parse_float_grid("0:2:0.1")) == 21
        assert parse_float_grid("1:1:0.5") == [1.0]
        assert parse_float_grid("1:1.2:0.5") == [1.0]
        with pytest.raises(ConfigError, match="empty float grid"):
            parse_float_grid("5:1:0.5")
        assert parse_float_grid("0.5,1.5") == [0.5, 1.5]
        assert parse_int_grid("0:10") == list(range(11))
        assert parse_int_grid("3") == [3]


class TestSimulate:
    def test_event_count_contract(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = run([
            "simulate", "--model", "stit", "--window", "unit-square",
            "--measure", "iso:1", "--jumps", "50", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        trace = read_trace(out)
        assert len(trace.events) == 50
        assert trace.jump_count == 50
        assert trace.model_tag is ModelTag.STIT

    def test_model_tag_in_header(self, tmp_path):
        out = tmp_path / "mc.jsonl"
        code = run(["simulate", "--model", "mecke-continuous", "--t", "1.0",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["model_tag"] == "MeckeContinuous"
        assert header["seed"] == 7

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["simulate", "--model", "mecke-discrete", "--decisions", "40", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_identity(self, tmp_path):
        out = tmp_path / "t.jsonl"
        run(["simulate", "--model", "cowan-el", "--jumps", "12", "--seed", "5",
             "--out", str(out)])
        trace = read_trace(out)
        copy = tmp_path / "copy.jsonl"
        write_trace(trace, copy)
        assert read_trace(copy) == trace

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STITLAB_SEED", "99")
        out = tmp_path / "t.jsonl"
        run(["simulate", "--model", "stit", "--jumps", "3", "--out", str(out)])
        assert json.loads(out.read_text().splitlines()[0])["seed"] == 99

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "stit", "jumps": 4, "seed": 1,
                                   "out": str(tmp_path / "from_cfg.jsonl")}))
        out = tmp_path / "override.jsonl"
        code = run(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert len(read_trace(out).events) == 4

    def test_config_window_and_measure_may_be_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "stit", "jumps": 2, "window": [[0, 0], [1, 0], [0, 1]],
                                   "measure": {"type": "isotropic", "scale": 2.0}}))
        out = tmp_path / "t.jsonl"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        trace = read_trace(out)
        assert trace.window.area == pytest.approx(0.5)
        assert trace.measure == IsotropicMeasure(2.0)

    def test_config_key_the_model_does_not_take_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"decisions": 3}))
        out = tmp_path / "t.jsonl"
        code = run(["simulate", "--model", "stit", "--jumps", "3", "--config", str(cfg),
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "decisions" in err
        assert not out.exists()

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "stit", "jumps": 2, "bogus": 1}))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_missing_stop_rule_is_config_error(self, tmp_path):
        code = run(["simulate", "--model", "stit", "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    def test_empty_out_is_a_missing_out(self, capsys):
        assert run(["simulate", "--model", "stit", "--jumps", "3", "--out", ""]) == 2
        assert capsys.readouterr().err == "error: stit needs --out\n"

    @pytest.mark.parametrize("model", ["stit", "mecke-continuous", "cowan-el"])
    def test_run_without_a_jump_warns(self, tmp_path, capsys, model):
        out = tmp_path / "t.jsonl"
        code = run(["simulate", "--model", model, "--measure", "iso:1e-300", "--t", "1",
                    "--out", str(out)])
        assert code == 0
        assert read_trace(out).jump_count == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: no jump by t=1.0")
        # t * W(unit square) = 4e-300: the chance of a first jump by t
        assert err[0].endswith("is 4e-300")

    def test_cowan_el_with_a_jump_cap_runs_past_the_expected_work_budget(self, tmp_path):
        # W * t = 20 expects 4.9e8 events: refused without --jumps (TestUsageErrors)
        out = tmp_path / "t.jsonl"
        assert run(["simulate", "--model", "cowan-el", "--t", "5", "--jumps", "100",
                    "--out", str(out)]) == 0
        assert read_trace(out).jump_count == 100

    def test_run_with_a_jump_does_not_warn(self, tmp_path, capsys):
        code = run(["simulate", "--model", "stit", "--t", "1", "--out", str(tmp_path / "t.jsonl")])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestRender:
    def _simulate(self, tmp_path, jumps, seed=7):
        out = tmp_path / "t.jsonl"
        run(["simulate", "--model", "stit", "--jumps", str(jumps), "--seed", str(seed),
             "--out", str(out)])
        return out

    def test_empty_trace_is_window_only(self, tmp_path):
        trace_file = self._simulate(tmp_path, 0)
        svg = tmp_path / "t.svg"
        assert run(["render", str(trace_file), "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<polygon") == 1
        assert "<line" not in text

    def test_single_jump_single_chord(self, tmp_path):
        trace_file = self._simulate(tmp_path, 1)
        svg = tmp_path / "t.svg"
        run(["render", str(trace_file), "--out", str(svg)])
        assert svg.read_text().count("<line") == 1

    def test_chord_count_equals_jump_count(self, tmp_path):
        trace_file = self._simulate(tmp_path, 17)
        svg = tmp_path / "t.svg"
        run(["render", str(trace_file), "--out", str(svg)])
        assert svg.read_text().count("<line") == 17

    def test_intermediate_state(self, tmp_path):
        trace_file = self._simulate(tmp_path, 10)
        trace = read_trace(trace_file)
        cutoff = trace.events[4].time
        svg = tmp_path / "t.svg"
        run(["render", str(trace_file), "--out", str(svg), "--at", str(cutoff)])
        assert svg.read_text().count("<line") == 5

    def test_negative_time_draws_the_bare_window(self, tmp_path):
        trace_file = self._simulate(tmp_path, 5)
        svg = tmp_path / "t.svg"
        assert run(["render", str(trace_file), "--out", str(svg), "--at=-1"]) == 0
        assert svg.read_text().count("<polygon") == 1 and "<line" not in svg.read_text()

    def test_rejected_decisions_draw_no_chord(self, tmp_path):
        trace_file = tmp_path / "m.jsonl"
        run(["simulate", "--model", "mecke-discrete", "--decisions", "60", "--seed", "11",
             "--out", str(trace_file)])
        trace = read_trace(trace_file)
        assert trace.jump_count < len(trace.events)  # seed 11 has rejections
        svg = tmp_path / "m.svg"
        run(["render", str(trace_file), "--out", str(svg)])
        assert svg.read_text().count("<line") == trace.jump_count

    @pytest.mark.parametrize(
        "field, value", [("p", math.nan), ("t", -1.0), ("jump", "false"), ("cell", 0.9)]
    )
    def test_malformed_event_exits_2(self, tmp_path, capsys, field, value):
        lines = self._simulate(tmp_path, 4).read_text().splitlines()
        rec = json.loads(lines[3])
        (rec["line"] if field == "p" else rec)[field] = value
        lines[3] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        svg = tmp_path / "x.svg"
        assert run(["render", str(bad), "--out", str(svg), "--at", "1.0"]) == 2
        assert "line 4" in capsys.readouterr().err
        assert not svg.exists()

    def test_malformed_trace_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a trace"}\n')
        assert run(["render", str(bad), "--out", str(tmp_path / "x.svg")]) == 2


class TestTable:
    def test_stit_cdf_grid_contract(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["table", "stit-cdf", "--L", "1,1.5", "--t", "0:2:0.1",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,cdf"
        assert len(lines) == 22  # header + 21 grid rows

    def test_cowan_pmf_first_row(self, tmp_path, capsys):
        assert run(["table", "cowan-pmf", "--rate", "1", "--t", "1", "--k", "0:10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        k, value = lines[1].split(",")
        assert k == "0"
        assert float(value) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_waiting_pmf_first_row(self, tmp_path, capsys):
        assert run(["table", "waiting-pmf", "--n", "3", "--Lk", "1.5", "--l", "1:5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5)

    def test_table_values_match_library(self, tmp_path, capsys):
        from stitlab.distributions import stit_jump_cdf
        from stitlab.processes import LSequence

        assert run(["table", "stit-cdf", "--L", "1,1.4", "--rate", "2",
                    "--t", "0.5,1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        lseq = LSequence((1.0, 1.4), rate=2.0)
        for row, t in zip(lines[1:], (0.5, 1.0)):
            assert float(row.split(",")[1]) == stit_jump_cdf(lseq, 2, t)

    def test_missing_params_exit_2(self):
        assert run(["table", "stit-cdf"]) == 2
        assert run(["table", "waiting-pmf", "--n", "3"]) == 2

    @pytest.mark.parametrize(
        "argv, grid",
        [
            (["jump-pmf", "--L", "1,1.5,2.2", "--ell", "3", "--n-grid"],
             ["65530:65545", "40,3,7,3,100"]),
            (["waiting-pmf", "--n", "3", "--Lk", "1.5", "--l"], ["65530:65545", "9,1,4,4,70000"]),
        ],
    )
    def test_pmf_rows_equal_point_values(self, argv, grid, capsys):
        from stitlab.distributions import discrete_jump_pmf, discrete_waiting_pmf
        from stitlab.processes import LSequence

        lseq = LSequence((1.0, 1.5, 2.2), rate=1.0)
        point = {
            "jump-pmf": lambda x: discrete_jump_pmf(lseq, 3, x),
            "waiting-pmf": lambda x: discrete_waiting_pmf(3, 2, 1.5, x),
        }[argv[0]]
        for spec in grid:
            assert run(["table", *argv, spec]) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
            xs = parse_int_grid(spec)
            assert [int(x) for x, _ in rows] == xs
            assert [float(v) for _, v in rows] == [point(x) for x in xs]

    @pytest.mark.parametrize(
        "name, point",
        [
            ("stit-cdf", lambda lseq, t: dist.stit_jump_cdf(lseq, 3, t)),
            ("stit-pdf", lambda lseq, t: dist.stit_jump_pdf(lseq, 3, t)),
            ("mecke-tail", lambda lseq, t: dist.mecke_jump_tail(lseq, 2, t)),
            ("cowan-cdf", lambda lseq, t: dist.cowan_sum_cdf(2.0, 3, t)),
        ],
    )
    def test_time_rows_equal_point_values(self, name, point, capsys):
        from stitlab.processes import LSequence

        lseq = LSequence((1.0, 1.5, 2.2), rate=2.0)
        flags = {"cowan-cdf": ["--n", "3"], "mecke-tail": ["--L", "1,1.5,2.2", "--ell", "2"]}
        argv = flags.get(name, ["--L", "1,1.5,2.2"])
        for spec in ("0:3:0.125", "2.5,0,0.3,0.3"):
            assert run(["table", name, *argv, "--rate", "2", "--t", spec]) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
            ts = parse_float_grid(spec)
            assert [float(v) for _, v in rows] == [point(lseq, t) for t in ts]
        assert run(["table", "cowan-pmf", "--rate", "2", "--t", "0.7", "--k", "0:200"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(v) for _, v in rows] == [dist.nu_pmf(2.0, 0.7, k) for k in range(201)]

    def test_tail_table_builds_no_recurrence(self, monkeypatch, capsys):
        # the tail is a finite sum over the weights, not a sum over decisions
        calls = []
        build = dist._product_chunks
        monkeypatch.setattr(
            dist, "_product_chunks", lambda *a, **kw: calls.append(1) or build(*a, **kw)
        )
        assert run(["table", "mecke-tail", "--L", "1,1.5,2.2", "--ell", "3",
                    "--t", "0.1:2.5:0.1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 25
        assert calls == []

    def test_pmf_table_builds_the_recurrence_once(self, monkeypatch, capsys):
        from stitlab import distributions

        calls = []
        build = distributions._product_chunks
        monkeypatch.setattr(
            distributions, "_product_chunks", lambda *a, **kw: calls.append(1) or build(*a, **kw)
        )
        assert run(["table", "jump-pmf", "--L", "1,1.5,2.2", "--ell", "3",
                    "--n-grid", "8000:9999"]) == 0
        assert run(["table", "waiting-pmf", "--n", "3", "--Lk", "1.5", "--l", "8000:9999"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 * 2001
        assert len(calls) == 2

    def test_mecke_tail_runs_under_the_default_policy(self, capsys):
        argv = ["--L", "1,1.05", "--rate", "4", "--t", "3"]
        assert run(["table", "mecke-tail", "--ell", "2", *argv]) == 0
        tail = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert run(["table", "stit-cdf", *argv]) == 0
        cdf = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert tail == pytest.approx(0.99993841184, abs=1e-11)
        assert tail == pytest.approx(cdf, abs=1e-10)


class TestVerify:
    def test_identities_pass(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "identities", "--seed", "5", "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 8
        assert all(r["passed"] for r in reports)

    def test_equivalence_small_run(self, tmp_path):
        out = tmp_path / "eq.json"
        code = run(["verify", "--suite", "equivalence", "--seed", "7",
                    "--replicas", "800", "--t-grid", "0.3,0.8", "--out", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert {r["check_name"] for r in reports} == {
            "conditional-jump-counts", "unconditional-cell-counts", "cowan-geometric",
            "tail-vs-cdf-identity", "selection-probabilities",
        }

    def test_equivalence_reports_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--suite", "equivalence", "--seed", "7", "--replicas", "300",
                "--t-grid", "0.4"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_seed_range_reports_pass_rates(self, tmp_path, capsys):
        out = tmp_path / "eq.json"
        code = run(["verify", "--suite", "equivalence", "--seeds", "4:6",
                    "--replicas", "300", "--t-grid", "0.4", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "seed 4: PASS" in text and "seed 6: PASS" in text
        assert "unconditional-cell-counts          3/3  100.0%" in text
        assert "whole suite" in text and "nominal false-alarm rate" in text
        assert sorted({r["seed"] for r in json.loads(out.read_text())}) == [4, 5, 6]

    def test_seed_range_with_a_failure_exits_1(self):
        code = run(["verify", "--suite", "equivalence", "--seeds", "7:8",
                    "--replicas", "800", "--t-grid", "0.8", "--mutate", "poisson-clock"])
        assert code == 1

    def test_config_out_writes_the_report(self, tmp_path):
        out = tmp_path / "rep.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(out), "seed": 5}))
        assert run(["verify", "--suite", "identities", "--config", str(cfg)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 8 and {r["seed"] for r in reports} == {5}

    def test_config_suite_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "equivalence", "out": str(tmp_path / "rep.json")}))
        assert run(["verify", "--suite", "identities", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "suite" in err
        assert not (tmp_path / "rep.json").exists()

    def test_mutation_exits_1(self, tmp_path):
        code = run(["verify", "--suite", "equivalence", "--seed", "7",
                    "--replicas", "800", "--t-grid", "0.8",
                    "--mutate", "poisson-clock"])
        assert code == 1


COMMANDS = {"simulate": SIMULATE, "table": TABLE, "verify": VERIFY}
# a valid value of every input flag of each command
FLAG_VALUES = {
    "simulate": {"window": "triangle", "measure": "iso:2", "t": "0.5", "jumps": "3",
                 "decisions": "5", "seed": "1"},
    "table": {"L": "1,1.5", "rate": "2", "t": "0.5", "n": "3", "k": "2", "Lk": "1.5",
              "l": "1:3", "ell": "2", "n_grid": "2:4"},
    "verify": {"seed": "1", "seeds": "1:2", "window": "triangle", "measure": "iso:2",
               "t_grid": "0.2", "replicas": "5", "mutate": "wrong-rate"},
}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _entry_argv(command: str, name: str, out) -> list[str]:
    """`command` run on entry `name` with the first flag of each of its needs, and --out."""
    cmd = COMMANDS[command]
    pick = [name] if command == "table" else [_option(cmd.pick), name]
    needs = [a for group in cmd.entries[name].needs.split() if group != "out"
             for a in (_option(group.split("|")[0]), FLAG_VALUES[command][group.split("|")[0]])]
    return [command, *pick, *needs, "--out", str(out)]


def _refused_flags():
    """(command, entry, flag) for every input flag of a command that the entry does not take."""
    parser = build_parser()
    for command, cmd in COMMANDS.items():
        pick = [] if command == "table" else [_option(cmd.pick)]
        dests = vars(parser.parse_args([command, *pick, next(iter(cmd.entries))]))
        for name, entry in cmd.entries.items():
            for flag in dests:
                if flag not in {"command", "config", cmd.pick, *f"{cmd.common} {entry.takes}".split()}:
                    yield command, name, flag


REFUSED = list(_refused_flags())
ENTRIES = [(c, n) for c in ("simulate", "table") for n in COMMANDS[c].entries]


class TestInputTables:
    @pytest.mark.parametrize("command, name, flag", REFUSED, ids=[" ".join(c) for c in REFUSED])
    def test_flag_the_entry_does_not_take_exits_2(self, command, name, flag, tmp_path, capsys):
        out = tmp_path / "out"
        argv = _entry_argv(command, name, out) + [_option(flag), FLAG_VALUES[command][flag]]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"does not take {_option(flag)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, name", ENTRIES, ids=[" ".join(c) for c in ENTRIES])
    def test_needed_flags_suffice(self, command, name, tmp_path):
        out = tmp_path / "out"
        assert run(_entry_argv(command, name, out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["simulate", "table", "verify"])
    def test_help_lists_each_entrys_flags(self, command, capsys):
        assert run([command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name, entry in COMMANDS[command].entries.items():
            (line,) = [x for x in lines if x.strip().startswith(name + " ")]
            assert all(_option(flag) in line for flag in entry.takes.split())

    def test_stit_cdf_refuses_ell_and_names_its_jump(self, capsys):
        assert run(["table", "stit-cdf", "--L", "1,1.5,2.2", "--ell", "2", "--t", "1"]) == 2
        assert "the CDF of jump len(L)" in capsys.readouterr().err


def test_one_parser_answers_each_call_as_a_fresh_one(tmp_path, capsys):
    # the parser is built once per process; no call may leave state for the next
    calls = [
        ["simulate", "--model", "stit", "--jumps", "3", "--seed", "1", "--out", str(tmp_path / "a.jsonl")],
        ["simulate", "--model", "bogus", "--jumps", "3"],  # argparse refuses the choice
        ["table", "stit-cdf", "--L", "1,1.5", "--t", "0:1:0.5"],
        ["table", "cowan-pmf", "--t", "1", "--k", "0:3"],  # takes no --L
    ]

    def outputs(fresh: bool) -> list:
        got = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            got.append((code, *capsys.readouterr(), (tmp_path / "a.jsonl").read_bytes()))
        return got

    shared = outputs(fresh=False)
    assert build_parser() is build_parser()
    assert [code for code, *_ in shared] == [0, 2, 0, 0]
    assert "invalid choice" in shared[1][2]
    assert outputs(fresh=True) == shared


class TestUsageErrors:
    def test_unknown_command(self):
        assert run(["bogus"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "stit", "--jumps", "3", "--measure", "iso:abc"],
            ["simulate", "--model", "stit", "--jumps", "3", "--measure", "iso:inf"],
            ["simulate", "--model", "stit", "--jumps", "3", "--measure", "dirs:0"],
            ["simulate", "--model", "stit", "--jumps", "3", "--measure", "dirs:0:1"],
            ["simulate", "--model", "stit", "--jumps", "3", "--measure", "iso:1e-320"],
            ["simulate", "--model", "stit", "--jumps", "3", "--measure", "iso:1e308"],
            ["simulate", "--model", "stit", "--jumps", "3", "--measure", "dirs:0:1e-320,1:1e-320"],
            ["simulate", "--model", "stit", "--jumps", "-5"],
            ["simulate", "--model", "mecke-discrete", "--decisions", "-1"],
            ["simulate", "--model", "stit", "--t", "nan"],
            ["simulate", "--model", "stit", "--t", "inf", "--jumps", "3"],
            ["simulate", "--model", "mecke-continuous", "--t", "-1"],
            ["simulate", "--model", "mecke-continuous", "--t", "5"],
            ["simulate", "--model", "cowan-el", "--t", "5"],
            ["simulate", "--model", "mecke-discrete", "--jumps", "300"],
            ["verify", "--suite", "equivalence", "--t-grid", "10", "--replicas", "20"],
            ["verify", "--suite", "equivalence", "--t-grid", "3", "--replicas", "20"],
            ["table", "stit-cdf", "--L", "1,abc"],
            ["table", "stit-cdf", "--L", "1,0.5"],
            ["table", "jump-pmf", "--L", "1,1.5", "--ell", "2", "--rate", "0"],
            ["table", "mecke-tail", "--L", "1,1.5,1.4", "--ell", "2"],
            ["table", "cowan-pmf", "--rate", "0", "--t", "1"],
            ["table", "cowan-pmf", "--t", "1", "--k", "a:b"],
            ["table", "waiting-pmf", "--n", "0", "--Lk", "1.5"],
            ["table", "waiting-pmf", "--n", "3", "--Lk", "nan"],
            ["table", "stit-cdf", "--L", "1,1.5", "--t", "nan"],
            ["table", "stit-cdf", "--L", "1,1.5", "--t", "abc"],
            ["table", "stit-cdf", "--L", "1,1.5", "--t", "0:1e9:1e-9"],
            ["table", "stit-cdf", "--L", "1,1.5", "--t", "5:1:0.5"],
            ["table", "cowan-cdf", "--n", "2", "--t", "1:0.9:0.5"],
            ["verify", "--suite", "equivalence", "--replicas", "5", "--t-grid", "1:0.5:0.1"],
            ["simulate", "--model", "stit", "--t", "1000"],
            ["simulate", "--model", "stit", "--t", "300", "--measure", "iso:2"],
            ["render", "@trace", "--at", "nan"],
            ["render", "@trace", "--at", "inf"],
            ["render", "@trace", "--at=-inf"],
            ["table", "cowan-pmf", "--rate", "inf", "--t", "1", "--k", "0:2"],
            ["table", "stit-cdf", "--L", "1,1.5", "--rate", "inf", "--t", "1"],
            ["table", "cowan-cdf", "--rate", "inf", "--n", "2", "--t", "1"],
            ["verify", "--suite", "equivalence", "--replicas", "-5", "--t-grid", "0.2"],
            ["verify", "--suite", "equivalence", "--replicas", "0", "--t-grid", "0.2"],
            ["verify", "--suite", "equivalence", "--replicas", "5", "--t-grid", "0"],
            ["verify", "--suite", "equivalence", "--replicas", "5", "--t-grid", "0.2,inf"],
            ["simulate", "--model", "mecke-discrete", "--jumps", "3", "--measure", "iso:1e308",
             "--seed", "0"],
            ["simulate", "--model", "mecke-discrete", "--jumps", "3", "--measure", "iso:1e-320",
             "--seed", "0"],
            ["simulate", "--model", "stit", "--jumps", "3", "--seed", "-1"],
            ["verify", "--suite", "identities", "--seed", "-1"],
            ["verify", "--suite", "equivalence", "--measure", "iso:1e308", "--t-grid", "0.2"],
            ["verify", "--suite", "equivalence", "--seeds", "3"],
            ["verify", "--suite", "equivalence", "--seeds", "a:b"],
            ["verify", "--suite", "equivalence", "--seeds", "5:2"],
            ["verify", "--suite", "equivalence", "--seeds=-1:2"],
            ["verify", "--suite", "equivalence", "--seeds", "0:1", "--seed", "3"],
            ["simulate", "--model", "mecke-continuous", "--t", "0.5", "--jumps", "3"],
            ["simulate", "--model", "mecke-discrete", "--t", "1", "--decisions", "50"],
            ["simulate", "--model", "stit", "--jumps", "3", "--window", "5"],
            ["simulate", "--model", "stit", "--jumps", "3", "--window", "[[0,0],[1,0]]"],
            ["simulate", "--model", "stit", "--jumps", "3", "--window", '{"a": 1}'],
            ["simulate", "--model", "stit", "--jumps", "3", "--measure", "[1]"],
            ["simulate", "--jumps", "3"],
            ["simulate", "--model", "stit", "--jumps", "1000000000"],
            ["simulate", "--model", "cowan-el", "--jumps", "1000000000"],
            ["simulate", "--model", "mecke-discrete", "--decisions", "1000000000000"],
            ["verify", "--suite", "equivalence", "--replicas", "1000000000", "--t-grid", "0.001"],
            ["table", "waiting-pmf", "--n", "2", "--k", "2", "--Lk", "2.0000000000002",
             "--l", "1:3"],
            ["verify", "--suite", "identities", "--mutate", "wrong-rate", "--replicas", "5",
             "--window", "triangle"],
        ],
        ids=" ".join,
    )
    def test_bad_input_exits_2_with_one_line(self, argv, tmp_path, capsys):
        if argv[0] == "simulate":
            argv = argv + ["--out", str(tmp_path / "x.jsonl")]
        if argv[0] == "render":  # a trace with 5 jumps, all drawn when --at is ignored
            trace = tmp_path / "in.jsonl"
            assert run(["simulate", "--model", "stit", "--jumps", "5", "--seed", "1",
                        "--out", str(trace)]) == 0
            capsys.readouterr()
            argv = [str(trace) if a == "@trace" else a for a in argv]
            argv += ["--out", str(tmp_path / "x.jsonl")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize(
        "config",
        [{"replicas": 0}, {"time_grid": [0.2, -1.0]}, {"time_grid": 0.5}, {"mutate": "bogus"},
         {"suite": "identities"}, {"seeds": "1:2"}, {"t_grid": "0.2"}, {"model": "stit"},
         {"time_grid": [0.2, 10.0], "replicas": 20}],
    )
    def test_bad_verify_config_exits_2(self, config, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run(["verify", "--suite", "equivalence", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_past_cap_table_is_a_runtime_refusal(self, capsys):
        # a precision-cap refusal is not a usage error and keeps exit 3
        values = ",".join(str(1.0 + 0.5 * i) for i in range(17))
        assert run(["table", "stit-cdf", "--L", values, "--t", "1"]) == 3
        assert capsys.readouterr().err.startswith("runtime error: ")
        past_ell_max = ",".join(str(1.0 + 0.5 * i) for i in range(14))
        assert run(["table", "mecke-tail", "--L", past_ell_max, "--ell", "14", "--t", "1"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error: ")
        # rate * t = 40: 1 - exp(-rate * t) rounds to 1; the tail's closed form needs no decay
        argv = ["--L", "1,1.5,2.2", "--t", "40"]
        assert run(["table", "mecke-tail", "--ell", "3", *argv]) == 0
        tail = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert run(["table", "stit-cdf", *argv]) == 0
        cdf = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert tail == pytest.approx(cdf, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("argv", [
        ["mecke-tail", "--L", "1,2,2", "--ell", "3", "--t", "0.5"],  # inf times a seed of 0
        ["stit-cdf", "--L", "1,1.0000000000001", "--t", "0.5"],
        ["stit-pdf", "--L", "1,1.5", "--t", "0:1:0.5", "--rate", "1e308"],  # terms past the float range
    ], ids=" ".join)
    def test_tied_weights_are_a_runtime_refusal(self, argv, capsys):
        # a valid sequence whose nodes the law cannot resolve: refused, never nan
        assert run(["table", *argv]) == 3
        out, err = capsys.readouterr()
        assert "nan" not in out
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error: ") and "condition" in err[0]

    def test_unknown_model(self, tmp_path):
        assert run(["simulate", "--model", "nope", "--jumps", "1",
                    "--out", str(tmp_path / "x")]) == 2


# the work each command does after its --out is checked, and argv that would run it
OUT_COMMANDS = {
    "simulate": ("processes.stit_simulate",
                 ["simulate", "--model", "stit", "--jumps", "3000", "--seed", "1"]),
    "render": ("read_trace", ["render", "t.jsonl"]),
    "table": ("dist.stit_jump_cdf", ["table", "stit-cdf", "--L", "1,1.5", "--t", "1"]),
    "verify": ("stats.run_identity_suite", ["verify", "--suite", "identities"]),
}


class TestOutputPaths:
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    @pytest.mark.parametrize("out", ["missing/x.out", "dir", "dir/"])
    def test_unwritable_out_exits_2_before_any_work(self, command, out, tmp_path, monkeypatch,
                                                   capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        work, argv = OUT_COMMANDS[command]
        module, _, name = work.rpartition(".")
        monkeypatch.setattr(getattr(cli, module) if module else cli, name, no_work)
        (tmp_path / "dir").mkdir()
        assert run(argv + ["--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir"]

    @pytest.mark.parametrize("command", ["render", "table", "verify"])
    def test_empty_out_exits_2(self, command, capsys):
        assert run(OUT_COMMANDS[command][1] + ["--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out must be a nonempty file path, got ''\n"

    @pytest.mark.parametrize("out", ["missing/rep.json", "rep\0.json", 5])
    def test_config_out_is_checked_too(self, out, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / out) if isinstance(out, str) else out}))
        assert run(["verify", "--suite", "identities", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json"]


# argv pieces for the output-contract fuzz: valid and invalid values of each
# input (by dest), kept small so that no valid combination runs long
FUZZ_VALUES = {
    "L": ["1,1.5", "1,1.5,2.2", "1,1.4,2.1,2.9", ",".join(str(1 + 0.5 * i) for i in range(17)),
          "1,abc", "", "1,0.5"],
    "rate": ["1", "2.5", "0", "nan"],
    "t": ["0.5", "0:2:0.5", "1,2", "40", "-1", "abc"],
    "n": ["3", "1", "0"],
    "k": ["0:3", "2", "3:1"],
    "Lk": ["1.5", "2.2", "nan"],
    "l": ["1:3", "2", "x"],
    "ell": ["2", "3", "99"],
    "n_grid": ["2:5", "4", "5:2"],
    "seed": ["0", "5", "-1"],
    "seeds": ["0:1", "1:0", "x"],
    "window": ["triangle"],
    "mutate": ["wrong-rate"],
}
FUZZ_OUTS = ["", "missing", "dir", "file", "file", "file", None, None, None]


@st.composite
def _table_or_verify_argv(draw):
    """A table law or the identities suite with a few of the inputs it takes,
    sometimes one it does not take, and an --out of each kind."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(TABLE.entries)))
        argv, entry = ["table", name], TABLE.entries[name]
    else:
        argv, entry = ["verify", "--suite", "identities"], VERIFY.entries["identities"]
    takes = entry.takes.split() + (["seed", "seeds"] if argv[0] == "verify" else [])
    needs = [group.split("|")[0] for group in entry.needs.split()]
    flags = needs + draw(st.lists(st.sampled_from(sorted({*takes} - {*needs})), unique=True))
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_VALUES.keys() - {*takes}))))
    for flag in flags:
        argv += [_option(flag), draw(st.sampled_from(FUZZ_VALUES[flag]))]
    return argv, draw(st.sampled_from(FUZZ_OUTS))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_table_or_verify_argv())
def test_output_contract_fuzz(case):
    """Any table or identities argv exits 0, 2 or 3 without a traceback; an
    unwritable --out exits 2, and exit 2 writes no file."""
    argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "dir").mkdir()
        paths = {"": "", "missing": str(root / "missing" / "x"), "dir": str(root / "dir"),
                 "file": str(root / "x")}
        full = argv if out is None else argv + ["--out", paths[out]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(full)
        assert code in (0, 2, 3), (full, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if out in ("", "missing", "dir"):
            assert code == 2, (full, err.getvalue())
        written = sorted(str(p.relative_to(root)) for p in root.rglob("*"))
        if code == 0 and out == "file":
            assert written == ["dir", "x"]
        else:
            assert written == ["dir"], (full, code)


# argv pieces for the simulate and render fuzz.  Stop values are small, and
# --t lies on both sides of the expected-work guards: for the equally-likely
# clock W * t = log1p(10**6), t = 3.45 on the unit square under iso:1; for
# STIT 10**6 expected jumps, t = 564 there.  STIT is asked for t <= 5 (about
# 100 cells under iso:1) or t = 2000, past its guard for every window and
# measure here
RUN_FUZZ_VALUES = {
    "t": ["0", "0.4", "1", "5", "40", "2000", "-1", "nan"],
    "jumps": ["0", "3", "12", "-2"],
    "decisions": ["0", "5", "40", "-1"],
    "window": ["unit-square", "triangle", "[[0,0],[1,0]]"],
    "measure": ["iso:1", "iso:2", "dirs:0:1,1.5:2", "iso:1e-320", "iso:x"],
    "seed": ["0", "7", "-1"],
    "at": ["0", "2", "0.5", "-1", "nan", "inf"],
}
RENDER_TRACES = ["trace", "trace", "empty", "malformed", "bad-cell", "missing", "dir"]
RUN_OUTS = ["file", "file", "file", "file", "file", "", "missing", "dir", None]


@st.composite
def _simulate_or_render_argv(draw):
    """A model with one flag of each of its needs and a few more inputs,
    sometimes one it does not take, or a render of a trace of each kind; and
    an --out of each kind."""
    if draw(st.booleans()):
        argv = ["render", "@" + draw(st.sampled_from(RENDER_TRACES))]
        if draw(st.booleans()):
            argv += ["--at", draw(st.sampled_from(RUN_FUZZ_VALUES["at"]))]
        return argv, draw(st.sampled_from(RUN_OUTS))
    name = draw(st.sampled_from(sorted(SIMULATE.entries)))
    entry = SIMULATE.entries[name]
    takes = [*entry.takes.split(), "window", "measure", "seed"]
    flags = [draw(st.sampled_from(group.split("|"))) for group in entry.needs.split()]
    flags = [f for f in flags if f != "out"]
    flags += draw(st.lists(st.sampled_from(sorted({*takes} - {*flags})), unique=True))
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(sorted({"t", "jumps", "decisions"} - {*takes}))))
    argv = ["simulate", "--model", name]
    for flag in flags:
        values = RUN_FUZZ_VALUES[flag]
        if name == "stit" and flag == "t":
            values = [v for v in values if v != "40"]
        argv += [_option(flag), draw(st.sampled_from(values))]
    return argv, draw(st.sampled_from(RUN_OUTS))


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_simulate_or_render_argv())
@example(case=(["simulate", "--model", "stit", "--t", "2000"], "file"))
@example(case=(["simulate", "--model", "stit", "--t", "2000", "--window", "triangle",
                "--measure", "dirs:0:1,1.5:2"], "file"))
@example(case=(["render", "@bad-cell"], "file"))
def test_run_contract_fuzz(case):
    """Any simulate or render argv exits 0, 2 or 3 without a traceback; exit 2
    prints one error line and writes no file."""
    argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "dir").mkdir()
        traces = {"trace": root / "in.jsonl", "empty": root / "empty.jsonl",
                  "malformed": root / "bad.jsonl", "bad-cell": root / "cell.jsonl",
                  "missing": root / "nope.jsonl", "dir": root / "dir"}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--model", "mecke-discrete", "--decisions", "12",
                         "--out", str(traces["trace"])]) == 0
            assert main(["simulate", "--model", "stit", "--jumps", "3",
                         "--out", str(traces["bad-cell"])]) == 0
        traces["empty"].write_text("")
        traces["malformed"].write_text("{\n")
        lines = traces["bad-cell"].read_text().splitlines()
        lines[3] = json.dumps({**json.loads(lines[3]), "cell": 7})  # three slots, 0..2
        traces["bad-cell"].write_text("\n".join(lines) + "\n")
        before = sorted(p.name for p in root.rglob("*"))
        paths = {"": "", "missing": str(root / "missing" / "x"), "dir": str(root / "dir"),
                 "file": str(root / "x")}
        full = [str(traces[a[1:]]) if a.startswith("@") else a for a in argv]
        full = full if out is None else full + ["--out", paths[out]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(full)
        assert code in (0, 2, 3), (full, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if out in ("", "missing", "dir"):
            assert code == 2, (full, err.getvalue())
        if code == 2:  # one error line; argparse puts its usage before it
            lines = [line for line in err.getvalue().splitlines()
                     if not line.startswith(("usage: ", " "))]
            assert len(lines) == 1 and "error: " in lines[0], (full, err.getvalue())
        written = sorted(p.name for p in root.rglob("*"))
        expected = sorted(before + ["x"]) if code == 0 and out == "file" else before
        assert written == expected, (full, code)
