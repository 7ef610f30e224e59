import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stitlab
from stitlab.cli import main, parse_float_grid, parse_int_grid, parse_measure, parse_window
from stitlab.errors import ConfigError
from stitlab.line_measure import DirectionMixture, IsotropicMeasure
from stitlab.processes import ModelTag
from stitlab.trace_io import read_trace, write_trace


def run(args):
    return main(list(args))


def test_cli_import_does_not_load_scipy_stats():
    src = str(Path(stitlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, stitlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "stit", "jumps": 2, "bogus": 1}))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_missing_stop_rule_is_config_error(self, tmp_path):
        code = run(["simulate", "--model", "stit", "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

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

    def test_rejected_decisions_draw_no_chord(self, tmp_path):
        trace_file = tmp_path / "m.jsonl"
        run(["simulate", "--model", "mecke-discrete", "--decisions", "60", "--seed", "11",
             "--out", str(trace_file)])
        trace = read_trace(trace_file)
        assert trace.jump_count < len(trace.events)  # seed 11 has rejections
        svg = tmp_path / "m.svg"
        run(["render", str(trace_file), "--out", str(svg)])
        assert svg.read_text().count("<line") == trace.jump_count

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

    def test_mutation_exits_1(self, tmp_path):
        code = run(["verify", "--suite", "equivalence", "--seed", "7",
                    "--replicas", "800", "--t-grid", "0.8",
                    "--mutate", "poisson-clock"])
        assert code == 1


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
            ["table", "stit-cdf", "--L", "1,abc"],
            ["table", "stit-cdf", "--L", "1,0.5"],
            ["table", "jump-pmf", "--L", "1,1.5", "--ell", "2", "--rate", "0"],
            ["table", "mecke-tail", "--L", "1,1.5,1.5", "--ell", "2"],
            ["table", "cowan-pmf", "--rate", "0", "--t", "1"],
            ["table", "cowan-pmf", "--t", "1", "--k", "a:b"],
            ["table", "waiting-pmf", "--n", "0", "--Lk", "1.5"],
            ["table", "waiting-pmf", "--n", "3", "--Lk", "nan"],
            ["table", "stit-cdf", "--L", "1,1.5", "--t", "nan"],
            ["table", "stit-cdf", "--L", "1,1.5", "--t", "abc"],
            ["table", "stit-cdf", "--L", "1,1.5", "--t", "0:1e9:1e-9"],
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
        ],
        ids=" ".join,
    )
    def test_bad_input_exits_2_with_one_line(self, argv, tmp_path, capsys):
        if argv[0] == "simulate":
            argv = argv + ["--out", str(tmp_path / "x.jsonl")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize(
        "config", [{"replicas": 0}, {"time_grid": [0.2, -1.0]}, {"time_grid": 0.5}]
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
        # rate * t = 40: 1 - exp(-rate * t) rounds to 1, and the tail series cannot close
        assert run(["table", "mecke-tail", "--L", "1,1.5,2.2", "--ell", "2", "--t", "40"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime error: ")

    def test_unknown_model(self, tmp_path):
        assert run(["simulate", "--model", "nope", "--jumps", "1",
                    "--out", str(tmp_path / "x")]) == 2
