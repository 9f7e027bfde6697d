import json
import math
import random
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

import report_forms
from predbif import cli
from predbif import sim as simmod
from predbif.cli import build_parser, cmd_sweep, parse_config, params_from_config, run, to_json
from predbif.equilibria import classify_region, interior_equilibria, isocline_y
from predbif.errors import PredbifError
from predbif.model import ModelParams
from predbif.stability import classify_generic

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

#: the keys of one point of hopf.json
HOPF_KEYS = {"delta_H", "omega", "det", "l1", "transversality", "transversality_branch",
             "cycle_verdict", "equilibrium"}

GOLD_KV = """\
# worked-example parameters
params.a = 2
params.b = -2.82
params.c = 0.05
params.h = 0.1715598183
params.delta = 0.03070149222
params.eta = 0.1
params.m = 0.8
"""

BT_SEED_KV = GOLD_KV.replace("0.1715598183", "0.17").replace("0.03070149222", "0.03")


@pytest.fixture()
def gold_cfg(tmp_path):
    path = tmp_path / "gold.cfg"
    path.write_text(GOLD_KV)
    return str(path)


@pytest.fixture()
def bt_cfg(tmp_path):
    path = tmp_path / "bt.cfg"
    path.write_text(BT_SEED_KV)
    return str(path)


class TestConfig:
    def test_key_value_parsing(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("params.a = 2\nsimulate.t_end = 50  # comment\nname = run1\n")
        cfg = parse_config(path)
        assert cfg == {"params": {"a": 2}, "simulate": {"t_end": 50}, "name": "run1"}

    def test_json_parsing(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"params": {"a": 2.0, "b": -1.0}}')
        assert parse_config(path)["params"]["b"] == -1.0

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("params.a 2\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError, match="missing params"):
            params_from_config({"params": {"a": 1.0}})

    def test_full_params_roundtrip(self, gold_cfg):
        p = params_from_config(parse_config(gold_cfg))
        assert p.a == 2.0 and p.h == 0.1715598183

    # numbers of the JSON grammar take a direct path; ١٢ (Arabic-Indic
    # digits) is a number to float() and to a regex's \d, not to JSON
    @pytest.mark.parametrize("text", [
        "25", "-0", "0.17", "1e-4", "1E+400", "-2.82", "12345678901234567890123", "01", "+1",
        "1.", ".5", "1_0", "0x10", "\u0661\u0662", "1\u0661", "0.\u0665", "NaN", "Infinity",
        "true", "null", '"x"', "[1, 2]"])
    def test_value_parses_as_json_loads_does(self, text, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text(f"v = {text}\n")
        try:
            want = json.loads(text)
        except json.JSONDecodeError:
            want = text
        got = parse_config(path)["v"]
        assert type(got) is type(want) and repr(got) == repr(want)


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert run(["equilibria", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate", "--config", "x"]) == 2

    def test_analysis_error_is_exit_one(self, gold_cfg, tmp_path, capsys):
        # a hopf scan across the interior fold loses the tracked branch
        cfg = tmp_path / "h.cfg"
        cfg.write_text(GOLD_KV.replace("0.1715598183", "0.1915598183")
                       + "hopf.delta_min = 0.0177\nhopf.delta_max = 0.0180\n"
                       + "hopf.n_samples = 60\nhopf.branch = 1\n")
        code = run(["hopf", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "BranchLost" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["equilibria", "stability", "hopf", "bt-locate",
                                         "bt-normal-form", "bt-curves", "sweep"])
    def test_float_overflow_is_no_traceback(self, command, tmp_path, capsys):
        # m = 1e200 is admissible, but the quartic's float powers overflow;
        # h < c everywhere, so no existence check settles a point first
        cfg = tmp_path / "huge_m.cfg"
        cfg.write_text(BT_SEED_KV.replace("params.m = 0.8", "params.m = 1e200")
                       .replace("params.h = 0.17", "params.h = 0.03")
                       + "sweep.h_min = 0.01\nsweep.h_max = 0.04\n"
                       + "sweep.c_min = 0.05\nsweep.c_max = 0.95\n")
        code = run([command, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        if command == "sweep":
            assert code == 0 and err == ""
            rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
            assert rows and all(row.endswith(",-1,error:OverflowError") for row in rows)
        else:
            assert code == 1
            assert err.startswith("predbif: OverflowError: ") and err.count("\n") == 1

    def test_huge_m_above_the_diagonal_has_no_interior_equilibrium(self, tmp_path, capsys):
        # h = 0.17 > c = 0.05 with m = 1e200: the existence interval bound
        # settles the point before the quartic's powers can overflow
        cfg = tmp_path / "huge_m.cfg"
        cfg.write_text(BT_SEED_KV.replace("params.m = 0.8", "params.m = 1e200"))
        out = str(tmp_path)
        assert run(["equilibria", "--config", str(cfg), "--out", out]) == 0
        kinds = [e["kind"] for e in json.loads((tmp_path / "equilibria.json").read_text())
                 ["results"]["equilibria"]]
        assert "Interior" not in kinds
        assert run(["hopf", "--config", str(cfg), "--out", out]) == 1
        assert capsys.readouterr().err.startswith("predbif: NoHopf: ")
        assert run(["sweep", "--config", str(cfg), "--out", out]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert sum(row.endswith(",0,") for row in rows) == 45
        assert sum(row.endswith(",-1,error:OverflowError") for row in rows) == 55

    def test_infinite_quartic_coefficient_is_an_error_row(self, tmp_path, capsys):
        # delta = 1e81 and m = 8e298 take the quartic's B and C to inf; on the
        # sweep's h = c points Cardano took the square root of -inf
        cfg = tmp_path / "inf_quartic.cfg"
        cfg.write_text(BT_SEED_KV.replace("params.m = 0.8", "params.m = 8e298")
                       .replace("params.delta = 0.03", "params.delta = 1e81"))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 100 and all(row.endswith(",-1,error:OverflowError") for row in rows)

    def test_success_is_exit_zero(self, gold_cfg, tmp_path):
        assert run(["equilibria", "--config", gold_cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("good, bad", [("params.a = 2", "params.a = 0"),
                                           ("params.b = -2.82", "params.b = -3.0"),
                                           ("params.m = 0.8", "params.m = 0")],
                             ids=["a_zero", "b_below_minus_two_sqrt_a", "m_zero"])
    def test_inadmissible_params_are_config_errors(self, good, bad, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BT_SEED_KV.replace(good, bad))
        assert run(["equilibria", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("predbif: config error: ")
        assert not (tmp_path / "equilibria.json").exists()

    def test_unknown_param_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(BT_SEED_KV + "params.typo = 3\n")
        assert run(["equilibria", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("predbif: config error: ") and "typo" in err
        assert not (tmp_path / "equilibria.json").exists()

    @pytest.mark.parametrize("command, line, key", [
        ("simulate", "simulate.t_end = abc", "simulate.t_end"),
        ("bt-curves", 'curves.n = "x"', "curves.n"),
        ("hopf", "hopf.n_sample = 50", "n_sample"),
        ("hopf", "hopf.n_samples = 120.5", "hopf.n_samples"),
        ("simulate", "simulate.t_end = NaN", "simulate.t_end"),
        ("sweep", "sweep = 5", "sweep"),
        ("hopf", "hopf.n_samples = 0", "hopf.n_samples"),
        ("hopf", "hopf.n_samples = 1", "hopf.n_samples"),
        ("hopf", "hopf.branch = -1", "hopf.branch"),
        ("bt-curves", "curves.n = -1", "curves.n"),
        ("sweep", "sweep.n_h = -1", "sweep.n_h"),
        ("simulate", "simulate.x0 = -0.1", "simulate.x0"),
        ("simulate", "simulate.t_end = -5", "simulate.t_end"),
        ("hopf", "hopf.delta_min = 0", "hopf.delta_min"),
        ("hopf", "hopf.delta_min = 0.02\nhopf.delta_max = 0.017863", "hopf.delta_max"),
        ("sweep", "sweep.h_min = -0.5", "sweep.h_min"),
        ("sweep", "sweep.h_min = 0.9\nsweep.h_max = 0.5", "sweep.h_max"),
        ("sweep", "sweep.c_min = -0.5", "sweep.c_min"),
        ("sweep", "sweep.c_min = 0.9\nsweep.c_max = 0.5", "sweep.c_max"),
        ("bt-curves", "curves.lambda1_min = 1e-4\ncurves.lambda1_max = 0", "curves.lambda1_max"),
        ("bt-curves", "curves.lambda2_min = 1e-4\ncurves.lambda2_max = -1e-4",
         "curves.lambda2_max"),
    ], ids=["non_numeric_float", "non_numeric_int", "unknown_key", "non_integral_int", "nan",
            "section_not_a_table", "no_hopf_samples", "one_hopf_sample", "negative_branch",
            "negative_curve_samples", "negative_sweep_rows", "negative_x0", "negative_t_end",
            "zero_delta_min", "inverted_hopf_window", "negative_h_min", "inverted_h_range",
            "negative_c_min", "inverted_c_range", "inverted_lambda1_range",
            "inverted_lambda2_range"])
    def test_bad_command_option_is_config_error(self, command, line, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(GOLD_KV + line + "\n")
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("predbif: config error: ") and key in err
        assert not list(tmp_path.glob(f"{command}.*"))

    @pytest.mark.parametrize("command, name, text, key", [
        ("equilibria", "c.cfg", GOLD_KV.replace("params.a = 2", "params.a = [2]"), "params.a"),
        ("equilibria", "c.cfg", GOLD_KV.replace("params.a = 2", "params.a = null"), "params.a"),
        ("equilibria", "c.cfg", "params = 3\n" + GOLD_KV, "params"),
        ("equilibria", "c.json", '{"params": 7}', "params"),
        ("equilibria", "c.json", "[1, 2]", "table of sections"),
        ("simulate", "c.cfg", GOLD_KV + "simulate.t_end = 1e400\n", "simulate.t_end"),
        ("bt-curves", "c.cfg", GOLD_KV + "curves.lambda1_max = 1e400\n", "curves.lambda1_max"),
        ("hopf", "c.cfg", GOLD_KV + "hopf.delta_max = 1e400\n", "hopf.delta_max"),
        ("equilibria", "c.cfg", GOLD_KV.replace("params.a = 2", "params.a = true"), "params.a"),
        ("simulate", "c.cfg", GOLD_KV + "simulate.x0 = true\n", "simulate.x0"),
    ], ids=["param_list", "param_null", "params_value_then_key", "json_params_not_a_table",
            "json_top_level_list", "infinite_t_end", "infinite_lambda1_max",
            "infinite_delta_max", "param_bool", "option_bool"])
    def test_value_not_a_finite_number_is_config_error(self, command, name, text, key,
                                                       tmp_path, capsys):
        cfg = tmp_path / name
        cfg.write_text(text)
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("predbif: config error: ") and key in err
        assert not list(tmp_path.glob(f"{command}.*"))

    @pytest.mark.parametrize("argv", [["equilibria", "--tol", "1e-9"],
                                      ["equilibria", "--tol", "nan"],
                                      ["simulate", "--tol", "1e-20"],
                                      ["simulate", "--tol", "nan"],
                                      ["simulate", "--tol", "1e-2"]],
                             ids=["tol_on_equilibria", "nan_tol_on_equilibria",
                                  "tol_below_range", "nan_tol", "tol_above_range"])
    def test_tol_is_a_simulate_flag_in_range(self, argv, gold_cfg, tmp_path):
        out = tmp_path / "out"
        assert run(argv + ["--config", gold_cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_seed_flag_is_usage_error(self, gold_cfg, tmp_path):
        assert run(["equilibria", "--config", gold_cfg, "--out", str(tmp_path),
                    "--seed", "3"]) == 2
        assert not (tmp_path / "equilibria.json").exists()

    def test_parser_reused_across_runs(self, gold_cfg, tmp_path):
        assert run(["equilibria"]) == 2  # --config is required
        assert run(["equilibria", "--config", gold_cfg, "--out", str(tmp_path)]) == 0
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("under", [False, True], ids=["out_is_a_file", "out_under_a_file"])
    def test_out_that_cannot_be_a_directory_is_config_error(self, under, gold_cfg, tmp_path,
                                                             capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        assert run(["equilibria", "--config", gold_cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("predbif: config error: ")
        assert blocker.read_text() == ""


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, gold_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(["stability", "--config", gold_cfg, "--out", str(out)]) == 0
        assert (out1 / "stability.json").read_bytes() == (out2 / "stability.json").read_bytes()

    def test_repeated_bt_curves_byte_identical(self, bt_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(["bt-curves", "--config", bt_cfg, "--out", str(out),
                        "--format", "csv"]) == 0
        assert (out1 / "bt-curves.csv").read_bytes() == (out2 / "bt-curves.csv").read_bytes()

    def test_infinite_config_value_echo_reparses(self, tmp_path):
        # the echo keeps sections the command does not read, 1e400 as inf
        cfg = tmp_path / "inf.cfg"
        cfg.write_text((CONFIGS / "bt_example.cfg").read_text()
                       + "hopf.delta_min = 1e400\nhopf.delta_max = -1e400\n")
        assert run(["equilibria", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "equilibria.json").read_text()
        assert '"delta_max": -Infinity' in text and '"delta_min": Infinity' in text
        assert json.loads(text)["config"]["hopf"] == {"delta_min": math.inf,
                                                      "delta_max": -math.inf}

    def test_to_json_sorted_and_reparses(self):
        text = to_json({"b": [1.5, float("nan")], "a": {"z": True, "y": None}})
        assert text.index('"a"') < text.index('"b"')
        parsed = json.loads(text.replace("NaN", '"NaN"'))
        assert parsed["a"] == {"z": True, "y": None}


JSON_ONLY = {f: ["json"] for f in ("json", "csv", "svg")}
TABLE_AND_PLOT = {"json": ["csv", "json"], "csv": ["csv"], "svg": ["csv", "svg"]}

#: each command's shipped config, and the files it writes under each --format
FORMAT_FILES = {
    "equilibria": ("bt_example", JSON_ONLY),
    "stability": ("bt_example", JSON_ONLY),
    "hopf": ("hopf_example", JSON_ONLY),
    "bt-locate": ("bt_example", JSON_ONLY),
    "bt-normal-form": ("bt_example", JSON_ONLY),
    "bt-curves": ("bt_example", TABLE_AND_PLOT),
    "simulate": ("bt_example", TABLE_AND_PLOT),
    "sweep": ("sweep_regions", {f: ["csv"] for f in ("json", "csv", "svg")}),
}


class TestFormats:
    @pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
    @pytest.mark.parametrize("command", sorted(FORMAT_FILES))
    def test_files_written_per_format(self, command, fmt, tmp_path, capsys):
        config, files = FORMAT_FILES[command]
        assert run([command, "--config", str(CONFIGS / f"{config}.cfg"), "--out", str(tmp_path),
                    "--format", fmt]) == 0
        want = [str(tmp_path / f"{command}.{ext}") for ext in files[fmt]]
        assert capsys.readouterr().out.splitlines() == want
        assert sorted(str(p) for p in tmp_path.iterdir()) == sorted(want)

    def test_readme_cli_examples_run(self, tmp_path, monkeypatch):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line) for line in block.splitlines() if line.startswith("predbif ")]
        assert len(lines) == len(FORMAT_FILES)
        monkeypatch.chdir(ROOT)
        for argv in lines:
            argv = argv[1:]
            argv[argv.index("--out") + 1] = str(tmp_path)
            assert run(argv) == 0, argv


class TestReports:
    def test_equilibria_report_structure(self, gold_cfg, tmp_path):
        assert run(["equilibria", "--config", gold_cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "equilibria.json").read_text())
        assert set(rep) == {"config", "results", "diagnostics", "versions"}
        assert rep["results"]["region"] == "K1"
        kinds = [e["kind"] for e in rep["results"]["equilibria"]]
        assert kinds.count("PredatorFree") == 2
        assert "Origin" in kinds and "PreyExtinction" in kinds
        assert rep["versions"]["backend"] in ("compiled", "python")
        # the printed quartic is a test-side transcription, not a report note
        assert rep["diagnostics"] == []

    @pytest.mark.parametrize("command", ["equilibria", "stability"])
    def test_shipped_bt_example_has_no_diagnostics(self, command, tmp_path):
        assert run([command, "--config", str(CONFIGS / "bt_example.cfg"),
                    "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / f"{command}.json").read_text())
        assert rep["diagnostics"] == []

    def test_bt_locate_golden_values(self, bt_cfg, tmp_path):
        assert run(["bt-locate", "--config", bt_cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "bt-locate.json").read_text())
        pts = rep["results"]["bt_points"]
        assert len(pts) == 1
        assert pts[0]["h_bt"] == pytest.approx(0.1715598183, abs=1e-6)
        assert pts[0]["delta_bt"] == pytest.approx(0.03070149222, abs=1e-6)
        assert pts[0]["x"] == pytest.approx(0.2187994431, abs=1e-6)
        assert pts[0]["y"] == pytest.approx(0.3127866314, abs=1e-6)

    def test_bt_normal_form_report(self, bt_cfg, tmp_path):
        assert run(["bt-normal-form", "--config", bt_cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "bt-normal-form.json").read_text())
        nf = rep["results"]["normal_forms"][0]
        assert nf["s"] == 1
        assert nf["g11_0"] == pytest.approx(-0.5922764628, rel=1e-4)
        assert nf["nondegeneracy"] == {"BT.1": True, "BT.2": True, "BT.3": True}
        assert "notes" not in nf
        assert rep["diagnostics"] == []

    def test_hopf_report_keys(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(GOLD_KV.replace("0.1715598183", "0.1915598183")
                       + "hopf.delta_min = 0.0177\nhopf.delta_max = 0.017863\n"
                       + "hopf.n_samples = 120\nhopf.branch = 1\n")
        assert run(["hopf", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "hopf.json").read_text())
        (pt,) = rep["results"]["hopf_points"]
        assert set(pt) == HOPF_KEYS
        assert pt["l1"] > 0 and pt["cycle_verdict"] == "Repelling"
        assert rep["diagnostics"] == []
        assert "tol" not in rep["config"]

    @pytest.mark.parametrize("h, x_hopf", [(0.1, 0.81857), (0.15, 0.77075)])
    def test_hopf_verdict_follows_l1(self, h, x_hopf, tmp_path):
        # two Hopf points just below a fold of their branch, where the
        # paper's printed coefficient would call the cycle stable
        base = ModelParams(a=2.0, b=-2.82, c=0.05, h=h, delta=1.0, eta=0.1, m=0.8)
        delta = base.eta * isocline_y(base, x_hopf) / (base.m + x_hopf)
        cfg = tmp_path / "h.cfg"
        cfg.write_text("".join(f"params.{k} = {v!r}\n" for k, v in base._asdict().items()
                               if k != "delta")
                       + f"params.delta = {0.99 * delta!r}\n"
                       + f"hopf.delta_min = {0.99 * delta!r}\n"
                       + f"hopf.delta_max = {1.0003 * delta!r}\n"
                       + "hopf.n_samples = 20\nhopf.branch = 3\n")
        assert run(["hopf", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        (pt,) = json.loads((tmp_path / "hopf.json").read_text())["results"]["hopf_points"]
        assert set(pt) == HOPF_KEYS
        assert pt["equilibrium"]["x"] == pytest.approx(x_hopf, abs=1e-5)
        assert pt["l1"] > 0 and pt["cycle_verdict"] == "Repelling"

    def test_simulate_reports_its_tol(self, gold_cfg, tmp_path):
        assert run(["simulate", "--config", gold_cfg, "--out", str(tmp_path),
                    "--tol", "1e-6"]) == 0
        rep = json.loads((tmp_path / "simulate.json").read_text())
        assert rep["results"]["tol"] == 1e-6
        assert "tol" not in rep["config"]

    def test_simulate_passes_its_step_budget(self, gold_cfg, tmp_path, monkeypatch):
        seen, integrate = {}, simmod.integrate

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(simmod, "integrate", spy)
        assert run(["simulate", "--config", gold_cfg, "--out", str(tmp_path)]) == 0
        assert seen == {"max_steps": cli.SIMULATE_MAX_STEPS, "on_failure": "keep"}
        assert cli.SIMULATE_MAX_STEPS == 100_000

    def test_simulate_stops_at_a_non_finite_state(self, tmp_path):
        # admissible but extreme parameters: the first step is NaN, which
        # ends the run as an escape instead of stepping on at the minimum
        # step until the budget runs out
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text((CONFIGS / "bt_example.cfg").read_text()
                       + "params.delta = 1.09e81\nparams.m = 8.1e298\n")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "simulate.json").read_text())["results"]
        assert res["terminated"] == "Escaped"
        assert 1 <= res["n_steps"] <= 5
        assert math.isnan(res["final"]["x"]) and math.isnan(res["final"]["y"])
        with open(tmp_path / "simulate.csv") as fh:
            assert sum(1 for _ in fh) == res["n_steps"] + 2

    def test_simulate_csv_schema(self, gold_cfg, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(GOLD_KV + "simulate.x0 = 0.5\nsimulate.y0 = 0.3\n"
                       + "simulate.t_end = 10\n")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                    "--format", "csv"]) == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert lines[0] == "t,x,y"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first == [0.0, 0.5, 0.3]
        assert last[0] == pytest.approx(10.0)

    def test_simulate_svg_written(self, gold_cfg, tmp_path):
        assert run(["simulate", "--config", gold_cfg, "--out", str(tmp_path),
                    "--format", "svg"]) == 0
        svg = (tmp_path / "simulate.svg").read_text()
        assert svg.startswith("<svg ")
        assert "<polyline" in svg

    def test_bt_curves_csv_schema(self, bt_cfg, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BT_SEED_KV + "curves.lambda1_max = 5e-5\ncurves.n = 11\n")
        assert run(["bt-curves", "--config", str(cfg), "--out", str(tmp_path),
                    "--format", "csv"]) == 0
        lines = (tmp_path / "bt-curves.csv").read_text().splitlines()
        assert lines[0] == "curve,lambda1,lambda2,beta1,beta2"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"T", "H", "P"}

    @pytest.mark.parametrize("family", ["bt_example", "sweep_regions"])
    def test_sweep_rows_equal_the_per_point_path(self, family):
        # cmd_sweep builds each grid point without validating it again; every
        # row must be the one the public, validating path gives
        params = params_from_config(parse_config(CONFIGS / f"{family}.cfg"))
        rng = random.Random(family)
        grids = []
        for _ in range(3):
            h0, c0 = rng.uniform(0.01, 0.6), rng.uniform(0.01, 0.6)
            grids.append((h0, h0 + rng.uniform(0.05, 0.6), c0, c0 + rng.uniform(0.05, 0.6)))
        lo, hi = sorted((rng.uniform(0.01, 0.9), rng.uniform(0.01, 0.9)))
        grids.append((lo, hi, lo, hi))  # coinciding axes: the diagonal is exactly h = c
        grids.append((lo, lo + 4e-6, lo + 1e-6, lo + 5e-6))  # within 5e-6 of h = c
        on_diagonal = near_diagonal = 0
        for h_min, h_max, c_min, c_max in grids:
            _, (_, rows), _ = cmd_sweep(params, h_min=h_min, h_max=h_max, c_min=c_min,
                                        c_max=c_max, n_h=7, n_c=7)
            assert len(rows) == 49
            for hv, cv, *rest in rows:
                p = params.with_(h=hv, c=cv)
                try:
                    eqs = interior_equilibria(p)
                    want = [len(eqs), ";".join(classify_generic(p, e).label for e in eqs)]
                except (PredbifError, ArithmeticError) as exc:
                    want = [-1, f"error:{type(exc).__name__}"]
                assert rest == [classify_region(hv, cv), *want], (family, hv, cv)
                on_diagonal += hv == cv
                near_diagonal += 0 < abs(hv - cv) <= 5e-6
        assert on_diagonal >= 7 and near_diagonal >= 40

    def test_sweep_region_raster(self, gold_cfg, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(GOLD_KV + "sweep.n_h = 6\nsweep.n_c = 6\n")
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "h,c,region,n_interior,labels"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 36
        for hs, cs, region, n_int, _ in rows:
            hv, cv = float(hs), float(cs)
            if hv == cv:
                assert region == ("K2" if hv < 1.0 else "None")
            elif hv < cv:
                assert region == "K3"
            else:
                assert region in ("K1", "None")
            assert int(n_int) >= 0


#: floats at the edges of the 17-digit format, and non-finite ones
EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
               1e16, 1e-7, 123456789012345680.0, np.float64(0.1), np.float64(-math.inf),
               np.float64(math.nan)]

#: characters JSON escapes, non-ASCII ones (a surrogate pair and a lone
#: surrogate), the CSV separator, a format directive and the letters of the
#: non-finite spellings
STR_CHARS = list('ab"\\/\n\r\t\x00\x1f\x7fé€☃\U0001f600\ud800 ,%s') + [
    "inf", "nan", "Infinity", "NaN"]


def _rand_float(rng):
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(EDGE_FLOATS)
    if pick < 0.6:  # any bit pattern: subnormals, NaN payloads, both zeros
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    if pick < 0.8:
        return np.float64(rng.uniform(-1e3, 1e3))
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)


def _rand_str(rng):
    return "".join(rng.choice(STR_CHARS) for _ in range(rng.randint(0, 6)))


def _rand_scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.random() < 0.5
    if kind == 1:
        return rng.randint(-2**80, 2**80)
    if kind == 2:
        return None
    if kind == 3:
        return _rand_str(rng)
    return _rand_float(rng)


def _rand_value(rng, depth=0):
    if depth >= 4 or rng.random() < 0.5:
        return _rand_scalar(rng)
    n = rng.choice([0, 1, 2, 5])
    kind = rng.randrange(4)
    if kind == 0:
        return {_rand_str(rng): _rand_value(rng, depth + 1) for _ in range(n)}
    if kind == 1:
        return {rng.randint(-10**20, 10**20): _rand_value(rng, depth + 1) for _ in range(n)}
    items = [_rand_value(rng, depth + 1) for _ in range(n)]
    return items if kind == 2 else tuple(items)


class TestEmitters:
    """The one-pass emitters write the bytes of the per-value forms in
    ``tests/report_forms.py``."""

    def test_json_equals_per_value_form(self):
        rng = random.Random(28)
        deep_list, deep_dict = [], {}
        for _ in range(40):
            deep_list, deep_dict = [deep_list, 1.5], {"k": deep_dict, 7: None}
        values = [{}, [], (), deep_list, deep_dict, *EDGE_FLOATS]
        values += [_rand_value(rng) for _ in range(3000)]
        for value in values:
            if isinstance(value, dict) and len({type(k) for k in value}) > 1:
                continue  # mixed key types do not sort in either form
            text = cli.to_json(value)
            assert text == report_forms.to_json(value, 0), value
            json.loads(text)  # NaN and +-inf in the spellings json reads

    def test_csv_equals_per_value_form(self):
        rng = random.Random(29)
        header = ["t", "x", "label"]
        for _ in range(300):
            n = rng.choice([0, 1, 3, 20])
            rows = [[_rand_scalar(rng) for _ in range(rng.randint(0, 5))] for _ in range(n)]
            for given in (rows, [tuple(r) for r in rows]):
                assert cli._render_csv(header, given) == report_forms.render_csv(header, given)
            cols = [[_rand_float(rng) for _ in range(n)] for _ in range(3)]
            assert (cli._render_csv(header, zip(*cols))
                    == report_forms.render_csv(header, zip(*cols)))
        assert cli._render_csv([], []) == "\n"

    def test_svg_equals_per_value_form(self):
        rng = random.Random(30)
        cases = [[], [("black", [])], [("red", [(0.5, 0.25)])],
                 [("black", [(2.0, y) for y in (0.1, -3.0, 7.5)])],
                 [("black", [(x, 1.0) for x in (0.1, -3.0, 7.5)])]]
        for _ in range(200):
            # plain floats: numpy would warn on inf - inf
            cases.append([(color, [(float(_rand_float(rng)), float(_rand_float(rng)))
                                   for _ in range(rng.choice([0, 1, 2, 30]))])
                          for color in ("black", "red", "blue")[:rng.randint(1, 3)]])
        for _ in range(100):
            cases.append([("black", [(rng.uniform(-5, 5), np.float64(rng.uniform(0, 1)))
                                     for _ in range(50)])])
        for series in cases:
            assert (cli._render_svg(series, ("x", "y"))
                    == report_forms.render_svg(series, ("x", "y"))), series
