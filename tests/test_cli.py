import json

import pytest

from predbif.cli import parse_config, params_from_config, run, to_json

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

    def test_success_is_exit_zero(self, gold_cfg, tmp_path):
        assert run(["equilibria", "--config", gold_cfg, "--out", str(tmp_path)]) == 0


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, gold_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run(["stability", "--config", gold_cfg, "--out", str(out)]) == 0
        assert (out1 / "stability.json").read_bytes() == (out2 / "stability.json").read_bytes()

    def test_to_json_sorted_and_reparses(self):
        text = to_json({"b": [1.5, float("nan")], "a": {"z": True, "y": None}})
        assert text.index('"a"') < text.index('"b"')
        parsed = json.loads(text.replace("NaN", '"NaN"'))
        assert parsed["a"] == {"z": True, "y": None}


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
        # the quartic transcription diagnostic must surface in the report
        assert any("coefficient" in d.lower() for d in rep["diagnostics"])
        assert not any("np.float64(" in d for d in rep["diagnostics"])

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
