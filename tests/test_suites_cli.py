import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from valgeo import bodies as B
from valgeo.cli import main
from valgeo.suites import (
    RunConfig,
    SUITE_NAMES,
    config_from_sources,
    emit_plot_data,
    load_config_file,
    run_suite,
    SuiteReport,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestConfig:
    def test_load_flat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\nsamples=500   # budget\n\nformat = csv\ntol.kubota = 0.5\n")
        values = load_config_file(str(path))
        cfg = config_from_sources(values)
        assert cfg.seed == 7
        assert cfg.samples == 500
        assert cfg.fmt == "csv"
        assert cfg.tol("kubota", 0.02) == 0.5

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\nsamples = 500\n")
        cfg = config_from_sources(load_config_file(str(path)), seed=11)
        assert cfg.seed == 11
        assert cfg.samples == 500

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed 7\n")
        with pytest.raises(ValueError):
            load_config_file(str(path))

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            config_from_sources({"samples": "0"})
        with pytest.raises(ValueError):
            config_from_sources({"tol.x": "-1"})
        with pytest.raises(ValueError):
            config_from_sources({"format": "xml"})

    def test_dim_list_parsing(self):
        cfg = config_from_sources({"dim": "3, 4"})
        assert cfg.dimensions == [3, 4]


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nope", RunConfig())

    def test_claim23_passes(self):
        report = run_suite("claim23", RunConfig(seed=5, samples=40))
        assert report.passed
        assert report.suite == "claim23"
        assert report.seed == 5

    def test_steiner_builds_each_r3_body_once(self, monkeypatch):
        # make_cube(3) and make_simplex(3) serve all three of steiner's case
        # lists, so each is hull-reduced once and its face record built once.
        made, built = [], []
        for name in ("make_cube", "make_simplex"):
            def make(n, *args, real=getattr(B, name), **kwargs):
                p = real(n, *args, **kwargs)
                if n == 3:
                    made.append(p)
                return p
            monkeypatch.setattr(B, name, make)
        record = B._face_record
        monkeypatch.setattr(B, "_face_record", lambda p: (built.append(p), record(p))[1])
        run_suite("steiner", RunConfig(seed=1234, samples=2048))
        assert len(made) == 2
        assert [sum(q is p for q in built) for p in made] == [1, 1]

    def test_lambda_planar_check_catches_a_perimeter_error(self, monkeypatch):
        # The planar check's oracle is the zonotope perimeter of the cube's
        # shadow, not gift wrapping, so 1% more perimeter from gift wrapping
        # moves the estimate alone and fails the 1e-9 check.
        wrap = B.shadow_area_perimeter
        monkeypatch.setattr(B, "shadow_area_perimeter",
                            lambda points: tuple(x * w for x, w in zip(wrap(points), (1.0, 1.01))))
        report = run_suite("lambda", RunConfig(seed=1234, samples=2048))
        (record,) = [r for r in report.records if r["name"] == "lambda/projection-valuation-planar"]
        assert not record["pass"]

    def test_reports_byte_identical(self):
        cfg = RunConfig(seed=3, samples=2000, dimensions=[3])
        a = run_suite("angles", cfg).to_json()
        b = run_suite("angles", cfg).to_json()
        assert a == b

    def test_wall_time_not_serialized(self):
        report = run_suite("claim23", RunConfig(samples=10))
        assert report.wall_time_s > 0
        assert "wall" not in report.to_json()

    def test_csv_format(self):
        report = run_suite("claim23", RunConfig(samples=10))
        csv = report.to_csv()
        assert csv.splitlines()[0] == "name,expected,observed,tolerance,pass"
        assert len(csv.splitlines()) == len(report.records) + 1

    def test_report_files_written(self, tmp_path):
        cfg = RunConfig(samples=10, out_dir=str(tmp_path))
        run_suite("claim23", cfg)
        assert (tmp_path / "claim23_report.json").exists()

    def test_bodies_file_roundtrip(self, tmp_path):
        bodies = [B.make_cube(3), B.make_simplex(3)]
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([B.polytope_to_json(p) for p in bodies]))
        from valgeo.suites import _load_bodies

        cfg = RunConfig(bodies_file=str(path))
        loaded = _load_bodies(cfg, 3, 1)
        assert len(loaded) == 2
        wrong = RunConfig(bodies_file=str(path))
        with pytest.raises(ValueError):
            _load_bodies(wrong, 4, 1)


class TestPlotData:
    def test_lefschetz_plot_rows(self, tmp_path):
        cfg = RunConfig(seed=2, samples=20_000, dmax=4, out_dir=str(tmp_path))
        report = run_suite("lefschetz", cfg)
        path = tmp_path / "eigenvalue_vs_degree.csv"
        assert path.exists()
        rows = path.read_text().strip().splitlines()
        assert len(rows) - 1 == 4 // 2 + 1

    def test_empty_report_warns(self, tmp_path):
        empty = SuiteReport(suite="x", seed=0, records=[])
        with pytest.warns(UserWarning):
            written = emit_plot_data(empty, str(tmp_path))
        assert written == []

    def test_numpy_scalars_written_as_numbers(self, tmp_path):
        rows = [[np.int64(2), np.float64(3.1418491722332025), 0.1],
                [3, np.float64(-1e-300), np.float64(2.0)]]
        report = SuiteReport(
            suite="x", seed=0,
            records=[{"name": "c", "expected": 1.0, "observed": 1.0,
                      "tolerance": 0.1, "pass": True}],
            extras={"table": {"columns": ["k", "ratio", "err"], "rows": rows}},
        )
        (path,) = emit_plot_data(report, str(tmp_path))
        header, *lines = path.read_text().strip().splitlines()
        assert header == "k,ratio,err"
        cells = [[float(c) for c in line.split(",")] for line in lines]
        assert cells == [[2.0, 3.1418491722332025, 0.1], [3.0, -1e-300, 2.0]]
        assert lines[0] == "2,3.1418491722332025,0.1"

    def test_kubota_convergence_table(self, tmp_path):
        cfg = RunConfig(seed=4, samples=8000, out_dir=str(tmp_path))
        run_suite("kubota", cfg)
        rows = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert rows[0] == "samples,stderr"
        assert len(rows) == 4


class TestCli:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        code = main(["claim23", "--samples", "20", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_exit_two_on_unknown_suite(self, capsys):
        code = main(["not-a-suite"])
        assert code == 2

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed 7\n")
        code = main(["claim23", "--config", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["claim23", "--dim", "3"],
        ["angles", "--dim", "1"],
        ["lefschetz", "--dim", "5"],
        ["lefschetz", "--dmax", "7"],
        ["lefschetz", "--dim", "3", "--dim", "4"],
        ["kubota", "--dim", "3"],
        ["steiner", "--dim", "3"],
        ["lemma22", "--dim", "7"],
        ["lemma24", "--dim", "4"],
        ["hadwiger", "--dim", "3"],
        ["lambda", "--dim", "3"],
    ])
    def test_exit_two_on_unsupported_setting(self, argv, capsys):
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exit_two_on_missing_bodies_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"bodies = {tmp_path / 'missing.json'}\n")
        assert main(["hadwiger", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exit_two_on_wrong_dimension_bodies(self, tmp_path):
        path = tmp_path / "bodies.json"
        path.write_text(json.dumps([B.polytope_to_json(B.make_cube(4))]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"bodies = {path}\n")
        assert main(["lambda", "--config", str(cfg)]) == 2

    def test_mid_suite_errors_not_masked(self, monkeypatch):
        # Only the up-front checks map to exit 2; a failure inside a suite
        # still surfaces as an exception.
        from valgeo import suites

        def broken(cfg):
            raise ValueError("raised mid-suite")

        monkeypatch.setitem(suites._SUITE_FUNCS, "claim23", broken)
        with pytest.raises(ValueError, match="mid-suite"):
            main(["claim23"])

    def test_exit_one_on_failed_check(self, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("tol.angle_mc = 1e-15\n")
        code = main(
            ["angles", "--samples", "500", "--dim", "3", "--config", str(cfg)]
        )
        assert code == 1

    def test_config_flag_roundtrip(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("samples = 20\nout = " + str(tmp_path) + "\nformat = csv\n")
        code = main(["claim23", "--config", str(cfgfile)])
        assert code == 0
        assert (tmp_path / "claim23_report.csv").exists()

    def test_subprocess_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "valgeo", "claim23", "--samples", "20",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout

    def test_cli_determinism_bytes(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["claim23", "--samples", "30", "--seed", "9", "--out", str(out1)])
        main(["claim23", "--samples", "30", "--seed", "9", "--out", str(out2)])
        a = (out1 / "claim23_report.json").read_bytes()
        b = (out2 / "claim23_report.json").read_bytes()
        assert a == b


def test_all_suites_registered():
    assert set(SUITE_NAMES) == {
        "angles", "kubota", "steiner", "claim23", "lemma22",
        "lemma24", "lefschetz", "hadwiger", "lambda",
    }
