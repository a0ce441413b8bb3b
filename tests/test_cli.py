"""Command-line interface: artifacts, schemas, exit codes."""

import json
import math

import numpy as np
import pytest

from curved_sitnikov import cli
from curved_sitnikov.cli import (EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK,
                                 EXIT_VERIFY, ConfigError, main, parse_grid,
                                 parse_qstar)
from curved_sitnikov.floquet import MonodromyError
from curved_sitnikov.integrate import StiffnessError
from curved_sitnikov.kepler import KeplerConvergenceError
from curved_sitnikov.model import CollisionError
from curved_sitnikov.verification import CheckResult


class TestGridParsing:
    def test_basic(self):
        np.testing.assert_allclose(parse_grid("0:1:0.25"),
                                   [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_inclusive_endpoint_with_uneven_step(self):
        grid = parse_grid("0:1:0.3")
        np.testing.assert_allclose(grid, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_rejects_malformed(self):
        for bad in ("0:1", "a:b:c", "1:0:0.1", "0:1:-0.1"):
            with pytest.raises(ConfigError):
                parse_grid(bad)

    def test_qstar(self):
        assert parse_qstar("0") == 0.0
        assert parse_qstar("pi") == math.pi
        with pytest.raises(ConfigError):
            parse_qstar("1.57")


class TestCommands:
    def test_kepler_table(self, tmp_path):
        out = tmp_path / "eph.csv"
        code = main(["kepler", "--eps", "0.3", "--t", "0:1:0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "t,u,rho,x1x,x1y,x1z,x2x,x2y,x2z"
        assert len(lines) == 5
        rho0 = float(lines[2].split(",")[2])
        assert rho0 == pytest.approx(0.7)

    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--r", "1.0", "--eps", "0", "--q0", "0.3",
                     "--p0", "0.0", "--t-final", "6.0", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == "t,q,p,s"
        assert len(lines) > 3

    def test_floquet_verdict(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = main(["floquet", "--qstar", "pi", "--r", "1.0", "--eps", "0",
                     "--out", str(out)])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["class"] == "hyperbolic"
        assert record["config"]["command"] == "floquet"

    def test_scan_artifacts(self, tmp_path):
        csv_out = tmp_path / "trace.csv"
        json_out = tmp_path / "intervals.json"
        code = main(["scan", "--qstar", "pi", "--eps", "0",
                     "--r", "1.2:1.27:0.005", "--out-csv", str(csv_out),
                     "--out-json", str(json_out)])
        assert code == EXIT_OK
        record = json.loads(json_out.read_text())
        assert len(record["transitions"]) == 1
        lo, hi = record["transitions"][0]["r_bracket"]
        assert 0.5 * (lo + hi) == pytest.approx(1.2349418, abs=1e-4)
        assert csv_out.read_text().splitlines()[1] == "r,half_trace"

    def test_census_json(self, tmp_path):
        out = tmp_path / "census.json"
        code = main(["census", "--eps", "0", "--ceiling-fraction", "0.99",
                     "--start-fraction", "0.9", "--budget", "80",
                     "--out", str(out)])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["count"] >= 1
        assert record["evaluations"] <= 80

    def test_poincare_artifacts(self, tmp_path):
        csv_out = tmp_path / "cloud.csv"
        man_out = tmp_path / "cloud.json"
        code = main(["poincare", "--r", "1.0", "--eps", "0",
                     "--q-grid", "0:0.2:0.2", "--p-grid", "0:0:1",
                     "--iterates", "3", "--out", str(csv_out),
                     "--manifest", str(man_out)])
        assert code == EXIT_OK
        lines = csv_out.read_text().splitlines()
        assert lines[1] == "orbit_id,iter,q,p"
        assert len(lines) == 2 + 2 * 3
        manifest = json.loads(man_out.read_text())
        assert manifest["config"]["command"] == "poincare"

    def test_bounds_report(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--r", "1.8", "--eps", "0",
                     "--lam", "0.2,0.1", "--out", str(out)])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["pair"] == "sitnikov_near"
        assert [r["delta"] for r in record["reports"]] == pytest.approx(
            [0.2, 0.1], abs=1e-8)

    def test_bounds_from_curve_file(self, tmp_path):
        spec_path = tmp_path / "pair.json"
        spec_path.write_text(json.dumps({"family": "line"}))
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--curve-file", str(spec_path), "--lam", "0.05",
                     "--out", str(out)])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["pair"] == "line"
        assert record["reports"][0]["a_min"] == pytest.approx(8000.0, rel=1e-6)


class TestExitCodes:
    def test_config_error_from_bad_params(self, capsys):
        assert main(["floquet", "--qstar", "pi", "--r", "3.0",
                     "--eps", "0"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_config_error_from_argparse(self):
        assert main(["floquet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("description, out_name", [
        (None, "out.json"),
        ({"family": "line"}, "absent/out.json"),
        ([{"family": "line"}], "out.json"),
        ({"family": "sitnikov_near", "params": {"r": 1.5, "epsilion": 0.3}},
         "out.json"),
        ({"family": "line", "params": {"lamb": 0.1}}, "out.json"),
    ], ids=["missing-curve-file", "missing-out-dir", "list-curve-file",
            "sitnikov-unknown-key", "line-unknown-key"])
    def test_bad_files_and_curve_params_exit_one(self, tmp_path, capsys,
                                                  description, out_name):
        curve, out = tmp_path / "pair.json", tmp_path / out_name
        if description is not None:
            curve.write_text(json.dumps(description))
        assert main(["bounds", "--curve-file", str(curve), "--lam", "0.1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_help_is_success(self):
        assert main(["--help"]) == EXIT_OK

    @pytest.mark.parametrize("error", [
        CollisionError(1, 1e-12),
        StiffnessError("step size underflow"),
        KeplerConvergenceError("no convergence"),
        MonodromyError("det deviates from 1"),
    ], ids=lambda e: type(e).__name__)
    def test_domain_error_maps_to_two(self, monkeypatch, capsys, error):
        def boom(args):
            raise error

        monkeypatch.setattr(cli, "cmd_census", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["census"])
        monkeypatch.setattr(args, "func", boom)
        # go through main's dispatch by monkeypatching the parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: _FixedParser(args))
        assert main(["census"]) == EXIT_DOMAIN
        assert "domain error" in capsys.readouterr().err

    def test_verify_maps_failures_to_three(self, monkeypatch):
        def fake_run_all(quick=False):
            return [CheckResult("x", False, "boom", 0.0)]

        monkeypatch.setattr(cli.verification, "run_all",
                            lambda quick: fake_run_all(quick))
        assert main(["verify", "--quick"]) == EXIT_VERIFY

        monkeypatch.setattr(cli.verification, "run_all",
                            lambda quick: [CheckResult("x", True, "ok", 0.0)])
        assert main(["verify", "--quick"]) == EXIT_OK


class _FixedParser:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args
