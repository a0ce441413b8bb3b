"""Command-line interface: artifacts, schemas, exit codes."""

import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curved_sitnikov import cli, model, scan, verification
from curved_sitnikov.cli import (EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK,
                                 EXIT_VERIFY, ConfigError, build_parser, main,
                                 parse_grid, parse_qstar)
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
        for bad in ("0:1", "a:b:c", "1:0:0.1", "0:1:-0.1", "1.0:inf:0.1",
                    "0:inf:1", "1.0:1.1:inf", "nan:1:0.1", "-inf:0:1"):
            with pytest.raises(ConfigError):
                parse_grid(bad)

    def test_size_limit_is_exact(self):
        assert parse_grid("0:999999:1").size == cli.MAX_GRID_POINTS
        # 10^6 steps, or 999,999 steps and the appended hi
        for bad in ("0:1000000:1", "0:999999.5:1", "0:1e300:1e-300"):
            with pytest.raises(ConfigError, match="more than 1000000 points"):
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

    def test_simulate_warns_on_collision_truncation(self, tmp_path, capsys,
                                                     monkeypatch):
        # inflated guard distance: the guard halts the orbit in period three
        monkeypatch.setattr(model, "D_MIN", 0.3)
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--r", "1.9", "--q0", str(math.pi - 0.5),
                     "--p0", "0", "--t-final", "31.4", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == \
            "warning: trajectory truncated by collision guard\n"
        t_last = float(out.read_text().splitlines()[-1].split(",")[0])
        assert t_last < 31.4

    def test_simulate_warns_on_a_start_inside_the_guard(self, tmp_path,
                                                         capsys):
        # q = pi lies 4e-10 from primary 2 at t = 0, within D_MIN
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--r", repr(2.0 - 4e-10), "--q0",
                     repr(math.pi), "--p0", "0", "--t-final", "1.0",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == \
            "warning: trajectory truncated by collision guard\n"
        assert len(out.read_text().splitlines()) == 3

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

    def test_floquet_full_period(self, capsys):
        # the antipode's coefficient has period pi, so the 2 pi monodromy
        # is the square of the pi one and its half-trace is 2 h^2 - 1
        records = {}
        for period in ("pi", "2pi"):
            assert main(["floquet", "--qstar", "pi", "--r", "1.0",
                         "--period", period]) == EXIT_OK
            records[period] = json.loads(capsys.readouterr().out)
        assert records["pi"]["period"] == math.pi
        assert records["2pi"]["period"] == 2.0 * math.pi
        h = records["pi"]["half_trace"]
        assert records["2pi"]["half_trace"] == pytest.approx(2 * h * h - 1,
                                                             abs=1e-9)

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


CSV_COMMANDS = {
    "kepler": ["kepler", "--eps", "0.3", "--t", "0:1:0.5"],
    "simulate": ["simulate", "--q0", "0.3", "--p0", "0", "--t-final", "1.0"],
    "scan": ["scan", "--qstar", "pi", "--r", "1.2:1.27:0.035"],
    "eps-scan": ["eps-scan", "--r", "1.0", "--eps-grid", "0:0.2:0.1"],
    "poincare": ["poincare", "--q-grid", "0:0.1:0.1", "--p-grid", "0:0:1",
                 "--iterates", "2"],
}


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_csv_artifact_contract(tmp_path, command):
    out = tmp_path / "out.csv"
    argv = CSV_COMMANDS[command] + [
        "--out-csv" if command == "scan" else "--out", str(out)]
    if command == "scan":
        argv += ["--out-json", str(tmp_path / "intervals.json")]
    assert main(argv) == EXIT_OK
    args = cli.build_parser().parse_args(argv)
    config = {k: v for k, v in vars(args).items()
              if k != "func" and v is not None}
    data = out.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data
    first, header = data.decode("utf-8").split("\n")[:2]
    assert first.startswith("# ")
    assert json.loads(first[2:]) == config
    assert header == {"kepler": "t,u,rho,x1x,x1y,x1z,x2x,x2y,x2z",
                      "simulate": "t,q,p,s", "scan": "r,half_trace",
                      "eps-scan": "epsilon,half_trace",
                      "poincare": "orbit_id,iter,q,p"}[command]


@pytest.mark.parametrize("argv, warning", [
    (["scan", "--qstar", "pi", "--r", "1.9:2.1:0.05"],
     "warning: 3 grid point(s) skipped (collision guard: 3)\n"),
    (["eps-scan", "--r", "1.0", "--eps-grid", "0.96:0.99:0.01"],
     "warning: 4 grid point(s) skipped (outside [0, 0.95]: 4)\n"),
    (["eps-scan", "--r", "1.9", "--eps-grid", "0:0.97:0.485"],
     "warning: 2 grid point(s) skipped "
     "(collision guard: 1; outside [0, 0.95]: 1)\n"),
    (["eps-scan", "--r", "1.0", "--eps-grid", "0:0.1:0.1"], ""),
], ids=["scan-guard", "eps-scan-cap", "eps-scan-both", "eps-scan-none"])
def test_skipped_grid_points_warning(capsys, argv, warning):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == warning


class TestNegativeGridBounds:
    # argparse took "-0.2:0.2:0.2" for an unknown option and exited with
    # "expected one argument" unless "=" joined it to its option
    def test_poincare_grids(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        assert main(["poincare", "--q-grid", "-0.2:0.2:0.2", "--p-grid",
                     "-0.1:0.1:0.1", "--iterates", "2",
                     "--out", str(tmp_path / "cloud.csv"),
                     "--manifest", str(manifest)]) == EXIT_OK
        grid = json.loads(manifest.read_text())["initial_grid"]
        assert len(grid) == 9
        assert grid[0] == pytest.approx([-0.2, -0.1])

    def test_kepler_time_grid(self, tmp_path):
        out = tmp_path / "kepler.csv"
        assert main(["kepler", "--t", "-1:1:0.5",
                     "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == [
            -1.0, -0.5, 0.0, 0.5, 1.0]

    @pytest.mark.parametrize("argv, warning", [
        (["scan", "--qstar", "pi", "--r", "-0.1:1.3:0.2"], "(r <= 0: 1)"),
        (["eps-scan", "--r", "1.0", "--eps-grid", "-0.1:0.1:0.1"],
         "(outside [0, 0.95]: 1)"),
    ], ids=["scan", "eps-scan"])
    def test_scan_grids(self, capsys, argv, warning):
        assert main(argv) == EXIT_OK
        assert warning in capsys.readouterr().err


def test_every_long_option_takes_a_negative_value():
    argv = ["--lam", "-0.1,0.5", "--q0=-1", "-.5", "--quick", ".5",
            "-1", "--s0", "-.2", "--p0", "-Infinity", "--r", "-NaN",
            "--eps", "-information"]
    assert cli._join_signed_values(argv) == [
        "--lam=-0.1,0.5", "--q0=-1", "-.5", "--quick", ".5", "-1",
        "--s0=-.2", "--p0=-Infinity", "--r=-NaN", "--eps", "-information"]


class TestExitCodes:
    def test_config_error_from_bad_params(self, capsys):
        assert main(["floquet", "--qstar", "pi", "--r", "3.0",
                     "--eps", "0"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scan", "--qstar", "pi", "--r", "1.0:inf:0.1"],
        ["scan", "--qstar", "pi", "--r", "1.0:1.1:inf"],
        ["kepler", "--t", "0:inf:1"],
    ], ids=["scan-inf-hi", "scan-inf-step", "kepler-inf-hi"])
    def test_non_finite_grid_exits_one(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: grid")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["kepler", "--t", "0:1e15:1"], "grid '0:1e15:1' has more than"),
        (["scan", "--qstar", "pi", "--r", "0:1e13:1"],
         "grid '0:1e13:1' has more than"),
        (["poincare", "--iterates", "2", "--q-grid", "0:1e7:1",
          "--p-grid", "0:1e7:1"], "grid '0:1e7:1' has more than"),
    ], ids=["kepler", "scan", "poincare"])
    def test_oversized_grid_exits_one(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        if argv[0] == "poincare":
            argv = argv + ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {message}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_oversized_cloud_exits_one_before_building_it(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        # a lower limit, so that code without the check fails fast: each
        # grid passes alone, their product does not
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 8)
        monkeypatch.setattr(cli, "section",
                            lambda *a, **k: pytest.fail("section ran"))
        out = tmp_path / "out.csv"
        assert main(["poincare", "--q-grid", "0:0.2:0.1", "--p-grid",
                     "0:0.2:0.1", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: a 3 x 3 initial grid has more than 8 "
            "orbits\n")
        assert not out.exists()

    def test_cloud_past_the_cap_exits_one(self, tmp_path, capsys,
                                          monkeypatch):
        # 2 orbits pass the orbit cap, their 10 points do not
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 8)
        monkeypatch.setattr(cli, "section",
                            lambda *a, **k: pytest.fail("section ran"))
        out = tmp_path / "out.csv"
        assert main(["poincare", "--iterates", "5", "--q-grid", "0:0:1",
                     "--p-grid", "0:0.1:0.1", "--out", str(out)]) == \
            EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: 5 iterates of a 1 x 2 initial grid make "
            "more than 8 points\n")
        assert not out.exists()

    def test_cloud_past_the_cap_exits_one_before_allocating(self, tmp_path):
        # a 7 TiB strobe array; under a 1 GiB address-space limit the run
        # is refused by the cap before numpy is asked for it
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = tmp_path / "out.csv"
        src = Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "curved_sitnikov.cli", "poincare",
             "--iterates", "1000000000000", "--q-grid", "0:0:1", "--p-grid",
             "0:0:1", "--out", str(out)], env=env, capture_output=True,
            text=True, timeout=120, preexec_fn=limit_memory)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (
            "configuration error: 1000000000000 iterates of a 1 x 1 initial "
            "grid make more than 1000000 points\n")
        assert not out.exists()

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 7.28 TiB"),
         "configuration error: Unable to allocate 7.28 TiB\n"),
        (MemoryError(), "configuration error: MemoryError\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch,
                                    error, line):
        def run_out(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "section", run_out)
        out = tmp_path / "out.csv"
        assert main(["poincare", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_bounds_gap_outside_range_exits_one(self, tmp_path, capsys):
        out = tmp_path / "bounds.json"
        for lam in ("-0.1", "2.0"):
            assert main(["bounds", f"--lam={lam}", "--out", str(out)]) == \
                EXIT_CONFIG
            assert "configuration error: lam" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("r, lam, detail", [
        ("0.5", "1.5", "a point of the grid at lam=1.5 is closer than the "
         "origin"),
        ("1e-18", "2.0", "lam=2.0 outside (0, 2)"),
    ], ids=["small-binary", "default-rounds-to-two"])
    def test_bounds_default_lam_names_r(self, tmp_path, capsys, r, lam,
                                        detail):
        # without --lam the gap is the command's own default, so the line
        # names the options it came from
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--r", r, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: no --lam, and the default lam = "
            f"2 - r(1+eps) = {lam} of --r {float(r)!r} and --eps 0.0 fails: "
            f"{detail}\n")
        assert not out.exists()

    def test_bounds_default_lam_collision_exits_two(self, tmp_path, capsys):
        # a CollisionError is a ValueError, and stays a domain error
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--r", "1.99999999999", "--out",
                     str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("domain error: distance ")
        assert not out.exists()

    def test_bounds_empty_lam_exits_one(self, tmp_path, capsys):
        # an empty list is a malformed one, as "0.1," is, not the default
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--lam", "", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["floquet", "--qstar", "0", "--r", "1e-300"], "out.json"),
        (["eps-scan", "--r", "1e-300", "--eps-grid", "0:0.1:0.1"], "out.csv"),
    ], ids=["floquet", "eps-scan"])
    def test_unrepresentable_coefficient_exits_two(self, tmp_path, capsys,
                                                    argv, name):
        # (r rho)^3 underflows to 0 below r ~ 1.7e-108, so the origin's
        # coefficient 2/(r rho)^3 divides by zero
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_error_from_argparse(self):
        assert main(["floquet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("description, out_name", [
        (None, "out.json"),
        ({"family": "line"}, "absent/out.json"),
        ([{"family": "line"}], "out.json"),
        ({"family": "sitnikov_near", "params": {"r": 1.5, "epsilion": 0.3}},
         "out.json"),
        ({"family": "sitnikov_near", "params": {"r": 1.5}}, "out.json"),
        ({"family": "line", "params": {"lamb": 0.1}}, "out.json"),
        ({"family": "line", "params": {"default_lam": 0.2}}, "out.json"),
        ({"family": "line", "params": {"lam_range": [0.01, 0.5]}},
         "out.json"),
    ], ids=["missing-curve-file", "missing-out-dir", "list-curve-file",
            "sitnikov-unknown-key", "sitnikov-missing-param",
            "line-unknown-key", "line-default-lam",
            "line-lam-range"])
    def test_bad_files_and_curve_params_exit_one(self, tmp_path, capsys,
                                                  description, out_name):
        curve, out = tmp_path / "pair.json", tmp_path / out_name
        if description is not None:
            curve.write_text(json.dumps(description))
        assert main(["bounds", "--curve-file", str(curve), "--lam", "0.1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("description, message", [
        ({"family": ["line"]},
         "curve \"family\" must be a string, got ['line']"),
        ({"family": "sitnikov_near", "params": {"r": "x"}},
         "curve param 'r' must be a number, got 'x'"),
        ({"family": "sitnikov_near", "params": {"r": None}},
         "curve param 'r' must be a number, got None"),
        ({"family": "sitnikov_near", "params": {"epsilon": "0"}},
         "curve param 'epsilon' must be a number, got '0'"),
        ({"family": "sitnikov_near", "params": {"r": True}},
         "curve param 'r' must be a number, got True"),
    ], ids=["family-list", "r-string", "r-null", "epsilon-string", "r-bool"])
    def test_malformed_curve_values_exit_one(self, tmp_path, capsys,
                                             description, message):
        curve, out = tmp_path / "pair.json", tmp_path / "out.json"
        curve.write_text(json.dumps(description))
        assert main(["bounds", "--curve-file", str(curve), "--lam", "0.1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_sitnikov_far_is_no_curve_family(self, tmp_path, capsys):
        # its closest approach is at t = +-1/2, so bounds could never run on it
        curve, out = tmp_path / "pair.json", tmp_path / "out.json"
        curve.write_text(json.dumps({"family": "sitnikov_far"}))
        assert main(["bounds", "--curve-file", str(curve), "--lam", "0.1",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: unknown curve family 'sitnikov_far'" \
            in err
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["-0.1", "0"])
    def test_line_pair_nonpositive_gap_exits_one(self, tmp_path, capsys, lam):
        curve, out = tmp_path / "pair.json", tmp_path / "out.json"
        curve.write_text(json.dumps({"family": "line"}))
        assert main(["bounds", "--curve-file", str(curve), f"--lam={lam}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error: lam" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lam, reason", [
        ("inf", "must be finite"),
        ("1e300", "gives a gap delta=1e+300 whose square overflows"),
    ], ids=["inf", "1e300"])
    def test_bounds_non_finite_gap_exits_one(self, tmp_path, capsys, lam,
                                             reason):
        # 1e300 is finite, but the square of its gap overflows; no numeric
        # warning comes before the one error line
        curve, out = tmp_path / "pair.json", tmp_path / "out.json"
        curve.write_text(json.dumps({"family": "line"}))
        assert main(["bounds", "--curve-file", str(curve), f"--lam={lam}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"configuration error: lam={float(lam)} {reason}\n"
        assert not out.exists()

    def test_eps_scan_nonpositive_r_exits_one(self, tmp_path, capsys):
        out = tmp_path / "origin.csv"
        assert main(["eps-scan", "--r=-1", "--eps-grid", "0:0.2:0.1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error: r_fixed" in capsys.readouterr().err
        assert not out.exists()

    def test_eps_scan_infinite_r_exits_one(self, tmp_path, capsys):
        # the run config would carry "r": Infinity, which is not JSON
        out = tmp_path / "origin.csv"
        assert main(["eps-scan", "--r", "inf", "--eps-grid", "0:0.1:0.1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: r_fixed=inf must be positive and finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["census", "--budget", "16"],
        ["eps-scan", "--r", "5", "--eps-grid", "0:0.1:0.1"],
        ["scan", "--qstar", "pi", "--r", "5:6:0.5"],
    ], ids=["census-under-budget", "eps-scan-past-guard", "scan-past-guard"])
    def test_bad_tol_exits_one_when_no_point_is_solved(self, tmp_path, capsys,
                                                       argv):
        # no grid point reaches a solve, which once was the only place the
        # tolerance window was checked
        outs = [tmp_path / "out.csv", tmp_path / "out.json"]
        files = (["--out-csv", str(outs[0]), "--out-json", str(outs[1])]
                 if argv[0] == "scan" else ["--out", str(outs[0])])
        assert main(argv + ["--tol", "1", *files]) == EXIT_CONFIG
        assert "tol=1.0 outside" in capsys.readouterr().err
        assert not any(out.exists() for out in outs)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--q0", "0.3", "--p0", "0", "--t-final", "1.0"],
        ["poincare", "--q-grid", "0:0:1", "--p-grid", "0:0:1",
         "--iterates", "2"],
    ], ids=["simulate", "poincare"])
    def test_removed_fixed_step_option_exits_one(self, tmp_path, capsys,
                                                 argv):
        # argparse refuses an option no command has, before any output
        # path is checked or written
        out = tmp_path / "out.csv"
        assert main(argv + ["--fixed-step", "4", "--out", str(out)]) == \
            EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --fixed-step 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("initial", [
        ["--q0", "nan", "--p0", "0"],
        ["--q0", "0.1", "--p0", "inf"],
        ["--q0", "0.1", "--p0", "-inf"],
        ["--q0", "0.1", "--p0", "-nan"],
        ["--q0", "0.1", "--p0", "0", "--s0", "inf"],
    ], ids=["q0-nan", "p0-inf", "p0-minus-inf", "p0-minus-nan", "s0-inf"])
    def test_non_finite_initial_state_exits_one(self, tmp_path, capsys,
                                                initial):
        out = tmp_path / "traj.csv"
        assert main(["simulate", *initial, "--t-final", "1", "--out",
                     str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: initial=(")
        assert err.endswith(") must be finite\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_phase_beyond_horizon_resolution_exits_one(self, tmp_path,
                                                       capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--q0", "0.1", "--p0", "0", "--s0", "1e20",
                     "--t-final", "1", "--eps", "0.3", "--out",
                     str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: t_final=1.0 spans no eccentric anomaly "
            "from s0=1e+20\n")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--eps", "0.3"]],
                             ids=["circular", "eccentric"])
    def test_nan_phase_exits_one(self, tmp_path, extra):
        # in a subprocess with a timeout: code that lets a NaN phase into
        # the adaptive solve never returns
        out = tmp_path / "traj.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "curved_sitnikov.cli", "simulate", "--q0",
             "0.1", "--p0", "0", "--s0", "nan", "--t-final", "1", "--out",
             str(out), *extra], env=env, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == ("configuration error: initial=(0.1, 0.0, nan) "
                               "must be finite\n")
        assert not out.exists()

    def test_endless_horizon_exits_one_before_any_work(self, tmp_path):
        # in a subprocess with a timeout: an orbit solve without a row
        # limit does not return from this horizon
        out = tmp_path / "traj.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "curved_sitnikov.cli", "simulate", "--q0",
             "0.1", "--p0", "0", "--t-final", "1e300", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == ("configuration error: t_final=1e+300 takes "
                               "more than 1000000 rows\n")
        assert not out.exists()

    @pytest.mark.parametrize("t_final", ["-1", "0", "inf"])
    def test_bad_horizon_exits_one(self, tmp_path, capsys, t_final):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--q0", "0.1", "--p0", "0", "--t-final",
                     t_final, "--out", str(out)]) == EXIT_CONFIG
        assert "configuration error: t_final" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_iterates_exit_one(self, tmp_path, capsys):
        out = tmp_path / "cloud.csv"
        assert main(["poincare", "--iterates", "0", "--out",
                     str(out)]) == EXIT_CONFIG
        assert "configuration error: n_iterates" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_fails_before_computing(self, tmp_path,
                                                      monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "interchange_census",
                            lambda *a, **k: calls.append(a))
        assert main(["census", "--ceiling-fraction", "0.99",
                     "--start-fraction", "0.9", "--budget", "80",
                     "--out", str(tmp_path / "absent" / "x.json")]) == \
            EXIT_CONFIG
        assert calls == []

    @pytest.mark.parametrize("argv, compute", [
        (["census", "--out", "{dir}"], "interchange_census"),
        (["scan", "--qstar", "pi", "--r", "1.2:1.27:0.005", "--out-csv",
          "{dir}"], "trace_curve"),
        (["scan", "--qstar", "pi", "--r", "1.2:1.27:0.005", "--out-json",
          "{dir}"], "trace_curve"),
        (["poincare", "--out", "{dir}/cloud.csv", "--manifest", "{dir}"],
         "section"),
    ], ids=["out", "out-csv", "out-json", "manifest"])
    def test_directory_output_fails_before_computing(
            self, tmp_path, monkeypatch, capsys, argv, compute):
        # a directory used to pass, and fail only after the whole run
        def reached(*args, **kwargs):
            raise AssertionError(f"{compute} ran")

        monkeypatch.setattr(cli, compute, reached)
        assert main([a.format(dir=tmp_path) for a in argv]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: cannot write {str(tmp_path)!r}: it is a "
            "directory\n")

    def test_bad_json_output_leaves_no_csv(self, tmp_path):
        csv_out = tmp_path / "trace.csv"
        assert main(["scan", "--qstar", "pi", "--r", "1.2:1.27:0.005",
                     "--out-csv", str(csv_out),
                     "--out-json", str(tmp_path / "absent" / "x.json")]) == \
            EXIT_CONFIG
        assert not csv_out.exists()

    @pytest.mark.parametrize("refine_tol", ["0", "-1", "nan", "inf"])
    def test_bad_refine_tol_exits_one_before_computing(self, monkeypatch,
                                                       capsys, refine_tol):
        calls = []
        monkeypatch.setattr(scan, "monodromy",
                            lambda *a, **k: calls.append(a))
        assert main(["scan", "--qstar", "pi", "--r", "1.2:1.27:0.005",
                     f"--refine-tol={refine_tol}"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: refine_tol={float(refine_tol)} must be "
            "finite and positive\n")
        assert calls == []

    @pytest.mark.parametrize("refine_tol", ["1e-17", "5e-324"])
    def test_refine_tol_below_float_spacing_ends_at_one_ulp(self, capsys,
                                                            refine_tol):
        assert main(["scan", "--qstar", "pi", "--eps", "0",
                     "--r", "1.2:1.27:0.005",
                     f"--refine-tol={refine_tol}"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        (lo, hi), = (t["r_bracket"] for t in record["transitions"])
        assert hi == math.nextafter(lo, 2.0)

    def test_failed_scan_leaves_no_csv(self, tmp_path, capsys):
        csv_out = tmp_path / "x.csv"
        assert main(["scan", "--qstar", "pi", "--eps", "0",
                     "--r", "1.2:1.2:0.005", "--out-csv", str(csv_out)]) == \
            EXIT_CONFIG
        assert "need at least 2 grid samples" in capsys.readouterr().err
        assert not csv_out.exists()

    def test_bad_eccentricity_in_scan_exits_one_without_skipping(
            self, monkeypatch, capsys):
        # every radius lies past the ceiling 2/(1+eps) = 0.8, which was
        # reported as collision-guard skips before the real error
        monkeypatch.setattr(scan, "monodromy", _refuse)
        assert main(["scan", "--qstar", "pi", "--eps", "1.5",
                     "--r", "1.05:1.4:0.05"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: epsilon=1.5 outside [0, 1)\n")

    @pytest.mark.parametrize("argv, message", [
        (["--ceiling-fraction", "0.99999", "--start-fraction", "0.99996",
          "--budget", "40"], "r range [1.99992, 1.9999] is empty"),
        (["--budget", "0"], "budget=0 must be at least 1"),
        (["--budget", "-5"], "budget=-5 must be at least 1"),
        (["--eps", "-1"], "epsilon=-1.0 outside [0, 1)"),
    ], ids=["range-past-margin", "zero-budget", "negative-budget",
            "eps-minus-one"])
    def test_bad_census_exits_one_before_computing(self, monkeypatch, capsys,
                                                   argv, message):
        monkeypatch.setattr(scan, "_antipode_half_traces", _refuse)
        assert main(["census", *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {message}")
        assert captured.out == ""

    def test_corrupt_monodromy_in_scan_exits_two(self, tmp_path, capsys):
        # at tol 1e-6 the full-period matrices at r = 1.9998 and 1.9999
        # have |det - 1| ~ 2e-5, the same corruption floquet reports
        csv_out = tmp_path / "trace.csv"
        assert main(["scan", "--qstar", "pi", "--eps", "0",
                     "--r", "1.9998:1.9999:0.0001", "--tol", "1e-6",
                     "--out-csv", str(csv_out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("domain error: det=")
        assert not csv_out.exists()
        assert main(["floquet", "--qstar", "pi", "--r", "1.9999",
                     "--tol", "1e-6"]) == EXIT_DOMAIN
        assert capsys.readouterr().err.endswith(
            " deviates from 1 beyond 1e-06\n")

    def test_curve_pair_collision_exits_two(self, capsys):
        # an admissible gap below the collision guard is a domain error
        assert main(["bounds", "--r", "1.8", "--lam", "1e-10"]) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "domain error: distance 1.000e-10 to primary 1 is below the "
            "collision guard\n")

    def test_help_is_success(self):
        assert main(["--help"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["simulate", "poincare"])
    def test_orbit_help_offers_no_step_count(self, capsys, command):
        # the orbit commands have one engine, so their help lists a
        # tolerance and no fixed step count
        assert main([command, "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "--tol" in out
        assert "--fixed-step" not in out

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

    def test_verify_json_holds_every_result(self, monkeypatch, capsys):
        # stand-in checks, one of them failing
        names = [name for name, _ in verification.CHECKS]
        monkeypatch.setattr(verification, "CHECKS", [
            (name, lambda ctx, ok=(i != 3): (ok, "ok" if ok else "boom"))
            for i, name in enumerate(names)])
        assert main(["verify", "--json"]) == EXIT_VERIFY
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert set(record) == {"config", "checks", "passed", "failed"}
        assert record["config"] == {"command": "verify", "json": True,
                                    "quick": False}
        assert [c["name"] for c in record["checks"]] == names
        assert all(set(c) == {"name", "passed", "detail", "seconds"}
                   for c in record["checks"])
        assert [c["passed"] for c in record["checks"]] == [
            i != 3 for i in range(len(names))]
        assert record["checks"][3]["detail"] == "boom"
        assert (record["passed"], record["failed"]) == (len(names) - 1, 1)
        assert err == f"1 of {len(names)} checks failed\n"

        monkeypatch.setattr(verification, "CHECKS",
                            [(name, lambda ctx: (True, "ok")) for name in names])
        assert main(["verify", "--json", "--quick"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert (record["passed"], record["failed"]) == (len(names) - 1, 0)

    def test_quick_verify_skips_only_origin_stability(self, monkeypatch):
        # stand-in checks: only the selection is under test
        names = [name for name, _ in verification.CHECKS]
        monkeypatch.setattr(verification, "CHECKS", [
            (name, lambda ctx: (True, "ok")) for name in names])
        assert [r.name for r in verification.run_all(quick=True)] == \
            [name for name in names if name != "origin stability"]


def _refuse(*args, **kwargs):
    raise AssertionError("computed before the configuration was checked")


def _readme_cli_lines() -> list[list[str]]:
    """Each command of README's ``## CLI`` block, split into arguments."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_parse():
    # as main parses them, so a renamed or removed option, such as the old
    # --fixed-step, fails here rather than rotting in the docs
    lines = _readme_cli_lines()
    assert len(lines) >= 11
    for argv in lines:
        assert argv[0] == "curved-sitnikov"
        try:
            build_parser().parse_args(cli._join_signed_values(argv[1:]))
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


class _FixedParser:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv=None):
        return self._args
