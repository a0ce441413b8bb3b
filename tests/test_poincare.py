"""Stroboscopic section clouds."""

import argparse
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from curved_sitnikov import integrate, model, poincare
from curved_sitnikov.cli import _write_csv, main
from curved_sitnikov.integrate import StiffnessError, integrate_orbit
from curved_sitnikov.kepler import ModelParams
from curved_sitnikov.poincare import section, wrap_angle

TWO_PI = 2.0 * math.pi
P10 = ModelParams(r=1.0, epsilon=0.0)
CFG = argparse.Namespace(cmd="test")


class TestWrapAngle:
    def test_interval_convention(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
        assert wrap_angle(-0.3) == pytest.approx(-0.3)


class TestSection:
    def test_origin_equilibrium_hits(self):
        cloud = section(ModelParams(r=1.2, epsilon=0.3), [(0.0, 0.0)],
                        n_iterates=8, tol=1e-9)
        orbit = cloud.orbits[0]
        assert orbit.shape == (8, 2)
        np.testing.assert_allclose(orbit, 0.0, atol=1e-8)

    def test_antipode_equilibrium_hits(self):
        cloud = section(P10, [(math.pi, 0.0)], n_iterates=8, tol=1e-9)
        orbit = cloud.orbits[0]
        np.testing.assert_allclose(np.abs(orbit[:, 0]), math.pi, atol=1e-8)
        np.testing.assert_allclose(orbit[:, 1], 0.0, atol=1e-8)

    def test_bounded_cloud_near_center(self):
        grid = [(q0, p0) for q0 in np.linspace(-0.2, 0.2, 4)
                for p0 in np.linspace(-0.3, 0.3, 5)]
        cloud = section(P10, grid, n_iterates=100, tol=1e-8)
        assert not any(cloud.truncated)
        max_q = max(float(np.max(np.abs(o[:, 0]))) for o in cloud.orbits)
        assert max_q < 2.0

    def test_reflection_symmetry_of_cloud(self):
        plus = section(P10, [(0.15, 0.1)], n_iterates=30, tol=1e-10)
        minus = section(P10, [(-0.15, -0.1)], n_iterates=30, tol=1e-10)
        np.testing.assert_allclose(minus.orbits[0], -plus.orbits[0],
                                   atol=1e-9)

    def test_fixed_step_reproducible_bytes(self, tmp_path):
        path, man_path = tmp_path / "a.csv", tmp_path / "a.json"
        argv = ["poincare", "--q-grid", "0.1:0.2:0.1", "--p-grid", "0:0:1",
                "--iterates", "10", "--fixed-step", "128", "--out", str(path),
                "--manifest", str(man_path)]
        assert main(argv) == 0
        first = path.read_bytes()
        assert json.loads(man_path.read_text())["method"] == "fixed"
        assert main(argv) == 0
        assert path.read_bytes() == first

    @pytest.mark.parametrize("argv, sha256", [
        (["poincare", "--q-grid", "0.1:0.2:0.1", "--p-grid", "0:0:1",
          "--iterates", "10", "--fixed-step", "128", "--out", "cloud.csv"],
         "af0be49afe43c7dcf341d7c26530b8a888bd168c3002e79519bfa6f75c4c8075"),
        (["simulate", "--r", "1.2", "--eps", "0.3", "--q0", "0.3", "--p0",
          "0.1", "--t-final", "12.566370614359172", "--fixed-step", "400",
          "--out", "orbit.csv"],
         "1e2eb655f73473b286124a0c66bcb2405925369aac9564666704c5d477cb523c"),
    ], ids=["poincare", "simulate"])
    def test_fixed_step_bytes_pinned(self, tmp_path, monkeypatch, argv,
                                     sha256):
        # the RK4 artifacts are a regression baseline: any change to the
        # force's arithmetic moves these digests
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        data = (tmp_path / argv[-1]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_fixed_step_collision_truncates_only_its_orbit(self, monkeypatch):
        # the RK4 route's force guard trips in the third period, as the
        # lane route's guard does in TestLaneRoute
        monkeypatch.setattr(model, "D_MIN", 0.3)
        cloud = section(ModelParams(r=1.9), [(math.pi - 0.5, 0.0), (0.1, 0.0)],
                        n_iterates=10, fixed_steps=128)
        assert cloud.truncated == [True, False]
        assert [len(o) for o in cloud.orbits] == [2, 10]

    @pytest.mark.parametrize("engine", [{"fixed_steps": 128}, {"tol": 1e-8}],
                             ids=["fixed", "lanes"])
    def test_truncated_orbit_keeps_earlier_hits_bitwise(self, monkeypatch,
                                                        engine):
        # the inflated guard of the two truncation tests; the reference
        # is the same grid and n_iterates under the default guard, since
        # a lane run with fewer strobes takes other steps
        grid = [(math.pi - 0.5, 0.0), (0.1, 0.0)]
        full = section(ModelParams(r=1.9), grid, n_iterates=10, **engine)
        assert full.truncated == [False, False]
        monkeypatch.setattr(model, "D_MIN", 0.3)
        cut = section(ModelParams(r=1.9), grid, n_iterates=10, **engine)
        assert cut.truncated == [True, False]
        assert cut.orbits[0].tobytes() == full.orbits[0][:2].tobytes()
        assert cut.orbits[1].tobytes() == full.orbits[1].tobytes()

    @pytest.mark.parametrize("fixed_steps", [None, 8])
    def test_orbit_with_no_hit_is_an_empty_hit_array(self, fixed_steps):
        # q = pi lies 4e-10 from primary 2 at t = 0, within D_MIN, so
        # either engine truncates orbit 0 before its first strobe; its
        # hits are (0, 2), as every orbit's are (n_i, 2)
        cloud = section(ModelParams(r=2.0 - 4e-10),
                        [(math.pi, 0.0), (0.2, 0.1)], n_iterates=3,
                        fixed_steps=fixed_steps)
        assert cloud.truncated == [True, False]
        assert [o.shape for o in cloud.orbits] == [(0, 2), (3, 2)]

    @pytest.mark.parametrize("fixed_steps", [None, 8])
    @pytest.mark.parametrize("q0", [math.nan, math.inf])
    def test_initial_grid_must_be_finite(self, monkeypatch, q0, fixed_steps):
        # checked once before either engine runs; without the check the
        # lane route spends its whole work cap on the NaN lane
        def refuse(*args, **kwargs):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(poincare, "_dop853_lanes", refuse)
        monkeypatch.setattr(poincare, "integrate_orbit", refuse)
        with pytest.raises(ValueError, match="non-finite"):
            section(P10, [(q0, 0.0), (0.1, 0.0)], n_iterates=2,
                    fixed_steps=fixed_steps)

    def test_fixed_steps_must_be_an_integer(self):
        with pytest.raises(ValueError, match="n_steps=1.5"):
            section(P10, [(0.1, 0.0)], n_iterates=2, fixed_steps=1.5)

    @pytest.mark.parametrize("fixed_steps", [None, 8])
    @pytest.mark.parametrize("n_iterates", [0, -1, 1.5])
    def test_needs_one_iterate(self, n_iterates, fixed_steps):
        with pytest.raises(ValueError, match="n_iterates"):
            section(P10, [(0.1, 0.0)], n_iterates=n_iterates,
                    fixed_steps=fixed_steps)

    def test_csv_and_manifest(self, tmp_path):
        csv_path, man_path = tmp_path / "cloud.csv", tmp_path / "cloud.json"
        assert main(["poincare", "--r", "1.0", "--q-grid", "0.1:0.1:1",
                     "--p-grid", "0:0:1", "--iterates", "3", "--tol", "1e-9",
                     "--out", str(csv_path), "--manifest", str(man_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "orbit_id,iter,q,p"
        assert len(lines) == 5
        manifest = json.loads(man_path.read_text())
        assert manifest["r"] == 1.0
        assert manifest["n_iterates"] == 3
        assert manifest["initial_grid"] == [[0.1, 0.0]]

    def test_csv_exact_text(self, tmp_path, capsys):
        rows = [(0, 0, 0.1, -0.2), (0, 1, 1e-20, 3.0), (1, 0, 0.5, 1.0 / 3.0)]
        text = ('# {"cmd": "test"}\n'
                "orbit_id,iter,q,p\n"
                "0,0,0.10000000000000001,-0.20000000000000001\n"
                "0,1,9.9999999999999995e-21,3\n"
                "1,0,0.5,0.33333333333333331\n")
        path = tmp_path / "cloud.csv"
        _write_csv(str(path), ("orbit_id", "iter", "q", "p"), rows, CFG)
        assert path.read_bytes() == text.encode()
        _write_csv(None, ("orbit_id", "iter", "q", "p"), rows, CFG)
        assert capsys.readouterr().out == text


class TestLaneRoute:
    """The adaptive cloud: one lane-batched solve in eccentric-anomaly time."""

    def test_collision_truncates_only_its_orbit(self, monkeypatch):
        # inflated guard distance, as in the orbit engine's collision test;
        # from q = pi - 0.5 the guard halts the orbit in its third period,
        # so two strobes come before it
        monkeypatch.setattr(model, "D_MIN", 0.3)
        cloud = section(ModelParams(r=1.9), [(math.pi - 0.5, 0.0), (0.1, 0.0)],
                        n_iterates=10, tol=1e-8)
        assert cloud.truncated == [True, False]
        assert [len(o) for o in cloud.orbits] == [2, 10]
        assert np.all(np.isfinite(cloud.orbits[0]))

    def test_orbit_starting_inside_the_guard_has_no_hits(self):
        # q = pi lies 4e-10 from primary 2 at t = 0, within D_MIN
        cloud = section(ModelParams(r=2.0 - 4e-10),
                        [(math.pi, 0.0), (0.2, 0.1)], n_iterates=3)
        assert cloud.truncated == [True, False]
        assert cloud.orbits[0].size == 0

    def test_orbit_starting_inside_the_guard_leaves_the_rest(self):
        # the halted lane leaves before the first step, so its neighbour
        # steps as it does alone, with no warning from the start's 1/d^3
        params = ModelParams(r=2.0 - 4e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = section(params, [(math.pi, 0.0), (0.2, 0.1)],
                            n_iterates=3)
        alone = section(params, [(0.2, 0.1)], n_iterates=3)
        assert cloud.orbits[1].shape == (3, 2)
        assert cloud.orbits[1].tobytes() == alone.orbits[0].tobytes()

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_strobes_match_tight_scalar_route(self, eps):
        # reference: the RK4 route, which shares no stepping code with the
        # lanes, at 256 steps per period over all 40 periods; it sits within
        # 1.5e-6 of a tol-1e-13 lane solve here, and the lane route at 1e-8
        # within 9.2e-6
        params = ModelParams(r=1.0, epsilon=eps)
        grid = [(0.2, 0.0), (-0.2, 0.1), (0.0, 0.15)]
        cloud = section(params, grid, n_iterates=40, tol=1e-8)
        for (q, p), hits in zip(grid, cloud.orbits):
            rows = integrate_orbit((q, p, 0.0), 40 * TWO_PI, params,
                                   fixed_steps=40 * 256).states[256::256]
            want = [(wrap_angle(q), p) for q, p, _ in rows]
            np.testing.assert_allclose(hits, want, rtol=0.0, atol=1e-4)

    def test_work_cap_counts_calls_since_last_stop(self, monkeypatch):
        # this orbit takes 6770 right-hand-side calls over 40 strobes and
        # at most 194 between two of them
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 200)
        cloud = section(P10, [(0.1, 0.0)], n_iterates=40, tol=1e-8)
        assert cloud.orbits[0].shape == (40, 2)
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 180)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            section(P10, [(0.1, 0.0)], n_iterates=40, tol=1e-8)
