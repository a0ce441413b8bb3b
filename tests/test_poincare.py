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

    def test_reproducible_bytes(self, tmp_path):
        path, man_path = tmp_path / "a.csv", tmp_path / "a.json"
        argv = ["poincare", "--q-grid", "0.1:0.2:0.1", "--p-grid", "0:0:1",
                "--iterates", "10", "--out", str(path),
                "--manifest", str(man_path)]
        assert main(argv) == 0
        first = path.read_bytes()
        assert json.loads(man_path.read_text())["method"] == "adaptive"
        assert main(argv) == 0
        assert path.read_bytes() == first

    @pytest.mark.parametrize("argv, d_min, sha256", [
        (["poincare", "--q-grid", "0.1:0.2:0.1", "--p-grid", "0:0:1",
          "--iterates", "10", "--out", "cloud.csv"], None,
         "e83c6f18db7010eb058b8ae43d91031b75f608bb02bd4306a45868ed7b244c7e"),
        (["simulate", "--r", "1.2", "--eps", "0.3", "--q0", "0.3", "--p0",
          "0.1", "--t-final", "12.566370614359172", "--out", "orbit.csv"],
         None,
         "255b266e090c3bdcbf98263015bece29f05813f08c0e9cc72aa69771f511cd2e"),
        (["simulate", "--r", "1.0", "--q0", "0.3", "--p0", "0.1",
          "--t-final", "12.566370614359172", "--out", "orbit.csv"], None,
         "cb873ed3ab00cd0b67921471829958196206333663c4987e52ef5c6cb0ac6770"),
        (["poincare", "--r", "1.2", "--eps", "0.3", "--q-grid",
          "0.1:0.2:0.1", "--p-grid", "0:0:1", "--iterates", "10", "--out",
          "cloud.csv"], None,
         "73e71ea4307f0495ecfb00dd3b8e27a54af2500837b154d940fd7b13517bf5a8"),
        (["poincare", "--q-grid", "0.1:0.2:0.1", "--p-grid", "0:0:1",
          "--iterates", "10", "--out", "cloud.csv", "--manifest",
          "cloud.json"], None,
         "140cb24fff756faf46089caefec0ef32fd32f78c3372940d91fa332a9559fd50"),
        (["simulate", "--r", "1.9", "--q0", repr(math.pi - 0.5), "--p0", "0",
          "--t-final", "31.4", "--out", "orbit.csv"], 0.3,
         "90264c74de53e992c2f1eec8eac2a1e1abd261bc62b26778d3b1c26bb9654e6e"),
        (["poincare", "--r", "1.9", "--q-grid",
          f"{math.pi - 0.5!r}:{math.pi - 0.5!r}:1", "--p-grid", "0:0:1",
          "--iterates", "10", "--out", "cloud.csv"], 0.3,
         "6dd98bf1ac145b06dec962e3d63f06087ee299ddf740337e14437ea5882223aa"),
    ], ids=["poincare", "simulate", "simulate-circular", "poincare-eccentric",
            "poincare-manifest", "simulate-truncated", "poincare-truncated"])
    def test_adaptive_bytes_pinned(self, tmp_path, monkeypatch, argv, d_min,
                                   sha256):
        # a regression baseline on this machine: any change to the force's
        # arithmetic or to the lanes' steps moves these digests, and the
        # relative paths keep the --out echoed in the CSV header fixed.
        # The truncated cases inflate the collision guard, as in
        # TestLaneRoute, so the orbit halts in its third period.
        if d_min is not None:
            monkeypatch.setattr(model, "D_MIN", d_min)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        data = (tmp_path / argv[-1]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_truncated_orbit_keeps_earlier_hits_bitwise(self, monkeypatch):
        # the inflated guard of TestLaneRoute's truncation test; the
        # reference is the same grid and n_iterates under the default
        # guard, since a lane run with fewer strobes takes other steps
        grid = [(math.pi - 0.5, 0.0), (0.1, 0.0)]
        full = section(ModelParams(r=1.9), grid, n_iterates=10, tol=1e-8)
        assert full.truncated == [False, False]
        monkeypatch.setattr(model, "D_MIN", 0.3)
        cut = section(ModelParams(r=1.9), grid, n_iterates=10, tol=1e-8)
        assert cut.truncated == [True, False]
        assert cut.orbits[0].tobytes() == full.orbits[0][:2].tobytes()
        assert cut.orbits[1].tobytes() == full.orbits[1].tobytes()

    def test_orbit_with_no_hit_is_an_empty_hit_array(self):
        # q = pi lies 4e-10 from primary 2 at t = 0, within D_MIN, so
        # orbit 0 is truncated before its first strobe; its hits are
        # (0, 2), as every orbit's are (n_i, 2)
        cloud = section(ModelParams(r=2.0 - 4e-10),
                        [(math.pi, 0.0), (0.2, 0.1)], n_iterates=3)
        assert cloud.truncated == [True, False]
        assert [o.shape for o in cloud.orbits] == [(0, 2), (3, 2)]

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (math.inf, 0.0),
                                       (0.1, math.nan), (0.1, -math.inf)],
                             ids=["nan", "inf", "p0-nan", "p0-inf"])
    def test_initial_grid_must_be_finite(self, monkeypatch, point):
        # checked once, on both coordinates, before the engine runs;
        # without the check the lane route spends its whole work cap on
        # the NaN lane
        def refuse(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(poincare, "_dop853_lanes", refuse)
        with pytest.raises(ValueError, match="non-finite"):
            section(P10, [point, (0.1, 0.0)], n_iterates=2)

    def test_cloud_past_the_cap_is_refused_before_any_step(self,
                                                           monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(poincare, "MAX_GRID_POINTS", 8)
        monkeypatch.setattr(poincare, "_dop853_lanes", refuse)
        with pytest.raises(ValueError, match="2 orbits of 5 iterates hold "
                                             "more than 8 points"):
            section(P10, [(0.1, 0.0), (0.2, 0.0)], n_iterates=5)

    # 2.0 counts the iterates but is no integer, so it is refused too, and
    # True is no count although Python's bool is an Integral
    @pytest.mark.parametrize("n_iterates", [0, -1, 1.5, 2.0, True])
    def test_needs_one_iterate(self, n_iterates):
        with pytest.raises(ValueError, match="n_iterates"):
            section(P10, [(0.1, 0.0)], n_iterates=n_iterates)

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
    def test_strobes_match_tight_scalar_route(self, rk4, eps):
        # reference: classical RK4 on the scalar force, which shares no
        # stepping code with the lanes, at 256 steps per period over all 40
        # periods; it sits within 1.5e-6 of a tol-1e-13 lane solve here,
        # and the lane route at 1e-8 within 9.2e-6
        params = ModelParams(r=1.0, epsilon=eps)
        grid = [(0.2, 0.0), (-0.2, 0.1), (0.0, 0.15)]
        cloud = section(params, grid, n_iterates=40, tol=1e-8)

        def rhs(t, y):
            return np.array([y[1], model.tangential_force(y[0], t, params)])

        for (q, p), hits in zip(grid, cloud.orbits):
            rows = rk4(rhs, [q, p], 40 * TWO_PI, 40 * 256)[256::256]
            want = [(wrap_angle(q), p) for q, p in rows]
            np.testing.assert_allclose(hits, want, rtol=0.0, atol=1e-4)

    @pytest.mark.parametrize("eps", [0.0, 0.3],
                             ids=["circular", "eccentric"])
    def test_strobes_match_the_orbit_rows(self, eps):
        # integrate_orbit's rows from s0 = 0 lie pi apart in eccentric
        # anomaly, so every second one is a strobe u = t = 2 pi k; the two
        # routes share the lane system but stop at other times, so they
        # agree to the tolerance, not bitwise: within 1.9e-9 here
        params = ModelParams(r=1.0, epsilon=eps)
        grid = [(0.3, 0.1), (-0.2, 0.1)]
        cloud = section(params, grid, n_iterates=10, tol=1e-10)
        for (q, p), hits in zip(grid, cloud.orbits):
            traj = integrate_orbit((q, p, 0.0), 10 * TWO_PI, params,
                                   tol=1e-10)
            rows = traj.states[2::2]
            np.testing.assert_allclose(traj.t[2::2],
                                       TWO_PI * np.arange(1, 11), rtol=1e-14)
            want = [(wrap_angle(q), p) for q, p, _ in rows]
            np.testing.assert_allclose(hits, want, rtol=0.0, atol=1e-7)

    def test_work_cap_counts_calls_since_last_stop(self, monkeypatch):
        # this orbit takes 6770 right-hand-side calls over 40 strobes and
        # at most 194 between two of them
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 200)
        cloud = section(P10, [(0.1, 0.0)], n_iterates=40, tol=1e-8)
        assert cloud.orbits[0].shape == (40, 2)
        monkeypatch.setattr(integrate, "MAX_VARIATIONAL_NFEV", 180)
        with pytest.raises(StiffnessError, match="right-hand-side calls"):
            section(P10, [(0.1, 0.0)], n_iterates=40, tol=1e-8)
