"""Stroboscopic section clouds."""

import argparse
import json
import math

import numpy as np
import pytest

from curved_sitnikov.cli import _write_csv, main
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

    @pytest.mark.parametrize("fixed_steps", [None, 8])
    @pytest.mark.parametrize("n_iterates", [0, -1])
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
