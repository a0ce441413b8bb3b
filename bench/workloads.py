"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Every input, jitter range and reference value comes from ``workloads.json``
next to this file, so the file that documents a workload is the one the
checks read.  A seed only moves inputs inside ranges where the reference
outputs stay the same.  Each workload calls the package through module
attributes (``scan.trace_curve``, ``poincare.section``, ...), which is where
the tracer's wrappers sit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from curved_sitnikov import floquet, general_model, integrate, model, poincare, scan
from curved_sitnikov.kepler import ModelParams

TWO_PI = 2.0 * math.pi

SPEC: dict = json.loads(Path(__file__).with_name("workloads.json").read_text())


@dataclass(frozen=True)
class Unit:
    """Outcome of checking one unit of a pass (a census, an eps value, an orbit...)."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], list[Unit]]


def _uniform(rng: np.random.Generator, spec: dict) -> float:
    lo, hi = spec["seed_uniform"]
    return float(rng.uniform(lo, hi))


# -- census-ceiling ---------------------------------------------------------

def census_inputs(seed: int) -> dict:
    spec = SPEC["census-ceiling"]["inputs"]
    rng = np.random.default_rng(seed)
    return {key: (_uniform(rng, value) if isinstance(value, dict) else value)
            for key, value in spec.items()}


def census_run(inputs: dict) -> scan.CensusResult:
    return scan.interchange_census(
        inputs["epsilon"], inputs["r_max_fraction"], inputs["budget"],
        r_start_fraction=inputs["r_start_fraction"], tol=inputs["tol"])


def census_check(inputs: dict, result: scan.CensusResult) -> list[Unit]:
    ref = SPEC["census-ceiling"]["reference"]
    got = {key: getattr(result, key) for key in ref}
    return [Unit("census", got == ref, f"got {got}, reference {ref}")]


# -- scan-eccentric ---------------------------------------------------------

def scan_inputs(seed: int) -> dict:
    spec = SPEC["scan-eccentric"]["inputs"]
    rng = np.random.default_rng(seed)
    offset = _uniform(rng, spec["grid_offset"])
    first = spec["r_lo"] + offset
    n = int(math.floor((spec["r_hi"] - first) / spec["step"] + 1e-9)) + 1
    return {"epsilons": list(spec["epsilons"]),
            "grid": [first + k * spec["step"] for k in range(n)],
            "tol": spec["tol"], "refine_tol": spec["refine_tol"]}


def scan_run(inputs: dict) -> dict[float, list[float]]:
    """Refined transition midpoints per eccentricity."""
    found = {}
    for eps in inputs["epsilons"]:
        curve = scan.trace_curve(math.pi, eps, inputs["grid"], tol=inputs["tol"])
        tiling = scan.find_transitions(curve, refine_tol=inputs["refine_tol"])
        found[eps] = [0.5 * (lo + hi)
                      for lo, hi in (t["r_bracket"] for t in tiling.transitions)]
    return found


def scan_check(inputs: dict, found: dict[float, list[float]]) -> list[Unit]:
    ref = SPEC["scan-eccentric"]["reference"]
    units = []
    for eps in inputs["epsilons"]:
        want, got = ref["transitions"][str(eps)], found[eps]
        ok = len(got) == len(want) and all(
            abs(g - w) <= ref["position_tol"] for g, w in zip(got, want))
        units.append(Unit(f"eps={eps}", ok, f"transitions {got}, reference {want}"))
    return units


# -- section-eccentric ------------------------------------------------------

def section_inputs(seed: int) -> dict:
    spec = SPEC["section-eccentric"]["inputs"]
    rng = np.random.default_rng(seed)
    nq, np_ = spec["shape"]
    grid = []
    for q in np.linspace(*spec["q_range"], nq):
        for p in np.linspace(*spec["p_range"], np_):
            grid.append((float(q) + _uniform(rng, spec["point_jitter"]),
                         float(p) + _uniform(rng, spec["point_jitter"])))
    return {"r": spec["r"], "epsilon": spec["epsilon"], "grid": grid,
            "n_iterates": spec["n_iterates"], "tol": spec["tol"]}


def _params(inputs: dict) -> ModelParams:
    return ModelParams(r=inputs["r"], epsilon=inputs["epsilon"])


def section_run(inputs: dict) -> poincare.SectionCloud:
    return poincare.section(_params(inputs), inputs["grid"],
                            inputs["n_iterates"], tol=inputs["tol"])


def _one_period(q0: float, p0: float, params: ModelParams, tol: float) -> np.ndarray:
    traj = integrate.integrate_orbit((q0, p0, 0.0), TWO_PI, params, tol=tol)
    return traj.states[-1][:2]


def reversibility_defect(q0: float, p0: float, params: ModelParams,
                         tol: float) -> float:
    """S4 round trip over one period: forward, flip ``p``, forward again."""
    q_t, p_t = _one_period(q0, p0, params, tol)
    q_b, p_b = _one_period(q_t, -p_t, params, tol)
    return max(abs(q_b - q0), abs(p_b + p0))


def one_period_stretch(q0: float, p0: float, params: ModelParams, tol: float,
                       h: float = 1e-5) -> float:
    """Spectral norm of the one-period map's Jacobian, by finite differences.

    The map preserves area, so this is also the norm of its inverse: the
    factor by which the backward leg of a round trip can amplify the
    forward leg's error.
    """
    base = _one_period(q0, p0, params, tol)
    jac = np.column_stack([(_one_period(q0 + h, p0, params, tol) - base) / h,
                           (_one_period(q0, p0 + h, params, tol) - base) / h])
    return max(1.0, float(np.linalg.norm(jac, 2)))


def section_check(inputs: dict, cloud: poincare.SectionCloud) -> list[Unit]:
    ref = SPEC["section-eccentric"]["reference"]
    params, tol = _params(inputs), inputs["tol"]
    units = []
    for i, ((q0, p0), hits, truncated) in enumerate(
            zip(inputs["grid"], cloud.orbits, cloud.truncated)):
        defect = reversibility_defect(q0, p0, params, tol)
        allowed = (ref["reversibility_factor"] * tol
                   * one_period_stretch(q0, p0, params, tol))
        ok = (hits.shape == (ref["hits"], 2) and bool(np.all(np.isfinite(hits)))
              and truncated == ref["truncated"] and defect <= allowed)
        units.append(Unit(f"orbit {i}", ok,
                          f"{len(hits)} hits, truncated={truncated}, "
                          f"round trip {defect:.2e} (allowed {allowed:.2e})"))
    if len(cloud.orbits) != len(inputs["grid"]):
        units.append(Unit("orbit count", False,
                          f"{len(cloud.orbits)} orbits for {len(inputs['grid'])} "
                          f"initial conditions"))
    return units


# -- gap-geometry -----------------------------------------------------------

def gap_inputs(seed: int) -> dict:
    spec = SPEC["gap-geometry"]["inputs"]
    rng = np.random.default_rng(seed)
    lam0 = _uniform(rng, spec["lam_start"])
    wspec = spec["winding"]
    offset = _uniform(rng, wspec["phase_offset"])
    hill = model.hill_coefficient(wspec["q_star"], ModelParams(
        r=wspec["r"], epsilon=wspec["epsilon"]))
    a_min = min(hill(float(t))
                for t in np.linspace(0.0, TWO_PI, wspec["a_min_samples"]))
    return {
        "pairs": spec["pairs"],
        "lams": [lam0 / 2**k for k in range(spec["sweep_length"])],
        "winding": {
            "q_star": wspec["q_star"], "r": wspec["r"],
            "epsilon": wspec["epsilon"], "tol": wspec["tol"],
            "phases": [offset + TWO_PI * k / wspec["phases"]
                       for k in range(wspec["phases"])],
            "a_min": a_min,
        },
    }


def gap_run(inputs: dict) -> tuple[list[list[general_model.BoundReport]],
                                   list[tuple[float, float]]]:
    """Bound reports per curve pair, and (theta, arg) windings per phase."""
    reports = []
    for desc in inputs["pairs"]:
        pair = general_model.load_curve_pair(desc)
        reports.append([general_model.bound_report(lam, pair)
                        for lam in inputs["lams"]])
    w = inputs["winding"]
    hill = model.hill_coefficient(w["q_star"], ModelParams(r=w["r"],
                                                           epsilon=w["epsilon"]))
    windings = []
    for phase in w["phases"]:
        z0 = complex(math.cos(phase), math.sin(phase))
        windings.append(tuple(
            floquet.winding_angle(hill, 0.0, TWO_PI, z0, tol=w["tol"], method=m)
            for m in ("theta", "arg")))
    return reports, windings


def gap_check(inputs: dict, output) -> list[Unit]:
    ref = SPEC["gap-geometry"]["reference"]
    reports, windings = output
    units = []
    for desc, sweep in zip(inputs["pairs"], reports):
        previous = math.inf
        for rep in sweep:
            falls = rep.winding_estimate < previous
            ok = (falls == ref["winding_estimate_strictly_decreasing"]
                  and rep.bound_ok == ref["bound_ok"])
            units.append(Unit(f"{desc['family']} {desc['params']} lam={rep.lam:.5f}",
                              ok, f"bound_ok={rep.bound_ok}, winding estimate "
                                  f"{rep.winding_estimate:.9f} after {previous:.9f}"))
            previous = rep.winding_estimate
    w = inputs["winding"]
    bound = floquet.winding_bound(w["a_min"], 0.0, TWO_PI)
    for phase, (theta, arg) in zip(w["phases"], windings):
        below = max(theta, arg) <= bound
        ok = (abs(theta - arg) <= ref["route_agreement"]
              and below == ref["below_winding_bound"])
        units.append(Unit(f"winding phase={phase:.4f}", ok,
                          f"theta {theta:.10f}, arg {arg:.10f}, bound {bound:.6f}"))
    if len(reports) != len(inputs["pairs"]) or len(windings) != len(w["phases"]):
        units.append(Unit("case count", False, "missing reports or windings"))
    return units


WORKLOADS: dict[str, Workload] = {
    "census-ceiling": Workload("census-ceiling", census_inputs, census_run, census_check),
    "scan-eccentric": Workload("scan-eccentric", scan_inputs, scan_run, scan_check),
    "section-eccentric": Workload("section-eccentric", section_inputs, section_run,
                                  section_check),
    "gap-geometry": Workload("gap-geometry", gap_inputs, gap_run, gap_check),
}
