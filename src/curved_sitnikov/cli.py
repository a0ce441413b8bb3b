"""Command-line front end, the only module that writes files or stdout.

Every artifact embeds the run configuration (JSON field or CSV header
comment) so runs are self-describing and replayable; ``_write_json`` and
``_write_csv`` are the two artifact formats.  Exit codes:
0 success, 1 configuration error (including an unreadable input or
unwritable output file, a grid, cloud or orbit past ``MAX_GRID_POINTS``
points or rows and a size argument that runs out of memory), 2 numerical
domain error (collision, step-size underflow, Kepler non-convergence or a
corrupt monodromy), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np

from .kepler import TWO_PI, KeplerConvergenceError, ModelParams, ephemeris
from .model import CollisionError
from .integrate import (DEFAULT_MONODROMY_TOL, DEFAULT_ORBIT_TOL,
                        MAX_GRID_POINTS, StiffnessError, integrate_orbit)
from .floquet import (DEFAULT_DELTA_PAR, ELLIPTIC, MonodromyError, classify,
                      monodromy)
from .general_model import bound_report, load_curve_pair, sitnikov_pair
from .scan import (CENSUS_START_FRACTION, DEFAULT_REFINE_TOL, DEFAULT_SCAN_TOL,
                   _check_refine_tol, eps_scan_origin, find_transitions,
                   interchange_census, trace_curve)
from .poincare import section
from . import verification

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    """Invalid run configuration; the message names the failing constraint."""


def parse_grid(text: str) -> np.ndarray:
    """Parse ``lo:hi:step`` into an inclusive grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {text!r} is not of the form lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"grid {text!r}: {exc}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"grid {text!r}: lo, hi and step must be finite")
    if step <= 0.0 or hi < lo:
        raise ConfigError(f"grid {text!r}: need lo <= hi and step > 0")
    span = (hi - lo) / step  # inf if it overflows
    if span < MAX_GRID_POINTS:  # else the grid is too large to allocate
        grid = lo + step * np.arange(int(math.floor(span + 0.5 * 1e-9)) + 1)
        if grid[-1] < hi - 1e-9 * step:
            grid = np.append(grid, hi)
        if grid.size <= MAX_GRID_POINTS:
            return grid
    raise ConfigError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")


def _join_signed_values(argv: list[str]) -> list[str]:
    """``argv`` with ``=`` joining each ``--option`` to a following token
    that starts with ``-`` and a digit or a dot: argparse reads a value
    such as "-0.4:0.4:0.1" as an unknown option unless "=" joins it."""
    out: list[str] = []
    for token in argv:
        if (out and re.fullmatch(r"--[^=]+", out[-1])
                and re.match(r"-[\d.]", token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def parse_qstar(text: str) -> float:
    if text in ("0", "0.0"):
        return 0.0
    if text.lower() in ("pi", "3.141592653589793"):
        return math.pi
    raise ConfigError(f"qstar must be 0 or pi, got {text!r}")


def _check_outputs(args) -> None:
    """Fail before any computation if an output file's directory is unusable."""
    for name in ("out", "out_csv", "out_json", "manifest"):
        path = getattr(args, name, None)
        if path:
            folder = os.path.dirname(os.path.abspath(path))
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise ConfigError(f"cannot write {path!r}: directory "
                                  f"{folder!r} is missing or not writable")


def _params(args) -> ModelParams:
    return ModelParams(r=args.r, epsilon=args.eps)


def _config_json(args) -> str:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    return json.dumps(cfg, default=str, sort_keys=True)


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to a new file at ``path``, or to stdout without one.

    Files are UTF-8 with ``\\n`` line ends on every platform, so artifacts
    are byte-identical across machines.
    """
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str | None, payload: dict, args) -> None:
    payload = {"config": json.loads(_config_json(args)), **payload}
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_csv(path: str | None, columns, rows, args) -> None:
    """The one CSV format: ``# <config JSON>``, a header, 17-digit values."""
    lines = [f"# {_config_json(args)}", ",".join(columns)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _warn_skipped(skipped: list) -> None:
    """One stderr line with the count and reasons of skipped grid points."""
    if skipped:
        reasons = Counter(reason for _, reason in skipped)
        detail = "; ".join(f"{reason}: {n}" for reason, n in reasons.items())
        print(f"warning: {len(skipped)} grid point(s) skipped ({detail})",
              file=sys.stderr)


def cmd_kepler(args) -> int:
    params = _params(args)
    ephemerides = [ephemeris(float(t), params) for t in parse_grid(args.t)]
    _write_csv(args.out, "t,u,rho,x1x,x1y,x1z,x2x,x2y,x2z".split(","),
               [(e.t, e.u, e.rho, *e.x1, *e.x2) for e in ephemerides], args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _params(args)
    traj = integrate_orbit((args.q0, args.p0, args.s0), args.t_final, params,
                           tol=args.tol, fixed_steps=args.fixed_step)
    _write_csv(args.out, ("t", "q", "p", "s"), zip(traj.t, *traj.states.T),
               args)
    if traj.truncated:
        print("warning: trajectory truncated by collision guard",
              file=sys.stderr)
    return EXIT_OK


def cmd_floquet(args) -> int:
    params = _params(args)
    period = None
    if args.period:
        period = math.pi if args.period == "pi" else TWO_PI
    q_star = parse_qstar(args.qstar)
    m = monodromy(q_star, params, period=period, tol=args.tol)
    cls = classify(m, delta_par=args.delta_par)
    _write_json(args.out, {
        "q_star": q_star,
        "r": params.r,
        "epsilon": params.epsilon,
        "period": m.period,
        "half_trace": m.half_trace,
        "class": cls,
        "strongly_stable": cls == ELLIPTIC,
    }, args)
    return EXIT_OK


def cmd_scan(args) -> int:
    params_grid = parse_grid(args.r_grid)
    _check_refine_tol(args.refine_tol)
    curve = trace_curve(parse_qstar(args.qstar), args.eps, params_grid,
                        tol=args.tol)
    _warn_skipped(curve.skipped)
    intervals = find_transitions(curve, refine_tol=args.refine_tol)
    if args.out_csv:
        _write_csv(args.out_csv, ("r", "half_trace"),
                   zip(curve.values, curve.half_traces), args)
    _write_json(args.out_json, intervals.to_json_dict(), args)
    return EXIT_OK


def cmd_census(args) -> int:
    result = interchange_census(args.eps, args.ceiling_fraction, args.budget,
                                r_start_fraction=args.start_fraction,
                                tol=args.tol)
    _write_json(args.out, result.to_json_dict(), args)
    return EXIT_OK


def cmd_eps_scan(args) -> int:
    grid = parse_grid(args.eps_grid)
    curve = eps_scan_origin(args.r, grid, tol=args.tol)
    _warn_skipped(curve.skipped)
    _write_csv(args.out, ("epsilon", "half_trace"),
               zip(curve.values, curve.half_traces), args)
    return EXIT_OK


def cmd_poincare(args) -> int:
    params = _params(args)
    q_grid = parse_grid(args.q_grid)
    p_grid = parse_grid(args.p_grid)
    if q_grid.size * p_grid.size > MAX_GRID_POINTS:
        raise ConfigError(f"a {q_grid.size} x {p_grid.size} initial grid has "
                          f"more than {MAX_GRID_POINTS} orbits")
    grid = [(float(q), float(p)) for q in q_grid for p in p_grid]
    cloud = section(params, grid, n_iterates=args.iterates, tol=args.tol,
                    fixed_steps=args.fixed_step)
    _write_csv(args.out, ("orbit_id", "iter", "q", "p"),
               [(oid, it, q, p) for oid, orbit in enumerate(cloud.orbits)
                for it, (q, p) in enumerate(orbit)], args)
    if args.manifest:
        _write_json(args.manifest, {
            "r": params.r,
            "epsilon": params.epsilon,
            "n_iterates": args.iterates,
            "tol": args.tol,
            "method": "adaptive" if args.fixed_step is None else "fixed",
            "initial_grid": grid,
            "truncated": cloud.truncated,
        }, args)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.curve_file:
        pair = load_curve_pair(args.curve_file)
    else:
        pair = sitnikov_pair(_params(args))
    lams = ([float(v) for v in args.lam.split(",")] if args.lam
            else [pair.default_lam])
    reports = [bound_report(lam, pair).to_json_dict() for lam in lams]
    _write_json(args.out, {"pair": pair.name, "reports": reports}, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = []
    for result in verification.run_all(quick=args.quick):
        if not args.json:
            print(result.line())
        results.append(result)
    failed = sum(not r.passed for r in results)
    if args.json:
        _write_json(None, {"checks": [asdict(r) for r in results],
                           "passed": len(results) - failed,
                           "failed": failed}, args)
    elif not failed:
        print(f"all {len(results)} checks passed")
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curved-sitnikov",
        description=("Simulation and Floquet stability analysis of a "
                     "massless particle on a circle driven by a Keplerian "
                     "binary"))
    sub = ap.add_subparsers(dest="command", required=True)

    def add_params(p, r_default=1.0):
        p.add_argument("--r", type=float, default=r_default,
                       help="binary semi-major axis")
        p.add_argument("--eps", type=float, default=0.0,
                       help="binary eccentricity")

    p = sub.add_parser("kepler", help="ephemeris table of the primaries")
    add_params(p)
    p.add_argument("--t", default="0:6.283185307179586:0.1",
                   help="time grid lo:hi:step")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_kepler)

    p = sub.add_parser("simulate", help="integrate one orbit to CSV")
    add_params(p)
    p.add_argument("--q0", type=float, required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--s0", type=float, default=0.0)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_ORBIT_TOL)
    p.add_argument("--fixed-step", type=int, default=None,
                   help="use the reproducible RK4 engine with N >= 1 steps")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("floquet", help="stability verdict at an equilibrium")
    add_params(p)
    p.add_argument("--qstar", required=True, help="0 or pi")
    p.add_argument("--period", choices=["pi", "2pi"], default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_MONODROMY_TOL)
    p.add_argument("--delta-par", type=float, default=DEFAULT_DELTA_PAR)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_floquet)

    p = sub.add_parser("scan", help="half-trace curve and transitions over r")
    p.add_argument("--qstar", required=True, help="0 or pi")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--r", dest="r_grid", required=True,
                   help="r grid lo:hi:step")
    p.add_argument("--tol", type=float, default=DEFAULT_SCAN_TOL)
    p.add_argument("--refine-tol", type=float, default=DEFAULT_REFINE_TOL)
    p.add_argument("--out-csv", help="trace CSV path")
    p.add_argument("--out-json", help="intervals JSON path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("census", help="count interchanges toward the ceiling")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--ceiling-fraction", type=float, default=0.99975)
    p.add_argument("--start-fraction", type=float,
                   default=CENSUS_START_FRACTION)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=DEFAULT_SCAN_TOL)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("eps-scan", help="origin half-trace versus eccentricity")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--eps-grid", dest="eps_grid", required=True,
                   help="eps grid lo:hi:step")
    p.add_argument("--tol", type=float, default=DEFAULT_SCAN_TOL)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_eps_scan)

    p = sub.add_parser("poincare", help="stroboscopic section cloud")
    add_params(p)
    p.add_argument("--q-grid", default="-0.4:0.4:0.1",
                   help="initial q grid lo:hi:step")
    p.add_argument("--p-grid", default="-0.3:0.3:0.1",
                   help="initial p grid lo:hi:step")
    p.add_argument("--iterates", type=int, default=200)
    p.add_argument("--tol", type=float, default=DEFAULT_ORBIT_TOL)
    p.add_argument("--fixed-step", type=int, default=None,
                   help="reproducible RK4 engine, N >= 1 steps per period")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--manifest", help="companion manifest JSON path")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("bounds", help="closest-approach window report")
    add_params(p, r_default=1.8)
    p.add_argument("--curve-file", help="declarative curve-pair JSON")
    p.add_argument("--lam", help="comma-separated lambda values")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--quick", action="store_true",
                   help="skip the slowest check")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object of every check result")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        _check_outputs(args)
        return args.func(args)
    except (CollisionError, StiffnessError, KeplerConvergenceError,
            MonodromyError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError, MemoryError) as exc:
        print(f"configuration error: {exc or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
