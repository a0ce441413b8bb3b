"""Benchmark of the curved-sitnikov toolkit.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout.  One run
generates the workload's inputs from the seed, repeats whole passes of it
for about ``S`` seconds and checks every pass against the seed-independent
references in ``bench/workloads.json``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``:

* ``--trace 0``: the end-to-end metrics ``wall_s`` and ``cpu_s`` (medians
  over passes, in seconds at nominal machine speed, see ``speed.py``),
  ``setup_s`` (median over five fresh processes that import the package,
  make the inputs and run one warm-up monodromy, also at nominal speed)
  and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics of ``tracer.LAYER_METRICS``.  The
  run makes untraced passes for about ``S/2`` seconds, then as many traced
  passes; the per-layer numbers come from the first traced pass, and its
  spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("census-ceiling", "scan-eccentric", "section-eccentric",
                  "gap-geometry")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120
WARM_UP_R, WARM_UP_TOL = 1.0, 1e-9


@dataclass
class Pass:
    """One checked pass; ``wall`` and ``cpu`` are at nominal machine speed."""

    wall: float
    cpu: float
    raw_wall: float
    units: list


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def set_up(workload_name: str, seed: int):
    """Import the package from this checkout, make the inputs, warm up."""
    package = SRC / "curved_sitnikov" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import curved_sitnikov
    import curved_sitnikov.cli  # noqa: F401  (imports every module)
    if Path(curved_sitnikov.__file__).resolve().parent != package.parent.resolve():
        raise SystemExit(f"bench: imported {curved_sitnikov.__file__}, not {package}")
    from curved_sitnikov import floquet
    from curved_sitnikov.kepler import ModelParams
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.make_inputs(seed)
    floquet.monodromy(math.pi, ModelParams(r=WARM_UP_R), tol=WARM_UP_TOL)
    return workload, inputs


def setup_seconds(workload_name: str, seed: int) -> float:
    """Wall time of a fresh process that only runs ``set_up``, at nominal
    machine speed as the process's own speed probe measured it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload_name, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    elapsed = perf_counter() - t0
    probe = json.loads(proc.stdout.splitlines()[-1])
    return (elapsed - probe["spent_s"]) * probe["scale"]


def timed_pass(workload, inputs, tracer=None) -> Pass:
    """One pass of the workload, timed, then checked outside the timing."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    c0, t0 = cpu_seconds(), perf_counter()
    with probe, tracer if tracer is not None else nullcontext():
        out = workload.run(inputs)
    wall = perf_counter() - t0 - probe.spent_s
    cpu = cpu_seconds() - c0 - probe.spent_cpu_s
    return Pass(wall * probe.scale, cpu * probe.scale, wall,
                workload.check(inputs, out))


def passes_for(workload, inputs, budget_s: float) -> list[Pass]:
    """Whole passes until the next one would likely end after ``budget_s``."""
    done, start = [], perf_counter()
    while True:
        done.append(timed_pass(workload, inputs))
        typical = statistics.median(p.raw_wall for p in done)
        if perf_counter() - start + typical > budget_s:
            return done


def machine() -> dict:
    """The machine and library versions the numbers were measured with."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def traced_metrics(workload, inputs, seconds: float, seed: int) -> tuple[dict, list[Pass]]:
    from microbench import leaf_us, probes
    from tracer import LAYER_METRICS, Tracer, layer_metrics

    plain = passes_for(workload, inputs, seconds / 2)
    tracers = [Tracer() for _ in plain]
    traced = [timed_pass(workload, inputs, t) for t in tracers]
    overhead = (statistics.median(p.wall for p in traced)
                / statistics.median(p.wall for p in plain) - 1.0)
    first = tracers[0]
    leaf = {name: leaf_us(first.originals[name], sample)
            for name, sample in first.samples.items()}
    values = layer_metrics(first, leaf, probes(), overhead)
    units = dict(LAYER_METRICS)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}-{seed}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "machine": machine(),
        "passes_raw_s": {"untraced": [p.raw_wall for p in plain],
                         "traced": [p.raw_wall for p in traced]},
        "passes_nominal_s": {"untraced": [p.wall for p in plain],
                             "traced": [p.wall for p in traced]},
        "metrics": metrics, **first.to_json_dict()}))
    return metrics, plain + traced


def untraced_metrics(workload, inputs, seconds: float, seed: int) -> tuple[dict, list[Pass]]:
    setups = [setup_seconds(workload.name, seed) for _ in range(SETUP_RUNS)]
    passes = passes_for(workload, inputs, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
        "cpu_s": {"value": statistics.median(p.cpu for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return metrics, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import, make the inputs and warm up "
                             "(the process that setup_s times)")
    args = parser.parse_args(argv)

    # Cap BLAS threads at the processors this process may use, before numpy loads.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc

    if args.setup_only:
        from speed import SpeedProbe  # imports numpy, before the probe starts

        with SpeedProbe() as probe:
            set_up(args.workload, args.seed)
        print(json.dumps({"scale": probe.scale, "spent_s": probe.spent_s}))
        return 0
    workload, inputs = set_up(args.workload, args.seed)
    measure = traced_metrics if args.trace else untraced_metrics
    metrics, passes = measure(workload, inputs, args.seconds, args.seed)
    print(f"machine: {json.dumps(machine())}")

    units = [u for p in passes for u in p.units]
    failed = [u for u in units if not u.ok]
    for u in passes[0].units + [u for p in passes[1:] for u in p.units if not u.ok]:
        print(f"{'ok' if u.ok else 'FAILED'} {workload.name} {u.name}: {u.detail}")
    print(f"{workload.name} seed {args.seed}: {len(passes)} passes, "
          f"pass wall {[round(p.raw_wall, 3) for p in passes]} s "
          f"(at nominal speed {[round(p.wall, 3) for p in passes]} s), "
          f"{len(units) - len(failed)}/{len(units)} units ok")
    print(json.dumps({"correct": not failed, "attempted": len(units),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
