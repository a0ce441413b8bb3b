"""Per-layer tracing from outside the package.

The tracer rebinds the module attributes that callers look up (for example
``scan.monodromy``, which ``scan`` calls for every grid point) to wrappers,
and puts the originals back on exit, also when the traced code raises.

Two kinds of wrapper:

* span wrappers record ``[name, start, end, parent, extra]`` in memory
  around calls that each do real work (a monodromy, an orbit, a report);
* counting wrappers sit on leaf calls too hot for spans (``solve_kepler``,
  the Hill coefficient, the tangential force).  They count calls and keep a
  deterministic, evenly spread sample of their arguments, which
  ``microbench`` replays through the original function to time one call.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from curved_sitnikov import (floquet, general_model, integrate, kepler, model,
                             poincare, scan)

# (owner, attribute, span name, extra values taken from the result)
SPAN_TARGETS: list[tuple[Any, str, str, Callable[[Any], dict] | None]] = [
    (scan, "trace_curve", "scan.grid", None),
    (scan, "find_transitions", "scan.refine", None),
    (scan, "interchange_census", "scan.census",
     lambda res: {"levels": res.levels_completed}),
    (scan, "monodromy", "floquet.monodromy",
     lambda m: {"det_defect": abs(m.det - 1.0)}),
    (floquet, "integrate_variational", "integrate.variational",
     lambda fm: {"nfev": fm.n_rhs}),
    (floquet, "winding_angle", "floquet.winding", None),
    (poincare, "section", "poincare.section",
     lambda cloud: {"strobes": sum(len(o) for o in cloud.orbits),
                    "truncated": sum(cloud.truncated)}),
    (poincare, "integrate_orbit", "integrate.orbit",
     lambda traj: {"nfev": traj.n_rhs}),
    (general_model, "bound_report", "general_model.bound_report", None),
    (general_model, "min_distance", "general_model.min_distance", None),
]

# (owner, attribute, counter name)
COUNT_TARGETS: list[tuple[Any, str, str]] = [
    (kepler, "solve_kepler", "kepler.solve"),
    (model.HillCoefficient, "__call__", "model.hill"),
    (integrate, "tangential_force", "model.force"),
]

# Every per-layer metric, with its unit, in report order.
LAYER_METRICS: list[tuple[str, str]] = [
    ("kepler.calls", "count"), ("kepler.solve_us", "us"),
    ("model.hill_calls", "count"), ("model.hill_us", "us"),
    ("model.force_calls", "count"), ("model.force_us", "us"),
    ("integrate.variational_calls", "count"), ("integrate.variational_nfev", "count"),
    ("integrate.variational_self_s", "s"), ("integrate.rhs_us", "us"),
    ("integrate.orbit_calls", "count"), ("integrate.orbit_nfev", "count"),
    ("integrate.orbit_self_s", "s"),
    ("floquet.monodromy_calls", "count"), ("floquet.monodromy_ms_p50", "ms"),
    ("floquet.monodromy_ms_p99", "ms"), ("floquet.det_defect_max", "1"),
    ("floquet.probe_r1.0_ms", "ms"), ("floquet.probe_r1.0_nfev", "count"),
    ("floquet.probe_r1.9_ms", "ms"), ("floquet.probe_r1.9_nfev", "count"),
    ("floquet.probe_r1.999_ms", "ms"), ("floquet.probe_r1.999_nfev", "count"),
    ("floquet.winding_calls", "count"), ("floquet.winding_s", "s"),
    ("scan.grid_points", "count"), ("scan.grid_s", "s"),
    ("scan.refine_evals", "count"), ("scan.refine_s", "s"),
    ("scan.census_evaluations", "count"), ("scan.census_levels", "count"),
    ("scan.census_s", "s"),
    ("poincare.section_s", "s"), ("poincare.strobes", "count"),
    ("poincare.truncated", "count"),
    ("general_model.reports", "count"), ("general_model.bound_report_s", "s"),
    ("general_model.min_distance_s", "s"),
    ("trace.overhead_frac", "1"),
]

SAMPLE_CAP = 512


class ArgSample:
    """Call counter plus every ``stride``-th call's arguments.

    When the sample reaches twice ``SAMPLE_CAP`` every other entry is
    dropped and the stride doubles, so the kept calls stay evenly spread
    over the whole run and the sample is the same for the same inputs.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.stride = 1
        self.next_keep = 1
        self.kept: list[tuple[tuple, dict]] = []

    def keep(self, args: tuple, kwargs: dict) -> None:
        self.kept.append((args, kwargs))
        if len(self.kept) == 2 * SAMPLE_CAP:
            self.kept = self.kept[::2]
            self.stride *= 2
        self.next_keep = self.calls + self.stride


class Tracer:
    """Context manager that installs the wrappers for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.samples: dict[str, ArgSample] = {}
        self.originals: dict[str, Callable] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, extra in SPAN_TARGETS:
                self._rebind(owner, attr, name,
                             lambda fn: self._span(name, fn, extra))
            for owner, attr, name in COUNT_TARGETS:
                self._rebind(owner, attr, name, lambda fn: self._counted(name, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _rebind(self, owner: Any, attr: str, name: str,
                wrap: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        self.originals[name] = original
        setattr(owner, attr, wrap(original))
        self._saved.append((owner, attr, original))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span(self, name: str, fn: Callable, extra: Callable[[Any], dict] | None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if extra is not None:
                record[4] = extra(out)
            return out

        return wrapper

    def _counted(self, name: str, fn: Callable):
        sample = self.samples[name] = ArgSample()

        def wrapper(*args, **kwargs):
            sample.calls += 1
            if sample.calls == sample.next_keep:
                sample.keep(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def to_json_dict(self) -> dict:
        """Spans and call counts, for writing out when the run ends."""
        return {
            "span_fields": ["name", "start", "end", "parent", "extra"],
            "spans": self.spans,
            "calls": {name: s.calls for name, s in self.samples.items()},
        }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, leaf_us: dict[str, float],
                  probes: dict[str, float], overhead_frac: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    A span's self time is its duration minus that of its direct child
    spans.  ``floquet.monodromy_ms_p99`` needs at least ten samples beyond
    the 99th percentile (1000 monodromies); with fewer it is reported as 0,
    as are the times of leaf calls the workload never makes.
    """
    spans = tracer.spans
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def total(name: str) -> float:
        return sum(duration[i] for i in by_name[name])

    def self_time(name: str) -> float:
        return sum(duration[i] - child_time[i] for i in by_name[name])

    def extra_sum(name: str, key: str) -> float:
        return sum(spans[i][4][key] for i in by_name[name])

    def children_of(parent_name: str, child_name: str) -> int:
        return sum(1 for i in by_name[child_name]
                   if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent_name)

    calls = {name: s.calls for name, s in tracer.samples.items()}
    mono_ms = [1e3 * duration[i] for i in by_name["floquet.monodromy"]]
    var_nfev = extra_sum("integrate.variational", "nfev")
    census = by_name["scan.census"]

    out = {
        "kepler.calls": calls["kepler.solve"],
        "kepler.solve_us": leaf_us["kepler.solve"],
        "model.hill_calls": calls["model.hill"],
        "model.hill_us": leaf_us["model.hill"],
        "model.force_calls": calls["model.force"],
        "model.force_us": leaf_us["model.force"],
        "integrate.variational_calls": len(by_name["integrate.variational"]),
        "integrate.variational_nfev": var_nfev,
        "integrate.variational_self_s": self_time("integrate.variational"),
        "integrate.rhs_us": (1e6 * total("integrate.variational") / var_nfev
                             if var_nfev else 0.0),
        "integrate.orbit_calls": len(by_name["integrate.orbit"]),
        "integrate.orbit_nfev": extra_sum("integrate.orbit", "nfev"),
        "integrate.orbit_self_s": self_time("integrate.orbit"),
        "floquet.monodromy_calls": len(mono_ms),
        "floquet.monodromy_ms_p50": statistics.median(mono_ms) if mono_ms else 0.0,
        "floquet.monodromy_ms_p99": (percentile(mono_ms, 99.0)
                                     if len(mono_ms) >= 1000 else 0.0),
        "floquet.det_defect_max": max(
            (spans[i][4]["det_defect"] for i in by_name["floquet.monodromy"]),
            default=0.0),
        **probes,
        "floquet.winding_calls": len(by_name["floquet.winding"]),
        "floquet.winding_s": total("floquet.winding"),
        "scan.grid_points": children_of("scan.grid", "floquet.monodromy"),
        "scan.grid_s": total("scan.grid"),
        "scan.refine_evals": children_of("scan.refine", "floquet.monodromy"),
        "scan.refine_s": total("scan.refine"),
        "scan.census_evaluations": children_of("scan.census", "floquet.monodromy"),
        "scan.census_levels": max((spans[i][4]["levels"] for i in census), default=0),
        "scan.census_s": total("scan.census"),
        "poincare.section_s": total("poincare.section"),
        "poincare.strobes": extra_sum("poincare.section", "strobes"),
        "poincare.truncated": extra_sum("poincare.section", "truncated"),
        "general_model.reports": len(by_name["general_model.bound_report"]),
        "general_model.bound_report_s": total("general_model.bound_report"),
        "general_model.min_distance_s": total("general_model.min_distance"),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: out[name] for name, _ in LAYER_METRICS}
