"""Tests of the benchmark itself: checks, tracer hygiene, seeded inputs, layout."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads
from curved_sitnikov import scan
from curved_sitnikov.kepler import ModelParams
from tracer import COUNT_TARGETS, LAYER_METRICS, SPAN_TARGETS, Tracer, percentile
from workloads import SPEC, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _census(**overrides):
    fields = dict(SPEC["census-ceiling"]["reference"])
    fields.update(overrides)
    return SimpleNamespace(**fields)


def test_census_check_rejects_count_15():
    inputs = workloads.census_inputs(0)
    assert [u.ok for u in workloads.census_check(inputs, _census())] == [True]
    assert [u.ok for u in workloads.census_check(inputs, _census(count=15))] == [False]


def test_scan_check_rejects_transition_moved_by_1e_6():
    inputs = workloads.scan_inputs(0)
    ref = SPEC["scan-eccentric"]["reference"]["transitions"]
    found = {eps: list(ref[str(eps)]) for eps in inputs["epsilons"]}
    assert all(u.ok for u in workloads.scan_check(inputs, found))
    found[0.1][1] += 1e-6
    verdicts = {u.name: u.ok for u in workloads.scan_check(inputs, found)}
    assert verdicts.pop("eps=0.1") is False
    assert all(verdicts.values())
    found[0.1].pop()
    assert not {u.name: u.ok for u in workloads.scan_check(inputs, found)}["eps=0.1"]


def test_section_check_rejects_truncated_orbit():
    inputs = dict(workloads.section_inputs(0))
    inputs["grid"] = inputs["grid"][:2]
    full = np.zeros((inputs["n_iterates"], 2))
    cloud = SimpleNamespace(orbits=[full[:57], full], truncated=[True, False])
    assert [u.ok for u in workloads.section_check(inputs, cloud)] == [False, True]
    cloud = SimpleNamespace(orbits=[full], truncated=[False])
    assert [u.ok for u in workloads.section_check(inputs, cloud)] == [True, False]


def test_gap_check_rejects_winding_that_does_not_fall():
    inputs = workloads.gap_inputs(0)
    reports = [[SimpleNamespace(lam=lam, bound_ok=True, winding_estimate=3.0 - k)
                for k, lam in enumerate(inputs["lams"])] for _ in inputs["pairs"]]
    windings = [(-8.5, -8.5)] * len(inputs["winding"]["phases"])
    assert all(u.ok for u in workloads.gap_check(inputs, (reports, windings)))
    reports[1][2].winding_estimate = 5.0
    assert sum(not u.ok for u in workloads.gap_check(inputs, (reports, windings))) == 1
    windings[3] = (-8.5, -8.4)
    assert sum(not u.ok for u in workloads.gap_check(inputs, (reports, windings))) == 2


def _attribute_snapshot():
    owners = {id(o): o for o, *_ in SPAN_TARGETS + COUNT_TARGETS}.values()
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_attributes_even_when_the_run_raises():
    before = _attribute_snapshot()
    with pytest.raises(ValueError, match="period"):
        with Tracer():
            assert _attribute_snapshot() != before
            scan.monodromy(math.pi, ModelParams(r=1.0), period=1.0)
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_mini_scan():
    tracer = Tracer()
    with tracer:
        curve = scan.trace_curve(math.pi, 0.1, [1.18, 1.19, 1.2], tol=1e-9)
        scan.find_transitions(curve, refine_tol=1e-4)
    return tracer


def test_traced_counts_repeat_exactly():
    first, second = _traced_mini_scan(), _traced_mini_scan()
    calls = {name: s.calls for name, s in first.samples.items()}
    assert calls == {name: s.calls for name, s in second.samples.items()}
    assert calls["kepler.solve"] > 0 and calls["model.hill"] > 0
    assert [s[0] for s in first.spans] == [s[0] for s in second.spans]
    assert [s[4] for s in first.spans if s[0] == "integrate.variational"] == \
        [s[4] for s in second.spans if s[0] == "integrate.variational"]


def test_layer_metrics_cover_every_declared_metric():
    from tracer import layer_metrics

    tracer = _traced_mini_scan()
    leaf = {name: 1.0 for name in tracer.samples}
    probes = {name: 1.0 for name, _ in LAYER_METRICS if name.startswith("floquet.probe")}
    values = layer_metrics(tracer, leaf, probes, 0.05)
    assert list(values) == [name for name, _ in LAYER_METRICS]
    assert values["scan.grid_points"] == 3
    assert values["scan.refine_evals"] > 0
    assert values["floquet.monodromy_calls"] == (
        values["scan.grid_points"] + values["scan.refine_evals"])
    assert values["floquet.monodromy_ms_p99"] == 0.0  # fewer than 1000 samples


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 99.0) == 990
    assert percentile(values, 50.0) == 500


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_inputs(name):
    make = WORKLOADS[name].make_inputs
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_jitter_stays_inside_declared_ranges():
    for seed in range(20):
        lo, hi = SPEC["census-ceiling"]["inputs"]["r_start_fraction"]["seed_uniform"]
        assert lo <= workloads.census_inputs(seed)["r_start_fraction"] <= hi
        spec = SPEC["scan-eccentric"]["inputs"]
        grid = workloads.scan_inputs(seed)["grid"]
        assert spec["r_lo"] <= grid[0] <= spec["r_lo"] + spec["step"]
        assert spec["r_hi"] - spec["step"] < grid[-1] <= spec["r_hi"]


@pytest.mark.parametrize("seed", [3, 4])
def test_different_seeds_meet_the_same_references(seed):
    inputs = workloads.scan_inputs(seed)
    inputs["epsilons"] = [0.0]
    found = workloads.scan_run(inputs)
    assert all(u.ok for u in workloads.scan_check(inputs, found))
    assert abs(found[0.0][0] - 1.2349418) <= 1e-7

    inputs = workloads.gap_inputs(seed)
    assert all(u.ok for u in workloads.gap_check(inputs, workloads.gap_run(inputs)))


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert [w for w in SPEC if w != "unmeasured"] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == LAYER_METRICS
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gap-geometry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
