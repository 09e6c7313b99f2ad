"""Tests of the benchmark itself.  Run with `python3 -m pytest bench -q`."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SPAN, Tracer  # noqa: E402

SMALL = 8  # largest group order in the inputs of the slower tests


def worker(*args, max_order=SMALL):
    """One worker pass in a fresh process, on the catalog up to `max_order`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               PYTHONHASHSEED="0")
    run = (f"import sys, worker; worker.MAX_ORDER = {max_order}; "
           "sys.exit(worker.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", run, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counts(layers):
    return {k: v for k, v in layers.items()
            if not k.endswith("_s") and not k.startswith("trace.")}


def test_traced_counts_repeat_exactly():
    for workload in workloads.WORKLOADS:
        runs = [worker("--workload", workload, "--seed", "3", "--trace") for _ in range(2)]
        first, second = (counts(r["layers"]) for r in runs)
        assert first == second, workload
        assert any(k.endswith(".calls") and v > 0 for k, v in first.items())


def test_traced_run_reports_the_group_layers():
    layers = worker("--workload", "lq_sweep", "--seed", "1", "--trace")["layers"]
    for name in ("groups.mul.calls", "groups.closure.calls", "linalg.rank.p2.calls",
                 "groupcoh.free_resolution.betti_sum", "repv.hom_enumerate.homs",
                 "lq.lq_check.calls", "lq.symonds_module.max_dim"):
        assert layers[name] > 0, name
    assert layers["groupcoh.free_resolution.repeat_frac"] > 0


def test_results_do_not_depend_on_labelling():
    for workload in ("coh_shapiro", "lq_sweep", "sep_sweep"):
        plain, relabelled = (
            {k: sorted(v, key=json.dumps) for k, v in worker(
                "--workload", workload, "--record", *flags, max_order=12
            )["recorded"].items()}
            for flags in (("--seed", "0"), ("--seed", "1", "--relabel")))
        assert plain == relabelled, workload


def test_relabelling_keeps_the_group():
    g = next(g for g in workloads.catalog.all_groups(8) if g.name == "D4")
    h = next(x for x in workloads.catalog_inputs(5, 8, relabel=True) if x.name == "D4")
    assert (h.table != g.table).any()
    assert sorted(map(len, workloads.all_subgroups(h))) == \
        sorted(map(len, workloads.all_subgroups(g)))


def test_corrupted_expected_value_is_reported():
    expected = workloads.load_expected()
    units = workloads.lq_sweep(workloads.catalog_inputs(0, 4))
    clean = workloads.run_checks(units, expected)
    assert clean["status"]["ok"] == len(clean["check_s"]) > 0

    key = "lq|C4|p2|r1"
    expected[key] = [dict(expected[key][0], lhs=[9, 9, 9, 9])]
    units = workloads.lq_sweep(workloads.catalog_inputs(0, 4))
    broken = workloads.run_checks(units, expected)
    assert broken["status"]["mismatch"] == 1
    assert [f["key"] for f in broken["failures"]] == [key]


def test_times_are_scaled_by_the_speed_of_their_pass():
    # the first pass ran at half the reference speed, the second at full speed
    passes = [{"check_s": [0.2, 0.4], "setup_s": 0.6, "slowness": 2.0, "status": {"ok": 2}},
              {"check_s": [0.15, 0.5], "setup_s": 0.5, "slowness": 1.0, "status": {"ok": 2}}]
    scaled = run.time_metrics(passes, scaled=True)
    assert scaled["checks_per_s"][0] == pytest.approx(4 / (0.1 + 0.2 + 0.15 + 0.5))
    assert scaled["check_ms_p50"][0] == pytest.approx(175)
    assert scaled["setup_s"][0] == pytest.approx(0.4)
    unscaled = run.time_metrics(passes, scaled=False)
    assert unscaled["checks_per_s"][0] == pytest.approx(4 / 1.25)


def test_slowness_ignores_the_outer_tenths():
    samples = [100, 2, 2, 2, 2, 2, 2, 2, 2, 0.01]
    assert run.slowness([run.SPEED_REF_S * x for x in samples]) == pytest.approx(2)


def test_theory_check_failure_is_reported():
    units = [workloads._one("towers|broken", lambda: workloads._require(False, "no"))]
    result = workloads.run_checks(units, {})
    assert result["status"]["mismatch"] == 1


def test_self_time_subtracts_children():
    t = Tracer()
    # root -> groupcoh.cohomology [0, 10] -> groupcoh.free_resolution [1, 6]
    #      -> linalg.rank.p2 [2, 5]; cohomology also calls linalg.rank.p2 [7, 9]
    for sid, parent, name, t0, t1 in [(3, 2, "linalg.rank.p2", 2.0, 5.0),
                                      (2, 1, "groupcoh.free_resolution", 1.0, 6.0),
                                      (4, 1, "linalg.rank.p2", 7.0, 9.0),
                                      (1, 0, "groupcoh.cohomology", 0.0, 10.0)]:
        t.spans += SPAN.pack(sid, parent, t.name_id(name), 0, t0, t1)
    m = t.metrics()
    assert m["linalg.self_s"] == 5.0
    assert m["groupcoh.self_s"] == 5.0
    assert m["groupcoh.free_resolution.self_s"] == 2.0
    assert m["groupcoh.cohomology.self_s"] == 5.0
    assert m["linalg.rank.p2.self_s"] == 5.0


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lq_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recursion_is_counted_once():
    t = Tracer()
    # groups.closure [0, 10] calls itself [1, 4]: the function's time is 10, not 13
    t.spans += SPAN.pack(2, 1, t.name_id("groups.closure"), 1, 1.0, 4.0)
    t.spans += SPAN.pack(1, 0, t.name_id("groups.closure"), 0, 0.0, 10.0)
    m = t.metrics()
    assert m["groups.closure.self_s"] == 10.0
    assert m["groups.self_s"] == 10.0
