"""Tests of the benchmark itself (about a minute).

Run from the root of a checkout:  python3 -m pytest -q bench/check_bench.py

The file name keeps these tests out of the default ``pytest`` collection,
because the smoke runs start toolkit processes.
"""

import functools
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {  # one small piece of each CLI workload
    "verify-finite": functools.partial(run.cli_pass, suites=("going-down-exact",),
                                       commands={}),
    "line-cli": functools.partial(
        run.cli_pass, suites=("w1-stability-chain",),
        commands={"constants-p1.json": run.LINE_COMMANDS["constants-p1.json"]}),
}


def _span(name, parent, start, end):
    return [name, parent, start, end, None]


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("a", -1, 0.0, 10.0),
        _span("b", 0, 1.0, 4.0),
        _span("c", 1, 2.0, 3.0),
        _span("d", 0, 5.0, 6.5),
        _span("e", -1, 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1.5, 3 - 1, 1, 1.5, 1])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", -1, 0.0, 10.0), _span("b", 0, 1.0, 5.0),
             _span("c", 0, 3.0, 7.0), _span("d", 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)


def test_layer_metrics_sum_by_layer_and_count_lp_events():
    ok = {"ok": True, "presolve_off": False}
    spans = [
        _span("suites.w1-fm-exact", -1, 0.0, 5.0),
        _span("transport.first_moment_constant", 0, 0.0, 4.0),
        ["transport.linprog", 1, 0.0, 1.0, {"ok": False, "presolve_off": False}],
        ["transport.linprog", 1, 1.0, 2.0, {"ok": True, "presolve_off": True}],
        ["transport.linprog", -1, 5.0, 6.0, ok],
        ["transport.linprog", -1, 6.0, 7.0, {"ok": True, "presolve_off": True}],
    ]
    m = layer_metrics([spans, spans[4:5]])
    assert m["transport.linprog.calls"] == (5, "count")
    assert m["transport.linprog.self_s"][0] == pytest.approx(5.0)
    assert m["transport.linprog.failed"] == (1, "count")
    assert m["transport.linprog.retries"] == (1, "count")
    assert m["transport.first_moment_constant.lp_calls"] == (2, "count")
    assert m["transport.first_moment_constant.self_s"][0] == pytest.approx(2.0)
    assert m["suites.w1-fm-exact.lp_calls"] == (2, "count")
    assert m["suites.w1-fm-exact.wall_s"][0] == pytest.approx(5.0)
    assert m["suites.w1-fm-exact.self_s"][0] == pytest.approx(1.0)


def test_metric_names_match_the_pattern_and_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(layer_metrics([])) <= {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_differences_hold_floats_to_relative_tolerance():
    want = {"a": 1.0, "b": [2, "x", True]}
    assert run.differences({"a": 1.0 + 1e-10, "b": [2, "x", True]}, want) == []
    assert run.differences({"a": 1.0 + 1e-8, "b": [2, "x", True]}, want)
    assert run.differences({"a": 1.0, "b": [2, "x", False]}, want)
    assert run.differences({"a": 1.0}, want)


def test_a_failed_suite_counts_as_a_failed_operation():
    out = ('[pass] going-down-exact: {"trials": 100, "violations": 0}\n'
           '[FAIL] w1-fm-exact: {"trials": 100, "violations": 3}\n')
    proc = run.Proc(1, 1.0, 1.0, 1.0, out, "")
    ops = run.check_verify(proc, ("going-down-exact", "w1-fm-exact", "bg-duality"),
                           7, {"7": {"going-down-exact": {"trials": 100,
                                                          "violations": 0}}})
    assert [bool(problems) for _, problems in ops] == [False, True, True]


def test_reference_summary_mismatch_counts_as_failed():
    out = '[pass] going-down-exact: {"trials": 100, "violations": 0}\n'
    proc = run.Proc(0, 1.0, 1.0, 1.0, out, "")
    ref = {"7": {"going-down-exact": {"trials": 99, "violations": 0}}}
    [(_, problems)] = run.check_verify(proc, ("going-down-exact",), 7, ref)
    assert problems


@pytest.fixture
def ctx(tmp_path):
    references = json.loads((run.REFERENCE / "summaries.json").read_text())
    return run.Context(seed=7, tmp=tmp_path, deadline=time.monotonic() + 170,
                       references=references, env=run.child_env())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_cli_workload_measures_and_traces(ctx, monkeypatch, workload):
    monkeypatch.setitem(run.WORKLOADS, "tiny", (TINY[workload], run.cli_setup))
    measured = run.measure("tiny", ctx, seconds=1)
    assert measured.failed == 0 and measured.attempted > run.SETUP_REPEATS
    for metric in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
        assert measured.metrics[metric][0] > 0
    first = run.trace("tiny", ctx)
    second = run.trace("tiny", ctx)
    assert first.failed == 0 and second.failed == 0
    counts = {k: v for k, v in first.metrics.items() if v[1] == "count"}
    assert counts == {k: v for k, v in second.metrics.items() if v[1] == "count"}
    assert counts["transport.linprog.calls"][0] == 0
    assert first.metrics["trace.overhead"][0] > 0


def test_tiny_oracle_checks_hold_on_small_spaces():
    rng = np.random.default_rng(7)
    for problems, digest in (
            oracles.conc_exact(oracles._space(rng, 10), True),
            oracles.vertices_vs_lp(oracles._space(rng, 5), oracles._probability(rng, 5)),
            oracles.first_moment_witness(oracles._space(rng, 5)),
            oracles.transport_duality(oracles._space(rng, 20),
                                      oracles._probability(rng, 20))):
        assert problems == [] and len(digest) == 64


def test_oracle_process_setup_only(ctx):
    proc, problems = run.oracle_setup(ctx)
    assert problems == [] and proc.wall > 0


def test_fails_without_the_toolkit_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "line-cli",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
