import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conc_toolkit import suites
from conc_toolkit.errors import DomainError
from conc_toolkit.suites import SUITE_DEFAULTS, SUITE_IDS, run_suite, run_suites


def test_registry_complete():
    assert set(SUITE_IDS) == set(SUITE_DEFAULTS)
    assert len(SUITE_IDS) == 10


def test_unknown_suite_rejected():
    with pytest.raises(DomainError, match="unknown suite"):
        run_suite("nope")
    with pytest.raises(DomainError, match="config"):
        run_suite("going-down-exact", {"bogus_key": 1})


def test_going_down_exact_small():
    rep = run_suite("going-down-exact", {"trials": 25}, seed=11)
    assert rep.passed
    assert rep.summary["violations"] == 0
    assert len(rep.instances) == 25


def test_w1_fm_exact_small():
    rep = run_suite("w1-fm-exact", {"trials": 20}, seed=11)
    assert rep.passed
    assert rep.summary["violations"] == 0


def test_te_jensen_small():
    rep = run_suite("te-jensen-pointwise", {"trials_per_p": 5}, seed=11)
    assert rep.passed
    # the recorded chains are ordered
    for inst in rep.instances:
        chain = inst["chain"]
        assert all(chain[i] <= chain[i + 1] + 1e-9 for i in range(len(chain) - 1))


def test_iso_stability_shape():
    rep = run_suite("iso-stability-shape",
                    {"p_grid": [1.0, 2.0], "d_grid": [0.0, 1.0, 4.0]}, seed=11)
    assert rep.passed
    assert rep.summary["monotone"]
    assert rep.summary["track_within_factor"]


def test_logsob_stability():
    rep = run_suite("logsob-stability",
                    {"d_grid": [1.0], "mass_grid": [0.1, 0.5]}, seed=11)
    assert rep.passed
    assert rep.summary["min_fit"] >= rep.summary["floor"]


def test_w1_stability_chain():
    rep = run_suite("w1-stability-chain", {"p_grid": [1.0]}, seed=11)
    assert rep.passed


def test_conc_te_equiv():
    rep = run_suite("conc-te-equiv", {"p_grid": [1.0, 2.0], "atoms": 13},
                    seed=11)
    assert rep.passed
    assert rep.summary["max_spread"] <= rep.config["band"]


def test_te_equiv_shape():
    rep = run_suite("te-equiv-shape", {"p_grid": [1.0, 2.0]}, seed=11)
    assert rep.passed


def test_hierarchy():
    rep = run_suite("hierarchy-gamma-p", {"p_grid": [1.0, 2.0]}, seed=11)
    assert rep.passed
    assert rep.summary["min_band_low"] >= 0.5


def test_bg_duality_small():
    rep = run_suite("bg-duality", {"trials": 8}, seed=11)
    assert rep.passed
    assert rep.summary["disagreements"] == 0


def test_reports_deterministic_and_parallel_consistent():
    """In-process reports against worker reports, which run_suites starts
    longest first (te-jensen-pointwise here) and returns in input order."""
    ids = ["going-down-exact", "te-jensen-pointwise"]
    serial = [run_suite(s, seed=5) for s in ids]
    parallel = run_suites(ids, seed=5, jobs=2)
    assert [r.suite_id for r in parallel] == ids
    for a, b in zip(serial, parallel):
        assert a.to_json() == b.to_json()


def test_report_json_round_trip(tmp_path):
    rep = run_suite("going-down-exact", {"trials": 5}, seed=3)
    path = tmp_path / "rep.json"
    rep.save(str(path))
    data = json.loads(path.read_text())
    assert data["suite_id"] == "going-down-exact"
    assert data["seed"] == 3
    assert isinstance(data["passed"], bool)


def test_run_suites_parallel_matches_serial():
    ids = ["te-equiv-shape", "hierarchy-gamma-p"]
    serial = run_suites(ids, seed=2, jobs=1)
    parallel = run_suites(ids, seed=2, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.to_json() == b.to_json()


def test_run_suites_worker_count(monkeypatch):
    """At most one worker process per suite and per CPU; one worker runs
    in-process without a pool."""
    asked = []
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, ids):
            started.append(list(ids))
            return [fn(sid) for sid in ids]

    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(suites, "run_suite", lambda sid, seed: (sid, seed))
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 8)
    ids = ["te-equiv-shape", "hierarchy-gamma-p"]
    assert run_suites(ids, seed=4, jobs=64) == [(sid, 4) for sid in ids]
    assert asked == [2]
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 3)
    assert run_suites(list(SUITE_IDS), jobs=64) == [(sid, 0) for sid in SUITE_IDS]
    assert asked == [2, 3]
    assert sorted(started[-1]) == sorted(SUITE_IDS)
    seconds = [suites._SUITES[sid][1] for sid in started[-1]]
    assert seconds == sorted(seconds, reverse=True)
    assert run_suites(ids, seed=4, jobs=1) == [(sid, 4) for sid in ids]
    assert run_suites(ids[:1], jobs=64) == [(ids[0], 0)]
    assert asked == [2, 3]
    with pytest.raises(DomainError, match="jobs"):
        run_suites(ids, jobs=0)


def _fresh_python(script: str) -> list[str]:
    """Words the script prints in a fresh interpreter running this package,
    so no other test's imports count."""
    src = str(Path(suites.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.split()


def test_line_suites_in_workers_leave_scipy_optimize_unloaded():
    """run_suites imports no scipy module before it forks, and these line
    suites need no LP solver: scipy.optimize stays out of the parent."""
    script = (
        "import sys\n"
        "from conc_toolkit.suites import run_suites\n"
        "reports = run_suites(['w1-stability-chain', 'hierarchy-gamma-p'], jobs=2)\n"
        "print(all(r.passed for r in reports), 'scipy.optimize' in sys.modules)\n")
    assert _fresh_python(script) == ["True", "False"]


def test_vertex_suites_leave_scipy_unloaded():
    """w1-fm-exact and bg-duality take their exact values from the Lipschitz
    vertex walk, which is numpy alone: run_suites imports no scipy module
    before it forks, and neither suite loads one in-process."""
    script = (
        "import sys\n"
        "from conc_toolkit.suites import run_suite, run_suites\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "reports = run_suites(['w1-fm-exact', 'bg-duality'], jobs=2)\n"
        "print(all(r.passed for r in reports), scipy())\n"
        "reports = [run_suite('w1-fm-exact', {'trials': 10}),\n"
        "           run_suite('bg-duality', {'trials': 5})]\n"
        "print(all(r.passed for r in reports), scipy())\n")
    assert _fresh_python(script) == ["True", "[]", "True", "[]"]


def test_conc_te_equiv_leaves_scipy_unloaded():
    """conc-te-equiv's atoms lie on a line, where W_1 and its KR potential
    have closed forms: the suite solves no LP and loads no scipy module."""
    script = (
        "import sys\n"
        "from conc_toolkit.suites import run_suite\n"
        "report = run_suite('conc-te-equiv')\n"
        "print(report.passed, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh_python(script) == ["True", "[]"]
