import json

import pytest

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
    ids = ["going-down-exact", "te-jensen-pointwise"]
    cfgs = {"going-down-exact": {"trials": 10},
            "te-jensen-pointwise": {"trials_per_p": 3}}
    serial = [run_suite(s, cfgs[s], seed=5) for s in ids]
    again = [run_suite(s, cfgs[s], seed=5) for s in ids]
    for a, b in zip(serial, again):
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
    from conc_toolkit import suites

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, ids):
            return [fn(sid) for sid in ids]

    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(suites, "run_suite", lambda sid, seed: (sid, seed))
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 8)
    ids = ["te-equiv-shape", "hierarchy-gamma-p"]
    assert run_suites(ids, seed=4, jobs=64) == [(sid, 4) for sid in ids]
    assert asked == [2]
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 3)
    run_suites(list(SUITE_IDS), jobs=64)
    assert asked == [2, 3]
    assert run_suites(ids, seed=4, jobs=1) == [(sid, 4) for sid in ids]
    assert run_suites(ids[:1], jobs=64) == [(ids[0], 0)]
    assert asked == [2, 3]
    with pytest.raises(DomainError, match="jobs"):
        run_suites(ids, jobs=0)
