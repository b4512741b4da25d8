import json
import math
from pathlib import Path

import numpy as np
import pytest

from conc_toolkit import functional, suites
from conc_toolkit.errors import DomainError, ValidationError
from conc_toolkit.laplace import mean_zero_lipschitz_vertices
from conc_toolkit.measures import DiscreteSpace, Measure1D, build_measure_1d
from conc_toolkit.profiles import LOG2, conc_profile
from conc_toolkit.suites import SUITE_DEFAULTS, SUITE_IDS, run_suite, run_suites
from conc_toolkit.transport import _kl_discrete, gibbs_tilt_discrete


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


def test_line_suites_in_workers_leave_scipy_optimize_unloaded(fresh_python):
    """run_suites imports no scipy module before it forks, and the line
    suites need none: no LP solver, and hierarchy-gamma-p's Poincare gap is
    a Sturm bisection.  No scipy module loads in the parent or in-process."""
    script = (
        "import sys\n"
        "from conc_toolkit.suites import run_suite, run_suites\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "reports = run_suites(['w1-stability-chain', 'hierarchy-gamma-p'], jobs=2)\n"
        "print(all(r.passed for r in reports), scipy())\n"
        "print(run_suite('hierarchy-gamma-p').passed, scipy())\n")
    assert fresh_python(script) == ["True", "[]", "True", "[]"]


def test_vertex_suites_leave_scipy_unloaded(fresh_python):
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
    assert fresh_python(script) == ["True", "[]", "True", "[]"]


def test_conc_te_equiv_leaves_scipy_unloaded(fresh_python):
    """conc-te-equiv's atoms lie on a line, where W_1 and its KR potential
    have closed forms: the suite solves no LP and loads no scipy module."""
    script = (
        "import sys\n"
        "from conc_toolkit.suites import run_suite\n"
        "report = run_suite('conc-te-equiv')\n"
        "print(report.passed, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert fresh_python(script) == ["True", "[]"]


@pytest.mark.parametrize("suite_id, key, value, error", [
    ("going-down-exact", "trials", -1, DomainError),
    ("going-down-exact", "trials", 0, DomainError),
    ("going-down-exact", "n_max", 1, DomainError),
    ("going-down-exact", "n_max", 2, DomainError),
    ("going-down-exact", "trials", 2.5, ValidationError),
    ("going-down-exact", "trials", True, ValidationError),
    ("w1-fm-exact", "trials", -1, DomainError),
    ("w1-fm-exact", "n_max", 1, DomainError),
    ("te-jensen-pointwise", "trials_per_p", 0, DomainError),
    ("te-jensen-pointwise", "trials_per_p", "3", ValidationError),
    ("bg-duality", "trials", -1, DomainError),
    ("bg-duality", "n_max", 2, DomainError),
    ("bg-duality", "witness_cap", 0, DomainError),
    ("bg-duality", "witness_cap", None, ValidationError),
    ("conc-te-equiv", "max_witnesses", -3, DomainError),
    ("conc-te-equiv", "max_witnesses", 0, DomainError),
    ("conc-te-equiv", "atoms", 1, DomainError),
])
def test_finite_suite_config_values_checked(suite_id, key, value, error):
    """Counts are integers >= 1 and n_max leaves room for the smallest point
    count the suite draws: what is not an integer raises ValidationError,
    and an integer below the floor DomainError, naming the key before an
    instance is drawn."""
    with pytest.raises(error, match=f"^{suite_id} config '{key}' must be an integer"):
        run_suite(suite_id, {key: value})


@pytest.mark.parametrize("suite_id, key, value, what", [
    ("te-jensen-pointwise", "p_grid", "ab", "a non-empty list"),
    ("te-jensen-pointwise", "p_grid", [], "a non-empty list"),
    ("iso-stability-shape", "d_grid", [0.0, math.nan], "a non-empty list"),
    ("logsob-stability", "mass_grid", [0.1, math.inf], "a non-empty list"),
    ("w1-stability-chain", "p_grid", [1.0, "2"], "a non-empty list"),
    ("bg-duality", "witness_lams", [], "a non-empty list"),
    ("bg-duality", "tie_tol", -1.0, "a finite number > 0"),
    ("iso-stability-shape", "c_floor", 0.0, "a finite number > 0"),
    ("iso-stability-shape", "v_min", math.nan, "a finite number > 0"),
    ("conc-te-equiv", "band", math.inf, "a finite number > 0"),
    ("te-equiv-shape", "ratio_floor", True, "a finite number > 0"),
    ("hierarchy-gamma-p", "con_band", None, "a finite number > 0"),
    ("conc-te-equiv", "half_width", -1.0, "None or a finite number > 0"),
    ("hierarchy-gamma-p", "half_width", math.inf, "None or a finite number > 0"),
    ("hierarchy-gamma-p", "r_max", -1.0, "None or a finite number > 0"),
    ("hierarchy-gamma-p", "r_max", 0.0, "None or a finite number > 0"),
])
def test_suite_config_grids_and_tolerances_checked(suite_id, key, value, what):
    """Grids are non-empty lists of finite numbers, tolerances, bands and
    floors finite and positive, and the optional extents None or finite and
    positive; anything else raises DomainError naming the key before an
    instance is drawn."""
    with pytest.raises(DomainError, match=f"config '{key}' must be {what}"):
        run_suite(suite_id, {key: value})


def test_conc_te_equiv_rejects_a_fractional_atom_count():
    with pytest.raises(ValidationError, match="config 'atoms' must be an integer, got 2.5"):
        run_suite("conc-te-equiv", {"atoms": 2.5})


def test_finite_suite_config_floors_run():
    """The least allowed values run."""
    assert run_suite("going-down-exact", {"trials": 1, "n_max": 3}).passed
    assert run_suite("w1-fm-exact", {"trials": 1, "n_max": 2}).passed
    assert run_suite("te-jensen-pointwise", {"trials_per_p": 1}).passed
    assert run_suite("bg-duality", {"trials": 1, "n_max": 3, "witness_cap": 1}).passed
    assert run_suite("conc-te-equiv", {"atoms": 2, "max_witnesses": 1}).passed


def _margins_loop(lhs_at, rhs_at, rs):
    """going-down-exact's tally one radius at a time, as it ran before."""
    worst, bad = math.inf, 0
    for r in rs:
        margin = lhs_at(r) - rhs_at(r)
        if margin < -1e-9:
            bad += 1
        if math.isfinite(margin):
            worst = min(worst, margin)
    return bad, None if math.isinf(worst) else worst


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(6))
def test_going_down_margins_equal_the_scalar_loop(seed):
    """On instances drawn as the suite draws them, and on margins with
    +-inf, inf - inf and NaN entries: the array tally counts and takes the
    least finite margin as the loop did, without a warning."""
    rng = np.random.default_rng(seed)
    space, mu2, cap = suites._density_ratio_pair(rng, int(rng.integers(3, 11)))
    k1 = conc_profile(space)
    k2 = conc_profile(DiscreteSpace(dist=space.dist, weights=mu2))
    above = k1.inputs[k1.values > LOG2 + cap]
    r1 = float(above[0]) if above.size else float(space.diameter * (1 + 1e-9))
    rs = np.concatenate([k1.inputs, 0.5 * (k1.inputs[:-1] + k1.inputs[1:]),
                         [space.diameter * 1.5]])
    want = _margins_loop(lambda r: k2.at(r + r1), lambda r: k1.at(r) - cap, rs)
    assert suites._margin_tally(k2.at(rs + r1), k1.at(rs) - cap) == want
    picks = np.array([math.inf, -math.inf, math.nan, 0.0, -1e-9, -2e-9, 1.5, -3.0])
    lhs, rhs = rng.choice(picks, 40), rng.choice(picks, 40)
    want = _margins_loop(lambda r: float(lhs[int(r)]), lambda r: float(rhs[int(r)]),
                         np.arange(40.0))
    assert suites._margin_tally(lhs, rhs) == want
    inf = np.full(3, math.inf)
    assert suites._margin_tally(inf, inf) == (0, None)


def _bg_one_draw_at_a_time(config, seed):
    """bg-duality judging one draw at a time, as it ran before its rounds:
    the instances judged and the number of draws made."""
    trials = config["trials"]
    lam_grid = np.concatenate([np.geomspace(0.05, 1.0, 17), np.linspace(1.2, 6.0, 25)])
    seeds = np.random.SeedSequence(seed).spawn(4 * trials)
    instances, draw = [], 0
    while len(instances) < trials and draw < 4 * trials:
        drawn = suites._bg_draw(np.random.default_rng(seeds[draw]), lam_grid, config)
        draw += 1
        space = drawn[1]
        verts = mean_zero_lipschitz_vertices(space, space.weights)
        d_crit = suites._critical_rates([space.weights], [verts], drawn[-1][None], lam_grid)[0]
        inst = suites._bg_instance(drawn, verts, float(d_crit), lam_grid, config)
        if not inst["near_tie"]:
            instances.append(inst)
    return instances, draw


@pytest.mark.parametrize("tie_tol, judged", [(0.5, 6), (50.0, 0)])
def test_bg_rounds_judge_as_one_draw_at_a_time(tie_tol, judged):
    """A wide tie band forces redraws, which run as later rounds (and, at
    50, exhaust the 4 x trials draws): the rounds judge the same instances
    in the same order and count the same redraws."""
    config = dict(SUITE_DEFAULTS["bg-duality"], trials=6, tie_tol=tie_tol)
    rep = run_suite("bg-duality", config, seed=3)
    want, draws = _bg_one_draw_at_a_time(config, 3)
    assert json.dumps(rep.instances) == json.dumps(want)
    assert rep.summary["judged"] == judged == len(want)
    assert rep.summary["redraws"] == draws - judged > 0
    assert rep.passed == (judged == 6)


def _te_margins_loop(nus, mu, verts, rate, base):
    """bg-duality's transport-entropy margins one witness at a time, as
    both of its exchange rounds ran them before they shared one pass."""
    margins, hs = [], []
    for nu in nus:
        h = _kl_discrete(nu, mu)
        if not math.isfinite(h):
            continue
        w1 = float(np.max(verts @ (nu - mu)))
        margins.append(rate * w1 - base.phi_inv_at(h + base.delta) - base.eps)
        hs.append(h)
    return margins, hs


@pytest.mark.parametrize("seed", range(6))
def test_te_margins_equal_the_per_witness_loop(seed):
    """On witnesses drawn as bg-duality draws them, against a base with a
    zero weight (so the point mass there has infinite H and is left out),
    and on an empty witness set: the same margins and H, bit for bit."""
    config = SUITE_DEFAULTS["bg-duality"]
    rng = np.random.default_rng(seed)
    _, space, _, _, base, _ = suites._bg_draw(rng, np.array([1.0]), config)
    verts = mean_zero_lipschitz_vertices(space, space.weights)
    n = space.n
    mu = space.weights.copy()
    mu[int(rng.integers(n))] = 0.0
    mu /= mu.sum()
    rate = float(rng.uniform(0.05, 5.0))
    tilts = gibbs_tilt_discrete(mu, verts[:, None, :], np.array([0.5, 2.0])[:, None] * rate)
    for nus in (np.concatenate([tilts.reshape(-1, n), np.eye(n)]), np.empty((0, n))):
        margins, h = suites._te_margins(nus, mu, verts, rate, base)
        want_margins, want_h = _te_margins_loop(nus, mu, verts, rate, base)
        assert np.array_equal(margins, want_margins) and np.array_equal(h, want_h)
        assert len(want_h) == len(nus) - (len(nus) > 0)


FINITE_SUITES = ("going-down-exact", "w1-fm-exact", "te-jensen-pointwise",
                 "conc-te-equiv", "bg-duality")
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "summaries.json"


def _agrees(got, want) -> bool:
    """Floats to 1e-9 relative, everything else exactly."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_agrees(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_agrees(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return got == want or math.isclose(got, want, rel_tol=1e-9)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("seed", [3, 11])
def test_finite_summaries_match_the_bench_reference(seed):
    """The five finite suites' summaries, as ``verify`` prints them, agree
    with the benchmark's stored reference (read, never written)."""
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[str(seed)]
    for sid in FINITE_SUITES:
        got = json.loads(json.dumps(run_suite(sid, seed=seed).summary, default=str))
        assert _agrees(got, want[sid]), (sid, got, want[sid])


def _bisection(f, lo, hi):
    """The plain bisection _concave_tilt ran before: to the midpoint that
    rounds to an end, a zero counting as the upper side."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return lo, hi


def _counted(f):
    calls = []

    def counting(*args):
        calls.append(args)
        return f(*args)

    return counting, calls


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_bracket_root_equals_bisection_on_gamma_p_tilts(p):
    """On the tilts _concave_tilt solves for (8,192 points, centres drawn
    as it draws them, caps across the suites' range), Brent's bracket is the
    adjacent-float bracket plain bisection ends on, in a fraction of the
    evaluations."""
    mu = build_measure_1d(preset="gamma_p", p=p, n_points=8192)
    rng = np.random.default_rng(int(4 * p))
    brent_calls = bisection_calls = 0
    for target in rng.uniform(0.3, 8.0, 3):
        t = float(rng.uniform(*mu.quantile(np.array([0.2, 0.8]))))

        def f(a, t=t, target=target):
            return -mu.log_mgf_nodes(-a * np.abs(mu.grid - t), 1.0) - target

        hi = 1.0
        while f(hi) < 0.0:
            hi *= 2.0
        g, calls = _counted(f)
        lo_b, hi_b = suites._bracket_root(g, 0.0, hi)
        want = _bisection(f, 0.0, hi)
        assert (lo_b, hi_b) == want
        assert np.nextafter(lo_b, math.inf) == hi_b
        assert f(lo_b) < 0.0 <= f(hi_b)
        brent_calls += len(calls)
        h, calls = _counted(f)
        _bisection(h, 0.0, hi)
        bisection_calls += len(calls)
    assert brent_calls <= bisection_calls / 3


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: x * x * x - 0.1, 0.0, 1.0),
    (lambda x: 0.0 if x >= 1.0 / 3.0 else -1.0, 0.0, 1.0),  # a step
    (lambda x: min(x - 0.3, 0.0) + max(x - 0.7, 0.0), 0.0, 1.0),  # zero on [0.3, 0.7]
    (lambda x: math.floor((x - 0.6) * 2.0**40) / 2.0**40, 0.0, 1.0),  # flat by 2^-40
    (lambda x: math.floor((x - 5.0) * 2.0**50) / 2.0**50, 0.0, 8.0),  # flat by a few ulps
    (lambda x: x - 1e-300, 0.0, 1.0),  # a root near zero
])
def test_bracket_root_equals_bisection_where_flat_at_the_noise_level(f, lo, hi):
    """On monotone functions, steps and plateaus of zeros included, the
    bracket is the one plain bisection ends on: the last float below 0 and
    the first at or above it."""
    assert suites._bracket_root(f, lo, hi) == _bisection(f, lo, hi)


def _count_calls(monkeypatch, owner, name):
    counting, calls = _counted(getattr(owner, name))
    monkeypatch.setattr(owner, name, counting)
    return calls


def test_iso_stability_shape_tilts_in_few_evaluations(monkeypatch):
    """Each tilt's root takes a handful of log-MGF passes: at most 500 over
    the suite's 20 tilts at seed 7, against 1,165 for bisection."""
    calls = _count_calls(monkeypatch, Measure1D, "log_mgf_nodes")
    run_suite("iso-stability-shape", seed=7)
    assert len(calls) <= 500


def test_logsob_stability_polish_reuses_its_point(monkeypatch):
    """The golden section makes one new evaluation per step: at most 460
    exponential-family quotients at seed 7, against 801 with two per step."""
    calls = _count_calls(monkeypatch, functional, "_exp_family_ratio")
    run_suite("logsob-stability", seed=7)
    assert len(calls) <= 460
