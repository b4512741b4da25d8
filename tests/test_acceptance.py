"""Acceptance gate: one test per criterion, at the stated tolerance.

Every test prints a [PASS]/[FAIL] line (visible with pytest -s or in the
captured output of a failing run) so the gate doubles as a human-readable
checklist.
"""

import math

import numpy as np
import pytest

from conc_toolkit.cli import dispatch
from conc_toolkit.costs import (
    CostSpec,
    graded_cost_grid,
    legendre_numeric,
    phi_star_eval,
    phi_p_eval,
)
from conc_toolkit.functional import logsob_constant_1d, poincare_constant_1d
from conc_toolkit.laplace import (
    conc_to_laplace,
    gibbs_check,
    herbst_laplace,
    laplace_sup_discrete,
)
from conc_toolkit.measures import (
    atomize_1d,
    build_discrete_space,
    build_measure_1d,
    discrete_space_from_atoms,
)
from conc_toolkit.profiles import (
    LOG2,
    conc_profile,
    exp_p_gamma_shape,
    fit_constant,
    iso_profile_1d,
    iso_stability_transform,
)
from conc_toolkit.suites import run_suite
from conc_toolkit.transport import divergences, kr_dual

_FP_EPS = 1e-10  # floating-point allowance on closed-interval endpoints


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_space(rng, n):
    pts = rng.normal(size=(n, 2))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    w = rng.random(n) + 0.05
    return build_discrete_space(d, w / w.sum())


def test_criterion_01_exponential_closed_forms():
    mu = build_measure_1d(preset="gamma_p", p=1.0, half_width=260.0,
                          n_points=16384)
    vs = np.geomspace(1e-6, 0.5, 513)
    iso = iso_profile_1d(mu, vs)
    iso_err = float(np.max(np.abs(iso.values - vs)))
    rs = np.linspace(0.0, 20.0, 501)
    conc = conc_profile(mu, r_grid=rs)
    conc_err = float(np.max(np.abs(conc.values - (rs + LOG2))))
    wide = conc_profile(mu, r_grid=np.linspace(0.0, 250.0, 2001))
    d_con = fit_constant(wide, "p-exp-conc", p=1.0).value
    ok = iso_err <= 1e-6 and conc_err <= 1e-6 and abs(d_con - 1.0) <= 0.01
    _report("criterion 1 (two-sided exponential closed forms)", ok,
            f"iso_err={iso_err:.2e} conc_err={conc_err:.2e} D_Con_1={d_con:.5f}")


def test_criterion_02_going_down_exact():
    rep = run_suite("going-down-exact", seed=7)
    _report("criterion 2 (perturbation lemma, exact, 100 x n<=10)",
            rep.passed and rep.summary["violations"] == 0,
            f"violations={rep.summary['violations']}")


def test_criterion_03_w1_fm_exact():
    rep = run_suite("w1-fm-exact", seed=7)
    _report("criterion 3 (first-moment vs W1 lemma, exact, 100 x n<=6)",
            rep.passed and rep.summary["violations"] == 0,
            f"violations={rep.summary['violations']}")


def test_criterion_04_kantorovich_duality():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        s = _random_space(rng, n)
        nu = rng.random(n) + 0.01
        nu /= nu.sum()
        res = kr_dual(s, nu, s.weights)
        worst = max(worst, res.gap)
    _report("criterion 4 (Kantorovich duality gap, 200 x n<=12)",
            worst <= 1e-8, f"worst gap={worst:.2e}")


def test_criterion_05_gibbs_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        w = rng.random(n) + 0.01
        w /= w.sum()
        psi = rng.normal(scale=2.0, size=n)
        worst = max(worst, gibbs_check(w, psi).gap)
    _report("criterion 5 (Gibbs variational identity, 200 random)",
            worst <= 1e-8, f"worst gap={worst:.2e}")


def test_criterion_06_pinsker():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        a = rng.random(n) + 0.001
        a /= a.sum()
        b = rng.random(n) + 0.001
        b /= b.sum()
        rep = divergences(a, b)
        if rep.d_tv > math.sqrt(0.5 * rep.h_nu_mu) + 1e-12:
            violations += 1
    _report("criterion 6 (total variation vs entropy, 500 random pairs)",
            violations == 0, f"violations={violations}")


def test_criterion_07_jensen_pointwise():
    rep = run_suite("te-jensen-pointwise", seed=7)
    _report("criterion 7 (cost vs phi(W1) ordering, 4 x 100 LP instances)",
            rep.passed and rep.summary["violations"] == 0,
            f"violations={rep.summary['violations']}")


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0])
def test_criterion_08_legendre_pairing(p):
    spec = CostSpec(p)
    # the sup defining phi_star(lam), lam <= 5, sits at x = lam^{1/(p-1)};
    # for p = 1 the conjugate is infinite past lam = 1
    x_max = 10.0 if p == 1.0 else 1.25 * max(1.0, 5.0 ** (1.0 / (p - 1.0)))
    xs = graded_cost_grid(spec, x_max, 30001)
    lam = np.linspace(0.0, 5.0, 501)
    _, fstar = legendre_numeric(xs, phi_p_eval(spec, xs), lam)
    ref = phi_star_eval(spec, lam)
    finite = np.isfinite(ref)
    sup = float(np.max(np.abs(fstar[finite] - ref[finite])))
    ok = sup <= 1e-4 and bool(np.array_equal(np.isfinite(fstar), finite))
    _report(f"criterion 8 (conjugate pairing, p={p})", ok, f"sup={sup:.2e}")


def test_criterion_09_spectral_constants():
    g2 = build_measure_1d(preset="gamma_p", p=2.0, n_points=8192)
    g1 = build_measure_1d(preset="gamma_p", p=1.0, half_width=72.0,
                          n_points=8192)
    d2 = poincare_constant_1d(g2).value
    d1 = poincare_constant_1d(g1).value
    rho = logsob_constant_1d(g2).value
    ok = (abs(d2 - 1.0) <= 0.02 and abs(d1 - 0.5) <= 0.01
          and 0.5 - _FP_EPS <= rho <= 0.55)
    _report("criterion 9 (spectral constants)", ok,
            f"D_Poin(G2)={d2:.4f} D_Poin(G1)={d1:.4f} rho_LS={rho:.6f}")


def test_criterion_10_iso_band_lower_edge():
    floors = []
    for p in np.linspace(1.0, 4.0, 7):
        q_inv = (p - 1.0) / p
        mu = build_measure_1d(preset="gamma_p", p=float(p), n_points=8192)
        vs = np.geomspace(1e-6, 0.5, 513)
        prof = iso_profile_1d(mu, vs)
        ref = vs * np.log(1.0 / vs) ** q_inv
        floors.append(float(np.min(prof.values / ref)))
    _report("criterion 10 (iso band lower edge over p in [1, 4])",
            min(floors) >= 0.5, f"min band low={min(floors):.4f}")


def test_criterion_11_transformed_shape_closed_form():
    # evaluated away from the x -> log 2 pole of the D = 0 shape, where an
    # absolute tolerance is meaningful
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        for c in (0.5, 1.0, 2.0):
            gamma1 = exp_p_gamma_shape(c, p, 30.0, n=16385)
            for cap in (0.0, 0.5, 2.0, 8.0):
                gamma2 = iso_stability_transform(gamma1, cap)
                xs = gamma2.inputs[gamma2.inputs >= LOG2 + 0.05]
                closed = (c / p) * xs / ((xs + cap) ** (1.0 / p)
                                         - LOG2 ** (1.0 / p))
                err = float(np.max(np.abs(gamma2.at(xs) - closed)))
                worst = max(worst, err)
    _report("criterion 11 (transformed shape vs closed form, (p,D,c) grid)",
            worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_12_conc_laplace_round_trip():
    _, cb = herbst_laplace(0.5)
    lb = conc_to_laplace(cb, tau=0.5)
    g2 = build_measure_1d(preset="gamma_p", p=2.0, n_points=8192)
    lams = np.linspace(0.0, 4.0, 33)
    rhs = lb.rhs_log(lams)
    violations = 0
    # exact vertex mode on a 7-atom discretization
    pos, w = atomize_1d(g2, 7)
    space = discrete_space_from_atoms(pos, w)
    sup, flag, _ = laplace_sup_discrete(space, w, lams * lb.rate)
    assert flag == "exact"
    violations += int(np.sum(sup > rhs + 1e-9))
    # heuristic lower bounds on a finer discretization
    pos, w = atomize_1d(g2, 41)
    space = discrete_space_from_atoms(pos, w)
    sup, flag, _ = laplace_sup_discrete(space, w, lams * lb.rate, exact=False)
    assert flag == "lower"
    violations += int(np.sum(sup > rhs + 1e-9))
    _report("criterion 12 (Laplace/concentration round trip at rho=1/2)",
            violations == 0, f"violations={violations}")


def test_criterion_13_con_te_uniformity():
    rep = run_suite("conc-te-equiv", seed=7)
    _report("criterion 13 (concentration vs TE constants, spread <= 25)",
            rep.passed, f"max spread={rep.summary['max_spread']:.3f}")


def test_criterion_14_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = dispatch(["verify", "all", "--seed", "7", "--out", str(out),
                       "--jobs", "2"])
        assert rc == 0
        outs.append(out)
    identical = all(
        (outs[0] / f"{sid}.json").read_bytes() == (outs[1] / f"{sid}.json").read_bytes()
        for sid in [p.stem for p in outs[0].glob("*.json")])
    _report("criterion 14 (byte-identical verify-all reports)", identical)
