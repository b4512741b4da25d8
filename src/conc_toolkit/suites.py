"""Scenario suites composing the toolkit into theorem-level checks.

Each suite either verifies an exact statement (zero violations required)
or fits the constant of a universal-constant statement over a parameter
family (pass = the fit stays above a configured floor; the floors are
regression bands versioned with this module, never asserted as exact
values, because the underlying statements only claim existence of
universal constants).

Suites are deterministic given a seed: per-instance generators are spawned
from a single seed sequence, so reports are byte-identical across runs and
independent of how ``run_suites`` spreads the suites over worker processes
(up to min(jobs, CPU count, number of suites); in-process for one).
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from .costs import CostSpec, phi_inverse, phi_p_eval
from .errors import DomainError
from .laplace import (
    LaplaceBound,
    herbst_laplace,
    laplace_sup_discrete,
    mean_zero_lipschitz_vertices,
)
from .functional import logsob_constant_1d, poincare_constant_1d
from .measures import (
    DiscreteSpace,
    Measure1D,
    atomize_1d,
    build_discrete_space,
    build_measure_1d,
    derive_measure,
    discrete_space_from_atoms,
)
from .profiles import (
    LOG2,
    Profile,
    conc_going_down,
    conc_profile,
    conc_to_iso_form,
    fit_constant,
    iso_profile_1d,
    iso_stability_transform,
)
from .reports import _jsonable
from .transport import (
    divergences,
    first_moment_constant,
    gibbs_tilt_discrete,
    te_constant_estimate,
    w1_1d,
    w1_discrete,
    wc_discrete_lp,
)

__all__ = ["SuiteReport", "run_suite", "SUITE_IDS", "SUITE_DEFAULTS"]


@dataclass
class SuiteReport:
    suite_id: str
    seed: int
    config: dict[str, Any]
    instances: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)
    passed: bool = False

    def to_json_dict(self) -> dict[str, Any]:
        return _jsonable({
            "suite_id": self.suite_id,
            "seed": self.seed,
            "config": self.config,
            "instances": self.instances,
            "summary": self.summary,
            "passed": self.passed,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def _random_space(rng: np.random.Generator, n: int) -> DiscreteSpace:
    pts = rng.normal(size=(n, 2))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    w = rng.random(n) + 0.05
    w /= w.sum()
    return build_discrete_space(d, w)


def _random_probability(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.random(n) + 0.02
    return w / w.sum()


def _density_ratio_pair(rng: np.random.Generator, n: int,
                        ) -> tuple[DiscreteSpace, np.ndarray, float]:
    """(space with mu1 weights, mu2 weights, attained log-ratio cap D)."""
    space = _random_space(rng, n)
    phi = rng.normal(scale=rng.uniform(0.2, 1.5), size=n)
    logw = phi + np.log(space.weights)
    logw -= logw.max()
    mu2 = np.exp(logw)
    mu2 /= mu2.sum()
    with np.errstate(divide="ignore"):
        cap = float(np.max(np.log(mu2 / space.weights)))
    return space, mu2, cap


def _step_value_at(profile: Profile, r: float) -> float:
    """Left-continuous step evaluation (value on the interval containing r)."""
    return float(np.atleast_1d(profile.at(r))[0])


def _gamma_shape_of(mu: Measure1D, v_min: float = 1e-7, n: int = 6145) -> Profile:
    """bound-gamma table gamma(x) = e^x * iso(e^{-x}) from the measure's
    half-line iso profile."""
    vs = np.geomspace(v_min, 0.5, n)
    vs[-1] = 0.5
    prof = iso_profile_1d(mu, vs)
    xs = np.log(1.0 / vs)[::-1]
    vals = (prof.values / vs)[::-1]
    return Profile(kind="bound-gamma", inputs=xs, values=vals,
                   exactness=prof.exactness)


def _linear_iso_constant(mu: Measure1D) -> float:
    """Best D with iso(v) >= D v (exact for log-concave measures)."""
    prof = iso_profile_1d(mu, np.geomspace(1e-6, 0.5, 513))
    return float(np.min(prof.values / prof.inputs))


def _conc_rate_1d(mu: Measure1D, p: float, r_max: float | None = None) -> float:
    med = mu.median()
    hi = mu.support[1]
    top = r_max if r_max is not None else 0.9 * (hi - med)
    prof = conc_profile(mu, r_grid=np.linspace(0.0, top, 1025))
    return fit_constant(prof, "p-exp-conc", p=p).value


def _concave_tilt(mu: Measure1D, rng: np.random.Generator, target_d: float,
                  ) -> tuple[Measure1D, float]:
    """Log-concavity-preserving density-ratio perturbation with attained
    cap close to target_d: tilt by -a |x - t| and bisect on a."""
    t = float(rng.uniform(*mu.quantile(np.array([0.2, 0.8]))))

    def attained(a: float) -> float:
        phi = -a * np.abs(mu.grid - t)
        return -mu.log_mgf_nodes(phi, 1.0)

    lo, hi = 0.0, 1.0
    while attained(hi) < target_d and hi < 1e4:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if attained(mid) < target_d:
            lo = mid
        else:
            hi = mid
    a_star = 0.5 * (lo + hi)
    phi = -a_star * np.abs(mu.grid - t)
    cap = attained(a_star)
    mu2 = derive_measure(mu, "density-ratio", phi=phi, cap=cap + 1e-9)
    return mu2, float(cap)


# ---------------------------------------------------------------------------
# suite implementations
# ---------------------------------------------------------------------------

def _suite_going_down_exact(config, seed):
    trials = config["trials"]
    n_max = config["n_max"]
    seeds = np.random.SeedSequence(seed).spawn(trials)

    def one(idx: int) -> dict:
        rng = np.random.default_rng(seeds[idx])
        n = int(rng.integers(3, n_max + 1))
        space, mu2, cap = _density_ratio_pair(rng, n)
        k1 = conc_profile(space)
        k2 = conc_profile(DiscreteSpace(dist=space.dist, weights=mu2))
        above = k1.inputs[k1.values > LOG2 + cap]
        r1 = float(above[0]) if above.size else float(space.diameter * (1 + 1e-9))
        rs = np.concatenate([k1.inputs,
                             0.5 * (k1.inputs[:-1] + k1.inputs[1:]),
                             [space.diameter * 1.5]])
        worst = math.inf
        bad = 0
        for r in rs:
            lhs = _step_value_at(k2, r + r1)
            rhs = _step_value_at(k1, r) - cap
            margin = lhs - rhs
            if margin < -1e-9:
                bad += 1
            if math.isfinite(margin):
                worst = min(worst, margin)
        return {"n": n, "cap": cap, "r1": r1, "violations": bad,
                "worst_margin": None if math.isinf(worst) else worst}

    instances = [one(i) for i in range(trials)]
    violations = sum(i["violations"] for i in instances)
    summary = {"violations": violations, "trials": trials}
    return instances, summary, violations == 0


def _suite_w1_fm_exact(config, seed):
    trials = config["trials"]
    n_max = config["n_max"]
    seeds = np.random.SeedSequence(seed).spawn(trials)

    def one(idx: int) -> dict:
        rng = np.random.default_rng(seeds[idx])
        n = int(rng.integers(2, n_max + 1))
        space = _random_space(rng, n)
        mu2 = _random_probability(rng, n)
        inv1 = first_moment_constant(space).witnesses["one_over_d"]
        inv2 = first_moment_constant(
            DiscreteSpace(dist=space.dist, weights=mu2)).witnesses["one_over_d"]
        w1 = w1_discrete(space, mu2, space.weights)
        gap = abs(inv2 - inv1) - w1
        return {"n": n, "one_over_d_1": inv1, "one_over_d_2": inv2,
                "w1": w1, "slack": -gap, "violations": int(gap > 1e-9)}

    instances = [one(i) for i in range(trials)]
    violations = sum(i["violations"] for i in instances)
    summary = {"violations": violations, "trials": trials}
    return instances, summary, violations == 0


def _suite_te_jensen(config, seed):
    p_grid = config["p_grid"]
    trials = config["trials_per_p"]
    violations = 0
    instances = []
    seeds = np.random.SeedSequence(seed).spawn(len(p_grid) * trials)
    k = 0
    for p in p_grid:
        spec_p = CostSpec(p)
        s_values = sorted({1.0, 0.5 * (1.0 + p), p})
        for _ in range(trials):
            rng = np.random.default_rng(seeds[k])
            k += 1
            n = int(rng.integers(2, 7))
            space = _random_space(rng, n)
            nu = _random_probability(rng, n)
            scale = float(rng.uniform(0.2, 3.0))
            w1 = w1_discrete(space, nu, space.weights)
            chain = [float(phi_p_eval(spec_p, scale * w1))]
            for s in s_values:
                spec_s = CostSpec(s)
                cost = phi_p_eval(spec_s, scale * space.dist)
                w_s = wc_discrete_lp(space, nu, space.weights, cost=cost).cost
                # F_{p,s}(W) = phi_p(phi_s^{-1}(W)) is the comparable scale
                chain.append(float(phi_p_eval(spec_p, phi_inverse(spec_s, w_s))))
            bad = int(np.any(np.diff(chain) < -1e-9))
            violations += bad
            instances.append({"p": p, "n": n, "scale": scale,
                              "chain": chain, "violations": bad})
    summary = {"violations": violations,
               "instances": len(p_grid) * trials}
    return instances, summary, violations == 0


def _suite_iso_stability_shape(config, seed):
    """Two layers:

    * theorem gate: for random log-concavity-preserving density-ratio
      perturbations, the true perturbed iso profile dominates
      c * v * gamma2(log 1/v) with c above the configured floor
      (the cap term of the min is 0.25 * gamma2(log 4));
    * dependence check: the shape degradation c(D) := min_x gamma2/gamma1
      computed from the transform alone decreases in D and tracks
      1 / (1 + D^{1/p}) within the configured factor over D in [0, 8].
    """
    p_grid = config["p_grid"]
    d_grid = config["d_grid"]
    v_fit = np.geomspace(config["v_min"], 0.3, 257)
    seeds = np.random.SeedSequence(seed).spawn(len(p_grid))
    instances = []
    fits = []
    track_ok = True
    monotone_ok = True
    for pi, p in enumerate(p_grid):
        rng = np.random.default_rng(seeds[pi])
        mu1 = build_measure_1d(preset="gamma_p", p=p, n_points=8192)
        gamma1 = _gamma_shape_of(mu1)
        shape_degradation = []
        for cap_d in d_grid:
            if cap_d == 0.0:
                mu2, cap = mu1, 0.0
            else:
                mu2, cap = _concave_tilt(mu1, rng, cap_d)
            gamma2 = iso_stability_transform(gamma1, cap)
            # theorem gate against the perturbed measure's exact profile
            iso2 = iso_profile_1d(mu2, v_fit)
            xs = np.log(1.0 / v_fit)
            shape = np.minimum(v_fit * np.atleast_1d(gamma2.at(xs)),
                               0.25 * float(gamma2.at(math.log(4.0))))
            c_fit = float(np.min(iso2.values / shape))
            fits.append(c_fit)
            # dependence check from the transform itself
            common = gamma2.inputs[(gamma2.inputs > LOG2 + 0.05)]
            c_dep = float(np.min(np.atleast_1d(gamma2.at(common))
                                 / np.atleast_1d(gamma1.at(common))))
            shape_degradation.append((cap, c_dep))
            instances.append({"p": p, "cap": cap, "c_shape_fit": c_fit,
                              "c_dependence": c_dep,
                              "logconcave2": mu2.logconcave})
        caps = np.array([x[0] for x in shape_degradation])
        c_dep_arr = np.array([x[1] for x in shape_degradation])
        if np.any(np.diff(c_dep_arr) > 1e-9):
            monotone_ok = False  # c(D) must decrease in D
        track = c_dep_arr * (1.0 + caps ** (1.0 / p))
        if track.max() / track.min() > config["track_factor"]:
            track_ok = False
    summary = {"min_shape_fit": min(fits), "floor": config["c_floor"],
               "track_within_factor": track_ok, "monotone": monotone_ok}
    passed = (min(fits) >= config["c_floor"]) and track_ok and monotone_ok
    return instances, summary, passed


def _suite_logsob_stability(config, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mu1 = build_measure_1d(preset="gamma_p", p=2.0, n_points=8192)
    rho1 = logsob_constant_1d(mu1).value
    instances = []
    fits = []
    # part 1: bounded-ratio perturbations, chain through the conc level
    for cap_d in config["d_grid"]:
        mu2, cap = _concave_tilt(mu1, rng, cap_d)
        _, cb = herbst_laplace(rho1)
        rs = np.linspace(0.0, cb.phi_x[-1] / cb.rate * 0.9, 2049)
        alpha1 = Profile(kind="bound-alpha", inputs=rs,
                         values=np.maximum(np.atleast_1d(cb.alpha_at(rs)), 0.0))
        alpha2 = conc_going_down(alpha1, cap)
        gamma2, feasible = conc_to_iso_form(alpha2)
        rho2 = logsob_constant_1d(mu2).value
        c_fit = rho2 * (1.0 + cap) / rho1
        shape_ref = math.sqrt(rho1 / (1.0 + cap))
        xs = gamma2.inputs[(gamma2.inputs > 2.0) & (gamma2.inputs < 12.0)]
        shape_ratio = float(np.min(np.atleast_1d(gamma2.at(xs))
                                   / (shape_ref * np.sqrt(xs))))
        fits.append(c_fit)
        instances.append({"kind": "tilt", "cap": cap, "rho2_upper": rho2,
                          "c_fit": c_fit, "chain_feasible": feasible,
                          "gamma_shape_ratio": shape_ratio})
    # part 2: restrictions (the single-sided perturbation scenario)
    restriction_fits = []
    for p_mass in config["mass_grid"]:
        cut = float(mu1.quantile(1.0 - p_mass))
        mu2 = derive_measure(mu1, "restrict", a=cut, b=mu1.support[1])
        rho2 = logsob_constant_1d(mu2).value
        fit = rho2 * (1.0 + math.log(1.0 / p_mass)) / rho1
        restriction_fits.append(fit)
        instances.append({"kind": "restrict", "mass": p_mass,
                          "rho2_upper": rho2, "c_fit": fit})
    all_fits = fits + restriction_fits
    summary = {"rho1": rho1, "min_fit": min(all_fits),
               "floor": config["c_floor"],
               "restriction_fits": restriction_fits}
    return instances, summary, min(all_fits) >= config["c_floor"]


def _suite_w1_stability_chain(config, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    instances = []
    ratios_w1 = []
    ratios_h_down = []
    ratios_h_up = []
    for p in config["p_grid"]:
        mu1 = build_measure_1d(preset="gamma_p", p=p, n_points=4096)
        d_iso_1 = _linear_iso_constant(mu1)
        d_con_1 = _conc_rate_1d(mu1, 1.0)
        inv_fm_1 = first_moment_constant(mu1).witnesses["one_over_d"]
        for mode in ("translate", "tilt", "restrict"):
            if mode == "translate":
                mu2 = derive_measure(mu1, "translate", t=float(rng.uniform(0.3, 1.5)))
            elif mode == "tilt":
                mu2, _ = _concave_tilt(mu1, rng, float(rng.uniform(0.3, 1.5)))
            else:
                cut = float(mu1.quantile(rng.uniform(0.05, 0.3)))
                mu2 = derive_measure(mu1, "restrict", a=cut, b=mu1.support[1])
            w1 = w1_1d(mu1, mu2)
            rep = divergences(mu2, mu1)
            d_iso_2 = _linear_iso_constant(mu2)
            d_con_2 = _conc_rate_1d(mu2, 1.0)
            inv_fm_2 = first_moment_constant(mu2).witnesses["one_over_d"]
            r_w1 = d_iso_2 * (1.0 + d_iso_1 * w1) / d_iso_1
            ratios_w1.append(r_w1)
            inst = {"p": p, "mode": mode, "w1": w1,
                    "H_21": rep.h_nu_mu, "H_12": rep.h_mu_nu,
                    "D_Iso1_1": d_iso_1, "D_Iso1_2": d_iso_2,
                    "D_Con1_1": d_con_1, "D_Con1_2": d_con_2,
                    "one_over_fm_1": inv_fm_1, "one_over_fm_2": inv_fm_2,
                    "ratio_w1": r_w1}
            if math.isfinite(rep.h_nu_mu):
                r_down = d_iso_2 * (1.0 + rep.h_nu_mu) / d_con_1
                ratios_h_down.append(r_down)
                inst["ratio_h_down"] = r_down
            if math.isfinite(rep.h_mu_nu) and rep.h_mu_nu <= config["h_up_cap"]:
                r_up = d_con_2 * inv_fm_1
                ratios_h_up.append(r_up)
                inst["ratio_h_up"] = r_up
            instances.append(inst)
    summary = {
        "min_ratio_w1": min(ratios_w1),
        "min_ratio_h_down": min(ratios_h_down) if ratios_h_down else None,
        "min_ratio_h_up": min(ratios_h_up) if ratios_h_up else None,
        "floor": config["c_floor"],
    }
    passed = (min(ratios_w1) >= config["c_floor"]
              and (not ratios_h_down or min(ratios_h_down) >= config["c_floor"])
              and (not ratios_h_up or min(ratios_h_up) >= config["c_floor"]))
    return instances, summary, passed


def _suite_conc_te_equiv(config, seed):
    instances = []
    spreads = []
    for p in config["p_grid"]:
        mu = build_measure_1d(preset="gamma_p", p=p,
                              half_width=config.get("half_width"),
                              n_points=4096)
        pos, w = atomize_1d(mu, config["atoms"])
        space = discrete_space_from_atoms(pos, w)
        prof = conc_profile(space)
        d_con = fit_constant(prof, "p-exp-conc", p=p).value
        d_wte = te_constant_estimate(space, "wTE(1,p)", p=p, mu=w,
                                     max_witnesses=config["max_witnesses"]).value
        d_te = te_constant_estimate(space, "TE(1,phi_p)", p=p, mu=w,
                                    max_witnesses=config["max_witnesses"]).value
        trio = [d_con, d_wte, d_te]
        spread = max(trio) / min(trio)
        spreads.append(spread)
        instances.append({"p": p, "D_Con_p": d_con, "D_wTE": d_wte,
                          "D_TE_1_phi": d_te, "spread": spread})
    summary = {"max_spread": max(spreads), "band": config["band"]}
    return instances, summary, max(spreads) <= config["band"]


def _suite_te_equiv_shape(config, seed):
    instances = []
    ratios = []
    for p in config["p_grid"]:
        mu = build_measure_1d(preset="gamma_p", p=p, n_points=4096)
        upper_tight = te_constant_estimate(mu, "TE(phi_p,1)", p=p).value
        upper_weak = te_constant_estimate(mu, "TE(1,phi_p)", p=p).value
        ratio = upper_tight / upper_weak
        ratios.append(ratio)
        instances.append({"p": p, "D_TE_phi_1_upper": upper_tight,
                          "D_TE_1_phi_upper": upper_weak, "ratio": ratio})
    summary = {"min_ratio": min(ratios), "floor": config["ratio_floor"]}
    return instances, summary, min(ratios) >= config["ratio_floor"]


def _suite_hierarchy(config, seed):
    instances = []
    band_lows = []
    con_rates = []
    for p in config["p_grid"]:
        q = math.inf if p == 1.0 else p / (p - 1.0)
        mu = build_measure_1d(preset="gamma_p", p=p,
                              half_width=config.get("half_width"),
                              n_points=8192)
        vs = np.geomspace(1e-6, 0.5, 513)
        prof = iso_profile_1d(mu, vs)
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        ref = vs * np.log(1.0 / vs) ** inv_q
        ratios = prof.values / ref
        band_low, band_high = float(ratios.min()), float(ratios.max())
        band_lows.append(band_low)
        d_con = _conc_rate_1d(mu, p, r_max=config.get("r_max"))
        d_poin = poincare_constant_1d(mu, richardson=False).value
        con_rates.append(d_con)
        instances.append({"p": p, "band_low": band_low, "band_high": band_high,
                          "D_Con_p": d_con, "D_Poin": d_poin})
    spread = max(con_rates) / min(con_rates)
    summary = {"min_band_low": min(band_lows), "floor": 0.5,
               "con_rate_spread": spread, "con_band": config["con_band"]}
    passed = min(band_lows) >= 0.5 and spread <= config["con_band"]
    return instances, summary, passed


def _bg_instance(rng: np.random.Generator, lam_grid: np.ndarray,
                 config) -> dict[str, Any]:
    n = int(rng.integers(3, config["n_max"] + 1))
    space = _random_space(rng, n)
    mu = space.weights
    verts = mean_zero_lipschitz_vertices(space, mu)
    # random convex Phi: a x^2 or a x on a generous window
    a = float(rng.uniform(0.3, 2.0))
    quadratic = bool(rng.random() < 0.5)
    xs = np.linspace(0.0, 50.0 if not quadratic else 15.0, 2049)
    phi_vals = a * xs**2 if quadratic else a * xs
    eps = float(rng.uniform(0.0, 1.0))
    delta = float(rng.uniform(0.0, 0.7))
    base = LaplaceBound(phi_x=xs, phi_vals=phi_vals, rate=1.0, eps=eps,
                        delta=delta)
    rhs = np.atleast_1d(base.rhs_log(lam_grid))

    def sup_vals(d: float) -> np.ndarray:
        out, _, _ = laplace_sup_discrete(space, mu, lam_grid * d,
                                         vertices=verts)
        return out

    # critical rate where the Laplace side starts failing
    lo, hi = 1e-3, 1.0
    while np.all(sup_vals(hi) <= rhs) and hi < 1e4:
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if np.all(sup_vals(mid) <= rhs):
            lo = mid
        else:
            hi = mid
    d_crit = 0.5 * (lo + hi)
    factor = float(rng.uniform(0.6, 1.6))
    rate = d_crit * factor

    sup, _, arg_f = laplace_sup_discrete(space, mu, lam_grid * rate,
                                         vertices=verts)
    laplace_margin = float(np.max(sup - rhs))
    laplace_ok = laplace_margin <= 0.0

    # transport-entropy side over the Gibbs witnesses of the same (f, lam)
    # grid plus the point masses, with exact W_1
    te_margin = -math.inf
    phi_inv_cache: dict[float, float] = {}

    def phi_inv(y: float) -> float:
        key = round(y, 12)
        if key not in phi_inv_cache:
            if y >= phi_vals[-1]:
                # linear extension beyond the table
                slope = (phi_vals[-1] - phi_vals[-2]) / (xs[-1] - xs[-2])
                phi_inv_cache[key] = xs[-1] + (y - phi_vals[-1]) / slope
            else:
                from .profiles import invert_monotone

                phi_inv_cache[key] = invert_monotone(xs, phi_vals, y)
        return phi_inv_cache[key]

    top = []
    for f in verts:
        for lam in config["witness_lams"]:
            nu = gibbs_tilt_discrete(mu, f, lam * rate)
            proxy = rate * float(np.dot(f, nu - mu))
            top.append((proxy, nu))
    top.sort(key=lambda t: -t[0])
    witnesses = [nu for _, nu in top[: config["witness_cap"]]]
    # targeted witnesses: the Gibbs tilts realizing the variational identity
    # at the most-violating Laplace grid points (these are exactly the
    # measures the duality proof constructs from a Laplace failure)
    for k in np.argsort(rhs - sup)[:3]:
        witnesses.append(gibbs_tilt_discrete(mu, arg_f[k], lam_grid[k] * rate))
    for j in range(n):
        delta_j = np.zeros(n)
        delta_j[j] = 1.0
        witnesses.append(delta_j)
    def te_term(nu: np.ndarray) -> float:
        h = divergences(nu, mu).h_nu_mu
        if not math.isfinite(h):
            return -math.inf
        w1 = w1_discrete(space, nu, mu)
        return rate * w1 - phi_inv(h + delta) - eps

    binding_h = []
    for nu in witnesses:
        h = divergences(nu, mu).h_nu_mu
        if not math.isfinite(h):
            continue
        margin = te_term(nu)
        binding_h.append((margin, h))
        te_margin = max(te_margin, margin)

    # second exchange round: a transport-entropy failure at entropy H
    # forces a Laplace failure at the Young-equality frequency lam*(H +
    # delta), and a Laplace failure found there in turn names a new Gibbs
    # witness; after this round each side has seen the other's binding
    # frequencies and the fail/fail agreement is forced by the duality.
    binding_h.sort(key=lambda t: -t[0])
    lam_extra = []
    for _, h in binding_h[:3]:
        y = h + delta
        lam_extra.append(2.0 * math.sqrt(a * y) if quadratic else a)
    lam_extra = np.array([la for la in lam_extra if la > 1e-9])
    if lam_extra.size:
        sup_x, _, arg_x = laplace_sup_discrete(space, mu, lam_extra * rate,
                                               vertices=verts)
        rhs_x = np.atleast_1d(base.rhs_log(lam_extra))
        laplace_margin = max(laplace_margin, float(np.max(sup_x - rhs_x)))
        for k in np.nonzero(sup_x > rhs_x)[0]:
            nu = gibbs_tilt_discrete(mu, arg_x[k], lam_extra[k] * rate)
            te_margin = max(te_margin, te_term(nu))
    laplace_ok = laplace_margin <= 0.0
    te_ok = te_margin <= 0.0
    return {"n": n, "rate": rate, "factor": factor,
            "laplace_margin": laplace_margin, "te_margin": te_margin,
            "laplace_ok": laplace_ok, "te_ok": te_ok,
            "agree": laplace_ok == te_ok,
            "near_tie": (abs(laplace_margin) < config["tie_tol"]
                         or abs(te_margin) < config["tie_tol"])}


def _suite_bg_duality(config, seed):
    trials = config["trials"]
    lam_grid = np.concatenate([np.geomspace(0.05, 1.0, 17),
                               np.linspace(1.2, 6.0, 25)])
    seeds = np.random.SeedSequence(seed).spawn(4 * trials)
    instances = []
    disagreements = 0
    draw = 0
    while len(instances) < trials and draw < 4 * trials:
        rng = np.random.default_rng(seeds[draw])
        draw += 1
        inst = _bg_instance(rng, lam_grid, config)
        if inst["near_tie"]:
            continue  # razor-edge instances are re-drawn, not judged
        instances.append(inst)
        if not inst["agree"]:
            disagreements += 1
    summary = {"disagreements": disagreements, "judged": len(instances),
               "redraws": draw - len(instances)}
    return instances, summary, disagreements == 0 and len(instances) == trials


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITE_DEFAULTS: dict[str, dict[str, Any]] = {
    "going-down-exact": {"trials": 100, "n_max": 10},
    "w1-fm-exact": {"trials": 100, "n_max": 6},
    "te-jensen-pointwise": {"p_grid": [1.0, 1.25, 1.5, 2.0],
                            "trials_per_p": 100},
    "iso-stability-shape": {"p_grid": [1.0, 1.5, 2.0, 3.0],
                            "d_grid": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
                            "v_min": 1e-6, "c_floor": 0.05,
                            "track_factor": 4.0},
    "logsob-stability": {"d_grid": [0.5, 1.0, 2.0],
                         "mass_grid": [0.05, 0.1, 0.25, 0.5, 0.9],
                         "c_floor": 0.05},
    "w1-stability-chain": {"p_grid": [1.0, 2.0], "h_up_cap": 0.5,
                           "c_floor": 0.05},
    "conc-te-equiv": {"p_grid": [1.0, 1.5, 2.0, 3.0], "atoms": 17,
                      "max_witnesses": 40, "band": 25.0,
                      "half_width": None},
    "te-equiv-shape": {"p_grid": [1.0, 1.25, 1.5, 1.75, 2.0],
                       "ratio_floor": 0.05},
    "hierarchy-gamma-p": {"p_grid": [1.0, 1.5, 2.0, 3.0], "con_band": 8.0,
                          "half_width": None, "r_max": None},
    "bg-duality": {"trials": 50, "n_max": 6, "witness_cap": 12,
                   "witness_lams": [0.25, 0.5, 1.0, 2.0, 4.0],
                   "tie_tol": 1e-4},
}

_SUITE_FUNCS: dict[str, Callable] = {
    "going-down-exact": _suite_going_down_exact,
    "w1-fm-exact": _suite_w1_fm_exact,
    "te-jensen-pointwise": _suite_te_jensen,
    "iso-stability-shape": _suite_iso_stability_shape,
    "logsob-stability": _suite_logsob_stability,
    "w1-stability-chain": _suite_w1_stability_chain,
    "conc-te-equiv": _suite_conc_te_equiv,
    "te-equiv-shape": _suite_te_equiv_shape,
    "hierarchy-gamma-p": _suite_hierarchy,
    "bg-duality": _suite_bg_duality,
}

SUITE_IDS = tuple(_SUITE_FUNCS)


def run_suite(suite_id: str, config: dict[str, Any] | None = None,
              *, seed: int = 0) -> SuiteReport:
    """Run one registered suite in this process, deterministically for the
    given seed."""
    if suite_id not in _SUITE_FUNCS:
        raise DomainError(f"unknown suite {suite_id!r}; known: {SUITE_IDS}")
    merged = dict(SUITE_DEFAULTS[suite_id])
    if config:
        unknown = set(config) - set(merged)
        if unknown:
            raise DomainError(f"unknown config keys for {suite_id}: {unknown}")
        merged.update(config)
    instances, summary, passed = _SUITE_FUNCS[suite_id](merged, seed)
    return SuiteReport(suite_id=suite_id, seed=seed, config=merged,
                       instances=instances, summary=summary, passed=passed)


def run_suites(suite_ids: list[str], *, seed: int = 0,
               jobs: int = 1) -> list[SuiteReport]:
    """Run suites with their default configs in min(jobs, CPU count,
    number of suites) worker processes, or one after another in this
    process when that is one; reports come back in input order and are
    byte-identical for any ``jobs``, as each suite seeds itself."""
    if jobs < 1:
        raise DomainError(f"jobs must be a positive integer, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1, len(suite_ids))
    if workers <= 1:
        return [run_suite(sid, seed=seed) for sid in suite_ids]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(run_suite, seed=seed), suite_ids))
