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

The finite-space suites work on arrays where their instances allow it:
te-jensen-pointwise solves all its plans in one simplex call, bg-duality
bisects each round's instances in lockstep, and going-down-exact takes
each instance's margins at all radii at once.
"""

from __future__ import annotations

import json
import math
import numbers
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
    _pinned_lipschitz_vertices,
    _recentred,
    _sup_scorer,
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
    _first_moment_exact,
    _kl_discrete,
    _te_minimum,
    _transport_lps,
    _witness_table,
    discrete_witnesses,
    divergences,
    first_moment_constant,
    gibbs_tilt_discrete,
    w1_1d,
    witnesses_1d,
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


def _gamma_shape_of(mu: Measure1D) -> Profile:
    """bound-gamma table gamma(x) = e^x * iso(e^{-x}) from the measure's
    half-line iso profile at 6145 masses from 1e-7 to 1/2."""
    vs = np.geomspace(1e-7, 0.5, 6145)
    prof = iso_profile_1d(mu, vs)
    xs = np.log(1.0 / vs)[::-1]
    vals = (prof.values / vs)[::-1]
    return Profile(kind="bound-gamma", inputs=xs, values=vals,
                   exactness=prof.exactness)


def _linear_iso_constant(mu: Measure1D) -> float:
    """Best D with iso(v) >= D v (exact for log-concave measures)."""
    prof = iso_profile_1d(mu)
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

def _margin_tally(lhs: np.ndarray, rhs: np.ndarray) -> tuple[int, float | None]:
    """(margins lhs - rhs below -1e-9, least finite margin or None if there
    is none); a NaN margin (inf - inf) counts as neither."""
    with np.errstate(invalid="ignore"):
        margins = lhs - rhs
    bad = int(np.count_nonzero(margins < -1e-9))
    finite = margins[np.isfinite(margins)]
    return bad, float(finite.min()) if finite.size else None


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
        bad, worst = _margin_tally(k2.at(rs + r1), k1.at(rs) - cap)
        return {"n": n, "cap": cap, "r1": r1, "violations": bad,
                "worst_margin": worst}

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
        # one vertex enumeration serves both first-moment values and W_1
        pinned = _pinned_lipschitz_vertices(space)
        verts = _recentred(pinned, space.weights)
        inv1, _ = _first_moment_exact(verts, space.weights)
        inv2, _ = _first_moment_exact(_recentred(pinned, mu2), mu2)
        # W_1 by Kantorovich-Rubinstein duality, as in bg-duality's te_term
        w1 = float(np.max(verts @ (mu2 - space.weights)))
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
    seeds = iter(np.random.SeedSequence(seed).spawn(len(p_grid) * trials))
    s_grid = {p: sorted({1.0, 0.5 * (1.0 + p), p}) for p in p_grid}
    instances, lps = [], []  # every instance is drawn before any LP is solved
    for p in p_grid:
        for _ in range(trials):
            rng = np.random.default_rng(next(seeds))
            n = int(rng.integers(2, 7))
            space = _random_space(rng, n)
            nu = _random_probability(rng, n)
            scale = float(rng.uniform(0.2, 3.0))
            costs = [space.dist] + [phi_p_eval(CostSpec(s), scale * space.dist)
                                    for s in s_grid[p]]
            instances.append({"p": p, "n": n, "scale": scale})
            lps.append((space, [nu] * len(costs), space.weights, costs))
    solved = _transport_lps(lps)
    violations = 0
    for inst, (_, lp_costs, _, _) in zip(instances, solved):
        p = inst["p"]
        spec_p = CostSpec(p)
        w1, *w_costs = lp_costs.tolist()
        chain = [float(phi_p_eval(spec_p, inst["scale"] * w1))]
        for s, w_s in zip(s_grid[p], w_costs):
            # F_{p,s}(W) = phi_p(phi_s^{-1}(W)) is the comparable scale
            chain.append(float(phi_p_eval(spec_p, phi_inverse(CostSpec(s), w_s))))
        bad = int(np.any(np.diff(chain) < -1e-9))
        violations += bad
        inst.update(chain=chain, violations=bad)
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
            shape = np.minimum(v_fit * gamma2.at(xs),
                               0.25 * gamma2.at(math.log(4.0)))
            c_fit = float(np.min(iso2.values / shape))
            fits.append(c_fit)
            # dependence check from the transform itself
            common = gamma2.inputs[(gamma2.inputs > LOG2 + 0.05)]
            c_dep = float(np.min(gamma2.at(common) / gamma1.at(common)))
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
                         values=np.maximum(cb.alpha_at(rs), 0.0))
        alpha2 = conc_going_down(alpha1, cap)
        gamma2, feasible = conc_to_iso_form(alpha2)
        rho2 = logsob_constant_1d(mu2).value
        c_fit = rho2 * (1.0 + cap) / rho1
        shape_ref = math.sqrt(rho1 / (1.0 + cap))
        xs = gamma2.inputs[(gamma2.inputs > 2.0) & (gamma2.inputs < 12.0)]
        shape_ratio = float(np.min(gamma2.at(xs) / (shape_ref * np.sqrt(xs))))
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
        # one witness table, so W_1 is solved once for both modes
        table = _witness_table(space, w, discrete_witnesses(
            space, w, max_witnesses=config["max_witnesses"]), 0)
        d_wte = _te_minimum(table, "wTE(1,p)", CostSpec(p)).value
        d_te = _te_minimum(table, "TE(1,phi_p)", CostSpec(p)).value
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
        # one witness table, so each witness's W_1 and H are built once
        table = _witness_table(mu, None, witnesses_1d(mu), 0)
        upper_tight = _te_minimum(table, "TE(phi_p,1)", CostSpec(p)).value
        upper_weak = _te_minimum(table, "TE(1,phi_p)", CostSpec(p)).value
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
        prof = iso_profile_1d(mu)
        vs = prof.inputs
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


def _critical_rates(mus: list, verts: list, rhs: np.ndarray,
                    lam_grid: np.ndarray) -> np.ndarray:
    """Per instance k (weights ``mus[k]``, vertices ``verts[k]``, Laplace
    side ``rhs[k]`` on ``lam_grid``), the rate d at which some lam row of
    the Laplace side starts failing, by bisection, deciding every step as
    scoring all rows would.  The bisections run in lockstep: each step
    scores every unfinished instance's uncertified rows in one call.

    A row that passes at a failing step keeps its slack rhs - sup there,
    and once that slack exceeds tau = 1e-9 (1 + |rhs|) (|rhs| taken as 0
    where rhs is infinite) the row is never scored again.  Every later
    query is below that step's rate, as hi only decreases after the first
    failure, and the exact sup is nondecreasing in the rate (lam d rounds
    monotonically in d), so the row passes there in exact arithmetic.  The
    sup is >= 0 (f = 0 is feasible) and below rhs, and the max-shifted
    log-sum-exp computes it to about 1e-13 (1 + |rhs|), far below tau, so
    the row passes in floats too: a row's score is the same float ops in
    any subset and any batch, and each d_crit is bit for bit the all-rows
    bisection's."""
    score = _sup_scorer(mus, verts)
    tau = 1e-9 * (1.0 + np.where(np.isinf(rhs), 0.0, np.abs(rhs)))
    slack = np.full(rhs.shape, -np.inf)
    lo, hi = np.full(len(mus), 1e-3), np.ones(len(mus))
    halvings = np.full(len(mus), -1)  # -1 while hi doubles
    while np.any(halvings < 40):
        growing, halving = halvings < 0, (halvings >= 0) & (halvings < 40)
        mid = 0.5 * (lo + hi)
        d = np.where(growing, hi, mid)
        owner, row = np.nonzero(~(slack > tau) & (growing | halving)[:, None])
        sup = score(owner, lam_grid[row] * d[owner])
        fails = np.bincount(owner[~(sup <= rhs[owner, row])], minlength=len(mus)) > 0
        hit = fails[owner]  # a failing row stays uncertified
        slack[owner[hit], row[hit]] = rhs[owner[hit], row[hit]] - sup[hit]
        grow = growing & ~fails & (hi < 1e4)
        halvings[growing & ~grow] = 0
        hi = np.where(grow, 2.0 * hi, np.where(halving & fails, mid, hi))
        lo = np.where(halving & ~fails, mid, lo)
        halvings[halving] += 1
    return 0.5 * (lo + hi)


def _gain_order(verts: np.ndarray, tilts: np.ndarray, mu: np.ndarray,
                rate: float) -> np.ndarray:
    """Flat (v, l) indices of the Gibbs tilts nu = tilts[v, l] by transport
    gain rate <verts[v], nu - mu>, largest first, ties in index order.  The
    gains take one ``np.dot`` per tilt: a batched matmul rounds differently
    and could reorder near-ties."""
    gain = np.array([np.dot(f, nu - mu) for f, row in zip(verts, tilts) for nu in row])
    return np.argsort(-(rate * gain), kind="stable")


def _bg_draw(rng: np.random.Generator, lam_grid: np.ndarray, config) -> tuple:
    """A bg-duality instance up to its critical rate, as (rng, space, verts,
    a, quadratic, base, rhs): the generator, which draws the rest, a random
    space and its mean-zero Lipschitz vertices, a random convex Phi, a x^2
    (quadratic) or a x on a generous window, its LaplaceBound ``base`` and
    that bound's rhs on ``lam_grid``."""
    n = int(rng.integers(3, config["n_max"] + 1))
    space = _random_space(rng, n)
    verts = mean_zero_lipschitz_vertices(space, space.weights)
    a = float(rng.uniform(0.3, 2.0))
    quadratic = bool(rng.random() < 0.5)
    xs = np.linspace(0.0, 50.0 if not quadratic else 15.0, 2049)
    phi_vals = a * xs**2 if quadratic else a * xs
    eps = float(rng.uniform(0.0, 1.0))
    delta = float(rng.uniform(0.0, 0.7))
    base = LaplaceBound(phi_x=xs, phi_vals=phi_vals, rate=1.0, eps=eps,
                        delta=delta)
    return rng, space, verts, a, quadratic, base, base.rhs_log(lam_grid)


def _bg_instance(drawn: tuple, d_crit: float, lam_grid: np.ndarray,
                 config) -> dict[str, Any]:
    rng, space, verts, a, quadratic, base, rhs = drawn
    n, mu, eps, delta = space.n, space.weights, base.eps, base.delta
    factor = float(rng.uniform(0.6, 1.6))
    rate = d_crit * factor

    sup, _, arg_f = laplace_sup_discrete(space, mu, lam_grid * rate,
                                         vertices=verts)
    laplace_margin = float(np.max(sup - rhs))

    # transport-entropy side over the Gibbs witnesses of the same (f, lam)
    # grid plus the point masses, with exact W_1
    te_margin = -math.inf
    tilts = gibbs_tilt_discrete(mu, verts[:, None, :],
                                np.asarray(config["witness_lams"])[:, None] * rate)
    top = _gain_order(verts, tilts, mu, rate)[: config["witness_cap"]]
    witnesses = list(tilts.reshape(-1, n)[top])
    # targeted witnesses: the Gibbs tilts realizing the variational identity
    # at the most-violating Laplace grid points (these are exactly the
    # measures the duality proof constructs from a Laplace failure)
    worst = np.argsort(rhs - sup)[:3]
    witnesses += list(gibbs_tilt_discrete(mu, arg_f[worst], lam_grid[worst, None] * rate))
    witnesses += list(np.eye(n))  # point masses
    def te_term(nu: np.ndarray, h: float) -> float:
        # W_1 by Kantorovich-Rubinstein duality: the max of <f, nu - mu>
        # over the polytope's vertices, no LP
        w1 = float(np.max(verts @ (nu - mu)))
        return rate * w1 - base.phi_inv_at(h + delta) - eps

    # H(nu | mu) straight from _kl_discrete: the witnesses are probability
    # vectors built here, and divergences' checks, H(mu | nu) and TV go unread
    binding_h = []
    for nu in witnesses:
        h = _kl_discrete(nu, mu)
        if not math.isfinite(h):
            continue
        margin = te_term(nu, h)
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
        rhs_x = base.rhs_log(lam_extra)
        laplace_margin = max(laplace_margin, float(np.max(sup_x - rhs_x)))
        for k in np.nonzero(sup_x > rhs_x)[0]:
            nu = gibbs_tilt_discrete(mu, arg_x[k], lam_extra[k] * rate)
            h = _kl_discrete(nu, mu)
            if math.isfinite(h):
                te_margin = max(te_margin, te_term(nu, h))
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
    draw = 0
    # each round draws as many instances as still lack a verdict, bisects
    # them in lockstep and judges them in draw order; razor-edge instances
    # are re-drawn in the next round, not judged
    while len(instances) < trials and draw < 4 * trials:
        batch = [_bg_draw(np.random.default_rng(s), lam_grid, config)
                 for s in seeds[draw:draw + trials - len(instances)]]
        draw += len(batch)
        _, spaces, verts, _, _, _, rhs = zip(*batch)
        rates = _critical_rates([s.weights for s in spaces], verts, np.array(rhs), lam_grid)
        for drawn, d_crit in zip(batch, rates.tolist()):
            inst = _bg_instance(drawn, d_crit, lam_grid, config)
            if not inst["near_tie"]:
                instances.append(inst)
    disagreements = sum(not inst["agree"] for inst in instances)
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

# per suite: its function and its seconds at seed 7 on a 2-vCPU VM, each
# run in a fresh process with the scipy modules it imports on first use
# (median of 5; run_suites starts the longest first); the finite suites'
# times are from after their array rewrite, the line suites' are older
_SUITES: dict[str, tuple[Callable, float]] = {
    "going-down-exact": (_suite_going_down_exact, 0.21),
    "w1-fm-exact": (_suite_w1_fm_exact, 0.17),
    "te-jensen-pointwise": (_suite_te_jensen, 0.26),
    "iso-stability-shape": (_suite_iso_stability_shape, 0.51),
    "logsob-stability": (_suite_logsob_stability, 1.02),
    "w1-stability-chain": (_suite_w1_stability_chain, 0.19),
    "conc-te-equiv": (_suite_conc_te_equiv, 0.20),
    "te-equiv-shape": (_suite_te_equiv_shape, 0.39),
    "hierarchy-gamma-p": (_suite_hierarchy, 0.32),
    "bg-duality": (_suite_bg_duality, 0.43),
}

SUITE_IDS = tuple(_SUITES)

# the least value of each integer config entry of the finite suites: one
# instance, and room for the smallest point count a suite draws
_CONFIG_FLOORS: dict[str, dict[str, int]] = {
    "going-down-exact": {"trials": 1, "n_max": 3},
    "w1-fm-exact": {"trials": 1, "n_max": 2},
    "te-jensen-pointwise": {"trials_per_p": 1},
    "bg-duality": {"trials": 1, "n_max": 3, "witness_cap": 1},
}


def _check_seed(seed: int) -> None:
    if seed < 0:  # a seed sequence takes nonnegative integers only
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")


def run_suite(suite_id: str, config: dict[str, Any] | None = None,
              *, seed: int = 0) -> SuiteReport:
    """Run one registered suite in this process, deterministically for the
    given seed."""
    _check_seed(seed)
    if suite_id not in _SUITES:
        raise DomainError(f"unknown suite {suite_id!r}; known: {SUITE_IDS}")
    merged = dict(SUITE_DEFAULTS[suite_id])
    if config:
        unknown = set(config) - set(merged)
        if unknown:
            raise DomainError(f"unknown config keys for {suite_id}: {unknown}")
        merged.update(config)
    for key, least in _CONFIG_FLOORS.get(suite_id, {}).items():
        value = merged[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise DomainError(f"{suite_id} config {key!r} must be an integer >= {least}, "
                              f"got {value!r}")
    instances, summary, passed = _SUITES[suite_id][0](merged, seed)
    return SuiteReport(suite_id=suite_id, seed=seed, config=merged,
                       instances=instances, summary=summary, passed=passed)


def run_suites(suite_ids: list[str], *, seed: int = 0,
               jobs: int = 1) -> list[SuiteReport]:
    """Run suites with their default configs in min(jobs, CPU count,
    number of suites) worker processes, longest first, or one after
    another in this process when that is one; reports come back in input
    order and are byte-identical for any ``jobs``, as each suite seeds
    itself."""
    _check_seed(seed)
    if jobs < 1:
        raise DomainError(f"jobs must be a positive integer, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1, len(suite_ids))
    if workers <= 1:
        return [run_suite(sid, seed=seed) for sid in suite_ids]
    longest_first = sorted(suite_ids, key=lambda sid: -_SUITES.get(sid, (None, 0.0))[1])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        reports = dict(zip(longest_first, pool.map(partial(run_suite, seed=seed),
                                                   longest_first)))
    return [reports[sid] for sid in suite_ids]
