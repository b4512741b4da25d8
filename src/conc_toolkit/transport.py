"""Transport costs, entropy divergences and derived best-constant bounds.

Finite spaces get exact linear-programming oracles (transportation LP and
its Kantorovich dual); 1-D measures use the monotone (quantile) coupling,
which is optimal for every convex cost of the distance on the line.

All "best constant" estimators here are one-sided by construction and say
so in their :class:`~conc_toolkit.reports.ConstantEntry` metadata: a
transport-entropy constant is an infimum over *all* probability measures,
so a finite witness family can only certify an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .costs import CostSpec, phi_inverse, phi_p_eval
from .errors import DomainError, UnsupportedSizeError, ValidationError
from .measures import DiscreteSpace, Measure1D
from .reports import ConstantEntry

__all__ = [
    "TransportPlan",
    "KRDualResult",
    "wc_discrete_lp",
    "kr_dual",
    "w1_discrete",
    "w1_1d",
    "ws_1d",
    "wc_monotone_1d",
    "divergences",
    "DivergenceReport",
    "te_constant_estimate",
    "psi1_metric_bound",
    "Psi1Bound",
    "first_moment_constant",
]

_MAX_LP_POINTS = 400


# presolve misjudges near-zero marginals now and then
_LP_RETRY = {"presolve": False,
             "primal_feasibility_tolerance": 1e-10,
             "dual_feasibility_tolerance": 1e-10}


def _solve_lp(c, *, what: str, reject=lambda res: None, **constraints):
    """HiGHS solve of min c.x under ``constraints`` (linprog keywords).
    Default options give vertex-exact solutions (duality gaps ~1e-16 here);
    a failed solve, or one ``reject(res)`` names a reason against, is
    retried once with ``_LP_RETRY`` before ValidationError."""
    for options in (None, _LP_RETRY):
        res = linprog(c, method="highs", options=options, **constraints)
        problem = reject(res) if res.success else res.message
        if problem is None:
            return res
    raise ValidationError(f"{what} failed: {problem}")


def _lipschitz_rows(space: DiscreteSpace) -> tuple[sparse.csr_matrix, np.ndarray]:
    """(A_ub, b_ub) of the 1-Lipschitz constraints f(i) - f(j) <= d(i, j)
    over the ordered pairs i != j."""
    ii, jj = np.nonzero(~np.eye(space.n, dtype=bool))
    m = ii.size
    a_ub = sparse.csr_matrix(
        (np.concatenate([np.ones(m), -np.ones(m)]),
         (np.concatenate([np.arange(m), np.arange(m)]),
          np.concatenate([ii, jj]))),
        shape=(m, space.n))
    return a_ub, space.dist[ii, jj]


# ---------------------------------------------------------------------------
# exact LP oracles on finite spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportPlan:
    """Sparse optimal coupling between two weight vectors."""

    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    cost: float
    marginal_residual: float
    n: int

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.cols] = self.mass
        return out

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("i,j,mass\n")
            for i, j, m in zip(self.rows, self.cols, self.mass):
                fh.write(f"{i},{j},{m:.12g}\n")


@dataclass(frozen=True)
class KRDualResult:
    primal: float
    dual: float
    potential: np.ndarray

    @property
    def gap(self) -> float:
        return abs(self.primal - self.dual)


def _check_marginals(space: DiscreteSpace, nu: np.ndarray, mu: np.ndarray) -> None:
    n = space.n
    if nu.shape != (n,) or mu.shape != (n,):
        raise ValidationError("marginals must be length-n vectors on the space")
    if np.any(nu < -1e-12) or np.any(mu < -1e-12):
        raise ValidationError("marginals must be nonnegative")
    if abs(nu.sum() - mu.sum()) > 1e-9:
        raise ValidationError(
            f"infeasible marginals: sums differ ({nu.sum():.12g} vs {mu.sum():.12g})")


def _clean_marginal(w: np.ndarray) -> np.ndarray:
    """Zero out sub-1e-12 entries (they destabilize the LP presolve) and
    renormalize; the induced cost perturbation is far below the 1e-9
    marginal tolerance."""
    out = np.where(w < 1e-12, 0.0, w)
    s = out.sum()
    return out / s if s > 0 else out


def wc_discrete_lp(space: DiscreteSpace, nu, mu, cost: np.ndarray | None = None,
                   ) -> TransportPlan:
    """Exact optimum of the transportation LP for an arbitrary cost matrix
    (defaults to the metric itself, i.e. W_1)."""
    nu = np.asarray(nu, dtype=float)
    mu = np.asarray(mu, dtype=float)
    _check_marginals(space, nu, mu)
    nu = _clean_marginal(nu) * mu.sum()
    mu = _clean_marginal(mu) * mu.sum()
    n = space.n
    if n > _MAX_LP_POINTS:
        raise UnsupportedSizeError(f"transport LP capped at n = {_MAX_LP_POINTS}")
    c = (space.dist if cost is None else np.asarray(cost, dtype=float)).ravel()
    ones = np.ones(n)
    eye = sparse.eye(n, format="csr")
    row_sums = sparse.kron(eye, ones.reshape(1, n), format="csr")
    col_sums = sparse.kron(ones.reshape(1, n), eye, format="csr")
    a_eq = sparse.vstack([row_sums, col_sums], format="csr")
    b_eq = np.concatenate([nu, mu])

    def residual(res) -> float:
        plan = res.x.reshape(n, n)
        return max(np.abs(plan.sum(axis=1) - nu).max(),
                   np.abs(plan.sum(axis=0) - mu).max())

    def off_marginals(res) -> str | None:
        resid = residual(res)
        return f"plan violates marginals ({resid:.3g})" if resid > 1e-9 else None

    res = _solve_lp(c, what="transport LP", reject=off_marginals,
                    A_eq=a_eq, b_eq=b_eq, bounds=(0, None))
    plan = res.x.reshape(n, n)
    rows, cols = np.nonzero(plan > 1e-15)
    return TransportPlan(rows=rows, cols=cols, mass=plan[rows, cols],
                         cost=float(res.fun),
                         marginal_residual=float(residual(res)), n=n)


def kr_dual(space: DiscreteSpace, nu, mu) -> KRDualResult:
    """Kantorovich duality for W_1: the dual LP maximizes
    int f dnu - int f dmu over potentials with f(i) - f(j) <= d(i, j)."""
    nu = np.asarray(nu, dtype=float)
    mu = np.asarray(mu, dtype=float)
    _check_marginals(space, nu, mu)
    n = space.n
    primal = wc_discrete_lp(space, nu, mu).cost
    a_ub, b_ub = _lipschitz_rows(space)
    bounds = [(None, None)] * n
    bounds[0] = (0.0, 0.0)  # potentials are shift-invariant; pin one
    res = _solve_lp(mu - nu, what="dual LP", A_ub=a_ub, b_ub=b_ub,
                    bounds=bounds)
    return KRDualResult(primal=primal, dual=float(-res.fun), potential=res.x)


def w1_discrete(space: DiscreteSpace, nu, mu) -> float:
    return wc_discrete_lp(space, nu, mu).cost


# ---------------------------------------------------------------------------
# 1-D transport costs (monotone coupling)
# ---------------------------------------------------------------------------

def _merged_nodes(mu: Measure1D, nu: Measure1D, extra: int = 4096) -> np.ndarray:
    lo = min(mu.support[0], nu.support[0])
    hi = max(mu.support[1], nu.support[1])
    fill = np.linspace(lo, hi, extra)
    return np.unique(np.concatenate((mu.grid, nu.grid, fill)))


def _refine_sign_crossings(xs: np.ndarray, evaluate,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and values of ``evaluate`` on ``xs`` with the linear root of
    every sign change inserted, so the kinks of |evaluate| land on nodes."""
    vals = evaluate(xs)
    cross = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    if cross.size:
        x_c = xs[cross] - vals[cross] * (xs[cross + 1] - xs[cross]) / (
            vals[cross + 1] - vals[cross])
        xs = np.unique(np.concatenate((xs, x_c)))
        vals = evaluate(xs)
    return xs, vals


def w1_1d(mu: Measure1D, nu: Measure1D) -> float:
    """W_1 between 1-D measures as the area between their CDFs."""
    if not isinstance(mu, Measure1D) or not isinstance(nu, Measure1D):
        raise ValidationError("w1_1d expects two Measure1D inputs")
    xs = _merged_nodes(mu, nu)
    if xs.size < 2:
        raise ValidationError("incompatible grids: empty merged window")
    xs, diff = _refine_sign_crossings(
        xs, lambda x: np.asarray(mu.cdf(x)) - np.asarray(nu.cdf(x)))
    return float(np.trapezoid(np.abs(diff), xs))


def _quantile_pair(mu: Measure1D, nu: Measure1D, n_u: int) -> tuple[np.ndarray, np.ndarray]:
    u = (np.arange(n_u) + 0.5) / n_u
    lower = u <= 0.5
    q_mu = np.where(lower, mu.quantile(np.minimum(u, 0.5)),
                    mu.quantile_upper(np.maximum(1.0 - u, 0.0)))
    q_nu = np.where(lower, nu.quantile(np.minimum(u, 0.5)),
                    nu.quantile_upper(np.maximum(1.0 - u, 0.0)))
    return q_mu, q_nu


def ws_1d(mu: Measure1D, nu: Measure1D, s: float, n_u: int = 8192) -> float:
    """W_s = (int |q_mu - q_nu|^s du)^{1/s} via the monotone coupling."""
    if s < 1:
        raise DomainError("s must be >= 1")
    q_mu, q_nu = _quantile_pair(mu, nu, n_u)
    return float(np.mean(np.abs(q_mu - q_nu) ** s) ** (1.0 / s))


def wc_monotone_1d(mu: Measure1D, nu: Measure1D, spec: CostSpec, scale: float,
                   n_u: int = 8192) -> float:
    """Optimal transport cost for the cost phi_p(scale * |x - y|) on the
    line; the monotone coupling is optimal because the cost is convex in
    the distance."""
    if scale < 0:
        raise DomainError("scale must be nonnegative")
    q_mu, q_nu = _quantile_pair(mu, nu, n_u)
    return float(np.mean(phi_p_eval(spec, scale * np.abs(q_mu - q_nu))))


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceReport:
    h_nu_mu: float
    h_mu_nu: float
    d_tv: float


def _kl_discrete(a: np.ndarray, b: np.ndarray) -> float:
    mask = a > 0
    if np.any(b[mask] <= 0):
        return math.inf
    return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))


def _resample_1d(mu: Measure1D, xs: np.ndarray) -> Measure1D:
    return Measure1D(grid=xs, potential=mu.potential_at(xs), provenance={})


def _kl_1d(nu: Measure1D, mu: Measure1D, outside_tol: float = 1e-10) -> float:
    """H(nu | mu) for window measures.

    Windows are truncations of ideal supports; nu-mass outside mu's
    window below ``outside_tol`` is treated as truncation error rather
    than genuine singularity, matching the sub-1e-12 tail budget of the
    measure builders.
    """
    n_lo, n_hi = nu.support
    m_lo, m_hi = mu.support
    outside = 0.0
    if n_lo < m_lo:
        outside += float(nu.cdf(m_lo))
    if n_hi > m_hi:
        outside += float(nu.sf(m_hi))
    if outside > outside_tol:
        return math.inf  # nu puts real mass where mu has none
    lo, hi = max(n_lo, m_lo), min(n_hi, m_hi)
    if hi <= lo:
        return math.inf
    inner = mu.grid[(mu.grid > lo) & (mu.grid < hi)]
    inner_nu = nu.grid[(nu.grid > lo) & (nu.grid < hi)]
    xs = np.unique(np.concatenate(([lo, hi], inner_nu, inner)))
    nu_r = _resample_1d(nu, xs)
    log_ratio = (mu.potential_at(xs) + mu.log_z) - (nu_r.potential + nu_r.log_z)
    return nu_r.integrate_nodes(log_ratio)


def _tv_1d(nu: Measure1D, mu: Measure1D) -> float:
    xs, diff = _refine_sign_crossings(
        _merged_nodes(mu, nu),
        lambda x: np.asarray(nu.density(x)) - np.asarray(mu.density(x)))
    return float(0.5 * np.trapezoid(np.abs(diff), xs))


def divergences(nu, mu) -> DivergenceReport:
    """Relative entropies H(nu|mu), H(mu|nu) and total variation.

    Inputs are either two weight vectors on a common finite space or two
    Measure1D objects.  Mutually singular parts produce the +oo sentinel;
    atoms with zero mass follow the 0 log 0 = 0 convention.
    """
    if isinstance(nu, Measure1D) and isinstance(mu, Measure1D):
        return DivergenceReport(h_nu_mu=_kl_1d(nu, mu), h_mu_nu=_kl_1d(mu, nu),
                                d_tv=_tv_1d(nu, mu))
    a = np.asarray(nu, dtype=float)
    b = np.asarray(mu, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("weight vectors must have equal length")
    return DivergenceReport(
        h_nu_mu=_kl_discrete(a, b),
        h_mu_nu=_kl_discrete(b, a),
        d_tv=float(0.5 * np.abs(a - b).sum()),
    )


# ---------------------------------------------------------------------------
# witness families
# ---------------------------------------------------------------------------

def gibbs_tilt_discrete(mu: np.ndarray, f: np.ndarray, lam: float) -> np.ndarray:
    logw = lam * f + np.log(np.maximum(mu, 1e-300))
    logw -= logw.max()
    w = np.exp(logw)
    w[mu <= 0] = 0.0
    return w / w.sum()


def tilt_measure_1d(mu: Measure1D, lam: float) -> Measure1D:
    """Gibbs tilt by the coordinate: density proportional to e^{lam x}."""
    return Measure1D(grid=mu.grid.copy(), potential=mu.potential - lam * mu.grid,
                     provenance={"source": "tilt", "lam": lam})


def discrete_witnesses(space: DiscreteSpace, mu: np.ndarray,
                       *, max_witnesses: int = 0) -> list[np.ndarray]:
    """Stock witness measures: point-mass mixtures, ball restrictions and
    Gibbs tilts of the distance coordinates and KR-optimal potentials."""
    n = space.n
    d = space.dist
    out: list[np.ndarray] = []
    for j in range(n):
        delta = np.zeros(n)
        delta[j] = 1.0
        for t in (0.25, 0.5, 1.0):
            out.append((1.0 - t) * mu + t * delta)
    bps = space.breakpoints()
    for j in range(min(n, 4)):
        for rho in bps[:: max(1, bps.size // 3)]:
            inside = d[j] <= rho
            mass = mu[inside].sum()
            if 1e-9 < mass < 1.0 - 1e-9:
                w = np.where(inside, mu, 0.0)
                out.append(w / mass)
    coord_fs = [d[j] for j in range(min(n, 4))]
    try:
        kr = kr_dual(space, out[0], mu)
        coord_fs.append(kr.potential)
    except ValidationError:
        pass
    for f in coord_fs:
        for lam in (-2.0, -0.5, 0.5, 2.0):
            out.append(gibbs_tilt_discrete(mu, f, lam))
    uniq: list[np.ndarray] = []
    for w in out:
        if np.abs(w - mu).sum() < 1e-12:
            continue
        if any(np.abs(w - u).max() < 1e-12 for u in uniq):
            continue
        uniq.append(w)
    if max_witnesses and len(uniq) > max_witnesses:
        idx = np.linspace(0, len(uniq) - 1, max_witnesses).astype(int)
        uniq = [uniq[i] for i in idx]
    return uniq


def witnesses_1d(mu: Measure1D) -> list[Measure1D]:
    from .measures import derive_measure

    out: list[Measure1D] = []
    for t in (0.25, 0.5, 1.0, 2.0):
        out.append(derive_measure(mu, "translate", t=t))
    for lam in (0.25, 0.5, 1.0):
        out.append(tilt_measure_1d(mu, lam))
    for q in (0.1, 0.25, 0.5):
        cut = float(mu.quantile(q))
        out.append(derive_measure(mu, "restrict", a=cut, b=mu.support[1]))
    return out


# ---------------------------------------------------------------------------
# transport-entropy constant estimates
# ---------------------------------------------------------------------------

def _w1_of(source, mu, nu) -> float:
    if isinstance(source, DiscreteSpace):
        return w1_discrete(source, nu, mu)
    return w1_1d(mu, nu)


def _h_of(source, mu, nu) -> float:
    if isinstance(source, DiscreteSpace):
        return _kl_discrete(np.asarray(nu), np.asarray(mu))
    return _kl_1d(nu, mu)


def _ws_of(source, mu, nu, s: float) -> float:
    if isinstance(source, DiscreteSpace):
        cost = source.dist**s
        return wc_discrete_lp(source, nu, mu, cost=cost).cost ** (1.0 / s)
    return ws_1d(mu, nu, s)


def _wc_phi_of(source, mu, nu, spec: CostSpec, scale: float) -> float:
    if isinstance(source, DiscreteSpace):
        cost = phi_p_eval(spec, scale * source.dist)
        return wc_discrete_lp(source, nu, mu, cost=cost).cost
    return wc_monotone_1d(mu, nu, spec, scale)


def _largest_scale_bisect(source, mu, nu, spec: CostSpec, entropy: float,
                          tol: float = 1e-4) -> float:
    """Largest D with W_{phi_p(D d)}(nu, mu) <= H(nu|mu), by bisection.

    The cost is nondecreasing in D, so the feasible set is an interval.
    """
    hi = 1.0
    for _ in range(60):
        if _wc_phi_of(source, mu, nu, spec, hi) > entropy:
            break
        hi *= 2.0
    else:
        return math.inf
    lo = 0.0
    while hi - lo > tol * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if _wc_phi_of(source, mu, nu, spec, mid) <= entropy:
            lo = mid
        else:
            hi = mid
    return lo


def te_constant_estimate(source, mode: str, *, p: float = 1.0,
                         s: float | None = None,
                         mu=None, witnesses=None,
                         max_witnesses: int = 0) -> ConstantEntry:
    """Certified upper bound on a transport-entropy best constant.

    ``source`` is a DiscreteSpace (with ``mu`` a weight vector) or a
    Measure1D (then ``mu`` is ignored).  Modes:

    ``wTE(1,p)``     D W_1 <= H^{1/p} + 1
    ``TE(1,phi_p)``  D W_1 <= phi_p^{-1}(H)
    ``TE(s,p)``      D W_s <= H^{1/p}
    ``TE(phi_p,1)``  W_{phi_p(D d)} <= H, largest feasible D per witness

    The reported value is the min over the witness family of the
    per-witness admissible constant; the true best constant is an
    infimum over all measures, so this is an upper bound (direction
    metadata says so).
    """
    spec = CostSpec(p)
    if isinstance(source, DiscreteSpace):
        if mu is None:
            raise ValidationError("discrete mode requires the base weights mu")
        base = np.asarray(mu, dtype=float)
        family = witnesses if witnesses is not None else discrete_witnesses(
            source, base, max_witnesses=max_witnesses)
    elif isinstance(source, Measure1D):
        base = source
        family = witnesses if witnesses is not None else witnesses_1d(source)
    else:
        raise ValidationError("source must be a DiscreteSpace or Measure1D")
    if not family:
        raise DomainError("witness family is empty")

    best = math.inf
    best_w = None
    used = 0
    for idx, nu in enumerate(family):
        if isinstance(source, DiscreteSpace):
            w1 = _w1_of(source, base, nu)
            h = _h_of(source, base, nu)
        else:
            w1 = _w1_of(source, source, nu)
            h = _h_of(source, source, nu)
        if w1 <= 1e-12 or not math.isfinite(h):
            continue
        used += 1
        if mode == "wTE(1,p)":
            val = (h ** (1.0 / p) + 1.0) / w1
        elif mode == "TE(1,phi_p)":
            val = phi_inverse(spec, h) / w1
        elif mode == "TE(s,p)":
            if s is None:
                raise DomainError("TE(s,p) requires s")
            w_s = _ws_of(source, base if isinstance(source, DiscreteSpace) else source,
                         nu, s)
            if w_s <= 1e-12:
                continue
            val = h ** (1.0 / p) / w_s
        elif mode == "TE(phi_p,1)":
            val = _largest_scale_bisect(
                source, base if isinstance(source, DiscreteSpace) else source,
                nu, spec, h)
        else:
            raise DomainError(f"unknown TE mode {mode!r}")
        if val < best:
            best = val
            best_w = {"witness_index": idx, "W1": w1, "H": h}
    if used == 0 or best_w is None:
        raise DomainError("all witnesses degenerate (W_1 = 0 or H = +oo)")
    return ConstantEntry(
        constant_id=f"D_{mode}",
        value=float(best),
        direction="upper",
        method=f"min over {used} witness measures of the per-witness "
               f"admissible constant for {mode}",
        witnesses=best_w,
    )


# ---------------------------------------------------------------------------
# Psi_1-Lipschitz metric lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Psi1Bound:
    value: float
    g: np.ndarray = field(repr=False)
    lip: float = 1.0


def _lip_constant(space: DiscreteSpace, g: np.ndarray) -> float:
    a_ub, b_ub = _lipschitz_rows(space)
    return float(np.max(np.abs(a_ub @ g) / b_ub))


def _log_mean_exp(g: np.ndarray, w: np.ndarray) -> float:
    m = g.max()
    return float(m + math.log(np.dot(w, np.exp(g - m))))


def _psi1_value(space: DiscreteSpace, nu, mu, g: np.ndarray) -> float:
    lip = _lip_constant(space, g)
    if lip <= 1e-14:
        return 0.0
    return abs(_log_mean_exp(g, nu) - _log_mean_exp(g, mu)) / lip


def psi1_metric_bound(space: DiscreteSpace, nu, mu,
                      candidates: list[np.ndarray] | None = None,
                      *, refine: bool = True, seed: int = 0) -> Psi1Bound:
    """Lower bound on the exponential-moment Lipschitz metric

        sup_g |log int e^g dnu - log int e^g dmu| / Lip(g).

    The candidate set always contains eps-scalings of a KR-optimal
    potential (eps -> 0 recovers W_1, so the bound dominates W_1 up to
    the smallest eps used), plus optional local-search refinements.
    """
    nu = np.asarray(nu, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.abs(nu - mu).sum() < 1e-15:
        return Psi1Bound(value=0.0, g=np.zeros(space.n), lip=1.0)
    if candidates is not None:
        # caller-supplied candidates are the complete set (the bound is then
        # symmetric in (nu, mu) by construction)
        cands = list(candidates)
    else:
        cands = []
        kr = kr_dual(space, nu, mu)
        eps_grid = [1e-5, 1e-4, 1e-3, 1e-2] + list(np.linspace(0.1, 1.0, 10))
        for eps in eps_grid:
            cands.append(eps * kr.potential)
        for j in range(min(space.n, 3)):
            cands.append(space.dist[j].astype(float))
    if not cands:
        raise ValidationError("empty candidate set")
    best_val = -1.0
    best_g = cands[0]
    for g in cands:
        v = _psi1_value(space, nu, mu, g)
        if v > best_val:
            best_val, best_g = v, g
    if refine:
        rng = np.random.default_rng(seed)
        g = best_g.astype(float).copy()
        step = 0.25 * float(space.dist.max())
        for _ in range(200):
            i = int(rng.integers(space.n))
            trial = g.copy()
            trial[i] += rng.normal() * step
            v = _psi1_value(space, nu, mu, trial)
            if v > best_val:
                best_val, g = v, trial
                best_g = trial
            else:
                step *= 0.995
    return Psi1Bound(value=float(best_val), g=best_g,
                     lip=_lip_constant(space, best_g))


# ---------------------------------------------------------------------------
# first-moment constant
# ---------------------------------------------------------------------------

def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    total = cum[-1]
    k = int(np.searchsorted(cum, 0.5 * total - 1e-15))
    return float(v[min(k, v.size - 1)])


# variable bounds of f_i for the sign pattern entry +1, 0 or -1
_SIGN_BOUNDS = {1: (0.0, None), 0: (0.0, 0.0), -1: (None, 0.0)}


def _first_moment_exact(space: DiscreteSpace) -> tuple[float, np.ndarray, tuple]:
    """max over 1-Lipschitz f with a zero median of int |f| dmu, by
    enumeration of sign patterns in {+, 0, -}^n.

    A pattern is admissible when each weak side (its sign plus the zeros)
    carries mass >= 1/2; zeros are pinned to f_i = 0 so an atom's mass can
    serve both sides of the median, which a two-sign merge cannot express.
    The f -> -f symmetry halves the enumeration.
    """
    n = space.n
    w = space.weights
    a_ub, b_ub = _lipschitz_rows(space)
    best = 0.0
    best_f = np.zeros(n)
    best_pattern: tuple = tuple([0] * n)
    for pattern in product((1, 0, -1), repeat=n):
        sig = np.array(pattern)
        nonzero = sig[sig != 0]
        if nonzero.size and nonzero[0] == -1:
            continue  # mirror of an already-enumerated pattern
        plus_side = w[(sig >= 0)].sum()
        minus_side = w[(sig <= 0)].sum()
        if plus_side < 0.5 - 1e-12 or minus_side < 0.5 - 1e-12:
            continue
        # a zero is only worth pinning when its mass is needed on both
        # sides; otherwise the pattern that frees it dominates this one
        w_zero = w[sig == 0]
        if np.any((minus_side - w_zero >= 0.5 - 1e-12)
                  | (plus_side - w_zero >= 0.5 - 1e-12)):
            continue
        bounds = [_SIGN_BOUNDS[sgn] for sgn in pattern]
        c = -(sig * w)
        try:
            res = _solve_lp(c, what="sign-pattern LP", A_ub=a_ub, b_ub=b_ub,
                            bounds=bounds)
        except ValidationError:
            continue
        val = float(-res.fun)
        if val > best:
            best, best_f, best_pattern = val, res.x, pattern
    return best, best_f, best_pattern


def _abs_deviation_1d(mu: Measure1D, nodes: np.ndarray, values: np.ndarray,
                      ) -> float:
    """int |f - med_mu(f)| dmu for a piecewise-linear f, cell-exact once
    the (grid-estimated) median and the sign crossings are inserted."""
    dense = np.unique(np.concatenate((mu.grid, nodes)))
    f_dense = np.interp(dense, nodes, values)
    # grid estimate of the median of f; the integral is flat to first
    # order in the median, so grid accuracy suffices
    weights = np.asarray(mu.density(dense))
    steps = np.diff(dense)
    node_w = np.concatenate(([0.0], 0.5 * steps)) + np.concatenate((0.5 * steps, [0.0]))
    med = weighted_median(f_dense, weights * node_w)
    dense, g = _refine_sign_crossings(
        dense, lambda x: np.interp(x, nodes, values) - med)
    mu_r = _resample_1d(mu, dense)
    return mu_r.integrate_nodes(np.abs(g))


def first_moment_constant(source, mode: str = "exact") -> ConstantEntry:
    """Best constant in the first-moment inequality
    int |f - med(f)| dmu <= 1/D over 1-Lipschitz f.

    Finite spaces (n <= 8): exact sign-pattern LP enumeration, two-sided.
    1-D measures: candidate family {x, |x - x0|} with local search; the
    result lower-bounds sup int |f - med| dmu, i.e. upper-bounds D.
    """
    if isinstance(source, DiscreteSpace):
        if mode == "exact":
            if source.n > 8:
                raise UnsupportedSizeError(
                    "exact sign-pattern enumeration capped at n = 8; "
                    "call with mode='heuristic'")
            val, f_opt, pattern = _first_moment_exact(source)
            d_fm = math.inf if val <= 1e-300 else 1.0 / val
            return ConstantEntry(
                constant_id="D_FM", value=d_fm, direction="two-sided",
                method="exact sign-pattern LP enumeration over {+,0,-}^n",
                witnesses={"one_over_d": val, "f": f_opt, "pattern": list(pattern)})
        # heuristic: distance-cone candidates
        best, best_f = 0.0, np.zeros(source.n)
        for j in range(source.n):
            for f in (source.dist[j], -source.dist[j]):
                med = weighted_median(f, source.weights)
                val = float(np.dot(np.abs(f - med), source.weights))
                if val > best:
                    best, best_f = val, f - med
        d_fm = math.inf if best <= 1e-300 else 1.0 / best
        return ConstantEntry(
            constant_id="D_FM", value=d_fm, direction="upper",
            method="candidate lower bound on sup int |f - med| (heuristic)",
            witnesses={"one_over_d": best, "f": best_f})

    if isinstance(source, Measure1D):
        lo, hi = source.support
        nodes = source.grid
        best = _abs_deviation_1d(source, nodes, nodes)  # f = x
        best_tag = {"f": "x"}
        for x0 in np.linspace(lo, hi, 9)[1:-1]:
            val = _abs_deviation_1d(source, nodes, np.abs(nodes - x0))
            if val > best:
                best = val
                best_tag = {"f": "|x - x0|", "x0": float(x0)}
        d_fm = math.inf if best <= 1e-300 else 1.0 / best
        return ConstantEntry(
            constant_id="D_FM", value=d_fm, direction="upper",
            method="1-D candidate family {x, |x - x0|}; lower bound on "
                   "sup int |f - med| dmu (direction: lower on 1/D)",
            witnesses={"one_over_d": best, **best_tag})
    raise ValidationError("source must be a DiscreteSpace or Measure1D")
