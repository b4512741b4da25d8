"""Transport costs, entropy divergences and derived best-constant bounds.

Finite spaces get exact linear-programming oracles (transportation LP and
its Kantorovich dual), and the exact first-moment constant as a maximum
over the vertices of the Lipschitz polytope; 1-D measures use the
monotone (quantile) coupling, which is optimal for every convex cost of
the distance on the line.

All "best constant" estimators here are one-sided by construction and say
so in their :class:`~conc_toolkit.reports.ConstantEntry` metadata: a
transport-entropy constant is an infimum over *all* probability measures,
so a finite witness family can only certify an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .costs import CostSpec, phi_inverse, phi_p_eval
from .errors import DomainError, UnsupportedSizeError, ValidationError
from .laplace import _lipschitz_rows, mean_zero_lipschitz_vertices
from .measures import DiscreteSpace, Measure1D, derive_measure
from .reports import ConstantEntry

__all__ = [
    "TransportPlan",
    "KRDualResult",
    "wc_discrete_lp",
    "transport_costs",
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call: the 1-D
    substrate never solves an LP and need not pay for scipy's import."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _solve_lp(c, *, what: str, reject, **constraints):
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


def _clean_marginal(w: np.ndarray) -> np.ndarray:
    """Zero out sub-1e-12 entries (they destabilize the LP presolve) and
    renormalize each row; the induced cost perturbation is far below the
    1e-9 marginal tolerance."""
    out = np.where(w < 1e-12, 0.0, w)
    s = out.sum(axis=-1, keepdims=True)
    return np.divide(out, s, out=out, where=s > 0)


def _reduced_costs(costs: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """c - A_eq^T y of the K transportation LPs, shaped (K, n, n)."""
    y = duals.reshape(costs.shape[0], 2, costs.shape[1])
    return costs - (y[:, 0, :, None] + y[:, 1, None, :])


def _transport_problem(space: DiscreteSpace, nus, mu, costs):
    """Checked and cleaned (nus, mu, costs) of K transportation LPs on one
    space, coupling row ``nus[k]`` with ``mu`` under cost matrix ``costs[k]``."""
    nus, mu, costs = (np.asarray(a, dtype=float) for a in (nus, mu, costs))
    n = space.n
    if nus.ndim != 2 or nus.shape[1:] != (n,) or mu.shape != (n,):
        raise ValidationError("marginals must be length-n vectors on the space")
    if np.any(nus < -1e-12) or np.any(mu < -1e-12):
        raise ValidationError("marginals must be nonnegative")
    gaps = np.abs(nus.sum(axis=1) - mu.sum())
    if np.any(gaps > 1e-9):
        k = int(np.argmax(gaps))
        raise ValidationError(
            f"infeasible marginals: sums differ ({nus[k].sum():.12g} vs {mu.sum():.12g})")
    if costs.shape != (nus.shape[0], n, n):
        raise ValidationError("need one n x n cost matrix per marginal")
    if n > _MAX_LP_POINTS:
        raise UnsupportedSizeError(f"transport LP capped at n = {_MAX_LP_POINTS}")
    return _clean_marginal(nus) * mu.sum(), _clean_marginal(mu) * mu.sum(), costs


def _block_lp(problems) -> dict:
    """linprog arguments of the block-diagonal LP over the problems' plans.
    Plan entry (b, i, j) of a problem whose rows start at r, flattened
    row-major, has exactly two ones: row-sum row r + 2nb + i and column-sum
    row r + 2nb + n + j; int32 indices hold any LP that fits in memory."""
    from scipy import sparse

    rows, start = [], 0
    for nus, _, _ in problems:
        k, n = nus.shape
        sum_row = start + 2 * n * np.arange(k)[:, None] + np.arange(n)
        block = np.empty((k, n, n, 2), dtype=np.int32)
        block[..., 0] = sum_row[:, :, None]
        block[..., 1] = sum_row[:, None, :] + n
        rows.append(block.ravel())
        start += 2 * n * k
    rows = np.concatenate(rows)
    indptr = np.arange(0, rows.size + 1, 2, dtype=np.int32)
    return {"c": np.concatenate([costs.ravel() for _, _, costs in problems]),
            "A_eq": sparse.csc_matrix((np.ones(rows.size), rows, indptr),
                                      shape=(start, rows.size // 2)),
            "b_eq": np.concatenate([np.concatenate([nu, mu])
                                    for nus, mu, _ in problems for nu in nus]),
            "bounds": (0, None)}


def _plans(problem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(plans, costs <c_k, x_k>, marginal residuals) of a problem's part x."""
    nus, mu, costs = problem
    plans = x.reshape(costs.shape)
    return plans, (costs * plans).sum(axis=(1, 2)), np.maximum(
        np.abs(plans.sum(axis=2) - nus).max(axis=1),
        np.abs(plans.sum(axis=1) - mu).max(axis=1))


def _unsound(problem, x: np.ndarray, duals: np.ndarray) -> str | None:
    """Why a problem's part (x, duals) of a solve is no optimal plan."""
    worst = float(_plans(problem, x)[2].max())
    if worst > 1e-9:
        return f"plan violates marginals ({worst:.3g})"
    # a plan is optimal only if no reduced cost c - A^T y is negative
    costs = problem[2]
    reduced = float(np.min(_reduced_costs(costs, duals)))
    if reduced < -1e-12 * float(np.max(np.abs(costs))):
        return f"plan is not optimal (reduced cost {reduced:.3g})"
    return None


def _transport_lps(problems) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Transportation LPs given as problems (space, nus, mu, costs), each
    on its own space, solved as one block-diagonal LP: the blocks share no
    variable, so the joint optimum is optimal in every block.  Each
    problem's part is checked on its own (marginals, and reduced costs
    against its own max |c|); one that fails, like a lone problem, is
    solved alone by ``_solve_lp``.  Returns ``_plans`` per problem."""
    problems = [_transport_problem(*p) for p in problems]
    xs = [None] * len(problems)
    if len(problems) > 1:
        res = linprog(method="highs", options=None, **_block_lp(problems))
        if res.success:
            # each problem's plan entries and its 2n rows per cost matrix
            cuts = np.cumsum([(costs.size, 2 * nus.size) for nus, _, costs in problems],
                             axis=0)[:-1]
            xs = [None if _unsound(p, x, y) else x for p, x, y in zip(problems, np.split(
                res.x, cuts[:, 0]), np.split(res.eqlin.marginals, cuts[:, 1]))]
    out = []
    for p, x in zip(problems, xs):
        if x is None:
            x = _solve_lp(what="transport LP", reject=lambda res: _unsound(
                p, res.x, res.eqlin.marginals), **_block_lp([p])).x
        out.append(_plans(p, x))
    return out


def transport_costs(space: DiscreteSpace, nus, mu, costs) -> np.ndarray:
    """Optimal costs (K,) of coupling each ``nus[k]`` with ``mu`` under
    cost matrix ``costs[k]``, all K in one LP solve."""
    return _transport_lps([(space, nus, mu, costs)])[0][1]


def wc_discrete_lp(space: DiscreteSpace, nu, mu, cost: np.ndarray | None = None,
                   ) -> TransportPlan:
    """Exact optimum of the transportation LP for an arbitrary cost matrix
    (defaults to the metric itself, i.e. W_1)."""
    c = space.dist if cost is None else cost
    plans, costs, resid = _transport_lps([(space, [nu], mu, [c])])[0]
    plan = plans[0]
    rows, cols = np.nonzero(plan > 1e-15)
    return TransportPlan(rows=rows, cols=cols, mass=plan[rows, cols],
                         cost=float(costs[0]), marginal_residual=float(resid[0]),
                         n=space.n)


def _kr_potential(space: DiscreteSpace, nu, mu) -> tuple[float, np.ndarray]:
    """(value, potential) of the dual LP of W_1: max int f d(nu - mu) over
    f(0) = 0, f(i) - f(j) <= d(i, j); re-solved if a row breaks by > 1e-12 diam."""
    a_ub, b_ub = _lipschitz_rows(space)
    bounds = [(0.0, 0.0)] + [(None, None)] * (space.n - 1)  # shift-invariant

    def off_lipschitz(res) -> str | None:
        worst = float(np.max(a_ub @ res.x - b_ub, initial=0.0))
        return (f"potential breaks a Lipschitz bound ({worst:.3g})"
                if worst > 1e-12 * space.diameter else None)

    res = _solve_lp(np.subtract(mu, nu, dtype=float), what="dual LP",
                    reject=off_lipschitz, A_ub=a_ub, b_ub=b_ub, bounds=bounds)
    return float(-res.fun), res.x


def kr_dual(space: DiscreteSpace, nu, mu) -> KRDualResult:
    """Kantorovich duality for W_1: the transportation LP and its dual."""
    primal = wc_discrete_lp(space, nu, mu).cost
    dual, potential = _kr_potential(space, nu, mu)
    return KRDualResult(primal=primal, dual=dual, potential=potential)


def w1_discrete(space: DiscreteSpace, nu, mu) -> float:
    return wc_discrete_lp(space, nu, mu).cost


# ---------------------------------------------------------------------------
# 1-D transport costs (monotone coupling)
# ---------------------------------------------------------------------------

def _merged_nodes(mu: Measure1D, nu: Measure1D) -> np.ndarray:
    lo = min(mu.support[0], nu.support[0])
    hi = max(mu.support[1], nu.support[1])
    fill = np.linspace(lo, hi, 4096)
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
        xs, lambda x: mu.cdf(x) - nu.cdf(x))
    return float(np.trapezoid(np.abs(diff), xs))


# midpoints of (0, 1) on which the monotone coupling is evaluated
_N_U = 8192


def _monotone_quantiles(mu: Measure1D) -> np.ndarray:
    """q_mu on the _N_U midpoints of (0, 1): the lower quantile up to 1/2,
    the upper one (of the mirrored mass) above it."""
    u = (np.arange(_N_U) + 0.5) / _N_U
    return np.where(u <= 0.5, mu.quantile(np.minimum(u, 0.5)),
                    mu.quantile_upper(np.maximum(1.0 - u, 0.0)))


def _monotone_gap(mu: Measure1D, nu: Measure1D) -> np.ndarray:
    """|q_mu - q_nu| on the _N_U midpoints of (0, 1): the displacement of
    the monotone coupling, which is optimal for every convex cost of the
    distance, so one gap serves every such cost."""
    return np.abs(_monotone_quantiles(mu) - _monotone_quantiles(nu))


def ws_1d(mu: Measure1D, nu: Measure1D, s: float) -> float:
    """W_s = (int |q_mu - q_nu|^s du)^{1/s} via the monotone coupling."""
    if not (1.0 <= s < math.inf):
        raise DomainError(f"s must be a finite real >= 1, got {s}")
    return float(np.mean(_monotone_gap(mu, nu) ** s) ** (1.0 / s))


def wc_monotone_1d(mu: Measure1D, nu: Measure1D, spec: CostSpec, scale: float) -> float:
    """Optimal transport cost for the cost phi_p(scale * |x - y|) on the
    line; the monotone coupling is optimal because the cost is convex in
    the distance."""
    if not (0.0 <= scale < math.inf):
        raise DomainError(f"scale must be a finite real >= 0, got {scale}")
    return float(np.mean(phi_p_eval(spec, scale * _monotone_gap(mu, nu))))


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


def _kl_1d(nu: Measure1D, mu: Measure1D) -> float:
    """H(nu | mu) for window measures.

    Windows are truncations of ideal supports; nu-mass outside mu's
    window below 1e-10 is treated as truncation error rather than genuine
    singularity, matching the sub-1e-12 tail budget of the measure
    builders.
    """
    n_lo, n_hi = nu.support
    m_lo, m_hi = mu.support
    outside = 0.0
    if n_lo < m_lo:
        outside += float(nu.cdf(m_lo))
    if n_hi > m_hi:
        outside += float(nu.sf(m_hi))
    if outside > 1e-10:
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
        lambda x: nu.density(x) - mu.density(x))
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

def gibbs_tilt_discrete(mu: np.ndarray, f: np.ndarray, lam) -> np.ndarray:
    """mu tilted by e^{lam f}, normalised along the last axis; ``lam`` and
    ``f`` broadcast, so one call tilts a whole grid of (f, lam) pairs."""
    logw = lam * f + np.log(np.maximum(mu, 1e-300))
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    w[..., mu <= 0] = 0.0
    return w / w.sum(axis=-1, keepdims=True)


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
        coord_fs.append(_kr_potential(space, out[0], mu)[1])
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

def _witness_table(source, mu, witnesses, max_witnesses: int):
    """The witness family, W_1 and H(nu | mu) per witness, and ``cost(g,
    idx, scales)``: the optimal cost of g(scale_k d), g convex, from
    ``family[idx[k]]`` to the base.  The TE code's only substrate branch:
    one LP per query on a finite space, mean(g(scale |q_mu - q_nu|)) on the
    line, where each witness's gap serves every g and is built once, as are
    the base's quantiles."""
    if isinstance(source, DiscreteSpace):
        if mu is None:
            raise ValidationError("discrete mode requires the base weights mu")
        base = np.asarray(mu, dtype=float)
        family = witnesses if witnesses is not None else discrete_witnesses(
            source, base, max_witnesses=max_witnesses)
        if not family:
            raise DomainError("witness family is empty")

        def cost(g, idx, scales) -> np.ndarray:
            return transport_costs(source, [family[i] for i in idx], base,
                                   [g(scale * source.dist) for scale in scales])

        w1 = transport_costs(source, family, base, [source.dist] * len(family)).tolist()
        h = [_kl_discrete(np.asarray(nu), base) for nu in family]
    elif isinstance(source, Measure1D):
        family = witnesses if witnesses is not None else witnesses_1d(source)
        if not family:
            raise DomainError("witness family is empty")
        gaps: dict[int, np.ndarray] = {}
        q_base = None

        def cost(g, idx, scales) -> np.ndarray:
            nonlocal q_base
            for i in idx:
                if i not in gaps:
                    if q_base is None:
                        q_base = _monotone_quantiles(source)
                    gaps[i] = np.abs(q_base - _monotone_quantiles(family[i]))
            return np.array([float(np.mean(g(scale * gaps[i])))
                             for i, scale in zip(idx, scales)])

        w1 = [w1_1d(source, nu) for nu in family]
        h = [_kl_1d(nu, source) for nu in family]
    else:
        raise ValidationError("source must be a DiscreteSpace or Measure1D")
    return family, w1, h, cost


def _largest_scales(cost_at, entropy: np.ndarray) -> np.ndarray:
    """Largest D_k with cost_at([k], [D_k]) <= entropy[k] for every k, to
    within 1e-4 (1 + D_k), by bisection on all k at once, one
    ``cost_at(idx, scales)`` query per step; +oo where D = 2^59 is still
    feasible.

    Each cost is nondecreasing in D, so each feasible set is an interval.
    """
    lo = np.zeros(len(entropy))
    hi = np.ones(len(entropy))
    growing = np.ones(len(entropy), dtype=bool)  # hi is still feasible
    for _ in range(60):
        idx = np.nonzero(growing)[0]
        if idx.size == 0:
            break
        over = cost_at(idx, hi[idx]) > entropy[idx]
        growing[idx[over]] = False
        hi[idx[~over]] *= 2.0
    while True:
        idx = np.nonzero(~growing & (hi - lo > 1e-4 * (1.0 + hi)))[0]
        if idx.size == 0:
            return np.where(growing, math.inf, lo)
        mid = 0.5 * (lo[idx] + hi[idx])
        feasible = cost_at(idx, mid) <= entropy[idx]
        lo[idx[feasible]] = mid[feasible]
        hi[idx[~feasible]] = mid[~feasible]


_TE_MODES = ("wTE(1,p)", "TE(1,phi_p)", "TE(s,p)", "TE(phi_p,1)")


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
    metadata says so).  W_1, H and the costs come from one pass over the
    family; for several modes on one family, pass it as ``witnesses``.
    """
    spec = CostSpec(p)
    return _te_minimum(_witness_table(source, mu, witnesses, max_witnesses),
                       mode, spec, s)


def _te_minimum(table, mode: str, spec: CostSpec, s: float | None = None,
                ) -> ConstantEntry:
    """``te_constant_estimate`` on a built ``_witness_table``, so several
    modes on one family share its W_1 and H."""
    _, w1, h, cost = table
    p = spec.p
    if mode not in _TE_MODES:
        raise DomainError(f"unknown TE mode {mode!r}")
    if mode == "TE(s,p)" and s is None:
        raise DomainError("TE(s,p) requires s")

    used = np.flatnonzero((np.asarray(w1) > 1e-12) & np.isfinite(h))
    if not used.size:
        raise DomainError("all witnesses degenerate (W_1 = 0 or H = +oo)")
    if mode == "TE(s,p)":
        w_s = cost(lambda x: x ** s, used, np.ones(used.size)) ** (1.0 / s)
    elif mode == "TE(phi_p,1)":
        scales = _largest_scales(
            lambda k, sc: cost(partial(phi_p_eval, spec), used[k], sc),
            np.asarray(h)[used])
    best = math.inf
    best_w = None
    for k, idx in enumerate(used.tolist()):
        if mode == "wTE(1,p)":
            val = (h[idx] ** (1.0 / p) + 1.0) / w1[idx]
        elif mode == "TE(1,phi_p)":
            val = phi_inverse(spec, h[idx]) / w1[idx]
        elif mode == "TE(s,p)":
            if w_s[k] <= 1e-12:
                continue
            val = h[idx] ** (1.0 / p) / w_s[k]
        else:
            val = scales[k]
        if val < best:
            best = val
            best_w = {"witness_index": idx, "W1": w1[idx], "H": h[idx]}
    if best_w is None:
        raise DomainError("all witnesses degenerate (W_1 = 0 or H = +oo)")
    return ConstantEntry(
        constant_id=f"D_{mode}",
        value=float(best),
        direction="upper",
        method=f"min over {len(used)} witness measures of the per-witness "
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


def _psi1_value(space: DiscreteSpace, nu, mu, g: np.ndarray) -> float:
    lip = _lip_constant(space, g)
    if lip <= 1e-14:
        return 0.0
    from scipy.special import logsumexp

    return float(abs(logsumexp(g, b=nu) - logsumexp(g, b=mu)) / lip)


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


def _first_moment_exact(verts: np.ndarray, mu: np.ndarray) -> tuple[float, np.ndarray]:
    """max over 1-Lipschitz f of min_c int |f - c| dmu, with its witness,
    given the vertices of the Lipschitz polytope.

    The objective is convex and shift-invariant, so the maximum sits at a
    vertex v of the Lipschitz polytope, and the inner minimum at one of
    v's own values v_k (a weighted median): the witness f = v - v_k has
    median 0 and the first vertex attaining the maximum wins."""
    dev = np.abs(verts[:, :, None] - verts[:, None, :]) @ mu  # [v, k]
    j = int(np.argmax(dev.min(axis=1)))
    k = int(np.argmin(dev[j]))
    return float(dev[j, k]), verts[j] - verts[j, k]


def _abs_deviation_1d(mu: Measure1D, nodes: np.ndarray, values: np.ndarray,
                      ) -> float:
    """int |f - med_mu(f)| dmu for a piecewise-linear f, cell-exact once
    the (grid-estimated) median and the sign crossings are inserted."""
    dense = np.unique(np.concatenate((mu.grid, nodes)))
    f_dense = np.interp(dense, nodes, values)
    # grid estimate of the median of f; the integral is flat to first
    # order in the median, so grid accuracy suffices
    weights = mu.density(dense)
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

    Finite spaces (n <= ``laplace._VERTEX_CAP``): exact, two-sided, as the
    maximum over the vertices of the Lipschitz polytope (``_first_moment_exact``);
    with ``mode='heuristic'``, distance-cone candidates, an upper bound on D.
    1-D measures: candidate family {x, |x - x0|} with local search; the
    result lower-bounds sup int |f - med| dmu, i.e. upper-bounds D.  Any
    other ``mode`` than "exact" or "heuristic" raises DomainError.
    """
    if mode not in ("exact", "heuristic"):
        raise DomainError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if isinstance(source, DiscreteSpace):
        if mode == "exact":
            val, f_opt = _first_moment_exact(mean_zero_lipschitz_vertices(
                source, source.weights), source.weights)
            d_fm = math.inf if val <= 1e-300 else 1.0 / val
            return ConstantEntry(
                constant_id="D_FM", value=d_fm, direction="two-sided",
                method="exact maximum over the vertices of the Lipschitz polytope",
                witnesses={"one_over_d": val, "f": f_opt})
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
