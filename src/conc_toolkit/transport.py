"""Transport costs, entropy divergences and derived best-constant bounds.

Finite spaces get exact linear-programming oracles (the transportation
LP, and from its certified duals a Kantorovich potential), and the exact
first-moment constant as a maximum over the vertices of the Lipschitz
polytope; 1-D measures use the monotone (quantile) coupling, which is
optimal for every convex cost of the distance on the line.

Transportation LPs with n <= ``_SIMPLEX_MAX_N`` points are solved by a
transportation simplex in numpy, all plans of one size in one batch, the
larger ones and the plans that fail the certificate (``_unsound``) one at a
time by a spanning-tree simplex, whose plans must pass it too.  ``kr_dual``'s
potential is the c-transform f(i) = min_j d(i, j) - v_j of the certified
column duals v, so W_1 and its dual come from one solve.

The "best constant" estimators say how far they are certified in their
:class:`~conc_toolkit.reports.ConstantEntry` metadata: a transport-entropy
constant is an infimum over *all* probability measures, so a finite witness
family can only certify an upper bound.  The first-moment constant is exact
on finite spaces (a vertex maximum) and on the line, where f = x attains it
and int |x - med| dmu has a closed form in the cell-exact CDF and partial
moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .costs import CostSpec, _count, _float_array, _real, _typed, phi_inverse, phi_p_eval
from .errors import DomainError, UnsupportedSizeError, ValidationError
from .laplace import _checked_weights, log_laplace, mean_zero_lipschitz_vertices
from .measures import _SPACE_TOL, DiscreteSpace, Measure1D, derive_measure
from .reports import ConstantEntry

_MAX_LP_POINTS = 400
# the largest n the batch simplex solves, the tree the larger: on a 2-vCPU
# Xeon VM (medians of 10 alternating pairs) 400 plans on one space took 57 /
# 109 / 166 ms in the batch and 72 / 111 / 133 ms in the tree at n = 8 / 9 /
# 10, and 40 plans 7.6 / 19 ms and 7.0 / 15 ms at n = 8 / 10
_SIMPLEX_MAX_N = 8


def _pivot_cap(n: int) -> int:
    """Pivots a plan of n points may take in either simplex, which enter
    the most negative reduced cost below -1e-12 max |c| and leave the lowest
    cell index among ratio ties; past the cap a plan keeps its last basis,
    which fails ``_unsound``.  Degenerate and random plans took at most 49
    at n = 16 (batch), 124 at n <= 40, 337 at 200 and 526 at 400 (tree)."""
    return 200 + 5 * n


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


@dataclass(frozen=True)
class KRDualResult:
    primal: float
    dual: float
    potential: np.ndarray

    @property
    def gap(self) -> float:
        return abs(self.primal - self.dual)


def _clean_marginal(w: np.ndarray) -> np.ndarray:
    """Zero out sub-1e-12 entries and renormalize each row; the induced cost
    perturbation is far below the 1e-9 marginal tolerance."""
    out = np.where(w < 1e-12, 0.0, w)
    s = out.sum(axis=-1, keepdims=True)
    return np.divide(out, s, out=out, where=s > 0)


def _reduced_costs(costs: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """c - A_eq^T y of the K transportation LPs, shaped (K, n, n)."""
    y = duals.reshape(costs.shape[0], 2, costs.shape[1])
    return costs - (y[:, 0, :, None] + y[:, 1, None, :])


def _transport_problem(n: int, nus, mus, costs):
    """Checked and cleaned (nus, mus, costs) of K transportation LPs on n
    points, coupling row ``nus[k]`` with ``mus[k]``, or with one shared
    ``mus`` of shape (n,), under cost matrix ``costs[k]``."""
    nus, mus = _float_array(nus, "nus"), _float_array(mus, "mu")
    costs = _float_array(costs, "costs")
    if nus.ndim != 2 or nus.shape[1:] != (n,) or mus.shape not in ((n,), nus.shape):
        raise ValidationError("marginals must be length-n vectors on the space")
    mus = np.broadcast_to(mus, nus.shape)
    if not (np.isfinite(nus).all() and np.isfinite(mus).all() and np.isfinite(costs).all()):
        raise ValidationError("marginals and costs must be finite")
    if np.any(nus < -1e-12) or np.any(mus < -1e-12):
        raise ValidationError("marginals must be nonnegative")
    mass = mus.sum(axis=1, keepdims=True)
    gaps = np.abs(nus.sum(axis=1, keepdims=True) - mass)
    if np.any(gaps > 1e-9):
        k = int(np.argmax(gaps))
        raise ValidationError(
            f"infeasible marginals: sums differ ({nus[k].sum():.12g} vs {mus[k].sum():.12g})")
    if costs.shape != (nus.shape[0], n, n):
        raise ValidationError("need one n x n cost matrix per marginal")
    if n > _MAX_LP_POINTS:
        raise UnsupportedSizeError(f"transport LP capped at n = {_MAX_LP_POINTS}")
    return _clean_marginal(nus) * mass, _clean_marginal(mus) * mass, costs


def _plans(problem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(plans, costs <c_k, x_k>, marginal residuals) of a problem's plans x."""
    nus, mus, costs = problem
    plans = x.reshape(costs.shape)
    return plans, (costs * plans).sum(axis=(1, 2)), np.maximum(
        np.abs(plans.sum(axis=2) - nus).max(axis=1),
        np.abs(plans.sum(axis=1) - mus).max(axis=1))


def _unsound(problem, x: np.ndarray, duals: np.ndarray) -> list[str | None]:
    """Why each of a problem's plans x is not optimal with its duals (u, v),
    None where it is.  A plan is optimal when it is feasible, no reduced
    cost c - u - v is negative and the plan is zero wherever the reduced
    cost is not (complementary slackness); each check is scaled by the
    plan's own max |c| and mass, and a NaN fails its check."""
    plans, _, resid = _plans(problem, x)
    costs, mass = problem[2], problem[1].sum(axis=1)
    reduced = _reduced_costs(costs, duals)
    scale = 1e-12 * np.max(np.abs(costs), axis=(1, 2))
    checks = (  # the first check a plan fails names its fault
        ("plan violates marginals ({:.3g})", resid, 1e-9),
        ("plan has a negative entry ({:.3g})", -plans.min(axis=(1, 2)), 1e-12 * mass),
        ("plan is not optimal (reduced cost -{:.3g})", -reduced.min(axis=(1, 2)), scale),
        ("plan breaks complementary slackness ({:.3g})",
         (plans * reduced).sum(axis=(1, 2)), scale * mass))
    why = [None] * len(costs)
    for text, worst, tol in checks:
        for k in np.flatnonzero(~(worst <= tol)):
            why[k] = why[k] or text.format(worst[k])
    return why


def _simplex_group(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(plans, duals (u, v)) of K transportation problems of one size n,
    rows ``a[k]``, columns ``b[k]``, costs ``c[k]``, by the transportation
    simplex on all K at once.

    A basis is a spanning tree of 2n - 1 cells, from the north-west corner
    rule.  Every step inverts each open plan's (2n, 2n) matrix of basic
    cells, u_i + v_j = c_ij with u_0 = 0, afresh (a tree's matrix and its
    inverse hold only 0 and +-1, so no rounding builds up over the steps);
    its rows give the duals, its columns the basic flows, and two of its
    rows the cycle of an entering cell; pivots follow ``_pivot_cap``.
    """
    k, n = a.shape
    m = 2 * n
    cells = np.empty((k, m - 1), dtype=np.intp)  # north-west corner rule
    i, j, r = np.zeros(k, dtype=np.intp), np.zeros(k, dtype=np.intp), np.arange(k)
    ca, cb = np.cumsum(a, axis=1), np.cumsum(b, axis=1)
    for step in range(m - 1):
        cells[:, step] = i * n + j
        down = (j == n - 1) | ((i < n - 1) & (ca[r, i] <= cb[r, j]))  # row i is spent
        i, j = i + down, j + ~down
    rhs, c = np.concatenate([a, b], axis=1), c.reshape(k, n * n)
    tol = 1e-12 * np.max(np.abs(c), axis=1)
    x, y = np.zeros((k, n * n)), np.zeros((k, m))
    live, pos = np.arange(k), np.arange(m - 1)
    for _ in range(_pivot_cap(n)):
        q, tree = np.arange(live.size), cells[live]
        basis = np.zeros((live.size, m, m))
        basis[:, m - 1, 0] = 1.0  # u_0 = 0
        basis[q[:, None], pos, tree // n] = basis[q[:, None], pos, n + tree % n] = 1.0
        inv = np.linalg.inv(basis)[..., :m - 1]  # the pin's column of rhs is 0
        y[live] = (inv @ np.take_along_axis(c[live], tree, axis=1)[..., None])[..., 0]
        flows = (rhs[live, None] @ inv)[:, 0]
        x[live] = 0.0
        x[live[:, None], tree] = flows
        reduced = c[live] - (y[live, :n, None] + y[live, None, n:]).reshape(-1, n * n)
        enter = np.argmin(reduced, axis=1)
        still = reduced[q, enter] < -tol[live]
        live, inv, flows, enter = live[still], inv[still], flows[still], enter[still]
        if not live.size:
            break
        q = q[:live.size]
        cycle = inv[q, enter // n] + inv[q, n + enter % n]  # +1 where the flow falls
        ratio = np.where(cycle > 0.5, np.maximum(flows, 0.0), np.inf)
        ties = ratio == ratio.min(axis=1, keepdims=True)
        cells[live, np.argmin(np.where(ties, cells[live], n * n), axis=1)] = enter
    return x.reshape(k, n, n), y


def _transport_simplex(problems) -> list[tuple[np.ndarray, np.ndarray]]:
    """(plans, duals) per problem, all plans of one size n in one
    ``_simplex_group``."""
    out = [None] * len(problems)
    for n in {costs.shape[-1] for _, _, costs in problems}:
        group = [t for t, (_, _, costs) in enumerate(problems) if costs.shape[-1] == n]
        nus, mus, costs = (np.concatenate(part) for part in zip(*(problems[t] for t in group)))
        plans, duals = _simplex_group(nus, mus, costs)
        cuts = np.cumsum([len(problems[t][0]) for t in group])[:-1]
        for t, x, y in zip(group, np.split(plans, cuts), np.split(duals, cuts)):
            out[t] = (x, y)
    return out


def _tree_simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(plan, duals (u, v)) of one transportation problem, rows ``a``,
    columns ``b``, costs ``c`` (n x n), by the transportation simplex on a
    spanning tree of 2n - 1 cells over the lines (rows 0..n-1, columns
    n..2n-1); Ahuja, Magnanti and Orlin, Network Flows, ch. 11.  Start: in
    stable cost order each cell takes min(what its row and its column have
    left) and closes one of them, the row on a tie, but never the last open
    row or column while the other side has more than one open line; each
    closes a line no later cell meets, so they form a tree.  The tree hangs
    from row 0 (u_0 = 0), each line's potential taken down its path from
    there.  A pivot cuts the subtree below the leaving cell off; only that
    subtree is hung again, from the entering cell, and walked for its new
    potentials, each along the same path a walk from row 0 would take."""
    n, flat = a.size, c.ravel()
    cost, tol, cap = flat.tolist(), 1e-12 * np.max(np.abs(flat)), _pivot_cap(n)
    left = np.concatenate([a, b]).tolist()
    shut, open_rows, open_cols = [False] * (2 * n), n, n
    x, adjacent = np.zeros(n * n), [[] for _ in range(2 * n)]
    for cell in np.argsort(flat, kind="stable").tolist():
        i, j = cell // n, n + cell % n
        if shut[i] or shut[j]:
            continue
        x[cell] = flow = min(left[i], left[j])
        left[i], left[j] = left[i] - flow, left[j] - flow
        adjacent[i].append((j, cell))
        adjacent[j].append((i, cell))
        row = (left[i] <= left[j] or open_cols == 1) and not (open_rows == 1 < open_cols)
        shut[i if row else j] = True
        open_rows, open_cols = open_rows - row, open_cols - (not row)
        if open_rows + open_cols == 1:
            break
    y, up, via, depth = [0.0] * (2 * n), [-1] * (2 * n), [-1] * (2 * n), [0] * (2 * n)
    walk = [0]  # the lines below which the tree is walked again
    reduced = np.empty((n, n))
    for pivots in range(cap + 1):
        for s in walk:
            for t, cell in adjacent[s]:
                if t != up[s]:
                    y[t], up[t], via[t], depth[t] = cost[cell] - y[s], s, cell, depth[s] + 1
                    walk.append(t)
        duals = np.array(y)
        np.subtract(c, np.add(duals[:n, None], duals[None, n:], out=reduced), out=reduced)
        enter = int(np.argmin(reduced))
        if not reduced.flat[enter] < -tol or pivots == cap:
            return x.reshape(n, n), duals
        # the tree path between the entering cell's row (side 0) and column
        # (side 1); a cell on it loses flow when the line below it is of its
        # side's kind
        tips = [enter // n, n + enter % n]
        ends, gain, loss, sides = tips[:], [], [], {}
        while ends[0] != ends[1]:
            side = int(depth[ends[0]] < depth[ends[1]])  # the deeper end climbs
            line = ends[side]
            (loss if (line >= n) == side else gain).append(via[line])
            sides[via[line]] = side
            ends[side] = up[line]
        leave = min(loss, key=lambda cell: (x[cell], cell))
        x[enter] = step = x[leave]
        x[gain] += step
        x[loss] -= step
        for cell, edit in ((leave, list.remove), (enter, list.append)):
            edit(adjacent[cell // n], (n + cell % n, cell))
            edit(adjacent[n + cell % n], (cell // n, cell))
        # the climb from the end on the leaving cell's side passed it, so
        # that end is cut off with the subtree and hangs from the other one
        low, high = tips[sides[leave]], tips[1 - sides[leave]]
        y[low], up[low], via[low], depth[low] = cost[enter] - y[high], high, enter, depth[high] + 1
        walk = [low]


def _transport_lps(problems) -> list[tuple[np.ndarray, ...]]:
    """Transportation LPs given as problems (n, nus, mus, costs), K plans
    each (see ``_transport_problem``): ``_plans`` per problem, then the
    certified duals (K, 2n), u of the rows (``nus``) and v of the columns
    (``mus``).  A batch plan (n <= ``_SIMPLEX_MAX_N``) that fails
    ``_unsound``, and every larger plan, is solved alone by
    ``_tree_simplex``, and must pass or raise."""
    problems = [_transport_problem(*p) for p in problems]
    solved = iter(_transport_simplex([p for p in problems if p[2].shape[-1] <= _SIMPLEX_MAX_N]))
    out = []
    for p in problems:
        nus, mus, costs = p
        n = costs.shape[-1]
        if n <= _SIMPLEX_MAX_N:
            x, duals = next(solved)
            redo = [k for k, why in enumerate(_unsound(p, x, duals)) if why is not None]
        else:
            x, duals = np.empty(costs.shape), np.empty((len(nus), 2 * n))
            redo = range(len(nus))
        for k in redo:
            x[k], duals[k] = _tree_simplex(nus[k], mus[k], costs[k])
            why = _unsound((nus[[k]], mus[[k]], costs[[k]]), x[[k]], duals[[k]])[0]
            if why is not None:
                raise ValidationError(f"transport LP failed: {why}")
        out.append((*_plans(p, x), duals.reshape(len(nus), 2 * n)))
    return out


def transport_costs(space: DiscreteSpace, nus, mu, costs) -> np.ndarray:
    """Optimal costs (K,) of coupling each ``nus[k]`` with ``mu`` under
    cost matrix ``costs[k]``, all K in one ``_transport_lps`` call."""
    return _transport_lps([(_typed(space, "space", DiscreteSpace).n, nus, mu, costs)])[0][1]


def wc_discrete_lp(space: DiscreteSpace, nu, mu, cost: np.ndarray | None = None,
                   ) -> TransportPlan:
    """Exact optimum of the transportation LP for an arbitrary cost matrix
    (defaults to the metric itself, i.e. W_1)."""
    c = _typed(space, "space", DiscreteSpace).dist if cost is None else cost
    plans, costs, resid, _ = _transport_lps([(space.n, [nu], mu, [c])])[0]
    plan = plans[0]
    rows, cols = np.nonzero(plan > 1e-15)
    return TransportPlan(rows=rows, cols=cols, mass=plan[rows, cols],
                         cost=float(costs[0]), marginal_residual=float(resid[0]))


def kr_dual(space: DiscreteSpace, nu, mu) -> KRDualResult:
    """Kantorovich duality for W_1 from one transportation LP: its cost, and
    the c-transform f(i) = min_j d(i, j) - v_j of its column duals v,
    shifted to f(0) = 0.  f >= u on the rows and f <= -v on the columns,
    and f is 1-Lipschitz, so int f d(nu - mu) = W_1: f is a KR-optimal
    potential (Villani, Optimal Transport: Old and New, ch. 5).  A
    potential off the Lipschitz bound by more than the triangle slack a
    DiscreteSpace accepts, plus 1e-12 x diameter, raises ValidationError."""
    n = _typed(space, "space", DiscreteSpace).n
    _, costs, _, duals = _transport_lps([(n, [nu], mu, [space.dist])])[0]
    f = np.min(space.dist - duals[0, n:], axis=1)
    f -= f[0]
    worst = float(np.max(f[:, None] - f[None, :] - space.dist))
    if not worst <= _SPACE_TOL + 1e-12 * space.diameter:
        raise ValidationError(f"potential breaks a Lipschitz bound ({worst:.3g})")
    return KRDualResult(primal=float(costs[0]),
                        dual=float(np.dot(f, np.subtract(nu, mu, dtype=float))),
                        potential=f)


def w1_discrete(space: DiscreteSpace, nu, mu) -> float:
    return wc_discrete_lp(space, nu, mu).cost


def _line_order(space: DiscreteSpace) -> tuple[np.ndarray, np.ndarray] | None:
    """(order, gaps) of a space whose metric is a line's: the points sorted
    along the line, positions being the distances from the point farthest
    from point 0 (an end point), and the n - 1 gaps between neighbours;
    None if some distance is off |x_i - x_j| by more than 1e-12 x diameter."""
    x = space.dist[int(np.argmax(space.dist[0]))]
    if np.max(np.abs(np.abs(x[:, None] - x) - space.dist)) > 1e-12 * space.diameter:
        return None
    order = np.argsort(x)
    return order, np.diff(x[order])


def _line_potential(line, nu, mu) -> np.ndarray:
    """A KR-optimal potential for W_1(nu, mu) on a line, with f(0) = 0: it
    falls by the gap where F_nu > F_mu and rises where F_nu < F_mu, so by
    summation by parts int f d(nu - mu) = sum |F_nu - F_mu| x gap = W_1."""
    order, gaps = line
    diff = np.cumsum(np.subtract(nu, mu, dtype=float)[order])[:-1]
    f = np.empty(order.size)
    f[order] = np.concatenate(([0.0], np.cumsum(-np.sign(diff) * gaps)))
    return f - f[0]


# ---------------------------------------------------------------------------
# 1-D transport costs (monotone coupling)
# ---------------------------------------------------------------------------

def _merged_nodes(mu: Measure1D, nu: Measure1D) -> np.ndarray:
    lo = min(mu.support[0], nu.support[0])
    hi = max(mu.support[1], nu.support[1])
    fill = np.linspace(lo, hi, 4096)
    return np.unique(np.concatenate((mu.grid, nu.grid, fill)))


def _with_sign_crossings(xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The sorted nodes ``xs`` with the linear root of ``vals`` inserted on
    every cell whose end values differ in sign; ``xs`` itself when there
    is none."""
    cross = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    if not cross.size:
        return xs
    return np.union1d(xs, xs[cross] - vals[cross] * (xs[cross + 1] - xs[cross]) / (
        vals[cross + 1] - vals[cross]))


def w1_1d(mu: Measure1D, nu: Measure1D) -> float:
    """W_1 between 1-D measures as the area between their CDFs, with the
    linear root of every sign change of F_mu - F_nu inserted, so the kinks
    of |F_mu - F_nu| land on nodes."""
    if not isinstance(mu, Measure1D) or not isinstance(nu, Measure1D):
        raise ValidationError("w1_1d expects two Measure1D inputs")
    xs = _merged_nodes(mu, nu)
    if xs.size < 2:
        raise ValidationError("incompatible grids: empty merged window")
    diff = mu.cdf(xs) - nu.cdf(xs)
    dense = _with_sign_crossings(xs, diff)
    if dense is not xs:
        xs, diff = dense, mu.cdf(dense) - nu.cdf(dense)
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
    if not isinstance(mu, Measure1D) or not isinstance(nu, Measure1D):
        raise ValidationError("the monotone coupling expects two Measure1D inputs")
    return np.abs(_monotone_quantiles(mu) - _monotone_quantiles(nu))


def ws_1d(mu: Measure1D, nu: Measure1D, s: float) -> float:
    """W_s = (int |q_mu - q_nu|^s du)^{1/s} via the monotone coupling."""
    s = _real(s, "s", "[1, inf)")
    return float(np.mean(_monotone_gap(mu, nu) ** s) ** (1.0 / s))


def wc_monotone_1d(mu: Measure1D, nu: Measure1D, spec: CostSpec, scale: float) -> float:
    """Optimal transport cost for the cost phi_p(scale * |x - y|) on the
    line; the monotone coupling is optimal because the cost is convex in
    the distance."""
    scale = _real(scale, "scale", "[0, inf)")
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
    """Total variation, cell-exact.  On each cell of the union of both
    grids inside both windows log nu - log mu is linear, so it changes sign
    at most once, at its linear root; over each stretch where its sign
    holds, int |nu - mu| = |Delta (F_nu - F_mu)| with the cell-exact CDFs."""
    xs = np.union1d(mu.grid, nu.grid)
    g = (mu.potential_at(xs) + mu.log_z) - (nu.potential_at(xs) + nu.log_z)
    lo, hi = max(mu.support[0], nu.support[0]), min(mu.support[1], nu.support[1])
    # g is zeroed at the nodes outside the common window, so no root is
    # sought on a cell that leaves it
    xs = _with_sign_crossings(xs, np.where((xs >= lo) & (xs <= hi), g, 0.0))
    mid = 0.5 * (xs[:-1] + xs[1:])
    with np.errstate(invalid="ignore"):  # NaN where both windows miss a cell
        sign = np.sign(nu.log_density(mid) - mu.log_density(mid))
    ends = np.concatenate(([0], np.flatnonzero(np.diff(sign)) + 1, [xs.size - 1]))
    return float(0.5 * np.abs(np.diff(nu.cdf(xs[ends]) - mu.cdf(xs[ends]))).sum())


def divergences(nu, mu) -> DivergenceReport:
    """Relative entropies H(nu|mu), H(mu|nu) and total variation.

    Inputs are either two weight vectors on a common finite space or two
    Measure1D objects.  Mutually singular parts produce the +oo sentinel;
    atoms with zero mass follow the 0 log 0 = 0 convention.  A weight
    vector must be 1-D, finite and nonnegative and sum to 1 to within 1e-9,
    and a Measure1D pairs only with a Measure1D (ValidationError).
    """
    if isinstance(nu, Measure1D) or isinstance(mu, Measure1D):
        if not (isinstance(nu, Measure1D) and isinstance(mu, Measure1D)):
            raise ValidationError("divergences takes two Measure1D objects or two "
                                  "weight vectors, not one of each")
        return DivergenceReport(h_nu_mu=_kl_1d(nu, mu), h_mu_nu=_kl_1d(mu, nu),
                                d_tv=_tv_1d(nu, mu))
    a = _float_array(nu, "nu")
    b = _float_array(mu, "mu")
    if a.ndim != 1 or a.shape != b.shape:
        raise ValidationError("weight vectors must be 1-D and of equal length")
    for w in (a, b):
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):  # NaN, inf fail
            raise ValidationError("weight vectors must be finite, nonnegative "
                                  "and sum to 1")
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
    return Measure1D(grid=mu.grid, potential=mu.potential - lam * mu.grid,
                     provenance={"source": "tilt", "lam": lam})


def _distinct(rows: np.ndarray, mu: np.ndarray) -> list[np.ndarray]:
    """The rows, in order, that are 1e-12 away from mu in l1 and from every
    row kept before them in max-abs.  Each block of rows is compared with
    the rows up to it in one max-abs array of at most 2^16 entries (or one
    row's worth, rows x n), so no rows x rows x n temporary is built."""
    count, n = rows.shape
    keep = ~(np.abs(rows - mu).sum(axis=1) < 1e-12)
    step = max(1, 2**16 // (count * n))
    for k0 in range(0, count, step):
        near = np.abs(rows[k0:k0 + step, None] - rows[None, :k0 + step]).max(axis=2) < 1e-12
        for k in range(k0, min(k0 + step, count)):
            keep[k] &= not (near[k - k0, :k] & keep[:k]).any()
    return list(rows[keep])


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
    line = _line_order(space)
    if line is not None:
        coord_fs.append(_line_potential(line, out[0], mu))
    else:
        try:
            coord_fs.append(kr_dual(space, out[0], mu).potential)
        except ValidationError:
            pass
    for f in coord_fs:
        for lam in (-2.0, -0.5, 0.5, 2.0):
            out.append(gibbs_tilt_discrete(mu, f, lam))
    uniq = _distinct(np.array(out), mu)
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
    """The witness family, W_1 (in closed form when the metric is a line's,
    ``_line_order``, else one LP) and H(nu | mu) per witness, and
    ``cost(g, idx, scales)``: the optimal cost of g(scale_k d), g convex, from
    ``family[idx[k]]`` to the base.  The TE code's only substrate branch:
    one LP per query on a finite space, mean(g(scale |q_mu - q_nu|)) on the
    line, where the base's quantiles and the gap of each witness with finite
    H are built once, up front, and each gap serves every g."""
    if isinstance(source, DiscreteSpace):
        if mu is None:
            raise ValidationError("discrete mode requires the base weights mu")
        base = _checked_weights(mu, source.n, "mu")
        family = witnesses if witnesses is not None else discrete_witnesses(
            source, base, max_witnesses=max_witnesses)
        if not family:
            raise DomainError("witness family is empty")

        def cost(g, idx, scales) -> np.ndarray:
            return transport_costs(source, [family[i] for i in idx], base,
                                   [g(scale * source.dist) for scale in scales])

        line = _line_order(source)
        if line is None:
            w1 = transport_costs(source, family, base, [source.dist] * len(family))
        else:  # sum of |F_nu - F_mu| x gap in line order, F the cumulative
            # mass of the marginals the LP would check and clean
            nus, mus, _ = _transport_problem(source.n, family, base,
                                             [source.dist] * len(family))
            order, gaps = line
            w1 = np.abs(np.cumsum(nus[:, order] - mus[:, order], axis=1)[:, :-1]) @ gaps
        w1 = w1.tolist()
        h = [_kl_discrete(np.asarray(nu), base) for nu in family]
    elif isinstance(source, Measure1D):
        family = witnesses if witnesses is not None else witnesses_1d(source)
        if not family:
            raise DomainError("witness family is empty")
        w1 = [w1_1d(source, nu) for nu in family]
        h = [_kl_1d(nu, source) for nu in family]
        # no mode reads a witness whose H is infinite
        q_base = _monotone_quantiles(source)
        gaps = [np.abs(q_base - _monotone_quantiles(nu)) if math.isfinite(hk) else None
                for nu, hk in zip(family, h)]

        def cost(g, idx, scales) -> np.ndarray:
            return np.array([float(np.mean(g(scale * gaps[i])))
                             for i, scale in zip(idx, scales)])
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
    if s is not None:
        s = _real(s, "s", "[1, inf)")
    max_witnesses = _count(max_witnesses, "max_witnesses", 0)
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
    off = ~np.eye(space.n, dtype=bool)
    return float(np.max(np.abs(g[:, None] - g[None, :])[off] / space.dist[off]))


def _psi1_value(space: DiscreteSpace, nu, mu, g: np.ndarray) -> float:
    lip = _lip_constant(space, g)
    if lip <= 1e-14:
        return 0.0
    return abs(log_laplace(nu, g, 1.0) - log_laplace(mu, g, 1.0)) / lip


def psi1_metric_bound(space: DiscreteSpace, nu, mu,
                      candidates: list[np.ndarray] | None = None,
                      *, refine: bool = True, seed: int = 0) -> Psi1Bound:
    """Lower bound on the exponential-moment Lipschitz metric

        sup_g |log int e^g dnu - log int e^g dmu| / Lip(g).

    The candidate set always contains eps-scalings of a KR-optimal
    potential (eps -> 0 recovers W_1, so the bound dominates W_1 up to
    the smallest eps used), plus optional local-search refinements.
    """
    nu, mu = _checked_weights(nu, space.n, "nu"), _checked_weights(mu, space.n, "mu")
    seed = _count(seed, "seed", 0)
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


def first_moment_constant(source, mode: str = "exact") -> ConstantEntry:
    """Best constant in the first-moment inequality
    int |f - med(f)| dmu <= 1/D over 1-Lipschitz f.

    Finite spaces (n <= ``laplace._VERTEX_CAP``): exact, two-sided, as the
    maximum over the vertices of the Lipschitz polytope (``_first_moment_exact``);
    with ``mode='heuristic'``, distance-cone candidates, an upper bound on D.
    1-D measures: f = x attains the supremum, since for 1-Lipschitz f and
    the median m of mu, int |f - med f| <= int |f - f(m)| <= int |x - m|;
    and int |x - m| dmu = m (2 F(m) - 1) - M(lo, m) + M(m, hi), with the
    cell-exact median, CDF F and partial moment M, so D is the best
    constant to rounding (README, "Bound-direction discipline").  Any
    other ``mode`` than "exact" or "heuristic" raises DomainError.
    """
    if mode not in ("exact", "heuristic"):
        raise DomainError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    if isinstance(source, DiscreteSpace) and mode == "exact":
        val, f = _first_moment_exact(mean_zero_lipschitz_vertices(
            source, source.weights), source.weights)
        direction = "two-sided"
        method = "exact maximum over the vertices of the Lipschitz polytope"
    elif isinstance(source, DiscreteSpace):  # distance-cone candidates
        val, f = 0.0, np.zeros(source.n)
        for j in range(source.n):
            for g in (source.dist[j], -source.dist[j]):
                med = weighted_median(g, source.weights)
                dev = float(np.dot(np.abs(g - med), source.weights))
                if dev > val:
                    val, f = dev, g - med
        direction = "upper"
        method = "candidate lower bound on sup int |f - med| (heuristic)"
    elif isinstance(source, Measure1D):
        m, (lo, hi) = source.median(), source.support
        val = float(m * (2.0 * source.cdf(m) - 1.0) - source.partial_moment(lo, m)
                    + source.partial_moment(m, hi))
        f, direction = "x", "upper"
        method = ("1-D candidate family {x, |x - x0|}; lower bound on "
                  "sup int |f - med| dmu (direction: lower on 1/D)")
    else:
        raise ValidationError("source must be a DiscreteSpace or Measure1D")
    return ConstantEntry(constant_id="D_FM", value=math.inf if val <= 1e-300 else 1.0 / val,
                         direction=direction, method=method,
                         witnesses={"one_over_d": val, "f": f})
