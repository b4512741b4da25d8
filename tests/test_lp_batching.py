"""Batched and skipped LPs against the one-LP-at-a-time routes they replace,
and bg-duality's array work against its loops.

Spaces are drawn like the suites draw them (``suites._random_space``) with
n <= 6, or as planar spaces and shortest-path metrics with n <= 8 for the
Lipschitz vertices; the LP stays the cross-check oracle on the test side
(a lone HiGHS LP for both transportation simplices, the inequality-form
dual LP on dense Lipschitz rows for ``kr_dual``'s c-transform), and so
does the qhull halfspace intersection the vertex walk replaced.  scipy is
a test-only dependency: no module of the package imports it.
"""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from conc_toolkit import laplace, suites, transport
from conc_toolkit.costs import CostSpec, phi_p_eval
from conc_toolkit.errors import ValidationError
from conc_toolkit.laplace import laplace_sup_discrete, mean_zero_lipschitz_vertices
from conc_toolkit.measures import DiscreteSpace, discrete_space_from_atoms
from conc_toolkit.suites import _random_probability, _random_space
from conc_toolkit.transport import (
    discrete_witnesses,
    first_moment_constant,
    kr_dual,
    transport_costs,
    wc_discrete_lp,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=2, max_value=6)


def _space_and_family(seed, n):
    """A random space, and witnesses: random measures and point masses."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    family = [_random_probability(rng, n) for _ in range(3)]
    family += [np.eye(n)[j] for j in range(n)]
    return rng, space, family


def _lipschitz_rows(space):
    """Dense (A_ub, b_ub) of the 1-Lipschitz constraints f(i) - f(j) <= d(i, j)
    over the ordered pairs i != j, row-major: row (i, j) holds +1 at i and
    -1 at j."""
    ii, jj = np.nonzero(~np.eye(space.n, dtype=bool))
    a_ub = np.zeros((ii.size, space.n))
    a_ub[np.arange(ii.size), ii] = 1.0
    a_ub[np.arange(ii.size), jj] = -1.0
    return a_ub, space.dist[ii, jj]


def _lipschitz_lp_max(space, c):
    """max <f, c> over the Lipschitz polytope with f_0 pinned to 0, by one
    HiGHS LP on ``_lipschitz_rows``.  It runs at feasibility tolerances of
    1e-10: at HiGHS's defaults it may break a Lipschitz row by ~1e-8 and
    overshoot the maximum."""
    a_ub, b_ub = _lipschitz_rows(space)
    res = linprog(-np.asarray(c, dtype=float), A_ub=a_ub, b_ub=b_ub, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10},
                  bounds=[(0.0, 0.0)] + [(None, None)] * (space.n - 1))
    assert res.success
    return -res.fun


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=sizes)
@example(seed=12083420, n=5)  # HiGHS stopped on a block LP basis with a reduced cost of -1e-7
def test_batched_transport_costs_equal_single_lps(seed, n):
    rng, space, family = _space_and_family(seed, n)
    scale = float(rng.uniform(0.2, 3.0))
    cost_mats = [space.dist, space.dist**2.0,
                 phi_p_eval(CostSpec(1.5), scale * space.dist)]
    nus = [nu for nu in family for _ in cost_mats]
    costs = [c for _ in family for c in cost_mats]
    batched = transport_costs(space, nus, space.weights, costs)
    single = [wc_discrete_lp(space, nu, space.weights, cost=c).cost
              for nu, c in zip(nus, costs)]
    assert batched.shape == (len(nus),)
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=sizes)
@example(seed=4768, n=4)  # near-collinear: HiGHS's default dual broke a row by 3e-8
def test_w1_lp_equals_kr_dual_and_vertex_maximum(seed, n):
    _, space, family = _space_and_family(seed, n)
    mu = space.weights
    verts = mean_zero_lipschitz_vertices(space, mu)
    for nu in family:
        kr = kr_dual(space, nu, mu)
        vertex_max = float(np.max(verts @ (nu - mu)))
        assert kr.primal == pytest.approx(kr.dual, abs=1e-9)
        assert kr.primal == pytest.approx(vertex_max, abs=1e-9)
        assert kr.dual == pytest.approx(vertex_max, abs=1e-9)


def test_kr_potential_needs_no_scipy():
    """``kr_dual``, ``wc_discrete_lp`` and the witness family on planar
    spaces (not lines) of 9, 17 and 200 points, on both sides of
    ``_SIMPLEX_MAX_N``, load no scipy module in a fresh interpreter."""
    src = str(Path(transport.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from conc_toolkit.measures import DiscreteSpace\n"
        "from conc_toolkit.transport import discrete_witnesses, kr_dual, wc_discrete_lp\n"
        "for n in (9, 17, 200):\n"
        "    pts = np.random.default_rng(3).normal(size=(n, 2))\n"
        "    space = DiscreteSpace(dist=np.linalg.norm(pts[:, None] - pts[None], axis=2),\n"
        "                          weights=np.full(n, 1 / n))\n"
        "    kr = kr_dual(space, np.eye(n)[4], space.weights)\n"
        "    plan = wc_discrete_lp(space, np.eye(n)[4], space.weights)\n"
        "    assert kr.gap <= 1e-12 and plan.cost == kr.primal\n"
        "    if n < 200:\n"
        "        assert discrete_witnesses(space, space.weights)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_no_module_of_the_package_imports_scipy():
    """A static check over every module of ``conc_toolkit``: no import
    statement names scipy, at module level or inside a function."""
    for path in Path(transport.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not [m for m in names if m.split(".")[0] == "scipy"], path.name


def _first_moment_per_pattern(space):
    """One LP per admissible sign pattern, strict first-wins maximum, at
    the tolerances of ``_lipschitz_lp_max``."""
    n, w = space.n, space.weights
    a_ub, b_ub = _lipschitz_rows(space)
    sign_bounds = {1: (0.0, None), 0: (0.0, 0.0), -1: (None, 0.0)}
    best = 0.0
    for pattern in product((1, 0, -1), repeat=n):
        sig = np.array(pattern)
        nonzero = sig[sig != 0]
        if nonzero.size and nonzero[0] == -1:
            continue
        plus, minus = w[sig >= 0].sum(), w[sig <= 0].sum()
        if plus < 0.5 - 1e-12 or minus < 0.5 - 1e-12:
            continue
        w_zero = w[sig == 0]
        if np.any((minus - w_zero >= 0.5 - 1e-12) | (plus - w_zero >= 0.5 - 1e-12)):
            continue
        res = linprog(-(sig * w), A_ub=a_ub, b_ub=b_ub, method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10},
                      bounds=[sign_bounds[s] for s in pattern])
        assert res.success
        best = max(best, -res.fun)
    return best


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=sizes)
@example(seed=22556712, n=4)  # HiGHS at default tolerances broke a row by 9.5e-9
def test_batched_first_moment_equals_per_pattern_loop(seed, n):
    """The maximum over the Lipschitz vertices against one LP per sign
    pattern in {+, 0, -}^n."""
    space = _random_space(np.random.default_rng(seed), n)
    entry = first_moment_constant(space)
    value = entry.witnesses["one_over_d"]
    assert value == pytest.approx(_first_moment_per_pattern(space),
                                  rel=1e-12, abs=1e-15)
    f = np.asarray(entry.witnesses["f"])
    assert np.max(f[:, None] - f[None, :] - space.dist) <= 1e-9
    assert np.dot(np.abs(f), space.weights) == pytest.approx(value, rel=1e-9)


def test_failed_vertex_enumeration_raises(monkeypatch):
    """A pivot solve that fails, or a walk that returns a point outside the
    Lipschitz polytope, must not leave a silent hole in the exact value."""
    real = laplace._lipschitz_walk

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    def outside(d):
        f = real(d)
        f[np.argmax(f[:, 1]), 1] += 1.0  # one diameter past f_1 - f_0 <= d(1, 0)
        return f

    space = _random_space(np.random.default_rng(3), 5)
    for module, name, fault in ((np.linalg, "inv", singular),
                                (laplace, "_lipschitz_walk", outside)):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            with pytest.raises(ValidationError, match="Lipschitz vertex enumeration failed"):
                first_moment_constant(space)


def _scaled_metric(seed: int, n: int, ratio: float) -> DiscreteSpace:
    """Shortest-path closure of random edge lengths in [1, ratio]: a metric
    whose distance ratio is at most ``ratio``."""
    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(0.0, np.log(ratio), size=(n, n)))
    d = np.triu(d, 1) + np.triu(d, 1).T
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return DiscreteSpace(dist=d, weights=rng.dirichlet(np.ones(n)))


def _planar_space(seed: int, n: int, shrink: float = 1.0) -> DiscreteSpace:
    """Random planar points under uniform weights, the first n // 2 of them
    shrunk towards the origin by ``shrink``."""
    pts = np.random.default_rng(seed).normal(size=(n, 2))
    pts[: n // 2] /= shrink
    return DiscreteSpace(dist=np.linalg.norm(pts[:, None] - pts[None], axis=2),
                         weights=np.full(n, 1.0 / n))


def _qhull_lipschitz_vertices(space: DiscreteSpace) -> np.ndarray:
    """The route the vertex walk replaced, for n >= 3: one qhull halfspace
    intersection of {f : f_i - f_j <= d_ij, f_0 = 0} on the distances
    divided by the diameter, run once more on them rounded to 1e-12 where
    qhull fails; vertices deduplicated on values rounded to 1e-9.  Raises
    QhullError, or ValidationError for a vertex outside the polytope."""
    from scipy.spatial import HalfspaceIntersection, QhullError

    diam = space.diameter
    a_ub, b_ub = _lipschitz_rows(space)
    rows = a_ub[:, 1:]
    for bounds in (b_ub / diam, np.round(b_ub / diam, 12)):
        try:
            g = HalfspaceIntersection(np.column_stack([rows, -bounds]),
                                      np.zeros(space.n - 1)).intersections
            break
        except QhullError as exc:
            failure = exc
    else:
        raise failure
    f = np.column_stack([np.zeros(len(g)), g])
    if not np.max(f[:, :, None] - f[:, None, :] - space.dist / diam) <= 1e-9:
        raise ValidationError("qhull returned a vertex outside the polytope")
    _, idx = np.unique(np.round(f, 9), axis=0, return_index=True)
    return f[idx] * diam


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=8), planar=st.booleans(),
       log_ratio=st.floats(min_value=0.0, max_value=3.0))
@example(seed=6, n=6, planar=False, log_ratio=1e-14)  # distances equal to ~1e-14
@example(seed=0, n=5, planar=False, log_ratio=1e-12)  # near-ties: representatives differ by 1e-12
@example(seed=0, n=8, planar=False, log_ratio=0.0)  # a metric with every distance 1
def test_walk_equals_qhull_where_qhull_answers(seed, n, planar, log_ratio):
    """The walk's vertices are qhull's, row for row, to the 1e-9 x diameter
    at which both tell vertices apart, wherever qhull answers: on planar
    spaces (general position) and on shortest-path metrics (degenerate:
    many triangle equalities, and near-ties where the ratio is ~1)."""
    from scipy.spatial import QhullError

    space = _planar_space(seed, n) if planar else _scaled_metric(seed, n, 10.0**log_ratio)
    try:
        want = _qhull_lipschitz_vertices(space)
    except (QhullError, ValidationError):
        assume(False)
    got = mean_zero_lipschitz_vertices(space, space.weights)
    want = laplace._recentred(want, space.weights)
    assert got.shape == want.shape
    np.testing.assert_allclose(got / space.diameter, want / space.diameter,
                               rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(("seed", "n"), [(4, 6), (7, 7)])
def test_all_vertices_at_distance_ratio_1e5(seed, n):
    """Half of a planar space shrunk by 1e5: qhull (scipy 1.17) returned 228
    of the 252 vertices at n = 6 and a point outside the polytope at n = 7.
    The walk returns all C(2n - 2, n - 1) of a metric in general position."""
    space = _planar_space(seed, n, shrink=1e5)
    verts = mean_zero_lipschitz_vertices(space, space.weights)
    assert len(verts) == math.comb(2 * n - 2, n - 1)
    assert np.max(verts[:, :, None] - verts[:, None, :] - space.dist) <= 1e-9 * space.diameter


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=8),
       log_ratio=st.floats(min_value=0.0, max_value=3.0))
@example(seed=6, n=6, log_ratio=1e-14)  # distances equal to ~1e-14: qhull raised
@example(seed=0, n=7, log_ratio=5.960464477539063e-08)  # default LP broke a row by 1.5e-8
def test_vertex_maximum_equals_lp_maximum(seed, n, log_ratio):
    """max <f, c> over the Lipschitz polytope by LP (f_0 pinned to 0)
    equals the maximum over the enumerated vertices, for mean-zero c."""
    space = _scaled_metric(seed, n, 10.0**log_ratio)
    verts = mean_zero_lipschitz_vertices(space, space.weights)
    rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        c = rng.normal(size=n)
        c -= c.mean()
        assert float(np.max(verts @ c)) == pytest.approx(_lipschitz_lp_max(space, c),
                                                         rel=1e-9, abs=1e-12)


def _laplace_sup_per_lambda(mu, lams, verts):
    """The max-shifted log-sum-exp over the vertices, one lambda at a time."""
    logw = np.log(np.maximum(mu, 1e-300))
    vals, arg_f = [], []
    for lam in lams:
        scores = lam * verts + logw[None, :]
        m = scores.max(axis=1, keepdims=True)
        ls = m[:, 0] + np.log(np.exp(scores - m).sum(axis=1))
        j = int(np.argmax(ls))
        vals.append(ls[j])
        arg_f.append(verts[j])
    return np.array(vals), np.array(arg_f)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=sizes)
def test_laplace_sup_equals_lambda_at_a_time(seed, n):
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    mu = space.weights
    verts = mean_zero_lipschitz_vertices(space, mu)
    lams = np.concatenate([[0.0], np.geomspace(0.05, 6.0, 9) * rng.uniform(0.5, 2.0)])
    vals, flag, arg_f = laplace_sup_discrete(space, mu, lams, vertices=verts)
    want_vals, want_f = _laplace_sup_per_lambda(mu, lams, verts)
    assert flag == "exact"
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(arg_f, want_f)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_laplace_sup_is_exact_at_the_vertex_cap(seed):
    """At n = 8 the sup enumerates the vertices itself and is exact."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, laplace._VERTEX_CAP)
    mu = space.weights
    lams = np.geomspace(0.05, 6.0, 9) * rng.uniform(0.5, 2.0)
    vals, flag, arg_f = laplace_sup_discrete(space, mu, lams)
    want_vals, want_f = _laplace_sup_per_lambda(
        mu, lams, mean_zero_lipschitz_vertices(space, mu))
    assert flag == "exact"
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(arg_f, want_f)


# ---------------------------------------------------------------------------
# the marginal rows of the transportation LP, built with ``sparse.kron``
# ---------------------------------------------------------------------------

def _kron_marginal_rows(k, n):
    """K blocks of row-sum then column-sum rows of an n x n plan, built
    with ``sparse.kron``."""
    ones = np.ones((1, n))
    eye = sparse.eye(n, format="csr")
    block = sparse.vstack([sparse.kron(eye, ones), sparse.kron(ones, eye)], format="csr")
    return sparse.kron(sparse.eye(k), block, format="csr")


def _block_lp(problem) -> dict:
    """linprog arguments of a cleaned problem's K plans as one LP, one
    block of marginal rows per plan."""
    nus, mu, costs = problem
    return {"c": costs.ravel(), "A_eq": _kron_marginal_rows(*nus.shape),
            "b_eq": np.concatenate([nus, np.broadcast_to(mu, nus.shape)], axis=1).ravel(),
            "bounds": (0, None)}


@settings(max_examples=30, deadline=None)
@given(seed=seeds, k=st.integers(min_value=1, max_value=5),
       n=st.integers(min_value=1, max_value=2 * transport._SIMPLEX_MAX_N))
def test_reduced_costs_equal_sparse_transpose_product(seed, k, n):
    """Bit for bit, both on the solvers' duals (the batch's up to
    ``_SIMPLEX_MAX_N``, the tree's above) and on random ones."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    nus = [_random_probability(rng, n) for _ in range(k)]
    costs = np.array([space.dist ** rng.uniform(1.0, 2.0) for _ in range(k)])
    duals = transport._transport_lps([(space, nus, space.weights, costs)])[0][3]
    a_eq = _kron_marginal_rows(k, n)
    for y in (duals.ravel(), rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=2 * n * k)):
        want = (costs.ravel() - a_eq.T @ y).reshape(k, n, n)
        assert np.array_equal(transport._reduced_costs(costs, y), want)


# ---------------------------------------------------------------------------
# the transportation simplices against lone HiGHS LPs
# ---------------------------------------------------------------------------

def _highs_costs(problem) -> np.ndarray:
    """Optimal costs of a cleaned problem's plans from one HiGHS LP, with
    presolve off and feasibility tolerances of 1e-10: with presolve and the
    default primal tolerance, HiGHS can return a plan with an entry near
    -1e-7 whose cost undercuts the optimum (n = 17, seed 787)."""
    res = linprog(method="highs", options={"presolve": False,
                                           "primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10},
                  **_block_lp(problem))
    assert res.success and res.x.min() >= -1e-12
    return transport._plans(problem, res.x)[1]


def _marginal(rng, n, kind):
    """A weight vector of one kind: random, with zero entries, a point
    mass, or uniform (whose partial sums tie with other uniform ones)."""
    if kind == "point":
        return np.eye(n)[rng.integers(n)]
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    w = _random_probability(rng, n)
    if kind == "zeros":
        w[rng.permutation(n)[:n // 2]] = 0.0
    return w / w.sum()


kinds = st.sampled_from(["random", "zeros", "point", "uniform"])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=40),
       nu_kinds=st.lists(kinds, min_size=1, max_size=4), mu_kind=kinds,
       scale=st.sampled_from([1e-3, 1.0, 1e6]))
@example(seed=3, n=19, nu_kinds=["point"], mu_kind="point", scale=1.0)
@example(seed=4, n=19, nu_kinds=["point", "random"], mu_kind="point", scale=1e6)
def test_simplex_costs_equal_lone_highs_lps(seed, n, nu_kinds, mu_kind, scale):
    """Both simplices through ``_transport_lps``, on either side of
    ``_SIMPLEX_MAX_N``, against HiGHS; the batch's own plans pass the
    certificate.  Point masses on both sides tie at nearly every start
    cell: a start that closed the row on every tie would shut the last
    row while columns are still open and leave them off the tree."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    mu = _marginal(rng, n, mu_kind)
    nus = [_marginal(rng, n, kind) for kind in nu_kinds]
    costs = [scale * space.dist ** rng.uniform(1.0, 3.0) for _ in nus]
    problem = transport._transport_problem(space, nus, mu, costs)
    if n <= transport._SIMPLEX_MAX_N:
        x, duals = transport._transport_simplex([problem])[0]
        assert transport._unsound(problem, x, duals) == [None] * len(nus)
    np.testing.assert_allclose(transport._transport_lps([(space, nus, mu, costs)])[0][1],
                               _highs_costs(problem), rtol=1e-12, atol=1e-15 * scale)


def test_certificate_names_each_fault():
    """``_unsound`` rejects, per plan, a NaN, a negative entry that keeps
    the marginals, duals with a negative reduced cost, and a feasible plan
    off complementary slackness with the optimal duals (the independent
    coupling); the simplex's own plans pass."""
    rng = np.random.default_rng(4)
    space = _random_space(rng, 4)
    nu = _random_probability(rng, 4)
    problem = transport._transport_problem(space, [nu] * 5, space.weights, [space.dist] * 5)
    x, duals = transport._transport_simplex([problem])[0]
    assert transport._unsound(problem, x, duals) == [None] * 5
    x, duals = x.copy(), duals.copy()
    x[1, 0, 0] = np.nan
    x[2] = np.outer(nu, space.weights)
    x[3] = x[2]
    t = x[3, 0, 0] + 1e-6  # one cycle: the marginals stay, entry (0, 0) is -1e-6
    x[3, [0, 1], [0, 1]] -= t
    x[3, [0, 1], [1, 0]] += t
    duals[4] += 5e-8  # every reduced cost falls by 1e-7
    why = transport._unsound(problem, x, duals)
    assert why[0] is None
    assert why[1].startswith("plan violates marginals (nan")
    assert why[2].startswith("plan breaks complementary slackness")
    assert why[3].startswith("plan has a negative entry")
    assert why[4].startswith("plan is not optimal")


def _mixed_problems(seed, sizes, n_costs):
    """One (space, nus, mu, costs) problem per size, on its own random
    space, with ``n_costs`` cost matrices each (W_1 first)."""
    rng = np.random.default_rng(seed)
    problems = []
    for n in sizes:
        space = _random_space(rng, n)
        nu = _random_probability(rng, n)
        costs = [space.dist] + [space.dist ** rng.uniform(1.0, 2.5)
                                for _ in range(n_costs - 1)]
        problems.append((space, [nu] * n_costs, space.weights, costs))
    return problems


@settings(max_examples=25, deadline=None)
@given(seed=seeds, sizes=st.lists(st.integers(min_value=1, max_value=8)
                                  | st.just(transport._SIMPLEX_MAX_N + 1),
                                  min_size=2, max_size=6),
       n_costs=st.integers(min_value=1, max_value=4))
@example(seed=787, sizes=[17, 17, 17, 17], n_costs=2)
def test_cross_space_batch_equals_per_problem_lps(seed, sizes, n_costs):
    """Problems of mixed sizes in one call, some of them above the batch's
    size limit: each one's costs are those of its lone HiGHS LP."""
    problems = _mixed_problems(seed, sizes, n_costs)
    batched = transport._transport_lps(problems)
    assert len(batched) == len(problems)
    for problem, (plans, costs, resid, duals) in zip(problems, batched):
        n = problem[0].n
        assert plans.shape == (n_costs, n, n) and duals.shape == (n_costs, 2 * n)
        assert np.all(resid <= 1e-9)
        np.testing.assert_allclose(costs, _highs_costs(transport._transport_problem(*problem)),
                                   rtol=1e-12, atol=1e-15)


def test_only_problems_above_the_size_limit_reach_the_tree(monkeypatch):
    """n = ``_SIMPLEX_MAX_N`` solves in the batch; one point more is one
    tree solve per plan, whose plan passes the same certificate."""
    calls = _recording_tree(monkeypatch)
    rng = np.random.default_rng(3)
    for n, want in ((transport._SIMPLEX_MAX_N, []),
                    (transport._SIMPLEX_MAX_N + 1, [transport._SIMPLEX_MAX_N + 1] * 2)):
        space = _random_space(rng, n)
        costs = transport_costs(space, [_random_probability(rng, n)] * 2, space.weights,
                                [space.dist, space.dist ** 2])
        assert calls == want
        assert costs[0] > 0 and costs[1] > 0
        calls.clear()


def _spoiled_simplex(monkeypatch, spoil):
    """``transport._transport_simplex`` with ``spoil(out)`` changing its
    (plans, duals) per problem in place."""
    real = transport._transport_simplex

    def spoiled(problems):
        out = real(problems)
        spoil(out)
        return out

    monkeypatch.setattr(transport, "_transport_simplex", spoiled)


def _recording_tree(monkeypatch, spoil=lambda plan, duals: None):
    """n of every ``_tree_simplex`` solve, each (plan, duals) passed to
    ``spoil(plan, duals)`` first."""
    real, calls = transport._tree_simplex, []

    def recording(a, b, c):
        plan, duals = real(a, b, c)
        calls.append(a.size)
        spoil(plan, duals)
        return plan, duals

    monkeypatch.setattr(transport, "_tree_simplex", recording)
    return calls


def test_only_the_unsound_problem_is_solved_alone(monkeypatch):
    """A batch plan whose duals break the reduced-cost certificate, by
    1e-7 against that plan's own max |c| but not against the 1e6-scaled
    costs of another problem, is solved alone: one plan of n = 4 goes to
    the tree simplex, the other plans keep their batch costs bit for bit,
    and a fault that persists raises."""
    problems = _mixed_problems(5, [3, 4, 5], 2)
    space, nus, mu, costs = problems[2]
    problems[2] = (space, nus, mu, [1e6 * c for c in costs])
    want = [_highs_costs(transport._transport_problem(*problem)) for problem in problems]
    kept = transport._transport_lps(problems)

    def spoil(out):
        out[1][1][1] += 5e-8  # plan 1 of the n = 4 problem: reduced costs fall by 1e-7

    def spoil_tree(plan, duals):
        duals += 5e-8

    _spoiled_simplex(monkeypatch, spoil)
    calls = _recording_tree(monkeypatch)
    out = transport._transport_lps(problems)
    assert calls == [4]
    for (_, costs, _, _), lone in zip(out, want):
        np.testing.assert_allclose(costs, lone, rtol=1e-12)
    for k, (_, costs, _, _) in enumerate(out):
        keep = [0, 1] if k != 1 else [0]
        np.testing.assert_array_equal(costs[keep], kept[k][1][keep])

    calls = _recording_tree(monkeypatch, spoil_tree)
    with pytest.raises(ValidationError, match="transport LP failed: plan is not optimal"):
        transport._transport_lps(problems)
    assert calls == [4]


def test_seed_12_batch_solves_its_unsound_instance_alone(monkeypatch):
    """te-jensen-pointwise at seed 12 hands all 400 instances to one
    ``_transport_lps`` call, which the batch solves with no tree solve;
    when instance 393's W_1 plan is spoiled (half its mass), that plan
    alone is solved by the tree simplex and every cost is unchanged."""
    batches = []
    real = suites._transport_lps
    monkeypatch.setattr(suites, "_transport_lps",
                        lambda problems: batches.append(problems) or real(problems))
    calls = _recording_tree(monkeypatch)
    summary = suites.run_suite("te-jensen-pointwise", seed=12).summary
    (batch,) = batches
    assert len(batch) == 400 and batch[393][0].n == 5
    assert calls == []
    clean = real(batch)

    def halve(out):
        out[393][0][0] *= 0.5

    _spoiled_simplex(monkeypatch, halve)
    out = real(batch)
    assert calls == [5]
    for (_, costs, _, _), (_, want, _, _) in zip(out, clean):
        np.testing.assert_allclose(costs, want, rtol=1e-12)
    assert suites.run_suite("te-jensen-pointwise", seed=12).summary == summary
    assert calls == [5] * 2


# ---------------------------------------------------------------------------
# bg-duality's array work against the loops it replaces
# ---------------------------------------------------------------------------

def _gibbs_tilt_one(mu, f, lam):
    """One Gibbs tilt at a time, as bg-duality built its witnesses."""
    logw = lam * f + np.log(np.maximum(mu, 1e-300))
    logw -= logw.max()
    w = np.exp(logw)
    w[mu <= 0] = 0.0
    return w / w.sum()


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=8),
       zeros=st.integers(min_value=0, max_value=2))
def test_gibbs_tilt_grid_equals_one_at_a_time(seed, n, zeros):
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    mu = space.weights.copy()
    mu[:min(zeros, n - 1)] = 0.0
    mu /= mu.sum()
    verts = mean_zero_lipschitz_vertices(space, space.weights)
    lams = np.array([0.25, 0.5, 1.0, 2.0, 4.0]) * rng.uniform(0.05, 20.0)
    grid = transport.gibbs_tilt_discrete(mu, verts[:, None, :], lams[:, None])
    assert grid.shape == (len(verts), lams.size, n)
    for f, row in zip(verts, grid):
        for lam, nu in zip(lams, row):
            assert np.array_equal(nu, _gibbs_tilt_one(mu, f, lam))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=6))
def test_gain_order_equals_the_sorted_list(seed, n):
    """One stable argsort over the gain array ranks the Gibbs tilts
    exactly as a stable sort of the list of (rate <f, nu - mu>, nu), one
    ``np.dot`` per tilt, does, ties included.  Rates up to 20 saturate
    tilts into near point masses, where gains tie to the last bits."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    mu = space.weights
    verts = mean_zero_lipschitz_vertices(space, mu)
    rate = rng.uniform(0.05, 20.0)
    tilts = transport.gibbs_tilt_discrete(
        mu, verts[:, None, :], np.array([0.25, 0.5, 1.0, 2.0, 4.0])[:, None] * rate)
    gains = np.array([rate * float(np.dot(f, nu - mu)) for f, row in zip(verts, tilts)
                      for nu in row])
    want = sorted(range(gains.size), key=lambda k: -gains[k])
    assert suites._gain_order(verts, tilts, mu, rate).tolist() == want


def _critical_rate_all_rows(space, mu, verts, lam_grid, rhs):
    """bg-duality's bisection scoring every lam row at every step."""
    def sup_vals(d):
        return laplace_sup_discrete(space, mu, lam_grid * d, vertices=verts)[0]

    lo, hi = 1e-3, 1.0
    while np.all(sup_vals(hi) <= rhs) and hi < 1e4:
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if np.all(sup_vals(mid) <= rhs):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=3, max_value=6),
       quadratic=st.booleans())
def test_critical_rate_equals_all_rows_bisection(seed, n, quadratic):
    """Failing rows first decides every step as the all-rows loop does."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    mu = space.weights
    verts = mean_zero_lipschitz_vertices(space, mu)
    lam_grid = np.concatenate([np.geomspace(0.05, 1.0, 17), np.linspace(1.2, 6.0, 25)])
    xs = np.linspace(0.0, 15.0 if quadratic else 50.0, 2049)
    a = rng.uniform(0.3, 2.0)
    base = laplace.LaplaceBound(phi_x=xs, phi_vals=a * xs**2 if quadratic else a * xs,
                                rate=1.0, eps=rng.uniform(0.0, 1.0),
                                delta=rng.uniform(0.0, 0.7))
    rhs = base.rhs_log(lam_grid)
    assert (suites._critical_rates([mu], [verts], rhs[None], lam_grid)[0]
            == _critical_rate_all_rows(space, mu, verts, lam_grid, rhs))


def _failing_first_rows_scored(space, mu, verts, lam_grid, rhs):
    """Rows scored per bisection step by the loop that scored the rows
    which failed last first, and all rows only if none of them failed."""
    failing, per_step = np.arange(0), []

    def fails(d):
        nonlocal failing
        scored = 0
        for rows in (failing, np.arange(lam_grid.size)):
            sup = laplace_sup_discrete(space, mu, lam_grid[rows] * d, vertices=verts)[0]
            scored += rows.size
            bad = rows[~(sup <= rhs[rows])]
            if bad.size:
                failing = bad
                per_step.append(scored)
                return True
        per_step.append(scored)
        return False

    lo, hi = 1e-3, 1.0
    while not fails(hi) and hi < 1e4:
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if fails(mid) else (mid, hi)
    return per_step


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_critical_rate_scores_each_row_until_certified(seed, monkeypatch):
    """Linear Phi, whose rhs is +oo above its slope: each step is one
    scorer call on the uncertified rows, never more rows than the
    failing-first loop scored, and a row with rhs = +oo is not scored after
    the first failing step, so the whole bisection scores far fewer rows."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, 5)
    mu = space.weights
    verts = mean_zero_lipschitz_vertices(space, mu)
    lam_grid = np.concatenate([np.geomspace(0.05, 1.0, 17), np.linspace(1.2, 6.0, 25)])
    xs = np.linspace(0.0, 50.0, 2049)
    base = laplace.LaplaceBound(phi_x=xs, phi_vals=rng.uniform(0.3, 2.0) * xs, rate=1.0,
                                eps=rng.uniform(0.0, 1.0), delta=rng.uniform(0.0, 0.7))
    rhs = base.rhs_log(lam_grid)
    assert np.isinf(rhs).any()
    old = _failing_first_rows_scored(space, mu, verts, lam_grid, rhs)
    calls = []

    def counting_scorer(mus, verts):
        score = laplace._sup_scorer(mus, verts)
        return lambda owner, lam: calls.append(lam.size) or score(owner, lam)

    monkeypatch.setattr(suites, "_sup_scorer", counting_scorer)
    d_crit = suites._critical_rates([mu], [verts], rhs[None], lam_grid)[0]
    assert d_crit == _critical_rate_all_rows(space, mu, verts, lam_grid, rhs)
    assert len(calls) == len(old)
    assert all(0 < new <= was for new, was in zip(calls, old))
    # the doubling ends on the first failing step, before the 40 halvings
    assert all(new <= np.isfinite(rhs).sum() for new in calls[-40:])
    assert sum(calls) < sum(old) / 2


# ---------------------------------------------------------------------------
# W_1 and its KR potential on a line metric against the LPs they skip
# ---------------------------------------------------------------------------

def _line_space(rng, n, zeros):
    """n atoms on a line in shuffled order, ``zeros`` of them weightless."""
    pos = rng.permutation(np.cumsum(rng.uniform(0.05, 1.0, n))) * rng.uniform(1e-3, 1e3)
    return discrete_space_from_atoms(pos, _with_zeros(rng, n, zeros))


def _with_zeros(rng, n, zeros):
    w = _random_probability(rng, n)
    w[rng.permutation(n)[:min(zeros, n - 1)]] = 0.0
    return w / w.sum()


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=9),
       zeros=st.integers(min_value=0, max_value=3))
def test_line_w1_equals_the_lp(seed, n, zeros):
    rng = np.random.default_rng(seed)
    space = _line_space(rng, n, zeros)
    mu = space.weights
    family = [_with_zeros(rng, n, zeros) for _ in range(4)] + list(np.eye(n))
    assert transport._line_order(space) is not None
    w1 = transport._witness_table(space, mu, family, 0)[1]
    lp = transport_costs(space, family, mu, [space.dist] * len(family))
    np.testing.assert_allclose(w1, lp, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=9),
       zeros=st.integers(min_value=0, max_value=3))
def test_line_potential_is_kr_optimal(seed, n, zeros):
    rng = np.random.default_rng(seed)
    space = _line_space(rng, n, zeros)
    mu = space.weights
    nu = _with_zeros(rng, n, zeros)
    f = transport._line_potential(transport._line_order(space), nu, mu)
    assert f[0] == 0.0
    a_ub, b_ub = _lipschitz_rows(space)
    assert np.all(a_ub @ f <= b_ub + 1e-12 * space.diameter)
    assert float(np.dot(f, nu - mu)) == pytest.approx(_lipschitz_lp_max(space, nu - mu),
                                                      rel=1e-12, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=40), line=st.booleans(),
       zeros=st.integers(min_value=0, max_value=3))
@example(seed=0, n=transport._SIMPLEX_MAX_N, line=False, zeros=2)
@example(seed=1, n=transport._SIMPLEX_MAX_N + 1, line=False, zeros=2)
@example(seed=2, n=40, line=True, zeros=3)
def test_kr_dual_equals_the_dual_lp(seed, n, line, zeros):
    """``kr_dual``'s c-transform of the certified plan's column duals
    against the inequality-form dual LP it replaced, on both sides of
    ``_SIMPLEX_MAX_N``, on planar and line metrics: the same value to
    1e-12, f(0) = 0, 1-Lipschitz to 1e-12 x diameter, no duality gap."""
    rng = np.random.default_rng(seed)
    space = _line_space(rng, n, zeros) if line else _planar_space(seed, n)
    mu = space.weights
    nu = _with_zeros(rng, n, zeros)
    kr = kr_dual(space, nu, mu)
    f = kr.potential
    assert kr.dual == pytest.approx(_lipschitz_lp_max(space, nu - mu), rel=1e-12, abs=1e-15)
    assert f[0] == 0.0
    a_ub, b_ub = _lipschitz_rows(space)
    assert np.all(a_ub @ f <= b_ub + 1e-12 * space.diameter)
    assert kr.gap <= 1e-12 * (1.0 + kr.primal)


@pytest.mark.parametrize("seed", range(5))
def test_line_order_only_on_line_metrics(seed):
    rng = np.random.default_rng(seed)
    assert transport._line_order(_random_space(rng, int(rng.integers(3, 9)))) is None
    space = _line_space(rng, 6, 0)
    order, gaps = transport._line_order(space)
    assert np.all(gaps > 0)
    off = space.dist.copy()
    i, j = order[2], order[3]  # neighbours: no triangle runs through the pair
    off[i, j] = off[j, i] = off[i, j] + 1e-6 * space.diameter
    assert transport._line_order(DiscreteSpace(dist=off, weights=space.weights)) is None


def _sup_batch(seed):
    """Mixed point counts 2-8 with unequal vertex sets: planar and line
    spaces (the line's polytope has fewer vertices), some with a weightless
    point, and leading subsets of a vertex set."""
    rng = np.random.default_rng(seed)
    spaces, mus, verts = [], [], []
    for n in rng.permutation(np.arange(2, 9)):
        for space in (_random_space(rng, n),
                      discrete_space_from_atoms(rng.normal(size=n), _random_probability(rng, n))):
            mu = space.weights.copy()
            if rng.random() < 0.3:
                mu[0] = 0.0
                mu /= mu.sum()
            v = mean_zero_lipschitz_vertices(space, mu)
            spaces += [space, space]
            mus += [mu, mu]
            verts += [v, v[:int(rng.integers(1, len(v) + 1))]]
    return rng, spaces, mus, verts


def _lse_sup(mu, lam, verts):
    """max over the vertices of log sum_i mu_i exp(lam f_i), by one
    max-shifted log-sum-exp over the (lam, vertex, point) score array."""
    scores = lam[:, None, None] * verts[None] + np.log(np.maximum(mu, 1e-300))
    m = scores.max(axis=2, keepdims=True)
    ls = m[..., 0] + np.log(np.exp(scores - m).sum(axis=2))
    return ls[np.arange(lam.size), np.argmax(ls, axis=1)]


@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_sup_scorer_equals_laplace_sup_discrete(seed):
    """The lockstep's batched scorer, one log-sum-exp per point count over
    padded vertex sets, equals one laplace_sup_discrete call per instance
    bit for bit, for any owner order and any lam, 0 included, and both equal
    the (lam, vertex, point) log-sum-exp written out here."""
    rng, spaces, mus, verts = _sup_batch(seed)
    owner = rng.integers(0, len(mus), size=400)
    lam = rng.uniform(0.0, 12.0, size=400) * (rng.random(400) < 0.95)
    got = laplace._sup_scorer(mus, verts)(owner, lam)
    assert len({len(v) for v, s in zip(verts, spaces) if s.n == 6}) > 1
    for k, (space, mu, v) in enumerate(zip(spaces, mus, verts)):
        mine = owner == k
        want = laplace_sup_discrete(space, mu, lam[mine], vertices=v)[0]
        assert np.array_equal(got[mine], want)
        assert np.array_equal(want, _lse_sup(mu, lam[mine], v))


@settings(max_examples=6, deadline=None)
@given(seed=seeds, size=st.integers(min_value=2, max_value=12))
def test_lockstep_critical_rates_equal_one_at_a_time(seed, size):
    """Bisections in lockstep, which end at different steps (hi doubles a
    different number of times), give each instance the rate its own
    all-rows bisection gives."""
    rng = np.random.default_rng(seed)
    lam_grid = np.concatenate([np.geomspace(0.05, 1.0, 17), np.linspace(1.2, 6.0, 25)])
    spaces, verts, rhs = [], [], []
    for _ in range(size):
        space = _random_space(rng, int(rng.integers(3, 7)))
        quadratic = rng.random() < 0.5
        xs = np.linspace(0.0, 15.0 if quadratic else 50.0, 2049)
        a = rng.uniform(0.3, 2.0) * 10.0 ** rng.uniform(-2.0, 2.0)
        base = laplace.LaplaceBound(phi_x=xs, phi_vals=a * xs**2 if quadratic else a * xs,
                                    rate=1.0, eps=rng.uniform(0.0, 1.0),
                                    delta=rng.uniform(0.0, 0.7))
        spaces.append(space)
        verts.append(mean_zero_lipschitz_vertices(space, space.weights))
        rhs.append(base.rhs_log(lam_grid))
    rates = suites._critical_rates([s.weights for s in spaces], verts, np.array(rhs),
                                   lam_grid)
    for space, v, r, got in zip(spaces, verts, rhs, rates):
        assert got == _critical_rate_all_rows(space, space.weights, v, lam_grid, r)


def _distinct_loop(rows, mu):
    """The witness dedup as a loop over the kept list."""
    uniq = []
    for w in rows:
        if np.abs(w - mu).sum() < 1e-12:
            continue
        if any(np.abs(w - u).max() < 1e-12 for u in uniq):
            continue
        uniq.append(w)
    return uniq


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=9))
def test_witness_dedup_equals_the_loop(seed, n):
    """Planted repeats, near repeats (5e-13 and 2e-12 apart) and copies of
    mu: one pairwise matrix keeps the rows the loop keeps, in its order."""
    rng = np.random.default_rng(seed)
    mu = _random_probability(rng, n)
    base = [_random_probability(rng, n) for _ in range(6)] + [mu, mu + 4e-13]
    rows = [base[int(rng.integers(len(base)))] + rng.choice([0.0, 5e-13, 2e-12])
            for _ in range(int(rng.integers(1, 30)))]
    got = transport._distinct(np.array(rows), mu)
    want = _distinct_loop(rows, mu)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n, count", [(200, 100), (1500, 60)])
def test_witness_dedup_in_blocks_equals_the_loop(n, count):
    """Rows x n past 2^16 entries: the rows are compared a few (3 at n =
    200) or one (at n = 1500) at a time, and keep what the loop keeps."""
    rng = np.random.default_rng(n)
    mu = _random_probability(rng, n)
    base = [_random_probability(rng, n) for _ in range(20)] + [mu]
    rows = [base[int(rng.integers(len(base)))] + rng.choice([0.0, 5e-13, 2e-12])
            for _ in range(count)]
    got = transport._distinct(np.array(rows), mu)
    want = _distinct_loop(rows, mu)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_witnesses_of_200_points_in_bounded_memory():
    """discrete_witnesses at n = 200 (624 candidate rows) peaks at a few MB,
    not at the rows x rows x n pairwise array (about 0.6 GB)."""
    rng = np.random.default_rng(0)
    space = discrete_space_from_atoms(rng.normal(size=200), np.full(200, 1 / 200))
    tracemalloc.start()
    try:
        uniq = discrete_witnesses(space, space.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(uniq) > 3 * 200
    assert peak < 32e6
