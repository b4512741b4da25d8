"""Batched and skipped LPs against the one-LP-at-a-time routes they replace.

Spaces are drawn like the suites draw them (``suites._random_space``) with
n <= 6, or as shortest-path metrics with n <= 8 for the Lipschitz
vertices; the LP stays the cross-check oracle on the test side.  The LP
matrices built from their index structure are checked against test-side
copies of the generic sparse builds they replace.
"""

from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from conc_toolkit import laplace, transport
from conc_toolkit.costs import CostSpec, phi_p_eval
from conc_toolkit.errors import ValidationError
from conc_toolkit.laplace import laplace_sup_discrete, mean_zero_lipschitz_vertices
from conc_toolkit.measures import DiscreteSpace
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


def test_discrete_witnesses_solve_only_the_dual_lp(monkeypatch):
    """The KR potential of the witness family needs the dual LP alone, not
    the primal transportation LP (the only one with equality rows)."""
    calls = []
    solve = transport.linprog

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", recording)
    _, space, _ = _space_and_family(3, 5)
    discrete_witnesses(space, space.weights)
    assert calls
    assert all(kw.get("A_eq") is None for kw in calls)


def _first_moment_per_pattern(space):
    """One LP per admissible sign pattern, strict first-wins maximum."""
    n, w = space.n, space.weights
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    a_ub = np.zeros((len(pairs), n))
    for row, (i, j) in enumerate(pairs):
        a_ub[row, i], a_ub[row, j] = 1.0, -1.0
    b_ub = np.array([space.dist[i, j] for i, j in pairs])
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
                      bounds=[sign_bounds[s] for s in pattern])
        assert res.success
        best = max(best, -res.fun)
    return best


@settings(max_examples=10, deadline=None)
@given(seed=seeds, n=sizes)
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
    """A vertex enumeration that fails, or returns a point outside the
    Lipschitz polytope, must not leave a silent hole in the exact value."""
    real = laplace.HalfspaceIntersection

    def failing(halfspaces, interior_point):
        raise laplace.QhullError("forced failure")

    def infeasible(halfspaces, interior_point):
        bad = real(halfspaces, interior_point).intersections.copy()
        bad[0, 0] += 1.0  # one diameter past its Lipschitz bound
        return SimpleNamespace(intersections=bad)

    space = _random_space(np.random.default_rng(3), 5)
    for fault in (failing, infeasible):
        monkeypatch.setattr(laplace, "HalfspaceIntersection", fault)
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


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=8),
       log_ratio=st.floats(min_value=0.0, max_value=3.0))
@example(seed=6, n=6, log_ratio=1e-14)  # distances equal to ~1e-14: qhull raised
@example(seed=0, n=7, log_ratio=5.960464477539063e-08)  # default LP broke a row by 1.5e-8
def test_vertex_maximum_equals_lp_maximum(seed, n, log_ratio):
    """max <f, c> over the Lipschitz polytope by LP (f_0 pinned to 0)
    equals the maximum over the enumerated vertices, for mean-zero c.
    The LP runs at feasibility tolerances of 1e-10: at HiGHS's defaults
    it may break a Lipschitz row by ~1e-8 and overshoot the maximum."""
    space = _scaled_metric(seed, n, 10.0**log_ratio)
    verts = mean_zero_lipschitz_vertices(space, space.weights)
    a_ub, b_ub = laplace._lipschitz_rows(space)
    rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        c = rng.normal(size=n)
        c -= c.mean()
        res = linprog(-c, A_ub=a_ub, b_ub=b_ub, method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10},
                      bounds=[(0.0, 0.0)] + [(None, None)] * (n - 1))
        assert res.success
        assert float(np.max(verts @ c)) == pytest.approx(-res.fun, rel=1e-9, abs=1e-12)


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
# LP matrices from their index structure, against the generic sparse builds
# they replace
# ---------------------------------------------------------------------------

def _kron_marginal_rows(k, n):
    """K blocks of row-sum then column-sum rows of an n x n plan, built
    with ``sparse.kron``."""
    ones = np.ones((1, n))
    eye = sparse.eye(n, format="csr")
    block = sparse.vstack([sparse.kron(eye, ones), sparse.kron(ones, eye)], format="csr")
    return sparse.kron(sparse.eye(k), block, format="csr")


def _captured_transport_lp(seed, k, n):
    """(A_eq, costs, result) of the one HiGHS LP that ``transport_costs``
    solves for K random marginals on a random n-point space."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    nus = [_random_probability(rng, n) for _ in range(k)]
    costs = np.array([space.dist ** rng.uniform(1.0, 2.0) for _ in range(k)])
    calls = []
    solve = transport.linprog

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append((kwargs["A_eq"], res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "linprog", recording)
        transport_costs(space, nus, space.weights, costs)
    a_eq, res = calls[-1]
    return a_eq, costs, res


blocks = st.integers(min_value=1, max_value=5)
points = st.integers(min_value=1, max_value=8)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, k=blocks, n=points)
def test_transport_matrix_equals_kron_build(seed, k, n):
    a_eq, _, _ = _captured_transport_lp(seed, k, n)
    old = _kron_marginal_rows(k, n)
    assert a_eq.shape == old.shape
    assert (a_eq != old).nnz == 0


@settings(max_examples=30, deadline=None)
@given(seed=seeds, k=blocks, n=points)
def test_reduced_costs_equal_sparse_transpose_product(seed, k, n):
    """Bit for bit, both on the LP's own duals and on random ones."""
    _, costs, res = _captured_transport_lp(seed, k, n)
    rng = np.random.default_rng(seed)
    a_eq = _kron_marginal_rows(k, n)
    for y in (res.eqlin.marginals, rng.normal(scale=10.0 ** rng.uniform(-3, 3),
                                             size=2 * n * k)):
        want = (costs.ravel() - a_eq.T @ y).reshape(k, n, n)
        assert np.array_equal(transport._reduced_costs(costs, y), want)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=points)
def test_lipschitz_rows_equal_coo_build(seed, n):
    space = _random_space(np.random.default_rng(seed), n)
    a_ub, b_ub = laplace._lipschitz_rows(space)
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    m = ii.size
    old = sparse.csr_matrix(
        (np.concatenate([np.ones(m), -np.ones(m)]),
         (np.concatenate([np.arange(m), np.arange(m)]), np.concatenate([ii, jj]))),
        shape=(m, n))
    assert a_ub.shape == old.shape
    assert (a_ub != old).nnz == 0
    assert np.array_equal(b_ub, space.dist[ii, jj])
