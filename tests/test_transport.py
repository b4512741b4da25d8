import math
from itertools import combinations

import numpy as np
import pytest

from conc_toolkit.costs import CostSpec, phi_p_eval
from conc_toolkit.errors import DomainError, UnsupportedSizeError, ValidationError
from conc_toolkit.measures import (
    _SPACE_TOL,
    Measure1D,
    atomize_1d,
    build_discrete_space,
    build_measure_1d,
    derive_measure,
    discrete_space_from_atoms,
)
from conc_toolkit.transport import (
    divergences,
    first_moment_constant,
    kr_dual,
    psi1_metric_bound,
    te_constant_estimate,
    transport_costs,
    w1_1d,
    w1_discrete,
    wc_discrete_lp,
    wc_monotone_1d,
    weighted_median,
    witnesses_1d,
    ws_1d,
)


def random_space(rng, n, dim=2):
    pts = rng.normal(size=(n, dim))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    w = rng.random(n) + 0.05
    w /= w.sum()
    return build_discrete_space(d, w)


def random_probability(rng, n):
    w = rng.random(n) + 0.01
    return w / w.sum()


def transport_bruteforce(cost, nu, mu):
    """Independent oracle: enumerate all basic solutions of the
    transportation polytope (bases = spanning forests with n + m - 1 cells)
    and take the cheapest feasible one."""
    n, m = cost.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    b = np.concatenate([nu, mu])
    best = math.inf
    for basis in combinations(cells, n + m - 1):
        a = np.zeros((n + m, n + m - 1))
        for k, (i, j) in enumerate(basis):
            a[i, k] = 1.0
            a[n + j, k] = 1.0
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < n + m - 1:
            continue
        if np.max(np.abs(a @ sol - b)) > 1e-9 or sol.min() < -1e-9:
            continue
        val = sum(cost[i, j] * x for (i, j), x in zip(basis, sol))
        best = min(best, val)
    return best


@pytest.fixture(scope="module")
def gamma1():
    return build_measure_1d(preset="gamma_p", p=1.0)


@pytest.fixture(scope="module")
def gamma2():
    return build_measure_1d(preset="gamma_p", p=2.0)


class TestDiscreteLP:
    def test_two_point_swap(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        plan = wc_discrete_lp(s, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert plan.cost == pytest.approx(1.0, abs=1e-12)
        assert plan.marginal_residual < 1e-9

    def test_identity_zero_cost(self):
        rng = np.random.default_rng(1)
        s = random_space(rng, 5)
        plan = wc_discrete_lp(s, s.weights, s.weights)
        assert plan.cost == pytest.approx(0.0, abs=1e-12)

    def test_matches_bruteforce_vertices(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = random_space(rng, 4)
            nu = random_probability(rng, 4)
            plan = wc_discrete_lp(s, nu, s.weights)
            brute = transport_bruteforce(s.dist, nu, s.weights)
            assert plan.cost == pytest.approx(brute, abs=1e-9)

    def test_infeasible_marginals_rejected(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="infeasible"):
            wc_discrete_lp(s, np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", ["nan-nu", "inf-cost", "nan-cost"])
    def test_non_finite_input_rejected(self, bad):
        rng = np.random.default_rng(3)
        s = random_space(rng, 4)
        nu = random_probability(rng, 4)
        cost = s.dist.copy()
        if bad == "nan-nu":
            nu[1] = np.nan
        else:
            cost[0, 2] = np.inf if bad == "inf-cost" else np.nan
        with pytest.raises(ValidationError, match="must be finite"):
            wc_discrete_lp(s, nu, s.weights, cost=cost)
        with pytest.raises(ValidationError, match="must be finite"):
            transport_costs(s, [s.weights, nu], s.weights, [s.dist, cost])

    def test_off_marginal_plan_is_rejected(self, monkeypatch):
        """A problem above the batch's size limit is solved by the tree
        simplex, under the same certificate: a plan of it off its marginals
        raises."""
        from conc_toolkit import transport

        rng = np.random.default_rng(2)
        n = transport._SIMPLEX_MAX_N + 1
        s = random_space(rng, n)
        nu = random_probability(rng, n)
        plan = wc_discrete_lp(s, nu, s.weights)
        assert plan.marginal_residual <= 1e-9
        real = transport._tree_simplex

        def halved(a, b, c):
            x, duals = real(a, b, c)
            return 0.5 * x, duals

        monkeypatch.setattr(transport, "_tree_simplex", halved)
        with pytest.raises(ValidationError, match="transport LP failed: plan violates marginals"):
            wc_discrete_lp(s, nu, s.weights)


class TestKRDual:
    def test_two_point(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        res = kr_dual(s, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert res.dual == pytest.approx(1.0, abs=1e-10)
        assert res.gap < 1e-8
        assert res.potential[1] - res.potential[0] == pytest.approx(1.0, abs=1e-9)

    def test_identity(self):
        rng = np.random.default_rng(2)
        s = random_space(rng, 6)
        res = kr_dual(s, s.weights, s.weights)
        assert res.primal == pytest.approx(0.0, abs=1e-12)
        assert res.gap < 1e-8

    def test_gap_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            s = random_space(rng, n)
            nu = random_probability(rng, n)
            res = kr_dual(s, nu, s.weights)
            assert res.gap <= 1e-8
            # the potential is 1-Lipschitz up to solver tolerance
            lip = np.max(np.abs(res.potential[:, None] - res.potential[None, :])
                         - s.dist)
            assert lip <= 1e-8

    def test_space_at_the_triangle_slack(self):
        """DiscreteSpace accepts a triangle inequality broken by up to 1e-9,
        and so does kr_dual: on d(0, 2) = 2 + 5e-10 > d(0, 1) + d(1, 2) the
        c-transform of the plan's duals meets the plan's cost and breaks the
        Lipschitz bound by that 5e-10."""
        d = np.array([[0.0, 1.0, 2.0 + 5e-10], [1.0, 0.0, 1.0], [2.0 + 5e-10, 1.0, 0.0]])
        s = build_discrete_space(d, np.full(3, 1.0 / 3.0))
        res = kr_dual(s, np.eye(3)[0], np.eye(3)[2])
        assert res.primal == pytest.approx(2.0 + 5e-10, abs=1e-15)
        assert res.gap <= 1e-15
        lip = np.max(res.potential[:, None] - res.potential[None, :] - s.dist)
        assert 0.0 < lip <= _SPACE_TOL

    def test_potential_off_lipschitz_raises(self, monkeypatch):
        """Without the triangle slack, the same space's potential breaks the
        Lipschitz bound by 5e-10 > 1e-12 x diameter, and kr_dual says so."""
        d = np.array([[0.0, 1.0, 2.0 + 5e-10], [1.0, 0.0, 1.0], [2.0 + 5e-10, 1.0, 0.0]])
        s = build_discrete_space(d, np.full(3, 1.0 / 3.0))
        from conc_toolkit import transport
        monkeypatch.setattr(transport, "_SPACE_TOL", 0.0)
        with pytest.raises(ValidationError, match="breaks a Lipschitz bound"):
            kr_dual(s, np.eye(3)[0], np.eye(3)[2])


class TestW11D:
    def test_identity(self, gamma2):
        assert w1_1d(gamma2, gamma2) == pytest.approx(0.0, abs=1e-12)

    def test_translation(self, gamma2):
        for t in (0.5, 1.0, 3.0):
            nu = derive_measure(gamma2, "translate", t=t)
            assert w1_1d(gamma2, nu) == pytest.approx(t, abs=1e-6)

    def test_against_lp_atomization(self, gamma1, gamma2):
        pos1, w1 = atomize_1d(gamma1, 200)
        pos2, w2 = atomize_1d(gamma2, 200)
        pos = np.concatenate([pos1, pos2])
        d = np.abs(pos[:, None] - pos[None, :])
        d = np.maximum(d, d.T)
        np.fill_diagonal(d, 0.0)
        # atoms can coincide in principle; nudge the metric if so
        if np.any((d + np.eye(400)) <= 0):
            pytest.skip("coincident atoms")
        s = build_discrete_space(d, np.concatenate([w1, w2]) / 2.0)
        nu = np.concatenate([w1, np.zeros(200)])
        mu = np.concatenate([np.zeros(200), w2])
        lp_val = wc_discrete_lp(s, nu, mu).cost
        assert w1_1d(gamma1, gamma2) == pytest.approx(lp_val, abs=1e-3)


class TestMonotoneCost:
    def test_same_measure(self, gamma2):
        assert wc_monotone_1d(gamma2, gamma2, CostSpec(2.0), 1.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_translation_quadratic(self, gamma2):
        nu = derive_measure(gamma2, "translate", t=1.0)
        val = wc_monotone_1d(gamma2, nu, CostSpec(2.0), 1.0)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_translation_p1(self, gamma2):
        nu = derive_measure(gamma2, "translate", t=3.0)
        val = wc_monotone_1d(gamma2, nu, CostSpec(1.0), 1.0)
        assert val == pytest.approx(2.5, abs=1e-9)

    def test_ws_translation(self, gamma2):
        nu = derive_measure(gamma2, "translate", t=2.0)
        assert ws_1d(gamma2, nu, 2.0) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("call", [
        w1_1d,
        lambda mu, nu: ws_1d(mu, nu, 1.0),
        lambda mu, nu: wc_monotone_1d(mu, nu, CostSpec(2.0), 1.0),
    ], ids=["w1_1d", "ws_1d", "wc_monotone_1d"])
    def test_argument_that_is_not_a_measure_raises(self, gamma2, call, slot):
        args = [gamma2, gamma2]
        args[slot] = "x"
        with pytest.raises(ValidationError, match="two Measure1D inputs"):
            call(*args)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_ws_non_finite_order_rejected(self, gamma2, s):
        # W_oo of identical measures is 0; the monotone route read it as 1
        with pytest.raises(DomainError):
            ws_1d(gamma2, gamma2, s)


class TestDivergences:
    def test_discrete_example(self):
        rep = divergences(np.array([0.75, 0.25]), np.array([0.5, 0.5]))
        assert rep.h_nu_mu == pytest.approx(0.130812, abs=1e-6)
        assert rep.d_tv == pytest.approx(0.25, abs=1e-12)

    def test_identity(self):
        w = np.array([0.3, 0.7])
        rep = divergences(w, w)
        assert rep.h_nu_mu == 0.0
        assert rep.d_tv == 0.0

    def test_mutually_singular(self):
        rep = divergences(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert math.isinf(rep.h_nu_mu)
        assert rep.d_tv == pytest.approx(1.0)

    def test_1d_restriction_entropy(self, gamma2):
        # H(mu|_A / p | mu) = log(1/p)
        half = derive_measure(gamma2, "restrict", a=0.0, b=np.inf)
        rep = divergences(half, gamma2)
        assert rep.h_nu_mu == pytest.approx(math.log(2.0), abs=1e-9)
        assert math.isinf(rep.h_mu_nu)
        assert rep.d_tv == pytest.approx(0.5, abs=1e-6)

    def test_1d_translation_entropy_gaussian(self, gamma2):
        # H(N(t,1) | N(0,1)) = t^2 / 2
        nu = derive_measure(gamma2, "translate", t=0.5)
        rep = divergences(nu, gamma2)
        assert rep.h_nu_mu == pytest.approx(0.125, abs=1e-4)

    def test_pinsker_discrete(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            a = random_probability(rng, n)
            b = random_probability(rng, n)
            rep = divergences(a, b)
            assert rep.d_tv <= math.sqrt(0.5 * rep.h_nu_mu) + 1e-12

    @pytest.mark.parametrize("nu", [[2.0, 2.0], [1.5, -0.5], [math.nan, 1.0],
                                    [math.inf, 0.0], [0.5, 0.5 + 1e-8]],
                             ids=["sum-4", "negative", "nan", "inf", "sum-off-1e-8"])
    def test_bad_weight_vector_rejected(self, nu):
        """No negative entropy (H = -1.386 for [2, 2] against [0.5, 0.5]) and
        no NaN: such weights raise, as does a sum off 1 by more than the
        1e-9 the LPs allow, on either side."""
        for a, b in ((nu, [0.5, 0.5]), ([0.5, 0.5], nu)):
            with pytest.raises(ValidationError, match="weight vectors must be"):
                divergences(np.array(a), np.array(b))
        rep = divergences(np.array([0.5, 0.5 + 1e-10]), np.array([0.5, 0.5]))
        assert rep.h_nu_mu > 0.0


    def test_measure_paired_with_weights_rejected(self, gamma2):
        """A Measure1D pairs only with a Measure1D, in either order."""
        for a, b in ((gamma2, np.array([0.5, 0.5])), (np.array([0.5, 0.5]), gamma2)):
            with pytest.raises(ValidationError, match="not one of each"):
                divergences(a, b)

    def test_two_dimensional_weights_rejected(self):
        w = np.full((2, 2), 0.25)
        with pytest.raises(ValidationError, match="1-D"):
            divergences(w, w)
        with pytest.raises(ValidationError, match="numbers only"):
            divergences(np.array(["a", "b"]), np.array([0.5, 0.5]))


class TestTEEstimates:
    def test_two_point_weak_te_example(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        entry = te_constant_estimate(
            s, "wTE(1,p)", p=1.0, mu=s.weights,
            witnesses=[np.array([1.0, 0.0])])
        # H = log 2, W1 = 1/2 -> (log 2 + 1) / (1/2)
        assert entry.value == pytest.approx((math.log(2.0) + 1.0) * 2.0, abs=1e-9)
        assert entry.direction == "upper"

    def test_degenerate_witnesses_rejected(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="degenerate"):
            te_constant_estimate(s, "wTE(1,p)", p=1.0, mu=s.weights,
                                 witnesses=[s.weights.copy()])

    def test_te1_phi_translation_decreasing(self, gamma1):
        vals = []
        for t in (0.5, 1.0, 2.0):
            nu = derive_measure(gamma1, "translate", t=t)
            entry = te_constant_estimate(gamma1, "TE(1,phi_p)", p=1.0,
                                         witnesses=[nu])
            vals.append(entry.value)
        assert all(v > 0 and math.isfinite(v) for v in vals)
        assert vals[0] >= vals[1] >= vals[2]

    def test_te_phi_p_1_bisection_consistency(self):
        rng = np.random.default_rng(5)
        s = random_space(rng, 4)
        spec = CostSpec(1.5)
        entry = te_constant_estimate(s, "TE(phi_p,1)", p=1.5, mu=s.weights,
                                     max_witnesses=8)
        d_star = entry.value
        # at the reported constant every witness satisfies the inequality
        for nu in [np.array([1.0, 0, 0, 0]), random_probability(rng, 4)]:
            h = divergences(nu, s.weights).h_nu_mu
            cost = phi_p_eval(spec, d_star * 0.999 * s.dist)
            w = wc_discrete_lp(s, nu, s.weights, cost=cost).cost
            assert w <= h + 1e-6 or not math.isfinite(h)

    def test_te_phi_p_1_line_builds_each_gap_once(self, gamma2, monkeypatch):
        family = witnesses_1d(gamma2)
        calls = []
        quantile_upper = Measure1D.quantile_upper

        def counting(self, u):
            calls.append(self)
            return quantile_upper(self, u)

        monkeypatch.setattr(Measure1D, "quantile_upper", counting)
        te_constant_estimate(gamma2, "TE(phi_p,1)", p=1.5, witnesses=family)
        # one monotone gap (two quantile_upper calls) per witness, however
        # many bisection steps the witness takes
        assert 0 < len(calls) <= 2 * len(family)

    def test_te_phi_p_1_line_feasible_for_every_witness(self, gamma1):
        spec = CostSpec(1.5)
        family = witnesses_1d(gamma1)
        entry = te_constant_estimate(gamma1, "TE(phi_p,1)", p=1.5,
                                     witnesses=family)
        d_star = entry.value
        assert 0 < d_star < math.inf
        for nu in family:
            h = divergences(nu, gamma1).h_nu_mu
            if math.isfinite(h) and w1_1d(gamma1, nu) > 1e-12:
                assert wc_monotone_1d(gamma1, nu, spec, d_star) <= h
        # the binding witness is infeasible just above the constant
        binding = family[entry.witnesses["witness_index"]]
        assert (wc_monotone_1d(gamma1, binding, spec, 1.01 * d_star)
                > entry.witnesses["H"])

    @pytest.mark.parametrize("p, s", [(1.0, 1.0), (2.0, 2.0), (1.5, 3.0)])
    def test_te_sp_line_is_min_over_witnesses(self, gamma2, p, s):
        family = witnesses_1d(gamma2)
        entry = te_constant_estimate(gamma2, "TE(s,p)", p=p, s=s,
                                     witnesses=family)
        expected = math.inf
        for nu in family:
            h = divergences(nu, gamma2).h_nu_mu
            if not math.isfinite(h) or w1_1d(gamma2, nu) <= 1e-12:
                continue
            expected = min(expected, h ** (1.0 / p) / ws_1d(gamma2, nu, s))
        assert math.isfinite(expected)
        assert entry.value == pytest.approx(expected, rel=1e-14)

    def test_te_sp_mode(self):
        rng = np.random.default_rng(9)
        s = random_space(rng, 5)
        entry = te_constant_estimate(s, "TE(s,p)", p=2.0, s=2.0, mu=s.weights,
                                     max_witnesses=10)
        assert entry.value > 0
        assert math.isfinite(entry.value)


class TestJensenPointwise:
    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0])
    def test_cost_dominates_phi_of_w1(self, p):
        rng = np.random.default_rng(int(p * 100))
        spec = CostSpec(p)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            s = random_space(rng, n)
            nu = random_probability(rng, n)
            scale = float(rng.uniform(0.2, 3.0))
            w1 = w1_discrete(s, nu, s.weights)
            cost = phi_p_eval(spec, scale * s.dist)
            wc = wc_discrete_lp(s, nu, s.weights, cost=cost).cost
            assert wc >= phi_p_eval(spec, scale * w1) - 1e-9


class TestPsi1:
    def test_identical_measures(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        assert psi1_metric_bound(s, s.weights, s.weights).value == 0.0

    def test_two_point_swap_equals_w1(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        nu, mu = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        bound = psi1_metric_bound(s, nu, mu)
        assert bound.value == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_on_shared_candidates(self):
        rng = np.random.default_rng(13)
        s = random_space(rng, 5)
        nu = random_probability(rng, 5)
        cands = [rng.normal(size=5) for _ in range(8)] + [s.dist[0], -s.dist[2]]
        b1 = psi1_metric_bound(s, nu, s.weights, candidates=cands, refine=False)
        b2 = psi1_metric_bound(s, s.weights, nu, candidates=cands, refine=False)
        assert b1.value == pytest.approx(b2.value, rel=1e-12)

    def test_dominates_w1(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            s = random_space(rng, n)
            nu = random_probability(rng, n)
            w1 = w1_discrete(s, nu, s.weights)
            bound = psi1_metric_bound(s, nu, s.weights).value
            assert bound >= w1 - 1e-3


class TestFirstMoment:
    def test_two_point(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        entry = first_moment_constant(s)
        assert entry.witnesses["one_over_d"] == pytest.approx(0.5, abs=1e-9)
        assert entry.value == pytest.approx(2.0, abs=1e-8)
        assert entry.direction == "two-sided"

    def test_point_mass_sentinel(self):
        s = build_discrete_space(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        entry = first_moment_constant(s)
        assert entry.witnesses["one_over_d"] == pytest.approx(0.0, abs=1e-12)
        assert math.isinf(entry.value)

    def test_zero_atom_bridges_median(self):
        # masses (0.4, 0.2, 0.4) on a path: the optimum needs the middle
        # atom pinned at zero so its mass serves both sides of the median
        idx = np.arange(3)
        d = np.abs(idx[:, None] - idx[None, :]).astype(float)
        s = build_discrete_space(d, np.array([0.4, 0.2, 0.4]))
        entry = first_moment_constant(s)
        assert entry.witnesses["one_over_d"] == pytest.approx(0.8, abs=1e-8)

    def test_size_cap(self):
        rng = np.random.default_rng(23)
        s = random_space(rng, 9)
        with pytest.raises(UnsupportedSizeError, match="heuristic"):
            first_moment_constant(s)
        entry = first_moment_constant(s, mode="heuristic")
        assert entry.direction == "upper"

    @pytest.mark.parametrize("mode", ["Exact", "lp", ""])
    def test_unknown_mode_rejected(self, mode, gamma1):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        for source in (s, gamma1):
            with pytest.raises(DomainError, match="'exact' or 'heuristic'"):
                first_moment_constant(source, mode=mode)

    def test_gamma1_coordinate_candidate(self, gamma1):
        entry = first_moment_constant(gamma1)
        # f = x gives int |x| dmu = 1 for the two-sided exponential
        assert entry.witnesses["one_over_d"] >= 1.0 - 1e-8
        assert entry.value <= 1.0 + 1e-6

    def test_w1_fm_stability_smoke(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = random_space(rng, n)
            nu = random_probability(rng, n)
            s2 = build_discrete_space(s.dist, nu)
            inv1 = first_moment_constant(s).witnesses["one_over_d"]
            inv2 = first_moment_constant(s2).witnesses["one_over_d"]
            w1 = w1_discrete(s, nu, s.weights)
            assert abs(inv2 - inv1) <= w1 + 1e-9


def _first_moment_measures():
    """80 measures: gamma_p, p in {1, 1.5, 2, 3, 5}, at 301 and 4,096 points,
    each as built, restricted above its 0.2-quantile and below its
    0.7-quantile, translated, tilted by e^{x/2} and e^{-x/4}, and
    density-ratio perturbed; and gaussian_restricted at a in -1..3."""
    out = []
    for n in (301, 4096):
        for p in (1.0, 1.5, 2.0, 3.0, 5.0):
            mu = build_measure_1d(preset="gamma_p", p=p, n_points=n)
            lo, hi = mu.quantile([0.2, 0.7])
            out += [mu, derive_measure(mu, "restrict", a=lo, b=math.inf),
                    derive_measure(mu, "restrict", a=-math.inf, b=hi),
                    derive_measure(mu, "translate", t=0.25)]
            out += [Measure1D(grid=mu.grid, potential=mu.potential - lam * mu.grid,
                              provenance={}) for lam in (0.5, -0.25)]
            out.append(derive_measure(mu, "density-ratio", phi=0.5 * np.tanh(mu.grid),
                                      cap=1.0))
        out += [build_measure_1d(preset="gaussian_restricted", a=a, n_points=n)
                for a in (-1.0, 0.0, 1.0, 2.0, 3.0)]
    return out


def _abs_deviation_about_grid_median(mu, values):
    """int |f - c| dmu for the piecewise-linear f with node values
    ``values`` on mu's grid, c the median of f under node weights, cell-exact
    once the linear roots of f - c are inserted.  c sits within a cell of
    med f, so this is at least int |f - med f| up to rounding: an
    independent upper reference for the closed form."""
    steps = np.diff(mu.grid)
    node_w = np.concatenate(([0.0], 0.5 * steps)) + np.concatenate((0.5 * steps, [0.0]))
    g = values - weighted_median(values, mu.density(mu.grid) * node_w)
    cross = np.flatnonzero(g[:-1] * g[1:] < 0)
    xs = np.union1d(mu.grid, mu.grid[cross] - g[cross] * steps[cross] / (g[cross + 1] - g[cross]))
    dense = Measure1D(grid=xs, potential=mu.potential_at(xs), provenance={})
    return dense.integrate_nodes(np.abs(np.interp(xs, mu.grid, g)))


def test_no_folded_candidate_beats_x_past_rounding():
    """For 1-Lipschitz f and a median m, int |f - med f| <= int |f - f(m)|
    <= int |x - m|, so no |x - x0| beats f = x, which first_moment_constant
    scores alone in closed form; past rounding, that form never exceeds
    the reference integral of f = x about a grid-estimated median."""
    measures = _first_moment_measures()
    assert len(measures) == 80
    for mu in measures:
        at_x = _abs_deviation_about_grid_median(mu, mu.grid)
        lo, hi = mu.support
        for x0 in np.linspace(lo, hi, 9)[1:-1]:
            folded = _abs_deviation_about_grid_median(mu, np.abs(mu.grid - x0))
            assert folded <= at_x * (1.0 + 1e-14)
        entry = first_moment_constant(mu)
        closed = entry.witnesses["one_over_d"]
        assert closed <= at_x * (1.0 + 1e-14)
        assert entry.value == 1.0 / closed
        assert entry.witnesses == {"one_over_d": closed, "f": "x"}


def test_one_dimensional_first_moment_is_the_quadrature_value():
    """gamma_p(1) restricted above its 0.2-quantile: int |x - m| dmu from
    scipy quad on the same model measure is 0.7440708683456656; a median
    estimated on the grid overshoots it by 1.9e-5."""
    mu = build_measure_1d(preset="gamma_p", p=1.0)
    mu = derive_measure(mu, "restrict", a=float(mu.quantile(0.2)), b=math.inf)
    val = first_moment_constant(mu).witnesses["one_over_d"]
    assert val == pytest.approx(0.7440708683456656, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_exact_first_moment_on_atoms_is_attained_at_x(m, p):
    """On the line f = x attains the first-moment supremum, so the vertex
    maximum on an atomization equals sum w |x - med| over its atoms."""
    mu = build_measure_1d(preset="gamma_p", p=p, n_points=1001)
    lo = float(mu.quantile(0.2))
    for nu in (mu, derive_measure(mu, "restrict", a=lo, b=math.inf)):
        pos, w = atomize_1d(nu, m)
        exact = first_moment_constant(discrete_space_from_atoms(pos, w))
        at_x = float(np.dot(w, np.abs(pos - weighted_median(pos, w))))
        assert exact.witnesses["one_over_d"] == pytest.approx(at_x, rel=1e-13, abs=0.0)


def test_weighted_median():
    v = np.array([3.0, 1.0, 2.0])
    w = np.array([0.2, 0.5, 0.3])
    assert weighted_median(v, w) == 1.0
    assert weighted_median(np.array([1.0, 2.0]), np.array([0.5, 0.5])) == 1.0


def test_w1_triangle_inequality_discrete():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        s = random_space(rng, n)
        a = random_probability(rng, n)
        b = random_probability(rng, n)
        c = random_probability(rng, n)
        ab = w1_discrete(s, a, b)
        bc = w1_discrete(s, b, c)
        ac = w1_discrete(s, a, c)
        assert ac <= ab + bc + 1e-9


@pytest.mark.parametrize("n", [3, 12], ids=["batch", "tree"])
def test_transport_costs_with_no_marginals_is_an_empty_float_array(n):
    space = random_space(np.random.default_rng(n), n)
    out = transport_costs(space, np.zeros((0, n)), space.weights, np.zeros((0, n, n)))
    assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == (0,)


class TestTotalVariation1D:
    """d_TV on the line is cell-exact: the sign pieces of the density
    difference end at the linear roots of log nu - log mu on each cell."""

    def test_translation_of_the_laplace_law(self, gamma1):
        # TV(Lap(t), Lap(0)) = 1 - e^{-t/2}
        nu = derive_measure(gamma1, "translate", t=0.25)
        assert divergences(nu, gamma1).d_tv == pytest.approx(1.0 - math.exp(-0.125),
                                                             rel=1e-12)

    def test_restriction_to_a_half_line(self, gamma2):
        # TV(mu|_A / mu(A), mu) = mu(A^c)
        nu = derive_measure(gamma2, "restrict", a=0.3, b=math.inf)
        assert divergences(nu, gamma2).d_tv == pytest.approx(float(gamma2.cdf(0.3)),
                                                             rel=1e-12)

    def test_disjoint_windows(self, gamma2):
        far = derive_measure(gamma2, "translate", t=100.0)
        assert divergences(far, gamma2).d_tv == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_and_below_pinsker(self, gamma1, gamma2, seed):
        rng = np.random.default_rng(seed)
        mu = gamma1 if seed % 2 else gamma2
        nus = [derive_measure(mu, "translate", t=float(rng.uniform(-1.0, 1.0))),
               derive_measure(mu, "restrict", a=float(rng.uniform(-1.0, 0.5)), b=math.inf),
               Measure1D(grid=mu.grid, potential=mu.potential - rng.uniform(0.1, 1.0)
                         * np.tanh(mu.grid))]
        for nu in nus:
            ab, ba = divergences(nu, mu), divergences(mu, nu)
            assert ab.d_tv == pytest.approx(ba.d_tv, rel=1e-12, abs=1e-15)
            assert 0.0 < ab.d_tv <= math.sqrt(0.5 * ab.h_nu_mu) + 1e-12
