import math

import numpy as np
import pytest

from conc_toolkit.errors import DomainError, UnsupportedSizeError, ValidationError
from conc_toolkit.laplace import (
    ConcBound,
    LaplaceBound,
    _exp_neg_phi_integral,
    conc_to_laplace,
    gibbs_check,
    herbst_laplace,
    laplace_sup_discrete,
    laplace_to_conc,
    log_laplace,
    mean_zero_lipschitz_vertices,
)
from conc_toolkit.measures import (
    _cell_partial_mass,
    atomize_1d,
    build_discrete_space,
    build_measure_1d,
    discrete_space_from_atoms,
)
from conc_toolkit.profiles import LOG2
from conc_toolkit.transport import (
    first_moment_constant,
    psi1_metric_bound,
    te_constant_estimate,
)

TWO_POINT = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))


@pytest.fixture(scope="module")
def gamma2():
    return build_measure_1d(preset="gamma_p", p=2.0)


class TestLogLaplace:
    def test_zero_function(self, gamma2):
        assert log_laplace(gamma2, np.zeros_like(gamma2.grid), 1.7) == 0.0
        assert log_laplace(np.array([0.3, 0.7]), np.zeros(2), 2.0) == pytest.approx(
            0.0, abs=1e-15)

    def test_two_point_closed_form(self):
        val = log_laplace(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 1.0)
        assert val == pytest.approx(math.log((1 + math.e) / 2), abs=1e-12)
        assert val == pytest.approx(0.62011, abs=1e-5)

    def test_gaussian_mgf(self, gamma2):
        lams = np.array([0.25, 0.5, 1.0, 2.0])
        vals = log_laplace(gamma2, gamma2.grid, lams)
        np.testing.assert_allclose(vals, lams**2 / 2, atol=1e-6)

    def test_convexity_in_lambda(self, gamma2):
        lams = np.linspace(-2, 2, 41)
        vals = log_laplace(gamma2, np.tanh(gamma2.grid), lams)
        assert np.all(np.diff(vals, 2) >= -1e-9)

    def test_derivative_at_zero_is_mean(self, gamma2):
        f = np.tanh(gamma2.grid) + 0.3
        h = 1e-5
        slope = (log_laplace(gamma2, f, h) - log_laplace(gamma2, f, -h)) / (2 * h)
        assert slope == pytest.approx(gamma2.integrate_nodes(f), abs=1e-8)


    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_rejects_a_negative_or_non_finite_weight(self, bad):
        with pytest.raises(ValidationError, match="weights"):
            log_laplace(np.array([0.5, 0.5 - bad, bad]), np.array([0.0, 1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_weights_match_scipy_logsumexp(self, seed):
        """The package's max-shifted log-sum-exp against scipy's (a
        test-only oracle), on weights with zeros and lam of either sign,
        where every value is at least 0.25 away from 0."""
        from scipy.special import logsumexp

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        w = rng.random(n) * (rng.random(n) < 0.8)
        w[0] += 0.1
        w /= w.sum()
        f = rng.uniform(0.5, 30.0, n)
        lams = rng.uniform(0.5, 20.0, 6)
        for sign in (1.0, -1.0):
            got = log_laplace(w, f, sign * lams.reshape(2, 3))
            want = [logsumexp(sign * lam * f, b=w) for lam in lams]
            np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0.0)

    def test_rejects_empty_weights(self):
        with pytest.raises(ValidationError, match="nonempty"):
            log_laplace(np.array([]), np.array([]), 1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_lam(self, gamma2, lam):
        with pytest.raises(DomainError, match="lam"):
            log_laplace(np.array([0.3, 0.7]), np.array([0.0, 1.0]), lam)
        with pytest.raises(DomainError, match="lam"):
            log_laplace(gamma2, np.tanh(gamma2.grid), [0.5, lam])


class TestGibbs:
    def test_zero_psi(self):
        chk = gibbs_check(np.array([0.5, 0.5]), np.zeros(2))
        assert chk.sup_value == pytest.approx(0.0, abs=1e-15)
        assert chk.log_mgf == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(chk.theta_star, np.ones(2))

    def test_two_point_closed_form(self):
        chk = gibbs_check(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        target = math.log((1 + math.e) / 2)
        assert chk.log_mgf == pytest.approx(target, abs=1e-12)
        assert chk.gap <= 1e-12
        expected = np.array([2 / (1 + math.e), 2 * math.e / (1 + math.e)])
        np.testing.assert_allclose(chk.theta_star, expected, rtol=1e-12)

    def test_random_discrete_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            w = rng.random(n) + 0.01
            w /= w.sum()
            psi = rng.normal(size=n) * 2
            assert gibbs_check(w, psi).gap <= 1e-8

    def test_1d_gap(self, gamma2):
        psi = 0.5 * np.tanh(gamma2.grid)
        chk = gibbs_check(gamma2, psi)
        assert chk.gap <= 1e-6


def test_weight_vector_routes_leave_scipy_unloaded(fresh_python):
    """log_laplace and gibbs_check on weights, and psi1_metric_bound on a
    4-point space (whose KR potential comes from the numpy simplex), run
    on numpy alone: no scipy module loads in a fresh interpreter."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from conc_toolkit.laplace import gibbs_check, log_laplace\n"
        "from conc_toolkit.measures import DiscreteSpace\n"
        "from conc_toolkit.transport import psi1_metric_bound\n"
        "w = np.array([0.1, 0.2, 0.3, 0.4])\n"
        "pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.5, 1.0]])\n"
        "space = DiscreteSpace(dist=np.linalg.norm(pts[:, None] - pts[None], axis=2),\n"
        "                      weights=w)\n"
        "print(log_laplace(w, np.arange(4.0), 1.0) > 0,\n"
        "      gibbs_check(w, np.arange(4.0)).gap < 1e-12,\n"
        "      psi1_metric_bound(space, w[::-1], w).value > 0,\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert fresh_python(script) == ["True", "True", "True", "[]"]


class TestBoundTranslations:
    def test_laplace_to_conc_gaussian_offset(self):
        xs = np.linspace(0.0, 10.0, 16385)
        b = LaplaceBound(phi_x=xs, phi_vals=xs**2 / 2, rate=1.0)
        cb = laplace_to_conc(b)
        assert cb.offset == pytest.approx(math.sqrt(2 * LOG2), abs=1e-6)
        assert cb.offset == pytest.approx(1.17741, abs=1e-4)

    def test_eps_shifts_offset_linearly(self):
        xs = np.linspace(0.0, 10.0, 16385)
        b0 = LaplaceBound(phi_x=xs, phi_vals=xs**2 / 2, rate=1.0, eps=0.0)
        b1 = LaplaceBound(phi_x=xs, phi_vals=xs**2 / 2, rate=1.0, eps=1.0)
        z0 = laplace_to_conc(b0).offset
        z1 = laplace_to_conc(b1).offset
        assert z1 - z0 == pytest.approx(2.0, abs=1e-12)

    def test_linear_phi_with_delta(self):
        xs = np.linspace(0.0, 20.0, 16385)
        b = LaplaceBound(phi_x=xs, phi_vals=xs.copy(), rate=1.0, delta=LOG2)
        cb = laplace_to_conc(b)
        assert cb.offset == pytest.approx(2 * LOG2, abs=1e-9)

    def test_conc_to_laplace_linear_phi(self):
        xs = np.linspace(0.0, 60.0, 4001)
        cb = ConcBound(phi_x=xs, phi_vals=xs.copy(), rate=2.0)
        lb = conc_to_laplace(cb, tau=0.5)
        assert lb.rate == pytest.approx(1.0)
        assert lb.delta == pytest.approx(LOG2, abs=1e-12)
        # eps = (1/2) (Phi^{-1}(log 2) + int_0^oo e^{-r} dr) = (log 2 + 1)/2
        assert lb.eps == pytest.approx(0.5 * (LOG2 + 1.0), abs=1e-9)

    def test_conc_to_laplace_gaussian_phi(self):
        xs = np.linspace(0.0, 12.0, 8193)
        cb = ConcBound(phi_x=xs, phi_vals=xs**2 / 2, rate=1.0)
        lb = conc_to_laplace(cb, tau=0.5)
        expected = 0.5 * (math.sqrt(2 * LOG2) + math.sqrt(math.pi / 2))
        assert lb.eps == pytest.approx(expected, abs=1e-5)

    def test_tau_limit(self):
        xs = np.linspace(0.0, 40.0, 2001)
        cb = ConcBound(phi_x=xs, phi_vals=xs.copy(), rate=1.0)
        taus = np.array([0.2, 0.1, 0.01, 1e-3])
        rates = [conc_to_laplace(cb, tau=t).rate for t in taus]
        deltas = [conc_to_laplace(cb, tau=t).delta for t in taus]
        assert np.all(np.diff(rates) < 0)
        assert rates[-1] == pytest.approx(1e-3)
        assert deltas[-1] == pytest.approx(cb.log_slack, abs=2e-3)

    def test_nonintegrable_tail_rejected(self):
        # Phi == 0 is the only convex nondecreasing table with a
        # non-positive tail slope; exp(-Phi) then has infinite mass
        xs = np.linspace(0.0, 5.0, 101)
        cb = ConcBound(phi_x=xs, phi_vals=np.zeros_like(xs), rate=1.0)
        with pytest.raises(DomainError, match="integrable"):
            conc_to_laplace(cb)

    @pytest.mark.parametrize("phi", ["herbst", "linear", "quadratic"])
    def test_exp_neg_phi_integral_is_the_cell_sum(self, phi):
        """The body of int e^{-Phi}, read as a Measure1D's normalizer, is the
        float the direct sum over Phi's exp-linear cells gives."""
        xs = {"herbst": herbst_laplace(0.5)[1].phi_x, "linear": np.linspace(0.0, 60.0, 4001),
              "quadratic": np.linspace(0.0, 12.0, 8193)}[phi]
        vals = {"herbst": 0.5 * xs * xs, "linear": xs.copy(), "quadratic": xs**2 / 2}[phi]
        slopes = np.diff(vals) / np.diff(xs)
        body = float(np.sum(_cell_partial_mass(vals[:-1], slopes, np.diff(xs))))
        assert _exp_neg_phi_integral(xs, vals) == body + math.exp(-vals[-1]) / slopes[-1]


class TestHerbst:
    @pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -1.0])
    def test_rho_outside_zero_to_infinity_raises(self, rho):
        with pytest.raises(DomainError, match="rho must be positive and finite"):
            herbst_laplace(rho)

    def test_half_rho_bound(self):
        _, cb = herbst_laplace(0.5)
        rs = np.array([0.5, 2.0, 4.0])
        expected = 0.5 * np.maximum(rs - math.sqrt(2 * LOG2), 0.0) ** 2
        np.testing.assert_allclose(cb.alpha_at(rs), expected,
                                   atol=1e-6)

    def test_boundary_zero(self):
        _, cb = herbst_laplace(1.0)
        assert cb.alpha_at(math.sqrt(LOG2)) == pytest.approx(0.0, abs=1e-9)

    def test_laplace_side_is_quadratic(self):
        lb, _ = herbst_laplace(0.5)
        lam = np.array([0.3, 1.0, 2.5])
        np.testing.assert_allclose(lb.phi_star_at(lam),
                                   lam**2 / (4 * 0.5), rtol=1e-5)


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    return a[np.lexsort(np.round(a, 6).T[::-1])]


class TestLipschitzVertices:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_vertex_counts_on_degenerate_metrics(self, n):
        w = np.full(n, 1.0 / n)
        x = np.arange(n, dtype=float)
        path = build_discrete_space(np.abs(x[:, None] - x[None, :]), w)
        discrete = build_discrete_space(1.0 - np.eye(n), w)
        assert len(mean_zero_lipschitz_vertices(path, w)) == 2 ** (n - 1)
        assert len(mean_zero_lipschitz_vertices(discrete, w)) == 2**n - 2

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("c", [1e-12, 1e12])
    def test_vertices_scale_with_the_metric(self, n, c):
        """The vertices of c d are c times those of d: no tolerance of the
        enumeration is absolute."""
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        w = rng.dirichlet(np.ones(n))
        base = mean_zero_lipschitz_vertices(build_discrete_space(d, w), w)
        scaled = mean_zero_lipschitz_vertices(build_discrete_space(c * d, w), w)
        # a planar metric in general position has C(2n - 2, n - 1) vertices
        assert len(base) == math.comb(2 * n - 2, n - 1)
        assert scaled.shape == base.shape
        np.testing.assert_allclose(_sorted_rows(scaled / c), _sorted_rows(base),
                                   rtol=0.0, atol=1e-9)

    def test_enumeration_capped_at_one_size(self):
        """n = 8 is enumerated; n = 9 raises from the enumeration itself,
        naming both heuristics, on every exact route."""
        rng = np.random.default_rng(9)
        spaces = {}
        for n in (8, 9):
            pts = rng.normal(size=(n, 2))
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            spaces[n] = build_discrete_space(d, np.full(n, 1.0 / n))
        assert len(mean_zero_lipschitz_vertices(spaces[8], spaces[8].weights)) == 3432
        s = spaces[9]
        for exact_route in (lambda: mean_zero_lipschitz_vertices(s, s.weights),
                            lambda: laplace_sup_discrete(s, s.weights, np.array([1.0])),
                            lambda: first_moment_constant(s)):
            with pytest.raises(UnsupportedSizeError, match="exact=False.*'heuristic'"):
                exact_route()

    def test_two_point_vertices(self):
        verts = mean_zero_lipschitz_vertices(TWO_POINT, TWO_POINT.weights)
        expected = {(-0.5, 0.5), (0.5, -0.5)}
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == expected

    def test_two_point_sup_is_log_cosh(self):
        lams = np.array([0.5, 1.0, 3.0])
        vals, flag, _ = laplace_sup_discrete(TWO_POINT, TWO_POINT.weights, lams)
        assert flag == "exact"
        np.testing.assert_allclose(vals, np.log(np.cosh(lams / 2)), atol=1e-12)

    def test_three_point_path_beats_random_candidates(self):
        idx = np.arange(3)
        d = np.abs(idx[:, None] - idx[None, :]).astype(float)
        s = build_discrete_space(d, np.full(3, 1 / 3))
        lams = np.array([0.5, 1.5])
        vals, flag, _ = laplace_sup_discrete(s, s.weights, lams)
        assert flag == "exact"
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = rng.normal(size=3)
            # project to 1-Lipschitz and mean zero
            for _ in range(3):
                g = np.min(g[None, :] + d, axis=1)
            g = g - np.dot(s.weights, g)
            for k, lam in enumerate(lams):
                cand = math.log(np.dot(s.weights, np.exp(lam * g)))
                assert cand <= vals[k] + 1e-9

    def test_lambda_zero(self):
        vals, _, _ = laplace_sup_discrete(TWO_POINT, TWO_POINT.weights,
                                          np.array([0.0]))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)

    def test_size_cap_and_heuristic(self):
        rng = np.random.default_rng(9)
        pts = rng.random((9, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        s = build_discrete_space(d, np.full(9, 1 / 9))
        with pytest.raises(UnsupportedSizeError):
            laplace_sup_discrete(s, s.weights, np.array([1.0]))
        vals, flag, _ = laplace_sup_discrete(s, s.weights, np.array([1.0]),
                                             exact=False)
        assert flag == "lower"
        assert vals[0] >= 0.0


class TestLaplaceSupInput:
    """Bad input raises a ToolkitError where it enters, before the vertex
    enumeration: no numpy matmul error, no NaN, no RuntimeWarning."""

    @pytest.mark.parametrize("mu", [[1.0], [0.3, 0.3, 0.4], [[0.5, 0.5]]],
                             ids=["short", "long", "2-d"])
    def test_wrong_length_weights(self, mu):
        with pytest.raises(ValidationError, match=r"one weight per point: shape \(2,\)"):
            laplace_sup_discrete(TWO_POINT, np.array(mu), np.array([1.0]))

    @pytest.mark.parametrize("mu", [[1.5, -0.5], [math.nan, 1.0], [math.inf, 0.0]],
                             ids=["negative", "nan", "inf"])
    def test_negative_or_non_finite_weights(self, mu):
        for exact in (True, False):
            with pytest.raises(ValidationError, match="finite and nonnegative"):
                laplace_sup_discrete(TWO_POINT, np.array(mu), np.array([1.0]), exact=exact)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_lambda(self, lam):
        """Raised under warnings-as-errors too: the check comes before any
        arithmetic that could warn."""
        for lams in (lam, np.array([0.5, lam])):
            with pytest.raises(DomainError, match="lam must be finite"):
                laplace_sup_discrete(TWO_POINT, TWO_POINT.weights, lams)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", ["short", "nan", "inf", "negative"])
    @pytest.mark.parametrize("call", ["mean_zero_lipschitz_vertices", "psi1_metric_bound",
                                      "te_constant_estimate"])
    def test_weight_vectors_are_checked(self, call, bad):
        """One weight check for every finite-space entry point: a wrong
        length, a NaN, an inf or a negative weight raises ValidationError."""
        w = {"short": [1.0], "nan": [0.5, math.nan], "inf": [0.5, math.inf],
             "negative": [1.5, -0.5]}[bad]
        with pytest.raises(ValidationError, match="must hold one weight per point|"
                                                  "must be finite and nonnegative"):
            {"mean_zero_lipschitz_vertices": lambda: mean_zero_lipschitz_vertices(TWO_POINT, w),
             "psi1_metric_bound": lambda: psi1_metric_bound(TWO_POINT, w, TWO_POINT.weights),
             "te_constant_estimate": lambda: te_constant_estimate(TWO_POINT, "wTE(1,p)",
                                                                  mu=w),
             }[call]()

    def test_non_numeric_input(self):
        with pytest.raises(ValidationError, match="lam must hold numbers"):
            laplace_sup_discrete(TWO_POINT, TWO_POINT.weights, "x")
        with pytest.raises(ValidationError, match="mu must hold numbers"):
            laplace_sup_discrete(TWO_POINT, ["a", "b"], [1.0])

    @pytest.mark.filterwarnings("error")
    def test_valid_input_warns_nothing(self):
        vals, flag, _ = laplace_sup_discrete(TWO_POINT, TWO_POINT.weights,
                                             np.array([0.0, 1.0, 40.0]))
        assert flag == "exact" and np.all(np.isfinite(vals))


class TestRoundTrip:
    def test_herbst_round_trip_holds_on_atomized_gaussian(self, gamma2):
        lb0, cb = herbst_laplace(0.5)
        lb = conc_to_laplace(cb, tau=0.5)
        pos, w = atomize_1d(gamma2, 7)
        space = discrete_space_from_atoms(pos, w)
        lams = np.linspace(0.0, 4.0, 17)
        sup_vals, flag, _ = laplace_sup_discrete(space, w, lams * lb.rate)
        assert flag == "exact"
        rhs = lb.rhs_log(lams)
        assert np.all(sup_vals <= rhs + 1e-9)

    def test_exponential_family_round_trip(self):
        # Phi(x) = x is a valid concentration bound for the two-sided
        # exponential (K(r) = r + log 2 >= r); the derived Laplace bound
        # must hold on its atomizations
        g1 = build_measure_1d(preset="gamma_p", p=1.0)
        xs = np.linspace(0.0, 60.0, 4097)
        cb = ConcBound(phi_x=xs, phi_vals=xs.copy(), rate=1.0)
        lb = conc_to_laplace(cb, tau=0.5)
        pos, w = atomize_1d(g1, 7)
        space = discrete_space_from_atoms(pos, w)
        lams = np.linspace(0.0, 3.0, 13)
        sup_vals, flag, _ = laplace_sup_discrete(space, w, lams * lb.rate)
        assert flag == "exact"
        rhs = lb.rhs_log(lams)
        assert np.all(sup_vals <= rhs + 1e-9)

    def test_log_mgf_of_kr_potential_is_subquadratic(self):
        # mechanism check: for an atomized Gaussian and a KR-optimal
        # potential, L(lam) behaves like (C lam)^2 / 2 on a small window
        from conc_toolkit.transport import gibbs_tilt_discrete, kr_dual

        g2 = build_measure_1d(preset="gamma_p", p=2.0)
        pos, w = atomize_1d(g2, 33)
        space = discrete_space_from_atoms(pos, w)
        nu = gibbs_tilt_discrete(w, pos, 0.4)
        f = kr_dual(space, nu, w).potential
        f = f - np.dot(w, f)
        lams = np.linspace(0.05, 0.5, 10)
        vals = np.array([log_laplace(w, f, la) for la in lams])
        curvature = 2.0 * vals / lams**2
        fitted_c = math.sqrt(curvature.max())
        assert fitted_c < 5.0
        # near-quadratic: the curvature is stable across the window
        assert curvature.max() / curvature.min() < 2.0
