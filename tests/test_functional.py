import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conc_toolkit import functional
from conc_toolkit.errors import DomainError, ValidationError
from conc_toolkit.functional import (
    GridFunction,
    _exp_family_ratio,
    _second_eigenvalue,
    functional_inequality_eval,
    logsob_constant_1d,
    poincare_constant_1d,
)
from conc_toolkit.measures import Measure1D, build_measure_1d, derive_measure
from conc_toolkit.profiles import iso_profile_1d


@pytest.fixture(scope="module")
def gamma2():
    return build_measure_1d(preset="gamma_p", p=2.0, n_points=8192)


@pytest.fixture(scope="module")
def gamma1():
    return build_measure_1d(preset="gamma_p", p=1.0, half_width=72.0,
                            n_points=8192)


class TestPoincare:
    def test_gaussian_spectral_gap(self, gamma2):
        entry = poincare_constant_1d(gamma2)
        assert entry.value == pytest.approx(1.0, rel=0.02)
        assert entry.direction == "two-sided"
        # Richardson extrapolation is closer to the true gap than the raw value
        rich = entry.witnesses["richardson"]
        assert abs(rich - 1.0) <= abs(entry.witnesses["eigenvalue"] - 1.0) + 1e-9

    def test_two_sided_exponential(self, gamma1):
        entry = poincare_constant_1d(gamma1)
        assert entry.value == pytest.approx(0.5, rel=0.02)

    def test_metric_scaling(self, gamma2):
        lam = 2.0
        scaled = Measure1D(grid=gamma2.grid * lam, potential=gamma2.potential,
                           provenance={})
        d0 = poincare_constant_1d(gamma2, richardson=False).value
        d1 = poincare_constant_1d(scaled, richardson=False).value
        assert d1 == pytest.approx(d0 / lam, rel=1e-9)

    def test_small_grid_rejected(self):
        xs = np.linspace(-3, 3, 100)
        m = build_measure_1d(grid=xs, potential=xs**2 / 2)
        with pytest.raises(DomainError):
            poincare_constant_1d(m)


EPS = np.finfo(float).eps


def _norm1(d, e):
    """||T||_1 of the symmetric tridiagonal matrix (d, e)."""
    return float(np.max(np.abs(d) + np.abs(np.append(e, 0.0))
                        + np.abs(np.insert(e, 0, 0.0))))


@pytest.fixture(scope="module")
def gamma_p_tridiagonals():
    """The 8 (d, e, hi) triples poincare_constant_1d solves on gamma_p,
    p in {1, 1.5, 2, 3}, 8,192 points: each fine grid, then its
    coarsening, with hi the Rayleigh quotient of f = x."""
    seen, solve = [], functional._second_eigenvalue

    def record(d, e, hi):
        seen.append((d, e, hi))
        return solve(d, e, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functional, "_second_eigenvalue", record)
        for p in (1.0, 1.5, 2.0, 3.0):
            poincare_constant_1d(build_measure_1d(preset="gamma_p", p=p, n_points=8192))
    return seen


def _pencil_tridiagonal(seed):
    """(d, e, hi) of a random Poincare pencil: positive cell masses and
    steps, assembled as _poincare_eigenvalue does (a zero eigenvalue, then
    a positive one), with hi the Rayleigh quotient of f = x."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 200))
    cell_mass = rng.uniform(0.01, 1.0, n - 1) * 10.0 ** rng.uniform(-6.0, 0.0, n - 1)
    h = rng.uniform(0.1, 1.0, n - 1) * 10.0 ** rng.uniform(-3.0, 1.0)
    half = 0.5 * cell_mass
    node_mass = np.append(half, 0.0) + np.insert(half, 0, 0.0)
    k = cell_mass / h**2
    d = (np.append(k, 0.0) + np.insert(k, 0, 0.0)) / node_mass
    xs = np.concatenate(([0.0], np.cumsum(h)))
    centred = xs - np.dot(node_mass, xs) / node_mass.sum()
    hi = float(cell_mass.sum() / np.dot(node_mass, centred**2))
    return d, -k / np.sqrt(node_mass[:-1] * node_mass[1:]), hi


def test_second_eigenvalue_agrees_with_lapack_bisection(gamma_p_tridiagonals):
    """Against dstebz (scipy, a test-only oracle), whose own tolerance is
    ulp * ||T||_1: on the gamma_p matrices and on random pencils."""
    from scipy.linalg import eigvalsh_tridiagonal

    triples = gamma_p_tridiagonals + [_pencil_tridiagonal(s) for s in range(100)]
    assert [d.size for d, _, _ in gamma_p_tridiagonals] == [8191, 4095] * 4
    for d, e, hi in triples:
        want = eigvalsh_tridiagonal(d, e, select="i", select_range=(1, 1))[0]
        got = _second_eigenvalue(d, e, hi)
        assert abs(got - want) <= EPS * _norm1(d, e) + 4 * EPS * abs(want)


def test_second_eigenvalue_agrees_with_a_dense_eigensolve():
    """Against numpy's dense eigvalsh, backward stable to about
    n * ulp * ||T||, for n <= 200."""
    for seed in range(100):
        d, e, hi = _pencil_tridiagonal(seed)
        want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[1]
        assert abs(_second_eigenvalue(d, e, hi) - want) <= d.size * EPS * _norm1(d, e)


def _gershgorin_second_eigenvalue(d, e):
    """The solve as it was before the Rayleigh bracket: bisection from the
    Gershgorin bracket alone (the oracle of the bracket tests)."""
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.insert(e, 0, 0.0))
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
    d_list, e2 = d.tolist(), [0.0] + (e * e).tolist()
    pivmin = float(np.finfo(float).tiny) * max(e2 + [1.0])

    def two_below(x):
        count, q = 0, 1.0
        for di, e2i in zip(d_list, e2):
            q = (di - x) - e2i / q
            if q < pivmin:
                count += 1
                if count == 2:
                    return True
                q = min(q, -pivmin)
        return False

    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if two_below(mid) else (mid, hi)
    return hi


# the bracket's upper end: the Rayleigh quotient R, R / 8 (doubled, on
# gamma_p) and 1e6 R
HI_SCALES = [1.0, 0.125, 1e6]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rayleigh_bracket_gives_the_gershgorin_float(seed):
    """From [0, R], [0, R / 8] doubled, and [0, 1e6 R] the bisection ends
    at the same float as from the Gershgorin bracket, on Poincare pencils."""
    d, e, hi = _pencil_tridiagonal(seed)
    want = _gershgorin_second_eigenvalue(d, e)
    assert want > 0.0
    for scale in HI_SCALES:
        assert _second_eigenvalue(d, e, hi * scale) == want


def test_gamma_p_solves_give_the_gershgorin_float(gamma_p_tridiagonals):
    """On gamma_p the Rayleigh quotient of f = x sits within a factor 8 of
    the eigenvalue, so R / 8 takes the doubling path.  On the Gaussian
    fine grid, where f = x is the eigenfunction, R lies 2.7e-11 relative
    below the computed eigenvalue (inside the count's rounding), and R is
    doubled too."""
    for d, e, hi in gamma_p_tridiagonals:
        want = _gershgorin_second_eigenvalue(d, e)
        assert hi / 8.0 < want <= 2.0 * hi
        for scale in HI_SCALES:
            assert _second_eigenvalue(d, e, hi * scale) == want


@pytest.mark.parametrize("d", [np.zeros(5), np.array([-1.0, -0.5, 2.0, 3.0]),
                               np.array([-2.0, 0.0, 1.0])],
                         ids=["zero", "negative", "zero-second"])
def test_second_eigenvalue_at_or_below_zero_is_zero(d):
    e = np.zeros(d.size - 1)
    assert np.sort(d)[1] <= 0.0
    assert _second_eigenvalue(d, e, 1.0) == 0.0


@pytest.mark.parametrize("bad", ["d", "e"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_second_eigenvalue_rejects_non_finite_entries(bad, value):
    d, e = np.full(5, 2.0), np.full(4, -1.0)
    (d if bad == "d" else e)[2] = value
    with pytest.raises(ValidationError, match="finite"):
        _second_eigenvalue(d, e, 1.0)


@pytest.mark.parametrize("hi", [np.nan, np.inf, 0.0, -1.0])
def test_second_eigenvalue_rejects_a_bracket_end_outside_zero_to_infinity(hi):
    with pytest.raises(ValidationError, match="hi must lie in"):
        _second_eigenvalue(np.full(5, 2.0), np.full(4, -1.0), hi)


class TestLogSobolev:
    def test_gaussian_constant(self, gamma2):
        entry = logsob_constant_1d(gamma2)
        # the exponential family achieves the Gaussian constant 1/2 exactly
        assert 0.5 - 1e-9 <= entry.value <= 0.55
        assert entry.direction == "upper"

    def test_gaussian_constant_to_rounding(self, gamma2):
        # every exponential candidate's exact quotient is 1/2; the computed
        # ones scatter by about 1e-15, and the polished minimum sits among them
        assert abs(logsob_constant_1d(gamma2).value - 0.5) <= 4e-15

    def test_restricted_gaussian_positive(self, gamma2):
        half = derive_measure(gamma2, "restrict", a=0.0, b=np.inf)
        entry = logsob_constant_1d(half)
        assert 0.0 < entry.value < 10.0
        assert math.isfinite(entry.value)

    def test_metric_scaling(self, gamma2):
        lam = 3.0
        scaled = Measure1D(grid=gamma2.grid * lam, potential=gamma2.potential,
                           provenance={})
        r0 = logsob_constant_1d(gamma2).value
        r1 = logsob_constant_1d(scaled).value
        # rho scales like 1 / lam^2 (it is a squared-gradient constant)
        assert r1 == pytest.approx(r0 / lam**2, rel=1e-6)


def _tilted_measure_ratio(mu, lam):
    """The exponential-family quotient through a tilted Measure1D, as
    _exp_family_ratio computed it before it read the cells directly."""
    log_m = mu.log_mgf_nodes(mu.grid, lam)
    tilted = Measure1D(grid=mu.grid.copy(),
                       potential=mu.potential - lam * mu.grid, provenance={})
    ent = lam * tilted.mean() - log_m
    if ent <= 0:
        return math.inf
    return (lam * lam / 4.0) / ent


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=3, max_value=400),
       lam=st.floats(min_value=-8.0, max_value=8.0))
def test_exp_family_ratio_equals_the_tilted_measure_route(seed, n, lam):
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.uniform(-6.0, 6.0, n))
    assume(np.all(np.diff(grid) > 1e-6))
    potential = np.cumsum(rng.normal(0.0, rng.uniform(0.01, 3.0), n))
    mu = Measure1D(grid=grid, potential=potential, provenance={})
    got, want = _exp_family_ratio(mu, lam), _tilted_measure_ratio(mu, lam)
    assert got == want or (math.isinf(got) and math.isinf(want))


def test_exp_family_ratio_rejects_a_divergent_tilt(gamma2):
    # the tilted cell masses overflow, as the tilted Measure1D rejected them
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match="diverges"):
            _tilted_measure_ratio(gamma2, 1e6)
        with pytest.raises(ValidationError, match="diverges"):
            _exp_family_ratio(gamma2, 1e6)


class TestFunctionalEval:
    def test_constant_function_trivial(self, gamma2):
        f = GridFunction(gamma2, np.ones_like(gamma2.grid))
        res = functional_inequality_eval(gamma2, f, "q-LS", q=2.0, rate=1.0)
        assert res.satisfied
        assert res.flag == "zero-entropy"
        # the q-th root amplifies the fp-zero entropy to ~1e-8
        assert res.lhs == pytest.approx(0.0, abs=1e-7)

    def test_gaussian_exponential_near_equality(self, gamma2):
        f = GridFunction(gamma2, np.exp(gamma2.grid / 4.0))
        res = functional_inequality_eval(gamma2, f, "q-LS", q=2.0,
                                         rate=math.sqrt(0.5))
        # equality case of the Gaussian log-Sobolev inequality
        assert res.lhs == pytest.approx(res.rhs, rel=1e-4)
        res_strict = functional_inequality_eval(gamma2, f, "q-LS", q=2.0,
                                                rate=0.705)
        assert res_strict.satisfied

    def test_mod_ls_vacuous_branch(self, gamma2):
        # steep function: |grad log f^2| / 2 > rate makes the q = oo dual
        # cost infinite, so the inequality holds vacuously
        f = GridFunction(gamma2, np.exp(3.0 * gamma2.grid))
        res = functional_inequality_eval(gamma2, f, "mod-LS", q=math.inf,
                                         rate=1.0)
        assert res.satisfied
        assert res.flag == "vacuous(+oo)"
        assert math.isinf(res.rhs)

    def test_ls_mls_consistency(self):
        # D_LS_q = 2 q^{1/q - 1} D_mLS_q under f = g^{q/2}; exact in the
        # continuum, reproduced on a fine grid to 1e-6
        mu = build_measure_1d(preset="gamma_p", p=2.0, n_points=16384)
        c = 0.5
        g = np.exp(c * mu.grid)
        for q in (1.25, 1.5, 2.0):
            ent_g = _best_rate_qls(mu, g, q)
            f_vals = g ** (q / 2.0)
            dm = _best_rate_mls(mu, f_vals, q)
            assert ent_g == pytest.approx(2.0 * q ** (1.0 / q - 1.0) * dm,
                                          rel=1e-6)

    def test_poincare_from_mod_ls_linearization(self, gamma2):
        g = np.tanh(gamma2.grid)
        weights = gamma2.node_weights()
        grad = GridFunction(gamma2, g).gradient_magnitude()
        var = float(np.dot(weights, g**2) - np.dot(weights, g) ** 2)
        dirichlet = float(np.dot(weights, grad**2))
        target = 4.0 * var / dirichlet  # at rate 1, the small-eps limit
        for eps in (1e-2, 1e-3):
            f = GridFunction(gamma2, 1.0 + eps * g)
            res = functional_inequality_eval(gamma2, f, "mod-LS", q=math.inf,
                                             rate=1.0)
            assert res.lhs / res.rhs == pytest.approx(target, abs=5 * eps)


def _best_rate_qls(mu, g, q):
    """Largest admissible rate for the q-LS inequality at this g."""
    f = GridFunction(mu, g)
    weights = mu.node_weights()
    grad = f.gradient_magnitude()
    from conc_toolkit.functional import _entropy

    ent = _entropy(weights, np.abs(g) ** q)
    return (float(np.dot(weights, grad**q)) ** (1.0 / q)) / ent ** (1.0 / q)


def _best_rate_mls(mu, f_vals, q):
    """Largest admissible rate for the mod-LS inequality at this f
    (q in (1, 2]: the dual cost is a pure power, so the rate scales out)."""
    from conc_toolkit.functional import _entropy

    f = GridFunction(mu, f_vals)
    weights = mu.node_weights()
    ratio = f.log_square_gradient_half()
    ent = _entropy(weights, f_vals**2)
    moment = float(np.dot(weights, f_vals**2 * ratio**q))
    return (moment / (q * ent)) ** (1.0 / q)


class TestCheegerConsistency:
    def test_poincare_vs_linear_iso_across_family(self):
        # D_Poin >= c * D_Iso_1 with a fitted c >= 0.2 across the family
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            mu = build_measure_1d(preset="gamma_p", p=p, n_points=4096)
            d_poin = poincare_constant_1d(mu, richardson=False).value
            prof = iso_profile_1d(mu)
            d_iso1 = float(np.min(prof.values / prof.inputs))
            assert d_poin >= 0.2 * d_iso1
