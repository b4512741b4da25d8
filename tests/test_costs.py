import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conc_toolkit.costs import (
    CostSpec,
    conjugate_window,
    graded_cost_grid,
    legendre_numeric,
    phi_inverse,
    phi_p_eval,
    phi_star_eval,
)
from conc_toolkit.errors import DomainError, ValidationError


# branch-exact point values
@pytest.mark.parametrize(
    "p, x, expected",
    [
        (2.0, 3.0, 4.5),          # x^p / p branch
        (1.0, 0.5, 0.125),        # quadratic branch below 1
        (1.0, 2.0, 1.5),          # x^p/p + 1/2 - 1/p branch
        (1.5, 1.0, 0.5),          # branch point, both formulas agree
        (3.0, 2.0, 8.0 / 3.0),
    ],
)
def test_phi_p_values(p, x, expected):
    assert phi_p_eval(CostSpec(p), x) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "p, lam, expected",
    [
        (1.5, 0.5, 0.125),                         # q = 3, quadratic branch
        (1.5, 2.0, 8.0 / 3.0 + 0.5 - 1.0 / 3.0),   # q = 3, power branch
        (2.0, 1.7, 1.7**2 / 2.0),                  # q = 2
        (1.0, 0.6, 0.18),                          # q = oo inside [0, 1]
    ],
)
def test_phi_star_values(p, lam, expected):
    assert phi_star_eval(CostSpec(p), lam) == pytest.approx(expected, abs=1e-12)


def test_phi_star_infinite_branch():
    assert phi_star_eval(CostSpec(1.0), 2.0) == math.inf
    assert phi_star_eval(CostSpec(1.0), 1.0) == 0.5


def test_negative_arguments_rejected():
    with pytest.raises(DomainError):
        phi_p_eval(CostSpec(2.0), -1.0)
    with pytest.raises(DomainError):
        phi_star_eval(CostSpec(2.0), -0.1)


@pytest.mark.parametrize(
    "p, y, expected",
    [
        (1.0, 2.0, 2.5),     # inverse on the linear branch
        (2.0, 4.5, 3.0),
        (1.0, 0.125, 0.5),   # inverse on the quadratic branch
    ],
)
def test_phi_inverse_values(p, y, expected):
    assert phi_inverse(CostSpec(p), y) == pytest.approx(expected, abs=1e-14)


@given(
    p=st.floats(min_value=1.0, max_value=4.0),
    x=st.floats(min_value=0.0, max_value=50.0),
)
def test_phi_inverse_round_trip(p, x):
    spec = CostSpec(p)
    y = phi_p_eval(spec, x)
    assert phi_inverse(spec, y) == pytest.approx(x, abs=1e-9, rel=1e-9)


@given(
    p=st.floats(min_value=1.0, max_value=2.0),
    c=st.floats(min_value=1e-3, max_value=4.0),
    x=st.floats(min_value=0.0, max_value=20.0),
)
def test_phi_p_scaling_property(p, c, x):
    # c * phi_p(x) >= phi_p(min(c, 1) * x) for p in [1, 2]
    spec = CostSpec(p)
    lhs = c * phi_p_eval(spec, x)
    rhs = phi_p_eval(spec, min(c, 1.0) * x)
    assert lhs >= rhs - 1e-12 * (1.0 + abs(lhs))


@given(
    p=st.floats(min_value=1.0, max_value=2.0),
    big_c=st.floats(min_value=1e-3, max_value=4.0),
    lam=st.floats(min_value=0.0, max_value=20.0),
)
def test_phi_star_scaling_property(p, big_c, lam):
    # C * phi_star_q(t) <= phi_star_q(max(sqrt(C), 1) * t) for q in [2, oo]
    spec = CostSpec(p)
    lhs = big_c * phi_star_eval(spec, lam)
    rhs = phi_star_eval(spec, max(math.sqrt(big_c), 1.0) * lam)
    if math.isinf(rhs):
        return
    assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def test_phi_star_overflow_is_silent():
    # q = 10001: lam^q overflows to the true +oo, which is no warning matter
    spec = CostSpec(1.0001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi_star_eval(spec, 2.0) == math.inf
        out = phi_star_eval(spec, [0.5, 1.0, 2.0])
    assert out[0] == 0.125 and out[1] == 0.5 and out[2] == math.inf


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0])
@pytest.mark.parametrize("s", [1.0, 1.1, 1.5])
def test_composition_convexity(p, s):
    # phi_p o phi_s^{-1} has nonnegative discrete second differences
    if s > p:
        pytest.skip("requires s <= p")
    ys = np.linspace(0.0, 10.0, 2001)
    comp = phi_p_eval(CostSpec(p), phi_inverse(CostSpec(s), ys))
    second = np.diff(comp, 2)
    assert second.min() >= -1e-9


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0])
def test_legendre_matches_closed_form(p):
    spec = CostSpec(p)
    xs = graded_cost_grid(spec, conjugate_window(spec, 5.0))
    lam = np.linspace(0.0, 5.0, 501)
    _, fstar = legendre_numeric(xs, phi_p_eval(spec, xs), lam)
    ref = phi_star_eval(spec, lam)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(fstar), finite)
    assert np.max(np.abs(fstar[finite] - ref[finite])) < 1e-4


def test_legendre_of_linear():
    lam0 = 1.3
    xs = np.linspace(0.0, 10.0, 4001)
    lam, fstar = legendre_numeric(xs, lam0 * xs, np.array([0.5, lam0, 2.0]))
    assert fstar[0] == pytest.approx(0.0, abs=1e-12)
    assert fstar[1] == pytest.approx(0.0, abs=1e-9)
    assert math.isinf(fstar[2])


def test_legendre_biconjugate_dominates():
    spec = CostSpec(1.5)
    xs = np.linspace(0.0, 8.0, 2001)
    f = phi_p_eval(spec, xs)
    lam, fstar = legendre_numeric(xs, f, np.linspace(0.0, 6.0, 1201))
    finite = np.isfinite(fstar)
    _, fss = legendre_numeric(lam[finite], fstar[finite], xs)
    # (f*)* >= f up to grid resolution on the window where it is finite
    ok = np.isfinite(fss)
    assert np.all(fss[ok] >= f[ok] - 1e-4)


def test_legendre_output_convex_monotone():
    spec = CostSpec(2.0)
    xs = np.linspace(0.0, 10.0, 2001)
    lam, fstar = legendre_numeric(xs, phi_p_eval(spec, xs), np.linspace(0, 4, 401))
    assert np.all(np.diff(fstar) >= -1e-12)
    assert np.all(np.diff(fstar, 2) >= -1e-9)


def test_empty_grid_rejected():
    with pytest.raises(ValidationError):
        legendre_numeric(np.array([]), np.array([]), np.array([1.0]))


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_legendre_rejects_nan_and_minus_inf(bad):
    """Only +inf entries are skipped: a -inf would make f* = +inf, and a
    NaN has no value, so neither may vanish from the sup."""
    xs = np.linspace(0.0, 1.0, 5)
    f = xs.copy()
    f[2] = bad
    with pytest.raises(ValidationError, match="no NaN or -inf"):
        legendre_numeric(xs, f, np.array([0.5]))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
def test_legendre_rejects_a_non_finite_lam(lam):
    xs = np.linspace(0.0, 1.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="lam must be finite"):
            legendre_numeric(xs, xs * xs, np.atleast_1d(lam))


def test_cost_spec_q():
    assert CostSpec(2.0).q == 2.0
    assert CostSpec(1.0).q == math.inf
    assert CostSpec(1.5).q == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        CostSpec(0.5)
