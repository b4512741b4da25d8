"""One array contract for every vectorized evaluator: a scalar argument
gives a float, an array-like argument an ndarray of the same shape whose
entries equal the scalar calls.  And one converter at every public entry
point: an argument that is not numbers raises ValidationError."""

import math
import warnings

import numpy as np
import pytest

from conc_toolkit.costs import (
    CostSpec,
    graded_cost_grid,
    legendre_numeric,
    phi_inverse,
    phi_p_eval,
    phi_star_eval,
)
from conc_toolkit.errors import DomainError, ValidationError
from conc_toolkit.functional import GridFunction
from conc_toolkit.laplace import ConcBound, LaplaceBound, gibbs_check, log_laplace
from conc_toolkit.measures import (
    build_measure_1d,
    derive_measure,
    discrete_space_from_atoms,
)
from conc_toolkit.profiles import Profile, conc_profile, exp_p_gamma_shape, iso_profile_1d
from conc_toolkit.suites import run_suite, run_suites
from conc_toolkit.transport import (
    kr_dual,
    psi1_metric_bound,
    te_constant_estimate,
    transport_costs,
    w1_discrete,
    wc_discrete_lp,
    wc_monotone_1d,
    ws_1d,
)

MU = build_measure_1d(preset="gamma_p", p=2.0, n_points=201)
_PHI_X = np.linspace(0.0, 5.0, 41)
LB = LaplaceBound(phi_x=_PHI_X, phi_vals=_PHI_X**2, rate=1.0, eps=0.1, delta=0.2)
CB = ConcBound(phi_x=_PHI_X, phi_vals=_PHI_X**2, rate=2.0, offset=0.1)
TABLE = dict(kind="bound-alpha", inputs=[0.0, 0.3, 0.6, 0.9],
             values=[0.7, 0.8, 1.1, 1.5])
STEP = Profile(**TABLE, step=True)
LINEAR = Profile(**TABLE)
WEIGHTS = np.array([0.2, 0.3, 0.5])
SPACE = discrete_space_from_atoms([0.0, 1.0, 3.0], WEIGHTS)
SPEC = CostSpec(1.5)

EVALUATORS = {
    "Measure1D.cdf": MU.cdf,
    "Measure1D.sf": MU.sf,
    "Measure1D.quantile": MU.quantile,
    "Measure1D.quantile_upper": MU.quantile_upper,
    "Measure1D.density": MU.density,
    "Measure1D.log_density": MU.log_density,
    "Measure1D.potential_at": MU.potential_at,
    "Profile.at[step]": STEP.at,
    "Profile.at[linear]": LINEAR.at,
    "LaplaceBound.phi_star_at": LB.phi_star_at,
    "LaplaceBound.rhs_log": LB.rhs_log,
    "ConcBound.alpha_at": CB.alpha_at,
    "log_laplace[Measure1D]": lambda lam: log_laplace(MU, np.tanh(MU.grid), lam),
    "log_laplace[weights]": lambda lam: log_laplace(WEIGHTS, [1.0, -0.5, 0.25], lam),
    "phi_p_eval": lambda x: phi_p_eval(SPEC, x),
    "phi_star_eval": lambda x: phi_star_eval(SPEC, x),
    "phi_inverse": lambda y: phi_inverse(SPEC, y),
    "legendre_numeric": lambda lam: legendre_numeric(_PHI_X, _PHI_X**2, lam)[1],
}
# inside every evaluator's domain (quantile levels, Profile tables, x >= 0)
POINTS = np.array([0.1, 0.25, 0.4, 0.7])
# public entry point -> a call that hands it "a" where it takes numbers
NOT_NUMBERS = {
    "phi_p_eval": lambda a: phi_p_eval(SPEC, a),
    "Measure1D.cdf": lambda a: MU.cdf(a),
    "Measure1D.sf": lambda a: MU.sf(a),
    "Measure1D.quantile": lambda a: MU.quantile(a),
    "Profile.at": lambda a: STEP.at(a),
    "Profile": lambda a: Profile(kind="bound-alpha", inputs=a, values=[0.7]),
    "LaplaceBound.phi_star_at": lambda a: LB.phi_star_at(a),
    "LaplaceBound": lambda a: LaplaceBound(phi_x=a, phi_vals=_PHI_X, rate=1.0),
    "log_laplace[lam]": lambda a: log_laplace(MU, np.tanh(MU.grid), a),
    "log_laplace[f]": lambda a: log_laplace(WEIGHTS, [a, a, a], 1.0),
    "log_laplace[weights]": lambda a: log_laplace([a, a, a], [1.0, -0.5, 0.25], 1.0),
    "gibbs_check": lambda a: gibbs_check(WEIGHTS, [a, a, a]),
    "transport_costs": lambda a: transport_costs(SPACE, [[a, a, a]], WEIGHTS,
                                                 [SPACE.dist]),
    "wc_discrete_lp": lambda a: wc_discrete_lp(SPACE, [a, a, a], WEIGHTS),
    "kr_dual": lambda a: kr_dual(SPACE, [a, a, a], WEIGHTS),
    "w1_discrete": lambda a: w1_discrete(SPACE, [a, a, a], WEIGHTS),
    "psi1_metric_bound": lambda a: psi1_metric_bound(SPACE, [a, a, a], WEIGHTS),
    "te_constant_estimate": lambda a: te_constant_estimate(SPACE, "wTE(1,p)",
                                                           mu=[a, a, a]),
    "build_measure_1d": lambda a: build_measure_1d([a, a, a], [0.0, 1.0, 2.0]),
    "derive_measure": lambda a: derive_measure(MU, "density-ratio", phi=a, cap=1.0),
    "discrete_space_from_atoms": lambda a: discrete_space_from_atoms([a, a], [0.5, 0.5]),
    "iso_profile_1d": lambda a: iso_profile_1d(MU, [a]),
    "conc_profile": lambda a: conc_profile(MU, r_grid=[a]),
    "legendre_numeric": lambda a: legendre_numeric(_PHI_X, _PHI_X**2, [a]),
    "ws_1d": lambda a: ws_1d(MU, MU, a),
    "wc_monotone_1d": lambda a: wc_monotone_1d(MU, MU, SPEC, a),
    "GridFunction": lambda a: GridFunction(MU, a),
    "graded_cost_grid": lambda a: graded_cost_grid(SPEC, a),
    "exp_p_gamma_shape": lambda a: exp_p_gamma_shape(1.0, 2.0, a),
}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_shape_in_shape_out(name):
    fn = EVALUATORS[name]
    scalars = [fn(float(v)) for v in POINTS]
    assert all(type(s) is float for s in scalars)
    assert type(fn(np.float64(POINTS[0]))) is float
    assert type(fn(np.asarray(POINTS[0]))) is float
    for shape in [(1,), (3,), (2, 2)]:
        x = POINTS[:int(np.prod(shape))].reshape(shape)
        for arg in (x, x.tolist()):
            out = fn(arg)
            assert isinstance(out, np.ndarray) and out.shape == shape
            np.testing.assert_array_equal(out.ravel(), scalars[:x.size])


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@pytest.mark.parametrize("arg", [math.nan, [0.25, math.nan]], ids=["scalar", "in-array"])
def test_nan_argument_raises(name, arg):
    with pytest.raises(DomainError):
        EVALUATORS[name](arg)


@pytest.mark.parametrize("name", sorted(NOT_NUMBERS))
def test_argument_that_is_not_numbers_raises_validation_error(name):
    with pytest.raises(ValidationError, match="must hold numbers only"):
        NOT_NUMBERS[name]("a")


def test_legendre_lam_keeps_the_shape_of_lam():
    lam, fstar = legendre_numeric(_PHI_X, _PHI_X**2, 0.5)
    assert type(lam) is float and type(fstar) is float
    lam, fstar = legendre_numeric(_PHI_X, _PHI_X**2, [[0.5, 1.0]])
    assert lam.shape == fstar.shape == (1, 2)


# an entry point that takes one integer -> a call that hands it ``a``
NOT_INTEGERS = {
    "run_suite[seed]": lambda a: run_suite("going-down-exact", seed=a),
    "run_suites[seed]": lambda a: run_suites(["going-down-exact"], seed=a),
    "run_suites[jobs]": lambda a: run_suites(["going-down-exact"], jobs=a),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
@pytest.mark.parametrize("arg", ["a", 1.5, True, None])
def test_argument_that_is_not_an_integer_raises_validation_error(name, arg):
    with pytest.raises(ValidationError, match="must be an integer"):
        NOT_INTEGERS[name](arg)


@pytest.mark.parametrize("name", ["ws_1d", "wc_monotone_1d"])
def test_order_or_scale_of_more_than_one_number_raises_validation_error(name):
    with pytest.raises(ValidationError, match="must be one number"):
        NOT_NUMBERS[name]([1.0, 2.0])


@pytest.mark.parametrize("name", ["LaplaceBound.phi_star_at", "LaplaceBound.rhs_log"])
@pytest.mark.parametrize("lam", [math.inf, -math.inf, [0.5, math.inf]])
def test_non_finite_lam_raises(name, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="lam must be finite"):
            EVALUATORS[name](lam)


def test_iso_profile_on_one_mass():
    prof = iso_profile_1d(MU, [0.25])
    assert prof.inputs.shape == prof.values.shape == (1,)
    assert prof.values[0] == iso_profile_1d(MU, [0.1, 0.25, 0.4]).values[1]


@pytest.mark.parametrize("x_max", [math.nan, math.inf, -math.inf, -1.0, 0.0])
@pytest.mark.parametrize("name", ["graded_cost_grid", "exp_p_gamma_shape"])
def test_x_max_outside_its_domain_raises(name, x_max):
    """No NaN, infinite, decreasing or all-zero grid, and no numpy warning:
    a window end that is not finite and > 0 (> log 2 for the shape)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="x_max"):
            NOT_NUMBERS[name](x_max)


@pytest.mark.parametrize("x_max", [0.5, math.log(2.0)])
def test_gamma_shape_window_must_end_past_log_2(x_max):
    with pytest.raises(DomainError, match="x_max"):
        exp_p_gamma_shape(1.0, 2.0, x_max)


def test_graded_grid_whose_end_overflows_raises():
    with pytest.raises(DomainError, match="x_max"):
        graded_cost_grid(CostSpec(4.0), 1e300)
    xs = graded_cost_grid(CostSpec(4.0), 1e150)
    assert xs[0] == 0.0 and np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)
