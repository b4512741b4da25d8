"""One array contract for every vectorized evaluator: a scalar argument
gives a float, an array-like argument an ndarray of the same shape whose
entries equal the scalar calls.  And one converter at every public entry
point: an argument that is not numbers raises ValidationError.  And one
scalar contract: every public scalar or count parameter takes one number
in its interval (one integer from its least value), else ValidationError
for what is not one number (integer) and DomainError for what lies
outside."""

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
from conc_toolkit.functional import GridFunction, functional_inequality_eval
from conc_toolkit.laplace import (
    ConcBound,
    LaplaceBound,
    conc_to_laplace,
    gibbs_check,
    herbst_laplace,
    laplace_sup_discrete,
    log_laplace,
)
from conc_toolkit.measures import (
    atomize_1d,
    build_measure_1d,
    derive_measure,
    discrete_space_from_atoms,
)
from conc_toolkit.profiles import (
    LOG2,
    Profile,
    conc_going_down,
    conc_profile,
    conc_to_iso_form,
    exp_p_gamma_shape,
    fit_constant,
    iso_profile_1d,
    iso_stability_transform,
)
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


GAMMA = exp_p_gamma_shape(1.0, 2.0, 20.0)
NU = np.array([0.5, 0.3, 0.2])
GRID_F = GridFunction(MU, np.cos(MU.grid))


def _phi_bound(cls, **scalars):
    return cls(phi_x=_PHI_X, phi_vals=_PHI_X**2, **{"rate": 1.0, **scalars})


# every public scalar and count parameter: (public name, parameter, a call
# that hands it the value, its interval or, for a count, the least integer
# it takes); ``test_public_surface`` checks that no parameter is missing
SCALARS = [
    ("CostSpec", "p", CostSpec, "[1, inf)"),
    ("LaplaceBound", "rate", lambda v: _phi_bound(LaplaceBound, rate=v), "(0, inf)"),
    ("LaplaceBound", "eps", lambda v: _phi_bound(LaplaceBound, eps=v), "[0, inf)"),
    ("LaplaceBound", "delta", lambda v: _phi_bound(LaplaceBound, delta=v), "[0, inf)"),
    ("ConcBound", "rate", lambda v: _phi_bound(ConcBound, rate=v), "(0, inf)"),
    ("ConcBound", "offset", lambda v: _phi_bound(ConcBound, offset=v), "[0, inf)"),
    ("ConcBound", "log_slack", lambda v: _phi_bound(ConcBound, log_slack=v),
     f"[{-LOG2!r}, inf)"),
    ("Measure1D.partial_moment", "a", lambda v: MU.partial_moment(v, 1.0), "[-inf, inf]"),
    ("Measure1D.partial_moment", "b", lambda v: MU.partial_moment(-1.0, v), "[-inf, inf]"),
    ("Measure1D.log_mgf_nodes", "lam", lambda v: MU.log_mgf_nodes(MU.grid, v), "(-inf, inf)"),
    ("atomize_1d", "m", lambda v: atomize_1d(MU, v), 2),
    ("build_measure_1d", "p",
     lambda v: build_measure_1d(preset="gamma_p", p=v, n_points=201), "[1, 8]"),
    ("build_measure_1d", "a",
     lambda v: build_measure_1d(preset="gaussian_restricted", a=v, n_points=201),
     "(-inf, inf)"),
    ("build_measure_1d", "half_width",
     lambda v: build_measure_1d(preset="gamma_p", p=2.0, half_width=v, n_points=201),
     "(-inf, inf)"),
    ("build_measure_1d", "n_points",
     lambda v: build_measure_1d(preset="gamma_p", p=2.0, n_points=v), 3),
    ("conc_going_down", "cap_d", lambda v: conc_going_down(LINEAR, v), "[0, inf)"),
    ("conc_profile", "seed", lambda v: conc_profile(SPACE, exact=False, seed=v), 0),
    ("conc_to_iso_form", "kappa", lambda v: conc_to_iso_form(LINEAR, v, 0.6), "[0, inf)"),
    ("conc_to_iso_form", "delta0", lambda v: conc_to_iso_form(LINEAR, 1.0, v), "(0.5, inf)"),
    ("conc_to_laplace", "tau", lambda v: conc_to_laplace(CB, v), "(0, 1)"),
    ("derive_measure", "cap",
     lambda v: derive_measure(MU, "density-ratio", phi=np.zeros(MU.grid.size), cap=v),
     "[0, inf)"),
    ("derive_measure", "a", lambda v: derive_measure(MU, "restrict", a=v, b=1.0),
     "[-inf, inf]"),
    ("derive_measure", "b", lambda v: derive_measure(MU, "restrict", a=-1.0, b=v),
     "[-inf, inf]"),
    ("derive_measure", "t", lambda v: derive_measure(MU, "translate", t=v), "(-inf, inf)"),
    ("exp_p_gamma_shape", "c", lambda v: exp_p_gamma_shape(v, 2.0, 20.0), "(0, inf)"),
    ("exp_p_gamma_shape", "p", lambda v: exp_p_gamma_shape(1.0, v, 20.0), "[1, inf)"),
    ("exp_p_gamma_shape", "x_max", lambda v: exp_p_gamma_shape(1.0, 2.0, v),
     f"({LOG2!r}, inf)"),
    ("exp_p_gamma_shape", "n", lambda v: exp_p_gamma_shape(1.0, 2.0, 20.0, n=v), 2),
    ("fit_constant", "p", lambda v: fit_constant(LINEAR, "p-exp-conc", p=v), "[1, inf)"),
    ("functional_inequality_eval", "q",
     lambda v: functional_inequality_eval(MU, GRID_F, "q-LS", q=v, rate=1.0), "[1, 2]"),
    ("functional_inequality_eval", "q",
     lambda v: functional_inequality_eval(MU, GRID_F, "mod-LS", q=v, rate=1.0), "[1, inf]"),
    ("functional_inequality_eval", "rate",
     lambda v: functional_inequality_eval(MU, GRID_F, "mod-LS", q=2.0, rate=v), "(0, inf)"),
    ("graded_cost_grid", "x_max", lambda v: graded_cost_grid(SPEC, v), "(0, inf)"),
    ("graded_cost_grid", "n", lambda v: graded_cost_grid(SPEC, 5.0, n=v), 2),
    ("herbst_laplace", "rho", herbst_laplace, "(0, inf)"),
    ("iso_stability_transform", "cap_d", lambda v: iso_stability_transform(GAMMA, v),
     "[0, inf)"),
    ("iso_stability_transform", "kappa",
     lambda v: iso_stability_transform(GAMMA, 0.5, kappa=v, delta0=0.6, x0=1.0), "[0, inf)"),
    ("iso_stability_transform", "delta0",
     lambda v: iso_stability_transform(GAMMA, 0.5, kappa=1.0, delta0=v, x0=1.0),
     "(0.5, inf)"),
    ("iso_stability_transform", "x0",
     lambda v: iso_stability_transform(GAMMA, 0.5, kappa=1.0, delta0=0.6, x0=v),
     "(-inf, inf)"),
    ("laplace_sup_discrete", "seed",
     lambda v: laplace_sup_discrete(SPACE, WEIGHTS, 1.0, exact=False, seed=v), 0),
    ("psi1_metric_bound", "seed", lambda v: psi1_metric_bound(SPACE, NU, WEIGHTS, seed=v), 0),
    ("run_suite", "seed", lambda v: run_suite("going-down-exact", seed=v), 0),
    ("run_suites", "seed", lambda v: run_suites(["going-down-exact"], seed=v), 0),
    ("run_suites", "jobs", lambda v: run_suites(["going-down-exact"], jobs=v), 1),
    ("te_constant_estimate", "p",
     lambda v: te_constant_estimate(SPACE, "wTE(1,p)", p=v, mu=WEIGHTS), "[1, inf)"),
    ("te_constant_estimate", "s",
     lambda v: te_constant_estimate(SPACE, "TE(s,p)", s=v, mu=WEIGHTS), "[1, inf)"),
    ("te_constant_estimate", "max_witnesses",
     lambda v: te_constant_estimate(SPACE, "wTE(1,p)", mu=WEIGHTS, max_witnesses=v), 0),
    ("wc_monotone_1d", "scale", lambda v: wc_monotone_1d(MU, MU, SPEC, v), "[0, inf)"),
    ("ws_1d", "s", lambda v: ws_1d(MU, MU, v), "[1, inf)"),
]


def _bad_values(row):
    """(value, the error it must raise) for each probe of one parameter:
    not one number, NaN, the infinities and the values just outside an
    interval, or, for a count, what is not an integer and one below its
    least value."""
    name, param, _, domain = row
    if isinstance(domain, int):
        return [(v, ValidationError) for v in ("a", [1, 2], math.nan, math.inf,
                                               domain + 0.5, True)
                ] + [(domain - 1, DomainError)]
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    outside = [math.nan]
    for end, closed, away in ((lo, domain[0] == "[", -math.inf),
                              (hi, domain[-1] == "]", math.inf)):
        if math.isinf(end):
            outside += [] if closed else [end]
        else:
            outside += [away, np.nextafter(end, away) if closed else end]
    return [("a", ValidationError), ([1.0, 2.0], ValidationError)] + [
        (v, DomainError) for v in outside]


PROBES = [(row, value, error) for row in SCALARS for value, error in _bad_values(row)]


@pytest.mark.parametrize(
    "row,value,error", PROBES,
    ids=[f"{row[0]}.{row[1]}[{value!r}]" for row, value, _ in PROBES])
def test_scalar_outside_its_contract_raises_naming_it(row, value, error):
    name, param, call, _ = row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=rf"^{param}\b"):
            call(value)


# a public method that takes node values on the measure's grid -> a call
# that hands it ``values``
NODE_VALUES = {
    "Measure1D.integrate_nodes": MU.integrate_nodes,
    "Measure1D.log_mgf_nodes": lambda values: MU.log_mgf_nodes(values, 1.0),
}


@pytest.mark.parametrize("name", sorted(NODE_VALUES))
@pytest.mark.parametrize("where", ["all", "one"])
def test_nan_node_values_raise_naming_them(name, where):
    values = np.full(MU.grid.size, math.nan) if where == "all" else np.cos(MU.grid)
    values[MU.grid.size // 2] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^values must not be NaN"):
            NODE_VALUES[name](values)


def test_restriction_ends_may_be_infinite():
    """The CLI's defaults for the ends of ``derive --mode restrict``."""
    mu = derive_measure(MU, "restrict", a=-math.inf, b=math.inf)
    assert mu.support == MU.support
    np.testing.assert_array_equal(mu.grid, MU.grid)
