"""One array contract for every vectorized evaluator: a scalar argument
gives a float, an array-like argument an ndarray of the same shape whose
entries equal the scalar calls."""

import math
import warnings

import numpy as np
import pytest

from conc_toolkit.costs import (
    CostSpec,
    phi_inverse,
    phi_p_eval,
    phi_star_eval,
)
from conc_toolkit.errors import DomainError
from conc_toolkit.laplace import ConcBound, LaplaceBound, log_laplace
from conc_toolkit.measures import build_measure_1d
from conc_toolkit.profiles import Profile, iso_profile_1d

MU = build_measure_1d(preset="gamma_p", p=2.0, n_points=201)
_PHI_X = np.linspace(0.0, 5.0, 41)
LB = LaplaceBound(phi_x=_PHI_X, phi_vals=_PHI_X**2, rate=1.0, eps=0.1, delta=0.2)
CB = ConcBound(phi_x=_PHI_X, phi_vals=_PHI_X**2, rate=2.0, offset=0.1)
TABLE = dict(kind="bound-alpha", inputs=[0.0, 0.3, 0.6, 0.9],
             values=[0.7, 0.8, 1.1, 1.5])
STEP = Profile(**TABLE, step=True)
LINEAR = Profile(**TABLE)
WEIGHTS = np.array([0.2, 0.3, 0.5])
SPEC = CostSpec(1.5)

EVALUATORS = {
    "Measure1D.cdf": MU.cdf,
    "Measure1D.sf": MU.sf,
    "Measure1D.quantile": MU.quantile,
    "Measure1D.quantile_upper": MU.quantile_upper,
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
}
# inside every evaluator's domain (quantile levels, Profile tables, x >= 0)
POINTS = np.array([0.1, 0.25, 0.4, 0.7])
# evaluators that keep numpy's return types, under the same NaN contract
NAN_CHECKED = {**EVALUATORS, "Measure1D.density": MU.density,
               "Measure1D.log_density": MU.log_density,
               "Measure1D.potential_at": MU.potential_at}


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


@pytest.mark.parametrize("name", sorted(NAN_CHECKED))
@pytest.mark.parametrize("arg", [math.nan, [0.25, math.nan]], ids=["scalar", "in-array"])
def test_nan_argument_raises(name, arg):
    with pytest.raises(DomainError):
        NAN_CHECKED[name](arg)


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
