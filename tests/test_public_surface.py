"""The package's public surface: ``_EXPORTS`` is its one list, and every
keyword default of a public function is pinned here, so a new knob edits
this table in the change that adds it.  Every parameter of a public
function is either in the scalar contract's table (``SCALARS`` in
test_array_contract) or named here as one that is not a scalar; an object
argument of the wrong type raises ValidationError naming it.  A
module-level function or class that is neither public nor used in the
package is dead code."""

import ast
import inspect
from importlib import import_module
from pathlib import Path

import pytest
from test_array_contract import NU, SCALARS, SPACE, WEIGHTS

import conc_toolkit
from conc_toolkit.errors import ValidationError

# public function -> {parameter: default}
KNOBS = {
    "build_measure_1d": {"grid": None, "potential": None, "preset": None, "p": None,
                         "a": 0.0, "half_width": None, "n_points": 4096},
    "conc_profile": {"r_grid": None, "exact": True, "seed": 0},
    "conc_to_iso_form": {"kappa": 0.0, "delta0": None},
    "conc_to_laplace": {"tau": 0.5},
    "exp_p_gamma_shape": {"n": 8193},
    "first_moment_constant": {"mode": "exact"},
    "fit_constant": {"p": None, "reference": None, "constant_id": None},
    "graded_cost_grid": {"n": 20001},
    "iso_profile_1d": {"v_grid": None},
    "iso_stability_transform": {"kappa": 0.0, "delta0": None, "x0": None},
    "laplace_sup_discrete": {"exact": True, "vertices": None, "seed": 0},
    "poincare_constant_1d": {"richardson": True},
    "profile_from_csv": {"kind": "conc", "step": False},
    "psi1_metric_bound": {"candidates": None, "refine": True, "seed": 0},
    "run_suite": {"config": None, "seed": 0},
    "run_suites": {"seed": 0, "jobs": 1},
    "te_constant_estimate": {"p": 1.0, "s": None, "mu": None, "witnesses": None,
                             "max_witnesses": 0},
    "wc_discrete_lp": {"cost": None},
}

# public function -> its parameters that are not one scalar or count:
# measures, spaces, profiles, bounds, arrays, names, flags and paths
NOT_SCALARS = {
    "atomize_1d": "mu",
    "build_discrete_space": "dist weights",
    "build_measure_1d": "grid potential preset",
    "conc_going_down": "alpha1",
    "conc_profile": "source r_grid exact",
    "conc_to_iso_form": "alpha",
    "conc_to_laplace": "bound",
    "derive_measure": "mu1 mode kwargs",
    "discrete_space_from_atoms": "pos weights",
    "divergences": "nu mu",
    "first_moment_constant": "source mode",
    "fit_constant": "profile template reference constant_id",
    "functional_inequality_eval": "mu f form",
    "gibbs_check": "mu psi",
    "graded_cost_grid": "spec",
    "iso_profile_1d": "mu v_grid",
    "iso_stability_transform": "gamma1",
    "iso_to_conc": "gamma",
    "kr_dual": "space nu mu",
    "laplace_sup_discrete": "space mu lam exact vertices",
    "laplace_to_conc": "bound",
    "legendre_numeric": "x f lam",
    "log_laplace": "mu f lam",
    "logsob_constant_1d": "mu",
    "mean_zero_lipschitz_vertices": "space mu",
    "phi_inverse": "spec y",
    "phi_p_eval": "spec x",
    "phi_star_eval": "spec lam",
    "poincare_constant_1d": "mu richardson",
    "profile_from_csv": "path kind step",
    "profile_to_csv": "profile path",
    "profile_to_svg": "profile path",
    "psi1_metric_bound": "space nu mu candidates refine",
    "run_suite": "suite_id config",
    "run_suites": "suite_ids",
    "te_constant_estimate": "source mode mu witnesses",
    "transport_costs": "space nus mu costs",
    "w1_1d": "mu nu",
    "w1_discrete": "space nu mu",
    "wc_discrete_lp": "space nu mu cost",
    "wc_monotone_1d": "mu nu spec",
    "ws_1d": "mu nu",
}


# public function -> (its object argument, a call that hands that argument
# ``a``, and the type it must have)
OBJECT_ARGUMENTS = {
    "kr_dual": ("space", lambda a: conc_toolkit.kr_dual(a, NU, WEIGHTS), "DiscreteSpace"),
    "laplace_sup_discrete": ("space", lambda a: conc_toolkit.laplace_sup_discrete(
        a, WEIGHTS, [1.0]), "DiscreteSpace"),
    "mean_zero_lipschitz_vertices": ("space", lambda a: conc_toolkit.mean_zero_lipschitz_vertices(
        a, WEIGHTS), "DiscreteSpace"),
    "transport_costs": ("space", lambda a: conc_toolkit.transport_costs(
        a, [NU], WEIGHTS, [SPACE.dist]), "DiscreteSpace"),
    "w1_discrete": ("space", lambda a: conc_toolkit.w1_discrete(a, NU, WEIGHTS), "DiscreteSpace"),
    "wc_discrete_lp": ("space", lambda a: conc_toolkit.wc_discrete_lp(a, NU, WEIGHTS),
                       "DiscreteSpace"),
}


@pytest.mark.parametrize("name", sorted(OBJECT_ARGUMENTS))
def test_object_argument_of_the_wrong_type_raises_naming_it(name):
    param, call, kind = OBJECT_ARGUMENTS[name]
    assert param in inspect.signature(getattr(conc_toolkit, name)).parameters
    call(SPACE)  # the right type passes
    with pytest.raises(ValidationError, match=f"^{param} must be a {kind}, got str$"):
        call("x")


def test_every_keyword_default_is_in_the_table():
    found = {}
    for name in conc_toolkit.__all__:
        obj = getattr(conc_toolkit, name)
        if not inspect.isfunction(obj):
            continue
        defaults = {k: p.default for k, p in inspect.signature(obj).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        if defaults:
            found[name] = defaults
    assert found == KNOBS


def test_modules_keep_no_list_of_their_own():
    modules = sorted(set(conc_toolkit._EXPORTS.values()))
    assert [m for m in modules
            if hasattr(import_module(f"conc_toolkit.{m}"), "__all__")] == []


def test_every_parameter_is_in_the_scalar_contract_or_not_a_scalar():
    checked = {}
    for name, param, *_ in SCALARS:
        checked.setdefault(name, set()).add(param)
    unlisted, stale = {}, {}
    for name in conc_toolkit.__all__:
        obj = getattr(conc_toolkit, name)
        if not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters
        other = set(NOT_SCALARS.get(name, "").split())
        if rest := set(params) - checked.get(name, set()) - other:
            unlisted[name] = sorted(rest)
        if gone := other - set(params):
            stale[name] = sorted(gone)
    assert unlisted == {} and stale == {}


def test_every_module_level_definition_is_public_or_used():
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(conc_toolkit.__file__).parent.glob("*.py")}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in conc_toolkit._EXPORTS or (name.startswith("__") and name.endswith("__")):
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(getattr(sub, "id", getattr(sub, "attr", None)) == name
                       and id(sub) not in own
                       for other in trees.values() for sub in ast.walk(other)):
                unused.append(f"{module}.{name}")
    assert unused == []
