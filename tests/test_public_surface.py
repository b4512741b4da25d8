"""The package's public surface: ``_EXPORTS`` is its one list, and every
keyword default of a public function is pinned here, so a new knob edits
this table in the change that adds it."""

import inspect
from importlib import import_module

import conc_toolkit

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
