"""Numerical toolkit for isoperimetric, concentration, functional and
transport-entropy inequalities on 1-D measures and finite metric spaces.

Each public name loads its module on first access (PEP 562), so a
program pays only for the modules it uses."""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it; the one list of the public
# surface (the modules keep no ``__all__`` of their own)
_EXPORTS: dict[str, str] = {
    **dict.fromkeys(("CostSpec", "graded_cost_grid", "legendre_numeric",
                     "phi_inverse", "phi_p_eval", "phi_star_eval"), "costs"),
    **dict.fromkeys(("DomainError", "ToolkitError", "UnsupportedSizeError",
                     "ValidationError"), "errors"),
    **dict.fromkeys(("FunctionalEvalResult", "GridFunction", "functional_inequality_eval",
                     "logsob_constant_1d", "poincare_constant_1d"), "functional"),
    **dict.fromkeys(("ConcBound", "GibbsCheck", "LaplaceBound", "conc_to_laplace",
                     "gibbs_check", "herbst_laplace", "laplace_sup_discrete",
                     "laplace_to_conc", "log_laplace", "mean_zero_lipschitz_vertices"),
                    "laplace"),
    **dict.fromkeys(("DiscreteSpace", "Measure1D", "atomize_1d", "build_discrete_space",
                     "build_measure_1d", "derive_measure", "discrete_space_from_atoms"),
                    "measures"),
    **dict.fromkeys(("Profile", "conc_going_down", "conc_profile", "conc_to_iso_form",
                     "exp_p_gamma_shape", "fit_constant", "iso_profile_1d",
                     "iso_stability_transform", "iso_to_conc", "profile_from_csv",
                     "profile_to_csv", "profile_to_svg"), "profiles"),
    **dict.fromkeys(("ConstantEntry", "ConstantsReport"), "reports"),
    **dict.fromkeys(("SUITE_DEFAULTS", "SUITE_IDS", "SuiteReport", "run_suite",
                     "run_suites"), "suites"),
    **dict.fromkeys(("DivergenceReport", "KRDualResult", "Psi1Bound", "TransportPlan",
                     "divergences", "first_moment_constant", "kr_dual", "psi1_metric_bound",
                     "te_constant_estimate", "transport_costs", "w1_1d", "w1_discrete",
                     "wc_discrete_lp", "wc_monotone_1d", "ws_1d"), "transport"),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
