"""Poincare, log-Sobolev and modified log-Sobolev machinery on the line.

These functionals are continuum-only: the metric-space gradient
``limsup |f(y) - f(x)| / d(x, y)`` vanishes identically on a finite space
(every point is isolated), so discrete substrates never enter here.

The Poincare constant comes from the generalized eigenvalue problem of
the discretized Rayleigh quotient int f'^2 dmu / Var(f); the stiffness
and mass assemblies are exact for piecewise-linear trial functions, so
the usual O(h^2) finite-element convergence applies and is checked by a
Richardson pass on a coarsened grid.  The eigenvalue is a Sturm-count
bisection over Python floats from [0, R], R the Rayleigh quotient of
f = x, which by Courant-Fischer bounds the eigenvalue from above.

Log-Sobolev constants are reported as certified *upper* bounds on the
best constant: any single admissible function gives one, and the
minimization over the candidate family is nonconvex, so no claim of
attainment is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, _float_array, _real, phi_star_eval
from .errors import DomainError, ValidationError
from .measures import Measure1D
from .reports import ConstantEntry

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class GridFunction:
    """Node values of a function on a measure's grid; the gradient is the
    central difference at interior nodes (one-sided at the boundary)."""

    measure: Measure1D
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _float_array(self.values, "values")
        if vals.shape != self.measure.grid.shape:
            raise ValidationError("values must match the measure grid")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    def gradient_magnitude(self) -> np.ndarray:
        x = self.measure.grid
        f = self.values
        grad = np.gradient(f, x)
        return np.abs(grad)

    def log_square_gradient_half(self) -> np.ndarray:
        """|grad log(f^2)| / 2, the safe reading of |grad f| / |f|."""
        x = self.measure.grid
        logs = np.log(np.maximum(self.values**2, _LOG_FLOOR))
        return 0.5 * np.abs(np.gradient(logs, x))


def _entropy(weights: np.ndarray, g: np.ndarray) -> float:
    """Ent_mu(g) = int g log g dmu - (int g) log(int g) for g >= 0, the
    integrals by mu's node weights, with the 0 log 0 = 0 convention."""
    g = np.maximum(np.asarray(g, dtype=float), 0.0)
    mass = float(np.dot(weights, g))
    if mass <= 0:
        return 0.0
    glg = np.where(g > 0, g * np.log(np.maximum(g, _LOG_FLOOR)), 0.0)
    return float(np.dot(weights, glg)) - mass * math.log(mass)


# ---------------------------------------------------------------------------
# Poincare constant
# ---------------------------------------------------------------------------

_MASS_CUT = 1e-250


def _poincare_eigenvalue(mu: Measure1D) -> float:
    """Smallest nonzero generalized eigenvalue of the pencil
    (stiffness, lumped mass).  Both matrices are assembled from exact
    cell masses; constants span the stiffness nullspace, so the second
    eigenvalue is the Rayleigh infimum over mean-zero functions, and the
    quotient of f = x minus its mean, sum of cell masses over
    sum node_mass (x - mean)^2, bounds it from above (Courant-Fischer).

    Nodes whose cumulative mass falls below ``_MASS_CUT`` are dropped
    before the solve (natural Neumann condition at the cut): it sits just
    above double-precision underflow, where cell masses become exact zeros
    and would otherwise produce NaN rows in the symmetrized matrix; the
    perturbation of the low eigenvalues is O(_MASS_CUT).
    """
    keep = (mu.cdf_nodes >= _MASS_CUT) & (mu.sf_nodes >= _MASS_CUT)
    if keep.sum() < 16:
        keep = np.ones(mu.grid.size, dtype=bool)
    i0 = int(np.argmax(keep))
    i1 = int(mu.grid.size - np.argmax(keep[::-1]))
    xs = mu.grid[i0:i1]
    cell_mass = mu.cell_masses[i0 : i1 - 1]
    positive = cell_mass > 0
    if not np.all(positive):
        # trim any residual underflowed cells at the edges
        j0 = int(np.argmax(positive))
        j1 = int(positive.size - np.argmax(positive[::-1]))
        xs = xs[j0 : j1 + 1]
        cell_mass = cell_mass[j0:j1]
    h = np.diff(xs)
    half = 0.5 * cell_mass
    node_mass = np.append(half, 0.0) + np.insert(half, 0, 0.0)
    k = cell_mass / h**2
    d = (np.append(k, 0.0) + np.insert(k, 0, 0.0)) / node_mass
    e = -k / np.sqrt(node_mass[:-1] * node_mass[1:])
    centred = xs - np.dot(node_mass, xs) / node_mass.sum()
    return _second_eigenvalue(d, e, float(cell_mass.sum() / np.dot(node_mass, centred**2)))


def _second_eigenvalue(d: np.ndarray, e: np.ndarray, hi: float) -> float:
    """Second-smallest eigenvalue of the symmetric tridiagonal matrix (d, e)
    of a positive semidefinite pencil, given ``hi`` > 0, an estimate of it
    from above such as a Rayleigh quotient: Sturm-count bisection over Python
    floats (numpy's is ~20x slower) until the midpoint rounds to an end.
    LAPACK's pivmin guard keeps the count monotone in x (Demmel, Dhillon,
    Ren 1995), so the bisection ends at the smallest float with two
    eigenvalues below it from any bracket whose low end counts fewer and
    whose high end counts two.  The bracket is [0, hi], with hi doubled
    until it counts two: a Rayleigh quotient can sit a rounding below the
    computed eigenvalue when its test function is the eigenfunction.
    When 0 already counts two, the eigenvalue is 0 to working precision
    and 0.0 is returned."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValidationError("tridiagonal entries must be finite")
    if not 0.0 < hi < math.inf:
        raise ValidationError(f"hi must lie in (0, inf), got {hi!r}")
    d_list, e2 = d.tolist(), [0.0] + (e * e).tolist()
    pivmin = float(np.finfo(float).tiny) * max(e2 + [1.0])

    def two_below(x: float) -> bool:
        count, q = 0, 1.0
        for di, e2i in zip(d_list, e2):
            q = (di - x) - e2i / q
            if q < pivmin:  # |q| < pivmin is taken as -pivmin
                count += 1
                if count == 2:
                    return True
                q = min(q, -pivmin)
        return False

    lo = 0.0
    if two_below(lo):
        return lo
    while not two_below(hi):
        hi *= 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if two_below(mid) else (mid, hi)
    return hi


def poincare_constant_1d(mu: Measure1D, *, richardson: bool = True) -> ConstantEntry:
    """Best constant D in D^2 Var(f) <= int |f'|^2 dmu, via the spectral
    gap of the discretized quotient; two-sided up to grid error.

    A Richardson pass on the half-resolution grid estimates the
    discretization error and is stored with the witnesses.
    """
    if mu.grid.size < 256:
        raise DomainError("Poincare solve needs a grid with >= 256 points")
    lam = _poincare_eigenvalue(mu)
    witnesses = {"eigenvalue": lam}
    if richardson:
        lam_coarse = _poincare_eigenvalue(Measure1D(
            grid=mu.grid[::2], potential=mu.potential[::2], provenance={}))
        # second-order extrapolation: lam_true ~ lam + (lam - lam_coarse)/3
        witnesses["eigenvalue_coarse"] = lam_coarse
        witnesses["richardson"] = lam + (lam - lam_coarse) / 3.0
    return ConstantEntry(
        constant_id="D_Poin",
        value=math.sqrt(max(lam, 0.0)),
        direction="two-sided",
        method="sqrt of the 2nd generalized eigenvalue of the discretized "
               "Rayleigh quotient (exact piecewise-linear assembly)",
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# log-Sobolev constant
# ---------------------------------------------------------------------------

def _exp_family_ratio(mu: Measure1D, lam: float) -> float:
    """Rayleigh quotient int f'^2 dmu / Ent(f^2) for f = exp(lam x / 2),
    evaluated by exact tilted-cell integrals."""
    log_m, mean_tilted = mu._tilted_moments(lam)
    ent = lam * mean_tilted - log_m  # Ent(e^{lam x}) / int e^{lam x} dmu
    if ent <= 0:
        return math.inf
    return (lam * lam / 4.0) / ent


def _generic_ratio(mu: Measure1D, values: np.ndarray) -> float:
    f = GridFunction(mu, values)
    grad = f.gradient_magnitude()
    weights = mu.node_weights()
    num = float(np.dot(weights, grad**2))
    ent = _entropy(weights, values**2)
    if ent <= 1e-14 * (1.0 + num):
        return math.inf
    return num / ent


def logsob_constant_1d(mu: Measure1D) -> ConstantEntry:
    """Certified upper bound on the best rho in
    rho Ent(f^2) <= int |f'|^2 dmu.

    Candidates: the exponential family exp(lam x / 2) and x exp(lam x / 2)
    for lam in +-{1/4, 1/2, 1, 2} (the former by exact tilted-cell
    evaluation), piecewise-linear bumps at 7 quantile positions, and a
    golden-section polish of the exponential family.
    """
    if mu.grid.size < 256:
        raise DomainError("log-Sobolev estimate needs a grid with >= 256 points")
    lams = np.array([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0])
    best = math.inf
    best_desc: dict = {}
    for lam in lams:
        r = _exp_family_ratio(mu, lam)
        if r < best:
            best, best_desc = r, {"family": "exp", "lam": float(lam)}
    # golden-section polish around the best exponential candidate
    if best_desc.get("family") == "exp":
        lo = best_desc["lam"] / 2.0
        hi = best_desc["lam"] * 2.0
        if lo > hi:
            lo, hi = hi, lo
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = _exp_family_ratio(mu, c), _exp_family_ratio(mu, d)
        for _ in range(39):  # the surviving interior point is reused
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = _exp_family_ratio(mu, c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = _exp_family_ratio(mu, d)
        a, b = (a, d) if fc < fd else (c, b)  # the 40th step needs no new point
        lam_star = 0.5 * (a + b)
        r = _exp_family_ratio(mu, lam_star)
        if r < best:
            best, best_desc = r, {"family": "exp", "lam": float(lam_star)}
    for lam in lams:
        vals = mu.grid * np.exp(np.clip(lam * mu.grid / 2.0, -300, 300))
        r = _generic_ratio(mu, vals)
        if r < best:
            best, best_desc = r, {"family": "x exp", "lam": float(lam)}
    lo, hi = mu.support
    centers = mu.quantile(np.linspace(0.1, 0.9, 7))
    width = 0.25 * (hi - lo)
    for c in centers:
        vals = np.maximum(1.0 - np.abs(mu.grid - c) / width, 0.0) + 1e-3
        r = _generic_ratio(mu, vals)
        if r < best:
            best, best_desc = r, {"family": "bump", "center": float(c)}
    if not math.isfinite(best):
        raise DomainError("all candidates have zero entropy")
    return ConstantEntry(
        constant_id="rho_LS",
        value=best,
        direction="upper",
        method="min of int f'^2 / Ent(f^2) over exponential/bump candidate "
               "family (no attainment claim)",
        witnesses=best_desc,
    )


# ---------------------------------------------------------------------------
# pointwise functional-inequality evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalEvalResult:
    lhs: float
    rhs: float
    satisfied: bool
    flag: str = ""


def functional_inequality_eval(mu: Measure1D, f: GridFunction, form: str,
                               *, q: float, rate: float) -> FunctionalEvalResult:
    """Evaluate both sides of a q-log-Sobolev or modified log-Sobolev
    inequality for a single trial function.

    ``q-LS``:   rate * Ent(|f|^q)^{1/q}  <=  || |grad f| ||_{L^q}
    ``mod-LS``: Ent(f^2) <= int f^2 phi_star_q((1/rate) |grad f|/|f|) dmu

    with |grad f|/|f| read as |grad log f^2| / 2.  A +oo on the right
    (the q = oo dual cost past its corner) satisfies the inequality
    vacuously and is flagged.
    """
    if f.measure is not mu:
        raise ValidationError("grid function must live on the given measure")
    rate = _real(rate, "rate", "(0, inf)")
    weights = mu.node_weights()
    if form == "q-LS":
        q = _real(q, "q", "[1, 2]")
        ent = _entropy(weights, np.abs(f.values) ** q)
        lhs = rate * ent ** (1.0 / q)
        grad = f.gradient_magnitude()
        rhs = float(np.dot(weights, grad**q)) ** (1.0 / q)
        if ent <= 1e-14:
            return FunctionalEvalResult(lhs, rhs, True, "zero-entropy")
        return FunctionalEvalResult(lhs, rhs, lhs <= rhs * (1 + 1e-12), "")
    if form == "mod-LS":
        q = _real(q, "q", "[1, inf]")
        ent = _entropy(weights, f.values**2)
        ratio = f.log_square_gradient_half() / rate
        if q == 1.0:
            star = ratio.copy()  # phi_star_1(t) = t
        else:
            p = 1.0 if math.isinf(q) else q / (q - 1.0)
            star = phi_star_eval(CostSpec(p), ratio)
        f_sq = f.values**2
        contributions = np.where((weights * f_sq) > 0, star, 0.0)
        if np.any(np.isinf(contributions)):
            return FunctionalEvalResult(ent, math.inf, True, "vacuous(+oo)")
        rhs = float(np.dot(weights, f_sq * star))
        if ent <= 1e-14:
            return FunctionalEvalResult(ent, rhs, True, "zero-entropy")
        return FunctionalEvalResult(ent, rhs, ent <= rhs * (1 + 1e-12), "")
    raise DomainError(f"unknown form {form!r}")
