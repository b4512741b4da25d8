"""Convex cost functions used by transport-entropy inequalities.

The family phi_p (p >= 1) is quadratic near the origin and grows like
x^p / p at infinity:

    phi_p(x) = x^p / p                      for p >= 2,
    phi_p(x) = x^2 / 2            on [0, 1]
             = x^p / p + 1/2 - 1/p  on (1, oo)   for p in [1, 2].

Its Legendre transform (restricted to x >= 0) is phi_star_q with the dual
exponent q = p / (p - 1):

    phi_star_q(t) = t^q / q                 for q in [1, 2],
    phi_star_q(t) = t^2 / 2       on [0, 1]
                  = t^q / q + 1/2 - 1/q  on (1, oo)   for q in [2, oo].

The case p = 1 gives q = oo, where phi_star is t^2/2 on [0, 1] and +oo
beyond; infinity is carried as ``math.inf``, never as a large float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError


def _float_array(value, field_name: str) -> np.ndarray:
    """``value`` as a float array, or ValidationError naming the field: the
    one conversion of caller data at every public entry point."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{field_name} must hold numbers only ({exc})") from None


def _argument(x, name: str, *, finite: bool = False) -> np.ndarray:
    """The argument check of every vectorized evaluator: ``x`` as a float
    array (ValidationError for non-numbers), or DomainError when an entry
    is NaN (or, with ``finite``, is not finite)."""
    x = _float_array(x, name)
    bad = ~np.isfinite(x) if finite else np.isnan(x)
    if bad.any():
        raise DomainError(f"{name} must be finite" if finite else f"{name} must not be NaN")
    return x


def _shaped(x: np.ndarray, out) -> float | np.ndarray:
    """The array contract of every vectorized evaluator: ``out`` as a
    float for 0-d input ``x``, else as an array of ``x``'s shape."""
    out = np.asarray(out, dtype=float).reshape(np.shape(x))
    return float(out) if out.ndim == 0 else out


def dual_exponent(p: float) -> float:
    """q = p / (p - 1), with the p = 1 -> q = oo convention."""
    if p < 1.0:
        raise DomainError(f"cost exponent must satisfy p >= 1, got {p}")
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class CostSpec:
    """The exponent pair (p, q) with 1/p + 1/q = 1.

    ``q`` is derived from ``p``; q = oo when p = 1.
    """

    p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.p) or self.p < 1.0:
            raise ValidationError(f"p must be a finite real >= 1, got {self.p}")

    @property
    def q(self) -> float:
        return dual_exponent(self.p)


def phi_p_eval(spec: CostSpec, x):
    """Evaluate phi_p at x >= 0 (scalar or array); branch-exact arithmetic."""
    x = _argument(x, "x")
    if np.any(x < 0):
        raise DomainError("phi_p is defined on x >= 0")
    p = spec.p
    if p >= 2.0:
        out = np.power(x, p) / p
    else:
        out = np.where(
            x <= 1.0,
            0.5 * x * x,
            np.power(np.maximum(x, 1.0), p) / p + 0.5 - 1.0 / p,
        )
    return _shaped(x, out)


def phi_star_eval(spec: CostSpec, lam):
    """Evaluate the dual cost phi_star_q at lam >= 0.

    Returns +oo (math.inf) beyond 1 when q = oo.
    """
    lam = _argument(lam, "lam")
    if np.any(lam < 0):
        raise DomainError("phi_star_q is defined on lam >= 0")
    q = spec.q
    if q <= 2.0:
        out = np.power(lam, q) / q
    elif math.isinf(q):
        out = np.where(lam <= 1.0, 0.5 * lam * lam, np.inf)
    else:
        out = np.array(0.5 * lam * lam)
        above = lam > 1.0
        with np.errstate(over="ignore"):  # lam^q overflows to the true +oo
            out[above] = np.power(lam[above], q) / q + 0.5 - 1.0 / q
    return _shaped(lam, out)


def phi_inverse(spec: CostSpec, y):
    """Monotone inverse of phi_p: the x >= 0 with phi_p(x) = y."""
    y = _argument(y, "y")
    if np.any(y < 0):
        raise DomainError("phi_p^{-1} is defined on y >= 0")
    p = spec.p
    if p >= 2.0:
        out = np.power(p * y, 1.0 / p)
    else:
        # Branch point x = 1 maps to y = 1/2.
        out = np.where(
            y <= 0.5,
            np.sqrt(2.0 * y),
            np.power(p * np.maximum(y - 0.5 + 1.0 / p, 0.0), 1.0 / p),
        )
    return _shaped(y, out)


def conjugate_window(spec: CostSpec, lam_max: float) -> float:
    """Right edge of an x-window large enough that the sup defining
    phi_star_q(lam) is attained inside it for all lam <= lam_max."""
    if spec.p == 1.0:
        return max(2.0, 2.0 * lam_max)  # conjugate infinite past lam = 1
    x_star = lam_max ** (1.0 / (spec.p - 1.0))
    return 1.25 * max(1.0, x_star)


def graded_cost_grid(spec: CostSpec, x_max: float, n: int = 20001) -> np.ndarray:
    """Grid on [0, x_max] equidistributing the discrete-sup error of the
    conjugate of phi_p: spacing h(x) ~ x^{1 - p/2}, i.e. uniform in
    x^{p/2}, matches the curvature decay phi_p'' ~ x^{p - 2}."""
    exponent = max(spec.p / 2.0, 0.5)
    u = np.linspace(0.0, x_max**exponent, n)
    return u ** (1.0 / exponent)


def legendre_numeric(x: np.ndarray, f: np.ndarray,
                     lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Legendre transform f*(lam) = max_x (lam x - f(x)) over a grid.

    ``f`` may contain +oo entries; these are skipped in the sup, and a NaN
    or -oo entry raises ValidationError (a non-finite ``lam``, DomainError).
    When the maximizer sits on the right edge of the grid *and* the
    objective is still increasing there, the true conjugate is unbounded
    beyond the window and the value is reported as +oo rather than the
    spurious finite edge value.

    Returns (lam, f_star).  The output is convex and nondecreasing in lam
    by construction (a max of affine functions with slopes x >= 0).
    """
    x = _float_array(x, "x")
    f = _float_array(f, "f")
    if x.size == 0:
        raise ValidationError("legendre_numeric requires a nonempty grid")
    if x.ndim != 1 or f.shape != x.shape:
        raise ValidationError("x and f must be equal-length 1-D arrays")
    if np.any(np.isnan(f) | np.isneginf(f)):
        raise ValidationError("f may hold +inf entries, but no NaN or -inf")
    finite = np.isfinite(f)
    if not finite.any():
        raise ValidationError("f has no finite entries")
    xf, ff = x[finite], f[finite]
    lam = _argument(lam, "lam", finite=True)

    out = np.empty(lam.shape, dtype=float)
    # Chunk the outer product to bound memory on large grids.
    block = max(1, int(2**22 // max(xf.size, 1)))
    last = xf.size - 1
    for start in range(0, lam.size, block):
        lam_b = lam[start : start + block]
        vals = lam_b[:, None] * xf[None, :] - ff[None, :]
        idx = np.argmax(vals, axis=1)
        best = vals[np.arange(lam_b.size), idx]
        out[start : start + lam_b.size] = best
        if last >= 1:
            # Increasing through the right edge => unbounded conjugate.
            at_edge = idx == last
            growing = vals[:, last] - vals[:, last - 1] > 1e-12 * (
                1.0 + np.abs(vals[:, last])
            )
            out[start : start + lam_b.size][at_edge & growing] = np.inf
    return lam, out
