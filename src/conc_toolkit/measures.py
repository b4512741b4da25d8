"""Measure substrates: 1-D densities on an interval and finite metric spaces.

A :class:`Measure1D` is the probability measure with density
``exp(-V(x)) / Z`` on a bounded window ``[a, b]``, where ``V`` is the
piecewise-linear interpolant of tabulated potential values.  Committing to
the piecewise-linear model makes every derived quantity *cell-exact*: the
mass of a cell ``[x_i, x_{i+1}]`` is an elementary integral of
``exp(-(v_i + s * slope))``, and the same closed forms give the CDF,
survival function, quantiles and first moments to floating-point accuracy.
Potentials that are themselves piecewise linear (e.g. ``V(x) = |x|``) are
represented without discretization error.

Survival probabilities are accumulated from the right so that deep-tail
values like ``1 - F(x) ~ 1e-100`` retain full relative accuracy; the naive
``1 - cdf(x)`` would lose all precision past ``~1e-13``.

A :class:`DiscreteSpace` is a finite point set with an explicit metric
matrix and a probability weight vector; it is the substrate for the exact
(enumeration and LP based) oracles elsewhere in the toolkit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .costs import _argument, _count, _float_array, _real, _shaped
from .errors import DomainError, ToolkitError, ValidationError

_CONVEXITY_TOL = 1e-9
# slack of the metric axioms and of the weight sign in a DiscreteSpace
_SPACE_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _read_only_state(obj, state: dict) -> None:
    """``__setstate__`` of the frozen classes: numpy does not pickle the
    writeable flag, so every array comes back read-only again."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            _read_only(value)
    obj.__dict__.update(state)


# ---------------------------------------------------------------------------
# exp-of-linear cell primitives
# ---------------------------------------------------------------------------

def _e1(u: np.ndarray) -> np.ndarray:
    """(1 - exp(-u)) / u, the relative mass factor of an exp-linear cell."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-12
    safe = np.where(small, 1.0, u)
    out = -np.expm1(-safe) / safe
    return np.where(small, 1.0 - 0.5 * u, out)


def _e2(u: np.ndarray) -> np.ndarray:
    """(1 - (1 + u) exp(-u)) / u^2, the first-moment factor of a cell."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-2
    out = np.empty_like(u)
    # each form only on its own elements; the series' powers are products,
    # since numpy's pow for s**3 and s**4 costs more than the closed form
    d = u[~small]
    out[~small] = (1.0 - (1.0 + d) * np.exp(-d)) / (d * d)
    s = u[small]
    s2 = s * s
    out[small] = 0.5 - s / 3.0 + s2 / 8.0 - s2 * s / 30.0 + s2 * s2 / 144.0
    return out


def _cell_partial_mass(v0, b, t):
    """Unnormalized mass of exp(-(v0 + b s)) over s in [0, t]."""
    t = np.asarray(t, dtype=float)
    return np.exp(-np.asarray(v0, dtype=float)) * t * _e1(np.asarray(b) * t)


def _cell_partial_moment(v0, b, t):
    """Unnormalized integral of s * exp(-(v0 + b s)) over s in [0, t]."""
    t = np.asarray(t, dtype=float)
    return np.exp(-np.asarray(v0, dtype=float)) * t * t * _e2(np.asarray(b) * t)


def _cells(potential: np.ndarray, widths: np.ndarray):
    """(shift, potential - shift, slopes, unnormalised masses) of the
    exp-linear cells of a piecewise-linear potential, shifted to minimum 0."""
    shift = float(potential.min())
    shifted = potential - shift
    slopes = np.diff(potential) / widths
    return shift, shifted, slopes, _cell_partial_mass(shifted[:-1], slopes, widths)


def _scaled_target(v, target):
    """target * exp(v) computed in log space so that huge potentials with
    correspondingly tiny targets cannot overflow."""
    target = np.asarray(target, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.exp(np.log(np.where(target > 0.0, target, 1.0)) + np.asarray(v))
    return np.where(target > 0.0, out, 0.0)


def _solve_mass_forward(v0, b, target):
    """Solve cell_partial_mass(v0, b, t) = target for t >= 0.

    Floating-point overshoot past the cell's full mass maps to +inf here
    and is clipped to the cell width by the caller.
    """
    te = _scaled_target(v0, target)
    b = np.asarray(b, dtype=float)
    w = te * b
    small = np.abs(w) < 1e-10
    # 1 in place of the slope only where the linear branch is taken: the
    # direct one divides by b however small, as |te b| >= 1e-10 there
    with np.errstate(divide="ignore"):
        direct = -np.log1p(-np.minimum(np.where(small, 0.0, w), 1.0)) / np.where(small, 1.0, b)
    linear = te * (1.0 + 0.5 * w)
    return np.where(small, linear, direct)


# ---------------------------------------------------------------------------
# Measure1D
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure1D:
    """Probability measure exp(-V(x)) dx / Z on [grid[0], grid[-1]].

    Immutable after construction: its arrays are read-only copies of the
    inputs.  All evaluation methods are pure and cell-exact for the
    piecewise-linear potential model, and each reads the one cell table
    built here (the first moments and node weights on first use).

    Attributes
    ----------
    grid, potential:
        Strictly increasing node positions and potential values.
    log_z:
        log of the normalization integral of exp(-V).  This and the two
        certificates below are derived, never init arguments.
    kappa:
        Semi-convexity certificate: max(0, -inf V'') over interior nodes.
    logconcave:
        True iff the tabulated potential is discretely convex.
    provenance:
        Construction metadata (preset name, perturbation caps, ...).
    """

    grid: np.ndarray
    potential: np.ndarray
    log_z: float = field(init=False)
    kappa: float = field(init=False)
    logconcave: bool = field(init=False)
    provenance: dict = field(default_factory=dict)
    __setstate__ = _read_only_state

    def __post_init__(self) -> None:
        grid = _float_array(self.grid, "grid")
        pot = _float_array(self.potential, "potential")
        if grid.ndim != 1 or grid.size < 3:
            raise ValidationError("grid must be 1-D with at least 3 points")
        if pot.shape != grid.shape:
            raise ValidationError("potential must match grid shape")
        if not np.all(np.diff(grid) > 0):
            raise ValidationError("grid must be strictly increasing (sorted)")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(pot)):
            raise ValidationError("non-integrable potential: nonfinite values")

        widths = np.diff(grid)
        v_shift, shifted, slopes, cell_mass_u = _cells(pot, widths)
        z_u = float(cell_mass_u.sum())
        if not math.isfinite(z_u) or z_u <= 0.0:
            raise ValidationError("non-integrable potential: mass diverges on grid")
        # z_u = exp(v_shift) * int exp(-V) dx
        object.__setattr__(self, "log_z", math.log(z_u) - v_shift)

        cell_mass = cell_mass_u / z_u
        cdf_nodes = np.concatenate(([0.0], np.cumsum(cell_mass)))
        sf_nodes = np.concatenate((np.cumsum(cell_mass[::-1])[::-1], [0.0]))
        # the cell table; grid and potential are copied, so the caller's
        # arrays stay theirs and these stay as validated
        for name, value in (("grid", grid.copy()), ("potential", pot.copy()),
                            ("_widths", widths), ("_slopes", slopes),
                            ("_shifted_potential", shifted), ("_m0", cell_mass_u),
                            ("_cell_mass", cell_mass), ("cdf_nodes", cdf_nodes),
                            ("sf_nodes", sf_nodes)):
            object.__setattr__(self, name, _read_only(value))
        object.__setattr__(self, "_z_shifted", z_u)

        # Certificates, like log_z, are always derived from the tabulated
        # potential, never trusted from input or serialized state; kappa
        # from the discrete V'' at the interior nodes.
        second = 2.0 * np.diff(slopes) / (widths[:-1] + widths[1:])
        scale = 1.0 + float(np.abs(pot).max())
        object.__setattr__(self, "kappa", float(max(0.0, -second.min())))
        object.__setattr__(self, "logconcave",
                           bool(np.all(np.diff(slopes) >= -_CONVEXITY_TOL * scale)))

    @cached_property
    def _m1(self) -> np.ndarray:
        """Unnormalised first moments of the cells about their left nodes."""
        return _read_only(_cell_partial_moment(self._shifted_potential[:-1], self._slopes,
                                               self._widths))

    @cached_property
    def _node_weights(self) -> np.ndarray:
        right = self._m1 / self._widths
        w = np.zeros(self.grid.size)
        w[:-1] += self._m0 - right
        w[1:] += right
        return _read_only(w / self._z_shifted)

    # -- elementary queries -------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    @property
    def cell_masses(self) -> np.ndarray:
        """Normalized per-cell masses, computed cell-exactly (never by
        differencing the CDF, which loses everything below ~1e-16)."""
        return self._cell_mass

    def potential_at(self, x) -> float | np.ndarray:
        x = _argument(x, "x")
        return _shaped(x, np.interp(x, self.grid, self.potential))

    def log_density(self, x) -> float | np.ndarray:
        x = _argument(x, "x")
        inside = (x >= self.grid[0]) & (x <= self.grid[-1])
        out = -(np.interp(x, self.grid, self.potential) + self.log_z)
        return _shaped(x, np.where(inside, out, -np.inf))

    def density(self, x) -> float | np.ndarray:
        x = _argument(x, "x")
        return _shaped(x, np.exp(self.log_density(x)))

    # -- cell-exact CDF / survival / quantiles -------------------------------

    def _partial_cell(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cell index, normalized mass of the cell left of x) per x: the
        cell-exact part of both the CDF and the survival function."""
        i = np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0, self.grid.size - 2)
        t = np.clip(x - self.grid[i], 0.0, self._widths[i])
        part = _cell_partial_mass(self._shifted_potential[i], self._slopes[i], t)
        return i, part / self._z_shifted

    def cdf(self, x) -> float | np.ndarray:
        x = _argument(x, "x")
        i, part = self._partial_cell(x)
        out = self.cdf_nodes[i] + part
        out = np.where(x <= self.grid[0], 0.0, np.where(x >= self.grid[-1], 1.0, out))
        return _shaped(x, np.clip(out, 0.0, 1.0))  # rounding can step past 1

    def sf(self, x) -> float | np.ndarray:
        """Survival 1 - F(x), accumulated from the right tail."""
        x = _argument(x, "x")
        i, part = self._partial_cell(x)
        out = self.sf_nodes[i] - part
        out = np.where(x <= self.grid[0], 1.0, np.where(x >= self.grid[-1], 0.0, out))
        return _shaped(x, np.clip(out, 0.0, 1.0))  # rounding can step below 0

    def quantile(self, u) -> float | np.ndarray:
        """Left-tail quantile: x with F(x) = u (accurate for small u)."""
        u = _float_array(u, "u")
        if not np.all((u >= 0) & (u <= 1)):
            raise DomainError("quantile argument must lie in [0, 1]")
        i = np.clip(np.searchsorted(self.cdf_nodes, u, side="right") - 1, 0, self.grid.size - 2)
        rem = (u - self.cdf_nodes[i]) * self._z_shifted
        rem = np.maximum(rem, 0.0)
        t = _solve_mass_forward(self._shifted_potential[i], self._slopes[i], rem)
        out = self.grid[i] + np.minimum(t, self._widths[i])
        out = np.where(u >= 1.0, self.grid[-1], out)
        return _shaped(u, out)

    def quantile_upper(self, tail) -> float | np.ndarray:
        """Right-tail quantile: x with 1 - F(x) = tail (accurate for small tail)."""
        tail = _float_array(tail, "tail")
        if not np.all((tail >= 0) & (tail <= 1)):
            raise DomainError("tail mass must lie in [0, 1]")
        # sf_nodes is decreasing; locate cell whose right node has sf <= tail.
        rev = self.sf_nodes[::-1]
        j = np.searchsorted(rev, tail, side="right")
        hi = np.clip(self.sf_nodes.size - j, 1, self.grid.size - 1)
        i = hi - 1
        rem = (tail - self.sf_nodes[hi]) * self._z_shifted
        rem = np.maximum(rem, 0.0)
        # read from the cell's right end, the potential falls at the slope
        tau = _solve_mass_forward(self._shifted_potential[hi], -self._slopes[i], rem)
        out = self.grid[hi] - np.minimum(tau, self._widths[i])
        out = np.where(tail >= 1.0, self.grid[0], out)
        return _shaped(tail, out)

    def median(self) -> float:
        return self.quantile(0.5)

    # -- cell-exact integrals ------------------------------------------------

    def interval_mass(self, a: float, b: float) -> float:
        if b < a:
            raise DomainError("interval endpoints out of order")
        return float(np.clip(self.cdf(b) - self.cdf(a), 0.0, 1.0))

    def partial_moment(self, a: float, b: float) -> float:
        """Integral of x over [a, b] against the measure, cell-exact."""
        lo, hi = self.support
        a, b = max(_real(a, "a", "[-inf, inf]"), lo), min(_real(b, "b", "[-inf, inf]"), hi)
        if b <= a:
            return 0.0
        xs = self.grid
        i0 = int(np.searchsorted(xs, a, side="right") - 1)
        i1 = int(np.searchsorted(xs, b, side="left"))
        i0 = max(i0, 0)
        nodes = np.concatenate(([a], xs[i0 + 1 : i1], [b]))
        left = nodes[:-1]
        t = np.diff(nodes)
        v_left = np.interp(left, xs, self._shifted_potential)
        cell_idx = np.clip(np.searchsorted(xs, left, side="right") - 1, 0, xs.size - 2)
        b_slope = self._slopes[cell_idx]
        m0 = _cell_partial_mass(v_left, b_slope, t)
        m1 = _cell_partial_moment(v_left, b_slope, t)
        return float(np.sum(left * m0 + m1) / self._z_shifted)

    def mean(self) -> float:
        return self.integrate_nodes(self.grid)

    def node_weights(self) -> np.ndarray:
        """Quadrature weights w with sum_i w_i f_i = int f dmu exactly for
        every piecewise-linear f on the grid (read-only, built once)."""
        return self._node_weights

    def integrate_nodes(self, values) -> float:
        """Integral of the piecewise-linear interpolant of node values,
        cell-exact against the density."""
        values = _argument(values, "values")
        if values.shape != self.grid.shape:
            raise ValidationError("node values must match the grid")
        f_slope = np.diff(values) / self._widths
        return float(np.sum(values[:-1] * self._m0 + f_slope * self._m1) / self._z_shifted)

    def log_mgf_nodes(self, values, lam: float) -> float:
        """log of the integral of exp(lam * f) against the measure, for
        piecewise-linear node values f.

        Exact for the grid model: the tilted potential V - lam * f is
        again piecewise linear, so the same cell formulas apply.
        """
        values = _argument(values, "values")
        if values.shape != self.grid.shape:
            raise ValidationError("node values must match the grid")
        shift, _, _, mass = self._tilted_cells(values, _real(lam, "lam"))
        total = float(mass.sum())
        if not math.isfinite(total) or total <= 0.0:
            return math.inf
        # log int e^{lam f} e^{-V} dx - log Z
        return math.log(total) - shift - self.log_z

    def _tilted_cells(self, values: np.ndarray, lam: float):
        """``_cells`` of the tilted potential V - lam * values."""
        tilted = self.potential - lam * values
        if not np.all(np.isfinite(tilted)):
            raise ValidationError("tilted potential has nonfinite values")
        return _cells(tilted, self._widths)

    def _tilted_moments(self, lam: float) -> tuple[float, float]:
        """(log M(lam), mean) of the measure tilted by e^{lam x}, M(lam) the
        integral of e^{lam x}: the floats ``log_mgf_nodes(grid, lam)`` and
        the tilted measure's ``mean()`` give, without building it."""
        shift, shifted, slopes, m0 = self._tilted_cells(self.grid, lam)
        z_u = float(m0.sum())
        if not math.isfinite(z_u) or z_u <= 0.0:
            raise ValidationError("non-integrable potential: mass diverges on grid")
        m1 = _cell_partial_moment(shifted[:-1], slopes, self._widths)
        return (math.log(z_u) - shift - self.log_z,
                float(np.sum(self.grid[:-1] * m0 + m1) / z_u))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "grid": self.grid.tolist(),
            "potential": self.potential.tolist(),
            "logZ": self.log_z,
            "kappa": self.kappa,
            "logconcave": self.logconcave,
            "provenance": self.provenance,
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "Measure1D":
        """The measure in a JSON file that holds ``grid`` and ``potential``."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ToolkitError(f"cannot read {path}: {exc.strerror}") from None
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
        missing = [k for k in ("grid", "potential")
                   if not isinstance(data, dict) or k not in data]
        if missing:
            raise ValidationError(f"{path} lacks the key(s) {', '.join(missing)}")
        return cls(grid=data["grid"], potential=data["potential"],
                   provenance=dict(data.get("provenance", {})))


def is_symmetric(mu: Measure1D) -> bool:
    """True when the grid and potential are mirror-symmetric about the
    window midpoint, to 1e-9 of the window and of the potential's scale."""
    x = mu.grid
    v = mu.potential
    mid = 0.5 * (x[0] + x[-1])
    span = x[-1] - x[0]
    sym_x = np.allclose(x + x[::-1], 2 * mid, atol=1e-9 * span, rtol=0.0)
    sym_v = np.allclose(v, v[::-1], atol=1e-9 * (1.0 + np.abs(v).max()), rtol=0.0)
    return bool(sym_x and sym_v)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _odd_point_count(n: int) -> int:
    # Symmetric presets keep x = 0 as a node so that potentials with a kink
    # at the origin (|x|^p, p near 1) are represented exactly.
    return n if n % 2 == 1 else n + 1


def build_measure_1d(
    grid: np.ndarray | None = None,
    potential: np.ndarray | None = None,
    *,
    preset: str | None = None,
    p: float | None = None,
    a: float = 0.0,
    half_width: float | None = None,
    n_points: int = 4096,
) -> Measure1D:
    """Construct a 1-D measure from a potential grid or a named preset.

    Presets:

    ``gamma_p``
        density exp(-|x|^p / p) / Z_p on a symmetric window, p in [1, 8].
        The default window satisfies |x|^p / p >= 36 at the edges so the
        truncated tail mass is far below 1e-12.
    ``gaussian_restricted``
        the standard Gaussian restricted to [a, oo), truncated where the
        tail mass is negligible.
    """
    if preset is None:
        if grid is None or potential is None:
            raise ValidationError("either a (grid, potential) pair or a preset is required")
        return Measure1D(grid=grid, potential=potential,
                         provenance={"source": "potential-grid"})
    n_points = _count(n_points, "n_points", 3)
    a = _real(a, "a")
    if half_width is not None:
        half_width = _real(half_width, "half_width")

    if preset == "gamma_p":
        p = _real(p, "p", "[1, 8]")
        r = half_width if half_width is not None else (36.0 * p) ** (1.0 / p)
        n = _odd_point_count(n_points)
        xs = np.linspace(-r, r, n)
        vs = np.abs(xs) ** p / p
        return Measure1D(
            grid=xs, potential=vs,
            provenance={"source": "preset", "preset": "gamma_p", "p": p,
                        "half_width": float(r)},
        )

    if preset == "gaussian_restricted":
        hi = half_width if half_width is not None else max(a + 10.0, 10.0)
        xs = np.linspace(a, hi, n_points)
        vs = 0.5 * xs * xs
        return Measure1D(
            grid=xs, potential=vs,
            provenance={"source": "preset", "preset": "gaussian_restricted",
                        "a": a, "hi": float(hi)},
        )

    raise ValidationError(f"unknown preset {preset!r}")


# the keywords each derive mode requires
_DERIVE_KEYS = {"density-ratio": ("phi", "cap"), "restrict": ("a", "b"), "translate": ("t",)}


def derive_measure(mu1: Measure1D, mode: str, **kwargs) -> Measure1D:
    """Derive a perturbed measure from ``mu1``.

    Modes
    -----
    ``density-ratio``: multiply the density by exp(phi) (node values
        ``phi``) and renormalize; rejects when the attained
        sup log(d mu2 / d mu1) exceeds the declared cap ``D``.
    ``restrict``: condition on an interval ``(a, b)``; rejects zero-mass
        intervals.  Restriction of a log-concave measure to an interval
        keeps the certificate.
    ``translate``: shift the support by ``t``.
    """
    if mode not in _DERIVE_KEYS:
        raise ValidationError(f"unknown derive mode {mode!r}")
    missing = [key for key in _DERIVE_KEYS[mode] if key not in kwargs]
    if missing:
        raise ValidationError(f"derive mode {mode!r} requires {', '.join(missing)}")
    if mode == "density-ratio":
        phi = _float_array(kwargs["phi"], "phi")
        cap = _real(kwargs["cap"], "cap", "[0, inf)")
        if phi.shape != mu1.grid.shape:
            raise ValidationError("phi must be tabulated on the same grid")
        # sup log(d mu2/d mu1) = sup phi - log int e^phi d mu1
        attained = float(np.max(phi)) - mu1.log_mgf_nodes(phi, 1.0)
        if attained > cap + 1e-9:
            raise ValidationError(
                f"density-ratio cap violated after normalization: "
                f"attained {attained:.6g} > D = {cap:.6g}")
        prov = {"source": "density-ratio", "cap": cap, "attained": attained,
                "parent": mu1.provenance}
        return Measure1D(grid=mu1.grid, potential=mu1.potential - phi, provenance=prov)

    if mode == "restrict":
        # the ends may be infinite: the CLI's defaults are -inf and inf
        a = _real(kwargs["a"], "a", "[-inf, inf]")
        b = _real(kwargs["b"], "b", "[-inf, inf]")
        lo, hi = mu1.support
        a, b = max(a, lo), min(b, hi)
        if not (a < b):
            raise ValidationError("restriction interval misses the support")
        mass = mu1.interval_mass(a, b)
        if mass <= 0.0:
            raise ValidationError("restriction interval has zero mass")
        inner = mu1.grid[(mu1.grid > a) & (mu1.grid < b)]
        xs = np.unique(np.concatenate(([a], inner, [b])))
        if xs.size < 3:
            xs = np.linspace(a, b, 5)
        vs = mu1.potential_at(xs)
        prov = {"source": "restrict", "interval": [a, b], "p": float(mass),
                "parent": mu1.provenance}
        return Measure1D(grid=xs, potential=vs, provenance=prov)

    t = _real(kwargs["t"], "t")  # translate
    prov = {"source": "translate", "t": t, "parent": mu1.provenance}
    return Measure1D(grid=mu1.grid + t, potential=mu1.potential, provenance=prov)


# ---------------------------------------------------------------------------
# DiscreteSpace
# ---------------------------------------------------------------------------

def _checked_spaces(d: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checks of DiscreteSpace on K spaces at once, distances ``d``
    (K, n, n) and weights ``w`` (K, n); past K = 1 a message names the first
    space at fault.  Returns the stacks as DiscreteSpace stores them."""

    def fault(bad: np.ndarray, text) -> None:  # text(k): the message for space k
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(text(k) if len(d) == 1 else f"space {k}: {text(k)}")

    for name, values in (("dist", d), ("weights", w)):
        fault(~np.isfinite(values).reshape(len(values), -1).all(axis=1),
              lambda k: f"{name} must hold finite numbers only")
    if d.ndim != 3 or d.shape[1] != d.shape[2]:
        raise ValidationError("distance matrix must be square")
    count, n = d.shape[:2]
    if w.shape != (count, n):
        raise ValidationError("weights length must match the point count")
    fault(np.abs(d - d.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0) > _SPACE_TOL,
          lambda k: "distance matrix must be symmetric")
    fault(np.abs(np.diagonal(d, axis1=1, axis2=2)).max(axis=1, initial=0.0) > _SPACE_TOL,
          lambda k: "dist(i, i) must be 0")
    # the tolerated asymmetry and diagonal must not count: keep the upper
    # triangle, mirrored, on a copy (``d`` may be the caller's array)
    upper = np.triu(d, 1)
    d = upper + upper.transpose(0, 2, 1)
    close = d + np.eye(n) <= 0.0
    fault(close.any(axis=(1, 2)), lambda k: "dist({}, {}) must be positive for i != j".format(
        *np.argwhere(close[k])[0]))
    fault((w < -_SPACE_TOL).any(axis=1), lambda k: f"negative weight at point {np.argmin(w[k])}")
    sums = w.sum(axis=1)
    fault(np.abs(sums - 1.0) > 1e-9, lambda k: f"weights sum to {sums[k]:.12g}, expected 1")
    # Triangle inequality d[i,j] <= d[i,k] + d[k,j], over blocks of k of at
    # most 2^16 entries (one k at a time at K n^2 >= 2^16), so no K n^3
    # temporary is built; the violation named is the first (space, k, i, j).
    step, hits = max(1, 2**16 // max(d.size, 1)), []
    for k0 in range(0, n, step):
        ks = slice(k0, k0 + step)
        slack = d[:, None] - (d[:, :, ks].transpose(0, 2, 1)[..., None] + d[:, ks, None, :])
        if np.any(slack > _SPACE_TOL):
            s, k, i, j = np.argwhere(slack > _SPACE_TOL)[0]
            hits.append((s, k + k0, i, j))
    if hits:
        s, k, i, j = min(hits)
        fault(np.arange(count) == s, lambda _: (
            f"triangle inequality violated by triple ({i}, {k}, {j}): "
            f"d({i},{j}) = {d[s, i, j]:.6g} > {d[s, i, k] + d[s, k, j]:.6g}"))
    return d, np.maximum(w, 0.0)


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite metric-measure space: symmetric distance matrix + weights.

    Construction rejects non-finite entries and metric-axiom violations,
    naming the field, pair or triple, and weights that are negative or do
    not sum to 1; negative weights within 1e-9 of zero are clipped to 0.
    Both arrays are read-only copies of the inputs.
    """

    dist: np.ndarray
    weights: np.ndarray
    __setstate__ = _read_only_state

    def __post_init__(self) -> None:
        d, w = _checked_spaces(_float_array(self.dist, "dist")[None],
                               _float_array(self.weights, "weights")[None])
        object.__setattr__(self, "dist", _read_only(d[0]))
        object.__setattr__(self, "weights", _read_only(w[0]))

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def breakpoints(self) -> np.ndarray:
        """Distinct positive pairwise distances, sorted."""
        iu = np.triu_indices(self.n, k=1)
        return np.unique(self.dist[iu])


def build_discrete_space(dist: np.ndarray, weights: np.ndarray) -> DiscreteSpace:
    """A finite metric-measure space; DiscreteSpace validates it."""
    return DiscreteSpace(dist=dist, weights=weights)


def atomize_1d(mu: Measure1D, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-mass atomization: m atoms at conditional cell barycenters.

    Placing each atom at the conditional mean of its quantile cell keeps
    signed first moments exact per cell, so 1-D transport costs between
    two measures atomized at the same levels agree with the continuum
    values to within the (rare) sign-straddling cells.
    """
    m = _count(m, "m", 2)
    edges = mu.quantile(np.linspace(0.0, 1.0, m + 1))
    edges[0], edges[-1] = mu.support
    pos = np.empty(m)
    for k in range(m):
        a, b = float(edges[k]), float(edges[k + 1])
        mass = mu.interval_mass(a, b)
        if mass <= 0:
            pos[k] = 0.5 * (a + b)
        else:
            pos[k] = mu.partial_moment(a, b) / mass
    return pos, np.full(m, 1.0 / m)


def discrete_space_from_atoms(pos: np.ndarray, weights: np.ndarray) -> DiscreteSpace:
    """Finite metric space on 1-D atoms with the absolute-value metric."""
    pos = _float_array(pos, "pos")
    d = np.abs(pos[:, None] - pos[None, :])
    return build_discrete_space(d, weights)
