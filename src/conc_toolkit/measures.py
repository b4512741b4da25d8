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
from typing import Any

import numpy as np

from .errors import DomainError, ToolkitError, ValidationError

__all__ = [
    "Measure1D",
    "DiscreteSpace",
    "build_measure_1d",
    "derive_measure",
    "build_discrete_space",
    "check_semi_convexity",
    "atomize_1d",
]

_CONVEXITY_TOL = 1e-9


def _read_json(path: str, keys: tuple[str, ...]) -> dict[str, Any]:
    """The JSON object in ``path``, which must hold every one of ``keys``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ToolkitError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    missing = [k for k in keys if not isinstance(data, dict) or k not in data]
    if missing:
        raise ValidationError(f"{path} lacks the key(s) {', '.join(missing)}")
    return data


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
    safe = np.where(small, 1.0, u)
    direct = (1.0 - (1.0 + safe) * np.exp(-safe)) / (safe * safe)
    series = 0.5 - u / 3.0 + u * u / 8.0 - u**3 / 30.0 + u**4 / 144.0
    return np.where(small, series, direct)


def _cell_partial_mass(v0, b, t):
    """Unnormalized mass of exp(-(v0 + b s)) over s in [0, t]."""
    t = np.asarray(t, dtype=float)
    return np.exp(-np.asarray(v0, dtype=float)) * t * _e1(np.asarray(b) * t)


def _cell_partial_moment(v0, b, t):
    """Unnormalized integral of s * exp(-(v0 + b s)) over s in [0, t]."""
    t = np.asarray(t, dtype=float)
    return np.exp(-np.asarray(v0, dtype=float)) * t * t * _e2(np.asarray(b) * t)


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
    safe_b = np.where(np.abs(b) < 1e-300, 1.0, b)
    with np.errstate(divide="ignore"):
        direct = -np.log1p(-np.minimum(np.where(small, 0.0, w), 1.0)) / safe_b
    linear = te * (1.0 + 0.5 * w)
    return np.where(small, linear, direct)


def _solve_mass_backward(v1, b, target):
    """Solve for tau >= 0 with unnormalized mass over [x_hi - tau, x_hi]
    equal to target, where the potential is v1 - b * (x_hi - x)."""
    te = _scaled_target(v1, target)
    b = np.asarray(b, dtype=float)
    w = te * b
    small = np.abs(w) < 1e-10
    safe_b = np.where(np.abs(b) < 1e-300, 1.0, b)
    with np.errstate(divide="ignore"):
        direct = np.log1p(np.maximum(np.where(small, 0.0, w), -1.0)) / safe_b
    linear = te * (1.0 - 0.5 * w)
    return np.where(small, linear, direct)


# ---------------------------------------------------------------------------
# Measure1D
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure1D:
    """Probability measure exp(-V(x)) dx / Z on [grid[0], grid[-1]].

    Immutable after construction; all evaluation methods are pure and
    cell-exact for the piecewise-linear potential model.

    Attributes
    ----------
    grid, potential:
        Strictly increasing node positions and potential values.
    log_z:
        log of the normalization integral of exp(-V).
    kappa:
        Semi-convexity certificate: max(0, -inf V'') over interior nodes.
    logconcave:
        True iff the tabulated potential is discretely convex.
    provenance:
        Construction metadata (preset name, perturbation caps, ...).
    """

    grid: np.ndarray
    potential: np.ndarray
    log_z: float = field(default=math.nan)
    kappa: float = field(default=0.0)
    logconcave: bool = field(default=False)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        pot = np.asarray(self.potential, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise ValidationError("grid must be 1-D with at least 3 points")
        if pot.shape != grid.shape:
            raise ValidationError("potential must match grid shape")
        if not np.all(np.diff(grid) > 0):
            raise ValidationError("grid must be strictly increasing (sorted)")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(pot)):
            raise ValidationError("non-integrable potential: nonfinite values")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "potential", pot)

        widths = np.diff(grid)
        slopes = np.diff(pot) / widths
        v_shift = float(pot.min())
        shifted = pot - v_shift
        cell_mass_u = _cell_partial_mass(shifted[:-1], slopes, widths)
        z_u = float(cell_mass_u.sum())
        if not math.isfinite(z_u) or z_u <= 0.0:
            raise ValidationError("non-integrable potential: mass diverges on grid")
        # z_u = exp(v_shift) * int exp(-V) dx
        log_z = math.log(z_u) - v_shift
        if math.isnan(self.log_z):
            object.__setattr__(self, "log_z", log_z)

        cell_mass = cell_mass_u / z_u
        cdf_nodes = np.concatenate(([0.0], np.cumsum(cell_mass)))
        sf_nodes = np.concatenate((np.cumsum(cell_mass[::-1])[::-1], [0.0]))
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_v_shift", v_shift)
        object.__setattr__(self, "_shifted_potential", shifted)
        object.__setattr__(self, "_z_shifted", z_u)
        object.__setattr__(self, "_cell_mass", cell_mass)
        object.__setattr__(self, "cdf_nodes", cdf_nodes)
        object.__setattr__(self, "sf_nodes", sf_nodes)

        # Certificates are always derived from the tabulated potential,
        # never trusted from input or serialized state.
        second = self.second_differences()
        kappa = float(max(0.0, -second.min())) if second.size else 0.0
        scale = 1.0 + float(np.abs(pot).max())
        logconcave = bool(np.all(np.diff(slopes) >= -_CONVEXITY_TOL * scale))
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "logconcave", logconcave)

    # -- elementary queries -------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    @property
    def cell_masses(self) -> np.ndarray:
        """Normalized per-cell masses, computed cell-exactly (never by
        differencing the CDF, which loses everything below ~1e-16)."""
        return self._cell_mass

    def second_differences(self) -> np.ndarray:
        """Discrete V'' at interior nodes (boundary excluded)."""
        h = self._widths
        return 2.0 * np.diff(self._slopes) / (h[:-1] + h[1:])

    def potential_at(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.grid, self.potential)

    def log_density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = -(self.potential_at(x) + self.log_z)
        inside = (x >= self.grid[0]) & (x <= self.grid[-1])
        return np.where(inside, out, -np.inf)

    def density(self, x) -> np.ndarray:
        return np.exp(self.log_density(x))

    # -- cell-exact CDF / survival / quantiles -------------------------------

    def _locate(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.grid, x, side="right") - 1
        return np.clip(idx, 0, self.grid.size - 2)

    def cdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        i = self._locate(x)
        t = np.clip(x - self.grid[i], 0.0, self._widths[i])
        part = _cell_partial_mass(self._shifted_potential[i], self._slopes[i], t)
        out = self.cdf_nodes[i] + part / self._z_shifted
        out = np.where(x <= self.grid[0], 0.0, np.where(x >= self.grid[-1], 1.0, out))
        return out if out.size > 1 else float(out[0])

    def sf(self, x) -> np.ndarray:
        """Survival 1 - F(x), accumulated from the right tail."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        i = self._locate(x)
        t = np.clip(x - self.grid[i], 0.0, self._widths[i])
        part = _cell_partial_mass(self._shifted_potential[i], self._slopes[i], t)
        out = self.sf_nodes[i] - part / self._z_shifted
        out = np.where(x <= self.grid[0], 1.0, np.where(x >= self.grid[-1], 0.0, out))
        return out if out.size > 1 else float(out[0])

    def quantile(self, u) -> np.ndarray:
        """Left-tail quantile: x with F(x) = u (accurate for small u)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any((u < 0) | (u > 1)):
            raise DomainError("quantile argument must lie in [0, 1]")
        i = np.clip(np.searchsorted(self.cdf_nodes, u, side="right") - 1, 0, self.grid.size - 2)
        rem = (u - self.cdf_nodes[i]) * self._z_shifted
        rem = np.maximum(rem, 0.0)
        t = _solve_mass_forward(self._shifted_potential[i], self._slopes[i], rem)
        out = self.grid[i] + np.minimum(t, self._widths[i])
        out = np.where(u >= 1.0, self.grid[-1], out)
        return out if out.size > 1 else float(out[0])

    def quantile_upper(self, tail) -> np.ndarray:
        """Right-tail quantile: x with 1 - F(x) = tail (accurate for small tail)."""
        tail = np.atleast_1d(np.asarray(tail, dtype=float))
        if np.any((tail < 0) | (tail > 1)):
            raise DomainError("tail mass must lie in [0, 1]")
        # sf_nodes is decreasing; locate cell whose right node has sf <= tail.
        rev = self.sf_nodes[::-1]
        j = np.searchsorted(rev, tail, side="right")
        hi = np.clip(self.sf_nodes.size - j, 1, self.grid.size - 1)
        i = hi - 1
        rem = (tail - self.sf_nodes[hi]) * self._z_shifted
        rem = np.maximum(rem, 0.0)
        tau = _solve_mass_backward(self._shifted_potential[hi], self._slopes[i], rem)
        out = self.grid[hi] - np.minimum(tau, self._widths[i])
        out = np.where(tail >= 1.0, self.grid[0], out)
        return out if out.size > 1 else float(out[0])

    def median(self) -> float:
        return float(self.quantile(0.5))

    # -- cell-exact integrals ------------------------------------------------

    def interval_mass(self, a: float, b: float) -> float:
        if b < a:
            raise DomainError("interval endpoints out of order")
        return float(np.clip(self.cdf(b) - self.cdf(a), 0.0, 1.0))

    def partial_moment(self, a: float, b: float) -> float:
        """Integral of x over [a, b] against the measure, cell-exact."""
        lo, hi = self.support
        a, b = max(a, lo), min(b, hi)
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
        return self.partial_moment(*self.support)

    def node_weights(self) -> np.ndarray:
        """Quadrature weights w with sum_i w_i f_i = int f dmu exactly for
        every piecewise-linear f on the grid."""
        v0 = self._shifted_potential[:-1]
        m0 = _cell_partial_mass(v0, self._slopes, self._widths)
        m1 = _cell_partial_moment(v0, self._slopes, self._widths)
        right = m1 / self._widths
        left = m0 - right
        w = np.zeros(self.grid.size)
        w[:-1] += left
        w[1:] += right
        return w / self._z_shifted

    def integrate_nodes(self, values: np.ndarray) -> float:
        """Integral of the piecewise-linear interpolant of node values,
        cell-exact against the density."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValidationError("node values must match the grid")
        v0 = self._shifted_potential[:-1]
        m0 = _cell_partial_mass(v0, self._slopes, self._widths)
        m1 = _cell_partial_moment(v0, self._slopes, self._widths)
        f_slope = np.diff(values) / self._widths
        total = np.sum(values[:-1] * m0 + f_slope * m1)
        return float(total / self._z_shifted)

    def log_mgf_nodes(self, values: np.ndarray, lam: float) -> float:
        """log of the integral of exp(lam * f) against the measure, for
        piecewise-linear node values f.

        Exact for the grid model: the tilted potential V - lam * f is
        again piecewise linear, so the same cell formulas apply.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValidationError("node values must match the grid")
        tilted = self.potential - lam * values
        if not np.all(np.isfinite(tilted)):
            raise ValidationError("tilted potential has nonfinite values")
        shift = float(tilted.min())
        slopes = np.diff(tilted) / self._widths
        mass = _cell_partial_mass(tilted[:-1] - shift, slopes, self._widths)
        total = float(mass.sum())
        if not math.isfinite(total) or total <= 0.0:
            return math.inf
        # log int e^{lam f} e^{-V} dx - log Z
        return math.log(total) - shift - self.log_z

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
    def from_json_dict(cls, data: dict[str, Any]) -> "Measure1D":
        return cls(
            grid=np.asarray(data["grid"], dtype=float),
            potential=np.asarray(data["potential"], dtype=float),
            provenance=dict(data.get("provenance", {})),
        )

    @classmethod
    def load(cls, path: str) -> "Measure1D":
        return cls.from_json_dict(_read_json(path, ("grid", "potential")))


def is_symmetric(mu: Measure1D, tol: float = 1e-9) -> bool:
    """True when the grid and potential are mirror-symmetric about the
    window midpoint."""
    x = mu.grid
    v = mu.potential
    mid = 0.5 * (x[0] + x[-1])
    span = x[-1] - x[0]
    sym_x = np.allclose(x + x[::-1], 2 * mid, atol=tol * span, rtol=0.0)
    sym_v = np.allclose(v, v[::-1], atol=tol * (1.0 + np.abs(v).max()), rtol=0.0)
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
        return Measure1D(
            grid=np.asarray(grid, dtype=float),
            potential=np.asarray(potential, dtype=float),
            provenance={"source": "potential-grid"},
        )

    if preset == "gamma_p":
        if p is None or not (1.0 <= p <= 8.0):
            raise DomainError(f"gamma_p preset requires p in [1, 8], got {p}")
        r = half_width if half_width is not None else (36.0 * p) ** (1.0 / p)
        n = _odd_point_count(int(n_points))
        xs = np.linspace(-r, r, n)
        vs = np.abs(xs) ** p / p
        return Measure1D(
            grid=xs, potential=vs,
            provenance={"source": "preset", "preset": "gamma_p", "p": float(p),
                        "half_width": float(r)},
        )

    if preset == "gaussian_restricted":
        hi = half_width if half_width is not None else max(a + 10.0, 10.0)
        n = int(n_points)
        xs = np.linspace(a, hi, n)
        vs = 0.5 * xs * xs
        return Measure1D(
            grid=xs, potential=vs,
            provenance={"source": "preset", "preset": "gaussian_restricted",
                        "a": float(a), "hi": float(hi)},
        )

    raise ValidationError(f"unknown preset {preset!r}")


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
    if mode == "density-ratio":
        phi = np.asarray(kwargs["phi"], dtype=float)
        cap = float(kwargs["cap"])
        if phi.shape != mu1.grid.shape:
            raise ValidationError("phi must be tabulated on the same grid")
        mu2 = Measure1D(grid=mu1.grid.copy(), potential=mu1.potential - phi,
                        provenance={})
        # sup log(d mu2/d mu1) = sup phi - log int e^phi d mu1
        shift = float(np.max(phi))
        log_norm = mu1.log_mgf_nodes(phi, 1.0)
        attained = shift - log_norm
        if attained > cap + 1e-9:
            raise ValidationError(
                f"density-ratio cap violated after normalization: "
                f"attained {attained:.6g} > D = {cap:.6g}")
        prov = {"source": "density-ratio", "cap": cap, "attained": float(attained),
                "parent": mu1.provenance}
        return Measure1D(grid=mu2.grid, potential=mu2.potential, provenance=prov)

    if mode == "restrict":
        a = float(kwargs["a"])
        b = float(kwargs["b"])
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

    if mode == "translate":
        t = float(kwargs["t"])
        prov = {"source": "translate", "t": t, "parent": mu1.provenance}
        return Measure1D(grid=mu1.grid + t, potential=mu1.potential.copy(),
                         provenance=prov)

    raise ValidationError(f"unknown derive mode {mode!r}")


def check_semi_convexity(mu: Measure1D, kappa: float) -> tuple[bool, float, float]:
    """Check the curvature certificate V'' >= -kappa at interior grid nodes.

    Returns (holds, worst_x, worst_second_difference).
    """
    if mu.grid.size < 3:
        raise ValidationError("semi-convexity check needs at least 3 grid points")
    second = mu.second_differences()
    k = int(np.argmin(second))
    worst = float(second[k])
    return worst >= -kappa - _CONVEXITY_TOL, float(mu.grid[k + 1]), worst


# ---------------------------------------------------------------------------
# DiscreteSpace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteSpace:
    """Finite metric-measure space: symmetric distance matrix + weights."""

    dist: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.dist, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "weights", w)

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

    def to_json_dict(self) -> dict[str, Any]:
        return {"dist": self.dist.tolist(), "weights": self.weights.tolist()}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "DiscreteSpace":
        data = _read_json(path, ("dist", "weights"))
        return build_discrete_space(np.asarray(data["dist"], dtype=float),
                                    np.asarray(data["weights"], dtype=float))


def build_discrete_space(dist: np.ndarray, weights: np.ndarray,
                         *, tol: float = 1e-9) -> DiscreteSpace:
    """Validate and build a finite metric-measure space.

    Rejects metric-axiom violations, naming the offending pair or triple.
    """
    d = np.asarray(dist, dtype=float)
    w = np.asarray(weights, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError("distance matrix must be square")
    n = d.shape[0]
    if w.shape != (n,):
        raise ValidationError("weights length must match the point count")
    if not np.allclose(d, d.T, atol=tol, rtol=0.0):
        raise ValidationError("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(d)) > tol):
        raise ValidationError("dist(i, i) must be 0")
    off = d + np.eye(n) * 1.0
    if np.any(off <= 0.0):
        i, j = np.argwhere(off <= 0)[0]
        raise ValidationError(f"dist({i}, {j}) must be positive for i != j")
    if np.any(w < -tol):
        i = int(np.argmin(w))
        raise ValidationError(f"negative weight at point {i}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError(f"weights sum to {w.sum():.12g}, expected 1")
    # Triangle inequality: d[i,j] <= d[i,k] + d[k,j] for all triples.
    for k in range(n):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        if np.any(slack > tol):
            i, j = np.argwhere(slack > tol)[0]
            raise ValidationError(
                f"triangle inequality violated by triple ({i}, {k}, {j}): "
                f"d({i},{j}) = {d[i, j]:.6g} > {d[i, k] + d[k, j]:.6g}")
    return DiscreteSpace(dist=d, weights=np.maximum(w, 0.0))


def atomize_1d(mu: Measure1D, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-mass atomization: m atoms at conditional cell barycenters.

    Placing each atom at the conditional mean of its quantile cell keeps
    signed first moments exact per cell, so 1-D transport costs between
    two measures atomized at the same levels agree with the continuum
    values to within the (rare) sign-straddling cells.
    """
    if m < 2:
        raise DomainError("need at least 2 atoms")
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
    pos = np.asarray(pos, dtype=float)
    d = np.abs(pos[:, None] - pos[None, :])
    return build_discrete_space(d, weights)
