"""Isoperimetric and concentration profiles, and profile-to-profile maps.

Profiles come in four kinds:

``iso``
    v -> boundary measure lower envelope at mass v, v in (0, 1/2].
``conc``
    r -> log-concentration value K(r): the measured profile of a space,
    exact only under the certificates noted in ``exactness``.
``bound-alpha``
    r -> alpha(r), a lower-bound curve for K (the useful direction for
    concentration statements).
``bound-gamma``
    x -> gamma(x), the shape function in linear-times-shape isoperimetric
    bounds I(v) >= v * gamma(log 1/v).

Exactness tags:

* ``exact`` - the table is the true profile of the space (up to grid).
* ``half-line-upper-bound`` - half-lines are admissible competitors, so
  the table dominates the true profile pointwise.
* ``candidate-lower-bound`` - the lower envelope over a candidate family
  of sets; the true profile can only be smaller, so the curve must not be
  used as a certified concentration bound.

On finite spaces the extension A_r uses the strict inequality
d(x, y) < r, so K is a step function, constant on each interval
(d_k, d_{k+1}] between consecutive pairwise distances; step profiles
evaluate accordingly (value at r = value on the interval containing r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedSizeError, ValidationError
from .measures import DiscreteSpace, Measure1D, is_symmetric
from .reports import ConstantEntry

__all__ = [
    "Profile",
    "iso_profile_1d",
    "conc_profile",
    "iso_to_conc",
    "conc_going_down",
    "iso_stability_transform",
    "conc_to_iso_form",
    "fit_constant",
    "exp_p_gamma_shape",
    "profile_to_csv",
    "profile_from_csv",
    "profile_to_svg",
]

LOG2 = math.log(2.0)
_KINDS = ("iso", "conc", "bound-alpha", "bound-gamma")
_EXACTNESS = ("exact", "half-line-upper-bound", "candidate-lower-bound")
# worst tails at or below this are weight-sum accumulation noise on an
# exactly-full extension: both finite-space routes report them as +inf
_TAIL_FLOOR = 1e-12


@dataclass(frozen=True)
class Profile:
    kind: str
    inputs: np.ndarray
    values: np.ndarray
    exactness: str = "exact"
    step: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        if self.exactness not in _EXACTNESS:
            raise ValidationError(f"unknown exactness {self.exactness!r}")
        inputs = np.asarray(self.inputs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if inputs.ndim != 1 or inputs.shape != values.shape or inputs.size < 1:
            raise ValidationError("profile table must be two equal 1-D columns")
        if not np.all(np.diff(inputs) > 0):
            raise ValidationError("profile inputs must be strictly increasing")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "values", values)
        if self.kind == "iso" and np.any(values < -1e-12):
            raise ValidationError("iso profile values must be nonnegative")
        capped = np.where(np.isfinite(values), values, 1e308)
        if self.kind == "conc":
            finite = values[np.isfinite(values)]
            if finite.size and finite[0] < LOG2 - 1e-9:
                raise ValidationError("concentration profile must start >= log 2")
            if np.any(np.diff(capped) < -1e-9):
                raise ValidationError("concentration profile must be nondecreasing")
        if self.kind == "bound-alpha" and np.any(np.diff(capped) < -1e-9):
            raise ValidationError("alpha bound must be nondecreasing")

    # -- evaluation ----------------------------------------------------------

    def at(self, x) -> np.ndarray:
        """Evaluate the profile at x (linear interpolation, or step lookup
        for step profiles: value on the interval (d_{k-1}, d_k] containing x)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.step:
            idx = np.searchsorted(self.inputs, x, side="left")
            out = np.where(idx >= self.inputs.size, np.inf,
                           self.values[np.minimum(idx, self.inputs.size - 1)])
        else:
            out = np.interp(x, self.inputs, self.values)
        return out if out.size > 1 else float(out[0])

    def inverse_at(self, y) -> float:
        """Leftmost input where the (nondecreasing) profile reaches y."""
        return invert_monotone(self.inputs, self.values, y)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.inputs[0]), float(self.inputs[-1])


def invert_monotone(xs: np.ndarray, ys: np.ndarray, target: float) -> float:
    """Leftmost x with ys(x) = target for a nondecreasing table ys."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if target < ys[0] - 1e-12 or target > ys[-1] + 1e-12:
        raise DomainError(
            f"inversion target {target:.6g} outside table range "
            f"[{ys[0]:.6g}, {ys[-1]:.6g}]")
    idx = int(np.searchsorted(ys, target, side="left"))
    idx = min(idx, ys.size - 1)
    if ys[idx] <= target + 1e-15 or idx == 0:
        return float(xs[idx])
    y0, y1 = ys[idx - 1], ys[idx]
    if y1 <= y0:
        return float(xs[idx])
    t = (target - y0) / (y1 - y0)
    return float(xs[idx - 1] + t * (xs[idx] - xs[idx - 1]))


# ---------------------------------------------------------------------------
# profiles of measures
# ---------------------------------------------------------------------------

def default_mass_grid(v_min: float = 1e-6, n: int = 513) -> np.ndarray:
    grid = np.geomspace(v_min, 0.5, n)
    grid[-1] = 0.5
    return grid


def iso_profile_1d(mu: Measure1D, v_grid: np.ndarray | None = None) -> Profile:
    """Half-line isoperimetric profile of a 1-D measure.

    For each mass v in (0, 1/2] the two admissible half-lines are the
    left one of mass v and the right one of mass v; the profile value is
    the smaller boundary density.  For log-concave measures half-lines
    are extremal, so the value is the true profile; otherwise it
    dominates the true profile (exactness ``half-line-upper-bound``).
    """
    vs = default_mass_grid() if v_grid is None else np.asarray(v_grid, dtype=float)
    if np.any((vs <= 0) | (vs > 0.5)):
        raise DomainError("iso profile masses must lie in (0, 1/2]")
    x_left = mu.quantile(vs)
    x_right = mu.quantile_upper(vs)
    vals = np.minimum(mu.density(x_left), mu.density(x_right))
    exact = "exact" if mu.logconcave else "half-line-upper-bound"
    return Profile(kind="iso", inputs=vs, values=np.asarray(vals), exactness=exact)


def _conc_profile_1d(mu: Measure1D, r_grid: np.ndarray | None,
                     interval_candidates: int) -> Profile:
    med = mu.median()
    lo, hi = mu.support
    if r_grid is None:
        r_max = 0.98 * (hi - med)
        r_grid = np.linspace(0.0, r_max, 1025)
    r_grid = np.asarray(r_grid, dtype=float)
    if is_symmetric(mu) and mu.logconcave:
        tails = mu.sf(med + r_grid)
        exactness = "exact"
    else:
        # Lower envelope over mass-1/2 intervals [q(t), q_upper(1/2 - t)];
        # t = 0 and t = 1/2 are the two half-lines.
        ts = np.linspace(0.0, 0.5, interval_candidates)
        lefts = mu.quantile(ts)
        rights = mu.quantile_upper(0.5 - ts)
        tails = np.zeros_like(r_grid)
        for ell, u in zip(lefts, rights):
            t_r = mu.cdf(ell - r_grid) + mu.sf(u + r_grid)
            tails = np.maximum(tails, t_r)
        exactness = "candidate-lower-bound"
    with np.errstate(divide="ignore"):
        values = -np.log(np.maximum(tails, 0.0))
    return Profile(kind="conc", inputs=r_grid, values=values, exactness=exactness)


def _subset_weight_table(weights: np.ndarray) -> np.ndarray:
    """weight sums of all 2^n subsets, built by doubling."""
    n = weights.size
    out = np.zeros(1 << n)
    for j in range(n):
        block = 1 << j
        out[block : 2 * block] = out[:block] + weights[j]
    return out


def _conc_profile_discrete(space: DiscreteSpace, size_cap: int = 22) -> Profile:
    n = space.n
    if n > size_cap:
        raise UnsupportedSizeError(
            f"exact concentration enumeration is capped at n = {size_cap}; "
            f"got n = {n}.  Use sampled candidate mode instead "
            "(conc_profile(..., exact=False)).")
    w = space.weights
    d = space.dist
    bps = space.breakpoints()
    wsum = _subset_weight_table(w)
    admissible = wsum >= 0.5 - 1e-12
    admissible[0] = False
    point_bits = (np.uint64(1) << np.arange(n, dtype=np.uint64))

    values = np.empty(bps.size)
    # radius of the closed balls generating A_r on the interval
    # (d_{k-1}, d_k]: points within distance < r are those within <= d_{k-1}
    radii = np.concatenate(([0.0], bps[:-1]))
    size = 1 << n
    unions = np.zeros(size, dtype=np.uint64)
    for k, rad in enumerate(radii):
        balls = np.empty(n, dtype=np.uint64)
        for i in range(n):
            mask = d[i] <= rad * (1 + 1e-12) + 1e-15
            balls[i] = np.bitwise_or.reduce(point_bits[mask])
        unions[0] = np.uint64(0)
        for j in range(n):
            block = 1 << j
            np.bitwise_or(unions[:block], balls[j], out=unions[block : 2 * block])
        ext_mass = wsum[unions[admissible]]
        worst_tail = float(np.max(1.0 - ext_mass))
        values[k] = math.inf if worst_tail <= _TAIL_FLOOR else -math.log(worst_tail)
    return Profile(kind="conc", inputs=bps, values=values,
                   exactness="exact", step=True)


def _conc_profile_discrete_sampled(space: DiscreteSpace, rng_seed: int,
                                   n_samples: int = 4096) -> Profile:
    """Candidate mode for large spaces: random admissible subsets only."""
    rng = np.random.default_rng(rng_seed)
    n = space.n
    w = space.weights
    d = space.dist
    bps = space.breakpoints()
    radii = np.concatenate(([0.0], bps[:-1]))
    subsets = []
    for _ in range(n_samples):
        keep = rng.random(n) < rng.uniform(0.3, 1.0)
        if w[keep].sum() >= 0.5:
            subsets.append(keep)
    order = np.argsort(w)[::-1]
    greedy = np.zeros(n, dtype=bool)
    acc = 0.0
    for i in order:
        greedy[i] = True
        acc += w[i]
        if acc >= 0.5:
            break
    subsets.append(greedy)
    values = np.empty(bps.size)
    for k, rad in enumerate(radii):
        within = d <= rad * (1 + 1e-12) + 1e-15
        worst = 0.0
        for keep in subsets:
            ext = within[keep].any(axis=0)
            worst = max(worst, 1.0 - w[ext].sum())
        values[k] = math.inf if worst <= _TAIL_FLOOR else -math.log(worst)
    return Profile(kind="conc", inputs=bps, values=values,
                   exactness="candidate-lower-bound", step=True)


def conc_profile(source, *, r_grid: np.ndarray | None = None,
                 interval_candidates: int = 33, exact: bool = True,
                 seed: int = 0) -> Profile:
    """Log-concentration profile of a 1-D measure or a finite space.

    1-D: half-line tails at mass exactly 1/2 (exact under the symmetric +
    log-concave certificates; otherwise the lower envelope over mass-1/2
    intervals, tagged ``candidate-lower-bound``).

    Finite spaces: exact 2^n subset enumeration (n <= 22) with the strict
    extension A_r; breakpoints at the distinct pairwise distances.
    """
    if isinstance(source, Measure1D):
        return _conc_profile_1d(source, r_grid, interval_candidates)
    if isinstance(source, DiscreteSpace):
        if exact:
            return _conc_profile_discrete(source)
        return _conc_profile_discrete_sampled(source, seed)
    raise ValidationError("source must be a Measure1D or DiscreteSpace")


# ---------------------------------------------------------------------------
# profile-to-profile transforms
# ---------------------------------------------------------------------------

def _refined_window(xs: np.ndarray, lo: float, hi: float,
                    target_cells: int = 40000, cluster: int = 65) -> np.ndarray:
    """Integration grid on [lo, hi]: table nodes, a uniform fill at
    roughly (hi - lo)/target_cells spacing, and a geometric cluster at the
    left endpoint."""
    base = xs[(xs > lo) & (xs < hi)]
    fill = np.linspace(lo, hi, target_cells + 1)
    first = base[0] - lo if base.size else hi - lo
    cluster_pts = lo + min(first, hi - lo) * np.geomspace(1e-9, 1.0, cluster)
    out = np.unique(np.concatenate(([lo, hi], base, fill, cluster_pts)))
    return out


def _cumulative_reciprocal(gamma: Profile, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature table of x -> int_{log 2}^{x} dy / gamma(y) on [log 2, hi].

    Trapezoid on a refined grid with geometric refinement near log 2.
    """
    if gamma.inputs[0] > LOG2 + 1e-12:
        raise DomainError("gamma table must cover [log 2, ...]")
    if hi > gamma.inputs[-1] + 1e-12:
        raise DomainError("gamma table does not reach the requested endpoint")
    grid = _refined_window(gamma.inputs, LOG2, min(hi, float(gamma.inputs[-1])))
    g = gamma.at(grid)
    g = np.atleast_1d(g)
    if np.any(g <= 0.0):
        bad = grid[np.argmax(g <= 0.0)]
        raise DomainError(f"gamma hits zero in the window at x = {bad:.6g}")
    integrand = 1.0 / g
    steps = np.diff(grid)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * steps)))
    return grid, cum


def iso_to_conc(gamma: Profile) -> Profile:
    """Integrate a gamma shape into a concentration bound alpha.

    alpha is defined through its inverse alpha^{-1}(x) = int_{log 2}^x dy/gamma(y);
    the returned table is the swapped quadrature table, so alpha(0) = log 2.
    """
    if gamma.kind != "bound-gamma":
        raise ValidationError("iso_to_conc expects a bound-gamma profile")
    grid, cum = _cumulative_reciprocal(gamma, float(gamma.inputs[-1]))
    keep = np.concatenate(([True], np.diff(cum) > 0))
    return Profile(kind="bound-alpha", inputs=cum[keep], values=grid[keep],
                   exactness=gamma.exactness)


def conc_going_down(alpha1: Profile, cap_d: float) -> Profile:
    """Concentration bound for a density-ratio perturbation with cap e^D.

    alpha2(r) = alpha1(r - r1) - D for r > 2 r1, log 2 otherwise, where
    r1 = alpha1^{-1}(log 2 + D).
    """
    if alpha1.kind not in ("bound-alpha", "conc"):
        raise ValidationError("conc_going_down expects an alpha or conc profile")
    if cap_d < 0:
        raise DomainError("cap D must be nonnegative")
    r1 = alpha1.inverse_at(LOG2 + cap_d)
    shifted_r = alpha1.inputs + r1
    tail = shifted_r > 2.0 * r1 + 1e-15
    rs = np.concatenate(([0.0, 2.0 * r1], shifted_r[tail]))
    vals = np.concatenate(([LOG2, LOG2], alpha1.values[tail] - cap_d))
    rs, idx = np.unique(rs, return_index=True)
    return Profile(kind="bound-alpha", inputs=rs, values=np.maximum(vals[idx], LOG2 - 1e-15),
                   exactness=alpha1.exactness)


def iso_stability_transform(gamma1: Profile, cap_d: float, *,
                            kappa: float = 0.0, delta0: float | None = None,
                            x0: float | None = None) -> Profile:
    """Transformed gamma shape under a density-ratio perturbation:

        gamma2(x) = x / int_{log 2}^{x + D} dy / gamma1(y).

    When kappa > 0 the caller supplies (delta0 > 1/2, x0) and the input
    shape must satisfy gamma1(x) >= 2 sqrt(delta0 kappa x) for all grid
    x >= x0, which is verified and rejected pointwise.
    """
    if gamma1.kind != "bound-gamma":
        raise ValidationError("iso_stability_transform expects a bound-gamma profile")
    if cap_d < 0:
        raise DomainError("cap D must be nonnegative")
    if kappa > 0:
        if delta0 is None or x0 is None:
            raise DomainError("kappa > 0 requires delta0 and x0")
        if delta0 <= 0.5:
            raise DomainError("delta0 must exceed 1/2")
        mask = gamma1.inputs >= x0
        required = 2.0 * np.sqrt(delta0 * kappa * gamma1.inputs[mask])
        bad = gamma1.values[mask] < required - 1e-12
        if np.any(bad):
            x_bad = gamma1.inputs[mask][bad][0]
            raise DomainError(
                f"growth condition fails at grid point x = {x_bad:.6g}: "
                f"gamma1 = {gamma1.at(x_bad):.6g} < 2 sqrt(delta0 kappa x)")
    hi = float(gamma1.inputs[-1])
    grid, cum = _cumulative_reciprocal(gamma1, hi)
    xs = gamma1.inputs[(gamma1.inputs >= LOG2) & (gamma1.inputs <= hi - cap_d)]
    xs = np.unique(np.concatenate((xs, [LOG2] if LOG2 <= hi - cap_d else [])))
    denom = np.interp(xs + cap_d, grid, cum)
    keep = denom > 0
    return Profile(kind="bound-gamma", inputs=xs[keep], values=xs[keep] / denom[keep],
                   exactness=gamma1.exactness)


def conc_to_iso_form(alpha: Profile, kappa: float = 0.0,
                     delta0: float | None = None) -> tuple[Profile, bool]:
    """Shape function gamma(x) = x / alpha^{-1}(x) of a concentration bound,
    plus a feasibility flag for the quadratic-growth condition
    alpha(r) >= delta0 * kappa * r^2 for all r beyond some grid point.

    The universal prefactors relating this shape to an actual
    isoperimetric inequality are left to the fitting suites.
    """
    if alpha.kind not in ("bound-alpha", "conc"):
        raise ValidationError("conc_to_iso_form expects an alpha or conc profile")
    if kappa > 0 and (delta0 is None or delta0 <= 0.5):
        raise DomainError("kappa > 0 requires delta0 > 1/2")
    vals = alpha.values
    # drop the flat prefix (e.g. the log 2 plateau of a perturbed bound)
    start = int(np.searchsorted(vals, vals[0], side="right")) - 1
    r = alpha.inputs[start:]
    a = vals[start:]
    if np.any(np.diff(a) <= 0):
        raise DomainError("alpha is not invertible on the grid past its plateau")
    mask = (a > LOG2 + 1e-15) & (r > 0)
    if not np.any(mask):
        raise DomainError("alpha never exceeds log 2 on the grid")
    gamma = Profile(kind="bound-gamma", inputs=a[mask], values=a[mask] / r[mask],
                    exactness=alpha.exactness)
    if kappa > 0:
        ok = alpha.values >= delta0 * kappa * alpha.inputs**2 - 1e-12
    else:
        ok = alpha.values >= -1e-12
    suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
    feasible = bool(np.any(suffix_ok))
    return gamma, feasible


def exp_p_gamma_shape(c: float, p: float, x_max: float, n: int = 8193) -> Profile:
    """Tabulated shape gamma(x) = c * x^{1/q}, q = p/(p-1), on [log 2, x_max].

    This is the shape of the p-exponential reference profiles: their
    iso profile is comparable to v * log^{1/q}(1/v).  The grid is graded
    toward log 2 where downstream quadratures need the most resolution.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    u = np.linspace(0.0, 1.0, n) ** 1.5
    xs = LOG2 + (x_max - LOG2) * u
    inv_q = 0.0 if p == 1.0 else (p - 1.0) / p
    return Profile(kind="bound-gamma", inputs=xs, values=c * xs**inv_q)


# ---------------------------------------------------------------------------
# constant fitting
# ---------------------------------------------------------------------------

def fit_constant(profile: Profile, template: str, *, p: float | None = None,
                 reference: Profile | None = None,
                 constant_id: str | None = None) -> ConstantEntry:
    """Fit a named constant template to a tabulated profile.

    Templates:

    ``p-exp-conc``  D = inf over the grid of (K(r) + 1)^{1/p} / r.
    ``p-exp-iso``   D = inf over the grid of profile(v) / reference(v).
    ``ratio``       min and max of profile / reference on the common grid.

    Infima are taken over the tabulated grid only; grid refinement is the
    caller's knob.  The method string records whether the input profile
    was exact (certified bound) or candidate-based (heuristic).
    """
    certified = profile.exactness == "exact"
    quality = "certified" if certified else "heuristic"
    if template == "p-exp-conc":
        if p is None:
            raise DomainError("p-exp-conc template requires p")
        mask = (profile.inputs > 0) & np.isfinite(profile.values)
        if not np.any(mask):
            raise DomainError("no usable grid points in the profile")
        rates = (profile.values[mask] + 1.0) ** (1.0 / p) / profile.inputs[mask]
        k = int(np.argmin(rates))
        return ConstantEntry(
            constant_id=constant_id or f"D_Con_{p:g}",
            value=float(rates[k]),
            direction="upper",
            method=f"grid infimum of (K(r)+1)^(1/p)/r over tabulated profile ({quality})",
            witnesses={"r": float(profile.inputs[mask][k]),
                       "K": float(profile.values[mask][k])},
        )
    if template == "p-exp-iso":
        if reference is None:
            raise DomainError("p-exp-iso template requires a reference profile")
        ref_vals = np.atleast_1d(reference.at(profile.inputs))
        mask = ref_vals > 0
        ratios = profile.values[mask] / ref_vals[mask]
        k = int(np.argmin(ratios))
        return ConstantEntry(
            constant_id=constant_id or (f"D_Iso_{p:g}" if p else "D_Iso"),
            value=float(ratios[k]),
            direction="upper",
            method=f"grid infimum of profile/reference ({quality})",
            witnesses={"v": float(profile.inputs[mask][k]),
                       "profile": float(profile.values[mask][k]),
                       "reference": float(ref_vals[mask][k])},
        )
    if template == "ratio":
        if reference is None:
            raise DomainError("ratio template requires a reference profile")
        ref_vals = np.atleast_1d(reference.at(profile.inputs))
        mask = (ref_vals > 0) & np.isfinite(profile.values)
        ratios = profile.values[mask] / ref_vals[mask]
        kmin, kmax = int(np.argmin(ratios)), int(np.argmax(ratios))
        return ConstantEntry(
            constant_id=constant_id or "ratio",
            value=float(ratios[kmin]),
            direction="two-sided",
            method=f"grid min/max of profile/reference ({quality})",
            witnesses={"max_ratio": float(ratios[kmax]),
                       "argmin": float(profile.inputs[mask][kmin]),
                       "argmax": float(profile.inputs[mask][kmax])},
        )
    raise DomainError(f"unknown template {template!r}")


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def profile_to_csv(profile: Profile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("input,value,exactness\n")
        for x, v in zip(profile.inputs, profile.values):
            fh.write(f"{x:.12g},{v:.12g},{profile.exactness}\n")


def profile_from_csv(path: str, kind: str = "conc", step: bool = False) -> Profile:
    xs, vs = [], []
    exactness = "exact"
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("input"):
            raise ValidationError("not a profile CSV (missing header)")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) < 2:
                continue
            xs.append(float(parts[0]))
            vs.append(float(parts[1]))
            if len(parts) > 2:
                exactness = parts[2]
    return Profile(kind=kind, inputs=np.asarray(xs), values=np.asarray(vs),
                   exactness=exactness, step=step)


def profile_to_svg(profile: Profile, path: str, *, width: int = 640,
                   height: int = 480) -> None:
    """Plain SVG polyline of the finite part of a profile; no plotting deps."""
    finite = np.isfinite(profile.values)
    xs = profile.inputs[finite]
    vs = profile.values[finite]
    if xs.size == 0:
        raise ValidationError("profile has no finite values to plot")
    pad = 40
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(vs.min()), float(vs.max())
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    px = pad + (xs - x0) / xr * (width - 2 * pad)
    py = height - pad - (vs - y0) / yr * (height - 2 * pad)
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
            f'height="{height - 2 * pad}" fill="none" stroke="#999"/>\n'
            f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
            f'points="{points}"/>\n'
            f'<text x="{pad}" y="{height - 8}" font-size="12">'
            f"{profile.kind}: [{x0:.6g}, {x1:.6g}] / [{y0:.6g}, {y1:.6g}] "
            f"({profile.exactness})</text>\n"
            "</svg>\n"
        )
