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

from .costs import _argument, _count, _float_array, _real, _shaped
from .errors import DomainError, UnsupportedSizeError, ValidationError
from .measures import DiscreteSpace, Measure1D, is_symmetric
from .reports import ConstantEntry

LOG2 = math.log(2.0)
_KINDS = ("iso", "conc", "bound-alpha", "bound-gamma")
_EXACTNESS = ("exact", "half-line-upper-bound", "candidate-lower-bound")
# worst tails at or below this are weight-sum accumulation noise on an
# exactly-full extension: both finite-space routes report them as +inf
_TAIL_FLOOR = 1e-12
_SUBSET_CAP = 22  # the largest space whose 2^n subsets are enumerated exactly


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
        inputs = _float_array(self.inputs, "inputs")
        values = _float_array(self.values, "values")
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

    def at(self, x) -> float | np.ndarray:
        """Evaluate the profile at x (linear interpolation, or step lookup
        for step profiles: value on the interval (d_{k-1}, d_k] containing x)."""
        x = _argument(x, "x")
        if self.step:
            idx = np.searchsorted(self.inputs, x, side="left")
            out = np.where(idx >= self.inputs.size, np.inf,
                           self.values[np.minimum(idx, self.inputs.size - 1)])
        else:
            out = np.interp(x, self.inputs, self.values)
        return _shaped(x, out)

    def inverse_at(self, y) -> float:
        """Leftmost input where the (nondecreasing) profile reaches y."""
        return invert_monotone(self.inputs, self.values, y)


def invert_monotone(xs: np.ndarray, ys: np.ndarray, target) -> float | np.ndarray:
    """Leftmost x with ys(x) = target for a nondecreasing table ys, per
    target (a float for a scalar target, else an array of its shape); one
    within 1e-15 below a node, at or below ys[0] or on a flat run maps to it."""
    xs = _float_array(xs, "xs")
    ys = _float_array(ys, "ys")
    target = _float_array(target, "target")
    outside = (target < ys[0] - 1e-12) | (target > ys[-1] + 1e-12)
    if np.any(outside):
        raise DomainError(
            f"inversion target {target[outside][0]:.6g} outside table range "
            f"[{ys[0]:.6g}, {ys[-1]:.6g}]")
    idx = np.minimum(np.searchsorted(ys, target, side="left"), ys.size - 1)
    lo = np.maximum(idx - 1, 0)
    y0, y1 = ys[lo], ys[idx]
    snap = (y1 <= target + 1e-15) | (idx == 0) | (y1 <= y0)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where snapped
        t = (target - y0) / (y1 - y0)
        out = np.where(snap, xs[idx], xs[lo] + t * (xs[idx] - xs[lo]))
    return _shaped(target, out)


# ---------------------------------------------------------------------------
# profiles of measures
# ---------------------------------------------------------------------------

def iso_profile_1d(mu: Measure1D, v_grid: np.ndarray | None = None) -> Profile:
    """Half-line isoperimetric profile of a 1-D measure.

    For each mass v in (0, 1/2] the two admissible half-lines are the
    left one of mass v and the right one of mass v; the profile value is
    the smaller boundary density.  For log-concave measures half-lines
    are extremal, so the value is the true profile; otherwise it
    dominates the true profile (exactness ``half-line-upper-bound``).  The
    default masses are 513 geometric steps from 1e-6 to 1/2.
    """
    vs = np.geomspace(1e-6, 0.5, 513) if v_grid is None else _float_array(v_grid, "v_grid")
    if not np.all((vs > 0) & (vs <= 0.5)):
        raise DomainError("iso profile masses must lie in (0, 1/2]")
    x_left = mu.quantile(vs)
    x_right = mu.quantile_upper(vs)
    vals = np.minimum(mu.density(x_left), mu.density(x_right))
    exact = "exact" if mu.logconcave else "half-line-upper-bound"
    return Profile(kind="iso", inputs=vs, values=vals, exactness=exact)


def _conc_profile_1d(mu: Measure1D, r_grid: np.ndarray | None) -> Profile:
    med = mu.median()
    lo, hi = mu.support
    if r_grid is None:
        r_max = 0.98 * (hi - med)
        r_grid = np.linspace(0.0, r_max, 1025)
    r_grid = _float_array(r_grid, "r_grid")
    if not np.all(np.isfinite(r_grid)):
        raise DomainError("concentration radii must be finite")
    if is_symmetric(mu) and mu.logconcave:
        tails = mu.sf(med + r_grid)
        exactness = "exact"
    else:
        # Lower envelope over 33 mass-1/2 intervals [q(t), q_upper(1/2 - t)];
        # t = 0 and t = 1/2 are the two half-lines.
        ts = np.linspace(0.0, 0.5, 33)
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
        np.add(out[:block], weights[j], out=out[block : 2 * block])
    return out


def _conc_profile_discrete(space: DiscreteSpace) -> Profile:
    n = space.n
    if n > _SUBSET_CAP:
        raise UnsupportedSizeError(
            f"exact concentration enumeration is capped at n = {_SUBSET_CAP}; "
            f"got n = {n}.  Use sampled candidate mode instead "
            "(conc_profile(..., exact=False)).")
    w = space.weights
    bps = space.breakpoints()
    # The worst tail is taken over the admissible sets whose lightest
    # member cannot be dropped, and it equals the one over all admissible
    # sets to the last bit, for two reasons.  A subset of B has an
    # extension inside B_r, and every admissible B holds such a set (drop
    # lightest members while the mass stays >= 1/2).  And the doubling
    # table adds the weights in index order, so its sums are monotone
    # under inclusion in floating point too.
    wsum = _subset_weight_table(w)
    order = np.argsort(w, kind="stable")  # the points, lightest first
    rank = np.argsort(order).astype(np.int8)
    lightest = np.empty(1 << n, dtype=np.int8)  # rank of each set's lightest member
    lightest[0] = n
    for j in range(n):
        block = 1 << j
        np.minimum(lightest[:block], rank[j], out=lightest[block : 2 * block])
    blocks = []  # 2^16 table entries at a time, so no temporary is 2^n long
    for lo in range(0, 1 << n, 1 << 16):
        sets = np.flatnonzero(wsum[lo : lo + (1 << 16)] >= 0.5 - 1e-12) + lo
        droppable = wsum[sets ^ (1 << order[lightest[sets]])] >= 0.5 - 1e-12
        blocks.append(sets[~droppable])
    sets = np.concatenate(blocks).astype(np.int32)

    # radius of the closed balls generating A_r on the interval
    # (d_{k-1}, d_k]: points within distance < r are those within <= d_{k-1};
    # j joins the ball of i at the first step whose threshold reaches
    # d(i, j), and i the ball of j, as the metric is symmetric
    radii = np.concatenate(([0.0], bps[:-1]))
    joins = np.searchsorted(radii * (1 + 1e-12) + 1e-15, space.dist, side="left")
    entering: list[list[int]] = [[] for _ in range(bps.size)]
    for i, j in zip(*np.nonzero(np.triu(joins < bps.size, 1))):
        entering[joins[i, j]].append((1 << int(i)) | (1 << int(j)))
    # each set is in its own union (i joins its own ball at step 0); a set
    # holding one end of a pair gains the other, and only a set that lacks
    # it changes.  Every union only grows, so its weight sum (held in
    # ``reach``) does too: a set whose union is every point is dropped, its
    # sum wsum[full] kept as the min's floor, and once the worst tail is
    # below the floor every later one is.
    full = (1 << n) - 1
    missing = full ^ sets  # the points outside each set's union
    reach = wsum[sets]
    held, lacked = np.empty_like(sets), np.empty_like(sets)
    values = np.full(bps.size, math.inf)
    for k, masks in enumerate(entering):
        for mask in masks:
            np.bitwise_and(sets, mask, out=held)
            np.bitwise_and(missing, mask, out=lacked)
            grown = np.minimum(held, lacked, out=held).nonzero()[0]
            if grown.size:
                missing[grown] &= ~mask
                reach[grown] = wsum[full ^ missing[grown]]
        if k % 8 == 7:
            still = missing.nonzero()[0]
            if still.size < sets.size:
                sets, missing, reach = sets[still], missing[still], reach[still]
                held, lacked = held[:still.size], lacked[:still.size]
        worst_tail = 1.0 - float(reach.min(initial=wsum[full]))
        if worst_tail <= _TAIL_FLOOR:
            break
        values[k] = -math.log(worst_tail)
    return Profile(kind="conc", inputs=bps, values=values,
                   exactness="exact", step=True)


def _conc_profile_discrete_sampled(space: DiscreteSpace, rng_seed: int) -> Profile:
    """Candidate mode for large spaces: the admissible sets among 4096
    random subsets, and the heaviest points."""
    rng = np.random.default_rng(rng_seed)
    n = space.n
    w = space.weights
    d = space.dist
    bps = space.breakpoints()
    radii = np.concatenate(([0.0], bps[:-1]))
    subsets = []
    for _ in range(4096):
        keep = rng.random(n) < rng.uniform(0.3, 1.0)
        if w[keep].sum() >= 0.5:
            subsets.append(keep)
    # plus the heaviest points, taken until their mass reaches 1/2
    order = np.argsort(w)[::-1]
    greedy = np.zeros(n, dtype=bool)
    greedy[order[:np.searchsorted(np.cumsum(w[order]), 0.5) + 1]] = True
    subsets.append(greedy)
    members = np.array(subsets, dtype=float)
    values = np.empty(bps.size)
    for k, rad in enumerate(radii):
        within = (d <= rad * (1 + 1e-12) + 1e-15).astype(float)
        # a point is in A_r when the ball of some member holds it
        ext = (members @ within > 0.0).astype(float)
        worst = max(0.0, float(np.max(1.0 - ext @ w)))
        values[k] = math.inf if worst <= _TAIL_FLOOR else -math.log(worst)
    return Profile(kind="conc", inputs=bps, values=values,
                   exactness="candidate-lower-bound", step=True)


def conc_profile(source, *, r_grid: np.ndarray | None = None,
                 exact: bool = True, seed: int = 0) -> Profile:
    """Log-concentration profile of a 1-D measure or a finite space.

    1-D, on the finite radii ``r_grid`` (default 1025 up to 0.98 of the
    way from the median to the right end): half-line tails at mass
    exactly 1/2 (exact under the symmetric + log-concave certificates;
    otherwise the lower envelope over 33 mass-1/2 intervals, tagged
    ``candidate-lower-bound``).

    Finite spaces (n <= 22): exact, with the strict extension A_r; the
    worst tail runs over the admissible sets whose lightest member cannot
    be dropped, each updated as the pairs join balls at the breakpoints
    (the distinct pairwise distances).  ``exact=False`` samples admissible
    sets instead (``candidate-lower-bound``).  The radii are the
    breakpoints, so an ``r_grid`` raises ValidationError.
    """
    seed = _count(seed, "seed", 0)
    if isinstance(source, Measure1D):
        return _conc_profile_1d(source, r_grid)
    if isinstance(source, DiscreteSpace):
        if r_grid is not None:
            raise ValidationError("r_grid is for a Measure1D; a finite space's "
                                  "profile is taken at its breakpoints")
        if source.n < 2:
            raise DomainError("a one-point space has no pairwise distance, so "
                              "its concentration profile has no radius")
        if exact:
            return _conc_profile_discrete(source)
        return _conc_profile_discrete_sampled(source, seed)
    raise ValidationError("source must be a Measure1D or DiscreteSpace")


# ---------------------------------------------------------------------------
# profile-to-profile transforms
# ---------------------------------------------------------------------------

def _refined_window(xs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Integration grid on [lo, hi]: table nodes, a uniform fill of 40,000
    cells, and a geometric cluster of 65 points at the left endpoint."""
    base = xs[(xs > lo) & (xs < hi)]
    fill = np.linspace(lo, hi, 40001)
    first = base[0] - lo if base.size else hi - lo
    cluster_pts = lo + min(first, hi - lo) * np.geomspace(1e-9, 1.0, 65)
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
    cap_d = _real(cap_d, "cap_d", "[0, inf)")
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
    cap_d = _real(cap_d, "cap_d", "[0, inf)")
    kappa = _real(kappa, "kappa", "[0, inf)")
    if kappa > 0:
        delta0 = _real(delta0, "delta0", "(0.5, inf)")
        mask = gamma1.inputs >= _real(x0, "x0")
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
    kappa = _real(kappa, "kappa", "[0, inf)")
    if kappa > 0:
        delta0 = _real(delta0, "delta0", "(0.5, inf)")
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
    ``x_max`` must be finite and > log 2 (DomainError).
    """
    c = _real(c, "c", "(0, inf)")
    p = _real(p, "p", "[1, inf)")
    x_max = _real(x_max, "x_max", f"({LOG2!r}, inf)")
    u = np.linspace(0.0, 1.0, _count(n, "n", 2)) ** 1.5
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
    ``ratio``       min and max of profile / reference on the common grid.

    Infima are taken over the tabulated grid only; grid refinement is the
    caller's knob.  The method string records whether the input profile
    was exact (certified bound) or candidate-based (heuristic).
    """
    certified = profile.exactness == "exact"
    quality = "certified" if certified else "heuristic"
    if template == "p-exp-conc":
        p = _real(p, "p", "[1, inf)")
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
    if template == "ratio":
        if reference is None:
            raise DomainError("ratio template requires a reference profile")
        ref_vals = reference.at(profile.inputs)
        mask = (ref_vals > 0) & np.isfinite(profile.values)
        if not np.any(mask):
            raise DomainError("no usable grid points in the profile")
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
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) < 2:
                continue
            try:
                xs.append(float(parts[0]))
                vs.append(float(parts[1]))
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno} is not a numeric row") from None
            if len(parts) > 2:
                exactness = parts[2]
    return Profile(kind=kind, inputs=np.asarray(xs), values=np.asarray(vs),
                   exactness=exactness, step=step)


def profile_to_svg(profile: Profile, path: str) -> None:
    """Plain 640 x 480 SVG polyline of the finite part of a profile; no
    plotting deps."""
    finite = np.isfinite(profile.values)
    xs = profile.inputs[finite]
    vs = profile.values[finite]
    if xs.size == 0:
        raise ValidationError("profile has no finite values to plot")
    width, height, pad = 640, 480, 40
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
