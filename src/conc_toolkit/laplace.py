"""Log-Laplace transforms and their equivalence with concentration.

Two bound objects travel through this module:

* :class:`LaplaceBound` - "for every 1-Lipschitz f with zero mean,
  int exp(lam * D * f) dmu <= exp(lam * eps + Phi*(lam) + delta)";
* :class:`ConcBound` - "K(r) >= Phi((D' r - z')_+) - delta'".

Each direction of the translation between them is an explicit formula in
(Phi, D, eps, delta) evaluated on the tabulated Phi; the sup over
Lipschitz functions on a finite space is computed exactly, up to
``_VERTEX_CAP`` points, as a maximum over the vertices of the mean-zero
Lipschitz polytope, which a self-certifying pivot walk enumerates, and
by multistart local search on request.  The same vertices give the
exact first-moment constant and W_1 (see :mod:`conc_toolkit.transport`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .costs import _argument, _float_array, _shaped, legendre_numeric
from .errors import DomainError, UnsupportedSizeError, ValidationError
from .measures import DiscreteSpace, Measure1D
from .profiles import LOG2, invert_monotone

@dataclass(frozen=True)
class _PhiBound:
    """A convex Phi tabulated on a grid from 0, and the bound's rate."""

    phi_x: np.ndarray
    phi_vals: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        x = _float_array(self.phi_x, "phi_x")
        vals = _float_array(self.phi_vals, "phi_vals")
        if x.ndim != 1 or x.shape != vals.shape or x.size < 3:
            raise ValidationError("Phi grid must be two equal 1-D arrays (>= 3 points)")
        if not np.all(np.diff(x) > 0) or x[0] != 0.0:
            raise ValidationError("Phi grid must be strictly increasing from 0")
        if abs(vals[0]) > 1e-12:
            raise ValidationError("Phi(0) must be 0")
        if np.any(np.diff(vals) < -1e-12):
            raise ValidationError("Phi must be nondecreasing")
        slopes = np.diff(vals) / np.diff(x)
        if np.any(np.diff(slopes) < -1e-9 * (1.0 + np.abs(vals).max())):
            raise ValidationError("Phi must be convex on its grid")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValidationError("rate must be a positive finite real")
        object.__setattr__(self, "phi_x", x)
        object.__setattr__(self, "phi_vals", vals)

    def phi_at(self, x) -> np.ndarray:
        return np.interp(_float_array(x, "x"), self.phi_x, self.phi_vals)

    def phi_inv_at(self, y) -> float | np.ndarray:
        """Phi^{-1}(y) per y: a float for a scalar, else an array."""
        return invert_monotone(self.phi_x, self.phi_vals, y)


@dataclass(frozen=True)
class LaplaceBound(_PhiBound):
    eps: float = 0.0     # additive slack in metric units
    delta: float = 0.0   # additive slack in log units

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.eps < 0 or self.delta < 0:
            raise ValidationError("slacks eps, delta must be nonnegative")

    def phi_star_at(self, lam) -> float | np.ndarray:
        lam = _argument(lam, "lam", finite=True)
        _, out = legendre_numeric(self.phi_x, self.phi_vals, lam.ravel())
        return _shaped(lam, out)

    def rhs_log(self, lam) -> float | np.ndarray:
        """log of the admissible Laplace bound at lam."""
        lam = _argument(lam, "lam", finite=True)
        return _shaped(lam, lam * self.eps + self.phi_star_at(lam) + self.delta)


@dataclass(frozen=True)
class ConcBound(_PhiBound):
    offset: float = 0.0      # z' >= 0
    log_slack: float = 0.0   # delta' >= -log 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.offset < 0:
            raise ValidationError("offset z' must be nonnegative")
        if self.log_slack < -LOG2 - 1e-12:
            raise ValidationError("log slack delta' must be >= -log 2")

    def alpha_at(self, r) -> float | np.ndarray:
        """The concentration lower bound Phi((D' r - z')_+) - delta'."""
        r = _argument(r, "r")
        arg = np.maximum(self.rate * r - self.offset, 0.0)
        return _shaped(r, self.phi_at(arg) - self.log_slack)


# ---------------------------------------------------------------------------
# log-Laplace transform
# ---------------------------------------------------------------------------

def log_laplace(mu, f: np.ndarray, lam) -> float | np.ndarray:
    """L(lam) = log int exp(lam f) dmu.

    ``mu`` is a Measure1D (f = node values; exact for the grid model) or a
    weight vector (f = point values).  lam may be a scalar or array.
    L(0) = 0 identically and L is convex in lam.  Weights must be finite
    and nonnegative (ValidationError), and every lam finite (DomainError).
    """
    lam = _argument(lam, "lam", finite=True)
    f = _float_array(f, "f")
    if not np.all(np.isfinite(f)):
        raise ValidationError("integrand values must be finite")
    if isinstance(mu, Measure1D):
        out = [mu.log_mgf_nodes(f, la) for la in lam.ravel()]
    else:
        w = _float_array(mu, "weights")
        if w.shape != f.shape or w.size == 0:
            raise ValidationError("weights and values must be equal length, and nonempty")
        if not np.all((w >= 0) & np.isfinite(w)):
            raise ValidationError("weights must be finite and nonnegative")
        out = _lse_scores(lam.ravel(), f.reshape(-1, 1), np.log(np.maximum(w, 1e-300)).ravel())
    return _shaped(lam, out)


@dataclass(frozen=True)
class GibbsCheck:
    sup_value: float
    log_mgf: float
    theta_star: np.ndarray = field(repr=False)

    @property
    def gap(self) -> float:
        return abs(self.sup_value - self.log_mgf)


def gibbs_check(mu, psi: np.ndarray) -> GibbsCheck:
    """Verify sup_theta {int psi theta dmu - Ent_mu(theta)} = log int e^psi dmu.

    The two sides are computed by independent routes: the right directly,
    the left by evaluating the functional at the Gibbs optimizer
    theta* = e^psi / int e^psi dmu.
    """
    psi = _float_array(psi, "psi")
    if isinstance(mu, Measure1D):
        log_m = mu.log_mgf_nodes(psi, 1.0)
        theta = np.exp(psi - log_m)
        tilted = Measure1D(grid=mu.grid, potential=mu.potential - psi, provenance={})
        mean_psi = tilted.integrate_nodes(psi)
        # Ent via nodewise theta log theta (independent quadrature route)
        ent = mu.integrate_nodes(theta * (psi - log_m))
        sup_val = mean_psi - ent
        return GibbsCheck(sup_value=sup_val, log_mgf=log_m, theta_star=theta)
    w = _float_array(mu, "weights")
    log_m = log_laplace(w, psi, 1.0)
    theta = np.exp(psi - log_m)
    mean_psi = float(np.dot(w, theta * psi))
    with np.errstate(divide="ignore", invalid="ignore"):
        tlogt = np.where(theta > 0, theta * np.log(theta), 0.0)
    ent = float(np.dot(w, tlogt))
    return GibbsCheck(sup_value=mean_psi - ent, log_mgf=log_m, theta_star=theta)


# ---------------------------------------------------------------------------
# bound translations
# ---------------------------------------------------------------------------

def laplace_to_conc(bound: LaplaceBound) -> ConcBound:
    """Concentration from a Laplace-functional bound:
    D' = D, delta' = delta, z' = Phi^{-1}(log 2 + delta) + 2 eps."""
    z = bound.phi_inv_at(LOG2 + bound.delta) + 2.0 * bound.eps
    return ConcBound(phi_x=bound.phi_x.copy(), phi_vals=bound.phi_vals.copy(),
                     rate=bound.rate, offset=z, log_slack=bound.delta)


def _exp_neg_phi_integral(x: np.ndarray, vals: np.ndarray) -> float:
    """int_0^oo exp(-Phi) for the piecewise-linear Phi with linear tail
    extension: on the grid the normalizer of the Measure1D with potential
    Phi, past it a closed form, rejected when the tail slope is not
    positive."""
    tail_slope = (vals[-1] - vals[-2]) / (x[-1] - x[-2])
    if tail_slope <= 0:
        raise DomainError("exp(-Phi) is not integrable: flat or decreasing tail")
    body = math.exp(Measure1D(grid=x, potential=vals).log_z)
    return body + math.exp(-vals[-1]) / tail_slope


def conc_to_laplace(bound: ConcBound, tau: float = 0.5) -> LaplaceBound:
    """Laplace-functional bound from concentration, for any tau in (0, 1):

        D     = tau D'
        delta = delta' + log(exp(-delta') + tau / (1 - tau))
        eps   = tau (2 z' + Phi^{-1}(log 2 + delta') + int_0^oo e^{-Phi})

    tau defaults to 1/2, balancing the loss in the rate against the
    growth of the additive slacks.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError("tau must lie in (0, 1)")
    if bound.log_slack < -LOG2:
        raise DomainError("delta' must be >= -log 2")
    d_new = tau * bound.rate
    delta_new = bound.log_slack + math.log(
        math.exp(-bound.log_slack) + tau / (1.0 - tau))
    tail_int = _exp_neg_phi_integral(bound.phi_x, bound.phi_vals)
    eps_new = tau * (2.0 * bound.offset
                     + bound.phi_inv_at(LOG2 + bound.log_slack) + tail_int)
    return LaplaceBound(phi_x=bound.phi_x.copy(), phi_vals=bound.phi_vals.copy(),
                        rate=d_new, eps=eps_new, delta=delta_new)


def herbst_laplace(rho: float) -> tuple[LaplaceBound, ConcBound]:
    """The sub-Gaussian package implied by a log-Sobolev constant rho:
    a Laplace bound with Phi*(lam) = lam^2 / (4 rho) (i.e. Phi = rho x^2,
    D = 1, no slack), and its induced concentration bound
    K(r) >= rho (r - sqrt(log 2 / rho))_+^2."""
    if not 0.0 < rho < math.inf:
        raise DomainError(f"rho must be positive and finite, got {rho}")
    xs = np.linspace(0.0, math.sqrt(80.0 / rho), 16385)
    bound = LaplaceBound(phi_x=xs, phi_vals=rho * xs * xs, rate=1.0)
    return bound, laplace_to_conc(bound)


# ---------------------------------------------------------------------------
# exact sup over 1-Lipschitz mean-zero functions (finite spaces)
# ---------------------------------------------------------------------------

# the largest space whose Lipschitz polytope is enumerated; a generic
# metric's has C(2n - 2, n - 1) vertices, 3,432 at n = 8, and the walk's
# key of a basis, one bit per ordered pair, fits one uint64 up to n = 8
_VERTEX_CAP = 8
_PRIMES = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0])  # one per point


def _lipschitz_walk(d: np.ndarray) -> np.ndarray:
    """The vertex of every basis the walk reaches on ``d``, repeats included."""
    n, eye = len(d), np.eye(len(d))
    m, k, seen, found = n - 1, np.arange(n - 1), set(), []
    p = 1.0 + 1e-3 * np.sqrt(np.outer(_PRIMES[:n], _PRIMES[:n]))  # ties: d + eps p
    bits = (np.uint64(1) << np.arange(n * n, dtype=np.uint64)).reshape(n, n)
    tails, heads = (x.reshape(n, m) for x in np.nonzero(eye == 0))  # star trees
    while len(tails):
        key = np.minimum(bits[tails, heads].sum(1), bits[heads, tails].sum(1))
        keys, first = np.unique(key, return_index=True)  # one of each mirrored pair
        fresh = first[[b not in seen for b in keys.tolist()]]
        seen.update(keys.tolist())
        tails, heads = tails[fresh], heads[fresh]
        a = np.zeros((len(tails), n, n))
        a[:, :m], a[:, m, 0] = eye[tails] - eye[heads], 1.0  # tree rows, f_0 = 0
        moves = -np.linalg.inv(a)[:, :, :m]  # each relaxes one row, keeps the rest
        v, w = ((-moves @ c[tails, heads, None])[..., 0] for c in (d, p))
        found += [v, -v]
        lift = moves.transpose(0, 2, 1)[..., None]  # move k lifts row (i, j) by 1
        rises = lift > lift.transpose(0, 1, 3, 2) + 0.5
        step = np.where(rises, (d - v[:, :, None] + v[:, None])[:, None], np.inf)
        tie = step <= step.min(axis=(2, 3), keepdims=True) + 1e-12  # rounding
        lex = np.where(tie, (p - w[:, :, None] + w[:, None])[:, None], np.inf)
        enter = np.divmod(np.argmin(lex.reshape(len(tails), m, n * n), axis=2), n)
        tails, heads = np.repeat(tails, m, axis=0), np.repeat(heads, m, axis=0)
        tails.reshape(-1, m, m)[:, k, k], heads.reshape(-1, m, m)[:, k, k] = enter
    return np.concatenate(found)


def _pinned_lipschitz_vertices(space: DiscreteSpace) -> np.ndarray:
    """Vertices of {f : f_i - f_j <= d_ij, f_0 = 0}, by a self-certifying walk.

    A basis is a spanning tree of tight rows f_i - f_j = d_ij (i -> j),
    keyed by its bitmask of rows; each of its n - 1 moves relaxes one row
    and enters the row it reaches first, ties broken as if the distances
    were d + eps (1 + g), g_ij = sqrt(q_i q_j) / 1000 for distinct primes
    q: no rational relation holds between such roots.  That metric is
    strict, so the star trees f = +-(d(., j) - d(0, j)) the walk starts
    from are feasible, and its vertices are simple: the bases reached are
    those of a simple polytope, whose graph is connected, so the walk
    closes on all of them, and each vertex here is a limit of theirs.  By
    symmetry one tree of each mirrored pair is expanded.  The walk runs on
    the distances divided by the diameter; vertices are told apart at 1e-9.
    """
    n = space.n
    if n > _VERTEX_CAP:
        raise UnsupportedSizeError(f"vertex enumeration capped at n = {_VERTEX_CAP}; use a "
                                   "heuristic: laplace_sup_discrete(..., exact=False) or "
                                   "first_moment_constant(..., mode='heuristic')")
    if n == 1:
        return np.zeros((1, 1))
    d = space.dist / space.diameter
    try:
        f = _lipschitz_walk(d)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"Lipschitz vertex enumeration failed: {exc}") from None
    f = f[np.unique(np.round(f, 9), axis=0, return_index=True)[1]]
    stretch = float(np.max(f[:, :, None] - f[:, None, :] - d))
    if not stretch <= 1e-9:
        raise ValidationError(f"Lipschitz vertex enumeration failed: a vertex breaks "
                              f"the Lipschitz bound by {stretch:.3g} x diameter")
    return f * space.diameter


def _recentred(pinned: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return pinned - (pinned @ mu)[:, None]


def mean_zero_lipschitz_vertices(space: DiscreteSpace, mu: np.ndarray) -> np.ndarray:
    """Vertices of {f : |f_i - f_j| <= d_ij, sum mu_i f_i = 0}: those of
    the polytope pinned at f_0 = 0, recentred by mu."""
    mu = _checked_weights(mu, space.n, "mu")
    return _recentred(_pinned_lipschitz_vertices(space), mu)


def _lipschitz_repair(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    for _ in range(3):
        g = np.min(g[None, :] + d, axis=1)
    return g


def _checked_weights(w, n: int, name: str) -> np.ndarray:
    """``w`` as n finite nonnegative weights, or ValidationError naming it."""
    w = _float_array(w, name)
    if w.shape != (n,):
        raise ValidationError(f"{name} must hold one weight per point: shape ({n},), "
                              f"got {w.shape}")
    if not np.all((w >= 0) & np.isfinite(w)):
        raise ValidationError(f"{name} must be finite and nonnegative")
    return w


def _lse_scores(lam: np.ndarray, f: np.ndarray, logw: np.ndarray) -> np.ndarray:
    """log sum_i exp(lam f_i + logw_i) per lam and vertex, (L, V), from f
    (n, V) and logw (n,), or per-lam vertex sets f (n, L, V), logw (n, L, 1):
    a max-shifted log-sum-exp whose max and exp run one point at a time on
    (L, V) arrays, and whose sum is numpy's over the last axis of the
    stacked (L, V, n) terms, so each entry takes the same float ops in any
    batch.  On 2^16 scores with n = 3-8 (2-vCPU Xeon) this takes about a
    third of the time of the same log-sum-exp done wholly on the (L, V, n)
    array."""
    x = [lam[:, None] * fi + wi for fi, wi in zip(f, logw)]
    m = x[0].copy()
    for xi in x[1:]:
        np.maximum(m, xi, out=m)
    for xi in x:
        np.exp(np.subtract(xi, m, out=xi), out=xi)
    return m + np.log(np.stack(x, axis=-1).sum(axis=-1))


def _sup_scorer(mus: list, verts: list) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """For weights ``mus[k]`` and vertex sets ``verts[k]``, each checked
    once here: (owner, lam) -> one sup per pair, bit for bit
    ``laplace_sup_discrete(., mus[owner], lam, vertices=verts[owner])``.
    One log-sum-exp per point count n, over blocks of <= 2^16 entries; a
    short vertex set is padded with its first vertex, which keeps the max."""
    mus = [_checked_weights(m, np.shape(v)[1], "mu") for m, v in zip(mus, verts)]
    n_of = np.array([mu.size for mu in mus])
    local, groups = np.zeros(len(mus), dtype=int), []
    for n in np.unique(n_of):
        members = np.flatnonzero(n_of == n)
        local[members] = np.arange(members.size)
        top = max(len(verts[k]) for k in members)
        padded = np.stack([np.concatenate([verts[k], np.repeat(verts[k][:1],
                                                               top - len(verts[k]), 0)]).T
                           for k in members], axis=1)  # (n, members, top)
        logw = np.log(np.maximum(np.stack([mus[k] for k in members], axis=1), 1e-300))
        groups.append((n, padded, logw, max(1, 2**16 // (n * top))))

    def score(owner: np.ndarray, lam: np.ndarray) -> np.ndarray:
        out = np.empty(lam.shape)
        for n, padded, logw, block in groups:
            rows = np.flatnonzero(n_of[owner] == n)
            for start in range(0, rows.size, block):
                r = rows[start:start + block]
                g = local[owner[r]]
                out[r] = _lse_scores(lam[r], padded[:, g], logw[:, g, None]).max(axis=1)
        return out

    return score


def laplace_sup_discrete(space: DiscreteSpace, mu, lam, *, exact: bool = True,
                         vertices: np.ndarray | None = None, seed: int = 0,
                         ) -> tuple[np.ndarray, str, np.ndarray]:
    """sup over 1-Lipschitz f with int f dmu = 0 of log int e^{lam f} dmu.

    Exact up to ``_VERTEX_CAP`` points (the objective is convex in f, so the
    sup over the mean-zero Lipschitz polytope is attained at a vertex);
    local search from 32 random starts with ``exact=False``, flagged "lower".
    ``mu`` must hold one finite nonnegative weight per point
    (ValidationError), and every lam must be finite (DomainError).

    Returns (values over the lam grid, exactness flag, best f per lam).
    """
    n = space.n
    mu = _checked_weights(mu, n, "mu")
    lam_arr = np.atleast_1d(_float_array(lam, "lam"))
    if not np.all(np.isfinite(lam_arr)):
        raise DomainError("lam must be finite")
    if exact:
        verts = vertices if vertices is not None else mean_zero_lipschitz_vertices(
            space, mu)
        flag = "exact"
    else:
        rng = np.random.default_rng(seed)
        cand = [np.zeros(n)]
        for _ in range(32):
            j = int(rng.integers(n))
            g = rng.choice([-1.0, 1.0]) * space.dist[j] + 0.1 * rng.normal(size=n)
            g = _lipschitz_repair(g, space.dist)
            cand.append(g - np.dot(mu, g))
        verts = np.asarray(cand)
        flag = "lower"
    ls = _lse_scores(lam_arr, verts.T, np.log(np.maximum(mu, 1e-300)))
    j = np.argmax(ls, axis=1)
    return ls[np.arange(lam_arr.size), j], flag, verts[j]
