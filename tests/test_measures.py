import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conc_toolkit import measures
from conc_toolkit.errors import DomainError, ValidationError
from conc_toolkit.measures import (
    _cell_partial_mass,
    _cell_partial_moment,
    _e2,
    _scaled_target,
    DiscreteSpace,
    Measure1D,
    atomize_1d,
    build_discrete_space,
    build_measure_1d,
    derive_measure,
    discrete_space_from_atoms,
    is_symmetric,
)
from conc_toolkit.profiles import conc_profile
from conc_toolkit.suites import _random_space
from conc_toolkit.transport import tilt_measure_1d


@pytest.fixture(scope="module")
def gamma1():
    return build_measure_1d(preset="gamma_p", p=1.0)


@pytest.fixture(scope="module")
def gamma2():
    return build_measure_1d(preset="gamma_p", p=2.0)


def test_gamma1_normalization_closed_form(gamma1):
    # int exp(-|x|) dx = 2
    assert gamma1.log_z == pytest.approx(math.log(2.0), abs=1e-12)


def test_normalizer_and_certificates_are_derived(gamma2):
    for name in ("log_z", "kappa", "logconcave"):
        with pytest.raises(TypeError):
            Measure1D(gamma2.grid, gamma2.potential, **{name: 0.0})
    # the density of the stored normalizer integrates to 1, as cdf says
    mu = Measure1D(gamma2.grid, gamma2.potential)
    assert mu.log_z == gamma2.log_z
    assert mu.integrate_nodes(np.ones(mu.grid.size)) == pytest.approx(1.0, abs=1e-12)
    total = np.trapezoid(mu.density(mu.grid), mu.grid)
    assert total == pytest.approx(mu.cdf(mu.grid[-1]), rel=1e-5)


def test_gamma2_normalization_closed_form(gamma2):
    # quadratic potential: the piecewise-linear model converges at O(h^2)
    target = 0.5 * math.log(2.0 * math.pi)
    assert gamma2.log_z == pytest.approx(target, abs=1e-5)
    fine = build_measure_1d(preset="gamma_p", p=2.0, n_points=65536)
    assert fine.log_z == pytest.approx(target, abs=1e-8)


def test_density_integrates_to_one(gamma1, gamma2):
    for mu in (gamma1, gamma2):
        total = mu.cdf_nodes[-1]
        assert total == pytest.approx(1.0, abs=1e-9)


def test_gauge_invariance_of_constant_shift():
    xs = np.linspace(-8.0, 8.0, 1001)
    m0 = build_measure_1d(grid=xs, potential=0.5 * xs * xs)
    m1 = build_measure_1d(grid=xs, potential=0.5 * xs * xs + 7.25)
    probe = np.linspace(-5, 5, 57)
    np.testing.assert_allclose(m0.density(probe), m1.density(probe), rtol=1e-12)


def test_quantile_cdf_round_trip(gamma2):
    xs = np.linspace(-7.5, 7.5, 301)
    back = gamma2.quantile(gamma2.cdf(xs))
    step = np.diff(gamma2.grid).max()
    assert np.max(np.abs(back - xs)) <= step


def test_cdf_and_sf_stay_in_the_unit_interval():
    # rounding in the cumulated cell masses once gave cdf(2.99) = 1 + 2e-16,
    # which quantile then rejected
    mu = Measure1D(grid=[0.0, 1.0, 2.0, 3.0], potential=[5.6, -30.5, 1.1, 10.2])
    assert mu.cdf(2.99) <= 1.0
    assert mu.sf(2.99) >= 0.0
    assert mu.quantile(mu.cdf(2.99)) <= 3.0


def _random_measure(seed: int, n: int) -> Measure1D:
    """n nodes on [-5, 5] with potentials in [-30, 30]: densities spanning
    about 26 orders of magnitude."""
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.uniform(-5.0, 5.0, n))
    assume(np.all(np.diff(grid) > 1e-6))
    return Measure1D(grid=grid, potential=rng.uniform(-30.0, 30.0, n))


measure_args = {"seed": st.integers(min_value=0, max_value=2**32 - 1),
                "n": st.integers(min_value=3, max_value=12)}


@settings(max_examples=60, deadline=None)
@given(**measure_args)
def test_cdf_plus_sf_is_one_property(seed, n):
    mu = _random_measure(seed, n)
    lo, hi = mu.support
    x = np.random.default_rng(seed).uniform(lo - 1.0, hi + 1.0, 200)
    cdf, sf = mu.cdf(x), mu.sf(x)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0) & (sf >= 0.0) & (sf <= 1.0))
    np.testing.assert_allclose(cdf + sf, 1.0, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(**measure_args)
def test_cdf_of_quantile_is_identity_property(seed, n):
    mu = _random_measure(seed, n)
    u = np.concatenate([[0.0, 1.0], np.random.default_rng(seed).uniform(0.0, 1.0, 200)])
    np.testing.assert_allclose(mu.cdf(mu.quantile(u)), u, rtol=0.0, atol=1e-11)


@settings(max_examples=60, deadline=None)
@given(**measure_args)
def test_quantile_of_cdf_is_identity_where_density_is_not_negligible(seed, n):
    # Where the density is ~1e-17 the CDF is flat in double precision and
    # the quantile is not unique, so only points the CDF resolves count:
    # an error du in u moves x by du / density.
    mu = _random_measure(seed, n)
    lo, hi = mu.support
    x = np.random.default_rng(seed).uniform(lo, hi, 200)
    x = x[mu.density(x) * (hi - lo) >= 1e-3]
    np.testing.assert_allclose(mu.quantile(mu.cdf(x)), x, rtol=0.0,
                               atol=1e-10 * (hi - lo))


def test_deep_tail_survival_accuracy(gamma1):
    # The window-truncated two-sided exponential has the closed form
    # sf(r) = (e^{-r} - e^{-R}) / (2 (1 - e^{-R})); the model reproduces it
    # to full relative precision even at sf ~ 1e-14.
    big_r = gamma1.support[1]
    rs = np.array([1.0, 5.0, 20.0, 30.0])
    exact = (np.exp(-rs) - math.exp(-big_r)) / (2.0 * -math.expm1(-big_r))
    np.testing.assert_allclose(gamma1.sf(rs), exact, rtol=1e-11)
    np.testing.assert_allclose(gamma1.cdf(-rs), exact, rtol=1e-11)


def test_quantile_upper_matches_tail(gamma1):
    tails = np.array([0.25, 1e-3, 1e-8])
    xs = gamma1.quantile_upper(tails)
    np.testing.assert_allclose(gamma1.sf(xs), tails, rtol=1e-10)


def _solve_mass_backward(v1, b, target):
    """The right-end mass solve quantile_upper used before it became the
    left-end one with the slope negated: tau >= 0 with unnormalized mass
    over [x_hi - tau, x_hi] equal to target, the potential being
    v1 - b (x_hi - x)."""
    te = _scaled_target(v1, target)
    b = np.asarray(b, dtype=float)
    w = te * b
    small = np.abs(w) < 1e-10
    safe_b = np.where(small, 1.0, b)
    with np.errstate(divide="ignore"):
        direct = np.log1p(np.maximum(np.where(small, 0.0, w), -1.0)) / safe_b
    linear = te * (1.0 - 0.5 * w)
    return np.where(small, linear, direct)


def _quantile_upper_backward(mu: Measure1D, tail: np.ndarray) -> np.ndarray:
    """quantile_upper by the route through _solve_mass_backward."""
    rev = mu.sf_nodes[::-1]
    hi = np.clip(mu.sf_nodes.size - np.searchsorted(rev, tail, side="right"),
                 1, mu.grid.size - 1)
    i = hi - 1
    rem = np.maximum((tail - mu.sf_nodes[hi]) * mu._z_shifted, 0.0)
    tau = _solve_mass_backward(mu._shifted_potential[hi], mu._slopes[i], rem)
    out = mu.grid[hi] - np.minimum(tau, mu._widths[i])
    return np.where(tail >= 1.0, mu.grid[0], out)


@settings(max_examples=60, deadline=None)
@given(**measure_args, extra=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20))
def test_quantile_upper_equals_the_backward_solve_property(seed, n, extra):
    mu = _random_measure(seed, n)
    rng = np.random.default_rng(seed)
    tails = np.concatenate([[0.0, 1.0], extra, 10.0 ** -rng.uniform(0.0, 300.0, 200),
                            rng.uniform(0.0, 1.0, 100)])
    assert np.array_equal(mu.quantile_upper(tails), _quantile_upper_backward(mu, tails))


def test_quantiles_on_a_window_wider_than_1e290():
    """Slopes below 1e-300 whose mass solve takes the direct branch are
    divided by, not replaced by 1, which put quantiles outside the support."""
    mu = Measure1D(grid=[0.0, 1e305, 2e305], potential=[0.0, -5.0, 0.0])
    u = np.array([0.1, 0.25, 0.4])
    lower, upper = mu.quantile(u), mu.quantile_upper(u[::-1])
    for xs in (lower, upper):
        assert np.all(np.diff(xs) >= 0.0)
        assert np.all((xs >= 0.0) & (xs <= 2e305))
    np.testing.assert_allclose(mu.cdf(lower), u, rtol=1e-9)
    np.testing.assert_allclose(mu.sf(upper), u[::-1], rtol=1e-9)


def test_symmetry_and_median(gamma1, gamma2):
    for mu in (gamma1, gamma2):
        assert is_symmetric(mu)
        assert abs(mu.median()) < 1e-12
        assert abs(mu.mean()) < 1e-12


def test_unsorted_grid_rejected():
    xs = np.array([0.0, 2.0, 1.0, 3.0])
    with pytest.raises(ValidationError):
        build_measure_1d(grid=xs, potential=np.zeros(4))


def test_nonintegrable_potential_rejected():
    xs = np.linspace(-1, 1, 11)
    vs = np.full(11, np.inf)
    with pytest.raises(ValidationError):
        build_measure_1d(grid=xs, potential=vs)


@pytest.mark.parametrize("level", [math.nan, -0.1, 1.1, [0.5, math.nan]],
                         ids=["nan", "negative", "above-1", "nan-in-array"])
def test_quantile_level_outside_unit_interval_rejected(level):
    """A NaN level is not in [0, 1]: both quantiles raise, as for -0.1."""
    mu = build_measure_1d(preset="gamma_p", p=2, n_points=301)
    with pytest.raises(DomainError, match="quantile argument"):
        mu.quantile(level)
    with pytest.raises(DomainError, match="tail mass"):
        mu.quantile_upper(level)


def test_preset_p_range():
    with pytest.raises(DomainError):
        build_measure_1d(preset="gamma_p", p=0.5)
    with pytest.raises(DomainError):
        build_measure_1d(preset="gamma_p", p=9.0)


def test_logconcave_certificates(gamma1, gamma2):
    assert gamma1.logconcave
    assert gamma2.logconcave
    assert gamma1.kappa == 0.0
    xs = np.linspace(-1.0, 1.0, 201)
    bumpy = build_measure_1d(grid=xs, potential=-0.5 * xs * xs)
    assert not bumpy.logconcave
    assert bumpy.kappa == pytest.approx(1.0, rel=1e-6)
    # double well x^4 - x^2: V'' = 12 x^2 - 2 >= -2, attained at 0
    xs = np.linspace(-2.0, 2.0, 2001)
    well = build_measure_1d(grid=xs, potential=xs**4 - xs**2)
    assert well.kappa == pytest.approx(2.0, abs=1e-3)


class TestDeriveMeasure:
    def test_restrict_half_gaussian(self, gamma2):
        mu2 = derive_measure(gamma2, "restrict", a=0.0, b=np.inf)
        assert mu2.provenance["p"] == pytest.approx(0.5, abs=1e-12)
        assert mu2.logconcave
        # density 2 exp(-x^2/2) / sqrt(2 pi) on [0, oo); tolerance reflects
        # the piecewise-linear interpolation of the quadratic potential
        xs = np.array([0.1, 0.5, 1.7])
        expected = 2.0 * np.exp(-0.5 * xs * xs) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(mu2.density(xs), expected, rtol=1e-5)

    def test_restrict_zero_mass_rejected(self, gamma2):
        with pytest.raises(ValidationError):
            derive_measure(gamma2, "restrict", a=100.0, b=200.0)

    def test_density_ratio_identity(self, gamma2):
        mu2 = derive_measure(gamma2, "density-ratio",
                             phi=np.zeros_like(gamma2.grid), cap=0.0)
        probe = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(mu2.density(probe), gamma2.density(probe),
                                   rtol=1e-12)
        assert mu2.provenance["attained"] == pytest.approx(0.0, abs=1e-12)

    def test_density_ratio_cap_enforced(self, gamma2):
        phi = np.where(np.abs(gamma2.grid) < 0.5, 3.0, 0.0)
        with pytest.raises(ValidationError, match="attained"):
            derive_measure(gamma2, "density-ratio", phi=phi, cap=0.5)

    def test_density_ratio_cap_certificate(self, gamma2):
        phi = -np.abs(gamma2.grid)  # concave tilt, bounded above by 0
        mu2 = derive_measure(gamma2, "density-ratio", phi=phi, cap=2.0)
        # measured sup log(d mu2/d mu1) <= D + 1e-9
        ratio = mu2.log_density(mu2.grid) - gamma2.log_density(mu2.grid)
        assert ratio.max() <= 2.0 + 1e-9
        assert mu2.logconcave  # concave tilt of a log-concave measure

    def test_translate(self, gamma2):
        mu2 = derive_measure(gamma2, "translate", t=1.0)
        assert mu2.median() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("mode, kwargs, missing", [
        ("density-ratio", {"cap": 1.0}, "phi"), ("density-ratio", {}, "phi, cap"),
        ("restrict", {"a": 0.0}, "b"), ("translate", {}, "t")])
    def test_missing_keyword_names_mode_and_key(self, gamma2, mode, kwargs, missing):
        with pytest.raises(ValidationError, match=f"'{mode}' requires {missing}$"):
            derive_measure(gamma2, mode, **kwargs)


class TestDiscreteSpace:
    def test_two_point_valid(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        assert s.n == 2
        assert s.diameter == 1.0

    def test_triangle_violation_names_triple(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        w = np.full(3, 1 / 3)
        with pytest.raises(ValidationError, match="triangle"):
            build_discrete_space(d, w)

    def test_path_metric_valid(self):
        idx = np.arange(4)
        d = np.abs(idx[:, None] - idx[None, :]).astype(float)
        s = build_discrete_space(d, np.full(4, 0.25))
        assert s.breakpoints().tolist() == [1.0, 2.0, 3.0]

    def test_negative_weight_rejected(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="negative weight"):
            build_discrete_space(d, np.array([1.5, -0.5]))

    def test_weight_sum_rejected(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="sum"):
            build_discrete_space(d, np.array([0.7, 0.5]))

    def test_tolerated_diagonal_is_zeroed(self):
        # |d(i, i)| <= 1e-9 is accepted; the stored metric has a zero
        # diagonal, so every point lies in its own radius-0 ball
        space = _random_space(np.random.default_rng(5), 7)
        d = space.dist.copy()
        np.fill_diagonal(d, 5e-10)
        given = d.copy()
        nudged = build_discrete_space(d, space.weights)
        assert np.array_equal(d, given)  # the caller's matrix is not touched
        assert np.array_equal(nudged.dist, space.dist)
        for exact in (True, False):
            assert np.array_equal(conc_profile(nudged, exact=exact).values,
                                  conc_profile(space, exact=exact).values)

    @pytest.mark.parametrize("seed", range(8))
    def test_tolerated_asymmetry_keeps_the_upper_triangle(self, seed):
        # |d(i, j) - d(j, i)| <= 1e-9 is accepted; the stored metric is the
        # upper triangle mirrored, so both triangles give the same balls
        space = _random_space(np.random.default_rng(seed), 6)
        d = space.dist + np.tril(np.full((6, 6), 5e-10), -1)
        given = d.copy()
        nudged = build_discrete_space(d, space.weights)
        assert np.array_equal(d, given)
        assert np.array_equal(nudged.dist, space.dist)
        assert np.array_equal(conc_profile(nudged).values, conc_profile(space).values)

    def test_constructor_validates(self):
        with pytest.raises(ValidationError, match="symmetric"):
            DiscreteSpace(dist=[[0.0, 1.0], [3.0, 0.0]], weights=[0.5, 0.5])
        with pytest.raises(ValidationError, match="sum"):
            DiscreteSpace(dist=[[0.0, 1.0], [1.0, 0.0]], weights=[0.9, 0.9])
        s = DiscreteSpace(dist=[[0.0, 1.0], [1.0, 0.0]], weights=[1.0 + 1e-10, -1e-10])
        assert s.weights.tolist() == [1.0 + 1e-10, 0.0]

    def test_nan_weight_rejected(self):
        with pytest.raises(ValidationError, match="weights must hold finite"):
            DiscreteSpace(dist=1.0 - np.eye(3), weights=[math.nan, 0.5, 0.5])

    def test_infinite_distance_rejected(self):
        with pytest.raises(ValidationError, match="dist must hold finite"):
            DiscreteSpace(dist=[[0.0, math.inf], [math.inf, 0.0]], weights=[0.5, 0.5])

    def test_nan_distance_rejected_as_non_finite(self):
        with pytest.raises(ValidationError, match="dist must hold finite"):
            DiscreteSpace(dist=[[0.0, math.nan], [math.nan, 0.0]], weights=[0.5, 0.5])


def _e2_both_branches(u):
    """The two-branch form _e2 had when both branches ran on every element."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-2
    safe = np.where(small, 1.0, u)
    direct = (1.0 - (1.0 + safe) * np.exp(-safe)) / (safe * safe)
    series = 0.5 - u / 3.0 + u * u / 8.0 - u**3 / 30.0 + u**4 / 144.0
    return np.where(small, series, direct)


e2_points = st.one_of(st.floats(allow_nan=False, width=64),
                      st.floats(min_value=-1e-2, max_value=1e-2),
                      st.sampled_from([0.0, -0.0, 1e-2, -1e-2, np.inf, -np.inf]))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(e2_points, max_size=20))
def test_e2_equals_the_two_branch_form(points):
    with np.errstate(all="ignore"):
        for u in [np.array(points), *points[:3]]:
            got, want = _e2(u), _e2_both_branches(u)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_atomize_preserves_mean(gamma2):
    pos, w = atomize_1d(gamma2, 64)
    assert w.sum() == pytest.approx(1.0)
    assert abs(np.dot(pos, w)) < 1e-9
    space = discrete_space_from_atoms(pos, w)
    assert space.n == 64


@pytest.mark.parametrize("m", [2.5, 17.0, math.inf, math.nan, "17", True, 1])
def test_atomize_rejects_a_count_that_is_not_an_integer_from_2(gamma2, m):
    with pytest.raises(DomainError, match="integer number of atoms >= 2"):
        atomize_1d(gamma2, m)


def test_json_round_trip(tmp_path, gamma1):
    path = tmp_path / "m.json"
    gamma1.save(str(path))
    back = type(gamma1).load(str(path))
    np.testing.assert_allclose(back.grid, gamma1.grid)
    np.testing.assert_allclose(back.potential, gamma1.potential)
    assert back.log_z == pytest.approx(gamma1.log_z, abs=1e-12)
    assert back.logconcave == gamma1.logconcave


def test_log_mgf_gaussian(gamma2):
    # moment generating function of the standard Gaussian: lam^2 / 2
    for lam in (0.25, 1.0, 2.0):
        val = gamma2.log_mgf_nodes(gamma2.grid, lam)
        assert val == pytest.approx(lam * lam / 2.0, abs=2e-6)
    assert gamma2.log_mgf_nodes(gamma2.grid, 0.0) == 0.0


def test_partial_moment_exponential(gamma1):
    # int_0^oo x e^{-x}/2 dx = 1/2
    val = gamma1.partial_moment(0.0, gamma1.support[1])
    assert val == pytest.approx(0.5, abs=1e-10)


def _triangle_k_loop(d):
    """The triangle check one k at a time, as DiscreteSpace ran it: None, or
    the message naming the first violating triple in (k, i, j) order."""
    for k in range(len(d)):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        if np.any(slack > 1e-9):
            i, j = np.argwhere(slack > 1e-9)[0]
            return (f"triangle inequality violated by triple ({i}, {k}, {j}): "
                    f"d({i},{j}) = {d[i, j]:.6g} > {d[i, k] + d[k, j]:.6g}")
    return None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.one_of(st.integers(3, 12), st.sampled_from([90, 140])),
       stretch=st.one_of(st.floats(0.05, 3.0), st.sampled_from([1.0 + 5e-10, 1.0 + 2e-9])))
def test_blocked_triangle_check_equals_the_k_loop(seed, n, stretch):
    """One entry of a planar metric scaled by ``stretch``: the blocked check
    accepts and rejects as the k-loop does and names the same triple, also
    across blocks (n = 90 and 140 take 6 and 3 values of k per block)."""
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n)
    i, j = rng.choice(n, size=2, replace=False)
    d = space.dist.copy()
    d[i, j] = d[j, i] = d[i, j] * stretch
    want = _triangle_k_loop(d)
    if want is None:
        assert np.array_equal(build_discrete_space(d, space.weights).dist, d)
    else:
        with pytest.raises(ValidationError) as err:
            build_discrete_space(d, space.weights)
        assert str(err.value) == want


def test_space_of_200_points_builds():
    rng = np.random.default_rng(3)
    space = _random_space(rng, 200)
    assert build_discrete_space(space.dist, space.weights).n == 200
    d = space.dist.copy()
    d[0, 199] = d[199, 0] = 3.0 * d[0, 199]
    with pytest.raises(ValidationError) as err:
        build_discrete_space(d, space.weights)
    assert str(err.value) == _triangle_k_loop(d)


def test_arrays_are_read_only_copies_of_the_inputs():
    grid = np.linspace(-3.0, 3.0, 31)
    pot = 0.5 * grid**2
    mu = build_measure_1d(grid, pot)
    d = np.abs(grid[:4, None] - grid[None, :4])
    w = np.full(4, 0.25)
    space = build_discrete_space(d, w)
    for kept in (mu.grid, mu.potential, mu.node_weights(), mu.cell_masses,
                 mu.cdf_nodes, mu.sf_nodes, space.dist, space.weights):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1.0
    for given_array, kept in ((grid, mu.grid), (pot, mu.potential), (d, space.dist),
                              (w, space.weights)):
        assert given_array.flags.writeable
        assert not np.shares_memory(given_array, kept)


# the cell primitives of the piecewise-linear model, and the cell table a
# Measure1D keeps, which no module but measures.py may name or read
_CELL_NAMES = {"_cells", "_cell_partial_mass", "_cell_partial_moment", "_e1", "_e2",
               "_tilted_cells"}
_CELL_TABLE = {"_widths", "_slopes", "_shifted_potential", "_z_shifted", "_m0", "_m1",
               "_node_weights", "_partial_cell"}


def test_only_measures_knows_the_cell_model():
    """A static check over every module of ``conc_toolkit`` but measures.py:
    no name, import or attribute names a cell primitive, and no attribute
    reads the cell table."""
    found = []
    for path in sorted(Path(measures.__file__).resolve().parent.glob("*.py")):
        if path.name == "measures.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named = {node.id} & _CELL_NAMES
            elif isinstance(node, ast.ImportFrom):
                named = {alias.name for alias in node.names} & _CELL_NAMES
            elif isinstance(node, ast.Attribute):
                named = {node.attr} & (_CELL_NAMES | _CELL_TABLE)
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in sorted(named)]
    assert found == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 80))
def test_cell_table_integrals_equal_the_two_pass_formulas(seed, n):
    """node_weights, integrate_nodes and mean read one cell table; each
    equals, bit for bit, the formulas that recomputed the cells per call."""
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.01, 1.0, n))
    pot = rng.normal(scale=3.0, size=n)
    mu = Measure1D(grid=grid, potential=pot)
    f = rng.normal(size=n)
    widths = np.diff(grid)
    v0 = (pot - pot.min())[:-1]
    slopes = np.diff(pot) / widths
    m0 = _cell_partial_mass(v0, slopes, widths)
    m1 = _cell_partial_moment(v0, slopes, widths)
    z = float(m0.sum())
    right = m1 / widths
    left = m0 - right
    w = np.zeros(n)
    w[:-1] += left
    w[1:] += right
    assert np.array_equal(mu.node_weights(), w / z)
    assert mu.node_weights() is mu.node_weights()
    assert mu.integrate_nodes(f) == float(np.sum(f[:-1] * m0 + np.diff(f) / widths * m1) / z)
    assert mu.mean() == mu.partial_moment(*mu.support)


@pytest.mark.parametrize("lam", [-2.0, -0.25, 0.5, 2.0])
def test_tilted_moments_are_those_of_the_tilted_measure(gamma1, lam):
    log_m, mean = gamma1._tilted_moments(lam)
    assert log_m == gamma1.log_mgf_nodes(gamma1.grid, lam)
    assert mean == tilt_measure_1d(gamma1, lam).mean()
