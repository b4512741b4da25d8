import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conc_toolkit.errors import DomainError, UnsupportedSizeError, ValidationError
from conc_toolkit.measures import (
    build_discrete_space,
    build_measure_1d,
    derive_measure,
)
from conc_toolkit.profiles import (
    LOG2,
    Profile,
    conc_going_down,
    conc_profile,
    conc_to_iso_form,
    exp_p_gamma_shape,
    fit_constant,
    invert_monotone,
    iso_profile_1d,
    iso_stability_transform,
    iso_to_conc,
    profile_from_csv,
    profile_to_csv,
    profile_to_svg,
)
from conc_toolkit.reports import ConstantEntry
from conc_toolkit.suites import _random_space


def _full_enumeration_profile(space) -> np.ndarray:
    """Exact conc profile values by the full route: at every breakpoint,
    OR the balls of all 2^n subsets and take the worst tail over the
    admissible ones.  The oracle for the minimal-set route of
    ``conc_profile``; its weight table adds in the same order."""
    n = space.n
    d = space.dist
    wsum = np.zeros(1 << n)
    for j in range(n):
        block = 1 << j
        wsum[block : 2 * block] = wsum[:block] + space.weights[j]
    admissible = wsum >= 0.5 - 1e-12
    admissible[0] = False
    point_bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    bps = space.breakpoints()
    values = np.empty(bps.size)
    unions = np.zeros(1 << n, dtype=np.uint64)
    for k, rad in enumerate(np.concatenate(([0.0], bps[:-1]))):
        balls = np.empty(n, dtype=np.uint64)
        for i in range(n):
            mask = d[i] <= rad * (1 + 1e-12) + 1e-15
            balls[i] = np.bitwise_or.reduce(point_bits[mask])
        for j in range(n):
            block = 1 << j
            np.bitwise_or(unions[:block], balls[j], out=unions[block : 2 * block])
        worst_tail = float(np.max(1.0 - wsum[unions[admissible]]))
        values[k] = math.inf if worst_tail <= 1e-12 else -math.log(worst_tail)
    return values


def _holders_scatter_profile(space) -> np.ndarray:
    """Exact conc profile values as ``conc_profile`` took them before it
    dropped saturated sets and stopped at the tail floor: every minimal
    admissible set's union updated by fancy-index scatter at every
    breakpoint, and the min over all of them.  The reference for those
    two shortcuts; its tables are the same."""
    n, w, bps = space.n, space.weights, space.breakpoints()
    wsum = np.zeros(1 << n)
    for j in range(n):
        block = 1 << j
        wsum[block : 2 * block] = wsum[:block] + w[j]
    order = np.argsort(w, kind="stable")
    rank = np.argsort(order).astype(np.int8)
    lightest = np.empty(1 << n, dtype=np.int8)
    lightest[0] = n
    for j in range(n):
        block = 1 << j
        np.minimum(lightest[:block], rank[j], out=lightest[block : 2 * block])
    sets = np.flatnonzero(wsum >= 0.5 - 1e-12)
    droppable = wsum[sets ^ (1 << order[lightest[sets]])] >= 0.5 - 1e-12
    sets = sets[~droppable]
    holders = [np.flatnonzero((sets >> i) & 1) for i in range(n)]
    radii = np.concatenate(([0.0], bps[:-1]))
    joins = np.searchsorted(radii * (1 + 1e-12) + 1e-15, space.dist, side="left")
    entering = [[] for _ in range(bps.size)]
    for i, j in zip(*np.nonzero(joins < bps.size)):
        entering[joins[i, j]].append((int(i), int(j)))
    unions = np.zeros_like(sets)
    values = np.empty(bps.size)
    for k, pairs in enumerate(entering):
        for i, j in pairs:
            unions[holders[i]] |= 1 << j
        worst_tail = 1.0 - float(np.min(wsum[unions]))
        values[k] = math.inf if worst_tail <= 1e-12 else -math.log(worst_tail)
    return values


def _tie_prone_space(seed: int, n: int, metric: str, weights: str):
    """A space whose distances or weights tie often: planar Gaussian
    points, a path with integer gaps, the discrete metric, or points of a
    4 x 4 grid nudged by at most 1e-12 relative; weights random, equal, or
    small integers normalised."""
    rng = np.random.default_rng(seed)
    if metric == "path":
        x = np.cumsum(rng.integers(1, 4, size=n)).astype(float)
        d = np.abs(x[:, None] - x[None, :])
    elif metric == "discrete":
        d = 1.0 - np.eye(n)
    else:
        if metric == "planar":
            pts = rng.normal(size=(n, 2))
        else:
            cells = rng.choice(16, size=n, replace=False)
            pts = np.column_stack((cells // 4, cells % 4)).astype(float)
            pts *= 1.0 + rng.choice([0.0, 1e-15, 1e-13, 1e-12]) * rng.random((n, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    w = {"random": lambda: rng.random(n) + 0.05,
         "equal": lambda: np.ones(n),
         "integer": lambda: rng.integers(1, 4, size=n).astype(float)}[weights]()
    return build_discrete_space(d, w / w.sum())


@pytest.fixture(scope="module")
def gamma1():
    return build_measure_1d(preset="gamma_p", p=1.0)


@pytest.fixture(scope="module")
def gamma2():
    return build_measure_1d(preset="gamma_p", p=2.0)


class TestIsoProfile:
    def test_gamma1_identity(self, gamma1):
        vs = np.geomspace(1e-6, 0.5, 201)
        prof = iso_profile_1d(gamma1, vs)
        assert prof.exactness == "exact"
        np.testing.assert_allclose(prof.values, vs, atol=1e-6, rtol=0)

    def test_gamma2_at_median(self, gamma2):
        prof = iso_profile_1d(gamma2, np.array([0.1, 0.5]))
        assert prof.at(0.5) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-5)

    def test_symmetric_uses_both_sides(self, gamma2):
        # restricted Gaussian: the right half-line has the smaller boundary
        half = derive_measure(gamma2, "restrict", a=0.0, b=np.inf)
        vs = np.array([0.05, 0.2, 0.4])
        prof = iso_profile_1d(half, vs)
        right = half.density(half.quantile_upper(vs))
        np.testing.assert_allclose(prof.values, right, rtol=1e-9)
        assert prof.exactness == "exact"  # restriction keeps log-concavity

    def test_mass_domain(self, gamma1):
        with pytest.raises(DomainError):
            iso_profile_1d(gamma1, np.array([0.7]))

    def test_nan_mass_rejected(self, gamma1):
        with pytest.raises(DomainError):
            iso_profile_1d(gamma1, [math.nan])

    def test_default_masses(self, gamma1):
        # the one statement of the default grid, which the suites read back
        assert np.array_equal(iso_profile_1d(gamma1).inputs, np.geomspace(1e-6, 0.5, 513))


class TestConcProfile1D:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_radius_rejected(self, gamma1, bad):
        with pytest.raises(DomainError, match="finite"):
            conc_profile(gamma1, r_grid=[0.0, 1.0, bad])

    def test_gamma1_closed_form(self, gamma1):
        rs = np.linspace(0.0, 20.0, 401)
        prof = conc_profile(gamma1, r_grid=rs)
        assert prof.exactness == "exact"
        np.testing.assert_allclose(prof.values, rs + LOG2, atol=2e-7, rtol=0)

    def test_gamma2_tail_value(self, gamma2):
        from scipy.stats import norm

        prof = conc_profile(gamma2, r_grid=np.linspace(0, 4, 801))
        expected = -math.log(norm.sf(1.0))
        assert prof.at(1.0) == pytest.approx(expected, abs=1e-4)
        assert expected == pytest.approx(1.8410, abs=1e-4)

    def test_asymmetric_flagged(self, gamma2):
        half = derive_measure(gamma2, "restrict", a=0.0, b=np.inf)
        prof = conc_profile(half, r_grid=np.linspace(0, 3, 101))
        assert prof.exactness == "candidate-lower-bound"
        assert prof.values[0] >= LOG2 - 1e-9


class TestConcProfileDiscrete:
    def test_two_point(self):
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        prof = conc_profile(s)
        assert prof.step
        assert prof.inputs.tolist() == [1.0]
        assert prof.values[0] == pytest.approx(LOG2)
        # K(r) = log 2 on (0, 1], +oo beyond the diameter
        assert prof.at(0.5) == pytest.approx(LOG2)
        assert prof.at(1.0) == pytest.approx(LOG2)
        assert math.isinf(prof.at(1.001))

    def test_three_point_path_uniform(self):
        idx = np.arange(3)
        d = np.abs(idx[:, None] - idx[None, :]).astype(float)
        s = build_discrete_space(d, np.full(3, 1 / 3))
        prof = conc_profile(s)
        # A = {middle} is inadmissible (mass 1/3); best admissible sets of
        # mass 2/3 leave a 1/3 tail until r > 1.
        assert prof.at(1.0) == pytest.approx(math.log(3.0))
        assert math.isinf(prof.at(2.5))

    @pytest.mark.parametrize("exact", [True, False])
    def test_one_point_space_rejected(self, exact):
        s = build_discrete_space(np.zeros((1, 1)), np.ones(1))
        with pytest.raises(DomainError, match="one-point space"):
            conc_profile(s, exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_r_grid_rejected(self, exact):
        """A finite space's profile is taken at its breakpoints: an r_grid
        raises instead of being ignored."""
        s = build_discrete_space(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="r_grid"):
            conc_profile(s, r_grid=np.linspace(0.0, 2.0, 5), exact=exact)

    def test_size_cap(self):
        n = 23
        rng = np.random.default_rng(0)
        pts = rng.random((n, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        s = build_discrete_space(d, np.full(n, 1 / n))
        with pytest.raises(UnsupportedSizeError, match="sampled"):
            conc_profile(s)
        prof = conc_profile(s, exact=False)
        assert prof.exactness == "candidate-lower-bound"

    @pytest.mark.parametrize("n", [8, 20, 22])
    def test_sampled_dominates_exact(self, n):
        # candidate mode can only over-estimate the exact profile
        rng = np.random.default_rng(3)
        pts = rng.random((n, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        w = rng.random(n)
        w /= w.sum()
        s = build_discrete_space(d, w)
        exact = conc_profile(s)
        sampled = conc_profile(s, exact=False, seed=11)
        finite = np.isfinite(exact.values)
        assert np.all(sampled.values[finite] >= exact.values[finite] - 1e-12)

    def test_sampled_and_exact_share_the_tail_noise_floor(self):
        # the sampled sets are admissible, so their worst tail never beats
        # the exact one; a tail the exact route rounds to zero (+inf) must
        # not come back from the sampled route as a finite ~1e-16 tail
        for seed in range(16):
            space = _random_space(np.random.default_rng(seed), 5)
            exact = conc_profile(space)
            sampled = conc_profile(space, exact=False, seed=seed)
            assert np.all(np.exp(-sampled.values)
                          <= np.exp(-exact.values) + 1e-12)
            assert np.all(np.isinf(sampled.values[np.isinf(exact.values)]))


    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=14),
           metric=st.sampled_from(["planar", "path", "discrete", "grid"]),
           weights=st.sampled_from(["random", "equal", "integer"]))
    def test_minimal_sets_equal_full_enumeration(self, seed, n, metric, weights):
        # ties in weights (which member is lightest, masses of exactly 1/2)
        # and in distances (several pairs joining at one step, or within
        # the 1e-12 threshold slack) are where the two routes could part
        space = _tie_prone_space(seed, n, metric, weights)
        prof = conc_profile(space)
        want = _full_enumeration_profile(space)
        assert np.array_equal(prof.inputs, space.breakpoints())
        assert np.array_equal(np.isinf(prof.values), np.isinf(want))
        assert np.array_equal(prof.values, want)

    @pytest.mark.parametrize("n", [17, 18, 20])
    def test_dropped_sets_and_early_stop_equal_the_scatter_loop(self, n):
        # 2, 4 and 16 enumeration blocks of 2^16 subsets; the saturated
        # sets are dropped every 8 breakpoints and the loop stops at the
        # tail floor, and neither may move a value by a bit
        space = _random_space(np.random.default_rng(n), n)
        prof = conc_profile(space)
        want = _holders_scatter_profile(space)
        assert np.isinf(want[-1]) and space.breakpoints().size > 8
        assert np.array_equal(prof.values, want)

    def test_saturated_space_with_light_weights_stays_finite(self):
        # weights summing to 1 - 5e-10 (within DiscreteSpace's tolerance):
        # once every union is the whole space the worst tail is 5e-10, not
        # below the floor, so the values stay finite after every set has
        # been dropped, and equal the scatter loop's
        space = _random_space(np.random.default_rng(4), 8)
        space = build_discrete_space(space.dist, space.weights * (1 - 5e-10))
        prof = conc_profile(space)
        want = _holders_scatter_profile(space)
        assert np.array_equal(prof.values, want)
        assert np.all(np.isfinite(prof.values))
        assert prof.values[-1] == pytest.approx(-math.log(5e-10), rel=1e-6)

    # (value, run length) of conc_profile(_random_space(rng(s), n),
    # exact=False, seed=s) as computed by the per-subset Python loop the
    # vectorized sampled route replaced
    SAMPLED_RUNS = {
        (1, 5): [(0.7309318322816277, 4), (1.6169908383512215, 5),
                 (math.inf, 1)],
        (2, 7): [(0.6946053589865359, 4), (0.8217084833212347, 3),
                 (0.8506172900497315, 3), (1.3643246969507283, 6),
                 (math.inf, 5)],
        (3, 9): [(0.6934479588014729, 1), (0.7032734768912337, 1),
                 (0.7056483418627136, 2), (0.726833375536208, 5),
                 (0.8538075858472769, 4), (1.0335197884975917, 5),
                 (1.5139116897698934, 7), (2.6587169444906418, 6),
                 (math.inf, 5)],
    }

    @pytest.mark.parametrize("seed,n", sorted(SAMPLED_RUNS))
    def test_sampled_route_values_are_unchanged(self, seed, n):
        space = _random_space(np.random.default_rng(seed), n)
        prof = conc_profile(space, exact=False, seed=seed)
        vals, runs = zip(*self.SAMPLED_RUNS[(seed, n)])
        want = np.repeat(vals, runs)
        assert prof.values.shape == want.shape
        assert np.array_equal(np.isinf(prof.values), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(prof.values[finite], want[finite],
                                   rtol=1e-12, atol=0)


class TestIsoToConc:
    def test_constant_gamma(self):
        xs = np.linspace(LOG2, 10.0, 513)
        gamma = Profile(kind="bound-gamma", inputs=xs, values=np.full(xs.size, 2.0))
        alpha = iso_to_conc(gamma)
        rs = np.linspace(0, 4, 17)
        np.testing.assert_allclose(alpha.at(rs), LOG2 + 2.0 * rs, atol=1e-9)

    def test_linear_gamma(self):
        xs = np.linspace(LOG2, 50.0, 4097)
        gamma = Profile(kind="bound-gamma", inputs=xs, values=xs)
        alpha = iso_to_conc(gamma)
        rs = np.linspace(0, 3, 31)
        np.testing.assert_allclose(alpha.at(rs), LOG2 * np.exp(rs), rtol=1e-6)

    def test_sqrt_gamma(self):
        # uniform table: accuracy limited by the table's own resolution
        xs = np.linspace(LOG2, 60.0, 4097)
        gamma = Profile(kind="bound-gamma", inputs=xs, values=np.sqrt(xs))
        alpha = iso_to_conc(gamma)
        rs = np.linspace(0, 6, 61)
        expected = (rs / 2.0 + math.sqrt(LOG2)) ** 2
        np.testing.assert_allclose(alpha.at(rs), expected, rtol=1e-5)
        # graded table: an order better
        gamma_g = exp_p_gamma_shape(1.0, 2.0, 60.0)
        alpha_g = iso_to_conc(gamma_g)
        np.testing.assert_allclose(alpha_g.at(rs), expected, rtol=1e-6)

    def test_zero_gamma_rejected(self):
        xs = np.linspace(LOG2, 5.0, 65)
        vals = np.maximum(xs - 3.0, 0.0)
        gamma = Profile(kind="bound-gamma", inputs=xs, values=vals)
        with pytest.raises(DomainError, match="zero"):
            iso_to_conc(gamma)


class TestConcGoingDown:
    def test_linear_alpha_explicit(self):
        rs = np.linspace(0, 30, 601)
        alpha1 = Profile(kind="bound-alpha", inputs=rs, values=LOG2 + rs)
        alpha2 = conc_going_down(alpha1, 1.0)
        # r1 = 1, so alpha2(r) = r + log 2 - 2 for r > 2
        assert alpha2.at(2.0) == pytest.approx(LOG2)
        assert alpha2.at(5.0) == pytest.approx(5.0 + LOG2 - 2.0, abs=1e-9)
        assert alpha2.at(1.0) == pytest.approx(LOG2)

    def test_zero_cap_is_shift(self):
        rs = np.linspace(0, 20, 401)
        alpha1 = Profile(kind="bound-alpha", inputs=rs, values=LOG2 + rs**1.5 / 5)
        alpha2 = conc_going_down(alpha1, 0.0)
        r1 = alpha1.inverse_at(LOG2)
        assert r1 == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(alpha2.at(rs[1:]), alpha1.at(rs[1:]), rtol=1e-9)

    def test_exponential_alpha_r1(self):
        rs = np.linspace(0, 10, 20001)
        alpha1 = Profile(kind="bound-alpha", inputs=rs, values=LOG2 * np.exp(rs))
        alpha2 = conc_going_down(alpha1, LOG2)
        # r1 = alpha^{-1}(2 log 2) = log 2
        assert alpha1.inverse_at(2 * LOG2) == pytest.approx(LOG2, abs=1e-7)
        assert alpha2.at(2 * LOG2) == pytest.approx(LOG2, abs=1e-6)
        r_probe = 3.0
        expected = LOG2 * math.exp(r_probe - LOG2) - LOG2
        assert alpha2.at(r_probe) == pytest.approx(expected, rel=1e-5)

    def test_out_of_range_rejected(self):
        rs = np.linspace(0, 1, 11)
        alpha1 = Profile(kind="bound-alpha", inputs=rs, values=LOG2 + rs)
        with pytest.raises(DomainError):
            conc_going_down(alpha1, 5.0)


class TestIsoStability:
    def test_sqrt_shape_closed_form(self):
        gamma1 = exp_p_gamma_shape(1.0, 2.0, 40.0)
        gamma2 = iso_stability_transform(gamma1, 1.0)
        # closed form: 0.5 * x / (sqrt(x + 1) - sqrt(log 2)) at x = 1
        expected = 0.5 / (math.sqrt(2.0) - math.sqrt(LOG2))
        assert gamma2.at(1.0) == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.8596, abs=1e-4)

    def test_constant_shape_closed_form(self):
        xs = np.linspace(LOG2, 30.0, 8193)
        c = 1.7
        gamma1 = Profile(kind="bound-gamma", inputs=xs, values=np.full(xs.size, c))
        gamma2 = iso_stability_transform(gamma1, 2.0)
        expected = c * gamma2.inputs / (gamma2.inputs + 2.0 - LOG2)
        np.testing.assert_allclose(gamma2.values, expected, atol=1e-9)

    def test_zero_cap_matches_round_trip(self):
        gamma1 = exp_p_gamma_shape(0.8, 1.5, 30.0)
        direct = iso_stability_transform(gamma1, 0.0)
        alpha = iso_to_conc(gamma1)
        shape, feasible = conc_to_iso_form(alpha)
        assert feasible
        # compare at the direct table's own nodes (quadrature-exact there)
        sel = (direct.inputs >= 1.0) & (direct.inputs <= 25.0)
        probe = direct.inputs[sel]
        np.testing.assert_allclose(direct.values[sel], shape.at(probe), atol=1e-6)

    def test_growth_condition_enforced(self):
        gamma1 = exp_p_gamma_shape(0.1, 2.0, 20.0)
        with pytest.raises(DomainError, match="growth"):
            iso_stability_transform(gamma1, 1.0, kappa=1.0, delta0=0.6, x0=1.0)
        with pytest.raises(DomainError, match="delta0"):
            iso_stability_transform(gamma1, 1.0, kappa=1.0, delta0=0.4, x0=1.0)


class TestConcToIsoForm:
    def test_linear_alpha(self):
        rs = np.linspace(0, 20, 2001)
        alpha = Profile(kind="bound-alpha", inputs=rs, values=LOG2 + rs)
        gamma, feasible = conc_to_iso_form(alpha)
        assert feasible
        xs = gamma.inputs[gamma.inputs > 1.0]
        np.testing.assert_allclose(gamma.at(xs),
                                   xs / (xs - LOG2), rtol=1e-9)

    def test_exponential_alpha(self):
        rs = np.linspace(0, 8, 4001)
        alpha = Profile(kind="bound-alpha", inputs=rs, values=LOG2 * np.exp(rs))
        gamma, _ = conc_to_iso_form(alpha)
        xs = gamma.inputs[gamma.inputs > 1.0]
        np.testing.assert_allclose(gamma.at(xs),
                                   xs / np.log(xs / LOG2), rtol=1e-9)

    def test_linear_alpha_infeasible_quadratic_growth(self):
        rs = np.linspace(0, 50, 501)
        alpha = Profile(kind="bound-alpha", inputs=rs, values=np.maximum(rs, LOG2))
        _, feasible = conc_to_iso_form(alpha, kappa=1.0, delta0=1.0)
        assert not feasible


class TestFitConstant:
    def test_gamma1_conc_rate(self, ):
        mu = build_measure_1d(preset="gamma_p", p=1.0, half_width=260.0, n_points=8192)
        prof = conc_profile(mu, r_grid=np.linspace(0.0, 250.0, 2001))
        entry = fit_constant(prof, "p-exp-conc", p=1.0)
        assert entry.direction == "upper"
        assert entry.value == pytest.approx(1.0, rel=0.01)
        # the witness reproduces the reported value
        r, k = entry.witnesses["r"], entry.witnesses["K"]
        assert (k + 1.0) / r == pytest.approx(entry.value, abs=1e-9)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.5, -1.0])
    def test_p_exp_conc_rejects_p_outside_its_domain(self, p):
        prof = Profile(kind="conc", inputs=np.linspace(0.0, 2.0, 5),
                       values=LOG2 + np.linspace(0.0, 2.0, 5))
        with pytest.raises(DomainError, match=r"p must lie in \[1, inf\)"):
            fit_constant(prof, "p-exp-conc", p=p)

    def test_constant_entry_rejects_an_unknown_direction(self):
        with pytest.raises(ValidationError, match="direction 'sideways' is not one of"):
            ConstantEntry(constant_id="D", value=1.0, direction="sideways", method="m")

    def test_gamma2_ratio_against_sqrt_log(self, gamma2):
        vs = np.geomspace(1e-6, 0.5, 513)
        prof = iso_profile_1d(gamma2, vs)
        ref = Profile(kind="iso", inputs=vs, values=vs * np.sqrt(np.log(1 / vs)))
        entry = fit_constant(prof, "ratio", reference=ref)
        max_ratio = entry.witnesses["max_ratio"]
        # the ratio climbs toward sqrt(2) as v -> 0 but is still short of it
        # at v = 1e-6
        assert 1.2 < max_ratio < math.sqrt(2.0)
        assert entry.witnesses["argmax"] == pytest.approx(1e-6, rel=1e-6)

    def test_ratio_without_a_usable_grid_point_raises(self):
        prof = Profile(kind="bound-alpha", inputs=[0.0, 1.0], values=[1.0, 2.0])
        ref = Profile(kind="bound-alpha", inputs=[0.0, 1.0], values=[0.0, 0.0])
        with pytest.raises(DomainError, match="no usable grid points"):
            fit_constant(prof, "ratio", reference=ref)


def test_invert_monotone_flat_table():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([0.0, 1.0, 1.0, 2.0])
    assert invert_monotone(xs, ys, 1.0) == 1.0  # leftmost
    assert invert_monotone(xs, ys, 1.5) == pytest.approx(2.5)
    with pytest.raises(DomainError):
        invert_monotone(xs, ys, 5.0)


def _invert_one(xs, ys, target):
    """invert_monotone for one scalar target, as it ran before it took
    arrays: the reference its array path must equal bit for bit."""
    if target < ys[0] - 1e-12 or target > ys[-1] + 1e-12:
        raise DomainError("outside")
    idx = min(int(np.searchsorted(ys, target, side="left")), ys.size - 1)
    if ys[idx] <= target + 1e-15 or idx == 0:
        return float(xs[idx])
    y0, y1 = ys[idx - 1], ys[idx]
    if y1 <= y0:
        return float(xs[idx])
    t = (target - y0) / (y1 - y0)
    return float(xs[idx - 1] + t * (xs[idx] - xs[idx - 1]))


@pytest.mark.parametrize("seed", range(4))
def test_invert_monotone_array_equals_scalar_calls(seed):
    """Targets on a node, at and below the first node, within 1e-15 below a
    node, on a flat run, past the last node by < 1e-12 and between nodes:
    the array call, each scalar call and the scalar reference agree under
    np.array_equal, and a scalar target gives a float."""
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.1, 1.0, 40))
    steps = np.where(rng.random(40) < 0.3, 0.0, rng.exponential(size=40))
    steps[10:13] = 0.0  # ys[9:13] is a flat run
    ys = np.cumsum(steps)
    targets = np.concatenate([ys[[0, 11, 17, -1]], [ys[0] - 1e-13, ys[-1] + 1e-13],
                              ys[[8, 9]] - 1e-16, rng.uniform(ys[0], ys[-1], 40)])
    got = invert_monotone(xs, ys, targets.reshape(4, -1))
    assert got.shape == (4, targets.size // 4)
    want = np.array([_invert_one(xs, ys, float(t)) for t in targets])
    assert np.array_equal(got.ravel(), want)
    scalars = [invert_monotone(xs, ys, float(t)) for t in targets]
    assert all(type(x) is float for x in scalars)
    assert np.array_equal(scalars, want)
    assert want[1] == xs[np.searchsorted(ys, ys[11])] <= xs[9]
    assert invert_monotone(xs, ys, targets[:0]).shape == (0,)
    with pytest.raises(DomainError, match="outside table range"):
        invert_monotone(xs, ys, np.append(targets, ys[-1] + 1.0))


def test_csv_round_trip(tmp_path, gamma1):
    prof = iso_profile_1d(gamma1, np.geomspace(1e-4, 0.5, 65))
    path = tmp_path / "iso.csv"
    profile_to_csv(prof, str(path))
    back = profile_from_csv(str(path), kind="iso")
    np.testing.assert_allclose(back.inputs, prof.inputs, rtol=1e-11)
    np.testing.assert_allclose(back.values, prof.values, rtol=1e-11)
    assert back.exactness == prof.exactness


def test_svg_export(tmp_path, gamma1):
    prof = conc_profile(gamma1, r_grid=np.linspace(0, 10, 101))
    path = tmp_path / "conc.svg"
    profile_to_svg(prof, str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_brute_force_iso_never_beats_half_lines(gamma2):
    # On a 12-atom discretization, the discrete boundary-to-mass ratio over
    # *all* subsets never exceeds the half-line profile at matched mass
    # plus a discretization allowance: half-lines are admissible
    # competitors, so no subset family can certify a larger profile.
    from itertools import combinations

    from conc_toolkit.measures import atomize_1d

    pos, w = atomize_1d(gamma2, 12)
    eps = float(np.max(np.diff(pos)))
    half = iso_profile_1d(gamma2, np.linspace(0.05, 0.5, 128))
    n = 12
    best: dict[int, float] = {}
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            idx = np.array(subset)
            mass = w[idx].sum()
            if mass > 0.5 + 1e-12:
                continue
            dist = np.min(np.abs(pos[:, None] - pos[idx][None, :]), axis=1)
            extended = w[dist < eps].sum()
            ratio = (extended - mass) / eps
            key = len(idx)
            best[key] = min(best.get(key, np.inf), ratio)
    for size, brute in best.items():
        mass = size / 12.0
        target = float(half.at(min(mass, 0.5)))
        # allowance: one atom of mass smeared over one gap
        assert brute <= target + (1.0 / 12.0) / eps + 1e-9


def test_monotonicity_of_transforms():
    # every transform maps a nondecreasing alpha to nondecreasing output
    rs = np.linspace(0, 15, 301)
    alpha = Profile(kind="bound-alpha", inputs=rs, values=LOG2 + rs**2 / 10)
    out = conc_going_down(alpha, 0.7)
    assert np.all(np.diff(out.values) >= -1e-12)
    gamma = exp_p_gamma_shape(1.3, 1.2, 25.0)
    back = iso_to_conc(gamma)
    assert np.all(np.diff(back.values) >= -1e-12)
    transformed = iso_stability_transform(gamma, 1.5)
    assert np.all(np.isfinite(transformed.values))
