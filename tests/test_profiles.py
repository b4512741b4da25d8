import math

import numpy as np
import pytest

from conc_toolkit.errors import DomainError, UnsupportedSizeError
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
from conc_toolkit.suites import _random_space


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


class TestConcProfile1D:
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

    def test_sampled_dominates_exact(self):
        # candidate mode can only over-estimate the exact profile
        rng = np.random.default_rng(3)
        pts = rng.random((8, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        w = rng.random(8)
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
        np.testing.assert_allclose(np.atleast_1d(gamma.at(xs)),
                                   xs / (xs - LOG2), rtol=1e-9)

    def test_exponential_alpha(self):
        rs = np.linspace(0, 8, 4001)
        alpha = Profile(kind="bound-alpha", inputs=rs, values=LOG2 * np.exp(rs))
        gamma, _ = conc_to_iso_form(alpha)
        xs = gamma.inputs[gamma.inputs > 1.0]
        np.testing.assert_allclose(np.atleast_1d(gamma.at(xs)),
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

    def test_gamma1_iso_self_reference(self, gamma1):
        prof = iso_profile_1d(gamma1)
        entry = fit_constant(prof, "p-exp-iso", p=1.0, reference=prof)
        assert entry.value == pytest.approx(1.0, abs=1e-12)

    def test_p_exp_iso_keeps_the_given_id(self):
        vs = np.geomspace(1e-3, 0.5, 9)
        prof = Profile(kind="iso", inputs=vs, values=vs)
        ids = [fit_constant(prof, "p-exp-iso", reference=prof, **kw).constant_id
               for kw in ({"constant_id": "D_Iso_1"}, {"p": 2.0}, {})]
        assert ids == ["D_Iso_1", "D_Iso_2", "D_Iso"]

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


def test_invert_monotone_flat_table():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([0.0, 1.0, 1.0, 2.0])
    assert invert_monotone(xs, ys, 1.0) == 1.0  # leftmost
    assert invert_monotone(xs, ys, 1.5) == pytest.approx(2.5)
    with pytest.raises(DomainError):
        invert_monotone(xs, ys, 5.0)


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
