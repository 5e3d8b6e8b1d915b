import math
import warnings

import numpy as np
import pytest

from strichartz_lab.errors import InvalidInputError
from strichartz_lab.geometry import (
    inverse_transform,
    propagate,
    torus,
    waveguide,
)
from strichartz_lab.norms import (
    besov_sup_norm,
    classify_pair,
    fit_scaling,
    lq_norm,
    mixed_norm,
    predict_sigma,
    trapezoid_weights,
)

INF = math.inf


def propagated_film(f, geom, theta, times):
    return np.stack([propagate(f, geom, float(t), theta) for t in times])


class TestMixedNorm:
    def test_constant_field_unit_interval(self):
        geom = torus(32)
        times = np.linspace(0.0, 1.0, 9)
        F = np.ones((9, 32))
        for p in (1, 2, 4, INF):
            for q in (1, 2, 8, INF):
                assert mixed_norm(F, times, p, q, geom.cell_volume) == \
                    pytest.approx(1.0)

    def test_unimodular_wave_scales_with_interval(self):
        geom = torus(32)
        x = geom.axis_coordinates(0)
        f = np.exp(2j * np.pi * 3 * x)
        times = np.linspace(0.0, 0.5, 17)
        F = propagated_film(f, geom, 2.0, times)
        for p in (1, 2, 4):
            assert mixed_norm(F, times, p, 6, geom.cell_volume) == \
                pytest.approx(0.5 ** (1 / p), rel=1e-12)

    def test_p2_q2_is_space_time_l2(self):
        geom = torus(16)
        rng = np.random.default_rng(3)
        times = np.linspace(0.0, 1.0, 11)
        vals = rng.standard_normal((11, 16)) + 1j * rng.standard_normal((11, 16))
        direct = np.sqrt(np.trapezoid(
            np.sum(np.abs(vals) ** 2, axis=1) * geom.cell_volume, times))
        assert mixed_norm(vals, times, 2, 2, geom.cell_volume) == \
            pytest.approx(direct, rel=1e-12)

    def test_homogeneous_and_monotone(self):
        geom = torus(16)
        rng = np.random.default_rng(4)
        times = np.linspace(0.0, 1.0, 7)
        a = rng.standard_normal((7, 16)) + 1j * rng.standard_normal((7, 16))
        dominating = np.abs(a) * 2.0
        h = geom.cell_volume
        for (p, q) in [(2, 4), (INF, 2), (3, INF)]:
            assert mixed_norm(3.5 * a, times, p, q, h) == pytest.approx(
                3.5 * mixed_norm(a, times, p, q, h), rel=1e-12)
            assert mixed_norm(dominating, times, p, q, h) >= \
                mixed_norm(a, times, p, q, h)

    def test_holder_interpolation_consistency(self):
        # || F ||_{p_tau, q_tau} <= ||F||_{p0,q0}^{1-tau} ||F||_{p1,q1}^{tau}
        geom = torus(16)
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, 9)
        p0, q0, p1, q1, tau = 2.0, 4.0, 6.0, 2.0, 0.5
        pt = 1.0 / ((1 - tau) / p0 + tau / p1)
        qt = 1.0 / ((1 - tau) / q0 + tau / q1)
        for trial in range(20):
            vals = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
            h = geom.cell_volume
            lhs = mixed_norm(vals, times, pt, qt, h)
            rhs = mixed_norm(vals, times, p0, q0, h) ** (1 - tau) * \
                mixed_norm(vals, times, p1, q1, h) ** tau
            assert lhs <= rhs * (1 + 1e-10)

    @pytest.mark.parametrize("q", [0.5, -INF])
    @pytest.mark.parametrize("norm", [
        pytest.param(lambda F, t, g, q: lq_norm(F, q), id="lq_norm"),
        pytest.param(lambda F, t, g, q: mixed_norm(F, t, 2, q, g.cell_volume),
                     id="mixed_norm"),
        pytest.param(lambda F, t, g, q: besov_sup_norm(F[0], g, 1.0, q),
                     id="besov_sup_norm"),
    ])
    def test_rejects_exponent_below_one(self, norm, q):
        geom = torus(16)
        F = np.ones((3, 16))
        with pytest.raises(InvalidInputError):
            norm(F, np.linspace(0.0, 1.0, 3), geom, q)

    @pytest.mark.parametrize("p", [2, INF])
    def test_rejects_film_off_its_time_grid(self, p):
        geom = torus(16)
        with pytest.raises(InvalidInputError, match="3 frames for 5 times"):
            mixed_norm(np.ones((3, 16)), np.linspace(0.0, 1.0, 5), p, 2,
                       geom.cell_volume)

    @staticmethod
    def _power_formula_case(q, underflow):
        # the in-place squarings repeat the formula's operations in order;
        # with ``underflow``, half of the last row's powers underflow (its
        # sum does not), so the whole call takes the flagged path
        rng = np.random.default_rng(11)
        v = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        if underflow:
            v[4, ::2] *= 1e-200
        before = v.copy()
        a = np.abs(v)
        if q == INF:
            expected = a.max(axis=1)
        else:
            powers = {2: lambda: a * a, 4: lambda: (a * a) * (a * a),
                      8: lambda: ((a * a) * (a * a)) * ((a * a) * (a * a))}
            power = powers.get(q, lambda: a ** q)()
            expected = (np.sum(power, axis=1) * 0.25) ** (1.0 / q)
        assert np.array_equal(lq_norm(v, q, 0.25, axis=1), expected)
        assert np.array_equal(v, before)

    @pytest.mark.parametrize("q", [2, 3, 4, 8, INF])
    def test_lq_norm_bit_identical_to_power_formula(self, q):
        self._power_formula_case(q, underflow=False)

    @pytest.mark.parametrize("q", [2, 3, 4, 8, INF])
    def test_lq_norm_flagged_path_bit_identical_to_power_formula(self, q):
        self._power_formula_case(q, underflow=True)

    def test_lq_norm_large_exponent_stays_in_range(self):
        # |v|^2000 overflows at 2 and underflows at 0.5; the norm does not
        assert lq_norm([2.0, 1.0], 2000) == pytest.approx(2.0, rel=1e-12)
        assert lq_norm([0.5, 0.25], 2000) == pytest.approx(0.5, rel=1e-12)
        assert lq_norm(np.zeros(4), 2000) == 0.0
        v = np.array([[2.0, 1.0, 1.0, 1.0], [0.5, 0.25, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        got = lq_norm(v, 2000, 0.25, axis=1)
        shrink = 0.25 ** (1 / 2000)
        assert got == pytest.approx([2 * shrink, 0.5 * shrink, 0.0, 1.0],
                                    rel=1e-12)
        assert got[2] == 0.0
        # a result in range is the direct sum's, bit for bit
        assert got[3] == (4 * 0.25) ** (1 / 2000)
        assert np.array_equal(lq_norm(v.T, 2000, 0.25, axis=0), got)
        # these powers sum to a subnormal float, which keeps only a few bits
        v = np.random.default_rng(0).uniform(0.99, 1.0, 8) * 2 ** (-1060 / 600)
        top = v.max()
        assert np.sum(v ** 600.0) < np.finfo(float).tiny
        assert lq_norm(v, 600) == pytest.approx(
            top * np.sum((v / top) ** 600.0) ** (1 / 600), rel=1e-14)

    def test_mixed_norm_large_exponents_stay_in_range(self):
        # constant films at 5 times on 8 cells of 1/8: the space norm is the
        # constant, and so is the time norm over the unit interval; the
        # last film's time sum is a subnormal float
        times = np.linspace(0.0, 1.0, 5)
        films = [(2.0, 2000, 2), (0.25, 600, 2), (2.0, 2, 2000),
                 (0.9999 * 2 ** (-1062 / 600), 600, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c, p, q in films:
                got = mixed_norm(np.full((5, 8), c), times, p, q, 1 / 8)
                assert got == pytest.approx(c, rel=1e-12)
            assert mixed_norm(np.zeros((5, 8)), times, 2000, 2000, 1 / 8) == 0
            # a zero first frame drops its trapezoid weight 1/8
            film = np.full((5, 8), 2.0)
            film[0] = 0.0
            assert mixed_norm(film, times, 2000, 2000, 1 / 8) == \
                pytest.approx(2 * 0.875 ** (1 / 2000), rel=1e-12)

    def test_mixed_norm_in_range_is_the_direct_sum(self):
        # a result the direct sums keep in range is theirs to roundoff; at
        # p = 6 the third sample's first frames underflow, its whole sum
        # does not, and at p = 600 the second sample's sum overflows
        rng = np.random.default_rng(8)
        times = np.linspace(0.0, 1.0, 7)
        film = rng.standard_normal((7, 3, 16))
        film[:, 1] *= 1e3
        film[:3, 2] *= 1e-100
        g = lq_norm(film, 4.0, 1 / 16, axis=2)
        w = trapezoid_weights(times)
        got, huge = ([mixed_norm(film[:, k], times, p, 4.0, 1 / 16)
                      for k in range(3)] for p in (6.0, 600.0))
        assert got == pytest.approx((w @ g ** 6.0) ** (1 / 6), rel=1e-13)
        assert np.all(np.isfinite(huge)) and np.all(np.array(huge) > 0)
        assert huge == pytest.approx(
            [np.max(g[:, k]) * (w @ (g[:, k] / np.max(g[:, k])) ** 600.0)
             ** (1 / 600) for k in range(3)], rel=1e-12)

    def test_time_refinement_stability(self):
        geom = torus(64)
        rng = np.random.default_rng(6)
        coef = np.zeros(64, dtype=complex)
        freqs = geom.axis_frequencies(0)
        band = np.abs(freqs) <= 8
        coef[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
        f = inverse_transform(coef, geom)
        t_coarse, t_fine = np.linspace(0, 1, 129), np.linspace(0, 1, 257)
        coarse = propagated_film(f, geom, 2.0, t_coarse)
        fine = propagated_film(f, geom, 2.0, t_fine)
        for p in (2, 4, 8, INF):
            for q in (2, 4, 8, INF):
                a = mixed_norm(coarse, t_coarse, p, q, geom.cell_volume)
                b = mixed_norm(fine, t_fine, p, q, geom.cell_volume)
                assert abs(a - b) < 0.01 * b


class TestTrapezoidWeights:
    def test_uniform_grid(self):
        w = trapezoid_weights(np.linspace(0.0, 1.0, 5))
        assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])

    @pytest.mark.parametrize("times, match", [
        ([0.5], "two time samples"),
        ([0.0, 0.5, 0.5, 1.0], "strictly increasing"),
        ([1.0, 0.5, 0.0], "strictly increasing"),
        ([0.0, 0.3, 1.7], "uniform"),
    ], ids=["one-time", "repeated", "decreasing", "nonuniform"])
    def test_rejects_bad_grids(self, times, match):
        with pytest.raises(InvalidInputError, match=match):
            trapezoid_weights(times)


class TestClassifyPair:
    def test_critical_point_two_dims(self):
        # A = (1/3, 2/3) in (1/q, 1/p): q = 3, p = 3/2
        assert "density" in classify_pair(2, 1.5, 3.0, 2.0)

    def test_density_admissible_d1(self):
        assert classify_pair(1, 4.0, 2.0, 3.0) == ("density",)

    def test_theta_line(self):
        # 3/6 + 1/2 = 1
        assert classify_pair(1, 6.0, 2.0, 3.0) == ("theta-line",)

    def test_multi_membership_at_theta_two(self):
        kinds = classify_pair(1, 4.0, 2.0, 2.0)
        assert set(kinds) == {"density", "theta-line"}

    def test_sharp_schrodinger(self):
        # 2/4 + 2/4 = 1 = d/2
        assert "sharp-schrodinger" in classify_pair(2, 4.0, 4.0, 2.0)

    def test_off_line(self):
        assert classify_pair(1, 10.0, 10.0, 2.0) == ()

    def test_identities_mutually_exclusive_generically(self):
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(200):
            p = float(rng.uniform(1, 20))
            q = float(rng.uniform(1, 20))
            hits += len(classify_pair(2, p, q, 2.7)) > 1
        assert hits == 0


WAVEGUIDE_1_1 = waveguide(8, 8)   # n = m = 1


class TestPredictSigma:
    def test_theta_line_ons_reference_point(self):
        pred = predict_sigma("theta-line-ons", torus(16), 6.0, 2.0, 3.0)
        assert pred.sigma == pytest.approx(1.0 / 3.0)
        assert pred.alpha_max == pytest.approx(4.0 / 3.0)
        assert not pred.alpha_open

    def test_waveguide_ons_steep_dispersion(self):
        # n = m = 1, theta = 5 > 3 + m/n: sigma = (1 + 1*(5-2)/2)/p = (5/2)/p
        # on the d = 2 density line: 2/p + 2/q = 2 with (p, q) = (2, 2)
        pred = predict_sigma("waveguide-ons", WAVEGUIDE_1_1, 2.0, 2.0, 5.0)
        assert pred.sigma == pytest.approx((5.0 / 2.0) / 2.0)
        assert pred.alpha_max == pytest.approx(4.0 / 3.0)

    def test_fractional_single_low_dispersion(self):
        pred = predict_sigma("fractional-single", torus(16), 8.0, 4.0, 0.5)
        assert pred.sigma == pytest.approx((2 - 0.5) / 8.0)

    def test_diagonal_schrodinger_cases(self):
        low = predict_sigma("diagonal-schrodinger-cutoff", torus(16),
                            4.0, 4.0, 2.0)
        assert low.sigma == 0.0
        high = predict_sigma("diagonal-schrodinger-cutoff", torus(16),
                             8.0, 8.0, 2.0)
        assert high.sigma == pytest.approx(0.5 - 3.0 / 8.0)

    def test_waveguide_case_boundary_continuous(self):
        # the two branch formulas agree exactly at theta = 3 + m/n
        for (free, periodic, p) in [((8,), (8,), 4.0), ((8, 8), (8,), 6.0),
                                    ((8,), (8, 8), 5.0)]:
            geom = waveguide(free, periodic)
            n, m = geom.n_free, geom.n_periodic
            theta_c = 3.0 + m / n
            q = 1.0 / (1 - 2 / (p * (n + m)))  # density line
            steep = predict_sigma("waveguide-ons", geom, p, q, theta_c + 1e-9)
            flat = predict_sigma("waveguide-ons", geom, p, q, theta_c)
            assert flat.sigma == pytest.approx(2.0 / p, abs=1e-12)
            assert steep.sigma == pytest.approx(flat.sigma, abs=1e-8)

    def test_tunable_loss_alpha_threshold(self):
        # interior point of the tunable wedge: q = 2 (chord from the density
        # line at 1/p = 1/4 down to the theta line at 1/p = 1/6), p = 5
        pred = predict_sigma("tunable-loss-ons", torus(16), 5.0, 2.0, 3.0,
                             sigma=1.0 / 3.0)
        assert pred.alpha_open
        # alpha' < 2(theta-1)/(2(theta-1) - sigma theta) = 4/3 at the top loss
        assert pred.alpha_max == pytest.approx(4.0 / 3.0)

    def test_tunable_loss_degenerate_on_theta_line(self):
        # on the theta line itself the admissible loss interval is empty
        with pytest.raises(InvalidInputError, match="not applicable"):
            predict_sigma("tunable-loss-ons", torus(16), 6.0, 2.0, 3.0,
                          sigma=1.0 / 3.0)

    def test_waveguide_single_zero_loss_branch(self):
        pred = predict_sigma("waveguide-single", WAVEGUIDE_1_1, 4.0, 4.0, 2.5)
        assert pred.sigma == 0.0
        assert pred.alpha_max is None

    def test_waveguide_tunable_alpha(self):
        pred = predict_sigma("waveguide-tunable-ons", WAVEGUIDE_1_1,
                             2.0, 2.0, 3.0, sigma=0.5)
        # kappa = 2, alpha' < d/(d - sigma/kappa) = 2/(2 - 1/4)
        assert pred.alpha_max == pytest.approx(2.0 / (2.0 - 0.25))

    def test_hypothesis_mismatch_is_not_applicable(self):
        with pytest.raises(InvalidInputError,
                           match="estimate not applicable: pair not on"):
            predict_sigma("theta-line-ons", torus(16), 4.0, 2.0, 3.0)

    @pytest.mark.parametrize("estimate, geometry, reason", [
        ("waveguide-single", torus(16), "stated for the waveguide only"),
        ("waveguide-ons", torus(16), "stated for the waveguide only"),
        ("waveguide-tunable-ons", torus(16), "stated for the waveguide only"),
        ("fractional-single", WAVEGUIDE_1_1,
         "stated for torus / full space only"),
    ])
    def test_estimate_on_the_other_geometry_not_applicable(
            self, estimate, geometry, reason):
        # pairs on every line the estimates ask for, so only the geometry
        # rules them out
        for p, q, theta in [(4.0, 4.0, 2.5), (2.0, 2.0, 3.0),
                            (6.0, 2.0, 3.0), (8.0, 4.0, 0.5)]:
            with pytest.raises(InvalidInputError,
                               match=f"estimate not applicable: {reason}"):
                predict_sigma(estimate, geometry, p, q, theta)

    def test_unknown_selector_rejected(self):
        with pytest.raises(InvalidInputError):
            predict_sigma("nope", torus(16), 2.0, 2.0, 2.0)


class TestFitScaling:
    def test_exact_power_law(self):
        pts = [(n, 7.0 * n ** 0.4) for n in (8, 16, 32, 64, 128)]
        fit = fit_scaling(pts)
        assert fit.slope == pytest.approx(0.4, abs=1e-12)
        assert fit.max_residual < 1e-12

    def test_constant_values(self):
        fit = fit_scaling([(8, 2.5), (16, 2.5), (32, 2.5)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            fit_scaling([(8, 1.0), (16, -1.0), (32, 2.0)])
        with pytest.raises(InvalidInputError):
            fit_scaling([(8, 1.0), (16, 2.0)])


class TestBesovSupNorm:
    def test_constant(self):
        geom = torus(32)
        w = np.full(32, 2.5 + 0j)
        assert besov_sup_norm(w, geom, 1.0, 2.0) == \
            pytest.approx(2.5, rel=1e-12)

    def test_single_mode_block_weight(self):
        geom = torus(64)
        x = geom.axis_coordinates(0)
        w = np.exp(2j * np.pi * 8 * x)
        # mode 8 lives in block k = 3, so the norm is 2^{3 s}
        assert besov_sup_norm(w, geom, 1.0, 2.0) == \
            pytest.approx(8.0, rel=1e-12)
        assert besov_sup_norm(w, geom, 0.5, 2.0) == \
            pytest.approx(2.0 ** 1.5, rel=1e-12)

    def test_zero(self):
        geom = torus(16)
        assert besov_sup_norm(np.zeros(16), geom, 2.0, 4.0) == 0.0
