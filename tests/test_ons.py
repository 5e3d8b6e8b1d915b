import numpy as np
import pytest

from strichartz_lab import geometry
from strichartz_lab.errors import InvalidInputError
from strichartz_lab.geometry import propagate, torus, waveguide
from strichartz_lab.norms import lq_norm, mixed_norm
from strichartz_lab.ons import (
    band_dimension,
    density_field,
    generate_ons,
    lambda_family,
    ons_estimate_ratio,
)
from strichartz_lab.harness import run


def gram_deviation(coef, geom):
    """Operator-norm distance of the rows' Gram in the dual cell measure
    from the identity."""
    gram = coef.conj() @ coef.T * geom.dual_cell
    return float(np.linalg.norm(gram - np.eye(len(coef)), ord=2))


class TestGenerateOns:
    def test_fourier_modes_exactly_orthonormal(self):
        geom = torus(32)
        fam = generate_ons("fourier-modes", 9, 4, geom)
        assert fam.shape == (9, 9)
        assert gram_deviation(fam, geom) == pytest.approx(0.0, abs=1e-14)
        # full band on T^1 has 2N+1 members
        assert band_dimension(geom, 4) == 9

    def test_random_band_gram_and_reproducibility(self):
        geom = torus(64)
        a = generate_ons("random-band", 12, 8, geom, seed=42)
        b = generate_ons("random-band", 12, 8, geom, seed=42)
        c = generate_ons("random-band", 12, 8, geom, seed=43)
        assert gram_deviation(a, geom) < 1e-10
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_random_band_is_the_qr_of_one_complex_draw(self):
        # the real parts, then the imaginary parts, of one (band, M) draw
        geom = torus(64)
        fam = generate_ons("random-band", 12, 8, geom, seed=42)
        rng = np.random.default_rng(42)
        Q, _ = np.linalg.qr(rng.standard_normal((17, 12))
                            + 1j * rng.standard_normal((17, 12)))
        assert np.array_equal(fam, (Q / np.sqrt(geom.dual_cell)).T)

    def test_waveguide_weighted_orthonormality(self):
        geom = waveguide(32, 8, trunc_length=4.0)
        fam = generate_ons("random-band", 6, 2, geom, seed=1)
        assert gram_deviation(fam, geom) < 1e-10

    @pytest.mark.xfail(strict=True, reason="the waveguide band mask is "
                       "eta1(xi / N) == 1, which holds up to |xi / N| of "
                       "about 1.026, not the sharp box")
    def test_waveguide_band_is_the_sharp_box(self):
        # [-8, 8]^2 on the 512 x 128 waveguide of length 8: 129 free
        # frequencies (spacing 1/8) times 17 periodic modes
        geom = waveguide(512, 128, trunc_length=8.0)
        assert band_dimension(geom, 8) == 129 * 17

    def test_band_overflow_rejected(self):
        geom = torus(32)
        with pytest.raises(InvalidInputError):
            generate_ons("fourier-modes", 10, 4, geom)  # band dim 9

    def test_gram_preserved_by_flow(self):
        # unitarity: the flowed members stay orthonormal at every sample
        geom = torus(64)
        fam = generate_ons("random-band", 8, 8, geom, seed=5)
        fields = list(member_fields(geom, 8, fam))
        for t in (0.0, 0.3, 0.9):
            flowed = [propagate(f, geom, t, 2.5) for f in fields]
            gram = np.array([[np.vdot(a, b) * geom.cell_volume
                              for b in flowed] for a in flowed])
            assert np.max(np.abs(gram - np.eye(8))) < 1e-10


class TestLambdaFamily:
    def test_flat_unit_norm(self):
        lam = lambda_family("flat", 16, 4.0 / 3.0)
        assert np.allclose(lam, 16 ** (-0.75))
        assert lq_norm(lam, 4.0 / 3.0) == pytest.approx(1.0)
        assert np.allclose(lam, 0.125)

    def test_one_hot(self):
        for ap in (1.0, 1.5, 2.0, np.inf):
            lam = lambda_family("one-hot", 8, ap)
            assert lq_norm(lam, ap) == pytest.approx(1.0)

    def test_power(self):
        lam = lambda_family("power", 4, 2.0, beta=1.0)
        raw = np.array([1.0, 0.5, 1.0 / 3.0, 0.25])
        assert np.allclose(lam, raw / np.sum(raw ** 2) ** 0.5)

    def test_alpha_prime_below_one_rejected(self):
        for kind in ("flat", "one-hot", "power"):
            with pytest.raises(InvalidInputError, match="alpha'"):
                lambda_family(kind, 4, 0.5)


class TestDensityField:
    def test_single_member(self):
        geom = torus(32)
        fam = generate_ons("fourier-modes", 1, 4, geom)
        lam = lambda_family("one-hot", 1, 2.0)
        rho = density_field(geom, 4, fam, lam, 2.0, np.linspace(0.0, 1.0, 5))
        # lone mode: |U(t) e_0|^2 = 1 everywhere
        assert np.max(np.abs(rho - 1.0)) < 1e-12

    def test_full_band_flat_weights_constant_density(self):
        geom = torus(64)
        N = 4
        M = band_dimension(geom, N)
        fam = generate_ons("fourier-modes", M, N, geom)
        lam = lambda_family("flat", M, 1.0)  # weights 1/M summing to 1
        rho = density_field(geom, N, fam, lam, 3.0, np.linspace(0.0, 1.0, 7))
        # unimodular modes: rho = M * (1/M) = 1 for every (t, x)
        assert np.max(np.abs(rho - 1.0)) < 1e-12

    def test_full_band_unit_weights_density_counts_modes(self):
        geom = torus(64)
        N = 4
        M = band_dimension(geom, N)  # 2N+1
        fam = generate_ons("fourier-modes", M, N, geom)
        rho = density_field(geom, N, fam, np.ones(M), 2.0,
                            np.linspace(0.0, 1.0, 5))
        assert np.max(np.abs(rho - (2 * N + 1))) < 1e-11

    def test_linear_in_lambda(self):
        geom = torus(32)
        fam = generate_ons("random-band", 4, 4, geom, seed=9)
        lam1 = np.array([0.4, 0.3, 0.2, 0.1])
        lam2 = 3.0 * lam1
        r1 = density_field(geom, 4, fam, lam1, 2.5, np.linspace(0.0, 0.5, 5))
        r2 = density_field(geom, 4, fam, lam2, 2.5, np.linspace(0.0, 0.5, 5))
        assert np.max(np.abs(r2 - 3.0 * r1)) < 1e-12

    def test_real_nonnegative_and_mass_identity(self):
        for geom in (torus(64), torus((16, 16)),
                     waveguide(32, 8, trunc_length=4.0)):
            M = 5
            fam = generate_ons("random-band", M, 3, geom, seed=11)
            lam = lambda_family("power", M, 1.5)
            rho = density_field(geom, 3, fam, lam, 2.5,
                                np.linspace(0.0, 1.0, 9))
            assert np.max(np.abs(rho.imag)) == 0.0
            assert np.min(rho.real) >= -1e-14
            # per-frame mass = sum_j lambda_j ||f_j||^2 = sum lambda (ONS)
            expected = float(np.sum(lam))
            masses = np.sum(rho.real, axis=tuple(range(1, 1 + geom.dim))) \
                * geom.cell_volume
            assert np.max(np.abs(masses - expected)) < 1e-10

    @pytest.mark.parametrize("geom, N", [
        (torus(64), 6), (torus((16, 16)), 3),
        (waveguide(32, 8, trunc_length=4.0), 3),
    ], ids=["torus-1d", "torus-2d", "waveguide"])
    @pytest.mark.parametrize("budget", [None, 256, 3 * 256, 5 * 512])
    def test_member_chunks_match_single_chunk(self, geom, N, budget,
                                              monkeypatch):
        # 7 members: on the 256-point grids the budgets give chunks of 1,
        # 3 and 7 members; on the 64-point torus chunks of 4 and 7, and
        # at 5 x 512 time blocks of 5 and 4 steps.  rho must equal the
        # single-chunk sum
        M = 7
        fam = generate_ons("random-band", M, N, geom, seed=5)
        lam = lambda_family("power", M, 1.5)
        times = np.linspace(0.0, 1.0, 9)
        whole = density_field(geom, N, fam, lam, 2.5, times)
        if budget is not None:
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", budget)
        chunked = density_field(geom, N, fam, lam, 2.5, times)
        assert np.max(np.abs(chunked - whole)) <= 1e-12 * np.max(np.abs(whole))
        # and the single-chunk sum is the per-member sum
        slow = sum(w * np.abs(np.stack([propagate(f, geom, t, 2.5)
                                        for t in np.linspace(0, 1, 9)])) ** 2
                   for w, f in zip(lam, member_fields(geom, N, fam)))
        assert np.max(np.abs(whole - slow)) <= 1e-12 * np.max(np.abs(slow))


def member_fields(geom, N, fam):
    """The members of a family on band N as grid values, through the
    transform pair."""
    from strichartz_lab.geometry import _band_mask, inverse_transform
    mask = _band_mask(geom, N)
    for row in fam:
        coef = np.zeros(geom.grid_sizes, dtype=complex)
        coef[mask] = row
        yield inverse_transform(coef, geom)


class TestOnsEstimateRatio:
    def base_config(self, **kw):
        defaults = dict(theta=3.0, p=6.0, q=2.0, N=8, alpha_prime=4.0 / 3.0,
                        geometry=torus(128),
                        family_kinds=(("fourier-modes", 1),),
                        time_pts=17, seed=7)
        defaults.update(kw)
        return defaults

    def test_inadmissible_pair_yields_marker(self, tmp_path):
        # p = 4 is off the theta line: the driver marks every cell
        # not-applicable and computes no norm, no ratio and no fit
        res = run({"experiment": "ons-sweep",
                   "geometry": {"kind": "torus", "grid_sizes": [128]},
                   "params": {"p": 4.0, "N": [8, 16, 32], "time_pts": 17}},
                  str(tmp_path / "out"))
        assert res.exit_code == 0
        for row in res.rows:
            assert row["applicable"] is False
            assert "lhs_norm" not in row and "ratio" not in row
        assert res.summary["fits"] == {}

    def test_triangle_inequality_at_alpha_one(self):
        # summable weights: the weighted density norm is dominated by the
        # worst single member (convexity), for a generic random family
        geom = torus(128)
        fam = generate_ons("random-band", 5, 8, geom, seed=33)
        lam = lambda_family("flat", 5, 1.0)
        times = np.linspace(0.0, 1.0, 17)
        rho = density_field(geom, 8, fam, lam, 3.0, times)
        total = mixed_norm(rho, times, 6.0, 2.0, geom.cell_volume)
        per_member = []
        for j in range(5):
            rho_j = density_field(geom, 8, fam[j:j + 1], np.ones(1), 3.0,
                                  times)
            per_member.append(mixed_norm(rho_j, times, 6.0, 2.0,
                                         geom.cell_volume))
        assert total <= max(per_member) * (1 + 1e-10)

    @staticmethod
    def sweep_slope(tmp_path, alpha_prime):
        """sigma and the fitted slope of the base cell swept over N by the
        ``ons-sweep`` driver."""
        res = run({"experiment": "ons-sweep", "seed": 7,
                   "geometry": {"kind": "torus", "grid_sizes": [128]},
                   "params": {"theta": 3.0, "p": 6.0, "q": 2.0,
                              "alpha_prime": [alpha_prime],
                              "N": [8, 16, 32, 64], "time_pts": 17}},
                  str(tmp_path / "out"))
        return (res.rows[0]["sigma"],
                res.summary["fits"][f"slope_alpha_{alpha_prime:g}"])

    def test_flat_family_slope_below_threshold(self, tmp_path):
        # alpha' at the admitted edge 2q/(q+1): slope stays under sigma + 0.1
        sigma, slope = self.sweep_slope(tmp_path, 4.0 / 3.0)
        assert sigma == pytest.approx(1.0 / 3.0)
        assert slope <= sigma + 0.1
        assert 0.2 <= slope <= 0.3  # flat family realizes 1 - 1/alpha'

    def test_above_threshold_growth_witness(self, tmp_path):
        sigma, slope = self.sweep_slope(tmp_path, 2.0)
        assert slope > sigma + 0.1
        assert 0.45 <= slope <= 0.55

    def test_lambda_scaling_exact(self):
        # lhs scales as M^{-1/alpha'} times the unit-weight norm (linearity)
        cfg = self.base_config(N=8)
        lhs_43, _, _ = ons_estimate_ratio(**cfg)
        lhs_2, _, _ = ons_estimate_ratio(**self.base_config(N=8,
                                                            alpha_prime=2.0))
        M = band_dimension(cfg["geometry"], cfg["N"])
        assert lhs_2 / lhs_43 == pytest.approx(
            M ** (1.0 / (4.0 / 3.0) - 0.5), rel=1e-9)


class TestSweep:
    def test_dispersive_window_interval(self, tmp_path):
        # the shrinking-window mode measures over [-N^(1-theta)/2, +half];
        # the ons-sweep driver passes that interval to the cell
        res = run({"experiment": "ons-sweep",
                   "geometry": {"kind": "torus", "grid_sizes": [64]},
                   "params": {"N": [8], "time_pts": 9,
                              "interval_mode": "dispersive-window"}},
                  str(tmp_path / "out"))
        half = 0.5 * 8.0 ** (1.0 - 3.0)
        window, _, _ = ons_estimate_ratio(torus(64), 8, 3.0, 6.0, 2.0,
                                          4.0 / 3.0, (-half, half), 9)
        assert window > 0
        assert res.rows[0]["lhs_norm"] == window
        # over a window of measure N^(1-theta) the constant-density family
        # norm carries the interval factor |I|^(1/p)
        unit, _, _ = ons_estimate_ratio(torus(64), 8, 3.0, 6.0, 2.0,
                                        4.0 / 3.0, time_pts=9)
        expected = unit * (2 * half) ** (1.0 / 6.0)
        assert window == pytest.approx(expected, rel=1e-10)

    def test_theta_sweep_slopes_under_prediction(self, tmp_path):
        for theta in (2.5, 3.0, 4.0):
            # stay on the theta line: theta/p + 1/q = 1 with q = 2
            p = 2.0 * theta
            res = run({"experiment": "ons-sweep",
                       "geometry": {"kind": "torus", "grid_sizes": [256]},
                       "params": {"theta": theta, "p": p, "q": 2.0,
                                  "alpha_prime": [4.0 / 3.0],
                                  "N": [8, 16, 32], "time_pts": 17}},
                      str(tmp_path / f"theta_{theta:g}"))
            sigma = res.rows[0]["sigma"]
            assert sigma == pytest.approx((theta - 1) / p)
            assert res.summary["fits"]["slope_alpha_1.33333"] <= sigma + 0.1
