import tracemalloc

import numpy as np
import pytest

from strichartz_lab.errors import InvalidInputError, NumericFailureError
from strichartz_lab import kernels
from strichartz_lab.geometry import _BLOCK_ELEMENTS
from strichartz_lab.kernels import (
    _exp_sum_terms,
    _scaled_kernel_max,
    dispersive_sup,
    kernel_exp_sum,
    vdc_integral_oracle,
)


class TestKernelExpSum:
    def test_all_phases_aligned(self):
        assert kernel_exp_sum(5, 3.0, 0.0, 0.0) == pytest.approx(11.0)

    def test_alternating(self):
        for theta in (2.0, 2.5, 3.0):
            v = kernel_exp_sum(1, theta, 0.0, 0.5)
            assert v == pytest.approx(-1.0, abs=1e-14)

    def test_quarter_period_cubic(self):
        v = kernel_exp_sum(1, 3.0, 0.25, 0.0)
        assert v == pytest.approx(1.0 + 2.0j, abs=1e-14)

    def test_modulus_bound_and_symmetries(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            N = int(rng.integers(1, 40))
            theta = float(rng.uniform(2.0, 4.0))
            t = float(rng.uniform(-0.5, 0.5))
            x = float(rng.uniform(0, 1))
            v = kernel_exp_sum(N, theta, t, x)
            assert abs(v) <= 2 * N + 1 + 1e-10
            v_conj = kernel_exp_sum(N, theta, -t, x)
            assert v_conj == pytest.approx(np.conj(v), abs=1e-12)
            v_even = kernel_exp_sum(N, theta, t, -x)
            assert v_even == pytest.approx(v, abs=1e-12)

    def test_cosine_form_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            N = int(rng.integers(1, 60))
            theta = float(rng.uniform(2.0, 3.5))
            # t drawn from the dispersive window the kernel is used on
            top = float(N) ** (1.0 - theta)
            t = float(rng.uniform(-top, top))
            x = float(rng.uniform(0, 1))
            n = np.arange(1, N + 1)
            cos_form = 1.0 + 2.0 * np.sum(
                np.exp(2j * np.pi * t * n.astype(float) ** theta)
                * np.cos(2 * np.pi * n * x))
            direct = kernel_exp_sum(N, theta, t, x)
            assert abs(direct - cos_form) < 1e-12

    def test_query_validation(self):
        with pytest.raises(InvalidInputError):
            kernel_exp_sum(0, 3.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            kernel_exp_sum(2.5, 3.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            kernel_exp_sum(4, 1.5, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            kernel_exp_sum(4, 3.0, np.inf, 0.0)
        with pytest.raises(InvalidInputError):
            kernel_exp_sum(4, 3.0, 0.0, np.nan)


class TestDispersiveSup:
    def test_degenerate_kernel(self):
        # N = 0: K is identically 1, so the sup is the top of the window
        rep = dispersive_sup(0, 3.0, t_grid_pts=64, x_grid_pts=64)
        assert rep.sup_value == pytest.approx(1.0)
        assert rep.window == (1e-6, 1.0)

    def test_baseline_finite_and_deterministic(self):
        r1 = dispersive_sup(8, 3.0, t_grid_pts=128, x_grid_pts=128)
        r2 = dispersive_sup(8, 3.0, t_grid_pts=128, x_grid_pts=128)
        assert np.isfinite(r1.sup_value) and r1.sup_value > 0
        assert r1.sup_value == r2.sup_value
        assert r1.argmax == r2.argmax
        assert r1.window[1] == pytest.approx(8.0 ** -2)

    def test_uniform_boundedness_small(self):
        sups = [dispersive_sup(N, 3.0, t_grid_pts=128, x_grid_pts=128).sup_value
                for N in (8, 16, 32)]
        assert max(sups) / min(sups) <= 2.0

    def test_monotone_under_nested_refinement(self):
        r_coarse = dispersive_sup(4, 2.5, t_grid_pts=64, x_grid_pts=64,
                                  check_refinement=False)
        r_fine = dispersive_sup(4, 2.5, t_grid_pts=127, x_grid_pts=128,
                                check_refinement=False)
        assert r_fine.sup_value >= r_coarse.sup_value
        # the recorded argmax realizes the sup
        t_star, x_star = r_coarse.argmax
        k = kernel_exp_sum(4, 2.5, t_star, x_star)
        assert abs(t_star) ** (1 / 2.5) * abs(k) == pytest.approx(
            r_coarse.sup_value, rel=1e-12)

    @pytest.mark.parametrize("N, nx", [(0, 64), (8, 64), (40, 64),
                                       (128, 64), (16, 128)])
    def test_fft_sweep_matches_pairwise_oracle(self, N, nx):
        # 2N+1 > nx folds several frequencies into one DFT bin (N = 40, 128)
        theta = 3.0
        ts = np.linspace(1e-6, max(N, 1) ** (1 - theta), 7)
        xs = np.arange(nx) / nx
        if N == 0:
            ks = np.ones((len(ts), nx))
        else:
            ks = np.array([[abs(kernel_exp_sum(N, theta, t, x))
                            for x in xs] for t in ts])
        scaled = ts[:, None] ** (1 / theta) * ks
        i, j = np.unravel_index(np.argmax(scaled), scaled.shape)
        sup, (t_star, x_star) = _scaled_kernel_max(N, theta, ts, xs)
        assert sup == pytest.approx(scaled[i, j], rel=1e-12)
        # |K_N(t, x)| = |K_N(t, -x)|: a mirrored argmax is the same point
        # up to roundoff, so the x-index may be j or its mirror
        assert t_star == ts[i]
        assert x_star in (xs[j], xs[-j % nx])

    def test_sweep_holds_one_complex_and_one_real_chunk(self):
        # each block of _BLOCK_ELEMENTS // (nx + N) time rows is transformed
        # and scaled in place, so the sweep holds one complex and one real
        # (rows, nx) array
        N, nx, theta = 16, 1024, 3.0
        ts = np.linspace(1e-6, N ** (1 - theta), 2000)
        xs = np.arange(nx) / nx
        rows = _BLOCK_ELEMENTS // (nx + N)
        assert rows < len(ts)
        tracemalloc.start()
        try:
            _scaled_kernel_max(N, theta, ts, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (16 + 8) * rows * nx

    @pytest.mark.parametrize("rows", [None, 3])
    def test_sweep_over_many_blocks_matches_pairwise_oracle(self, rows,
                                                            monkeypatch):
        # 2000 times span 3 blocks of the package's size, or 667 of 3 rows;
        # the oracle is kernel_exp_sum's pairwise sum, taken over a row
        N, nx, theta = 8, 64, 3.0
        if rows is not None:
            monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", rows * (nx + N))
        ts = np.linspace(1e-6, N ** (1 - theta), 2000)
        xs = np.arange(nx) / nx
        assert len(ts) > 2 * (kernels._BLOCK_ELEMENTS // (nx + N))
        ks = np.abs([np.sum(_exp_sum_terms(N, theta, t, xs), axis=-1)
                     for t in ts])
        scaled = ts[:, None] ** (1 / theta) * ks
        i, j = np.unravel_index(np.argmax(scaled), scaled.shape)
        sup, (t_star, x_star) = _scaled_kernel_max(N, theta, ts, xs)
        assert sup == pytest.approx(scaled[i, j], rel=1e-12)
        assert t_star == ts[i]
        assert x_star in (xs[j], xs[-j % nx])

    def test_time_repeated_in_two_blocks_reports_the_first(self,
                                                          monkeypatch):
        # the maximizing time sits in the first block and again in the
        # third; the non-uniform grid takes flow_phase at each time, so both
        # copies give the same row, and the later one must not displace the
        # first: the sweep reports what the first block alone reports
        N, nx, theta = 8, 64, 3.0
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 4 * (nx + N))
        xs = np.arange(nx) / nx
        grid = np.linspace(1e-6, N ** (1 - theta), 64)
        _, (t_star, _) = _scaled_kernel_max(N, theta, grid, xs)
        ts = np.array([grid[3], t_star, grid[9], grid[20],
                       grid[5], grid[7], grid[30], grid[2],
                       grid[11], t_star, grid[1], grid[40]])
        first = _scaled_kernel_max(N, theta, ts[:4], xs)
        assert _scaled_kernel_max(N, theta, ts, xs) == first
        assert first[1][0] == t_star

    def test_empty_window_rejected(self):
        with pytest.raises(InvalidInputError):
            dispersive_sup(8, 3.0, t_min=1.0)

    def test_grid_floor(self):
        with pytest.raises(InvalidInputError):
            dispersive_sup(8, 3.0, t_grid_pts=32)


def simpson_reference(theta, x, t, p, b, n=200_001):
    """Fixed-step Simpson rule, independent of the adaptive panel code."""
    s = np.linspace(0.0, b, n)
    g = np.exp(2j * np.pi * ((x - p) * s + t * s ** theta))
    h = s[1] - s[0]
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return (h / 3.0) * np.sum(w * g)


class TestVdcOracle:
    def test_fresnel_envelope(self):
        # theta = 2: |int_0^2 e^{2 pi i t s^2} ds| <= |t|^{-1/2}, ratio stable
        ratios = []
        for t in (10.0, 100.0, 1000.0):
            res = vdc_integral_oracle(2.0, 0.0, t, 0, 2.0)
            assert res.error_estimate < 1e-8
            ratios.append(res.ratio)
            assert res.ratio < 1.0
        assert max(ratios) / min(ratios) < 2.0

    def test_matches_fixed_step_simpson(self):
        res = vdc_integral_oracle(3.0, 0.0, 1.0, 0, 1.5)
        ref = simpson_reference(3.0, 0.0, 1.0, 0, 1.5)
        assert abs(res.value - ref) < 1e-8

    def test_near_zero_t_rejected(self):
        with pytest.raises(InvalidInputError):
            vdc_integral_oracle(3.0, 0.3, 0.0, 0, 2.0)
        with pytest.raises(InvalidInputError):
            vdc_integral_oracle(3.0, 0.3, 1e-14, 0, 2.0)

    def test_budget_exhaustion_carries_best_estimate(self):
        with pytest.raises(NumericFailureError) as exc:
            vdc_integral_oracle(3.0, 0.0, 5000.0, 0, 2.0, tol=1e-15,
                                max_panels=16)
        best = exc.value.best
        assert best is not None
        assert np.isfinite(best.error_estimate)

    def test_first_batch_in_slices_is_one_batch(self, monkeypatch):
        # t = 1000 starts from n0 = 8192 panels (8192 x 15 nodes); the
        # slices of _BLOCK_ELEMENTS // 16 panels give the unsliced batch's
        # result exactly, while the traced peak follows the slice, not n0;
        # the node cache is warmed so neither traced run loads its modules
        kernels._gauss_legendre(7), kernels._gauss_legendre(15)

        def traced():
            tracemalloc.start()
            try:
                res = vdc_integral_oracle(3.0, 0.0, 1000.0, 0, 2.0)
                return res, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        res, peak = traced()
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 16 * 8192)
        whole, whole_peak = traced()
        assert res.value == whole.value
        assert res.error_estimate == whole.error_estimate
        assert res.panels == whole.panels > 8192
        # the heap of 8192 panel tuples takes about 1.4 MiB of the bound
        bound = 3 * 16 * _BLOCK_ELEMENTS
        assert peak < bound < whole_peak

    def test_noninteger_theta(self):
        res = vdc_integral_oracle(2.5, 0.2, 3.0, 1, 2.0)
        ref = simpson_reference(2.5, 0.2, 3.0, 1, 2.0)
        assert abs(res.value - ref) < 1e-7
