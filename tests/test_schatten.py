import math

import numpy as np
import pytest

from strichartz_lab.errors import (CapacityError, InvalidInputError,
                                   NumericFailureError)
from strichartz_lab.geometry import (
    BandFlow,
    torus,
    waveguide,
)
from strichartz_lab.kernels import kernel_exp_sum
from strichartz_lab.norms import lq_norm
from strichartz_lab.ons import lambda_family
from strichartz_lab.schatten import (
    duality_check,
    factored_sobolev_schatten_norm,
    schatten_norm,
    singular_values,
    spatial_kernel_operator,
)

from oracles import (band_frequencies, build_extension_matrix,
                     sobolev_schatten_norm)

INF = math.inf


def random_matrix(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSingularValues:
    def test_identity(self):
        s = singular_values(np.eye(4))
        assert np.allclose(s, 1.0)
        assert len(s) == 4

    def test_rank_one(self):
        u = random_matrix(5, 1)
        v = random_matrix(7, 2)
        s = singular_values(np.outer(u, v.conj()))
        assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
        assert np.all(s[1:] < 1e-12 * s[0])
        assert len(s) == 5

    def test_against_eigen_oracle(self):
        A = random_matrix((3, 3), 3)
        s = singular_values(A)
        eig = np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(A.conj().T @ A)))[::-1]
        assert np.max(np.abs(s - eig)) < 1e-10

    def test_nonincreasing(self):
        s = singular_values(random_matrix((8, 6), 4))
        assert np.all(np.diff(s) <= 1e-14)


    @pytest.mark.parametrize("A", [
        np.array([[1.0, 0.0], [0.0, INF]]), np.ones(3),
    ], ids=["inf-entry", "1-d"])
    def test_rejects_non_finite_or_non_matrix(self, A):
        # numpy's SVD returns NaN for every value of a matrix with an inf
        with pytest.raises(InvalidInputError, match="finite 2-d matrix"):
            singular_values(A)


class TestSchattenNorm:
    def test_identity_hilbert_schmidt(self):
        assert schatten_norm(np.eye(4), 2) == pytest.approx(2.0)

    def test_monotone_in_alpha(self):
        A = random_matrix((6, 6), 5)
        alphas = [1, 1.5, 2, 4, 8, INF]
        norms = [schatten_norm(A, a) for a in alphas]
        assert np.all(np.diff(norms) <= 1e-12)
        assert norms[-1] <= norms[0]

    def test_hilbert_schmidt_equals_kernel_norm(self):
        # integral-kernel operator on a 16-point grid
        geom = torus(16)
        K = random_matrix((16, 16), 6)
        A = spatial_kernel_operator(K, geom)
        l2_kernel = np.sqrt(np.sum(np.abs(K) ** 2) * geom.cell_volume ** 2)
        assert abs(schatten_norm(A, 2) - l2_kernel) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        A = random_matrix((8, 8), 8)
        base = [schatten_norm(A, a) for a in (1, 2, 3, INF)]
        for _ in range(5):
            Q, _ = np.linalg.qr(random_matrix((8, 8), int(rng.integers(1e6))))
            B = Q @ A @ Q.conj().T
            got = [schatten_norm(B, a) for a in (1, 2, 3, INF)]
            assert np.max(np.abs(np.array(got) - np.array(base))) < 1e-10

    def test_hoelder_product_bound(self):
        for seed in range(10):
            A = random_matrix((6, 6), 100 + seed)
            B = random_matrix((6, 6), 200 + seed)
            lhs = schatten_norm(A @ B, 1)
            rhs = schatten_norm(A, 2) * \
                schatten_norm(B, 2)
            assert lhs <= rhs * (1 + 1e-10)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(InvalidInputError):
            schatten_norm(np.eye(2), 0.5)


class TestSobolevSchatten:
    def test_s_zero_reduces_to_plain(self):
        geom = torus(16)
        A = random_matrix((16, 16), 9)
        for a in (1, 2, INF):
            assert sobolev_schatten_norm(A, a, 0.0, geom) == \
                pytest.approx(schatten_norm(A, a))

    def test_fourier_mode_projector(self):
        geom = torus(16)
        x = geom.axis_coordinates(0)
        for n in (0, 2, 5):
            v = np.exp(2j * np.pi * n * x)
            A = spatial_kernel_operator(np.outer(v, v.conj()), geom)
            for alpha in (1, 2, INF):
                for s in (0.5, 1.0, -1.0):
                    got = sobolev_schatten_norm(A, alpha, s, geom)
                    assert got == pytest.approx((1 + n * n) ** s, rel=1e-10)

    def test_matrix_product_oracle(self):
        # rank-3 operator: conjugate explicitly by a directly-built multiplier
        geom = torus(8)
        rng = np.random.default_rng(10)
        U = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        V = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        A = (U @ V.conj().T) * geom.cell_volume
        # independent route: DFT matrix built from first principles
        freqs = np.fft.fftfreq(8, d=1.0 / 8)
        F = np.exp(-2j * np.pi * np.outer(freqs, geom.axis_coordinates(0)))
        Finv = F.conj().T / 8.0
        mult = np.diag((1.0 + freqs ** 2) ** 0.5)
        Ms = Finv @ mult @ F
        expected = schatten_norm(Ms @ A @ Ms, 2)
        got = sobolev_schatten_norm(A, 2, 1.0, geom)
        assert got == pytest.approx(expected, rel=1e-10)


class TestFactoredSobolevSchatten:
    """The factored norm against the dense route on the same operator."""

    @staticmethod
    def agree(geom, members, weights):
        n = int(np.prod(geom.grid_sizes))
        flat = members.reshape(-1, n)
        dense = (flat.T * weights) @ flat.conj()
        for alpha in (1, 4.0 / 3.0, 2, INF):
            for s in (0.0, 0.3):
                want = sobolev_schatten_norm(dense, alpha, s, geom)
                got = factored_sobolev_schatten_norm(members, weights, alpha,
                                                     s, geom)
                assert got == pytest.approx(want, rel=1e-12), (alpha, s)

    @pytest.mark.parametrize("geom", [torus(32), torus((8, 8))],
                             ids=["torus32", "torus8x8"])
    def test_unequal_ranks_signed_and_zero_weights(self, geom):
        # a stacked difference of a rank-5 and a rank-3 operator, as the
        # fixed-point distance forms it, with one zero-weight member
        n = int(np.prod(geom.grid_sizes))
        a = random_matrix((5, n), 30) / n
        b = random_matrix((3, n), 31) / n
        weights = np.concatenate([[0.5, 0.3, 0.0, 0.2, 0.1],
                                  -np.array([0.7, 0.2, 0.05])])
        self.agree(geom, np.concatenate([a, b]), weights)

    def test_stacked_rank_above_grid(self):
        geom = torus(16)
        members = random_matrix((32, 16), 32) / 16
        weights = np.random.default_rng(33).standard_normal(32)
        self.agree(geom, members, weights)

    def test_grid_shaped_rows_and_guards(self):
        geom = torus((4, 4))
        members = random_matrix((2, 4, 4), 34)
        want = factored_sobolev_schatten_norm(members.reshape(2, 16),
                                              [1.0, -1.0], 2, 0.3, geom)
        assert factored_sobolev_schatten_norm(members, [1.0, -1.0], 2, 0.3,
                                              geom) == want
        with pytest.raises(InvalidInputError):
            factored_sobolev_schatten_norm(members, [1.0], 2, 0.3, geom)
        with pytest.raises(InvalidInputError):
            factored_sobolev_schatten_norm(members, [1.0, 1.0], 0.5, 0.3,
                                           geom)


def extension(geom, N, interval, time_pts, theta):
    """The dense extension matrix with its band frequencies, symbol values
    and time grid."""
    flow = BandFlow(geom, N, theta)
    E = build_extension_matrix(geom, N, interval, time_pts, theta)
    return E, band_frequencies(geom, N), flow.phi, \
        np.linspace(*interval, time_pts)


class TestExtensionMatrix:
    def test_delta_coefficient_gives_plane_wave(self):
        # on the waveguide the box coordinates x in [-L/2, L/2) and the
        # dual cell both enter the column
        cases = [(torus(16), [1.0], 1.0),
                 (waveguide(16, 8, trunc_length=4.0), [0.75, -1.0],
                  0.75 ** 3 + 1.0)]
        for geom, target, phi in cases:
            E, xis, phis, t = extension(geom, 2, (0.0, 1.0), 5, 3.0)
            j = int(np.argwhere(np.all(xis == target, axis=1)).ravel()[0])
            assert phis[j] == pytest.approx(phi)
            n_space = int(np.prod(geom.grid_sizes))
            col = E[:, j].reshape(5, n_space)
            x = np.stack([m.ravel() for m in np.meshgrid(
                *[geom.axis_coordinates(ax) for ax in range(geom.dim)],
                indexing="ij")], axis=-1)
            expected = np.exp(2j * np.pi * ((x @ target)[None, :]
                                            + t[:, None] * phi))
            w_t = np.full(5, t[1] - t[0])
            w_t[0] *= 0.5
            w_t[-1] *= 0.5
            fold = np.sqrt(w_t[:, None] * geom.cell_volume * geom.dual_cell)
            assert np.max(np.abs(col - fold * expected)) < 1e-12

    def test_adjoint_is_restriction(self):
        # E* F, computed directly as the weighted conjugate pairing
        geom = torus(8)
        E, xis, phis, t = extension(geom, 2, (0.0, 0.5), 4, 2.0)
        rng = np.random.default_rng(11)
        F = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        w_t = np.full(4, t[1] - t[0])
        w_t[0] *= 0.5
        w_t[-1] *= 0.5
        x = geom.axis_coordinates(0)
        direct = []
        for xi, phi in zip(xis[:, 0], phis):
            phase = np.exp(-2j * np.pi * (x[None, :] * xi + t[:, None] * phi))
            direct.append(np.sum(F * phase * w_t[:, None]) * geom.cell_volume)
        direct = np.array(direct)
        folded = E.conj().T @ (np.sqrt(np.repeat(w_t, 8) * geom.cell_volume)
                               * F.ravel())
        # unfold the coefficient side: divide by sqrt(dual cell) = 1 on torus
        assert np.max(np.abs(folded - direct)) < 1e-12

    def test_gram_is_kernel_convolution(self):
        # E E* equals convolution by the exponential-sum kernel (torus)
        geom = torus(16)
        N, theta, T = 2, 3.0, 5
        E, _, _, t = extension(geom, N, (0.0, 1.0), T, theta)
        gram = E @ E.conj().T
        x = geom.axis_coordinates(0)
        w_t = np.full(T, t[1] - t[0])
        w_t[0] *= 0.5
        w_t[-1] *= 0.5
        fold = np.sqrt(np.repeat(w_t, 16) * geom.cell_volume)
        conv = np.empty((T * 16, T * 16), dtype=complex)
        for i in range(T * 16):
            ti, xi_ = t[i // 16], x[i % 16]
            for j in range(T * 16):
                tj, xj = t[j // 16], x[j % 16]
                conv[i, j] = kernel_exp_sum(N, theta, ti - tj, xi_ - xj)
        conv *= fold[:, None] * fold[None, :]
        assert np.max(np.abs(gram - conv)) < 1e-10

    def test_cstar_identity(self):
        geom = torus(16)
        E = build_extension_matrix(geom, 2, (0.0, 1.0), 9, 2.0)
        op_norm = schatten_norm(E, INF)
        gram_norm = schatten_norm(E @ E.conj().T, INF)
        assert gram_norm == pytest.approx(op_norm ** 2, rel=1e-10)

    def test_restriction_gram_against_double_sum(self):
        # E* E on the band: entries are double sums over the (t, x) grid
        geom = torus(16)
        E, xis, phis, t = extension(geom, 2, (0.0, 1.0), 9, 2.0)
        G = E.conj().T @ E
        # diagonal dominance: every coefficient pairs most strongly with itself
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < np.min(np.abs(np.diag(G)))
        x = geom.axis_coordinates(0)
        w_t = np.full(9, t[1] - t[0])
        w_t[0] *= 0.5
        w_t[-1] *= 0.5
        a, b = 1, 3  # columns to cross-check by brute force
        xi_a, xi_b = xis[a, 0], xis[b, 0]
        ph_a, ph_b = phis[a], phis[b]
        acc = 0.0 + 0.0j
        for i, ti in enumerate(t):
            for xj in x:
                acc += (np.exp(-2j * np.pi * (xj * xi_a + ti * ph_a))
                        * np.exp(2j * np.pi * (xj * xi_b + ti * ph_b))
                        * w_t[i] * geom.cell_volume)
        assert abs(G[a, b] - acc) < 1e-10

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            build_extension_matrix(torus(1024), 64, (0.0, 1.0), 200, 2.0)

    def test_waveguide_band_columns(self):
        geom = waveguide(16, 8, trunc_length=4.0)
        E, xis, _, _ = extension(geom, 2, (0.0, 1.0), 3, 2.5)
        # free axis: lattice [-2, 1.75] at spacing 1/4 with the Nyquist row
        # -2.0 zeroed -> 15 columns; periodic axis: |xi| <= 2 -> 5 columns
        assert E.shape[1] == len(xis) == 15 * 5
        assert np.max(np.abs(xis)) <= 2.0


GRAM_GEOMETRIES = [
    pytest.param(torus(16), id="torus-1d"),
    pytest.param(torus((8, 8)), id="torus-2d"),
    pytest.param(torus((8, 8, 8)), id="torus-3d"),
    pytest.param(waveguide(16, 8, trunc_length=4.0), id="waveguide-2d"),
    pytest.param(waveguide((8, 8), 8, trunc_length=2.0), id="waveguide-3d"),
]


class TestBandGram:
    """``BandFlow.gram`` against E* diag(w) E of the dense extension
    matrix."""

    @pytest.mark.parametrize("geom", GRAM_GEOMETRIES)
    @pytest.mark.parametrize("time_pts", [5, 61])
    def test_matches_dense(self, geom, time_pts):
        # 61 times span several time blocks on the 2-d grids (B = 49 at
        # N = 3), with a phase table start that is not the first time
        N, theta, interval = 3, 2.5, (0.1, 0.9)
        E = build_extension_matrix(geom, N, interval, time_pts, theta)
        times = np.linspace(*interval, time_pts)
        rng = np.random.default_rng(50)
        shape = (time_pts,) + geom.grid_sizes
        for w in (np.abs(rng.standard_normal(shape)) + 0.1,
                  rng.standard_normal(shape)):
            dense = E.conj().T @ (w.ravel()[:, None] * E)
            got = BandFlow(geom, N, theta).gram(times, w)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(
                np.abs(dense))

    def test_rejects_complex_or_misshaped_weight(self):
        geom = torus(16)
        flow = BandFlow(geom, 2, 2.0)
        times = np.linspace(0.0, 1.0, 4)
        with pytest.raises(InvalidInputError):
            flow.gram(times, np.ones((4, 16), dtype=complex))
        with pytest.raises(InvalidInputError):
            flow.gram(times, np.ones((3, 16)))


class TestDualityCheck:
    def constant_weight(self, geom, time_pts, value=1.0):
        times = np.linspace(0.0, 1.0, time_pts)
        vals = np.full((time_pts,) + geom.grid_sizes, value, dtype=complex)
        return times, vals

    def test_zero_weight(self):
        geom = torus(16)
        W = self.constant_weight(geom, 9, 0.0)
        rep = duality_check(geom, *W, 2, 4.0, 10, theta=2.0)
        assert rep.operator_norm == 0.0
        assert rep.max_sampled_ratio == 0.0

    def test_overflowed_gram_is_numeric_failure(self):
        # |xi|^1000 overflows, so the band Gram is NaN: eigvalsh would
        # raise LinAlgError
        geom = torus(16)
        W = self.constant_weight(geom, 9)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericFailureError, match="not finite"):
            duality_check(geom, *W, 2, 4.0, 10, theta=1000.0)

    def test_rejects_complex_weight(self):
        geom = torus(16)
        times, vals = self.constant_weight(geom, 9)
        with pytest.raises(InvalidInputError, match="real-valued"):
            duality_check(geom, times, vals + 1e-3j, 2, 4.0, 10)

    def test_unit_weight_infinity_is_cstar(self):
        geom = torus(16)
        W = self.constant_weight(geom, 9)
        rep = duality_check(geom, *W, 2, INF, 20, theta=2.0)
        E = build_extension_matrix(geom, 2, (0.0, 1.0), 9, 2.0)
        assert rep.operator_norm == pytest.approx(
            schatten_norm(E, INF) ** 2, rel=1e-10)
        assert rep.dominance_ok

    def test_dominance_with_random_weight(self):
        geom = torus(16)
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 1.0, 9)
        vals = np.abs(rng.standard_normal((9, 16))) + 0.1
        rep = duality_check(geom, times, vals.astype(complex), 2, 4.0, 200,
                            theta=2.0, seed=3)
        assert rep.dominance_ok
        assert 0.0 < rep.max_sampled_ratio <= rep.operator_norm * (1 + 1e-8)

    @pytest.mark.parametrize("geom", [
        torus(16), torus((8, 8)), waveguide(16, 8, trunc_length=4.0),
    ], ids=["torus16", "torus8x8", "waveguide"])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0, INF])
    def test_band_side_against_dense_gram(self, geom, alpha):
        # the oracle is the space-time form: the Schatten norm of the
        # rows x rows matrix W E E* W, and each family functional
        # sum_j lambda_j ||W E q_j||^2 on the same sampled families, for a
        # positive and a signed weight
        N, theta, time_pts, samples, seed = 2, 2.5, 5, 30, 4
        rng = np.random.default_rng(40)
        times = np.linspace(0.0, 1.0, time_pts)
        shape = (time_pts,) + geom.grid_sizes
        positive = np.abs(rng.standard_normal(shape)) + 0.1
        signed = rng.standard_normal(shape)
        E = build_extension_matrix(geom, N, (0.0, 1.0), time_pts, theta)
        gram = E @ E.conj().T
        for W in (positive, signed):
            rep = duality_check(geom, times, W, N, alpha, samples,
                                theta=theta, seed=seed)
            w = W.ravel()
            dense = schatten_norm(
                w[:, None] * gram * w, alpha)
            assert rep.operator_norm == pytest.approx(dense, rel=1e-12)

            alpha_conj = 1.0 / (1.0 - 1.0 / alpha) if alpha > 1 else INF
            draws = np.random.default_rng(seed)
            B = E.shape[1]
            best = 0.0
            for i in range(samples):
                M = int(draws.integers(1, B + 1))
                Q, _ = np.linalg.qr(draws.standard_normal((B, M))
                                    + 1j * draws.standard_normal((B, M)))
                lam = lambda_family(("flat", "power", "one-hot")[i % 3], M,
                                    alpha_conj)
                images = (w[:, None] * E) @ Q
                best = max(best, float(np.sum(
                    lam * np.sum(np.abs(images) ** 2, axis=0)))
                    / lq_norm(lam, alpha_conj))
            assert rep.max_sampled_ratio == pytest.approx(best, rel=1e-12)
            assert rep.dominance_ok
