import math
import tracemalloc

import numpy as np
import pytest

from strichartz_lab import geometry
from strichartz_lab.errors import InvalidInputError
from strichartz_lab.geometry import (
    BandFlow,
    GridMultiplier,
    _band_multiplier,
    _exact_grid,
    eta1,
    flow_phase,
    forward_transform,
    fractional_symbol,
    inverse_transform,
    littlewood_paley,
    project_leq,
    propagate,
    torus,
    waveguide,
)
from strichartz_lab.harness import _flow_ratios
from strichartz_lab.norms import lq_norm
from strichartz_lab.ons import NormalRows, band_dimension

from oracles import band_frequencies, collect_blocks, sandwich, slow_flow

RNG = np.random.default_rng(20260808)


def direct_dft(values, geom):
    """O(G^2) reference transform: a(xi) = sum_x f(x) e^{-2 pi i x.xi} dx."""
    coords = [geom.axis_coordinates(ax) for ax in range(geom.dim)]
    freqs = [geom.axis_frequencies(ax) for ax in range(geom.dim)]
    xs = np.stack([m.ravel() for m in np.meshgrid(*coords, indexing="ij")])
    xis = np.stack([m.ravel() for m in np.meshgrid(*freqs, indexing="ij")])
    phase = np.exp(-2j * np.pi * (xis.T @ xs))
    coef = (phase @ values.ravel()) * geom.cell_volume
    return coef.reshape(geom.grid_sizes)


def random_field(geom, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(geom.grid_sizes) + 1j * rng.standard_normal(geom.grid_sizes)


def plane_wave(geom, n):
    x = geom.axis_coordinates(0)
    return np.exp(2j * np.pi * n * x)


def l2(values, geom):
    """L2(M) norm of grid values with the cell volume."""
    return lq_norm(values, 2, geom.cell_volume)


def coef_l2(coef, geom):
    """Weighted little-l2 norm of coefficients (dual cell on free axes)."""
    return lq_norm(coef, 2, geom.dual_cell)


class TestGeometrySpec:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            torus(6)  # not a power of two
        with pytest.raises(InvalidInputError):
            torus(2)  # too small
        with pytest.raises(InvalidInputError):
            torus((8, 8, 8, 8))  # d > 3
        with pytest.raises(InvalidInputError):
            waveguide(8, 8, trunc_length=-1.0)

    def test_lattice_symmetric_up_to_nyquist(self):
        for geom in (torus(16), waveguide(16, 8, trunc_length=4.0)):
            for ax, xi in enumerate(geometry._mesh(geom)):
                assert xi.shape == geom.grid_sizes and not xi.flags.writeable
                # every frequency except the Nyquist row has its mirror
                body = geom.axis_frequencies(ax)[1:]
                assert np.allclose(np.sort(body), np.sort(-body))

    def test_cell_volumes(self):
        geom = waveguide(16, 8, trunc_length=4.0)
        assert np.isclose(geom.cell_volume, (4.0 / 16) * (1.0 / 8))
        assert np.isclose(geom.dual_cell, 1.0 / 4.0)


class TestTransforms:
    def test_plane_wave_single_coefficient(self):
        geom = torus(16)
        for n in (0, 3, -5):
            s = forward_transform(plane_wave(geom, n), geom)
            expected = np.zeros(16, dtype=complex)
            expected[np.where(geom.axis_frequencies(0) == n)[0][0]] = 1.0
            assert np.max(np.abs(s - expected)) < 1e-12

    def test_zero_field(self):
        geom = torus(8)
        s = forward_transform(np.zeros(8), geom)
        assert np.all(s == 0)
        assert np.all(inverse_transform(s, geom) == 0)

    def test_roundtrip_against_direct_oracle(self):
        geom = torus(16)
        f = random_field(geom, seed=1)
        s = forward_transform(f, geom)
        assert np.max(np.abs(s - direct_dft(f, geom))) < 1e-12
        back = inverse_transform(s, geom)
        assert np.max(np.abs(back - f)) < 1e-12
        assert abs(coef_l2(s, geom) - l2(f, geom)) < 1e-12 * l2(f, geom)

    def test_direct_oracle_waveguide(self):
        geom = waveguide(8, 8, trunc_length=2.0)
        f = random_field(geom, seed=2)
        s = forward_transform(f, geom)
        assert np.max(np.abs(s - direct_dft(f, geom))) < 1e-11
        back = inverse_transform(s, geom)
        assert np.max(np.abs(back - f)) < 1e-12

    @pytest.mark.parametrize("geom", [torus(1024), waveguide(64, 64, trunc_length=8.0)])
    def test_plancherel_large(self, geom):
        f = random_field(geom, seed=3)
        s = forward_transform(f, geom)
        rel = abs(coef_l2(s, geom) - l2(f, geom)) / l2(f, geom)
        assert rel < 1e-12
        back = inverse_transform(s, geom)
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    def test_size_mismatch_rejected(self):
        # every public grid function checks that the trailing axes are the
        # grid and that the entries are finite; leading axes are a batch
        calls = [lambda v, g: forward_transform(v, g),
                 lambda v, g: inverse_transform(v, g),
                 lambda v, g: propagate(v, g, 0.1, 2.0),
                 lambda v, g: propagate(v, g, 0.0, 2.0),
                 lambda v, g: project_leq(v, g, 2),
                 lambda v, g: littlewood_paley(v, g, 1)]
        spiked = np.zeros((2, 16))
        spiked[1, 3] = np.inf
        for call in calls:
            for v, g in [(np.zeros(8), torus(16)),
                         (np.zeros((4, 4)), torus(16)),
                         (np.zeros((16, 4)), torus(16)),
                         (np.zeros((8, 16)), torus((16, 8))),
                         (np.zeros(()), torus(16)),
                         (np.full(16, np.nan), torus(16)),
                         (spiked, torus(16))]:
                with pytest.raises(InvalidInputError):
                    call(v, g)
            assert call(np.ones((3, 16, 8)), torus((16, 8))).shape \
                == (3, 16, 8)


class TestSymbol:
    def test_pythagorean_torus(self):
        geom = torus((16, 16))
        sym = fractional_symbol(geom, 2.0)
        i = np.where(geom.axis_frequencies(0) == 3)[0][0]
        j = np.where(geom.axis_frequencies(1) == 4)[0][0]
        assert sym[i, j] == 25.0

    def test_zero_frequency(self):
        geom = torus(16)
        for theta in (0.5, 1.5, 2.0, 3.7):
            sym = fractional_symbol(geom, theta)
            assert sym[np.where(geom.axis_frequencies(0) == 0)[0][0]] == 0.0
            assert np.all(sym >= 0)

    def test_split_sum_waveguide(self):
        geom = waveguide(8, 8, trunc_length=1.0)
        sym = fractional_symbol(geom, 3.0)
        i = np.where(geom.axis_frequencies(0) == 2)[0][0]
        j = np.where(geom.axis_frequencies(1) == 1)[0][0]
        assert np.isclose(sym[i, j], 8.0 + 1.0)

    def test_even_in_each_axis(self):
        geom = torus((8, 8))
        sym = fractional_symbol(geom, 2.5)
        # drop the Nyquist row/column, then flipping either axis is a symmetry
        body = sym[1:, 1:]
        assert np.allclose(body, body[::-1, :])
        assert np.allclose(body, body[:, ::-1])

    def test_rejects_bad_theta(self):
        with pytest.raises(InvalidInputError):
            fractional_symbol(torus(8), 0.0)


class TestPropagate:
    def test_plane_wave_eigenfunction(self):
        geom = torus(32)
        for n, t, theta in [(3, 0.7, 2.0), (-4, 0.11, 3.0), (5, -2.0, 2.5)]:
            f = plane_wave(geom, n)
            out = propagate(f, geom, t, theta)
            expected = np.exp(2j * np.pi * t * abs(n) ** theta) * f
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_identity_at_zero(self):
        geom = torus(64)
        f = random_field(geom, seed=5)
        assert propagate(f, geom, 0.0, 2.0) is f

    def test_mode_by_mode_oracle(self):
        # direct summation over modes, theta = 2, band-limited data
        geom = torus(64)
        rng = np.random.default_rng(7)
        freqs = geom.axis_frequencies(0)
        coef = np.zeros(64, dtype=complex)
        band = np.abs(freqs) <= 10
        coef[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
        f = inverse_transform(coef, geom)
        t, theta = 0.3, 2.0
        x = geom.axis_coordinates(0)
        oracle = np.zeros(64, dtype=complex)
        for n, a in zip(freqs[band], coef[band]):
            oracle += a * np.exp(2j * np.pi * (n * x + t * abs(n) ** theta))
        out = propagate(f, geom, t, theta)
        assert np.max(np.abs(out - oracle)) < 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("theta", [0.5, 1.5, 2.0, 2.5, 3.0, 5.0])
    def test_unitarity_and_group_law(self, theta):
        # dyadic times: s*phi, t*phi and (s+t)*phi then round identically,
        # so the group law is exact rather than limited by phase rounding
        s, t = 0.21875, 0.15625
        for geom in (torus(1024), waveguide(64, 64, trunc_length=8.0)):
            f = random_field(geom, seed=11)
            n0 = l2(f, geom)
            g = propagate(f, geom, s + t, theta)
            assert abs(l2(g, geom) - n0) < 1e-12 * n0
            two_step = propagate(propagate(f, geom, s, theta), geom, t, theta)
            assert np.max(np.abs(two_step - g)) < 1e-12 * np.max(np.abs(g))

    def test_rejects_nonfinite_time(self):
        with pytest.raises(InvalidInputError):
            propagate(random_field(torus(8)), torus(8), np.nan, 2.0)

    def test_commutes_with_cutoff(self):
        for geom in (torus(64), waveguide(16, 16, trunc_length=4.0)):
            f = random_field(geom, seed=13)
            a = project_leq(propagate(f, geom, 0.4, 2.5), geom, 4)
            b = propagate(project_leq(f, geom, 4), geom, 0.4, 2.5)
            assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))


class TestExactGrid:
    # (grid, band box, q) -> evaluation grid; K = (box - 1) // 2 per axis
    @pytest.mark.parametrize("grid, box, q, want", [
        # the shipped waveguide at N = 8, 16, 32 (L = 8): both axes, one,
        # none shrink to the smallest even 5-smooth size above 4 K
        ((512, 128), (129, 17), 4, (270, 36)),
        ((512, 128), (257, 33), 4, (512, 72)),
        ((512, 128), (511, 65), 4, (512, 128)),
        # the shipped torus at N = 8, 16, 32, 64 and q = 8
        ((512,), (17,), 8, (72,)),
        ((512,), (33,), 8, (144,)),
        ((512,), (65,), 8, (270,)),
        ((512,), (129,), 8, (512,)),
        # G = q K exactly aliases the top index: kept
        ((128,), (33,), 8, (128,)),
        ((128,), (33,), 8.0, (128,)),
        # q = 2 always fits the band; q = 6 is even without being 2^j
        ((64, 16), (17, 15), 2, (18, 16)),
        ((512,), (17,), 6, (50,)),
        # a band of one row needs two points
        ((16, 64), (1, 9), 4, (2, 18)),
    ])
    def test_size_rule(self, grid, box, q, want):
        assert _exact_grid(grid, box, q) == want

    @pytest.mark.parametrize("q", [math.inf, 3, 3.0, 4.0 / 3.0, 1, 2.5])
    def test_other_exponents_keep_config_grid(self, q):
        assert _exact_grid((512, 128), (129, 17), q) == (512, 128)

    @pytest.mark.parametrize("q", [None, math.inf, 3.0, 4.0 / 3.0, 1.0])
    def test_flow_keeps_config_grid(self, q):
        geom = waveguide(512, 128, trunc_length=8.0)
        flow = BandFlow(geom, 8, 2.5, q)
        assert flow.grid == geom.grid_sizes
        assert flow.cell_volume == geom.cell_volume

    def test_flow_on_exact_grid(self):
        geom = waveguide(512, 128, trunc_length=8.0)
        flow = BandFlow(geom, 8, 2.5, 4.0)
        assert flow.grid == (270, 36)
        assert flow.cell_volume == pytest.approx(8.0 / 270 / 36, rel=1e-15)
        # same band, order and phases as on the config grid
        base = BandFlow(geom, 8, 2.5)
        assert np.array_equal(flow.phi, base.phi)
        assert flow._box == base._box
        assert np.array_equal(flow._level, base._level)

    @pytest.mark.parametrize("geom, N", [
        (torus((16, 64)), 4),
        (waveguide(64, 16, trunc_length=2.0), 3),
    ], ids=["torus-2d", "waveguide"])
    def test_blocks_sample_band_polynomial(self, geom, N):
        # pointwise oracle on the exact grid: the band's trigonometric
        # polynomial sum_b c_b e^{2 pi i (t phi_b + xi_b . x)} / volume
        flow = BandFlow(geom, N, 2.5, 4.0)
        assert math.prod(flow.grid) < math.prod(geom.grid_sizes)
        coords = []
        for ax, g in enumerate(flow.grid):
            x = np.arange(g) / g
            coords.append(geom.trunc_length * (x - 0.5)
                          if geom.axis_is_free(ax) else x)
        x = np.stack([m.ravel() for m in np.meshgrid(*coords,
                                                     indexing="ij")])
        volume = geom.cell_volume * math.prod(geom.grid_sizes)
        xi = band_frequencies(geom, N)
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((3, flow.size)) \
            + 1j * rng.standard_normal((3, flow.size))
        times = np.array([0.0, 0.3, 1.7])
        for ts, ss, values in flow.blocks(rows, times):
            for t, frames in zip(times[ts], values):
                wave = np.exp(2j * np.pi * (t * flow.phi[:, None]
                                            + xi @ x)) / volume
                direct = (rows[ss] @ wave).reshape((-1,) + flow.grid)
                assert np.max(np.abs(frames - direct)) \
                    < 1e-13 * np.max(np.abs(direct))


class TestBandFlow:
    @pytest.mark.parametrize("geom, N, budget", [
        (torus(64), 10, None),
        (torus((16, 16)), 4, None),
        (waveguide(32, 8, trunc_length=4.0), 4, None),
        # two steps of the 3 samples per block: time blocks of 2 and 1
        (torus(64), 10, 2 * 3 * 64),
        # 2 frames per block: sample chunks of 2 and 1, one step each
        (torus((16, 16)), 4, 2 * 256),
        (waveguide(32, 8, trunc_length=4.0), 4, 2 * 256),
        # the periodic axis is the fuller one, so it is transformed first
        (waveguide(64, 8, trunc_length=1.0), 2, None),
        (waveguide(64, 8, trunc_length=1.0), 2, 2 * 512),
        # 3-D: a tie of three axes, and two periodic axes before the free one
        (torus((8, 8, 8)), 2, None),
        (torus((8, 8, 8)), 2, 2 * 512),
        (waveguide(16, (8, 8), trunc_length=2.0), 2, None),
        (waveguide(16, (8, 8), trunc_length=2.0), 2, 2 * 1024),
        # every row but the Nyquist one: the band wraps around it
        (torus((16, 8)), 8, 2 * 3 * 128),
        # the shipped N = 32 waveguide in miniature: the free axis holds 31
        # of 32 rows and goes first, the periodic one holds 9 of 16
        (waveguide(32, 16, trunc_length=4.0), 4, None),
        (waveguide(32, 16, trunc_length=4.0), 4, 2 * 512),
        # 3-D: the free axis holds 7 of 8 rows and is the middle pass
        (waveguide(8, (16, 32), trunc_length=1.0), 7, None),
        (waveguide(8, (16, 32), trunc_length=1.0), 7, 2 * 4096),
    ], ids=["torus-1d", "torus-2d", "waveguide", "torus-1d-time-blocks",
            "torus-2d-sample-chunks", "waveguide-sample-chunks",
            "waveguide-periodic-first", "waveguide-periodic-first-chunks",
            "torus-3d", "torus-3d-chunks", "waveguide-3d",
            "waveguide-3d-chunks", "torus-2d-full-band-time-blocks",
            "waveguide-full-free-axis", "waveguide-full-free-axis-chunks",
            "waveguide-3d-full-middle-pass",
            "waveguide-3d-full-middle-pass-chunks"])
    def test_frames_match_slow_twin(self, geom, N, budget, monkeypatch):
        # slow twin: scatter each row into the centered lattice, transform
        # back, propagate; pointwise agreement sees the box-origin sign
        # that norm and mass checks cannot
        if budget is not None:
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", budget)
        theta = 2.5
        flow = BandFlow(geom, N, theta)
        mask = _band_multiplier(geom, N) == 1.0
        assert np.array_equal(flow.phi, fractional_symbol(geom, theta)[mask])
        mesh = np.meshgrid(*map(geom.axis_frequencies, range(geom.dim)),
                           indexing="ij")
        assert np.array_equal(band_frequencies(geom, N),
                              np.stack([m[mask] for m in mesh], axis=-1))
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((3, flow.size)) \
            + 1j * rng.standard_normal((3, flow.size))
        times = [0.0, 0.3, 1.7]
        film = collect_blocks(flow, rows, times)
        assert np.max(np.abs(film - slow_flow(geom, N, theta, rows,
                                              times))) < 1e-12

    def test_traced_peak_within_pass_buffers(self, monkeypatch):
        # one frame per block: a thread holds one complex buffer per pass
        # (the pruned ones smaller) and the real |u| of the reduction, so
        # a serial stream stays under (16 d + 8) bytes per grid point
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 1)
        geom, N = waveguide(256, 64, trunc_length=4.0), 2
        rows = np.random.default_rng(7).standard_normal(
            (20, band_dimension(geom, N))) + 0j
        # odd q: the stream samples the config grid; the first call fills
        # the geometry's lookup caches
        _flow_ratios(geom, N, rows, 2.5, 5, 4.0, 3.0)
        tracemalloc.start()
        try:
            _flow_ratios(geom, N, rows, 2.5, 5, 4.0, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 * geom.dim + 8) * math.prod(geom.grid_sizes)

    def test_traced_peak_holds_the_phases_not_the_batch(self, monkeypatch):
        # fewer times than samples: the stream holds the phases of every
        # time block and draws the rows chunk by chunk, so a serial stream
        # with its row source stays under (16 d + 8) bytes per grid point
        # plus 16 T B, and its peak grows with S by a few floats per
        # sample (the whole batch would be 16 B bytes per sample)
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 1)
        geom, N, T = waveguide(256, 64, trunc_length=4.0), 2, 5
        B = band_dimension(geom, N)
        bound = (16 * geom.dim + 8) * math.prod(geom.grid_sizes) + 16 * T * B
        peaks = {}
        for S in (100, 400):
            # odd q: the stream samples the config grid; the first call
            # fills the geometry's lookup caches
            for _ in range(2):
                tracemalloc.start()
                try:
                    rows = NormalRows(np.random.default_rng(S), S, B)
                    _flow_ratios(geom, N, rows, 2.5, T, 4.0, 3.0)
                    peaks[S] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert max(peaks.values()) < bound
        assert peaks[400] - peaks[100] < 64 * (400 - 100)

    @pytest.mark.parametrize("geom, N, passes", [
        (waveguide(32, 8, trunc_length=4.0), 4, [0, 1]),
        (waveguide(64, 8, trunc_length=1.0), 2, [1, 0]),
        (torus((8, 8, 8)), 2, [0, 1, 2]),
        (waveguide(16, (8, 8), trunc_length=2.0), 2, [1, 2, 0]),
        (waveguide(8, (16, 32), trunc_length=1.0), 7, [1, 0, 2]),
    ], ids=["waveguide-free-first", "waveguide-periodic-first", "torus-3d",
            "waveguide-3d", "waveguide-3d-free-middle"])
    def test_fullest_axis_transformed_first(self, geom, N, passes):
        assert BandFlow(geom, N, 2.5)._passes == passes

    @pytest.mark.parametrize("geom", [torus(64), torus((16, 16)),
                                      waveguide(32, 8, trunc_length=4.0)],
                             ids=["torus-1d", "torus-2d", "waveguide"])
    @pytest.mark.parametrize("budget", [100, 256, 1000, 4096, None])
    @pytest.mark.parametrize("samples, steps", [(1, 1), (1, 300), (7, 13),
                                                (40, 5)])
    def test_blocks_within_budget(self, geom, budget, samples, steps,
                                  monkeypatch):
        if budget is not None:
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", budget)
        budget = geometry._BLOCK_ELEMENTS
        # on the config grid, and on the exact grid of q = 4 (smaller on
        # the tori): the budget counts points of the grid sampled on
        for q in (None, 4.0):
            flow = BandFlow(geom, 2, 2.0, q)
            rows = np.ones((samples, flow.size), dtype=complex)
            times = np.linspace(0.0, 1.0, steps)
            frame = math.prod(flow.grid)
            k, s = flow.block_shape(samples, steps)
            sizes = []
            for ts, ss, values in flow.blocks(rows, times):
                assert values.shape[:2] == (len(range(steps)[ts]),
                                            len(range(samples)[ss]))
                sizes.append(values.size)
            # a block never exceeds the budget, or one frame when larger
            assert max(sizes) == k * s * frame <= max(budget, frame)
            assert len(sizes) == -(-steps // k) * -(-samples // s)
            # whole batches are blocked over time, larger ones chunked
            assert s == samples or k == 1
            assert max(sizes) > budget // 2 or (k == steps
                                                and s == samples)


class TestPhaseBlocks:
    LEVELS = BandFlow(torus(512), 128, 2.5)._levels   # up to 128^2.5

    @pytest.mark.parametrize("k", [1, 7, 128, 5000],
                             ids=["one-step", "ragged-7", "ragged-128",
                                  "one-block"])
    def test_tabled_phases_match_flow_phase(self, k):
        times = np.linspace(-0.3, 0.9, 3001)
        blocks = list(geometry._phase_blocks(times, self.LEVELS, k))
        assert [ts for ts, _ in blocks] == [
            slice(t, min(t + k, len(times))) for t in range(0, 3001, k)]
        for ts, phase in blocks:
            exact = flow_phase(times[ts, None], self.LEVELS)
            assert np.max(np.abs(phase - exact)) <= 4e-15
        # the rounding gaps of this grid matter: without the first-order
        # correction the table is off by far more than roundoff
        h = 1.2 / 3000
        table = flow_phase(np.arange(128)[:, None] * h, self.LEVELS)
        bare = table[:, None] * flow_phase(times[::128, None], self.LEVELS)
        bare = bare.transpose(1, 0, 2).reshape(-1, len(self.LEVELS))[:3001]
        assert np.max(np.abs(bare - flow_phase(times[:, None],
                                               self.LEVELS))) > 1e-11

    def test_one_exact_phase_per_block(self, monkeypatch):
        # exact reductions: the table of k times plus one time per block
        reduced = []
        frac = geometry._frac_product
        monkeypatch.setattr(geometry, "_frac_product", lambda t, sym: (
            reduced.append(np.broadcast(t, sym).size) or frac(t, sym)))
        times = np.linspace(-0.3, 0.9, 3001)
        for _ in geometry._phase_blocks(times, self.LEVELS, 128):
            pass
        assert sum(reduced) == (128 + 24) * len(self.LEVELS)

    @pytest.mark.parametrize("times, theta", [
        (np.array([0.0, 0.3, 1.7]), 2.5),
        (np.linspace(-0.3, 0.9, 301), 6.0),
    ], ids=["non-uniform", "huge-levels"])
    def test_fallback_is_flow_phase(self, times, theta):
        levels = BandFlow(torus(512), 128, theta)._levels
        [(ts, phase)] = geometry._phase_blocks(times, levels, len(times))
        assert ts == slice(0, len(times))
        assert np.array_equal(phase, flow_phase(times[:, None], levels))

    def test_single_time(self):
        [(ts, phase)] = geometry._phase_blocks(np.array([0.37]),
                                               self.LEVELS, 4)
        assert ts == slice(0, 1)
        assert np.array_equal(phase, flow_phase(0.37, self.LEVELS)[None])


class TestGridMultiplier:
    @staticmethod
    def slow_twin(m, values, geom):
        coef = forward_transform(values, geom)
        return inverse_transform(m * coef, geom)

    @pytest.mark.parametrize("geom", [
        pytest.param(torus((4, 8)), id="torus-2d"),
        pytest.param(waveguide(4, 8, trunc_length=2.0), id="waveguide"),
    ])
    def test_matches_transform_pair_on_two_axes(self, geom):
        rng = np.random.default_rng(41)
        shape = geom.grid_sizes
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        M = GridMultiplier(geom, m)

        batch = rng.standard_normal((3,) + shape) \
            + 1j * rng.standard_normal((3,) + shape)
        fast = M(batch)
        for f, got in zip(batch, fast):
            assert np.max(np.abs(got - self.slow_twin(m, f, geom))) < 1e-12

        n = int(np.prod(shape))
        D = np.stack([self.slow_twin(m, e.reshape(shape), geom).ravel()
                      for e in np.eye(n)], axis=1)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = D @ A @ D.conj().T
        assert np.max(np.abs(sandwich(M, A) - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("geom", [
    pytest.param(torus(32), id="torus"),
    pytest.param(torus((8, 16)), id="torus-2d"),
    pytest.param(waveguide(16, 8, trunc_length=3.0), id="waveguide"),
])
def test_multipliers_match_transform_pair(geom):
    # slow twin of the one-round-trip multipliers: forward transform,
    # multiply on the centered lattice, inverse transform
    f = random_field(geom, seed=37)

    def twin(m):
        return inverse_transform(forward_transform(f, geom) * m, geom)

    sym = fractional_symbol(geom, 2.5)
    cases = [(propagate(f, geom, 0.3, 2.5), twin(flow_phase(0.3, sym))),
             (project_leq(f, geom, 3), twin(_band_multiplier(geom, 3)))]
    cases += [(littlewood_paley(f, geom, k),
               twin(_band_multiplier(geom, 2 ** k))
               - twin(_band_multiplier(geom, 2 ** (k - 1)))) for k in (1, 2)]
    for got, want in cases:
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


class TestProjectors:
    def test_mode_inside_band_unchanged(self):
        geom = torus(32)
        f = plane_wave(geom, 3)
        out = project_leq(f, geom, 4)
        assert np.max(np.abs(out - f)) < 1e-13

    def test_mode_outside_smooth_support_killed(self):
        geom = waveguide(32, 8, trunc_length=1.0)
        # mode at |xi| = 9 > 2N on the free axis
        x = geom.axis_coordinates(0)[:, None]
        f = np.exp(2j * np.pi * 9 * x) * np.ones((32, 8))
        out = project_leq(f, geom, 4)
        assert np.max(np.abs(out)) < 1e-13

    def test_sharp_indicator_cutoff(self):
        geom = torus(32)
        coef = np.zeros(32, dtype=complex)
        freqs = geom.axis_frequencies(0)
        coef[np.abs(freqs) <= 8] = 1.0
        f = inverse_transform(coef, geom)
        out_coef = forward_transform(project_leq(f, geom, 4), geom)
        expected = np.where(np.abs(freqs) <= 4, 1.0, 0.0)
        assert np.max(np.abs(out_coef - expected)) < 1e-12

    def test_idempotent_on_torus(self):
        geom = torus(64)
        f = random_field(geom, seed=17)
        once = project_leq(f, geom, 8)
        twice = project_leq(once, geom, 8)
        assert np.max(np.abs(once - twice)) < 1e-13

    def test_waveguide_reprojection_consistency(self):
        # P_{<=2N} P_{<=N} = P_{<=N}: support of eta(./N) sits where eta(./2N)=1
        geom = waveguide(64, 16, trunc_length=4.0)
        f = random_field(geom, seed=19)
        a = project_leq(f, geom, 4)
        b = project_leq(a, geom, 8)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_nyquist_zeroed(self):
        geom = torus(16)
        x = geom.axis_coordinates(0)
        f = np.exp(2j * np.pi * (-8) * x)  # pure Nyquist mode
        out = project_leq(f, geom, 8)
        assert np.max(np.abs(out)) < 1e-13


class TestLittlewoodPaley:
    def test_lowest_block_is_unit_cutoff(self):
        geom = torus(32)
        f = random_field(geom, seed=23)
        b0 = littlewood_paley(f, geom, 0)
        p1 = project_leq(f, geom, 1)
        assert np.array_equal(b0, p1)

    def test_single_mode_lands_in_unique_block(self):
        geom = torus(64)
        f = plane_wave(geom, 8)
        for k in range(6):
            block = littlewood_paley(f, geom, k)
            mag = np.max(np.abs(block))
            if k == 3:  # 2^{k-1} < 8 <= 2^k
                assert mag > 0.99
            else:
                assert mag < 1e-13

    def test_zero_field_all_blocks_zero(self):
        geom = torus(16)
        f = np.zeros(16)
        for k in range(5):
            assert np.all(littlewood_paley(f, geom, k) == 0)

    @pytest.mark.parametrize("geom", [torus(64), waveguide(32, 16, trunc_length=4.0)])
    def test_telescoping(self, geom):
        f = random_field(geom, seed=29)
        K = 3
        total = np.zeros(geom.grid_sizes, dtype=complex)
        for k in range(K + 1):
            total = total + littlewood_paley(f, geom, k)
        direct = project_leq(f, geom, 2 ** K)
        assert np.max(np.abs(total - direct)) < 1e-13 * max(1.0, np.max(np.abs(direct)))

    def test_blocks_orthogonal_on_torus(self):
        geom = torus(64)
        f = random_field(geom, seed=31)
        b2 = littlewood_paley(f, geom, 2)
        b4 = littlewood_paley(f, geom, 4)
        inner = np.vdot(b2, b4) * geom.cell_volume
        assert abs(inner) < 1e-13


class TestEta1:
    def test_plateau_and_support(self):
        xs = np.linspace(-3, 3, 601)
        vals = eta1(xs)
        assert np.all(vals[np.abs(xs) <= 1.0] == 1.0)
        assert np.all(vals[np.abs(xs) >= 2.0] == 0.0)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_even(self):
        xs = np.linspace(0, 3, 100)
        assert np.allclose(eta1(xs), eta1(-xs))
