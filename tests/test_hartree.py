import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from strichartz_lab import geometry, hartree
from strichartz_lab.errors import (CapacityError, InvalidInputError,
                                   NumericFailureError)
from strichartz_lab.geometry import (
    GridMultiplier,
    fractional_symbol,
    inverse_transform,
    propagate,
    torus,
    waveguide,
)
from strichartz_lab.hartree import (
    DensityState,
    OperatorPath,
    PotentialSpec,
    _kinetic,
    _potential,
    duhamel_map,
    evolve,
    fixed_point_iterate,
    free_path,
    hartree_energy,
    split_step,
)
from strichartz_lab.norms import besov_sup_norm, lq_norm
from strichartz_lab.ons import generate_ons


def ons_state(geom, M, N, theta, weights, seed=None):
    if seed is None:
        fam = generate_ons("fourier-modes", M, N, geom)
    else:
        fam = generate_ons("random-band", M, N, geom, seed=seed)
    from strichartz_lab.geometry import _band_multiplier
    mask = _band_multiplier(geom, N) == 1.0
    members = []
    for row in fam:
        coef = np.zeros(geom.grid_sizes, dtype=complex)
        coef[mask] = row
        members.append(inverse_transform(coef, geom))
    return DensityState(np.stack(members), np.asarray(weights, dtype=float),
                        geom, theta)


YUKAWA = PotentialSpec("yukawa", a=1.0)
ZERO = PotentialSpec("zero")


class TestPotential:
    def test_identity_multiplier_is_noop(self):
        geom = torus(32)
        rng = np.random.default_rng(0)
        rho = np.abs(rng.standard_normal(32))
        out = _potential(PotentialSpec("identity"), geom)(rho).real
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_mean_only_multiplier(self):
        # a gaussian so wide that only the xi = 0 weight survives
        geom = torus(32)
        rng = np.random.default_rng(1)
        rho = np.abs(rng.standard_normal(32))
        out = _potential(PotentialSpec("gaussian", sigma_w=50.0), geom)(
            rho).real
        mean = np.sum(rho) * geom.cell_volume
        assert np.max(np.abs(out - mean)) < 1e-12

    def test_yukawa_on_cosine(self):
        geom = torus(64)
        x = geom.axis_coordinates(0)
        rho = np.cos(2 * np.pi * x)
        out = _potential(YUKAWA, geom)(rho).real
        # modes +-1 are scaled by (1 + 1)^(-1) = 1/2
        assert np.max(np.abs(out - 0.5 * np.cos(2 * np.pi * x))) < 1e-12

    def test_multiplier_real_even(self):
        geom = torus(32)
        for spec in (YUKAWA, PotentialSpec("gaussian", sigma_w=2.0),
                     PotentialSpec("cosine", k0=3)):
            w = inverse_transform(spec.multiplier(geom), geom)
            assert np.max(np.abs(w.imag)) < 1e-12
            assert np.array_equal(spec.field(geom), w.real)
            # even: w(x) = w(-x) on the periodic grid
            vals = w.real
            assert np.max(np.abs(vals[1:] - vals[1:][::-1])) < 1e-12

    def test_yukawa_guard(self):
        with pytest.raises(InvalidInputError):
            PotentialSpec("yukawa", a=0.0)

    def test_besov_metadata(self):
        # cosine at mode 8: single block k = 3, norm 2^{3s} / sqrt(2)
        geom = torus(64)
        w = PotentialSpec("cosine", k0=8)
        assert besov_sup_norm(w.field(geom), geom, 1.0, 2.0) == \
            pytest.approx(8.0 / np.sqrt(2), rel=1e-10)
        yuk = PotentialSpec("yukawa", a=1.0)
        wg = waveguide(32, 8, trunc_length=4.0)
        assert besov_sup_norm(yuk.field(wg), wg, 0.5, 2.0) > 0


class TestSplitStep:
    def test_zero_potential_is_free_flight(self):
        geom = torus(64)
        st = ons_state(geom, 3, 4, 2.5, [0.5, 0.3, 0.2], seed=2)
        dt = 0.01
        stepped = split_step(st, dt, ZERO)
        free = _kinetic(geom, 2.5, dt)(st.members)
        assert np.max(np.abs(stepped.members - free)) < 1e-13
        # pinned convention: free flight over dt = package flow at -dt/(2 pi)
        assert np.array_equal(
            free, propagate(st.members, geom, -dt / (2 * np.pi), 2.5))
        for u, v in zip(st.members, free):
            assert np.array_equal(
                propagate(u, geom, -dt / (2 * np.pi), 2.5), v)

    @pytest.mark.parametrize("geom", [
        torus(64), torus((8, 16)), waveguide(16, 8, trunc_length=3.0)],
        ids=["1d", "2d", "waveguide"])
    def test_kinetic_is_the_package_flow(self, geom):
        # one multiplier: free flight over dt is propagate at -dt/(2 pi),
        # on the (M, *grid) batch and member by member, bit for bit
        theta, dt = 2.5, 0.037
        rng = np.random.default_rng(5)
        members = rng.standard_normal((3,) + geom.grid_sizes) \
            + 1j * rng.standard_normal((3,) + geom.grid_sizes)
        t = -dt / (2 * np.pi)
        assert _kinetic(geom, theta, dt) is geometry._flow(geom, theta, t)
        free = _kinetic(geom, theta, dt)(members)
        assert np.array_equal(free, propagate(members, geom, t, theta))
        for u, v in zip(members, free):
            assert np.array_equal(propagate(u, geom, t, theta), v)

    def test_identity_at_zero_dt(self):
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [0.6, 0.4], seed=3)
        assert split_step(st, 0.0, YUKAWA) is st

    def test_local_order_via_step_halving(self):
        # single member: one dt step vs two dt/2 steps -> O(dt^3) local gap
        geom = torus(64)
        st = ons_state(geom, 1, 4, 2.0, [1.0], seed=4)
        w = PotentialSpec("cosine", k0=1)
        gaps = []
        for dt in (2e-2, 1e-2, 5e-3):
            one = split_step(st, dt, w)
            two = split_step(split_step(st, dt / 2, w), dt / 2, w)
            gaps.append(np.max(np.abs(one.members - two.members)))
        # halving dt shrinks the local gap by ~8
        assert gaps[0] / gaps[1] > 6.0
        assert gaps[1] / gaps[2] > 6.0

    def test_mass_and_gram_exactly_conserved(self):
        geom = torus(64)
        st = ons_state(geom, 4, 6, 2.0, [0.4, 0.3, 0.2, 0.1], seed=5)
        cur = st
        for _ in range(100):
            cur = split_step(cur, 1e-2, YUKAWA)
        assert np.max(np.abs(np.diag(cur.gram() - st.gram()))) < 1e-12
        assert np.linalg.norm(cur.gram() - st.gram(), ord=2) < 1e-10


class TestEnergy:
    def test_single_mode_kinetic(self):
        geom = torus(32)
        x = geom.axis_coordinates(0)
        for n, theta in [(1, 2.0), (3, 3.0), (2, 2.5)]:
            st = DensityState(np.exp(2j * np.pi * n * x)[None], [1.0],
                              geom, theta)
            assert hartree_energy(st, ZERO) == pytest.approx(
                abs(n) ** theta, rel=1e-12)

    def test_zero_weights_zero_energy(self):
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [0.0, 0.0], seed=6)
        assert hartree_energy(st, YUKAWA) == pytest.approx(0.0, abs=1e-14)

    def test_against_direct_quadrature_oracle(self):
        geom = torus(16)
        st = ons_state(geom, 2, 4, 2.0, [0.7, 0.3], seed=7)
        # independent route: explicit DFT sums and explicit convolution
        x = geom.axis_coordinates(0)
        freqs = geom.axis_frequencies(0)
        kinetic = 0.0
        for j, lam in enumerate(st.weights):
            coef = np.array([np.sum(st.members[j] * np.exp(-2j * np.pi * xi * x))
                             * geom.cell_volume for xi in freqs])
            kinetic += lam * np.sum(np.abs(freqs) ** 2.0 * np.abs(coef) ** 2)
        rho = st.density()
        rho_hat = np.array([np.sum(rho * np.exp(-2j * np.pi * xi * x))
                            * geom.cell_volume for xi in freqs])
        conv = np.zeros(16, dtype=complex)
        for xi, c in zip(freqs, rho_hat):
            conv += (1 + xi ** 2) ** -1.0 * c * np.exp(2j * np.pi * xi * x)
        potential = 0.5 * np.sum(conv.real * rho) * geom.cell_volume
        expected = kinetic + potential
        assert hartree_energy(st, YUKAWA) == pytest.approx(expected, rel=1e-10)


def stepwise_evolve(state, T, dt, w, q_report=2.0):
    """Slow twin of ``evolve``: the member block in physical space, one
    Strang step of six FFTs at a time and every diagnostic recomputed per
    step.  Returns (times, mass, gram deviation, energy, rho norm, final
    members)."""
    geom, vol = state.geometry, state.geometry.cell_volume
    axes = tuple(range(1, geom.dim + 1))
    half = _kinetic(geom, state.theta, 0.5 * dt)
    potential = _potential(w, geom)
    phi = GridMultiplier(geom, fractional_symbol(geom, state.theta))
    steps = int(round(T / dt))
    gram0 = state.gram()
    u = state.members
    rows = []
    for i in range(steps + 1):
        if i:
            u = half(u)
            rho = np.tensordot(state.weights, np.abs(u) ** 2, axes=(0, 0))
            u = half(u * np.exp(-1j * dt * potential(rho).real)[None])
        flat = u.reshape(len(u), -1)
        rho = np.tensordot(state.weights, np.abs(u) ** 2, axes=(0, 0))
        kinetic = state.weights @ np.sum(u.conj() * phi(u), axis=axes).real
        rows.append((np.sum(np.abs(u) ** 2, axis=axes) * vol,
                     np.linalg.norm(flat.conj() @ flat.T * vol - gram0, ord=2),
                     (kinetic + 0.5 * np.sum(potential(rho).real * rho)) * vol,
                     lq_norm(rho, q_report, vol)))
    mass, gram, energy, rho_norm = (np.array(c) for c in zip(*rows))
    return dt * np.arange(steps + 1), mass, gram, energy, rho_norm, u


class TestEvolve:
    @pytest.mark.parametrize("geom, M, N, q, block, T", [
        # the natural block: 512 steps of 4 x 32 (1300 steps in all) and
        # 341 steps of 3 x 8 x 8 (750 steps); the last block is partial
        (torus(32), 4, 4, 2.0, None, 1.3),
        (torus((8, 8)), 3, 2, 3.0, None, 0.75),
        # blocks of 7 steps
        (torus((8, 8)), 3, 2, 4.0, 7, 0.04),
    ], ids=["1d", "2d", "2d-blocks-of-7"])
    def test_against_stepwise_twin(self, monkeypatch, geom, M, N, q, block,
                                   T):
        n = int(np.prod(geom.grid_sizes))
        if block is not None:
            monkeypatch.setattr(hartree, "_BLOCK_ELEMENTS", block * M * n)
        st = ons_state(geom, M, N, 2.0, [0.4, 0.3, 0.2, 0.1][:M], seed=14)
        w = PotentialSpec("yukawa", a=0.5)
        rec = evolve(st, T, 1e-3, w, q_report=q)
        times, mass, gram, energy, rho_norm, final = stepwise_evolve(
            st, T, 1e-3, w, q)
        assert np.array_equal(rec.times, times)
        assert np.max(np.abs(rec.member_mass - mass)) < 1e-12
        assert np.max(np.abs(rec.gram_deviation - gram)) < 1e-12
        assert np.max(np.abs(rec.energy - energy)) < 1e-12
        assert np.max(np.abs(rec.rho_norm - rho_norm)) < 1e-12
        assert np.max(np.abs(rec.final_state.members - final)) < 1e-12

    @pytest.mark.parametrize("geom", [torus(32), torus((8, 8))],
                             ids=["1d", "2d"])
    def test_zero_potential_is_free_flight(self, monkeypatch, geom):
        monkeypatch.setattr(hartree, "_BLOCK_ELEMENTS",
                            5 * 3 * int(np.prod(geom.grid_sizes)))
        st = ons_state(geom, 3, 2, 2.5, [0.5, 0.3, 0.2], seed=15)
        rec = evolve(st, 0.23, 1e-2, ZERO)

        def free(t):
            return DensityState(_kinetic(geom, st.theta, t)(st.members),
                                st.weights, geom, st.theta)

        for t, e in zip(rec.times, rec.energy):
            assert e == pytest.approx(hartree_energy(free(t), ZERO),
                                      rel=1e-12)
        assert np.max(np.abs(rec.final_state.members
                             - free(0.23).members)) < 1e-12

    def test_non_finite_potential_fails_at_first_step(self, monkeypatch):
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [0.6, 0.4], seed=16)
        monkeypatch.setattr(hartree, "_potential", lambda w, g: GridMultiplier(
            g, np.full(g.grid_sizes, np.nan)))
        with pytest.raises(NumericFailureError, match="at step 1$") as exc:
            evolve(st, 0.05, 1e-2, YUKAWA)
        best = exc.value.best
        assert len(best.times) == 1 and best.member_mass.shape == (1, 2)
        assert np.max(np.abs(best.final_state.members - st.members)) < 1e-15

    @pytest.mark.parametrize("fail_at", [2, 9, 12, 13])
    def test_non_finite_step_keeps_the_steps_before(self, monkeypatch,
                                                    fail_at):
        # blocks of 4 steps: the failure lands mid-block, on a block's
        # first step and on the step after a flush
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [0.6, 0.4], seed=17)
        monkeypatch.setattr(hartree, "_BLOCK_ELEMENTS", 4 * st.members.size)
        full = evolve(st, 0.2, 1e-2, YUKAWA)
        strang, calls = hartree._strang, []

        def failing(c, *args):
            calls.append(1)
            out = strang(c, *args)
            return out * np.nan if len(calls) == fail_at else out

        monkeypatch.setattr(hartree, "_strang", failing)
        with pytest.raises(NumericFailureError,
                           match=f"at step {fail_at}$") as exc:
            evolve(st, 0.2, 1e-2, YUKAWA)
        best = exc.value.best
        assert len(best.times) == fail_at
        for name in ("times", "member_mass", "gram_deviation", "energy",
                     "rho_norm"):
            assert np.array_equal(getattr(best, name),
                                  getattr(full, name)[:fail_at])
        before = evolve(st, (fail_at - 1) * 1e-2, 1e-2, YUKAWA)
        assert np.max(np.abs(best.final_state.members
                             - before.final_state.members)) < 1e-15

    def test_memory_below_one_trajectory(self):
        # the block buffer holds at most _BLOCK_ELEMENTS coefficients
        # (1 MiB), never the trajectory: 2000 steps x 4 x 64 x 16 B = 8 MiB
        geom, steps = torus(64), 2000
        st = ons_state(geom, 4, 4, 2.0, [0.4, 0.3, 0.2, 0.1], seed=18)
        tracemalloc.start()
        try:
            evolve(st, 1.0, 1.0 / steps, YUKAWA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * steps * st.members.size * 16

    def test_free_flow_diagnostics_static(self):
        # lattice-mode members are flow eigenfunctions: every diagnostic,
        # density profile included, is time-translation invariant
        geom = torus(32)
        st = ons_state(geom, 3, 4, 3.0, [0.5, 0.3, 0.2])
        rec = evolve(st, 0.1, 1e-2, ZERO)
        assert rec.energy_drift < 1e-12
        assert rec.mass_deviation < 1e-13
        assert np.max(np.abs(rec.rho_norm - rec.rho_norm[0])) < 1e-12

    def test_free_flow_energy_conserved_generic(self):
        geom = torus(32)
        st = ons_state(geom, 3, 4, 3.0, [0.5, 0.3, 0.2], seed=8)
        rec = evolve(st, 0.1, 1e-2, ZERO)
        assert rec.energy_drift < 1e-11

    def test_conservation_budget(self):
        geom = torus(32)
        st = ons_state(geom, 4, 4, 2.0, [0.4, 0.3, 0.2, 0.1])
        rec = evolve(st, 0.2, 1e-3, YUKAWA)
        assert rec.mass_deviation < 1e-10
        assert rec.max_gram_deviation < 1e-9
        assert rec.energy_drift < 1e-6

    def test_energy_drift_second_order(self):
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [0.6, 0.4], seed=9)
        d1 = evolve(st, 0.2, 2e-3, YUKAWA).energy_drift
        d2 = evolve(st, 0.2, 1e-3, YUKAWA).energy_drift
        assert d1 / d2 > 3.5

    def test_zero_weights_frozen_density(self):
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [0.0, 0.0], seed=10)
        rec = evolve(st, 0.05, 1e-2, YUKAWA)
        assert np.max(rec.rho_norm) == 0.0

    def test_step_mismatch_rejected(self):
        geom = torus(32)
        st = ons_state(geom, 1, 2, 2.0, [1.0])
        with pytest.raises(InvalidInputError):
            evolve(st, 0.05, 0.2, YUKAWA)


def path_matrix(path, i):
    """The dense matrix V^T diag(lam) conj(V) of node i of an operator path."""
    V = path.members[i]
    return (V.T * path.weights[i]) @ V.conj()


def state_matrix(state):
    """gamma of a density state as a matrix on grid samples (cell volume
    folded in)."""
    flat = state.members.reshape(state.size, -1)
    return (flat.T * state.weights) @ flat.conj() * state.geometry.cell_volume


def dense_truncation_duhamel(path, gamma0, w, rank):
    """The dense route of the factored map: the same integrand and
    trapezoid, accumulated as an n x n matrix, truncated by an n x n eigh
    to the ``rank`` eigendirections of largest |eigenvalue|; the density
    film is the diagonal of each truncated matrix."""
    geom = gamma0.geometry
    n = int(np.prod(geom.grid_sizes))
    rows = (-1,) + geom.grid_sizes
    times = path.times
    h = times[1] - times[0]
    potential = _potential(w, geom)
    g0 = state_matrix(gamma0)
    integ = np.zeros_like(g0)
    prev = None
    weights, members, mass, dens = [], [], [], []
    for i in range(len(times)):
        pot = potential(path.rho[i]).real.ravel()
        V = path.members[i]
        t = float(times[i] - times[0])
        A, B = _kinetic(geom, gamma0.theta, -t)(
            np.concatenate([pot * V, V]).reshape(rows)).reshape(2, -1, n)
        AB = (A.T * path.weights[i]) @ B.conj()
        w_i = AB - AB.conj().T
        if prev is not None:
            integ = integ + 0.5 * h * (prev + w_i)
        prev = w_i
        mat = g0 - 1j * integ
        vals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        order = np.argsort(-np.abs(vals))
        weights.append(vals[order[:rank]])
        members.append(_kinetic(geom, gamma0.theta, t)(
            vecs[:, order[:rank]].T.reshape(rows)).reshape(-1, n))
        mass.append(float(np.sum(np.abs(vals[order[rank:]]))))
        V = members[-1]
        dens.append(((V.T * weights[-1]) @ V.conj()).diagonal().real
                    .reshape(geom.grid_sizes) / geom.cell_volume)
    return OperatorPath(times, weights, members, geom, np.array(mass),
                        np.stack(dens))


def dense_duhamel_oracle(path, gamma0, w):
    """Independent dense-matrix route: explicit propagator matrices (the
    Kronecker product of the per-axis DFT matrices), plain trapezoid, no
    interaction picture, no truncation, no factors."""
    geom = gamma0.geometry
    n = int(np.prod(geom.grid_sizes))
    F = Finv = np.ones((1, 1))
    for ax in range(geom.dim):
        x = geom.axis_coordinates(ax)
        freqs = geom.axis_frequencies(ax)
        F = np.kron(F, np.exp(-2j * np.pi * np.outer(freqs, x)))
        Finv = np.kron(Finv, np.exp(2j * np.pi * np.outer(x, freqs)))
    F = F * geom.cell_volume
    mesh = np.meshgrid(*[geom.axis_frequencies(ax) for ax in range(geom.dim)],
                       indexing="ij")
    phi = (sum(m ** 2 for m in mesh) ** (gamma0.theta / 2)).ravel()

    def U(t):
        return Finv @ np.diag(np.exp(-1j * t * phi)) @ F

    wmult = w.multiplier(geom).ravel()
    times = path.times
    h = times[1] - times[0]
    g0 = state_matrix(gamma0)
    out = []
    for i, t in enumerate(times):
        acc = np.zeros((n, n), dtype=complex)
        for j in range(i + 1):
            rho_hat = F @ path.rho[j].ravel()
            pot = (Finv @ (wmult * rho_hat)).real
            g_j = path_matrix(path, j)
            comm = np.diag(pot) @ g_j - g_j @ np.diag(pot)
            wgt = h * (0.5 if j in (0, i) else 1.0) if i > 0 else 0.0
            prop = U(t - times[j])
            acc += wgt * (prop @ comm @ prop.conj().T)
        out.append(U(t) @ g0 @ U(t).conj().T - 1j * acc)
    return out


def two_member_state(geom, weights, seed):
    # band 4 in 1-D; band 2 (25 modes) fits the 8x8 grid
    return ons_state(geom, 2, 4 if geom.dim == 1 else 2, 2.0, weights,
                     seed=seed)


def check_zero_potential_fixed_point(geom, seed):
    st = two_member_state(geom, [0.6, 0.4], seed)
    path = free_path(st, 0.05, 6)
    new_path = duhamel_map(path, st, ZERO, rank=8)
    for i in range(6):
        assert np.max(np.abs(path_matrix(new_path, i)
                             - path_matrix(path, i))) < 1e-12
    assert np.max(np.abs(new_path.rho - path.rho)) < 1e-12


def check_zero_path_free_conjugation(geom, seed):
    n = int(np.prod(geom.grid_sizes))
    st = two_member_state(geom, [0.6, 0.4], seed)
    times = np.linspace(0.0, 0.05, 6)
    # the zero operator, carrying a density film unrelated to it
    any_rho = np.abs(np.random.default_rng(0).standard_normal(
        (6,) + geom.grid_sizes))
    zero_path = OperatorPath(
        times, [np.zeros(1) for _ in times],
        [np.zeros((1, n), dtype=complex) for _ in times], geom,
        np.zeros(6), any_rho)
    new_path = duhamel_map(zero_path, st, YUKAWA, rank=8)
    free = free_path(st, 0.05, 6)
    for i in range(6):
        assert np.max(np.abs(path_matrix(new_path, i)
                             - path_matrix(free, i))) < 1e-12


def check_dense_matrix_oracle(geom, seed):
    st = two_member_state(geom, [0.06, 0.04], seed)
    path = free_path(st, 0.05, 9)
    new_path = duhamel_map(path, st, YUKAWA, rank=8)
    oracle = dense_duhamel_oracle(path, st, YUKAWA)
    for i in range(9):
        assert np.max(np.abs(path_matrix(new_path, i) - oracle[i])) < 1e-8
    # truncation at rank 4M barely bites at this coupling
    assert np.max(new_path.truncation_mass) < 1e-8


def check_dense_truncation(geom, members, weights, rank):
    # the free path and the first iterate, at a coupling where the
    # integral is far above roundoff
    st = ons_state(geom, members, 4 if geom.dim == 1 else 2, 2.0, weights,
                   seed=13)
    path = free_path(st, 0.5, 9)
    masses = []
    for _ in range(2):
        new_path = duhamel_map(path, st, YUKAWA, rank)
        dense = dense_truncation_duhamel(path, st, YUKAWA, rank)
        for i in range(9):
            assert np.max(np.abs(path_matrix(new_path, i)
                                 - path_matrix(dense, i))) < 1e-12
        assert np.max(np.abs(new_path.truncation_mass
                             - dense.truncation_mass)) < 1e-12
        assert np.max(np.abs(new_path.rho - dense.rho)) < 1e-12
        masses.append(np.max(dense.truncation_mass))
        path = new_path
    return masses


class TestDuhamel:
    def test_zero_potential_fixed_point_immediately(self):
        check_zero_potential_fixed_point(torus(32), 11)

    def test_zero_gamma_path_gives_free_conjugation(self):
        check_zero_path_free_conjugation(torus(32), 12)

    def test_against_dense_matrix_oracle(self):
        check_dense_matrix_oracle(torus(32), 13)

    def test_zero_potential_fixed_point_immediately_2d(self):
        check_zero_potential_fixed_point(torus((8, 8)), 11)

    def test_zero_gamma_path_gives_free_conjugation_2d(self):
        check_zero_path_free_conjugation(torus((8, 8)), 12)

    def test_against_dense_matrix_oracle_2d(self):
        check_dense_matrix_oracle(torus((8, 8)), 13)

    @pytest.mark.parametrize("geom", [torus(32), torus((8, 8))],
                             ids=["1d", "2d"])
    def test_against_dense_truncation(self, geom):
        # the default rank cap 4M barely bites
        masses = check_dense_truncation(geom, 4, [0.4, 0.3, 0.2, 0.1], 16)
        assert max(masses) < 1e-5

    @pytest.mark.parametrize("geom", [torus(32), torus((8, 8))],
                             ids=["1d", "2d"])
    def test_against_dense_truncation_rank_cap_bites(self, geom):
        # rank 3 against 4 members drops the fourth (weight 0.1) and more
        masses = check_dense_truncation(geom, 4, [0.4, 0.3, 0.2, 0.1], 3)
        assert min(masses) > 0.05

    def test_basis_never_exceeds_grid(self, monkeypatch):
        # on an 8-point grid the folded columns [Q X] outgrow the grid
        geom = torus(8)
        n = 8
        st = ons_state(geom, 3, 2, 2.0, [0.3, 0.2, 0.1], seed=19)
        path = free_path(st, 0.5, 6)
        widths = []
        qr = np.linalg.qr

        def recording_qr(a, *args, **kwargs):
            out = qr(a, *args, **kwargs)
            widths.append((a.shape[1], out[0].shape[1]))
            return out

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        for _ in range(2):
            path = duhamel_map(path, st, YUKAWA, rank=n)
        assert max(cols for cols, _ in widths) > n
        assert max(basis for _, basis in widths) <= n
        assert all(len(lam) <= n for lam in path.weights)

    def test_no_grid_sized_eigh(self, monkeypatch):
        # 2-D: every eigh acts on the small core, never on an n x n matrix
        geom = torus((8, 8))
        st = two_member_state(geom, [0.6, 0.4], 13)
        path = free_path(st, 0.5, 9)
        sizes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        for _ in range(2):
            path = duhamel_map(path, st, YUKAWA, rank=8)
        assert sizes and max(sizes) < 64

    def test_rank_cap_guard(self):
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [0.6, 0.4], seed=14)
        path = free_path(st, 0.05, 4)
        with pytest.raises(CapacityError):
            duhamel_map(path, st, YUKAWA, rank=64)

    def test_default_rank_capped_at_grid(self):
        # 4M = 12 directions exceed the 8 grid points: keep all of them
        geom = torus(8)
        st = ons_state(geom, 3, 2, 2.0, [0.03, 0.02, 0.01], seed=19)
        result = fixed_point_iterate(st, YUKAWA, 0.05, 3, 4.0, 2.0,
                                     time_pts=6)
        assert len(result.path.weights[-1]) == 8
        assert np.max(result.path.truncation_mass) == 0.0


class TestFixedPoint:
    def test_zero_potential_residual_collapses(self):
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [0.6, 0.4], seed=15)
        result = fixed_point_iterate(st, ZERO, 0.05, 3, 4.0, 2.0)
        assert result.iterates[0][0] < 1e-10

    def test_small_data_contracts(self):
        geom = torus(32)
        st = ons_state(geom, 4, 4, 2.0, [0.04, 0.03, 0.02, 0.01], seed=16)
        result = fixed_point_iterate(st, YUKAWA, 0.05, 6, 4.0, 2.0)
        assert result.contractive and not result.diverged
        ratios = [r for _, r in result.iterates if r is not None]
        assert all(r < 0.5 for r in ratios)

    def test_holds_only_the_last_path(self, monkeypatch):
        # of the paths the map returns, only the last one outlives the
        # iteration
        made = []

        def recording(*args, **kwargs):
            out = duhamel_map(*args, **kwargs)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(hartree, "duhamel_map", recording)
        geom = torus(32)
        # data large enough that no residual reaches the roundoff floor
        st = ons_state(geom, 4, 4, 2.0, [4.0, 3.0, 2.0, 1.0], seed=16)
        result = fixed_point_iterate(st, YUKAWA, 0.05, 6, 4.0, 2.0)
        gc.collect()
        assert len(made) == len(result.iterates) == 6
        alive = [ref() for ref in made if ref() is not None]
        assert len(alive) == 1 and alive[0] is result.path

    def test_large_data_long_horizon_flagged(self):
        geom = torus(32)
        st = ons_state(geom, 2, 4, 2.0, [40.0, 30.0], seed=17)
        result = fixed_point_iterate(st, YUKAWA, 5.0, 8, 4.0, 2.0,
                                     time_pts=21)
        assert result.diverged or not result.contractive

    def test_requires_density_line(self):
        geom = torus(32)
        st = ons_state(geom, 1, 2, 2.0, [1.0])
        with pytest.raises(InvalidInputError):
            fixed_point_iterate(st, YUKAWA, 0.05, 3, 3.0, 5.0)

    def test_window_monotone_under_data_halving(self):
        # the largest contractive horizon found by bisection never shrinks
        # when the initial data is halved
        geom = torus(32)

        def largest_contractive_T(scale, lo=0.02, hi=6.0, steps=6):
            st = ons_state(geom, 2, 4, 2.0,
                           np.array([12.0, 8.0]) * scale, seed=21)
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                res = fixed_point_iterate(st, YUKAWA, mid, 5, 4.0, 2.0,
                                          time_pts=11)
                if res.contractive and not res.diverged:
                    lo = mid
                else:
                    hi = mid
            return lo

        t_full = largest_contractive_T(1.0)
        t_half = largest_contractive_T(0.5)
        assert t_half >= t_full

    def test_cross_validation_with_split_step(self):
        # same continuum system, two unrelated discretizations
        geom = torus(32)
        st = ons_state(geom, 2, 3, 2.0, [0.06, 0.04], seed=18)
        T, nt = 0.05, 11
        result = fixed_point_iterate(st, YUKAWA, T, 6, 4.0, 2.0, time_pts=nt)
        dt = T / ((nt - 1) * 20)
        cur = st
        worst = 0.0
        for i in range(1, nt):
            for _ in range(20):
                cur = split_step(cur, dt, YUKAWA)
            diff = cur.density() - result.path.rho[i]
            worst = max(worst, np.sqrt(np.sum(diff ** 2) * geom.cell_volume))
        assert worst < 1e-4
