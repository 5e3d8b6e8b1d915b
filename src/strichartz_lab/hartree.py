"""Finite-rank mean-field dynamics: ``evolve``, the one time stepper (a
structure-preserving split-step integrator with conservation diagnostics
at every step), and the integral-equation fixed-point map.

The evolved system couples M orbitals through their weighted density:

    i d/dt u_j = (phi(D) + w * rho) u_j,    rho = sum_k lambda_k |u_k|^2,

equivalently  i d/dt gamma = [phi(D) + w * rho_gamma, gamma]  for the
weighted projector gamma = sum_j lambda_j |u_j><u_j|.

Unit convention: the kinetic multiplier is phi(xi) itself (a lone mode
e^{2 pi i n x} has energy |n|^theta), so the free flight over time t
multiplies coefficients by exp(-i t phi(xi)).  That is the package
propagator at the rescaled time -t/(2 pi): ``_kinetic`` applies the same
cached multiplier ``geometry._flow`` as ``propagate``.

The fixed-point route iterates

    Phi_1(gamma, rho)(t) = U(t) gamma0 U(-t)
        - i int_0^t U(t-s) [w * rho(s), gamma(s)] U(s-t) ds,

with the time integral by trapezoid on the node grid and the output
re-truncated to its dominant eigendirections (finite rank is the desk
surrogate for the full operator; the discarded mass is reported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, InvalidInputError, NumericFailureError
from .geometry import (
    _BLOCK_ELEMENTS,
    GeometrySpec,
    GridMultiplier,
    _flow,
    _grid_fft,
    _mesh,
    _xi2,
    fractional_symbol,
    inverse_transform,
)
from .norms import _duality_alpha, classify_pair, lq_norm, mixed_norm
from .schatten import factored_sobolev_schatten_norm

__all__ = [
    "DensityState",
    "PotentialSpec",
    "TrajectoryRecord",
    "OperatorPath",
    "FixedPointResult",
    "evolve",
    "duhamel_map",
    "fixed_point_iterate",
]


@dataclass(frozen=True, eq=False)
class DensityState:
    """Weighted orbital family gamma = sum_j lambda_j |u_j><u_j|."""

    members: np.ndarray          # (M, *grid)
    weights: np.ndarray          # (M,) nonnegative, nonincreasing
    geometry: GeometrySpec
    theta: float

    def __post_init__(self):
        m = np.array(self.members, dtype=np.complex128)
        w = np.array(self.weights, dtype=float)
        if m.ndim != self.geometry.dim + 1 or \
                m.shape[1:] != self.geometry.grid_sizes:
            raise InvalidInputError("member block does not match the grid")
        if w.ndim != 1 or len(w) != m.shape[0]:
            raise InvalidInputError("one weight per member required")
        if np.any(w < 0) or np.any(np.diff(w) > 1e-15):
            raise InvalidInputError("weights must be nonnegative nonincreasing")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("members contain non-finite entries")
        if not self.theta > 0:
            raise InvalidInputError("dispersion order must be positive")
        m.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "members", m)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.members.shape[0]

    def gram(self) -> np.ndarray:
        flat = self.members.reshape(self.size, -1)
        return (flat.conj() @ flat.T) * self.geometry.cell_volume

    def density(self) -> np.ndarray:
        return np.tensordot(self.weights, np.abs(self.members) ** 2,
                            axes=(0, 0))


@dataclass(frozen=True)
class PotentialSpec:
    """Interaction potential, specified by its real even Fourier multiplier."""

    kind: str                    # yukawa | gaussian | cosine | identity | zero
    a: float = 1.0               # yukawa: (1 + |xi|^2)^(-a)
    sigma_w: float = 1.0         # gaussian width
    k0: int = 1                  # cosine: w(x) = cos(2 pi k0 x_1)

    def __post_init__(self):
        if self.kind not in ("yukawa", "gaussian", "cosine", "identity", "zero"):
            raise InvalidInputError(f"unknown potential kind {self.kind!r}")
        if self.kind == "yukawa" and not self.a > 0:
            raise InvalidInputError("yukawa decay exponent must be positive "
                                    "(use kind='identity' for a = 0)")

    def multiplier(self, geometry: GeometrySpec) -> np.ndarray:
        """w-hat on the centered lattice; real and even by construction."""
        if self.kind == "zero":
            return np.zeros(geometry.grid_sizes)
        if self.kind == "identity":
            return np.ones(geometry.grid_sizes)
        if self.kind == "yukawa":
            return (1.0 + _xi2(geometry)) ** (-self.a)
        if self.kind == "gaussian":
            return np.exp(-0.5 * (self.sigma_w ** 2) * _xi2(geometry))
        mult = np.zeros(geometry.grid_sizes)
        first, *rest = _mesh(geometry)
        rest_zero = np.ones(geometry.grid_sizes, dtype=bool)
        for m in rest:
            rest_zero &= m == 0
        mult[(first == self.k0) & rest_zero] = 0.5
        mult[(first == -self.k0) & rest_zero] = 0.5
        return mult

    def field(self, geometry: GeometrySpec) -> np.ndarray:
        """The real potential w on the grid."""
        return inverse_transform(self.multiplier(geometry), geometry).real


@lru_cache(maxsize=64)
def _potential(w: PotentialSpec, geometry: GeometrySpec) -> GridMultiplier:
    return GridMultiplier(geometry, w.multiplier(geometry))


# ---------------------------------------------------------------------------
# split-step evolution


def _kinetic(geometry: GeometrySpec, theta: float, dt: float) -> GridMultiplier:
    """exp(-i dt phi(D)): the package flow at the rescaled time -dt/(2 pi)."""
    return _flow(geometry, theta, -dt / (2 * np.pi))


def _strang(c: np.ndarray, weights: np.ndarray, half: np.ndarray,
            potential: GridMultiplier, dt: float) -> np.ndarray:
    """One Strang step on Fourier coefficients c (M, *grid), with the
    unshifted multiplier ``half`` = exp(-i dt/2 phi) and w * rho by
    ``potential``: half kinetic, full potential phase, half kinetic in
    four FFTs."""
    d = half.ndim
    v = _grid_fft(half * c, d, inverse=True)
    rho = (weights @ (np.abs(v) ** 2).reshape(len(v), -1)).reshape(half.shape)
    return half * _grid_fft(v * np.exp(-1j * dt * potential(rho).real), d)


def _energies(c: np.ndarray, state: DensityState, w: PotentialSpec):
    """Energies (k,) and densities (k, *grid) of k states given by their
    coefficients c (k, M, *grid) and the weights of ``state``; both terms
    by Parseval."""
    geom = state.geometry
    axes = tuple(range(-geom.dim, 0))
    phi = np.fft.ifftshift(fractional_symbol(geom, state.theta))
    kinetic = np.sum(phi * np.abs(c) ** 2, axis=axes) @ state.weights
    rho = np.tensordot(np.abs(_grid_fft(c, geom.dim, inverse=True)) ** 2,
                       state.weights, axes=(1, 0))
    potential = 0.5 * np.sum(_potential(w, geom).m
                             * np.abs(_grid_fft(rho, geom.dim)) ** 2,
                             axis=axes)
    return (kinetic + potential) * (geom.cell_volume / rho[0].size), rho


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Per-step diagnostics of a split-step run."""

    times: np.ndarray
    member_mass: np.ndarray       # (steps+1, M)
    gram_deviation: np.ndarray    # operator-norm drift from the initial Gram
    energy: np.ndarray
    rho_norm: np.ndarray          # ||rho(t)||_{L^q}
    final_state: DensityState

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy - self.energy[0])))

    @property
    def mass_deviation(self) -> float:
        return float(np.max(np.abs(self.member_mass - self.member_mass[0])))

    @property
    def max_gram_deviation(self) -> float:
        return float(np.max(self.gram_deviation))


def evolve(state: DensityState, T: float, dt: float, w: PotentialSpec,
           q_report: float = 2.0) -> TrajectoryRecord:
    """Split-step trajectory with diagnostics recorded at every step.

    The state is held as Fourier coefficients; the diagnostics are
    computed per block of at most ``_BLOCK_ELEMENTS`` stored entries and
    at most the run's ``steps + 1`` states.
    """
    if not (T > 0 and dt > 0):
        raise InvalidInputError("need positive horizon and step")
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > dt:
        raise InvalidInputError("dt must divide T within one step rounding")
    geom, M, d = state.geometry, state.size, state.geometry.dim
    n = math.prod(geom.grid_sizes)
    half = _kinetic(geom, state.theta, 0.5 * dt).m
    potential = _potential(w, geom)
    times = dt * np.arange(steps + 1)
    mass = np.empty((steps + 1, M))
    gram_dev, energy, rho_norm = np.empty((3, steps + 1))
    gram0 = state.gram()
    k = max(1, min(steps + 1, _BLOCK_ELEMENTS // state.members.size))
    block = np.empty((k,) + state.members.shape, np.complex128)

    def flush(stop):
        # diagnostics of the steps of the open block, up to stop - 1
        at = slice(stop - 1 - (stop - 1) % k, stop)
        c = block[:at.stop - at.start].reshape(-1, M, n)
        gram = c.conj() @ c.transpose(0, 2, 1) * (geom.cell_volume / n)
        mass[at] = gram.diagonal(axis1=1, axis2=2).real
        gram_dev[at] = np.linalg.norm(gram - gram0, ord=2, axis=(1, 2))
        energy[at], rho = _energies(block[:len(c)], state, w)
        rho_norm[at] = lq_norm(rho, q_report, geom.cell_volume,
                               axis=tuple(range(1, d + 1)))

    block[0] = c = _grid_fft(state.members, d)
    stop = steps + 1                  # one past the last finite step
    for i in range(1, stop):
        after = _strang(c, state.weights, half, potential, dt)
        if not np.isfinite(after).all():
            stop = i
            break
        if i % k == 0:
            flush(i)
        block[i % k] = c = after
    flush(stop)
    record = TrajectoryRecord(
        times[:stop], mass[:stop], gram_dev[:stop], energy[:stop],
        rho_norm[:stop],
        DensityState(_grid_fft(c, d, inverse=True), state.weights, geom,
                     state.theta))
    if stop <= steps:
        raise NumericFailureError(f"non-finite state at step {stop}",
                                  best=record)
    return record


# ---------------------------------------------------------------------------
# fixed-point route


@dataclass(frozen=True, eq=False)
class OperatorPath:
    """Hermitian finite-rank operator per time node, eigen-factored, with
    its density film.

    ``weights[i]`` are signed eigenvalues (the iteration can leave the
    positive cone), ``members[i]`` the corresponding orthonormal
    eigenvectors as rows over the flattened grid, ``rho[i]`` the density
    of node i.
    """

    times: np.ndarray
    weights: list                 # i -> (r_i,)
    members: list                 # i -> (r_i, n_space)
    geometry: GeometrySpec
    truncation_mass: np.ndarray   # trace-norm mass discarded per node
    rho: np.ndarray               # (T, *grid) float, on ``times``


# core eigenvalues at most this times the largest are eigh roundoff
_RECOMPRESS_RTOL = 4 * np.finfo(float).eps


def _truncate_hermitian(core: np.ndarray, rank: int, rtol: float = math.inf):
    """Eigenpairs of a Hermitian core: the ``rank`` of largest |eigenvalue|
    and any other above ``rtol`` times the largest; and the dropped mass."""
    if not np.isfinite(core).all():  # an overflowed core
        raise NumericFailureError("Duhamel core is not finite")
    try:
        vals, vecs = np.linalg.eigh(core)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigh did not converge: {exc}") from exc
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    keep = max(rank, int(np.sum(np.abs(vals) > rtol * np.abs(vals[0]))))
    return vals[:keep], vecs[:, :keep], float(np.sum(np.abs(vals[keep:])))


def duhamel_map(path: OperatorPath, gamma0: DensityState, w: PotentialSpec,
                rank: int) -> OperatorPath:
    """One application of the integral-equation map to ``path`` and its
    density.

    In the interaction picture gamma0 - i int_0^t is held as Q core Q*.
    Each node folds its commutator integrand (from the path's factors)
    into Q by one QR, keeps the ``rank`` eigendirections of the core
    (only those are flowed back) and carries the core on without its
    roundoff directions; ``truncation_mass`` counts both cuts.
    """
    geom = gamma0.geometry
    theta = gamma0.theta
    n = int(np.prod(geom.grid_sizes))
    if rank > n:
        raise CapacityError(f"rank cap {rank} exceeds grid dimension {n}")
    if path.geometry != geom:
        raise InvalidInputError("operator path and data live on one geometry")
    times = path.times
    nt = len(times)
    h = times[1] - times[0]
    potential = _potential(w, geom)
    rows = (-1,) + geom.grid_sizes

    # Q core Q* = gamma0; the first fold makes Q orthonormal
    Q = gamma0.members.reshape(-1, n).T * math.sqrt(geom.cell_volume)
    core = np.diag(gamma0.weights)
    new_weights, new_members, new_mass = [], [], []
    rho = np.empty((nt,) + geom.grid_sizes)
    for i in range(nt):
        pot = potential(path.rho[i]).real.ravel()
        V = path.members[i]
        t = float(times[i] - times[0])
        # U(-t) [pot, g_i] U(t), U(t) = exp(-i t phi(D)), from the factors
        # of g_i = V^T diag(lam) conj(V): rows A = U(-t) pot V, B = U(-t) V
        AB = _kinetic(geom, theta, -t)(
            np.concatenate([pot * V, V]).reshape(rows)).reshape(-1, n)
        # [Q A^T B^T] = Q' [R1 Y]: A^T diag(lam) conj(B) - h.c. is
        # Q' (S - S*) Q'*, and the basis never exceeds the grid
        Q, R = np.linalg.qr(np.concatenate([Q, AB.T], axis=1))
        R1, Y = R[:, :len(core)], R[:, len(core):]
        core = R1 @ core @ R1.conj().T
        S = (Y[:, :len(V)] * path.weights[i]) @ Y[:, len(V):].conj().T
        half = (-0.5j * h) * (S - S.conj().T)
        core = core + half if i > 0 else core
        vals, vecs, dropped = _truncate_hermitian(core, rank)
        new_weights.append(vals)
        new_members.append(_kinetic(geom, theta, t)(
            (Q @ vecs).T.reshape(rows)).reshape(-1, n))
        rho[i] = (np.sum(vals[:, None] * np.abs(new_members[i]) ** 2, axis=0)
                  / geom.cell_volume).reshape(geom.grid_sizes)
        if i + 1 < nt:
            vals, vecs, mass = _truncate_hermitian(core + half, rank,
                                                   _RECOMPRESS_RTOL)
            Q, core = Q @ vecs, np.diag(vals)
            dropped += mass
        new_mass.append(dropped)
    return OperatorPath(times, new_weights, new_members, geom,
                        np.array(new_mass), rho)


def free_path(gamma0: DensityState, T: float, time_pts: int) -> OperatorPath:
    """Flow-conjugated initial operator: the w = 0 solution."""
    geom = gamma0.geometry
    times = np.linspace(0.0, float(T), time_pts)
    members = []
    rho = np.empty((time_pts,) + geom.grid_sizes)
    for i, t in enumerate(times):
        u = _kinetic(geom, gamma0.theta, float(t))(gamma0.members)
        members.append(u.reshape(gamma0.size, -1)
                       * math.sqrt(geom.cell_volume))
        rho[i] = np.tensordot(gamma0.weights, np.abs(u) ** 2, axes=(0, 0))
    return OperatorPath(times, [gamma0.weights] * time_pts, members, geom,
                        np.zeros(time_pts), rho)


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """The last iterate's path and one ``(residual, ratio)`` pair per
    iteration: the C0_t Sobolev-Schatten + L^p_t L^q_x distance to the
    previous iterate and its quotient by the previous distance (None
    where that is not positive)."""

    path: OperatorPath
    iterates: list
    contractive: bool
    diverged: bool
    converged: bool               # residual fell below the numeric floor


def _xt_distance(pa: OperatorPath, pb: OperatorPath, alpha_prime: float,
                 s: float, p: float, q: float) -> float:
    geom = pa.geometry
    best = 0.0
    for i in range(len(pa.times)):
        best = max(best, factored_sobolev_schatten_norm(
            np.concatenate([pa.members[i], pb.members[i]]),
            np.concatenate([pa.weights[i], -pb.weights[i]]),
            alpha_prime, s, geom))
    return best + mixed_norm(pa.rho - pb.rho, pa.times, p, q,
                             geom.cell_volume)


# a fixed-point residual at or below this is numerical zero
_CONVERGED_FLOOR = 1e-13


def _fixed_point_exponents(p: float, q: float) -> tuple[float, float]:
    """alpha' of the duality form and s: half the 1/p loss plus margin."""
    return _duality_alpha(q), 0.5 / p + 0.05


def fixed_point_iterate(gamma0: DensityState, w: PotentialSpec, T: float,
                        K: int, p: float, q: float,
                        time_pts: int = 26) -> FixedPointResult:
    """Iterate the integral-equation map from the free solution.

    Residuals are measured in the C0_t Sobolev-Schatten + L^p_t L^q_x
    norm with alpha' = 2q/(q+1) and s = 1/(2p) + 0.05.  Each map keeps
    rank min(4M, n), n the grid size (a rank-n cap keeps every
    eigendirection).  Only the previous and the current path are held.
    Contraction holds when every recorded ratio stays below 1; a residual
    at or below ``_CONVERGED_FLOOR`` is numerical zero and stops the run
    (ratios at the roundoff floor carry no information).  Three
    consecutive growing residuals flag divergence, reported rather than
    raised.
    """
    if K < 2:
        raise InvalidInputError("need at least two iterations")
    if "density" not in classify_pair(gamma0.geometry.dim, p, q,
                                      gamma0.theta):
        raise InvalidInputError("(p, q) must sit on the density line")
    alpha_prime, s = _fixed_point_exponents(p, q)
    rank = min(4 * gamma0.size, gamma0.members[0].size)

    path = free_path(gamma0, T, time_pts)
    iterates = []
    grew = 0
    diverged = False
    converged = False
    for _ in range(K):
        new_path = duhamel_map(path, gamma0, w, rank)
        res = _xt_distance(new_path, path, alpha_prime, s, p, q)
        path = new_path
        # nan before the first residual: no ratio, no growth
        prev = iterates[-1][0] if iterates else math.nan
        iterates.append((res, res / prev if prev > 0 else None))
        grew = grew + 1 if res > prev else 0
        if res <= _CONVERGED_FLOOR:
            converged = True
            break
        if grew >= 3:
            diverged = True
            break
    ratios = [ratio for res, ratio in iterates
              if ratio is not None and res > _CONVERGED_FLOOR]
    contractive = (not diverged) and all(r < 1 for r in ratios) \
        and (bool(ratios) or converged)
    return FixedPointResult(path, iterates, contractive, diverged, converged)
