"""Orthonormal families, coefficient sequences, their flowed densities, and
the scaling measurements that probe the family-summed space-time bounds.

The measured object per cell is the ratio

    || sum_j lambda_j |U(t) P_{<=N} f_j|^2 ||_{L^p_t L^q_x}  /  ||lambda||_{l^alpha'}

for a family living on the frequency band [-N, N]^d.  Families are held
as coefficient vectors on the band (orthonormality of the fields is
equivalent to orthonormality of the coefficients), and the density is
accumulated over the band-flow block stream with batched inverse
transforms.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import InvalidInputError
from .geometry import (_BLOCK_ELEMENTS, BandFlow, GeometrySpec, _band_mask,
                       _mesh, _xi2)
from .norms import lq_norm, mixed_norm
from .seeding import derive_cell_seed

__all__ = [
    "band_dimension",
    "generate_ons",
    "lambda_family",
    "density_field",
    "ons_estimate_ratio",
]


def band_dimension(geometry: GeometrySpec, N: int) -> int:
    """Number of lattice points in the sharp band [-N, N]^d (no Nyquist)."""
    return int(np.count_nonzero(_band_mask(geometry, int(N))))


def _band_order(geometry: GeometrySpec, N: int) -> np.ndarray:
    """Deterministic enumeration of band lattice points: by |xi|^2, ties
    broken lexicographically, so mode 0 comes first and conjugate pairs
    adjoin (0, -1, +1, -2, +2, ... on the one-dimensional torus)."""
    mask = _band_mask(geometry, int(N))
    keys = [m[mask] for m in reversed(_mesh(geometry))] + [_xi2(geometry)[mask]]
    return np.lexsort(keys)


class NormalRows:
    """The (rows, cols) matrix of standard complex normals that one
    ``standard_normal((rows, cols))`` per part, real parts then imaginary
    parts, draws from ``rng``, handed out n rows at a time by ``draw``
    (``rows`` in total; ``rng`` serves no one else until then).

    A first draw of every row takes both parts from ``rng``.  A first
    draw of fewer rows copies ``rng`` to draw the real parts, and ``rng``
    itself skips past them, through one reused buffer of at most
    ``_BLOCK_ELEMENTS`` floats, to draw the imaginary parts.  Either way,
    once every row is drawn ``rng`` is where the whole matrix would leave
    it, and a draw of n rows holds one (n, cols) float temporary."""

    def __init__(self, rng, rows: int, cols: int):
        self.shape = (rows, cols)
        self._imag = self._real = rng

    def draw(self, n: int) -> np.ndarray:
        """The next n rows, (n, cols) complex."""
        rows, cols = self.shape
        if self._real is self._imag and 0 < n < rows:
            self._real = copy.deepcopy(self._imag)
            buf = np.empty(min(rows * cols, _BLOCK_ELEMENTS))
            for j in range(0, rows * cols, len(buf)):
                self._imag.standard_normal(out=buf[:rows * cols - j])
        out = np.empty((n, cols), dtype=np.complex128)
        out.real = self._real.standard_normal(out.shape)
        out.imag = self._imag.standard_normal(out.shape)
        return out


def generate_ons(kind: str, M: int, N: int, geometry: GeometrySpec,
                 seed: int = 0) -> np.ndarray:
    """Orthonormal family on the band, lattice modes or a seeded random
    one, as its (M, band_dim) coefficient rows over the band mask in C
    order, orthonormal in the dual cell measure."""
    if M < 1:
        raise InvalidInputError("family size must be >= 1")
    dim = band_dimension(geometry, N)
    if M > dim:
        raise InvalidInputError(
            f"family size {M} exceeds band dimension {dim}")
    w = geometry.dual_cell
    if kind == "fourier-modes":
        order = _band_order(geometry, N)
        coef = np.zeros((M, dim), dtype=np.complex128)
        for j in range(M):
            coef[j, order[j]] = 1.0 / math.sqrt(w)
        return coef
    if kind == "random-band":
        Q, _ = np.linalg.qr(
            NormalRows(np.random.default_rng(seed), dim, M).draw(dim))
        return (Q / math.sqrt(w)).T
    raise InvalidInputError(f"unknown family kind {kind!r}")


def lambda_family(kind: str, M: int, alpha_prime: float,
                  beta: float = 1.0) -> np.ndarray:
    """Canonical coefficient sequences (M,), nonnegative and nonincreasing,
    normalized to unit l^alpha' norm."""
    if M < 1:
        raise InvalidInputError("sequence length must be >= 1")
    if not alpha_prime >= 1:
        raise InvalidInputError("alpha' must be >= 1")
    if kind == "flat":
        return np.full(M, M ** (-1.0 / alpha_prime))
    if kind == "one-hot":
        vals = np.zeros(M)
        vals[0] = 1.0
        return vals
    if kind == "power":
        vals = np.arange(1, M + 1, dtype=float) ** (-beta)
        return vals / lq_norm(vals, alpha_prime)
    raise InvalidInputError(f"unknown coefficient family {kind!r}")


def density_field(geometry: GeometrySpec, N: int, coefficients: np.ndarray,
                  weights: np.ndarray, theta: float, times) -> np.ndarray:
    """rho(t, x) = sum_j lambda_j |U(t) P_{<=N} f_j(x)|^2, the finite
    (T, *grid) film at ``times``, for members f_j given by their band
    coefficient rows and lambda_j by ``weights``, over a block stream of
    the members (``BandFlow.blocks``), accumulated per time block chunk by
    chunk; linearity in lambda and per-frame mass conservation are exact.
    """
    if len(weights) != len(coefficients):
        raise InvalidInputError("coefficient count must match family size")
    rho = np.zeros((len(times),) + geometry.grid_sizes)
    flow = BandFlow(geometry, N, theta)
    for ts, ss, u in flow.blocks(coefficients, times):
        a = np.abs(u)
        a *= a
        rho[ts] += np.tensordot(weights[ss], a, axes=(0, 1))
    if not np.isfinite(rho).all():
        raise InvalidInputError("density film has non-finite entries")
    return rho


def ons_estimate_ratio(geometry: GeometrySpec, N: int, theta: float,
                       p: float, q: float, alpha_prime: float,
                       interval=(0.0, 1.0), time_pts: int = 33,
                       family_kinds=(("fourier-modes", 1),),
                       lambda_kind: str = "flat",
                       seed: int = 0) -> tuple[float, float, str]:
    """One cell of the family-summed estimate over the full band of N:
    the largest density norm over ``family_kinds`` ((kind, draws) pairs),
    the coefficient norm, and the label of the family that attained it
    (``fourier-modes`` or ``random-band(<seed>)``)."""
    M = band_dimension(geometry, N)
    lam = lambda_family(lambda_kind, M, alpha_prime)
    times = np.linspace(float(interval[0]), float(interval[1]), time_pts)
    best_norm, best_label = -1.0, ""
    cell = 0
    for kind, count in family_kinds:
        for _ in range(count):
            fam_seed = derive_cell_seed(seed, cell)
            cell += 1
            coef = generate_ons(kind, M, N, geometry, seed=fam_seed)
            rho = density_field(geometry, N, coef, lam, theta, times)
            val = mixed_norm(rho, times, p, q, geometry.cell_volume)
            if val > best_norm:
                best_norm = val
                best_label = kind if kind == "fourier-modes" \
                    else f"random-band({fam_seed})"
    return best_norm, float(lq_norm(lam, alpha_prime)), best_label
