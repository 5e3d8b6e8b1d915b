"""Schatten norms via singular values, and the operator-vs-orthonormal-
family duality check of the discrete extension/restriction pair.

Weighted Hilbert spaces are realized by folding square roots of the
quadrature weights into matrix rows and columns, so plain (unweighted)
SVD computes the weighted-space singular values exactly:

* operators on the spatial grid carry the uniform cell volume and need
  no folding (it cancels);
* the extension matrix maps weighted coefficient vectors to weighted
  space-time samples: rows are scaled by sqrt(trapezoid weight * cell
  volume), columns by sqrt(dual cell measure).

With that convention the adjoint of the extension matrix is literally
the conjugate transpose, and multiplication by a space-time weight W is
the diagonal matrix of its samples.

The duality check works on the band side: W E E* W = (W E)(W E)* has
the nonzero eigenvalues of the B x B Gram G = E* W^2 E (B the band
dimension), and each family functional sum_j lambda_j ||W E q_j||^2 is
sum_j lambda_j q_j* G q_j.  ``BandFlow.gram`` builds G from one FFT of the
weight per time, since two band modes pair only through their lattice
difference; no matrix grows with the time grid.  The dense extension
matrix, the rows x rows form and the dense Sobolev-Schatten norm are
test oracles, kept with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .geometry import BandFlow, GeometrySpec, GridMultiplier, _xi2
from .norms import lq_norm
from .ons import NormalRows, lambda_family

__all__ = [
    "DualityReport",
    "MATRIX_CAP",
    "singular_values",
    "schatten_norm",
    "factored_sobolev_schatten_norm",
    "spatial_kernel_operator",
    "duality_check",
]

MATRIX_CAP = 4096 * 4096


def spatial_kernel_operator(kernel: np.ndarray,
                            geometry: GeometrySpec) -> np.ndarray:
    """The (n, n) matrix on L2 of the grid of an integral kernel K(x, y)."""
    n = int(np.prod(geometry.grid_sizes))
    K = np.asarray(kernel, dtype=np.complex128).reshape(n, n)
    return K * geometry.cell_volume


def singular_values(A) -> np.ndarray:
    """Nonincreasing singular values of a finite 2-d matrix; count =
    min(rows, cols).  An inf entry would make every value NaN."""
    A = np.asarray(A)
    if A.ndim != 2 or not np.isfinite(A).all():
        raise InvalidInputError("operator must be a finite 2-d matrix")
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"SVD did not converge: {exc}") from exc


def schatten_norm(A, alpha: float) -> float:
    """(sum s_i^alpha)^(1/alpha); alpha = inf is the largest singular value."""
    if not alpha >= 1:
        raise InvalidInputError("Schatten exponent must be >= 1")
    s = singular_values(A)
    if len(s) == 0:
        return 0.0
    return float(lq_norm(s, alpha))


@lru_cache(maxsize=32)
def _bessel(geometry: GeometrySpec, s: float) -> GridMultiplier:
    """The multiplier <D>^s = (1 + |xi|^2)^(s/2)."""
    return GridMultiplier(geometry, (1.0 + _xi2(geometry)) ** (s / 2.0))


def factored_sobolev_schatten_norm(members, weights, alpha: float, s: float,
                                   geometry: GeometrySpec) -> float:
    """The Schatten norm of <D>^s A <D>^s for A = sum_k w_k |v_k><v_k|,
    from its factors: rows v_k over the grid (cell volume folded in, as in the members of
    an ``OperatorPath``), real weights of either sign.  With F the
    rows after <D>^s and F^T = QR the operator is Q (R diag(w) R^*) Q^*,
    so its singular values are the absolute eigenvalues of that core."""
    F = _bessel(geometry, s)(np.reshape(members, (-1,) + geometry.grid_sizes))
    if len(weights) != len(F):
        raise InvalidInputError("one weight per member required")
    R = np.linalg.qr(F.reshape(len(F), -1).T, mode="r")
    return float(lq_norm(np.linalg.eigvalsh((R * weights) @ R.conj().T),
                         alpha))


# ---------------------------------------------------------------------------
# duality check


@dataclass(frozen=True)
class DualityReport:
    """Operator-side norm against the best sampled family functional."""

    operator_norm: float          # || W E E* W ||_{S^alpha}
    max_sampled_ratio: float      # max over samples of functional / ||lambda||
    dominance_ok: bool


def _conjugate(alpha: float) -> float:
    if alpha == math.inf:
        return 1.0
    if alpha == 1.0:
        return math.inf
    return alpha / (alpha - 1.0)


def duality_check(geometry: GeometrySpec, times, w, N: int, alpha: float,
                  sample_count: int, theta: float = 2.0,
                  seed: int = 0) -> DualityReport:
    """Exact Schatten norm of W E E* W against sampled family functionals,
    W the real weight film ``w`` (T, *grid) at ``times``, acting by
    multiplication on the space-time samples.  The sampled side can never
    beat the operator side (trace Hoelder at matrix scale); the report
    carries that flag.
    """
    if not alpha >= 1:
        raise InvalidInputError("Schatten exponent must be >= 1")
    if N < 1 or int(N) != N:
        raise InvalidInputError("band scale N must be a positive integer")
    w = np.asarray(w)
    if np.iscomplexobj(w) and np.max(np.abs(w.imag)) > 1e-10:
        raise InvalidInputError("weights must be real-valued")

    # W E E* W = (W E)(W E)* shares its nonzero eigenvalues with the
    # positive B x B Gram G = E* W^2 E, and ||W E q||^2 = q* G q
    w = w.real
    G = BandFlow(geometry, int(N), theta).gram(times, w * w)
    if not np.isfinite(G).all():  # an overflowed symbol or weight
        raise NumericFailureError("band Gram is not finite")
    lhs_op = float(lq_norm(np.linalg.eigvalsh(G).clip(0), alpha))

    alpha_conj = _conjugate(alpha)
    rng = np.random.default_rng(seed)
    B = len(G)
    kinds = ("flat", "power", "one-hot")
    best = 0.0
    for i in range(sample_count):
        M = int(rng.integers(1, B + 1))
        Q, _ = np.linalg.qr(NormalRows(rng, B, M).draw(B))
        lam = lambda_family(kinds[i % 3], M, alpha_conj)
        energies = np.sum(Q.conj() * (G @ Q), axis=0).real
        best = max(best, float(np.sum(lam * energies))
                   / float(lq_norm(lam, alpha_conj)))

    return DualityReport(lhs_op, best, bool(best <= lhs_op * (1 + 1e-8)))
