"""Slow twins that only the tests call: the band flow one frame at a time
(oracle of ``BandFlow.blocks``), the whole matrix of standard complex
normals (oracle of ``ons.NormalRows``), the dense extension matrix
(oracle of ``BandFlow.gram`` and the duality check) and the dense
Sobolev-Schatten norm with its multiplier sandwich (oracle of
``schatten.factored_sobolev_schatten_norm``) and the quadrature that
splits one panel per evaluation (oracle of ``kernels.vdc_integral_oracle``)."""

import heapq
import math

import numpy as np

from strichartz_lab.errors import (
    CapacityError,
    InvalidInputError,
    NumericFailureError,
)
from strichartz_lab.geometry import (
    _BLOCK_ELEMENTS,
    BandFlow,
    GeometrySpec,
    GridMultiplier,
    _band_mask,
    _band_multiplier,
    _mesh,
    inverse_transform,
    propagate,
)
from strichartz_lab.kernels import OscillatoryIntegral, _panel_batch
from strichartz_lab.norms import trapezoid_weights
from strichartz_lab.schatten import MATRIX_CAP, _bessel, schatten_norm


def band_frequencies(geometry: GeometrySpec, N: int) -> np.ndarray:
    """(B, d) lattice frequencies of the band [-N, N]^d in the order of a
    coefficient row (C order of the centered lattice)."""
    mask = _band_mask(geometry, N)
    return np.stack([m[mask] for m in _mesh(geometry)], axis=-1)


def standard_complex(rng, rows, cols):
    """A (rows, cols) matrix of standard complex normals: the real parts,
    then the imaginary parts, each drawn in chunks of ``_BLOCK_ELEMENTS //
    cols`` rows.  The generator draws the same stream as one
    ``standard_normal((rows, cols))`` per part."""
    out = np.empty((rows, cols), dtype=np.complex128)
    step = max(1, _BLOCK_ELEMENTS // cols)
    for part in (out.real, out.imag):
        for j in range(0, rows, step):
            part[j:j + step] = rng.standard_normal(part[j:j + step].shape)
    return out


def collect_blocks(flow, rows, times):
    """(T, S, *grid) film assembled from ``flow.blocks`` of ``rows``, an
    array or a row source, with a check that every (time, sample) frame
    arrives exactly once."""
    S, T = rows.shape[0], len(times)
    film = np.zeros((T, S) + flow.geometry.grid_sizes, dtype=complex)
    seen = np.zeros((T, S), dtype=int)
    for ts, ss, values in flow.blocks(rows, times):
        assert values.shape == (len(range(T)[ts]), len(range(S)[ss])) \
            + flow.geometry.grid_sizes
        film[ts, ss] = values
        seen[ts, ss] += 1
    assert np.all(seen == 1)
    return film


def slow_flow(geometry: GeometrySpec, N: int, theta: float, rows,
              times) -> np.ndarray:
    """The (T, S, *grid) film of ``collect_blocks``, frame by frame: each
    row scattered into the centered lattice, transformed back and
    propagated."""
    mask = _band_multiplier(geometry, N) == 1.0
    film = np.zeros((len(times), len(rows)) + geometry.grid_sizes, complex)
    for row, frames in zip(rows, film.swapaxes(0, 1)):
        coef = np.zeros(geometry.grid_sizes, dtype=complex)
        coef[mask] = row
        f = inverse_transform(coef, geometry)
        for t, frame in zip(times, frames):
            frame[...] = propagate(f, geometry, t, theta)
    return film


def sandwich(M: GridMultiplier, A: np.ndarray) -> np.ndarray:
    """m(D) A m(D)* for an (n, n) matrix on flattened grid vectors."""
    n = A.shape[0]
    shape = (n,) + M.geometry.grid_sizes

    def on_rows(X):  # X m(D)^T: m(D) applied to each row of X
        return M(X.reshape(shape)).reshape(n, n)

    return on_rows(on_rows(A.conj()).conj().T).T


def sobolev_schatten_norm(A: np.ndarray, alpha: float, s: float,
                          geometry: GeometrySpec) -> float:
    """Schatten norm of <D>^s A <D>^s for an (n, n) grid operator A."""
    n = int(np.prod(geometry.grid_sizes))
    if np.shape(A) != (n, n):
        raise InvalidInputError(
            "operator must act on the spatial grid of the given geometry")
    if s == 0.0:
        return schatten_norm(A, alpha)
    return schatten_norm(sandwich(_bessel(geometry, s), np.asarray(A)), alpha)


def build_extension_matrix(geometry: GeometrySpec, N: int, interval,
                           time_pts: int, theta: float) -> np.ndarray:
    """Folded matrix (T * prod(grid), B) of the sampled extension operator
    from band coefficients to space-time.

    Rows run over the (t, x) grid in C order; columns over the band in the
    order of ``band_frequencies(geometry, N)``.  The dense twin of
    ``BandFlow.gram``.
    """
    if N < 1 or int(N) != N:
        raise InvalidInputError("band scale N must be a positive integer")
    times = np.linspace(float(interval[0]), float(interval[1]), time_pts)
    weights = trapezoid_weights(times)

    flow = BandFlow(geometry, int(N), theta)
    band = flow.size
    n_space = int(np.prod(geometry.grid_sizes))
    rows = time_pts * n_space
    if rows * band > MATRIX_CAP:
        raise CapacityError(
            f"extension matrix {rows} x {band} exceeds cap {MATRIX_CAP}")

    # column b at time t is U(t) of the unit coefficient at xi_b, which is
    # dual_cell * exp(2 pi i (x.xi_b + t phi_b)); the folds then give row
    # factors sqrt(w_t * cell_volume) and the column factor sqrt(dual_cell)
    col_fac = 1.0 / math.sqrt(geometry.dual_cell)
    row_fac = np.sqrt(weights * geometry.cell_volume) * col_fac
    mat = np.empty((time_pts, n_space, band), dtype=np.complex128)
    for ts, ss, u in flow.blocks(np.eye(band), times):
        u = u.reshape(u.shape[:2] + (n_space,))
        mat[ts, :, ss] = u.transpose(0, 2, 1) * row_fac[ts, None, None]
    return mat.reshape(rows, band)


def vdc_one_panel(theta, x, t, p, b, tol=1e-8, max_panels=60_000):
    """``vdc_integral_oracle`` evaluating the two halves of each panel it
    splits, one panel per ``_panel_batch`` call; the inputs are taken as
    valid."""
    lin = x - p

    def f(s):
        return np.exp(2j * np.pi * (lin * s + t * s ** theta))

    phase_span = 2 * np.pi * (abs(lin) * b + abs(t) * b ** theta)
    n0 = int(min(8192, max(8, phase_span / 4.0)))
    edges = np.linspace(0.0, b, n0 + 1)
    vals, errs = _panel_batch(f, edges[:-1], edges[1:])
    total = complex(np.sum(vals))
    total_err = float(np.sum(errs))
    heap = list(zip(-errs, edges[:-1], edges[1:], vals))
    heapq.heapify(heap)
    panels = n0
    while total_err > tol and panels < max_panels:
        neg_e, a0, b0, v0 = heapq.heappop(heap)
        mid = 0.5 * (a0 + b0)
        v, e = _panel_batch(f, np.array([a0, mid]), np.array([mid, b0]))
        total += complex(v[0] + v[1] - v0)
        total_err += float(e[0] + e[1]) + neg_e
        for item in zip(-e, (a0, mid), (mid, b0), v):
            heapq.heappush(heap, item)
        panels += 1
    result = OscillatoryIntegral(complex(total), float(total_err),
                                 abs(t) ** (-1.0 / theta), panels)
    if total_err > tol:
        raise NumericFailureError("oscillatory quadrature stalled",
                                  best=result)
    return result
