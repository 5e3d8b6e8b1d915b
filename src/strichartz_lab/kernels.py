"""Exponential-sum kernels of the band-limited flow and their dispersive sups.

The central object is the torus kernel

    K_N(t, x) = sum_{n=-N}^{N} exp(2*pi*i*(x*n + t*|n|**theta)),

whose modulus, scaled by |t|**(1/theta), stays bounded on the shrinking
window |t| <= N**(1-theta).  ``dispersive_sup`` measures that sup on a
deterministic grid; ``vdc_integral_oracle`` integrates the continuum
analogue  int_0^b exp(2*pi*i*((xi - p)*s + t*s**theta)) ds  by adaptive
Gauss-Legendre panels and reports the measured value against the
|t|**(-1/theta) envelope.

The sweep evaluates each time row by one DFT on the uniform grid;
``kernel_exp_sum`` keeps the pairwise sum (2N+1 unit-magnitude terms with
heavy cancellation) as the oracle.  The sweep grids refine by midpoint
insertion so that a refined sup can never drop below a coarser one.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .geometry import (
    GeometrySpec,
    _band_multiplier,
    _frac_product,
    fractional_symbol,
    frequency_lattice,
)

__all__ = [
    "KernelQuery",
    "DispersiveReport",
    "OscillatoryIntegral",
    "kernel_exp_sum",
    "dispersive_sup",
    "vdc_integral_oracle",
    "waveguide_kernel",
]


@dataclass(frozen=True)
class KernelQuery:
    """One evaluation point (t, x) of the order-N kernel."""

    N: int
    theta: float
    t: float
    x: float

    def __post_init__(self):
        if self.N < 1 or int(self.N) != self.N:
            raise InvalidInputError("kernel order N must be a positive integer")
        if self.theta < 2:
            raise InvalidInputError("exponential-sum bounds need theta >= 2")
        if not np.isfinite(self.t) or not np.isfinite(self.x):
            raise InvalidInputError("(t, x) must be finite")


@dataclass(frozen=True)
class DispersiveReport:
    """Measured sup of |t|**(1/theta) |K_N| over the dispersive window."""

    N: int
    theta: float
    window: tuple[float, float]
    sup_value: float
    argmax: tuple[float, float]       # (t*, x*)
    samples: int
    refined: bool                     # True if the 2% doubling check forced
                                      # an extra refinement pass


@dataclass(frozen=True)
class OscillatoryIntegral:
    """Adaptive-quadrature value with its error estimate and envelope."""

    value: complex
    error_estimate: float
    envelope: float                   # |t|**(-1/theta)
    panels: int

    @property
    def ratio(self) -> float:
        return abs(self.value) / self.envelope


def _exp_sum_terms(N: int, theta: float, t: float, x) -> np.ndarray:
    # x reduced mod 1 (the sum is 1-periodic) and t*|n|^theta reduced with
    # an exact two-product, so phases stay small before the exponential
    n = np.arange(-N, N + 1, dtype=float)
    phase = np.multiply.outer(np.mod(np.asarray(x, dtype=float), 1.0), n) \
        + _frac_product(t, np.abs(n) ** theta)
    return np.exp(2j * np.pi * phase)


def kernel_exp_sum(q: KernelQuery) -> complex:
    """sum_{n=-N}^{N} e^{2 pi i (x n + t |n|^theta)}, pairwise-accumulated."""
    return complex(np.sum(_exp_sum_terms(q.N, q.theta, q.t, q.x), axis=-1))


def _scaled_kernel_max(N, theta, ts, xs):
    """Max of |t|^(1/theta)|K_N| over the ts-x-grid; returns (max, argmax).

    ``xs`` must be the uniform grid ``arange(nx) / nx``: each row
    K_N(t, .) is then one length-nx DFT of the coefficients
    e^{2 pi i t n^theta}, placed at n mod nx and folded when 2N+1 > nx.
    """
    if N == 0:
        vals = np.abs(ts) ** (1.0 / theta)
        i = int(np.argmax(vals))
        return float(vals[i]), (float(ts[i]), float(xs[0]))
    nx = len(xs)
    n = np.arange(1, N + 1)
    best = -1.0
    arg = (float(ts[0]), float(xs[0]))
    chunk = max(1, 1_000_000 // (nx + N))
    for lo in range(0, len(ts), chunk):
        tc = ts[lo:lo + chunk]
        phases = np.exp(2j * np.pi * np.outer(tc, n ** theta))   # (T, N)
        coef = np.zeros((len(tc), nx), dtype=complex)
        coef[:, 0] = 1.0
        # within one block of nx consecutive n the bins n mod nx are
        # distinct, so each += hits every bin at most once
        for b in range(0, N, nx):
            bins = n[b:b + nx] % nx
            coef[:, bins] += phases[:, b:b + nx]
            coef[:, -bins % nx] += phases[:, b:b + nx]
        # coef is symmetric in n, so the forward DFT is K_N(t, j/nx)
        k = np.fft.fft(coef, axis=1)
        scaled = np.abs(tc[:, None]) ** (1.0 / theta) * np.abs(k)
        i, j = np.unravel_index(np.argmax(scaled), scaled.shape)
        if scaled[i, j] > best:
            best = float(scaled[i, j])
            arg = (float(tc[i]), float(xs[j]))
    return best, arg


def _window_top(N: int, theta: float) -> float:
    # degenerate guard: the N = 0 kernel is identically 1, measured on [t_min, 1]
    return 1.0 if N == 0 else float(N) ** (1.0 - theta)


def dispersive_sup(N: int, theta: float, t_grid_pts: int = 512,
                   x_grid_pts: int = 512, t_min: float = 1e-6,
                   check_refinement: bool = True) -> DispersiveReport:
    """Sup of |t|^(1/theta)|K_N| over [t_min, N^(1-theta)] x T^1.

    The sup is re-measured on the midpoint-refined grid; if it moves by
    2% or more the grid is refined once again and the report is flagged.
    Refinements insert points, so the reported sup never decreases under
    them.
    """
    if theta < 2:
        raise InvalidInputError("dispersive window requires theta >= 2")
    if not t_min > 0:
        raise InvalidInputError("t_min must be positive")
    if t_grid_pts < 64 or x_grid_pts < 64:
        raise InvalidInputError("sweep grids need at least 64 points per axis")
    if N < 0 or int(N) != N:
        raise InvalidInputError("N must be a nonnegative integer")
    top = _window_top(int(N), theta)
    if t_min >= top:
        raise InvalidInputError(
            f"empty window: t_min = {t_min} >= N^(1-theta) = {top}")

    def grids(level):
        nt = (t_grid_pts - 1) * 2 ** level + 1
        nx = x_grid_pts * 2 ** level
        return np.linspace(t_min, top, nt), np.arange(nx) / nx

    ts, xs = grids(0)
    sup0, arg0 = _scaled_kernel_max(N, theta, ts, xs)
    if not check_refinement:
        return DispersiveReport(N, theta, (t_min, top), sup0, arg0,
                                len(ts) * len(xs), False)
    ts, xs = grids(1)
    sup1, arg1 = _scaled_kernel_max(N, theta, ts, xs)
    refined = False
    if abs(sup1 - sup0) >= 0.02 * sup0:
        warnings.warn(
            f"dispersive sup moved {abs(sup1 - sup0) / sup0:.1%} under grid "
            f"doubling at N={N}, theta={theta}; refining once more")
        refined = True
        ts, xs = grids(2)
        sup1, arg1 = _scaled_kernel_max(N, theta, ts, xs)
    return DispersiveReport(N, theta, (t_min, top), sup1, arg1,
                            len(ts) * len(xs), refined)


# ---------------------------------------------------------------------------
# adaptive oscillatory quadrature

_GL_LO = np.polynomial.legendre.leggauss(7)
_GL_HI = np.polynomial.legendre.leggauss(15)


def _panel_batch(f, lo_edges, hi_edges):
    """Gauss-Legendre 15 values and 7/15 discrepancies, one row per panel."""
    mid = 0.5 * (lo_edges + hi_edges)
    half = 0.5 * (hi_edges - lo_edges)
    xl, wl = _GL_LO
    xh, wh = _GL_HI
    lo = (f(mid[:, None] + half[:, None] * xl[None, :]) @ wl) * half
    hi = (f(mid[:, None] + half[:, None] * xh[None, :]) @ wh) * half
    return hi, np.abs(hi - lo)


def vdc_integral_oracle(theta: float, x: float, t: float, p: int, b: float,
                        tol: float = 1e-8,
                        max_panels: int = 60_000) -> OscillatoryIntegral:
    """int_0^b exp(2 pi i ((x - p) s + t s^theta)) ds, adaptively.

    Panels split until the summed Gauss-Legendre 7/15 discrepancy drops
    below ``tol``; exceeding the panel budget raises a numeric failure
    carrying the best estimate.
    """
    if not b > 1:
        raise InvalidInputError("upper limit b must exceed 1")
    if abs(t) < 1e-12:
        raise InvalidInputError("pure linear phase: |t| too small for the "
                                "t**(-1/theta) envelope")
    if theta < 2:
        raise InvalidInputError("oracle phase requires theta >= 2")
    if int(p) != p:
        raise InvalidInputError("frequency shift p must be an integer")

    lin = x - p

    def f(s):
        return np.exp(2j * np.pi * (lin * s + t * s ** theta))

    phase_span = 2 * np.pi * (abs(lin) * b + abs(t) * b ** theta)
    n0 = int(min(8192, max(8, phase_span / 4.0)))
    edges = np.linspace(0.0, b, n0 + 1)
    vals, errs = _panel_batch(f, edges[:-1], edges[1:])
    total = complex(np.sum(vals))
    total_err = float(np.sum(errs))
    heap = [(-errs[i], edges[i], edges[i + 1], vals[i]) for i in range(n0)]
    heapq.heapify(heap)
    panels = n0
    while total_err > tol and panels < max_panels:
        neg_e, a0, b0, v0 = heapq.heappop(heap)
        mid = 0.5 * (a0 + b0)
        sub = np.array([a0, mid])
        v, e = _panel_batch(f, sub, np.array([mid, b0]))
        total += complex(v[0] + v[1] - v0)
        total_err += float(e[0] + e[1]) + neg_e
        heapq.heappush(heap, (-e[0], a0, mid, v[0]))
        heapq.heappush(heap, (-e[1], mid, b0, v[1]))
        panels += 1
    envelope = abs(t) ** (-1.0 / theta)
    result = OscillatoryIntegral(complex(total), float(total_err),
                                 envelope, panels)
    if total_err > tol:
        raise NumericFailureError(
            f"oscillatory quadrature stalled at error {total_err:.3e} "
            f"after {panels} panels (tol {tol:.1e})", best=result)
    return result


# ---------------------------------------------------------------------------
# full-lattice kernel (waveguide form)


def waveguide_kernel(t: float, z, N: int, theta: float,
                     geometry: GeometrySpec) -> complex:
    """K_N(t, z) = sum over the frequency lattice of e^{2 pi i (z.xi + t phi)}
    eta(xi/N)^2 d(xi).

    On a pure torus geometry the cutoff is sharp, so this reduces to the
    exponential sum; on a waveguide the smooth tensor bump is squared and
    free axes carry the Riemann-sum measure 1/L.
    """
    if N < 1 or int(N) != N:
        raise InvalidInputError("kernel order N must be a positive integer")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (geometry.dim,):
        raise InvalidInputError(
            f"evaluation point has {z.shape} coordinates, geometry needs "
            f"{geometry.dim}")
    lat = frequency_lattice(geometry)
    mesh = lat.mesh()
    phase = sum(z[ax] * mesh[ax] for ax in range(geometry.dim)) \
        + _frac_product(t, fractional_symbol(geometry, theta))
    weight = _band_multiplier(geometry, int(N)) ** 2
    terms = np.exp(2j * np.pi * phase) * weight * geometry.dual_cell
    return complex(np.sum(terms))
