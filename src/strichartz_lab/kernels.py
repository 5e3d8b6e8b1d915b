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

Both streams work within ``geometry._BLOCK_ELEMENTS``: the sweep takes
its times in blocks of ``_BLOCK_ELEMENTS // (nx + N)`` rows, one DFT
block at a time, and the quadrature evaluates its first batch of panels
in slices of ``_BLOCK_ELEMENTS // 16`` panels of 15 nodes.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .geometry import _BLOCK_ELEMENTS, _frac_product, _phase_blocks

__all__ = [
    "DispersiveReport",
    "OscillatoryIntegral",
    "kernel_exp_sum",
    "dispersive_sup",
    "vdc_integral_oracle",
]


@dataclass(frozen=True)
class DispersiveReport:
    """Measured sup of |t|**(1/theta) |K_N| over the dispersive window."""

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

    def estimate(self) -> dict:
        """The value as ``value_re`` and ``value_im``, ``error_estimate``
        and ``panels``, as plain floats and an int."""
        return {"value_re": self.value.real, "value_im": self.value.imag,
                "error_estimate": self.error_estimate, "panels": self.panels}


def _exp_sum_terms(N: int, theta: float, t: float, x) -> np.ndarray:
    # x reduced mod 1 (the sum is 1-periodic) and t*|n|^theta reduced with
    # an exact two-product, so phases stay small before the exponential
    n = np.arange(-N, N + 1, dtype=float)
    phase = np.multiply.outer(np.mod(np.asarray(x, dtype=float), 1.0), n) \
        + _frac_product(t, np.abs(n) ** theta)
    return np.exp(2j * np.pi * phase)


def kernel_exp_sum(N: int, theta: float, t: float, x: float) -> complex:
    """sum_{n=-N}^{N} e^{2 pi i (x n + t |n|^theta)}, pairwise-accumulated."""
    if N < 1 or int(N) != N:
        raise InvalidInputError("kernel order N must be a positive integer")
    if theta < 2:
        raise InvalidInputError("exponential-sum bounds need theta >= 2")
    if not np.isfinite(t) or not np.isfinite(x):
        raise InvalidInputError("(t, x) must be finite")
    return complex(np.sum(_exp_sum_terms(N, theta, t, x), axis=-1))


def _scaled_kernel_max(N, theta, ts, xs):
    """Max of |t|^(1/theta)|K_N| over the ts-x-grid; returns (max, argmax).

    ``xs`` must be the uniform grid ``arange(nx) / nx``: each row
    K_N(t, .) is then one length-nx DFT of the coefficients
    e^{2 pi i t n^theta}, placed at n mod nx and folded when 2N+1 > nx.
    The rows run in blocks of ``_BLOCK_ELEMENTS // (nx + N)`` times.
    """
    nx = len(xs)
    n = np.arange(1, N + 1)
    best, arg = -1.0, None
    for rows, ph in _phase_blocks(ts, n ** theta,
                                  max(1, _BLOCK_ELEMENTS // (nx + N))):
        coef = np.zeros((len(ph), nx), dtype=complex)
        coef[:, 0] = 1.0
        # within one block of nx consecutive n the bins n mod nx are
        # distinct, so each += hits every bin at most once
        for b in range(0, N, nx):
            bins = n[b:b + nx] % nx
            for c in (bins, -bins % nx):
                coef[:, c] += ph[:, b:b + nx]
        # coef is symmetric in n, so the forward DFT (in place) is
        # K_N(t, j/nx); a block holds coef and the real scaled |K_N|
        scaled = np.abs(np.fft.fft(coef, axis=1, out=coef))
        scaled *= np.abs(ts[rows, None]) ** (1.0 / theta)
        i, j = np.unravel_index(np.argmax(scaled), scaled.shape)
        if scaled[i, j] > best:
            best = float(scaled[i, j])
            arg = (float(ts[rows][i]), float(xs[j]))
        del coef, scaled  # freed before the next block allocates its own
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

    def sweep(level):
        nx = x_grid_pts * 2 ** level
        ts = np.linspace(t_min, top, (t_grid_pts - 1) * 2 ** level + 1)
        return (*_scaled_kernel_max(N, theta, ts, np.arange(nx) / nx),
                len(ts) * nx)

    sup0, arg, samples = sweep(0)
    sup, refined = sup0, False
    if check_refinement:
        sup, arg, samples = sweep(1)
        refined = abs(sup - sup0) >= 0.02 * sup0
        if refined:
            warnings.warn(
                f"dispersive sup moved {abs(sup - sup0) / sup0:.1%} under "
                f"grid doubling at N={N}, theta={theta}; refining once more")
            sup, arg, samples = sweep(2)
    return DispersiveReport((t_min, top), sup, arg, samples, refined)


# ---------------------------------------------------------------------------
# adaptive oscillatory quadrature

@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    # numpy.polynomial (1.6 MiB of modules) loads on first use, not with
    # the package
    return np.polynomial.legendre.leggauss(n)


def _panel_batch(f, edges):
    """Gauss-Legendre 15 values and 7/15 discrepancies, one per panel
    between consecutive ``edges``."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    lo, hi = ((f(mid[:, None] + half[:, None] * x) @ w) * half
              for x, w in map(_gauss_legendre, (7, 15)))
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
    # the first batch in slices of at most _BLOCK_ELEMENTS nodes
    step = _BLOCK_ELEMENTS // 16
    vals, errs = map(np.concatenate, zip(*[
        _panel_batch(f, edges[i:i + step + 1]) for i in range(0, n0, step)]))
    total = complex(np.sum(vals))
    total_err = float(np.sum(errs))
    heap = list(zip(-errs, edges[:-1], edges[1:], vals))
    heapq.heapify(heap)
    panels = n0
    while total_err > tol and panels < max_panels:
        neg_e, a0, b0, v0 = heapq.heappop(heap)
        mid = 0.5 * (a0 + b0)
        v, e = _panel_batch(f, np.array([a0, mid, b0]))
        total += complex(v[0] + v[1] - v0)
        total_err += float(e[0] + e[1]) + neg_e
        for item in zip(-e, (a0, mid), (mid, b0), v):
            heapq.heappush(heap, item)
        panels += 1
    envelope = abs(t) ** (-1.0 / theta)
    result = OscillatoryIntegral(complex(total), float(total_err),
                                 envelope, panels)
    if total_err > tol:
        raise NumericFailureError(
            f"oscillatory quadrature stalled at error {total_err:.3e} "
            f"after {panels} panels (tol {tol:.1e})", best=result)
    return result
