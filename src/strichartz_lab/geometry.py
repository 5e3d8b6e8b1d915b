"""Discretized torus and waveguide geometries and their spectral calculus.

Conventions, fixed once for the whole package:

* The torus has period 1 per axis; grid points are ``x_j = j/G``.
* Truncated free axes live on the box ``[-L/2, L/2)`` with ``G`` points,
  so the frequency lattice is ``{j/L : j in [-G/2, G/2)}``.
* Fourier transform pairs Fourier-series style against the basis
  ``exp(2*pi*i*x.xi)``:  ``a(xi) = sum_x f(x) exp(-2*pi*i*x.xi) * dx``.
  With that normalization the L2 norm of a field (cell-volume weighted)
  equals the weighted little-l2 norm of its coefficients (Plancherel).
* The flow multiplies coefficients by ``exp(+2*pi*i*t*phi(xi))`` where
  ``phi`` is the dispersion symbol: ``|xi|**theta`` on a pure torus and
  ``|xi_free|**theta + |xi_per|**theta`` on a waveguide.
* Frequency cutoffs at scale N are sharp indicators of ``[-N, N]**d`` on
  a pure torus and the smooth tensor bump ``prod_i eta1(xi_i / N)`` on a
  waveguide.  The Nyquist row ``xi = -G/2`` is always zeroed: it has no
  mirror partner on the lattice and breaks symmetry tests otherwise.

``eta1`` is the standard polynomial-exponential bump, pinned exactly:

    eta1(x) = S(2 - |x|),  S(y) = psi(y) / (psi(y) + psi(1 - y)),
    psi(y)  = exp(-1/y) for y > 0 and 0 otherwise,

which is C-infinity, even, identically 1 on [-1, 1] and supported in
[-2, 2].
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError

# complex elements per block of the band-flow stream (1 MiB, cache-sized)
_BLOCK_ELEMENTS = 1 << 16

__all__ = [
    "GeometrySpec",
    "torus",
    "waveguide",
    "eta1",
    "forward_transform",
    "inverse_transform",
    "fractional_symbol",
    "flow_phase",
    "propagate",
    "BandFlow",
    "GridMultiplier",
    "project_leq",
    "littlewood_paley",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GeometrySpec:
    """A discretized torus T^d or truncated waveguide R^n x T^m.

    ``grid_sizes`` lists points per axis; the first ``n_free`` axes are
    truncated free directions (box length ``trunc_length``), the rest are
    period-1 torus directions.
    """

    kind: str                      # "torus" | "waveguide"
    grid_sizes: tuple[int, ...]
    n_free: int = 0
    trunc_length: float = 1.0

    def __post_init__(self):
        if self.kind not in ("torus", "waveguide"):
            raise InvalidInputError(f"unknown geometry kind {self.kind!r}")
        if len(self.grid_sizes) < 1:
            raise InvalidInputError("geometry needs at least one axis")
        if len(self.grid_sizes) > 3:
            raise InvalidInputError("dimensions d > 3 are out of scope")
        for g in self.grid_sizes:
            if g < 4 or not _is_pow2(g):
                raise InvalidInputError(
                    f"grid sizes must be powers of two >= 4, got {g}")
        if self.kind == "torus":
            if self.n_free != 0:
                raise InvalidInputError("torus geometry has no free axes")
        else:
            if not (1 <= self.n_free < len(self.grid_sizes)):
                raise InvalidInputError(
                    "waveguide needs 1 <= n free axes < d")
            if not (self.trunc_length > 0):
                raise InvalidInputError("truncation length must be positive")

    @property
    def dim(self) -> int:
        return len(self.grid_sizes)

    @property
    def n_periodic(self) -> int:
        return self.dim - self.n_free

    def axis_is_free(self, axis: int) -> bool:
        return axis < self.n_free

    @property
    def cell_volume(self) -> float:
        """Volume of one spatial grid cell."""
        v = 1.0
        for ax, g in enumerate(self.grid_sizes):
            length = self.trunc_length if self.axis_is_free(ax) else 1.0
            v *= length / g
        return v

    @property
    def dual_cell(self) -> float:
        """Measure of one frequency-lattice cell (1 on torus axes)."""
        v = 1.0
        for ax in range(self.dim):
            if self.axis_is_free(ax):
                v /= self.trunc_length
        return v

    def axis_coordinates(self, axis: int) -> np.ndarray:
        g = self.grid_sizes[axis]
        if self.axis_is_free(axis):
            L = self.trunc_length
            return -L / 2 + L * np.arange(g) / g
        return np.arange(g) / g

    def axis_frequencies(self, axis: int) -> np.ndarray:
        g = self.grid_sizes[axis]
        k = np.arange(-g // 2, g // 2, dtype=float)
        if self.axis_is_free(axis):
            return k / self.trunc_length
        return k


def torus(grid_sizes) -> GeometrySpec:
    """Torus T^d with the given points per axis (int or tuple)."""
    if np.isscalar(grid_sizes):
        grid_sizes = (int(grid_sizes),)
    return GeometrySpec("torus", tuple(int(g) for g in grid_sizes))


def waveguide(free_sizes, periodic_sizes, trunc_length=1.0) -> GeometrySpec:
    """Waveguide R^n x T^m; free axes first, each truncated to length L."""
    if np.isscalar(free_sizes):
        free_sizes = (int(free_sizes),)
    if np.isscalar(periodic_sizes):
        periodic_sizes = (int(periodic_sizes),)
    sizes = tuple(int(g) for g in free_sizes) + tuple(int(g) for g in periodic_sizes)
    return GeometrySpec("waveguide", sizes, n_free=len(tuple(free_sizes)),
                        trunc_length=float(trunc_length))


@lru_cache(maxsize=64)
def _mesh(geometry: GeometrySpec) -> tuple[np.ndarray, ...]:
    """The centered frequency lattice over the grid: xi per axis, read-only."""
    mesh = tuple(np.meshgrid(*map(geometry.axis_frequencies,
                                  range(geometry.dim)), indexing="ij"))
    for m in mesh:
        m.setflags(write=False)
    return mesh


@lru_cache(maxsize=64)
def _xi2(geometry: GeometrySpec) -> np.ndarray:
    """|xi|^2 on the centered lattice, read-only."""
    r2 = sum(m ** 2 for m in _mesh(geometry))
    r2.setflags(write=False)
    return r2


def _grid_values(values, geometry: GeometrySpec) -> np.ndarray:
    """``values`` as complex128 whose trailing ``dim`` axes are the grid
    (leading axes are a batch), with finite entries only."""
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape[-geometry.dim:] != geometry.grid_sizes:
        raise InvalidInputError(
            f"grid function shape {vals.shape} does not end in the grid "
            f"{geometry.grid_sizes}")
    if not np.isfinite(vals).all():
        raise InvalidInputError("grid function contains non-finite entries")
    return vals


# ---------------------------------------------------------------------------
# smooth bump


def _psi(y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y, dtype=float)
    pos = y > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / y[pos])
    return out


def eta1(x) -> np.ndarray:
    """Pinned C-infinity bump: 1 on [-1,1], supported in [-2,2]."""
    y = 2.0 - np.abs(np.asarray(x, dtype=float))
    a = _psi(y)
    b = _psi(1.0 - y)
    out = np.where(a + b > 0, a / np.where(a + b > 0, a + b, 1.0), 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# transforms


def _offset_phase(geometry: GeometrySpec) -> np.ndarray | None:
    """(-1)**k factors accounting for the [-L/2, L/2) box origin."""
    if geometry.n_free == 0:
        return None
    phase = np.ones((), dtype=float)
    for ax, g in enumerate(geometry.grid_sizes):
        if geometry.axis_is_free(ax):
            p = np.where(np.arange(-g // 2, g // 2) % 2 == 0, 1.0, -1.0)
        else:
            p = np.ones(g)
        shape = [1] * geometry.dim
        shape[ax] = g
        phase = phase * p.reshape(shape)
    return phase


def forward_transform(values, geometry: GeometrySpec) -> np.ndarray:
    """Fourier coefficients of grid values, centered lattice ordering, over
    the trailing grid axes."""
    axes = tuple(range(-geometry.dim, 0))
    coef = np.fft.fftshift(_grid_fft(_grid_values(values, geometry),
                                     geometry.dim), axes=axes) \
        * geometry.cell_volume
    phase = _offset_phase(geometry)
    if phase is not None:
        coef = coef * phase
    return coef


def inverse_transform(coef, geometry: GeometrySpec) -> np.ndarray:
    """Adjoint of :func:`forward_transform`; exact round-trip partner."""
    coef = _grid_values(coef, geometry)
    phase = _offset_phase(geometry)
    if phase is not None:
        coef = coef * phase
    axes = tuple(range(-geometry.dim, 0))
    return _grid_fft(np.fft.ifftshift(coef, axes=axes), geometry.dim,
                     inverse=True) / geometry.cell_volume


# ---------------------------------------------------------------------------
# symbols, flow, projectors


@lru_cache(maxsize=256)
def _symbol_cached(geometry: GeometrySpec, theta: float) -> np.ndarray:
    h, nf = theta / 2.0, geometry.n_free
    if nf == 0:
        sym = _xi2(geometry) ** h
    else:
        xi = _mesh(geometry)
        sym = sum(m ** 2 for m in xi[:nf]) ** h \
            + sum(m ** 2 for m in xi[nf:]) ** h
    sym.setflags(write=False)
    return sym


def fractional_symbol(geometry: GeometrySpec, theta: float) -> np.ndarray:
    """Dispersion symbol phi on the lattice: |xi|^theta, split on waveguide."""
    if theta <= 0:
        raise InvalidInputError("dispersion order theta must be positive")
    return _symbol_cached(geometry, float(theta))


def _frac_product(t: float, sym: np.ndarray) -> np.ndarray:
    """Fractional part of t*sym, accurate to ~1 ulp even for huge products.

    Dekker two-product recovers the exact rounding error of t*sym, so the
    mod-1 reduction does not lose the low bits that the complex exponential
    actually depends on (t*sym can exceed 1e13 at large frequency).
    """
    split = 134217729.0  # 2**27 + 1
    p = t * sym
    th = split * t - (split * t - t)
    tl = t - th
    sh = split * sym - (split * sym - sym)
    sl = sym - sh
    err = ((th * sh - p) + th * sl + tl * sh) + tl * sl
    return np.mod(np.mod(p, 1.0) + err, 1.0)


def flow_phase(t: float | np.ndarray, sym: np.ndarray) -> np.ndarray:
    """The flow phase exp(2*pi*i*t*sym), with t*sym reduced mod 1 first;
    an array ``t`` broadcasts against ``sym``."""
    return np.exp(2j * np.pi * _frac_product(t, sym))


def _phase_blocks(times, levels, k: int):
    """Yield ``(time slice, flow_phase(times[time slice, None], levels))``
    for blocks of ``k`` float times: t0 + m h + eps_m (h the mean step, eps_m
    by an exact two-sum) gets ``flow_phase(m h)``, tabled once, times
    ``flow_phase(t0)`` and 1 + 2 pi i eps_m levels, a truncation under 1e-15
    while max|eps| max|levels| <= 2^-28; other blocks get ``flow_phase``."""
    h = (times[-1] - times[0]) / max(len(times) - 1, 1)
    m = np.arange(k)
    fine = flow_phase(m[:, None] * h, levels)
    for t in range(0, len(times), k):
        a = times[t:t + k]
        s = a - times[t]
        v = s - a
        eps = (s - m[:len(a)] * h) + ((a - (s - v)) - (times[t] + v))
        gap = np.abs(eps).max() * np.abs(levels).max()
        if gap > 2.0 ** -28:
            phase = flow_phase(a[:, None], levels)
        else:
            phase = fine[:len(a)] * flow_phase(times[t], levels)
            if gap:
                phase *= 1 + 2j * np.pi * eps[:, None] * levels
        yield slice(t, t + len(a)), phase


@lru_cache(maxsize=64)
def _flow(geometry: GeometrySpec, theta: float, t: float) -> GridMultiplier:
    """The flow U(t) = exp(2*pi*i*t*phi(D)) as a grid multiplier, the one
    every flow on the grid applies."""
    return GridMultiplier(geometry, flow_phase(
        t, fractional_symbol(geometry, theta)))


def propagate(values, geometry: GeometrySpec, t: float,
              theta: float) -> np.ndarray:
    """Apply the flow: multiply coefficients by exp(2*pi*i*t*phi(xi)).

    The phase argument ``t*phi`` is reduced mod 1 (with an exact
    two-product) before scaling by 2*pi; this keeps the group law at
    roundoff level instead of losing a dozen digits inside the complex
    exponential when ``t*phi`` is large.
    """
    values = _grid_values(values, geometry)
    if not np.isfinite(t):
        raise InvalidInputError("propagation time must be finite")
    if t == 0.0:
        return values
    return _flow(geometry, theta, float(t))(values)


@lru_cache(maxsize=256)
def _band_multiplier(geometry: GeometrySpec, N: int) -> np.ndarray:
    """Cutoff multiplier at scale N; sharp on torus, smooth on waveguide."""
    mult = np.ones((), dtype=float)
    smooth = geometry.n_free > 0
    for ax in range(geometry.dim):
        xi = geometry.axis_frequencies(ax)
        if smooth:
            m = eta1(xi / N)
        else:
            m = (np.abs(xi) <= N).astype(float)
        m = m.copy()
        m[0] = 0.0  # Nyquist row xi = -G/2 has no mirror partner
        shape = [1] * geometry.dim
        shape[ax] = len(xi)
        mult = mult * m.reshape(shape)
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=256)
def _band_mask(geometry: GeometrySpec, N: int) -> np.ndarray:
    """The sharp band [-N, N]^d (no Nyquist rows): where the cutoff is 1."""
    mask = _band_multiplier(geometry, N) == 1.0
    mask.setflags(write=False)
    return mask


def project_leq(values, geometry: GeometrySpec, N: int) -> np.ndarray:
    """Frequency cutoff P_{<=N}."""
    if N < 1 or int(N) != N:
        raise InvalidInputError("cutoff scale N must be a positive integer")
    return GridMultiplier(geometry, _band_multiplier(geometry, int(N)))(
        _grid_values(values, geometry))


def _exact_grid(grid_sizes, box, q) -> tuple[int, ...]:
    """Per axis, the fewest points on which the Riemann sum of |u|^q is
    exact for u with band box ``box`` (largest index K = (box - 1) // 2).

    For even integer q, |u|^q = |u^(q/2)|^2 has index at most q K, and the
    mean of exp(2 pi i k j / G) over G points vanishes unless G divides k:
    an axis with G > q K integrates exactly, and so does the smallest even
    5-smooth G' > q K.  Other axes, and other q, keep G (their sums carry
    aliased terms).
    """
    if not (math.isfinite(q) and q == int(q) and int(q) % 2 == 0):
        return tuple(grid_sizes)
    out = []
    for g, b in zip(grid_sizes, box):
        n = int(q) * ((b - 1) // 2) + 1
        n += n % 2
        while n < g and not _is_smooth(n):
            n += 2
        out.append(min(g, n))
    return tuple(out)


def _is_smooth(n: int) -> bool:
    # no prime factor above 5
    for f in (2, 3, 5):
        while n % f == 0:
            n //= f
    return n == 1


class BandFlow:
    """The band-limited flow U(t) P_{<=N} on coefficient vectors of the
    sharp band [-N, N]^d (Nyquist rows excluded).

    ``phi`` (B,) lists the band's symbol values in C order of the centered
    lattice, the order of every coefficient row.  The band is a box, so a
    row is that box in C order.  The setup keeps the box-origin sign of
    each band mode over the cell volume and lists the distinct symbol
    values (phi is even), the only phases evaluated.

    Blocks are sampled on ``grid`` (cell volume ``cell_volume``): the
    geometry's grid, or with ``q`` the exact grid of ``_exact_grid``.  For
    even integer q every axis whose config size G exceeds q K (K the
    band's largest index on that axis) shrinks to the smallest even
    5-smooth size above q K; the Riemann sum of |u|^q, a trigonometric
    polynomial of index at most q K, is exact on both grids, so a norm
    reduced with ``cell_volume`` equals the config grid's to roundoff.
    Other axes and other q (inf, odd, non-integer) keep the config grid.
    Config grids stay powers of two; the evaluation grid is internal to
    the stream, so a consumer of the fields themselves passes no ``q``.
    """

    def __init__(self, geometry: GeometrySpec, N: int, theta: float,
                 q: float | None = None):
        mask = _band_mask(geometry, int(N))
        self.geometry = geometry
        self._mask = mask
        self.phi = fractional_symbol(geometry, theta)[mask]
        self._box = tuple(int(np.ptp(i)) + 1 for i in np.nonzero(mask))
        self.grid = geometry.grid_sizes if q is None \
            else _exact_grid(geometry.grid_sizes, self._box, q)
        self.cell_volume = geometry.cell_volume * math.prod(
            g / e for g, e in zip(geometry.grid_sizes, self.grid))
        self._levels, self._level = np.unique(self.phi, return_inverse=True)
        # the box-origin sign of each band mode over the cell volume
        offset = _offset_phase(geometry)
        self._scale = 1 / self.cell_volume if offset is None \
            else offset[mask] / self.cell_volume
        # fullest axis first: the sparse axes stay pruned the longest
        self._passes = sorted(range(geometry.dim),
                              key=lambda a: -self._box[a] / self.grid[a])

    @property
    def size(self) -> int:
        return len(self.phi)

    def block_shape(self, samples: int, steps: int) -> tuple[int, int]:
        """(steps k, samples s) per block, k * s * grid points within
        ``_BLOCK_ELEMENTS`` (or one frame): a batch that fits is blocked
        over time, a larger one is cut into chunks of one step each."""
        points = math.prod(self.grid)
        s = min(samples, max(1, _BLOCK_ELEMENTS // points))
        return min(steps, max(1, _BLOCK_ELEMENTS // (s * points))), s

    def blocks(self, rows, times, reduce=None, ordered_map=map):
        """An iterator of ``(time slice, sample slice, values)``: ``values``
        (k, s, *grid) is U(times[time slice]) f on ``grid`` for the
        rows[sample slice] of ``rows``, the band coefficients (S, B) of S
        samples: an array, or a row source with ``shape`` and ``draw(n)``,
        the next n rows (``ons.NormalRows``).  The chunks of a time block
        share its phase, from ``_phase_blocks`` (one exact phase per
        block); ``values`` is overwritten next.

        The stream holds the shorter of its two long axes.  With fewer
        times than samples (T < S) the items go sample-major: the phases of
        every time block are held, and a source draws each sample chunk
        when its first item is taken.  Otherwise they go time-major, the
        rows drawn once.  Each sample's blocks arrive in time order.

        Each (time block, sample chunk) pair is one item, computed by a
        function that ``ordered_map`` applies to the items in stream order:
        the builtin ``map`` by default, or any map that yields its results
        in item order, however many threads compute them.  An item runs on
        pass buffers of the thread computing it, allocated once per thread
        per stream.  With ``reduce``, an item yields ``reduce(values)``,
        computed on that thread; a map that runs items concurrently needs a
        ``reduce`` whose result does not share the buffers.
        """
        draw = getattr(rows, "draw", None)
        if draw is None:
            rows = np.asarray(rows)
        times = np.asarray(times, dtype=float)
        S, T = rows.shape[0], len(times)
        k, s = self.block_shape(S, T)
        local = threading.local()
        # per pass axis (K = box // 2): the centered band rows K.. and ..K,
        # and the grid rows 0..K and G-K.. they fill in unshifted order; on
        # the last axis the gap between them
        cuts = []
        for a in self._passes:
            K, G = self._box[a] // 2, self.grid[a]
            lead = (slice(None),) * (a + 2)
            cuts.append([(lead + (slice(K, None),), lead + (slice(K + 1),)),
                         (lead + (slice(K),), lead + (slice(G - K, G),))])
        gap, last = lead + (slice(K + 1, G - K),), a + 2

        def pads():
            # pass i transforms buffer i, zero-padded on its axis, into the
            # band rows of buffer i + 1; the last pass runs in place
            if not hasattr(local, "pads"):
                dims, local.pads = list(self._box), []
                for a in self._passes:
                    dims[a] = self.grid[a]
                    local.pads.append(np.zeros((k, s, *dims), np.complex128))
            return local.pads

        def phases():
            for ts, phase in _phase_blocks(times, self._levels, k):
                phase = phase[:, self._level]
                phase *= self._scale
                yield ts, phase.reshape((len(phase), 1) + self._box)

        def chunks():
            for j in range(0, S, s):
                ss = slice(j, min(j + s, S))
                yield ss, rows[ss] if draw is None else draw(ss.stop - j)

        if T < S:
            held = list(phases())
            items = ((ts, ss, f, phase) for ss, f in chunks()
                     for ts, phase in held)
        else:
            if draw is not None:
                rows, draw = draw(S), None
            items = ((ts, ss, f, phase) for ts, phase in phases()
                     for ss, f in chunks())

        def block(item):
            ts, ss, f, phase = item
            f = f.reshape((1, -1) + self._box)
            bufs = [b[:len(phase), :f.shape[1]] for b in pads()]
            bufs[-1][gap] = 0  # the last pass, in place, filled the gap
            for c, g in cuts[0]:
                np.multiply(f[c], phase[c], out=bufs[0][g])
            for i, a in enumerate(self._passes[:-1]):
                for c, g in cuts[i + 1]:
                    np.fft.ifft(bufs[i][c], axis=a + 2, out=bufs[i + 1][g])
            u = np.fft.ifft(bufs[-1], axis=last, out=bufs[-1])
            return ts, ss, u if reduce is None else reduce(u)

        return ordered_map(block, items)

    def gram(self, times, w) -> np.ndarray:
        """The (B, B) matrix E* diag(w) E, for E the folded extension matrix
        at ``times`` (see ``schatten``; its dense form is a test oracle)
        and a real film ``w`` (T, *geometry grid), without forming E.  Two
        band modes pair only through their index difference:

            (E* w E)_bc = sum_t c_t conj(P_t[b]) P_t[c] w^_t[k_b - k_c],

        with c_t the trapezoid weight times cell_volume * dual_cell, P_t the
        flow phase times the box-origin sign, and w^_t the grid FFT of w at
        time t.  Every difference k_b - k_c is a lattice index and the grid
        sum is periodic in it, so the identity is exact.  Time blocks keep
        the (k, B, B) products within ``_BLOCK_ELEMENTS`` (or one time)."""
        from .norms import trapezoid_weights
        geom = self.geometry
        times = np.asarray(times, dtype=float)
        w = np.asarray(w)
        if w.shape != (len(times),) + geom.grid_sizes or \
                np.iscomplexobj(w):
            raise InvalidInputError(
                f"weight film must be real with shape ({len(times)},)+"
                f"{geom.grid_sizes}, got {w.dtype} {w.shape}")
        c = trapezoid_weights(times) * (geom.cell_volume * geom.dual_cell)
        pair = 0
        for g, i in zip(geom.grid_sizes, np.nonzero(self._mask)):
            pair = pair * g + (i[:, None] - i[None, :]) % g
        offset = _offset_phase(geom)
        sign = 1.0 if offset is None else offset[self._mask]
        B = self.size
        k = max(1, _BLOCK_ELEMENTS // max(B * B, math.prod(geom.grid_sizes)))
        out = np.zeros((B, B), dtype=np.complex128)
        for ts, phase in _phase_blocks(times, self._levels, k):
            P = phase[:, self._level] * sign
            wp = _grid_fft(w[ts], geom.dim).reshape(len(P), -1)[:, pair]
            wp *= P[:, None, :]
            out += np.einsum("tb,tbc->bc", P.conj() * c[ts, None], wp)
        return out


def _grid_fft(a: np.ndarray, d: int, inverse: bool = False) -> np.ndarray:
    """fftn (ifftn) over the last d axes; numpy's 1-D call where d = 1
    skips the per-call axis handling that dominates a small grid."""
    f = (np.fft.ifftn, np.fft.ifft) if inverse else (np.fft.fftn, np.fft.fft)
    return f[1](a) if d == 1 else f[0](a, axes=tuple(range(-d, 0)))


class GridMultiplier:
    """The Fourier multiplier m(D) acting on grid samples.

    ``centered`` holds m(xi) on the centered lattice; it is stored once in
    the unshifted FFT layout.  The transform scalings and the box-origin
    sign cancel in the round trip, so m(D) f is ``ifftn(m * fftn(f))``.
    """

    def __init__(self, geometry: GeometrySpec, centered: np.ndarray):
        self.geometry = geometry
        self.m = np.fft.ifftshift(centered)
        self.m.setflags(write=False)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """m(D) over the trailing grid axes; leading axes are a batch."""
        d = self.geometry.dim
        return _grid_fft(self.m * _grid_fft(values, d), d, inverse=True)


def littlewood_paley(values, geometry: GeometrySpec, k: int) -> np.ndarray:
    """Dyadic frequency block at scale 2**k (k = 0 is the lowest block)."""
    if k < 0 or int(k) != k:
        raise InvalidInputError("block index k must be a nonnegative integer")
    k = int(k)
    if k == 0:
        return project_leq(values, geometry, 1)
    return GridMultiplier(geometry, _band_multiplier(geometry, 2 ** k)
                          - _band_multiplier(geometry, 2 ** (k - 1)))(
        _grid_values(values, geometry))
