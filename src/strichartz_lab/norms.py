"""Mixed space-time norms, admissibility classification, predicted loss
exponents, Besov potential norms, and log-log scaling fits.

Exponent conventions: Lebesgue exponents are floats in [1, inf] with
``math.inf`` for the sup norm.  The three admissibility identities are

    density:           2/p + d/q = d
    theta-line:        theta/p + d/q = d
    sharp-schrodinger: 2/p + d/q = d/2

and a pair may satisfy several at once (e.g. the density and theta lines
cross at theta = 2); the classifier reports every identity that holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import GeometrySpec, littlewood_paley

__all__ = [
    "SigmaPrediction",
    "ScalingFit",
    "lq_norm",
    "trapezoid_weights",
    "frames_norm",
    "mixed_norm",
    "classify_pair",
    "predict_sigma",
    "fit_scaling",
    "besov_sup_norm",
    "SIGMA_SELECTORS",
    "ADMISSIBILITY_KINDS",
]

_TOL = 1e-12
# the identities of the module docstring, in classify_pair's order
ADMISSIBILITY_KINDS = ("density", "theta-line", "sharp-schrodinger")


def _inv(p: float) -> float:
    if p == math.inf:
        return 0.0
    return 1.0 / p


def _check_exponent(p: float, name: str) -> float:
    p = float(p)
    if not (p >= 1):
        raise InvalidInputError(f"{name} must lie in [1, inf], got {p}")
    return p


# ---------------------------------------------------------------------------
# Lebesgue and mixed norms


def _abs_pow(a, q):
    # a^q for a >= 0; the common even exponents square the caller's fresh
    # array a in place, with no frame-sized temporaries
    if q in (2.0, 4.0, 8.0):
        for _ in range(int(q).bit_length() - 1):
            a *= a
        return a
    return a ** q


def _in_range(s):
    # a sum of powers is kept where it is a normal float: a subnormal one
    # has lost bits, 0 and inf have lost all of them
    return (s >= np.finfo(float).tiny) & (s < math.inf)


def _lebesgue(values, q, measure, axis):
    # lq_norm with the exponent already checked, for use once per frame
    a = np.abs(values)
    if q == math.inf:
        return a.max(axis=axis)
    try:
        with np.errstate(over="raise", under="raise"):
            return (np.sum(_abs_pow(a, q), axis=axis) * measure) ** (1 / q)
    except FloatingPointError:
        a = np.abs(values)
    # a power left the float range on the way: the direct sum where it is
    # still in range, else top * ||v / top||_q (nan where top is 0 or inf,
    # which keeps the direct sum)
    top = a.max(axis=axis, keepdims=True)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scaled, out = (np.sum(_abs_pow(b, q), axis=axis) * measure
                       for b in (a / top, a))
        scaled = scaled ** (1 / q) * np.squeeze(top, axis)
    return np.where(_in_range(out) | np.isnan(scaled), out ** (1 / q),
                    scaled)[()]


def lq_norm(values, q: float, measure: float = 1.0, axis=None):
    """(sum |v|^q * measure)^(1/q) over ``axis`` (every axis by default);
    q = inf is the max of |v| (a lower bound on the sup for grid samples).

    Where a large finite q takes the sum of |v|^q out of the normal float
    range (an inf, a subnormal, or 0 from nonzero data), the norm is
    recomputed as top * ||v / top||_q, top the max of |v| over ``axis``;
    other results are the direct sum's.
    """
    return _lebesgue(values, _check_exponent(q, "q"), measure, axis)


def trapezoid_weights(times) -> np.ndarray:
    """Trapezoid weights of a time grid: at least two times, strictly
    increasing and uniform to 1e-9 relative (plus 1e-15)."""
    dt = np.diff(times)
    if dt.ndim != 1 or len(dt) < 1:
        raise InvalidInputError("need at least two time samples")
    if not dt.min() > 0:
        raise InvalidInputError("times must be strictly increasing")
    h = dt[0]
    if not max(dt.max() - h, h - dt.min()) <= 1e-15 + 1e-9 * h:
        raise InvalidInputError("time grid must be uniform")
    del dt  # no more than two time-grid arrays live at once
    w = np.full(len(times), h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def frames_norm(stream, times, p: float, q: float, measure: float,
                batch: int = 1):
    """L^p_t L^q_x norms (batch,) of a batch of samples, reduced block by
    block as they arrive: Riemann sum in space with cell ``measure``,
    trapezoid in time; either exponent may be inf, realized as a max.

    ``stream(reduce)`` yields ``(time slice, sample slice, reduce(values))``
    for blocks ``values`` (k, s, *grid), as ``BandFlow.blocks(rows, times,
    reduce)`` does: ``reduce`` is the Lebesgue sum over the grid axes, so
    it runs wherever a block is computed and only the (k, s) space norms
    come back.  They are added in stream order, so the norms do not depend
    on which thread computed a block.

    ``measure`` is the cell volume of the grid the blocks were sampled on,
    ``BandFlow.cell_volume``.  A stream built with an even integer q
    samples each axis whose config size G exceeds q K (K the band's
    largest index there) on the smallest even 5-smooth size above q K:
    |u|^q is a trigonometric polynomial of index at most q K, which both
    grids integrate exactly, so the norm equals the config grid's to
    roundoff.  Other axes and exponents keep the config grid, and config
    grids stay powers of two.

    At a large finite exponent, where a direct sum leaves the normal float
    range (an inf, a subnormal, or 0 from nonzero data), the space norm is
    ``lq_norm``'s rescaled one; from the first block whose time power
    leaves the range, each block's (w^(1/p) g) also joins a running time
    norm through the same rescale, used where the direct time sum does.
    Results in range are the direct sums'.
    """
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    weights = trapezoid_weights(times)
    acc = np.zeros(batch)
    norm = None
    for ts, ss, g in stream(
            lambda u: _lebesgue(u, q, measure, tuple(range(2, u.ndim)))):
        if p == math.inf:
            acc[ss] = np.maximum(acc[ss], g.max(axis=0))
            continue
        if norm is None:
            try:
                with np.errstate(over="raise", under="raise"):
                    acc[ss] = acc[ss] + weights[ts] @ _abs_pow(g.copy(), p)
                continue
            except FloatingPointError:
                # from this block on, also carry the time norms, each
                # block joined to them by _lebesgue's rescale
                norm = acc ** (1 / p)
        norm[ss] = _lebesgue(
            np.vstack([norm[ss], g * weights[ts, None] ** (1 / p)]), p, 1, 0)
        with np.errstate(over="ignore", under="ignore"):
            acc[ss] += weights[ts] @ _abs_pow(g, p)
    out = acc if p == math.inf else acc ** (1.0 / p)
    return out if norm is None else np.where(_in_range(acc), out, norm)


def mixed_norm(film, times, p: float, q: float, measure: float) -> float:
    """L^p_t L^q_x norm of a film (T, *grid) sampled at ``times`` on a grid
    of cell volume ``measure``: one ``frames_norm`` block."""
    film = np.asarray(film)
    if len(film) != len(times):
        raise InvalidInputError(f"{len(film)} frames for {len(times)} times")

    def stream(reduce):
        return [(slice(None), slice(None), reduce(film[:, None]))]
    return float(frames_norm(stream, times, p, q, measure)[0])


# ---------------------------------------------------------------------------
# admissibility


def classify_pair(d: int, p: float, q: float, theta: float) -> tuple[str, ...]:
    """The identities of ``ADMISSIBILITY_KINDS`` that (p, q) satisfies in
    dimension d, possibly none."""
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    if theta <= 0:
        raise InvalidInputError("theta must be positive")
    ip = _inv(_check_exponent(p, "p"))
    iq = _inv(_check_exponent(q, "q"))
    residuals = (2 * ip + d * iq - d, theta * ip + d * iq - d,
                 2 * ip + d * iq - d / 2)
    return tuple(k for k, r in zip(ADMISSIBILITY_KINDS, residuals)
                 if abs(r) < _TOL)


# ---------------------------------------------------------------------------
# predicted derivative-loss exponents


@dataclass(frozen=True)
class SigmaPrediction:
    """Loss exponent and coefficient-summability bound of one estimate.

    ``alpha_max`` is the largest admitted l^{alpha'} exponent, None for
    single-function estimates; ``alpha_open`` marks a strict (open) bound.
    """

    sigma: float
    alpha_max: float | None = None
    alpha_open: bool = False

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidInputError("loss exponent must be >= 0")
        if self.alpha_max is not None and self.alpha_max < 1:
            raise InvalidInputError("alpha' bound must be >= 1")


def _require(ok: bool, reason: str) -> None:
    """Reject parameters outside the selected estimate's hypothesis."""
    if not ok:
        raise InvalidInputError(f"estimate not applicable: {reason}")


def _duality_alpha(q: float) -> float:
    """alpha' = 2q/(q+1) of the duality form (2 at q = inf)."""
    return 2 * q / (q + 1) if q != math.inf else 2.0


def _sel_diagonal_schrodinger(p, q, theta, n, m, sigma):
    """Classical flow, diagonal space-time exponent, frequency cutoff."""
    d = n + m
    _require(p == q, "diagonal estimate needs p = q")
    _require(2 <= p, "needs p >= 2")
    crit = 2 * (d + 2) / d
    loss = 0.0 if p <= crit else d / 2 - (d + 2) * _inv(p)
    return SigmaPrediction(max(0.0, loss))


def _sel_fractional_single(p, q, theta, n, m, sigma):
    """Fractional single-function estimate on torus or full space."""
    d = n + m
    _require(n == 0, "stated for torus / full space only")
    _require(theta != 1, "theta = 1 excluded")
    _require(2 <= p and 2 <= q < math.inf,
             "needs 2 <= p <= inf, 2 <= q < inf")
    _require(2 * _inv(p) + d * _inv(q) <= d / 2 + _TOL,
             "needs 2/p + d/q <= d/2")
    return SigmaPrediction(_inv(p) if theta > 1 else (2 - theta) * _inv(p))


def _sel_theta_line_ons(p, q, theta, n, m, sigma):
    """One-dimensional orthonormal-family estimate on the theta line."""
    _require(n + m == 1, "one-dimensional estimate")
    _require(theta > 2, "needs theta > 2")
    _require(abs(theta * _inv(p) + _inv(q) - 1.0) <= _TOL,
             "pair not on the theta line")
    return SigmaPrediction((theta - 1) * _inv(p), alpha_max=_duality_alpha(q))


def _vertical_decomposition(p, q, theta, lower_iq: float):
    """Split (1/q, 1/p) along a vertical chord between the density and
    theta lines (d = 1): the weight tau of the theta-line end and the p of
    each end, or None off the chord."""
    iq, ip = _inv(q), _inv(p)
    if iq < lower_iq - _TOL:
        return None
    top = (1 - iq) / 2.0          # density line at this 1/q
    bot = (1 - iq) / theta        # theta line at this 1/q
    if not (bot - _TOL <= ip <= top + _TOL) or top <= bot:
        return None
    tau = min(1.0, max(0.0, (top - ip) / (top - bot)))
    p0 = 1.0 / top if top > 0 else math.inf
    p1 = 1.0 / bot if bot > 0 else math.inf
    return tau, p0, p1


def _sel_interpolated_region_ons(p, q, theta, n, m, sigma):
    """Interpolation of the two line estimates across the triangle; both
    ends share q, so the alpha' bound is the duality bound of q."""
    _require(n + m == 1 and theta > 2, "one-dimensional, theta > 2")
    _require(not (_inv(q) < _TOL and abs(_inv(p) - 0.5) < _TOL),
             "critical corner excluded")
    dec = _vertical_decomposition(p, q, theta, 0.0)
    _require(dec is not None, "point admits no chord decomposition")
    tau, p0, p1 = dec
    loss = (1 - tau) * _inv(p0) + tau * (theta - 1) * _inv(p1)
    return SigmaPrediction(loss, alpha_max=_duality_alpha(q))


def _sel_tunable_loss_ons(p, q, theta, n, m, sigma):
    """Chosen loss sigma against an alpha' threshold that grows with it."""
    _require(n + m == 1 and theta > 2, "one-dimensional, theta > 2")
    dec = _vertical_decomposition(p, q, theta, 1.0 / 3.0)
    _require(dec is not None, "point outside the tunable region")
    tau, _, p1 = dec
    lo, hi = tau * (theta - 1) * _inv(p1), (theta - 1) * _inv(p1)
    sigma = hi if sigma is None else sigma
    _require(lo < sigma <= hi + _TOL,
             f"sigma must lie in ({lo:.6g}, {hi:.6g}]")
    alpha = 2 * (theta - 1) / (2 * (theta - 1) - sigma * theta)
    return SigmaPrediction(sigma, alpha_max=alpha, alpha_open=True)


def _sel_waveguide_single(p, q, theta, n, m, sigma):
    """Single-function estimate on the waveguide, sharp scaling line."""
    d = n + m
    _require(n > 0, "stated for the waveguide only")
    _require(theta > 1, "needs theta > 1")
    _require(p >= 2 and abs(_inv(p) - (d / 2) * (0.5 - _inv(q))) <= _TOL,
             "needs p >= 2 with 1/p = (d/2)(1/2 - 1/q)")
    return SigmaPrediction(max(0.0, d / 2 - (d + 2) * _inv(q)))


def _waveguide_kappa(theta: float, n: int, m: int) -> float | None:
    if theta > 3 + m / n:
        return 1 + n * (theta - 2) / (m + n)
    if 1 < theta <= 3 + m / n:
        return 2.0
    return None


def _sel_waveguide_ons(p, q, theta, n, m, sigma):
    """Orthonormal-family estimate on the waveguide density line."""
    d = n + m
    _require(n > 0, "stated for the waveguide only")
    _require(theta != 1, "theta = 1 excluded")
    _require(abs(2 * _inv(p) + d * _inv(q) - d) <= _TOL,
             "pair not on the density line")
    _require(p == math.inf or p > (d + 1) / d, "needs p > (d+1)/d")
    _require(d < 2 or q < (d + 1) / (d - 1),
             "needs q below the critical exponent")
    kappa = _waveguide_kappa(theta, n, m)
    loss = 2 * (2 - theta) * _inv(p) if kappa is None else kappa * _inv(p)
    return SigmaPrediction(loss, alpha_max=_duality_alpha(q))


def _sel_waveguide_tunable_ons(p, q, theta, n, m, sigma):
    """Waveguide estimate trading a smaller loss for a smaller alpha'."""
    d = n + m
    _require(n > 0, "stated for the waveguide only")
    kappa = _waveguide_kappa(theta, n, m)
    _require(kappa is not None, "needs theta > 1")
    _require(1 <= q <= (d + 2) / d + _TOL, "needs q <= (d+2)/d")
    _require(abs(2 * _inv(p) + d * _inv(q) - d) <= _TOL,
             "pair not on the density line")
    sigma_1 = kappa * _inv(p)
    sigma = sigma_1 if sigma is None else sigma
    _require(0 < sigma <= sigma_1 + _TOL,
             f"sigma must lie in (0, {sigma_1:.6g}]")
    return SigmaPrediction(sigma, alpha_max=d / (d - sigma / kappa),
                           alpha_open=True)


SIGMA_SELECTORS = {
    "diagonal-schrodinger-cutoff": _sel_diagonal_schrodinger,
    "fractional-single": _sel_fractional_single,
    "theta-line-ons": _sel_theta_line_ons,
    "interpolated-region-ons": _sel_interpolated_region_ons,
    "tunable-loss-ons": _sel_tunable_loss_ons,
    "waveguide-single": _sel_waveguide_single,
    "waveguide-ons": _sel_waveguide_ons,
    "waveguide-tunable-ons": _sel_waveguide_tunable_ons,
}


def predict_sigma(estimate: str, geometry: GeometrySpec, p: float, q: float,
                  theta: float, sigma: float | None = None) -> SigmaPrediction:
    """Loss exponent sigma and alpha' bound of a named estimate on a
    geometry R^n x T^m (n = 0 on the torus), at the pair (p, q) and
    dispersion theta; ``sigma`` picks the loss of a tunable estimate (its
    largest by default).

    Raises InvalidInputError for an unknown estimate, and with an
    "estimate not applicable" reason where the parameters fall outside the
    estimate's hypothesis.
    """
    if estimate not in SIGMA_SELECTORS:
        raise InvalidInputError(
            f"unknown estimate selector {estimate!r}; choose from "
            f"{sorted(SIGMA_SELECTORS)}")
    return SIGMA_SELECTORS[estimate](
        _check_exponent(p, "p"), _check_exponent(q, "q"), theta,
        geometry.n_free, geometry.n_periodic, sigma)


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of log(value) against log(N)."""

    slope: float
    max_residual: float


def fit_scaling(points) -> ScalingFit:
    """Least-squares power-law exponent through (N, value) samples."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise InvalidInputError("need at least 3 points for a scaling fit")
    ns = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(ns <= 0) or np.any(vs <= 0):
        raise InvalidInputError("scaling fits need positive N and values")
    x = np.log(ns)
    y = np.log(vs)
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = np.max(np.abs(y - (intercept + slope * x)))
    return ScalingFit(float(slope), float(resid))


# ---------------------------------------------------------------------------
# Besov sup norm


def _besov_top(geometry: GeometrySpec) -> int:
    """Index of the top dyadic block: the blocks above it vanish on the
    lattice."""
    xi_max = max(float(np.max(np.abs(geometry.axis_frequencies(ax))))
                 for ax in range(geometry.dim))
    return max(1, int(math.ceil(math.log2(max(xi_max, 1.0)))) + 1)


def besov_sup_norm(w, geometry: GeometrySpec, s: float,
                   qprime: float) -> float:
    """sup_k 2^{k s} || dyadic block k of w ||_{L^{q'}}.

    Finite on the grid: blocks vanish once the dyadic scale dominates the
    lattice, so the sup runs over finitely many k.
    """
    qprime = _check_exponent(qprime, "q'")
    best = 0.0
    for k in range(_besov_top(geometry) + 1):
        block = littlewood_paley(w, geometry, k)
        best = max(best, 2.0 ** (k * s) * float(
            lq_norm(block, qprime, geometry.cell_volume)))
    return best
