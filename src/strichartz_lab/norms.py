"""Mixed space-time norms, admissibility classification, predicted loss
exponents, Besov potential norms, and log-log scaling fits.

Exponent conventions: Lebesgue exponents are floats in [1, inf] with
``math.inf`` for the sup norm.  The three admissibility identities are

    density:           2/p + d/q = d
    theta-line:        theta/p + d/q = d
    sharp-schrodinger: 2/p + d/q = d/2

and a pair may satisfy several at once (e.g. the density and theta lines
cross at theta = 2); the classifier reports every identity that holds.

The region taxonomy lives on the density line, in (1/q, 1/p) coordinates:
A = ((d-1)/(d+1), d/(d+1)) is the critical point, C = ((d-2)/d, 1) the
endpoint, the open segment with q below the critical exponent is
subcritical and above it supercritical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import Field, GeometrySpec, SpaceTimeField, littlewood_paley

__all__ = [
    "AdmissiblePair",
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


def _lebesgue(values, q, measure, axis):
    # lq_norm with the exponent already checked, for use once per frame
    a = np.abs(values)
    if q == math.inf:
        return a.max(axis=axis)
    return (np.sum(_abs_pow(a, q), axis=axis) * measure) ** (1.0 / q)


def lq_norm(values, q: float, measure: float = 1.0, axis=None):
    """(sum |v|^q * measure)^(1/q) over ``axis`` (every axis by default);
    q = inf is the max of |v| (a lower bound on the sup for grid samples).
    """
    return _lebesgue(values, _check_exponent(q, "q"), measure, axis)


def trapezoid_weights(times) -> np.ndarray:
    """Trapezoid weights of a uniform time grid."""
    if len(times) < 2:
        raise InvalidInputError("need at least two time samples")
    w = np.full(len(times), times[1] - times[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def frames_norm(blocks, times, p: float, q: float, measure: float,
                batch: int = 1):
    """L^p_t L^q_x norms (batch,) of a batch of samples, reduced block by
    block as they arrive: Riemann sum in space with cell ``measure``,
    trapezoid in time.  Blocks are ``(time slice, sample slice, values (k,
    s, *grid))`` as yielded by ``BandFlow.blocks``; either exponent may be
    inf, realized as a max.

    ``measure`` is the cell volume of the grid the blocks were sampled on,
    ``BandFlow.cell_volume``.  A stream built with an even integer q
    samples each axis whose config size G exceeds q K (K the band's
    largest index there) on the smallest even 5-smooth size above q K:
    |u|^q is a trigonometric polynomial of index at most q K, which both
    grids integrate exactly, so the norm equals the config grid's to
    roundoff.  Other axes and exponents keep the config grid, and config
    grids stay powers of two.
    """
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    weights = trapezoid_weights(times)
    acc = np.zeros(batch)
    for ts, ss, u in blocks:
        g = _lebesgue(u, q, measure, tuple(range(2, u.ndim)))
        if p == math.inf:
            acc[ss] = np.maximum(acc[ss], g.max(axis=0))
        else:
            acc[ss] += weights[ts] @ _abs_pow(g, p)
    return acc if p == math.inf else acc ** (1.0 / p)


def mixed_norm(F: SpaceTimeField, p: float, q: float) -> float:
    """L^p_t L^q_x norm of a space-time field: one ``frames_norm`` block."""
    block = (slice(None), slice(None), F.values[:, None])
    return float(frames_norm([block], F.times, p, q,
                             F.geometry.cell_volume)[0])


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissiblePair:
    """Classification of a Lebesgue pair against the scaling identities."""

    p: float
    q: float
    d: int
    theta: float
    kinds: tuple[str, ...]        # every identity satisfied, possibly empty
    region: str                   # on the density line: subcritical /
                                  # critical-A / supercritical / keel-tao-C;
                                  # otherwise off-line

    @property
    def kind(self) -> str:
        """Single label: the unique kind, 'multiple', or 'none'."""
        if len(self.kinds) == 1:
            return self.kinds[0]
        return "multiple" if self.kinds else "none"


def classify_pair(d: int, p: float, q: float, theta: float) -> AdmissiblePair:
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    if theta <= 0:
        raise InvalidInputError("theta must be positive")
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    ip, iq = _inv(p), _inv(q)
    residuals = (2 * ip + d * iq - d, theta * ip + d * iq - d,
                 2 * ip + d * iq - d / 2)
    kinds = [k for k, r in zip(ADMISSIBILITY_KINDS, residuals)
             if abs(r) < _TOL]

    region = "off-line"
    if "density" in kinds:
        point_a = ((d - 1) / (d + 1), d / (d + 1))
        point_c = ((d - 2) / d, 1.0) if d >= 2 else None
        if abs(iq - point_a[0]) < _TOL and abs(ip - point_a[1]) < _TOL:
            region = "critical-A"
        elif d >= 3 and point_c and abs(iq - point_c[0]) < _TOL \
                and abs(ip - point_c[1]) < _TOL:
            region = "keel-tao-C"
        elif iq > point_a[0]:           # q below the critical exponent
            region = "subcritical"
        else:
            region = "supercritical"
    return AdmissiblePair(p, q, d, theta, tuple(kinds), region)


# ---------------------------------------------------------------------------
# predicted derivative-loss exponents


@dataclass(frozen=True)
class SigmaPrediction:
    """Loss exponent and coefficient-summability bound of one estimate.

    ``alpha_max`` is the largest admitted l^{alpha'} exponent, None for
    single-function estimates; ``alpha_open`` marks a strict (open) bound.
    ``applicable`` is False when the queried parameters fall outside the
    selected estimate's hypothesis, with the reason in ``note``.
    """

    sigma: float | None
    theorem_tag: str
    alpha_max: float | None = None
    alpha_open: bool = False
    applicable: bool = True
    note: str = ""

    def __post_init__(self):
        if self.applicable:
            if self.sigma is None or self.sigma < 0:
                raise InvalidInputError("loss exponent must be >= 0")
            if self.alpha_max is not None and self.alpha_max < 1:
                raise InvalidInputError("alpha' bound must be >= 1")


def _na(tag: str, note: str) -> SigmaPrediction:
    return SigmaPrediction(None, tag, applicable=False, note=note)


def _sel_diagonal_schrodinger(s):
    """Classical flow, diagonal space-time exponent, frequency cutoff."""
    tag = "diagonal-schrodinger-cutoff"
    p, q, d = s["p"], s["q"], s["d"]
    if p != q:
        return _na(tag, "diagonal estimate needs p = q")
    if not (2 <= p):
        return _na(tag, "needs p >= 2")
    crit = 2 * (d + 2) / d
    sigma = 0.0 if p <= crit else d / 2 - (d + 2) * _inv(p)
    return SigmaPrediction(max(0.0, sigma), tag)


def _sel_fractional_single(s):
    """Fractional single-function estimate on torus or full space."""
    tag = "fractional-single"
    p, q, d, theta = s["p"], s["q"], s["d"], s["theta"]
    if s.get("manifold", "torus") == "waveguide":
        return _na(tag, "stated for torus / full space only")
    if theta == 1:
        return _na(tag, "theta = 1 excluded")
    if not (2 <= p and 2 <= q < math.inf):
        return _na(tag, "needs 2 <= p <= inf, 2 <= q < inf")
    if 2 * _inv(p) + d * _inv(q) > d / 2 + _TOL:
        return _na(tag, "needs 2/p + d/q <= d/2")
    sigma = _inv(p) if theta > 1 else (2 - theta) * _inv(p)
    return SigmaPrediction(sigma, tag)


def _sel_theta_line_ons(s):
    """One-dimensional orthonormal-family estimate on the theta line."""
    tag = "theta-line-ons"
    p, q, theta = s["p"], s["q"], s["theta"]
    if s.get("d", 1) != 1:
        return _na(tag, "one-dimensional estimate")
    if not theta > 2:
        return _na(tag, "needs theta > 2")
    if abs(theta * _inv(p) + _inv(q) - 1.0) > _TOL:
        return _na(tag, "pair not on the theta line")
    return SigmaPrediction((theta - 1) * _inv(p), tag,
                           alpha_max=2 * q / (q + 1) if q != math.inf else 2.0)


def _vertical_decomposition(s, lower_iq: float):
    """Split (1/q,1/p) along a vertical chord between the density and
    theta lines (d = 1)."""
    iq, ip = _inv(s["q"]), _inv(s["p"])
    theta = s["theta"]
    if iq < lower_iq - _TOL:
        return None
    top = (1 - iq) / 2.0          # density line at this 1/q
    bot = (1 - iq) / theta        # theta line at this 1/q
    if not (bot - _TOL <= ip <= top + _TOL) or top <= bot:
        return None
    tau = (top - ip) / (top - bot)
    tau = min(1.0, max(0.0, tau))
    q0 = q1 = s["q"]
    p0 = 1.0 / top if top > 0 else math.inf
    p1 = 1.0 / bot if bot > 0 else math.inf
    return {"tau": tau, "p0": p0, "q0": q0, "p1": p1, "q1": q1}


def _sel_interpolated_region_ons(s):
    """Interpolation of the two line estimates across the triangle."""
    tag = "interpolated-region-ons"
    if s.get("d", 1) != 1 or not s["theta"] > 2:
        return _na(tag, "one-dimensional, theta > 2")
    if _inv(s["q"]) < _TOL and abs(_inv(s["p"]) - 0.5) < _TOL:
        return _na(tag, "critical corner excluded")
    dec = _vertical_decomposition(s, 0.0)
    if dec is None:
        return _na(tag, "point admits no chord decomposition")
    tau, p0, q0, p1, q1 = dec["tau"], dec["p0"], dec["q0"], dec["p1"], dec["q1"]
    theta = s["theta"]
    sigma = (1 - tau) * _inv(p0) + tau * (theta - 1) * _inv(p1)
    a0 = 2 * q0 / (q0 + 1) if q0 != math.inf else 2.0
    a1 = 2 * q1 / (q1 + 1) if q1 != math.inf else 2.0
    return SigmaPrediction(sigma, tag, alpha_max=(1 - tau) * a0 + tau * a1)


def _sel_tunable_loss_ons(s):
    """Chosen loss sigma against an alpha' threshold that grows with it."""
    tag = "tunable-loss-ons"
    if s.get("d", 1) != 1 or not s["theta"] > 2:
        return _na(tag, "one-dimensional, theta > 2")
    dec = _vertical_decomposition(s, 1.0 / 3.0)
    if dec is None:
        return _na(tag, "point outside the tunable region")
    tau, p1 = dec["tau"], dec["p1"]
    theta = s["theta"]
    lo, hi = tau * (theta - 1) * _inv(p1), (theta - 1) * _inv(p1)
    sigma = s.get("sigma")
    if sigma is None:
        sigma = hi
    if not (lo < sigma <= hi + _TOL):
        return _na(tag, f"sigma must lie in ({lo:.6g}, {hi:.6g}]")
    alpha = 2 * (theta - 1) / (2 * (theta - 1) - sigma * theta)
    return SigmaPrediction(sigma, tag, alpha_max=alpha, alpha_open=True)


def _sel_waveguide_single(s):
    """Single-function estimate on the waveguide, sharp scaling line."""
    tag = "waveguide-single"
    p, q, theta = s["p"], s["q"], s["theta"]
    n, m = s["n"], s["m"]
    d = n + m
    if not theta > 1:
        return _na(tag, "needs theta > 1")
    if p < 2 or abs(_inv(p) - (d / 2) * (0.5 - _inv(q))) > _TOL:
        return _na(tag, "needs p >= 2 with 1/p = (d/2)(1/2 - 1/q)")
    sigma = max(0.0, d / 2 - (d + 2) * _inv(q))
    return SigmaPrediction(sigma, tag)


def _waveguide_kappa(theta: float, n: int, m: int) -> float | None:
    if theta > 3 + m / n:
        return 1 + n * (theta - 2) / (m + n)
    if 1 < theta <= 3 + m / n:
        return 2.0
    return None


def _sel_waveguide_ons(s):
    """Orthonormal-family estimate on the waveguide density line."""
    tag = "waveguide-ons"
    p, q, theta = s["p"], s["q"], s["theta"]
    n, m = s["n"], s["m"]
    d = n + m
    if theta == 1:
        return _na(tag, "theta = 1 excluded")
    if abs(2 * _inv(p) + d * _inv(q) - d) > _TOL:
        return _na(tag, "pair not on the density line")
    if p != math.inf and not p > (d + 1) / d:
        return _na(tag, "needs p > (d+1)/d")
    if d >= 2 and not q < (d + 1) / (d - 1):
        return _na(tag, "needs q below the critical exponent")
    kappa = _waveguide_kappa(theta, n, m)
    sigma = 2 * (2 - theta) * _inv(p) if kappa is None else kappa * _inv(p)
    return SigmaPrediction(sigma, tag,
                           alpha_max=2 * q / (q + 1) if q != math.inf else 2.0)


def _sel_waveguide_tunable_ons(s):
    """Waveguide estimate trading a smaller loss for a smaller alpha'."""
    tag = "waveguide-tunable-ons"
    p, q, theta = s["p"], s["q"], s["theta"]
    n, m = s["n"], s["m"]
    d = n + m
    kappa = _waveguide_kappa(theta, n, m)
    if kappa is None:
        return _na(tag, "needs theta > 1")
    if not (1 <= q <= (d + 2) / d + _TOL):
        return _na(tag, "needs q <= (d+2)/d")
    if abs(2 * _inv(p) + d * _inv(q) - d) > _TOL:
        return _na(tag, "pair not on the density line")
    sigma_1 = kappa * _inv(p)
    sigma = s.get("sigma")
    if sigma is None:
        sigma = sigma_1
    if not (0 < sigma <= sigma_1 + _TOL):
        return _na(tag, f"sigma must lie in (0, {sigma_1:.6g}]")
    return SigmaPrediction(sigma, tag, alpha_max=d / (d - sigma / kappa),
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


def predict_sigma(setting: dict) -> SigmaPrediction:
    """Loss exponent sigma and alpha' bound for a named estimate.

    ``setting`` carries: estimate (selector name), p, q, theta, and d
    (torus) or n, m (waveguide); optionally sigma (tunable selectors).
    Parameters outside the selected estimate's hypothesis yield a
    not-applicable prediction, never an exception.
    """
    sel = setting.get("estimate")
    if sel not in SIGMA_SELECTORS:
        raise InvalidInputError(
            f"unknown estimate selector {sel!r}; choose from "
            f"{sorted(SIGMA_SELECTORS)}")
    s = dict(setting)
    s["p"] = _check_exponent(s["p"], "p")
    s["q"] = _check_exponent(s["q"], "q")
    if "n" in s and "m" in s and "d" not in s:
        s["d"] = s["n"] + s["m"]
    return SIGMA_SELECTORS[sel](s)


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of log(value) against log(N)."""

    slope: float
    intercept: float
    max_residual: float
    points: tuple[tuple[float, float], ...]


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
    return ScalingFit(float(slope), float(intercept), float(resid),
                      tuple(pts))


# ---------------------------------------------------------------------------
# Besov sup norm


def _besov_top(geometry: GeometrySpec) -> int:
    """Index of the top dyadic block: the blocks above it vanish on the
    lattice."""
    xi_max = max(float(np.max(np.abs(geometry.axis_frequencies(ax))))
                 for ax in range(geometry.dim))
    return max(1, int(math.ceil(math.log2(max(xi_max, 1.0)))) + 1)


def besov_sup_norm(w: Field, s: float, qprime: float) -> float:
    """sup_k 2^{k s} || dyadic block k of w ||_{L^{q'}}.

    Finite on the grid: blocks vanish once the dyadic scale dominates the
    lattice, so the sup runs over finitely many k.
    """
    qprime = _check_exponent(qprime, "q'")
    best = 0.0
    for k in range(_besov_top(w.geometry) + 1):
        block = littlewood_paley(w, k)
        best = max(best, 2.0 ** (k * s) * block.norm_lq(qprime))
    return best
