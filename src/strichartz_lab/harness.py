"""Experiment orchestration: deterministic cell execution, CSV/JSON output.

Every experiment kind expands its parameter grid into cells; cells run
independently (optionally on a thread pool), each under a seed derived
from (global seed, cell index), and rows are assembled in cell order so
serial and parallel runs emit byte-identical artifacts (wall-clock
column aside).

Artifacts per run: ``results.csv`` (one row per cell, floats with 17
significant digits), ``summary.json`` (config echo, fits, pass counts),
``manifest.json`` (machine-readable pass/fail per cell).
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import __version__
from .config import (build_potential, check_seed, geometry_from_echo,
                     load_config, validate_config)
from .errors import (CapacityError, ConfigError, InvalidInputError,
                     NumericFailureError)
from .geometry import BandFlow, _xi2
from .hartree import (DensityState, _fixed_point_exponents, evolve,
                      fixed_point_iterate)
from .kernels import (OscillatoryIntegral, _window_top, dispersive_sup,
                      vdc_integral_oracle)
from .norms import (_besov_top, besov_sup_norm, classify_pair, fit_scaling,
                    lq_norm, predict_sigma, trapezoid_weights)
from .ons import (NormalRows, band_dimension, generate_ons,
                  ons_estimate_ratio)
from .schatten import (MATRIX_CAP, duality_check,
                       factored_sobolev_schatten_norm)
from .seeding import derive_cell_seed, derive_cell_seeds

__all__ = ["run", "RunResult", "derive_cell_seed", "derive_cell_seeds"]

# longest split-step run a hartree-run cell or a fixed-point cross-check
# may request
_MAX_STEPS = 10 ** 6

# the manifest's error_kind of a cell that raised, by exception class
_ERROR_KINDS = {NumericFailureError: "numeric",
                InvalidInputError: "invalid_input",
                CapacityError: "capacity", Warning: "warning"}


@dataclass
class RunResult:
    exit_code: int
    rows: list
    summary: dict


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col)) for col in header) + "\n")


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not serializable: {type(value)}")


# ---------------------------------------------------------------------------
# shared helpers


def _ons_density_state(geometry, M, band, theta, weights, seed) -> DensityState:
    coef = generate_ons("random-band", M, band, geometry, seed=seed)
    members = np.empty((M,) + geometry.grid_sizes, dtype=np.complex128)
    flow = BandFlow(geometry, band, theta)
    for _, ss, u in flow.blocks(coef, [0.0]):
        members[ss] = u[0]
    return DensityState(members, np.asarray(weights, dtype=float),
                        geometry, theta)


def _flow_ratios(geometry, N, coef_rows, theta, time_pts, p, q):
    """Strichartz quotients ||U(t) f_s||_{L^p_t L^q_x} / ||f_s||_2 for a
    batch of band coefficient vectors, an (S, B) array or a row source
    (``BandFlow.blocks``), reduced block by block without materializing
    the space-time films (the time grid can be very fine), on the exact
    grid of ``q`` (``BandFlow``).  The denominators are taken chunk by
    chunk as the stream draws the rows.  The blocks go through the
    ordered map of the cell running on this thread (``run``), so idle
    threads of a threaded run help compute them.

    Each block's space norms g (k, s) are taken where the block is
    computed, by ``lq_norm`` with the stream's ``cell_volume``.  In stream
    order each sample's running time norm then joins its block's
    w^(1/p) g, w the trapezoid weights, as one more ``lq_norm`` over time
    (its rescale keeps large exponents in range), so the norms do not
    depend on which thread computed a block.
    """
    times = np.linspace(0.0, 1.0, time_pts)
    flow = BandFlow(geometry, N, theta, q)
    w = trapezoid_weights(times)
    w **= 1 / p  # in place: no third time-grid array
    l2 = np.empty(coef_rows.shape[0])
    drawn = 0

    def draw(n):
        nonlocal drawn
        f = coef_rows.draw(n) if hasattr(coef_rows, "draw") \
            else coef_rows[drawn:drawn + n]
        l2[drawn:drawn + n] = lq_norm(f, 2, geometry.dual_cell, 1)
        drawn += n
        return f

    rows = SimpleNamespace(shape=coef_rows.shape, draw=draw)
    norm = np.zeros(len(l2))
    for ts, ss, g in flow.blocks(
            rows, times, lambda u: lq_norm(u, q, flow.cell_volume,
                                           tuple(range(2, u.ndim))),
            getattr(_cell, "map", map)):
        norm[ss] = lq_norm(np.vstack([norm[ss], g * w[ts, None]]), p, axis=0)
    return norm / l2


# ---------------------------------------------------------------------------
# drivers: each returns (header, cells, run_cell, finalize)


def _reject(field, message):
    raise ConfigError(f"{field}: {message}", field=field)


def _check_cap(field, what, elements):
    """Preflight of an array whose size the config sets: reject it before
    anything is allocated when it holds more than MATRIX_CAP elements."""
    if elements > MATRIX_CAP:
        _reject(field, f"{what} of {elements} elements exceeds cap "
                       f"{MATRIX_CAP}")


def _judge(rows, ok, why):
    """Fail ``rows`` unless ``ok``; a row it fails notes ``why`` (the gate
    and its numbers) unless it already says why it failed."""
    for r in rows:
        r["passed"] = bool(ok and r.get("passed", True))
        if not ok:
            r.setdefault("note", why)


def _prediction(estimate, p, q, theta, geometry):
    """``predict_sigma`` of the configured estimate on ``geometry``; a
    config whose estimate does not apply there is rejected."""
    try:
        return predict_sigma(estimate, geometry, p, q, theta)
    except InvalidInputError as exc:
        _reject("params.estimate", str(exc))


def _check_family(p, geom):
    """Preflight of the mean-field drivers: the orbital family must fit in
    its band and carry one nonnegative nonincreasing weight per member."""
    dim = band_dimension(geom, p["band"])
    if not 1 <= p["members"] <= dim:
        _reject("params.members", f"need 1 <= members <= {dim}, the "
                                  f"dimension of band {p['band']}, got "
                                  f"{p['members']}")
    w = np.asarray(p["weights"], dtype=float)
    if len(w) != p["members"]:
        _reject("params.weights", f"one weight per member required, got "
                                  f"{len(w)} for {p['members']} members")
    if not (np.all(w >= 0) and np.all(np.diff(w) <= 1e-15)):
        _reject("params.weights", "weights must be nonnegative and "
                                  "nonincreasing")


def _check_bands(p, geom):
    """Preflight of the slope sweeps: a band that fills the grid stops
    growing with N, and a slope over repeated bands would be fitted to a
    constant."""
    seen = {}
    for n in p["N"]:
        modes = band_dimension(geom, n)
        if modes in seen:
            _reject("params.N", f"N = {seen[modes]} and N = {n} give the same "
                                f"band of {modes} modes on grid "
                                f"{list(geom.grid_sizes)}; each N must add "
                                f"band modes")
        seen[modes] = n


def _slope_fit(group, key, sweep):
    """``fit_scaling`` of ``key`` over N in a sweep group, or None below 3
    rows.  A sweep of fewer than 3 N is never judged, so its rows fail
    with a note; a longer one loses rows only to failed cells."""
    if len(group) >= 3:
        return fit_scaling([(r["N"], r[key]) for r in group])
    if len(sweep) < 3:
        _judge(group, False, f"the slope fit needs 3 or more N, got "
                             f"{len(sweep)}")
    return None


def _potential_besov(p, geom):
    """The driver's potential and its Besov norm on ``geom``, after a
    preflight, in log space, that the Gaussian exponent sigma_w^2 |xi|^2 / 2
    and the Besov weight 2^(k s) at the top dyadic block k are finite."""
    w = build_potential(p["potential"])
    log_max = math.log(sys.float_info.max)
    log_xi2 = math.log(0.5 * float(_xi2(geom).max()))
    if w.kind == "gaussian" and w.sigma_w != 0 and \
            not 2 * math.log(abs(w.sigma_w)) + log_xi2 < log_max:
        _reject("params.potential.sigma_w",
                f"the Gaussian multiplier exp(-sigma_w^2 |xi|^2 / 2) "
                f"overflows its exponent, got sigma_w = {w.sigma_w:g}")
    s = float(p["potential"]["s"])
    k_top = _besov_top(geom)
    if not s * k_top * math.log(2.0) < log_max:
        _reject("params.potential.s",
                f"the Besov weight 2^(k s) at the top dyadic block k = "
                f"{k_top} is not finite, got s = {s:g}")
    return w, besov_sup_norm(w.field(geom), geom, s,
                             float(p["potential"]["qprime"]))


def _drv_kernel_sweep(echo):
    p = echo["params"]
    header = ["experiment_id", "cell_index", "theta", "N", "window_lo",
              "window_hi", "sup_value", "argmax_t", "argmax_x", "samples",
              "refined", "group_ratio", "passed", "wall_time_ms"]
    cells = [{"theta": th, "N": n} for th in p["theta"] for n in p["N"]]

    # preflight: the time grid and a space row at the deepest refinement,
    # and a nonempty dispersive window in each cell
    scale = 4 if p["check_refinement"] else 1
    _check_cap("params.t_grid_pts", "refined time grid",
               (p["t_grid_pts"] - 1) * scale + 1)
    _check_cap("params.x_grid_pts", "refined space row",
               p["x_grid_pts"] * scale)
    # the largest N-sized array is the phase table of the levels
    # arange(1, N + 1) ** theta: 2 x N once a time block of the sweep is
    # one row (nx + N >= _BLOCK_ELEMENTS), far below the cap for smaller N
    _check_cap("params.N", "phase table", 2 * max(p["N"]))
    for th in p["theta"]:
        for n in p["N"]:
            top = _window_top(n, th)
            if p["t_min"] >= top:
                _reject("params.t_min",
                        f"empty dispersive window at theta={th:g}, N={n}: "
                        f"t_min = {p['t_min']:g} >= N^(1-theta) = {top:g}")

    def run_cell(cell, seed):
        rep = dispersive_sup(cell["N"], cell["theta"],
                             t_grid_pts=p["t_grid_pts"],
                             x_grid_pts=p["x_grid_pts"], t_min=p["t_min"],
                             check_refinement=p["check_refinement"])
        return {"theta": cell["theta"], "N": cell["N"],
                "window_lo": rep.window[0], "window_hi": rep.window[1],
                "sup_value": rep.sup_value, "argmax_t": rep.argmax[0],
                "argmax_x": rep.argmax[1], "samples": rep.samples,
                "refined": rep.refined}

    def finalize(rows):
        fits = {}
        for th in p["theta"]:
            group = [r for r in rows if r.get("theta") == th
                     and "sup_value" in r]
            if not group:
                continue
            sups = [r["sup_value"] for r in group]
            ratio = max(sups) / min(sups)
            fits[f"sup_ratio_theta_{th:g}"] = ratio
            for r in group:
                r["group_ratio"] = ratio
            _judge(group, ratio <= p["max_ratio"], f"sup ratio {ratio:.6g} "
                   f"> max_ratio {p['max_ratio']:g}")
        return fits

    return header, cells, run_cell, finalize


def _drv_vdc_oracle(echo):
    p = echo["params"]
    header = ["experiment_id", "cell_index", "theta", "x", "p", "b", "t",
              "value_re", "value_im", "abs_value", "envelope", "ratio",
              "error_estimate", "panels", "passed", "wall_time_ms"]
    cells = [{"t": t} for t in p["t"]]

    if not np.all(np.abs(p["t"]) >= 1e-12):
        _reject("params.t", "need every |t| >= 1e-12")
    if p["theta"] * math.log(p["b"]) >= math.log(sys.float_info.max):
        _reject("params.b", "b ** theta exceeds the float range")
    if not math.isfinite(2 * math.pi * (abs(p["x"] - p["p"]) * p["b"] + max(
            map(abs, p["t"])) * p["b"] ** p["theta"])):
        _reject("params.x", "phase span 2 pi (|x - p| b + |t| b^theta) "
                "exceeds the float range")

    def run_cell(cell, seed):
        # the oracle returns only a value within tol; a stalled one raises
        res = vdc_integral_oracle(p["theta"], p["x"], cell["t"], p["p"],
                                  p["b"], tol=p["tol"])
        return {"theta": p["theta"], "x": p["x"], "p": p["p"], "b": p["b"],
                "t": cell["t"], **res.estimate(), "abs_value": abs(res.value),
                "envelope": res.envelope, "ratio": res.ratio}

    def finalize(rows):
        # the spread of the cells that converged; a stalled cell fails alone
        group = [r for r in rows if "ratio" in r]
        if not group:
            return {}
        ratios = [r["ratio"] for r in group]
        spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
        _judge(group, spread <= p["max_ratio"], f"envelope ratio spread "
               f"{spread:.6g} > max_ratio {p['max_ratio']:g}")
        return {"envelope_ratio_spread": spread}

    return header, cells, run_cell, finalize


def _drv_strichartz_fit(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    header = ["experiment_id", "cell_index", "family", "theta", "p", "q",
              "N", "sigma", "value", "max_ratio_raw", "passed",
              "wall_time_ms"]
    cells = [{"N": n} for n in p["N"]]

    sigma = _prediction(p["estimate"], p["p"], p["q"], p["theta"],
                        geom).sigma
    # preflight: the time grid and the random batch at the largest N, and
    # the random family's normalization N^(sigma + sigma_margin), a finite
    # positive float at every N; both powers are compared in log space,
    # since a float N ** theta overflows once theta > 1023 at N = 2
    _check_cap("params.time_pts", "time grid", p["time_pts"])
    n_max = max(p["N"])
    if p["family"] == "random":
        _check_cap("params.samples", "random batch",
                   p["samples"] * band_dimension(geom, n_max))
        log_norm = (sigma + p["sigma_margin"]) * math.log(n_max)
        if not (math.log(sys.float_info.min) < log_norm
                < math.log(sys.float_info.max)):
            _reject("params.sigma_margin",
                    f"N^(sigma + sigma_margin) at N = {n_max} is not a "
                    f"positive finite float (sigma = {sigma:g})")
    elif p["time_pts_scale"] > 0:
        log_pow = p["theta"] * math.log(n_max)
        if (log_pow + math.log(p["time_pts_scale"]) >= math.log(MATRIX_CAP)
                or log_pow >= math.log(sys.float_info.max)):
            _reject("params.time_pts_scale",
                    f"time grid time_pts_scale * N^theta + 1 at N = "
                    f"{n_max} exceeds cap {MATRIX_CAP}")
    _check_bands(p, geom)

    def run_cell(cell, seed):
        N = cell["N"]
        dim = band_dimension(geom, N)
        if p["family"] == "dirichlet":
            # the time grid must resolve the N^theta phase scale or the
            # quadrature overweights the arithmetic peaks of the flow
            tp = p["time_pts"]
            if p["time_pts_scale"] > 0:
                tp = max(tp, int(p["time_pts_scale"] * N ** p["theta"]) + 1)
            rows = np.ones((1, dim), dtype=complex)
            raw = float(_flow_ratios(geom, N, rows, p["theta"], tp,
                                     p["p"], p["q"])[0])
            value = raw
        else:
            rows = NormalRows(np.random.default_rng(seed), p["samples"],
                              dim)
            ratios = _flow_ratios(geom, N, rows, p["theta"], p["time_pts"],
                                  p["p"], p["q"])
            raw = float(np.max(ratios))
            value = raw / N ** (sigma + p["sigma_margin"])
        return {"family": p["family"], "theta": p["theta"], "p": p["p"],
                "q": p["q"], "N": N, "sigma": sigma, "value": value,
                "max_ratio_raw": raw}

    def finalize(rows):
        fits = {"sigma": sigma}
        rows = [r for r in rows if "max_ratio_raw" in r]
        raw_fit = _slope_fit(rows, "max_ratio_raw", p["N"])
        if raw_fit is None:
            return fits
        fits["slope_raw"] = raw_fit.slope
        fits["slope_residual"] = raw_fit.max_residual
        top = sigma + p["slope_tol"]
        if p["family"] == "dirichlet":
            ok = -1e-9 <= raw_fit.slope <= top
            why = f"slope_raw {raw_fit.slope:.6g} outside [-1e-9, " \
                  f"sigma + slope_tol = {top:.6g}]"
        else:
            values = [r["value"] for r in rows]
            spread = max(values) / min(values)
            fits["normalized_spread"] = spread
            ok = spread <= p["spread_max"] and raw_fit.slope <= top
            why = f"normalized spread {spread:.6g} > spread_max " \
                  f"{p['spread_max']:g} or slope_raw {raw_fit.slope:.6g} " \
                  f"> sigma + slope_tol = {top:.6g}"
        _judge(rows, ok, why)
        return fits

    return header, cells, run_cell, finalize


def _drv_ons_sweep(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    header = ["experiment_id", "cell_index", "theta", "p", "q",
              "alpha_prime", "N", "M", "applicable", "lhs_norm",
              "lambda_norm", "ratio", "sigma", "alpha_max", "best_family",
              "slope", "within_threshold", "passed", "wall_time_ms"]
    cells = [{"alpha_prime": a, "N": n}
             for a in p["alpha_prime"] for n in p["N"]]
    # a cell holds its density film and a full-band family, and draws
    # every configured family at the largest N
    _check_cap("params.time_pts", "density film",
               p["time_pts"] * math.prod(geom.grid_sizes))
    dim = band_dimension(geom, max(p["N"]))
    _check_cap("params.N", f"family of {dim} band members", dim * dim)
    draws = sum(count for _, count in p["family_kinds"])
    _check_cap("params.family_kinds", f"{draws} family draws",
               draws * dim * dim)
    # a pair off the configured admissibility line gives not-applicable
    # rows; on it, the estimate must apply
    applicable = not p["admissibility"] or p["admissibility"] in \
        classify_pair(geom.dim, p["p"], p["q"], p["theta"])
    pred = _prediction(p["estimate"], p["p"], p["q"], p["theta"], geom) \
        if applicable else None
    _check_bands(p, geom)

    def run_cell(cell, seed):
        row = {"theta": p["theta"], "p": p["p"], "q": p["q"],
               "alpha_prime": cell["alpha_prime"], "N": cell["N"],
               "M": band_dimension(geom, cell["N"]),
               "applicable": applicable}
        if not applicable:
            row["passed"] = True
            return row
        interval = (0.0, 1.0)
        if p["interval_mode"] == "dispersive-window":
            half = 0.5 * _window_top(cell["N"], p["theta"])
            interval = (-half, half)
        lhs, lam_norm, best = ons_estimate_ratio(
            geom, cell["N"], p["theta"], p["p"], p["q"], cell["alpha_prime"],
            interval, p["time_pts"], p["family_kinds"], p["lambda_kind"],
            seed)
        row.update(lhs_norm=lhs, lambda_norm=lam_norm, ratio=lhs / lam_norm,
                   sigma=pred.sigma, alpha_max=pred.alpha_max,
                   best_family=best)
        return row

    def finalize(rows):
        fits = {}
        for a in p["alpha_prime"]:
            group = [r for r in rows
                     if r.get("alpha_prime") == a and r.get("applicable")]
            fit = _slope_fit(group, "ratio", p["N"])
            if fit is None:
                continue
            # alpha' at an open bound lies outside it
            within = pred.alpha_max is None or (
                a < pred.alpha_max - 1e-12 if pred.alpha_open
                else a <= pred.alpha_max + 1e-12)
            top = pred.sigma + p["slope_tol"]
            fits[f"slope_alpha_{a:g}"] = fit.slope
            fits[f"within_alpha_{a:g}"] = within
            for r in group:
                r["slope"] = fit.slope
                r["within_threshold"] = within
            _judge(group, fit.slope <= top if within else fit.slope > top,
                   f"slope {fit.slope:.6g} {'>' if within else '<='} sigma "
                   f"+ slope_tol = {top:.6g} at alpha' {a:g} "
                   f"{'within' if within else 'beyond'} alpha_max")
        return fits

    return header, cells, run_cell, finalize


def _drv_duality_check(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    header = ["experiment_id", "cell_index", "alpha", "N", "operator_norm",
              "max_sampled_ratio", "saturation", "dominance_ok", "samples",
              "passed", "wall_time_ms"]
    cells = [{"alpha": a} for a in p["alpha"]]
    t = p["interval"]
    if not (len(t) == 2 and -math.inf < t[0] < t[1] < math.inf):
        _reject("params.interval", f"need finite [t0, t1] with t0 < t1, "
                                   f"got {t}")
    # a cell holds its weight film and the band Gram, and applies the
    # Gram to each sampled family
    _check_cap("params.time_pts", "weight film",
               p["time_pts"] * math.prod(geom.grid_sizes))
    band = band_dimension(geom, p["N"])
    _check_cap("params.N", f"Gram of {band} band modes", band * band)
    _check_cap("params.samples", f"{p['samples']} Gram products",
               p["samples"] * band * band)

    def run_cell(cell, seed):
        t0, t1 = p["interval"]
        times = np.linspace(float(t0), float(t1), p["time_pts"])
        shape = (p["time_pts"],) + geom.grid_sizes
        if p["weight"] == "unit":
            vals = np.ones(shape)
        else:
            rng = np.random.default_rng(seed)
            vals = np.abs(rng.standard_normal(shape)) + 0.1
        rep = duality_check(geom, times, vals, p["N"], float(cell["alpha"]),
                            p["samples"], theta=p["theta"], seed=seed)
        sat = rep.max_sampled_ratio / rep.operator_norm \
            if rep.operator_norm > 0 else 0.0
        row = {"alpha": cell["alpha"], "N": p["N"],
               "operator_norm": rep.operator_norm,
               "max_sampled_ratio": rep.max_sampled_ratio,
               "saturation": sat, "dominance_ok": rep.dominance_ok,
               "samples": p["samples"]}
        _judge([row], rep.dominance_ok, f"max_sampled_ratio "
               f"{rep.max_sampled_ratio:.6g} > operator_norm "
               f"{rep.operator_norm:.6g} beyond rel tol 1e-8")
        return row

    def finalize(rows):
        return {"all_dominated": all(r.get("dominance_ok") for r in rows)}

    return header, cells, run_cell, finalize


def _drv_hartree_run(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    _check_family(p, geom)
    for dt in p["dt"]:
        # evolve takes round(T / dt) steps, at least one and at most
        # _MAX_STEPS (it records (steps + 1) x members diagnostics)
        if not (dt > 0 and 0.5 < p["T"] / dt <= _MAX_STEPS):
            _reject("params.dt", f"need T / {_MAX_STEPS:g} <= dt < 2T = "
                                 f"{2 * p['T']:g}, got {dt:g}")
    potential, w_besov = _potential_besov(p, geom)
    header = ["experiment_id", "cell_index", "theta", "dt", "steps",
              "potential_besov", "mass_deviation", "gram_deviation",
              "energy_drift", "rho_norm_final", "halving_ratio", "passed",
              "wall_time_ms"]
    cells = [{"theta": th, "dt": dt} for th in p["theta"] for dt in p["dt"]]

    def run_cell(cell, seed):
        # one state per theta: seed independent of dt so halving compares
        # the same trajectory at two resolutions
        state_seed = derive_cell_seed(echo["seed"],
                                      p["theta"].index(cell["theta"]))
        st = _ons_density_state(geom, p["members"], p["band"], cell["theta"],
                                p["weights"], state_seed)
        rec = evolve(st, p["T"], cell["dt"], potential,
                     q_report=p["q_report"])
        row = {"theta": cell["theta"], "dt": cell["dt"],
               "steps": len(rec.times) - 1,
               "potential_besov": w_besov,
               "mass_deviation": rec.mass_deviation,
               "gram_deviation": rec.max_gram_deviation,
               "energy_drift": rec.energy_drift,
               "rho_norm_final": rec.rho_norm[-1]}
        over = [f"{k} {row[k]:.6g} >= {tol} {p[tol]:g}" for k, tol in (
            ("mass_deviation", "mass_tol"), ("gram_deviation", "gram_tol"),
            ("energy_drift", "energy_tol")) if not row[k] < p[tol]]
        _judge([row], not over, "; ".join(over))
        return row

    def finalize(rows):
        fits = {"potential_besov": w_besov}
        for th in p["theta"]:
            group = sorted([r for r in rows if r.get("theta") == th
                            and "energy_drift" in r],
                           key=lambda r: -r["dt"])
            if len(group) >= 2 and group[-1]["energy_drift"] > 0:
                ratio = group[0]["energy_drift"] / group[-1]["energy_drift"]
                # normalize to one halving: dt ratio may exceed 2
                halvings = math.log2(group[0]["dt"] / group[-1]["dt"])
                per_halving = ratio ** (1.0 / halvings) if halvings > 0 else ratio
                fits[f"drift_halving_ratio_theta_{th:g}"] = per_halving
                for r in group:
                    r["halving_ratio"] = per_halving
                _judge(group, per_halving >= p["halving_min"],
                       f"drift halving ratio {per_halving:.6g} < "
                       f"halving_min {p['halving_min']:g}")
        return fits

    return header, cells, run_cell, finalize


def _drv_fixed_point(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    _check_family(p, geom)
    # the initial state is rescaled to Sobolev-Schatten norm target_norm
    if not any(p["weights"]):
        _reject("params.weights", "some weight must be positive")
    if "density" not in classify_pair(geom.dim, p["p"], p["q"], p["theta"]):
        _reject("params.q", f"(p, q) = ({p['p']:g}, {p['q']:g}) is off the "
                            f"density line 2/p + d/q = d, d = {geom.dim}")
    _check_cap("params.time_pts", "density film",
               p["time_pts"] * math.prod(geom.grid_sizes))
    # the cross-check takes max(1, round(h / cross_check_dt)) split steps
    # per node step h, about T / cross_check_dt in all: bound that float
    # before any rounding (it is inf at cross_check_dt = 5e-324)
    if p["T"] / p["cross_check_dt"] > _MAX_STEPS:
        _reject("params.cross_check_dt",
                f"the cross-check takes more than {_MAX_STEPS:g} split steps "
                f"over T = {p['T']:g}, got cross_check_dt = "
                f"{p['cross_check_dt']:g}")
    potential, w_besov = _potential_besov(p, geom)
    header = ["experiment_id", "cell_index", "iteration", "residual",
              "ratio", "contractive", "converged", "cross_check_error",
              "passed", "wall_time_ms"]
    cells = [{"run": 0}]

    def run_cell(cell, seed):
        st = _ons_density_state(geom, p["members"], p["band"], p["theta"],
                                p["weights"], seed)
        alpha_prime, s = _fixed_point_exponents(p["p"], p["q"])
        norm0 = factored_sobolev_schatten_norm(
            st.members * math.sqrt(geom.cell_volume), st.weights,
            alpha_prime, s, geom)
        st = DensityState(st.members, st.weights * (p["target_norm"] / norm0),
                          geom, p["theta"])
        result = fixed_point_iterate(st, potential, p["T"], p["iterations"],
                                     p["p"], p["q"], time_pts=p["time_pts"])
        # cross check against the split-step route on the same nodes
        nodes = result.path.times
        h = nodes[1] - nodes[0]
        sub = max(1, int(round(h / p["cross_check_dt"])))
        cur = st
        worst = 0.0
        for i in range(1, len(nodes)):
            cur = evolve(cur, h, h / sub, potential).final_state
            diff = cur.density() - result.path.rho[i]
            worst = max(worst, float(lq_norm(diff, 2, geom.cell_volume)))
        ratios = [r for _, r in result.iterates if r is not None]
        # contractive excludes diverged
        over = [why for bad, why in (
            (not result.contractive, "not contractive"),
            (not all(r <= p["ratio_max"] for r in ratios),
             f"ratio {max(ratios, default=0):.6g} > ratio_max "
             f"{p['ratio_max']:g}"),
            (not worst <= p["cross_check_tol"],
             f"cross_check_error {worst:.6g} > cross_check_tol "
             f"{p['cross_check_tol']:g}")) if bad]
        row = {"iterates": result.iterates,
               "contractive": result.contractive,
               "converged": result.converged, "cross_check_error": worst,
               "truncation_mass": float(np.max(result.path.truncation_mass))}
        _judge([row], not over, "; ".join(over))
        return row

    def finalize(rows):
        # expand the single run into one row per iteration
        if not rows or "iterates" not in rows[0]:
            return {}
        base = rows.pop(0)
        iterates = base.pop("iterates")
        rows.extend({**base, "iteration": k, "residual": res, "ratio": ratio,
                     "cell_index": k - 1}
                    for k, (res, ratio) in enumerate(iterates, 1))
        return {"contractive": base["contractive"],
                "converged": base["converged"],
                "cross_check_error": base["cross_check_error"],
                "potential_besov": w_besov}

    return header, cells, run_cell, finalize


_DRIVERS = {
    "kernel-sweep": _drv_kernel_sweep,
    "vdc-oracle": _drv_vdc_oracle,
    "strichartz-fit": _drv_strichartz_fit,
    "ons-sweep": _drv_ons_sweep,
    "duality-check": _drv_duality_check,
    "hartree-run": _drv_hartree_run,
    "fixed-point": _drv_fixed_point,
}


# per thread: the ordered map of the cell the thread runs (``run``)
_cell = threading.local()


def _ordered_map(pool, helpers):
    """A ``map`` that yields its results in item order while up to
    ``helpers`` tasks on ``pool`` compute items beside the calling thread.

    The caller computes items itself and submits the helpers when the map
    is first iterated; they queue behind the tasks already waiting on the
    pool (whole cells), so a cell is helped only once no cell waits.  One
    lock guards the items iterator (a generator) and the results not yet
    yielded.  An exception from an item, on any thread, or from the
    iterator stops the taking of items and is raised in the caller at its
    item's position, after the items before it: what a serial ``map``
    raises.  When the caller is done, or stops early, it cancels the
    helpers that never started and waits for the running ones, which stop
    within one item.
    """
    def ordered_map(fn, items):
        items = iter(items)
        lock = threading.Condition()
        done = {}       # item index -> (exception or None, result)
        taken = 0       # items taken from the iterator so far
        more = True     # the iterator may hold more, and nothing failed

        def take():
            # under lock: the next (index, item), or None
            nonlocal taken, more
            if not more:
                return None
            try:
                item = next(items)
            except StopIteration:
                more = False
                return None
            except BaseException as exc:
                done[taken], more = (exc, None), False
                taken += 1
                return None
            taken += 1
            return taken - 1, item

        def compute(job):
            nonlocal more
            try:
                out = (None, fn(job[1]))
            except BaseException as exc:
                out = (exc, None)
            with lock:
                done[job[0]] = out
                more = more and out[0] is None
                lock.notify_all()

        def helper():
            while True:
                with lock:
                    job = take()
                if job is None:
                    return
                compute(job)

        futures = [pool.submit(helper) for _ in range(helpers)]
        try:
            i = 0
            while True:
                with lock:
                    job = None if i in done else take()
                    if job is None:
                        while i not in done and i < taken:
                            lock.wait()
                        if i not in done:
                            return
                        error, result = done.pop(i)
                if job is not None:
                    compute(job)
                    continue
                if error is not None:
                    raise error
                yield result
                i += 1
        finally:
            with lock:
                more = False
            # a cancelled future counts as done only once a pool thread
            # dequeues it, so wait on the running helpers alone
            for f in futures:
                if not f.cancel():
                    f.result()

    return ordered_map


def _resolve_threads(threads: int | None) -> int:
    """``threads``, else STRICHARTZ_LAB_THREADS, else 1; at most the CPUs
    the process may run on (a pool starts a thread per waiting task)."""
    env = os.environ.get("STRICHARTZ_LAB_THREADS")
    if threads is None and env:
        try:
            threads = int(env)
        except ValueError:
            warnings.warn(f"ignoring non-integer STRICHARTZ_LAB_THREADS={env!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return max(1, min(int(threads or 1), cpus))


def run(config, out_dir: str, seed: int | None = None,
        threads: int | None = None, strict: bool = False) -> RunResult:
    """Execute one experiment config and write its artifacts.

    ``config`` is a path or a dict.  Exit code 0 when every cell passes,
    1 when any cell fails or hits a numeric failure; schema errors raise
    ConfigError before anything is written (callers map that to 2).
    """
    t_start = time.perf_counter()
    echo = load_config(config) if isinstance(config, str) \
        else validate_config(config)
    if seed is not None:
        check_seed(int(seed), "seed")
        echo["seed"] = int(seed)
    kind = echo["experiment"]
    header, cells, run_cell, finalize = _DRIVERS[kind](echo)
    n_threads = _resolve_threads(threads)

    ordered_map = map   # a threaded run binds its pool below

    def timed_cell(i):
        cell = cells[i]
        cell_seed = derive_cell_seed(echo["seed"], i)
        t0 = time.perf_counter()
        _cell.map = ordered_map
        try:
            row = run_cell(cell, cell_seed)
            failed = False
        except tuple(_ERROR_KINDS) as exc:
            error_kind = next(k for cls, k in _ERROR_KINDS.items()
                              if isinstance(exc, cls))
            note = f"warning escalated: {exc}" if error_kind == "warning" \
                else str(exc)
            row = {"passed": False, "note": note, "error_kind": error_kind}
            if isinstance(getattr(exc, "best", None), OscillatoryIntegral):
                row["best"] = exc.best.estimate()
            failed = True
        finally:
            del _cell.map
        row.setdefault("passed", True)
        row["cell_index"] = i
        row["experiment_id"] = kind
        row["wall_time_ms"] = (time.perf_counter() - t0) * 1e3
        return row, failed

    # the warning filter is process-wide state: set it once around the
    # whole sweep, not per cell, so threaded runs behave like serial ones
    with warnings.catch_warnings():
        warnings.simplefilter("error" if strict else "default")
        if n_threads == 1:
            results = [timed_cell(i) for i in range(len(cells))]
        else:
            # cells first, then the items of running cells' streams
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                ordered_map = _ordered_map(pool, n_threads - 1)
                results = list(pool.map(timed_cell, range(len(cells))))
    rows = [r for r, _ in results]
    numeric_failures = sum(1 for _, failed in results if failed)

    fits = finalize(rows) or {}
    rows.sort(key=lambda r: r["cell_index"])

    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "results.csv"), header, rows)
    cells_passed = sum(1 for r in rows if r.get("passed"))
    summary = {
        "config_echo": echo,
        "version": __version__,
        "seed": echo["seed"],
        "cells_total": len(rows),
        "cells_passed": cells_passed,
        "fits": fits,
        "duration_ms": (time.perf_counter() - t_start) * 1e3,
        "environment": {"python": sys.version.split()[0],
                        "numpy": np.__version__, "threads": n_threads},
    }
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=_json_default)
        fh.write("\n")
    all_passed = cells_passed == len(rows)
    manifest = {
        "all_passed": all_passed,
        "numeric_failures": numeric_failures,
        "cells": [{"cell_index": r["cell_index"],
                   "passed": bool(r.get("passed")),
                   **{k: r[k] for k in ("note", "error_kind", "best",
                                        "truncation_mass") if k in r}}
                  for r in rows],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    exit_code = 0 if all_passed and numeric_failures == 0 else 1
    return RunResult(exit_code, rows, summary)
