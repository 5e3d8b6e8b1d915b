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
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import build_potential, geometry_from_echo, load_config, validate_config
from .errors import ConfigError, NumericFailureError
from .geometry import BandFlow, SpaceTimeField
from .hartree import DensityState, evolve, fixed_point_iterate, split_step
from .kernels import _window_top, dispersive_sup, vdc_integral_oracle
from .norms import fit_scaling, predict_sigma
from .ons import OnsConfig, band_dimension, ons_estimate_ratio
from .schatten import DiscreteOperator, duality_check, sobolev_schatten_norm
from .seeding import derive_cell_seed, derive_cell_seeds

__all__ = ["run", "RunResult", "derive_cell_seed", "derive_cell_seeds"]


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
    from .ons import generate_ons
    fam = generate_ons("random-band", M, band, geometry, seed=seed)
    members = next(BandFlow(geometry, band, theta).frames(fam.coefficients,
                                                          [0.0]))
    return DensityState(members, np.asarray(weights, dtype=float),
                        geometry, theta)


def _abs_pow(a, q):
    # |a|^q with cheap squarings for the common even exponents
    if q == 2.0:
        return a * a
    if q == 4.0:
        b = a * a
        return b * b
    if q == 8.0:
        b = a * a
        b = b * b
        return b * b
    return a ** q


def _flow_ratios(geometry, N, coef_rows, theta, time_pts, p, q):
    """Strichartz quotients ||U(t) f_s||_{L^p_t L^q_x} / ||f_s||_2 for a
    batch of band coefficient vectors, accumulated frame by frame without
    materializing the space-time films (the time grid can be very fine).
    """
    times = np.linspace(0.0, 1.0, time_pts)
    h = times[1] - times[0]
    vol = geometry.cell_volume
    S = coef_rows.shape[0]
    acc = np.zeros(S)
    peak = np.zeros(S)
    space_axes = tuple(range(1, geometry.dim + 1))
    frames = BandFlow(geometry, N, theta).frames(coef_rows, times)
    for i, u in enumerate(frames):
        a = np.abs(u)
        if q == math.inf:
            g = a.max(axis=space_axes)
        else:
            g = (np.sum(_abs_pow(a, q), axis=space_axes) * vol) ** (1.0 / q)
        peak = np.maximum(peak, g)
        if p != math.inf:
            w = 0.5 * h if i in (0, time_pts - 1) else h
            acc += w * _abs_pow(g, p)
    norms = peak if p == math.inf else acc ** (1.0 / p)
    l2 = np.sqrt(np.sum(np.abs(coef_rows) ** 2, axis=1) * geometry.dual_cell)
    return norms / l2


# ---------------------------------------------------------------------------
# drivers: each returns (header, cells, run_cell, finalize)


def _drv_kernel_sweep(echo):
    p = echo["params"]
    header = ["experiment_id", "cell_index", "theta", "N", "window_lo",
              "window_hi", "sup_value", "argmax_t", "argmax_x", "samples",
              "refined", "group_ratio", "passed", "wall_time_ms"]
    cells = [{"theta": th, "N": n} for th in p["theta"] for n in p["N"]]

    # preflight: every input dispersive_sup would reject is a config error
    def reject(field, message):
        raise ConfigError(f"{field}: {message}", field=field)

    if not p["t_min"] > 0:
        reject("params.t_min", f"must be positive, got {p['t_min']:g}")
    for key in ("t_grid_pts", "x_grid_pts"):
        if p[key] < 64:
            reject(f"params.{key}", f"sweep grids need at least 64 points "
                                    f"per axis, got {p[key]}")
    for th in p["theta"]:
        for n in p["N"]:
            if not th >= 2:
                reject("params.theta", f"kernel sweep needs theta >= 2, "
                                       f"got {th:g}")
            if n < 0:
                reject("params.N", f"kernel sweep needs N >= 0, got {n}")
            top = _window_top(n, th)
            if p["t_min"] >= top:
                reject("params.t_min",
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
            ok = ratio <= p["max_ratio"]
            for r in group:
                r["group_ratio"] = ratio
                r["passed"] = ok and r.get("passed", True)
        return fits

    return header, cells, run_cell, finalize


def _drv_vdc_oracle(echo):
    p = echo["params"]
    header = ["experiment_id", "cell_index", "theta", "x", "p", "b", "t",
              "value_re", "value_im", "abs_value", "envelope", "ratio",
              "error_estimate", "panels", "passed", "wall_time_ms"]
    cells = [{"t": t} for t in p["t"]]

    def run_cell(cell, seed):
        res = vdc_integral_oracle(p["theta"], p["x"], cell["t"], p["p"],
                                  p["b"], tol=p["tol"])
        return {"theta": p["theta"], "x": p["x"], "p": p["p"], "b": p["b"],
                "t": cell["t"], "value_re": res.value.real,
                "value_im": res.value.imag, "abs_value": abs(res.value),
                "envelope": res.envelope, "ratio": res.ratio,
                "error_estimate": res.error_estimate, "panels": res.panels,
                "passed": res.error_estimate <= p["tol"]}

    def finalize(rows):
        ratios = [r["ratio"] for r in rows if r.get("ratio")]
        fits = {}
        if ratios and len(ratios) == len(rows):
            spread = max(ratios) / min(ratios)
            fits["envelope_ratio_spread"] = spread
            ok = spread <= p["max_ratio"]
            for r in rows:
                r["passed"] = bool(r.get("passed", False)) and ok
        elif len(ratios) != len(rows):
            for r in rows:
                r["passed"] = False
        return fits

    return header, cells, run_cell, finalize


def _drv_strichartz_fit(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    header = ["experiment_id", "cell_index", "family", "theta", "p", "q",
              "N", "sigma", "value", "max_ratio_raw", "passed",
              "wall_time_ms"]
    cells = [{"N": n} for n in p["N"]]

    def predicted_sigma():
        setting = {"estimate": p["estimate"], "p": p["p"], "q": p["q"],
                   "theta": p["theta"], "manifold": geom.kind}
        if geom.kind == "waveguide":
            setting.update(n=geom.n_free, m=geom.n_periodic)
        else:
            setting["d"] = geom.dim
        pred = predict_sigma(setting)
        if not pred.applicable:
            raise ConfigError(f"estimate not applicable: {pred.note}",
                              field="params.estimate")
        return pred.sigma

    sigma = predicted_sigma()

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
            rng = np.random.default_rng(seed)
            rows = rng.standard_normal((p["samples"], dim)) \
                + 1j * rng.standard_normal((p["samples"], dim))
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
        if len(rows) >= 3:
            raw_fit = fit_scaling([(r["N"], r["max_ratio_raw"]) for r in rows])
            fits["slope_raw"] = raw_fit.slope
            fits["slope_residual"] = raw_fit.max_residual
            if p["family"] == "dirichlet":
                ok = -1e-9 <= raw_fit.slope <= sigma + p["slope_tol"]
            else:
                values = [r["value"] for r in rows]
                spread = max(values) / min(values)
                fits["normalized_spread"] = spread
                ok = spread <= p["spread_max"] and \
                    raw_fit.slope <= sigma + p["slope_tol"]
            for r in rows:
                r["passed"] = ok
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

    def run_cell(cell, seed):
        cfg = OnsConfig(
            theta=p["theta"], p=p["p"], q=p["q"], N=cell["N"],
            alpha_prime=cell["alpha_prime"], estimate=p["estimate"],
            geometry=geom,
            family_kinds=tuple((k, c) for k, c in p["family_kinds"]),
            lambda_kind=p["lambda_kind"], interval_mode=p["interval_mode"],
            time_pts=p["time_pts"], seed=seed,
            admissibility=p["admissibility"] or None)
        rec = ons_estimate_ratio(cfg)
        row = {"theta": p["theta"], "p": p["p"], "q": p["q"],
               "alpha_prime": cell["alpha_prime"], "N": cell["N"],
               "M": cfg.M if cfg.M is not None
               else band_dimension(geom, cell["N"]),
               "applicable": rec.applicable}
        if rec.applicable:
            row.update(lhs_norm=rec.lhs_norm, lambda_norm=rec.lambda_norm,
                       ratio=rec.ratio, sigma=rec.prediction.sigma,
                       alpha_max=rec.prediction.alpha_max,
                       best_family=rec.best_family)
        else:
            row["passed"] = True
        return row

    def finalize(rows):
        fits = {}
        for a in p["alpha_prime"]:
            group = [r for r in rows
                     if r.get("alpha_prime") == a and r.get("applicable")]
            if len(group) < 3:
                continue
            fit = fit_scaling([(r["N"], r["ratio"]) for r in group])
            sigma = group[0]["sigma"]
            alpha_max = group[0]["alpha_max"]
            within = alpha_max is None or a <= alpha_max + 1e-12
            ok = fit.slope <= sigma + p["slope_tol"] if within \
                else fit.slope > sigma + p["slope_tol"]
            fits[f"slope_alpha_{a:g}"] = fit.slope
            fits[f"within_alpha_{a:g}"] = within
            for r in group:
                r["slope"] = fit.slope
                r["within_threshold"] = within
                r["passed"] = ok
        return fits

    return header, cells, run_cell, finalize


def _drv_duality_check(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    header = ["experiment_id", "cell_index", "alpha", "N", "operator_norm",
              "max_sampled_ratio", "saturation", "dominance_ok", "samples",
              "passed", "wall_time_ms"]
    cells = [{"alpha": a} for a in p["alpha"]]

    def run_cell(cell, seed):
        t0, t1 = p["interval"]
        times = np.linspace(float(t0), float(t1), p["time_pts"])
        shape = (p["time_pts"],) + geom.grid_sizes
        if p["weight"] == "unit":
            vals = np.ones(shape, dtype=complex)
        else:
            rng = np.random.default_rng(seed)
            vals = (np.abs(rng.standard_normal(shape)) + 0.1).astype(complex)
        W = SpaceTimeField(vals, times, geom)
        rep = duality_check(W, W, p["N"], float(cell["alpha"]), geom,
                            p["samples"], theta=p["theta"], seed=seed)
        sat = rep.max_sampled_ratio / rep.operator_norm \
            if rep.operator_norm > 0 else 0.0
        return {"alpha": cell["alpha"], "N": p["N"],
                "operator_norm": rep.operator_norm,
                "max_sampled_ratio": rep.max_sampled_ratio,
                "saturation": sat, "dominance_ok": rep.dominance_ok,
                "samples": rep.samples, "passed": bool(rep.dominance_ok)}

    def finalize(rows):
        return {"all_dominated": all(r.get("dominance_ok") for r in rows)}

    return header, cells, run_cell, finalize


def _drv_hartree_run(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    potential = build_potential(p["potential"])
    w_besov = potential.besov_norm(geom)
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
        ok = (rec.mass_deviation < p["mass_tol"]
              and rec.max_gram_deviation < p["gram_tol"]
              and rec.energy_drift < p["energy_tol"])
        return {"theta": cell["theta"], "dt": cell["dt"],
                "steps": len(rec.times) - 1,
                "potential_besov": w_besov,
                "mass_deviation": rec.mass_deviation,
                "gram_deviation": rec.max_gram_deviation,
                "energy_drift": rec.energy_drift,
                "rho_norm_final": rec.rho_norm[-1], "passed": ok}

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
                ok = per_halving >= p["halving_min"]
                for r in group:
                    r["halving_ratio"] = per_halving
                    r["passed"] = bool(r["passed"]) and ok
        return fits

    return header, cells, run_cell, finalize


def _drv_fixed_point(echo):
    p = echo["params"]
    geom = geometry_from_echo(echo)
    potential = build_potential(p["potential"])
    w_besov = potential.besov_norm(geom)
    header = ["experiment_id", "cell_index", "iteration", "residual",
              "ratio", "contractive", "converged", "cross_check_error",
              "passed", "wall_time_ms"]
    cells = [{"run": 0}]

    def run_cell(cell, seed):
        st = _ons_density_state(geom, p["members"], p["band"], p["theta"],
                                p["weights"], seed)
        alpha_prime = 2.0 * p["q"] / (p["q"] + 1.0)
        s = 0.5 / p["p"] + 0.05
        norm0 = sobolev_schatten_norm(
            DiscreteOperator(st.to_matrix()), alpha_prime, s, geom)
        st = DensityState(st.members, st.weights * (p["target_norm"] / norm0),
                          geom, p["theta"])
        result = fixed_point_iterate(st, potential, p["T"], p["iterations"],
                                     p["p"], p["q"], s=s,
                                     time_pts=p["time_pts"])
        # cross check against the split-step route on the same nodes
        rho_fp = result.final.rho
        nodes = rho_fp.times
        h = nodes[1] - nodes[0]
        sub = max(1, int(round(h / p["cross_check_dt"])))
        dt = h / sub
        cur = st
        worst = 0.0
        for i in range(1, len(nodes)):
            for _ in range(sub):
                cur = split_step(cur, dt, potential)
            diff = cur.density() - rho_fp.values[i].real
            worst = max(worst, float(np.sqrt(np.sum(diff ** 2)
                                             * geom.cell_volume)))
        ratios = [it.ratio for it in result.iterates if it.ratio is not None]
        ok = (result.contractive and not result.diverged
              and all(r <= p["ratio_max"] for r in ratios)
              and worst <= p["cross_check_tol"])
        return {"iterates": [(it.index, it.residual, it.ratio)
                             for it in result.iterates],
                "contractive": result.contractive,
                "converged": result.converged,
                "cross_check_error": worst, "passed": ok}

    def finalize(rows):
        # expand the single run into one row per iteration
        if not rows or "iterates" not in rows[0]:
            return {}
        base = rows.pop(0)
        fits = {"contractive": base["contractive"],
                "converged": base["converged"],
                "cross_check_error": base["cross_check_error"],
                "potential_besov": w_besov}
        for (k, res, ratio) in base["iterates"]:
            rows.append({"iteration": k, "residual": res, "ratio": ratio,
                         "contractive": base["contractive"],
                         "converged": base["converged"],
                         "cross_check_error": base["cross_check_error"],
                         "passed": base["passed"],
                         "wall_time_ms": base.get("wall_time_ms"),
                         "cell_index": k - 1,
                         "experiment_id": base.get("experiment_id")})
        return fits

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


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("STRICHARTZ_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer STRICHARTZ_LAB_THREADS={env!r}")
    return 1


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
        echo["seed"] = int(seed)
    kind = echo["experiment"]
    header, cells, run_cell, finalize = _DRIVERS[kind](echo)
    n_threads = _resolve_threads(threads)

    def timed_cell(i):
        cell = cells[i]
        cell_seed = derive_cell_seed(echo["seed"], i)
        t0 = time.perf_counter()
        try:
            row = run_cell(cell, cell_seed)
            failed = False
        except NumericFailureError as exc:
            row = {"passed": False, "note": str(exc)}
            failed = True
        except Warning as exc:
            row = {"passed": False, "note": f"warning escalated: {exc}"}
            failed = True
        row.setdefault("passed", True)
        row["cell_index"] = i
        row["experiment_id"] = kind
        row["wall_time_ms"] = (time.perf_counter() - t0) * 1e3
        return row, failed

    # the warning filter is process-wide state: set it once around the
    # whole sweep, not per cell, so threaded runs behave like serial ones
    with warnings.catch_warnings():
        warnings.simplefilter("error" if strict else "default")
        if n_threads == 1 or len(cells) <= 1:
            results = [timed_cell(i) for i in range(len(cells))]
        else:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
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
                   **({"note": r["note"]} if "note" in r else {})}
                  for r in rows],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    exit_code = 0 if all_passed and numeric_failures == 0 else 1
    return RunResult(exit_code, rows, summary)
