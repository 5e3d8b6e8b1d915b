"""Experiment configuration: JSON schema, validation, default materialization.

Configs are flat JSON objects with a fixed top level::

    {"experiment": "<kind>", "seed": 1, "geometry": {...}, "params": {...}}

Unknown keys are rejected at every level and every default is filled in,
so the echoed config written next to the results is complete and
re-runnable byte for byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError
from .geometry import GeometrySpec
from .hartree import PotentialSpec
from .norms import ADMISSIBILITY_KINDS, SIGMA_SELECTORS

__all__ = ["EXPERIMENT_KINDS", "validate_config", "load_config",
           "schema_document"]


@dataclass(frozen=True)
class _Opt:
    typ: str                     # int | num | bool | str | list-int |
                                 # list-num | list-pair | obj
    default: Any = None
    required: bool = False
    choices: tuple | None = None  # for a list-pair: allowed pair names
    # bounds on a number, each list entry or list-pair count (NaN fails)
    min: float | None = None     # at least min, or above it when strict
    strict: bool = False
    finite: bool = False         # and below infinity


_ESTIMATES = tuple(SIGMA_SELECTORS)
_POSITIVE = {"min": 0, "strict": True, "finite": True}  # finite and > 0

_GEOMETRY_SCHEMA = {
    "kind": _Opt("str", required=True, choices=("torus", "waveguide")),
    "grid_sizes": _Opt("list-int", required=True),
    "n_free": _Opt("int", 0),
    "trunc_length": _Opt("num", 1.0),
}

_POTENTIAL_SCHEMA = {
    "kind": _Opt("str", required=True,
                 choices=("yukawa", "gaussian", "cosine", "identity", "zero")),
    "a": _Opt("num", 1.0),
    "sigma_w": _Opt("num", 1.0),
    "k0": _Opt("int", 1, finite=True),
    "s": _Opt("num", 0.5),
    "qprime": _Opt("num", 2.0, min=1),
}

_SCHEMAS: dict[str, dict[str, _Opt]] = {
    "kernel-sweep": {
        "theta": _Opt("list-num", [2.5, 3.0], min=2, finite=True),
        "N": _Opt("list-int", [8, 16, 32, 64, 128], min=0),
        "t_grid_pts": _Opt("int", 512, min=64),
        "x_grid_pts": _Opt("int", 512, min=64),
        "t_min": _Opt("num", 1e-6, min=0, strict=True),
        "max_ratio": _Opt("num", 2.0),
        "check_refinement": _Opt("bool", True),
    },
    "vdc-oracle": {
        "theta": _Opt("num", 3.0, min=2, finite=True),
        "x": _Opt("num", 0.0, finite=True),
        "p": _Opt("int", 0, finite=True),
        "b": _Opt("num", 2.0, min=1, strict=True),
        "t": _Opt("list-num", [10.0, 100.0, 1000.0], finite=True),
        "tol": _Opt("num", 1e-8, **_POSITIVE),
        "max_ratio": _Opt("num", 2.0),
    },
    "strichartz-fit": {
        "theta": _Opt("num", 2.0, **_POSITIVE),
        "p": _Opt("num", 8.0, min=1),
        "q": _Opt("num", 8.0, min=1),
        "N": _Opt("list-int", [8, 16, 32, 64, 128], min=1, finite=True),
        "family": _Opt("str", "dirichlet", choices=("dirichlet", "random")),
        "samples": _Opt("int", 100, min=1),
        "time_pts": _Opt("int", 257, min=2),
        "time_pts_scale": _Opt("num", 4.0, min=0, finite=True),
        "estimate": _Opt("str", "diagonal-schrodinger-cutoff",
                         choices=_ESTIMATES),
        "sigma_margin": _Opt("num", 0.05),
        "slope_tol": _Opt("num", 0.12),
        "spread_max": _Opt("num", 3.0),
    },
    "ons-sweep": {
        "theta": _Opt("num", 3.0, **_POSITIVE),
        "p": _Opt("num", 6.0, min=1),
        "q": _Opt("num", 2.0, min=1),
        "alpha_prime": _Opt("list-num", [4.0 / 3.0], min=1),
        "N": _Opt("list-int", [8, 16, 32, 64, 128], min=1, finite=True),
        "estimate": _Opt("str", "theta-line-ons", choices=_ESTIMATES),
        # a norms.classify_pair kind, or "" for no check
        "admissibility": _Opt("str", "theta-line",
                              choices=("",) + ADMISSIBILITY_KINDS),
        "family_kinds": _Opt("list-pair", [["fourier-modes", 1]],
                             choices=("fourier-modes", "random-band"), min=1),
        "lambda_kind": _Opt("str", "flat",
                            choices=("flat", "power", "one-hot")),
        "time_pts": _Opt("int", 33, min=2),
        "interval_mode": _Opt("str", "unit",
                              choices=("unit", "dispersive-window")),
        "slope_tol": _Opt("num", 0.1),
    },
    "duality-check": {
        "N": _Opt("int", 2, min=1, finite=True),
        "alpha": _Opt("list-num", [4.0], min=1),
        "theta": _Opt("num", 2.0, **_POSITIVE),
        "time_pts": _Opt("int", 9, min=2),
        "interval": _Opt("list-num", [0.0, 1.0]),
        "weight": _Opt("str", "unit", choices=("unit", "random")),
        "samples": _Opt("int", 200, min=1),
    },
    "hartree-run": {
        "theta": _Opt("list-num", [2.0, 3.0], **_POSITIVE),
        "members": _Opt("int", 4),
        "band": _Opt("int", 2, finite=True),
        "weights": _Opt("list-num", [0.4, 0.3, 0.2, 0.1]),
        "potential": _Opt("obj", {"kind": "yukawa"}),
        "T": _Opt("num", 1.0, **_POSITIVE),
        "dt": _Opt("list-num", [1e-3, 5e-4]),
        "q_report": _Opt("num", 2.0, min=1),
        "mass_tol": _Opt("num", 1e-10),
        "gram_tol": _Opt("num", 1e-9),
        "energy_tol": _Opt("num", 1e-6),
        "halving_min": _Opt("num", 3.5),
    },
    "fixed-point": {
        "theta": _Opt("num", 2.0, **_POSITIVE),
        "members": _Opt("int", 4),
        "band": _Opt("int", 4, finite=True),
        "weights": _Opt("list-num", [0.4, 0.3, 0.2, 0.1]),
        "target_norm": _Opt("num", 0.1, **_POSITIVE),
        "potential": _Opt("obj", {"kind": "yukawa"}),
        "T": _Opt("num", 0.05, **_POSITIVE),
        "iterations": _Opt("int", 6, min=2),
        "p": _Opt("num", 4.0, min=1),
        "q": _Opt("num", 2.0, min=1),
        "time_pts": _Opt("int", 26, min=2),
        "ratio_max": _Opt("num", 0.5),
        "cross_check_dt": _Opt("num", 1e-3, **_POSITIVE),
        "cross_check_tol": _Opt("num", 1e-4),
    },
}

EXPERIMENT_KINDS = tuple(sorted(_SCHEMAS))

_TOP_SCHEMA = {
    "experiment": _Opt("str", required=True, choices=EXPERIMENT_KINDS),
    "seed": _Opt("int", 0),
    "geometry": _Opt("obj", None),
    "params": _Opt("obj", {}),
}

_GEOMETRY_DEFAULTS = {
    "kernel-sweep": None,
    "vdc-oracle": None,
    "strichartz-fit": {"kind": "torus", "grid_sizes": [512]},
    "ons-sweep": {"kind": "torus", "grid_sizes": [512]},
    "duality-check": {"kind": "torus", "grid_sizes": [16]},
    "hartree-run": {"kind": "torus", "grid_sizes": [64]},
    "fixed-point": {"kind": "torus", "grid_sizes": [32]},
}


def _type_ok(value, typ: str) -> bool:
    if typ == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if typ == "num":  # an int beyond the float range is no number here
        return isinstance(value, float) or (
            _type_ok(value, "int") and abs(value) <= sys.float_info.max)
    if typ == "bool":
        return isinstance(value, bool)
    if typ == "str":
        return isinstance(value, str)
    if typ == "list-int":
        return isinstance(value, list) and all(_type_ok(v, "int") for v in value)
    if typ == "list-num":
        return isinstance(value, list) and all(_type_ok(v, "num") for v in value)
    if typ == "list-pair":
        return isinstance(value, list) and all(
            isinstance(v, list) and len(v) == 2 and isinstance(v[0], str)
            and _type_ok(v[1], "int") for v in value)
    if typ == "obj":
        return value is None or isinstance(value, dict)
    return False


def _check_bound(val, opt: _Opt, key: str, field: str) -> None:
    low, finite = opt.min, opt.finite
    if opt.typ == "list-pair":
        val = [v[1] for v in val]
    for v in val if isinstance(val, list) else [val]:
        if not ((low is None or (v > low if opt.strict else v >= low))
                and (not finite or abs(v) <= sys.float_info.max)):
            bound = "" if low is None else \
                f" {'>' if opt.strict else '>='} {low:g}"
            got = f"{v:g}" if isinstance(v, float) else v
            raise ConfigError(f"{field}: need {'finite ' if finite else ''}"
                              f"{key}{bound}, got {got}", field=field)


def check_seed(seed: int, field: str) -> None:
    """Reject a global seed that is not a 64-bit word, the type of the
    per-cell seed derivation (``seeding.derive_cell_seeds``)."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{field}: need 0 <= seed < 2^64, got {seed}",
                          field=field)


def _apply_schema(obj: dict, schema: dict[str, _Opt], path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object", field=path)
    unknown = set(obj) - set(schema)
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s) {sorted(unknown)}", field=path)
    out = {}
    for key, opt in schema.items():
        if key in obj:
            val = obj[key]
            if not _type_ok(val, opt.typ):
                raise ConfigError(
                    f"{path}.{key}: expected {opt.typ}, got {val!r}",
                    field=f"{path}.{key}")
            if opt.typ.startswith("list") and not val:
                # an empty sweep list would run zero cells and pass
                raise ConfigError(f"{path}.{key}: must not be empty",
                                  field=f"{path}.{key}")
            names = [v[0] for v in val] if opt.typ == "list-pair" else [val]
            if opt.choices and any(v not in opt.choices for v in names):
                raise ConfigError(
                    f"{path}.{key}: must be one of {opt.choices}, got {val!r}",
                    field=f"{path}.{key}")
            _check_bound(val, opt, key, f"{path}.{key}")
            out[key] = val
        elif opt.required:
            raise ConfigError(f"{path}.{key}: required", field=f"{path}.{key}")
        else:
            out[key] = opt.default
    return out


def _build_geometry(cfg: dict | None, kind: str) -> GeometrySpec | None:
    if cfg is None:
        cfg = _GEOMETRY_DEFAULTS[kind]
    if cfg is None:
        return None
    g = _apply_schema(cfg, _GEOMETRY_SCHEMA, "geometry")
    try:
        return GeometrySpec(g["kind"], tuple(g["grid_sizes"]),
                            n_free=g["n_free"],
                            trunc_length=float(g["trunc_length"]))
    except Exception as exc:
        raise ConfigError(f"geometry: {exc}", field="geometry") from exc


def build_potential(cfg: dict) -> PotentialSpec:
    p = _apply_schema(cfg, _POTENTIAL_SCHEMA, "params.potential")
    try:
        return PotentialSpec(p["kind"], a=float(p["a"]),
                             sigma_w=float(p["sigma_w"]), k0=int(p["k0"]))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"params.potential: {exc}",
                          field="params.potential") from exc


def validate_config(raw: dict) -> dict:
    """Validate a config dict; returns the fully-defaulted echo."""
    top = _apply_schema(raw, _TOP_SCHEMA, "config")
    check_seed(top["seed"], "config.seed")
    kind = top["experiment"]
    params = _apply_schema(top["params"] or {}, _SCHEMAS[kind], "params")
    if "potential" in params:
        build_potential(params["potential"])  # validate eagerly
        params["potential"] = _apply_schema(
            params["potential"], _POTENTIAL_SCHEMA, "params.potential")
    geometry = _build_geometry(top["geometry"], kind)
    echo = {
        "experiment": kind,
        "seed": top["seed"],
        "geometry": None if geometry is None else {
            "kind": geometry.kind,
            "grid_sizes": list(geometry.grid_sizes),
            "n_free": geometry.n_free,
            "trunc_length": geometry.trunc_length,
        },
        "params": params,
    }
    return echo


def geometry_from_echo(echo: dict) -> GeometrySpec | None:
    g = echo.get("geometry")
    if g is None:
        return None
    return GeometrySpec(g["kind"], tuple(g["grid_sizes"]),
                        n_free=g["n_free"], trunc_length=g["trunc_length"])


def load_config(path: str) -> dict:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return validate_config(raw)


def schema_document() -> dict:
    """Machine-readable schema of every experiment kind."""
    def render(schema):
        return {k: {"type": o.typ, "default": o.default,
                    "required": o.required,
                    **({"choices": list(o.choices)} if o.choices else {}),
                    **({} if o.min is None else {
                        "exclusiveMinimum" if o.strict else "minimum": o.min}),
                    **({"finite": True} if o.finite else {})}
                for k, o in schema.items()}

    return {
        "top_level": render(_TOP_SCHEMA),
        "geometry": render(_GEOMETRY_SCHEMA),
        "potential": render(_POTENTIAL_SCHEMA),
        "experiments": {k: render(s) for k, s in _SCHEMAS.items()},
        "geometry_defaults": _GEOMETRY_DEFAULTS,
    }
