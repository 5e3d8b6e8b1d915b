"""Property test of the CLI contract: a schema-valid config either exits
0/1 with all three artifacts written, or exits 2 with none; it never ends
in a traceback.  hypothesis is an optional test dependency."""

import json
import math
import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from strichartz_lab.cli import main as cli_main  # noqa: E402
from strichartz_lab.config import schema_document  # noqa: E402
from strichartz_lab.norms import SIGMA_SELECTORS  # noqa: E402

ARTIFACTS = ("results.csv", "summary.json", "manifest.json")


def run_contract(cfg, *options):
    """Run ``cfg`` through the CLI, with extra ``options``, and check the
    exit code and artifacts."""
    kind = cfg["experiment"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out_dir = os.path.join(tmp, "out")
        # refinement warnings are part of a normal run here
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            code = cli_main([kind, "--config", path, "--out", out_dir,
                             *options])
        written = [os.path.exists(os.path.join(out_dir, name))
                   for name in ARTIFACTS]
    assert code in (0, 1, 2)
    if code == 2:
        assert not any(written)
    else:
        assert all(written)


SCHEMA = schema_document()["experiments"]


def bounded(kind, key, hi):
    """Draws for ``params[key]`` of ``kind`` around its schema bound:
    mostly from [bound, hi], sometimes at or below the bound, and for a
    float key also infinity (rejected when the key must be finite).  A key
    bounded only by ``finite`` draws from [-hi, hi]."""
    opt = SCHEMA[kind][key]
    low = opt.get("exclusiveMinimum", opt.get("minimum"))
    if opt["type"] in ("int", "list-int", "list-pair"):
        valid, rare = st.integers(low, hi), [st.integers(low - 2, low)]
    elif low is None:
        valid, rare = st.floats(-hi, hi), [st.just(math.inf)]
    else:
        valid = st.floats(low, hi, exclude_min="exclusiveMinimum" in opt)
        rare = [st.just(low), st.floats(low - 1, low, exclude_max=True),
                st.just(math.inf)]
    # a config has several bounded keys, so each one leans hard towards
    # its valid range for a fair share of examples to run end to end (a
    # one_of would drop the repeats and draw each branch equally often)
    return st.sampled_from([valid] * 4 + rare).flatmap(lambda s: s)


def now_and_then(strategy, *values):
    """``strategy``, and now and then one of ``values``: an input that
    overflows a float downstream, such as theta = 1000, whose symbol
    |xi|^theta is inf at every |xi| >= 2."""
    return st.sampled_from([strategy] * 4 + [st.sampled_from(values)]) \
        .flatmap(lambda s: s)


# potentials with their Besov metadata s and q' and the Gaussian width
# sigma_w around their bounds: q' < 1, and an s or sigma_w whose Besov
# weight 2^(k s) or Gaussian exponent sigma_w^2 |xi|^2 / 2 overflows
# the geometries of the band sweeps, by grid: tori, and a waveguide with
# one free axis on which the torus estimates do not apply
def geometry_of(grid):
    if len(grid) == 1:
        return {"kind": "torus", "grid_sizes": grid}
    return {"kind": "waveguide", "grid_sizes": grid, "n_free": 1}


GRIDS = st.sampled_from([[16], [32], [16, 8]])
# the default estimate (None), or now and then any other
ESTIMATES = now_and_then(st.none(), *sorted(SIGMA_SELECTORS))


POTENTIALS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["yukawa", "gaussian", "cosine", "zero"])},
    optional={"s": now_and_then(st.floats(-2.0, 2.0), 1e300, math.inf),
              "sigma_w": now_and_then(st.floats(-3.0, 3.0), 1e300,
                                      math.nan),
              "qprime": now_and_then(st.floats(1.0, 8.0), 0.5,
                                     math.inf)})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(theta=st.lists(bounded("kernel-sweep", "theta", 4.0), min_size=1,
                      max_size=2),
       N=st.lists(bounded("kernel-sweep", "N", 64), min_size=1, max_size=3),
       t_grid_pts=bounded("kernel-sweep", "t_grid_pts", 160),
       x_grid_pts=bounded("kernel-sweep", "x_grid_pts", 160),
       t_min=bounded("kernel-sweep", "t_min", 1e-4),
       check_refinement=st.booleans())
def test_kernel_sweep_cli_contract(theta, N, t_grid_pts, x_grid_pts, t_min,
                                   check_refinement):
    run_contract({"experiment": "kernel-sweep",
                  "params": {"theta": theta, "N": N, "t_grid_pts": t_grid_pts,
                             "x_grid_pts": x_grid_pts, "t_min": t_min,
                             "check_refinement": check_refinement}})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grid=GRIDS,
       estimate=ESTIMATES,
       family=st.sampled_from(["dirichlet", "random"]),
       N=st.lists(bounded("strichartz-fit", "N", 6), min_size=1, max_size=3),
       time_pts=bounded("strichartz-fit", "time_pts", 20),
       time_pts_scale=bounded("strichartz-fit", "time_pts_scale", 4.0),
       samples=bounded("strichartz-fit", "samples", 3),
       p=bounded("strichartz-fit", "p", 10.0),
       q=st.none() | bounded("strichartz-fit", "q", 10.0),
       theta=bounded("strichartz-fit", "theta", 4.0),
       # N^(sigma + sigma_margin) overflows or underflows at +-1e300
       sigma_margin=st.sampled_from([st.floats(-0.5, 0.5)] * 4
                                    + [st.just(1e300), st.just(-1e300)])
       .flatmap(lambda s: s))
@example(grid=[16], estimate=None, family="random", N=[2, 4], time_pts=5,
         time_pts_scale=4.0, samples=2, p=4.0, q=None, theta=2.0,
         sigma_margin=-1e300)
# an N beyond the float range
@example(grid=[16], estimate=None, family="random", N=[2, 10 ** 400],
         time_pts=5, time_pts_scale=4.0, samples=2, p=4.0, q=None, theta=2.0,
         sigma_margin=0.0)
# each waveguide estimate on the torus, at a pair on its line
@example(grid=[64], estimate="waveguide-single", family="dirichlet",
         N=[2, 4], time_pts=5, time_pts_scale=0.0, samples=1, p=4.0, q=4.0,
         theta=2.5, sigma_margin=0.0)
@example(grid=[64], estimate="waveguide-ons", family="dirichlet", N=[2, 4],
         time_pts=5, time_pts_scale=0.0, samples=1, p=4.0, q=2.0, theta=2.5,
         sigma_margin=0.0)
@example(grid=[64], estimate="waveguide-tunable-ons", family="dirichlet",
         N=[2, 4], time_pts=5, time_pts_scale=0.0, samples=1, p=4.0, q=2.0,
         theta=2.5, sigma_margin=0.0)
def test_strichartz_fit_cli_contract(grid, estimate, family, N, time_pts,
                                     time_pts_scale, samples, p, q, theta,
                                     sigma_margin):
    # q = None draws a diagonal pair, the only kind the default estimate
    # accepts, so that some examples run end to end
    run_contract({"experiment": "strichartz-fit",
                  "geometry": geometry_of(grid),
                  "params": {"family": family, "N": N, "time_pts": time_pts,
                             "time_pts_scale": time_pts_scale,
                             "samples": samples, "p": p,
                             "q": p if q is None else q, "theta": theta,
                             "sigma_margin": sigma_margin,
                             **({} if estimate is None
                                else {"estimate": estimate})}})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(theta=bounded("vdc-oracle", "theta", 3.5),
       b=bounded("vdc-oracle", "b", 2.5),
       t=st.lists(bounded("vdc-oracle", "t", 100.0), min_size=1,
                  max_size=2),
       p=st.integers(-3, 3),
       seed=st.integers(0, 2 ** 64 - 1),
       cli_seed=st.none() | st.integers(0, 2 ** 64 - 1))
# a p beyond the float range; config and --seed seeds outside [0, 2^64)
@example(theta=3.0, b=2.0, t=[10.0], p=10 ** 400, seed=0, cli_seed=None)
@example(theta=3.0, b=2.0, t=[10.0], p=0, seed=-1, cli_seed=None)
@example(theta=3.0, b=2.0, t=[10.0], p=0, seed=2 ** 64, cli_seed=None)
@example(theta=3.0, b=2.0, t=[10.0], p=0, seed=0, cli_seed=-5)
def test_vdc_oracle_cli_contract(theta, b, t, p, seed, cli_seed):
    run_contract({"experiment": "vdc-oracle", "seed": seed,
                  "params": {"theta": theta, "b": b, "t": t, "p": p}},
                 *([] if cli_seed is None else ["--seed", str(cli_seed)]))


FIXED_POINT = dict(members=4, band=4, time_pts=26, iterations=6, q=None,
                   theta=2.0, T=0.05, cross_check_dt=1e-3,
                   potential={"kind": "yukawa"})


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(grid=st.sampled_from([[8], [16], [4, 4]]),
       members=st.integers(1, 4) | st.integers(1, 4) | st.integers(0, 6),
       band=st.integers(1, 3) | st.integers(1, 3) | st.integers(0, 4),
       time_pts=bounded("fixed-point", "time_pts", 8),
       iterations=bounded("fixed-point", "iterations", 4),
       q=st.none() | st.none() | bounded("fixed-point", "q", 6.0),
       theta=now_and_then(bounded("fixed-point", "theta", 4.0), 1000.0),
       T=bounded("fixed-point", "T", 0.1),
       # at most 100 split steps per unit time, so that a run stays short,
       # or a step count far beyond the cap
       cross_check_dt=now_and_then(
           bounded("fixed-point", "cross_check_dt", 0.05)
           .filter(lambda dt: not 0 < dt < 0.01), 5e-324, 1e-300),
       potential=POTENTIALS)
# 4M = 12 eigendirections on an 8-point grid
@example(grid=[8], **{**FIXED_POINT, "members": 3, "band": 2, "time_pts": 4,
                      "iterations": 2})
# a symbol that overflows, and cross-checks of inf and 2e297 split steps
@example(grid=[16], **{**FIXED_POINT, "theta": 1000.0})
@example(grid=[16], **{**FIXED_POINT, "cross_check_dt": 5e-324})
@example(grid=[16], **{**FIXED_POINT, "cross_check_dt": 1e-300})
# a band and a cosine frequency beyond the float range
@example(grid=[16], **{**FIXED_POINT, "band": 10 ** 400})
@example(grid=[16], **{**FIXED_POINT,
                       "potential": {"kind": "cosine", "k0": 10 ** 400}})
def test_fixed_point_cli_contract(grid, members, band, time_pts, iterations,
                                  q, theta, T, cross_check_dt, potential):
    # q = None draws the density-line exponent at p = 4 (q = 2 in 1-D,
    # 4/3 in 2-D), so that some examples run end to end; one
    # nonincreasing weight per member
    run_contract({"experiment": "fixed-point",
                  "geometry": {"kind": "torus", "grid_sizes": grid},
                  "params": {"members": members, "band": band,
                             "weights": [0.4 / (j + 1)
                                         for j in range(members)],
                             "time_pts": time_pts, "iterations": iterations,
                             "p": 4.0,
                             "q": q or (2.0 if len(grid) == 1 else 4 / 3),
                             "theta": theta, "T": T,
                             "cross_check_dt": cross_check_dt,
                             "potential": potential}})


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(grid=GRIDS,
       estimate=ESTIMATES,
       N=st.lists(bounded("ons-sweep", "N", 4), min_size=1, max_size=3),
       alpha_prime=st.lists(bounded("ons-sweep", "alpha_prime", 2.0),
                            min_size=1, max_size=2),
       theta=now_and_then(bounded("ons-sweep", "theta", 4.0), 1000.0),
       p=bounded("ons-sweep", "p", 10.0),
       q=bounded("ons-sweep", "q", 10.0),
       time_pts=bounded("ons-sweep", "time_pts", 6),
       family=st.sampled_from(["fourier-modes", "random-band"]),
       count=bounded("ons-sweep", "family_kinds", 2),
       interval_mode=st.sampled_from(["unit", "dispersive-window"]))
# on the theta line: a symbol that overflows at every N, and a dispersive
# window 0.5 N^(1 - theta) that underflows to 0 at N = 16 and 32
@example(grid=[64], estimate=None, N=[8, 16, 32], alpha_prime=[4 / 3],
         theta=1000.0, p=2000.0, q=2.0, time_pts=33, family="fourier-modes",
         count=1, interval_mode="unit")
@example(grid=[64], estimate=None, N=[8, 16, 32], alpha_prime=[4 / 3],
         theta=300.0, p=600.0, q=2.0, time_pts=33, family="fourier-modes",
         count=1, interval_mode="dispersive-window")
# an N beyond the float range
@example(grid=[64], estimate=None, N=[8, 10 ** 400], alpha_prime=[4 / 3],
         theta=3.0, p=6.0, q=2.0, time_pts=33, family="fourier-modes",
         count=1, interval_mode="unit")
# each waveguide estimate on the torus, at a pair on the theta line
@example(grid=[64], estimate="waveguide-single", N=[8, 16, 32],
         alpha_prime=[4 / 3], theta=3.0, p=6.0, q=2.0, time_pts=33,
         family="fourier-modes", count=1, interval_mode="unit")
@example(grid=[64], estimate="waveguide-ons", N=[8, 16, 32],
         alpha_prime=[4 / 3], theta=3.0, p=6.0, q=2.0, time_pts=33,
         family="fourier-modes", count=1, interval_mode="unit")
@example(grid=[64], estimate="waveguide-tunable-ons", N=[8, 16, 32],
         alpha_prime=[4 / 3], theta=3.0, p=6.0, q=2.0, time_pts=33,
         family="fourier-modes", count=1, interval_mode="unit")
def test_ons_sweep_cli_contract(grid, estimate, N, alpha_prime, theta, p, q,
                                time_pts, family, count, interval_mode):
    run_contract({"experiment": "ons-sweep",
                  "geometry": geometry_of(grid),
                  "params": {"N": N, "alpha_prime": alpha_prime,
                             "theta": theta, "p": p, "q": q,
                             "time_pts": time_pts,
                             "family_kinds": [[family, count]],
                             "interval_mode": interval_mode,
                             **({} if estimate is None
                                else {"estimate": estimate})}})


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(geometry=st.sampled_from([
           {"kind": "torus", "grid_sizes": [8]},
           {"kind": "torus", "grid_sizes": [16]},
           {"kind": "torus", "grid_sizes": [4, 4]},
           # the box-origin sign of a free axis enters the band Gram
           {"kind": "waveguide", "grid_sizes": [8, 4], "n_free": 1}]),
       N=bounded("duality-check", "N", 3),
       alpha=st.lists(bounded("duality-check", "alpha", 6.0), min_size=1,
                      max_size=2),
       theta=now_and_then(bounded("duality-check", "theta", 4.0), 1000.0),
       # 5000 times fit the weight film cap on every grid; 10^7 times
       # overflow it on every grid
       time_pts=bounded("duality-check", "time_pts", 6) | st.just(5000)
       | st.just(10 ** 7),
       interval=st.tuples(st.floats(-1.0, 0.0), st.floats(0.5, 1.0)).map(list)
       | st.lists(st.floats(-1.0, 1.0) | st.just(math.inf), min_size=1,
                  max_size=3),
       weight=st.sampled_from(["unit", "random"]),
       samples=bounded("duality-check", "samples", 5))
@example(geometry={"kind": "waveguide", "grid_sizes": [8, 4], "n_free": 1},
         N=3, alpha=[1.0, 4.0], theta=2.0, time_pts=5, interval=[0.0, 1.0],
         weight="random", samples=5)
# a symbol that overflows: the band Gram is NaN
@example(geometry={"kind": "torus", "grid_sizes": [16]}, N=2, alpha=[4.0],
         theta=1000.0, time_pts=9, interval=[0.0, 1.0], weight="unit",
         samples=5)
# an N beyond the float range
@example(geometry={"kind": "torus", "grid_sizes": [16]}, N=10 ** 400,
         alpha=[4.0], theta=2.0, time_pts=9, interval=[0.0, 1.0],
         weight="unit", samples=5)
def test_duality_check_cli_contract(geometry, N, alpha, theta, time_pts,
                                    interval, weight, samples):
    run_contract({"experiment": "duality-check",
                  "geometry": geometry,
                  "params": {"N": N, "alpha": alpha, "theta": theta,
                             "time_pts": time_pts, "interval": interval,
                             "weight": weight, "samples": samples}})


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(grid=st.sampled_from([[8], [16], [4, 4]]),
       members=st.integers(1, 3) | st.integers(0, 5),
       band=st.integers(1, 2) | st.integers(0, 4),
       theta=st.lists(now_and_then(bounded("hartree-run", "theta", 4.0),
                                   1000.0), min_size=1, max_size=2),
       T=bounded("hartree-run", "T", 0.05),
       dt=st.lists(st.floats(0.005, 0.02) | st.floats(-0.01, 0.2),
                   min_size=1, max_size=2),
       q_report=bounded("hartree-run", "q_report", 10.0),
       potential=POTENTIALS)
# a symbol that overflows; a Besov exponent q' < 1, and a Gaussian
# exponent and a Besov weight that overflow
@example(grid=[16], members=4, band=2, theta=[1000.0], T=0.05, dt=[0.01],
         q_report=2.0, potential={"kind": "yukawa"})
@example(grid=[16], members=4, band=2, theta=[2.0], T=0.05, dt=[0.01],
         q_report=2.0, potential={"kind": "yukawa", "qprime": 0.5})
@example(grid=[16], members=4, band=2, theta=[2.0], T=0.05, dt=[0.01],
         q_report=2.0, potential={"kind": "gaussian", "sigma_w": 1e300})
@example(grid=[16], members=4, band=2, theta=[2.0], T=0.05, dt=[0.01],
         q_report=2.0, potential={"kind": "yukawa", "s": 1e300})
# a band and a cosine frequency beyond the float range
@example(grid=[16], members=4, band=10 ** 400, theta=[2.0], T=0.05,
         dt=[0.01], q_report=2.0, potential={"kind": "yukawa"})
@example(grid=[16], members=4, band=2, theta=[2.0], T=0.05, dt=[0.01],
         q_report=2.0, potential={"kind": "cosine", "k0": 10 ** 400})
def test_hartree_run_cli_contract(grid, members, band, theta, T, dt,
                                  q_report, potential):
    # one nonincreasing weight per member
    run_contract({"experiment": "hartree-run",
                  "geometry": {"kind": "torus", "grid_sizes": grid},
                  "params": {"members": members, "band": band,
                             "weights": [0.4 / (j + 1)
                                         for j in range(members)],
                             "theta": theta, "T": T, "dt": dt,
                             "q_report": q_report,
                             "potential": potential}})
