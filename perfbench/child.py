"""One repetition of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --mode setup|run|trace
                               --out DIR [--seed N]

``setup`` imports the package and loads every config of the workload;
``run`` then calls ``harness.run`` on each config back to back, with no
warm-up, and checks the outputs; ``trace`` does the same with the span
wrappers of ``spans.py`` installed.  Only ``trace`` imports ``spans``:
the other modes patch nothing.  The last line of standard output is one
JSON object with the measurements.

Per-layer metrics of a traced child, for each span name in LAYERS:
``<name>.calls``, ``<name>.s`` (self time: span time minus the child
spans it encloses; ``harness.flow.self_s`` for the flow engine) and
``<name>.share`` (self time / (harness threads x wall time)).  A layer the
workload never calls reads 0.  Besides those:

    harness.cells, harness.cell_busy_s, harness.cell_max_s
        count, summed and longest span of the drivers' ``run_cell``
    harness.thread_busy_ratio
        busy / (threads x cell-phase wall), the cell phase of a
        ``harness.run`` running from its first cell start to its last
        cell end
    harness.flow.time_steps, harness.flow.spectral_bytes
        time grid points over all flow calls; the largest spectral block
        of one call (samples x grid points x 16 B), computed, not measured
    fft.points, fft.bytes_computed
        input points, and input plus output bytes, from array sizes
    kernels.grid_evals      T x X points over every sweep level
    kernels.refined_ratio   refined sup reports / sup reports
    kernels.vdc.panels      quadrature panels
    hartree.fixed_point.iterations
    linalg.flops_computed   dense-cost estimate from operand shapes
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

import check
from workloads import WORKLOADS, load_input

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (span name, report its calls, name of its self-time metric)
LAYERS = (
    ("harness.flow", True, "self_s"),
    ("geometry.frac_product", True, "s"),
    ("geometry.transform", True, "s"),
    ("fft", True, "s"),
    ("kernels.sup", True, "s"),
    ("kernels.vdc", False, "s"),
    ("ons.density_field", True, "s"),
    ("norms.mixed_norm", False, "s"),
    ("hartree.evolve", False, "s"),
    ("hartree.split_step", True, "s"),
    ("hartree.energy", True, "s"),
    ("hartree.duhamel", False, "s"),
    ("hartree.distance", False, "s"),
    ("schatten.sobolev", True, "s"),
    ("schatten.duality", False, "s"),
    ("linalg", True, "s"),
)

# counters reported as the tracer totals them
COUNTS = ("fft.points", "fft.bytes_computed", "harness.flow.time_steps",
          "harness.flow.spectral_bytes", "kernels.grid_evals",
          "kernels.vdc.panels", "hartree.fixed_point.iterations",
          "linalg.flops_computed")


def _blas_info(np) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}


def layer_metrics(tracer, wall_s, threads, run_windows) -> dict:
    totals = tracer.layer_totals()
    counts = tracer.counts()
    busy_denom = threads * wall_s
    m = {}
    for name, with_calls, self_key in LAYERS:
        calls, self_s, _, _ = totals.get(name, (0, 0.0, 0.0, 0.0))
        if with_calls:
            m[f"{name}.calls"] = calls
        m[f"{name}.{self_key}"] = self_s
        m[f"{name}.share"] = self_s / busy_denom
    for name in COUNTS:
        m[name] = counts.get(name, 0)
    reports = counts.get("kernels.reports", 0)
    m["kernels.refined_ratio"] = \
        counts.get("kernels.refined", 0) / reports if reports else 0.0

    cells, _, busy, longest = totals.get("harness.cell", (0, 0.0, 0.0, 0.0))
    # the cell phase of each harness.run: first cell start to last cell end
    phase = 0.0
    cell_spans = [(t0, t1) for _, _, _, name, t0, t1, _ in tracer.spans()
                  if name == "harness.cell"]
    for lo, hi in run_windows:
        inside = [(t0, t1) for t0, t1 in cell_spans if lo <= t0 <= hi]
        if inside:
            phase += max(t1 for _, t1 in inside) - min(t0 for t0, _ in inside)
    m["harness.cells"] = cells
    m["harness.cell_busy_s"] = busy
    m["harness.cell_max_s"] = longest
    m["harness.thread_busy_ratio"] = busy / (threads * phase) if phase else 0.0
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import strichartz_lab
    from strichartz_lab import harness
    from strichartz_lab.config import load_config, validate_config
    t1 = time.perf_counter()
    echos = [load_input(name, ROOT, load_config, validate_config)
             for name in workload.inputs]
    t2 = time.perf_counter()
    if os.path.dirname(os.path.abspath(strichartz_lab.__file__)) != \
            os.path.join(SRC, "strichartz_lab"):
        print(f"strichartz_lab imported from {strichartz_lab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import numpy as np
    result = {
        "setup_s": t2 - t0, "import_s": t1 - t0, "validate_s": t2 - t1,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__, "blas": _blas_info(np),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                "harness_threads": workload.threads},
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        walls, windows, raised = {}, [], {}
        for name, echo in zip(workload.inputs, echos):
            out = os.path.join(args.out, name)
            lo = time.perf_counter()
            try:
                harness.run(echo, out, seed=args.seed,
                            threads=workload.threads)
            except Exception:  # a run that raises fails all of its cells
                raised[name] = traceback.format_exc().strip().splitlines()[-1]
            hi = time.perf_counter()
            walls[name] = hi - lo
            windows.append((lo, hi))
        attempted = failed = 0
        notes = []
        for name in workload.inputs:
            if name in raised:
                a = f = len(check.load_reference(name)["rows"])
                n = [f"raised {raised[name]}"]
            else:
                a, f, n = check.check_run(
                    name, os.path.join(args.out, name), args.seed)
            attempted += a
            failed += f
            notes += [f"{name}: {x}" for x in n]
        result.update(
            wall_s=sum(walls.values()), input_wall_s=walls,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            attempted=attempted, failed=failed, notes=notes)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, result["wall_s"],
                                             workload.threads, windows)
            tracer.write(os.path.join(args.out, "spans.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
