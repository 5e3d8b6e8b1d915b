"""The benchmark's tracer patches package names with no guard: it replaces
``harness._DRIVERS``' entries, ``harness.fixed_point_iterate`` and
``kernels._scaled_kernel_max``, and its flow counter reads
``_flow_ratios``' positional arguments.  A rename or a new call shape of
any of them stops the traced benchmark run, so a traced run of tiny
configs checks them here.  The benchmark's files are read, never written
(no bytecode is cached).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, sys, tempfile
import spans
from strichartz_lab import harness

tracer = spans.Tracer()
spans.install(tracer)
configs = {
    "strichartz-fit": {"geometry": {"kind": "torus", "grid_sizes": [32]},
                       "params": {"family": "random", "N": [2, 4, 8],
                                  "samples": 3, "time_pts": 9}},
    "ons-sweep": {"geometry": {"kind": "torus", "grid_sizes": [32]},
                  "params": {"N": [2, 4, 8], "time_pts": 9}},
    "kernel-sweep": {"params": {"theta": [3.0], "N": [4, 8],
                                "t_grid_pts": 64, "x_grid_pts": 64,
                                "check_refinement": False}},
    "fixed-point": {"geometry": {"kind": "torus", "grid_sizes": [16]},
                    "params": {"iterations": 2, "time_pts": 6}},
}
codes = {}
with tempfile.TemporaryDirectory() as tmp:
    for kind, cfg in configs.items():
        res = harness.run({"experiment": kind, **cfg}, f"{tmp}/{kind}")
        codes[kind] = [res.exit_code, len(res.rows)]
print(json.dumps({"codes": codes, "counts": tracer.counts(),
                  "calls": {k: v[0] for k, v in
                            tracer.layer_totals().items()}}))
"""


def test_traced_run_reaches_every_patched_name():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    codes, counts, calls = out["codes"], out["counts"], out["calls"]
    assert all(code in (0, 1) for code, _ in codes.values()), codes
    # one cell span per row that a driver ran
    assert calls["harness.cell"] == sum(
        rows for kind, (_, rows) in codes.items() if kind != "fixed-point") + 1
    # one _flow_ratios call of 9 steps per strichartz-fit cell, its batch
    # of 3 samples on the 32-point grid
    assert calls["harness.flow"] == 3
    assert counts["harness.flow.time_steps"] == 27
    assert counts["harness.flow.spectral_bytes"] == 3 * 32 * 16
    # one family draw per ons-sweep cell
    assert calls["ons.density_field"] == 3
    # the 64 x 64 window grid of each kernel-sweep cell
    assert counts["kernels.grid_evals"] == 2 * 64 * 64
    # one fixed-point row per iteration
    assert counts["hartree.fixed_point.iterations"] == \
        codes["fixed-point"][1]
    assert calls["hartree.duhamel"] == codes["fixed-point"][1]
