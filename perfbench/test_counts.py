"""The benchmark's own test: its counts repeat exactly, and the traced
child reports exactly the per-layer metrics that BENCHMARK.json lists.

    python3 -m pytest perfbench/test_counts.py     # about two minutes

Each workload runs traced twice, in fresh processes, at the configs' own
seeds.  A later change may claim a count (not a speed-up) only on a
counter that this test holds fixed.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = ("fft.calls", "fft.points", "fft.bytes_computed",
         "harness.flow.time_steps", "kernels.grid_evals",
         "kernels.vdc.panels", "hartree.split_step.calls",
         "hartree.energy.calls", "linalg.calls",
         "hartree.fixed_point.iterations")

# added by run.py, not by the traced child
RUN_LEVEL = {"package.import_s", "config.validate_s", "trace.overhead_s"}


def _per_layer_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    out = os.path.join(run.ROOT, ".perfbench_out", "test", workload)
    layers = []
    for i in range(2):
        r = run.run_child(workload, "trace", None, os.path.join(out, str(i)),
                          timeout=170.0)
        assert r["failed"] == 0, r["notes"]
        layers.append(r["layers"])
    first, second = layers
    for name in EXACT:
        assert first[name] == second[name], name
    declared = _per_layer_names()
    assert set(first) | RUN_LEVEL == set(declared)
    for name, value in first.items():
        assert run.unit_of(name) == declared[name], name
        assert value >= 0, name
