"""Property test of the CLI contract: a schema-valid config either exits
0/1 with all three artifacts written, or exits 2 with none; it never ends
in a traceback.  hypothesis is an optional test dependency."""

import json
import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from strichartz_lab.cli import main as cli_main  # noqa: E402

ARTIFACTS = ("results.csv", "summary.json", "manifest.json")


# each strategy leans towards the valid part of its range, so that a fair
# share of the examples runs end to end instead of failing preflight
grid_pts = st.integers(64, 160) | st.integers(0, 160)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(theta=st.lists(st.floats(2.0, 4.0) | st.floats(1.0, 4.0),
                      min_size=1, max_size=2),
       N=st.lists(st.integers(0, 64) | st.integers(-2, 400),
                  min_size=1, max_size=3),
       t_grid_pts=grid_pts,
       x_grid_pts=grid_pts,
       t_min=st.floats(1e-7, 1e-4) | st.floats(-1e-3, 1e-2),
       check_refinement=st.booleans())
def test_kernel_sweep_cli_contract(theta, N, t_grid_pts, x_grid_pts, t_min,
                                   check_refinement):
    cfg = {"experiment": "kernel-sweep",
           "params": {"theta": theta, "N": N, "t_grid_pts": t_grid_pts,
                      "x_grid_pts": x_grid_pts, "t_min": t_min,
                      "check_refinement": check_refinement}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out_dir = os.path.join(tmp, "out")
        # refinement warnings are part of a normal run here
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            code = cli_main(["kernel-sweep", "--config", path,
                             "--out", out_dir])
        written = [os.path.exists(os.path.join(out_dir, name))
                   for name in ARTIFACTS]
    assert code in (0, 1, 2)
    if code == 2:
        assert not any(written)
    else:
        assert all(written)
