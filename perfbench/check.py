"""Correctness check of one ``harness.run`` against a stored reference.

A reference (``reference/<input>.json``, written by ``make_reference.py``)
holds the ``results.csv`` rows and the ``summary.json["fits"]`` of the
input run serially at its config's own seed.  It applies to a run at that
seed, and to a run at any seed when the input does not use its seed
(``seed_free``: the reference run gave the same output at a second seed).

Numbers must agree to |a - b| <= ATOL + rtol * |b|, every other field
exactly.  The tolerance admits roundoff only, measured by re-running every
input with OpenBLAS forced to other kernels (OPENBLAS_CORETYPE), with
two BLAS threads, and with numpy's AVX-512 loops disabled
(NPY_DISABLE_CPU_FEATURES):

* rtol = RTOL (1e-9) by default, and ATOL (1e-12) for columns that are
  small differences or pure roundoff: the Hartree mass and Gram
  deviations (about 1e-12, moved by 1e-14), the fixed-point residuals
  and cross-check error, the quadrature error estimate.
* The Hartree energy drifts (about 1e-8) are differences of O(1)
  energies accumulated over 2000 steps, and the halving ratio is their
  quotient: they moved by up to 3e-6 relative, so they get LOOSE_RTOL.
  No compared value used more than 3% of its tolerance in those runs.
* The fixed-point ``ratio`` column is the quotient of successive
  residuals, the last of which sits at the roundoff floor; it moved by
  3%.  It is not compared (both residuals are, and the gate bounds it).
* Wall-time columns are not compared.
"""

from __future__ import annotations

import csv
import json
import math
import os

RTOL = 1e-9
ATOL = 1e-12
LOOSE_RTOL = 1e-4
# (experiment kind or "*", column or fit-key prefix) -> rtol, None = skip
SPECIAL = {
    ("*", "wall_time_ms"): None,
    ("fixed-point", "ratio"): None,
    ("hartree-run", "energy_drift"): LOOSE_RTOL,
    ("hartree-run", "halving_ratio"): LOOSE_RTOL,
    ("hartree-run", "drift_halving_ratio_"): LOOSE_RTOL,
}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def read_artifacts(out_dir: str):
    """(header, rows, summary, manifest) of one run's artifacts."""
    with open(os.path.join(out_dir, "results.csv"), newline="",
              encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return table[0], table[1:], summary, manifest


def load_reference(name: str):
    path = os.path.join(REFERENCE_DIR, name + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rtol_for(kind: str, key: str):
    """Relative tolerance of a column or fit of an experiment kind; None if
    it is not compared."""
    for (k, prefix), rtol in SPECIAL.items():
        if k in (kind, "*") and key.startswith(prefix):
            return rtol
    return RTOL


def _close(a, b, rtol) -> bool:
    if rtol is None:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= ATOL + rtol * abs(b)
    return a == b


def _field_close(a: str, b: str, rtol) -> bool:
    try:
        return _close(float(a), float(b), rtol)
    except ValueError:
        return rtol is None or a == b


def compare(ref: dict, kind: str, header, rows, fits) -> tuple[set, list]:
    """Rows (by position) that differ from the reference, and notes.

    A header, row-count or fits mismatch marks every row.
    """
    notes = []
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        notes.append("header or row count differs from the reference")
        return set(range(len(rows))), notes
    bad = set()
    for i, (row, want) in enumerate(zip(rows, ref["rows"])):
        for col, a, b in zip(header, row, want):
            if not _field_close(a, b, rtol_for(kind, col)):
                bad.add(i)
                notes.append(f"row {i} {col}: {a} != reference {b}")
    want_fits = ref["fits"]
    if set(fits) != set(want_fits) or not all(
            _close(fits[k], v, rtol_for(kind, k))
            for k, v in want_fits.items()):
        notes.append(f"fits {fits} != reference {want_fits}")
        bad = set(range(len(rows)))
    return bad, notes


def check_run(name: str, out_dir: str, seed: int | None):
    """(cells attempted, cells failed, notes) for one finished run.

    A cell fails if its gate failed (``passed`` false in the manifest) or,
    where the reference applies, if its row or the run's fits differ.
    """
    header, rows, summary, manifest = read_artifacts(out_dir)
    failed = {i for i, c in enumerate(manifest["cells"]) if not c["passed"]}
    notes = [f"gate failed on {len(failed)} cell(s)"] if failed else []
    ref = load_reference(name)
    if ref["seed_free"] or seed is None or seed == ref["seed"]:
        bad, diff_notes = compare(ref, summary["config_echo"]["experiment"],
                                  header, rows, summary["fits"])
        failed |= bad
        notes += diff_notes
    return len(manifest["cells"]), len(failed), notes
