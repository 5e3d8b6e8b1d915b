"""Write the references that ``check.py`` compares runs against.

    python3 perfbench/make_reference.py [INPUT ...]

Runs each input of every workload (or only the named ones) serially at
its config's own seed and stores the ``results.csv`` rows and the
``summary.json`` fits in ``reference/<input>.json``.  The input is run a
second time at another seed; if every row and fit comes out identical,
the input does not use its seed and the reference is marked
``seed_free``, so it applies on every benchmark seed.

Regenerate only when a change is meant to move results by more than
roundoff, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import check
from workloads import WORKLOADS, load_input

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out", "reference")


def _table(harness, echo, name, seed):
    out = os.path.join(OUT, name)
    harness.run(echo, out, seed=seed, threads=1)
    header, rows, summary, manifest = check.read_artifacts(out)
    if not manifest["all_passed"]:
        raise SystemExit(f"{name}: a gate failed at seed {seed}; "
                         "a reference must pass every gate")
    rows = [["" if col == "wall_time_ms" else v
             for col, v in zip(header, row)] for row in rows]
    return header, rows, summary["fits"]


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from strichartz_lab import harness
    from strichartz_lab.config import load_config, validate_config

    inputs = [n for w in WORKLOADS.values() for n in w.inputs]
    names = (argv if argv is not None else sys.argv[1:]) or inputs
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for name in names:
        echo = load_input(name, ROOT, load_config, validate_config)
        seed = echo["seed"]
        header, rows, fits = _table(harness, echo, name, seed)
        _, other_rows, other_fits = _table(harness, echo, name, seed + 1)
        ref = {"input": name, "seed": seed,
               "seed_free": other_rows == rows and other_fits == fits,
               "header": header, "rows": rows, "fits": fits}
        with open(os.path.join(check.REFERENCE_DIR, name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(rows)} rows, seed {seed}, "
              f"seed_free={ref['seed_free']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
