"""strichartz-lab benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from any directory; the repository is the parent of this file's
directory, and the package is imported from its ``src/``.

Load model: a closed loop with one client.  Each repetition is a fresh
child process (``child.py``) that imports the package, loads the
workload's configs and calls ``harness.run`` on each of them back to
back, with no warm-up, exactly as a user running the CLI on each config
pays import, validation and every ``lru_cache`` again.  One child runs at
a time.  BLAS is pinned to one thread in every child; the harness uses
the workload's own thread count (``workloads.py``).

A run starts workload children back to back (at least MIN_REPS), each
after SETUP_PER_REP set-up-only children, until the next one would end
after ``--seconds``.  With ``--trace 1`` one more child runs with the
span wrappers of ``spans.py`` installed.

End-to-end metrics (``--trace 0``), medians over the run's children:

    wall_s       wall time of the workload's harness.run calls, set-up
                 excluded (quartiles and sample count printed beside it)
    peak_rss_mb  ru_maxrss of the workload child, in MiB
    setup_s      from before ``import strichartz_lab`` to every config
                 loaded and validated, over set-up and workload children

Per-layer metrics (``--trace 1``) come from the traced child; see
``child.py`` for their list.  ``trace.overhead_s`` is the traced wall time
minus the untraced median.

Every child checks its outputs (``check.py``): every cell must pass its
gate, and where a stored reference applies, match it to roundoff.
``failed`` counts the cells that did not; ``failed_ratio`` (failed /
attempted) is printed with the metrics.  ``--seed`` is passed to every
``harness.run``; without it each config runs at its own seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are for people.  The full result, with the environment block, is also
written to ``.perfbench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PER_REP = 3
MIN_REPS = 2
RUN_DEADLINE_S = 170.0      # a whole run ends well within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("share", "ratio")):
        return "1"
    if "bytes" in metric:
        return "B"
    if "flops" in metric:
        return "flop"
    return "count"


class ChildFailed(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_revision() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    rev = _read(os.path.join(ROOT, ".git", ref)).strip()
    if rev:
        return rev
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_env() -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            level = _read(os.path.join(base, index, "level")).strip()
            kind = _read(os.path.join(base, index, "type")).strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches[f"L{level}"] = _read(
                    os.path.join(base, index, "size")).strip()
    ram = "unknown"
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            ram = line.split(":", 1)[1].strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "l2": caches.get("L2", "unknown"),
            "l3": caches.get("L3", "unknown"), "ram": ram,
            "os": platform.platform(), "git_revision": _git_revision()}


def run_child(workload: str, mode: str, seed, out: str, timeout: float):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--mode", mode, "--out", out]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, **BLAS_ENV)
    shutil.rmtree(out, ignore_errors=True)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _median_quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed passed to every harness.run "
                         "(default: each config's own seed)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure for this long (at least %d runs)"
                         % MIN_REPS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "strichartz_lab",
                                       "__init__.py")):
        print(f"error: no package source at {ROOT}/src/strichartz_lab",
              file=sys.stderr)
        return 2

    t_start = time.perf_counter()

    def remaining():
        return RUN_DEADLINE_S - (time.perf_counter() - t_start)

    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    setups, imports, validates, walls, rss = [], [], [], [], []
    attempted = failed = 0
    notes, env = [], {}

    def record_setup(r):
        setups.append(r["setup_s"])
        imports.append(r["import_s"])
        validates.append(r["validate_s"])
        env.update(r["env"])

    def record_cells(r):
        nonlocal attempted, failed
        attempted += r["attempted"]
        failed += r["failed"]
        notes.extend(r["notes"])

    try:
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            # set-up children spread over the run sample more of the
            # machine's slow load changes than a block at the start would
            for _ in range(SETUP_PER_REP):
                record_setup(run_child(args.workload, "setup", args.seed,
                                       os.path.join(out, "setup"),
                                       remaining()))
            r = run_child(args.workload, "run", args.seed,
                          os.path.join(out, "run"), remaining())
            longest = max(longest, time.perf_counter() - t0)
            record_setup(r)
            record_cells(r)
            walls.append(r["wall_s"])
            rss.append(r["peak_rss_mb"])
            elapsed = time.perf_counter() - t_start
            if len(walls) >= MIN_REPS and (elapsed + longest > args.seconds
                                           or longest > remaining()):
                break
        if args.trace:
            traced = run_child(args.workload, "trace", args.seed,
                               os.path.join(out, "trace"), remaining())
            record_cells(traced)
    except ChildFailed as exc:
        # a crashed or hung child leaves nothing to report
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wall, wall_q1, wall_q3 = _median_quartiles(walls)
    e2e = {"wall_s": wall, "peak_rss_mb": statistics.median(rss),
           "setup_s": statistics.median(setups)}
    env.update(machine_env(), workload=args.workload,
               seed="config" if args.seed is None else args.seed)

    print(f"perfbench {args.workload}: seed={env['seed']} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  wall_s       {wall:10.4f} s    median of {len(walls)}, "
          f"quartiles {wall_q1:.4f} .. {wall_q3:.4f}")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:10.1f} MiB  "
          f"median of {len(rss)}")
    print(f"  setup_s      {e2e['setup_s']:10.4f} s    "
          f"median of {len(setups)}")
    print(f"  failed_ratio {failed / attempted:10.4f} 1    "
          f"{failed} of {attempted} cells failed")
    for note in notes[:20]:
        print(f"  ! {note}")

    if args.trace:
        layers = dict(traced["layers"])
        layers["package.import_s"] = statistics.median(imports)
        layers["config.validate_s"] = statistics.median(validates)
        layers["trace.overhead_s"] = traced["wall_s"] - wall
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(layers.items())}
        for k, m in metrics.items():
            print(f"  {k:34s} {m['value']:16.6g} {m['unit']}")
    else:
        metrics = {k: {"value": e2e[k], "unit": unit}
                   for k, unit in END_TO_END}

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, wall_s_samples=walls,
                       peak_rss_mb_samples=rss, setup_s_samples=setups,
                       failed_ratio=failed / attempted, notes=notes),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
