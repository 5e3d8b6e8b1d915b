import functools
import json
import math
import os
import platform
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from strichartz_lab import geometry, harness, kernels, ons
from strichartz_lab.cli import main as cli_main
from strichartz_lab.config import load_config, schema_document, validate_config
from strichartz_lab.errors import (ConfigError, InvalidInputError,
                                   NumericFailureError)
from strichartz_lab.geometry import (BandFlow, _band_multiplier,
                                     inverse_transform, propagate, torus,
                                     waveguide)
from strichartz_lab.harness import _flow_ratios, run
from strichartz_lab.norms import lq_norm, mixed_norm
from strichartz_lab.seeding import derive_cell_seed, derive_cell_seeds


@pytest.fixture
def eight_cpus(monkeypatch):
    """Let ``run`` start 8 threads on a host of any CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def strip_timing(csv_text):
    lines = csv_text.strip().split("\n")
    head = lines[0].split(",")
    keep = [i for i, h in enumerate(head) if h != "wall_time_ms"]
    return "\n".join(",".join(line.split(",")[i] for i in keep)
                     for line in lines)


SMALL_KERNEL = {
    "experiment": "kernel-sweep",
    "seed": 5,
    "params": {"theta": [3.0], "N": [4, 8], "t_grid_pts": 64,
               "x_grid_pts": 64, "check_refinement": False},
}


def declared_bounds():
    """(kind, key, schema entry) for every bounded parameter."""
    for kind, entries in schema_document()["experiments"].items():
        for key, opt in entries.items():
            if {"minimum", "exclusiveMinimum", "finite"} & set(opt):
                yield pytest.param(kind, key, opt, id=f"{kind}-{key}")


def params_entry(opt, value):
    """``value`` in the shape of the schema entry: a scalar, a list entry,
    or the count of a list-pair entry."""
    if opt["type"] == "list-pair":
        return [[opt["choices"][0], value]]
    return [value] if opt["type"].startswith("list") else value


class TestSeeding:
    def test_deterministic(self):
        assert derive_cell_seed(7, 3) == derive_cell_seed(7, 3)

    def test_injective_on_range(self):
        seeds = derive_cell_seeds(123, np.arange(1_000_000))
        assert len(np.unique(seeds)) == 1_000_000

    def test_global_seed_changes_everything(self):
        a = derive_cell_seeds(1, np.arange(1000))
        b = derive_cell_seeds(2, np.arange(1000))
        assert not np.any(a == b)


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "kernel-sweep", "bogus": 1})
        with pytest.raises(ConfigError):
            validate_config({"experiment": "kernel-sweep",
                             "params": {"nope": 2}})

    def test_type_violation_rejected(self):
        with pytest.raises(ConfigError) as exc:
            validate_config({"experiment": "kernel-sweep",
                             "params": {"t_min": "small"}})
        assert "t_min" in str(exc.value)

    def test_defaults_materialized(self):
        echo = validate_config({"experiment": "kernel-sweep"})
        assert echo["params"]["t_grid_pts"] == 512
        assert echo["params"]["theta"] == [2.5, 3.0]
        assert echo["seed"] == 0

    def test_geometry_constructed_and_validated(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "ons-sweep",
                             "geometry": {"kind": "torus",
                                          "grid_sizes": [48]}})

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"experiment": "kernel-sweep",\n  "seed": }\n')
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert "line 2" in str(exc.value)

    def test_schema_document_covers_everything(self):
        doc = schema_document()
        assert set(doc["experiments"]) == {
            "kernel-sweep", "vdc-oracle", "strichartz-fit", "ons-sweep",
            "duality-check", "hartree-run", "fixed-point"}
        assert doc["top_level"]["experiment"]["required"]
        # one bound of each published form
        fit = doc["experiments"]["strichartz-fit"]
        assert fit["time_pts"]["minimum"] == 2
        assert fit["theta"]["exclusiveMinimum"] == 0 and fit["theta"]["finite"]
        assert "minimum" not in doc["experiments"]["vdc-oracle"]["t"]
        assert doc["experiments"]["vdc-oracle"]["t"]["finite"]

    def test_published_schema_file_current(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..", "docs",
                            "config_schema.json")
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == schema_document()

    def test_shipped_configs_validate(self):
        import glob
        import os
        pattern = os.path.join(os.path.dirname(__file__), "..", "configs",
                               "*.json")
        paths = sorted(glob.glob(pattern))
        assert len(paths) >= 8
        for path in paths:
            echo = load_config(path)
            assert echo["experiment"]


class TestRun:
    def test_empty_grid_is_rejected(self, tmp_path):
        # zero cells would pass vacuously
        cfg = {"experiment": "kernel-sweep", "params": {"theta": [], "N": []}}
        with pytest.raises(ConfigError) as exc:
            run(cfg, str(tmp_path / "out"))
        assert exc.value.field == "params.theta"
        assert not (tmp_path / "out").exists()

    def test_kernel_sweep_artifacts(self, tmp_path):
        res = run(SMALL_KERNEL, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert len(res.rows) == 2
        summary = json.loads(read(tmp_path / "out" / "summary.json"))
        assert summary["cells_total"] == 2
        assert summary["cells_passed"] == 2
        assert summary["version"]
        assert summary["seed"] == 5
        assert "sup_ratio_theta_3" in summary["fits"]
        manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
        assert manifest["all_passed"]

    def test_reproducible_csv(self, tmp_path):
        run(SMALL_KERNEL, str(tmp_path / "a"))
        run(SMALL_KERNEL, str(tmp_path / "b"))
        a = strip_timing(read(tmp_path / "a" / "results.csv"))
        b = strip_timing(read(tmp_path / "b" / "results.csv"))
        assert a == b

    def test_serial_matches_threaded(self, tmp_path, eight_cpus):
        cfg = {"experiment": "ons-sweep", "seed": 3,
               "geometry": {"kind": "torus", "grid_sizes": [128]},
               "params": {"N": [4, 8, 16], "alpha_prime": [4.0 / 3.0, 2.0],
                          "time_pts": 9,
                          "family_kinds": [["fourier-modes", 1],
                                           ["random-band", 3]]}}
        run(cfg, str(tmp_path / "serial"), threads=1)
        run(cfg, str(tmp_path / "pool"), threads=8)
        a = strip_timing(read(tmp_path / "serial" / "results.csv"))
        b = strip_timing(read(tmp_path / "pool" / "results.csv"))
        assert a == b

    def test_seed_override(self, tmp_path):
        cfg = {"experiment": "duality-check", "seed": 1,
               "params": {"samples": 5, "alpha": [4.0], "weight": "random"}}
        r1 = run(cfg, str(tmp_path / "s1"))
        r2 = run(cfg, str(tmp_path / "s2"), seed=2)
        assert r1.summary["seed"] == 1
        assert r2.summary["seed"] == 2
        a = read(tmp_path / "s1" / "results.csv")
        b = read(tmp_path / "s2" / "results.csv")
        assert strip_timing(a) != strip_timing(b)
        # both ends of the uint64 range run, from the config and as the
        # override
        top = 2 ** 64 - 1
        assert run({**cfg, "seed": top},
                   str(tmp_path / "s3")).summary["seed"] == top
        assert run(cfg, str(tmp_path / "s4"), seed=top).summary["seed"] == top
        assert run({**cfg, "seed": top}, str(tmp_path / "s5"),
                   seed=0).summary["seed"] == 0

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRICHARTZ_LAB_THREADS", "4")
        res = run(SMALL_KERNEL, str(tmp_path / "out"))
        assert res.exit_code == 0

    def test_threads_clamped_to_cpus(self, monkeypatch):
        # a pool starts one OS thread per waiting task, so a flag or
        # environment value above the CPU count resolves to the CPU count;
        # only the resolved count is checked, no thread is started
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.delenv("STRICHARTZ_LAB_THREADS", raising=False)
        assert harness._resolve_threads(10 ** 4) == 3
        assert harness._resolve_threads(10 ** 400) == 3
        assert harness._resolve_threads(2) == 2
        assert harness._resolve_threads(None) == 1
        monkeypatch.setenv("STRICHARTZ_LAB_THREADS", str(10 ** 4))
        assert harness._resolve_threads(None) == 3
        assert harness._resolve_threads(2) == 2
        monkeypatch.setenv("STRICHARTZ_LAB_THREADS", "2")
        assert harness._resolve_threads(None) == 2
        # without an affinity mask, the CPU count bounds the threads
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert harness._resolve_threads(10 ** 4) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._resolve_threads(10 ** 4) == 1

    def test_run_pool_sized_by_cpus(self, tmp_path, monkeypatch):
        # run sizes its pool by the clamped count and writes the serial
        # bytes; the recorded pool never holds more than 2 workers, so a
        # broken clamp starts no more threads either
        sizes = []

        def pool(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers=min(max_workers, 2))

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", pool)
        run(SMALL_KERNEL, str(tmp_path / "serial"), threads=1)
        run(SMALL_KERNEL, str(tmp_path / "many"), threads=10 ** 4)
        assert sizes == [2]
        for name in ("results.csv", "manifest.json"):
            want = read(tmp_path / "serial" / name)
            got = read(tmp_path / "many" / name)
            if name == "results.csv":
                want, got = strip_timing(want), strip_timing(got)
            assert got == want

    def test_strict_escalates_warnings(self, tmp_path):
        # this cell's sup moves >= 2% under grid doubling, which warns and
        # auto-refines; under --strict that becomes a cell failure
        cfg = {"experiment": "kernel-sweep",
               "params": {"theta": [3.0], "N": [32], "t_grid_pts": 64,
                          "x_grid_pts": 64}}
        with pytest.warns(UserWarning, match="refining once more"):
            relaxed = run(cfg, str(tmp_path / "ok"))
        assert relaxed.exit_code == 0
        assert relaxed.rows[0]["refined"]
        strict = run(cfg, str(tmp_path / "strict"), strict=True)
        assert strict.exit_code == 1
        assert not strict.rows[0]["passed"]
        manifest = json.loads(read(tmp_path / "strict" / "manifest.json"))
        assert manifest["cells"][0]["error_kind"] == "warning"
        assert "error_kind" not in read(tmp_path / "strict" / "results.csv")

    def test_numeric_failure_marks_cell_and_continues(self, tmp_path):
        # an absurd oscillation count exhausts the quadrature budget; the
        # failed cell is recorded, the other cells still run, exit is 1
        cfg = {"experiment": "vdc-oracle",
               "params": {"t": [10.0, 1e9], "tol": 1e-8}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 1
        assert len(res.rows) == 2
        assert res.rows[0].get("error_estimate") is not None
        assert not res.rows[1]["passed"]
        manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
        assert manifest["numeric_failures"] == 1
        assert not manifest["all_passed"]
        assert "note" not in manifest["cells"][0]
        assert "stalled" in manifest["cells"][1]["note"]
        # the manifest says what kind of failure it was; results.csv not
        assert "error_kind" not in manifest["cells"][0]
        assert manifest["cells"][1]["error_kind"] == "numeric"
        assert "error_kind" not in read(tmp_path / "out" / "results.csv")


class TestFlowRatios:
    # kept: for even q, the axis that keeps its config size while the
    # other shrinks to its exact grid (None: not asserted)
    @pytest.mark.parametrize("geom, N, budget, kept", [
        (torus(64), 10, None, None),
        (torus((16, 16)), 4, None, None),
        (waveguide(32, 16, trunc_length=4.0), 4, None, None),
        # 4 steps of the 3 samples per block: time blocks 4, 4 and 1
        (torus(64), 10, 4 * 3 * 64, None),
        # 2 frames per block: sample chunks of 2 and 1, one step each
        (torus((16, 16)), 4, 2 * 256, None),
        # 1 frame per block
        (waveguide(32, 16, trunc_length=4.0), 4, 512, None),
        # the periodic axis transformed first, then the free one
        (waveguide(64, 8, trunc_length=1.0), 2, None, None),
        (waveguide(64, 8, trunc_length=1.0), 2, 512, None),
        # 3-D: two periodic passes before the free one
        (waveguide(16, (8, 8), trunc_length=2.0), 2, None, None),
        (waveguide(16, (8, 8), trunc_length=2.0), 2, 1024, None),
        (torus((8, 8, 8)), 2, 2 * 512, None),
        # for q in {2, 4, 8} the first axis (16 points, K = 7) keeps its
        # size and the second (128 points, K = 8 or 4) shrinks; the last
        # case blocks 2 to 7 exact-grid frames at a time
        (torus((16, 128)), 8, None, 0),
        (waveguide(16, 128, trunc_length=2.0), 4, None, 0),
        (waveguide(16, 128, trunc_length=2.0), 4, 2 * 16 * 36, 0),
    ], ids=["torus-1d", "torus-2d", "waveguide", "torus-1d-time-blocks",
            "torus-2d-sample-chunks", "waveguide-sample-chunks",
            "waveguide-periodic-first", "waveguide-periodic-first-chunks",
            "waveguide-3d", "waveguide-3d-chunks", "torus-3d-chunks",
            "torus-2d-exact-grid", "waveguide-exact-grid",
            "waveguide-exact-grid-chunks"])
    # p = 600: the time sums leave the float range, so each block joins the
    # running time norms through lq_norm's rescale
    @pytest.mark.parametrize("p, q", [(8, 8), (4, 4), (6, 2), (math.inf, 4),
                                      (4, math.inf), (600, 4)])
    def test_matches_materialized_film(self, geom, N, budget, kept, p, q,
                                       monkeypatch):
        # slow twin: scatter each row into the centered lattice, transform
        # back, propagate to every time and reduce the stored film
        if budget is not None:
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", budget)
        theta, time_pts = 2.5, 9
        if kept is not None and q != math.inf:
            # the stream runs on a strictly smaller grid, so the film on
            # the config grid is an oracle of the exact-grid path
            grid = BandFlow(geom, N, theta, q).grid
            assert grid[kept] == geom.grid_sizes[kept]
            assert math.prod(grid) < math.prod(geom.grid_sizes)
        mask = _band_multiplier(geom, N) == 1.0
        rng = np.random.default_rng(29)
        rows = rng.standard_normal((3, int(mask.sum()))) \
            + 1j * rng.standard_normal((3, int(mask.sum())))
        ratios = _flow_ratios(geom, N, rows, theta, time_pts, p, q)
        times = np.linspace(0.0, 1.0, time_pts)
        for row, ratio in zip(rows, ratios):
            coef = np.zeros(geom.grid_sizes, dtype=complex)
            coef[mask] = row
            f = inverse_transform(coef, geom)
            film = np.stack([propagate(f, geom, t, theta) for t in times])
            assert ratio == pytest.approx(
                mixed_norm(film, times, p, q, geom.cell_volume)
                / lq_norm(f, 2, geom.cell_volume), rel=1e-12)

    def test_memory_below_one_batch(self):
        # the stream holds a few block buffers, never a second copy of
        # the coefficient batch (6.7 MiB here), whatever the batch size
        geom, N = waveguide(128, 32, trunc_length=4.0), 8
        dim = int((_band_multiplier(geom, N) == 1.0).sum())
        rows = np.random.default_rng(3).standard_normal((400, dim)) + 0j
        tracemalloc.start()
        try:
            _flow_ratios(geom, N, rows, 2.5, 9, 4.0, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes


class TestPooledStream:
    @staticmethod
    def pooled(threads):
        pool = ThreadPoolExecutor(max_workers=threads)
        return pool, harness._ordered_map(pool, threads - 1)

    @staticmethod
    def run_bounded(cfg, out, threads):
        """``run`` on a thread of its own, asserted to end within 60 s."""
        result = []
        worker = threading.Thread(target=lambda: result.append(
            run(cfg, str(out), threads=threads)), daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return result[0]

    @pytest.mark.parametrize("geom, N, samples, steps, budget", [
        # sample chunks of 128, 128 and 44 rows, one step each
        (torus(512), 64, 300, 5, None),
        # 2 frames per block: sample chunks of 2 and 1, one step each
        (torus((16, 16)), 4, 5, 4, 2 * 256),
        # 4 steps of the 3 samples per block: time blocks 4, 4 and 1
        (torus(64), 10, 3, 9, 4 * 3 * 64),
        (waveguide(32, 16, trunc_length=4.0), 4, 6, 5, 512),
        (waveguide(16, (8, 8), trunc_length=2.0), 2, 3, 4, 1024),
    ], ids=["torus-1d-chunks", "torus-2d-chunks", "torus-1d-time-blocks",
            "waveguide-frames", "waveguide-3d-chunks"])
    @pytest.mark.parametrize("threads", [2, 8])
    def test_blocks_match_serial(self, geom, N, samples, steps, budget,
                                 threads, monkeypatch):
        # the pooled map yields the serial generator's (time slice, sample
        # slice) sequence with the same values, bit for bit
        if budget is not None:
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", budget)
        flow = BandFlow(geom, N, 2.5)
        rng = np.random.default_rng(41)
        rows = rng.standard_normal((samples, flow.size)) \
            + 1j * rng.standard_normal((samples, flow.size))
        times = np.linspace(0.0, 1.0, steps)
        serial = [(ts, ss, u.copy()) for ts, ss, u in flow.blocks(rows, times)]
        pool, ordered_map = self.pooled(threads)
        with pool:
            pooled = list(flow.blocks(rows, times, np.copy, ordered_map))
        assert len(pooled) == len(serial) > 1
        for (ts, ss, u), (pts, pss, pu) in zip(serial, pooled):
            assert (pts, pss) == (ts, ss)
            assert np.array_equal(pu, u)

    def test_ordered_map_stress(self):
        # more helpers than cores and a short switch interval: every item
        # is computed exactly once and the results come back in order
        calls = []

        def square(x):
            calls.append(x)
            return x * x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool, ordered_map = self.pooled(8)
            with pool:
                for _ in range(5):
                    calls.clear()
                    out = list(ordered_map(square, iter(range(3000))))
                    assert out == [x * x for x in range(3000)]
                    assert sorted(calls) == list(range(3000))
        finally:
            sys.setswitchinterval(interval)

    def test_ordered_map_raises_in_order_and_stops(self):
        # an item that raises, on any thread, is raised where a serial map
        # raises it, after the items before it; no item after the failure
        # is taken once it is seen, and no helper outlives the map
        def fail_at(bad):
            def fn(x):
                if x == bad:
                    raise NumericFailureError(f"item {x}")
                return x
            return fn

        pool, ordered_map = self.pooled(4)
        with pool:
            for bad in (0, 1, 17, 499):
                seen = []
                with pytest.raises(NumericFailureError, match=f"item {bad}$"):
                    for x in ordered_map(fail_at(bad), range(500)):
                        seen.append(x)
                assert seen == list(range(bad))
            # the iterator itself raising
            def items():
                yield from range(5)
                raise InvalidInputError("iterator")
            with pytest.raises(InvalidInputError, match="iterator"):
                list(ordered_map(lambda x: x, items()))
            # a caller that stops early cancels or waits for its helpers
            taken = []
            stream = ordered_map(lambda x: taken.append(x) or x, range(10 ** 6))
            assert next(stream) == 0
            stream.close()
            count = len(taken)
            time.sleep(0.05)
            assert len(taken) == count < 10 ** 6

    @pytest.mark.parametrize("geometry_cfg", [
        {"kind": "waveguide", "grid_sizes": [128, 32], "n_free": 1,
         "trunc_length": 4.0},
        {"kind": "torus", "grid_sizes": [128]},
    ], ids=["waveguide", "torus"])
    def test_random_fit_same_bytes_at_any_thread_count(self, tmp_path,
                                                       geometry_cfg,
                                                       eight_cpus):
        # 8 threads is more than the cells, and at the small N more than
        # the items of a cell's stream
        cfg = {"experiment": "strichartz-fit", "seed": 12,
               "geometry": geometry_cfg,
               "params": {"theta": 2.5, "p": 4.0, "q": 4.0, "N": [4, 8, 16],
                          "family": "random", "samples": 40,
                          "time_pts": 9}}
        if geometry_cfg["kind"] == "waveguide":
            cfg["params"]["estimate"] = "waveguide-single"
            # 9 times < 40 samples: at N = 8 and 16 the batch streams
            # sample-major in chunks of 16 rows (the band fills the exact
            # grid of q = 4), drawn while threads take the chunks' items
            for N in (8, 16):
                assert BandFlow(waveguide(128, 32, trunc_length=4.0), N,
                                2.5, 4.0).block_shape(40, 9) == (1, 16)
        outs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            self.run_bounded(cfg, out, threads)
            outs.append((strip_timing(read(out / "results.csv")),
                         json.loads(read(out / "summary.json"))["fits"],
                         read(out / "manifest.json")))
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_helper_failure_fails_the_cell(self, tmp_path, monkeypatch):
        # a NumericFailureError raised while a helper reduces a block fails
        # the cell (error_kind numeric); the run writes all three
        # artifacts, exits 1 and does not hang.  The cell's thread waits
        # at its first block until a helper has raised.
        in_cell = threading.local()
        helper_raised = threading.Event()
        lebesgue = harness.lq_norm
        driver = harness._DRIVERS["strichartz-fit"]

        def flagged(echo):
            header, cells, run_cell, finalize = driver(echo)

            def cell(c, seed):
                in_cell.on = True
                try:
                    return run_cell(c, seed)
                finally:
                    in_cell.on = False
            return header, cells, cell, finalize

        def reduce(values, q, measure=1.0, axis=None):
            if isinstance(axis, tuple) and axis[0] == 2:  # a block's sum
                if getattr(in_cell, "on", False):
                    helper_raised.wait(timeout=30)
                else:
                    helper_raised.set()
                    raise NumericFailureError("helper block")
            return lebesgue(values, q, measure, axis)

        monkeypatch.setitem(harness._DRIVERS, "strichartz-fit", flagged)
        monkeypatch.setattr(harness, "lq_norm", reduce)
        cfg = {"experiment": "strichartz-fit", "seed": 3,
               "geometry": {"kind": "torus", "grid_sizes": [512]},
               "params": {"theta": 2.0, "p": 4.0, "q": 4.0, "N": [64],
                          "family": "random", "samples": 300,
                          "time_pts": 9}}
        result = self.run_bounded(cfg, tmp_path / "out", 2)
        assert helper_raised.is_set()
        assert result.exit_code == 1
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert (tmp_path / "out" / name).exists()
        manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
        assert manifest["numeric_failures"] == 1
        assert manifest["cells"][0]["error_kind"] == "numeric"
        assert manifest["cells"][0]["note"] == "helper block"

    def test_chunked_draw_is_the_one_shot_draw(self):
        # three chunks of 65 rows, the last one ragged, drawn after the
        # real parts were skipped in buffers of 65536 floats
        dim = 1000
        step = ons._BLOCK_ELEMENTS // dim
        samples = 2 * step + 30
        source = np.random.default_rng(7)
        drawn = ons.NormalRows(source, samples, dim)
        rows = np.concatenate([drawn.draw(min(step, samples - j))
                               for j in range(0, samples, step)])
        rng = np.random.default_rng(7)
        want = np.empty((samples, dim), dtype=np.complex128)
        want.real = rng.standard_normal(want.shape)
        want.imag = rng.standard_normal(want.shape)
        assert step == 65
        assert np.array_equal(rows, want)
        # the generator ends where the one-shot draw leaves it
        assert source.standard_normal() == rng.standard_normal()


class TestDrivers:
    def test_vdc_oracle_run(self, tmp_path):
        cfg = {"experiment": "vdc-oracle",
               "params": {"t": [10.0, 100.0, 1000.0]}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        spread = res.summary["fits"]["envelope_ratio_spread"]
        assert spread <= 2.0

    def test_strichartz_dirichlet_small(self, tmp_path):
        cfg = {"experiment": "strichartz-fit", "seed": 11,
               "geometry": {"kind": "torus", "grid_sizes": [128]},
               "params": {"N": [8, 16, 32], "time_pts": 257,
                          "family": "dirichlet"}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert 0.0 <= res.summary["fits"]["slope_raw"] <= 0.125 + 0.12

    def test_strichartz_random_small(self, tmp_path):
        cfg = {"experiment": "strichartz-fit", "seed": 13,
               "geometry": {"kind": "torus", "grid_sizes": [128]},
               "params": {"N": [8, 16, 32], "time_pts": 129,
                          "family": "random", "samples": 20}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert res.summary["fits"]["normalized_spread"] < 3.0

    def test_strichartz_waveguide_zero_loss(self, tmp_path):
        cfg = {"experiment": "strichartz-fit", "seed": 19,
               "geometry": {"kind": "waveguide", "grid_sizes": [128, 32],
                            "n_free": 1, "trunc_length": 2.0},
               "params": {"theta": 2.5, "p": 4.0, "q": 4.0, "N": [4, 8, 16],
                          "family": "random", "samples": 10, "time_pts": 9,
                          "estimate": "waveguide-single"}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert res.rows[0]["sigma"] == 0.0
        assert abs(res.summary["fits"]["slope_raw"]) <= 0.12

    def test_hartree_run_small(self, tmp_path):
        cfg = {"experiment": "hartree-run", "seed": 4,
               "geometry": {"kind": "torus", "grid_sizes": [32]},
               "params": {"theta": [2.0], "T": 0.1, "dt": [1e-3, 5e-4],
                          "members": 2, "band": 2, "weights": [0.6, 0.4]}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        key = "drift_halving_ratio_theta_2"
        assert res.summary["fits"][key] > 3.5
        # the interaction's Besov size is logged with the run
        assert res.summary["fits"]["potential_besov"] > 0
        assert all(r["potential_besov"] > 0 for r in res.rows)

    def test_hartree_run_large_finite_exponents(self, tmp_path):
        # |w|^q' and |rho|^q leave the float range at 2000; the potential's
        # Besov norm lies between its values at q' = 1000 (1.99446) and at
        # q' = inf (2)
        cfg = {"experiment": "hartree-run",
               "geometry": {"kind": "torus", "grid_sizes": [16]},
               "params": {"T": 0.01, "dt": [0.005], "q_report": 2000,
                          "potential": {"kind": "yukawa", "qprime": 2000}}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert 1.9945 < res.summary["fits"]["potential_besov"] <= 2.0
        assert all(0 < r["rho_norm_final"] < math.inf for r in res.rows)

    def test_strichartz_fit_large_finite_exponents(self, tmp_path):
        # |U(t) f|^2000 leaves the float range in space and in time; the
        # Dirichlet quotient stays finite and the slope is fitted
        cfg = {"experiment": "strichartz-fit",
               "geometry": {"kind": "torus", "grid_sizes": [32]},
               "params": {"theta": 2.0, "p": 2000, "q": 2000,
                          "N": [2, 4, 8], "family": "dirichlet"}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert all(0 < r["max_ratio_raw"] < math.inf for r in res.rows)
        assert math.isfinite(res.summary["fits"]["slope_raw"])

    def test_fixed_point_small(self, tmp_path):
        cfg = {"experiment": "fixed-point", "seed": 9,
               "params": {"members": 2, "band": 2, "weights": [0.6, 0.4],
                          "T": 0.05, "iterations": 4, "time_pts": 11}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert res.summary["fits"]["contractive"]
        assert res.summary["fits"]["cross_check_error"] < 1e-4
        # one row per iteration
        assert all("residual" in r for r in res.rows)

    def test_fixed_point_contraction_32x32(self, tmp_path):
        # the shipped config on a 32x32 torus, q = 4/3 on the 2-D density
        # line at p = 4: operators on 1024 grid points
        echo = load_config(os.path.join(os.path.dirname(__file__), "..",
                                        "configs",
                                        "fixed_point_contraction.json"))
        echo["geometry"]["grid_sizes"] = [32, 32]
        echo["params"]["q"] = 4.0 / 3.0
        res = run(validate_config(echo), str(tmp_path / "out"))
        assert res.exit_code == 0

    def test_fixed_point_truncation_mass_in_manifest(self, tmp_path):
        cfg = {"experiment": "fixed-point", "seed": 9,
               "params": {"members": 2, "band": 2, "weights": [0.6, 0.4],
                          "T": 0.05, "iterations": 3, "time_pts": 6}}
        res = run(cfg, str(tmp_path / "out"))
        manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
        masses = [c["truncation_mass"] for c in manifest["cells"]]
        assert len(masses) == len(res.rows) and len(set(masses)) == 1
        assert math.isfinite(masses[0]) and masses[0] >= 0
        # a diagnostic of the manifest only: the table and the fits, which
        # references compare key by key, do not carry it
        assert "truncation_mass" not in read(tmp_path / "out" / "results.csv")
        assert "truncation_mass" not in res.summary["fits"]

    def test_duality_on_dispersive_window(self, tmp_path):
        # the operator-side check also runs on the shrinking window
        half = 0.5 * 2.0 ** (1.0 - 3.0)
        cfg = {"experiment": "duality-check", "seed": 2,
               "params": {"N": 2, "theta": 3.0, "alpha": [4.0],
                          "interval": [-half, half], "samples": 50,
                          "weight": "random"}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert res.rows[0]["dominance_ok"]

    def test_waveguide_ons_sweep(self, tmp_path):
        cfg = {"experiment": "ons-sweep", "seed": 6,
               "geometry": {"kind": "waveguide", "grid_sizes": [64, 16],
                            "n_free": 1, "trunc_length": 2.0},
               "params": {"theta": 2.5, "p": 2.0, "q": 2.0,
                          "alpha_prime": [4.0 / 3.0], "N": [2, 4, 8],
                          "estimate": "waveguide-ons",
                          "admissibility": "density", "time_pts": 9}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert all(r["applicable"] for r in res.rows)
        # theta = 2.5 <= 3 + m/n: predicted loss is 2/p = 1
        assert res.rows[0]["sigma"] == 1.0
        assert res.summary["fits"]["slope_alpha_1.33333"] <= 1.0 + 0.1

    def test_ons_open_alpha_bound_excludes_its_endpoint(self, tmp_path):
        # tunable-loss-ons at (p, q) = (5, 2), theta = 3 admits alpha' < 4/3
        # at its top loss 1/3: 4/3 itself lies outside the open bound
        cfg = {"experiment": "ons-sweep",
               "geometry": {"kind": "torus", "grid_sizes": [64]},
               "params": {"theta": 3.0, "p": 5.0, "q": 2.0,
                          "alpha_prime": [1.2, 4.0 / 3.0], "N": [2, 4, 8],
                          "estimate": "tunable-loss-ons",
                          "admissibility": "", "time_pts": 9}}
        res = run(cfg, str(tmp_path / "out"))
        fits = res.summary["fits"]
        assert res.rows[0]["alpha_max"] == pytest.approx(4.0 / 3.0)
        assert fits["within_alpha_1.2"] is True
        assert fits["within_alpha_1.33333"] is False
        assert all(r["within_threshold"] == (r["alpha_prime"] == 1.2)
                   for r in res.rows)

    def test_ons_na_cells_pass_through(self, tmp_path):
        # q off the theta line: cells are recorded as not-applicable
        cfg = {"experiment": "ons-sweep",
               "geometry": {"kind": "torus", "grid_sizes": [64]},
               "params": {"N": [4, 8], "p": 4.0, "time_pts": 5}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert all(not r["applicable"] for r in res.rows)

    @pytest.fixture
    def small_panel_budget(self, monkeypatch):
        """A vdc-oracle at t = 1e7 stalls at once: its first 8192 panels
        exceed a budget of 1000."""
        monkeypatch.setattr(harness, "vdc_integral_oracle", functools.partial(
            kernels.vdc_integral_oracle, max_panels=1000))

    @pytest.mark.parametrize("cfg", [
        pytest.param({"experiment": "kernel-sweep",
                      "params": {"theta": [2.5], "N": [8, 16],
                                 "max_ratio": 1.0}}, id="kernel-sweep"),
        pytest.param({"experiment": "strichartz-fit",
                      "geometry": {"kind": "torus", "grid_sizes": [128]},
                      "params": {"N": [8, 16, 32], "time_pts": 65,
                                 "family": "dirichlet", "slope_tol": -1.0}},
                     id="strichartz-fit"),
        pytest.param({"experiment": "hartree-run",
                      "geometry": {"kind": "torus", "grid_sizes": [32]},
                      "params": {"theta": [2.0], "T": 0.1, "dt": [1e-3, 5e-4],
                                 "members": 2, "band": 2,
                                 "weights": [0.6, 0.4],
                                 "energy_tol": 1e-30}}, id="hartree-run"),
        pytest.param({"experiment": "vdc-oracle",
                      "params": {"t": [10.0, 1e7]}}, id="vdc-oracle"),
        pytest.param({"experiment": "fixed-point", "seed": 9,
                      "params": {"members": 2, "band": 2,
                                 "weights": [0.6, 0.4], "T": 0.05,
                                 "iterations": 3, "time_pts": 6,
                                 "cross_check_tol": 1e-300}},
                     id="fixed-point"),
    ])
    def test_failed_gate_notes_every_failed_cell(self, tmp_path, cfg,
                                                 small_panel_budget):
        # each failed cell says why in the manifest; results.csv has no note
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 1
        manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
        failed = [c for c in manifest["cells"] if not c["passed"]]
        assert failed and all(c.get("note") for c in failed)
        assert "note" not in read(tmp_path / "out" / "results.csv")

    def test_stalled_vdc_cell_keeps_its_best(self, tmp_path,
                                             small_panel_budget):
        # the stalled cell fails alone, with its quadrature's best estimate
        cfg = {"experiment": "vdc-oracle", "params": {"t": [10.0, 1e7]}}
        res = run(cfg, str(tmp_path / "out"))
        manifest = json.loads(read(tmp_path / "out" / "manifest.json"))
        ok, stalled = manifest["cells"]
        assert ok == {"cell_index": 0, "passed": True}
        assert manifest["numeric_failures"] == 1
        assert stalled["error_kind"] == "numeric"
        assert "stalled" in stalled["note"]
        best = stalled["best"]
        assert set(best) == {"value_re", "value_im", "error_estimate",
                             "panels"}
        assert best["panels"] == 8192 and best["error_estimate"] > 1e-8
        assert math.isfinite(best["value_re"] + best["value_im"])
        # the table keeps an empty row for the stalled cell
        assert "value_re" not in res.rows[1]
        assert "best" not in read(tmp_path / "out" / "results.csv")

    def test_summary_records_environment(self, tmp_path, eight_cpus):
        cfg = {"experiment": "vdc-oracle", "params": {"t": [10.0, 100.0]}}
        for threads in (1, 2):
            res = run(cfg, str(tmp_path / "out"), threads=threads)
            assert res.summary["environment"] == {
                "python": platform.python_version(),
                "numpy": np.__version__, "threads": threads}
        summary = json.loads(read(tmp_path / "out" / "summary.json"))
        assert summary["environment"]["threads"] == 2


class TestCli:
    def write_cfg(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_happy_path(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, SMALL_KERNEL)
        code = cli_main(["kernel-sweep", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert "2/2 cells passed" in capsys.readouterr().out

    def test_malformed_config_exits_2_no_artifacts(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"experiment": "kernel-sweep", "params": '
                        '{"t_min": "tiny"}}')
        out_dir = tmp_path / "out"
        code = cli_main(["kernel-sweep", "--config", str(path),
                         "--out", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()
        assert "t_min" in capsys.readouterr().err

    @pytest.mark.parametrize("params, field", [
        # 1024^(1-3) is below the default t_min = 1e-6
        pytest.param({"N": [8, 1024]}, "params.t_min", id="empty-window"),
        pytest.param({"N": [8], "t_min": 0.0}, "params.t_min",
                     id="t_min-zero"),
        pytest.param({"N": [8], "t_min": -1e-3}, "params.t_min",
                     id="t_min-negative"),
        pytest.param({"N": [8], "t_grid_pts": 32}, "params.t_grid_pts",
                     id="t_grid-small"),
        pytest.param({"N": [8], "x_grid_pts": 0}, "params.x_grid_pts",
                     id="x_grid-zero"),
        pytest.param({"N": [8], "theta": [1.5]}, "params.theta",
                     id="theta-below-2"),
        pytest.param({"N": [8, -1]}, "params.N", id="N-negative"),
    ])
    def test_empty_dispersive_window_exits_2_no_artifacts(self, tmp_path,
                                                          capsys, params,
                                                          field):
        path = self.write_cfg(tmp_path, {
            "experiment": "kernel-sweep",
            "params": {"theta": [3.0], "t_grid_pts": 64, "x_grid_pts": 64,
                       **params}})
        out_dir = tmp_path / "out"
        code = cli_main(["kernel-sweep", "--config", path,
                         "--out", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params, field", [
        pytest.param("hartree-run", {"members": 4, "band": 1},
                     "params.members", id="hartree-members-above-band"),
        pytest.param("hartree-run",
                     {"members": 2, "weights": [0.5, 0.3, 0.2]},
                     "params.weights", id="hartree-weight-count"),
        pytest.param("fixed-point", {"members": 4, "band": 1},
                     "params.members", id="fixed-point-members-above-band"),
        pytest.param("fixed-point", {"members": 2, "weights": [0.2, 0.4]},
                     "params.weights", id="fixed-point-weights-increasing"),
        pytest.param("fixed-point", {"weights": [0, 0, 0, 0]},
                     "params.weights", id="fixed-point-weights-zero"),
        pytest.param("fixed-point", {"target_norm": -0.1},
                     "params.target_norm", id="fixed-point-target-negative"),
    ])
    def test_bad_orbital_family_exits_2_no_artifacts(self, tmp_path, capsys,
                                                     kind, params, field):
        self.assert_rejected(tmp_path, capsys, kind, params, field)

    @pytest.mark.parametrize("kind, params", [
        pytest.param("hartree-run", {"T": 0.05, "dt": [0.01]}, id="hartree"),
        pytest.param("fixed-point", {"q": 4 / 3}, id="fixed-point"),
    ])
    @pytest.mark.parametrize("length, field", [
        # the largest free frequency 8 / 1e-308 overflows
        pytest.param(1e-308, "geometry", id="tiny"),
        pytest.param(math.inf, "geometry.trunc_length", id="infinite"),
    ])
    def test_waveguide_length_exits_2_no_artifacts(self, tmp_path, capsys,
                                                   kind, params, length,
                                                   field):
        self.assert_rejected(
            tmp_path, capsys, kind,
            {"members": 1, "weights": [1.0], **params},
            f"config error: {field}:",
            geometry={"kind": "waveguide", "grid_sizes": [16, 8],
                      "n_free": 1, "trunc_length": length})

    @pytest.mark.parametrize("kind, params, field", [
        pytest.param("strichartz-fit", {"family": "random", "time_pts": 1},
                     "params.time_pts", id="fit-one-time"),
        pytest.param("strichartz-fit", {"family": "random", "samples": 0},
                     "params.samples", id="fit-no-samples"),
        pytest.param("strichartz-fit", {"N": [0, 2, 4]}, "params.N",
                     id="fit-N-zero"),
        pytest.param("strichartz-fit", {"theta": 0}, "params.theta",
                     id="fit-theta-zero"),
        pytest.param("strichartz-fit", {"theta": math.inf}, "params.theta",
                     id="fit-theta-infinite"),
        pytest.param("strichartz-fit", {"p": 0.5, "q": 0.5}, "params.p",
                     id="fit-exponent-below-1"),
        pytest.param("ons-sweep", {"time_pts": 1}, "params.time_pts",
                     id="ons-one-time"),
        pytest.param("duality-check", {"time_pts": 1}, "params.time_pts",
                     id="duality-one-time"),
        # arrays beyond MATRIX_CAP elements, rejected before allocation:
        # a weight film of 10^7 times of the 16-point torus
        pytest.param("duality-check", {"time_pts": 10 ** 7},
                     "params.time_pts", id="duality-weight-film-above-cap"),
        pytest.param("kernel-sweep", {"t_grid_pts": 10 ** 12},
                     "params.t_grid_pts", id="kernel-time-grid-above-cap"),
        pytest.param("kernel-sweep", {"x_grid_pts": 10 ** 12},
                     "params.x_grid_pts", id="kernel-space-row-above-cap"),
        pytest.param("ons-sweep", {"time_pts": 10 ** 12}, "params.time_pts",
                     id="ons-film-above-cap"),
        pytest.param("fixed-point", {"time_pts": 10 ** 12},
                     "params.time_pts", id="fixed-point-film-above-cap"),
        # N^theta = 128^400 overflows a float, let alone the time grid cap
        pytest.param("strichartz-fit", {"theta": 400}, "params.time_pts_scale",
                     id="fit-dirichlet-time-grid-above-cap"),
        pytest.param("strichartz-fit", {"family": "random",
                                        "samples": 10 ** 10},
                     "params.samples", id="fit-random-batch-above-cap"),
        # the random family's normalization N^(sigma + sigma_margin)
        # overflows, or underflows to zero
        pytest.param("strichartz-fit", {"family": "random", "N": [2, 4, 8],
                                        "samples": 2, "time_pts": 5,
                                        "sigma_margin": 1e300},
                     "params.sigma_margin", id="fit-sigma-margin-overflow"),
        pytest.param("strichartz-fit", {"family": "random", "N": [2, 4, 8],
                                        "samples": 2, "time_pts": 5,
                                        "sigma_margin": -1e300},
                     "params.sigma_margin", id="fit-sigma-margin-underflow"),
        # a nonempty window, so only the phase table of 2 x N levels fails
        pytest.param("kernel-sweep", {"N": [10 ** 10], "t_min": 1e-30},
                     "params.N", id="kernel-phase-table-above-cap"),
        pytest.param("duality-check", {"N": 0}, "params.N",
                     id="duality-N-zero"),
        pytest.param("duality-check", {"N": -2}, "params.N",
                     id="duality-N-negative"),
        pytest.param("duality-check", {"alpha": [0.5]}, "params.alpha",
                     id="duality-alpha-below-1"),
        pytest.param("duality-check", {"theta": 0}, "params.theta",
                     id="duality-theta-zero"),
        pytest.param("duality-check", {"theta": -1.0}, "params.theta",
                     id="duality-theta-negative"),
        pytest.param("duality-check", {"samples": 0}, "params.samples",
                     id="duality-no-samples"),
        pytest.param("duality-check", {"samples": -3}, "params.samples",
                     id="duality-samples-negative"),
        pytest.param("duality-check", {"interval": [1.0, 1.0]},
                     "params.interval", id="duality-interval-empty"),
        pytest.param("duality-check", {"interval": [1.0, 0.0]},
                     "params.interval", id="duality-interval-reversed"),
        pytest.param("duality-check", {"interval": [0.0, 0.5, 1.0]},
                     "params.interval", id="duality-interval-three-ends"),
        pytest.param("ons-sweep", {"N": [0, 1, 2]}, "params.N",
                     id="ons-N-zero"),
        pytest.param("ons-sweep", {"alpha_prime": [0.5]},
                     "params.alpha_prime", id="ons-alpha-prime-below-1"),
        pytest.param("ons-sweep", {"theta": 0}, "params.theta",
                     id="ons-theta-zero"),
        pytest.param("ons-sweep", {"theta": math.inf}, "params.theta",
                     id="ons-theta-infinite"),
        pytest.param("ons-sweep", {"p": 0.5}, "params.p",
                     id="ons-p-below-1"),
        pytest.param("ons-sweep", {"q": 0.5}, "params.q",
                     id="ons-q-below-1"),
        pytest.param("hartree-run", {"theta": [-1.0]}, "params.theta",
                     id="hartree-theta-negative"),
        pytest.param("hartree-run", {"theta": [2.0, math.inf]},
                     "params.theta", id="hartree-theta-infinite"),
        pytest.param("hartree-run", {"T": 0.01, "dt": [0.05]}, "params.dt",
                     id="hartree-dt-above-2T"),
        pytest.param("hartree-run", {"T": 1.0, "dt": [1e-300]}, "params.dt",
                     id="hartree-steps-above-cap"),
        pytest.param("hartree-run", {"T": 0}, "params.T",
                     id="hartree-T-zero"),
        pytest.param("hartree-run", {"T": math.inf}, "params.T",
                     id="hartree-T-infinite"),
        pytest.param("hartree-run", {"q_report": 0.5}, "params.q_report",
                     id="hartree-q_report-below-1"),
        pytest.param("fixed-point", {"q": 3.0}, "params.q",
                     id="fixed-point-off-density-line"),
        pytest.param("fixed-point", {"time_pts": 1}, "params.time_pts",
                     id="fixed-point-one-time"),
        pytest.param("fixed-point", {"iterations": 1}, "params.iterations",
                     id="fixed-point-one-iteration"),
        pytest.param("fixed-point", {"theta": 0}, "params.theta",
                     id="fixed-point-theta-zero"),
        pytest.param("fixed-point", {"T": 0}, "params.T",
                     id="fixed-point-T-zero"),
        pytest.param("fixed-point", {"T": math.inf}, "params.T",
                     id="fixed-point-T-infinite"),
        pytest.param("fixed-point", {"theta": math.inf}, "params.theta",
                     id="fixed-point-theta-infinite"),
        pytest.param("fixed-point", {"cross_check_dt": 0},
                     "params.cross_check_dt",
                     id="fixed-point-cross-check-dt-zero"),
        # round(h / cross_check_dt) split steps per node: inf, and 2e297
        pytest.param("fixed-point", {"cross_check_dt": 5e-324},
                     "params.cross_check_dt",
                     id="fixed-point-cross-check-steps-infinite"),
        pytest.param("fixed-point", {"cross_check_dt": 1e-300},
                     "params.cross_check_dt",
                     id="fixed-point-cross-check-steps-above-cap"),
        # the potential: a Besov exponent q' < 1, a Gaussian width whose
        # square overflows, a Besov weight 2^(k s) that overflows
        pytest.param("hartree-run",
                     {"potential": {"kind": "yukawa", "qprime": 0.5}},
                     "params.potential.qprime", id="hartree-qprime-below-1"),
        pytest.param("hartree-run",
                     {"potential": {"kind": "gaussian", "sigma_w": 1e300}},
                     "params.potential.sigma_w",
                     id="hartree-gaussian-exponent-overflow"),
        pytest.param("hartree-run",
                     {"potential": {"kind": "gaussian",
                                    "sigma_w": math.nan}},
                     "params.potential.sigma_w", id="hartree-sigma-w-nan"),
        pytest.param("hartree-run",
                     {"potential": {"kind": "yukawa", "s": 1e300}},
                     "params.potential.s", id="hartree-besov-weight-overflow"),
        pytest.param("fixed-point",
                     {"potential": {"kind": "zero", "s": math.inf}},
                     "params.potential.s", id="fixed-point-besov-weight-inf"),
        pytest.param("strichartz-fit", {"estimate": "nope"},
                     "params.estimate", id="fit-unknown-estimate"),
        pytest.param("ons-sweep", {"estimate": "nope"}, "params.estimate",
                     id="ons-unknown-estimate"),
        # no admissibility check, and the theta-line estimate needs
        # theta > 2
        pytest.param("ons-sweep", {"theta": 2.0, "p": 6.0, "q": 2.0,
                                   "admissibility": "", "N": [1, 2, 3]},
                     "params.estimate", id="ons-estimate-not-applicable"),
        # a waveguide estimate on the torus geometry
        pytest.param("strichartz-fit", {"estimate": "waveguide-single",
                                        "p": 4.0, "q": 4.0},
                     "params.estimate", id="fit-waveguide-estimate-on-torus"),
        pytest.param("ons-sweep", {"estimate": "waveguide-ons"},
                     "params.estimate", id="ons-waveguide-estimate-on-torus"),
        # loop counts whose work, counted in Gram or family elements,
        # exceeds the cap
        pytest.param("duality-check", {"samples": 10 ** 44},
                     "params.samples", id="duality-samples-above-cap"),
        pytest.param("ons-sweep",
                     {"family_kinds": [["random-band", 10 ** 45]]},
                     "params.family_kinds", id="ons-family-draws-above-cap"),
        pytest.param("ons-sweep",
                     {"family_kinds": [["fourier-modes", 1], ["nope", 1]]},
                     "params.family_kinds", id="ons-unknown-family-kind"),
        pytest.param("vdc-oracle", {"theta": 1.0}, "params.theta",
                     id="vdc-theta-below-2"),
        pytest.param("vdc-oracle", {"theta": math.inf}, "params.theta",
                     id="vdc-theta-infinite"),
        # the phase's b ** theta overflows a float
        pytest.param("vdc-oracle", {"b": 1e200, "t": [10.0]}, "params.b",
                     id="vdc-b-power-overflow"),
        pytest.param("vdc-oracle", {"theta": 1e5}, "params.b",
                     id="vdc-theta-power-overflow"),
        # total_err > NaN is false, so a NaN tol would pass at once
        pytest.param("vdc-oracle", {"tol": math.nan}, "params.tol",
                     id="vdc-tol-nan"),
        pytest.param("vdc-oracle", {"tol": 0}, "params.tol",
                     id="vdc-tol-zero"),
        pytest.param("vdc-oracle", {"tol": -1.0}, "params.tol",
                     id="vdc-tol-negative"),
        pytest.param("vdc-oracle", {"x": math.inf}, "params.x",
                     id="vdc-x-infinite"),
        # the phase span 2 pi (|x - p| b + |t| b^theta) overflows a float;
        # the one check of the span reports it under params.x
        pytest.param("vdc-oracle", {"x": 1e308}, "params.x",
                     id="vdc-x-phase-overflow"),
        pytest.param("vdc-oracle", {"t": [10.0, 1e308]}, "params.x",
                     id="vdc-t-phase-overflow"),
        pytest.param("kernel-sweep", {"theta": [math.inf]}, "params.theta",
                     id="kernel-theta-infinite"),
        pytest.param("vdc-oracle", {"b": 1}, "params.b", id="vdc-b-one"),
        pytest.param("vdc-oracle", {"t": [10.0, 0.0]}, "params.t",
                     id="vdc-t-zero"),
        pytest.param("kernel-sweep", {"N": []}, "params.N",
                     id="kernel-N-empty"),
        pytest.param("strichartz-fit", {"N": []}, "params.N",
                     id="fit-N-empty"),
        pytest.param("ons-sweep", {"N": []}, "params.N", id="ons-N-empty"),
        pytest.param("vdc-oracle", {"t": []}, "params.t", id="vdc-t-empty"),
        pytest.param("vdc-oracle", {"t": [10.0, math.inf]}, "params.t",
                     id="vdc-t-infinite"),
        pytest.param("strichartz-fit", {"time_pts_scale": math.inf},
                     "params.time_pts_scale", id="fit-time-scale-infinite"),
        pytest.param("strichartz-fit", {"time_pts_scale": -1.0},
                     "params.time_pts_scale", id="fit-time-scale-negative"),
        pytest.param("ons-sweep", {"family_kinds": [["fourier-modes", 0]]},
                     "params.family_kinds", id="ons-family-count-zero"),
        pytest.param("ons-sweep",
                     {"family_kinds": [["fourier-modes", 1],
                                       ["random-band", -1]]},
                     "params.family_kinds", id="ons-family-count-negative"),
        pytest.param("ons-sweep", {"admissibility": "nope"},
                     "params.admissibility", id="ons-unknown-admissibility"),
        # too large for a float, so the message must not format it as one
        pytest.param("kernel-sweep", {"N": [-10 ** 400]}, "params.N",
                     id="kernel-N-beyond-float"),
        pytest.param("hartree-run", {"T": 10 ** 400}, "params.T",
                     id="hartree-T-beyond-float"),
        pytest.param("strichartz-fit", {"p": 10 ** 400}, "params.p",
                     id="fit-p-beyond-float"),
        # integer keys that reach a float conversion
        pytest.param("strichartz-fit", {"family": "random",
                                        "N": [2, 10 ** 400]},
                     "params.N", id="fit-random-N-beyond-float"),
        pytest.param("ons-sweep", {"N": [8, 10 ** 400]}, "params.N",
                     id="ons-N-beyond-float"),
        pytest.param("duality-check", {"N": 10 ** 400}, "params.N",
                     id="duality-N-beyond-float"),
        pytest.param("hartree-run", {"band": 10 ** 400}, "params.band",
                     id="hartree-band-beyond-float"),
        pytest.param("fixed-point", {"band": 10 ** 400}, "params.band",
                     id="fixed-point-band-beyond-float"),
        pytest.param("hartree-run",
                     {"potential": {"kind": "cosine", "k0": 10 ** 400}},
                     "params.potential.k0", id="hartree-k0-beyond-float"),
        pytest.param("vdc-oracle", {"p": 10 ** 400}, "params.p",
                     id="vdc-p-beyond-float"),
        # the default N = 8 ... 128 on the 16-point torus: every band is
        # the full grid of 15 modes, and the slope would fit a constant
        pytest.param("ons-sweep", {}, "params.N", id="ons-saturated-band"),
        pytest.param("ons-sweep", {"N": [2, 4, 4]}, "params.N",
                     id="ons-repeated-N"),
    ])
    def test_bad_params_exit_2_no_artifacts(self, tmp_path, capsys, kind,
                                            params, field):
        self.assert_rejected(tmp_path, capsys, kind, params, field)

    def test_fit_over_repeated_bands_exits_2_no_artifacts(self, tmp_path,
                                                          capsys):
        # on the 32-point torus N = 16, 32 and 64 all give the full band
        # of 31 modes: the slope would be fitted to a constant
        self.assert_rejected(tmp_path, capsys, "strichartz-fit",
                             {"family": "random", "N": [4, 8, 16, 32, 64]},
                             "params.N", grid=[32])

    @pytest.mark.parametrize("kind, params", [
        pytest.param("strichartz-fit", {"family": "dirichlet", "N": [8, 16]},
                     id="fit"),
        pytest.param("ons-sweep", {"N": [4, 8]}, id="ons"),
    ])
    def test_sweep_too_short_to_fit_fails(self, tmp_path, kind, params):
        # no slope gate judges a sweep of two N: its rows fail with a note
        # and the run writes its artifacts
        path = self.write_cfg(tmp_path, {
            "experiment": kind,
            "geometry": {"kind": "torus", "grid_sizes": [64]},
            "params": params})
        out_dir = tmp_path / "out"
        code = cli_main([kind, "--config", path, "--out", str(out_dir)])
        assert code == 1
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert (out_dir / name).exists()
        manifest = json.loads(read(out_dir / "manifest.json"))
        assert manifest["numeric_failures"] == 0
        assert [c["passed"] for c in manifest["cells"]] == [False, False]
        assert all(c["note"] == "the slope fit needs 3 or more N, got 2"
                   for c in manifest["cells"])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64],
                             ids=["negative", "beyond-u64"])
    def test_config_seed_out_of_range_exits_2_no_artifacts(self, tmp_path,
                                                           capsys, seed):
        # cell seeds are derived in uint64 arithmetic
        path = self.write_cfg(tmp_path, {**SMALL_KERNEL, "seed": seed})
        out_dir = tmp_path / "out"
        code = cli_main(["kernel-sweep", "--config", path,
                         "--out", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()
        assert capsys.readouterr().err.startswith(
            "config error: config.seed:")

    @pytest.mark.parametrize("seed", [-5, 2 ** 64],
                             ids=["negative", "beyond-u64"])
    def test_seed_override_out_of_range_exits_2_no_artifacts(self, tmp_path,
                                                             capsys, seed):
        path = self.write_cfg(tmp_path, SMALL_KERNEL)
        out_dir = tmp_path / "out"
        code = cli_main(["kernel-sweep", "--config", path,
                         "--out", str(out_dir), "--seed", str(seed)])
        assert code == 2
        assert not out_dir.exists()
        assert capsys.readouterr().err.startswith("config error: seed:")

    def test_duality_long_time_grid_runs(self, tmp_path):
        # 300 times of the 16-point torus: a 4800-point weight film and a
        # 5 x 5 band Gram, where the space-time Gram would be 4800 x 4800
        path = self.write_cfg(tmp_path, {
            "experiment": "duality-check",
            "geometry": {"kind": "torus", "grid_sizes": [16]},
            "params": {"time_pts": 300}})
        out_dir = tmp_path / "out"
        code = cli_main(["duality-check", "--config", path,
                         "--out", str(out_dir)])
        assert code == 0
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert (out_dir / name).exists()

    @pytest.mark.parametrize("kind, key, opt", declared_bounds())
    def test_declared_bounds_exit_2_no_artifacts(self, tmp_path, capsys,
                                                 kind, key, opt):
        # NaN, +-infinity and an int beyond the float range on a finite
        # key, and a value just past the bound
        bad = [math.nan] + [math.inf, -math.inf, 10 ** 400] * opt.get(
            "finite", False)
        if "exclusiveMinimum" in opt:
            bad.append(opt["exclusiveMinimum"])
        if "minimum" in opt:
            low = opt["minimum"]
            bad.append(low - 1 if opt["type"] in ("int", "list-int",
                                                  "list-pair")
                       else math.nextafter(low, -math.inf))
            # the bound itself is valid
            validate_config({"experiment": kind,
                             "params": {key: params_entry(opt, low)}})
        # and so is the default
        validate_config({"experiment": kind, "params": {key: opt["default"]}})
        for value in bad:
            self.assert_rejected(tmp_path, capsys, kind,
                                 {key: params_entry(opt, value)},
                                 f"params.{key}")

    @pytest.mark.parametrize("kind, grid, params, error_kind", [
        # |xi|^1000 overflows at every N, so every flowed density is NaN
        pytest.param("ons-sweep", [64], {"theta": 1000, "p": 2000, "q": 2,
                                         "N": [8, 16, 32]},
                     "invalid_input", id="ons-symbol-overflow"),
        # the window 0.5 N^(1 - theta) underflows to 0 at N = 16 and 32
        pytest.param("ons-sweep", [64], {"theta": 300, "p": 600, "q": 2,
                                         "N": [8, 16, 32],
                                         "interval_mode": "dispersive-window"},
                     "invalid_input", id="ons-window-underflow"),
        pytest.param("duality-check", [16], {"theta": 1000}, "numeric",
                     id="duality-symbol-overflow"),
        pytest.param("fixed-point", [16], {"theta": 1000}, "invalid_input",
                     id="fixed-point-symbol-overflow"),
        pytest.param("hartree-run", [16], {"theta": [1000]}, "invalid_input",
                     id="hartree-symbol-overflow"),
    ])
    def test_overflowing_symbol_fails_the_cell(self, tmp_path, kind, grid,
                                               params, error_kind):
        # a schema-valid exponent whose symbol leaves the float range:
        # each cell it breaks fails with its error_kind, and the run
        # writes its artifacts
        path = self.write_cfg(tmp_path, {
            "experiment": kind, "geometry": {"kind": "torus",
                                             "grid_sizes": grid},
            "params": params})
        out_dir = tmp_path / "out"
        # the cells' overflow warnings are part of this run
        with warnings.catch_warnings(record=True):
            code = cli_main([kind, "--config", path, "--out", str(out_dir)])
        assert code == 1
        manifest = json.loads(read(out_dir / "manifest.json"))
        failed = [c for c in manifest["cells"] if not c["passed"]]
        assert failed and all(c["error_kind"] == error_kind and c["note"]
                              for c in failed)
        assert manifest["numeric_failures"] == len(failed)
        assert "error_kind" not in read(out_dir / "results.csv")

    def test_fixed_point_overflow_is_numeric_failure(self, tmp_path):
        # the Duhamel core overflows: the cell fails with a note and the
        # run still writes its artifacts
        path = self.write_cfg(tmp_path, {
            "experiment": "fixed-point",
            "geometry": {"kind": "torus", "grid_sizes": [16]},
            "params": {"target_norm": 1e300}})
        out_dir = tmp_path / "out"
        with pytest.warns(RuntimeWarning):  # overflow in the core
            code = cli_main(["fixed-point", "--config", path,
                             "--out", str(out_dir)])
        assert code == 1
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert (out_dir / name).exists()
        manifest = json.loads(read(out_dir / "manifest.json"))
        assert manifest["numeric_failures"] == 1
        assert manifest["cells"][0]["note"]

    def test_fixed_point_sup_exponent_runs(self, tmp_path):
        # q = inf on the 1-D density line (p = 2): alpha' = 2q/(q+1) is 2
        path = tmp_path / "cfg.json"
        path.write_text('{"experiment": "fixed-point", "geometry": '
                        '{"kind": "torus", "grid_sizes": [16]}, '
                        '"params": {"p": 2, "q": Infinity}}')
        out_dir = tmp_path / "out"
        code = cli_main(["fixed-point", "--config", str(path),
                         "--out", str(out_dir)])
        assert code in (0, 1)
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert (out_dir / name).exists()

    @pytest.mark.parametrize("kind, params", [
        pytest.param("strichartz-fit", {"p": math.inf, "q": math.inf,
                                        "N": [2, 4], "time_pts": 5},
                     id="fit"),
        pytest.param("ons-sweep", {"q": math.inf, "N": [2, 4],
                                   "time_pts": 5}, id="ons"),
        pytest.param("hartree-run", {"q_report": math.inf, "T": 0.01,
                                     "dt": [0.005]}, id="hartree"),
    ])
    def test_infinite_exponent_runs(self, tmp_path, kind, params):
        # an exponent bounded below but not finite accepts the sup norm
        path = self.write_cfg(tmp_path, {
            "experiment": kind,
            "geometry": {"kind": "torus", "grid_sizes": [16]},
            "params": params})
        out_dir = tmp_path / "out"
        code = cli_main([kind, "--config", path, "--out", str(out_dir)])
        assert code in (0, 1)
        for name in ("results.csv", "summary.json", "manifest.json"):
            assert (out_dir / name).exists()

    def test_film_cap_counts_grid_points(self, tmp_path, capsys):
        # 2^20 times of a 16-point torus fill the cap exactly, so the
        # driver's preflight accepts that film and rejects the 32-point
        # one; a full band of 8191 members is above the cap.  The sweep
        # takes N below 8, where the bands of the 16-point torus still grow
        for kind, sweep in (("ons-sweep", {"N": [2, 4, 7]}),
                            ("fixed-point", {})):
            params = {"time_pts": 2 ** 20, **sweep}
            harness._DRIVERS[kind](validate_config({
                "experiment": kind,
                "geometry": {"kind": "torus", "grid_sizes": [16]},
                "params": params}))
            self.assert_rejected(tmp_path, capsys, kind, params,
                                 "params.time_pts", grid=[32])
        self.assert_rejected(tmp_path, capsys, "ons-sweep", {"N": [4096]},
                             "params.N", grid=[8192])

    def assert_rejected(self, tmp_path, capsys, kind, params, field,
                        grid=(16,), geometry=None):
        path = self.write_cfg(tmp_path, {
            "experiment": kind,
            "geometry": geometry or {"kind": "torus",
                                     "grid_sizes": list(grid)},
            "params": params})
        out_dir = tmp_path / "out"
        code = cli_main([kind, "--config", path, "--out", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()
        assert field in capsys.readouterr().err

    def test_subcommand_mismatch(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, SMALL_KERNEL)
        code = cli_main(["vdc-oracle", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert code == 2

    def test_validate_config_echo(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, {"experiment": "vdc-oracle"})
        code = cli_main(["validate-config", "--config", path])
        assert code == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["params"]["b"] == 2.0

    def test_print_schema(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, {"experiment": "vdc-oracle"})
        code = cli_main(["validate-config", "--config", path,
                         "--print-schema"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "experiments" in doc
