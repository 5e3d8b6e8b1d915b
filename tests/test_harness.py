import json

import numpy as np
import pytest

from strichartz_lab.cli import main as cli_main
from strichartz_lab.config import load_config, schema_document, validate_config
from strichartz_lab.errors import ConfigError
from strichartz_lab.harness import run
from strichartz_lab.seeding import derive_cell_seed, derive_cell_seeds


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
    def test_empty_grid_is_valid(self, tmp_path):
        cfg = {"experiment": "kernel-sweep", "params": {"theta": [], "N": []}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert res.rows == []
        csv = read(tmp_path / "out" / "results.csv")
        assert csv.count("\n") == 1  # header only

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

    def test_serial_matches_threaded(self, tmp_path):
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

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRICHARTZ_LAB_THREADS", "4")
        res = run(SMALL_KERNEL, str(tmp_path / "out"))
        assert res.exit_code == 0

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

    def test_ons_na_cells_pass_through(self, tmp_path):
        # q off the theta line: cells are recorded as not-applicable
        cfg = {"experiment": "ons-sweep",
               "geometry": {"kind": "torus", "grid_sizes": [64]},
               "params": {"N": [4, 8], "p": 4.0, "time_pts": 5}}
        res = run(cfg, str(tmp_path / "out"))
        assert res.exit_code == 0
        assert all(not r["applicable"] for r in res.rows)


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
