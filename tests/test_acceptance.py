"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failed assert prints the measured values instead).
"""

import os
import time

import numpy as np

from strichartz_lab.geometry import (
    forward_transform,
    inverse_transform,
    propagate,
    torus,
    waveguide,
)
from strichartz_lab.harness import _flow_ratios, _ons_density_state, run
from strichartz_lab.hartree import (
    DensityState,
    PotentialSpec,
    evolve,
    fixed_point_iterate,
    split_step,
)
from strichartz_lab.kernels import dispersive_sup, vdc_integral_oracle
from strichartz_lab.norms import fit_scaling, lq_norm
from strichartz_lab.ons import band_dimension
from strichartz_lab.schatten import (
    duality_check,
    schatten_norm,
    spatial_kernel_operator,
)

from oracles import sobolev_schatten_norm

YUKAWA = PotentialSpec("yukawa", a=1.0)


def report(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label}: {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestCriterion1SpectralSubstrate:
    def test_substrate(self):
        t0 = time.time()
        worst = 0.0
        s, t = 0.21875, 0.15625  # dyadic: exact group-law arithmetic
        for geom in (torus(1024), waveguide(64, 64, trunc_length=8.0)):
            rng = np.random.default_rng(1)
            f = rng.standard_normal(geom.grid_sizes) \
                + 1j * rng.standard_normal(geom.grid_sizes)
            f_l2 = lq_norm(f, 2, geom.cell_volume)
            spec = forward_transform(f, geom)
            worst = max(worst, rel_err(lq_norm(spec, 2, geom.dual_cell), f_l2))
            back = inverse_transform(spec, geom)
            scale = np.max(np.abs(f))
            worst = max(worst, np.max(np.abs(back - f)) / scale)
            for theta in (0.5, 1.5, 2.0, 2.5, 3.0, 5.0):
                g = propagate(f, geom, s + t, theta)
                worst = max(worst, rel_err(lq_norm(g, 2, geom.cell_volume),
                                           f_l2))
                two = propagate(propagate(f, geom, s, theta), geom, t, theta)
                worst = max(worst,
                            np.max(np.abs(two - g)) / np.max(np.abs(g)))
                ident = propagate(f, geom, 0.0, theta)
                worst = max(worst, np.max(np.abs(ident - f)))
        elapsed = time.time() - t0
        report(1, "spectral substrate",
               worst < 1e-12 and elapsed < 30.0,
               f"worst rel err {worst:.2e} (< 1e-12), {elapsed:.1f}s (< 30s)")


class TestCriterion2DispersiveBound:
    def test_uniform_boundedness(self):
        t0 = time.time()
        details = []
        ok = True
        for theta in (2.5, 3.0):
            sups = [dispersive_sup(N, theta, t_grid_pts=512, x_grid_pts=512,
                                   t_min=1e-6).sup_value
                    for N in (8, 16, 32, 64, 128)]
            ratio = max(sups) / min(sups)
            ok = ok and ratio <= 2.0
            details.append(f"theta={theta}: max/min={ratio:.3f}")
        elapsed = time.time() - t0
        ok = ok and elapsed < 300.0
        report(2, "dispersive kernel sup bound", ok,
               "; ".join(details) + f" (<= 2.0), {elapsed:.0f}s (< 5min)")


class TestCriterion3VdcOracle:
    def test_envelope_ratio(self):
        ratios = []
        err_ok = True
        for t in (10.0, 100.0, 1000.0):
            res = vdc_integral_oracle(3.0, 0.0, t, 0, 2.0, tol=1e-8)
            err_ok = err_ok and res.error_estimate < 1e-8
            ratios.append(res.ratio)
        spread = max(ratios) / min(ratios)
        report(3, "oscillatory integral envelope",
               err_ok and spread <= 2.0,
               f"|I|*t^(1/3) spread {spread:.3f} (<= 2), quad err ok "
               f"{err_ok}")


class TestCriterion4TorusStrichartzSlope:
    GEOM = torus(512)
    NS = (8, 16, 32, 64, 128)
    SIGMA = 0.5 - 3.0 / 8.0  # 1/8

    def test_dirichlet_family_slope(self):
        pts = []
        for N in self.NS:
            tp = int(4 * N ** 2) + 1
            rows = np.ones((1, band_dimension(self.GEOM, N)), dtype=complex)
            ratio = float(_flow_ratios(self.GEOM, N, rows, 2.0,
                                       max(257, tp), 8.0, 8.0)[0])
            pts.append((N, ratio))
        slope = fit_scaling(pts).slope
        report(4, "torus slope (flat-coefficient family)",
               0.0 <= slope <= self.SIGMA + 0.12,
               f"slope {slope:.4f} in [0, {self.SIGMA + 0.12:.4f}]")

    def test_random_family_uniformity(self):
        values = []
        for i, N in enumerate(self.NS):
            rng = np.random.default_rng(100 + i)
            dim = band_dimension(self.GEOM, N)
            rows = rng.standard_normal((100, dim)) \
                + 1j * rng.standard_normal((100, dim))
            ratios = _flow_ratios(self.GEOM, N, rows, 2.0, 257, 8.0, 8.0)
            values.append(float(np.max(ratios)) / N ** (self.SIGMA + 0.05))
        spread = max(values) / min(values)
        report(4, "torus slope (random families)",
               spread < 3.0, f"normalized max-ratio spread {spread:.3f} (< 3)")


class TestCriterion5OrthonormalThreshold:
    def test_alpha_threshold(self, tmp_path):
        # the shipped config: flat fourier-mode family on torus 512,
        # N = 8 ... 128, alpha' = 4/3 (the edge 2q/(q+1)) and alpha' = 2
        config = os.path.join(os.path.dirname(__file__), "..", "configs",
                              "ons_threshold.json")
        fits = run(config, str(tmp_path / "out")).summary["fits"]
        slope_at = fits["slope_alpha_1.33333"]
        slope_above = fits["slope_alpha_2"]
        sigma = 1.0 / 3.0
        ok = (slope_at <= sigma + 0.1 and slope_above > sigma + 0.1
              and abs(slope_at - 0.25) < 0.05
              and abs(slope_above - 0.5) < 0.05)
        report(5, "family-sum threshold",
               ok,
               f"slope(a'=4/3)={slope_at:.4f} <= {sigma + 0.1:.4f}; "
               f"slope(a'=2)={slope_above:.4f} > {sigma + 0.1:.4f} "
               f"(expected ~0.25 / ~0.5)")


class TestCriterion6WaveguideSingle:
    @staticmethod
    def pow2ceil(x):
        n = 4
        while n < x:
            n *= 2
        return n

    def test_zero_loss_branch(self):
        # grid resolution scales with the band so the relative
        # discretization is uniform in N (box length pinned at L = 8)
        L = 8.0
        values = []
        for i, N in enumerate((8, 16, 32, 64)):
            geom = waveguide((self.pow2ceil(2 * N * L),),
                             (self.pow2ceil(4 * N),), trunc_length=L)
            rng = np.random.default_rng(200 + i)
            dim = band_dimension(geom, N)
            best = 0.0
            for lo in range(0, 100, 50):
                rows = rng.standard_normal((50, dim)) \
                    + 1j * rng.standard_normal((50, dim))
                ratios = _flow_ratios(geom, N, rows, 2.5, 17, 4.0, 4.0)
                best = max(best, float(np.max(ratios)))
            values.append((N, best))
        slope = fit_scaling(values).slope
        report(6, "waveguide single-function estimate",
               slope <= 0.12,
               f"random max-ratio slope {slope:.4f} (<= 0.12, sigma=0 branch)")


class TestCriterion7SchattenLayer:
    def test_hilbert_schmidt_kernel_equality(self):
        geom = torus(16)
        rng = np.random.default_rng(7)
        K = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        A = spatial_kernel_operator(K, geom)
        kernel_norm = float(np.sqrt(np.sum(np.abs(K) ** 2)
                                    * geom.cell_volume ** 2))
        err = abs(schatten_norm(A, 2) - kernel_norm)
        report(7, "Hilbert-Schmidt kernel equality", err < 1e-10,
               f"|S2 - kernel L2| = {err:.2e} (< 1e-10)")

    def test_duality_dominance(self):
        geom = torus(16)
        times = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(70)
        vals = (np.abs(rng.standard_normal((9, 16))) + 0.1).astype(complex)
        all_ok = True
        for W in (np.ones((9, 16)), vals):
            rep = duality_check(geom, times, W, 2, 4.0, 200, theta=2.0,
                                seed=5)
            all_ok = all_ok and bool(rep.dominance_ok)
        report(7, "operator-side dominance", all_ok,
               "sampled side <= operator side in 100% of 200-sample runs "
               "(16x9 grid, N=2)")


class TestCriterion8HartreeConservation:
    def test_conservation_and_order(self):
        geom = torus(64)
        details = []
        ok = True
        for theta in (2.0, 3.0):
            st = _ons_density_state(geom, 4, 2, theta, [0.4, 0.3, 0.2, 0.1],
                                    seed=2026)
            rec = evolve(st, 1.0, 1e-3, YUKAWA)
            rec_half = evolve(st, 1.0, 5e-4, YUKAWA)
            ratio = rec.energy_drift / rec_half.energy_drift
            cond = (rec.mass_deviation < 1e-10
                    and rec.max_gram_deviation < 1e-9
                    and rec.energy_drift < 1e-6 and ratio >= 3.5)
            ok = ok and cond
            details.append(
                f"theta={theta:g}: mass={rec.mass_deviation:.1e} "
                f"gram={rec.max_gram_deviation:.1e} "
                f"drift={rec.energy_drift:.1e} halving x{ratio:.2f}")
        report(8, "mean-field conservation", ok, "; ".join(details))


class TestCriterion9FixedPointContraction:
    def test_contraction_and_cross_check(self):
        t0 = time.time()
        geom = torus(32)
        p, q = 4.0, 2.0
        alpha_prime = 2 * q / (q + 1)
        s = 0.5 / p + 0.05
        st = _ons_density_state(geom, 4, 4, 2.0, [0.4, 0.3, 0.2, 0.1], seed=1)
        flat = st.members.reshape(st.size, -1)
        gamma = (flat.T * st.weights) @ flat.conj() * geom.cell_volume
        norm0 = sobolev_schatten_norm(gamma, alpha_prime, s, geom)
        st = DensityState(st.members, st.weights * (0.1 / norm0), geom, 2.0)
        result = fixed_point_iterate(st, YUKAWA, 0.05, 6, p, q, time_pts=26)
        ratios = [r for _, r in result.iterates if r is not None]
        # iterations that reach the roundoff floor terminate the run; all
        # measurable ratios must sit below 1/2
        ratios_ok = result.contractive and all(r < 0.5 for r in ratios) \
            and (len(result.iterates) >= 6 or result.converged)

        nodes = result.path.times
        sub = int(round((nodes[1] - nodes[0]) / 1e-3))
        dt = (nodes[1] - nodes[0]) / sub
        cur = st
        worst = 0.0
        for i in range(1, len(nodes)):
            for _ in range(sub):
                cur = split_step(cur, dt, YUKAWA)
            diff = cur.density() - result.path.rho[i]
            worst = max(worst, float(np.sqrt(np.sum(diff ** 2)
                                             * geom.cell_volume)))
        elapsed = time.time() - t0
        ok = ratios_ok and worst < 1e-4 and elapsed < 120.0
        report(9, "fixed-point contraction", ok,
               f"ratios {['%.1e' % r for r in ratios]} (< 0.5, "
               f"converged={result.converged}), split-step gap "
               f"{worst:.2e} (< 1e-4), {elapsed:.0f}s (< 2min)")


class TestCriterion10Reproducibility:
    CFG = {
        "experiment": "ons-sweep",
        "seed": 17,
        "geometry": {"kind": "torus", "grid_sizes": [128]},
        "params": {"N": [4, 8, 16], "alpha_prime": [4.0 / 3.0],
                   "time_pts": 9,
                   "family_kinds": [["fourier-modes", 1],
                                    ["random-band", 5]]},
    }

    @staticmethod
    def strip_timing(text):
        lines = text.strip().split("\n")
        head = lines[0].split(",")
        keep = [i for i, h in enumerate(head) if h != "wall_time_ms"]
        return "\n".join(",".join(line.split(",")[i] for i in keep)
                         for line in lines)

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        # 8 threads on a host of any CPU count
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        outs = []
        for name, threads in (("a", 1), ("b", 1), ("pool", 8)):
            run(self.CFG, str(tmp_path / name), threads=threads)
            with open(tmp_path / name / "results.csv", encoding="utf-8") as fh:
                outs.append(self.strip_timing(fh.read()))
        ok = outs[0] == outs[1] == outs[2]
        report(10, "reproducibility", ok,
               "re-run and 8-thread CSV byte-identical (timing column aside)")
