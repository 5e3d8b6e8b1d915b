"""The benchmark's workloads: which configs each one runs, and why.

Every input is a shipped acceptance config from ``configs/`` (the only
record of real use) except ``fixed_point_2d``, which is derived below.

flow-batch
    ``waveguide_single_zero_loss`` and ``torus_slope_random`` at two
    harness threads.  The band-flow engine (``harness._flow_ratios``) on
    large sample batches with few time steps: 100 samples on a 512x128
    grid over 17 steps.  Inverse FFT is about half of the engine's busy
    time, the rest is band scatter, phase and the ``|u|^q`` reduction.
    It is also the memory hazard (about 1 GB peak RSS at two threads)
    and the only workload that runs the harness thread pool.
flow-steps
    ``torus_slope_dirichlet`` and ``ons_threshold``.  The same flow layer
    the other way round: one coefficient row over up to 65 537 time steps
    on a 512-point torus, so per-step overhead (``_frac_product``, one
    small FFT, the reduction) dominates.
kernel-window
    ``kernel_dispersive_window`` and ``vdc_envelope``.  Nearly all of the
    time is the dense (T, X, N) exponential sum in
    ``kernels._scaled_kernel_max`` plus the adaptive quadrature.  No FFT
    and no flow-engine calls: it bypasses the flow engine and the
    mean-field layers.
mean-field
    ``hartree_conservation``, ``fixed_point_contraction``,
    ``fixed_point_2d`` and ``duality_dominance``.  Split-step evolution
    with an energy diagnostic at every step, and dense eigh/SVD in the
    fixed point and the Sobolev-Schatten distance.  It bypasses the flow
    engine and the kernel sums.

``fixed_point_2d`` is ``fixed_point_contraction`` on a 16x16 torus with
``q = 4/3``.  The shipped 1-D fixed point runs in about 0.1 s, too small
to show a change to the fixed-point layer; at 16x16 the dense operators
are 256x256.  The density exponents lie on the line ``2/p + d/q = d``:
the shipped 1-D config has ``p = 4, q = 2``, and with the same ``p = 4``
in ``d = 2`` the line gives ``q = 4/3``.  The 16x16 variant passes every
gate of its config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# name -> (base config in configs/, overrides as (section, key, value))
DERIVED = {
    "fixed_point_2d": ("fixed_point_contraction",
                       (("geometry", "grid_sizes", [16, 16]),
                        ("params", "q", 4.0 / 3.0))),
}


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int          # harness threads for every input of the workload
    inputs: tuple         # config names, run back to back in this order


WORKLOADS = {w.name: w for w in (
    Workload("flow-batch", 2,
             ("waveguide_single_zero_loss", "torus_slope_random")),
    Workload("flow-steps", 1, ("torus_slope_dirichlet", "ons_threshold")),
    Workload("kernel-window", 1,
             ("kernel_dispersive_window", "vdc_envelope")),
    Workload("mean-field", 1,
             ("hartree_conservation", "fixed_point_contraction",
              "fixed_point_2d", "duality_dominance")),
)}


def load_input(name: str, root: str, load_config, validate_config) -> dict:
    """Load and validate one input config; returns the defaulted echo.

    The two config functions come from ``strichartz_lab.config`` and are
    passed in so that this module imports nothing from the package.
    """
    if name not in DERIVED:
        return load_config(os.path.join(root, "configs", name + ".json"))
    base, overrides = DERIVED[name]
    echo = load_config(os.path.join(root, "configs", base + ".json"))
    for section, key, value in overrides:
        echo[section][key] = value
    return validate_config(echo)
