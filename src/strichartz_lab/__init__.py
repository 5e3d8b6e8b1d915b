"""Numerical laboratory for dispersive space-time estimates of fractional
Schrodinger flows on torus and waveguide geometries."""

__version__ = "0.1.0"

from .errors import (                                    # noqa: F401
    CapacityError,
    ConfigError,
    InvalidInputError,
    NumericFailureError,
    StrichartzLabError,
)
from .geometry import (                                  # noqa: F401
    BandFlow,
    GeometrySpec,
    eta1,
    flow_phase,
    forward_transform,
    fractional_symbol,
    inverse_transform,
    littlewood_paley,
    project_leq,
    propagate,
    torus,
    waveguide,
)
from .kernels import (                                   # noqa: F401
    DispersiveReport,
    OscillatoryIntegral,
    dispersive_sup,
    kernel_exp_sum,
    vdc_integral_oracle,
)
from .norms import (                                     # noqa: F401
    ScalingFit,
    SigmaPrediction,
    besov_sup_norm,
    classify_pair,
    fit_scaling,
    mixed_norm,
    predict_sigma,
)
from .schatten import (                                  # noqa: F401
    DualityReport,
    duality_check,
    schatten_norm,
    singular_values,
    spatial_kernel_operator,
)
from .ons import (                                       # noqa: F401
    band_dimension,
    density_field,
    generate_ons,
    lambda_family,
    ons_estimate_ratio,
)
from .hartree import (                                   # noqa: F401
    DensityState,
    FixedPointResult,
    OperatorPath,
    PotentialSpec,
    TrajectoryRecord,
    duhamel_map,
    evolve,
    fixed_point_iterate,
    hartree_energy,
    split_step,
)
from .seeding import derive_cell_seed, derive_cell_seeds  # noqa: F401
from .config import load_config, schema_document, validate_config  # noqa: F401
from .harness import RunResult, run                      # noqa: F401
