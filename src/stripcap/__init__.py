"""Conformal maps of slit strip domains, condenser capacities, potential flow."""

from .capacity import (
    CapacityResult,
    CondenserSpec,
    capacity,
    capacity_study,
    exact_cap_horizontal,
    exact_cap_vertical,
)
from .errors import (
    ConvergenceError,
    GeometryError,
    MemoryLimitError,
    OverlapError,
    StripcapError,
)
from .flow import FlowField, GridSpec, complex_potential, horizontal_slit_map, stream_grid
from .geometry import (
    BoundaryParametrization,
    EllipseParams,
    SlitSpec,
    StripSlitDomain,
    build_preimage_boundary,
    parametrize_ellipse,
    psi,
    psi_inv,
    trig_derivative,
)
from .kernels import KernelSet
from .preimage import IterationConfig, PreimageResult, initialize, iterate
from .solver import BieSolution, cauchy_eval, solve_bie
from .stripmap import (
    MapData,
    build_map,
    extract_slit_images,
    inverse_map,
    strip_gamma,
)

__version__ = "0.1.0"

# Dense numpy is the only implementation.  The pipeline benchmark records
# this constant and refuses to time any other value, so it stays exported.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "BieSolution",
    "BoundaryParametrization",
    "CapacityResult",
    "CondenserSpec",
    "ConvergenceError",
    "EllipseParams",
    "FlowField",
    "GeometryError",
    "GridSpec",
    "IterationConfig",
    "KernelSet",
    "MapData",
    "MemoryLimitError",
    "OverlapError",
    "PreimageResult",
    "SlitSpec",
    "StripSlitDomain",
    "StripcapError",
    "build_map",
    "build_preimage_boundary",
    "capacity",
    "capacity_study",
    "cauchy_eval",
    "complex_potential",
    "exact_cap_horizontal",
    "exact_cap_vertical",
    "extract_slit_images",
    "horizontal_slit_map",
    "initialize",
    "inverse_map",
    "iterate",
    "parametrize_ellipse",
    "psi",
    "psi_inv",
    "solve_bie",
    "stream_grid",
    "strip_gamma",
    "trig_derivative",
]
