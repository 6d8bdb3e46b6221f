"""Quaternionic integral-operator toolkit for electromagnetic fields in
chiral media: complex quaternion algebra, fundamental solutions, volume
and boundary potentials, field reconstruction from boundary traces, and
the boundary-trace extendibility criterion."""

from . import errors, fields, geometry, kernels, maxwell, operators, quaternions, reconstruction
from .errors import (
    CapacityError,
    ConfigError,
    NearSingularityError,
    QuatemError,
    SingularityError,
    SingularMediumError,
    TopologyError,
)
from .fields import AnalyticField, abc_beltrami, exact_chiral_solution
from .geometry import (
    SurfaceMesh,
    build_sphere_mesh,
    checked_normals,
    polar_ball_rule,
    sphere_rule,
)
from .kernels import theta, upsilon
from .maxwell import (
    ChiralMedium,
    continuity_rho,
    make_medium,
    merge_values,
    phi_psi_rhs,
    split_values,
)
from .operators import (
    BoundaryDensity,
    VolumeDensity,
    borel_pompeiu_residual,
    cauchy_boundary,
    teodorescu,
)
from .reconstruction import (
    ExtendibilityReport,
    extendibility_residual,
    reconstruct_eh,
)

__version__ = "0.1.0"
