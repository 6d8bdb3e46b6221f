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
from .fields import AnalyticField, abc_beltrami, exact_chiral_solution, polynomial_field
from .geometry import (
    SurfaceMesh,
    VolumeQuadrature,
    build_ball_quadrature,
    build_sphere_mesh,
    checked_normals,
)
from .kernels import fd_d_alpha, fd_moisil_theodoresco, theta, upsilon
from .maxwell import (
    ChiralMedium,
    SourceData,
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
    maxwell_residual,
    phi_psi_representation,
    reconstruct_eh,
)

__version__ = "0.1.0"
