"""The package's public surface: the functions and classes each module
defines and the names `quatem` exports.  Reference implementations that
only the tests use live in tests/oracles.py, not here."""

import importlib
import inspect
import types

import quatem

MODULE_SURFACE = {
    "cli": {"build_parser", "cmd_extend_check", "cmd_gen_field", "cmd_gen_mesh",
            "cmd_kernel_probe", "cmd_reconstruct", "cmd_verify_bp", "main"},
    "errors": {"CapacityError", "ConfigError", "NearSingularityError", "QuatemError",
               "SingularMediumError", "SingularityError", "TopologyError"},
    "fields": {"AnalyticField", "abc_beltrami", "exact_chiral_solution",
               "identity_vector_field", "scalar_monomial"},
    "geometry": {"BallRule", "NormalCheck", "SurfaceMesh", "SurfaceRule", "build_sphere_mesh",
                 "checked_normals", "load_off", "load_traces", "mesh_from_arrays",
                 "polar_ball_rule", "save_csv", "save_off", "save_traces", "sphere_rule"},
    "kernels": {"radial_factors", "theta", "upsilon"},
    "maxwell": {"ChiralMedium", "make_medium", "merge_values", "split_values"},
    "operators": {"BoundaryDensity", "VolumeDensity", "borel_pompeiu_residual",
                  "cauchy_boundary", "teodorescu"},
    "quaternions": {"is_finite", "norm", "qmul", "sc", "vec", "vector"},
    "reconstruction": {"ExtendibilityReport", "extendibility_residual", "perturb_traces",
                       "reconstruct_eh", "two_kernel_eh"},
}

EXPORTS = {
    "AnalyticField", "BoundaryDensity", "CapacityError", "ChiralMedium", "ConfigError",
    "ExtendibilityReport", "NearSingularityError", "QuatemError", "SingularMediumError",
    "SingularityError", "SurfaceMesh", "TopologyError", "VolumeDensity", "abc_beltrami",
    "borel_pompeiu_residual", "build_sphere_mesh", "cauchy_boundary", "checked_normals",
    "exact_chiral_solution", "extendibility_residual", "make_medium",
    "merge_values", "polar_ball_rule", "reconstruct_eh", "sphere_rule",
    "split_values", "teodorescu", "theta", "upsilon",
}


def test_module_surface():
    surface = {}
    for name in MODULE_SURFACE:
        module = importlib.import_module("quatem." + name)
        surface[name] = {attr for attr, obj in vars(module).items()
                         if not attr.startswith("_")
                         and (inspect.isfunction(obj) or inspect.isclass(obj))
                         and obj.__module__ == module.__name__}
    assert surface == MODULE_SURFACE


def test_package_exports():
    exported = {attr for attr, obj in vars(quatem).items()
                if not attr.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exported == EXPORTS
