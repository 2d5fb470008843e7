"""Boundary Poisson kernels, invariant distances, and pluripotential
verification on convex domains of finite type.

Core objects: Domain (disc, ball, egg-type ellipsoids, annulus,
half-plane, general convex), complex geodesics with catalogued boundary
data, the Kobayashi distance with certified two-sided bounds, the
boundary kernel Omega and pluricomplex Green function, boundary measure
quadrature, and boundary dilation of holomorphic maps.
"""

from .domain_core import (Domain, BoundaryPoint, make_domain, boundary_point,
                          boundary_distance, boundary_project, defining_function,
                          minkowski_gauge, unit_normal, levi_data, line_type)
from .errors import (PluripotError, DomainError, UnsupportedDomainError, ConvergenceError)
from .geodesics_metrics import (GeodesicDisc, DistanceBound, egg_geodesic, ball_geodesic,
                                egg_invert, kobayashi_distance, caratheodory_lower_bound,
                                slice_upper_bound, asymptoticity_gap)
from .hyperbolic_models import (disc_distance, halfplane_distance, annulus_distance,
                                horofunction_disc, annulus_horofunction)
from .kernels import (GREEN_POLE, KernelValue, ClosedFormKernel, poisson_kernel,
                      green_function, horofunction, green_normal_derivative,
                      horosphere_contains, k_region_contains, boundary_distance_asymptotic)
from .pluripotential_verify import (HessianSample, VerificationReport, complex_hessian,
                                    phragmen_lindelof_compare, laplacian_1d,
                                    laplacian_noise_floor)
from .boundary_measure import (BoundaryQuadrature, boundary_form_density, build_quadrature,
                               reproduce_pluriharmonic, calibrate_quadrature)
from .dilation_jwc import (MapUnderTest, map_from_spec, dilation, normalized_dilation,
                           julia_checks, omega_preserving_residual, gamma_lambda,
                           special_curve_limit)
from ._suites import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "Domain", "BoundaryPoint", "make_domain", "boundary_point", "boundary_distance",
    "boundary_project", "defining_function", "minkowski_gauge", "unit_normal", "levi_data",
    "line_type",
    "PluripotError", "DomainError", "UnsupportedDomainError", "ConvergenceError",
    "GeodesicDisc", "DistanceBound", "egg_geodesic", "ball_geodesic", "egg_invert",
    "kobayashi_distance", "caratheodory_lower_bound", "slice_upper_bound",
    "asymptoticity_gap",
    "disc_distance", "halfplane_distance", "annulus_distance", "horofunction_disc",
    "annulus_horofunction",
    "GREEN_POLE", "KernelValue", "ClosedFormKernel", "poisson_kernel", "green_function",
    "horofunction", "green_normal_derivative", "horosphere_contains", "k_region_contains",
    "boundary_distance_asymptotic",
    "HessianSample", "VerificationReport", "complex_hessian", "phragmen_lindelof_compare",
    "laplacian_1d", "laplacian_noise_floor",
    "BoundaryQuadrature", "boundary_form_density", "build_quadrature",
    "reproduce_pluriharmonic", "calibrate_quadrature",
    "MapUnderTest", "map_from_spec", "dilation", "normalized_dilation", "julia_checks",
    "omega_preserving_residual", "gamma_lambda", "special_curve_limit",
    "SUITES", "run_suite",
    "__version__",
]
