"""Convexity, stability and geodesic diagnostics for multi-centre
Gibbons-Hawking geometries.

The metric upstairs is g = phi^-1 eta^2 + phi g_R3 with
phi = m + sum_i c_i/(2|x - p_i|).  This package evaluates the jet of phi,
lifted second fundamental forms of barrier surface families, k-convexity
scans, closed-form barrier margins with their threshold constants,
Gaussian curvature / strong stability of invariant surfaces over segments,
and invariant closed geodesics.
"""

from .errors import (
    ChartDomainError,
    EmptyConfiguration,
    GHConvexError,
    InvalidIndex,
    InvalidK,
    InvalidParams,
    NoConvergence,
    NonFiniteEigensum,
    NonFiniteReport,
    NotSymmetric,
    OnAxis,
    SingularPoint,
    SolverFailure,
    TooFewSamples,
)
from .potential import (
    PointConfiguration,
    PotentialJet,
    jet,
    load_config,
    make_config,
    parse_config,
    phi_jet,
    phi_jet_batch,
)
from .surfaces import (
    AdaptedSFF,
    BarrierSurface,
    Cylinder,
    MultiFociEllipsoid,
    Plane,
    Sphere,
    SurfacePointData,
    TwoFociEllipsoid,
    chart_domain,
    lifted_sff,
    lifted_sff_batch,
    parse_surface,
    surface_data_batch,
    surface_point,
)
from .convexity import (
    ConvexityReport,
    ScanSampling,
    convexity_scan,
    eigvals3_batch,
    k_smallest_eigensum,
)
from .barriers import (
    Codim2Curve,
    MarginCurve,
    codim2_margin_curve,
    codim2_threshold,
    constant_C,
    constant_Rk,
    constants_Rk,
    cylinder_hyp_margin_batch,
    cylinder_margin_curve,
    cylinder_threshold,
    ellipsoid_inequalities,
    plane_hyp_margin_batch,
    plane_margin_curve,
    sphere_codim2_margins_batch,
    sphere_hyp_margin_batch,
    sphere_margin_curve,
    sphere_threshold,
)
from .rootfind import bisect_newton
from .stability import (
    SegmentSurface,
    counterexample_closed_form,
    counterexample_config,
    gaussian_curvature_direct_batch,
    mn_decomposition_batch,
    strong_stability_scan,
    sufficient_condition,
)
from .geodesics import (
    CriticalPoint,
    SeedStrategy,
    find_critical_points,
    gradient_scale,
    in_convex_hull,
    invariant_surface_area,
)

__version__ = "0.1.0"
