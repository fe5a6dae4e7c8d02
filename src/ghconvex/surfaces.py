"""Barrier surface families and the lift of their Euclidean data.

Each family provides a chart, a Euclidean orthonormal frame {u, v, nu} with
nu = u x v the inward unit normal, the Euclidean second fundamental form of
the surface in the (u, v) basis with respect to nu, and its trace.

``lifted_sff_batch`` turns that Euclidean data plus the jet of phi into the
second fundamental form of the circle-invariant hypersurface upstairs,
expressed in the g-orthonormal basis (phi^-1/2 u, phi^-1/2 v, phi^1/2 xi)
with respect to the g-unit normal nu~ = phi^-1/2 nu:

    S_uu = phi^-1/2 ( Gem(u,u) - (2 phi)^-1 <grad phi, nu> )
    S_vv = phi^-1/2 ( Gem(v,v) - (2 phi)^-1 <grad phi, nu> )
    S_uv = phi^-1/2   Gem(u,v)
    S_xx = phi^-1/2 (2 phi)^-1 <grad phi, nu>
    S_ux = -phi^-1/2 (2 phi)^-1 <u x grad phi, nu>
    S_vx = -phi^-1/2 (2 phi)^-1 <v x grad phi, nu>

and the trace of S is the lifted mean curvature coefficient
h = phi^-1/2 (mean_r3 - (2 phi)^-1 <grad phi, nu>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ChartDomainError, InvalidParams, NoConvergence, SolverFailure
from .potential import PointConfiguration, _unit, _vec3, phi_jet_batch
from .rootfind import bisect_newton

__all__ = [
    "Sphere",
    "Cylinder",
    "Plane",
    "TwoFociEllipsoid",
    "MultiFociEllipsoid",
    "BarrierSurface",
    "SurfacePointData",
    "AdaptedSFF",
    "surface_point",
    "surface_data_batch",
    "lifted_sff",
    "lifted_sff_batch",
    "lifted_mean_curvature",
    "parse_surface",
    "chart_domain",
]

TWO_PI = 2.0 * math.pi

# residual |F - L| / L every row solved by multi-foci shooting must meet
MULTIFOCI_RTOL = 1e-12


def _orthobasis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (t1, t2) with t1 x t2 = n for a unit vector n of shape
    (3,) or (N, 3), one frame per row; t1 is normal to n and to the
    coordinate axis least aligned with n."""
    h = np.zeros_like(n)
    np.put_along_axis(h, np.argmin(np.abs(n), axis=-1)[..., None], 1.0, axis=-1)
    t1 = np.cross(h, n)
    # the matmul norm takes the dot product's bits, one row or many
    t1 /= np.sqrt(t1[..., None, :] @ t1[..., :, None])[..., 0]
    return t1, np.cross(n, t1)


@dataclass(frozen=True)
class Sphere:
    """Euclidean sphere |x - centre| = radius; inward normal -(x-centre)/r.

    Chart params (azimuth in [0, 2pi], polar in (0, pi))."""

    radius: float
    centre: Sequence[float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidParams(f"sphere radius must be > 0, got {self.radius}")
        c = _vec3(self.centre, "sphere centre")
        c.setflags(write=False)
        object.__setattr__(self, "centre", c)


@dataclass(frozen=True)
class Cylinder:
    """Infinite cylinder of given radius about a general axis.

    Chart params (axial t in [-span, span], angle in [0, 2pi]); the span
    bound exists only to give scans a compact parameter box."""

    radius: float
    axis_point: Sequence[float] = (0.0, 0.0, 0.0)
    axis_direction: Sequence[float] = (0.0, 0.0, 1.0)
    span: float = 10.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidParams(f"cylinder radius must be > 0, got {self.radius}")
        if not (np.isfinite(self.span) and self.span > 0):
            raise InvalidParams("cylinder span must be > 0")
        p = _vec3(self.axis_point, "axis point")
        w = _unit(self.axis_direction, "axis direction")
        b1, b2 = _orthobasis(w)
        for name, val in (("axis_point", p), ("axis_direction", w), ("_b1", b1), ("_b2", b2)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class Plane:
    """Plane <x, normal> = offset; nu = normal (callers orient it away from
    the centres).  Chart params in [-span, span]^2."""

    normal: Sequence[float]
    offset: float
    span: float = 10.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.offset):
            raise InvalidParams("plane offset must be finite")
        if not (np.isfinite(self.span) and self.span > 0):
            raise InvalidParams("plane span must be > 0")
        n = _unit(self.normal, "plane normal")
        t1, t2 = _orthobasis(n)
        for name, val in (("normal", n), ("_t1", t1), ("_t2", t2)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class TwoFociEllipsoid:
    """Confocal ellipsoid |x - p+| + |x - p-| = 2a cosh(r), foci (0,0,+-a).

    Chart (alpha in [0, 2pi], beta in (0, pi)):
        x = (a sinh r sin b cos al, a sinh r sin b sin al, a cosh r cos b).
    """

    a: float
    r: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and self.a > 0):
            raise InvalidParams(f"focus half-distance a must be > 0, got {self.a}")
        if not (np.isfinite(self.r) and self.r > 0):
            raise InvalidParams(f"ellipsoid parameter r must be > 0, got {self.r}")


@dataclass(frozen=True)
class MultiFociEllipsoid:
    """Level set sum_i |x - p_i| = L around n >= 2 foci.

    No closed chart exists for >= 3 foci; points are found by shooting rays
    from the foci centroid and solving F(centroid + t d) = L by bracketed
    Newton; a row missing |F - L| <= MULTIFOCI_RTOL * L raises
    SolverFailure.  Chart params are the direction angles (azimuth in [0, 2pi],
    polar in (0, pi)).
    """

    foci: Sequence[Sequence[float]]
    level: float

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.foci, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise InvalidParams("foci must be an (n >= 2, 3) array")
        if not np.all(np.isfinite(pts)):
            raise InvalidParams("foci must be finite")
        if not np.isfinite(self.level):
            raise InvalidParams("level must be finite")
        diffs = pts[:, None, :] - pts[None, :, :]
        maxpair = float(np.sqrt((diffs ** 2).sum(axis=2)).max())
        # necessary for a nonempty smooth level set: F >= max pairwise
        # distance everywhere, with equality only on focal segments
        if self.level <= maxpair:
            raise InvalidParams(
                f"level {self.level} <= largest pairwise focus distance {maxpair}: empty or degenerate"
            )
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "foci", pts)

    @property
    def centroid(self) -> np.ndarray:
        return self.foci.mean(axis=0)


BarrierSurface = Union[Sphere, Cylinder, Plane, TwoFociEllipsoid, MultiFociEllipsoid]


@dataclass(frozen=True)
class SurfacePointData:
    """Euclidean differential data of one surface point.

    x on the surface; {u, v, nu} orthonormal with nu = u x v the inward
    normal; sff_r3 the 2x2 second fundamental form in the (u, v) basis with
    respect to nu; mean_r3 its trace.
    """

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    nu: np.ndarray
    sff_r3: np.ndarray
    mean_r3: float


@dataclass(frozen=True)
class AdaptedSFF:
    """Lifted second fundamental form in the basis (phi^-1/2 u, phi^-1/2 v,
    phi^1/2 xi), with respect to the g-unit inward normal phi^-1/2 nu."""

    matrix: np.ndarray


def chart_domain(surface: BarrierSurface) -> tuple[tuple[float, float], tuple[float, float]]:
    """((lo0, hi0), (lo1, hi1)) parameter box of the family's chart.

    Open at polar-angle endpoints (coordinate degeneracy, not a surface
    feature); scans sample strictly inside.
    """
    if isinstance(surface, Sphere):
        return ((0.0, TWO_PI), (0.0, math.pi))
    if isinstance(surface, Cylinder):
        return ((-surface.span, surface.span), (0.0, TWO_PI))
    if isinstance(surface, Plane):
        return ((-surface.span, surface.span), (-surface.span, surface.span))
    if isinstance(surface, TwoFociEllipsoid):
        return ((0.0, TWO_PI), (0.0, math.pi))
    if isinstance(surface, MultiFociEllipsoid):
        return ((0.0, TWO_PI), (0.0, math.pi))
    raise InvalidParams(f"unknown surface family {type(surface).__name__}")


def _check_params(surface: BarrierSurface, P: np.ndarray) -> None:
    (lo0, hi0), (lo1, hi1) = chart_domain(surface)
    p0, p1 = P[:, 0], P[:, 1]
    if not np.all(np.isfinite(P)):
        raise ChartDomainError("chart parameters must be finite")
    if np.any(p0 < lo0) or np.any(p0 > hi0) or np.any(p1 < lo1) or np.any(p1 > hi1):
        raise ChartDomainError("chart parameters outside domain box")
    open_polar = isinstance(surface, (Sphere, TwoFociEllipsoid, MultiFociEllipsoid))
    if open_polar and (np.any(p1 <= 0.0) or np.any(p1 >= math.pi)):
        raise ChartDomainError("polar angle must lie strictly inside (0, pi)")


def _multifoci_solve(surface: MultiFociEllipsoid, D: np.ndarray) -> np.ndarray:
    """Distances t with F(centroid + t * D_row) = level, one per direction row.
    F is convex along each ray, so Newton from the upper end of the bracket
    falls monotonically to the one crossing."""
    base = surface.centroid
    pts = surface.foci
    L = surface.level

    def fdf(ts: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = D[rows]
        diff = (base + ts[:, None] * d)[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        # dF/dt = <grad F, d>, grad F the sum of the unit vectors from the foci
        return dist.sum(axis=1) - L, np.einsum("nkj,nj->n", diff / dist[:, :, None], d)

    f0 = float(np.linalg.norm(base - pts, axis=1).sum())
    if f0 >= L:
        raise SolverFailure(
            f"F(centroid) = {f0:.6g} >= level {L:.6g}: centroid shooting cannot reach the level set"
        )
    # triangle inequality: F(base + t d) >= n_foci * t - F(base), so this
    # upper end is guaranteed to bracket
    hi = (L + 2.0 * f0) / pts.shape[0] + 1.0
    try:
        t = bisect_newton(fdf, np.zeros(D.shape[0]), hi)
    except NoConvergence as exc:
        raise SolverFailure(f"multi-foci shooting: {exc}") from exc
    if not np.all(np.isfinite(t)):
        raise SolverFailure("multi-foci shooting produced non-finite distances")
    return t


def _multifoci_data(surface: MultiFociEllipsoid, P: np.ndarray):
    th, pol = P[:, 0], P[:, 1]
    sp = np.sin(pol)
    D = np.stack([sp * np.cos(th), sp * np.sin(th), np.cos(pol)], axis=1)
    t = _multifoci_solve(surface, D)
    X = surface.centroid[None, :] + t[:, None] * D
    pts = surface.foci
    diff = X[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    L = surface.level
    failing = int(np.count_nonzero(np.abs(dist.sum(axis=1) - L) > MULTIFOCI_RTOL * L))
    if failing:
        raise SolverFailure(
            f"multi-foci shooting missed |F - L| <= {MULTIFOCI_RTOL:g} L on {failing} of {P.shape[0]} rows"
        )
    unit = diff / dist[:, :, None]
    gradF = unit.sum(axis=1)
    gn = np.linalg.norm(gradF, axis=1)
    if np.any(gn < 1e-12):
        raise SolverFailure("level set is singular (grad F = 0) at a solved point")
    nu = -gradF / gn[:, None]              # inward: toward decreasing F
    # Hess F = sum_i (I - d_i d_i^T)/|x - p_i|
    eye = np.eye(3)[None, :, :]
    hess = ((eye - np.einsum("nki,nkj->nkij", unit, unit)) / dist[:, :, None, None]).sum(axis=1)
    T = np.stack(_orthobasis(nu), axis=1)  # rows u, v
    # shape operator w.r.t. inward nu: Hess F / |grad F| on the tangent plane
    sff = T @ (hess / gn[:, None, None]) @ T.transpose(0, 2, 1)
    sff[:, 1, 0] = sff[:, 0, 1]  # exactly symmetric, as the closed-form families
    return X, T[:, 0], T[:, 1], nu, sff, sff[:, 0, 0] + sff[:, 1, 1]


def surface_data_batch(surface: BarrierSurface, params: np.ndarray):
    """Vectorized surface_point: returns (X, U, V, NU, SFF, MEAN) arrays
    of shapes (N,3)x4, (N,2,2), (N,)."""
    P = np.atleast_2d(np.asarray(params, dtype=float))
    if P.ndim != 2 or P.shape[1] != 2:
        raise InvalidParams(f"params must have shape (N, 2), got {P.shape}")
    _check_params(surface, P)
    n = P.shape[0]

    if isinstance(surface, Sphere):
        az, pol = P[:, 0], P[:, 1]
        sa, ca = np.sin(az), np.cos(az)
        sp, cp = np.sin(pol), np.cos(pol)
        er = np.stack([sp * ca, sp * sa, cp], axis=1)
        X = surface.centre[None, :] + surface.radius * er
        u = np.stack([-sa, ca, np.zeros(n)], axis=1)          # azimuthal
        v = np.stack([cp * ca, cp * sa, -sp], axis=1)          # polar
        nu = -er
        sff = np.broadcast_to(np.eye(2) / surface.radius, (n, 2, 2)).copy()
        mean = np.full(n, 2.0 / surface.radius)
        return X, u, v, nu, sff, mean

    if isinstance(surface, Cylinder):
        t, ang = P[:, 0], P[:, 1]
        b1, b2, w = surface._b1, surface._b2, surface.axis_direction
        ca, sa = np.cos(ang), np.sin(ang)
        rho = ca[:, None] * b1 + sa[:, None] * b2              # outward radial
        X = surface.axis_point[None, :] + surface.radius * rho + t[:, None] * w
        u = np.broadcast_to(w, (n, 3)).copy()                   # axial
        v = -sa[:, None] * b1 + ca[:, None] * b2                # azimuthal
        nu = -rho
        sff = np.zeros((n, 2, 2))
        sff[:, 1, 1] = 1.0 / surface.radius
        mean = np.full(n, 1.0 / surface.radius)
        return X, u, v, nu, sff, mean

    if isinstance(surface, Plane):
        s, t = P[:, 0], P[:, 1]
        X = surface.offset * surface.normal[None, :] + s[:, None] * surface._t1 + t[:, None] * surface._t2
        u = np.broadcast_to(surface._t1, (n, 3)).copy()
        v = np.broadcast_to(surface._t2, (n, 3)).copy()
        nu = np.broadcast_to(surface.normal, (n, 3)).copy()
        sff = np.zeros((n, 2, 2))
        mean = np.zeros(n)
        return X, u, v, nu, sff, mean

    if isinstance(surface, TwoFociEllipsoid):
        a, r = surface.a, surface.r
        al, be = P[:, 0], P[:, 1]
        sal, cal = np.sin(al), np.cos(al)
        sb, cb = np.sin(be), np.cos(be)
        sh, ch = math.sinh(r), math.cosh(r)
        X = np.stack([a * sh * sb * cal, a * sh * sb * sal, a * ch * cb], axis=1)
        A = np.sqrt(ch * ch - cb * cb)
        u = np.stack([-sal, cal, np.zeros(n)], axis=1)
        v = np.stack([sh * cb * cal, sh * cb * sal, -ch * sb], axis=1) / A[:, None]
        nu = -np.stack([ch * sb * cal, ch * sb * sal, sh * cb], axis=1) / A[:, None]
        sff = np.zeros((n, 2, 2))
        sff[:, 0, 0] = ch / (a * A * sh)
        sff[:, 1, 1] = sh * ch / (a * A ** 3)
        mean = sff[:, 0, 0] + sff[:, 1, 1]
        return X, u, v, nu, sff, mean

    return _multifoci_data(surface, P)


def surface_point(surface: BarrierSurface, params: Sequence[float]) -> SurfacePointData:
    """Point data at one chart parameter pair.

    Raises
    ------
    ChartDomainError
        Parameters outside the family's chart box (or at a polar-angle
        degeneracy).
    SolverFailure
        Multi-foci level equation not solvable from the centroid.
    """
    p = np.asarray(params, dtype=float)
    if p.shape != (2,):
        raise InvalidParams(f"params must be a 2-vector, got shape {p.shape}")
    X, U, V, NU, SFF, MEAN = surface_data_batch(surface, p[None, :])
    return SurfacePointData(X[0], U[0], V[0], NU[0], SFF[0], float(MEAN[0]))


def lifted_sff(config: PointConfiguration, data: SurfacePointData) -> AdaptedSFF:
    """Second fundamental form of the circle-invariant hypersurface at one
    point: ``lifted_sff_batch`` on a single row."""
    rows = (np.asarray(a, dtype=float)[None] for a in (data.x, data.u, data.v, data.nu, data.sff_r3))
    return AdaptedSFF(lifted_sff_batch(config, *rows)[0])


def lifted_sff_batch(
    config: PointConfiguration,
    X: np.ndarray,
    U: np.ndarray,
    V: np.ndarray,
    NU: np.ndarray,
    SFF: np.ndarray,
    jet: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """(N, 3, 3) lifted forms; uses <u x grad, nu> = <grad, v> and
    <v x grad, nu> = -<grad, u> for the right-handed frame.  ``jet`` passes
    (phi, grad phi) at X from a pass that already excluded the centres."""
    vals, grads = jet if jet is not None else phi_jet_batch(config, X, 1)[:2]
    f = vals ** -0.5
    q = 0.5 / vals
    gu = np.einsum("nj,nj->n", grads, U)
    gv = np.einsum("nj,nj->n", grads, V)
    gn = np.einsum("nj,nj->n", grads, NU)
    S = np.empty((X.shape[0], 3, 3))
    S[:, 0, 0] = f * (SFF[:, 0, 0] - q * gn)
    S[:, 1, 1] = f * (SFF[:, 1, 1] - q * gn)
    S[:, 0, 1] = S[:, 1, 0] = f * SFF[:, 0, 1]
    S[:, 2, 2] = f * q * gn
    S[:, 0, 2] = S[:, 2, 0] = -f * q * gv
    S[:, 1, 2] = S[:, 2, 1] = f * q * gu
    return S


def lifted_mean_curvature(config: PointConfiguration, data: SurfacePointData) -> float:
    """Coefficient h with mean curvature vector H = h * (phi^-1/2 nu): the
    trace of the lifted form."""
    return float(np.trace(lifted_sff(config, data).matrix))


# --- JSON surface specifications ------------------------------------------

def parse_surface(data: dict) -> BarrierSurface:
    """Build a surface from {"family": ..., family-specific fields}.

    Families: "sphere" (r, centre), "cylinder" (r, point, axis, span),
    "plane" (normal, offset, span), "ellipsoid2" (a, r),
    "ellipsoidN" (foci, level).
    """
    if not isinstance(data, dict) or "family" not in data:
        raise InvalidParams('surface spec must be an object with a "family" key')
    fam = data["family"]
    rest = {k: v for k, v in data.items() if k != "family"}

    def take(key, default=None, required=False):
        if required and key not in rest:
            raise InvalidParams(f'surface family "{fam}" requires "{key}"')
        return rest.pop(key, default)

    if fam == "sphere":
        r = take("r", required=True)
        centre = take("centre", (0.0, 0.0, 0.0))
        out: BarrierSurface = Sphere(float(r), centre)
    elif fam == "cylinder":
        r = take("r", required=True)
        point = take("point", (0.0, 0.0, 0.0))
        axis = take("axis", (0.0, 0.0, 1.0))
        span = float(take("span", 10.0))
        out = Cylinder(float(r), point, axis, span)
    elif fam == "plane":
        normal = take("normal", required=True)
        offset = take("offset", required=True)
        span = float(take("span", 10.0))
        out = Plane(normal, float(offset), span)
    elif fam == "ellipsoid2":
        a = take("a", required=True)
        r = take("r", required=True)
        out = TwoFociEllipsoid(float(a), float(r))
    elif fam == "ellipsoidN":
        foci = take("foci", required=True)
        level = take("level", required=True)
        out = MultiFociEllipsoid(foci, float(level))
    else:
        raise InvalidParams(f'unknown surface family "{fam}"')
    if rest:
        raise InvalidParams(f'unknown keys for family "{fam}": {sorted(rest)}')
    return out
