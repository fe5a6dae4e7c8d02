"""Closed-form barrier margins and the named threshold constants.

Each barrier lemma reduces a convexity claim to a scalar inequality in the
jet of phi; these functions return those scalars raw (no clamping), so
margin curves can be studied across their thresholds:

    sphere (3-convexity):    <grad phi, x> + 4 phi > 0
    cylinder (3-convexity):  <grad phi, nu_out> + 2 phi / r > 0
    plane (3-convexity):     -<grad phi, direction> > 0
    sphere (full convexity): <grad phi, x> + 2 phi > 0   and
                             |grad phi|^2 + 2 phi <grad phi, x>/|x|^2 < 0

The critical radii are 4/3 max|p_i| (sphere), 2 max r_i (cylinder) and
C max|p_i| (full convexity), C the root of -x^3 + 4x^2 + 5x + 2 near 5.07.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidK, InvalidParams, OnAxis
from .potential import PointConfiguration, _count, _unit, _vec3, phi_jet_batch
from .rootfind import bisect_newton
from .surfaces import _orthobasis

__all__ = [
    "MarginCurve",
    "Codim2Curve",
    "sphere_hyp_margin_batch",
    "cylinder_hyp_margin_batch",
    "plane_hyp_margin_batch",
    "sphere_codim2_margins_batch",
    "ellipsoid_inequalities",
    "constant_C",
    "constant_Rk",
    "constants_Rk",
    "sphere_threshold",
    "cylinder_threshold",
    "codim2_threshold",
    "sphere_margin_curve",
    "cylinder_margin_curve",
    "plane_margin_curve",
    "codim2_margin_curve",
]


@dataclass(frozen=True)
class MarginCurve:
    """One swept radius/level: the worst margin found and where."""

    parameter: float
    margin: float
    threshold: float
    argmin: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Codim2Curve:
    """Full-convexity sweep row: both scalars must have their sign."""

    parameter: float
    min_minor1: float
    max_det_aux: float
    threshold: float


# largest coordinate magnitude a margin accepts: |x|^2 stays finite below it
_MAX_COORD = math.sqrt(np.finfo(float).max / 3.0)


def _as_points(xs) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != 3:
        raise InvalidParams(f"points must have shape (N, 3), got {xs.shape}")
    if not np.all(np.abs(xs) < _MAX_COORD):
        raise InvalidParams(f"point coordinates must be finite and below {_MAX_COORD:.3g} in magnitude")
    return xs


def sphere_hyp_margin_batch(config: PointConfiguration, xs) -> np.ndarray:
    """<grad phi, x> + 4 phi per row; positive iff the origin-centred sphere
    through x is strictly 3-convex there (inward orientation)."""
    xs = _as_points(xs)
    if np.any((xs ** 2).sum(axis=1) == 0.0):
        raise InvalidParams("points must be nonzero: the sphere through x has centre 0 and radius |x|")
    vals, grads, _ = phi_jet_batch(config, xs, 1)
    return np.einsum("nj,nj->n", grads, xs) + 4.0 * vals


def _axis_frame(axis) -> tuple[np.ndarray, np.ndarray]:
    point, direction = axis
    return _vec3(point, "axis point"), _unit(direction, "axis direction")


def _radial(xs: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """(xs - q, its part normal to the axis (q, w)) per row."""
    q, w = _axis_frame(axis)
    rel = xs - q
    return rel, rel - np.einsum("nj,j->n", rel, w)[:, None] * w


def cylinder_hyp_margin_batch(config: PointConfiguration, xs, axis=((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))) -> np.ndarray:
    """<grad phi, nu_out> + 2 phi / r per row, r the distance from x to the
    axis and nu_out the outward radial unit vector."""
    xs = _as_points(xs)
    rel, rho = _radial(xs, axis)
    r = np.linalg.norm(rho, axis=1)
    if np.any(r <= 1e-12 * (1.0 + np.linalg.norm(rel, axis=1))):
        raise OnAxis("point lies on the cylinder axis")
    nu_out = rho / r[:, None]
    vals, grads, _ = phi_jet_batch(config, xs, 1)
    return np.einsum("nj,nj->n", grads, nu_out) + 2.0 * vals / r


def plane_hyp_margin_batch(config: PointConfiguration, xs, direction) -> np.ndarray:
    """-<grad phi, direction> per row; positive when the plane is strictly
    3-convex toward the half-space on direction's side (the centre-free one)."""
    xs = _as_points(xs)
    d = _unit(direction, "direction")
    _, grads, _ = phi_jet_batch(config, xs, 1)
    return -grads @ d


def sphere_codim2_margins_batch(config: PointConfiguration, xs) -> tuple[np.ndarray, np.ndarray]:
    """(minor1, det_aux) per row, controlling full convexity of the lifted
    sphere: the form is positive definite at x iff minor1 > 0 and
    det_aux < 0."""
    xs = _as_points(xs)
    r2 = (xs ** 2).sum(axis=1)
    if np.any(r2 == 0.0):
        raise InvalidParams("points must be nonzero: the sphere through x has centre 0 and radius |x|")
    vals, grads, _ = phi_jet_batch(config, xs, 1)
    gx = np.einsum("nj,nj->n", grads, xs)
    minor1 = gx + 2.0 * vals
    det_aux = (grads ** 2).sum(axis=1) + 2.0 * vals * gx / r2
    return minor1, det_aux


def ellipsoid_inequalities(a: float, m: float, r, beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form convexity scalars (E1, E2, E4) of the two-foci ellipsoid.

    Foci (0, 0, +-a), potential m + sum_pm 1/(2|x - p_pm|).  The lifted form
    is positive definite at latitude beta iff E1 > 0, E2 > 0 and E4 > 0,
    with (by axial symmetry, at alpha = 0):

        E1 = 2 phi Gem(u,u) - <grad phi, nu>
        E2 = 2 phi Gem(v,v) - <grad phi, nu>
        E4 = E1 <grad phi, nu> - <grad phi, v>^2

    Evaluated from the chart's analytic entries, which extend to the poles
    beta in {0, pi} where the chart frame itself degenerates.  Accepts
    scalar or array r/beta (broadcast together).
    """
    if not (np.isfinite(a) and a > 0):
        raise InvalidParams(f"a must be > 0, got {a}")
    if not (np.isfinite(m) and m >= 0):
        raise InvalidParams(f"m must be >= 0, got {m}")
    r = np.asarray(r, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(r <= 0):
        raise InvalidParams("r must be > 0")
    if np.any((beta < 0) | (beta > math.pi)):
        raise InvalidParams("beta must lie in [0, pi]")
    sh, ch = np.sinh(r), np.cosh(r)
    sb, cb = np.sin(beta), np.cos(beta)
    A = np.sqrt(ch * ch - cb * cb)
    dp = a * (ch - cb)          # |x - p_+|
    dm = a * (ch + cb)          # |x - p_-|
    phi = m + 0.5 / dp + 0.5 / dm
    gn = sh / (2.0 * A) * (1.0 / dp ** 2 + 1.0 / dm ** 2)
    gv = sb / (2.0 * A) * (1.0 / dm ** 2 - 1.0 / dp ** 2)
    gem_uu = ch / (a * A * sh)
    gem_vv = sh * ch / (a * A ** 3)
    E1 = 2.0 * phi * gem_uu - gn
    E2 = 2.0 * phi * gem_vv - gn
    E4 = E1 * gn - gv ** 2
    return E1, E2, E4


def constant_C() -> float:
    """Unique real root of -x^3 + 4x^2 + 5x + 2 (~= 5.07): spheres of radius
    beyond C max|p_i| lift to fully convex hypersurfaces."""
    p = np.poly1d([-1.0, 4.0, 5.0, 2.0])
    dp = p.deriv()
    return float(bisect_newton(lambda x, rows: (p(x), dp(x)), 5.0, 6.0)[0])


def constant_Rk(k: int) -> float:
    """Root of -4x^3 + 16x^2 + 2x + (k - 2) in [4, 4 + k]: the satellite
    distance ratio entering the strong-stability sufficient condition."""
    return constants_Rk([k])[0]


def constants_Rk(ks) -> list[float]:
    """constant_Rk(k) for each k of ks, in one bisect_newton call: the cubics
    differ only in their constant term."""
    ks = list(ks)
    for k in ks:
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 2:
            raise InvalidK(f"k must be an integer >= 2, got {k!r}")
    kf = np.array(ks, dtype=float)
    tail = kf - 2.0

    def fdf(x, rows):
        # Horner in np.poly1d's order, so each row has the bits of its own call
        return ((-4.0 * x + 16.0) * x + 2.0) * x + tail[rows], (-12.0 * x + 32.0) * x + 2.0

    return bisect_newton(fdf, 4.0, 4.0 + kf).tolist()


def sphere_threshold(config: PointConfiguration) -> float:
    """4/3 max|p_i| (0 with no centres)."""
    if config.k == 0:
        return 0.0
    return 4.0 / 3.0 * float(np.linalg.norm(config.points, axis=1).max())


def cylinder_threshold(config: PointConfiguration, axis=((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))) -> float:
    """2 max r_i, r_i the axial distances of the centres."""
    if config.k == 0:
        return 0.0
    return 2.0 * float(np.linalg.norm(_radial(config.points, axis)[1], axis=1).max())


def codim2_threshold(config: PointConfiguration) -> float:
    """C max|p_i| (0 with no centres)."""
    if config.k == 0:
        return 0.0
    return constant_C() * float(np.linalg.norm(config.points, axis=1).max())


def _directions(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((_count(n, 1, "n_dirs"), 3))
    norms = np.linalg.norm(d, axis=1)
    good = norms > 1e-12
    return d[good] / norms[good, None]


def _sweep(params: Sequence[float], points, margin, thr: float) -> list[MarginCurve]:
    """The worst margin(points(s)) per parameter s, and where."""
    out = []
    for s in params:
        xs = points(float(s))
        m = margin(xs)
        i = int(np.argmin(m))
        out.append(MarginCurve(float(s), float(m[i]), thr, xs[i].copy()))
    return out


def sphere_margin_curve(
    config: PointConfiguration, radii: Sequence[float], n_dirs: int = 512, seed: int = 0
) -> list[MarginCurve]:
    """Worst sphere_hyp_margin_batch over n_dirs random directions, per radius."""
    dirs = _directions(n_dirs, seed)
    return _sweep(radii, lambda r: r * dirs, lambda xs: sphere_hyp_margin_batch(config, xs),
                  sphere_threshold(config))


def cylinder_margin_curve(
    config: PointConfiguration,
    radii: Sequence[float],
    axis=((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    n_samples: int = 512,
    seed: int = 0,
) -> list[MarginCurve]:
    """Worst cylinder margin over random (angle, axial offset) samples, the
    offsets within 2 (1 + diameter) of the axis point."""
    q, w = _axis_frame(axis)
    thr = cylinder_threshold(config, axis)
    span = 2.0 * (1.0 + config.diameter)
    b1, b2 = _orthobasis(w)
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * math.pi, _count(n_samples, 1, "n_samples"))
    ts = rng.uniform(-span, span, n_samples)
    rad = np.cos(ang)[:, None] * b1 + np.sin(ang)[:, None] * b2
    return _sweep(radii, lambda r: q + r * rad + ts[:, None] * w,
                  lambda xs: cylinder_hyp_margin_batch(config, xs, (q, w)), thr)


def plane_margin_curve(
    config: PointConfiguration,
    direction: Sequence[float],
    offsets: Sequence[float],
    n_samples: int = 512,
    seed: int = 0,
) -> list[MarginCurve]:
    """Worst plane margin over random in-plane samples in [-10, 10]^2, per offset.

    The threshold is max_i <p_i, direction>: planes beyond it have all
    centres strictly on the other side.
    """
    d = _unit(direction, "plane direction")
    thr = float((config.points @ d).max()) if config.k else 0.0
    t1, t2 = _orthobasis(d)
    st = np.random.default_rng(seed).uniform(-10.0, 10.0, (_count(n_samples, 1, "n_samples"), 2))
    return _sweep(offsets, lambda off: off * d + st[:, :1] * t1 + st[:, 1:] * t2,
                  lambda xs: plane_hyp_margin_batch(config, xs, d), thr)


def codim2_margin_curve(
    config: PointConfiguration, radii: Sequence[float], n_dirs: int = 512, seed: int = 0
) -> list[Codim2Curve]:
    """Worst-case (min minor1, max det_aux) over random directions."""
    thr = codim2_threshold(config)
    dirs = _directions(n_dirs, seed)
    out = []
    for r in radii:
        xs = float(r) * dirs
        m1, da = sphere_codim2_margins_batch(config, xs)
        out.append(Codim2Curve(float(r), float(m1.min()), float(da.max()), thr))
    return out
