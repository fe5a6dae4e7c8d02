"""Circle-invariant closed geodesics: fibres over critical points of phi.

A critical point p of phi (necessarily a saddle: phi is harmonic, so its
Hessian is traceless) carries a closed geodesic of length 2 pi / sqrt(phi(p))
in the total space, and all critical points lie in the convex hull of the
centres.  The finder runs damped Newton on grad phi from pairwise midpoints,
triple centroids and random hull samples, then merges duplicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .convexity import eigvals3_batch
from .errors import InvalidIndex, InvalidParams
from .potential import PointConfiguration, jet

__all__ = [
    "CriticalPoint",
    "SeedStrategy",
    "find_critical_points",
    "invariant_surface_area",
    "in_convex_hull",
    "gradient_scale",
]

RESIDUAL_TOL = 1e-10   # reported points satisfy |grad phi| <= tol * scale
HULL_TOL = 1e-8        # convex-hull membership slack, times (1 + diameter)
MERGE_SCALE = 1e-6     # duplicates merged within this times diameter
CLUSTER_SCALE = 1e-3   # representatives closer than this are flagged non-isolated


@dataclass(frozen=True)
class SeedStrategy:
    """Newton seeding plan: structural seeds plus random hull samples."""

    midpoints: bool = True
    centroids: bool = True
    random: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class CriticalPoint:
    """A zero of grad phi.

    residual is |grad phi| at x; length the geodesic length 2 pi/sqrt(phi);
    hessian_signature the (negative, zero, positive) inertia of Hess phi;
    isolated is False when another representative sits suspiciously close
    (symmetric configs can have positive-dimensional critical sets).
    """

    x: np.ndarray
    residual: float
    length: float
    in_hull: bool
    hessian_signature: tuple[int, int, int]
    isolated: bool = True

    def to_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "residual": self.residual,
            "length": self.length,
            "in_hull": self.in_hull,
            "hessian_signature": list(self.hessian_signature),
            "isolated": self.isolated,
        }


def gradient_scale(config: PointConfiguration, xs: np.ndarray) -> np.ndarray:
    """Natural size of grad phi contributions: sum_i c_i / (2 |x - p_i|^2).

    Residuals are meaningful relative to this cancellation scale.
    """
    return _jet(config, xs, 0)[1]


def _jet(config: PointConfiguration, xs: np.ndarray, order: int):
    return jet(config.mass, config.points, config.multiplicities, xs, order)


def in_convex_hull(points: np.ndarray, x: Sequence[float], tol: float) -> bool:
    """Is x within tol (sup-norm) of the convex hull of the given points?

    Solved as a small linear program (minimize the sup-norm gap between x
    and a convex combination), which stays robust for degenerate collinear
    or coplanar hulls.  The answer is the gap of the returned weights,
    recomputed: the LP's own optimum may use HiGHS's 1e-7 feasibility slack.
    """
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    k = P.shape[0]
    if k == 0:
        return False
    # variables: lambda_1..k, t;  minimize t
    c = np.zeros(k + 1)
    c[-1] = 1.0
    A_ub = np.zeros((6, k + 1))
    b_ub = np.zeros(6)
    for d in range(3):
        A_ub[d, :k] = P[:, d]
        A_ub[d, -1] = -1.0
        b_ub[d] = x[d]
        A_ub[3 + d, :k] = -P[:, d]
        A_ub[3 + d, -1] = -1.0
        b_ub[3 + d] = -x[d]
    A_eq = np.zeros((1, k + 1))
    A_eq[0, :k] = 1.0
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * k + [(0, None)],
        method="highs",
    )
    if not res.success:
        return False
    lam = np.maximum(res.x[:k], 0.0)
    return bool(np.abs(lam @ P / lam.sum() - x).max() <= tol)


def _newton_batch(config: PointConfiguration, seeds: np.ndarray) -> np.ndarray:
    """Damped Newton on grad phi from each seed; returns converged points."""
    delta = config.exclusion_radius
    centre_mid = config.points.mean(axis=0)
    bound = 10.0 * (1.0 + config.diameter)
    X = np.array(seeds, dtype=float)
    active = config.min_centre_distance(X) > delta
    done: list[np.ndarray] = []

    def residuals(pts: np.ndarray) -> np.ndarray:
        # non-finite rows fail the bound test (inf or nan distance)
        dmin, _, _, grads, _ = _jet(config, pts, 1)
        ok = (dmin > delta) & (np.linalg.norm(pts - centre_mid, axis=1) < bound)
        return np.where(ok, np.linalg.norm(grads, axis=1), np.inf)

    for _ in range(80):
        if not np.any(active):
            break
        pts = X[active]
        _, scale, _, grads, hesss = _jet(config, pts, 2)
        res = np.linalg.norm(grads, axis=1)
        conv = res <= 1e-12 * scale
        if np.any(conv):
            done.append(pts[conv])
            idx = np.nonzero(active)[0]
            active[idx[conv]] = False
            pts, grads, hesss, res = pts[~conv], grads[~conv], hesss[~conv], res[~conv]
            if pts.shape[0] == 0:
                continue
        try:
            steps = np.linalg.solve(hesss, -grads[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            steps = np.stack(
                [np.linalg.lstsq(H, -g, rcond=None)[0] for H, g in zip(hesss, grads)]
            )
        alive = np.nonzero(active)[0]
        alpha = np.ones(pts.shape[0])
        improved = np.zeros(pts.shape[0], dtype=bool)
        trial = pts.copy()
        for _ in range(20):
            need = ~improved
            if not np.any(need):
                break
            cand = pts[need] + alpha[need, None] * steps[need]
            better = residuals(cand) < res[need]
            sel = np.nonzero(need)[0]
            trial[sel[better]] = cand[better]
            improved[sel[better]] = True
            alpha[sel[~better]] *= 0.5
        X[alive] = trial
        # seeds that cannot decrease the residual any more are dropped (none
        # of them is converged: those left the batch above)
        active[alive[~improved]] = False
    if done:
        pts = np.vstack([d for d in done if d.size])
    else:
        pts = np.zeros((0, 3))
    return pts


def find_critical_points(
    config: PointConfiguration, seeds: SeedStrategy = SeedStrategy()
) -> list[CriticalPoint]:
    """Deduplicated Newton-converged zeros of grad phi.

    Seeds: all pairwise midpoints, all triple centroids, plus random convex
    combinations of the centres.  Per-seed convergence failures are dropped
    silently; reported points satisfy |grad phi| <= 1e-10 * scale.  Output
    is sorted lexicographically by coordinates for determinism.
    """
    if seeds.random < 0:
        raise InvalidParams(f"random seed count must be >= 0, got {seeds.random}")
    k = config.k
    if k <= 1:
        return []
    pts = config.points
    seed_list = []
    if seeds.midpoints:
        for i in range(k):
            for j in range(i + 1, k):
                seed_list.append(0.5 * (pts[i] + pts[j]))
    if seeds.centroids and k >= 3:
        for i in range(k):
            for j in range(i + 1, k):
                for l in range(j + 1, k):
                    seed_list.append((pts[i] + pts[j] + pts[l]) / 3.0)
    if seeds.random > 0:
        rng = np.random.default_rng(seeds.seed)
        w = rng.dirichlet(np.ones(k), size=seeds.random)
        seed_list.extend(w @ pts)
    if not seed_list:
        return []
    converged = _newton_batch(config, np.array(seed_list))
    if converged.shape[0] == 0:
        return []

    # final filter at the contract tolerance
    _, scale, _, grads, _ = _jet(config, converged, 1)
    res = np.linalg.norm(grads, axis=1)
    ok = res <= RESIDUAL_TOL * scale
    converged, res = converged[ok], res[ok]
    if converged.shape[0] == 0:
        return []

    # merge duplicates within 1e-6 * diameter, deterministically
    order = np.lexsort((converged[:, 2], converged[:, 1], converged[:, 0]))
    converged, res = converged[order], res[order]
    merge_tol = MERGE_SCALE * max(config.diameter, 1e-30)
    reps: list[int] = []
    for idx in range(converged.shape[0]):
        for r in reps:
            if np.linalg.norm(converged[idx] - converged[r]) < merge_tol:
                if res[idx] < res[r]:
                    reps[reps.index(r)] = idx
                break
        else:
            reps.append(idx)
    reps_pts = converged[sorted(reps, key=lambda t: tuple(converged[t]))]

    hull_tol = HULL_TOL * (1.0 + config.diameter)
    cluster_tol = CLUSTER_SCALE * max(config.diameter, 1e-30)
    _, _, vals, grads, hesss = _jet(config, reps_pts, 2)
    lam = eigvals3_batch(hesss)
    out = []
    for idx in range(reps_pts.shape[0]):
        x = reps_pts[idx]
        zero_tol = 1e-8 * max(float(np.abs(lam[idx]).max()), 1e-300)
        sig = (
            int((lam[idx] < -zero_tol).sum()),
            int((np.abs(lam[idx]) <= zero_tol).sum()),
            int((lam[idx] > zero_tol).sum()),
        )
        near = [
            j for j in range(reps_pts.shape[0])
            if j != idx and np.linalg.norm(reps_pts[j] - x) < cluster_tol
        ]
        out.append(
            CriticalPoint(
                x=x.copy(),
                residual=float(np.linalg.norm(grads[idx])),
                length=2.0 * math.pi / math.sqrt(float(vals[idx])),
                in_hull=in_convex_hull(config.points, x, hull_tol),
                hessian_signature=sig,
                isolated=not near,
            )
        )
    return out


def invariant_surface_area(config: PointConfiguration, i: int, j: int) -> float:
    """Area 2 pi |p_i - p_j| of the invariant surface over the segment."""
    k = config.k
    if not (0 <= i < k) or not (0 <= j < k):
        raise InvalidIndex(f"centre indices must be in [0, {k}), got {i}, {j}")
    if i == j:
        raise InvalidIndex("indices must differ")
    return 2.0 * math.pi * float(np.linalg.norm(config.points[i] - config.points[j]))
