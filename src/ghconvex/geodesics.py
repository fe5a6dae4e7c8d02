"""Circle-invariant closed geodesics: fibres over critical points of phi.

A critical point p of phi (necessarily a saddle: phi is harmonic, so its
Hessian is traceless) carries a closed geodesic of length 2 pi / sqrt(phi(p))
in the total space, and all critical points lie in the convex hull of the
centres.  The finder runs damped Newton on grad phi from pairwise midpoints,
triple centroids and random hull samples, then keeps one point per cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import InvalidIndex
from .potential import PointConfiguration, _count, jet

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
MERGE_SCALE = 1e-6     # clusters spread beyond this times diameter are non-isolated
CLUSTER_SCALE = 1e-3   # points within this times diameter share one representative


@dataclass(frozen=True)
class SeedStrategy:
    """Newton seeding plan: structural seeds plus random hull samples, their
    count and seed as Python ints."""

    midpoints: bool = True
    centroids: bool = True
    random: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "random", _count(self.random, 0, "random seed count"))
        object.__setattr__(self, "seed", _count(self.seed, 0, "seed"))


@dataclass(frozen=True)
class CriticalPoint:
    """A zero of grad phi.

    residual is |grad phi| at x; length the geodesic length 2 pi/sqrt(phi);
    hessian_signature the (negative, zero, positive) inertia of Hess phi,
    zero meaning within 1e-8 sum_i c_i/|x - p_i|^3 or more; isolated is False
    when x stands for Newton limits spread beyond MERGE_SCALE times the
    diameter (a degenerate zero, a critical curve, or nearby zeros).
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
    # imported here, not at module level: it takes longer to load than the
    # rest of ghconvex, and only hull tests need it
    from scipy.optimize import linprog

    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    k = P.shape[0]
    if k == 0:
        return False
    # variables: lambda_1..k, t;  minimize t
    c = np.zeros(k + 1)
    c[-1] = 1.0
    # +-(lambda @ P - x) <= t, coordinate by coordinate
    A_ub = np.hstack([np.vstack([P.T, -P.T]), -np.ones((6, 1))])
    b_ub = np.concatenate([x, -x])
    A_eq = np.append(np.ones(k), 0.0)[None, :]
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
    """Damped Newton on grad phi from each seed; returns converged points.

    Each iteration backtracks over the fixed ladder alpha = 2^-j, j = 0..19,
    and takes the first alpha that lowers a row's residual (simple
    decrease): the full steps in one kernel call, then the 19 shorter steps
    of the rows the full step did not improve in a second.
    """
    delta = config.exclusion_radius
    centre_mid = config.points.mean(axis=0)
    bound = 10.0 * (1.0 + config.diameter)
    X = np.array(seeds, dtype=float)
    active = config.min_centre_distance(X) > delta
    done: list[np.ndarray] = []
    ladder = np.ldexp(1.0, -np.arange(1, 20))[:, None, None]

    def residuals(pts: np.ndarray) -> np.ndarray:
        # non-finite rows fail the bound test (inf or nan distance)
        dmin, _, _, grads, _ = _jet(config, pts, 1)
        ok = (dmin > delta) & (np.linalg.norm(pts - centre_mid, axis=1) < bound)
        return np.where(ok, np.linalg.norm(grads, axis=1), np.inf)

    for _ in range(80):
        if not np.any(active):
            break
        alive = np.nonzero(active)[0]
        pts = X[alive]
        _, scale, _, grads, hesss = _jet(config, pts, 2)
        res = np.linalg.norm(grads, axis=1)
        conv = res <= 1e-12 * scale
        if np.any(conv):
            done.append(pts[conv])
            active[alive[conv]] = False
            alive, pts, grads, hesss, res = (a[~conv] for a in (alive, pts, grads, hesss, res))
            if not alive.size:
                continue
        try:
            steps = np.linalg.solve(hesss, -grads[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            steps = np.stack(
                [np.linalg.lstsq(H, -g, rcond=None)[0] for H, g in zip(hesss, grads)]
            )
        trial = pts + steps
        improved = residuals(trial) < res
        retry = np.nonzero(~improved)[0]
        if retry.size:
            cand = pts[retry] + ladder * steps[retry]          # (19, rows, 3)
            better = residuals(cand.reshape(-1, 3)).reshape(len(ladder), -1) < res[retry]
            hit = better.any(axis=0)
            trial[retry[hit]] = cand[better.argmax(axis=0)[hit], hit]
            improved[retry[hit]] = True
        X[alive] = trial
        # seeds that cannot decrease the residual any more are dropped (none
        # of them is converged: those left the batch above)
        active[alive[~improved]] = False
    return np.vstack([np.zeros((0, 3)), *done])


def find_critical_points(
    config: PointConfiguration, seeds: SeedStrategy = SeedStrategy()
) -> list[CriticalPoint]:
    """Newton-converged zeros of grad phi, one per cluster.

    Seeds: all pairwise midpoints, all triple centroids, plus random convex
    combinations of the centres.  Per-seed convergence failures are dropped
    silently; reported points satisfy |grad phi| <= 1e-10 * scale.  Each
    reported point is the least-residual Newton limit of its cluster, and
    the output is sorted lexicographically by coordinates for determinism.
    """
    k = config.k
    if k <= 1:
        return []
    pts = config.points
    seed_list = []
    if seeds.midpoints:
        seed_list += [0.5 * (pts[i] + pts[j]) for i, j in combinations(range(k), 2)]
    if seeds.centroids:
        seed_list += [(pts[i] + pts[j] + pts[l]) / 3.0 for i, j, l in combinations(range(k), 3)]
    if seeds.random > 0:
        rng = np.random.default_rng(seeds.seed)
        w = rng.dirichlet(np.ones(k), size=seeds.random)
        seed_list.extend(w @ pts)
    if not seed_list:
        return []
    converged = _newton_batch(config, np.array(seed_list))

    # one order-2 pass: the filter at the contract tolerance, then the
    # values, Hessians and Hessian scales of the representatives it keeps
    dmin, scale, vals, grads, hesss = _jet(config, converged, 2)
    res = np.linalg.norm(grads, axis=1)
    order = np.lexsort((converged[:, 2], converged[:, 1], converged[:, 0]))
    order = order[res[order] <= RESIDUAL_TOL * scale[order]]

    # one lexicographic pass: each point joins the first representative
    # within cluster_tol and replaces it if its residual is lower; one that
    # takes in a point farther than merge_tol stands for a cluster
    merge_tol = MERGE_SCALE * max(config.diameter, 1e-30)
    cluster_tol = CLUSTER_SCALE * max(config.diameter, 1e-30)
    reps: list[int] = []
    rep_pts = np.empty((order.size, 3))
    isolated = np.ones(order.size, dtype=bool)
    for idx in order:
        dist = np.linalg.norm(rep_pts[:len(reps)] - converged[idx], axis=1)
        near = np.nonzero(dist < cluster_tol)[0]
        if not near.size:
            rep_pts[len(reps)] = converged[idx]
            reps.append(idx)
            continue
        n = near[0]
        isolated[n] &= dist[n] < merge_tol
        if res[idx] < res[reps[n]]:
            rep_pts[n] = converged[idx]
            reps[n] = idx
    ranks = sorted(range(len(reps)), key=lambda n: tuple(rep_pts[n]))
    reps = [reps[n] for n in ranks]

    # an eigenvalue is zero against 2 scale / dmin >= sum c_i / |x - p_i|^3,
    # the Hessian's own size, which does not vanish where Hess phi does
    hull_tol = HULL_TOL * (1.0 + config.diameter)
    lam = np.linalg.eigvalsh(hesss[reps])
    zero_tol = (2e-8 * scale[reps] / dmin[reps])[:, None]
    sigs = np.stack([lam < -zero_tol, np.abs(lam) <= zero_tol, lam > zero_tol]).sum(axis=2)
    return [
        CriticalPoint(
            x=converged[r].copy(),
            residual=float(np.linalg.norm(grads[r])),
            length=2.0 * math.pi / math.sqrt(float(vals[r])),
            in_hull=in_convex_hull(config.points, converged[r], hull_tol),
            hessian_signature=tuple(int(c) for c in sig),
            isolated=bool(isolated[n]),
        )
        for n, r, sig in zip(ranks, reps, sigs.T)
    ]


def invariant_surface_area(config: PointConfiguration, i: int, j: int) -> float:
    """Area 2 pi |p_i - p_j| of the invariant surface over the segment."""
    k = config.k
    if not (0 <= i < k) or not (0 <= j < k):
        raise InvalidIndex(f"centre indices must be in [0, {k}), got {i}, {j}")
    if i == j:
        raise InvalidIndex("indices must differ")
    return 2.0 * math.pi * float(np.linalg.norm(config.points[i] - config.points[j]))
