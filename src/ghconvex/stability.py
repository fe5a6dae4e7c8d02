"""Gaussian curvature along segment surfaces and strong stability tests.

A circle-invariant minimal surface sits over the straight segment joining
two multiplicity-1 centres.  After a rigid motion placing the endpoints at
(0, 0, +-a), its Gaussian curvature along the segment is

    K(t) = -d^2/dt^2 (1 / (2 phi))  evaluated on (0, 0, t), |t| < a,

and splits as K = -(M + N) / (2 (a + phit (a^2 - t^2))^3), where phit is the
satellite part of the potential (mass + centres other than the endpoints),

    N = -(2 a^2 + 2 a phit (a^2 - t^2) + 8 a phit t^2),
    M = (I) + (II) + (III) + (IV),
    (I)   =  2 (phit')^2 (a^2 - t^2)^3
    (II)  =  8 a t phit' (a^2 - t^2)
    (III) = -a phit'' (a^2 - t^2)^2
    (IV)  = -phit phit'' (a^2 - t^2)^3

(primes are d/dt along the axis).  Strong stability of the surface is
exactly K > 0 everywhere; the sufficient far-satellite criterion and the
three-centre closed form that defeats it are below.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .barriers import constant_Rk
from .errors import InvalidIndex, InvalidParams, SingularPoint
from .potential import PointConfiguration, jet, make_config
from .surfaces import _orthobasis

__all__ = [
    "SegmentSurface",
    "CurvatureSample",
    "gaussian_curvature_direct_batch",
    "mn_decomposition",
    "mn_decomposition_batch",
    "strong_stability_scan",
    "sufficient_condition",
    "counterexample_closed_form",
    "counterexample_config",
]

# endpoint exclusion: curvature is evaluated for |t| < a - DELTA_SCALE * a,
# and satellites closer than DELTA_SCALE * a to the segment are rejected
DELTA_SCALE = 1e-6


@dataclass(frozen=True)
class SegmentSurface:
    """Segment between centres i and j of config, in the rotated frame.

    Validates that both endpoints have multiplicity 1 and that no other
    centre touches the segment.  Derived attributes: half-length ``a``,
    the rigid motion (rotation, midpoint) with endpoints at (0, 0, +-a),
    the rotated satellite centres and the rotated full centre set.
    """

    config: PointConfiguration
    i: int
    j: int

    def __post_init__(self) -> None:
        k = self.config.k
        if not (0 <= self.i < k) or not (0 <= self.j < k):
            raise InvalidIndex(f"centre indices must be in [0, {k}), got {self.i}, {self.j}")
        if self.i == self.j:
            raise InvalidIndex("segment endpoints must be distinct centres")
        mults = self.config.multiplicities
        if mults[self.i] != 1 or mults[self.j] != 1:
            raise InvalidParams("segment endpoints must have multiplicity 1")
        pi = self.config.points[self.i]
        pj = self.config.points[self.j]
        mid = 0.5 * (pi + pj)
        a = 0.5 * float(np.linalg.norm(pi - pj))
        # rows (t1, t2, d): det +1, and R d = e3
        d = (pi - pj) / (2.0 * a)
        R = np.array([*_orthobasis(d), d])
        others = [l for l in range(k) if l not in (self.i, self.j)]
        sat = (self.config.points[others] - mid) @ R.T
        sat_mult = mults[list(others)]
        if sat.shape[0]:
            rad = np.hypot(sat[:, 0], sat[:, 1])
            axial = np.clip(np.abs(sat[:, 2]), a, None) - a
            seg_dist = np.where(np.abs(sat[:, 2]) <= a, rad, np.hypot(rad, axial))
            if float(seg_dist.min()) <= 1e-9 * a:
                raise InvalidParams("another centre lies on the connecting segment")
            object.__setattr__(self, "_seg_dist", seg_dist)
        else:
            object.__setattr__(self, "_seg_dist", np.zeros(0))
        full = (self.config.points - mid) @ R.T
        for name, val in (
            ("a", a),
            ("rotation", R),
            ("midpoint", mid),
            ("satellites", sat),
            ("satellite_multiplicities", sat_mult),
            ("rotated_points", full),
        ):
            if isinstance(val, np.ndarray):
                val = val.copy()
                val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def delta(self) -> float:
        return DELTA_SCALE * self.a

    def _check_t(self, ts: np.ndarray) -> None:
        if np.any(np.abs(ts) >= self.a - self.delta):
            raise SingularPoint(
                f"|t| must stay below a - delta = {self.a - self.delta:.12g} (endpoints are singular)"
            )


def _axis_points(ts: np.ndarray) -> np.ndarray:
    X = np.zeros((ts.size, 3))
    X[:, 2] = ts
    return X


def gaussian_curvature_direct_batch(seg: SegmentSurface, ts) -> np.ndarray:
    """K(t) = -(1/(2 phi))'' for each t, via the chain rule through the jet:
    K = phi_33/(2 phi^2) - (phi_3)^2/phi^3."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    seg._check_t(ts)
    _, _, vals, grads, hesss = jet(
        seg.config.mass, seg.rotated_points, seg.config.multiplicities, _axis_points(ts)
    )
    return hesss[:, 2, 2] / (2.0 * vals ** 2) - grads[:, 2] ** 2 / vals ** 3


@dataclass(frozen=True)
class CurvatureSample:
    """One curvature evaluation with its M + N split."""

    t: float
    K: float
    M: float
    N: float
    terms: tuple[float, float, float, float]


def mn_decomposition_batch(seg: SegmentSurface, ts):
    """(K, M, N, (I, II, III, IV)) at each t: the split of K through the
    satellite potential phit given in the module docstring."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    seg._check_t(ts)
    a = seg.a
    _, _, vals, grads, hesss = jet(
        seg.config.mass, seg.satellites, seg.satellite_multiplicities, _axis_points(ts)
    )
    pt = vals                 # phi~ on the axis
    dpt = grads[:, 2]
    ddpt = hesss[:, 2, 2]
    w = a * a - ts * ts
    t1 = 2.0 * dpt ** 2 * w ** 3
    t2 = 8.0 * a * ts * dpt * w
    t3 = -a * ddpt * w ** 2
    t4 = -pt * ddpt * w ** 3
    M = t1 + t2 + t3 + t4
    N = -(2.0 * a * a + 2.0 * a * pt * w + 8.0 * a * pt * ts * ts)
    K = -(M + N) / (2.0 * (a + pt * w) ** 3)
    return K, M, N, (t1, t2, t3, t4)


def mn_decomposition(seg: SegmentSurface, t: float) -> CurvatureSample:
    """Curvature at t through the satellite-potential decomposition."""
    K, M, N, terms = mn_decomposition_batch(seg, float(t))
    return CurvatureSample(
        t=float(t),
        K=float(K[0]),
        M=float(M[0]),
        N=float(N[0]),
        terms=tuple(float(x[0]) for x in terms),
    )


def strong_stability_scan(seg: SegmentSurface, n: int = 500) -> tuple[float, float]:
    """(min K, argmin t) over n Chebyshev nodes in (-a + delta, a - delta).

    Chebyshev spacing concentrates samples near the endpoints, where
    satellite influence peaks.  Raises SingularPoint if a satellite sits
    within delta of the segment (the curvature formula degenerates).
    """
    if n < 100:
        raise InvalidParams(f"need n >= 100 samples, got {n}")
    if seg.satellites.shape[0] and float(seg._seg_dist.min()) < seg.delta:
        raise SingularPoint("a centre lies within delta of the segment")
    half = seg.a - seg.delta
    ts = half * np.cos(math.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))
    K = gaussian_curvature_direct_batch(seg, ts)
    i = int(np.argmin(K))
    return float(K[i]), float(ts[i])


def sufficient_condition(seg: SegmentSurface) -> tuple[bool, float, float]:
    """Far-satellite strong-stability test.

    Returns (holds, s, threshold) with s the smallest satellite distance
    from the segment midpoint in units of a, minus 1, and threshold
    max{sqrt((k - 2)/2), R_k}.  holds = (s > threshold) is sufficient for
    min K > 0; failure carries no conclusion.  A multiplicity-c satellite
    counts as c unit charges, so k = 2 + sum of satellite multiplicities.
    With no satellites s is infinite and the test holds vacuously.
    """
    k_eff = 2 + int(seg.satellite_multiplicities.sum())
    threshold = max(math.sqrt((k_eff - 2) / 2.0), constant_Rk(k_eff))
    if seg.satellites.shape[0] == 0:
        return True, math.inf, threshold
    dist = float(np.linalg.norm(seg.satellites, axis=1).min())
    s = dist / seg.a - 1.0
    return s > threshold, s, threshold


def counterexample_closed_form(a, eps, m=0):
    """(M + N)(0) for centres (0, 0, +-a), (0, eps, 0) and mass m:

        -2 a^2 - 2 a^3 m - a^3/eps + a^5/(2 eps^3) + m a^6/(2 eps^3)
        + a^6/(4 eps^4)

    A positive value certifies K < 0 at the segment midpoint, so the
    invariant surface over the segment is not strongly stable.  Exact over
    Fraction/Decimal inputs: no float coercion is performed.
    """
    for name, val in (("a", a), ("eps", eps), ("m", m)):
        if not isinstance(val, numbers.Real):
            raise InvalidParams(f"{name} must be a real number")
        if isinstance(val, float) and not math.isfinite(val):
            raise InvalidParams(f"{name} must be finite")
    if not a > 0:
        raise InvalidParams(f"a must be > 0, got {a}")
    if not eps > 0:
        raise InvalidParams(f"eps must be > 0, got {eps}")
    if m < 0:
        raise InvalidParams(f"m must be >= 0, got {m}")
    return (
        -2 * a ** 2
        - 2 * a ** 3 * m
        - a ** 3 / eps
        + a ** 5 / (2 * eps ** 3)
        + m * a ** 6 / (2 * eps ** 3)
        + a ** 6 / (4 * eps ** 4)
    )


def counterexample_config(a: float, eps: float, m: float = 0.0) -> PointConfiguration:
    """The three-centre configuration behind the closed form."""
    if not (a > 0 and eps > 0 and m >= 0):
        raise InvalidParams("need a > 0, eps > 0, m >= 0")
    return make_config(
        float(m),
        [((0.0, 0.0, float(a)), 1), ((0.0, 0.0, -float(a)), 1), ((0.0, float(eps), 0.0), 1)],
    )
