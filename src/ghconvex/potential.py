"""Harmonic potentials of multi-centre Gibbons-Hawking geometries.

The potential is

    phi(x) = m + sum_i c_i / (2 |x - p_i|)

with constant mass term m >= 0, distinct centres p_i in R^3 and integer
multiplicities c_i >= 1.  ``jet`` is the one kernel evaluating its 2-jet, and
``phi_jet``/``phi_jet_batch`` add the exclusion check; everything downstream
(frames, second fundamental forms, margins, curvature) is built from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import EmptyConfiguration, InvalidParams, SingularPoint

__all__ = [
    "PointConfiguration",
    "PotentialJet",
    "phi_jet",
    "phi_jet_batch",
    "check_harmonic",
    "jet",
    "load_config",
    "parse_config",
]

# Relative exclusion radius around each centre; evaluation closer than
# delta = EXCLUSION_SCALE * (1 + diameter) raises SingularPoint.
EXCLUSION_SCALE = 1e-9

# Rows per pass of the jet kernel (and of convexity_scan): bounds the
# (rows, centres) temporaries independently of the sample count.
CHUNK = 2048


def _as_point(p: Any) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise InvalidParams(f"centre must be a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParams("centre coordinates must be finite")
    return a


@dataclass(frozen=True)
class PointConfiguration:
    """Immutable centre data (m, {p_i}, {c_i}) of a Gibbons-Hawking potential.

    Parameters
    ----------
    mass : float
        Constant term m >= 0.  m = 0 gives ALE (multi-Eguchi-Hanson) type,
        m > 0 gives ALF (multi-Taub-NUT) type.
    points : (k, 3) array
        Pairwise distinct centre positions.
    multiplicities : (k,) int array
        Integer charges c_i >= 1.
    """

    mass: float
    points: np.ndarray
    multiplicities: np.ndarray
    # largest pairwise centre distance (0 for fewer than two centres)
    diameter: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mass = float(self.mass)
        if not math.isfinite(mass) or mass < 0.0:
            raise InvalidParams(f"mass must be finite and >= 0, got {self.mass}")
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidParams(f"points must have shape (k, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidParams("centre coordinates must be finite")
        mults = np.asarray(self.multiplicities)
        if mults.shape != (pts.shape[0],):
            raise InvalidParams("multiplicities must match the number of centres")
        if mults.size and not np.issubdtype(mults.dtype, np.integer):
            ints = np.rint(mults).astype(int)
            if not np.allclose(mults, ints):
                raise InvalidParams("multiplicities must be integers")
            mults = ints
        mults = mults.astype(int)
        if np.any(mults < 1):
            raise InvalidParams("multiplicities must be >= 1")
        if pts.shape[0] == 0 and mass == 0.0:
            raise EmptyConfiguration("no centres and zero mass: potential is identically zero")
        # Distinctness: any coincident pair makes the decomposition ill posed.
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        if np.any(dist[np.triu_indices(pts.shape[0], 1)] == 0.0):
            raise InvalidParams("centres must be pairwise distinct")
        pts = pts.copy()
        pts.setflags(write=False)
        mults = mults.copy()
        mults.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mults)
        object.__setattr__(self, "diameter", float(dist.max(initial=0.0)))

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def exclusion_radius(self) -> float:
        return EXCLUSION_SCALE * (1.0 + self.diameter)

    def min_centre_distance(self, xs: np.ndarray) -> np.ndarray:
        """Distance from each row of xs to the nearest centre (inf if none)."""
        return jet(self.mass, self.points, self.multiplicities, xs, 0)[0]

    def to_dict(self) -> dict:
        return {
            "m": self.mass,
            "points": [
                {"p": [float(v) for v in p], "c": int(c)}
                for p, c in zip(self.points, self.multiplicities)
            ],
        }


def make_config(mass: float, centres: Iterable[tuple[Sequence[float], int]]) -> PointConfiguration:
    """Convenience constructor from an iterable of (position, multiplicity)."""
    pts = []
    mults = []
    for p, c in centres:
        pts.append(_as_point(p))
        mults.append(int(c))
    if pts:
        return PointConfiguration(mass, np.array(pts), np.array(mults))
    return PointConfiguration(mass, np.zeros((0, 3)), np.zeros(0, dtype=int))


@dataclass(frozen=True)
class PotentialJet:
    """2-jet of phi at a point: value, gradient (3,), Hessian (3, 3)."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray

    @property
    def laplacian(self) -> float:
        return float(np.trace(self.hessian))


def jet(
    mass: float,
    points: np.ndarray,
    multiplicities: np.ndarray,
    xs: np.ndarray,
    order: int = 2,
) -> tuple:
    """Jet of m + sum c_i/(2|x - p_i|) at each row of xs, in one pass.

    Returns (dmin, scale, values, gradients, Hessians): nearest-centre
    distance (inf without centres), gradient scale sum c_i/(2|x - p_i|^2),
    phi (N,), grad phi (N, 3) from order 1 and Hess phi (N, 3, 3) at order
    2, else None.  No validation (the stability module's satellite-only
    potential may be identically zero): singular rows give inf/nan and
    callers filter on dmin.  Rows go CHUNK at a time.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[0]
    if n % CHUNK == 1:
        # numpy sums a lone column pairwise but wider blocks row by row: a
        # duplicate row keeps a one-row chunk on the order of every other
        xs = np.vstack([xs, xs[-1:]])
    rows = xs.shape[0]
    dmin = np.empty(rows)
    scale = np.empty(rows)
    vals = np.full(rows, float(mass))
    grads = np.empty((rows, 3)) if order >= 1 else None
    hesss = np.empty((rows, 3, 3)) if order >= 2 else None
    c = np.asarray(multiplicities, dtype=float)[:, None]
    pc = np.asarray(points, dtype=float).T[:, :, None]     # (3, k, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, rows, CHUNK):
            s = slice(lo, lo + CHUNK)
            # centre-major (k, rows) blocks reduced over axis 0, so numpy's
            # inner loops run over the rows; one difference component is
            # held at a time and recomputed where needed
            xt = np.ascontiguousarray(xs[s].T)
            r2 = xt[0] - pc[0]
            r2 *= r2
            d = xt[1] - pc[1]
            d *= d
            r2 += d
            np.subtract(xt[2], pc[2], out=d)
            d *= d
            r2 += d
            dmin[s] = np.sqrt(r2.min(axis=0, initial=np.inf))
            inv_r = r2                                      # in place: 1/r, then 1/r^2
            np.sqrt(r2, out=inv_r)
            np.divide(1.0, inv_r, out=inv_r)
            w = c * inv_r                                   # c / r
            vals[s] += 0.5 * w.sum(axis=0)
            np.multiply(w, inv_r, out=d)
            scale[s] = 0.5 * d.sum(axis=0)
            if order >= 1:
                inv_r *= inv_r
                w *= inv_r                                  # c / r^3
                for i in range(3):
                    np.subtract(xt[i], pc[i], out=d)
                    d *= w
                    grads[s, i] = -0.5 * d.sum(axis=0)
            if order >= 2:
                # Hessian of c/(2r): (c/2) (3 d d^T / r^5 - I / r^3), entry by entry
                trace_part = 0.5 * w.sum(axis=0)
                w *= inv_r                                  # c / r^5
                for i in range(3):
                    np.subtract(xt[i], pc[i], out=d)
                    d *= w
                    for j in range(i, 3):
                        np.subtract(xt[j], pc[j], out=inv_r)
                        inv_r *= d
                        hesss[s, i, j] = hesss[s, j, i] = 1.5 * inv_r.sum(axis=0)
                    hesss[s, i, i] -= trace_part
    return tuple(a if a is None else a[:n] for a in (dmin, scale, vals, grads, hesss))


def phi_jet_batch(config: PointConfiguration, xs: np.ndarray, order: int = 2) -> tuple:
    """Vectorized phi_jet over rows of xs: (values, gradients, Hessians), the
    last two None above ``order``.  Raises SingularPoint if any row is
    within the exclusion radius of a centre."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise InvalidParams("evaluation points must be finite")
    dmin, _, vals, grads, hesss = jet(config.mass, config.points, config.multiplicities, xs, order)
    bad = dmin <= config.exclusion_radius
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SingularPoint(
            f"point {xs[i]} is within {config.exclusion_radius:.3e} of a centre"
        )
    return vals, grads, hesss


def phi_jet(config: PointConfiguration, x: Sequence[float]) -> PotentialJet:
    """2-jet of the potential at a single point off the centre set.

    Raises
    ------
    SingularPoint
        If x is within exclusion_radius of a centre.
    InvalidParams
        If x is not a finite 3-vector.
    """
    x = _as_point(x)
    vals, grads, hesss = phi_jet_batch(config, x[None, :])
    return PotentialJet(float(vals[0]), grads[0], hesss[0])


def check_harmonic(config: PointConfiguration, x: Sequence[float]) -> float:
    """Laplacian of phi at x (identically zero in exact arithmetic)."""
    return phi_jet(config, x).laplacian


# --- JSON configuration files -------------------------------------------

def parse_config(data: dict) -> PointConfiguration:
    """Build a PointConfiguration from the JSON schema

        {"m": number, "points": [{"p": [x, y, z], "c": int}, ...]}

    "c" may be omitted (defaults to 1).  Rejects NaN/Inf coordinates,
    duplicate centres, c < 1, m < 0 and unknown keys.
    """
    if not isinstance(data, dict):
        raise InvalidParams("config must be a JSON object")
    unknown = set(data) - {"m", "points"}
    if unknown:
        raise InvalidParams(f"unknown config keys: {sorted(unknown)}")
    if "m" not in data or "points" not in data:
        raise InvalidParams('config requires "m" and "points"')
    m = data["m"]
    if isinstance(m, bool) or not isinstance(m, (int, float)):
        raise InvalidParams('"m" must be a number')
    entries = data["points"]
    if not isinstance(entries, list):
        raise InvalidParams('"points" must be a list')
    centres = []
    for e in entries:
        if not isinstance(e, dict):
            raise InvalidParams("each point entry must be an object")
        bad = set(e) - {"p", "c"}
        if bad:
            raise InvalidParams(f"unknown point keys: {sorted(bad)}")
        if "p" not in e:
            raise InvalidParams('point entry missing "p"')
        p = e["p"]
        if not (isinstance(p, list) and len(p) == 3 and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)):
            raise InvalidParams('"p" must be a list of 3 numbers')
        c = e.get("c", 1)
        if isinstance(c, bool) or not isinstance(c, int):
            raise InvalidParams('"c" must be an integer')
        centres.append((p, c))
    return make_config(float(m), centres)


def load_config(path: str) -> PointConfiguration:
    """Read and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParams(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(data)
