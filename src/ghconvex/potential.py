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
    "jet",
    "load_config",
    "make_config",
    "parse_config",
]

# Relative exclusion radius around each centre; evaluation closer than
# delta = EXCLUSION_SCALE * (1 + diameter) raises SingularPoint.
EXCLUSION_SCALE = 1e-9

# Entries per (centres, rows) block of the jet kernel: 256 KB temporaries
# for any centre count, independently of the number of rows.
BLOCK = 2 ** 15


def block_rows(k: int) -> int:
    """Rows per jet-kernel block over k centres: BLOCK // k, at least 2."""
    return max(2, BLOCK // max(k, 1))


def _vec3(p: Any, what: str) -> np.ndarray:
    """p as a new finite float 3-vector; InvalidParams naming it otherwise."""
    try:
        a = np.array(p, dtype=float)
    except (TypeError, ValueError, OverflowError):     # not numbers, or ragged
        a = np.empty(0)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise InvalidParams(f"{what} must be a finite 3-vector")
    return a


def _unit(w: Any, what: str) -> np.ndarray:
    """w / |w| for a finite, nonzero 3-vector w."""
    w = _vec3(w, what)
    n = float(np.linalg.norm(w))
    if n < 1e-12:
        raise InvalidParams(f"{what} must be nonzero")
    return w / n


def _count(value, least: int, what: str) -> int:
    """value as a Python int >= least: InvalidParams for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParams(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParams(f"{what} must be >= {least}, got {value}")
    return int(value)


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
        if mults.size and not np.all(np.abs(mults) < 2.0 ** 63):
            raise InvalidParams("multiplicities must be integers below 2**63")
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
        with np.errstate(over="ignore"):
            dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        if np.any(dist[np.triu_indices(pts.shape[0], 1)] == 0.0):
            raise InvalidParams("centres must be pairwise distinct")
        if not np.all(np.isfinite(dist)):
            raise InvalidParams("centres are too far apart: their squared distances overflow")
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


def make_config(mass: float, centres: Iterable[tuple[Sequence[float], int]]) -> PointConfiguration:
    """Convenience constructor from an iterable of (position, multiplicity)."""
    pts = []
    mults = []
    for p, c in centres:
        pts.append(_vec3(p, "centre"))
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


def jet(
    mass: float,
    points: np.ndarray,
    multiplicities: np.ndarray,
    xs: np.ndarray,
    order: int = 2,
) -> tuple:
    """Jet of m + sum c_i/(2|x - p_i|) at each row of xs, in one pass.

    Returns (dmin, scale, values, gradients, Hessians): nearest-centre
    distance (inf without centres), gradient scale sum c_i/(2|x - p_i|^2)
    at orders 0 and 2, phi (N,), grad phi (N, 3) from order 1 and Hess phi
    (N, 3, 3) at order 2, else None.  No validation (the stability module's satellite-only
    potential may be identically zero): singular rows give inf/nan and
    callers filter on dmin.  Rows go ``block_rows(k)`` at a time; a row's
    sums do not depend on the block width.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[0]
    block = block_rows(len(multiplicities))
    if n % block == 1:
        # numpy sums a lone column in another order than wider blocks: a
        # duplicate row keeps a one-row block on the order of every other
        xs = np.vstack([xs, xs[-1:]])
    rows = xs.shape[0]
    dmin = np.empty(rows)
    scale = None if order == 1 else np.empty(rows)
    vals = np.full(rows, float(mass))
    grads = np.empty((rows, 3)) if order >= 1 else None
    hesss = np.empty((rows, 3, 3)) if order >= 2 else None
    c = np.asarray(multiplicities, dtype=float)[:, None]
    pc = np.asarray(points, dtype=float).T[:, :, None]     # (3, k, 1)
    k = c.shape[0]
    # the workspace, allocated once per call at the first block's width: the
    # differences x - p_i as one (3, k, width) array, and the 1/r and weight
    # blocks
    size = k * min(block, rows)
    work = np.empty(5 * size)
    diffs, blocks = work[:3 * size], work[3 * size:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, rows, block):
            s = slice(lo, lo + block)
            # centre-major (k, width) blocks contracted over the centre axis,
            # which einsum sums centre by centre, as numpy's axis-0 sums do
            xt = np.ascontiguousarray(xs[s].T)
            width = xt.shape[1]
            m = k * width
            d = diffs[:3 * m].reshape(3, k, width)
            inv_r, w = blocks[:2 * m].reshape(2, k, width)
            np.subtract(xt[:, None, :], pc, out=d)         # x - p_i, once per block
            np.einsum("ikr,ikr->kr", d, d, out=inv_r)      # r^2, then 1/r, then 1/r^2
            dmin[s] = np.sqrt(inv_r.min(axis=0, initial=np.inf))
            np.sqrt(inv_r, out=inv_r)
            np.divide(1.0, inv_r, out=inv_r)
            np.multiply(c, inv_r, out=w)                   # c / r
            vals[s] += 0.5 * w.sum(axis=0)
            if order != 1:
                scale[s] = 0.5 * np.einsum("kr,kr->r", w, inv_r)   # c / r^2
            if order >= 1:
                inv_r *= inv_r
                w *= inv_r                                  # c / r^3 = (c / r) (1/r)^2
                grads[s] = (-0.5 * np.einsum("ikr,kr->ir", d, w)).T
            if order >= 2:
                # Hessian of c/(2r): (c/2) (3 d d^T / r^5 - I / r^3), entry by entry
                trace_part = 0.5 * w.sum(axis=0)
                w *= inv_r                                  # c / r^5
                for i in range(3):
                    for j in range(i, 3):
                        hesss[s, i, j] = hesss[s, j, i] = 1.5 * np.einsum("kr,kr,kr->r", d[i], w, d[j])
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
    x = _vec3(x, "evaluation point")
    vals, grads, hesss = phi_jet_batch(config, x[None, :])
    return PotentialJet(float(vals[0]), grads[0], hesss[0])


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
