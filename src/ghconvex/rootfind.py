"""One root finder for arrays of independent rows: the array form of rtsafe
(Press et al., Numerical Recipes, section 9.4), Newton steps that bisect
whenever a step would leave the row's shrinking bracket."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams, NoConvergence

__all__ = ["bisect_newton"]

# a row stops once its move is <= XTOL * max(1, |x|); rows still moving
# after MAX_STEPS steps raise NoConvergence
XTOL = 1e-14
MAX_STEPS = 100


def bisect_newton(fdf, lo, hi) -> np.ndarray:
    """Roots of independent rows, each in its bracket [lo, hi].

    ``fdf(x, rows)`` returns (f, f') at x for the row indices ``rows``.
    Each row starts at its bracket end with the larger f.  A bracket
    without a sign change raises InvalidParams.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)), np.asarray(hi, dtype=float))
    rows = np.arange(lo.size)
    flo, dlo = fdf(lo, rows)
    fhi, dhi = fdf(hi, rows)
    bad = ~(np.sign(flo) * np.sign(fhi) <= 0.0)
    if np.any(bad):
        raise InvalidParams(f"no sign change on {np.count_nonzero(bad)} of {lo.size} brackets")
    up = fhi >= flo
    x, f, df = np.where(up, hi, lo), np.where(up, fhi, flo), np.where(up, dhi, dlo)
    pos, neg = x.copy(), np.where(up, lo, hi)
    root = np.empty_like(x)
    for _ in range(MAX_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - f / df
        pa, na = pos[rows], neg[rows]
        new = np.where((new - pa) * (new - na) <= 0.0, new, 0.5 * (pa + na))
        done = np.abs(new - x) <= XTOL * np.maximum(1.0, np.abs(new))
        root[rows] = new
        rows, x = rows[~done], new[~done]
        if rows.size == 0:
            return root
        f, df = fdf(x, rows)
        pos[rows] = np.where(f > 0.0, x, pos[rows])
        neg[rows] = np.where(f < 0.0, x, neg[rows])
    raise NoConvergence(f"no convergence in {MAX_STEPS} steps on {rows.size} of {root.size} rows")
