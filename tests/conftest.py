"""Shared helpers: randomized centre configurations, off-centre probes and
the reference jet."""
from __future__ import annotations

import sys

import numpy as np

from ghconvex import make_config


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the acceptance verdict lines past pytest's capture
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def random_config(rng, k=None, mass=None, box=3.0, min_sep=0.5, max_mult=2):
    """Random configuration with k centres pairwise at least min_sep apart."""
    if k is None:
        k = int(rng.integers(2, 7))
    if mass is None:
        mass = float(rng.choice([0.0, 1.0]))
    pts = []
    while len(pts) < k:
        cand = rng.uniform(-box, box, 3)
        if all(np.linalg.norm(cand - p) >= min_sep for p in pts):
            pts.append(cand)
    mults = rng.integers(1, max_mult + 1, k)
    return make_config(mass, [(p, int(c)) for p, c in zip(pts, mults)])


def points_away(rng, config, n, min_dist=0.2, box=None):
    """n sample points keeping at least min_dist from every centre."""
    if box is None:
        box = float(np.abs(config.points).max()) + 2.0
    out = np.empty((n, 3))
    have = 0
    while have < n:
        cand = rng.uniform(-box, box, (2 * (n - have) + 8, 3))
        d = np.linalg.norm(
            cand[:, None, :] - config.points[None, :, :], axis=2
        ).min(axis=1)
        good = cand[d >= min_dist]
        take = min(len(good), n - have)
        out[have:have + take] = good[:take]
        have += take
    return out


def reference_jet(mass, points, multiplicities, xs):
    """Jet of m + sum c_i/(2|x - p_i|) by the direct formula: (N, k, 3)
    differences, their (N, k, 3, 3) outer products and einsum sums.  The
    test oracle for potential.jet; returns (values, gradients, Hessians)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vals = np.full(xs.shape[0], float(mass))
    if points.shape[0] == 0:
        return vals, np.zeros((xs.shape[0], 3)), np.zeros((xs.shape[0], 3, 3))
    diff = xs[:, None, :] - points[None, :, :]
    r = np.sqrt((diff ** 2).sum(axis=2))
    c = np.asarray(multiplicities, dtype=float)
    inv_r = 1.0 / r
    inv_r3 = inv_r ** 3
    inv_r5 = inv_r3 * inv_r * inv_r
    vals = vals + 0.5 * (c * inv_r).sum(axis=1)
    grads = -0.5 * np.einsum("k,nk,nkj->nj", c, inv_r3, diff)
    # Hessian of c/(2r): (c/2) * (3 d d^T / r^5 - I / r^3)
    outer = np.einsum("nki,nkj->nkij", diff, diff)
    hesss = 1.5 * np.einsum("k,nk,nkij->nij", c, inv_r5, outer)
    hesss -= 0.5 * np.einsum("k,nk->n", c, inv_r3)[:, None, None] * np.eye(3)
    return vals, grads, hesss
