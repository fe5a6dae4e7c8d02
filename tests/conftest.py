"""Shared helpers: randomized centre configurations, off-centre probes, and
the oracles: the reference jet, the reference connection coefficients, the
sampled Grassmannian minima and Sylvester's criterion."""
from __future__ import annotations

import itertools
import sys

import numpy as np
from hypothesis import strategies as st

from ghconvex import make_config, phi_jet


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


# quaternions for rotation(), kept away from zero
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(v * v for v in q) > 0.01)


def rotation(q):
    """Rotation matrix of the (not necessarily unit) quaternion q = (a, b, c, d)."""
    a, b, c, d = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


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


def grassmannian_minima(S, n, seed=0):
    """Monte Carlo upper bounds on the k-eigensums of a symmetric 3x3 S for
    k = 1, 2, 3, in that order: the minima of Tr_W S over n uniform k-planes
    W, all read from one draw.  The test oracle for k_smallest_eigensum.

    Normalised Gaussian vectors u are Haar-uniform on the sphere.  k = 1
    takes min u^T S u; k = 2 takes Tr S - max u^T S u, since the plane
    orthogonal to a Haar-uniform normal is Haar-uniform on G(2, 3).  With a
    fixed seed the sample set is nested in n, so both bounds are monotone
    nonincreasing as n grows.  k = 3 is the single subspace G(3, R^3) =
    {R^3}: the trace, exactly."""
    S = np.asarray(S, dtype=float)
    trace = float(S[0, 0] + S[1, 1] + S[2, 2])
    g = np.random.default_rng(seed).standard_normal((n, 3))
    sq = np.einsum("ni,ni->n", g, g)
    keep = sq > 1e-24
    # u^T S u for u = g / |g|, without normalising the rows
    quad = np.einsum("ni,ni->n", g @ S, g)[keep] / sq[keep]
    return float(quad.min()), trace - float(quad.max()), trace


def sylvester_positive(S):
    """True iff all three leading principal minors of S are strictly
    positive: Sylvester's criterion, the test oracle for positive
    definiteness."""
    S = np.asarray(S, dtype=float)
    m1 = S[0, 0]
    m2 = S[0, 0] * S[1, 1] - S[0, 1] ** 2
    m3 = (
        S[0, 0] * (S[1, 1] * S[2, 2] - S[1, 2] ** 2)
        - S[0, 1] * (S[0, 1] * S[2, 2] - S[1, 2] * S[0, 2])
        + S[0, 2] * (S[0, 1] * S[1, 2] - S[1, 1] * S[0, 2])
    )
    return bool(m1 > 0.0 and m2 > 0.0 and m3 > 0.0)


def perm_sign(i, j, k):
    if len({i, j, k}) < 3:
        return 0
    sign = 1
    seq = [i, j, k]
    for a in range(3):
        for b in range(a + 1, 3):
            if seq[a] > seq[b]:
                seq[a], seq[b] = seq[b], seq[a]
                sign = -sign
    return sign


def reference_gamma(config, x):
    """gamma[a, b, c] = <nabla_{e_a} e_b, e_c> of the adapted orthonormal
    frame of g = phi^-1 eta^2 + phi g_R3: e_0 = phi^(1/2) xi along the fibre,
    e_i = phi^(-1/2) d/dx_i horizontal, s = 1/(2 phi^(3/2)):

        nabla_{e_0} e_0 =  s * sum_i  d_i phi e_i
        nabla_{e_i} e_0 = -s * sum_jk eps_ijk d_j phi e_k
        nabla_{e_0} e_i = -s * (d_i phi e_0 + sum_jk eps_ijk d_j phi e_k)
        nabla_{e_i} e_j =  s * (d_j phi e_i - sum_k (eps_ijk d_k phi e_0
                                                     + delta_ij d_k phi e_k))

    Direct loop evaluation, kept deliberately naive: the test oracle for the
    lifted second fundamental form."""
    jet = phi_jet(config, x)
    phi, dphi = jet.value, jet.gradient
    s = 0.5 * phi ** -1.5
    gamma = np.zeros((4, 4, 4))
    for i in range(1, 4):
        gamma[0, 0, i] = s * dphi[i - 1]
        gamma[0, i, 0] = -s * dphi[i - 1]
    A = np.zeros((3, 3))
    for i, j, k in itertools.product(range(3), repeat=3):
        A[i, k] += perm_sign(i, j, k) * dphi[j]
    for i in range(1, 4):
        for k in range(1, 4):
            gamma[i, 0, k] = -s * A[i - 1, k - 1]
            gamma[0, i, k] = -s * A[i - 1, k - 1]
            gamma[i, k, 0] = s * A[i - 1, k - 1]
    for i, j, k in itertools.product(range(1, 4), repeat=3):
        gamma[i, j, k] = s * (
            dphi[j - 1] * (1 if i == k else 0) - (1 if i == j else 0) * dphi[k - 1]
        )
    return gamma
