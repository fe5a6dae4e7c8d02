"""k-convexity engine: eigenvalue sums, Sylvester tests, Grassmannian
oracle and surface-wide scans.

A hypersurface is k-convex at a point when the sum of the k smallest
eigenvalues of its (lifted) second fundamental form is nonnegative; that sum
equals the infimum of Tr_W S over k-planes W, which the brute-force oracle
approximates by sampling.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidK, InvalidParams, NotSymmetric, TooFewSamples
from .potential import PointConfiguration, jet
from .surfaces import (
    BarrierSurface,
    Plane,
    chart_domain,
    lifted_sff_batch,
    surface_data_batch,
)

__all__ = [
    "ConvexityReport",
    "ScanSampling",
    "k_smallest_eigensum",
    "eigvals3_batch",
    "brute_force_grassmannian_min",
    "sylvester_positive",
    "convexity_scan",
]

MARGIN_TOL = 1e-9  # relative to ||S||: below this a verdict is Inconclusive
# eigvals3_batch sends rows with 1 - |r| below this to LAPACK; above it the
# arccos form's error, ~eps / sqrt(1 - |r|), stays near 1e-13 ||S||
CLUSTER_TOL = 1e-6


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    exposes one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads convexity_scan runs its shares on: numpy releases the GIL inside
# its loops, so shares overlap on separate cores
SCAN_THREADS = min(4, _usable_cpus())

# Most rows in one scan share.  The samples split into a multiple of
# SCAN_THREADS near-equal shares of at most SCAN_ROWS rows, each one task and
# one jet call: few tasks keep the GIL-held numpy call overhead low, and the
# cap keeps the memory in flight independent of the sample count.
SCAN_ROWS = 8192

# glibc's mallopt parameters, and the mmap threshold the scan pool pins:
# arrays below it come from the threads' heaps and stay mapped between
# shares.  4 MiB covers the kernel's largest workspace, 6 * BLOCK doubles =
# 1.5 MiB, and a share's largest array, SCAN_ROWS * 9 doubles = 576 KiB.  The
# trim threshold is twice it, glibc's own ratio when it moves the threshold
# itself.  Left dynamic, the threshold follows the largest block freed, each
# share frees more than twice that, and glibc trims the heap that the next
# share faults back in.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 4 << 20
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")

_pool: Optional[tuple[int, ThreadPoolExecutor]] = None   # (threads, pool)
_pool_lock = threading.Lock()


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds, unless the environment already
    tunes malloc; a no-op on other C libraries."""
    if any(name in os.environ for name in _MALLOC_ENV):
        return
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version       # glibc only: the parameters are its own
        mallopt = libc.mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _scan_pool() -> ThreadPoolExecutor:
    """The process's scan pool of SCAN_THREADS threads, started by the first
    scan and kept, so its threads keep their heaps from one scan to the
    next.  A pool of another size is replaced; its threads exit once no scan
    holds it."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != SCAN_THREADS:
            _pin_malloc_thresholds()
            _pool = (SCAN_THREADS, ThreadPoolExecutor(SCAN_THREADS, thread_name_prefix="ghconvex-scan"))
        return _pool[1]


def _forget_pool() -> None:
    # a forked child inherits the pool but none of its threads: work
    # submitted to it would never run
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _check_symmetric(S: np.ndarray, what: str = "matrix") -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.shape != (3, 3):
        raise InvalidParams(f"{what} must be 3x3, got {S.shape}")
    if not np.all(np.isfinite(S)):
        raise InvalidParams(f"{what} must be finite")
    scale = max(1.0, float(np.abs(S).max()))
    if float(np.abs(S - S.T).max()) > 1e-12 * scale:
        raise NotSymmetric(f"{what} is not symmetric within 1e-12")
    return S


def _eigvals3_parts(S: np.ndarray) -> tuple:
    """Trigonometric closed form of (N, 3, 3) symmetric input: mean q,
    spread p and angle phi, so the eigenvalues are q + 2p cos(phi + 2j pi/3),
    plus the rows it leaves to other routes: diag_like (all eigenvalues q)
    and clustered (1 - |r| < CLUSTER_TOL, for LAPACK)."""
    a00, a11, a22 = S[:, 0, 0], S[:, 1, 1], S[:, 2, 2]
    a01, a02, a12 = S[:, 0, 1], S[:, 0, 2], S[:, 1, 2]
    q = (a00 + a11 + a22) / 3.0
    e00, e11, e22 = a00 - q, a11 - q, a22 - q
    p1 = a01 ** 2 + a02 ** 2 + a12 ** 2
    p2 = e00 ** 2 + e11 ** 2 + e22 ** 2 + 2.0 * p1
    p = np.sqrt(p2 / 6.0)
    # max |S_ij| as a running elementwise maximum: the same bits as numpy's
    # reduction over the two tiny axes, at a fifth of its time
    scale = np.abs(a00)
    for e in (a01, a02, S[:, 1, 0], a11, a12, S[:, 2, 0], S[:, 2, 1], a22):
        np.maximum(scale, np.abs(e), out=scale)
    diag_like = p <= 1e-14 * np.maximum(1e-300, scale)
    safe_p = np.where(p > 0.0, p, 1.0)
    b00, b11, b22 = e00 / safe_p, e11 / safe_p, e22 / safe_p
    b01, b02, b12 = a01 / safe_p, a02 / safe_p, a12 / safe_p
    detb = (
        b00 * (b11 * b22 - b12 ** 2)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    # In exact arithmetic |detb/2| <= 1; rows near the boundary have a
    # (near-)repeated eigenvalue and get the LAPACK treatment instead.
    clustered = (~diag_like) & (1.0 - np.abs(r) < CLUSTER_TOL)
    return q, p, phi, diag_like, clustered


def eigvals3_batch(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric (N, 3, 3) input, shape (N, 3).

    Trigonometric closed form; rows whose characteristic discriminant is
    near zero (clustered eigenvalues, |r| -> 1), where the arccos loses
    digits, go to LAPACK in one call.
    """
    S = np.asarray(S, dtype=float)
    q, p, phi, diag_like, clustered = _eigvals3_parts(S)
    out = np.empty((S.shape[0], 3))
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    mid = 3.0 * q - hi - lo
    out[:, 0] = lo
    out[:, 1] = mid
    out[:, 2] = hi
    out[diag_like] = q[diag_like, None]
    out[clustered] = np.linalg.eigvalsh(S[clustered])
    return out


def _smallest_eigvals3(S: np.ndarray) -> np.ndarray:
    """eigvals3_batch(S)[:, 0] of (N, 3, 3) input, bit for bit, without
    computing the other two eigenvalues."""
    q, p, phi, diag_like, clustered = _eigvals3_parts(S)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    lo[diag_like] = q[diag_like]
    lo[clustered] = np.linalg.eigvalsh(S[clustered])[:, 0]
    return lo


def k_smallest_eigensum(S: np.ndarray, k: int) -> float:
    """Sum of the k smallest eigenvalues of a symmetric 3x3 matrix.

    k = 3 returns the trace directly (exact identity), so comparisons with
    trace-based oracles carry no eigenvalue round-off.
    """
    S = _check_symmetric(S)
    if k not in (1, 2, 3):
        raise InvalidK(f"k must be 1, 2 or 3, got {k}")
    return float(_eigensum_batch(S[None], k)[0])


def _eigensum_batch(S: np.ndarray, k: int) -> np.ndarray:
    """k_smallest_eigensum of each row of (N, 3, 3) input."""
    if k == 3:
        return S[:, 0, 0] + S[:, 1, 1] + S[:, 2, 2]
    if k == 1:
        return _smallest_eigvals3(S)
    lam = eigvals3_batch(S)
    return lam[:, 0] + lam[:, 1]


def brute_force_grassmannian_min(S: np.ndarray, k: int, n: int, seed: int = 0) -> float:
    """Monte Carlo upper bound: min of Tr_W S over n uniform k-planes.

    Normalised Gaussian vectors u are Haar-uniform on the sphere.  k = 1
    takes min u^T S u; k = 2 takes Tr S - max u^T S u, since the plane
    orthogonal to a Haar-uniform normal is Haar-uniform on G(2, 3).  With a
    fixed seed the sample set is nested in n, so the result is monotone
    nonincreasing as n grows.  k = 3 is the single subspace G(3, R^3) =
    {R^3}: the trace is returned exactly.
    """
    S = _check_symmetric(S)
    if k not in (1, 2, 3):
        raise InvalidK(f"k must be 1, 2 or 3, got {k}")
    if n < 10 ** 3:
        raise InvalidParams(f"need n >= 1000 samples, got {n}")
    trace = float(S[0, 0] + S[1, 1] + S[2, 2])
    if k == 3:
        return trace
    g = np.random.default_rng(seed).standard_normal((n, 3))
    sq = np.einsum("ni,ni->n", g, g)
    keep = sq > 1e-24
    # u^T S u for u = g / |g|, without normalising the rows
    quad = np.einsum("ni,ni->n", g @ S, g)[keep] / sq[keep]
    return float(quad.min()) if k == 1 else trace - float(quad.max())


def sylvester_positive(S: np.ndarray) -> bool:
    """True iff all three leading principal minors are strictly positive."""
    S = _check_symmetric(S)
    m1 = S[0, 0]
    m2 = S[0, 0] * S[1, 1] - S[0, 1] ** 2
    m3 = (
        S[0, 0] * (S[1, 1] * S[2, 2] - S[1, 2] ** 2)
        - S[0, 1] * (S[0, 1] * S[2, 2] - S[1, 2] * S[0, 2])
        + S[0, 2] * (S[0, 1] * S[1, 2] - S[1, 1] * S[0, 2])
    )
    return bool(m1 > 0.0 and m2 > 0.0 and m3 > 0.0)


@dataclass(frozen=True)
class ScanSampling:
    """Sampling plan for convexity_scan: grid dims, extra random count, seed."""

    grid: tuple[int, int] = (128, 128)
    random: int = 10 ** 4
    seed: int = 0


@dataclass(frozen=True)
class ConvexityReport:
    k: int
    min_eigensum: float
    argmin_params: np.ndarray
    argmin_x: np.ndarray
    samples: int
    skipped: int
    verdict: str
    samples_table: Optional[np.ndarray] = None  # (N, 7): p0 p1 x y z eigensum scale

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "min_eigensum": self.min_eigensum,
            "argmin": {
                "params": [float(v) for v in self.argmin_params],
                "x": [float(v) for v in self.argmin_x],
            },
            "samples": self.samples,
            "skipped": self.skipped,
            "verdict": self.verdict,
        }


def _scan_params(surface: BarrierSurface, sampling: ScanSampling) -> Iterator[np.ndarray]:
    """Chart samples one share at a time: the cell-midpoint grid in
    row-major order, then the seeded uniform draws (one stream across
    shares, so the split leaves them unchanged).  The n samples go in
    m = SCAN_THREADS * ceil(n / (SCAN_THREADS * SCAN_ROWS)) near-equal
    shares, at most one per sample."""
    (lo0, hi0), (lo1, hi1) = chart_domain(surface)
    g0, g1 = sampling.grid
    if g0 < 1 or g1 < 1:
        raise InvalidParams("grid dims must be >= 1")
    if sampling.random < 0:
        raise InvalidParams(f"random sample count must be >= 0, got {sampling.random}")
    # cell midpoints: stays strictly inside open chart boxes
    p0 = lo0 + (hi0 - lo0) * (np.arange(g0) + 0.5) / g0
    p1 = lo1 + (hi1 - lo1) * (np.arange(g1) + 0.5) / g1
    n_grid = g0 * g1
    n = n_grid + sampling.random
    rng = np.random.default_rng(sampling.seed)
    # keep polar angles off the chart poles
    eps1 = 1e-9 * (hi1 - lo1)
    m = min(n, SCAN_THREADS * -(-n // (SCAN_THREADS * SCAN_ROWS)))
    for j in range(m):
        lo, hi = n * j // m, n * (j + 1) // m
        i = np.arange(lo, min(hi, n_grid))
        R = rng.random((max(0, hi - max(lo, n_grid)), 2))
        R[:, 0] = lo0 + (hi0 - lo0) * R[:, 0]
        R[:, 1] = np.clip(lo1 + (hi1 - lo1) * R[:, 1], lo1 + eps1, hi1 - eps1)
        yield np.vstack([np.column_stack([p0[i // g1], p1[i % g1]]), R])


def _scan_chunk(
    config: PointConfiguration, surface: BarrierSurface, k: int, P: np.ndarray, keep_samples: bool
) -> tuple:
    """One share of convexity_scan: surface data, one order-1 jet pass (its
    nearest-centre distance is the exclusion check), the lift and the
    eigensum.  Returns (violated, strict, (min, P_i, X_i), samples, skipped,
    table)."""
    X, U, V, NU, SFF, _ = surface_data_batch(surface, P)
    dmin, _, vals, grads, _ = jet(config.mass, config.points, config.multiplicities, X, 1)
    ok = dmin > config.exclusion_radius
    skipped = P.shape[0] - int(np.count_nonzero(ok))
    if skipped:
        P, X, U, V, NU, SFF, vals, grads = (a[ok] for a in (P, X, U, V, NU, SFF, vals, grads))
    S = lifted_sff_batch(config, X, U, V, NU, SFF, jet=(vals, grads))
    margins = _eigensum_batch(S, k)
    scales = np.sqrt((S ** 2).sum(axis=(1, 2)))
    tol = MARGIN_TOL * scales
    best = (math.inf, None, None)
    if margins.size:
        i = int(np.argmin(margins))
        best = (float(margins[i]), P[i].copy(), X[i].copy())
    table = np.column_stack([P, X, margins, scales]) if keep_samples else None
    return (
        bool(np.any(margins < -tol)),
        bool(np.all(margins > tol)),
        best,
        margins.size,
        skipped,
        table,
    )


def _chunk_results(
    config: PointConfiguration,
    surface: BarrierSurface,
    k: int,
    sampling: ScanSampling,
    keep_samples: bool,
) -> Iterator[tuple]:
    """``_scan_chunk`` results in share order, computed on the scan pool
    with at most 2 * SCAN_THREADS shares in flight.  Each share runs in its
    own copy of the caller's context, so numpy's errstate and any context
    variables apply inside the workers.  When a share raises or the caller
    stops early, the unstarted shares are cancelled and the running ones
    finish before this returns."""
    pool = _scan_pool()
    pending: deque = deque()
    try:
        for P in _scan_params(surface, sampling):
            ctx = contextvars.copy_context()
            pending.append(pool.submit(ctx.run, _scan_chunk, config, surface, k, P, keep_samples))
            if len(pending) == 2 * SCAN_THREADS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def convexity_scan(
    config: PointConfiguration,
    surface: BarrierSurface,
    k: int,
    sampling: ScanSampling = ScanSampling(),
    keep_samples: bool = False,
) -> ConvexityReport:
    """Minimum k-eigensum of the lifted second fundamental form over a
    chart-wide sample set.

    Samples within the exclusion radius of a centre are skipped and counted;
    more than 50% skipped raises TooFewSamples.  The verdict applies
    MARGIN_TOL relative to each sample's Frobenius norm: StrictlyConvex when
    every margin clears +tol*scale, Violated when any falls below
    -tol*scale, Inconclusive otherwise.  Samples go in shares of at most
    SCAN_ROWS rows, a multiple of SCAN_THREADS of them, through
    ``_scan_chunk`` on a pool of SCAN_THREADS threads: memory is bounded by
    threads x SCAN_ROWS, not by the sample count, unless keep_samples asks
    for the table.  Results are combined in share order, so the first
    minimum wins, the report does not depend on thread scheduling, and the
    earliest failing share's exception is the one raised.
    """
    if k not in (1, 2, 3):
        raise InvalidK(f"k must be 1, 2 or 3, got {k}")
    if isinstance(surface, Plane):
        side = config.points @ surface.normal if config.k else np.zeros(0)
        if side.size and side.max() >= surface.offset - config.exclusion_radius:
            raise InvalidParams(
                "plane must strictly separate the centres from its normal side"
            )
    best = (math.inf, None, None)           # first minimum wins, as np.argmin
    samples = skipped = 0
    violated, strict = False, True
    tables = []
    for c_violated, c_strict, c_best, c_samples, c_skipped, table in _chunk_results(
        config, surface, k, sampling, keep_samples
    ):
        violated = violated or c_violated
        strict = strict and c_strict
        if c_best[0] < best[0]:
            best = c_best
        samples += c_samples
        skipped += c_skipped
        if keep_samples:
            tables.append(table)
    if samples < skipped:
        raise TooFewSamples(
            f"{skipped} of {samples + skipped} samples fell inside exclusion radii"
        )
    if violated:
        verdict = "Violated"
    elif strict:
        verdict = "StrictlyConvex"
    else:
        verdict = "Inconclusive"
    return ConvexityReport(
        k=k,
        min_eigensum=best[0],
        argmin_params=best[1],
        argmin_x=best[2],
        samples=samples,
        skipped=skipped,
        verdict=verdict,
        samples_table=np.vstack(tables) if keep_samples else None,
    )
