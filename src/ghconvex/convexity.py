"""k-convexity engine: eigenvalue sums and surface-wide scans.

A hypersurface is k-convex at a point when the sum of the k smallest
eigenvalues of its (lifted) second fundamental form is nonnegative; that sum
equals the infimum of Tr_W S over k-planes W.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidK, InvalidParams, NonFiniteEigensum, NotSymmetric, TooFewSamples
from .potential import PointConfiguration, _count, jet
from .surfaces import (
    BarrierSurface,
    Plane,
    _chart_trig,
    _check_params,
    _frame_dots,
    _lifted_entries,
    _surface_data,
    _sym3,
    chart_domain,
)

__all__ = [
    "ConvexityReport",
    "ScanSampling",
    "k_smallest_eigensum",
    "eigvals3_batch",
    "convexity_scan",
]

MARGIN_TOL = 1e-9  # relative to ||S||: below this a verdict is Inconclusive
# eigvals3_batch sends rows with 1 - |r| below this to LAPACK; above it the
# arccos form's error, ~eps / sqrt(1 - |r|), stays near 1e-13 ||S||
CLUSTER_TOL = 1e-6


# where Linux mounts the cgroup hierarchy: v2's cpu.max, or v1's cpu/ files
_CGROUP = "/sys/fs/cgroup"


def _quota_cpus() -> Optional[int]:
    """CPUs the cgroup CPU quota grants, quota / period rounded up: v2's
    cpu.max, else v1's cpu.cfs_quota_us and cpu.cfs_period_us.  None where
    neither can be read or the quota is unlimited ("max" or -1)."""
    for files in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        fields: list = []
        try:
            for name in files:
                with open(os.path.join(_CGROUP, name)) as f:
                    fields += f.read().split()
            quota, period = int(fields[0]), int(fields[1])
        except OSError:
            continue
        except (ValueError, IndexError):                # "max", or not numbers
            break
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    exposes one, else the host's CPU count, capped by a cgroup CPU quota."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    quota = _quota_cpus()
    return cpus if quota is None else min(cpus, quota)


# Threads convexity_scan runs its shares on: numpy releases the GIL inside
# its loops, so shares overlap on separate cores
SCAN_THREADS = min(4, _usable_cpus())

# Most rows in one scan share.  The samples split into a multiple of
# SCAN_THREADS near-equal shares of at most SCAN_ROWS rows, each one task and
# one jet call: few tasks keep the GIL-held numpy call overhead low, and the
# cap keeps the memory in flight independent of the sample count.  The
# default 26 384 samples run as one share per thread on 2 threads.
SCAN_ROWS = 16384

# glibc's mallopt parameters, and the mmap threshold the scan pool pins:
# arrays below it come from the threads' heaps and stay mapped between
# shares.  4 MiB covers the kernel's largest workspace, 6 * BLOCK doubles =
# 1.5 MiB, and a share's largest array, its kept table of SCAN_ROWS * 7
# doubles = 896 KiB.  The trim threshold is twice it, glibc's own ratio when
# it moves the threshold itself.  Left dynamic, the threshold follows the
# largest block freed, each share frees more than twice that, and glibc
# trims the heap that the next share faults back in.
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


def _eigvals3(upper: tuple, top: bool = False) -> tuple:
    """Ascending eigenvalues of symmetric 3x3 rows from their upper entries
    (a00, a11, a22, a01, a02, a12), 1-D arrays: the smallest, or with top
    all three, as a tuple of arrays.  Every route reads only these entries,
    so a row's lower triangle counts as the mirror of its upper one.

    Trigonometric closed form: mean q, spread p and angle phi, so the
    eigenvalues are q + 2p cos(phi + 2j pi/3).  Rows with all eigenvalues q
    (diag-like) get exactly q; rows whose characteristic discriminant is
    near zero (1 - |r| < CLUSTER_TOL, clustered eigenvalues), where the
    arccos loses digits, go to LAPACK in one call, the only rows assembled
    into matrices."""
    a00, a11, a22, a01, a02, a12 = upper
    q = (a00 + a11 + a22) / 3.0
    p = (a00 - q) ** 2 + (a11 - q) ** 2 + (a22 - q) ** 2 + 2.0 * (a01 ** 2 + a02 ** 2 + a12 ** 2)
    p = np.sqrt(p / 6.0)
    # max |a_ij| as a running elementwise maximum: the same bits as numpy's
    # reduction over the two tiny axes, at a fifth of its time
    scale = np.abs(a00)
    for e in (a01, a02, a11, a12, a22):
        np.maximum(scale, np.abs(e), out=scale)
    diag_like = p <= 1e-14 * np.maximum(1e-300, scale, out=scale)
    safe_p = np.where(p > 0.0, p, 1.0)
    b00, b11, b22 = (a00 - q) / safe_p, (a11 - q) / safe_p, (a22 - q) / safe_p
    b01, b02, b12 = a01 / safe_p, a02 / safe_p, a12 / safe_p
    del scale, safe_p
    r = (
        b00 * (b11 * b22 - b12 ** 2)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    del b00, b01, b02, b11, b12, b22
    r /= 2.0
    np.clip(r, -1.0, 1.0, out=r)
    # In exact arithmetic |r| <= 1; rows near the boundary have a
    # (near-)repeated eigenvalue and get the LAPACK treatment instead.
    clustered = (~diag_like) & (1.0 - np.abs(r) < CLUSTER_TOL)
    phi = np.arccos(r, out=r)
    phi /= 3.0
    p *= 2.0
    lo = q + p * np.cos(phi + 2.0 * math.pi / 3.0)
    lam: tuple = (lo,)
    if top:
        hi = q + p * np.cos(phi, out=phi)
        lam = (lo, 3.0 * q - hi - lo, hi)
    for e in lam:
        e[diag_like] = q[diag_like]
    if clustered.any():
        exact = np.linalg.eigvalsh(_sym3([a[clustered] for a in upper]))
        for j, e in enumerate(lam):
            e[clustered] = exact[:, j]
    return lam


def _entries(S: np.ndarray) -> tuple:
    """Upper entries of (N, 3, 3) rows, as ``_eigvals3`` reads them."""
    return S[:, 0, 0], S[:, 1, 1], S[:, 2, 2], S[:, 0, 1], S[:, 0, 2], S[:, 1, 2]


def eigvals3_batch(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric (N, 3, 3) input from its upper
    triangle, shape (N, 3): ``_eigvals3``'s closed form, LAPACK on clustered rows."""
    S = np.asarray(S, dtype=float)
    return np.stack(_eigvals3(_entries(S), top=True), axis=1)


def _frobenius(entries: tuple) -> np.ndarray:
    """Frobenius norms of symmetric rows from their entries (a00, a11, a22,
    a01, a02, a12), with the bits of np.sqrt((S ** 2).sum(axis=(1, 2))):
    numpy sums a row's squares, row-major s0 .. s8, as
    ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)) + s8."""
    a00, a11, a22, a01, a02, a12 = (e ** 2 for e in entries)
    return np.sqrt(((a00 + a01) + (a02 + a01)) + ((a11 + a12) + (a02 + a12)) + a22)


def k_smallest_eigensum(S: np.ndarray, k: int) -> float:
    """Sum of the k smallest eigenvalues of a symmetric 3x3 matrix.

    k = 3 returns the trace directly (exact identity), so comparisons with
    trace-based oracles carry no eigenvalue round-off.  Reads the upper triangle.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (3, 3):
        raise InvalidParams(f"matrix must be 3x3, got {S.shape}")
    if not np.all(np.isfinite(S)):
        raise InvalidParams("matrix must be finite")
    if float(np.abs(S - S.T).max()) > 1e-12 * float(np.abs(S).max()):
        raise NotSymmetric("matrix is not symmetric within 1e-12 of its largest entry")
    if k not in (1, 2, 3):
        raise InvalidK(f"k must be 1, 2 or 3, got {k}")
    return float(_eigensum(_entries(S[None]), k)[0])


def _eigensum(upper: tuple, k: int) -> np.ndarray:
    """k_smallest_eigensum of each row given by its upper entries, as ``_eigvals3``."""
    if k == 3:
        return upper[0] + upper[1] + upper[2]
    lam = _eigvals3(upper, top=k == 2)
    return lam[0] if k == 1 else lam[0] + lam[1]


@dataclass(frozen=True)
class ScanSampling:
    """Sampling plan for convexity_scan: grid dims, extra random count, seed, as Python ints."""

    grid: tuple[int, int] = (128, 128)
    random: int = 10 ** 4
    seed: int = 0

    def __post_init__(self) -> None:
        grid = tuple(self.grid) if isinstance(self.grid, (tuple, list)) else ()
        if len(grid) != 2:
            raise InvalidParams(f"grid must be two dims, got {self.grid!r}")
        object.__setattr__(self, "grid", tuple(_count(g, 1, "grid dims") for g in grid))
        object.__setattr__(self, "random", _count(self.random, 0, "random sample count"))
        object.__setattr__(self, "seed", _count(self.seed, 0, "seed"))


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


# (key, ((P, trig), ...)) of the last scan kept by _chunk_results, read-only;
# replaced whole, so concurrent scans and forked children read it unlocked
_plan: tuple = (None, ())


def _scan_chunk(
    config: PointConfiguration, surface: BarrierSurface, k: int, share, keep_samples: bool
) -> tuple:
    """One share of convexity_scan: surface data, one order-1 jet pass (its
    nearest-centre distance is the exclusion check), the lift and the
    eigensum.  ``share`` is (P, P's ``_chart_trig``), or [P, None] to check P
    and make its trig into share[1] here, both read-only.  Returns (violated,
    strict, (min, P_i, X_i), samples, skipped, nonfinite, table), nonfinite
    counting the kept samples whose eigensum is not finite.  Floating-point
    warnings are off: a sample whose arithmetic leaves the float range shows
    as a non-finite eigensum, which convexity_scan raises by name."""
    P, trig = share
    if trig is None:
        _check_params(surface, P)
        share[1] = trig = _chart_trig(P)
        for a in (P, *trig):
            a.setflags(write=False)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        X, frames = _surface_data(surface, P, trig)
        dmin, _, vals, grads, _ = jet(config.mass, config.points, config.multiplicities, X, 1)
        ok = dmin > config.exclusion_radius
        del dmin
        U, V, NU, SFF, _ = frames()
        skipped = P.shape[0] - int(np.count_nonzero(ok))
        if skipped:
            P, X, U, V, NU, SFF, vals, grads = (a[ok] for a in (P, X, U, V, NU, SFF, vals, grads))
        dots = _frame_dots(grads, U, V, NU)
        del U, V, NU, grads
        entries = _lifted_entries(vals, *dots, SFF)
        del SFF, vals, dots
        margins = _eigensum(entries, k)
        scales = _frobenius(entries)
    big = ~np.isfinite(scales)
    if big.any():
        # the squares overflow on tiny surfaces: hypot scales as it goes
        scales[big] = np.hypot.reduce(_sym3([e[big] for e in entries]).reshape(-1, 9), axis=1)
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
        margins.size - int(np.count_nonzero(np.isfinite(margins))),
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
    finish before this returns.  The shares and their chart trig come from
    the memo ``_plan`` when its key matches; otherwise a plan of at most
    SCAN_THREADS * SCAN_ROWS samples becomes the memo once it has finished."""
    global _plan
    pool = _scan_pool()
    key = (chart_domain(surface), sampling.grid, sampling.random, sampling.seed, SCAN_THREADS, SCAN_ROWS)
    memo = _plan                                        # one read: scans may race
    hit = memo[0] == key
    plan = memo[1] if hit else ([P, None] for P in _scan_params(surface, sampling))
    keep = not hit and sampling.grid[0] * sampling.grid[1] + sampling.random <= SCAN_THREADS * SCAN_ROWS
    pending: deque = deque()
    kept = []
    try:
        for share in plan:
            ctx = contextvars.copy_context()
            pending.append(pool.submit(ctx.run, _scan_chunk, config, surface, k, share, keep_samples))
            if keep:
                kept.append(share)
            if len(pending) == 2 * SCAN_THREADS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)
    if keep:
        _plan = (key, tuple(tuple(share) for share in kept))


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
    more than 50% skipped raises TooFewSamples, and a kept sample whose
    k-eigensum is not finite raises NonFiniteEigensum.  The verdict applies
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
    samples = skipped = nonfinite = 0
    violated, strict = False, True
    tables = []
    for c_violated, c_strict, c_best, c_samples, c_skipped, c_nonfinite, table in _chunk_results(
        config, surface, k, sampling, keep_samples
    ):
        violated = violated or c_violated
        strict = strict and c_strict
        if c_best[0] < best[0]:
            best = c_best
        samples += c_samples
        skipped += c_skipped
        nonfinite += c_nonfinite
        if keep_samples:
            tables.append(table)
    if samples < skipped:
        raise TooFewSamples(
            f"{skipped} of {samples + skipped} samples fell inside exclusion radii"
        )
    if nonfinite:
        raise NonFiniteEigensum(
            f"the {k}-eigensum overflows the float range at {nonfinite} of {samples} samples"
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
