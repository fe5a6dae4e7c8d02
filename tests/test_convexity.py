"""Eigenvalue sums, the sampled-plane oracle and chart-wide convexity scans."""
from __future__ import annotations

import contextvars
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghconvex.convexity as convexity_module
import ghconvex.potential as potential_module
import ghconvex.rootfind as rootfind_module

from ghconvex import (
    InvalidK,
    InvalidParams,
    MultiFociEllipsoid,
    NotSymmetric,
    Plane,
    ScanSampling,
    SolverFailure,
    Sphere,
    TooFewSamples,
    TwoFociEllipsoid,
    brute_force_grassmannian_min,
    convexity_scan,
    k_smallest_eigensum,
    make_config,
    sylvester_positive,
)
from ghconvex.convexity import MARGIN_TOL, eigvals3_batch
from ghconvex.potential import PointConfiguration
from ghconvex.surfaces import chart_domain, lifted_sff_batch, surface_data_batch

from conftest import random_config, reference_jet, rotation


def random_symmetric(rng, n):
    S = rng.standard_normal((n, 3, 3))
    return 0.5 * (S + np.swapaxes(S, 1, 2))


def test_eigvals3_against_lapack():
    rng = np.random.default_rng(0)
    S = random_symmetric(rng, 500)
    got = eigvals3_batch(S)
    want = np.linalg.eigvalsh(S)
    scale = np.abs(want).max(axis=1, keepdims=True) + 1e-30
    assert np.abs(got - want).max() <= 1e-8
    assert (np.abs(got - want) / scale).max() <= 1e-10


def test_eigvals3_degenerate_spectra():
    cases = [
        np.eye(3),
        np.zeros((3, 3)),
        np.diag([2.0, 2.0, 2.0]),
        np.diag([1.0, 1.0, 5.0]),
        np.diag([-3.0, 1.0, 1.0]),
        np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]),  # rank one
        np.diag([1.0, 1.0 + 1e-14, 1.0 - 1e-14]),
    ]
    for S in cases:
        np.testing.assert_allclose(eigvals3_batch(S[None])[0], np.linalg.eigvalsh(S), atol=1e-12)


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-8, 1e-4])
def test_eigvals3_near_repeated_spectra(gap):
    # Q diag(lam, lam + gap, mu) Q^T against the spectrum it was built from
    rng = np.random.default_rng(11)
    for lam, mu in ((1.0, -2.0), (1.0, 3.0), (-0.5, 0.7), (0.0, 1.0), (5.0, -5.0)):
        Q, R = np.linalg.qr(rng.standard_normal((200, 3, 3)))
        Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
        S = Q @ np.diag([lam, lam + gap, mu]) @ np.swapaxes(Q, 1, 2)
        err = np.abs(eigvals3_batch(S) - np.sort([lam, lam + gap, mu])).max(axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(S, axis=(1, 2)))


def test_smallest_eigenvalue_is_the_closed_forms_first():
    # generic, clustered (LAPACK) and diagonal-like rows
    rng = np.random.default_rng(7)
    Q, R = np.linalg.qr(rng.standard_normal((300, 3, 3)))
    Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    S = np.concatenate([
        random_symmetric(rng, 300),
        Q @ np.diag([1.0, 1.0 + 1e-9, -2.0]) @ np.swapaxes(Q, 1, 2),
        np.eye(3) * rng.standard_normal((300, 1, 1)),
    ])
    got = convexity_module._smallest_eigvals3(S)
    assert got.tobytes() == eigvals3_batch(S)[:, 0].tobytes()


def test_eigensum_definitions():
    S = np.diag([3.0, -1.0, 2.0])
    assert k_smallest_eigensum(S, 1) == pytest.approx(-1.0)
    assert k_smallest_eigensum(S, 2) == pytest.approx(1.0)
    # the full sum is the trace, computed exactly
    assert k_smallest_eigensum(S, 3) == np.trace(S)
    for bad in (0, 4, -1):
        with pytest.raises(InvalidK):
            k_smallest_eigensum(S, bad)
    with pytest.raises(NotSymmetric):
        k_smallest_eigensum(np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]), 1)


def test_brute_force_upper_bounds_eigensum():
    rng = np.random.default_rng(1)
    for trial, S in enumerate(random_symmetric(rng, 30)):
        nrm = np.linalg.norm(S, 2)
        for k in (1, 2, 3):
            gap = brute_force_grassmannian_min(S, k, 10 ** 4, seed=trial) - (
                k_smallest_eigensum(S, k)
            )
            assert 0.0 <= gap <= 1e-2 * nrm
    with pytest.raises(InvalidParams):
        brute_force_grassmannian_min(np.eye(3), 1, 100)


def test_brute_force_k3_is_exact():
    rng = np.random.default_rng(2)
    S = random_symmetric(rng, 1)[0]
    assert brute_force_grassmannian_min(S, 3, 10 ** 4) == k_smallest_eigensum(S, 3)


def test_brute_force_nested_samples_improve():
    rng = np.random.default_rng(3)
    S = random_symmetric(rng, 1)[0]
    for k in (1, 2):
        prev = np.inf
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            cur = brute_force_grassmannian_min(S, k, n, seed=5)
            assert cur <= prev + 1e-15  # sample sets are nested in n
            prev = cur


def test_sylvester_equals_positive_definiteness():
    rng = np.random.default_rng(4)
    S = random_symmetric(rng, 400)
    lam = np.linalg.eigvalsh(S)[:, 0]
    keep = np.abs(lam) > 1e-10
    for Si, li in zip(S[keep], lam[keep]):
        assert sylvester_positive(Si) == (li > 0)


def test_scan_flat_sphere_strictly_convex():
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    rep = convexity_scan(cfg, Sphere(1.0), 1, ScanSampling(grid=(48, 48), random=1000))
    assert rep.verdict == "StrictlyConvex"
    assert rep.min_eigensum == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)
    assert rep.skipped == 0


def test_scan_two_foci_ellipsoid_strictly_convex():
    cfg = make_config(0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
    rep = convexity_scan(
        cfg, TwoFociEllipsoid(1.0, 0.5), 1, ScanSampling(grid=(48, 48), random=1000)
    )
    assert rep.verdict == "StrictlyConvex"
    assert rep.min_eigensum > 0


def test_scan_three_foci_violation():
    side = 2.0
    h = side / np.sqrt(3.0)
    foci = [[h, 0, 0], [-h / 2, side / 2, 0], [-h / 2, -side / 2, 0]]
    cfg = make_config(0.0, [(f, 1) for f in foci])
    rep = convexity_scan(
        cfg,
        MultiFociEllipsoid(foci, 3.6),
        1,
        ScanSampling(grid=(64, 64), random=2000),
    )
    assert rep.verdict == "Violated"
    assert rep.min_eigensum < -1e-3


def test_scan_seed_stable_verdict():
    rng = np.random.default_rng(5)
    cfg = random_config(rng, k=3, mass=0.0, box=1.0)
    r = 3.0 * max(np.linalg.norm(p) for p in cfg.points)
    verdicts = set()
    for seed in range(5):
        rep = convexity_scan(
            cfg, Sphere(r), 1, ScanSampling(grid=(32, 32), random=500, seed=seed)
        )
        verdicts.add(rep.verdict)
    assert verdicts == {"StrictlyConvex"}


def test_scan_report_contents():
    cfg = make_config(0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
    sampling = ScanSampling(grid=(16, 16), random=100)
    rep = convexity_scan(cfg, Sphere(4.0), 2, sampling, keep_samples=True)
    assert rep.k == 2
    assert rep.samples + rep.skipped == 16 * 16 + 100
    assert rep.samples_table.shape == (rep.samples, 7)
    assert rep.argmin_x.shape == (3,)
    # argmin row is present in the table with the minimal margin
    assert rep.samples_table[:, 5].min() == pytest.approx(rep.min_eigensum)
    d = rep.to_dict()
    assert d["verdict"] == rep.verdict and d["k"] == 2


def test_scan_rejects_bad_inputs():
    cfg = make_config(0.0, [((0, 0, 0.0), 1)])
    with pytest.raises(InvalidK):
        convexity_scan(cfg, Sphere(1.0), 4)
    # plane through a centre cannot separate
    with pytest.raises(InvalidParams):
        convexity_scan(cfg, Plane((0, 0, 1), 0.0), 1)
    # a sphere entirely inside the exclusion radius leaves no valid samples
    tiny = 0.1 * cfg.exclusion_radius
    with pytest.raises(TooFewSamples):
        convexity_scan(cfg, Sphere(tiny), 1, ScanSampling(grid=(8, 8), random=50))
    with pytest.raises(InvalidParams, match="random sample count must be >= 0, got -5"):
        convexity_scan(cfg, Sphere(2.0), 1, ScanSampling(grid=(8, 8), random=-5))


def _reference_scan(config, surface, k, sampling):
    """convexity_scan in one pass over all samples, with the reference jet."""
    (lo0, hi0), (lo1, hi1) = chart_domain(surface)
    g0, g1 = sampling.grid
    p0 = lo0 + (hi0 - lo0) * (np.arange(g0) + 0.5) / g0
    p1 = lo1 + (hi1 - lo1) * (np.arange(g1) + 0.5) / g1
    P = np.stack(np.meshgrid(p0, p1, indexing="ij"), axis=-1).reshape(-1, 2)
    R = np.random.default_rng(sampling.seed).random((sampling.random, 2))
    R[:, 0] = lo0 + (hi0 - lo0) * R[:, 0]
    eps1 = 1e-9 * (hi1 - lo1)
    R[:, 1] = np.clip(lo1 + (hi1 - lo1) * R[:, 1], lo1 + eps1, hi1 - eps1)
    P = np.vstack([P, R])
    X, U, V, NU, SFF, _ = surface_data_batch(surface, P)
    dmin = np.linalg.norm(X[:, None, :] - config.points[None, :, :], axis=2).min(axis=1)
    ok = dmin > config.exclusion_radius
    vals, grads, _ = reference_jet(config.mass, config.points, config.multiplicities, X[ok])
    S = lifted_sff_batch(config, X[ok], U[ok], V[ok], NU[ok], SFF[ok], jet=(vals, grads))
    lam = np.linalg.eigvalsh(S)
    margins = lam[:, :k].sum(axis=1) if k < 3 else np.trace(S, axis1=1, axis2=2)
    scales = np.linalg.norm(S, axis=(1, 2))
    tol = MARGIN_TOL * scales
    if np.any(margins < -tol):
        verdict = "Violated"
    elif np.all(margins > tol):
        verdict = "StrictlyConvex"
    else:
        verdict = "Inconclusive"
    return verdict, margins, scales, np.column_stack([P[ok], X[ok]]), int((~ok).sum())


def _share_count(n):
    """Shares of an n-sample scan by the documented rule."""
    threads = convexity_module.SCAN_THREADS
    return threads * math.ceil(n / (threads * convexity_module.SCAN_ROWS))


def _scan_cases():
    """(config, surface, sampling, skipped) cases; on 3 threads no sample
    count splits into equal shares."""
    rng = np.random.default_rng(17)
    cfg = random_config(rng, k=5, mass=1.0, box=1.5)
    # a centre exactly on equatorial grid sample (5, 26): that sample is
    # skipped, and its violating neighbours all lie in the first share
    sphere = Sphere(3.0)
    grid_only = ScanSampling(grid=(41, 53), random=0)
    (lo0, hi0), (lo1, hi1) = chart_domain(sphere)
    cell = [[lo0 + (hi0 - lo0) * 5.5 / 41, lo1 + (hi1 - lo1) * 26.5 / 53]]
    on_surface = surface_data_batch(sphere, np.array(cell))[0][0]
    onto = PointConfiguration(
        cfg.mass, np.vstack([cfg.points, on_surface]), np.append(cfg.multiplicities, 1)
    )
    # 41 x 53 grid + 3000 draws: on 3 threads the grid ends inside the
    # second share and the draws continue into the third
    mixed = ScanSampling(grid=(41, 53), random=3000, seed=3)
    below = Plane((0.0, 0.0, 1.0), float(cfg.points[:, 2].max()) + 0.7, span=4.0)
    foci = MultiFociEllipsoid(rng.uniform(-1.0, 1.0, (3, 3)), 6.0)
    return [(onto, sphere, grid_only, 1), (cfg, below, mixed, 0), (cfg, foci, mixed, 0)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunked_scan_matches_single_pass(k, monkeypatch):
    monkeypatch.setattr(convexity_module, "SCAN_THREADS", 3)
    for cfg, surface, sampling, skips in _scan_cases():
        shares = [P.shape[0] for P in convexity_module._scan_params(surface, sampling)]
        assert len(shares) == 3 and len(set(shares)) == 2
        rep = convexity_scan(cfg, surface, k, sampling, keep_samples=True)
        verdict, margins, scales, PX, skipped = _reference_scan(cfg, surface, k, sampling)
        assert rep.verdict == verdict
        assert (rep.samples, rep.skipped) == (margins.size, skipped)
        assert skipped == skips
        i = int(np.argmin(margins))
        np.testing.assert_array_equal(rep.argmin_params, PX[i, :2])
        np.testing.assert_array_equal(rep.argmin_x, PX[i, 2:])
        assert abs(rep.min_eigensum - margins[i]) <= 1e-12 * scales[i]
        table = rep.samples_table
        np.testing.assert_array_equal(table[:, :5], PX)
        assert np.all(np.abs(table[:, 5] - margins) <= 1e-12 * scales)
        np.testing.assert_allclose(table[:, 6], scales, rtol=1e-12)


def _far_sphere(k=50):
    rng = np.random.default_rng(k)
    cfg = random_config(rng, k=k, mass=0.0, max_mult=1)
    return cfg, Sphere(5.1 * float(np.linalg.norm(cfg.points, axis=1).max()))


def _traced_peak(cfg, sphere, sampling):
    tracemalloc.start()
    try:
        convexity_scan(cfg, sphere, 1, sampling)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_samples():
    cfg, sphere = _far_sphere()
    convexity_scan(cfg, sphere, 1, ScanSampling(grid=(8, 8), random=64))
    small, large = ScanSampling(), ScanSampling(grid=(256, 256), random=4 * 10 ** 4)
    peaks = [_traced_peak(cfg, sphere, sampling) for sampling in (small, large)]
    assert peaks[1] <= 1.2 * peaks[0]
    # nor with the centre count: kernel blocks hold a fixed number of entries
    assert _traced_peak(*_far_sphere(200), small) <= 1.2 * peaks[0]


def test_scan_runs_one_jet_pass_per_chunk(monkeypatch):
    calls = []
    kernel = potential_module.jet

    def counted(mass, points, multiplicities, xs, order=2):
        calls.append((np.atleast_2d(xs).shape[0], order))
        return kernel(mass, points, multiplicities, xs, order)

    def forbidden(*args, **kwargs):
        raise AssertionError("separate exclusion or jet pass")

    # every binding of the kernel, and the routes that would check again
    monkeypatch.setattr(potential_module, "jet", counted)
    monkeypatch.setattr(convexity_module, "jet", counted)
    monkeypatch.setattr(PointConfiguration, "min_centre_distance", forbidden)
    monkeypatch.setattr("ghconvex.surfaces.phi_jet_batch", forbidden)
    cfg, sphere = _far_sphere()
    # more shares than threads, at up to 4 threads
    n, sampling = 150 * 150 + 12000, ScanSampling(grid=(150, 150), random=12000)
    rep = convexity_scan(cfg, sphere, 2, sampling)
    assert rep.samples + rep.skipped == n
    shares = [P.shape[0] for P in convexity_module._scan_params(sphere, sampling)]
    assert len(shares) == _share_count(n) > convexity_module.SCAN_THREADS
    assert sum(shares) == n and max(shares) - min(shares) <= 1
    assert max(shares) <= convexity_module.SCAN_ROWS
    # pool threads may record their calls out of share order; the order the
    # results are combined in is test_scan_repeats_byte_identical's subject
    assert sorted(calls) == sorted((rows, 1) for rows in shares)


def test_scan_repeats_byte_identical(monkeypatch):
    cfg, foci, sampling, _ = _scan_cases()[2]
    monkeypatch.setattr(convexity_module, "SCAN_THREADS", 1)
    first = convexity_scan(cfg, foci, 2, sampling, keep_samples=True)
    # eight shares against one, on more threads than cores, switching as
    # often as the interpreter allows
    monkeypatch.setattr(convexity_module, "SCAN_THREADS", 8)
    assert len(list(convexity_module._scan_params(foci, sampling))) == 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reps = [convexity_scan(cfg, foci, 2, sampling, keep_samples=True) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for rep in reps:
        assert rep.samples_table.tobytes() == first.samples_table.tobytes()
        assert rep.argmin_params.tobytes() == first.argmin_params.tobytes()
        assert rep.argmin_x.tobytes() == first.argmin_x.tobytes()
        assert (rep.min_eigensum, rep.verdict) == (first.min_eigensum, first.verdict)


def _chunk_index(surface, sampling):
    """Map each share's first chart sample to the share's position."""
    starts = convexity_module._scan_params(surface, sampling)
    return {tuple(P[0]): i for i, P in enumerate(starts)}


def test_scan_raises_the_earliest_failing_chunk(monkeypatch):
    cfg = make_config(0.0, [((0.0, 0.0, 0.5), 1), ((0.3, 0.0, -0.4), 1)])
    sphere, sampling = Sphere(3.0), ScanSampling(grid=(200, 200), random=0)
    monkeypatch.setattr(convexity_module, "SCAN_THREADS", 4)
    index = _chunk_index(sphere, sampling)
    assert len(index) == 8              # four queued behind the first four
    original = convexity_module.surface_data_batch
    finished = []

    def failing(surface, P):
        i = index[tuple(P[0])]
        try:
            if i == 1:
                time.sleep(0.05)        # fails later in time than chunk 3
                raise SolverFailure("chunk 1")
            if i == 3:
                raise SolverFailure("chunk 3")
            if i >= 4:
                time.sleep(0.05)        # still queued or running at the failure
            return original(surface, P)
        finally:
            finished.append(i)

    monkeypatch.setattr(convexity_module, "surface_data_batch", failing)
    pools = []
    for _ in range(2):
        with pytest.raises(SolverFailure, match="chunk 1"):
            convexity_scan(cfg, sphere, 1, sampling)
        # every share of the failed scan was cancelled or has finished
        done = len(finished)
        time.sleep(0.2)
        assert len(finished) == done
        pools.append(convexity_module._scan_pool())
    assert pools[0] is pools[1]
    monkeypatch.setattr(convexity_module, "SCAN_THREADS", 3)
    assert convexity_module._scan_pool() is not pools[0]


def _report_bytes(rep):
    return json.dumps(rep.to_dict()).encode() + rep.argmin_x.tobytes()


def _scan_in_child(writer):
    writer.send_bytes(_report_bytes(convexity_scan(*_far_sphere(20), 1)))
    writer.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_scan_runs_in_a_forked_child():
    """A child forked after a scan inherits the pool object but none of its
    threads; its own scan must start a pool of its own, not wait forever."""
    expected = _report_bytes(convexity_scan(*_far_sphere(20), 1))
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_scan_in_child, args=(writer,))
    child.start()
    try:
        child.join(60)
        assert not child.is_alive() and child.exitcode == 0
        assert reader.recv_bytes() == expected
    finally:
        if child.is_alive():
            child.kill()
            child.join()


class _FakeLibc:
    """A C library with mallopt that records its calls; glibc when it has
    gnu_get_libc_version."""

    def __init__(self, glibc):
        self.calls = []
        self.mallopt = lambda param, value: self.calls.append((param, value))
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"


def test_malloc_thresholds_are_pinned_on_glibc_alone(monkeypatch):
    for name in convexity_module._MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    other, glibc = _FakeLibc(False), _FakeLibc(True)
    for libc in (other, glibc):
        monkeypatch.setattr(convexity_module.ctypes, "CDLL", lambda name, libc=libc: libc)
        convexity_module._pin_malloc_thresholds()
    assert other.calls == []
    assert glibc.calls == [(-3, 4 << 20), (-1, 8 << 20)]
    # an environment that tunes malloc itself is left to do so
    for name in convexity_module._MALLOC_ENV:
        monkeypatch.setenv(name, "1")
        convexity_module._pin_malloc_thresholds()
        monkeypatch.delenv(name)
    assert len(glibc.calls) == 2


_FAULT_PROBE = """
import resource
import numpy as np
from ghconvex import Sphere, convexity_scan, make_config

points = np.random.default_rng(50).uniform(-3.0, 3.0, (50, 3))
cfg = make_config(0.0, [(p, 1) for p in points])
sphere = Sphere(5.1 * float(np.linalg.norm(points, axis=1).max()))
convexity_scan(cfg, sphere, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    convexity_scan(cfg, sphere, 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy applies to glibc only")
def test_warm_scans_fault_in_no_pages():
    """After one scan, pool threads reuse their heaps: three more default
    50-centre scans take almost no minor faults (about 5k when glibc trims
    each thread's heap after every share).  A fresh interpreter, so that no
    earlier allocation has moved glibc's thresholds."""
    env = {name: value for name, value in os.environ.items()
           if name not in convexity_module._MALLOC_ENV}
    src = os.path.dirname(os.path.dirname(convexity_module.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    assert int(probe.stdout) < 300


def test_scan_chunks_run_in_the_callers_context(monkeypatch):
    var = contextvars.ContextVar("scan_test_var", default="unset")
    seen = []
    original = convexity_module.surface_data_batch

    def recording(surface, P):
        seen.append((var.get(), np.geterr()["under"]))
        return original(surface, P)

    monkeypatch.setattr(convexity_module, "surface_data_batch", recording)
    cfg, sphere = _far_sphere()
    sampling = ScanSampling(grid=(40, 40), random=3000)
    token = var.set("caller")
    try:
        with np.errstate(under="warn"):
            rep = convexity_scan(cfg, sphere, 1, sampling)
    finally:
        var.reset(token)
    assert rep.samples + rep.skipped == 40 * 40 + 3000
    assert seen == [("caller", "warn")] * _share_count(40 * 40 + 3000)


def test_scan_propagates_solver_failure_from_a_worker(monkeypatch):
    monkeypatch.setattr(rootfind_module, "MAX_STEPS", 2)
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    foci = MultiFociEllipsoid([[1.0, 0.0, 0.0], [-0.5, 0.8, 0.0], [-0.5, -0.8, 0.0]], 4.0)
    with pytest.raises(SolverFailure, match=r"on \d+ of \d+ rows"):
        convexity_scan(cfg, foci, 1, ScanSampling(grid=(64, 64), random=0))


def test_scan_threads_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(convexity_module.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert convexity_module._usable_cpus() == 1
    # platforms without an affinity call fall back to the host's count
    monkeypatch.delattr(convexity_module.os, "sched_getaffinity")
    monkeypatch.setattr(convexity_module.os, "cpu_count", lambda: 6)
    assert convexity_module._usable_cpus() == 6


_TRIANGLE = np.array([[2.0 / math.sqrt(3.0), 0.0, 0.0], [-1.0 / math.sqrt(3.0), 1.0, 0.0],
                      [-1.0 / math.sqrt(3.0), -1.0, 0.0]])
_AXIS_PAIR = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
# the paper's symmetric configurations: (centres, surface around them)
SYMMETRIC = {
    "sphere": (_AXIS_PAIR, lambda foci: Sphere(3.0)),
    "two-foci": (_AXIS_PAIR, lambda foci: MultiFociEllipsoid(foci, 3.0)),
    "three-foci": (_TRIANGLE, lambda foci: MultiFociEllipsoid(foci, 3.6)),   # criterion 7
}


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(case=st.sampled_from(sorted(SYMMETRIC)), k=st.integers(1, 3),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-6),
       angle=st.floats(0.0, 1e-6))
def test_scan_verdict_survives_tiny_rotations(case, k, axis, angle):
    """Turning centres and surface together by at most 1e-6 rad keeps the
    scan's verdict.  The chart samples stay where they are while the
    geometry turns, so each sees the field at a point moved by up to
    angle * |x|: the minimum moves in proportion to the angle, by at most
    0.023 angle * scale in these cases, on top of 1e-12 scale of rounding."""
    points, surface = SYMMETRIC[case]
    u = np.asarray(axis) / np.linalg.norm(axis)
    Q = rotation((math.cos(0.5 * angle), *(math.sin(0.5 * angle) * u)))
    sampling = ScanSampling(grid=(64, 64), random=2000)
    base = convexity_scan(make_config(0.0, [(p, 1) for p in points]), surface(points), k,
                          sampling, keep_samples=True)
    moved = points @ Q.T
    turned = convexity_scan(make_config(0.0, [(p, 1) for p in moved]), surface(moved), k, sampling)
    scale = base.samples_table[int(np.argmin(base.samples_table[:, 5])), 6]
    assert turned.verdict == base.verdict
    assert abs(turned.min_eigensum - base.min_eigensum) <= (1e-12 + 0.1 * angle) * scale
