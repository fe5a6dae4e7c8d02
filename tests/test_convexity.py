"""Eigenvalue sums, the sampled-plane oracle and chart-wide convexity scans."""
from __future__ import annotations

import contextvars
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

import ghconvex.convexity as convexity_module
import ghconvex.potential as potential_module
import ghconvex.surfaces as surfaces_module

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
    eigvals3,
    k_smallest_eigensum,
    make_config,
    sylvester_positive,
)
from ghconvex.convexity import MARGIN_TOL, eigvals3_batch
from ghconvex.potential import CHUNK, PointConfiguration
from ghconvex.surfaces import chart_domain, lifted_sff_batch, surface_data_batch

from conftest import random_config, reference_jet


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
        np.testing.assert_allclose(eigvals3(S), np.linalg.eigvalsh(S), atol=1e-12)


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


def _scan_cases():
    """(config, surface, sampling, skipped) cases; no sample count is a
    multiple of CHUNK."""
    rng = np.random.default_rng(17)
    cfg = random_config(rng, k=5, mass=1.0, box=1.5)
    # a centre exactly on equatorial grid sample (5, 26): that sample is
    # skipped, and its violating neighbours all lie in the first chunk
    sphere = Sphere(3.0)
    grid_only = ScanSampling(grid=(41, 53), random=0)
    (lo0, hi0), (lo1, hi1) = chart_domain(sphere)
    cell = [[lo0 + (hi0 - lo0) * 5.5 / 41, lo1 + (hi1 - lo1) * 26.5 / 53]]
    on_surface = surface_data_batch(sphere, np.array(cell))[0][0]
    onto = PointConfiguration(
        cfg.mass, np.vstack([cfg.points, on_surface]), np.append(cfg.multiplicities, 1)
    )
    # 41 x 53 grid + 3000 draws: the grid ends inside the second chunk and
    # the draws continue into the partial third
    mixed = ScanSampling(grid=(41, 53), random=3000, seed=3)
    below = Plane((0.0, 0.0, 1.0), float(cfg.points[:, 2].max()) + 0.7, span=4.0)
    foci = MultiFociEllipsoid(rng.uniform(-1.0, 1.0, (3, 3)), 6.0)
    return [(onto, sphere, grid_only, 1), (cfg, below, mixed, 0), (cfg, foci, mixed, 0)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunked_scan_matches_single_pass(k):
    for cfg, surface, sampling, skips in _scan_cases():
        assert (sampling.grid[0] * sampling.grid[1] + sampling.random) % CHUNK
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


def _sphere50():
    rng = np.random.default_rng(50)
    cfg = random_config(rng, k=50, mass=0.0, max_mult=1)
    return cfg, Sphere(5.1 * float(np.linalg.norm(cfg.points, axis=1).max()))


def test_scan_memory_does_not_grow_with_samples():
    cfg, sphere = _sphere50()
    convexity_scan(cfg, sphere, 1, ScanSampling(grid=(8, 8), random=64))
    peaks = []
    for grid, random in (((128, 128), 10 ** 4), ((256, 256), 4 * 10 ** 4)):
        tracemalloc.start()
        try:
            convexity_scan(cfg, sphere, 1, ScanSampling(grid=grid, random=random))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


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
    cfg, sphere = _sphere50()
    n = 40 * 40 + 3000
    rep = convexity_scan(cfg, sphere, 2, ScanSampling(grid=(40, 40), random=3000))
    assert rep.samples + rep.skipped == n
    assert calls == [(min(CHUNK, n - lo), 1) for lo in range(0, n, CHUNK)]
    assert len(calls) == math.ceil(n / CHUNK)


def test_scan_repeats_byte_identical(monkeypatch):
    cfg, foci, sampling, _ = _scan_cases()[2]
    monkeypatch.setattr(convexity_module, "SCAN_THREADS", 1)
    first = convexity_scan(cfg, foci, 2, sampling, keep_samples=True)
    assert first.samples_table.shape[0] > 2 * CHUNK
    # more threads than cores, switching as often as the interpreter allows
    monkeypatch.setattr(convexity_module, "SCAN_THREADS", 8)
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
    """Map each chunk's first chart sample to the chunk's position."""
    starts = convexity_module._scan_params(surface, sampling)
    return {tuple(P[0]): i for i, P in enumerate(starts)}


def test_scan_raises_the_earliest_failing_chunk(monkeypatch):
    cfg = make_config(0.0, [((0.0, 0.0, 0.5), 1), ((0.3, 0.0, -0.4), 1)])
    sphere, sampling = Sphere(3.0), ScanSampling(grid=(100, 100), random=0)
    index = _chunk_index(sphere, sampling)
    assert len(index) >= 4
    original = convexity_module.surface_data_batch

    def failing(surface, P):
        i = index[tuple(P[0])]
        if i == 1:
            time.sleep(0.05)            # fails later in time than chunk 3
            raise SolverFailure("chunk 1")
        if i == 3:
            raise SolverFailure("chunk 3")
        return original(surface, P)

    monkeypatch.setattr(convexity_module, "surface_data_batch", failing)
    with pytest.raises(SolverFailure, match="chunk 1"):
        convexity_scan(cfg, sphere, 1, sampling)


def test_scan_chunks_run_in_the_callers_context(monkeypatch):
    var = contextvars.ContextVar("scan_test_var", default="unset")
    seen = []
    original = convexity_module.surface_data_batch

    def recording(surface, P):
        seen.append((var.get(), np.geterr()["under"]))
        return original(surface, P)

    monkeypatch.setattr(convexity_module, "surface_data_batch", recording)
    cfg, sphere = _sphere50()
    sampling = ScanSampling(grid=(40, 40), random=3000)
    token = var.set("caller")
    try:
        with np.errstate(under="warn"):
            rep = convexity_scan(cfg, sphere, 1, sampling)
    finally:
        var.reset(token)
    assert rep.samples + rep.skipped == 40 * 40 + 3000
    assert seen == [("caller", "warn")] * math.ceil((40 * 40 + 3000) / CHUNK)


def test_scan_propagates_solver_failure_from_a_worker(monkeypatch):
    monkeypatch.setattr(surfaces_module, "MULTIFOCI_SWEEPS", 2)
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    foci = MultiFociEllipsoid([[1.0, 0.0, 0.0], [-0.5, 0.8, 0.0], [-0.5, -0.8, 0.0]], 4.0)
    with pytest.raises(SolverFailure, match=r"on \d+ of \d+ rows"):
        convexity_scan(cfg, foci, 1, ScanSampling(grid=(64, 64), random=0))
