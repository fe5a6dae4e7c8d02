"""Acceptance gate: eleven pinned criteria, one printed line each.

Each criterion prints a single [PASS]/[FAIL] line on the real stdout so the
verdicts survive pytest's capture, then asserts.
"""
from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from ghconvex import (
    MultiFociEllipsoid,
    ScanSampling,
    SegmentSurface,
    Sphere,
    TwoFociEllipsoid,
    constant_C,
    constant_Rk,
    convexity_scan,
    counterexample_closed_form,
    counterexample_config,
    cylinder_hyp_margin_batch,
    cylinder_threshold,
    ellipsoid_inequalities,
    find_critical_points,
    gaussian_curvature_direct_batch,
    gradient_scale,
    k_smallest_eigensum,
    lifted_sff,
    make_config,
    mn_decomposition_batch,
    phi_jet,
    sphere_codim2_margins_batch,
    sphere_hyp_margin_batch,
    sphere_threshold,
    surface_point,
)

from conftest import grassmannian_minima, points_away, random_config, sylvester_positive
from test_potential import fd_jet, fd_steps, jet_scales


RESULTS: list[str] = []


@contextmanager
def criterion(num, desc):
    info = {}
    try:
        yield info
    except BaseException:
        line = f"[FAIL] criterion {num:2d}: {desc}"
        RESULTS.append(line)
        print(line, file=sys.__stdout__, flush=True)
        raise
    extra = f"  ({info['note']})" if "note" in info else ""
    line = f"[PASS] criterion {num:2d}: {desc}{extra}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def unit_dirs(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_criterion_01_constant_C():
    with criterion(1, "constant_C in [5.06, 5.08], residual < 1e-9, < 1 ms") as info:
        constant_C()  # warm-up
        t0 = time.perf_counter()
        C = constant_C()
        dt = time.perf_counter() - t0
        assert 5.06 <= C <= 5.08
        residual = abs(-C ** 3 + 4 * C ** 2 + 5 * C + 2)
        assert residual < 1e-9
        assert dt < 1e-3
        info["note"] = f"C={C:.10f}, residual={residual:.1e}, {dt * 1e6:.0f} us"


def test_criterion_02_constant_Rk():
    with criterion(2, "R_k > 4 for k in 2..20 and R_2 = (16+sqrt(288))/8 to 1e-10") as info:
        values = [constant_Rk(k) for k in range(2, 21)]
        assert all(v > 4.0 for v in values)
        err = abs(constant_Rk(2) - (16.0 + np.sqrt(288.0)) / 8.0)
        assert err < 1e-10
        info["note"] = f"R_2 err={err:.1e}, max R_k={max(values):.4f}"


def test_criterion_03_eguchi_hanson_curvature():
    with criterion(
        3, "two-centre K(t) = 1 +- 1e-9 at 100 Chebyshev nodes; m=1 midpoint 0.25; "
        "direct vs M+N to 1e-9; < 10 ms"
    ) as info:
        cfg0 = make_config(0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
        cfg1 = make_config(1.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
        seg0, seg1 = SegmentSurface(cfg0, 0, 1), SegmentSurface(cfg1, 0, 1)
        half = seg0.a - seg0.delta
        ts = half * np.cos(np.pi * (2 * np.arange(100) + 1) / 200.0)
        gaussian_curvature_direct_batch(seg0, ts)  # warm-up
        t0 = time.perf_counter()
        K0 = gaussian_curvature_direct_batch(seg0, ts)
        K1 = gaussian_curvature_direct_batch(seg1, ts)
        K1_mn = mn_decomposition_batch(seg1, ts)[0]
        mid = mn_decomposition_batch(seg1, 0.0)[0][0]
        dt = time.perf_counter() - t0
        assert np.abs(K0 - 1.0).max() <= 1e-9
        assert abs(mid - 0.25) <= 1e-9
        assert np.abs(K1 - K1_mn).max() <= 1e-9 * (1.0 + np.abs(K1)).max()
        assert dt < 10e-3
        info["note"] = f"max|K-1|={np.abs(K0 - 1).max():.1e}, {dt * 1e3:.2f} ms"


def test_criterion_04_counterexample():
    with criterion(
        4, "closed form (a=1, eps=1/10, m=0) = 2988 exactly, matches M+N at t=0 "
        "to 1e-9, one sign flip on (0, 10]"
    ) as info:
        exact = counterexample_closed_form(Fraction(1), Fraction(1, 10), Fraction(0))
        assert isinstance(exact, Fraction) and exact == 2988
        seg = SegmentSurface(counterexample_config(1.0, 0.1, 0.0), 0, 1)
        _, M, N, _ = mn_decomposition_batch(seg, 0.0)
        rel = abs(M[0] + N[0] - 2988.0) / 2988.0
        assert rel <= 1e-9
        eps = np.geomspace(1e-4, 10.0, 50000)
        vals = np.array([counterexample_closed_form(1.0, e, 0.0) for e in eps])
        flips = int((np.sign(vals[1:]) != np.sign(vals[:-1])).sum())
        assert flips == 1
        info["note"] = f"M+N rel err={rel:.1e}, flips={flips}"


def test_criterion_05_barrier_margin_suite():
    with criterion(
        5, "20 random configs: sphere margin > 0 at 1.34x, cylinder at 2.01x, "
        "codim-2 pattern at 5.1x, < 30 s"
    ) as info:
        rng = np.random.default_rng(105)
        t0 = time.perf_counter()
        for trial in range(20):
            cfg = random_config(
                rng, k=int(rng.integers(2, 7)), mass=float(rng.choice([0.0, 1.0]))
            )
            dirs = unit_dirs(rng, 10 ** 4)
            r_s = 1.34 * np.linalg.norm(cfg.points, axis=1).max()
            assert np.all(sphere_hyp_margin_batch(cfg, r_s * dirs) > 0)

            r_c = 2.01 * cylinder_threshold(cfg) / 2.0
            theta = rng.uniform(0, 2 * np.pi, 10 ** 4)
            z_span = np.abs(cfg.points[:, 2]).max() + 3.0 * cfg.diameter + 1.0
            z = rng.uniform(-z_span, z_span, 10 ** 4)
            xs = np.column_stack([r_c * np.cos(theta), r_c * np.sin(theta), z])
            assert np.all(cylinder_hyp_margin_batch(cfg, xs) > 0)

            r_2 = 5.1 * np.linalg.norm(cfg.points, axis=1).max()
            minor1, det_aux = sphere_codim2_margins_batch(cfg, r_2 * dirs)
            assert np.all(minor1 > 0) and np.all(det_aux < 0)
        dt = time.perf_counter() - t0
        assert dt < 30.0
        info["note"] = f"{dt:.2f} s for 20 configs x 3 families x 1e4 samples"


def test_criterion_06_ellipsoid_convexity():
    with criterion(
        6, "two-centre ellipsoids: Sylvester positivity on the 128x128 "
        "(r, beta) grid for m in {0, 1, 3}, < 10 s"
    ) as info:
        t0 = time.perf_counter()
        r = np.linspace(0.05, 3.0, 128)
        beta = np.linspace(0.0, np.pi, 128)
        R, B = np.meshgrid(r, beta, indexing="ij")
        worst = np.inf
        for m in (0.0, 1.0, 3.0):
            E1, E2, E4 = ellipsoid_inequalities(1.0, m, R, B)
            assert E1.min() > 0 and E2.min() > 0 and E4.min() > 0
            worst = min(worst, E1.min(), E2.min(), E4.min())
            # the closed forms are the leading minors of the lifted matrix,
            # up to positive factors; spot-check the matrix route inside
            cfg = make_config(m, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
            for ri in np.linspace(0.1, 2.9, 12):
                for bi in np.linspace(0.15, np.pi - 0.15, 12):
                    d = surface_point(TwoFociEllipsoid(1.0, ri), (0.7, bi))
                    assert sylvester_positive(lifted_sff(cfg, d).matrix)
        dt = time.perf_counter() - t0
        assert dt < 10.0
        info["note"] = f"min inequality value={worst:.3e}, {dt:.2f} s"


def test_criterion_07_three_foci_failure_witness():
    with criterion(
        7, "equilateral 3-foci surfaces: some level has an eigenvalue below "
        "-1e-6 * scale"
    ) as info:
        side = 2.0
        h = side / np.sqrt(3.0)
        foci = [[h, 0, 0], [-h / 2, side / 2, 0], [-h / 2, -side / 2, 0]]
        cfg = make_config(0.0, [(f, 1) for f in foci])
        witness = None
        for level in (3.6, 3.9, 4.2):
            rep = convexity_scan(
                cfg,
                MultiFociEllipsoid(foci, level),
                1,
                ScanSampling(grid=(64, 64), random=2000),
                keep_samples=True,
            )
            margins, scales = rep.samples_table[:, 5], rep.samples_table[:, 6]
            bad = margins < -1e-6 * scales
            if bad.any():
                witness = (level, float(margins.min()))
                break
        assert witness is not None
        info["note"] = f"level={witness[0]}, min eigenvalue={witness[1]:.4f}"


def test_criterion_08_oracle_equivalence():
    with criterion(
        8, "1e3 random symmetric matrices, k in {1,2,3}: sampled minimum minus "
        "eigensum in [0, 1e-2 ||S||]"
    ) as info:
        rng = np.random.default_rng(108)
        mats = [0.5 * (S + S.T) for S in (rng.standard_normal((3, 3)) for _ in range(1000))]
        # one draw per trial: k = 1 and k = 2 read the same 1e5 samples.  Each
        # trial has its own seed, so a small pool gives the serial results
        with ThreadPoolExecutor(2) as pool:
            minima = list(pool.map(lambda t: grassmannian_minima(mats[t], 10 ** 5, seed=t), range(1000)))
        worst = 0.0
        for S, sampled in zip(mats, minima):
            nrm = np.linalg.norm(S, 2)
            for k in (1, 2, 3):
                gap = sampled[k - 1] - k_smallest_eigensum(S, k)
                assert 0.0 <= gap <= 1e-2 * nrm
                worst = max(worst, gap / nrm)
        info["note"] = f"worst relative gap={worst:.2e}"


def test_criterion_09_geodesic_count():
    with criterion(
        9, "20 random generic configs: at least k-1 critical points, in hull, "
        "residual <= 1e-10 * scale"
    ) as info:
        rng = np.random.default_rng(109)
        total = 0
        for _ in range(20):
            cfg = random_config(rng, max_mult=1)
            pts = find_critical_points(cfg)
            assert len(pts) >= cfg.k - 1
            total += len(pts)
            for p in pts:
                assert p.in_hull
                scale = gradient_scale(cfg, p.x[None, :])[0]
                assert p.residual <= 1e-10 * scale
        info["note"] = f"{total} critical points across 20 configs"


def test_criterion_10_flat_space_mean_curvature():
    with criterion(
        10, "single centre: |H| of the lifted sphere = 3/sqrt(2r) to 1e-9 "
        "for r in {0.5, 1, 2}"
    ) as info:
        cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
        worst = 0.0
        for r in (0.5, 1.0, 2.0):
            for params in ((0.4, 0.9), (2.0, 2.2), (5.5, 1.4)):
                d = surface_point(Sphere(r), params)
                err = abs(abs(np.trace(lifted_sff(cfg, d).matrix)) - 3.0 / np.sqrt(2.0 * r))
                assert err <= 1e-9
                worst = max(worst, err)
        info["note"] = f"max deviation={worst:.1e}"


def test_criterion_11_jet_correctness():
    with criterion(
        11, "gradient/Hessian vs central differences, rel err <= 1e-6 at 1e3 "
        "points over 10 configs; |lap phi| <= 1e-10 ||Hess||"
    ) as info:
        rng = np.random.default_rng(111)
        worst_g = worst_h = worst_lap = 0.0
        for _ in range(10):
            cfg = random_config(rng)
            for x in points_away(rng, cfg, 100):
                jet = phi_jet(cfg, x)
                h_g, h_H = fd_steps(cfg, x)
                g_fd, H_fd = fd_jet(cfg, x, h_g, h_H)
                scale_g, scale_h = jet_scales(cfg, x)
                rel_g = np.linalg.norm(jet.gradient - g_fd) / scale_g
                rel_h = np.linalg.norm(jet.hessian - H_fd) / scale_h
                assert rel_g <= 1e-6 and rel_h <= 1e-6
                lap = abs(np.trace(jet.hessian)) / np.linalg.norm(jet.hessian)
                assert lap <= 1e-10
                worst_g, worst_h = max(worst_g, rel_g), max(worst_h, rel_h)
                worst_lap = max(worst_lap, lap)
        info["note"] = (
            f"worst grad={worst_g:.1e}, hess={worst_h:.1e}, lap={worst_lap:.1e}"
        )
