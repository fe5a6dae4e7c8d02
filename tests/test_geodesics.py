"""Critical points of the potential and the invariant surfaces over segments."""
from __future__ import annotations

import numpy as np
import pytest

from ghconvex import (
    InvalidIndex,
    InvalidParams,
    SeedStrategy,
    find_critical_points,
    gradient_scale,
    in_convex_hull,
    invariant_surface_area,
    make_config,
    phi_jet,
)

from conftest import random_config


def test_two_centres_single_saddle():
    cfg = make_config(0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
    pts = find_critical_points(cfg)
    assert len(pts) == 1
    cp = pts[0]
    np.testing.assert_allclose(cp.x, 0.0, atol=1e-12)
    assert cp.hessian_signature == (2, 0, 1)
    assert cp.in_hull and cp.isolated
    # phi(0) = 1, so the fibre length is 2 pi / sqrt(phi) = 2 pi
    assert cp.length == pytest.approx(2 * np.pi, rel=1e-12)
    scale = gradient_scale(cfg, cp.x[None, :])[0]
    assert cp.residual <= 1e-10 * scale


def test_three_collinear_centres_two_saddles():
    cfg = make_config(
        0.0, [((0, 0, -1.0), 1), ((0, 0, 0.0), 1), ((0, 0, 1.0), 1)]
    )
    pts = find_critical_points(cfg)
    assert len(pts) == 2
    zs = sorted(p.x[2] for p in pts)
    assert zs[0] == pytest.approx(-zs[1], abs=1e-10)
    for p in pts:
        np.testing.assert_allclose(p.x[:2], 0.0, atol=1e-10)
        assert 0.4 < abs(p.x[2]) < 0.6
        assert p.in_hull


def test_at_least_k_minus_one_critical_points():
    rng = np.random.default_rng(41)
    for _ in range(8):
        cfg = random_config(rng, max_mult=1)
        pts = find_critical_points(cfg)
        assert len(pts) >= cfg.k - 1
        for p in pts:
            scale = gradient_scale(cfg, p.x[None, :])[0]
            assert p.residual <= 1e-10 * scale
            assert p.in_hull
            jet = phi_jet(cfg, p.x)
            assert np.linalg.norm(jet.gradient) <= 1e-10 * scale


def test_critical_points_deterministic():
    rng = np.random.default_rng(42)
    cfg = random_config(rng, k=4, max_mult=1)
    a = find_critical_points(cfg, SeedStrategy(seed=3))
    b = find_critical_points(cfg, SeedStrategy(seed=3))
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.x, pb.x)


def test_midpoint_seeds_suffice_for_two_centres():
    cfg = make_config(0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
    pts = find_critical_points(cfg, SeedStrategy(midpoints=True, centroids=False, random=0))
    assert len(pts) == 1


def test_negative_random_seed_count_is_invalid():
    cfg = make_config(0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
    with pytest.raises(InvalidParams, match="random seed count must be >= 0, got -3"):
        find_critical_points(cfg, SeedStrategy(random=-3))


def test_critical_point_serialization():
    cfg = make_config(0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1)])
    d = find_critical_points(cfg)[0].to_dict()
    assert set(d) >= {"x", "residual", "length", "in_hull", "hessian_signature"}
    assert d["in_hull"] is True


def test_in_convex_hull():
    tri = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    assert in_convex_hull(tri, (0.2, 0.2, 0.0), 1e-8)
    assert in_convex_hull(tri, (0.5, 0.0, 0.0), 1e-8)  # edge point
    assert in_convex_hull(tri, (0.5, 0.0, 1e-10), 1e-8)  # within tolerance
    assert not in_convex_hull(tri, (1.0, 1.0, 0.0), 1e-8)
    assert not in_convex_hull(tri, (0.2, 0.2, 0.5), 1e-8)
    assert not in_convex_hull(tri, (-1e-4, 0.0, 0.0), 1e-8)


@pytest.mark.parametrize("z, inside", [(5e-9, True), (2e-8, False), (1e-7, False)])
def test_in_convex_hull_honours_tolerances_below_the_solvers(z, inside):
    # HiGHS accepts 1e-7 constraint violations, so its optimum reads 0 here
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert in_convex_hull(tri, (0.2, 0.2, z), 1e-8) is inside


def test_invariant_surface_area():
    cfg = make_config(
        1.0, [((0, 0, 2.0), 1), ((0, 0, -1.0), 1), ((3.0, 0, 0), 1)]
    )
    assert invariant_surface_area(cfg, 0, 1) == pytest.approx(2 * np.pi * 3.0)
    assert invariant_surface_area(cfg, 1, 2) == pytest.approx(
        2 * np.pi * np.sqrt(10.0)
    )
    with pytest.raises(InvalidIndex):
        invariant_surface_area(cfg, 0, 0)
    with pytest.raises(InvalidIndex):
        invariant_surface_area(cfg, 0, 3)
