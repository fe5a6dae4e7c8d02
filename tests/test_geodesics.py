"""Critical points of the potential and the invariant surfaces over segments."""
from __future__ import annotations

import hashlib
import itertools
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ghconvex import geodesics
from ghconvex.potential import jet

from conftest import random_config


TETRAHEDRON = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
OCTAHEDRON = [(1.0, 0, 0), (-1.0, 0, 0), (0, 1.0, 0), (0, -1.0, 0), (0, 0, 1.0), (0, 0, -1.0)]
CUBE = list(itertools.product((-1.0, 1.0), repeat=3))


def _cube(shift):
    """Unit centres at the vertices of [-1, 1]^3, each moved by up to shift."""
    rng = np.random.default_rng(3)
    return make_config(0.0, [(np.array(p) + shift * rng.uniform(-1.0, 1.0, 3), 1) for p in CUBE])


def _unit_centres(corners):
    return make_config(0.0, [(p, 1) for p in corners])


# SHA-256 of find_critical_points' outputs (x bytes, residual, length,
# in_hull, isolated and signature per point) with the default seeds.
# Captured from the finder that halved its line-search steps one kernel call
# at a time and merged in nested Python loops: a rewrite of the search or
# the bookkeeping may change speed, not bits.  Like the jet digests they
# belong to numpy 2.4.6 and scipy 1.17.1 (HiGHS decides in_hull).  The exact
# cube, tetrahedron and octahedron were captured once the finder kept one
# representative per cluster: the cube's 890 points became its 12 isolated
# saddles and the least-residual point of the cluster at its centre, with
# the same x, residual, length and in_hull bytes.
FINDER_CASES = {
    "random6-m0": (
        lambda: random_config(np.random.default_rng(1), k=6, mass=0.0, max_mult=1),
        "6434cefbdedc8397ac81c3b3cb0bde163dd8838c328c91866a342153c287d1b4",
    ),
    "random6-m1": (
        lambda: random_config(np.random.default_rng(6), k=6, mass=1.0, max_mult=1),
        "1c8a45a678645c0db94c11710dac1f36670c3f35b328078070e85c7e8ab347d7",
    ),
    "random6-m0-mult": (
        lambda: random_config(np.random.default_rng(3), k=6, mass=0.0, max_mult=3),
        "55429e06add12d81aeab2028a3e312827ddd1140598fff26501a3a04cd2e5627",
    ),
    "random6-m1-mult": (
        lambda: random_config(np.random.default_rng(2), k=6, mass=1.0, max_mult=3),
        "038abcc1c1ba555b5800eb10b29e553aab973e394028e80371d385fbba4af70a",
    ),
    "random20-m0": (
        lambda: random_config(np.random.default_rng(4), k=20, mass=0.0, max_mult=1),
        "b38a5967a984d2c7bd73937c335314125183b1ce231feba89dc1c4af7ef2f883",
    ),
    "random20-m1-mult": (
        lambda: random_config(np.random.default_rng(5), k=20, mass=1.0, max_mult=3),
        "2258fa25848ac4475371adecca5fcb8d1323bbf524407e90e8053c03460dc15a",
    ),
    "axis2": (
        lambda: make_config(0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 2)]),
        "6153cf622929d7754ace64bfce7679f34daacd68668342cf3cd838d12422d01b",
    ),
    "collinear3": (
        lambda: make_config(1.0, [((0, 0, -1.0), 1), ((0, 0, 0.0), 1), ((0, 0, 1.0), 1)]),
        "3f1266ca2437dd872bbf4ab220f9f4b918ac7c35cdf8058db92a02cede431172",
    ),
    "equilateral": (
        lambda: make_config(
            0.0, [((np.cos(t), np.sin(t), 0.0), 1) for t in 2 * np.pi * np.arange(3) / 3]
        ),
        "42bf7d17f72e2295bc9cd66abfb207714deda63a53e034722fbcf26a516af1d5",
    ),
    "cube": (lambda: _cube(0.0), "38c4504551c5718a9bbfa476b213d658181510ffc03a317008c058170f99b9e5"),
    "cube-perturbed": (
        lambda: _cube(0.03),
        "bf6a43d2ca2f7a48c46e4cb127b042841771b4bb11b5402e8cc0c7d3ff736397",
    ),
    "tetrahedron": (
        lambda: _unit_centres(TETRAHEDRON),
        "24d26bd00176e0b33ad02710da7361458a8eb19c7dbf517f9261d5eb85e078aa",
    ),
    "octahedron": (
        lambda: _unit_centres(OCTAHEDRON),
        "5da611d0d29599e399a84bf720f0c5312be82d3960de073e7406eb708d43a8d8",
    ),
}


def _digest(h, points):
    for p in points:
        h.update(p.x.tobytes())
        h.update(struct.pack("<dd??3i", p.residual, p.length, p.in_hull, p.isolated, *p.hessian_signature))


@pytest.mark.parametrize("name", sorted(FINDER_CASES))
def test_critical_points_bits_are_pinned(name):
    make, want = FINDER_CASES[name]
    h = hashlib.sha256()
    _digest(h, find_critical_points(make()))
    assert h.hexdigest() == want


def test_generic_corpus_bits_are_pinned():
    # 24 seeded generic configurations, k = 2..9, mixed masses and
    # multiplicities, hashed as FINDER_CASES: a rewrite of how the finder
    # merges and flags its points keeps these bits
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for _ in range(24):
        cfg = random_config(rng, k=int(rng.integers(2, 10)), max_mult=3)
        _digest(h, find_critical_points(cfg))
    assert h.hexdigest() == "c461e0c9b87c7a849c6bc6faa41c691927b876e72e35f2d1659c2af9d1140c1c"


EXACT = pytest.mark.parametrize(
    "corners, count",
    [(TETRAHEDRON, 1), (CUBE, 13), (OCTAHEDRON, 1)],
    ids=["tetrahedron", "cube", "octahedron"],
)


def _generic(seed, k):
    return random_config(np.random.default_rng(seed), k=k, max_mult=3)


def _permuted(cfg, perm):
    return make_config(cfg.mass, [(cfg.points[i], int(cfg.multiplicities[i])) for i in perm])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 8))
def test_index_sum_is_k_minus_one(seed, k):
    """Poincare-Hopf: grad phi has degree -1 on a large sphere and on a small
    sphere round each centre, so over R^3 minus the centres its indices sum
    to k - 1 (J. Milnor, Topology from the Differentiable Viewpoint, 1965,
    section 6).  Hess phi is traceless, so a nondegenerate zero has
    signature (2, 0, 1), index +1, or (1, 0, 2), index -1."""
    sigs = [p.hessian_signature for p in find_critical_points(_generic(seed, k))]
    assert set(sigs) <= {(2, 0, 1), (1, 0, 2)}
    assert sigs.count((2, 0, 1)) - sigs.count((1, 0, 2)) == k - 1


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 8), perm_seed=st.integers(0, 2 ** 32 - 1))
def test_permuting_generic_centres_keeps_the_points(seed, k, perm_seed):
    cfg = _generic(seed, k)
    a = find_critical_points(cfg)
    b = find_critical_points(_permuted(cfg, np.random.default_rng(perm_seed).permutation(k)))
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert np.abs(p.x - q.x).max() <= 1e-12 * (1.0 + cfg.diameter)
        assert (p.hessian_signature, p.in_hull, p.isolated) == (q.hessian_signature, q.in_hull, q.isolated)


@EXACT
def test_permuting_exact_centres_keeps_the_points(corners, count):
    # points of the exact configurations sit on coordinate planes, where the
    # lexicographic order follows round-off: compare them as multisets
    def summary(cfg):
        return sorted((p.hessian_signature, p.in_hull, p.isolated) for p in find_critical_points(cfg))

    want = summary(_unit_centres(corners))
    rng = np.random.default_rng(17)
    for _ in range(3):
        assert summary(_unit_centres([corners[i] for i in rng.permutation(len(corners))])) == want


@EXACT
def test_exact_configurations_keep_one_point_per_critical_set(corners, count):
    # each has a degenerate zero at its centre, where Hess phi = 0 by
    # symmetry and Newton converges only linearly; a traceless Hessian
    # cannot have signature (0, 0, 3) or (3, 0, 0)
    pts = find_critical_points(_unit_centres(corners))
    assert len(pts) == count
    assert not {p.hessian_signature for p in pts} & {(0, 0, 3), (3, 0, 0)}


@EXACT
def test_exact_configurations_keep_their_points_in_the_hull(corners, count):
    # near the octahedron's centre the linear program's 1e-7 feasibility
    # slack exceeds the hull tolerance
    assert all(p.in_hull for p in find_critical_points(_unit_centres(corners)))


@pytest.mark.parametrize("name", ["random6-m0", "random6-m1-mult"])
def test_newton_makes_few_kernel_calls(name, monkeypatch):
    # one order-2 call per Newton iteration and at most two order-1 calls
    # for its line search; halving one kernel call at a time made 423-513
    orders = []

    def counting(*args):
        orders.append(args[-1])
        return jet(*args)

    monkeypatch.setattr(geodesics, "jet", counting)
    find_critical_points(FINDER_CASES[name][0]())
    assert len(orders) <= 100
    assert orders.count(1) <= 2 * orders.count(2)


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"random": 2.5}, "random seed count must be an integer, got 2.5"),
        ({"random": True}, "random seed count must be an integer, got True"),
        ({"random": "10"}, "random seed count must be an integer, got '10'"),
    ],
)
def test_seed_strategy_rejects_hostile_fields(fields, message):
    with pytest.raises(InvalidParams, match=re.escape(message)):
        SeedStrategy(**fields)


def test_seed_strategy_fields_are_plain_ints():
    strategy = SeedStrategy(random=np.int32(5), seed=np.uint8(3))
    assert strategy == SeedStrategy(random=5, seed=3)
    assert type(strategy.random) is int and type(strategy.seed) is int


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
