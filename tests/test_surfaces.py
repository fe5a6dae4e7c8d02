"""Barrier surface charts, frames, curvature data and the circle lift."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghconvex.surfaces as surfaces_module

from ghconvex import (
    ChartDomainError,
    Cylinder,
    InvalidParams,
    MultiFociEllipsoid,
    Plane,
    SolverFailure,
    Sphere,
    TwoFociEllipsoid,
    chart_domain,
    lifted_mean_curvature,
    lifted_sff,
    lifted_sff_batch,
    make_config,
    parse_surface,
    phi_jet,
    surface_data_batch,
    surface_point,
)

from conftest import quaternions, random_config, reference_gamma, rotation

FAMILIES = [
    Sphere(1.7, centre=(0.2, -0.3, 0.5)),
    Cylinder(0.8, axis_point=(1.0, 0.0, 0.0), axis_direction=(1.0, 1.0, 0.2)),
    Plane((0.0, 0.3, 1.0), offset=2.0),
    TwoFociEllipsoid(1.2, 0.7),
    MultiFociEllipsoid([[1, 0, 0], [-0.5, 0.9, 0], [-0.5, -0.9, 0]], 4.5),
]


def interior_params(surface, rng, n, margin=0.15):
    (lo0, hi0), (lo1, hi1) = chart_domain(surface)
    p0 = rng.uniform(lo0 + margin * (hi0 - lo0), hi0 - margin * (hi0 - lo0), n)
    p1 = rng.uniform(lo1 + margin * (hi1 - lo1), hi1 - margin * (hi1 - lo1), n)
    return np.column_stack([p0, p1])


def fd_sff(surface, params, h=1e-4):
    # orthogonal-chart second fundamental form by central differences
    data = surface_point(surface, params)
    p = np.asarray(params, dtype=float)

    def pos(q):
        return surface_data_batch(surface, np.asarray(q)[None, :])[0][0]

    e0, e1 = np.array([h, 0.0]), np.array([0.0, h])
    xu = (pos(p + e0) - pos(p - e0)) / (2 * h)
    xv = (pos(p + e1) - pos(p - e1)) / (2 * h)
    xuu = (pos(p + e0) - 2 * pos(p) + pos(p - e0)) / h ** 2
    xvv = (pos(p + e1) - 2 * pos(p) + pos(p - e1)) / h ** 2
    xuv = (pos(p + e0 + e1) - pos(p + e0 - e1) - pos(p - e0 + e1) + pos(p - e0 - e1)) / (
        4 * h ** 2
    )
    nu = data.nu
    S = np.array(
        [
            [xuu @ nu / (xu @ xu), xuv @ nu / (np.linalg.norm(xu) * np.linalg.norm(xv))],
            [xuv @ nu / (np.linalg.norm(xu) * np.linalg.norm(xv)), xvv @ nu / (xv @ xv)],
        ]
    )
    return S


@pytest.mark.parametrize("surface", FAMILIES, ids=lambda s: type(s).__name__)
def test_frame_orthonormal_and_oriented(surface):
    rng = np.random.default_rng(1)
    for params in interior_params(surface, rng, 20):
        d = surface_point(surface, params)
        for vec in (d.u, d.v, d.nu):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert abs(d.u @ d.v) < 1e-12
        np.testing.assert_allclose(np.cross(d.u, d.v), d.nu, atol=1e-12)


@pytest.mark.parametrize(
    "surface",
    [FAMILIES[0], FAMILIES[1], FAMILIES[2], FAMILIES[3]],
    ids=lambda s: type(s).__name__,
)
def test_sff_matches_finite_differences(surface):
    # these four families expose orthogonal charts aligned with (u, v)
    rng = np.random.default_rng(2)
    for params in interior_params(surface, rng, 12):
        d = surface_point(surface, params)
        S_fd = fd_sff(surface, params)
        scale = max(np.abs(S_fd).max(), 1.0)
        np.testing.assert_allclose(d.sff_r3, S_fd, atol=5e-6 * scale)
        assert d.mean_r3 == pytest.approx(np.trace(d.sff_r3), rel=1e-12, abs=1e-12)


def test_sphere_hand_values():
    d = surface_point(Sphere(2.0), (0.3, 1.1))
    np.testing.assert_allclose(d.sff_r3, 0.5 * np.eye(2), atol=1e-12)
    assert d.mean_r3 == pytest.approx(1.0, rel=1e-12)
    # inward normal points at the centre
    np.testing.assert_allclose(d.x + 2.0 * d.nu, 0.0, atol=1e-12)


def test_cylinder_hand_values():
    d = surface_point(Cylinder(0.5), (0.7, 2.0))
    np.testing.assert_allclose(np.sort(np.diag(d.sff_r3)), [0.0, 2.0], atol=1e-12)
    assert d.mean_r3 == pytest.approx(2.0, rel=1e-12)


def test_plane_is_totally_geodesic():
    d = surface_point(Plane((0, 0, 1), 3.0), (0.4, -1.2))
    np.testing.assert_allclose(d.sff_r3, 0.0, atol=1e-15)
    assert d.x[2] == pytest.approx(3.0)


def test_two_foci_distance_sum_identity():
    a, r = 1.3, 0.9
    surf = TwoFociEllipsoid(a, r)
    rng = np.random.default_rng(3)
    for params in interior_params(surf, rng, 40):
        x = surface_data_batch(surf, params[None, :])[0][0]
        total = np.linalg.norm(x - [0, 0, a]) + np.linalg.norm(x - [0, 0, -a])
        assert total == pytest.approx(2 * a * np.cosh(r), abs=1e-12)


def test_multifoci_level_residual():
    surf = FAMILIES[4]
    foci = surf.foci
    rng = np.random.default_rng(4)
    for params in interior_params(surf, rng, 60):
        x = surface_data_batch(surf, params[None, :])[0][0]
        F = sum(np.linalg.norm(x - f) for f in foci)
        assert F == pytest.approx(surf.level, abs=1e-10)


def test_multifoci_shooting_checks_its_residual(monkeypatch):
    surf = FAMILIES[4]
    rng = np.random.default_rng(9)
    P = interior_params(surf, rng, 500)
    X = surface_data_batch(surf, P)[0]
    F = np.linalg.norm(X[:, None, :] - surf.foci[None, :, :], axis=2).sum(axis=1)
    assert np.all(np.abs(F - surf.level) <= surfaces_module.MULTIFOCI_RTOL * surf.level)
    # a bound below rounding error is missed on some rows
    monkeypatch.setattr(surfaces_module, "MULTIFOCI_RTOL", 0.0)
    with pytest.raises(SolverFailure, match=r"on \d+ of 500 rows"):
        surface_data_batch(surf, P)


def test_multifoci_degenerates_to_two_foci():
    a, L = 1.0, 2.0 * np.cosh(0.8)  # r = 0.8
    multi = MultiFociEllipsoid([[0, 0, a], [0, 0, -a]], L)
    two = TwoFociEllipsoid(a, 0.8)
    rng = np.random.default_rng(5)
    for params in interior_params(multi, rng, 25):
        dm = surface_point(multi, params)
        x = dm.x
        beta = np.arccos(np.clip(x[2] / (a * np.cosh(0.8)), -1.0, 1.0))
        alpha = np.arctan2(x[1], x[0]) % (2 * np.pi)
        dt = surface_point(two, (alpha, beta))
        np.testing.assert_allclose(dt.x, x, atol=1e-9)
        # frame-independent invariants agree even though the frames differ
        np.testing.assert_allclose(dt.nu, dm.nu, atol=1e-8)
        assert dm.mean_r3 == pytest.approx(dt.mean_r3, rel=1e-7)
        assert np.linalg.det(dm.sff_r3) == pytest.approx(
            np.linalg.det(dt.sff_r3), rel=1e-6
        )


def test_multifoci_shooting_failure():
    # level clears the foci spread but not the centroid distance sum
    foci = [[2 / np.sqrt(3), 0, 0], [-1 / np.sqrt(3), 1, 0], [-1 / np.sqrt(3), -1, 0]]
    surf = MultiFociEllipsoid(foci, 3.2)  # F(centroid) = 2 sqrt(3) > 3.2
    with pytest.raises(SolverFailure):
        surface_point(surf, (0.5, 1.0))


def test_batch_matches_scalar_points():
    rng = np.random.default_rng(6)
    for surface in FAMILIES:
        P = interior_params(surface, rng, 8)
        X, U, V, NU, SFF, MEAN = surface_data_batch(surface, P)
        for i in (0, 3, 7):
            d = surface_point(surface, P[i])
            np.testing.assert_allclose(X[i], d.x, atol=1e-14)
            np.testing.assert_allclose(U[i], d.u, atol=1e-14)
            np.testing.assert_allclose(V[i], d.v, atol=1e-14)
            np.testing.assert_allclose(NU[i], d.nu, atol=1e-14)
            np.testing.assert_allclose(SFF[i], d.sff_r3, atol=1e-14)
            assert MEAN[i] == pytest.approx(d.mean_r3, rel=1e-13)


def test_lifted_sff_matches_connection_oracle():
    # S from Euclidean data and the frame connection alone: on horizontal
    # pairs (a, b) in {u, v}, phi^-1/2 sff_r3[a, b] + sum gamma[i, j, k] a_i
    # b_j nu_k; on the fibre rows, gamma[0, 0, .] and gamma[i, 0, .] against nu
    rng = np.random.default_rng(8)
    cfg = random_config(rng, k=3, box=5.0)
    for surface in FAMILIES:
        P = interior_params(surface, rng, 10)
        X, U, V, NU, SFF, _ = surface_data_batch(surface, P)
        keep = np.linalg.norm(
            X[:, None, :] - cfg.points[None, :, :], axis=2
        ).min(axis=1) > 0.05
        assert keep.sum() >= 5
        S = lifted_sff_batch(cfg, X[keep], U[keep], V[keep], NU[keep], SFF[keep])
        for row, i in enumerate(np.flatnonzero(keep)):
            g = reference_gamma(cfg, X[i])
            f = phi_jet(cfg, X[i]).value ** -0.5
            tangent = (U[i], V[i])
            want = np.empty((3, 3))
            for a in range(2):
                for b in range(2):
                    want[a, b] = f * SFF[i, a, b] + np.einsum(
                        "ijk,i,j,k->", g[1:, 1:, 1:], tangent[a], tangent[b], NU[i]
                    )
                want[a, 2] = want[2, a] = np.einsum("ik,i,k->", g[1:, 0, 1:], tangent[a], NU[i])
            want[2, 2] = g[0, 0, 1:] @ NU[i]
            tol = 1e-12 * np.linalg.norm(want)
            np.testing.assert_allclose(S[row], want, rtol=0, atol=tol)
            # the single-point routes read the same form
            d = surface_point(surface, P[i])
            np.testing.assert_allclose(lifted_sff(cfg, d).matrix, want, rtol=0, atol=tol)
            assert lifted_mean_curvature(cfg, d) == pytest.approx(np.trace(want), abs=tol)


def test_flat_lift_of_round_sphere():
    # single centre, zero mass: |H| of the lift is 3/sqrt(2r)
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    for r in (0.5, 1.0, 2.0):
        d = surface_point(Sphere(r), (1.0, 0.9))
        h = lifted_mean_curvature(cfg, d)
        assert abs(h) == pytest.approx(3.0 / np.sqrt(2.0 * r), rel=1e-12)


def test_chart_domain_enforced():
    with pytest.raises(ChartDomainError):
        surface_point(Sphere(1.0), (0.1, 0.0))  # polar endpoint excluded
    with pytest.raises(ChartDomainError):
        surface_point(TwoFociEllipsoid(1.0, 1.0), (0.1, np.pi))
    cyl = Cylinder(1.0, span=2.0)
    with pytest.raises(ChartDomainError):
        surface_point(cyl, (2.5, 0.1))  # beyond the axial span


def test_constructor_validation():
    with pytest.raises(InvalidParams):
        Sphere(-1.0)
    with pytest.raises(InvalidParams):
        Cylinder(0.0)
    with pytest.raises(InvalidParams):
        Cylinder(1.0, axis_direction=(0, 0, 0))
    with pytest.raises(InvalidParams):
        Plane((0, 0, 0), 1.0)
    with pytest.raises(InvalidParams):
        TwoFociEllipsoid(1.0, -0.2)
    with pytest.raises(InvalidParams):
        MultiFociEllipsoid([[0, 0, 1], [0, 0, -1]], 1.9)  # level below the spread


def test_parse_surface_round_trip():
    specs = [
        {"family": "sphere", "r": 2.0, "centre": [1, 0, 0]},
        {"family": "cylinder", "r": 0.5, "point": [0, 0, 0], "axis": [0, 0, 1]},
        {"family": "plane", "normal": [0, 0, 1], "offset": 4.0},
        {"family": "ellipsoid2", "a": 1.0, "r": 0.5},
        {"family": "ellipsoidN", "foci": [[0, 0, 1], [0, 0, -1]], "level": 3.0},
    ]
    types = [Sphere, Cylinder, Plane, TwoFociEllipsoid, MultiFociEllipsoid]
    for spec, cls in zip(specs, types):
        assert isinstance(parse_surface(spec), cls)
    with pytest.raises(InvalidParams):
        parse_surface({"family": "torus", "r": 1.0})
    with pytest.raises(InvalidParams):
        parse_surface({"family": "sphere", "r": 1.0, "bogus": 2})


def _moved(surface, Q, b):
    """The surface after x -> Q x + b."""
    if isinstance(surface, Sphere):
        return Sphere(surface.radius, Q @ surface.centre + b)
    if isinstance(surface, Plane):
        n = Q @ surface.normal
        # the moved frame turns in the plane: widen the chart box to keep its points
        return Plane(n, surface.offset + float(n @ b), 2.0 * surface.span)
    return MultiFociEllipsoid(surface.foci @ Q.T + b, surface.level)


def _chart_params(surface, X):
    """Chart parameters of the points X on the surface."""
    if isinstance(surface, Plane):
        rel = X - surface.offset * surface.normal
        return np.column_stack([rel @ surface._t1, rel @ surface._t2])
    rel = X - (surface.centre if isinstance(surface, Sphere) else surface.centroid)
    polar = np.arccos(np.clip(rel[:, 2] / np.linalg.norm(rel, axis=1), -1.0, 1.0))
    return np.column_stack([np.arctan2(rel[:, 1], rel[:, 0]) % (2 * np.pi), polar])


def _eigensums(S):
    """(N, 3) sums of the k smallest eigenvalues, k = 1, 2, 3."""
    return np.cumsum(np.linalg.eigvalsh(S), axis=1)


def _random_surface(rng, family):
    if family == "sphere":
        return Sphere(float(rng.uniform(0.5, 8.0)), rng.uniform(-1.0, 1.0, 3))
    if family == "plane":
        return Plane(rng.standard_normal(3), float(rng.uniform(-4.0, 4.0)))
    foci = rng.uniform(-1.0, 1.0, (3, 3))
    # F(centroid) >= the largest pairwise distance, so the level set is smooth
    f0 = float(np.linalg.norm(foci - foci.mean(axis=0), axis=1).sum())
    return MultiFociEllipsoid(foci, f0 + float(rng.uniform(0.3, 4.0)))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    family=st.sampled_from(["sphere", "plane", "multifoci"]),
    quaternion=quaternions,
    shift=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    angle=st.floats(0.0, 2 * np.pi),
)
def test_lifted_eigensums_are_rigid_and_frame_invariant(seed, family, quaternion, shift, angle):
    """Moving centres and surface together by x -> Q x + b, or turning the
    frame (u, v) in the tangent plane, leaves every k-eigensum of the lifted
    form fixed to 1e-12 ||S||."""
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, k=int(rng.integers(1, 6)), max_mult=3)
    surface = _random_surface(rng, family)
    X = surface_data_batch(surface, interior_params(surface, rng, 64, margin=0.02))[0]
    X = X[np.linalg.norm(X[:, None, :] - cfg.points[None, :, :], axis=2).min(axis=1) > 0.25]
    data = surface_data_batch(surface, _chart_params(surface, X))
    S = lifted_sff_batch(cfg, *data[:5])
    bound = 1e-12 * np.linalg.norm(S, axis=(1, 2))[:, None]

    Q, b = rotation(quaternion), np.asarray(shift)
    moved_cfg = make_config(cfg.mass, [(Q @ p + b, int(c)) for p, c in zip(cfg.points, cfg.multiplicities)])
    moved = _moved(surface, Q, b)
    moved_data = surface_data_batch(moved, _chart_params(moved, data[0] @ Q.T + b))
    assert np.all(np.abs(_eigensums(lifted_sff_batch(moved_cfg, *moved_data[:5])) - _eigensums(S)) <= bound)

    X, U, V, NU, SFF = data[:5]
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, s], [-s, c]])
    turned = lifted_sff_batch(cfg, X, c * U + s * V, c * V - s * U, NU, R @ SFF @ R.T)
    assert np.all(np.abs(_eigensums(turned) - _eigensums(S)) <= bound)


AXES = [sign * e for e in np.eye(3) for sign in (1.0, -1.0)]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(normals=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(x * x for x in v) > 1e-6),
                        min_size=1, max_size=8))
def test_orthobasis_rows_match_single_vectors(normals):
    """Batched frames equal the one-vector frames bit for bit, and each is a
    right-handed orthonormal (t1, t2, n), the coordinate axes included."""
    N = np.array(normals + AXES)
    N /= np.linalg.norm(N, axis=1)[:, None]
    T1, T2 = surfaces_module._orthobasis(N)
    for n, t1, t2 in zip(N, T1, T2):
        s1, s2 = surfaces_module._orthobasis(n)
        np.testing.assert_array_equal(t1, s1)
        np.testing.assert_array_equal(t2, s2)
        frame = np.array([t1, t2, n])
        np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-15)
        assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-15)
