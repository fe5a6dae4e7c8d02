"""Potential jets: hand values, finite differences, harmonicity, validation."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghconvex import (
    EmptyConfiguration,
    InvalidParams,
    SingularPoint,
    check_harmonic,
    gradient_scale,
    load_config,
    make_config,
    parse_config,
    phi_jet,
    phi_jet_batch,
)
from ghconvex import potential
from ghconvex.potential import CHUNK, EXCLUSION_SCALE

from conftest import points_away, random_config, reference_jet


def fd_steps(config, x):
    # balance truncation (higher derivatives ~ c/d^(1+n)) against roundoff
    # (eps * phi / h^n); the mass offset inflates phi but not the derivatives
    d = np.linalg.norm(np.asarray(x, dtype=float) - config.points, axis=1)
    c = config.multiplicities
    phi = phi_jet(config, x).value
    eps = np.finfo(float).eps
    cap = 0.1 * d.min()
    h_g = min(max((eps * phi / (c / d ** 4).sum()) ** (1 / 3), 1e-8), cap)
    h_H = min(max((eps * phi / (c / d ** 5).sum()) ** 0.25, 1e-8), cap)
    return h_g, h_H


def fd_jet(config, x, h_g, h_H):
    e = np.eye(3)

    def val(y):
        return phi_jet(config, y).value

    g = np.array(
        [(val(x + h_g * e[i]) - val(x - h_g * e[i])) / (2 * h_g) for i in range(3)]
    )
    H = np.empty((3, 3))
    h = h_H
    for i in range(3):
        for j in range(3):
            H[i, j] = (
                val(x + h * (e[i] + e[j]))
                - val(x + h * (e[i] - e[j]))
                - val(x - h * (e[i] - e[j]))
                + val(x - h * (e[i] + e[j]))
            ) / (4 * h * h)
    return g, H


def test_single_centre_hand_values():
    # phi = 1/4 + 1/r for a doubled centre at the origin
    cfg = make_config(0.25, [((0.0, 0.0, 0.0), 2)])
    jet = phi_jet(cfg, (1.0, 0.0, 0.0))
    assert jet.value == pytest.approx(1.25, abs=1e-15)
    np.testing.assert_allclose(jet.gradient, [-1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(jet.hessian, np.diag([2.0, -1.0, -1.0]), atol=1e-14)


def test_multiplicity_matches_repeated_weight():
    cfg2 = make_config(0.0, [((1.0, 2.0, -1.0), 3)])
    x = np.array([0.3, -0.4, 0.9])
    d = np.linalg.norm(x - [1.0, 2.0, -1.0])
    assert phi_jet(cfg2, x).value == pytest.approx(3.0 / (2.0 * d), rel=1e-15)


def test_jet_additive_over_centres():
    rng = np.random.default_rng(11)
    a = random_config(rng, k=3, mass=0.0)
    b = random_config(rng, k=2, mass=0.0, box=6.0, min_sep=1.0)
    union = make_config(
        0.0,
        [(p, int(c)) for p, c in zip(a.points, a.multiplicities)]
        + [(p, int(c)) for p, c in zip(b.points, b.multiplicities)],
    )
    x = points_away(rng, union, 1)[0]
    ja, jb, ju = phi_jet(a, x), phi_jet(b, x), phi_jet(union, x)
    assert ju.value == pytest.approx(ja.value + jb.value, rel=1e-14)
    np.testing.assert_allclose(ju.gradient, ja.gradient + jb.gradient, rtol=1e-13)
    np.testing.assert_allclose(ju.hessian, ja.hessian + jb.hessian, rtol=1e-13)


def jet_scales(cfg, x):
    # per-centre magnitudes: the sum may cancel, the difference scheme cannot
    d = np.linalg.norm(np.asarray(x) - cfg.points, axis=1)
    c = cfg.multiplicities
    return (c / (2 * d ** 2)).sum(), np.sqrt(1.5) * (c / d ** 3).sum()


def test_gradient_hessian_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cfg = random_config(rng)
        for x in points_away(rng, cfg, 50):
            jet = phi_jet(cfg, x)
            h_g, h_H = fd_steps(cfg, x)
            g_fd, H_fd = fd_jet(cfg, x, h_g, h_H)
            scale_g, scale_h = jet_scales(cfg, x)
            assert np.linalg.norm(jet.gradient - g_fd) <= 1e-6 * scale_g
            assert np.linalg.norm(jet.hessian - H_fd) <= 1e-6 * scale_h


def test_harmonic_everywhere():
    rng = np.random.default_rng(23)
    for _ in range(5):
        cfg = random_config(rng)
        for x in points_away(rng, cfg, 200):
            jet = phi_jet(cfg, x)
            assert abs(check_harmonic(cfg, x)) <= 1e-10 * np.linalg.norm(jet.hessian)


def test_batch_matches_scalar():
    rng = np.random.default_rng(5)
    cfg = random_config(rng, k=4)
    xs = points_away(rng, cfg, 64)
    vals, grads, hesss = phi_jet_batch(cfg, xs)
    for i in (0, 17, 63):
        jet = phi_jet(cfg, xs[i])
        assert vals[i] == jet.value
        np.testing.assert_array_equal(grads[i], jet.gradient)
        np.testing.assert_array_equal(hesss[i], jet.hessian)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_kernel_matches_reference_jet(n):
    rng = np.random.default_rng(n)
    cfg = random_config(rng, k=7, mass=1.0, max_mult=3)
    xs = points_away(rng, cfg, n, min_dist=0.05)
    args = (cfg.mass, cfg.points, cfg.multiplicities, xs)
    dmin, scale, vals, grads, hesss = potential.jet(*args, order=2)
    v0, g0, h0 = reference_jet(*args)
    d = np.linalg.norm(xs[:, None, :] - cfg.points[None, :, :], axis=2)
    c = cfg.multiplicities
    # relative to the summed size of the terms, which cancel in grad and Hess
    np.testing.assert_allclose(vals, v0, rtol=1e-13, atol=0)
    np.testing.assert_allclose(scale, 0.5 * (c / d ** 2).sum(axis=1), rtol=1e-13, atol=0)
    np.testing.assert_allclose(dmin, d.min(axis=1), rtol=1e-13, atol=0)
    assert np.all(np.linalg.norm(grads - g0, axis=1) <= 1e-13 * scale)
    assert np.all(np.abs(hesss - h0).max(axis=(1, 2)) <= 1e-13 * (c / d ** 3).sum(axis=1))
    np.testing.assert_array_equal(hesss, np.swapaxes(hesss, 1, 2))
    # lower orders share the arithmetic of the outputs they return
    for order in (0, 1):
        lower = potential.jet(*args, order=order)
        for got, want in zip(lower[:3], (dmin, scale, vals)):
            np.testing.assert_array_equal(got, want)
        assert lower[4] is None
        if order:
            np.testing.assert_array_equal(lower[3], grads)
        else:
            assert lower[3] is None
    # the public wrappers return the kernel's own outputs
    np.testing.assert_array_equal(cfg.min_centre_distance(xs), dmin)
    np.testing.assert_array_equal(gradient_scale(cfg, xs), scale)


@pytest.mark.parametrize("k", [9, 50])
def test_single_rows_match_batch_with_many_centres(k):
    # numpy sums a one-column block pairwise from 8 terms on, so the kernel
    # must keep single rows on the batch's summation order
    rng = np.random.default_rng(k)
    cfg = random_config(rng, k=k)
    xs = points_away(rng, cfg, 2 * CHUNK + 1, min_dist=0.05)
    vals, grads, hesss = phi_jet_batch(cfg, xs)
    for i in (0, 17, 2 * CHUNK):
        jet = phi_jet(cfg, xs[i])
        assert vals[i] == jet.value
        np.testing.assert_array_equal(grads[i], jet.gradient)
        np.testing.assert_array_equal(hesss[i], jet.hessian)


def _rotation(q):
    a, b, c, d = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


_unit_interval = st.floats(-1.0, 1.0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    quaternion=st.tuples(*[_unit_interval] * 4).filter(lambda q: sum(v * v for v in q) > 0.01),
    shift=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
def test_jet_rigid_motion_invariance(seed, quaternion, shift):
    """Moving centres and points together by x -> Qx + b leaves phi fixed,
    rotates grad phi and conjugates Hess phi."""
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, k=int(rng.integers(1, 10)), max_mult=3)
    xs = points_away(rng, cfg, 40)
    Q, b = _rotation(quaternion), np.asarray(shift)
    moved = make_config(
        cfg.mass, [(Q @ p + b, int(c)) for p, c in zip(cfg.points, cfg.multiplicities)]
    )
    _, scale, vals, grads, hesss = potential.jet(cfg.mass, cfg.points, cfg.multiplicities, xs)
    _, _, v1, g1, h1 = potential.jet(moved.mass, moved.points, moved.multiplicities, xs @ Q.T + b)
    d = np.linalg.norm(xs[:, None, :] - cfg.points[None, :, :], axis=2)
    hess_scale = (cfg.multiplicities / d ** 3).sum(axis=1)
    assert np.all(np.abs(v1 - vals) <= 1e-12 * vals)
    assert np.all(np.linalg.norm(g1 - grads @ Q.T, axis=1) <= 1e-12 * scale)
    conj = np.einsum("ij,njk,lk->nil", Q, hesss, Q)
    assert np.all(np.abs(h1 - conj).max(axis=(1, 2)) <= 1e-12 * hess_scale)


def test_singular_row_in_last_chunk():
    rng = np.random.default_rng(3)
    cfg = random_config(rng, k=3)
    xs = points_away(rng, cfg, 3 * CHUNK + 5)
    xs[-1] = cfg.points[1] + 0.5 * cfg.exclusion_radius
    with pytest.raises(SingularPoint):
        phi_jet_batch(cfg, xs)
    with pytest.raises(SingularPoint):
        phi_jet_batch(cfg, xs, 1)
    assert cfg.min_centre_distance(xs)[-1] <= cfg.exclusion_radius
    phi_jet_batch(cfg, xs[:-1])


def test_singular_point_inside_exclusion_radius():
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1), ((2.0, 0.0, 0.0), 1)])
    assert cfg.exclusion_radius == pytest.approx(EXCLUSION_SCALE * 3.0, rel=1e-15)
    with pytest.raises(SingularPoint):
        phi_jet(cfg, (0.0, 0.0, 0.1 * cfg.exclusion_radius))
    # just outside is fine
    phi_jet(cfg, (0.0, 0.0, 10.0 * cfg.exclusion_radius))


def test_configuration_validation():
    with pytest.raises(EmptyConfiguration):
        make_config(0.0, [])
    # a constant potential (mass only) is a valid configuration
    assert make_config(1.5, []).k == 0
    with pytest.raises(InvalidParams):
        make_config(-1.0, [((0, 0, 0), 1)])
    with pytest.raises(InvalidParams):
        make_config(0.0, [((0, 0, 0), 1), ((0, 0, 0), 1)])
    with pytest.raises(InvalidParams):
        make_config(0.0, [((0, 0, 0), 0)])
    with pytest.raises(InvalidParams):
        make_config(0.0, [((0, 0, np.nan), 1)])


def test_diameter_is_computed_once_with_its_value_unchanged():
    cfg = make_config(0.0, [((0, 0, 0), 1), ((3, 4, 0), 1), ((1, 1, 1), 2)])
    assert "diameter" in vars(cfg) and cfg.diameter == 5.0
    assert cfg.exclusion_radius == EXCLUSION_SCALE * 6.0
    assert make_config(0.0, [((1, 2, 3), 1)]).diameter == 0.0
    assert make_config(1.5, []).diameter == 0.0
    rng = np.random.default_rng(8)
    cfg = random_config(rng, k=12)
    diffs = cfg.points[:, None, :] - cfg.points[None, :, :]
    assert cfg.diameter == float(np.sqrt((diffs ** 2).sum(axis=2)).max())


def test_points_array_is_read_only():
    cfg = make_config(0.0, [((0, 0, 1), 1), ((0, 0, -1), 1)])
    with pytest.raises(ValueError):
        cfg.points[0, 0] = 5.0


def test_parse_config_schema():
    good = {"m": 1.0, "points": [{"p": [0, 0, 1]}, {"p": [0, 0, -1], "c": 2}]}
    cfg = parse_config(good)
    assert cfg.k == 2 and cfg.multiplicities.tolist() == [1, 2]
    round_trip = parse_config(cfg.to_dict())
    np.testing.assert_array_equal(round_trip.points, cfg.points)

    bad = [
        {"points": []},
        {"m": 0.0},
        {"m": 0.0, "points": [], "extra": 1},
        {"m": "x", "points": []},
        {"m": 0.0, "points": [{"p": [0, 0]}]},
        {"m": 0.0, "points": [{"p": [0, 0, 0], "c": 1.5}]},
        {"m": 0.0, "points": [{"p": [0, 0, 0], "c": 0}]},
        {"m": 0.0, "points": [{"p": [0, 0, 0], "q": 1}]},
        {"m": -2.0, "points": [{"p": [0, 0, 0]}]},
    ]
    for data in bad:
        with pytest.raises(InvalidParams):
            parse_config(data)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": 0.5, "points": [{"p": [1, 0, 0], "c": 2}]}))
    cfg = load_config(str(path))
    assert cfg.mass == 0.5 and cfg.multiplicities[0] == 2
