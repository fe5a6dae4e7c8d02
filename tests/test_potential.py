"""Potential jets: hand values, finite differences, harmonicity, validation."""
from __future__ import annotations

import hashlib
import json
import tracemalloc

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
from ghconvex.potential import EXCLUSION_SCALE, PointConfiguration, block_rows

from conftest import points_away, quaternions, random_config, reference_jet, rotation


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
    """Central-difference gradient (step h_g) and Hessian (step h_H) of phi
    at x, from one order-0 jet call on the 6 + 36 stencil points."""
    e = np.eye(3)
    h = h_H
    stencil = [p for i in range(3) for p in (x + h_g * e[i], x - h_g * e[i])]
    stencil += [
        p
        for i in range(3)
        for j in range(3)
        for p in (
            x + h * (e[i] + e[j]),
            x + h * (e[i] - e[j]),
            x - h * (e[i] - e[j]),
            x - h * (e[i] + e[j]),
        )
    ]
    val = phi_jet_batch(config, np.array(stencil), order=0)[0]
    g = (val[0:6:2] - val[1:6:2]) / (2 * h_g)
    q = val[6:].reshape(3, 3, 4)
    H = (q[..., 0] - q[..., 1] - q[..., 2] + q[..., 3]) / (4 * h * h)
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


def _check_kernel_against_reference(rng, k, n):
    cfg = random_config(rng, k=k, mass=1.0, max_mult=3)
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


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 6149])
def test_kernel_matches_reference_jet(n):
    # seven centres make 4681-row blocks: 6149 rows end in a partial one
    _check_kernel_against_reference(np.random.default_rng(n), 7, n)


@pytest.mark.parametrize("k", [1, 6, 50, 200])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_kernel_matches_reference_jet_at_block_edges(k, edge):
    # one row past a block is the padded case
    n = block_rows(k) + edge
    _check_kernel_against_reference(np.random.default_rng([k, n]), k, n)


@pytest.mark.parametrize("k", [9, 50])
def test_single_rows_match_batch_with_many_centres(k):
    # numpy sums a one-column block pairwise from 8 terms on, so the kernel
    # must keep single rows on the batch's summation order
    rng = np.random.default_rng(k)
    cfg = random_config(rng, k=k)
    n = 2 * block_rows(k) + 1
    xs = points_away(rng, cfg, n, min_dist=0.05)
    vals, grads, hesss = phi_jet_batch(cfg, xs)
    for i in (0, 17, n - 1):
        jet = phi_jet(cfg, xs[i])
        assert vals[i] == jet.value
        np.testing.assert_array_equal(grads[i], jet.gradient)
        np.testing.assert_array_equal(hesss[i], jet.hessian)


# SHA-256 of jet's outputs at orders 0, 1 and 2, in that order, for each
# (centres, rows) case of _digest_case.  Captured from the kernel that held
# one difference component at a time; like the goldens in tests/golden,
# they belong to numpy 2.4.6, whose reduction order they record.
JET_DIGESTS = {
    (1, 32767): "444be031d04b0fef67414dfc28f26db142f17c5bdcaf0a424e9c93f4cd876eea",
    (1, 32768): "0debb75ce5017f831b42835f284d1e38795a904d2fb762a50e4c45087f3373fd",
    (1, 32769): "d91e47a9ed7504f21b1a18a7c2cd3ed400ec5768633eba29ed6264e4feef2b91",
    (1, 40000): "e9c098317c052948ec2387eb2e6b14cb76acf4e63b0821eff172893688300d4c",
    (6, 5460): "da171718a7640d7c303d629cb29718fa2a0443073687121a647db178eec1b821",
    (6, 5461): "2dfc51642d210961f72c85c6de2648e3e11fa39196021d7278bfa59ba3c06c7e",
    (6, 5462): "f9721ca7690d013ab8fc2a8712f6e782b34cb5dde59511b8094496af2dd87bfc",
    (6, 40000): "be7066e3ae0fc32ec7ac5ac19a1e5b40ad5f294cd549c6ba0618b0b736b6b570",
    (50, 654): "c8552ed3b26b2b0b2253b1b06785b53b0bfe5b4afd0136b68d1b6af777ae6e9f",
    (50, 655): "47a9a344ac060ce20e29afeb09dd7455dbe10907bacf1ba1aaef131c8776db95",
    (50, 656): "d51fed96da802cc4677f0f9f1f9d5e2c9407cc71d76fa0f533f6c8cb7cb02e76",
    (50, 40000): "53ff0d364e331d59380ce1fa0366a6d592ec8f1abbdab30e5aefcb0087d807b0",
    (200, 162): "b1643af5e1c1a0d710a1fc802f6260411a2b4dcbdce16130d193b591caef6103",
    (200, 163): "7d511d8646336f70c9cb98e5a8d61e149bef2a2d270018266dcb61f2329a1a4a",
    (200, 164): "47b2bf80f4ddcc6358d01b60abc1be5ddbc491f304d763ea177ac437f98beb01",
    (200, 40000): "f8c7b5564d4d9c1f3ef0a32912c83842327d1ac0e1301cedec85c1281b8a93f3",
}


def _digest_case(k, n):
    """Centres with multiplicities 1-3 and n rows, the middle one inside the
    exclusion radius of the last centre."""
    rng = np.random.default_rng([k, n])
    cfg = random_config(rng, k=k, mass=1.0, box=6.0, max_mult=3)
    xs = rng.uniform(-7.0, 7.0, (n, 3))
    xs[n // 2] = cfg.points[-1] + 0.25 * cfg.exclusion_radius
    return cfg, xs


@pytest.mark.parametrize("k, n", sorted(JET_DIGESTS))
def test_jet_bits_are_pinned(k, n):
    """The kernel's outputs are byte-identical to the digests: a rewrite of
    its arithmetic may change speed and memory, not bits."""
    cfg, xs = _digest_case(k, n)
    h = hashlib.sha256()
    for order in (0, 1, 2):
        out = potential.jet(cfg.mass, cfg.points, cfg.multiplicities, xs, order)
        assert out[0][n // 2] <= cfg.exclusion_radius
        for a in out:
            h.update(b"-" if a is None else a.tobytes())
    assert h.hexdigest() == JET_DIGESTS[k, n]


@pytest.mark.parametrize("k", [6, 50, 200])
@pytest.mark.parametrize("order", [1, 2])
def test_jet_memory_is_bounded_by_block(k, order):
    """Beyond its own outputs, one call on 40 000 rows holds at most 8 blocks
    of BLOCK doubles at its peak, whatever the number of rows."""
    cfg, xs = _digest_case(k, 40000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = potential.jet(cfg.mass, cfg.points, cfg.multiplicities, xs, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in out if a is not None)
    assert peak - before - outputs <= 8 * potential.BLOCK * 8



@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    quaternion=quaternions,
    shift=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
def test_jet_rigid_motion_invariance(seed, quaternion, shift):
    """Moving centres and points together by x -> Qx + b leaves phi fixed,
    rotates grad phi and conjugates Hess phi."""
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, k=int(rng.integers(1, 10)), max_mult=3)
    xs = points_away(rng, cfg, 40)
    Q, b = rotation(quaternion), np.asarray(shift)
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


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.05, 20.0))
def test_jet_dilation_law(seed, lam):
    """Centres lam p_i with mass m / lam give phi_lam(lam x) = phi(x) / lam:
    grad phi scales by 1/lam^2 and Hess phi by 1/lam^3."""
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, k=int(rng.integers(1, 10)), max_mult=3)
    xs = points_away(rng, cfg, 40)
    dilated = PointConfiguration(cfg.mass / lam, lam * cfg.points, cfg.multiplicities)
    _, scale, vals, grads, hesss = potential.jet(cfg.mass, cfg.points, cfg.multiplicities, xs)
    _, s1, v1, g1, h1 = potential.jet(
        dilated.mass, dilated.points, dilated.multiplicities, lam * xs
    )
    d = np.linalg.norm(xs[:, None, :] - cfg.points[None, :, :], axis=2)
    hess_scale = (cfg.multiplicities / d ** 3).sum(axis=1)
    assert np.all(np.abs(lam * v1 - vals) <= 1e-12 * vals)
    assert np.all(np.abs(lam ** 2 * s1 - scale) <= 1e-12 * scale)
    assert np.all(np.linalg.norm(lam ** 2 * g1 - grads, axis=1) <= 1e-12 * scale)
    assert np.all(np.abs(lam ** 3 * h1 - hesss).max(axis=(1, 2)) <= 1e-12 * hess_scale)


def test_singular_row_in_last_chunk():
    rng = np.random.default_rng(3)
    cfg = random_config(rng, k=3)
    xs = points_away(rng, cfg, 3 * block_rows(cfg.k) + 5)
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
