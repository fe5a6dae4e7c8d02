"""Gaussian curvature of segment lifts: closed forms, decomposition, stability."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghconvex import (
    InvalidIndex,
    InvalidParams,
    SegmentSurface,
    SingularPoint,
    counterexample_closed_form,
    counterexample_config,
    gaussian_curvature_direct_batch,
    make_config,
    mn_decomposition_batch,
    phi_jet,
    strong_stability_scan,
    sufficient_condition,
)
from ghconvex.barriers import constant_Rk
from ghconvex.potential import jet

from conftest import quaternions, random_config, rotation


def eh_config(a=1.0, m=0.0):
    return make_config(m, [((0.0, 0.0, a), 1), ((0.0, 0.0, -a), 1)])


def chebyshev(n, half):
    return half * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))


def test_two_centre_curvature_is_one():
    seg = SegmentSurface(eh_config(), 0, 1)
    ts = chebyshev(100, 0.999)
    K = gaussian_curvature_direct_batch(seg, ts)
    np.testing.assert_allclose(K, 1.0, atol=1e-9)
    K, M, _, _ = mn_decomposition_batch(seg, [-0.5, 0.0, 0.7])
    assert K == pytest.approx(np.ones(3), abs=1e-12)
    assert M == pytest.approx(np.zeros(3), abs=1e-12)


def test_mass_one_value_at_midpoint():
    seg = SegmentSurface(eh_config(m=1.0), 0, 1)
    K, M, N, _ = mn_decomposition_batch(seg, 0.0)
    assert K[0] == pytest.approx(0.25, abs=1e-12)
    assert M[0] == pytest.approx(0.0, abs=1e-12)
    assert N[0] == pytest.approx(-4.0, abs=1e-12)
    assert gaussian_curvature_direct_batch(seg, [0.0])[0] == pytest.approx(0.25, abs=1e-12)


def test_direct_matches_decomposition():
    rng = np.random.default_rng(31)
    trials = 0
    while trials < 12:
        cfg = random_config(rng, k=int(rng.integers(3, 6)))
        seg = None
        for i in range(cfg.k):
            for j in range(i + 1, cfg.k):
                if cfg.multiplicities[i] == 1 and cfg.multiplicities[j] == 1:
                    try:
                        seg = SegmentSurface(cfg, i, j)
                    except InvalidParams:
                        continue
                    break
            if seg is not None:
                break
        if seg is None:
            continue
        ts = chebyshev(50, 0.95 * seg.a)
        direct = gaussian_curvature_direct_batch(seg, ts)
        via_mn, M, _, terms = mn_decomposition_batch(seg, ts)
        scale = np.abs(direct) + 1.0
        assert np.all(np.abs(direct - via_mn) <= 1e-9 * scale)
        assert M[:5] == pytest.approx(sum(t[:5] for t in terms), rel=1e-12, abs=1e-12)
        trials += 1


def test_curvature_matches_axis_finite_differences():
    # K depends on phi only through its restriction to the segment line
    cfg = counterexample_config(1.0, 2.0, m=0.5)
    seg = SegmentSurface(cfg, 0, 1)

    def phi_on_axis(t):
        return phi_jet(cfg, (0.0, 0.0, t)).value

    h = 1e-5
    for t in (-0.6, -0.1, 0.0, 0.3, 0.8):
        p0, pp, pm = phi_on_axis(t), phi_on_axis(t + h), phi_on_axis(t - h)
        d1 = (pp - pm) / (2 * h)
        d2 = (pp - 2 * p0 + pm) / h ** 2
        K_fd = d2 / (2 * p0 ** 2) - d1 ** 2 / p0 ** 3
        assert gaussian_curvature_direct_batch(seg, [t])[0] == pytest.approx(K_fd, rel=1e-5)


def test_counterexample_exact_rational():
    val = counterexample_closed_form(Fraction(1), Fraction(1, 10), Fraction(0))
    assert isinstance(val, Fraction)
    assert val == 2988
    assert counterexample_closed_form(1.0, 0.1, 1.0) == pytest.approx(3486.0)
    for bad in ((0.0, 1.0, 0.0), (1.0, -1.0, 0.0), (1.0, 1.0, -0.5)):
        with pytest.raises(InvalidParams):
            counterexample_closed_form(*bad)
    with pytest.raises(InvalidParams):
        counterexample_closed_form(1.0, 1.0 + 0j, 0.0)


def test_counterexample_matches_decomposition():
    for eps, m in ((0.1, 0.0), (0.5, 0.0), (2.0, 1.0), (0.25, 0.5)):
        cfg = counterexample_config(1.0, eps, m)
        seg = SegmentSurface(cfg, 0, 1)
        _, M, N, _ = mn_decomposition_batch(seg, 0.0)
        want = counterexample_closed_form(1.0, eps, m)
        assert M[0] + N[0] == pytest.approx(want, rel=1e-9)


def test_counterexample_single_sign_flip():
    eps = np.geomspace(1e-3, 10.0, 20000)
    vals = np.array([counterexample_closed_form(1.0, e, 0.0) for e in eps])
    signs = np.sign(vals)
    flips = int((signs[1:] != signs[:-1]).sum())
    assert flips == 1
    # the flip sits between 0.62 and 0.64
    lo, hi = counterexample_closed_form(1.0, 0.62, 0.0), counterexample_closed_form(
        1.0, 0.64, 0.0
    )
    assert lo > 0 > hi


def test_positive_closed_form_means_unstable_surface():
    # eps = 0.1 certifies K < 0 at the midpoint of the two-centre segment
    cfg = counterexample_config(1.0, 0.1, 0.0)
    seg = SegmentSurface(cfg, 0, 1)
    assert gaussian_curvature_direct_batch(seg, [0.0])[0] < 0
    min_k, _ = strong_stability_scan(seg, 200)
    assert min_k < 0


def test_sufficient_condition_structure():
    seg = SegmentSurface(eh_config(), 0, 1)
    holds, s, threshold = sufficient_condition(seg)
    assert holds and s == np.inf
    assert threshold == pytest.approx(constant_Rk(2))

    far = make_config(
        0.0,
        [((0, 0, 1.0), 1), ((0, 0, -1.0), 1), ((0, 30.0, 0.0), 2)],
    )
    seg = SegmentSurface(far, 0, 1)
    holds, s, threshold = sufficient_condition(seg)
    assert holds
    assert s == pytest.approx(29.0, rel=1e-12)
    assert threshold == pytest.approx(max(1.0, constant_Rk(4)))  # k_eff = 4

    near = counterexample_config(1.0, 0.1)
    holds, s, _ = sufficient_condition(SegmentSurface(near, 0, 1))
    assert not holds and s == pytest.approx(0.1 / 1.0 - 1.0)


def test_sufficient_condition_implies_positive_curvature():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        n_sat = int(rng.integers(0, 3))
        centres = [((0.0, 0.0, a), 1), ((0.0, 0.0, -a), 1)]
        for _ in range(n_sat):
            d = np.inf
            while not np.isfinite(d) or d < 6.0 * a:
                v = rng.standard_normal(3)
                v *= rng.uniform(6.0, 15.0) * a / np.linalg.norm(v)
                d = np.linalg.norm(v)
            centres.append((tuple(v), int(rng.integers(1, 3))))
        cfg = make_config(float(rng.choice([0.0, 1.0])), centres)
        seg = SegmentSurface(cfg, 0, 1)
        holds, _, _ = sufficient_condition(seg)
        if not holds:
            continue
        min_k, _ = strong_stability_scan(seg, 300)
        assert min_k > 0


def test_segment_surface_validation():
    cfg = eh_config()
    for i, j in ((0, 0), (0, 2), (-1, 1)):
        with pytest.raises(InvalidIndex):
            SegmentSurface(cfg, i, j)
    doubled = make_config(0.0, [((0, 0, 1.0), 2), ((0, 0, -1.0), 1)])
    with pytest.raises(InvalidParams):
        SegmentSurface(doubled, 0, 1)
    collinear = make_config(
        0.0, [((0, 0, 1.0), 1), ((0, 0, -1.0), 1), ((0, 0, 0.2), 1)]
    )
    with pytest.raises(InvalidParams):
        SegmentSurface(collinear, 0, 1)
    seg = SegmentSurface(cfg, 0, 1)
    with pytest.raises(SingularPoint):
        gaussian_curvature_direct_batch(seg, [1.0])
    for n in (50, 150.5):
        with pytest.raises(InvalidParams):
            strong_stability_scan(seg, n)


def test_tilted_segment_matches_axis_aligned():
    # the same two-centre geometry rotated and translated gives the same K(t)
    rng = np.random.default_rng(33)
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(R) < 0:
        R[:, 0] *= -1.0
    shift = np.array([0.3, -1.1, 0.7])
    p_plus = R @ [0, 0, 1.0] + shift
    p_minus = R @ [0, 0, -1.0] + shift
    sat = R @ [0, 2.5, 0.0] + shift
    cfg = make_config(0.0, [(p_plus, 1), (p_minus, 1), (sat, 1)])
    ref = SegmentSurface(counterexample_config(1.0, 2.5), 0, 1)
    tilted = SegmentSurface(cfg, 0, 1)
    assert tilted.a == pytest.approx(1.0, rel=1e-12)
    for t in (-0.7, 0.0, 0.4):
        assert gaussian_curvature_direct_batch(tilted, [t])[0] == pytest.approx(
            gaussian_curvature_direct_batch(ref, [t])[0], rel=1e-10
        )


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    quaternion=quaternions,
    shift=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
def test_segment_curvature_rigid_motion_invariance(seed, quaternion, shift):
    """Moving the configuration by x -> Qx + b leaves the segment's K(t)
    fixed, by the direct route and by M + N."""
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, k=int(rng.integers(2, 7)))
    mults = np.array(cfg.multiplicities)
    mults[:2] = 1
    cfg = make_config(cfg.mass, [(p, int(c)) for p, c in zip(cfg.points, mults)])
    Q, b = rotation(quaternion), np.asarray(shift)
    moved = make_config(cfg.mass, [(Q @ p + b, int(c)) for p, c in zip(cfg.points, mults)])
    seg, seg1 = SegmentSurface(cfg, 0, 1), SegmentSurface(moved, 0, 1)
    assert abs(seg1.a - seg.a) <= 1e-14 * seg.a
    ts = chebyshev(30, 0.95 * seg.a)
    K = gaussian_curvature_direct_batch(seg, ts)
    # the size of K's two terms, which may cancel
    axis = np.zeros((ts.size, 3))
    axis[:, 2] = ts
    _, _, vals, grads, hesss = jet(cfg.mass, seg.rotated_points, mults, axis)
    size = np.abs(hesss[:, 2, 2]) / (2.0 * vals ** 2) + grads[:, 2] ** 2 / vals ** 3
    assert np.all(np.abs(gaussian_curvature_direct_batch(seg1, ts) - K) <= 1e-10 * size)
    K_mn = mn_decomposition_batch(seg, ts)[0]
    K1_mn = mn_decomposition_batch(seg1, ts)[0]
    assert np.all(np.abs(K1_mn - K_mn) <= 1e-10 * (np.abs(K_mn) + size))
