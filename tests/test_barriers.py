"""Closed-form barrier margins, named constants and the ellipsoid inequalities."""
from __future__ import annotations

import numpy as np
import pytest

from ghconvex import (
    InvalidK,
    InvalidParams,
    Sphere,
    TwoFociEllipsoid,
    codim2_margin_curve,
    codim2_threshold,
    constant_C,
    constant_Rk,
    constants_Rk,
    cylinder_hyp_margin_batch,
    cylinder_margin_curve,
    cylinder_threshold,
    ellipsoid_inequalities,
    lifted_sff,
    make_config,
    phi_jet,
    plane_hyp_margin_batch,
    plane_margin_curve,
    sphere_codim2_margins_batch,
    sphere_hyp_margin_batch,
    sphere_margin_curve,
    sphere_threshold,
    surface_point,
)
from ghconvex.rootfind import bisect_newton

from conftest import random_config, sylvester_positive


def unit_dirs(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# --- named constants ------------------------------------------------------

def test_constant_C_value_and_residual():
    C = constant_C()
    assert 5.06 <= C <= 5.08
    assert abs(-C ** 3 + 4 * C ** 2 + 5 * C + 2) < 1e-9


def test_constant_Rk_values():
    assert constant_Rk(2) == pytest.approx((16 + np.sqrt(288)) / 8, abs=1e-12)
    for k in range(2, 21):
        R = constant_Rk(k)
        assert R > 4.0
        assert abs(-4 * R ** 3 + 16 * R ** 2 + 2 * R + (k - 2)) < 1e-9
    for bad in (1, 0, 2.5, "3"):
        with pytest.raises(InvalidK):
            constant_Rk(bad)


def test_constants_Rk_solves_each_cubic_as_its_own_call():
    """One call over all k gives each R_k the bits of a one-row solve of the
    np.poly1d cubic."""
    ks = list(range(2, 41))
    batched = constants_Rk(ks)
    for k, R in zip(ks, batched):
        p = np.poly1d([-4.0, 16.0, 2.0, float(k - 2)])
        dp = p.deriv()
        alone = float(bisect_newton(lambda x, rows: (p(x), dp(x)), 4.0, 4.0 + float(k))[0])
        assert type(R) is float and R == alone == constant_Rk(k)
    for bad in ([2, 1], [3, 2.5], [True]):
        with pytest.raises(InvalidK):
            constants_Rk(bad)


# --- flat single-centre hand values ---------------------------------------

def test_flat_sphere_margin():
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    for r in (0.5, 1.0, 2.0):
        x = np.array([0.0, r, 0.0])
        assert sphere_hyp_margin_batch(cfg, x[None])[0] == pytest.approx(3.0 / (2.0 * r), rel=1e-14)


def test_flat_codim2_margins():
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    for r in (0.5, 1.0, 2.0):
        minor1, det_aux = (v[0] for v in sphere_codim2_margins_batch(cfg, [(r, 0.0, 0.0)]))
        assert minor1 == pytest.approx(1.0 / (2.0 * r), rel=1e-14)
        assert det_aux == pytest.approx(-1.0 / (4.0 * r ** 4), rel=1e-13)


def test_sphere_margins_reject_the_origin():
    # the sphere through x = 0 has radius 0; det_aux would divide by |x|^2
    cfg = make_config(0.0, [((0.0, 0.0, 1.0), 1)])
    xs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for margins in (sphere_hyp_margin_batch, sphere_codim2_margins_batch):
        with pytest.raises(InvalidParams, match="nonzero"):
            margins(cfg, xs)


def test_flat_cylinder_margin():
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    r = 1.5
    assert cylinder_hyp_margin_batch(cfg, [(r, 0.0, 0.0)])[0] == pytest.approx(
        1.0 / (2.0 * r ** 2), rel=1e-14
    )


def test_flat_plane_margin():
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    x = np.array([1.0, 2.0, 2.0])  # |x| = 3, height 2 along e3
    got = plane_hyp_margin_batch(cfg, x[None, :], (0.0, 0.0, 1.0))[0]
    assert got == pytest.approx(2.0 / (2.0 * 27.0), rel=1e-14)


# --- hand-derived per-centre lower bounds ---------------------------------

def test_sphere_margin_per_centre_bound():
    # margin >= 4m + sum_i c_i (3r - 4|p_i|)(r - |p_i|) / (2|x - p_i|^3)
    rng = np.random.default_rng(21)
    for _ in range(10):
        cfg = random_config(rng)
        pn = np.linalg.norm(cfg.points, axis=1)
        r = rng.uniform(1.4, 3.0) * pn.max()
        xs = r * unit_dirs(rng, 400)
        margins = sphere_hyp_margin_batch(cfg, xs)
        d = np.linalg.norm(xs[:, None, :] - cfg.points[None, :, :], axis=2)
        bound = 4.0 * cfg.mass + (
            cfg.multiplicities * (3 * r - 4 * pn) * (r - pn) / (2 * d ** 3)
        ).sum(axis=1)
        assert np.all(margins >= bound - 1e-10 * np.abs(margins))
        assert np.all(margins > 0)


def test_cylinder_margin_per_centre_bound():
    # margin >= 2m/r + sum_i c_i (r - r_i)(r - 2 r_i) / (2 r |x - p_i|^3)
    rng = np.random.default_rng(22)
    for _ in range(10):
        cfg = random_config(rng)
        ri = np.linalg.norm(cfg.points[:, :2], axis=1)  # distance from the z-axis
        r = rng.uniform(2.05, 4.0) * max(ri.max(), 0.1)
        theta = rng.uniform(0, 2 * np.pi, 400)
        z = rng.uniform(-5, 5, 400)
        xs = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
        margins = cylinder_hyp_margin_batch(cfg, xs)
        d = np.linalg.norm(xs[:, None, :] - cfg.points[None, :, :], axis=2)
        bound = 2.0 * cfg.mass / r + (
            cfg.multiplicities * (r - ri) * (r - 2 * ri) / (2 * r * d ** 3)
        ).sum(axis=1)
        assert np.all(margins >= bound - 1e-10 * np.abs(margins))
        assert np.all(margins > 0)


# --- thresholds ------------------------------------------------------------

def test_threshold_formulas():
    cfg = make_config(0.0, [((0, 0, 2.0), 1), ((1.0, 0, 0), 1)])
    assert sphere_threshold(cfg) == pytest.approx(8.0 / 3.0)
    assert codim2_threshold(cfg) == pytest.approx(2.0 * constant_C())
    assert cylinder_threshold(cfg) == pytest.approx(2.0)  # z-axis default
    tilted = cylinder_threshold(cfg, axis=((0, 0, 0), (1.0, 0, 0)))
    assert tilted == pytest.approx(4.0)


# --- codim-2 sign pattern is Sylvester positivity of the lift --------------

def test_codim2_pattern_matches_sylvester():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 1000:
        cfg = random_config(rng, mass=0.0)
        pn = np.linalg.norm(cfg.points, axis=1).max()
        # mix radii on both sides of the certified threshold
        r = pn * rng.uniform(1.05, 8.0)
        for x in r * unit_dirs(rng, 40):
            if np.linalg.norm(x[None] - cfg.points, axis=1).min() < 0.05:
                continue
            minor1, det_aux = (v[0] for v in sphere_codim2_margins_batch(cfg, x[None]))
            azimuth = np.arctan2(x[1], x[0]) % (2 * np.pi)
            polar = np.arccos(np.clip(x[2] / r, -1, 1))
            if polar < 1e-3 or polar > np.pi - 1e-3:
                continue
            S = lifted_sff(cfg, surface_point(Sphere(r), (azimuth, polar))).matrix
            lam = np.linalg.eigvalsh(S)
            if min(abs(minor1), abs(det_aux)) < 1e-8 or abs(lam[0]) < 1e-8:
                continue  # too close to the boundary to compare signs
            assert (minor1 > 0 and det_aux < 0) == sylvester_positive(S)
            checked += 1


# --- ellipsoid inequalities -------------------------------------------------

def test_ellipsoid_hand_value():
    E1, _, _ = ellipsoid_inequalities(1.0, 0.0, 1.0, np.pi / 2)
    c, s = np.cosh(1.0), np.sinh(1.0)
    assert float(E1) == pytest.approx((c * c + 1.0) / (c ** 3 * s), rel=1e-14)
    assert float(E1) == pytest.approx(0.7830322548625208, abs=1e-15)


def test_ellipsoid_matches_lifted_sff_minors():
    # leading principal minors of the lift are (fq)E1, (fq)^2 E1 E2, (fq)^3 E2 E4
    rng = np.random.default_rng(24)
    a = 1.0
    cfg0 = make_config(0.0, [((0, 0, a), 1), ((0, 0, -a), 1)])
    cfg1 = make_config(1.0, [((0, 0, a), 1), ((0, 0, -a), 1)])
    for cfg, m in ((cfg0, 0.0), (cfg1, 1.0)):
        for _ in range(40):
            r = rng.uniform(0.1, 2.5)
            beta = rng.uniform(0.05, np.pi - 0.05)
            alpha = rng.uniform(0, 2 * np.pi)
            d = surface_point(TwoFociEllipsoid(a, r), (alpha, beta))
            S = lifted_sff(cfg, d).matrix
            phi = phi_jet(cfg, d.x).value
            fq = phi ** -0.5 / (2.0 * phi)
            E1, E2, E4 = (float(v) for v in ellipsoid_inequalities(a, m, r, beta))
            assert S[0, 0] == pytest.approx(fq * E1, rel=1e-9)
            m2 = np.linalg.det(S[:2, :2])
            assert m2 == pytest.approx(fq ** 2 * E1 * E2, rel=1e-9)
            assert np.linalg.det(S) == pytest.approx(fq ** 3 * E2 * E4, rel=1e-8)
            assert sylvester_positive(S) == bool(E1 > 0 and E2 > 0 and E4 > 0)


def test_ellipsoid_positive_on_grid():
    r = np.linspace(0.05, 3.0, 64)
    beta = np.linspace(0.0, np.pi, 64)  # poles included: closed form holds there
    R, B = np.meshgrid(r, beta, indexing="ij")
    for m in (0.0, 1.0, 3.0):
        E1, E2, E4 = ellipsoid_inequalities(1.0, m, R, B)
        assert np.all(np.isfinite(E1)) and np.all(np.isfinite(E2))
        assert E1.min() > 0 and E2.min() > 0 and E4.min() > 0


def test_ellipsoid_rejects_bad_arguments():
    with pytest.raises(InvalidParams):
        ellipsoid_inequalities(-1.0, 0.0, 1.0, 0.5)
    with pytest.raises(InvalidParams):
        ellipsoid_inequalities(1.0, -0.5, 1.0, 0.5)
    with pytest.raises(InvalidParams):
        ellipsoid_inequalities(1.0, 0.0, -0.3, 0.5)
    with pytest.raises(InvalidParams):
        ellipsoid_inequalities(1.0, 0.0, 1.0, 3.5)


# --- margin curves -----------------------------------------------------------

def test_sphere_margin_curve_positive_above_threshold():
    rng = np.random.default_rng(25)
    cfg = random_config(rng, k=4, mass=0.0)
    thr = sphere_threshold(cfg)
    radii = np.linspace(1.01 * thr, 4 * thr, 12)
    curve = sphere_margin_curve(cfg, radii, n_dirs=256)
    assert len(curve) == 12
    for pt, r in zip(curve, radii):
        assert pt.parameter == r and pt.threshold == pytest.approx(thr)
        assert pt.margin > 0
        assert np.linalg.norm(pt.argmin) == pytest.approx(r, rel=1e-12)


def test_codim2_margin_curve_sign_pattern():
    rng = np.random.default_rng(26)
    cfg = random_config(rng, k=3, mass=0.0)
    thr = codim2_threshold(cfg)
    curve = codim2_margin_curve(cfg, np.linspace(1.02 * thr, 3 * thr, 8), n_dirs=256)
    for pt in curve:
        assert pt.min_minor1 > 0
        assert pt.max_det_aux < 0
        assert pt.threshold == pytest.approx(thr)


def test_cylinder_and_plane_margin_curves():
    rng = np.random.default_rng(27)
    cfg = random_config(rng, k=3, mass=1.0)
    thr = cylinder_threshold(cfg)
    radii = np.linspace(2.01 * max(thr / 2, 0.1) * 2, 4 * max(thr, 0.2), 6)
    for pt in cylinder_margin_curve(cfg, radii, n_samples=256):
        assert pt.margin > 0
    top = cfg.points @ np.array([0.0, 0.0, 1.0])
    offsets = top.max() + np.linspace(0.5, 3.0, 5)
    for pt in plane_margin_curve(cfg, (0, 0, 1), offsets, n_samples=256):
        assert pt.margin > 0


@pytest.mark.parametrize("count", [0, 2.5])
@pytest.mark.parametrize("curve", [
    lambda cfg, n: sphere_margin_curve(cfg, [5.0], n_dirs=n),
    lambda cfg, n: codim2_margin_curve(cfg, [5.0], n_dirs=n),
    lambda cfg, n: cylinder_margin_curve(cfg, [5.0], n_samples=n),
    lambda cfg, n: plane_margin_curve(cfg, (0.0, 0.0, 1.0), [5.0], n_samples=n),
], ids=["sphere", "codim2", "cylinder", "plane"])
def test_margin_curves_reject_bad_sample_counts(curve, count):
    """A count below one or not an integer is InvalidParams, not a numpy
    error from an empty or fractional sample."""
    cfg = make_config(0.0, [((0.0, 0.0, 1.0), 1), ((0.0, 0.0, -1.0), 1)])
    with pytest.raises(InvalidParams, match="must be"):
        curve(cfg, count)


def test_margin_frames_reject_bad_vectors():
    cfg = make_config(0.0, [((0.0, 0.0, 1.0), 1), ((0.0, 0.0, -1.0), 1)])
    with pytest.raises(InvalidParams, match="plane direction must be nonzero"):
        plane_margin_curve(cfg, (0.0, 0.0, 0.0), [2.0], n_samples=8)
    with pytest.raises(InvalidParams, match="axis point must be a finite 3-vector"):
        cylinder_margin_curve(cfg, [3.0], axis=((np.nan, 0.0, 0.0), (0.0, 0.0, 1.0)), n_samples=8)
    with pytest.raises(InvalidParams, match="axis direction must be a finite 3-vector"):
        cylinder_threshold(cfg, axis=((0.0, 0.0, 0.0), (0.0, np.inf, 1.0)))
