"""Self-checks of the connection-coefficient oracle ``reference_gamma``.

The oracle lives in conftest.py and is the independent route for the lifted
second fundamental form (tests/test_surfaces.py).  Here it is checked by hand
values and by the two properties that fix the Levi-Civita connection: metric
compatibility and vanishing torsion.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from ghconvex import make_config, phi_jet

from conftest import perm_sign, points_away, random_config, reference_gamma


def test_levi_civita_matches_permutation_sign():
    # the oracle's permutation sign against the product formula
    for i, j, k in itertools.product(range(3), repeat=3):
        assert perm_sign(i, j, k) == (i - j) * (j - k) * (k - i) // 2


def test_hand_value_single_centre():
    # phi = 1/(2r); at x = e1: s = sqrt(2), d1 phi = -1/2
    cfg = make_config(0.0, [((0.0, 0.0, 0.0), 1)])
    gamma = reference_gamma(cfg, (1.0, 0.0, 0.0))
    assert gamma[0, 0, 1] == pytest.approx(-1.0 / np.sqrt(2.0), rel=1e-15)
    assert gamma[0, 1, 0] == pytest.approx(+1.0 / np.sqrt(2.0), rel=1e-15)
    assert gamma[0, 0, 2] == 0.0 and gamma[0, 0, 3] == 0.0


def test_antisymmetry_in_last_pair():
    rng = np.random.default_rng(9)
    cfg = random_config(rng, k=4)
    for x in points_away(rng, cfg, 25):
        g = reference_gamma(cfg, x)
        np.testing.assert_allclose(g + np.swapaxes(g, 1, 2), 0.0, atol=1e-16)


def test_torsion_free():
    # gamma[a, b, .] - gamma[b, a, .] = <[e_a, e_b], .>, with the frame
    # brackets that follow from d eta = *d phi and [xi, horizontal lifts] = 0:
    #   [e_i, e_j] = s (d_j phi e_i - d_i phi e_j) - 2 s eps_ijk d_k phi e_0
    #   [e_0, e_i] = -s d_i phi e_0
    rng = np.random.default_rng(21)
    cfg = random_config(rng, k=4)
    for x in points_away(rng, cfg, 10):
        g = reference_gamma(cfg, x)
        jet = phi_jet(cfg, x)
        d = jet.gradient
        s = 0.5 * jet.value ** -1.5
        bracket = np.zeros((4, 4, 4))
        for i in range(1, 4):
            bracket[0, i, 0] = -s * d[i - 1]
            bracket[i, 0, 0] = s * d[i - 1]
            for j in range(1, 4):
                bracket[i, j, i] += s * d[j - 1]
                bracket[i, j, j] -= s * d[i - 1]
                bracket[i, j, 0] = -2.0 * s * sum(perm_sign(i - 1, j - 1, k) * d[k] for k in range(3))
        np.testing.assert_allclose(
            g - np.swapaxes(g, 0, 1), bracket, rtol=0, atol=1e-14 * np.abs(g).max()
        )


def test_tangential_block_structure():
    rng = np.random.default_rng(13)
    cfg = random_config(rng, k=3)
    x = points_away(rng, cfg, 1)[0]
    g = reference_gamma(cfg, x)
    jet = phi_jet(cfg, x)
    s = 0.5 * jet.value ** -1.5
    # gamma[i, j, k] couples only through the gradient of phi
    for i, j, k in itertools.product(range(1, 4), repeat=3):
        want = s * (
            jet.gradient[j - 1] * (i == k) - (i == j) * jet.gradient[k - 1]
        )
        assert g[i, j, k] == pytest.approx(want, abs=1e-15)
