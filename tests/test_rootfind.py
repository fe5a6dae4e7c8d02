"""The row-wise bracketed Newton root finder."""
from __future__ import annotations

import math

import numpy as np
import pytest

import ghconvex.rootfind as rootfind_module
from ghconvex import InvalidParams, NoConvergence
from ghconvex.rootfind import bisect_newton


def square_minus(c):
    """fdf of x^2 - c_row, recording the rows asked for at each call."""
    c = np.asarray(c, dtype=float)
    calls = []

    def fdf(x, rows):
        calls.append(rows.copy())
        return x * x - c[rows], 2.0 * x

    return fdf, calls


def test_bisect_requires_sign_change():
    fdf, _ = square_minus([-1.0, 2.0])
    with pytest.raises(InvalidParams, match="no sign change on 1 of 2 brackets"):
        bisect_newton(fdf, [-1.0, 0.0], [1.0, 2.0])


def test_bisect_endpoint_roots():
    # f = s (x - c): rising rows, then falling rows, root at lo and at hi
    c = np.array([0.0, 1.0, 2.0, 3.0])
    s = np.array([1.0, 1.0, -1.0, -1.0])

    def fdf(x, rows):
        return s[rows] * (x - c[rows]), s[rows]

    roots = bisect_newton(fdf, [0.0, 0.0, 2.0, 2.0], [1.0, 1.0, 3.0, 3.0])
    assert roots.tolist() == c.tolist()


def test_bisect_cosine():
    # f' = 0 at the start x = 0 sends the first step to the midpoint
    root = bisect_newton(lambda x, rows: (np.cos(x), -np.sin(x)), 0.0, 2.0)
    assert root[0] == pytest.approx(math.pi / 2, abs=1e-15)


def test_newton_polish_hits_machine_precision():
    fdf, _ = square_minus([2.0])
    root = bisect_newton(fdf, 0.0, 2.0)
    assert root.shape == (1,)
    assert root[0] == pytest.approx(math.sqrt(2.0), abs=5e-16)


def plain_bisection(f, lo, hi):
    """Halve [lo, hi] until its midpoint is one of its ends."""
    flo = f(lo)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == (flo < 0.0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return lo


def test_newton_agrees_with_plain_bisection():
    # the R_k cubics, falling through their roots, and their negatives, rising
    k = np.arange(2, 11, dtype=float)
    sign = np.concatenate([np.ones(9), -np.ones(9)])
    k = np.concatenate([k, k])

    def fdf(x, rows):
        s, c0 = sign[rows], k[rows] - 2.0
        return s * (-4.0 * x ** 3 + 16.0 * x ** 2 + 2.0 * x + c0), s * (-12.0 * x ** 2 + 32.0 * x + 2.0)

    roots = bisect_newton(fdf, 4.0, 4.0 + k)
    for i, root in enumerate(roots):
        oracle = plain_bisection(lambda x: float(fdf(np.array([x]), np.array([i]))[0][0]), 4.0, 4.0 + k[i])
        assert root == pytest.approx(oracle, abs=1e-14)


def test_rows_stop_independently():
    # a root at a bracket end stops at once; a far bracket needs more steps
    fdf, calls = square_minus([1.0, 2.0, 1e6])
    roots = bisect_newton(fdf, [0.0, 0.0, 0.0], [1.0, 2.0, 2e6])
    np.testing.assert_allclose(roots, np.sqrt([1.0, 2.0, 1e6]), rtol=1e-15)
    steps = [sum(int(i in rows) for rows in calls[2:]) for i in range(3)]
    assert steps[0] == 0 < steps[1] < steps[2]
    assert calls[-1].tolist() == [2]


def test_bisection_guards_a_step_that_leaves_the_bracket():
    # Newton from x = 2 on atan lands near -3.5, far outside [-1, 2]
    calls = []

    def fdf(x, rows):
        calls.append(x.copy())
        return np.arctan(x), 1.0 / (1.0 + x * x)

    assert bisect_newton(fdf, -1.0, 2.0)[0] == pytest.approx(0.0, abs=1e-15)
    assert calls[2].tolist() == [0.5]


def test_the_shrinking_bracket_breaks_a_newton_cycle():
    # plain Newton on x^3 - 2x + 2 cycles 1 -> 0 -> 1; once f(0) > 0 moves
    # the bracket's upper end to 0, the step back to 1 bisects instead
    def fdf(x, rows):
        return x ** 3 - 2.0 * x + 2.0, 3.0 * x ** 2 - 2.0

    root = bisect_newton(fdf, -2.0, 1.0)[0]
    assert abs(fdf(root, None)[0]) <= 4e-15


def test_step_cap_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(rootfind_module, "MAX_STEPS", 2)
    fdf, _ = square_minus([2.0, 1.0])
    with pytest.raises(NoConvergence, match="in 2 steps on 1 of 2 rows"):
        bisect_newton(fdf, [0.0, 0.0], [2.0, 1.0])
