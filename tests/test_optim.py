import math

import numpy as np
import pytest

from crqiv.optim import CERT_TOL, MinimizeResult, minimize_box_multistart


def shift(center):
    """Residual x - center with identity Jacobian: objective ||x - center||^2."""
    c = np.asarray(center, dtype=np.float64)

    def f(x):
        return x - c, np.eye(c.size)
    return f


def ramp(flat_until, root):
    """1-D residual flat at 0.5 on [0, flat_until], then linear through a root."""
    slope = -0.5 / (root - flat_until)

    def f(x):
        t = float(x[0])
        if t <= flat_until:
            return np.array([0.5]), np.array([[0.0]])
        return np.array([0.5 + slope * (t - flat_until)]), np.array([[slope]])
    return f


def test_interior_quadratic_minimum():
    res = minimize_box_multistart(shift([0.3, 0.7]), [0.0, 0.0], [1.0, 1.0], warm=[0.9, 0.1])
    assert res.converged
    assert res.fun < 1e-20
    assert res.x == pytest.approx([0.3, 0.7], abs=1e-12)
    assert res.n_restarts == 1


def test_minimum_clipped_to_box_face():
    # unconstrained minimum at (2, 0.5) lies outside; solution sits on x0=1
    res = minimize_box_multistart(shift([2.0, 0.5]), [0.0, 0.0], [1.0, 1.0], warm=[0.5, 0.5])
    assert res.fun == pytest.approx(1.0, abs=1e-12)
    assert res.x == pytest.approx([1.0, 0.5], abs=1e-12)
    assert not res.converged  # no root in the box: not certified


def test_iterates_never_leave_box():
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.array([x[0] - 5.0, x[1] + 3.0, x[0] * x[1] - 9.0]), np.array(
            [[1.0, 0.0], [0.0, 1.0], [x[1], x[0]]]
        )

    minimize_box_multistart(f, [0.0, 0.0], [1.0, 1.0], warm=[0.2, 0.8])
    assert len(seen) > 1
    for p in seen:
        assert 0.0 <= p[0] <= 1.0
        assert 0.0 <= p[1] <= 1.0


def test_result_fields_populated():
    res = minimize_box_multistart(shift([0.5]), [0.0], [1.0], warm=[0.1])
    assert isinstance(res, MinimizeResult)
    assert isinstance(res.x, list) and len(res.x) == 1
    assert all(type(v) is float for v in res.x)
    assert math.isfinite(res.fun)
    assert res.residual <= CERT_TOL
    assert res.converged is True
    assert res.n_eval > 0
    assert res.n_restarts == 1


def test_n_eval_counts_every_call_including_restarts():
    calls = [0]
    inner = ramp(0.3, 0.65)

    def f(x):
        calls[0] += 1
        return inner(x)

    res = minimize_box_multistart(f, [0.0], [1.0], warm=[0.1])
    assert res.n_restarts > 1
    assert res.n_eval == calls[0]


def test_lattice_points_full_product():
    # with no root anywhere, every start of the restart lattice is tried:
    # the warm start, then the product of box fractions (0.05, 0.5, 0.95)
    starts = []

    def f(x):
        starts.append(tuple(x))
        return np.array([1.0]), np.zeros((1, 2))

    res = minimize_box_multistart(f, [0.0, 0.0], [2.0, 4.0], warm=[1.0, 1.0])
    assert not res.converged
    assert res.n_restarts == 1 + 9
    assert res.n_eval == len(starts) == 10
    axes = [[0.1, 1.0, 1.9], [0.2, 2.0, 3.8]]
    want = [(1.0, 1.0)] + [(a, b) for a in axes[0] for b in axes[1]]
    assert np.allclose(starts, want, atol=1e-15)


def test_multistart_escapes_decoy_basin():
    # from the warm start the residual is flat (zero slope): Gauss-Newton
    # cannot move and the restart lattice must find the root at 0.65
    res = minimize_box_multistart(ramp(0.3, 0.65), [0.0], [1.0], warm=[0.1])
    assert res.converged
    assert res.residual <= CERT_TOL
    assert res.x == pytest.approx([0.65], abs=1e-12)
    assert res.n_restarts == 3  # warm start, lattice 0.05 (flat), lattice 0.5


def test_no_restart_keeps_the_first_run():
    res = minimize_box_multistart(ramp(0.3, 0.65), [0.0], [1.0], warm=[0.1], restart=False)
    assert not res.converged
    assert res.x == [0.1]
    assert res.n_restarts == 1
    assert res.n_eval == 1


def test_warm_start_is_used():
    calls = []

    def f(x):
        calls.append(tuple(x))
        return np.array([x[0] - 0.42]), np.array([[1.0]])

    res = minimize_box_multistart(f, [0.0], [1.0], warm=[0.42])
    assert calls[0] == (0.42,)
    assert res.fun < 1e-30
    assert res.n_eval == 1


def test_warm_start_outside_box_is_clipped():
    calls = []
    inner = shift([0.9])

    def f(x):
        calls.append(float(x[0]))
        return inner(x)

    res = minimize_box_multistart(f, [0.0], [1.0], warm=[7.0])
    assert calls[0] == 1.0
    assert res.fun < 1e-20
    assert res.n_restarts == 1


def test_multistart_deterministic():
    def f(x):
        r = np.array([math.sin(9 * x[0]) * math.cos(7 * x[1]) + x[0] - 0.3, x[1] ** 2 - 0.2])
        J = np.array([
            [9 * math.cos(9 * x[0]) * math.cos(7 * x[1]) + 1.0, -7 * math.sin(9 * x[0]) * math.sin(7 * x[1])],
            [0.0, 2 * x[1]],
        ])
        return r, J

    a = minimize_box_multistart(f, [0.0, 0.0], [1.0, 1.0])
    b = minimize_box_multistart(f, [0.0, 0.0], [1.0, 1.0])
    assert a.x == b.x
    assert a.fun == b.fun
    assert a.n_eval == b.n_eval
    assert a.converged


def test_uncertified_falls_back_to_best_run():
    # no root: the residual's norm is smallest at the upper corner
    def f(x):
        return np.array([2.0 - x[0] - x[1]]), np.array([[-1.0, -1.0]])

    res = minimize_box_multistart(f, [0.0, 0.0], [0.5, 0.5], warm=[0.0, 0.0])
    assert not res.converged
    assert res.x == [0.5, 0.5]
    assert res.fun == pytest.approx(1.0, abs=1e-15)
    assert res.n_restarts == 10


def test_degenerate_box_single_point():
    res = minimize_box_multistart(shift([0.7]), [0.5], [0.5], warm=[0.5], restart=False)
    assert res.x == [0.5]
    assert res.fun == pytest.approx(0.04, abs=1e-15)
    assert res.n_eval == 1
