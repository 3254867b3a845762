"""Certified bounded least squares: projected Gauss-Newton on a box.

``fit_curve`` solves a triangular square system (one-sided noncompliance,
as in both designs) exactly and calls this solver only for systems with
no triangular order and for overidentified ones (more instrument than
treatment levels).

The caller supplies ``f(x) -> (r, J)``: a residual vector and its Jacobian;
``fit_curve`` passes the residual it certifies.  The objective is ||r(x)||^2
over the box [lower, upper].  Each step holds fixed the coordinates that
sit on a box face with the gradient pointing out of the box, solves the
linearized least-squares problem on the others, clips the step back into
the box, and halves it until the objective decreases.  With as many residuals as unknowns the step is Newton's; on
piecewise-linear residuals it lands on the root once every coordinate sits
on the root's segment.

A result is ``converged`` only when every component of its residual is at
most ``CERT_TOL`` in absolute value: a root to machine precision, not a
stalled search or a near-root on a box face.  A run that ends above it is
restarted, when allowed, from a fixed lattice of box fractions, and the
best run is kept.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

import numpy as np

__all__ = ["CERT_TOL", "MinimizeResult", "minimize_box_multistart"]

CERT_TOL = 1e-12  # max |r| at or below which a point counts as solved
_RESTART_FRACTIONS = (0.05, 0.5, 0.95)
_MAX_STEPS = 50
_MAX_HALVINGS = 20
_XTOL = 1e-13  # a step shorter than this, relative to the box, ends a run


@dataclass
class MinimizeResult:
    x: list
    fun: float
    residual: float  # max |r| at x
    converged: bool
    n_eval: int  # calls of f over every run
    n_restarts: int = 1  # Gauss-Newton runs made, the first included


def _gauss_newton(f, x, lower, upper, xtol):
    """One projected Gauss-Newton run from x; returns (x, r, n_eval)."""
    r, J = f(x)
    fun = float(r @ r)
    n_eval = 1
    for _ in range(_MAX_STEPS):
        g = J.T @ r
        free = ~(((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0)))
        if not free.any():
            break
        step = np.zeros_like(x)
        step[free] = np.linalg.lstsq(J[:, free], -r, rcond=None)[0]
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.minimum(np.maximum(x + t * step, lower), upper)
            if abs(trial - x).max() <= xtol:
                return x, r, n_eval
            r_t, J_t = f(trial)
            n_eval += 1
            fun_t = float(r_t @ r_t)
            if fun_t < fun:
                break
            t *= 0.5
        else:
            break
        x, r, J, fun = trial, r_t, J_t, fun_t
    return x, r, n_eval


def minimize_box_multistart(f, lower, upper, warm=None, restart=True) -> MinimizeResult:
    """Minimize ||r||^2 over the box, where ``f(x) -> (r, J)``.

    The first run starts from ``warm`` clipped into the box, or from the
    first lattice point when there is none.  While no run is certified and
    ``restart`` holds, the next run starts from the next point of the
    lattice ``_RESTART_FRACTIONS ** L`` of box fractions.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    xtol = _XTOL * max(1.0, float(np.max(upper - lower)))
    lattice = (
        lower + np.asarray(fr) * (upper - lower)
        for fr in product(_RESTART_FRACTIONS, repeat=lower.size)
    )
    first = [] if warm is None else [np.clip(np.asarray(warm, dtype=np.float64), lower, upper)]

    best_x, best_r, n_eval, runs = None, None, 0, 0
    for x0 in chain(first, lattice):
        x, r, n = _gauss_newton(f, x0, lower, upper, xtol)
        n_eval += n
        runs += 1
        if best_x is None or r @ r < best_r @ best_r:
            best_x, best_r = x, r
        if abs(best_r).max() <= CERT_TOL or not restart:
            break
    res = float(abs(best_r).max())
    return MinimizeResult([float(v) for v in best_x], float(best_r @ best_r), res, res <= CERT_TOL, n_eval, runs)
