"""Outer bounds for quantiles beyond the point-identified range.

Above the identification frontier the quantile vector is only set-
identified. A computable outer set is the collection of theta outside
the open box prod_l [0, y1_l) at which every instrument-level residual

    R_k(theta) = sum_l S1(min(theta_l, c_l), z_l | w_k) - (1 - u)

is nonnegative, where c_l caps evaluation at the observed support of
follow-up times. Residuals are nonincreasing in each coordinate and the
survival surface is flat past each support bound, so the set is a finite
union of axis-aligned interval products found by scanning box boundaries.
The support bounds y1_l and caps c_l are estimated here from the data, and
the membership lattice the ``bounds`` command writes is streamed here, a
block of rows at a time.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .surface import EstimationError, _columns, _no_primary_events, residual_vector

# data and survival are imported where the data are read, so that bounds
# on a fit's saved surface loads neither
if TYPE_CHECKING:
    from .data import Dataset

__all__ = [
    "IntervalProduct",
    "BoundFrontiers",
    "OuterSet",
    "estimate_y1",
    "estimate_caps",
    "capped_residual",
    "verify_membership",
    "outer_set_2d",
    "outer_set_recursive",
    "outer_set",
]

BISECT_RTOL = 1e-6
# lattice rows per block: the lattice writer holds one block, whatever the lattice's size
LATTICE_BLOCK = 8192


@dataclass(frozen=True)
class IntervalProduct:
    """Axis-aligned product of closed intervals [a_l, b_l], b_l may be inf."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lower and upper must have the same nonzero length")
        for a, b in zip(lo, hi):
            if not (a <= b):
                raise ValueError(f"empty interval [{a}, {b}]")
            if a < 0 or math.isnan(a) or math.isnan(b):
                raise ValueError("interval ends must be nonnegative, not NaN")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dims(self) -> int:
        return len(self.lower)

    def contains(self, theta) -> bool:
        return all(a <= float(t) <= b for a, t, b in zip(self.lower, theta, self.upper))

    def to_dict(self) -> dict:
        enc = lambda v: "inf" if math.isinf(v) else v
        return {"lower": [enc(v) for v in self.lower], "upper": [enc(v) for v in self.upper]}


@dataclass(frozen=True, eq=False)
class BoundFrontiers:
    """Per-level support bounds used by the outer-set construction.

    y1: largest primary-cause duration per treatment level (box edges).
    caps: evaluation caps, at least y1 (largest observed follow-up works).
    u_y: estimated identification frontier, when known; queries at or
    below it belong to the point estimator and are rejected.
    """

    y1: np.ndarray
    caps: np.ndarray
    u_y: float | None = None

    def __post_init__(self):
        y1 = np.asarray(self.y1, dtype=np.float64)
        caps = np.asarray(self.caps, dtype=np.float64)
        if y1.ndim != 1 or y1.shape != caps.shape or y1.size < 2:
            raise ValueError("y1 and caps must be matching vectors, one entry per level")
        if (y1 <= 0).any() or not np.isfinite(y1).all():
            raise ValueError("support bounds must be positive and finite")
        if (caps < y1).any():
            raise ValueError("caps must not be below the per-level support bounds")
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "caps", caps)

    @classmethod
    def from_data(cls, data: Dataset, u_y: float | None = None) -> "BoundFrontiers":
        """The data's support bounds and caps, with the frontier quantile ``u_y``, a fit's u_hat."""
        return cls(estimate_y1(data), estimate_caps(data), u_y)


def estimate_y1(data: Dataset) -> np.ndarray:
    """Largest follow-up time with a primary-cause event, per treatment level."""
    from .survival import primary_records

    out = np.empty(data.n_treatment_levels)
    for zi in range(data.n_treatment_levels):
        times = np.take(data.y, primary_records(data, zi))
        if not times.size:
            raise _no_primary_events(data, zi)
        out[zi] = times[-1]
    return out


def estimate_caps(data: Dataset) -> np.ndarray:
    """Upper support estimate per treatment level: max observed y, any event."""
    out = np.empty(data.n_treatment_levels)
    for zi in range(data.n_treatment_levels):
        mask = data.z == zi
        if not mask.any():
            raise EstimationError(f"no records at treatment level {data.treatment_levels[zi]!r}")
        out[zi] = np.compress(mask, data.y).max()
    return out


def capped_residual(theta, u: float, surface, caps) -> np.ndarray:
    """``residual_vector`` with evaluation capped at the support; batched likewise."""
    return residual_vector(np.minimum(theta, caps), u, surface)


def _nonnegative(r: np.ndarray) -> np.ndarray:
    """Whether every residual of each row of r (..., K) is nonnegative."""
    return reduce(np.minimum, _columns(r)) >= 0.0


def verify_membership(theta, u: float, surface, frontiers: BoundFrontiers):
    """Direct check of both membership conditions: theta (..., L) -> verdicts (...)."""
    theta = np.asarray(theta, dtype=np.float64)
    member = np.asarray(reduce(np.logical_or, _columns(theta >= frontiers.y1)))
    # residuals only where the point left the box; the rest are not members
    member[member] = _nonnegative(capped_residual(theta[member], u, surface, frontiers.caps))
    return member if member.ndim else bool(member)


def _write_lattice(paths: list, axes: list, verdicts) -> None:
    """Write each lattice row ``theta_0,...,theta_{L-1},member`` to every path, with its own 0/1 verdict.

    The rows run over ``np.meshgrid(*axes, indexing="ij")`` in C order (last
    axis fastest), each coordinate as ``repr`` writes a finite float, so the
    bytes are those of a cell-by-cell CSV writer.  ``verdicts(theta)`` maps a
    block of rows (B, L) to one bool array (B,) per path.  A block takes its
    coordinates from its rows' C-order indices and its text from one byte
    table per axis, in which each axis value is formatted once, so no row
    string, whole lattice or meshgrid is held.
    """
    shape = [axis.size for axis in axes]
    rows = math.prod(shape)
    # an axis's cells "repr(v)," as bytes, NUL-padded to the axis's widest
    tables = [np.array([repr(v) + "," for v in axis.tolist()], dtype="S").view(np.uint8).reshape(n, -1)
              for axis, n in zip(axes, shape)]
    edges = np.cumsum([0] + [t.shape[1] for t in tables]).tolist()
    header = ",".join([f"theta_{l}" for l in range(len(axes))] + ["member"]) + "\n"
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for fh in files:
            fh.write(header.encode())
        for a in range(0, rows, LATTICE_BLOCK):
            index = np.unravel_index(np.arange(a, min(a + LATTICE_BLOCK, rows)), shape)
            text = np.empty((index[0].size, edges[-1] + 2), np.uint8)
            for table, i, lo, hi in zip(tables, index, edges, edges[1:]):
                text[:, lo:hi] = table[i]
            text[:, -2:] = (ord("0"), ord("\n"))
            keep = text != 0  # the padding goes
            theta = np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)
            for fh, member in zip(files, verdicts(theta)):
                text[:, -2] = ord("0") + member
                fh.write(text[keep].tobytes())


@dataclass(frozen=True)
class OuterSet:
    """Finite union of interval products covering the identified set at u."""

    pieces: tuple
    u: float
    case: str  # "i".."iv"/"empty" in 2 dimensions, "recursive" above
    frontiers: BoundFrontiers
    note: str = ""

    def __post_init__(self):
        pieces = tuple(self.pieces)
        y1 = self.frontiers.y1
        for p in pieces:
            if p.dims != y1.size:
                raise ValueError("piece dimension mismatch")
            if not any(p.lower[l] >= y1[l] for l in range(p.dims)):
                raise ValueError("piece overlaps the open point-identified box")
        object.__setattr__(self, "pieces", pieces)

    def contains(self, theta) -> bool:
        return any(p.contains(theta) for p in self.pieces)

    def to_dict(self) -> dict:
        return {
            "u": self.u,
            "case": self.case,
            "y1": self.frontiers.y1.tolist(),
            "caps": self.frontiers.caps.tolist(),
            "pieces": [p.to_dict() for p in self.pieces],
            "note": self.note,
        }


def _check_u(u: float, frontiers: BoundFrontiers) -> None:
    if not (0.0 < u <= 1.0):
        raise ValueError(f"u must be in (0, 1], got {u}")
    if frontiers.u_y is not None and u <= frontiers.u_y:
        raise ValueError(
            f"u = {u} is not above the identification frontier {frontiers.u_y}; "
            "the quantile vector is point-identified there, use the point estimator"
        )


def _extents(u: float, surface, caps, points, c: int, top: float, tol: float) -> np.ndarray:
    """Per row of ``points``, the largest x in [0, top] where min_k R >= 0 with theta_c = x.

    R is nonincreasing in x. A row gets NaN where R < 0 already at 0, inf
    where R >= 0 still at ``top``, and otherwise the certified-nonnegative
    end of the final bisection bracket. Every row starts from [0, top] with
    the same ``tol``, so all rows are bisected together and each gets the
    bits of a one-row bisection.
    """
    theta = np.array(points, dtype=np.float64)

    def nonneg(x):
        theta[:, c] = x
        return _nonnegative(capped_residual(theta, u, surface, caps))

    start, stop = nonneg(0.0), nonneg(top)
    out = np.where(start, math.inf, math.nan)
    inner = start & ~stop
    theta = theta[inner]
    lo, hi = np.zeros(theta.shape[0]), np.full(theta.shape[0], float(top))
    while (wide := hi - lo > tol).any():
        mid = 0.5 * (lo + hi)
        keep = nonneg(mid)
        lo = np.where(wide & keep, mid, lo)
        hi = np.where(wide & ~keep, mid, hi)
    out[inner] = lo
    return out


def outer_set_2d(u: float, surface, frontiers: BoundFrontiers) -> OuterSet:
    """Boundary-scan outer set for two treatment levels.

    The residual minimum is nonincreasing along the top edge
    [0, y1_0] x {y1_1} and the right edge {y1_0} x [0, y1_1] of the
    identified box, so each edge carries an initial nonnegative segment,
    found by bisection, that extends to infinity in the saturated
    coordinate. A nonnegative corner adds the full upper quadrant.
    """
    if frontiers.y1.size != 2:
        raise ValueError("outer_set_2d needs exactly 2 treatment levels")
    _check_u(u, frontiers)
    y0, y1v = frontiers.y1.tolist()
    caps = frontiers.caps
    inf = math.inf

    if _nonnegative(capped_residual(frontiers.y1, u, surface, caps)):
        pieces = (
            IntervalProduct((0.0, y1v), (y0, inf)),
            IntervalProduct((y0, 0.0), (inf, y1v)),
            IntervalProduct((y0, y1v), (inf, inf)),
        )
        return OuterSet(pieces, u, "i", frontiers)

    # the corner is negative, so each edge's extent is finite, or NaN for none
    (top_ext,) = _extents(u, surface, caps, [(0.0, y1v)], 0, y0, BISECT_RTOL * y0).tolist()
    (right_ext,) = _extents(u, surface, caps, [(y0, 0.0)], 1, y1v, BISECT_RTOL * y1v).tolist()
    top, right = not math.isnan(top_ext), not math.isnan(right_ext)
    pieces = []
    if top:
        pieces.append(IntervalProduct((0.0, y1v), (top_ext, inf)))
    if right:
        pieces.append(IntervalProduct((y0, 0.0), (inf, right_ext)))
    case = {(True, True): "ii", (False, True): "iii", (True, False): "iv"}.get((top, right), "empty")
    note = "" if pieces else (
        "residuals negative along both box edges: no admissible theta at this u "
        "(numerically inconsistent surface/quantile combination)"
    )
    return OuterSet(tuple(pieces), u, case, frontiers, note)


def _level_knots(surface, level: int, cap: float) -> np.ndarray:
    from .data import _run_flags

    knots = np.asarray(surface.level_knots(level), dtype=np.float64)
    knots = np.sort(np.concatenate(([0.0], knots[(knots > 0) & (knots <= cap)])))
    return knots[_run_flags(knots)]


def outer_set_recursive(u: float, surface, frontiers: BoundFrontiers) -> OuterSet:
    """Outer set at u for any number of treatment levels.

    Union over levels l of the region where coordinate l sits at or above
    its support bound: there the surface is flat in theta_l, so theta_l
    can be pinned to the bound and the remaining coordinates swept for
    nonnegative residuals. Every free coordinate but the last is tiled
    into strips between consecutive surface knots, and each product of
    strips is resolved at its lower corner, which is exact for
    piecewise-constant surfaces and a conservative cover otherwise; the
    last coordinate is bisected for all products at once. Pieces follow
    the strips in C order. Two levels take the boundary scan,
    ``outer_set_2d``.
    """
    L = frontiers.y1.size
    if L == 2:
        return outer_set_2d(u, surface, frontiers)
    _check_u(u, frontiers)
    y1, caps = frontiers.y1, frontiers.caps
    tol = BISECT_RTOL * float(np.max(y1))
    pieces = []
    for l in range(L):
        *tiled, last = [j for j in range(L) if j != l]
        edges = [_level_knots(surface, j, float(caps[j])) for j in tiled]
        ends = [np.append(np.nextafter(e[1:], -math.inf), math.inf) for e in edges]
        lower = np.zeros((math.prod(e.size for e in edges), L))
        upper = np.full(lower.shape, math.inf)
        lower[:, l] = y1[l]
        lower[:, tiled] = np.stack([g.ravel() for g in np.meshgrid(*edges, indexing="ij")], axis=-1)
        upper[:, tiled] = np.stack([g.ravel() for g in np.meshgrid(*ends, indexing="ij")], axis=-1)
        upper[:, last] = _extents(u, surface, caps, lower, last, float(caps[last]), tol)
        found = ~np.isnan(upper[:, last])
        pieces += [IntervalProduct(a, b) for a, b in zip(lower[found].tolist(), upper[found].tolist())]
    note = "" if pieces else (
        "residuals negative on every boundary stratum: no admissible theta at this u"
    )
    return OuterSet(tuple(pieces), u, "recursive" if pieces else "empty", frontiers, note)


# the entry point for any number of treatment levels
outer_set = outer_set_recursive
