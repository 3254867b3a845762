"""Synthetic data generators with known structural ground truth.

Both designs share one latent uniform rank U driving treatment take-up,
cause selection, and both potential durations; they differ only in the
censoring window. Design 1 censors about 30 percent of records and design
2 about 10 percent. A Bernoulli(2/3) instrument W gates treatment:
Z = 1(4U + eps - 1 >= 0) * W with standard normal eps, so the untreated
instrument arm never receives treatment (a structural zero cell).

Cause 1 fires when U < p_Z (p_0 = 1/2, p_1 = 3/4) with duration
phi1_0(u) = 2u, phi1_1(u) = u; otherwise cause 2 fires with duration
phi2_0(u) = u - 1/2, phi2_1(u) = 2(u - 3/4). The treatment effect on the
u-th quantile of the cause-1 duration is -u wherever both quantiles are
finite. All conditional survival curves have closed forms through the
standard normal CDF, exposed as an exact surface for oracle tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._rng import stream, substream_seed
from .data import Dataset, code_type

__all__ = [
    "DgpSpec",
    "LatentTrace",
    "GroundTruth",
    "TrueSurface",
    "true_phi",
    "generate",
    "McResult",
    "mc_study",
]

_P_INSTRUMENT = 2.0 / 3.0
_P_CAUSE1 = (0.5, 0.75)
_CENSOR_WINDOW = {1: (1.0 / 3.0, 2.0 / 3.0), 2: (1.0 / 3.0, 1.5)}  # per design; its keys are the designs
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SLOPE_STEP = 1e-7  # forward-difference step of TrueSurface slopes
_CODE = code_type(3)  # the dataset's type for event codes and for two treatment or instrument levels


def _check_design(design) -> None:
    if design not in _CENSOR_WINDOW:
        raise ValueError(f"design must be {' or '.join(map(str, _CENSOR_WINDOW))}, got {design}")


@dataclass(frozen=True)
class DgpSpec:
    design: int
    n: int
    seed: int = 0

    def __post_init__(self):
        _check_design(self.design)
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True, eq=False)
class LatentTrace:
    """Latent variables kept for tests; estimators never see these."""

    u: np.ndarray
    eps: np.ndarray
    w: np.ndarray
    z: np.ndarray
    e: np.ndarray
    t: np.ndarray
    c: np.ndarray


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def _norm_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _cdf_antiderivative(x: float) -> float:
    # d/dx [x Phi(x) + phi(x)] = Phi(x)
    return x * _norm_cdf(x) + _norm_pdf(x)


def _cdf_integral(a: float, b: float) -> float:
    return _cdf_antiderivative(b) - _cdf_antiderivative(a)


def true_phi(z: int, u: float) -> float:
    """Structural u-quantile of the cause-1 duration at treatment level z, in every design.

    Infinite beyond the level's cause-1 share (the rank then draws
    cause 2).
    """
    if z not in (0, 1):
        raise ValueError(f"z must be 0 or 1, got {z}")
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must be in [0, 1], got {u}")
    if z == 0:
        return 2.0 * u if u <= 0.5 else math.inf
    return u if u <= 0.75 else math.inf


class GroundTruth:
    """Closed-form population quantities for one design."""

    def __init__(self, design: int):
        _check_design(design)
        self.design = design
        self.p_z = _P_CAUSE1
        self.u_e = 0.5
        self.censor_low, self.censor_high = _CENSOR_WINDOW[design]
        # the least rank whose cause-1 duration (2u at level 0, u at level 1) passes the window's top,
        # within that level's cause-1 share; 1 when the window censors none
        self.u_c = min((r for r, p in zip((self.censor_high / 2.0, self.censor_high), _P_CAUSE1) if r < p),
                       default=1.0)
        self.u_y = min(self.u_e, self.u_c)
        self.t1 = (1.0, 0.75)
        self.y1 = (
            min(self.t1[0], self.censor_high),
            min(self.t1[1], self.censor_high),
        )

    def phi1(self, z: int, u: float) -> float:
        return true_phi(z, u)

    def qte(self, u: float, level: int = 1, baseline: int = 0) -> float:
        """phi1(level, u) - phi1(baseline, u), as ``QuantileCurveFit.qte``; NaN where both are infinite."""
        a, b = self.phi1(level, u), self.phi1(baseline, u)
        if math.isinf(a) and math.isinf(b):
            return math.nan
        return a - b

    @property
    def p_treated_given_w1(self) -> float:
        # integral of P(4U + eps - 1 >= 0 | U = u) du
        return 0.25 * _cdf_integral(-1.0, 3.0)

    def s1(self, t: float, z: int, w: int) -> float:
        """P(cause-1 duration >= t and treatment = z | instrument = w).

        The improper duration is infinite on cause-2 ranks, so these
        survival curves flatten at positive levels past the cause-1
        support and sum to 1 at t = 0 across treatment levels.
        """
        if t < 0:
            raise ValueError("t must be >= 0")
        if w == 0:
            if z == 1:
                return 0.0
            return 1.0 - min(0.5 * t, 0.5)
        if z == 0:
            a = min(0.5 * t, 0.5)
            return (1.0 - a) - 0.25 * _cdf_integral(4.0 * a - 1.0, 3.0)
        a = min(t, 0.75)
        return 0.25 * _cdf_integral(4.0 * a - 1.0, 3.0)

    def surface(self) -> "TrueSurface":
        return TrueSurface(self)


class TrueSurface:
    """Exact survival surface of a design, shaped like an estimated one."""

    def __init__(self, truth: GroundTruth):
        self.truth = truth
        self.treatment_levels = [0, 1]
        self.instrument_levels = [0, 1]
        self.bandwidths = {}  # exact: nothing is smoothed
        self.p_hat = np.array(
            [
                [1.0, 1.0 - truth.p_treated_given_w1],
                [0.0, truth.p_treated_given_w1],
            ]
        )

    @property
    def n_treatment_levels(self) -> int:
        return 2

    @property
    def n_instrument_levels(self) -> int:
        return 2

    def evaluate(self, t, z: int, w: int):
        arr = np.asarray(t, dtype=np.float64)
        flat = [self.truth.s1(float(x), z, w) for x in np.ravel(arr)]
        out = np.array(flat).reshape(arr.shape)
        return out if arr.shape else float(out)

    def slopes(self, theta) -> np.ndarray:
        """Forward-difference slope in t of S1(t, l | k) at t = theta_l: theta (..., 2) -> (..., 2, 2)."""
        theta = np.asarray(theta, dtype=np.float64)
        out = np.empty(theta.shape[:-1] + (2, 2))
        for k in range(2):
            for l in range(2):
                t = theta[..., l]
                out[..., k, l] = (self.evaluate(t + _SLOPE_STEP, l, k) - self.evaluate(t, l, k)) / _SLOPE_STEP
        return out

    def level_knots(self, z: int) -> np.ndarray:
        hi = self.truth.y1[z]
        return np.linspace(0.0, hi * 1.5, 241)


def generate(spec: DgpSpec) -> tuple[Dataset, LatentTrace]:
    """Draw one sample; returns the observed dataset and the latent trace.

    Variable roles draw from separate streams keyed by (seed, role), so
    instrumenting one variable never shifts another's draws. Records tied
    at the censoring time count as events. The latent rank exactly at the
    cause threshold goes to cause 2 (a probability-zero event kept
    deterministic).
    """
    n = spec.n
    u = stream(spec.seed, "rank").uniform(0.0, 1.0, n)
    eps = stream(spec.seed, "takeup").standard_normal(n)
    w = (stream(spec.seed, "instrument").uniform(0.0, 1.0, n) < _P_INSTRUMENT).astype(_CODE)
    lo, hi = _CENSOR_WINDOW[spec.design]
    c = stream(spec.seed, "censor").uniform(lo, hi, n)

    z = ((4.0 * u + eps - 1.0 >= 0.0) & (w == 1)).astype(_CODE)
    p_cause1 = np.where(z == 1, _P_CAUSE1[1], _P_CAUSE1[0])
    e = np.where(u < p_cause1, _CODE.type(1), _CODE.type(2))

    t = np.where(
        e == 1,
        np.where(z == 1, u, 2.0 * u),
        np.where(z == 1, 2.0 * (u - 0.75), u - 0.5),
    )
    y = np.minimum(t, c)
    observed = t <= c
    event = np.where(observed, e, _CODE.type(0))

    data = Dataset(
        y,
        event,
        z,
        w,
        treatment_levels=[0, 1],
        instrument_levels=[0, 1],
        structural_zeros=[(1, 0)],
    )
    return data, LatentTrace(u, eps, w, z, e, t, c)


def _masked_column_mean(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise mean over finite entries; NaN where a column has none."""
    finite = np.isfinite(values)
    counts = np.count_nonzero(finite, axis=0)
    sums = np.where(finite, values, 0.0).sum(axis=0)
    means = np.divide(sums, counts, out=np.full(counts.shape, np.nan), where=counts > 0)
    return means, counts


@dataclass(eq=False)
class McResult:
    """Per-replication fit summaries for one design, and with a band the coverage of its truth."""

    design: int
    n: int
    grid: np.ndarray  # (M,)
    u_hat: np.ndarray  # (R,)
    u_prev: np.ndarray  # (R,) grid point before the frontier trigger
    triggered: np.ndarray  # (R,) bool
    y1_hat: np.ndarray  # (R, L)
    theta: np.ndarray  # (R, M, L)
    reported: np.ndarray  # (R, M) bool
    qte: np.ndarray  # (R, M), NaN outside reported ranges
    naive: np.ndarray  # (R, M, L), inf past attained incidence
    coverage: object = None  # the bands' inference.CoverageResult, or None without a band

    @property
    def reps(self) -> int:
        return self.u_hat.size

    def mean_qte(self) -> tuple[np.ndarray, np.ndarray]:
        """Per grid point: mean reported QTE and the count it averages."""
        return _masked_column_mean(self.qte)

    def mean_naive_qte(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            diff = self.naive[:, :, 1] - self.naive[:, :, 0]
        return _masked_column_mean(diff)[0]

    def u_hat_histogram(self, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        counts, edges = np.histogram(self.u_hat, bins=bins, range=(0.0, 1.0))
        return edges, counts


def mc_study(
    spec: DgpSpec,
    reps: int,
    grid=None,
    boot=None,
    contrast: tuple[int, int] = (1, 0),
    **fit_kwargs,
) -> McResult:
    """Replicate generate -> fit, naive curve and, with ``boot``, band on fresh seeds, and stack the results.

    Repetition r draws its data once, on ``substream_seed(seed, "mcrep", r)``,
    so any subset of repetitions can be reproduced in isolation.  With
    ``boot`` (an ``inference.BootstrapConfig``) its data are banded at once
    on ``substream_seed(boot.seed, "coverage-rep", r)``, its fit is the
    band's (the first row of its first block), and ``coverage`` counts per
    grid point the repetitions whose band is valid there and holds the
    design's true ``contrast``.  A repetition leaves only its summaries, no
    fit or block.  Repetitions run in turn.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    from .estimator import QuantileGrid, fit_curve, naive_curve

    grid = grid or QuantileGrid.default()
    if boot is not None:
        from .inference import CoverageResult, bootstrap_band

        truth = GroundTruth(spec.design)
        tvals = np.array([truth.qte(float(x), *contrast) for x in grid.points])
        hits, n_valid = np.zeros(grid.size), np.zeros(grid.size)

    summaries = []
    for r in range(reps):
        data, _ = generate(DgpSpec(spec.design, spec.n, substream_seed(spec.seed, "mcrep", r)))
        if boot is None:
            fit = fit_curve(data, grid=grid, **fit_kwargs)
        else:
            band = bootstrap_band(data, replace(boot, seed=substream_seed(boot.seed, "coverage-rep", r)), contrast,
                                  grid=grid, **fit_kwargs)
            ok = band.valid & np.isfinite(band.lower) & np.isfinite(band.upper)
            n_valid += ok
            hits += ok & (band.lower <= tvals) & (tvals <= band.upper)
            fit = band.fit
            del band
        fr = fit.frontiers
        summaries.append((fr.u_hat, fr.u_prev, fr.triggered, fr.y_hat.copy(), fit.theta.copy(), fit.reported_mask,
                          fit.qte(), naive_curve(data, grid)))
        del data, fit, fr  # the next repetition's peak meets none of this one's arrays

    coverage = None if boot is None else CoverageResult(grid.points, hits, n_valid, reps)
    # u_hat, u_prev, triggered, y1_hat, theta, reported, qte and naive, each stacked over the repetitions
    return McResult(spec.design, spec.n, grid.points, *(np.array(column) for column in zip(*summaries)), coverage)
