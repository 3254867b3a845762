import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqiv.derived import (
    MonotoneCurve,
    RankConditionReport,
    derived_quantities,
    pava_nondecreasing,
    rank_condition_diagnostic,
)
from crqiv.data import swap_causes
from crqiv.estimator import PAST_FRONTIER, REPORTED, FrontierEstimates, QuantileCurveFit, QuantileGrid, fit_curve
from crqiv.simulate import DgpSpec, GroundTruth, generate
from crqiv.surface import assemble_surface


def make_fit(u_pts, theta, reported=None):
    """Hand-build a curve fit carrying known values."""
    u_pts = np.asarray(u_pts, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    M = u_pts.size
    if reported is None:
        reported = np.ones(M, dtype=bool)
    fr = FrontierEstimates(
        y_hat=np.array([1.0, 0.75]),
        delta=np.array([0.05, 0.05]),
        u_hat=float(u_pts[-1]),
        m_hat=M - 1,
        u_prev=float(u_pts[-2]) if M > 1 else 0.0,
        triggered=False,
    )
    return QuantileCurveFit(
        QuantileGrid(u_pts),
        theta,
        np.zeros(M),
        np.zeros(M),
        np.where(reported, REPORTED, PAST_FRONTIER),
        fr,
        [0, 1],
        [0, 1],
    )


# -- isotonic projection ------------------------------------------------------


def test_pava_known_cases():
    assert pava_nondecreasing(np.array([3.0, 1.0, 2.0])) == pytest.approx([2.0, 2.0, 2.0])
    assert pava_nondecreasing(np.array([1.0, 3.0, 2.0])) == pytest.approx([1.0, 2.5, 2.5])
    assert pava_nondecreasing(np.array([1.0, 2.0, 3.0])) == pytest.approx([1.0, 2.0, 3.0])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=30))
def test_pava_properties(vals):
    v = np.asarray(vals)
    out = pava_nondecreasing(v)
    assert np.all(np.diff(out) >= -1e-12)
    assert out.mean() == pytest.approx(v.mean(), abs=1e-9)
    # projection is idempotent
    assert pava_nondecreasing(out) == pytest.approx(out, abs=1e-12)


# -- monotone curve -----------------------------------------------------------


def test_monotone_curve_anchored_at_origin():
    c = MonotoneCurve(np.array([0.2, 0.4]), np.array([0.4, 0.8]))
    assert c.u.tolist() == [0.0, 0.2, 0.4] and c.t.tolist() == [0.0, 0.4, 0.8]
    assert c.inverse(0.6) == pytest.approx(0.3)
    assert c.t_max == 0.8


def test_monotone_curve_inverse_of_flat_stretch_is_inf():
    c = MonotoneCurve(np.array([0.2, 0.5, 0.8]), np.array([0.4, 0.4, 1.0]))
    # inf{u : t(u) >= 0.4} is the first u reaching 0.4
    assert c.inverse(0.4) == pytest.approx(0.2)
    assert c.inverse(0.7) == pytest.approx(0.5)


def test_monotone_curve_clamps_outside_range():
    c = MonotoneCurve(np.array([0.5]), np.array([1.0]))
    assert c.inverse(5.0) == 0.5
    assert c.inverse(-1.0) == 0.0


def test_monotone_curve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        MonotoneCurve(np.array([0.4, 0.2]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="nondecreasing"):
        MonotoneCurve(np.array([0.2, 0.4]), np.array([0.5, 0.1]))
    with pytest.raises(ValueError, match="matching"):
        MonotoneCurve(np.array([0.2, 0.4]), np.array([0.1]))


# -- derived quantities on an exactly known curve -----------------------------


@pytest.fixture()
def truth_fit():
    u = [0.05, 0.10, 0.15]
    theta = [[0.10, 0.05], [0.20, 0.10], [0.30, 0.15]]
    return make_fit(u, theta)


def test_density_and_subdist_hazard(truth_fit):
    out = derived_quantities(truth_fit)
    lv0, lv1 = out[0], out[1]
    assert not lv0.isotonic_adjusted
    assert lv0.slope == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)
    assert lv0.density == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
    assert lv1.density == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    # density / (1 - u)
    assert lv0.subdist_hazard == pytest.approx(
        [0.5263157894736842, 0.5555555555555556, 0.5882352941176471], rel=1e-12
    )
    assert lv1.subdist_hazard == pytest.approx(
        [1.0526315789473684, 1.1111111111111112, 1.1764705882352942], rel=1e-12
    )
    # no secondary-cause fit supplied
    assert np.isnan(lv0.cause_hazard).all()
    assert not lv0.cause_hazard_valid.any()


def test_cause_specific_hazard_with_secondary_fit(truth_fit):
    # secondary-cause quantiles: t2(v) = v at level 0, t2(v) = 2v at level 1,
    # giving incidences F2(t) = t and t / 2 on their ranges
    cause2 = make_fit([0.2, 0.4, 0.6], [[0.2, 0.4], [0.4, 0.8], [0.6, 1.2]])
    out = derived_quantities(truth_fit, cause2_fit=cause2)
    lv0, lv1 = out[0], out[1]
    assert lv0.cause_hazard_valid.all()
    # 0.5 / (1 - u - 2u) at t = 2u
    assert lv0.cause_hazard == pytest.approx(
        [0.5882352941176471, 0.7142857142857143, 0.9090909090909091], rel=1e-12
    )
    # 1 / (1 - u - u/2) at t = u
    assert lv1.cause_hazard == pytest.approx(
        [1.0810810810810811, 1.1764705882352942, 1.2903225806451613], rel=1e-12
    )


def test_secondary_fit_from_swapped_causes():
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=6))
    fit = fit_curve(data, grid=QuantileGrid.default(25))
    base = derived_quantities(fit)
    assert not any(lv.cause_hazard_valid.any() for lv in base.values())
    with_c2 = derived_quantities(fit, fit_curve(swap_causes(data), grid=fit.grid))
    assert any(lv.cause_hazard_valid.any() for lv in with_c2.values())


def test_cause_hazard_invalid_past_secondary_range(truth_fit):
    cause2 = make_fit(
        [0.15, 0.99], [[0.15, 0.075], [0.5, 0.2]], reported=[True, False]
    )
    out = derived_quantities(truth_fit, cause2_fit=cause2)
    lv0 = out[0]
    # only t = 0.10 lies within the secondary curve's range at level 0
    assert lv0.cause_hazard_valid.tolist() == [True, False, False]
    assert np.isnan(lv0.cause_hazard[1:]).all()


def test_isotonic_projection_applied():
    fit = make_fit([0.05, 0.10, 0.15], [[0.10, 0.05], [0.30, 0.10], [0.20, 0.15]])
    out = derived_quantities(fit)
    assert out[0].isotonic_adjusted
    assert out[0].t == pytest.approx([0.10, 0.25, 0.25])
    assert not out[1].isotonic_adjusted


def test_incidence_inverts_quantile_curve(truth_fit):
    lv0 = derived_quantities(truth_fit)[0]
    assert lv0.curve.inverse(0.2) == pytest.approx(0.1)
    assert lv0.curve.inverse(np.array([0.1, 0.3])) == pytest.approx([0.05, 0.15])


def test_unreported_levels_dropped():
    fit = make_fit([0.05, 0.10], [[0.1, 0.05], [0.2, 0.1]], reported=[False, False])
    assert derived_quantities(fit) == {}


def test_single_point_level_has_nan_slope():
    fit = make_fit([0.05, 0.10], [[0.1, 0.05], [0.2, 0.1]], reported=[True, False])
    out = derived_quantities(fit)
    assert np.isnan(out[0].slope).all()
    assert np.isnan(out[0].density).all()


# -- rank condition screen ----------------------------------------------------


class ProportionalSurface:
    """Densities factor as a(z, w) * exp(-t): the system is uninformative."""

    bandwidths = {}
    n_treatment_levels = 2
    n_instrument_levels = 2

    def __init__(self):
        self.a = np.array([[0.5, 0.25], [0.5, 0.25]])

    def evaluate(self, t, z, w):
        return self.a[z, w] * np.exp(-np.asarray(t, dtype=np.float64))


def test_rank_screen_not_applicable_off_2x2():
    class ThreeLevel:
        bandwidths = {}
        n_treatment_levels = 3
        n_instrument_levels = 2

    rep = rank_condition_diagnostic(ThreeLevel(), (1.0, 1.0, 1.0))
    assert rep == RankConditionReport(False, 0, 0, 0, 0, 0.0, False)


def test_rank_screen_degenerate_surface_fails():
    rep = rank_condition_diagnostic(ProportionalSurface(), (1.0, 0.75))
    assert rep.applicable
    assert rep.n_evaluated > 0
    assert rep.n_degenerate == rep.n_evaluated
    assert rep.majority_sign == 0
    assert rep.agreement == 0.0
    assert not rep.passed


def test_rank_screen_passes_on_population_surface():
    truth = GroundTruth(2)
    rep = rank_condition_diagnostic(truth.surface(), truth.y1)
    assert rep.applicable
    assert rep.passed
    assert rep.agreement == 1.0
    assert rep.n_skipped == 0


def test_rank_screen_passes_on_estimated_surface():
    data, _ = generate(DgpSpec(design=2, n=5_000, seed=8))
    surf = assemble_surface(data)
    from crqiv.bounds import estimate_y1

    rep = rank_condition_diagnostic(surf, estimate_y1(data))
    assert rep.applicable
    assert rep.passed


def test_rank_screen_grid_spans_the_support_bounds():
    # 18 times per level, from 5% to 90% of its support bound: 18 x 18 pairs
    truth = GroundTruth(1)
    rep = rank_condition_diagnostic(truth.surface(), truth.y1)
    assert rep.n_evaluated + rep.n_skipped == 18 * 18
    assert rep.passed
