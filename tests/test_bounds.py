import json
import math

import numpy as np
import pytest

from crqiv._rng import stream
from crqiv.bounds import (
    BoundFrontiers,
    IntervalProduct,
    OuterSet,
    capped_residual,
    estimate_caps,
    estimate_y1,
    outer_set,
    outer_set_2d,
    outer_set_recursive,
    verify_membership,
)
from crqiv.simulate import DgpSpec, GroundTruth, generate
from crqiv.surface import SmoothedSurvivalSurface, assemble_surface, residual_vector
from tests._synthetic import StepSurface, compare_on_lattice, random_step_surface, reference_outer_set

# bisection extents on the exact population surfaces (quadrature + brentq)
D1_U040_RIGHT_EXTENT = 0.42873399962782166
D2_U055_EXTENTS = (0.17290106077074535, 0.5576624463714972)


def population_frontiers(design):
    truth = GroundTruth(design)
    y1 = np.asarray(truth.y1)
    return truth, BoundFrontiers(y1, y1 * 1.5, u_y=truth.u_y)


# -- containers ---------------------------------------------------------------


def test_interval_product_contains_closed():
    p = IntervalProduct((0.5, 0.0), (1.0, math.inf))
    assert p.contains((0.5, 0.0))
    assert p.contains((1.0, 123.0))
    assert not p.contains((0.4999, 0.0))
    assert not p.contains((1.0001, 0.0))
    assert p.dims == 2


def test_interval_product_validation():
    with pytest.raises(ValueError, match="empty interval"):
        IntervalProduct((1.0, 0.0), (0.5, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        IntervalProduct((-0.1,), (1.0,))
    with pytest.raises(ValueError, match="length"):
        IntervalProduct((0.0, 0.0), (1.0,))


def test_interval_product_json_encoding():
    p = IntervalProduct((0.5, 0.0), (1.0, math.inf))
    d = p.to_dict()
    assert d["upper"] == [1.0, "inf"]
    json.dumps(d)


def test_frontiers_validation():
    with pytest.raises(ValueError, match="matching vectors"):
        BoundFrontiers(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="positive"):
        BoundFrontiers(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="caps"):
        BoundFrontiers(np.array([1.0, 1.0]), np.array([1.0, 0.9]))


def test_frontiers_from_data():
    from crqiv.estimator import QuantileGrid, fit_curve

    data, _ = generate(DgpSpec(design=2, n=3_000, seed=2))
    fit = fit_curve(data, grid=QuantileGrid.default(25), stop_at_frontier=True)
    fr = BoundFrontiers.from_data(data, fit.frontiers.u_hat)
    assert fr.u_y == fit.frontiers.u_hat
    assert np.all(fr.caps >= fr.y1)
    assert BoundFrontiers.from_data(data).u_y is None


def test_outer_set_rejects_overlapping_piece():
    _, fr = population_frontiers(1)
    bad = IntervalProduct((0.1, 0.1), (0.5, 0.5))  # strictly inside the box
    with pytest.raises(ValueError, match="overlaps"):
        OuterSet((bad,), 0.5, "i", fr)


# -- residuals ----------------------------------------------------------------


def test_capped_residual_at_origin_is_u():
    truth, fr = population_frontiers(2)
    surf = truth.surface()
    for u in (0.55, 0.8):
        r = capped_residual((0.0, 0.0), u, surf, fr.caps)
        assert r == pytest.approx([u, u], abs=1e-12)


def test_capped_residual_saturates_at_caps():
    truth, fr = population_frontiers(1)
    surf = truth.surface()
    a = capped_residual(fr.caps, 0.6, surf, fr.caps)
    b = capped_residual(fr.caps * 50, 0.6, surf, fr.caps)
    c = capped_residual((math.inf, math.inf), 0.6, surf, fr.caps)
    assert a == pytest.approx(b, abs=1e-15)
    assert a == pytest.approx(c, abs=1e-15)


def test_membership_requires_leaving_the_box():
    truth, fr = population_frontiers(1)
    surf = truth.surface()
    assert not verify_membership((0.1, 0.1), 0.5, surf, fr)  # inside the box
    assert verify_membership((math.inf, math.inf), 1.0, surf, fr)


# -- two-level population cases ------------------------------------------------


def test_design1_u040_right_arm_only():
    truth, fr = population_frontiers(1)
    os_ = outer_set_2d(0.4, truth.surface(), fr)
    assert os_.case == "iii"
    assert len(os_.pieces) == 1
    p = os_.pieces[0]
    assert p.lower == pytest.approx((truth.y1[0], 0.0))
    assert math.isinf(p.upper[0])
    assert p.upper[1] == pytest.approx(D1_U040_RIGHT_EXTENT, abs=1.5e-6)
    assert os_.contains((0.8, 0.4))
    assert not os_.contains((0.8, 0.6))
    assert not os_.contains((0.5, 0.4))


def test_design1_u090_full_quadrant():
    truth, fr = population_frontiers(1)
    os_ = outer_set_2d(0.9, truth.surface(), fr)
    assert os_.case == "i"
    assert len(os_.pieces) == 3
    # the union is exactly the complement of the open box
    y0, y1v = truth.y1
    for theta in [(y0, 0.0), (0.0, y1v), (y0, y1v), (5.0, 5.0), (y0, 0.3)]:
        assert os_.contains(theta)
    for theta in [(0.0, 0.0), (y0 - 1e-9, y1v - 1e-9), (0.3, 0.2)]:
        assert not os_.contains(theta)


def test_design2_u055_both_arms():
    truth, fr = population_frontiers(2)
    os_ = outer_set_2d(0.55, truth.surface(), fr)
    assert os_.case == "ii"
    assert len(os_.pieces) == 2
    by_dir = {p.lower[1] == 0.0: p for p in os_.pieces}
    top, right = by_dir[False], by_dir[True]
    assert top.upper[0] == pytest.approx(D2_U055_EXTENTS[0], abs=1.5e-6)
    assert right.upper[1] == pytest.approx(D2_U055_EXTENTS[1], abs=1.5e-6)
    assert math.isinf(top.upper[1]) and math.isinf(right.upper[0])


def test_u1_is_complement_of_open_box():
    truth, fr = population_frontiers(2)
    surf = truth.surface()
    os_ = outer_set_2d(1.0, surf, fr)
    assert os_.case == "i"
    rng = stream(21, "test")
    for _ in range(200):
        theta = rng.uniform(0.0, 2.0, size=2)
        outside = bool(np.any(theta >= fr.y1))
        assert os_.contains(theta) == outside


def test_u_validation():
    truth, fr = population_frontiers(2)
    surf = truth.surface()
    with pytest.raises(ValueError, match="point-identified"):
        outer_set_2d(0.5, surf, fr)
    with pytest.raises(ValueError, match="point-identified"):
        outer_set_2d(0.37, surf, fr)
    with pytest.raises(ValueError, match=r"in \(0, 1\]"):
        outer_set_2d(1.0001, surf, fr)
    # without a declared frontier low u is allowed; on this surface the
    # edges are then infeasible and the construction reports an empty set
    no_frontier = BoundFrontiers(fr.y1, fr.caps)
    assert outer_set_2d(0.2, surf, no_frontier).case == "empty"


def test_deterministic_empty_case():
    # equal halves, each cell losing all mass at a single knot: at u = 0.3
    # every boundary residual is 0.5 - 0.7 < 0
    surf = StepSurface(
        knots={(z, w): np.array([1.0]) for z in (0, 1) for w in (0, 1)},
        values={(z, w): np.array([0.0]) for z in (0, 1) for w in (0, 1)},
        starts={(z, w): 0.5 for z in (0, 1) for w in (0, 1)},
        L=2,
        K=2,
    )
    fr = BoundFrontiers(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    os_ = outer_set_2d(0.3, surf, fr)
    assert os_.case == "empty"
    assert os_.pieces == ()
    assert "negative along both box edges" in os_.note
    assert not os_.contains((1.0, 1.0))
    json.dumps(os_.to_dict())


def test_sets_grow_with_u():
    truth, fr = population_frontiers(2)
    surf = truth.surface()
    small = outer_set_2d(0.55, surf, fr)
    large = outer_set_2d(0.75, surf, fr)
    rng = stream(22, "test")
    for _ in range(300):
        theta = rng.uniform(0.0, 1.6, size=2)
        if small.contains(theta):
            assert large.contains(theta)


def test_dispatch_matches_direct_calls():
    truth, fr = population_frontiers(1)
    surf = truth.surface()
    a = outer_set(0.7, surf, fr)
    b = outer_set_2d(0.7, surf, fr)
    assert a.case == b.case
    assert a.pieces == b.pieces
    c = outer_set_recursive(0.7, surf, fr)
    assert c.case == b.case


# -- synthetic exactness -------------------------------------------------------


def test_lattice_agreement_two_levels():
    rng = stream(31, "test")
    for trial in range(10):
        surface, y1, caps = random_step_surface(rng, L=2, K=2)
        u = float(rng.uniform(0.05, 1.0))
        checked, bad, excused = compare_on_lattice(surface, y1, caps, u, points_per_dim=25)
        assert checked == 625
        assert bad == 0, f"trial {trial}: {bad} disagreements (u={u})"


def test_lattice_agreement_three_levels():
    rng = stream(32, "test")
    for trial in range(3):
        surface, y1, caps = random_step_surface(rng, L=3, K=3)
        u = float(rng.uniform(0.05, 1.0))
        checked, bad, excused = compare_on_lattice(surface, y1, caps, u, points_per_dim=12)
        assert checked == 12**3
        assert bad == 0, f"trial {trial}: {bad} disagreements (u={u})"


def test_lattice_agreement_four_levels():
    rng = stream(37, "test")
    for trial in range(4):
        surface, y1, caps = random_step_surface(rng, L=4, K=4)
        u = float(rng.uniform(0.05, 1.0))
        checked, bad, excused = compare_on_lattice(surface, y1, caps, u, points_per_dim=8)
        assert checked == 8**4
        assert bad == 0, f"trial {trial}: {bad} disagreements (u={u})"


def grid_surface(rng, L, K, points=601):
    """SmoothedSurvivalSurface with random nonincreasing cells on one uniform grid."""
    grid = np.linspace(0.0, 2.0, points)
    p_hat = rng.dirichlet(np.full(L, 2.0), size=K).T
    drops = rng.exponential(size=(L, K, points - 1)) * rng.uniform(0.0, 1.0, size=(L, K, points - 1)) ** 4
    tail = rng.uniform(0.0, 0.6, size=(L, K, 1))
    curves = 1.0 - (1.0 - tail) * np.cumsum(drops, axis=-1) / drops.sum(axis=-1, keepdims=True)
    values = p_hat[..., None] * np.concatenate((np.ones((L, K, 1)), curves), axis=-1)
    return SmoothedSurvivalSurface(grid, values, p_hat, {}, "local_linear")


def _reference_cases():
    """(name, surface, frontiers, u values) on which the batched sets must equal the reference."""
    rng = stream(38, "test")
    # K = 2 at L = 4 keeps the reference to about 150 strips per level
    for L, K, trials in ((2, 2, 10), (3, 3, 4), (4, 2, 3)):
        for trial in range(trials):
            surface, y1, caps = random_step_surface(rng, L=L, K=K)
            yield f"step{L}-{trial}", surface, BoundFrontiers(y1, caps), rng.uniform(0.05, 1.0, size=2)
    for design in (1, 2):
        truth, fr = population_frontiers(design)
        yield f"true{design}", truth.surface(), BoundFrontiers(fr.y1, fr.caps), (0.4, 0.55, 0.7, 0.9, 1.0)
        data, _ = generate(DgpSpec(design=design, n=2_000, seed=design))
        surface = assemble_surface(data)
        yield f"estimated{design}", surface, BoundFrontiers.from_data(data), (0.4, 0.55, 0.7, 0.9)
    surface = grid_surface(rng, 3, 3)
    y1 = np.array([1.2, 1.5, 1.0])
    yield "grid601", surface, BoundFrontiers(y1, 1.2 * y1), (0.5, 0.8)


def test_pieces_match_the_one_point_reference():
    cases = {"i", "ii", "iii", "iv", "empty", "recursive"}
    seen = set()
    for name, surface, fr, us in _reference_cases():
        for u in us:
            got = outer_set(float(u), surface, fr)
            seen.add(got.case)
            assert got.to_dict() == reference_outer_set(float(u), surface, fr).to_dict(), (name, u)
    assert seen == cases


def test_saturation_invariance_random_surfaces():
    rng = stream(33, "test")
    surface, y1, caps = random_step_surface(rng, L=2, K=2)
    fr = BoundFrontiers(y1, caps)
    for _ in range(60):
        u = float(rng.uniform(0.05, 1.0))
        base = rng.uniform(0.0, caps * 1.2, size=2)
        r0 = capped_residual(base, u, surface, caps)
        bumped = np.where(base >= caps, base * 3, base)
        assert capped_residual(bumped, u, surface, caps) == pytest.approx(r0, abs=1e-15)


def _batch_case(name):
    """(surface, y1, caps) for the batched-oracle check."""
    if name == "step3":
        return random_step_surface(stream(35, "test"), L=3, K=3)
    if name == "true":
        truth = GroundTruth(2)
        y1 = np.asarray(truth.y1)
        return truth.surface(), y1, 1.5 * y1
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=4))
    return assemble_surface(data, kind=name), estimate_y1(data), estimate_caps(data)


@pytest.mark.parametrize("name", ["local_linear", "convolution", "true", "step3"])
def test_batched_oracle_equals_row_by_row(name):
    surface, y1, caps = _batch_case(name)
    fr = BoundFrontiers(y1, caps)
    rng = stream(36, "test")
    pts = rng.uniform(0.0, 1.3, size=(300, y1.size)) * caps
    pts[:10] = caps  # exact caps and a saturated point
    pts[10] = math.inf
    u = 0.8
    rows = list(pts)
    assert np.array_equal(
        residual_vector(pts, u, surface), np.array([residual_vector(t, u, surface) for t in rows])
    )
    assert np.array_equal(
        capped_residual(pts, u, surface, caps),
        np.array([capped_residual(t, u, surface, caps) for t in rows]),
    )
    member = verify_membership(pts, u, surface, fr)
    assert member.shape == (300,) and member.any() and not member.all()
    assert np.array_equal(member, [verify_membership(t, u, surface, fr) for t in rows])
    # leading batch axes are kept
    grid = pts[:12].reshape(3, 4, y1.size)
    assert capped_residual(grid, u, surface, caps).shape == (3, 4, surface.n_instrument_levels)
    assert verify_membership(grid, u, surface, fr).shape == (3, 4)


def test_recursive_u1_three_half_slabs():
    rng = stream(34, "test")
    surface, y1, caps = random_step_surface(rng, L=3, K=3)
    fr = BoundFrontiers(y1, caps)
    os_ = outer_set_recursive(1.0, surface, fr)
    assert os_.pieces
    for _ in range(400):
        theta = rng.uniform(0.0, 2.5, size=3)
        assert os_.contains(theta) == bool(np.any(theta >= y1))


def test_monotone_extent_along_edges():
    # at fixed u the top-edge residual is nonincreasing in the free coord,
    # so membership along the edge is a prefix
    truth, fr = population_frontiers(2)
    surf = truth.surface()
    os_ = outer_set_2d(0.55, surf, fr)
    top = next(p for p in os_.pieces if p.lower[1] > 0)
    xs = np.linspace(0, fr.y1[0], 40)
    member = [verify_membership((x, fr.y1[1]), 0.55, surf, fr) for x in xs]
    switch = np.flatnonzero(np.diff(np.asarray(member, dtype=int)))
    assert switch.size == 1  # single True -> False transition
    assert xs[switch[0]] <= top.upper[0] + 1e-6


def test_estimated_surface_outer_set_contains_population_point():
    # estimated design-1 surface at u = 0.4: the population point
    # (0.8, 0.4) sits in the constructed set
    data, _ = generate(DgpSpec(design=1, n=10_000, seed=13))
    from crqiv.surface import assemble_surface

    surf = assemble_surface(data)
    fr = BoundFrontiers.from_data(data)
    os_ = outer_set(0.4, surf, fr)
    assert os_.contains((0.8, 0.4))
    assert verify_membership((0.8, 0.4), 0.4, surf, fr)
