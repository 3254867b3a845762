import math
import tracemalloc

import numpy as np
import pytest

from crqiv import simulate
from crqiv._rng import substream_seed
from crqiv.estimator import QuantileGrid, fit_curve, naive_curve
from crqiv.simulate import (
    DgpSpec,
    GroundTruth,
    generate,
    mc_study,
    true_phi,
)

# quadrature oracles for the closed-form population quantities
P_TREATED_GIVEN_W1 = 0.7292666709323404
CENSOR_SHARE = {1: 0.3162071801519633, 2: 0.1037159163607438}
S1_D2_W1 = {0: 0.15751417065760134, 1: 0.6233718796134429}  # at t = 0.3


def test_spec_validation():
    # the designs are the keys of one table, shared by the spec and the truth
    for make in (lambda: DgpSpec(design=3, n=10), lambda: GroundTruth(3)):
        with pytest.raises(ValueError, match=r"^design must be 1 or 2, got 3$"):
            make()
    with pytest.raises(ValueError, match="n must"):
        DgpSpec(design=1, n=0)


# -- structural quantiles ----------------------------------------------------


def test_true_phi_values_and_support():
    assert true_phi(0, 0.2) == pytest.approx(0.4)
    assert true_phi(1, 0.2) == pytest.approx(0.2)
    assert true_phi(0, 0.5) == 1.0
    assert math.isinf(true_phi(0, 0.51))
    assert true_phi(1, 0.75) == 0.75
    assert math.isinf(true_phi(1, 0.76))
    for design in (1, 2):
        assert GroundTruth(design).phi1(0, 0.2) == true_phi(0, 0.2)


def test_true_phi_validation():
    with pytest.raises(ValueError, match="z must"):
        true_phi(2, 0.5)
    with pytest.raises(ValueError, match="u must"):
        true_phi(0, 1.5)


def test_censoring_window_top_sets_u_c(monkeypatch):
    # the identified range ends where the window's top censors a level's
    # cause-1 durations: 2u > 0.8 at level 0 from u = 0.4, within its share 0.5
    monkeypatch.setitem(simulate._CENSOR_WINDOW, 3, (1.0 / 3.0, 0.8))
    g = GroundTruth(3)
    assert g.u_c == g.u_y == 0.4
    assert GroundTruth(1).u_c == 1.0 / 3.0 and GroundTruth(2).u_c == 1.0


def test_ground_truth_frontiers():
    g1, g2 = GroundTruth(1), GroundTruth(2)
    assert g1.u_y == pytest.approx(1 / 3)
    assert g2.u_y == 0.5
    assert g1.y1 == pytest.approx((2 / 3, 2 / 3))
    assert g2.y1 == pytest.approx((1.0, 0.75))
    assert g1.qte(0.25) == pytest.approx(-0.25)
    assert g2.qte(0.4) == pytest.approx(-0.4)
    assert g2.qte(0.4, level=0, baseline=1) == pytest.approx(0.4)
    assert math.isnan(g2.qte(0.9))


def test_take_up_probability():
    assert GroundTruth(1).p_treated_given_w1 == pytest.approx(P_TREATED_GIVEN_W1, abs=1e-12)


def test_closed_form_survival_matches_oracle():
    g = GroundTruth(2)
    for z, want in S1_D2_W1.items():
        assert g.s1(0.3, z, 1) == pytest.approx(want, abs=1e-12)
    # untreated instrument arm: treatment cell empty, control cell is the
    # marginal cause-1 survival
    assert g.s1(0.3, 1, 0) == 0.0
    assert g.s1(0.3, 0, 0) == pytest.approx(1.0 - 0.15, abs=1e-12)


def test_population_residual_identity():
    # the structural quantiles solve the instrumental system exactly
    for design in (1, 2):
        g = GroundTruth(design)
        for u in (0.05, 0.15, 0.3, min(0.45, g.u_y - 0.01)):
            for w in (0, 1):
                total = g.s1(g.phi1(0, u), 0, w) + g.s1(g.phi1(1, u), 1, w)
                assert total == pytest.approx(1.0 - u, abs=1e-10)


def test_true_surface_wraps_closed_form():
    g = GroundTruth(1)
    surf = g.surface()
    assert surf.p_hat[1, 0] == 0.0
    assert surf.p_hat[:, 1].sum() == pytest.approx(1.0)
    ts = np.array([0.0, 0.3, 0.9])
    got = surf.evaluate(ts, 0, 1)
    assert got == pytest.approx([g.s1(t, 0, 1) for t in ts], abs=1e-15)
    v, s = surf.evaluate(0.3, 1, 1), surf.slopes([0.1, 0.3])[1, 1]
    assert v == pytest.approx(g.s1(0.3, 1, 1), abs=1e-15)
    assert s == pytest.approx((g.s1(0.3 + 1e-6, 1, 1) - v) / 1e-6, abs=1e-5)
    assert np.array_equal(surf.slopes([[0.1, 0.3], [0.2, 0.3]])[:, 1, 1], [s, s])
    assert np.all(np.diff(surf.level_knots(0)) > 0)


# -- sampling ----------------------------------------------------------------


@pytest.fixture(scope="module")
def d1_draw():
    return generate(DgpSpec(design=1, n=50_000, seed=2))


def test_generate_internal_consistency(d1_draw):
    data, lat = d1_draw
    assert data.n == 50_000
    assert np.array_equal(data.y, np.minimum(lat.t, lat.c))
    # records tied at the censoring time count as events
    observed = lat.t <= lat.c
    assert np.array_equal(data.event == 0, ~observed)
    assert np.array_equal(data.event[observed], lat.e[observed])
    assert np.array_equal(lat.z, ((4 * lat.u + lat.eps - 1 >= 0) & (lat.w == 1)).astype(int))
    # never treated without encouragement
    assert not np.any((lat.z == 1) & (lat.w == 0))
    assert (1, 0) in [tuple(c) for c in data.structural_zeros]


def test_generate_durations_follow_structural_quantiles(d1_draw):
    _, lat = d1_draw
    c1 = lat.e == 1
    assert np.allclose(lat.t[c1 & (lat.z == 0)], 2 * lat.u[c1 & (lat.z == 0)])
    assert np.allclose(lat.t[c1 & (lat.z == 1)], lat.u[c1 & (lat.z == 1)])
    c2 = lat.e == 2
    assert np.allclose(lat.t[c2 & (lat.z == 0)], lat.u[c2 & (lat.z == 0)] - 0.5)
    assert np.allclose(lat.t[c2 & (lat.z == 1)], 2 * (lat.u[c2 & (lat.z == 1)] - 0.75))
    assert np.all(lat.t >= 0)


def test_generate_moments(d1_draw):
    data, lat = d1_draw
    n = data.n
    se3 = 3 / math.sqrt(n)
    assert abs(lat.w.mean() - 2 / 3) < se3 * math.sqrt(2 / 9)
    p_treat = lat.z[lat.w == 1].mean()
    assert abs(p_treat - P_TREATED_GIVEN_W1) < se3 * 0.45
    share_censored = (data.event == 0).mean()
    assert abs(share_censored - CENSOR_SHARE[1]) < se3 * 0.47
    # censoring window bounds
    assert lat.c.min() >= 1 / 3
    assert lat.c.max() <= 2 / 3


def test_generate_deterministic_and_seed_sensitive():
    spec = DgpSpec(design=2, n=500, seed=9)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.event, b.event)
    c, _ = generate(DgpSpec(design=2, n=500, seed=10))
    assert not np.array_equal(a.y, c.y)


def test_design_changes_only_censoring():
    # same seed: latent ranks and assignments agree across designs
    _, l1 = generate(DgpSpec(design=1, n=2_000, seed=4))
    _, l2 = generate(DgpSpec(design=2, n=2_000, seed=4))
    assert np.array_equal(l1.u, l2.u)
    assert np.array_equal(l1.z, l2.z)
    assert np.array_equal(l1.t, l2.t)
    assert not np.array_equal(l1.c, l2.c)


# -- replication harness -------------------------------------------------------


def test_mc_study_shapes_and_determinism():
    spec = DgpSpec(design=2, n=400, seed=1)
    grid = QuantileGrid(np.linspace(0.1, 1.0, 10))
    res = mc_study(spec, reps=3, grid=grid)
    assert res.theta.shape == (3, 10, 2)
    assert res.reported.shape == (3, 10)
    assert res.qte.shape == (3, 10)
    assert res.naive.shape == (3, 10, 2)
    assert res.reps == 3
    again = mc_study(spec, reps=3, grid=grid)
    assert np.array_equal(res.theta, again.theta)
    assert np.array_equal(res.u_hat, again.u_hat)

    # replications are independent draws: all frontier estimates recorded
    assert np.all((res.u_hat > 0) & (res.u_hat <= 1))
    assert np.isnan(res.qte[~res.reported]).all()


def test_mc_study_worker_invariance():
    # replications run in turn, with no worker count to vary: the parameter
    # is gone, and each replication is the fit of its own data set alone
    spec = DgpSpec(design=1, n=300, seed=6)
    grid = QuantileGrid(np.linspace(0.1, 1.0, 6))
    res = mc_study(spec, reps=4, grid=grid)
    with pytest.raises(TypeError, match="workers"):
        mc_study(spec, reps=4, grid=grid, workers=3)
    for r in range(4):
        data, _ = generate(DgpSpec(spec.design, spec.n, substream_seed(spec.seed, "mcrep", r)))
        fit = fit_curve(data, grid=grid)
        assert np.array_equal(res.theta[r], fit.theta, equal_nan=True)
        assert res.u_hat[r] == fit.frontiers.u_hat
        assert np.array_equal(res.naive[r], naive_curve(data, grid))


def test_mc_study_prefix_property():
    # first replications of a longer study match a shorter one exactly
    spec = DgpSpec(design=1, n=300, seed=6)
    grid = QuantileGrid(np.linspace(0.1, 1.0, 6))
    short = mc_study(spec, reps=2, grid=grid)
    long = mc_study(spec, reps=4, grid=grid)
    assert np.array_equal(short.theta, long.theta[:2])


def test_mc_study_options():
    spec = DgpSpec(design=1, n=300, seed=6)
    grid = QuantileGrid(np.linspace(0.1, 1.0, 6))
    res = mc_study(spec, reps=2, grid=grid)
    assert res.naive.shape == (2, grid.size, 2)
    assert res.mean_naive_qte().shape == (grid.size,)
    with pytest.raises(ValueError, match="reps"):
        mc_study(spec, reps=0)


def test_mc_summaries():
    spec = DgpSpec(design=2, n=800, seed=12)
    grid = QuantileGrid(np.linspace(0.1, 1.0, 10))
    res = mc_study(spec, reps=5, grid=grid)
    means, counts = res.mean_qte()
    assert means.shape == (10,)
    assert counts.shape == (10,)
    assert np.isnan(means[counts == 0]).all()
    reported_cols = res.reported.sum(axis=0)
    assert np.array_equal(counts, reported_cols)
    edges, hist = res.u_hat_histogram(bins=20)
    assert edges.size == 21
    assert hist.sum() == 5


def test_banded_mc_study_holds_no_block_past_its_repetition():
    # a repetition keeps its summaries, never its fit or band, whose surface
    # and solution are views into the (B, ...) arrays of a bootstrap block:
    # with numpy 2.4, six banded repetitions at n = 2,000 (10 draws, 50 grid
    # points) peak at 1,982,038 traced bytes against 1,950,772 for one, and
    # hold 32,444 after; keeping each repetition's fit raised the six's peak to
    # 3,418,249, and keeping each block's fits to 3,531,981
    from crqiv.inference import BootstrapConfig

    spec, grid, boot = DgpSpec(design=2, n=2_000, seed=0), QuantileGrid.default(50), BootstrapConfig(draws=10)
    mc_study(spec, 1, grid, boot)  # numpy's first-call allocations
    peaks = []
    for reps in (1, 6):
        tracemalloc.start()
        try:
            res = mc_study(spec, reps, grid, boot)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        assert res.reps == reps and held <= 64_000
    assert peaks[1] <= peaks[0] + 100_000
