import numpy as np
import pytest

from crqiv import QuantileIVEstimator
from crqiv.estimator import fit_curve
from crqiv.inference import BootstrapConfig
from crqiv.simulate import DgpSpec, generate


@pytest.fixture(scope="module")
def fitted():
    data, _ = generate(DgpSpec(design=2, n=2_000, seed=6))
    est = QuantileIVEstimator(grid_size=25).fit(data)
    return data, est


def test_params_round_trip():
    est = QuantileIVEstimator(grid_size=40, kind="convolution")
    params = est.get_params()
    assert params["grid_size"] == 40
    assert params["kind"] == "convolution"
    assert params["bandwidth"] is None
    est.set_params(grid_size=10, bandwidth=0.2)
    assert est.get_params()["grid_size"] == 10
    assert est.get_params()["bandwidth"] == 0.2
    assert est.set_params() is est


def test_unknown_param_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        QuantileIVEstimator().set_params(bandwidht=0.3)


def test_unfit_access_raises():
    est = QuantileIVEstimator()
    for call in (est.qte, est.derived, lambda: est.bounds_at(0.9), est.confidence_band):
        with pytest.raises(RuntimeError, match="fit"):
            call()


def test_fit_populates_attributes(fitted):
    data, est = fitted
    assert est.theta_.shape == (25, 2)
    assert est.reported_.dtype == bool
    assert 0 < est.u_hat_ <= 1
    assert est.data_ is data
    # matches the functional pipeline exactly
    from crqiv.estimator import QuantileGrid

    direct = fit_curve(data, grid=QuantileGrid.default(25))
    assert np.array_equal(est.theta_, direct.theta)
    assert est.u_hat_ == direct.frontiers.u_hat


def test_fit_returns_self():
    data, _ = generate(DgpSpec(design=1, n=400, seed=2))
    est = QuantileIVEstimator(grid_size=10)
    assert est.fit(data) is est


def test_qte_wiring(fitted):
    _, est = fitted
    qte = est.qte()
    assert qte.shape == (25,)
    assert np.array_equal(qte, est.fit_.qte(), equal_nan=True)
    assert np.array_equal(est.qte(0, 1), est.fit_.qte(0, 1), equal_nan=True)


def test_bounds_wiring(fitted):
    _, est = fitted
    os_ = est.bounds_at(0.9)
    assert os_.case in ("i", "ii", "iii", "iv")
    assert not os_.is_empty
    with pytest.raises(ValueError, match="point-identified"):
        est.bounds_at(0.01)


def test_bounds_reuse_the_fitted_surface(fitted, monkeypatch):
    import crqiv.facade
    import crqiv.surface
    from crqiv.bounds import BoundFrontiers, outer_set

    data, est = fitted

    def refuse(*args, **kwargs):
        raise AssertionError("surface rebuilt")

    monkeypatch.setattr(crqiv.facade, "assemble_surface", refuse)
    monkeypatch.setattr(crqiv.surface, "assemble_surface", refuse)
    got = est.bounds_at(0.9)
    want = outer_set(0.9, est.surface_, BoundFrontiers.from_data(data, est.fit_))
    assert got.to_dict() == want.to_dict()


def test_derived_wiring(fitted):
    _, est = fitted
    base = est.derived()
    assert set(base) <= {0, 1}
    assert not any(lv.cause_hazard_valid.any() for lv in base.values())
    with_c2 = est.derived(with_secondary_cause=True)
    assert any(lv.cause_hazard_valid.any() for lv in with_c2.values())


def test_confidence_band_wiring(fitted):
    _, est = fitted
    band = est.confidence_band(BootstrapConfig(draws=12, seed=0))
    assert band.u.shape == (25,)
    assert band.draws == 12
    assert np.array_equal(band.point, est.fit_.qte(), equal_nan=True)
