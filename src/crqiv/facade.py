"""Single-object front door over the functional pipeline.

Wraps surface assembly, curve fitting, and the downstream extras behind
one configurable estimator object for callers who prefer
configure-fit-inspect over composing the module functions directly.
"""

from __future__ import annotations

import numpy as np

from .bounds import BoundFrontiers, outer_set
from .data import Dataset, swap_causes
from .derived import derived_quantities
from .estimator import QuantileGrid, fit_curve
from .inference import BootstrapConfig, bootstrap_band
from .surface import assemble_surface

__all__ = ["QuantileIVEstimator"]


class QuantileIVEstimator:
    """Structural quantile estimation with a fit-then-query interface.

    Parameters mirror fit_curve; fitted results live in attributes with a
    trailing underscore. get_params/set_params allow generic tuning loops.
    """

    _PARAM_NAMES = ("grid_size", "bandwidth", "delta", "kind", "V")

    def __init__(self, grid_size=100, bandwidth=None, delta=None, kind="local_linear", V=None):
        self.grid_size = grid_size
        self.bandwidth = bandwidth
        self.delta = delta
        self.kind = kind
        self.V = V

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params) -> "QuantileIVEstimator":
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def fit(self, data: Dataset) -> "QuantileIVEstimator":
        self.surface_ = assemble_surface(data, bandwidth=self.bandwidth, kind=self.kind)
        self.fit_ = fit_curve(
            data,
            grid=QuantileGrid.default(self.grid_size),
            V=self.V,
            delta=self.delta,
            surface=self.surface_,
        )
        self.data_ = data
        self.u_hat_ = self.fit_.frontiers.u_hat
        self.theta_ = self.fit_.theta
        self.reported_ = self.fit_.reported_mask
        return self

    def _require_fit(self):
        if not hasattr(self, "fit_"):
            raise RuntimeError("call fit(data) first")

    def qte(self, level: int = 1, baseline: int = 0) -> np.ndarray:
        self._require_fit()
        return self.fit_.qte(level, baseline)

    def derived(self, with_secondary_cause: bool = False):
        self._require_fit()
        cause2 = None
        if with_secondary_cause:
            cause2 = fit_curve(
                swap_causes(self.data_),
                grid=self.fit_.grid,
                V=self.V,
                bandwidth=self.bandwidth,
                delta=self.delta,
                kind=self.kind,
            )
        return derived_quantities(self.fit_, cause2)

    def bounds_at(self, u: float):
        self._require_fit()
        return outer_set(u, self.surface_, BoundFrontiers.from_data(self.data_, self.fit_))

    def confidence_band(self, boot: BootstrapConfig | None = None, contrast=(1, 0)):
        self._require_fit()
        return bootstrap_band(
            self.data_,
            boot,
            contrast,
            fit=self.fit_,
            grid=self.fit_.grid,
            V=self.V,
            bandwidth=self.bandwidth,
            delta=self.delta,
            kind=self.kind,
        )
