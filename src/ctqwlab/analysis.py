"""Scaling studies of the critical coupling versus system size.

Two empirical models cover the families of interest: a power law
``gamma_crit = c * N**beta`` for self-similar structures and regular
lattices, and a linear-in-generation law ``gamma_crit = a * g + b``
(logarithmic in N) for the tree family.  Each is fitted by one
least-squares solve, the power law on log-log coordinates.  The measured
power-law exponent can be compared against the value predicted from the
low-frequency spectral data, ``alpha + 2 / d_s`` with ``d_s`` the
spectral dimension; alpha, the exponent of the largest squared target
amplitude against N, is the same power fit (:func:`spectra.fit_alpha`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .graphs import GraphSpec

__all__ = [
    "ScalingModel",
    "ScalingFit",
    "fit_scaling",
    "exponent_prediction",
]


class ScalingModel(str, Enum):
    """Functional form fitted to (size, critical coupling) data."""

    POWER = "power"
    LOG = "log"


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of critical-coupling data.

    ``params`` holds ``{"c": ..., "beta": ...}`` for the power model
    (fit performed on log-log coordinates) and ``{"a": ..., "b": ...}``
    for the log model (plain linear fit of gamma against generation).
    ``residual`` is the RMS misfit in the fit coordinates.  When a
    spectral-dimension prediction for the exponent is available it is
    carried in ``prediction`` for side-by-side reporting.
    """

    model: ScalingModel
    params: dict[str, float]
    residual: float
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    prediction: float | None = None
    alpha_used: float | None = None

    @property
    def n_points(self) -> int:
        return int(self.x.size)

    def evaluate(self, x) -> np.ndarray | float:
        """Model value at ``x`` with the fitted parameters."""
        arr = np.asarray(x, dtype=float)
        if self.model is ScalingModel.POWER:
            out = self.params["c"] * arr ** self.params["beta"]
        else:
            out = self.params["a"] * arr + self.params["b"]
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        return {
            "family": self.label,
            "model": self.model.value,
            "params": dict(self.params),
            "residual": self.residual,
            "n_points": self.n_points,
            "prediction": self.prediction,
            "alpha_used": self.alpha_used,
            "points": [[float(a), float(b)] for a, b in zip(self.x, self.y)],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _as_points(points) -> tuple[np.ndarray, np.ndarray]:
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 3:
        raise ConfigError(f"need at least 3 points to fit, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigError("fit points must be finite")
    if np.unique(x).size < x.size:
        raise ConfigError("fit points must have distinct abscissae")
    return x, y


def fit_scaling(points, model: ScalingModel | str, *, label: str = "",
                prediction: float | None = None,
                alpha_used: float | None = None) -> ScalingFit:
    """Fit (x, y) pairs with the requested scaling model.

    At least three points with distinct, finite abscissae and finite
    ordinates, else ConfigError.  For ``POWER`` the abscissa is the node
    count and both coordinates must be positive; log(y) is fitted against
    log(x) by one ``lstsq`` solve.  It also gives the amplitude exponent
    alpha of :func:`spectra.fit_alpha`.  For ``LOG`` the abscissa is the
    generation index, and y is fitted against it by the same solve.
    Inputs are taken as-is (unweighted), so identical inputs always
    reproduce identical parameters.
    """
    try:
        model = ScalingModel(model)
    except ValueError:
        names = ", ".join(m.value for m in ScalingModel)
        raise ConfigError(f"unknown scaling model {model!r}; "
                          f"choose one of: {names}") from None
    x, y = _as_points(points)
    x_fit, y_fit = x, y
    if model is ScalingModel.POWER:
        if (x <= 0).any() or (y <= 0).any():
            raise ConfigError("power-law fit requires positive sizes and "
                              "positive values")
        x_fit, y_fit = np.log(x), np.log(y)
    design = np.column_stack([x_fit, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y_fit, rcond=None)
    rms = np.sqrt(np.mean((y_fit - design @ coef) ** 2))
    slope, intercept = (float(v) for v in coef)
    params = ({"c": math.exp(intercept), "beta": slope}
              if model is ScalingModel.POWER else {"a": slope, "b": intercept})
    return ScalingFit(model=model, params=params, residual=float(rms),
                      x=x, y=y, label=label, prediction=prediction,
                      alpha_used=alpha_used)


def exponent_prediction(spec: GraphSpec, alpha: float) -> float:
    """Predicted power-law exponent ``alpha + 2 / d_s`` for a family.

    ``alpha`` characterises the decay of the largest squared eigenvector
    amplitude at the target with system size; ``d_s`` is the family's
    spectral dimension.  Families without one (the tree, the complete
    graph) have no power-law prediction and raise ``ConfigError``; the
    tree family follows the linear-in-generation law instead.
    """
    if not math.isfinite(alpha):
        raise ConfigError("alpha must be finite")
    ds = spec.spectral_dimension
    if ds is None:
        raise ConfigError(
            f"family {spec.family.value!r} has no spectral dimension; "
            "no power-law exponent is predicted (use the log model for "
            "the tree family)")
    return alpha + 2.0 / ds
