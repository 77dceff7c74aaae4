"""Reference computations that the tests check the package against. They
are written directly from the paper's formulas, not from the package's
kernels, and nothing in the package calls them."""

import numpy as np

from rttsync.estimators import WeightVector, _check_clock
from rttsync.model import RttSeries, sawtooth_template


def wls_cost(
    f_d: float,
    phi: float,
    series: RttSeries,
    T_m: float,
    delta0: float,
    w: WeightVector,
) -> float:
    """Concentrated weighted squared-error cost with the range profiled out."""
    _check_clock(T_m, delta0)
    r = series.values - sawtooth_template(series.times, f_d, phi, T_m) - delta0
    wv = w.w
    s = float(np.sum(wv))
    return float(np.sum(wv * r * r) - np.dot(wv, r) ** 2 / s)
