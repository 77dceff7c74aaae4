"""Model validation and range calibration: residual autocorrelation with
white-noise confidence bounds, and polynomial mapping of mean RTT to range."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import Estimate, residuals
from .model import RttSeries

# two-sided 99% Gaussian quantile for the white-noise ACF bound
_Z99 = 2.5758293035489004

_ACF_PASS_FRACTION = 0.95


@dataclass(frozen=True)
class AcfReport:
    """Sample autocorrelation of residuals with white-noise bounds."""

    lags: np.ndarray
    acf: np.ndarray
    bound: float
    fraction_inside: float

    @property
    def passes(self) -> bool:
        return self.fraction_inside >= _ACF_PASS_FRACTION


@dataclass(frozen=True)
class CalibrationCurve:
    """Fifth-order polynomial mapping mean RTT (s) to range (m).

    Coefficients are for the centered and scaled variable
    u = (rtt - offset) / scale; raw-second monomials are numerically
    meaningless at microsecond abscissas. Evaluation outside
    [domain_lo, domain_hi] is flagged.
    """

    coefficients: np.ndarray  # orders 0..5 in u
    offset: float
    scale: float
    domain_lo: float
    domain_hi: float

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", c)
        if c.shape != (6,):
            raise ValueError("exactly six coefficients (orders 0..5) required")

    def in_domain(self, rtt_mean: float) -> bool:
        return self.domain_lo <= rtt_mean <= self.domain_hi


def residual_acf(
    series: RttSeries, estimate: Estimate, max_lag: int, T_m: float, delta0: float
) -> AcfReport:
    """Biased, mean-centered sample ACF of the model-fit residuals.

    The white-noise 99% bound is 2.576/sqrt(N); the report passes when at
    least 95% of lags 1..max_lag fall inside it.
    """
    n = len(series)
    if not 1 <= max_lag < n:
        raise ValueError("max_lag must lie in [1, N)")
    r = residuals(series, estimate, T_m, delta0)
    r = r - np.mean(r)
    c0 = float(np.dot(r, r)) / n
    if c0 == 0.0:
        raise ValueError("residuals are identically zero")
    lags = np.arange(max_lag + 1)
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    for k in range(1, max_lag + 1):
        acf[k] = float(np.dot(r[:-k], r[k:])) / n / c0
    bound = _Z99 / np.sqrt(n)
    inside = np.abs(acf[1:]) <= bound
    return AcfReport(
        lags=lags, acf=acf, bound=float(bound),
        fraction_inside=float(np.mean(inside)),
    )


def calibrate_range(pairs) -> CalibrationCurve:
    """Least-squares fifth-order fit of (mean RTT, true range) pairs.

    Needs at least 7 finite pairs with distinct RTT values.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be (range_m, rtt_s) rows")
    if not np.isfinite(pairs).all():
        raise ValueError("pairs must be finite")
    ranges = pairs[:, 0]
    rtts = pairs[:, 1]
    if np.unique(rtts).size != rtts.size:
        raise ValueError("duplicate RTT values make the fit rank deficient")
    if rtts.size < 7:
        raise ValueError("need at least 7 pairs for a fifth-order fit")
    offset = float(rtts.mean())
    scale = float(0.5 * (rtts.max() - rtts.min()))
    u = (rtts - offset) / scale
    vander = np.vander(u, 6, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(vander, ranges, rcond=None)
    if rank < 6:
        raise ValueError("rank-deficient calibration fit")
    return CalibrationCurve(
        coefficients=coeffs,
        offset=offset,
        scale=scale,
        domain_lo=float(rtts.min()),
        domain_hi=float(rtts.max()),
    )


def apply_calibration(curve: CalibrationCurve, rtt_mean: float) -> float:
    """Evaluate the calibration polynomial; warns outside the fit domain."""
    if not curve.in_domain(rtt_mean):
        warnings.warn(
            "RTT %.6g s lies outside the calibration domain [%.6g, %.6g]"
            % (rtt_mean, curve.domain_lo, curve.domain_hi)
        )
    u = (rtt_mean - curve.offset) / curve.scale
    return float(np.polynomial.polynomial.polyval(u, curve.coefficients))
