"""Joint estimators of (frequency difference, phase offset, range) from an
RTT series: unwrapped least squares (ULS), periodogram + correlation peaks
(PCP), and robust weighted least squares (WLS), plus the median/nMAD outlier
weighting and pre-processing filter they rely on.

The public calls take a master period T_m in (0, 1 s], a clock of at least
1 Hz, and a finite delta0; PCP and WLS also need stamps on the lattice of
their grid's Ts (SearchGrids.check_sampling). Anything else is a ValueError.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    SPEED_OF_LIGHT,
    TWO_PI,
    _T_M_MAX,
    RttSeries,
    _require_finite,
    sawtooth_template,
)

# Scale factor making the median absolute deviation consistent with the
# standard deviation of a Gaussian.
NMAD_FACTOR = 1.483

_REFINE_FACTOR = 10
_REFINE_POINTS = 2 * _REFINE_FACTOR + 1  # +-one step, at a tenth of it
_REFINE_LEVELS = 2
# Narrower phase segments are rounding slivers between repeated wrap phases
# (commensurate f*Ts), which no phase can reach.
_MIN_SEGMENT_RAD = 1e-9


def wrap_to_2pi(x):
    """Map angles to [0, 2pi)."""
    return np.mod(x, TWO_PI)


def wrap_to_pm_pi(x):
    """Map angles to (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(x), TWO_PI)


@dataclass(frozen=True)
class WeightVector:
    """0/1 inlier mask: 1 keeps a sample in the fit, 0 drops it as an
    outlier; at least one sample must be kept. A boolean mask is 0/1 by
    type, so only other masks have their values checked."""

    w: np.ndarray

    def __post_init__(self):
        binary = np.asarray(self.w).dtype == bool
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1:
            raise ValueError("weights must be 1-D")
        if not (binary or np.all((w == 0.0) | (w == 1.0))):
            raise ValueError("weights must be 0 or 1")
        if not w.any():
            raise ValueError("all weights are zero")

    @property
    def n_used(self) -> int:
        return int(np.count_nonzero(self.w))

    @property
    def n_downweighted(self) -> int:
        return self.w.size - self.n_used


@dataclass(frozen=True)
class SearchGrids:
    """Frequency grid of the search estimators for N samples every Ts: the
    bins F = k/(n_fft*Ts) of a length-n_fft = 4N FFT, |k| <= n, up to the
    last at or below f_max, by default the Nyquist rate 1/(2Ts)."""

    N: int
    Ts: float
    f_max: float | None = None
    n_fft: int = field(init=False, repr=False, compare=False)
    F: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.Ts) and self.Ts > 0.0):
            raise ValueError("Ts must be positive and finite")
        if self.f_max is None:
            object.__setattr__(self, "f_max", 1.0 / (2.0 * self.Ts))
        if not self.f_max <= 1.0 / (2.0 * self.Ts):
            raise ValueError("f_max exceeds the schedule's Nyquist frequency")
        if not (isinstance(self.N, (int, np.integer)) and self.N > 0):
            raise ValueError("N must be a positive integer")
        object.__setattr__(self, "n_fft", 4 * self.N)
        df = 1.0 / (self.n_fft * self.Ts)
        if not self.f_max >= df:
            raise ValueError("f_max is below one grid step")
        n_half = math.floor(self.f_max / df + 1e-9)  # the slack keeps f_max = n*df on the grid
        object.__setattr__(self, "F", df * np.arange(-n_half, n_half + 1))

    @property
    def f_step(self) -> float:
        return float(self.F[1] - self.F[0])

    def check_sampling(self, t: np.ndarray) -> None:
        """Reject stamps off the lattice t[0] + k*Ts onto which the FFT
        rounds them: each must lie within 1e-3*Ts of a lattice point, as a
        jittered or drifting stamp would move its phase. The steps in k
        between stamps must also share no factor d > 1: such a record is
        sampled every d*Ts, more coarsely than Ts, and f and f + 1/(d*Ts),
        both within f_max, fit it equally. A record may miss samples, as a
        zero weight deletes one; the grid should then resolve its span, for
        which SearchGrids(N) of its N samples is too coarse once long gaps
        stretch the span past about n_fft lattice points."""
        if t.size < 2:
            return
        k = (t - t[0]) / self.Ts
        lattice = np.rint(k)
        if (np.max(np.abs(k - lattice)) > 1e-3
                or np.gcd.reduce(np.diff(lattice).astype(np.int64)) != 1):
            raise ValueError("PCP and WLS need uniformly spaced time stamps, each within "
                             "1e-3*Ts of t0 + k*Ts and with steps in k of no common factor: "
                             "this record is jittered, drifts, or is sampled more coarsely "
                             "than the grid's Ts")


@dataclass(frozen=True)
class Estimate:
    """Joint estimate of frequency difference (Hz), phase (rad) and range (m).

    weights is the inlier mask the fit used (all ones for ULS and PCP).
    f_grid_step is the final frequency step. For PCP and WLS phi_grid_step
    is the width of the phase segment over which the score is flat at its
    optimum, i.e. how far phi_hat (with rho_hat) is ambiguous. Residuals
    come from :func:`residuals`.
    """

    f_d_hat: float
    phi_hat: float
    rho_hat: float
    method: str
    weights: WeightVector | None = None
    f_grid_step: float | None = None
    phi_grid_step: float | None = None

    def __post_init__(self):
        _require_finite("estimated parameters", self.f_d_hat, self.phi_hat, self.rho_hat)


class _Fit(NamedTuple):
    """A row kernel's fit of the rows of a (B, N) stack, per row (B,)."""

    f: np.ndarray  # Hz
    phi: np.ndarray  # rad
    rho: np.ndarray  # m
    width: np.ndarray | None = None  # phase segment, rad: NaN on a constant PCP row; ULS: None
    f_step: float | None = None  # the final frequency step; ULS: None


def _check_clock(T_m: float, delta0: float) -> None:
    """Reject a master period that is not positive or is above _T_M_MAX
    (1 s), or a slave delay that is not finite, before they reach an
    estimate."""
    if not 0.0 < T_m <= _T_M_MAX:
        raise ValueError(f"T_m must be positive and at most {_T_M_MAX:g} s")
    _require_finite("delta0", delta0)


def _median(x):
    """(B, 1) medians of the rows of x (B, N), as np.median(x, axis=1,
    keepdims=True) gives them, at about a third of its cost on one row of
    1000, where np.median's own overhead dominates: robust_weights takes
    two, on every one-record WLS estimate."""
    n = x.shape[1]
    lo, hi = (n - 1) // 2, n // 2
    part = np.partition(x, (lo, hi), axis=1)
    return 0.5 * (part[:, lo:lo + 1] + part[:, hi:hi + 1])


def _outlier_mask(y: np.ndarray):
    """Deviation-from-median test on each row of y (B, N). Returns (mask of
    outliers, per-row flag of a zero MAD with nonzero deviations, where the
    mask is empty, and the (B, 1) row medians)."""
    if y.shape[1] < 3:
        raise ValueError("need at least 3 samples")
    med = _median(y)
    dev = np.abs(y - med)
    sigma_mad = NMAD_FACTOR * _median(dev)
    zero = sigma_mad[:, 0] == 0.0
    mask = dev > 3.0 * sigma_mad
    mask[zero] = False
    return mask, zero & (dev.max(axis=1) > 0.0), med


def _replace_outliers(y, mask, med):
    """Rows of y with each masked sample replaced: isolated ones by the mean
    of their two unmasked neighbours, runs and boundary hits by the row
    median med."""
    out = np.where(mask, med, y)
    isolated = mask[:, 1:-1] & ~mask[:, :-2] & ~mask[:, 2:]
    out[:, 1:-1][isolated] = (0.5 * (y[:, :-2] + y[:, 2:]))[isolated]
    return out


def _warn_uniform(zero):
    """One warning naming how many records, of those flagged in zero (B,),
    fall back to uniform weights for a zero MAD with nonzero deviations."""
    if zero.any():
        warnings.warn(f"zero MAD with nonzero deviations in {np.count_nonzero(zero)} of "
                      f"{zero.size} records; using uniform weights for them")


def robust_weights(series: RttSeries) -> WeightVector:
    """0/1 weights: zero where the sample deviates from the median by more
    than three normalized MADs.

    Falls back to uniform weights (with a warning) when the MAD collapses to
    zero while deviations remain, e.g. a majority of identical samples.
    """
    mask, zero, _ = _outlier_mask(series.values[None])
    _warn_uniform(zero)
    return WeightVector(np.where(mask[0], 0.0, 1.0))


def preprocess_outliers(series: RttSeries) -> RttSeries:
    """Replace detected outliers: isolated ones by the mean of their two
    neighbors, runs (and boundary hits) by the median of the whole record."""
    y = series.values[None]
    mask, _, med = _outlier_mask(y)
    if not mask.any():
        return series
    return series.with_values(_replace_outliers(y, mask, med)[0])


def unwrap(z: np.ndarray) -> np.ndarray:
    """Phase unwrapping along the last axis: first element kept, consecutive
    differences mapped into (-pi, pi], output congruent to the input modulo
    2pi."""
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("empty input")
    out = np.empty_like(z)
    out[..., 0] = z[..., 0]
    out[..., 1:] = z[..., :1] + np.cumsum(wrap_to_pm_pi(np.diff(z)), axis=-1)
    return out


def phase_error(phi_hat: float, phi_true: float) -> float:
    """Signed wrapped phase error in radians, in (-pi, pi]."""
    return float(wrap_to_pm_pi(phi_true - phi_hat))


def phase_error_seconds(phi_hat: float, phi_true: float, T_m: float) -> float:
    """Phase error expressed as seconds of clock period."""
    return phase_error(phi_hat, phi_true) * T_m / TWO_PI


def residuals(
    series: RttSeries, estimate: Estimate, T_m: float, delta0: float
) -> np.ndarray:
    """Model-fit residuals y - h(t; f_d, phi) - delta0 - 2*rho/c of an estimate."""
    _check_clock(T_m, delta0)
    h = sawtooth_template(series.times, estimate.f_d_hat, estimate.phi_hat, T_m)
    return series.values - h - delta0 - 2.0 * estimate.rho_hat / SPEED_OF_LIGHT


def _uls_rows(t, y, T_m, delta0):
    """_Fit of ULS, with no width or f_step, on each row of y (B, N) sampled
    at t. The least-squares line through each row's unwrapped phase u comes
    in closed form about the means: slope = sum (u - u_bar)(t - t_bar) /
    sum (t - t_bar)^2, exact up to rounding, each row reduced as in a one-record call."""
    if y.shape[1] < 2:
        raise ValueError("need at least 2 samples")
    y_bar = np.mean(y, axis=1, keepdims=True)
    rho = 0.5 * SPEED_OF_LIGHT * (y_bar[:, 0] - 0.5 * T_m - delta0)
    u = unwrap((TWO_PI / T_m) * (y - y_bar))
    t_bar = np.mean(t)
    dt = t - t_bar
    u_bar = np.mean(u, axis=1)
    slope = np.vecdot(u - u_bar[:, None], dt) / np.vecdot(dt, dt)
    intercept = u_bar - slope * t_bar
    # centering by y_bar removed the sawtooth mean (~pi); add it back
    return _Fit(slope / TWO_PI, wrap_to_2pi(intercept + math.pi), rho)


def uls_estimate(series: RttSeries, T_m: float, delta0: float) -> Estimate:
    """Three-step unwrapped least squares.

    Range comes from the sample mean assuming the sawtooth averages to
    T_m/2; frequency and phase come from a line fit to the unwrapped,
    mean-centered phase. The T_m/2 assumption biases the range by up to
    c*T_m/4 on short or degenerate (constant) records.
    """
    return _estimate_record("ULS", series, T_m, delta0)


def _zoom_power(u, t, df, P):
    """|sum_i u_i exp(-2j pi k*df t_i)|^2, k = 0..K-1, for each row of u (B, N)
    by direct summation on the exact stamps t (N,) that the rows share: the
    refinement kernel. It fills the phasor table P (K + 1, N) with P[0] = 1/w
    and P[k] = w^(k-1), w = exp(-2j pi df t), by K-1 products from one exp
    row, rounding near machine precision at _REFINE_POINTS rows, and sums
    over P[1:]: u * P[k] is u one step of df below sum k."""
    w = np.exp((-2j * math.pi * df) * t)
    np.conjugate(w, out=P[0])
    P[1] = 1.0
    for k in range(2, len(P)):
        np.multiply(P[k - 1], w, out=P[k])
    return np.abs(u @ P[1:].T) ** 2


def _fft_periodogram(y, t, grids, positive=False):
    """Periodogram of each row of y (B, N) over grids.F (its positive half if
    `positive`) from one FFT of length L = n_fft per row, sample i placed at
    m_i = rint((t_i - t_0)/Ts) mod L for the stamps t (N,) that the rows
    share. Each grid f is a bin k/(L*Ts), so the sum is exp(-2j pi f t_0)
    times bin k mod L: exact on the Ts lattice however long the record;
    stamps off it are rounded (the refinement sums over the exact ones), and
    samples that round or fold into one bin add up there. The grid's n <= L/2
    bins each side are two slices of the FFT, X[L - n:] then X[:n + 1], and
    the real rows of PCP take the positive ones from a real FFT."""
    B, L = y.shape[0], grids.n_fft
    m = np.rint((t - t[0]) / grids.Ts).astype(np.intp) % L
    x = np.zeros((B, L), dtype=y.dtype)
    np.add.at(x.reshape(-1), (L * np.arange(B)[:, None] + m).reshape(-1), y.reshape(-1))
    n = grids.F.size // 2
    if positive:
        return np.abs(np.fft.rfft(x, axis=1)[:, 1:n + 1]) ** 2
    X = np.fft.fft(x, axis=1)
    return np.abs(np.concatenate([X[:, L - n:], X[:, :n + 1]], axis=1)) ** 2


def _peak_frequency(y, t, grids, refine, positive=False):
    """Frequency of the periodogram peak of each row of y (B, N) over grids.F
    (its positive half if `positive`) from the FFT, ties to the lowest index
    and clipped to |f| <= f_max, and with refine=True two local searches of
    _REFINE_POINTS frequencies that each shrink the step tenfold around it,
    kept within 0 < f <= f_max (|f| <= f_max if not `positive`). Returns
    (f (B,), final frequency step). The rows share the stamps t (N,): a row
    drops a sample by zeroing it. Each row is demodulated once, to u at its
    band's lowest frequency; a level takes one phasor table P for all rows,
    and u *= P[k] moves each row to the next band, a step below its pick k."""
    F = grids.F[grids.F > 0.0] if positive else grids.F
    f = F[np.argmax(_fft_periodogram(y, t, grids, positive), axis=1)]
    # the grid edge n*df can round one ulp past f_max
    f, f_step = np.minimum(np.maximum(f, -grids.f_max), grids.f_max), grids.f_step
    if refine:
        rows = np.arange(y.shape[0])
        u = y * np.exp((-2j * math.pi) * (f - f_step)[:, None] * t)
        P = np.empty((_REFINE_POINTS + 1, t.size), dtype=complex)
        for _ in range(_REFINE_LEVELS):
            local = f[:, None] + np.linspace(-f_step, f_step, _REFINE_POINTS)
            f_step /= _REFINE_FACTOR
            power = _zoom_power(u, t, f_step, P)
            drop = np.abs(local) > grids.f_max
            if positive:
                drop |= local <= 0.0
            power[drop] = -math.inf
            k = np.argmax(power, axis=1)
            f = local[rows, k]
            u *= P[k]
    return f, f_step


def _pcp_rows(t, y, T_m, delta0, grids, refine):
    """_Fit of PCP on each row of y (B, N). A row constant to rounding
    carries no frequency information: it gets f = phi = 0, the range of its
    mean and a NaN width."""
    if y.shape[1] < 4:
        raise ValueError("need at least 4 samples")
    y0 = y - np.mean(y, axis=1, keepdims=True)
    scale = 1e-15 * np.maximum(1.0, np.abs(y).max(axis=1, keepdims=True))
    flat = ~np.any(np.abs(y0) > scale, axis=1)
    f_mag, f_step = _peak_frequency(y0, t, grids, refine, positive=True)

    # correlate mean-removed data against sawtooths of either slope, keeping
    # the sign: the constant offset would swamp the peak, and centered
    # sawtooths of opposite slope are mirror images. The template is
    # 2pi*(1 - c_i + psi), less 2pi once psi >= c_i, so as sum(y0) = 0 the
    # correlation y0 @ p is constant between wraps. Row 0 (-f_mag) wins ties.
    c, order, width = _wrap_segments(np.stack([-f_mag, f_mag], axis=1), t)
    ys = y0[np.arange(y0.shape[0])[:, None, None], order]
    score = (ys * (1.0 - c)).sum(axis=2, keepdims=True) - (ys.cumsum(axis=2) - ys)
    row, phi, phi_width, _ = _best_segment(-TWO_PI * score, c, width)
    f_d = np.where(row == 0, -f_mag, f_mag)

    r = y - sawtooth_template(t, f_d[:, None], phi[:, None], T_m) - delta0
    rho = 0.5 * SPEED_OF_LIGHT / r.shape[1] * r.sum(axis=1)
    rho_flat = 0.5 * SPEED_OF_LIGHT * np.mean(y - delta0, axis=1)
    return _Fit(np.where(flat, 0.0, f_d), np.where(flat, 0.0, phi),
                np.where(flat, rho_flat, rho), np.where(flat, math.nan, phi_width), f_step)


def pcp_estimate(
    series: RttSeries,
    T_m: float,
    delta0: float,
    grids: SearchGrids,
    refine: bool = True,
) -> Estimate:
    """Periodogram + correlation peaks.

    Frequency magnitude from the periodogram peak of the mean-removed data
    over the positive half of the grid, sign and phase from the correlation
    peak against candidate sawtooths, found exactly over the continuous phase
    circle, and range from a direct least-squares fit of the leftover
    constant. A constant series gives f_d = phi = 0 and no grid steps.
    """
    return _estimate_record("PCP", series, T_m, delta0, grids, refine)


def _wrap_segments(F, t):
    """Per row b and frequency F[b, r], the sorted wrap phases
    c_i = 1 - frac(F[b, r]*t_i) in cycles of stamps t (N,) or (B, N), their
    sort order and each segment's width, all (B, R, N): column j is the
    segment [c[j-1], c[j]), on which the j samples sorted before it have
    wrapped; column 0 runs round from c[-1] - 1."""
    raw = F[:, :, None] * t[..., None, :]
    raw = 1.0 - (raw - np.floor(raw))
    order = raw.argsort(axis=2)
    c = np.take_along_axis(raw, order, axis=2)
    width = np.empty_like(c)
    width[:, :, 0] = c[:, :, 0] - (c[:, :, -1] - 1.0)
    np.subtract(c[:, :, 1:], c[:, :, :-1], out=width[:, :, 1:])
    return c, order, width


def _best_segment(cost, c, width):
    """Per row b, (index r, midpoint phase, width in rad, cost) of the
    lowest-cost segment of cost[b] (R, N) no narrower than _MIN_SEGMENT_RAD;
    ties go to the lowest r."""
    cost[TWO_PI * width < _MIN_SEGMENT_RAD] = math.inf
    b = np.arange(cost.shape[0])
    i, j = np.divmod(np.argmin(cost.reshape(b.size, -1), axis=1), c.shape[2])
    mid = (c[b, i, j - 1] + 0.5 * width[b, i, j]) % 1.0
    return i, TWO_PI * mid, TWO_PI * width[b, i, j], cost[b, i, j]


def _wls_search(b, t, f, T_m):
    """Exact minimum of the concentrated least-squares cost over the
    continuous phase circle for each row of b (B, n) at its frequency f (B,),
    sampled at t (n,) or (B, n).

    Let psi = phi/2pi and c_i = 1 - frac(f*t_i), the phase at which sample i
    wraps. The template is T_m*(frac(f*t_i) + psi), less T_m once psi >= c_i,
    so the residual is a_i - T_m*psi + T_m*[psi >= c_i] with
    a_i = b_i - T_m*frac(f*t_i). Profiling out the range removes the common
    -T_m*psi, so the cost is constant on each segment between consecutive
    sorted c_i, and prefix sums of a give every segment's cost at once.

    Returns (phi at the segment midpoint, segment width in rad, minimum cost),
    each (B,).
    """
    n = b.shape[1]
    c, order, width = _wrap_segments(f[:, None], t)
    a = (b - b.mean(axis=1, keepdims=True))[np.arange(b.shape[0])[:, None, None], order]
    a -= T_m * (1.0 - c)
    A = a.cumsum(axis=2) - a
    P = a.sum(axis=2, keepdims=True)
    Q = (a * a).sum(axis=2, keepdims=True)
    W = np.arange(n, dtype=float)  # j samples have wrapped on segment j
    cost = Q - P * P / n + 2.0 * T_m * (A - P * W / n) + T_m**2 * W * (1.0 - W / n)
    _, phi, phi_width, c_min = _best_segment(cost, c, width)
    return phi, phi_width, c_min


def _wls_rows(t, b, keep, grids, refine, T_m):
    """WLS on rows of b = y - delta0 (B, N) sampled at t (N,), each with its
    boolean inlier mask keep (B, N), as a _Fit. A dropped sample is 0 in the
    frequency search, where it adds nothing to any sum; the phase search,
    where it would bound a segment, and the range take the inliers only."""
    z = np.where(keep, np.exp((2j * math.pi / T_m) * b), 0.0)
    f, f_step = _peak_frequency(z, t, grids, refine)
    if keep.all():  # the rows share their stamps
        phi, phi_width, _ = _wls_search(b, t, f, T_m)
    else:
        phi, phi_width = np.empty((2, b.shape[0]))
        n_used = np.count_nonzero(keep, axis=1)
        for n in np.unique(n_used):
            g = np.flatnonzero(n_used == n)
            kept = keep[g]
            t_in = np.broadcast_to(t, kept.shape)[kept].reshape(g.size, n)
            phi[g], phi_width[g], _ = _wls_search(b[g][kept].reshape(g.size, n), t_in, f[g], T_m)

    r = b - sawtooth_template(t, f[:, None], phi[:, None], T_m)
    rho = 0.5 * SPEED_OF_LIGHT * (np.vecdot(keep, r) / np.count_nonzero(keep, axis=1))
    return _Fit(f, phi, rho, phi_width, f_step)


def wls_estimate(
    series: RttSeries,
    T_m: float,
    delta0: float,
    grids: SearchGrids,
    w: WeightVector | None = None,
    refine: bool = True,
) -> Estimate:
    """0/1-weighted circular frequency, then exact least-squares phase and
    range, over the inliers, at least 2, of the 0/1 mask w (default: all).

    z_i = exp(2j pi (y_i - delta0)/T_m) is exp(j(2pi f_d t_i + theta)) times
    phase noise, so a sample that jitter carries across a wrap costs nothing.
    f_hat is the peak of |sum_i z_i exp(-2j pi f t_i)| over the grid, the
    single-tone ML frequency estimator (one FFT over the grid's bins), refined
    as in PCP. At f_hat the concentrated least-squares cost is flat between
    wraps; its exact minimum over the phase circle gives phi_hat, the
    minimising segment's midpoint, and phi_grid_step, its width: the exact
    phase-range ambiguity there. The range follows in closed form. f_hat is
    not the global minimiser of that cost.
    """
    keep = np.ones((1, len(series)), dtype=bool) if w is None else w.w[None] > 0.0
    return _estimate_record("WLS", series, T_m, delta0, grids, refine, keep=keep)


def _estimate_stack(names, t, Y, T_m, delta0, grids, refine, preprocess, keep=None):
    """{name: (_Fit, (B, N) inlier mask of the fit, ValueError or None)} of
    the estimators `names` on the records Y (B, N) sampled at t: the one
    estimation protocol of the library, the CLI and sweeps. ULS and PCP fit
    all samples of the records preprocess_outliers gives if `preprocess`,
    else of the raw ones. WLS fits the raw records, all in one _wls_rows
    call, with the caller's inlier mask keep (B, N) if given, else with the
    inliers of robust_weights: the stack is screened once, when first
    needed, and its zero-MAD records fall back under one warning. PCP and
    WLS first check the stamps against grids. A ValueError rejects every
    record alike: that estimator's fit comes out NaN and the error is kept.
    The clock is not checked here."""
    @functools.cache
    def screen():  # raises below 3 samples
        return _outlier_mask(Y)

    @functools.cache
    def replaced():
        mask, _, med = screen()
        return _replace_outliers(Y, mask, med)

    out = {}
    for name in names:
        kept = np.ones(Y.shape, dtype=bool) if name != "WLS" or keep is None else keep
        try:
            if name != "ULS":
                grids.check_sampling(t)
            if name == "WLS":
                if keep is None:
                    mask, zero, _ = screen()
                    _warn_uniform(zero)
                    kept = ~mask
                fit = _wls_rows(t, Y - delta0, kept, grids, refine, T_m)
            else:
                data = replaced() if preprocess else Y
                fit = (_uls_rows(t, data, T_m, delta0) if name == "ULS"
                       else _pcp_rows(t, data, T_m, delta0, grids, refine))
            out[name] = fit, kept, None
        except ValueError as exc:
            out[name] = _Fit(*np.full((3, Y.shape[0]), math.nan)), kept, exc
    return out


def _estimate_record(name, series, T_m, delta0, grids=None, refine=True, preprocess=False,
                     keep=None):
    """The Estimate of `name` on one record: the clock checked, then WLS's
    mask keep (1, N), if given, for at least 2 kept samples, then the record
    run as a one-row _estimate_stack, whose ValueError is raised. A row with
    no phase segment has no grid steps."""
    _check_clock(T_m, delta0)
    if keep is not None:
        if keep.size != len(series):
            raise ValueError("weight length mismatch")
        if np.count_nonzero(keep) < 2:
            raise ValueError("need at least 2 kept samples")
    fit, keep, error = _estimate_stack([name], series.times, series.values[None], T_m, delta0,
                                       grids, refine, preprocess, keep)[name]
    if error is not None:
        raise error
    width = math.nan if fit.width is None else fit.width.item()
    steps = (None, None) if math.isnan(width) else (fit.f_step, width)
    return Estimate(fit.f.item(), fit.phi.item(), fit.rho.item(), name, WeightVector(keep[0]),
                    *steps)
