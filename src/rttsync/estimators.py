"""Joint estimators of (frequency difference, phase offset, range) from an
RTT series: unwrapped least squares (ULS), periodogram + correlation peaks
(PCP), and robust weighted least squares (WLS), plus the median/nMAD outlier
weighting and pre-processing filter they rely on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import SPEED_OF_LIGHT, TWO_PI, RttSeries, sawtooth_template

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
    outlier; at least one sample must be kept."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1:
            raise ValueError("weights must be 1-D")
        if not np.all((w == 0.0) | (w == 1.0)):
            raise ValueError("weights must be 0 or 1")
        if not np.any(w > 0.0):
            raise ValueError("all weights are zero")

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls(np.ones(n))

    @property
    def n_used(self) -> int:
        return int(np.count_nonzero(self.w))

    @property
    def n_downweighted(self) -> int:
        return self.w.size - self.n_used


@dataclass(frozen=True)
class SearchGrids:
    """Frequency grid of the search estimators, F = k/(n_fft*Ts) for |k| <= n:
    the bins of a length-n_fft FFT up to the last at or below f_max, for
    records sampled every Ts."""

    n_fft: int
    f_max: float
    Ts: float
    F: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.Ts) and self.Ts > 0.0):
            raise ValueError("Ts must be positive and finite")
        if not self.f_max <= 1.0 / (2.0 * self.Ts):
            raise ValueError("f_max exceeds the schedule's Nyquist frequency")
        if not (isinstance(self.n_fft, (int, np.integer)) and self.n_fft > 0):
            raise ValueError("n_fft must be a positive integer")
        df = 1.0 / (self.n_fft * self.Ts)
        if not self.f_max >= df:
            raise ValueError("f_max is below one grid step")
        n_half = math.floor(self.f_max / df + 1e-9)  # the slack keeps f_max = n*df on the grid
        object.__setattr__(self, "F", df * np.arange(-n_half, n_half + 1))

    @property
    def f_step(self) -> float:
        return float(self.F[1] - self.F[0])

    @classmethod
    def for_schedule(cls, N: int, Ts: float, f_max: float | None = None) -> "SearchGrids":
        """Default grid: frequency spacing a quarter of the Fourier
        resolution 1/(N*Ts), f_max at the Nyquist rate of the schedule."""
        return cls(4 * N, 1.0 / (2.0 * Ts) if f_max is None else f_max, Ts)

    def check_sampling(self, t: np.ndarray) -> None:
        """Reject times sampled more coarsely than Ts, beyond the CLI's 1e-3
        slack: f_max would pass their Nyquist rate and could pick an alias."""
        if t.size > 1 and np.min(np.diff(t)) > (1.0 + 1e-3) * self.Ts:
            raise ValueError("record is sampled more coarsely than the grid's Ts")


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

    def to_record(self) -> dict:
        w = self.weights
        return {
            "method": self.method,
            "f_d_hat_hz": self.f_d_hat,
            "phi_hat_rad": self.phi_hat,
            "rho_hat_m": self.rho_hat,
            "n_used": w.n_used if w is not None else 0,
            "n_downweighted": w.n_downweighted if w is not None else 0,
        }


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


def robust_weights(series: RttSeries) -> WeightVector:
    """0/1 weights: zero where the sample deviates from the median by more
    than three normalized MADs.

    Falls back to uniform weights (with a warning) when the MAD collapses to
    zero while deviations remain, e.g. a majority of identical samples.
    """
    mask, degenerate, _ = _outlier_mask(series.values[None])
    if degenerate[0]:
        warnings.warn("zero MAD with nonzero deviations; using uniform weights")
        return WeightVector.uniform(len(series))
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
    d = np.diff(z)
    d_wrapped = math.pi - np.mod(math.pi - d, TWO_PI)
    out = np.empty_like(z)
    out[..., 0] = z[..., 0]
    out[..., 1:] = z[..., :1] + np.cumsum(d_wrapped, axis=-1)
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
    h = sawtooth_template(series.times, estimate.f_d_hat, estimate.phi_hat, T_m)
    return series.values - h - delta0 - 2.0 * estimate.rho_hat / SPEED_OF_LIGHT


def _uls_rows(t, y, T_m, delta0):
    """(f_d, phi, rho) of ULS for each row of y (B, N) sampled at t."""
    if y.shape[1] < 2:
        raise ValueError("need at least 2 samples")
    y_bar = np.mean(y, axis=1, keepdims=True)
    rho = 0.5 * SPEED_OF_LIGHT * (y_bar[:, 0] - 0.5 * T_m - delta0)
    u = unwrap((TWO_PI / T_m) * (y - y_bar))
    # one fit per row: a stacked polyfit rounds differently
    slope, intercept = np.array([np.polyfit(t, row, 1) for row in u]).T
    # centering by y_bar removed the sawtooth mean (~pi); add it back
    return slope / TWO_PI, wrap_to_2pi(intercept + math.pi), rho


def uls_estimate(series: RttSeries, T_m: float, delta0: float) -> Estimate:
    """Three-step unwrapped least squares.

    Range comes from the sample mean assuming the sawtooth averages to
    T_m/2; frequency and phase come from a line fit to the unwrapped,
    mean-centered phase. The T_m/2 assumption biases the range by up to
    c*T_m/4 on short or degenerate (constant) records.
    """
    (f_d_hat,), (phi_hat,), (rho_hat,) = _uls_rows(
        series.times, series.values[None], T_m, delta0)
    return Estimate(
        f_d_hat=float(f_d_hat),
        phi_hat=float(phi_hat),
        rho_hat=float(rho_hat),
        method="ULS",
        weights=WeightVector.uniform(len(series)),
    )


def _periodogram(y, t, f0, df, K):
    """|sum_i y_i exp(-2j pi (f0 + k*df) t_i)|^2 for k = 0..K-1 and each row
    of y (B, N), with its own f0 (B,), by direct summation on the exact
    stamps t (N,) or (B, N): the refinement kernel. Row 0 of each (K, N)
    phasor matrix is an exact exp at f0 and row k is row k-1 times
    w = exp(-2j pi df t), so the K rows cost two exp rows. Refinement asks
    for _REFINE_POINTS rows, few enough that the rounding of the recurrence
    stays near machine precision."""
    rows = np.empty((K,) + y.shape, dtype=complex)
    np.exp((-2j * math.pi * f0[:, None]) * t, out=rows[0])
    w = np.exp((-2j * math.pi * df) * t)
    # the product steps fastest when w has the rows' shape, not broadcast
    w = w.reshape(y.shape) if w.size == y.size else np.tile(w, (y.shape[0], 1))
    for k in range(1, K):
        np.multiply(rows[k - 1], w, out=rows[k])
    return np.abs(np.matmul(rows.transpose(1, 0, 2), y[:, :, None])[:, :, 0]) ** 2


def _fft_periodogram(y, t, grids, positive=False):
    """Periodogram of each row of y (B, N) over grids.F (its positive half if
    `positive`) from one FFT of length L = n_fft per row, sample i placed at
    m_i = rint((t_i - t_0)/Ts) mod L for stamps t (N,) or (B, N). Each grid
    f is a bin k/(L*Ts), so the sum is exp(-2j pi f t_0) times bin k mod L:
    exact on the Ts lattice however long the record; stamps off it are
    rounded (the refinement sums over the exact ones), and samples that
    round or fold into one bin add up there."""
    B, L = y.shape[0], grids.n_fft
    m = np.rint((t - t[..., :1]) / grids.Ts).astype(np.intp) % L
    x = np.zeros((B, L), dtype=y.dtype)
    np.add.at(x.reshape(-1), (L * np.arange(B)[:, None] + m).reshape(-1), y.reshape(-1))
    n_half = grids.F.size // 2
    k = np.arange(1 if positive else -n_half, n_half + 1)
    return np.abs(np.fft.fft(x, axis=1)[:, k % L]) ** 2


def _peak_frequency(y, t, grids, refine, positive=False):
    """Frequency of the periodogram peak of each row of y (B, N) over grids.F
    (its positive half if `positive`) from the FFT, ties to the lowest index
    and clipped to |f| <= f_max, and with refine=True two local searches of
    _REFINE_POINTS frequencies that each shrink the step tenfold around it,
    kept within 0 < f <= f_max (|f| <= f_max if not `positive`). Returns
    (f (B,), final frequency step)."""
    F = grids.F[grids.F > 0.0] if positive else grids.F
    f = F[np.argmax(_fft_periodogram(y, t, grids, positive), axis=1)]
    # the grid edge n*df can round one ulp past f_max
    f, f_step = np.minimum(np.maximum(f, -grids.f_max), grids.f_max), grids.f_step
    if refine:
        rows = np.arange(y.shape[0])
        for _ in range(_REFINE_LEVELS):
            local = f[:, None] + np.linspace(-f_step, f_step, _REFINE_POINTS)
            f_step /= _REFINE_FACTOR
            power = _periodogram(y, t, local[:, 0], f_step, _REFINE_POINTS)
            drop = np.abs(local) > grids.f_max
            if positive:
                drop |= local <= 0.0
            power[drop] = -math.inf
            f = local[rows, np.argmax(power, axis=1)]
    return f, f_step


def _pcp_center(y):
    """Rows of y (B, N) less their means, and per row whether it is constant
    to rounding, so carries no frequency information."""
    if y.shape[1] < 4:
        raise ValueError("need at least 4 samples")
    y0 = y - np.mean(y, axis=1, keepdims=True)
    scale = 1e-15 * np.maximum(1.0, np.abs(y).max(axis=1, keepdims=True))
    return y0, ~np.any(np.abs(y0) > scale, axis=1)


def _pcp_rows(t, y, y0, T_m, delta0, grids, refine):
    """PCP on rows of y (B, N) that are not constant, with their centered
    rows y0. Returns (f_d, phi, rho, phi segment width) per row and the
    final frequency step."""
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
    return f_d, phi, rho, phi_width, f_step


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
    constant.
    """
    y = series.values[None]
    y0, flat = _pcp_center(y)
    t = series.times
    grids.check_sampling(t)
    if flat[0]:
        # constant series carries no frequency information
        rho_hat = 0.5 * SPEED_OF_LIGHT * float(np.mean(series.values - delta0))
        return Estimate(0.0, 0.0, rho_hat, "PCP", WeightVector.uniform(len(series)))
    (f_d_hat,), (phi_hat,), (rho_hat,), (phi_width,), f_step = _pcp_rows(
        t, y, y0, T_m, delta0, grids, refine)
    return Estimate(
        f_d_hat=float(f_d_hat),
        phi_hat=float(phi_hat),
        rho_hat=float(rho_hat),
        method="PCP",
        weights=WeightVector.uniform(len(series)),
        f_grid_step=f_step,
        phi_grid_step=float(phi_width),
    )


def wls_cost(
    f_d: float,
    phi: float,
    series: RttSeries,
    T_m: float,
    delta0: float,
    w: WeightVector,
) -> float:
    """Concentrated weighted squared-error cost with the range profiled out."""
    r = series.values - sawtooth_template(series.times, f_d, phi, T_m) - delta0
    wv = w.w
    s = float(np.sum(wv))
    return float(np.sum(wv * r * r) - np.dot(wv, r) ** 2 / s)


def _wrap_segments(F, t):
    """Per row b and frequency F[b, r], the sorted wrap phases
    c_i = 1 - frac(F[b, r]*t_i) in cycles of stamps t (N,) or (B, N), their
    sort order and each segment's width, all (B, R, N): column j is the
    segment [c[j-1], c[j]), on which the j samples sorted before it have
    wrapped; column 0 runs round from c[-1] - 1."""
    raw = F[:, :, None] * t[..., None, :]
    raw = 1.0 - (raw - np.floor(raw))
    order = raw.argsort(axis=2)
    c = np.sort(raw, axis=2)  # raw in that order: tied phases are equal
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


def _wls_rows(t, b, w, grids, refine, T_m):
    """WLS on rows of b = y - delta0 (B, N) sampled at t (N,), each with its
    0/1 mask w (B, N); every row must keep the same number of samples.
    Returns (f_d, phi, rho, phi segment width) per row and the final
    frequency step."""
    keep = w > 0.0  # dropped samples neither score nor bound a segment
    if keep.all():
        t_in, b_in = t, b  # the rows share their stamps
    else:
        inliers = (b.shape[0], -1)
        t_in = np.broadcast_to(t, b.shape)[keep].reshape(inliers)
        b_in = b[keep].reshape(inliers)
    z = np.exp((2j * math.pi / T_m) * b_in)
    f, f_step = _peak_frequency(z, t_in, grids, refine)
    phi, phi_width, _ = _wls_search(b_in, t_in, f, T_m)

    r = b - sawtooth_template(t, f[:, None], phi[:, None], T_m)
    rho = 0.5 * SPEED_OF_LIGHT * (np.vecdot(w, r) / w.sum(axis=1))
    return f, phi, rho, phi_width, f_step


def wls_estimate(
    series: RttSeries,
    T_m: float,
    delta0: float,
    grids: SearchGrids,
    w: WeightVector | None = None,
    refine: bool = True,
) -> Estimate:
    """0/1-weighted circular frequency, then exact least-squares phase and
    range, over the inliers of the 0/1 mask w (default: every sample).

    z_i = exp(2j pi (y_i - delta0)/T_m) is exp(j(2pi f_d t_i + theta)) times
    phase noise, so a sample that jitter carries across a wrap costs nothing.
    f_hat is the peak of |sum_i z_i exp(-2j pi f t_i)| over the grid, the
    single-tone ML frequency estimator (one FFT over the grid's bins), refined
    as in PCP. At f_hat the concentrated least-squares cost is flat between
    wraps; its exact minimum over the phase circle gives phi_hat, the
    minimising segment's midpoint, and phi_grid_step, its width: the exact
    phase-range ambiguity there. The range follows in closed form. f_hat is
    not the global minimiser of that cost (see wls_cost).
    """
    if w is None:
        w = WeightVector.uniform(len(series))
    if w.w.size != len(series):
        raise ValueError("weight length mismatch")
    t = series.times
    grids.check_sampling(t)
    b = series.values - delta0
    (f_hat,), (phi_hat,), (rho_hat,), (phi_width,), f_step = _wls_rows(
        t, b[None], w.w[None], grids, refine, T_m)
    return Estimate(
        f_d_hat=float(f_hat),
        phi_hat=float(phi_hat),
        rho_hat=float(rho_hat),
        method="WLS",
        weights=w,
        f_grid_step=f_step,
        phi_grid_step=float(phi_width),
    )
