"""Forward measurement model for two-way RTT sampling of a remote clock.

The round-trip time seen at the master is a sawtooth riding on a constant
offset: a periodic sub-cycle remainder (set by the relative clock frequency
difference and phase) plus the clocked slave delay and the two-way flight
time. This module generates that waveform, optionally with clock jitter and
channel noise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, fixed

TWO_PI = 2.0 * math.pi

# |f_d|/f_m above this voids the small-frequency-difference approximation
# used for the clocked delay; we warn but do not forbid.
_FD_RATIO_WARN = 1e-3

# The longest master period the package takes: a clock slower than 1 Hz.
# Near 1e300 s, WLS overflowed in T_m**2 and ULS and PCP gave ranges near
# -1e308 m.
_T_M_MAX = 1.0


def _require_finite(what: str, *xs: float) -> None:
    if not all(math.isfinite(x) for x in xs):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class ClockTruth:
    """Ground-truth clock pair parameters.

    f_m : master clock frequency, Hz, at least 1 Hz (T_m at most _T_M_MAX).
    f_d : frequency difference master minus slave, Hz (signed).
    phi : relative clock offset, radians in [0, 2pi).
    """

    f_m: float
    f_d: float
    phi: float = 0.0

    def __post_init__(self):
        _require_finite("clock parameters", self.f_m, self.f_d, self.phi)
        if not self.f_m > 0.0:
            raise ValueError("f_m must be positive")
        if not self.T_m <= _T_M_MAX:
            raise ValueError(f"f_m must be at least {1.0 / _T_M_MAX:g} Hz")
        if abs(self.f_d) >= self.f_m:
            raise ValueError("|f_d| must be below f_m")
        if not 0.0 <= self.phi < TWO_PI:
            raise ValueError("phi must lie in [0, 2pi)")
        if abs(self.f_d) / self.f_m > _FD_RATIO_WARN:
            warnings.warn(
                "|f_d|/f_m = %.3g exceeds 1e-3; the constant-delay "
                "approximation degrades" % (abs(self.f_d) / self.f_m),
                stacklevel=2,
            )

    @property
    def T_m(self) -> float:
        """Master clock period, seconds."""
        return 1.0 / self.f_m


@dataclass(frozen=True)
class LinkTruth:
    """Ground-truth link parameters: range and nominal slave delay."""

    rho: float
    delta0: float

    def __post_init__(self):
        _require_finite("link parameters", self.rho, self.delta0)
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")
        if not self.delta0 > 0.0:
            raise ValueError("delta0 must be positive")

    @property
    def flight_time(self) -> float:
        """Two-way propagation time 2*rho/c, seconds."""
        return 2.0 * self.rho / SPEED_OF_LIGHT


@dataclass(frozen=True)
class SampleSchedule:
    """Uniform measurement schedule t_i = t0 + i*Ts for i = 0..N-1, whose
    float stamps stay distinct (at t0 = 1e12 s, a 1 us step rounds away)."""

    t0: float
    Ts: float
    N: int

    def __post_init__(self):
        _require_finite("schedule times", self.t0, self.Ts)
        if not self.Ts > 0.0:
            raise ValueError("Ts must be positive")
        if not float(self.N).is_integer():
            raise ValueError(f"N must be an integer, not {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if not np.all(np.diff(self.times()) > 0.0):
            raise ValueError("times must be strictly increasing")

    def times(self) -> np.ndarray:
        return self.t0 + self.Ts * np.arange(self.N)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise levels: clock jitter (radians) and channel noise (seconds).

    Both are zero-mean Gaussian. Levels may equivalently be given as
    SNR values, see :meth:`from_snr`.
    """

    sigma_v: float = 0.0
    sigma_n: float = 0.0

    def __post_init__(self):
        _require_finite("noise standard deviations", self.sigma_v, self.sigma_n)
        if self.sigma_v < 0.0 or self.sigma_n < 0.0:
            raise ValueError("noise standard deviations must be nonnegative")

    @classmethod
    def from_snr(cls, snr_c_db: float, snr_j_db: float, T_m: float) -> "NoiseSpec":
        """Noise levels from the channel and jitter SNRs in dB, SNR_c =
        10*log10(T_m^2 / sigma_n^2) and SNR_j = 10*log10((2pi)^2 / sigma_v^2).
        A NaN SNR, or one so low that its sigma overflows (from about -6150
        dB down, -inf too), is refused with a ValueError that names it."""
        sigmas = []
        for name, snr, scale in (("snr_c_db", snr_c_db, T_m), ("snr_j_db", snr_j_db, TWO_PI)):
            if math.isnan(snr):
                raise ValueError(f"{name} must be a number of dB, not nan")
            try:
                sigma = scale * 10.0 ** (-snr / 20.0)
            except OverflowError:
                sigma = math.inf
            if sigma == math.inf:
                raise ValueError(f"{name} of {snr:g} dB is too low: its sigma overflows")
            sigmas.append(sigma)
        sigma_n, sigma_v = sigmas
        return cls(sigma_v=sigma_v, sigma_n=sigma_n)


@dataclass(frozen=True)
class RttSeries:
    """Paired sample times and RTT values, both in seconds."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be 1-D")
        if times.shape != values.shape:
            raise ValueError("times and values must have equal length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("times and values must be finite")
        if times.size and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size

    def with_values(self, values: np.ndarray) -> "RttSeries":
        return RttSeries(self.times, values)


def sawtooth_template(t, f_d: float, phi: float, T_m: float, v=0.0):
    """Sawtooth remainder (T_m/2pi) * mod_2pi(2pi*f_d*t + phi + v), seconds.

    The waveform has period 1/|f_d| and amplitude T_m. Accepts scalars or
    arrays for t and for the clock jitter v.
    """
    arg = TWO_PI * f_d * np.asarray(t, dtype=float) + phi + np.asarray(v)
    return (T_m / TWO_PI) * np.mod(arg, TWO_PI)


def _check_flight_time(link: LinkTruth, Ts: float) -> None:
    if link.flight_time >= Ts:
        raise ValueError("two-way flight time must be below the update period")


def _generate_rows(t, f_d, phi, T_m: float, link: LinkTruth, noises, seeds) -> np.ndarray:
    """RTT records (B, N) at stamps t (N,), each sample the sawtooth
    remainder + delta0 + 2*rho/c + channel noise: row b samples a clock pair
    with frequency difference f_d[b] and phase phi[b] under noises[b],
    drawing its jitter, then its channel noise, from seeds[b], each only
    when its sigma is nonzero."""
    B, N = len(noises), t.size
    v, n = np.zeros((B, N)), np.zeros((B, N))
    for b, (noise, seed) in enumerate(zip(noises, seeds)):
        rng = np.random.default_rng(seed)
        if noise.sigma_v:
            v[b] = rng.normal(0.0, noise.sigma_v, N)
        if noise.sigma_n:
            n[b] = rng.normal(0.0, noise.sigma_n, N)
    # zero draws add nothing
    h = sawtooth_template(t, np.asarray(f_d)[:, None], np.asarray(phi)[:, None], T_m, v)
    return h + link.delta0 + link.flight_time + n


def generate_series(
    schedule: SampleSchedule,
    clock: ClockTruth,
    link: LinkTruth,
    noise: NoiseSpec = NoiseSpec(),
    seed=None,
) -> RttSeries:
    """Generate an RTT series over the schedule; deterministic for fixed seed."""
    _check_flight_time(link, schedule.Ts)
    t = schedule.times()
    y = _generate_rows(t, [clock.f_d], [clock.phi], clock.T_m, link, [noise], [seed])
    return RttSeries(t, y[0])
