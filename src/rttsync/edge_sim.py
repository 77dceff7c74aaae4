"""Edge-level discrete-event simulation of the PING/RESPOND exchange.

Independent first-principles oracle for the sawtooth model: both nodes run
free oscillators, the master emits on a clock edge, the slave counts a fixed
number of its own cycles from the next edge after arrival, and the master
times the full round trip. All events are computed in closed form from edge
indices; there is no time-stepping and no accumulation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SPEED_OF_LIGHT, TWO_PI, ClockTruth, RttSeries, SampleSchedule


@dataclass(frozen=True)
class Oscillator:
    """Free-running oscillator with nominal frequency f0, skew alpha and
    initial phase varphi (seconds). Edges occur at t_k = varphi + k*alpha/f0,
    i.e. the actual frequency is f0/alpha."""

    f0: float
    alpha: float = 1.0
    varphi: float = 0.0

    def __post_init__(self):
        if not self.f0 > 0.0:
            raise ValueError("f0 must be positive")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.varphi < self.alpha / self.f0:
            raise ValueError("varphi must lie in [0, one period)")

    @property
    def frequency(self) -> float:
        """Actual oscillation frequency, Hz."""
        return self.f0 / self.alpha

    @property
    def period(self) -> float:
        """Actual period between edges, seconds."""
        return self.alpha / self.f0

    @classmethod
    def from_frequency(cls, f0: float, f: float, varphi: float = 0.0) -> "Oscillator":
        """Oscillator with nominal f0 but actual frequency f > 0."""
        if not f > 0.0:
            raise ValueError("f must be positive")
        return cls(f0=f0, alpha=f0 / f, varphi=varphi)


@dataclass(frozen=True)
class ExchangeConfig:
    """Exchange parameters: slave delay in whole slave cycles and range.

    tdc_resolution, when set, quantizes the measured RTT to that grid
    (ideal TDC when None).
    """

    K: int
    rho: float
    tdc_resolution: float | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")


def _next_edge(osc: Oscillator, t):
    """Smallest edge time >= t. Accepts scalars or arrays."""
    f = osc.frequency
    k = np.ceil((np.asarray(t, dtype=float) - osc.varphi) * f)
    return osc.varphi + k / f


def simulate_campaign(
    master: Oscillator,
    slave: Oscillator,
    cfg: ExchangeConfig,
    schedule: SampleSchedule,
) -> RttSeries:
    """One exchange per scheduled epoch; times are the actual PING emissions."""
    flight = cfg.rho / SPEED_OF_LIGHT
    t_tx = _next_edge(master, schedule.times())  # PING snaps to a master edge
    t_arrival = t_tx + flight
    t_count_start = _next_edge(slave, t_arrival)
    t_rx = t_count_start + cfg.K * slave.period + flight
    rtt = t_rx - t_tx
    if cfg.tdc_resolution is not None:
        rtt = np.round(rtt / cfg.tdc_resolution) * cfg.tdc_resolution
    return RttSeries(t_tx, rtt)


def equivalent_clock_truth(master: Oscillator, slave: Oscillator, rho: float) -> ClockTruth:
    """Sawtooth-model clock parameters matching an oscillator pair.

    The model phase folds the slave and master initial phases and the one-way
    flight into a single offset: phi = 2pi * frac(f_s*varphi_s - f_m*varphi_m
    - f_s*rho/c), valid at master-edge emission times.
    """
    f_m = master.frequency
    f_s = slave.frequency
    cycles = f_s * slave.varphi - f_m * master.varphi - f_s * rho / SPEED_OF_LIGHT
    phi = TWO_PI * (cycles - math.floor(cycles))
    if phi >= TWO_PI:  # guard the frac rounding up to a full turn
        phi = 0.0
    return ClockTruth(f_m=f_m, f_d=f_m - f_s, phi=phi)
