"""Monte Carlo evaluation harness: repeated randomized trials with RMSE and
percentile reporting per estimator, swept over noise levels, record length,
outlier fraction, or the true frequency difference."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import estimators
from .estimators import SearchGrids, wrap_to_pm_pi
from .model import (
    TWO_PI,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    SampleSchedule,
    _check_flight_time,
    _generate_rows,
    snr_to_sigma,
)

SWEEP_AXES = ("none", "snr_c", "snr_j", "N", "outlier_fraction", "f_d")

ESTIMATORS = ("ULS", "PCP", "WLS")

# The report's error parameters and the statistics of each, in column order
_PARAMS = ("fd_hz", "phi_s", "rho_m")
_STATS = ("rmse", "p25", "p50", "p75", "min", "max")
_STAT_KEYS = [f"{stat}_{param}" for param in _PARAMS for stat in _STATS]


@dataclass(frozen=True)
class OutlierSpec:
    """Replace a fraction of samples with uniform draws from [lo, hi] seconds,
    both finite, at uniformly random positions."""

    fraction: float
    lo: float = 3.5e-6
    hi: float = 4.9e-6

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("lo and hi must be finite")
        if not self.lo < self.hi:
            raise ValueError("lo must be below hi")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.

    preprocess controls whether ULS and PCP see outlier-filtered data; WLS
    always receives the raw record plus robust weights.
    """

    clock: ClockTruth
    link: LinkTruth
    schedule: SampleSchedule
    noise: NoiseSpec
    outliers: OutlierSpec | None = None
    M: int = 1000
    seed: int = 0
    estimators: tuple = ESTIMATORS
    sweep_axis: str = "none"
    sweep_values: tuple = (0.0,)
    preprocess: bool = True
    refine: bool = True
    # (clock, schedule, noise, outliers) of each sweep value
    points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
        values = tuple(float(v) for v in self.sweep_values)
        if not values or not all(math.isfinite(v) for v in values):
            raise ValueError("sweep values must be one or more finite numbers")
        if list(values) != sorted(values):
            raise ValueError("sweep values must be sorted")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        if not self.estimators or len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimators must be one or more, each named once")
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "points", tuple(_apply_sweep(self, v) for v in values))


@dataclass
class SweepReport:
    """Tidy per-(sweep value, estimator) RMSE and percentile summary rows."""

    sweep_axis: str
    rows: list

    COLUMNS = (["sweep_axis", "sweep_value", "estimator", "n_trials", "n_failed"]
               + [f"rmse_{param}" for param in _PARAMS]
               + [key for key in _STAT_KEYS if not key.startswith("rmse_")])

    def row(self, sweep_value: float, estimator: str) -> dict:
        for r in self.rows:
            if r["estimator"] == estimator and r["sweep_value"] == sweep_value:
                return r
        raise KeyError((sweep_value, estimator))


def _outlier_draws(n: int, spec: OutlierSpec, seed):
    """Sorted positions of round(fraction*n) outliers among n samples, and
    their values."""
    count = int(round(spec.fraction * n))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=count, replace=False))
    return idx, rng.uniform(spec.lo, spec.hi, size=count)


def _apply_sweep(cfg: ExperimentConfig, value: float):
    """Clock/schedule/noise/outliers for one sweep point; raises ValueError
    for a value the point cannot take."""
    clock, schedule, noise, outliers = cfg.clock, cfg.schedule, cfg.noise, cfg.outliers
    axis = cfg.sweep_axis
    if axis == "snr_c":
        sigma_n, _ = snr_to_sigma(value, 0.0, clock.T_m)
        noise = dataclasses.replace(noise, sigma_n=sigma_n)
    elif axis == "snr_j":
        _, sigma_v = snr_to_sigma(0.0, value, clock.T_m)
        noise = dataclasses.replace(noise, sigma_v=sigma_v)
    elif axis == "N":
        schedule = dataclasses.replace(schedule, N=value)
    elif axis == "outlier_fraction":
        base = outliers if outliers is not None else OutlierSpec(fraction=0.0)
        outliers = dataclasses.replace(base, fraction=value)
    elif axis == "f_d":
        clock = dataclasses.replace(clock, f_d=value)
    _check_flight_time(cfg.link, schedule.Ts)
    return clock, schedule, noise, outliers


def _child(trial_seed, i: int) -> np.random.SeedSequence:
    """SeedSequence(trial_seed).spawn(3)[i], built directly."""
    return np.random.SeedSequence(trial_seed, spawn_key=(i,))


def _run_stack(cfg: ExperimentConfig, schedule: SampleSchedule, grids: SearchGrids,
               points: list, trial_seeds: list) -> dict:
    """Trials that share one schedule, as one (B, N) stack: trial b runs at
    sweep point points[b] with seed trial_seeds[b]. Returns, per estimator,
    the (B, 3) signed errors (f_d in Hz, phase in radians, range in m), NaN
    where the estimator rejected the record."""
    t = schedule.times()
    f_d = np.array([clock.f_d for clock, _, _, _ in points])
    phi = np.array([np.random.default_rng(_child(seed, 0)).uniform(0.0, TWO_PI)
                    for seed in trial_seeds])
    link = cfg.link
    Y = _generate_rows(t, f_d, phi, cfg.clock.T_m, link,
                       [noise for _, _, noise, _ in points],
                       [_child(seed, 1) for seed in trial_seeds])
    for b, ((_, _, _, outliers), seed) in enumerate(zip(points, trial_seeds)):
        if outliers is not None and outliers.fraction > 0.0:
            idx, drawn = _outlier_draws(schedule.N, outliers, _child(seed, 2))
            Y[b, idx] = drawn

    estimates = estimators._estimate_stack(cfg.estimators, t, Y, cfg.clock.T_m, link.delta0,
                                           grids, cfg.refine, cfg.preprocess)
    # a rejected record's NaN passes through each difference and the wrap
    return {name: np.stack([fit.f - f_d, wrap_to_pm_pi(phi - fit.phi), fit.rho - link.rho],
                           axis=1)
            for name, (fit, _, _) in estimates.items()}


def _quartiles(s: np.ndarray) -> np.ndarray:
    """(..., 3) 25th, 50th and 75th percentiles along the last axis of the
    sorted block s (..., n), with the bits of np.percentile's linear method:
    the virtual index v = (n-1)*q, and between the samples a and b at its
    floor and ceiling, a + (b-a)*g below g = frac(v) = 0.5 and b - (b-a)*(1-g)
    from it. Finite samples only, and only a -0.0 sample can give a zero of
    the other sign (numpy's partition may order mixed zeros otherwise than
    the sort). The f_d and range errors, estimate - truth, are -0.0 only for
    an estimate of -0.0 at a truth of +0.0, which is not checked; the phase
    error, truth - estimate wrapped as pi - mod(pi - x, 2pi), never is, as a
    difference of equal nonzero floats is +0.0."""
    n = s.shape[-1]
    v = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    lo = [math.floor(x) for x in v]
    hi = [min(i + 1, n - 1) for i in lo]
    a, b, g = s[..., lo], s[..., hi], np.array([x - i for x, i in zip(v, lo)])
    d = b - a
    return np.where(g < 0.5, a + d * g, b - d * (1.0 - g))


def _report_rows(cfg: ExperimentConfig, values: list, errors: dict) -> list:
    """Report rows, point-major then estimator, of the P sweep points
    `values` from each estimator's (P*M, 3) trial errors, NaN where it
    rejected the record: RMSE, quartiles and extremes over the trials each
    (point, estimator) kept. Rows that kept the same number n of trials are
    summarised as one contiguous (R, 3, n) block with one sort."""
    P, M, E = len(values), cfg.M, len(cfg.estimators)
    stack = np.stack([errors[name].reshape(P, M, 3) for name in cfg.estimators], axis=1)
    stack = stack.reshape(P * E, M, 3)
    stack[:, :, 1] = stack[:, :, 1] * cfg.clock.T_m / TWO_PI
    kept = ~np.isnan(stack[:, :, 0])
    n_kept = np.count_nonzero(kept, axis=1).tolist()
    stats = np.full((P * E, 3, len(_STATS)), math.nan)
    for n in set(n_kept) - {0}:
        rows = [r for r, k in enumerate(n_kept) if k == n]
        block = np.ascontiguousarray(
            stack[rows][kept[rows]].reshape(len(rows), n, 3).transpose(0, 2, 1))
        s = np.sort(block, axis=-1)
        stats[rows] = np.concatenate(
            [np.sqrt(np.mean(block**2, axis=-1, keepdims=True)), _quartiles(s), s[..., [0, -1]]],
            axis=-1)
    out = []
    for r, flat in enumerate(stats.reshape(P * E, -1).tolist()):
        row = {
            "sweep_axis": cfg.sweep_axis,
            "sweep_value": values[r // E],
            "estimator": cfg.estimators[r % E],
            "n_trials": M,
            "n_failed": M - n_kept[r],
        }
        row.update(zip(_STAT_KEYS, flat if n_kept[r] else [math.nan] * len(_STAT_KEYS)))
        out.append(row)
    return out


# Trials per stack are capped at this many samples in all, which bounds the
# (B, 4N) complex FFT input and output of a stack's frequency search at 2 MB each.
_STACK_SAMPLES = 1 << 15


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """M trials per sweep value; per-trial seeds derive from (master seed,
    sweep index, iteration index) so runs are reproducible and trials
    order-independent. Each trial draws its phase truth uniformly from
    [0, 2pi).

    The trials of all sweep points that share a schedule (every point, off
    the N axis) run as (B, N) stacks: generation with each trial's own
    draws, then estimators._estimate_stack, which screens the stack once and
    runs the estimators' row kernels on it. Every row takes the same
    kernels, so the report is the same, to the bit, as running each trial
    alone through generate_series and the public one-record estimators. A
    record an estimator rejects (ValueError) counts as a failed trial of
    it; any other error propagates.

    The report of those points is one stacked summary (_report_rows): the
    (point, estimator) rows that kept the same number of trials share one
    sort, from which come the extremes and the quartiles, with the bits of
    np.percentile, and one RMSE reduction.
    """
    rows = []
    for schedule, group in itertools.groupby(enumerate(cfg.points), key=lambda p: p[1][1]):
        group = list(group)
        grids = SearchGrids(schedule.N, schedule.Ts)
        trials = [(idx, point, it) for idx, point in group for it in range(cfg.M)]
        size = max(1, _STACK_SAMPLES // schedule.N)
        stacks = [
            _run_stack(cfg, schedule, grids, [point for _, point, _ in chunk],
                       [(cfg.seed, idx, it) for idx, _, it in chunk])
            for chunk in (trials[i:i + size] for i in range(0, len(trials), size))
        ]
        errors = {name: np.concatenate([s[name] for s in stacks]) for name in cfg.estimators}
        rows += _report_rows(cfg, [cfg.sweep_values[idx] for idx, _ in group], errors)
    return SweepReport(sweep_axis=cfg.sweep_axis, rows=rows)
