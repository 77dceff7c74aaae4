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
from .estimators import (
    SearchGrids,
    pcp_estimate,
    preprocess_outliers,
    robust_weights,
    uls_estimate,
    wls_estimate,
    wrap_to_pm_pi,
)
from .model import (
    TWO_PI,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    RttSeries,
    SampleSchedule,
    _check_flight_time,
    _generate_rows,
    snr_to_sigma,
)

SWEEP_AXES = ("none", "snr_c", "snr_j", "N", "outlier_fraction", "f_d")

ESTIMATORS = ("ULS", "PCP", "WLS")


@dataclass(frozen=True)
class OutlierSpec:
    """Replace a fraction of samples with uniform draws from [lo, hi] seconds
    at uniformly random positions."""

    fraction: float
    lo: float = 3.5e-6
    hi: float = 4.9e-6

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
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
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
        values = tuple(float(v) for v in self.sweep_values)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("sweep values must be finite")
        if list(values) != sorted(values):
            raise ValueError("sweep values must be sorted")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "points", tuple(_apply_sweep(self, v) for v in values))


@dataclass
class SweepReport:
    """Tidy per-(sweep value, estimator) RMSE and percentile summary rows."""

    sweep_axis: str
    rows: list

    COLUMNS = (
        ["sweep_axis", "sweep_value", "estimator", "n_trials", "n_failed",
         "rmse_fd_hz", "rmse_phi_s", "rmse_rho_m"]
        + [f"{stat}_{p}" for p in ("fd_hz", "phi_s", "rho_m")
           for stat in ("p25", "p50", "p75", "min", "max")]
    )

    def row(self, sweep_value: float, estimator: str) -> dict:
        for r in self.rows:
            if r["estimator"] == estimator and r["sweep_value"] == sweep_value:
                return r
        raise KeyError((sweep_value, estimator))

    def rmse(self, sweep_value: float, estimator: str, param: str) -> float:
        return self.row(sweep_value, estimator)[f"rmse_{param}"]


def _outlier_draws(n: int, spec: OutlierSpec, seed):
    """Sorted positions of round(fraction*n) outliers among n samples, and
    their values."""
    count = int(round(spec.fraction * n))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=count, replace=False))
    return idx, rng.uniform(spec.lo, spec.hi, size=count)


def inject_outliers(series: RttSeries, spec: OutlierSpec, seed):
    """Replace round(fraction*N) samples; returns (series, outlier indices)."""
    idx, drawn = _outlier_draws(len(series), spec, seed)
    values = series.values.copy()
    values[idx] = drawn
    return series.with_values(values), idx


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
        if not float(value).is_integer():
            raise ValueError(f"N sweep value {value!r} is not an integer")
        schedule = dataclasses.replace(schedule, N=int(value))
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


def _estimate_one(cfg: ExperimentConfig, name: str, series: RttSeries, grids: SearchGrids):
    """(f_d, phi, rho) of one estimator on one record through the public
    one-record call, or NaNs when it rejects the record."""
    T_m, delta0 = cfg.clock.T_m, cfg.link.delta0
    try:
        if name == "WLS":
            est = wls_estimate(series, T_m, delta0, grids, robust_weights(series), refine=cfg.refine)
        else:
            data = preprocess_outliers(series) if cfg.preprocess else series
            if name == "ULS":
                est = uls_estimate(data, T_m, delta0)
            else:
                est = pcp_estimate(data, T_m, delta0, grids, refine=cfg.refine)
    except (ValueError, np.linalg.LinAlgError):
        return math.nan, math.nan, math.nan
    return est.f_d_hat, est.phi_hat, est.rho_hat


def _screen(cfg: ExperimentConfig, Y):
    """Outlier screen of the stack Y (B, N), shared by the estimators:
    (outlier mask, per-row flag of a zero MAD with nonzero deviations, the
    records ULS and PCP see), or None when no estimator needs it or the
    records are too short to screen."""
    if "WLS" not in cfg.estimators and not cfg.preprocess:
        return None
    try:
        mask, zero, med = estimators._outlier_mask(Y)
    except ValueError:
        return None
    data = Y
    if cfg.preprocess and {"ULS", "PCP"} & set(cfg.estimators):
        data = estimators._replace_outliers(Y, mask, med)
    return mask, zero, data


def _estimate_stack(cfg: ExperimentConfig, name: str, t, Y, screen, grids: SearchGrids):
    """(B, 3) rows of (f_d, phi, rho) of one estimator over the records Y
    (B, N) sampled at t, with their _screen, NaN where it rejects a record.
    The rows run through the estimator's row kernels as one stack; a
    zero-MAD record (WLS), a constant one (PCP) and every record of a stack
    the kernels reject or that is too short to screen go through the
    one-record call instead."""
    T_m, delta0 = cfg.clock.T_m, cfg.link.delta0
    out = np.full((Y.shape[0], 3), math.nan)
    alone = np.zeros(Y.shape[0], dtype=bool)
    try:
        if screen is None:
            if name == "WLS" or cfg.preprocess:
                raise ValueError("too short to screen")
            data = Y
        else:
            mask, zero, data = screen
        if name == "WLS":
            alone = zero
            w = np.where(mask, 0.0, 1.0)
            n_used = Y.shape[1] - np.count_nonzero(mask, axis=1)
            for n in np.unique(n_used[~alone]):
                rows = np.flatnonzero((n_used == n) & ~alone)
                f, phi, rho, _, _ = estimators._wls_rows(
                    t, Y[rows] - delta0, w[rows], grids, cfg.refine, T_m)
                out[rows] = np.stack([f, phi, rho], axis=1)
        elif name == "ULS":
            out[:] = np.stack(estimators._uls_rows(t, data, T_m, delta0), axis=1)
        else:
            y0, alone = estimators._pcp_center(data)
            rows = np.flatnonzero(~alone)
            if rows.size:
                f, phi, rho, _, _ = estimators._pcp_rows(
                    t, data[rows], y0[rows], T_m, delta0, grids, cfg.refine)
                out[rows] = np.stack([f, phi, rho], axis=1)
    except (ValueError, np.linalg.LinAlgError):
        alone = np.ones(Y.shape[0], dtype=bool)
    for row in np.flatnonzero(alone):
        out[row] = _estimate_one(cfg, name, RttSeries(t, Y[row]), grids)
    return out


def _run_stack(cfg: ExperimentConfig, schedule: SampleSchedule, grids: SearchGrids,
               points: list, trial_seeds: list) -> dict:
    """Trials that share one schedule, as one (B, N) stack: trial b runs at
    sweep point points[b] with seed trial_seeds[b]. Returns, per estimator,
    the (B, 3) signed errors (f_d in Hz, phase in radians, range in m), NaN
    where the estimator rejected the record."""
    B, N = len(points), schedule.N
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
            idx, drawn = _outlier_draws(N, outliers, _child(seed, 2))
            Y[b, idx] = drawn

    screen = _screen(cfg, Y)
    errors = {}
    for name in cfg.estimators:
        est = _estimate_stack(cfg, name, t, Y, screen, grids)
        ok = ~np.isnan(est[:, 0])
        err = np.full((B, 3), math.nan)
        err[ok, 0] = est[ok, 0] - f_d[ok]
        err[ok, 1] = wrap_to_pm_pi(phi[ok] - est[ok, 1])
        err[ok, 2] = est[ok, 2] - link.rho
        errors[name] = err
    return errors


def run_trial(cfg: ExperimentConfig, sweep_value: float, trial_seed) -> dict:
    """One randomized trial, the one-row case of run_sweep's stacks; returns,
    per estimator, the signed errors (f_d in Hz, phase in radians, range in
    m) or None when the estimator rejects the record (ValueError or
    LinAlgError); other errors propagate.

    The phase truth is drawn uniformly from [0, 2pi) each trial.
    """
    point = _apply_sweep(cfg, float(sweep_value))
    schedule = point[1]
    grids = SearchGrids.for_schedule(schedule.N, schedule.Ts)
    errors = _run_stack(cfg, schedule, grids, [point], [trial_seed])
    return {
        name: None if np.isnan(err[0, 0]) else tuple(err[0].tolist())
        for name, err in errors.items()
    }


def _summary(errors: np.ndarray) -> dict:
    """RMSE, quartiles and extremes of each row of errors (P, n), as lists
    of P floats."""
    if not errors.shape[1]:
        nan = [math.nan] * errors.shape[0]
        return {"rmse": nan, "p25": nan, "p50": nan, "p75": nan, "min": nan, "max": nan}
    p25, p50, p75 = np.percentile(errors, (25, 50, 75), axis=1).tolist()
    return {
        "rmse": np.sqrt(np.mean(errors**2, axis=1)).tolist(),
        "p25": p25, "p50": p50, "p75": p75,
        "min": errors.min(axis=1).tolist(), "max": errors.max(axis=1).tolist(),
    }


def _report_row(cfg: ExperimentConfig, value: float, name: str, errs: np.ndarray) -> dict:
    """Report row of one estimator at one sweep point from its (M, 3) trial
    errors, NaN where it rejected the record."""
    errs = errs[~np.isnan(errs[:, 0])]
    row = {
        "sweep_axis": cfg.sweep_axis,
        "sweep_value": value,
        "estimator": name,
        "n_trials": cfg.M,
        "n_failed": cfg.M - len(errs),
    }
    stats = _summary(np.stack([errs[:, 0], errs[:, 1] * cfg.clock.T_m / TWO_PI, errs[:, 2]]))
    for j, param in enumerate(("fd_hz", "phi_s", "rho_m")):
        row[f"rmse_{param}"] = stats["rmse"][j]
        for stat in ("p25", "p50", "p75", "min", "max"):
            row[f"{stat}_{param}"] = stats[stat][j]
    return row


# Trials per stack are capped at this many samples in all, which bounds the
# (B, 21, N) complex refinement array at about 11 MB.
_STACK_SAMPLES = 1 << 15


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """M trials per sweep value; per-trial seeds derive from (master seed,
    sweep index, iteration index) so runs are reproducible and trials
    order-independent.

    The trials of all sweep points that share a schedule (every point, off
    the N axis) run as (B, N) stacks through each stage: generation with each
    trial's own draws, outlier weights, the FFT, the refinement and the
    phase search. The report is the same, to the bit, as running each trial
    alone with run_trial.
    """
    rows = []
    for schedule, group in itertools.groupby(enumerate(cfg.points), key=lambda p: p[1][1]):
        group = list(group)
        grids = SearchGrids.for_schedule(schedule.N, schedule.Ts)
        trials = [(idx, point, it) for idx, point in group for it in range(cfg.M)]
        size = max(1, _STACK_SAMPLES // schedule.N)
        stacks = [
            _run_stack(cfg, schedule, grids, [point for _, point, _ in chunk],
                       [(cfg.seed, idx, it) for idx, _, it in chunk])
            for chunk in (trials[i:i + size] for i in range(0, len(trials), size))
        ]
        errors = {name: np.concatenate([s[name] for s in stacks]) for name in cfg.estimators}
        for k, (idx, _) in enumerate(group):
            for name in cfg.estimators:
                errs = errors[name][k * cfg.M:(k + 1) * cfg.M]
                rows.append(_report_row(cfg, cfg.sweep_values[idx], name, errs))
    return SweepReport(sweep_axis=cfg.sweep_axis, rows=rows)
