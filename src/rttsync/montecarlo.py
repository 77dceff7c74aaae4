"""Monte Carlo evaluation harness: repeated randomized trials with RMSE and
percentile reporting per estimator, swept over noise levels, record length,
outlier fraction, or the true frequency difference."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    SearchGrids,
    phase_error,
    pcp_estimate,
    preprocess_outliers,
    robust_weights,
    uls_estimate,
    wls_estimate,
)
from .model import (
    TWO_PI,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    RttSeries,
    SampleSchedule,
    generate_series,
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


def inject_outliers(series: RttSeries, spec: OutlierSpec, seed):
    """Replace round(fraction*N) samples; returns (series, outlier indices)."""
    n = len(series)
    count = int(round(spec.fraction * n))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=count, replace=False))
    values = series.values.copy()
    values[idx] = rng.uniform(spec.lo, spec.hi, size=count)
    return series.with_values(values), idx


def _apply_sweep(cfg: ExperimentConfig, value: float):
    """Clock/schedule/noise/outliers for one sweep point."""
    clock, schedule, noise, outliers = cfg.clock, cfg.schedule, cfg.noise, cfg.outliers
    axis = cfg.sweep_axis
    if axis == "snr_c":
        sigma_n, _ = snr_to_sigma(value, 0.0, clock.T_m)
        noise = dataclasses.replace(noise, sigma_n=sigma_n)
    elif axis == "snr_j":
        _, sigma_v = snr_to_sigma(0.0, value, clock.T_m)
        noise = dataclasses.replace(noise, sigma_v=sigma_v)
    elif axis == "N":
        schedule = dataclasses.replace(schedule, N=int(value))
    elif axis == "outlier_fraction":
        base = outliers if outliers is not None else OutlierSpec(fraction=0.0)
        outliers = dataclasses.replace(base, fraction=value)
    elif axis == "f_d":
        clock = dataclasses.replace(clock, f_d=value)
    return clock, schedule, noise, outliers


def run_trial(cfg: ExperimentConfig, sweep_value: float, trial_seed) -> dict:
    """One randomized trial; returns, per estimator, the signed errors
    (f_d in Hz, phase in radians, range in m) or None when the estimator
    rejects the record (ValueError or LinAlgError); other errors propagate.

    The phase truth is drawn uniformly from [0, 2pi) each trial.
    """
    clock, schedule, noise, outliers = _apply_sweep(cfg, sweep_value)
    ss = np.random.SeedSequence(trial_seed)
    phi_ss, series_ss, outlier_ss = ss.spawn(3)
    phi = float(np.random.default_rng(phi_ss).uniform(0.0, TWO_PI))
    clock = dataclasses.replace(clock, phi=phi)

    series = generate_series(schedule, clock, cfg.link, noise, seed=series_ss)
    if outliers is not None and outliers.fraction > 0.0:
        series, _ = inject_outliers(series, outliers, outlier_ss)

    grids = SearchGrids.for_schedule(schedule.N, schedule.Ts)
    T_m, delta0 = clock.T_m, cfg.link.delta0
    filtered = None

    results = {}
    for name in cfg.estimators:
        try:
            if name in ("ULS", "PCP") and cfg.preprocess:
                if filtered is None:
                    filtered = preprocess_outliers(series)
                data = filtered
            else:
                data = series
            if name == "ULS":
                est = uls_estimate(data, T_m, delta0)
            elif name == "PCP":
                est = pcp_estimate(data, T_m, delta0, grids, refine=cfg.refine)
            else:
                w = robust_weights(series)
                est = wls_estimate(series, T_m, delta0, grids, w, refine=cfg.refine)
            results[name] = (
                est.f_d_hat - clock.f_d,
                phase_error(est.phi_hat, clock.phi),
                est.rho_hat - cfg.link.rho,
            )
        except (ValueError, np.linalg.LinAlgError):
            results[name] = None
    return results


def _summary(errors: np.ndarray) -> dict:
    rmse = float(np.sqrt(np.mean(errors**2))) if errors.size else math.nan
    if errors.size:
        p25, p50, p75 = np.percentile(errors, (25, 50, 75)).tolist()
        lo, hi = float(errors.min()), float(errors.max())
    else:
        p25 = p50 = p75 = lo = hi = math.nan
    return {"rmse": rmse, "p25": p25, "p50": p50, "p75": p75, "min": lo, "max": hi}


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """M trials per sweep value; per-trial seeds derive from (master seed,
    sweep index, iteration index) so runs are reproducible and trials
    order-independent."""
    rows = []
    for sweep_idx, value in enumerate(cfg.sweep_values):
        collected = {name: [] for name in cfg.estimators}
        failures = {name: 0 for name in cfg.estimators}
        for it in range(cfg.M):
            trial = run_trial(cfg, value, (cfg.seed, sweep_idx, it))
            for name, errs in trial.items():
                if errs is None:
                    failures[name] += 1
                else:
                    collected[name].append(errs)
        T_m = cfg.clock.T_m
        for name in cfg.estimators:
            errs = np.asarray(collected[name], dtype=float).reshape(-1, 3)
            per_param = {
                "fd_hz": errs[:, 0],
                "phi_s": errs[:, 1] * T_m / TWO_PI,
                "rho_m": errs[:, 2],
            }
            row = {
                "sweep_axis": cfg.sweep_axis,
                "sweep_value": value,
                "estimator": name,
                "n_trials": cfg.M,
                "n_failed": failures[name],
            }
            for param, e in per_param.items():
                stats = _summary(e)
                row[f"rmse_{param}"] = stats["rmse"]
                for stat in ("p25", "p50", "p75", "min", "max"):
                    row[f"{stat}_{param}"] = stats[stat]
            rows.append(row)
    return SweepReport(sweep_axis=cfg.sweep_axis, rows=rows)
