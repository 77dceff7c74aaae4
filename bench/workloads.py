"""Benchmark workloads: inputs made from the workload seed, one closed-loop
operation driven through rttsync's public entry points, and the correctness
checks whose failures count against the operations attempted.

Every workload has one caller that issues its next operation only after the
previous one returned.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import zlib

import numpy as np

from rttsync import cli, estimators, model, montecarlo
from rttsync import io as rio

T_M = 1e-8  # 100 MHz master clock, the CLI's default --t-m
DELTA0 = 5e-6  # the CLI's default --delta0
TS = 1e-3
LINK = model.LinkTruth(rho=2.0, delta0=DELTA0)

# Acceptance criterion 3: RMSE (sweeps) or error (single records) limits on
# f_d in Hz, phase in seconds of clock period and range in m.
FD_BOUND_HZ, PHI_BOUND_S, RHO_BOUND_M = 5.0, 5e-9, 0.3

C5_VALUES = (-200.0, -100.0, -32.0, 32.0, 100.0, 200.0)


def within_bounds(fd_err_hz: float, phi_err_s: float, rho_err_m: float) -> bool:
    errs = (fd_err_hz, phi_err_s, rho_err_m)
    return all(math.isfinite(e) for e in errs) and (
        abs(fd_err_hz) <= FD_BOUND_HZ and abs(phi_err_s) <= PHI_BOUND_S
        and abs(rho_err_m) <= RHO_BOUND_M)


def check_estimate(record: dict, truth: dict) -> bool:
    """Whether one `rttsync estimate` record lands within the criterion-3
    bounds of the truth the record was generated from."""
    try:
        fd = float(record["f_d_hat_hz"])
        phi = float(record["phi_hat_rad"])
        rho = float(record["rho_hat_m"])
    except (KeyError, ValueError):
        return False
    phi_err_s = estimators.phase_error_seconds(phi, truth["phi"], T_M)
    return within_bounds(fd - truth["f_d"], phi_err_s, rho - truth["rho"])


def read_record(path: str) -> dict | None:
    """The single data row of an estimate CSV, or None if it does not parse."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        return None
    return rows[0] if len(rows) == 1 else None


@dataclasses.dataclass
class Result:
    """What one operation attempted and how many of those attempts failed."""
    attempted: int
    failed: int


class SweepWorkload:
    """`run_sweep` over one acceptance config at a reduced M per call; each
    call gets its own master seed, derived from the workload seed."""

    def __init__(self, name, why, base: montecarlo.ExperimentConfig, row_ok):
        self.name, self.why, self.base, self.row_ok = name, why, base, row_ok
        self.unit = "trial"
        self.units_per_op = base.M * len(base.sweep_values)

    def describe(self) -> str:
        b = self.base
        return (f"N={b.schedule.N} M={b.M} per run_sweep call, {len(b.sweep_values)} "
                f"sweep point(s), estimators={','.join(b.estimators)}, "
                f"preprocess={b.preprocess}")

    def setup(self, seed: int, workdir: str):
        # a one-trial-per-point sweep warms every code path the loop uses
        montecarlo.run_sweep(dataclasses.replace(self.base, M=1, seed=seed))
        return seed

    def run(self, seed, k: int):
        cfg = dataclasses.replace(self.base, seed=seed * 1_000_003 + k)
        return montecarlo.run_sweep(cfg)

    def check(self, seed, k: int, report) -> Result:
        b = self.base
        attempted = b.M * len(b.sweep_values) * len(b.estimators)
        if report is None:
            return Result(attempted, attempted)
        failed = 0
        for value in b.sweep_values:
            for name in b.estimators:
                try:
                    row = report.row(value, name)
                except KeyError:
                    failed += b.M
                    continue
                failed += row["n_failed"]
                if not self.row_ok(row):
                    failed += b.M - row["n_failed"]
        return Result(attempted, failed)


def _c3_row_ok(row) -> bool:
    return within_bounds(row["rmse_fd_hz"], row["rmse_phi_s"], row["rmse_rho_m"])


def _c5_row_ok(row) -> bool:
    # criterion 5 is xfail, so only completeness and finiteness are checked
    return all(math.isfinite(row[f"rmse_{p}"]) for p in ("fd_hz", "phi_s", "rho_m"))


class EstimateWorkload:
    """`rttsync estimate` on one record per call, round-robin over records
    that set-up generates from the seed and writes as CSV."""

    RECORDS = 4

    def __init__(self, name, why, method: str, n: int):
        self.name, self.why, self.method, self.n = name, why, method, n
        self.unit = "call"
        self.units_per_op = 1

    def describe(self) -> str:
        return (f"cli_main estimate --method {self.method} on N={self.n} records, "
                f"{self.RECORDS} records round-robin, 40/40 dB")

    def setup(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        noise = model.NoiseSpec.from_snr(40.0, 40.0, T_M)
        schedule = model.SampleSchedule(0.0, TS, self.n)
        records = []
        for i in range(self.RECORDS):
            truth = {
                "f_d": float(rng.choice((-1.0, 1.0)) * rng.uniform(16.0, 64.0)),
                "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
                "rho": float(rng.uniform(1.0, 10.0)),
            }
            clock = model.ClockTruth(1.0 / T_M, truth["f_d"], truth["phi"])
            link = model.LinkTruth(rho=truth["rho"], delta0=DELTA0)
            series = model.generate_series(schedule, clock, link, noise, seed=rng)
            path = os.path.join(workdir, f"{self.name}-{i}.csv")
            rio.write_series(path, series)
            records.append((path, os.path.join(workdir, f"{self.name}-{i}.out.csv"), truth))
        self.run(records, 0)
        return records

    def run(self, records, k: int):
        path, out, _ = records[k % len(records)]
        return cli.cli_main(["estimate", path, "--method", self.method, "-o", out])

    def check(self, records, k: int, exit_code) -> Result:
        _, out, truth = records[k % len(records)]
        record = read_record(out) if exit_code == 0 else None
        ok = record is not None and check_estimate(record, truth)
        if os.path.exists(out):
            os.unlink(out)  # the next call on this record must write it afresh
        return Result(1, 0 if ok else 1)


def _sweep_config(**kw) -> montecarlo.ExperimentConfig:
    return montecarlo.ExperimentConfig(
        clock=model.ClockTruth(1.0 / T_M, -32.0, 0.0), link=LINK, **kw)


WORKLOADS = {w.name: w for w in (
    SweepWorkload(
        "sweep_c3",
        "criterion-3 sweep, N=100 at 40/40 dB, WLS only: the WLS search dominates; PCP, io and cli are bypassed",
        _sweep_config(schedule=model.SampleSchedule(0.0, TS, 100),
                      noise=model.NoiseSpec.from_snr(40.0, 40.0, T_M),
                      M=5, estimators=("WLS",)),
        _c3_row_ok),
    SweepWorkload(
        "sweep_c5",
        "criterion-5 sweep, N=200 at 20/20 dB, f_d up to 0.2 cycles/sample, ULS+PCP+WLS with preprocess on",
        _sweep_config(schedule=model.SampleSchedule(0.0, TS, 200),
                      noise=model.NoiseSpec.from_snr(20.0, 20.0, T_M),
                      M=1, sweep_axis="f_d", sweep_values=C5_VALUES),
        _c5_row_ok),
    EstimateWorkload("estimate_wls_n1000", "one-record WLS estimate through the CLI at N=1000, where a search made faster at N=100 may only break even", "wls", 1000),
    EstimateWorkload("estimate_uls_n1000", "one-record ULS estimate at N=1000, where CSV reading and CLI overhead dominate", "uls", 1000),
)}
