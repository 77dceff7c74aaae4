"""File formats: RTT series CSV, estimate records, sweep report CSV,
calibration curve JSON, and INI-style sweep configuration files.

All floats are written as shortest round-trip decimal text (repr), which
carries 17 significant digits when needed, so write/read round-trips are
bit-stable.
"""

from __future__ import annotations

import configparser
import csv
import io as _io
import json
import os

import numpy as np

from .analysis import CalibrationCurve
from .estimators import Estimate
from .model import (
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    RttSeries,
    SampleSchedule,
)
from .montecarlo import ExperimentConfig, OutlierSpec, SweepReport

SERIES_HEADER = ("t_seconds", "y_seconds")


def _fmt(x) -> str:
    return repr(float(x))


def atomic_write_text(path: str, text: str) -> None:
    """Write the full content or nothing: temp file + rename."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def series_to_csv(series: RttSeries) -> str:
    # tolist() yields Python floats, whose repr is the shortest round trip
    rows = zip(series.times.tolist(), series.values.tolist())
    return ",".join(SERIES_HEADER) + "\n" + "".join(f"{t!r},{y!r}\n" for t, y in rows)


def write_series(path: str, series: RttSeries) -> None:
    atomic_write_text(path, series_to_csv(series))


def read_series(path: str) -> RttSeries:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if tuple(header.split(",")) != SERIES_HEADER:
            raise ValueError(f"{path}: expected header {','.join(SERIES_HEADER)}")
        body = fh.read()
    if not body.strip():
        raise ValueError(f"{path}: no samples")
    try:
        # comments=None: a '#' line is a malformed row, not a comment
        data = np.loadtxt(_io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed CSV row: {exc}") from None
    if data.shape[1] != 2:
        raise ValueError(f"{path}: malformed CSV row: {data.shape[1]} columns, expected 2")
    return RttSeries(data[:, 0], data[:, 1])


def estimate_to_csv(estimate: Estimate) -> str:
    rec = estimate.to_record()
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rec.keys())
    writer.writerow(
        [rec["method"]] + [_fmt(rec[k]) for k in ("f_d_hat_hz", "phi_hat_rad", "rho_hat_m")]
        + [rec["n_used"], rec["n_downweighted"]]
    )
    return buf.getvalue()


def report_to_csv(report: SweepReport) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SweepReport.COLUMNS)
    for row in report.rows:
        out = []
        for col in SweepReport.COLUMNS:
            val = row[col]
            out.append(_fmt(val) if isinstance(val, float) else val)
        writer.writerow(out)
    return buf.getvalue()


def write_report(path: str, report: SweepReport) -> None:
    atomic_write_text(path, report_to_csv(report))


def curve_to_json(curve: CalibrationCurve) -> str:
    return json.dumps(
        {
            "coefficients": [float(c) for c in curve.coefficients],
            "offset": curve.offset,
            "scale": curve.scale,
            "domain_lo": curve.domain_lo,
            "domain_hi": curve.domain_hi,
        },
        indent=2,
    ) + "\n"


def read_curve(path: str) -> CalibrationCurve:
    with open(path) as fh:
        data = json.load(fh)
    return CalibrationCurve(
        coefficients=np.asarray(data["coefficients"], dtype=float),
        offset=data["offset"],
        scale=data["scale"],
        domain_lo=data["domain_lo"],
        domain_hi=data["domain_hi"],
    )


def read_calibration_pairs(path: str) -> np.ndarray:
    """CSV with header range_m,rtt_seconds."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != ("range_m", "rtt_seconds"):
        raise ValueError(f"{path}: expected header range_m,rtt_seconds")
    try:
        return np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed CSV row: {exc}") from None


def read_experiment_config(path: str) -> ExperimentConfig:
    """Parse a flat INI sweep configuration.

    Required section [experiment]; noise given either as snr_c_db/snr_j_db
    or as sigma_n/sigma_v directly.
    """
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"cannot read config {path}")
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    sec = parser["experiment"]

    def need(key: str) -> str:
        if key not in sec:
            raise ValueError(f"{path}: missing key {key!r}")
        return sec[key]

    f_m = float(need("f_m"))
    clock = ClockTruth(f_m=f_m, f_d=float(need("f_d")), phi=0.0)
    link = LinkTruth(rho=float(need("rho")), delta0=float(need("delta0")))
    schedule = SampleSchedule(
        t0=float(sec.get("t0", "0.0")), Ts=float(need("ts")), N=int(need("n"))
    )
    if "snr_c_db" in sec or "snr_j_db" in sec:
        noise = NoiseSpec.from_snr(
            float(need("snr_c_db")), float(need("snr_j_db")), clock.T_m
        )
    else:
        noise = NoiseSpec(
            sigma_v=float(sec.get("sigma_v", "0.0")),
            sigma_n=float(sec.get("sigma_n", "0.0")),
        )
    outliers = None
    if "outlier_fraction" in sec:
        outliers = OutlierSpec(
            fraction=float(sec["outlier_fraction"]),
            lo=float(sec.get("outlier_lo", "3.5e-6")),
            hi=float(sec.get("outlier_hi", "4.9e-6")),
        )
    estimators = tuple(
        name.strip().upper()
        for name in sec.get("estimators", "ULS,PCP,WLS").split(",")
        if name.strip()
    )
    sweep_axis = sec.get("sweep_axis", "none")
    sweep_values = tuple(
        float(v) for v in sec.get("sweep_values", "0.0").replace(",", " ").split()
    )
    return ExperimentConfig(
        clock=clock,
        link=link,
        schedule=schedule,
        noise=noise,
        outliers=outliers,
        M=int(sec.get("m", "1000")),
        seed=int(sec.get("seed", "0")),
        estimators=estimators,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        preprocess=sec.getboolean("preprocess", fallback=True),
        refine=sec.getboolean("refine", fallback=True),
    )
