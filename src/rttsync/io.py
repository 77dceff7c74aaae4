"""File formats: RTT series, estimate, sweep report and residual ACF CSV,
calibration pairs CSV and curve JSON, and INI sweep configuration files.

All floats are written as shortest round-trip decimal text (repr), which
carries 17 significant digits when needed, so write/read round-trips are
bit-stable.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import io as _io
import json
import math
import os

import numpy as np

from .analysis import AcfReport, CalibrationCurve
from .estimators import Estimate
from .model import ClockTruth, LinkTruth, NoiseSpec, RttSeries, SampleSchedule
from .montecarlo import ExperimentConfig, OutlierSpec, SweepReport

SERIES_HEADER = ("t_seconds", "y_seconds")
ESTIMATE_HEADER = ("method", "f_d_hat_hz", "phi_hat_rad", "rho_hat_m", "n_used", "n_downweighted")

_CURVE_FIELDS = tuple(f.name for f in dataclasses.fields(CalibrationCurve))


def _csv_text(header, rows) -> str:
    """The one CSV writer: the header line, then one line per row, each
    ending in LF; float cells as repr(float), other cells as str."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _read_columns(path: str, header: tuple) -> np.ndarray:
    """The one CSV reader: (rows, len(header)) floats of a file whose first
    line is header. LF or CRLF line ends; blank lines are skipped; a '#'
    line, a quoted number or a row of another width is an error."""
    with open(path) as fh:
        if tuple(fh.readline().rstrip("\n").split(",")) != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        body = fh.read()
    if not body.strip():
        raise ValueError(f"{path}: no samples")
    try:
        # comments=None: a '#' line is a malformed row, not a comment
        data = np.loadtxt(_io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed CSV row: {exc}") from None
    if data.shape[1] != len(header):
        raise ValueError(
            f"{path}: malformed CSV row: {data.shape[1]} columns, expected {len(header)}")
    return data


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
    return RttSeries(*_read_columns(path, SERIES_HEADER).T)


def estimate_to_csv(estimate: Estimate) -> str:
    w = estimate.weights
    counts = (w.n_used, w.n_downweighted) if w is not None else (0, 0)
    return _csv_text(ESTIMATE_HEADER, [(estimate.method, estimate.f_d_hat, estimate.phi_hat,
                                        estimate.rho_hat, *counts)])


def report_to_csv(report: SweepReport) -> str:
    cols = SweepReport.COLUMNS
    return _csv_text(cols, ([row[col] for col in cols] for row in report.rows))


def write_report(path: str, report: SweepReport) -> None:
    atomic_write_text(path, report_to_csv(report))


def acf_to_csv(report: AcfReport) -> str:
    rows = zip(report.lags.tolist(), report.acf.tolist(), [report.bound] * len(report.lags))
    return _csv_text(("lag", "acf", "bound"), rows)


def curve_to_json(curve: CalibrationCurve) -> str:
    data = {name: getattr(curve, name) for name in _CURVE_FIELDS}
    data["coefficients"] = curve.coefficients.tolist()
    return json.dumps(data, indent=2) + "\n"


def read_curve(path: str) -> CalibrationCurve:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or sorted(data) != sorted(_CURVE_FIELDS):
        raise ValueError(f"{path}: expected a JSON object with keys {', '.join(_CURVE_FIELDS)}")
    for key, v in data.items():
        if not all(type(x) in (int, float) and math.isfinite(x)  # not bool, str or None
                   for x in (v if type(v) is list else [v])):
            raise ValueError(f"{path}: {key}: expected finite numbers, got {v!r}")
    return CalibrationCurve(**data)


def read_calibration_pairs(path: str) -> np.ndarray:
    """(rows, 2) of a CSV file with header range_m,rtt_seconds."""
    return _read_columns(path, ("range_m", "rtt_seconds"))


def _boolean(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


# Each [experiment] key: the object it sets, the field it sets there, and how
# its value is parsed. A key the file does not give takes the field's default.
_CONFIG_KEYS = {
    "f_m": ("clock", "f_m", float), "f_d": ("clock", "f_d", float),
    "rho": ("link", "rho", float), "delta0": ("link", "delta0", float),
    "t0": ("schedule", "t0", float), "ts": ("schedule", "Ts", float), "n": ("schedule", "N", int),
    "snr_c_db": ("snr", "snr_c_db", float), "snr_j_db": ("snr", "snr_j_db", float),
    "sigma_n": ("noise", "sigma_n", float), "sigma_v": ("noise", "sigma_v", float),
    "outlier_fraction": ("outliers", "fraction", float),
    "outlier_lo": ("outliers", "lo", float), "outlier_hi": ("outliers", "hi", float),
    "m": ("config", "M", int), "seed": ("config", "seed", int),
    "estimators": ("config", "estimators",
                   lambda s: tuple(v.strip().upper() for v in s.split(",") if v.strip())),
    "sweep_axis": ("config", "sweep_axis", str),
    "sweep_values": ("config", "sweep_values",
                     lambda s: tuple(float(v) for v in s.replace(",", " ").split())),
    "preprocess": ("config", "preprocess", _boolean), "refine": ("config", "refine", _boolean),
}
_FIELD_KEYS = {name: key for key, (_, name, _) in _CONFIG_KEYS.items()}


def read_experiment_config(path: str) -> ExperimentConfig:
    """Parse a flat INI sweep configuration: one [experiment] section.

    Required keys: f_m, f_d (Hz), rho (m), delta0, ts (s) and n (samples).
    Optional keys, each defaulting as its dataclass field does: t0 (s,
    default 0); the noise as the pair snr_c_db/snr_j_db or as sigma_n
    (s)/sigma_v (rad), not both; outlier_fraction, then outlier_lo and
    outlier_hi (s); m (trials per point), seed, estimators (comma list of
    uls, pcp, wls), sweep_axis, sweep_values (comma or space list),
    preprocess and refine (booleans). An unknown or repeated key, or a
    malformed value, is a ValueError. Each names the file, and a value that
    a dataclass refuses names the key too where that key alone set it.
    """
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ValueError(f"cannot read config {path}")
        if "experiment" not in parser:
            raise ValueError(f"{path}: missing [experiment] section")
        sec = dict(parser["experiment"])
    except configparser.Error as exc:
        raise ValueError(f"{path}: malformed config: {exc}") from None
    given = {}
    for key, text in sec.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: unknown key {key!r}")
        group, name, parse = _CONFIG_KEYS[key]
        try:
            given.setdefault(group, {})[name] = value = parse(text)
            if value == ():  # an empty list
                raise ValueError
        except (KeyError, ValueError):
            raise ValueError(f"{path}: bad value {text!r} for key {key!r}") from None
    required = ("f_m", "f_d", "rho", "delta0", "ts", "n")
    required += ("snr_c_db", "snr_j_db") if "snr" in given else ()
    required += ("outlier_fraction",) if "outliers" in given else ()
    for key in required:
        if key not in sec:
            raise ValueError(f"{path}: missing key {key!r}")
    if "snr" in given and "noise" in given:
        raise ValueError(f"{path}: give snr_c_db/snr_j_db or sigma_n/sigma_v, not both")

    def build(cls, **kwargs):
        # a refusal that names one argument, first, blames the key that set
        # it, if the file gave that key
        try:
            return cls(**kwargs)
        except ValueError as exc:
            words = str(exc).split()
            named = [word for word in words if word in kwargs]
            key = _FIELD_KEYS.get(words[0]) if named and named == words[:1] else None
            where = f"{path}: bad value {sec[key]!r} for key {key!r}" if key in sec else path
            raise ValueError(f"{where}: {exc}") from None

    clock, snr = build(ClockTruth, **given["clock"]), given.get("snr")
    return build(
        ExperimentConfig,
        clock=clock,
        link=build(LinkTruth, **given["link"]),
        schedule=build(SampleSchedule, **{"t0": 0.0, **given["schedule"]}),
        noise=(build(NoiseSpec.from_snr, **snr, T_m=clock.T_m) if snr
               else build(NoiseSpec, **given.get("noise", {}))),
        outliers=build(OutlierSpec, **given.get("outliers", {"fraction": 0.0})),
        **given.get("config", {}),
    )
