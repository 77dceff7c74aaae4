import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rttsync.analysis import calibrate_range, residual_acf
from rttsync.cli import _build_parser, _estimate, cli_main
from rttsync.estimators import (
    Estimate,
    SearchGrids,
    pcp_estimate,
    preprocess_outliers,
    robust_weights,
    uls_estimate,
    wls_estimate,
)
from rttsync.io import (
    acf_to_csv,
    atomic_write_text,
    curve_to_json,
    estimate_to_csv,
    read_calibration_pairs,
    read_curve,
    read_experiment_config,
    read_series,
    report_to_csv,
    series_to_csv,
    write_report,
    write_series,
)
from rttsync.model import (
    SPEED_OF_LIGHT,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    RttSeries,
    SampleSchedule,
    generate_series,
    sawtooth_template,
)
from rttsync.montecarlo import ExperimentConfig, OutlierSpec, run_sweep


def sample_series(N=20, seed=0):
    clock = ClockTruth(1e8, -32.0, 1.0)
    link = LinkTruth(rho=2.0, delta0=5e-6)
    noise = NoiseSpec.from_snr(40.0, 40.0, 1e-8)
    return generate_series(SampleSchedule(0.0, 1e-3, N), clock, link, noise, seed=seed)


def library_estimate(record, method, f_max=None, refine=True):
    """What `rttsync estimate --method <method>` computes, as the README states
    it with the public one-record estimators: ULS on the raw record, PCP after
    preprocess_outliers, WLS under robust_weights, PCP and WLS on the grid of
    the record's span, at the CLI's default T_m = 10 ns and delta0 = 5 us."""
    if method == "uls":
        return uls_estimate(record, 1e-8, 5e-6)
    t = record.times
    ts = float(t[-1] - t[0]) / (len(record) - 1) if len(record) > 1 else math.nan
    grids = SearchGrids(len(record), ts, f_max=f_max)
    if method == "pcp":
        return pcp_estimate(preprocess_outliers(record), 1e-8, 5e-6, grids, refine=refine)
    return wls_estimate(record, 1e-8, 5e-6, grids, robust_weights(record), refine=refine)


def estimate_fields(est):
    """Every field of an Estimate, its weights as a list."""
    return (est.f_d_hat, est.phi_hat, est.rho_hat, est.method, est.weights.w.tolist(),
            est.f_grid_step, est.phi_grid_step)


def library_outcome(path, method, f_max=None, refine=True):
    """(exit code, estimate CSV or stderr text, warning texts) that the CLI
    should give on the series file path: the library's, or its ValueError."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            est = library_estimate(read_series(str(path)), method, f_max, refine)
            outcome = 0, estimate_to_csv(est)
        except ValueError as exc:
            outcome = 2, f"rttsync: error: {exc}\n"
    return (*outcome, [str(w.message) for w in caught])


def cli_outcome(path, method, out, flags=()):
    """(exit code, -o file text or stderr text, warning texts) of
    `rttsync estimate path --method method *flags -o out`."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli_main(["estimate", str(path), "--method", method, *flags, "-o", str(out)])
    if rc == 0:
        assert err.getvalue() == ""
        text = out.read_text()
    else:
        assert not out.exists()
        text = err.getvalue()
    return rc, text, [str(w.message) for w in caught]


class TestSeriesCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        series = sample_series()
        path = tmp_path / "s.csv"
        write_series(str(path), series)
        back = read_series(str(path))
        np.testing.assert_array_equal(back.times, series.times)
        np.testing.assert_array_equal(back.values, series.values)

    def test_matches_csv_writer_rendering(self):
        # the reference: one csv.writer row per sample, repr of each float
        series = sample_series(N=200, seed=4)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("t_seconds", "y_seconds"))
        for t, y in zip(series.times, series.values):
            writer.writerow([repr(float(t)), repr(float(y))])
        assert series_to_csv(series) == buf.getvalue()

    def test_header(self):
        text = series_to_csv(sample_series(N=3))
        assert text.splitlines()[0] == "t_seconds,y_seconds"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="bad.csv"):
            read_series(str(path))

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_seconds,y_seconds\n1.0,not_a_number\n")
        with pytest.raises(ValueError, match="bad.csv"):
            read_series(str(path))

    def test_rejects_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t_seconds,y_seconds\n")
        with pytest.raises(ValueError, match="empty.csv"):
            read_series(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "t_seconds,y_seconds\n\n",
            "t_seconds,y_seconds\n1.0,2.0\n3.0\n",
            "t_seconds,y_seconds\n1.0\n",
            "t_seconds,y_seconds\n1.0,2.0,3.0\n",
            "t_seconds,y_seconds\n# comment\n1.0,2.0\n",
            "t_seconds,y_seconds\n1.0,2.0 # comment\n",
        ],
        ids=["no-header", "blank-body", "one-column-row", "one-column", "three-columns",
             "comment-line", "trailing-comment"],
    )
    def test_rejects_bad_rows_naming_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.csv"):
            read_series(str(path))

    @pytest.mark.parametrize(
        "body", ["1.0,2.0\r\n3.0,4.0\r\n", "1.0,2.0\n\n3.0,4.0\n\n", "1.0,2.0\n3.0,4.0"]
    )
    def test_crlf_blank_lines_and_last_newline(self, tmp_path, body):
        # CRLF rows parse as LF rows; blank lines are skipped
        path = tmp_path / "s.csv"
        path.write_bytes(b"t_seconds,y_seconds\r\n" + body.encode())
        back = read_series(str(path))
        np.testing.assert_array_equal(back.times, [1.0, 3.0])
        np.testing.assert_array_equal(back.values, [2.0, 4.0])


class TestAtomicWrite:
    def test_no_partial_file_on_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"

        class Boom:
            def write(self, _):
                raise OSError("disk full")

        import rttsync.io as rio

        real_open = open

        def failing_open(p, *a, **k):
            if str(p).startswith(str(path)) and "w" in a + tuple(k.values()):
                fh = real_open(p, *a, **k)
                fh.write("partial")
                fh.close()
                raise OSError("disk full")
            return real_open(p, *a, **k)

        monkeypatch.setattr("builtins.open", failing_open)
        with pytest.raises(OSError):
            rio.atomic_write_text(str(path), "hello")
        monkeypatch.undo()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "one")
        atomic_write_text(str(path), "two")
        assert path.read_text() == "two"


class TestEstimateCsv:
    def test_columns(self):
        est = uls_estimate(sample_series(N=50), 1e-8, 5e-6)
        lines = estimate_to_csv(est).splitlines()
        assert lines[0] == "method,f_d_hat_hz,phi_hat_rad,rho_hat_m,n_used,n_downweighted"
        fields = lines[1].split(",")
        assert fields[0] == "ULS"
        assert float(fields[1]) == est.f_d_hat

    def test_matches_csv_writer_rendering(self):
        # the reference: the header, then one csv.writer row with the repr of
        # each float; 10% outliers make n_downweighted nonzero
        series = sample_series(N=200, seed=2)
        values = series.values.copy()
        values[::10] = 4e-6
        series = RttSeries(series.times, values)
        est = wls_estimate(series, 1e-8, 5e-6, SearchGrids(200, 1e-3),
                           robust_weights(series))
        assert est.weights.n_downweighted > 0
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "f_d_hat_hz", "phi_hat_rad", "rho_hat_m", "n_used",
                         "n_downweighted"])
        writer.writerow(["WLS", repr(float(est.f_d_hat)), repr(float(est.phi_hat)),
                         repr(float(est.rho_hat)), est.weights.n_used,
                         est.weights.n_downweighted])
        assert estimate_to_csv(est) == buf.getvalue()


class TestReportCsv:
    def test_round_trip_text_stable(self, tmp_path):
        cfg = ExperimentConfig(
            clock=ClockTruth(1e8, -32.0, 0.0),
            link=LinkTruth(rho=2.0, delta0=5e-6),
            schedule=SampleSchedule(0.0, 1e-3, 30),
            noise=NoiseSpec.from_snr(40.0, 40.0, 1e-8),
            M=2,
            estimators=("ULS",),
        )
        report = run_sweep(cfg)
        text1 = report_to_csv(report)
        text2 = report_to_csv(run_sweep(cfg))
        assert text1 == text2
        path = tmp_path / "r.csv"
        write_report(str(path), report)
        assert path.read_text() == text1

    def test_matches_csv_writer_rendering(self):
        # the reference: one csv.writer row per report row, in these columns,
        # with the repr of each float; PCP rejects every 3-sample record, so
        # its rows hold NaN
        cfg = ExperimentConfig(
            clock=ClockTruth(1e8, -32.0, 0.0),
            link=LinkTruth(rho=2.0, delta0=5e-6),
            schedule=SampleSchedule(0.0, 1e-3, 30),
            noise=NoiseSpec.from_snr(30.0, 30.0, 1e-8),
            outliers=OutlierSpec(fraction=0.1),
            M=3,
            sweep_axis="N",
            sweep_values=(3.0, 30.0),
        )
        report = run_sweep(cfg)
        columns = (["sweep_axis", "sweep_value", "estimator", "n_trials", "n_failed",
                    "rmse_fd_hz", "rmse_phi_s", "rmse_rho_m"]
                   + [f"{stat}_{p}" for p in ("fd_hz", "phi_s", "rho_m")
                      for stat in ("p25", "p50", "p75", "min", "max")])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in report.rows:
            writer.writerow([repr(float(row[c])) if isinstance(row[c], float) else row[c]
                             for c in columns])
        assert report.row(3.0, "PCP")["n_failed"] == 3
        assert report_to_csv(report) == buf.getvalue()
        assert ",nan," in buf.getvalue()


class TestAcfCsv:
    def test_matches_csv_writer_rendering(self):
        # the reference: one csv.writer row per lag, the lag as an integer and
        # the repr of each float
        series = sample_series(N=100, seed=1)
        report = residual_acf(series, uls_estimate(series, 1e-8, 5e-6), 20, 1e-8, 5e-6)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lag", "acf", "bound"])
        for lag, value in zip(report.lags, report.acf):
            writer.writerow([int(lag), repr(float(value)), repr(report.bound)])
        assert acf_to_csv(report) == buf.getvalue()


class TestCurveJson:
    def test_round_trip(self, tmp_path):
        ranges = np.linspace(1.0, 20.0, 10)
        rtts = 5e-6 + 2.0 * ranges / SPEED_OF_LIGHT
        curve = calibrate_range(np.column_stack([ranges, rtts]))
        path = tmp_path / "c.json"
        path.write_text(curve_to_json(curve))
        back = read_curve(str(path))
        np.testing.assert_array_equal(back.coefficients, curve.coefficients)
        assert back.offset == curve.offset
        assert back.domain_lo == curve.domain_lo

    def test_json_parses(self):
        ranges = np.linspace(1.0, 20.0, 10)
        rtts = 5e-6 + 2.0 * ranges / SPEED_OF_LIGHT
        curve = calibrate_range(np.column_stack([ranges, rtts]))
        data = json.loads(curve_to_json(curve))
        assert len(data["coefficients"]) == 6

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("scale"),
        lambda d: d.update(order=5),
        lambda d: [d["offset"]],
    ], ids=["missing-key", "extra-key", "not-an-object"])
    def test_rejects_malformed_file(self, tmp_path, edit):
        # a missing key raised KeyError and a JSON list TypeError
        ranges = np.linspace(1.0, 20.0, 10)
        rtts = 5e-6 + 2.0 * ranges / SPEED_OF_LIGHT
        data = json.loads(curve_to_json(calibrate_range(np.column_stack([ranges, rtts]))))
        edited = edit(data)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(edited if isinstance(edited, list) else data))
        with pytest.raises(ValueError, match="c.json: expected a JSON object with keys "
                                             "coefficients, offset, scale, domain_lo, domain_hi"):
            read_curve(str(path))

    @pytest.mark.parametrize("value", ["abc", True, None, math.nan, math.inf],
                             ids=["string", "boolean", "null", "nan", "infinity"])
    @pytest.mark.parametrize("key", ["offset", "scale", "domain_lo", "domain_hi", "coefficients"])
    def test_rejects_non_numeric_values(self, tmp_path, key, value):
        # a string offset was read, and apply_calibration then raised TypeError;
        # a NaN or boolean coefficient was read as NaN or 1.0
        ranges = np.linspace(1.0, 20.0, 10)
        rtts = 5e-6 + 2.0 * ranges / SPEED_OF_LIGHT
        data = json.loads(curve_to_json(calibrate_range(np.column_stack([ranges, rtts]))))
        if key == "coefficients":
            data[key][3] = value
        else:
            data[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"c.json: {key}: expected finite numbers"):
            read_curve(str(path))


class TestExperimentConfigFile:
    def test_parse_full(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\n"
            "f_m = 1e8\nf_d = -32\nrho = 2.0\ndelta0 = 5e-6\n"
            "ts = 1e-3\nn = 50\n"
            "snr_c_db = 40\nsnr_j_db = 30\n"
            "outlier_fraction = 0.1\n"
            "estimators = uls, wls\n"
            "sweep_axis = snr_c\nsweep_values = 10, 20, 30\n"
            "m = 5\nseed = 7\npreprocess = no\n"
        )
        cfg = read_experiment_config(str(path))
        assert cfg.clock.f_d == -32.0
        assert cfg.schedule.N == 50
        assert cfg.estimators == ("ULS", "WLS")
        assert cfg.sweep_axis == "snr_c"
        assert cfg.sweep_values == (10.0, 20.0, 30.0)
        assert cfg.M == 5 and cfg.seed == 7
        assert cfg.outliers.fraction == 0.1
        assert not cfg.preprocess
        assert cfg.noise.sigma_n == pytest.approx(1e-10, rel=1e-12)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[other]\nx = 1\n")
        with pytest.raises(ValueError):
            read_experiment_config(str(path))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nf_m = 1e8\n")
        with pytest.raises(ValueError):
            read_experiment_config(str(path))

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nf_m = 1e8\nf_d = -32\nrho = 2.0\ndelta0 = 5e-6\n"
                        "ts = 1e-3\nn = 50\n")
        assert read_experiment_config(str(path)) == ExperimentConfig(
            clock=ClockTruth(1e8, -32.0),
            link=LinkTruth(rho=2.0, delta0=5e-6),
            schedule=SampleSchedule(0.0, 1e-3, 50),
            noise=NoiseSpec(),
        )


class TestCalibrationPairs:
    def test_read(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("range_m,rtt_seconds\n1.0,5e-6\n2.0,5.1e-6\n")
        pairs = read_calibration_pairs(str(path))
        assert pairs.shape == (2, 2)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("rho,rtt\n1.0,5e-6\n")
        with pytest.raises(ValueError):
            read_calibration_pairs(str(path))

    def test_skips_blank_lines(self, tmp_path):
        # a blank line was "malformed CSV row: list index out of range"
        path = tmp_path / "p.csv"
        path.write_text("range_m,rtt_seconds\n1.0,5e-6\n\n2.0,5.1e-6\n\n")
        np.testing.assert_array_equal(read_calibration_pairs(str(path)),
                                      [[1.0, 5e-6], [2.0, 5.1e-6]])

    # a third column was dropped, a quoted number read as a number, and a
    # header-only file read as an empty array that calibrate_range rejected
    @pytest.mark.parametrize("body, message", [
        ("1.0,5e-6,junk\n", "malformed CSV row"),
        ("1.0,5e-6,7.0\n", "malformed CSV row: 3 columns, expected 2"),
        ('"1.0",5e-6\n', "malformed CSV row"),
        ("", "no samples"),
    ], ids=["third-column", "third-number", "quoted-number", "header-only"])
    def test_rejects_what_series_files_reject(self, tmp_path, body, message):
        path = tmp_path / "p.csv"
        path.write_text("range_m,rtt_seconds\n" + body)
        with pytest.raises(ValueError, match=f"p.csv: {message}"):
            read_calibration_pairs(str(path))


_CONFIG_BODY = ("f_m = 1e8\nf_d = -32\nrho = 2.0\ndelta0 = 5e-6\nts = 1e-3\nn = 30\n"
                "estimators = uls\nm = 2\n")


class TestCli:
    def test_simulate_then_estimate(self, tmp_path, capsys):
        series_path = tmp_path / "s.csv"
        rc = cli_main(
            [
                "simulate", "--f-d", "-32", "--snr-c-db", "40", "--snr-j-db", "40",
                "-n", "100", "--seed", "3", "-o", str(series_path),
            ]
        )
        assert rc == 0
        rc = cli_main(["estimate", str(series_path), "--method", "uls"])
        assert rc == 0
        out = capsys.readouterr().out
        header, row = out.splitlines()
        assert header.startswith("method,")
        fields = row.split(",")
        assert fields[0] == "ULS"
        assert float(fields[1]) == pytest.approx(-32.0, abs=1.0)

    def test_simulate_edge_generator(self, tmp_path):
        path = tmp_path / "edge.csv"
        rc = cli_main(
            ["simulate", "--generator", "edge", "--f-d", "-32", "-n", "50",
             "-o", str(path)]
        )
        assert rc == 0
        series = read_series(str(path))
        assert len(series) == 50

    @pytest.mark.parametrize(
        "flags", [["--snr-c-db", "10", "--snr-j-db", "10"], ["--sigma-n", "1e-6"],
                  ["--sigma-v", "0.1"], ["--snr-c-db", "10"],
                  ["--delta0", "9e-6", "--phi", "1.0"], ["--seed", "3"]],
    )
    def test_edge_generator_rejects_noise_flags(self, tmp_path, capsys, flags):
        path = tmp_path / "edge.csv"
        rc = cli_main(["simulate", "--generator", "edge", "-n", "50", *flags, "-o", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "noiseless" in err and flags[0] in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--k", "7", "--master-varphi", "3e-9"], "--generator edge"),
         (["--slave-varphi", "1e-9"], "--generator edge"),
         (["--snr-c-db", "30", "--snr-j-db", "30", "--sigma-n", "1e-3"], "not both"),
         (["--snr-c-db", "30", "--snr-j-db", "30", "--sigma-v", "0.1"], "not both")],
    )
    def test_model_generator_rejects_stray_flags(self, tmp_path, capsys, flags, message):
        path = tmp_path / "model.csv"
        rc = cli_main(["simulate", "-n", "50", *flags, "-o", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and flags[0] in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "flags, defaults",
        [(["--snr-c-db", "30", "--snr-j-db", "30"],
          ["--phi", "0", "--delta0", "5e-6", "--seed", "0"]),
         (["--generator", "edge"], ["--k", "500", "--master-varphi", "0", "--slave-varphi", "0"])],
    )
    def test_generator_flags_default_to_documented_values(self, tmp_path, flags, defaults):
        argv = ["simulate", *flags, "--f-d", "-32", "-n", "40"]
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        assert cli_main(argv + ["-o", str(implicit)]) == 0
        assert cli_main(argv + defaults + ["-o", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_estimate_wls_to_file(self, tmp_path):
        series_path = tmp_path / "s.csv"
        cli_main(["simulate", "--f-d", "-32", "-n", "60", "-o", str(series_path)])
        out_path = tmp_path / "est.csv"
        rc = cli_main(
            ["estimate", str(series_path), "--method", "wls", "-o", str(out_path)]
        )
        assert rc == 0
        row = out_path.read_text().splitlines()[1].split(",")
        assert row[0] == "WLS"
        assert float(row[1]) == pytest.approx(-32.0, abs=0.5)

    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\nf_m = 1e8\nf_d = -32\nrho = 2.0\ndelta0 = 5e-6\n"
            "ts = 1e-3\nn = 30\nsnr_c_db = 40\nsnr_j_db = 40\n"
            "estimators = uls\nm = 2\n"
        )
        out_path = tmp_path / "report.csv"
        rc = cli_main(["sweep", "--config", str(cfg_path), "-o", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("sweep_axis,sweep_value,estimator")
        assert len(lines) == 2

    @pytest.mark.parametrize("axis, values", [
        ("N", "20, 20.5"),
        ("N", "1"),
        ("outlier_fraction", "0.1, 1.5"),
        ("f_d", "-32, 1e8"),
    ])
    def test_sweep_rejects_bad_values_before_running(self, tmp_path, capsys, axis, values):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\nf_m = 1e8\nf_d = -32\nrho = 2.0\ndelta0 = 5e-6\n"
            "ts = 1e-3\nn = 30\nsnr_c_db = 40\nsnr_j_db = 40\n"
            f"estimators = uls\nm = 2\nsweep_axis = {axis}\nsweep_values = {values}\n"
        )
        out_path = tmp_path / "report.csv"
        rc = cli_main(["sweep", "--config", str(cfg_path), "-o", str(out_path)])
        assert rc == 2
        assert "rttsync: error:" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("text, message", [
        # no section header and a repeated key gave a configparser traceback
        (_CONFIG_BODY, "no section headers"),
        ("[experiment]\n" + _CONFIG_BODY + "n = 40\n", "option 'n' in section 'experiment'"),
        # a misspelt key was ignored, and the sweep ran noiseless
        ("[experiment]\n" + _CONFIG_BODY + "snr_c_bd = 20\n", "unknown key 'snr_c_bd'"),
        # the sigma was silently dropped
        ("[experiment]\n" + _CONFIG_BODY + "snr_c_db = 20\nsnr_j_db = 20\nsigma_n = 1e-9\n",
         "not both"),
        ("[experiment]\n" + _CONFIG_BODY + "snr_c_db = 20\nsnr_j_db = 20\nsigma_v = 0.1\n",
         "not both"),
        # the bounds were silently dropped without a fraction
        ("[experiment]\n" + _CONFIG_BODY + "outlier_lo = 1e-6\n",
         "missing key 'outlier_fraction'"),
        ("[experiment]\n" + _CONFIG_BODY + "seed = 1.5\n", "bad value '1.5' for key 'seed'"),
        ("[experiment]\n" + _CONFIG_BODY + "refine = maybe\n",
         "bad value 'maybe' for key 'refine'"),
        # an empty list got a message naming neither the file nor the key
        ("[experiment]\n" + _CONFIG_BODY + "sweep_axis = f_d\nsweep_values =\n",
         "exp.ini: bad value '' for key 'sweep_values'"),
        ("[experiment]\n" + _CONFIG_BODY.replace("estimators = uls", "estimators ="),
         "exp.ini: bad value '' for key 'estimators'"),
        # an OverflowError traceback from the outlier draws
        ("[experiment]\n" + _CONFIG_BODY + "outlier_fraction = 0.1\noutlier_hi = inf\n",
         "lo and hi must be finite"),
        # numpy's bare "expected non-negative integer"
        ("[experiment]\n" + _CONFIG_BODY + "seed = -1\n",
         "exp.ini: bad value '-1' for key 'seed': seed must be nonnegative"),
        # a value the dataclasses refuse named neither the file nor the key
        ("[experiment]\n" + _CONFIG_BODY.replace("m = 2", "m = 0"),
         "exp.ini: bad value '0' for key 'm': M must be at least 1"),
        ("[experiment]\n" + _CONFIG_BODY.replace("rho = 2.0", "rho = -2.0"),
         "exp.ini: bad value '-2.0' for key 'rho': rho must be nonnegative"),
        # two keys set the bounds: the file alone is named
        ("[experiment]\n" + _CONFIG_BODY + "outlier_fraction = 0.1\noutlier_lo = 5e-6\n"
         "outlier_hi = 4e-6\n", "exp.ini: lo must be below hi"),
        # 30 stamps 1 us apart at 1e12 s round to one value: ULS fitted them
        ("[experiment]\n" + _CONFIG_BODY.replace("ts = 1e-3", "ts = 1e-6") + "t0 = 1e12\n",
         "exp.ini: times must be strictly increasing"),
    ], ids=["no-section", "repeated-key", "unknown-key", "snr-and-sigma-n", "snr-and-sigma-v",
            "bounds-without-fraction", "malformed-int", "malformed-boolean", "empty-sweep-values",
            "empty-estimators", "infinite-outlier-bound", "negative-seed", "zero-trials",
            "negative-range", "bounds-out-of-order", "collapsed-stamps"])
    def test_sweep_rejects_bad_config_file(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text)
        out_path = tmp_path / "report.csv"
        assert cli_main(["sweep", "--config", str(cfg_path), "-o", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rttsync: error: ") and message in err
        assert not out_path.exists()

    def test_sweep_rejects_clock_below_1_hz(self, tmp_path, capsys):
        # the estimators take T_m of at most 1 s; a sweep's clock is held to it
        # where it is built, as the row kernels do not check it
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[experiment]\nf_m = 0.5\nf_d = -0.1\nrho = 2.0\ndelta0 = 5e-6\n"
            "ts = 1e-3\nn = 30\nsnr_c_db = 40\nsnr_j_db = 40\n"
            "estimators = uls, pcp, wls\nm = 2\n"
        )
        out_path = tmp_path / "report.csv"
        assert cli_main(["sweep", "--config", str(cfg_path), "-o", str(out_path)]) == 2
        assert "f_m must be at least 1 Hz" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--method", "uls", "--t-m", "0"],
        ["estimate", "--method", "wls", "--t-m", "0"],
        ["estimate", "--method", "uls", "--t-m=-1e-8"],
        ["estimate", "--method", "wls", "--t-m=-1e-8"],
        ["estimate", "--method", "pcp", "--t-m", "nan"],
        ["estimate", "--method", "uls", "--delta0", "nan"],
        ["estimate", "--method", "wls", "--delta0", "nan"],
        ["estimate", "--method", "pcp", "--delta0=-inf"],
        ["residuals", "--method", "uls", "--t-m", "inf"],
        ["residuals", "--f-d", "nan"],
        # a clock slower than 1 Hz: WLS overflowed, ULS and PCP exited 0
        # with a range near -7.5e307 m
        ["estimate", "--method", "uls", "--t-m", "1e300"],
        ["estimate", "--method", "pcp", "--t-m", "1e300"],
        ["estimate", "--method", "wls", "--t-m", "1e300"],
        ["residuals", "--method", "wls", "--t-m", "1e300"],
        ["residuals", "--f-d", "-32", "--t-m", "2"],
    ])
    def test_rejects_bad_clock_parameters(self, tmp_path, capsys, argv):
        # each would otherwise give a NaN or sign-flipped estimate, or a
        # traceback
        series_path = tmp_path / "s.csv"
        cli_main(["simulate", "--f-d", "-32", "--snr-c-db", "30", "--snr-j-db", "30",
                  "-n", "200", "-o", str(series_path)])
        out_path = tmp_path / "out.csv"
        rc = cli_main([argv[0], str(series_path), *argv[1:], "-o", str(out_path)])
        assert rc == 2
        assert "rttsync: error:" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "{one-row}", "--method", "uls"], "need at least 2 samples"),
        (["simulate", "--snr-c-db", "30"], "--snr-c-db and --snr-j-db must be given together"),
        (["sweep", "--config", "{missing}"], "cannot read config"),
        (["residuals", "{constant}", "--f-d", "0", "--phi", "0", "--rho", "0"],
         "residuals are identically zero"),
        # f_d = f_m stops the slave clock: a ZeroDivisionError traceback
        (["simulate", "--generator", "edge", "--f-d=1e8"], "f must be positive"),
        # an input with two faults is refused for the first of: the clock,
        # the CLI's own sample count and span grid, the stamps, the kernel's count
        (["estimate", "{one-row}", "--method", "wls", "--t-m", "0"], "T_m must be positive"),
        (["estimate", "{off-lattice}", "--method", "pcp", "--t-m", "0"], "T_m must be positive"),
        (["estimate", "{off-lattice}", "--method", "wls", "--t-m", "2"], "T_m must be positive"),
        (["estimate", "{off-lattice}", "--method", "pcp"], "uniformly spaced"),
    ], ids=["uls-one-row", "snr-c-alone", "missing-config", "zero-residuals",
            "edge-slave-at-0-hz", "wls-clock-before-count", "pcp-clock-before-stamps",
            "wls-clock-before-stamps", "pcp-stamps-before-count"])
    def test_rejects_input_at_the_boundary(self, tmp_path, capsys, argv, message):
        files = {"{one-row}": tmp_path / "one.csv", "{constant}": tmp_path / "constant.csv",
                 "{missing}": tmp_path / "missing.ini", "{off-lattice}": tmp_path / "off.csv"}
        write_series(str(files["{one-row}"]), RttSeries([0.0], [5e-6]))
        # three stamps on the span's 1 ms grid, the second 0.3 Ts off it
        write_series(str(files["{off-lattice}"]),
                     RttSeries([0.0, 3e-4, 2e-3], [5.001e-6, 5.004e-6, 5.002e-6]))
        # a record constant at delta0 is fitted exactly by f_d = phi = rho = 0
        write_series(str(files["{constant}"]),
                     RttSeries(1e-3 * np.arange(100), np.full(100, 5e-6)))
        out_path = tmp_path / "out.csv"
        argv = [str(files.get(arg, arg)) for arg in argv]
        assert cli_main(argv + ["-o", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rttsync: error: ") and message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("method, kind, shows", [
        ("uls", "outliers", None),
        ("pcp", "outliers", None),
        ("wls", "outliers", None),
        ("wls", "zero-mad", "zero MAD with nonzero deviations in 1 of 1 records"),
        ("pcp", "three-samples", "need at least 4 samples"),
    ], ids=["ULS", "PCP", "WLS", "WLS-zero-MAD", "PCP-three-samples"])
    def test_estimate_matches_the_stacked_protocol(self, tmp_path, method, kind, shows):
        # the CLI runs _estimate_stack's protocol on a one-record stack; the
        # README states it as a composition of the public estimators, and
        # the two must give the same bytes, warnings and errors
        rng = np.random.default_rng(41)
        for i, t0 in enumerate((0.0, 0.0, 0.37)):
            clock = ClockTruth(1e8, float(rng.uniform(-400.0, 400.0)),
                               float(rng.uniform(0.0, 6.0)))
            series = generate_series(SampleSchedule(t0, 1e-3, 200), clock,
                                     LinkTruth(2.0, 5e-6), NoiseSpec.from_snr(30.0, 30.0, 1e-8),
                                     seed=rng)
            y = series.values.copy()
            if kind == "outliers":
                y[rng.choice(200, 10, replace=False)] = rng.uniform(4.9e-6, 5.2e-6, 10)
                assert robust_weights(series.with_values(y)).n_downweighted > 0
            elif kind == "zero-mad":  # a majority of equal samples, the rest off them
                y[:120] = y[0]
            n = 3 if kind == "three-samples" else 200
            path = tmp_path / f"s{i}.csv"
            write_series(str(path), RttSeries(series.times[:n], y[:n]))
            got = cli_outcome(path, method, tmp_path / f"e{i}.csv")
            assert got == library_outcome(path, method)
            if shows is not None:
                assert shows in got[1] + "".join(got[2])
            if got[0] == 0:  # the Estimate itself, beyond the CSV's fields
                record = read_series(str(path))
                args = _build_parser().parse_args(["estimate", str(path), "--method", method])
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ours = _estimate(record, method, args)
                    want = library_estimate(record, method)
                assert estimate_fields(ours) == estimate_fields(want)

    def test_residuals_command(self, tmp_path, capsys):
        series_path = tmp_path / "s.csv"
        cli_main(
            ["simulate", "--f-d", "-32", "--snr-c-db", "40", "--snr-j-db", "40",
             "-n", "100", "--seed", "1", "-o", str(series_path)]
        )
        out_path = tmp_path / "acf.csv"
        rc = cli_main(
            ["residuals", str(series_path), "--method", "uls", "--max-lag", "20",
             "-o", str(out_path)]
        )
        assert rc == 0
        assert "fraction_inside=" in capsys.readouterr().out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "lag,acf,bound"
        assert len(lines) == 22  # header + lags 0..20

    @pytest.mark.parametrize("method", ["pcp", "wls"])
    def test_residuals_of_search_estimators(self, tmp_path, capsys, method):
        series_path = tmp_path / "s.csv"
        cli_main(["simulate", "--f-d", "-32", "-n", "100", "-o", str(series_path)])
        out_path = tmp_path / "acf.csv"
        rc = cli_main(
            ["residuals", str(series_path), "--method", method, "--max-lag", "20",
             "-o", str(out_path)]
        )
        assert rc == 0
        assert len(out_path.read_text().splitlines()) == 22

    def test_residuals_take_the_fit_flags_of_estimate(self, tmp_path):
        # residuals and estimate share one parser for the record and the fit
        series_path = tmp_path / "s.csv"
        cli_main(["simulate", "--f-d", "-32", "--snr-c-db", "30", "--snr-j-db", "30",
                  "-n", "200", "-o", str(series_path)])
        flags = ["--method", "wls", "--f-max", "200", "--no-refine"]
        est_path, acf_path = tmp_path / "est.csv", tmp_path / "acf.csv"
        assert cli_main(["estimate", str(series_path), *flags, "-o", str(est_path)]) == 0
        assert cli_main(["residuals", str(series_path), *flags, "-o", str(acf_path)]) == 0
        f_d, phi, rho = (float(v) for v in est_path.read_text().splitlines()[1].split(",")[1:4])
        report = residual_acf(read_series(str(series_path)), Estimate(f_d, phi, rho, "WLS"),
                              50, 1e-8, 5e-6)
        assert acf_path.read_text() == acf_to_csv(report)
        default = tmp_path / "default.csv"
        assert cli_main(["estimate", str(series_path), "--method", "wls", "-o", str(default)]) == 0
        assert default.read_bytes() != est_path.read_bytes()

    def test_search_estimators_reject_bad_time_stamps(self, tmp_path, capsys):
        # the command line takes a record as the uniform schedule of its span:
        # a gap of 1 us among gaps of 1 ms, or four missing samples, put the
        # stamps off its lattice
        t = np.concatenate([[0.0, 1e-6], 1e-6 + 1e-3 * np.arange(1, 199)])
        series = sample_series(N=200)
        path = tmp_path / "irregular.csv"
        write_series(str(path), RttSeries(t, series.values))
        gapped = tmp_path / "gapped.csv"
        keep = np.ones(len(series), dtype=bool)
        keep[[5, 6, 50, 120]] = False
        write_series(str(gapped), RttSeries(series.times[keep], series.values[keep]))
        single = tmp_path / "single.csv"
        write_series(str(single), RttSeries(t[:1], series.values[:1]))
        for method in ("pcp", "wls"):
            for bad in (path, gapped):
                assert cli_main(["estimate", str(bad), "--method", method]) == 2
                assert "uniformly spaced" in capsys.readouterr().err
            assert cli_main(["estimate", str(single), "--method", method]) == 2
            assert "at least 2 samples" in capsys.readouterr().err
        # edge-level records, whose emissions snap to master clock edges, pass
        edge = tmp_path / "edge.csv"
        cli_main(["simulate", "--generator", "edge", "-n", "100", "-o", str(edge)])
        assert np.ptp(np.diff(read_series(str(edge)).times)) > 0.0
        for method in ("pcp", "wls"):
            assert cli_main(["estimate", str(edge), "--method", method]) == 0

    def test_edge_record_off_whole_master_periods(self, tmp_path):
        # Ts = 0.000987654321 s is no whole number of 10 ns periods: the first
        # gap is off by up to one T_m, and a lattice built on it drifts 5.7e-3
        # Ts from the stamps over N=1000; the span's keeps them within 1e-5 Ts
        edge = tmp_path / "edge.csv"
        assert cli_main(["simulate", "--generator", "edge", "--ts", "0.000987654321",
                         "-n", "1000", "-o", str(edge)]) == 0
        for method in ("pcp", "wls"):
            out = tmp_path / f"{method}.csv"
            assert cli_main(["estimate", str(edge), "--method", method, "-o", str(out)]) == 0
            row = out.read_text().splitlines()[1].split(",")
            assert float(row[1]) == pytest.approx(-32.0, abs=0.5)

    def test_calibrate_command(self, tmp_path):
        pairs_path = tmp_path / "pairs.csv"
        ranges = np.linspace(1.0, 20.0, 10)
        rtts = 5e-6 + 2.0 * ranges / SPEED_OF_LIGHT
        rows = ["range_m,rtt_seconds"] + [
            f"{float(r)!r},{float(x)!r}" for r, x in zip(ranges, rtts)
        ]
        pairs_path.write_text("\n".join(rows) + "\n")
        out_path = tmp_path / "curve.json"
        rc = cli_main(["calibrate", str(pairs_path), "-o", str(out_path)])
        assert rc == 0
        curve = read_curve(str(out_path))
        assert curve.coefficients.size == 6

    @pytest.mark.parametrize("column", [0, 1], ids=["range", "rtt"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_calibrate_rejects_non_finite_pairs(self, tmp_path, capsys, column, value):
        # a non-finite range wrote NaN coefficients, which are not JSON and
        # which read_curve refuses; a non-finite RTT failed inside LAPACK
        ranges = np.linspace(1.0, 20.0, 9)
        rows = [[repr(float(r)), repr(5e-6 + 2.0 * float(r) / SPEED_OF_LIGHT)] for r in ranges]
        rows[4][column] = value
        pairs_path = tmp_path / "pairs.csv"
        pairs_path.write_text("range_m,rtt_seconds\n" + "".join(f"{a},{b}\n" for a, b in rows))
        out_path = tmp_path / "curve.json"
        assert cli_main(["calibrate", str(pairs_path), "-o", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rttsync: error: ") and err.count("\n") == 1
        assert "pairs must be finite" in err
        assert not out_path.exists()

    def test_parser_reused_without_leaking_state(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        series = sample_series(N=200)
        path = tmp_path / "s.csv"
        write_series(str(path), series)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main(["estimate", str(path), "--method", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert cli_main(["estimate", str(path), "--method", "wls", "--f-max", "200",
                         "--no-refine", "-o", str(a)]) == 0
        assert cli_main(["estimate", str(path), "--method", "wls", "-o", str(b)]) == 0
        grids = SearchGrids(len(series), 1e-3)
        est = wls_estimate(series, 1e-8, 5e-6, grids, robust_weights(series))
        assert b.read_bytes() == estimate_to_csv(est).encode()
        assert a.read_bytes() != b.read_bytes()

    def test_error_exit_code(self, tmp_path, capsys):
        rc = cli_main(["estimate", str(tmp_path / "missing.csv"), "--method", "uls"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_deterministic_rerun(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--f-d", "-32", "--snr-c-db", "30", "--snr-j-db", "30",
                "-n", "50", "--seed", "9"]
        cli_main(argv + ["-o", str(p1)])
        cli_main(argv + ["-o", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


@st.composite
def cli_cases(draw):
    """(times, values, method, f_max, refine) of `rttsync estimate` on a
    record as a file may hold one: N 1-300 stamps from t0 up to 1e12 s,
    every Ts in 1e-9-1 s, jittered or not (and repeating where t0 swamps
    Ts), holding a noisy sawtooth, noise alone, a constant or two values;
    f_max within, beyond or below the grid of the record's span."""
    n = draw(st.sampled_from([1, 2, 3, 4, 100, 300]) | st.integers(5, 300))
    t0 = draw(st.sampled_from([0.0, 0.37, 1e6, 1e12]) | st.floats(0.0, 1e12))
    ts = 10.0 ** draw(st.floats(-9.0, 0.0))
    jitter = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-6, 1e-2, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = t0 + ts * np.arange(n) + jitter * ts * rng.standard_normal(n)
    kind = draw(st.sampled_from(["sawtooth", "sawtooth", "noise", "constant", "two-valued"]))
    if kind == "sawtooth":
        f_d = draw(st.floats(-0.45, 0.45)) / ts
        y = (5e-6 + 1e-9 * rng.standard_normal(n)
             + sawtooth_template(t, f_d, draw(st.floats(0.0, 6.28)), 1e-8))
    elif kind == "noise":
        y = 5e-6 + 1e-8 * rng.random(n)
    elif kind == "constant":
        y = np.full(n, draw(st.floats(4e-6, 6e-6)))
    else:
        y = np.where(rng.random(n) < draw(st.floats(0.0, 1.0)), 5e-6, 5.005e-6)
    # as a fraction of the Nyquist frequency 1/(2 Ts)
    f_max = draw(st.sampled_from([None, None, 0.4, 1.5, 1e-3]))
    return (t, y, draw(st.sampled_from(["uls", "pcp", "wls"])),
            None if f_max is None else f_max / (2.0 * ts), draw(st.booleans()))


class TestCliBoundary:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(cli_cases())
    def test_estimate_is_the_library_composition_or_one_error(self, tmp_path_factory, case):
        # exit 0 with the public composition's bytes and warnings, or exit 2
        # with one error line and no output file where the library raises;
        # stamps are checked before the screen, so a record they reject
        # gives no zero-MAD warning
        t, y, method, f_max, refine = case
        tmp = tmp_path_factory.mktemp("boundary")
        path, out = tmp / "r.csv", tmp / "e.csv"
        path.write_text("t_seconds,y_seconds\n"
                        + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), y.tolist())))
        flags = [] if f_max is None else ["--f-max", repr(f_max)]
        flags += [] if refine else ["--no-refine"]
        rc, text, caught = cli_outcome(path, method, out, flags)
        want_rc, want_text, want_caught = library_outcome(path, method, f_max, refine)
        assert rc == want_rc
        if rc == 0:
            assert (text, caught) == (want_text, want_caught)
            assert all(math.isfinite(float(v)) for v in text.splitlines()[1].split(",")[1:])
        else:
            assert text.startswith("rttsync: error: ") and text.count("\n") == 1
            if len(t) > 1:  # one stamp: the CLI names the count, the grid its zero Ts
                assert text == want_text
