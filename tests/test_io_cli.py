import csv
import io
import json

import numpy as np
import pytest

from rttsync.analysis import calibrate_range
from rttsync.cli import _build_parser, cli_main
from rttsync.estimators import SearchGrids, robust_weights, uls_estimate, wls_estimate
from rttsync.io import (
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
)
from rttsync.montecarlo import ExperimentConfig, run_sweep


def sample_series(N=20, seed=0):
    clock = ClockTruth(1e8, -32.0, 1.0)
    link = LinkTruth(rho=2.0, delta0=5e-6)
    noise = NoiseSpec.from_snr(40.0, 40.0, 1e-8)
    return generate_series(SampleSchedule(0.0, 1e-3, N), clock, link, noise, seed=seed)


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

    def test_search_estimators_reject_bad_time_stamps(self, tmp_path, capsys):
        # the grid's Nyquist limit comes from the first gap: 1 us here, 1 ms after
        t = np.concatenate([[0.0, 1e-6], 1e-6 + 1e-3 * np.arange(1, 199)])
        series = sample_series(N=200)
        path = tmp_path / "irregular.csv"
        write_series(str(path), RttSeries(t, series.values))
        single = tmp_path / "single.csv"
        write_series(str(single), RttSeries(t[:1], series.values[:1]))
        for method in ("pcp", "wls"):
            assert cli_main(["estimate", str(path), "--method", method]) == 2
            assert "uniformly spaced" in capsys.readouterr().err
            assert cli_main(["estimate", str(single), "--method", method]) == 2
            assert "at least 2 samples" in capsys.readouterr().err
        # edge-level records, whose emissions snap to master clock edges, pass
        edge = tmp_path / "edge.csv"
        cli_main(["simulate", "--generator", "edge", "-n", "100", "-o", str(edge)])
        assert np.ptp(np.diff(read_series(str(edge)).times)) > 0.0
        for method in ("pcp", "wls"):
            assert cli_main(["estimate", str(edge), "--method", method]) == 0

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
        grids = SearchGrids.for_schedule(len(series), 1e-3)
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
