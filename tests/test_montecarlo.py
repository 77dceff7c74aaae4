import hashlib

import numpy as np
import pytest

from rttsync.io import report_to_csv

from rttsync.model import ClockTruth, LinkTruth, NoiseSpec, SampleSchedule
from rttsync.montecarlo import (
    ExperimentConfig,
    OutlierSpec,
    inject_outliers,
    run_sweep,
    run_trial,
)
from rttsync.model import generate_series

T_M = 1e-8


def base_config(**kwargs):
    defaults = dict(
        clock=ClockTruth(1e8, -32.0, 0.0),
        link=LinkTruth(rho=2.0, delta0=5e-6),
        schedule=SampleSchedule(0.0, 1e-3, 50),
        noise=NoiseSpec.from_snr(40.0, 40.0, T_M),
        M=3,
        seed=123,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            base_config(sweep_axis="bogus")

    def test_rejects_unsorted_sweep(self):
        with pytest.raises(ValueError):
            base_config(sweep_axis="snr_c", sweep_values=(30.0, 10.0))

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            base_config(estimators=("ULS", "XYZ"))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            base_config(M=0)

    def test_outlier_spec_bounds(self):
        with pytest.raises(ValueError):
            OutlierSpec(fraction=1.5)
        with pytest.raises(ValueError):
            OutlierSpec(fraction=0.1, lo=2.0, hi=1.0)


class TestInjectOutliers:
    def test_count_and_range(self):
        clock = ClockTruth(1e8, -32.0, 1.0)
        link = LinkTruth(rho=2.0, delta0=5e-6)
        series = generate_series(SampleSchedule(0.0, 1e-3, 100), clock, link)
        spec = OutlierSpec(fraction=0.1)
        out, idx = inject_outliers(series, spec, seed=0)
        assert idx.size == 10
        assert np.all(np.diff(idx) > 0)
        assert np.all((out.values[idx] >= 3.5e-6) & (out.values[idx] <= 4.9e-6))
        mask = np.ones(100, dtype=bool)
        mask[idx] = False
        np.testing.assert_array_equal(out.values[mask], series.values[mask])

    def test_zero_fraction_noop(self):
        clock = ClockTruth(1e8, -32.0, 1.0)
        link = LinkTruth(rho=2.0, delta0=5e-6)
        series = generate_series(SampleSchedule(0.0, 1e-3, 20), clock, link)
        out, idx = inject_outliers(series, OutlierSpec(fraction=0.0), seed=0)
        assert idx.size == 0
        np.testing.assert_array_equal(out.values, series.values)

    def test_seed_determinism(self):
        clock = ClockTruth(1e8, -32.0, 1.0)
        link = LinkTruth(rho=2.0, delta0=5e-6)
        series = generate_series(SampleSchedule(0.0, 1e-3, 50), clock, link)
        spec = OutlierSpec(fraction=0.2)
        _, i1 = inject_outliers(series, spec, seed=5)
        _, i2 = inject_outliers(series, spec, seed=5)
        np.testing.assert_array_equal(i1, i2)


class TestRunTrial:
    def test_returns_errors_per_estimator(self):
        cfg = base_config()
        out = run_trial(cfg, 0.0, (123, 0, 0))
        assert set(out) == {"ULS", "PCP", "WLS"}
        for errs in out.values():
            assert len(errs) == 3
            assert all(np.isfinite(errs))

    def test_trial_seed_reproducible(self):
        cfg = base_config()
        a = run_trial(cfg, 0.0, (123, 0, 0))
        b = run_trial(cfg, 0.0, (123, 0, 0))
        assert a == b

    def test_different_iterations_differ(self):
        cfg = base_config()
        a = run_trial(cfg, 0.0, (123, 0, 0))
        b = run_trial(cfg, 0.0, (123, 0, 1))
        assert a["ULS"] != b["ULS"]

    def test_small_errors_at_high_snr(self):
        cfg = base_config(schedule=SampleSchedule(0.0, 1e-3, 100))
        out = run_trial(cfg, 0.0, (123, 0, 0))
        df, dphi, drho = out["WLS"]
        assert abs(df) < 2.0
        assert abs(drho) < 0.3


class TestRunSweep:
    def test_report_shape_and_columns(self):
        cfg = base_config(sweep_axis="snr_c", sweep_values=(20.0, 40.0))
        rep = run_sweep(cfg)
        assert len(rep.rows) == 2 * 3
        for row in rep.rows:
            assert set(row) == set(rep.COLUMNS)
            assert row["n_trials"] == 3

    def test_reproducible(self):
        cfg = base_config(estimators=("ULS",), sweep_values=(0.0,))
        r1 = run_sweep(cfg)
        r2 = run_sweep(cfg)
        assert r1.rows == r2.rows

    def test_report_bits_pinned(self):
        # ULS+PCP+WLS with outliers, M=6 so that every percentile
        # interpolates; any change to an estimate or a statistic moves the
        # digest of the report's shortest round-trip text
        cfg = base_config(
            M=6, outliers=OutlierSpec(fraction=0.05), sweep_axis="snr_c",
            sweep_values=(20.0, 40.0),
        )
        digest = hashlib.sha256(report_to_csv(run_sweep(cfg)).encode()).hexdigest()
        assert digest == "8f7351e89ae9ab038ab0cdfc729e2410bbe6e834030977f50bf0b283ff1805b3"

    def test_rmse_accessor(self):
        cfg = base_config(estimators=("ULS",))
        rep = run_sweep(cfg)
        assert rep.rmse(0.0, "ULS", "fd_hz") == rep.rows[0]["rmse_fd_hz"]
        with pytest.raises(KeyError):
            rep.rmse(1.0, "ULS", "fd_hz")

    def test_snr_sweep_improves_with_snr(self):
        cfg = base_config(
            sweep_axis="snr_c",
            sweep_values=(10.0, 50.0),
            estimators=("ULS",),
            M=20,
            schedule=SampleSchedule(0.0, 1e-3, 100),
        )
        rep = run_sweep(cfg)
        assert rep.rmse(50.0, "ULS", "rho_m") < rep.rmse(10.0, "ULS", "rho_m")

    def test_n_sweep_changes_record_length(self):
        cfg = base_config(
            sweep_axis="N", sweep_values=(20.0, 40.0), estimators=("ULS",), M=2
        )
        rep = run_sweep(cfg)
        assert {r["sweep_value"] for r in rep.rows} == {20.0, 40.0}

    def test_fd_sweep_uses_value_as_truth(self):
        cfg = base_config(
            sweep_axis="f_d",
            sweep_values=(-100.0, 100.0),
            estimators=("ULS",),
            M=5,
            schedule=SampleSchedule(0.0, 1e-3, 200),
        )
        rep = run_sweep(cfg)
        # errors are relative to the swept truth, so both points stay small
        assert rep.rmse(-100.0, "ULS", "fd_hz") < 5.0
        assert rep.rmse(100.0, "ULS", "fd_hz") < 5.0

    def test_outlier_sweep_degrades_uls(self):
        cfg = base_config(
            sweep_axis="outlier_fraction",
            sweep_values=(0.0, 0.3),
            estimators=("ULS",),
            M=10,
            preprocess=False,
            schedule=SampleSchedule(0.0, 1e-3, 100),
        )
        rep = run_sweep(cfg)
        assert rep.rmse(0.3, "ULS", "rho_m") > 3.0 * rep.rmse(0.0, "ULS", "rho_m")


class TestTrialErrors:
    def test_unexpected_error_propagates(self, monkeypatch):
        # only estimator rejections of a record count as failed trials
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr("rttsync.montecarlo.wls_estimate", broken)
        with pytest.raises(RuntimeError):
            run_trial(base_config(estimators=("WLS",)), 0.0, (0, 0, 0))

    def test_value_error_counts_as_failure(self, monkeypatch):
        def rejects(*args, **kwargs):
            raise ValueError("bad record")

        monkeypatch.setattr("rttsync.montecarlo.wls_estimate", rejects)
        result = run_trial(base_config(estimators=("ULS", "WLS")), 0.0, (0, 0, 0))
        assert result["WLS"] is None and result["ULS"] is not None

