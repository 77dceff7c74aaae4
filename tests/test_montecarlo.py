import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from rttsync import montecarlo
from rttsync.estimators import (
    SearchGrids,
    pcp_estimate,
    phase_error,
    preprocess_outliers,
    robust_weights,
    uls_estimate,
    wls_estimate,
)
from rttsync.io import report_to_csv
from rttsync.model import TWO_PI, ClockTruth, LinkTruth, NoiseSpec, SampleSchedule, generate_series
from rttsync.montecarlo import (
    ExperimentConfig,
    OutlierSpec,
    SweepReport,
    _summary,
    inject_outliers,
    run_sweep,
    run_trial,
)

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

    # each of these used to pass construction and then run (N=20.5 as 20)
    # or raise only once the sweep reached the bad point
    @pytest.mark.parametrize("axis, values", [
        ("N", (20.0, 20.5)),
        ("N", (1.0,)),
        ("N", (0.0, 10.0)),
        ("outlier_fraction", (0.1, 1.5)),
        ("outlier_fraction", (-0.1,)),
        ("f_d", (-32.0, 1e8)),
        ("f_d", (-2e8,)),
    ])
    def test_rejects_bad_sweep_values(self, axis, values):
        with pytest.raises(ValueError):
            base_config(sweep_axis=axis, sweep_values=values)

    def test_rejects_flight_time_beyond_update_period(self):
        with pytest.raises(ValueError, match="flight time"):
            base_config(link=LinkTruth(rho=2e5, delta0=5e-6))

    def test_points_follow_sweep_values(self):
        cfg = base_config(sweep_axis="N", sweep_values=(20.0, 40.0))
        assert [schedule.N for _, schedule, _, _ in cfg.points] == [20, 40]
        assert cfg == base_config(sweep_axis="N", sweep_values=(20.0, 40.0))

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


def serial_trial(cfg, sweep_idx, trial_seed):
    """One trial as the per-trial loop ran it before run_sweep stacked them:
    its own record from generate_series and inject_outliers, then each
    public one-record estimator; (f_d, phase, range) errors or None."""
    clock, schedule, noise, outliers = cfg.points[sweep_idx]
    phi_ss, series_ss, outlier_ss = np.random.SeedSequence(trial_seed).spawn(3)
    clock = dataclasses.replace(
        clock, phi=float(np.random.default_rng(phi_ss).uniform(0.0, TWO_PI)))
    series = generate_series(schedule, clock, cfg.link, noise, seed=series_ss)
    if outliers is not None and outliers.fraction > 0.0:
        series, _ = inject_outliers(series, outliers, outlier_ss)
    grids = SearchGrids.for_schedule(schedule.N, schedule.Ts)
    T_m, delta0 = clock.T_m, cfg.link.delta0
    results = {}
    for name in cfg.estimators:
        try:
            data = series
            if name != "WLS" and cfg.preprocess:
                data = preprocess_outliers(series)
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


def serial_report(cfg):
    """The report of the per-trial loop run_sweep replaced: every trial alone
    through serial_trial, its errors gathered per point and estimator and
    summarised by _summary one parameter at a time."""
    rows = []
    for sweep_idx, value in enumerate(cfg.sweep_values):
        collected = {name: [] for name in cfg.estimators}
        failures = {name: 0 for name in cfg.estimators}
        for it in range(cfg.M):
            for name, errs in serial_trial(cfg, sweep_idx, (cfg.seed, sweep_idx, it)).items():
                if errs is None:
                    failures[name] += 1
                else:
                    collected[name].append(errs)
        for name in cfg.estimators:
            errs = np.asarray(collected[name], dtype=float).reshape(-1, 3)
            per_param = {
                "fd_hz": errs[:, 0],
                "phi_s": errs[:, 1] * cfg.clock.T_m / TWO_PI,
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
                stats = _summary(e[None])
                row[f"rmse_{param}"] = stats["rmse"][0]
                for stat in ("p25", "p50", "p75", "min", "max"):
                    row[f"{stat}_{param}"] = stats[stat][0]
            rows.append(row)
    return SweepReport(sweep_axis=cfg.sweep_axis, rows=rows)


def zero_mad_warnings(sweep, cfg):
    """sweep(cfg) and how many zero-MAD fallback warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = sweep(cfg)
    return report, sum("zero MAD" in str(w.message) for w in caught)


ALL = ("ULS", "PCP", "WLS")

# stacked and one-trial-at-a-time runs must agree to the bit
STACKING_CASES = {
    # 5% outliers: the WLS rows keep different numbers of samples
    "outliers": dict(M=8, outliers=OutlierSpec(fraction=0.05), sweep_axis="snr_c",
                     sweep_values=(20.0, 40.0)),
    "raw_unrefined": dict(M=6, outliers=OutlierSpec(fraction=0.1), preprocess=False,
                          refine=False, sweep_axis="snr_j", sweep_values=(10.0, 30.0)),
    "n_sweep": dict(M=4, sweep_axis="N", sweep_values=(4.0, 20.0, 20.0, 64.0)),
    "fd_sweep": dict(M=5, sweep_axis="f_d", sweep_values=(-200.0, 0.0, 32.0, 450.0)),
    # PCP rejects every 3-sample record
    "pcp_fails": dict(M=5, schedule=SampleSchedule(0.0, 1e-3, 3)),
    # 2 samples are too few to screen: WLS and preprocessed ULS fail too
    "too_short": dict(M=3, sweep_axis="N", sweep_values=(2.0, 3.0)),
    # noiseless at f_d = 0: constant records (PCP's one-record path), and
    # with outliers a zero MAD with deviations (WLS's uniform-weight path)
    "zero_mad": dict(M=4, clock=ClockTruth(1e8, 0.0, 0.0), noise=NoiseSpec(),
                     outliers=OutlierSpec(fraction=0.1), sweep_axis="outlier_fraction",
                     sweep_values=(0.0, 0.1)),
}


class TestStackedSweep:
    @pytest.mark.parametrize("case", STACKING_CASES)
    def test_equals_serial_trials(self, case):
        cfg = base_config(estimators=ALL, **STACKING_CASES[case])
        report, warned = zero_mad_warnings(run_sweep, cfg)
        serial, serial_warned = zero_mad_warnings(serial_report, cfg)
        assert report.rows == serial.rows
        # the fallback keeps its warning, once per record
        assert warned == serial_warned == (cfg.M if case == "zero_mad" else 0)
        if case == "pcp_fails":
            assert report.row(0.0, "PCP")["n_failed"] == cfg.M
            assert report.row(0.0, "WLS")["n_failed"] == 0
        if case == "too_short":
            assert [report.row(2.0, name)["n_failed"] for name in ALL] == [cfg.M] * 3

    def test_stacks_split_across_points(self, monkeypatch):
        # 50 samples per record, 3 records per stack: stacks straddle points
        monkeypatch.setattr(montecarlo, "_STACK_SAMPLES", 150)
        cfg = base_config(estimators=ALL, M=4, outliers=OutlierSpec(fraction=0.05),
                          sweep_axis="f_d", sweep_values=(-32.0, 100.0))
        assert run_sweep(cfg).rows == serial_report(cfg).rows

    def test_run_trial_is_one_row_of_the_stack(self):
        cfg = base_config(estimators=ALL, **STACKING_CASES["outliers"])
        for sweep_idx, value in enumerate(cfg.sweep_values):
            for it in range(cfg.M):
                seed = (cfg.seed, sweep_idx, it)
                assert run_trial(cfg, value, seed) == serial_trial(cfg, sweep_idx, seed)


class TestTrialErrors:
    def test_unexpected_error_propagates(self, monkeypatch):
        # only estimator rejections of a record count as failed trials
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr("rttsync.estimators._wls_rows", broken)
        with pytest.raises(RuntimeError):
            run_trial(base_config(estimators=("WLS",)), 0.0, (0, 0, 0))

    def test_value_error_counts_as_failure(self, monkeypatch):
        def rejects(*args, **kwargs):
            raise ValueError("bad record")

        monkeypatch.setattr("rttsync.estimators._wls_rows", rejects)
        result = run_trial(base_config(estimators=("ULS", "WLS")), 0.0, (0, 0, 0))
        assert result["WLS"] is None and result["ULS"] is not None

