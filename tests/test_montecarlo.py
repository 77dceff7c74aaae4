import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    _outlier_draws,
    _quartiles,
    _run_stack,
    run_sweep,
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

    # an empty list failed in run_sweep with numpy's "need at least one array
    # to stack"; a repeated name ran that estimator twice; an empty sweep
    # gave a header-only report
    @pytest.mark.parametrize("kwargs, message", [
        (dict(estimators=()), "estimators must be one or more"),
        (dict(estimators=("ULS", "WLS", "ULS")), "each named once"),
        (dict(sweep_axis="snr_c", sweep_values=()), "one or more finite"),
    ])
    def test_rejects_empty_or_repeated_lists(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            base_config(**kwargs)

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

    def test_rejects_n_whose_stamps_collapse(self):
        # below 2**33 s a 1 us step is about one ulp, above it about half of
        # one: N = 10 keeps its stamps distinct, N = 100 rounds some together
        base = SampleSchedule(2.0**33 - 1e-5, 1e-6, 10)
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            base_config(schedule=base, sweep_axis="N", sweep_values=(10.0, 100.0))

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
        idx, drawn = _outlier_draws(100, OutlierSpec(fraction=0.1), seed=0)
        assert idx.size == drawn.size == 10
        assert np.all(np.diff(idx) > 0) and 0 <= idx[0] and idx[-1] < 100
        assert np.all((drawn >= 3.5e-6) & (drawn <= 4.9e-6))

    def test_zero_fraction_noop(self):
        idx, drawn = _outlier_draws(20, OutlierSpec(fraction=0.0), seed=0)
        assert idx.size == drawn.size == 0

    def test_seed_determinism(self):
        spec = OutlierSpec(fraction=0.2)
        i1, v1 = _outlier_draws(50, spec, seed=5)
        i2, v2 = _outlier_draws(50, spec, seed=5)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(v1, v2)


class TestRunTrial:
    """One trial per point: run_sweep at M=1, where the RMSE is |error|."""

    def test_returns_errors_per_estimator(self):
        rep = run_sweep(base_config(M=1))
        assert [r["estimator"] for r in rep.rows] == ["ULS", "PCP", "WLS"]
        for row in rep.rows:
            assert row["n_failed"] == 0
            assert all(np.isfinite(row[f"rmse_{p}"]) for p in ("fd_hz", "phi_s", "rho_m"))

    def test_trial_seed_reproducible(self):
        cfg = base_config(M=1)
        assert run_sweep(cfg).rows == run_sweep(cfg).rows

    def test_different_iterations_differ(self):
        row = run_sweep(base_config(M=2, estimators=("ULS",))).row(0.0, "ULS")
        assert row["min_fd_hz"] != row["max_fd_hz"]

    def test_small_errors_at_high_snr(self):
        rep = run_sweep(base_config(M=1, schedule=SampleSchedule(0.0, 1e-3, 100)))
        assert rep.row(0.0, "WLS")["rmse_fd_hz"] < 2.0
        assert rep.row(0.0, "WLS")["rmse_rho_m"] < 0.3


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
        assert digest == "552a01a77def2081c69280dd7a86c2b5901f67ae203d06509416d9f027351490"

    # the shapes of the bench's sweeps: criterion 5 at M=1 (every percentile
    # of one trial) and criterion 3 at M=5, WLS only
    @pytest.mark.parametrize("shape, digest", [
        (dict(schedule=SampleSchedule(0.0, 1e-3, 200), noise=NoiseSpec.from_snr(20.0, 20.0, T_M),
              M=1, sweep_axis="f_d", sweep_values=(-200.0, -100.0, -32.0, 32.0, 100.0, 200.0)),
         "e0197186ad04fec0ba124c65d95ef5c616c3dc6394459072f6bdf70c3d072e53"),
        (dict(schedule=SampleSchedule(0.0, 1e-3, 100), noise=NoiseSpec.from_snr(40.0, 40.0, T_M),
              M=5, estimators=("WLS",)),
         "c33b3a1b0a7cce670ec107a38577b0062cbeb5e88486b9302557e27aed87fa58"),
    ], ids=["c5", "c3"])
    def test_bench_shape_bits_pinned(self, shape, digest):
        cfg = base_config(seed=11, **shape)
        assert hashlib.sha256(report_to_csv(run_sweep(cfg)).encode()).hexdigest() == digest

    def test_row_accessor(self):
        cfg = base_config(estimators=("ULS",))
        rep = run_sweep(cfg)
        assert rep.row(0.0, "ULS") is rep.rows[0]
        with pytest.raises(KeyError):
            rep.row(1.0, "ULS")

    def test_snr_sweep_improves_with_snr(self):
        cfg = base_config(
            sweep_axis="snr_c",
            sweep_values=(10.0, 50.0),
            estimators=("ULS",),
            M=20,
            schedule=SampleSchedule(0.0, 1e-3, 100),
        )
        rep = run_sweep(cfg)
        assert rep.row(50.0, "ULS")["rmse_rho_m"] < rep.row(10.0, "ULS")["rmse_rho_m"]

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
        assert rep.row(-100.0, "ULS")["rmse_fd_hz"] < 5.0
        assert rep.row(100.0, "ULS")["rmse_fd_hz"] < 5.0

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
        assert rep.row(0.3, "ULS")["rmse_rho_m"] > 3.0 * rep.row(0.0, "ULS")["rmse_rho_m"]


class TestCramerRao:
    """ULS and WLS stay efficient: their f_d RMSE sits within 1.25x of the
    single-tone Cramer-Rao bound (Rife & Boorstyn 1974; Kay 1993, sec. 3.11)
    on the circular phase z = exp(2 pi j (y - delta0)/T_m). Its phase noise
    has variance s2 = sigma_v^2 + (2 pi sigma_n/T_m)^2, so
    var(f_hat) >= 12 s2 / ((2 pi Ts)^2 N (N^2 - 1)). This holds however an
    estimate's last bits move; a pinned digest does not. At M=200 the RMSE
    carries about 5% sampling spread; the worst ratio read 1.08.

    PCP gets no bound: it is not efficient. A real, non-sinusoidal record
    leaves it a noiseless bias floor (0.46 Hz at N=100, f_d = +-32 Hz), and it
    reads 1.7-34x the bound (ROADMAP, the diagnostics item)."""

    @pytest.mark.parametrize("f_d", [-32.0, 77.7])
    @pytest.mark.parametrize("snr_c_db", [30.0, 40.0])
    def test_fd_rmse_near_bound(self, snr_c_db, f_d):
        noise = NoiseSpec.from_snr(snr_c_db, 30.0, T_M)
        s2 = noise.sigma_v**2 + (TWO_PI * noise.sigma_n / T_M) ** 2
        sizes = (64.0, 100.0, 200.0, 1000.0)
        rep = run_sweep(base_config(
            clock=ClockTruth(1e8, f_d, 0.0), noise=noise, M=200, seed=7,
            estimators=("ULS", "WLS"), sweep_axis="N", sweep_values=sizes))
        for N in sizes:
            crb = math.sqrt(12.0 * s2 / ((TWO_PI * 1e-3) ** 2 * N * (N * N - 1.0)))
            for name in ("ULS", "WLS"):
                assert rep.row(N, name)["rmse_fd_hz"] < 1.25 * crb, (name, N)


def serial_trial(cfg, sweep_idx, trial_seed):
    """One trial as the per-trial loop ran it before run_sweep stacked them:
    its own record from generate_series with round(fraction*N) samples
    replaced by uniform draws at sorted random positions, then each public
    one-record estimator; (f_d, phase, range) errors or None."""
    clock, schedule, noise, outliers = cfg.points[sweep_idx]
    phi_ss, series_ss, outlier_ss = np.random.SeedSequence(trial_seed).spawn(3)
    clock = dataclasses.replace(
        clock, phi=float(np.random.default_rng(phi_ss).uniform(0.0, TWO_PI)))
    series = generate_series(schedule, clock, cfg.link, noise, seed=series_ss)
    if outliers is not None and outliers.fraction > 0.0:
        rng = np.random.default_rng(outlier_ss)
        count = int(round(outliers.fraction * schedule.N))
        idx = np.sort(rng.choice(schedule.N, size=count, replace=False))
        values = series.values.copy()
        values[idx] = rng.uniform(outliers.lo, outliers.hi, size=count)
        series = series.with_values(values)
    grids = SearchGrids(schedule.N, schedule.Ts)
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
        except ValueError:
            results[name] = None
    return results


def serial_summary(e):
    """RMSE, quartiles and extremes of one parameter's errors e (n,), each
    with its own numpy call; the math.nan object for every statistic when
    no trial was kept."""
    if not e.size:
        return dict.fromkeys(("rmse", "p25", "p50", "p75", "min", "max"), math.nan)
    p25, p50, p75 = np.percentile(e, (25, 50, 75)).tolist()
    return {"rmse": float(np.sqrt(np.mean(e**2))), "p25": p25, "p50": p50, "p75": p75,
            "min": float(np.min(e)), "max": float(np.max(e))}


def serial_report(cfg, rejected=()):
    """The report of the per-trial loop run_sweep replaced: every trial alone
    through serial_trial, its errors gathered per point and estimator and
    summarised by serial_summary one parameter at a time. A trial
    (estimator, sweep index, iteration) in rejected counts as failed."""
    rows = []
    for sweep_idx, value in enumerate(cfg.sweep_values):
        collected = {name: [] for name in cfg.estimators}
        failures = {name: 0 for name in cfg.estimators}
        for it in range(cfg.M):
            for name, errs in serial_trial(cfg, sweep_idx, (cfg.seed, sweep_idx, it)).items():
                if errs is None or (name, sweep_idx, it) in rejected:
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
                stats = serial_summary(np.ascontiguousarray(e))
                for stat in ("rmse", "p25", "p50", "p75", "min", "max"):
                    row[f"{stat}_{param}"] = stats[stat]
            rows.append(row)
    return SweepReport(sweep_axis=cfg.sweep_axis, rows=rows)


def zero_mad_warnings(sweep, cfg):
    """sweep(cfg) and how many records its zero-MAD fallback warnings name:
    one per warning of a single record, the count a stack's warning gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = sweep(cfg)
    records = 0
    for w in caught:
        if "zero MAD" in str(w.message):
            count = re.search(r"in (\d+) of \d+ records", str(w.message))
            records += int(count.group(1)) if count else 1
    return report, records


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
    # without pre-processing ULS fits the raw 2-sample records all the same
    "too_short_raw": dict(M=3, preprocess=False, sweep_axis="N", sweep_values=(2.0, 3.0, 4.0)),
    # noiseless at f_d = 0: constant records (PCP's closed form), and with
    # outliers a zero MAD with deviations (WLS's uniform weights)
    "zero_mad": dict(M=4, clock=ClockTruth(1e8, 0.0, 0.0), noise=NoiseSpec(),
                     outliers=OutlierSpec(fraction=0.1), sweep_axis="outlier_fraction",
                     sweep_values=(0.0, 0.1)),
    # the same records in one stack with ordinary ones (f_d = 32 Hz)
    "mixed_constant": dict(M=4, noise=NoiseSpec(), sweep_axis="f_d", sweep_values=(0.0, 32.0)),
    "mixed_zero_mad": dict(M=4, noise=NoiseSpec(), outliers=OutlierSpec(fraction=0.1),
                           sweep_axis="f_d", sweep_values=(0.0, 32.0)),
    # stamps counted from an epoch, off the 1 ms lattice in float: PCP and
    # WLS reject them (check_sampling), ULS does not check stamps
    "epoch_off_lattice": dict(M=3, schedule=SampleSchedule(1e11, 1e-3, 50)),
}

# cases whose f_d = 0 records fall back to uniform WLS weights, one per trial
ZERO_MAD_CASES = ("zero_mad", "mixed_zero_mad")


class TestStackedSweep:
    @pytest.mark.parametrize("case", STACKING_CASES)
    def test_equals_serial_trials(self, case):
        cfg = base_config(estimators=ALL, **STACKING_CASES[case])
        report, warned = zero_mad_warnings(run_sweep, cfg)
        serial, serial_warned = zero_mad_warnings(serial_report, cfg)
        assert report.rows == serial.rows
        # the fallback is reported for every record, one warning per stack
        assert warned == serial_warned == (cfg.M if case in ZERO_MAD_CASES else 0)
        if case == "pcp_fails":
            assert report.row(0.0, "PCP")["n_failed"] == cfg.M
            assert report.row(0.0, "WLS")["n_failed"] == 0
        if case == "too_short":
            assert [report.row(2.0, name)["n_failed"] for name in ALL] == [cfg.M] * 3
        if case == "too_short_raw":
            assert [report.row(2.0, name)["n_failed"] for name in ALL] == [0, cfg.M, cfg.M]
        if case == "epoch_off_lattice":
            assert [report.row(0.0, name)["n_failed"] for name in ALL] == [0, cfg.M, cfg.M]

    def test_stacks_split_across_points(self, monkeypatch):
        # 50 samples per record, 3 records per stack: stacks straddle points
        monkeypatch.setattr(montecarlo, "_STACK_SAMPLES", 150)
        cfg = base_config(estimators=ALL, M=4, outliers=OutlierSpec(fraction=0.05),
                          sweep_axis="f_d", sweep_values=(-32.0, 100.0))
        assert run_sweep(cfg).rows == serial_report(cfg).rows

    def test_rows_keep_some_trials(self, monkeypatch):
        # 3 records per stack and ULS rejects the second stack, trials 3-5:
        # point -32 keeps 3 of 4 ULS trials, point 100 keeps 2, and each
        # other estimator all 4, so the summary sees n = 2, 3 and 4
        monkeypatch.setattr(montecarlo, "_STACK_SAMPLES", 150)
        uls_rows, calls = montecarlo.estimators._uls_rows, []

        def second_stack_rejected(*args):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("rejected")
            return uls_rows(*args)

        monkeypatch.setattr(montecarlo.estimators, "_uls_rows", second_stack_rejected)
        cfg = base_config(estimators=ALL, M=4, outliers=OutlierSpec(fraction=0.05),
                          sweep_axis="f_d", sweep_values=(-32.0, 100.0))
        report = run_sweep(cfg)
        assert [report.row(v, "ULS")["n_failed"] for v in (-32.0, 100.0)] == [1, 2]
        rejected = {("ULS", 0, 3), ("ULS", 1, 0), ("ULS", 1, 1)}
        assert report.rows == serial_report(cfg, rejected).rows

    def test_one_row_stack_equals_serial_trial(self):
        cfg = base_config(estimators=ALL, **STACKING_CASES["outliers"])
        for sweep_idx, point in enumerate(cfg.points):
            schedule = point[1]
            grids = SearchGrids(schedule.N, schedule.Ts)
            for it in range(cfg.M):
                seed = (cfg.seed, sweep_idx, it)
                errors = _run_stack(cfg, schedule, grids, [point], [seed])
                assert {name: tuple(err[0].tolist()) for name, err in errors.items()} == \
                    serial_trial(cfg, sweep_idx, seed)


class TestQuartiles:
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 60)),
                  elements=st.one_of(st.sampled_from((0.0, 1.0, -2.5, 1e-300)),
                                     st.floats(-1e300, 1e300))))
    def test_bits_equal_np_percentile(self, x):
        x = x + 0.0  # no -0.0: numpy's partition may order mixed zeros otherwise
        got = _quartiles(np.sort(x, axis=-1))
        want = np.percentile(x, (25, 50, 75), axis=-1).T
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestTrialErrors:
    def test_unexpected_error_propagates(self, monkeypatch):
        # only estimator rejections of a record count as failed trials
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr("rttsync.estimators._wls_rows", broken)
        with pytest.raises(RuntimeError):
            run_sweep(base_config(M=1, estimators=("WLS",)))

    def test_value_error_counts_as_failure(self, monkeypatch):
        def rejects(*args, **kwargs):
            raise ValueError("bad record")

        monkeypatch.setattr("rttsync.estimators._wls_rows", rejects)
        rep = run_sweep(base_config(M=1, estimators=("ULS", "WLS")))
        assert rep.row(0.0, "WLS")["n_failed"] == 1 and rep.row(0.0, "ULS")["n_failed"] == 0

