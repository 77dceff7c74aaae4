import ast
import inspect
import math
import textwrap
import types

import numpy as np
import pytest

import rttsync
from rttsync import cli, estimators, montecarlo

# the public API: a name added here must have a caller outside the tests
PUBLIC_NAMES = {
    "SPEED_OF_LIGHT", "ClockTruth", "LinkTruth", "NoiseSpec", "RttSeries", "SampleSchedule",
    "generate_series", "sawtooth_template",
    "ExchangeConfig", "Oscillator", "equivalent_clock_truth", "simulate_campaign",
    "Estimate", "SearchGrids", "WeightVector", "pcp_estimate", "phase_error",
    "phase_error_seconds", "preprocess_outliers", "residuals", "robust_weights", "uls_estimate",
    "unwrap", "wls_estimate",
    "ExperimentConfig", "OutlierSpec", "SweepReport", "run_sweep",
    "AcfReport", "CalibrationCurve", "apply_calibration", "calibrate_range", "residual_acf",
}


def test_package_exports_exactly_the_public_api():
    exported = {
        name for name, value in vars(rttsync).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("source, allowed", [
    (montecarlo, {"_estimate_stack"}),
    (cli, {"_estimate_record", "_check_clock"}),
    (estimators.uls_estimate, {"_estimate_record"}),
    (estimators.pcp_estimate, {"_estimate_record"}),
    (estimators.wls_estimate, {"_estimate_record"}),
], ids=["montecarlo", "cli", "uls_estimate", "pcp_estimate", "wls_estimate"])
def test_reaches_estimators_only_through_estimate_stack(source, allowed):
    # the outlier screen, the stamp check, the row kernels and the Estimate
    # build of a sweep, of the command line and of the public one-record
    # estimators live in estimators' _estimate_stack and _estimate_record,
    # stated once; the CLI checks the clock before it builds its span grid
    text = textwrap.dedent(inspect.getsource(source))
    tree = ast.parse(text)
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "estimators"
    }
    names |= {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "estimators"
        for alias in node.names
    }
    if not inspect.ismodule(source):  # a function of estimators names them bare
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name for name in names if name.startswith("_") and hasattr(estimators, name)} \
        == allowed
    protocol = {"robust_weights", "preprocess_outliers", "uls_estimate", "pcp_estimate",
                "wls_estimate", "check_sampling"} - {source.__name__}
    assert [name for name in sorted(protocol) if name in text] == []


def _config(**fields):
    return rttsync.ExperimentConfig(**{
        "clock": rttsync.ClockTruth(1e8, -32.0), "link": rttsync.LinkTruth(2.0, 5e-6),
        "schedule": rttsync.SampleSchedule(0.0, 1e-3, 30), "noise": rttsync.NoiseSpec(),
        **fields})


@pytest.mark.parametrize("build, message", [
    (lambda: rttsync.ClockTruth(f_m=-1e8, f_d=0.0), "f_m must be positive"),
    (lambda: rttsync.LinkTruth(rho=-1.0, delta0=5e-6), "rho must be nonnegative"),
    (lambda: rttsync.LinkTruth(rho=2.0, delta0=0.0), "delta0 must be positive"),
    (lambda: rttsync.SampleSchedule(0.0, 0.0, 10), "Ts must be positive"),
    # at 1e12 s one ulp is 122 us: these 100 stamps hold 2 values, which a
    # sweep fitted as 100 distinct samples
    (lambda: rttsync.SampleSchedule(1e12, 1e-6, 100), "times must be strictly increasing"),
    (lambda: rttsync.NoiseSpec(sigma_v=-0.1), "must be nonnegative"),
    # 10**350 overflows a float: an OverflowError traceback
    (lambda: rttsync.NoiseSpec.from_snr(-7000.0, 0.0, 1e-8),
     "snr_c_db of -7000 dB is too low"),
    (lambda: rttsync.NoiseSpec.from_snr(0.0, -7000.0, 1e-8),
     "snr_j_db of -7000 dB is too low"),
    # these read "noise standard deviations must be finite", naming no SNR:
    # 2pi * 10**308 overflows to inf without an OverflowError
    (lambda: rttsync.NoiseSpec.from_snr(0.0, -6160.0, 1e-8),
     "^snr_j_db of -6160 dB is too low"),
    (lambda: rttsync.NoiseSpec.from_snr(math.nan, 0.0, 1e-8), "^snr_c_db must be a number"),
    (lambda: rttsync.NoiseSpec.from_snr(-math.inf, 0.0, 1e-8),
     "^snr_c_db of -inf dB is too low"),
    (lambda: rttsync.RttSeries(np.zeros((2, 2)), np.zeros((2, 2))), "must be 1-D"),
    (lambda: rttsync.RttSeries([0.0, 1.0], [5e-6]), "equal length"),
    (lambda: rttsync.WeightVector(np.ones((2, 2))), "must be 1-D"),
    (lambda: rttsync.Oscillator(f0=-1e8), "f0 must be positive"),
    (lambda: rttsync.Oscillator(f0=1e8, alpha=0.0), "alpha must be positive"),
    (lambda: rttsync.ExchangeConfig(K=500, rho=-1.0), "rho must be nonnegative"),
    (lambda: rttsync.unwrap([]), "empty input"),
    (lambda: rttsync.calibrate_range(np.ones((7, 3))), "range_m, rtt_s"),
    (lambda: rttsync.calibrate_range(np.full((9, 2), math.nan)), "pairs must be finite"),
    (lambda: rttsync.Oscillator.from_frequency(f0=1e8, f=0.0), "f must be positive"),
    (lambda: rttsync.OutlierSpec(0.1, hi=math.inf), "lo and hi must be finite"),
    (lambda: rttsync.OutlierSpec(0.1, lo=-math.inf), "lo and hi must be finite"),
    (lambda: rttsync.ExperimentConfig(
        rttsync.ClockTruth(1e8, -32.0), rttsync.LinkTruth(2.0, 5e-6),
        rttsync.SampleSchedule(0.0, 1e-3, 30), rttsync.NoiseSpec(), seed=-1),
     "seed must be nonnegative"),
    # each of these failed inside run_sweep, with an AttributeError or a TypeError
    (lambda: _config(outliers=None), "^outliers must be an instance of OutlierSpec"),
    (lambda: _config(noise=None), "^noise must be an instance of NoiseSpec"),
    (lambda: _config(clock=(1e8, -32.0)), "^clock must be an instance of ClockTruth"),
    (lambda: _config(seed=1.5), "^seed must be an integer"),
    (lambda: _config(M=2.0), "^M must be an integer"),
], ids=["clock-f-m", "link-rho", "link-delta0", "schedule-ts", "schedule-collapse",
        "noise-sigma", "noise-snr-c-overflow", "noise-snr-j-overflow", "noise-snr-j-inf",
        "noise-snr-nan", "noise-snr-minus-inf", "series-2d",
        "series-lengths", "weights-2d", "oscillator-f0", "oscillator-alpha", "exchange-rho",
        "unwrap-empty", "calibration-shape", "calibration-non-finite", "oscillator-f",
        "outlier-hi-infinite", "outlier-lo-infinite", "config-seed", "config-outliers-none",
        "config-noise-none", "config-clock-tuple", "config-seed-float", "config-m-float"])
def test_public_types_reject_bad_values(build, message):
    # bad input stops where it enters, with a ValueError that says why
    with pytest.raises(ValueError, match=message):
        build()
