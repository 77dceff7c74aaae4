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
    "generate_series", "sawtooth_template", "snr_to_sigma",
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


@pytest.mark.parametrize("build, message", [
    (lambda: rttsync.ClockTruth(f_m=-1e8, f_d=0.0), "f_m must be positive"),
    (lambda: rttsync.LinkTruth(rho=-1.0, delta0=5e-6), "rho must be nonnegative"),
    (lambda: rttsync.LinkTruth(rho=2.0, delta0=0.0), "delta0 must be positive"),
    (lambda: rttsync.SampleSchedule(0.0, 0.0, 10), "Ts must be positive"),
    # at 1e12 s one ulp is 122 us: these 100 stamps hold 2 values, which a
    # sweep fitted as 100 distinct samples
    (lambda: rttsync.SampleSchedule(1e12, 1e-6, 100), "times must be strictly increasing"),
    (lambda: rttsync.NoiseSpec(sigma_v=-0.1), "must be nonnegative"),
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
], ids=["clock-f-m", "link-rho", "link-delta0", "schedule-ts", "schedule-collapse",
        "noise-sigma", "series-2d",
        "series-lengths", "weights-2d", "oscillator-f0", "oscillator-alpha", "exchange-rho",
        "unwrap-empty", "calibration-shape", "calibration-non-finite", "oscillator-f",
        "outlier-hi-infinite", "outlier-lo-infinite", "config-seed"])
def test_public_types_reject_bad_values(build, message):
    # bad input stops where it enters, with a ValueError that says why
    with pytest.raises(ValueError, match=message):
        build()
