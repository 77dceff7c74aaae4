import types

import rttsync

# the public API: a name added here must have a caller outside the tests
PUBLIC_NAMES = {
    "SPEED_OF_LIGHT", "ClockTruth", "LinkTruth", "NoiseSpec", "RttSeries", "SampleSchedule",
    "generate_series", "sawtooth_template", "snr_to_sigma",
    "ExchangeConfig", "Oscillator", "equivalent_clock_truth", "next_edge", "simulate_campaign",
    "Estimate", "SearchGrids", "WeightVector", "pcp_estimate", "phase_error",
    "phase_error_seconds", "preprocess_outliers", "residuals", "robust_weights", "uls_estimate",
    "unwrap", "wls_cost", "wls_estimate",
    "ExperimentConfig", "OutlierSpec", "SweepReport", "run_sweep",
    "AcfReport", "CalibrationCurve", "apply_calibration", "calibrate_range", "residual_acf",
}


def test_package_exports_exactly_the_public_api():
    exported = {
        name for name, value in vars(rttsync).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
