"""Two-way RTT clock sampling: simulation and joint estimation of range,
clock frequency difference, and clock phase."""

from .model import (
    SPEED_OF_LIGHT,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    RttSeries,
    SampleSchedule,
    generate_series,
    sawtooth_template,
    snr_to_sigma,
)
from .edge_sim import (
    ExchangeConfig,
    Oscillator,
    equivalent_clock_truth,
    simulate_campaign,
)
from .estimators import (
    Estimate,
    SearchGrids,
    WeightVector,
    pcp_estimate,
    phase_error,
    phase_error_seconds,
    preprocess_outliers,
    residuals,
    robust_weights,
    uls_estimate,
    unwrap,
    wls_estimate,
)
from .montecarlo import (
    ExperimentConfig,
    OutlierSpec,
    SweepReport,
    run_sweep,
)
from .analysis import (
    AcfReport,
    CalibrationCurve,
    apply_calibration,
    calibrate_range,
    residual_acf,
)

__version__ = "0.1.0"
