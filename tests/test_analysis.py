import numpy as np
import pytest

from rttsync.analysis import (
    AcfReport,
    CalibrationCurve,
    apply_calibration,
    calibrate_range,
    residual_acf,
)
from rttsync.estimators import SearchGrids, residuals, uls_estimate, wls_estimate
from rttsync.model import (
    SPEED_OF_LIGHT,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    SampleSchedule,
    generate_series,
)

T_M = 1e-8
LINK = LinkTruth(rho=2.0, delta0=5e-6)


def noisy_series(seed=0, N=200, f_d=-32.0):
    clock = ClockTruth(1e8, f_d, 2.0)
    noise = NoiseSpec.from_snr(40.0, 40.0, T_M)
    return generate_series(SampleSchedule(0.0, 1e-3, N), clock, LINK, noise, seed=seed)


class TestResidualAcf:
    def test_white_residuals_pass(self):
        series = noisy_series(seed=1)
        g = SearchGrids(N=200, Ts=1e-3)
        est = wls_estimate(series, T_M, LINK.delta0, g)
        rep = residual_acf(series, est, max_lag=50, T_m=T_M, delta0=LINK.delta0)
        assert rep.passes
        assert rep.fraction_inside >= 0.95

    def test_wrong_template_fails(self):
        series = noisy_series(seed=1)
        est = uls_estimate(series, T_M, LINK.delta0)
        # doubling the frequency leaves a strong sawtooth in the residuals
        import dataclasses

        bad = dataclasses.replace(est, f_d_hat=2.0 * est.f_d_hat)
        rep = residual_acf(series, bad, max_lag=50, T_m=T_M, delta0=LINK.delta0)
        assert not rep.passes

    def test_acf_normalization(self):
        series = noisy_series(seed=2)
        est = uls_estimate(series, T_M, LINK.delta0)
        rep = residual_acf(series, est, max_lag=30, T_m=T_M, delta0=LINK.delta0)
        assert rep.acf[0] == 1.0
        assert np.all(np.abs(rep.acf) <= 1.0 + 1e-12)
        assert rep.bound == pytest.approx(2.5758293035489004 / np.sqrt(200), rel=1e-12)

    def test_matches_numpy_correlate_oracle(self):
        series = noisy_series(seed=3, N=64)
        est = uls_estimate(series, T_M, LINK.delta0)
        rep = residual_acf(series, est, max_lag=10, T_m=T_M, delta0=LINK.delta0)
        r = residuals(series, est, T_M, LINK.delta0)
        r = r - r.mean()
        full = np.correlate(r, r, mode="full")[r.size - 1 :]
        np.testing.assert_allclose(rep.acf, full[:11] / full[0], rtol=1e-10)

    def test_rejects_bad_lag(self):
        series = noisy_series(seed=4, N=50)
        est = uls_estimate(series, T_M, LINK.delta0)
        with pytest.raises(ValueError):
            residual_acf(series, est, max_lag=50, T_m=T_M, delta0=LINK.delta0)


class TestCalibration:
    def make_pairs(self, n=15, jitter=0.0, seed=0):
        rng = np.random.default_rng(seed)
        ranges = np.linspace(0.5, 30.0, n)
        rtts = 5e-6 + 0.5e-8 + 2.0 * ranges / SPEED_OF_LIGHT
        rtts = rtts + jitter * rng.standard_normal(n)
        return np.column_stack([ranges, rtts])

    def test_recovers_linear_map(self):
        pairs = self.make_pairs()
        curve = calibrate_range(pairs)
        for rho, rtt in pairs:
            assert apply_calibration(curve, rtt) == pytest.approx(rho, abs=1e-6)

    def test_recovers_known_polynomial(self):
        # synthesize ranges from a known degree-5 polynomial of the rtt
        rtts = 5e-6 + np.linspace(0.0, 2e-7, 12)
        offset = rtts.mean()
        scale = 0.5 * (rtts.max() - rtts.min())
        u = (rtts - offset) / scale
        true_c = np.array([3.0, 2.0, -1.0, 0.5, 0.2, -0.1])
        ranges = np.polynomial.polynomial.polyval(u, true_c)
        curve = calibrate_range(np.column_stack([ranges, rtts]))
        np.testing.assert_allclose(curve.coefficients, true_c, rtol=1e-8)

    def test_domain_warning(self):
        curve = calibrate_range(self.make_pairs())
        with pytest.warns(UserWarning):
            apply_calibration(curve, 1.0)

    def test_rejects_duplicate_rtts(self):
        pairs = self.make_pairs()
        pairs[3, 1] = pairs[4, 1]
        with pytest.raises(ValueError):
            calibrate_range(pairs)

    def test_rejects_too_few_pairs(self):
        with pytest.raises(ValueError):
            calibrate_range(self.make_pairs(n=6))

    def test_curve_requires_six_coefficients(self):
        with pytest.raises(ValueError):
            CalibrationCurve(
                coefficients=np.ones(5), offset=0.0, scale=1.0,
                domain_lo=0.0, domain_hi=1.0,
            )

    def test_in_domain(self):
        curve = calibrate_range(self.make_pairs())
        assert curve.in_domain(curve.domain_lo)
        assert curve.in_domain(curve.domain_hi)
        assert not curve.in_domain(curve.domain_hi * 1.1)
