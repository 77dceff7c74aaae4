import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rttsync.model import (
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

TWO_PI = 2.0 * math.pi

CLOCK = ClockTruth(f_m=1e8, f_d=-32.0, phi=0.0)
LINK = LinkTruth(rho=2.0, delta0=5e-6)


def count_wraps(values):
    """Indices where the sawtooth jumps by more than half its amplitude."""
    return np.flatnonzero(np.abs(np.diff(values)) > 0.5e-8)


class TestRemainder:
    def test_zero_arguments(self):
        assert sawtooth_template(123.456, 0.0, 0.0, 1e-8) == 0.0

    def test_half_scale_point(self):
        assert sawtooth_template(3.0, 0.0, math.pi, 1e-8) == pytest.approx(5e-9, rel=1e-12)

    def test_wrap_period_matches_inverse_fd(self):
        # noiseless sawtooth at f_d=-32 Hz, Ts=1e-3: wrap-to-wrap spacing
        # should average 1/|f_d| = 31.25 ms, i.e. 31.25 samples
        t = 1e-3 * np.arange(10_000)
        y = sawtooth_template(t, -32.0, 1.3, 1e-8)
        wraps = count_wraps(y)
        periods = np.diff(wraps) * 1e-3
        assert np.mean(periods) == pytest.approx(1.0 / 32.0, rel=1e-3)
        assert len(wraps) == pytest.approx(10.0 * 32.0, abs=1)

    def test_periodicity(self):
        t = np.linspace(0.0, 0.03, 57)
        for k in (1, 2, 5):
            np.testing.assert_allclose(
                sawtooth_template(t + k / 32.0, -32.0, 2.2, 1e-8),
                sawtooth_template(t, -32.0, 2.2, 1e-8),
                rtol=1e-9, atol=1e-20,
            )

    @given(
        t=st.floats(-10.0, 10.0),
        f_d=st.floats(-1000.0, 1000.0),
        phi=st.floats(0.0, TWO_PI, exclude_max=True),
        v=st.floats(-50.0, 50.0),
    )
    def test_bounds(self, t, f_d, phi, v):
        h = float(sawtooth_template(t, f_d, phi, 1e-8, v))
        # upper edge reachable by rounding when the wrapped angle is 2*pi - eps
        assert 0.0 <= h <= 1e-8

    def test_range_and_period(self):
        t = 1e-3 * np.arange(1000)
        p = sawtooth_template(t, -32.0, 1.0, 1e-8)
        assert p.min() >= 0.0 and p.max() < 1e-8

    def test_zero_frequency_constant(self):
        p = sawtooth_template(np.arange(5.0), 0.0, math.pi, 1e-8)
        np.testing.assert_allclose(p, 0.5e-8, rtol=1e-12)

    def test_noisy_series_matches_inline_formula_exactly(self):
        # generate_series must add jitter inside the wrap in the order
        # 2pi*f_d*t + phi + v, bit for bit
        sched = SampleSchedule(0.0, 1e-3, 500)
        clock = ClockTruth(1e8, -32.0, 2.0)
        noise = NoiseSpec.from_snr(30.0, 20.0, clock.T_m)
        series = generate_series(sched, clock, LINK, noise, seed=5)
        rng = np.random.default_rng(5)
        v = rng.normal(0.0, noise.sigma_v, sched.N)
        n = rng.normal(0.0, noise.sigma_n, sched.N)
        t = sched.times()
        h = (clock.T_m / TWO_PI) * np.mod(TWO_PI * clock.f_d * t + clock.phi + v, TWO_PI)
        expected = h + LINK.delta0 + LINK.flight_time + n
        np.testing.assert_array_equal(series.values, expected)


class TestRttSample:
    """Noiseless samples of generate_series: remainder + delta0 + 2*rho/c."""

    def test_modulus_vanishes(self):
        clock = ClockTruth(f_m=1e8, f_d=0.0, phi=0.0)
        expected = 5e-6 + 4.0 / SPEED_OF_LIGHT
        y = generate_series(SampleSchedule(0.7, 1e-3, 2), clock, LINK).values
        assert y[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.013342e-6, rel=1e-6)

    def test_half_period_offset_adds_5ns(self):
        sched = SampleSchedule(0.0, 1e-3, 2)
        base = generate_series(sched, ClockTruth(1e8, 0.0, 0.0), LINK).values[0]
        shifted = generate_series(sched, ClockTruth(1e8, 0.0, math.pi), LINK).values[0]
        assert shifted - base == pytest.approx(5e-9, rel=1e-9)

    def test_default_link_sawtooth_amplitude(self):
        sched = SampleSchedule(0.0, 1e-3, 1000)
        y = generate_series(sched, ClockTruth(1e8, -32.0, 2.0), LINK).values
        offset = LINK.delta0 + LINK.flight_time
        assert y.min() >= offset
        assert y.max() < offset + 1e-8
        assert y.max() - y.min() > 0.9e-8  # ~10 ns sawtooth swing


class TestSnrConversion:
    def test_snr_c_40db(self):
        sigma_n, _ = snr_to_sigma(40.0, 0.0, 1e-8)
        assert sigma_n == pytest.approx(1e-10, rel=1e-12)

    def test_snr_j_0db(self):
        _, sigma_v = snr_to_sigma(0.0, 0.0, 1e-8)
        assert sigma_v == pytest.approx(TWO_PI, rel=1e-12)

    def test_snr_j_20db(self):
        _, sigma_v = snr_to_sigma(0.0, 20.0, 1e-8)
        assert sigma_v == pytest.approx(TWO_PI / 10.0, rel=1e-12)

    def test_round_trip(self):
        # invert through the defining SNR formulas
        sigma_n, sigma_v = snr_to_sigma(37.0, 23.0, 1e-8)
        assert 10.0 * math.log10(1e-16 / sigma_n**2) == pytest.approx(37.0, rel=1e-12)
        assert 10.0 * math.log10(TWO_PI**2 / sigma_v**2) == pytest.approx(23.0, rel=1e-12)

    def test_noisespec_round_trip(self):
        spec = NoiseSpec.from_snr(40.0, 20.0, 1e-8)
        assert 20.0 * math.log10(1e-8 / spec.sigma_n) == pytest.approx(40.0, rel=1e-12)
        assert 20.0 * math.log10(TWO_PI / spec.sigma_v) == pytest.approx(20.0, rel=1e-12)


class TestGenerateSeries:
    def test_noiseless_zero_fd_is_constant(self):
        sched = SampleSchedule(0.0, 1e-3, 50)
        s = generate_series(sched, ClockTruth(1e8, 0.0, 1.0), LINK)
        assert np.ptp(s.values) == 0.0

    def test_seed_reproducibility(self):
        sched = SampleSchedule(0.0, 1e-3, 200)
        noise = NoiseSpec.from_snr(30.0, 30.0, 1e-8)
        a = generate_series(sched, CLOCK, LINK, noise, seed=42)
        b = generate_series(sched, CLOCK, LINK, noise, seed=42)
        c = generate_series(sched, CLOCK, LINK, noise, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_mean_approaches_offset_plus_half_period(self):
        # with phi uniform the sawtooth averages to T_m/2
        sched = SampleSchedule(0.0, 1e-3, 20_000)
        rng = np.random.default_rng(7)
        means = []
        for _ in range(20):
            clock = ClockTruth(1e8, -32.0, float(rng.uniform(0.0, TWO_PI)))
            means.append(np.mean(generate_series(sched, clock, LINK).values))
        target = LINK.delta0 + LINK.flight_time + 0.5e-8
        assert np.mean(means) == pytest.approx(target, abs=2e-11)

    def test_flight_time_beyond_update_period_rejected(self):
        sched = SampleSchedule(0.0, 1e-9, 10)
        with pytest.raises(ValueError):
            generate_series(sched, CLOCK, LinkTruth(rho=2.0, delta0=5e-6))


class TestValidation:
    def test_clock_warns_on_large_fd_ratio(self):
        with pytest.warns(UserWarning):
            ClockTruth(f_m=1e8, f_d=2e5, phi=0.0)

    def test_clock_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            ClockTruth(f_m=1e8, f_d=0.0, phi=7.0)

    def test_clock_rejects_below_1_hz(self):
        # a master period above 1 s overflowed WLS near T_m = 1e300
        ClockTruth(f_m=1.0, f_d=1e-4, phi=0.0)
        with pytest.raises(ValueError, match="at least 1 Hz"):
            ClockTruth(f_m=0.5, f_d=1e-4, phi=0.0)

    def test_series_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            RttSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_series_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            RttSeries(np.array([0.0, 1.0]), np.array([1.0, np.inf]))

    @pytest.mark.parametrize(
        "args", [(1e8, math.nan, 0.0), (math.inf, 1.0, 0.0), (1e8, math.inf, 0.0)]
    )
    def test_clock_rejects_nonfinite(self, args):
        with pytest.raises(ValueError, match="finite"):
            ClockTruth(*args)

    @pytest.mark.parametrize(
        "args", [(math.nan, 5e-6), (math.inf, 5e-6), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_link_rejects_nonfinite(self, args):
        with pytest.raises(ValueError, match="finite"):
            LinkTruth(*args)

    @pytest.mark.parametrize(
        "args", [(math.nan, 0.0), (0.0, math.inf), (math.inf, 0.0), (0.0, math.nan)]
    )
    def test_noise_rejects_nonfinite(self, args):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(*args)

    @pytest.mark.parametrize(
        "args", [(math.nan, 1e-3, 10), (0.0, math.inf, 10), (math.inf, 1e-3, 10)]
    )
    def test_schedule_rejects_nonfinite(self, args):
        with pytest.raises(ValueError, match="finite"):
            SampleSchedule(*args)

    @pytest.mark.parametrize(
        "times", [[0.0, math.inf], [-math.inf, 0.0], [0.0, math.nan]]
    )
    def test_series_rejects_nonfinite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            RttSeries(np.array(times), np.ones(2))

    def test_schedule_times(self):
        sched = SampleSchedule(1.0, 0.5, 4)
        np.testing.assert_allclose(sched.times(), [1.0, 1.5, 2.0, 2.5])

    @pytest.mark.parametrize("N", [20.5, math.nan, math.inf, -math.inf])
    def test_schedule_rejects_nonintegral_n(self, N):
        # N = 20.5 would make 21 samples while N reads 20.5
        with pytest.raises(ValueError, match="integer"):
            SampleSchedule(0.0, 1e-3, N)

    @pytest.mark.parametrize("N", [20, 20.0, np.int64(20), np.float64(20.0)])
    def test_schedule_stores_integral_n_as_int(self, N):
        sched = SampleSchedule(0.0, 1e-3, N)
        assert type(sched.N) is int and sched.N == 20
        assert sched.times().size == 20
        assert sched == SampleSchedule(0.0, 1e-3, 20)
