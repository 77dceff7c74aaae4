import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rttsync import estimators
from rttsync.analysis import residual_acf
from rttsync.edge_sim import ExchangeConfig, Oscillator, simulate_campaign
from rttsync.estimators import (
    Estimate,
    SearchGrids,
    WeightVector,
    _fft_periodogram,
    _peak_frequency,
    _uls_rows,
    _zoom_power,
    _wls_search,
    pcp_estimate,
    phase_error,
    phase_error_seconds,
    preprocess_outliers,
    residuals,
    robust_weights,
    uls_estimate,
    unwrap,
    wls_estimate,
    wrap_to_2pi,
    wrap_to_pm_pi,
)
from rttsync.io import estimate_to_csv
from rttsync.model import (
    SPEED_OF_LIGHT,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    RttSeries,
    SampleSchedule,
    generate_series,
    sawtooth_template,
)

from oracles import wls_cost

TWO_PI = 2.0 * math.pi
T_M = 1e-8
LINK = LinkTruth(rho=2.0, delta0=5e-6)


def noiseless(f_d, phi, N=100, Ts=1e-3, rho=2.0):
    clock = ClockTruth(f_m=1e8, f_d=f_d, phi=phi)
    link = LinkTruth(rho=rho, delta0=5e-6)
    return generate_series(SampleSchedule(0.0, Ts, N), clock, link), clock, link


class TestWrapping:
    def test_wrap_to_2pi_examples(self):
        assert wrap_to_2pi(TWO_PI + 0.5) == pytest.approx(0.5, rel=1e-12)
        assert wrap_to_2pi(-0.5) == pytest.approx(TWO_PI - 0.5, rel=1e-12)

    def test_wrap_to_pm_pi_examples(self):
        assert wrap_to_pm_pi(math.pi) == pytest.approx(math.pi)
        assert wrap_to_pm_pi(-math.pi) == pytest.approx(math.pi)
        assert wrap_to_pm_pi(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)

    @given(st.floats(-1e3, 1e3))
    def test_wrap_pm_pi_range_and_congruence(self, x):
        y = float(wrap_to_pm_pi(x))
        assert -math.pi <= y <= math.pi
        assert math.cos(y - x) == pytest.approx(1.0, abs=1e-6)


class TestUnwrap:
    def test_matches_numpy_unwrap(self):
        rng = np.random.default_rng(0)
        z = np.mod(np.cumsum(rng.uniform(-2.0, 2.0, 200)), TWO_PI)
        np.testing.assert_allclose(unwrap(z), np.unwrap(z), rtol=0, atol=1e-9)

    def test_linear_ramp_recovered(self):
        x = 0.37 * np.arange(100)
        np.testing.assert_allclose(unwrap(np.mod(x, TWO_PI)), x, atol=1e-9)

    @given(
        st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=2, max_size=50)
    )
    def test_congruence_and_small_steps(self, vals):
        z = np.array(vals)
        u = unwrap(z)
        assert u[0] == z[0]
        np.testing.assert_allclose(np.cos(u - z), 1.0, atol=1e-9)
        d = np.diff(u)
        assert np.all(d > -math.pi - 1e-12) and np.all(d <= math.pi + 1e-12)


class TestOutlierHandling:
    def test_single_outlier_zero_weight(self):
        y = np.full(20, 5e-6)
        y += 1e-9 * np.sin(np.arange(20.0))
        y[7] = 4e-6
        w = robust_weights(RttSeries(np.arange(20.0), y)).w
        assert w[7] == 0.0
        assert w.sum() == 19.0

    def test_clean_data_uniform(self):
        rng = np.random.default_rng(3)
        y = 5e-6 + 1e-9 * rng.standard_normal(50)
        w = robust_weights(RttSeries(np.arange(50.0), y))
        # the nMAD scale estimate is itself noisy, so allow a stray flag or two
        assert w.n_downweighted <= 2

    def test_degenerate_mad_warns_and_falls_back(self):
        y = np.full(10, 5e-6)
        y[0] = 9e-6
        with pytest.warns(UserWarning, match="zero MAD with nonzero deviations in 1 of 1 records"):
            w = robust_weights(RttSeries(np.arange(10.0), y))
        assert w.n_used == 10

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        y = 5e-6 + 1e-9 * rng.standard_normal(40)
        y[11] = 1e-5
        t = np.arange(40.0)
        w1 = robust_weights(RttSeries(t, y)).w
        w2 = robust_weights(RttSeries(t, 3.0 * y + 1e-3)).w
        np.testing.assert_array_equal(w1, w2)

    def test_isolated_outlier_neighbor_average(self):
        y = 5e-6 + 1e-9 * np.sin(np.arange(20.0))
        y[7] = 4e-6
        out = preprocess_outliers(RttSeries(np.arange(20.0), y)).values
        assert out[7] == pytest.approx(0.5 * (y[6] + y[8]), rel=1e-12)

    def test_outlier_run_gets_median(self):
        y = 5e-6 + 1e-9 * np.sin(np.arange(30.0))
        clean_median = np.median(y)
        y[10] = y[11] = 4e-6
        out = preprocess_outliers(RttSeries(np.arange(30.0), y)).values
        med = np.median(y)
        assert out[10] == med and out[11] == med
        assert med == pytest.approx(clean_median, rel=1e-4)

    def test_boundary_outlier_gets_median(self):
        y = 5e-6 + 1e-9 * np.sin(np.arange(20.0))
        y[0] = 4e-6
        out = preprocess_outliers(RttSeries(np.arange(20.0), y)).values
        assert out[0] == np.median(y)

    def test_clean_series_untouched(self):
        y = 5e-6 + 1e-9 * np.sin(np.arange(20.0))
        s = RttSeries(np.arange(20.0), y)
        np.testing.assert_array_equal(preprocess_outliers(s).values, y)


class TestWeightVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, -1.0]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            WeightVector(np.zeros(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize("bad", [0.5, 2.0])
    def test_rejects_non_binary(self, bad):
        # weights are an inlier mask: a sample is kept or dropped
        with pytest.raises(ValueError):
            WeightVector(np.array([1.0, bad, 1.0]))

    def test_counts(self):
        w = WeightVector(np.array([1.0, 0.0, 1.0, 0.0]))
        assert w.n_used == 2 and w.n_downweighted == 2

    def test_boolean_mask(self):
        # 0/1 by type: taken as float, and still held to 1-D and one kept sample
        w = WeightVector(np.array([True, False, True]))
        assert w.w.dtype == float and w.w.tolist() == [1.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="all weights are zero"):
            WeightVector(np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="1-D"):
            WeightVector(np.ones((2, 2), dtype=bool))


class TestSearchGrids:
    def test_default_spacing_and_extent(self):
        g = SearchGrids(N=100, Ts=1e-3)
        assert g.n_fft == 400 and g.F.size == 401
        assert g.f_step == pytest.approx(2.5, rel=1e-12)  # 1/(4*N*Ts)
        assert g.f_max == pytest.approx(500.0)
        assert g.F[0] == pytest.approx(-500.0) and g.F[-1] == pytest.approx(500.0)

    def test_rejects_supernyquist_fmax(self):
        with pytest.raises(ValueError):
            SearchGrids(N=100, Ts=1e-3, f_max=600.0)

    def test_carries_its_sampling_interval(self):
        assert SearchGrids(N=100, Ts=2e-3).Ts == 2e-3

    def test_n_fft_is_derived(self):
        # the FFT length is 4N, read-only: N is the one size a caller sets
        for N in (1, 60, 1000):
            assert SearchGrids(N, 1e-3).n_fft == 4 * N
        with pytest.raises(TypeError):
            SearchGrids(n_fft=400, Ts=1e-3)
        with pytest.raises(AttributeError):
            SearchGrids(100, 1e-3).n_fft = 800

    @pytest.mark.parametrize(
        "N, Ts, f_max",
        [(100, 0.0, 125.0), (100, math.nan, 125.0), (100, 1e-3, 600.0),
         (100, 1e-3, math.nan), (100, 1e-3, 2.0), (1, 1e-3, 100.0),
         (0, 1e-3, 125.0), (100.0, 1e-3, 125.0)],
        ids=["ts-zero", "ts-nan", "past-nyquist", "f-max-nan", "below-one-step",
             "step-past-f-max", "n-zero", "n-float"],
    )
    def test_rejects_bad_grids(self, N, Ts, f_max):
        with pytest.raises(ValueError):
            SearchGrids(N, Ts, f_max)

    # at N=110, f_max/df is 219.99999999999997: the Nyquist edge stays
    @pytest.mark.parametrize(
        "N, f_max, last", [(1000, 333.4, 333.25), (333, 50.0, 66 / 1.332), (110, 500.0, 500.0)]
    )
    def test_grid_ends_at_or_below_fmax(self, N, f_max, last):
        g = SearchGrids(N, 1e-3, f_max=f_max)
        assert g.F[-1] == pytest.approx(last, rel=1e-12)

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("f_d", [-50.4, 50.4])
    @pytest.mark.parametrize("method", [pcp_estimate, wls_estimate])
    def test_estimate_within_fmax(self, method, f_d, refine):
        # a tone just past an f_max that falls between grid steps pulls the
        # peak to the grid edge; neither the edge nor a refinement may pass it
        series = noisy_record(3, f_d, 333)
        g = SearchGrids(333, 1e-3, f_max=50.0)
        est = method(series, T_M, LINK.delta0, g, refine=refine)
        assert abs(est.f_d_hat) <= 50.0

    @pytest.mark.parametrize("method", [pcp_estimate, wls_estimate])
    def test_rejects_record_coarser_than_grid(self, method):
        # a grid for Ts = 0.1 ms reaches 5 kHz, ten times the Nyquist rate of
        # a 1 ms record: without the check PCP returned 3687.75 Hz and WLS
        # -4999.75 Hz, next to the grid edge, for this -32 Hz record
        series = noisy_record(0, -32.0, 200)
        with pytest.raises(ValueError, match="coarsely"):
            method(series, T_M, LINK.delta0, SearchGrids(200, 1e-4))
        # every other sample of 400: on the 1 ms lattice and within the
        # grid's n_fft, but f and f + 500 Hz fit it equally
        series = noisy_record(4, -32.0, 400)
        halved = RttSeries(series.times[::2], series.values[::2])
        with pytest.raises(ValueError, match="coarsely"):
            method(halved, T_M, LINK.delta0, SearchGrids(200, 1e-3))

    @pytest.mark.parametrize("method", [pcp_estimate, wls_estimate])
    @pytest.mark.parametrize("stamps", ["jittered", "drifting"])
    def test_rejects_stamps_off_the_lattice(self, method, stamps):
        # the FFT rounds each stamp onto t0 + k*Ts: stamps jittered by up to
        # 0.49 Ts moved a PCP estimate at -425.45 Hz more than 5 Hz, and gaps
        # of 1.0009 Ts drift 0.9 Ts off the lattice over N=1000
        rng = np.random.default_rng(7)
        if stamps == "jittered":
            N, f_d = 50, -425.45
            t = 1e-3 * (np.arange(N) + rng.uniform(0.0, 0.49, N))
        else:
            N, f_d = 1000, -32.0
            t = 1.0009e-3 * np.arange(N)
        clock = ClockTruth(1e8, f_d, float(rng.uniform(0.0, TWO_PI)))
        noise = NoiseSpec.from_snr(30.0, 30.0, T_M)
        v, n = rng.normal(0.0, [[noise.sigma_v], [noise.sigma_n]], (2, N))
        y = sawtooth_template(t, clock.f_d, clock.phi, T_M, v) + LINK.delta0 + LINK.flight_time + n
        with pytest.raises(ValueError, match="uniformly spaced"):
            method(RttSeries(t, y), T_M, LINK.delta0, SearchGrids(N, 1e-3))

    @pytest.mark.parametrize("method", [pcp_estimate, wls_estimate])
    @pytest.mark.parametrize("seed", range(4))
    def test_records_with_long_gaps(self, method, seed):
        # five gaps of 20-60 Ts at random places leave about half of 400
        # samples: the lattice spans less than n_fft, and the estimate holds
        rng = np.random.default_rng(100 + seed)
        f_d = float(rng.uniform(-450.0, 450.0))
        series = noisy_record(seed, f_d, 400)
        keep = np.ones(400, dtype=bool)
        for start in rng.choice(360, 5, replace=False):
            keep[start:start + rng.integers(20, 60)] = False
        keep[[0, -1]] = True
        record = RttSeries(series.times[keep], series.values[keep])
        est = method(record, T_M, LINK.delta0, SearchGrids(len(record), 1e-3))
        assert est.f_d_hat == pytest.approx(f_d, abs=0.5)

    @pytest.mark.parametrize("method", [pcp_estimate, wls_estimate])
    @pytest.mark.parametrize("N", [100, 1000])
    def test_edge_records_pass_the_lattice_check(self, method, N):
        # master-edge snapping moves each stamp by less than one T_m
        series = edge_record(N)
        grids = SearchGrids(N, float(series.times[1] - series.times[0]))
        est = method(series, T_M, 5e-6, grids)
        assert est.f_d_hat == pytest.approx(-32.0, abs=0.5)


class TestPhaseError:
    def test_wraps_short_way(self):
        assert phase_error(0.1, TWO_PI - 0.1) == pytest.approx(-0.2, abs=1e-12)
        assert phase_error(TWO_PI - 0.1, 0.1) == pytest.approx(0.2, abs=1e-12)

    def test_seconds_conversion(self):
        assert phase_error_seconds(0.0, math.pi, T_M) == pytest.approx(
            0.5 * T_M, rel=1e-12
        )


def direct_periodogram(y, t, F):
    """|sum_i y_i exp(-2j pi f t_i)|^2 at every f in F from one F x N matrix
    of complex exponentials: the exact direct sum the kernels are held to."""
    phase = np.zeros((F.size, t.size), dtype=complex)
    phase.imag = -2.0 * math.pi * np.multiply.outer(F, t)
    return np.abs(np.exp(phase) @ y) ** 2


def assert_matches_direct(power, direct):
    np.testing.assert_allclose(power, direct, rtol=1e-12, atol=1e-12 * direct.max())


def zoom_power(x, t, f0, df, K):
    """Refinement-kernel power of one record x at f0 + k*df, k = 0..K-1:
    demodulated to f0 as _peak_frequency does, in a fresh phasor table."""
    u = x[None] * np.exp((-2j * math.pi * f0) * t)
    return _zoom_power(u, t, df, np.empty((K + 1, t.size), dtype=complex))[0]


def edge_record(N=200, f_d=-32.0):
    """Edge-simulated record (default N=200 at f_d = -32 Hz): master-edge
    snapping moves the stamps by up to one clock cycle, about 1e-5 of the
    gap, off the FFT lattice, as in the CLI."""
    master = Oscillator(f0=1e8, varphi=0.0)
    slave = Oscillator.from_frequency(1e8, 1e8 - f_d, varphi=0.0)
    return simulate_campaign(
        master, slave, ExchangeConfig(K=500, rho=2.0), SampleSchedule(0.0, 1e-3, N)
    )


def kernel_record(kind, seed):
    """(times, grid, (WLS z, PCP y0)) of a lattice, off-lattice or edge record."""
    if kind == "edge":
        series = edge_record()
        t = series.times
        y0 = series.values - series.values.mean()
        z = np.exp((2j * math.pi / T_M) * (series.values - LINK.delta0))
        return t, SearchGrids(t.size, float(t[1] - t[0])), (z, y0)
    t, grids, ((z, _, _), (y0, _, _)) = lattice_case(seed, 200, 0.37, 0.1, None)
    if kind == "off-lattice":
        t = t + 1e-3 * np.random.default_rng(seed).uniform(0.0, 0.3, t.size)
    return t, grids, (z, y0)


class TestPeriodogram:
    def test_against_naive_sum(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0.0, 1.0, 32))
        y = rng.standard_normal(32)
        freqs = np.array([1.5, 7.25, 12.0])
        expected = [
            abs(sum(y[i] * np.exp(-2j * math.pi * f * t[i]) for i in range(32))) ** 2
            for f in freqs
        ]
        np.testing.assert_allclose(direct_periodogram(y, t, freqs), expected, rtol=1e-10)

    # from one row to the full grid, where the recurrence runs longest
    @pytest.mark.parametrize("K", [1, 63, 64, 65, None])
    @pytest.mark.parametrize("kind", ["lattice", "off-lattice", "edge"])
    @pytest.mark.parametrize("seed", range(2))
    def test_kernel_matches_direct_sum(self, seed, kind, K):
        t, grids, inputs = kernel_record(kind, 820 + seed)
        K = grids.F.size if K is None else K
        start = int(np.random.default_rng(seed).integers(0, grids.F.size - K + 1))
        F = grids.F[start:start + K]
        for x in inputs:
            assert_matches_direct(zoom_power(x, t, F[0], grids.f_step, K),
                                  direct_periodogram(x, t, F))

    def test_peak_at_tone(self):
        t = 1e-3 * np.arange(200)
        y = np.sin(TWO_PI * 60.0 * t)
        g = SearchGrids(N=200, Ts=1e-3)
        f_grid = g.F[g.F > 0.0]
        power = zoom_power(y, t, f_grid[0], g.f_step, f_grid.size)
        assert f_grid[np.argmax(power)] == pytest.approx(60.0, abs=g.f_step)


def lattice_case(seed, N, t0, drop, f_max, n_grid=None):
    """A seeded record on the Ts = 1 ms lattice with a fraction `drop` of its
    samples left out, the grid for n_grid samples (default N), and both
    periodogram inputs with their grid and half: the circular z of WLS (full
    grid) and the mean-removed y of PCP (positive half)."""
    rng = np.random.default_rng(seed)
    clock = ClockTruth(1e8, float(rng.uniform(-450.0, 450.0)), float(rng.uniform(0.0, TWO_PI)))
    noise = NoiseSpec.from_snr(20.0, 20.0, T_M)
    series = generate_series(SampleSchedule(t0, 1e-3, N), clock, LINK, noise, seed=rng)
    keep = rng.random(N) >= drop
    t, y = series.times[keep], series.values[keep]
    grids = SearchGrids(n_grid or N, 1e-3, f_max=f_max)
    z = np.exp((2j * math.pi / T_M) * (y - LINK.delta0))
    return t, grids, ((z, grids.F, False), (y - y.mean(), grids.F[grids.F > 0.0], True))


def lattice_param(N, t0, drop, f_max, n_grid=None):
    # the id names n_grid only where the grid is built for another length
    grid = "" if n_grid is None else f"-grid{n_grid}"
    return pytest.param(N, t0, drop, f_max, n_grid, id=f"{N}-{t0}-{drop}-{f_max}{grid}")


LATTICE_CASES = [
    lattice_param(100, 0.0, 0.0, None),
    lattice_param(101, 0.37, 0.1, None),
    lattice_param(257, 12.5, 0.3, 120.0),
    lattice_param(333, -2.0, 0.0, 50.0),
    lattice_param(1000, 0.0, 0.05, 333.3),
    # 600 samples on the grid for 100: the record spans 1.5 FFT lengths and folds
    lattice_param(600, 0.37, 0.1, None, n_grid=100),
]


def rounded_record(kind, seed):
    """(times, grid, (WLS z, PCP y0)) of a record whose stamps the FFT must
    round onto its lattice: edge-simulated, jittered by up to 0.49 Ts, or
    sampled 0.3-0.9x finer than the grid's Ts."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(50, 400))
    clock = ClockTruth(1e8, float(rng.uniform(-400.0, 400.0)), float(rng.uniform(0.0, TWO_PI)))
    ts = 1e-3
    if kind == "edge":
        series = edge_record(N, clock.f_d)
        t, y, ts = series.times, series.values, float(series.times[1] - series.times[0])
    else:
        if kind == "jittered":
            t = 0.37 + ts * (np.arange(N) + rng.uniform(-0.49, 0.49, N))
        else:
            t = 0.37 + ts * rng.uniform(0.3, 0.9) * np.arange(N)
        noise = NoiseSpec.from_snr(20.0, 20.0, T_M)
        v, n = rng.normal(0.0, [[noise.sigma_v], [noise.sigma_n]], (2, N))
        y = sawtooth_template(t, clock.f_d, clock.phi, T_M, v) + LINK.delta0 + LINK.flight_time + n
    z = np.exp((2j * math.pi / T_M) * (y - LINK.delta0))
    return t, SearchGrids(N, ts), (z, y - y.mean())


class TestFftPeriodogram:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("N, t0, drop, f_max, n_grid", LATTICE_CASES)
    def test_matches_direct_sum(self, seed, N, t0, drop, f_max, n_grid):
        t, grids, inputs = lattice_case(800 + seed, N, t0, drop, f_max, n_grid)
        for x, F, positive in inputs:
            fft = _fft_periodogram(x[None], t, grids, positive)[0]
            direct = direct_periodogram(x, t, F)
            assert_matches_direct(fft, direct)
            assert np.argmax(fft) == np.argmax(direct)

    @pytest.mark.parametrize("kind", ["edge", "jittered", "finer"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rounded_stamps_peak_within_one_bin(self, seed, kind):
        t, grids, (z, y0) = rounded_record(kind, 840 + seed)
        for x, F, positive in ((z, grids.F, False), (y0, grids.F[grids.F > 0.0], True)):
            fft = _fft_periodogram(x[None], t, grids, positive)[0]
            assert abs(int(np.argmax(fft)) - int(np.argmax(direct_periodogram(x, t, F)))) <= 1

    def test_nyquist_pair_tie_goes_to_lowest_index(self):
        # +-f_max share one FFT bin, so their scores tie exactly; at N=110 the
        # grid edge is one ulp past f_max, and the peak is clipped back to it
        for N in (64, 110):
            t = 1e-3 * np.arange(N)
            z = np.exp(1j * (math.pi * np.arange(N) + 0.3))
            grids = SearchGrids(N, 1e-3)
            f, f_step = _peak_frequency(z[None], t, grids, refine=False)
            assert (f.tolist(), f_step) == ([-500.0], grids.f_step)

    def test_edge_record_takes_direct_sum_and_estimates(self):
        # the FFT rounds the stamps onto the Ts lattice; refinement's direct
        # sum on the exact stamps gives the estimate
        series = edge_record()
        gaps = np.diff(series.times)
        assert 1e-6 < np.ptp(gaps) / gaps[0] < 1e-3
        grids = SearchGrids(200, float(gaps[0]))
        est = wls_estimate(series, T_M, 5e-6, grids, robust_weights(series))
        assert est.f_d_hat == pytest.approx(-32.0, abs=0.05)
        assert est.rho_hat == pytest.approx(2.0, abs=0.02)


def direct_picks(x, t, grids, positive, levels):
    """Per row of x (B, n) on stamps t (n,): the coarse FFT peak, then
    `levels` refinement levels, each picking the argmax of the direct sum
    over the same _REFINE_POINTS local frequencies as _peak_frequency."""
    f, step = _peak_frequency(x, t, grids, refine=False, positive=positive)
    for _ in range(levels):
        local = f[:, None] + np.linspace(-step, step, estimators._REFINE_POINTS)
        step /= estimators._REFINE_FACTOR
        power = np.stack([direct_periodogram(x[b], t, local[b]) for b in range(len(x))])
        power[(np.abs(local) > grids.f_max) | (positive & (local <= 0.0))] = -math.inf
        f = local[np.arange(len(x)), np.argmax(power, axis=1)]
    return f


def refinement_stack(seed, kind):
    """(stamps, WLS z, PCP y0, grid) of a stack. "shared" and "masked": six
    20-dB records of 200 samples on shared consecutive stamps, or of 230
    where rows 0-2 keep every sample and rows 3-5 keep 200 and are zero
    elsewhere (masked). "jittered": 16 noise-only rows of 64 samples on
    stamps jittered by up to 0.49 Ts, which the FFT rounds, so that some
    first-level picks fall on the band's lowest frequency."""
    rng = np.random.default_rng(seed)
    if kind == "jittered":
        t = 1e-3 * (np.arange(64) + rng.uniform(-0.49, 0.49, 64))
        z = np.exp(1j * rng.uniform(0.0, TWO_PI, (16, 64)))
        y = rng.standard_normal((16, 64))
        return t, z, y - y.mean(axis=1, keepdims=True), SearchGrids(64, 1e-3)
    noise = NoiseSpec.from_snr(20.0, 20.0, T_M)
    n = 230 if kind == "masked" else 200
    schedule = SampleSchedule(0.37, 1e-3, n)
    y, keep = np.empty((6, n)), np.ones((6, n), dtype=bool)
    for b in range(6):
        clock = ClockTruth(1e8, float(rng.uniform(-450.0, 450.0)), float(rng.uniform(0.0, TWO_PI)))
        y[b] = generate_series(schedule, clock, LINK, noise, seed=rng).values
        dropped = rng.permutation(n)[200:]  # none when n = 200
        if b >= 3:
            keep[b, dropped] = False
    z = np.where(keep, np.exp((2j * math.pi / T_M) * (y - LINK.delta0)), 0.0)
    y0 = np.where(keep, y - np.mean(y, axis=1, where=keep, keepdims=True), 0.0)
    return schedule.times(), z, y0, SearchGrids(200, 1e-3)


class TestRefinement:
    @pytest.mark.parametrize("levels", range(1, estimators._REFINE_LEVELS + 1))
    @pytest.mark.parametrize("kind", ["shared", "masked", "jittered"])
    @pytest.mark.parametrize("seed", range(2))
    def test_each_level_picks_the_direct_argmax(self, monkeypatch, seed, kind, levels):
        t, z, y0, grids = refinement_stack(870 + seed, kind)
        monkeypatch.setattr(estimators, "_REFINE_LEVELS", levels)
        for x, positive in ((z, False), (y0, True)):
            f, _ = _peak_frequency(x, t, grids, refine=True, positive=positive)
            np.testing.assert_array_equal(f, direct_picks(x, t, grids, positive, levels))

    def test_jittered_stack_picks_the_lowest_point(self):
        # the next level then starts below the first band: u moves by 1/w
        t, z, _, grids = refinement_stack(870, "jittered")
        coarse, step = _peak_frequency(z, t, grids, refine=False)
        assert np.any(direct_picks(z, t, grids, False, 1) == coarse - step)


class TestUls:
    @pytest.mark.parametrize("B", [1, 6, 163])
    def test_rows_match_exact_least_squares_line(self, B):
        # the least-squares line through the same float t and u, in rational
        # arithmetic: floats are dyadic, so its sums carry no rounding
        rng = np.random.default_rng(880 + B)
        t = 0.37 + 1e-3 * np.arange(200)
        noise = NoiseSpec.from_snr(20.0, 20.0, T_M)
        Y = np.stack([generate_series(
            SampleSchedule(0.37, 1e-3, 200),
            ClockTruth(1e8, float(rng.uniform(-200.0, 200.0)), float(rng.uniform(0.0, TWO_PI))),
            LINK, noise, seed=rng).values for _ in range(B)])
        fit = _uls_rows(t, Y, T_M, LINK.delta0)
        u = unwrap((TWO_PI / T_M) * (Y - Y.mean(axis=1, keepdims=True)))
        ts = [Fraction(x) for x in t.tolist()]
        n, s_t, s_tt = len(ts), sum(ts), sum(x * x for x in ts)
        for b, row in enumerate(u.tolist()):
            us = [Fraction(x) for x in row]
            s_u, s_tu = sum(us), sum(x * y for x, y in zip(ts, us))
            slope = (n * s_tu - s_t * s_u) / (n * s_tt - s_t * s_t)
            intercept = (s_u - slope * s_t) / n
            assert fit.f[b] == pytest.approx(float(slope) / TWO_PI, rel=1e-12)
            assert abs(wrap_to_pm_pi(fit.phi[b] - float(intercept) - math.pi)) < 1e-9

    def test_noiseless_recovery(self):
        # 33 cycles over 1000 samples: wrap positions fill a dense lattice
        series, clock, link = noiseless(-33.0, 2.0, N=1000)
        est = uls_estimate(series, T_M, link.delta0)
        assert est.f_d_hat == pytest.approx(-33.0, abs=1e-6)
        assert abs(phase_error(est.phi_hat, clock.phi)) < TWO_PI / 500
        assert est.rho_hat == pytest.approx(2.0, abs=0.01)

    def test_positive_frequency(self):
        series, clock, link = noiseless(33.0, 1.0, N=1000)
        est = uls_estimate(series, T_M, link.delta0)
        assert est.f_d_hat == pytest.approx(33.0, abs=1e-6)

    def test_residuals_small_when_noiseless(self):
        series, _, link = noiseless(-33.0, 2.0, N=1000)
        est = uls_estimate(series, T_M, link.delta0)
        assert np.max(np.abs(residuals(series, est, T_M, link.delta0))) < 0.1 * T_M

    def test_record_fields(self):
        series, _, link = noiseless(-32.0, 2.0)
        text = estimate_to_csv(uls_estimate(series, T_M, link.delta0))
        rec = next(csv.DictReader(io.StringIO(text)))
        assert rec["method"] == "ULS"
        assert rec["n_used"] == "100" and rec["n_downweighted"] == "0"


# offset half a step so that no point sits exactly on the wrap phase of a
# commensurate record, where rounding wraps only part of a repeated group
DENSE_PHI = (TWO_PI / 20_000) * (np.arange(20_000) + 0.5)


def pcp_correlation(series, f, phi):
    """Signed correlation y0 @ (p - mean(p)) of the mean-removed record with
    the sawtooth at frequency f and each phase in phi, computed directly."""
    y0 = series.values - np.mean(series.values)
    p = np.mod(TWO_PI * f * series.times[None, :] + np.atleast_1d(phi)[:, None], TWO_PI)
    return (p - p.mean(axis=1, keepdims=True)) @ y0


def random_record(rng, n):
    t = 1e-3 * np.arange(n)
    b = T_M * rng.uniform(0.0, 2.0, n)
    wv = np.where(rng.random(n) < 0.1, 0.0, 1.0)  # some samples dropped
    wv[0] = 1.0
    return t, b, wv


def noisy_record(seed, f_d, N):
    rng = np.random.default_rng(seed)
    clock = ClockTruth(1e8, f_d, float(rng.uniform(0.0, TWO_PI)))
    noise = NoiseSpec.from_snr(20.0, 20.0, T_M)
    return generate_series(SampleSchedule(0.0, 1e-3, N), clock, LINK, noise, seed=rng)


def pcp_with_score(monkeypatch, series, grids=None, refine=True):
    """Run PCP and capture the score of the segment its search picked."""
    picked, best_segment = [], estimators._best_segment

    def spy(cost, c, width):
        picked.append(best_segment(cost, c, width))
        return picked[-1]

    if grids is None:
        grids = SearchGrids(len(series), 1e-3)
    with monkeypatch.context() as m:
        m.setattr(estimators, "_best_segment", spy)
        est = pcp_estimate(series, T_M, LINK.delta0, grids, refine=refine)
    (_, _, _, (cost,)), = picked
    return est, -cost


class TestPcp:
    @pytest.mark.parametrize("f_d", [-41.0, 41.0, -97.0])
    def test_noiseless_sign_and_frequency(self, f_d):
        # frequencies whose per-sample cycle increments fill the unit circle
        # densely; round fractions (e.g. 0.1 cycles/sample) leave the phase
        # identifiable only to the coarse wrap lattice
        series, clock, link = noiseless(f_d, 2.5, N=200)
        g = SearchGrids(N=200, Ts=1e-3)
        est = pcp_estimate(series, T_M, link.delta0, g)
        assert est.f_d_hat == pytest.approx(f_d, abs=0.05)
        assert abs(phase_error(est.phi_hat, clock.phi)) < 0.07
        assert est.rho_hat == pytest.approx(2.0, abs=0.03)

    def test_constant_series_degenerate(self):
        series, _, link = noiseless(0.0, 0.5, N=50)
        g = SearchGrids(N=50, Ts=1e-3)
        est = pcp_estimate(series, T_M, link.delta0, g)
        assert est.f_d_hat == 0.0 and est.f_grid_step is None
        assert est.phi_hat == 0.0 and est.phi_grid_step is None
        assert est.rho_hat == 0.5 * SPEED_OF_LIGHT * float(np.mean(series.values - link.delta0))

    def test_refine_tightens_frequency(self):
        series, _, link = noiseless(-32.6, 1.0, N=200)
        g = SearchGrids(N=200, Ts=1e-3)
        coarse = pcp_estimate(series, T_M, link.delta0, g, refine=False)
        fine = pcp_estimate(series, T_M, link.delta0, g, refine=True)
        assert abs(fine.f_d_hat + 32.6) <= abs(coarse.f_d_hat + 32.6) + 1e-12

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_dense_phase_grid_never_beats_peak(self, monkeypatch, seed, sign):
        rng = np.random.default_rng(300 + seed)
        f_d = sign * float(rng.uniform(5.0, 200.0))
        series = noisy_record(seed, f_d, int(rng.integers(8, 64)))
        est, score = pcp_with_score(monkeypatch, series)
        peak = float(pcp_correlation(series, est.f_d_hat, est.phi_hat)[0])
        assert peak > 0.0 and 0.0 < est.phi_grid_step <= TWO_PI
        assert peak == pytest.approx(score, rel=1e-9)
        # neither slope beats the returned sawtooth at any phase
        for f in (est.f_d_hat, -est.f_d_hat):
            assert pcp_correlation(series, f, DENSE_PHI).max() <= peak * (1.0 + 1e-9)
        # the correlation is flat over the reported segment
        d = np.mod(DENSE_PHI - est.phi_hat, TWO_PI)
        inside = np.minimum(d, TWO_PI - d) < 0.45 * est.phi_grid_step
        np.testing.assert_allclose(
            pcp_correlation(series, est.f_d_hat, DENSE_PHI[inside]), peak, rtol=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_commensurate_record_skips_slivers(self, monkeypatch, seed):
        # a one-point periodogram grid pins f*Ts = 1/8: every wrap phase
        # repeats eight times, up to rounding, and no phase wraps only part
        # of such a group
        rng = np.random.default_rng(400 + seed)
        t, b, _ = random_record(rng, 64)
        series = RttSeries(t, b + LINK.delta0)
        grids = SearchGrids(2, 1e-3, 125.0)
        est, score = pcp_with_score(monkeypatch, series, grids, refine=False)
        assert abs(est.f_d_hat) == 125.0 and est.phi_grid_step > 1e-9
        peak = float(pcp_correlation(series, est.f_d_hat, est.phi_hat)[0])
        assert peak == pytest.approx(score, rel=1e-9)
        for f in (est.f_d_hat, -est.f_d_hat):
            assert pcp_correlation(series, f, DENSE_PHI).max() <= peak * (1.0 + 1e-9)


class TestWlsCost:
    def test_matches_scalar_minimization_oracle(self):
        # concentrated cost must equal the weighted cost minimized over the
        # constant term: the cost is a parabola in it, so the vertex through
        # three costs around the minimum of a coarse grid is exact
        rng = np.random.default_rng(6)
        series, _, link = noiseless(-32.0, 2.0, N=60)
        series = series.with_values(series.values + 2e-10 * rng.standard_normal(60))
        w = WeightVector(np.where(rng.random(60) < 0.2, 0.0, 1.0))

        def full_cost(rho2, f, phi):
            r = (
                series.values
                - sawtooth_template(series.times, f, phi, T_M)
                - link.delta0
                - rho2
            )
            return float(np.sum(w.w * r * r))

        rho_grid = np.linspace(-1e-6, 1e-6, 401)
        h = rho_grid[1] - rho_grid[0]
        for f, phi in [(-32.0, 2.0), (-30.0, 1.0), (5.0, 4.0)]:
            r0 = rho_grid[int(np.argmin([full_cost(r, f, phi) for r in rho_grid]))]
            c_m1, c_0, c_p1 = (full_cost(r, f, phi) for r in (r0 - h, r0, r0 + h))
            a, b = 0.5 * (c_p1 + c_m1) - c_0, 0.5 * (c_p1 - c_m1)
            assert wls_cost(f, phi, series, T_M, link.delta0, w) == pytest.approx(
                c_0 - b * b / (4.0 * a), rel=1e-9, abs=1e-24
            )

    def test_nonnegative(self):
        series, _, link = noiseless(-32.0, 2.0, N=50)
        w = WeightVector(np.ones(50))
        assert wls_cost(10.0, 1.0, series, T_M, link.delta0, w) >= 0.0

    def test_zero_at_truth(self):
        series, clock, link = noiseless(-32.0, 2.0, N=50)
        w = WeightVector(np.ones(50))
        assert wls_cost(
            clock.f_d, clock.phi, series, T_M, link.delta0, w
        ) == pytest.approx(0.0, abs=1e-28)


def inlier_search(b, t, wv, F):
    """Global minimum of the concentrated least-squares cost over the grid F
    and the phase circle, on the samples the 0/1 mask keeps: the exact
    one-frequency search at each f, ties to the lowest f. Returns (f, phi,
    segment width, cost)."""
    keep = wv > 0.0
    rows = [(f, *(x[0] for x in _wls_search(b[keep][None], t[keep], np.array([f]), T_M)))
            for f in F]
    return min(rows, key=lambda row: row[3])


def direct_costs(b, t, wv, f, phi):
    """Concentrated cost at one frequency and an array of phases, computed
    directly from the template, independently of the search."""
    h = (T_M / TWO_PI) * np.mod(TWO_PI * f * t[None, :] + phi[:, None], TWO_PI)
    r = b[None, :] - h
    return (r * r) @ wv - (r @ wv) ** 2 / wv.sum()


class TestWlsSegmentSearch:
    F = np.linspace(-100.0, 100.0, 41)

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_phase_grid_never_beats_minimum(self, seed):
        rng = np.random.default_rng(seed)
        t, b, wv = random_record(rng, int(rng.integers(8, 40)))
        f, phi, width, c_min = inlier_search(b, t, wv, self.F)
        assert 0.0 < width <= TWO_PI
        brute = direct_costs(b, t, wv, f, DENSE_PHI)
        assert brute.min() >= c_min * (1.0 - 1e-9)
        # the segment is flat at the minimum and ends where a kept sample
        # wraps, so the cost changes just beyond either end
        d = np.mod(DENSE_PHI - phi, TWO_PI)
        inside = np.minimum(d, TWO_PI - d) < 0.45 * width
        np.testing.assert_allclose(brute[inside], c_min, rtol=1e-9)
        ends = phi + np.array([-1.0, 1.0]) * (0.5 * width + 1e-6)
        assert np.all(direct_costs(b, t, wv, f, ends) > c_min * (1.0 + 1e-9))

    @pytest.mark.parametrize("seed", range(6))
    def test_reported_minimum_matches_direct_cost(self, seed):
        rng = np.random.default_rng(100 + seed)
        t, b, wv = random_record(rng, int(rng.integers(8, 40)))
        f, phi, _, c_min = inlier_search(b, t, wv, self.F)
        series = RttSeries(t, b + 5e-6)
        direct = wls_cost(f, phi, series, T_M, 5e-6, WeightVector(wv))
        assert direct == pytest.approx(c_min, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_commensurate_record_skips_slivers(self, seed):
        # f*Ts = 1/8: every wrap phase repeats eight times, up to rounding,
        # and no phase wraps only part of such a group
        rng = np.random.default_rng(200 + seed)
        t, b, wv = random_record(rng, 64)
        f, phi, width, c_min = inlier_search(b, t, wv, np.array([125.0]))
        assert width > 1e-9
        direct = wls_cost(f, phi, RttSeries(t, b), T_M, 0.0, WeightVector(wv))
        assert direct == pytest.approx(c_min, rel=1e-9)
        assert direct_costs(b, t, wv, f, DENSE_PHI).min() >= c_min * (1.0 - 1e-9)


class TestWlsEstimate:
    def test_noiseless_recovery(self):
        series, clock, link = noiseless(-32.0, 2.0, N=100)
        g = SearchGrids(N=100, Ts=1e-3)
        est = wls_estimate(series, T_M, link.delta0, g)
        assert est.f_d_hat == pytest.approx(-32.0, abs=0.05)
        assert abs(phase_error(est.phi_hat, clock.phi)) < 0.1
        assert est.rho_hat == pytest.approx(2.0, abs=0.02)

    def test_noisy_recovery_with_weights(self):
        clock = ClockTruth(1e8, -32.0, 2.0)
        sched = SampleSchedule(0.0, 1e-3, 100)
        noise = NoiseSpec.from_snr(40.0, 40.0, T_M)
        series = generate_series(sched, clock, LINK, noise, seed=11)
        y = series.values.copy()
        y[40] = 4e-6  # gross outlier
        series = series.with_values(y)
        w = robust_weights(series)
        g = SearchGrids(N=100, Ts=1e-3)
        est = wls_estimate(series, T_M, LINK.delta0, g, w=w)
        assert w.w[40] == 0.0
        assert est.f_d_hat == pytest.approx(-32.0, abs=1.0)
        assert est.rho_hat == pytest.approx(2.0, abs=0.1)

    def test_refine_reduces_grid_steps(self):
        series, _, link = noiseless(-32.0, 2.0, N=100)
        g = SearchGrids(N=100, Ts=1e-3)
        est = wls_estimate(series, T_M, link.delta0, g)
        assert est.f_grid_step == pytest.approx(g.f_step / 100.0, rel=1e-9)
        # the phase step is the width of the minimising segment, which holds
        # the noiseless truth
        assert 0.0 < est.phi_grid_step <= TWO_PI
        assert abs(phase_error(est.phi_hat, 2.0)) <= est.phi_grid_step / 2.0

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_no_grid_frequency_beats_peak(self, seed, refine):
        # on the direct circular score of the inliers
        rng = np.random.default_rng(500 + seed)
        N = int(rng.integers(20, 300))
        series = noisy_record(seed, float(rng.uniform(-400.0, 400.0)), N)
        w = robust_weights(series)
        g = SearchGrids(N, 1e-3)
        est = wls_estimate(series, T_M, LINK.delta0, g, w, refine=refine)
        keep = w.w > 0.0
        t = series.times[keep]
        z = np.exp((2j * math.pi / T_M) * (series.values[keep] - LINK.delta0))
        peak = direct_periodogram(z, t, np.array([est.f_d_hat]))[0]
        assert direct_periodogram(z, t, g.F).max() <= peak * (1.0 + 1e-12)

    def test_weight_length_mismatch(self):
        series, _, link = noiseless(-32.0, 2.0, N=100)
        g = SearchGrids(N=100, Ts=1e-3)
        with pytest.raises(ValueError):
            wls_estimate(series, T_M, link.delta0, g, w=WeightVector(np.ones(99)))

    def test_refuses_fewer_than_2_kept_samples(self):
        # one sample fixes no frequency: a 1-sample record gave f_d = -f_max,
        # and one kept sample of 100 a nonsense f_d and range and a 2pi phase step
        single = RttSeries(np.array([0.0]), np.array([LINK.delta0 + 3e-9]))
        with pytest.raises(ValueError, match="at least 2 kept samples"):
            wls_estimate(single, T_M, LINK.delta0, SearchGrids(N=1, Ts=1e-3))
        series = record_40db(3, 100, -32.0, 2.0)
        g = SearchGrids(N=100, Ts=1e-3)
        w = np.zeros(100)
        w[40] = 1.0
        with pytest.raises(ValueError, match="at least 2 kept samples"):
            wls_estimate(series, T_M, LINK.delta0, g, WeightVector(w))
        w[41] = 1.0
        assert wls_estimate(series, T_M, LINK.delta0, g, WeightVector(w)).weights.n_used == 2


def record_40db(seed, N, f_d, phi):
    clock = ClockTruth(1e8, f_d, phi)
    noise = NoiseSpec.from_snr(40.0, 40.0, T_M)
    return generate_series(SampleSchedule(0.0, 1e-3, N), clock, LINK, noise, seed=seed)


def estimate_all(series):
    """ULS, PCP and WLS (robust weights) on one record, on the grid of its
    length, so that shifted copies of a record see the same grid."""
    g = SearchGrids(len(series), 1e-3)
    return (
        uls_estimate(series, T_M, LINK.delta0),
        pcp_estimate(series, T_M, LINK.delta0, g),
        wls_estimate(series, T_M, LINK.delta0, g, robust_weights(series)),
    )


records_40db = st.builds(
    record_40db,
    st.integers(0, 2**32 - 1),
    st.integers(16, 200),
    st.floats(-200.0, 200.0),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
metamorphic = settings(max_examples=25, derandomize=True, deadline=None)


class TestMetamorphic:
    @metamorphic
    @given(records_40db, st.floats(-1e-6, 1e-6))
    def test_delay_offset_moves_only_range(self, series, k):
        # k seconds more on every RTT is 2*rho/c with rho larger by k*c/2
        shifted = estimate_all(series.with_values(series.values + k))
        for a, b in zip(estimate_all(series), shifted):
            assert b.f_d_hat == pytest.approx(a.f_d_hat, abs=1e-9)
            assert abs(phase_error(b.phi_hat, a.phi_hat)) < 1e-9
            assert b.rho_hat == pytest.approx(a.rho_hat + 0.5 * k * SPEED_OF_LIGHT, abs=1e-9)

    @metamorphic
    @given(records_40db, st.floats(-1.0, 1.0))
    def test_time_shift_moves_phase(self, series, tau):
        # h(t + tau; phi - 2pi*f*tau) = h(t; phi)
        shifted = estimate_all(RttSeries(series.times + tau, series.values))
        for a, b in zip(estimate_all(series), shifted):
            assert b.f_d_hat == pytest.approx(a.f_d_hat, abs=1e-9)
            expected = a.phi_hat - TWO_PI * a.f_d_hat * tau
            assert abs(phase_error(b.phi_hat, expected)) < 1e-9

    @metamorphic
    @given(records_40db, st.integers(0, 2**32 - 1), st.booleans())
    def test_zero_weight_equals_deletion(self, series, seed, drop_first):
        # dropping sample 0 moves the deleted record's FFT lattice origin
        keep = np.random.default_rng(seed).random(len(series)) >= 0.2
        keep[0] = not drop_first
        g = SearchGrids(len(series), 1e-3)
        masked = wls_estimate(series, T_M, LINK.delta0, g, WeightVector(keep.astype(float)))
        kept = RttSeries(series.times[keep], series.values[keep])
        deleted = wls_estimate(kept, T_M, LINK.delta0, g)
        assert (masked.f_d_hat, masked.phi_hat, masked.phi_grid_step) == (
            deleted.f_d_hat, deleted.phi_hat, deleted.phi_grid_step
        )
        assert masked.rho_hat == pytest.approx(deleted.rho_hat, abs=1e-12)

    @metamorphic
    @given(records_40db)
    def test_reversal_negates_frequency(self, series):
        # h(T - t; f, phi) = h(t; -f, phi + 2pi*f*T)
        T = series.times[0] + series.times[-1]
        flipped = RttSeries(T - series.times[::-1], series.values[::-1])
        for a, b in zip(estimate_all(series), estimate_all(flipped)):
            assert b.f_d_hat == pytest.approx(-a.f_d_hat, abs=1e-9)
            expected = a.phi_hat + TWO_PI * a.f_d_hat * T
            assert abs(phase_error(b.phi_hat, expected)) < 1e-9
            assert b.rho_hat == pytest.approx(a.rho_hat, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("N", [64, 100, 200])
    @pytest.mark.parametrize("snr", [None, 40.0, 20.0], ids=["noiseless", "40dB", "20dB"])
    def test_mirror_negates_frequency_and_phase(self, snr, N, seed):
        # y' = 2d + T_m - y with d = delta0 + 2rho/c is the record of
        # (-f_d, 2pi - phi, rho): T_m - h(t; f, phi) = h(t; -f, 2pi - phi), and
        # the noise changes sign, so the range error does too. PCP's sign
        # rule must pick the mirrored slope.
        rng = np.random.default_rng([16, N, seed])
        clock = ClockTruth(1e8, float(rng.uniform(-200.0, 200.0)), float(rng.uniform(0.0, TWO_PI)))
        noise = NoiseSpec() if snr is None else NoiseSpec.from_snr(snr, snr, T_M)
        series = generate_series(SampleSchedule(0.0, 1e-3, N), clock, LINK, noise, seed=rng)
        d = LINK.delta0 + LINK.flight_time
        mirror = series.with_values(2.0 * d + T_M - series.values)
        final_step = (SearchGrids(N, 1e-3).f_step
                      / estimators._REFINE_FACTOR ** estimators._REFINE_LEVELS)
        for a, b in zip(estimate_all(series), estimate_all(mirror)):
            assert abs(b.f_d_hat + a.f_d_hat) <= final_step
            assert abs(phase_error(b.phi_hat, TWO_PI - a.phi_hat)) < 1e-3
            assert b.rho_hat == pytest.approx(2.0 * LINK.rho - a.rho_hat, abs=1e-6)


BOUNDARY_SERIES = noiseless(-32.0, 1.0, N=60)[0]
BOUNDARY_GRIDS = SearchGrids(60, 1e-3)
FIXED = Estimate(-31.0, 1.0, 2.0, "FIXED")  # off the truth: nonzero residuals

# every public call that takes (T_m, delta0), on a valid record
CLOCK_CALLS = {
    "uls_estimate": lambda T_m, d: uls_estimate(BOUNDARY_SERIES, T_m, d),
    "pcp_estimate": lambda T_m, d: pcp_estimate(BOUNDARY_SERIES, T_m, d, BOUNDARY_GRIDS),
    "wls_estimate": lambda T_m, d: wls_estimate(BOUNDARY_SERIES, T_m, d, BOUNDARY_GRIDS),
    "wls_cost": lambda T_m, d: wls_cost(
        -32.0, 1.0, BOUNDARY_SERIES, T_m, d, WeightVector(np.ones(len(BOUNDARY_SERIES)))),
    "residuals": lambda T_m, d: residuals(BOUNDARY_SERIES, FIXED, T_m, d),
    "residual_acf": lambda T_m, d: residual_acf(BOUNDARY_SERIES, FIXED, 10, T_m, d),
}

# three stamps off the 1 ms lattice, the second 0.3 Ts past its point
OFF_LATTICE = RttSeries(1e-3 * np.array([0.0, 0.3, 2.0]),
                        LINK.delta0 + np.array([1e-9, 4e-9, 2e-9]))
OFF_LATTICE_GRIDS = SearchGrids(3, 1e-3)

bad_t_m = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                    st.sampled_from([math.nan, math.inf]))
boundary = settings(max_examples=40, derandomize=True, deadline=None)


class TestBoundary:
    @boundary
    @given(st.sampled_from(sorted(CLOCK_CALLS)), bad_t_m)
    def test_rejects_bad_t_m(self, name, T_m):
        # T_m = 0 would divide by zero, T_m < 0 flip the sign of f_d, and
        # T_m near 1e300 overflow WLS or give a range near -1e308 m
        with pytest.raises(ValueError, match="T_m"):
            CLOCK_CALLS[name](T_m, LINK.delta0)

    @boundary
    @given(st.sampled_from(sorted(CLOCK_CALLS)), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_rejects_nonfinite_delta0(self, name, delta0):
        with pytest.raises(ValueError, match="delta0"):
            CLOCK_CALLS[name](T_M, delta0)

    @pytest.mark.parametrize("call, message", [
        (lambda: uls_estimate(RttSeries([0.0], [5e-6]), 0.0, LINK.delta0), "T_m"),
        (lambda: pcp_estimate(OFF_LATTICE, 0.0, LINK.delta0, OFF_LATTICE_GRIDS), "T_m"),
        (lambda: wls_estimate(OFF_LATTICE, 0.0, LINK.delta0, OFF_LATTICE_GRIDS), "T_m"),
        (lambda: wls_estimate(OFF_LATTICE, 0.0, LINK.delta0, OFF_LATTICE_GRIDS,
                              WeightVector(np.ones(4))), "T_m"),
        (lambda: wls_estimate(OFF_LATTICE, T_M, LINK.delta0, OFF_LATTICE_GRIDS,
                              WeightVector(np.ones(4))), "weight length mismatch"),
        (lambda: wls_estimate(OFF_LATTICE, T_M, LINK.delta0, OFF_LATTICE_GRIDS,
                              WeightVector([1.0, 0.0, 0.0])), "at least 2 kept samples"),
        (lambda: pcp_estimate(OFF_LATTICE, T_M, LINK.delta0, OFF_LATTICE_GRIDS),
         "uniformly spaced"),
    ], ids=["uls-clock-before-count", "pcp-clock-before-stamps", "wls-clock-before-stamps",
            "wls-clock-before-mask", "wls-mask-length-before-stamps",
            "wls-kept-count-before-stamps", "pcp-stamps-before-count"])
    def test_first_fault_wins(self, call, message):
        # an input with two faults is refused for the first of: the clock,
        # the WLS mask's length and kept count, the stamps, the kernel's
        # sample count
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("field", ["f_d_hat", "phi_hat", "rho_hat"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_estimate_rejects_nonfinite(self, field, value):
        fields = dict(f_d_hat=-32.0, phi_hat=1.0, rho_hat=2.0)
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            Estimate(method="FIXED", **fields)
