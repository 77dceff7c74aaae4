import math

import numpy as np
import pytest

from rttsync.edge_sim import (
    ExchangeConfig,
    Oscillator,
    equivalent_clock_truth,
    simulate_campaign,
    _next_edge,
)
from rttsync.model import SPEED_OF_LIGHT, LinkTruth, NoiseSpec, SampleSchedule, _generate_rows


def make_pair(f_slave, varphi_m=0.0, varphi_s=0.0):
    master = Oscillator(f0=1e8, alpha=1.0, varphi=varphi_m)
    slave = Oscillator.from_frequency(1e8, f_slave, varphi=varphi_s)
    return master, slave


class TestOscillator:
    def test_frequency_with_skew(self):
        osc = Oscillator(f0=1e8, alpha=1.0 + 1e-6, varphi=0.0)
        assert osc.frequency == pytest.approx(1e8 / (1.0 + 1e-6), rel=1e-15)

    def test_from_frequency_round_trip(self):
        osc = Oscillator.from_frequency(1e8, 1e8 - 32.0, varphi=0.25e-8)
        assert osc.frequency == pytest.approx(1e8 - 32.0, rel=1e-15)

    def test_period(self):
        osc = Oscillator(f0=1e8)
        assert osc.period == pytest.approx(1e-8, rel=1e-15)

    def test_rejects_varphi_outside_period(self):
        with pytest.raises(ValueError):
            Oscillator(f0=1e8, varphi=2e-8)


class TestNextEdge:
    def test_on_edge_returns_that_edge(self):
        # ceil convention: a query exactly on an edge maps to itself
        osc = Oscillator(f0=1e8, varphi=0.0)
        assert _next_edge(osc, 3e-8) == pytest.approx(3e-8, rel=1e-12)

    def test_between_edges(self):
        osc = Oscillator(f0=1e8, varphi=0.0)
        assert _next_edge(osc, 3.2e-8) == pytest.approx(4e-8, rel=1e-12)

    def test_phase_offset(self):
        osc = Oscillator(f0=1e8, varphi=0.3e-8)
        assert _next_edge(osc, 0.0) == pytest.approx(0.3e-8, rel=1e-9)

    def test_vectorized(self):
        osc = Oscillator(f0=1e8, varphi=0.0)
        out = _next_edge(osc, np.array([0.0, 1.5e-8, 2.9e-8]))
        np.testing.assert_allclose(out, [0.0, 2e-8, 3e-8], rtol=1e-12)


def first_rtt(master, slave, cfg, ping_t):
    """RTT of the first exchange of a two-exchange campaign starting at ping_t."""
    series = simulate_campaign(master, slave, cfg, SampleSchedule(ping_t, 1e-3, 2))
    return float(series.values[0])


class TestSingleExchange:
    def test_zero_range_identical_clocks(self):
        master, slave = make_pair(1e8)
        cfg = ExchangeConfig(K=500, rho=0.0)
        # aligned edges, no flight: RTT is exactly K slave periods
        assert first_rtt(master, slave, cfg, 0.0) == pytest.approx(
            500 * 1e-8, rel=1e-12
        )

    def test_flight_time_appears_twice_modulo_edge_snap(self):
        master, slave = make_pair(1e8)
        r0 = first_rtt(master, slave, ExchangeConfig(K=500, rho=0.0), 0.0)
        r1 = first_rtt(master, slave, ExchangeConfig(K=500, rho=2.0), 0.0)
        flight = 2.0 / SPEED_OF_LIGHT
        # count start moves to the next slave edge after arrival; the return
        # flight adds in full, so the delta is that edge time plus one flight
        expected_delta = math.ceil(flight * 1e8) / 1e8 + flight
        assert r1 - r0 == pytest.approx(expected_delta, rel=1e-9)

    def test_tdc_quantization(self):
        master, slave = make_pair(1e8 - 32.0, varphi_s=0.37e-8)
        cfg = ExchangeConfig(K=500, rho=2.0, tdc_resolution=1e-11)
        rtt = first_rtt(master, slave, cfg, 0.123)
        assert rtt == pytest.approx(round(rtt / 1e-11) * 1e-11, abs=1e-15)


class TestCampaignVsModel:
    def check_against_model(self, master, slave, rho, n=2000):
        cfg = ExchangeConfig(K=500, rho=rho)
        series = simulate_campaign(master, slave, cfg, SampleSchedule(0.0, 1e-3, n))
        clock = equivalent_clock_truth(master, slave, rho)
        link = LinkTruth(rho=rho, delta0=cfg.K * slave.period)
        # the generator generate_series and run_sweep run, at the edge stamps
        model = _generate_rows(series.times, [clock.f_d], [clock.phi], clock.T_m, link,
                               [NoiseSpec()], [0])[0]
        return float(np.max(np.abs(series.values - model)))

    def test_matches_closed_form_model(self):
        master, slave = make_pair(1e8 - 32.0, varphi_s=0.41e-8)
        assert self.check_against_model(master, slave, 2.0) < 1e-11

    def test_matches_model_positive_fd(self):
        master, slave = make_pair(1e8 + 100.0, varphi_m=0.13e-8)
        assert self.check_against_model(master, slave, 5.0, n=1000) < 1e-11

    def test_equivalent_truth_fields(self):
        master, slave = make_pair(1e8 - 32.0)
        clock = equivalent_clock_truth(master, slave, 2.0)
        assert clock.f_m == pytest.approx(1e8)
        # difference convention is master minus slave
        assert clock.f_d == pytest.approx(32.0, rel=1e-9)
        assert 0.0 <= clock.phi < 2.0 * math.pi

    def test_phase_a_hair_below_a_full_turn_is_zero(self):
        # frac(-1e-17) rounds up to 1.0, a full turn, which ClockTruth rejects
        clock = equivalent_clock_truth(Oscillator(1e8, varphi=1e-25), Oscillator(1e8), 0.0)
        assert clock.phi == 0.0

    def test_emission_snaps_to_master_edges(self):
        master, slave = make_pair(1e8 - 32.0, varphi_m=0.13e-8)
        schedule = SampleSchedule(0.0, 1e-3, 10)
        series = simulate_campaign(master, slave, ExchangeConfig(K=500, rho=0.0), schedule)
        pings = schedule.times()
        assert len(series.values) == 10
        # emission snaps forward onto the next master edge
        assert np.all(series.times >= pings)
        assert np.all(series.times - pings < master.period)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            ExchangeConfig(K=0, rho=0.0)

    def test_campaign_requires_epochs(self):
        master, slave = make_pair(1e8)
        with pytest.raises(TypeError):
            simulate_campaign(master, slave, ExchangeConfig(K=1, rho=0.0))
