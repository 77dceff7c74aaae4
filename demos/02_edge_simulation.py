"""Edge-level simulation as an independent check of the sawtooth formula.

Here nothing is assumed about the RTT record: two oscillators tick, the
master emits on an edge, the slave counts K of its own cycles from the
first edge after the PING arrives, and the master times the round trip.
The closed-form model should reproduce this to well below a picosecond.
"""

import numpy as np

from rttsync import (
    ExchangeConfig,
    LinkTruth,
    Oscillator,
    SampleSchedule,
    equivalent_clock_truth,
    sawtooth_template,
    simulate_campaign,
)

master = Oscillator(f0=1e8, varphi=0.0)
slave = Oscillator.from_frequency(1e8, 1e8 + 32.0, varphi=0.41e-8)
cfg = ExchangeConfig(K=500, rho=2.0)  # 500 slave cycles = 5 us delay

print(f"master {master.frequency:.0f} Hz, slave {slave.frequency:.0f} Hz "
      f"-> f_d = {master.frequency - slave.frequency:+.0f} Hz")

series = simulate_campaign(master, slave, cfg, SampleSchedule(0.0, 1e-3, 10_000))

# fold both initial oscillator phases and the flight time into the single
# model phase, then compare sample by sample
clock = equivalent_clock_truth(master, slave, cfg.rho)
link = LinkTruth(rho=cfg.rho, delta0=cfg.K * slave.period)
h = sawtooth_template(series.times, clock.f_d, clock.phi, clock.T_m)
model = h + link.delta0 + link.flight_time

err = np.abs(series.values - model)
print(f"equivalent model phase phi = {clock.phi:.6f} rad")
print(f"10^4 exchanges: max |edge - model| = {err.max():.2e} s, "
      f"mean = {err.mean():.2e} s")

# a realistic time-to-digital converter quantizes the measurement
cfg_tdc = ExchangeConfig(K=500, rho=2.0, tdc_resolution=1e-11)
quantized = simulate_campaign(master, slave, cfg_tdc, SampleSchedule(0.0, 1e-3, 10_000))
print(f"with a 10 ps TDC: max |quantized - ideal| = "
      f"{np.abs(quantized.values - series.values).max():.2e} s")
