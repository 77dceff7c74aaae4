"""Outlier handling: median/nMAD weights vs pre-filtering.

Real RTT captures contain gross outliers (missed detections, multipath).
Two defenses are implemented: replace flagged samples before estimation
(for ULS and PCP, which have no notion of weights), or hand the raw record
to WLS with 0/1 robust weights.
"""

import numpy as np

from rttsync import (
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    SampleSchedule,
    SearchGrids,
    generate_series,
    preprocess_outliers,
    robust_weights,
    uls_estimate,
    wls_estimate,
)

clock = ClockTruth(f_m=1e8, f_d=-32.0, phi=1.0)
link = LinkTruth(rho=2.0, delta0=5e-6)
schedule = SampleSchedule(0.0, 1e-3, 200)
noise = NoiseSpec.from_snr(40.0, 40.0, clock.T_m)

clean = generate_series(schedule, clock, link, noise, seed=4)
# 15% of the samples, at random positions, replaced by gross values
rng = np.random.default_rng(5)
idx = np.sort(rng.choice(len(clean), size=round(0.15 * len(clean)), replace=False))
values = clean.values.copy()
values[idx] = rng.uniform(3.5e-6, 4.9e-6, size=idx.size)
dirty = clean.with_values(values)
print(f"injected {idx.size} outliers into {len(dirty)} samples")

w = robust_weights(dirty)
flagged = np.flatnonzero(w.w == 0.0)
hits = np.intersect1d(flagged, idx).size
print(f"robust weights flagged {flagged.size} samples "
      f"({hits}/{idx.size} true outliers caught)")

grids = SearchGrids(schedule.N, schedule.Ts)
naive = uls_estimate(dirty, clock.T_m, link.delta0)
filtered = uls_estimate(preprocess_outliers(dirty), clock.T_m, link.delta0)
robust = wls_estimate(dirty, clock.T_m, link.delta0, grids, w)

print(f"\ntruth:              f_d = {clock.f_d:8.2f} Hz, rho = {link.rho:7.3f} m")
print(f"ULS on raw data:    f_d = {naive.f_d_hat:8.2f} Hz, rho = {naive.rho_hat:7.3f} m")
print(f"ULS after filter:   f_d = {filtered.f_d_hat:8.2f} Hz, rho = {filtered.rho_hat:7.3f} m")
print(f"WLS with weights:   f_d = {robust.f_d_hat:8.2f} Hz, rho = {robust.rho_hat:7.3f} m")
