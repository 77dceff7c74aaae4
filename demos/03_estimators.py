"""The three joint estimators on one noisy record.

All three recover (f_d, phi, rho) from the same N = 200 samples:
  ULS  unwraps the normalized record and fits a line;
  PCP  picks the periodogram peak, then the correlation peak exactly over
       the continuous phase circle;
  WLS  minimises the concentrated weighted least-squares cost exactly over
       the frequency grid and the continuous phase circle.
"""

from rttsync import (
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    SampleSchedule,
    SearchGrids,
    generate_series,
    pcp_estimate,
    phase_error,
    phase_error_seconds,
    uls_estimate,
    wls_estimate,
)

clock = ClockTruth(f_m=1e8, f_d=-32.0, phi=2.0)
link = LinkTruth(rho=2.0, delta0=5e-6)
schedule = SampleSchedule(0.0, 1e-3, 200)
noise = NoiseSpec.from_snr(30.0, 30.0, clock.T_m)

series = generate_series(schedule, clock, link, noise, seed=11)
grids = SearchGrids(schedule.N, schedule.Ts)
print(f"truth: f_d = {clock.f_d} Hz, phi = {clock.phi} rad, rho = {link.rho} m")
print(f"search grid: {grids.F.size} frequencies (step {grids.f_step} Hz)\n")

estimates = [
    uls_estimate(series, clock.T_m, link.delta0),
    pcp_estimate(series, clock.T_m, link.delta0, grids),
    wls_estimate(series, clock.T_m, link.delta0, grids),
]
print(f"{'':4s} {'f_d [Hz]':>12s} {'phi err [ps]':>12s} {'rho [m]':>10s}")
for est in estimates:
    dphi_ps = 1e12 * phase_error_seconds(est.phi_hat, clock.phi, clock.T_m)
    print(f"{est.method:4s} {est.f_d_hat:12.4f} {dphi_ps:12.2f} {est.rho_hat:10.4f}")

# the PCP and WLS phase errors in radians, against the width of the phase
# segment over which the correlation or the cost is flat
print()
for est in estimates[1:]:
    print(f"{est.method} phase error = {phase_error(est.phi_hat, clock.phi):+.2e} rad "
          f"(phase segment width: {est.phi_grid_step:.2e} rad)")
