"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with -s or on failure); the
test name doubles as the pass/fail line under pytest -v. Criterion 5 is
expected to fail, on its PCP condition, and is marked accordingly; its WLS
and ULS conditions have a passing test of their own. The analysis lives in
the decisions ledger.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from rttsync.analysis import residual_acf
from rttsync.cli import cli_main
from rttsync.edge_sim import ExchangeConfig, Oscillator, equivalent_clock_truth, simulate_campaign
from rttsync.estimators import (
    SearchGrids,
    WeightVector,
    pcp_estimate,
    phase_error,
    sawtooth_template,
    uls_estimate,
    wls_estimate,
)
from rttsync.model import (
    SPEED_OF_LIGHT,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    RttSeries,
    SampleSchedule,
    _generate_rows,
    generate_series,
)
from rttsync.montecarlo import ExperimentConfig, OutlierSpec, run_sweep

from oracles import wls_cost

TWO_PI = 2.0 * math.pi
T_M = 1e-8
LINK = LinkTruth(rho=2.0, delta0=5e-6)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def test_criterion_1_concentrated_cost_equals_direct_minimization():
    # 100 random small instances: the concentrated cost must match the
    # minimum over the constant range term, found independently by exact
    # quadratic interpolation (the cost is quadratic in rho)
    rng = np.random.default_rng(2024)
    t_start = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        t = np.sort(rng.uniform(0.0, 0.5, n))
        y = 5e-6 + 1e-8 * rng.uniform(0.0, 1.0, n)
        w = rng.integers(0, 2, n).astype(float)
        while w.sum() < 2:  # a single usable sample fits exactly, min = 0
            w[rng.integers(n)] = 1.0
        series = RttSeries(t, y)
        wv = WeightVector(w)
        f = float(rng.uniform(-200.0, 200.0))
        phi = float(rng.uniform(0.0, TWO_PI))

        base = y - sawtooth_template(t, f, phi, T_M) - LINK.delta0

        def direct(rho):
            r = base - 2.0 * rho / SPEED_OF_LIGHT
            return float(np.sum(w * r * r))

        # locate the vertex coarsely first: interpolating far from it loses
        # the tiny minimum to cancellation
        rho_grid = np.linspace(-5.0, 5.0, 401)
        res = base[None, :] - (2.0 / SPEED_OF_LIGHT) * rho_grid[:, None]
        costs = (w[None, :] * res * res).sum(axis=1)
        r0 = rho_grid[int(np.argmin(costs))]
        h = rho_grid[1] - rho_grid[0]
        c_m1, c_0, c_p1 = direct(r0 - h), direct(r0), direct(r0 + h)
        a = 0.5 * (c_p1 + c_m1) - c_0
        b = 0.5 * (c_p1 - c_m1)
        oracle = c_0 - b * b / (4.0 * a)
        mine = wls_cost(f, phi, series, T_M, LINK.delta0, wv)
        worst = max(worst, abs(mine - oracle) / max(abs(oracle), 1e-300))
    elapsed = time.time() - t_start
    ok = worst < 1e-12 and elapsed < 1.0
    assert report(1, ok, f"max rel dev {worst:.2e}, {elapsed:.2f}s"), worst


def test_criterion_2_edge_simulation_matches_closed_form_model():
    t_start = time.time()
    master = Oscillator(f0=1e8, varphi=0.0)
    slave = Oscillator.from_frequency(1e8, 1e8 + 32.0, varphi=0.41e-8)  # f_d = -32
    cfg = ExchangeConfig(K=500, rho=2.0)  # K*T_m = 5 us
    series = simulate_campaign(master, slave, cfg, SampleSchedule(0.0, 1e-3, 10_000))
    clock = equivalent_clock_truth(master, slave, cfg.rho)
    link = LinkTruth(rho=cfg.rho, delta0=cfg.K * slave.period)
    # the generator generate_series and run_sweep run, at the edge stamps
    model = _generate_rows(series.times, [clock.f_d], [clock.phi], clock.T_m, link,
                           [NoiseSpec()], [0])[0]
    worst = float(np.max(np.abs(series.values - model)))
    elapsed = time.time() - t_start
    ok = worst <= 1e-11 and elapsed < 5.0
    assert report(2, ok, f"max |edge - model| {worst:.2e}s, {elapsed:.2f}s"), worst


def test_criterion_3_hundred_samples_suffice_at_40db():
    cfg = ExperimentConfig(
        clock=ClockTruth(1e8, -32.0, 0.0),
        link=LINK,
        schedule=SampleSchedule(0.0, 1e-3, 100),
        noise=NoiseSpec.from_snr(40.0, 40.0, T_M),
        M=1000,
        seed=1,
        estimators=("WLS",),
    )
    rep = run_sweep(cfg)
    row = rep.rows[0]
    fd, phi_s, rho = row["rmse_fd_hz"], row["rmse_phi_s"], row["rmse_rho_m"]
    ok = fd <= 5.0 and phi_s <= 5e-9 and rho <= 0.3 and row["n_failed"] == 0
    assert report(
        3, ok, f"WLS RMSE: f_d {fd:.3f} Hz, phi {phi_s:.2e} s, rho {rho:.3f} m"
    ), row


def test_criterion_4_outlier_robustness_and_breakdown():
    # ULS must see the raw contaminated data here; the standard protocol
    # pre-filters it, which would mask the degradation this criterion probes
    cfg = ExperimentConfig(
        clock=ClockTruth(1e8, -32.0, 0.0),
        link=LINK,
        schedule=SampleSchedule(0.0, 1e-3, 100),
        noise=NoiseSpec.from_snr(40.0, 40.0, T_M),
        outliers=OutlierSpec(fraction=0.0),
        M=120,
        seed=2,
        estimators=("ULS", "WLS"),
        sweep_axis="outlier_fraction",
        sweep_values=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        preprocess=False,
    )
    rep = run_sweep(cfg)
    wls0 = rep.row(0.0, "WLS")["rmse_rho_m"]
    wls3 = rep.row(0.3, "WLS")["rmse_rho_m"]
    wls5 = rep.row(0.5, "WLS")["rmse_rho_m"]
    uls0 = rep.row(0.0, "ULS")["rmse_rho_m"]
    uls1 = rep.row(0.1, "ULS")["rmse_rho_m"]
    ok = wls3 <= 2.0 * wls0 and wls5 >= 10.0 * wls0 and uls1 >= 10.0 * uls0
    assert report(
        4,
        ok,
        f"range RMSE ratios: WLS 0.3/0.0 {wls3 / wls0:.2f} (<=2), "
        f"WLS 0.5/0.0 {wls5 / wls0:.1f} (>=10), ULS 0.1/0.0 {uls1 / uls0:.1f} (>=10)",
    ), rep.rows


@pytest.mark.xfail(
    reason="the refined PCP frequency error is flat in f_d (200 vs 32 Hz) "
    "rather than growing with it",
    strict=True,
)
def test_criterion_5_fd_sensitivity():
    values = (-200.0, -100.0, -32.0, 32.0, 100.0, 200.0)
    cfg = ExperimentConfig(
        clock=ClockTruth(1e8, -32.0, 0.0),
        link=LINK,
        schedule=SampleSchedule(0.0, 1e-3, 200),
        noise=NoiseSpec.from_snr(20.0, 20.0, T_M),
        M=150,
        seed=3,
        sweep_axis="f_d",
        sweep_values=values,
    )
    rep = run_sweep(cfg)
    wls = [rep.row(v, "WLS")["rmse_fd_hz"] for v in values]
    ratio = max(wls) / min(wls)

    def mag(est, m):
        return 0.5 * (rep.row(-m, est)["rmse_fd_hz"] + rep.row(m, est)["rmse_fd_hz"])

    pcp_grows = mag("PCP", 200.0) > mag("PCP", 32.0)
    uls_grows = mag("ULS", 200.0) > mag("ULS", 32.0)
    ok = ratio < 3.0 and pcp_grows and uls_grows
    assert report(
        5,
        ok,
        f"WLS max/min {ratio:.1f} (<3), ULS 200 vs 32: {mag('ULS', 200.0):.2f}"
        f"/{mag('ULS', 32.0):.2f}, PCP 200 vs 32: {mag('PCP', 200.0):.3f}"
        f"/{mag('PCP', 32.0):.3f}",
    ), [f"{v:.3g}" for v in wls]


def test_criterion_5_wls_and_uls_conditions():
    # the two conditions of criterion 5 that the program meets, on its
    # config, so that the xfail above, which fails on PCP, cannot hide a
    # regression in them; ULS and WLS draw the same trials without PCP
    values = (-200.0, -100.0, -32.0, 32.0, 100.0, 200.0)
    cfg = ExperimentConfig(
        clock=ClockTruth(1e8, -32.0, 0.0),
        link=LINK,
        schedule=SampleSchedule(0.0, 1e-3, 200),
        noise=NoiseSpec.from_snr(20.0, 20.0, T_M),
        M=150,
        seed=3,
        estimators=("ULS", "WLS"),
        sweep_axis="f_d",
        sweep_values=values,
    )
    rep = run_sweep(cfg)
    wls = [rep.row(v, "WLS")["rmse_fd_hz"] for v in values]
    ratio = max(wls) / min(wls)
    uls = {m: 0.5 * (rep.row(-m, "ULS")["rmse_fd_hz"] + rep.row(m, "ULS")["rmse_fd_hz"])
           for m in (32.0, 200.0)}
    ok = ratio < 3.0 and uls[200.0] > uls[32.0]
    assert report(
        "5 (WLS, ULS)", ok,
        f"WLS max/min {ratio:.3f} (<3), ULS 200 vs 32: {uls[200.0]:.2f}/{uls[32.0]:.2f}",
    ), (wls, uls)


def test_criterion_6_noiseless_exactness():
    # 33 cycles over 1000 samples: coprime with N, so wrap positions fill a
    # dense lattice and all three parameters are well identified
    clock = ClockTruth(1e8, -33.0, 2.0)
    series = generate_series(SampleSchedule(0.0, 1e-3, 1000), clock, LINK)
    grids = SearchGrids(1000, 1e-3)
    phi_tol = TWO_PI / 512  # phase identifiability, not refinement, limits
    eps = 1e-9

    details = []
    ok = True
    ests = {
        "ULS": uls_estimate(series, T_M, LINK.delta0),
        "PCP": pcp_estimate(series, T_M, LINK.delta0, grids),
        "WLS": wls_estimate(series, T_M, LINK.delta0, grids),
    }
    for name, est in ests.items():
        df = abs(est.f_d_hat - clock.f_d)
        dphi = abs(phase_error(est.phi_hat, clock.phi))
        drho = abs(est.rho_hat - LINK.rho)
        f_tol = est.f_grid_step if est.f_grid_step is not None else 1e-6
        ok = ok and df <= f_tol + eps and dphi <= phi_tol and drho <= 0.02
        details.append(f"{name} df {df:.1e} dphi {dphi:.1e} drho {drho:.1e}")

    # constant record (f_d = 0): frequency must still come out zero; phase
    # and range are only jointly identifiable there, so they are not scored
    clock0 = ClockTruth(1e8, 0.0, 2.0)
    series0 = generate_series(SampleSchedule(0.0, 1e-3, 1000), clock0, LINK)
    f0 = (
        uls_estimate(series0, T_M, LINK.delta0).f_d_hat,
        pcp_estimate(series0, T_M, LINK.delta0, grids).f_d_hat,
        wls_estimate(series0, T_M, LINK.delta0, grids).f_d_hat,
    )
    ok = ok and all(abs(f) <= grids.f_step for f in f0)
    assert report(6, ok, "; ".join(details) + f"; f_d=0 -> {f0}"), details


def test_criterion_7_residual_whiteness():
    noise = NoiseSpec.from_snr(40.0, 40.0, T_M)
    good, bad = [], []
    for ss in np.random.SeedSequence(42).spawn(100):
        phi_ss, s_ss = ss.spawn(2)
        phi = float(np.random.default_rng(phi_ss).uniform(0.0, TWO_PI))
        clock = ClockTruth(1e8, -33.0, phi)
        series = generate_series(
            SampleSchedule(0.0, 1e-3, 1000), clock, LINK, noise, seed=s_ss
        )
        est = uls_estimate(series, T_M, LINK.delta0)
        good.append(residual_acf(series, est, 50, T_M, LINK.delta0).fraction_inside)
        wrong = dataclasses.replace(est, f_d_hat=2.0 * est.f_d_hat)
        bad.append(residual_acf(series, wrong, 50, T_M, LINK.delta0).fraction_inside)
    g, b = float(np.mean(good)), float(np.mean(bad))
    ok = g >= 0.95 and b < 0.50
    assert report(7, ok, f"inside fraction: well-specified {g:.3f}, 2x wrong f_d {b:.3f}"), (g, b)


def test_criterion_8_cli_determinism(tmp_path):
    runs = {
        "sim_model": ["simulate", "--f-d", "-32", "--snr-c-db", "30",
                      "--snr-j-db", "30", "-n", "80", "--seed", "7"],
        "sim_edge": ["simulate", "--generator", "edge", "--f-d", "-32",
                     "-n", "80", "--slave-varphi", "0.41e-8"],
    }
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        "[experiment]\nf_m = 1e8\nf_d = -32\nrho = 2.0\ndelta0 = 5e-6\n"
        "ts = 1e-3\nn = 40\nsnr_c_db = 40\nsnr_j_db = 40\n"
        "estimators = uls,wls\nm = 3\nseed = 5\n"
        "sweep_axis = snr_c\nsweep_values = 20, 40\n"
    )
    pairs_path = tmp_path / "pairs.csv"
    ranges = np.linspace(1.0, 20.0, 10)
    rtts = 5e-6 + 2.0 * ranges / SPEED_OF_LIGHT
    pairs_path.write_text(
        "range_m,rtt_seconds\n"
        + "".join(f"{float(r)!r},{float(x)!r}\n" for r, x in zip(ranges, rtts))
    )

    outputs = {}
    for tag, argv in runs.items():
        files = []
        for rep in (1, 2):
            out = tmp_path / f"{tag}_{rep}.csv"
            assert cli_main(argv + ["-o", str(out)]) == 0
            files.append(out.read_bytes())
        outputs[tag] = files[0] == files[1]

    series_path = tmp_path / "sim_model_1.csv"
    more = {
        "estimate": ["estimate", str(series_path), "--method", "wls"],
        "sweep": ["sweep", "--config", str(cfg_path)],
        "residuals": ["residuals", str(series_path), "--method", "uls",
                      "--max-lag", "20"],
        "calibrate": ["calibrate", str(pairs_path)],
    }
    for tag, argv in more.items():
        files = []
        for rep in (1, 2):
            out = tmp_path / f"{tag}_{rep}.out"
            assert cli_main(argv + ["-o", str(out)]) == 0
            files.append(out.read_bytes())
        outputs[tag] = files[0] == files[1]

    ok = all(outputs.values())
    assert report(8, ok, f"byte-identical reruns: {outputs}"), outputs
