"""Command-line interface: simulate, estimate, sweep, residuals, calibrate."""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from . import analysis, edge_sim, estimators, io, model, montecarlo


# Flags that only one generator reads, with the value each takes when not given.
_GENERATOR_FLAGS = {
    "model": dict(phi=0.0, delta0=5e-6, seed=0, snr_c_db=None, snr_j_db=None, sigma_n=None,
                  sigma_v=None),
    "edge": dict(k=500, master_varphi=0.0, slave_varphi=0.0),
}


@functools.cache  # parse_args never mutates the parser, and no default is mutable
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rttsync",
        description="Two-way RTT simulation and joint clock/range estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate an RTT series CSV")
    sim.add_argument("--generator", choices=("model", "edge"), default="model")
    sim.add_argument("--f-m", type=float, default=1e8, help="master clock frequency, Hz")
    sim.add_argument("--f-d", type=float, default=-32.0, help="frequency difference, Hz")
    sim.add_argument("--phi", type=float, help="clock offset, rad (model; default 0)")
    sim.add_argument("--rho", type=float, default=2.0, help="range, m")
    sim.add_argument("--delta0", type=float, help="slave delay, s (model; default 5e-6)")
    sim.add_argument("--k", type=int, help="delay cycles (edge; default 500)")
    sim.add_argument("--master-varphi", type=float, help="first edge, s (edge; default 0)")
    sim.add_argument("--slave-varphi", type=float, help="first edge, s (edge; default 0)")
    sim.add_argument("--t0", type=float, default=0.0)
    sim.add_argument("--ts", type=float, default=1e-3)
    sim.add_argument("-n", "--samples", type=int, default=100)
    sim.add_argument("--snr-c-db", type=float, help="(model)")
    sim.add_argument("--snr-j-db", type=float, help="(model)")
    sim.add_argument("--sigma-n", type=float, help="channel noise, s (model)")
    sim.add_argument("--sigma-v", type=float, help="clock jitter, rad (model)")
    sim.add_argument("--seed", type=int, help="(model; default 0)")
    sim.add_argument("-o", "--output", required=True)

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("input")
    fit.add_argument("--t-m", type=float, default=1e-8, help="master clock period, s")
    fit.add_argument("--delta0", type=float, default=5e-6)
    fit.add_argument("--f-max", type=float, default=None)
    fit.add_argument("--no-refine", action="store_true")

    est = sub.add_parser("estimate", parents=[fit], help="estimate parameters from a series CSV")
    est.add_argument("--method", choices=("uls", "pcp", "wls"), required=True)
    est.add_argument("-o", "--output", default=None, help="default: stdout")

    swp = sub.add_parser("sweep", help="run a Monte Carlo sweep from a config file")
    swp.add_argument("--config", required=True)
    swp.add_argument("-o", "--output", required=True)

    res = sub.add_parser("residuals", parents=[fit], help="residual autocorrelation report")
    res.add_argument("--method", choices=("uls", "pcp", "wls"), default="wls")
    res.add_argument("--f-d", type=float, default=None, help="use fixed parameters")
    res.add_argument("--phi", type=float, default=0.0)
    res.add_argument("--rho", type=float, default=0.0)
    res.add_argument("--max-lag", type=int, default=50)
    res.add_argument("-o", "--output", required=True)

    cal = sub.add_parser("calibrate", help="fit a range calibration curve")
    cal.add_argument("pairs", help="CSV with header range_m,rtt_seconds")
    cal.add_argument("-o", "--output", required=True, help="curve JSON file")
    return parser


def _estimate(series, method: str, args) -> estimators.Estimate:
    # the clock before the span grid's own errors
    estimators._check_clock(args.t_m, args.delta0)
    t, grids, name = series.times, None, method.upper()
    if method != "uls":
        # the record as the uniform schedule of its span: one gap would carry
        # the master-edge snapping of an edge record, up to one T_m, into
        # every lattice point. The stack holds every stamp to it.
        if len(series) < 2:
            raise ValueError("need at least 2 samples")
        ts = float(t[-1] - t[0]) / (len(series) - 1)
        grids = estimators.SearchGrids(len(series), ts, args.f_max)
    return estimators._estimate_record(name, series, args.t_m, args.delta0, grids,
                                       not args.no_refine, method == "pcp")


def _cmd_simulate(args) -> int:
    opts, other = vars(args), "edge" if args.generator == "model" else "model"
    stray = [f"--{k.replace('_', '-')}" for k in _GENERATOR_FLAGS[other] if opts[k] is not None]
    if stray:
        why = "the edge generator is noiseless and deterministic: " if other == "model" else ""
        raise ValueError(f"{why}{', '.join(stray)} need --generator {other}")
    opts.update({k: v for k, v in _GENERATOR_FLAGS[args.generator].items() if opts[k] is None})
    schedule = model.SampleSchedule(t0=args.t0, Ts=args.ts, N=args.samples)
    if args.generator == "model":
        clock = model.ClockTruth(f_m=args.f_m, f_d=args.f_d, phi=args.phi)
        link = model.LinkTruth(rho=args.rho, delta0=args.delta0)
        if args.snr_c_db is not None or args.snr_j_db is not None:
            if args.snr_c_db is None or args.snr_j_db is None:
                raise ValueError("--snr-c-db and --snr-j-db must be given together")
            if args.sigma_n is not None or args.sigma_v is not None:
                raise ValueError("give --snr-c-db/--snr-j-db or --sigma-n/--sigma-v, not both")
            noise = model.NoiseSpec.from_snr(args.snr_c_db, args.snr_j_db, clock.T_m)
        else:
            noise = model.NoiseSpec(sigma_v=args.sigma_v or 0.0, sigma_n=args.sigma_n or 0.0)
        series = model.generate_series(schedule, clock, link, noise, seed=args.seed)
    else:
        master = edge_sim.Oscillator(f0=args.f_m, varphi=args.master_varphi)
        slave = edge_sim.Oscillator.from_frequency(
            f0=args.f_m, f=args.f_m - args.f_d, varphi=args.slave_varphi
        )
        cfg = edge_sim.ExchangeConfig(K=args.k, rho=args.rho)
        series = edge_sim.simulate_campaign(master, slave, cfg, schedule)
    io.write_series(args.output, series)
    return 0


def _cmd_estimate(args) -> int:
    series = io.read_series(args.input)
    est = _estimate(series, args.method, args)
    text = io.estimate_to_csv(est)
    if args.output is None:
        sys.stdout.write(text)
    else:
        io.atomic_write_text(args.output, text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = io.read_experiment_config(args.config)
    report = montecarlo.run_sweep(cfg)
    io.write_report(args.output, report)
    return 0


def _cmd_residuals(args) -> int:
    series = io.read_series(args.input)
    if args.f_d is not None:
        est = estimators.Estimate(
            f_d_hat=args.f_d, phi_hat=args.phi, rho_hat=args.rho, method="FIXED"
        )
    else:
        est = _estimate(series, args.method, args)
    report = analysis.residual_acf(series, est, args.max_lag, args.t_m, args.delta0)
    io.atomic_write_text(args.output, io.acf_to_csv(report))
    sys.stdout.write(f"fraction_inside={report.fraction_inside!r}\n")
    return 0


def _cmd_calibrate(args) -> int:
    pairs = io.read_calibration_pairs(args.pairs)
    curve = analysis.calibrate_range(pairs)
    io.atomic_write_text(args.output, io.curve_to_json(curve))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "residuals": _cmd_residuals,
    "calibrate": _cmd_calibrate,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"rttsync: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # a library warning as one line, with no source path or line echo
    warnings.formatwarning = lambda message, *_: f"rttsync: warning: {message}\n"
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
