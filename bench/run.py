"""rttsync benchmark: Monte Carlo sweep throughput and single-record estimate
latency, with a traced run that times each layer.

Run from the root of a checkout:

    python3 bench/run.py --workload all            # every workload, report + checks
    python3 bench/run.py --workload sweep_c3 --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

# One caller per workload, so BLAS and FFT get one thread each.
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it
REPLAY_BUDGET_S = 3.0

# Bounded end-to-end metrics. On a shared host the machine's speed changes
# by up to 1.6x for seconds at a time, which moves the median and the mean
# of a run by 20-50 %; the fastest operation of a run moves by far less.
END_TO_END = {"setup_s": "s", "op_ms.min": "ms"}
# Printed with the bounded ones, but too noisy on such a host to bound.
REPORTED = {"ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.tail": "ms",
            "failed_frac": "frac", "minor_faults_per_op": "count", "sys_share": "frac"}


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest percentile that still has TAIL_BEYOND
    samples above it, i.e. the (TAIL_BEYOND+1)-th largest sample."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "rttsync", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or 'unverified'."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unverified"


def metadata(seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "thread_cap": THREAD_CAP,
        "blas_threads": _blas_threads(),
    }


def measure(workload, state, seconds: float, tracer=None) -> dict:
    """Closed loop: run operations until `seconds` have passed (and at least
    enough samples for a tail), checking each output outside the timing."""
    op_s, attempted, failed = [], 0, 0
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or len(op_s) <= TAIL_BEYOND:
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out = workload.run(state, k)
        except Exception:  # the program crashed: a failed operation, like a non-zero exit
            traceback.print_exc()
            out = None
        op_s.append(time.perf_counter() - t0)
        result = workload.check(state, k, out)
        attempted += result.attempted
        failed += result.failed
        k += 1
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    per_unit_ms = [1e3 * s / workload.units_per_op for s in op_s]
    pct, tail_ms = tail(per_unit_ms)
    wall_s = sum(op_s)
    return {
        "op_ms.min": min(per_unit_ms),
        "ops_per_s": workload.units_per_op * len(op_s) / wall_s,
        "op_ms.p50": statistics.median(per_unit_ms),
        "op_ms.tail": tail_ms,
        "failed_frac": failed / attempted,
        # the check's own faults and system time are counted too; both are small
        "minor_faults_per_op": (usage1.ru_minflt - usage0.ru_minflt) / len(op_s),
        "sys_share": (usage1.ru_stime - usage0.ru_stime) / wall_s,
        "tail_pct": pct,
        "samples": len(op_s),
        "wall_s": wall_s,
        "units": workload.units_per_op * len(op_s),
        "attempted": attempted,
        "failed": failed,
    }


def _workdir(name: str) -> str:
    path = os.path.join(OUT_DIR, "work", name)
    os.makedirs(path, exist_ok=True)
    return path


def run_untraced(workload, seed: int, seconds: float):
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed, _workdir(workload.name))
        setups.append(time.perf_counter() - t0)
    window = measure(workload, state, seconds)
    window["setup_s"] = statistics.median(setups)
    return {k: window[k] for k in END_TO_END}, window, []


def run_traced(workload, seed: int, seconds: float):
    """Half the time untraced, half traced; the difference is the overhead."""
    import tracing
    from rttsync import estimators

    state = workload.setup(seed, _workdir(workload.name))
    plain = measure(workload, state, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(workload, state, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    coarse, refine = tracing.replay_wls(tracer, estimators.wls_estimate, REPLAY_BUDGET_S)
    trials = traced["units"] if workload.unit == "trial" else 0
    metrics = tracing.layer_metrics(tracer, traced["wall_s"], trials, coarse, refine)
    metrics["process.minor_faults_per_op"] = traced["minor_faults_per_op"]
    metrics["process.sys_share"] = traced["sys_share"]
    metrics["trace.overhead.ops_per_s"] = plain["ops_per_s"] / traced["ops_per_s"] - 1.0
    metrics["trace.overhead.op_ms_p50"] = traced["op_ms.p50"] / plain["op_ms.p50"] - 1.0
    metrics["trace.overhead.op_ms_min"] = traced["op_ms.min"] / plain["op_ms.min"] - 1.0
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    window = dict(traced, attempted=attempted, failed=failed, failed_frac=failed / attempted)
    return metrics, window, [span.as_list() for span in tracer.spans]


def _units(trace: int) -> dict:
    import tracing

    return tracing.per_layer_units() if trace else END_TO_END


def report(workload, trace: int, metrics: dict, window: dict, meta: dict) -> None:
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# {workload.describe()}; closed loop, 1 caller")
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    units = _units(trace)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"# op = one {workload.unit} ({workload.units_per_op} per timed call), "
          f"{window['samples']} timed calls; op_ms.tail = p{window['tail_pct']:.1f}, "
          f"the {TAIL_BEYOND + 1}th largest of {window['samples']}; "
          f"{window['failed']} of {window['attempted']} attempts failed")
    for name, unit in REPORTED.items():
        print(f"{name} {window[name]:.6g} {unit} (not bounded)")


def run_one(name: str, seed: int, seconds: float, trace: int):
    import workloads

    workload = workloads.WORKLOADS[name]
    meta = metadata(seed)
    if trace:
        metrics, window, spans = run_traced(workload, seed, seconds)
    else:
        metrics, window, spans = run_untraced(workload, seed, seconds)
    report(workload, trace, metrics, window, meta)
    os.makedirs(OUT_DIR, exist_ok=True)
    dump = {"workload": name, "trace": trace, "meta": meta, "metrics": metrics,
            "window": window, "span_fields": ["name", "start", "end", "parent", "op", "failed"],
            "spans": spans}
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(dump, fh)
    return metrics, window


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)  # before numpy loads BLAS
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rttsync", "__init__.py")):
        print(f"bench: no rttsync sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import rttsync
    import workloads

    if not os.path.abspath(rttsync.__file__).startswith(src + os.sep):
        print(f"bench: imported rttsync from {rttsync.__file__}, not {src}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    results = {n: run_one(n, args.seed, args.seconds, args.trace) for n in names}
    units = _units(args.trace)
    metrics = {}
    for n, (m, _) in results.items():
        for k, v in m.items():
            metrics[f"{n}/{k}" if len(names) > 1 else k] = {"value": v, "unit": units[k]}
    windows = [w for _, w in results.values()]
    failed = sum(w["failed"] for w in windows)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(w["attempted"] for w in windows),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
