"""Monte Carlo evaluation harness: repeated randomized trials with RMSE and
percentile reporting per estimator, swept over noise levels, record length,
outlier fraction, or the true frequency difference."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import estimators
from .estimators import SearchGrids, wrap_to_pm_pi
from .model import (
    TWO_PI,
    ClockTruth,
    LinkTruth,
    NoiseSpec,
    SampleSchedule,
    _check_flight_time,
    _generate_rows,
)

SWEEP_AXES = ("none", "snr_c", "snr_j", "N", "outlier_fraction", "f_d")

ESTIMATORS = ("ULS", "PCP", "WLS")

# The report's error parameters and the statistics of each, in column order
_PARAMS = ("fd_hz", "phi_s", "rho_m")
_STATS = ("rmse", "p25", "p50", "p75", "min", "max")
_STAT_KEYS = [f"{stat}_{param}" for param in _PARAMS for stat in _STATS]


@dataclass(frozen=True)
class OutlierSpec:
    """Replace a fraction of samples with uniform draws from [lo, hi] seconds,
    both finite, at uniformly random positions."""

    fraction: float
    lo: float = 3.5e-6
    hi: float = 4.9e-6

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("lo and hi must be finite")
        if not self.lo < self.hi:
            raise ValueError("lo must be below hi")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.

    noise holds sigmas; NoiseSpec.from_snr defines the SNRs and converts
    them, for the SNR axes too. outliers defaults to OutlierSpec(0.0), none.
    preprocess controls whether ULS and PCP see outlier-filtered data; WLS
    always receives the raw record plus robust weights. clock, link,
    schedule, noise and outliers must each be an instance of its type, and M
    and seed integers (operator.index); a field that is not is a ValueError
    that names it.
    """

    clock: ClockTruth
    link: LinkTruth
    schedule: SampleSchedule
    noise: NoiseSpec
    outliers: OutlierSpec = OutlierSpec(0.0)
    M: int = 1000
    seed: int = 0
    estimators: tuple = ESTIMATORS
    sweep_axis: str = "none"
    sweep_values: tuple = (0.0,)
    preprocess: bool = True
    refine: bool = True
    # (clock, schedule, noise, outliers) of each sweep value
    points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, kind in (("clock", ClockTruth), ("link", LinkTruth), ("schedule", SampleSchedule),
                           ("noise", NoiseSpec), ("outliers", OutlierSpec)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be an instance of {kind.__name__}, not {value!r}")
        for name in ("M", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
        values = tuple(float(v) for v in self.sweep_values)
        if not values or not all(math.isfinite(v) for v in values):
            raise ValueError("sweep values must be one or more finite numbers")
        if list(values) != sorted(values):
            raise ValueError("sweep values must be sorted")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        if not self.estimators or len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimators must be one or more, each named once")
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "points", tuple(_apply_sweep(self, v) for v in values))


@dataclass
class SweepReport:
    """Tidy per-(sweep value, estimator) RMSE and percentile summary rows."""

    sweep_axis: str
    rows: list

    COLUMNS = (["sweep_axis", "sweep_value", "estimator", "n_trials", "n_failed"]
               + [f"rmse_{param}" for param in _PARAMS]
               + [key for key in _STAT_KEYS if not key.startswith("rmse_")])

    def row(self, sweep_value: float, estimator: str) -> dict:
        for r in self.rows:
            if r["estimator"] == estimator and r["sweep_value"] == sweep_value:
                return r
        raise KeyError((sweep_value, estimator))


def _outlier_draws(n: int, spec: OutlierSpec, seed):
    """Sorted positions of round(fraction*n) outliers among n samples, and
    their values."""
    count = int(round(spec.fraction * n))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=count, replace=False))
    return idx, rng.uniform(spec.lo, spec.hi, size=count)


def _apply_sweep(cfg: ExperimentConfig, value: float):
    """Clock/schedule/noise/outliers for one sweep point; raises ValueError
    for a value the point cannot take."""
    clock, schedule, noise, outliers = cfg.clock, cfg.schedule, cfg.noise, cfg.outliers
    axis = cfg.sweep_axis
    if axis == "snr_c":
        sigma_n = NoiseSpec.from_snr(value, 0.0, clock.T_m).sigma_n
        noise = dataclasses.replace(noise, sigma_n=sigma_n)
    elif axis == "snr_j":
        sigma_v = NoiseSpec.from_snr(0.0, value, clock.T_m).sigma_v
        noise = dataclasses.replace(noise, sigma_v=sigma_v)
    elif axis == "N":
        schedule = dataclasses.replace(schedule, N=value)
    elif axis == "outlier_fraction":
        outliers = dataclasses.replace(outliers, fraction=value)
    elif axis == "f_d":
        clock = dataclasses.replace(clock, f_d=value)
    _check_flight_time(cfg.link, schedule.Ts)
    return clock, schedule, noise, outliers


# The constants of numpy's SeedSequence hash (bit_generator.pyx) and of
# PCG64's 128-bit LCG (pcg64.h), whose bits _child_words and _uniform_phase
# reproduce.
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _hash_consts(start: int, mult: int, n: int) -> np.ndarray:
    """Read-only (n + 1, 1) uint32 column start * mult**k mod 2**32, k =
    0..n: hash call k xors with entry k and multiplies by entry k + 1."""
    h = np.array([[start * pow(mult, k, 1 << 32) & _MASK32] for k in range(n + 1)],
                 dtype=np.uint32)
    h.flags.writeable = False
    return h


def _hashmix(x, xor, mul):
    """numpy's hashmix: x xor its hash constant, times the next constant,
    then xor-shifted right by 16."""
    x = x ^ xor
    x *= mul
    x ^= x >> _XSHIFT
    return x


def _mix(x, y):
    """numpy's mix of a pool word x with a hashed word y."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    r ^= r >> _XSHIFT
    return r


# mix_entropy's hash calls 4..15, the pool's cross mixing: in source round
# src, a (4, 1) column whose row d != src holds the call that mixes into
# destination d, in order (row src is unused)
_ROUND_XOR, _ROUND_MUL = (
    np.array([[calls[3 * src + d - (d > src)] if d != src else [0] for d in range(4)]
              for src in range(4)], dtype=np.uint32)
    for calls in (_hash_consts(_INIT_A, _MULT_A, 16)[4:16], _hash_consts(_INIT_A, _MULT_A, 16)[5:]))
# generate_state(4, uint64)'s hash calls: output word 4r + p hashes pool word p
_OUT_XOR = _hash_consts(_INIT_B, _MULT_B, 8)[:8].reshape(2, 4, 1)
_OUT_MUL = _hash_consts(_INIT_B, _MULT_B, 8)[1:].reshape(2, 4, 1)


@functools.cache
def _spawn_hashes(n: int, children: tuple) -> np.ndarray:
    """Read-only (C, 4, 1) hashes that mix spawn word i, entropy word n,
    into the four pool words, for each i in children."""
    h = _hash_consts(_INIT_A, _MULT_A, 4 * n + 4)
    spawn = np.array(children, dtype=np.uint32)[:, None, None]
    hashes = _hashmix(spawn, h[4 * n:4 * n + 4], h[4 * n + 1:])
    hashes.flags.writeable = False
    return hashes


def _child_words(seed: int, idx, it, children) -> np.ndarray:
    """(C, B, 4) uint64: row [c, b] holds the words generate_state(4,
    np.uint64) gives for child children[c] of SeedSequence((seed, idx[b],
    it[b])), with the bits of numpy's hash.

    The entropy is the little-endian uint32 words of each int (one word for
    0), zero-padded to the pool of 4, then the spawn word i. The trials run
    as one (word, trial) uint32 array through mix_entropy's rounds: each
    cross-mixing source round updates its three destination words at once,
    as the source word does not change in its own round, and the spawn word
    is broadcast over the children. Every idx and it must fit one word,
    below 2**32: numpy raises OverflowError otherwise."""
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    B = len(idx)
    entropy = np.array([[w] * B for w in words] + [idx, it] + [[0] * B] * (2 - len(words)),
                       dtype=np.uint32)
    n = len(entropy)
    h = _hash_consts(_INIT_A, _MULT_A, 4 * n + 4)
    pool = _hashmix(entropy[:4], h[:4], h[1:5])
    for src in range(4):
        mixed = _mix(pool, _hashmix(pool[src], _ROUND_XOR[src], _ROUND_MUL[src]))
        mixed[src] = pool[src]
        pool = mixed
    # each word past the pool mixes into all four, the spawn word last
    for w in range(4, n):
        pool = _mix(pool, _hashmix(entropy[w], h[4 * w:4 * w + 4], h[4 * w + 1:4 * w + 5]))
    pool = _mix(pool, _spawn_hashes(n, tuple(children)))
    out = _hashmix(pool[:, None], _OUT_XOR, _OUT_MUL).reshape(len(children), 8, B)
    # uint32 pairs read little-endian as uint64, as generate_state reads them
    out = np.ascontiguousarray(np.swapaxes(out, 1, 2), dtype="<u4").view("<u8")
    return out.astype(np.uint64)


class _Drawn(np.random.bit_generator.ISeedSequence):
    """A child's generate_state(4, np.uint64) words from _child_words, for
    np.random.PCG64(_Drawn(words)), which asks for exactly those and seeds
    itself from them as it would from the child."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uniform_phase(v0: int, v1: int, v2: int, v3: int) -> float:
    """Generator(PCG64) seeded from generate_state words v0..v3 drawing
    .uniform(0.0, TWO_PI): pcg_setseq_128_srandom_r with state v0:v1 and
    sequence v2:v3, one LCG step, its XSL-RR output, next_double, then
    0.0 + TWO_PI * d."""
    inc = ((v2 << 64 | v3) << 1 | 1) & _MASK128
    state = (((v0 << 64 | v1) + inc) * _PCG_MULT + inc) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128
    x, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
    x = ((x >> rot) | (x << (-rot & 63))) & _MASK64
    return 0.0 + TWO_PI * ((x >> 11) * (1.0 / 9007199254740992.0))


def _run_stack(cfg: ExperimentConfig, schedule: SampleSchedule, grids: SearchGrids,
               points: list, idx: list, it: list) -> dict:
    """Trials that share one schedule, as one (B, N) stack: trial b runs at
    sweep point points[b] with seed (cfg.seed, idx[b], it[b]). Returns, per
    estimator, the (B, 3) signed errors (f_d in Hz, phase in radians, range
    in m), NaN where the estimator rejected the record."""
    t = schedule.times()
    f_d = np.array([clock.f_d for clock, _, _, _ in points])
    outlying = [outliers.fraction > 0.0 for _, _, _, outliers in points]
    # child 0 draws the phase, 1 the noise and 2 the outliers
    words = _child_words(cfg.seed, idx, it, (0, 1, 2) if any(outlying) else (0, 1))
    phi = np.array([_uniform_phase(*drawn) for drawn in words[0].tolist()])
    link = cfg.link
    Y = _generate_rows(t, f_d, phi, cfg.clock.T_m, link,
                       [noise for _, _, noise, _ in points],
                       [np.random.PCG64(_Drawn(drawn)) for drawn in words[1]])
    for b in itertools.compress(range(len(points)), outlying):
        rows, drawn = _outlier_draws(schedule.N, points[b][3], np.random.PCG64(_Drawn(words[2][b])))
        Y[b, rows] = drawn

    estimates = estimators._estimate_stack(cfg.estimators, t, Y, cfg.clock.T_m, link.delta0,
                                           grids, cfg.refine, cfg.preprocess)
    # a rejected record's NaN passes through each difference and the wrap
    return {name: np.stack([fit.f - f_d, wrap_to_pm_pi(phi - fit.phi), fit.rho - link.rho],
                           axis=1)
            for name, (fit, _, _) in estimates.items()}


def _quartiles(s: np.ndarray) -> np.ndarray:
    """(..., 3) 25th, 50th and 75th percentiles along the last axis of the
    sorted block s (..., n), with the bits of np.percentile's linear method:
    the virtual index v = (n-1)*q, and between the samples a and b at its
    floor and ceiling, a + (b-a)*g below g = frac(v) = 0.5 and b - (b-a)*(1-g)
    from it. Finite samples only, and only a -0.0 sample can give a zero of
    the other sign (numpy's partition may order mixed zeros otherwise than
    the sort). The f_d and range errors, estimate - truth, are -0.0 only for
    an estimate of -0.0 at a truth of +0.0, which is not checked; the phase
    error, truth - estimate wrapped as pi - mod(pi - x, 2pi), never is, as a
    difference of equal nonzero floats is +0.0."""
    n = s.shape[-1]
    v = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    lo = [math.floor(x) for x in v]
    hi = [min(i + 1, n - 1) for i in lo]
    a, b, g = s[..., lo], s[..., hi], np.array([x - i for x, i in zip(v, lo)])
    d = b - a
    return np.where(g < 0.5, a + d * g, b - d * (1.0 - g))


def _report_rows(cfg: ExperimentConfig, values: list, errors: dict) -> list:
    """Report rows, point-major then estimator, of the P sweep points
    `values` from each estimator's (P*M, 3) trial errors, NaN where it
    rejected the record: RMSE, quartiles and extremes over the trials each
    (point, estimator) kept. Rows that kept the same number n of trials are
    summarised as one contiguous (R, 3, n) block with one sort."""
    P, M, E = len(values), cfg.M, len(cfg.estimators)
    stack = np.stack([errors[name].reshape(P, M, 3) for name in cfg.estimators], axis=1)
    stack = stack.reshape(P * E, M, 3)
    stack[:, :, 1] = stack[:, :, 1] * cfg.clock.T_m / TWO_PI
    kept = ~np.isnan(stack[:, :, 0])
    n_kept = np.count_nonzero(kept, axis=1).tolist()
    stats = np.full((P * E, 3, len(_STATS)), math.nan)
    for n in set(n_kept) - {0}:
        rows = [r for r, k in enumerate(n_kept) if k == n]
        block = np.ascontiguousarray(
            stack[rows][kept[rows]].reshape(len(rows), n, 3).transpose(0, 2, 1))
        s = np.sort(block, axis=-1)
        stats[rows] = np.concatenate(
            [np.sqrt(np.mean(block**2, axis=-1, keepdims=True)), _quartiles(s), s[..., [0, -1]]],
            axis=-1)
    out = []
    for r, flat in enumerate(stats.reshape(P * E, -1).tolist()):
        row = {
            "sweep_axis": cfg.sweep_axis,
            "sweep_value": values[r // E],
            "estimator": cfg.estimators[r % E],
            "n_trials": M,
            "n_failed": M - n_kept[r],
        }
        row.update(zip(_STAT_KEYS, flat if n_kept[r] else [math.nan] * len(_STAT_KEYS)))
        out.append(row)
    return out


# Trials per stack are capped at this many samples in all, which bounds the
# (B, 4N) complex FFT input and output of a stack's frequency search at 2 MB each.
_STACK_SAMPLES = 1 << 15


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """M trials per sweep value; per-trial seeds derive from (master seed,
    sweep index, iteration index) so runs are reproducible and trials
    order-independent. Child i of SeedSequence((seed, idx, it)) draws the
    trial's phase truth, uniformly from [0, 2pi), for i = 0, its noise for
    i = 1 and its outliers for i = 2. _child_words hashes every trial of a
    stack in one vectorised pass with the bits of numpy's SeedSequence, and
    each child's PCG64 seeds itself from those words, so reports match
    numpy's own per-trial seeding byte for byte. At the criterion-3 point
    (N=100, M=1000, WLS) a trial takes about 47 us in all, against 75 us
    when each child was a numpy SeedSequence and default_rng (2-vCPU x86-64
    host, numpy 2.4).

    The trials of all sweep points that share a schedule (every point, off
    the N axis) run as (B, N) stacks: generation with each trial's own
    draws, then estimators._estimate_stack, which screens the stack once and
    runs the estimators' row kernels on it. Every row takes the same
    kernels, so the report is the same, to the bit, as running each trial
    alone through generate_series and the public one-record estimators. A
    record an estimator rejects (ValueError) counts as a failed trial of
    it; any other error propagates.

    The report of those points is one stacked summary (_report_rows): the
    (point, estimator) rows that kept the same number of trials share one
    sort, from which come the extremes and the quartiles, with the bits of
    np.percentile, and one RMSE reduction.
    """
    rows = []
    for schedule, group in itertools.groupby(enumerate(cfg.points), key=lambda p: p[1][1]):
        group = list(group)
        grids = SearchGrids(schedule.N, schedule.Ts)
        trials = [(point, idx, it) for idx, point in group for it in range(cfg.M)]
        size = max(1, _STACK_SAMPLES // schedule.N)
        stacks = []
        for i in range(0, len(trials), size):
            points, idx, it = zip(*trials[i:i + size])
            stacks.append(_run_stack(cfg, schedule, grids, points, idx, it))
        errors = {name: np.concatenate([s[name] for s in stacks]) for name in cfg.estimators}
        rows += _report_rows(cfg, [cfg.sweep_values[idx] for idx, _ in group], errors)
    return SweepReport(sweep_axis=cfg.sweep_axis, rows=rows)
