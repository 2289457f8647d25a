"""Seeded Monte Carlo harness for the sparse LMS family.

Reproducibility contract
------------------------
Every random draw comes from a counter-based Philox stream
(``numpy.random.Philox``, 4x64 variant) keyed by
``(seed, trial_index, role)`` where role separates the system draw,
the input process, and the observation noise.  The trials of one
parameter point advance as the rows of one weight array, and rows never
interact: each row's dot products are its own (``np.vecdot``, the same
dot ``x @ w`` computes for one trial), and a diverged row leaves the
array.  ``workers > 1`` splits the trials into contiguous shards, one
process each, and the average runs in trial order, so a ``(spec, seed)``
gives a bit-identical Trajectory across runs and worker counts.  The
engine, :func:`run_trials`, reproduces the per-trial loop over
``kernels.step`` it replaced bit for bit.

The input model fixes how the input stream becomes regressors.
``"delay_line"`` (the default) slides a window over one white sequence,
so consecutive regressors share L-1 samples.  ``"iid"`` fills each
regressor with L fresh samples: regressor n holds stream draws
[n*L, (n+1)*L).  Streams are drawn in blocks of about 2^14 samples,
which bound memory and do not change the draws; a delay-line regressor
is a reversed view of the block.  The i.i.d. model is the one the
independence assumption of the theory describes.

Indexing convention: a trajectory entry ``msd[n]`` is the squared
deviation of ``w_n``, with ``w_0 = 0``; an experiment with
``iterations = N`` performs N adaptation steps and yields N+1 entries.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import theory
from .kernels import ATTRACTORS, AlgoParams, SparseSystem, Variant

__all__ = [
    "SYSTEM_ROLE", "INPUT_ROLE", "NOISE_ROLE", "stream", "gen_system",
    "ExperimentSpec", "Trajectory", "NotConvergedError", "run_trials",
    "monte_carlo", "estimate_steady", "noise_power", "closed_form",
    "default_iterations", "require_memory", "resolve_kappa",
    "DIVERGENCE_FACTOR", "INPUT_MODELS",
]

SYSTEM_ROLE = 0
INPUT_ROLE = 1
NOISE_ROLE = 2

DIVERGENCE_FACTOR = 1e6

INPUT_MODELS = ("delay_line", "iid")
_BLOCK = 1 << 14            # samples per stream block, all rows together

_MASK64 = (1 << 64) - 1
_MASK48 = (1 << 48) - 1


def _finite_number(v) -> bool:
    """A finite real number (an integer too large for a float is not);
    booleans do not count as numbers."""
    try:
        return (not isinstance(v, bool) and isinstance(v, numbers.Real)
                and math.isfinite(v))
    except OverflowError:
        return False


class NotConvergedError(RuntimeError):
    """Steady-state estimate requested on a series that is still moving.

    Carries the measured decimal-log slope per iteration in ``slope``.
    """

    def __init__(self, slope: float, threshold: float):
        super().__init__(
            f"log-MSD slope {slope:.3e}/iter exceeds the convergence "
            f"threshold {threshold:.1e}/iter")
        self.slope = slope
        self.threshold = threshold


def stream(seed: int, trial: int, role: int) -> np.random.Generator:
    """Independent Generator for one (seed, trial, role) triple.

    The two Philox key words are the user seed and a (role, trial)
    packing — role in the top 16 bits, trial in the low 48 — so distinct
    triples can never collide.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if trial < 0 or trial > _MASK48:
        raise ValueError("trial index out of range")
    if role < 0 or role > 0xFFFF:
        raise ValueError("role out of range")
    key = np.array([seed & _MASK64, ((role & 0xFFFF) << 48) | (trial & _MASK48)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gen_system(L: int, Q: int, seed: int, trial: int = 0,
               sigma_s: float = 1.0) -> SparseSystem:
    """Draw a random sparse system: Q support positions uniform without
    replacement, values i.i.d. N(0, sigma_s^2).  Deterministic given
    (seed, trial)."""
    if not 0 <= Q <= L:
        raise ValueError(f"need 0 <= Q <= L, got Q={Q}, L={L}")
    rng = stream(seed, trial, SYSTEM_ROLE)
    pos = rng.choice(L, size=Q, replace=False)
    vals = rng.standard_normal(Q) * sigma_s
    s = np.zeros(L)
    s[pos] = vals
    return SparseSystem(s=s, L=L, Q=Q)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment description.

    ``mu`` and ``alpha`` may be scalars or sweeps (tuples); ``kappa`` may
    additionally be the string ``"OPTIMAL"`` (resolved per point by
    :func:`resolve_kappa`).  ``monte_carlo``
    consumes fully scalar specs; sweep expansion is the caller's job.

    ``kappa`` and ``alpha`` are the attraction weight and attractor shape
    of whichever variant runs (see :class:`~sparselms.kernels.AlgoParams`).

    ``Pv`` overrides the SNR-derived noise power when set (e.g. for
    exact noise-free runs).  ``iterations=None`` resolves to ten
    convergence time constants.  ``system_mode`` is ``"redraw"`` (fresh
    system per trial — the ensemble the expected-strengths theory
    describes) or ``"fixed"`` (trial-0 system shared by all trials).
    ``input_model`` is ``"delay_line"`` (a tapped delay line over one
    white sequence) or ``"iid"`` (independent regressors); see the module
    docstring.
    """

    L: int
    Q: int
    mu: float | tuple
    alpha: float | tuple = 1.0
    kappa: float | tuple | str = 0.0
    snr_db: float | None = None
    trials: int = 100
    iterations: int | None = None
    seed: int = 1
    variants: tuple = (Variant.L0LMS,)
    snr_convention: theory.SnrConvention = theory.SnrConvention.OUTPUT_REFERRED
    Px: float = 1.0
    sigma_s: float = 1.0
    Pv: float | None = None
    system_mode: str = "redraw"
    input_model: str = "delay_line"

    def __post_init__(self):
        def as_sweep(v, name, allow_optimal=False):
            if isinstance(v, str):
                if allow_optimal and v == "OPTIMAL":
                    return v
                raise ValueError(f"bad {name}: {v!r}")
            if isinstance(v, (list, tuple, np.ndarray)):
                if len(v) == 0 or not all(map(_finite_number, v)):
                    raise ValueError(f"{name} sweep must be non-empty and "
                                     f"hold finite numbers, got {v!r}")
                return tuple(float(x) for x in v)
            if not _finite_number(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            return float(v)

        object.__setattr__(self, "mu", as_sweep(self.mu, "mu"))
        object.__setattr__(self, "alpha", as_sweep(self.alpha, "alpha"))
        object.__setattr__(self, "kappa",
                           as_sweep(self.kappa, "kappa", allow_optimal=True))
        v = self.variants
        if isinstance(v, (str, Variant)):
            v = (v,)
        object.__setattr__(self, "variants", tuple(Variant(x) for x in v))
        if not self.variants:
            raise ValueError("variants must name at least one variant")
        object.__setattr__(self, "snr_convention",
                           theory.SnrConvention(self.snr_convention))
        if self.system_mode not in ("redraw", "fixed"):
            raise ValueError(f"bad system_mode: {self.system_mode!r}")
        if self.input_model not in INPUT_MODELS:
            raise ValueError(f"bad input_model: {self.input_model!r} "
                             f"(expected one of {', '.join(INPUT_MODELS)})")
        ints = ("L", "Q", "trials", "iterations", "seed")
        for name in ints + ("Px", "sigma_s", "snr_db", "Pv"):
            v = getattr(self, name)
            if v is None:
                continue
            if not _finite_number(v) or (name in ints and v % 1):
                kind = "an integer" if name in ints else "a finite number"
                raise ValueError(f"{name} must be {kind}, got {v!r}")
            if name in ints:
                object.__setattr__(self, name, int(v))   # 1e5 is accepted
        for name, low in (("L", 1), ("trials", 1), ("iterations", 1),
                          ("Pv", 0)):
            if (v := getattr(self, name)) is not None and v < low:
                raise ValueError(f"{name} must be >= {low}, got {v}")
        for name in ("Px", "sigma_s"):
            if not (v := getattr(self, name)) > 0:
                raise ValueError(f"{name} must be > 0, got {v}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= self.Q <= self.L:
            raise ValueError(f"need 0 <= Q <= L, got Q={self.Q}, L={self.L}")
        if self.snr_db is None and self.Pv is None:
            raise ValueError("give snr_db or an explicit Pv")

    @property
    def is_scalar(self) -> bool:
        return (isinstance(self.mu, float) and isinstance(self.alpha, float)
                and isinstance(self.kappa, float)
                and len(self.variants) == 1)


def noise_power(spec: ExperimentSpec) -> float:
    """Noise power implied by the spec: the explicit ``Pv`` when set,
    else the one :meth:`theory.SignalModel.from_snr` derives from
    ``snr_db`` for the ensemble (output power ``Px * Q * sigma_s^2``
    when output-referred, ``Px`` when input-referred)."""
    if spec.Pv is not None:
        return float(spec.Pv)
    return theory.SignalModel.from_snr(
        spec.Px, spec.snr_db, spec.snr_convention, Q=spec.Q,
        sigma_s=spec.sigma_s).Pv


def default_iterations(L: int, Q: int, mu: float, Px: float) -> int:
    """Ten convergence time constants, 1/(mu*Px*delta_L) each."""
    d = theory.deltas(L, Q, mu, Px)
    if d.delta_L <= 0:
        raise theory.StabilityError(f"mu={mu} is unstable for L={L}")
    return int(math.ceil(10.0 / (mu * Px * d.delta_L)))


def _scalar_params(spec: ExperimentSpec) -> AlgoParams:
    """AlgoParams of a scalar spec: its variant at (mu, kappa, alpha)."""
    return AlgoParams(variant=spec.variants[0], mu=spec.mu, kappa=spec.kappa,
                      alpha=spec.alpha)


def closed_form(spec: ExperimentSpec):
    """Arguments ``((L, Q, strengths), params, signal)`` of the theory
    entry points for a scalar spec, or None for ZA/RZA, which have no l0
    closed form.  The strengths and energy describe the systems the run
    averages over: the ensemble in ``"redraw"`` mode, trial 0's system in
    ``"fixed"`` mode.  The noise power is the one the simulation uses."""
    if spec.variants[0] in (Variant.ZALMS, Variant.RZALMS):
        return None
    if spec.system_mode == "fixed":
        st = theory.strengths(spec.alpha, s=gen_system(
            spec.L, spec.Q, spec.seed, sigma_s=spec.sigma_s).s)
    else:
        st = theory.strengths(spec.alpha, Q=spec.Q, sigma_s=spec.sigma_s)
    return ((spec.L, spec.Q, st), _scalar_params(spec),
            theory.SignalModel(Px=spec.Px, Pv=noise_power(spec)))


def resolve_kappa(spec: ExperimentSpec) -> float:
    """Resolve kappa="OPTIMAL": the optimum ``kappa_opt`` of the spec's
    closed form (l0 variant and plain LMS), or its small-alpha
    sign-attractor limit ``rho_opt`` (ZA/RZA variants)."""
    if not isinstance(spec.kappa, str):
        return float(spec.kappa)
    if not (isinstance(spec.mu, float) and isinstance(spec.alpha, float)):
        raise ValueError("resolve sweeps before resolving OPTIMAL kappa")
    args = closed_form(replace(spec, kappa=0.0))
    if args is None:
        return theory.za_steady_msd(spec.L, spec.Q, spec.mu, 0.0, spec.Px,
                                    noise_power(spec)).rho_opt
    return theory.l0_steady_msd(*args).kappa_opt


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Trial-averaged MSD series plus the run's summary statistics.

    If any trial diverged, ``msd`` is truncated at the earliest divergence
    point, ``n_diverged`` counts the diverged trials, and the steady
    values are NaN and None.  Otherwise ``steady_estimate`` is the plain
    mean of the final tenth of ``msd`` and ``trial_steady`` holds each
    trial's mean over the same window.
    """

    msd: np.ndarray
    trials: int
    n_diverged: int
    steady_estimate: float
    trial_steady: np.ndarray | None = None

    @property
    def diverged(self) -> bool:
        return self.n_diverged > 0

    @property
    def diverged_at(self) -> int | None:
        """The earliest divergence point, the last entry of ``msd``."""
        return self.msd.size - 1 if self.n_diverged else None


def require_memory(spec: ExperimentSpec, rows: int) -> None:
    """Refuse a run of ``rows`` series whose arrays cannot fit: each row
    holds ``iterations + 1`` deviations and a few L-wide weight rows.
    Raises ValueError naming the estimate when it exceeds physical
    memory; without ``os.sysconf`` the check is skipped."""
    n_iter = spec.iterations or default_iterations(spec.L, spec.Q, spec.mu,
                                                   spec.Px)
    need = 8 * rows * (n_iter + 1 + 6 * spec.L)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ValueError(
            f"{rows} series of {n_iter} steps at L={spec.L} need about "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB "
            "of physical memory")


def _draw(rngs, n: int, scale: float) -> np.ndarray:
    """The next ``n`` samples of each row's stream, times ``scale``."""
    out = np.empty((len(rngs), n))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= scale
    return out


def run_trials(spec: ExperimentSpec, params: AlgoParams, systems: list,
               first: int = 0, record_weights_from: int | None = None):
    """The Monte Carlo engine: trials ``first, first+1, ...``, one per
    system, advance as the rows of one weight array for
    ``spec.iterations`` steps.  Every reduction stays within a row, so a
    row's bits do not depend on the other rows.

    Returns ``(dev, diverged_at, wbar)``, one row per system in trial
    order.  ``dev[i, n]`` is ||w_n - s||^2 of row i, so ``dev[:, 0]`` is
    ||s||^2 (zero-initialized weights).  Divergence — ||w||^2 exceeding
    1e6 * max(1, ||s||^2) — stops a row at the offending step, which
    ``diverged_at`` records (0 where the row did not diverge); the row's
    later entries are NaN.  With ``record_weights_from``, ``wbar`` holds
    each row's time-averaged weights from that iteration on (a NaN row
    where the window holds no step); without it, ``wbar`` is None.

    The delay-line window is warm-started (fully populated at n=0);
    ``spec.input_model = "iid"`` draws every regressor afresh.
    """
    rows, L = len(systems), spec.L
    n_iter = spec.iterations or default_iterations(L, spec.Q, params.mu,
                                                   spec.Px)
    dev = np.empty((rows, n_iter + 1))
    diverged_at = np.zeros(rows, dtype=int)     # 0: did not diverge
    record_from = (n_iter + 1 if record_weights_from is None
                   else max(1, record_weights_from))
    W, wsum = np.zeros((rows, L)), np.zeros((rows, L))
    if not rows:
        return dev, diverged_at, None if record_weights_from is None else W
    S = np.array([system.s for system in systems])
    dev[:, 0] = [system.norm_sq for system in systems]
    limit = DIVERGENCE_FACTOR * np.maximum(1.0, dev[:, 0])
    inputs, noises = (np.array([stream(spec.seed, t, role)
                                for t in range(first, first + rows)])
                      for role in (INPUT_ROLE, NOISE_ROLE))
    sx, sv = math.sqrt(spec.Px), math.sqrt(noise_power(spec))
    iid = spec.input_model == "iid"
    g = ATTRACTORS.get(params.variant)
    weight = params.kappa if g else 0.0

    live = np.arange(rows)                      # rows still advancing
    X = _draw(inputs, 0 if iid else L - 1, sx)  # delay line: warm start
    block = max(1, _BLOCK // (rows * (L if iid else 1)))

    for n in range(1, n_iter + 1):
        j = (n - 1) % block                 # step n's place in its block
        if j == 0:
            k = min(block, n_iter - n + 1)
            v = _draw(noises, k, sv)
            if iid:
                X = _draw(inputs, k * L, sx).reshape(-1, k, L)
            else:               # oldest first: the last L-1 samples, then k
                X = np.concatenate((X[:, X.shape[1] - L + 1:],
                                    _draw(inputs, k, sx)), axis=1)
        x = X[:, j] if iid else X[:, j:j + L][:, ::-1]
        e = np.vecdot(x, S) + v[:, j] - np.vecdot(x, W)
        pull = weight * g(W, params.alpha) if weight else None
        W += (params.mu * e)[:, None] * x
        if weight:
            W += pull
        diff = W - S
        d2 = np.vecdot(diff, diff)
        dev[live, n] = d2
        if n >= record_from:
            wsum[live] += W
        bad = (np.vecdot(W, W) > limit) | ~np.isfinite(d2)
        if bad.any():
            diverged_at[live[bad]] = n
            dev[live[bad], n + 1:] = np.nan
            keep = np.flatnonzero(~bad)
            live, W, S, limit, v, X, inputs, noises = (
                a[keep] for a in (live, W, S, limit, v, X, inputs, noises))
            if not live.size:
                break

    if record_weights_from is None:
        return dev, diverged_at, None
    counts = (np.where(diverged_at, diverged_at, n_iter)
              - record_from + 1)[:, None]
    return dev, diverged_at, np.where(
        counts > 0, wsum / np.maximum(counts, 1), np.nan)


def monte_carlo(spec: ExperimentSpec, workers: int = 1) -> Trajectory:
    """Average ``spec.trials`` independent trials at one parameter point.

    Requires a scalar spec (no sweeps, a numeric kappa, exactly one
    variant) and ``workers >= 1``; a run whose arrays cannot fit in
    memory is refused before anything is drawn (:func:`require_memory`).
    The trials are split into at most ``workers`` contiguous shards, one
    process each when there is more than one; the average runs in trial
    order either way, so the result is bit-identical for a given
    (spec, seed) whatever ``workers`` is.
    """
    if not spec.is_scalar:
        raise ValueError(
            "monte_carlo runs one parameter point; expand sweeps and "
            "resolve kappa first")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    require_memory(spec, spec.trials)
    params = _scalar_params(spec)
    draws = range(spec.trials) if spec.system_mode == "redraw" else [0]
    systems = [gen_system(spec.L, spec.Q, spec.seed, trial=t,
                          sigma_s=spec.sigma_s) for t in draws]
    systems *= spec.trials // len(systems)      # "fixed": trial 0's system

    shards = min(workers, spec.trials)
    edges = [i * spec.trials // shards for i in range(shards + 1)]
    run = partial(run_trials, spec, params)
    if shards > 1:
        with ProcessPoolExecutor(max_workers=shards) as ex:
            parts = list(ex.map(run, [systems[a:b] for a, b in
                                      zip(edges, edges[1:])], edges[:-1]))
        dev, diverged_at = (np.concatenate([p[i] for p in parts])
                            for i in (0, 1))
    else:
        dev, diverged_at, _ = run(systems, 0)

    n_div = int(np.count_nonzero(diverged_at))
    keep = int(diverged_at[diverged_at > 0].min()) + 1 if n_div \
        else dev.shape[1]
    msd = dev[:, :keep].sum(axis=0) / spec.trials   # rows in trial order
    window = max(1, int(round(0.1 * msd.size)))
    return Trajectory(
        msd=msd, trials=spec.trials, n_diverged=n_div,
        steady_estimate=math.nan if n_div else float(np.mean(msd[-window:])),
        trial_steady=None if n_div else dev[:, -window:].mean(axis=1))


SLOPE_THRESHOLD = 1e-5      # decimal-log MSD slope per iteration


def _log_slope(win: np.ndarray) -> float:
    if np.ptp(win) == 0.0:
        return 0.0
    y = np.log10(np.maximum(win, 1e-300))
    x = np.arange(win.size, dtype=float)
    return float(np.polyfit(x, y, 1)[0])


def estimate_steady(traj: Trajectory, window: int) -> float:
    """Mean of the final ``window`` MSD entries, gated on convergence.

    The least-squares slope of the decimal-log MSD over that window must
    stay below 1e-5 per iteration in magnitude; otherwise
    :class:`NotConvergedError` reports the measured slope.
    """
    msd = np.asarray(traj.msd, dtype=float)
    if not 1 <= window <= msd.size:
        raise ValueError(f"window must be in [1, {msd.size}], got {window}")
    if traj.diverged:
        raise NotConvergedError(math.inf, SLOPE_THRESHOLD)
    win = msd[-window:]
    slope = _log_slope(win)
    if abs(slope) >= SLOPE_THRESHOLD:
        raise NotConvergedError(slope, SLOPE_THRESHOLD)
    return float(np.mean(win))
