"""Seeded Monte Carlo harness for the sparse LMS family.

Reproducibility contract
------------------------
Every random draw comes from a counter-based Philox stream
(``numpy.random.Philox``, 4x64 variant) keyed by
``(seed, trial_index, role)`` where role separates the system draw,
the input process, and the observation noise.  The trials of one
parameter point advance as the rows of one weight array, and rows never
interact: each row's dot products are its own (``np.vecdot``, the same
dot ``x @ w`` computes for one trial), and a diverged row keeps its
place, frozen at w = 0.  ``workers > 1`` splits the trials into
contiguous shards, one process each and at most one per usable CPU, and
the average runs in trial order, so a ``(spec, seed)`` gives a
bit-identical Trajectory across runs and worker counts.  The
engine, :func:`run_trials`, reads the variant, mu, kappa, alpha and step
count of a parameter point (a spec with no sweep, a numeric kappa and
one variant) from that spec alone, and matches the per-trial loop over
``kernels.step`` bit for bit.

Each engine step runs only the row-wise arithmetic that depends on the
weights, and every piece keeps the bits of the per-step form:

- The desired outputs ``d = x.s + v`` of a whole stream block come from
  one ``np.vecdot`` over the block's regressors.  Each element goes
  through the dot loop a single regressor would: numpy's sequential
  loop for the reversed, negatively strided delay-line window, BLAS for
  a contiguous i.i.d. regressor.  The error then rounds as
  ``(x.s + v) - x.w``, as in ``kernels.step``.
- The update, the deviation and the attraction are written into
  preallocated buffers.  The attractor comes from
  ``kernels.ATTRACTORS``, prepared once per run for the run's alpha and
  its attraction buffer (its constants and one scratch row per row) and
  evaluated in place; the l0 attractor clears the taps outside its range
  by a bit mask, not a select.  The step's ufuncs, the error column, the
  block's regressors and desired outputs by step and the deviation
  columns are bound once, outside the step.
- ||w||^2 <= 2||w - s||^2 + 2||s||^2, so while the deviations of a step
  sum to at most limit / (2(1 + 1e-3)) - ||s||^2 (the least over the
  rows), no row can have crossed its divergence limit.  The 1e-3 margin
  exceeds the rounding of the dot products and of that sum, and a NaN
  or inf sum fails the comparison, so the exact test runs at every step
  that might diverge and flags the same step as before.

The input model fixes how the input stream becomes regressors.
``"delay_line"`` (the default) slides a window over one white sequence,
so consecutive regressors share L-1 samples.  ``"iid"`` fills each
regressor with L fresh samples: regressor n holds stream draws
[n*L, (n+1)*L).  Streams are drawn in blocks of about 2^14 samples
over all rows (at least eight regressors each), each block's noise with
its regressors; blocks bound memory and do not change the draws.  A delay-line
regressor is a reversed view of its block.  The i.i.d. model is the one
the independence assumption of the theory describes.

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
from numpy.lib.stride_tricks import sliding_window_view

from . import theory
from .kernels import ATTRACTORS, AlgoParams, Variant, _as_systems

__all__ = [
    "SYSTEM_ROLE", "INPUT_ROLE", "NOISE_ROLE", "stream", "gen_system",
    "ExperimentSpec", "Trajectory", "run_trials", "monte_carlo",
    "noise_power", "closed_form", "default_iterations", "iteration_count",
    "require_memory", "resolve_kappa", "DIVERGENCE_FACTOR",
    "SLOPE_THRESHOLD", "INPUT_MODELS",
]

SYSTEM_ROLE = 0
INPUT_ROLE = 1
NOISE_ROLE = 2

DIVERGENCE_FACTOR = 1e6
SLOPE_THRESHOLD = 1e-5      # settled: |log10 MSD slope| per step below this

INPUT_MODELS = ("delay_line", "iid")
_BLOCK = 1 << 14            # samples per stream block, all rows together
_BLOCK_REGRESSORS = 8       # but at least this many regressors per row
# bytes of one trial's two stream generators: RSS grew 1.2-1.6 kB per trial
_GENERATOR_BYTES = 1600

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
               sigma_s: float = 1.0) -> np.ndarray:
    """Draw a random sparse system, its ``(L,)`` coefficient array: Q
    support positions uniform without replacement, values i.i.d.
    N(0, sigma_s^2).  Deterministic given (seed, trial)."""
    if not 0 <= Q <= L:
        raise ValueError(f"need 0 <= Q <= L, got Q={Q}, L={L}")
    rng = stream(seed, trial, SYSTEM_ROLE)
    pos = rng.choice(L, size=Q, replace=False)
    vals = rng.standard_normal(Q) * sigma_s
    s = np.zeros(L)
    s[pos] = vals
    return s


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment description.

    ``mu`` and ``alpha`` may be scalars or sweeps (tuples); ``kappa`` may
    additionally be the string ``"OPTIMAL"`` (resolved per point by
    :func:`resolve_kappa`).  The engine and the closed forms take a
    point, a fully scalar spec; sweep expansion is the caller's job.

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


def noise_power(spec: ExperimentSpec) -> float:
    """Noise power implied by the spec: the explicit ``Pv`` when set,
    else the one :meth:`theory.SignalModel.from_snr` derives from
    ``snr_db`` against the ensemble's output power ``Px * Q * sigma_s^2``."""
    if spec.Pv is not None:
        return float(spec.Pv)
    return theory.SignalModel.from_snr(spec.Px, spec.snr_db, spec.Q,
                                       spec.sigma_s).Pv


@theory._in_float_range
def default_iterations(L: int, Q: int, mu: float, Px: float) -> int:
    """Ten convergence time constants, 1/(mu*Px*delta_L) each.

    That is 43.4 dB of decay of the LMS mode, which can stop short of the
    floor of a point that starts farther above it (a high SNR, or the l0
    variant's slower mode); ``Trajectory.settled`` reports it, and the
    CLI prints a note for each such steady point.
    """
    theory._require_stable(L, mu, Px)
    rate = mu * Px * theory.deltas(L, Q, mu, Px).delta_L
    return int(math.ceil(10.0 / rate))


def iteration_count(spec: ExperimentSpec) -> int:
    """``spec.iterations``, or when None ten time constants at its mu."""
    return spec.iterations or default_iterations(spec.L, spec.Q, spec.mu,
                                                 spec.Px)


def _scalar_params(spec: ExperimentSpec) -> AlgoParams:
    """AlgoParams of a point: its variant at (mu, kappa, alpha).  A spec
    with a sweep, an unresolved kappa or several variants raises."""
    if not (isinstance(spec.mu, float) and isinstance(spec.alpha, float)
            and isinstance(spec.kappa, float) and len(spec.variants) == 1):
        raise ValueError("a spec here is one parameter point; expand "
                         "sweeps and resolve kappa first")
    return AlgoParams(variant=spec.variants[0], mu=spec.mu, kappa=spec.kappa,
                      alpha=spec.alpha)


def closed_form(spec: ExperimentSpec):
    """Arguments ``((L, Q, strengths), params, signal)`` of the theory
    entry points for a point, or None for ZA/RZA, which have no l0
    closed form.  The strengths and energy describe the systems the run
    averages over: the ensemble in ``"redraw"`` mode, trial 0's system in
    ``"fixed"`` mode.  The noise power is the one the simulation uses."""
    params = _scalar_params(spec)
    if params.variant in (Variant.ZALMS, Variant.RZALMS):
        return None
    if spec.system_mode == "fixed":
        st = theory.strengths(spec.alpha, s=gen_system(
            spec.L, spec.Q, spec.seed, sigma_s=spec.sigma_s))
    else:
        st = theory.strengths(spec.alpha, Q=spec.Q, sigma_s=spec.sigma_s)
    return ((spec.L, spec.Q, st), params,
            theory.SignalModel(Px=spec.Px, Pv=noise_power(spec)))


@theory._in_float_range
def resolve_kappa(spec: ExperimentSpec) -> float:
    """Resolve kappa="OPTIMAL" for the spec's first variant: the optimum
    ``kappa_opt`` of its closed form (l0 variant and plain LMS), or its
    small-alpha sign-attractor limit ``rho_opt`` (ZA/RZA variants)."""
    if not isinstance(spec.kappa, str):
        return float(spec.kappa)
    args = closed_form(replace(spec, kappa=0.0, variants=spec.variants[:1]))
    if args is None:
        return theory._rho_opt(spec.L, spec.Q, spec.mu, spec.Px,
                               noise_power(spec))
    return theory.l0_steady_msd(*args).kappa_opt


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Trial-averaged MSD series plus the run's summary statistics.

    If any trial diverged, ``msd`` is truncated at the earliest divergence
    point, ``n_diverged`` counts the diverged trials, and the steady
    values are NaN and None.  Otherwise ``steady_estimate`` is the plain
    mean of the final tenth of ``msd`` and ``trial_steady`` holds each
    trial's mean over the same window.  Whether that value has settled
    is read from the final third: ``steady_slope`` is the least-squares
    slope of log10 ``msd`` per step over its last ``steady_window``
    entries (inf after a divergence), and ``settled`` holds when its
    magnitude is below ``SLOPE_THRESHOLD``.
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

    @property
    def steady_window(self) -> int:
        return max(1, round(self.msd.size / 3))

    @property
    def steady_slope(self) -> float:
        if self.diverged:
            return math.inf
        win = self.msd[-self.steady_window:]
        if np.ptp(win) == 0.0:
            return 0.0
        y = np.log10(np.maximum(win, 1e-300))
        return float(np.polyfit(np.arange(win.size, dtype=float), y, 1)[0])

    @property
    def settled(self) -> bool:
        return abs(self.steady_slope) < SLOPE_THRESHOLD


def require_memory(spec: ExperimentSpec, rows: int) -> None:
    """Refuse a run of ``rows`` series whose arrays cannot fit.  Each row
    holds its two stream generators, ``iterations + 1`` deviations, eight
    L-wide rows (the system twice: the drawn ``(rows, L)`` array and a
    worker's copy of its shard; the weights, their running sum, the
    update, deviation and attraction buffers and the attractor's scratch
    row) and two stream blocks, the one in use and the next: an L-wide
    row each on the delay line, eight regressors each when i.i.d.  The
    per-block noise, desired outputs (and their copy by step), new
    samples and their temporaries add six arrays of at most
    ``8 * rows + 2^14`` doubles.  The estimate is a float (inf past its
    range); a ValueError names it, and the counts to four digits, when it
    exceeds physical memory; without ``os.sysconf`` the check is skipped."""
    n_iter = iteration_count(spec)
    block = _BLOCK_REGRESSORS if spec.input_model == "iid" else 1
    r, L = float(rows), float(spec.L)
    need = (r * _GENERATOR_BYTES
            + 8 * (r * (n_iter + 1 + (8 + 2 * block) * L)
                   + 6 * (_BLOCK_REGRESSORS * r + _BLOCK)))
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ValueError(
            f"{rows:.4g} series of {n_iter:.4g} steps at L={spec.L:.4g} need "
            f"about {need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of physical memory")


def _draw(rngs, n: int, scale: float) -> np.ndarray:
    """The next ``n`` samples of each row's stream, times ``scale``."""
    out = np.empty((len(rngs), n))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= scale
    return out


def run_trials(spec: ExperimentSpec, systems, first: int = 0,
               record_weights_from: int | None = None):
    """The Monte Carlo engine: trials ``first, first+1, ...`` of the
    point ``spec``, one per row of the ``(rows, spec.L)`` array
    ``systems`` (one system is one row), advance as the rows of one
    weight array for :func:`iteration_count` steps.  Every reduction
    stays within a row, so a row's bits do not depend on the other rows.
    A spec that is not a point, or misshapen systems, raise ValueError.

    Returns ``(dev, diverged_at, wbar)``, one row per system in trial
    order.  ``dev[i, n]`` is ||w_n - s||^2 of row i, so ``dev[:, 0]`` is
    ||s||^2 (zero-initialized weights).  Divergence — ||w||^2 exceeding
    1e6 * max(1, ||s||^2) — stops a row at the offending step, which
    ``diverged_at`` records (0 where the row did not diverge); the row's
    later entries are NaN.  A diverged row keeps its place: its weights
    and its step size become 0, so every later step leaves it at w = 0
    (each attractor has g(0) = 0), and the run ends once every row has
    diverged.  With ``record_weights_from``, ``wbar`` holds each row's
    time-averaged weights from that iteration on (a NaN row where the
    window holds no step); without it, ``wbar`` is None.

    The delay-line window is warm-started (fully populated at n=0);
    ``spec.input_model = "iid"`` draws every regressor afresh.
    """
    params = _scalar_params(spec)
    S = np.atleast_2d(_as_systems(systems, spec.L))
    rows, L = S.shape
    n_iter = iteration_count(spec)
    dev = np.empty((rows, n_iter + 1))
    diverged_at = np.zeros(rows, dtype=int)     # 0: did not diverge
    record_from = (n_iter + 1 if record_weights_from is None
                   else max(1, record_weights_from))
    W, wsum = np.zeros((rows, L)), np.zeros((rows, L))
    if not rows:
        return dev, diverged_at, None if record_weights_from is None else W
    dev[:, 0] = np.vecdot(S, S)
    limit = DIVERGENCE_FACTOR * np.maximum(1.0, dev[:, 0])
    # while a step's deviations sum to at most `safe`, no ||w||^2 can
    # exceed its limit (module docstring: the bound and its margin)
    safe = float(np.min(limit / (2 * (1 + 1e-3)) - dev[:, 0]))
    inputs, noises = ([stream(spec.seed, t, role)
                       for t in range(first, first + rows)]
                      for role in (INPUT_ROLE, NOISE_ROLE))
    sx, sv = math.sqrt(spec.Px), math.sqrt(noise_power(spec))
    iid = spec.input_model == "iid"
    prepare = ATTRACTORS.get(params.variant)
    weight = params.kappa if prepare else 0.0
    mu = np.full(rows, params.mu)               # 0 once a row diverges

    upd, diff, pull = np.empty((3, rows, L))
    if weight:
        g, kappa = prepare(params.alpha, pull), np.array(weight)
    e = np.empty(rows)
    X = _draw(inputs, 0 if iid else L - 1, sx)  # delay line: warm start
    block = max(_BLOCK_REGRESSORS, _BLOCK // (rows * (L if iid else 1)))
    # bound once for the step: the ufuncs (outputs go by position), the
    # error as a column and dev by step, devs[n] being the view dev[:, n]
    vecdot, subtract, multiply, add = (np.vecdot, np.subtract, np.multiply,
                                       np.add)
    e_col, devs = e[:, None], dev.T

    n = 0
    while n < n_iter and not diverged_at.all():
        k = min(block, n_iter - n)
        # xs: the block's (rows, k, L) regressors, newest first
        if iid:
            xs = _draw(inputs, k * L, sx).reshape(-1, k, L)
        else:                   # oldest first: the last L-1 samples, then k
            X = np.concatenate((X[:, X.shape[1] - L + 1:],
                                _draw(inputs, k, sx)), axis=1)
            # reversed windows: a view whose rows keep a negative stride
            xs = sliding_window_view(X, L, axis=1)[:, :, ::-1]
        d = np.vecdot(xs, S[:, None]) + _draw(noises, k, sv)
        # by step: each step's (rows, L) regressors, its desired outputs
        # as one contiguous row and its column of dev
        for x, d_n, dev_n in zip(xs.transpose(1, 0, 2),
                                 np.ascontiguousarray(d.T),
                                 devs[n + 1:n + k + 1]):
            n += 1
            subtract(d_n, vecdot(x, W, e), e)
            multiply(e, mu, e)
            if weight:
                multiply(g(W), kappa, pull)
            add(W, multiply(e_col, x, upd), W)
            if weight:
                add(W, pull, W)
            vecdot(subtract(W, S, diff), diff, dev_n)
            if n >= record_from:
                add(wsum, W, wsum)
            if sum(dev_n.tolist()) <= safe:         # NaN, inf fall through
                continue
            bad = (np.vecdot(W, W) > limit) | ~np.isfinite(dev_n)
            if bad.any():
                diverged_at[bad] = n
                W[bad] = mu[bad] = 0.0  # g(0) = 0: the row stays at w = 0
                if diverged_at.all():
                    break

    for i in np.flatnonzero(diverged_at):
        dev[i, diverged_at[i] + 1:] = np.nan
    if record_weights_from is None:
        return dev, diverged_at, None
    counts = (np.where(diverged_at, diverged_at, n_iter)
              - record_from + 1)[:, None]
    return dev, diverged_at, np.where(
        counts > 0, wsum / np.maximum(counts, 1), np.nan)


def monte_carlo(spec: ExperimentSpec, workers: int = 1) -> Trajectory:
    """Average ``spec.trials`` independent trials at one parameter point.

    Requires a point and ``workers >= 1``; a run whose arrays cannot fit
    in memory is refused before anything is drawn (:func:`require_memory`).
    The trials are split into contiguous shards, at most ``workers`` and
    at most one per CPU the process may run on, one process each when
    there is more than one; the average runs in trial order either way,
    so the result is bit-identical for a given (spec, seed) whatever
    ``workers`` is.
    """
    _scalar_params(spec)                        # refuses all but a point
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    require_memory(spec, spec.trials)
    draws = range(spec.trials if spec.system_mode == "redraw" else 1)
    S = np.array([gen_system(spec.L, spec.Q, spec.seed, trial=t,
                             sigma_s=spec.sigma_s) for t in draws])
    S = np.broadcast_to(S, (spec.trials, spec.L))   # "fixed": trial 0's row

    # the pool starts all its processes at once: one per usable CPU at most
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    shards = min(workers, spec.trials, cpus)
    edges = [i * spec.trials // shards for i in range(shards + 1)]
    run = partial(run_trials, spec)
    if shards > 1:
        with ProcessPoolExecutor(max_workers=shards) as ex:
            parts = list(ex.map(run, [S[a:b] for a, b in
                                      zip(edges, edges[1:])], edges[:-1]))
        dev, diverged_at = (np.concatenate([p[i] for p in parts])
                            for i in (0, 1))
    else:
        dev, diverged_at, _ = run(S, 0)

    n_div = int(np.count_nonzero(diverged_at))
    keep = int(diverged_at[diverged_at > 0].min()) + 1 if n_div \
        else dev.shape[1]
    msd = dev[:, :keep].sum(axis=0) / spec.trials   # rows in trial order
    window = max(1, int(round(0.1 * msd.size)))
    return Trajectory(
        msd=msd, trials=spec.trials, n_diverged=n_div,
        steady_estimate=math.nan if n_div else float(np.mean(msd[-window:])),
        trial_steady=None if n_div else dev[:, -window:].mean(axis=1))
