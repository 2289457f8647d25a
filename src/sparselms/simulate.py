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

The engine and :func:`monte_carlo` take a group: one point, or a
sequence of points that share every draw key (L, Q, seed, trials, the
step count, input model, system mode, Px, sigma_s and the noise power)
and may differ in variant, mu, kappa and alpha only; a group that
differs in a key is refused, naming it, before anything is drawn.  The
run goes block by block, then point by point: each stream block's
regressors and noise are drawn, and its desired outputs formed, once
for the whole group, and then every point advances its own weight array
over that block (the points share the step buffers, not their state).
A group runs in one process pool, sharded by trial.  A point's bits
depend neither on its group nor on its place in it, and
:func:`require_memory` counts what the whole group holds at once.

Each engine step runs only the row-wise arithmetic that depends on the
weights, and every piece keeps the bits of the per-step form:

- The desired outputs ``d = x.s + v`` of a whole stream block come from
  one ``np.vecdot`` over the block's regressors.  Each element goes
  through the dot loop a single regressor would: numpy's sequential
  loop for the reversed, negatively strided delay-line window, BLAS for
  a contiguous i.i.d. regressor.  The error then rounds as
  ``(x.s + v) - x.w``, as in ``kernels.step``.
- The engine owns every array a step writes: the update, the deviation,
  the attraction and the attractor's scratch are four buffers, allocated
  once per run and shared by the points of a group, which step one after
  another.  The attractor comes from ``kernels.ATTRACTORS``, prepared
  once per point for its alpha on the shared attraction buffer and
  scratch (it allocates nothing) and evaluated in place; the l0
  attractor clears the taps outside its range by a bit mask, not a
  select.  The step's ufuncs and the error column are bound once per
  run, the block's regressors and desired outputs by step once per
  block, and a point's state and deviation columns once per point and
  block, all outside the step.
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
    "ExperimentSpec", "Trajectory", "Trajectories", "run_trials",
    "monte_carlo",
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
# bytes of a run's Python objects (array headers, closures, the step's
# temporaries) and of each point's more, as tracemalloc counts them: about
# 7 KiB and 0.6 KiB
_RUN_BYTES, _POINT_BYTES = 8192, 1024

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


def _draw_keys(spec: ExperimentSpec) -> dict:
    """What a run's draws depend on, which the points of a group share,
    in the order a refusal names the first that differs."""
    return {"L": spec.L, "Q": spec.Q, "seed": spec.seed,
            "trials": spec.trials, "iterations": iteration_count(spec),
            "input_model": spec.input_model,
            "system_mode": spec.system_mode, "Px": spec.Px,
            "sigma_s": spec.sigma_s, "noise power": noise_power(spec)}


def _group(specs) -> list[ExperimentSpec]:
    """The points of a group: one spec, or a non-empty sequence of points
    that may differ in variant, mu, kappa and alpha only.  A spec that is
    not a point, or a draw key on which two points differ, raises
    ValueError (naming the key) before anything is drawn."""
    group = [specs] if isinstance(specs, ExperimentSpec) else list(specs)
    if not group:
        raise ValueError("a group needs at least one point")
    for sp in group:
        _scalar_params(sp)
    first, *rest = map(_draw_keys, group)
    for keys in rest:
        for name, value in keys.items():
            if value != first[name]:
                raise ValueError(f"a group's points must share their "
                                 f"{name}: got {first[name]} and {value}")
    return group


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


def require_memory(specs, rows: int) -> None:
    """Refuse a run of ``rows`` series of each point of a group (one spec
    or a sequence, as :func:`run_trials` takes) whose arrays cannot fit.

    Per point, each row holds its ``iterations + 1`` deviations and its
    weights, one L-wide row.  Per group, each row holds its two stream
    generators, six L-wide rows (the system twice: the drawn ``(rows,
    L)`` array and a worker's copy of its shard; and the four step
    buffers: update, deviation, attraction and the attractor's scratch),
    two stream blocks, the one in use and the next, of k regressors each
    (k + L - 1 samples on the delay line, k * L when i.i.d.), and five
    arrays of k doubles: a block's noise, desired outputs, their sum, its
    copy by step and the last block's.  k is the block's regressor count
    (about 2^14 samples over all rows, at least 8, at most the step
    count).  A run's Python objects add ``_RUN_BYTES``, and each point's
    ``_POINT_BYTES``.  A run that records time-averaged weights
    (``run_trials``' ``record_weights_from``, which :func:`monte_carlo`
    never passes) holds one more L-wide row per point and row, not
    counted here.

    The estimate is a float (inf past its range); a ValueError names it,
    the group's series count and the step count to four digits, when it
    exceeds physical memory; without ``os.sysconf`` the check is
    skipped."""
    group = _group(specs)
    spec = group[0]
    n_iter = iteration_count(spec)
    iid = spec.input_model == "iid"
    k = min(_block_regressors(rows, spec.L, iid), n_iter)
    r, L = float(rows), float(spec.L)
    samples = k * L if iid else L - 1 + k     # one stream block, per row
    need = (_RUN_BYTES + len(group) * _POINT_BYTES
            + r * (_GENERATOR_BYTES
                   + 8 * (len(group) * (n_iter + 1 + L) + 6 * L
                          + 2 * samples + 5 * k)))
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ValueError(
            f"{len(group) * rows:.4g} series of {n_iter:.4g} steps at "
            f"L={spec.L:.4g} need about {need / 2**30:.3g} GiB, more than "
            f"the {have / 2**30:.3g} GiB of physical memory")


def _block_regressors(rows: int, L: int, iid: bool) -> int:
    """Regressors per row in one stream block: about ``_BLOCK`` samples
    over all rows, but at least ``_BLOCK_REGRESSORS``."""
    return max(_BLOCK_REGRESSORS, _BLOCK // max(1, rows * (L if iid else 1)))


def _draw(rngs, n: int, scale: float) -> np.ndarray:
    """The next ``n`` samples of each row's stream, times ``scale``."""
    out = np.empty((len(rngs), n))
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    out *= scale
    return out


class _PointRun:
    """One point's own state in a group's run: the point's deviations,
    divergence steps, weights, their running sum (None unless weights
    are recorded), per-row step sizes (0 once a row diverges) and its
    attraction ``g`` (None when it adds none), prepared on the group's
    shared attraction buffer ``pull`` and ``scratch``."""

    __slots__ = ("dev", "diverged_at", "W", "wsum", "mu", "g", "kappa")

    def __init__(self, spec: ExperimentSpec, dev0, n_iter: int, pull,
                 scratch, record: bool):
        params = _scalar_params(spec)
        rows, L = pull.shape
        self.dev = np.empty((rows, n_iter + 1))
        self.dev[:, 0] = dev0
        self.diverged_at = np.zeros(rows, dtype=int)    # 0: did not diverge
        self.W = np.zeros((rows, L))
        self.wsum = np.zeros((rows, L)) if record else None
        self.mu = np.full(rows, params.mu)
        prepare = ATTRACTORS.get(params.variant)
        self.g = (prepare(params.alpha, pull, scratch)
                  if prepare and params.kappa else None)
        self.kappa = np.array(params.kappa)

    def result(self, n_iter: int, record_from: int | None):
        """``(dev, diverged_at, wbar)``; NaN after each divergence."""
        dev, diverged_at = self.dev, self.diverged_at
        for i in np.flatnonzero(diverged_at):
            dev[i, diverged_at[i] + 1:] = np.nan
        if record_from is None:
            return dev, diverged_at, None
        counts = (np.where(diverged_at, diverged_at, n_iter)
                  - record_from + 1)[:, None]
        return dev, diverged_at, np.where(
            counts > 0, self.wsum / np.maximum(counts, 1), np.nan)


def run_trials(specs, systems, first: int = 0,
               record_weights_from: int | None = None):
    """The Monte Carlo engine: trials ``first, first+1, ...``, one per row
    of the ``(rows, L)`` array ``systems`` (one system is one row), each
    run for :func:`iteration_count` steps at every point of a group.  The
    group is one point ``spec`` or a sequence of points that share every
    draw key (module docstring); a spec that is not a point, a group
    whose points differ in a draw key, or misshapen systems raise
    ValueError.  Each point advances the rows of its own weight array;
    every reduction stays within a row, so a row's bits depend neither on
    the other rows nor on the other points.

    Returns ``(dev, diverged_at, wbar)`` for a spec, a list of them, one
    per point in group order, for a sequence; one row per system in
    trial order.  ``dev[i, n]`` is ||w_n - s||^2 of row i, so
    ``dev[:, 0]`` is ||s||^2 (zero-initialized weights).  Divergence —
    ||w||^2 exceeding 1e6 * max(1, ||s||^2) — stops a row at the
    offending step, which ``diverged_at`` records (0 where the row did
    not diverge); the row's later entries are NaN.  A diverged row keeps
    its place: its weights and its step size become 0, so every later
    step leaves it at w = 0 (each attractor has g(0) = 0).  A point whose
    rows have all diverged takes no more steps, and the run ends, drawing
    no further block, once every point has.  With
    ``record_weights_from``, ``wbar`` holds each row's time-averaged
    weights from that iteration on (a NaN row where the window holds no
    step); without it, ``wbar`` is None.

    The delay-line window is warm-started (fully populated at n=0);
    ``spec.input_model = "iid"`` draws every regressor afresh.
    """
    group = _group(specs)
    spec = group[0]
    S = np.atleast_2d(_as_systems(systems, spec.L))
    rows, L = S.shape
    n_iter = iteration_count(spec)
    record_from = (None if record_weights_from is None
                   else max(1, record_weights_from))
    # the step buffers every point writes: update, deviation, attraction
    # and the attractor's scratch
    upd, diff, pull, scratch = np.empty((4, rows, L))
    dev0 = np.vecdot(S, S)
    points = [_PointRun(sp, dev0, n_iter, pull, scratch,
                        record_from is not None) for sp in group]
    live = [p for p in points if not p.diverged_at.all()]   # none if no rows
    limit = DIVERGENCE_FACTOR * np.maximum(1.0, dev0)
    # while a step's deviations sum to at most `safe`, no ||w||^2 can
    # exceed its limit (module docstring: the bound and its margin)
    safe = float(np.min(limit / (2 * (1 + 1e-3)) - dev0, initial=math.inf))
    inputs, noises = ([stream(spec.seed, t, role)
                       for t in range(first, first + rows)]
                      for role in (INPUT_ROLE, NOISE_ROLE))
    sx, sv = math.sqrt(spec.Px), math.sqrt(noise_power(spec))
    iid = spec.input_model == "iid"
    # the first step whose weights are summed (none without a window)
    step_from = n_iter + 1 if record_from is None else record_from

    e = np.empty(rows)
    X = _draw(inputs, 0 if iid else L - 1, sx)  # delay line: warm start
    block = _block_regressors(rows, L, iid)
    # bound once for the step: the ufuncs (outputs go by position) and
    # the error as a column
    vecdot, subtract, multiply, add = (np.vecdot, np.subtract, np.multiply,
                                       np.add)
    e_col = e[:, None]

    n = 0
    while n < n_iter and live:
        k = min(block, n_iter - n)
        # xs: the block's (rows, k, L) regressors, newest first
        if iid:
            xs = _draw(inputs, k * L, sx).reshape(-1, k, L)
        else:                   # oldest first: the last L-1 samples, then k
            X = np.concatenate((X[:, X.shape[1] - L + 1:],
                                _draw(inputs, k, sx)), axis=1)
            # reversed windows: a view whose rows keep a negative stride
            xs = sliding_window_view(X, L, axis=1)[:, :, ::-1]
        # by step: each step's (rows, L) regressors and its desired
        # outputs as one contiguous row, shared by every point
        xs_by_step = xs.transpose(1, 0, 2)
        d_by_step = np.ascontiguousarray(
            (np.vecdot(xs, S[:, None]) + _draw(noises, k, sv)).T)
        for p in live:
            W, wsum, mu, g, kappa, diverged_at = (p.W, p.wsum, p.mu, p.g,
                                                  p.kappa, p.diverged_at)
            m = n
            # each step's column of dev, as a view
            for x, d_m, dev_m in zip(xs_by_step, d_by_step,
                                     p.dev.T[n + 1:n + k + 1]):
                m += 1
                subtract(d_m, vecdot(x, W, e), e)
                multiply(e, mu, e)
                if g:
                    multiply(g(W), kappa, pull)
                add(W, multiply(e_col, x, upd), W)
                if g:
                    add(W, pull, W)
                vecdot(subtract(W, S, diff), diff, dev_m)
                if m >= step_from:
                    add(wsum, W, wsum)
                if sum(dev_m.tolist()) <= safe:     # NaN, inf fall through
                    continue
                bad = (np.vecdot(W, W) > limit) | ~np.isfinite(dev_m)
                if bad.any():
                    diverged_at[bad] = m
                    W[bad] = mu[bad] = 0.0  # g(0) = 0: the row stays at w = 0
                    if diverged_at.all():
                        break
        live = [p for p in live if not p.diverged_at.all()]
        n += k

    results = [p.result(n_iter, record_from) for p in points]
    return results[0] if isinstance(specs, ExperimentSpec) else results


class Trajectories(tuple):
    """The Trajectories of a group's points, in the group's order."""

    @property
    def n_diverged(self) -> int:
        """Diverged trials over all the points, as one Trajectory counts
        its own."""
        return sum(t.n_diverged for t in self)


def _trajectory(devs, ats) -> Trajectory:
    """The Trajectory of one point from its shards' ``dev`` and
    ``diverged_at`` arrays, in trial order.  The deviation rows are added
    into ``msd`` one at a time in trial order, which gives the bits of
    numpy's axis-0 sum over all of them (at two entries or more, and a
    series has at least two) without joining the shards."""
    diverged_at = np.concatenate(ats)
    trials = diverged_at.size
    n_div = int(np.count_nonzero(diverged_at))
    keep = int(diverged_at[diverged_at > 0].min()) + 1 if n_div \
        else devs[0].shape[1]
    msd = np.zeros(keep)
    for dev in devs:
        for row in dev[:, :keep]:
            msd += row
    msd /= trials
    window = max(1, int(round(0.1 * msd.size)))
    return Trajectory(
        msd=msd, trials=trials, n_diverged=n_div,
        steady_estimate=math.nan if n_div else float(np.mean(msd[-window:])),
        trial_steady=None if n_div else np.concatenate(
            [dev[:, -window:].mean(axis=1) for dev in devs]))


def monte_carlo(specs, workers: int = 1):
    """Average ``trials`` independent trials at each point of a group: one
    point ``spec``, or a sequence of points that share every draw key
    (:func:`run_trials`).  Returns the point's Trajectory for a spec, a
    :class:`Trajectories` of one per point, in group order, for a
    sequence.

    Requires ``workers >= 1``; a group that is refused, or whose arrays
    cannot fit in memory (:func:`require_memory`), raises before anything
    is drawn.  The trials are split into contiguous shards, at most
    ``workers`` and at most one per CPU the process may run on, one
    process each of one pool for the whole group when there is more than
    one; every point's average runs in trial order either way, so a
    point's result is bit-identical for a given (spec, seed) whatever
    ``workers``, its group and its place in the group.
    """
    group = _group(specs)
    spec = group[0]
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    require_memory(group, spec.trials)
    draws = range(spec.trials if spec.system_mode == "redraw" else 1)
    S = np.array([gen_system(spec.L, spec.Q, spec.seed, trial=t,
                             sigma_s=spec.sigma_s) for t in draws])
    S = np.broadcast_to(S, (spec.trials, spec.L))   # "fixed": trial 0's row

    # the pool starts all its processes at once: one per usable CPU at most
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    shards = min(workers, spec.trials, cpus)
    edges = [i * spec.trials // shards for i in range(shards + 1)]
    run = partial(run_trials, group)
    if shards > 1:
        with ProcessPoolExecutor(max_workers=shards) as ex:
            parts = list(ex.map(run, [S[a:b] for a, b in
                                      zip(edges, edges[1:])], edges[:-1]))
    else:
        parts = [run(S, 0)]
    # each point's shards, in trial order
    trajs = Trajectories(_trajectory(*zip(*(r[:2] for r in point)))
                         for point in zip(*parts))
    return trajs[0] if isinstance(specs, ExperimentSpec) else trajs
