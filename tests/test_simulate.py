"""Monte Carlo harness: stream pinning, trial mechanics, averaging, steady rule."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    ExperimentSpec,
    Variant,
    closed_form,
    default_iterations,
    gen_system,
    lms_theory,
    monte_carlo,
    mu_max,
    noise_power,
    resolve_kappa,
    run_trials,
    step,
    stream,
)
import sparselms
from sparselms import simulate
from sparselms.simulate import (
    DIVERGENCE_FACTOR,
    INPUT_ROLE,
    NOISE_ROLE,
    SYSTEM_ROLE,
    Trajectory,
    _scalar_params,
    require_memory,
)


def small_spec(**kw):
    base = dict(L=32, Q=4, mu=2e-3, alpha=10.0, kappa=0.0, Pv=1e-4,
                trials=3, iterations=200, seed=1)
    base.update(kw)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# streams and system generation
# ---------------------------------------------------------------------------


def test_stream_deterministic_and_keyed():
    a = stream(1, 0, INPUT_ROLE).standard_normal(8)
    b = stream(1, 0, INPUT_ROLE).standard_normal(8)
    assert np.array_equal(a, b)
    for other in (stream(1, 1, INPUT_ROLE), stream(2, 0, INPUT_ROLE),
                  stream(1, 0, NOISE_ROLE), stream(1, 0, SYSTEM_ROLE)):
        assert not np.array_equal(a, other.standard_normal(8))


def test_stream_unit_variance():
    x = stream(7, 0, INPUT_ROLE).standard_normal(10000)
    assert 0.95 < float(np.var(x)) < 1.05
    assert abs(float(np.mean(x))) < 0.05


def test_gen_system_structure():
    sysm = gen_system(64, 7, seed=3)
    assert sysm.shape == (64,) and sysm.dtype == np.float64
    assert int(np.count_nonzero(sysm)) == 7
    again = gen_system(64, 7, seed=3)
    assert np.array_equal(sysm, again)
    other_trial = gen_system(64, 7, seed=3, trial=1)
    assert not np.array_equal(sysm, other_trial)


def test_gen_system_tap_scale():
    sysm = gen_system(2000, 500, seed=5, sigma_s=2.0)
    nz = sysm[sysm != 0.0]
    assert 1.7 < float(np.std(nz)) < 2.3


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="trials"):
        small_spec(trials=0)
    with pytest.raises(ValueError, match="Q <= L"):
        small_spec(Q=33)
    with pytest.raises(ValueError, match="snr_db or"):
        ExperimentSpec(L=8, Q=1, mu=1e-3)
    with pytest.raises(ValueError, match="seed"):
        small_spec(seed=2**64)
    with pytest.raises(ValueError, match="bad mu"):
        small_spec(mu="OPTIMAL")
    with pytest.raises(ValueError, match="system_mode"):
        small_spec(system_mode="frozen")
    with pytest.raises(ValueError, match="input_model"):
        small_spec(input_model="ar1")
    for field, bad in (("trials", 1.5), ("iterations", 10.5), ("seed", 1.5),
                       ("L", 8.5), ("Q", True), ("trials", "3")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_spec(**{field: bad})
    for kw, msg in ((dict(Pv=-1e-3), "Pv must be >= 0"),
                    (dict(Px=-1.0), "Px must be > 0"),
                    (dict(Px=0.0), "Px must be > 0"),
                    (dict(sigma_s=-1.0), "sigma_s must be > 0"),
                    (dict(L=0, Q=0), "L must be >= 1"),
                    (dict(Pv=None, snr_db=math.nan), "snr_db must be a finite"),
                    (dict(Pv=math.inf), "Pv must be a finite")):
        with pytest.raises(ValueError, match=msg):
            small_spec(**kw)
    for field in ("mu", "alpha", "kappa"):
        for bad in (True, math.nan, math.inf, -math.inf, None):
            with pytest.raises(ValueError,
                               match=f"{field} must be a finite number"):
                small_spec(**{field: bad})
        for bad in ([True, 1e-3], [1e-3, math.nan], (math.inf,), []):
            with pytest.raises(ValueError, match=f"{field} sweep must be"):
                small_spec(**{field: bad})
    whole = small_spec(iterations=1e5, trials=4.0)
    assert (whole.iterations, whole.trials) == (100000, 4)
    assert type(whole.iterations) is int and type(whole.trials) is int


def test_spec_sweep_normalization():
    spec = small_spec(mu=[1e-3, 2e-3], variants="L0LMS")
    assert spec.mu == (1e-3, 2e-3)
    assert spec.variants == (Variant.L0LMS,)
    with pytest.raises(ValueError, match="expand sweeps"):
        _scalar_params(spec)
    _scalar_params(small_spec())


def test_noise_power_conventions():
    """An SNR is taken against the ensemble output power Q*sigma_s^2;
    any other noise is an explicit Pv, which wins over an SNR."""
    out = ExperimentSpec(L=1000, Q=100, mu=8e-4, snr_db=40.0, trials=1)
    assert noise_power(out) == pytest.approx(0.01, rel=1e-12)
    explicit = small_spec(snr_db=40.0, Pv=0.5)
    assert noise_power(explicit) == 0.5
    with pytest.raises(ValueError, match="all-zero system"):
        noise_power(ExperimentSpec(L=16, Q=0, mu=1e-3, snr_db=40.0))


def test_default_iterations_time_constants():
    L, Q, mu, Px = 1000, 100, 8e-4, 1.0
    dl = 2.0 - (L + 2) * mu * Px
    assert default_iterations(L, Q, mu, Px) == math.ceil(10.0 / (mu * Px * dl))


def test_resolve_kappa_optimal_matches_theory():
    spec = ExperimentSpec(L=1000, Q=100, mu=8e-4, alpha=10.0, kappa="OPTIMAL",
                          snr_db=40.0, trials=1)
    assert resolve_kappa(spec) == pytest.approx(3.747845320580678e-7, rel=1e-10)
    za = ExperimentSpec(L=1000, Q=100, mu=8e-4, kappa="OPTIMAL", snr_db=40.0,
                        trials=1, variants=(Variant.ZALMS,))
    assert resolve_kappa(za) == pytest.approx(2.2766700834959032e-6, rel=1e-8)


def test_resolve_kappa_reads_rho_opt_without_the_za_form(monkeypatch):
    """ZA and RZA "OPTIMAL" is rho_opt, read directly: the same bits as
    za_steady_msd reports, without evaluating the ZA closed form at
    rho = 0, where no run is made.  On an all-zero system at a tiny mu,
    where that form underflows, the weight is 0."""
    za = ExperimentSpec(L=1000, Q=100, mu=8e-4, kappa="OPTIMAL",
                        snr_db=40.0, trials=1, variants=(Variant.ZALMS,))
    want = simulate.theory.za_steady_msd(1000, 100, 8e-4, 0.0, 1.0,
                                         0.01).rho_opt
    monkeypatch.setattr(simulate.theory, "za_steady_msd", None)
    assert resolve_kappa(za) == want == 2.2766700834959032e-6
    tiny = ExperimentSpec(L=15, Q=0, mu=2.3e-113, kappa="OPTIMAL", Pv=1e-4,
                          variants=(Variant.RZALMS,))
    assert resolve_kappa(tiny) == 0.0


def test_scalar_params_variant_wiring():
    """Every variant reads the spec's (kappa, alpha) as they are."""
    for variant in Variant:
        p = _scalar_params(small_spec(kappa=1e-5, alpha=7.0,
                                      variants=(variant,)))
        assert (p.variant, p.mu, p.kappa, p.alpha) == (variant, 2e-3, 1e-5,
                                                       7.0)


# ---------------------------------------------------------------------------
# run_trials
# ---------------------------------------------------------------------------


def test_run_trial_deviation_indexing():
    spec = small_spec(iterations=3000)
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    dev, diverged_at, wbar = run_trials(spec, [sysm])
    assert dev.shape == (1, spec.iterations + 1)
    assert dev[0, 0] == pytest.approx(float(sysm @ sysm), rel=1e-12)
    assert diverged_at.tolist() == [0] and wbar is None
    # learning happened: tail is well below the start
    assert float(np.mean(dev[0, -20:])) < 0.05 * dev[0, 0]
    dev, diverged_at, wbar = run_trials(spec, np.empty((0, spec.L)),
                                        record_weights_from=10)
    assert (dev.shape, diverged_at.shape, wbar.shape) == (
        (0, spec.iterations + 1), (0,), (0, spec.L))          # no systems


def test_run_trials_rejects_misshapen_systems():
    """The systems must be one (rows, L) array at the spec's L, or one
    system: a 16-tap system at L = 32, a rank-3 array or rows of several
    lengths are refused at entry, naming L."""
    spec = small_spec()
    s = gen_system(spec.L, spec.Q, spec.seed)
    for bad in (gen_system(16, 2, spec.seed), np.zeros((3, 16)), [],
                np.zeros((2, 3, spec.L)), [s, s[:16]]):
        with pytest.raises(ValueError, match=r"\(rows, L\) array"):
            run_trials(spec, bad)
    one, _, _ = run_trials(spec, s)     # one system is one row
    rows, _, _ = run_trials(spec, [s])
    assert np.array_equal(one, rows)


def test_run_trial_zero_system_zero_noise_is_identically_zero():
    spec = small_spec(Q=0, Pv=0.0)          # exact noise-free run
    sysm = gen_system(spec.L, 0, spec.seed)
    dev, _, _ = run_trials(spec, [sysm])
    assert np.all(dev == 0.0)


def test_run_trial_bit_repeatable():
    spec = small_spec(kappa=1e-6)
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    a, _, _ = run_trials(spec, [sysm], first=2)
    b, _, _ = run_trials(spec, [sysm], first=2)
    assert np.array_equal(a, b)
    c, _, _ = run_trials(spec, [sysm], first=3)
    assert not np.array_equal(a, c)


def test_run_trial_iid_regressors():
    """i.i.d. regressors: regressor n holds stream draws [n*L, (n+1)*L),
    whatever the block size; the delay-line run on the same seed differs."""
    spec = small_spec(iterations=50, input_model="iid")
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    params = _scalar_params(spec)
    (res,), _, _ = run_trials(spec, [sysm], first=1)

    X = stream(spec.seed, 1, INPUT_ROLE).standard_normal((50, spec.L))
    v = stream(spec.seed, 1, NOISE_ROLE).standard_normal(50) \
        * math.sqrt(spec.Pv)
    w = np.zeros(spec.L)
    dev = [float(sysm @ sysm)]
    for x, vn in zip(X, v):
        w = w + params.mu * (x @ sysm + vn - x @ w) * x
        dev.append(float((w - sysm) @ (w - sysm)))
    np.testing.assert_allclose(res, dev, rtol=1e-12)

    (line,), _, _ = run_trials(replace(spec, input_model="delay_line"),
                               [sysm], first=1)
    assert not np.array_equal(res, line)


def test_run_trial_divergence_truncates():
    spec = small_spec(mu=1.2 * mu_max(32, 1.0), iterations=4000, Pv=1e-2)
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    (dev,), (at,), _ = run_trials(spec, [sysm])
    assert 0 < at < spec.iterations
    assert dev.shape == (spec.iterations + 1,)
    assert not np.isnan(dev[:at + 1]).any()      # valid to the offending entry
    assert np.isnan(dev[at + 1:]).all()          # NaN after it
    assert dev[at] > 1e3                         # ||w||^2 blew the limit


def test_run_trial_weight_average_window():
    spec = small_spec(iterations=5000)
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    _, _, wbar = run_trials(spec, [sysm], record_weights_from=3000)
    assert wbar.shape == (1, spec.L)
    # the time average over the settled tail approximates the system
    assert float(np.linalg.norm(wbar[0] - sysm) ** 2) < 0.02 * (sysm @ sysm)


def _reference_trial(system, spec, params, trial_index, record_from):
    """One trial by hand: one-shot stream draws and one ``kernels.step``
    per iteration, stopping at the first divergent entry.  Returns the
    deviations up to that entry and the weight average (NaN when the
    window holds no step)."""
    L, N = spec.L, spec.iterations
    rng = stream(spec.seed, trial_index, INPUT_ROLE)
    if spec.input_model == "iid":
        X = rng.standard_normal((N, L)) * math.sqrt(spec.Px)
    else:
        seq = rng.standard_normal(L - 1 + N) * math.sqrt(spec.Px)
        X = [seq[n:n + L][::-1] for n in range(N)]
    v = stream(spec.seed, trial_index, NOISE_ROLE).standard_normal(N) \
        * math.sqrt(noise_power(spec))
    norm_sq = float(system @ system)
    limit = DIVERGENCE_FACTOR * max(1.0, norm_sq)
    w = np.zeros(L)
    dev, wsum, count = [norm_sq], np.zeros(L), 0
    for n in range(N):
        w, _ = step(w, X[n], float(X[n] @ system + v[n]), params)
        diff = w - system
        dev.append(float(diff @ diff))
        if n + 1 >= record_from:
            wsum += w
            count += 1
        if w @ w > limit or not math.isfinite(dev[-1]):
            break
    return np.array(dev), (wsum / count if count else np.full(L, np.nan))


@given(variant=st.sampled_from(list(Variant)),
       input_model=st.sampled_from(["delay_line", "iid"]),
       L=st.integers(1, 24), q_frac=st.floats(0.0, 1.0),
       mu_frac=st.floats(0.01, 0.5), kappa=st.floats(0.0, 1e-3),
       alpha=st.floats(1.0, 20.0), seed=st.integers(0, 2**32),
       block=st.integers(1, 64), record_frac=st.floats(0.0, 1.0),
       rows=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_run_trial_matches_step_loop(variant, input_model, L, q_frac,
                                     mu_frac, kappa, alpha, seed, block,
                                     record_frac, rows):
    """The engine against the single-step reference, for every variant,
    input model, stream block size (the block must not change the draws)
    and number of rows run together: the same arithmetic, so the same
    bits in every row."""
    spec = ExperimentSpec(L=L, Q=int(q_frac * L), mu=mu_frac * mu_max(L, 1.0),
                          alpha=alpha, kappa=kappa, Pv=1e-3, trials=rows,
                          iterations=150, seed=seed, variants=(variant,),
                          input_model=input_model)
    params = _scalar_params(spec)
    systems = [gen_system(spec.L, spec.Q, seed, trial=t)
               for t in range(2, 2 + rows)]
    record_from = 1 + int(record_frac * (spec.iterations - 1))
    with mock.patch.object(simulate, "_BLOCK", block):
        got, got_at, got_wbar = run_trials(spec, systems, first=2,
                                           record_weights_from=record_from)
    assert got.shape == (rows, spec.iterations + 1)
    for t, (sysm, row, at, row_wbar) in enumerate(
            zip(systems, got, got_at, got_wbar), start=2):
        dev, wbar = _reference_trial(sysm, spec, params, t, record_from)
        np.testing.assert_array_equal(row[:dev.size], dev)
        assert np.isnan(row[dev.size:]).all()
        assert dev.size == (at + 1 if at else spec.iterations + 1)
        np.testing.assert_array_equal(row_wbar, wbar)


@pytest.mark.parametrize("block", [1, 7, 64, simulate._BLOCK])
@pytest.mark.parametrize("kw, diverged", [
    (dict(), [921, 0, 497, 425]),
    (dict(input_model="iid"), [2638, 2925, 2796, 2461]),
    (dict(mu=1.02 * mu_max(32, 1.0), kappa=1e-3), [1449, 0, 0, 468]),
    (dict(sigma_s=1e3, Pv=1.0, seed=2), [2914, 0, 979, 0]),
], ids=["lms", "lms-iid", "l0", "large-s"])
def test_engine_rows_diverge_independently(kw, diverged, block):
    """A row that diverges stays in the weight array, frozen at w = 0; the
    others run on.  Small stream blocks put divergences on block edges
    and inside blocks, and the engine's cheap guard on ||w||^2 must hand
    every blow-up to the exact test at the step the reference flags, also
    with the attraction on and with ||s||^2 of order 1e6."""
    spec = small_spec(**{"mu": 1.05 * mu_max(32, 1.0), "Pv": 1e-2,
                         "trials": 4, "iterations": 3000, **kw})
    params = _scalar_params(spec)
    systems = [gen_system(spec.L, spec.Q, spec.seed, trial=t,
                          sigma_s=spec.sigma_s) for t in range(spec.trials)]
    with mock.patch.object(simulate, "_BLOCK", block):
        got, got_at, _ = run_trials(spec, systems)
        traj = monte_carlo(spec)
    for t, (sysm, row, at) in enumerate(zip(systems, got, got_at)):
        dev, _ = _reference_trial(sysm, spec, params, t, spec.iterations + 1)
        np.testing.assert_array_equal(row[:dev.size], dev)
        assert np.isnan(row[dev.size:]).all()
        assert dev.size == (at + 1 if at else spec.iterations + 1)
    assert got_at.tolist() == diverged
    first = min(filter(None, diverged))
    assert (traj.n_diverged, traj.diverged_at) == (
        np.count_nonzero(diverged), first)
    assert traj.msd.shape == (first + 1,)


def test_prepared_attractor_leaves_nothing_between_runs():
    """Each run prepares its attractor's constants and scratch afresh: in
    one process, alpha = 10, then 20, then 10 again give alpha = 10
    deviations byte-identical to each other and to a fresh process's."""
    point = dict(L=32, Q=4, mu=2e-3, alpha=10.0, kappa=1e-4, Pv=1e-4,
                 trials=3, iterations=400)
    spec = ExperimentSpec(**point)
    systems = [gen_system(spec.L, spec.Q, spec.seed, trial=t)
               for t in range(spec.trials)]
    runs = [hashlib.sha256(run_trials(replace(spec, alpha=a), systems)[0])
            .hexdigest() for a in (10.0, 20.0, 10.0)]
    fresh = subprocess.run(
        [sys.executable, "-c", f"""
import hashlib
from sparselms import ExperimentSpec, gen_system, run_trials
spec = ExperimentSpec(**{point!r})
systems = [gen_system(spec.L, spec.Q, spec.seed, trial=t)
           for t in range(spec.trials)]
print(hashlib.sha256(run_trials(spec, systems)[0]).hexdigest())
"""], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(sparselms.__file__))})
    assert runs[0] == runs[2] == fresh.stdout.strip() != runs[1]


def _divergent_rows(L=32):
    """At twice mu_max without noise, three drawn systems diverge within
    100 steps while the zero system's row never moves from w = 0."""
    spec = small_spec(mu=2 * mu_max(L, 1.0), Pv=0.0, trials=4,
                      iterations=4000)
    systems = [gen_system(L, spec.Q, spec.seed, trial=t) for t in range(3)]
    return spec, systems + [np.zeros(L)]


def test_diverged_rows_stay_quiet():
    """A diverged row keeps no growing weights: a 4000-step run whose last
    row never diverges gives no overflow or invalid-value warning (a
    diverged row left to run on would overflow here), and every row but
    the zero system's is NaN after its step."""
    spec, systems = _divergent_rows()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dev, at, wbar = run_trials(spec, systems, record_weights_from=10)
    assert at.tolist() == [66, 32, 88, 0]
    for row, n in zip(dev[:3], at):
        assert np.isfinite(row[:n + 1]).all() and np.isnan(row[n + 1:]).all()
    assert not dev[3].any() and not wbar[3].any()


def test_no_stream_block_after_every_row_diverged():
    """Once every row has diverged the engine draws nothing more: a
    4000-step run stopped at step 88 makes the draws of an 88-step run."""
    spec, systems = _divergent_rows()
    real_draw, draws, counts = simulate._draw, [], []

    def counted(*args):
        draws.append(args)
        return real_draw(*args)

    for n_iter in (spec.iterations, 88):
        draws.clear()
        with mock.patch.object(simulate, "_BLOCK", 7), \
                mock.patch.object(simulate, "_draw", counted):
            _, at, _ = run_trials(replace(spec, iterations=n_iter),
                                  systems[:3])
        assert at.tolist() == [66, 32, 88]
        counts.append(len(draws))
    assert counts[0] == counts[1] > 10


def test_iid_stream_blocks_hold_several_regressors():
    """An i.i.d. stream block holds at least eight regressors per row even
    where 2^14 samples hold fewer: at L=1000 and 10 rows, 24 steps draw
    three blocks of input and noise after the empty warm start, not one
    pair per step."""
    spec = small_spec(L=1000, Q=100, trials=10, iterations=24,
                      input_model="iid")
    systems = [gen_system(spec.L, spec.Q, spec.seed, trial=t)
               for t in range(spec.trials)]
    real_draw, sizes = simulate._draw, []

    def counted(rngs, n, scale):
        sizes.append(n)
        return real_draw(rngs, n, scale)

    with mock.patch.object(simulate, "_draw", counted):
        run_trials(spec, systems)
    assert sizes == [0] + [8 * spec.L, 8] * 3


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_single_trial_equals_run_trial():
    spec = small_spec(trials=1)
    traj = monte_carlo(spec)
    sysm = gen_system(spec.L, spec.Q, spec.seed, trial=0)
    dev, _, _ = run_trials(spec, [sysm])
    assert np.array_equal(traj.msd, dev[0])


@pytest.mark.parametrize("trials,workers", [(4, 2), (5, 3), (1, 2)])
@pytest.mark.parametrize("input_model", ["delay_line", "iid"])
def test_monte_carlo_worker_count_invariance(input_model, trials, workers):
    spec = small_spec(trials=trials, kappa=1e-6, input_model=input_model)
    one = monte_carlo(spec, workers=1)
    many = monte_carlo(spec, workers=workers)
    assert np.array_equal(one.msd, many.msd)
    assert np.array_equal(one.trial_steady, many.trial_steady)


@pytest.mark.parametrize("affinity", [True, False],
                         ids=["affinity", "cpu-count"])
def test_monte_carlo_starts_at_most_one_process_per_cpu(monkeypatch,
                                                        affinity):
    """A pool larger than the usable CPUs is never asked for: 5000 workers
    on three CPUs make three shards, run here in this process by a pool
    stand-in that records its size, with the result of one worker."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
    if affinity:
        monkeypatch.setattr(simulate.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
    else:
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    spec = small_spec(trials=8)
    one = monte_carlo(spec, workers=1)
    many = monte_carlo(spec, workers=5000)
    assert sizes == [3]
    assert np.array_equal(one.msd, many.msd)
    assert np.array_equal(one.trial_steady, many.trial_steady)


def test_monte_carlo_rejects_sweeps():
    with pytest.raises(ValueError, match="expand sweeps"):
        monte_carlo(small_spec(mu=[1e-3, 2e-3]))


def test_monte_carlo_rejects_unresolved_kappa_and_bad_workers():
    with pytest.raises(ValueError, match="resolve kappa"):
        monte_carlo(small_spec(kappa="OPTIMAL"))
    for workers in (0, -5):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            monte_carlo(small_spec(), workers=workers)


@pytest.mark.parametrize("kw", [
    dict(mu=[1e-3, 2e-3]), dict(alpha=[5.0, 10.0]), dict(kappa="OPTIMAL"),
    dict(variants=("L0LMS", "LMS")),
], ids=["swept-mu", "swept-alpha", "optimal-kappa", "two-variants"])
def test_only_a_point_runs(kw):
    """closed_form, run_trials and monte_carlo read one parameter point
    from the spec: a swept mu or alpha, an unresolved kappa or several
    variants raise the same ValueError in each."""
    spec = small_spec(**kw)
    s = gen_system(spec.L, spec.Q, spec.seed)
    for call in (closed_form, lambda sp: run_trials(sp, [s]), monte_carlo):
        with pytest.raises(ValueError, match="expand sweeps"):
            call(spec)


def test_resolve_kappa_of_several_variants_reads_the_first():
    """A spec of several variants resolves kappa="OPTIMAL" at its first
    variant's optimum, so a scalar config runs every variant at that one
    weight (the l0 kappa_opt below, not ZA's rho_opt)."""
    base = ExperimentSpec(L=1000, Q=100, mu=8e-4, alpha=10.0,
                          kappa="OPTIMAL", snr_db=40.0, trials=1)
    L0, LMS, ZA, RZA = (Variant.L0LMS, Variant.LMS, Variant.ZALMS,
                        Variant.RZALMS)
    for variants in ((L0, LMS, ZA, RZA), (ZA, L0), (RZA, LMS)):
        assert resolve_kappa(replace(base, variants=variants)) == \
            resolve_kappa(replace(base, variants=variants[:1]))
    assert resolve_kappa(replace(base, variants=(L0, ZA))) == \
        pytest.approx(3.747845320580678e-7, rel=1e-10)


def test_default_step_count_is_the_one_require_memory_sizes(monkeypatch):
    """With iterations=None, run_trials runs exactly the steps that
    require_memory counts: ten time constants at the spec's mu."""
    spec = small_spec(iterations=None, mu=2e-2, trials=1)
    dev, _, _ = run_trials(spec, gen_system(spec.L, spec.Q, spec.seed))
    steps = dev.shape[1] - 1
    assert steps == default_iterations(spec.L, spec.Q, spec.mu, spec.Px)
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1}             # one byte
    monkeypatch.setattr(simulate.os, "sysconf", pages.__getitem__)
    with pytest.raises(ValueError, match=f"^1 series of {steps} steps "):
        require_memory(spec, 1)


def test_memory_refusal_is_one_short_line():
    """The refusal of a run far past memory, or past the float range,
    gives its counts to four digits: no count prints its whole integer."""
    spec = small_spec(L=10 ** 300, Q=2, mu=1e-303, iterations=10 ** 300)
    for rows, need in ((6, "4.92e+293"), (10 ** 307, "inf")):
        with pytest.raises(ValueError) as e:
            require_memory(spec, rows)
        assert str(e.value).startswith(
            f"{rows:.4g} series of 1e+300 steps at L=1e+300 need about "
            f"{need} GiB, more than the ")
        assert len(str(e.value)) < 120


def test_monte_carlo_fixed_vs_redrawn_systems():
    fixed = monte_carlo(small_spec(system_mode="fixed", trials=3))
    redraw = monte_carlo(small_spec(system_mode="redraw", trials=3))
    s0 = gen_system(32, 4, 1, trial=0)
    assert fixed.msd[0] == pytest.approx(s0 @ s0)
    start = np.mean([s @ s for s in (gen_system(32, 4, 1, trial=t)
                                     for t in range(3))])
    assert redraw.msd[0] == pytest.approx(start, rel=1e-12)
    assert not np.array_equal(fixed.msd, redraw.msd)


def test_monte_carlo_divergence_reporting():
    spec = small_spec(mu=1.2 * mu_max(32, 1.0), iterations=4000,
                      Pv=1e-2, trials=3)
    traj = monte_carlo(spec)
    assert traj.diverged and traj.n_diverged == traj.trials == 3
    assert math.isnan(traj.steady_estimate) and traj.trial_steady is None
    assert traj.msd.shape == (traj.diverged_at + 1,)


def test_monte_carlo_steady_fields():
    # L=64 keeps the per-sample MSD fluctuation small enough that the
    # log-slope gate clears with a wide margin once settled
    spec = ExperimentSpec(L=64, Q=8, mu=0.01, alpha=10.0, kappa=0.0,
                          Pv=1e-4, trials=10, iterations=20000, seed=1)
    traj = monte_carlo(spec)
    # the final 10% by default
    assert traj.steady_estimate == float(np.mean(traj.msd[-2000:]))
    assert traj.trial_steady is not None and traj.trial_steady.shape == (10,)
    assert traj.settled
    # per-trial means average to the ensemble mean of the same window
    assert float(np.mean(traj.trial_steady)) == pytest.approx(
        traj.steady_estimate, rel=1e-12)


# ---------------------------------------------------------------------------
# the steady rule: steady_slope and settled over the final third
# ---------------------------------------------------------------------------


def _fake_traj(msd):
    msd = np.asarray(msd, dtype=float)
    return Trajectory(msd=msd, trials=1, n_diverged=0,
                      steady_estimate=float(msd[-1]))


def test_steady_slope_constant_series():
    traj = _fake_traj(np.full(1000, 3.5e-4))
    assert traj.steady_window == 333
    assert traj.steady_slope == 0.0 and traj.settled


def test_steady_slope_settled_geometric_curve():
    d_inf, d0, lam = 2e-4, 10.0, 0.999
    n = np.arange(40000)
    traj = _fake_traj(d_inf + (d0 - d_inf) * lam**n)
    assert traj.steady_window == 13333
    assert abs(traj.steady_slope) < 1e-9 and traj.settled


def test_steady_slope_flags_drifting_series():
    n = np.arange(5000)
    traj = _fake_traj(1e-4 * np.exp(2e-4 * n))       # still rising
    # log10 of the series is exactly linear: 2e-4/ln(10) per step
    assert traj.steady_slope == pytest.approx(2e-4 / math.log(10), rel=1e-9)
    assert not traj.settled


def test_steady_slope_infinite_after_divergence():
    spec = small_spec(mu=1.2 * mu_max(32, 1.0), iterations=4000, Pv=1e-2)
    traj = monte_carlo(spec)
    assert traj.diverged
    assert traj.steady_slope == math.inf and not traj.settled


# ---------------------------------------------------------------------------
# cross-validation against the plain-LMS closed form
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_lms_simulation_tracks_closed_form():
    """Plain-LMS Monte Carlo vs the analytic steady value and learning curve:
    both within 1 dB (steady; curve pointwise past 10% of the run)."""
    L, Q, mu = 256, 16, 4e-4
    spec = ExperimentSpec(L=L, Q=Q, mu=mu, snr_db=40.0, trials=20,
                          iterations=60000, seed=1, variants=(Variant.LMS,))
    traj = monte_carlo(spec)
    Pv = noise_power(spec)

    steady_theory = lms_theory(L, mu, 1.0, Pv)
    gap_db = 10 * math.log10(traj.steady_estimate / steady_theory)
    assert abs(gap_db) <= 1.0, f"steady gap {gap_db:+.3f} dB"

    s_ref = np.zeros(L)
    s_ref[:Q] = 1.0                                   # ||s||^2 = Q on average
    n = np.arange(60001)
    curve_theory = lms_theory(L, mu, 1.0, Pv, s=s_ref, n=n)
    tail = slice(6000, None)
    gaps = 10 * np.log10(traj.msd[tail] / curve_theory[tail])
    assert float(np.max(np.abs(gaps))) <= 1.0, \
        f"curve max gap {float(np.max(np.abs(gaps))):+.3f} dB"


def test_require_memory_counts_generators_and_systems(monkeypatch):
    """Each trial holds two stream generators and its system twice (the
    drawn array and a worker's copy), so 3e7 one-tap trials of one step
    need more than 8 GiB: the count alone refuses them, nothing is
    allocated."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}    # 8 GiB
    monkeypatch.setattr(simulate.os, "sysconf", pages.__getitem__)
    spec = ExperimentSpec(L=1, Q=1, mu=0.1, Pv=1e-3, trials=30_000_000,
                          iterations=1)
    with pytest.raises(ValueError, match="GiB"):
        require_memory(spec, spec.trials)
    require_memory(spec, 1_000_000)                 # about 1.7 GB fits
