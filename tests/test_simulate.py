"""Monte Carlo harness: stream pinning, trial mechanics, averaging, steady gate."""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    ExperimentSpec,
    NotConvergedError,
    SnrConvention,
    Variant,
    default_iterations,
    estimate_steady,
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
from sparselms import simulate
from sparselms.simulate import (
    DIVERGENCE_FACTOR,
    INPUT_ROLE,
    NOISE_ROLE,
    SYSTEM_ROLE,
    Trajectory,
    _scalar_params,
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
    assert (sysm.L, sysm.Q) == (64, 7)
    assert int(np.count_nonzero(sysm.s)) == 7
    again = gen_system(64, 7, seed=3)
    assert np.array_equal(sysm.s, again.s)
    other_trial = gen_system(64, 7, seed=3, trial=1)
    assert not np.array_equal(sysm.s, other_trial.s)


def test_gen_system_tap_scale():
    sysm = gen_system(2000, 500, seed=5, sigma_s=2.0)
    nz = sysm.s[sysm.s != 0.0]
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
    assert not spec.is_scalar
    assert small_spec().is_scalar


def test_noise_power_conventions():
    out = ExperimentSpec(L=1000, Q=100, mu=8e-4, snr_db=40.0, trials=1)
    assert noise_power(out) == pytest.approx(0.01, rel=1e-12)
    inp = ExperimentSpec(L=1000, Q=100, mu=8e-4, snr_db=40.0, trials=1,
                         snr_convention=SnrConvention.INPUT_REFERRED)
    assert noise_power(inp) == pytest.approx(1e-4, rel=1e-12)
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
    dev, diverged_at, wbar = run_trials(spec, _scalar_params(spec), [sysm])
    assert dev.shape == (1, spec.iterations + 1)
    assert dev[0, 0] == pytest.approx(sysm.norm_sq, rel=1e-12)
    assert diverged_at.tolist() == [0] and wbar is None
    # learning happened: tail is well below the start
    assert float(np.mean(dev[0, -20:])) < 0.05 * dev[0, 0]
    dev, diverged_at, wbar = run_trials(spec, _scalar_params(spec), [],
                                        record_weights_from=10)
    assert (dev.shape, diverged_at.shape, wbar.shape) == (
        (0, spec.iterations + 1), (0,), (0, spec.L))          # no systems


def test_run_trial_zero_system_zero_noise_is_identically_zero():
    spec = small_spec(Q=0, Pv=None, snr_db=40.0,
                      snr_convention=SnrConvention.INPUT_REFERRED)
    object.__setattr__(spec, "Pv", 0.0)      # exact noise-free run
    sysm = gen_system(spec.L, 0, spec.seed)
    dev, _, _ = run_trials(spec, _scalar_params(spec), [sysm])
    assert np.all(dev == 0.0)


def test_run_trial_bit_repeatable():
    spec = small_spec(kappa=1e-6)
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    a, _, _ = run_trials(spec, _scalar_params(spec), [sysm], first=2)
    b, _, _ = run_trials(spec, _scalar_params(spec), [sysm], first=2)
    assert np.array_equal(a, b)
    c, _, _ = run_trials(spec, _scalar_params(spec), [sysm], first=3)
    assert not np.array_equal(a, c)


def test_run_trial_iid_regressors():
    """i.i.d. regressors: regressor n holds stream draws [n*L, (n+1)*L),
    whatever the block size; the delay-line run on the same seed differs."""
    spec = small_spec(iterations=50, input_model="iid")
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    params = _scalar_params(spec)
    (res,), _, _ = run_trials(spec, params, [sysm], first=1)

    X = stream(spec.seed, 1, INPUT_ROLE).standard_normal((50, spec.L))
    v = stream(spec.seed, 1, NOISE_ROLE).standard_normal(50) \
        * math.sqrt(spec.Pv)
    w = np.zeros(spec.L)
    dev = [sysm.norm_sq]
    for x, vn in zip(X, v):
        w = w + params.mu * (x @ sysm.s + vn - x @ w) * x
        dev.append(float((w - sysm.s) @ (w - sysm.s)))
    np.testing.assert_allclose(res, dev, rtol=1e-12)

    (line,), _, _ = run_trials(replace(spec, input_model="delay_line"),
                               params, [sysm], first=1)
    assert not np.array_equal(res, line)


def test_run_trial_divergence_truncates():
    spec = small_spec(mu=1.2 * mu_max(32, 1.0), iterations=4000, Pv=1e-2)
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    (dev,), (at,), _ = run_trials(spec, _scalar_params(spec), [sysm])
    assert 0 < at < spec.iterations
    assert dev.shape == (spec.iterations + 1,)
    assert not np.isnan(dev[:at + 1]).any()      # valid to the offending entry
    assert np.isnan(dev[at + 1:]).all()          # NaN after it
    assert dev[at] > 1e3                         # ||w||^2 blew the limit


def test_run_trial_weight_average_window():
    spec = small_spec(iterations=5000)
    sysm = gen_system(spec.L, spec.Q, spec.seed)
    _, _, wbar = run_trials(spec, _scalar_params(spec), [sysm],
                            record_weights_from=3000)
    assert wbar.shape == (1, spec.L)
    # the time average over the settled tail approximates the system
    assert float(np.linalg.norm(wbar[0] - sysm.s) ** 2) < 0.02 * sysm.norm_sq


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
    limit = DIVERGENCE_FACTOR * max(1.0, system.norm_sq)
    w = np.zeros(L)
    dev, wsum, count = [system.norm_sq], np.zeros(L), 0
    for n in range(N):
        w, _ = step(w, X[n], float(X[n] @ system.s + v[n]), params)
        diff = w - system.s
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
       rows=st.integers(1, 3))
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
        got, got_at, got_wbar = run_trials(spec, params, systems, first=2,
                                           record_weights_from=record_from)
    assert got.shape == (rows, spec.iterations + 1)
    for t, (sysm, row, at, row_wbar) in enumerate(
            zip(systems, got, got_at, got_wbar), start=2):
        dev, wbar = _reference_trial(sysm, spec, params, t, record_from)
        np.testing.assert_array_equal(row[:dev.size], dev)
        assert np.isnan(row[dev.size:]).all()
        assert dev.size == (at + 1 if at else spec.iterations + 1)
        np.testing.assert_array_equal(row_wbar, wbar)


def test_engine_rows_diverge_independently():
    """Rows that diverge leave the weight array; the others run on.  Here
    3 of 4 trials diverge, the earliest at n = 425."""
    spec = small_spec(mu=1.05 * mu_max(32, 1.0), Pv=1e-2, trials=4,
                      iterations=3000)
    params = _scalar_params(spec)
    systems = [gen_system(spec.L, spec.Q, spec.seed, trial=t)
               for t in range(spec.trials)]
    got, got_at, _ = run_trials(spec, params, systems)
    for t, (sysm, row, at) in enumerate(zip(systems, got, got_at)):
        dev, _ = _reference_trial(sysm, spec, params, t, spec.iterations + 1)
        np.testing.assert_array_equal(row[:dev.size], dev)
        assert np.isnan(row[dev.size:]).all()
        assert dev.size == (at + 1 if at else spec.iterations + 1)
    assert np.count_nonzero(got_at) == 3
    traj = monte_carlo(spec)
    assert (traj.n_diverged, traj.diverged_at) == (3, 425)
    assert traj.msd.shape == (426,)


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_single_trial_equals_run_trial():
    spec = small_spec(trials=1)
    traj = monte_carlo(spec)
    sysm = gen_system(spec.L, spec.Q, spec.seed, trial=0)
    dev, _, _ = run_trials(spec, _scalar_params(spec), [sysm])
    assert np.array_equal(traj.msd, dev[0])


@pytest.mark.parametrize("trials,workers", [(4, 2), (5, 3), (1, 2)])
@pytest.mark.parametrize("input_model", ["delay_line", "iid"])
def test_monte_carlo_worker_count_invariance(input_model, trials, workers):
    spec = small_spec(trials=trials, kappa=1e-6, input_model=input_model)
    one = monte_carlo(spec, workers=1)
    many = monte_carlo(spec, workers=workers)
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


def test_monte_carlo_fixed_vs_redrawn_systems():
    fixed = monte_carlo(small_spec(system_mode="fixed", trials=3))
    redraw = monte_carlo(small_spec(system_mode="redraw", trials=3))
    assert fixed.msd[0] == pytest.approx(gen_system(32, 4, 1, trial=0).norm_sq)
    start = np.mean([gen_system(32, 4, 1, trial=t).norm_sq for t in range(3)])
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
    assert estimate_steady(traj, 2000) == traj.steady_estimate   # settled
    # per-trial means average to the ensemble mean of the same window
    assert float(np.mean(traj.trial_steady)) == pytest.approx(
        traj.steady_estimate, rel=1e-12)


# ---------------------------------------------------------------------------
# estimate_steady
# ---------------------------------------------------------------------------


def _fake_traj(msd):
    msd = np.asarray(msd, dtype=float)
    return Trajectory(msd=msd, trials=1, n_diverged=0,
                      steady_estimate=float(msd[-1]))


def test_estimate_steady_constant_series():
    traj = _fake_traj(np.full(1000, 3.5e-4))
    assert estimate_steady(traj, window=100) == pytest.approx(3.5e-4, rel=1e-12)


def test_estimate_steady_settled_geometric_curve():
    d_inf, d0, lam = 2e-4, 10.0, 0.999
    n = np.arange(40000)
    traj = _fake_traj(d_inf + (d0 - d_inf) * lam**n)
    got = estimate_steady(traj, window=2000)
    assert got == pytest.approx(d_inf, rel=1e-3)


def test_estimate_steady_rejects_drifting_series():
    n = np.arange(5000)
    traj = _fake_traj(1e-4 * np.exp(2e-4 * n))       # still rising
    with pytest.raises(NotConvergedError) as exc:
        estimate_steady(traj, window=1000)
    assert exc.value.slope > 1e-5


def test_estimate_steady_rejects_divergence_and_bad_window():
    spec = small_spec(mu=1.2 * mu_max(32, 1.0), iterations=4000, Pv=1e-2)
    traj = monte_carlo(spec)
    with pytest.raises(NotConvergedError):
        estimate_steady(traj, window=50)
    good = _fake_traj(np.full(100, 1e-4))
    with pytest.raises(ValueError, match="window"):
        estimate_steady(good, window=0)
    with pytest.raises(ValueError, match="window"):
        estimate_steady(good, window=101)


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
