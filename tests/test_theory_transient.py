"""Transient layer: closed-form learning curve vs the exact two-state recursion."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    AlgoParams,
    AttractionStrengths,
    DegenerateSpectrumError,
    ExperimentSpec,
    SignalModel,
    Variant,
    acceleration_check,
    classify,
    convergence_model,
    deltas,
    exact_recursion,
    gen_system,
    l0_steady_msd,
    lms_theory,
    monte_carlo,
    mu_max,
    noise_power,
    resolve_kappa,
    run_trials,
    steady_bias,
    strengths,
    tapwise_recursion,
)
from numpy.polynomial.legendre import leggauss

from sparselms.kernels import attract
from sparselms.theory import _l0_g_moments, betas, optimal_kappa

FLAGSHIP = dict(L=1000, Q=100, mu=8e-4, alpha=10.0, Px=1.0, Pv=0.01)
KAPPA_OPT = 3.747845320580678e-7


def flagship_model(kappa=KAPPA_OPT):
    f = FLAGSHIP
    stg = strengths(f["alpha"], Q=f["Q"])
    p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=kappa, alpha=f["alpha"])
    sig = SignalModel(Px=f["Px"], Pv=f["Pv"])
    return convergence_model((f["L"], f["Q"], stg), p, sig), p, sig, stg


def test_flagship_spectrum_oracles():
    m, *_ = flagship_model()
    assert m.lambda1 == pytest.approx(0.998468841001349, rel=1e-12)
    assert m.lambda2 == pytest.approx(0.9881131356486573, rel=1e-12)
    assert m.lambda3 == pytest.approx(0.9992, rel=1e-14)          # 1 - mu*Px
    assert m.c3 == pytest.approx(2.3241521296359542e-3, rel=1e-12)
    assert m.d_inf == pytest.approx(9.440626387863076e-4, rel=1e-10)


def test_curve_matches_recursion_flagship():
    m, p, sig, stg = flagship_model()
    f = FLAGSHIP
    n = np.arange(5001)
    curve = m.msd(n)
    rec = exact_recursion((f["L"], f["Q"], stg), p, sig, n_max=5000)[:, 0]
    rel = np.max(np.abs(curve - rec) / np.maximum(rec, 1e-300))
    assert rel < 1e-8


# at the flagship point: sha256 of exact_recursion's (2001, 2) float64
# bytes, and the model's fields, recorded while each transient entry point
# read the point for itself (same platform as TAPWISE_GOLDEN)
TRANSIENT_GOLDEN = {
    0.0: ("165452593ce7b82e5a7cd5606eab09ddf3322ca22e4ad6399e06e63d9e31adf9",
          dict(a00=0.99904128, a11=0.99840128, lambda1=0.9990412800000001,
               lambda2=0.99840128, lambda3=0.9992, c1=99.99332443256041,
               c2=1.6362426158977293e-11, c3=0.0,
               d_inf=0.006675567423231194, L=1000, Px=1.0,
               s_norm_sq=100.0)),
    KAPPA_OPT: (
        "9dd39c9fd83ee6777225611d57436d44779a6de53b95190f821b7de7e27ab920",
        dict(a00=0.99904128, a11=0.9875406966500062,
             lambda1=0.998468841001349, lambda2=0.9881131356486573,
             lambda3=0.9992, c1=105.52472176022478, c2=-5.527989974993192,
             c3=0.002324152129635915, d_inf=0.0009440626387863324, L=1000,
             Px=1.0, s_norm_sq=100.0)),
}


@pytest.mark.parametrize("kappa", list(TRANSIENT_GOLDEN))
def test_transient_model_matches_golden(kappa):
    m, p, sig, stg = flagship_model(kappa)
    f = FLAGSHIP
    rec = exact_recursion((f["L"], f["Q"], stg), p, sig, n_max=2000)
    digest, want = TRANSIENT_GOLDEN[kappa]
    assert hashlib.sha256(rec.tobytes()).hexdigest() == digest
    assert {k: getattr(m, k) for k in want} == want


def test_curve_starts_at_initial_deviation_and_settles():
    m, *_ = flagship_model()
    assert m.msd(0) == pytest.approx(m.s_norm_sq, rel=1e-10)
    assert m.msd(4_000_000) == pytest.approx(m.d_inf, rel=1e-9)


def test_curve_monotone_envelope():
    # deviation decays from ||s||^2 down to the floor without overshoot
    m, *_ = flagship_model()
    curve = m.msd(np.arange(30000))
    assert np.all(np.diff(curve) < 0)
    assert curve[-1] > m.d_inf


def test_no_attraction_collapses_to_single_mode():
    m, p, sig, stg = flagship_model(kappa=0.0)
    scale = abs(m.c1)
    assert abs(m.c2) <= 1e-12 * scale
    assert abs(m.c3) <= 1e-12 * scale
    f = FLAGSHIP
    s_ref = np.zeros(f["L"])
    s_ref[: f["Q"]] = 1.0                 # ||s_ref||^2 = Q, the ensemble start
    n = np.arange(10001)
    lms = lms_theory(f["L"], f["mu"], f["Px"], f["Pv"], s=s_ref, n=n)
    rel = np.max(np.abs(m.msd(n) - lms) / np.maximum(lms, 1e-300))
    assert rel < 1e-10


def test_exact_system_start_uses_its_norm():
    rng = np.random.default_rng(11)
    s = np.zeros(500)
    s[:40] = rng.standard_normal(40)
    p = AlgoParams(variant=Variant.L0LMS, mu=4e-4, kappa=1e-7, alpha=10.0)
    sig = SignalModel(Px=1.0, Pv=1e-4)
    # a drawn system starts at ||s||^2; the ensemble at Q * sigma_s^2
    for system, energy in ((s, float(s @ s)),
                           ((32, 4, strengths(10.0, Q=4, sigma_s=2.0)), 16.0)):
        m = convergence_model(system, p, sig)
        assert m.s_norm_sq == pytest.approx(energy, rel=1e-12)
        assert m.msd(0) == pytest.approx(energy, rel=1e-9)
        assert exact_recursion(system, p, sig, n_max=1)[0, 0] == energy


def test_recursion_shape_and_start():
    f = FLAGSHIP
    stg = strengths(f["alpha"], Q=f["Q"])
    p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=KAPPA_OPT, alpha=f["alpha"])
    sig = SignalModel(Px=f["Px"], Pv=f["Pv"])
    out = exact_recursion((f["L"], f["Q"], stg), p, sig, n_max=10)
    assert out.shape == (11, 2)
    assert out[0, 0] == float(f["Q"])     # expectation start: Q taps of unit variance
    assert out[0, 1] == 0.0               # zero-tap deviation starts at zero
    with pytest.raises(ValueError, match="n_max"):
        exact_recursion((f["L"], f["Q"], stg), p, sig, n_max=-1)


def test_spectrum_ordering_and_bounds():
    """lambda1 dominates; both 2x2 eigenvalues sit inside the unit disc and
    within the analytic bracket [a11, a00] when the coupling is active."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        L = int(rng.integers(16, 1500))
        Q = int(rng.integers(0, L))        # Q < L keeps the coupling a10 > 0
        mu = float(rng.uniform(0.1, 0.9)) * mu_max(L, 1.0)
        alpha = 10.0 ** float(rng.uniform(-1, 1.5))
        Pv = 10.0 ** float(rng.uniform(-6, -2))
        stg = strengths(alpha, Q=Q)
        d = deltas(L, Q, mu, 1.0)
        b = betas(d, stg, L, Q, mu, alpha, 1.0, Pv)
        ko, _, _ = optimal_kappa(b, d, L, mu, Pv)
        kappa = float(rng.uniform(0.1, 2.0)) * ko if ko > 0 else 1e-8
        p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=kappa, alpha=alpha)
        try:
            m = convergence_model((L, Q, stg), p, SignalModel(Px=1.0, Pv=Pv))
        except DegenerateSpectrumError:
            continue
        assert m.lambda1 >= m.lambda2
        assert abs(m.lambda1) < 1.0 and abs(m.lambda2) < 1.0 and abs(m.lambda3) < 1.0
        lo, hi = sorted((m.lambda1, m.lambda2))
        mid = 0.5 * (m.a00 + m.a11)
        assert m.a11 <= lo + 1e-12
        assert lo <= mid + 1e-12
        assert mid <= hi + 1e-12
        assert hi <= m.a00 + 1e-12


def test_degenerate_spectrum_raises():
    # L=1 at mu=0.5: the 2x2 block's second eigenvalue collides with the
    # geometric forcing mode (both 0.5) while still inside the stable range
    stg = AttractionStrengths(G=0.0, G_prime=0.0, norm_sq=0.0)
    p = AlgoParams(variant=Variant.L0LMS, mu=0.5, kappa=0.0, alpha=10.0)
    with pytest.raises(DegenerateSpectrumError, match="recursion"):
        convergence_model((1, 0, stg), p, SignalModel(Px=1.0, Pv=1e-4))
    # the recursion itself stays usable there
    out = exact_recursion((1, 0, stg), p, SignalModel(Px=1.0, Pv=1e-4), n_max=50)
    assert np.all(np.isfinite(out))


def test_model_steady_state_matches_recursion_tail():
    m, p, sig, stg = flagship_model()
    f = FLAGSHIP
    rec = exact_recursion((f["L"], f["Q"], stg), p, sig, n_max=60000)[:, 0]
    assert rec[-1] == pytest.approx(m.d_inf, rel=1e-6)


@given(
    L=st.integers(32, 1200),
    q_frac=st.floats(0.01, 0.6),
    mu_frac=st.floats(0.1, 0.85),
    log_alpha=st.floats(-0.5, 1.5),
    log_pv=st.floats(-6.0, -2.0),
    n_probe=st.integers(1, 2000),
)
@settings(max_examples=40, deadline=None)
def test_curve_equals_recursion_random(L, q_frac, mu_frac, log_alpha, log_pv, n_probe):
    Q = max(1, int(round(q_frac * L)))
    mu = mu_frac * mu_max(L, 1.0)
    alpha, Pv = 10.0**log_alpha, 10.0**log_pv
    stg = strengths(alpha, Q=Q)
    d = deltas(L, Q, mu, 1.0)
    b = betas(d, stg, L, Q, mu, alpha, 1.0, Pv)
    ko, _, _ = optimal_kappa(b, d, L, mu, Pv)
    p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=ko, alpha=alpha)
    sig = SignalModel(Px=1.0, Pv=Pv)
    try:
        m = convergence_model((L, Q, stg), p, sig)
    except DegenerateSpectrumError:
        return
    rec = exact_recursion((L, Q, stg), p, sig, n_max=n_probe)[:, 0]
    got = m.msd(np.arange(n_probe + 1))
    assert np.max(np.abs(got - rec) / np.maximum(np.abs(rec), 1e-300)) < 1e-8


# ---------------------------------------------------------------------------
# per-tap mean trajectory
# ---------------------------------------------------------------------------


def small_tap_mean(s_k, n, mu, kappa, Px, alpha):
    """steady_bias(..., n) of the one small coefficient s_k."""
    p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=kappa, alpha=alpha)
    return steady_bias(np.array([s_k]), p, Px, n=n)[..., 0]


def test_small_tap_mean_curve_endpoints():
    s_k, mu, kappa, alpha, Px = 0.05, 1e-3, 1e-7, 10.0, 1.0
    assert small_tap_mean(s_k, 0, mu, kappa, Px, alpha) == pytest.approx(-s_k, rel=1e-12)
    bias_inf = kappa * float(attract(Variant.L0LMS, s_k, alpha)) / (mu * Px)
    assert small_tap_mean(s_k, 10_000_000, mu, kappa, Px, alpha) == pytest.approx(
        bias_inf, rel=1e-9)


def test_small_tap_mean_curve_closed_form_values():
    s_k, mu, kappa, alpha, Px = 0.05, 1e-3, 1e-7, 10.0, 1.0
    g = float(attract(Variant.L0LMS, s_k, alpha))
    lam = 1.0 - mu * Px
    for n in (1, 7, 500):
        want = kappa * g / (mu * Px) - (mu * Px * s_k + kappa * g) / (mu * Px) * lam**n
        assert small_tap_mean(s_k, n, mu, kappa, Px, alpha) == pytest.approx(want, rel=1e-12)


def test_small_tap_mean_curve_no_attraction_decays_to_zero():
    vals = small_tap_mean(0.05, np.array([0, 10, 1000, 100000]), 1e-3, 0.0, 1.0, 10.0)
    assert vals[0] == pytest.approx(-0.05)
    assert abs(vals[-1]) < 1e-40


# criterion 10's designed system: 10 small, 4 large and 114 zero taps
DESIGNED = np.zeros(128)
DESIGNED[10:20] = [0.03, -0.04, 0.05, -0.06, 0.07,
                   0.035, -0.045, 0.055, -0.065, 0.075]
DESIGNED[40:44] = [0.9, -1.2, 1.1, -0.95]


def test_mean_weight_error_shapes_and_tap_classes():
    """steady_bias(..., n) is the steady bias b without n and b - (s +
    b)*lam^n with it: -s*lam^n on large taps, 0 on zero taps, and the
    plain-LMS mean for LMS; a scalar n gives (L,), an array n
    n.shape + (L,)."""
    s = DESIGNED
    p = AlgoParams(variant=Variant.L0LMS, mu=1e-3, kappa=2e-7, alpha=10.0)
    lam = 1.0 - p.mu
    b = steady_bias(s, p, 1.0)
    assert steady_bias(s, p, 1.0, n=3).shape == s.shape
    n = np.array([[0, 1], [300, 3000]])
    m = steady_bias(s, p, 1.0, n=n)
    assert m.shape == (2, 2, 128)
    np.testing.assert_array_equal(m[1, 0], steady_bias(s, p, 1.0, n=300))
    np.testing.assert_allclose(m[1, 1], b - (s + b) * lam ** 3000, rtol=1e-15)
    large, zero = np.abs(s) >= 0.1, s == 0
    np.testing.assert_allclose(m[..., large], -s[large] * lam ** n[..., None],
                               rtol=1e-15)
    assert not m[..., zero].any()
    lms = replace(p, variant=Variant.LMS)
    np.testing.assert_allclose(steady_bias(s, lms, 1.0, n=n),
                               -s * lam ** n[..., None], rtol=1e-15)


def test_mean_weight_error_matches_simulation():
    """The per-tap mean model against simulation on criterion 10's
    designed system, on the i.i.d. regressors it assumes: at n = 300,
    1000 and 3000 every tap's mean error over 200 trials lies within 5
    standard errors of steady_bias(..., n).  The bound is fixed by the
    comparison count, 384 (tap, n) pairs: under the model the chance of
    any false alarm is about 2*Phi(-5)*384 = 2e-4."""
    s = DESIGNED
    p = AlgoParams(variant=Variant.L0LMS, mu=1e-3, kappa=2e-7, alpha=10.0)
    spec = ExperimentSpec(L=128, Q=14, mu=p.mu, alpha=p.alpha, kappa=p.kappa,
                          Pv=float(s @ s) * 1e-4, trials=200, seed=1,
                          input_model="iid")
    z = []
    for n in (300, 1000, 3000):
        _, diverged_at, W = run_trials(replace(spec, iterations=n),
                                       [s] * spec.trials,
                                       record_weights_from=n)
        assert not diverged_at.any()
        err = W - s                         # W is w_n: a one-step window
        se = err.std(axis=0, ddof=1) / np.sqrt(spec.trials)
        z.append((err.mean(axis=0) - steady_bias(s, p, 1.0, n=n)) / se)
    assert np.max(np.abs(z)) <= 5.0, np.max(np.abs(z), axis=1)


# ---------------------------------------------------------------------------
# acceleration vs plain LMS
# ---------------------------------------------------------------------------


def test_acceleration_sufficient_step_size_flag():
    f = FLAGSHIP
    stg = strengths(f["alpha"], Q=f["Q"])
    sig = SignalModel(Px=f["Px"], Pv=f["Pv"])
    lim = mu_max(f["L"], f["Px"])
    cls = classify(np.zeros(4), f["alpha"])           # empty small set irrelevant here
    for mu, want in ((0.75 * lim, True), (0.25 * lim, False)):
        p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=1e-8, alpha=f["alpha"])
        m = convergence_model((f["L"], f["Q"], stg), p, sig)
        rep = acceleration_check(m, p, cls)
        assert rep.sufficient_mu is want


def test_acceleration_accounting_below_half_step():
    """Below mu_max/2 with small taps active, the slow attraction tail mode
    (rate 1 - mu*Px) outlives the plain-LMS mode, so the strict rate
    comparison reports no acceleration -- even though the bulk mode is
    faster.  This is exactly the regime the sufficient conditions exclude."""
    m, p, sig, stg = flagship_model()
    s = np.zeros(FLAGSHIP["L"])
    s[: FLAGSHIP["Q"]] = 0.05                # small for alpha = 10
    cls = classify(s, FLAGSHIP["alpha"])
    rep = acceleration_check(m, p, cls)
    assert rep.lms_rate == pytest.approx(m.a00, rel=1e-14)
    assert rep.l0_rate == pytest.approx(m.lambda3, rel=1e-14)
    assert not rep.actual_faster
    assert not rep.sufficient_mu             # mu = 8e-4 < mu_max/2 here
    assert not rep.sufficient_cs_empty
    assert m.lambda1 < m.a00                 # the bulk mode still beats LMS


def test_acceleration_faster_in_sufficient_step_range():
    f = FLAGSHIP
    stg = strengths(f["alpha"], Q=f["Q"])
    sig = SignalModel(Px=f["Px"], Pv=f["Pv"])
    mu = 1.5e-3                              # mu_max/2 < mu < mu_max for L=1000
    p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=1e-7, alpha=f["alpha"])
    m = convergence_model((f["L"], f["Q"], stg), p, sig)
    s = np.zeros(f["L"])
    s[: f["Q"]] = 0.05
    rep = acceleration_check(m, p, classify(s, f["alpha"]))
    assert rep.sufficient_mu
    assert rep.actual_faster
    assert rep.l0_rate < rep.lms_rate


def test_acceleration_all_large_system_drops_forcing_mode():
    # no small coefficients: G = G' = 0 so the geometric forcing mode carries
    # no weight and the realized rate comes from the 2x2 block alone
    L, Q, alpha = 400, 8, 10.0
    s = np.zeros(L)
    s[:Q] = 1.0
    mu = 0.75 * mu_max(L, 1.0)
    p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=1e-6, alpha=alpha)
    sig = SignalModel(Px=1.0, Pv=1e-4)
    m = convergence_model(s, p, sig)
    rep = acceleration_check(m, p, classify(s, alpha))
    assert rep.sufficient_mu and rep.sufficient_cs_empty
    assert rep.actual_faster
    assert rep.l0_rate <= max(abs(m.lambda1), abs(m.lambda2)) + 1e-15


# ---------------------------------------------------------------------------
# tap-wise learning curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("L, Q", [(1000, 100), (250, 25)])
def test_tapwise_recursion_kappa_zero_is_lms(L, Q):
    """Without attraction every tap follows plain LMS, so the tap-wise
    curve of a drawn system is the LMS closed form started at ||s||^2."""
    system = gen_system(L, Q, seed=1)
    mu, Pv = 8e-4, Q * 1e-4
    p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=0.0, alpha=10.0)
    curve, = tapwise_recursion(system, p, SignalModel(Px=1.0, Pv=Pv), 30000)
    ref = lms_theory(L, mu, 1.0, Pv, s=system, n=np.arange(30001))
    assert curve.shape == (30001,)
    assert curve[0] == pytest.approx(system @ system, rel=1e-12)
    assert np.max(np.abs(10 * np.log10(curve / ref))) <= 0.1


_TAPWISE_SYSTEMS = np.array([gen_system(64, 6, seed=2, trial=t)
                             for t in range(3)])
_TAPWISE_SIG = SignalModel(Px=1.0, Pv=6e-4)
_TAPWISE_PARAMS = [AlgoParams(variant=Variant.L0LMS, mu=2e-3, kappa=k,
                              alpha=10.0) for k in (0.0, 2e-6, 8e-6)]


def test_tapwise_recursion_batches_are_independent():
    """Rows in, rows out: a batch that mixes plain LMS, kappa = 0 and two
    kappa > 0 weights over three systems equals its one-row calls bit for
    bit."""
    sig, n_max = _TAPWISE_SIG, 2000
    lms = AlgoParams(variant=Variant.LMS, mu=2e-3, kappa=5e-6, alpha=10.0)
    ps = [lms, *_TAPWISE_PARAMS]
    rows = [(s, p) for p in ps for s in _TAPWISE_SYSTEMS]
    both = tapwise_recursion([s for s, _ in rows], [p for _, p in rows], sig,
                             n_max)
    assert both.shape == (len(rows), n_max + 1)
    one = np.concatenate([tapwise_recursion(s, p, sig, n_max)
                          for s, p in rows])
    np.testing.assert_array_equal(both, one)
    # one AlgoParams serves every row; a 1-D system is one row
    np.testing.assert_array_equal(
        tapwise_recursion(_TAPWISE_SYSTEMS, ps[2], sig, n_max),
        both[6:9])
    assert tapwise_recursion(_TAPWISE_SYSTEMS[0], ps[2], sig,
                             n_max).shape == (1, n_max + 1)
    # params must be one AlgoParams or exactly one per row
    for wrong in (ps[:2], ps[:1], [*ps, ps[0]]):
        with pytest.raises(TypeError, match="per row"):
            tapwise_recursion(_TAPWISE_SYSTEMS, wrong, sig, 10)
    # attraction lowers the floor of this sparse system below plain LMS
    assert both[6, -1] < both[0, -1]


# sha256 of the (9, 2001) float64 bytes below, recorded before the
# recursion took rows in and rows out
TAPWISE_GOLDEN = \
    "360f81a29b96cd989f37f375f4b4675dd0071f9b89cf2a7e1e6f5bfa4374e6ac"


def test_tapwise_recursion_matches_golden():
    """Three systems at kappa in {0, 2e-6, 8e-6}, 2000 steps, give the
    recorded bits (Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on
    x86_64).  Another libm, numpy or scipy may move a last bit; then
    re-record only after checking that criterion 8's gaps stay put."""
    out = np.concatenate([tapwise_recursion(_TAPWISE_SYSTEMS, p,
                                            _TAPWISE_SIG, 2000)
                          for p in _TAPWISE_PARAMS])
    assert out.shape == (9, 2001)
    assert hashlib.sha256(out.tobytes()).hexdigest() == TAPWISE_GOLDEN


def test_tapwise_recursion_attraction_settles_near_closed_form_steady():
    """At the benchmark's desk scale the tap-wise floor agrees with the
    closed-form steady MSD of the same system, which rests on the same
    independence premise."""
    system = gen_system(250, 25, seed=1)
    sig = SignalModel(Px=1.0, Pv=25e-4)
    stg = strengths(10.0, Q=25)
    d = deltas(250, 25, 8e-4, 1.0)
    ko, _, _ = optimal_kappa(betas(d, stg, 250, 25, 8e-4, 10.0, 1.0, 25e-4),
                             d, 250, 8e-4, 25e-4)
    p = AlgoParams(variant=Variant.L0LMS, mu=8e-4, kappa=ko, alpha=10.0)
    curve = tapwise_recursion(system, p, sig, 30000)
    steady = float(np.mean(curve[0, -3000:]))
    rep = l0_steady_msd((250, 25, strengths(10.0, s=system)), p, sig)
    assert abs(10 * np.log10(steady / rep.d_inf)) <= 1.0
    assert steady < rep.d_lms


def _gauss_moments(mean, sd, alpha):
    """E[g], E[w*g] and E[g^2] for w ~ N(mean, sd^2) by composite
    Gauss-Legendre quadrature of ``attract`` over [-1/alpha, 0] and
    [0, 1/alpha]: 400 panels of 16 nodes each, g's jumps on the panel
    edges."""
    x, wt = leggauss(16)
    edge = 1.0 / alpha
    panels = np.concatenate([np.linspace(-edge, 0.0, 401)[:-1],
                             np.linspace(0.0, edge, 401)])
    a, b = panels[:-1, None], panels[1:, None]
    w = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
    h = (0.5 * (b - a) * wt).ravel()
    g = attract(Variant.L0LMS, w, alpha)
    pdf = np.exp(-0.5 * ((w - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
    return tuple(float(np.sum(h * f * pdf)) for f in (g, w * g, g * g))


@pytest.mark.parametrize("alpha", [10.0, 1e3])
def test_l0_g_moments_match_quadrature(alpha):
    """The truncated-Gaussian closed form of the attractor's moments,
    which ``tapwise_recursion`` reads for every non-zero tap, equals a
    direct quadrature of g: means at 0, inside the range and just inside
    or outside either edge 1/alpha, spreads far below, near and far
    above 1/alpha.  Tolerance: relative 1e-8, absolute 1e-12 of each
    integrand's bound (2*alpha, 2, 4*alpha^2)."""
    edge = 1.0 / alpha
    means = edge * np.array([-1.001, -0.999, 0.0, 0.3, 0.999, 1.001])
    sds = edge * np.array([1e-3, 0.3, 1e2])
    mean, sd = (a.ravel() for a in np.meshgrid(means, sds))
    closed = _l0_g_moments(mean, sd, alpha)
    quad = np.array([_gauss_moments(m, s, alpha) for m, s in zip(mean, sd)])
    for got, want, bound in zip(closed, quad.T, (2 * alpha, 2.0,
                                                 4 * alpha ** 2)):
        np.testing.assert_allclose(got, want, rtol=1e-8,
                                   atol=1e-12 * bound)


def test_tapwise_recursion_tracks_iid_monte_carlo_in_its_regime():
    """Inside the regime the docstring states, the sign term's move
    2*alpha*kappa at most 0.3 of a zero tap's per-step noise
    mu*sqrt(Px*(Px*D + Pv)) (D the least MSD of the curve), the tap-wise
    curve of 50 drawn systems stays within 1 dB of an i.i.d. Monte Carlo
    run over the same systems past the first tenth of the run.  Both
    curves are compared as 100-step block means, which average out the
    step-to-step noise of 50 trials.  L=32, Q=4, mu=0.1/L, alpha=10,
    the optimal weight, 40 dB, 4000 steps, seed 5."""
    spec = ExperimentSpec(L=32, Q=4, mu=0.1 / 32, alpha=10.0,
                          kappa="OPTIMAL", snr_db=40.0, trials=50,
                          iterations=4000, seed=5, input_model="iid")
    spec = replace(spec, kappa=resolve_kappa(spec))
    Pv = noise_power(spec)
    systems = [gen_system(spec.L, spec.Q, spec.seed, trial=t)
               for t in range(spec.trials)]
    p = AlgoParams(variant=Variant.L0LMS, mu=spec.mu, kappa=spec.kappa,
                   alpha=spec.alpha)
    tw = tapwise_recursion(systems, p, SignalModel(Px=1.0, Pv=Pv),
                           spec.iterations).mean(axis=0)
    ratio = 2 * spec.alpha * spec.kappa / (spec.mu * np.sqrt(tw.min() + Pv))
    assert ratio <= 0.3
    mc = monte_carlo(spec).msd
    blocks = [slice(n, n + 100) for n in range(400, 4000, 100)]
    gaps = [10 * np.log10(mc[b].mean() / tw[b].mean()) for b in blocks]
    assert np.max(np.abs(gaps)) <= 1.0


def test_tapwise_recursion_validation():
    system = gen_system(32, 4, seed=1)
    sig = SignalModel(Px=1.0, Pv=1e-4)
    p = AlgoParams(variant=Variant.L0LMS, mu=2e-3, kappa=1e-6, alpha=10.0)
    with pytest.raises(ValueError, match="n_max"):
        tapwise_recursion(system, p, sig, -1)
    with pytest.raises(ValueError, match="l0 variant"):
        tapwise_recursion(system, AlgoParams(variant=Variant.ZALMS, mu=2e-3,
                                             kappa=1e-6), sig, 10)
    with pytest.raises(ValueError, match="kappa only"):
        tapwise_recursion(system, [p, AlgoParams(variant=Variant.L0LMS,
                                                 mu=1e-3, alpha=10.0)],
                          sig, 10)
    # one system of L taps or a (rows, L) array of them, L >= 1
    for bad in ([], np.zeros((2, 0)), np.zeros((2, 3, 32)),
                [system, np.zeros(16)]):
        with pytest.raises(ValueError, match="L"):
            tapwise_recursion(bad, p, sig, 10)
    with pytest.raises(TypeError):
        tapwise_recursion(system, [], sig, 10)


_SIG = SignalModel(Px=1.0, Pv=1e-4)
ENTRY_POINTS = {
    "l0_steady_msd": lambda x, p: l0_steady_msd(x, p, _SIG),
    "convergence_model": lambda x, p: convergence_model(x, p, _SIG),
    "exact_recursion": lambda x, p: exact_recursion(x, p, _SIG, 200),
    "tapwise_recursion": lambda x, p: tapwise_recursion(x, p, _SIG, 200),
    "steady_bias": lambda x, p: steady_bias(x, p, 1.0),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_variant_rule_is_shared(name):
    """Every entry point that reads an AlgoParams applies one variant rule:
    plain LMS is the l0 variant at kappa = 0 whatever its own kappa, bit
    for bit, and ZA/RZA, which have no l0 model, raise."""
    run = ENTRY_POINTS[name]
    system = gen_system(32, 4, seed=1)
    lms = run(system, AlgoParams(variant=Variant.LMS, mu=2e-3, kappa=3e-6,
                                 alpha=10.0))
    l0 = run(system, AlgoParams(variant=Variant.L0LMS, mu=2e-3, kappa=0.0,
                                alpha=10.0))
    if isinstance(l0, np.ndarray):
        np.testing.assert_array_equal(lms, l0)
    else:
        assert lms == l0
    for variant in (Variant.ZALMS, Variant.RZALMS):
        with pytest.raises(ValueError, match="l0 variant and plain LMS"):
            run(system, AlgoParams(variant=variant, mu=2e-3, kappa=3e-6,
                                   alpha=10.0))


def test_package_import_stays_numpy_only():
    """scipy is imported only when the tap-wise recursion runs."""
    code = "import sys, sparselms; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)
