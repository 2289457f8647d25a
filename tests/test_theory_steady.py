"""Steady-state layer: dual-form MSD, optimal weight, ZA variant, approximations."""

from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    AlgoParams,
    DegenerateSpectrumError,
    ExperimentSpec,
    ParameterRangeError,
    SignalModel,
    StabilityError,
    SteadyStateReport,
    Variant,
    approx_min_msd,
    convergence_model,
    default_iterations,
    deltas,
    exact_recursion,
    gen_system,
    l0_steady_msd,
    lms_theory,
    mu_max,
    optimal_kappa,
    resolve_kappa,
    steady_bias,
    strengths,
    tapwise_recursion,
    za_steady_msd,
)
from sparselms import theory
from sparselms.theory import betas, solve_omega

FLAGSHIP = dict(L=1000, Q=100, mu=8e-4, alpha=10.0, Px=1.0, Pv=0.01)


def flagship_report(kappa):
    f = FLAGSHIP
    stg = strengths(f["alpha"], Q=f["Q"])
    p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=kappa, alpha=f["alpha"])
    sig = SignalModel(Px=f["Px"], Pv=f["Pv"])
    return l0_steady_msd((f["L"], f["Q"], stg), p, sig)


# ---------------------------------------------------------------------------
# SignalModel / SNR conventions
# ---------------------------------------------------------------------------


def test_signal_output_referred_flagship():
    sig = SignalModel.from_snr(1.0, 40.0, Q=100)
    assert sig.Pv == pytest.approx(0.01, rel=1e-12)
    sig20 = SignalModel.from_snr(1.0, 20.0, Q=100)
    assert sig20.Pv == pytest.approx(1.0, rel=1e-12)


def test_signal_validation():
    with pytest.raises(ValueError):
        SignalModel(Px=1.0, Pv=0.0)
    with pytest.raises(ValueError):
        SignalModel(Px=0.0, Pv=0.01)
    with pytest.raises(ValueError, match="undefined for an all-zero"):
        SignalModel.from_snr(1.0, 40.0, Q=0)


def test_low_snr_warning():
    f = FLAGSHIP
    stg = strengths(f["alpha"], Q=f["Q"])
    p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=1e-7, alpha=f["alpha"])
    sig = SignalModel.from_snr(1.0, 20.0, Q=f["Q"])
    with pytest.warns(RuntimeWarning, match="dB is low"):
        l0_steady_msd((f["L"], f["Q"], stg), p, sig)


# ---------------------------------------------------------------------------
# steady-state report at the flagship parameters
# ---------------------------------------------------------------------------


def test_flagship_optimum_oracles():
    rep = flagship_report(kappa=0.0)
    assert rep.d_lms == pytest.approx(6.675567423230977e-3, rel=1e-12)
    assert rep.kappa_opt == pytest.approx(3.747845320580678e-7, rel=1e-12)
    assert rep.d_min == pytest.approx(9.440626387863076e-4, rel=1e-12)
    assert rep.kappa_outperform_bound == pytest.approx(1.8955792736723756e-6, rel=1e-12)


def test_no_attraction_reduces_to_lms():
    rep = flagship_report(kappa=0.0)
    assert rep.d_inf == pytest.approx(rep.d_lms, rel=1e-14)
    assert rep.omega > 0


def test_minimizer_property():
    rep = flagship_report(kappa=0.0)
    ko = rep.kappa_opt
    d_at_opt = flagship_report(kappa=ko).d_inf
    kappas = np.geomspace(1e-2 * ko, 1e2 * ko, 200)
    vals = np.array([flagship_report(kappa=float(k)).d_inf for k in kappas])
    assert np.all(d_at_opt <= vals + 1e-15 * np.abs(vals))


def test_outperform_bound_separates_regimes():
    rep = flagship_report(kappa=0.0)
    bound = rep.kappa_outperform_bound
    assert flagship_report(kappa=0.99 * bound).d_inf < rep.d_lms
    assert flagship_report(kappa=1.5 * bound).d_inf > rep.d_lms
    # at the bound, the attraction gain crosses zero
    assert flagship_report(kappa=bound).d_inf == pytest.approx(rep.d_lms, rel=1e-9)


def test_optimal_kappa_degenerate_dense_system():
    # fully dense (Q = L): no zero taps to attract, optimum collapses to LMS
    f = FLAGSHIP
    L = 200
    stg = strengths(f["alpha"], Q=L)
    d = deltas(L, L, f["mu"], f["Px"])
    b = betas(d, stg, L, L, f["mu"], f["alpha"], f["Px"], f["Pv"])
    ko, dmin, bound = optimal_kappa(b, d, L, f["mu"], f["Pv"])
    assert ko == 0.0 and bound == 0.0
    assert dmin == pytest.approx(f["mu"] * f["Pv"] * L / d.delta_L, rel=1e-14)


@given(
    L=st.integers(8, 2000),
    q_frac=st.floats(0.0, 1.0),
    mu_frac=st.floats(0.05, 0.95),
    alpha=st.floats(0.1, 100.0),
    log_pv=st.floats(-7.0, -1.0),
    k_scale=st.floats(0.0, 3.0),
)
@settings(max_examples=80, deadline=None)
def test_dual_form_consistency_random(L, q_frac, mu_frac, alpha, log_pv, k_scale):
    """The weight-explicit and power-balance forms agree; the cross-check
    inside l0_steady_msd raises if they drift past relative 1e-9."""
    Q = int(round(q_frac * L))
    Px, Pv = 1.0, 10.0**log_pv
    mu = mu_frac * mu_max(L, Px)
    stg = strengths(alpha, Q=Q)
    d = deltas(L, Q, mu, Px)
    b = betas(d, stg, L, Q, mu, alpha, Px, Pv)
    ko, _, _ = optimal_kappa(b, d, L, mu, Pv)
    kappa = k_scale * ko
    p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=kappa, alpha=alpha)
    rep = l0_steady_msd((L, Q, stg), p, SignalModel(Px=Px, Pv=Pv))
    assert rep.d_inf > 0
    assert np.isfinite(rep.omega)


def test_exact_strengths_route_and_bias():
    rng = np.random.default_rng(3)
    s = np.zeros(300)
    s[:20] = rng.standard_normal(20)
    s[20:30] = 0.02 * rng.standard_normal(10)      # small taps for alpha=10
    p = AlgoParams(variant=Variant.L0LMS, mu=2e-4, kappa=1e-7, alpha=10.0)
    sig = SignalModel(Px=1.0, Pv=1e-4)
    rep = l0_steady_msd(s, p, sig)
    assert rep.d_inf > 0
    bias = steady_bias(s, p, 1.0)
    assert bias.shape == s.shape
    # bias lives only on the small coefficients
    small = (np.abs(s) > 0) & (np.abs(s) < 0.1)
    assert np.all(bias[~small] == 0.0)
    assert np.all(bias[small] != 0.0)
    # the report carries no bias: steady_bias is its one route
    assert "bias" not in {f.name for f in fields(SteadyStateReport)}


def test_steady_msd_of_a_system_does_not_warn():
    """At 3*kappa_opt the bias formula degrades, but l0_steady_msd does
    not evaluate it."""
    f = FLAGSHIP
    ko = flagship_report(kappa=0.0).kappa_opt
    p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=3 * ko,
                   alpha=f["alpha"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = l0_steady_msd(gen_system(f["L"], f["Q"], 1), p,
                            SignalModel(Px=f["Px"], Pv=f["Pv"]))
    assert rep.d_inf > 0


def test_steady_bias_values_and_warning():
    s = np.array([0.05, 0.0, 1.0])
    p = AlgoParams(variant=Variant.L0LMS, mu=1e-3, kappa=1e-8, alpha=10.0)
    b = steady_bias(s, p, Px=1.0)
    assert b[0] == pytest.approx(1e-8 * (-10.0) / 1e-3, rel=1e-12)
    assert b[1] == 0.0 and b[2] == 0.0
    strong = AlgoParams(variant=Variant.L0LMS, mu=1e-3, kappa=1e-3, alpha=10.0)
    with pytest.warns(RuntimeWarning, match="bias formula degrades"):
        steady_bias(s, strong, Px=1.0)
    with pytest.raises(ValueError, match="l0 variant"):
        steady_bias(s, AlgoParams(variant=Variant.ZALMS, mu=1e-3, kappa=1e-4), Px=1.0)


def test_strengths_built_for_another_alpha_are_refused():
    """Strengths record the alpha they were built for; a closed form at
    another alpha refuses them instead of returning a value 8% off."""
    f = FLAGSHIP
    st10 = strengths(10.0, Q=f["Q"])
    assert (st10.alpha, strengths(2.0, s=np.ones(4)).alpha) == (10.0, 2.0)
    p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=3.7e-7,
                   alpha=2.0)
    sig = SignalModel(Px=f["Px"], Pv=f["Pv"])
    for call in (lambda: l0_steady_msd((f["L"], f["Q"], st10), p, sig),
                 lambda: convergence_model((f["L"], f["Q"], st10), p, sig),
                 lambda: approx_min_msd(f["L"], f["Q"], p, sig, st10)):
        with pytest.raises(ValueError,
                           match="built for alpha=10 used at alpha=2"):
            call()
    d = l0_steady_msd((f["L"], f["Q"], strengths(2.0, Q=f["Q"])), p,
                      sig).d_inf
    assert d == pytest.approx(3.0636e-3, rel=1e-4)


def test_variant_guard():
    p = AlgoParams(variant=Variant.ZALMS, mu=8e-4, kappa=1e-6)
    with pytest.raises(ValueError, match="l0 variant"):
        l0_steady_msd((100, 10, strengths(10.0, Q=10)), p, SignalModel(Px=1.0, Pv=0.01))


# ---------------------------------------------------------------------------
# ZA variant
# ---------------------------------------------------------------------------


def test_za_flagship_oracles():
    f = FLAGSHIP
    rep = za_steady_msd(f["L"], f["Q"], f["mu"], 2.2766700834959032e-6, f["Px"], f["Pv"])
    assert rep.rho_opt == pytest.approx(2.2766700834959032e-6, rel=1e-9)
    assert rep.d_inf_za == pytest.approx(3.1694425244882685e-3, rel=1e-12)
    assert rep.gamma > 0 and rep.y > 0


def test_za_zero_weight_is_lms():
    f = FLAGSHIP
    rep = za_steady_msd(f["L"], f["Q"], f["mu"], 0.0, f["Px"], f["Pv"])
    assert rep.d_inf_za == pytest.approx(lms_theory(f["L"], f["mu"], f["Px"], f["Pv"]), rel=1e-9)


def test_za_validation():
    f = FLAGSHIP
    with pytest.raises(ValueError, match="rho"):
        za_steady_msd(f["L"], f["Q"], f["mu"], -1e-6, f["Px"], f["Pv"])
    with pytest.raises(StabilityError):
        za_steady_msd(f["L"], f["Q"], 1.01 * mu_max(f["L"], f["Px"]), 1e-6, f["Px"], f["Pv"])


@given(
    L=st.integers(8, 2000),
    q_frac=st.floats(0.0, 1.0),
    mu_frac=st.floats(0.05, 0.95),
    log_rho=st.floats(-9.0, -4.0),
    log_pv=st.floats(-7.0, -1.0),
)
@settings(max_examples=60, deadline=None)
def test_za_dual_route_random(L, q_frac, mu_frac, log_rho, log_pv):
    Q = int(round(q_frac * L))
    mu = mu_frac * mu_max(L, 1.0)
    rep = za_steady_msd(L, Q, mu, 10.0**log_rho, 1.0, 10.0**log_pv)
    assert np.isfinite(rep.d_inf_za)


def test_l0_limit_approaches_za():
    """2*alpha*kappa = rho held fixed: the l0 steady state converges to the
    ZA steady state from the attraction-range side as alpha shrinks."""
    f = FLAGSHIP
    rho = 1e-6
    za = za_steady_msd(f["L"], f["Q"], f["mu"], rho, f["Px"], f["Pv"]).d_inf_za
    gaps = []
    for alpha in (1e-3, 1e-4, 1e-5):
        stg = strengths(alpha, Q=f["Q"])
        p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=rho / (2 * alpha), alpha=alpha)
        rep = l0_steady_msd((f["L"], f["Q"], stg), p, SignalModel(Px=f["Px"], Pv=f["Pv"]))
        gaps.append(abs(rep.d_inf - za) / za)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


# ---------------------------------------------------------------------------
# approximations
# ---------------------------------------------------------------------------


def test_q0_mode_matches_full_optimum():
    f = FLAGSHIP
    L = 500
    p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=0.0, alpha=f["alpha"])
    sig = SignalModel(Px=1.0, Pv=1e-4)
    stg = strengths(f["alpha"], Q=0)
    approx = approx_min_msd(L, 0, p, sig, stg)
    d = deltas(L, 0, f["mu"], 1.0)
    b = betas(d, stg, L, 0, f["mu"], f["alpha"], 1.0, 1e-4)
    _, dmin, _ = optimal_kappa(b, d, L, f["mu"], 1e-4)
    assert approx == pytest.approx(dmin, rel=1e-6)
    # and alpha must not matter at Q=0
    p2 = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], kappa=0.0, alpha=123.0)
    assert approx_min_msd(L, 0, p2, sig, stg) == pytest.approx(approx, rel=1e-12)


def test_sparse_mode_bounds_and_warning():
    sig = SignalModel(Px=1.0, Pv=1e-4)
    p = AlgoParams(variant=Variant.L0LMS, mu=2e-4, kappa=0.0, alpha=10.0)
    stg = strengths(10.0, Q=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # no warning expected in-regime
        val = approx_min_msd(1000, 20, p, sig, stg)
    d_lms = lms_theory(1000, 2e-4, 1.0, 1e-4)
    assert 0.0 < val < d_lms
    # out of regime: Q/L too large
    with pytest.warns(RuntimeWarning, match="stretched"):
        approx_min_msd(100, 50, p, sig, strengths(10.0, Q=50))


def test_sparse_mode_monotone_in_step_size():
    """The simplified minimum grows with the step size inside its regime."""
    sig = SignalModel(Px=1.0, Pv=1e-4)
    stg = strengths(10.0, Q=10)
    mus = np.geomspace(1e-5, 0.95 * mu_max(1000, 1.0), 20)
    vals = []
    for mu in mus:
        p = AlgoParams(variant=Variant.L0LMS, mu=float(mu), kappa=0.0, alpha=10.0)
        vals.append(approx_min_msd(1000, 10, p, sig, stg))
    assert np.all(np.diff(vals) > 0)


def _entry_calls(mu, alpha, kappa):
    """``(name, call)`` of every entry point under the float-range guard
    at one (mu, alpha, kappa) of L=16, Q=2: the l0 forms on the expected
    strengths, the per-system ones on a drawn system, ZA at rho = kappa,
    and on the run path the default step count and the "OPTIMAL" weight
    of the l0 and ZA variants."""
    L, Q = 16, 2
    s = gen_system(L, Q, seed=1)
    sig = SignalModel(Px=1.0, Pv=1e-4)
    p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=kappa, alpha=alpha)
    spec = ExperimentSpec(L=L, Q=Q, mu=mu, alpha=alpha, kappa="OPTIMAL",
                          Pv=1e-4)

    def point():
        return (L, Q, strengths(alpha, Q=Q)), p, sig

    def constants():
        return deltas(L, Q, mu, 1.0), strengths(alpha, Q=Q), L, Q, mu

    return [
        ("strengths", lambda: strengths(alpha, s=s)),
        ("betas", lambda: betas(*constants(), alpha, 1.0, 1e-4)),
        ("solve_omega", lambda: solve_omega(*constants(), kappa, alpha, 1.0,
                                            1e-4)),
        ("l0_steady_msd", lambda: l0_steady_msd(*point())),
        ("convergence_model", lambda: convergence_model(*point())),
        ("exact_recursion", lambda: exact_recursion(*point(), 5)),
        ("za_steady_msd", lambda: za_steady_msd(L, Q, mu, kappa, 1.0, 1e-4)),
        ("approx_min_msd", lambda: approx_min_msd(L, Q, p, sig,
                                                  strengths(alpha, Q=Q))),
        ("steady_bias", lambda: steady_bias(s, p, 1.0)),
        ("tapwise_recursion", lambda: tapwise_recursion(s, p, sig, 5)),
        ("default_iterations", lambda: default_iterations(L, Q, mu, 1.0)),
        ("resolve_kappa", lambda: resolve_kappa(spec)),
        ("resolve_kappa", lambda: resolve_kappa(
            replace(spec, variants=(Variant.ZALMS,))))]


def _numbers(out) -> np.ndarray:
    if is_dataclass(out):
        out = [v for v in vars(out).values() if v is not None]
    return np.asarray(out, dtype=float)


def test_underflowing_mu_or_alpha_is_refused():
    """A stable mu so small that the steady constants or the default
    step count leave the float range, an alpha that empties the sparse
    approximation, or a sigma_s whose noise power overflows, is refused
    by the one float-range guard, which names the caller's own
    parameters, never an internal one such as the ZA limit's alpha or
    the kappa = 0 that "OPTIMAL" is resolved at.  Over the probe grid of
    mu, alpha and kappa, every guarded entry point returns finite values
    or refuses with ParameterRangeError, StabilityError or
    DegenerateSpectrumError."""
    sig = SignalModel(Px=1.0, Pv=1e-4)
    stg = strengths(10.0, Q=2)
    for mu in (1e-155, 1e-200):
        tiny_mu = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=0.0,
                             alpha=10.0)
        with pytest.raises(ParameterRangeError, match=re.escape(
                f"l0_steady_msd leaves the float range at mu={mu}, "
                "alpha=10.0, kappa=0.0")):
            l0_steady_msd((16, 2, stg), tiny_mu, sig)
        with pytest.raises(ParameterRangeError, match=re.escape(
                f"za_steady_msd leaves the float range at mu={mu}, "
                "rho=0.0")):
            za_steady_msd(16, 2, mu, 0.0, 1.0, 1e-4)
    tiny_alpha = AlgoParams(variant=Variant.L0LMS, mu=1e-3, kappa=0.0,
                            alpha=1e-200)
    with pytest.raises(ParameterRangeError, match=re.escape(
            "approx_min_msd leaves the float range at mu=0.001, "
            "alpha=1e-200, kappa=0.0")):
        approx_min_msd(100, 2, tiny_alpha, sig, strengths(1e-200, Q=2))
    with pytest.raises(ParameterRangeError, match=re.escape(
            "resolve_kappa leaves the float range at mu=1e-100, "
            "alpha=10.0, kappa=OPTIMAL")):
        resolve_kappa(ExperimentSpec(L=16, Q=2, mu=1e-100, alpha=10.0,
                                     kappa="OPTIMAL", snr_db=40.0))
    with pytest.raises(ParameterRangeError, match=re.escape(
            "default_iterations leaves the float range at mu=1e-309")):
        default_iterations(16, 2, 1e-309, 1.0)
    # Q*sigma_s^2 overflows as a float power (1e200) or turns the noise
    # power into inf (1e154)
    for sigma_s in (1e154, 1e200):
        with pytest.raises(ParameterRangeError, match=re.escape(
                f"from_snr leaves the float range at sigma_s={sigma_s}, "
                "snr_db=40.0")):
            SignalModel.from_snr(1.0, 40.0, Q=2, sigma_s=sigma_s)

    refusals = (ParameterRangeError, StabilityError, DegenerateSpectrumError)
    bad = []
    for mu, alpha, kappa in itertools.product(
            (1e-3, 1e-30, 1e-120, 1e-200), (1e-6, 10.0, 1e100, 1e200),
            (0.0, 1e-6, 1e100, 1e155, 1e300)):
        for name, call in _entry_calls(mu, alpha, kappa):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")     # the bias caveat
                    ok = bool(np.isfinite(_numbers(call())).all())
            except refusals:
                ok = True
            except Exception as e:                  # noqa: BLE001
                ok = repr(e)
            if ok is not True:
                bad.append((name, mu, alpha, kappa, ok))
    assert not bad


def test_za_reference_route_keeps_digits_at_tiny_mu():
    """The ZA routes agree down to where the small-alpha limit leaves the
    float range (beta2^2 overflows from about mu*Px = 1e-81): the
    decimal reference carries more digits as mu*Px shrinks.  Below, the
    guard refuses at the caller's mu and rho."""
    rho_opt = {mu: za_steady_msd(16, 2, mu, 0.0, 1.0, 2e-4).rho_opt
               for mu in (1e-40, 1e-50, 1e-80)}
    assert rho_opt[1e-50] == pytest.approx(1.0954745007220766e-77, rel=1e-12)
    for mu, rho in rho_opt.items():                 # rho_opt grows as mu^1.5
        assert rho == pytest.approx(rho_opt[1e-50] * (mu / 1e-50) ** 1.5,
                                    rel=1e-9)
    for mu in (1e-40, 1e-50):
        za_steady_msd(16, 2, mu, rho_opt[mu], 1.0, 2e-4)
    with pytest.raises(ParameterRangeError, match=re.escape(
            "za_steady_msd leaves the float range at mu=1e-103, rho=0.0")):
        za_steady_msd(16, 2, 1e-103, 0.0, 1.0, 2e-4)


def test_l0_digit_loss_at_tiny_mu_is_a_range_refusal(monkeypatch):
    """On a drawn system with no small taps at a tiny mu, sqrt(e2) and
    sqrt(e3) agree to more digits than a float holds, so beta1 - beta2
    is lost: the float-range rule refuses at the caller's point, not
    the dual-route check.  A disagreement with its digits intact is
    still the check's."""
    s = gen_system(16, 2, 1)
    sig = SignalModel(Px=1.0, Pv=2e-4)
    p = AlgoParams(variant=Variant.L0LMS, mu=1e-30, kappa=1e-6, alpha=10.0)
    with pytest.raises(ParameterRangeError, match=re.escape(
            "l0_steady_msd leaves the float range at mu=1e-30, alpha=10.0, "
            "kappa=1e-06")):
        l0_steady_msd(s, p, sig)
    solve = theory.solve_omega
    monkeypatch.setattr(theory, "solve_omega",
                        lambda *a: solve(*a) * (1 + 1e-6))
    with pytest.raises(theory.ConsistencyError,
                       match="steady-state forms disagree"):
        flagship_report(3.7e-7)


def test_za_underflow_is_a_range_refusal(monkeypatch):
    """Where the ZA closed form's products underflow (rho*pair_num at
    rho_opt from mu*Px ~ 1e-70, mu^3 at rho = 0 with Q = 0), the
    float-range rule refuses at the caller's mu and rho.  A disagreement
    without underflow is still the dual-route check's."""
    rho = za_steady_msd(16, 2, 1e-80, 0.0, 1.0, 2e-4).rho_opt
    for args, point in (((16, 2, 1e-80, rho, 1.0, 2e-4),
                         f"mu=1e-80, rho={rho}"),
                        ((15, 0, 2.3e-113, 0.0, 1.0, 1e-4),
                         "mu=2.3e-113, rho=0.0")):
        with pytest.raises(ParameterRangeError, match=re.escape(
                f"za_steady_msd leaves the float range at {point}")):
            za_steady_msd(*args)
    # the float form reads math.pi, the decimal route its own digits
    f = FLAGSHIP
    monkeypatch.setattr(theory.math, "pi", 3.1416)
    with pytest.raises(theory.ConsistencyError,
                       match="ZA steady-state forms disagree"):
        za_steady_msd(f["L"], f["Q"], f["mu"], 2e-6, f["Px"], f["Pv"])


def test_za_cancellation_is_a_range_refusal():
    """On an all-zero system at a weight far above mu*Px, the attraction
    gain cancels the rho^2 term of the float form to below the check's
    digits: the float-range rule refuses.  With two non-zero taps the
    same point keeps its value."""
    for mu in (1e-20, 1e-30):
        with pytest.raises(ParameterRangeError, match=re.escape(
                f"za_steady_msd leaves the float range at mu={mu}, "
                "rho=1e-06")):
            za_steady_msd(16, 0, mu, 1e-6, 1.0, 1e-4)
    assert za_steady_msd(16, 2, 1e-20, 1e-6, 1.0, 1e-4).d_inf_za == 2e28
