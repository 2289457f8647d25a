"""Constants layer: contraction deltas, tap classification, attraction strengths."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import (
    AlgoParams,
    AttractionStrengths,
    SignalModel,
    StabilityError,
    Variant,
    approx_min_msd,
    classify,
    deltas,
    lms_theory,
    mu_max,
    strengths,
    za_steady_msd,
)
from sparselms.kernels import attract
from sparselms.theory import betas, solve_omega

FLAGSHIP = dict(L=1000, Q=100, mu=8e-4, alpha=10.0, Px=1.0, Pv=0.01)


# ---------------------------------------------------------------------------
# deltas / mu_max
# ---------------------------------------------------------------------------


@given(
    L=st.integers(1, 5000),
    mu=st.floats(1e-6, 1e-2),
    Px=st.floats(0.1, 10.0),
    data=st.data(),
)
@settings(max_examples=50)
def test_deltas_definitions(L, mu, Px, data):
    Q = data.draw(st.integers(0, L))
    d = deltas(L, Q, mu, Px)
    assert d.delta_L == 2.0 - (L + 2) * mu * Px
    assert d.delta_Q == 2.0 - (Q + 2) * mu * Px
    assert d.delta_0 == 1.0 - mu * Px
    assert d.delta_0_prime == 2.0 - mu * Px
    # cross-relations
    assert d.delta_Q - d.delta_L == pytest.approx((L - Q) * mu * Px, abs=1e-12)
    assert d.delta_0_prime == pytest.approx(d.delta_0 + 1.0, rel=1e-15)


def test_deltas_validation():
    with pytest.raises(ValueError):
        deltas(0, 0, 1e-3, 1.0)
    with pytest.raises(ValueError):
        deltas(10, 11, 1e-3, 1.0)
    with pytest.raises(ValueError):
        deltas(10, 5, 0.0, 1.0)


def test_mu_max_zeroes_delta_L():
    for L, Px in ((10, 1.0), (1000, 1.0), (57, 3.3)):
        lim = mu_max(L, Px)
        assert deltas(L, 0, lim, Px).delta_L == pytest.approx(0.0, abs=1e-12)
        assert deltas(L, 0, 0.999 * lim, Px).delta_L > 0


def test_stability_guard():
    with pytest.raises(StabilityError):
        lms_theory(1000, 1.01 * mu_max(1000, 1.0), 1.0, 0.01)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_partition():
    s = np.array([0.0, 0.05, -0.3, 0.1, -0.02, 0.0, 2.0])
    cls = classify(s, alpha=10.0)
    assert list(cls.zero) == [0, 5]
    assert list(cls.small) == [1, 4]
    # boundary |s| = 1/alpha counts as large
    assert list(cls.large) == [2, 3, 6]
    all_idx = np.concatenate([cls.large, cls.small, cls.zero])
    assert sorted(all_idx.tolist()) == list(range(len(s)))


def test_classify_rejects_bad_alpha():
    with pytest.raises(ValueError):
        classify(np.zeros(3), alpha=0.0)


# ---------------------------------------------------------------------------
# strengths
# ---------------------------------------------------------------------------


def test_strengths_exact_hand_computed():
    # one small tap at 0.05 with alpha=10: g = -10, so G = 100, G' = -0.5;
    # the large tap and zeros contribute nothing.
    s = np.array([0.05, 0.0, 1.0])
    got = strengths(10.0, s=s)
    assert got.G == pytest.approx(100.0)
    assert got.G_prime == pytest.approx(-0.5)


def test_strengths_exclusive_arguments():
    with pytest.raises(ValueError, match="exactly one"):
        strengths(10.0)
    with pytest.raises(ValueError, match="exactly one"):
        strengths(10.0, s=np.zeros(3), Q=3)


def test_strengths_expected_q0_is_zero():
    got = strengths(10.0, Q=0)
    assert (got.G, got.G_prime) == (0.0, 0.0)


def test_strengths_all_taps_outside_range():
    got = strengths(10.0, s=np.array([0.5, -2.0, 0.0]))
    assert (got.G, got.G_prime) == (0.0, 0.0)


def _adaptive_simpson(f, a, b, tol, fa=None, fm=None, fb=None, depth=40):
    """Reference integrator: recursive Simpson with interval halving."""
    m = 0.5 * (a + b)
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    fm = f(m) if fm is None else fm
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    whole = (b - a) / 6.0 * (fa + 4 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, tol / 2, fa, flm, fm, depth - 1)
            + _adaptive_simpson(f, m, b, tol / 2, fm, frm, fb, depth - 1))


@pytest.mark.parametrize("alpha,sigma", [(10.0, 1.0), (0.5, 1.0), (100.0, 0.3), (3.0, 2.0)])
def test_strengths_expected_matches_adaptive_oracle(alpha, sigma):
    Q = 37
    got = strengths(alpha, Q=Q, sigma_s=sigma)

    def pdf(t):
        return math.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    def g(t):
        return 2 * alpha * alpha * t - 2 * alpha if abs(t) <= 1 / alpha else 0.0

    hi = min(1.0 / alpha, 16.0 * sigma)
    ref_G = 2 * Q * _adaptive_simpson(lambda t: g(t) ** 2 * pdf(t), 0.0, hi, 1e-14)
    ref_Gp = 2 * Q * _adaptive_simpson(lambda t: t * g(t) * pdf(t), 0.0, hi, 1e-16)
    assert got.G == pytest.approx(ref_G, rel=1e-10)
    assert got.G_prime == pytest.approx(ref_Gp, rel=1e-10, abs=1e-12)


def test_strengths_expected_flagship_values():
    got = strengths(10.0, Q=100)
    assert got.G == pytest.approx(1063.3145377112946, rel=1e-12)
    assert got.G_prime == pytest.approx(-2.65563052457147, rel=1e-12)


# ---------------------------------------------------------------------------
# beta / eta constants
# ---------------------------------------------------------------------------


def _flagship_pieces():
    f = FLAGSHIP
    stg = strengths(f["alpha"], Q=f["Q"])
    d = deltas(f["L"], f["Q"], f["mu"], f["Px"])
    return f, d, stg


def test_betas_flagship_oracles():
    f, d, stg = _flagship_pieces()
    b = betas(d, stg, f["L"], f["Q"], f["mu"], f["alpha"], f["Px"], f["Pv"])
    assert b.beta0 == pytest.approx(470.9839149551915, rel=1e-12)
    assert b.beta1 == pytest.approx(4.811061328205903e11, rel=1e-12)
    assert b.beta2 == pytest.approx(4.7937263653789636e11, rel=1e-12)
    assert b.beta3 == pytest.approx(2.6034432000435862e-14, rel=1e-12)


def test_betas_difference_identity():
    # diff and summ must equal (beta1 -/+ beta2) exactly in structure:
    # diff*summ = beta1^2 - beta2^2 even when beta1, beta2 agree to many digits
    f, d, stg = _flagship_pieces()
    b = betas(d, stg, f["L"], f["Q"], f["mu"], f["alpha"], f["Px"], f["Pv"])
    assert b.diff > 0
    assert b.summ == pytest.approx(b.beta1 + b.beta2, rel=1e-12)
    assert b.diff * b.summ == pytest.approx(b.beta1**2 - b.beta2**2, rel=1e-6)
    # the naive subtraction keeps only ~4 digits here; diff must be consistent
    assert b.diff == pytest.approx(b.beta1 - b.beta2, rel=1e-3)


def test_sparse_limit_values_golden():
    """The sparse-limit constants eta5 and eta6 reach an output only
    through approx_min_msd, and the small-alpha beta constants only
    through the ZA optimum rho_opt: each is pinned to the bit, as
    recorded while the eta constants were still kept as one set."""
    f, _, stg = _flagship_pieces()
    p = AlgoParams(variant=Variant.L0LMS, mu=2e-4, alpha=10.0)
    assert approx_min_msd(1000, 20, p, SignalModel(Px=1.0, Pv=1e-4),
                          strengths(10.0, Q=20)) == 5.676056661434899e-07
    p = AlgoParams(variant=Variant.L0LMS, mu=f["mu"], alpha=f["alpha"])
    assert approx_min_msd(f["L"], f["Q"], p,
                          SignalModel(Px=f["Px"], Pv=f["Pv"]),
                          stg) == 0.0005139427385265882
    za = za_steady_msd(f["L"], f["Q"], f["mu"], 0.0, f["Px"], f["Pv"])
    assert za.rho_opt == 2.2766700834959032e-06


# ---------------------------------------------------------------------------
# omega root
# ---------------------------------------------------------------------------


def test_omega_no_attraction_closed_form():
    f, d, stg = _flagship_pieces()
    om = solve_omega(d, stg, f["L"], f["Q"], f["mu"], 0.0, f["alpha"], f["Px"], f["Pv"])
    assert om == pytest.approx(math.sqrt(f["mu"] * f["Pv"] / d.delta_L), rel=1e-12)


def test_omega_zero_forcing_is_zero():
    f, d, stg = _flagship_pieces()
    zero = AttractionStrengths(G=0.0, G_prime=0.0, norm_sq=0.0)
    assert solve_omega(d, zero, f["L"], f["Q"], f["mu"], 0.0, f["alpha"], f["Px"], 0.0) == 0.0


@given(
    L=st.integers(8, 2000),
    mu_frac=st.floats(0.05, 0.95),
    kappa=st.floats(0.0, 1e-5),
    alpha=st.floats(0.5, 50.0),
    Pv=st.floats(1e-6, 0.1),
    data=st.data(),
)
@settings(max_examples=60)
def test_omega_satisfies_quadratic(L, mu_frac, kappa, alpha, Pv, data):
    Q = data.draw(st.integers(0, L))
    Px = 1.0
    mu = mu_frac * mu_max(L, Px)
    stg = strengths(alpha, Q=Q)
    d = deltas(L, Q, mu, Px)
    om = solve_omega(d, stg, L, Q, mu, kappa, alpha, Px, Pv)
    assert om >= 0.0
    a = 2 * mu * Px * d.delta_0 * d.delta_L
    b = 8 * alpha * kappa * d.delta_0 * d.delta_Q / math.sqrt(2 * math.pi)
    c = -(2 * mu**2 * Px * Pv * d.delta_0 + 4 * alpha**2 * kappa**2 * d.delta_Q
          + kappa**2 * d.delta_0_prime * stg.G)
    resid = a * om * om + b * om + c
    assert abs(resid) <= 1e-9 * max(abs(a * om * om), abs(b * om), abs(c), 1e-300)


# ---------------------------------------------------------------------------
# plain-LMS reference
# ---------------------------------------------------------------------------


def test_lms_steady_value():
    f = FLAGSHIP
    d = deltas(f["L"], 0, f["mu"], f["Px"])
    want = f["mu"] * f["Pv"] * f["L"] / d.delta_L
    assert lms_theory(f["L"], f["mu"], f["Px"], f["Pv"]) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(6.675567423230977e-3, rel=1e-12)


def test_lms_curve_shape():
    s = np.zeros(64)
    s[:4] = 1.0
    kw = dict(L=64, mu=1e-3, Px=1.0, Pv=1e-4, s=s)
    d0 = lms_theory(n=0, **kw)
    assert d0 == pytest.approx(4.0, rel=1e-12)      # ||s||^2 at n=0
    curve = lms_theory(n=np.arange(20000), **kw)
    assert np.all(np.diff(curve) < 0)               # monotone approach from above
    assert curve[-1] == pytest.approx(lms_theory(64, 1e-3, 1.0, 1e-4), rel=1e-3)


def test_lms_curve_requires_s():
    with pytest.raises(ValueError, match="needs s"):
        lms_theory(64, 1e-3, 1.0, 1e-4, n=10)


def test_g_l0_matches_attractor_shape():
    t = np.linspace(-0.2, 0.2, 81)
    g = attract(Variant.L0LMS, t, 10.0)
    inside = np.abs(t) <= 0.1
    assert np.all(g[~inside] == 0.0)
    assert np.allclose(g[inside], 200.0 * t[inside] - 20.0 * np.sign(t[inside]))
