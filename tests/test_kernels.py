"""Filter-kernel unit tests: attractor shapes and one-step updates."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselms import AlgoParams, SparseSystem, Variant, step
from sparselms.kernels import ATTRACTORS


def l0(mu=1e-3, kappa=1e-4, alpha=10.0) -> AlgoParams:
    return AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=kappa, alpha=alpha)


# ---------------------------------------------------------------------------
# attractors: ATTRACTORS[variant](t, alpha)
# ---------------------------------------------------------------------------

G0, GZA, GRZA = (ATTRACTORS[v] for v in (Variant.L0LMS, Variant.ZALMS,
                                         Variant.RZALMS))


def test_attractor_l0_at_zero_is_zero():
    assert G0(0.0, 10.0) == 0.0


def test_attractor_l0_inside_range():
    # 2*alpha^2*t - 2*alpha*sgn(t) at t=0.05, alpha=10
    assert G0(0.05, 10.0) == pytest.approx(-10.0)


def test_attractor_l0_outside_range_is_zero():
    assert G0(0.2, 10.0) == 0.0


def test_attractor_l0_continuous_at_range_boundary():
    # the linear branch applies at |t| = 1/alpha and evaluates to exactly 0
    assert G0(0.1, 10.0) == 0.0
    assert G0(-0.1, 10.0) == 0.0
    t = 0.1 - 1e-9
    assert abs(G0(t, 10.0)) < 1e-6


def test_attractor_za_is_negated_sign():
    assert GZA(-3.7, 1.0) == 1.0
    assert GZA(3.7, 1.0) == -1.0
    assert GZA(0.0, 1.0) == 0.0


def test_attractor_rza_shrinks_with_magnitude():
    assert GRZA(0.1, 10.0) == pytest.approx(-0.5)


def test_attractor_rejects_plain_lms():
    # plain LMS has no attractor: the table has no entry for it
    assert Variant.LMS not in ATTRACTORS
    assert set(ATTRACTORS) == set(Variant) - {Variant.LMS}


def test_attractor_vectorized():
    t = np.array([0.0, 0.05, 0.2, -0.05])
    out = G0(t, 10.0)
    assert np.allclose(out, [0.0, -10.0, 0.0, 10.0])


@given(t=st.floats(-1e3, 1e3), alpha=st.floats(1e-3, 1e3))
def test_attractor_l0_odd_and_finite(t, alpha):
    g_pos = G0(t, alpha)
    g_neg = G0(-t, alpha)
    assert np.isfinite(g_pos)
    assert g_neg == -g_pos


@given(t=st.floats(-1e3, 1e3))
def test_attractor_za_rza_odd(t):
    for g_of in (GZA, GRZA):
        g = g_of(t, 3.0)
        assert np.isfinite(g)
        assert g_of(-t, 3.0) == -g


@given(t=st.floats(-1e3, 1e3), alpha=st.floats(1e-3, 1e3))
def test_attractor_l0_attracts_toward_origin(t, alpha):
    g = G0(t, alpha)
    if abs(t) <= 1.0 / alpha:
        assert g * t <= 0.0
    else:
        assert g == 0.0


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_zero_regressor_no_attractor():
    p = AlgoParams(variant=Variant.LMS, mu=1e-3)
    new, e = step(np.zeros(3), np.zeros(3), 1.0, p)
    assert e == 1.0
    assert np.all(new == 0.0)


def test_step_attractor_only_update():
    # zero regressor isolates the attraction term: w' = w + kappa * g(w)
    new, e = step(np.array([0.05]), np.array([0.0]), 0.0, l0(mu=1e-3, kappa=1e-4, alpha=10.0))
    assert e == 0.0
    assert new[0] == pytest.approx(0.049, abs=1e-15)


def test_step_is_pure():
    w0 = np.array([0.3, -0.2])
    w = w0.copy()
    new, _ = step(w, np.array([1.0, 2.0]), 0.5, l0())
    assert np.array_equal(w, w0)
    assert new is not w


def test_step_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        step(np.zeros(3), np.zeros(4), 0.0, l0())


def test_step_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        step(np.zeros(2), np.array([1.0, np.nan]), 0.0, l0())
    with pytest.raises(ValueError, match="non-finite"):
        step(np.zeros(2), np.ones(2), np.inf, l0())


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_step_zero_weight_variants_match_lms(seed):
    """kappa=0 must be bit-identical to LMS for every variant."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(8)
    x = rng.standard_normal(8)
    d = float(rng.standard_normal())
    mu = float(rng.uniform(1e-4, 1e-2))

    ref, e_ref = step(w.copy(), x, d, AlgoParams(variant=Variant.LMS, mu=mu))
    for p in (
        AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=0.0, alpha=10.0),
        AlgoParams(variant=Variant.ZALMS, mu=mu, kappa=0.0),
        AlgoParams(variant=Variant.RZALMS, mu=mu, kappa=0.0, alpha=10.0),
    ):
        got, e_got = step(w.copy(), x, d, p)
        assert e_got == e_ref
        assert np.array_equal(got, ref)


def test_step_l0_approaches_za_as_alpha_vanishes():
    """With 2*alpha*kappa held at the ZA weight rho, the l0 update converges
    to the ZA update."""
    rng = np.random.default_rng(7)
    w = 0.5 * rng.standard_normal(16)
    x = rng.standard_normal(16)
    d = float(rng.standard_normal())
    mu, rho = 1e-3, 1e-4

    za, _ = step(w.copy(), x, d, AlgoParams(variant=Variant.ZALMS, mu=mu, kappa=rho))
    gaps = []
    for alpha in (1e-3, 1e-4, 1e-5):
        p = AlgoParams(variant=Variant.L0LMS, mu=mu, kappa=rho / (2 * alpha), alpha=alpha)
        got, _ = step(w.copy(), x, d, p)
        gaps.append(float(np.max(np.abs(got - za))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-8


def test_step_uses_pre_update_weights_in_attractor():
    # one step from w=(0.05,) with a live regressor: the attraction must be
    # evaluated at 0.05 (giving -10), not at the LMS-updated intermediate.
    mu, kappa, alpha = 1e-3, 1e-4, 10.0
    w = np.array([0.05])
    x = np.array([2.0])
    d = 1.0
    e = d - 2.0 * 0.05
    expected = 0.05 + mu * e * 2.0 + kappa * (2 * alpha**2 * 0.05 - 2 * alpha)
    new, _ = step(w, x, d, l0(mu=mu, kappa=kappa, alpha=alpha))
    assert new[0] == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# params / system containers
# ---------------------------------------------------------------------------


def test_algoparams_validation():
    with pytest.raises(ValueError, match="mu"):
        AlgoParams(variant=Variant.LMS, mu=0.0)
    with pytest.raises(ValueError, match=">= 0"):
        AlgoParams(variant=Variant.L0LMS, mu=1e-3, kappa=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        AlgoParams(variant=Variant.L0LMS, mu=1e-3, alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        AlgoParams(variant=Variant.RZALMS, mu=1e-3, alpha=-1.0)
    AlgoParams(variant=Variant.ZALMS, mu=1e-3, alpha=0.0)   # ZA reads no alpha
    # one vocabulary for every variant: the weight and the shape
    assert [f.name for f in fields(AlgoParams)] == ["variant", "mu", "kappa",
                                                    "alpha"]


def test_sparsesystem_counts_nonzeros():
    s = np.zeros(10)
    s[[2, 5]] = 1.0
    sys_ok = SparseSystem.from_vector(s)
    assert (sys_ok.L, sys_ok.Q) == (10, 2)
    assert sys_ok.norm_sq == pytest.approx(2.0)
    with pytest.raises(ValueError, match="non-zeros"):
        SparseSystem(s=s, L=10, Q=3)
