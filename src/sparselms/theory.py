"""Closed-form performance theory for the zero-attracting (l0) LMS family.

Everything here is analytic: steady-state mean-square deviation (MSD),
optimal attraction weight, the sign-attractor (ZA) limit, and the full
transient learning-curve model.  The formulas hold for white zero-mean
Gaussian input of power ``Px``, white additive noise of power ``Pv``,
and rest on the usual independence approximation between the regressor,
the weights, and the noise.  :func:`tapwise_recursion` is the one
numerical model: the same premises, without the closed form's
linearization of the zero-tap attraction.  Every entry point that reads
an AlgoParams treats plain LMS as the l0 variant at kappa = 0.

Numerical style: several published-form expressions subtract nearly equal
large terms (the attraction constants ``beta1`` and ``beta2`` agree to
five or more digits in realistic regimes).  Every such expression is
evaluated here through an algebraically identical cancellation-free
rearrangement, so dual-form consistency holds to ~1e-12 instead of ~1e-8.
"""

from __future__ import annotations

import decimal
import functools
import inspect
import math
import warnings
from dataclasses import dataclass, is_dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernels import AlgoParams, Variant, _as_systems, attract

__all__ = [
    "AccelerationReport", "AttractionStrengths", "BetaSet",
    "ConsistencyError", "ConvergenceModel", "DegenerateSpectrumError",
    "DeltaSet", "ParameterRangeError", "SignalModel", "StabilityError",
    "SteadyStateReport", "TapClassification", "ZASteadyReport",
    "acceleration_check", "approx_min_msd", "betas", "classify",
    "convergence_model", "deltas", "l0_steady_msd", "exact_recursion",
    "lms_theory", "mu_max", "optimal_kappa", "solve_omega", "steady_bias",
    "strengths", "tapwise_recursion", "za_steady_msd",
]

_SQRT_8_PI = math.sqrt(8.0 / math.pi)


class StabilityError(ValueError):
    """Step size outside the mean-square stability range."""


class ConsistencyError(ArithmeticError):
    """Two analytically equivalent formulas disagreed numerically."""


class DegenerateSpectrumError(ValueError):
    """Transient modes coincide; the closed-form curve is ill-defined."""


class ParameterRangeError(ValueError):
    """A closed form was evaluated outside its valid parameter range."""


def _finite(out) -> bool:
    """Every number in a result, each field of a dataclass too, is finite."""
    if is_dataclass(out):
        return all(map(_finite, vars(out).values()))
    return out is None or bool(np.isfinite(np.asarray(out, float)).all())


def _in_float_range(entry):
    """The one float-range rule: an overflow or a division by zero in
    ``entry``, or a result that is not finite, raises ParameterRangeError
    naming the caller's parameters: the mu, alpha and kappa of its
    AlgoParams (each row's kappa, batched) or spec, else its mu, alpha,
    ZA weight rho, sigma_s and snr_db.  The outermost guarded entry point
    restates a nested one's refusal.  numpy's float warnings are silenced
    inside, the finiteness check covering them."""
    signature = inspect.signature(entry)

    @functools.wraps(entry)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                out = entry(*args, **kwargs)
            if _finite(out):
                return out
        except (OverflowError, ZeroDivisionError, ParameterRangeError):
            pass
        named = signature.bind(*args, **kwargs).arguments
        p = named.get("params", named.get("spec"))
        if batch := [p] if hasattr(p, "kappa") else list(p or ()):
            kappa = [q.kappa for q in batch]
            named = {"mu": batch[0].mu, "alpha": batch[0].alpha,
                     "kappa": kappa if len(kappa) > 1 else kappa[0]}
        point = ", ".join(f"{k}={named[k]}" for k in ("mu", "alpha", "kappa",
                          "rho", "sigma_s", "snr_db") if k in named)
        raise ParameterRangeError(
            f"{entry.__name__} leaves the float range at {point}")
    return guarded


@dataclass(frozen=True)
class SignalModel:
    """Input/noise powers, optionally tied to a stated SNR.

    ``ref_power`` is the signal power the SNR refers to.  When both
    ``snr_db`` and ``ref_power`` are present, ``Pv`` is validated
    against them.
    """

    Px: float
    Pv: float
    snr_db: float | None = None
    ref_power: float | None = None

    def __post_init__(self):
        if not (self.Px < math.inf and self.Pv < math.inf):
            raise ParameterRangeError(f"Px and Pv must be finite, got "
                                      f"Px={self.Px}, Pv={self.Pv}")
        if not (self.Px > 0 and self.Pv > 0):
            raise ValueError(f"Px and Pv must be > 0, got Px={self.Px}, "
                             f"Pv={self.Pv}")
        if self.snr_db is not None and self.ref_power is not None:
            expect = self.ref_power * 10.0 ** (-self.snr_db / 10.0)
            if not math.isclose(self.Pv, expect, rel_tol=1e-9):
                raise ValueError(
                    f"Pv={self.Pv} inconsistent with snr_db={self.snr_db} "
                    f"(expected {expect})")

    @classmethod
    @_in_float_range
    def from_snr(cls, Px: float, snr_db: float, Q: int,
                 sigma_s: float = 1.0) -> "SignalModel":
        """Derive Pv from an SNR taken against the ensemble output power
        ``Px * Q * sigma_s^2`` of Q non-zero N(0, sigma_s^2) taps; it is
        undefined for an all-zero system (Q = 0).  Any other noise is an
        explicit ``Pv``."""
        ref = Px * Q * sigma_s ** 2
        if Px > 0 and Q == 0:               # Px <= 0 fails below
            raise ValueError("an SNR is undefined for an all-zero system; "
                             "give Pv explicitly")
        Pv = ref * 10.0 ** (-snr_db / 10.0)
        if Px > 0 and Pv == 0:              # ref or Pv underflowed
            raise ParameterRangeError("Pv underflows to 0")
        return cls(Px=Px, Pv=Pv, snr_db=snr_db, ref_power=ref)


@dataclass(frozen=True)
class TapClassification:
    """Index partition of the coefficients by magnitude: ``large``
    (at or beyond the attraction-range edge), ``small`` (non-zero,
    strictly inside), ``zero``."""

    large: np.ndarray
    small: np.ndarray
    zero: np.ndarray


class DeltaSet(NamedTuple):
    """The four step-size contraction constants that appear throughout
    the steady-state and transient formulas."""

    delta_L: float
    delta_Q: float
    delta_0: float
    delta_0_prime: float


@dataclass(frozen=True)
class AttractionStrengths:
    """What the closed forms read of a system: the aggregate attractor
    action on the small (non-zero, in-range) coefficients, ``G`` summing
    g(s_k)^2 and ``G_prime`` summing s_k*g(s_k) (never positive — the
    attractor opposes the coefficient), and the energy ``norm_sq`` =
    ||s||^2, the starting deviation of zero-initialized weights.
    ``alpha`` is the attractor shape :func:`strengths` built them for;
    the closed forms refuse them at another alpha (None: not checked)."""

    G: float
    G_prime: float
    norm_sq: float
    alpha: float | None = None


@dataclass(frozen=True)
class BetaSet:
    """Constants of the steady-state MSD expression in the attraction
    weight.  ``diff`` and ``summ`` store beta1 -+ beta2 computed through
    cancellation-free identities (beta1 and beta2 can agree to many
    digits, so ``beta1 - beta2`` must never be formed literally)."""

    beta0: float
    beta1: float
    beta2: float
    beta3: float
    diff: float   # beta1 - beta2, exact rearrangement
    summ: float   # beta1 + beta2, exact rearrangement


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady-state summary at one operating point.  The per-tap bias
    is :func:`steady_bias` of the coefficient vector."""

    omega: float
    d_inf: float
    kappa_opt: float
    d_min: float
    kappa_outperform_bound: float
    d_lms: float


@dataclass(frozen=True)
class ZASteadyReport:
    """Steady state of the sign-attractor (ZA) variant."""

    d_inf_za: float
    gamma: float
    y: float
    rho_opt: float


@dataclass(frozen=True)
class ConvergenceModel:
    """Transient MSD model: a linear two-state recursion (total deviation
    and zero-tap deviation) driven by a geometric forcing term, plus its
    closed-form solution  D_n = c1*lam1^n + c2*lam2^n + c3*lam3^n + d_inf.

    ``lambda1`` is the dominant (largest) of the two recursion eigenvalues
    so that the attraction-free limit keeps only the ``c1`` mode.  Of the
    recursion it keeps the diagonal: ``a00`` = 1 - mu*Px*delta_L is the
    plain-LMS rate, ``a11`` the zero-tap one.  ``L``, ``Px`` and
    ``s_norm_sq`` (the starting deviation) are kept for
    :func:`acceleration_check`.
    """

    a00: float
    a11: float
    lambda1: float
    lambda2: float
    lambda3: float
    c1: float
    c2: float
    c3: float
    d_inf: float
    L: int
    Px: float
    s_norm_sq: float

    def msd(self, n) -> np.ndarray | float:
        """Closed-form learning curve at iteration(s) n."""
        n = np.asarray(n)
        out = (self.d_inf + self.c1 * self.lambda1 ** n
               + self.c2 * self.lambda2 ** n + self.c3 * self.lambda3 ** n)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class AccelerationReport:
    sufficient_mu: bool
    sufficient_cs_empty: bool
    actual_faster: bool
    l0_rate: float
    lms_rate: float


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def deltas(L: int, Q: int, mu: float, Px: float) -> DeltaSet:
    """The four contraction constants for lengths L, Q and step mu."""
    if L < 1 or not 0 <= Q <= L:
        raise ValueError(f"need L >= 1 and 0 <= Q <= L, got L={L}, Q={Q}")
    if not (mu > 0 and Px > 0):
        raise ValueError("mu and Px must be > 0")
    return DeltaSet(
        delta_L=2.0 - (L + 2) * mu * Px,
        delta_Q=2.0 - (Q + 2) * mu * Px,
        delta_0=1.0 - mu * Px,
        delta_0_prime=2.0 - mu * Px,
    )


def classify(s, alpha: float) -> TapClassification:
    """Partition coefficients into large / small / zero relative to the
    attraction-range edge 1/alpha.  The boundary |s_k| = 1/alpha counts
    as large."""
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    edge = 1.0 / alpha
    return TapClassification(
        large=np.flatnonzero(a >= edge),
        small=np.flatnonzero((a > 0) & (a < edge)),
        zero=np.flatnonzero(a == 0),
    )


@functools.cache
def _legendre_rule():
    """The 128-node Gauss-Legendre rule on [-1, 1], built once."""
    x, w = leggauss(128)
    x.flags.writeable = w.flags.writeable = False   # shared by every call
    return x, w


@_in_float_range
def strengths(alpha: float, s=None, Q: int | None = None,
              sigma_s: float = 1.0) -> AttractionStrengths:
    """Attraction strengths and energy of a system, exact or in
    expectation; the one place the closed forms get either from.

    Exact mode (``s`` given): sum g(s_k)^2 and s_k*g(s_k) over the small
    coefficients of ``s``; the energy is sum s_k^2.

    Expected mode (``Q`` given): model the Q non-zero coefficients as
    N(0, sigma_s^2) and return Q-scaled expectations of the same
    quantities restricted to the attraction range, and the energy
    Q*sigma_s^2.  The integrals run over [0, min(1/alpha, 16*sigma_s)]
    with 128-node Gauss-Legendre quadrature (both integrands are even;
    past 16 sigma the Gaussian mass is below 1e-56, and truncating there
    keeps the nodes where the density lives when 1/alpha is huge).
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if (s is None) == (Q is None):
        raise ValueError("give exactly one of s (exact) or Q (expected)")
    if s is not None:
        s = np.asarray(s, dtype=float)
        small = s[classify(s, alpha).small]
        gs = attract(Variant.L0LMS, small, alpha)
        return AttractionStrengths(G=float(np.sum(gs * gs)),
                                   G_prime=float(np.sum(small * gs)),
                                   norm_sq=float(s @ s), alpha=alpha)
    if Q == 0:
        return AttractionStrengths(G=0.0, G_prime=0.0, norm_sq=0.0,
                                   alpha=alpha)
    x, w = _legendre_rule()
    c = min(1.0 / alpha, 16.0 * sigma_s)
    t = 0.5 * c * (x + 1.0)
    ww = 0.5 * c * w
    pdf = np.exp(-0.5 * (t / sigma_s) ** 2) / (sigma_s * math.sqrt(2 * math.pi))
    gt = attract(Variant.L0LMS, t, alpha)
    G = 2.0 * Q * float(np.sum(ww * gt * gt * pdf))
    Gp = 2.0 * Q * float(np.sum(ww * t * gt * pdf))
    return AttractionStrengths(G=G, G_prime=Gp, norm_sq=Q * sigma_s ** 2,
                               alpha=alpha)


def mu_max(L: int, Px: float) -> float:
    """Upper mean-square-stability limit for the step size."""
    return 2.0 / ((L + 2) * Px)


def _require_stable(L, mu, Px):
    lim = mu_max(L, Px)
    if not 0.0 < mu < lim:
        raise StabilityError(
            f"mu={mu} outside the stable range (0, {lim})")


def _lms_steady(d: DeltaSet, L: int, mu: float, Pv: float) -> float:
    """Plain-LMS steady MSD mu*Pv*L/delta_L, the reference every l0
    steady form is measured against."""
    return mu * Pv * L / d.delta_L


def lms_theory(L: int, mu: float, Px: float, Pv: float, s=None,
               n=None):
    """Plain-LMS steady MSD, or the instantaneous MSD at iteration n.

    Without ``n``: the steady-state value mu*Pv*L/delta_L.  With ``n``
    (scalar or array): the single-mode geometric learning curve starting
    from ||s||^2, which requires ``s``.
    """
    _require_stable(L, mu, Px)
    d = deltas(L, 0, mu, Px)
    d_inf = _lms_steady(d, L, mu, Pv)
    if n is None:
        return d_inf
    if s is None:
        raise ValueError("the transient value needs s (for ||s||^2)")
    s = np.asarray(s, dtype=float)
    lam = 1.0 - mu * Px * d.delta_L
    n = np.asarray(n)
    out = d_inf + (float(s @ s) - d_inf) * lam ** n
    return out if out.ndim else float(out)


def _l0_kappa(params: AlgoParams, name: str) -> float:
    """The variant rule of every entry point that reads an AlgoParams:
    the l0 weight is ``kappa`` for the l0 variant and 0 for plain LMS
    (its kappa = 0 case); ZA and RZA have no l0 model and raise."""
    if params.variant in (Variant.ZALMS, Variant.RZALMS):
        raise ValueError(f"{name} applies to the l0 variant and plain LMS, "
                         f"got {params.variant.value}")
    return params.kappa if params.variant is Variant.L0LMS else 0.0


@_in_float_range
def steady_bias(s, params: AlgoParams, Px: float, n=None) -> np.ndarray:
    """Mean weight error per tap for the l0 variant.  Without ``n``, the
    steady bias b: kappa*g(s_k)/(mu*Px) on small coefficients, zero on
    large and zero coefficients (those are unbiased).  With ``n`` (scalar
    or array), the error at step n of zero-initialized weights,
    b - (s + b)*(1 - mu*Px)^n, of shape ``n.shape + s.shape``.

    Valid when the attraction is a small perturbation of the gradient
    step; warns when 2*alpha^2*kappa >= 0.1*mu*Px.
    """
    kappa = _l0_kappa(params, "steady_bias")
    mu, alpha = params.mu, params.alpha
    if 2.0 * alpha ** 2 * kappa >= 0.1 * mu * Px:
        warnings.warn(
            "attraction strength is not small against the gradient step "
            f"(2*alpha^2*kappa = {2*alpha**2*kappa:.3e} vs "
            f"0.1*mu*Px = {0.1*mu*Px:.3e}); bias formula degrades",
            RuntimeWarning, stacklevel=3)
    s = np.asarray(s, dtype=float)
    small = classify(s, alpha).small
    out = np.zeros_like(s)
    out[small] = kappa * attract(Variant.L0LMS, s[small], alpha) / (mu * Px)
    if n is None:
        return out
    return out - (s + out) * (1.0 - mu * Px) ** np.asarray(n)[..., None]


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

@_in_float_range
def betas(d: DeltaSet, st: AttractionStrengths, L: int, Q: int, mu: float,
          alpha: float, Px: float, Pv: float) -> BetaSet:
    """Constants of the steady-state MSD as a function of the attraction
    weight, with cancellation-free combinations precomputed."""
    DL, DQ, D0, D0p = d
    G = st.G
    b0 = mu * Px * D0p * DL * G \
        + 4 * alpha ** 2 * DQ * (mu * Px * DL + D0 * DQ / math.pi)
    b3 = 2 * mu ** 3 * Px ** 2 * Pv * d.delta_0 * d.delta_L / b0
    # beta1 = e1*(e2+e3+e4) and beta2 = 2*e1*sqrt(e2*e3), so beta1 -+ beta2
    # collapse to squares
    e1 = 1.0 / (mu ** 2 * Px ** 2 * DL)
    e2 = (L - Q) * b0 / (DL * DQ)
    e3 = 4 * alpha ** 2 * (L - Q) * D0 * DQ / (math.pi * DL)
    e4 = G * D0p * DL / DQ
    b1 = e1 * (e2 + e3 + e4)
    b2 = 2 * e1 * math.sqrt(e2 * e3)
    diff = e1 * ((math.sqrt(e2) - math.sqrt(e3)) ** 2 + e4)
    summ = e1 * ((math.sqrt(e2) + math.sqrt(e3)) ** 2 + e4)
    return BetaSet(beta0=b0, beta1=b1, beta2=b2, beta3=b3,
                   diff=diff, summ=summ)


@_in_float_range
def solve_omega(d: DeltaSet, st: AttractionStrengths, L: int, Q: int,
                mu: float, kappa: float, alpha: float, Px: float,
                Pv: float) -> float:
    """RMS deviation scale of the zero coefficients in steady state.

    Unique non-negative root of the quadratic power-balance equation;
    the leading coefficient is positive and the constant term is
    non-positive, so the root exists.  Evaluated as -2c/(b + sqrt(b^2 -
    4ac)) to avoid subtracting nearly equal terms when kappa is small.
    """
    _require_stable(L, mu, Px)
    DL, DQ, D0, D0p = d
    a = 2 * mu * Px * D0 * DL
    b = 8 * alpha * kappa * D0 * DQ / math.sqrt(2 * math.pi)
    c = -(2 * mu ** 2 * Px * Pv * D0 + 4 * alpha ** 2 * kappa ** 2 * DQ
          + kappa ** 2 * D0p * st.G)
    if b == 0.0 and c == 0.0:
        return 0.0
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ConsistencyError("power-balance quadratic has no real root")
    return -2 * c / (b + math.sqrt(disc))


def _check_alpha(st: AttractionStrengths, alpha: float) -> None:
    if st.alpha is not None and st.alpha != alpha:
        raise ValueError(f"strengths built for alpha={st.alpha:g} used at "
                         f"alpha={alpha:g}")


def _strengths_of(system_or_strengths, alpha):
    """Normalize the (system | (L, Q, strengths)) polymorphic argument to
    ``(L, Q, strengths)``; a system, its coefficient array, gives its
    exact strengths.  Strengths built for another alpha raise."""
    if isinstance(system_or_strengths, np.ndarray):
        s = system_or_strengths
        return s.shape[-1], int(np.count_nonzero(s)), strengths(alpha, s=s)
    L, Q, st = system_or_strengths
    if not isinstance(st, AttractionStrengths):
        raise TypeError("expected (L, Q, AttractionStrengths)")
    _check_alpha(st, alpha)
    return int(L), int(Q), st


def _d_inf_beta(b: BetaSet, d_lms: float, kappa: float) -> float:
    # d_lms + beta1*k^2 - beta2*k*sqrt(k^2+beta3), rearranged so the
    # near-cancelling pair enters only through the exact `diff`.
    extra = kappa * (b.diff * kappa
                     - b.beta2 * b.beta3 / (math.sqrt(kappa ** 2 + b.beta3)
                                            + kappa))
    return d_lms + extra


def _require_agreement(forms: str, primary: float, other: float,
                       digits_lost: bool) -> None:
    """The dual-route check: two routes agree to relative 1e-9.  When the
    primary route has lost its digits (``digits_lost``), a disagreement
    is the float range's, not the forms'."""
    scale = max(abs(primary), abs(other))
    if scale > 0 and abs(primary - other) > 1e-9 * scale:
        if digits_lost:
            raise ParameterRangeError(f"{forms} lost their digits")
        raise ConsistencyError(f"{forms} disagree: {primary!r} vs {other!r}")


def _low_snr_warning(signal: SignalModel):
    if signal.snr_db is not None and signal.snr_db < 30:
        warnings.warn(
            f"SNR {signal.snr_db} dB is low; the steady-state and "
            "transient formulas degrade noticeably below 30 dB",
            RuntimeWarning, stacklevel=4)


@_in_float_range
def l0_steady_msd(system_or_strengths, params: AlgoParams,
                  signal: SignalModel) -> SteadyStateReport:
    """Steady-state MSD of the l0 variant, with optimal-weight summary.

    Accepts either a system's coefficient array (exact strengths) or a tuple
    ``(L, Q, AttractionStrengths)`` (typically expected strengths).  The
    primary value is computed from the weight-explicit form and
    cross-checked against the power-balance form; disagreement beyond
    relative 1e-9 raises ConsistencyError.  The per-tap bias of a known
    system is :func:`steady_bias`.
    """
    kappa = _l0_kappa(params, "l0_steady_msd")
    L, Q, st = _strengths_of(system_or_strengths, params.alpha)
    _require_stable(L, params.mu, signal.Px)
    _low_snr_warning(signal)
    mu, alpha = params.mu, params.alpha
    Px, Pv = signal.Px, signal.Pv
    d = deltas(L, Q, mu, Px)
    b = betas(d, st, L, Q, mu, alpha, Px, Pv)
    d_lms = _lms_steady(d, L, mu, Pv)
    d_inf = _d_inf_beta(b, d_lms, kappa)

    # independent route: power balance in the zero-tap deviation scale
    om = solve_omega(d, st, L, Q, mu, kappa, alpha, Px, Pv)
    DL, DQ, D0, D0p = d
    d_inf_om = (2 * (L - Q) * D0 * om ** 2 / DQ + Q * mu * Pv / DQ
                + kappa ** 2 * D0p * st.G / (mu ** 2 * Px ** 2 * DQ))
    # beta1 - beta2 below one rounding unit of beta1 (a tiny mu with no
    # small taps, sqrt(e2) and sqrt(e3) agreeing to more digits than a
    # float holds) is known to fewer digits than the check asks
    _require_agreement("steady-state forms", d_inf, d_inf_om,
                       b.diff < np.finfo(float).eps * b.beta1)

    ko, dmin, bound = optimal_kappa(b, d, L, mu, Pv)
    return SteadyStateReport(omega=om, d_inf=d_inf,
                             kappa_opt=ko, d_min=dmin,
                             kappa_outperform_bound=bound, d_lms=d_lms)


def optimal_kappa(b: BetaSet, d: DeltaSet, L: int, mu: float,
                  Pv: float):
    """Minimizing attraction weight, its MSD, and the largest weight that
    still beats plain LMS.

    Returns ``(kappa_opt, d_min, kappa_outperform_bound)``.  In the
    degenerate case (no small coefficients and fully dense, beta2 = 0 or
    beta1 <= beta2) the optimum collapses to plain LMS: (0, d_lms, 0).
    """
    d_lms = _lms_steady(d, L, mu, Pv)
    if b.beta2 == 0.0 or b.diff <= 0.0:
        return 0.0, d_lms, 0.0
    # kappa_opt = sqrt(beta3)/2 * (r^(1/4) - r^(-1/4)), r = summ/diff,
    # evaluated as a hyperbolic half-angle so small ratios keep digits.
    t = b.beta2 / b.beta1
    ko = math.sqrt(b.beta3) * math.sinh(0.5 * math.atanh(t))
    root = math.sqrt(b.diff * b.summ)              # sqrt(beta1^2 - beta2^2)
    dmin = d_lms - 0.5 * b.beta3 * b.beta2 ** 2 / (b.beta1 + root)
    bound = b.beta2 * math.sqrt(b.beta3 / (b.diff * b.summ))
    return ko, dmin, bound


@_in_float_range
def approx_min_msd(L: int, Q: int, params: AlgoParams,
                   signal: SignalModel, st: AttractionStrengths) -> float:
    """Simplified minimum-MSD approximations, chosen by Q.

    Q = 0: the all-zero system, exact coincidence with the full optimum
    and independent of alpha and ``st``.  Q > 0: valid for very sparse
    systems at small step size (warns when Q/L or (Q+2)*mu*Px/2 exceeds
    0.1); refuses strengths built for another alpha.
    """
    mu, alpha = params.mu, params.alpha
    Px, Pv = signal.Px, signal.Pv
    _require_stable(L, mu, Px)
    d = deltas(L, Q, mu, Px)
    DL, DQ, D0, D0p = d
    d_lms = _lms_steady(d, L, mu, Pv)
    if Q == 0:
        return d_lms - 2 * mu * Pv * L * D0 ** 2 \
            / (2 * DL * D0 ** 2 + math.pi * mu * Px * DL ** 2)
    _check_alpha(st, alpha)
    if Q / L > 0.1 or (Q + 2) * mu * Px / 2 > 0.1:
        warnings.warn(
            f"sparse approximation stretched: Q/L={Q/L:.3f}, "
            f"(Q+2)*mu*Px/2={(Q+2)*mu*Px/2:.3f} (want both <= 0.1)",
            RuntimeWarning, stacklevel=3)
    eta5 = 4 * alpha ** 2 * mu * Px * L + 2 * st.G
    eta6 = 16 * alpha ** 2 * L / (math.pi * DL)
    root = math.sqrt(eta5 ** 2 + 32 * alpha ** 2 * L * st.G / math.pi)
    return d_lms * (1.0 - eta6 / (eta5 + eta6 + root))


def _rho_opt(L: int, Q: int, mu: float, Px: float, Pv: float) -> float:
    """The ZA weight rho_opt: the l0-optimal weight transported through
    the small-alpha limit (2*alpha*kappa held fixed, per-tap strength
    4*alpha^2 per non-zero coefficient)."""
    _require_stable(L, mu, Px)
    d = deltas(L, Q, mu, Px)
    alpha_lim = 1e-5
    st_lim = AttractionStrengths(G=4 * alpha_lim ** 2 * Q, G_prime=0.0,
                                 norm_sq=math.nan)   # betas reads no energy
    ko, _, _ = optimal_kappa(betas(d, st_lim, L, Q, mu, alpha_lim, Px, Pv),
                             d, L, mu, Pv)
    return 2 * alpha_lim * ko


@_in_float_range
def za_steady_msd(L: int, Q: int, mu: float, rho: float, Px: float,
                  Pv: float) -> ZASteadyReport:
    """Steady-state MSD of the sign-attractor (ZA) variant.

    Primary value from the explicit closed form; cross-checked against
    the quadratic-in-y route (the historical derivation for this
    algorithm).  ``rho_opt`` is the small-alpha limit of the l0 optimum
    (:func:`_rho_opt`).
    """
    _require_stable(L, mu, Px)
    if rho < 0:
        raise ValueError("rho must be >= 0")
    # rho_opt first: its beta2^2 overflows from mu*Px ~ 1e-81 down
    rho_opt = _rho_opt(L, Q, mu, Px, Pv)
    DL, DQ, D0, D0p = deltas(L, Q, mu, Px)
    gamma = 8 * rho ** 2 * DQ ** 2 * D0 ** 2 / math.pi \
        + 16 * mu * Px * DL * D0 ** 2 * (rho ** 2 * (Q + 1)
                                         + mu ** 2 * Px * Pv)
    # The sqrt(gamma) term nearly cancels the term after it; multiplying
    # by the conjugate turns their difference into a single-signed sum.
    pair_hi = 2 * rho * D0 * DQ / math.pi + math.sqrt(gamma / (2 * math.pi))
    pair_num = (8 / math.pi * mu * Px * DL * D0 ** 2
                * (rho ** 2 * (Q + 1) + mu ** 2 * Px * Pv))
    lms_num = (rho ** 2 * (mu * L * Px + 2 * Q * D0)
               + L * mu ** 3 * Px ** 2 * Pv)
    lms_den = mu ** 2 * Px ** 2 * DL
    # the form's positive products: one below the normal float range has
    # lost digits to underflow
    products = [pair_num, lms_num, lms_den]
    attract_gain = 0.0
    if rho != 0.0:
        gain_den = pair_hi * mu ** 2 * Px ** 2 * DL ** 2
        attract_gain = -(L - Q) * rho * pair_num / gain_den
        products += [rho * pair_num, gain_den]
    d_za = attract_gain + lms_num / lms_den

    # independent route: quadratic in the zero-tap deviation scale y.
    # The route is badly conditioned in binary64 (the MSD can sit many
    # orders below its intermediate terms), so the reference is computed
    # in decimal, 40 digits or, below mu*Px = 1e-10, 30 more than the
    # decades of mu*Px (it needs about 20 more); the consistency gate then
    # probes the closed form above, not the reference's rounding.
    with decimal.localcontext() as ctx:
        ctx.prec = max(40, 30 + math.ceil(-math.log10(mu * Px)))
        pi_d = decimal.Decimal("3.141592653589793238462643383279502884197")
        mu_d, rho_d = decimal.Decimal(mu), decimal.Decimal(rho)
        px_d, pv_d = decimal.Decimal(Px), decimal.Decimal(Pv)
        dl_d = 2 - (L + 2) * mu_d * px_d
        d0_d = 1 - mu_d * px_d
        b_d = (L - Q) * rho_d * (2 * d0_d / pi_d).sqrt()
        c_d = (-(decimal.Decimal(L - 2 * Q) / (2 * pi_d) + Q + 1)
               * d0_d * rho_d ** 2 / (mu_d * px_d)
               - d0_d ** 2 * rho_d ** 2 / (pi_d * mu_d ** 2 * px_d ** 2)
               - mu_d * pv_d * d0_d)
        y_d = (-b_d + (b_d * b_d - 4 * dl_d * c_d).sqrt()) / (2 * dl_d)
        t_d = (pi_d * mu_d * px_d + d0_d) * rho_d ** 2 \
            / (2 * pi_d * mu_d ** 2 * px_d ** 2)
        dy_d = 2 / (mu_d * px_d) * (y_d * y_d - t_d) - pv_d / px_d
    y, d_y = float(y_d), float(dy_d)
    _require_agreement("ZA steady-state forms", d_za, d_y,
                       min(products) < np.finfo(float).tiny)
    return ZASteadyReport(d_inf_za=d_za, gamma=gamma, y=y, rho_opt=rho_opt)


# ---------------------------------------------------------------------------
# transient
# ---------------------------------------------------------------------------

def _transient_pieces(system_or_strengths, params: AlgoParams,
                      signal: SignalModel, name: str):
    """The point both transient entry points read: ``(L, strengths,
    deltas, A, (b00, b01, b1))`` with ``A`` the 2x2 recursion matrix and
    the b's its forcing, b01 the part that decays as delta_0^n."""
    kappa = _l0_kappa(params, name)
    L, Q, st = _strengths_of(system_or_strengths, params.alpha)
    mu, alpha = params.mu, params.alpha
    Px, Pv = signal.Px, signal.Pv
    _require_stable(L, mu, Px)
    d = deltas(L, Q, mu, Px)
    DL, DQ, D0, D0p = d
    om = solve_omega(d, st, L, Q, mu, kappa, alpha, Px, Pv)
    ak_w = alpha * kappa / om if kappa > 0 else 0.0
    a00 = 1.0 - mu * Px * DL
    a01 = -_SQRT_8_PI * ak_w * D0
    a10 = (L - Q) * mu ** 2 * Px ** 2
    a11 = 1.0 - 2 * mu * Px * D0 - _SQRT_8_PI * ak_w * D0
    b00 = (L * mu ** 2 * Px * Pv
           + (L - Q) * (4 * alpha ** 2 * kappa ** 2
                        - _SQRT_8_PI * alpha * kappa * om * D0)
           + kappa ** 2 * D0p * st.G / (mu * Px))
    b01 = -2 * kappa * D0 * (kappa * st.G / (mu * Px) + st.G_prime)
    b1 = (L - Q) * (mu ** 2 * Px * Pv + 4 * alpha ** 2 * kappa ** 2
                    - _SQRT_8_PI * alpha * kappa * om * D0)
    return L, st, d, np.array([[a00, a01], [a10, a11]]), (b00, b01, b1)


@_in_float_range
def convergence_model(system_or_strengths, params: AlgoParams,
                      signal: SignalModel) -> ConvergenceModel:
    """Build the closed-form transient model.

    The two recursion eigenvalues are computed from the cancellation-free
    discriminant (a00 - a11)^2 + 4*a01*a10 (analytically equal to
    tr^2 - 4*det); ``lambda1`` is the larger.  The curve coefficients
    c1, c2 come from matching the first two exact MSD values, c3 from the
    residue of the geometric forcing mode.  Near-coincident modes raise
    DegenerateSpectrumError (the step-by-step recursion remains valid in
    that regime — use :func:`exact_recursion`).
    """
    L, st, d, A, (b00, b01, b1) = _transient_pieces(
        system_or_strengths, params, signal, "convergence_model")
    _low_snr_warning(signal)
    (a00, a01), (a10, a11) = A.tolist()
    tr = a00 + a11
    disc_sq = (a00 - a11) ** 2 + 4 * a01 * a10
    disc = math.sqrt(max(disc_sq, 0.0))
    lam1 = 0.5 * (tr + disc)
    lam2 = 0.5 * (tr - disc)
    lam3 = d.delta_0

    if abs(lam1 - lam2) < 1e-12 or abs(lam1 - lam3) < 1e-12 \
            or abs(lam2 - lam3) < 1e-12:
        raise DegenerateSpectrumError(
            f"transient modes nearly coincide (lambdas = {lam1}, {lam2}, "
            f"{lam3}); evaluate the recursion directly instead")

    d_inf = float(np.linalg.solve(np.eye(2) - A,
                                  np.array([b00, b1]))[0])
    c3 = (lam3 - a11) * b01 / ((lam3 - lam1) * (lam3 - lam2))
    D0_ = st.norm_sq
    D1_ = a00 * D0_ + b00 + b01           # zero-tap deviation starts at 0
    M = np.array([[1.0, 1.0], [lam1, lam2]])
    cond = float(np.linalg.cond(M))
    if cond > 1e12:
        raise DegenerateSpectrumError(
            f"mode-matching system is ill-conditioned (cond = {cond:.3e})")
    c1, c2 = np.linalg.solve(M, np.array([D0_ - c3 - d_inf,
                                          D1_ - c3 * lam3 - d_inf]))
    return ConvergenceModel(
        a00=a00, a11=a11, lambda1=lam1, lambda2=lam2, lambda3=lam3,
        c1=float(c1), c2=float(c2), c3=float(c3), d_inf=d_inf,
        L=L, Px=signal.Px, s_norm_sq=st.norm_sq)


@_in_float_range
def exact_recursion(system_or_strengths, params: AlgoParams,
                    signal: SignalModel, n_max: int) -> np.ndarray:
    """Iterate the two-state transient recursion exactly.

    Returns an ``(n_max+1, 2)`` array of (total deviation, zero-tap
    deviation) starting from (||s||^2, 0).  This is the ground truth the
    closed-form curve must reproduce, and it stays valid when the closed
    form degenerates.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _, st, d, A, (b00, b01, b1) = _transient_pieces(
        system_or_strengths, params, signal, "exact_recursion")
    u = np.array([st.norm_sq, 0.0])
    out = np.empty((n_max + 1, 2))
    out[0] = u
    p3 = 1.0
    lam3 = d.delta_0
    for n in range(n_max):
        u = A @ u + np.array([b00 + b01 * p3, b1])
        p3 *= lam3
        out[n + 1] = u
    return out


# cells of the zero-tap grid on w >= 0; at the benchmark point the curve
# moves by at most 0.05 dB against a 1201-cell grid
_FP_CELLS = 201


def _l0_g_moments(mean, sd, alpha):
    """E[g], E[w*g] and E[g^2] of the l0 attractor for w ~ N(mean, sd^2).

    g is 2*alpha^2*w - 2*alpha*sgn(w) on [-1/alpha, 1/alpha] and zero
    outside, so each moment combines the truncated-Gaussian partial
    moments over [-1/alpha, 0] and [0, 1/alpha].  They are differences of
    F_j(x) = E[w^j; w < x] taken at x = -1/alpha, 0, 1/alpha.  Needs
    sd > 0.
    """
    from scipy.special import ndtr

    x = np.array([[-1.0 / alpha], [0.0], [1.0 / alpha]])
    z = (x - mean) / sd
    phi = sd * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    F0 = ndtr(z)
    F1 = mean * F0 - phi
    F2 = (mean * mean + sd * sd) * F0 - (mean + x) * phi
    m1 = F1[2] - F1[0]                      # E[w] over the range
    abs_m1 = F1[2] - 2 * F1[1] + F1[0]      # E[|w|] over the range
    m2 = F2[2] - F2[0]
    eg = 2 * alpha ** 2 * m1 - 2 * alpha * (F0[2] - 2 * F0[1] + F0[0])
    ewg = 2 * alpha ** 2 * m2 - 2 * alpha * abs_m1
    egg = (4 * alpha ** 4 * m2 - 8 * alpha ** 3 * abs_m1
           + 4 * alpha ** 2 * (F0[2] - F0[0]))
    return eg, ewg, egg


class _ZeroTapGrid:
    """Finite-volume grid for the zero-tap law of each system and weight.

    The law is symmetric, so the grid holds the law of |w|: cells on
    w >= 0 with a zero-flux face at 0, the first cell centred on 0.
    Cells are uniform in u with w = w_in*sinh(u): spacing w_in*du near 0,
    relative spacing du further out.  w_in resolves the narrower of the
    noise-only zero-tap spread and the decay length of the density peak
    that the sign term builds at 0; w_max covers a dozen plain-LMS
    spreads at the largest MSD the run can reach, and the whole
    attraction range.
    """

    def __init__(self, systems, kappa, mu, alpha, Px, Pv):
        one_minus_rho = 2 * mu * Px * (1.0 - mu * Px)
        sd_lo = math.sqrt(mu ** 2 * Px * Pv / one_minus_rho)
        w_in, u_max = [], []
        for s, k in zip(systems, kappa):
            peak = mu ** 2 * Px * Pv / (4 * alpha * k)
            d_max = max(float(s @ s), lms_theory(len(s), mu, Px, Pv))
            sd_hi = math.sqrt(mu ** 2 * Px * (Px * d_max + Pv) / one_minus_rho)
            w_in.append(min(sd_lo, peak) / 20.0)
            u_max.append(math.asinh(max(12.0 * sd_hi, 2.0 / alpha) / w_in[-1]))
        kappa = np.asarray(kappa)[:, None]
        # centres at u = 0, du, 2du, ...; faces half-way between them
        u = np.arange(2 * _FP_CELLS) / (2 * _FP_CELLS - 1)
        w = np.array(w_in)[:, None] * np.sinh(u * np.array(u_max)[:, None])
        centres = w[:, ::2]
        faces = np.concatenate([np.zeros((len(systems), 1)), w[:, 1::2]],
                               axis=1)
        self.h = np.diff(faces, axis=1)
        dist = np.diff(centres, axis=1)
        f = faces[:, 1:-1]                  # interior faces
        a_f = -mu * Px * f + kappa * attract(Variant.L0LMS, f, alpha)
        g_c = attract(Variant.L0LMS, centres, alpha)
        a_c = -mu * Px * centres + kappa * g_c
        # B/2 at the centres is beta/2 + half_gamma_c, so the flux
        # coefficients are linear in beta: A = beta*k + A0, C = beta*k + C0
        half_gamma_c = mu ** 2 * Px ** 2 * centres ** 2 + 0.5 * a_c ** 2
        self.k = 0.5 / dist
        self.A0 = (half_gamma_c[:, :-1] + a_f * (centres[:, 1:] - f)) / dist
        self.C0 = (half_gamma_c[:, 1:] - a_f * (f - centres[:, :-1])) / dist
        self.moments = np.stack([centres * g_c, g_c * g_c])   # w*g, g^2
        T, N = self.h.shape
        self._upper = np.zeros((T, N))
        self._lower = np.zeros((T, N))

    def step(self, P, beta):
        """One implicit (backward Euler) step of the cell masses ``P``;
        ``beta`` is the w-independent part of the diffusion, one value per
        row.

        The flux J = a*p - d(B*p)/dw / 2 between neighbouring centres, with
        a the drift and B the diffusion, is J = A*p_left - C*p_right,
        differenced centrally.  Where that would make A or C negative (cell
        Peclet number above 2, in tails the grid does not resolve) the face
        gets the least extra diffusion that makes both non-negative, which
        keeps the density non-negative.
        """
        from scipy.linalg.lapack import dgtsv

        bk = beta[:, None] * self.k
        A = bk + self.A0
        C = bk + self.C0
        extra = np.maximum(-np.minimum(A, C), 0.0)
        A += extra
        C += extra
        diag = self.h.copy()
        diag[:, :-1] += A
        diag[:, 1:] += C
        np.negative(C, out=self._upper[:, :-1])
        np.negative(A, out=self._lower[:, 1:])
        _, _, _, p, info = dgtsv(self._lower.ravel()[1:], diag.ravel(),
                                 self._upper.ravel()[:-1], P.reshape(-1, 1),
                                 overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                                 overwrite_b=1)
        if info != 0:
            raise ArithmeticError(f"zero-tap density step failed (info={info})")
        return p.reshape(P.shape) * self.h


@_in_float_range
def tapwise_recursion(systems, params, signal: SignalModel,
                      n_max: int) -> np.ndarray:
    """Learning curve of each drawn system, tracked tap by tap.

    Assumes independent white Gaussian regressors of power ``Px`` (the
    i.i.d. input model of the harness), under which the error h_k = w_k -
    s_k of every tap obeys the exact moment recursions

        E[h_k]'   = (1 - mu*Px) E[h_k] + kappa E[g]
        E[h_k^2]' = (1 - 2mu*Px + 2mu^2*Px^2) E[h_k^2]
                    + mu^2*Px*(Px*D + Pv) + kappa^2 E[g^2]
                    + 2*kappa*(1 - mu*Px) E[h_k g]

    with g = g(w_k) and D the total MSD, the only coupling between taps.
    The recursions are closed by a law for each tap:

    * a non-zero tap is Gaussian with its tracked mean and variance, and
      its g-moments are truncated-Gaussian moments on [-1/alpha, 0] and
      [0, 1/alpha];
    * the zero taps share one symmetric law, evolved as a density on a
      sinh-spaced grid by an implicit finite-volume Fokker-Planck step
      with drift -mu*Px*w + kappa*g(w) and, as diffusion, the second
      moment of the one-step increment,
      mu^2*(2*Px^2*w^2 + Px*(Px*D_other + Pv)) plus the squared drift,
      where D_other is the MSD of all other taps.

    The paper's closed form (:func:`convergence_model`) instead linearizes
    the zero-tap attraction about its steady-state scale and assumes a
    Gaussian zero-tap law; this recursion drops both approximations.  At
    ``kappa = 0`` a row is plain LMS exactly: ``lms_theory(..., s=row)``.

    The diffusion step needs the sign term's move per step, 2*alpha*kappa,
    to be small against the per-step noise mu*sqrt(Px*(Px*D + Pv)) of a
    zero tap.  Where the move dominates, the zero taps hop across 0 by
    more than their spread and the model drifts from simulation (by 3 dB
    at a ratio of about 70 in one i.i.d. check; at the benchmark point the
    ratio is below 0.3, and a 20-trial i.i.d. run stays within 0.35 dB).

    Rows in, rows out, as in the Monte Carlo engine: ``systems`` is a
    ``(rows, L)`` array of coefficient arrays (one system is one row),
    and ``params`` one :class:`AlgoParams` for every row or a sequence of
    exactly one per row; they may differ in ``kappa`` only (l0 or plain
    LMS).  The result is ``(rows, n_max+1)``: the MSD of each row, entry
    0 being ||s||^2.  Rows are independent, bit for bit: batching only
    shares the per-step overhead.  Uses scipy, imported on call.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = np.atleast_2d(_as_systems(systems))
    R, L = rows.shape
    one = isinstance(params, AlgoParams)
    plist = [params] if one else list(params)
    if not plist or not all(isinstance(p, AlgoParams) for p in plist):
        raise TypeError("expected AlgoParams or a sequence of them")
    mu, alpha = plist[0].mu, plist[0].alpha
    if any((p.mu, p.alpha) != (mu, alpha) for p in plist):
        raise ValueError("batched params may differ in kappa only")
    if not one and len(plist) != R:
        raise TypeError(f"expected one AlgoParams per row, not {len(plist)}")
    kappa_r = np.broadcast_to(
        [_l0_kappa(p, "tapwise_recursion") for p in plist], R)
    Px, Pv = signal.Px, signal.Pv
    _require_stable(L, mu, Px)
    lam = 1.0 - mu * Px
    rho = 1.0 - 2 * mu * Px + 2 * mu ** 2 * Px ** 2

    # non-zero taps of all rows are flattened in row order, with owner[k]
    # the row of tap k
    owner, col = np.nonzero(rows)
    s_nz = rows[owner, col]
    kappa = kappa_r[owner]
    attracted = kappa > 0.0
    m = -s_nz                               # E[h] starts at -s
    v = np.zeros_like(s_nz)                 # Var[h]
    n_zero = (L - np.count_nonzero(rows, axis=1)).astype(float)
    S0 = np.zeros(R)                        # zero-tap second moment

    out = np.empty((R, n_max + 1))
    # rows with attraction carry a zero-tap density
    ar = np.flatnonzero(kappa_r > 0.0)
    kappa_a = kappa_r[ar]
    if ar.size:
        grid = _ZeroTapGrid(rows[ar], kappa_a, mu, alpha, Px, Pv)
        P = np.zeros((ar.size, _FP_CELLS))  # cell masses of the law of |w|
        P[:, 0] = 1.0                       # w_0 = 0 on every zero tap
    for n in range(n_max + 1):
        D = np.bincount(owner, weights=v + m * m, minlength=R) + n_zero * S0
        out[:, n] = D
        if n == n_max:
            break
        c = mu ** 2 * Px * (Px * D + Pv)
        v_new = rho * v + mu ** 2 * Px ** 2 * m * m + c[owner]
        m_new = lam * m
        S0_new = rho * S0 + c
        if ar.size:
            if n > 0:                       # every tap starts at g(0) = 0
                w_mean, sd = s_nz + m, np.sqrt(v)
                # taps more than 12 sd outside the range feel no attraction
                near = np.flatnonzero(attracted & (np.abs(w_mean) - 1.0 / alpha
                                                   < 12 * sd))
                w_near, k_near = w_mean[near], kappa[near]
                eg, ewg, egg = _l0_g_moments(w_near, sd[near], alpha)
                v_new[near] += (k_near ** 2 * (egg - eg * eg)
                                + 2 * k_near * lam * (ewg - w_near * eg))
                m_new[near] += k_near * eg
                ewg0, egg0 = np.einsum("kij,ij->ki", grid.moments, P)
                S0_new[ar] += kappa_a ** 2 * egg0 + 2 * kappa_a * lam * ewg0
            beta = mu ** 2 * Px * (Px * (D[ar] - S0[ar]) + Pv)
            P = grid.step(P, beta)
        m, v, S0 = m_new, v_new, S0_new
    return out


def acceleration_check(model: ConvergenceModel, params: AlgoParams,
                       classification: TapClassification) -> AccelerationReport:
    """Compare the transient decay rate against plain LMS at the same
    step size.

    ``sufficient_mu`` and ``sufficient_cs_empty`` are the two analytic
    sufficient conditions for strictly faster convergence; ``actual_faster``
    checks the realized spectrum (modes with vanishing coefficients are
    excluded, e.g. the third mode when no small coefficients exist).
    """
    lim = mu_max(model.L, model.Px)
    sufficient_mu = lim / 2 < params.mu < lim
    sufficient_cs_empty = classification.small.size == 0
    lms_rate = model.a00                      # 1 - mu*Px*delta_L
    cs = np.array([model.c1, model.c2, model.c3])
    lams = np.array([model.lambda1, model.lambda2, model.lambda3])
    scale = max(float(np.max(np.abs(cs))), model.s_norm_sq, 1e-300)
    active = np.abs(cs) > 1e-12 * scale
    l0_rate = float(np.max(np.abs(lams[active]))) if active.any() else 0.0
    return AccelerationReport(
        sufficient_mu=sufficient_mu,
        sufficient_cs_empty=sufficient_cs_empty,
        actual_faster=l0_rate < lms_rate,
        l0_rate=l0_rate,
        lms_rate=lms_rate)
