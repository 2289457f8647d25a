"""Filter kernels: one-iteration updates for LMS and its sparsity-aware
variants, plus the zero-point attractor functions they share.

All kernels are pure functions of their inputs.  The regressor convention
is most-recent-first: ``x = [x_n, x_{n-1}, ..., x_{n-L+1}]``.  ``step`` is
the single-step reference that the batched Monte Carlo engine of
:mod:`sparselms.simulate` is tested against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Variant(str, enum.Enum):
    """Algorithm selector."""

    LMS = "LMS"
    L0LMS = "L0LMS"
    ZALMS = "ZALMS"
    RZALMS = "RZALMS"


@dataclass(frozen=True)
class AlgoParams:
    """Algorithm variant plus its scalar controls, one vocabulary for all
    variants: the update adds ``kappa * g(w, alpha)``.

    Parameters
    ----------
    variant : Variant
        Which update rule to run.
    mu : float
        Step size, finite and > 0.
    kappa : float
        Zero-point attraction weight, finite and >= 0 (plain LMS ignores
        it).
    alpha : float
        Attractor shape, finite and > 0: the l0 attractor acts on
        ``|t| <= 1/alpha``; for RZALMS it is the reweighting constant
        epsilon.  ZA ignores it.
    """

    variant: Variant
    mu: float
    kappa: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 0, "
                             f"got {self.kappa}")
        if (self.variant in (Variant.L0LMS, Variant.RZALMS)
                and not 0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be finite and > 0, "
                             f"got {self.alpha}")


def _as_systems(systems, L: int | None = None) -> np.ndarray:
    """``systems`` as one float array: a system, its ``(L,)`` coefficient
    array, or a ``(rows, L)`` array of them, at the given L if any.  Other
    ranks, rows of several lengths and L < 1 raise ValueError."""
    try:
        s = np.asarray(systems, dtype=float)
    except ValueError as e:                 # rows of several lengths
        raise ValueError(f"systems must form one (rows, L) array: {e}") \
            from None
    if (s.ndim not in (1, 2) or s.shape[-1] < 1
            or L not in (None, s.shape[-1])):
        raise ValueError(f"expected one system or a (rows, L) array of them, "
                         f"L = {L or '1 or more'}, got shape {s.shape}")
    return s


# ---------------------------------------------------------------------------
# attractor functions
# ---------------------------------------------------------------------------

def _attract_l0(t, alpha: float, out=None):
    """Piecewise-linear zero-point attractor: 2*alpha^2*t - 2*alpha*sgn(t)
    inside |t| <= 1/alpha, zero outside.  sgn(0) = 0, and at the boundary
    |t| = 1/alpha the linear branch evaluates to 0, so the function is
    continuous.  Outside, t is replaced by 0 before the linear branch,
    which gives exactly +0.0 there."""
    t = np.where(np.abs(t) <= 1.0 / alpha, t, 0.0)
    out = np.multiply(2.0 * alpha * alpha, t, out=out)
    # not np.sign(t, out=t): in place it runs about 4x slower (numpy 2.4)
    out -= np.multiply(2.0 * alpha, np.sign(t), out=t)
    return out


# variant -> its raw attractor g(t, alpha, out=None); plain LMS has none.
# Given ``out`` (not overlapping t), each writes g(t) there, so the Monte
# Carlo engine evaluates it in place.  step() and the engine both read
# this one table.
ATTRACTORS = {
    Variant.L0LMS: _attract_l0,
    Variant.ZALMS: lambda t, alpha, out=None: np.negative(
        np.sign(t, out=out), out=out),
    Variant.RZALMS: lambda t, alpha, out=None: np.divide(
        np.negative(np.sign(t, out=out), out=out), 1.0 + alpha * np.abs(t),
        out=out),
}


def step(w, x, d: float, params: AlgoParams):
    """One adaptive-filter iteration.

    Computes the a-priori error ``e = d - x @ w`` and applies

        w' = w + mu*e*x + (attraction term evaluated at w)

    where the attraction term is ``kappa * g(w, alpha)`` with the
    variant's attractor g, absent for LMS.  The attractor
    argument is the current (pre-gradient) weight vector.  Pure: returns
    new weights, inputs untouched.

    Parameters
    ----------
    w : array
        Current tap weights.
    x : array
        Current regressor, most-recent-first, same length as ``w``.
    d : float
        Observed (noisy) output sample.
    params : AlgoParams

    Returns
    -------
    (ndarray, float)
        The updated weights and the a-priori error e.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != w.shape:
        raise ValueError(f"dimension mismatch: x{x.shape} vs w{w.shape}")
    if not (np.isfinite(d) and np.all(np.isfinite(x))):
        raise ValueError("non-finite input values")
    e = float(d - x @ w)
    w_new = w + (params.mu * e) * x
    g = ATTRACTORS.get(params.variant)
    if g is not None and params.kappa != 0.0:
        w_new += params.kappa * g(w, params.alpha)
    return w_new, e
