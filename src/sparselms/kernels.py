"""Filter kernels: one-iteration updates for LMS and its sparsity-aware
variants, plus the zero-point attractor functions they share.

``step`` and ``attract`` are pure functions of their inputs; a prepared
attractor writes only the two arrays it is given, ``out`` and a scratch,
and allocates nothing.  The regressor
convention is most-recent-first: ``x = [x_n, x_{n-1}, ..., x_{n-L+1}]``.
``step`` is the single-step reference that the batched Monte Carlo engine of
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

# Each attractor is prepared once for one alpha, one float output array
# ``out`` and one float ``scratch`` of out's shape: its preparer works out
# the constants and returns g(t), which writes g(t) of a float array t of
# that shape into ``out`` (neither array overlapping t), may overwrite
# ``scratch``, allocates nothing and returns ``out``.  The caller owns
# both arrays, so points that step one after another can share them.
# The constants are 0-d arrays, which a ufunc takes faster than a Python
# or numpy scalar (numpy 2.4).

def _attract_l0(alpha: float, out, scratch):
    """Piecewise-linear zero-point attractor: 2*alpha^2*t - 2*alpha*sgn(t)
    inside |t| <= 1/alpha, +0.0 outside (at +-inf and NaN too).  sgn(0) =
    0, and at the boundary |t| = 1/alpha the linear branch evaluates to 0,
    so the function is continuous.

    The linear branch runs on every tap, and a bit mask then clears the
    taps outside the range.  The bits of the non-negative floats, inf and
    NaN included, order as integers as the values do, so |t| <= 1/alpha
    exactly when bits(|t|) - (bits(1/alpha) + 1) is negative; an
    arithmetic shift by 63 turns that difference into all ones (keep) or
    all zeros (clear, leaving +0.0)."""
    a2, a1, edge, shift = map(np.array, (
        2.0 * alpha * alpha, 2.0 * alpha,
        np.float64(1.0 / alpha).view(np.int64) + 1, 63))
    # the scratch holds a1*sgn(t), then |t| and the mask
    mask, bits = scratch.view(np.int64), out.view(np.int64)

    def g(t):
        # the linear branch on every tap, sgn(t) into the scratch
        np.multiply(a2, t, out)
        np.subtract(out, np.multiply(a1, np.sign(t, scratch), scratch), out)
        # then the mask over the same scratch, from the bits of |t|
        np.abs(t, scratch)
        np.subtract(mask, edge, mask)
        np.right_shift(mask, shift, mask)
        np.bitwise_and(bits, mask, bits)
        return out
    return g


def _attract_za(alpha: float, out, scratch):
    """Sign attractor -sgn(t); alpha and the scratch are not read."""
    return lambda t: np.negative(np.sign(t, out), out)


def _attract_rza(alpha: float, out, scratch):
    """Reweighted sign attractor -sgn(t) / (1 + alpha*|t|); the scratch
    holds the denominator."""
    one, alpha, den = np.array(1.0), np.array(alpha), scratch

    def g(t):
        np.add(one, np.multiply(alpha, np.abs(t, den), den), den)
        return np.divide(np.negative(np.sign(t, out), out), den, out)
    return g


# variant -> its attractor's preparer ``prepare(alpha, out, scratch)``;
# plain LMS has none.  step(), the Monte Carlo engine and the theory read
# this one table.
ATTRACTORS = {
    Variant.L0LMS: _attract_l0,
    Variant.ZALMS: _attract_za,
    Variant.RZALMS: _attract_rza,
}


def attract(variant: Variant, t, alpha: float):
    """g(t) of the variant's attractor at ``alpha``, prepared for this one
    call: a new array of t's shape, a numpy float for a scalar t."""
    t = np.asarray(t, dtype=float)
    return ATTRACTORS[variant](alpha, np.empty(t.shape),
                               np.empty(t.shape))(t)[()]


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
    if params.variant in ATTRACTORS and params.kappa != 0.0:
        w_new += params.kappa * attract(params.variant, w, params.alpha)
    return w_new, e
