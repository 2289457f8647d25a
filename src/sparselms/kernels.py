"""Filter kernels: one-iteration updates for LMS and its sparsity-aware
variants, plus the zero-point attractor functions they share.

All kernels are pure functions of their inputs.  The regressor convention
is most-recent-first: ``x = [x_n, x_{n-1}, ..., x_{n-L+1}]``.  ``step`` is
the single-step reference that the batched Monte Carlo engine of
:mod:`sparselms.simulate` is tested against.
"""

from __future__ import annotations

import enum
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
        Step size, > 0.
    kappa : float
        Zero-point attraction weight, >= 0 (plain LMS ignores it).
    alpha : float
        Attractor shape, > 0: the l0 attractor acts on ``|t| <= 1/alpha``;
        for RZALMS it is the reweighting constant epsilon.  ZA ignores it.
    """

    variant: Variant
    mu: float
    kappa: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if (self.variant in (Variant.L0LMS, Variant.RZALMS)
                and not self.alpha > 0):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


@dataclass
class FilterState:
    """Adaptive tap-weights plus the iteration counter.

    The weight vector length is fixed for the lifetime of the state and
    starts at all zeros (so the squared deviation at n=0 equals the
    squared norm of the unknown system).
    """

    w: np.ndarray
    n: int = 0

    @classmethod
    def zeros(cls, L: int) -> "FilterState":
        return cls(w=np.zeros(L), n=0)


@dataclass(frozen=True)
class SparseSystem:
    """The unknown impulse response: length L with exactly Q non-zeros."""

    s: np.ndarray
    L: int
    Q: int

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "s", s)
        if s.shape != (self.L,):
            raise ValueError(f"s has shape {s.shape}, expected ({self.L},)")
        nnz = int(np.count_nonzero(s))
        if nnz != self.Q:
            raise ValueError(f"s has {nnz} non-zeros, declared Q={self.Q}")

    @classmethod
    def from_vector(cls, s) -> "SparseSystem":
        s = np.asarray(s, dtype=float)
        return cls(s=s, L=s.size, Q=int(np.count_nonzero(s)))

    @property
    def norm_sq(self) -> float:
        return float(self.s @ self.s)


# ---------------------------------------------------------------------------
# attractor functions
# ---------------------------------------------------------------------------

def _attract_l0(t: np.ndarray, alpha: float) -> np.ndarray:
    """Piecewise-linear zero-point attractor: 2*alpha^2*t - 2*alpha*sgn(t)
    inside |t| <= 1/alpha, zero outside.  sgn(0) = 0, and at the boundary
    |t| = 1/alpha the linear branch evaluates to 0, so the function is
    continuous."""
    inside = np.abs(t) <= 1.0 / alpha
    return np.where(inside, 2.0 * alpha * alpha * t - 2.0 * alpha * np.sign(t), 0.0)


# variant -> its raw attractor g(t, alpha); plain LMS has none.
# attractor(), step() and the Monte Carlo engine all read this one table.
ATTRACTORS = {
    Variant.L0LMS: _attract_l0,
    Variant.ZALMS: lambda t, alpha: -np.sign(t),
    Variant.RZALMS: lambda t, alpha: -np.sign(t) / (1.0 + alpha * np.abs(t)),
}


def attractor(variant, t, params: AlgoParams):
    """Evaluate the zero-point attractor g(t) for one tap value (or an
    array of tap values).

    Returns the raw attractor output, not yet weighted by kappa.

    Raises
    ------
    ValueError
        For ``variant = LMS`` (plain LMS has no attractor).
    """
    g = ATTRACTORS.get(Variant(variant))
    if g is None:
        raise ValueError("no attractor for plain LMS")
    out = g(np.asarray(t, dtype=float), params.alpha)
    return out if out.ndim else float(out)


def step(state: FilterState, x, d: float, params: AlgoParams):
    """One adaptive-filter iteration.

    Computes the a-priori error ``e = d - x @ w`` and applies

        w' = w + mu*e*x + (attraction term evaluated at w)

    where the attraction term is ``kappa * g(w, alpha)`` with the
    variant's attractor g, absent for LMS.  The attractor
    argument is the current (pre-gradient) weight vector.  Pure: returns
    a new state, inputs untouched.

    Parameters
    ----------
    state : FilterState
    x : array
        Current regressor, most-recent-first, same length as ``state.w``.
    d : float
        Observed (noisy) output sample.
    params : AlgoParams

    Returns
    -------
    (FilterState, float)
        The updated state and the a-priori error e.
    """
    x = np.asarray(x, dtype=float)
    w = state.w
    if x.shape != w.shape:
        raise ValueError(f"dimension mismatch: x{x.shape} vs w{w.shape}")
    if not (np.isfinite(d) and np.all(np.isfinite(x))):
        raise ValueError("non-finite input values")
    e = float(d - x @ w)
    w_new = w + (params.mu * e) * x
    g = ATTRACTORS.get(params.variant)
    if g is not None and params.kappa != 0.0:
        w_new += params.kappa * g(w, params.alpha)
    return FilterState(w=w_new, n=state.n + 1), e
