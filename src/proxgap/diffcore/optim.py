"""Adam updates for flat parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NonFiniteError

# The denominator's floor, one value for every Adam state.
EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("step counter must be nonnegative")
        if self.m.shape != self.v.shape:
            raise ValueError("moment vectors must have equal length")
        if not (np.isfinite(self.m).all() and np.isfinite(self.v).all()):
            raise ValueError("Adam moments must be finite")
        if np.any(self.v < 0):
            raise ValueError("second moments must be nonnegative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")


def adam_init(n_params: int, lr: float, beta1: float = 0.9, beta2: float = 0.999) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, lr, beta1, beta2)


def adam_step(params, grad, state: AdamState):
    """One bias-corrected Adam step in the direction that reduces the loss.

    Takes a flat parameter array and returns ``(new_params, new_state)``,
    the new parameters a fresh array.  Raises ``NonFiniteError('adam')`` when the
    new second moment is not finite: a gradient beyond about 1e154 squares to
    inf there, which would freeze its coordinate on this and every later step.
    """
    vals = np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != vals.shape:
        raise ValueError("gradient length does not match parameters")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    # every gradient entering m enters v squared, and a square overflows
    # first: m can only be non-finite where v is
    if not np.isfinite(v).all():
        raise NonFiniteError("adam")
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_vals = vals - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    # the state was checked where it entered, and one step keeps what
    # __post_init__ checks (m and v share a shape; v >= 0 as beta2 is in
    # [0, 1); t >= 1; finiteness, checked above); the next state skips the check
    new_state = object.__new__(AdamState)
    new_state.__dict__.update(state.__dict__, m=m, v=v, t=t)
    return new_vals, new_state

