"""Adam updates for flat parameter arrays and for lists of floats."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NonFiniteError

# The denominator's floor, one value for every Adam state.
EPS = 1e-8


@dataclass(frozen=True)
class AdamState:
    """Adam's moments, step counter and rates.  A GAN's moments are float64
    arrays; a toy search's are lists of floats, one per coordinate, from its
    first step on."""

    m: np.ndarray | list
    v: np.ndarray | list
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999

    def __post_init__(self):
        m, v = np.asarray(self.m), np.asarray(self.v)
        if self.t < 0:
            raise ValueError("step counter must be nonnegative")
        if m.shape != v.shape:
            raise ValueError("moment vectors must have equal length")
        if not (np.isfinite(m).all() and np.isfinite(v).all()):
            raise ValueError("Adam moments must be finite")
        if np.any(v < 0):
            raise ValueError("second moments must be nonnegative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")


def adam_init(n_params: int, lr: float, beta1: float = 0.9, beta2: float = 0.999) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, lr, beta1, beta2)


def _all_finite(v) -> bool:
    return bool(np.isfinite(v).all())


def _floats(x) -> list:
    return x if type(x) is list else x.tolist()


def _update(param, grad, m, v, state: AdamState, t: int, sqrt, finite):
    """The Adam formula on a whole array (``np.sqrt``, ``_all_finite``) or on
    one float coordinate (``math.sqrt``, ``math.isfinite``): the same
    operations in the same order, so the same bytes.  Returns
    ``(new_param, m, v)``."""
    m = state.beta1 * m + (1.0 - state.beta1) * grad
    v = state.beta2 * v + (1.0 - state.beta2) * grad * grad
    # every gradient entering m enters v squared, and a square overflows
    # first: m can only be non-finite where v is
    if not finite(v):
        raise NonFiniteError("adam")
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    return param - state.lr * m_hat / (sqrt(v_hat) + EPS), m, v


def adam_step(params, grad, state: AdamState):
    """One bias-corrected Adam step in the direction that reduces the loss.

    Returns ``(new_params, new_state)``.  An array gradient (a GAN's) takes
    one ``_update`` on whole arrays and gives a fresh float64 array.  A list
    gradient (a toy search's, a list of floats) takes one ``_update`` per
    coordinate, reading the parameters and moments as floats (an array's
    ``tolist()``, so a search may start from an array and ``adam_init``'s
    zeros), and gives a list of floats, its moments lists too: the same
    bytes as the array path on the equal arrays.  Either raises
    ``NonFiniteError('adam')`` when a new second moment is not finite: a
    gradient beyond about 1e154 squares to inf there, which would freeze its
    coordinate on this and every later step.
    """
    t = state.t + 1
    if type(grad) is list:
        params = _floats(params)
        if len(grad) != len(params):
            raise ValueError("gradient length does not match parameters")
        new_vals, m, v = [], [], []
        for p_j, g_j, m_j, v_j in zip(params, grad, _floats(state.m), _floats(state.v)):
            p_j, m_j, v_j = _update(p_j, g_j, m_j, v_j, state, t, math.sqrt, math.isfinite)
            new_vals.append(p_j)
            m.append(m_j)
            v.append(v_j)
    else:
        vals = np.asarray(params, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != vals.shape:
            raise ValueError("gradient length does not match parameters")
        new_vals, m, v = _update(vals, grad, state.m, state.v, state, t, np.sqrt, _all_finite)
    # the state was checked where it entered, and one step keeps what
    # __post_init__ checks (m and v share a shape; v >= 0 as beta2 is in
    # [0, 1); t >= 1; finiteness, checked above); the next state skips the check
    new_state = object.__new__(AdamState)
    new_state.__dict__.update(state.__dict__, m=m, v=v, t=t)
    return new_vals, new_state
