"""Hessian-vector products and leading eigenvalues by power iteration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import grad_params, _param_values
from .rng import Rng


def hvp(loss, params, v, h: float) -> np.ndarray:
    """Hessian-vector product by a central difference of exact gradients."""
    v = np.asarray(v, dtype=np.float64)
    if np.linalg.norm(v) <= 1e-10:
        raise ValueError("direction vector must have nonzero norm")
    if h <= 0:
        raise ValueError("h must be positive")
    base = _param_values(params)
    g_up = grad_params(loss, base + h * v)
    g_down = grad_params(loss, base - h * v)
    return (g_up - g_down) / (2.0 * h)


@dataclass(frozen=True)
class EigenResult:
    """Leading eigenvalues sorted by magnitude, with per-value convergence flags."""

    values: tuple
    converged: tuple


def top_k_eigenvalues(hvp_fn, dim: int, k: int, max_iters: int = 1000,
                      tol: float = 1e-9, rng: Rng = None) -> EigenResult:
    """Top-k eigenvalues (by |lambda|) of a symmetric operator given as v -> Av.

    Power iteration with Hotelling deflation; each eigenvalue is iterated
    until its relative change falls below ``tol`` or ``max_iters`` is hit
    (flagged unconverged).  A repeatedly vanishing operator output is a
    breakdown, flagged with value 0.
    """
    if rng is None:
        raise ValueError("an Rng is required for reproducible starts")
    if k > dim:
        raise ValueError("k cannot exceed the operator dimension")
    found_vals, found_vecs, flags = [], [], []
    for _ in range(k):
        v = rng.normal(dim)
        v = _project_out(v, found_vecs)
        nv = np.linalg.norm(v)
        if nv < 1e-14:
            found_vals.append(0.0)
            found_vecs.append(np.zeros(dim))
            flags.append(False)
            continue
        v /= nv
        lam, converged = 0.0, False
        for it in range(max_iters):
            w = hvp_fn(v)
            for lam_j, u_j in zip(found_vals, found_vecs):
                w = w - lam_j * u_j * (u_j @ v)
            w = _project_out(w, found_vecs)
            nw = np.linalg.norm(w)
            if nw < 1e-14:
                lam, converged = 0.0, False  # breakdown: operator vanishes here
                break
            new_lam = float(v @ w)
            v = w / nw
            if it > 0 and abs(new_lam - lam) <= tol * max(abs(new_lam), 1e-12):
                lam = new_lam
                converged = True
                break
            lam = new_lam
        found_vals.append(lam)
        found_vecs.append(v)
        flags.append(converged)
    order = np.argsort([-abs(x) for x in found_vals], kind="stable")
    return EigenResult(tuple(found_vals[i] for i in order),
                       tuple(flags[i] for i in order))


def _project_out(v: np.ndarray, basis) -> np.ndarray:
    for u in basis:
        v = v - u * (u @ v)
    return v
