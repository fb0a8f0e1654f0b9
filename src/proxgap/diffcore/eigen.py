"""Hessian-vector products and leading eigenvalues by block Lanczos iteration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import _param_values
from .rng import Rng


def hvp(grad_fn, params, v, h: float) -> np.ndarray:
    """Hessian-vector product (grad_fn(theta + h v) - grad_fn(theta - h v)) / 2h of
    an exact gradient function of a flat parameter array; ``params`` holds theta."""
    v = np.asarray(v, dtype=np.float64)
    if np.linalg.norm(v) <= 1e-10:
        raise ValueError("direction vector must have nonzero norm")
    if h <= 0:
        raise ValueError("h must be positive")
    base = _param_values(params)
    return (grad_fn(base + h * v) - grad_fn(base - h * v)) / (2.0 * h)


@dataclass(frozen=True)
class EigenResult:
    """Leading eigenvalues sorted by magnitude, with per-value convergence flags."""

    values: tuple
    converged: tuple


def top_k_eigenvalues(hvp_fn, dim: int, k: int, max_iters: int = 1000,
                      tol: float = 1e-9, *, rng: Rng) -> EigenResult:
    """Top-k eigenvalues (by |lambda|) of a symmetric operator given as v -> Av.

    Block Lanczos with block size k and full reorthogonalization.  The basis
    Q starts as k random orthonormal vectors; each further vector is the
    operator output of the next basis vector in turn, orthogonalized against
    Q, so Q spans the block Krylov space of the start.  A block of k starts
    sees up to k copies of a repeated eigenvalue, as many as the top k can
    hold, where a single start sees one.  Each basis vector costs one
    operator call.  When an output lies in span(Q) (an invariant subspace)
    the next vector is a random one orthogonal to Q.  After each block,
    Rayleigh-Ritz on Q^T A Q, with A Q from the stored outputs, gives the
    estimates.  A Ritz pair (theta, y) is converged when
    ||A y - theta y|| <= tol * max(|theta|, 1e-12); the iteration stops when
    the top k pairs pass that test, when Q spans the space, or after
    max(max_iters, k) operator calls.  A Ritz vector on which the operator
    output vanishes is a breakdown, flagged unconverged with value 0.
    """
    if k > dim:
        raise ValueError("k cannot exceed the operator dimension")
    limit = min(dim, max(max_iters, k))
    starts = rng.normal((k, dim))
    basis, outputs = [], []
    while True:
        m = len(basis)
        prev = np.array(basis).reshape(m, dim)
        src = starts[m] if m < k else outputs[m - k]
        w = _project_out(src, prev)
        norm = float(np.linalg.norm(w))
        if norm <= 1e-12 * max(float(np.linalg.norm(src)), 1e-300):
            # span(Q) is invariant under the operator: go on from a fresh direction
            w = _project_out(rng.normal(dim), prev)
            norm = float(np.linalg.norm(w))
        basis.append(w / norm)
        outputs.append(np.asarray(hvp_fn(basis[-1]), dtype=np.float64))
        if len(basis) % k == 0 or len(basis) == limit:
            values, settled, broken = _ritz_pairs(np.array(basis), np.array(outputs), k, tol)
            if settled.all() or len(basis) == limit:
                break
    return EigenResult(tuple(float(v) for v in values),
                       tuple(bool(f) for f in settled & ~broken))


def _ritz_pairs(basis: np.ndarray, outputs: np.ndarray, k: int, tol: float):
    """Top-k Ritz values of the operator on span(basis), by magnitude, with
    their residual test and breakdown flags.  ``outputs`` holds A q per row."""
    proj = basis @ outputs.T
    theta, s = np.linalg.eigh(0.5 * (proj + proj.T))
    top = np.argsort(-np.abs(theta), kind="stable")[:k]
    theta, s = theta[top], s[:, top]
    applied = outputs.T @ s  # A y, by linearity
    resid = np.linalg.norm(applied - (basis.T @ s) * theta, axis=0)
    settled = resid <= tol * np.maximum(np.abs(theta), 1e-12)
    broken = np.linalg.norm(applied, axis=0) < 1e-14  # the operator vanishes here
    return np.where(broken, 0.0, theta), settled, broken


def _project_out(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """v minus its projection on the orthonormal rows of ``basis``, done twice
    so that the result stays orthogonal to working precision."""
    for _ in range(2):
        v = v - basis.T @ (basis @ v)
    return v
