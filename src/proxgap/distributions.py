"""Synthetic data distributions with closed-form densities, and the
three-way train / worst-case-search / evaluation split protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Rng


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of axis-aligned Gaussians: weights (k,), means (k, d), variances (k, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64).ravel()
        mu = np.atleast_2d(np.array(self.means, dtype=np.float64))
        var = np.atleast_2d(np.array(self.variances, dtype=np.float64))
        if w.size != mu.shape[0] or mu.shape != var.shape:
            raise ValueError("weights, means and variances must describe the same modes")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")
        if np.any(var <= 0):
            raise ValueError("variances must be positive")
        for arr in (w, mu, var):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def dimension(self) -> int:
        return self.means.shape[1]

    @property
    def mode_count(self) -> int:
        return self.means.shape[0]


def ring_mixture(mode_count: int, radius: float, sigma: float) -> GaussianMixture:
    """Equal-weight isotropic modes equally spaced on a circle in the plane."""
    if mode_count < 1:
        raise ValueError("need at least one mode")
    if radius <= 0 or sigma <= 0:
        raise ValueError("radius and sigma must be positive")
    angles = 2.0 * np.pi * np.arange(mode_count) / mode_count
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    variances = np.full((mode_count, 2), sigma ** 2)
    weights = np.full(mode_count, 1.0 / mode_count)
    return GaussianMixture(weights, means, variances)


@dataclass(frozen=True)
class LatentSpec:
    """Generator input noise space; the law is fixed to a standard normal."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("latent dimension must be positive")


@dataclass(frozen=True)
class DataSplits:
    """Disjoint sample sets: s_a trains, s_b drives worst-case search, s_c evaluates."""

    s_a: np.ndarray
    s_b: np.ndarray
    s_c: np.ndarray

    def __post_init__(self):
        for name in ("s_a", "s_b", "s_c"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def sample_real(dist: GaussianMixture, n: int, rng: Rng) -> np.ndarray:
    """n i.i.d. draws from the mixture, deterministic per seed."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    comps = rng.choice(dist.mode_count, size=n, p=dist.weights)
    eps = rng.normal((n, dist.dimension))
    return dist.means[comps] + np.sqrt(dist.variances[comps]) * eps


def log_density(dist: GaussianMixture, x) -> float | np.ndarray:
    """Exact log mixture density at a point (1-D input) or per row of a batch."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != dist.dimension:
        raise ValueError(f"expected dimension {dist.dimension}, got {pts.shape[1]}")
    diff = pts[:, None, :] - dist.means[None, :, :]
    quad = -0.5 * np.sum(diff * diff / dist.variances[None, :, :], axis=2)
    lognorm = -0.5 * np.sum(np.log(2.0 * np.pi * dist.variances), axis=1)
    comp = quad + lognorm + np.log(dist.weights)
    # max-shifted log-sum-exp; the floor keeps an all -inf row (x infinite) at -inf
    top = np.maximum(comp.max(axis=1, keepdims=True), np.finfo(np.float64).min)
    with np.errstate(divide="ignore"):
        out = (top + np.log(np.sum(np.exp(comp - top), axis=1, keepdims=True)))[:, 0]
    return float(out[0]) if single else out


def density(dist: GaussianMixture, x):
    return np.exp(log_density(dist, x))


def sample_latent(spec: LatentSpec, n: int, rng: Rng) -> np.ndarray:
    if n < 1:
        raise ValueError("sample count must be at least 1")
    return rng.normal((n, spec.dim))


def make_splits(dist: GaussianMixture, n_a: int, n_b: int, n_c: int, rng: Rng) -> DataSplits:
    """Draw n_a + n_b + n_c independent rows and assign them disjointly."""
    for n in (n_a, n_b, n_c):
        if n < 1:
            raise ValueError("all split sizes must be at least 1")
    total = sample_real(dist, n_a + n_b + n_c, rng)
    return DataSplits(total[:n_a], total[n_a:n_a + n_b], total[n_a + n_b:])
