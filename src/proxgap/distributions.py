"""Synthetic data distributions with closed-form densities, standard-normal
generator inputs of a given width, and the three-way train /
worst-case-search / evaluation split protocol."""

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


def _pairwise_sum(terms: list) -> np.ndarray:
    """Elementwise sum of equal-shape arrays, added in the order numpy's sum
    takes along a contiguous axis of length len(terms): in turn below 8
    terms, in 8 interleaved partial sums up to 128, halved beyond that."""
    n = len(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if n < 8:
        out, rest = terms[0], terms[1:]
    else:
        lanes, stop = terms[:8], n - n % 8
        for i in range(8, stop, 8):
            lanes = [lane + t for lane, t in zip(lanes, terms[i:i + 8])]
        out = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + \
              ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        rest = terms[stop:]
    for t in rest:
        out = out + t
    return out


def log_density(dist: GaussianMixture, x) -> float | np.ndarray:
    """Exact log mixture density at a point (1-D input) or per row of a batch.

    Works mode by mode on the point columns, so no (rows, modes, dim) array
    is built: mode j's log component is -0.5 * sum_c (x_c - mu_jc)^2 / var_jc
    + lognorm_j + log w_j, and the modes meet in a max-shifted log-sum-exp.
    Both sums add their terms in the order numpy's sum over a trailing axis
    would, so the bits equal the broadcast formula's.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != dist.dimension:
        raise ValueError(f"expected dimension {dist.dimension}, got {pts.shape[1]}")
    cols = [pts[:, c] for c in range(dist.dimension)]
    lognorm = -0.5 * np.sum(np.log(2.0 * np.pi * dist.variances), axis=1)
    comps = []
    for mu, var, norm, log_w in zip(dist.means, dist.variances, lognorm, np.log(dist.weights)):
        terms = []
        for col, mu_c, var_c in zip(cols, mu, var):
            t = col - mu_c
            t *= t
            t /= var_c
            terms.append(t)
        comp = _pairwise_sum(terms)
        comp *= -0.5
        comp += norm
        comp += log_w
        comps.append(comp)
    # max-shifted log-sum-exp; the floor keeps an all -inf row (x infinite) at -inf
    top = np.finfo(np.float64).min
    for comp in comps:
        top = np.maximum(top, comp)
    for comp in comps:
        comp -= top
        np.exp(comp, out=comp)
    with np.errstate(divide="ignore"):
        out = top + np.log(_pairwise_sum(comps))
    return float(out[0]) if single else out


def density(dist: GaussianMixture, x):
    return np.exp(log_density(dist, x))


def sample_latent(dim: int, n: int, rng: Rng) -> np.ndarray:
    """n standard-normal generator inputs of width dim."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    return rng.normal((n, dim))


def draw_minibatch(rows: np.ndarray, n: int, latent_dim: int, rng: Rng):
    """n rows drawn with replacement, then n standard-normal latents, from one stream."""
    idx = rng.integers(0, rows.shape[0], n)
    return rows[idx], rng.normal((n, latent_dim))


def make_splits(dist: GaussianMixture, n_a: int, n_b: int, n_c: int, rng: Rng) -> DataSplits:
    """Draw n_a + n_b + n_c independent rows and assign them disjointly."""
    for n in (n_a, n_b, n_c):
        if n < 1:
            raise ValueError("all split sizes must be at least 1")
    total = sample_real(dist, n_a + n_b + n_c, rng)
    return DataSplits(total[:n_a], total[n_a:n_a + n_b], total[n_a + n_b:])
