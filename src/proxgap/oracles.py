"""Brute-force ground truth: grid-search gaps on low-dimensional toy games,
quadrature divergences, and equilibrium classification.

The quadrature (:func:`_grid_quadrature`) is numpy's own trapezoid
arithmetic, streamed over blocks of grid rows so that no array spans the
whole grid; importing this module loads no ``scipy.integrate``.
``scipy.special`` stays for ``rel_entr``, whose log1p branch numpy's ``log``
does not reproduce.

Toy games use the squared parameter distance as the discriminator function
distance, which is exact for linear discriminators under the gradient-based
function norm, so every penalized quantity here is computable by grid search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import rel_entr

LABEL_NASH = "nash"
LABEL_PROXIMAL_ONLY = "proximal_only"
LABEL_STACKELBERG_ONLY = "stackelberg_only"
LABEL_NONE = "none"


class HierarchyError(AssertionError):
    """Gap values violate the lambda hierarchy; signals an internal inconsistency."""


@dataclass(frozen=True)
class ToyGame:
    """A two-player zero-sum game small enough for exhaustive search.

    ``value(d, g)`` must broadcast over leading axes of ``d`` (..., d_dim)
    and ``g`` (..., g_dim).
    """

    name: str
    value: Callable
    d_box: tuple
    g_box: tuple

    def __post_init__(self):
        for box in (self.d_box, self.g_box):
            for lo, hi in box:
                if not hi > lo:
                    raise ValueError("boxes must be non-degenerate")
        # the (lo, hi) projection bounds, built once rather than on every clip
        object.__setattr__(self, "_d_bounds", tuple(np.array(self.d_box, dtype=np.float64).T))
        object.__setattr__(self, "_g_bounds", tuple(np.array(self.g_box, dtype=np.float64).T))

    @property
    def d_dim(self) -> int:
        return len(self.d_box)

    @property
    def g_dim(self) -> int:
        return len(self.g_box)

    # minimum(maximum(...)) is ndarray.clip on a configuration vector, bit for
    # bit, without clip's Python-level argument handling
    def clip_d(self, d):
        lo, hi = self._d_bounds
        return np.minimum(np.maximum(d, lo), hi)

    def clip_g(self, g):
        lo, hi = self._g_bounds
        return np.minimum(np.maximum(g, lo), hi)


def bilinear(bound: float = 1.0) -> ToyGame:
    return ToyGame("bilinear", lambda d, g: (d * g).sum(axis=-1),
                   ((-bound, bound),), ((-bound, bound),))


def concave_quadratic(bound: float = 1.0, d_box=None) -> ToyGame:
    return ToyGame("concave_quadratic",
                   lambda d, g: (2.0 * d * g - d * d).sum(axis=-1),
                   d_box if d_box is not None else ((-bound, bound),),
                   ((-bound, bound),))


def saddle_shift(a: float, b: float, bound: float = 1.0) -> ToyGame:
    return ToyGame("saddle_shift", lambda d, g: ((d - a) * (g - b)).sum(axis=-1),
                   ((-bound, bound),), ((-bound, bound),))


def shipped_games() -> tuple:
    return (bilinear(), concave_quadratic(), saddle_shift(0.3, -0.4))


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int = 401

    def __post_init__(self):
        if self.points_per_dim < 3:
            raise ValueError("need at least 3 grid points per dimension")


def _box_grid(box, n: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, n) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _point(point):
    d, g = point
    return (np.asarray(d, dtype=np.float64).ravel(),
            np.asarray(g, dtype=np.float64).ravel())


def grid_dg(game: ToyGame, point, grid: GridSpec = GridSpec()) -> float:
    """Plain duality gap at a configuration: grid max over d minus grid min over g."""
    d0, g0 = _point(point)
    dd = _box_grid(game.d_box, grid.points_per_dim)
    gg = _box_grid(game.g_box, grid.points_per_dim)
    v_dw = float(np.max(game.value(dd, g0[None, :])))
    v_gw = float(np.min(game.value(d0[None, :], gg)))
    return v_dw - v_gw


def grid_v_lambda(game: ToyGame, anchor_d, g, lam: float,
                  grid: GridSpec = GridSpec()) -> float:
    """Penalized inner maximum: max over the d grid of V minus lam * ||d - anchor||^2."""
    anchor = np.asarray(anchor_d, dtype=np.float64).ravel()
    g = np.asarray(g, dtype=np.float64).ravel()
    dd = _box_grid(game.d_box, grid.points_per_dim)
    pen = np.sum((dd - anchor[None, :]) ** 2, axis=1)
    return float(np.max(game.value(dd, g[None, :]) - lam * pen))


def grid_dg_lambda(game: ToyGame, point, lam: float,
                   grid: GridSpec = GridSpec()) -> float:
    """Proximal duality gap by exhaustive search, anchored at the point's d."""
    d0, g0 = _point(point)
    dd = _box_grid(game.d_box, grid.points_per_dim)
    gg = _box_grid(game.g_box, grid.points_per_dim)
    v_dw = float(np.max(game.value(dd, g0[None, :])))
    vals = game.value(dd[:, None, :], gg[None, :, :])  # (Nd, Ng)
    pen = np.sum((dd - d0[None, :]) ** 2, axis=1)
    v_lambda_per_g = np.max(vals - lam * pen[:, None], axis=0)
    v_gw_lambda = float(np.min(v_lambda_per_g))
    return v_dw - v_gw_lambda


@dataclass(frozen=True)
class EquilibriumClass:
    """Outcome of classifying a configuration against a ladder of lambda values."""

    label: str
    lam: float | None
    dg: float
    dg_by_lambda: tuple
    tol: float


def classify_equilibrium(game: ToyGame, point, lambda_list, grid: GridSpec,
                         tol: float) -> EquilibriumClass:
    """Strongest equilibrium the configuration satisfies at tolerance ``tol``.

    ``lambda_list`` must be sorted ascending and include 0.  The hierarchy
    (zero gap at a larger lambda implies zero gap at every smaller one) is
    asserted; a violation raises :class:`HierarchyError`.
    """
    lambdas = [float(x) for x in lambda_list]
    if lambdas != sorted(lambdas) or 0.0 not in lambdas:
        raise ValueError("lambda_list must be ascending and include 0")
    dg = grid_dg(game, point, grid)
    gaps = [(lam, grid_dg_lambda(game, point, lam, grid)) for lam in lambdas]
    qualifies = [val < tol for _, val in gaps]
    for i in range(len(gaps) - 1):
        if not qualifies[i] and any(qualifies[i + 1:]):
            raise HierarchyError(
                f"gap below tol at lambda={gaps[i + 1:]} but not at {gaps[i][0]}")
    if dg < tol:
        label, lam = LABEL_NASH, None
    else:
        positive = [lam for (lam, val), ok in zip(gaps, qualifies) if ok and lam > 0]
        if positive:
            label, lam = LABEL_PROXIMAL_ONLY, min(positive)
        elif qualifies[lambdas.index(0.0)]:
            label, lam = LABEL_STACKELBERG_ONLY, None
        else:
            label, lam = LABEL_NONE, None
    return EquilibriumClass(label, lam, dg, tuple(gaps), tol)


# -- divergence oracles --------------------------------------------------


# Grid points per block of the streamed quadrature: a block's few float64
# arrays stay in cache, and no array spans the whole grid.
_BLOCK_POINTS = 16384


def _trapezoid(y, x):
    # numpy's pairwise sum of diff(x) * (y[1:] + y[:-1]) / 2 along the last
    # axis: the expression scipy.integrate.trapezoid evaluates
    return np.sum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


def _grid_quadrature(integrand, p, q, axes) -> float:
    """Nested trapezoid rule, last axis first, of ``integrand(p(x), q(x))`` on
    the grid of ``axes``, streamed over blocks of about ``_BLOCK_POINTS`` points
    in first-axis rows; each block is integrated along the other axes, then the
    rows along the first.  A block sums each row as the whole grid would, so
    pointwise callables keep the bytes of scipy's trapezoid on the whole grid."""
    inner = [len(x) for x in axes[1:]]
    rows = max(1, _BLOCK_POINTS // int(np.prod(inner)))
    per_row = []
    for start in range(0, len(axes[0]), rows):
        mesh = np.meshgrid(axes[0][start:start + rows], *axes[1:], indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        out = integrand(*(np.asarray(fn(pts), dtype=np.float64) for fn in (p, q)))
        out = out.reshape(-1, *inner)
        for x in reversed(axes[1:]):
            out = _trapezoid(out, x)
        per_row.append(out)
    return float(_trapezoid(np.concatenate(per_row), axes[0]))


def numeric_jsd(p, q, grid_box, resolution: int = 1001) -> float:
    """Jensen-Shannon divergence (natural log) by trapezoidal quadrature.

    ``p`` and ``q`` are pointwise density callables over (n, dim) point arrays:
    each row's value depends on that row alone, since the grid is evaluated in
    blocks.  ``grid_box`` is a per-dimension sequence of (lo, hi).  The
    quadrature (:func:`_grid_quadrature`) is byte-equal to scipy's trapezoid.
    """
    def integrand(pv, qv):
        m = 0.5 * (pv + qv)
        return 0.5 * (rel_entr(pv, m) + rel_entr(qv, m))

    axes = [np.linspace(lo, hi, resolution) for lo, hi in grid_box]
    return _grid_quadrature(integrand, p, q, axes)


def numeric_fdiv(family, p, q, grid_box, resolution: int = 1001) -> float:
    """f-divergence with the convention: integrate p(x) f(q(x)/p(x)) dx.

    Same pointwise ``p`` and ``q``, grid and quadrature as :func:`numeric_jsd`.
    """
    floor = 1e-300

    def integrand(pv, qv):
        safe_p = np.maximum(pv, floor)
        with np.errstate(all="ignore"):
            out = safe_p * family.f(qv / safe_p)
        out = np.where((pv <= floor) & (qv <= floor), 0.0, out)
        if not np.all(np.isfinite(out)):  # checked per block
            raise FloatingPointError("f-divergence integrand is not finite on the grid")
        return out

    axes = [np.linspace(lo, hi, resolution) for lo, hi in grid_box]
    return _grid_quadrature(integrand, p, q, axes)


def jsd_from_samples(samples_p, samples_q, bins: int, box=None) -> float:
    """Histogram JSD between two sample sets with additive smoothing 1e-12.

    The binning box is shared; when not given it is the joint extent of both
    sample sets.  The result lies in [0, log 2].
    """
    sp = _as_points(samples_p)
    sq = _as_points(samples_q)
    if sp.shape[0] == 0 or sq.shape[0] == 0:
        raise ValueError("sample sets must be non-empty")
    dim = sp.shape[1]
    if sq.shape[1] != dim:
        raise ValueError("sample sets must share a dimension")
    if box is None:
        lo = np.minimum(sp.min(axis=0), sq.min(axis=0))
        hi = np.maximum(sp.max(axis=0), sq.max(axis=0))
        span = np.maximum(hi - lo, 1e-12)
        box = [(lo[i] - 1e-9 * span[i], hi[i] + 1e-9 * span[i]) for i in range(dim)]
    hp, _ = np.histogramdd(sp, bins=bins, range=box)
    hq, _ = np.histogramdd(sq, bins=bins, range=box)
    p = hp.ravel() / sp.shape[0] + 1e-12
    q = hq.ravel() / sq.shape[0] + 1e-12
    p /= p.sum()
    q /= q.sum()
    m = 0.5 * (p + q)
    return float(0.5 * (rel_entr(p, m).sum() + rel_entr(q, m).sum()))


def hist_jsd(real, fake, bins: int) -> float:
    """The monitors' histogram JSD: ``jsd_from_samples`` binned on the real rows'
    extent widened by 1 on each axis, a box that stays fixed as ``fake`` moves."""
    box = [(real[:, j].min() - 1.0, real[:, j].max() + 1.0) for j in range(real.shape[1])]
    return jsd_from_samples(real, fake, bins=bins, box=box)


def wasserstein1_1d(samples_p, samples_q) -> float:
    """W1 between 1-D samples: mean absolute difference of aligned quantiles."""
    sp = np.sort(np.asarray(samples_p, dtype=np.float64).ravel())
    sq = np.sort(np.asarray(samples_q, dtype=np.float64).ravel())
    if sp.size == 0 or sq.size == 0:
        raise ValueError("sample sets must be non-empty")
    if sp.size != sq.size:
        m = max(sp.size, sq.size)
        qs = (np.arange(m) + 0.5) / m
        sp = np.quantile(sp, qs)
        sq = np.quantile(sq, qs)
    return float(np.mean(np.abs(sp - sq)))


def _as_points(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    return arr[:, None] if arr.ndim == 1 else arr


# -- finite-difference derivatives of toy games ---------------------------
# Central differences are exact (up to rounding) for the shipped polynomial
# games, so they double as the gradient oracle for the estimator modules.

_TOY_FD_H = 1e-6


def toy_value(game: ToyGame, d, g) -> float:
    d = np.asarray(d, dtype=np.float64).ravel()
    g = np.asarray(g, dtype=np.float64).ravel()
    return float(game.value(d[None, :], g[None, :])[0])


def toy_value_and_grad(game: ToyGame, d, g, wrt: str):
    """V(d, g) and its central-difference gradient in ``wrt`` ("d" or "g"): the
    :func:`toy_stencil` against the other player, applied once."""
    x, fixed = (d, g) if wrt == "d" else (g, d)
    x = np.asarray(x, dtype=np.float64).ravel()
    value, grad = toy_stencil(game, fixed, wrt, x.size)(x)
    return float(value), grad


def toy_stencil(game: ToyGame, fixed, wrt: str, n: int):
    """x -> (V, central-difference gradient of V in x) for the ``n``-vector
    player ``wrt`` ("d" or "g") against the ``fixed`` other player.

    The offsets and the fixed row are built here, once per opponent; each call
    runs one ``game.value`` over the point and its stencil rows stacked, as
    :func:`proxgap.diffcore.network.stencil_rows` stacks them for networks.
    ``x`` must be a float64 vector; V comes back as a numpy scalar.
    """
    fixed = np.asarray(fixed, dtype=np.float64).ravel()[None, :]
    offsets = _stencil_offsets(n)
    shape = offsets.shape[:1]
    value = game.value
    at_d = wrt == "d"
    scale = 2.0 * _TOY_FD_H

    def value_and_grad(x):
        rows = x + offsets
        vals = value(rows, fixed) if at_d else value(fixed, rows)
        if vals.shape != shape:  # a value that ignores x comes back as one row
            vals = np.broadcast_to(vals, shape)
        return vals[0], (vals[1:n + 1] - vals[n + 1:]) / scale

    return value_and_grad


@functools.lru_cache(maxsize=16)
def _stencil_offsets(n: int) -> np.ndarray:
    # rows 0, +h e_j, -h e_j: x + row is exactly x + h or x - h in one coordinate
    shift = _TOY_FD_H * np.eye(n)
    offsets = np.vstack([np.zeros(n), shift, -shift])
    offsets.setflags(write=False)
    return offsets
