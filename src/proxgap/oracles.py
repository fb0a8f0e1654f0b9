"""Brute-force ground truth: grid-search gaps on low-dimensional toy games,
quadrature divergences, and equilibrium classification.

The grid search and the quadrature walk their grids in blocks of about
``_BLOCK_POINTS`` points, and both keep the bytes of the whole-grid formulas.
The grid search (:func:`grid_dg`, :func:`grid_v_lambda`,
:func:`grid_dg_lambda`, :func:`classify_equilibrium`) builds the Nd x Ng value
table a block of g columns at a time, so no table spans both grids; it keeps
one reduced value per grid point and reduces those once with ``np.min`` or
``np.max``, as the whole table was reduced.  It passes ``game.value`` each
player coordinate-first (a grid's transpose, broadcast against the other
player's, or a fixed player's list of floats), so ``game.value`` must be
pointwise.  The toy stencil (:func:`toy_stencil`) calls the same
``game.value`` on lists of Python floats.  The quadrature
(:func:`_grid_quadrature`) is numpy's own trapezoid arithmetic over blocks of
grid rows, so no array spans its grid; importing this module loads no
``scipy.integrate``.
``scipy.special`` stays for ``rel_entr``, whose log1p branch numpy's ``log``
does not reproduce; it is imported by the functions that call it, so that
importing the library loads no scipy at all.

Toy games use the squared parameter distance as the discriminator function
distance, which is exact for linear discriminators under the gradient-based
function norm, so every penalized quantity here is computable by grid search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffcore import NonFiniteError

LABEL_NASH = "nash"
LABEL_PROXIMAL_ONLY = "proximal_only"
LABEL_STACKELBERG_ONLY = "stackelberg_only"
LABEL_NONE = "none"


class HierarchyError(AssertionError):
    """Gap values violate the lambda hierarchy; signals an internal inconsistency."""


@dataclass(frozen=True)
class ToyGame:
    """A two-player zero-sum game small enough for exhaustive search.

    ``value(d, g)`` reads each player coordinate-first: ``d[j]`` is the
    discriminator's coordinate j and ``g[j]`` the generator's.  The
    estimators pass lists of Python floats, so ``d[j]`` is a float; the grid
    oracles pass arrays, or a list of floats for a fixed player, whose
    ``d[j]`` has a leading shape that broadcasts against the other
    player's.  ``value`` must be pointwise: each entry depends on its own
    entries of the coordinates alone, since the grid oracles evaluate it in
    blocks.  Written with ``+ - * /`` alone, one formula gives the same bits
    on floats and on arrays.
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


# The shipped games are one-dimensional.  Each value ends in + 0.0, as the
# numpy sum over one coordinate they were first written with did: a -0.0 value
# comes back as +0.0, so every estimate and grid value keeps its bytes.


def bilinear(bound: float = 1.0) -> ToyGame:
    return ToyGame("bilinear", lambda d, g: d[0] * g[0] + 0.0,
                   ((-bound, bound),), ((-bound, bound),))


def concave_quadratic(bound: float = 1.0, d_box=None) -> ToyGame:
    if d_box is not None and len(d_box) != 1:
        raise ValueError(f"concave_quadratic has one d axis, got {len(d_box)}")
    return ToyGame("concave_quadratic",
                   lambda d, g: 2.0 * d[0] * g[0] - d[0] * d[0] + 0.0,
                   d_box if d_box is not None else ((-bound, bound),),
                   ((-bound, bound),))


def saddle_shift(a: float, b: float, bound: float = 1.0) -> ToyGame:
    return ToyGame("saddle_shift", lambda d, g: (d[0] - a) * (g[0] - b) + 0.0,
                   ((-bound, bound),), ((-bound, bound),))


def shipped_games() -> tuple:
    return (bilinear(), concave_quadratic(), saddle_shift(0.3, -0.4))


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int = 401

    def __post_init__(self):
        if not isinstance(self.points_per_dim, (int, np.integer)):
            raise ValueError(f"points_per_dim must be an integer, got {self.points_per_dim!r}")
        if self.points_per_dim < 3:
            raise ValueError("need at least 3 grid points per dimension")


# Grid points per quadrature block and value-table entries per grid-search
# block: no quadrature array spans its grid, and no value table spans both
# grids.  Set on whole toy_oracles rounds: at 16,384 their quadrature ran about
# a quarter slower than at 12,288, and at 8,192 it ran no faster.
_BLOCK_POINTS = 12288


def _box_grid(box, n: int, what: str) -> np.ndarray:
    """The n-points-per-axis grid of the ``what`` box ("d" or "g"), one point
    per row; ValueError for an axis with a bound that is not finite, whose
    ``linspace`` would hold nans."""
    for axis, (lo, hi) in enumerate(box):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"the {what} box's axis {axis} has a bound that is not finite, "
                             f"({lo!r}, {hi!r}): a grid oracle searches finite boxes only")
    axes = [np.linspace(lo, hi, n) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _grids(game: ToyGame, grid: GridSpec):
    """The game's d and g grids, both built, so checked, before any value is."""
    n = grid.points_per_dim
    return _box_grid(game.d_box, n, "d"), _box_grid(game.g_box, n, "g")


def _blocks(total: int, width: int):
    """Slices of ``range(total)`` in consecutive blocks of ``width``; the last
    block takes the rest, two to ``width + 1`` entries, so none is a lone one."""
    for start in range(0, max(total - 1, 1), width):
        yield slice(start, start + width if start + width < total - 1 else total)


def _grid_values(points, fn) -> np.ndarray:
    """``fn(points)``, one value per point, evaluated over blocks of
    ``_BLOCK_POINTS`` points."""
    out = np.empty(len(points))
    for block in _blocks(len(points), _BLOCK_POINTS):
        out[block] = fn(points[block])
    return out


def _vector(x, size: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != size:
        raise ValueError(f"{what} has {x.size} entries, the game has dimension {size}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite, got {x.tolist()}")
    return x


def toy_point(game: ToyGame, point):
    """The configuration ``point = (d, g)`` as two float64 vectors; ValueError
    naming the player ("d" or "g") that does not match the game's dimension
    or is not finite."""
    d, g = point
    return _vector(d, game.d_dim, "d"), _vector(g, game.g_dim, "g")


def _penalty(lam) -> float:
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and non-negative, got {lam!r}")
    return lam


def _v_dw(game: ToyGame, dd, g) -> float:
    # max over the d grid of V(d, g)
    g = g.tolist()
    return float(np.max(_grid_values(dd, lambda block: game.value(block.T, g))))


def _v_gw(game: ToyGame, gg, d) -> float:
    # min over the g grid of V(d, g)
    d = d.tolist()
    return float(np.min(_grid_values(gg, lambda block: game.value(d, block.T))))


def _v_gw_lambda(game: ToyGame, dd, gg, anchor, lambdas) -> list:
    """min over the g grid of the penalized inner max over the d grid, per lambda.

    The g grid is walked in blocks of about ``_BLOCK_POINTS`` table entries;
    each block's (Nd, block) value table is built once and reduced over d for
    every lambda.  A column's max over d runs down the rows in the whole
    table's order, and no block is a single column (numpy reduces that one in
    another order), so the per-g maxima keep the whole table's bytes, signed
    zeros and nan included; each lambda's are then reduced once with np.min.
    """
    pen = np.sum((dd - anchor[None, :]) ** 2, axis=1)
    lam_pens = [lam * pen[:, None] for lam in lambdas]
    per_g = np.empty((len(lambdas), len(gg)))
    d_rows = dd.T[:, :, None]
    for block in _blocks(len(gg), max(2, _BLOCK_POINTS // len(dd))):
        vals = game.value(d_rows, gg[block].T[:, None, :])  # (Nd, block)
        for row, lam_pen in zip(per_g, lam_pens):
            row[block] = np.max(vals - lam_pen, axis=0)
    return [float(np.min(row)) for row in per_g]


def grid_dg(game: ToyGame, point, grid: GridSpec = GridSpec()) -> float:
    """Plain duality gap at a configuration: grid max over d minus grid min over g."""
    d0, g0 = toy_point(game, point)
    dd, gg = _grids(game, grid)
    return _v_dw(game, dd, g0) - _v_gw(game, gg, d0)


def grid_v_lambda(game: ToyGame, anchor_d, g, lam: float,
                  grid: GridSpec = GridSpec()) -> float:
    """Penalized inner maximum: max over the d grid of V minus lam * ||d - anchor||^2."""
    anchor, g = toy_point(game, (anchor_d, g))
    lam = _penalty(lam)
    g_coords = g.tolist()

    def penalized(dd):
        return game.value(dd.T, g_coords) - lam * np.sum((dd - anchor[None, :]) ** 2, axis=1)

    return float(np.max(_grid_values(_box_grid(game.d_box, grid.points_per_dim, "d"),
                                     penalized)))


def grid_dg_lambda(game: ToyGame, point, lam: float,
                   grid: GridSpec = GridSpec()) -> float:
    """Proximal duality gap by exhaustive search, anchored at the point's d."""
    d0, g0 = toy_point(game, point)
    lam = _penalty(lam)
    dd, gg = _grids(game, grid)
    return _v_dw(game, dd, g0) - _v_gw_lambda(game, dd, gg, d0, [lam])[0]


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
    d0, g0 = toy_point(game, point)
    lambdas = [_penalty(x) for x in lambda_list]
    if lambdas != sorted(lambdas) or 0.0 not in lambdas:
        raise ValueError("lambda_list must be ascending and include 0")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    dd, gg = _grids(game, grid)
    v_dw = _v_dw(game, dd, g0)
    dg = v_dw - _v_gw(game, gg, d0)
    gaps = [(lam, v_dw - v) for lam, v in zip(lambdas, _v_gw_lambda(game, dd, gg, d0, lambdas))]
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
    rows = min(len(axes[0]), max(1, _BLOCK_POINTS // int(np.prod(inner))))
    per_row = []
    buf = np.empty((rows, *inner, len(axes)))  # every block's points, in turn
    for start in range(0, len(axes[0]), rows):
        first = axes[0][start:start + rows]
        block = buf[:len(first)]
        for k, m in enumerate(np.meshgrid(first, *axes[1:], indexing="ij", sparse=True)):
            block[..., k] = m
        pts = block.reshape(-1, len(axes))
        out = integrand(*(np.asarray(fn(pts), dtype=np.float64) for fn in (p, q)))
        out = out.reshape(-1, *inner)
        for x in reversed(axes[1:]):
            out = _trapezoid(out, x)
        per_row.append(out)
    return float(_trapezoid(np.concatenate(per_row), axes[0]))


def _quadrature_axes(grid_box, resolution) -> list:
    if not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise ValueError(f"resolution must be an integer of at least 2, got {resolution!r}")
    if len(grid_box) == 0:
        raise ValueError("grid_box needs at least one axis")
    axes = []
    for lo, hi in grid_box:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"each grid_box axis needs finite lo < hi, got ({lo!r}, {hi!r})")
        axes.append(np.linspace(lo, hi, resolution))
    return axes


def numeric_jsd(p, q, grid_box, resolution: int = 1001) -> float:
    """Jensen-Shannon divergence (natural log) by trapezoidal quadrature.

    ``p`` and ``q`` are pointwise density callables over (n, dim) point arrays:
    each row's value depends on that row alone, since the grid is evaluated in
    blocks.  ``grid_box`` is a per-dimension sequence of (lo, hi).  The
    quadrature (:func:`_grid_quadrature`) is byte-equal to scipy's trapezoid.
    """
    from scipy.special import rel_entr

    def integrand(pv, qv):
        m = 0.5 * (pv + qv)
        return 0.5 * (rel_entr(pv, m) + rel_entr(qv, m))

    return _grid_quadrature(integrand, p, q, _quadrature_axes(grid_box, resolution))


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

    return _grid_quadrature(integrand, p, q, _quadrature_axes(grid_box, resolution))


def jsd_from_samples(samples_p, samples_q, bins: int, box=None) -> float:
    """Histogram JSD between two sample sets with additive smoothing 1e-12.

    The binning box is shared; when not given it is the joint extent of both
    sample sets.  The result lies in [0, log 2].
    """
    from scipy.special import rel_entr

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


def _named_value(value, d, g):
    """``value(d, g)``, where float arithmetic raises ZeroDivisionError or
    OverflowError (numpy would give inf or nan), ``NonFiniteError("value")``."""
    try:
        return value(d, g)
    except (ZeroDivisionError, OverflowError) as err:
        raise NonFiniteError("value") from err


def toy_value(game: ToyGame, d, g) -> float:
    """V at (d, g) in float arithmetic, a raising value named as in ``_named_value``."""
    d, g = toy_point(game, (d, g))
    return float(_named_value(game.value, d.tolist(), g.tolist()))


def toy_coords(x) -> list:
    """The coordinates of ``x``, a list of floats or a float64 vector, as a
    list of floats: ``x`` itself when it is a list."""
    return x if type(x) is list else x.tolist()


def toy_stencil(game: ToyGame, fixed, wrt: str, n: int):
    """``(partials, value)`` of V in the ``n``-vector player ``wrt`` ("d" or
    "g") against the ``fixed`` other player: ``partials(x)`` is the
    central-difference gradient at x, a list of n floats, and ``value(x)``
    is V at x, a float.  ``x`` is a list of n floats, as the toy inner
    ascent's iterates are, or a float64 vector.

    Both run in float arithmetic on ``toy_coords(x)`` and keep the bytes of
    the stacked stencil ``x + offsets`` (rows 0, +h e_j, -h e_j) that
    :func:`proxgap.diffcore.network.stencil_rows` builds for networks: row 0
    and the +h rows add +0.0 to the other coordinates, the -h rows add
    -0.0, which leaves them as they are.  A gradient evaluates V on the 2n
    shifted rows alone; only ``value`` evaluates row 0.  Where float
    arithmetic raises (ZeroDivisionError, OverflowError), both raise
    ``NonFiniteError("value")``, as a non-finite network value is named.
    """
    fixed = np.asarray(fixed, dtype=np.float64).ravel().tolist()
    value = game.value
    # at(row, fixed): V with the stencil's row as the ``wrt`` player
    at = value if wrt == "d" else (lambda row, fixed: value(fixed, row))
    h = _TOY_FD_H
    scale = 2.0 * h

    def partials(x):
        down = toy_coords(x)  # x + -0.0 is x; only copies are written
        up = [v + 0.0 for v in down]
        grad = []
        try:  # one try per stencil, not per coordinate: this is the toy hot path
            for j in range(n):
                v = down[j]
                up_row, down_row = up.copy(), down.copy()
                up_row[j], down_row[j] = v + h, v - h
                grad.append((at(up_row, fixed) - at(down_row, fixed)) / scale)
        except (ZeroDivisionError, OverflowError) as err:
            raise NonFiniteError("value") from err
        return grad

    def value_at(x):
        return float(_named_value(at, [v + 0.0 for v in toy_coords(x)], fixed))

    return partials, value_at
