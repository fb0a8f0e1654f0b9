import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import rel_entr

from proxgap import oracles as oracles_module
from proxgap.diffcore import NonFiniteError, Rng
from proxgap.distributions import GaussianMixture, density
from proxgap.gapmetrics import ToyGameState, _ops_for
from proxgap.objectives import FGAN_FAMILIES
from proxgap.oracles import (
    LABEL_NASH,
    LABEL_NONE,
    EquilibriumClass,
    GridSpec,
    ToyGame,
    bilinear,
    classify_equilibrium,
    concave_quadratic,
    grid_dg,
    grid_dg_lambda,
    grid_v_lambda,
    hist_jsd,
    jsd_from_samples,
    numeric_fdiv,
    numeric_jsd,
    saddle_shift,
    shipped_games,
    toy_stencil,
    toy_value,
    wasserstein1_1d,
    _TOY_FD_H,
)

from toy_grads import stacked_toy_value_and_grad, toy_value_and_grad

GRID = GridSpec(401)


def _random_point(game, rng):
    d = np.array([rng.uniform(lo, hi, ()) for lo, hi in game.d_box])
    g = np.array([rng.uniform(lo, hi, ()) for lo, hi in game.g_box])
    return d, g


def _coupled_2d():
    """V = sum_j d_j^2 g_j + d_0 g_1 on [-1, 1]^2 x [-2, 2]^2."""
    return ToyGame("coupled_2d",
                   lambda d, g: d[0] * d[0] * g[0] + d[1] * d[1] * g[1] + d[0] * g[1],
                   ((-1.0, 1.0),) * 2, ((-2.0, 2.0),) * 2)


# -- plain duality gap ---------------------------------------------------


def test_concave_quadratic_refuses_a_d_box_of_more_than_one_axis():
    # its value reads d[0] alone, so a second d axis would be ignored
    assert concave_quadratic(d_box=((-0.2, 0.2),)).d_box == ((-0.2, 0.2),)
    with pytest.raises(ValueError, match="^concave_quadratic has one d axis, got 2"):
        concave_quadratic(d_box=((-1.0, 1.0),) * 2)


def test_bilinear_saddle_has_zero_gap():
    assert grid_dg(bilinear(), (np.array([0.0]), np.array([0.0])), GRID) < 1e-6


def test_bilinear_corner_gap_is_two():
    val = grid_dg(bilinear(), (np.array([1.0]), np.array([1.0])), GRID)
    assert val == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("game", shipped_games(), ids=lambda g: g.name)
def test_gap_nonnegative_on_config_grid(game):
    ds = np.linspace(game.d_box[0][0], game.d_box[0][1], 21)
    gs = np.linspace(game.g_box[0][0], game.g_box[0][1], 21)
    for d in ds:
        for g in gs:
            assert grid_dg(game, (np.array([d]), np.array([g])), GridSpec(101)) >= -1e-12


# -- penalized inner maximum ----------------------------------------------


def test_v_lambda_zero_penalty_is_plain_max():
    game = concave_quadratic()
    g = np.array([0.4])
    plain = grid_v_lambda(game, np.array([0.9]), g, 0.0, GRID)
    assert plain == pytest.approx(0.16, abs=1e-4)  # max_d 2dg - d^2 = g^2


def test_v_lambda_huge_penalty_pins_anchor():
    game = bilinear()
    anchor = np.array([0.25])
    g = np.array([0.8])
    val = grid_v_lambda(game, anchor, g, 1e9, GRID)
    assert val == pytest.approx(0.25 * 0.8, abs=1e-2)


def test_v_lambda_vanishing_penalty_at_inner_argmax():
    # anchoring at d = g makes the penalty vanish at the optimum: V^lam = g^2
    game = concave_quadratic()
    for g0 in (-0.6, -0.1, 0.5, 1.0):
        for lam in (0.0, 0.1, 10.0, 1e4):
            val = grid_v_lambda(game, np.array([g0]), np.array([g0]), lam, GRID)
            assert val == pytest.approx(g0 ** 2, abs=1e-4)


# -- proximal duality gap --------------------------------------------------


def test_concave_quadratic_origin_is_proximal_for_all_lambda():
    game = concave_quadratic()
    point = (np.array([0.0]), np.array([0.0]))
    for lam in (0.0, 0.01, 1.0, 100.0, 1e6):
        assert abs(grid_dg_lambda(game, point, lam, GRID)) < 1e-6


def test_bilinear_corner_gap_lambda_values():
    # hand-computed: V_dw = 1; V^lam_gw at lam=0.1 is -0.1 (g*=-0.2), at lam=0 it is 0
    game = bilinear()
    point = (np.array([1.0]), np.array([1.0]))
    assert grid_dg_lambda(game, point, 0.1, GRID) == pytest.approx(1.1, abs=1e-9)
    assert grid_dg_lambda(game, point, 0.0, GRID) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("game", shipped_games(), ids=lambda g: g.name)
def test_gap_nondecreasing_in_lambda(game):
    rng = Rng(11)
    lambdas = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1e6]
    for _ in range(10):
        point = _random_point(game, rng)
        gaps = [grid_dg_lambda(game, point, lam, GridSpec(201)) for lam in lambdas]
        diffs = np.diff(gaps)
        assert np.all(diffs >= -1e-6)


def test_lambda_limit_matches_plain_gap_on_grid_nodes():
    # configurations snapped to grid nodes: at lam=1e6 the penalty freezes the
    # anchor exactly, so the proximal gap coincides with the plain gap
    rng = Rng(21)
    for game in shipped_games():
        nodes = np.linspace(game.d_box[0][0], game.d_box[0][1], GRID.points_per_dim)
        for _ in range(5):
            d = np.array([nodes[rng.integers(0, len(nodes))]])
            g = np.array([rng.uniform(*game.g_box[0], ())])
            big = grid_dg_lambda(game, (d, g), 1e6, GRID)
            plain = grid_dg(game, (d, g), GRID)
            assert abs(big - plain) < 1e-3


# -- equilibrium classification --------------------------------------------

LADDER = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1e6]


def test_classify_bilinear_saddle_nash():
    out = classify_equilibrium(bilinear(), (np.array([0.0]), np.array([0.0])),
                               LADDER, GRID, tol=1e-6)
    assert out.label == LABEL_NASH
    assert isinstance(out, EquilibriumClass)


def test_classify_bilinear_corner_none():
    out = classify_equilibrium(bilinear(), (np.array([1.0]), np.array([1.0])),
                               LADDER, GRID, tol=1e-6)
    assert out.label == LABEL_NONE


def test_classify_concave_origin_stable_across_resolutions():
    labels = set()
    for n in (201, 401, 801):
        out = classify_equilibrium(concave_quadratic(),
                                   (np.array([0.0]), np.array([0.0])),
                                   LADDER, GridSpec(n), tol=1e-6)
        labels.add(out.label)
    assert labels == {LABEL_NASH}


def test_classify_tolerance_artifact_labels_on_quadratic_axis():
    # along g = 0 the leader is already optimal: the plain gap is 2|d| + d^2
    # while the penalized gap is exactly lam * d^2.  The label proximal_only
    # at d = 0.005 is a tolerance artifact, not a proximal equilibrium: its
    # exact lam = 0.01 gap, lam * d^2 = 2.5e-7, is positive and falls below
    # tol = 1e-6 only because the tolerance is coarse.  The larger anchor's
    # gap, lam * 0.25 >= 0.0025 on the ladder, stays above tol at every
    # lam > 0, so it qualifies at lam = 0 alone
    game = concave_quadratic()
    near = classify_equilibrium(game, (np.array([0.005]), np.array([0.0])),
                                LADDER, GRID, tol=1e-6)
    assert near.label == "proximal_only"
    assert near.lam == 0.01
    assert near.dg == pytest.approx(0.010025, abs=1e-9)
    gaps = dict(near.dg_by_lambda)
    assert gaps[0.01] == pytest.approx(0.01 * 0.005 ** 2, abs=1e-12)
    far = classify_equilibrium(game, (np.array([0.5]), np.array([0.0])),
                               LADDER, GRID, tol=1e-6)
    assert far.label == "stackelberg_only"
    assert dict(far.dg_by_lambda)[0.01] == pytest.approx(0.01 * 0.25, abs=1e-9)


def test_classify_requires_sorted_ladder_with_zero():
    with pytest.raises(ValueError):
        classify_equilibrium(bilinear(), (np.array([0.0]), np.array([0.0])),
                             [0.1, 0.01], GRID, tol=1e-6)
    with pytest.raises(ValueError):
        classify_equilibrium(bilinear(), (np.array([0.0]), np.array([0.0])),
                             [0.01, 0.1], GRID, tol=1e-6)


def test_hierarchy_consistency_across_games():
    rng = Rng(31)
    tol = 1e-6
    for game in shipped_games():
        for _ in range(10):
            point = _random_point(game, rng)
            gaps = [grid_dg_lambda(game, point, lam, GridSpec(201)) for lam in LADDER]
            for i, gi in enumerate(gaps):
                for j in range(i + 1, len(gaps)):
                    if gaps[j] < tol:
                        assert gi < tol


@pytest.mark.parametrize("game", shipped_games(), ids=lambda g: g.name)
def test_gap_lower_bounded_by_value_lift(game):
    # the penalized gap never falls below how far the configuration's
    # worst-case value sits above the best achievable worst-case value
    rng = Rng(51)
    nodes_d = np.linspace(game.d_box[0][0], game.d_box[0][1], 201)
    nodes_g = np.linspace(game.g_box[0][0], game.g_box[0][1], 201)
    v_dw_all = np.array([np.max(game.value(nodes_d[None, :], [g])) for g in nodes_g])
    for lam in (0.0, 0.1, 10.0):
        for _ in range(5):
            point = _random_point(game, rng)
            div = float(np.max(game.value(nodes_d[None, :], point[1].tolist()))
                        - v_dw_all.min())
            gap = grid_dg_lambda(game, point, lam, GridSpec(201))
            assert gap >= div - 1e-9


def test_small_neighbourhood_bound():
    # configurations whose unpenalized worst-case discriminator stays within
    # delta = sqrt(eps/lam) of the anchor obey: DG^lam - DIV < eps, with DIV
    # the lift of V_dw over its floor
    rng = Rng(41)
    games = [concave_quadratic(),
             concave_quadratic(d_box=((-0.2, 0.2),))]  # narrow box keeps d* close
    checked = 0
    for eps in (0.01, 0.1):
        for lam in (1e-3, 0.01, 0.1, 1.0, 10.0):
            delta = np.sqrt(eps / lam)
            for game in games:
                nodes_d = np.linspace(game.d_box[0][0], game.d_box[0][1], 201)
                nodes_g = np.linspace(game.g_box[0][0], game.g_box[0][1], 201)
                # max distance from anchor to the unpenalized argmax over all g
                for _ in range(4):
                    d0 = np.array([rng.uniform(*game.d_box[0], ())])
                    argmax_d = np.array([
                        nodes_d[np.argmax(game.value(nodes_d[None, :], [g]))]
                        for g in nodes_g])
                    if np.max(np.abs(argmax_d - d0[0])) >= delta:
                        continue
                    g0 = np.array([rng.uniform(*game.g_box[0], ())])
                    v_dw_all = np.array([
                        np.max(game.value(nodes_d[None, :], [g]))
                        for g in nodes_g])
                    div = np.max(game.value(nodes_d[None, :], g0.tolist())) - v_dw_all.min()
                    gap = grid_dg_lambda(game, (d0, g0), lam, GridSpec(201))
                    assert gap - div < eps + 1e-9
                    checked += 1
    assert checked > 0


# -- the grid search walks its grids in blocks, with the whole table's bytes --
# The formulas below are the grid oracles as they were, each on the whole grid
# and the whole (Nd, Ng) value table at once; they stay as the byte oracle.
# Each passes the game coordinate-first arrays: a grid's transpose, and a
# point as a column.


def _whole_box_grid(box, n):
    axes = [np.linspace(lo, hi, n) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _whole_table_dg(game, point, n):
    d0, g0 = (np.asarray(x, dtype=np.float64).ravel() for x in point)
    dd, gg = _whole_box_grid(game.d_box, n), _whole_box_grid(game.g_box, n)
    return float(np.max(game.value(dd.T, g0[:, None]))) - float(np.min(game.value(d0[:, None], gg.T)))


def _whole_table_v_lambda(game, anchor, g, lam, n):
    anchor, g = (np.asarray(x, dtype=np.float64).ravel() for x in (anchor, g))
    dd = _whole_box_grid(game.d_box, n)
    pen = np.sum((dd - anchor[None, :]) ** 2, axis=1)
    return float(np.max(game.value(dd.T, g[:, None]) - lam * pen))


def _whole_table_dg_lambda(game, point, lam, n):
    d0, g0 = (np.asarray(x, dtype=np.float64).ravel() for x in point)
    dd, gg = _whole_box_grid(game.d_box, n), _whole_box_grid(game.g_box, n)
    v_dw = float(np.max(game.value(dd.T, g0[:, None])))
    vals = game.value(dd.T[:, :, None], gg.T[:, None, :])  # (Nd, Ng)
    pen = np.sum((dd - d0[None, :]) ** 2, axis=1)
    return v_dw - float(np.min(np.max(vals - lam * pen[:, None], axis=0)))


def _singular():
    """V = d g / (d + g): nan at d = g = 0 and +-inf elsewhere on d = -g, both
    grid nodes of the symmetric box."""
    return ToyGame("singular", lambda d, g: d[0] * g[0] / (d[0] + g[0]),
                   ((-1.0, 1.0),), ((-1.0, 1.0),))


def _pole():
    """V = 2 d g - d^2 - 1 / (g - 0.5): -inf on the g = 0.5 column only, so
    every proximal gap off that column is +inf."""
    return ToyGame("pole", lambda d, g: 2.0 * d[0] * g[0] - d[0] * d[0] - 1.0 / (g[0] - 0.5),
                   ((-1.0, 1.0),), ((-1.0, 1.0),))


def _signed_zeros():
    """V = +-0 by the sign of sin(37 d + 11 g): every max and min is a signed
    zero, and which one depends on the order of the reduction."""
    return ToyGame("signed_zeros",
                   lambda d, g: np.copysign(0.0, np.sin(37.0 * d[0] + 11.0 * g[0])),
                   ((-1.0, 1.0),), ((-1.0, 1.0),))


def _grid_cases():
    # (game, grid points per axis, configurations): random points, grid nodes
    # (signed zeros on the bilinear axes) and the corners
    rng = np.random.default_rng(2405)
    for game, n in ([(g, 401) for g in shipped_games()] + [(g, 41) for g in shipped_games()]
                    + [(_coupled_2d(), 21), (_singular(), 41), (_pole(), 41),
                       (_signed_zeros(), 41), (_signed_zeros(), 401)]):
        nodes = [np.linspace(lo, hi, n) for lo, hi in game.d_box + game.g_box]
        points = [_random_point(game, rng) for _ in range(3)]
        for _ in range(3):
            pick = np.array([x[rng.integers(0, n)] for x in nodes])
            points.append((pick[:game.d_dim], pick[game.d_dim:]))
        points.append((np.zeros(game.d_dim), np.zeros(game.g_dim)))
        points.append((np.array([hi for _, hi in game.d_box]),
                       np.array([lo for lo, _ in game.g_box])))
        yield game, n, points


# _BLOCK_POINTS per case: the shipped size, then sizes that give every table a
# ragged last block, two-column blocks and many blocks on the d walks
_BLOCK_SIZES = (None, 401 * 7, 29, 2)


@pytest.mark.parametrize("block", _BLOCK_SIZES, ids=lambda b: f"block-{b or 'shipped'}")
def test_streamed_grid_oracles_keep_the_whole_tables_bytes(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(oracles_module, "_BLOCK_POINTS", block)
    for game, n, points in _grid_cases():
        grid = GridSpec(n)
        with np.errstate(all="ignore"):
            for point in points:
                assert _bits(grid_dg(game, point, grid)) == \
                    _bits(_whole_table_dg(game, point, n)), (game.name, n, point)
                for lam in (0.0, 0.1, 10.0):
                    want = _whole_table_dg_lambda(game, point, lam, n)
                    assert _bits(grid_dg_lambda(game, point, lam, grid)) == _bits(want), \
                        (game.name, n, point, lam)
                    assert _bits(grid_v_lambda(game, point[0], point[1], lam, grid)) == \
                        _bits(_whole_table_v_lambda(game, point[0], point[1], lam, n))


def test_the_byte_cases_reach_signed_zeros_non_finite_values_and_ragged_blocks():
    # what the byte test above relies on its cases to exercise
    with np.errstate(all="ignore"):
        saddle = (np.zeros(1), np.zeros(1))
        signs = {np.signbit(_whole_table_dg_lambda(_signed_zeros(), point, 0.0, n))
                 for game, n, points in _grid_cases() if game.name == "signed_zeros"
                 for point in points}
        assert signs == {True, False}
        assert np.isnan(_whole_table_dg_lambda(_singular(), saddle, 0.1, 41))
        assert np.isnan(_whole_table_dg(_singular(), saddle, 41))
        assert _whole_table_dg_lambda(_pole(), (np.array([0.3]), np.array([0.2])), 0.1, 41) \
            == np.inf
    lasts, widths = set(), set()
    for block in _BLOCK_SIZES:
        for game, n, _ in _grid_cases():
            width = max(2, (block or oracles_module._BLOCK_POINTS) // n ** game.d_dim)
            sizes = [b.stop - b.start for b in oracles_module._blocks(n ** game.g_dim, width)]
            lasts.add("short" if sizes[-1] < width else "long" if sizes[-1] > width else "even")
            widths.add(width)
    assert {"short", "long"} <= lasts  # ragged last blocks, one of them a lone point merged
    assert 2 in widths and len(widths) > 4


def _blocks_walked(call, monkeypatch):
    # the sizes of the blocks the grid oracles evaluate, in call order
    walked = []
    blocks = oracles_module._blocks

    def recording(total, width):
        for block in blocks(total, width):
            walked.append(block.stop - block.start)
            yield block

    monkeypatch.setattr(oracles_module, "_blocks", recording)
    call()
    return walked


def test_grid_dg_lambda_walks_g_in_tables_of_about_the_block_size(monkeypatch):
    game = bilinear()
    point = (np.array([0.3]), np.array([-0.2]))
    walked = _blocks_walked(lambda: grid_dg_lambda(game, point, 0.1, GRID), monkeypatch)
    width = oracles_module._BLOCK_POINTS // 401
    assert walked[0] == 401  # the v_dw walk over d: one block
    tables = walked[1:]
    assert tables == [width] * (len(tables) - 1) + [401 - width * (len(tables) - 1)]
    assert 2 <= tables[-1] <= width + 1
    assert max(tables) * 401 <= oracles_module._BLOCK_POINTS + 401


def test_classify_builds_each_table_once_for_its_whole_ladder(monkeypatch):
    calls = []

    def value(d, g):
        calls.append(np.broadcast_shapes(np.shape(d)[1:], np.shape(g)[1:]))
        return 2.0 * d[0] * g[0] - d[0] * d[0]

    game = ToyGame("counted", value, ((-1.0, 1.0),), ((-1.0, 1.0),))
    classify_equilibrium(game, (np.array([0.005]), np.array([0.0])), LADDER, GRID, tol=1e-6)
    tables = [shape for shape in calls if len(shape) == 2]
    assert sum(shape[1] for shape in tables) == 401  # every g column once, for 7 lambdas
    assert len(calls) - len(tables) == 2  # v_dw over d and v_gw over g, once each


@pytest.mark.parametrize("game,n", [(g, 401) for g in shipped_games()]
                         + [(_coupled_2d(), 11), (_singular(), 41), (_pole(), 41),
                            (_signed_zeros(), 41)],
                         ids=lambda x: getattr(x, "name", str(x)))
def test_classify_scores_its_ladder_as_one_grid_call_per_lambda(game, n):
    rng = np.random.default_rng(77)
    grid = GridSpec(n)
    points = [_random_point(game, rng) for _ in range(2)] + \
        [(np.zeros(game.d_dim), np.zeros(game.g_dim))]
    for point in points:
        with np.errstate(all="ignore"):
            out = classify_equilibrium(game, point, LADDER, grid, tol=1e-6)
            assert _bits(out.dg) == _bits(grid_dg(game, point, grid))
            assert [lam for lam, _ in out.dg_by_lambda] == LADDER
            for lam, gap in out.dg_by_lambda:
                assert _bits(gap) == _bits(grid_dg_lambda(game, point, lam, grid))
                assert _bits(gap) == _bits(_whole_table_dg_lambda(game, point, lam, n))


def test_grid_dg_lambda_peak_memory_stays_per_block():
    # tracemalloc peak of one call at 401 points per axis (numpy 2.4): 2.65 MB
    # when the whole 401 x 401 value table was built at once, 0.38 MB streamed
    # in tables of 12,288 entries
    game = concave_quadratic()
    point = (np.array([0.3]), np.array([-0.2]))
    grid_dg_lambda(game, point, 0.1, GRID)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        grid_dg_lambda(game, point, 0.1, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, peak


# -- grid oracles refuse what they cannot search ----------------------------


def _refuse_grids(monkeypatch):
    def built(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(oracles_module, "_box_grid", built)


_OK_D, _OK_G = np.array([0.1]), np.array([0.2])
_BAD_POINTS = [((np.array([0.1, 0.3]), _OK_G), "d"), ((_OK_D, np.array([0.2, 0.4])), "g"),
               ((np.array([]), _OK_G), "d"), ((_OK_D, np.zeros((2, 2))), "g")]


@pytest.mark.parametrize("point,which", _BAD_POINTS, ids=["d2", "g2", "d0", "g4"])
def test_grid_oracles_refuse_a_point_of_another_dimension(point, which, monkeypatch):
    _refuse_grids(monkeypatch)
    game = bilinear()
    calls = [lambda: grid_dg(game, point, GRID),
             lambda: grid_v_lambda(game, point[0], point[1], 0.1, GRID),
             lambda: grid_dg_lambda(game, point, 0.1, GRID),
             lambda: classify_equilibrium(game, point, LADDER, GRID, tol=1e-6),
             lambda: toy_value(game, *point)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{which} has"):
            call()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("which", ["d", "g"])
def test_toy_configurations_refuse_a_player_that_is_not_finite(which, value, monkeypatch):
    # refused where it enters: an estimator would otherwise fail at its
    # first Adam step (NonFiniteError('adam')) and a grid oracle return nan
    _refuse_grids(monkeypatch)
    game = bilinear()
    bad = np.array([value])
    point = (bad, _OK_G) if which == "d" else (_OK_D, bad)
    calls = [lambda: ToyGameState(game, *point),
             lambda: grid_dg(game, point, GRID),
             lambda: grid_v_lambda(game, point[0], point[1], 0.1, GRID),
             lambda: grid_dg_lambda(game, point, 0.1, GRID),
             lambda: classify_equilibrium(game, point, LADDER, GRID, tol=1e-6),
             lambda: toy_value(game, *point)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"{which} must be finite, got [{value}]")):
            call()


@pytest.mark.parametrize("lam", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_grid_oracles_refuse_a_negative_or_non_finite_lambda(lam, monkeypatch):
    _refuse_grids(monkeypatch)
    game = bilinear()
    point = (_OK_D, _OK_G)
    calls = [lambda: grid_v_lambda(game, _OK_D, _OK_G, lam, GRID),
             lambda: grid_dg_lambda(game, point, lam, GRID),
             lambda: classify_equilibrium(game, point, [0.0, 0.1, lam], GRID, tol=1e-6)]
    for call in calls:
        with pytest.raises(ValueError, match="^lambda must be finite and non-negative"):
            call()


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-6])
def test_classify_refuses_a_tolerance_that_is_not_finite_and_positive(tol, monkeypatch):
    _refuse_grids(monkeypatch)
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        classify_equilibrium(bilinear(), (_OK_D, _OK_G), LADDER, GRID, tol=tol)


_INFINITE_BOXES = [("d", ((-np.inf, 0.5),), ((-1.0, 1.0),)),
                   ("d", ((-1.0, 1.0), (0.0, np.inf)), ((-1.0, 1.0),)),
                   ("g", ((-1.0, 1.0),), ((-np.inf, np.inf),)),
                   ("g", ((-1.0, 1.0),), ((-1.0, 1.0), (-1.0, np.inf)))]


@pytest.mark.parametrize("which,d_box,g_box", _INFINITE_BOXES,
                         ids=["d_lo", "d_axis1_hi", "g_both", "g_axis1_hi"])
def test_grid_oracles_refuse_a_box_with_a_bound_that_is_not_finite(which, d_box, g_box):
    # ToyGame takes such a box (clipping works with it), but a grid over it
    # would hold nans; the oracle refuses it before any value is computed
    def value(d, g):
        raise AssertionError("a value was computed")

    game = ToyGame("unbounded", value, d_box, g_box)
    d, g = np.zeros(game.d_dim), np.zeros(game.g_dim)
    calls = [lambda: grid_dg(game, (d, g), GridSpec(11)),
             lambda: grid_dg_lambda(game, (d, g), 0.1, GridSpec(11)),
             lambda: classify_equilibrium(game, (d, g), LADDER, GridSpec(11), tol=1e-6)]
    if which == "d":  # grid_v_lambda searches the d grid alone
        calls.append(lambda: grid_v_lambda(game, d, g, 0.1, GridSpec(11)))
    axis = 1 if len(d_box if which == "d" else g_box) == 2 else 0
    for call in calls:
        with pytest.raises(ValueError, match=f"^the {which} box's axis {axis} has a bound "
                                             f"that is not finite"):
            call()
    assert game.clip_d(np.full(game.d_dim, 2.0)).shape == (game.d_dim,)


@pytest.mark.parametrize("count", [11.5, 11.0, "11", None])
def test_grid_spec_refuses_a_count_that_is_not_an_integer(count):
    with pytest.raises(ValueError, match="^points_per_dim must be an integer"):
        GridSpec(count)
    assert GridSpec(np.int64(11)).points_per_dim == 11


# -- divergence oracles -----------------------------------------------------


def _gauss1d(mu, var):
    dist = GaussianMixture([1.0], [[mu]], [[var]])
    return lambda x: density(dist, x)


def test_numeric_jsd_identical_is_zero():
    p = _gauss1d(0.0, 1.0)
    assert abs(numeric_jsd(p, p, [(-6.0, 6.0)], 2001)) < 1e-9


def test_numeric_jsd_far_apart_saturates_log2():
    p = _gauss1d(0.0, 1.0)
    q = _gauss1d(10.0, 1.0)
    val = numeric_jsd(p, q, [(-6.0, 16.0)], 4001)
    assert val == pytest.approx(np.log(2.0), abs=1e-6)


def test_numeric_jsd_symmetric():
    p = _gauss1d(0.0, 1.0)
    q = _gauss1d(1.0, 2.0)
    box = [(-8.0, 9.0)]
    assert numeric_jsd(p, q, box, 2001) == pytest.approx(
        numeric_jsd(q, p, box, 2001), abs=1e-12)


def test_numeric_fdiv_identical_is_zero():
    p = _gauss1d(0.0, 1.0)
    for name in ("kl", "pearson_chi2", "js_scaled"):
        val = numeric_fdiv(FGAN_FAMILIES[name], p, p, [(-6.0, 6.0)], 2001)
        assert abs(val) < 1e-9


def test_fdiv_js_family_equals_twice_jsd():
    p = _gauss1d(0.0, 1.0)
    q = _gauss1d(1.5, 0.7)
    box = [(-7.0, 8.0)]
    fdiv = numeric_fdiv(FGAN_FAMILIES["js_scaled"], p, q, box, 4001)
    jsd = numeric_jsd(p, q, box, 4001)
    assert fdiv == pytest.approx(2.0 * jsd, abs=1e-4)


def test_fdiv_kl_matches_gaussian_closed_form():
    # integrating p * f(q/p) with f = t log t yields KL(q || p)
    p = _gauss1d(0.0, 1.0)
    q = _gauss1d(0.5, 1.0)
    val = numeric_fdiv(FGAN_FAMILIES["kl"], p, q, [(-7.0, 7.5)], 4001)
    assert val == pytest.approx(0.125, abs=1e-4)  # (mu difference)^2 / 2


def _both_divergences(box, resolution):
    p, q = _gauss1d(0.0, 1.0), _gauss1d(0.5, 1.0)
    return [lambda: numeric_jsd(p, q, box, resolution),
            lambda: numeric_fdiv(FGAN_FAMILIES["kl"], p, q, box, resolution)]


@pytest.mark.parametrize("resolution", [1, 0, -3, 2.5])
def test_quadrature_refuses_fewer_than_two_points_per_axis(resolution):
    # at 1 point the trapezoid rule read 0.0; at 0 a 2-D box raised
    # ZeroDivisionError and a 1-D box failed inside np.concatenate
    for box in ([(-6.0, 6.0)], [(-6.0, 6.0), (-6.0, 6.0)]):
        for call in _both_divergences(box, resolution):
            with pytest.raises(ValueError, match="^resolution must be an integer of at least 2"):
                call()
    assert numeric_jsd(_gauss1d(0.0, 1.0), _gauss1d(0.5, 1.0), [(-6.0, 6.0)], 2) >= 0.0


@pytest.mark.parametrize("box", [[(6.0, -6.0)], [(-6.0, 6.0), (1.0, 1.0)]],
                         ids=["inverted", "empty-second-axis"])
def test_quadrature_refuses_an_axis_with_lo_not_below_hi(box):
    # an inverted box read a negative JSD: the trapezoid rule integrated backwards
    for call in _both_divergences(box, 101):
        with pytest.raises(ValueError, match="^each grid_box axis needs finite lo < hi"):
            call()


@pytest.mark.parametrize("box", [[(-np.inf, 6.0)], [(-6.0, np.nan)], [(-6.0, 6.0), (0.0, np.inf)]],
                         ids=["-inf", "nan", "inf-second-axis"])
def test_quadrature_refuses_a_non_finite_axis(box):
    for call in _both_divergences(box, 101):
        with pytest.raises(ValueError, match="^each grid_box axis needs finite lo < hi"):
            call()


def test_quadrature_refuses_a_box_without_axes():
    # it raised IndexError from inside the quadrature loop
    for call in _both_divergences([], 101):
        with pytest.raises(ValueError, match="^grid_box needs at least one axis"):
            call()


# -- the quadrature is scipy's trapezoid rule on the whole grid, bit for bit --
# scipy.integrate.trapezoid over the whole grid stays the reference here; the
# library streams the same expression in numpy over blocks of grid rows, so
# that importing it loads no scipy.integrate and no array spans the grid.


def _scipy_integrate(values, axes):
    from scipy.integrate import trapezoid

    out = values
    for axis_vals in reversed(axes):
        out = trapezoid(out, axis_vals, axis=-1)
    return float(out)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _streamed(values, axes):
    """The library's streamed quadrature of preset grid values, and the number
    of points in each block it evaluated."""
    blocks = []

    def preset(pts):  # values[i, j, ...] at grid point (axes[0][i], axes[1][j], ...)
        idx = tuple(np.searchsorted(x, pts[:, k]) for k, x in enumerate(axes))
        assert all(np.array_equal(x[i], pts[:, k]) for k, (x, i) in enumerate(zip(axes, idx)))
        blocks.append(len(pts))
        return values[idx]

    got = oracles_module._grid_quadrature(lambda pv, qv: pv, preset, preset, axes)
    return got, blocks[::2]  # p and q each see every block


def _axes(shape, uniform, gen):
    if uniform:
        return [np.linspace(-3.0, 2.5, n) for n in shape]
    return [np.sort(np.concatenate([[-3.0, 2.5], gen.uniform(-3.0, 2.5, n - 2)]))
            for n in shape]


@pytest.mark.parametrize("special", [None, 0.0, np.inf, np.nan, "inf-inf"])
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("dim,n", [(1, 3), (1, 4), (1, 801), (1, 1001),
                                   (2, 3), (2, 4), (2, 801), (2, 1001),
                                   (3, 3), (3, 4), (3, 41)])
def test_integrate_carries_scipy_trapezoids_bytes(dim, n, uniform, special):
    gen = np.random.default_rng(1000 * dim + n)
    axes = _axes((n,) * dim, uniform, gen)
    values = gen.exponential(size=(n,) * dim)
    flat = values.reshape(-1)
    cells = gen.choice(flat.size, size=max(1, flat.size // 10), replace=False)
    if special == "inf-inf":
        flat[cells[0]], flat[cells[-1]] = np.inf, -np.inf
    elif special is not None:
        flat[cells] = special
    with np.errstate(invalid="ignore"):
        got, _ = _streamed(values, axes)
        want = _scipy_integrate(values, axes)
    assert _bits(got) == _bits(want)


def _block_cases():
    block = oracles_module._BLOCK_POINTS
    rows = block // 801
    assert 801 % rows  # the last block is short
    yield "ragged-rows", (801, 801), [rows * 801] * (801 // rows) + [801 * (801 % rows)]
    yield "row-per-block-2d", (5, block + 5), [block + 5] * 5
    yield "row-per-block-3d", (3, 129, 129), [129 * 129] * 3
    yield "long-1d", (3 * block + 7,), [block] * 3 + [7]


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("case", list(_block_cases()), ids=lambda case: case[0])
def test_block_edges_keep_scipys_whole_grid_bytes(case, uniform):
    _, shape, want_blocks = case
    gen = np.random.default_rng(sum(shape))
    axes = _axes(shape, uniform, gen)
    values = gen.exponential(size=shape)
    got, blocks = _streamed(values, axes)
    assert blocks == want_blocks
    assert _bits(got) == _bits(_scipy_integrate(values, axes))


def _dens(mixture):
    return lambda x: density(mixture, x)


def test_fdiv_integrand_not_finite_in_the_last_block_raises():
    box, resolution = ((-8.0, 8.0), (-8.0, 8.0)), 801
    p = _dens(GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]]))
    blocks = []

    def q(pts):  # infinite at the grid's last point only
        blocks.append(len(pts))
        return np.where((pts[:, 0] == 8.0) & (pts[:, 1] == 8.0), np.inf, p(pts))

    with pytest.raises(FloatingPointError) as err:
        numeric_fdiv(FGAN_FAMILIES["kl"], p, q, box, resolution)
    assert str(err.value) == "f-divergence integrand is not finite on the grid"
    rows = oracles_module._BLOCK_POINTS // resolution
    assert len(blocks) == -(-resolution // rows)  # every block was evaluated


def _toy_oracles_pairs(seed):
    # the mixture pairs perfbench's toy_oracles workload draws: a two-mode
    # mixture against a Gaussian for the JSD, two Gaussians for the f-divergence
    gen = np.random.default_rng(seed)

    def gaussian():
        return GaussianMixture([1.0], gen.uniform(-1.5, 1.5, (1, 2)),
                               gen.uniform(0.3, 1.0, (1, 2)))

    w = gen.uniform(0.3, 0.7)
    two_mode = GaussianMixture([w, 1.0 - w], gen.uniform(-1.5, 1.5, (2, 2)),
                               gen.uniform(0.3, 1.0, (2, 2)))
    jsd_pair = (two_mode, gaussian())
    return jsd_pair, (gaussian(), gaussian())


def _whole_grid(integrand, p, q, box, resolution):
    """The divergence quadrature as it was: p and q on every grid point at
    once, then scipy's trapezoid rule on the whole grid."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pv, qv = (np.asarray(fn(pts), dtype=np.float64).reshape((resolution,) * len(box))
              for fn in (p, q))
    return _scipy_integrate(integrand(pv, qv), axes)


def _jsd_integrand(pv, qv):
    m = 0.5 * (pv + qv)
    return 0.5 * (rel_entr(pv, m) + rel_entr(qv, m))


def _fdiv_integrand(family):
    def integrand(pv, qv):
        safe_p = np.maximum(pv, 1e-300)
        with np.errstate(all="ignore"):
            out = safe_p * family.f(qv / safe_p)
        return np.where((pv <= 1e-300) & (qv <= 1e-300), 0.0, out)

    return integrand


@pytest.mark.parametrize("seed", [3, 43])
def test_divergences_keep_the_bytes_of_scipys_quadrature(seed):
    box, resolution = ((-8.0, 8.0), (-8.0, 8.0)), 801
    (jp, jq), (fp, fq) = _toy_oracles_pairs(seed)
    got = numeric_jsd(_dens(jp), _dens(jq), box, resolution)
    want = _whole_grid(_jsd_integrand, _dens(jp), _dens(jq), box, resolution)
    assert _bits(got) == _bits(want)
    for name, family in FGAN_FAMILIES.items():
        got = numeric_fdiv(family, _dens(fp), _dens(fq), box, resolution)
        want = _whole_grid(_fdiv_integrand(family), _dens(fp), _dens(fq), box, resolution)
        assert _bits(got) == _bits(want), name


def test_divergence_quadrature_peak_memory_stays_per_block():
    # tracemalloc peak of one call on the toy_oracles 801^2 pair shape (seed
    # 83, numpy 2.4): 56.5 MB for numeric_jsd and 51.3 MB for numeric_fdiv (KL)
    # when the whole grid was evaluated at once, 1.44 MB for each streamed in
    # blocks of 16,384 points, 0.91 MB in blocks of 12,288 on one point buffer
    box, resolution = ((-8.0, 8.0), (-8.0, 8.0)), 801
    (jp, jq), (fp, fq) = _toy_oracles_pairs(83)
    calls = ((numeric_jsd, (_dens(jp), _dens(jq))),
             (numeric_fdiv, (FGAN_FAMILIES["kl"], _dens(fp), _dens(fq))))
    for fn, args in calls:
        fn(*args, box, resolution)  # caches and lazy set-up outside the measurement
        tracemalloc.start()
        try:
            fn(*args, box, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, (fn.__name__, peak)


def test_importing_the_library_loads_neither_scipy_integrate_nor_the_graph_engine():
    # the graph engine is the kernel's reference oracle, loaded only when called
    code = ("import sys\n"
            "import proxgap.harness.cli, proxgap.probes, proxgap.oracles, proxgap.gapmetrics\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'],\n"
            "                                     ['scipy', 'sparse'], ['scipy', 'special'])\n"
            "             or m == 'proxgap.diffcore.engine'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_histogram_jsd_identical_sets():
    x = Rng(0).normal(1000)
    assert jsd_from_samples(x, x, bins=64) == pytest.approx(0.0, abs=1e-9)


def test_histogram_jsd_far_gaussians():
    rng = Rng(1)
    a = rng.normal(10_000)
    b = rng.normal(10_000) + 10.0
    val = jsd_from_samples(a, b, bins=64)
    assert val == pytest.approx(np.log(2.0), abs=0.02)


def test_histogram_jsd_in_range():
    rng = Rng(2)
    for _ in range(5):
        a = rng.normal((500, 2))
        b = rng.normal((500, 2)) * 1.5
        val = jsd_from_samples(a, b, bins=16)
        assert 0.0 <= val <= np.log(2.0) + 1e-12


def test_hist_jsd_bins_on_the_real_extent_widened_by_one():
    rng = Rng(3)
    real = rng.normal((400, 2)) * [1.0, 0.3]
    fake = rng.normal((300, 2)) * 2.0 + 0.5
    box = [(real[:, 0].min() - 1.0, real[:, 0].max() + 1.0),
           (real[:, 1].min() - 1.0, real[:, 1].max() + 1.0)]
    assert hist_jsd(real, fake, 16) == jsd_from_samples(real, fake, bins=16, box=box)
    # the box follows the real rows alone
    assert hist_jsd(real, fake * 3.0, 16) == jsd_from_samples(real, fake * 3.0, bins=16,
                                                              box=box)


def test_w1_point_masses():
    assert wasserstein1_1d([0.0], [3.0]) == pytest.approx(3.0)


def test_w1_identical_multisets():
    x = [0.3, -1.2, 0.3, 5.0]
    assert wasserstein1_1d(x, x) == 0.0


def test_w1_uniform_shift():
    rng = Rng(3)
    a = rng.uniform(0.0, 1.0, 10_000)
    b = rng.uniform(0.0, 1.0, 10_000) + 0.5
    assert wasserstein1_1d(a, b) == pytest.approx(0.5, abs=0.02)


def test_w1_resamples_unequal_counts():
    rng = Rng(4)
    a = rng.normal(5000)
    b = rng.normal(3000) + 1.0
    assert wasserstein1_1d(a, b) == pytest.approx(1.0, abs=0.05)


def test_w1_rejects_empty():
    with pytest.raises(ValueError):
        wasserstein1_1d([], [1.0])


# -- toy derivatives ---------------------------------------------------------


def test_toy_grads_exact_for_polynomials():
    game = saddle_shift(0.3, -0.4)
    d, g = np.array([0.5]), np.array([-0.2])
    assert toy_value_and_grad(game, d, g, "d")[1][0] == pytest.approx(g[0] + 0.4, abs=1e-9)
    assert toy_value_and_grad(game, d, g, "g")[1][0] == pytest.approx(d[0] - 0.3, abs=1e-9)


# game -> (dV/dd, dV/dg) in closed form
_CLOSED_FORM_GRADS = {
    "bilinear": lambda d, g: (g, d),
    "concave_quadratic": lambda d, g: (2.0 * g - 2.0 * d, 2.0 * d),
    "saddle_shift": lambda d, g: (g + 0.4, d - 0.3),
    "coupled_2d": lambda d, g: (2.0 * d * g + np.array([g[1], 0.0]),
                                d * d + np.array([0.0, d[0]])),
}


def _loop_grad(game, d, g, wrt):
    """The per-coordinate central-difference loop, one game.value call per shift."""
    def value(v):
        return toy_value(game, v, g) if wrt == "d" else toy_value(game, d, v)

    x = d if wrt == "d" else g
    grad = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        up[i] += _TOY_FD_H
        down = x.copy()
        down[i] -= _TOY_FD_H
        grad[i] = (value(up) - value(down)) / (2.0 * _TOY_FD_H)
    return grad


@pytest.mark.parametrize("game", shipped_games() + (_coupled_2d(),), ids=lambda g: g.name)
def test_toy_stencil_matches_closed_form_and_the_loop(game):
    rng = np.random.default_rng(5)
    for _ in range(20):
        d, g = _random_point(game, rng)
        exact = dict(zip("dg", _CLOSED_FORM_GRADS[game.name](d, g)))
        for wrt in ("d", "g"):
            value, grad = toy_value_and_grad(game, d, g, wrt)
            assert value == toy_value(game, d, g)
            assert grad.shape == exact[wrt].shape
            assert np.allclose(grad, exact[wrt], rtol=0.0, atol=1e-8)
            assert [v.hex() for v in grad.tolist()] == \
                [v.hex() for v in _loop_grad(game, d, g, wrt).tolist()]


def test_toy_stencil_of_a_value_that_ignores_the_argument_is_zero():
    game = ToyGame("g_only", lambda d, g: g[0] * g[0] + g[1] * g[1],
                   ((-1.0, 1.0),) * 3, ((-1.0, 1.0),) * 2)
    value, grad = toy_value_and_grad(game, np.array([0.1, 0.2, 0.3]), np.array([0.5, -0.5]), "d")
    assert value == pytest.approx(0.5)
    assert np.array_equal(grad, np.zeros(3))


def test_a_toy_value_that_raises_in_floats_is_named_value():
    # Python floats raise where numpy gives inf or nan: toy_value, the
    # stencil's value and its partials in either player name the op "value"
    p = 0.5 + _TOY_FD_H  # the +h row at d = 0.5
    pole = ToyGame("pole", lambda d, g: 1.0 / (d[0] - p) + g[0], ((-1.0, 1.0),), ((-1.0, 1.0),))
    huge = ToyGame("huge", lambda d, g: (d[0] * 1e300) ** 2 + g[0],
                   ((-1.0, 1.0),), ((-1.0, 1.0),))
    for game, fault in ((pole, ZeroDivisionError), (huge, OverflowError)):
        for call in (lambda: toy_value(game, [p], [0.0]),
                     lambda: toy_stencil(game, [0.0], "d", 1)[1]([p]),
                     lambda: toy_stencil(game, [0.0], "d", 1)[0]([0.5]),
                     lambda: toy_stencil(game, [p], "g", 1)[0]([0.0])):
            with pytest.raises(NonFiniteError) as err:
                call()
            assert err.value.op == "value" and isinstance(err.value.__cause__, fault)


# coordinates for the byte pin: signed zeros, and +-h, whose stencil rows
# land on a zero
_PIN_COORDS = (-0.0, 0.0, _TOY_FD_H, -_TOY_FD_H, 0.3, -1.0)


def test_float_stencil_keeps_the_stacked_stencils_bytes():
    # the float stencil against the stacked numpy one, its byte oracle, at
    # every point of each game's dimensions drawn from _PIN_COORDS
    zero_signs = set()
    for game in shipped_games() + (_coupled_2d(), _signed_zeros()):
        dims = game.d_dim + game.g_dim
        for coords in np.array(np.meshgrid(*[_PIN_COORDS] * dims)).reshape(dims, -1).T:
            d, g = coords[:game.d_dim], coords[game.d_dim:]
            for wrt in "dg":
                value, grad = toy_value_and_grad(game, d, g, wrt)
                want_value, want_grad = stacked_toy_value_and_grad(game, d, g, wrt)
                assert np.float64(value).tobytes() == np.float64(want_value).tobytes(), \
                    (game.name, d, g, wrt)
                assert grad.tobytes() == want_grad.tobytes(), (game.name, d, g, wrt)
                zero_signs |= {np.signbit(v) for v in (value, *grad.tolist()) if v == 0.0}
    assert zero_signs == {True, False}  # both signed zeros reached the comparison


_CLIP_VALUES = (-0.0, 0.0, np.inf, -np.inf, np.nan, 0.5, -0.5, 1e308, -5e-324)


@pytest.mark.parametrize("box", [((-1.0, 1.0),), ((0.0, 1.0),), ((-2.0, -0.0),),
                                 ((-1.0, 1.0), (0.0, 3.0)), ((-np.inf, 0.5), (-0.5, np.inf))],
                         ids=["sym", "zero-lo", "zero-hi", "2d", "2d-open"])
def test_toy_clip_carries_ndarray_clips_bytes(box):
    game = ToyGame("clip", lambda d, g: sum(dj * gj for dj, gj in zip(d, g)), box, box)
    lo, hi = np.array(box).T
    # the toy searches' one float clip: the projections, and the inner
    # ascent's float step at rate 1 along -0.0, its clip alone since v + -0.0
    # is v; each from a list of floats, or from an array (a search's start)
    ops = _ops_for(ToyGameState(game, np.zeros(len(box)), np.zeros(len(box))), None, None)
    still = [-0.0] * len(box)
    float_clips = (ops.project_d, ops.project_g, lambda x: ops.ascend_d(x, 1.0, still))
    values = _CLIP_VALUES + tuple(lo) + tuple(hi)  # the bounds themselves too
    for combo in np.array(np.meshgrid(*[values] * len(box))).reshape(len(box), -1).T:
        want = combo.clip(lo, hi).tobytes()
        assert game.clip_d(combo).tobytes() == want
        assert game.clip_g(combo).tobytes() == want
        assert game.clip_d(list(combo)).tobytes() == want
        for clip in float_clips:
            for start in (combo.tolist(), combo):
                step = clip(start)
                assert [type(v) for v in step] == [float] * len(box)
                assert np.array(step).tobytes() == want, (combo, box)
