"""Test helpers: the toy stencil applied once, as V and its gradient, and the
former stacked stencil that is its byte oracle."""

import numpy as np

from proxgap.oracles import _TOY_FD_H, toy_stencil


def toy_value_and_grad(game, d, g, wrt: str):
    """V(d, g) and its central-difference gradient in ``wrt`` ("d" or "g"): the
    :func:`proxgap.oracles.toy_stencil` against the other player, applied once."""
    x, fixed = (d, g) if wrt == "d" else (g, d)
    x = np.asarray(x, dtype=np.float64).ravel()
    partials, value = toy_stencil(game, fixed, wrt, x.size)
    return value(x), np.array(partials(x))


def stacked_toy_value_and_grad(game, d, g, wrt: str):
    """The toy stencil as it was, in numpy: the rows ``x + offsets`` (0,
    +h e_j, -h e_j) stacked, one ``game.value`` over them, coordinate-first
    and broadcast against the fixed player, and (up - down) / 2h.  A value
    that ignores x comes back as one entry, broadcast over the rows."""
    d = np.asarray(d, dtype=np.float64).ravel()
    g = np.asarray(g, dtype=np.float64).ravel()
    x = d if wrt == "d" else g
    shift = _TOY_FD_H * np.eye(x.size)
    rows = (x + np.vstack([np.zeros(x.size), shift, -shift])).T
    vals = game.value(rows, g[:, None]) if wrt == "d" else game.value(d[:, None], rows)
    vals = np.broadcast_to(vals, rows.shape[1:])
    return float(vals[0]), (vals[1:x.size + 1] - vals[x.size + 1:]) / (2.0 * _TOY_FD_H)
