"""Test helper: the toy stencil applied once, as V and its gradient."""

import numpy as np

from proxgap.oracles import toy_stencil


def toy_value_and_grad(game, d, g, wrt: str):
    """V(d, g) and its central-difference gradient in ``wrt`` ("d" or "g"): the
    :func:`proxgap.oracles.toy_stencil` against the other player, applied once."""
    x, fixed = (d, g) if wrt == "d" else (g, d)
    x = np.asarray(x, dtype=np.float64).ravel()
    value, grad = toy_stencil(game, fixed, wrt, x.size)(x)
    return float(value), grad
