"""Differentiable computation core: networks, gradients, Adam, eigen probes."""

from .engine import (
    NonFiniteError,
    Tensor,
    as_tensor,
    exp,
    finite_diff_grad,
    grad_params,
    log,
    softplus,
)
from .eigen import EigenResult, hvp, top_k_eigenvalues
from .network import (
    NetworkSpec,
    ParamVector,
    forward,
    forward_graph,
    init_network,
    input_grad_batch,
    input_grad_columns,
)
from .optim import AdamState, adam_init, adam_step
from .rng import Rng

__all__ = [
    "AdamState",
    "EigenResult",
    "NetworkSpec",
    "NonFiniteError",
    "ParamVector",
    "Rng",
    "Tensor",
    "adam_init",
    "adam_step",
    "as_tensor",
    "exp",
    "finite_diff_grad",
    "forward",
    "forward_graph",
    "grad_params",
    "hvp",
    "init_network",
    "input_grad_batch",
    "input_grad_columns",
    "log",
    "softplus",
    "top_k_eigenvalues",
]
