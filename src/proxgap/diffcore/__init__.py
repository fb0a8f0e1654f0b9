"""Differentiable computation core: networks, gradients, Adam, eigen probes."""

from .engine import (
    NonFiniteError,
    Tensor,
    exp,
    finite_diff_grad,
    grad_params,
    log,
    softplus,
)
from .eigen import EigenResult, hvp, top_k_eigenvalues
from .network import (
    MlpWorkspace,
    NetworkSpec,
    ParamVector,
    finite_value_and_grad,
    forward,
    forward_graph,
    init_network,
    input_grad_batch,
    input_grad_columns,
    mlp_backward,
    mlp_forward,
)
from .optim import AdamState, adam_init, adam_step
from .rng import Rng

__all__ = [
    "AdamState",
    "EigenResult",
    "MlpWorkspace",
    "NetworkSpec",
    "NonFiniteError",
    "ParamVector",
    "Rng",
    "Tensor",
    "adam_init",
    "adam_step",
    "exp",
    "finite_diff_grad",
    "finite_value_and_grad",
    "forward",
    "forward_graph",
    "grad_params",
    "hvp",
    "init_network",
    "input_grad_batch",
    "input_grad_columns",
    "log",
    "mlp_backward",
    "mlp_forward",
    "softplus",
    "top_k_eigenvalues",
]
