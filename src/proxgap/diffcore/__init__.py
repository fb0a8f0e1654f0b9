"""Differentiable computation core: networks, gradients, Adam, eigen probes.

The package exports the path that runs: the fused kernel and its workspace,
Adam, the Lanczos probe and the random stream.  The graph engine, the kernel's
reference oracle, is not imported here: ``Tensor``, ``grad_params`` and
``finite_diff_grad`` live in ``proxgap.diffcore.engine``, and the graph
versions of the kernel, ``forward_graph`` and ``input_grad_columns``, in
``proxgap.diffcore.network``.
"""

from .eigen import EigenResult, hvp, top_k_eigenvalues
from .network import (
    MlpWorkspace,
    NetworkSpec,
    NonFiniteError,
    ParamVector,
    finite_value_and_grad,
    forward,
    init_network,
    input_grad_batch,
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
    "adam_init",
    "adam_step",
    "finite_value_and_grad",
    "forward",
    "hvp",
    "init_network",
    "input_grad_batch",
    "mlp_backward",
    "mlp_forward",
    "top_k_eigenvalues",
]
