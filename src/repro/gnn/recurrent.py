"""Gated recurrent unit used to track the LDG's evolutionary features (Eq. 15-18)."""

from __future__ import annotations

import numpy as np

from repro.nn import Module, Parameter, Tensor
from repro.nn.functional import sigmoid, tanh

__all__ = ["GRUCell"]


class GRUCell(Module):
    """A GRU cell operating on per-node feature matrices.

    The LDG encoder feeds the GCN output of each time slice (``U_t``) together
    with the previous evolutionary state (``h_{t-1}``) through update and reset
    gates (Eq. 15-16), computes the candidate state (Eq. 17) and interpolates
    (Eq. 18).  The cell itself is adjacency-free and row-local: the per-slice
    topology is consumed by the GCN feeding it, and a ``(B, n, d)`` stack of
    samples steps like each sample alone.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

        def init(rows: int, cols: int) -> Parameter:
            limit = np.sqrt(6.0 / (rows + cols))
            return Parameter(rng.uniform(-limit, limit, size=(rows, cols)))

        # Update gate (Eq. 15), reset gate (Eq. 16) and candidate (Eq. 17) weights.
        self.w_update = init(input_dim, hidden_dim)
        self.v_update = init(hidden_dim, hidden_dim)
        self.w_reset = init(input_dim, hidden_dim)
        self.v_reset = init(hidden_dim, hidden_dim)
        self.w_candidate = init(input_dim, hidden_dim)
        self.v_candidate = init(hidden_dim, hidden_dim)
        self.bias_update = Parameter(np.zeros(hidden_dim))
        self.bias_reset = Parameter(np.zeros(hidden_dim))
        self.bias_candidate = Parameter(np.zeros(hidden_dim))

    def forward(self, inputs: Tensor, hidden: Tensor) -> Tensor:
        """One step: combine topological features ``inputs`` with state ``hidden``."""
        update = sigmoid(inputs @ self.w_update + hidden @ self.v_update + self.bias_update)
        reset = sigmoid(inputs @ self.w_reset + hidden @ self.v_reset + self.bias_reset)
        candidate = tanh(inputs @ self.w_candidate
                         + (reset * hidden) @ self.v_candidate
                         + self.bias_candidate)
        return (1.0 - update) * hidden + update * candidate

    def initial_state(self, num_nodes: int) -> Tensor:
        """Zero evolutionary state for ``num_nodes`` nodes."""
        return Tensor(np.zeros((num_nodes, self.hidden_dim)))
