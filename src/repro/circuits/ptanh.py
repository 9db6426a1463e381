"""Printed tanh-like activation circuit (Fig. 3b).

Transfer characteristic (Sec. II-B):

    V_out = ptanh(V_in) = η₁ + η₂ · tanh((V_in − η₃) · η₄)

The η parameters are determined by the component values
``q^A = [R₁, R₂, T₁, T₂]`` of the printed circuit; following the
learnable-nonlinear-circuit formulation of the pNC literature [12] we
train the η directly (with physically-plausible initialisation) and
subject each to multiplicative process variation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, printed_tanh
from ..nn.module import Module, Parameter
from .variation import VariationSampler, ideal_sampler

__all__ = ["PrintedTanh"]


class PrintedTanh(Module):
    """Per-neuron learnable printed tanh activation with variation.

    Parameters
    ----------
    num_neurons:
        Independent activation circuits (one per crossbar column).
    sampler:
        Variation source; ideal when omitted.
    rng:
        Initialisation generator; η₂ (output swing) and η₄ (input gain)
        start near the printed circuit's measured characteristic,
        η₁/η₃ (offsets) near zero.
    """

    def __init__(
        self,
        num_neurons: int,
        sampler: Optional[VariationSampler] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_neurons <= 0:
            raise ValueError("num_neurons must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_neurons = num_neurons
        self.sampler = sampler if sampler is not None else ideal_sampler()
        self.eta1 = Parameter(rng.normal(0.0, 0.02, size=num_neurons))
        self.eta2 = Parameter(rng.uniform(0.8, 1.2, size=num_neurons))
        self.eta3 = Parameter(rng.normal(0.0, 0.02, size=num_neurons))
        self.eta4 = Parameter(rng.uniform(1.5, 2.5, size=num_neurons))

    def forward(self, x: Tensor) -> Tensor:
        """Apply the per-neuron nonlinearity.

        ``x`` has shape ``(batch, num_neurons)``; each column uses its
        own η set with a fresh variation draw.  Inside a batched-draws
        sampler context a leading Monte-Carlo axis is also accepted
        (``(draws, batch, num_neurons)``), with one η draw per
        Monte-Carlo instance.
        """
        if x.ndim not in (2, 3) or x.shape[-1] != self.num_neurons:
            raise ValueError(f"expected (batch, {self.num_neurons}), got {x.shape}")
        if x.ndim == 3 and self.sampler.draws is None:
            raise ValueError(
                "3-D ptanh input requires an active batched-draws sampler context"
            )
        n = self.num_neurons
        e1 = Tensor(self.sampler.epsilon((n,)))
        e2 = Tensor(self.sampler.epsilon((n,)))
        e3 = Tensor(self.sampler.epsilon((n,)))
        e4 = Tensor(self.sampler.epsilon((n,)))
        if e1.ndim == 2:
            # (draws, n) -> (draws, 1, n): broadcast over the batch axis.
            e1, e2, e3, e4 = (e.unsqueeze(1) for e in (e1, e2, e3, e4))
        # The (n,)-sized η variation stays in Tensor ops; the full-size
        # transfer is one fused node.
        return printed_tanh(
            x, self.eta1 * e1, self.eta2 * e2, self.eta3 * e3, self.eta4 * e4
        )

    def __repr__(self) -> str:
        return f"PrintedTanh(num_neurons={self.num_neurons})"
