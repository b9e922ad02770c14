"""Adam optimizer over named parameter dictionaries."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

logger = logging.getLogger(__name__)

# the moment decay rates and the denominator's smoothing term of every Adam
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Moment buffers and step counter; one entry per named parameter."""

    lr: float
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0
    skipped_steps: int = 0


class Adam:
    """Standard Adam with bias correction, at BETA1, BETA2 and EPS.

    An update with any non-finite gradient is skipped entirely (parameters,
    moments and step counter untouched) and counted in ``skipped_steps``.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        if not 0 < lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        self.params = dict(params)
        self.state = AdamState(lr=lr)
        for name, p in self.params.items():
            self.state.first_moment[name] = np.zeros_like(p.data)
            self.state.second_moment[name] = np.zeros_like(p.data)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def minimize(self, loss: Tensor) -> float:
        """One update from a scalar loss: zero_grad, backward and ``step``,
        run only when the loss is finite. Returns the loss value either way.
        """
        value = loss.item()
        if np.isfinite(value):
            self.zero_grad()
            loss.backward()
            self.step()
        return value

    def step(self) -> bool:
        """Apply one update from the current ``.grad`` buffers.

        Returns True if the update was applied, False if it was skipped
        because a gradient contained NaN or Inf. A missing gradient is
        treated as zero.
        """
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {name!r} shape {p.data.shape}")
            if not np.all(np.isfinite(g)):
                self.state.skipped_steps += 1
                logger.warning("non-finite gradient for %r, skipping update (skipped=%d)",
                               name, self.state.skipped_steps)
                return False
            grads[name] = g

        st = self.state
        st.step_count += 1
        t = st.step_count
        bias1 = 1.0 - BETA1 ** t
        bias2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = grads[name]
            m = st.first_moment[name]
            v = st.second_moment[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= st.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
        return True
