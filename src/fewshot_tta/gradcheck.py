"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, no_grad

# the central-difference step
H = 1e-5


@dataclass
class FiniteDiffReport:
    """Outcome of one gradient check."""

    max_rel_err: float
    worst_param: str
    worst_index: tuple
    analytic_at_worst: float
    numeric_at_worst: float
    coords_checked: int

    def ok(self, tolerance: float) -> bool:
        return self.max_rel_err < tolerance


def _rel_err(a: float, n: float) -> float:
    scale = max(abs(a), abs(n))
    diff = abs(a - n)
    # Below this scale the H^2 truncation noise dominates any relative measure.
    if scale < 1e-6:
        return diff
    return diff / scale


def finite_diff_check(fn, params: dict[str, Tensor]) -> FiniteDiffReport:
    """Compare analytic gradients of a scalar function to central differences.

    ``fn`` must be a deterministic zero-argument callable returning a scalar
    Tensor computed from ``params``. Every coordinate is probed, at step H.
    """
    for p in params.values():
        p.grad = None
    out = fn()
    if out.data.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued function")
    out.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    worst = FiniteDiffReport(0.0, "", (), 0.0, 0.0, 0)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for c in range(flat.size):
            orig = flat[c]
            flat[c] = orig + H
            with no_grad():
                f_plus = fn().item()
            flat[c] = orig - H
            with no_grad():
                f_minus = fn().item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * H)
            err = _rel_err(a_flat[c], numeric)
            worst.coords_checked += 1
            if err > worst.max_rel_err:
                worst.max_rel_err = err
                worst.worst_param = name
                worst.worst_index = np.unravel_index(c, p.data.shape)
                worst.analytic_at_worst = float(a_flat[c])
                worst.numeric_at_worst = float(numeric)
    return worst
