"""Build a small computation graph, backpropagate, and cross-check the
gradients with central finite differences."""

import numpy as np

from fewshot_tta.gradcheck import finite_diff_check
from fewshot_tta.tensor import Tensor, add, matmul, mul, relu, softmax_cross_entropy, tsum

rng = np.random.default_rng(0)

# a one-layer classifier on random features
x = rng.standard_normal((8, 5))
y = rng.integers(0, 3, size=8)
w = Tensor(rng.standard_normal((5, 3)) * 0.3, requires_grad=True)
b = Tensor(np.zeros(3), requires_grad=True)

loss = softmax_cross_entropy(add(matmul(x, w), b), y)
loss.backward()
print(f"loss {loss.item():.4f}")
print(f"dL/dw row 0: {np.round(w.grad[0], 4)}")
print(f"dL/db:       {np.round(b.grad, 4)}")

# the same loss as a zero-arg callable, probed coordinate by coordinate
report = finite_diff_check(lambda: softmax_cross_entropy(add(matmul(x, w), b), y),
                           {"w": w, "b": b})
print(f"finite-diff max rel err {report.max_rel_err:.2e} "
      f"over {report.coords_checked} coordinates -> ok={report.ok(1e-4)}")

# nonlinearities keep their gradients exact away from the kink
h = Tensor(rng.standard_normal((4, 4)) + 0.5, requires_grad=True)
weights = rng.standard_normal((4, 4))
report = finite_diff_check(lambda: tsum(mul(relu(h), weights)), {"h": h})
print(f"relu chain   max rel err {report.max_rel_err:.2e}")
