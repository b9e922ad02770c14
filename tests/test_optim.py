"""Adam update semantics, including the non-finite skip path."""

import inspect

import numpy as np
import pytest

from fewshot_tta import optim
from fewshot_tta.gradcheck import finite_diff_check
from fewshot_tta.optim import Adam
from fewshot_tta.tensor import Tensor, mul, tsum

import oracles


def make_param(value):
    return {"w": Tensor(np.array(value, dtype=np.float64), requires_grad=True)}


class TestAdamClass:
    def test_zero_grad_is_fixed_point(self):
        params = make_param([1.0, -2.0, 3.0])
        opt = Adam(params, lr=0.1)
        params["w"].grad = np.zeros(3)
        assert opt.step()
        assert np.array_equal(params["w"].data, [1.0, -2.0, 3.0])
        assert opt.state.step_count == 1

    def test_first_step_unit_gradient(self):
        lr = 1e-3
        params = make_param([0.0])
        opt = Adam(params, lr=lr)
        params["w"].grad = np.ones(1)
        opt.step()
        # bias correction makes m_hat/sqrt(v_hat) exactly 1, so the move is lr/(1+eps)
        assert params["w"].data[0] == pytest.approx(-lr, abs=1e-7 * lr)

    def test_two_steps_match_scalar_oracle(self):
        lr = 0.01
        params = make_param([0.5])
        opt = Adam(params, lr=lr)
        grads = [0.3, -0.7]
        assert (optim.BETA1, optim.BETA2, optim.EPS) == (0.9, 0.999, 1e-8)
        trace = oracles.adam_scalar_trace(grads, lr, 0.9, 0.999, 1e-8, x0=0.5)
        for g, expected in zip(grads, trace):
            params["w"].grad = np.array([g])
            opt.step()
            assert params["w"].data[0] == pytest.approx(expected, abs=1e-15)

    def test_nonfinite_gradient_skips_whole_step(self):
        params = {
            "a": Tensor(np.array([1.0, 2.0]), requires_grad=True),
            "b": Tensor(np.array([3.0]), requires_grad=True),
        }
        opt = Adam(params, lr=0.1)
        params["a"].grad = np.array([0.5, np.nan])
        params["b"].grad = np.array([1.0])
        assert not opt.step()
        assert np.array_equal(params["a"].data, [1.0, 2.0])
        assert np.array_equal(params["b"].data, [3.0])
        assert opt.state.skipped_steps == 1
        assert opt.state.step_count == 0
        # a later clean step still works
        params["a"].grad = np.zeros(2)
        params["b"].grad = np.zeros(1)
        assert opt.step()
        assert opt.state.step_count == 1

    def test_inf_gradient_also_skips(self):
        params = make_param([1.0])
        opt = Adam(params, lr=0.1)
        params["w"].grad = np.array([np.inf])
        assert not opt.step()
        assert opt.state.skipped_steps == 1

    def test_moment_shapes_track_params(self):
        params = {
            "w": Tensor(np.zeros((2, 3)), requires_grad=True),
            "b": Tensor(np.zeros(3), requires_grad=True),
        }
        opt = Adam(params, lr=0.01)
        for p in params.values():
            p.grad = np.ones(p.shape)
        opt.step()
        assert opt.state.first_moment["w"].shape == (2, 3)
        assert opt.state.second_moment["b"].shape == (3,)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Adam(make_param([0.0]), lr=0.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_lr_rejected(self, lr):
        # a NaN or infinite rate would turn every parameter into NaN on the first step
        with pytest.raises(ValueError, match="finite"):
            Adam(make_param([0.0]), lr=lr)

    def test_constructor_takes_only_params_and_lr(self):
        assert list(inspect.signature(Adam).parameters) == ["params", "lr"]

    def test_missing_grad_treated_as_zero(self):
        params = make_param([4.0])
        opt = Adam(params, lr=0.1)
        assert opt.step()
        assert params["w"].data[0] == 4.0


class TestMinimize:
    def test_is_zero_grad_backward_step(self):
        params, manual = make_param([1.0, -2.0]), make_param([1.0, -2.0])
        opt, ref = Adam(params, lr=0.1), Adam(manual, lr=0.1)
        for _ in range(2):
            params["w"].grad = np.ones(2)  # stale; minimize must clear it
            value = opt.minimize(tsum(mul(params["w"], params["w"])))
            ref.zero_grad()
            loss = tsum(mul(manual["w"], manual["w"]))
            loss.backward()
            ref.step()
            assert value == loss.item()
        assert np.array_equal(params["w"].data, manual["w"].data)
        assert opt.state.step_count == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_returns_it_and_takes_no_step(self, bad):
        params = make_param([1.0])
        opt = Adam(params, lr=0.1)
        value = opt.minimize(tsum(mul(params["w"], bad)))
        assert not np.isfinite(value)
        assert params["w"].grad is None and params["w"].data[0] == 1.0
        assert opt.state.step_count == 0 and opt.state.skipped_steps == 0

    def test_calls_step_through_the_class(self, monkeypatch):
        # a wrapper installed on Adam.step sees every update minimize makes
        calls = []
        real = Adam.step
        monkeypatch.setattr(Adam, "step", lambda opt: calls.append(opt) or real(opt))
        params = make_param([1.0])
        opt = Adam(params, lr=0.1)
        opt.minimize(tsum(mul(params["w"], params["w"])))
        assert calls == [opt]


class TestGradcheckHarness:
    def test_quadratic_is_exact(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        report = finite_diff_check(lambda: tsum(mul(x, x)), {"x": x})
        assert report.max_rel_err < 1e-8

    def test_detects_wrong_gradient(self):
        from fewshot_tta.tensor import _result

        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken(t):
            def backward(g):
                return (3.0 * g * t.data,)  # claims d/dx x^2 = 3x
            return _result(t.data ** 2, (t,), backward)

        report = finite_diff_check(lambda: tsum(broken(x)), {"x": x})
        assert report.max_rel_err > 0.1


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda x: finite_diff_check(lambda: mul(x, 2.0), {"x": x}),
                 "finite_diff_check needs a scalar-valued function", id="gradcheck_non_scalar"),
    pytest.param(lambda x: _step_with_grad(x, np.ones(3)),
                 r"gradient shape \(3,\) does not match parameter 'w' shape \(2,\)",
                 id="adam_gradient_shape"),
])
def test_malformed_input_raises_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call(Tensor(np.array([1.0, 2.0]), requires_grad=True))


def _step_with_grad(w, grad):
    opt = Adam({"w": w}, lr=0.1)
    w.grad = grad
    opt.step()
