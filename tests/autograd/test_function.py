"""Custom autograd Functions — the fused-op extension point.

Covers the :class:`~repro.autograd.Function` machinery (Tensor
coercion, single-node graph wiring, broadcast-aware gradient routing,
``needs_input_grad`` dead-gradient elision, ``no_grad`` behaviour) and
the :func:`~repro.autograd.filter_scan` kernel built on it: analytic
adjoint vs central finite differences at the paper's coupling-factor
corners (μ = 1 unloaded, μ = 1.3 fully coupled) and across Monte-Carlo
draw counts, plus bit-equality with the node-per-step oracle; and the
:func:`~repro.autograd.crossbar_affine` / :func:`~repro.autograd.printed_tanh`
nodes, whose forward values and every input gradient must be bit-equal
to the op-by-op Tensor ladders they replace (written out below as the
oracles) in float64 and float32, sequential and Monte-Carlo batched.
"""

import numpy as np
import pytest

from repro.autograd import (
    Function,
    FunctionContext,
    Tensor,
    crossbar_affine,
    filter_scan,
    no_grad,
    printed_tanh,
    use_precision,
)
from repro.autograd.grad_check import check_gradients
from repro.circuits.filters import _unfused_recurrence


class _Affine(Function):
    """y = w * x + c — small op exercising ctx plumbing and broadcasting."""

    @staticmethod
    def forward(ctx, x, w, c):
        ctx.save_for_backward(x, w)
        return w * x + c

    @staticmethod
    def backward(ctx, grad):
        x, w = ctx.saved_arrays
        grad_x = grad * w if ctx.needs_input_grad[0] else None
        grad_w = grad * x if ctx.needs_input_grad[1] else None
        grad_c = grad if ctx.needs_input_grad[2] else None
        return grad_x, grad_w, grad_c


class _WrongArity(Function):
    @staticmethod
    def forward(ctx, x):
        return x * 2.0

    @staticmethod
    def backward(ctx, grad):
        return grad * 2.0, None  # one gradient too many


class TestFunctionBase:
    def test_forward_value_and_single_node(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4,)), requires_grad=True)
        out = _Affine.apply(x, w, 1.5)
        assert np.allclose(out.data, w.data * x.data + 1.5)
        # The whole op is one graph node named after the subclass.
        assert out._op == "_Affine"

    def test_broadcast_gradients_reduced_to_input_shapes(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4,)), requires_grad=True)
        c = Tensor(np.array(0.3), requires_grad=True)
        _Affine.apply(x, w, c).sum().backward()
        assert x.grad.shape == (3, 4)
        assert w.grad.shape == (4,)  # reduced from the (3, 4) result shape
        assert c.grad.shape == ()
        np.testing.assert_allclose(w.grad, x.data.sum(axis=0))
        np.testing.assert_allclose(c.grad, 12.0)

    def test_coerces_raw_arrays(self, rng):
        out = _Affine.apply(np.ones((2, 2)), 2.0, 0.0)
        assert isinstance(out, Tensor)
        np.testing.assert_allclose(out.data, 2.0)

    def test_needs_input_grad_mirrors_requires_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(2,)))  # no grad
        captured = {}

        class Probe(Function):
            @staticmethod
            def forward(ctx, x, w):
                captured["needs"] = ctx.needs_input_grad
                return x * w

            @staticmethod
            def backward(ctx, grad):
                return grad, None

        Probe.apply(x, w).sum().backward()
        assert captured["needs"] == (True, False)
        assert x.grad is not None and w.grad is None

    def test_no_grad_skips_graph(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with no_grad():
            out = _Affine.apply(x, 2.0, 0.0)
        assert not out.requires_grad

    def test_wrong_gradient_arity_raises(self, rng):
        x = Tensor(rng.normal(size=(2,)), requires_grad=True)
        out = _WrongArity.apply(x)
        with pytest.raises(RuntimeError, match="2 gradients for 1 inputs"):
            out.sum().backward()

    def test_base_methods_are_abstract(self):
        ctx = FunctionContext()
        with pytest.raises(NotImplementedError):
            Function.forward(ctx)
        with pytest.raises(NotImplementedError):
            Function.backward(ctx, np.zeros(1))


def _coeffs(rng, n, mu, draws=None):
    """Physical recurrence coefficients a, b from log-uniform R, C at μ."""
    shape = (n,) if draws is None else (draws, n)
    r = np.exp(rng.uniform(np.log(2e3), np.log(50e3), shape))
    c = np.exp(rng.uniform(np.log(1e-5), np.log(1e-4), shape))
    rc = r * c
    dt = 1e-3
    return rc / (rc + mu * dt), dt / (rc + mu * dt)


class TestFilterScan:
    @pytest.mark.parametrize("mu", [1.0, 1.3])
    @pytest.mark.parametrize("draws", [None, 1, 8])
    def test_finite_differences(self, rng, mu, draws):
        """Analytic adjoint matches central differences for every input."""
        batch, steps, n = 2, 6, 3
        x = rng.uniform(-1, 1, (batch, steps, n))
        a, b = _coeffs(rng, n, mu, draws)
        v0_shape = (batch, n) if draws is None else (draws, batch, n)
        v0 = rng.uniform(-0.1, 0.1, v0_shape)
        assert check_gradients(
            lambda xx, aa, bb, vv: (filter_scan(xx, aa, bb, vv) ** 2).mean(),
            [x, a, b, v0],
        )

    @pytest.mark.parametrize("draws", [None, 8])
    def test_bit_equal_to_unfused_oracle(self, rng, draws):
        batch, steps, n = 4, 16, 5
        x = rng.uniform(-1, 1, (batch, steps, n))
        a, b = _coeffs(rng, n, 1.15, draws)
        v0_shape = (batch, n) if draws is None else (draws, batch, n)
        v0 = rng.uniform(-0.1, 0.1, v0_shape)
        fused_in = [Tensor(t, requires_grad=True) for t in (x, a, b, v0)]
        oracle_in = [Tensor(t, requires_grad=True) for t in (x, a, b, v0)]
        fused = filter_scan(*fused_in)
        oracle = _unfused_recurrence(*oracle_in)
        np.testing.assert_array_equal(fused.data, oracle.data)
        (fused * fused).mean().backward()
        (oracle * oracle).mean().backward()
        for tf, tu in zip(fused_in, oracle_in):
            np.testing.assert_allclose(tf.grad, tu.grad, atol=1e-14)

    def test_draw_dependent_input_stack(self, rng):
        """x may itself carry the draws axis (draw-dependent inputs)."""
        draws, batch, steps, n = 3, 2, 5, 4
        x = rng.uniform(-1, 1, (draws, batch, steps, n))
        a, b = _coeffs(rng, n, 1.0, draws)
        v0 = rng.uniform(-0.1, 0.1, (draws, batch, n))
        out = filter_scan(Tensor(x), Tensor(a), Tensor(b), Tensor(v0))
        assert out.shape == (draws, batch, steps, n)
        oracle = _unfused_recurrence(Tensor(x), Tensor(a), Tensor(b), Tensor(v0))
        np.testing.assert_array_equal(out.data, oracle.data)

    def test_matches_closed_form_single_step(self):
        x = np.array([[[2.0]]])
        out = filter_scan(x, np.array([0.5]), np.array([0.25]), np.array([[1.0]]))
        # v1 = a v0 + b x0 = 0.5 + 0.5
        np.testing.assert_allclose(out.data, [[[1.0]]])

    def test_gradient_wrt_shared_input_sums_over_draws(self, rng):
        """A (batch, time, n) input broadcast over draws accumulates the
        draws-summed gradient, matching the oracle's broadcast rule."""
        draws, batch, steps, n = 4, 2, 6, 3
        x = rng.uniform(-1, 1, (batch, steps, n))
        a, b = _coeffs(rng, n, 1.2, draws)
        v0 = rng.uniform(-0.1, 0.1, (draws, batch, n))
        xt = Tensor(x, requires_grad=True)
        filter_scan(xt, Tensor(a), Tensor(b), Tensor(v0)).sum().backward()
        assert xt.grad.shape == (batch, steps, n)
        xo = Tensor(x, requires_grad=True)
        _unfused_recurrence(xo, Tensor(a), Tensor(b), Tensor(v0)).sum().backward()
        np.testing.assert_allclose(xt.grad, xo.grad, atol=1e-12)


# -- crossbar affine and printed tanh vs their op-by-op ladders -------------


def _affine_ladder(x, weights, bias):
    """The interpreted crossbar read-out the fused node replaces."""
    return x @ weights.swapaxes(-1, -2) + bias.unsqueeze(-2)


def _ptanh_ladder(x, eta1, eta2, eta3, eta4):
    """The interpreted printed-tanh transfer the fused node replaces."""
    return eta1 + eta2 * ((x - eta3) * eta4).tanh()


#: Input layouts: sequential (batch, n) with (n,) parameters; batched
#: Monte-Carlo (draws, batch, n) with per-draw parameters; and a shared
#: (batch, n) input broadcast over per-draw parameters.
LAYOUTS = ("sequential", "batched", "shared")
DRAWS, BATCH, N_IN, N_OUT = 3, 7, 5, 4


def _affine_inputs(rng, layout, dtype):
    draws = () if layout == "sequential" else (DRAWS,)
    x_lead = (DRAWS,) if layout == "batched" else ()
    return [
        rng.normal(size=x_lead + (BATCH, N_IN)).astype(dtype),
        rng.normal(0, 0.3, draws + (N_OUT, N_IN)).astype(dtype),
        rng.normal(0, 0.3, draws + (N_OUT,)).astype(dtype),
    ]


def _ptanh_inputs(rng, layout, dtype):
    eta_shape = (N_OUT,) if layout == "sequential" else (DRAWS, 1, N_OUT)
    x_lead = (DRAWS,) if layout == "batched" else ()
    return [
        rng.normal(size=x_lead + (BATCH, N_OUT)).astype(dtype),
        rng.normal(0, 0.05, eta_shape).astype(dtype),
        rng.uniform(0.8, 1.2, eta_shape).astype(dtype),
        rng.normal(0, 0.05, eta_shape).astype(dtype),
        rng.uniform(1.5, 2.5, eta_shape).astype(dtype),
    ]


def _run(fn, arrays, requires, weight):
    """Forward ``fn``, backprop a non-uniform upstream gradient."""
    inputs = [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires)]
    out = fn(*inputs)
    (out * Tensor(weight)).sum().backward()
    return out, inputs


def _assert_bit_equal_to_ladder(fn, ladder, arrays, requires, dtype, rng):
    with use_precision(np.dtype(dtype).name):
        weight = rng.normal(size=ladder(*map(Tensor, arrays)).shape).astype(dtype)
        fused, fused_in = _run(fn, arrays, requires, weight)
        oracle, oracle_in = _run(ladder, arrays, requires, weight)
    assert fused.data.dtype == oracle.data.dtype == dtype
    assert np.array_equal(fused.data, oracle.data)
    assert len(fused._parents) == sum(requires)  # one node, not a ladder
    for tf, to, need in zip(fused_in, oracle_in, requires):
        if not need:
            assert tf.grad is None and to.grad is None
            continue
        assert tf.grad.shape == tf.shape and tf.grad.dtype == to.grad.dtype
        assert np.array_equal(tf.grad, to.grad)


DTYPES = (np.float64, np.float32)


class TestCrossbarAffine:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bit_equal_to_ladder(self, rng, layout, dtype):
        _assert_bit_equal_to_ladder(
            crossbar_affine, _affine_ladder, _affine_inputs(rng, layout, dtype),
            (True, True, True), dtype, rng,
        )

    @pytest.mark.parametrize("requires", [(False, True, True), (True, False, False)])
    @pytest.mark.parametrize("layout", ("sequential", "batched"))
    def test_skips_inputs_without_grad(self, rng, layout, requires):
        _assert_bit_equal_to_ladder(
            crossbar_affine, _affine_ladder, _affine_inputs(rng, layout, np.float64),
            requires, np.float64, rng,
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_finite_differences(self, rng, layout):
        assert check_gradients(
            lambda x, w, b: (crossbar_affine(x, w, b) ** 2).mean(),
            _affine_inputs(rng, layout, np.float64),
        )


class TestPrintedTanh:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bit_equal_to_ladder(self, rng, layout, dtype):
        _assert_bit_equal_to_ladder(
            printed_tanh, _ptanh_ladder, _ptanh_inputs(rng, layout, dtype),
            (True,) * 5, dtype, rng,
        )

    @pytest.mark.parametrize(
        "requires",
        [(False, True, True, True, True), (True, False, False, False, False),
         (False, False, True, False, False), (False, False, False, True, True)],
    )
    @pytest.mark.parametrize("layout", ("sequential", "batched"))
    def test_skips_inputs_without_grad(self, rng, layout, requires):
        _assert_bit_equal_to_ladder(
            printed_tanh, _ptanh_ladder, _ptanh_inputs(rng, layout, np.float64),
            requires, np.float64, rng,
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_finite_differences(self, rng, layout):
        assert check_gradients(
            lambda *args: (printed_tanh(*args) ** 2).mean(),
            _ptanh_inputs(rng, layout, np.float64),
        )
