"""Frozen forward plan: parity with the live model and input validation."""

import pickle

import numpy as np
import pytest

from repro.autograd import no_grad, use_precision
from repro.autograd.precision import default_tolerances, resolve_policy
from repro.circuits import ideal_sampler
from repro.compile import ForwardPlan, PlanInputError, compile_plan
from repro.core import AdaptPNC, PTPNC, PrintedTemporalClassifier


def _batch(rng, batch=5, steps=24, channels=1):
    x = np.clip(np.cumsum(rng.normal(0, 0.25, (batch, steps, channels)), axis=1), -1, 1)
    return x[..., 0] if channels == 1 else x


def _live_logits(model, x):
    model.set_sampler(ideal_sampler())
    with no_grad():
        return model(x).data


class TestParity:
    """compile_plan(model)(x) must equal model(x) under no_grad."""

    @pytest.mark.parametrize("cls", [PTPNC, AdaptPNC])
    def test_bit_equal_float64(self, cls, rng):
        model = cls(3, rng=np.random.default_rng(0))
        x = _batch(rng)
        plan = compile_plan(model)
        assert np.array_equal(plan(x), _live_logits(model, x))

    def test_bit_equal_multivariate(self, rng):
        model = PrintedTemporalClassifier(
            4, hidden_size=5, in_channels=3, rng=np.random.default_rng(1)
        )
        x = _batch(rng, channels=3)
        plan = compile_plan(model)
        assert np.array_equal(plan(x), _live_logits(model, x))

    def test_bit_equal_deep_stack(self, rng):
        model = PrintedTemporalClassifier(
            2, hidden_sizes=(6, 4, 3), rng=np.random.default_rng(2)
        )
        x = _batch(rng, steps=40)
        plan = compile_plan(model)
        assert np.array_equal(plan(x), _live_logits(model, x))

    @pytest.mark.parametrize("cls", [PTPNC, AdaptPNC])
    @pytest.mark.parametrize("batch,steps", [(5, 1), (1, 24), (1, 1)])
    def test_bit_equal_edge_shapes(self, cls, batch, steps, rng):
        """A one-step sequence and a one-row batch: the final-step
        readout runs the same (batch, n) GEMM on both sides."""
        model = cls(3, rng=np.random.default_rng(8))
        x = _batch(rng, batch=batch, steps=steps)
        plan = compile_plan(model)
        assert np.array_equal(plan(x), _live_logits(model, x))

    @pytest.mark.parametrize("policy", ["float32", "mixed"])
    def test_bit_equal_reduced_precision(self, policy, rng):
        """Model built and evaluated under the same policy: still bit-equal."""
        x = _batch(rng)
        with use_precision(policy):
            model = AdaptPNC(3, rng=np.random.default_rng(3))
            plan = compile_plan(model)
            live = _live_logits(model, x)
            assert plan.dtype == resolve_policy(policy).compute
            assert np.array_equal(plan(x), live)

    @pytest.mark.parametrize("policy", ["float32", "mixed"])
    def test_reduced_precision_tracks_float64_plan(self, policy, rng):
        """A low-precision plan agrees with the float64 oracle plan to
        the engine-wide per-dtype tolerances."""
        x = _batch(rng)
        model = AdaptPNC(3, rng=np.random.default_rng(4))
        oracle = compile_plan(model)(x)
        low = compile_plan(model, precision=policy)
        tol = default_tolerances(low.dtype)
        np.testing.assert_allclose(low(x), oracle, atol=tol["atol"], rtol=tol["rtol"])

    def test_batch_rows_match_single_series(self, rng):
        """Row extracted from a batched forward predicts the same class
        as the series alone (logits to accumulation tolerance: BLAS may
        pick a different kernel per batch shape)."""
        model = AdaptPNC(3, rng=np.random.default_rng(5))
        plan = compile_plan(model)
        x = _batch(rng, batch=6)
        batched = plan(x)
        for i in range(x.shape[0]):
            alone = plan(x[i : i + 1])[0]
            np.testing.assert_allclose(alone, batched[i], atol=1e-12)
            assert int(np.argmax(alone)) == int(np.argmax(batched[i]))

    def test_repeated_calls_are_deterministic(self, rng):
        """Arena buffer reuse must not leak state between calls."""
        plan = compile_plan(PTPNC(2, rng=np.random.default_rng(6)))
        x = _batch(rng, batch=3, steps=16)
        first = plan(x).copy()
        plan(_batch(np.random.default_rng(9), batch=7, steps=31))  # different shapes
        assert np.array_equal(plan(x), first)

    def test_pickle_round_trip(self, rng):
        plan = compile_plan(AdaptPNC(3, rng=np.random.default_rng(7)))
        x = _batch(rng)
        clone = pickle.loads(pickle.dumps(plan))
        assert np.array_equal(clone(x), plan(x))
        assert clone.signature() == plan.signature()


class TestValidation:
    @pytest.fixture
    def plan(self):
        return compile_plan(PTPNC(2, rng=np.random.default_rng(0)))

    def test_rejects_wrong_rank(self, plan):
        with pytest.raises(PlanInputError, match="batch, time"):
            plan(np.zeros(8))

    def test_rejects_empty_time_axis(self, plan):
        with pytest.raises(PlanInputError, match="at least one time step"):
            plan(np.zeros((2, 0)))

    def test_rejects_wrong_channel_count(self, plan):
        with pytest.raises(PlanInputError, match="got shape"):
            plan(np.zeros((2, 8, 3)))

    def test_rejects_non_finite(self, plan):
        x = np.zeros((2, 8))
        x[1, 3] = np.nan
        with pytest.raises(PlanInputError, match="non-finite"):
            plan(x)

    def test_series_coercion_errors(self, plan):
        with pytest.raises(PlanInputError, match="uniform row lengths|not numeric"):
            plan.coerce_series([[0.1, 0.2], [0.3]])
        with pytest.raises(PlanInputError, match="at least one time step"):
            plan.coerce_series([])
        with pytest.raises(PlanInputError):
            plan.coerce_series("not a series")

    def test_series_coercion_shapes(self, plan):
        assert plan.coerce_series([0.1, 0.2, 0.3]).shape == (3, 1)
        assert plan.predict(np.zeros(16)) in (0, 1)

    def test_compile_rejects_non_classifier(self):
        with pytest.raises(TypeError, match="PrintedTemporalClassifier"):
            compile_plan(object())

    def test_signature_fields(self, plan):
        sig = plan.signature()
        assert sig["n_classes"] == 2 and sig["model_class"] == "PTPNC"
        assert sig["dtype"] == "float64" and sig["nbytes"] > 0
