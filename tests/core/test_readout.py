"""Final-step readout contract of the printed temporal classifiers.

The paper reads a class from the output voltages at the final time step,
so ``PrintedTemporalClassifier.forward`` runs the output block's
memoryless crossbar and ptanh on that step alone
(``PrintedTemporalProcessingBlock.final_step``).  That must be a pure
saving: logits and every parameter gradient of one ``backward`` are
bit-equal to chaining ``block(seq)`` over every block on the whole
sequence and then taking ``[..., -1, :] * logit_scale`` — in float64 and
float32, sequential and inside ``sampler.batched(draws)``, on either
scan backend.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, use_precision
from repro.circuits import UniformVariation, VariationSampler
from repro.circuits.crossbar import PrintedCrossbar
from repro.core import PTPNC, AdaptPNC, PrintedTemporalClassifier
from repro.core.models import _coerce_sequences

MODELS = {
    "ptpnc": lambda: PTPNC(3, rng=np.random.default_rng(0)),
    "adapt": lambda: AdaptPNC(3, rng=np.random.default_rng(1)),
    "deep": lambda: PrintedTemporalClassifier(
        3, hidden_sizes=(4, 4), rng=np.random.default_rng(2)
    ),
    "multichannel": lambda: PrintedTemporalClassifier(
        3, hidden_size=5, in_channels=2, rng=np.random.default_rng(3)
    ),
}
SEED = 11
DRAWS = 5


def _series(model, batch=6, steps=20):
    rng = np.random.default_rng(4)
    shape = (batch, steps, model.in_channels)
    x = np.clip(np.cumsum(rng.normal(0, 0.25, shape), axis=1), -1, 1)
    return x[..., 0] if model.in_channels == 1 else x


def _full_sequence_logits(model, x):
    """The oracle: every block on the whole sequence, then the last step."""
    seq = _coerce_sequences(x, model.in_channels)
    for block in model.blocks:
        seq = block(seq)
    return seq[..., -1, :] * model.logit_scale


def _logits_and_grads(model, forward, x, draws):
    """Logits and parameter gradients of one backward, with the sampler
    reseeded so both evaluations see the same variation draws."""
    model.sampler.reseed(SEED)
    model.zero_grad()
    if draws is None:
        logits = forward(model, x)
    else:
        with model.sampler.batched(draws):
            logits = forward(model, x)
    weight = np.random.default_rng(5).normal(size=logits.shape)
    (logits * Tensor(weight)).sum().backward()
    grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    return logits.data.copy(), grads


@pytest.mark.parametrize("backend", ["fused", "unfused"])
@pytest.mark.parametrize("draws", [None, DRAWS], ids=["sequential", "batched"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("name", MODELS)
def test_final_step_readout_bit_equal_to_full_sequence(name, precision, draws, backend):
    with use_precision(precision):
        model = MODELS[name]()
        model.set_sampler(
            VariationSampler(model=UniformVariation(0.1), rng=np.random.default_rng(0))
        )
        model.set_scan_backend(backend)
        x = _series(model)
        logits, grads = _logits_and_grads(model, lambda m, s: m(s), x, draws)
        oracle, oracle_grads = _logits_and_grads(model, _full_sequence_logits, x, draws)
    lead = () if draws is None else (draws,)
    assert logits.shape == lead + (x.shape[0], model.n_classes)
    assert logits.dtype == np.dtype(precision)
    assert np.array_equal(logits, oracle)
    assert grads.keys() == oracle_grads.keys()
    for key, grad in grads.items():
        assert grad.dtype == oracle_grads[key].dtype, key
        assert np.array_equal(grad, oracle_grads[key]), key


@pytest.mark.parametrize("draws", [None, DRAWS], ids=["sequential", "batched"])
def test_output_crossbar_sees_no_time_axis(monkeypatch, draws):
    """Shape probe: every hidden crossbar gets ``batch·time`` rows, the
    output block's crossbar only the ``batch`` rows of the last step."""
    model = MODELS["deep"]()
    batch, steps = 6, 20
    seen = []
    original = PrintedCrossbar.forward

    def probe(self, x):
        seen.append(x.shape)
        return original(self, x)

    monkeypatch.setattr(PrintedCrossbar, "forward", probe)
    x = _series(model, batch=batch, steps=steps)
    if draws is None:
        model(x)
    else:
        with model.sampler.batched(draws):
            model(x)
    lead = () if draws is None else (draws,)
    hidden = [lead + (batch * steps, w) for w in (1, 4)]
    assert seen == hidden + [lead + (batch, 4)]
