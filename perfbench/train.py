"""``train_paper`` phase: paper-shaped ``Trainer.fit``, float64 and float32.

CBF split of 90×64 train / 30 val, ADAPT-pNC with variation-aware
training and 5 Monte-Carlo draws, ``TrainingConfig.paper()`` with a
fixed epoch count.  Each precision's epochs run as ``FITS`` identical
fits from the same seeded state, which the benchmark places at
different times of the run (float64 first, then float32, then again),
so a stretch of fast or slow host does not set a precision's median
alone.  The plateau scheduler's stop rule cannot fire within these
epoch counts (patience 100), and the phase checks that it did not.

Epoch boundaries come from two stamps (``AdamW.zero_grad`` before, the
plateau scheduler's ``step`` after), installed in every run; the layer
spans are installed only when tracing.  After each epoch's closing
stamp the phase takes a host-speed sample and calls ``between`` with
the share of all its epochs done; the benchmark measures in-process
inference there, outside the epoch's time.  The metrics are median
epochs at reference speed (``common.HostSpeed``).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from common import DATASET, HostSpeed, build_model, median
from tracer import Tracer

PHASES = (("f64", "float64"), ("f32", "float32"))
FITS = 2
#: Fewest epochs per fit.
MIN_EPOCHS = 8
#: Epochs per precision per second of the phase's time (one float64
#: plus one float32 epoch take 80-100 ms).  The count depends on
#: ``--seconds`` only, so every run does the same work.
EPOCHS_PER_S = 10

#: Layer spans of the training step, by per-layer metric stem.
LAYER_SPANS = {
    "circuits.filters.forward_ms": ("filters.fo", "filters.so"),
    "circuits.crossbar.forward_ms": ("crossbar",),
    "circuits.ptanh.forward_ms": ("ptanh",),
    "circuits.variation.sample_ms": ("variation",),
    "nn.loss.ms": ("loss",),
    "autograd.backward_ms": ("backward",),
    "optim.step_ms": ("optim",),
}


class TrainSetup:
    def __init__(self, seed: int) -> None:
        from repro.data import load_dataset

        self.seed = seed
        self.data = load_dataset(DATASET, n_samples=150, seed=seed)
        # One freshly initialised model per fit plus the
        # sequential-oracle model; all share the seeded initial state.
        self.models = {(key, i): build_model(seed) for key, _ in PHASES for i in range(FITS)}
        self.oracle_model = build_model(seed)


def install_layer_spans(tracer: Tracer) -> None:
    from repro.autograd.tensor import Tensor
    from repro.circuits import (
        FirstOrderLearnableFilter,
        PrintedCrossbar,
        PrintedTanh,
        SecondOrderLearnableFilter,
        VariationSampler,
    )
    from repro.core import training
    from repro.optim import AdamW

    tracer.span(FirstOrderLearnableFilter, "forward", "filters.fo")
    tracer.span(SecondOrderLearnableFilter, "forward", "filters.so")
    tracer.span(PrintedCrossbar, "forward", "crossbar")
    tracer.span(PrintedTanh, "forward", "ptanh")
    for attr in ("epsilon", "mu", "initial_voltage"):
        tracer.span(VariationSampler, attr, "variation")
    # Bound by name at import time: wrap the training module's binding.
    tracer.span(training, "cross_entropy", "loss")
    tracer.span(Tensor, "backward", "backward")
    tracer.span(AdamW, "step", "optim")


def _config(precision: str, epochs: int, **extra):
    from repro.core.training import TrainingConfig

    return dataclasses.replace(
        TrainingConfig.paper(), max_epochs=epochs, precision=precision, **extra
    )


def _fit(model, config, setup: TrainSetup, **kwargs):
    from repro.core.training import Trainer

    data = setup.data
    return Trainer(model, config, variation_aware=True, seed=setup.seed).fit(
        data.x_train, data.y_train, data.x_val, data.y_val, **kwargs
    )


def _val_accuracy(model, data) -> float:
    from repro.autograd import no_grad

    dtype = model.blocks[0].crossbar.theta.data.dtype
    with no_grad():
        logits = model(data.x_val.astype(dtype)).data
    return float((logits.argmax(-1) == data.y_val).mean())


class TrainPhase:
    def __init__(self, setup: TrainSetup, traced: bool, seconds: float,
                 speed: HostSpeed, between: Callable[[float], None]) -> None:
        self.setup = setup
        self.traced = traced
        self.speed = speed
        self.between = between
        #: Epochs of each fit.
        self.epochs = max(MIN_EPOCHS, round(seconds * EPOCHS_PER_S / FITS))
        self.tracer = Tracer()
        self.starts = {key: [] for key, _ in PHASES}
        self.ends = {key: [] for key, _ in PHASES}
        self.history = {key: [] for key, _ in PHASES}

    def pieces(self) -> List[Callable[[], None]]:
        """The fits, in the order they should run."""
        return [functools.partial(self._fit, key, precision, i)
                for i in range(FITS) for key, precision in PHASES]

    def _fit(self, key: str, precision: str, i: int) -> None:
        from repro.optim import AdamW, ReduceLROnPlateau

        self.tracer.stamp(AdamW, "zero_grad", self.starts[key], after=False)
        self.tracer.stamp(ReduceLROnPlateau, "step", self.ends[key], after=True)
        self.tracer.after(ReduceLROnPlateau, "step", self._after_epoch)
        if self.traced:
            install_layer_spans(self.tracer)
        try:
            self.history[key].append(_fit(self.setup.models[key, i],
                                          _config(precision, self.epochs), self.setup))
        finally:
            self.tracer.close()

    def _after_epoch(self) -> None:
        self.speed.sample()
        done = sum(map(len, self.ends.values()))
        self.between(done / (len(PHASES) * FITS * self.epochs))

    def finish(self) -> Dict:
        from repro.autograd.precision import default_tolerances

        setup = self.setup
        metrics: Dict[str, float] = {}
        layers: Dict[str, float] = {}
        checks: List[Tuple[str, bool, str]] = []
        notes: List[str] = []
        for key, _ in PHASES:
            histories, epochs = self.history[key], self.epochs
            history, model = histories[0], setup.models[key, 0]
            epoch_ms = [(e - s) * 1e3 for s, e in zip(self.starts[key], self.ends[key])]
            metrics[f"train_{key}_epoch_ms"] = median(
                [(e - s) * 1e3 * self.speed.at(s, e)
                 for s, e in zip(self.starts[key], self.ends[key])])
            notes.append(
                f"train {key}: {FITS} fits of {epochs} epochs, median "
                f"{metrics[f'train_{key}_epoch_ms']:.2f} ms at reference speed "
                f"({median(epoch_ms):.2f} ms as timed), "
                f"loss {history.train_loss[0]:.4f} -> {history.train_loss[-1]:.4f}, "
                f"val accuracy {_val_accuracy(model, setup.data):.3f} "
                f"(chance {1 / model.n_classes:.3f})"
            )
            checks.append((f"train.{key}.epochs_run",
                           len(histories) == FITS and len(epoch_ms) == FITS * epochs
                           and all(h.epochs_run == epochs for h in histories),
                           f"{[h.epochs_run for h in histories]} of {epochs} epochs "
                           "(no early stop)"))
            losses = [x for h in histories for x in h.train_loss + h.val_loss]
            checks.append((f"train.{key}.finite_loss", all(map(math.isfinite, losses)),
                           "every train/val loss finite"))
            # Learning, not accuracy: at the paper's lr = 0.1 some
            # initialisations sit at chance for hundreds of epochs
            # (the protocol relies on 3000 epochs of plateau halving).
            checks.append((f"train.{key}.learns",
                           all(h.best_val_loss < h.val_loss[0] for h in histories),
                           f"best val loss {history.best_val_loss:.4f} < first "
                           f"{history.val_loss[0]:.4f}"))
            if self.traced:
                _layer_metrics(self.tracer, self.starts[key], self.ends[key], key, layers)

        # Oracle: one float64 epoch through the per-draw sequential
        # backend from the same initial state and sampler seed.
        oracle = _fit(setup.oracle_model, _config("float64", 1, mc_backend="sequential"),
                      setup).train_loss[0]
        first = self.history["f64"][0].train_loss[0]
        tol = default_tolerances(np.float64)
        delta = abs(oracle - first)
        checks.append(("train.f64.sequential_oracle",
                       delta <= tol["atol"] + tol["rtol"] * abs(oracle),
                       f"first-epoch loss delta {delta:.3e} vs sequential oracle"))
        return {
            "metrics": metrics, "layers": layers, "checks": checks, "notes": notes,
            "attempted": len(PHASES) * FITS * self.epochs + 1, "failed": 0,
        }


def _layer_metrics(tracer: Tracer, starts, ends, key: str, out: Dict) -> None:
    """Per-epoch medians of each layer's self time inside the epoch."""
    per_epoch, top_ms = tracer.windows(starts, ends)
    for stem, names in LAYER_SPANS.items():
        out[f"{stem}.{key}"] = median(
            [sum(spans[n][0] for n in names) for spans in per_epoch]
        )
    out[f"circuits.variation.sample_calls.{key}"] = median(
        [spans["variation"][1] for spans in per_epoch]
    )
    out[f"core.training.self_ms.{key}"] = median(
        [(hi - lo) * 1e3 - top for lo, hi, top in zip(starts, ends, top_ms)]
    )
