"""Frozen forward plans — graph-free inference for serving.

A :class:`ForwardPlan` is a trained
:class:`~repro.core.PrintedTemporalClassifier` reduced to the minimum
needed to answer inference requests: per layer, the nominal RC
recurrence coefficients (one ``(a, b)`` pair per filter stage, via the
same :meth:`~repro.circuits.filters._RCStage.nominal_coefficients`
extraction the :class:`~repro.core.StreamingClassifier` uses), the
effective crossbar weight matrix and bias, and the four ptanh η
vectors.  No autograd graph, no ``Tensor`` wrappers, no variation
sampler — executing a plan is a handful of numpy calls.

Bit-equality contract
---------------------
``compile_plan(model)(x)`` is **bit-equal** to
``model(x).data`` under ``no_grad`` with the ideal sampler, provided
the active precision policy matches the one the parameters live in
(the float32/mixed plan agrees with its float64 counterpart to the
usual dtype tolerances).  This holds because every reduction is
mirrored operation-for-operation:

* the scan (:func:`row_stage`, the one recurrence loop the streaming
  engines share) replays :class:`~repro.autograd.function.FilterScan`'s
  time-major recurrence (prefilled ``b ⊙ x`` buffer, densified ``a``,
  two ufunc calls per step) into preallocated arena buffers;
* the crossbar collapse multiplies by ε ≡ 1 exactly (IEEE ``x·1 = x``)
  and keeps the live op order ``(path · g) / denom`` and
  ``((sign·g_b) / denom) · V_dd``;
* the weight matrix is stored C-contiguous ``(out, in)`` and the GEMM
  runs on its ``swapaxes(-1, -2)`` view — the same memory layout the
  live crossbar hands BLAS, so the same kernel runs;
* like the live model's final-step readout, the last layer's affine and
  ptanh see only the final step of its scan, so both sides run GEMMs of
  the same shape.

Plans are plainly picklable (the scratch arena is dropped and rebuilt
lazily), which is how the serving tier ships them to worker processes.
A plan instance is **not** thread-safe: the arena buffers are reused
across calls.  Give each thread/process its own plan (pickle
round-trip) or serialise calls.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autograd.precision import (
    PrecisionPolicy,
    get_precision,
    resolve_policy,
)
from ..circuits.crossbar import THETA_MAX, THETA_MIN
from ..circuits.filters import filter_stages

__all__ = [
    "ForwardPlan",
    "PlanLayer",
    "PlanInputError",
    "compile_plan",
    "row_affine",
    "row_ptanh",
    "row_stage",
]


class PlanInputError(ValueError):
    """A request payload does not fit the plan's input contract."""


class _Arena:
    """Keyed scratch buffers reused across plan executions.

    ``buffer`` returns an uninitialised array (fully overwritten by the
    caller); ``constant`` memoises a derived read-only array.  Buffers
    are replaced when the requested shape changes (a new batch size or
    sequence length), so steady-state serving allocates nothing per
    request in the scan loop.
    """

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}

    def buffer(self, key: tuple, shape: tuple, dtype: np.dtype) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def constant(self, key: tuple, shape: tuple, build) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = build()
            self._buffers[key] = buf
        return buf


# -- row-stable kernels ------------------------------------------------------
#
# The streaming engines (single-stream ``StreamingSession`` and the
# ``MultiStreamSession`` fleet) advance a chunk layer by layer: each RC
# stage is scanned over the whole ``(time, rows, n)`` chunk, then one
# affine and one ptanh call run over all ``time·rows`` samples.  Their
# contract is that every row's result is **bit-equal regardless of how
# many rows or steps share the call** — a stream stepped alone, one
# sample at a time, and the same stream inside a 32-row fleet chunk must
# produce identical bits.  BLAS cannot promise that: GEMM kernels are
# selected by matrix shape, so ``(A @ B)[i]`` differs from
# ``A[i:i+1] @ B`` in the last ulp for most shapes (measured: float64
# OpenBLAS diverges already at ``k=3, n=8``).  These kernels therefore
# stick to per-element-deterministic primitives: elementwise ufuncs
# (whose results are independent of array shape) and ``np.einsum`` with
# its default non-BLAS sum-of-products loop, which accumulates the
# contracted axis in fixed index order per output element — measured
# row-stable across shapes for float64 and float32.  Both streaming
# engines call exactly these functions, so their bit-equality is
# structural, not coincidental.


def row_stage(a: np.ndarray, b: np.ndarray, x: np.ndarray, v0: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Scan one RC stage ``v_k = a·v_{k-1} + b·x_k`` over a chunk.

    ``x`` is time-major ``(T, rows, n)`` and ``v0`` the carried
    ``(rows, n)`` state before its first step; returns the ``(T, rows,
    n)`` trajectory, written into ``out`` when given (which may alias
    ``x``).  The recurrence is the live ``FilterScan`` kernel's:
    ``b·x`` prefilled in one call, ``a`` densified to ``(rows, n)``
    once, then two ufunc calls per step — so every element sees the
    same IEEE ops whatever the chunk or row count.
    """
    out = np.multiply(b, x, out=out)
    a_dense = np.empty_like(v0)
    a_dense[...] = a
    tmp = np.empty_like(v0)
    v = v0
    for k in range(out.shape[0]):
        vk = out[k]
        np.multiply(a_dense, v, out=tmp)
        vk += tmp
        v = vk
    return out


def row_affine(h: np.ndarray, weights: np.ndarray, bias: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Row-count-invariant affine map ``out = h @ weights.T + bias``.

    ``h`` is ``(rows, in)``, ``weights`` the plan's C-contiguous
    ``(out, in)`` matrix, ``out`` caller scratch ``(rows, out)``.  The
    contraction runs through ``np.einsum``'s C sum-of-products loop
    (never BLAS), which reduces the ``in`` axis in fixed index order
    per output element — so row ``i`` of the result carries the same
    bits no matter how many rows are computed together (unlike a GEMM,
    where kernel selection depends on the row count).
    """
    np.einsum("ri,oi->ro", h, weights, out=out)
    out += bias
    return out


def row_ptanh(mm: np.ndarray, eta, out: np.ndarray) -> np.ndarray:
    """Elementwise printed-tanh ``η₁ + η₂·tanh((mm − η₃)·η₄)`` on rows.

    Same per-element op sequence as the live activation (ufuncs only),
    writing into caller scratch ``out`` (may alias ``mm``).
    """
    e1, e2, e3, e4 = eta
    np.subtract(mm, e3, out=out)
    out *= e4
    np.tanh(out, out=out)
    out *= e2
    out += e1
    return out


@dataclasses.dataclass(frozen=True)
class PlanLayer:
    """One frozen pTPB: filter stages, collapsed crossbar, ptanh η."""

    #: ``((a, b), ...)`` — one coefficient pair per RC stage, shape ``(in,)``.
    stages: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    #: Effective signed crossbar weights, C-contiguous ``(out, in)``.
    weights: np.ndarray
    #: Crossbar bias voltages ``(out,)``.
    bias: np.ndarray
    #: ptanh parameters ``(η₁, η₂, η₃, η₄)``, each ``(out,)``.
    eta: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    in_features: int
    out_features: int


@dataclasses.dataclass
class ForwardPlan:
    """A compiled, callable inference artifact (see module docstring).

    Call the plan with a batch — ``(batch, time)`` for single-channel
    models or ``(batch, time, in_channels)`` — to get logits
    ``(batch, n_classes)`` as a plain ``ndarray``.
    """

    layers: Tuple[PlanLayer, ...]
    in_channels: int
    n_classes: int
    dt: float
    logit_scale: float
    precision: str
    dtype: np.dtype
    model_class: str
    filter_order: int

    # -- serialisation: the arena is scratch state, rebuilt lazily ------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_arena", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def arena(self) -> _Arena:
        arena = self.__dict__.get("_arena")
        if arena is None:
            arena = self.__dict__["_arena"] = _Arena()
        return arena

    # -- input contract -------------------------------------------------

    def coerce_series(self, series) -> np.ndarray:
        """Validate one request series and return it as ``(time, channels)``.

        Raises :class:`PlanInputError` (a ``ValueError``) with a clear
        message instead of letting a malformed payload shape-crash
        deep inside the forward.
        """
        try:
            arr = np.asarray(series)
        except (TypeError, ValueError) as exc:
            raise PlanInputError(f"series is not numeric: {exc}") from exc
        if arr.dtype == object or not np.issubdtype(arr.dtype, np.number):
            raise PlanInputError(
                "series must be a (possibly nested) list of numbers with "
                "uniform row lengths"
            )
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        if arr.ndim == 1 and self.in_channels == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != self.in_channels:
            expect = "(time,)" if self.in_channels == 1 else ""
            raise PlanInputError(
                f"series must be {expect + ' or ' if expect else ''}"
                f"(time, {self.in_channels}) for this model, got shape {arr.shape}"
            )
        if arr.shape[0] < 1:
            raise PlanInputError("series must contain at least one time step")
        if not np.isfinite(arr).all():
            raise PlanInputError("series contains non-finite values (NaN/Inf)")
        return arr

    def _validate_batch(self, x) -> np.ndarray:
        try:
            arr = np.asarray(x, dtype=self.dtype)
        except (TypeError, ValueError) as exc:
            raise PlanInputError(f"batch is not numeric: {exc}") from exc
        if arr.ndim == 2 and self.in_channels == 1:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] != self.in_channels:
            raise PlanInputError(
                f"expected (batch, time) or (batch, time, {self.in_channels}) "
                f"input, got shape {np.shape(x)}"
            )
        if arr.shape[1] < 1:
            raise PlanInputError("batch must contain at least one time step")
        if not np.isfinite(arr).all():
            raise PlanInputError("batch contains non-finite values (NaN/Inf)")
        return arr

    # -- streaming-state arenas -----------------------------------------

    def stream_state(self, rows: int) -> List[List[np.ndarray]]:
        """Zeroed filter state for ``rows`` concurrent streams.

        One ``(rows, in_features)`` matrix per RC stage per layer — the
        discharged-capacitor initial condition.  ``rows=1`` is a single
        :class:`~repro.core.StreamingSession`; a
        :class:`~repro.core.MultiStreamSession` allocates its whole
        fleet here so that every stream is one row of a shared matrix.
        """
        if rows < 1:
            raise ValueError("stream_state needs rows >= 1")
        return [
            [
                np.zeros((rows, layer.in_features), dtype=self.dtype)
                for _ in layer.stages
            ]
            for layer in self.layers
        ]

    # -- execution ------------------------------------------------------

    def _scan(self, x: np.ndarray, a: np.ndarray, b: np.ndarray, key: tuple) -> np.ndarray:
        """One RC stage over ``(batch, time, n)`` — :func:`row_stage` on
        arena buffers, in FilterScan's time-major layout, so the values
        are bit-equal."""
        step_shape = (x.shape[0], x.shape[-1])
        arena = self.arena
        # A chained stage's input is the previous stage's moveaxis view:
        # ascontiguousarray recovers the underlying time-major buffer
        # without a copy, exactly like the live kernel.
        x_tm = np.ascontiguousarray(np.moveaxis(x, -2, 0))
        buf = arena.buffer(key + ("buf",), x_tm.shape, self.dtype)
        v0 = arena.constant(
            key + ("v0",), step_shape, lambda: np.zeros(step_shape, dtype=self.dtype)
        )
        return np.moveaxis(row_stage(a, b, x_tm, v0, out=buf), 0, -2)

    def forward(self, x) -> np.ndarray:
        """Logits ``(batch, n_classes)`` for a batch of series."""
        seq = self._validate_batch(x)
        last = len(self.layers) - 1
        for li, layer in enumerate(self.layers):
            for si, (a, b) in enumerate(layer.stages):
                seq = self._scan(seq, a, b, (li, si))
            if li == last:
                # The live model's final-step readout: the last layer's
                # affine/ptanh see the final step only, so both sides
                # run GEMMs of the same shape.
                seq = seq[:, -1:, :]
            batch, steps = seq.shape[0], seq.shape[1]
            flat = seq.reshape(batch * steps, layer.in_features)
            mm = flat @ layer.weights.swapaxes(-1, -2)
            mm += layer.bias
            e1, e2, e3, e4 = layer.eta
            act = e1 + e2 * np.tanh((mm - e3) * e4)
            seq = act.reshape(batch, steps, layer.out_features)
        return seq[:, -1, :] * self.logit_scale

    __call__ = forward

    def predict(self, series) -> int:
        """Predicted class of one series (argmax of the final logits)."""
        logits = self.forward(self.coerce_series(series)[None])
        return int(np.argmax(logits[0]))

    # -- introspection --------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def nbytes(self) -> int:
        """Total frozen-parameter footprint in bytes."""
        total = 0
        for layer in self.layers:
            total += layer.weights.nbytes + layer.bias.nbytes
            total += sum(a.nbytes + b.nbytes for a, b in layer.stages)
            total += sum(e.nbytes for e in layer.eta)
        return total

    def signature(self) -> Dict[str, object]:
        """JSON-serialisable summary (served by the ``/models`` endpoint)."""
        return {
            "model_class": self.model_class,
            "in_channels": self.in_channels,
            "n_classes": self.n_classes,
            "num_layers": self.num_layers,
            "filter_order": self.filter_order,
            "dt": self.dt,
            "logit_scale": self.logit_scale,
            "precision": self.precision,
            "dtype": str(self.dtype),
            "nbytes": self.nbytes(),
        }

    def __repr__(self) -> str:
        return (
            f"ForwardPlan({self.model_class}, layers={self.num_layers}, "
            f"in_channels={self.in_channels}, n_classes={self.n_classes}, "
            f"dtype={self.dtype})"
        )


def compile_plan(
    model, precision: "Optional[str | PrecisionPolicy]" = None
) -> ForwardPlan:
    """Freeze a trained classifier into a :class:`ForwardPlan`.

    Parameters
    ----------
    model:
        A :class:`~repro.core.PrintedTemporalClassifier` (or subclass).
        The nominal (ideal-sampler) instance is captured; the model's
        own sampler is not consulted.
    precision:
        Precision policy resolving the plan's compute dtype; the
        process-wide active policy when omitted.  The bit-equality
        contract holds when this matches the policy the model's
        parameters were created under.
    """
    from ..core.models import PrintedTemporalClassifier

    if not isinstance(model, PrintedTemporalClassifier):
        raise TypeError(
            f"compile_plan expects a PrintedTemporalClassifier, "
            f"got {type(model).__name__}"
        )
    policy = resolve_policy(precision) if precision is not None else get_precision()
    dtype = policy.compute

    layers = []
    dt = None
    for block in model.blocks:
        filters = block.filters
        dt = filters.dt
        stages = tuple(
            tuple(np.asarray(c, dtype=dtype) for c in stage.nominal_coefficients(dt))
            for stage in filter_stages(filters)
        )

        # Collapse the crossbar under ε ≡ 1, mirroring
        # PrintedCrossbar.forward operation-for-operation.
        cb = block.crossbar
        theta = np.asarray(cb.theta.data, dtype=dtype)
        theta_b = np.asarray(cb.theta_b.data, dtype=dtype)
        theta_d = np.asarray(cb.theta_d.data, dtype=dtype)
        mag = np.abs(theta)
        mask = (mag >= THETA_MIN).astype(dtype)
        g = np.clip(mag, 0.0, THETA_MAX) * mask
        g_b = np.clip(np.abs(theta_b), 0.0, THETA_MAX)
        g_d = np.clip(np.abs(theta_d), THETA_MIN, THETA_MAX)
        denom = g.sum(axis=-1) + g_b + g_d
        sign = np.sign(theta)
        # path = direct + ε_inv·inverted with ε_inv ≡ 1.
        path = np.where(sign >= 0, 1.0, 0.0).astype(dtype) + np.where(
            sign >= 0, 0.0, -1.0
        ).astype(dtype)
        weights = np.ascontiguousarray(path * g / denom[..., None])
        bias = np.sign(theta_b) * g_b / denom * cb.pdk.supply_voltage

        eta = tuple(
            np.asarray(p.data, dtype=dtype)
            for p in (
                block.activation.eta1,
                block.activation.eta2,
                block.activation.eta3,
                block.activation.eta4,
            )
        )
        layers.append(
            PlanLayer(
                stages=stages,
                weights=weights,
                bias=np.asarray(bias, dtype=dtype),
                eta=eta,
                in_features=block.in_features,
                out_features=block.out_features,
            )
        )

    return ForwardPlan(
        layers=tuple(layers),
        in_channels=model.in_channels,
        n_classes=model.n_classes,
        dt=float(dt),
        logit_scale=float(model.logit_scale),
        precision=policy.name,
        dtype=np.dtype(dtype),
        model_class=type(model).__name__,
        filter_order=model.filter_order,
    )
