"""``infer_local`` phase: one thread, in-process, on a frozen plan.

(a) ``ForwardPlan.forward`` on single 64-step series and on batches of
32; (b) one ``StreamingSession`` fed small chunks (1-4 steps) and,
separately, large chunks (64-256 steps); (c) a 32-row
``MultiStreamSession`` stepped with ragged 1-256-step chunks.

Chunk sizes are stratified: every call (fleet) or block of chunks
(session) draws the same set of sizes in a seeded order, so the work
per unit of time does not depend on the seed.  The phase measures the
parts in turn, one ``SLICE_S`` block at a time, whenever the benchmark
calls ``run`` (after each training epoch), so every part samples the
whole stretch of the run that training covers.  Each block is followed
by a host-speed sample, and the metrics are the median block rate at
reference speed (``common.HostSpeed``).
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from common import (
    HostSpeed, build_model, drift_signal, median, rng, series_pool, stratified,
)
from tracer import Tracer

FLEET_ROWS = 32
BATCH = 32
#: Fleet rows whose whole chunk history is replayed through a lone
#: session for the bit-equality check.
CHECKED_ROWS = 2
SLICE_S = 0.05
#: Fewest slices per part.
MIN_SLICES = 10
#: Parts in slice order, with the end-to-end metric each one gives.
METRICS = {
    "b1": "classify_b1_per_s",
    "b32": "classify_b32_per_s",
    "small": "stream_small_steps_per_s",
    "large": "stream_large_steps_per_s",
    "fleet": "fleet_steps_per_s",
}
PARTS = tuple(METRICS)


class LocalSetup:
    def __init__(self, seed: int) -> None:
        from repro.compile import compile_plan
        from repro.core import MultiStreamSession, StreamingSession

        self.seed = seed
        self.series = series_pool(seed)
        self.signal = drift_signal(rng(seed, 30))
        self.plan = compile_plan(build_model(seed))
        # Warm-up: first calls allocate the plan's scratch arenas.
        self.plan.forward(self.series[:1])
        self.plan.forward(self.series[:BATCH])
        StreamingSession(self.plan).process(self.signal[:8])
        MultiStreamSession(self.plan, capacity=FLEET_ROWS)


def install(tracer: Tracer) -> None:
    from repro.compile import ForwardPlan, plan as plan_module
    from repro.core import MultiStreamSession, StreamingSession

    tracer.span(ForwardPlan, "forward", "plan.forward")
    tracer.span(ForwardPlan, "__call__", "plan.forward")
    tracer.span(StreamingSession, "process", "session.process")
    tracer.span(MultiStreamSession, "process_many", "fleet.process_many",
                lambda span, args, result: {"rows": len(result)})
    # The engines import the row kernels from the plan module on every
    # call, so wrapping the module attributes catches each call.
    for name in ("row_stage", "row_affine", "row_ptanh"):
        tracer.count(plan_module, name, "row_kernels")


class _Chunks:
    """Cyclic cursor over a signal, cut into stratified chunk sizes."""

    def __init__(self, signal: np.ndarray, sizes: np.ndarray) -> None:
        self.signal, self.sizes = signal, sizes
        self.pos = self.i = 0

    def next(self) -> np.ndarray:
        size = int(self.sizes[self.i % len(self.sizes)])
        self.i += 1
        if self.pos + size > self.signal.size:
            self.pos = 0
        chunk = self.signal[self.pos:self.pos + size]
        self.pos += size
        return chunk


class LocalPhase:
    """Measures the parts in turn, one ``SLICE_S`` block each, for ``seconds``."""

    def __init__(self, setup: LocalSetup, traced: bool, seconds: float,
                 speed: HostSpeed) -> None:
        from repro.core import MultiStreamSession, StreamingSession

        self.setup = setup
        self.traced = traced
        self.speed = speed
        self.seconds = max(seconds, MIN_SLICES * len(PARTS) * SLICE_S)
        self.used = 0.0
        self.tracer = Tracer()
        plan, series = setup.plan, setup.series
        gen = rng(setup.seed, 31)
        order = gen.permutation(len(series))
        self.singles = [series[i:i + 1] for i in order]
        self.batches = [series[order[k:k + BATCH]]
                        for k in range(0, len(order) - BATCH + 1, BATCH)]
        self.sessions = {
            part: (StreamingSession(plan), _Chunks(setup.signal, stratified(lo, hi, 64, gen)))
            for part, lo, hi in (("small", 1, 4), ("large", 64, 256))
        }
        self.fleet = MultiStreamSession(plan, capacity=FLEET_ROWS)
        self.rows = [self.fleet.open() for _ in range(FLEET_ROWS)]
        offsets = gen.integers(setup.signal.size, size=FLEET_ROWS)
        self.cursors = [
            _Chunks(np.roll(setup.signal, -int(o)), stratified(1, 256, 64, gen, log=True))
            for o in offsets
        ]
        check_rows = gen.choice(self.rows, CHECKED_ROWS, replace=False)
        self.history = {int(r): [] for r in check_rows}
        self.calls = 0
        self.slices = 0
        self.units = dict.fromkeys(PARTS, 0)
        self.kernel_calls = dict.fromkeys(PARTS, 0)
        #: Per part, ``(start, end, units)`` of each block.
        self.blocks = {part: [] for part in PARTS}

    def _b1(self) -> int:
        self.setup.plan.forward(self.singles[self.calls % len(self.singles)])
        return 1

    def _b32(self) -> int:
        self.setup.plan.forward(self.batches[self.calls % len(self.batches)])
        return BATCH

    def _session(self, part: str) -> int:
        session, chunks = self.sessions[part]
        return session.process(chunks.next()).shape[0]

    def _fleet(self) -> int:
        chunks = {r: self.cursors[r].next() for r in self.rows}
        out = self.fleet.process_many(chunks)
        for r, history in self.history.items():
            history.append((chunks[r], out[r]))
        return sum(c.shape[0] for c in chunks.values())

    def run(self, until: float = 1.0) -> None:
        """Measure until ``until`` of the phase's time is used."""
        while self.used < until * self.seconds:
            self._slice()

    def _slice(self) -> None:
        part = PARTS[self.slices % len(PARTS)]
        self.slices += 1
        work = {"b1": self._b1, "b32": self._b32, "fleet": self._fleet,
                "small": lambda: self._session("small"),
                "large": lambda: self._session("large")}[part]

        def step() -> int:
            self.calls += 1
            return work()

        if self.traced:
            install(self.tracer)
        before = self.tracer.counts["row_kernels"]
        units = 0
        t0 = time.perf_counter()
        try:
            while True:
                units += step()
                t1 = time.perf_counter()
                if t1 - t0 >= SLICE_S:
                    break
        finally:
            self.tracer.close()
        self.speed.sample()
        self.used += time.perf_counter() - t0
        self.blocks[part].append((t0, t1, units))
        self.units[part] += units
        self.kernel_calls[part] += self.tracer.counts["row_kernels"] - before

    def finish(self) -> Dict:
        from repro.core import StreamingSession

        raw = {part: [u / (t1 - t0) for t0, t1, u in self.blocks[part]] for part in PARTS}
        # The median block at reference speed: a neighbour taking the
        # CPU moves a minority of blocks.
        metrics = {name: median([u / (t1 - t0) / self.speed.at(t0, t1)
                                 for t0, t1, u in self.blocks[part]])
                   for part, name in METRICS.items()}
        ok, n_chunks = True, 0
        for history in self.history.values():
            lone = StreamingSession(self.setup.plan)
            for chunk, logits in history:
                ok &= bool(np.array_equal(lone.process(chunk), logits))
                n_chunks += 1
        checks = [("local.fleet_bit_equal", ok and n_chunks > 0,
                   f"{n_chunks} chunks of {len(self.history)} fleet rows "
                   f"bit-equal to lone sessions")]
        notes = ["local, at reference speed (as timed): " + ", ".join(
            f"{name} {metrics[name]:,.0f} ({median(raw[part]):,.0f}; "
            f"median of {len(raw[part])} blocks)"
            for part, name in METRICS.items())]
        layers = self._layer_metrics() if self.traced else {}
        return {"metrics": metrics, "layers": layers, "checks": checks, "notes": notes,
                "attempted": self.calls, "failed": 0}

    def _spans(self, name: str, part: str):
        return [s for s in self.tracer.named(name)
                if any(lo <= s.start < hi for lo, hi, _ in self.blocks[part])]

    def _layer_metrics(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for part in ("b1", "b32"):
            layers[f"compile.plan.forward_us.{part}"] = 1e3 * median(
                [s.ms for s in self._spans("plan.forward", part)])
        for part in ("small", "large"):
            ms = sum(s.ms for s in self._spans("session.process", part))
            layers[f"core.streaming.process_us_per_step.{part}"] = 1e3 * ms / self.units[part]
        for part in ("small", "large", "fleet"):
            layers[f"compile.plan.kernel_calls_per_step.{part}"] = (
                self.kernel_calls[part] / self.units[part])
        spans = self._spans("fleet.process_many", "fleet")
        layers["core.streaming.process_many_us_per_step"] = (
            1e3 * sum(s.ms for s in spans) / self.units["fleet"])
        layers["core.streaming.rows_per_call"] = float(np.mean([s.attrs["rows"] for s in spans]))
        return layers
