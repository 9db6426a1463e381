"""Shared pieces of the benchmark: statistics, seeds, model, timing loops."""

from __future__ import annotations

import bisect
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

#: The series every workload classifies: CBF, 3 classes, 64 steps.
DATASET = "CBF"
N_CLASSES = 3


def rng(seed: int, *tag: int) -> np.random.Generator:
    """An independent generator per (seed, tag) — one per input stream."""
    return np.random.default_rng(np.random.SeedSequence([seed, *tag]))


def build_model(seed: int):
    """The ADAPT-pNC classifier every phase uses (SO-LF, paper widths).

    The weights do not change the cost of a forward, so serving and
    in-process inference use the seeded initialisation directly.
    """
    from repro.core import AdaptPNC

    return AdaptPNC(N_CLASSES, rng=rng(seed, 1))


def series_pool(seed: int) -> np.ndarray:
    """All 150 seeded CBF series (train, val and test), ``(150, 64)``."""
    from repro.data import load_dataset

    data = load_dataset(DATASET, n_samples=150, seed=seed)
    return np.concatenate([data.x_train, data.x_val, data.x_test])


def drift_signal(gen: np.random.Generator) -> np.ndarray:
    """A 4608-step seeded drift stream (24 class segments of 3 windows)."""
    from repro.data import drift_stream

    return drift_stream(DATASET, segments=24, windows_per_segment=3,
                        seed=int(gen.integers(2**31))).x


def stratified(lo: int, hi: int, n: int, gen: np.random.Generator,
               log: bool = False) -> np.ndarray:
    """``n`` integer sizes in ``[lo, hi]`` at the quantile midpoints of a
    uniform (or, with ``log``, log-uniform) law, in a seeded order.

    The set of sizes depends only on ``n``, so the work of a run does
    not depend on its seed; the seed decides the order.
    """
    q = (np.arange(n) + 0.5) / n
    if log:
        sizes = np.exp(np.log(lo) + q * (np.log(hi + 1) - np.log(lo)))
    else:
        sizes = lo + q * (hi + 1 - lo)
    return gen.permutation(np.floor(sizes).astype(int))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile that still has
    at least ten samples beyond it (the maximum below 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan, 0
    idx = max(0, n - 11)
    return float(ordered[idx]), 100.0 * (idx + 1) / n, n


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The reference kernel's rate (steps/s) that counts as speed 1.0: about
#: its median over a 150-s probe on the 2-vCPU host this was built on
#: (its tenth and ninetieth percentiles were 45,000 and 81,000).
REF_RATE = 70_000.0
#: Seconds the reference kernel runs per sample.
REF_BLOCK_S = 0.005
#: A measured interval is scaled by the median speed of the samples
#: taken within this many seconds of it.
HALO_S = 1.0


class HostSpeed:
    """How fast the host runs small numpy kernels now, relative to ``REF_RATE``.

    On the 2-vCPU host this was built on, the same numpy-heavy code runs
    up to twice as fast in some stretches as in others, for seconds to
    minutes at a time, while the guest's steal time stays near zero;
    every in-process rate and training epoch moves with it, and a set of
    runs that straddles such a change spreads past any bound a
    comparison can use.  ``sample`` times a fixed reference kernel --
    numpy only, none of the program's code, the same kind of per-step
    work as the plan's row kernels -- for ``REF_BLOCK_S``.  The
    benchmark takes a sample after every training epoch and every
    inference block, and between requests while serving, and reports
    its timings at reference speed: a rate divided by ``at``, an epoch
    or a latency multiplied by it, and set-up multiplied by ``mean``.
    Measured on that host over 150 s, the spread of 10-s medians fell
    from 0.23-0.35 to 0.02-0.07 for the fleet, batch-32 and batch-1
    rates.
    """

    def __init__(self) -> None:
        gen = rng(0, 0)
        self.x = gen.standard_normal((32, 16))
        self.a = gen.standard_normal((16, 16)) / 4.0
        self.times: List[float] = []
        self.speeds: List[float] = []
        # Warm-up: the first calls allocate and load code paths.
        for _ in range(3):
            self._kernel()

    def _kernel(self) -> int:
        y = np.zeros_like(self.x)
        for _ in range(64):
            y = 0.9 * y + 0.1 * np.tanh(np.einsum("ij,jk->ik", self.x, self.a) + y)
        return 64

    def sample(self) -> None:
        t0 = time.perf_counter()
        steps = 0
        while True:
            steps += self._kernel()
            t1 = time.perf_counter()
            if t1 - t0 >= REF_BLOCK_S:
                break
        self.times.append((t0 + t1) / 2)
        self.speeds.append(steps / (t1 - t0) / REF_RATE)

    def mean(self) -> float:
        """Mean speed of all the samples: how much of the time the host
        spent slow, over the whole run."""
        return float(np.mean(self.speeds))

    def at(self, t0: float, t1: float, halo: float = HALO_S) -> float:
        """Median speed of the samples within ``halo`` seconds of
        ``[t0, t1]`` (the nearest sample if none is)."""
        lo = bisect.bisect_left(self.times, t0 - halo)
        hi = bisect.bisect_right(self.times, t1 + halo)
        if lo == hi:
            near = min(range(len(self.times)), key=lambda i: abs(self.times[i] - t1))
            return self.speeds[near]
        return median(self.speeds[lo:hi])
