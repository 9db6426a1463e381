"""One command for the repository benchmark (see ``perfbench/README.md``).

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 50 --trace 0

Every run reports every end-to-end metric, so every workload runs the
three ways the system is used -- paper-shaped training, in-process
inference and HTTP serving.  Serving takes a fixed ``serve.PHASE_S``
seconds; the workload decides how the rest of ``--seconds`` is divided
between training and inference.  Training fits and serving windows
take turns in a fixed order, and inference measures between training
epochs (see ``one_pass``).  Set-up (model build, plan compile, server
launch to its first response, warm-up) is repeated ``SETUP_REPS``
times and reported as the median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes an
untraced pass and then a traced one, each with half of ``--seconds``
(serving keeps its fixed length, so the run takes longer), and prints
the per-layer metrics plus, for every end-to-end metric, the traced pass's
cost relative to the untraced one (``trace.overhead.*``; 1.0 = no
overhead).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check
prints ``"correct": false`` and exits 1; a run that cannot start (no
``src/`` beside this directory) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"

SETUP_REPS = 3
#: Training's share of the ``--seconds`` left after serving, per
#: workload; in-process inference gets the rest.  Serving has the same
#: fixed length in every workload (``serve.PHASE_S``): its tails need
#: several 5-s windows per run.
TRAIN_SHARE = {"train_paper": 2 / 3, "infer_local": 1 / 3}


def one_pass(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    """Set up ``SETUP_REPS`` times, then run the phases in turns.

    Training fits alternate with serving windows, and in-process
    inference measures one block after each training epoch, as far as
    its share of the epochs done.  The host this was built on has
    stretches where it runs much faster or slower; a phase run in one
    stretch of the run reads whichever state that stretch fell in
    (measured: with the phases one after another, the run-to-run
    spread of the fleet throughput on ``train_paper`` reached 0.36,
    over its bound).
    """
    import common
    import local
    import serve
    import train

    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        setups = (train.TrainSetup(seed), local.LocalSetup(seed),
                  serve.ServeSetup(seed, traced))
        setup_s.append(time.perf_counter() - t0)
        if len(setup_s) < SETUP_REPS:
            setups[2].close()
    try:
        rest = max(0.0, seconds - serve.PHASE_S)
        speed = common.HostSpeed()
        inference = local.LocalPhase(setups[1], traced, rest * (1 - TRAIN_SHARE[workload]),
                                     speed)
        trainer = train.TrainPhase(setups[0], traced, rest * TRAIN_SHARE[workload], speed,
                                   between=lambda done: inference.run(until=done))
        server = serve.ServePhase(setups[2], traced)
        phases = (trainer, inference, server)
        for pair in itertools.zip_longest(trainer.pieces(), server.pieces()):
            for piece in pair:
                if piece is not None:
                    piece()
        inference.run()
        results = [phase.finish() for phase in phases]
    finally:
        setups[2].close()

    merged = {"metrics": {}, "layers": {}, "checks": [], "notes": [],
              "attempted": 0, "failed": 0}
    for result in results:
        merged["metrics"].update(result["metrics"])
        merged["layers"].update(result["layers"])
        merged["checks"] += result["checks"]
        merged["notes"] += result["notes"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    # Set-up is too short and spans two processes, so the samples
    # around it fall on either of the host's speeds at random; the
    # run's mean speed tracks how the host drifts over minutes.
    merged["metrics"]["setup_s"] = common.median(setup_s) * speed.mean()
    merged["metrics"]["peak_rss_mb"] = max(common.peak_rss_mb(), results[2]["peak_rss_mb"])
    merged["notes"].append(
        f"setup_s: {merged['metrics']['setup_s']:.3f} s at the run's mean speed "
        f"{speed.mean():.3f} (as timed, median of "
        + ", ".join(f"{s:.3f}" for s in setup_s) + " s)"
    )
    return merged


def _emit(names_units: Dict[str, str], values: Dict[str, float]) -> Dict:
    missing = set(names_units) - set(values)
    extra = set(values) - set(names_units)
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {sorted(missing)}, extra {sorted(extra)}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in names_units.items()}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import common  # noqa: F401 -- puts ../src on the path
    try:
        import repro  # noqa: F401 -- the program under test
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        passes = [one_pass(args.workload, args.seed, args.seconds / 2, traced=False),
                  one_pass(args.workload, args.seed, args.seconds / 2, traced=True)]
    else:
        passes = [one_pass(args.workload, args.seed, args.seconds, traced=False)]
    for i, result in enumerate(passes):
        label = "traced" if i else "untraced"
        for note in result["notes"]:
            print(f"[{label}] {note}")
        for name, ok, detail in result["checks"]:
            print(f"[{label}] check {name}: {'ok' if ok else 'FAILED'} ({detail})")

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        plain, traced = passes[0]["metrics"], passes[1]["metrics"]
        values = dict(passes[1]["layers"])
        for m in spec["end_to_end"]:
            name = m["name"]
            ratio = traced[name] / plain[name]
            values[f"trace.overhead.{name}"] = ratio if m["better"] == "lower" else 1 / ratio
        metrics = _emit({m["name"]: m["unit"] for m in spec["per_layer"]}, values)
    else:
        metrics = _emit(e2e, passes[0]["metrics"])
    correct = all(ok for result in passes for _, ok, _ in result["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
