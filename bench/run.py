"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload train-long --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
work twice in one process, untraced and then traced, and prints the
per-layer metrics, the tracing overhead and the memory peaks of one
training step; spans are written to ``bench/out/``. The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 40
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-long", "train-vocab", "serve-eval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run length the work is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second smoke run over small inputs")
    return parser.parse_args(argv)


def pin_threads() -> int:
    """Pin the process to one CPU, and BLAS and OpenMP to one thread;
    returns nproc. Must run before numpy is imported.

    On a small shared VM, one BLAS thread per process is steadier than
    nproc: a second thread bought little at these widths, and it made
    every BLAS call wait for the slower of two cores. The last allowed CPU
    is taken, not whichever the scheduler picks: the first CPU of such a
    VM also takes its interrupts, and a run that landed there was up to
    40% slower.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    return len(allowed)


def use_checkout_library() -> None:
    src = ROOT / "src"
    if not (src / "blossomrec" / "__init__.py").is_file():
        raise SystemExit(f"error: blossomrec sources not found under {src}")
    sys.path[:0] = [str(src), str(BENCH_DIR)]


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "threads": int(os.environ[_THREAD_VARS[0]]), "nproc": nproc,
            "cpu": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def memory_peaks(w, prepared, seed: int) -> dict:
    """tracemalloc peaks of one training step, in MB above the memory held
    before it: during the forward pass, and during the backward pass with
    the forward's tape still alive."""
    import tracemalloc

    import numpy as np
    from blossomrec import data, model as model_mod
    from blossomrec.tensor import zero_grads

    import workloads as wl

    ds, model = prepared.dataset, prepared.model
    rng = np.random.default_rng([seed, 2])
    users = wl.stratified_batches(ds, w.batch, 1, rng)[0]
    batch = data.SeqBatch.from_sequences([ds.train[u] for u in users], model.max_len)
    zero_grads(model.parameters())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = model_mod.sequence_loss(model, batch, training=True, rng=rng)
        forward = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        loss.backward()
        backward = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"forward": forward / 1e6, "backward": backward / 1e6}


def _number(x: float):
    return x if math.isfinite(x) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    use_checkout_library()
    import workloads as wl
    import tracing

    w = wl.WORKLOADS[args.workload]
    w = w.tiny() if args.size == "tiny" else w.scaled(args.seconds)
    env = environment(nproc)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            prepared = wl.setup(w, args.seed, workdir)
            setup_s.append(time.perf_counter() - start)
        outcomes = [wl.run_phases(w, prepared, args.seed, wl.NoTrace())]
        e2e = wl.end_to_end(outcomes[0], setup_s, peak_rss_mb())
        stats = wl.input_stats(w, prepared)
        layers = None
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                with tracer.span("setup"):
                    traced = wl.setup(w, args.seed, workdir)
                outcomes.append(wl.run_phases(w, traced, args.seed, tracer))
            overhead = outcomes[1].measured_s / outcomes[0].measured_s - 1.0
            reached = outcomes[1].params_reached
            layers = tracer.layer_metrics(memory_peaks(w, traced, args.seed),
                                          sum(reached) / max(len(reached), 1), overhead)
            tracer.write(OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = outcomes[0]
    stats["pad_frac_train"] = first.pad_slots / max(first.slots, 1)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    work = {"rounds": w.rounds, "train_steps": len(first.step_s), "train_batch": w.batch,
            "timed_eval_users": first.eval_users, "requests": len(first.request_ms),
            "setup_reps": len(setup_s)}
    checks_seen = {"padding_max_abs_err": first.padding_error,
                   "oracle_max_abs_err": first.oracle_error}
    print(f"# workload {w.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} size {args.size}")
    for title, record in (("env", env), ("inputs", stats), ("work", work), ("checks", checks_seen)):
        print(f"# {title} {json.dumps(record)}")
    for name, (value, unit, samples) in e2e.items():
        print(f"{name} {value:.6g} {unit} (n={samples})")

    if layers is None:
        units = {name: unit for name, (_, unit, _) in e2e.items()}
        values = {name: value for name, (value, _, _) in e2e.items() if name != "fail_frac"}
    else:
        units = tracing.layer_metric_units()
        values = layers
        for name, value in layers.items():
            print(f"{name} {value:.6g} {units[name]}")
    metrics = {name: {"value": _number(value), "unit": units[name]} for name, value in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
