"""One measured run in a fresh process (started by ``run.py``).

Writes the workload's inputs (untimed), then sets the workload up
``SETUP_REPS`` times before Ray starts: each set-up imports the program's
modules afresh and makes the workload's set-up calls into it
(``setup_s`` is their median). Then it owns the Ray session (the CPUs
this process may use, a pinned object store, ``ray.shutdown`` in a
``finally``), warms up, and runs whole rounds: at least ``MIN_ROUNDS``,
and more while the next one should end within ``--seconds``. Every event
is appended as one JSON line to ``--events`` as soon as it happens, so
``run.py`` can count a warm-up or round that never finished as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

SETUP_REPS = 11
MIN_ROUNDS = 3  # untraced: a median that one slow round cannot move
OBJECT_STORE_BYTES = 512 << 20


def forget_program() -> None:
    """Drop the program's modules from ``sys.modules`` so the next set-up
    imports them again, as a fresh process would."""
    for name in [m for m in sys.modules if m == "__ray_entry__" or m.split(".")[0] == "dedupe_ray"]:
        del sys.modules[name]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--events", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    events = open(args.events, "a", buffering=1)
    t_proc = time.perf_counter()

    def emit(**rec) -> None:
        rec["t"] = time.perf_counter() - t_proc
        events.write(json.dumps(rec) + "\n")

    # set-up needs no Ray session: it runs first, on a quiet machine. The
    # libraries the program imports are loaded untimed, so setup_s is the
    # program's own import and set-up work
    import logging

    import numpy  # noqa: F401
    import pandas  # noqa: F401
    import pyarrow.compute  # noqa: F401
    import ray
    import ray.data  # noqa: F401

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.run_dir, args.seed)
    workload.write_inputs()
    for _ in range(SETUP_REPS):
        forget_program()
        t0 = time.perf_counter()
        workload.setup()
        emit(event="setup", s=time.perf_counter() - t0)

    ray.init(
        address="local",
        num_cpus=len(os.sched_getaffinity(0)),
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=args.ray_tmp,
    )
    try:
        emit(event="ray_up")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

        from perfbench.trace import ExecutionProbe, PeakRss, Tracer

        try:
            warm_problems = workload.warmup()
        except Exception:
            emit(event="error", round="warmup", error=traceback.format_exc())
            return
        emit(event="warmup", problems=warm_problems)
        tracer = None
        if args.trace:
            tracer = Tracer(f"{args.workload}-{args.seed}", ExecutionProbe())
        # whole rounds: after MIN_ROUNDS, a round starts only when the
        # rounds so far say it will end inside the window
        min_rounds = 1 if args.trace else MIN_ROUNDS
        t_start = time.perf_counter()
        i = 0
        while i < min_rounds or (time.perf_counter() - t_start) * (i + 1) / i <= args.seconds:
            emit(event="start", round=i)
            try:
                with PeakRss() as mem:
                    metrics, problems = workload.round(i, tracer)
                if tracer:
                    problems += tracer.take_problems()
            except Exception:
                emit(event="error", round=i, error=traceback.format_exc())
            else:
                metrics["driver_peak_rss_mb"] = mem.peak_mb
                emit(event="round", round=i, metrics=metrics, problems=problems)
            i += 1
        if tracer:
            tracer.probe.close()
            tracer.write(args.spans)
    finally:
        emit(event="shutdown")
        ray.shutdown()
        emit(event="down")
        events.close()


if __name__ == "__main__":
    sys.exit(main())
