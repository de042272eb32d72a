"""Measurement from outside the program: spans around public calls, a count
of Ray Data executions, task CPU from Ray Data's per-operator stats, and a
sampler for the driver's resident memory.

Spans are kept in memory (name, start, end, parent, run id plus counters)
and written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class PeakRss:
    """Samples this process's resident memory every ``interval`` seconds
    while active; ``peak_mb`` is the largest sample seen."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "PeakRss":
        self.peak = rss_bytes()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, rss_bytes())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak = max(self.peak, rss_bytes())

    @property
    def peak_mb(self) -> float:
        return self.peak / (1 << 20)


class ExecutionProbe:
    """Counts Ray Data executions by wrapping ``StreamingExecutor.execute``
    and keeps each executor so its per-operator task CPU can be read once
    the execution is done."""

    def __init__(self) -> None:
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        self._cls = StreamingExecutor
        self._orig = StreamingExecutor.execute
        self.executors: list = []
        probe = self

        def execute(executor, dag, initial_stats=None):
            probe.executors.append(executor)
            return probe._orig(executor, dag, initial_stats)

        StreamingExecutor.execute = execute

    def close(self) -> None:
        self._cls.execute = self._orig

    def mark(self) -> int:
        return len(self.executors)

    def task_stats(self, since: int) -> tuple[float, int]:
        """Remote CPU seconds of every operator of the executions started
        after ``mark() == since``, and how many blocks reported them."""
        total, n_blocks = 0.0, 0
        for executor in self.executors[since:]:
            for op in getattr(executor, "_topology", None) or {}:
                for blocks in op.get_stats().values():
                    for b in blocks:
                        stats = getattr(b, "exec_stats", None)
                        if stats is not None:
                            total += stats.cpu_time_s
                            n_blocks += 1
        return total, n_blocks


@contextmanager
def span(tracer: "Tracer | None", name: str):
    """``tracer.span(name)``, or only a wall-clock timer without a tracer."""
    if tracer is not None:
        with tracer.span(name) as rec:
            yield rec
        return
    rec: dict = {}
    t0 = time.perf_counter()
    try:
        yield rec
    finally:
        rec["wall_s"] = time.perf_counter() - t0


class Tracer:
    """Span recorder. ``span(name)`` times a block: wall, driver CPU
    (``time.process_time``), Ray Data executions started in it and their
    task CPU. Extra counters go into the yielded dict.

    A span that started Ray Data executions but found no task stats in any
    of them means the probe no longer reads this Ray version's executor;
    it is listed in ``problems`` instead of reading as 0 task CPU."""

    def __init__(self, run_id: str, probe: ExecutionProbe):
        self.run_id = run_id
        self.probe = probe
        self.spans: list[dict] = []
        self.problems: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec: dict = {"name": name, "run": self.run_id,
                     "parent": self._stack[-1] if self._stack else None}
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        mark = self.probe.mark()
        cpu0 = time.process_time()
        rec["start"] = time.time()
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec["wall_s"] = time.perf_counter() - t0
            rec["end"] = rec["start"] + rec["wall_s"]
            rec["driver_cpu_s"] = time.process_time() - cpu0
            rec["executions"] = self.probe.mark() - mark
            rec["task_cpu_s"], n_blocks = self.probe.task_stats(mark)
            if rec["executions"] and not n_blocks:
                self.problems.append(
                    f"span {name}: {rec['executions']} Ray Data executions gave no task stats"
                )
            self._stack.pop()

    def take_problems(self) -> list[str]:
        out, self.problems = self.problems, []
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
