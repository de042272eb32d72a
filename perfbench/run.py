"""Benchmark entry point: runs one workload with one seed and prints one
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload er_static --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout of the repository. The measured run
happens in a child process (``perfbench/harness.py``) with its own Ray
session, a private run directory and a private Ray temp directory, both
removed afterwards. The child's output, Ray's logs included, goes to
stderr; only the summary goes to stdout. A child that outlives its
deadline is killed and its unfinished round counts as failed; so does a
warm-up that raises or never ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
OPS_PER_ROUND = {"queries": 2}  # orders_nation and customer_order_keys
CHILD_DEADLINE_S = 150.0
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")


def _ray_temp_dir(run_dir: str) -> str:
    """The run directory when Ray's socket paths fit under it; otherwise
    a short private directory in the system temp dir."""
    path = os.path.join(run_dir, "ray")
    if len(path) + _SOCKET_SUFFIX <= 107:
        os.makedirs(path)
        return path
    return tempfile.mkdtemp(prefix="pb-")


def _pids_with(marker: str) -> list[int]:
    """Processes whose command line mentions ``marker`` (the run's Ray
    temp dir): Ray's daemons and workers for this run only."""
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                if marker.encode() in fh.read():
                    out.append(int(name))
        except OSError:
            continue
    return out


def _stop(pids: list[int], timeout: float = 10.0) -> None:
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            pids = [p for p in pids if os.path.exists(f"/proc/{p}") and not _zombie(p)]
            if not pids:
                return
            time.sleep(0.1)


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _run_child(args, run_dir: str, ray_tmp: str) -> list[dict]:
    events = os.path.join(run_dir, "events.jsonl")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env.update(
        PYTHONPATH=os.pathsep.join([ROOT] + [p for p in [env.get("PYTHONPATH")] if p]),
        OMP_NUM_THREADS="1",
        RAY_TMPDIR=ray_tmp,
        RAY_USAGE_STATS_ENABLED="0",
        RAY_DATA_DISABLE_PROGRESS_BARS="1",
    )
    cmd = [sys.executable, "-m", "perfbench.harness", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--ray-tmp", ray_tmp, "--events", events, "--spans", spans]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                             stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno(),
                             start_new_session=True)
    try:
        child.wait(timeout=CHILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: child passed its {CHILD_DEADLINE_S:.0f} s deadline; stopping it",
              file=sys.stderr)
    finally:
        if child.poll() is None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        _stop(_pids_with(ray_tmp))
    if child.returncode:
        print(f"run.py: the child exited with code {child.returncode}", file=sys.stderr)
    recs = []
    if os.path.exists(events):
        with open(events) as fh:
            recs = [json.loads(line) for line in fh if line.strip()]
    return recs


def summarize(workload: str, trace: bool, recs: list[dict]) -> dict:
    """The result line. A run that never finished its warm-up (set-up or
    warm-up raised, or the deadline passed first) counts the warm-up as
    one attempted and failed round, and is not correct."""
    setups = [r["s"] for r in recs if r["event"] == "setup"]
    warmups = [r for r in recs if r["event"] == "warmup"]
    started = [r for r in recs if r["event"] == "start"]
    done = [r for r in recs if r["event"] == "round"]
    problems = [p for r in warmups + done for p in r["problems"]]
    for r in recs:
        if r["event"] == "error":
            print(f"round {r['round']} failed:\n{r['error']}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("events: " + " ".join(f"{r['event']}@{r['t']:.1f}" for r in recs), file=sys.stderr)
    ops = OPS_PER_ROUND.get(workload, 1)
    rounds = len(started) + (0 if warmups else 1)
    metrics: dict[str, dict] = {}
    names = PER_LAYER if trace else END_TO_END
    for name, unit in names.items():
        if name == "setup_s":
            values = setups
        else:
            values = [r["metrics"].get(name, 0.0) for r in done]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return {
        "correct": bool(warmups) and bool(done) and not problems,
        "attempted": rounds * ops,
        "failed": (rounds - len(done)) * ops,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("dedupe_ray/__init__.py", "__ray_entry__.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: the program is not in {ROOT} (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    run_root = os.path.join(ROOT, ".bench_run")
    os.makedirs(run_root, exist_ok=True)
    # a short name keeps Ray's socket paths under the run dir when it can
    run_dir = tempfile.mkdtemp(prefix="r", dir=run_root)
    ray_tmp = _ray_temp_dir(run_dir)
    try:
        recs = _run_child(args, run_dir, ray_tmp)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    print(json.dumps(summarize(args.workload, bool(args.trace), recs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
