"""wignerflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src``.  Every measuring process is a fresh ``perfbench.worker``
so that peak RSS belongs to the workload alone; with ``--trace 0`` four more
workers only set up, and ``setup_s`` is the median of the five set-ups.
NumPy/BLAS threads are capped at the number of usable cores.  Every time is
reported at a nominal host speed, set by a reference kernel timed next to
each op (``perfbench/calibrate.py``); the wall times are in the summary.

Prints a summary (every metric with unit and sample count) and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero without that line if anything goes wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("phase_space", "dynamics_series", "cli_tables")
# Set-ups per --trace 0 run; setup_s is their median.  The set-up-only
# workers run half before and half after the measuring one, so that the
# set-ups sample the machine at different times rather than in one burst.
SETUPS = 5
WORKER_TIMEOUT_S = 170.0
SPANS_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    path = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def _run_worker(args: argparse.Namespace, tag: str, extra: list[str], deadline: float) -> dict:
    workdir = WORK_DIR / f"{os.getpid()}-{tag}"
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    cmd += ["--start-ns", str(time.time_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, timeout=timeout, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only once empty
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "wignerflow" / "__init__.py").is_file():
        print(f"no wignerflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SystemExit inside subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.npz"
            result = _run_worker(args, "trace", ["--spans-out", str(spans)], deadline)
        else:
            setups = [_run_worker(args, f"setup{i}", ["--setup-only"], deadline)["setup_s"]
                      for i in range(SETUPS // 2)]
            result = _run_worker(args, "measure", [], deadline)
            setups.append(result["metrics"]["setup_s"])
            setups += [_run_worker(args, f"setup{i}", ["--setup-only"], deadline)["setup_s"]
                       for i in range(SETUPS // 2, SETUPS - 1)]
            result["metrics"]["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    names = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in names}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed "
          f"(fail_ratio {result['failed'] / result['attempted']:.6g}), ops by kind {result['kinds']}")
    print("median wall ms by kind: " + ", ".join(f"{k} {v:.4g}" for k, v in result["kind_p50_ms"].items()))
    print(f"host scale (nominal / measured reference kernel time) {result['host_scale']:.4g}; "
          f"set-up wall time {result['setup_wall_s']:.4g} s"
          + (f"; op p50 wall time {result['wall_p50_ms']:.4g} ms" if "wall_p50_ms" in result else ""))
    if result["errors"]:
        print(f"failures by class: {result['errors']}")
    if args.trace and "probe_attempted" in result and result["probe_attempted"]:
        print(f"known-defect probe: {result['probe_failed']}/{result['probe_attempted']} failed, {result['probe_errors']}")
    for name, m in metrics.items():
        note = ""
        if name in ("op_p50_ms", "op_tail_ms", "items_per_s"):
            note = f"  (over {result['ok_ops']} successful ops"
            if name == "items_per_s":
                note += f"; item: {result['item']}; kind medians weighted by the cycle"
            if name == "op_tail_ms":
                note += f"; percentile {result['metrics']['op_tail_percentile']:.2f}"
            note += ")"
        elif name == "setup_s":
            note = f"  (median of {SETUPS} set-ups, each at nominal speed)"
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
