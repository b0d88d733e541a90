"""One benchmark process: set up a workload, then run it closed-loop and measure.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` from the
checkout root with ``src`` on the path.  Prints one JSON object as its last
line.  With ``--setup-only`` it stops after set-up and reports only
``setup_s``; otherwise it measures the end-to-end metrics (``--trace 0``) or
the per-layer metrics from a traced run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import wignerflow

from perfbench import calibrate
from perfbench import tracer as tracing
from perfbench.workloads import WORKLOADS, CheckFailed, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it


@dataclass
class Stats:
    """Failure accounting and latencies of the ops one loop attempted."""

    latencies_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    first_traceback: dict[str, str] = field(default_factory=dict)
    kinds: Counter = field(default_factory=Counter)
    by_kind: dict[str, list[int]] = field(default_factory=dict)

    def fail(self, label: str) -> None:
        self.failed += 1
        self.errors[label] += 1
        self.first_traceback.setdefault(label, traceback.format_exc())


def run_op(op: Op, stats: Stats) -> int | None:
    """Time one op, then check its output; returns the op's wall time or None if it failed.

    Any exception escaping the op or its check is counted by class and the
    loop goes on, so a defect shows in the failure count instead of ending
    the run.
    """
    stats.attempted += 1
    stats.kinds[op.kind] += 1
    start = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:
        stats.fail(type(exc).__name__)
        return None
    elapsed = time.perf_counter_ns() - start
    try:
        op.check(out)
    except CheckFailed:
        stats.fail("CheckFailed")
        return None
    except Exception as exc:
        stats.fail(f"check:{type(exc).__name__}")
        return None
    stats.latencies_ns.append(elapsed)
    stats.by_kind.setdefault(op.kind, []).append(elapsed)
    return elapsed


class OpSequence:
    """The workload's cycle, repeated; the k-th op of a kind uses input k of that kind."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.seen: Counter = Counter()

    def next_cycle(self) -> list[Op]:
        ops = []
        for kind in self.workload.cycle:
            ops.append(self.workload.op(kind, self.seen[kind]))
            self.seen[kind] += 1
        return ops


def tail(latencies_ns: list[int]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n


def setup(name: str, seed: int, workdir: Path,
          reference: calibrate.Reference) -> tuple[Workload, OpSequence, list[int]]:
    """Generate inputs and run one warm-up op of each kind (all part of setup_s).

    The reference kernel is timed after input generation and after every
    warm-up op, so that the scale of the set-up time samples the host while
    it sets up; those timings are returned for the caller to leave out.
    """
    workload = WORKLOADS[name](seed, workdir)
    reference_ns = [reference.time_ns()]
    sequence = OpSequence(workload)
    warm = Stats()
    for kind in dict.fromkeys(workload.cycle):
        run_op(workload.op(kind, 0), warm)
        reference_ns.append(reference.time_ns())
    if warm.failed:
        label = next(iter(warm.errors))
        raise RuntimeError(f"warm-up op failed ({label}):\n{warm.first_traceback[label]}")
    return workload, sequence, reference_ns


def measure(sequence: OpSequence, seconds: float,
            reference: calibrate.Reference) -> tuple[Stats, list[tuple[Op, float]], float]:
    """Run whole cycles for ``seconds``, timing the reference kernel before every op.

    Every op starts after a full garbage collection, as in a fresh process,
    so that no op pays for collecting the garbage of the ops before it.
    Returns the stats (raw wall times), each successful op with its nominal
    time in ns, and the median scale from wall to nominal time.
    """
    stats = Stats()
    reference_ns: list[int] = []
    timed: list[tuple[Op, int | None]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for op in sequence.next_cycle():
            gc.collect()
            reference_ns.append(reference.time_ns())
            timed.append((op, run_op(op, stats)))
    scales = calibrate.local_scales(reference_ns, reference.nominal_ns)
    nominal = [(op, e * s) for (op, e), s in zip(timed, scales) if e is not None]
    return stats, nominal, statistics.median(scales)


def cycle_rate(nominal: list[tuple[Op, float]], cycle: tuple[str, ...]) -> float:
    """Items per second of a typical cycle: its items over the sum of its kinds' median op times.

    Equal to items over summed time when every op of a kind costs the same;
    unlike that sum, one op slowed by the host does not move it.
    """
    by_kind: dict[str, list[tuple[int, float]]] = {}
    for op, ns in nominal:
        by_kind.setdefault(op.kind, []).append((op.items, ns))
    items = sum(statistics.median(i for i, _ in by_kind[kind]) for kind in cycle)
    ns = sum(statistics.median(t for _, t in by_kind[kind]) for kind in cycle)
    return items / (ns / 1e9)


def end_to_end(nominal: list[tuple[Op, float]], cycle: tuple[str, ...], setup_s: float) -> dict[str, float]:
    times = [ns for _, ns in nominal]
    value, pct = tail(times)
    return {
        "op_p50_ms": statistics.median(times) / 1e6,
        "op_tail_ms": value / 1e6,
        "op_tail_percentile": pct,
        "items_per_s": cycle_rate(nominal, cycle),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

LAYERS = ("catalog", "transform", "flow", "gaussian", "tunneling", "special", "cli")


@dataclass
class TraceResult:
    stats: Stats
    tracer: tracing.Tracer
    memory: tracing.Tracer
    traced_ns: int
    untraced_ns: int
    traced_ops: int
    traced_items: int
    warnings: int
    probe: Stats | None
    probe_errors: dict[str, int]
    scale: float


def _run_caught(op: Op, stats: Stats) -> tuple[int | None, int]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        elapsed = run_op(op, stats)
    return elapsed, sum(issubclass(w.category, RuntimeWarning) for w in caught)


def traced_run(workload: Workload, sequence: OpSequence, seconds: float,
               reference: calibrate.Reference) -> TraceResult:
    """Alternate untraced and traced cycles (equal numbers) for ``seconds``.

    Then one cycle with memory tracing on, and for dynamics_series the
    known-defect probe.  Self times and counts come from the traced cycles
    only; the untraced ones give the tracing overhead.  As in ``measure``,
    every op starts after a full garbage collection.  The reference kernel
    runs once before every cycle, untraced, for the scale of the self times.
    """
    stats = Stats()
    reference_ns: list[int] = []
    runtime_warnings = 0
    traced_ns = untraced_ns = traced_ops = traced_items = 0
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    traced_turn = False
    while time.perf_counter() < deadline or traced_turn:
        ops = sequence.next_cycle()
        reference_ns.append(reference.time_ns())
        if traced_turn:
            with tracer:
                for op in ops:
                    gc.collect()
                    with tracer.op(op.kind):
                        elapsed, warned = _run_caught(op, stats)
                    runtime_warnings += warned
                    traced_ns += elapsed or 0
                    traced_ops += 1
                    traced_items += op.items if elapsed is not None else 0
        else:
            for op in ops:
                gc.collect()
                elapsed, warned = _run_caught(op, stats)
                runtime_warnings += warned
                untraced_ns += elapsed or 0
        traced_turn = not traced_turn

    memory = tracing.Tracer(memory=True)
    with memory:
        for op in sequence.next_cycle():
            run_op(op, stats)

    probe = None
    probe_tracer = tracing.Tracer()
    kind = getattr(workload, "probe", None)
    if kind is not None:
        probe = Stats()
        with probe_tracer:
            for k in range(len(workload.pools[kind])):
                with probe_tracer.op(kind):
                    _, warned = _run_caught(workload.op(kind, k), probe)
                runtime_warnings += warned
    return TraceResult(stats, tracer, memory, traced_ns, untraced_ns, traced_ops, traced_items,
                       runtime_warnings, probe, probe_tracer.errors,
                       reference.nominal_ns / statistics.median(reference_ns))


def per_layer(result: TraceResult, workload: Workload) -> dict[str, float]:
    tr = result.tracer
    ops = result.traced_ops

    # Self times are nominal times, like the end-to-end ones (calibrate.py).
    def ms(*names: str) -> float:
        return sum(tr.self_ns[n] for n in names) * result.scale / 1e6 / ops

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def peak_mb(name: str) -> float:
        return result.memory.peak_bytes[name] / 2**20

    cells = tr.counters["transform.forward.cells"]
    rows = tr.counters["cli.render.rows"]
    points = result.traced_items if workload.name == "dynamics_series" else 0
    values = {
        "transform.forward_ms": ms("transform.forward"),
        "transform.invert_ms": ms("transform.invert"),
        "transform.purity_ms": ms("transform.purity"),
        "transform.marginals_ms": ms("transform.marginals"),
        "transform.ns_per_cell": ratio(tr.self_ns["transform.forward"] * result.scale, cells),
        "transform.cells": per_op(cells),
        # float64 field of the cells one op transforms, from array shapes
        "transform.field_mb": per_op(cells) * 8 / 2**20,
        "transform.forward_peak_mb": peak_mb("transform.forward"),
        "transform.invert_peak_mb": peak_mb("transform.invert"),
        "flow.propagate_ms": ms("flow.propagate"),
        "flow.evaluate_ms": ms("flow.evaluate"),
        "flow.propagate_peak_mb": peak_mb("flow.propagate"),
        "flow.coefficients_ms": ms("flow.coefficients"),
        "flow.convolutions_ms": ms("flow.convolutions"),
        "flow.coefficient_calls": per_op(tr.calls["flow.coefficients"]),
        "flow.calls_per_point": ratio(tr.calls["flow.coefficients"], points),
        "gaussian.packet_shape_ms": ms("gaussian.packet_shape"),
        "gaussian.packet_shape_calls": per_op(tr.calls["gaussian.packet_shape"]),
        "tunneling.survival_ms": ms("tunneling.survival"),
        "tunneling.series_ms": ms("tunneling.series"),
        "tunneling.points": per_op(tr.calls["tunneling.survival"]),
        "tunneling.long_time_fail_ratio": (
            ratio(result.probe.failed, result.probe.attempted) if result.probe else 0.0
        ),
        "special.erfc_ms": ms("special.erfc"),
        "special.erfc_calls": per_op(tr.calls["special.erfc"]),
        "special.erfc_values_per_call": ratio(tr.counters["special.erfc.values"], tr.calls["special.erfc"]),
        "catalog.sample_ms": ms("catalog.sample"),
        "catalog.wigner_eval_ms": ms("catalog.wigner"),
        "catalog.wigner_eval_calls": per_op(tr.calls["catalog.wigner"]),
        "cli.parse_ms": ms("cli.parse"),
        "cli.compute_ms": ms("cli.compute"),
        "cli.render_ms": ms("cli.render"),
        "cli.write_ms": ms("cli.write"),
        "cli.read_ms": ms("cli.read"),
        "cli.compare_ms": ms("cli.compare"),
        "cli.rows_out": per_op(rows),
        "cli.bytes_out": per_op(tr.counters["cli.render.bytes"]),
        "cli.render_ns_per_row": ratio(tr.self_ns["cli.render"] * result.scale, rows),
        "cli.render_peak_mb": peak_mb("cli.render"),
        "bench.runtime_warnings": float(result.warnings),
        "bench.trace_overhead": ratio(result.traced_ns, result.untraced_ns),
    }
    for layer in LAYERS:
        values[f"{layer}.errors"] = float(tr.errors[layer] + result.probe_errors[layer])
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start-ns", required=True, type=int, help="time.time_ns() when the process was started")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(wignerflow.__file__).resolve().parents:
        print(f"wignerflow was imported from {wignerflow.__file__}, not from {src}", file=sys.stderr)
        return 2

    try:
        clock = time.perf_counter_ns()
        reference = calibrate.Reference(WORKLOADS[args.workload].reference)
        excluded_ns = time.perf_counter_ns() - clock
        workload, sequence, reference_ns = setup(args.workload, args.seed, args.workdir, reference)
        # Set-up time without the calibration work done inside it.
        setup_wall_s = (time.time_ns() - args.start_ns - excluded_ns - sum(reference_ns)) / 1e9
        reference_ns += [reference.time_ns() for _ in range(calibrate.SETUP_SAMPLES)]
        setup_s = setup_wall_s * reference.nominal_ns / statistics.median(reference_ns)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        extra = {"setup_wall_s": setup_wall_s}
        if args.trace:
            result = traced_run(workload, sequence, args.seconds, reference)
            stats = result.stats
            metrics = per_layer(result, workload)
            if args.spans_out is not None:
                args.spans_out.parent.mkdir(parents=True, exist_ok=True)
                result.tracer.write_spans(args.spans_out)
            extra |= {
                "host_scale": result.scale,
                "probe_attempted": result.probe.attempted if result.probe else 0,
                "probe_failed": result.probe.failed if result.probe else 0,
                "probe_errors": dict(result.probe.errors) if result.probe else {},
            }
        else:
            stats, nominal, scale = measure(sequence, args.seconds, reference)
            metrics = end_to_end(nominal, workload.cycle, setup_s)
            extra |= {"host_scale": scale, "wall_p50_ms": statistics.median(stats.latencies_ns) / 1e6}
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    for label, text in stats.first_traceback.items():
        print(f"first failure of class {label}:\n{text}", file=sys.stderr)
    print(json.dumps({
        "attempted": stats.attempted,
        "failed": stats.failed,
        "errors": dict(stats.errors),
        "item": WORKLOADS[args.workload].item,
        "kinds": dict(stats.kinds),
        "kind_p50_ms": {k: statistics.median(v) / 1e6 for k, v in stats.by_kind.items()},
        "ok_ops": len(stats.latencies_ns),
        "metrics": metrics,
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
