"""Tests of the benchmark itself.

    python -m pytest perfbench/tests

They check that the tracer restores what it patches, that tracing does not
change outputs, that the output checks can fail, that a raising op is
counted rather than fatal, and that the seed changes inputs but not the mix.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wignerflow
from perfbench import calibrate
from perfbench import tracer as tracing
from perfbench import worker
from perfbench.workloads import WORKLOADS, CheckFailed, CliOut, CliTables, DynamicsSeries, Op, PhaseSpace

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        now = after[owner]
        assert attrs.keys() == now.keys(), owner
        changed = [name for name, value in attrs.items() if now[name] is not value]
        assert not changed, (owner, changed)


@pytest.mark.parametrize("memory", [False, True])
def test_tracer_restores_every_attribute_even_on_error(memory):
    before = tracing.snapshot_attributes()
    original_erfc = wignerflow.tunneling.erfc
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer(memory=memory) as tr:
            assert wignerflow.tunneling.erfc is not original_erfc
            assert wignerflow.cli.CsvTable.to_text is not before[wignerflow.cli.CsvTable]["to_text"]
            with tr.op("probe"):
                wignerflow.tunneling.erfc(0.5)
            1 / 0
    assert tr.calls["special.erfc"] == 1
    assert not tracemalloc.is_tracing()
    _assert_same(before, tracing.snapshot_attributes())


def test_tracer_self_time_excludes_children_and_counts_errors_once():
    scenario = wignerflow.TunnelScenario(wignerflow.GaussianPacket(-5.0, 5.0, 1.0), 1.0)
    with tracing.Tracer() as tr:
        with tr.op("series"):
            wignerflow.tunneling.figure1_series(-5.0, 1.0, 1.0, [5.0], np.linspace(0.0, 2.0, 5))
        with tr.op("long"):
            with pytest.raises(OverflowError):
                wignerflow.tunneling.survival_probability(scenario, 300.0)
    assert tr.calls["tunneling.survival"] == 6
    assert tr.calls["gaussian.packet_shape"] == 6
    # The exception left three spans but is counted once, where it was raised.
    assert tr.errors == {"gaussian": 1}
    names = [tr.names[i] for i in tr.span_name]
    spans = list(zip(names, tr.span_start, tr.span_end, tr.span_parent))
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    total = sum(end - start for name, start, end, parent in spans if name == "bench.op")
    assert sum(tr.self_ns.values()) == total


def test_traced_and_untraced_cli_ops_write_identical_bytes(tmp_path):
    workload = CliTables(5, tmp_path)
    for kind in dict.fromkeys(workload.cycle):
        op = workload.op(kind, 0)
        op.check(op.run())
        plain = workload.digest(kind) if kind != "golden" else None
        with tracing.Tracer() as tr:
            op = workload.op(kind, 1)
            with tr.op(kind):
                out = op.run()
        op.check(out)
        if kind != "golden":
            assert workload.digest(kind) == plain
    assert tr.calls["cli.main"] == 1


def _corruptions():
    def figure1(out):
        bad = out.copy()
        bad[1, 7] = 1.0 + 1e-6
        return bad

    def asymptote(out):
        bad = out.copy()
        bad[2, -1] += 1e-8
        return bad

    def packet_mass(out):
        return dataclasses.replace(out, mass=out.mass + np.where(np.arange(out.mass.size) == 3, 1e-5, 0.0))

    def moved_mass(out):
        return dataclasses.replace(out, moved_mass=out.moved_mass + 1e-5)

    def purity(out):
        return dataclasses.replace(out, purity=1e-6)

    def inversion(out):
        values = out.recovered.values.copy()
        values[1::2] *= np.exp(0.01j)  # a cross-parity phase error
        return dataclasses.replace(out, recovered=dataclasses.replace(out.recovered, values=values))

    return [
        (DynamicsSeries, "tunnel_cosine", figure1),
        (DynamicsSeries, "tunnel_constant", asymptote),
        (DynamicsSeries, "packet_resonant", packet_mass),
        (PhaseSpace, "pipeline", moved_mass),
        (PhaseSpace, "pipeline", purity),
        (PhaseSpace, "pipeline", inversion),
    ]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    cache = {}

    def get(cls, kind):
        if (cls, kind) not in cache:
            op = cls(3, tmp_path_factory.mktemp(cls.name)).op(kind, 0)
            cache[cls, kind] = (op, op.run())
        return cache[cls, kind]

    return get


@pytest.mark.parametrize("cls,kind,corrupt", _corruptions(), ids=lambda v: getattr(v, "__name__", v))
def test_corrupted_output_fails_its_check(outputs, cls, kind, corrupt):
    op, out = outputs(cls, kind)
    op.check(out)
    with pytest.raises(CheckFailed):
        op.check(corrupt(out))


@pytest.mark.parametrize("edit", ["extra_row", "changed_digit", "wrong_header"])
def test_corrupted_cli_table_fails_its_check(tmp_path, edit):
    workload = CliTables(4, tmp_path)
    op = workload.op("tunnel", 0)
    op.check(op.run())
    path = tmp_path / "tunnel.csv"
    text = path.read_text()
    if edit == "extra_row":
        text += text.splitlines()[-1] + "\n"
    elif edit == "changed_digit":
        last = text.rstrip("\n")
        text = last[:-1] + ("1" if last[-1] != "1" else "2") + "\n"
    else:
        text = text.replace("p0,t,P", "p0,t,Q", 1)
    path.write_text(text)
    with pytest.raises(CheckFailed):
        op.check(CliOut(0, ""))


def test_raising_op_is_counted_not_fatal(tmp_path):
    workload = DynamicsSeries(9, tmp_path)
    stats = worker.Stats()
    assert worker.run_op(workload.op(workload.probe, 0), stats) is None

    def bad_check(out):
        raise ZeroDivisionError

    assert worker.run_op(Op("synthetic", lambda: 1, bad_check, 1), stats) is None
    assert worker.run_op(workload.op("tunnel_constant", 0), stats) is not None
    assert stats.attempted == 3
    assert stats.failed == 2
    assert stats.errors == {"OverflowError": 1, "check:ZeroDivisionError": 1}
    assert len(stats.latencies_ns) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_but_not_the_op_mix(tmp_path, name):
    cls = WORKLOADS[name]
    one, two, again = cls(1, tmp_path / "a"), cls(2, tmp_path / "b"), cls(1, tmp_path / "c")
    assert one.inputs() != two.inputs()
    assert one.inputs() == again.inputs()
    mixes = []
    for workload in (one, two):
        sequence = worker.OpSequence(workload)
        ops = [op for _ in range(3) for op in sequence.next_cycle()]
        mixes.append([(op.kind, op.items) for op in ops])
    assert mixes[0] == mixes[1]


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    assert worker.tail(list(range(1, 101))) == (90.0, 90.0)
    assert worker.tail([5, 3, 4]) == (5.0, 100.0)


def test_reported_metrics_match_benchmark_json(tmp_path):
    reference = calibrate.Reference(DynamicsSeries.reference)
    workload, sequence, reference_ns = worker.setup("dynamics_series", 2, tmp_path, reference)
    assert len(reference_ns) == 1 + len(set(workload.cycle))
    result = worker.traced_run(workload, sequence, 0.01, reference)
    layer = worker.per_layer(result, workload)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(layer)
    assert result.probe.attempted == len(workload.pools[workload.probe])
    assert layer["flow.coefficient_calls"] > 0 and layer["cli.rows_out"] == 0
    stats, nominal, scale = worker.measure(sequence, 0.01, reference)
    assert len(nominal) == len(stats.latencies_ns) == stats.attempted == len(workload.cycle) and scale > 0
    e2e = worker.end_to_end(nominal, workload.cycle, setup_s=1.0)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= set(e2e)
    assert all(e2e[m["name"]] > 0 for m in BENCHMARK["end_to_end"])


def test_cycle_rate_weights_kinds_by_the_cycle_and_ignores_one_slow_op():
    def op(kind, items):
        return Op(kind, lambda: None, lambda out: None, items)

    nominal = [(op("a", 10), 1e9), (op("a", 10), 1e9), (op("a", 10), 9e9), (op("b", 40), 2e9)]
    assert worker.cycle_rate(nominal, ("a", "a", "b")) == (10 + 10 + 40) / (1 + 1 + 2)


def test_local_scale_is_nominal_over_the_centred_median():
    timings = [10, 10, 20, 20, 20, 20]
    assert calibrate.local_scales(timings, 20, window=3) == [2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    # A single slow kernel timing does not move its neighbours' scale.
    assert calibrate.local_scales([10, 10, 90, 10, 10], 10) == [1.0] * 5


@pytest.mark.parametrize("kind", sorted(calibrate.NOMINAL_NS))
def test_reference_kernels_run_for_every_workload(kind):
    assert calibrate.Reference(kind).time_ns() > 0
    assert {w.reference for w in WORKLOADS.values()} <= set(calibrate.NOMINAL_NS)


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase_space", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
