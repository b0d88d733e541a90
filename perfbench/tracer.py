"""Spans around calls into wignerflow's layers, recorded from outside the library.

The tracer replaces public functions at the place their caller looks them
up (a module global or a class attribute), times every call, and puts each
attribute back when it exits, also on error.  Nothing under ``src/`` is
edited.  A span's self time is its duration minus the time covered by the
spans it caused; self times, call counts and work counters are aggregated
per span name while the run goes, and the raw spans are kept in compact
arrays for writing out at the end.
"""

from __future__ import annotations

import time
import tracemalloc
import typing
from array import array
from collections import defaultdict

import numpy as np

import wignerflow
from wignerflow import catalog, cli, flow, gaussian, transform, tunneling


def _count_values(args, kwargs, result):
    return {"values": int(np.size(args[0]))}


def _count_cells(args, kwargs, result):
    return {"cells": int(result.values.size)}


def _count_rendered(args, kwargs, result):
    return {"rows": len(args[0].rows), "bytes": len(result.encode("utf-8"))}


def targets() -> list[tuple[object, str, str, typing.Callable | None]]:
    """(owner, attribute, span name, counter) for every traced call site.

    A function imported into several modules is patched in each module that
    calls it, because that module's global is where its caller looks it up.
    """
    out = [
        (catalog, "sample_catalog_state", "catalog.sample", None),
        (catalog, "normalize_sample", "catalog.sample", None),
        (transform, "wigner_transform", "transform.forward", _count_cells),
        (cli, "wigner_transform", "transform.forward", _count_cells),
        (transform, "invert_wigner", "transform.invert", None),
        (transform, "purity_separability_check", "transform.purity", None),
        (transform, "position_marginal", "transform.marginals", None),
        (transform, "total_mass", "transform.marginals", None),
        (flow, "propagate_field", "flow.propagate", None),
        (cli, "propagate_field", "flow.propagate", None),
        (flow, "field_evaluator", "flow.evaluate", None),
        (flow, "flow_coefficients", "flow.coefficients", None),
        (gaussian, "flow_coefficients", "flow.coefficients", None),
        (flow, "drive_convolutions", "flow.convolutions", None),
        (gaussian, "drive_convolutions", "flow.convolutions", None),
        (gaussian, "packet_shape", "gaussian.packet_shape", None),
        (tunneling, "packet_shape", "gaussian.packet_shape", None),
        (cli, "packet_shape", "gaussian.packet_shape", None),
        (tunneling, "figure1_series", "tunneling.series", None),
        (tunneling, "survival_probability", "tunneling.survival", None),
        (cli, "survival_probability", "tunneling.survival", None),
        (tunneling, "erfc", "special.erfc", _count_values),
        (cli, "main", "cli.main", None),
        (cli, "load_config", "cli.parse", None),
        (cli, "compute", "cli.compute", None),
        (cli.CsvTable, "to_text", "cli.render", _count_rendered),
        (cli.CsvTable, "write", "cli.write", None),
        (cli, "read_csv_table", "cli.read", None),
        (cli, "verify_golden", "cli.compare", None),
    ]
    out += [(cls, "wigner", "catalog.wigner", None) for cls in typing.get_args(catalog.AnalyticState)]
    return out


# Spans whose peak traced allocation is recorded when memory tracing is on.
MEMORY_SPANS = ("transform.forward", "transform.invert", "flow.propagate", "cli.render")


class Tracer:
    """Context manager that installs the wrappers and restores them on exit.

    With ``memory=True`` it starts ``tracemalloc`` and records, for the
    spans in MEMORY_SPANS, the peak allocation above the level at entry.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self._installed: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.op_kinds: list[str] = []
        self._stack: list[list[int]] = []  # [span index, start ns, child ns]
        self._op = -1
        self._last_error: BaseException | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)  # by layer where raised
        self.counters: dict[str, int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, counter in targets():
                original = vars(owner)[attr]
                if name == "flow.evaluate":  # field_evaluator returns the evaluator to time
                    wrapper = self._wrap_factory(original, name)
                else:
                    wrapper = self._wrap(original, name, counter)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.memory:
            tracemalloc.stop()
        self._restore()
        self._last_error = None

    def _restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str) -> list[int]:
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0)
        frame = [idx, time.perf_counter_ns(), 0]
        self.span_start.append(frame[1])
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[1]
        self.span_end[frame[0]] = end
        self.calls[name] += 1
        self.self_ns[name] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def _error(self, name: str, exc: BaseException) -> None:
        # Count an exception once, in the layer of the innermost span it left.
        if exc is not self._last_error:
            self.errors[name.split(".")[0]] += 1
            self._last_error = exc

    def _wrap(self, fn, name: str, counter):
        measure_memory = self.memory and name in MEMORY_SPANS

        def traced(*args, **kwargs):
            frame = self._open(name)
            if measure_memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(name, exc)
                raise
            finally:
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
                self._close(name, frame)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_factory(self, factory, name: str):
        """Wrap a function that returns an evaluator; the evaluator's calls are the spans."""

        def traced_factory(*args, **kwargs):
            return self._wrap(factory(*args, **kwargs), name, None)

        traced_factory.__wrapped__ = factory
        return traced_factory

    def op(self, kind: str) -> "_OpSpan":
        """Root span of one benchmark operation; spans opened inside carry its id."""
        return _OpSpan(self, kind)

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """Save the spans as NumPy arrays: span i is named names[name[i]] and
        belongs to op op[i] of kind op_kinds[op[i]]; parent -1 is a root."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op_kinds=np.array(self.op_kinds),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
        )


class _OpSpan:
    def __init__(self, tracer: Tracer, kind: str):
        self.tracer = tracer
        self.kind = kind

    def __enter__(self):
        t = self.tracer
        t._op = len(t.op_kinds)
        t.op_kinds.append(self.kind)
        self.frame = t._open("bench.op")
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close("bench.op", self.frame)
        self.tracer._op = -1


def snapshot_attributes() -> dict[object, dict[str, object]]:
    """Every attribute of every wignerflow module and traced class, by identity."""
    owners = {owner for owner, _, _, _ in targets()}
    owners.update(
        m for name, m in vars(wignerflow).items() if type(m) is type(wignerflow)
    )
    owners.add(wignerflow)
    return {owner: dict(vars(owner)) for owner in owners}
