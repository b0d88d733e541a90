"""Config-driven command line front end producing deterministic CSV tables.

Commands: transform, propagate, gaussian, tunnel, eigen, verify.  Each reads
a JSON config, runs the corresponding computation and renders CSV with 17
significant digits, ',' delimiter and '\n' line endings, so identical
configs produce byte-identical output.  Exit codes: 0 success, 1 numeric or
precondition failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import catalog, flow
from ._float_text import write_g17
from .errors import _MAX_COUNT, ConfigurationError, WignerflowError, all_finite, within
from .flow import Constant, Cosine, OscillatorParams, Tabulated
from .gaussian import GaussianPacket, density, packet_shape
from .grids import Grid1D, PhaseSpaceGrid, natural_grid, symmetric_xi_grid
from .transform import wigner_transform
from .tunneling import TunnelScenario, figure1_series, tunnel_report
# looked up in this module by name by the benchmark's tracer (perfbench/tracer.py)
from . import propagate_field, survival_probability  # noqa: F401

class ConfigParseError(ConfigurationError):
    """Bad config contents; the message names the offending key path."""


def _fail(path: str, message: str) -> None:
    raise ConfigParseError(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_REQUIRED = object()
_NULL_IS_A_VALUE = ("number", "integer", "boolean", "numbers")
# JSON type -> (Python types, what the error message asks for)
_TYPES = {
    "number": ((int, float), "a number"),
    "integer": (int, "an integer"),
    "boolean": (bool, "true or false"),
    "string": (str, "a string"),
}


@dataclass(frozen=True)
class _Key:
    """One config key and the rules its JSON value follows.

    `type` is a JSON type from `_TYPES`, "numbers" (a list of one or more
    numbers), a dict of keys (an object) or, for a value with several forms,
    a function `pick(value, path)` that returns the key of the value's form,
    against which the value is then checked.  A key without a default is
    required; `default=None` makes it optional with no value, any other
    default is a JSON value checked like a given one.  `bound` ("> 0",
    ">= 2", ...) holds for a number, an integer or each list entry.
    `check(value, path)` enforces rules that span several keys and returns
    the canonical value.
    """

    type: object
    default: object = _REQUIRED
    bound: str = ""
    check: Callable[[dict, str], dict] | None = None


def _check(key: _Key, value, path: str):
    """Canonical form of the JSON `value` of `key`; errors name `path`."""
    kind = key.type
    if callable(kind):
        return _check(kind(value, path), value, path)
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        for name in value:
            if name not in kind:
                _fail(f"{path}.{name}", "unknown key")
        out = {}
        for name, sub in kind.items():
            v = value.get(name)
            # null stands for an absent object or kind, never for a number or a list
            if v is None and (name not in value or sub.type not in _NULL_IS_A_VALUE):
                if sub.default is _REQUIRED:
                    _fail(f"{path}.{name}", "missing required key")
                if sub.default is None:
                    continue
                v = sub.default
            out[name] = _check(sub, v, f"{path}.{name}")
        value = out
    elif kind == "numbers":
        if not isinstance(value, list) or not value:
            _fail(path, "expected a list of 1 or more numbers")
        value = [_scalar("number", v, key.bound, f"{path}[{i}]") for i, v in enumerate(value)]
    else:
        value = _scalar(kind, value, key.bound, path)
    return key.check(value, path) if key.check else value


def _scalar(kind: str, value, bound: str, path: str):
    types, wanted = _TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "boolean"):
        _fail(path, f"expected {wanted}, got {value!r}")
    if kind == "number":
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            _fail(path, "must be finite")
    for rule in (bound, _MAX_COUNT if kind == "integer" else ""):
        if rule and not within(value, rule):
            _fail(path, f"must be {rule}, got {value}")
    return value


# constructor annotation -> JSON type of its config key
_ANNOTATED = {"float": "number", "int": "integer", "bool": "boolean", "np.ndarray": "numbers"}
# the CLI's own defaults: a normalised state, a cosine drive about 0
_DEFAULTS = {"normalized": True, "lambda": 0.0}


def _kinds(table: dict, infer: Callable[[dict], str] | None = None) -> _Key:
    """An object whose "kind" key (else `infer(object)`) picks its class from `table`.  Its
    other keys are the parameters of that class but hbar, which is the command's (`lam` is the
    key "lambda"), with their JSON types and defaults, a `_DEFAULTS` entry before the class's."""
    forms = {}
    for kind, cls in table.items():
        keys = {"kind": _Key("string", kind)}
        for arg in inspect.signature(cls).parameters.values():
            name = "lambda" if arg.name == "lam" else arg.name
            if name != "hbar":
                default = _REQUIRED if arg.default is arg.empty else arg.default
                keys[name] = _Key(_ANNOTATED[arg.annotation], _DEFAULTS.get(name, default))
        forms[kind] = _Key(keys)

    def pick(value, path: str) -> _Key:
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        kind = value.get("kind")
        if kind is None and infer is not None:
            kind = infer(value)
        if not isinstance(kind, str) or kind not in forms:  # a list or object is unhashable
            _fail(f"{path}.kind", f"expected one of {sorted(forms)}, got {kind!r}")
        return forms[kind]

    return _Key(pick)


def _build(table: dict, fields: dict, **extra):
    """The object a kind-tagged config stands for; the drive key "lambda" is the field `lam`."""
    args = {"lam" if k == "lambda" else k: v for k, v in fields.items() if k != "kind"}
    return table[fields["kind"]](**args, **extra)


def _one_p0(d: dict, path: str) -> dict:
    """tunnel takes p0 or p0_list; the canonical form is the list."""
    if ("p0" in d) == ("p0_list" in d):
        _fail(f"{path}.p0", "give p0 or p0_list, not both" if "p0" in d else "missing required key")
    if "p0" in d:
        d["p0_list"] = [d.pop("p0")]
    return d


# kind -> the class it builds; every state also takes the command's hbar
_STATES = {
    "box": catalog.Box,
    "gauss_general": catalog.GaussGeneral,
    "coherent": catalog.CoherentGaussian,
    "hermite": catalog.Hermite,
    "free_gaussian": catalog.FreeEvolvedGaussian,
    "delta_bound": catalog.DeltaBound,
    "soliton": catalog.Soliton,
    "harmonic_eigen": catalog.HarmonicEigen,
}
_DRIVES = {"constant": Constant, "cosine": Cosine, "tabulated": Tabulated}


def _drive_kind(d: dict) -> str:
    return "cosine" if ("b" in d or "Omega" in d) else "constant"


_STATE = _kinds(_STATES)
_DRIVE = replace(_kinds(_DRIVES, _drive_kind), default={})
# P(t) has closed-form asymptotics only for constant and cosine drives
_TUNNEL_DRIVE = replace(
    _kinds({k: _DRIVES[k] for k in ("constant", "cosine")}, _drive_kind), default={}
)
_HBAR = _Key("number", 1.0, "> 0")
_XI = _Key({"xi_max": _Key("number"), "count": _Key("integer")})
_TIME_LIST = _Key("numbers", bound=">= 0")
_TIME_RANGE = _Key({"t_max": _Key("number", bound="> 0"), "t_steps": _Key("integer", bound=">= 1")})
_TIMES = _Key(lambda value, path: _TIME_LIST if isinstance(value, list) else _TIME_RANGE)


def _grid(count: int) -> _Key:
    """x grid as {x_min, x_max, count} or {half_width, count}; canonically the first, the
    arguments of Grid1D.from_span."""
    counted = {"count": _Key("integer", count)}
    span = _Key({"x_min": _Key("number"), "x_max": _Key("number"), **counted})
    half = _Key({"half_width": _Key("number", bound="> 0"), **counted}, check=lambda d, path: {
        "x_min": -d["half_width"], "x_max": d["half_width"], "count": d["count"]})
    return _Key(lambda value, path: half if isinstance(value, dict) and "half_width" in value
                else span)


# config object -> the library object it stands for, built from the command's params
_OBJECTS = {
    "state": lambda p: _build(_STATES, p["state"], hbar=p["hbar"]),
    "drive": lambda p: _build(_DRIVES, p["drive"]),
    "grid": lambda p: Grid1D.from_span(**p["grid"]),
    "xi": lambda p: symmetric_xi_grid(**p["xi"]),
    "n_max": lambda p: catalog.HarmonicEigen(p["n_max"], p["omega"], p["hbar"]),  # highest level
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, canonicalised run description."""

    command: str
    params: dict = field(default_factory=dict)
    output_path: str | None = None

    def render(self) -> str:
        payload = {"command": self.command, **self.params}
        if self.output_path is not None:
            payload["out"] = self.output_path
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json.loads hook: a key given twice in one object, at any depth, is an error."""
    names = [name for name, _ in pairs]
    for name in {name for name in names if names.count(name) > 1}:
        _fail("config", f"key {name!r} is given more than once")
    return dict(pairs)


def parse_config(text: str) -> RunConfig:
    """Validate JSON config text; errors name the offending key path."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer with more digits than Python converts
        raise ConfigParseError(f"config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigParseError("config: top level must be a JSON object")
    command = raw.get("command")
    if command not in COMMANDS:
        _fail("config.command", f"expected one of {COMMANDS}, got {command!r}")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        _fail("config.out", "expected a string path")
    if raw.get("format", "csv") != "csv":
        _fail("config.format", f"only csv output is supported, got {raw.get('format')!r}")
    rest = {k: v for k, v in raw.items() if k not in ("command", "out", "format")}
    params = _check(_COMMANDS[command][0], rest, command)
    for name, build in _OBJECTS.items():  # the objects' own rules, under their key paths
        if params.get(name) is not None:
            try:
                build(params)
            except ConfigurationError as exc:
                _fail(f"{command}.{name}", str(exc))
    return RunConfig(command=command, params=params, output_path=out)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"config file {path} cannot be read: {exc}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

_CELL_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}  # by NumPy dtype kind
_BLOCK_ROWS = 8192  # rows per rendered block: 4k-16k time alike, 64k has ~4x the peak
_MAX_REPORT = 10  # mismatching cells a golden comparison reports


@dataclass
class CsvTable:
    """A header plus one column per field: float, int or str NumPy arrays that broadcast to
    one shape of at least one dimension, whose cells in C order are the rows.  A product
    table passes its axes as they are (x[:, None], xi and an (nx, nxi) field).  A float
    column with a cell per row is formatted a block at a time, any other column each of its
    own cells once.  A text cell holds no NUL character, comma or line boundary of
    str.splitlines (CR, LF, form feed, U+2028, ...), which rendering rejects with a
    ConfigurationError."""

    header: tuple[str, ...]
    columns: list
    tolerances: dict[str, tuple[float, float]] = field(default_factory=dict)
    shape: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.columns = [np.asarray(col) for col in self.columns]
        try:
            self.shape = np.broadcast_shapes(*(col.shape for col in self.columns))
        except ValueError:
            self.shape = ()  # no common shape: rejected below
        if len(self.columns) != len(self.header) or not self.shape:
            raise ConfigurationError(
                f"need {len(self.header)} columns of one broadcast shape for header {self.header}"
            )

    def __len__(self) -> int:
        return math.prod(self.shape)

    def flat(self, col: np.ndarray) -> np.ndarray:
        """The column with a cell per row."""
        return np.broadcast_to(col, self.shape).ravel()

    @property
    def rows(self) -> list[tuple]:
        """Every row as a tuple of Python scalars."""
        return list(zip(*(self.flat(col).tolist() for col in self.columns)))

    def _blocks(self) -> Iterator[bytes]:
        """The CSV bytes in pieces: comment and header lines, then _BLOCK_ROWS rows at a time.

        A block is a uint64 matrix, a row per table row: each cell's text in a slot of whole
        words, NUL-padded, with its ',' or newline in the slot's last byte.  Dropping the NUL
        bytes leaves the rows' text."""
        lines = [f"# tolerance {col} {abs_tol:.17g} {rel_tol:.17g}"
                 for col, (abs_tol, rel_tol) in self.tolerances.items()]
        lines.append(",".join(self.header))
        sources = [_cell_source(col, self.shape) for col in self.columns]  # rejects before a byte
        yield ("\n".join(lines) + "\n").encode()
        n_rows = len(self)
        slots = np.cumsum([0] + [4 if index is None else values.shape[1]
                                 for values, index in sources])
        ends = [np.uint64(ord(",") << 56)] * (len(sources) - 1) + [np.uint64(ord("\n") << 56)]
        block = np.empty((min(n_rows, _BLOCK_ROWS), slots[-1]), "<u8")
        for start in range(0, n_rows, _BLOCK_ROWS):
            rows = slice(start, min(start + _BLOCK_ROWS, n_rows))
            part = block[: rows.stop - start]
            r = np.arange(rows.start, rows.stop)
            for (values, index), end, at, stop in zip(sources, ends, slots, slots[1:]):
                if index is None:
                    write_g17(values[rows], part[:, at:stop])
                else:
                    cells = sum(r // inner % count * stride for inner, count, stride in index)
                    part[:, at:stop] = values.take(cells, axis=0)
                part[:, stop - 1] |= end
            yield part.tobytes().translate(None, b"\0")

    def to_text(self) -> str:
        """The whole CSV text as one string; `write` streams the same text."""
        return b"".join(self._blocks()).decode()

    def write(self, path: str | Path) -> None:
        """Write the CSV text to path block by block, so the text is never held whole; the
        cells are checked before the first block, so a rejected table leaves path as it was."""
        blocks = self._blocks()
        head = next(blocks)
        with Path(path).open("wb") as out:
            out.write(head)
            out.writelines(blocks)


def _cell_source(col: np.ndarray, shape: tuple[int, ...]) -> tuple[np.ndarray, list | None]:
    """(values, index): row r of a table of `shape` reads row sum((r // inner % count) * stride)
    of values over the (inner, count, stride) of index, one for each axis the column spans;
    that row is the text of one of the column's own cells in whole uint64 words, NUL-padded,
    its last byte free for the separator.  A float column with a cell per row has index None
    and values its floats, which are formatted a block at a time."""
    if col.dtype.kind == "f":
        cells = col.astype(np.float64, copy=False).ravel()
        if col.size == math.prod(shape):
            return cells, None
        values = np.empty((col.size, 4), "<u8")
        write_g17(cells, values)
    else:
        spec = _CELL_FORMATS[col.dtype.kind]
        texts = [spec % v for v in col.ravel().tolist()]
        # NUL pads a slot; the golden reader splits rows at any line boundary of str.splitlines
        bad = next((t for t in texts if "," in t or "\0" in t or "".join(t.splitlines()) != t),
                   None)
        if bad is not None:
            raise ConfigurationError(f"text cell {bad!r} holds a comma, a NUL or a line break")
        cells = [t.encode("utf-8") for t in texts]
        width = 8 * (max(map(len, cells), default=0) // 8 + 1)
        values = np.array(cells, f"S{width}").view("<u8").reshape(len(cells), width // 8)
    # the column's axes sit on the table's last ones; a row's coordinate on a table axis is
    # r // inner % count, and the cell's C-order index steps by stride along it
    lead = len(shape) - col.ndim
    return values, [(math.prod(shape[lead + axis + 1 :]), count, math.prod(col.shape[axis + 1 :]))
                    for axis, count in enumerate(col.shape) if count > 1]


def _parse_column(cells: list[str]) -> np.ndarray:
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return np.array(cells, dtype=str)


class _LayoutError(ConfigurationError):
    """A CSV file without a header row or with a ragged row, or a golden table whose header
    or row count differs from the fresh one: reported before any cell is compared."""


def read_csv_table(path: str | Path) -> CsvTable:
    """The CSV table at path: its '# tolerance' lines, header row and non-blank rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    tolerances: dict[str, tuple[float, float]] = {}
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        parts = lines[idx][1:].split()
        if len(parts) == 4 and parts[0] == "tolerance":
            tolerances[parts[1]] = (float(parts[2]), float(parts[3]))
        idx += 1
    if idx >= len(lines) or not lines[idx].strip():
        raise _LayoutError(f"{path}: no header row found")
    header = tuple(lines[idx].split(","))
    body = [line for line in lines[idx + 1 :] if line.strip()]
    ragged = next((line for line in body if line.count(",") != len(header) - 1), None)
    if ragged is not None:
        raise _LayoutError(f"{path}: ragged row {ragged!r}")
    cells = ",".join(body).split(",") if body else []
    width = len(header)
    return CsvTable(header, [_parse_column(cells[j::width]) for j in range(width)], tolerances)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _times(times) -> np.ndarray:
    if isinstance(times, list):
        return np.asarray(times, dtype=float)
    return np.linspace(0.0, times["t_max"], times["t_steps"] + 1)


def _run_transform(p: dict) -> tuple[CsvTable, dict[str, CsvTable]]:
    state = _build(_STATES, p["state"], hbar=p["hbar"])
    grid = Grid1D.from_span(**p["grid"])
    ps = PhaseSpaceGrid(grid, _OBJECTS["xi"](p)) if p.get("xi") else natural_grid(grid, p["hbar"])
    fld = wigner_transform(catalog.sample_catalog_state(state, grid), ps)
    x, xi = ps.x_grid.nodes(), ps.xi_grid.nodes()
    return CsvTable(("x", "xi", "W"), [x[:, None], xi, fld.values]), {}


def _run_propagate(p: dict) -> tuple[CsvTable, dict[str, CsvTable]]:
    state = _build(_STATES, p["state"], hbar=p["hbar"])
    params = OscillatorParams(p["gamma"], _build(_DRIVES, p["drive"]), p["hbar"])
    coeffs = flow.flow_coefficients(params, _times(p["times"]))
    x, xi = _OBJECTS["grid"](p).nodes(), _OBJECTS["xi"](p).nodes()
    fields, row_sums = flow._evaluate_transported(state.wigner, coeffs, x, xi)
    if not (all_finite(row_sums) or np.isfinite(fields).all()):
        raise ConfigurationError("field values must be finite")
    return CsvTable(("t", "x", "xi", "W"), [coeffs.t[:, None, None], x[:, None], xi, fields]), {}


def _run_gaussian(p: dict) -> tuple[CsvTable, dict[str, CsvTable]]:
    packet = GaussianPacket(p["a"], p["p0"], p["hbar"])
    params = OscillatorParams(p["gamma"], _build(_DRIVES, p["drive"]), p["hbar"])
    xs = Grid1D.from_span(**p["grid"]).nodes()
    times = _times(p["times"])[:, None]  # one time axis for both calls, so one flow
    shape = packet_shape(packet, params, times)
    rho = density(packet, params, xs, times)
    return (
        CsvTable(("t", "x", "density"), [times, xs, rho]),
        {"shape": CsvTable(("t", "v", "A"), [times, shape.v, shape.A])},
    )


def _run_tunnel(p: dict) -> tuple[CsvTable, dict[str, CsvTable]]:
    drive = _build(_DRIVES, p["drive"])
    times = np.linspace(0.0, p["t_max"], p["t_steps"] + 1)
    scenarios = [TunnelScenario(GaussianPacket(p["a"], p0, p["hbar"]), p["omega"], drive)
                 for p0 in p["p0_list"]]
    survival = figure1_series(p["a"], p["omega"], p["hbar"], p["p0_list"], times, drive)
    reports = [tunnel_report(s) for s in scenarios]
    summary = [
        p["p0_list"],
        [r.p_crit for r in reports],
        [r.P_inf for r in reports],
        [r.regime for r in reports],
        [math.nan if r.E_q is None else r.E_q for r in reports],
        [math.nan if r.E_c is None else r.E_c for r in reports],
    ]
    return (
        CsvTable(("p0", "t", "P"), [np.asarray(p["p0_list"])[:, None], times, survival]),
        {"summary": CsvTable(("p0", "p_crit", "P_inf", "regime", "E_q", "E_c"), summary)},
    )


def _run_eigen(p: dict) -> tuple[CsvTable, dict[str, CsvTable]]:
    omega, hbar = p["omega"], p["hbar"]
    ns = np.arange(p["n_max"] + 1)
    xs = np.linspace(-p["sample_half_width"], p["sample_half_width"], p["sample_count"])
    fields = np.stack([catalog.HarmonicEigen(n, omega, hbar, normalized=True)
                       .wigner(xs[:, None], xs) for n in ns.tolist()])
    energies = [catalog.harmonic_energy(n, omega, hbar) for n in ns.tolist()]
    return (
        CsvTable(("n", "E"), [ns, energies]),
        {"field": CsvTable(("n", "x", "xi", "W"), [ns[:, None, None], xs[:, None], xs, fields])},
    )


def _run_verify(p: dict) -> tuple[CsvTable, dict[str, CsvTable]]:
    from .verify import run_invariant_suite

    columns = list(zip(*run_invariant_suite()))
    return CsvTable(("check", "state", "residual", "tolerance", "status"), columns), {}


# command -> (config keys, runner, plotting guide); COMMANDS keeps this order
_COMMANDS = {
    "transform": (_Key({
        "state": _STATE, "hbar": _HBAR, "grid": _grid(512), "xi": replace(_XI, default=None),
    }), _run_transform, "x (col 1) vs xi (col 2), value W (col 3); plot as a heatmap"),
    "propagate": (_Key({
        "state": _STATE, "hbar": _HBAR, "gamma": _Key("number"), "drive": _DRIVE, "times": _TIMES,
        "grid": _grid(129), "xi": _XI,
    }), _run_propagate, "per fixed t (col 1): x (col 2) vs xi (col 3), value W (col 4)"),
    "gaussian": (_Key({
        "a": _Key("number", 0.0), "p0": _Key("number", 0.0), "hbar": _HBAR, "gamma": _Key("number"),
        "drive": _DRIVE, "times": _TIMES, "grid": _grid(201),
    }), _run_gaussian, "per fixed t (col 1): x (col 2) on the abscissa, density (col 3)"),
    "tunnel": (_Key({
        "a": _Key("number"), "p0": _Key("number", None), "p0_list": _Key("numbers", None),
        "omega": _Key("number", bound="> 0"), "hbar": _HBAR, "drive": _TUNNEL_DRIVE,
        "t_max": _Key("number", bound="> 0"), "t_steps": _Key("integer", 300, ">= 1"),
    }, check=_one_p0), _run_tunnel, "per fixed p0 (col 1): t (col 2) on the abscissa, P (col 3)"),
    "eigen": (_Key({
        "omega": _Key("number", 1.0, "> 0"), "hbar": _HBAR,
        "n_max": _Key("integer", 10, ">= 0"), "sample_count": _Key("integer", 21, ">= 2"),
        "sample_half_width": _Key("number", 4.0, "> 0"),
    }), _run_eigen, "n (col 1) on the abscissa, E (col 2)"),
    "verify": (_Key({}), _run_verify, "tabular report; nothing to plot"),
}
COMMANDS = tuple(_COMMANDS)


def compute(config: RunConfig) -> tuple[CsvTable, dict[str, CsvTable]]:
    """Run the command and return (main table, companion tables by suffix)."""
    return _COMMANDS[config.command][1](config.params)


def run(config: RunConfig, out_path: str | Path | None = None) -> CsvTable:
    """Run the command, writing the main table (and companions) if a path is set."""
    main, companions = compute(config)
    target = out_path if out_path is not None else config.output_path
    if target is not None:
        target = Path(target)
        main.write(target)
        for suffix, table in companions.items():
            table.write(target.with_suffix(f".{suffix}.csv"))
    return main


@dataclass
class GoldenReport:
    ok: bool
    structural: bool
    messages: list[str]


def _cells_match(new: np.ndarray, gold: np.ndarray, abs_tol: float, rel_tol: float) -> np.ndarray:
    """Text matches the same text; numbers match within abs_tol + rel_tol |gold|, and nan
    matches nan. A golden cell that reads as a number is one, even in a text column."""
    if new.dtype.kind == "U":
        return new == gold.astype(str)
    if gold.dtype.kind == "U":
        cells = [_parse_column([cell]) for cell in gold.tolist()]
        # a golden cell that does not read as a number matches no number: str of a float or
        # an int always reads as one
        return np.array([
            _cells_match(new[i : i + 1], cell, abs_tol, rel_tol)[0] if cell.dtype.kind == "f"
            else False
            for i, cell in enumerate(cells)
        ])
    with np.errstate(invalid="ignore"):  # inf - inf is a mismatch, as is nan against a number
        close = np.abs(new - gold) <= abs_tol + rel_tol * np.abs(gold)
    return close | (np.isnan(new) & np.isnan(gold))


def verify_golden(config: RunConfig, golden_path: str | Path) -> GoldenReport:
    """Recompute the config's main table and compare against a golden CSV.

    A golden file that is byte for byte the fresh table as CsvTable._blocks
    renders it passes without a line read or a cell parsed.  Any other golden
    is parsed whole: per-column absolute/relative tolerances come from
    '# tolerance <col> <abs> <rel>' lines in its header, unlisted columns must
    match exactly, and a missing file or a schema mismatch is structural and
    reported before any numeric comparison.
    """
    golden_path = Path(golden_path)
    if not golden_path.is_file():
        return GoldenReport(False, True, [f"golden file not found: {golden_path}"])
    try:
        messages = _golden_messages(config, golden_path)
    except _LayoutError as exc:
        return GoldenReport(False, True, [str(exc)])
    return GoldenReport(not messages, False, messages)


def _golden_messages(config: RunConfig, path: Path) -> list[str]:
    """verify_golden's messages; a bad layout raises _LayoutError."""
    try:
        fresh, _ = compute(config)
    except Exception:
        read_csv_table(path)  # a bad layout is reported first
        raise
    if _rendered_golden(fresh, path):
        return []
    golden = read_csv_table(path)
    if fresh.header != golden.header:
        raise _LayoutError(f"header mismatch: got {fresh.header}, golden {golden.header}")
    if len(fresh) != len(golden):
        raise _LayoutError(f"row count mismatch: got {len(fresh)}, golden {len(golden)}")
    columns = [fresh.flat(col) for col in fresh.columns]
    mismatch = np.column_stack([
        ~_cells_match(new, gold, *golden.tolerances.get(col, (0.0, 0.0)))
        for col, new, gold in zip(fresh.header, columns, golden.columns)
    ])
    return [
        f"row {i}, column {fresh.header[j]}: got {_cell(columns[j], i)}, "
        f"golden {_cell(golden.columns[j], i)}"
        for i, j in np.argwhere(mismatch)[:_MAX_REPORT]
    ]


def _rendered_golden(fresh: CsvTable, path: Path) -> bool:
    """Whether the file at path is byte for byte the fresh table as CsvTable._blocks renders it."""
    with path.open("rb") as golden:
        return (all(golden.read(len(block)) == block for block in fresh._blocks())
                and not golden.read(1))


def _cell(column: np.ndarray, i: int) -> str:
    cell = column[i : i + 1]
    if cell.dtype.kind == "U":  # a golden cell that reads as a number prints as one
        cell = _parse_column(cell.tolist())
    return _CELL_FORMATS[cell.dtype.kind] % cell.item(0)


def _plot_companion_text(table: CsvTable, config: RunConfig) -> str:
    lines = [
        "# plotting guide (tool-agnostic); data columns refer to the CSV next to this file",
        f"# command: {config.command}",
        f"# columns: {', '.join(table.header)}",
        f"# {_COMMANDS[config.command][2]}",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wignerflow",
        description="Phase-space quantum mechanics: transforms, exact quadratic-potential "
        "flow, Gaussian packet dynamics and inverted-oscillator tunneling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} computation from a JSON config")
        cmd.add_argument("--config", required=True, metavar="PATH")
        cmd.add_argument("--out", default=None, metavar="PATH")
        cmd.add_argument("--emit-plot", action="store_true")
        cmd.add_argument("--golden", default=None, metavar="PATH",
                         help="compare the freshly computed table against a golden CSV")
    args = parser.parse_args(argv)

    try:
        if args.golden is not None and (args.out is not None or args.emit_plot):
            raise ConfigParseError("--golden writes nothing: give it without --out or --emit-plot")
        config = load_config(args.config)
        if config.command != args.command:
            raise ConfigParseError(
                f"config.command: config says {config.command!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        if args.golden is not None:
            if config.output_path is not None:
                raise ConfigParseError("--golden writes nothing: give it a config without 'out'")
            report = verify_golden(config, args.golden)
            for message in report.messages:
                print(message, file=sys.stderr)
            if report.structural:
                return 2
            if not report.ok:
                return 1
            print("golden comparison passed")
            return 0
        target = args.out if args.out is not None else config.output_path
        if args.emit_plot and target is None:
            raise ConfigParseError("--emit-plot needs an output path (--out or config 'out')")
        table = run(config, out_path=args.out)
        if target is None:
            sys.stdout.writelines(block.decode() for block in table._blocks())
        elif args.emit_plot:
            Path(target).with_suffix(".plot.txt").write_text(
                _plot_companion_text(table, config), encoding="utf-8"
            )
        if config.command == "verify" and np.any(table.columns[-1] != "pass"):
            return 1
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # OSError: an output cannot be written; MemoryError: a table too large for this host
    except (WignerflowError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
