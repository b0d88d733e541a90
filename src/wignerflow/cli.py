"""Config-driven command line front end producing deterministic CSV tables.

Commands: transform, propagate, gaussian, tunnel, eigen, verify.  Each reads
a JSON config, runs the corresponding computation and renders CSV with 17
significant digits, ',' delimiter and '\n' line endings, so identical
configs produce byte-identical output.  Exit codes: 0 success, 1 numeric or
precondition failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import catalog
from .errors import ConfigurationError, WignerflowError
from .flow import Constant, Cosine, OscillatorParams, Tabulated, propagate_field
from .gaussian import GaussianPacket, packet_shape
from .grids import Grid1D, PhaseSpaceGrid, natural_grid, symmetric_xi_grid
from .transform import wigner_transform
from .tunneling import TunnelScenario, survival_probability, tunnel_report

COMMANDS = ("transform", "propagate", "gaussian", "tunnel", "eigen", "verify")

_STATE_KINDS = {
    "box": ("R",),
    "gauss_general": ("a1", "a2", "b1", "b2", "c1", "c2"),
    "coherent": ("a", "p0"),
    "hermite": ("n", "normalized"),
    "free_gaussian": ("t",),
    "delta_bound": ("gamma",),
    "soliton": ("nu",),
    "harmonic_eigen": ("n", "omega", "normalized"),
}


class ConfigParseError(ConfigurationError):
    """Bad config contents; the message names the offending key path."""


def _fail(path: str, message: str) -> None:
    raise ConfigParseError(f"{path}: {message}")


def _get_number(d: dict, key: str, path: str, default=None, minimum=None, strict_min=None):
    if key not in d:
        if default is None:
            _fail(f"{path}.{key}", "missing required key")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {type(v).__name__}")
    v = float(v)
    if not math.isfinite(v):
        _fail(f"{path}.{key}", "must be finite")
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    if strict_min is not None and v <= strict_min:
        _fail(f"{path}.{key}", f"must be > {strict_min}, got {v}")
    return v


def _get_int(d: dict, key: str, path: str, default=None, minimum=None):
    if key not in d:
        if default is None:
            _fail(f"{path}.{key}", "missing required key")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", f"expected an integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return v


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    for key in d:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _canon_state(d, path: str) -> dict:
    if not isinstance(d, dict):
        _fail(path, "expected an object describing the state")
    kind = d.get("kind")
    if kind not in _STATE_KINDS:
        _fail(f"{path}.kind", f"expected one of {sorted(_STATE_KINDS)}, got {kind!r}")
    out = {"kind": kind}
    _check_keys(d, {"kind", *_STATE_KINDS[kind]}, path)
    if kind == "box":
        out["R"] = _get_number(d, "R", path, strict_min=0.0)
    elif kind == "gauss_general":
        out["a1"] = _get_number(d, "a1", path, strict_min=0.0)
        for key in ("a2", "b1", "b2", "c1", "c2"):
            out[key] = _get_number(d, key, path, default=0.0)
    elif kind == "coherent":
        out["a"] = _get_number(d, "a", path, default=0.0)
        out["p0"] = _get_number(d, "p0", path, default=0.0)
    elif kind == "hermite":
        out["n"] = _get_int(d, "n", path, minimum=0)
    elif kind == "free_gaussian":
        out["t"] = _get_number(d, "t", path, default=0.0, minimum=0.0)
    elif kind == "delta_bound":
        gamma = _get_number(d, "gamma", path)
        if gamma >= 0:
            _fail(f"{path}.gamma", f"must be < 0 for a bound state, got {gamma}")
        out["gamma"] = gamma
    elif kind == "soliton":
        nu = _get_number(d, "nu", path)
        if nu >= 0:
            _fail(f"{path}.nu", f"must be < 0, got {nu}")
        out["nu"] = nu
    else:  # harmonic_eigen
        out["n"] = _get_int(d, "n", path, minimum=0)
        out["omega"] = _get_number(d, "omega", path, default=1.0, strict_min=0.0)
    if "normalized" in _STATE_KINDS[kind]:
        out["normalized"] = d.get("normalized", True)
        if not isinstance(out["normalized"], bool):
            _fail(f"{path}.normalized", f"expected true or false, got {out['normalized']!r}")
    return out


def _state_from_canon(d: dict, hbar: float) -> catalog.AnalyticState:
    kind = d["kind"]
    if kind == "box":
        return catalog.Box(d["R"], hbar)
    if kind == "gauss_general":
        return catalog.GaussGeneral(
            d["a1"], d["a2"], d["b1"], d["b2"], d["c1"], d["c2"], hbar
        )
    if kind == "coherent":
        return catalog.CoherentGaussian(d["a"], d["p0"], hbar)
    if kind == "hermite":
        return catalog.Hermite(d["n"], hbar, d["normalized"])
    if kind == "free_gaussian":
        return catalog.FreeEvolvedGaussian(d["t"], hbar)
    if kind == "delta_bound":
        return catalog.DeltaBound(d["gamma"], hbar)
    if kind == "soliton":
        return catalog.Soliton(d["nu"], hbar)
    return catalog.HarmonicEigen(d["n"], d["omega"], hbar, d["normalized"])


def _canon_drive(d, path: str) -> dict:
    if d is None:
        return {"kind": "constant", "lambda": 0.0}
    if not isinstance(d, dict):
        _fail(path, "expected an object describing the drive")
    kind = d.get("kind")
    if kind is None:
        kind = "cosine" if ("b" in d or "Omega" in d) else "constant"
    if kind == "constant":
        _check_keys(d, {"kind", "lambda"}, path)
        return {"kind": "constant", "lambda": _get_number(d, "lambda", path, default=0.0)}
    if kind == "cosine":
        _check_keys(d, {"kind", "lambda", "b", "Omega"}, path)
        return {
            "kind": "cosine",
            "lambda": _get_number(d, "lambda", path, default=0.0),
            "b": _get_number(d, "b", path),
            "Omega": _get_number(d, "Omega", path),
        }
    if kind == "tabulated":
        _check_keys(d, {"kind", "times", "values"}, path)
        times = d.get("times")
        values = d.get("values")
        for name, arr in (("times", times), ("values", values)):
            if not isinstance(arr, list) or len(arr) < 2:
                _fail(f"{path}.{name}", "expected a list of at least 2 numbers")
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in arr):
                _fail(f"{path}.{name}", "entries must be numbers")
        if len(times) != len(values):
            _fail(f"{path}.values", "must have the same length as times")
        if any(b <= a for a, b in zip(times, times[1:])):
            _fail(f"{path}.times", "must be strictly ascending")
        return {"kind": "tabulated", "times": [float(v) for v in times],
                "values": [float(v) for v in values]}
    _fail(f"{path}.kind", f"expected constant, cosine or tabulated, got {kind!r}")


def _drive_from_canon(d: dict):
    if d["kind"] == "constant":
        return Constant(d["lambda"])
    if d["kind"] == "cosine":
        return Cosine(d["lambda"], d["b"], d["Omega"])
    return Tabulated(np.asarray(d["times"]), np.asarray(d["values"]))


def _canon_grid(d, path: str, default_count: int = 512) -> dict:
    if not isinstance(d, dict):
        _fail(path, "expected an object with x_min/x_max/count or half_width/count")
    if "half_width" in d:
        _check_keys(d, {"half_width", "count"}, path)
        hw = _get_number(d, "half_width", path, strict_min=0.0)
        return {
            "x_min": -hw,
            "x_max": hw,
            "count": _get_int(d, "count", path, default=default_count, minimum=2),
        }
    _check_keys(d, {"x_min", "x_max", "count"}, path)
    x_min = _get_number(d, "x_min", path)
    x_max = _get_number(d, "x_max", path)
    if x_max <= x_min:
        _fail(f"{path}.x_max", f"must exceed x_min = {x_min}")
    return {"x_min": x_min, "x_max": x_max,
            "count": _get_int(d, "count", path, default=default_count, minimum=2)}


def _grid_from_canon(d: dict) -> Grid1D:
    return Grid1D.from_span(d["x_min"], d["x_max"], d["count"])


def _canon_xi(d, path: str) -> dict | None:
    if d is None:
        return None
    if not isinstance(d, dict):
        _fail(path, "expected an object with xi_max/count")
    _check_keys(d, {"xi_max", "count"}, path)
    count = _get_int(d, "count", path, minimum=3)
    if count % 2 == 0:
        _fail(f"{path}.count", "must be odd so the grid is centred on 0")
    return {"xi_max": _get_number(d, "xi_max", path, strict_min=0.0), "count": count}


def _canon_times(d, path: str) -> dict:
    if isinstance(d, list):
        if not d or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in d):
            _fail(path, "expected a non-empty list of numbers")
        times = [float(v) for v in d]
        if any(v < 0 for v in times):
            _fail(path, "times must be non-negative")
        return {"list": times}
    if not isinstance(d, dict):
        _fail(path, "expected {t_max, t_steps} or a list of times")
    _check_keys(d, {"t_max", "t_steps"}, path)
    return {
        "t_max": _get_number(d, "t_max", path, strict_min=0.0),
        "t_steps": _get_int(d, "t_steps", path, minimum=1),
    }


def _times_from_canon(d: dict) -> np.ndarray:
    if "list" in d:
        return np.asarray(d["list"], dtype=float)
    return np.linspace(0.0, d["t_max"], d["t_steps"] + 1)


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


def parse_config(text: str) -> RunConfig:
    """Validate JSON config text; errors name the offending key path."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config is not valid JSON: {exc}") from None
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

    d = {k: v for k, v in raw.items() if k not in ("command", "out", "format")}
    path = command
    params: dict = {}
    if command == "transform":
        _check_keys(d, {"state", "hbar", "grid", "xi"}, path)
        params["hbar"] = _get_number(d, "hbar", path, default=1.0, strict_min=0.0)
        params["state"] = _canon_state(d.get("state"), f"{path}.state")
        params["grid"] = _canon_grid(d.get("grid"), f"{path}.grid")
        params["xi"] = _canon_xi(d.get("xi"), f"{path}.xi")
    elif command == "propagate":
        _check_keys(d, {"state", "hbar", "gamma", "drive", "times", "grid", "xi"}, path)
        params["hbar"] = _get_number(d, "hbar", path, default=1.0, strict_min=0.0)
        params["state"] = _canon_state(d.get("state"), f"{path}.state")
        params["gamma"] = _get_number(d, "gamma", path)
        params["drive"] = _canon_drive(d.get("drive"), f"{path}.drive")
        params["times"] = _canon_times(d.get("times"), f"{path}.times")
        params["grid"] = _canon_grid(d.get("grid"), f"{path}.grid", default_count=129)
        xi = _canon_xi(d.get("xi"), f"{path}.xi")
        if xi is None:
            _fail(f"{path}.xi", "missing required key (propagation needs an explicit xi grid)")
        params["xi"] = xi
    elif command == "gaussian":
        _check_keys(d, {"a", "p0", "hbar", "gamma", "drive", "times", "grid"}, path)
        params["a"] = _get_number(d, "a", path, default=0.0)
        params["p0"] = _get_number(d, "p0", path, default=0.0)
        params["hbar"] = _get_number(d, "hbar", path, default=1.0, strict_min=0.0)
        params["gamma"] = _get_number(d, "gamma", path)
        params["drive"] = _canon_drive(d.get("drive"), f"{path}.drive")
        params["times"] = _canon_times(d.get("times"), f"{path}.times")
        params["grid"] = _canon_grid(d.get("grid"), f"{path}.grid", default_count=201)
    elif command == "tunnel":
        _check_keys(d, {"a", "p0", "p0_list", "omega", "hbar", "drive", "t_max", "t_steps"}, path)
        params["a"] = _get_number(d, "a", path)
        if "p0_list" in d:
            lst = d["p0_list"]
            if not isinstance(lst, list) or not lst:
                _fail(f"{path}.p0_list", "expected a non-empty list of numbers")
            params["p0_list"] = [
                _get_number({"v": v}, "v", f"{path}.p0_list") for v in lst
            ]
        else:
            params["p0_list"] = [_get_number(d, "p0", path)]
        params["omega"] = _get_number(d, "omega", path, strict_min=0.0)
        params["hbar"] = _get_number(d, "hbar", path, default=1.0, strict_min=0.0)
        params["drive"] = _canon_drive(d.get("drive"), f"{path}.drive")
        params["t_max"] = _get_number(d, "t_max", path, strict_min=0.0)
        params["t_steps"] = _get_int(d, "t_steps", path, default=300, minimum=1)
    elif command == "eigen":
        _check_keys(d, {"omega", "hbar", "n_max", "sample_count", "sample_half_width"}, path)
        params["omega"] = _get_number(d, "omega", path, default=1.0, strict_min=0.0)
        params["hbar"] = _get_number(d, "hbar", path, default=1.0, strict_min=0.0)
        params["n_max"] = _get_int(d, "n_max", path, default=10, minimum=0)
        params["sample_count"] = _get_int(d, "sample_count", path, default=21, minimum=2)
        params["sample_half_width"] = _get_number(
            d, "sample_half_width", path, default=4.0, strict_min=0.0
        )
    else:  # verify
        _check_keys(d, set(), path)

    return RunConfig(command=command, params=params, output_path=out)


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigParseError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.17g}"


@dataclass
class CsvTable:
    header: tuple[str, ...]
    rows: list[tuple]
    tolerances: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.header):
                raise ConfigurationError(
                    f"row width {len(row)} != header width {len(self.header)}"
                )

    def to_text(self) -> str:
        lines = []
        for col, (abs_tol, rel_tol) in self.tolerances.items():
            lines.append(f"# tolerance {col} {_fmt(abs_tol)} {_fmt(rel_tol)}")
        lines.append(",".join(self.header))
        lines.extend(",".join(_fmt(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8", newline="")


def read_csv_table(path: str | Path) -> CsvTable:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    tolerances: dict[str, tuple[float, float]] = {}
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        parts = lines[idx][1:].split()
        if len(parts) == 4 and parts[0] == "tolerance":
            tolerances[parts[1]] = (float(parts[2]), float(parts[3]))
        idx += 1
    if idx >= len(lines) or not lines[idx].strip():
        raise ConfigurationError(f"{path}: no header row found")
    header = tuple(lines[idx].split(","))
    rows = []
    for line in lines[idx + 1 :]:
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigurationError(f"{path}: ragged row {line!r}")
        parsed = []
        for cell in cells:
            try:
                parsed.append(float(cell))
            except ValueError:
                parsed.append(cell)
        rows.append(tuple(parsed))
    return CsvTable(header, rows, tolerances)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _ps_grid(grid: Grid1D, xi_canon: dict | None, hbar: float) -> PhaseSpaceGrid:
    if xi_canon is None:
        return natural_grid(grid, hbar)
    return PhaseSpaceGrid(grid, symmetric_xi_grid(xi_canon["xi_max"], xi_canon["count"]))


def _run_transform(cfg: RunConfig) -> tuple[CsvTable, dict[str, CsvTable]]:
    p = cfg.params
    hbar = p["hbar"]
    state = _state_from_canon(p["state"], hbar)
    grid = _grid_from_canon(p["grid"])
    ps = _ps_grid(grid, p["xi"], hbar)
    fld = wigner_transform(catalog.sample_catalog_state(state, grid), ps)
    xs = ps.x_grid.nodes()
    xis = ps.xi_grid.nodes()
    rows = [
        (xs[i], xis[j], fld.values[i, j])
        for i in range(len(xs))
        for j in range(len(xis))
    ]
    return CsvTable(("x", "xi", "W"), rows), {}


def _run_propagate(cfg: RunConfig) -> tuple[CsvTable, dict[str, CsvTable]]:
    p = cfg.params
    hbar = p["hbar"]
    state = _state_from_canon(p["state"], hbar)
    params = OscillatorParams(p["gamma"], _drive_from_canon(p["drive"]), hbar)
    grid = _grid_from_canon(p["grid"])
    ps = _ps_grid(grid, p["xi"], hbar)
    xs = ps.x_grid.nodes()
    xis = ps.xi_grid.nodes()
    rows = []
    for t in _times_from_canon(p["times"]):
        fld = propagate_field(state.wigner, params, float(t), ps)
        rows.extend(
            (t, xs[i], xis[j], fld.values[i, j])
            for i in range(len(xs))
            for j in range(len(xis))
        )
    return CsvTable(("t", "x", "xi", "W"), rows), {}


def _run_gaussian(cfg: RunConfig) -> tuple[CsvTable, dict[str, CsvTable]]:
    p = cfg.params
    hbar = p["hbar"]
    packet = GaussianPacket(p["a"], p["p0"], hbar)
    params = OscillatorParams(p["gamma"], _drive_from_canon(p["drive"]), hbar)
    xs = _grid_from_canon(p["grid"]).nodes()
    rows = []
    shape_rows = []
    for t in _times_from_canon(p["times"]):
        shape = packet_shape(packet, params, float(t))
        dens = np.exp(-((xs - shape.v) ** 2) / (hbar * shape.A)) / math.sqrt(
            math.pi * hbar * shape.A
        )
        rows.extend((t, x, d) for x, d in zip(xs, dens))
        shape_rows.append((t, shape.v, shape.A))
    return (
        CsvTable(("t", "x", "density"), rows),
        {"shape": CsvTable(("t", "v", "A"), shape_rows)},
    )


def _run_tunnel(cfg: RunConfig) -> tuple[CsvTable, dict[str, CsvTable]]:
    p = cfg.params
    drive = _drive_from_canon(p["drive"])
    times = np.linspace(0.0, p["t_max"], p["t_steps"] + 1)
    rows = []
    summary = []
    for p0 in p["p0_list"]:
        scenario = TunnelScenario(
            GaussianPacket(p["a"], p0, p["hbar"]), p["omega"], drive
        )
        rows.extend((p0, t, survival_probability(scenario, float(t))) for t in times)
        report = tunnel_report(scenario)
        summary.append(
            (
                p0,
                report.p_crit,
                report.P_inf,
                report.regime,
                float("nan") if report.E_q is None else report.E_q,
                float("nan") if report.E_c is None else report.E_c,
            )
        )
    return (
        CsvTable(("p0", "t", "P"), rows),
        {"summary": CsvTable(("p0", "p_crit", "P_inf", "regime", "E_q", "E_c"), summary)},
    )


def _run_eigen(cfg: RunConfig) -> tuple[CsvTable, dict[str, CsvTable]]:
    p = cfg.params
    omega, hbar = p["omega"], p["hbar"]
    rows = [(n, catalog.harmonic_energy(n, omega, hbar)) for n in range(p["n_max"] + 1)]
    xs = np.linspace(-p["sample_half_width"], p["sample_half_width"], p["sample_count"])
    field_rows = []
    for n in range(p["n_max"] + 1):
        state = catalog.HarmonicEigen(n, omega, hbar, normalized=True)
        for x in xs:
            for xi in xs:
                field_rows.append((n, x, xi, float(state.wigner(x, xi))))
    return (
        CsvTable(("n", "E"), rows),
        {"field": CsvTable(("n", "x", "xi", "W"), field_rows)},
    )


def _run_verify(cfg: RunConfig) -> tuple[CsvTable, dict[str, CsvTable]]:
    from .verify import run_invariant_suite

    rows = run_invariant_suite()
    return CsvTable(("check", "state", "residual", "tolerance", "status"), rows), {}


_RUNNERS = {
    "transform": _run_transform,
    "propagate": _run_propagate,
    "gaussian": _run_gaussian,
    "tunnel": _run_tunnel,
    "eigen": _run_eigen,
    "verify": _run_verify,
}


def compute(config: RunConfig) -> tuple[CsvTable, dict[str, CsvTable]]:
    """Run the command and return (main table, companion tables by suffix)."""
    return _RUNNERS[config.command](config)


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


def verify_golden(config: RunConfig, golden_path: str | Path, max_report: int = 10) -> GoldenReport:
    """Recompute the config's main table and compare against a golden CSV.

    Per-column absolute/relative tolerances come from '# tolerance <col>
    <abs> <rel>' lines in the golden header; unlisted columns must match
    exactly.  A schema mismatch is structural and reported before any
    numeric comparison.
    """
    golden_path = Path(golden_path)
    if not golden_path.exists():
        return GoldenReport(False, True, [f"golden file not found: {golden_path}"])
    try:
        golden = read_csv_table(golden_path)
    except ConfigurationError as exc:
        return GoldenReport(False, True, [str(exc)])

    fresh, _ = compute(config)
    if fresh.header != golden.header:
        return GoldenReport(
            False, True, [f"header mismatch: got {fresh.header}, golden {golden.header}"]
        )
    if len(fresh.rows) != len(golden.rows):
        return GoldenReport(
            False,
            True,
            [f"row count mismatch: got {len(fresh.rows)}, golden {len(golden.rows)}"],
        )

    messages: list[str] = []
    for i, (row_new, row_gold) in enumerate(zip(fresh.rows, golden.rows)):
        for col, new, gold in zip(fresh.header, row_new, row_gold):
            if isinstance(new, str) or isinstance(gold, str):
                ok = str(new) == str(gold)
            else:
                abs_tol, rel_tol = golden.tolerances.get(col, (0.0, 0.0))
                new_f, gold_f = float(new), float(gold)
                if math.isnan(new_f) and math.isnan(gold_f):
                    ok = True
                else:
                    ok = abs(new_f - gold_f) <= abs_tol + rel_tol * abs(gold_f)
            if not ok:
                messages.append(f"row {i}, column {col}: got {_fmt(new)}, golden {_fmt(gold)}")
                if len(messages) >= max_report:
                    return GoldenReport(False, False, messages)
    return GoldenReport(not messages, False, messages)


def _plot_companion_text(table: CsvTable, config: RunConfig) -> str:
    mapping = {
        "transform": "x (col 1) vs xi (col 2), value W (col 3); plot as a heatmap",
        "propagate": "per fixed t (col 1): x (col 2) vs xi (col 3), value W (col 4)",
        "gaussian": "per fixed t (col 1): x (col 2) on the abscissa, density (col 3)",
        "tunnel": "per fixed p0 (col 1): t (col 2) on the abscissa, P (col 3)",
        "eigen": "n (col 1) on the abscissa, E (col 2)",
        "verify": "tabular report; nothing to plot",
    }
    lines = [
        "# plotting guide (tool-agnostic); data columns refer to the CSV next to this file",
        f"# command: {config.command}",
        f"# columns: {', '.join(table.header)}",
        f"# {mapping[config.command]}",
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
        config = load_config(args.config)
        if config.command != args.command:
            raise ConfigParseError(
                f"config.command: config says {config.command!r} but the "
                f"{args.command!r} subcommand was invoked"
            )
        if args.golden is not None:
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
            sys.stdout.write(table.to_text())
        elif args.emit_plot:
            Path(target).with_suffix(".plot.txt").write_text(
                _plot_companion_text(table, config), encoding="utf-8"
            )
        if config.command == "verify" and any(row[-1] != "pass" for row in table.rows):
            return 1
        return 0
    except ConfigParseError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except WignerflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
