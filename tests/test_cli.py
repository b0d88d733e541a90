"""CLI: config parsing, CSV output, golden comparison, determinism."""

import hashlib
import json
import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wignerflow import cli, transform
from wignerflow._float_text import write_g17
from wignerflow.cli import ConfigParseError, CsvTable, RunConfig
from wignerflow.errors import ConfigurationError, NumericalConsistencyError

DATA = Path(__file__).parent / "data" / "cli"


def make_config(**kwargs) -> str:
    return json.dumps(kwargs)


TUNNEL_CFG = {
    "command": "tunnel",
    "a": -5.0,
    "p0_list": [4.0, 5.0, 6.0],
    "omega": 1.0,
    "hbar": 1.0,
    "t_max": 15.0,
    "t_steps": 300,
}


def test_parse_minimal_tunnel_config():
    cfg = cli.parse_config(make_config(command="tunnel", a=-5, p0=4, omega=1,
                                       hbar=1, t_max=15, t_steps=300))
    assert cfg.command == "tunnel"
    assert cfg.params["p0_list"] == [4.0]
    assert cfg.params["drive"] == {"kind": "constant", "lambda": 0.0}


def test_parse_rejects_nonpositive_omega():
    with pytest.raises(ConfigParseError, match="omega"):
        cli.parse_config(make_config(command="tunnel", a=-5, p0=4, omega=-1,
                                     hbar=1, t_max=15))


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigParseError, match="tunnel.bogus"):
        cli.parse_config(make_config(command="tunnel", a=-5, p0=4, omega=1,
                                     t_max=15, bogus=3))


def test_parse_rejects_non_finite_numbers():
    rest = dict(state={"kind": "coherent"}, gamma=0.5, grid={"half_width": 6.0, "count": 9},
                xi={"xi_max": 5.0, "count": 9})
    for bad, path in (({"hbar": 10**400, "times": [0.5]}, r"propagate\.hbar"),
                      ({"times": [0.5, float("nan")]}, r"propagate\.times\[1\]"),
                      ({"times": [0.5], "gamma": float("inf")}, r"propagate\.gamma")):
        with pytest.raises(ConfigParseError, match=rf"^{path}: must be finite"):
            cli.parse_config(json.dumps({"command": "propagate", **rest, **bad}))


def test_parse_rejects_bad_command_and_bad_json():
    with pytest.raises(ConfigParseError, match="command"):
        cli.parse_config(make_config(command="explode"))
    with pytest.raises(ConfigParseError, match="JSON"):
        cli.parse_config("{not json")


def test_parse_rejects_string_normalized_for_hermite(tmp_path):
    text = make_config(command="transform",
                       state={"kind": "hermite", "n": 2, "normalized": "false"},
                       grid={"half_width": 13.0, "count": 65})
    with pytest.raises(ConfigParseError, match=r"transform\.state\.normalized"):
        cli.parse_config(text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["transform", "--config", str(cfg_path)]) == 2


def test_parse_rejects_string_normalized_for_harmonic_eigen():
    state = {"kind": "harmonic_eigen", "n": 1, "omega": 0.8, "normalized": "false"}
    rest = dict(gamma=0.64, times=[0.5], grid={"half_width": 6.0, "count": 9},
                xi={"xi_max": 5.0, "count": 9})
    with pytest.raises(ConfigParseError, match=r"propagate\.state\.normalized"):
        cli.parse_config(make_config(command="propagate", state=state, **rest))
    state["normalized"] = False
    cfg = cli.parse_config(make_config(command="propagate", state=state, **rest))
    assert cfg.params["state"]["normalized"] is False


def test_kindless_drive_dict_is_cosine():
    cfg = cli.parse_config(make_config(
        command="tunnel", a=-5, p0=4, omega=1, t_max=15,
        drive={"lambda": 0, "b": 0.5, "Omega": 2},
    ))
    assert cfg.params["drive"] == {"kind": "cosine", "lambda": 0.0, "b": 0.5, "Omega": 2.0}


PICKER_ERRORS = [  # (the change to a pinned config, the whole message): one per form picker
    ("propagate", {"state": {"kind": "squeezed"}},
     "propagate.state.kind: expected one of ['box', 'coherent', 'delta_bound', "
     "'free_gaussian', 'gauss_general', 'harmonic_eigen', 'hermite', 'soliton'], got 'squeezed'"),
    ("propagate", {"drive": {"kind": "sawtooth"}},
     "propagate.drive.kind: expected one of ['constant', 'cosine', 'tabulated'], got 'sawtooth'"),
    ("propagate", {"drive": {"lambda": 0.1, "b": 0.2}}, "propagate.drive.Omega: missing required key"),
    ("propagate", {"drive": {"lambda": "x"}}, "propagate.drive.lambda: expected a number, got 'x'"),
    ("tunnel", {"drive": {"kind": "tabulated", "times": [0.0, 1.0], "values": [0.1, 0.2]}},
     "tunnel.drive.kind: expected one of ['constant', 'cosine'], got 'tabulated'"),
    ("propagate", {"times": "0.5"}, "propagate.times: expected an object"),
    ("transform", {"grid": "wide"}, "transform.grid: expected an object"),
    ("transform", {"grid": {"half_width": 8.0, "x_min": -8.0, "count": 9}},
     "transform.grid.x_min: unknown key"),
    ("propagate", {"state": {"kind": {}}},
     "propagate.state.kind: expected one of ['box', 'coherent', 'delta_bound', "
     "'free_gaussian', 'gauss_general', 'harmonic_eigen', 'hermite', 'soliton'], got {}"),
    ("propagate", {"drive": {"kind": []}},
     "propagate.drive.kind: expected one of ['constant', 'cosine', 'tabulated'], got []"),
]


@pytest.mark.parametrize("name, change, message", PICKER_ERRORS)
def test_form_picker_errors_name_the_key_path(name, change, message):
    cfg = {**json.loads((DATA / f"{name}.json").read_text()), **change}
    with pytest.raises(ConfigParseError) as err:
        cli.parse_config(json.dumps(cfg))
    assert str(err.value) == message


@pytest.mark.parametrize("change", [{"state": {"kind": {}}}, {"drive": {"kind": []}}],
                         ids=["object", "list"])
def test_a_kind_that_is_not_a_string_exits_2(change, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**json.loads((DATA / "propagate.json").read_text()), **change}))
    assert cli.main(["propagate", "--config", str(cfg)]) == 2
    assert "kind: expected one of" in capsys.readouterr().err


def test_config_round_trip():
    cfg = cli.parse_config(json.dumps(TUNNEL_CFG))
    assert cli.parse_config(cfg.render()) == cfg
    cfg2 = cli.parse_config(make_config(
        command="transform", hbar=2.0,
        state={"kind": "box", "R": 1.0},
        grid={"x_min": -1.1, "x_max": 1.1, "count": 301},
        xi={"xi_max": 10.0, "count": 41},
        out="table.csv",
    ))
    assert cli.parse_config(cfg2.render()) == cfg2
    # one config per command; list-valued times must render in a form the parser takes
    for text in sorted(DATA.glob("*.json")):
        cfg3 = cli.parse_config(text.read_text())
        assert cli.parse_config(cfg3.render()) == cfg3, text.name
    grid = {"half_width": 6.0, "count": 9}
    for cfg4 in (
        cli.parse_config(make_config(command="propagate", state={"kind": "coherent"}, gamma=0.5,
                                     times=[0.0, 0.5], grid=grid, xi={"xi_max": 5.0, "count": 9})),
        cli.parse_config(make_config(command="gaussian", gamma=-1.0, times=[0.25, 1.0], grid=grid)),
        cli.parse_config(make_config(command="transform", state={"kind": "hermite", "n": 2},
                                     grid={"half_width": 13.0, "count": 65})),
    ):
        assert cli.parse_config(cfg4.render()) == cfg4


def test_tunnel_rejects_p0_together_with_p0_list(tmp_path):
    cfg = dict(TUNNEL_CFG, p0=4.0)
    with pytest.raises(ConfigParseError, match=r"^tunnel\.p0: "):
        cli.parse_config(json.dumps(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["tunnel", "--config", str(cfg_path)]) == 2


def test_tunnel_p0_list_entry_error_names_its_index():
    with pytest.raises(ConfigParseError, match=r"^tunnel\.p0_list\[1\]: "):
        cli.parse_config(json.dumps(dict(TUNNEL_CFG, p0_list=[4.0, "five"])))


def test_tunnel_rejects_tabulated_drive_at_parse_time(tmp_path):
    cfg = dict(TUNNEL_CFG, drive={"kind": "tabulated", "times": [0.0, 1.0], "values": [0.1, 0.2]})
    with pytest.raises(ConfigParseError, match=r"^tunnel\.drive\.kind: "):
        cli.parse_config(json.dumps(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["tunnel", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")]) == 2
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", ["tunnel", "propagate"])
def test_cosine_omega_whose_square_overflows_is_a_config_error(tmp_path, capsys, command):
    cfg = json.loads((DATA / f"{command}.json").read_text())
    cfg["drive"]["Omega"] = 1e160
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ") and "Omega" in err[0]


def test_repeated_key_is_a_config_error_at_any_depth(tmp_path, capsys):
    top = '{"command": "tunnel", "a": -5, "p0": 4, "p0": 6, "omega": 1, "t_max": 15}'
    nested = ('{"command": "tunnel", "a": -5, "p0": 4, "omega": 1, "t_max": 15,'
              ' "drive": {"kind": "constant", "lambda": 0.1, "lambda": 0.2}}')
    for text, key in ((top, "p0"), (nested, "lambda")):
        with pytest.raises(ConfigParseError, match=rf"^config: key '{key}' is given more than once"):
            cli.parse_config(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert cli.main(["tunnel", "--config", str(cfg_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err


def test_config_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    assert cli.main(["tunnel", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(json.dumps(TUNNEL_CFG).encode("utf-16"))
    assert cli.main(["tunnel", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TUNNEL_CFG, "t_steps": 5}))
    out_path = tmp_path / "missing" / "out.csv"
    assert cli.main(["tunnel", "--config", str(cfg_path), "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("config", sorted(p.name for p in DATA.glob("*.json")))
def test_cli_reproduces_pinned_csv_bytes(config, tmp_path):
    # every table in tests/data/cli was written by the CLI from the config next to it
    name = config.removesuffix(".json")
    command = json.loads((DATA / config).read_text())["command"]
    out = tmp_path / f"{name}.csv"
    assert cli.main([command, "--config", str(DATA / config), "--out", str(out)]) == 0
    pinned = sorted(p.name for p in DATA.glob(f"{name}.*csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == pinned
    for name in pinned:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_tunnel_run_reproduces_three_regime_picture(tmp_path):
    cfg = cli.parse_config(json.dumps(TUNNEL_CFG))
    table = cli.run(cfg, out_path=tmp_path / "tunnel.csv")
    assert table.header == ("p0", "t", "P")
    by_p0 = {}
    for p0, t, p in table.rows:
        assert 0.0 <= p <= 1.0
        if t == 15.0:
            by_p0[p0] = p
    assert by_p0[4.0] > 0.5 > by_p0[6.0]
    assert by_p0[5.0] == pytest.approx(0.5, abs=1e-9)

    summary = cli.read_csv_table(tmp_path / "tunnel.summary.csv")
    assert summary.header == ("p0", "p_crit", "P_inf", "regime", "E_q", "E_c")
    regimes = [row[3] for row in summary.rows]
    assert regimes == ["subcritical", "critical", "supercritical"]
    assert all(row[1] == 5.0 for row in summary.rows)


def test_tunnel_run_to_omega_t_400(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TUNNEL_CFG, "t_max": 400.0, "t_steps": 40}))
    out_path = tmp_path / "long.csv"
    assert cli.main(["tunnel", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    table = cli.read_csv_table(out_path)
    summary = cli.read_csv_table(out_path.with_suffix(".summary.csv"))
    limits = {row[0]: row[2] for row in summary.rows}
    for p0, t, p in table.rows:
        assert math.isfinite(p)
        if t >= 20.0:
            assert p == pytest.approx(limits[p0], abs=1e-12)


def test_eigen_run_energies(tmp_path):
    cfg = cli.parse_config(make_config(command="eigen", omega=1.0, hbar=1.0,
                                       n_max=3, sample_count=5))
    table = cli.run(cfg, out_path=tmp_path / "eigen.csv")
    assert [row[1] for row in table.rows] == [1.0, 3.0, 5.0, 7.0]
    field = cli.read_csv_table(tmp_path / "eigen.field.csv")
    assert field.header == ("n", "x", "xi", "W")
    assert len(field.rows) == 4 * 5 * 5


def test_gaussian_run_emits_density_and_shape(tmp_path):
    cfg = cli.parse_config(make_config(
        command="gaussian", a=-1.0, p0=0.5, hbar=1.0, gamma=-1.0,
        times={"t_max": 1.0, "t_steps": 4},
        grid={"x_min": -6.0, "x_max": 6.0, "count": 11},
    ))
    table = cli.run(cfg, out_path=tmp_path / "gauss.csv")
    assert table.header == ("t", "x", "density")
    assert len(table.rows) == 5 * 11
    shape = cli.read_csv_table(tmp_path / "gauss.shape.csv")
    assert shape.header == ("t", "v", "A")
    assert shape.rows[0][1] == -1.0 and shape.rows[0][2] == 1.0


def test_transform_run_small_grid():
    cfg = cli.parse_config(make_config(
        command="transform", hbar=1.0,
        state={"kind": "coherent", "a": 0.0, "p0": 0.0},
        grid={"x_min": -8.0, "x_max": 8.0, "count": 65},
        xi={"xi_max": 4.0, "count": 33},
    ))
    table, _ = cli.compute(cfg)
    assert table.header == ("x", "xi", "W")
    peak = max(row[2] for row in table.rows)
    assert peak == pytest.approx(1.0 / math.pi, abs=1e-6)


def test_propagate_run_requires_xi():
    with pytest.raises(ConfigParseError, match="propagate.xi"):
        cli.parse_config(make_config(
            command="propagate", hbar=1.0, gamma=-1.0,
            state={"kind": "coherent"},
            times=[0.0, 0.5],
            grid={"x_min": -6.0, "x_max": 6.0, "count": 11},
        ))


def test_propagate_run_shape():
    cfg = cli.parse_config(make_config(
        command="propagate", hbar=1.0, gamma=0.0,
        state={"kind": "coherent"},
        times=[0.0, 0.25],
        grid={"x_min": -6.0, "x_max": 6.0, "count": 11},
        xi={"xi_max": 5.0, "count": 11},
    ))
    table, _ = cli.compute(cfg)
    assert table.header == ("t", "x", "xi", "W")
    assert len(table.rows) == 2 * 11 * 11


def test_propagate_with_tabulated_drive_config():
    cfg = cli.parse_config(make_config(
        command="propagate", hbar=1.0, gamma=-0.5,
        state={"kind": "coherent"},
        drive={"kind": "tabulated", "times": [0.0, 0.5, 1.0], "values": [0.1, 0.3, 0.2]},
        times=[0.0, 0.75],
        grid={"x_min": -6.0, "x_max": 6.0, "count": 9},
        xi={"xi_max": 5.0, "count": 9},
    ))
    table, _ = cli.compute(cfg)
    assert len(table.rows) == 2 * 9 * 9


def test_main_precondition_failure_exits_1(tmp_path):
    # grid far too small for the packet: the decay precondition trips at runtime
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(make_config(
        command="transform", hbar=1.0,
        state={"kind": "coherent", "a": 0.0, "p0": 0.0},
        grid={"x_min": -2.0, "x_max": 2.0, "count": 33},
    ))
    assert cli.main(["transform", "--config", str(cfg_path)]) == 1


def test_verify_command_all_pass():
    cfg = cli.parse_config(make_config(command="verify"))
    table, _ = cli.compute(cfg)
    assert all(row[-1] == "pass" for row in table.rows)


def test_csv_rendering_17_significant_digits():
    table = CsvTable(("a", "b"), [[1.0 / 3.0], ["text"]])
    text = table.to_text()
    assert text == "a,b\n0.33333333333333331,text\n"


def _row_by_row_text(table: CsvTable) -> str:
    """The row-at-a-time renderer `to_text` replaced, kept as its reference."""
    lines = [f"# tolerance {col} {abs_tol:.17g} {rel_tol:.17g}"
             for col, (abs_tol, rel_tol) in table.tolerances.items()]
    lines.append(",".join(table.header))
    row = ",".join(cli._CELL_FORMATS[col.dtype.kind] for col in table.columns)
    lines.extend(row % cells for cells in zip(*(col.tolist() for col in table.columns)))
    return "\n".join(lines) + "\n"


def _reference_table(n_rows: int) -> CsvTable:
    """-0.0, nan payloads, repeating and distinct floats, ints and text, with tolerances."""
    rng = np.random.default_rng(1000 + n_rows)
    payload_nan = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)[0]
    special = np.array([
        -0.0, 0.0, np.nan, payload_nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
    ])
    assert np.isnan(payload_nan) and special.view(np.int64)[2] != special.view(np.int64)[3]
    columns = {
        "specials": rng.choice(special, n_rows),  # few distinct values, each repeated
        "distinct": rng.standard_normal(n_rows) * 10.0 ** rng.integers(-322, 300, n_rows),
        "mixed": np.where(rng.random(n_rows) < 0.3, rng.choice(special, n_rows), rng.standard_normal(n_rows)),
        "pairs": np.resize(rng.standard_normal(max(n_rows // 2, 1)), n_rows),  # exactly half distinct
        "neg_zero": np.full(n_rows, -0.0),
        "n": rng.integers(-10**15, 10**15, n_rows),
        "status": rng.choice(np.array(["pass", "fail", "a b"]), n_rows),
    }
    return CsvTable(tuple(columns), list(columns.values()),
                    {"distinct": (1e-12, 0.0), "mixed": (0.0, 2.5e-9)})


def _assert_written_like(table: CsvTable, reference: str, tmp_path, monkeypatch, capsys) -> None:
    """to_text, write and the CLI's stdout each give the reference text."""
    assert table.to_text() == reference

    table.write(tmp_path / "table.csv")
    assert (tmp_path / "table.csv").read_bytes() == reference.encode("utf-8")

    monkeypatch.setattr(cli, "compute", lambda config: (table, {}))
    (tmp_path / "cfg.json").write_text(json.dumps(TUNNEL_CFG), encoding="utf-8")
    assert cli.main(["tunnel", "--config", str(tmp_path / "cfg.json")]) == 0
    assert capsys.readouterr().out == reference


@pytest.mark.parametrize("n_rows", [0, 1, 2, 7, 64, 1001])
def test_csv_rendering_matches_the_row_by_row_reference(n_rows):
    table = _reference_table(n_rows)
    text = table.to_text()
    assert text == _row_by_row_text(table)
    if n_rows:
        assert text.splitlines()[3].split(",")[4] == "-0"


BLOCK = 5


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_streamed_csv_matches_the_row_by_row_reference_across_blocks(
    n_rows, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", BLOCK)
    table = _reference_table(n_rows)
    reference = _row_by_row_text(table)
    assert len(list(table._blocks())) == 1 + -(-n_rows // BLOCK)  # header, then the row blocks
    _assert_written_like(table, reference, tmp_path, monkeypatch, capsys)


def _boundary_table(kind: str) -> CsvTable:
    """One column at an edge of the byte-row renderer, next to a short text column."""
    rng = np.random.default_rng(7)
    n_rows = cli._BLOCK_ROWS + 3
    if kind == "floats":  # distinct floats over more than one block and several passes
        col = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
    elif kind == "fallback":  # each value outside the vectorised range, a zero, inf or nan
        col = np.concatenate([
            rng.random(n_rows // 2) * 1e-300,
            -(1.0 + rng.random(n_rows // 2)) * 10.0 ** rng.integers(300, 308, n_rows // 2),
            [0.0, -0.0, np.inf, -np.inf, np.nan],
        ])[:n_rows]
        col = rng.permutation(np.resize(col, n_rows))
    elif kind == "ints":  # all distinct, of both signs and every width
        col = rng.permutation(np.arange(n_rows, dtype=np.int64) * 1_000_003 - 10**9) * 7919
    else:  # text with non-ASCII characters of two, three and four UTF-8 bytes
        col = rng.choice(np.array(["ok", "ħ = 1", "ψ(x; t)", "€", "𝜔"]), n_rows)
    return CsvTable(("v", "tag"), [col, rng.choice(np.array(["a", "bc"]), n_rows)])


@pytest.mark.parametrize("block", [None, BLOCK])
@pytest.mark.parametrize("kind", ["floats", "fallback", "ints", "text"])
def test_byte_rows_match_the_row_by_row_reference_at_their_edges(
    kind, block, tmp_path, monkeypatch, capsys
):
    table = _boundary_table(kind)
    if block is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
    reference = _row_by_row_text(table)
    if kind == "fallback":
        words = np.zeros((len(table), 4), "<u8")
        assert write_g17(table.columns[0], words) == len(table)
    _assert_written_like(table, reference, tmp_path, monkeypatch, capsys)


def _expanded(table: CsvTable) -> CsvTable:
    """The same table with each column spread to a cell per row."""
    columns = [np.broadcast_to(col, table.shape).ravel() for col in table.columns]
    return CsvTable(table.header, columns, table.tolerances)


# Each command's tables at small sizes, with its length-1 axes: one time, a single p0
# and n_max 0.
PRODUCT_CONFIGS = {
    "transform": {"command": "transform", "state": {"kind": "coherent", "a": 0.3},
                  "grid": {"x_min": -8.0, "x_max": 8.5, "count": 4}, "xi": {"xi_max": 2.0, "count": 3}},
    "propagate": {"command": "propagate", "state": {"kind": "coherent", "p0": -0.5}, "gamma": -0.6,
                  "times": [0.0, 0.3], "grid": {"half_width": 2.0, "count": 4},
                  "xi": {"xi_max": 2.0, "count": 3}},
    "propagate_one_time": {"command": "propagate", "state": {"kind": "coherent"}, "gamma": 0.4,
                           "times": [0.7], "grid": {"half_width": 2.0, "count": 2},
                           "xi": {"xi_max": 2.0, "count": 5}},
    "gaussian": {"command": "gaussian", "a": -1.0, "p0": 0.5, "gamma": -1.0,
                 "times": {"t_max": 1.0, "t_steps": 2}, "grid": {"half_width": 3.0, "count": 5}},
    "gaussian_one_time": {"command": "gaussian", "gamma": 0.5, "times": [0.0],
                          "grid": {"half_width": 3.0, "count": 7}},
    "tunnel": {**TUNNEL_CFG, "t_steps": 4},
    "tunnel_one_p0": {"command": "tunnel", "a": -5.0, "p0": 5.0, "omega": 1.0, "t_max": 3.0,
                      "t_steps": 6},
    "eigen": {"command": "eigen", "n_max": 2, "sample_count": 3},
    "eigen_n_max_0": {"command": "eigen", "n_max": 0, "sample_count": 4},
}


@pytest.mark.parametrize("block", [None, BLOCK])
@pytest.mark.parametrize("name", sorted(PRODUCT_CONFIGS))
def test_product_tables_render_like_their_expanded_columns(
    name, block, tmp_path, monkeypatch, capsys
):
    if block is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
    main, companions = cli.compute(cli.parse_config(json.dumps(PRODUCT_CONFIGS[name])))
    for table in [main, *companions.values()]:
        reference = _row_by_row_text(_expanded(table))
        _assert_written_like(table, reference, tmp_path, monkeypatch, capsys)


def test_product_axes_render_like_their_expanded_columns(tmp_path, monkeypatch, capsys):
    # specials, ints and text as axes beside a full float column, over several blocks
    monkeypatch.setattr(cli, "_BLOCK_ROWS", BLOCK)
    rng = np.random.default_rng(3)
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1.0 / 3.0, 1e300])
    table = CsvTable(
        ("v", "n", "tag", "W"),
        [specials[:, None, None], np.arange(-2, 2)[:, None], np.array(["a", "ψ", "bc"]),
         rng.standard_normal((len(specials), 4, 3))],
        {"W": (1e-12, 0.0)},
    )
    assert table.shape == (len(specials), 4, 3) and len(table) == len(table.rows) == 108
    _assert_written_like(table, _row_by_row_text(_expanded(table)), tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb", "a\x0cb", "a\u2028b", "a\x85", "a\0b"])
def test_csv_rejects_a_comma_or_line_break_in_a_text_cell(cell, tmp_path):
    table = CsvTable(("name", "value"), [["ok", cell], [1.0, 2.0]])
    with pytest.raises(ConfigurationError, match="text cell"):
        table.to_text()
    with pytest.raises(ConfigurationError, match="text cell"):
        table.write(tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()  # not even the header is written
    (tmp_path / "t.csv").write_bytes(b"kept\n")
    with pytest.raises(ConfigurationError, match="text cell"):
        table.write(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == b"kept\n"  # an existing file is not truncated


def test_csv_rejects_ragged_rows():
    with pytest.raises(Exception):
        CsvTable(("a", "b"), [(1.0,)])


@pytest.mark.parametrize("columns", [
    [np.zeros(3), np.zeros(4)],  # lengths that do not broadcast
    [np.zeros((2, 1)), np.zeros(3), np.zeros((3, 2))],  # an axis against the wrong field shape
    [np.zeros((2, 1)), np.zeros(3)],  # two columns for a header of three
    [1.0, 2.0, 3.0],  # no dimension to hold the rows
])
def test_csv_rejects_columns_without_one_broadcast_shape(columns):
    with pytest.raises(ConfigurationError, match="broadcast shape"):
        CsvTable(("a", "b", "c"), columns)


def test_determinism_byte_identical(tmp_path):
    cfg = cli.parse_config(json.dumps({**TUNNEL_CFG, "t_steps": 50}))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cli.run(cfg, out_path=p1)
    cli.run(cfg, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


# The shapes of the benchmark's cli_tables transform (257 x 525, a non-natural xi
# grid) and propagate (3 x 129 x 129) tables, with digests of the row-by-row renderer.
FULL_SIZE = {
    "transform": (
        {
            "command": "transform", "hbar": 1.0, "state": {"kind": "coherent", "a": 0.2, "p0": -0.3},
            "grid": {"x_min": -8.3, "x_max": 8.7, "count": 257}, "xi": {"xi_max": 6.0, "count": 525},
        },
        "217f61017a1dd3dc54ef288466c8430bc1f6c7f0538c66316ae7705f21a10df3",
    ),
    "propagate": (
        {
            "command": "propagate", "hbar": 1.0, "state": {"kind": "coherent", "a": 0.2, "p0": -0.3},
            "gamma": -0.6, "drive": {"kind": "cosine", "lambda": 0.1, "b": 0.3, "Omega": 1.7},
            "times": [0.25, 0.5, 0.9], "grid": {"half_width": 6.0, "count": 129},
            "xi": {"xi_max": 6.0, "count": 129},
        },
        "6a318a14569eee684ac939fc320dc3a6e261b87f3b8cf792910a2c8908e7f269",
    ),
}


@pytest.mark.parametrize("command", sorted(FULL_SIZE))
def test_full_size_tables_keep_their_bytes(command, tmp_path):
    config, digest = FULL_SIZE[command]
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", sorted(FULL_SIZE))
def test_full_size_tables_start_no_thread(command, monkeypatch):
    # these tables take the direct sum and the closed-form transport, which stay sequential
    # even where two shares are usable
    monkeypatch.setattr(transform, "_SHARES", 2)
    counts, threads, started = [], set(), []
    each_chunk = transform._each_chunk

    def spied(chunks, work):
        counts.append(len(chunks))

        def counted(sl):
            threads.add(threading.get_ident())
            work(sl)

        each_chunk(chunks, counted)

    monkeypatch.setattr(transform, "_each_chunk", spied)
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    cli.compute(cli.parse_config(json.dumps(FULL_SIZE[command][0])))
    assert set(counts) <= {1} and threads <= {threading.get_ident()}
    assert started == []


def test_propagate_peak_memory_is_its_fields_plus_one_chunk():
    # 11 times of 257 x 257 cells: every time is transported into one (T, n, m) array, with
    # no field per time and no stacked copy of them
    config = cli.parse_config(json.dumps({
        **FULL_SIZE["propagate"][0], "times": {"t_max": 2.0, "t_steps": 10},
        "grid": {"half_width": 6.0, "count": 257}, "xi": {"xi_max": 6.0, "count": 257},
    }))
    tracemalloc.start()
    try:
        table, _ = cli.compute(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fields = table.columns[3]
    assert fields.shape == (11, 257, 257)
    assert peak <= fields.nbytes + transform._CHUNK_BYTES


def test_csv_rendering_peak_memory_is_bounded_by_the_text():
    table, _ = cli.compute(cli.parse_config(json.dumps(FULL_SIZE["transform"][0])))
    tracemalloc.start()
    try:
        text = table.to_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.rows) == 257 * 525
    assert peak <= 3.5 * len(text)


def test_csv_write_peak_memory_is_bounded_by_the_columns(tmp_path):
    # rows are rendered and written a block at a time: what stays is the columns,
    # the axes' formatted cells and one block, never the 8.8 MB text or one object per cell
    table, _ = cli.compute(cli.parse_config(json.dumps(FULL_SIZE["transform"][0])))
    column_bytes = sum(col.nbytes for col in table.columns)
    tracemalloc.start()
    try:
        table.write(tmp_path / "transform.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "transform.csv").stat().st_size > 2 * column_bytes
    assert peak <= 4 * column_bytes


@pytest.mark.parametrize("config", sorted(p.name for p in DATA.glob("*.json")))
def test_pinned_table_passes_its_golden_check(config):
    cfg = cli.load_config(DATA / config)
    report = cli.verify_golden(cfg, DATA / config.replace(".json", ".csv"))
    assert report.ok and not report.structural, report.messages


def test_golden_comparison_pass_and_fail(tmp_path):
    cfg = cli.parse_config(json.dumps({**TUNNEL_CFG, "t_steps": 20}))
    golden_path = tmp_path / "golden.csv"
    table, _ = cli.compute(cfg)
    table.tolerances = {"p0": (1e-9, 0.0), "t": (1e-9, 0.0), "P": (1e-9, 0.0)}
    table.write(golden_path)

    report = cli.verify_golden(cfg, golden_path)
    assert report.ok and not report.structural

    # perturb one cell by 1e-3: the report must name its row and column
    lines = golden_path.read_text().splitlines()
    cells = lines[10].split(",")
    cells[2] = f"{float(cells[2]) + 1e-3:.17g}"
    lines[10] = ",".join(cells)
    golden_path.write_text("\n".join(lines) + "\n")
    report = cli.verify_golden(cfg, golden_path)
    assert not report.ok and not report.structural
    assert "column P" in report.messages[0]

    # empty golden is a structural error
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    report = cli.verify_golden(cfg, empty)
    assert report.structural


def test_golden_mismatch_names_the_row_and_axis_of_a_product_table(tmp_path):
    cfg = cli.parse_config(json.dumps(PRODUCT_CONFIGS["propagate"]))  # 2 x 4 x 3 (t, x, xi)
    golden_path = tmp_path / "golden.csv"
    table, _ = cli.compute(cfg)
    table.write(golden_path)
    assert cli.verify_golden(cfg, golden_path).ok

    row = 17  # t index 1, x index 1, xi index 2
    x = table.rows[row][1]
    lines = golden_path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[1] = f"{x + 1e-3:.17g}"
    lines[row + 1] = ",".join(cells)
    golden_path.write_text("\n".join(lines) + "\n")
    report = cli.verify_golden(cfg, golden_path)
    assert report.messages == [f"row {row}, column x: got {x:.17g}, golden {x + 1e-3:.17g}"]
    assert not report.ok and not report.structural


def test_golden_text_cell_is_reported_alone(tmp_path):
    # one text cell must not turn the other cells of its column into text
    cfg = cli.parse_config(json.dumps({**TUNNEL_CFG, "t_steps": 4}))
    golden_path = tmp_path / "golden.csv"
    cli.run(cfg, out_path=golden_path)
    lines = golden_path.read_text().splitlines()
    for row, value in ((2, "oops"), (4, "0.5")):
        cells = lines[row].split(",")
        cells[2] = value
        lines[row] = ",".join(cells)
    golden_path.write_text("# tolerance P 1e-9 0\n" + "\n".join(lines) + "\n")
    report = cli.verify_golden(cfg, golden_path)
    assert report.messages[0].startswith("row 1, column P: got ")
    assert report.messages[0].endswith(", golden oops")
    assert report.messages[1].startswith("row 3, column P: got ")
    assert report.messages[1].endswith(", golden 0.5")
    assert len(report.messages) == 2 and not report.ok and not report.structural


def test_golden_schema_mismatch_is_structural(tmp_path):
    cfg = cli.parse_config(json.dumps({**TUNNEL_CFG, "t_steps": 5}))
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("alpha,beta\n1,2\n")
    report = cli.verify_golden(cfg, wrong)
    assert report.structural and not report.ok


def _full_parse_report(cfg: RunConfig, golden_path: Path) -> cli.GoldenReport:
    """The golden check that parses every golden cell, kept as the reference for verify_golden."""
    if not golden_path.exists():
        return cli.GoldenReport(False, True, [f"golden file not found: {golden_path}"])
    try:
        golden = cli.read_csv_table(golden_path)
    except ConfigurationError as exc:
        return cli.GoldenReport(False, True, [str(exc)])
    fresh, _ = cli.compute(cfg)
    if fresh.header != golden.header:
        return cli.GoldenReport(
            False, True, [f"header mismatch: got {fresh.header}, golden {golden.header}"])
    if len(fresh) != len(golden):
        return cli.GoldenReport(
            False, True, [f"row count mismatch: got {len(fresh)}, golden {len(golden)}"])
    columns = [fresh.flat(col) for col in fresh.columns]
    mismatch = np.column_stack([
        ~cli._cells_match(new, gold, *golden.tolerances.get(col, (0.0, 0.0)))
        for col, new, gold in zip(fresh.header, columns, golden.columns)
    ])
    messages = [
        f"row {i}, column {fresh.header[j]}: got {cli._cell(columns[j], i)}, "
        f"golden {cli._cell(golden.columns[j], i)}"
        for i, j in np.argwhere(mismatch)[:cli._MAX_REPORT]
    ]
    return cli.GoldenReport(not messages, False, messages)


def _numeric_cell(lines: list[str], row: int) -> int:
    """The last column of body line `row` (0 is the first data line) whose cell is a number."""
    cells = lines[row].split(",")
    return max(j for j, c in enumerate(cells) if c.lstrip("-")[:1].isdigit())


def _edit_cell(lines: list[str], row: int, j: int, text) -> list[str]:
    cells = lines[row].split(",")
    cells[j] = text(cells[j])
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


def _golden_variants(text: str) -> dict[str, str]:
    """The golden text modified in the ways a hand-kept or foreign golden differs."""
    lines = text.splitlines()
    header, body = lines[0], lines[1:]
    mid, last = len(body) // 2, len(body) - 1
    j = _numeric_cell(body, mid)
    col = header.split(",")[j]
    moved = _edit_cell(body, mid, j, lambda c: f"{float(c) + 1e-7:.17g}")
    moved = _edit_cell(moved, last, _numeric_cell(body, last), lambda c: f"{float(c) + 1e-3:.17g}")
    integers = re.compile(r"(?<![^,])(-?\d+)(?![^,])")
    variants = {
        "crlf": text.replace("\n", "\r\n"),
        "blank": [header, "", *body[:mid], "  \t", *body[mid:], "", " "],
        "tolerance": [f"# tolerance {col} 1e-9 0", "# a comment", header, *body],
        "moved": [f"# tolerance {col} 1e-6 0", header, *moved],
        "minus_zero": [header, *(re.sub(r"(?<![^,])0(?![^,])", "-0", line) for line in body)],
        "integers_as_floats": [header, *(integers.sub(r"\1.0", line) for line in body)],
        "text_cell": [header, *_edit_cell(body, mid, j, lambda c: "oops")],
        "ragged": [header, *body[:mid], body[mid] + ",1", *body[mid + 1:]],
        "no_header": [f"# tolerance {col} 1e-9 0", " ", *body],
        "header_mismatch": [header.replace(col, col + "2"), *body],
        "row_count": [header, *body[:-1]],
        "extra_row": [header, *body, body[-1]],
        # str.splitlines splits at a form feed, so the header text after it is a line
        "form_feed": [f"# a comment\f{header}", header, *body],
        "negative_tolerance": [f"# tolerance {col} -1 0", header, *body],
        "nan_tolerance": [f"# tolerance {col} nan 0", header, *body],
    }
    return {k: v if isinstance(v, str) else "\n".join(v) + "\n" for k, v in variants.items()}


@pytest.mark.parametrize("config", sorted(p.name for p in DATA.glob("*.json")))
def test_golden_check_matches_the_full_parse_reference(config, tmp_path, monkeypatch):
    cfg = cli.load_config(DATA / config)
    fresh = cli.compute(cfg)
    monkeypatch.setattr(cli, "compute", lambda _: fresh)  # one computation for every variant
    pinned = DATA / config.replace(".json", ".csv")
    variants = {"pinned": pinned.read_text(), **_golden_variants(pinned.read_text())}
    for name, text in variants.items():
        golden = tmp_path / f"{name}.csv"
        golden.write_bytes(text.encode())
        assert cli.verify_golden(cfg, golden) == _full_parse_report(cfg, golden), name
    assert _full_parse_report(cfg, pinned).ok


@pytest.mark.parametrize("fresh_columns, golden", [
    # inf never matches inf, nan matches nan, and a tolerance of the wrong sign or nan matches
    # nothing but nan
    ([[1.0, np.inf, -np.inf, np.nan, 0.0]],
     "# tolerance v 1e-9 1\nv\n1\ninf\n-inf\nnan\n0\n"),
    ([[1.0, np.inf, -np.inf, np.nan, 0.0]], "# tolerance v -1 0\nv\n1\ninf\n-inf\nnan\n0\n"),
    ([[1.0, np.inf, -np.inf, np.nan, 0.0]], "# tolerance v nan 0\nv\n1.0\ninf\n-inf\nnan\n0\n"),
    # a text column whose golden cells all read as numbers is compared as their str()
    ([["1", "2.5", "1e5", "inf"], [1, 2, 3, 4]], "label,v\n1,1\n2.5,2\n1e5,3\ninf,4\n"),
    ([[" 2.5", "1_0", "nan", "-0"], [1, 2, 3, 4]], "label,v\n 2.5,1\n1_0,2\nnan,3\n-0,4\n"),
    ([["1", "2.5", "1e5", "inf"], [1, 2, 3, 4]], "label,v\n1,1\n2.5,2\n1e5,3.0\ninf,4\n"),
    ([["1", "2.5", "1e5", "inf"], [1, 2, 3, 4]], "label,v\n1,1\n2.5,2\nx,3\ninf,4\n"),
    ([["1", "a", "1e5"], [1, 2, 3]], "label,v\n1,1\n2.5,2\n1e5,3\n"),
])
def test_golden_check_of_special_fresh_cells_matches_the_reference(
        fresh_columns, golden, tmp_path, monkeypatch):
    header = ("v",) if len(fresh_columns) == 1 else ("label", "v")
    table = CsvTable(header, fresh_columns)
    monkeypatch.setattr(cli, "compute", lambda _: (table, {}))
    cfg = RunConfig("verify", {})
    rendered = table.to_text()
    for text in (golden, rendered):
        path = tmp_path / "golden.csv"
        path.write_text(text)
        if text == rendered:  # the fresh rendering passes on its bytes
            assert cli.verify_golden(cfg, path) == cli.GoldenReport(True, False, [])
        else:
            assert cli.verify_golden(cfg, path) == _full_parse_report(cfg, path)


@pytest.mark.parametrize("columns", [[[1.0, np.inf, np.nan]], [["1", "2.5", "-0"]]])
def test_golden_equal_to_the_rendering_passes_on_its_bytes(columns, tmp_path, monkeypatch):
    # inf, and text labels that all read as numbers, would mismatch once parsed
    table = CsvTable(("v",), columns)
    monkeypatch.setattr(cli, "compute", lambda _: (table, {}))
    path = tmp_path / "golden.csv"
    table.write(path)
    assert cli.verify_golden(RunConfig("verify", {}), path) == cli.GoldenReport(True, False, [])


def test_bad_golden_layout_is_reported_even_where_compute_raises(tmp_path, monkeypatch):
    def fail(_):
        raise NumericalConsistencyError("no table")

    monkeypatch.setattr(cli, "compute", fail)
    cfg = RunConfig("verify", {})
    path = tmp_path / "golden.csv"
    for text in ("# only a comment\n", "a,b\n1,2\n3\n", "\n\na,b\n"):
        path.write_text(text)
        report = cli.verify_golden(cfg, path)
        assert report.structural and report == _full_parse_report(cfg, path)
    path.write_text("a,b\n1,2\n")
    with pytest.raises(NumericalConsistencyError, match="no table"):
        cli.verify_golden(cfg, path)
    path.write_bytes(b"a,b\n1,2\n\xff\n")  # not UTF-8: raised as before, not a layout error
    with pytest.raises(UnicodeDecodeError):
        cli.verify_golden(cfg, path)


@pytest.mark.parametrize("config", sorted(p.name for p in DATA.glob("*.json")))
def test_matched_golden_is_never_parsed(config, monkeypatch):
    calls, reads = [], []
    parse, read = cli._parse_column, cli.read_csv_table
    monkeypatch.setattr(cli, "_parse_column", lambda cells: calls.append(cells) or parse(cells))
    monkeypatch.setattr(cli, "read_csv_table", lambda path: reads.append(path) or read(path))
    report = cli.verify_golden(cli.load_config(DATA / config), DATA / config.replace(".json", ".csv"))
    assert report.ok and calls == [] and reads == []


def test_golden_check_peak_memory_is_bounded_by_the_file_and_the_columns(tmp_path):
    cfg = cli.parse_config(json.dumps(FULL_SIZE["transform"][0]))
    table, _ = cli.compute(cfg)
    column_bytes = sum(col.nbytes for col in table.columns)
    golden = tmp_path / "transform.csv"
    table.write(golden)
    del table
    tracemalloc.start()
    try:
        report = cli.verify_golden(cfg, golden)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak <= golden.stat().st_size + 4 * column_bytes


@pytest.mark.parametrize("flags", [["--out", "o.csv"], ["--emit-plot"],
                                   ["--out", "o.csv", "--emit-plot"], []])
def test_golden_with_an_output_flag_is_one_config_error(flags, tmp_path, capsys, monkeypatch):
    config = DATA / "tunnel.json"
    if not flags:  # the config's own "out" names the file instead
        config = tmp_path / "config" / "tunnel.json"
        config.parent.mkdir()
        config.write_text(json.dumps({**json.loads((DATA / "tunnel.json").read_text()),
                                      "out": "o.csv"}))
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    argv = ["tunnel", "--config", str(config), "--golden", str(DATA / "tunnel.csv")]
    assert cli.main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("configuration error: --golden ")
    assert list(run.iterdir()) == []  # nothing written


@pytest.mark.parametrize("name", ["missing.csv", "directory"])
def test_golden_path_that_is_not_a_file_is_structural(name, tmp_path, capsys):
    (tmp_path / "directory").mkdir()
    golden = tmp_path / name
    cfg = cli.load_config(DATA / "tunnel.json")
    message = f"golden file not found: {golden}"
    assert cli.verify_golden(cfg, golden) == cli.GoldenReport(False, True, [message])
    assert cli.main(["tunnel", "--config", str(DATA / "tunnel.json"), "--golden", str(golden)]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TUNNEL_CFG, "t_steps": 10}))
    out_path = tmp_path / "out.csv"
    assert cli.main(["tunnel", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert out_path.exists()

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"command": "tunnel", "omega": -1, "a": -5,
                                   "p0": 4, "t_max": 15}))
    assert cli.main(["tunnel", "--config", str(bad_cfg)]) == 2

    missing = tmp_path / "nope.json"
    assert cli.main(["tunnel", "--config", str(missing)]) == 2

    # golden comparison through the CLI: pass -> 0, mismatch -> 1
    golden = tmp_path / "golden.csv"
    table = cli.run(cli.parse_config(cfg_path.read_text()))
    table.tolerances = {"P": (1e-9, 0.0)}
    table.write(golden)
    assert cli.main(["tunnel", "--config", str(cfg_path), "--golden", str(golden)]) == 0
    text = golden.read_text().splitlines()
    cells = text[3].split(",")
    cells[2] = f"{float(cells[2]) + 5e-3:.17g}"
    text[3] = ",".join(cells)
    golden.write_text("\n".join(text) + "\n")
    assert cli.main(["tunnel", "--config", str(cfg_path), "--golden", str(golden)]) == 1


PLOT_GUIDES = {
    "transform": "x (col 1) vs xi (col 2), value W (col 3); plot as a heatmap",
    "propagate": "per fixed t (col 1): x (col 2) vs xi (col 3), value W (col 4)",
    "gaussian": "per fixed t (col 1): x (col 2) on the abscissa, density (col 3)",
    "tunnel": "per fixed p0 (col 1): t (col 2) on the abscissa, P (col 3)",
    "eigen": "n (col 1) on the abscissa, E (col 2)",
    "verify": "tabular report; nothing to plot",
}


@pytest.mark.parametrize("config", sorted(p.name for p in DATA.glob("*.json")))
def test_main_emit_plot(config, tmp_path):
    command = json.loads((DATA / config).read_text())["command"]
    out_path = tmp_path / "table.csv"
    assert cli.main([command, "--config", str(DATA / config), "--out", str(out_path),
                     "--emit-plot"]) == 0
    header = cli.read_csv_table(DATA / config.replace(".json", ".csv")).header
    assert out_path.with_suffix(".plot.txt").read_text() == (
        "# plotting guide (tool-agnostic); data columns refer to the CSV next to this file\n"
        f"# command: {command}\n# columns: {', '.join(header)}\n# {PLOT_GUIDES[command]}\n"
    )


def test_main_command_config_mismatch(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TUNNEL_CFG, "t_steps": 5}))
    assert cli.main(["eigen", "--config", str(cfg_path)]) == 2


def test_render_includes_out_path():
    cfg = RunConfig("verify", {}, "somewhere.csv")
    rendered = json.loads(cfg.render())
    assert rendered == {"command": "verify", "out": "somewhere.csv"}


# Each state and drive kind's config keys: (its required keys with a JSON value, its canonical
# form but kind, with every other key at its default).  A change to a constructor's signature
# changes the CLI's keys too, and fails here.
STATE_KEYS = {
    "box": ({"R": 2}, {"R": 2.0}),
    "gauss_general": ({"a1": 3}, {"a1": 3.0, "a2": 0.0, "b1": 0.0, "b2": 0.0, "c1": 0.0,
                                  "c2": 0.0}),
    "coherent": ({}, {"a": 0.0, "p0": 0.0}),
    "hermite": ({"n": 3}, {"n": 3, "normalized": True}),
    "free_gaussian": ({}, {"t": 0.0}),
    "delta_bound": ({"gamma": -1}, {"gamma": -1.0}),
    "soliton": ({"nu": -2}, {"nu": -2.0}),
    "harmonic_eigen": ({"n": 2}, {"n": 2, "omega": 1.0, "normalized": True}),
}
DRIVE_KEYS = {
    "constant": ({}, {"lambda": 0.0}),
    "cosine": ({"b": 1, "Omega": 2}, {"lambda": 0.0, "b": 1.0, "Omega": 2.0}),
    "tabulated": ({"times": [0, 1], "values": [1, -2]}, {"times": [0.0, 1.0],
                                                          "values": [1.0, -2.0]}),
}
SCHEMA_CASES = ([("state", kind, *keys) for kind, keys in STATE_KEYS.items()]
                + [("drive", kind, *keys) for kind, keys in DRIVE_KEYS.items()])


def _schema_config(name: str, fields: dict) -> dict:
    """A propagate config whose state or drive (name) is fields."""
    cfg = json.loads((DATA / "propagate.json").read_text())
    cfg[name] = fields
    return cfg


@pytest.mark.parametrize("name, kind, required, canonical", SCHEMA_CASES,
                         ids=[case[1] for case in SCHEMA_CASES])
def test_config_schema_of_each_state_and_drive_kind(name, kind, required, canonical):
    given = {"kind": kind, **required}
    parsed = cli.parse_config(json.dumps(_schema_config(name, given))).params[name]
    # JSON text tells 1 from 1.0 and true from 1, so this compares the JSON types too
    assert json.dumps(parsed, sort_keys=True) == json.dumps({"kind": kind, **canonical},
                                                            sort_keys=True)
    for key in required:
        fields = {k: v for k, v in given.items() if k != key}
        with pytest.raises(ConfigParseError) as err:
            cli.parse_config(json.dumps(_schema_config(name, fields)))
        assert str(err.value) == f"propagate.{name}.{key}: missing required key"
    # hbar is the command's key, and a drive's lam is spelled lambda
    for extra in ("bogus", "hbar" if name == "state" else "lam"):
        with pytest.raises(ConfigParseError) as err:
            cli.parse_config(json.dumps(_schema_config(name, {**given, extra: 1})))
        assert str(err.value) == f"propagate.{name}.{extra}: unknown key"


# (command, a change to its pinned config, the start of the one error line): each is a rule of
# the object the CLI builds, or a count past 2**53, found when the config is parsed
REJECTED_AT_PARSE = [
    ("transform", {"grid": {"half_width": 8.0, "count": 10**400}},
     "transform.grid.count: must be <= 9007199254740992, got 1000"),
    ("transform", {"state": {"kind": "hermite", "n": 61}},
     "transform.state: n must be an integer >= 0 and <= 60, got 61"),
    ("transform", {"state": {"kind": "harmonic_eigen", "n": 70}},
     "transform.state: n must be an integer >= 0 and <= 60, got 70"),
    ("transform", {"state": {"kind": "box", "R": -1}},
     "transform.state: R must be finite and > 0, got -1.0"),
    ("transform", {"grid": {"x_min": -1e308, "x_max": 1e308}},
     "transform.grid: step must be finite and > 0, got inf"),
    ("transform", {"grid": {"x_min": 1.0, "x_max": -1.0}}, "transform.grid: need x_max > x_min"),
    ("propagate", {"drive": {"b": 0.5, "Omega": 1e160}}, "propagate.drive: Omega^2"),
    ("propagate", {"drive": {"kind": "tabulated", "times": [0.0, 2.0, 1.0], "values": [0, 1, 2]}},
     "propagate.drive: tabulated drive needs finite samples, rising times"),
    ("propagate", {"drive": {"kind": "tabulated", "times": [0.0], "values": [1.0]}},
     "propagate.drive: tabulated drive needs matching 1-D arrays of length >= 2"),
    ("propagate", {"xi": {"xi_max": 5.0, "count": 4}},
     "propagate.xi: symmetric xi grid needs an odd node count, got 4"),
    ("propagate", {"xi": {"xi_max": 5.0, "count": 10**400 + 1}},
     "propagate.xi.count: must be <= 9007199254740992, got 1000"),
    ("tunnel", {"t_steps": 2**63},
     "tunnel.t_steps: must be <= 9007199254740992, got 9223372036854775808"),
    ("eigen", {"sample_count": 2**63}, "eigen.sample_count: must be <= 9007199254740992"),
    ("eigen", {"n_max": 10**400}, "eigen.n_max: must be <= 9007199254740992"),
    ("eigen", {"n_max": 61}, "eigen.n_max: n must be an integer >= 0 and <= 60, got 61"),
]


@pytest.mark.parametrize("command, change, message", REJECTED_AT_PARSE)
def test_object_rules_and_count_ceiling_are_parse_errors(command, change, message, tmp_path,
                                                         capsys, monkeypatch):
    cfg = {**json.loads((DATA / f"{command}.json").read_text()), **change}
    with pytest.raises(ConfigParseError) as err:
        cli.parse_config(json.dumps(cfg))
    assert str(err.value).startswith(message)

    def no_compute(_):
        raise AssertionError("computed a config that does not parse")

    monkeypatch.setattr(cli, "compute", no_compute)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"configuration error: {err.value}"]


def test_an_integer_past_the_digit_limit_is_a_configuration_error(tmp_path, capsys):
    # json.loads (and json.dumps) raise a plain ValueError past Python's integer-string limit
    cfg = json.dumps({**TUNNEL_CFG, "t_steps": "@"}).replace('"@"', "1" * 5001)
    with pytest.raises(ConfigParseError, match=r"^config: .*digits"):
        cli.parse_config(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg)
    assert cli.main(["tunnel", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: config: ")


def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    def too_large(_):
        raise MemoryError("Unable to allocate 16.0 GiB for an array with shape (2147483649,)")

    monkeypatch.setattr(cli, "compute", too_large)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TUNNEL_CFG, "t_steps": 2147483648}))
    assert cli.main(["tunnel", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: Unable to allocate 16.0 GiB for an array with shape (2147483649,)"]
