"""CLI: config parsing, CSV output, golden comparison, determinism."""

import json
import math

import pytest

from wignerflow import cli
from wignerflow.cli import ConfigParseError, CsvTable, RunConfig


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
    table = CsvTable(("a", "b"), [(1.0 / 3.0, "text")])
    text = table.to_text()
    assert text == "a,b\n0.33333333333333331,text\n"


def test_csv_rejects_ragged_rows():
    with pytest.raises(Exception):
        CsvTable(("a", "b"), [(1.0,)])


def test_determinism_byte_identical(tmp_path):
    cfg = cli.parse_config(json.dumps({**TUNNEL_CFG, "t_steps": 50}))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cli.run(cfg, out_path=p1)
    cli.run(cfg, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


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


def test_golden_schema_mismatch_is_structural(tmp_path):
    cfg = cli.parse_config(json.dumps({**TUNNEL_CFG, "t_steps": 5}))
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("alpha,beta\n1,2\n")
    report = cli.verify_golden(cfg, wrong)
    assert report.structural and not report.ok


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


def test_main_emit_plot(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TUNNEL_CFG, "t_steps": 5}))
    out_path = tmp_path / "curve.csv"
    assert cli.main(["tunnel", "--config", str(cfg_path), "--out", str(out_path),
                     "--emit-plot"]) == 0
    plot = out_path.with_suffix(".plot.txt")
    assert plot.exists()
    assert "p0" in plot.read_text()


def test_main_command_config_mismatch(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TUNNEL_CFG, "t_steps": 5}))
    assert cli.main(["eigen", "--config", str(cfg_path)]) == 2


def test_render_includes_out_path():
    cfg = RunConfig("verify", {}, "somewhere.csv")
    rendered = json.loads(cfg.render())
    assert rendered == {"command": "verify", "out": "somewhere.csv"}
