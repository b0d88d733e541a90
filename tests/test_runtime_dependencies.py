"""The library needs only NumPy at run time (pyproject.toml lists no other dependency).

A fresh interpreter blocks the test-only packages from import, then imports wignerflow,
evaluates the closed forms that replaced quadratures, runs a transform and writes the pinned
tunnel table through the CLI.
"""

import pathlib
import subprocess
import sys

import wignerflow as wf

DATA = pathlib.Path(__file__).parent / "data" / "cli"

SCRIPT = r"""
import sys

TEST_ONLY = {"scipy", "mpmath", "hypothesis"}


class TestOnlyBlocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in TEST_ONLY:
            raise ImportError(f"{name} is a test-only dependency")
        return None


sys.meta_path.insert(0, TestOnlyBlocker())
source, config, out = sys.argv[1:]
sys.path.insert(0, source)

import wignerflow as wf
from wignerflow import cli

assert wf.box_l1_growth(1.0, 2.0, 1e4) > 0.0
assert len(wf.delta_stationary_residual(-2.0, 1.0, (0.7, 0.3))) == 2
grid = wf.Grid1D.symmetric(4.0, 33)
wf.wigner_transform(wf.sample_catalog_state(wf.GaussGeneral(4.0), grid), wf.natural_grid(grid, 1.0))
status = cli.main(["tunnel", "--config", config, "--out", out])
loaded = TEST_ONLY.intersection(name.partition(".")[0] for name in sys.modules)
assert not loaded, loaded
sys.exit(status)
"""


def test_the_library_runs_without_the_test_only_packages(tmp_path):
    source = str(pathlib.Path(wf.__file__).resolve().parent.parent)
    out = tmp_path / "tunnel.csv"
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, source, str(DATA / "tunnel.json"), str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in ("tunnel.csv", "tunnel.summary.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
