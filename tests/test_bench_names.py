"""The benchmark under perfbench/ finds every library name it looks up.

The tracer wraps functions where their callers look them up and the workloads
call the library through module attributes, so a refactor that drops or moves
one of those names would otherwise surface only as an error in every benchmark
run.
"""

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer, workloads  # noqa: E402


def test_tracer_wraps_every_target_and_restores_every_attribute():
    before = tracer.snapshot_attributes()
    with tracer.Tracer():
        for owner, attr, name, _ in tracer.targets():
            assert vars(owner)[attr] is not before[owner][attr], (owner, attr, name)
    after = tracer.snapshot_attributes()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        assert [k for k, v in attrs.items() if after[owner][k] is not v] == [], owner


def test_every_library_attribute_the_workloads_use_exists():
    tree = ast.parse(Path(workloads.__file__).read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    modules = {
        name: module for name, module in vars(workloads).items()
        if isinstance(module, types.ModuleType) and module.__name__.startswith("wignerflow")
    }
    assert {"catalog", "gaussian", "tunneling"} <= modules.keys()
    missing = [f"{m}.{a}" for m, a in sorted(used) if m in modules and not hasattr(modules[m], a)]
    assert missing == []
