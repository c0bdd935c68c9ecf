"""The layers perfbench traces still exist in the package.

perfbench/tracing.py wraps `(module, attr)` names from outside the package
and reports a boundary it cannot find as missing, so a refactor that
renames or removes a traced name silently drops a layer from the
benchmark.  This test reads the boundary table without importing perfbench.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"{TRACING} defines no BOUNDARIES")


def test_every_traced_boundary_resolves():
    names = traced_names()
    assert names
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
