"""Module boundaries: no module imports a private name from a sibling."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "batchq"
MODULES = sorted(SRC.glob("*.py"))


def test_sources_found():
    assert {"cli.py", "queue_core.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    private = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        sibling = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "batchq")
        if sibling:
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert private == [], f"{path.name} imports private names {private}"
