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


def _names_used(path: Path) -> set[str]:
    """Every name a file uses: loaded names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def _exported(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def test_every_exported_name_has_a_caller_in_the_library_or_the_benchmark():
    # a name only tests use is not part of the library's surface (its
    # definition and its __all__ entry are not uses)
    callers = SRC.parent.parent / "perfbench"
    used = set().union(*map(_names_used, MODULES + sorted(callers.glob("*.py"))))
    unused = [f"{p.stem}.{name}" for p in MODULES for name in _exported(p) if name not in used]
    assert unused == [], f"exported names with no caller in src/ or perfbench/: {unused}"


def test_verify_family_table_is_the_single_source():
    from batchq import verify

    tree = ast.parse((SRC / "verify.py").read_text())
    defined = [n.name.removeprefix("check_") for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name.startswith("check_")]
    families = [family for family, _, _ in verify.FAMILIES]
    assert sorted(families) == sorted(defined), "each check_* function is one FAMILIES row"
    assert all(callable(getattr(verify, "check_" + family)) for family in families)
    suites = [suite for _, suite, _ in verify.FAMILIES]
    assert verify.SUITES == tuple(dict.fromkeys(suites)) + ("all",)
    # a suite's rows are contiguous, so the "all" report is the suites' reports in order
    assert suites == sorted(suites, key=verify.SUITES.index)
    indices = [index for _, _, index in verify.FAMILIES if index is not None]
    assert len(set(indices)) == len(indices), "two families share a seed"


def test_only_the_worker_helper_forks():
    forking, pools = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "fork"
                    and getattr(node.value, "id", None) == "os"):
                forking.append(path.name)
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            pools += [f"{path.name}: {n}" for n in names
                      if n.split(".")[0] in ("multiprocessing", "concurrent")]
    assert sorted(set(forking)) == ["workers.py"]
    assert pools == [], "worker pools are the fork helper's job"
