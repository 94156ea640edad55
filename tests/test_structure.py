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


def _module(path: Path) -> str:
    """The name a file's module is imported by: its stem, or its package's for ``__init__``."""
    return path.parent.name if path.stem == "__init__" else path.stem


def _names_used(path: Path) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """A file's bare names, the attributes it uses, and the (module, name) pairs it imports."""
    bare, attrs, imported = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Import):
            imported |= {tuple(a.name.rpartition(".")[::2]) for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            # "from . import x" imports from the importing file's own package
            source = (node.module or path.parent.name).rpartition(".")[2]
            imported |= {(source, a.name) for a in node.names}
    return bare, attrs, imported


def _exported(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _unused(modules: list[Path], callers: list[Path]) -> list[str]:
    """Names in the ``__all__`` of ``modules`` that no file of ``modules + callers`` uses.

    Attributes count wherever they are.  An import counts only for the
    module it imports from, so importing a name from where it is defined
    does not use a re-export of it.  A bare name counts only in the module
    that defines the exported name: elsewhere it is another binding (a
    parameter, a local) unless that file imports the name, and the import
    counts already.  A definition and its ``__all__`` entry are not uses.
    """
    used = {path: _names_used(path) for path in modules + callers}
    attrs = set().union(*(a for _, a, _ in used.values()))
    imported = set().union(*(i for _, _, i in used.values()))
    return [f"{p.stem}.{name}" for p in modules for name in _exported(p)
            if name not in attrs and (_module(p), name) not in imported
            and name not in used[p][0]]


def test_every_exported_name_has_a_caller_in_the_library_or_the_benchmark():
    # a name only tests use is not part of the library's surface
    unused = _unused(MODULES, sorted((SRC.parent.parent / "perfbench").glob("*.py")))
    assert unused == [], f"exported names with no caller in src/ or perfbench/: {unused}"


def test_a_parameter_of_an_exported_name_is_not_a_caller(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text('__all__ = ["cdf", "sf"]\ndef cdf(x): return 1 - sf(x)\ndef sf(x): return x\n')
    user.write_text("def ks(samples, cdf): return max(cdf(x) for x in samples)\n")
    assert _unused([lib, user], []) == ["lib.cdf"]
    for use in ("from lib import cdf\n", "import lib\nlib.cdf(0)\n"):
        user.write_text(use)
        assert _unused([lib, user], []) == []


def test_an_import_counts_only_for_the_module_it_imports_from(tmp_path):
    lib, reexport, user = tmp_path / "lib.py", tmp_path / "reexport.py", tmp_path / "user.py"
    lib.write_text('__all__ = ["sf"]\ndef sf(x): return x\n')
    reexport.write_text('__all__ = ["sf"]\nfrom lib import sf\n')
    user.write_text("from lib import sf\n")
    assert _unused([lib, reexport, user], []) == ["reexport.sf"]
    user.write_text("from reexport import sf\n")
    assert _unused([lib, reexport, user], []) == []


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
