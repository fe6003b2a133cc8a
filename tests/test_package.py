"""The package root: its import-time heap pin and nothing else; and a
lint over the package's sources: no unused import, no unused top-level
function or class."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import svadapt


def test_import_loads_no_submodule_and_no_numpy():
    src = str(Path(svadapt.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, svadapt\n"
            "print(sorted(m for m in sys.modules if m.startswith(('svadapt.', 'numpy'))))\n"
            "print(type(svadapt.HEAP_KEPT).__name__)")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "bool"]


def _refuses_trim(param, value):
    return int(param != svadapt._M_TRIM_THRESHOLD)


def _no_libc(name):
    raise OSError("no libc")


@pytest.mark.parametrize("cdll", [
    lambda name: SimpleNamespace(),
    lambda name: SimpleNamespace(mallopt=lambda param, value: 0),
    lambda name: SimpleNamespace(mallopt=_refuses_trim),
    _no_libc,
], ids=["no-mallopt", "refuses-all", "refuses-trim", "no-libc"])
def test_heap_pin_falls_back_to_false(monkeypatch, cdll):
    monkeypatch.setattr(svadapt.ctypes, "CDLL", cdll)
    assert svadapt._keep_freed_heap() is False


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "svadapt").glob("*.py"))
# top-level names that nothing in src/ or perfbench/ uses, each kept for a reason
UNREFERENCED_KEPT = {
    "read_scores": "reads the score files `eval --scores-out` writes",
    "mean_frame_classifier_accuracy": "the corpus learnability oracle, for held-out "
                                      "reference rows and a harder desk corpus",
}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def test_every_top_level_function_and_class_is_referenced():
    """Each is named (as a name or an attribute) in src/ or perfbench/
    outside its own definition."""
    uses, defined = [], []
    for path in PACKAGE + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and path in PACKAGE:
                defined.append((path, own))
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            uses.append((path, own, names))
    unreferenced = [f"{path.name}:{name}" for path, name in defined
                    if name not in UNREFERENCED_KEPT and not any(
                        name in names for p, own, names in uses if (p, own) != (path, name))]
    assert unreferenced == []
    assert {name for _path, name in defined} >= set(UNREFERENCED_KEPT)
