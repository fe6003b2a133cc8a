"""The package root: its import-time heap pin and nothing else; and a
lint over the package's sources: no unused import, no unused top-level
function or class, method or property, and no parameter default that
every call leaves in place."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
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
SOURCES = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
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
    for path in SOURCES:
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


# parameter defaults that no call in src/ or perfbench/ overrides, each kept for a reason
UNSET_DEFAULTS_KEPT = {
    ("reference_min_dcf", "p_target"): "the brute-force minDCF oracle, which tests "
                                       "compare at several priors",
    ("full_graph_grad_check", "mode"): "the acceptance gate checks the houlsby graph, "
                                       "whose MHSA adapters no other mode has",
}


def _trees():
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _methods(tree):
    """(class, function) for each function defined in a class body."""
    return [(cls, fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)]


def test_every_method_and_property_is_referenced():
    """Each method or property of a package class, dunders aside, is named
    (as a name or an attribute) in src/ or perfbench/ outside its own
    definition."""
    trees = _trees()
    refs = defaultdict(list)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                refs[n.id if isinstance(n, ast.Name) else n.attr].append(n)
    unreferenced = []
    for path in PACKAGE:
        for cls, fn in _methods(trees[path]):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            own = {id(n) for n in ast.walk(fn)}
            if all(id(n) in own for n in refs[fn.name]):
                unreferenced.append(f"{path.name}:{cls.name}.{fn.name}")
    assert unreferenced == []


def _sets(call, name, position):
    """Whether the call passes the parameter: by keyword, through `**`, or
    by position (a `*` argument at or before the position counts)."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and any(
        i == position or isinstance(a, ast.Starred) for i, a in enumerate(call.args[:position + 1]))


def test_every_defaulted_parameter_is_set_by_a_call():
    """Each parameter with a default, of a package function or method, is
    set by some call in src/ or perfbench/ to a callee of that name; a
    class call is a call of its `__init__`."""
    trees = _trees()
    calls = defaultdict(list)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls[n.func.id if isinstance(n.func, ast.Name) else n.func.attr].append(n)
    unset = []
    for path in PACKAGE:
        tree = trees[path]
        owner = {id(fn): cls for cls, fn in _methods(tree)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            callee = cls.name if cls and fn.name == "__init__" else fn.name
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = [(a.arg, i - bound) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            qualname = f"{cls.name}.{fn.name}" if cls else fn.name
            unset += [(path.name, qualname, name) for name, position in defaulted
                      if not any(_sets(c, name, position) for c in calls[callee])]
    assert [f"{p}:{f}({a})" for p, f, a in unset if (f, a) not in UNSET_DEFAULTS_KEPT] == []
    assert {(f, a) for _p, f, a in unset} >= set(UNSET_DEFAULTS_KEPT)
