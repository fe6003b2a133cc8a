"""The package root: its import-time heap pin and nothing else."""

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
