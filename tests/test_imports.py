"""No cavforge module imports another module's private names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cavforge

SRC = Path(cavforge.__file__).resolve().parent


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "cavforge"
        # ``from . import _kernels`` names a module, not a private member
        if not internal or node.module in (None, "cavforge"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno}: from {'.' * node.level}" \
                      f"{node.module} import {alias.name}"


def test_no_module_imports_another_modules_private_names():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    offenders = [hit for path in sources for hit in _private_imports(path)]
    assert offenders == []


def test_the_guard_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from . import _kernels\nfrom .pipeline import _Roles\n")
    assert list(_private_imports(bad)) == ["bad.py:2: from .pipeline import _Roles"]


def test_the_program_does_not_import_scipy_optimize():
    # The probe refinement is cavforge's own Nelder-Mead (align._nelder_mead);
    # SciPy's optimizer is a test reference only.
    code = ("import sys, cavforge.cli, cavforge.trials; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    src = str(SRC.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
