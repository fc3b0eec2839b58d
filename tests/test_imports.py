"""No cavforge module imports another module's private names."""

import ast
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
