"""No cavforge module imports another module's private names, or a name it
never uses, no memo grows without bound, and SciPy loads only on demand."""

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


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                yield f"{path.name}:{node.lineno}: {name}"


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    offenders = [hit for path in sources for hit in _unused_imports(path)]
    assert offenders == []


def test_the_guard_sees_an_unused_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from __future__ import annotations\n"
                   "import math\n"
                   "import numpy as np\n"
                   "import os.path\n"
                   "from .simcore import knob_readings, set_knob_readings\n"
                   "from .align import bayesian_optimize\n"
                   "__all__ = ['bayesian_optimize']\n"
                   "print(np.pi, os.sep, knob_readings)\n")
    assert list(_unused_imports(bad)) == ["bad.py:2: math",
                                          "bad.py:5: set_knob_readings"]


def _unused_helpers(paths):
    # the names each top-level statement of each module refers to
    refs = {}
    defs = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for k, stmt in enumerate(tree.body):
            refs[path, k] = {n.id if isinstance(n, ast.Name) else n.attr
                             for n in ast.walk(stmt)
                             if isinstance(n, (ast.Name, ast.Attribute))}
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                defs.append((path, k, stmt))
    for path, k, stmt in defs:
        # a use inside its own definition, such as recursion, does not count
        if not any(stmt.name in names for key, names in refs.items() if key != (path, k)):
            yield f"{path.name}:{stmt.lineno}: {stmt.name}"


def test_every_private_helper_is_used():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    assert list(_unused_helpers(sources)) == []


def test_the_guard_sees_an_unused_helper(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("def _used():\n    pass\n\n\n"
                 "def _helper(n):\n    return _helper(n - 1) if n else _used()\n\n\n"
                 "class _Seen:\n    pass\n")
    b = tmp_path / "b.py"
    b.write_text("from . import a\nprint(a._Seen)\n")
    assert list(_unused_helpers([a, b])) == ["a.py:5: _helper"]


# functools.cache is unbounded: only a function of a small finite domain may
# use it. _stencil takes the search dimension.
_UNBOUNDED_CACHE_ALLOWED = {("align.py", "_stencil")}


def _unbounded_caches(path):
    """Each ``functools.lru_cache`` without a positive integer ``maxsize``
    (a literal, or a module constant bound to one), and each
    ``functools.cache`` outside the allow-list."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Constant)
                 and type(node.value.value) is int and node.value.value > 0
                 for t in node.targets if isinstance(t, ast.Name)}
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}

    def is_(node, name):
        if isinstance(node, ast.Attribute):
            return (node.attr == name and isinstance(node.value, ast.Name)
                    and node.value.id == "functools")
        return isinstance(node, ast.Name) and node.id == name and name in imported

    def bounded(call):
        sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
        return len(sizes) == 1 and (
            isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
            and sizes[0].value > 0
            or isinstance(sizes[0], ast.Name) and sizes[0].id in constants)

    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    allowed = {id(dec) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and (path.name, node.name) in _UNBOUNDED_CACHE_ALLOWED
               for dec in node.decorator_list}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and is_(node.func, "lru_cache"):
            if not bounded(node):
                yield f"{path.name}:{node.lineno}: lru_cache without an integer maxsize"
        elif is_(node, "lru_cache") and id(node) not in called:
            yield f"{path.name}:{node.lineno}: lru_cache without an integer maxsize"
        elif is_(node, "cache") and id(node) not in allowed:
            yield f"{path.name}:{node.lineno}: functools.cache"


def test_every_memo_is_bounded():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    assert [hit for path in sources for hit in _unbounded_caches(path)] == []


def test_the_guard_sees_an_unbounded_memo(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import functools\n"
                   "from functools import lru_cache\n"
                   "_SIZE = 8\n"
                   "_NONE = None\n"
                   "@functools.lru_cache(maxsize=None)\n"
                   "def a(x): return x\n"
                   "@functools.lru_cache(maxsize=_SIZE)\n"
                   "def b(x): return x\n"
                   "@lru_cache\n"
                   "def c(x): return x\n"
                   "@functools.cache\n"
                   "def _stencil(d): return d\n"
                   "@functools.lru_cache(16)\n"
                   "def e(x): return x\n"
                   "f = functools.lru_cache(maxsize=_NONE)(len)\n")
    assert list(_unbounded_caches(bad)) == [
        "bad.py:5: lru_cache without an integer maxsize",
        "bad.py:9: lru_cache without an integer maxsize",
        "bad.py:11: functools.cache",
        "bad.py:15: lru_cache without an integer maxsize"]


def test_the_program_does_not_import_scipy_optimize():
    # The probe refinement is cavforge's own stencil search, so artifacts do
    # not depend on the installed SciPy's optimizer.
    code = ("import sys, cavforge.cli, cavforge.trials; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    src = str(SRC.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


# SciPy takes about 0.4 s to import and only the GP search uses it: the one
# place that may load it is the GP's loader, run on the search's first use.
_SCIPY_LOADER = ("align.py", "_load_scipy")


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def _scipy_outside_the_loader(path):
    """Each import of SciPy, ``scipy`` name or ``"scipy..."`` string outside
    the loader: at module level, in another function, or by ``importlib``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and (path.name, top.name) == _SCIPY_LOADER
              for node in ast.walk(top)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        for name in filter(_is_scipy, names):
            yield f"{path.name}:{node.lineno}: {name}"


def test_scipy_loads_only_in_the_gp_loader():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    assert [hit for path in sources for hit in _scipy_outside_the_loader(path)] == []
    # the loader is where the GP's SciPy comes from
    loader = next(node for node in ast.parse((SRC / _SCIPY_LOADER[0]).read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == _SCIPY_LOADER[1])
    assert sorted(node.module for node in ast.walk(loader)
                  if isinstance(node, ast.ImportFrom)) == [
        "scipy.linalg", "scipy.spatial.distance", "scipy.special"]


def test_the_guard_sees_scipy_outside_the_loader(tmp_path):
    bad = tmp_path / "align.py"
    bad.write_text("import importlib\n"
                   "import scipy.linalg\n"
                   "from scipy import special\n"
                   "def _load_scipy():\n"
                   "    from scipy.special import ndtr\n"
                   "    import scipy\n"
                   "def helper():\n"
                   "    from scipy.spatial.distance import cdist\n"
                   "    return scipy.linalg, importlib.import_module('scipy.stats')\n"
                   "from .scipy_free import x\n")
    assert sorted(_scipy_outside_the_loader(bad)) == [
        "align.py:2: scipy.linalg", "align.py:3: scipy",
        "align.py:8: scipy.spatial.distance", "align.py:9: scipy",
        "align.py:9: scipy.stats"]
    # the same function in another module is not the loader
    assert sorted(_scipy_outside_the_loader(bad.rename(tmp_path / "vision.py"))) == [
        "vision.py:2: scipy.linalg", "vision.py:3: scipy",
        "vision.py:5: scipy.special", "vision.py:6: scipy",
        "vision.py:8: scipy.spatial.distance", "vision.py:9: scipy",
        "vision.py:9: scipy.stats"]
