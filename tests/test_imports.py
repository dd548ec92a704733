"""Every top-level import in the package, the tests and the demos is used,
every function of the package reads each of its parameters, the command
line does not pull in scipy.stats, and it leaves the quadrature policy to
its defaults.

A stdlib ``ast`` scan stands in for a linter: a name bound by a module-level
``import`` must be read somewhere in the module, or be listed in its
``__all__``.  The package ``__init__.py`` is exempt; its imports are the
re-exported API.  A parameter other than ``self`` and ``cls`` must be read
in the body of its function or lambda.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "infobridge").glob("*.py"))
FILES = sorted(p for p in [*(ROOT / "src" / "infobridge").glob("*.py"),
                           *(ROOT / "tests").glob("*.py"),
                           *(ROOT / "demos").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by top-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def unused_parameters(source):
    """``(line, function, parameter)`` for every parameter of a function or
    lambda in ``source`` that its body never reads, ``self`` and ``cls``
    aside."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, (a.vararg, a.kwarg)))]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(fn.lineno, getattr(fn, "name", "<lambda>"), p) for p in params
                  if p not in ("self", "cls", *read)]
    return found


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from m import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_parameter():
    source = ("def f(self, a, b, *c, d, **e):\n    return a + d\n"
              "g = lambda x, y: x\n"
              "def h(cls, z):\n    def inner(w):\n        return z + w\n    return inner\n")
    assert unused_parameters(source) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "e"),
                                         (3, "<lambda>", "y")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_package_function_reads_its_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about half a second to import; the laws are closed
    # form and only the tests use scipy.stats as a reference.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, infobridge.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_leaves_quadrature_policy_to_its_defaults():
    # every command builds its context with the default QuadratureSpec, so
    # the CLI imports nothing from the quadrature module
    tree = ast.parse((ROOT / "src" / "infobridge" / "cli.py").read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "quadrature"]
