"""Every top-level import in the package, the tests and the demos is used,
and the command line does not pull in scipy.stats.

A stdlib ``ast`` scan stands in for a linter: a name bound by a module-level
``import`` must be read somewhere in the module, or be listed in its
``__all__``.  The package ``__init__.py`` is exempt; its imports are the
re-exported API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from m import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_skips_scipy_stats():
    # scipy.stats costs about half a second to import; the laws are closed
    # form and only the tests use scipy.stats as a reference.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, infobridge.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
