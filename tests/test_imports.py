"""Every name a module imports is used in it (no linter runs on this tree)."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the package's __init__ imports names only to re-export them
MODULES = sorted(
    p for p in glob.glob(os.path.join(ROOT, "src", "embalign", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
    if os.path.basename(p) != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no other node of it reads.

    A name counts as used when it is read as a plain name or is the root
    of an attribute chain (``np.linalg``), or is listed in ``__all__``.
    ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" and "from a import b" bind the alias
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_module_uses_every_name_it_imports(path):
    with open(path, encoding="utf-8") as f:
        unused = unused_imports(f.read())
    assert not unused, ", ".join(f"line {line}: {name}" for line, name in unused)


def test_the_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\nimport numpy as np\nimport json\n"
        "from a import b, c as d\nfrom e import f\n"
        "__all__ = ['f']\n"
        "def g():\n    return np.zeros(1), d, os.path.sep\n"
    )
    assert unused_imports(source) == [(4, "json"), (5, "b")]
