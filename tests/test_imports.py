"""Every module in src/graveropt and tests uses each name it imports.

A stdlib ast scan: a name bound by an import statement must be read
somewhere in its module, or be listed in the module's __all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/graveropt/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from typing import Sequence, Sized\n"
              "import json\n"
              "__all__ = ['Sized']\n"
              "def f(x: Sequence) -> None:\n"
              "    return json.dumps(x)\n")
    assert unused_imports(source) == ["os", "osp"]
