"""Every module in src/graveropt and tests uses each name it imports,
and the library defines nothing that it does not use or export.

A stdlib ast scan: a name bound by an import statement must be read
somewhere in its module, or be listed in the module's __all__.  A
top-level function or class of src/graveropt must be read somewhere in
src/graveropt or be listed in graveropt.__all__; the one exception is
cli.entry, the console script.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(ROOT.glob("src/graveropt/*.py"))
MODULES = LIBRARY + sorted(ROOT.glob("tests/*.py"))


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in __all__."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


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
    used |= exported(tree)
    return sorted(name for name in imported if name not in used)


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level function or class of the given
    modules (module name -> source) that none of them reads or exports."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    kept = set()
    for tree in trees.values():
        kept |= exported(tree)
        kept.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    return sorted("%s.%s" % (module, node.name)
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in kept and (module, node.name) != ("cli", "entry"))


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


def test_library_defines_nothing_unread():
    assert unread_definitions({p.stem: p.read_text() for p in LIBRARY}) == []


def test_definition_scan_sees_unread_names():
    sources = {"a": ("def helper(): pass\n"
                     "def orphan(): pass\n"
                     "class Shown: pass\n"
                     "__all__ = ['Shown']\n"),
               "b": "from a import helper\nx = helper()\n",
               "cli": "def entry(): pass\ndef main(): pass\n"}
    assert unread_definitions(sources) == ["a.orphan", "cli.main"]
