"""No float enters the library's arithmetic: src/graveropt has no float
literal and no call to float.

A stdlib ast scan, in the style of test_imports.py.  True division is
not flagged: the library divides Fractions only.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(ROOT.glob("src/graveropt/*.py"))


def floats(source: str) -> list[str]:
    """Line and text of each float literal and each call to float."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append("%d: literal %r" % (node.lineno, node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            found.append("%d: call to float" % node.lineno)
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_has_no_float(path):
    assert floats(path.read_text()) == []


def test_scan_sees_floats():
    source = ("x = 1.5\n"
              "y = 2e3\n"
              "z = float(x)\n"
              "w = 1j\n"
              "ok = 3 // 2 + int('7') + len('1.5')\n")
    assert floats(source) == ["1: literal 1.5", "2: literal 2000.0",
                              "3: call to float", "4: literal 1j"]
