"""Every name a module of the package imports is used in it, so a helper
whose last caller is gone does not linger as a dead import."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mcsim"


def unused_imports(text: str) -> list[str]:
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_leftover_import_is_caught():
    text = ("import itertools\nfrom functools import reduce, partial\n"
            "from .ternary_core import res_full as rf, superpose\n"
            "x = itertools.count()\ny = reduce(max, [rf])\n")
    assert unused_imports(text) == ["partial", "superpose"]
