"""Every name a module of the package imports is used in it, and every
private module-level name is used somewhere in the package, so a helper
whose last caller is gone does not linger as a dead import or definition."""

import ast
from collections import Counter
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


def references(tree: ast.AST) -> Counter:
    """How often each name is read, looked up as an attribute, or imported."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants that nothing
    refers to outside their own definition, as module.name."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = sum((references(tree) for tree in trees.values()), Counter())
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            for name in defined_names(node):
                private = name.startswith("_") and not name.startswith("__")
                if private and used[name] == references(node)[name]:
                    out.append(f"{mod}.{name}")
    return sorted(out)


def test_every_private_helper_is_used():
    assert orphaned_privates({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_a_leftover_helper_is_caught():
    sources = {"a": "def _walk(n):\n    return _walk(n - 1)\n"
                    "_K = 1\n_GONE: int = 2\nclass _Box:\n    pass\n"
                    "def f():\n    return _K\n",
               "b": "from .a import _Box\nx = _Box()\n"}
    assert orphaned_privates(sources) == ["a._GONE", "a._walk"]


PLAN_NAMES = {"_plan", "GATE_KINDS", "FITTED_RULES"}


def touches_the_plan(text: str) -> bool:
    """Whether a module reads or writes a DAG's evaluation plan `_plan` (as
    an attribute or a vars() key) or names a rule table, GATE_KINDS or FITTED_RULES."""
    for node in ast.walk(ast.parse(text)):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else \
            node.name if isinstance(node, ast.alias) else \
            node.value if isinstance(node, ast.Constant) else None
        if isinstance(name, str) and name in PLAN_NAMES:
            return True
    return False


def test_only_netlist_checks_dags_and_compiles_plans():
    assert [p.stem for p in sorted(SRC.glob("*.py"))
            if p.stem != "netlist" and touches_the_plan(p.read_text())] == []


@pytest.mark.parametrize("text, touches", [
    ("from .netlist import GATE_KINDS\n", True),
    ("from . import netlist\nrule = netlist.GATE_KINDS['AND'][2]\n", True),
    ("from .netlist import FITTED_RULES as rules\n", True),
    ("def f(dag):\n    return dag._plan\n", True),
    ("def f(dag, plan):\n    vars(dag)['_plan'] = plan\n", True),
    ("def f(dag):\n    '''Builds no _plan.'''\n    return planned_dag(dag)\n", False),
])
def test_a_plan_built_elsewhere_is_caught(text, touches):
    assert touches_the_plan(text) is touches


def uses_cached_property(text: str) -> bool:
    """Whether a module names functools.cached_property, which takes a lock
    on every first read before Python 3.12 (netlist._derived does not)."""
    for node in ast.walk(ast.parse(text)):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else \
            node.name if isinstance(node, ast.alias) else None
        if name == "cached_property":
            return True
    return False


def test_no_module_uses_cached_property():
    assert [p.stem for p in sorted(SRC.glob("*.py"))
            if uses_cached_property(p.read_text())] == []


@pytest.mark.parametrize("text, uses", [
    ("import functools\nclass A:\n    @functools.cached_property\n    def x(self):\n"
     "        return 1\n", True),
    ("from functools import cached_property as once\n", True),
    ("def f():\n    '''Not a functools.cached_property.'''\n", False),
])
def test_a_cached_property_is_caught(text, uses):
    assert uses_cached_property(text) is uses
