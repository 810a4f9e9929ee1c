"""Every name a module of the package imports is used in it, every
private module-level name and private method is used somewhere in the
package, and every public function, class or method is read by the
package, the benchmark or README (or is one of a few library-only names),
so a helper whose last caller is gone does not linger as a dead import or
definition."""

import ast
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import FEEDBACK_TEXT, traced

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


def definitions(tree: ast.Module):
    """Each module-level statement with the names it defines, as name, and each
    method of a module-level class with its own, as Class.name."""
    for node in tree.body:
        yield node, defined_names(node), ""
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, [item.name], f"{node.name}."


def unread(sources: dict[str, str], wanted) -> list[str]:
    """Module-level names and class methods for which wanted(node, name) holds
    and that nothing refers to outside their own definition, as module.name or
    module.Class.name."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = sum((references(tree) for tree in trees.values()), Counter())
    return sorted(f"{mod}.{owner}{name}" for mod, tree in trees.items()
                  for node, names, owner in definitions(tree) for name in names
                  if wanted(node, name) and used[name] == references(node)[name])


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants, and private
    methods, that nothing uses."""
    return unread(sources, lambda node, name: name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_used():
    assert orphaned_privates({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_a_leftover_helper_is_caught():
    sources = {"a": "def _walk(n):\n    return _walk(n - 1)\n"
                    "_K = 1\n_GONE: int = 2\nclass _Box:\n    pass\n"
                    "def f():\n    return _K\n",
               "b": "from .a import _Box\nx = _Box()\nclass C:\n    def _used(self):\n"
                    "        return 1\n    def _gone(self):\n        pass\ny = C()._used()\n"}
    assert orphaned_privates(sources) == ["a._GONE", "a._walk", "b.C._gone"]


ROOT = SRC.parents[1]

# Public names that no module, no traced benchmark name and no README line reads:
# the library's own entry points, kept for callers outside the package.
LIBRARY_ONLY = {"kleene_extend", "eval_lanes", "tdc_readings", "emit_truth_table"}


def unread_publics(sources: dict[str, str], named: set[str]) -> list[str]:
    """Public module-level functions and classes, and public methods, that
    nothing uses and whose names are not in named."""
    return unread(sources, lambda node, name: not name.startswith("_") and name not in named
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))


def traced_names(sources: dict[str, str]) -> set[str]:
    """The names the benchmark's tracer wraps, each build as its layer's build_*."""
    return {fn for layer, name in traced()
            for fn in (re.findall(r"^def (build_\w+)", sources[layer], re.M)
                       if name == "build" else [name])}


def test_every_public_name_is_read():
    # what src/ does not read is traced, named in README, or library-only, and each
    # library-only name is defined once and read nowhere else
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    named = traced_names(sources) | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unread = unread_publics(sources, named)
    assert sorted(name.split(".", 1)[1] for name in unread) == sorted(LIBRARY_ONLY), unread


def test_a_public_leftover_is_caught():
    sources = {"a": "from . import b\ndef used():\n    return b.helper()\n"
                    "def gone():\n    return gone()\nclass Box:\n    pass\nclass Kept:\n    pass\n"
                    "def _private():\n    pass\nLIMIT = 2\n",
               "b": "from .a import used\ndef helper():\n    return 1\nx = used()\n"
                    "def unread():\n    pass\n"
                    "class Net:\n    def __len__(self):\n        return 0\n"
                    "    def apply(self, v):\n        return self.apply(v)\n"
                    "    def size(self):\n        return 1\n"
                    "    @property\n    def width(self):\n        return 2\n"
                    "    def _step(self):\n        pass\n"
                    "n = Net()\nk = n.size() + n.width\n"}
    assert unread_publics(sources, {"Kept"}) == ["a.Box", "a.gone", "b.Net.apply", "b.unread"]


PLAN_NAMES = {"_plan", "GATE_KINDS", "_rule", "_chunks"}


def touches_the_plan(text: str) -> bool:
    """Whether a module reads or writes a DAG's evaluation plan `_plan` (as an
    attribute or a vars() key), or names the template table GATE_KINDS, the
    rules built from it (_rule) or the chunk compiler (_chunks)."""
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
    ("from .netlist import _rule as rule\n", True),
    ("from . import netlist\nrun = netlist._chunks(ops, 3)\n", True),
    ("def f(dag):\n    return dag._plan\n", True),
    ("def f(dag, plan):\n    vars(dag)['_plan'] = plan\n", True),
    ("def f(dag):\n    '''Builds no _plan.'''\n    return planned_dag(dag)\n", False),
])
def test_a_plan_built_elsewhere_is_caught(text, touches):
    assert touches_the_plan(text) is touches


def runs_source(text: str) -> bool:
    """Whether a module calls exec, eval or compile by name (re.compile is
    an attribute call and does not count)."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id in {"exec", "eval", "compile"}
               for node in ast.walk(ast.parse(text)))


def test_only_netlist_runs_generated_source():
    assert [p.stem for p in sorted(SRC.glob("*.py"))
            if p.stem != "netlist" and runs_source(p.read_text())] == []


@pytest.mark.parametrize("text, runs", [
    ("exec(src, ns)\n", True),
    ("f = eval('lambda: 0')\n", True),
    ("code = compile(src, '<x>', 'exec')\n", True),
    ("import re\nNAME = re.compile('[a-z]+')\n", False),
    ("def f():\n    '''Never calls exec.'''\n", False),
])
def test_a_source_runner_elsewhere_is_caught(text, runs):
    assert runs_source(text) is runs


PARSERS = {"parse_netlist", "parse_spec_table"}


def parses_files_itself(text: str) -> bool:
    """Whether a module calls a netlist or spec-table parser, by name, as an
    attribute or under an imported alias, rather than handing it to a loader."""
    tree = ast.parse(text)
    names = PARSERS | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       for a in node.names if a.name in PARSERS and a.asname}
    return any(isinstance(node, ast.Call) and (node.func.id if isinstance(node.func, ast.Name)
                                               else getattr(node.func, "attr", None)) in names
               for node in ast.walk(tree))


def test_cli_reads_netlists_and_specs_only_through_its_loader():
    # so every command's files go through _load's memo
    assert not parses_files_itself((SRC / "cli.py").read_text())


@pytest.mark.parametrize("text, parses", [
    ("def cmd(args):\n    return parse_netlist(_read_text(args.netlist))\n", True),
    ("from . import analysis\nf = analysis.parse_spec_table(text)\n", True),
    ("from .netlist import parse_netlist as read\nc = read(text)\n", True),
    ("def cmd(args):\n    return _load(args.netlist, parse_netlist)\n", False),
    ("def _parsed(parse, text):\n    return parse(text)\n", False),
    ("table = analysis.parse_truth_table(_read_text(path))\n", False),
])
def test_a_parse_around_the_loader_is_caught(text, parses):
    assert parses_files_itself(text) is parses


def test_compiled_source_names_no_netlist_text(monkeypatch):
    # valid gate ids and input names that would mean something in Python
    # source: none reaches the compiled chunks, which name only their locals,
    # TABLE gates included
    from conftest import all_words, scalar_eval_dag
    import mcsim.netlist as nl
    from mcsim.netlist import Dag, Gate, eval_dag, eval_lanes
    from mcsim.ternary_core import TernaryWord
    sources = []
    monkeypatch.setattr(nl, "compile", lambda src, *rest: (sources.append(src),
                                                           compile(src, *rest))[1], raising=False)
    monkeypatch.setattr(nl, "_COMPILE_AFTER", 1)
    inputs = ("exit", "os.system", "z", "full", "o7")
    gates = (Gate("__import__", "AND", ("exit", "os.system", "z")),
             Gate("_x.y", "TABLE", ("__import__", "full", "o7"), "01101001"),
             Gate("k3", "XOR", ("_x.y", "exit")), Gate("z0", "CONST1", ()),
             Gate("print", "NOR", ("k3", "z0", "os.system")))
    dag = Dag(inputs, gates, (("eval", "print"), ("y", "_x.y"), ("k", "z0"), ("i", "full")))
    for x in all_words(5):
        assert eval_dag(dag, x) == scalar_eval_dag(dag, x)
    rails = eval_lanes(dag, 5, TernaryWord(0, 0))
    assert len(sources) == 1 and len(rails) == 4
    for name in ("exit", "os.system", "__import__", "_x.y", "print", "eval"):
        assert name not in sources[0]
    names = {node.id for node in ast.walk(ast.parse(sources[0])) if isinstance(node, ast.Name)}
    assert names and all(re.fullmatch(r"z|o|full|[zo]\d+", n) for n in names), names
    # and the namespace each chunk runs in holds no rule, nor anything else
    assert [set(chunk.__globals__) for chunk in dag._plan[3]] == [{"__builtins__"}]


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


# Caches with no maxsize, each with the fixed key space that bounds it.
FIXED_KEY_SPACE = {"build_parser": "no arguments: one parser",
                   "per_width": "kept only while every argument is at most 10"}


def unbounded_caches(text: str) -> list[str]:
    """Where a module makes a cache with no bound: functools.cache under any
    name, or lru_cache with a maxsize that is not a literal int. Each is named
    by the function it decorates or sits in, or the module-level names it is
    assigned to."""
    tree = ast.parse(text)
    caches = {"cache"} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                          for a in node.names if a.name == "cache" and a.asname}

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def unbounded(node) -> bool:
        if name(node) in caches:
            return True
        if not (isinstance(node, ast.Call) and name(node.func) == "lru_cache"):
            return False
        size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
        return bool(size) and not (isinstance(size[0], ast.Constant)
                                   and type(size[0].value) is int)

    found = []

    def visit(node, site):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            site = node.name
        elif site == "<module>" and isinstance(node, (ast.Assign, ast.AnnAssign)):
            site = ", ".join(defined_names(node))
        if unbounded(node):
            found.append(site)
        for child in ast.iter_child_nodes(node):
            visit(child, site)
    visit(tree, "<module>")
    return found


def test_every_cache_is_bounded():
    # a cache off this list has a maxsize; one on it is made where the list says
    assert sorted(site for p in sorted(SRC.glob("*.py"))
                  for site in unbounded_caches(p.read_text())) == sorted(FIXED_KEY_SPACE)


@pytest.mark.parametrize("text, sites", [
    ("import functools\n@functools.cache\ndef f(x):\n    return x\n", ["f"]),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef g(x):\n    return x\n",
     ["g"]),
    ("import functools\n@functools.lru_cache(None)\ndef g(x):\n    return x\n", ["g"]),
    ("import functools\n@functools.lru_cache(maxsize=SIZE)\ndef g(x):\n    return x\n", ["g"]),
    ("import functools\nmemo = functools.lru_cache(maxsize=None)(lambda t: t)\n", ["memo"]),
    ("from functools import cache as keep\n@keep\ndef h(x):\n    return x\n", ["h"]),
    ("import functools\ndef per_width(build):\n    kept = functools.cache(build)\n"
     "    return kept\n", ["per_width"]),
    ("import functools\nclass A:\n    @functools.cache\n    def m(self):\n        return 1\n",
     ["m"]),
    ("import functools\n@functools.lru_cache(maxsize=512)\ndef r(k):\n    return k\n", []),
    ("from functools import lru_cache\n@lru_cache\ndef s(k):\n    return k\n", []),
    ("import functools\n_parsed = functools.lru_cache(maxsize=32)(lambda p, t: p(t))\n", []),
    ("def f():\n    '''Not a functools.cache.'''\n", []),
])
def test_an_unbounded_cache_is_caught(text, sites):
    assert unbounded_caches(text) == sites


def test_the_cli_imports_no_typing():
    # annotations stay strings (from __future__ import annotations), so no
    # module needs typing at run time, and a cold `mc` does not load it
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", "import sys, mcsim.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'typing'))"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def argparse_after_a_plain_sim(package, tmp_path):
    """The exit code of cli.main on a plain `mc sim` in a fresh python -S that imports mcsim
    from package's parent, and which of argparse and its gettext that process then holds."""
    net = tmp_path / "fig4.net"
    net.write_text(FEEDBACK_TEXT)
    code = ("import sys, mcsim.cli\n"
            f"code = mcsim.cli.main(['sim', {str(net)!r}, 'MM', '5'])\n"
            "print(code, sorted(m for m in ('argparse', 'gettext') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env={**os.environ, "PYTHONPATH": str(package.parent)},
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def test_a_plain_command_loads_no_argparse(tmp_path):
    # a plain command line is read from cli.COMMANDS; only build_parser imports argparse
    assert argparse_after_a_plain_sim(SRC, tmp_path) == "0 []"


def test_a_module_level_argparse_is_caught(tmp_path):
    copy = tmp_path / "pkg" / "mcsim"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "cli.py"
    cli.write_text(cli.read_text().replace("from __future__ import annotations\n",
                                           "from __future__ import annotations\nimport argparse\n"))
    assert argparse_after_a_plain_sim(copy, tmp_path) == "0 ['argparse', 'gettext']"
