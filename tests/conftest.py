"""Shared fixtures: the worked-example circuit, random corpora, oracles."""

import contextlib
import functools
import importlib.util
import itertools
import random
import re
import resource
import signal
from pathlib import Path
from unittest import mock

import pytest

from mcsim import cli
from mcsim.executor import Verdict, _frontiers, outputs
from mcsim.netlist import (
    Circuit,
    Dag,
    Gate,
    RegisterDecl,
    RegType,
    Role,
    digit_lanes,
    eval_dag,
    eval_lanes,
    make_circuit,
    parse_netlist,
)
from mcsim.ternary_core import (
    CHAR_TO_DIGIT, DEFAULT_MAX_STATES, META, ONE, ZERO, BudgetError, CubeSet, InputError,
    TernaryWord, _cubes, _digit_value, kleene_extend)

ALL_DIGITS = (ZERO, ONE, META)

WALL_S = 2.0
# address space a command may map beyond what the test process already has
MARGIN_BYTES = 256 << 20

# One mask-0 input and one simple input feed an OR; a simple local latches
# the OR, and the output takes AND(local, OR). Small enough to replay a
# whole multi-round execution by hand.
FEEDBACK_TEXT = """\
circuit or_and_feedback
input I1 mask0
input I2 simple
local L1 simple init 1
output O1 simple init 1
gate g_or OR I1 I2
gate g_and AND L1 g_or
drive L1 g_or
drive O1 g_and
"""


@pytest.fixture(autouse=True)
def fresh_load_memo():
    """Each test starts with no netlist or spec text kept by `mc`'s loader,
    so a test that counts the work inside one command does not depend on
    which tests ran before it in this process."""
    cli._parsed.cache_clear()


def full_parse_main(argv):
    """cli.main with argv parsed as it was before main read a plain command line from the
    command table: in one pass of the top-level parser, which hands it on."""
    parser = cli.build_parser()
    with mock.patch.object(cli, "_plain_args", lambda argv: None), mock.patch.object(
            parser, "parse_known_args", wraps=parser.parse_known_args) as full_pass:
        try:
            return cli.main(argv)
        finally:
            assert full_pass.call_count == 1, full_pass.call_args_list


@functools.cache
def reference_parser():
    """mc's parser as build_parser wrote it, one literal call per argument, before it was built
    from cli.COMMANDS: the reference that the table-built parser and the table's own read of a
    plain command line are held to."""
    import argparse

    def _add_budget_flags(p):
        p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                       help="state-enumeration budget")

    parser = argparse.ArgumentParser(
        prog="mc",
        description="Worst-case metastability propagation in clocked "
                    "circuits: simulate, check, synthesize.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", help="enumerate reachable states and outputs")
    p.add_argument("netlist")
    p.add_argument("input", help="input word over {0,1,M}")
    p.add_argument("rounds", type=int)
    p.add_argument("--trace", help="also write one concrete execution here")
    _add_budget_flags(p)
    p.set_defaults(func=cli.cmd_sim)

    p = sub.add_parser("check", help="does the circuit implement the spec")
    p.add_argument("netlist")
    p.add_argument("spec")
    p.add_argument("rounds", type=int)
    _add_budget_flags(p)
    p.set_defaults(func=cli.cmd_check)

    p = sub.add_parser("closure",
                       help="metastable closure of a Boolean truth table")
    p.add_argument("table")
    p.add_argument("-o", "--out", help="write the spec here "
                                       "(default: stdout)")
    p.set_defaults(func=cli.cmd_closure)

    p = sub.add_parser("synth", help="netlist realizing a specification")
    p.add_argument("spec")
    p.add_argument("-o", "--out", help="write the netlist here "
                                       "(default: stdout)")
    _add_budget_flags(p)
    p.set_defaults(func=cli.cmd_synth)

    p = sub.add_parser("unroll",
                       help="combinational r-round copy of a circuit")
    p.add_argument("netlist")
    p.add_argument("rounds", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cli.cmd_unroll)

    p = sub.add_parser("witness",
                       help="execution forced metastable between two inputs")
    p.add_argument("netlist")
    p.add_argument("input")
    p.add_argument("input2")
    p.add_argument("rounds", type=int)
    p.add_argument("-o", "--out")
    _add_budget_flags(p)
    p.set_defaults(func=cli.cmd_witness)

    p = sub.add_parser("component", help="emit a library component")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("--emit", choices=("netlist", "report"),
                   default="report")
    p.set_defaults(func=cli.cmd_component)

    p = sub.add_parser("pipeline",
                       help="select fault-tolerant clock bounds from "
                            "TDC readings")
    p.add_argument("readings", nargs="+", help="ones-first TC words")
    p.add_argument("--faults", type=int, required=True)
    p.add_argument("--emit", choices=("netlist", "report"),
                   default="report")
    p.set_defaults(func=cli.cmd_pipeline)

    parser.commands = sub.choices   # command name -> its parser, for the tests' reads
    return parser


@pytest.fixture(scope="session")
def feedback_circuit() -> Circuit:
    return parse_netlist(FEEDBACK_TEXT)


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced():
    """(layer, name) for each name the benchmark's tracer wraps, from its
    REPORTED and ATTRIBUTED tables; the name build stands for every build_*
    function of its layer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for table in (tracer.REPORTED, tracer.ATTRIBUTED):
        for layer, names in table.items():
            for name in names:
                yield layer, name


@contextlib.contextmanager
def limited(argv):
    """Fail once argv has run WALL_S seconds, and let it map at most
    MARGIN_BYTES more address space (a MemoryError past that); both limits
    act on this process alone and are lifted on exit."""
    def expire(signum, frame):
        pytest.fail(f"{argv} still running after {WALL_S} s")
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = mapped + MARGIN_BYTES
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    handler = signal.signal(signal.SIGALRM, expire)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        signal.setitimer(signal.ITIMER_REAL, WALL_S)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        signal.signal(signal.SIGALRM, handler)


def all_words(width):
    return [TernaryWord.from_digits(ds)
            for ds in itertools.product(ALL_DIGITS, repeat=width)]


def stable_words(width):
    return [TernaryWord.from_digits(ds)
            for ds in itertools.product((ZERO, ONE), repeat=width)]


# independent Boolean evaluator, used as the stable-input oracle
def bool_eval_dag(dag: Dag, bits):
    vals = dict(zip(dag.inputs, bits))
    for g in dag.gates:
        a = [vals[x] for x in g.args]
        if g.kind == "AND":
            v = int(all(a))
        elif g.kind == "OR":
            v = int(any(a))
        elif g.kind == "NOT":
            v = 1 - a[0]
        elif g.kind == "BUF":
            v = a[0]
        elif g.kind == "XOR":
            v = a[0] ^ a[1]
        elif g.kind == "NAND":
            v = 1 - int(all(a))
        elif g.kind == "NOR":
            v = 1 - int(any(a))
        elif g.kind == "CONST0":
            v = 0
        elif g.kind == "CONST1":
            v = 1
        elif g.kind == "TABLE":
            idx = 0
            for bit in a:
                idx = (idx << 1) | bit
            v = int(g.table[idx])
        else:
            raise AssertionError(g.kind)
        vals[g.gid] = v
    return [vals[src] for _, src in dag.outputs]


# Scalar worst-case semantics, one digit at a time: the reference the
# dual-rail evaluator is checked against.
def scalar_eval_gate(kind, table, vals):
    if kind == "AND":
        out = ONE
        for v in vals:
            if v is ZERO:
                return ZERO
            if v is META:
                out = META
        return out
    if kind == "OR":
        out = ZERO
        for v in vals:
            if v is ONE:
                return ONE
            if v is META:
                out = META
        return out
    if kind == "NOT":
        v = vals[0]
        return META if v is META else (ZERO if v is ONE else ONE)
    if kind == "BUF":
        return vals[0]
    if kind == "XOR":
        a, b = vals
        if a is META or b is META:
            return META
        return ONE if a is not b else ZERO
    if kind == "NAND":
        out = ZERO
        for v in vals:
            if v is ZERO:
                return ONE
            if v is META:
                out = META
        return out
    if kind == "NOR":
        out = ONE
        for v in vals:
            if v is ONE:
                return ZERO
            if v is META:
                out = META
        return out
    if kind == "CONST0":
        return ZERO
    if kind == "CONST1":
        return ONE
    if kind == "TABLE":
        return kleene_extend(table, TernaryWord.from_digits(vals))
    raise InputError(f"unknown gate kind {kind!r}")


def gate_value(kind, table, vals):
    """One gate on ternary values through eval_dag: the DAG of that gate
    alone, named g, reading one input node per value."""
    names = tuple(map(str, range(len(vals))))
    dag = Dag(names, (Gate("g", kind, names, table),), (("y", "g"),))
    return eval_dag(dag, TernaryWord.from_digits(vals)).digit(0)


def scalar_eval_dag(dag: Dag, x: TernaryWord) -> TernaryWord:
    """eval_dag by name lookup and scalar_eval_gate, gate after gate."""
    vals = dict(zip(dag.inputs, x.digits()))
    for g in dag.gates:
        vals[g.gid] = scalar_eval_gate(g.kind, g.table, [vals[a] for a in g.args])
    return TernaryWord.from_digits(vals[src] for _, src in dag.outputs)


def text_tdc_error(w: TernaryWord) -> str | None:
    """The TDC rule read off the word's text (ones, at most one M, zeros):
    the error a refused word raises, or None for a TDC reading."""
    text = str(w)
    return f"not a TDC reading: {text}" if text.lstrip("1").removeprefix("M").strip("0") else None


def concat_clock_sync_select(n: int, f: int, readings) -> tuple[TernaryWord, TernaryWord]:
    """clock_sync_select on whole words: the same checks in the same order, the
    text TDC rule, the readings joined by concat, scalar_eval_dag on the
    pipeline, and the two selected words cut out with subword."""
    from mcsim import components
    words = [r.word if isinstance(r, components.TdcReading) else r for r in readings]
    if len(words) != n:
        raise InputError(f"expected {n} readings, got {len(words)}")
    components._check_faults(n, f)
    width = len(words[0])
    if any(len(w) != width for w in words):
        raise InputError("readings must share one width")
    k = max(width + 1, 2).bit_length() - 1
    if (1 << k) - 1 != width:
        raise InputError("reading width must be one less than a power of two")
    for w in words:
        if error := text_tdc_error(w):
            raise InputError(error)
    out = scalar_eval_dag(components.build_pipeline(n, k, f).dag,
                          functools.reduce(TernaryWord.concat, words))
    return out.subword(0, width), out.subword(width, 2 * width)


def apply_layers(net, values) -> list:
    """Run a sorting network's comparator layers on plain values; a correct
    schedule returns them sorted."""
    vals = list(values)
    if len(vals) != net.channels:
        raise InputError(f"expected {net.channels} values")
    for layer in net.layers:
        for lo, hi in layer:
            if vals[hi] < vals[lo]:
                vals[lo], vals[hi] = vals[hi], vals[lo]
    return vals


# The per-digit loops that read words before the base-4 codec, kept as its
# references: each shifts one growing int per digit, so each is quadratic.
def scalar_from_digits(digits) -> TernaryWord:
    packed = 0
    width = 0
    for d in digits:
        packed = (packed << 2) | _digit_value(d)
        width += 1
    return TernaryWord(width, packed)


def scalar_parse(text: str) -> TernaryWord:
    try:
        return scalar_from_digits(CHAR_TO_DIGIT[c] for c in text)
    except KeyError as e:
        raise InputError(f"bad word {text!r}: digit must be 0, 1, or M") from e


def scalar_digits(w: TernaryWord) -> tuple:
    return tuple(w.digit(i) for i in range(w.width))


# Per-digit word predicates: the references for the whole-int versions.
def scalar_res_contains(cube: TernaryWord, w: TernaryWord) -> bool:
    if cube.width != w.width:
        raise InputError(f"width mismatch: {cube} vs {w}")
    return all(a is META or a is b for a, b in zip(cube.digits(), w.digits()))


def scalar_words_compatible(a: TernaryWord, b: TernaryWord) -> bool:
    if a.width != b.width:
        raise InputError(f"width mismatch: {a} vs {b}")
    return all(x is y or META in (x, y) for x, y in zip(a.digits(), b.digits()))


def scalar_meta_count(w: TernaryWord) -> int:
    return sum(d is META for d in w.digits())


def scalar_superpose(a: TernaryWord, b: TernaryWord) -> TernaryWord:
    if a.width != b.width:
        raise InputError(f"width mismatch: {a} vs {b}")
    return TernaryWord.from_digits(x if x is y else META
                                   for x, y in zip(a.digits(), b.digits()))


def lane_words(rails, lanes: int):
    """The word each lane carries, in lane order, one digit per rail pair."""
    # a packed digit has its high bit where both rails are set (M) and its
    # low bit where can1 alone is; the leading "0" plane makes n=0 words
    planes = ["0" * lanes] + [format(p, f"0{lanes}b")[::-1]
                              for c0, c1 in rails for p in (c0 & c1, c1 & ~c0)]
    return (TernaryWord(len(rails), int("".join(bits), 2)) for bits in zip(*planes))


def lane_implements(c: Circuit, f) -> Verdict:
    """The one-round check one input at a time: each lane's output word
    against f.value_cubeset of that input, in lex order (simple inputs
    and locals only)."""
    rails = eval_lanes(c.dag, c.m, c.init_word().subword(0, c.k))
    for iota, cube in zip(all_words(c.m), lane_words(rails[c.k:], 3 ** c.m)):
        if not any(scalar_res_contains(a, cube) for a in f.value_cubeset(iota)):
            return Verdict(False, iota, cube)
    return Verdict(True)


def reach_implements(c: Circuit, r: int, f, max_states=DEFAULT_MAX_STATES) -> Verdict:
    """implements as a walk: each input's reachable outputs after r rounds
    (reach, one input at a time) against f.value_cubeset, in lex order."""
    for iota in all_words(c.m):
        allowed = f.value_cubeset(iota)
        for cube in outputs(c, iota, r, max_states):
            if not any(scalar_res_contains(a, cube) for a in allowed):
                return Verdict(False, iota, cube)
    return Verdict(True)


def schedule_budget(c: Circuit, r: int) -> tuple[int, int]:
    """(q, B) of the read-schedule check: q masked registers can hold M (every
    masked input, and each masked local that starts at M), and B bounds what
    reach spends on one input in r rounds, (1 + 2^q) * sum of (t + 1)^q, t < r."""
    regs = c.input_regs + c.local_regs
    q = sum(reg.rtype is not RegType.SIMPLE and (i < c.m or reg.init is META)
            for i, reg in enumerate(regs))
    return q, (1 + 2 ** q) * sum((t + 1) ** q for t in range(r))


def frontiers(c: Circuit, iota: TernaryWord, r: int, max_states=DEFAULT_MAX_STATES):
    """executor._frontiers with each distinct frontier a CubeSet: (distinct, loop)."""
    distinct, loop = _frontiers(c, iota, r, max_states)
    return [_cubes(c.m + c.k + c.n, f) for f in distinct], loop


def last_useful_round(c: Circuit, cap: int = 40) -> int:
    """Three periods past the first repeat of the latest-repeating input's
    frontier orbit (cap where some orbit has not repeated by then)."""
    last = 1
    for iota in all_words(c.m):
        distinct, loop = frontiers(c, iota, cap, None)
        last = max(last, cap if loop is None else loop + 3 * (len(distinct) - loop))
    return min(last, cap)


def tightened(rng: random.Random, f, share: float = 0.2):
    """f with about a share of its inputs' sets narrowed: one cube each gets an
    M digit pinned, or, with none, a digit flipped; so some checks that pass
    on f fail on the copy."""
    from mcsim.analysis import general_spec
    values = {}
    for x in all_words(f.m):
        cubes = list(f.value_cubeset(x))
        if cubes and f.n and rng.random() < share:
            i = rng.randrange(len(cubes))
            digits = list(cubes[i].digits())
            metas = [j for j, d in enumerate(digits) if d is META]
            j = rng.choice(metas) if metas else rng.randrange(f.n)
            digits[j] = rng.choice((ZERO, ONE)) if metas else (ONE if digits[j] is ZERO else ZERO)
            cubes[i] = TernaryWord.from_digits(digits)
        values[x] = CubeSet.of(f.n, cubes)
    return general_spec(f.m, f.n, values)


def random_gates(rng: random.Random, sources: list[str], count: int,
                 prefix: str = "g"):
    """Random gate list; each gate may use input nodes or earlier gates."""
    gates = []
    avail = list(sources)
    for i in range(count):
        kind = rng.choice(["AND", "OR", "NOT", "XOR", "NAND", "NOR",
                           "BUF", "CONST0", "CONST1", "TABLE"])
        table = None
        if kind in ("AND", "OR", "NAND", "NOR"):
            arity = rng.randint(2, 3)
        elif kind == "XOR":
            arity = 2
        elif kind in ("NOT", "BUF"):
            arity = 1
        elif kind == "TABLE":
            arity = rng.randint(1, 3)
            table = "".join(rng.choice("01") for _ in range(1 << arity))
        else:
            arity = 0
        if arity > 0 and not avail:
            kind, table, arity = "CONST0", None, 0
        args = tuple(rng.choice(avail) for _ in range(arity))
        gid = f"{prefix}{i}"
        gates.append(Gate(gid, kind, args, table))
        avail.append(gid)
    return gates, avail


def random_circuit(rng: random.Random, max_regs: int = 6,
                   all_simple: bool = False, max_inputs: int = 4,
                   name: str = "rnd") -> Circuit:
    m = rng.randint(1, min(max_inputs, max_regs - 1))
    n = rng.randint(1, max_regs - m)
    k = rng.randint(0, max_regs - m - n)
    types = [RegType.SIMPLE] if all_simple else list(RegType)
    regs = []
    for i in range(m):
        regs.append(RegisterDecl(f"i{i}", Role.INPUT, rng.choice(types)))
    for i in range(k):
        regs.append(RegisterDecl(f"l{i}", Role.LOCAL, rng.choice(types),
                                 rng.choice(ALL_DIGITS)))
    for i in range(n):
        regs.append(RegisterDecl(f"o{i}", Role.OUTPUT, rng.choice(types),
                                 rng.choice(ALL_DIGITS)))
    sources = [r.name for r in regs if r.role is not Role.OUTPUT]
    gates, avail = random_gates(rng, sources, rng.randint(0, 6))
    drives = {r.name: rng.choice(avail)
              for r in regs if r.role is not Role.INPUT}
    return make_circuit(name, regs, gates, drives)


def simple_copy(c: Circuit) -> Circuit:
    """Same circuit with every register type replaced by simple."""
    regs = tuple(RegisterDecl(r.name, r.role, RegType.SIMPLE, r.init)
                 for r in c.registers)
    return Circuit(c.name, regs, c.dag)


def simple_locals_copy(c: Circuit) -> Circuit:
    """Same circuit with every local register simple; inputs keep their types."""
    regs = tuple(RegisterDecl(r.name, r.role, RegType.SIMPLE, r.init)
                 if r.role is Role.LOCAL else r for r in c.registers)
    return Circuit(c.name, regs, c.dag)


def flatten_states(cubes, m: int):
    """Every concrete state a state-cube set denotes (small widths only)."""
    from mcsim.ternary_core import res_members
    out = set()
    for cube in cubes:
        head = cube.subword(0, m)
        for tail in res_members(cube.subword(m, len(cube))):
            out.add(head.concat(tail))
    return out


def detector_spec():
    """Flags metastability: M maps to {1}, stable inputs map to {0}."""
    from mcsim.analysis import general_spec
    from mcsim.ternary_core import CubeSet, word
    return general_spec(1, 1, {
        word("0"): CubeSet.of(1, [word("0")]),
        word("1"): CubeSet.of(1, [word("0")]),
        word("M"): CubeSet.of(1, [word("1")]),
    })


def resolver_spec():
    """Forces a stable value: M maps to {0, 1}, stable inputs stay put."""
    from mcsim.analysis import general_spec
    from mcsim.ternary_core import CubeSet, word
    return general_spec(1, 1, {
        word("0"): CubeSet.of(1, [word("0")]),
        word("1"): CubeSet.of(1, [word("1")]),
        word("M"): CubeSet.of(1, [word("0"), word("1")]),
    })


def mm_example_spec():
    """f(x) = Res_M(x) minus the all-M word; not bit-wise at MM."""
    from mcsim.analysis import general_spec
    from mcsim.ternary_core import CubeSet, word
    values = {}
    for x in all_words(2):
        if x == word("MM"):
            values[x] = CubeSet.of(2, [word("0M"), word("1M"),
                                       word("M0"), word("M1")])
        else:
            values[x] = CubeSet.of(2, [x])
    return general_spec(2, 2, values)


def circuit_corpus(seed: int, count: int, **kw) -> list[Circuit]:
    rng = random.Random(seed)
    return [random_circuit(rng, name=f"rnd{i}", **kw) for i in range(count)]


@pytest.fixture(scope="session")
def corpus_mixed():
    """At least 100 random circuits, every register type, <= 6 registers."""
    return circuit_corpus(seed=20240817, count=110)


@pytest.fixture(scope="session")
def corpus_simple():
    """At least 50 random all-simple circuits, <= 5 registers."""
    return circuit_corpus(seed=9157, count=55, max_regs=5, all_simple=True)


@pytest.fixture(scope="session")
def corpus_masked_locals():
    """40 random circuits, each with a masked local that starts at M, and no
    more one-round read schedules (2^q) than inputs (3^m)."""
    rng, found = random.Random(4242), []
    while len(found) < 40:
        c = random_circuit(rng, name=f"ml{len(found)}")
        if any(reg.rtype is not RegType.SIMPLE and reg.init is META for reg in c.local_regs) \
                and 2 ** schedule_budget(c, 1)[0] <= 3 ** c.m:
            found.append(c)
    return found


def bool_tables(m, n=1):
    """Every Boolean function {0,1}^m -> {0,1}^n as a truth table."""
    rows = stable_words(m)
    outs = stable_words(n)
    for pick in itertools.product(outs, repeat=len(rows)):
        yield dict(zip(rows, pick))


def eager_spec(m, n, rails):
    """The dict-built natural spec whose entry at word L of all_words(m) is
    the word lane L of the rails carries: the decode the analysis chain ran
    on every closure before lane-built specs kept their rails."""
    from mcsim.analysis import FunctionSpec
    lanes, size = 3 ** m, 2 * n + 1
    # lane L is chars[L * size:][:size]: a 0 (for n = 0), then each digit's M and 1 bit
    chars = bytearray(b"0" * lanes * size)
    for j, (c0, c1) in enumerate(rails):
        chars[2 * j + 1::size] = format(c0 & c1, f"0{lanes}b")[::-1].encode()
        chars[2 * j + 2::size] = format(c1 & ~c0, f"0{lanes}b")[::-1].encode()
    return FunctionSpec(m, n, entries={
        x: TernaryWord(n, int(chars[i:i + size], 2))
        for x, i in zip(all_words(m), range(0, lanes * size, size))})


def scalar_emit_spec_table(f):
    """emit_spec_table row by row, one str() per word: the reference for
    its column-wise writer."""
    lines = [f"spec m={f.m} n={f.n}"]
    for x in all_words(f.m):
        rhs = (str(f.entries[x]).replace("M", "*") if f.is_natural_form
               else ", ".join(str(c) for c in f.values[x]))
        lines.append(f"{x} -> {rhs}")
    return "\n".join(lines) + "\n"


def assert_lane_spec_agrees(f, circuits=()):
    """A lane-built spec against its eager decode and its dict-built copy:
    the same entries in all_words order, bit-identical layers, equality
    both ways, the same table text, and the same is_natural and one-round
    verdicts (witnesses included) on every circuit given, which it
    returns."""
    from mcsim.analysis import emit_spec_table, is_natural, natural_spec
    from mcsim.executor import implements, spec_layers
    assert f.rails is not None and f.is_natural_form
    # the rails-backed answers first, before reading entries decodes them
    natural = is_natural(f)
    verdicts = [implements(c, 1, f) for c in circuits]
    want = eager_spec(f.m, f.n, f.rails)
    assert list(f.entries.items()) == list(want.entries.items())
    copy = natural_spec(f.m, f.n, f.entries)
    assert copy.rails is None
    assert spec_layers(f) == spec_layers(copy)
    assert f == copy and copy == f and f == want and want == f
    assert emit_spec_table(f) == emit_spec_table(want)
    assert natural == is_natural(copy)
    assert verdicts == [implements(c, 1, copy) for c in circuits]
    return verdicts


def scalar_dag_toposort(dag: Dag) -> Dag:
    """dag_toposort by the heap alone: among ready gates, earliest
    declaration first, for gates in any order. An undefined reference, or
    the first gate a cycle holds back with its first argument never
    placed, raises validate's text for a reference not defined before."""
    import heapq

    def used_early(gid, a):
        return InputError(f"gate {gid} uses {a!r} before it is defined "
                          f"(undeclared, a cycle, or out of order)")
    by_id = {g.gid: i for i, g in enumerate(dag.gates)}
    known = set(dag.inputs)
    waits: dict[int, int] = {}
    users: dict[str, list[int]] = {}
    ready: list[int] = []
    for i, g in enumerate(dag.gates):
        pending = 0
        for a in g.args:
            if a in by_id:
                pending += 1
                users.setdefault(a, []).append(i)
            elif a not in known:
                raise used_early(g.gid, a)
        waits[i] = pending
        if pending == 0:
            heapq.heappush(ready, i)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in users.get(dag.gates[i].gid, ()):
            waits[j] -= 1
            if waits[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(dag.gates):
        placed = {dag.gates[i].gid for i in order}
        g = dag.gates[min(set(range(len(dag.gates))) - set(order))]
        raise used_early(g.gid, [a for a in g.args if a in by_id and a not in placed][0])
    return Dag(dag.inputs, tuple(dag.gates[i] for i in order), dag.outputs)


# The per-word analysis algorithms that the lane form replaced, kept as
# references: every input is handled on its own, through its resolutions.
def scalar_closure_bool(table):
    """closure_bool's entries: the superposition of the outputs at every
    full resolution of each input."""
    from mcsim.ternary_core import res_full, superpose
    m = len(next(iter(table)))
    return {x: functools.reduce(superpose, (table[y] for y in res_full(x)))
            for x in all_words(m)}


def rows_closure_bool(table):
    """closure_bool's rails by encoding all 3^m rows, the zero word on every
    lane but the stable ones: the reference for the closure built from the
    2^m stable rows alone."""
    from mcsim.analysis import _check_bool_table, _stable, _zeta
    from mcsim.executor import _rails
    m, n = _check_bool_table(table)
    stable, _, lane = _stable(m)
    rows = [TernaryWord(n, 0)] * 3 ** m
    for x, y in table.items():
        rows[lane[x.packed]] = y
    return _zeta(digit_lanes(m), [(z & stable, o & stable) for z, o in _rails(rows, n)])


def scalar_check_bool_table(table):
    """_check_bool_table row by row: the first bad row in dict order is the
    one named, then the row count is checked."""
    if not table:
        raise InputError("empty truth table")
    m = len(next(iter(table)))
    n = None
    for x, y in table.items():
        if not x.is_stable or len(x) != m:
            raise InputError(f"truth-table input {x} must be stable, width {m}")
        if not y.is_stable or (n is not None and len(y) != n):
            raise InputError(f"truth-table output {y} must be stable")
        n = len(y)
    if len(table) != 1 << m:
        raise InputError(f"truth table needs all {1 << m} input rows")
    return m, n


def scalar_cube_form(v):
    """The single cube a value set equals, or None if it is not a cube."""
    from mcsim.ternary_core import superpose
    e = functools.reduce(superpose, v)
    return e if v.contains_word(e) else None


def scalar_is_natural(f) -> bool:
    """Every value set is one cube, and each entry contains the entries of
    its input's full resolutions."""
    from mcsim.ternary_core import res_contains, res_full
    view = f.entries
    if view is None:
        view = {x: scalar_cube_form(v) for x, v in f.values.items()}
        if None in view.values():
            return False
    return all(res_contains(e, view[y]) for x, e in view.items()
               if not x.is_stable for y in res_full(x))


def per_word_find_natural_subfunction(g):
    """(entries or None, nodes spent): one stable output word per stable
    input, tightest first, each metastable input keeping the join of its
    resolutions' choices, which must stay inside g; undo restores it."""
    from mcsim.ternary_core import res_full, superpose
    ys = stable_words(g.m)
    candidates = {}
    for y in ys:
        val = g.value_cubeset(y)
        candidates[y] = [e for e in stable_words(g.n) if val.contains_word(e)]
        if not candidates[y]:
            return None, 0
    allowed, joins, touched = {}, {}, {y: [] for y in ys}
    for x in all_words(g.m):
        if not x.is_stable:
            allowed[x], joins[x] = g.value_cubeset(x), None
            for y in res_full(x):
                touched[y].append(x)
    chosen, spent = {}, [0]

    def assign(idx):
        if idx == len(ys):
            return True
        y = ys[idx]
        for e in candidates[y]:
            spent[0] += 1
            undo = [(x, joins[x]) for x in touched[y]]
            for x, join in undo:
                joins[x] = join = e if join is None else superpose(join, e)
                if not allowed[x].contains_word(join):
                    break
            else:
                chosen[y] = e
                if assign(idx + 1):
                    return True
                del chosen[y]
            for x, join in undo:
                joins[x] = join
        return False

    return ({**chosen, **joins} if assign(0) else None), spent[0]


def scalar_prime_implicants(table):
    """Merge cubes that differ in one pinned digit until none merge; what
    never merged is prime. Sorted."""
    from mcsim.ternary_core import superpose
    m = len(next(iter(table)))
    current = {x for x, bit in table.items() if bit}
    prime = set()
    while current:
        merged_away, nxt = set(), set()
        for c in current:
            for i in range(m):
                if c.digit(i) is ZERO:
                    up = c.with_digit(i, ONE)
                    if up in current:
                        nxt.add(superpose(c, up))
                        merged_away |= {c, up}
        prime |= current - merged_away
        current = nxt
    return tuple(sorted(prime))


def recursive_metastable_witness(c, r, iota, iota2, max_states, scalar=False):
    """metastable_witness with its search recursing once per round; with
    scalar, its reach, reads and evaluation are the scalar references too."""
    from mcsim.analysis import pivotal_sequence
    from mcsim.executor import (
        ExecutionTrace, TraceRound, _Budget, outputs, read_outcomes)
    from mcsim.netlist import eval_dag
    from mcsim.ternary_core import words_compatible
    if scalar:
        outputs, read_outcomes, eval_dag = scalar_outputs, scalar_read_outcomes, scalar_eval_dag
    a, b = outputs(c, iota, r, max_states), outputs(c, iota2, r, max_states)
    if any(words_compatible(u, v) for u in a for v in b):
        return None
    width = c.m + c.k + c.n
    budget = _Budget(max_states, "witness search")
    failed = set()

    def dfs(state, remaining):
        if remaining == 0:
            if any(state.digit(i) is META for i in range(width - c.n, width)):
                return [TraceRound(state)]
            return None
        if (state, remaining) in failed:
            return None
        outcomes = read_outcomes(c, state)
        budget.spend(len(outcomes))
        for read, nxt in outcomes:
            ev = eval_dag(c.dag, read)
            tail = dfs(nxt.concat(ev), remaining - 1)
            if tail is not None:
                return [TraceRound(state, read, ev, ev)] + tail
        failed.add((state, remaining))
        return None

    for p in pivotal_sequence(iota, iota2):
        if any(cube.meta_count() for cube in outputs(c, p, r, max_states)):
            return ExecutionTrace(tuple(dfs(p.concat(c.init_word()), r)))
    raise AssertionError("no pivotal metastability")


# The executor's digit-by-digit state-cube rules and register loops that
# the packed-word rule and the shared register step replaced, kept as
# references.

def scalar_cubeset_canonicalize(cs):
    """Keep each cube no kept one contains, more M digits first."""
    from mcsim.ternary_core import CubeSet
    kept = []
    for c in sorted(set(cs.cubes), key=lambda c: (-scalar_meta_count(c), c)):
        if not any(scalar_res_contains(k, c) for k in kept):
            kept.append(c)
    return CubeSet(cs.width, tuple(sorted(kept)))


def scalar_canonicalize_state_cubes(m, width, cubes):
    """Group the cubes by input part, canonicalise each group's tails on
    their own, and join every kept tail back to its input part."""
    from mcsim.ternary_core import CubeSet
    groups = {}
    for w in cubes:
        if len(w) != width:
            raise InputError(f"state cube width {len(w)}, expected {width}")
        groups.setdefault(w.subword(0, m), []).append(w.subword(m, width))
    kept = []
    for head in sorted(groups):
        for tail in scalar_cubeset_canonicalize(CubeSet.of(width - m, groups[head])):
            kept.append(head.concat(tail))
    return CubeSet.of(width, kept)


def scalar_state_cube_contains(m, cube, s):
    """Equal input parts, and s's tail a partial resolution of cube's."""
    if len(cube) != len(s):
        raise InputError("state width mismatch")
    return (cube.subword(0, m) == s.subword(0, m)
            and scalar_res_contains(cube.subword(m, len(cube)), s.subword(m, len(s))))


def scalar_read_outcomes(c, s):
    """read_outcomes as the product of every non-output register's
    register_transitions in state order, each word built digit by digit."""
    from mcsim.netlist import register_transitions
    if len(s) != c.m + c.k + c.n:
        raise InputError(f"state width {len(s)} does not match {c.m + c.k + c.n} registers")
    per = [register_transitions(reg.rtype, s.digit(i))
           for i, reg in enumerate(c.input_regs + c.local_regs)]
    return [(TernaryWord.from_digits(rv for rv, _ in combo),
             TernaryWord.from_digits(nv for _, nv in combo[:c.m]))
            for combo in itertools.product(*per)]


def scalar_frontiers(c, iota, r, max_states):
    """frontiers as a plain walk over the scalar references: round by round,
    each distinct cube of a frontier expanded once (one unit, then one per
    read outcome), until a frontier repeats."""
    from mcsim.ternary_core import BudgetError
    if len(iota) != c.m:
        raise InputError(f"input width {len(iota)}, circuit has {c.m} inputs")
    width, left, memo = c.m + c.k + c.n, [max_states], {}

    def spend(units):
        if left[0] is not None:
            left[0] -= units
            if left[0] < 0:
                raise BudgetError("state budget exceeded; raise the max-states cap")
    walk = [CubeSet.of(width, [iota.concat(c.init_word())])]
    for _ in range(r):
        nxt = []
        for cube in walk[-1]:
            if cube not in memo:
                spend(1)
                outcomes = scalar_read_outcomes(c, cube)
                spend(len(outcomes))
                memo[cube] = [n.concat(scalar_eval_dag(c.dag, read)) for read, n in outcomes]
            nxt += memo[cube]
        frontier = scalar_canonicalize_state_cubes(c.m, width, nxt)
        if frontier in walk:
            return walk, walk.index(frontier)
        walk.append(frontier)
    return walk, None


def scalar_outputs(c, iota, r, max_states):
    """outputs off scalar_frontiers: round r's output digits, canonical."""
    walk, loop = scalar_frontiers(c, iota, r, max_states)
    frontier = walk[r] if r < len(walk) else walk[loop + (r - loop) % (len(walk) - loop)]
    width = c.m + c.k + c.n
    return scalar_cubeset_canonicalize(
        CubeSet.of(c.n, [cube.subword(width - c.n, width) for cube in frontier]))


def scalar_run_trace(c, iota, r):
    """run_trace with every register's first arc looked up on its own."""
    from mcsim.executor import ExecutionTrace, TraceRound
    from mcsim.netlist import eval_dag, register_transitions
    if len(iota) != c.m:
        raise InputError(f"input width {len(iota)}, circuit has {c.m} inputs")
    state = iota.concat(c.init_word())
    if r < 0:
        raise InputError("round count must be nonnegative")
    rows = []
    for _ in range(r):
        per = [register_transitions(reg.rtype, state.digit(i))[0]
               for i, reg in enumerate(c.input_regs + c.local_regs)]
        read = TernaryWord.from_digits(rv for rv, _ in per)
        evaluation = eval_dag(c.dag, read)
        rows.append(TraceRound(state, read, evaluation, evaluation))
        nxt = TernaryWord.from_digits(per[j][1] for j in range(c.m))
        state = nxt.concat(evaluation)
    rows.append(TraceRound(state))
    return ExecutionTrace(tuple(rows))


def scalar_trace_check(c, t):
    """trace_check with one register_transitions lookup per register,
    stopping at the first register whose recorded read is impossible."""
    from mcsim.netlist import eval_dag, register_transitions
    if not t.rounds:
        raise InputError("empty trace")
    m, width = c.m, c.m + c.k + c.n
    for i, row in enumerate(t.rounds):
        if len(row.state) != width:
            raise InputError(f"round {i}: state width {len(row.state)}")
        if not row.is_full:
            if i != len(t.rounds) - 1:
                raise InputError(f"round {i}: only the last round may omit "
                                 "the read/evaluation/write columns")
            continue
        if row.evaluation is None or row.written is None:
            raise InputError(f"round {i}: partial round record")
        if len(row.read) != c.m + c.k:
            raise InputError(f"round {i}: read width {len(row.read)}")
        if len(row.evaluation) != c.k + c.n or len(row.written) != c.k + c.n:
            raise InputError(f"round {i}: evaluation/write width")
        nxt_inputs = []
        for j, reg in enumerate(c.input_regs + c.local_regs):
            step = [nv for rv, nv in register_transitions(reg.rtype, row.state.digit(j))
                    if rv is row.read.digit(j)]
            if not step:
                return False
            if j < m:
                nxt_inputs.append(step[0])
        if eval_dag(c.dag, row.read) != row.evaluation:
            return False
        if not scalar_res_contains(row.evaluation, row.written):
            return False
        if i + 1 < len(t.rounds):
            if t.rounds[i + 1].state != TernaryWord.from_digits(nxt_inputs).concat(row.written):
                return False
    return True


# The construction code that the shared DAG splice, the counter and the
# MUX closure replaced, kept as references: unroll with its own copy loop,
# the selector with its own register chain, and the MUX contracts
# enumerated input by input.

def scalar_unroll(c: Circuit, r: int) -> Circuit:
    """unroll by resolving each source of each round by hand."""
    if r < 1:
        raise InputError("unroll needs at least one round")
    if any(reg.rtype is not RegType.SIMPLE for reg in c.registers):
        raise InputError("unrolling requires simple registers only")
    if r * (len(c.dag.gates) + c.k + c.n) > 200_000:
        raise InputError("unroll is capped at 200000 gates, "
                         "rounds x (gates + locals + outputs)")
    drive = dict(c.dag.outputs)
    input_names = {reg.name for reg in c.input_regs}
    local_names = {reg.name for reg in c.local_regs}

    def resolve(t: int, src: str) -> str:
        if src in input_names:
            return src
        if src in local_names:
            return src if t == 1 else f"{src}__u{t}"
        return f"{src}__u{t}"

    gates = []
    for t in range(1, r + 1):
        if t > 1:
            for name in (reg.name for reg in c.local_regs):
                gates.append(Gate(f"{name}__u{t}", "BUF",
                                  (resolve(t - 1, drive[name]),)))
        for g in c.dag.gates:
            gates.append(Gate(f"{g.gid}__u{t}", g.kind,
                              tuple(resolve(t, a) for a in g.args), g.table))
        if t < r:
            for reg in c.output_regs:
                gates.append(Gate(f"{reg.name}__sink__u{t}", "BUF",
                                  (resolve(t, drive[reg.name]),)))
    drives = {reg.name: resolve(r, drive[reg.name])
              for reg in c.local_regs + c.output_regs}
    return make_circuit(f"{c.name}__x{r}", c.registers, gates, drives)


def scalar_build_selector(r: int) -> Circuit:
    """build_selector with the counter's register chain written out."""
    if not 1 <= r <= 128:
        raise InputError("selector round count out of range")
    regs = [RegisterDecl(f"x{i}", Role.INPUT, RegType.SIMPLE)
            for i in range(r)]
    regs += [RegisterDecl("R0", Role.LOCAL, RegType.SIMPLE, ONE)]
    regs += [RegisterDecl(f"R{i}", Role.LOCAL, RegType.SIMPLE, ZERO)
             for i in range(1, r)]
    regs += [RegisterDecl("O", Role.OUTPUT, RegType.SIMPLE, ZERO)]
    gates = [Gate(f"c{j}", "XOR", (f"R{j - 1}", f"R{j}"))
             for j in range(1, r)]
    terms = []
    for j in range(1, r + 1):
        cj = f"c{j}" if j < r else f"R{r - 1}"
        gates.append(Gate(f"t{j}", "AND", (f"x{j - 1}", cj)))
        terms.append(f"t{j}")
    if len(terms) == 1:
        out = terms[0]
    else:
        gates.append(Gate("pick", "OR", tuple(terms)))
        out = "pick"
    drives = {"R0": "R0"}
    for i in range(1, r):
        drives[f"R{i}"] = f"R{i - 1}"
    drives["O"] = out
    return make_circuit(f"selector_{r}", regs, gates, drives)


def scalar_mux_spec():
    """Follow the selected input; anything while the select is M."""
    from mcsim.analysis import general_spec
    from mcsim.ternary_core import CubeSet
    values = {}
    for x in all_words(3):
        a, b, s = x.digits()
        pick = a if s is ZERO else b if s is ONE else META
        values[x] = CubeSet.of(1, [TernaryWord.from_digits([pick])])
    return general_spec(3, 1, values)


def scalar_cmux_spec():
    """As scalar_mux_spec, but agreeing data inputs win over an M select."""
    from mcsim.analysis import general_spec
    from mcsim.ternary_core import CubeSet
    values = {}
    for x in all_words(3):
        a, b, s = x.digits()
        if s is ZERO or a is b:
            pick = a
        elif s is ONE:
            pick = b
        else:
            pick = META
        values[x] = CubeSet.of(1, [TernaryWord.from_digits([pick])])
    return general_spec(3, 1, values)


# The analysis chain as it was before it computed each lane quantity once,
# kept as references: the zeta pass with one generator per rail pair, the
# subfunction candidates read word by word, and synthesize through
# make_circuit.

def scalar_zeta(digits, rails):
    """_zeta rebuilding each rail pair through a generator."""
    for i, (z, o) in enumerate(digits):
        s = 3 ** (len(digits) - 1 - i)
        rails = [tuple(p | (p & z & ~o) << 2 * s | (p & o & ~z) << s for p in pair)
                 for pair in rails]
    return tuple(rails)


def scalar_find_natural_subfunction(g, max_nodes=None):
    """find_natural_subfunction as it searched before it kept its partial
    assignment closed: every search node runs a full zeta pass over the
    choices on the stable lanes. Returns (the found rails or None, nodes
    spent) and raises BudgetError once more than max_nodes are spent."""
    from mcsim.executor import covered, spec_layers
    m, n = g.m, g.n
    layers, digits = spec_layers(g), digit_lanes(m)
    stable = [int(format(k, "b"), 3) for k in range(1 << m)]
    candidates = scalar_candidates(g)
    if not all(candidates):
        return None, 0
    full, spent = (1 << 3 ** m) - 1, 0

    def assign(idx, rails):
        nonlocal spent
        if idx == len(candidates):
            return rails
        bit = 1 << stable[idx]
        for e in candidates[idx]:
            spent += 1
            if max_nodes is not None and spent > max_nodes:
                raise BudgetError("subfunction search budget exceeded; "
                                  "raise the max-states cap")
            tried = [(z, o | bit) if d is ONE else (z | bit, o)
                     for (z, o), d in zip(rails, e)]
            if covered(layers, scalar_zeta(digits, tried)) == full \
                    and (found := assign(idx + 1, tried)) is not None:
                return found
        return None

    rails = assign(0, [(0, 0)] * n)
    return (None if rails is None else scalar_zeta(digits, rails)), spent


def scalar_candidates(g):
    """find_natural_subfunction's candidates read word by word: per stable
    input, the digits of each stable output word its value set holds."""
    return [[e.digits() for e in stable_words(g.n) if v.contains_word(e)]
            for v in map(g.value_cubeset, stable_words(g.m))]


def checked_synthesize(h):
    """synthesize with its circuit built by make_circuit, which sorts the
    gates and validates every name and reference."""
    from mcsim.analysis import _natural_hull, _primes
    from mcsim.netlist import lane_word
    m, n = h.m, h.n
    digits = digit_lanes(m)
    hull = _natural_hull(h, digits)
    if hull is None:
        raise InputError("specification is not natural")
    regs = [RegisterDecl(f"x{j}", Role.INPUT, RegType.SIMPLE)
            for j in range(m)]
    regs += [RegisterDecl(f"y{i}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for i in range(n)]
    gates, drives, nots = [], {}, {}

    def negated(j):
        if j not in nots:
            nots[j] = f"not_x{j}"
            gates.append(Gate(nots[j], "NOT", (f"x{j}",)))
        return nots[j]

    for i, (z, o) in enumerate(hull):
        [lanes] = _primes(digits, [o & ~z])
        pis = [lane_word(digits, lane) for lane in lanes]
        if not pis or pis[0].meta_count() == m:
            gid, kind = (f"y{i}_one", "CONST1") if pis else (f"y{i}_zero", "CONST0")
            gates.append(Gate(gid, kind, ()))
            drives[f"y{i}"] = gid
            continue
        terms = []
        for p, pi in enumerate(pis):
            lits = [f"x{j}" if pi.digit(j) is ONE else negated(j)
                    for j in range(m) if pi.digit(j) is not META]
            if len(lits) == 1:
                terms.append(lits[0])
            else:
                gid = f"y{i}_t{p}"
                gates.append(Gate(gid, "AND", tuple(lits)))
                terms.append(gid)
        if len(terms) == 1:
            drives[f"y{i}"] = terms[0]
        else:
            gid = f"y{i}_or"
            gates.append(Gate(gid, "OR", tuple(terms)))
            drives[f"y{i}"] = gid
    return make_circuit(f"synth_{m}x{n}", regs, gates, drives)


def scalar_rails(cubes, n):
    """executor._rails as one int.to_bytes call per word: the rails of
    n-digit cube words in lane order. Zero lanes give empty rails (the
    bit string of none would be "0", not "")."""
    if {c.width for c in cubes} - {n}:
        raise InputError(f"specification has cubes of width other than {n}")
    if not cubes:
        return [(0, 0)] * n
    # one chunk of whole bytes per lane, lane 0 rightmost; digit j's high
    # (M) and low (1) bits sit at the same offsets in every chunk
    size = (2 * n + 7) // 8
    step = 8 * size
    blob = b"".join(c.packed.to_bytes(size, "little") for c in cubes)
    bits = format(int.from_bytes(blob, "little"), f"0{step * len(cubes)}b")
    planes = [(int(bits[hi::step], 2), int(bits[hi + 1::step], 2))
              for hi in range(step - 2 * n, step, 2)]
    # 0 can be read unless the digit is 1, and 1 unless it is 0
    return [(((1 << len(cubes)) - 1) & ~one, meta | one) for meta, one in planes]


def scalar_spec_layers(f):
    """spec_layers read word by word: value_cubeset at each word of
    all_words, the k-th cubes of every input encoded by scalar_rails."""
    values = [f.value_cubeset(x).cubes for x in all_words(f.m)]
    filler = TernaryWord(f.n, 0)
    return [(sum(1 << lane for lane, v in enumerate(values) if k < len(v)),
             scalar_rails([v[k] if k < len(v) else filler for v in values], f.n))
            for k in range(max(map(len, values)))]


# The name rule and the prime-lane loop that netlist's exact name test and
# analysis._primes' one bin() scan replaced, kept as references.
def regex_name(s: str) -> bool:
    """An ASCII letter or _, then ASCII letters, digits, _ and ., as one regex."""
    return re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", s) is not None


def lowest_bit_primes(digits, ones):
    """analysis._primes(digits, ones, closed=True), each prime's lanes read by
    taking its lowest set bit's lane and clearing that bit."""
    steps = [(3 ** i, z & ~o, o & ~z) for i, (z, o) in enumerate(reversed(digits))]
    primes = []
    for imp in ones:
        prime, lanes = imp, []
        for s, zero, one in steps:
            prime &= ~(imp >> 2 * s & zero | imp >> s & one)
        while prime:
            lanes.append((prime & -prime).bit_length() - 1)
            prime &= prime - 1
        primes.append(lanes)
    return primes
