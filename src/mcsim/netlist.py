"""Circuit structure: registers, gates, the combinational DAG, file format.

A circuit has input, local, and output registers; its combinational DAG
reads one node per non-output register and drives one sink node per
non-input register. Gates of indegree 0 are constants; parallel arcs are
allowed. Evaluation is deterministic: gates fire in one fixed topological
order and each applies the worst-case ternary extension of its Boolean
function.
"""

from __future__ import annotations

import functools
import heapq
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

from .ternary_core import (
    CHAR_TO_DIGIT,
    DIGITS,
    META,
    ONE,
    ZERO,
    InputError,
    ParseError,
    Ternary,
    TernaryWord,
    _meta_mask,
    _norm_table,
    content_lines,
)


class Role(Enum):
    INPUT = "input"
    LOCAL = "local"
    OUTPUT = "output"


class RegType(Enum):
    SIMPLE = "simple"
    MASK0 = "mask0"
    MASK1 = "mask1"


@dataclass(frozen=True)
class RegisterDecl:
    """One register: unique name, exactly one role, one type.

    Input registers are never written and carry no init value.
    """

    name: str
    role: Role
    rtype: RegType
    init: Ternary | None = None


def register_transitions(rtype: RegType, v: Ternary) -> tuple[tuple[Ternary, Ternary], ...]:
    """Solid arcs of the register automaton: (value read, next content).

    A stable register always reads and keeps its value. A metastable
    mask-0 register may read 0 and stay metastable, or read M and
    thereby resolve to 1; mask-1 mirrors this. The order is fixed so
    that every caller sees the same first outcome.
    """
    if v is not META or rtype is RegType.SIMPLE:
        return ((v, v),)
    if rtype is RegType.MASK0:
        return ((ZERO, META), (META, ONE))
    return ((ONE, META), (META, ZERO))


# fan-in bounds per kind: (min, max); None = unbounded
GATE_KINDS = {
    "AND": (2, None),
    "OR": (2, None),
    "NAND": (2, None),
    "NOR": (2, None),
    "XOR": (2, 2),
    "NOT": (1, 1),
    "BUF": (1, 1),
    "CONST0": (0, 0),
    "CONST1": (0, 0),
}


@dataclass(frozen=True)
class Gate:
    """Single-output gate; args name input nodes or earlier gates."""

    gid: str
    kind: str
    args: tuple[str, ...]
    table: str | None = None  # TABLE gates only: 2^arity output bits

    def __str__(self) -> str:
        kind = f"TABLE:{self.table}" if self.kind == "TABLE" else self.kind
        return " ".join(["gate", self.gid, kind, *self.args])


@dataclass(frozen=True)
class Dag:
    """Combinational DAG: named input nodes, gates, fan-in-1 output nodes.

    outputs lists (node name, source ref) pairs; a source ref is an input
    node name or a gate id. Gates must appear in topological order (see
    dag_toposort); validate() reports violations instead of raising.
    """

    inputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    outputs: tuple[tuple[str, str], ...]

    @functools.cached_property
    def _plan(self):
        """Index-based evaluation plan, compiled once (not a field, so equality
        and hash ignore it); rejects undefined or misordered refs."""
        index = {name: i for i, name in enumerate(self.inputs)}
        if len(index) != len(self.inputs):
            raise InputError("duplicate input node name")
        ops = []
        for g in self.gates:
            try:
                arg_idx = tuple(index[a] for a in g.args)
            except KeyError as e:
                raise InputError(f"gate {g.gid} references undefined or later "
                                 f"node {e.args[0]!r}") from e
            if g.gid in index:
                raise InputError(f"duplicate node name {g.gid!r}")
            index[g.gid] = len(self.inputs) + len(ops)
            ops.append((g.kind, g.table, arg_idx))
        try:
            out_idx = tuple(index[src] for _, src in self.outputs)
        except KeyError as e:
            raise InputError(f"output driven by undefined node {e.args[0]!r}") from e
        return [(_rule(kind, table, len(a)), a) for kind, table, a in ops], out_idx

    def __getstate__(self):
        # the plan holds closures, which do not pickle; it is rebuilt on use
        return {k: v for k, v in vars(self).items() if k != "_plan"}


@dataclass(frozen=True)
class Circuit:
    """Register declarations plus the DAG that rewrites them every round."""

    name: str
    registers: tuple[RegisterDecl, ...]
    dag: Dag

    def regs(self, role: Role) -> tuple[RegisterDecl, ...]:
        return tuple(r for r in self.registers if r.role is role)

    @functools.cached_property
    def input_regs(self) -> tuple[RegisterDecl, ...]:
        return self.regs(Role.INPUT)

    @functools.cached_property
    def local_regs(self) -> tuple[RegisterDecl, ...]:
        return self.regs(Role.LOCAL)

    @functools.cached_property
    def output_regs(self) -> tuple[RegisterDecl, ...]:
        return self.regs(Role.OUTPUT)

    @functools.cached_property
    def m(self) -> int:
        return len(self.input_regs)

    @functools.cached_property
    def k(self) -> int:
        return len(self.local_regs)

    @functools.cached_property
    def n(self) -> int:
        return len(self.output_regs)

    @functools.cached_property
    def _init(self) -> TernaryWord:
        regs = self.local_regs + self.output_regs
        # the digits 0, 1, 2 (M) read in base 4 are the packed word
        return TernaryWord(len(regs), int("0" + "".join(str(int(r.init)) for r in regs), 4))

    def init_word(self) -> TernaryWord:
        """Initial values of the non-input registers, locals then outputs."""
        return self._init

    @functools.cached_property
    def read_plan(self) -> tuple[int, int, tuple]:
        """Bit patterns on the word of the non-output registers: (the low
        bit of every digit, the M bit of every masked register, and per
        masked register in digit order its M bit and register_transitions
        out of M as (read, next) patterns, next landing in the input word
        once shifted right by 2k)."""
        w, arcs = self.m + self.k, []
        for i, r in enumerate(self.input_regs + self.local_regs):
            if r.rtype is not RegType.SIMPLE:
                at = 2 * (w - 1 - i)
                arcs.append((2 << at, tuple((rv << at, nv << at) for rv, nv
                                            in register_transitions(r.rtype, META))))
        return _meta_mask(w) >> 1, sum(bit for bit, _ in arcs), tuple(arcs)


# Each signal is a pair of lane masks (can0, can1): bit L of can_b is set
# when the signal can resolve to b in lane L. A stable value sets one rail
# and M sets both, so every gate kind is a rule over these pairs, and the
# same rules evaluate one word (one lane) or a whole domain (one lane each).

def _and(z, o, args, full):
    c0, c1 = 0, full
    for i in args:
        c0, c1 = c0 | z[i], c1 & o[i]
    return c0, c1


# OR is AND over swapped rails, swapped back (De Morgan)
_RULES = {
    "AND": _and,
    "NAND": lambda z, o, args, full: _and(z, o, args, full)[::-1],
    "OR": lambda z, o, args, full: _and(o, z, args, full)[::-1],
    "NOR": lambda z, o, args, full: _and(o, z, args, full),
    "XOR": lambda z, o, args, full: (z[args[0]] & z[args[1]] | o[args[0]] & o[args[1]],
                                     o[args[0]] & z[args[1]] | z[args[0]] & o[args[1]]),
    "NOT": lambda z, o, args, full: (o[args[0]], z[args[0]]),
    "BUF": lambda z, o, args, full: (z[args[0]], o[args[0]]),
    "CONST0": lambda z, o, args, full: (full, 0),
    "CONST1": lambda z, o, args, full: (0, full),
}


def _rule(kind: str, table, arity: int):
    if kind in _RULES:
        return _RULES[kind]
    if kind != "TABLE":
        raise InputError(f"unknown gate kind {kind!r}")
    # the output can be b wherever some row with output b can be read:
    # the Kleene extension of the table
    rows = [(int(bit), [row >> j & 1 for j in reversed(range(arity))])
            for row, bit in enumerate(_norm_table(table, arity))]

    def table_rule(z, o, args, full):
        can = [0, 0]
        for bit, picks in rows:
            lanes = full
            for i, pick in zip(args, picks):
                lanes &= o[i] if pick else z[i]
            can[bit] |= lanes
        return can[0], can[1]
    return table_rule


def eval_gate(kind: str, table: str | None, vals: list[Ternary]) -> Ternary:
    """One gate on ternary values, by the rule eval_dag uses for it."""
    c0, c1 = _rule(kind, table, len(vals))(
        *_word_rails(TernaryWord.from_digits(vals), 1), range(len(vals)), 1)
    return DIGITS[c1 + (c0 & c1)]


def _run(dag: Dag, z: list[int], o: list[int], full: int) -> list[tuple[int, int]]:
    """Rails of every DAG output, given the rails of every input node."""
    ops, out_idx = dag._plan
    for rule, args in ops:
        c0, c1 = rule(z, o, args, full)
        z.append(c0)
        o.append(c1)
    return [(z[i], o[i]) for i in out_idx]


def _word_rails(x: TernaryWord, full: int) -> tuple[list[int], list[int]]:
    """The can0 and can1 rails of each digit of x, full or 0, read off x.packed."""
    p = x.packed
    if p & p >> 1 & _meta_mask(x.width) >> 1:
        str(x)  # printing raises the InputError that names the packed digit 3
    at = range(2 * x.width - 2, -1, -2)
    return [full * (p >> s & 3 != 1) for s in at], [full * (p >> s & 3 != 0) for s in at]


def eval_dag(dag: Dag, x: TernaryWord) -> TernaryWord:
    """Evaluate the DAG on one ternary input word, one digit per input node."""
    if x.width != len(dag.inputs):
        raise InputError(
            f"input width {x.width} does not match {len(dag.inputs)} input nodes")
    packed = 0
    for c0, c1 in _run(dag, *_word_rails(x, 1), 1):
        packed = packed << 2 | c1 + (c0 & c1)
    return TernaryWord(len(dag.outputs), packed)


_DIGIT_LANES: dict[int, tuple] = {}  # m <= 10, the widths the analysis takes


def digit_lanes(m: int) -> tuple[tuple[int, int], ...]:
    """Rails of every digit of the m-digit words over all of them at once:
    lane L is word L in all_words order. Built once for m <= 10."""
    if m in _DIGIT_LANES:
        return _DIGIT_LANES[m]
    rails, lanes = (), 1
    for _ in range(m):
        # a new leading digit reads 0, 1, M on three runs of the old lanes,
        # and every old digit repeats on each run
        run, tri = (1 << lanes) - 1, lambda x: x | x << lanes | x << 2 * lanes
        rails = ((tri(run) ^ run << lanes, tri(run) ^ run),) + \
            tuple((tri(z), tri(o)) for z, o in rails)
        lanes *= 3
    return _DIGIT_LANES.setdefault(m, rails) if m <= 10 else rails


def eval_lanes(dag: Dag, m: int, rest: TernaryWord) -> list[tuple[int, int]]:
    """Rails of every DAG output over all 3^m words x at once, as by
    eval_dag(dag, x.concat(rest)): lane L is word L in all_words order."""
    if m + rest.width != len(dag.inputs):
        raise InputError(f"input width {m + rest.width} does not match "
                         f"{len(dag.inputs)} input nodes")
    full = (1 << 3 ** m) - 1
    lanes, (z, o) = digit_lanes(m), _word_rails(rest, full)
    return _run(dag, [a for a, _ in lanes] + z, [b for _, b in lanes] + o, full)


def lane_word(rails: list[tuple[int, int]], lane: int) -> TernaryWord:
    """The word one lane carries, one digit per rail pair."""
    packed = 0
    for c0, c1 in rails:
        c0, c1 = c0 >> lane & 1, c1 >> lane & 1
        packed = packed << 2 | (c1 + (c0 & c1))
    return TernaryWord(len(rails), packed)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def validate(c: Circuit) -> list[str]:
    """All structural violations, as human-readable strings; [] iff valid."""
    out: list[str] = []
    seen: dict[str, RegisterDecl] = {}
    for r in c.registers:
        if not _NAME_RE.match(r.name):
            out.append(f"bad register name {r.name!r}")
        if r.name in seen:
            other = seen[r.name]
            if other.role is not r.role:
                out.append(f"register {r.name} declared with two roles "
                           f"({other.role.value} and {r.role.value})")
            else:
                out.append(f"register {r.name} declared twice")
        seen[r.name] = r
        if r.role is Role.INPUT and r.init is not None:
            out.append(f"input register {r.name} must not have an init value")
        if r.role is not Role.INPUT and r.init is None:
            out.append(f"{r.role.value} register {r.name} needs an init value")

    want_inputs = tuple(r.name for r in c.input_regs + c.local_regs)
    if c.dag.inputs != want_inputs:
        out.append(
            f"dag input nodes {list(c.dag.inputs)} must be the non-output "
            f"registers in declaration order {list(want_inputs)}")
    want_outputs = tuple(r.name for r in c.local_regs + c.output_regs)
    if tuple(n for n, _ in c.dag.outputs) != want_outputs:
        out.append(
            f"dag output nodes {[n for n, _ in c.dag.outputs]} must be the "
            f"non-input registers in declaration order {list(want_outputs)}")

    defined = set(c.dag.inputs)
    for g in c.dag.gates:
        if not _NAME_RE.match(g.gid):
            out.append(f"bad gate id {g.gid!r}")
        if g.gid in seen or g.gid in defined:
            out.append(f"gate id {g.gid} collides with an earlier name")
        if g.kind == "TABLE":
            if g.table is None or len(g.table) != 1 << len(g.args) \
                    or any(ch not in "01" for ch in g.table):
                out.append(f"gate {g.gid}: TABLE bits must be 2^{len(g.args)} "
                           f"characters over 0/1")
        elif g.kind in GATE_KINDS:
            lo, hi = GATE_KINDS[g.kind]
            if len(g.args) < lo or (hi is not None and len(g.args) > hi):
                out.append(f"gate {g.gid}: {g.kind} takes "
                           + (f"at least {lo}" if hi is None else
                              f"exactly {lo}" if lo == hi else f"{lo}..{hi}")
                           + f" inputs, got {len(g.args)}")
        else:
            out.append(f"gate {g.gid}: unknown kind {g.kind!r}")
        for a in g.args:
            if a not in defined:
                out.append(f"gate {g.gid} uses {a!r} before it is defined "
                           f"(undeclared, a cycle, or out of order)")
        defined.add(g.gid)
    for name, src in c.dag.outputs:
        if src not in defined:
            out.append(f"register {name} is driven by {src!r} which is not "
                       f"an input node or gate")
    return out


def dag_toposort(dag: Dag) -> Dag:
    """Reorder gates into the fixed topological order used everywhere:
    among ready gates, earliest declaration first. Raises on cycles."""
    seen = set(dag.inputs).difference(g.gid for g in dag.gates)
    for g in dag.gates:
        if not seen.issuperset(g.args):
            break
        seen.add(g.gid)
    else:
        return dag  # each gate follows every gate it names: the heap keeps that order
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
                raise InputError(f"gate {g.gid} references undefined node {a!r}")
        waits[i] = pending
        if pending == 0:
            heapq.heappush(ready, i)
    order = []
    while ready:
        i = heapq.heappop(ready)
        g = dag.gates[i]
        order.append(g)
        for j in users.get(g.gid, ()):
            waits[j] -= 1
            if waits[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(dag.gates):
        stuck = sorted(set(range(len(dag.gates))) - {by_id[g.gid] for g in order})
        raise InputError(
            f"cycle through gate {dag.gates[stuck[0]].gid}")
    return Dag(dag.inputs, tuple(order), dag.outputs)


def parse_netlist(text: str) -> Circuit:
    """Parse the line-oriented netlist format; see emit_netlist for shape."""
    name = None
    regs: list[RegisterDecl] = []
    gates: list[Gate] = []
    drives: dict[str, tuple[int, str]] = {}
    reg_lines: dict[str, int] = {}

    for lineno, line in content_lines(text):
        tok = line.split()
        kw = tok[0]
        if kw == "circuit":
            if name is not None:
                raise ParseError(lineno, "duplicate circuit line")
            if len(tok) != 2:
                raise ParseError(lineno, "expected: circuit <name>")
            name = tok[1]
        elif kw == "input":
            if len(tok) != 3:
                raise ParseError(lineno, "expected: input <reg> <type>")
            regs.append(RegisterDecl(tok[1], Role.INPUT, _rtype(lineno, tok[2])))
            reg_lines[tok[1]] = lineno
        elif kw in ("local", "output"):
            if len(tok) != 5 or tok[3] != "init":
                raise ParseError(
                    lineno, f"expected: {kw} <reg> <type> init <0|1|M>")
            if tok[4] not in CHAR_TO_DIGIT:
                raise ParseError(lineno, f"bad init value {tok[4]!r}")
            regs.append(RegisterDecl(tok[1], Role(kw), _rtype(lineno, tok[2]),
                                     CHAR_TO_DIGIT[tok[4]]))
            reg_lines[tok[1]] = lineno
        elif kw == "gate":
            if len(tok) < 3:
                raise ParseError(lineno, "expected: gate <id> <KIND> <src> ...")
            kind, table = tok[2], None
            if kind.startswith("TABLE:"):
                kind, table = "TABLE", kind[len("TABLE:"):]
            elif kind == "TABLE":
                raise ParseError(lineno, "TABLE gates are written TABLE:<bits>")
            gates.append(Gate(tok[1], kind, tuple(tok[3:]), table))
        elif kw == "drive":
            if len(tok) != 3:
                raise ParseError(lineno, "expected: drive <reg> <src>")
            if tok[1] in drives:
                raise ParseError(lineno, f"register {tok[1]} driven twice")
            drives[tok[1]] = (lineno, tok[2])
        else:
            raise ParseError(lineno, f"unknown directive {kw!r}")

    if name is None:
        raise ParseError(1, "missing circuit line")
    by_name = {r.name: r for r in regs}
    for reg, (lineno, _) in drives.items():
        if reg not in by_name:
            raise ParseError(lineno, f"drive names undeclared register {reg!r}")
        if by_name[reg].role is Role.INPUT:
            raise ParseError(lineno, f"input register {reg} cannot be driven")
    for r in regs:
        if r.role is not Role.INPUT and r.name not in drives:
            raise ParseError(reg_lines[r.name],
                             f"register {r.name} is never driven")
    return make_circuit(name, regs, gates,
                        {reg: src for reg, (_, src) in drives.items()})


def _rtype(lineno: int, token: str) -> RegType:
    try:
        return RegType(token)
    except ValueError:
        raise ParseError(lineno, f"bad register type {token!r}") from None


def emit_netlist(c: Circuit) -> str:
    """Textual form of a circuit; parse_netlist(emit_netlist(c)) equals c."""
    lines = [f"circuit {c.name}"]
    for r in c.registers:
        if r.role is Role.INPUT:
            lines.append(f"input {r.name} {r.rtype.value}")
        else:
            lines.append(f"{r.role.value} {r.name} {r.rtype.value} init {r.init}")
    for g in c.dag.gates:
        lines.append(str(g))
    for reg, src in c.dag.outputs:
        lines.append(f"drive {reg} {src}")
    return "\n".join(lines) + "\n"


def make_circuit(name: str,
                 registers: Iterable[RegisterDecl],
                 gates: Iterable[Gate],
                 drives: dict[str, str]) -> Circuit:
    """Programmatic constructor: sorts gates, wires drives, validates."""
    regs = tuple(registers)
    non_inputs = [r for r in regs if r.role is not Role.INPUT]
    missing = [r.name for r in non_inputs if r.name not in drives]
    if missing:
        raise InputError(f"undriven registers: {', '.join(missing)}")
    extra = set(drives) - {r.name for r in non_inputs}
    if extra:
        raise InputError(f"drives for unknown registers: {', '.join(sorted(extra))}")
    dag = dag_toposort(Dag(
        inputs=tuple(r.name for r in regs if r.role is not Role.OUTPUT),
        gates=tuple(gates),
        outputs=tuple((r.name, drives[r.name]) for r in non_inputs),
    ))
    c = Circuit(name, regs, dag)
    problems = validate(c)
    if problems:
        raise InputError("; ".join(problems))
    return c


def splice_dag(dag: Dag, feeds: Mapping[str, str], rename: Callable[[str], str],
               gates: list[Gate]) -> dict[str, str]:
    """Append a copy of the DAG's gates to gates: input node a reads
    feeds[a], gate g becomes rename(g). Returns output node name -> the
    node that drives it in the copy."""
    node = dict(feeds)
    for g in dag.gates:
        gid = rename(g.gid)
        gates.append(Gate(gid, g.kind, tuple(node[a] for a in g.args), g.table))
        node[g.gid] = gid
    return {name: node[src] for name, src in dag.outputs}
