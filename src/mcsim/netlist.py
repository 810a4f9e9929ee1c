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
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping

from .ternary_core import (
    CHAR_TO_DIGIT,
    META,
    ONE,
    ZERO,
    InputError,
    ParseError,
    Ternary,
    TernaryWord,
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


class _derived:
    """A value derived from a frozen instance on first read and kept in its
    __dict__, where later reads find it first: functools.cached_property
    without the lock it takes before Python 3.12. A read that raises keeps
    nothing, so the next read raises again."""

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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

    @_derived
    def _plan(self):
        """Plan of the gates some output reads, compiled once (not a field, so equality
        and hash ignore it); raises validate's first finding unless make_circuit checked it."""
        if "_checked" not in vars(self):
            if len(set(self.inputs)) != len(self.inputs):
                raise InputError("duplicate input node name")
            for problem in _dag_findings(self):
                raise InputError(problem)
        read = {src for _, src in self.outputs}
        for g in reversed(self.gates):
            read.update(g.args if g.gid in read else ())
        gates = tuple(g for g in self.gates if g.gid in read)
        return _compile(self if len(gates) == len(self.gates) else replace(self, gates=gates))

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

    # read on every check and round, so each is derived once (see _derived)
    input_regs = _derived(lambda self: self.regs(Role.INPUT))
    local_regs = _derived(lambda self: self.regs(Role.LOCAL))
    output_regs = _derived(lambda self: self.regs(Role.OUTPUT))
    m = _derived(lambda self: len(self.input_regs))
    k = _derived(lambda self: len(self.local_regs))
    n = _derived(lambda self: len(self.output_regs))

    @_derived
    def _init(self) -> TernaryWord:
        regs = self.local_regs + self.output_regs
        # the digits 0, 1, 2 (M) read in base 4 are the packed word
        return TernaryWord(len(regs), int("0" + "".join(str(int(r.init)) for r in regs), 4))

    def around(self, dag: Dag) -> Circuit:
        """This circuit's name and registers around dag, handed every derived
        attribute. Each reads the registers alone, so a shell with no DAG
        derives them once, into one dict, for all the circuits it is around."""
        c = Circuit(self.name, self.registers, dag)
        if (handed := vars(self).get("_handed")) is None:
            handed = vars(self)["_handed"] = {
                a: getattr(self, a) for a, d in vars(Circuit).items()
                if isinstance(d, _derived)}
        vars(c).update(handed)
        return c

    def init_word(self) -> TernaryWord:
        """Initial values of the non-input registers, locals then outputs."""
        return self._init

    @_derived
    def read_plan(self) -> tuple[int, tuple]:
        """Bit patterns on the word of the non-output registers: (the M bit
        of every masked register, and per masked register in digit order
        its M bit and register_transitions out of M as (read, next)
        patterns, next landing in the input word once shifted right by 2k)."""
        w, arcs = self.m + self.k, []
        for i, r in enumerate(self.input_regs + self.local_regs):
            if r.rtype is not RegType.SIMPLE:
                at = 2 * (w - 1 - i)
                arcs.append((2 << at, tuple((rv << at, nv << at) for rv, nv
                                            in register_transitions(r.rtype, META))))
        return sum(bit for bit, _ in arcs), tuple(arcs)


# Each signal is a pair of lane masks (can0, can1): bit L of can_b is set
# when the signal can resolve to b in lane L. A stable value sets one rail
# and M sets both, so every gate kind is a rule over these pairs, and the
# same rules evaluate one word (one lane) or a whole domain (one lane each).

def _and(z, o, args, full):
    c0, c1 = 0, full
    for i in args:
        c0, c1 = c0 | z[i], c1 & o[i]
    return c0, c1


def _table(bits: str):
    """The rule of a TABLE gate with these (checked) bits: the output can be
    b wherever some row with output b can be read, the Kleene extension."""
    arity = len(bits).bit_length() - 1
    if arity == 2:  # z0, z1 (o0, o1): the second input's rails to a 0 (1) row, first input 0, 1
        z0, z1, o0, o1 = [(bits[p] == b) | (bits[p + 1] == b) << 1 for b in "01" for p in (0, 2)]

        def table2_rule(z, o, a, full):
            y = (0, z[a[1]], o[a[1]], z[a[1]] | o[a[1]])
            return z[a[0]] & y[z0] | o[a[0]] & y[z1], z[a[0]] & y[o0] | o[a[0]] & y[o1]
        return table2_rule
    rows = [(int(bit), [row >> j & 1 for j in reversed(range(arity))])
            for row, bit in enumerate(bits)]

    def table_rule(z, o, args, full):
        can = [0, 0]
        for bit, picks in rows:
            lanes = full
            for i, pick in zip(args, picks):
                lanes &= o[i] if pick else z[i]
            can[bit] |= lanes
        return can[0], can[1]
    return table_rule


# kind -> (fewest inputs, most inputs or None, rail rule); OR is AND over
# swapped rails, swapped back (De Morgan), and TABLE's rule is _table of its bits
GATE_KINDS = {
    "AND": (2, None, _and),
    "OR": (2, None, lambda z, o, a, full: _and(o, z, a, full)[::-1]),
    "NAND": (2, None, lambda z, o, a, full: _and(z, o, a, full)[::-1]),
    "NOR": (2, None, lambda z, o, a, full: _and(o, z, a, full)),
    "XOR": (2, 2, lambda z, o, a, full: (z[a[0]] & z[a[1]] | o[a[0]] & o[a[1]],
                                         o[a[0]] & z[a[1]] | z[a[0]] & o[a[1]])),
    "NOT": (1, 1, lambda z, o, a, full: (o[a[0]], z[a[0]])),
    "BUF": (1, 1, lambda z, o, a, full: (z[a[0]], o[a[0]])),
    "CONST0": (0, 0, lambda z, o, a, full: (full, 0)),
    "CONST1": (0, 0, lambda z, o, a, full: (0, full)),
    "TABLE": (0, None, None),
}

# (kind, fan-in) -> a rule written out for it, which _compile takes over the generic one
FITTED_RULES = {
    ("AND", 2): lambda z, o, a, full: (z[a[0]] | z[a[1]], o[a[0]] & o[a[1]]),
    ("OR", 2): lambda z, o, a, full: (z[a[0]] & z[a[1]], o[a[0]] | o[a[1]]),
    ("NAND", 2): lambda z, o, a, full: (o[a[0]] & o[a[1]], z[a[0]] | z[a[1]]),
    ("NOR", 2): lambda z, o, a, full: (o[a[0]] | o[a[1]], z[a[0]] & z[a[1]]),
    ("AND", 3): lambda z, o, a, full: (z[a[0]] | z[a[1]] | z[a[2]], o[a[0]] & o[a[1]] & o[a[2]]),
    ("OR", 3): lambda z, o, a, full: (z[a[0]] & z[a[1]] & z[a[2]], o[a[0]] | o[a[1]] | o[a[2]]),
    ("NAND", 3): lambda z, o, a, full: (o[a[0]] & o[a[1]] & o[a[2]], z[a[0]] | z[a[1]] | z[a[2]]),
    ("NOR", 3): lambda z, o, a, full: (o[a[0]] | o[a[1]] | o[a[2]], z[a[0]] & z[a[1]] & z[a[2]]),
}


def _compile(dag: Dag):
    """The plan of a DAG with no findings: per gate its rail rule (fitted to its fan-in
    if one is) and argument indices (inputs first, then gates in order), and each output's index."""
    index, ops = {name: i for i, name in enumerate(dag.inputs)}, []
    for i, g in enumerate(dag.gates, len(dag.inputs)):
        ops.append((FITTED_RULES.get((g.kind, len(g.args)))
                    or GATE_KINDS[g.kind][2] or _table(g.table),
                    tuple(map(index.__getitem__, g.args))))
        index[g.gid] = i
    return ops, tuple(index[src] for _, src in dag.outputs)


def planned_dag(inputs: tuple[str, ...], gates: tuple[Gate, ...],
                outputs: tuple[tuple[str, str], ...]) -> Dag:
    """The DAG with its plan compiled and not checked, for a builder whose
    gates are in order, freshly named, of known kinds and fitting fan-ins."""
    dag = Dag(inputs, gates, outputs)
    vars(dag)["_plan"] = _compile(dag)
    return dag


def eval_gate(kind: str, table: str | None, vals: list[Ternary]) -> Ternary:
    """One gate on ternary values, as eval_dag evaluates it: the DAG of that
    gate alone, named g, reading one input node per value."""
    names = tuple(map(str, range(len(vals))))
    dag = Dag(names, (Gate("g", kind, names, table),), (("y", "g"),))
    return eval_dag(dag, TernaryWord.from_digits(vals)).digit(0)


def _run(dag: Dag, z: list[int], o: list[int], full: int) -> list[tuple[int, int]]:
    """Rails of every DAG output, given the rails of every input node."""
    ops, out_idx = dag._plan
    for rule, args in ops:
        c0, c1 = rule(z, o, args, full)
        z.append(c0)
        o.append(c1)
    return [(z[i], o[i]) for i in out_idx]


def _word_rails(p: int, width: int, full: int) -> tuple[list[int], list[int]]:
    """The can0 and can1 rails of each digit of the width-digit packed word p, full or 0."""
    digits = [p >> s & 3 for s in range(2 * width - 2, -1, -2)]
    return [full * (d != 1) for d in digits], [full * (d != 0) for d in digits]


def eval_packed(dag: Dag, x: int) -> int:
    """The packed output word of the DAG on one packed input word: no word is built."""
    packed = 0
    for c0, c1 in _run(dag, *_word_rails(x, len(dag.inputs), 1), 1):
        packed = packed << 2 | c1 + (c0 & c1)
    return packed


def eval_dag(dag: Dag, x: TernaryWord) -> TernaryWord:
    """Evaluate the DAG on one ternary input word, one digit per input node."""
    if x.width != len(dag.inputs):
        raise InputError(f"input width {x.width} does not match {len(dag.inputs)} input nodes")
    return TernaryWord(len(dag.outputs), eval_packed(dag, x.packed))


def per_width(build):
    """build(width, *more), kept in table.kept per arguments while the width is
    at most 10 (the widths the analysis takes), and built per call above."""
    kept = functools.cache(build)

    @functools.wraps(build)
    def table(width: int, *more):
        return (kept if width <= 10 else build)(width, *more)
    table.kept = kept
    return table


@per_width
def digit_lanes(m: int) -> tuple[tuple[int, int], ...]:
    """Rails of every digit of the m-digit words over all of them at once:
    lane L is word L in all_words order."""
    rails, lanes = (), 1
    for _ in range(m):
        # a new leading digit reads 0, 1, M on three runs of the old lanes,
        # and every old digit repeats on each run
        run, tri = (1 << lanes) - 1, lambda x: x | x << lanes | x << 2 * lanes
        rails = ((tri(run) ^ run << lanes, tri(run) ^ run),) + \
            tuple((tri(z), tri(o)) for z, o in rails)
        lanes *= 3
    return rails


def eval_lanes(dag: Dag, m: int, rest: TernaryWord) -> list[tuple[int, int]]:
    """Rails of every DAG output over all 3^m words x at once, as by
    eval_dag(dag, x.concat(rest)): lane L is word L in all_words order."""
    if m + rest.width != len(dag.inputs):
        raise InputError(f"input width {m + rest.width} does not match "
                         f"{len(dag.inputs)} input nodes")
    full = (1 << 3 ** m) - 1
    lanes, (z, o) = digit_lanes(m), _word_rails(rest.packed, rest.width, full)
    return _run(dag, [a for a, _ in lanes] + z, [b for _, b in lanes] + o, full)


def lane_word(rails: list[tuple[int, int]], lane: int) -> TernaryWord:
    """The word one lane carries, one digit per rail pair."""
    packed = 0
    for c0, c1 in rails:
        c0, c1 = c0 >> lane & 1, c1 >> lane & 1
        packed = packed << 2 | (c1 + (c0 & c1))
    return TernaryWord(len(rails), packed)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
# the members by their text, for parse_netlist: a dict read costs less than an Enum call
_ROLES, _RTYPES = ({e.value: e for e in enum} for enum in (Role, RegType))


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

    out.extend(_dag_findings(c.dag))
    return out


def _dag_findings(dag: Dag) -> Iterator[str]:
    """validate's findings on the DAG itself, in gate order, then in output
    order: bad or colliding gate ids, unknown kinds, fan-ins out of the
    kind's bounds, TABLE bits that are not 2^fan-in zeros and ones, and
    references to nodes not defined before."""
    defined, outs = set(dag.inputs), {name for name, _ in dag.outputs}
    for g in dag.gates:
        if not _NAME_RE.match(g.gid):
            yield f"bad gate id {g.gid!r}"
        if g.gid in outs or g.gid in defined:
            yield f"gate id {g.gid} collides with an earlier name"
        (lo, hi, _), arity = GATE_KINDS.get(g.kind, (0, None, None)), len(g.args)
        if g.kind not in GATE_KINDS:
            yield f"gate {g.gid}: unknown kind {g.kind!r}"
        elif g.kind == "TABLE":
            if not g.table or len(g.table) != 1 << arity or set(g.table) - {"0", "1"}:
                yield f"gate {g.gid}: TABLE bits must be 2^{arity} characters over 0/1"
        elif arity < lo or hi is not None and arity > hi:
            yield (f"gate {g.gid}: {g.kind} takes {'at least' if hi is None else 'exactly'} "
                   f"{lo} inputs, got {arity}")
        for a in g.args:
            if a not in defined:
                yield _USED_EARLY.format(g.gid, a)
        defined.add(g.gid)
    for name, src in dag.outputs:
        if src not in defined:
            yield f"register {name} is driven by {src!r} which is not an input node or gate"


_USED_EARLY = "gate {} uses {!r} before it is defined (undeclared, a cycle, or out of order)"


def dag_toposort(dag: Dag) -> Dag:
    """Reorder gates into the fixed topological order used everywhere:
    among ready gates, earliest declaration first. An undefined reference
    or a cycle raises validate's text for the first gate it holds back."""
    seen = set(dag.inputs).difference(g.gid for g in dag.gates)
    for g in dag.gates:
        if not seen.issuperset(g.args):
            break
        seen.add(g.gid)
    else:
        return dag  # each gate follows every gate it names: the heap keeps that order
    by_id, known = {g.gid: i for i, g in enumerate(dag.gates)}, set(dag.inputs)
    waits, users, ready = [0] * len(dag.gates), {}, []
    for i, g in enumerate(dag.gates):
        for a in g.args:
            if a in by_id:
                waits[i] += 1
                users.setdefault(a, []).append(i)
            elif a not in known:
                raise InputError(_USED_EARLY.format(g.gid, a))
        if not waits[i]:
            ready.append(i)  # in ascending order, so already a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in users.get(dag.gates[i].gid, ()):
            waits[j] -= 1
            if not waits[j]:
                heapq.heappush(ready, j)
    if len(order) != len(dag.gates):
        # the first gate left waiting, on a gate never placed
        placed = {dag.gates[i].gid for i in order}
        g = dag.gates[min(set(range(len(dag.gates))).difference(order))]
        raise InputError(_USED_EARLY.format(g.gid, next(a for a in g.args
                                                        if a in by_id and a not in placed)))
    return Dag(dag.inputs, tuple(dag.gates[i] for i in order), dag.outputs)


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
            regs.append(RegisterDecl(tok[1], _ROLES[kw], _rtype(lineno, tok[2]),
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
    if token not in _RTYPES:
        raise ParseError(lineno, f"bad register type {token!r}")
    return _RTYPES[token]


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
    vars(dag)["_checked"] = True  # so _plan does not check it again
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
