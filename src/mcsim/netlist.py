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
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from enum import Enum

from .ternary_core import (
    CHAR_TO_DIGIT,
    META,
    ONE,
    ZERO,
    InputError,
    ParseError,
    Ternary,
    TernaryWord,
    _frozen,
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
    """A value derived from an immutable instance on first read and kept in its
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


class RegisterDecl(namedtuple("RegisterDecl", "name role rtype init", defaults=(None,))):
    """One register: unique name, exactly one role, one type.

    Input registers are never written and carry no init value (None).
    """
    __slots__ = ()


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


class Gate(namedtuple("Gate", "gid kind args table", defaults=(None,))):
    """Single-output gate; args name input nodes or earlier gates; table: TABLE's 2^arity bits."""
    __slots__ = ()

    def __str__(self) -> str:
        kind = f"TABLE:{self.table}" if self.kind == "TABLE" else self.kind
        return " ".join(["gate", self.gid, kind, *self.args])


class Dag(namedtuple("Dag", "inputs gates outputs")):
    """Combinational DAG: named input nodes, gates, fan-in-1 output nodes.

    outputs lists (node name, source ref) pairs; a source ref is an input
    node name or a gate id. Gates must appear in topological order (see
    dag_toposort); validate() reports violations instead of raising.
    """
    __setattr__ = __delattr__ = _frozen
    _memo = _derived(lambda self: {})   # not a field: read word -> evaluation, for eval_memo

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
        return _compile(self if gates == self.gates else Dag(self.inputs, gates, self.outputs))

    def __getstate__(self):
        # the plan's closures and compiled chunks do not pickle, and the memo only saves work
        return {k: v for k, v in vars(self).items() if k not in ("_plan", "_memo")}


class Circuit(namedtuple("Circuit", "name registers dag")):
    """Register declarations plus the DAG that rewrites them every round."""
    __setattr__ = __delattr__ = _frozen

    def regs(self, role: Role) -> tuple[RegisterDecl, ...]:
        return tuple(r for r in self.registers if r.role is role)

    # read on every check and round, so each is derived once (see _derived)
    input_regs = _derived(lambda self: self.regs(Role.INPUT))
    local_regs = _derived(lambda self: self.regs(Role.LOCAL))
    output_regs = _derived(lambda self: self.regs(Role.OUTPUT))
    m = _derived(lambda self: len(self.input_regs))
    k = _derived(lambda self: len(self.local_regs))
    n = _derived(lambda self: len(self.output_regs))
    # the widths of a trace row's state, read, evaluation and written words
    trace_widths = _derived(lambda c: (c.m + c.k + c.n, c.m + c.k, c.k + c.n, c.k + c.n))

    @_derived
    def _init(self) -> TernaryWord:
        return TernaryWord.from_digits(r.init for r in self.local_regs + self.output_regs)

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

def _fold(op: str, names: list[str]) -> str:
    """The names joined by op as a balanced tree: CPython cannot compile a chain of thousands."""
    half = len(names) // 2
    return f"({_fold(op, names[:half])}) {op} ({_fold(op, names[half:])})" if half else names[0]


def _shannon(z: list[str], o: list[str], rows: str) -> tuple[str, str]:
    """TABLE's template, by Shannon's expansion on the first input: can_b is
    z0 & can_b(low half) | o0 & can_b(high half). Equal halves are one, since
    z0 | o0 is full in every lane, so a half of only b rows reads full, and of none 0."""
    if len(rows) == 1:
        return ("full", "0") if rows == "0" else ("0", "full")
    lo, hi = rows[:len(rows) // 2], rows[len(rows) // 2:]
    if lo == hi:
        return _shannon(z[1:], o[1:], lo)
    return tuple(" | ".join(rail if can == "full" else f"{rail} & ({can})"
                            for rail, can in ((z[0], low), (o[0], high)) if can != "0")
                 for low, high in zip(_shannon(z[1:], o[1:], lo), _shannon(z[1:], o[1:], hi)))


# kind -> (fewest inputs, most inputs or None, template: the output's (can0, can1) as text over
# the arguments' rail names, given the TABLE bits); OR is AND on swapped rails, swapped back.
# TABLE's text grows as 2^fan-in (a rule at 10 inputs builds in 25 ms, peaking at 6 MB): its cap.
GATE_KINDS = {
    "AND": (2, None, lambda z, o, t: (_fold("|", z), _fold("&", o))),
    "OR": (2, None, lambda z, o, t: (_fold("&", z), _fold("|", o))),
    "NAND": (2, None, lambda z, o, t: (_fold("&", o), _fold("|", z))),
    "NOR": (2, None, lambda z, o, t: (_fold("|", o), _fold("&", z))),
    "XOR": (2, 2, lambda z, o, t: (f"{z[0]} & {z[1]} | {o[0]} & {o[1]}",
                                   f"{o[0]} & {z[1]} | {z[0]} & {o[1]}")),
    "NOT": (1, 1, lambda z, o, t: (o[0], z[0])),
    "BUF": (1, 1, lambda z, o, t: (z[0], o[0])),
    "CONST0": (0, 0, lambda z, o, t: ("full", "0")),
    "CONST1": (0, 0, lambda z, o, t: ("0", "full")),
    "TABLE": (0, 10, _shannon),
}


@functools.lru_cache(maxsize=512)
def _rule(kind: str, arity: int, table: str | None):
    """A gate's rule, written from its kind's template at its fan-in (and TABLE bits) and
    carrying that template for _chunks; the last 512 are kept, whatever the bits."""
    rule = eval("lambda z, o, a, full: (%s, %s)" % GATE_KINDS[kind][2](
        *([f"{rail}[a[{i}]]" for i in range(arity)] for rail in "zo"), table))
    rule.template = lambda z, o: GATE_KINDS[kind][2](z, o, table)
    return rule


# A plan runs its rules one by one for _COMPILE_AFTER runs, then as compiled chunks. On the
# clock-sync pipelines (58-435 ops; 2-core host, Python 3.11) a compile costs what 240-330 runs
# save (33-64 us against 0.13-0.21 us per op), whatever the size. CPython's compiler peaks near
# 12 KB per op of one function (5.2 MB at 435 ops), so a chunk of _CHUNK ops peaks near 1 MB.
_COMPILE_AFTER, _CHUNK = 240, 64


def _compile(dag: Dag):
    """The plan of a DAG with no findings: per gate its rule (see _rule) and its
    argument indices (inputs first, then gates in order), each output's index, the runs
    left before it is compiled, and its compiled chunks (None until then)."""
    index = {name: i for i, name in enumerate((*dag.inputs, *(g.gid for g in dag.gates)))}
    ops = [(_rule(g.kind, len(g.args), g.table), tuple(map(index.__getitem__, g.args)))
           for g in dag.gates]
    return [ops, tuple(index[src] for _, src in dag.outputs), _COMPILE_AFTER, None]


def _chunks(plan: list, base: int) -> list:
    """The plan's ops, results at rail index base on, compiled and kept in it as functions of at
    most _CHUNK ops. Each names only z, o, full and, per rail index i, locals z<i> and o<i>: it
    loads what it reads from earlier, computes its ops from their templates, extends z and o."""
    ops, chunks, ns = plan[0], [], {}
    for start in range(base, base + len(ops), _CHUNK):
        part = list(enumerate(ops[start - base:start - base + _CHUNK], start))
        lines = [f"z{a}, o{a} = z[{a}], o[{a}]"
                 for a in sorted({a for _, (_, args) in part for a in args if a < start})]
        lines += [f"z{i}, o{i} = %s, %s" % rule.template([f"z{a}" for a in args],
                                                         [f"o{a}" for a in args])
                  for i, (rule, args) in part]
        lines += [f"{rail}.extend([{', '.join(f'{rail}{i}' for i, _ in part)}])" for rail in "zo"]
        exec(compile("def chunk(z, o, full):\n    " + "\n    ".join(lines), "<plan>", "exec"), ns)
        chunks.append(ns.pop("chunk"))
    plan[3] = chunks
    return chunks


def planned_dag(inputs: tuple[str, ...], gates: tuple[Gate, ...],
                outputs: tuple[tuple[str, str], ...]) -> Dag:
    """The DAG with its plan compiled and not checked, for a builder whose
    gates are in order, freshly named, of known kinds and fitting fan-ins."""
    dag = Dag(inputs, gates, outputs)
    vars(dag)["_plan"] = _compile(dag)
    return dag


def _run(dag: Dag, z: list[int], o: list[int], full: int) -> list[tuple[int, int]]:
    """Rails of every DAG output, given the rails of every input node."""
    ops, out_idx, left, chunks = plan = dag._plan
    if left:
        plan[2] = left - 1
        for rule, args in ops:
            c0, c1 = rule(z, o, args, full)
            z.append(c0)
            o.append(c1)
    else:
        for chunk in chunks or _chunks(plan, len(z)):
            chunk(z, o, full)
    return [(z[i], o[i]) for i in out_idx]


def _word_rails(p: int, width: int, full: int) -> tuple[list[int], list[int]]:
    """The can0 and can1 rails of each digit of the width-digit packed word p, full or 0."""
    z, o = [], []
    for s in range(2 * width - 2, -1, -2):
        d = p >> s & 3
        z.append(0 if d == 1 else full)
        o.append(0 if d == 0 else full)
    return z, o


def _packed(rails: list[tuple[int, int]]) -> int:
    """The packed word whose digits have these one-lane rails."""
    packed = 0
    for c0, c1 in rails:
        packed = packed << 2 | c1 + (c0 & c1)
    return packed


def eval_packed(dag: Dag, x: int) -> int:
    """The packed output word of the DAG on one packed input word: no word is built."""
    return _packed(_run(dag, *_word_rails(x, len(dag.inputs), 1), 1))


_MEMO_CAP = 1024   # words per DAG; a sequential-sim benchmark DAG sees at most 537


def eval_memo(dag: Dag, x: int) -> int:
    """eval_packed(dag, x), kept in the DAG's memo for the first _MEMO_CAP words x it sees."""
    if (y := (memo := dag._memo).get(x)) is None and len(memo) < _MEMO_CAP:
        y = memo[x] = eval_packed(dag, x)
    return eval_packed(dag, x) if y is None else y


def eval_dag(dag: Dag, x: TernaryWord) -> TernaryWord:
    """Evaluate the DAG on one ternary input word, one digit per input node."""
    if x.width != len(dag.inputs):
        raise InputError(f"input width {x.width} does not match {len(dag.inputs)} input nodes")
    return TernaryWord(len(dag.outputs), eval_packed(dag, x.packed))


def per_width(build):
    """build(width, *more), kept in table.kept per arguments while every argument is
    at most 10 (the widths the analysis takes), and built per call above."""
    kept = functools.cache(build)

    @functools.wraps(build)
    def table(width: int, *more):
        # a lone width, the common call, pays no max()
        return (kept if width <= 10 and (not more or max(more) <= 10) else build)(width, *more)
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
    return TernaryWord(len(rails), _packed([(z >> lane & 1, o >> lane & 1) for z, o in rails]))


def _named(s: str) -> bool:
    """s is an ASCII letter or _, then ASCII letters, digits, _ and ."""
    return s[:1] != "." and s.isascii() and s.replace(".", "_").isidentifier()


# the members by their text, for parse_netlist: a dict read costs less than an Enum call
_ROLES, _RTYPES = ({e.value: e for e in enum} for enum in (Role, RegType))


def validate(c: Circuit) -> list[str]:
    """All structural violations, as human-readable strings; [] iff valid."""
    out: list[str] = []
    if c.name.split() != [c.name] or "#" in c.name:  # else emit_netlist's text misreads it
        out.append(f"bad circuit name {c.name!r}")
    seen: dict[str, RegisterDecl] = {}
    for r in c.registers:
        if not _named(r.name):
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
        if not _named(g.gid):
            yield f"bad gate id {g.gid!r}"
        if g.gid in outs or g.gid in defined:
            yield f"gate id {g.gid} collides with an earlier name"
        (lo, hi, _), arity = GATE_KINDS.get(g.kind, (0, None, None)), len(g.args)
        if g.kind not in GATE_KINDS:
            yield f"gate {g.gid}: unknown kind {g.kind!r}"
        elif arity < lo or hi is not None and arity > hi:
            bound = f"at least {lo}" if hi is None else f"exactly {lo}" if lo == hi else \
                f"at most {hi}"
            yield f"gate {g.gid}: {g.kind} takes {bound} inputs, got {arity}"
        elif g.kind == "TABLE" and (
                not g.table or len(g.table) != 1 << arity or set(g.table) - {"0", "1"}):
            yield f"gate {g.gid}: TABLE bits must be 2^{arity} characters over 0/1"
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
