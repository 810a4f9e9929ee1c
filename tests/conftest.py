"""Shared fixtures: the worked-example circuit, random corpora, oracles."""

import functools
import itertools
import random

import pytest

from mcsim.executor import Verdict
from mcsim.netlist import (
    Circuit,
    Dag,
    Gate,
    RegisterDecl,
    RegType,
    Role,
    eval_lanes,
    make_circuit,
    parse_netlist,
)
from mcsim.ternary_core import META, ONE, ZERO, InputError, TernaryWord, kleene_extend

ALL_DIGITS = (ZERO, ONE, META)

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


@pytest.fixture(scope="session")
def feedback_circuit() -> Circuit:
    return parse_netlist(FEEDBACK_TEXT)


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


def scalar_eval_dag(dag: Dag, x: TernaryWord) -> TernaryWord:
    """eval_dag by name lookup and scalar_eval_gate, gate after gate."""
    vals = dict(zip(dag.inputs, x.digits()))
    for g in dag.gates:
        vals[g.gid] = scalar_eval_gate(g.kind, g.table, [vals[a] for a in g.args])
    return TernaryWord.from_digits(vals[src] for _, src in dag.outputs)


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
    declaration first, for gates in any order."""
    import heapq
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


# The per-word analysis algorithms that the lane form replaced, kept as
# references: every input is handled on its own, through its resolutions.
def scalar_closure_bool(table):
    """closure_bool's entries: the superposition of the outputs at every
    full resolution of each input."""
    from mcsim.ternary_core import res_full, superpose
    m = len(next(iter(table)))
    return {x: functools.reduce(superpose, (table[y] for y in res_full(x)))
            for x in all_words(m)}


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


def scalar_find_natural_subfunction(g):
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


def recursive_metastable_witness(c, r, iota, iota2, max_states):
    """metastable_witness with its search recursing once per round."""
    from mcsim.analysis import pivotal_sequence
    from mcsim.executor import (
        ExecutionTrace, TraceRound, _Budget, outputs, read_outcomes)
    from mcsim.netlist import eval_dag
    from mcsim.ternary_core import words_compatible
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


def scalar_candidates(g):
    """find_natural_subfunction's candidates read word by word: per stable
    input, the digits of each stable output word its value set holds."""
    return [[e.digits() for e in stable_words(g.n) if v.contains_word(e)]
            for v in map(g.value_cubeset, stable_words(g.m))]


def checked_synthesize(h):
    """synthesize with its circuit built by make_circuit, which sorts the
    gates and validates every name and reference."""
    from mcsim.analysis import _natural_hull, _primes
    from mcsim.netlist import digit_lanes, lane_word
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
        pis = [lane_word(digits, lane) for lane in _primes(digits, o & ~z)]
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
