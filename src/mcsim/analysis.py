"""Which specifications survive metastable inputs, and how to build them.

A function specification maps every ternary input word to a set of allowed
output words. Natural specifications (bit-wise, closed, specific) are the
ones simple-register circuits can realize in one round; the metastable
closure produces the tightest natural extension of a Boolean function, and
the prime-implicant construction turns any natural specification into a
circuit. Pivotal sequences and the witness search demonstrate the converse:
between inputs with disjoint output sets, metastability must appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping, Optional

from .executor import ExecutionTrace, TraceRound, _Budget, outputs, read_outcomes
from .netlist import (
    Circuit,
    Gate,
    RegisterDecl,
    RegType,
    Role,
    eval_dag,
    make_circuit,
)
from .ternary_core import (
    DEFAULT_MAX_META_BITS,
    DEFAULT_MAX_STATES,
    META,
    ONE,
    ZERO,
    CubeSet,
    InputError,
    ParseError,
    TernaryWord,
    all_words,
    content_lines,
    res_contains,
    res_full,
    res_members,
    stable_words,
    superpose,
    words_compatible,
)


@dataclass(frozen=True)
class FunctionSpec:
    """A specification: every m-digit input word gets a set of allowed outputs.

    Natural form keeps one entry word per input; digit 0 or 1 pins that
    output bit, digit M leaves it completely unconstrained (printed as *
    in table files). General form keeps an arbitrary nonempty cube set
    per input. Build instances with natural_spec/general_spec.
    """
    m: int
    n: int
    entries: Optional[dict] = None
    values: Optional[dict] = None

    @property
    def is_natural_form(self) -> bool:
        return self.entries is not None

    def entry(self, x: TernaryWord) -> TernaryWord:
        if self.entries is None:
            raise InputError("not a natural-form specification")
        return self.entries[x]

    def value_cubeset(self, x: TernaryWord) -> CubeSet:
        if self.entries is not None:
            return CubeSet(self.n, (self.entries[x],))
        return self.values[x]


def _full_domain(m: int, given: Mapping, check: Callable) -> dict:
    """given as a dict over all m-digit words in lex order. Raises at the first
    input missing or rejected by check(x, value), or on words of other widths."""
    table = {}
    for x in all_words(m):
        v = given.get(x)
        if v is None:
            raise InputError(f"specification misses input {x}")
        check(x, v)
        table[x] = v
    if len(given) != len(table):
        raise InputError("specification has inputs of the wrong width")
    return table


def natural_spec(m: int, n: int,
                 entries: Mapping[TernaryWord, TernaryWord]) -> FunctionSpec:
    def check(x, e):
        if len(e) != n:
            raise InputError(f"entry for {x} has width {len(e)}, expected {n}")
    return FunctionSpec(m, n, entries=_full_domain(m, entries, check))


def general_spec(m: int, n: int,
                 values: Mapping[TernaryWord, CubeSet]) -> FunctionSpec:
    def check(x, v):
        if v.width != n or len(v) == 0:
            raise InputError(f"value for {x} must be a nonempty set of "
                             f"{n}-digit cubes")
    return FunctionSpec(m, n, values=_full_domain(m, values, check))


# ---------------------------------------------------------------------------
# Metastable closure and the natural-function tests

def _check_bool_table(table: Mapping[TernaryWord, TernaryWord]):
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


def closure_bool(table: Mapping[TernaryWord, TernaryWord]) -> FunctionSpec:
    """Tightest natural extension of a Boolean function: each input maps to
    the superposition of the outputs at all its full resolutions.

    Output bit i is pinned wherever all full resolutions of the input
    agree on it, and unconstrained otherwise.
    """
    m, n = _check_bool_table(table)
    entries = {x: reduce(superpose, (table[y] for y in res_full(x)))
               for x in all_words(m)}
    return FunctionSpec(m, n, entries=entries)


def closure_general(f: FunctionSpec,
                    max_meta_bits: int = DEFAULT_MAX_META_BITS) -> FunctionSpec:
    """Closure of an arbitrary specification, quantified over all partial
    resolutions: a bit stays pinned to b only if every partial resolution
    allows exactly b there. Each entry is the superposition of every
    allowed cube at every partial resolution of the input."""
    entries = {x: reduce(superpose, (c for x2 in res_members(x, max_meta_bits)
                                     for c in f.value_cubeset(x2)))
               for x in all_words(f.m)}
    return FunctionSpec(f.m, f.n, entries=entries)


def _cube_form(v: CubeSet) -> Optional[TernaryWord]:
    """The single cube a value set equals, or None if it is not a cube."""
    e = reduce(superpose, v)
    # every member cube sits inside e by construction; equality holds
    # exactly when e itself is an allowed member
    return e if v.contains_word(e) else None


def _entry_view(f: FunctionSpec) -> Optional[dict]:
    """Entry words for f if every value set is a cube, else None."""
    if f.entries is not None:
        return f.entries
    view = {}
    for x, v in f.values.items():
        e = _cube_form(v)
        if e is None:
            return None
        view[x] = e
    return view


def is_natural(f: FunctionSpec) -> bool:
    """Bit-wise, closed, and specific: every value set is a single cube,
    and stabilizing any input only shrinks the value set."""
    view = _entry_view(f)
    if view is None:
        return False
    for x, e in view.items():
        if x.is_stable:
            continue
        if any(not res_contains(e, view[y]) for y in res_full(x)):
            return False
    return True


# ---------------------------------------------------------------------------
# Natural subfunctions (the implementability test)

def find_natural_subfunction(g: FunctionSpec,
                             max_nodes: int = DEFAULT_MAX_STATES,
                             ) -> Optional[FunctionSpec]:
    """A natural specification inside g, or None if no such thing exists.

    Searches one Boolean output word per stable input (larger entries at
    stable inputs never help); each metastable input is then forced to
    the superposition of its resolutions' choices, which must still fit
    inside g. Backtracks over the stable choices, tightest first.
    """
    if g.m > 8:
        raise InputError("natural-subfunction search is capped at 8 inputs")
    m, n = g.m, g.n
    ys = list(stable_words(m))
    candidates = {}
    for y in ys:
        val = g.value_cubeset(y)
        cands = [e for e in stable_words(n) if val.contains_word(e)]
        if not cands:
            return None
        candidates[y] = cands

    # per metastable input: its allowed cubes, and the join (superposition)
    # of the choices made so far at its full resolutions
    allowed = {}
    joins = {}
    touched = {y: [] for y in ys}
    for x in all_words(m):
        if not x.is_stable:
            allowed[x] = g.value_cubeset(x)
            joins[x] = None
            for y in res_full(x):
                touched[y].append(x)

    chosen = {}
    budget = _Budget(max_nodes, "subfunction search")

    def assign(idx: int) -> bool:
        if idx == len(ys):
            return True
        y = ys[idx]
        for e in candidates[y]:
            budget.spend(1)
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

    if not assign(0):
        return None
    return FunctionSpec(m, n, entries={**chosen, **joins})


# ---------------------------------------------------------------------------
# Prime implicants and circuit synthesis

# Synthesis hits the same single-bit tables over and over; prime
# implicants are a pure function of the minterm set, so memoize. The
# bound holds all 278 tables of up to 3 inputs; past it the oldest goes.
_PI_MEMO: dict = {}
_PI_MEMO_MAX = 1024


def prime_implicants(table: Mapping[TernaryWord, object]) -> tuple[TernaryWord, ...]:
    """All prime implicants of a single-output Boolean table.

    Implicants are cube words: M digits are unconstrained. Iteratively
    merges cubes differing in one pinned digit; whatever never merges is
    prime.
    """
    if not table:
        raise InputError("empty truth table")
    m = len(next(iter(table)))
    if m > 10:
        raise InputError("prime implicants are capped at 10 inputs")
    minterms = set()
    for x, bit in table.items():
        if not x.is_stable or len(x) != m:
            raise InputError(f"truth-table input {x} must be stable, width {m}")
        if bit not in (0, 1, ZERO, ONE):
            raise InputError(f"truth-table value for {x} must be 0 or 1")
        if bit in (1, ONE):
            minterms.add(x)
    if len(table) != 1 << m:
        raise InputError(f"truth table needs all {1 << m} input rows")

    key = (m, frozenset(minterms))
    hit = _PI_MEMO.get(key)
    if hit is not None:
        return hit

    prime = set()
    current = minterms
    while current:
        merged_away = set()
        nxt = set()
        for c in current:
            for i in range(m):
                if c.digit(i) is ZERO:
                    up = c.with_digit(i, ONE)
                    if up in current:
                        nxt.add(superpose(c, up))
                        merged_away |= {c, up}
        prime |= current - merged_away
        current = nxt
    result = tuple(sorted(prime))
    if len(_PI_MEMO) >= _PI_MEMO_MAX:
        del _PI_MEMO[next(iter(_PI_MEMO))]
    _PI_MEMO[key] = result
    return result


def synthesize(h: FunctionSpec) -> Circuit:
    """A circuit whose single round realizes the natural specification h.

    Per output bit: take the Boolean restriction (entry 1 means 1, entry
    0 or unconstrained means 0) and build one AND gate per prime
    implicant, all feeding one OR. Keeping every prime implicant is what
    contains metastability: any input whose stable resolutions agree is
    covered by some all-stable implicant term.
    """
    if not is_natural(h):
        raise InputError("specification is not natural")
    entries = _entry_view(h)
    m, n = h.m, h.n
    regs = [RegisterDecl(f"x{j}", Role.INPUT, RegType.SIMPLE)
            for j in range(m)]
    regs += [RegisterDecl(f"y{i}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for i in range(n)]
    gates: list[Gate] = []
    drives: dict[str, str] = {}
    nots: dict[int, str] = {}

    def negated(j: int) -> str:
        gid = nots.get(j)
        if gid is None:
            gid = f"not_x{j}"
            nots[j] = gid
            gates.append(Gate(gid, "NOT", (f"x{j}",)))
        return gid

    for i in range(n):
        table = {y: 1 if entries[y].digit(i) is ONE else 0
                 for y in stable_words(m)}
        pis = prime_implicants(table)
        if not pis:
            gates.append(Gate(f"y{i}_zero", "CONST0", ()))
            drives[f"y{i}"] = f"y{i}_zero"
            continue
        if len(pis) == 1 and pis[0].meta_count() == m:
            gates.append(Gate(f"y{i}_one", "CONST1", ()))
            drives[f"y{i}"] = f"y{i}_one"
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


# ---------------------------------------------------------------------------
# Unrolling

def unroll(c: Circuit, r: int) -> Circuit:
    """One circuit whose single round behaves like r rounds of c.

    Chains r copies of the DAG: input registers feed every copy, local
    register seams become BUF gates, and each copy's early output values
    end in BUF sinks that nothing reads. Only simple registers allowed;
    a masked read could change between the rounds being collapsed.
    """
    if r < 1:
        raise InputError("unroll needs at least one round")
    if any(reg.rtype is not RegType.SIMPLE for reg in c.registers):
        raise InputError("unrolling requires simple registers only")
    drive = dict(c.dag.outputs)
    input_names = {reg.name for reg in c.input_regs}
    local_names = {reg.name for reg in c.local_regs}

    def resolve(t: int, src: str) -> str:
        if src in input_names:
            return src
        if src in local_names:
            return src if t == 1 else f"{src}__u{t}"
        return f"{src}__u{t}"

    gates: list[Gate] = []
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


# ---------------------------------------------------------------------------
# Pivotal sequences and metastability witnesses

@dataclass(frozen=True)
class PivotalSequence:
    """Words stepping between two inputs one bit at a time, through M."""
    words: tuple[TernaryWord, ...]

    def __post_init__(self):
        if not self.words:
            raise InputError("empty pivotal sequence")
        for a, b in zip(self.words, self.words[1:]):
            diff = [i for i in range(len(a)) if a.digit(i) is not b.digit(i)]
            if len(diff) != 1:
                raise InputError(f"{a} -> {b}: must differ in exactly one bit")
            i = diff[0]
            if a.digit(i) is not META and b.digit(i) is not META:
                raise InputError(f"{a} -> {b}: the changing bit must pass "
                                 "through M")

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return len(self.words)


def pivotal_sequence(x: TernaryWord, x2: TernaryWord) -> PivotalSequence:
    """A pivotal sequence from x to x2, least significant bits first."""
    if len(x) != len(x2):
        raise InputError("pivotal endpoints must have equal width")
    words = [x]
    cur = x
    for i in range(len(x) - 1, -1, -1):
        a, b = cur.digit(i), x2.digit(i)
        if a is b:
            continue
        if a is not META and b is not META:
            cur = cur.with_digit(i, META)
            words.append(cur)
        cur = cur.with_digit(i, b)
        words.append(cur)
    return PivotalSequence(tuple(words))


def metastable_witness(c: Circuit, r: int,
                       iota: TernaryWord, iota2: TernaryWord,
                       max_states: Optional[int] = DEFAULT_MAX_STATES,
                       ) -> Optional[ExecutionTrace]:
    """An r-round execution ending with a metastable output bit, reached
    from some input between iota and iota2 on a pivotal sequence.

    Returns None when the two output sets overlap (then no input between
    them is forced into metastability). Otherwise walks the pivotal
    sequence until some input's round-r output set shows a metastable
    bit, then extracts a trace for it. Writing back the evaluation
    unchanged dominates every other write choice, so the trace search
    branches over read outcomes only.
    """
    a = outputs(c, iota, r, max_states)
    b = outputs(c, iota2, r, max_states)
    if any(words_compatible(u, v) for u in a for v in b):
        return None

    width = c.m + c.k + c.n
    out_lo = width - c.n
    budget = _Budget(max_states, "witness search")
    failed: set[tuple[TernaryWord, int]] = set()

    def dfs(state: TernaryWord, remaining: int):
        if remaining == 0:
            if any(state.digit(i) is META for i in range(out_lo, width)):
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
        outs = outputs(c, p, r, max_states)
        if not any(cube.meta_count() for cube in outs):
            continue
        rows = dfs(p.concat(c.init_word()), r)
        if rows is None:
            raise RuntimeError("reach set shows a metastable output but no "
                               "execution realizes it; this cannot happen")
        return ExecutionTrace(tuple(rows))
    raise RuntimeError("disjoint outputs but no pivotal metastability; "
                       "this cannot happen for exact reach sets")


# ---------------------------------------------------------------------------
# Table files

def _read_table(text: str, kind: str, what: str):
    """The `<kind> m=<m> n=<n>` header of a table file, then a generator of
    its `(lineno, lhs, rhs)` rows; a row without `->` raises when reached."""
    lines = content_lines(text)
    lineno, line = next(lines, (1, None))
    if line is None:
        raise ParseError(1, f"missing {kind} header")
    tok = line.split()
    if len(tok) != 3 or tok[0] != kind \
            or not tok[1].startswith("m=") or not tok[2].startswith("n="):
        raise ParseError(lineno, f"expected header: {kind} m=<m> n=<n>")
    try:
        m, n = int(tok[1][2:]), int(tok[2][2:])
    except ValueError:
        m = n = -1
    if m < 0 or n < 0:
        raise ParseError(lineno, "bad arity in header")

    def rows():
        for lineno, line in lines:
            if "->" not in line:
                raise ParseError(lineno, f"expected: <input> -> <{what}>")
            lhs, rhs = (s.strip() for s in line.split("->", 1))
            yield lineno, lhs, rhs
    return m, n, rows()


def parse_spec_table(text: str) -> FunctionSpec:
    """Read a specification table.

    Header `spec m=<m> n=<n>`, then one `<input> -> <rhs>` line per input
    word. A rhs with * digits is a natural entry; cubes separated by
    commas (or containing M) form a general value; the two styles cannot
    be mixed in one file.
    """
    m, n, rows = _read_table(text, "spec", "outputs")
    rows = list(rows)
    natural = any("*" in rhs for _, _, rhs in rows)
    general = any("M" in rhs or "," in rhs for _, _, rhs in rows)
    if natural and general:
        raise InputError("table mixes natural (*) and general (M or ,) rows")

    entries: dict = {}
    values: dict = {}
    for lineno, lhs, rhs in rows:
        try:
            x = TernaryWord.parse(lhs)
        except InputError as e:
            raise ParseError(lineno, str(e)) from None
        if x in entries or x in values:
            raise ParseError(lineno, f"input {x} listed twice")
        try:
            if general:
                cubes = [TernaryWord.parse(tok.strip())
                         for tok in rhs.split(",")]
                values[x] = CubeSet.of(n, cubes)
            else:
                entries[x] = TernaryWord.parse(rhs.replace("*", "M"))
        except InputError as e:
            raise ParseError(lineno, str(e)) from None
    if general:
        return general_spec(m, n, values)
    return natural_spec(m, n, entries)


def emit_spec_table(f: FunctionSpec) -> str:
    lines = [f"spec m={f.m} n={f.n}"]
    for x in all_words(f.m):
        if f.is_natural_form:
            rhs = str(f.entries[x]).replace("M", "*")
        else:
            rhs = ", ".join(str(c) for c in f.values[x])
        lines.append(f"{x} -> {rhs}")
    return "\n".join(lines) + "\n"


def parse_truth_table(text: str) -> dict[TernaryWord, TernaryWord]:
    """Read a Boolean truth table: header `table m=<m> n=<n>`, then all
    2^m lines `<input> -> <output>` over stable words."""
    m, n, rows = _read_table(text, "table", "output")
    table: dict[TernaryWord, TernaryWord] = {}
    for lineno, lhs, rhs in rows:
        try:
            x, y = TernaryWord.parse(lhs), TernaryWord.parse(rhs)
        except InputError as e:
            raise ParseError(lineno, str(e)) from None
        if not x.is_stable or not y.is_stable:
            raise ParseError(lineno, "truth tables are stable words only")
        if len(x) != m or len(y) != n:
            raise ParseError(lineno, "row width disagrees with header")
        if x in table:
            raise ParseError(lineno, f"input {x} listed twice")
        table[x] = y
    if len(table) != 1 << m:
        raise InputError(f"truth table needs all {1 << m} input rows")
    return table


def emit_truth_table(table: Mapping[TernaryWord, TernaryWord]) -> str:
    m, n = _check_bool_table(table)
    lines = [f"table m={m} n={n}"]
    for x in stable_words(m):
        lines.append(f"{x} -> {table[x]}")
    return "\n".join(lines) + "\n"
