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

from dataclasses import dataclass, field
from functools import reduce
from operator import and_
from typing import Callable, Mapping, Optional

from .executor import (ExecutionTrace, TraceRound, _Budget, _rails, check_round_budget,
                       covered, outputs, read_outcomes, spec_layers)
from .netlist import (
    Circuit,
    Dag,
    Gate,
    RegisterDecl,
    RegType,
    Role,
    digit_lanes,
    eval_dag,
    lane_word,
    make_circuit,
    splice_dag,
)
from .ternary_core import (
    DEFAULT_MAX_STATES,
    META,
    ONE,
    ZERO,
    CubeSet,
    InputError,
    ParseError,
    TernaryWord,
    _meta_mask,
    all_words,
    content_lines,
    stable_words,
)


class _Entries:
    """FunctionSpec.entries of a lane-built spec: its rails, decoded on first read."""

    def __get__(self, f, owner=None):
        if f is None:
            return None  # the field's default
        entries = vars(f)["entries"] = _decode(f.m, f.n, f.rails)
        return entries


@dataclass(frozen=True)
class FunctionSpec:
    """A specification: every m-digit input word gets a set of allowed outputs.

    Natural form keeps one entry word per input; digit 0 or 1 pins that
    output bit, digit M leaves it completely unconstrained (printed as *
    in table files). General form keeps an arbitrary nonempty cube set
    per input. Build instances with natural_spec/general_spec. A natural
    spec computed on lanes keeps its entries as the rails of spec_layers.
    """
    m: int
    n: int
    entries: Optional[dict] = _Entries()
    values: Optional[dict] = None
    rails: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.rails is not None and self.entries is None:
            del vars(self)["entries"]  # read through _Entries

    @property
    def is_natural_form(self) -> bool:
        return self.rails is not None or self.entries is not None

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


def _zeta(digits: list[tuple[int, int]], rails: list[tuple[int, int]]):
    """Each lane's rails joined with those of every partial resolution of
    its word (digits are the digit_lanes): digit by digit, an M lane
    takes the union of its 0 and 1 neighbours."""
    for i, (z, o) in enumerate(digits):
        s = 3 ** (len(digits) - 1 - i)
        zero, one = z & ~o, o & ~z
        rails = [(a | (a & zero) << 2 * s | (a & one) << s,
                  b | (b & zero) << 2 * s | (b & one) << s) for a, b in rails]
    return tuple(rails)


def _stable_part(digits: list[tuple[int, int]], rails: list[tuple[int, int]]):
    """The rails on the stable lanes, where no digit reads both 0 and 1."""
    stable = reduce(and_, (z ^ o for z, o in digits), (1 << 3 ** len(digits)) - 1)
    return [(z & stable, o & stable) for z, o in rails]


def _decode(m: int, n: int, rails) -> dict:
    """The entries the rails carry: word L of all_words(m) maps to lane L's word."""
    lanes, size = 3 ** m, 2 * n + 1
    # lane L is chars[L * size:][:size]: a 0 (for n = 0), then each digit's M and 1 bit
    chars = bytearray(b"0" * lanes * size)
    for j, (c0, c1) in enumerate(rails):
        chars[2 * j + 1::size] = format(c0 & c1, f"0{lanes}b")[::-1].encode()
        chars[2 * j + 2::size] = format(c1 & ~c0, f"0{lanes}b")[::-1].encode()
    return {x: TernaryWord(n, int(chars[i:i + size], 2))
            for x, i in zip(all_words(m), range(0, lanes * size, size))}


def closure_bool(table: Mapping[TernaryWord, TernaryWord]) -> FunctionSpec:
    """Tightest natural extension of a Boolean function: each input maps to
    the superposition of the outputs at all its full resolutions.

    Output bit i is pinned wherever all full resolutions of the input
    agree on it, and unconstrained otherwise. With the outputs on the
    stable lanes, each M digit takes the union of its 0 and 1 neighbours.
    """
    m, n = _check_bool_table(table)
    rows = [TernaryWord(n, 0)] * 3 ** m
    for k, y in enumerate(stable_words(m)):
        # stable word k sits on the lane its binary digits name in base 3
        rows[int(format(k, "b"), 3)] = table[y]
    digits = digit_lanes(m)
    return FunctionSpec(m, n, rails=_zeta(digits, _stable_part(digits, _rails(rows, n))))


def _hull(layers: list, n: int) -> list[tuple[int, int]]:
    """Per lane, the smallest cube holding every allowed cube: the union
    of the layers' rails."""
    hull = [(0, 0)] * n
    for has, rails in layers:
        hull = [(hz | z & has, ho | o & has) for (hz, ho), (z, o) in zip(hull, rails)]
    return hull


def closure_general(f: FunctionSpec) -> FunctionSpec:
    """Closure of an arbitrary specification, quantified over all partial
    resolutions: a bit stays pinned to b only if every partial resolution
    allows exactly b there. Each entry is the superposition of every
    allowed cube at every partial resolution of the input."""
    layers, digits = spec_layers(f), digit_lanes(f.m)
    # the lanes with no layer: an empty word lies inside every cube
    empty = ((1 << 3 ** f.m) - 1) & ~covered(layers, [])
    if empty:
        x = lane_word(digits, (empty & -empty).bit_length() - 1)
        raise InputError(f"specification allows no output at input {x}")
    return FunctionSpec(f.m, f.n, rails=_zeta(digits, _hull(layers, f.n)))


def _natural_hull(f: FunctionSpec, digits: list) -> Optional[list[tuple[int, int]]]:
    """The rails of f's entries if f is natural, else None (digits: f.m's digit_lanes)."""
    layers = spec_layers(f)
    hull = _hull(layers, f.n)
    joins = _zeta(digits, _stable_part(digits, hull))
    # natural: at every input the hull lies inside (so equals) an allowed
    # cube, and so does the join of the entries at its full resolutions
    natural = covered(layers, hull) == covered(layers, joins) == (1 << 3 ** f.m) - 1
    return hull if natural else None


def is_natural(f: FunctionSpec) -> bool:
    """Bit-wise, closed, and specific: every value set is a single cube,
    and stabilizing any input only shrinks the value set."""
    return _natural_hull(f, digit_lanes(f.m)) is not None


# ---------------------------------------------------------------------------
# Natural subfunctions (the implementability test)

def _candidates(layers: list, m: int, n: int) -> list[list[tuple]]:
    """Per stable input, the digits of every stable output word inside an
    allowed cube there (both in stable_words order)."""
    words, full = [e.digits() for e in stable_words(n)], (1 << 3 ** m) - 1
    fits = [covered(layers, [(0, full) if d is ONE else (full, 0) for d in e]) for e in words]
    return [[e for e, lanes in zip(words, fits) if lanes >> lane & 1]
            for lane in (int(format(k, "b"), 3) for k in range(1 << m))]


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
    layers, digits = spec_layers(g), digit_lanes(m)
    candidates = _candidates(layers, m, n)
    if not all(candidates):
        return None
    full = (1 << 3 ** m) - 1
    budget = _Budget(max_nodes, "subfunction search")

    def assign(idx: int, rails: list) -> Optional[list]:
        """rails holds the choices for the first idx stable inputs."""
        if idx == len(candidates):
            return rails
        bit = 1 << int(format(idx, "b"), 3)
        for e in candidates[idx]:
            budget.spend(1)
            tried = [(z, o | bit) if d is ONE else (z | bit, o)
                     for (z, o), d in zip(rails, e)]
            if covered(layers, _zeta(digits, tried)) == full \
                    and (found := assign(idx + 1, tried)) is not None:
                return found
        return None

    rails = assign(0, [(0, 0)] * n)
    return None if rails is None else FunctionSpec(m, n, rails=_zeta(digits, rails))


# ---------------------------------------------------------------------------
# Prime implicants and circuit synthesis

def _primes(digits: list[tuple[int, int]], ones: int) -> list[int]:
    """The lanes of the prime implicants, in lex order, of the Boolean function
    that is 1 on the stable lanes in ones and 0 on the other stable lanes."""
    [(z, o)] = _zeta(digits, _stable_part(digits, [(~ones, ones)]))
    # an implicant is 1 at every full resolution; it is prime when no
    # widening of one stable digit to M is an implicant too
    imp = prime = o & ~z
    for i, (dz, do) in enumerate(digits):
        s = 3 ** (len(digits) - 1 - i)
        prime &= ~(imp >> 2 * s & dz & ~do | imp >> s & do & ~dz)
    return [lane for lane, bit in enumerate(format(prime, "b")[::-1]) if bit == "1"]


def prime_implicants(table: Mapping[TernaryWord, object]) -> tuple[TernaryWord, ...]:
    """All prime implicants of a single-output Boolean table, sorted.

    Implicants are cube words: M digits are unconstrained. A cube is an
    implicant when the table is 1 at all its full resolutions, and prime
    when widening any of its stable digits to M gives no implicant.
    """
    rows = {}
    for x, bit in table.items():
        if bit not in (0, 1, ZERO, ONE):
            raise InputError(f"truth-table value for {x} must be 0 or 1")
        rows[x] = TernaryWord.from_digits([bit])
    m, _ = _check_bool_table(rows)
    if m > 10:
        raise InputError("prime implicants are capped at 10 inputs")
    ones = sum(1 << int(format(k, "b"), 3)
               for k, y in enumerate(stable_words(m)) if table[y] in (1, ONE))
    digits = digit_lanes(m)
    return tuple(lane_word(digits, lane) for lane in _primes(digits, ones))


def synthesize(h: FunctionSpec) -> Circuit:
    """A circuit whose single round realizes the natural specification h.

    Per output bit: take the Boolean restriction (entry 1 means 1, entry
    0 or unconstrained means 0) and build one AND gate per prime
    implicant, all feeding one OR. Keeping every prime implicant is what
    contains metastability: any input whose stable resolutions agree is
    covered by some all-stable implicant term.
    """
    m, n = h.m, h.n
    digits = digit_lanes(m)
    hull = _natural_hull(h, digits)
    if hull is None:
        raise InputError("specification is not natural")
    regs = [RegisterDecl(f"x{j}", Role.INPUT, RegType.SIMPLE)
            for j in range(m)]
    regs += [RegisterDecl(f"y{i}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for i in range(n)]
    gates: list[Gate] = []
    drives: list[tuple[str, str]] = []
    nots: dict[int, str] = {}

    def negated(j: int) -> str:
        if j not in nots:
            nots[j] = f"not_x{j}"
            gates.append(Gate(nots[j], "NOT", (f"x{j}",)))
        return nots[j]

    for i, (z, o) in enumerate(hull):
        # the Boolean restriction: 1 where the stable entry is 1
        pis = _primes(digits, o & ~z)
        # constant 0, or 1 (the all-M cube, the last lane, is then the only prime)
        if not pis or pis[0] == 3 ** m - 1:
            gid, kind = (f"y{i}_one", "CONST1") if pis else (f"y{i}_zero", "CONST0")
            gates.append(Gate(gid, kind, ()))
            drives.append((f"y{i}", gid))
            continue
        terms = []
        for p, lane in enumerate(pis):
            # digit j of the prime reads 1, or 0, or M (no literal)
            lits = [f"x{j}" if do >> lane & 1 else negated(j)
                    for j, (dz, do) in enumerate(digits) if not (dz & do) >> lane & 1]
            if len(lits) > 1:
                gates.append(Gate(f"y{i}_t{p}", "AND", tuple(lits)))
            terms.append(lits[0] if len(lits) == 1 else f"y{i}_t{p}")
        if len(terms) > 1:
            gates.append(Gate(f"y{i}_or", "OR", tuple(terms)))
        drives.append((f"y{i}", terms[0] if len(terms) == 1 else f"y{i}_or"))
    # each NOT precedes its first reader and every name is fresh, so
    # make_circuit's sorting and checks would find nothing to do
    return Circuit(f"synth_{m}x{n}", tuple(regs),
                   Dag(tuple(f"x{j}" for j in range(m)), tuple(gates), tuple(drives)))


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
    # the largest unrolled netlist that builds and prints in a few seconds
    if r * (len(c.dag.gates) + c.k + c.n) > 200_000:
        raise InputError("unroll is capped at 200000 gates, "
                         "rounds x (gates + locals + outputs)")
    gates: list[Gate] = []
    feeds = {name: name for name in c.dag.inputs}
    for t in range(1, r + 1):
        if t > 1:
            for reg in c.local_regs:
                feeds[reg.name] = f"{reg.name}__u{t}"
                gates.append(Gate(feeds[reg.name], "BUF", (drive[reg.name],)))
        drive = splice_dag(c.dag, feeds, lambda gid: f"{gid}__u{t}", gates)
        if t < r:
            for reg in c.output_regs:
                gates.append(Gate(f"{reg.name}__sink__u{t}", "BUF",
                                  (drive[reg.name],)))
    return make_circuit(f"{c.name}__x{r}", c.registers, gates, drive)


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
    check_round_budget(r, max_states)
    # the endpoints' output sets, reused when the pivotal walk reaches them
    known = {x: outputs(c, x, r, max_states) for x in dict.fromkeys((iota, iota2))}
    if not known[iota].is_disjoint(known[iota2]):
        return None

    out_meta = _meta_mask(c.n)   # the M bits of the output digits
    budget = _Budget(max_states, "witness search")
    failed: set[tuple[TernaryWord, int]] = set()

    def search(start: TernaryWord) -> Optional[list[TraceRound]]:
        """An r-round execution from start that ends with a metastable
        output, depth first over the read outcomes in their order."""
        # per round on the path: its state, its untried outcomes, the one taken
        path, state = [], start
        while True:
            remaining = r - len(path)
            if remaining == 0 and state.packed & out_meta:
                return [TraceRound(s, *taken) for s, _, taken in path] + [TraceRound(state)]
            if remaining and (state, remaining) not in failed:
                outcomes = read_outcomes(c, state)
                budget.spend(len(outcomes))
                path.append([state, iter(outcomes), None])
            # back up to the deepest round with an untried outcome; each
            # round left behind fails from its state
            while path and (step := next(path[-1][1], None)) is None:
                dead = path.pop()[0]
                failed.add((dead, r - len(path)))
            if not path:
                return None
            read, nxt = step
            ev = eval_dag(c.dag, read)
            path[-1][2] = (read, ev, ev)
            state = nxt.concat(ev)

    for p in pivotal_sequence(iota, iota2):
        outs = known[p] if p in known else outputs(c, p, r, max_states)
        if not any(cube.meta_count() for cube in outs):
            continue
        rows = search(p.concat(c.init_word()))
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
    head = f"spec m={f.m} n={f.n}"
    if f.rails is not None:
        # column by column: byte L of plane(b) is "0" or "1" by bit L of b; none carries
        lanes, size = 3 ** f.m, f.m + f.n + 5
        rows = bytearray((b"0" * f.m + b" -> " + b"0" * f.n + b"\n") * lanes)
        plane = lambda bits: int.from_bytes(format(bits, f"0{lanes}b").encode(), "big")
        for at, (z, o) in zip([*range(f.m), *range(f.m + 4, size - 1)],
                              [*digit_lanes(f.m), *f.rails]):
            meta = ord("M" if at < f.m else "*") - ord("0")
            rows[at::size] = (plane(o & ~z) + (plane(z & o) - plane(0)) * meta
                              ).to_bytes(lanes, "little")
        return f"{head}\n{rows.decode()}"
    lines = [head]
    for x in all_words(f.m):
        rhs = (str(f.entries[x]).replace("M", "*") if f.is_natural_form
               else ", ".join(str(c) for c in f.values[x]))
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
