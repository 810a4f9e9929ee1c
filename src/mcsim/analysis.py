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

import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from .executor import (ExecutionTrace, _Budget, _initial_state, _read_outcomes, _trace,
                       check_round_budget, covered, cube_layers, outputs, spec_layers)
from .netlist import (
    Circuit,
    Gate,
    RegisterDecl,
    RegType,
    Role,
    digit_lanes,
    eval_memo,
    lane_word,
    make_circuit,
    per_width,
    planned_dag,
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
    _PACKED,
    _WIDTH,
    _meta_mask,
    all_words,
    content_lines,
    stable_words,
    word_at,
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
    per input. Build instances with natural_spec/general_spec. general_spec
    keeps the layers of spec_layers, and a natural spec computed on lanes its
    entries as their rails; a closure or subfunction carries its naturalness, not
    tested again as a hand-built spec's is, and whether its rails are closed (_natural).
    """
    m: int
    n: int
    entries: dict | None = _Entries()
    values: dict | None = None
    rails: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.rails is not None and self.entries is None:
            del vars(self)["entries"]  # read through _Entries

    @property
    def is_natural_form(self) -> bool:
        return self.rails is not None or self.entries is not None

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
    f = FunctionSpec(m, n, values=_full_domain(m, values, check))
    vars(f)["_layers"] = cube_layers(list(f.values.values()), n)  # in all_words order
    return f


# ---------------------------------------------------------------------------
# Metastable closure and the natural-function tests

def _check_bool_table(table: Mapping[TernaryWord, TernaryWord]):
    if not table:
        raise InputError("empty truth table")
    m = len(next(iter(table)))
    n, *more = set(map(_WIDTH, table.values()))
    # an M digit in any input or output
    if more or set(map(_WIDTH, table)) != {m} \
            or reduce(or_, map(_PACKED, table)) & _meta_mask(m) \
            or reduce(or_, map(_PACKED, table.values())) & _meta_mask(n):
        # some row is bad: name the first one
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


@per_width
def _stable(m: int) -> tuple[int, list[int], dict[int, int]]:
    """The stable lanes of width m: their mask, the lane of each stable word
    in stable_words order, and that lane by the word's packed value. Stable
    word k sits on the lane its binary digits name in base 3 (its packed
    value names them in base 4)."""
    bits = [format(k, "b") for k in range(1 << m)]
    return (reduce(and_, (z ^ o for z, o in digit_lanes(m)), (1 << 3 ** m) - 1),
            [int(b, 3) for b in bits], {int(b, 4): int(b, 3) for b in bits})


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
    stable = _stable(len(digits))[0]
    return [(z & stable, o & stable) for z, o in rails]


def _natural(m: int, n: int, rails: tuple, closed: bool = False) -> FunctionSpec:
    """A spec of natural rails marked as its hull; closed: they are their stable lanes' zeta."""
    f = FunctionSpec(m, n, rails=rails)
    vars(f).update(_hull_mark=rails, _closed=closed)
    return f


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
    stable, _, lane = _stable(m)
    # per output digit, a "1" on each stable lane where it reads 1, lane 0 last
    planes = [bytearray(b"0" * 3 ** m) for _ in range(n)]
    for x, y in table.items():
        for j, plane in enumerate(planes):
            if y.packed >> 2 * (n - 1 - j) & 1:
                plane[~lane[x.packed]] = 49
    ones = [int(plane, 2) for plane in planes]
    return _natural(m, n, _zeta(digit_lanes(m), [(stable & ~o, o) for o in ones]), True)


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
    return _natural(f.m, f.n, _zeta(digits, _hull(layers, f.n)))


def _natural_hull(f: FunctionSpec, digits: list) -> list[tuple[int, int]] | None:
    """The rails of f's entries if f is natural, else None (digits: f.m's
    digit_lanes). A spec built natural (_natural) hands over its mark, and
    one tested here keeps its verdict as that mark: its hull, or None."""
    if "_hull_mark" in vars(f):   # a mark of None: tested, and not natural
        return vars(f)["_hull_mark"]
    layers = spec_layers(f)
    hull = _hull(layers, f.n)
    joins = _zeta(digits, _stable_part(digits, hull))
    # natural: at every input the hull lies inside (so equals) an allowed
    # cube, and so does the join of the entries at its full resolutions
    natural = covered(layers, hull) == covered(layers, joins) == (1 << 3 ** f.m) - 1
    return vars(f).setdefault("_hull_mark", hull if natural else None)


def is_natural(f: FunctionSpec) -> bool:
    """Bit-wise, closed, and specific: every value set is a single cube,
    and stabilizing any input only shrinks the value set."""
    return _natural_hull(f, digit_lanes(f.m)) is not None


# ---------------------------------------------------------------------------
# Natural subfunctions (the implementability test)

_words = per_width(lambda n: [e.digits() for e in stable_words(n)])


def _candidates(layers: list, m: int, n: int) -> list[list[tuple]]:
    """Per stable input, the digits of every stable output word inside an
    allowed cube there (both in stable_words order)."""
    words, full = _words(n), (1 << 3 ** m) - 1
    fits = [covered(layers, [(0, full) if d is ONE else (full, 0) for d in e]) for e in words]
    return [[e for e, lanes in zip(words, fits) if lanes >> lane & 1]
            for lane in _stable(m)[1]]


@per_width
def _cones(m: int) -> list[int]:
    """Per stable word of width m, in stable_words order, the lanes of the
    words it resolves (_zeta of its lane alone): the AND of one rail per digit."""
    cones = [(1 << 3 ** m) - 1]
    for z, o in digit_lanes(m):
        cones = [c & rail for c in cones for rail in (z, o)]
    return cones


def find_natural_subfunction(g: FunctionSpec,
                             max_nodes: int = DEFAULT_MAX_STATES,
                             ) -> FunctionSpec | None:
    """A natural specification inside g, or None if no such thing exists.

    Searches one Boolean output word per stable input (larger entries at
    stable inputs never help); each metastable input is then forced to
    the superposition of its resolutions' choices, which must still fit
    inside g. Backtracks over the stable choices, tightest first.
    """
    if g.m > 8:
        raise InputError("natural-subfunction search is capped at 8 inputs")
    m, n = g.m, g.n
    layers = spec_layers(g)
    candidates = _candidates(layers, m, n)
    if not all(candidates):
        return None
    full, cones = (1 << 3 ** m) - 1, _cones(m)
    budget = _Budget(max_nodes, "subfunction search")

    def assign(idx: int, rails: list) -> list | None:
        """rails: _zeta of the choices for the first idx stable inputs; it
        is OR-linear, so a choice at input idx ORs in that input's cone."""
        if idx == len(candidates):
            return rails
        cone = cones[idx]
        for e in candidates[idx]:
            budget.spend(1)
            tried = [(z, o | cone) if d is ONE else (z | cone, o)
                     for (z, o), d in zip(rails, e)]
            if covered(layers, tried) == full \
                    and (found := assign(idx + 1, tried)) is not None:
                return found
        return None

    rails = assign(0, [(0, 0)] * n)
    return None if rails is None else _natural(m, n, tuple(rails), True)


# ---------------------------------------------------------------------------
# Prime implicants and circuit synthesis

_FIND_FROM = 7  # inputs from which a scan of the bit string reads prime lanes faster


def _primes(digits: list[tuple[int, int]], ones: list[int], closed=False) -> list[list[int]]:
    """Per Boolean function, 1 on the stable lanes in its ones and 0 on the
    other stable lanes, the lanes of its prime implicants in lex order.
    closed: ones are already all the implicants (a closed spec's pinned-1 lanes)."""
    if not closed:
        ones = [o & ~z for z, o in _zeta(digits, _stable_part(digits, [(~x, x) for x in ones]))]
    steps = [(3 ** i, z & ~o, o & ~z) for i, (z, o) in enumerate(reversed(digits))]
    primes = []
    for imp in ones:
        # an implicant is 1 at every full resolution; it is prime when no
        # widening of one stable digit to M is an implicant too
        prime, lanes = imp, []
        for s, zero, one in steps:
            prime &= ~(imp >> 2 * s & zero | imp >> s & one)
        if len(digits) < _FIND_FROM:
            while prime:  # the lowest set bit's lane, then clear it
                lanes.append((prime & -prime).bit_length() - 1)
                prime &= prime - 1
        else:  # lane L is character L of the reversed bit string
            lanes = [one.start() for one in re.finditer("1", format(prime, "b")[::-1])]
        primes.append(lanes)
    return primes


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
    lane, digits = _stable(m)[2], digit_lanes(m)
    ones = sum(1 << lane[x.packed] for x, bit in table.items() if bit in (1, ONE))
    return tuple(lane_word(digits, p) for p in _primes(digits, [ones])[0])


@per_width
def _shape(m: int, n: int) -> tuple:
    """What synthesize's circuits of m inputs and n outputs share: a shell
    (see Circuit.around), registers, input nodes, NOT gates, and the
    (literals, mask of the NOTs read) of a cube lane's leading digits and of
    its last min(m, 5), not of all 3^m lanes: x_j for a 1, not_x_j for a 0,
    none for M."""
    xs, cut = tuple(f"x{j}" for j in range(m)), max(m - 5, 0)
    nots = tuple(Gate(f"not_{x}", "NOT", (x,)) for x in xs)
    halves = []
    for digits in (range(cut), range(cut, m)):
        lits = [((), 0)]
        for j in digits:
            lits = [(ls + lit, neg | bit) for ls, neg in lits
                    for lit, bit in (((nots[j].gid,), 1 << j), ((xs[j],), 0), ((), 0))]
        halves.append(tuple(lits))
    regs = tuple(RegisterDecl(x, Role.INPUT, RegType.SIMPLE) for x in xs) + tuple(
        RegisterDecl(f"y{i}", Role.OUTPUT, RegType.SIMPLE, ZERO) for i in range(n))
    return (Circuit(f"synth_{m}x{n}", regs, None), regs, xs, nots, *halves, 3 ** (m - cut))


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
    shell, regs, xs, nots, lead, last, size = _shape(m, n)
    gates: list[Gate] = []
    drives: list[tuple[str, str]] = []
    made = 0  # the inputs whose NOT is made, each at its first reader
    for i, pis in enumerate(_primes(digits, [o & ~z for z, o in hull], vars(h).get("_closed"))):
        y = regs[m + i].name
        # constant 0, or 1 (the all-M cube, the last lane, is then the only prime)
        if not pis or pis[0] == 3 ** m - 1:
            gid, kind = (f"{y}_one", "CONST1") if pis else (f"{y}_zero", "CONST0")
            gates.append(Gate(gid, kind, ()))
            drives.append((y, gid))
            continue
        terms = []
        for p, lane in enumerate(pis):
            (lits, neg), (more, neg2) = lead[lane // size], last[lane % size]
            lits, new = lits + more, (neg | neg2) & ~made
            if new:
                made |= new
                gates += [g for j, g in enumerate(nots) if new >> j & 1]
            if len(lits) > 1:
                gates.append(Gate(f"{y}_t{p}", "AND", lits))
            terms.append(lits[0] if len(lits) == 1 else gates[-1].gid)
        if len(terms) > 1:
            gates.append(Gate(f"{y}_or", "OR", tuple(terms)))
        drives.append((y, terms[0] if len(terms) == 1 else gates[-1].gid))
    # each NOT precedes its first reader and every name is fresh, so
    # make_circuit's sorting and checks would find nothing to do
    return shell.around(planned_dag(xs, tuple(gates), tuple(drives)))


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
                       max_states: int | None = DEFAULT_MAX_STATES,
                       ) -> ExecutionTrace | None:
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
    failed: set[tuple[int, int]] = set()

    def search(start: int) -> list[tuple[int, ...]] | None:
        """An r-round execution from packed state start that ends with a
        metastable output, depth first over the read outcomes in their order."""
        # per round on the path: its state, its untried outcomes, the row of the one taken
        path, state = [], start
        while True:
            remaining = r - len(path)
            if remaining == 0 and state & out_meta:
                return [row for *_, row in path] + [(state,)]
            if remaining and (state, remaining) not in failed:
                path.append([state, iter(_read_outcomes(c, state, budget)), None])
            # back up to the deepest round with an untried outcome; each
            # round left behind fails from its state
            while path and (step := next(path[-1][1], None)) is None:
                dead = path.pop()[0]
                failed.add((dead, r - len(path)))
            if not path:
                return None
            read, nxt = step
            ev = eval_memo(c.dag, read)
            path[-1][2] = (path[-1][0], read, ev, ev)
            state = nxt << 2 * (c.k + c.n) | ev

    for p in pivotal_sequence(iota, iota2):
        outs = known[p] if p in known else outputs(c, p, r, max_states)
        if not any(cube.meta_count() for cube in outs):
            continue
        rows = search(_initial_state(c, p))
        if rows is None:
            raise RuntimeError("reach set shows a metastable output but no "
                               "execution realizes it; this cannot happen")
        return _trace(c, rows)
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
    # no table file can list the 2^m or 3^m rows of more inputs
    if not 0 <= m <= 64 or n < 0:
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
        x = word_at(lineno, lhs)
        if x in entries or x in values:
            raise ParseError(lineno, f"input {x} listed twice")
        if general:
            cubes = [word_at(lineno, tok.strip()) for tok in rhs.split(",")]
            try:
                values[x] = CubeSet.of(n, cubes)
            except InputError as e:
                raise ParseError(lineno, str(e)) from None
        else:
            entries[x] = word_at(lineno, rhs.replace("*", "M"))
        if len(x) != m or not general and len(entries[x]) != n:
            raise ParseError(lineno, "row width disagrees with header")
    if general:
        return general_spec(m, n, values)
    return natural_spec(m, n, entries)


def emit_spec_table(f: FunctionSpec) -> str:
    head = f"spec m={f.m} n={f.n}"
    if f.is_natural_form:
        [(_, rails)] = spec_layers(f)
        # column by column: byte L of plane(b) is "0" or "1" by bit L of b; none carries
        lanes, size = 3 ** f.m, f.m + f.n + 5
        rows = bytearray((b"0" * f.m + b" -> " + b"0" * f.n + b"\n") * lanes)
        plane = lambda bits: int.from_bytes(format(bits, f"0{lanes}b").encode(), "big")
        for at, (z, o) in zip([*range(f.m), *range(f.m + 4, size - 1)],
                              [*digit_lanes(f.m), *rails]):
            meta = ord("M" if at < f.m else "*") - ord("0")
            rows[at::size] = (plane(o & ~z) + (plane(z & o) - plane(0)) * meta
                              ).to_bytes(lanes, "little")
        return f"{head}\n{rows.decode()}"
    lines = [head]
    for x in all_words(f.m):
        lines.append(f"{x} -> {', '.join(str(c) for c in f.values[x])}")
    return "\n".join(lines) + "\n"


def parse_truth_table(text: str) -> dict[TernaryWord, TernaryWord]:
    """Read a Boolean truth table: header `table m=<m> n=<n>`, then all
    2^m lines `<input> -> <output>` over stable words."""
    m, n, rows = _read_table(text, "table", "output")
    table: dict[TernaryWord, TernaryWord] = {}
    for lineno, lhs, rhs in rows:
        x, y = word_at(lineno, lhs), word_at(lineno, rhs)
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
