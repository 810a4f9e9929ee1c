"""Round semantics: registers are read, the DAG evaluates, registers are
written, and the adversary chooses how metastable bits behave at each step.

A circuit state is one word over all registers (inputs, locals, outputs).
Sets of states are kept as cubes: the input digits of a cube are exact
register contents, while the local/output digits denote every partial
resolution (they were just written, and the writer may resolve any Meta
bit however it likes). Iterating one round on a cube's own word is exact,
so reachable-state sets never get expanded flat.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Iterable, Optional

from .netlist import Circuit, RegType, digit_lanes, eval_dag, eval_lanes, lane_word
from .ternary_core import (
    DEFAULT_MAX_STATES,
    BudgetError,
    CubeSet,
    InputError,
    ParseError,
    TernaryWord,
    _canonical,
    _PACKED,
    _WIDTH,
    all_words,
    content_lines,
    cubeset_canonicalize,
    res_contains,
    word_at,
)


class _Budget:
    """Units of work left before a search gives up; None means unbounded."""
    __slots__ = ("left", "what")

    def __init__(self, left: Optional[int], what: str = "state"):
        self.left = left
        self.what = what

    def spend(self, n: int) -> None:
        if self.left is None:
            return
        self.left -= n
        if self.left < 0:
            raise BudgetError(f"{self.what} budget exceeded; raise the max-states cap")


def check_round_budget(r: int, max_states: Optional[int]) -> None:
    """Refuse more rounds than the state budget: r rounds spend at least r."""
    if max_states is not None and r > max_states:
        raise BudgetError(f"{r} rounds exceed the state budget of "
                          f"{max_states}; raise the max-states cap")


def _check_state(c: Circuit, s: TernaryWord) -> None:
    width = c.m + c.k + c.n
    if len(s) != width:
        raise InputError(f"state width {len(s)} does not match {width} registers")


def _reads(c: Circuit, s: TernaryWord) -> tuple[int, list]:
    """The one place registers are read, by c.read_plan: state s's
    non-output word with the digit of every metastable masked register
    cleared, and each such register's (M bit, arcs), in digit order."""
    read = s.packed >> 2 * c.n
    low, masked, arcs = c.read_plan
    if read & read >> 1 & low:
        str(s)  # printing raises the InputError that names the packed digit 3
    held = read & masked
    return read ^ held, [a for a in arcs if held & a[0]] if held else []


def read_outcomes(c: Circuit, s: TernaryWord,
                  max_outcomes: Optional[int] = None,
                  ) -> list[tuple[TernaryWord, TernaryWord]]:
    """All (read word, next input contents) pairs for state s, in lex order.

    The read word covers the non-output registers in state order; the
    second component records where the input registers end up, since
    every other register is overwritten before it is read again.
    """
    _check_state(c, s)
    return _read_outcomes(c, s, _Budget(max_outcomes))


def _outcome(c: Circuit, base: int, picked) -> tuple[TernaryWord, TernaryWord]:
    """The (read word, next input contents) of one arc per branch of _reads."""
    read = nxt = base
    for rv, nv in picked:
        read, nxt = read | rv, nxt | nv
    return TernaryWord(c.m + c.k, read), TernaryWord(c.m, nxt >> 2 * c.k)


def _read_outcomes(c: Circuit, s: TernaryWord, budget: _Budget):
    # each register's arcs ascend by the value read, so their product in
    # digit order is in lex order of the read word, which fixes the pair
    base, branches = _reads(c, s)
    budget.spend(1 << len(branches))
    return [_outcome(c, base, picked)
            for picked in itertools.product(*(arcs for _, arcs in branches))]


def canonicalize_state_cubes(m: int, width: int,
                             cubes: Iterable[TernaryWord]) -> CubeSet:
    """Canonical form for state-cube sets.

    Cubes agree as sets only when their exact input digits agree, so
    the first m digits are literal values in the subsumption rule.
    """
    cubes = list(cubes)
    for w in cubes:
        if len(w) != width:
            raise InputError(f"state cube width {len(w)}, expected {width}")
    return _canonical(width, cubes, m)


def state_cube_contains(m: int, cube: TernaryWord, s: TernaryWord) -> bool:
    """Membership of a concrete state in one state cube: the cube absorbs it."""
    if len(cube) != len(s):
        raise InputError("state width mismatch")
    return _canonical(len(s), (cube, s), m).cubes == (cube,)


def _successor_cubes(c: Circuit, s: TernaryWord, budget: _Budget) -> list[TernaryWord]:
    return [nxt.concat(eval_dag(c.dag, read))
            for read, nxt in _read_outcomes(c, s, budget)]


def successors(c: Circuit, s: TernaryWord) -> CubeSet:
    """Canonical cube set of all states one round after state s."""
    _check_state(c, s)
    return _canonical(len(s), _successor_cubes(c, s, _Budget(None)), c.m)


def _initial_state(c: Circuit, iota: TernaryWord) -> TernaryWord:
    if len(iota) != c.m:
        raise InputError(f"input width {len(iota)}, circuit has {c.m} inputs")
    return iota.concat(c.init_word())


def _orbit(x, step, r: int) -> tuple[list, Optional[int]]:
    """x, step(x), ... for rounds 0..r until a value repeats: the distinct
    values in order and the round the orbit loops back to (None if none
    repeats by round r). The rest is a replay; step sees no value twice."""
    first = {x: 0}
    for t in range(1, r + 1):
        x = step(x)
        loop = first.setdefault(x, t)
        if loop < t:
            return list(first), loop
    return list(first), None


def replayed(seq: list, loop: Optional[int], t: int):
    """Round t of an orbit, from a list aligned with its distinct values."""
    return seq[t] if t < len(seq) else seq[loop + (t - loop) % (len(seq) - loop)]


def frontiers(c: Circuit, iota: TernaryWord, r: int,
              max_states: Optional[int] = DEFAULT_MAX_STATES,
              ) -> tuple[list[CubeSet], Optional[int]]:
    """The orbit (see _orbit) of reach(c, iota, t) over t = 0..r, as a pair
    (distinct, loop): round t's frontier is replayed(distinct, loop, t).

    Round 0 is the literal initial state. Each later round expands each
    distinct cube word of the previous round once; the one budget counts
    base states visited plus successor cubes produced. A repeated frontier
    expands no cube, so the replay spends nothing."""
    width = c.m + c.k + c.n
    budget = _Budget(max_states)
    memo: dict[TernaryWord, list[TernaryWord]] = {}

    def step(frontier: CubeSet) -> CubeSet:
        nxt: list[TernaryWord] = []
        for cube in frontier:
            cs = memo.get(cube)
            if cs is None:
                budget.spend(1)
                cs = memo[cube] = _successor_cubes(c, cube, budget)
            nxt.extend(cs)
        return _canonical(width, nxt, c.m)

    return _orbit(CubeSet.of(width, [_initial_state(c, iota)]), step, r)


def reach(c: Circuit, iota: TernaryWord, r: int,
          max_states: Optional[int] = DEFAULT_MAX_STATES) -> CubeSet:
    """States reachable in exactly r rounds from inputs iota, as cubes,
    read off the frontier orbit: O(prefix + period) rounds for any r."""
    if r < 0:
        raise InputError("round count must be nonnegative")
    return replayed(*frontiers(c, iota, r, max_states), r)


def output_cubes(c: Circuit, states: CubeSet) -> CubeSet:
    """The output-register words a set of state cubes shows."""
    tail = (1 << 2 * c.n) - 1
    return cubeset_canonicalize(
        CubeSet(c.n, tuple(TernaryWord(c.n, cube.packed & tail) for cube in states)))


def outputs(c: Circuit, iota: TernaryWord, r: int,
            max_states: Optional[int] = DEFAULT_MAX_STATES) -> CubeSet:
    """All output-register words the circuit can show after r >= 1 rounds."""
    if r < 1:
        raise InputError("outputs are defined from round 1 on")
    return output_cubes(c, reach(c, iota, r, max_states))


@dataclass(frozen=True)
class Verdict:
    """Result of an implements check; falsy iff a counterexample exists."""
    ok: bool
    witness_input: Optional[TernaryWord] = None
    witness_output: Optional[TernaryWord] = None

    def __bool__(self) -> bool:
        return self.ok


def _rails(cubes: list[TernaryWord], n: int) -> list[tuple[int, int]]:
    """The (can-be-0, can-be-1) rails of n-digit cube words in lane order."""
    if set(map(_WIDTH, cubes)) - {n}:
        raise InputError(f"specification has cubes of width other than {n}")
    packed = list(map(_PACKED, cubes))
    if not packed:
        return [(0, 0)] * n
    # one chunk of whole bytes per lane, lane 0 rightmost; digit j's high
    # (M) and low (1) bits sit at the same offsets in every chunk
    if n <= 32:
        code = "BHIIQQQQ"[max(n - 1, 0) // 4]   # the smallest that holds 2n bits
        size = struct.calcsize("<" + code)
        blob = struct.pack(f"<{len(packed)}{code}", *packed)
    else:
        size = (2 * n + 7) // 8
        blob = b"".join(map(int.to_bytes, packed, itertools.repeat(size),
                            itertools.repeat("little")))
    # a word packed past its chunk fails to pack; past its digits alone,
    # the planes below would not read it
    if 8 * size > 2 * n and max(packed) >> 2 * n:
        raise InputError(f"specification has cubes packed wider than {n} digits")
    step = 8 * size
    bits = format(int.from_bytes(blob, "little"), f"0{step * len(packed)}b")
    planes = [(int(bits[hi::step], 2), int(bits[hi + 1::step], 2))
              for hi in range(step - 2 * n, step, 2)]
    # 0 can be read unless the digit is 1, and 1 unless it is 0
    return [(((1 << len(packed)) - 1) & ~one, meta | one) for meta, one in planes]


def spec_layers(f) -> list[tuple[int, list[tuple[int, int]]]]:
    """f's allowed cubes on all inputs at once, lane L being input L in
    all_words order, as layers (has, rails): layer k's rails hold the k-th
    allowed cube of each input in has. A natural spec is one layer; one built
    on lanes hands over its rails, and one built by general_spec its layers."""
    m, n = f.m, f.n
    if getattr(f, "rails", None) is not None:
        return [((1 << 3 ** m) - 1, list(f.rails))]
    if (layers := getattr(f, "_layers", None)) is not None:
        return layers
    entries = getattr(f, "entries", None)
    if isinstance(entries, dict) and len(entries) == 3 ** m:
        # all_words order is ascending packed word, as in every dict
        # _full_domain builds; a hand-built dict may differ
        keys, values = list(map(_PACKED, entries)), list(entries.values())
        if keys != sorted(keys):
            values = [values[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]
        return [((1 << len(values)) - 1, _rails(values, n))]
    return cube_layers([f.value_cubeset(x) for x in all_words(m)], n)


def cube_layers(values: list, n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The layers (see spec_layers) of one set of n-digit cubes per lane."""
    filler = TernaryWord(n, 0)
    return [(int("".join("0" if c is None else "1" for c in reversed(row)), 2),
             _rails([filler if c is None else c for c in row], n))
            for row in itertools.zip_longest(*values)]


def covered(layers: list[tuple[int, list[tuple[int, int]]]],
            rails: list[tuple[int, int]]) -> int:
    """Lanes whose rails lie inside the cube some layer holds there."""
    inside = 0
    for has, allowed in layers:
        out = 0
        for (z, o), (az, ao) in zip(rails, allowed):
            out |= z & ~az | o & ~ao
        inside |= has & ~out
    return inside


def implements(c: Circuit, r: int, f,
               max_states: Optional[int] = DEFAULT_MAX_STATES) -> Verdict:
    """Does every output after r rounds land inside f, for every input word?

    f is a function specification: value_cubeset(iota) gives the allowed
    outputs. A reachable output cube lies inside the allowed set exactly
    when its own word is an allowed member, so the witness reported for
    a failure is the cube word itself (the most metastable offender).

    When every input and local register is simple, the outputs after one
    round are the single evaluation cube of each input, so that round is
    evaluated, and checked against f, on all inputs at once.
    """
    if f.m != c.m or f.n != c.n:
        raise InputError(
            f"specification is {f.m}->{f.n} bits, circuit is {c.m}->{c.n}")
    if r == 1 and all(reg.rtype is RegType.SIMPLE
                      for reg in c.input_regs + c.local_regs):
        # what reach spends on each input: its one state and its one read
        _Budget(max_states).spend(2)
        rails = eval_lanes(c.dag, c.m, c.init_word().subword(0, c.k))[c.k:]
        fail = ((1 << 3 ** c.m) - 1) & ~covered(spec_layers(f), rails)
        if not fail:
            return Verdict(True)
        lane = (fail & -fail).bit_length() - 1
        return Verdict(False, lane_word(digit_lanes(c.m), lane), lane_word(rails, lane))
    for iota in all_words(c.m):
        allowed = f.value_cubeset(iota)
        for cube in outputs(c, iota, r, max_states):
            if not allowed.contains_word(cube):
                return Verdict(False, iota, cube)
    return Verdict(True)


# ---------------------------------------------------------------------------
# Execution traces

@dataclass(frozen=True)
class TraceRound:
    """One table row: the state, then what was read, evaluated, written.

    The closing row of a trace records only the state it reached.
    """
    state: TernaryWord
    read: Optional[TernaryWord] = None
    evaluation: Optional[TernaryWord] = None
    written: Optional[TernaryWord] = None

    @property
    def is_full(self) -> bool:
        return self.read is not None


@dataclass(frozen=True)
class ExecutionTrace:
    rounds: tuple[TraceRound, ...]

    def __len__(self) -> int:
        return len(self.rounds)


def trace_check(c: Circuit, t: ExecutionTrace) -> bool:
    """True iff every recorded round obeys the circuit's semantics.

    Reads must be possible register outputs, evaluation is the DAG value
    of the read, the written word resolves the evaluation, and each next
    state is the read-determined input contents alongside the write.
    """
    if not t.rounds:
        raise InputError("empty trace")
    width = c.m + c.k + c.n
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

        # the outcome that reads each branching digit as recorded (its
        # first arc where none does, so that the read words then differ)
        base, branches = _reads(c, row.state)
        read, nxt = _outcome(c, base, [
            next((a for a in arcs if row.read.packed & (bit | bit >> 1) == a[0]), arcs[0])
            for bit, arcs in branches])
        if eval_dag(c.dag, row.read) != row.evaluation or read != row.read \
                or not res_contains(row.evaluation, row.written) \
                or i + 1 < len(t.rounds) and t.rounds[i + 1].state != nxt.concat(row.written):
            return False
    return True


def run_trace(c: Circuit, iota: TernaryWord, r: int) -> ExecutionTrace:
    """One deterministic execution: first read outcome, write = evaluation.

    The next state depends on the state alone, so once a state repeats
    the rounds of its cycle are replayed, not evaluated again."""
    state = _initial_state(c, iota)
    if r < 0:
        raise InputError("round count must be nonnegative")
    rows = []       # the row of each distinct state stepped from

    def step(state: TernaryWord) -> TernaryWord:
        base, branches = _reads(c, state)
        read, nxt = _outcome(c, base, [arcs[0] for _, arcs in branches])
        evaluation = eval_dag(c.dag, read)
        rows.append(TraceRound(state, read, evaluation, evaluation))
        return nxt.concat(evaluation)

    states, loop = _orbit(state, step, r)
    return ExecutionTrace(tuple(replayed(rows, loop, t) for t in range(r))
                          + (TraceRound(replayed(states, loop, r)),))


def emit_trace(t: ExecutionTrace) -> str:
    # replayed rounds share one row object (run_trace): format each object once
    text: dict[int, str] = {}
    for row in t.rounds:
        if id(row) not in text:
            words = (row.state, row.read, row.evaluation, row.written)
            text[id(row)] = " | ".join(map(str, words if row.is_full else words[:1]))
    return "\n".join(f"{i} | {text[id(row)]}" for i, row in enumerate(t.rounds)) + "\n"


def parse_trace(text: str) -> ExecutionTrace:
    """Inverse of emit_trace; one `r | state | read | eval | write` per line."""
    rows = []
    for lineno, line in content_lines(text):
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (2, 5):
            raise ParseError(lineno, "expected `r | state` or "
                                     "`r | state | read | eval | write`")
        try:
            idx = int(parts[0])
        except ValueError:
            raise ParseError(lineno, f"bad round number {parts[0]!r}") from None
        if idx != len(rows):
            raise ParseError(lineno, "rounds must count up from 0")
        rows.append(TraceRound(*(word_at(lineno, p) for p in parts[1:])))
    if not rows:
        raise InputError("empty trace")
    return ExecutionTrace(tuple(rows))
