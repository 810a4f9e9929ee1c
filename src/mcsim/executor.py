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

import functools
import itertools
import struct
from collections import namedtuple

from .netlist import (Circuit, RegType, _run, _word_rails, digit_lanes, eval_memo, eval_packed,
                      lane_word, register_transitions)
from .ternary_core import (
    DEFAULT_MAX_STATES,
    META,
    BudgetError,
    CubeSet,
    InputError,
    ParseError,
    TernaryWord,
    _canonical,
    _cubes,
    _PACKED,
    _WIDTH,
    _text,
    all_words,
    content_lines,
    res_contains,
    word_at,
)


class _Budget:
    """Units of work left before a search gives up; None means unbounded."""
    __slots__ = ("left", "what")

    def __init__(self, left: int | None, what: str = "state"):
        self.left = left
        self.what = what

    def spend(self, n: int) -> None:
        if self.left is None:
            return
        self.left -= n
        if self.left < 0:
            raise BudgetError(f"{self.what} budget exceeded; raise the max-states cap")


def check_round_budget(r: int, max_states: int | None) -> None:
    """Refuse more rounds than the state budget: r rounds spend at least r."""
    if max_states is not None and r > max_states:
        raise BudgetError(f"{r} rounds exceed the state budget of "
                          f"{max_states}; raise the max-states cap")


def _check_state(c: Circuit, s: TernaryWord) -> None:
    width = c.m + c.k + c.n
    if len(s) != width:
        raise InputError(f"state width {len(s)} does not match {width} registers")


def _reads(c: Circuit, s: int) -> tuple[int, list]:
    """The one place registers are read, by c.read_plan: packed state s's
    non-output word with the digit of every metastable masked register
    cleared, and each such register's (M bit, arcs), in digit order."""
    read, (masked, arcs) = s >> 2 * c.n, c.read_plan
    held = read & masked
    return read ^ held, [a for a in arcs if held & a[0]] if held else []


def read_outcomes(c: Circuit, s: TernaryWord) -> list[tuple[TernaryWord, TernaryWord]]:
    """All (read word, next input contents) pairs for state s, in lex order.

    The read word covers the non-output registers in state order; the
    second component records where the input registers end up, since
    every other register is overwritten before it is read again.
    """
    _check_state(c, s)
    return [(TernaryWord(c.m + c.k, read), TernaryWord(c.m, nxt))
            for read, nxt in _read_outcomes(c, s.packed, _Budget(None))]


def _outcome(c: Circuit, base: int, picked) -> tuple[int, int]:
    """The packed (read word, next input contents) of one arc per branch of _reads."""
    read = nxt = base
    for rv, nv in picked:
        read, nxt = read | rv, nxt | nv
    return read, nxt >> 2 * c.k


def _read_outcomes(c: Circuit, s: int, budget: _Budget) -> list[tuple[int, int]]:
    # each register's arcs ascend by the value read, so their product in
    # digit order is in lex order of the read word, which fixes the pair
    base, branches = _reads(c, s)
    budget.spend(1 << len(branches))
    return [_outcome(c, base, picked)
            for picked in itertools.product(*(arcs for _, arcs in branches))]


def _successor_cubes(c: Circuit, s: int, budget: _Budget) -> list[int]:
    return [nxt << 2 * (c.k + c.n) | eval_memo(c.dag, read)
            for read, nxt in _read_outcomes(c, s, budget)]


def successors(c: Circuit, s: TernaryWord) -> CubeSet:
    """Canonical cube set of all states one round after state s."""
    _check_state(c, s)
    return _cubes(len(s), _canonical(len(s), _successor_cubes(c, s.packed, _Budget(None)), c.m))


def _initial_state(c: Circuit, iota: TernaryWord) -> int:
    if len(iota) != c.m:
        raise InputError(f"input width {len(iota)}, circuit has {c.m} inputs")
    return iota.packed << 2 * (c.k + c.n) | c.init_word().packed


def _orbit(x, step, r: int) -> tuple[list, int | None]:
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


def replayed(seq: list, loop: int | None, t: int):
    """Round t of an orbit, from a list aligned with its distinct values."""
    return seq[t] if t < len(seq) else seq[loop + (t - loop) % (len(seq) - loop)]


def unrolled(seq: list, loop: int | None, count: int) -> list:
    """Rounds 0..count-1 of an orbit as replayed reads them, its cycle doubled until they fit."""
    return seq[:count] if count <= len(seq) else unrolled(seq + seq[loop:], loop, count)


def _frontiers(c: Circuit, iota: TernaryWord, r: int, max_states: int | None,
               ) -> tuple[list[tuple[int, ...]], int | None]:
    """The orbit (see _orbit) of reach(c, iota, t)'s ascending packed cubes over t = 0..r. A round
    expands each distinct cube once; the budget counts base states and successor cubes."""
    budget = _Budget(max_states)
    memo: dict[int, list[int]] = {}

    def step(frontier: tuple[int, ...]) -> tuple[int, ...]:
        nxt: list[int] = []
        for cube in frontier:
            if (cs := memo.get(cube)) is None:
                budget.spend(1)
                cs = memo[cube] = _successor_cubes(c, cube, budget)
            nxt.extend(cs)
        return _canonical(c.m + c.k + c.n, nxt, c.m)

    return _orbit((_initial_state(c, iota),), step, r)


def reach(c: Circuit, iota: TernaryWord, r: int,
          max_states: int | None = DEFAULT_MAX_STATES) -> CubeSet:
    """States reachable in exactly r rounds from inputs iota, as cubes,
    read off the frontier orbit: O(prefix + period) rounds for any r."""
    if r < 0:
        raise InputError("round count must be nonnegative")
    return _cubes(c.m + c.k + c.n, replayed(*_frontiers(c, iota, r, max_states), r))


def _output_cubes(c: Circuit, states: tuple[int, ...]) -> tuple[int, ...]:
    """The packed output-register words some packed state cubes show, canonical."""
    tail = (1 << 2 * c.n) - 1
    return _canonical(c.n, [cube & tail for cube in states], 0)


def output_cubes(c: Circuit, states: CubeSet) -> CubeSet:
    """The output-register words a set of state cubes shows."""
    return _cubes(c.n, _output_cubes(c, tuple(map(_PACKED, states))))


def outputs(c: Circuit, iota: TernaryWord, r: int,
            max_states: int | None = DEFAULT_MAX_STATES) -> CubeSet:
    """All output-register words the circuit can show after r >= 1 rounds."""
    if r < 1:
        raise InputError("outputs are defined from round 1 on")
    return output_cubes(c, reach(c, iota, r, max_states))


class Verdict(namedtuple("Verdict", "ok witness_input witness_output", defaults=(None, None))):
    """Result of an implements check; falsy iff a counterexample exists."""
    __slots__ = ()

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


def _schedule_fails(c: Circuit, r: int, f, max_states: int | None) -> int | None:
    """The inputs, as lanes in all_words order, whose outputs after r rounds
    leave f under some read schedule, or None where the walk must run. A
    schedule picks the round (0: never) at which each of the q masked
    registers that can hold M reads M and resolves; before, it reads its mask
    value. With no masked local read after round 1 it is r deterministic
    passes, those after its last resolve through _orbit. By monotonicity a lane
    fails exactly when the walk fails on its input. Taken if (1 + 2^q) * sum(t^q, t = 1..r),
    reach's top spend per input, fits max_states, and q = 0 or the (r + 1)^q * r passes
    cost at most 3 walk rounds, 3^m * (1 + 2^q) units, by which its frontiers mostly repeat."""
    k, lanes = c.k, 3 ** c.m
    held = [(i, reg.rtype) for i, reg in enumerate(c.input_regs + c.local_regs) if reg.rtype
            is not RegType.SIMPLE and (i < c.m or reg.init is META)] if c.read_plan[0] else []
    if r < 1 or r > 1 and any(reg.rtype is not RegType.SIMPLE for reg in c.local_regs) \
            or (q := len(held)) and (r + 1) ** q * r > 3 * (1 + 2 ** q) * lanes \
            or max_states is not None and (1 + 2 ** q) * (
                sum(t ** q for t in range(1, min(r, max_states + 1) + 1)) if q else r) > max_states:
        return None
    full, inputs, p = (1 << lanes) - 1, digit_lanes(c.m), c.init_word().packed >> 2 * c.n
    init = tuple(zip(*_word_rails(p, k, full)))
    branching = []
    for i, rtype in held:  # its rails reading before, at (M) and after it resolves, on M lanes
        (z, o), arcs = (inputs + init)[i], register_transitions(rtype, META)
        branching.append((i, [(z & ~o | z & o * (v != 1), o & ~z | z & o * (v != 0))
                              for v in (arcs[0][0], *arcs[1])]))

    def step(t: int, schedule: tuple, written: tuple) -> tuple:
        rails = [*inputs, *written[:k]]
        for (i, picks), s in zip(branching, schedule):
            rails[i] = picks[s and (t >= s) + (t > s)]
        return tuple(_run(c.dag, [z for z, _ in rails], [o for _, o in rails], full))

    layers, fail = spec_layers(f), 0
    for schedule in itertools.product(range(r + 1), repeat=q):
        last = max((0, *schedule))
        written = functools.reduce(lambda w, t: step(t, schedule, w), range(1, last + 1), init)
        tail = _orbit(written, lambda w: step(last + 1, schedule, w), r - last)
        fail |= full & ~covered(layers, replayed(*tail, r - last)[k:])
    return fail


_PASS = Verdict(True)   # frozen, so every passing check can hand out this one


def implements(c: Circuit, r: int, f,
               max_states: int | None = DEFAULT_MAX_STATES) -> Verdict:
    """Does every output after r rounds land inside f, for every input word?

    f is a function specification: value_cubeset(iota) gives the allowed
    outputs. A reachable output cube lies inside the allowed set exactly
    when its own word is an allowed member, so the witness reported for
    a failure is the cube word itself (the most metastable offender).

    Where _schedule_fails applies, all inputs are checked at once, and the walk
    below visits only the first failing one, for its witness.
    """
    if f.m != c.m or f.n != c.n:
        raise InputError(f"specification is {f.m}->{f.n} bits, circuit is {c.m}->{c.n}")
    fail = _schedule_fails(c, r, f, max_states)
    if fail == 0:
        return _PASS
    for iota in all_words(c.m) if fail is None else \
            [lane_word(digit_lanes(c.m), (fail & -fail).bit_length() - 1)]:
        allowed = f.value_cubeset(iota)
        for cube in outputs(c, iota, r, max_states):
            if not allowed.contains_word(cube):
                return Verdict(False, iota, cube)
    return _PASS


# ---------------------------------------------------------------------------
# Execution traces

class TraceRound(namedtuple("TraceRound", "state read evaluation written", defaults=(None,) * 3)):
    """One table row: the state, then what was read, evaluated, written.

    The closing row of a trace records only the state it reached.
    """
    __slots__ = ()

    @property
    def is_full(self) -> bool:
        return self.read is not None


class ExecutionTrace(namedtuple("ExecutionTrace", "rounds")):
    __slots__ = ()

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
        base, branches = _reads(c, row.state.packed)
        read, nxt = _outcome(c, base, [
            next((a for a in arcs if row.read.packed & (bit | bit >> 1) == a[0]), arcs[0])
            for bit, arcs in branches])
        if eval_packed(c.dag, row.read.packed) != row.evaluation.packed or read != row.read.packed \
                or not res_contains(row.evaluation, row.written) or i + 1 < len(t.rounds) \
                and t.rounds[i + 1].state != TernaryWord(c.m, nxt).concat(row.written):
            return False
    return True


def _trace(c: Circuit, rows: list[tuple[int, ...]]) -> ExecutionTrace:
    """The trace of packed rows (see _trace_walk); equal rows share one TraceRound."""
    made = {row: TraceRound(*map(TernaryWord, c.trace_widths, row)) for row in set(rows)}
    return ExecutionTrace(tuple(map(made.__getitem__, rows)))


def _trace_walk(c: Circuit, iota: TernaryWord, r: int) -> list[tuple[int, ...]]:
    """run_trace's rounds as packed rows (state, read, evaluation, written), then (state,);
    once a state repeats, the rows of its cycle are replayed, not evaluated again."""
    state = _initial_state(c, iota)
    if r < 0:
        raise InputError("round count must be nonnegative")
    rows, shift = [], 2 * (c.k + c.n)   # the row of each state stepped from

    def step(state: int) -> int:
        base, branches = _reads(c, state)
        read, nxt = _outcome(c, base, [arcs[0] for _, arcs in branches])
        evaluation = eval_memo(c.dag, read)
        rows.append((state, read, evaluation, evaluation))
        return nxt << shift | evaluation

    states, loop = _orbit(state, step, r)
    return unrolled(rows, loop, r) + [(replayed(states, loop, r),)]


def run_trace(c: Circuit, iota: TernaryWord, r: int) -> ExecutionTrace:
    """One deterministic execution: first read outcome, write = evaluation (see _trace_walk)."""
    return _trace(c, _trace_walk(c, iota, r))


def _trace_text(rows: list[tuple[int, ...]], widths: list[tuple[int, ...]]) -> str:
    """The text of packed rows (see _trace_walk) and their widths; equal ones are formatted once."""
    text = {key: " | ".join(map(_text, key[1], key[0])) for key in set(zip(rows, widths))}
    return "\n".join([f"{i} | {text[key]}" for i, key in enumerate(zip(rows, widths))]) + "\n"


def emit_trace(t: ExecutionTrace) -> str:
    rows = [r if r.is_full else r[:1] for r in t.rounds]   # a row is its words
    return _trace_text(*([tuple(map(f, row)) for row in rows] for f in (_PACKED, _WIDTH)))


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
