"""Round semantics: reads, successors, reachable sets, implements, traces."""

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, replace

import pytest

from conftest import (
    all_words,
    assert_lane_spec_agrees,
    circuit_corpus,
    flatten_states,
    frontiers,
    lane_implements,
    last_useful_round,
    reach_implements,
    recursive_metastable_witness,
    scalar_canonicalize_state_cubes,
    scalar_cubeset_canonicalize,
    scalar_frontiers,
    scalar_outputs,
    scalar_rails,
    scalar_read_outcomes,
    scalar_run_trace,
    scalar_spec_layers,
    scalar_state_cube_contains,
    scalar_trace_check,
    schedule_budget,
    simple_copy,
    simple_locals_copy,
    stable_words,
    tightened,
)
from mcsim.analysis import (
    FunctionSpec,
    closure_general,
    find_natural_subfunction,
    general_spec,
    metastable_witness,
    natural_spec,
)
from mcsim.components import (build_cmux_clocked, build_counter, build_mux, build_selector,
                               cmux_spec, mux_spec)
from mcsim.executor import (
    ExecutionTrace,
    TraceRound,
    Verdict,
    _Budget,
    _read_outcomes,
    check_round_budget,
    emit_trace,
    implements,
    outputs,
    parse_trace,
    _rails,
    _schedule_fails,
    reach,
    read_outcomes,
    replayed,
    run_trace,
    spec_layers,
    successors,
    trace_check,
)
from mcsim.netlist import (
    Gate,
    RegisterDecl,
    RegType,
    Role,
    eval_dag,
    make_circuit,
    register_transitions,
)
from mcsim.ternary_core import (
    META,
    ONE,
    ZERO,
    BudgetError,
    CubeSet,
    InputError,
    ParseError,
    TernaryWord,
    _PACKED,
    _canonical,
    _cubes,
    cubeset_canonicalize,
    res_contains,
    res_full,
    res_members,
    word,
)

FIG4_TRACE = """\
0 | MM11 | 0M1 | MM | 1M
1 | MM1M | MM1 | MM | MM
2 | 1MMM | 1MM | 1M | 10
3 | 1M10 | 1M1 | 11 | 11
4 | 1M11
"""


def canonical_states(m, width, cubes):
    """State cubes in the canonical form of reach, by _canonical: the first m
    digits are literal, so cubes absorb one another only when those agree."""
    return _cubes(width, _canonical(width, [w.packed for w in cubes], m))


def frontier_rounds(c, iota, r):
    """The frontier of every round 0..r, replayed from the orbit."""
    distinct, loop = frontiers(c, iota, r)
    return [replayed(distinct, loop, t) for t in range(r + 1)]


def mux_circuit(extra_clause=False):
    """o = (not s and a) or (s and b), optionally with an (a and b) clause."""
    regs = [RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
            RegisterDecl("b", Role.INPUT, RegType.SIMPLE),
            RegisterDecl("s", Role.INPUT, RegType.SIMPLE),
            RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)]
    gates = [Gate("ns", "NOT", ("s",)),
             Gate("t1", "AND", ("ns", "a")),
             Gate("t2", "AND", ("s", "b"))]
    top = ("t1", "t2")
    if extra_clause:
        gates.append(Gate("t3", "AND", ("a", "b")))
        top = ("t1", "t2", "t3")
    gates.append(Gate("sel", "OR", top))
    return make_circuit("mux", regs, gates, {"o": "sel"})


def kleene_closure_spec(dag, m, n):
    """Independent spec oracle: per-bit value sets over full resolutions."""
    from conftest import bool_eval_dag

    table = {}
    for x in all_words(m):
        entry = []
        for j in range(n):
            seen = {bool_eval_dag(dag, [int(d) for d in y.digits()])[j]
                    for y in res_full(x)}
            entry.append(META if len(seen) == 2 else
                         (ONE if seen == {1} else ZERO))
        table[x] = CubeSet.of(n, [TernaryWord.from_digits(entry)])
    return TableSpec(m, n, table)


@dataclass(frozen=True)
class TableSpec:
    m: int
    n: int
    table: dict

    def value_cubeset(self, iota):
        return self.table[iota]


class TestRegisterTransitions:
    def test_simple(self):
        for v in (ZERO, ONE, META):
            assert register_transitions(RegType.SIMPLE, v) == ((v, v),)

    def test_masking_stable(self):
        for rt in (RegType.MASK0, RegType.MASK1):
            for v in (ZERO, ONE):
                assert register_transitions(rt, v) == ((v, v),)

    def test_masking_metastable(self):
        assert register_transitions(RegType.MASK0, META) == \
            ((ZERO, META), (META, ONE))
        assert register_transitions(RegType.MASK1, META) == \
            ((ONE, META), (META, ZERO))


class TestReadOutcomes:
    def test_worked_example_row0(self, feedback_circuit):
        got = read_outcomes(feedback_circuit, word("MM11"))
        assert (word("0M1"), word("MM")) in got
        assert (word("MM1"), word("1M")) in got
        assert len(got) == 2

    def test_all_simple_is_deterministic(self, corpus_simple):
        rng = random.Random(3)
        for c in corpus_simple[:25]:
            width = c.m + c.k + c.n
            s = rng.choice(all_words(width))
            expect = (s.subword(0, c.m + c.k), s.subword(0, c.m))
            assert read_outcomes(c, s) == [expect]

    def test_mask1_reads(self):
        c = make_circuit(
            "m1",
            [RegisterDecl("a", Role.INPUT, RegType.MASK1),
             RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)],
            [], {"o": "a"})
        assert read_outcomes(c, word("M0")) == \
            [(word("1"), word("M")), (word("M"), word("0"))]

    def test_identity_read_always_present(self, corpus_mixed):
        # the read that reports every register's actual content is possible,
        # and every read resolves the actual contents
        rng = random.Random(4)
        for c in corpus_mixed[:30]:
            width = c.m + c.k + c.n
            s = rng.choice(all_words(width))
            actual = s.subword(0, c.m + c.k)
            got = read_outcomes(c, s)
            assert any(rd == actual for rd, _ in got)
            assert all(res_contains(actual, rd) for rd, _ in got)

    def test_every_small_circuit_matches_the_register_product(self):
        # every simple/mask0/mask1 assignment of m + k <= 4 read registers,
        # on every state; the output's type, never read, cycles
        count = 0
        for m in range(5):
            for k in range(5 - m):
                for types in itertools.product(RegType, repeat=m + k):
                    regs = [RegisterDecl(f"i{j}", Role.INPUT, t) for j, t in enumerate(types[:m])]
                    regs += [RegisterDecl(f"l{j}", Role.LOCAL, t, ZERO)
                             for j, t in enumerate(types[m:])]
                    regs.append(RegisterDecl("o", Role.OUTPUT, list(RegType)[count % 3], ONE))
                    c = make_circuit("small", regs, [Gate("g", "CONST0", ())],
                                     {r.name: "g" for r in regs if r.role is not Role.INPUT})
                    for s in all_words(m + k + 1):
                        assert read_outcomes(c, s) == scalar_read_outcomes(c, s), (types, s)
                    count += 1
        assert count == sum((j + 1) * 3 ** j for j in range(5))

    def test_every_state_of_the_mixed_corpus(self, corpus_mixed):
        for c in corpus_mixed:
            for s in all_words(c.m + c.k + c.n):
                assert read_outcomes(c, s) == scalar_read_outcomes(c, s), (c.name, s)

    def test_packed_digit_3_in_a_read_register(self, corpus_mixed):
        # a state with a digit 3, read or not, is refused when it is built,
        # with the InputError that reading the register digit by digit gave
        for c in corpus_mixed[:40]:
            width = c.m + c.k + c.n
            for i in range(width):
                packed = 3 << 2 * (width - 1 - i)
                with pytest.raises(InputError, match=f"^digit {i} of a width-{width} word "
                                   rf"packed as {packed:#x} is 3, not 0, 1, or 2 \(M\)$"):
                    TernaryWord(width, packed)

    def test_budget(self):
        regs = [RegisterDecl(f"a{i}", Role.INPUT, RegType.MASK0)
                for i in range(8)]
        regs.append(RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO))
        c = make_circuit("wide", regs, [], {"o": "a0"})
        s = word("M" * 8 + "0")
        assert len(read_outcomes(c, s)) == 256
        # a search's budget pays one unit per outcome, before they are built
        assert len(_read_outcomes(c, s.packed, _Budget(256))) == 256
        with pytest.raises(BudgetError, match="^state budget exceeded"):
            _read_outcomes(c, s.packed, _Budget(255))


class TestSuccessors:
    def test_worked_example(self, feedback_circuit):
        got = successors(feedback_circuit, word("MM11"))
        assert set(got) == {word("MMMM"), word("1MMM")}
        # the trace's s_1 is a member of the first cube
        assert scalar_state_cube_contains(2, word("MMMM"), word("MM1M"))

    def test_a_state_of_the_wrong_width(self, feedback_circuit):
        with pytest.raises(InputError, match="^state width 3 does not match 4 registers$"):
            successors(feedback_circuit, word("MM1"))

    def test_stable_state_singleton(self, feedback_circuit):
        got = successors(feedback_circuit, word("1011"))
        assert set(got) == {word("1011")}  # OR=1, AND(1,1)=1

    def test_all_simple_single_cube(self, corpus_simple):
        rng = random.Random(5)
        from mcsim.netlist import eval_dag
        for c in corpus_simple[:25]:
            s = rng.choice(all_words(c.m + c.k + c.n))
            got = successors(c, s)
            assert len(got) == 1
            expect = s.subword(0, c.m).concat(
                eval_dag(c.dag, s.subword(0, c.m + c.k)))
            assert list(got) == [expect]

    def test_masking_matches_simple_copy(self, corpus_mixed):
        # written values agree with the all-simple copy; only the
        # input-register follow-up states differ
        rng = random.Random(6)
        for c in corpus_mixed[:20]:
            width = c.m + c.k + c.n
            s = rng.choice(all_words(width))
            mine = {w.subword(c.m, width)
                    for w in flatten_states(successors(c, s), c.m)}
            simple = {w.subword(c.m, width)
                      for w in flatten_states(successors(simple_copy(c), s), c.m)}
            assert mine == simple


class TestReach:
    def test_round0_is_initial_state(self, feedback_circuit, corpus_mixed):
        assert list(reach(feedback_circuit, word("MM"), 0)) == [word("MM11")]
        rng = random.Random(7)
        for c in corpus_mixed[:10]:
            iota = rng.choice(all_words(c.m))
            assert list(reach(c, iota, 0)) == [iota.concat(c.init_word())]

    def test_negative_round_counts(self, feedback_circuit):
        for run in (reach, run_trace):
            with pytest.raises(InputError, match="^round count must be nonnegative$"):
                run(feedback_circuit, word("MM"), -1)

    def test_worked_example_rounds(self, feedback_circuit):
        c = feedback_circuit
        assert set(reach(c, word("MM"), 1)) == {word("MMMM"), word("1MMM")}
        r2 = reach(c, word("MM"), 2)
        assert word("1MMM") in set(r2)
        assert any(scalar_state_cube_contains(2, cube, word("1MMM")) for cube in r2)
        r4 = reach(c, word("MM"), 4)
        assert any(scalar_state_cube_contains(2, cube, word("1M11")) for cube in r4)

    def test_matches_plain_iteration(self, corpus_mixed):
        rng = random.Random(8)
        for c in corpus_mixed[:15]:
            width = c.m + c.k + c.n
            iota = rng.choice(all_words(c.m))
            frontier = CubeSet.of(width, [iota.concat(c.init_word())])
            for r in range(7):
                assert reach(c, iota, r) == frontier
                nxt = [w for cube in frontier for w in successors(c, cube)]
                frontier = canonical_states(c.m, width, nxt)

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple"])
    def test_matches_plain_walk_past_the_first_repeat(self, corpus, request):
        # a plain walk over the public successors, three periods past the
        # round at which a frontier first repeats
        rng = random.Random(11)
        for c in request.getfixturevalue(corpus):
            width = c.m + c.k + c.n
            inputs = all_words(c.m)
            for iota in rng.sample(inputs, min(4, len(inputs))):
                walk = [CubeSet.of(width, [iota.concat(c.init_word())])]
                while walk[-1] not in walk[:-1]:
                    nxt = [w for cube in walk[-1] for w in successors(c, cube)]
                    walk.append(canonical_states(c.m, width, nxt))
                period = len(walk) - 1 - walk.index(walk[-1])
                for _ in range(3 * period):
                    nxt = [w for cube in walk[-1] for w in successors(c, cube)]
                    walk.append(canonical_states(c.m, width, nxt))
                for r, frontier in enumerate(walk):
                    assert reach(c, iota, r) == frontier, (c.name, iota, r)
                assert frontier_rounds(c, iota, len(walk) - 1) == walk
                # the orbit stops at the first repeat and loops back to it
                repeat = len(walk) - 1 - 3 * period
                assert frontiers(c, iota, len(walk) - 1) \
                    == (walk[:repeat], walk.index(walk[repeat]))

    def test_deterministic(self, feedback_circuit):
        a = reach(feedback_circuit, word("MM"), 3)
        b = reach(feedback_circuit, word("MM"), 3)
        assert a == b

    def test_long_horizon_fixed_point(self, feedback_circuit):
        # cycle detection keeps huge round counts cheap
        assert reach(feedback_circuit, word("MM"), 10 ** 9) == \
            reach(feedback_circuit, word("MM"), 2)

    def test_budget(self):
        regs = [RegisterDecl(f"a{i}", Role.INPUT, RegType.MASK0)
                for i in range(8)]
        regs.append(RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO))
        c = make_circuit("wide", regs, [], {"o": "a0"})
        with pytest.raises(BudgetError):
            reach(c, word("M" * 8), 1, max_states=100)

    def test_bad_width(self, feedback_circuit):
        with pytest.raises(InputError):
            reach(feedback_circuit, word("M"), 1)


class TestOutputs:
    def test_mux_and_cmux_on_metastable_select(self):
        iota = word("11M")
        assert list(outputs(mux_circuit(), iota, 1)) == [word("M")]
        assert list(outputs(mux_circuit(extra_clause=True), iota, 1)) == \
            [word("1")]

    def test_stable_everything_is_singleton_per_round(self, corpus_mixed):
        rng = random.Random(9)
        for c in corpus_mixed:
            if not c.init_word().is_stable:
                continue
            iota = rng.choice(stable_words(c.m))
            t = run_trace(c, iota, 3)
            for r in (1, 2, 3):
                got = outputs(c, iota, r)
                assert len(got) == 1
                width = c.m + c.k + c.n
                assert list(got) == [t.rounds[r].state.subword(width - c.n, width)]

    def test_single_cube_for_all_simple(self, corpus_simple):
        rng = random.Random(10)
        for c in corpus_simple[:25]:
            iota = rng.choice(all_words(c.m))
            assert len(outputs(c, iota, 1)) == 1

    def test_specificity_spot_check(self, feedback_circuit):
        c = feedback_circuit
        big = flatten_states(outputs(c, word("MM"), 1), 0)
        for iota2 in res_members(word("MM")):
            small = flatten_states(outputs(c, iota2, 1), 0)
            assert small <= big

    def test_round_zero_rejected(self, feedback_circuit):
        with pytest.raises(InputError):
            outputs(feedback_circuit, word("MM"), 0)


class TestImplements:
    def test_cmux_yes_mux_no(self):
        spec = kleene_closure_spec(mux_circuit().dag, 3, 1)
        assert implements(mux_circuit(extra_clause=True), 1, spec).ok
        v = implements(mux_circuit(), 1, spec)
        assert not v
        assert v.witness_input == word("11M")
        assert v.witness_output == word("M")

    def test_identity_circuit(self):
        c = make_circuit(
            "id",
            [RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
             RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)],
            [], {"o": "a"})
        spec = kleene_closure_spec(c.dag, 1, 1)
        assert implements(c, 1, spec) == Verdict(True, None, None)

    def test_arity_mismatch(self, feedback_circuit):
        spec = kleene_closure_spec(mux_circuit().dag, 3, 1)
        with pytest.raises(InputError):
            implements(feedback_circuit, 1, spec)


def lane_copy(c, rng):
    """c with simple inputs and locals, and masked outputs."""
    regs = tuple(RegisterDecl(reg.name, reg.role,
                              rng.choice((RegType.MASK0, RegType.MASK1))
                              if reg.role is Role.OUTPUT else RegType.SIMPLE,
                              reg.init)
                 for reg in c.registers)
    return make_circuit(c.name, regs, c.dag.gates, dict(c.dag.outputs))


def random_specs(c, rng):
    """Natural and general specs around c's one-round outputs; some hold
    at every input, some fail somewhere."""
    truth = {iota: next(iter(outputs(c, iota, 1))) for iota in all_words(c.m)}
    every = list(all_words(c.n))
    specs = [natural_spec(c.m, c.n, truth)]
    for _ in range(3):
        entries = {}
        for iota, y in truth.items():
            pick = rng.random()
            entries[iota] = (y if pick < 0.6 else
                             TernaryWord.from_digits([META] * c.n) if pick < 0.8
                             else rng.choice(every))
        specs.append(natural_spec(c.m, c.n, entries))
    for _ in range(3):
        values = {}
        for iota, y in truth.items():
            cubes = rng.sample(every, min(len(every), rng.randint(1, 3)))
            if rng.random() < 0.85:
                cubes.append(y)
            values[iota] = CubeSet.of(c.n, cubes)
        specs.append(general_spec(c.m, c.n, values))
    return specs


class TestImplementsOneRound:
    """Simple inputs and locals at r=1 take the all-inputs evaluation; it
    must agree with the reach path verdict for verdict and witness."""

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple"])
    def test_matches_the_reach_path(self, corpus, request):
        rng = random.Random(corpus)
        seen = {True: 0, False: 0}
        for c in request.getfixturevalue(corpus):
            for circuit in (lane_copy(c, rng), simple_copy(c)):
                for f in random_specs(circuit, rng):
                    got = implements(circuit, 1, f)
                    assert got == reach_implements(circuit, 1, f), circuit.name
                    seen[got.ok] += 1
        assert min(seen.values()) > 100

    def test_no_inputs(self):
        c = make_circuit("const", [RegisterDecl("l", Role.LOCAL, RegType.SIMPLE, META),
                                   RegisterDecl("o", Role.OUTPUT, RegType.MASK0, ZERO)],
                         [Gate("g", "XOR", ("l", "l"))], {"l": "l", "o": "g"})
        for entry in ("0", "1", "M"):
            f = natural_spec(0, 1, {TernaryWord(0, 0): word(entry)})
            assert implements(c, 1, f) == reach_implements(c, 1, f)
        assert not implements(c, 1, natural_spec(0, 1, {TernaryWord(0, 0): word("0")}))

    def test_masked_locals_after_round_one_take_the_walk(self, corpus_mixed, monkeypatch):
        import mcsim.executor as ex

        def no_lanes(*args):
            raise AssertionError("lane pass taken")
        rng = random.Random(5)
        monkeypatch.setattr(ex, "_run", no_lanes)
        masked = [c for c in corpus_mixed
                  if any(r.rtype is not RegType.SIMPLE for r in c.local_regs)]
        assert len(masked) > 30
        for c in masked:
            for r in (2, 3):
                f = random_specs(simple_copy(c), rng)[1]
                assert implements(c, r, f) == reach_implements(c, r, f)

    def test_lane_path_calls_outputs_only_on_the_witness_input(self, corpus_simple,
                                                               monkeypatch):
        import mcsim.executor as ex
        rng = random.Random(6)
        specs = [(c, random_specs(c, rng)) for c in corpus_simple[:10]]
        want = {(c.name, i): reach_implements(c, 1, f)
                for c, fs in specs for i, f in enumerate(fs)}
        called = []
        monkeypatch.setattr(ex, "outputs", lambda c, iota, *rest: called.append(iota)
                            or outputs(c, iota, *rest))
        for c, fs in specs:
            for i, f in enumerate(fs):
                called.clear()
                v = implements(c, 1, f)
                assert v == want[c.name, i]
                assert called == ([] if v else [v.witness_input])
        assert 10 < sum(not v for v in want.values()) < len(want)

    @pytest.mark.parametrize("budget", [-1, 0, 1])
    def test_budget_below_two_states_per_input_fails(self, budget):
        for run in (implements, reach_implements):
            with pytest.raises(BudgetError) as e:
                run(build_mux(), 1, mux_spec(), max_states=budget)
            assert str(e.value) == "state budget exceeded; raise the max-states cap"

    def test_budget_of_two_states_passes(self):
        for budget in (2, 3, None):
            assert implements(build_mux(), 1, mux_spec(), max_states=budget)
            assert reach_implements(build_mux(), 1, mux_spec(), max_states=budget)


def shuffled(f, rng):
    """The same spec as f, its dict in a random order."""
    items = list((f.entries or f.values).items())
    rng.shuffle(items)
    if f.is_natural_form:
        return FunctionSpec(f.m, f.n, entries=dict(items))
    return FunctionSpec(f.m, f.n, values=dict(items))


def table_copy(f):
    """The same spec as f, seen only through value_cubeset."""
    return TableSpec(f.m, f.n, {x: f.value_cubeset(x) for x in all_words(f.m)})


class TestLaneCheck:
    """The one-round check over lane masks against the per-lane loop in
    conftest (all_words x value_cubeset x per-digit containment)."""

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple"])
    def test_matches_the_per_lane_oracle(self, corpus, request):
        rng = random.Random(f"lanes/{corpus}")
        seen = Counter()
        for c in request.getfixturevalue(corpus):
            for circuit in (lane_copy(c, rng), simple_copy(c)):
                for f in random_specs(circuit, rng):
                    want = lane_implements(circuit, f)
                    for g in (f, shuffled(f, rng), table_copy(f)):
                        assert implements(circuit, 1, g) == want, circuit.name
                    seen[f.is_natural_form, want.ok] += 1
        assert min(seen.values()) > 40 and len(seen) == 4

    def test_uneven_cube_counts(self, corpus_simple):
        # 0 to 3 extra cubes per input, so the layers thin out unevenly
        rng = random.Random(8)
        seen = Counter()
        for c in corpus_simple:
            every = list(all_words(c.n))
            for _ in range(4):
                count = min(3, len(every))
                values = {x: CubeSet.of(c.n, rng.sample(every, rng.randint(1, count)))
                          for x in all_words(c.m)}
                f = general_spec(c.m, c.n, values)
                want = lane_implements(c, f)
                assert implements(c, 1, f) == want
                assert implements(c, 1, shuffled(f, rng)) == want
                seen[want.ok] += 1
        assert min(seen.values()) > 10

    def test_natural_subfunctions_in_shuffled_order(self, corpus_simple):
        rng = random.Random(9)
        seen = Counter()
        for c in corpus_simple:
            for g in random_specs(c, rng)[4:]:
                h = find_natural_subfunction(g)
                if h is None:
                    continue
                h = shuffled(h, rng)
                want = lane_implements(c, h)
                assert implements(c, 1, h) == want
                seen[list(h.entries) != sorted(h.entries), want.ok] += 1
        assert seen[True, True] > 10 and seen[True, False] > 10

    def test_lane_built_specs_match_their_dict_copies(self, corpus_simple):
        rng = random.Random(12)
        seen = Counter()
        for c in corpus_simple:
            for g in random_specs(c, rng):
                h = find_natural_subfunction(g)
                for f in (closure_general(g), h) if h else (closure_general(g),):
                    [v] = assert_lane_spec_agrees(f, [c])
                    seen[f is h, v.ok] += 1
        assert len(seen) == 4 and min(seen.values()) > 10, seen

    @pytest.mark.parametrize("lane", [0, -1])
    def test_first_failure_at_either_end(self, lane):
        rng = random.Random(lane)
        c = mux_circuit()
        words = all_words(c.m)
        truth = {x: next(iter(outputs(c, x, 1))) for x in words}
        bad = words[lane]
        # outside the output cube whatever it is: pin a digit it may not be
        flip = word("0") if truth[bad] != word("0") else word("1")
        f = natural_spec(c.m, c.n, {**truth, bad: flip})
        want = Verdict(False, bad, truth[bad])
        assert lane_implements(c, f) == want
        for g in (f, shuffled(f, rng), table_copy(f)):
            assert implements(c, 1, g) == want
        both = natural_spec(c.m, c.n, {**truth, words[0]: word("1"), words[-1]: word("0")})
        assert implements(c, 1, both) == lane_implements(c, both)
        assert implements(c, 1, both).witness_input == words[0]

    def test_no_inputs_or_no_outputs(self):
        empty = TernaryWord(0, 0)
        for m, n in ((0, 1), (2, 0), (0, 0)):
            regs = [RegisterDecl(f"i{j}", Role.INPUT, RegType.SIMPLE) for j in range(m)]
            regs += [RegisterDecl(f"o{j}", Role.OUTPUT, RegType.SIMPLE, ZERO)
                     for j in range(n)]
            c = make_circuit("edge", regs, [Gate("k", "CONST1", ())],
                             {f"o{j}": "k" for j in range(n)})
            specs = [natural_spec(m, n, {x: y for x in all_words(m)})
                     for y in all_words(n)]
            specs.append(general_spec(m, n, {x: CubeSet.of(n, all_words(n))
                                             for x in all_words(m)}))
            for f in specs:
                assert implements(c, 1, f) == lane_implements(c, f), (m, n, f)
            # an input with no allowed output at all fails on any circuit
            last = all_words(m)[-1]
            f = TableSpec(m, n, {x: CubeSet(n, ()) if x == last
                                 else CubeSet.of(n, all_words(n)) for x in all_words(m)})
            assert implements(c, 1, f) == Verdict(False, last, word("1" * n))
            assert lane_implements(c, f) == implements(c, 1, f)
        assert implements(c, 1, natural_spec(0, 0, {empty: empty}))

    def test_passing_check_builds_no_word_per_input(self, corpus_simple, monkeypatch):
        import mcsim.executor as ex
        rng = random.Random(10)
        specs = [(c, 1, f) for c in corpus_simple if c.m >= 3
                 for f in random_specs(c, rng) if lane_implements(c, f)]
        assert len(specs) > 20
        # later rounds, against the walk's own outputs, and the clocked CMUX
        later = [(c, r, general_spec(c.m, c.n, {x: outputs(c, x, r) for x in all_words(c.m)}))
                 for c in corpus_simple if c.m >= 2 for r in (2, 5)]
        specs += later + [(build_cmux_clocked(), 2, cmux_spec())]
        assert len(later) > 20 and sum(c.k > 0 for c, _, _ in later) > 10
        made = Counter()
        init = TernaryWord.__init__

        def counted(self, *args):
            made["words"] += 1
            init(self, *args)

        def no_lookup(*args):
            raise AssertionError("per-input spec lookup")
        monkeypatch.setattr(TernaryWord, "__init__", counted)
        monkeypatch.setattr(ex, "all_words", no_lookup)
        monkeypatch.setattr(FunctionSpec, "value_cubeset", no_lookup)
        for c, r, f in specs:
            made.clear()
            assert implements(c, r, f)
            assert made["words"] < 10, (c.name, r, made)

    def test_cubes_of_the_wrong_width_are_input_errors(self):
        c = mux_circuit()
        for f in (FunctionSpec(3, 1, entries={x: word("MM") for x in all_words(3)}),
                  TableSpec(3, 1, {x: CubeSet(2, (word("00"),)) for x in all_words(3)})):
            with pytest.raises(InputError, match="width"):
                implements(c, 1, f)


def outcome(check, *args):
    """The verdict of a check, or the text of the BudgetError it raised."""
    try:
        return check(*args)
    except BudgetError as e:
        return str(e)


class TestScheduleCheck:
    """implements over read schedules against the per-input walk in conftest
    (reach_implements): whole Verdicts, witnesses included, on exact specs
    (the walk's own outputs at r) and on tightened copies of them."""

    @staticmethod
    def specs(c, rounds, rng):
        for r in rounds:
            exact = general_spec(c.m, c.n, {x: outputs(c, x, r, None) for x in all_words(c.m)})
            yield r, exact
            yield r, tightened(rng, exact)

    @staticmethod
    def lanes_taken(c, r, f, max_states=10**6):
        return _schedule_fails(c, r, f, max_states) is not None

    @staticmethod
    def walk_fails(c, r, f):
        """The inputs, as a lane mask, on which some reachable output leaves f."""
        return sum(1 << lane for lane, x in enumerate(all_words(c.m))
                   if any(not f.value_cubeset(x).contains_word(y) for y in outputs(c, x, r)))

    @pytest.mark.parametrize("corpus", ["corpus_simple", "corpus_mixed"])
    def test_matches_the_walk_up_to_three_periods_past_the_first_repeat(self, corpus,
                                                                          request):
        rng = random.Random(f"schedules/{corpus}")
        seen = Counter()
        # with its locals simple, a circuit's masked inputs run the lanes at any r
        circuits = request.getfixturevalue(corpus)
        for c in circuits + [simple_locals_copy(c) for c in circuits if c.k]:
            for r, f in self.specs(c, range(1, last_useful_round(c) + 1), rng):
                got = implements(c, r, f)
                assert got == reach_implements(c, r, f), (c.name, r)
                # and every lane's verdict, not only the first failure's
                fails = _schedule_fails(c, r, f, 10 ** 6)
                assert fails in (None, self.walk_fails(c, r, f)), (c.name, r)
                seen[fails is not None, r > 1, got.ok] += 1
        lanes = {key: count for key, count in seen.items() if key[0]}
        assert len(lanes) == 4 and min(lanes.values()) > 40, seen
        if corpus == "corpus_mixed":   # masked locals after round 1 walk
            assert seen[False, True, True] > 50 and seen[False, True, False] > 50, seen

    def test_masked_locals_at_round_one(self, corpus_masked_locals):
        rng = random.Random(14)
        seen = Counter()
        for c in corpus_masked_locals:
            for r, f in self.specs(c, [1], rng):
                assert _schedule_fails(c, r, f, 10 ** 6) == self.walk_fails(c, r, f)
                got = implements(c, r, f)
                assert got == reach_implements(c, r, f), c.name
                seen[got.ok] += 1
        assert min(seen.values()) > 10, seen

    def test_budget_edge(self, corpus_simple, corpus_mixed):
        # B - 1 walks (and may run out where the walk does), B and None run
        # the lanes wherever the schedules' passes cost no more than three
        # rounds of the walk: the same verdict or text
        rng = random.Random(15)
        seen = Counter()
        for c in corpus_simple + corpus_mixed[:60]:
            for r, f in self.specs(c, (1, 2, 3), rng):
                q, bound = schedule_budget(c, r)
                for max_states in (bound - 1, bound, None):
                    got = outcome(implements, c, r, f, max_states)
                    assert got == outcome(reach_implements, c, r, f, max_states), \
                        (c.name, r, max_states)
                    lanes = self.lanes_taken(c, r, f, max_states)
                    cheap = not q or (r + 1) ** q * r <= 3 * (1 + 2 ** q) * 3 ** c.m
                    assert lanes == (max_states != bound - 1 and cheap and (
                        r == 1 or all(reg.rtype is RegType.SIMPLE for reg in c.local_regs)))
                    seen[max_states == bound - 1, lanes, isinstance(got, str)] += 1
        assert seen[True, False, True] > 50 and seen[False, True, False] > 200, seen

    def test_schedules_costlier_than_three_walk_rounds_take_the_walk(self):
        # the fan-out buffer has one mask-0 input: r + 1 schedules of r passes
        # against 3 rounds of 3 units on 3 inputs, so the lanes run to r = 4
        from mcsim.components import build_fanout_buffer, masking_fanout_spec
        for r in range(1, 7):
            c, f = build_fanout_buffer(r), masking_fanout_spec(r)
            assert self.lanes_taken(c, r, f) == (r <= 4)
            assert self.walk_fails(c, r, f) == 0
            assert implements(c, r, f) == reach_implements(c, r, f) == Verdict(True)

    def test_every_round_read_shows(self):
        # the fan-out buffer's outputs are its mask-0 input's reads, one per
        # round; unread simple inputs ahead of it make room for r + 1 schedules
        from mcsim.components import build_fanout_buffer, masking_fanout_spec
        rng = random.Random(17)
        for r in range(1, 9):
            fan, spec = build_fanout_buffer(r), masking_fanout_spec(r)
            regs = [RegisterDecl(f"x{j}", Role.INPUT, RegType.SIMPLE) for j in range(3)]
            c = make_circuit(fan.name, regs + list(fan.registers), fan.dag.gates,
                             dict(fan.dag.outputs))
            f = general_spec(4, r, {x: spec.value_cubeset(x.subword(3, 4))
                                    for x in all_words(4)})
            cases = [(r, f), (r, tightened(rng, f, 0.5)), *self.specs(c, [r], rng)]
            cases += [(1, f), *self.specs(c, [1, 2], rng)] if r > 2 else []
            for rr, g in cases:
                assert self.lanes_taken(c, rr, g)
                assert implements(c, rr, g) == reach_implements(c, rr, g), (r, rr)
                assert self.walk_fails(c, rr, g) == _schedule_fails(c, rr, g, None)
        c = build_cmux_clocked()
        for r, g in [(r, cmux_spec()) for r in range(1, 6)] + list(self.specs(c, range(1, 6), rng)):
            assert implements(c, r, g) == reach_implements(c, r, g), r
            assert self.walk_fails(c, r, g) == _schedule_fails(c, r, g, None)

    def test_long_runs_replay_the_period(self, corpus_simple):
        rng = random.Random(16)
        for c in corpus_simple[:20]:
            for r, f in self.specs(c, (10 ** 5, 10 ** 5 + 1), rng):
                assert implements(c, r, f, None) == reach_implements(c, r, f, None), c.name


def random_word(rng, n):
    """A uniformly drawn n-digit word over {0, 1, M}."""
    return TernaryWord(n, int("".join(rng.choices("012", k=n)) or "0", 4))


class TestRailsEncoder:
    """The struct-packed encoder of dict-built specs against scalar_rails,
    which packs one word at a time."""

    @pytest.mark.parametrize("n", range(41))
    def test_matches_the_scalar_encoder_bit_for_bit(self, n):
        # every struct size (1, 2, 4, 8 bytes) and the to_bytes path past 32
        rng = random.Random(f"rails/{n}")
        for lanes in (0, 1, 2, 3, 27, 243, 729, rng.randrange(730)):
            cubes = [random_word(rng, n) for _ in range(lanes)]
            assert _rails(cubes, n) == scalar_rails(cubes, n), (n, lanes)

    @pytest.mark.parametrize("n", [0, 1, 4, 5, 8, 9, 16, 17, 32, 33, 36])
    def test_cubes_of_another_width_raise_the_same_error(self, n):
        rng = random.Random(n)
        cubes = [random_word(rng, n) for _ in range(10)]
        cubes.insert(rng.randrange(11), TernaryWord(n + 1, 0))
        with pytest.raises(InputError) as want:
            scalar_rails(cubes, n)
        with pytest.raises(InputError) as got:
            _rails(cubes, n)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 8, 9, 16, 31, 32, 33, 36])
    @pytest.mark.parametrize("extra", [1, 2 ** 8, 2 ** 70, -2 ** 70])
    def test_words_packed_past_their_width_are_never_encoded(self, n, extra):
        # such a word (or a negative packing) is refused when it is built,
        # so bits past its digits never reach the lane's chunk of bytes
        high = extra << 2 * n if extra > 0 else extra
        with pytest.raises(InputError, match=f"^no word of width {n} is packed as "):
            TernaryWord(n, high)

    def test_shuffled_dict_specs_match_the_scalar_layers(self, corpus_simple):
        rng = random.Random(13)
        seen = Counter()
        for c in corpus_simple:
            for f in random_specs(c, rng):
                want = scalar_spec_layers(f)
                for g in (f, shuffled(f, rng)):
                    assert spec_layers(g) == want, c.name
                    order = list(map(_PACKED, g.entries or g.values))
                    seen[f.is_natural_form, order == sorted(order)] += 1
        assert len(seen) == 4 and min(seen.values()) > 20, seen


class TestTraces:
    def test_worked_example_checks(self, feedback_circuit):
        t = parse_trace(FIG4_TRACE)
        assert trace_check(feedback_circuit, t)

    def test_altered_write_breaks_linkage(self, feedback_circuit):
        t = parse_trace(FIG4_TRACE.replace("| MM | 1M", "| MM | 0M", 1))
        assert not trace_check(feedback_circuit, t)

    def test_altered_write_valid_as_prefix(self, feedback_circuit):
        # with no continuation rounds, any resolution of the evaluation
        # is a legal write
        t = parse_trace("0 | MM11 | 0M1 | MM | 0M\n")
        assert trace_check(feedback_circuit, t)

    def test_altered_evaluation_fails(self, feedback_circuit):
        t = parse_trace(FIG4_TRACE.replace("| 1M1 | 11 | 11",
                                           "| 1M1 | 10 | 11"))
        assert not trace_check(feedback_circuit, t)

    def test_impossible_read_fails(self, feedback_circuit):
        # a mask-0 register in state M never reads 1
        t = parse_trace("0 | MM11 | 1M1 | MM | MM\n")
        assert not trace_check(feedback_circuit, t)

    @pytest.mark.parametrize("rows,message", [
        ((), "empty trace"),
        ((TraceRound(word("MM11"), word("0M1")),), "round 0: partial round record"),
        ((TraceRound(word("MM11"), word("0M"), word("MM"), word("MM")),),
         "round 0: read width 2"),
        ((TraceRound(word("MM11"), word("0M1"), word("M"), word("MM")),),
         "round 0: evaluation/write width"),
        ((TraceRound(word("MM11"), word("0M1"), word("MM"), word("MMM")),),
         "round 0: evaluation/write width"),
    ])
    def test_malformed_traces_are_refused(self, feedback_circuit, rows, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            trace_check(feedback_circuit, ExecutionTrace(rows))

    def test_run_trace_always_valid(self, corpus_mixed):
        rng = random.Random(11)
        for c in corpus_mixed[:40]:
            iota = rng.choice(all_words(c.m))
            t = run_trace(c, iota, rng.randint(0, 4))
            assert trace_check(c, t)

    def test_run_trace_states_are_reachable(self, feedback_circuit):
        c = feedback_circuit
        for iota in all_words(2):
            t = run_trace(c, iota, 4)
            for r, row in enumerate(t.rounds):
                cubes = reach(c, iota, r)
                assert any(scalar_state_cube_contains(c.m, cube, row.state)
                           for cube in cubes)

    def test_emit_parse_roundtrip(self, feedback_circuit):
        t = parse_trace(FIG4_TRACE)
        assert emit_trace(t) == FIG4_TRACE
        assert parse_trace(emit_trace(t)) == t
        t2 = run_trace(feedback_circuit, word("M0"), 3)
        assert parse_trace(emit_trace(t2)) == t2
        # replayed rounds share their row objects, each formatted once
        t3 = run_trace(feedback_circuit, word("MM"), 40)
        assert len(set(map(id, t3.rounds))) < 10
        assert parse_trace(emit_trace(t3)) == t3

    @pytest.mark.parametrize("text, lineno, match", [
        ("0 | MM11\n\n# note\n2 | MM11\n", 4, "count up"),
        ("# header\n0 | MM11 | 0M1\n", 2, "expected"),
        ("0 | MM11 | 0M1 | MM | 1M\nx | MM1M\n", 2, "round number"),
        ("0 | MM11 | 0M1 | M2 | 1M\n", 1, "bad word"),
    ])
    def test_parse_errors_carry_the_line(self, text, lineno, match):
        with pytest.raises(ParseError, match=match) as e:
            parse_trace(text)
        assert e.value.lineno == lineno
        assert str(e.value).startswith(f"line {lineno}: ")

    def test_parse_errors(self):
        with pytest.raises(InputError, match="count up"):
            parse_trace("1 | MM11 | 0M1 | MM | 1M\n")
        with pytest.raises(InputError, match="expected"):
            parse_trace("0 | MM11 | 0M1\n")
        with pytest.raises(InputError):
            parse_trace("")

    def test_state_only_mid_trace_rejected(self, feedback_circuit):
        t = ExecutionTrace((TraceRound(word("MM11")),
                            TraceRound(word("MM1M"))))
        with pytest.raises(InputError, match="last round"):
            trace_check(feedback_circuit, t)

    def test_width_mismatch_rejected(self, feedback_circuit):
        with pytest.raises(InputError):
            trace_check(feedback_circuit,
                        ExecutionTrace((TraceRound(word("000")),)))


def random_word(rng, width, digits="01M"):
    return word("".join(rng.choice(digits) for _ in range(width)))


def raw_successors(c, cube):
    """The successor cubes of one state cube, before canonicalisation."""
    return [nxt.concat(eval_dag(c.dag, read)) for read, nxt in read_outcomes(c, cube)]


@pytest.fixture(scope="module")
def late_cycles():
    """Counters and selectors: their states settle only after r rounds."""
    return [build_counter(r) for r in range(3, 9)] + [build_selector(r) for r in range(3, 7)]


def scalar_cycle(c, iota):
    """The round at which c's deterministic execution from iota first
    repeats a state, and the period, from the scalar reference."""
    r = 8
    while True:
        first = {}
        for t, row in enumerate(scalar_run_trace(c, iota, r).rounds):
            p = first.setdefault(row.state, t)
            if p < t:
                return t, t - p
        r *= 2


def mutated(rng, c, t):
    """t with one digit of one recorded word flipped to another digit."""
    rows = list(t.rounds)
    i = rng.randrange(len(rows))
    fields = ["state"] + (["read", "evaluation", "written"] if rows[i].is_full else [])
    name = rng.choice(fields)
    w = getattr(rows[i], name)
    if not len(w):
        return t
    j = rng.randrange(len(w))
    d = rng.choice([x for x in (ZERO, ONE, META) if x is not w.digit(j)])
    rows[i] = replace(rows[i], **{name: w.with_digit(j, d)})
    return ExecutionTrace(tuple(rows))


class TestScalarReferences:
    """The packed-word subsumption rule and the shared register step
    against the digit-by-digit versions they replaced (in conftest)."""

    def test_canonicalize_state_cubes_on_random_sets(self):
        rng = random.Random(71)
        dropped = 0
        for _ in range(600):
            width = rng.randint(1, 6)
            m = rng.randint(0, width)
            # a few input parts (M allowed), so cubes meet inside groups
            heads = [random_word(rng, m) for _ in range(rng.randint(1, 3))]
            cubes = [rng.choice(heads).concat(random_word(rng, width - m))
                     for _ in range(rng.randint(0, 12))]
            got = canonical_states(m, width, cubes)
            assert got == scalar_canonicalize_state_cubes(m, width, cubes), (m, cubes)
            dropped += len(set(cubes)) - len(got)
        assert dropped > 500

    def test_cubeset_canonicalize_on_random_sets(self):
        rng = random.Random(72)
        for _ in range(300):
            width = rng.randint(0, 5)
            cs = CubeSet.of(width, [random_word(rng, width)
                                    for _ in range(rng.randint(0, 12))])
            assert cubeset_canonicalize(cs) == scalar_cubeset_canonicalize(cs)

    def test_state_cube_width_errors(self):
        for m in (-1, 4):
            with pytest.raises(InputError, match="range"):
                scalar_canonicalize_state_cubes(m, 3, [word("000")])

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple"])
    def test_every_frontier_for_six_rounds(self, corpus, request):
        for c in request.getfixturevalue(corpus):
            width = c.m + c.k + c.n
            for iota in all_words(c.m):
                walk = frontier_rounds(c, iota, 6)
                for t in range(6):
                    raw = [w for cube in walk[t] for w in raw_successors(c, cube)]
                    want = scalar_canonicalize_state_cubes(c.m, width, raw)
                    assert walk[t + 1] == want, (c.name, iota, t)
                    assert canonical_states(c.m, width, raw) == want

    def test_state_cube_contains_on_all_pairs(self):
        for width in range(5):
            words = all_words(width)
            for m in range(width + 1):
                for cube in words:
                    for s in words:
                        # the cube absorbs s: canonical form keeps the cube alone
                        assert (_canonical(width, (cube.packed, s.packed), m)
                                == (cube.packed,)) \
                            == scalar_state_cube_contains(m, cube, s), (m, cube, s)
        with pytest.raises(InputError, match="state width mismatch"):
            scalar_state_cube_contains(1, word("00"), word("000"))
        with pytest.raises(InputError, match="range"):
            scalar_state_cube_contains(3, word("00"), word("00"))

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple"])
    def test_read_outcomes_come_in_lex_order(self, corpus, request):
        # each register's arcs ascend by the value read, so their product
        # is sorted without a sort
        rng = random.Random(74)
        for c in request.getfixturevalue(corpus):
            states = all_words(c.m + c.k + c.n)
            for s in rng.sample(states, min(40, len(states))):
                per = [register_transitions(r.rtype, s.digit(i))
                       for i, r in enumerate(c.input_regs + c.local_regs)]
                for arcs in per:
                    assert list(arcs) == sorted(arcs)
                want = scalar_read_outcomes(c, s)
                assert want == sorted(want)
                assert read_outcomes(c, s) == want, (c.name, s)

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple", "late_cycles"])
    def test_traces_match_the_register_loops(self, corpus, request):
        # a trace three periods or more past the round at which a state
        # first repeats (run_trace replays rows from there), then a short
        # one, whose mutations are checked by both trace checks
        rng = random.Random(75)
        verdicts = Counter()
        for c in request.getfixturevalue(corpus):
            for iota in rng.sample(all_words(c.m), min(4, 3 ** c.m)):
                repeat, period = scalar_cycle(c, iota)
                for r in (repeat + 3 * period + rng.randint(0, 3), rng.randint(0, 6)):
                    t = run_trace(c, iota, r)
                    assert t == scalar_run_trace(c, iota, r), (c.name, iota, r)
                    assert trace_check(c, t) and scalar_trace_check(c, t)
                for _ in range(4):
                    bad = mutated(rng, c, t)
                    got = trace_check(c, bad)
                    assert got == scalar_trace_check(c, bad), (c.name, emit_trace(bad))
                    verdicts[got] += 1
        assert min(verdicts.values()) > 20

    def test_register_step_stays_linear_in_the_registers(self):
        # 24 metastable mask-0 inputs have 2^24 read outcomes together;
        # the trace takes and checks one arc per register
        regs = [RegisterDecl(f"i{j}", Role.INPUT, RegType.MASK0) for j in range(24)]
        regs.append(RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO))
        c = make_circuit("wide", regs, [Gate("g", "OR", ("i0", "i23"))], {"o": "g"})
        start = time.perf_counter()
        t = run_trace(c, word("M" * 24), 3)
        assert trace_check(c, t)
        assert time.perf_counter() - start < 1
        assert t.rounds[1].state == word("M" * 24 + "0")


# every kind of budget: none left, a few units, a few expansions, and none set
BUDGETS = (0, 1, 2, 5, 17, 60, 200, None)


@pytest.fixture(scope="module")
def corpus_nine():
    """40 random circuits of up to 9 registers, every register type."""
    return circuit_corpus(seed=909, count=40, max_regs=9)


def scalar_witness(c, r, a, b, max_states):
    check_round_budget(r, max_states)
    return recursive_metastable_witness(c, r, a, b, max_states, scalar=True)


class TestPackedKernel:
    """The executor steps packed words; its results against the scalar
    references in conftest, which step TernaryWords digit by digit: equal
    results at every budget, or equal BudgetError texts."""

    CORPORA = ["corpus_mixed", "corpus_masked_locals", "corpus_nine"]

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_frontiers_outputs_and_traces(self, corpus, request):
        rng = random.Random(f"kernel/{corpus}")
        seen = Counter()
        for c in request.getfixturevalue(corpus):
            for iota in rng.sample(all_words(c.m), min(3, 3 ** c.m)):
                r = rng.randint(1, 8)
                for budget in BUDGETS:
                    got = outcome(frontiers, c, iota, r, budget)
                    assert got == outcome(scalar_frontiers, c, iota, r, budget), \
                        (c.name, iota, r, budget)
                    assert outcome(outputs, c, iota, r, budget) \
                        == outcome(scalar_outputs, c, iota, r, budget), (c.name, iota, r, budget)
                    seen[isinstance(got, str)] += 1
                assert run_trace(c, iota, r) == scalar_run_trace(c, iota, r), (c.name, iota, r)
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_reads_and_canonical_forms_of_every_reached_cube(self, corpus, request):
        rng = random.Random(f"cubes/{corpus}")
        dropped = Counter()
        for c in request.getfixturevalue(corpus):
            width = c.m + c.k + c.n
            distinct, _ = frontiers(c, rng.choice(all_words(c.m)), 6, None)
            for frontier in distinct:
                raw = []
                for cube in frontier:
                    assert read_outcomes(c, cube) == scalar_read_outcomes(c, cube), (c.name, cube)
                    raw += [nxt.concat(eval_dag(c.dag, read))
                            for read, nxt in scalar_read_outcomes(c, cube)]
                got = canonical_states(c.m, width, raw)
                assert got == scalar_canonicalize_state_cubes(c.m, width, raw), (c.name, raw)
                tails = CubeSet.of(c.n, [w.subword(width - c.n, width) for w in raw])
                assert cubeset_canonicalize(tails) == scalar_cubeset_canonicalize(tails)
                dropped[len(set(raw)) > len(got)] += 1
        assert min(dropped.values()) > 10, dropped

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_witnesses(self, corpus, request):
        rng = random.Random(f"witness/{corpus}")
        seen = Counter()
        for c in request.getfixturevalue(corpus):
            a, b = rng.sample(stable_words(c.m), 2) if c.m > 1 else stable_words(1)
            r = rng.randint(1, 6)
            for budget in BUDGETS:
                got = outcome(metastable_witness, c, r, a, b, budget)
                assert got == outcome(scalar_witness, c, r, a, b, budget), (c.name, r, budget)
                seen["error" if isinstance(got, str) else got is None] += 1
        assert min(seen.values()) > 10 and len(seen) == 3, seen
