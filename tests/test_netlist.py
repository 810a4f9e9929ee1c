"""Structure layer: DAG evaluation, validation, netlist file round-trips."""

import itertools
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from conftest import (
    ALL_DIGITS,
    FEEDBACK_TEXT,
    all_words,
    bool_eval_dag,
    lane_words,
    random_circuit,
    random_gates,
    scalar_dag_toposort,
    scalar_eval_dag,
    scalar_eval_gate,
    stable_words,
)
from mcsim.netlist import (
    GATE_KINDS,
    Circuit,
    Dag,
    Gate,
    ParseError,
    RegisterDecl,
    RegType,
    Role,
    dag_toposort,
    digit_lanes,
    emit_netlist,
    eval_dag,
    eval_gate,
    eval_lanes,
    lane_word,
    make_circuit,
    parse_netlist,
    splice_dag,
    validate,
)
from mcsim.ternary_core import (
    META,
    ONE,
    ZERO,
    InputError,
    Ternary,
    TernaryWord,
    kleene_extend,
    word,
)


class TestEvalDag:
    def test_worked_example_rows(self, feedback_circuit):
        dag = feedback_circuit.dag
        assert eval_dag(dag, word("0M1")) == word("MM")
        assert eval_dag(dag, word("1M1")) == word("11")

    def test_stable_inputs_equal_boolean_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            c = random_circuit(rng, max_regs=5)
            width = len(c.dag.inputs)
            for w in stable_words(width):
                got = eval_dag(c.dag, w)
                want = bool_eval_dag(c.dag, [int(d) for d in w.digits()])
                assert [int(d) for d in got.digits()] == want

    @pytest.mark.parametrize("kind", ["AND", "OR"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_wide_gate_equals_tree(self, kind, n):
        inputs = tuple(f"i{j}" for j in range(n))
        flat = Dag(inputs, (Gate("g", kind, inputs),), (("o", "g"),))
        gates = [Gate("t0", kind, (inputs[0], inputs[1]))]
        for j in range(2, n):
            gates.append(Gate(f"t{j-1}", kind, (f"t{j-2}", inputs[j])))
        tree = Dag(inputs, tuple(gates), (("o", gates[-1].gid),))
        for w in all_words(n):
            assert eval_dag(flat, w) == eval_dag(tree, w)

    def test_resolving_inputs_resolves_outputs(self):
        # worst-case outputs only ever stabilize when inputs stabilize
        from mcsim.ternary_core import res_contains, res_members
        rng = random.Random(100)
        for _ in range(30):
            width = rng.randint(1, 4)
            inputs = tuple(f"i{j}" for j in range(width))
            gates, avail = random_gates(rng, list(inputs), rng.randint(1, 8))
            outs = tuple((f"o{j}", rng.choice(avail)) for j in range(rng.randint(1, 3)))
            dag = dag_toposort(Dag(inputs, tuple(gates), outs))
            for x in all_words(width):
                fx = eval_dag(dag, x)
                for x2 in res_members(x):
                    assert res_contains(fx, eval_dag(dag, x2))

    def test_width_mismatch(self, feedback_circuit):
        with pytest.raises(InputError):
            eval_dag(feedback_circuit.dag, word("01"))

    def test_misordered_reference_rejected(self):
        dag = Dag(("a",), (Gate("g1", "NOT", ("g2",)), Gate("g2", "NOT", ("a",))),
                  (("o", "g1"),))
        with pytest.raises(InputError):
            eval_dag(dag, word("0"))


class TestDualRail:
    """The dual-rail evaluator against the scalar gate chain in conftest."""

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple"])
    def test_one_lane_matches_the_scalar_oracle(self, corpus, request):
        for c in request.getfixturevalue(corpus):
            for x in all_words(len(c.dag.inputs)):
                assert eval_dag(c.dag, x) == scalar_eval_dag(c.dag, x), (c.name, x)

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple"])
    def test_lanes_match_the_scalar_oracle(self, corpus, request):
        # every split of the DAG inputs into enumerated lanes and a fixed
        # rest covers the full domain
        for c in request.getfixturevalue(corpus):
            width = len(c.dag.inputs)
            for m in range(width + 1):
                for rest in all_words(width - m):
                    rails = eval_lanes(c.dag, m, rest)
                    assert len(rails) == len(c.dag.outputs)
                    got = list(lane_words(rails, 3 ** m))
                    want = [scalar_eval_dag(c.dag, x.concat(rest))
                            for x in all_words(m)]
                    assert got == want, (c.name, m, rest)

    def test_random_dags_match_the_scalar_oracle_on_every_word(self):
        rng = random.Random(76)
        for width in range(7):
            for _ in range(12):
                inputs = tuple(f"i{j}" for j in range(width))
                gates, avail = random_gates(rng, list(inputs), rng.randint(1, 10))
                outs = tuple((f"o{j}", rng.choice(avail)) for j in range(rng.randint(0, 4)))
                dag = dag_toposort(Dag(inputs, tuple(gates), outs))
                for x in all_words(width):
                    assert eval_dag(dag, x) == scalar_eval_dag(dag, x), (dag, x)

    def test_packed_digit_3_raises_as_reading_it_digit_by_digit(self):
        # at every position, with valid digits or more 3s after it; the
        # first 3 is named, with the word's width and packed value
        rng = random.Random(77)
        for width in range(1, 7):
            inputs = tuple(f"i{j}" for j in range(width))
            gates, avail = random_gates(rng, list(inputs), 4)
            dag = dag_toposort(Dag(inputs, tuple(gates), (("o", avail[-1]),)))
            for i in range(width):
                for after in (0, 3):
                    low = rng.choice(all_words(width - 1 - i)).packed if after == 0 \
                        else rng.randrange(4 ** (width - 1 - i))
                    head = rng.choice(all_words(i)).packed
                    x = TernaryWord(width, (head << 2 | 3) << 2 * (width - 1 - i) | low)
                    with pytest.raises(InputError) as want:
                        scalar_eval_dag(dag, x)
                    assert f"digit {i} of a width-{width} word" in str(want.value)
                    with pytest.raises(InputError) as got:
                        eval_dag(dag, x)
                    assert str(got.value) == str(want.value)
                    # the same word as the fixed rest of a lane evaluation
                    with pytest.raises(InputError) as got:
                        eval_lanes(dag, 0, x)
                    assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_table_rule_is_the_kleene_extension(self, arity):
        inputs = tuple(f"i{j}" for j in range(arity))
        for bits in itertools.product("01", repeat=1 << arity):
            table = "".join(bits)
            want = [kleene_extend(table, x) for x in all_words(arity)]
            assert [eval_gate("TABLE", table, list(x.digits()))
                    for x in all_words(arity)] == want, table
            dag = Dag(inputs, (Gate("g", "TABLE", inputs, table),), (("o", "g"),))
            got = lane_words(eval_lanes(dag, arity, TernaryWord(0, 0)), 3 ** arity)
            assert [w.digit(0) for w in got] == want, table

    @pytest.mark.parametrize("kind,arities", [
        ("AND", (2, 3, 4)), ("OR", (2, 3, 4)), ("NAND", (2, 3, 4)),
        ("NOR", (2, 3, 4)), ("XOR", (2,)), ("NOT", (1,)), ("BUF", (1,)),
        ("CONST0", (0,)), ("CONST1", (0,))])
    def test_every_gate_rule_matches_the_scalar_chain(self, kind, arities):
        for arity in arities:
            for vals in itertools.product(ALL_DIGITS, repeat=arity):
                got = eval_gate(kind, None, list(vals))
                assert got is scalar_eval_gate(kind, None, list(vals)), (kind, vals)

    def test_no_inputs_is_one_lane(self):
        dag = Dag((), (Gate("k", "CONST1", ()),), (("o", "k"),))
        assert list(lane_words(eval_lanes(dag, 0, TernaryWord(0, 0)), 1)) == [word("1")]
        assert list(lane_words([], 9)) == [TernaryWord(0, 0)] * 9

    def test_digit_lanes_carry_every_word_in_order(self):
        for m in range(6):
            lanes = digit_lanes(m)
            assert [lane_word(lanes, L) for L in range(3 ** m)] == all_words(m)

    def test_digit_lanes_are_built_once_for_small_widths(self):
        for m in range(11):
            lanes = digit_lanes(m)
            assert isinstance(lanes, tuple) and len(lanes) == m
            assert digit_lanes(m) is lanes

    def test_wider_digit_lanes_are_not_kept(self):
        import mcsim.netlist as nl
        lanes = digit_lanes(11)
        assert digit_lanes(11) == lanes and digit_lanes(11) is not lanes
        assert 11 not in nl._DIGIT_LANES and max(nl._DIGIT_LANES) <= 10
        # the low digits of a wider width are those of the narrower one, repeated
        assert [z & (1 << 3 ** 10) - 1 for z, _ in lanes[1:]] == [z for z, _ in digit_lanes(10)]

    def test_lane_width_mismatch(self, feedback_circuit):
        with pytest.raises(InputError, match="input width 4 does not match 3"):
            eval_lanes(feedback_circuit.dag, 2, word("01"))

    def test_plan_is_compiled_once_and_not_compared(self, feedback_circuit):
        dag = feedback_circuit.dag
        eval_dag(dag, word("0M1"))
        plan = dag._plan
        eval_dag(dag, word("1M1"))
        assert dag._plan is plan
        fresh = Dag(dag.inputs, dag.gates, dag.outputs)
        assert "_plan" not in vars(fresh)
        assert fresh == dag and hash(fresh) == hash(dag)

    def test_an_evaluated_circuit_still_pickles(self, feedback_circuit):
        import pickle
        c = feedback_circuit
        eval_dag(c.dag, word("0M1"))
        # the shape is computed once and kept on the circuit
        shape = (c.input_regs, c.local_regs, c.output_regs, c.m, c.k, c.n)
        back = pickle.loads(pickle.dumps(c))
        assert back == c and hash(back) == hash(c)
        assert (back.m, back.k, back.n) == (c.m, c.k, c.n) == (2, 1, 1)
        assert (back.input_regs, back.local_regs, back.output_regs) == shape[:3]
        assert eval_dag(back.dag, word("0M1")) == word("MM")
        # a fresh copy, its shape not yet read, still equals and hashes alike
        fresh = parse_netlist(FEEDBACK_TEXT)
        assert fresh == c and hash(fresh) == hash(c)

    def test_gates_and_registers_are_slotted_values(self, feedback_circuit):
        import pickle
        for x in feedback_circuit.registers + feedback_circuit.dag.gates:
            first = fields(x)[0].name
            assert not hasattr(x, "__dict__")
            with pytest.raises(FrozenInstanceError):
                setattr(x, first, "z")
            back = pickle.loads(pickle.dumps(x))
            assert back == x and hash(back) == hash(x)
            assert replace(x) == x and replace(x, **{first: "z"}) != x

    @pytest.mark.parametrize("gates,match", [
        ((Gate("g1", "NOT", ("g2",)), Gate("g2", "NOT", ("a",))), "before it is defined"),
        ((Gate("g1", "FROB", ("a",)),), "unknown kind 'FROB'"),
        ((Gate("g1", "FROB", ("a",)), Gate("g2", "NOT", ("zz",))), "unknown kind 'FROB'"),
        ((Gate("g1", "TABLE", ("a",), "011"),), r"TABLE bits must be 2\^1"),
    ])
    def test_plan_errors_are_raised_on_every_call(self, gates, match):
        dag = Dag(("a",), gates, (("o", "g1"),))
        for _ in range(2):
            with pytest.raises(InputError, match=match):
                eval_dag(dag, word("0"))
            with pytest.raises(InputError, match=match):
                eval_lanes(dag, 1, TernaryWord(0, 0))
        assert "_plan" not in vars(dag)

    def test_duplicate_input_nodes_are_refused(self):
        dag = Dag(("a", "a"), (Gate("g", "AND", ("a", "a")),), (("o", "g"),))
        for _ in range(2):
            with pytest.raises(InputError, match="^duplicate input node name$"):
                eval_dag(dag, word("01"))
        assert "_plan" not in vars(dag)

    def test_evaluation_refuses_exactly_what_validate_refuses(self):
        regs = (RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
                RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO))
        one_gate = lambda g: Dag(("a",), (g,), (("o", "g"),))
        bad = [Gate("g", "XOR", ("a",) * 3), Gate("g", "NOT", ("a",) * 2),
               Gate("g", "BUF", ("a",) * 2), Gate("g", "CONST0", ("a",))]
        bad += [Gate("g", kind, ("a",) * arity) for kind in ("AND", "OR") for arity in (0, 1)]
        bad += [Gate("g", "FROB", ("a",)), Gate("g", "TABLE", ("a",), "01M")]
        cases = [(one_gate(g), g) for g in bad]
        # references and names, where eval_gate, which names its own nodes,
        # has nothing to compare: a forward and an undefined reference, a
        # duplicate gate id, one equal to an input or output node, an
        # undefined output source, a bad gate id
        cases += [(dag, None) for dag in (
            Dag(("a",), (Gate("g", "NOT", ("h",)), Gate("h", "NOT", ("a",))), (("o", "g"),)),
            Dag(("a",), (Gate("g", "NOT", ("zz",)),), (("o", "g"),)),
            Dag(("a",), (Gate("g", "NOT", ("a",)), Gate("g", "BUF", ("a",))), (("o", "g"),)),
            Dag(("a",), (Gate("a", "NOT", ("a",)),), (("o", "a"),)),
            Dag(("a",), (Gate("o", "NOT", ("a",)),), (("o", "o"),)),
            Dag(("a",), (Gate("g", "NOT", ("a",)),), (("o", "zz"),)),
            Dag(("a",), (Gate("1g", "NOT", ("a",)),), (("o", "1g"),)))]
        for dag, g in cases:
            [want] = validate(Circuit("c", regs, dag))
            for _ in range(2):
                runs = [lambda: eval_dag(dag, word("0")),
                        lambda: eval_lanes(dag, 1, TernaryWord(0, 0))]
                if g:
                    runs.append(lambda: eval_gate(g.kind, g.table, [ZERO] * len(g.args)))
                for run in runs:
                    with pytest.raises(InputError) as got:
                        run()
                    assert str(got.value) == want, dag
            assert "_plan" not in vars(dag)
        # every shape the table allows passes validate and evaluates as the scalar chain
        for kind, (lo, hi, _) in GATE_KINDS.items():
            for arity in range(lo, (lo + 3 if hi is None else hi + 1)):
                table = "0110100110010110"[:1 << arity] if kind == "TABLE" else None
                g = Gate("g", kind, ("a",) * arity, table)
                assert validate(Circuit("c", regs, one_gate(g))) == []
                for vals in itertools.product(ALL_DIGITS, repeat=arity):
                    want = scalar_eval_gate(kind, table, list(vals))
                    assert eval_gate(kind, table, list(vals)) is want, (kind, vals)


class TestValidate:
    def test_worked_example_is_clean(self, feedback_circuit):
        assert validate(feedback_circuit) == []

    def test_double_role_register(self, feedback_circuit):
        c = feedback_circuit
        regs = c.registers + (RegisterDecl("I1", Role.OUTPUT, RegType.SIMPLE, ZERO),)
        dag = Dag(c.dag.inputs, c.dag.gates, c.dag.outputs + (("I1", "g_or"),))
        problems = validate(Circuit(c.name, regs, dag))
        assert any("two roles" in p for p in problems)

    def test_cycle_reported(self):
        regs = (RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
                RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO))
        dag = Dag(("a",),
                  (Gate("g1", "AND", ("a", "g2")), Gate("g2", "BUF", ("g1",))),
                  (("o", "g1"),))
        problems = validate(Circuit("cyc", regs, dag))
        assert any("before it is defined" in p for p in problems)

    def test_gate_rules(self):
        regs = (RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
                RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO))

        def check(gate, needle):
            problems = validate(Circuit("g", regs, Dag(("a",), (gate,), (("o", "a"),))))
            assert any(needle in p for p in problems), problems

        check(Gate("g", "XOR", ("a", "a", "a")), "exactly 2")
        check(Gate("g", "NOT", ("a", "a")), "exactly 1")
        check(Gate("g", "AND", ("a",)), "at least 2")
        check(Gate("g", "FROB", ("a",)), "unknown kind")
        check(Gate("g", "TABLE", ("a", "a"), "01"), "TABLE bits")
        check(Gate("a", "BUF", ("a",)), "collides")

    def test_init_rules(self):
        bad_in = Circuit("c", (RegisterDecl("a", Role.INPUT, RegType.SIMPLE, ZERO),
                               RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)),
                         Dag(("a",), (), (("o", "a"),)))
        assert any("must not have an init" in p for p in validate(bad_in))
        bad_out = Circuit("c", (RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
                                RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE)),
                          Dag(("a",), (), (("o", "a"),)))
        assert any("needs an init" in p for p in validate(bad_out))

    def test_dag_register_correspondence(self):
        regs = (RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
                RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO))
        wrong_inputs = Circuit("c", regs, Dag(("o",), (), (("o", "o"),)))
        assert any("non-output registers" in p for p in validate(wrong_inputs))
        wrong_outputs = Circuit("c", regs, Dag(("a",), (), ()))
        assert any("non-input registers" in p for p in validate(wrong_outputs))


class TestToposort:
    def test_fixed_order_and_stability(self):
        inputs = ("a", "b")
        g_late = Gate("z", "AND", ("a", "b"))
        g_mid = Gate("m", "NOT", ("z",))
        g_top = Gate("t", "OR", ("m", "z"))
        dag = Dag(inputs, (g_top, g_mid, g_late), (("o", "t"),))
        assert dag_toposort(dag).gates == (g_late, g_mid, g_top)

    def test_cycle_raises(self):
        dag = Dag(("a",),
                  (Gate("g1", "BUF", ("g2",)), Gate("g2", "BUF", ("g1",))),
                  (("o", "g1"),))
        with pytest.raises(InputError, match="cycle"):
            dag_toposort(dag)

    @pytest.mark.parametrize("lines", [
        ["gate g BUF zz"],
        ["gate g1 BUF g2", "gate g2 BUF g1"],
        ["gate g0 NOT a", "gate g1 AND g0 g3", "gate g2 BUF g1", "gate g3 BUF g2"],
    ])
    def test_a_netlist_file_and_a_hand_built_dag_end_in_one_text(self, lines):
        # an undefined reference, a two-gate loop, a loop behind a good gate
        last = lines[-1].split()[1]
        with pytest.raises(InputError) as parsed:
            parse_netlist("circuit c\ninput a simple\noutput o simple init 0\n"
                          + "\n".join(lines) + f"\ndrive o {last}\n")
        gates = tuple(Gate(gid, kind, tuple(args)) for _, gid, kind, *args in map(str.split, lines))
        dag = Dag(("a",), gates, (("o", last),))
        c = Circuit("c", (RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
                          RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)), dag)
        with pytest.raises(InputError) as evaluated:
            eval_dag(dag, TernaryWord.from_digits([ZERO]))
        assert str(parsed.value) == validate(c)[0] == str(evaluated.value)
        assert "before it is defined (undeclared, a cycle, or out of order)" in str(parsed.value)

    @staticmethod
    def variants(dag, rng):
        """The corpus DAG in order and shuffled, and broken copies: a
        cycle, an undefined reference, a duplicate id, and a gate whose id
        is also an input name."""
        gates = list(dag.gates)
        yield dag
        yield Dag(dag.inputs, tuple(rng.sample(gates, len(gates))), dag.outputs)
        i = rng.randrange(len(gates))
        g = gates[i]
        broken = [(i, Gate(g.gid, "BUF", (gates[-1].gid,))),
                  (i, Gate(g.gid, "BUF", ("nosuch",))),
                  (len(gates) - 1, Gate(g.gid, "NOT", g.args))]
        if dag.inputs:
            broken.append((i, Gate(rng.choice(dag.inputs), g.kind, g.args, g.table)))
        for j, bad in broken:
            changed = gates[:j] + [bad] + gates[j + 1:]
            yield Dag(dag.inputs, tuple(changed), dag.outputs)
            yield Dag(dag.inputs, tuple(rng.sample(changed, len(changed))), dag.outputs)

    @pytest.mark.parametrize("corpus", ["corpus_mixed", "corpus_simple"])
    def test_matches_the_heap_order(self, corpus, request):
        rng = random.Random(corpus)
        seen = {"same": 0, "sorted": 0, "error": 0}
        for c in request.getfixturevalue(corpus):
            if not c.dag.gates:
                continue
            for dag in self.variants(c.dag, rng):
                try:
                    want = scalar_dag_toposort(dag)
                except InputError as e:
                    with pytest.raises(InputError) as got:
                        dag_toposort(dag)
                    assert str(got.value) == str(e)
                    seen["error"] += 1
                    continue
                got = dag_toposort(dag)
                assert got == want
                seen["same" if got is dag else "sorted"] += 1
        assert min(seen.values()) > 50, seen

    def test_gates_in_order_come_back_unchanged(self, corpus_mixed):
        for c in corpus_mixed:
            assert dag_toposort(c.dag) is c.dag

    def test_a_gate_named_like_an_input_is_waited_for(self):
        # the heap treats any gate id as a gate, even where an input has it
        dag = Dag(("a",), (Gate("g", "NOT", ("a",)), Gate("a", "CONST1", ())),
                  (("o", "g"),))
        assert dag_toposort(dag) == scalar_dag_toposort(dag)
        assert [g.gid for g in dag_toposort(dag).gates] == ["a", "g"]


class TestNetlistFiles:
    def test_parse_worked_example(self, feedback_circuit):
        c = feedback_circuit
        assert c.name == "or_and_feedback"
        assert len(c.registers) == 4
        assert len(c.dag.gates) == 2
        assert c.m == 2 and c.k == 1 and c.n == 1
        assert c.input_regs[0].rtype is RegType.MASK0
        assert c.init_word() == word("11")

    def test_emit_parse_roundtrip(self, feedback_circuit):
        assert parse_netlist(emit_netlist(feedback_circuit)) == feedback_circuit

    def test_roundtrip_random_corpus(self):
        rng = random.Random(11)
        for i in range(60):
            c = random_circuit(rng, name=f"r{i}")
            assert parse_netlist(emit_netlist(c)) == c

    def test_comments_and_blank_lines(self):
        text = FEEDBACK_TEXT.replace("circuit", "# header\n\ncircuit")
        assert parse_netlist(text).name == "or_and_feedback"

    @pytest.mark.parametrize("bad, needle", [
        ("drive O9 g_or", "undeclared register"),
        ("input I1 frob", "bad register type"),
        ("local L2 simple init 2", "bad init"),
        ("gate gx TABLE a b", "TABLE:<bits>"),
        ("wibble x", "unknown directive"),
    ])
    def test_diagnostics_carry_line_numbers(self, bad, needle):
        text = FEEDBACK_TEXT + bad + "\n"
        with pytest.raises(InputError, match=needle):
            parse_netlist(text)
        try:
            parse_netlist(text)
        except ParseError as e:
            assert f"line {len(FEEDBACK_TEXT.splitlines()) + 1}" in str(e)
        except InputError:
            pass  # semantic errors found by validate have no line

    def test_drives_for_unknown_registers(self, feedback_circuit):
        c = feedback_circuit
        drives = {"L1": "g_or", "O1": "g_and", "Z9": "g_or", "A0": "I1"}
        with pytest.raises(InputError, match="^drives for unknown registers: A0, Z9$"):
            make_circuit(c.name, c.registers, c.dag.gates, drives)

    def test_unknown_drive_source(self):
        text = FEEDBACK_TEXT.replace("drive L1 g_or", "drive L1 nosuch")
        with pytest.raises(InputError, match="nosuch"):
            parse_netlist(text)

    def test_missing_drive(self):
        text = "\n".join(l for l in FEEDBACK_TEXT.splitlines()
                         if not l.startswith("drive O1"))
        with pytest.raises(InputError, match="never driven"):
            parse_netlist(text)

    def test_double_drive(self):
        with pytest.raises(ParseError, match="driven twice"):
            parse_netlist(FEEDBACK_TEXT + "drive O1 g_or\n")

    def test_missing_circuit_line(self):
        with pytest.raises(ParseError, match="missing circuit"):
            parse_netlist("input a simple\n")

    def test_table_gate_roundtrip(self):
        text = (
            "circuit t\n"
            "input a simple\n"
            "input b simple\n"
            "output o simple init 0\n"
            "gate andn TABLE:0010 a b\n"
            "drive o andn\n"
        )
        c = parse_netlist(text)
        assert c.dag.gates[0].kind == "TABLE"
        assert c.dag.gates[0].table == "0010"
        # a AND NOT b
        assert eval_dag(c.dag, word("10")) == word("1")
        assert eval_dag(c.dag, word("11")) == word("0")
        assert eval_dag(c.dag, word("1M")) == word("M")
        assert parse_netlist(emit_netlist(c)) == c


class TestMakeCircuit:
    def test_undriven_register(self):
        regs = [RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
                RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)]
        with pytest.raises(InputError, match="undriven"):
            make_circuit("c", regs, [], {})

    def test_missing_gate_source(self):
        regs = [RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
                RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)]
        with pytest.raises(InputError):
            make_circuit("c", regs, [], {"o": "ghost"})

    @staticmethod
    def count_checks_and_compiles(monkeypatch):
        """The DAGs validate's DAG findings run on, and those compiled."""
        import mcsim.netlist as nl
        find, compile_, checked, compiled = nl._dag_findings, nl._compile, [], []
        monkeypatch.setattr(nl, "_dag_findings",
                            lambda dag: (checked.append(dag), find(dag))[1])
        monkeypatch.setattr(nl, "_compile", lambda dag: (compiled.append(dag), compile_(dag))[1])
        return checked, compiled

    def test_a_made_circuit_is_checked_once_and_compiled_on_use(self, monkeypatch,
                                                                corpus_mixed):
        checked, compiled = self.count_checks_and_compiles(monkeypatch)
        circuits = [parse_netlist(emit_netlist(c)) for c in corpus_mixed[:40]]
        assert list(map(id, checked)) == [id(c.dag) for c in circuits] and compiled == []
        for c in circuits:
            eval_dag(c.dag, TernaryWord(len(c.dag.inputs), 0))
        assert len(checked) == 40 and list(map(id, compiled)) == list(map(id, checked))
        # a hand-built copy is checked on use
        fresh = Dag(c.dag.inputs, c.dag.gates, c.dag.outputs)
        zeros = TernaryWord(len(fresh.inputs), 0)
        assert eval_dag(fresh, zeros) == eval_dag(c.dag, zeros)
        assert list(map(id, checked[40:])) == list(map(id, compiled[40:])) == [id(fresh)]

    def test_commands_that_only_emit_compile_no_plan(self, monkeypatch, tmp_path,
                                                     corpus_simple, capsys):
        from mcsim.cli import main
        _, compiled = self.count_checks_and_compiles(monkeypatch)
        path = tmp_path / "c.net"
        path.write_text(emit_netlist(corpus_simple[0]))
        for argv in (["unroll", str(path), "3"],
                     ["component", "sorting-network", "4", "2", "--emit", "netlist"],
                     ["component", "counter", "5", "--emit", "netlist"]):
            assert main(argv) == 0
        assert "circuit sorting_4x2" in capsys.readouterr().out and compiled == []


class TestSpliceDag:
    def test_renamed_copy_reads_the_fed_nodes(self):
        dag = Dag(inputs=("p", "q"),
                  gates=(Gate("t", "TABLE", ("p", "q"), "0110"),
                         Gate("u", "AND", ("t", "p", "t"))),
                  outputs=(("y", "u"), ("z", "q")))
        gates = [Gate("a", "CONST1", ())]
        outs = splice_dag(dag, {"p": "a", "q": "b"}, lambda gid: f"k_{gid}", gates)
        assert gates == [Gate("a", "CONST1", ()),
                         Gate("k_t", "TABLE", ("a", "b"), "0110"),
                         Gate("k_u", "AND", ("k_t", "a", "k_t"))]
        # an output wired straight to an input node reads that node's feed
        assert outs == {"y": "k_u", "z": "b"}
