"""Acceptance gate: ten criteria, one test each.

Run `pytest -v tests/test_acceptance.py` for a pass/fail line per
criterion. Every check here is exhaustive or oracle-based at desk scale;
nothing is sampled unless the quantified domain is stated as a sample.
"""

import itertools
import random

from conftest import (
    FEEDBACK_TEXT,
    all_words,
    bool_tables,
    detector_spec,
    flatten_states,
    mm_example_spec,
    resolver_spec,
    simple_copy,
    stable_words,
)
from mcsim.analysis import (
    closure_bool,
    find_natural_subfunction,
    is_natural,
    metastable_witness,
    synthesize,
    unroll,
)
from mcsim.components import (
    build_brgc_to_tc,
    build_cmux_clocked,
    build_cmux_combinational,
    build_fanout_buffer,
    build_mux,
    build_pipeline,
    build_tc_to_brgc,
    build_two_sort,
    clock_sync_select,
    cmux_spec,
    masking_fanout_spec,
    tdc_readings,
)
from mcsim.executor import (
    implements,
    outputs,
    parse_trace,
    reach,
    read_outcomes,
    state_cube_contains,
    successors,
    trace_check,
)
from mcsim.netlist import (
    Gate,
    RegisterDecl,
    RegType,
    Role,
    eval_dag,
    eval_gate,
    eval_lanes,
    make_circuit,
    parse_netlist,
)
from mcsim.ternary_core import (
    META,
    ONE,
    ZERO,
    TernaryWord,
    brgc,
    decode,
    encode,
    precision,
    res_contains,
    res_full,
    res_members,
    tc,
    word,
)

D = {"0": ZERO, "1": ONE, "M": META}

# Frozen worst-case AND/OR tables, row key = (left digit, right digit).
KLEENE_AND = {
    ("0", "0"): "0", ("0", "1"): "0", ("0", "M"): "0",
    ("1", "0"): "0", ("1", "1"): "1", ("1", "M"): "M",
    ("M", "0"): "0", ("M", "1"): "M", ("M", "M"): "M",
}
KLEENE_OR = {
    ("0", "0"): "0", ("0", "1"): "1", ("0", "M"): "M",
    ("1", "0"): "1", ("1", "1"): "1", ("1", "M"): "1",
    ("M", "0"): "M", ("M", "1"): "1", ("M", "M"): "M",
}

# The worked feedback-circuit execution, replayed verbatim.
WORKED_TRACE = """\
0 | MM11 | 0M1 | MM | 1M
1 | MM1M | MM1 | MM | MM
2 | 1MMM | 1MM | 1M | 10
3 | 1M10 | 1M1 | 11 | 11
4 | 1M11
"""

AND_TABLE = {word("00"): word("0"), word("01"): word("0"),
             word("10"): word("0"), word("11"): word("1")}
OR_TABLE = {word("00"): word("0"), word("01"): word("1"),
            word("10"): word("1"), word("11"): word("1")}


def cubeset_subset(a, b):
    """Cube-set containment; one covering cube always exists when true."""
    return all(any(res_contains(big, small) for big in b) for small in a)


def test_criterion_01_kleene_tables():
    """Worst-case AND and OR match the frozen tables on all 9 entries."""
    for table, frozen in ((AND_TABLE, KLEENE_AND), (OR_TABLE, KLEENE_OR)):
        f = closure_bool(table)
        kind = "AND" if table is AND_TABLE else "OR"
        for (da, db), out in frozen.items():
            x = TernaryWord.from_digits([D[da], D[db]])
            assert f.entry(x) == word(out)
            assert eval_gate(kind, None, [D[da], D[db]]) is D[out]


def test_criterion_02_worked_example_replay():
    """The published feedback-circuit trace is accepted verbatim and every
    listed state is reachable in its round."""
    c = parse_netlist(FEEDBACK_TEXT)
    t = parse_trace(WORKED_TRACE)
    assert trace_check(c, t)
    iota = word("MM")
    for r, row in enumerate(t.rounds):
        cubes = reach(c, iota, r)
        assert any(state_cube_contains(c.m, cube, row.state)
                   for cube in cubes)


def test_criterion_03_round_semantics_invariants(corpus_mixed):
    """Read determinism, write-set equality against the all-simple copy,
    one-cube one-round outputs, specificity, and masking-irrelevance at
    round 1 -- exhaustive over >= 100 random circuits and all inputs."""
    assert len(corpus_mixed) >= 100
    rng = random.Random(20240821)
    for c in corpus_mixed:
        width = c.m + c.k + c.n
        simple = simple_copy(c)

        # reads of the all-simple copy are deterministic and verbatim
        for s in rng.sample(all_words(width), min(60, 3 ** width)):
            got = read_outcomes(simple, s)
            assert got == [(s.subword(0, c.m + c.k), s.subword(0, c.m))]

            # write-set equality: masking only reshuffles input follow-up
            mine = {w.subword(c.m, width)
                    for w in flatten_states(successors(c, s), c.m)}
            ref = {w.subword(c.m, width)
                   for w in flatten_states(successors(simple, s), c.m)}
            assert mine == ref

        one_round = {}
        for iota in all_words(c.m):
            # one round of an all-simple circuit produces a single cube
            assert len(outputs(simple, iota, 1)) == 1

            # masking registers do not matter in the first round
            got = outputs(c, iota, 1)
            assert got == outputs(simple, iota, 1)
            one_round[iota] = got

        # specificity: resolving inputs can only shrink the output set
        for iota in all_words(c.m):
            if iota.meta_count() == 0:
                continue
            for res in res_members(iota):
                assert cubeset_subset(one_round[res], one_round[iota])


def test_criterion_04_cmux_verdicts():
    """Both containing MUXes implement the containing spec; the plain MUX
    fails it exactly at agreeing data under a split select."""
    spec = cmux_spec()
    assert implements(build_cmux_combinational(), 1, spec).ok
    assert implements(build_cmux_clocked(), 2, spec).ok
    v = implements(build_mux(), 1, spec)
    assert not v.ok
    assert v.witness_input == word("11M")
    assert v.witness_output == word("M")


def test_criterion_05_unrolling_equality(corpus_simple):
    """Unrolled circuits reproduce the r-round output sets exactly, for
    every input, on >= 50 random all-simple circuits."""
    assert len(corpus_simple) >= 50
    for c in corpus_simple:
        for r in (2, 3):
            u = unroll(c, r)
            for iota in all_words(c.m):
                assert outputs(u, iota, 1) == outputs(c, iota, r)


def test_criterion_06_witnesses_and_impossibility():
    """Disjoint-output circuits yield metastable executions; the detector,
    resolver, and the non-bit-wise example admit no natural subfunction;
    every 2-input closure admits one."""
    buf = make_circuit(
        "buf",
        [RegisterDecl("I", Role.INPUT, RegType.SIMPLE),
         RegisterDecl("O", Role.OUTPUT, RegType.SIMPLE, ZERO)],
        [Gate("g", "BUF", ("I",))], {"O": "g"})
    inv = make_circuit(
        "inv",
        [RegisterDecl("I", Role.INPUT, RegType.SIMPLE),
         RegisterDecl("O", Role.OUTPUT, RegType.SIMPLE, ZERO)],
        [Gate("g", "NOT", ("I",))], {"O": "g"})
    less_than = {}
    for u in range(4):
        for w in range(4):
            key = word(format(u, "02b") + format(w, "02b"))
            less_than[key] = word("1" if u < w else "0")
    cmp2 = synthesize(closure_bool(less_than))
    cases = [(buf, word("0"), word("1")),
             (inv, word("0"), word("1")),
             (cmp2, word("0011"), word("1100"))]
    for c, iota, iota2 in cases:
        t = metastable_witness(c, 1, iota, iota2)
        assert t is not None
        assert trace_check(c, t)
        final = t.rounds[-1].state
        out_part = final.subword(c.m + c.k, c.m + c.k + c.n)
        assert out_part.meta_count() >= 1

    for spec in (detector_spec(), resolver_spec(), mm_example_spec()):
        assert find_natural_subfunction(spec) is None

    count = 0
    for table in bool_tables(2):
        sub = find_natural_subfunction(closure_bool(table))
        assert sub is not None and is_natural(sub)
        count += 1
    assert count == 16


def test_criterion_07_closure_synthesis():
    """synthesize(closure) reproduces the closure exactly on every ternary
    input, hence implements it at r=1, and matches f on stable inputs.

    Exhaustive over every Boolean function with m <= 3 inputs and one or
    two outputs: all 276 single-output tables and all 65808 output pairs
    are synthesized and checked on the full ternary domain, the single
    outputs one word at a time and the pairs on all 3^m lanes at once (the
    rails of every input word equal the closure's). The heavier
    executor implements() path is additionally driven on every function
    with m <= 2 and on a seeded slice of the 3-input pairs; for the rest
    it is entailed by the ternary equality (a one-round all-simple
    circuit's output set is its single evaluation cube, criterion 3).
    """
    for m in (1, 2, 3):
        for table in bool_tables(m):
            h = closure_bool(table)
            c = synthesize(h)
            for x in all_words(m):
                assert eval_dag(c.dag, x) == h.entry(x)
            for x, row in table.items():
                assert eval_dag(c.dag, x) == row
            if m <= 2:
                assert implements(c, 1, h).ok

    rng = random.Random(46)
    for m in (1, 2, 3):
        singles = list(bool_tables(m))
        stables = stable_words(m)
        for f1 in singles:
            for f2 in singles:
                table = {x: f1[x].concat(f2[x]) for x in stables}
                h = closure_bool(table)
                c = synthesize(h)
                assert eval_lanes(c.dag, m, TernaryWord(0, 0)) == list(h.rails)
                for x, row in table.items():
                    assert h.entry(x) == row
                if m <= 2 or rng.random() < 0.008:
                    assert implements(c, 1, h).ok


def test_criterion_08_masking_fanout():
    """The fan-out buffer implements the masking fan-out spec for r in
    {2,3,4}, and no reachable state ever shows two metastable outputs."""
    for r in (2, 3, 4):
        c = build_fanout_buffer(r)
        assert implements(c, r, masking_fanout_spec(r)).ok
        for iota in all_words(1):
            for t in range(r + 1):
                for cube in reach(c, iota, t):
                    assert cube.subword(r, 2 * r).meta_count() <= 1


def two_sort_oracle(k, x):
    """Brute force: per-bit worst case of min/max over all resolutions."""
    code = brgc(k)
    outs = set()
    for y in res_full(x):
        u = decode(code, y.subword(0, k))
        w = decode(code, y.subword(k, 2 * k))
        outs.add(encode(code, min(u, w)).concat(encode(code, max(u, w))))
    digits = []
    for i in range(2 * k):
        vals = {o.digit(i) for o in outs}
        digits.append(vals.pop() if len(vals) == 1 else META)
    return TernaryWord.from_digits(digits)


def precision_one_words(code):
    """All codeword cubes of the given code with precision <= 1."""
    found = [encode(code, v) for v in range(code.range)]
    for base in list(found):
        for i in range(code.width):
            if base.digit(i) is META:
                continue
            w = base.with_digit(i, META)
            try:
                if precision(code, w) <= 1 and w not in found:
                    found.append(w)
            except Exception:
                continue
    return found


def test_criterion_09_converter_components():
    """TC->BRGC matches the Gray-code table and keeps single-Meta inputs
    at precision 1; 2-sorts match the brute-force oracle on all
    precision-1 pairs; BRGC->TC preserves precision 1."""
    conv = build_tc_to_brgc(3)
    gray = ["000", "001", "011", "010", "110", "111", "101", "100"]
    for v in range(8):
        got = eval_dag(conv.dag, tdc_readings(7, v).word)
        assert got == word(gray[v])
        assert got == encode(brgc(3), v)
    for v in range(7):
        got = eval_dag(conv.dag, tdc_readings(7, v, meta=True).word)
        assert precision(brgc(3), got) <= 1
        assert {decode(brgc(3), y) for y in res_full(got)} == {v, v + 1}

    for k in (1, 2, 3):
        srt = build_two_sort(k)
        sides = precision_one_words(brgc(k))
        for left in sides:
            for right in sides:
                x = left.concat(right)
                assert eval_dag(srt.dag, x) == two_sort_oracle(k, x)

    for k in (1, 2, 3):
        back = build_brgc_to_tc(k)
        out_code = tc((1 << k) - 1)
        for x in precision_one_words(brgc(k)):
            got = eval_dag(back.dag, x)
            assert precision(out_code, got) <= 1


def test_criterion_10_end_to_end_pipeline():
    """n=4, f=1, 2-bit values: every assignment of four readings with at
    most one Meta bit each yields precision <= 1 on both selected words,
    and stable inputs reproduce the order-statistics oracle exactly."""
    pipe = build_pipeline(4, 2, 1)
    code = tc(3)
    options = [(v, False) for v in range(4)] + [(v, True) for v in range(3)]
    for assignment in itertools.product(options, repeat=4):
        iw = TernaryWord.from_digits([])
        for v, meta in assignment:
            iw = iw.concat(tdc_readings(3, v, meta=meta).word)
        out = eval_dag(pipe.dag, iw)
        low, high = out.subword(0, 3), out.subword(3, 6)
        assert precision(code, low) <= 1
        assert precision(code, high) <= 1
        if all(not meta for _, meta in assignment):
            asc = sorted(v for v, _ in assignment)
            assert low == encode(code, asc[1])
            assert high == encode(code, asc[2])

    # the packaged operation agrees with the raw circuit
    readings = [tdc_readings(3, v) for v in (2, 0, 3, 1)]
    assert clock_sync_select(4, 1, readings) == (encode(code, 1),
                                                 encode(code, 2))
