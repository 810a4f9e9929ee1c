"""Closure, naturality tests, synthesis, unrolling, pivotal witnesses."""

import itertools
import pickle
import random
from collections import Counter

import pytest

from conftest import (
    all_words,
    assert_lane_spec_agrees,
    bool_tables,
    checked_synthesize,
    circuit_corpus,
    detector_spec,
    eager_spec,
    mm_example_spec,
    per_word_find_natural_subfunction,
    recursive_metastable_witness,
    resolver_spec,
    rows_closure_bool,
    scalar_candidates,
    scalar_check_bool_table,
    scalar_closure_bool,
    scalar_emit_spec_table,
    scalar_find_natural_subfunction,
    scalar_is_natural,
    scalar_prime_implicants,
    scalar_spec_layers,
    scalar_unroll,
    scalar_zeta,
    simple_copy,
    stable_words,
)
from mcsim.analysis import (
    FunctionSpec,
    PivotalSequence,
    closure_bool,
    closure_general,
    emit_spec_table,
    emit_truth_table,
    find_natural_subfunction,
    general_spec,
    is_natural,
    metastable_witness,
    natural_spec,
    parse_spec_table,
    parse_truth_table,
    pivotal_sequence,
    prime_implicants,
    synthesize,
    unroll,
)
from mcsim.executor import (
    Verdict, check_round_budget, emit_trace, implements, outputs, spec_layers, trace_check)
from mcsim.netlist import (
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
    make_circuit,
    parse_netlist,
    validate,
)
from mcsim.ternary_core import (
    META,
    ONE,
    ZERO,
    BudgetError,
    CubeSet,
    InputError,
    TernaryWord,
    res_contains,
    res_members,
    word,
    words_compatible,
)

ALL_DIGITS = (ZERO, ONE, META)


def full_res(x):
    """Stable resolutions of a word, enumerated independently."""
    metas = [i for i in range(len(x)) if x.digit(i) is META]
    for bits in itertools.product((ZERO, ONE), repeat=len(metas)):
        w = x
        for i, b in zip(metas, bits):
            w = w.with_digit(i, b)
        yield w


def flat_value(f, x):
    """All words a spec allows at x, flattened out of the cube form."""
    out = set()
    for cube in f.value_cubeset(x):
        out.update(res_members(cube))
    return out


def closure_oracle(f):
    """Per-bit closure recomputed over flat word sets, no cube shortcuts."""
    entries = {}
    for x in all_words(f.m):
        allowed = set()
        for x2 in res_members(x):
            allowed |= flat_value(f, x2)
        digits = []
        for i in range(f.n):
            seen = {w.digit(i) for w in allowed}
            digits.append(seen.pop() if len(seen) == 1 else META)
        entries[x] = TernaryWord.from_digits(digits)
    return entries


def res_m_specific(h):
    """Specificity over partial resolutions, not only the stable ones."""
    return all(res_contains(h.entry(x), h.entry(y))
               for x in all_words(h.m)
               for y in res_members(x))


def two_input_tables():
    ys = stable_words(2)
    for bits in itertools.product("01", repeat=4):
        yield {y: word(b) for y, b in zip(ys, bits)}


def random_bool_table(rng, m, n):
    return {y: TernaryWord.from_digits([rng.choice((ZERO, ONE))
                                        for _ in range(n)])
            for y in stable_words(m)}


def random_general(rng, m, n):
    values = {}
    for x in all_words(m):
        cubes = [TernaryWord.from_digits([rng.choice(ALL_DIGITS)
                                          for _ in range(n)])
                 for _ in range(rng.randint(1, 3))]
        values[x] = CubeSet.of(n, cubes)
    return general_spec(m, n, values)


def random_natural(rng, m, n):
    """Closure of a random table with some metastable entries widened to
    Any; widening never breaks specificity over stable resolutions."""
    h = closure_bool(random_bool_table(rng, m, n))
    entries = dict(h.entries)
    for x in all_words(m):
        if not x.is_stable and rng.random() < 0.4:
            entries[x] = entries[x].with_digit(rng.randrange(n), META)
    return natural_spec(m, n, entries)


def loosened_closure(rng, m, n):
    """A closure in which some stable inputs also allow their output with
    one bit flipped, as the closure-synth benchmark loosens its tables."""
    h = closure_bool(random_bool_table(rng, m, n))
    values = {}
    for x, e in h.entries.items():
        cubes = [e]
        if x.is_stable and rng.random() < 0.5:
            i = rng.randrange(n)
            cubes.append(e.with_digit(i, ONE if e.digit(i) is ZERO else ZERO))
        values[x] = CubeSet.of(n, cubes)
    return general_spec(m, n, values)


def subfunction_corpus():
    """Specs the subfunction search runs on: the worked examples, random
    general specs, loosened closures, and lane-built closures."""
    rng = random.Random(45)
    dims = lambda top: (rng.randint(0, top), rng.randint(1, 3))
    specs = [detector_spec(), resolver_spec(), mm_example_spec(), cmux_general_spec()]
    specs += [random_general(rng, *dims(3)) for _ in range(120)]
    specs += [loosened_closure(rng, rng.randint(1, 4), rng.randint(1, 3)) for _ in range(60)]
    specs += [closure_bool(random_bool_table(rng, *dims(4))) for _ in range(30)]
    specs += [closure_general(random_general(rng, *dims(3))) for _ in range(30)]
    return specs


def cmux_general_spec():
    """o follows a when s=0 or a=b, follows b when s=1, floats free when a
    metastable select splits disagreeing data inputs."""
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


def stubborn_spec():
    """Natural, yet pins MM to 0 while 0M floats: stabilizing one bit can
    widen the allowed set, so the closure will not leave this alone."""
    entries = {x: word("0") for x in all_words(2)}
    entries[word("0M")] = word("M")
    return natural_spec(2, 1, entries)


AND_TABLE = {word(a + b): word(str(int(a == "1" and b == "1")))
             for a in "01" for b in "01"}
OR_TABLE = {word(a + b): word(str(int(a == "1" or b == "1")))
            for a in "01" for b in "01"}


class TestFunctionSpec:
    def test_natural_value_is_the_entry_cube(self):
        f = closure_bool(AND_TABLE)
        assert f.value_cubeset(word("1M")) == CubeSet.of(1, [word("M")])
        assert f.value_cubeset(word("11")) == CubeSet.of(1, [word("1")])

    def test_entry_requires_natural_form(self):
        with pytest.raises(InputError):
            resolver_spec().entry(word("M"))

    def test_missing_input_rejected(self):
        entries = {x: word("0") for x in all_words(1) if x != word("M")}
        with pytest.raises(InputError, match="misses"):
            natural_spec(1, 1, entries)

    def test_wrong_entry_width_rejected(self):
        entries = {x: word("00") for x in all_words(1)}
        with pytest.raises(InputError, match="width"):
            natural_spec(1, 1, entries)

    def test_empty_value_rejected(self):
        values = {x: CubeSet.of(1, [x]) for x in all_words(1)}
        values[word("M")] = CubeSet.of(1, [])
        with pytest.raises(InputError, match="nonempty"):
            general_spec(1, 1, values)

    def test_wrong_width_input_key_rejected(self):
        entries = {x: word("0") for x in all_words(1)}
        entries[word("00")] = word("0")
        with pytest.raises(InputError):
            natural_spec(1, 1, entries)


class TestClosureBool:
    # worst-case AND/OR tables, frozen; the output is stable exactly when
    # the metastable inputs cannot change it
    AND_CLOSED = {"00": "0", "01": "0", "0M": "0",
                  "10": "0", "11": "1", "1M": "M",
                  "M0": "0", "M1": "M", "MM": "M"}
    OR_CLOSED = {"00": "0", "01": "1", "0M": "M",
                 "10": "1", "11": "1", "1M": "1",
                 "M0": "M", "M1": "1", "MM": "M"}

    def test_and_matches_frozen_table(self):
        f = closure_bool(AND_TABLE)
        for x, e in self.AND_CLOSED.items():
            assert str(f.entry(word(x))) == e

    def test_or_matches_frozen_table(self):
        f = closure_bool(OR_TABLE)
        for x, e in self.OR_CLOSED.items():
            assert str(f.entry(word(x))) == e

    def test_identity_one_bit(self):
        f = closure_bool({word("0"): word("0"), word("1"): word("1")})
        assert f.entry(word("0")) == word("0")
        assert f.entry(word("1")) == word("1")
        assert f.entry(word("M")) == word("M")

    def test_constant_zero_stays_zero_everywhere(self):
        f = closure_bool({y: word("0") for y in stable_words(2)})
        assert all(f.entry(x) == word("0") for x in all_words(2))

    def test_all_two_input_functions_match_flat_oracle(self):
        for table in two_input_tables():
            f = closure_bool(table)
            for x in all_words(2):
                seen = {table[y].digit(0) for y in full_res(x)}
                want = seen.pop() if len(seen) == 1 else META
                assert f.entry(x).digit(0) is want

    def test_stable_inputs_keep_the_exact_value(self):
        rng = random.Random(4021)
        for _ in range(10):
            table = random_bool_table(rng, 3, 2)
            f = closure_bool(table)
            assert all(f.entry(y) == table[y] for y in stable_words(3))

    def test_always_natural(self):
        # mc closure reports its spec as natural without asking is_natural
        rng = random.Random(77)
        tables = [t for m in range(4) for t in bool_tables(m)]
        tables += [random_bool_table(rng, 3, 2) for _ in range(15)]
        assert all(is_natural(closure_bool(t)) for t in tables)

    def test_same_rails_as_the_encode_of_every_row(self):
        # rows in a shuffled order: the closure places each by its key
        rng = random.Random(4023)
        for m in range(9):
            for n in range(5):
                for _ in range(4 if m < 6 else 1):
                    rows = list(random_bool_table(rng, m, n).items())
                    table = dict(rng.sample(rows, len(rows)))
                    assert closure_bool(table).rails == rows_closure_bool(table)

    def test_partial_table_rejected(self):
        table = dict(AND_TABLE)
        del table[word("11")]
        with pytest.raises(InputError, match="all"):
            closure_bool(table)

    def test_unstable_row_rejected(self):
        table = dict(AND_TABLE)
        table[word("1M")] = word("0")
        with pytest.raises(InputError):
            closure_bool(table)


class TestClosureGeneral:
    # Frozen closure entries for the clocked-multiplexer style function:
    # the output floats exactly when the select is metastable between
    # disagreeing data inputs, or when the chosen input itself floats.
    CMUX_ROWS = {"010": "0", "011": "1", "00M": "0", "11M": "1",
                 "01M": "M", "10M": "M", "0M0": "0", "0M1": "M",
                 "M00": "M", "MM0": "M", "MMM": "M"}

    def test_cmux_frozen_rows(self):
        g = closure_general(cmux_general_spec())
        for x, e in self.CMUX_ROWS.items():
            assert str(g.entry(word(x))) == e

    def test_cmux_matches_flat_oracle(self):
        f = cmux_general_spec()
        assert closure_general(f).entries == closure_oracle(f)

    def test_random_general_specs_match_flat_oracle(self):
        rng = random.Random(515)
        for _ in range(12):
            f = random_general(rng, 2, 2)
            assert closure_general(f).entries == closure_oracle(f)

    def test_fixed_point_iff_specific_over_partial_resolutions(self):
        rng = random.Random(90125)
        specs = [closure_bool(t) for t in two_input_tables()]
        specs += [random_natural(rng, 2, 2) for _ in range(20)]
        specs += [random_natural(rng, 3, 1) for _ in range(10)]
        for h in specs:
            fixed = closure_general(h).entries == h.entries
            assert fixed == res_m_specific(h)

    def test_natural_but_moved_by_the_closure(self):
        h = stubborn_spec()
        assert is_natural(h)
        assert not res_m_specific(h)
        g = closure_general(h)
        assert g.entry(word("MM")) == word("M")
        assert g.entries != h.entries

    def test_full_cube_values_give_any_everywhere(self):
        full = CubeSet.of(2, [word("MM")])
        f = general_spec(2, 2, {x: full for x in all_words(2)})
        g = closure_general(f)
        assert all(g.entry(x) == word("MM") for x in all_words(2))

    def test_idempotent(self):
        rng = random.Random(62)
        specs = [mm_example_spec(), detector_spec(), resolver_spec()]
        specs += [random_general(rng, 2, 2) for _ in range(8)]
        for f in specs:
            once = closure_general(f)
            assert closure_general(once).entries == once.entries

    def test_contains_the_input_spec(self):
        rng = random.Random(63)
        for _ in range(8):
            f = random_general(rng, 2, 1)
            g = closure_general(f)
            for x in all_words(2):
                assert all(res_contains(g.entry(x), w)
                           for w in flat_value(f, x))

    def test_always_natural(self):
        rng = random.Random(64)
        for _ in range(8):
            assert is_natural(closure_general(random_general(rng, 2, 2)))


class TestMinimality:
    """The closure is the tightest natural extension of a Boolean function.

    For single-output functions the natural extensions are easy to
    enumerate: a stable entry may be the exact value or Any, and a
    metastable entry may be Any, or a constant all its stable resolutions
    agree on.
    """

    @staticmethod
    def extension_choices(table, x, stable_entries):
        if x.is_stable:
            return {table[x], word("M")}
        opts = {word("M")}
        seen = {stable_entries[y] for y in full_res(x)}
        if len(seen) == 1 and next(iter(seen)).is_stable:
            opts.add(next(iter(seen)))
        return opts

    def test_every_two_input_extension_contains_the_closure(self):
        for table in two_input_tables():
            closed = closure_bool(table)
            ys = stable_words(2)
            for picks in itertools.product(*[(table[y], word("M"))
                                             for y in ys]):
                stable_entries = dict(zip(ys, picks))
                for x in all_words(2):
                    for e in self.extension_choices(table, x, stable_entries):
                        assert res_contains(e, closed.entry(x))

    def test_sampled_three_input_extensions_contain_the_closure(self):
        rng = random.Random(3131)
        for _ in range(30):
            table = {y: TernaryWord.from_digits([rng.choice((ZERO, ONE))])
                     for y in stable_words(3)}
            closed = closure_bool(table)
            stable_entries = {y: table[y] if rng.random() < 0.7 else word("M")
                              for y in stable_words(3)}
            entries = {}
            for x in all_words(3):
                opts = self.extension_choices(table, x, stable_entries)
                entries[x] = stable_entries[x] if x.is_stable \
                    else rng.choice(sorted(opts))
            h = natural_spec(3, 1, entries)
            assert is_natural(h)
            for x in all_words(3):
                assert res_contains(h.entry(x), closed.entry(x))


class TestIsNatural:
    def test_closure_of_and_is_natural(self):
        assert is_natural(closure_bool(AND_TABLE))

    def test_mm_example_is_not(self):
        # the value at MM is every word but MM, which no single cube equals
        assert not is_natural(mm_example_spec())

    def test_resolver_is_not(self):
        # {0,1} is not a cube: not closed
        assert not is_natural(resolver_spec())

    def test_detector_is_not(self):
        # cube-valued everywhere, but fails specificity at M
        assert not is_natural(detector_spec())

    def test_natural_form_can_still_fail_specificity(self):
        entries = {word("0"): word("0"), word("1"): word("1"),
                   word("M"): word("0")}
        assert not is_natural(FunctionSpec(1, 1, entries=entries))

    def test_general_form_with_cube_values_can_pass(self):
        f = closure_bool(AND_TABLE)
        g = general_spec(2, 1, {x: f.value_cubeset(x) for x in all_words(2)})
        assert is_natural(g)


class TestFindNaturalSubfunction:
    def test_detector_has_none(self):
        assert find_natural_subfunction(detector_spec()) is None

    def test_resolver_has_none(self):
        assert find_natural_subfunction(resolver_spec()) is None

    def test_mm_example_has_none(self):
        assert find_natural_subfunction(mm_example_spec()) is None

    def test_closures_are_their_own_subfunction(self):
        for table in two_input_tables():
            g = closure_bool(table)
            h = find_natural_subfunction(g)
            assert h is not None and h.entries == g.entries

    def test_three_input_closures_come_back_exactly(self):
        rng = random.Random(808)
        for _ in range(6):
            g = closure_bool(random_bool_table(rng, 3, 2))
            h = find_natural_subfunction(g)
            assert h is not None and h.entries == g.entries

    def test_cmux_spec_has_a_subfunction(self):
        g = cmux_general_spec()
        h = find_natural_subfunction(g)
        assert h is not None and is_natural(h)
        for x in all_words(3):
            assert any(res_contains(c, h.entry(x))
                       for c in g.value_cubeset(x))

    def test_entries_come_back_in_all_words_order(self):
        for g in (cmux_general_spec(),
                  closure_bool(random_bool_table(random.Random(3), 3, 2))):
            assert list(find_natural_subfunction(g).entries) == all_words(g.m)

    @staticmethod
    def exists_by_enumeration(g):
        """Try every stable-entry combination over {0,1,M}; metastable
        entries are forced to the per-bit join of the resolutions."""
        ys = stable_words(g.m)
        for picks in itertools.product(all_words(g.n), repeat=len(ys)):
            entries = dict(zip(ys, picks))
            if any(not any(res_contains(c, entries[y])
                           for c in g.value_cubeset(y)) for y in ys):
                continue
            ok = True
            for x in all_words(g.m):
                if x.is_stable:
                    continue
                digits = []
                for i in range(g.n):
                    seen = {entries[y].digit(i) for y in full_res(x)}
                    digits.append(seen.pop() if len(seen) == 1 else META)
                e = TernaryWord.from_digits(digits)
                if not any(res_contains(c, e) for c in g.value_cubeset(x)):
                    ok = False
                    break
            if ok:
                return True
        return False

    def test_existence_matches_enumeration(self):
        rng = random.Random(2718)
        for m, n, count in ((1, 1, 30), (2, 1, 20), (1, 2, 15)):
            for _ in range(count):
                g = random_general(rng, m, n)
                h = find_natural_subfunction(g)
                assert (h is not None) == self.exists_by_enumeration(g)

    def test_result_is_natural_and_inside_the_spec(self):
        rng = random.Random(1618)
        for _ in range(25):
            g = random_general(rng, 2, 2)
            h = find_natural_subfunction(g)
            if h is None:
                continue
            assert is_natural(h)
            for x in all_words(2):
                assert any(res_contains(c, h.entry(x))
                           for c in g.value_cubeset(x))
                if x.is_stable:
                    assert h.entry(x).is_stable

    def test_budget(self):
        with pytest.raises(BudgetError):
            find_natural_subfunction(resolver_spec(), max_nodes=1)

    # The search spends one node per candidate it tries. These are the
    # smallest budgets each search finishes within, so the candidates it
    # tries, and their order, stay fixed; one node less must fail.
    @pytest.mark.parametrize("make,nodes,found", [
        (resolver_spec, 2, False),
        (cmux_general_spec, 8, True),
        (lambda: random_general(random.Random(2), 2, 2), 7, False),
        (lambda: random_general(random.Random(6), 2, 2), 11, True),
        (lambda: random_general(random.Random(24), 2, 2), 17, True),
        (lambda: random_general(random.Random(12), 2, 1), 8, True),
        (lambda: random_general(random.Random(9), 1, 2), 5, True),
        (lambda: random_general(random.Random(5), 3, 1), 7, False),
        (lambda: closure_bool(random_bool_table(random.Random(0), 3, 2)), 8, True),
    ], ids=["resolver", "cmux", "2x2-seed2", "2x2-seed6", "2x2-seed24",
            "2x1-seed12", "1x2-seed9", "3x1-seed5", "closure-3x2"])
    def test_smallest_budget_is_pinned(self, make, nodes, found):
        g = make()
        assert (find_natural_subfunction(g, max_nodes=nodes) is not None) == found
        with pytest.raises(BudgetError):
            find_natural_subfunction(g, max_nodes=nodes - 1)

    def test_arity_cap(self):
        with pytest.raises(InputError, match="capped"):
            find_natural_subfunction(FunctionSpec(9, 1, entries={}))

    def test_candidates_are_read_off_the_lanes(self, monkeypatch):
        import mcsim.analysis as an
        seen = Counter()
        for g in subfunction_corpus():
            want = scalar_candidates(g)
            assert an._candidates(spec_layers(g), g.m, g.n) == want
            h = find_natural_subfunction(g)
            with monkeypatch.context() as mp:
                mp.setattr(an, "_candidates", lambda layers, m, n: want)
                assert find_natural_subfunction(g) == h
            seen[g.rails is not None, h is None] += 1
        assert len(seen) == 3 and min(seen.values()) > 15, seen

    def test_lane_built_specs_are_not_decoded(self, monkeypatch):
        import mcsim.analysis as an
        specs = [g for g in subfunction_corpus() if g.rails is not None]
        want = [find_natural_subfunction(g) for g in specs]

        def no_decode(*args):
            raise AssertionError("lane-built spec decoded")
        monkeypatch.setattr(an, "_decode", no_decode)
        for g, h in zip(specs, want):
            got = find_natural_subfunction(g)
            assert (got and got.rails) == (h and h.rails)
        assert sum(h is not None for h in want) > 30


class TestSynthesizedCircuitsNeedNoChecks:
    """synthesize builds its Circuit and Dag directly; make_circuit's sort
    and validation (conftest.checked_synthesize) would change nothing."""

    @staticmethod
    def assert_as_checked(h):
        c = synthesize(h)
        assert c == checked_synthesize(h)
        assert validate(c) == []
        assert dag_toposort(c.dag) is c.dag

    def test_every_small_closure(self):
        for m in range(4):
            for table in bool_tables(m):
                self.assert_as_checked(closure_bool(table))

    def test_a_slice_of_the_output_pairs(self):
        rng = random.Random(47)
        count = 0
        for m in (1, 2, 3):
            singles = list(bool_tables(m))
            for f1, f2 in itertools.product(singles, repeat=2):
                if m < 3 or rng.random() < 0.03:
                    self.assert_as_checked(closure_bool({x: f1[x].concat(f2[x]) for x in f1}))
                    count += 1
        assert count > 2000

    def test_random_wider_tables(self):
        rng = random.Random(48)
        for _ in range(30):
            m, n = rng.randint(4, 6), rng.randint(1, 3)
            self.assert_as_checked(closure_bool(random_bool_table(rng, m, n)))

    def test_every_natural_subfunction(self):
        found = [h for h in map(find_natural_subfunction, subfunction_corpus()) if h]
        for h in found:
            self.assert_as_checked(h)
        assert len(found) > 100

    def test_dict_built_natural_specs(self):
        rng = random.Random(49)
        for _ in range(30):
            h = random_natural(rng, rng.randint(0, 3), rng.randint(1, 3))
            self.assert_as_checked(h)
            self.assert_as_checked(general_spec(h.m, h.n, {
                x: CubeSet.of(h.n, [e]) for x, e in h.entries.items()}))


class TestShapeTables:
    """synthesize reads what every circuit of one shape shares (name,
    registers, NOT gates, each lane's literals) from tables built once per
    shape, which no later call changes."""

    @staticmethod
    def corpus():
        rng = random.Random(57)
        specs = [closure_bool(random_bool_table(rng, m, n))
                 for m in range(7) for n in range(4) for _ in range(3)]
        specs += [random_natural(rng, m, 2) for m in (2, 3, 4)]
        return specs + [h for h in map(find_natural_subfunction, subfunction_corpus()[:40]) if h]

    def test_two_orders_build_the_same_circuits_and_tables(self):
        import mcsim.analysis as an
        specs = self.corpus()
        shapes = {(h.m, h.n) for h in specs}
        an._shape.kept.cache_clear()
        forward = [synthesize(h) for h in specs]
        tables = {shape: an._shape(*shape) for shape in shapes}
        an._shape.kept.cache_clear()
        backward = [synthesize(h) for h in reversed(specs)][::-1]
        assert {shape: an._shape(*shape) for shape in shapes} == tables
        assert an._shape.kept.cache_info().currsize == len(shapes)
        again = [synthesize(h) for h in specs]
        assert forward == backward == again == [checked_synthesize(h) for h in specs]
        # one table per shape since the reset: one register tuple
        registers = {}
        for c in backward + again:
            assert c.registers is registers.setdefault((c.m, c.n), c.registers)

    def test_no_call_changes_a_table(self):
        import mcsim.analysis as an
        specs = self.corpus()
        for h in specs:
            synthesize(h)
        tables = {shape: an._shape(*shape) for shape in {(h.m, h.n) for h in specs}}
        copies = {shape: pickle.loads(pickle.dumps(t)) for shape, t in tables.items()}
        for h in reversed(specs):
            synthesize(h)
        assert all(an._shape(*shape) is t and t == copies[shape] for shape, t in tables.items())

    def test_wider_shapes_are_built_per_call(self):
        import mcsim.analysis as an
        an._shape.kept.cache_clear()
        h = closure_bool(random_bool_table(random.Random(58), 11, 1))
        assert synthesize(h) == checked_synthesize(h)
        assert an._shape.kept.cache_info().currsize == 0


class TestHandedOver:
    """Each step of closure -> synthesis -> check hands over what it built:
    synthesize its circuit's evaluation plan, the lane builders the mark of
    their spec's naturalness, and the subfunction search its closed rails.
    Each is checked against what the next step would compute from scratch."""

    @staticmethod
    def assert_plan_handed_over(c):
        d = c.dag
        ops, out = vars(d)["_plan"]
        want_ops, want_out = Dag(d.inputs, d.gates, d.outputs)._plan
        assert out == want_out and len(ops) == len(want_ops)
        for (rule, args), (want_rule, want_args) in zip(ops, want_ops):
            assert rule is want_rule and args == want_args

    def test_synthesized_plans_match_a_fresh_build(self):
        rng = random.Random(50)
        tables = [t for m in range(4) for t in bool_tables(m)]
        tables += [random_bool_table(rng, rng.randint(4, 6), rng.randint(1, 3))
                   for _ in range(30)]
        for table in tables:
            self.assert_plan_handed_over(synthesize(closure_bool(table)))
        for h in filter(None, map(find_natural_subfunction, subfunction_corpus())):
            self.assert_plan_handed_over(synthesize(h))

    def test_pickled_circuits_evaluate_the_same(self):
        rng = random.Random(51)
        for _ in range(20):
            h = closure_bool(random_bool_table(rng, rng.randint(0, 4), rng.randint(1, 3)))
            c = synthesize(h)
            copy = pickle.loads(pickle.dumps(c))
            assert copy == c and "_plan" not in vars(copy.dag)
            assert [eval_dag(copy.dag, x) for x in all_words(c.m)] == \
                [eval_dag(c.dag, x) for x in all_words(c.m)]
            assert implements(copy, 1, h)

    def test_marks_match_the_hull_from_scratch(self):
        from mcsim.analysis import _natural_hull
        rng = random.Random(52)
        specs = [closure_bool(random_bool_table(rng, rng.randint(0, 5), rng.randint(0, 3)))
                 for _ in range(60)]
        specs += [closure_general(random_general(rng, rng.randint(0, 3), rng.randint(1, 3)))
                  for _ in range(60)]
        specs += [h for h in map(find_natural_subfunction, subfunction_corpus()) if h]
        for f in specs:
            mark = vars(f)["_hull_mark"]
            fresh = FunctionSpec(f.m, f.n, rails=f.rails)
            assert "_hull_mark" not in vars(fresh)
            assert list(mark) == _natural_hull(fresh, digit_lanes(f.m))
        assert len(specs) > 200

    def test_closed_rails_give_the_zeta_path_primes(self):
        from mcsim.analysis import _primes
        rng = random.Random(62)
        specs = [closure_bool(t) for m in range(4) for t in bool_tables(m)]
        specs += [closure_bool(random_bool_table(rng, m, n))
                  for m in range(7) for n in (1, 2, 3) for _ in range(5)]
        specs += [h for h in map(find_natural_subfunction, subfunction_corpus()) if h]
        for h in specs:
            assert vars(h)["_closed"]
            digits, ones = digit_lanes(h.m), [o & ~z for z, o in h.rails]
            assert _primes(digits, ones, closed=True) == _primes(digits, ones)
        assert len(specs) > 500

    @pytest.mark.parametrize("m", range(12))
    def test_both_lane_scans_read_the_same_primes(self, m, monkeypatch):
        # every width through str.find (threshold 0), then through
        # lowest-set-bit clearing (threshold 12): closures, and random masks
        # whose primes are sparse or dense
        import mcsim.analysis as an
        rng = random.Random(f"scan/{m}")
        digits = digit_lanes(m)
        ones = [o & ~z for z, o in closure_bool(random_bool_table(rng, m, 2)).rails]
        ones += [0, (1 << 3 ** m) - 1, rng.getrandbits(3 ** m)]
        scans = []
        for threshold in (0, 12):
            monkeypatch.setattr(an, "_FIND_FROM", threshold)
            scans.append(an._primes(digits, ones, closed=True))
        assert scans[0] == scans[1] and scans[0][3] == [3 ** m - 1]

    def test_a_general_closure_keeps_the_zeta_path(self):
        from mcsim.analysis import _primes
        # stable 0 -> 1 and 1 -> 1, and M allows {0, 1}: the closure keeps M
        # at the M lane, where the zeta pass over the stable lanes gives 1
        one, both = CubeSet.of(1, [word("1")]), CubeSet.of(1, [word("0"), word("1")])
        h = closure_general(general_spec(1, 1, {word("0"): one, word("1"): one,
                                                word("M"): both}))
        assert not vars(h)["_closed"] and h.entry(word("M")) == word("M")
        digits, ones = digit_lanes(1), [o & ~z for z, o in h.rails]
        assert _primes(digits, ones, closed=True) == [[0, 1]]
        assert _primes(digits, ones) == [[2]]
        c = synthesize(h)
        assert [g.kind for g in c.dag.gates] == ["CONST1"] and implements(c, 1, h)

    def test_hand_built_rails_are_still_checked(self):
        detector = natural_spec(1, 1, {word("0"): word("0"), word("1"): word("0"),
                                       word("M"): word("1")})
        [(_, rails)] = spec_layers(detector)
        with pytest.raises(InputError, match="^specification is not natural$"):
            synthesize(FunctionSpec(1, 1, rails=tuple(rails)))
        rng = random.Random(53)
        seen = Counter()
        for _ in range(60):
            m, n = rng.randint(0, 3), rng.randint(1, 3)
            f = natural_spec(m, n, {x: TernaryWord.from_digits(
                rng.choice(ALL_DIGITS) for _ in range(n)) for x in all_words(m)})
            [(_, rails)] = spec_layers(f)
            want = scalar_is_natural(f)
            assert is_natural(FunctionSpec(m, n, rails=tuple(rails))) == want
            seen[want] += 1
        assert len(seen) == 2

    def test_width_constants_match_a_fresh_build(self):
        import mcsim.analysis as an
        for m in range(11):
            lane = {w: i for i, w in enumerate(all_words(m))}
            lanes = [lane[y] for y in stable_words(m)]
            assert an._stable(m) == (sum(1 << i for i in lanes), lanes,
                                     {y.packed: lane[y] for y in stable_words(m)})
            assert an._stable(m) is an._stable(m)
        an._stable.kept.cache_clear()
        mask, lanes, by_packed = an._stable(11)
        assert len(lanes) == len(by_packed) == 2048 and mask.bit_count() == 2048
        assert an._stable(11) is not an._stable(11) and an._stable.kept.cache_info().currsize == 0


class TestClosedSearch:
    """find_natural_subfunction ORs each choice's cone into rails it keeps
    closed; conftest.scalar_find_natural_subfunction runs the zeta pass per
    search node that this replaced."""

    def test_same_rails_and_budget_edge_as_the_zeta_per_node_search(self):
        rng = random.Random(54)
        specs = subfunction_corpus()
        specs += [loosened_closure(rng, rng.randint(1, 5), rng.randint(1, 3))
                  for _ in range(300)]
        seen = Counter()
        for g in specs:
            _, spent = scalar_find_natural_subfunction(g)
            for nodes in (spent, spent - 1):
                try:
                    want = scalar_find_natural_subfunction(g, nodes)[0]
                except BudgetError:
                    want = BudgetError
                try:
                    got = find_natural_subfunction(g, max_nodes=nodes)
                    got = got and got.rails
                except BudgetError:
                    got = BudgetError
                assert got == want
                seen[nodes == spent, want is BudgetError, want is None] += 1
        # found, none found, and out of budget one node short of either
        assert len(seen) == 3 and min(seen.values()) > 30, seen


class TestHandOverWorkCounts:
    """What each step hands over is not computed again; a change that
    brings the work back fails here."""

    def test_synth_of_a_natural_table_runs_the_hull_test_once(self, monkeypatch, tmp_path,
                                                             capsys):
        # is_natural finds the table natural and keeps the hull it computed,
        # which synthesize then reads instead of testing the spec again
        import mcsim.analysis as an
        from mcsim.cli import main
        hull, hulls = an._hull, []
        monkeypatch.setattr(an, "_hull", lambda *a: (hulls.append(a), hull(*a))[1])
        path = tmp_path / "h.spec"
        path.write_text(emit_spec_table(closure_bool(random_bool_table(random.Random(61), 3, 2))))
        assert main(["synth", str(path)]) == 0
        assert capsys.readouterr().out.startswith("circuit synth_3x2\n") and len(hulls) == 1

    def test_implements_on_a_synthesized_circuit_builds_no_plan(self, monkeypatch):
        from mcsim import netlist
        build, built = netlist.Dag.__dict__["_plan"].func, []

        class Counted:
            def __get__(self, dag, owner=None):
                built.append(dag)
                return build(dag)
        monkeypatch.setattr(netlist.Dag, "_plan", Counted())
        rng = random.Random(55)
        for g in subfunction_corpus()[:80]:
            if (sub := find_natural_subfunction(g)) is not None:
                assert implements(synthesize(sub), 1, g)
        for m in (0, 2, 3, 4, 5):
            h = closure_bool(random_bool_table(rng, m, 2))
            c = synthesize(h)
            assert implements(c, 1, h)
        assert built == []
        fresh = Dag(c.dag.inputs, c.dag.gates, c.dag.outputs)
        assert implements(Circuit(c.name, c.registers, fresh), 1, h)
        assert built == [fresh]

    def test_each_derived_circuit_attribute_is_computed_once(self, monkeypatch, corpus_mixed):
        from mcsim import netlist
        from mcsim.executor import read_outcomes
        computed = Counter()
        for name, attr in vars(netlist.Circuit).items():
            if isinstance(attr, netlist._derived):
                monkeypatch.setattr(attr, "func", lambda c, f=attr.func, name=name: (
                    computed.update([(id(c), name)]), f(c))[1])
        rng = random.Random(59)
        # fresh copies, with nothing derived yet, and synthesized circuits,
        # which are handed their shape's attributes and derive none
        circuits = [Circuit(c.name, c.registers, c.dag) for c in corpus_mixed[:40]]
        synthesized = [synthesize(closure_bool(random_bool_table(rng, m, n)))
                       for m in (0, 1, 2, 3, 4) for n in (1, 2)]
        circuits += synthesized
        for c in circuits:
            h = closure_bool(random_bool_table(rng, c.m, c.n))
            for r in (1, 2):
                implements(c, r, h)
            for x in all_words(c.m)[:4]:
                assert len(outputs(c, x, 2)) > 0
                state = x.concat(c.init_word())
                assert read_outcomes(c, state) == read_outcomes(c, state)
        names = {name for _, name in computed}
        assert max(computed.values()) == 1 and names == {
            "input_regs", "local_regs", "output_regs", "m", "k", "n", "_init", "read_plan"}
        assert not {id(c) for c in synthesized} & {cid for cid, _ in computed}
        # what they were handed is what they would derive
        for c in synthesized:
            fresh = Circuit(c.name, c.registers, c.dag)
            assert all(vars(c)[name] == getattr(fresh, name) for name in names)

    def test_synth_on_a_general_table_encodes_its_spec_once(self, monkeypatch, tmp_path, capsys):
        import mcsim.analysis as an
        import mcsim.executor as ex
        from mcsim.cli import main
        rng = random.Random(61)
        g = loosened_closure(rng, 6, 2)
        path = tmp_path / "g.spec"
        path.write_text(emit_spec_table(g))
        encode, encoded = ex.cube_layers, []
        counted = lambda values, n: (encoded.append(n), encode(values, n))[1]
        monkeypatch.setattr(ex, "cube_layers", counted)
        monkeypatch.setattr(an, "cube_layers", counted)
        assert main(["synth", str(path), "-o", str(tmp_path / "g.net")]) == 0
        assert "spec: general m=6 n=2" in capsys.readouterr().out
        assert encoded == [2]

    def test_synthesize_runs_no_zeta_pass_on_closed_rails(self, monkeypatch):
        import mcsim.analysis as an
        rng = random.Random(63)
        specs = [closure_bool(random_bool_table(rng, m, 2)) for m in range(6)]
        specs += [h for h in map(find_natural_subfunction, subfunction_corpus()[:80]) if h]
        zeta, passes = an._zeta, []
        monkeypatch.setattr(an, "_zeta", lambda *a: (passes.append(a), zeta(*a))[1])
        circuits = [synthesize(h) for h in specs]
        assert passes == [] and len(specs) > 30
        # rails built by hand: one pass checks they are natural, one finds the primes
        h = specs[3]
        assert synthesize(FunctionSpec(h.m, h.n, rails=h.rails)) == circuits[3]
        assert len(passes) == 2

    def test_each_width_builds_its_cones_once(self):
        import mcsim.analysis as an
        specs = subfunction_corpus()
        an._cones.kept.cache_clear()
        found = [find_natural_subfunction(g) for g in specs]
        info = an._cones.kept.cache_info()
        assert info.misses == info.currsize <= len({g.m for g in specs})
        assert info.hits > 20 * info.misses
        assert sum(h is not None for h in found) > 100

    def test_subfunction_search_runs_zeta_per_call_not_per_node(self, monkeypatch):
        import mcsim.analysis as an
        specs = subfunction_corpus()
        zeta, nodes = an._zeta, Counter()
        spend = an._Budget.spend
        monkeypatch.setattr(an, "_zeta", lambda *a: (nodes.update(["zeta"]), zeta(*a))[1])
        monkeypatch.setattr(an._Budget, "spend",
                            lambda self, k: (nodes.update(["node"] * k), spend(self, k))[1])
        found = [find_natural_subfunction(g) for g in specs]
        assert nodes["zeta"] <= len(specs) and nodes["node"] > 3 * len(specs), nodes
        assert sum(h is not None for h in found) > 100

    def test_lane_built_specs_skip_the_naturalness_check(self, monkeypatch):
        import mcsim.analysis as an
        rng = random.Random(56)
        specs = [closure_bool(random_bool_table(rng, m, n)) for m in (2, 3, 4) for n in (1, 2)]
        specs += [closure_general(random_general(rng, 2, 2)) for _ in range(5)]
        specs += [h for h in map(find_natural_subfunction, subfunction_corpus()[:60]) if h]
        layers, checked = an.spec_layers, []
        monkeypatch.setattr(an, "spec_layers", lambda f: (checked.append(f), layers(f))[1])
        for h in specs:
            assert is_natural(h)
            synthesize(h)
        assert checked == []
        copies = [FunctionSpec(h.m, h.n, rails=h.rails) for h in specs[:5]]
        for f in copies:
            synthesize(f)
        assert checked == copies


class TestStoredLayers:
    """general_spec encodes its values once and spec_layers hands over the
    layers it kept; each is checked against conftest's word-by-word
    encoder, which reads the spec through value_cubeset alone."""

    @staticmethod
    def assert_stored(f):
        assert vars(f)["_layers"] is spec_layers(f)
        assert spec_layers(f) == scalar_spec_layers(f)

    def test_every_general_spec_in_the_corpora(self, corpus_simple):
        from test_executor import random_specs
        specs = [detector_spec(), resolver_spec(), mm_example_spec()]
        specs += [g for g in subfunction_corpus() if not g.is_natural_form]
        rng = random.Random(62)
        specs += [f for c in corpus_simple[:30] for f in random_specs(c, rng)
                  if not f.is_natural_form]
        assert len(specs) > 250
        for f in specs:
            self.assert_stored(f)

    def test_parsed_general_tables_in_any_row_order(self):
        rng = random.Random(63)
        general = 0
        for _ in range(60):
            m, n = rng.randint(0, 4), rng.randint(1, 3)
            g = random_general(rng, m, n)
            head, *rows = emit_spec_table(g).splitlines()
            rng.shuffle(rows)
            f = parse_spec_table("\n".join([head, *rows]) + "\n")
            # a table of single stable cubes reads as natural
            if not f.is_natural_form:
                general += 1
                self.assert_stored(f)
                assert f == g and spec_layers(f) == spec_layers(g)
        assert general > 50

    def test_component_specs(self):
        from mcsim.components import cmux_spec, masking_fanout_spec, mux_spec
        for f in [mux_spec(), cmux_spec()] + [masking_fanout_spec(r) for r in (1, 2, 3, 8, 33)]:
            self.assert_stored(f)

    def test_loosened_closures(self):
        rng = random.Random(64)
        for m in range(6):
            for n in (1, 2, 3):
                self.assert_stored(loosened_closure(rng, m, n))

    def test_hand_built_specs_are_encoded_on_every_call(self):
        rng = random.Random(65)
        for _ in range(20):
            g = random_general(rng, rng.randint(0, 3), rng.randint(1, 3))
            f = FunctionSpec(g.m, g.n, values=g.values)
            first = spec_layers(f)
            assert first == spec_layers(g) == scalar_spec_layers(f)
            assert spec_layers(f) is not first and "_layers" not in vars(f)


class TestPrimeImplicants:
    def test_two_input_and(self):
        table = {y: 1 if y == word("11") else 0 for y in stable_words(2)}
        assert prime_implicants(table) == (word("11"),)

    def test_two_input_or(self):
        table = {y: 0 if y == word("00") else 1 for y in stable_words(2)}
        assert prime_implicants(table) == (word("1M"), word("M1"))

    def test_mux_with_consensus_term(self):
        # (not s and a) or (s and b) over inputs ordered a, b, s; the a=b
        # term is not redundant here, it is a prime implicant like the rest
        table = {}
        for y in stable_words(3):
            a, b, s = (d is ONE for d in y.digits())
            table[y] = 1 if ((not s and a) or (s and b)) else 0
        assert prime_implicants(table) == (word("11M"), word("1M0"),
                                           word("M11"))

    def test_xor_has_only_minterms(self):
        table = {y: y.digit(0) is not y.digit(1) for y in stable_words(2)}
        table = {y: 1 if v else 0 for y, v in table.items()}
        assert prime_implicants(table) == (word("01"), word("10"))

    def test_constants(self):
        zero = {y: 0 for y in stable_words(2)}
        one = {y: 1 for y in stable_words(2)}
        assert prime_implicants(zero) == ()
        assert prime_implicants(one) == (word("MM"),)

    def test_one_input_identity(self):
        table = {word("0"): 0, word("1"): 1}
        assert prime_implicants(table) == (word("1"),)

    @staticmethod
    def primes_by_brute_force(table, m):
        def implicant(c):
            return all(table[y] for y in full_res(c))

        out = set()
        for c in all_words(m):
            if not implicant(c):
                continue
            wider = (c.with_digit(i, META) for i in range(m)
                     if c.digit(i) is not META)
            if not any(implicant(w) for w in wider):
                out.add(c)
        return out

    def test_matches_brute_force(self):
        small = [dict(zip(stable_words(m), bits))
                 for m in range(4) for bits in itertools.product((0, 1), repeat=1 << m)]
        assert len(small) == 278
        rng = random.Random(6174)
        tables = small + [{y: rng.randint(0, 1) for y in stable_words(4)}
                          for _ in range(10)]
        for table in tables:
            m = len(next(iter(table)))
            assert set(prime_implicants(table)) == \
                self.primes_by_brute_force(table, m)

    def test_partial_table_rejected(self):
        with pytest.raises(InputError, match="all"):
            prime_implicants({word("0"): 1})

    def test_rows_are_checked_before_the_input_cap(self):
        with pytest.raises(InputError, match="^truth-table value for 1 must be 0 or 1$"):
            prime_implicants({word("0"): 1, word("1"): 2})
        with pytest.raises(InputError, match="^truth-table input M must be stable, width 1$"):
            prime_implicants({word("0"): 1, word("M"): 0})
        with pytest.raises(InputError, match="^prime implicants are capped at 10 inputs$"):
            prime_implicants(dict.fromkeys(stable_words(11), 1))

    def test_keys_packed_past_their_digits_are_input_errors(self):
        # 0b0101 is the word 11, and the bit above its two digits is spoilt:
        # such a key or value is refused when it is built, before any table
        with pytest.raises(InputError, match="^no word of width 2 is packed as 0x15$"):
            TernaryWord(2, 0b0101 | 1 << 4)
        with pytest.raises(InputError, match="^no word of width 1 is packed as 0x5$"):
            TernaryWord(1, 0b101)


class TestPerWordReferences:
    """The lane-form analysis against the per-word algorithms it replaced
    (conftest's scalar_* references)."""

    def test_bool_table_checks_name_the_same_first_bad_row(self):
        # one or two rows spoilt anywhere (unstable or wrong width), in any
        # order, or rows missing; a word packed with a digit 3 or bits past
        # its width is refused when it is built, so no row holds one
        from mcsim.analysis import _check_bool_table
        rng = random.Random(77)
        for packed in (0b0111, 0b010001):
            with pytest.raises(InputError):
                TernaryWord(2, packed)
        spoil = [lambda w: w.with_digit(rng.randrange(w.width), META) if w.width else w,
                 lambda w: w.concat(word(rng.choice("01"))),
                 lambda w: w.subword(1, w.width) if w.width else w]
        seen = Counter()
        for _ in range(600):
            m, n = rng.randint(0, 4), rng.randint(0, 3)
            rows = [[x, TernaryWord(n, int(format(rng.getrandbits(n), "b"), 4) if n else 0)]
                    for x in stable_words(m)]
            rng.shuffle(rows)
            for _ in range(rng.randint(0, 2)):
                row = rng.choice(rows)
                side = rng.randrange(2)
                row[side] = rng.choice(spoil)(row[side])
            if rng.random() < 0.2:
                del rows[rng.randrange(len(rows)):]
            table = dict(map(tuple, rows))
            try:
                want = scalar_check_bool_table(table)
            except InputError as e:
                with pytest.raises(InputError) as got:
                    _check_bool_table(table)
                assert str(got.value) == str(e)
                seen[next(k for k in ("needs", "empty", "output", "input")
                          if k in str(e))] += 1
            else:
                assert _check_bool_table(table) == want
                seen["ok"] += 1
        assert len(seen) == 5 and min(seen.values()) > 10, seen

    def test_closure_bool(self):
        small = [dict(zip(stable_words(m), map(TernaryWord.parse, bits)))
                 for m in range(4) for bits in itertools.product("01", repeat=1 << m)]
        rng = random.Random(2027)
        tables = small + [random_bool_table(rng, rng.randint(0, 5), rng.randint(1, 3))
                          for _ in range(200)]
        for table in tables:
            h = closure_bool(table)
            assert list(h.entries.items()) == list(scalar_closure_bool(table).items())

    def test_is_natural(self):
        rng = random.Random(4)
        seen = Counter()
        for _ in range(60):
            m, n = rng.randint(0, 3), rng.randint(1, 3)
            h = random_natural(rng, m, n)
            loose = natural_spec(m, n, {x: TernaryWord.from_digits(
                rng.choice(ALL_DIGITS) for _ in range(n)) for x in all_words(m)})
            # each value a cube, given as itself or with cubes inside it
            cubes = general_spec(m, n, {x: CubeSet.of(n, [e] + [
                e.with_digit(i, rng.choice((ZERO, ONE))) for i in range(n)
                if e.digit(i) is META and rng.random() < 0.5])
                for x, e in h.entries.items()})
            # one metastable input also allows a random cube beside them
            beside = dict(cubes.values)
            if m:
                x = rng.choice([x for x in all_words(m) if not x.is_stable])
                beside[x] = CubeSet.of(n, list(beside[x]) + [rng.choice(all_words(n))])
            beside = general_spec(m, n, beside)
            for f in (h, loose, cubes, beside, random_general(rng, m, n)):
                want = scalar_is_natural(f)
                assert is_natural(f) == want
                seen[want] += 1
        assert min(seen.values()) > 50 and len(seen) == 2

    def test_find_natural_subfunction_and_its_budget(self):
        rng = random.Random(77)
        seen = Counter()
        for _ in range(320):
            g = random_general(rng, rng.randint(0, 3), rng.randint(1, 3))
            want, spent = per_word_find_natural_subfunction(g)
            h = find_natural_subfunction(g, max_nodes=spent)
            assert (h and h.entries) == want
            if spent:
                with pytest.raises(BudgetError):
                    find_natural_subfunction(g, max_nodes=spent - 1)
            seen[want is None] += 1
        assert min(seen.values()) > 100

    def test_zeta(self):
        import mcsim.analysis as an
        rng = random.Random(51)
        for m in range(6):
            digits = digit_lanes(m)
            for n in range(4):
                for _ in range(8):
                    rails = [(rng.getrandbits(3 ** m), rng.getrandbits(3 ** m))
                             for _ in range(n)]
                    assert an._zeta(digits, rails) == scalar_zeta(digits, rails)

    @pytest.mark.parametrize("m", [4, 5, 7, 8])
    def test_prime_implicants(self, m):
        rng = random.Random(m)
        for density in (0.2, 0.5, 0.8) * 5:
            table = {y: int(rng.random() < density) for y in stable_words(m)}
            assert prime_implicants(table) == scalar_prime_implicants(table)


class TestLaneBuiltSpecs:
    """closure_bool, closure_general and find_natural_subfunction return
    specs that keep their rails; every public view matches the eager
    decode and the dict-built copy (conftest.assert_lane_spec_agrees)."""

    def test_closure_bool(self):
        rng = random.Random(31)
        tables = [t for m in range(4) for t in bool_tables(m)]
        tables += [random_bool_table(rng, rng.randint(0, 4), rng.randint(0, 3))
                   for _ in range(60)]
        prev = {}
        seen = Counter()
        for table in tables:
            f = closure_bool(table)
            # the previous closure's circuit of the same shape mostly fails here
            other = prev.get((f.m, f.n))
            c = prev[f.m, f.n] = synthesize(f)
            seen.update(v.ok for v in assert_lane_spec_agrees(f, [c] + [other] * bool(other)))
        assert seen[False] > 200 and seen[True] >= len(tables)

    def test_closure_general_and_natural_subfunctions(self):
        rng = random.Random(32)
        seen = Counter()
        prev = {}
        for _ in range(150):
            g = random_general(rng, rng.randint(0, 3), rng.randint(1, 3))
            f = closure_general(g)
            h = find_natural_subfunction(g)
            circuits = [synthesize(f)] + ([synthesize(h)] if h else [])
            other = prev.get((g.m, g.n))
            prev[g.m, g.n] = circuits[-1]
            for spec in (f, h) if h else (f,):
                verdicts = assert_lane_spec_agrees(spec, circuits + [other] * bool(other))
                seen.update((spec is h, v.ok) for v in verdicts)
        assert len(seen) == 4 and min(seen.values()) > 20, seen

    def test_specs_still_build_from_dicts(self):
        h = closure_bool(AND_TABLE)
        for f in (FunctionSpec(2, 1, entries=dict(h.entries)),
                  natural_spec(2, 1, h.entries)):
            assert f.rails is None and f.is_natural_form and f == h
        g = FunctionSpec(2, 1, values={x: CubeSet.of(1, [e]) for x, e in h.entries.items()})
        assert g.rails is None and not g.is_natural_form and g != h

    def test_stays_immutable(self):
        h = closure_bool(AND_TABLE)
        for name in ("entries", "values", "rails"):
            with pytest.raises(AttributeError):
                setattr(h, name, None)
        assert h.entries[word("11")] == word("1")

    def test_closure_synthesis_and_check_never_decode(self, monkeypatch):
        import mcsim.analysis as an
        rng = random.Random(33)
        tables = [random_bool_table(rng, m, n) for m in (3, 4) for n in (1, 2, 3)]

        def no_decode(*args):
            raise AssertionError("lane-built spec decoded")
        monkeypatch.setattr(an, "_decode", no_decode)
        for table in tables:
            h = closure_bool(table)
            assert is_natural(h)
            assert implements(synthesize(h), 1, h)
        with pytest.raises(AssertionError, match="decoded"):
            h.entries


class TestEmptyValueSets:
    """A hand-built spec may give an input no allowed output at all."""

    def spec(self):
        values = {x: CubeSet.of(1, [word("M")]) for x in all_words(2)}
        values[word("1M")] = CubeSet(1, ())
        return FunctionSpec(2, 1, values=values)

    def test_closure_general_is_an_input_error(self):
        with pytest.raises(InputError, match="no output at input 1M"):
            closure_general(self.spec())

    def test_not_natural(self):
        assert not is_natural(self.spec())

    def test_no_circuit_implements_it(self):
        c = synthesize(closure_bool({y: word("0") for y in stable_words(2)}))
        assert implements(c, 1, self.spec()) == Verdict(False, word("1M"), word("0"))


class TestSynthesize:
    def test_and_closure_round_trips_exactly(self):
        h = closure_bool(AND_TABLE)
        c = synthesize(h)
        for x in all_words(2):
            assert eval_dag(c.dag, x) == h.entry(x)
        assert implements(c, 1, h).ok

    def test_all_two_input_closures_round_trip(self):
        for table in two_input_tables():
            h = closure_bool(table)
            c = synthesize(h)
            for x in all_words(2):
                assert eval_dag(c.dag, x) == h.entry(x)

    def test_cmux_closure_equals_the_consensus_circuit(self):
        table = {}
        for y in stable_words(3):
            a, b, s = (d is ONE for d in y.digits())
            table[y] = word(str(int((not s and a) or (s and b))))
        c = synthesize(closure_bool(table))
        ref = make_circuit(
            "ref",
            [RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
             RegisterDecl("b", Role.INPUT, RegType.SIMPLE),
             RegisterDecl("s", Role.INPUT, RegType.SIMPLE),
             RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)],
            [Gate("ns", "NOT", ("s",)),
             Gate("t1", "AND", ("ns", "a")),
             Gate("t2", "AND", ("s", "b")),
             Gate("t3", "AND", ("a", "b")),
             Gate("sel", "OR", ("t1", "t2", "t3"))],
            {"o": "sel"})
        for x in all_words(3):
            assert eval_dag(c.dag, x) == eval_dag(ref.dag, x)

    def test_any_everywhere_becomes_const0(self):
        h = natural_spec(2, 1, {x: word("M") for x in all_words(2)})
        c = synthesize(h)
        assert [g.kind for g in c.dag.gates] == ["CONST0"]
        assert eval_dag(c.dag, word("MM")) == word("0")

    def test_constant_one_becomes_const1(self):
        h = natural_spec(2, 1, {x: word("1") for x in all_words(2)})
        c = synthesize(h)
        assert [g.kind for g in c.dag.gates] == ["CONST1"]

    def test_not_gates_sit_at_the_leaves(self):
        table = {y: word(str(int(y == word("00")))) for y in stable_words(2)}
        c = synthesize(closure_bool(table))
        assert [g.gid for g in c.dag.gates] == ["not_x0", "not_x1", "y0_t0"]
        assert c.dag.gates[2] == Gate("y0_t0", "AND", ("not_x0", "not_x1"))

    def test_single_literal_implicant_drives_directly(self):
        table = {word("0"): word("1"), word("1"): word("0")}
        c = synthesize(closure_bool(table))
        assert [g.gid for g in c.dag.gates] == ["not_x0"]
        assert dict(c.dag.outputs)["y0"] == "not_x0"

    def test_multi_output_specs(self):
        rng = random.Random(929)
        for _ in range(6):
            h = closure_bool(random_bool_table(rng, 3, 2))
            c = synthesize(h)
            assert validate(c) == []
            for x in all_words(3):
                assert eval_dag(c.dag, x) == h.entry(x)

    def test_widened_natural_specs_are_still_implemented(self):
        rng = random.Random(930)
        for _ in range(10):
            h = random_natural(rng, 2, 2)
            c = synthesize(h)
            v = implements(c, 1, h)
            assert v.ok, str(v.witness_input)

    def test_non_natural_specs_rejected(self):
        for bad in (mm_example_spec(), resolver_spec(), detector_spec()):
            with pytest.raises(InputError, match="not natural"):
                synthesize(bad)


class TestUnroll:
    def test_feedback_three_rounds_structure(self, feedback_circuit):
        from conftest import simple_copy
        c = simple_copy(feedback_circuit)
        u = unroll(c, 3)
        assert validate(u) == []
        assert u.registers == c.registers
        assert [g.gid for g in u.dag.gates] == [
            "g_or__u1", "g_and__u1", "O1__sink__u1",
            "L1__u2", "g_or__u2", "g_and__u2", "O1__sink__u2",
            "L1__u3", "g_or__u3", "g_and__u3",
        ]
        seam = u.dag.gates[3]
        assert seam.kind == "BUF" and seam.args == ("g_or__u1",)
        assert dict(u.dag.outputs) == {"L1": "g_or__u3", "O1": "g_and__u3"}

    def test_single_round_is_a_plain_copy(self, feedback_circuit):
        from conftest import simple_copy
        c = simple_copy(feedback_circuit)
        u = unroll(c, 1)
        assert [g.gid for g in u.dag.gates] == ["g_or__u1", "g_and__u1"]
        for x in all_words(2):
            assert outputs(u, x, 1) == outputs(c, x, 1)

    def test_matches_multi_round_execution(self, corpus_simple):
        for c in corpus_simple:
            u = unroll(c, 2)
            for x in all_words(c.m):
                assert outputs(u, x, 1) == outputs(c, x, 2), (c.name, str(x))

    def test_three_rounds_on_a_slice_of_the_corpus(self, corpus_simple):
        for c in corpus_simple[:15]:
            u = unroll(c, 3)
            for x in all_words(c.m):
                assert outputs(u, x, 1) == outputs(c, x, 3), (c.name, str(x))

    def test_shift_register_chain(self):
        c = make_circuit(
            "shift",
            [RegisterDecl("i0", Role.INPUT, RegType.SIMPLE),
             RegisterDecl("l0", Role.LOCAL, RegType.SIMPLE, ZERO),
             RegisterDecl("o0", Role.OUTPUT, RegType.SIMPLE, ZERO)],
            [], {"l0": "i0", "o0": "l0"})
        u = unroll(c, 2)
        for x in all_words(1):
            assert outputs(u, x, 1) == outputs(c, x, 2)
            assert outputs(u, x, 1) == CubeSet.of(1, [x])

    def test_masked_registers_rejected(self, feedback_circuit):
        with pytest.raises(InputError, match="simple"):
            unroll(feedback_circuit, 2)

    def test_zero_rounds_rejected(self, feedback_circuit):
        from conftest import simple_copy
        with pytest.raises(InputError, match="at least one"):
            unroll(simple_copy(feedback_circuit), 0)

    def test_size_is_capped(self, feedback_circuit):
        # 2 gates, 1 local and 1 output a round
        c = simple_copy(feedback_circuit)
        for r in (50_001, 10 ** 8):
            with pytest.raises(InputError, match="^unroll is capped at 200000 gates"):
                unroll(c, r)

    def test_same_bytes_as_the_copy_loop_reference(self, corpus_mixed, corpus_simple):
        def outcome(build, c, r):
            try:
                return emit_netlist(build(c, r))
            except InputError as e:
                return f"error: {e}"
        more = circuit_corpus(seed=6007, count=300, max_regs=7, all_simple=True)
        circuits = corpus_mixed + [simple_copy(c) for c in corpus_mixed] + corpus_simple + more
        for c in circuits:
            for r in range(1, 6):
                assert outcome(unroll, c, r) == outcome(scalar_unroll, c, r), (c.name, r)


class TestPivotalSequence:
    def test_frozen_examples(self):
        assert [str(w) for w in pivotal_sequence(word("00"), word("11"))] \
            == ["00", "0M", "01", "M1", "11"]
        assert [str(w) for w in pivotal_sequence(word("0"), word("M"))] \
            == ["0", "M"]
        assert [str(w) for w in pivotal_sequence(word("MM"), word("MM"))] \
            == ["MM"]

    def test_metastable_endpoints(self):
        ps = pivotal_sequence(word("M1"), word("0M"))
        assert [str(w) for w in ps] == ["M1", "MM", "0M"]

    def test_validation_rejects_bad_steps(self):
        with pytest.raises(InputError, match="exactly one"):
            PivotalSequence((word("00"), word("MM")))
        with pytest.raises(InputError, match="through M"):
            PivotalSequence((word("00"), word("01")))
        with pytest.raises(InputError, match="empty"):
            PivotalSequence(())

    def test_random_pairs(self):
        rng = random.Random(35)
        for _ in range(60):
            w = rng.randint(1, 5)
            x = TernaryWord.from_digits([rng.choice(ALL_DIGITS)
                                         for _ in range(w)])
            y = TernaryWord.from_digits([rng.choice(ALL_DIGITS)
                                         for _ in range(w)])
            ps = pivotal_sequence(x, y)
            assert ps.words[0] == x and ps.words[-1] == y
            assert len(ps) <= 2 * w + 1
            for a, b in zip(ps.words, ps.words[1:]):
                assert words_compatible(a, b)

    def test_width_mismatch(self):
        with pytest.raises(InputError, match="width"):
            pivotal_sequence(word("0"), word("00"))


def buf_circuit(kind="BUF"):
    return make_circuit(
        "probe",
        [RegisterDecl("x", Role.INPUT, RegType.SIMPLE),
         RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)],
        [Gate("g", kind, ("x",))], {"o": "g"})


@pytest.fixture
def witness_spend(monkeypatch):
    """The units each witness search spends, one entry per expanded state."""
    import mcsim.executor as ex
    spent = []

    class Counted(ex._Budget):
        def spend(self, n):
            if self.what == "witness search":
                spent.append(n)
            super().spend(n)
    monkeypatch.setattr(ex, "_Budget", Counted)
    monkeypatch.setattr("mcsim.analysis._Budget", Counted)
    return spent


class TestMetastableWitness:
    def test_buffer_forced_metastable(self):
        c = buf_circuit()
        t = metastable_witness(c, 1, word("0"), word("1"))
        assert t is not None and trace_check(c, t)
        assert t.rounds[0].state.subword(0, 1) == word("M")
        assert t.rounds[-1].state.digit(1) is META

    def test_inverter_forced_metastable(self):
        c = buf_circuit("NOT")
        t = metastable_witness(c, 1, word("0"), word("1"))
        assert t is not None and trace_check(c, t)
        assert t.rounds[-1].state.digit(1) is META

    def test_constant_output_overlaps(self):
        c = make_circuit(
            "k0",
            [RegisterDecl("x", Role.INPUT, RegType.SIMPLE),
             RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)],
            [Gate("z", "CONST0", ())], {"o": "z"})
        assert metastable_witness(c, 1, word("0"), word("1")) is None

    def test_equal_inputs_overlap(self):
        assert metastable_witness(buf_circuit(), 1, word("0"), word("0")) \
            is None

    def test_synthesized_circuits_between_disagreeing_corners(self):
        for table in two_input_tables():
            c = synthesize(closure_bool(table))
            t = metastable_witness(c, 1, word("00"), word("11"))
            if table[word("00")] == table[word("11")]:
                assert t is None
            else:
                assert t is not None and trace_check(c, t)
                assert t.rounds[-1].state.digit(2) is META
                piv = pivotal_sequence(word("00"), word("11")).words
                assert t.rounds[0].state.subword(0, 2) in piv

    def test_masked_feedback_witness_frozen(self, feedback_circuit):
        t = metastable_witness(feedback_circuit, 2, word("00"), word("11"))
        assert t is not None and trace_check(feedback_circuit, t)
        assert emit_trace(t) == ("0 | 0M11 | 0M1 | MM | MM\n"
                                 "1 | 0MMM | 0MM | MM | MM\n"
                                 "2 | 0MMM\n")

    def test_deterministic(self):
        c = buf_circuit()
        t1 = metastable_witness(c, 1, word("0"), word("1"))
        t2 = metastable_witness(c, 1, word("0"), word("1"))
        assert emit_trace(t1) == emit_trace(t2)

    def test_width_mismatch(self):
        with pytest.raises(InputError):
            metastable_witness(buf_circuit(), 1, word("00"), word("11"))

    def test_matches_the_recursive_search(self):
        # masked registers branch the reads, so the trace shows the order
        # of the outcomes, and the small caps where the budget runs out
        rng = random.Random(31)
        seen = Counter()
        for c in circuit_corpus(seed=4242, count=60, max_regs=5):
            a, b = rng.choice(all_words(c.m)), rng.choice(all_words(c.m))
            for r, cap in ((1, None), (2, None), (3, None), (3, 6), (2, 3)):
                try:
                    want = recursive_metastable_witness(c, r, a, b, cap)
                except BudgetError:
                    with pytest.raises(BudgetError):
                        metastable_witness(c, r, a, b, cap)
                    seen["budget"] += 1
                    continue
                assert metastable_witness(c, r, a, b, cap) == want
                seen[want is None] += 1
        assert min(seen.values()) > 20 and len(seen) == 3

    def test_every_budget_ends_as_the_two_step_spend_did(self, corpus_mixed):
        # the recursive search reads all outcomes, then spends their count;
        # the search spends 1 << branches before it builds them: the same
        # units, so every cap ends in the same trace, None or BudgetError
        rng = random.Random(60)
        seen = Counter()
        for c in corpus_mixed:
            a, b = rng.sample(stable_words(c.m), 2) if c.m > 1 else stable_words(1)
            r = rng.randint(3, 8)
            for cap in [*range(61), None]:
                try:
                    check_round_budget(r, cap)
                    want = recursive_metastable_witness(c, r, a, b, cap)
                except BudgetError as e:
                    with pytest.raises(BudgetError) as got:
                        metastable_witness(c, r, a, b, cap)
                    assert str(got.value) == str(e)
                    seen["rounds" if str(e)[0].isdigit() else str(e).split()[0]] += 1
                    continue
                assert metastable_witness(c, r, a, b, cap) == want, (c.name, cap)
                seen[want is None] += 1
        # the caps run out in check_round_budget, reach and the search itself
        assert min(seen.values()) > 20 and len(seen) == 5, seen

    def test_spends_what_the_recursive_search_spends(self, witness_spend):
        rng = random.Random(57)
        backed_up = 0
        for c in circuit_corpus(seed=1913, count=100, max_regs=6):
            for _ in range(3):
                a, b = rng.sample(stable_words(c.m), 2) if c.m > 1 else stable_words(1)
                r = rng.randint(2, 5)
                witness_spend.clear()
                want, units = recursive_metastable_witness(c, r, a, b, None), list(witness_spend)
                witness_spend.clear()
                assert metastable_witness(c, r, a, b, None) == want and witness_spend == units
                backed_up += len(units) > r
        assert backed_up >= 3

    # Here two paths of the search meet in a state whose search has
    # already failed; the failed cache skips it the second time.
    REVISIT_NET = """\
circuit revisit
input i0 mask0
local l0 mask1 init M
local l1 mask1 init M
output o0 simple init 1
output o1 mask1 init 0
output o2 mask1 init 1
drive l0 l0
drive l1 i0
drive o0 l0
drive o1 l1
drive o2 l0
"""

    @pytest.mark.parametrize("r,units", [(2, [4, 1, 1, 2]), (3, [4, 1, 1, 1, 2, 2]),
                                         (5, [4, 1, 1, 1, 1, 1, 2, 2, 2, 2])])
    def test_failed_states_are_not_searched_again(self, witness_spend, r, units):
        c = parse_netlist(self.REVISIT_NET)
        t = metastable_witness(c, r, word("0"), word("1"))
        assert witness_spend == units and trace_check(c, t)
        witness_spend.clear()
        assert recursive_metastable_witness(c, r, word("0"), word("1"), None) == t
        assert witness_spend == units

    def test_outputs_once_per_pivotal_word(self, monkeypatch):
        # the endpoints' output sets are reused when the walk reaches them
        import mcsim.analysis as an
        calls = []

        def spy(c, p, r, max_states):
            calls.append(p)
            return outputs(c, p, r, max_states)
        monkeypatch.setattr(an, "outputs", spy)
        rng = random.Random(58)
        ends = Counter()
        pair = parse_netlist("circuit pair\ninput i0 simple\ninput i1 simple\n"
                             "output o0 simple init 0\noutput o1 simple init 0\n"
                             "drive o0 i0\ndrive o1 i1\n")
        # the pair's output is its input, so its witness starts at "0M"
        runs = [(pair, word(a), word(b)) for a, b in (("0M", "10"), ("10", "0M"))]
        for c in circuit_corpus(seed=2718, count=80, max_regs=5):
            runs.append((c, rng.choice(all_words(c.m)), rng.choice(all_words(c.m))))
        for c, a, b in runs:
            calls.clear()
            t = metastable_witness(c, rng.randint(1, 3), a, b)
            words, walked = pivotal_sequence(a, b).words, ()
            if t is not None:
                start = t.rounds[0].state.subword(0, c.m)
                walked = words[:words.index(start) + 1]
                ends[start == a, start == b] += 1
            # the endpoints first, then each newly walked word, none twice
            assert calls == list(dict.fromkeys((a, b) + walked)), (c.name, a, b)
        assert ends[True, False] and ends[False, False] > 5

    def test_deep_rounds_run_without_recursion(self):
        c = buf_circuit()
        t = metastable_witness(c, 3000, word("0"), word("1"))
        assert len(t) == 3001 and trace_check(c, t)

    def test_more_rounds_than_the_state_budget(self):
        with pytest.raises(BudgetError, match="^11 rounds exceed the state "
                           "budget of 10; raise the max-states cap$"):
            metastable_witness(buf_circuit(), 11, word("0"), word("1"), 10)
        assert metastable_witness(buf_circuit(), 10, word("0"), word("1"), 10)


class TestTheoremFourBothWays:
    """No natural subfunction means no one-round circuit; a natural
    subfunction means synthesis succeeds."""

    def test_no_subfunction_no_small_circuit(self):
        from conftest import random_circuit
        rng = random.Random(1234)
        for g in (detector_spec(), resolver_spec()):
            for _ in range(60):
                c = random_circuit(rng, max_regs=2, max_inputs=1)
                assert not implements(c, 1, g).ok

    def test_subfunction_synthesizes_and_implements(self):
        g = cmux_general_spec()
        h = find_natural_subfunction(g)
        c = synthesize(h)
        assert implements(c, 1, g).ok
        rng = random.Random(4321)
        done = 0
        for _ in range(40):
            spec = random_general(rng, 2, 1)
            h = find_natural_subfunction(spec)
            if h is None:
                continue
            assert implements(synthesize(h), 1, spec).ok
            done += 1
        assert done > 5


NAT_FILE = """\
spec m=1 n=1
# identity; the middle row floats
0 -> 0
1 -> 1
M -> *
"""

GEN_FILE = """\
spec m=1 n=1
0 -> 0
1 -> 1
M -> 0,1
"""


class TestSpecTables:
    def test_parse_natural(self):
        f = parse_spec_table(NAT_FILE)
        assert f.is_natural_form and (f.m, f.n) == (1, 1)
        assert f.entry(word("M")) == word("M")
        assert f.entry(word("0")) == word("0")

    def test_parse_general(self):
        f = parse_spec_table(GEN_FILE)
        assert not f.is_natural_form
        assert f.values == resolver_spec().values

    def test_all_stable_rows_read_as_natural(self):
        text = "spec m=1 n=1\n0 -> 0\n1 -> 0\nM -> 1\n"
        f = parse_spec_table(text)
        assert f.is_natural_form
        # same denotation as the detector, and just as unimplementable
        assert find_natural_subfunction(f) is None

    def test_emit_parse_round_trip_natural(self):
        f = closure_bool(AND_TABLE)
        assert parse_spec_table(emit_spec_table(f)).entries == f.entries

    def test_emit_parse_round_trip_general(self):
        f = mm_example_spec()
        assert parse_spec_table(emit_spec_table(f)).values == f.values

    def test_lane_built_tables_are_written_from_the_rails(self, monkeypatch):
        import mcsim.analysis as an
        rng = random.Random(52)
        specs = [closure_bool(t) for m in range(3) for t in bool_tables(m)]
        specs += [closure_bool(random_bool_table(rng, rng.randint(0, 8), rng.randint(0, 3)))
                  for _ in range(40)]
        specs += [h for h in map(find_natural_subfunction, subfunction_corpus())
                  if h is not None]

        def no_decode(*args):
            raise AssertionError("lane-built spec decoded")
        with monkeypatch.context() as mp:
            mp.setattr(an, "_decode", no_decode)
            texts = [emit_spec_table(f) for f in specs]
        for f, text in zip(specs, texts):
            assert text == scalar_emit_spec_table(eager_spec(f.m, f.n, f.rails))

    def test_dict_built_tables_match_the_row_writer(self):
        rng = random.Random(53)
        specs = [random_natural(rng, rng.randint(0, 4), rng.randint(1, 3)) for _ in range(40)]
        specs += [natural_spec(m, 0, {x: TernaryWord(0, 0) for x in all_words(m)})
                  for m in range(3)]
        specs += [parse_spec_table(emit_spec_table(f)) for f in specs]
        specs += [detector_spec(), resolver_spec()]
        for f in specs:
            assert f.rails is None
            assert emit_spec_table(f) == scalar_emit_spec_table(f)

    def test_star_never_leaks_into_inputs(self):
        text = emit_spec_table(closure_bool(AND_TABLE))
        lhs = [line.split("->")[0] for line in text.splitlines()[1:]]
        assert any("M" in s for s in lhs)

    def test_mixed_styles_rejected(self):
        text = "spec m=1 n=1\n0 -> *\n1 -> 1\nM -> 0,1\n"
        with pytest.raises(InputError, match="mixes"):
            parse_spec_table(text)

    def test_missing_row_rejected(self):
        text = "spec m=1 n=1\n0 -> 0\n1 -> 1\n"
        with pytest.raises(InputError, match="misses"):
            parse_spec_table(text)

    def test_duplicate_row_rejected(self):
        text = "spec m=1 n=1\n0 -> 0\n0 -> 1\n1 -> 1\nM -> *\n"
        with pytest.raises(ParseError) as e:
            parse_spec_table(text)
        assert e.value.lineno == 3

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError) as e:
            parse_spec_table("spec m=1\n0 -> 0\n")
        assert e.value.lineno == 1

    def test_bad_entry_width_rejected(self):
        text = "spec m=1 n=1\n0 -> 00\n1 -> 1\nM -> *\n"
        with pytest.raises(InputError):
            parse_spec_table(text)


class TestTruthTables:
    def test_round_trip(self):
        assert parse_truth_table(emit_truth_table(AND_TABLE)) == AND_TABLE

    def test_parse(self):
        text = "table m=1 n=2\n0 -> 01\n1 -> 10\n"
        t = parse_truth_table(text)
        assert t == {word("0"): word("01"), word("1"): word("10")}

    def test_unstable_row_rejected(self):
        text = "table m=1 n=1\n0 -> 0\nM -> 1\n"
        with pytest.raises(ParseError, match="stable"):
            parse_truth_table(text)

    def test_incomplete_rejected(self):
        with pytest.raises(InputError, match="all"):
            parse_truth_table("table m=2 n=1\n00 -> 0\n")

    def test_wrong_width_rejected(self):
        text = "table m=2 n=1\n00 -> 0\n011 -> 1\n"
        with pytest.raises(ParseError, match="width"):
            parse_truth_table(text)

    def test_duplicate_rejected(self):
        text = "table m=1 n=1\n0 -> 0\n0 -> 1\n"
        with pytest.raises(ParseError) as e:
            parse_truth_table(text)
        assert e.value.lineno == 3

    def test_first_of_two_errors_is_reported(self):
        # an unstable row on line 3, then a row without an arrow on line 4
        text = "table m=2 n=1\n00 -> 0\n0M -> 0\n10 0\n11 -> 1\n"
        with pytest.raises(ParseError, match="stable") as e:
            parse_truth_table(text)
        assert e.value.lineno == 3
