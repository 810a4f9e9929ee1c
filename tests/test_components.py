"""Component library: multiplexers, fan-out, counters, code converters,
sorting networks, and the clock-sync datapath."""

import functools
import itertools
import random
from collections import Counter
from operator import and_

import pytest

from conftest import (apply_layers, concat_clock_sync_select, scalar_build_selector,
                      scalar_cmux_spec, scalar_mux_spec, text_tdc_error)
from mcsim.components import (
    SortingNetwork,
    TdcReading,
    build_brgc_to_tc,
    build_cmux_clocked,
    build_cmux_combinational,
    build_counter,
    build_fanout_buffer,
    build_mux,
    build_pipeline,
    build_selector,
    build_sorting_network,
    build_tc_to_brgc,
    build_two_sort,
    clock_sync_select,
    cmux_spec,
    masking_fanout_spec,
    mux_spec,
    pipeline_bits,
    tdc_readings,
)
from mcsim.analysis import FunctionSpec, closure_bool
from mcsim.executor import implements, outputs, reach
from mcsim.netlist import Dag, digit_lanes, eval_dag, parse_netlist, emit_netlist, validate
from mcsim.ternary_core import (
    META,
    CubeSet,
    InputError,
    TernaryWord,
    brgc,
    decode,
    encode,
    precision,
    res_full,
    stable_words,
    tc,
    word,
)

EMPTY = TernaryWord.from_digits([])


def cubeset(width, texts):
    return CubeSet.of(width, [word(t) for t in texts])


def boundary(code, v):
    """The cube covering the codewords of v and v+1."""
    a, b = encode(code, v), encode(code, v + 1)
    return TernaryWord.from_digits(
        [da if da is db else META for da, db in zip(a.digits(), b.digits())])


def all_ternary(width):
    from mcsim.ternary_core import ONE, ZERO
    for digits in itertools.product((ZERO, ONE, META), repeat=width):
        yield TernaryWord.from_digits(digits)


class TestMuxFamily:
    def test_all_validate(self):
        for c in (build_mux(), build_cmux_combinational(),
                  build_cmux_clocked()):
            assert validate(c) == []

    def test_mux_frozen_values(self):
        c = build_mux()
        assert outputs(c, word("011"), 1) == cubeset(1, ["1"])
        assert outputs(c, word("0M0"), 1) == cubeset(1, ["0"])
        # split select with agreeing data: the plain MUX lets M through
        assert outputs(c, word("11M"), 1) == cubeset(1, ["M"])

    def test_cmux1_contains_split_select(self):
        c = build_cmux_combinational()
        assert outputs(c, word("11M"), 1) == cubeset(1, ["1"])
        assert outputs(c, word("00M"), 1) == cubeset(1, ["0"])
        assert outputs(c, word("01M"), 1) == cubeset(1, ["M"])

    def test_mux_meets_its_own_spec(self):
        assert implements(build_mux(), 1, mux_spec()).ok

    def test_mux_misses_cmux_spec(self):
        v = implements(build_mux(), 1, cmux_spec())
        assert not v.ok
        spec = cmux_spec()
        assert not spec.value_cubeset(v.witness_input).contains_word(
            v.witness_output)
        # the failure is exactly the agreeing-data, split-select case
        a, b, s = v.witness_input.digits()
        assert s is META and a is b

    def test_cmux1_implements_cmux_spec(self):
        assert implements(build_cmux_combinational(), 1, cmux_spec()).ok

    def test_clocked_cmux_implements_after_two_rounds(self):
        assert implements(build_cmux_clocked(), 2, cmux_spec()).ok

    def test_clocked_cmux_round_one_is_not_trusted(self):
        # the delayed select has not latched yet
        assert not implements(build_cmux_clocked(), 1, cmux_spec()).ok

    def test_clocked_cmux_frozen_values(self):
        c = build_cmux_clocked()
        assert outputs(c, word("11M"), 2) == cubeset(1, ["1"])
        assert outputs(c, word("00M"), 2) == cubeset(1, ["0"])
        assert outputs(c, word("011"), 2) == cubeset(1, ["1"])

    def test_specs_agree_when_select_is_stable(self):
        ms, cs = mux_spec(), cmux_spec()
        for x in all_ternary(3):
            if x.digit(2) is not META:
                assert ms.value_cubeset(x) == cs.value_cubeset(x)

    def test_contracts_match_the_enumerated_references(self):
        assert mux_spec() == scalar_mux_spec()
        assert cmux_spec() == scalar_cmux_spec()


class TestFanoutBuffer:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_implements_masking_fanout(self, r):
        c = build_fanout_buffer(r)
        assert validate(c) == []
        assert implements(c, r, masking_fanout_spec(r)).ok

    def test_frozen_two_round_outputs(self):
        c = build_fanout_buffer(2)
        assert outputs(c, word("M"), 2) == cubeset(2, ["0M", "M1"])
        assert outputs(c, word("0"), 2) == cubeset(2, ["00"])
        assert outputs(c, word("1"), 2) == cubeset(2, ["11"])

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_at_most_one_meta_output_bit_ever(self, r):
        c = build_fanout_buffer(r)
        for t in range(r + 1):
            for cube in reach(c, word("M"), t):
                out_part = cube.subword(r, 2 * r)
                assert out_part.meta_count() <= 1

    def test_spec_meta_row_is_the_staircase(self):
        spec = masking_fanout_spec(3)
        assert spec.value_cubeset(word("M")) == cubeset(3, ["M11", "0M1",
                                                            "00M"])

    def test_rejects_zero_rounds(self):
        with pytest.raises(InputError):
            build_fanout_buffer(0)
        with pytest.raises(InputError):
            masking_fanout_spec(0)


class TestCounterAndSelector:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_counter_emits_one_hot_rounds(self, r):
        c = build_counter(r)
        assert validate(c) == []
        assert c.m == 0
        for t in range(1, r + 1):
            hot = "0" * (t - 1) + "1" + "0" * (r - t)
            assert outputs(c, EMPTY, t) == cubeset(r, [hot])

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_selector_delivers_round_t_input(self, r):
        c = build_selector(r)
        assert validate(c) == []
        rng = random.Random(4000 + r)
        pool = list(all_ternary(r))
        picks = rng.sample(pool, min(12, len(pool)))
        for iota in picks:
            for t in range(1, r + 1):
                want = TernaryWord.from_digits([iota.digit(t - 1)])
                assert outputs(c, iota, t) == CubeSet.of(1, [want])

    def test_selector_passes_metastability_only_in_its_round(self):
        c = build_selector(3)
        iota = word("0M1")
        assert outputs(c, iota, 1) == cubeset(1, ["0"])
        assert outputs(c, iota, 2) == cubeset(1, ["M"])
        assert outputs(c, iota, 3) == cubeset(1, ["1"])

    def test_rejects_zero_rounds(self):
        with pytest.raises(InputError):
            build_counter(0)
        with pytest.raises(InputError):
            build_selector(0)

    def test_round_counts_are_capped_at_128(self):
        for build in (build_counter, build_selector, build_fanout_buffer,
                      masking_fanout_spec):
            assert build(128)
            with pytest.raises(InputError, match="capped at 128 rounds"):
                build(129)

    def test_netlist_round_trip(self):
        for c in (build_counter(3), build_fanout_buffer(3),
                  build_selector(2)):
            assert parse_netlist(emit_netlist(c)) == c

    def test_selector_same_bytes_as_the_register_chain_reference(self):
        for r in range(1, 129):
            assert emit_netlist(build_selector(r)) == emit_netlist(scalar_build_selector(r))


def dag_depth(dag):
    depth = {}
    for g in dag.gates:
        depth[g.gid] = 1 + max((depth.get(a, 0) for a in g.args), default=0)
    return max((depth.get(src, 0) for _, src in dag.outputs), default=0)


class TestTcToBrgc:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stable_codewords(self, k):
        c = build_tc_to_brgc(k)
        assert validate(c) == []
        n = (1 << k) - 1
        for v in range(n + 1):
            got = eval_dag(c.dag, tdc_readings(n, v).word)
            assert got == encode(brgc(k), v)

    def test_frozen_three_bit_values(self):
        c = build_tc_to_brgc(3)
        assert eval_dag(c.dag, word("1110000")) == word("010")
        assert eval_dag(c.dag, word("11M0000")) == word("01M")
        assert eval_dag(c.dag, word("0000000")) == word("000")

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_boundary_bit_costs_one_output_bit(self, k):
        c = build_tc_to_brgc(k)
        code = brgc(k)
        n = (1 << k) - 1
        for v in range(n):
            got = eval_dag(c.dag, tdc_readings(n, v, meta=True).word)
            assert got.meta_count() <= 1
            assert {decode(code, y) for y in res_full(got)} == {v, v + 1}
            assert precision(code, got) <= 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_depth_is_one_less_than_width(self, k):
        assert dag_depth(build_tc_to_brgc(k).dag) == k - 1

    def test_caps(self):
        with pytest.raises(InputError):
            build_tc_to_brgc(0)
        with pytest.raises(InputError):
            build_tc_to_brgc(6)


def two_sort_oracle(k, x):
    """Per-bit worst case of min/max over all resolutions of the input."""
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


class TestTwoSort:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stable_min_max(self, k):
        c = build_two_sort(k)
        assert validate(c) == []
        code = brgc(k)
        for u in range(code.range):
            for w in range(code.range):
                got = eval_dag(c.dag, encode(code, u).concat(encode(code, w)))
                want = encode(code, min(u, w)).concat(encode(code,
                                                             max(u, w)))
                assert got == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_worst_case_oracle_on_precision_one_inputs(self, k):
        c = build_two_sort(k)
        code = brgc(k)
        sides = [encode(code, v) for v in range(code.range)]
        sides += [boundary(code, v) for v in range(code.range - 1)]
        for left in sides:
            for right in sides:
                x = left.concat(right)
                assert eval_dag(c.dag, x) == two_sort_oracle(k, x)

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_oracle_on_arbitrary_ternary_inputs(self, k):
        c = build_two_sort(k)
        rng = random.Random(77 + k)
        pool = list(all_ternary(2 * k))
        for x in rng.sample(pool, min(60, len(pool))):
            assert eval_dag(c.dag, x) == two_sort_oracle(k, x)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_precision_one_in_precision_one_out(self, k):
        c = build_two_sort(k)
        code = brgc(k)
        sides = [encode(code, v) for v in range(code.range)]
        sides += [boundary(code, v) for v in range(code.range - 1)]
        for left in sides:
            for right in sides:
                got = eval_dag(c.dag, left.concat(right))
                assert precision(code, got.subword(0, k)) <= 1
                assert precision(code, got.subword(k, 2 * k)) <= 1

    def test_commutes_on_stable_inputs(self):
        c = build_two_sort(2)
        code = brgc(2)
        for u in range(4):
            for w in range(4):
                a = encode(code, u).concat(encode(code, w))
                b = encode(code, w).concat(encode(code, u))
                assert eval_dag(c.dag, a) == eval_dag(c.dag, b)

    def test_cap(self):
        with pytest.raises(InputError):
            build_two_sort(4)


class TestBrgcToTc:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stable_codewords(self, k):
        c = build_brgc_to_tc(k)
        assert validate(c) == []
        code, out = brgc(k), tc((1 << k) - 1)
        for v in range(code.range):
            assert eval_dag(c.dag, encode(code, v)) == encode(out, v)

    def test_frozen_two_bit_values(self):
        c = build_brgc_to_tc(2)
        assert eval_dag(c.dag, word("11")) == word("011")
        assert eval_dag(c.dag, word("1M")) == word("M11")
        assert eval_dag(c.dag, word("00")) == word("000")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_boundary_cubes_stay_boundary(self, k):
        c = build_brgc_to_tc(k)
        code, out = brgc(k), tc((1 << k) - 1)
        for v in range(code.range - 1):
            got = eval_dag(c.dag, boundary(code, v))
            assert got == boundary(out, v)
            assert precision(out, got) <= 1

    def test_cap(self):
        with pytest.raises(InputError):
            build_brgc_to_tc(5)


class TestSortingNetwork:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_zero_one_principle(self, n):
        net, _ = build_sorting_network(n, 1)
        for bits in itertools.product((0, 1), repeat=n):
            assert apply_layers(net, bits) == sorted(bits)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_sorts_random_values(self, n):
        net, _ = build_sorting_network(n, 1)
        rng = random.Random(900 + n)
        for _ in range(50):
            vals = [rng.randrange(100) for _ in range(n)]
            assert apply_layers(net, vals) == sorted(vals)

    def test_apply_takes_one_value_per_channel(self):
        net, _ = build_sorting_network(4, 1)
        for vals in ([1, 0, 1], [1, 0, 1, 0, 1]):
            with pytest.raises(InputError, match="^expected 4 values$"):
                apply_layers(net, vals)

    def test_layers_are_channel_disjoint(self):
        for n in range(2, 9):
            net, _ = build_sorting_network(n, 1)
            for layer in net.layers:
                seen = [ch for pair in layer for ch in pair]
                assert len(seen) == len(set(seen))

    def test_network_type_rejects_clashing_layer(self):
        with pytest.raises(InputError):
            SortingNetwork(3, 1, (((0, 1), (1, 2)),))
        with pytest.raises(InputError):
            SortingNetwork(3, 1, (((1, 1),),))
        with pytest.raises(InputError):
            SortingNetwork(3, 1, (((0, 3),),))

    def test_two_channels_is_a_single_two_sort(self):
        net, c = build_sorting_network(2, 2)
        assert net.layers == (((0, 1),),)
        ts = build_two_sort(2)
        code = brgc(2)
        for u in range(4):
            for w in range(4):
                x = encode(code, u).concat(encode(code, w))
                assert eval_dag(c.dag, x) == eval_dag(ts.dag, x)

    def test_circuit_sorts_stable_words_exhaustively(self):
        _, c = build_sorting_network(3, 2)
        code = brgc(2)
        for vals in itertools.product(range(4), repeat=3):
            x = EMPTY
            for v in vals:
                x = x.concat(encode(code, v))
            want = EMPTY
            for v in sorted(vals):
                want = want.concat(encode(code, v))
            assert eval_dag(c.dag, x) == want

    def test_circuit_sorts_sampled_stable_words(self):
        _, c = build_sorting_network(5, 2)
        code = brgc(2)
        rng = random.Random(31)
        for _ in range(60):
            vals = [rng.randrange(4) for _ in range(5)]
            x = EMPTY
            for v in vals:
                x = x.concat(encode(code, v))
            want = EMPTY
            for v in sorted(vals):
                want = want.concat(encode(code, v))
            assert eval_dag(c.dag, x) == want

    def test_single_boundary_channel_keeps_precision(self):
        _, c = build_sorting_network(4, 2)
        code = brgc(2)
        rng = random.Random(52)
        for _ in range(80):
            vals = [rng.randrange(4) for _ in range(4)]
            ch = rng.randrange(4)
            if vals[ch] == 3:
                vals[ch] = 2
            lo = list(vals)
            hi = list(vals)
            hi[ch] += 1
            x = EMPTY
            for i in range(4):
                x = x.concat(encode(code, vals[i]) if i != ch
                             else boundary(code, vals[ch]))
            got = eval_dag(c.dag, x)
            lo_sorted, hi_sorted = sorted(lo), sorted(hi)
            for i in range(4):
                chan = got.subword(2 * i, 2 * i + 2)
                assert precision(code, chan) <= 1
                from mcsim.ternary_core import res_contains
                assert res_contains(chan, encode(code, lo_sorted[i]))
                assert res_contains(chan, encode(code, hi_sorted[i]))

    def test_gray_guarantee_holds_exhaustively_at_4x3(self):
        # Bund, Lenzen and Medina, "Optimal Metastability-Containing Sorting
        # Networks" (DATE 2018): where every channel word is a Gray word of
        # precision <= 1, the outputs are the closure of the Boolean sort;
        # everywhere else they are unconstrained. All 3^12 inputs at once.
        channels, k = 4, 3
        _, c = build_sorting_network(channels, k)
        code = brgc(k)
        table = {}
        for x in stable_words(c.m):
            vals = sorted(decode(code, x.subword(k * i, k * i + k)) for i in range(channels))
            table[x] = functools.reduce(TernaryWord.concat, (encode(code, v) for v in vals))
        closure = closure_bool(table)
        # the lanes whose every channel word is valid, from each digit's rails
        digits, full = digit_lanes(c.m), (1 << 3 ** c.m) - 1
        valid = [w for w in all_ternary(k) if precision(code, w) <= 1]
        inside = full
        for i in range(channels):
            lanes = 0
            for w in valid:
                lanes |= functools.reduce(and_, (
                    (z & ~o, o & ~z, z & o)[d]
                    for (z, o), d in zip(digits[k * i:k * i + k], w.digits())))
            inside &= lanes
        free = full & ~inside
        assert (inside.bit_count(), free.bit_count()) == ((8 + 7) ** channels, 3 ** 12 - 15 ** 4)
        spec = FunctionSpec(c.m, c.n, rails=tuple((z | free, o | free)
                                                  for z, o in closure.rails))
        assert implements(c, 1, spec)
        assert not implements(c, 1, closure)

    def test_caps(self):
        with pytest.raises(InputError):
            build_sorting_network(1, 1)
        with pytest.raises(InputError):
            build_sorting_network(9, 1)
        with pytest.raises(InputError):
            build_sorting_network(4, 4)


class TestTdcReadings:
    def test_frozen_examples(self):
        assert tdc_readings(7, 3).word == word("1110000")
        assert tdc_readings(7, 3, meta=True).word == word("111M000")
        assert tdc_readings(3, 0).word == word("000")
        assert tdc_readings(3, 3).word == word("111")
        assert tdc_readings(3, 0, meta=True).word == word("M00")

    def test_full_scale_leaves_no_room_for_a_boundary(self):
        with pytest.raises(InputError):
            tdc_readings(4, 4, meta=True)

    def test_value_out_of_range(self):
        with pytest.raises(InputError):
            tdc_readings(4, 5)
        with pytest.raises(InputError):
            tdc_readings(0, 0)

    def test_reading_type_rejects_malformed_words(self):
        for bad in ("0M1", "M10", "10M", "101", "MM0", "011"):
            with pytest.raises(InputError):
                TdcReading(word(bad))
        for ok in ("1M0", "110", "000", "111", "M00", "11M"):
            TdcReading(word(ok))

    def test_packed_rule_matches_the_text_rule_on_every_word(self):
        refused = Counter()
        for width in range(8):
            for w in all_ternary(width):
                if error := text_tdc_error(w):
                    with pytest.raises(InputError) as e:
                        TdcReading(w)
                    assert str(e.value) == error
                    refused[width] += 1
                else:
                    assert TdcReading(w).word is w
        # every word but the 2w+1 readings of its width is refused
        assert [refused[w] for w in range(8)] == [3 ** w - 2 * w - 1 for w in range(8)]

    def test_rails_table_keys_are_exactly_the_readings(self):
        # every word up to width 7; from 8 to 15 every reading and seeded others,
        # widths above 10 included, which per_width builds per call
        from mcsim.components import _tdc_rails
        from mcsim.netlist import _word_rails
        rng = random.Random("tdc rails")
        for width in range(16):
            table = _tdc_rails(width)
            if width < 8:
                words = list(all_ternary(width))
            else:
                texts = ["1" * v + "0" * (width - v) for v in range(width + 1)]
                texts += ["1" * v + "M" + "0" * (width - v - 1) for v in range(width)]
                texts += ["".join(rng.choice("01M") for _ in range(width)) for _ in range(200)]
                words = [word(t) for t in texts]
            for w in words:
                assert (w.packed in table) == (text_tdc_error(w) is None), w
            assert len(table) == 2 * width + 1
            for p, rails in table.items():
                assert rails == tuple(map(tuple, _word_rails(p, width, 1))), (width, p)
            assert (_tdc_rails(width) is table) == (width <= 10)

    def test_wide_readings_follow_the_text_rule(self):
        # above width 10 no table is kept: a reading is checked on its own digits
        from mcsim.components import _tdc_lookup
        from mcsim.netlist import _word_rails
        rng = random.Random("wide tdc readings")
        for width in range(11, 32):
            texts = ["1" * v + "0" * (width - v) for v in range(width + 1)]
            texts += ["1" * v + "M" + "0" * (width - v - 1) for v in range(width)]
            texts += ["".join(rng.choice("01M") for _ in range(width)) for _ in range(100)]
            # near misses: a reading with one digit changed
            for _ in range(100):
                t, i = list(rng.choice(texts[:2 * width + 1])), rng.randrange(width)
                t[i] = rng.choice("01M")
                texts.append("".join(t))
            for w in map(word, texts):
                if error := text_tdc_error(w):
                    with pytest.raises(InputError) as e:
                        TdcReading(w)
                    assert str(e.value) == error
                else:
                    assert TdcReading(w).word is w
                    assert _tdc_lookup(width)(w.packed) == _word_rails(w.packed, width, 1), w

    def test_wide_rails_are_runs_equal_to_the_word_rails(self, monkeypatch):
        # above width 10 a reading's rails are built as repeated runs, with no shift per
        # digit: on every reading of widths 11-40 they are _word_rails', and every other
        # word, random or one digit off a reading, gives None
        import mcsim.components as comp
        from mcsim.netlist import _word_rails
        rng = random.Random("wide tdc runs")
        cases = []
        for width in range(11, 41):
            readings = ["1" * v + "0" * (width - v) for v in range(width + 1)]
            readings += ["1" * v + "M" + "0" * (width - v - 1) for v in range(width)]
            others = ["".join(rng.choice("01M") for _ in range(width)) for _ in range(100)]
            others += [t[:i] + rng.choice("01M".replace(t[i], "")) + t[i + 1:]
                       for t in readings for i in (rng.randrange(width),)]
            others += ["M" * width, "0" * (width - 1) + "1", "M" + "0" * (width - 1) + "M"]
            others = [t for t in others if t not in readings]
            assert all(text_tdc_error(word(t)) for t in others)
            cases.append((width, [(word(t).packed, _word_rails(word(t).packed, width, 1))
                                  for t in readings], [word(t).packed for t in others]))

        def shifted(*args):
            raise AssertionError("a wide reading's rails were read digit by digit")
        monkeypatch.setattr(comp, "_word_rails", shifted)
        for width, readings, others in cases:
            lookup = comp._tdc_lookup(width)
            for p, rails in readings:
                assert lookup(p) == rails, (width, p)
            for p in others:
                assert lookup(p) is None, (width, p)

    def test_a_16x_wider_reading_takes_under_64x_the_time(self):
        # the runs are linear in the width; a shift per digit was quadratic
        import time
        from mcsim.components import _tdc_lookup

        def best(width, text):
            lookup, p, times = _tdc_lookup(width), word(text).packed, []
            for _ in range(5):
                start = time.perf_counter()
                lookup(p)
                times.append(time.perf_counter() - start)
            return min(times)
        for v in (0.5, 1):
            small, large = (best(w, "1" * int(v * w - 1) + "M" + "0" * (w - int(v * w)))
                            for w in (8192, 16 * 8192))
            assert large < 64 * small, (v, small, large)

    def test_wide_readings_build_no_rails_table(self, monkeypatch):
        import mcsim.components as comp
        widths, table = Counter(), comp._tdc_rails

        def counted(width):
            widths[width] += 1
            return table(width)
        monkeypatch.setattr(comp, "_tdc_rails", counted)
        rng = random.Random("wide tdc tables")
        for width in (3, 11, 15, 31, 63, 1023):
            readings = seeded_readings(rng, 4, width)
            for r in readings:
                TdcReading(r.word if isinstance(r, TdcReading) else r)
            select_outcome(clock_sync_select, 4, 1, readings)
        assert set(widths) == {3}, widths

    def test_readings_have_precision_one(self):
        code = tc(7)
        for v in range(7):
            assert precision(code, tdc_readings(7, v, meta=True).word) == 1
            assert precision(code, tdc_readings(7, v).word) == 0


class TestClockSyncSelect:
    def test_stable_readings_give_order_statistics(self):
        rng = random.Random(8)
        for _ in range(40):
            vals = [rng.randrange(4) for _ in range(4)]
            readings = [tdc_readings(3, v) for v in vals]
            low, high = clock_sync_select(4, 1, readings)
            asc = sorted(vals)
            assert low == encode(tc(3), asc[1])
            assert high == encode(tc(3), asc[2])

    def test_five_nodes_one_bit_exhaustive(self):
        for vals in itertools.product((0, 1), repeat=5):
            readings = [tdc_readings(1, v) for v in vals]
            low, high = clock_sync_select(5, 1, readings)
            asc = sorted(vals)
            assert low == encode(tc(1), asc[1])
            assert high == encode(tc(1), asc[3])

    def test_single_metastable_reading_keeps_precision(self):
        from mcsim.ternary_core import res_contains
        code = tc(3)
        rng = random.Random(19)
        for _ in range(40):
            vals = [rng.randrange(4) for _ in range(4)]
            ch = rng.randrange(4)
            if vals[ch] == 3:
                vals[ch] = 2
            readings = [tdc_readings(3, v) for v in vals]
            readings[ch] = tdc_readings(3, vals[ch], meta=True)
            low, high = clock_sync_select(4, 1, readings)
            hi_vals = list(vals)
            hi_vals[ch] += 1
            for got, rank in ((low, 1), (high, 2)):
                a = sorted(vals)[rank]
                b = sorted(hi_vals)[rank]
                assert precision(code, got) <= 1
                assert res_contains(got, encode(code, a))
                assert res_contains(got, encode(code, b))

    def test_accepts_raw_words(self):
        # readings are ones-first; the selected words come back zeros-first
        low, high = clock_sync_select(4, 1, [word("100"), word("110"),
                                             word("000"), word("111")])
        assert (low, high) == (encode(tc(3), 1), encode(tc(3), 2))

    def test_rejects_too_many_faults(self):
        readings = [tdc_readings(3, 1)] * 3
        with pytest.raises(InputError):
            clock_sync_select(3, 1, readings)

    def test_rejects_wrong_count_and_widths(self):
        with pytest.raises(InputError):
            clock_sync_select(4, 1, [tdc_readings(3, 1)] * 3)
        mixed = [tdc_readings(3, 1)] * 3 + [tdc_readings(1, 1)]
        with pytest.raises(InputError):
            clock_sync_select(4, 1, mixed)

    def test_rejects_non_power_of_two_widths(self):
        readings = [tdc_readings(2, 1)] * 4
        with pytest.raises(InputError):
            clock_sync_select(4, 1, readings)

    def test_rejects_imprecise_readings(self):
        readings = [word("MMM")] + [tdc_readings(3, 1).word] * 3
        with pytest.raises(InputError):
            clock_sync_select(4, 1, readings)

    def test_rejects_zeros_first_readings(self):
        # decode reads both TC spellings, but the converter reads ones first
        for text in ("011", "0M1"):
            with pytest.raises(InputError, match=f"^not a TDC reading: {text}$"):
                clock_sync_select(4, 1, [word(text)] * 4)


    def test_width_errors_come_before_tdc_errors(self):
        mixed = [word("MMM"), word("0M1")] + [tdc_readings(1, 1)] * 2
        with pytest.raises(InputError, match="^readings must share one width$"):
            clock_sync_select(4, 1, mixed)
        with pytest.raises(InputError, match="^reading width must be"):
            clock_sync_select(4, 1, [word("0M")] * 4)
        with pytest.raises(InputError, match="^expected 4 readings, got 3$"):
            clock_sync_select(4, 1, [word("0M1")] * 3)

    def test_pipeline_bits_take_widths_one_below_a_power_of_two(self):
        for width in range(70):
            k = max(width + 1, 2).bit_length() - 1
            if (1 << k) - 1 == width:
                assert pipeline_bits(width) == k
            else:
                with pytest.raises(InputError, match="one less than a power of two"):
                    pipeline_bits(width)


# pipeline-select's (n, k) mix, plus one-bit readings
SELECT_MIX = [(4, 2), (5, 3), (6, 2), (7, 3), (4, 3), (7, 2), (5, 2), (6, 3),
              (4, 1), (5, 1), (6, 1), (7, 1)]


def seeded_readings(rng: random.Random, n: int, width: int) -> list:
    """n TDC readings, about 30% with a boundary M, each a TdcReading or a bare word."""
    out = []
    for _ in range(n):
        v = rng.randint(0, width)
        r = tdc_readings(width, v, meta=v < width and rng.random() < 0.3)
        out.append(r if rng.random() < 0.5 else r.word)
    return out


def select_outcome(select, n, f, readings):
    """The (low, high) pair a select returns, or the type and text of its InputError."""
    try:
        return select(n, f, readings)
    except InputError as e:
        return type(e), str(e)


class TestPackedSelect:
    """clock_sync_select joins, evaluates and splits packed ints; every result
    and refusal equals the whole-word path in conftest."""

    @pytest.mark.parametrize("n,k", SELECT_MIX)
    def test_matches_the_concat_path_before_and_after_compiling(self, monkeypatch, n, k):
        import mcsim.components as comp
        import mcsim.netlist as nl
        monkeypatch.setattr(nl, "_COMPILE_AFTER", 6)
        f, width = (n - 1) // 3, (1 << k) - 1
        c = build_pipeline(n, k, f)
        # an equal DAG with no plan yet, so it counts down from the lowered trigger
        dag = Dag(c.dag.inputs, c.dag.gates, c.dag.outputs)
        fresh = c.around(dag)
        monkeypatch.setattr(comp, "build_pipeline",
                            lambda *a: fresh if a == (n, k, f) else build_pipeline(*a))
        rng = random.Random(f"packed select/{n}/{k}")
        for t in range(12):
            readings = seeded_readings(rng, n, width)
            assert clock_sync_select(n, f, readings) == concat_clock_sync_select(n, f, readings)
            assert (dag._plan[3] is None) == (t < 6), t

    def test_refusals_match_the_concat_path(self):
        rng, seen = random.Random("packed select refusals"), set()
        for n, k in SELECT_MIX:
            f, width = (n - 1) // 3, (1 << k) - 1
            # one bit has no word that is not a reading
            refused = [w for w in all_ternary(width) if text_tdc_error(w)] or [None]
            for _ in range(4):
                bad = seeded_readings(rng, n, width)
                if r := rng.choice(refused):
                    bad[rng.randrange(n)] = r
                other = rng.choice([w for w in (1, 3, 7) if w != width])
                mixed = list(bad)
                mixed[rng.randrange(n)] = tdc_readings(other, rng.randint(0, other))
                odd = rng.choice([0, 2, 4, 5, 6])
                cases = [(n, f, bad)] * bool(r) + [
                    (n, f, mixed), (n, f, bad[:-1]), (n, f, bad + bad[:1]),
                    (n, (n + 2) // 3, bad), (n, -1, bad),
                    (n, f, [rng.choice(list(all_ternary(odd)))] * n)]
                for case in cases:
                    got = select_outcome(clock_sync_select, *case)
                    assert got == select_outcome(concat_clock_sync_select, *case), case
                    assert got[0] is InputError, case
                    seen.add(got[1].split()[0])
        assert set(seen) == {"not", "readings", "expected", "need", "fault", "reading"}, seen

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_wide_refusals_match_the_concat_path(self, k):
        # each reading is checked on its digits, then the pipeline refuses the width
        rng, width = random.Random(f"wide select/{k}"), (1 << k) - 1
        for _ in range(4):
            readings = seeded_readings(rng, 4, width)
            bad = list(readings)
            bad[rng.randrange(4)] = word("".join(rng.choice("01M") for _ in range(width)))
            for case in (readings, bad):
                got = select_outcome(clock_sync_select, 4, 1, case)
                assert got == select_outcome(concat_clock_sync_select, 4, 1, case)

    def test_passing_call_builds_two_words_and_formats_none(self, monkeypatch):
        rng = random.Random("packed select cost")
        items = [(n, (n - 1) // 3, seeded_readings(rng, n, (1 << k) - 1)) for n, k in SELECT_MIX]
        want = [clock_sync_select(*item) for item in items]   # builds and plans each pipeline
        made, init = Counter(), TernaryWord.__init__

        def counted(self, *args):
            made["words"] += 1
            init(self, *args)

        def no_text(self):
            raise AssertionError("a word formatted as text")
        monkeypatch.setattr(TernaryWord, "__init__", counted)
        monkeypatch.setattr(TernaryWord, "__str__", no_text)
        for (n, f, readings), w in zip(items, want):
            made.clear()
            assert clock_sync_select(n, f, readings) == w, (n, f)
            assert made["words"] == 2, (n, f, made)

    def test_passing_call_builds_no_reading_and_packs_no_input_word(self, monkeypatch):
        import mcsim.components as comp
        import mcsim.netlist as nl
        rng = random.Random("packed select work")
        items = [(n, (n - 1) // 3, seeded_readings(rng, n, (1 << k) - 1)) for n, k in SELECT_MIX]
        want = [clock_sync_select(*item) for item in items]   # fills each width's table
        calls, new = Counter(), TdcReading.__new__

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr(TdcReading, "__new__", counted("TdcReading", new))
        for mod in (comp, nl):
            for name in ("eval_packed", "_word_rails"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        tdc_readings(3, 1)
        assert calls == {"TdcReading": 1}   # the counters see a reading built
        calls.clear()
        for (n, f, readings), w in zip(items, want):
            assert clock_sync_select(n, f, readings) == w, (n, f)
        assert calls == {}, calls

    @pytest.mark.parametrize("n,k", [(n, k) for n, k in SELECT_MIX if k > 1])
    def test_a_bad_reading_after_good_mixed_ones_is_refused_as_concat(self, n, k):
        f, width = (n - 1) // 3, (1 << k) - 1
        rng = random.Random(f"bad after good/{n}/{k}")
        refused = [w for w in all_ternary(width) if text_tdc_error(w)]
        for _ in range(8):
            good = seeded_readings(rng, n, width)
            good[0], good[1] = tdc_readings(width, 0), tdc_readings(width, width).word
            at = rng.randrange(2, n)
            bad = good[:at] + [rng.choice(refused) for _ in good[at:]]
            got = select_outcome(clock_sync_select, n, f, bad)
            assert got == select_outcome(concat_clock_sync_select, n, f, bad)
            assert got == (InputError, f"not a TDC reading: {bad[at]}")


class TestPipelineCircuit:
    def test_shape_and_validation(self):
        c = build_pipeline(4, 2, 1)
        assert validate(c) == []
        assert c.m == 12 and c.n == 6

    def test_builder_is_cached(self):
        assert build_pipeline(4, 2, 1) is build_pipeline(4, 2, 1)

    @pytest.mark.parametrize("build, ranges", [
        (build_two_sort, [range(-1, 6)]),
        (build_brgc_to_tc, [range(-1, 7)]),
        (build_pipeline, [range(11), range(5), range(-1, 5)]),
    ])
    def test_each_cached_builder_keeps_every_key_it_accepts(self, build, ranges):
        # a builder refuses every argument outside a fixed set and lru_cache keeps
        # only what returned, so a maxsize of that set's size evicts nothing
        built = {}
        for args in itertools.product(*ranges):
            try:
                built[args] = build(*args)
            except InputError:
                pass
        assert len(built) == build.cache_info().maxsize
        assert all(build(*args) is c for args, c in built.items())

    def test_rejects_too_many_faults(self):
        with pytest.raises(InputError):
            build_pipeline(3, 2, 1)
