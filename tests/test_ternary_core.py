"""Value-layer tests: frozen gate tables, resolution sets, cubes, codes."""

import copy
import itertools
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    scalar_digits,
    scalar_from_digits,
    scalar_meta_count,
    scalar_parse,
    scalar_res_contains,
    scalar_superpose,
    scalar_words_compatible,
)
from mcsim.ternary_core import (
    META,
    ONE,
    ZERO,
    BudgetError,
    Code,
    CubeSet,
    InputError,
    Ternary,
    TernaryWord,
    _cubes,
    _cubes_text,
    brgc,
    cubeset_canonicalize,
    decode,
    encode,
    kleene_extend,
    precision,
    res_contains,
    res_full,
    res_members,
    superpose,
    tc,
    word,
    words_compatible,
)

AND, OR, XOR = "0001", "0111", "0110"

# Frozen expectation for the worst-case extension of AND and OR: the output
# is stable exactly when the metastable inputs cannot change it.
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

ALL_DIGITS = (ZERO, ONE, META)


def all_words(width):
    return [TernaryWord.from_digits(ds)
            for ds in itertools.product(ALL_DIGITS, repeat=width)]


def ternary_words(max_width=6):
    return st.lists(st.sampled_from(ALL_DIGITS), min_size=0, max_size=max_width) \
             .map(TernaryWord.from_digits)


class TestWordBasics:
    def test_parse_str_roundtrip(self):
        assert str(word("0M110")) == "0M110"
        assert word("").width == 0

    def test_digit_index_out_of_range(self):
        for i in (-1, 3):
            with pytest.raises(InputError, match=f"^digit index {i} out of range for width 3$"):
                word("01M").digit(i)

    def test_parse_rejects_bad_digit(self):
        with pytest.raises(InputError):
            word("01X")

    def test_invalid_digits_are_input_errors(self):
        # a 5 used to spill into the neighbouring digit and read as "11"
        with pytest.raises(InputError):
            TernaryWord.from_digits([0, 5])
        with pytest.raises(InputError):
            TernaryWord.from_digits([ONE, -1])
        # packed digit 3 is no ternary value: the word is refused when built
        with pytest.raises(InputError):
            TernaryWord(1, 3)
        # with_digit: an index off the word, and a digit that would spill
        for i, d in ((3, ONE), (-1, ONE), (1, 5), (0, -1), (1, META + 1)):
            with pytest.raises(InputError):
                word("010").with_digit(i, d)

    def test_lex_order_zero_one_meta(self):
        assert sorted([word("M"), word("1"), word("0")]) == \
            [word("0"), word("1"), word("M")]
        assert sorted([word("1M"), word("10"), word("0M"), word("11")]) == \
            [word("0M"), word("10"), word("11"), word("1M")]

    def test_concat_subword(self):
        w = word("0M1").concat(word("1M"))
        assert str(w) == "0M11M"
        assert w.subword(0, 3) == word("0M1")
        assert w.subword(3, 5) == word("1M")

    def test_str_matches_the_per_digit_join(self):
        for width in range(8):
            for w in all_words(width):
                assert str(w) == "".join("01M"[d] for d in w.digits()), w

    def test_str_of_a_packed_digit_3_names_the_digit(self):
        # such a word is refused when it is built, so str never meets one;
        # the error names the first digit 3 from the left
        for width in range(1, 6):
            for i in range(width):
                packed = 3 << 2 * (width - 1 - i) | 3
                with pytest.raises(InputError, match=f"^digit {i} of a width-{width} word "
                                   rf"packed as {packed:#x} is 3, not 0, 1, or 2 \(M\)$"):
                    TernaryWord(width, packed)

    @settings(max_examples=300)
    @given(st.integers(-2, 8),
           st.integers(-2 ** 20, 2 ** 20) | st.lists(st.integers(0, 3), max_size=10).map(
               lambda ds: int("".join(map(str, ds)) or "0", 4)))
    def test_the_constructor_refuses_exactly_the_invalid_packings(self, width, packed):
        # refused: a negative width or packing, a bit past the width, or a
        # digit 3, the first of which from the left is named
        if width < 0 or packed < 0 or packed >= 4 ** width:
            with pytest.raises(InputError, match=f"^no word of width {width} is packed as "):
                TernaryWord(width, packed)
            return
        digits = [packed >> 2 * j & 3 for j in reversed(range(width))]
        if 3 in digits:
            with pytest.raises(InputError, match=f"^digit {digits.index(3)} of a width-{width} "):
                TernaryWord(width, packed)
            return
        w = TernaryWord(width, packed)
        assert (w.width, w.packed) == (width, packed)
        assert word(str(w)) == w == TernaryWord(w.width, w.packed)

    @given(ternary_words())
    def test_digits_roundtrip(self, w):
        assert TernaryWord.from_digits(w.digits()) == w

    @given(ternary_words(max_width=5), st.data())
    def test_with_digit(self, w, data):
        if w.width == 0:
            return
        i = data.draw(st.integers(0, w.width - 1))
        d = data.draw(st.sampled_from(ALL_DIGITS))
        v = w.with_digit(i, d)
        assert v.digit(i) is d
        assert all(v.digit(j) is w.digit(j) for j in range(w.width) if j != i)


def best_time(convert, arg, repeat=7):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        convert(arg)
        times.append(time.perf_counter() - start)
    return min(times)


class TestWordCodec:
    """parse, from_digits and digits() read and write base-4 text in one
    linear pass; the per-digit loops they replaced are the references."""

    def test_every_short_word_matches_the_digit_loops(self):
        for width in range(7):
            for ds in itertools.product(ALL_DIGITS, repeat=width):
                w = scalar_from_digits(ds)
                text = "".join(map(str, ds))
                assert word(text) == scalar_parse(text) == w
                assert TernaryWord.from_digits(ds) == TernaryWord.from_digits(map(int, ds)) == w
                assert w.digits() == scalar_digits(w) == ds
                assert all(d is e for d, e in zip(w.digits(), ds))

    def test_seeded_wide_words_match_the_digit_loops(self):
        rng = random.Random(31)
        texts = ["".join(rng.choice("01M") for _ in range(width))
                 for width in (7, 64, 1000, 10 ** 4, 10 ** 5)]
        texts += [c * 10 ** 4 for c in "01M"] + ["0" * 999 + "M"]
        for text in texts:
            w = scalar_parse(text)
            assert word(text) == w and str(w) == text
            ds = scalar_digits(w)
            assert w.digits() == ds and TernaryWord.from_digits(ds) == w

    @pytest.mark.parametrize("text", [" 0", "0 ", "0_1", "+1", "-1", "2", "3", "02", "0x1",
                                      "0b1", "m", "01X", "x", "*", "1*", "\n", "0\t", "\u0661",
                                      "M\u00a0", "0M1\x00"])
    def test_a_damaged_word_is_refused_with_its_message(self, text):
        # int(..., 4) alone would take some of these: the digits are checked first
        with pytest.raises(InputError) as old:
            scalar_parse(text)
        with pytest.raises(InputError) as new:
            word(text)
        assert str(new.value) == str(old.value) == \
            f"bad word {text!r}: digit must be 0, 1, or M"

    @pytest.mark.parametrize("digits", [[0, 5], [ONE, -1], [3], ["0"], [ZERO, None], [1.5]])
    def test_a_bad_digit_is_refused_with_its_message(self, digits):
        with pytest.raises(InputError) as old:
            scalar_from_digits(digits)
        with pytest.raises(InputError) as new:
            TernaryWord.from_digits(digits)
        assert str(new.value) == str(old.value)

    def test_a_16x_wider_word_takes_under_64x_the_time(self):
        # linear is 16x and the per-digit loops were 256x; the rest is slack for a shared host
        rng = random.Random(16)
        narrow, wide = ("".join(rng.choice("01M") for _ in range(w)) for w in (8192, 16 * 8192))
        for convert, read in ((word, str), (TernaryWord.from_digits, lambda t: word(t).digits()),
                              (TernaryWord.digits, word), (str, word)):
            small, large = (best_time(convert, read(text)) for text in (narrow, wide))
            assert large < 64 * small, (convert, small, large)

    def test_words_of_20000_widths_leave_under_1_mb(self):
        # every construction reads _meta_mask(width), whose cache keeps its last 128 widths
        tracemalloc.start()
        try:
            for width in range(1, 20001):
                TernaryWord(width, 0)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20


class TestSlottedWord:
    """TernaryWord keeps two slots and no instance dict, yet equality, hash,
    order, pickling and copying stay those of its (width, packed) pair."""

    WORDS = all_words(3) + all_words(0) + [word("M10M1"), TernaryWord(2, 6), TernaryWord(5, 9)]

    def test_no_instance_dict(self):
        w = word("0M1")
        assert TernaryWord.__slots__ == ("width", "packed")
        assert not hasattr(w, "__dict__")
        with pytest.raises(AttributeError):
            w.packed = 0
        # a name outside the fields: no slot to hold it (Python 3.11's frozen
        # slotted __setattr__ raises TypeError here, later ones AttributeError)
        with pytest.raises((AttributeError, TypeError)):
            w.extra = 1

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        back = pickle.loads(pickle.dumps(self.WORDS, protocol))
        assert back == self.WORDS
        assert [(w.width, w.packed) for w in back] == [(w.width, w.packed) for w in self.WORDS]

    def test_copy_round_trip(self):
        for w in self.WORDS:
            for twin in (copy.copy(w), copy.deepcopy(w)):
                assert (twin.width, twin.packed) == (w.width, w.packed)
                assert twin == w and hash(twin) == hash(w)

    def test_eq_hash_and_order_are_those_of_the_pair(self):
        for a, b in itertools.product(self.WORDS, repeat=2):
            pa, pb = (a.width, a.packed), (b.width, b.packed)
            assert (a == b) == (pa == pb) and (a != b) == (pa != pb)
            assert (a < b) == (pa < pb) and (a <= b) == (pa <= pb)
            assert (a > b) == (pa > pb) and (a >= b) == (pa >= pb)
        assert all(hash(w) == hash((w.width, w.packed)) for w in self.WORDS)
        assert word("01") != (2, 1) and len({word("01"), word("01")}) == 1


class TestEnumerators:
    @pytest.mark.parametrize("m", range(7))
    def test_lex_order_over_the_whole_domain(self, m):
        import mcsim.ternary_core as tcore
        assert list(tcore.all_words(m)) == all_words(m)
        assert list(tcore.stable_words(m)) == [
            TernaryWord.from_digits(ds) for ds in itertools.product((ZERO, ONE), repeat=m)]

    def test_negative_width_is_an_input_error(self):
        import mcsim.ternary_core as tcore
        for enumerate_words in (tcore.all_words, tcore.stable_words):
            with pytest.raises(InputError, match="negative"):
                enumerate_words(-1)


class TestResolutions:
    def test_examples(self):
        assert set(res_full(word("M1"))) == {word("01"), word("11")}
        assert res_full(word("01")) == [word("01")]
        assert set(res_full(word("MM"))) == \
            {word("00"), word("01"), word("10"), word("11")}

    @given(ternary_words())
    def test_count_and_stability(self, w):
        rs = res_full(w)
        assert len(rs) == 2 ** w.meta_count()
        assert all(y.is_stable for y in rs)
        if w.is_stable:
            assert rs == [w]

    def test_budget(self):
        with pytest.raises(BudgetError):
            res_full(word("M" * 13))
        assert len(res_full(word("M" * 13), max_meta=13)) == 2 ** 13

    def test_res_members(self):
        assert res_members(word("0M")) == [word("00"), word("01"), word("0M")]

    def test_res_contains_examples(self):
        assert res_contains(word("M1"), word("01"))
        assert not res_contains(word("M1"), word("0M"))
        assert res_contains(word("MM"), word("MM"))

    def test_res_contains_width_mismatch(self):
        with pytest.raises(InputError):
            res_contains(word("M1"), word("M"))

    @given(ternary_words(max_width=4))
    def test_res_contains_matches_enumeration(self, w):
        members = set(res_members(w))
        for y in all_words(w.width):
            assert res_contains(w, y) == (y in members)

    @given(ternary_words(max_width=4), ternary_words(max_width=4))
    def test_compatibility_matches_enumeration(self, a, b):
        if a.width != b.width:
            a = TernaryWord(b.width, a.packed & ((1 << (2 * b.width)) - 1))
        overlap = set(res_members(a)) & set(res_members(b))
        assert words_compatible(a, b) == bool(overlap)


    @pytest.mark.parametrize("width", range(5))
    def test_whole_word_predicates_match_the_digit_loops(self, width):
        ws = list(all_words(width))
        for a in ws:
            assert a.meta_count() == scalar_meta_count(a), a
            assert a.is_stable == (scalar_meta_count(a) == 0), a
            for b in ws:
                assert res_contains(a, b) == scalar_res_contains(a, b), (a, b)
                assert words_compatible(a, b) == scalar_words_compatible(a, b), (a, b)
                assert superpose(a, b) == scalar_superpose(a, b), (a, b)

    def test_words_compatible_width_mismatch(self):
        with pytest.raises(InputError, match="width mismatch"):
            words_compatible(word("M1"), word("M"))

    def test_superpose_width_mismatch(self):
        with pytest.raises(InputError, match="width mismatch"):
            superpose(word("M1"), word("M"))

    @pytest.mark.parametrize("width", range(4))
    def test_superpose_is_a_semilattice_join(self, width):
        ws = all_words(width)
        for a in ws:
            assert superpose(a, a) == a
            for b in ws:
                ab = superpose(a, b)
                assert ab == superpose(b, a)
                # the least cube that contains both
                assert res_contains(ab, a) and res_contains(ab, b)
                for c in ws:
                    if res_contains(c, a) and res_contains(c, b):
                        assert res_contains(c, ab), (a, b, c)
                    assert superpose(ab, c) == superpose(a, superpose(b, c))

    @pytest.mark.parametrize("width", range(6))
    def test_resolutions_match_a_digit_expansion(self, width):
        def expand(w, fills):
            choices = [fills if d is META else (d,) for d in w.digits()]
            return [TernaryWord.from_digits(ds) for ds in itertools.product(*choices)]
        for w in all_words(width):
            assert res_full(w) == expand(w, (ZERO, ONE)), w
            assert res_members(w) == expand(w, ALL_DIGITS), w
        stable = word("1" * width)
        assert res_full(stable)[0] is stable and res_members(stable)[0] is stable

    def test_resolutions_of_a_packed_digit_3_are_input_errors(self):
        # such a word is refused when it is built, before it could be expanded
        for width, packed in ((1, 3), (3, 0b001101)):
            with pytest.raises(InputError, match="is 3, not 0, 1, or 2"):
                TernaryWord(width, packed)

class TestCubeSet:
    def test_canonicalize_examples(self):
        cs = CubeSet.of(2, [word("M1"), word("01")])
        assert cubeset_canonicalize(cs).cubes == (word("M1"),)
        cs2 = CubeSet.of(2, [word("0M"), word("1M")])
        assert cubeset_canonicalize(cs2).cubes == (word("0M"), word("1M"))
        empty = CubeSet.of(2, [])
        assert cubeset_canonicalize(empty).cubes == ()

    @given(st.integers(1, 4), st.data())
    def test_canonicalize_preserves_denotation(self, width, data):
        pool = all_words(width)
        cubes = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        cs = CubeSet.of(width, cubes)
        canon = cubeset_canonicalize(cs)
        for w in pool:
            assert cs.contains_word(w) == canon.contains_word(w)
        # idempotent, and insensitive to the order cubes arrived in
        assert cubeset_canonicalize(canon) == canon
        assert cubeset_canonicalize(CubeSet.of(width, reversed(cubes))) == canon

    def test_cubes_of_another_width(self):
        with pytest.raises(InputError, match="^cube 011 does not have width 2$"):
            CubeSet.of(2, [word("0M"), word("011")])

    def test_disjointness(self):
        a = CubeSet.of(2, [word("0M")])
        b = CubeSet.of(2, [word("11")])
        c = CubeSet.of(2, [word("M1")])
        assert a.is_disjoint(b)
        assert not a.is_disjoint(c)


class TestPackedText:
    """A word's text and a cube set's are written by one codec on packed ints."""

    def test_every_short_word_spells_its_digits(self):
        for width in range(7):
            for w in all_words(width):
                assert str(w) == "".join(map(str, scalar_digits(w)))

    def test_cube_set_text_is_the_cubes_text_for_widths_up_to_40(self):
        rng = random.Random("packed text")
        for width in range(41):
            pool = all_words(width) if width < 4 else \
                [scalar_from_digits(rng.choice(ALL_DIGITS) for _ in range(width))
                 for _ in range(40)]
            sets = [[], pool[:1], pool[-1:], pool] + [rng.sample(pool, rng.randint(1, min(6, len(pool))))
                                                      for _ in range(30)]
            for cubes in sets:
                packed = sorted({w.packed for w in cubes})
                want = ", ".join("".join(map(str, scalar_digits(TernaryWord(width, p))))
                                 for p in packed) if packed else "(empty)"
                assert _cubes_text(width, packed) == str(_cubes(width, packed)) == want, \
                    (width, packed)
                assert str(CubeSet.of(width, cubes)) == want


class TestKleene:
    def test_and_or_tables(self):
        for (l, r), out in KLEENE_AND.items():
            assert kleene_extend(AND, word(l + r)) == Ternary("01M".index(out))
        for (l, r), out in KLEENE_OR.items():
            assert kleene_extend(OR, word(l + r)) == Ternary("01M".index(out))

    def test_spec_examples(self):
        assert kleene_extend(AND, word("M0")) is ZERO
        assert kleene_extend(AND, word("M1")) is META
        assert kleene_extend(OR, word("M1")) is ONE

    def test_arity_mismatch(self):
        with pytest.raises(InputError):
            kleene_extend(AND, word("101"))

    def test_stable_inputs_restrict_to_boolean(self):
        for table in ("".join(t) for t in itertools.product("01", repeat=4)):
            for a in "01":
                for b in "01":
                    row = int(a + b, 2)
                    assert kleene_extend(table, word(a + b)) == \
                        Ternary(int(table[row]))

    def test_monotone_under_resolution_all_two_input_gates(self):
        # Resolving input bits never destabilizes the output.
        for table in ("".join(t) for t in itertools.product("01", repeat=4)):
            for x in all_words(2):
                fx = kleene_extend(table, x)
                for x2 in res_members(x):
                    fx2 = kleene_extend(table, x2)
                    assert fx is META or fx2 is fx


class TestCodes:
    def test_tc_examples(self):
        assert encode(tc(4), 1) == word("0001")
        assert decode(tc(4), word("0111")) == 3
        with pytest.raises(InputError, match="not a codeword"):
            decode(tc(4), word("0101"))

    def test_tc_mirror_decodes(self):
        assert decode(tc(7), word("1110000")) == 3
        assert decode(tc(4), word("1111")) == 4
        assert decode(tc(4), word("0000")) == 0

    def test_brgc_examples(self):
        assert encode(brgc(3), 5) == word("111")
        table = ["000", "001", "011", "010", "110", "111", "101", "100"]
        for v, w in enumerate(table):
            assert encode(brgc(3), v) == word(w)
            assert decode(brgc(3), word(w)) == v

    def test_roundtrip_small_widths(self):
        for width in range(1, 9):
            for code in (tc(width), brgc(width)):
                for v in range(code.range):
                    assert decode(code, encode(code, v)) == v

    def test_adjacency(self):
        for width in range(1, 9):
            for code in (tc(width), brgc(width)):
                for v in range(code.range - 1):
                    a, b = encode(code, v), encode(code, v + 1)
                    diff = sum(1 for i in range(width)
                               if a.digit(i) != b.digit(i))
                    assert diff == 1

    def test_out_of_range(self):
        with pytest.raises(InputError):
            encode(tc(4), 5)
        with pytest.raises(InputError):
            encode(brgc(3), 8)

    def test_bad_kinds_widths_and_words(self):
        with pytest.raises(InputError, match="^unknown code kind 'BCD'$"):
            Code("BCD", 4)
        for kind in ("TC", "BRGC"):
            with pytest.raises(InputError, match="^code width must be positive$"):
                Code(kind, 0)
        with pytest.raises(InputError, match="^width mismatch: 011 vs BRGC width 4$"):
            decode(brgc(4), word("011"))

    def test_decode_rejects_metastable(self):
        with pytest.raises(InputError, match="not a codeword"):
            decode(tc(4), word("0M11"))


class TestPrecision:
    def test_examples(self):
        assert precision(brgc(5), word("0M100")) == 1
        assert precision(tc(7), word("111M000")) == 1
        assert precision(brgc(3), word("010")) == 0

    def test_oracle_for_brgc_boundary(self):
        # 0M100 resolves to 00100 (7) and 01100 (8)
        rs = res_full(word("0M100"))
        assert sorted(decode(brgc(5), y) for y in rs) == [7, 8]

    def test_undefined(self):
        with pytest.raises(InputError, match="precision undefined"):
            precision(tc(4), word("0101"))
        with pytest.raises(InputError, match="precision undefined"):
            precision(tc(4), word("M10M"))

    def test_wraparound_meta_is_wide(self):
        # M00 resolves to BRGC 0 and 7: still defined, spread 7
        assert precision(brgc(3), word("M00")) == 7
