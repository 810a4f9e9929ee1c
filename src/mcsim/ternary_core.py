"""Ternary values, words, cubes, and the unary/Gray codes.

Signals take values in {0, 1, M}, where M marks a metastable bit. A word
with k M bits stands for its 2^k full resolutions (every M fixed to 0 or
1); read as a cube it stands for its 3^k partial resolutions (every M may
also stay M). Everything downstream is built on these sets.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from enum import IntEnum
from operator import attrgetter

# Expanding the resolutions of more than this many M bits fails loudly
# instead of hanging; callers may lower or (carefully) raise it per call.
DEFAULT_MAX_META_BITS = 12

# Cap on states visited by reachability-style searches.
DEFAULT_MAX_STATES = 10**6


class InputError(Exception):
    """Malformed or out-of-range input (bad syntax, width mismatch, ...)."""


class BudgetError(Exception):
    """An enumeration or search exceeded its configured budget."""


class ParseError(InputError):
    """Netlist/spec/trace file error with a line number."""

    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


def word_at(lineno: int, text: str) -> TernaryWord:
    """The word a file row spells; a bad digit is a ParseError on lineno."""
    try:
        return TernaryWord.parse(text)
    except InputError as e:
        raise ParseError(lineno, str(e)) from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line left nonblank once `#` comments go."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class Ternary(IntEnum):
    """One signal value. ZERO and ONE are stable; META is not."""

    ZERO = 0
    ONE = 1
    META = 2

    def __str__(self) -> str:
        return "01M"[self]


ZERO = Ternary.ZERO
ONE = Ternary.ONE
META = Ternary.META

DIGITS = (ZERO, ONE, META)
CHAR_TO_DIGIT = {"0": ZERO, "1": ONE, "M": META}
# Ints 0..2 hash and compare equal to the digits, so both kinds look up.
_DIGIT_VALUE = {d: int(d) for d in DIGITS}


def _digit_value(d: Ternary | int) -> int:
    try:
        return _DIGIT_VALUE[d]
    except KeyError:
        raise InputError(f"bad digit {d!r}: must be 0, 1, or 2 (M)") from None


# each hex digit of a packed word holds two ternary digits; no word packs the 3 read as ?
_HEX_PAIRS = str.maketrans({f"{h:x}": "01M?"[h >> 2] + "01M?"[h & 3] for h in range(16)})
_M_TO_2 = str.maketrans("M", "2")


def _frozen(self, name, *value):
    """__setattr__ and __delattr__ of the value classes: every field is set as it is built."""
    raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is immutable")


@functools.total_ordering
class TernaryWord:
    """Fixed-width vector over {0,1,M}, MSB first.

    Digits are packed two bits each (0, 1, 2), so comparing the
    (width, packed) tuples orders words lexicographically with 0 < 1 < M.
    A word is checked once, when it is built: no digit is packed as 3 and
    no bit lies past the width, so nothing that reads a word checks again.
    """
    __slots__ = ("width", "packed")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, width: int, packed: int):
        if width < 0 or packed < 0 or packed >> 2 * width:
            raise InputError(f"no word of width {width} is packed as {packed:#x}")
        if threes := packed & packed << 1 & _meta_mask(width):
            # the high bit of the first 3 from the left is bit 2 * (width - i) - 1
            raise InputError(f"digit {width - (threes.bit_length() >> 1)} of a width-{width} "
                             f"word packed as {packed:#x} is 3, not 0, 1, or 2 (M)")
        _SET_WIDTH(self, width)
        _SET_PACKED(self, packed)

    # Text and digits are read as base-4 text of the digits 0, 1, 2 (M): one int() reads it
    # in a linear pass into the packing, and a power-of-two base has no int-string limit.
    @staticmethod
    def from_digits(digits: Iterable[Ternary | int]) -> "TernaryWord":
        text = "".join(["012"[_digit_value(d)] for d in digits])
        return TernaryWord(len(text), int(text or "0", 4))

    @staticmethod
    def parse(text: str) -> "TernaryWord":
        if text.strip("01M"):
            raise InputError(f"bad word {text!r}: digit must be 0, 1, or M")
        return TernaryWord(len(text), int(text.translate(_M_TO_2) or "0", 4))

    def digit(self, i: int) -> Ternary:
        if not 0 <= i < self.width:
            raise InputError(f"digit index {i} out of range for width {self.width}")
        return DIGITS[(self.packed >> (2 * (self.width - 1 - i))) & 3]

    def digits(self) -> tuple[Ternary, ...]:
        return tuple(map(CHAR_TO_DIGIT.__getitem__, str(self)))

    def with_digit(self, i: int, d: Ternary) -> "TernaryWord":
        if not 0 <= i < self.width:
            raise InputError(f"digit index {i} out of range for width {self.width}")
        shift = 2 * (self.width - 1 - i)
        cleared = self.packed & ~(3 << shift)
        return TernaryWord(self.width, cleared | (_digit_value(d) << shift))

    def concat(self, other: "TernaryWord") -> "TernaryWord":
        return TernaryWord(self.width + other.width,
                           (self.packed << (2 * other.width)) | other.packed)

    def subword(self, start: int, stop: int) -> "TernaryWord":
        if not 0 <= start <= stop <= self.width:
            raise InputError(f"bad subword range [{start}:{stop}] for width {self.width}")
        shift = 2 * (self.width - stop)
        mask = (1 << (2 * (stop - start))) - 1
        return TernaryWord(stop - start, (self.packed >> shift) & mask)

    @property
    def is_stable(self) -> bool:
        return self.meta_count() == 0

    def meta_count(self) -> int:
        return (self.packed & _meta_mask(self.width)).bit_count()

    def __len__(self) -> int:
        return self.width

    def __str__(self) -> str:
        return _text(self.width, self.packed)

    def __repr__(self) -> str:
        return f"word({str(self)!r})"

    def __eq__(self, other):
        if other.__class__ is not TernaryWord:
            return NotImplemented
        return self.packed == other.packed and self.width == other.width

    def __lt__(self, other):
        if other.__class__ is not TernaryWord:
            return NotImplemented
        return (self.width, self.packed) < (other.width, other.packed)

    def __hash__(self) -> int:
        return hash((self.width, self.packed))

    def __reduce__(self):
        return TernaryWord, (self.width, self.packed)


# the slots' own setters: the frozen class refuses setattr, in __init__ too
_SET_WIDTH, _SET_PACKED = TernaryWord.width.__set__, TernaryWord.packed.__set__


def _text(width: int, packed: int) -> str:
    """A width-digit packed word's digits: a 1 just above the top one fixes the hex text's
    length, and its text, 1 or 01, is cut."""
    return f"{packed | 1 << 2 * width:x}".translate(_HEX_PAIRS)[2 - (width & 1):]


def _cubes_text(width: int, cubes: Sequence[int]) -> str:
    """The text of ascending, distinct packed cubes of one width, as CubeSet prints it."""
    return ", ".join([_text(width, p) for p in cubes]) if cubes else "(empty)"


def word(text: str) -> TernaryWord:
    """Shorthand parser: word("0M1")."""
    return TernaryWord.parse(text)


def _fills(w: TernaryWord, digits: tuple[int, ...]) -> Iterator[TernaryWord]:
    """w with each M digit replaced by every one of the ascending digits, in
    lex order. The M places are read off the packed word once."""
    meta = w.packed & _meta_mask(w.width)
    places = [tuple(d << s for d in digits)
              for s in range(2 * w.width - 2, -1, -2) if meta >> s & 2]
    base = w.packed ^ meta
    return (TernaryWord(w.width, base + p)
            for p in map(sum, itertools.product(*places)))


def _domain(m: int, digits: tuple[int, ...]) -> Iterator[TernaryWord]:
    """Every m-digit word over the ascending digits: the fills of M^m."""
    if m < 0:
        raise InputError(f"word width {m} is negative")
    return _fills(TernaryWord(m, _meta_mask(m)), digits)


def all_words(m: int) -> Iterator[TernaryWord]:
    """Every m-digit word over {0,1,M}, in lex order."""
    return _domain(m, (0, 1, 2))


def stable_words(m: int) -> Iterator[TernaryWord]:
    """Every m-digit word over {0,1}, in lex order."""
    return _domain(m, (0, 1))


def _resolutions(w: TernaryWord, digits: tuple[int, ...],
                 max_meta: int, what: str) -> list[TernaryWord]:
    k = w.meta_count()
    if k > max_meta:
        raise BudgetError(
            f"{what} of {w} needs 2^{k} expansions; budget is {max_meta} M bits")
    return list(_fills(w, digits)) if k else [w]


def res_full(w: TernaryWord,
             max_meta: int = DEFAULT_MAX_META_BITS) -> list[TernaryWord]:
    """All full resolutions of w: every M fixed to 0 or 1, in lex order."""
    return _resolutions(w, (0, 1), max_meta, "full resolution")


def res_members(w: TernaryWord,
                max_meta: int = DEFAULT_MAX_META_BITS) -> list[TernaryWord]:
    """All partial resolutions of w (the members of the cube w), in lex order."""
    return _resolutions(w, (0, 1, 2), max_meta, "partial resolution")


_PACKED = attrgetter("packed")
_WIDTH = attrgetter("width")


@functools.lru_cache(maxsize=128)   # the benchmark's workloads read 4 to 17 widths each
def _meta_mask(width: int) -> int:
    """The packed word whose every digit is M (binary 1010...)."""
    return (4 ** width - 1) // 3 * 2


def _cover(w: TernaryWord) -> int:
    """Both bits of every M digit of w: the digits a cube leaves free."""
    m = w.packed & _meta_mask(w.width)
    return m | m >> 1


def res_contains(cube: TernaryWord, w: TernaryWord) -> bool:
    """True iff w is a partial resolution of cube: equal off cube's M digits."""
    if cube.width != w.width:
        raise InputError(f"width mismatch: {cube} vs {w}")
    return not (cube.packed ^ w.packed) & ~_cover(cube)


def words_compatible(a: TernaryWord, b: TernaryWord) -> bool:
    """True iff the cubes a and b share at least one member: they agree
    wherever neither has M."""
    if a.width != b.width:
        raise InputError(f"width mismatch: {a} vs {b}")
    return not (a.packed ^ b.packed) & ~(_cover(a) | _cover(b))


def superpose(a: TernaryWord, b: TernaryWord) -> TernaryWord:
    """The superposition a * b: a's digit where a and b agree, M where they
    differ. It is the smallest cube that contains both a and b."""
    if a.width != b.width:
        raise InputError(f"width mismatch: {a} vs {b}")
    d = a.packed ^ b.packed
    diff = (d | d >> 1) & _meta_mask(a.width) >> 1
    return TernaryWord(a.width, a.packed & ~(3 * diff) | diff << 1)


class CubeSet:
    """A set of same-width cubes; denotes the union of their members.

    The cubes tuple is sorted and duplicate-free. Canonical form (no cube
    contained in another) is established by cubeset_canonicalize; the
    executor and analysis layers only hand out canonical sets.
    """
    __setattr__ = __delattr__ = _frozen

    def __init__(self, width: int, cubes: tuple[TernaryWord, ...]):
        vars(self).update(width=width, cubes=cubes)

    @staticmethod
    def of(width: int, cubes: Iterable[TernaryWord]) -> "CubeSet":
        items = sorted(set(cubes))
        for c in items:
            if c.width != width:
                raise InputError(f"cube {c} does not have width {width}")
        return CubeSet(width, tuple(items))

    def contains_word(self, w: TernaryWord) -> bool:
        return any(res_contains(c, w) for c in self.cubes)

    def is_disjoint(self, other: "CubeSet") -> bool:
        return not any(words_compatible(a, b)
                       for a in self.cubes for b in other.cubes)

    def __iter__(self) -> Iterator[TernaryWord]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __str__(self) -> str:
        return _cubes_text(self.width, [c.packed for c in self.cubes])

    def __repr__(self) -> str:
        return f"CubeSet(width={self.width!r}, cubes={self.cubes!r})"

    def __eq__(self, other):
        if other.__class__ is not CubeSet:
            return NotImplemented
        return self.width == other.width and self.cubes == other.cubes

    def __hash__(self) -> int:
        return hash((self.width, self.cubes))


def _canonical(width: int, cubes: Iterable[int], exact: int) -> tuple[int, ...]:
    """The packed cubes no other one contains, ascending. Cubes compare only when their
    first `exact` digits are equal, so those are literal values: an M there matches only an M."""
    if len(cubes := set(cubes)) < 2:
        return tuple(cubes)
    shift, meta = 2 * (width - exact), _meta_mask(width)
    kept: dict[int, list[int]] = {}
    # more M digits first, so every container is kept before what it absorbs
    for c in sorted(cubes, key=lambda c: (-(c & meta).bit_count(), c)):
        group = kept.setdefault(c >> shift, [])
        if all((k ^ c) & ~(k & meta | (k & meta) >> 1) for k in group):
            group.append(c)
    return tuple(sorted(itertools.chain(*kept.values())))


def _cubes(width: int, packed: Iterable[int]) -> CubeSet:
    """The CubeSet of ascending, distinct packed cubes of one width."""
    return CubeSet(width, tuple(TernaryWord(width, p) for p in packed))


def cubeset_canonicalize(cs: CubeSet) -> CubeSet:
    """Drop every cube contained in another; denotation is unchanged.

    Idempotent and independent of the input order (the result is sorted).
    """
    return _cubes(cs.width, _canonical(cs.width, map(_PACKED, cs.cubes), 0))


def kleene_extend(table: str, x: TernaryWord) -> Ternary:
    """Evaluate a Boolean truth table on a ternary word.

    Returns b when the table is constant b over all full resolutions of x,
    and M otherwise. The table is the text of the outputs, 0 or 1, for
    inputs in ascending binary order, MSB first.
    """
    if len(table) != 1 << x.width or any(c not in "01" for c in table):
        raise InputError(f"truth table {table!r} does not match arity {x.width}")
    seen = {table[int(str(y) or "0", 2)] for y in res_full(x, x.width)}
    return META if len(seen) > 1 else Ternary(int(seen.pop()))


class Code(namedtuple("Code", "kind width")):
    """An encoding of integers as stable words: unary TC or Gray BRGC.

    TC of width n encodes 0..n as 0^(n-v) 1^v; the mirrored spelling
    1^v 0^(n-v) (the order a thermometer delivers) decodes too. BRGC of
    width k encodes 0..2^k-1 bijectively with the reflected construction.
    """
    __slots__ = ()

    def __new__(cls, kind: str, width: int):
        if kind not in ("TC", "BRGC"):
            raise InputError(f"unknown code kind {kind!r}")
        if width < 1:
            raise InputError("code width must be positive")
        return super().__new__(cls, kind, width)

    @property
    def range(self) -> int:
        """Count of codewords."""
        return self.width + 1 if self.kind == "TC" else 1 << self.width


def tc(width: int) -> Code:
    return Code("TC", width)


def brgc(width: int) -> Code:
    return Code("BRGC", width)


def encode(c: Code, v: int) -> TernaryWord:
    """The canonical codeword of v."""
    if not 0 <= v < c.range:
        raise InputError(f"value {v} out of range for {c.kind} width {c.width}")
    if c.kind == "TC":
        return word("0" * (c.width - v) + "1" * v)
    # binary digits read in base 4 are the packed word (2 bits a digit)
    return TernaryWord(c.width, int(format(v ^ v >> 1, "b"), 4))


def decode(c: Code, w: TernaryWord) -> int:
    """The value of a stable codeword; raises on anything else."""
    if w.width != c.width:
        raise InputError(f"width mismatch: {w} vs {c.kind} width {c.width}")
    if not w.is_stable:
        raise InputError(f"not a codeword: {w} is not stable")
    if c.kind == "TC":
        ones = sum(1 for d in w.digits() if d is ONE)
        if w not in (encode(c, ones), word("1" * ones + "0" * (c.width - ones))):
            raise InputError(f"not a codeword: {w}")
        return ones
    # binary digit i is the XOR of the Gray digits from the first to i
    g = v = int(str(w), 2)
    while g := g >> 1:
        v ^= g
    return v


def precision(c: Code, w: TernaryWord) -> int:
    """Largest spread between decoded full resolutions of w.

    Every full resolution must be a codeword; otherwise the notion is
    undefined and an error is raised.
    """
    values = []
    for y in res_full(w):
        try:
            values.append(decode(c, y))
        except InputError as e:
            raise InputError(
                f"precision undefined: {w} resolves to non-codeword {y}") from e
    return max(values) - min(values)
