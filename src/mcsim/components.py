"""Ready-made metastability-containing circuits.

Multiplexers that do and do not contain metastability, the masking
fan-out buffer, the round counter and input selector built from it, code
converters between thermometer and Gray code, 2-sorts and sorting
networks over Gray-coded words, and the clock-synchronization datapath
that strings them together: TDC readings in, two fault-tolerant control
words out.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .analysis import FunctionSpec, closure_bool, general_spec, synthesize
from .netlist import (Circuit, Gate, RegisterDecl, RegType, Role, _packed, _run, _word_rails,
                      make_circuit, per_width, splice_dag)
from .ternary_core import (
    META,
    ONE,
    ZERO,
    CubeSet,
    InputError,
    TernaryWord,
    brgc,
    encode,
    stable_words,
    tc,
    word,
)


# ---------------------------------------------------------------------------
# Multiplexers

def _mux_closure() -> dict:
    """Entries of the metastable closure of o = s ? b : a, inputs a b s."""
    return closure_bool({x: x.subword(1, 2) if x.digit(2) is ONE else x.subword(0, 1)
                         for x in stable_words(3)}).entries


def mux_spec() -> FunctionSpec:
    """What a plain MUX promises: follow the selected input, anything at
    all while the select is metastable."""
    return general_spec(3, 1, {
        x: CubeSet.of(1, [word("M") if x.digit(2) is META else e])
        for x, e in _mux_closure().items()})


def cmux_spec() -> FunctionSpec:
    """The containing MUX, the metastable closure of the MUX: a metastable
    select must not matter when the data inputs agree."""
    return general_spec(3, 1, {x: CubeSet.of(1, [e])
                               for x, e in _mux_closure().items()})


def _mux(name: str, *consensus: Gate) -> Circuit:
    """o = (not s and a) or (s and b), ORed with any further terms."""
    regs = [RegisterDecl(r, Role.INPUT, RegType.SIMPLE) for r in "abs"]
    terms = [Gate("t_a", "AND", ("ns", "a")), Gate("t_b", "AND", ("s", "b")), *consensus]
    return make_circuit(
        name, regs + [RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)],
        [Gate("ns", "NOT", ("s",)), *terms, Gate("sel", "OR", tuple(t.gid for t in terms))],
        {"o": "sel"})


def build_mux() -> Circuit:
    """o = (not s and a) or (s and b); lets a metastable select through."""
    return _mux("mux")


def build_cmux_combinational() -> Circuit:
    """The MUX plus the consensus term a-and-b, which holds the output
    stable whenever the data inputs agree."""
    return _mux("cmux1", Gate("t_ab", "AND", ("a", "b")))


def build_cmux_clocked() -> Circuit:
    """Clocked containing MUX: the select sits in a mask-1 register and is
    also delayed one round into a simple register; o follows (not s and a)
    or (s-delayed and b). Valid after two rounds; the round-1 output is
    explicitly unspecified.
    """
    regs = [RegisterDecl("a", Role.INPUT, RegType.SIMPLE),
            RegisterDecl("b", Role.INPUT, RegType.SIMPLE),
            RegisterDecl("s", Role.INPUT, RegType.MASK1),
            RegisterDecl("sp", Role.LOCAL, RegType.SIMPLE, ZERO),
            RegisterDecl("o", Role.OUTPUT, RegType.SIMPLE, ZERO)]
    gates = [Gate("ns", "NOT", ("s",)),
             Gate("t_a", "AND", ("ns", "a")),
             Gate("t_b", "AND", ("sp", "b")),
             Gate("sel", "OR", ("t_a", "t_b"))]
    return make_circuit("cmux_clocked", regs, gates, {"sp": "s", "o": "sel"})


# ---------------------------------------------------------------------------
# Fan-out buffer, counter, selector

def _check_rounds(r: int, what: str) -> None:
    # these grow with r, and the fan-out check is cubic in it
    if r < 1:
        raise InputError(f"{what} needs at least one round")
    if r > 128:
        raise InputError(f"{what} is capped at 128 rounds")


def masking_fanout_spec(r: int) -> FunctionSpec:
    """r copies of a mask-0 input: stable values copy exactly; M may come
    out as any word that is zeros, then at most one M, then ones."""
    _check_rounds(r, "fan-out")
    values = {
        word("0"): CubeSet.of(r, [word("0" * r)]),
        word("1"): CubeSet.of(r, [word("1" * r)]),
        word("M"): CubeSet.of(r, [word("0" * j + "M" + "1" * (r - 1 - j))
                                  for j in range(r)]),
    }
    return general_spec(1, r, values)


def build_fanout_buffer(r: int) -> Circuit:
    """Fan a mask-0 register out to r outputs over r rounds.

    The register masks internal metastability as 0 and emits M at most
    once, on the transition to 1. Output j receives the round-j read:
    directly for the last round, through a delay chain of simple
    registers for the earlier ones. No gates at all.
    """
    _check_rounds(r, "fan-out")
    regs = [RegisterDecl("I", Role.INPUT, RegType.MASK0)]
    regs += [RegisterDecl(f"D{i}", Role.LOCAL, RegType.SIMPLE, ZERO)
             for i in range(1, r)]
    regs += [RegisterDecl(f"O{j}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for j in range(1, r + 1)]
    drives = {"D1": "I"} if r > 1 else {}
    for i in range(2, r):
        drives[f"D{i}"] = f"D{i - 1}"
    for j in range(1, r):
        drives[f"O{j}"] = f"D{r - j}"
    drives[f"O{r}"] = "I"
    return make_circuit(f"fanout_{r}", regs, [], drives)


def build_counter(r: int) -> Circuit:
    """No inputs, r outputs; output i is 1 exactly in round i of 1..r.

    A chain of simple registers fills with ones one per round; XOR of
    neighbors marks the filling front. Meant to run for r rounds.
    """
    _check_rounds(r, "counter")
    regs = [RegisterDecl("R0", Role.LOCAL, RegType.SIMPLE, ONE)]
    regs += [RegisterDecl(f"R{i}", Role.LOCAL, RegType.SIMPLE, ZERO)
             for i in range(1, r)]
    regs += [RegisterDecl(f"O{j}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for j in range(1, r + 1)]
    gates = [Gate(f"c{j}", "XOR", (f"R{j - 1}", f"R{j}"))
             for j in range(1, r)]
    drives = {"R0": "R0"}
    for i in range(1, r):
        drives[f"R{i}"] = f"R{i - 1}"
    for j in range(1, r):
        drives[f"O{j}"] = f"c{j}"
    drives[f"O{r}"] = f"R{r - 1}"
    return make_circuit(f"counter_{r}", regs, gates, drives)


def build_selector(r: int) -> Circuit:
    """r inputs, one output: round j delivers input j, untouched.

    The counter's front-marking XOR wires gate each input with its round,
    so even a metastable input passes through only in its own round.
    """
    _check_rounds(r, "selector")
    counter = build_counter(r)
    regs = [RegisterDecl(f"x{i}", Role.INPUT, RegType.SIMPLE)
            for i in range(r)]
    regs += [*counter.local_regs, RegisterDecl("O", Role.OUTPUT, RegType.SIMPLE, ZERO)]
    drive = dict(counter.dag.outputs)
    gates = list(counter.dag.gates)
    terms = tuple(f"t{j}" for j in range(1, r + 1))
    gates += [Gate(t, "AND", (f"x{j}", drive[f"O{j + 1}"])) for j, t in enumerate(terms)]
    if r > 1:
        gates.append(Gate("pick", "OR", terms))
    drives = {reg.name: drive[reg.name] for reg in counter.local_regs}
    drives["O"] = "pick" if r > 1 else "t1"
    return make_circuit(f"selector_{r}", regs, gates, drives)


# ---------------------------------------------------------------------------
# Code converters

def _one_runs(bit: int, k: int):
    """Maximal intervals [a, b) of v < 2^k where Gray-code bit `bit` is 1:
    those where v mod 2^(bit+2) lies in [2^bit, 3 * 2^bit)."""
    return [(a, min(a + (2 << bit), 1 << k)) for a in range(1 << bit, 1 << k, 4 << bit)]


def _or_tree(terms, prefix, gates):
    level = 0
    while len(terms) > 1:
        nxt = []
        for i in range(0, len(terms) - 1, 2):
            gid = f"{prefix}_or{level}_{i // 2}"
            gates.append(Gate(gid, "OR", (terms[i], terms[i + 1])))
            nxt.append(gid)
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
        level += 1
    return terms[0]


def build_tc_to_brgc(k: int) -> Circuit:
    """Thermometer code (ones first) in, Gray code out, width 2^k - 1.

    Gray bit j is 1 on disjoint intervals of the encoded value; each
    interval [a, b) is the thermometer bit a-1 with bit b-1 masked off.
    Every input bit borders exactly one Gray bit's intervals, so a single
    metastable input bit disturbs one output bit only.
    """
    if not 1 <= k <= 5:
        raise InputError(f"TC-to-BRGC conversion takes 1 to 5 output bits, got {k}")
    n = (1 << k) - 1
    regs = [RegisterDecl(f"i{t}", Role.INPUT, RegType.SIMPLE)
            for t in range(n)]
    regs += [RegisterDecl(f"g{j}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for j in range(k)]
    gates = []
    drives = {}
    for j in range(k):
        bit = k - 1 - j
        terms = []
        for a, b in _one_runs(bit, k):
            if b == 1 << k:
                terms.append(f"i{a - 1}")
            else:
                gid = f"g{j}_w{a}"
                gates.append(Gate(gid, "TABLE", (f"i{a - 1}", f"i{b - 1}"),
                                  "0010"))
                terms.append(gid)
        drives[f"g{j}"] = _or_tree(terms, f"g{j}", gates)
    return make_circuit(f"tc_to_brgc_{k}", regs, gates, drives)


@lru_cache(maxsize=3)  # k 1-3: every word width it builds
def build_two_sort(k: int) -> Circuit:
    """min and max of two k-bit Gray-coded words, in one round.

    Synthesized from the closure of the Boolean min/max table, so a
    precision-1 input pair comes out as precision-1 min and max.
    """
    if not 1 <= k <= 3:
        raise InputError(f"two-sort synthesis takes words of 1 to 3 bits, got {k}")
    code = brgc(k)
    table = {}
    for u in range(code.range):
        for v in range(code.range):
            x = encode(code, u).concat(encode(code, v))
            table[x] = encode(code, min(u, v)).concat(encode(code, max(u, v)))
    c = synthesize(closure_bool(table))
    return Circuit(f"two_sort_{k}", c.registers, c.dag)


@lru_cache(maxsize=4)  # k 1-4: every width it builds
def build_brgc_to_tc(k: int) -> Circuit:
    """Gray code in, canonical thermometer code (zeros first) out."""
    if not 1 <= k <= 4:
        raise InputError(f"BRGC-to-TC conversion takes 1 to 4 input bits, got {k}")
    code = brgc(k)
    out = tc((1 << k) - 1)
    table = {encode(code, v): encode(out, v) for v in range(code.range)}
    c = synthesize(closure_bool(table))
    return Circuit(f"brgc_to_tc_{k}", c.registers, c.dag)


# ---------------------------------------------------------------------------
# Sorting networks

class SortingNetwork(namedtuple("SortingNetwork", "channels word_width layers")):
    """Comparator schedule: layers of disjoint channel pairs."""
    __slots__ = ()

    def __new__(cls, channels: int, word_width: int, layers: tuple):
        for layer in layers:
            used = set()
            for lo, hi in layer:
                if not 0 <= lo < hi < channels:
                    raise InputError(f"bad comparator ({lo}, {hi})")
                if lo in used or hi in used:
                    raise InputError("comparators in one layer must be "
                                     "channel-disjoint")
                used |= {lo, hi}
        return super().__new__(cls, channels, word_width, layers)


def _batcher_pairs(n: int):
    """Batcher's odd-even mergesort comparators for any channel count."""
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return pairs


def _layered(pairs):
    layers = []
    depth = {}
    for lo, hi in pairs:
        d = max(depth.get(lo, 0), depth.get(hi, 0))
        if len(layers) == d:
            layers.append([])
        layers[d].append((lo, hi))
        depth[lo] = depth[hi] = d + 1
    return tuple(tuple(layer) for layer in layers)


def build_sorting_network(channels: int, word_width: int):
    """Batcher network over Gray-coded words; returns the comparator
    schedule and the flat one-round circuit. Channel 0 of the output
    carries the minimum."""
    if not 2 <= channels <= 8:
        raise InputError(f"sorting network takes 2 to 8 channels, got {channels}")
    if not 1 <= word_width <= 3:
        raise InputError(f"sorting network takes words of 1 to 3 bits, got {word_width}")
    k = word_width
    net = SortingNetwork(channels, k, _layered(_batcher_pairs(channels)))
    comp = build_two_sort(k)
    regs = [RegisterDecl(f"ch{c}_{b}", Role.INPUT, RegType.SIMPLE)
            for c in range(channels) for b in range(k)]
    regs += [RegisterDecl(f"out{c}_{b}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for c in range(channels) for b in range(k)]
    gates = []
    node = {(c, b): f"ch{c}_{b}" for c in range(channels) for b in range(k)}
    idx = 0
    for layer in net.layers:
        for lo, hi in layer:
            feeds = {f"x{b}": node[(lo, b)] for b in range(k)}
            feeds.update({f"x{k + b}": node[(hi, b)] for b in range(k)})
            outs = splice_dag(comp.dag, feeds, lambda gid: f"s{idx}_{gid}", gates)
            for b in range(k):
                node[(lo, b)] = outs[f"y{b}"]
                node[(hi, b)] = outs[f"y{k + b}"]
            idx += 1
    drives = {f"out{c}_{b}": node[(c, b)]
              for c in range(channels) for b in range(k)}
    circuit = make_circuit(f"sorting_{channels}x{k}", regs, gates, drives)
    return net, circuit


# ---------------------------------------------------------------------------
# The clock-synchronization datapath

class TdcReading(namedtuple("TdcReading", "word")):
    """A time-to-digital converter sample: ones, at most one M at the
    boundary, then zeros."""
    __slots__ = ()

    def __new__(cls, word: TernaryWord):
        if _tdc_lookup(word.width)(word.packed) is None:
            raise InputError(f"not a TDC reading: {word}")
        return super().__new__(cls, word)


@per_width
def _tdc_rails(width: int) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each packed TDC reading of a width, 1^v 0^(w-v) and 1^v M 0^(w-v-1),
    mapped to its one-lane can0 and can1 rails."""
    ones = [(4 ** v - 1) // 3 << 2 * (width - v) for v in range(width + 1)]
    words = ones + [o | 2 << 2 * (width - v - 1) for v, o in enumerate(ones[:-1])]
    return {p: tuple(map(tuple, _word_rails(p, width, 1))) for p in words}


def _tdc_lookup(width: int):
    """packed word -> its _tdc_rails entry, or None for a word that is no TDC reading. Above
    width 10 no table is kept: p is matched with the readings its trailing zeros allow."""
    if width <= 10:
        return _tdc_rails(width).get
    def rails(p):
        z = ((p & -p).bit_length() - 1) // 2 if p else width    # 1^v 0^z or 1^(v-1) M 0^z
        v, ones = width - z, (4 ** (width - z) - 1) // 3 << 2 * z
        m = p != ones   # the M of 1^(v-1) M 0^z can be 0 and 1; the rails are runs, linear
        return ([0] * (v - m) + [1] * (z + m), [1] * v + [0] * z) \
            if p in (ones, ones ^ 3 << 2 * z) else None
    return rails


def tdc_readings(n: int, v: int, meta: bool = False) -> TdcReading:
    """The reading of a counter caught at value v: 1^v 0^(n-v), with the
    boundary bit metastable when the sample races the v -> v+1 tick."""
    if n < 1 or not 0 <= v <= n:
        raise InputError(f"value {v} out of range for width {n}")
    if meta and v >= n:
        raise InputError("no room for a boundary M at full scale")
    return TdcReading(word("1" * v + "M" * meta + "0" * (n - v - meta)))


def _check_faults(n: int, f: int) -> None:
    if f < 0:
        raise InputError(f"fault count must be nonnegative, got {f}")
    if n <= 3 * f:
        raise InputError(f"need more than 3f = {3 * f} nodes, got {n}")


@lru_cache(maxsize=42)  # n 2-8, k 1-3, f <= (n-1)//3: every pipeline it builds
def build_pipeline(n: int, k: int, f: int) -> Circuit:
    """One combinational pass from n TC readings to the two selected TC
    control words: convert to Gray code, sort, tap the (f+1)-th largest
    and (n-f)-th largest channels, convert back."""
    _check_faults(n, f)
    width = (1 << k) - 1
    conv = build_tc_to_brgc(k)
    net, sorter = build_sorting_network(n, k)
    back = build_brgc_to_tc(k)
    regs = [RegisterDecl(f"r{c}_{t}", Role.INPUT, RegType.SIMPLE)
            for c in range(n) for t in range(width)]
    regs += [RegisterDecl(f"low_{t}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for t in range(width)]
    regs += [RegisterDecl(f"high_{t}", Role.OUTPUT, RegType.SIMPLE, ZERO)
             for t in range(width)]
    gates = []
    sort_feeds = {}
    for c in range(n):
        outs = splice_dag(conv.dag, {f"i{t}": f"r{c}_{t}" for t in range(width)},
                          lambda gid: f"conv{c}_{gid}", gates)
        for b in range(k):
            sort_feeds[f"ch{c}_{b}"] = outs[f"g{b}"]
    sorted_nodes = splice_dag(sorter.dag, sort_feeds, lambda gid: f"sort_{gid}", gates)
    drives = {}
    for label, chan in (("low", f), ("high", n - 1 - f)):
        feeds = {f"x{b}": sorted_nodes[f"out{chan}_{b}"] for b in range(k)}
        outs = splice_dag(back.dag, feeds, lambda gid: f"{label}tc_{gid}", gates)
        for t in range(width):
            drives[f"{label}_{t}"] = outs[f"y{t}"]
    return make_circuit(f"clock_sync_{n}x{k}_f{f}", regs, gates, drives)


def pipeline_bits(width: int) -> int:
    """The k of build_pipeline for readings of a width, which must be 2^k - 1."""
    if not width or width & width + 1:
        raise InputError("reading width must be one less than a power of two")
    return width.bit_length()


def clock_sync_select(n: int, f: int, readings) -> tuple[TernaryWord, TernaryWord]:
    """Fault-tolerant pick of the (n-f)-th and (f+1)-th largest readings.

    Returns (low, high) as canonical TC words; with at most f faulty
    nodes, every correct node's value lies in [low, high]. Readings must
    be TDC readings (ones, at most one M, zeros), which have precision at
    most 1, for the guarantee to mean anything.
    """
    words = [r.word if isinstance(r, TdcReading) else r for r in readings]
    if len(words) != n:
        raise InputError(f"expected {n} readings, got {len(words)}")
    _check_faults(n, f)
    width = words[0].width
    if any(w.width != width for w in words):
        raise InputError("readings must share one width")
    k, lookup, z, o = pipeline_bits(width), _tdc_lookup(width), [], []
    for w in words:
        if (rails := lookup(w.packed)) is None:
            raise InputError(f"not a TDC reading: {w}")
        z += rails[0]
        o += rails[1]
    out = _packed(_run(build_pipeline(n, k, f).dag, z, o, 1))
    return TernaryWord(width, out >> 2 * width), TernaryWord(width, out & (1 << 2 * width) - 1)
