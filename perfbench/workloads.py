"""The four benchmark workloads.

Each workload is built from a seed and a scratch directory. Building it
is the set-up that setup_s times: it receives freshly imported mcsim
modules and makes every circuit, spec and file that needs mcsim.
cycle() then hands out the next whole cycle of items, made only by the
benchmark's own code from the seeded generator; run() is the timed call
into mcsim, and check() compares its result with a reference that does
not come from the code being timed.

Every cycle has a fixed mix of item classes, so the share of each class,
and with it where the latency percentiles fall, does not depend on the
seed. The mixes put p50 and p90 inside a class rather than between two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

from reference import (
    bool_eval,
    closure,
    stable_words,
    state_in,
    contains,
    tc_values,
    tc_word,
    ternary_eval,
    ternary_words,
)

# Explicit state/node budget handed to every mcsim call that takes one.
BUDGET = 100_000

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def _flip(y: str, j: int) -> str:
    return y[:j] + ("1" if y[j] == "0" else "0") + y[j + 1:]


# ---------------------------------------------------------------------------

@dataclass
class SynthItem:
    m: int
    n: int
    table: dict                 # stable input -> output, as strings
    allowed: dict               # stable input -> set of acceptable outputs
    spec: object                # mcsim truth table, or general FunctionSpec
    loose: bool


class ClosureSynth:
    """closure_bool -> synthesize -> implements(c, 1, h) per Boolean table;
    a share of loosened general specs go through find_natural_subfunction
    first. Seven of every ten tables have m=3, so p50 is an m=3 item and
    p90 an m=4 item."""

    name = "closure-synth"
    cap_s = 5.0
    M_CYCLE = (3, 3, 4, 3, 3, 4, 3, 3, 4, 3)
    LOOSE_SHARE = 0.25

    def __init__(self, mc, seed: int, workdir: str):
        self.mc = mc
        self.rng = random.Random(f"{self.name}/{seed}")

    def cycle(self) -> list[SynthItem]:
        return [self._item(m) for m in self.M_CYCLE]

    def _item(self, m: int) -> SynthItem:
        rng, word = self.rng, self.mc.ternary_core.word
        n = rng.choice((1, 2, 3))
        table = {x: "".join(rng.choice("01") for _ in range(n))
                 for x in stable_words(m)}
        allowed = {x: {y} for x, y in table.items()}
        if rng.random() >= self.LOOSE_SHARE:
            spec = {word(x): word(y) for x, y in table.items()}
            return SynthItem(m, n, table, allowed, spec, False)
        # Loosen the (locally computed) closure: some stable inputs also
        # allow one output bit flipped, which the subfunction search must
        # choose between. The closure itself stays inside, so a natural
        # subfunction always exists.
        CubeSet = self.mc.ternary_core.CubeSet
        entries = closure(table, m, n)
        values = {}
        for x in ternary_words(m):
            cubes = [entries[x]]
            if x in table and rng.random() < 0.5:
                alt = _flip(table[x], rng.randrange(n))
                cubes.append(alt)
                allowed[x].add(alt)
            values[word(x)] = CubeSet.of(n, [word(c) for c in cubes])
        spec = self.mc.analysis.general_spec(m, n, values)
        return SynthItem(m, n, table, allowed, spec, True)

    def run(self, it: SynthItem):
        an, ex = self.mc.analysis, self.mc.executor
        if it.loose:
            h = an.find_natural_subfunction(it.spec, max_nodes=BUDGET)
            if h is None:
                return None
        else:
            h = an.closure_bool(it.spec)
        c = an.synthesize(h)
        return c, ex.implements(c, 1, it.spec if it.loose else h, max_states=BUDGET)

    def check(self, it: SynthItem, result):
        if result is None:
            return "no natural subfunction inside a loosened closure"
        c, verdict = result
        if not verdict.ok:
            return f"synthesized circuit fails its spec at {verdict.witness_input}"
        for x in stable_words(it.m):
            y = bool_eval(c.dag, x)
            if y not in it.allowed[x]:
                return f"stable input {x} gives {y}, table says {it.table[x]}"
        return None


# ---------------------------------------------------------------------------

@dataclass
class CheckItem:
    label: str
    circuit: object
    spec: object


class WideCheck:
    """implements at r=1 over the full 3^m domain of wide one-round
    circuits: closure-synthesized ones (m 5-7) and the 4x2 Gray sorting
    network (m=8). Per cycle: 3 of m=5, 4 of m=6, 1 of m=7 and 2 sorting
    networks, so p50 is an m=6 check and p90 a sorting-network check."""

    name = "wide-check"
    cap_s = 60.0
    CYCLE = ("sort", 5, 6, 7, 6, "sort", 5, 6, 5, 6)
    OUT_BITS = {5: 3, 6: 2, 7: 1}

    def __init__(self, mc, seed: int, workdir: str):
        self.mc = mc
        rng = random.Random(f"{self.name}/{seed}")
        word, an = mc.ternary_core.word, mc.analysis
        self.items = []
        sort_item = None
        for m in self.CYCLE:
            if m == "sort":
                if sort_item is None:
                    _, c = mc.components.build_sorting_network(4, 2)
                    entries = {word(x): word(ternary_eval(c.dag, x))
                               for x in ternary_words(c.m)}
                    sort_item = CheckItem("sort4x2", c, an.natural_spec(c.m, c.n, entries))
                self.items.append(sort_item)
                continue
            n = self.OUT_BITS[m]
            table = {word(x): word("".join(rng.choice("01") for _ in range(n)))
                     for x in stable_words(m)}
            h = an.closure_bool(table)
            # synthesize(closure) meets the closure by construction, so the
            # expected verdict is yes
            self.items.append(CheckItem(f"closure{m}", an.synthesize(h), h))

    def cycle(self) -> list[CheckItem]:
        return self.items

    def run(self, it: CheckItem):
        return self.mc.executor.implements(it.circuit, 1, it.spec, max_states=BUDGET)

    def check(self, it: CheckItem, verdict):
        if not verdict.ok:
            return f"{it.label}: verdict no at {verdict.witness_input}"
        return None


# ---------------------------------------------------------------------------

def random_netlist(rng: random.Random, name: str) -> tuple[str, int, int]:
    """A random sequential circuit in the netlist format, like the test
    corpora but larger: up to eight registers, locals fed back, inputs of
    every register type. Locals and outputs are simple: masked locals
    made a few circuits' state sets, and so the run's cost, swing by an
    order of magnitude from seed to seed. Returns (text, inputs, outputs)."""
    m, k, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
    types = ("simple", "mask0", "mask1")
    lines = [f"circuit {name}"]
    lines += [f"input i{j} {rng.choice(types)}" for j in range(m)]
    lines += [f"local l{j} simple init {rng.choice('01M')}" for j in range(k)]
    lines += [f"output o{j} simple init {rng.choice('01M')}" for j in range(n)]
    avail = [f"i{j}" for j in range(m)] + [f"l{j}" for j in range(k)]
    for g in range(rng.randint(3, 8)):
        kind = rng.choice(("AND", "OR", "NAND", "NOR", "XOR", "NOT", "BUF", "TABLE"))
        arity = {"XOR": 2, "NOT": 1, "BUF": 1}.get(kind) or rng.randint(2, 3)
        if kind == "TABLE":
            kind = "TABLE:" + "".join(rng.choice("01") for _ in range(1 << arity))
        args = " ".join(rng.choice(avail) for _ in range(arity))
        lines.append(f"gate g{g} {kind} {args}")
        avail.append(f"g{g}")
    lines += [f"drive l{j} {rng.choice(avail)}" for j in range(k)]
    lines += [f"drive o{j} {rng.choice(avail)}" for j in range(n)]
    return "\n".join(lines) + "\n", m, n


def _fanout_spec(r: int) -> str:
    rows = ["0 -> " + "0" * r, "1 -> " + "1" * r,
            "M -> " + ", ".join("0" * j + "M" + "1" * (r - 1 - j) for j in range(r))]
    return f"spec m=1 n={r}\n" + "\n".join(rows) + "\n"


def _cmux_spec() -> str:
    rows = []
    for a, b, s in ternary_words(3):
        pick = a if s == "0" or a == b else b if s == "1" else "M"
        rows.append(f"{a}{b}{s} -> {pick}")
    return "spec m=3 n=1\n" + "\n".join(rows) + "\n"


@dataclass
class CliItem:
    index: int
    kind: str                   # sim, witness or check
    argv: list
    m: int
    n: int
    rounds: int
    out_file: str | None = None
    expect_witness: bool = False


@dataclass
class Part:
    path: str
    m: int
    n: int
    r: int = 0
    spec: str | None = None


class SequentialSim:
    """`mc sim`, `mc witness` and `mc check r>1` through cli.main on
    seeded sequential circuits: random ones with mask registers, locals
    and feedback, plus fan-out buffers, selectors, counters and the
    clocked CMUX. Per cycle: 2 sims of random circuits, 5 of components,
    2 witnesses and 1 check. Inputs contain M; rounds range over 4-64."""

    name = "sequential-sim"
    cap_s = 30.0
    KINDS = ("sim-part", "witness", "sim", "sim-part", "check", "sim-part",
             "witness", "sim", "sim-part", "sim-part")
    # Component sims take rounds from 4..33 and random sims from 34..64,
    # one draw from each equal slice per cycle. Sorted by cost, a cycle is
    # then roughly 3 short commands, 5 component sims, 2 long random sims:
    # p50 lands among the component sims and p90 among the random ones.
    ROUNDS = {"sim-part": (4, 34), "sim": (34, 65)}
    DEFAULT_SEED = 1

    def __init__(self, mc, seed: int, workdir: str):
        self.mc = mc
        self.rng = random.Random(f"{self.name}/{seed}")
        self.dir = workdir
        self.count = 0
        self.digests = None
        if seed == self.DEFAULT_SEED and os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                self.digests = json.load(fh)["digests"]
        comp, emit = mc.components, mc.netlist.emit_netlist
        self.parts: dict[str, list[Part]] = {"fanout": [], "selector": [],
                                              "counter": [], "cmux": []}
        builds = ([("fanout", r, comp.build_fanout_buffer(r), 1, r) for r in range(4, 9)]
                  + [("selector", r, comp.build_selector(r), r, 1) for r in range(3, 7)]
                  + [("counter", r, comp.build_counter(r), 0, r) for r in range(4, 9)]
                  + [("cmux", 2, comp.build_cmux_clocked(), 3, 1)])
        for kind, r, c, m, n in builds:
            path = self._write(f"{kind}{r}.net", emit(c))
            spec = None
            if kind == "fanout":
                spec = self._write(f"{kind}{r}.spec", _fanout_spec(r))
            elif kind == "cmux":
                spec = self._write("cmux.spec", _cmux_spec())
            self.parts[kind].append(Part(path, m, n, r, spec))
        self.trace_path = os.path.join(workdir, "sim.trace")
        self.witness_path = os.path.join(workdir, "witness.trace")

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def _input(self, m: int) -> str:
        w = [self.rng.choice("01M") for _ in range(m)]
        if m:
            w[self.rng.randrange(m)] = "M"
        return "".join(w)

    def cycle(self) -> list[CliItem]:
        rounds = {}
        for kind, (lo, hi) in self.ROUNDS.items():
            count = self.KINDS.count(kind)
            rounds[kind] = [lo + int((hi - lo) * (i + self.rng.random()) / count)
                            for i in range(count)]
            self.rng.shuffle(rounds[kind])
        return [self._item(kind, rounds[kind].pop() if kind in rounds else 0)
                for kind in self.KINDS]

    def _item(self, kind: str, r: int) -> CliItem:
        rng = self.rng
        index = self.count
        self.count += 1
        budget = ["--max-states", str(BUDGET)]
        if kind == "sim" or kind == "sim-part":
            if kind == "sim":
                text, m, n = random_netlist(rng, f"rnd{index}")
                path = self._write(f"random{index % len(self.KINDS)}.net", text)
            else:
                part = rng.choice(self.parts[rng.choice(list(self.parts))])
                path, m, n = part.path, part.m, part.n
            argv = ["sim", path, self._input(m), str(r), "--trace", self.trace_path]
            return CliItem(index, "sim", argv + budget, m, n, r, self.trace_path)
        if kind == "witness":
            pick = rng.choice(("fanout", "selector", "random"))
            if pick == "random":
                text, m, n = random_netlist(rng, f"rnd{index}")
                path = self._write(f"random{index % len(self.KINDS)}.net", text)
                r = rng.randint(4, 16)
                a = "".join(rng.choice("01") for _ in range(m))
                b = "".join(rng.choice("01") for _ in range(m))
                expect = False
            else:
                part = rng.choice(self.parts[pick])
                path, m, n, r = part.path, part.m, part.n, part.r
                # both differ in the input the output shows at round r,
                # so the two output sets are disjoint and a witness exists
                a = "".join(rng.choice("01") for _ in range(m))
                b = a[:-1] + ("1" if a[-1] == "0" else "0")
                expect = True
            argv = ["witness", path, a, b, str(r), "-o", self.witness_path]
            return CliItem(index, "witness", argv + budget, m, n, r,
                           self.witness_path, expect)
        part = rng.choice(self.parts[rng.choice(("fanout", "cmux"))])
        argv = ["check", part.path, part.spec, str(part.r)]
        return CliItem(index, "check", argv + budget, part.m, part.n, part.r)

    def run(self, it: CliItem):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mc.cli.main(it.argv)
        return code, out.getvalue(), err.getvalue()

    def digest(self, it: CliItem, result) -> str:
        """Digest of everything the command produced, with the scratch
        directory spelled as <work>."""
        code, out, _ = result
        written = ""
        if it.out_file is not None and os.path.exists(it.out_file):
            with open(it.out_file) as fh:
                written = fh.read()
        text = f"{code}\n{out}\n{written}".replace(self.dir, "<work>")
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def check(self, it: CliItem, result):
        try:
            return self._check(it, result)
        finally:
            # the next item must not find this item's trace
            if it.out_file is not None and os.path.exists(it.out_file):
                os.remove(it.out_file)

    def _check(self, it: CliItem, result):
        code, out, err = result
        if self.digests is not None and it.index < len(self.digests) \
                and self.digest(it, result) != self.digests[it.index]:
            return f"item {it.index} ({it.kind}): report differs from the recorded digest"
        if it.kind == "sim":
            return self._check_sim(it, code, out, err)
        if it.kind == "witness":
            return self._check_witness(it, code, out, err)
        if code != 0 or "verdict: yes" not in out.splitlines():
            return f"check {it.argv[1:4]}: exit {code}, expected verdict yes {err.strip()}"
        return None

    def _check_sim(self, it, code, out, err):
        if code != 0:
            return f"sim exited {code}: {err.strip()}"
        states, outs = {}, {}
        for line in out.splitlines():
            key, _, rest = line.partition(": ")
            cubes = [c for c in rest.split(", ") if c]
            if key.startswith("states["):
                states[int(key[7:-1])] = cubes
            elif key.startswith("outputs["):
                outs[int(key[8:-1])] = cubes
        rows = _trace_states(it.out_file)
        if len(rows) != it.rounds + 1 or len(states) != it.rounds + 1:
            return f"sim {it.index}: expected {it.rounds + 1} rounds of states and trace"
        for t, s in enumerate(rows):
            if not any(state_in(c, s, it.m) for c in states[t]):
                return f"sim {it.index}: trace state {s} not in states[{t}]"
            if t and not any(contains(c, s[len(s) - it.n:]) for c in outs[t]):
                return f"sim {it.index}: trace output {s[-it.n:]} not in outputs[{t}]"
        return None

    def _check_witness(self, it, code, out, err):
        if code == 1 and not it.expect_witness \
                and "verdict: none (output sets overlap)" in out:
            return None
        if code != 0:
            return f"witness exited {code}: {err.strip()}{out.strip()}"
        rows = _trace_states(it.out_file)
        if len(rows) != it.rounds + 1 or "M" not in rows[-1][len(rows[-1]) - it.n:]:
            return f"witness {it.index}: trace does not end on an M output bit"
        return None


def _trace_states(path: str) -> list[str]:
    with open(path) as fh:
        return [line.split("|")[1].strip() for line in fh if line.strip()]


def record_digests(mc, workdir: str, count: int) -> None:
    """Write the reference digests of the first `count` sequential-sim
    items for the default seed."""
    wl = SequentialSim(mc, SequentialSim.DEFAULT_SEED, workdir)
    wl.digests = None
    out = []
    while len(out) < count:
        for it in wl.cycle():
            result = wl.run(it)
            out.append(wl.digest(it, result))   # check() removes the written file
            problem = wl.check(it, result)
            if problem:
                raise RuntimeError(problem)
    with open(DIGESTS, "w") as fh:
        json.dump({"seed": SequentialSim.DEFAULT_SEED, "digests": out[:count]}, fh,
                  indent=0)
        fh.write("\n")


# ---------------------------------------------------------------------------

@dataclass
class SelectItem:
    n: int
    f: int
    width: int
    readings: list              # strings
    words: list                 # the same, as mcsim words


class PipelineSelect:
    """clock_sync_select on seeded TDC reading sets against pipelines
    built in set-up: n 4-7, width 3 or 7, f = (n-1)//3, at most one
    boundary M per reading."""

    name = "pipeline-select"
    cap_s = 5.0
    CYCLE = ((4, 2), (5, 3), (6, 2), (7, 3), (4, 3), (7, 2), (5, 2), (6, 3),
             (4, 2), (7, 3))
    META_SHARE = 0.3

    def __init__(self, mc, seed: int, workdir: str):
        self.mc = mc
        self.rng = random.Random(f"{self.name}/{seed}")
        for n, k in sorted(set(self.CYCLE)):
            mc.components.build_pipeline(n, k, (n - 1) // 3)

    def cycle(self) -> list[SelectItem]:
        return [self._item(n, k) for n, k in self.CYCLE]

    def _item(self, n: int, k: int) -> SelectItem:
        rng, width = self.rng, (1 << k) - 1
        readings = []
        for _ in range(n):
            v = rng.randint(0, width)
            if v < width and rng.random() < self.META_SHARE:
                readings.append("1" * v + "M" + "0" * (width - v - 1))
            else:
                readings.append("1" * v + "0" * (width - v))
        word = self.mc.ternary_core.word
        return SelectItem(n, (n - 1) // 3, width, readings, [word(r) for r in readings])

    def run(self, it: SelectItem):
        return self.mc.components.clock_sync_select(it.n, it.f, it.words)

    def check(self, it: SelectItem, result):
        low, high = (str(w) for w in result)
        down = sorted(r.count("1") for r in it.readings)
        up = sorted(r.count("1") + ("M" in r) for r in it.readings)
        for label, got, pos in (("low", low, it.f), ("high", high, it.n - 1 - it.f)):
            if down == up:
                if got != tc_word(down[pos], it.width):
                    return f"{label} {got} for stable readings {it.readings}"
                continue
            try:
                vals = tc_values(got)
            except ValueError as e:
                return f"{label}: {e}"
            if max(vals) - min(vals) > 1 or not {down[pos], up[pos]} <= vals:
                return f"{label} {got} does not cover readings {it.readings}"
        return None


WORKLOADS = {w.name: w for w in (ClosureSynth, WideCheck, SequentialSim, PipelineSelect)}
