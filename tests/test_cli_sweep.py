"""A property sweep of the command line. The sequential commands (sim,
witness, check at r >= 2, unroll) run over random netlists, some with a
damaged line, and over random words, round counts (up to 10,000, far past
the rounds at which sim starts to replay) and budgets. The one-round
commands (closure, synth, check at r = 1, component, pipeline) run over
damaged truth and spec tables, component names with good and bad
parameters, and TDC readings. Table headers now and then carry an arity
up to 10^9, and now and then a file holds bytes that are not UTF-8. Every
run ends in an exit code, with a message for every failure, never a
traceback, a hang or unbounded memory: each runs under a wall-clock alarm
and an address-space limit."""

import contextlib
import io
import itertools
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import limited
from mcsim.cli import main

TYPES = ("simple", "mask0", "mask1")
KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "NOT", "BUF", "TABLE")
# tokens a damaged line may take in place of one of its own
JUNK = ("", "x", "M", "2", "-1", "init", "mask0", "AND", "TABLE:0110", "gate",
        "drive", "input", "i0", "l0", "o0", "g0")
# tokens a damaged table row or header may take in place of one of its own
TABLE_JUNK = ("", "x", "M", "2", "*", "->", ",", "0M", "1*", "01,", "spec", "table",
              "m=1", "n=1", "m=-1", "n=x", "m=", "m=40")
# byte runs that are not UTF-8: a lone continuation byte, a cut-off sequence,
# an overlong encoding, a surrogate, and bytes UTF-8 never uses
NOT_UTF8 = (b"\x80", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80", b"\xff\xfe")
# where a command writes: a file, or now and then the directory it runs in
OUT = st.sampled_from(("@out.txt",) * 5 + ("@",))
COMPONENTS = ("mux", "cmux1", "cmux-clocked", "fanout-buffer", "counter", "selector",
              "tc-to-brgc", "two-sort", "brgc-to-tc", "sorting-network", "sorter", "")


def damaged(draw, lines, junk, times):
    """lines with a drawn number of them hit: a token swapped for junk, the
    line dropped, or the line doubled."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from(times))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("token", "drop", "double")))
        if how == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(junk))
            lines[i] = " ".join(tokens)
        elif how == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return lines


@st.composite
def netlists(draw, types=TYPES):
    """Text, input count and output count of a random sequential circuit
    in the style of the benchmark's netlists: masked inputs, locals fed
    back, every register type; one in four has a damaged line or two."""
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 2))
    init = st.sampled_from("01M")
    lines = ["circuit sweep"]
    lines += [f"input i{j} {draw(st.sampled_from(types))}" for j in range(m)]
    lines += [f"local l{j} {draw(st.sampled_from(types))} init {draw(init)}" for j in range(k)]
    lines += [f"output o{j} {draw(st.sampled_from(types))} init {draw(init)}" for j in range(n)]
    avail = [f"i{j}" for j in range(m)] + [f"l{j}" for j in range(k)]
    for g in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(KINDS))
        arity = {"XOR": 2, "NOT": 1, "BUF": 1}.get(kind) or draw(st.integers(2, 3))
        if kind == "TABLE":
            kind += ":" + "".join(draw(st.lists(st.sampled_from("01"), min_size=1 << arity,
                                                max_size=1 << arity)))
        args = " ".join(draw(st.sampled_from(avail)) for _ in range(arity))
        lines.append(f"gate g{g} {kind} {args}")
        avail.append(f"g{g}")
    lines += [f"drive l{j} {draw(st.sampled_from(avail))}" for j in range(k)]
    lines += [f"drive o{j} {draw(st.sampled_from(avail))}" for j in range(n)]
    lines = damaged(draw, lines, JUNK, (0, 0, 0, 0, 0, 0, 1, 2))
    return "\n".join(lines) + "\n", m, n


def header(draw, kind, m, n):
    """A table header; one time in ten, m or n is drawn up to 10^9."""
    if draw(st.integers(0, 9)) == 0:
        big = draw(st.integers(0, 10**9))
        m, n = draw(st.sampled_from(((big, n), (m, big))))
    return f"{kind} m={m} n={n}"


@st.composite
def encoded(draw, invocation):
    """An invocation with its files as bytes, one file in twelve with a run
    of bytes that are not UTF-8 spliced in."""
    files, argv = draw(invocation)
    out = {}
    for name, text in files.items():
        data = text.encode()
        if draw(st.integers(0, 11)) == 0:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
        out[name] = data
    return out, argv


def words(m):
    """A word for m inputs, now and then of the wrong width or with a bad digit."""
    good = st.text("01M", min_size=m, max_size=m)
    return st.one_of(*[good] * 9, st.text("01M2x", max_size=m + 1).filter(bool))


def spec_table(head, m, rows):
    """A general spec table over every m-digit input, one row per input."""
    inputs = ("".join(d) for d in itertools.product("01M", repeat=m))
    return f"{head}\n" + "".join(f"{x} -> {rhs}\n" for x, rhs in zip(inputs, rows))


@st.composite
def invocations(draw):
    """Files to write, and a command line that names them with a leading @."""
    command = draw(st.sampled_from(("sim", "sim-trace", "witness", "check", "unroll")))
    # unroll takes simple registers only
    text, m, n = draw(netlists(("simple",) if command == "unroll" else TYPES))
    budget = draw(st.none() | st.integers(-3, 40) | st.integers(0, 3000))
    files = {"c.net": text}
    if command.startswith("sim"):
        rounds = st.integers(-1, 8) | st.integers(-1, 10_000)
        argv = ["sim", "@c.net", draw(words(m)), str(draw(rounds))]
        if command == "sim-trace":
            argv += ["--trace", draw(OUT)]
    elif command == "witness":
        argv = ["witness", "@c.net", draw(words(m)), draw(words(m)),
                str(draw(st.integers(0, 6) | st.integers(1, 6))), "-o", draw(OUT)]
    elif command == "check":
        cube = st.text("01M", min_size=n, max_size=n)
        rows = draw(st.lists(st.lists(cube, min_size=1, max_size=3).map(", ".join),
                             min_size=3 ** m, max_size=3 ** m))
        files["f.spec"] = spec_table(header(draw, "spec", m, n), m, rows)
        argv = ["check", "@c.net", "@f.spec", str(draw(st.integers(2, 4)))]
    else:
        argv = ["unroll", "@c.net", str(draw(st.integers(-1, 5)))]
        budget = None
    if budget is not None:
        argv += ["--max-states", str(budget)]
    return files, argv


def run_in(directory, files, argv):
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
    argv = [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:     # argparse rejects the command line
            code = e.code
    return code, out.getvalue(), err.getvalue()


def ends_in_an_exit_code(files, argv):
    with tempfile.TemporaryDirectory() as directory:
        with limited(argv):
            code, out, err = run_in(directory, files, argv)
        left = [name for name in os.listdir(directory) if name.endswith(".tmp")]
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert left == [], (argv, left)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith(("error: ", "usage: ")), err
    if "--max-states" in argv and int(budget := argv[argv.index("--max-states") + 1]) < 0:
        assert (code, err) == (2, f"error: --max-states must be at least 0, not {budget}\n")


@settings(max_examples=200, deadline=None)
@given(encoded(invocations()))
def test_sequential_commands_end_in_an_exit_code(case):
    ends_in_an_exit_code(*case)


@st.composite
def truth_tables(draw):
    """A Boolean truth table over m <= 3 inputs, damaged one time in two."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    rows = [f"{''.join(x)} -> {draw(st.text('01', min_size=n, max_size=n))}"
            for x in itertools.product("01", repeat=m)]
    return "\n".join(damaged(draw, [header(draw, "table", m, n)] + rows, TABLE_JUNK,
                             (0, 0, 1, 2, 3))) + "\n"


@st.composite
def spec_tables(draw, m, n):
    """A natural (*) or general (cube list) spec table, now and then with a
    row in the other style, damaged one time in two."""
    def rhs(natural):
        if natural:
            return draw(st.text("01*", min_size=n, max_size=n))
        cube = st.text("01M", min_size=n, max_size=n)
        return ", ".join(draw(st.lists(cube, min_size=1, max_size=3)))
    natural = draw(st.booleans())
    inputs = ["".join(x) for x in itertools.product("01M", repeat=m)]
    flipped = draw(st.sampled_from([None] * 3 + inputs))
    rows = [f"{x} -> {rhs(natural is (x != flipped))}" for x in inputs]
    return "\n".join(damaged(draw, [header(draw, "spec", m, n)] + rows, TABLE_JUNK,
                             (0, 0, 1, 2, 3))) + "\n"


def tdc_reading(width):
    """Ones, at most one M, zeros; now and then any word or a bad digit."""
    good = st.integers(0, width).flatmap(lambda ones: st.integers(0, int(ones < width)).map(
        lambda meta: "1" * ones + "M" * meta + "0" * (width - ones - meta)))
    return st.one_of(*[good] * 24, st.text("01M", min_size=width, max_size=width),
                     st.text("01M2x", max_size=width + 1))


@st.composite
def one_round_invocations(draw):
    """Files to write, and a one-round command line that names them."""
    command = draw(st.sampled_from(("closure", "synth", "check", "component", "pipeline")))
    files = {}
    if command == "closure":
        files["t.table"] = draw(truth_tables())
        argv = ["closure", "@t.table"]
    elif command == "synth":
        files["f.spec"] = draw(spec_tables(draw(st.integers(0, 3)), draw(st.integers(0, 2))))
        argv = ["synth", "@f.spec"]
        budget = draw(st.none() | st.integers(-3, 40))
        if budget is not None:
            argv += ["--max-states", str(budget)]
    elif command == "check":
        files["c.net"], m, n = draw(netlists())
        files["f.spec"] = draw(spec_tables(m, n))
        argv = ["check", "@c.net", "@f.spec", "1"]
    elif command == "component":
        name = draw(st.sampled_from(COMPONENTS))
        arity = 0 if "mux" in name else 2 if name == "sorting-network" else 1
        number = st.integers(1, 8) | st.integers(-2, 130)
        param = number.map(str) | st.sampled_from(("x", "1.5", "", "-", "0x3", "2e1"))
        params = st.lists(number.map(str), min_size=arity, max_size=arity)
        argv = ["component", name, *draw(params | st.lists(param, max_size=3))]
    else:
        width = draw(st.sampled_from((1, 3, 7, 1, 3, 7, 2)))
        n = draw(st.integers(1, 8))
        faults = st.integers(0, (n - 1) // 3) | st.integers(-1, 3)
        argv = ["pipeline", *draw(st.lists(tdc_reading(width), min_size=n, max_size=n)),
                "--faults", str(draw(faults))]
    if command in ("closure", "synth") and draw(st.booleans()):
        argv += ["-o", draw(OUT)]
    if command in ("component", "pipeline") and draw(st.booleans()):
        argv += ["--emit", draw(st.sampled_from(("netlist", "report")))]
    return files, argv


@settings(max_examples=200, deadline=None)
@given(encoded(one_round_invocations()))
def test_one_round_commands_end_in_an_exit_code(case):
    ends_in_an_exit_code(*case)
