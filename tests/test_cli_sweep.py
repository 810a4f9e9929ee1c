"""A property sweep of the sequential commands (sim, witness, check at
r >= 2, unroll) over random netlists, some with a damaged line, and over
random words, round counts and budgets. Every run ends in an exit code,
with a message for every failure, never a traceback or a hang."""

import contextlib
import io
import itertools
import os
import tempfile
import time

from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcsim.cli import main

TYPES = ("simple", "mask0", "mask1")
KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "NOT", "BUF", "TABLE")
# tokens a damaged line may take in place of one of its own
JUNK = ("", "x", "M", "2", "-1", "init", "mask0", "AND", "TABLE:0110", "gate",
        "drive", "input", "i0", "l0", "o0", "g0")
WALL_S = 2.0


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
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 0, 0, 1, 2)))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("token", "drop", "double")))
        if how == "token":
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK))
            lines[i] = " ".join(tokens)
        elif how == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n", m, n


def words(m):
    """A word for m inputs, now and then of the wrong width or with a bad digit."""
    good = st.text("01M", min_size=m, max_size=m)
    return st.one_of(*[good] * 9, st.text("01M2x", max_size=m + 1).filter(bool))


def spec_table(m, n, rows):
    """A general spec table over every m-digit input, one row per input."""
    inputs = ("".join(d) for d in itertools.product("01M", repeat=m))
    return f"spec m={m} n={n}\n" + "".join(f"{x} -> {rhs}\n" for x, rhs in zip(inputs, rows))


@st.composite
def invocations(draw):
    """Files to write, and a command line that names them with a leading @."""
    command = draw(st.sampled_from(("sim", "sim-trace", "witness", "check", "unroll")))
    # unroll takes simple registers only
    text, m, n = draw(netlists(("simple",) if command == "unroll" else TYPES))
    budget = draw(st.none() | st.integers(0, 40) | st.integers(0, 3000))
    files = {"c.net": text}
    if command.startswith("sim"):
        argv = ["sim", "@c.net", draw(words(m)), str(draw(st.integers(-1, 8)))]
        if command == "sim-trace":
            argv += ["--trace", "@run.trace"]
    elif command == "witness":
        argv = ["witness", "@c.net", draw(words(m)), draw(words(m)),
                str(draw(st.integers(0, 6) | st.integers(1, 6))), "-o", "@w.trace"]
    elif command == "check":
        cube = st.text("01M", min_size=n, max_size=n)
        rows = draw(st.lists(st.lists(cube, min_size=1, max_size=3).map(", ".join),
                             min_size=3 ** m, max_size=3 ** m))
        files["f.spec"] = spec_table(m, n, rows)
        argv = ["check", "@c.net", "@f.spec", str(draw(st.integers(2, 4)))]
    else:
        argv = ["unroll", "@c.net", str(draw(st.integers(-1, 5)))]
        budget = None
    if budget is not None:
        argv += ["--max-states", str(budget)]
    return files, argv


def run_in(directory, files, argv):
    for name, text in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
    argv = [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:     # argparse rejects the command line
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_sequential_commands_end_in_an_exit_code(case):
    files, argv = case
    with tempfile.TemporaryDirectory() as directory:
        start = time.perf_counter()
        code, out, err = run_in(directory, files, argv)
        spent = time.perf_counter() - start
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith(("error: ", "usage: ")), err
    assert spent < WALL_S, (argv, spent)
