"""Command-line front end: reports, artifacts, exit codes."""

import argparse
import ast
import contextlib
import importlib
import io
import inspect
import os
import random
import subprocess
import sys
import time
import types
from collections import Counter
from unittest import mock

import pytest

from conftest import (FEEDBACK_TEXT, all_words, frontiers, full_parse_main, limited,
                      reference_parser, scalar_state_cube_contains)
from mcsim.analysis import emit_spec_table, unroll
from mcsim import cli, components, executor, netlist
from mcsim.cli import COMPONENTS, build_parser, main
from mcsim.components import (
    build_counter,
    build_fanout_buffer,
    build_mux,
    build_cmux_combinational,
    cmux_spec,
    mux_spec,
)
from mcsim.executor import (
    output_cubes,
    outputs,
    parse_trace,
    reach,
    run_trace,
    trace_check,
)
from mcsim.netlist import emit_netlist, parse_netlist, validate
from mcsim.ternary_core import DEFAULT_MAX_STATES, TernaryWord, word

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
AND_TABLE = "table m=2 n=1\n00 -> 0\n01 -> 0\n10 -> 0\n11 -> 1\n"

AND_CLOSURE_SPEC = """\
spec m=2 n=1
00 -> 0
01 -> 0
0M -> 0
10 -> 0
11 -> 1
1M -> *
M0 -> 0
M1 -> *
MM -> *
"""

BUF_NET = """\
circuit buf
input I simple
output O simple init 0
gate g BUF I
drive O g
"""

CONST_NET = """\
circuit always_zero
input I simple
output O simple init 0
gate g CONST0
drive O g
"""


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def workspace(tmp_path):
    def save(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return save


@pytest.fixture
def fig4_path(workspace):
    return workspace("fig4.net", FEEDBACK_TEXT)


class TestSim:
    def test_frozen_report(self, capsys, fig4_path):
        rc, out, _ = run(capsys, ["sim", fig4_path, "MM", "2"])
        assert rc == 0
        assert out == ("command: sim\n"
                       "circuit: or_and_feedback\n"
                       "input: MM\n"
                       "rounds: 2\n"
                       "max states: 1000000\n"
                       "states[0]: MM11\n"
                       "states[1]: 1MMM, MMMM\n"
                       "states[2]: 1MMM, MMMM\n"
                       "outputs[1]: M\n"
                       "outputs[2]: M\n"
                       "peak state cubes: 2\n")

    def test_round_four_states_cover_the_replayed_state(self, capsys,
                                                        fig4_path):
        rc, out, _ = run(capsys, ["sim", fig4_path, "MM", "4"])
        assert rc == 0
        line = next(l for l in out.splitlines()
                    if l.startswith("states[4]:"))
        cubes = [word(t.strip())
                 for t in line.split(":", 1)[1].split(",")]
        assert any(scalar_state_cube_contains(2, c, word("1M11")) for c in cubes)

    def test_stable_input_gives_singleton_outputs(self, capsys, fig4_path):
        rc, out, _ = run(capsys, ["sim", fig4_path, "00", "3"])
        assert rc == 0
        for line in out.splitlines():
            if line.startswith("outputs["):
                assert "," not in line
                assert len(line.split(":", 1)[1].split()) == 1

    def test_trace_file_is_replayable(self, capsys, fig4_path, tmp_path):
        tp = tmp_path / "run.trace"
        rc, out, _ = run(capsys, ["sim", fig4_path, "MM", "4",
                                  "--trace", str(tp)])
        assert rc == 0
        assert f"trace written: {tp}" in out
        t = parse_trace(tp.read_text())
        assert len(t.rounds) == 5
        assert trace_check(parse_netlist(FEEDBACK_TEXT), t)

    def test_deterministic_bytes(self, capsys, fig4_path):
        _, first, _ = run(capsys, ["sim", fig4_path, "M0", "3"])
        _, again, _ = run(capsys, ["sim", fig4_path, "M0", "3"])
        assert first == again

    def test_twenty_meta_bits_exhaust_the_budget(self, capsys, workspace):
        lines = ["circuit wide"]
        lines += [f"input I{i} mask0" for i in range(20)]
        lines += ["output O simple init 0", "gate g OR I0 I1", "drive O g"]
        path = workspace("wide.net", "\n".join(lines) + "\n")
        rc, _, err = run(capsys, ["sim", path, "M" * 20, "1"])
        assert rc == 3
        assert "budget" in err

    def test_bad_word_is_an_input_error(self, capsys, fig4_path):
        rc, _, err = run(capsys, ["sim", fig4_path, "2M", "1"])
        assert rc == 2
        assert "error:" in err

    def test_missing_file_is_an_input_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["sim", str(tmp_path / "nope.net"),
                                  "0", "1"])
        assert rc == 2
        assert "cannot read" in err

    def test_negative_rounds_rejected(self, capsys, fig4_path):
        rc, _, _ = run(capsys, ["sim", fig4_path, "MM", "-1"])
        assert rc == 2

    def test_round_count_above_the_state_cap_is_a_budget_error(self, capsys, workspace):
        path = workspace("buf.net", BUF_NET)
        start = time.perf_counter()
        rc, out, err = run(capsys, ["sim", path, "M", "100000000", "--max-states", "1000"])
        assert time.perf_counter() - start < 1
        assert (rc, out) == (3, "")
        assert err == ("error: 100000000 rounds exceed the state budget of 1000; "
                       "raise the max-states cap\n")

    @pytest.mark.parametrize("command", ["sim", "check", "synth", "witness"])
    @pytest.mark.parametrize("cap", ["-1", "-1000000000000"])
    def test_a_negative_state_cap_is_an_input_error(self, capsys, workspace, command, cap):
        net = workspace("buf.net", BUF_NET)
        spec = workspace("and.spec", AND_CLOSURE_SPEC)
        argv = {"sim": ["sim", net, "M", "5"], "check": ["check", net, spec, "2"],
                "synth": ["synth", spec], "witness": ["witness", net, "0", "1", "2"]}[command]
        rc, out, err = run(capsys, argv + ["--max-states", cap])
        assert (rc, out, err) == (2, "", f"error: --max-states must be at least 0, not {cap}\n")

    @pytest.mark.parametrize("rounds,cap", [("64", "100000"), ("64", "64"), ("0", "0")])
    def test_round_counts_up_to_the_state_cap_still_run(self, capsys, workspace,
                                                       rounds, cap):
        path = workspace("buf.net", BUF_NET)
        rc, out, err = run(capsys, ["sim", path, "M", rounds, "--max-states", cap])
        assert (rc, err) == (0, "")
        assert f"states[{rounds}]: " in out

    def test_every_round_line_equals_the_library(self, capsys, workspace,
                                                 corpus_mixed, corpus_masked_locals):
        # rounds run three times past the frontier walk's first repeat,
        # from where the report replays the lines of earlier rounds
        for c in [parse_netlist(FEEDBACK_TEXT)] + corpus_mixed[:8] + corpus_masked_locals:
            path = workspace("c.net", emit_netlist(c))
            for iota in all_words(c.m):
                rounds = 3 * len(frontiers(c, iota, 10 ** 6)[0]) + 5
                walk = [reach(c, iota, t) for t in range(rounds + 1)]
                want = ["command: sim", f"circuit: {c.name}", f"input: {iota}",
                        f"rounds: {rounds}", f"max states: {DEFAULT_MAX_STATES}"]
                want += [f"states[{t}]: {', '.join(map(str, s))}"
                         for t, s in enumerate(walk)]
                want += [f"outputs[{t}]: {', '.join(map(str, output_cubes(c, s)))}"
                         for t, s in enumerate(walk) if t]
                want.append(f"peak state cubes: {max(map(len, walk))}")
                rc, out, _ = run(capsys, ["sim", path, str(iota), str(rounds)])
                assert (rc, out) == (0, "\n".join(want) + "\n"), (c.name, iota)

    def test_the_report_builds_no_word_per_cube(self, capsys, workspace, corpus_mixed,
                                                corpus_masked_locals, monkeypatch):
        # without --trace the report is written from the packed frontiers: the words
        # a command builds do not grow with its rounds or its frontiers' cubes
        made, init = Counter(), TernaryWord.__init__

        def counted(self, *args):
            made["words"] += 1
            init(self, *args)
        counts, peaks = Counter(), set()
        for c in [parse_netlist(FEEDBACK_TEXT)] + corpus_mixed[:8] + corpus_masked_locals[:8]:
            path = workspace(f"{c.name}.net", emit_netlist(c))
            for iota in all_words(c.m)[:9]:
                for rounds in (0, 1, 4, 40):
                    argv = ["sim", path, str(iota), str(rounds)]
                    assert run(capsys, argv)[0] == 0   # parses the netlist, if not kept
                    monkeypatch.setattr(TernaryWord, "__init__", counted)
                    made.clear()
                    rc, out, _ = run(capsys, argv)
                    monkeypatch.setattr(TernaryWord, "__init__", init)
                    assert rc == 0
                    counts[made["words"]] += 1
                    peaks.add(int(out.rsplit("peak state cubes: ", 1)[1]))
        assert len(peaks) >= 4 and max(peaks) >= 6, peaks
        assert list(counts) == [1], counts     # the input word

    def test_work_stops_growing_once_the_walk_is_periodic(self, capsys, fig4_path,
                                                           tmp_path, monkeypatch):
        # past the round at which both the frontier walk and the trace have
        # repeated, further rounds are replays: they look up and evaluate nothing
        c, iota = parse_netlist(FEEDBACK_TEXT), word("MM")
        states = [row.state for row in run_trace(c, iota, 1000).rounds]
        trace_repeat = next(t for t, s in enumerate(states) if s in states[:t])
        short = max(len(frontiers(c, iota, 1000)[0]), trace_repeat) + 1
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)
        # the sim walk and the trace look read words up through executor's name,
        # and a word the memo lacks runs the plan through netlist's
        counted(executor, "eval_memo")
        counted(netlist, "_run")
        counted(executor, "_successor_cubes")
        work = {}
        for rounds in (short, 1000):
            calls.clear()
            cli._parsed.cache_clear()   # a fresh parse: its DAG's memo starts empty
            rc, _, _ = run(capsys, ["sim", fig4_path, "MM", str(rounds),
                                    "--trace", str(tmp_path / "t.trace")])
            assert rc == 0
            work[rounds] = dict(calls)
        assert work[short] == work[1000]
        assert work[short]["eval_memo"] > work[short]["_successor_cubes"] > 0
        assert work[short]["eval_memo"] > work[short]["_run"] > 0


class TestOutOfMemory:
    """A MemoryError, say from `mc synth` on a table too wide for the host,
    ends in one error line and the resource-limit exit code 3."""

    @staticmethod
    def exhausted(*args):
        raise MemoryError

    def test_a_command_out_of_memory_exits_3(self, capsys, monkeypatch, workspace):
        monkeypatch.setattr(cli.analysis, "synthesize", self.exhausted)
        rc, out, err = run(capsys, ["synth", workspace("and.spec", AND_CLOSURE_SPEC)])
        assert (rc, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("error: out of memory")

    def test_a_write_out_of_memory_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "and.tab").write_text(AND_TABLE)
        monkeypatch.setattr(cli.os, "replace", self.exhausted)
        rc, out, err = run(capsys, ["closure", str(tmp_path / "and.tab"),
                                    "-o", str(tmp_path / "and.spec")])
        assert (rc, out, err.count("\n")) == (3, "", 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["and.tab"]


class TestClosedStdout:
    SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

    def test_a_closed_pipe_exits_2_with_one_error_line(self, workspace):
        # like `mc sim fb.net M 100000 | head -1`
        fb = workspace("fb.net", emit_netlist(build_fanout_buffer(2)))
        proc = subprocess.Popen([sys.executable, "-m", "mcsim.cli", "sim", fb, "M", "100000"],
                                env=dict(os.environ, PYTHONPATH=self.SRC), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), first) == (2, "command: sim\n")
        assert err == "error: cannot write the report: Broken pipe\n"

    def test_no_stdout_at_all_is_still_a_pass(self, workspace):
        # like `mc sim fb.net M 3 >&-`: Python sets sys.stdout to None
        fb = workspace("fb.net", emit_netlist(build_fanout_buffer(2)))
        done = subprocess.run([sys.executable, "-m", "mcsim.cli", "sim", fb, "M", "3"],
                              env=dict(os.environ, PYTHONPATH=self.SRC), text=True,
                              stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
                              timeout=60)
        assert (done.returncode, done.stderr) == (0, "")


class TestFilesThatCannotBeReadOrWritten:
    """Each ends in one error line and exit 2 under the CLI sweep's time and
    memory limits, and leaves no .tmp file behind."""

    @staticmethod
    def run_limited(capsys, tmp_path, argv):
        with limited(argv):
            rc = main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
        captured = capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
        return rc, captured.out, captured.err

    def test_a_file_that_is_not_utf8(self, capsys, tmp_path):
        (tmp_path / "bad.net").write_bytes(b"\xff\xfe")
        got = self.run_limited(capsys, tmp_path, ["sim", "@bad.net", "0", "1"])
        assert got == (2, "", f"error: cannot read {tmp_path / 'bad.net'}: 'utf-8' codec "
                              "can't decode byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("argv,header", [
        (["closure", "@t.tab"], "table m=3000000 n=1"),
        (["check", "@buf.net", "@t.tab", "1"], "spec m=100000 n=1"),
        (["synth", "@t.tab"], "spec m=1000000000 n=1")])
    def test_a_header_arity_no_table_can_list(self, capsys, tmp_path, argv, header):
        (tmp_path / "t.tab").write_text(header + "\n")
        (tmp_path / "buf.net").write_text(BUF_NET)
        got = self.run_limited(capsys, tmp_path, argv)
        assert got == (2, "", "error: line 1: bad arity in header\n")

    @pytest.mark.parametrize("argv", [
        ["closure", "@and.tab", "-o"], ["synth", "@and.spec", "-o"],
        ["unroll", "@buf.net", "1", "-o"], ["witness", "@buf.net", "0", "1", "1", "-o"],
        ["sim", "@buf.net", "0", "1", "--trace"]])
    def test_a_directory_as_the_output(self, capsys, tmp_path, argv):
        for name, text in (("and.tab", AND_TABLE), ("and.spec", AND_CLOSURE_SPEC),
                           ("buf.net", BUF_NET)):
            (tmp_path / name).write_text(text)
        (tmp_path / "out").mkdir()
        got = self.run_limited(capsys, tmp_path, argv + ["@out"])
        assert got == (2, "", f"error: cannot write {tmp_path / 'out'}: Is a directory\n")


class TestWrittenFiles:
    @pytest.mark.parametrize("argv,out", [
        (["closure", "@and.tab", "-o", "@out.spec"], "out.spec"),
        (["sim", "@buf.net", "M", "2", "--trace", "@run.trace"], "run.trace")],
        ids=["-o", "--trace"])
    def test_an_existing_tmp_file_is_left_alone(self, capsys, tmp_path, argv, out):
        (tmp_path / "and.tab").write_text(AND_TABLE)
        (tmp_path / "buf.net").write_text(BUF_NET)
        (tmp_path / f"{out}.tmp").write_bytes(b"notes\n")
        umask = os.umask(0o022)
        try:
            rc, _, err = run(capsys, [str(tmp_path / a[1:]) if a.startswith("@") else a
                                      for a in argv])
        finally:
            os.umask(umask)
        assert (rc, err) == (0, "")
        assert (tmp_path / f"{out}.tmp").read_bytes() == b"notes\n"
        assert (tmp_path / out).stat().st_mode & 0o777 == 0o644
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["and.tab", "buf.net", out, f"{out}.tmp"])


def args_read(fn, callers=()):
    """The args.<dest> names fn reads, itself or through a cli function it
    hands args to."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(getattr(a, "id", None) == "args" for a in node.args)):
            callee = getattr(cli, node.func.id)
            if callee not in callers + (fn,):
                names |= args_read(callee, callers + (fn,))
    return names


class TestParserReuse:
    def test_every_argument_is_read_by_its_command(self):
        # no flag is accepted and then ignored
        sub, = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        for command, p in sub.choices.items():
            defined = {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
            assert defined - args_read(p.get_default("func")) == set(), command

    def test_a_second_call_keeps_nothing_of_the_first(self, capsys, fig4_path, tmp_path):
        import os
        import subprocess
        import sys
        tp = tmp_path / "p.trace"
        rc, out, _ = run(capsys, ["sim", fig4_path, "MM", "3", "--trace", str(tp)])
        assert rc == 0 and f"trace written: {tp}" in out
        tp.unlink()
        second = run(capsys, ["sim", fig4_path, "MM", "3"])
        assert not tp.exists() and "trace" not in second[1]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        fresh = subprocess.run([sys.executable, "-m", "mcsim.cli", "sim", fig4_path, "MM", "3"],
                               env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                               text=True)
        assert second == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert build_parser() is build_parser()


COMMANDS = ["sim", "check", "closure", "synth", "unroll", "witness", "component", "pipeline"]


def argv_corpus(net, spec, table, out):
    """Well-formed and malformed argvs of every command, each writing at most out."""
    sim = ["sim", net, "M", "3"]
    corpus = [[], ["-h"], ["--help"], ["--he"], ["-x"], ["--"], [""], ["bogus"], ["si"],
              ["si", net, "M", "3"], ["Sim", net, "M", "3"], ["sim "], ["-h", "sim"],
              ["--", *sim], ["--max-states", "5", *sim], ["--", "--", *sim]]
    corpus += [[c] for c in COMMANDS] + [[c, "-h"] for c in COMMANDS]
    corpus += [[c, "--help", "x", "-y"] for c in COMMANDS] + [[c, "--he"] for c in COMMANDS]
    corpus += [sim, sim[:2], sim[:3], sim + ["4"], sim + ["4", "5"], sim + ["-h"],
               sim + ["--max", "9"], sim + ["--max-st", "5"], sim + ["--he"],
               sim + ["--max-states=-1"], sim + ["--max-states", "-1"], sim + ["--max-states"],
               sim + ["--max-states", "x"], sim + ["--max-states=7", "--max-states", "8"],
               sim + ["--max-states", "2"], sim + ["--bogus"], sim + ["-o", out], sim + ["--"],
               sim + ["--trace", out], sim + ["--trace=" + out], sim + ["--tr", out],
               sim + ["--", "-1"], sim + ["--trace"], sim + ["x", "--trace", out],
               ["sim", "--", net, "M", "3"], ["sim", net, "--", "M", "3"],
               ["sim", net, "M", "--", "3"], ["sim", "--max", "9", net, "M", "3"],
               ["sim", net, "M", "-1"], ["sim", net, "M", "-3", "--max-states", "5"],
               ["sim", net, "M", "--", "-1"], ["sim", net, "-M", "3"], ["sim", net, "M", "3.5"],
               ["sim", net, "M", "0x3"], ["sim", net, "MM", "3"], ["sim", net, "M", "0"],
               ["sim", net + "-missing", "M", "3"], ["sim", net, "M", "3", "--trace", out, "-1"]]
    corpus += [["check", net, spec, "2"], ["check", net, spec, "-1"], ["check", net, spec],
               ["check", net, spec, "2", "extra"], ["check", net, spec, "2", "--trace", out],
               ["check", net, spec, "2", "--max", "1"], ["check", net, table, "1"],
               ["witness", net, "0", "1", "2"], ["witness", net, "0", "0", "2"],
               ["witness", net, "0", "1", "-2"],
               ["witness", net, "0", "1", "2", "-o", out], ["witness", net, "0", "1"],
               ["witness", net, "0", "1", "2", "3"], ["witness", net, "0", "1", "2", "--o", out],
               ["closure", table], ["closure", table, "-o", out], ["closure", table, "--out=" + out],
               ["closure", table, "--max-states", "3"], ["closure", table, table],
               ["synth", spec], ["synth", spec, "--max", "3"], ["synth", spec, "-o"],
               ["synth", spec, "-o", out, "--max-states", "-2"],
               ["unroll", net, "2"], ["unroll", net, "-2"], ["unroll", net, "2", "-o", out],
               ["unroll", net], ["unroll", net, "two"]]
    corpus += [["component", "mux"], ["component", "mux", "--emit", "netlist"],
               ["component", "mux", "--emit", "text"], ["component", "mux", "--emit=bogus"],
               ["component", "mux", "--em", "netlist"], ["component", "mux", "--emit"],
               ["component", "counter", "-1"], ["component", "counter", "3", "--", "-1"],
               ["component", "counter", "--", "3"], ["component", "nope", "1"],
               ["pipeline", "10", "11", "01", "--faults", "0"], ["pipeline", "--faults", "1"],
               ["pipeline", "10", "--faults", "0", "--emit", "bogus"], ["pipeline", "10", "11"],
               ["pipeline", "10", "11", "--faults", "x"], ["pipeline", "-1", "--faults", "0"],
               ["pipeline", "1M0", "100", "110", "111", "--faults", "1"],
               ["pipeline", "1M0", "100", "110", "111", "--faults", "1", "--emit", "netlist"]]
    return corpus


def outcome(capsys, main_fn, argv, out):
    """main_fn(argv)'s exit code, stdout, stderr and the text it wrote to out, if any."""
    try:
        rc = main_fn(argv)
    except SystemExit as e:
        rc = e.code
    captured, written = capsys.readouterr(), None
    if os.path.exists(out):
        with open(out) as fh:
            written = fh.read()
        os.remove(out)
    return rc, captured.out, captured.err, written


class TestArgvParse:
    """A plain command line is read from the command table; anything else goes through the
    top-level parser's parse_args, once, as every argv once did."""

    @pytest.fixture
    def corpus(self, workspace, tmp_path):
        out = str(tmp_path / "out.txt")
        return argv_corpus(workspace("buf.net", BUF_NET), workspace("and.spec", AND_CLOSURE_SPEC),
                           workspace("and.table", AND_TABLE), out), out

    def test_every_argv_ends_as_the_full_parse_does(self, capsys, corpus):
        argvs, out = corpus
        codes = Counter()
        for argv in argvs:
            got = outcome(capsys, main, argv, out)
            assert got == outcome(capsys, full_parse_main, argv, out), argv
            codes[got[0]] += 1
        assert set(codes) == {0, 1, 2, 3} and codes[0] > 20 and codes[2] > 50, codes

    def test_a_plain_argv_builds_no_parser_and_any_other_takes_one_pass(self, capsys,
                                                                        monkeypatch, corpus):
        argvs, out = corpus
        plain = [a for a in argvs if subparser_reading(a) is not None and plain_shape(a)]
        assert 5 <= len(plain) < len(argvs) - 100
        build_parser.cache_clear()
        with mock.patch.object(cli, "build_parser", wraps=build_parser) as built:
            for argv in plain:
                outcome(capsys, main, argv, out)
            assert built.call_count == 0 and build_parser.cache_info().currsize == 0
        parser, passes = build_parser(), []
        for name in ("parse_args", "parse_known_args"):
            def counted(*args, name=name, method=getattr(parser, name)):
                passes.append(name)
                return method(*args)
            monkeypatch.setattr(parser, name, counted)
        for argv in argvs:   # a command's own parser is reached only through the top level
            outcome(capsys, main, argv, out)
            assert passes == ([] if argv in plain else ["parse_args", "parse_known_args"]), argv
            passes.clear()


def action_fields(action):
    """What an argparse action is: its kind, flags, dest, conversion, default, arity, choices
    (a subparsers action's by name), whether it is required, and its help."""
    choices = list(action.choices) if isinstance(action.choices, dict) else action.choices
    return (type(action).__name__, action.option_strings, action.dest, action.type,
            action.default, action.nargs, choices, action.required, action.help)


def subparsers(parser):
    """parser's command name -> subparser map, found through its subparsers action."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def subparser_reading(argv):
    """vars() of what the reference parser's subparser for argv[0] makes of argv[1:], or None
    when argv names no command, or the subparser exits or leaves arguments over."""
    own = argv and reference_parser().commands.get(argv[0])
    if not own:
        return None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = own.parse_known_args(argv[1:])
        except SystemExit:
            return None
    return None if extra else vars(args)


def plain_shape(argv):
    """Whether argv is plain by the reference subparser's own actions: every token from "-"
    is one of its one-value option strings, followed by a token that is not, and the rest
    are as many as its positionals, none of them variadic."""
    own = reference_parser().commands[argv[0]]
    positionals = [a for a in own._actions if not a.option_strings]
    if any(a.nargs is not None for a in positionals):
        return False
    tokens, given = iter(argv[1:]), 0
    for token in tokens:
        if token[:1] != "-":
            given += 1
        else:   # help's nargs is 0
            action = own._option_string_actions.get(token)
            if action is None or action.nargs is not None or next(tokens, "-")[:1] == "-":
                return False
    return given == len(positionals)


def generated_argvs(rng, net, spec, table, out, count):
    """Seeded argvs for every command: positionals good and bad, too few or too many; the
    command's options, others' options, abbreviations, --opt=v, "-", "--", "", -h and values
    from "-", before, between and after the positionals, repeated now and then."""
    values = {"netlist": [net], "spec": [spec], "table": [table], "input": ["M", "01", "-M"],
              "input2": ["1"], "rounds": ["3", "0", "-1", "x", "3.5", "", "+2", "1_0", " 4"],
              "name": ["mux", "counter", "nope"], "params": ["3", "-1"],
              "readings": ["10", "11", "1M"]}
    junk = ["--max-st", "--tr", "--ou", "--em", "--max-states=5", "--trace=" + out,
            "--out=" + out, "--emit=netlist", "-o" + out, "-h", "--help", "--", "-", "",
            "-x", "--bogus", "-1", "--faults", "--emit", "-o", "--trace", "--max-states"]
    option_values = [out, "5", "0", "-5", "x", "netlist", "report", "bogus", "", "-", "--"]
    for _ in range(count):
        command = rng.choice(list(cli.COMMANDS) + ["bogus"])
        if command == "bogus":
            yield [command, net]
            continue
        own = reference_parser().commands[command]
        argv = [rng.choice(values[a.dest]) for a in own._actions if not a.option_strings]
        if rng.random() < 0.2:
            argv.pop(rng.randrange(len(argv)))
        if rng.random() < 0.2:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(["extra", "7"]))
        options = [f for a in own._actions if a.option_strings and a.nargs is None
                   for f in a.option_strings]
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
            flag = rng.choice(options) if rng.random() < 0.8 else rng.choice(junk)
            pair = [flag] if rng.random() < 0.1 else [flag, rng.choice(
                option_values if rng.random() < 0.3 else option_values[:3])]
            at = rng.randrange(len(argv) + 1)
            argv[at:at] = pair
        yield [command] + argv


class TestCommandTable:
    """cli.COMMANDS builds today's parser, and reads a plain command line as that parser does."""

    @pytest.mark.parametrize("columns", ["40", "100"])
    def test_the_table_builds_the_reference_parser(self, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        built, want = build_parser(), reference_parser()
        commands = subparsers(built)
        assert list(commands) == list(want.commands) == list(cli.COMMANDS)
        for got, ref in [(built, want)] + [(commands[c], want.commands[c]) for c in want.commands]:
            assert got.prog == ref.prog and got._defaults == ref._defaults
            assert got.format_usage() == ref.format_usage()
            assert got.format_help() == ref.format_help()
            assert list(map(action_fields, got._actions)) == list(map(action_fields, ref._actions))

    def test_a_plain_argv_reads_as_its_subparser_does(self, workspace, tmp_path):
        out = str(tmp_path / "out.txt")
        files = (workspace("buf.net", BUF_NET), workspace("and.spec", AND_CLOSURE_SPEC),
                 workspace("and.table", AND_TABLE))
        argvs = argv_corpus(*files, out)
        assert len(argvs) == 132
        argvs += generated_argvs(random.Random("plain argvs"), *files, out, 4000)
        read = Counter()
        for argv in argvs:
            plain, want = cli._plain_args(argv), subparser_reading(argv)
            assert plain is None or vars(plain) == want, argv
            shaped = want is not None and plain_shape(argv)
            assert (plain is not None) == shaped, argv
            read[plain is not None, want is not None] += 1
        # every outcome shows up often: read by the table, declined but read by argparse,
        # and declined because argparse rejects it
        assert min(read[True, True], read[False, True], read[False, False]) > 200, read

    def test_choices_and_required_options_are_left_to_argparse(self, monkeypatch):
        # without its variadic params, component is plain but for --emit's choices
        text, func, arguments = cli.COMMANDS["component"]
        monkeypatch.setitem(cli.COMMANDS, "component", (text, func, [arguments[0], arguments[2]]))
        assert cli._plain_args(["component", "mux"]) is None
        monkeypatch.setitem(cli.COMMANDS, "component", (text, func, [arguments[0]]))
        assert vars(cli._plain_args(["component", "mux"])) == {"func": func, "name": "mux"}
        text, func, arguments = cli.COMMANDS["pipeline"]
        monkeypatch.setitem(cli.COMMANDS, "pipeline", (text, func, [("readings", {}), arguments[1]]))
        assert cli._plain_args(["pipeline", "10", "--faults", "0"]) is None

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_benchmark_argv_is_plain(self, monkeypatch, tmp_path, seed):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        mc = types.SimpleNamespace(cli=cli, components=components, netlist=netlist)
        wl = workloads.SequentialSim(mc, seed, str(tmp_path))
        argvs = [it.argv for _ in range(300) for it in wl.cycle()]
        assert len(argvs) == 3000
        for argv in argvs:
            plain = cli._plain_args(argv)
            assert plain is not None and vars(plain) == subparser_reading(argv), argv


class TestCheck:
    def test_containing_mux_passes(self, capsys, workspace):
        net = workspace("cmux.net", emit_netlist(build_cmux_combinational()))
        spec = workspace("cmux.spec", emit_spec_table(cmux_spec()))
        rc, out, _ = run(capsys, ["check", net, spec, "1"])
        assert rc == 0
        assert "verdict: yes" in out

    def test_plain_mux_fails_with_the_known_witness(self, capsys, workspace):
        net = workspace("mux.net", emit_netlist(build_mux()))
        spec = workspace("cmux.spec", emit_spec_table(cmux_spec()))
        rc, out, _ = run(capsys, ["check", net, spec, "1"])
        assert rc == 1
        assert "verdict: no" in out
        assert "witness input: 11M" in out
        assert "witness output: M" in out

    @pytest.mark.parametrize("command", ["check", "synth"])
    def test_max_meta_bits_is_not_a_flag(self, capsys, workspace, command):
        spec = workspace("cmux.spec", emit_spec_table(cmux_spec()))
        net = workspace("cmux.net", emit_netlist(build_cmux_combinational()))
        argv = [net, spec, "1"] if command == "check" else [spec]
        with pytest.raises(SystemExit) as e:
            main([command, *argv, "--max-meta-bits", "0"])
        assert e.value.code == 2
        assert "unrecognized arguments: --max-meta-bits" in capsys.readouterr().err

    @pytest.mark.parametrize("budget,rc", [("0", 3), ("1", 3), ("2", 0)])
    def test_one_round_budget_is_two_states_per_input(self, capsys, workspace,
                                                       budget, rc):
        net = workspace("mux.net", emit_netlist(build_mux()))
        spec = workspace("mux.spec", emit_spec_table(mux_spec()))
        got, out, err = run(capsys, ["check", net, spec, "1", "--max-states", budget])
        assert got == rc
        if rc == 3:
            assert (out, err) == ("", "error: state budget exceeded; "
                                      "raise the max-states cap\n")
        else:
            assert "verdict: yes" in out and err == ""

    @pytest.mark.parametrize("header", ["spec m=-1 n=1", "spec m=2 n=-1",
                                        "spec m=x n=1"])
    def test_bad_arity_header_is_an_input_error(self, capsys, workspace, header):
        spec = workspace("bad.spec", header + "\n")
        for argv in (["synth", spec], ["check", workspace("buf.net", BUF_NET), spec, "1"]):
            rc, out, err = run(capsys, argv)
            assert (rc, out, err) == (2, "", "error: line 1: bad arity in header\n")

    def test_arity_mismatch_is_an_input_error(self, capsys, workspace):
        net = workspace("mux.net", emit_netlist(build_mux()))
        one_bit = workspace("one.spec",
                            "spec m=1 n=1\n0 -> 0\n1 -> 1\nM -> M\n")
        rc, _, err = run(capsys, ["check", net, one_bit, "1"])
        assert rc == 2
        assert "error:" in err


class TestRefusedFiles:
    """Malformed netlists and spec files: exit 2 and one error line naming
    the fault, through every command that reads them."""

    @pytest.mark.parametrize("old,new,message", [
        ("drive O g", "drive O g\ncircuit other", "line 6: duplicate circuit line"),
        ("circuit buf", "circuit", "line 1: expected: circuit <name>"),
        ("input I simple", "input I", "line 2: expected: input <reg> <type>"),
        ("input I simple", "input I simple\nlocal L simple init",
         "line 3: expected: local <reg> <type> init <0|1|M>"),
        ("output O simple init 0", "output O simple 0",
         "line 3: expected: output <reg> <type> init <0|1|M>"),
        ("gate g BUF I", "gate g", "line 4: expected: gate <id> <KIND> <src> ..."),
        ("drive O g", "drive O", "line 5: expected: drive <reg> <src>"),
        ("drive O g", "drive O g\ndrive I g", "line 6: input register I cannot be driven"),
        ("I", "1I", "bad register name '1I'"),
        ("input I simple", "input I simple\ninput I simple", "register I declared twice"),
        ("g BUF I\ndrive O g", "1g BUF I\ndrive O 1g", "bad gate id '1g'"),
        ("gate g BUF I", "gate g TABLE:" + "01" * 1024 + " I" * 11,
         "gate g: TABLE takes at most 10 inputs, got 11"),
    ])
    def test_netlists(self, capsys, workspace, old, new, message):
        text = BUF_NET.replace(old, new)
        assert text != BUF_NET
        net = workspace("bad.net", text)
        spec = workspace("and.spec", AND_CLOSURE_SPEC)
        for argv in (["sim", net, "0", "1"], ["check", net, spec, "1"],
                     ["unroll", net, "2"], ["witness", net, "0", "1", "1"]):
            assert run(capsys, argv) == (2, "", f"error: {message}\n"), argv

    @pytest.mark.parametrize("text,message", [
        ("", "line 1: missing spec header"),
        ("# only a comment\n", "line 1: missing spec header"),
        ("spec m=1 n=1\n0 -> 0, 01\n1 -> 1\nM -> 0,1\n",
         "line 2: cube 01 does not have width 1"),
        # a natural entry, and an input of a natural and of a general table
        ("spec m=1 n=1\n0 -> 00\n1 -> 1\nM -> *\n", "line 2: row width disagrees with header"),
        ("spec m=1 n=1\n0 -> 0\n1 -> 1\nM -> *\n10 -> 1\n",
         "line 5: row width disagrees with header"),
        ("spec m=1 n=1\n0 -> 0\n1 -> 1\nM -> 0, 1\n1M -> 1\n",
         "line 5: row width disagrees with header"),
    ])
    def test_spec_files(self, capsys, workspace, text, message):
        spec = workspace("bad.spec", text)
        for argv in (["synth", spec], ["check", workspace("buf.net", BUF_NET), spec, "1"]):
            assert run(capsys, argv) == (2, "", f"error: {message}\n"), argv


class TestClosure:
    def test_and_table_closure_is_frozen(self, capsys, workspace):
        table = workspace("and.tab", AND_TABLE)
        rc, out, _ = run(capsys, ["closure", table])
        assert rc == 0
        assert out == AND_CLOSURE_SPEC

    def test_written_file_round_trips(self, capsys, workspace, tmp_path):
        table = workspace("and.tab", AND_TABLE)
        dest = tmp_path / "and.spec"
        rc, out, _ = run(capsys, ["closure", table, "-o", str(dest)])
        assert rc == 0
        assert f"written: {dest}" in out
        assert dest.read_text() == AND_CLOSURE_SPEC

    def test_negative_arity_is_an_input_error(self, capsys, workspace):
        table = workspace("neg.tab", "table m=-1 n=1\n")
        rc, out, err = run(capsys, ["closure", table])
        assert (rc, out, err) == (2, "", "error: line 1: bad arity in header\n")

    def test_malformed_table(self, capsys, workspace):
        table = workspace("bad.tab", "table m=2 n=1\n00 -> 0\n")
        rc, _, err = run(capsys, ["closure", table])
        assert rc == 2
        assert "error:" in err


class TestSynth:
    def test_round_trip_passes_check(self, capsys, workspace, tmp_path):
        table = workspace("and.tab", AND_TABLE)
        spec = str(tmp_path / "and.spec")
        net = str(tmp_path / "and.net")
        assert run(capsys, ["closure", table, "-o", spec])[0] == 0
        rc, out, _ = run(capsys, ["synth", spec, "-o", net])
        assert rc == 0
        assert "verdict: yes" in out
        rc, out, _ = run(capsys, ["check", net, spec, "1"])
        assert rc == 0

    def test_stdout_netlist_computes_the_table(self, capsys, workspace,
                                               tmp_path):
        table = workspace("and.tab", AND_TABLE)
        spec = str(tmp_path / "and.spec")
        run(capsys, ["closure", table, "-o", spec])
        rc, out, _ = run(capsys, ["synth", spec])
        assert rc == 0
        c = parse_netlist(out)
        assert validate(c) == []
        for text, want in (("00", "0"), ("01", "0"), ("10", "0"),
                           ("11", "1"), ("1M", "M"), ("0M", "0")):
            got = next(iter(outputs(c, word(text), 1)))
            assert got == word(want)

    def test_detector_has_no_natural_subfunction(self, capsys, workspace):
        from conftest import detector_spec
        spec = workspace("det.spec", emit_spec_table(detector_spec()))
        rc, out, _ = run(capsys, ["synth", spec])
        assert rc == 1
        assert "no natural subfunction" in out

    def test_general_spec_goes_through_the_subfunction_search(self, capsys,
                                                              workspace):
        spec = workspace("cmux.spec", emit_spec_table(cmux_spec()))
        rc, out, _ = run(capsys, ["synth", spec])
        assert rc == 0
        c = parse_netlist(out)
        from mcsim.executor import implements
        assert implements(c, 1, cmux_spec()).ok


class TestUnroll:
    def test_matches_the_library_construction(self, capsys, workspace):
        net = workspace("mux.net", emit_netlist(build_mux()))
        rc, out, _ = run(capsys, ["unroll", net, "2"])
        assert rc == 0
        assert parse_netlist(out) == unroll(build_mux(), 2)

    def test_same_bytes_under_every_hash_seed(self, workspace):
        import os
        import subprocess
        import sys
        net = workspace("seams.net", "circuit seams\ninput i simple\n"
                        + "".join(f"local l{j} simple init 0\n" for j in range(6))
                        + "output o simple init 0\ndrive l0 i\n"
                        + "".join(f"drive l{j} l{j - 1}\n" for j in range(1, 6))
                        + "drive o l5\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            outs.add(subprocess.run([sys.executable, "-m", "mcsim.cli", "unroll", net, "3"],
                                    env=env, capture_output=True, text=True,
                                    check=True).stdout)
        assert len(outs) == 1
        gates = [ln.split()[1] for ln in outs.pop().splitlines() if ln.startswith("gate ")]
        seams = [g for g in gates if g.startswith("l") and g.endswith("__u2")]
        assert seams == [f"l{j}__u2" for j in range(6)]

    def test_size_is_capped(self, capsys, workspace):
        net = workspace("buf.net", BUF_NET)
        start = time.perf_counter()
        rc, out, err = run(capsys, ["unroll", net, "100000000"])
        assert time.perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert err == ("error: unroll is capped at 200000 gates, "
                       "rounds x (gates + locals + outputs)\n")

    def test_masked_registers_are_rejected(self, capsys, fig4_path):
        rc, _, err = run(capsys, ["unroll", fig4_path, "2"])
        assert rc == 2
        assert "simple registers" in err


class TestWitness:
    def test_buffer_witness_is_a_valid_execution(self, capsys, workspace):
        net = workspace("buf.net", BUF_NET)
        rc, out, _ = run(capsys, ["witness", net, "0", "1", "1"])
        assert rc == 0
        t = parse_trace(out)
        assert trace_check(parse_netlist(BUF_NET), t)
        final = t.rounds[-1].state
        assert str(final)[-1] == "M"

    def test_written_file_and_report(self, capsys, workspace, tmp_path):
        net = workspace("buf.net", BUF_NET)
        dest = tmp_path / "buf.trace"
        rc, out, _ = run(capsys, ["witness", net, "0", "1", "1",
                                  "-o", str(dest)])
        assert rc == 0
        assert "verdict: witness" in out
        assert trace_check(parse_netlist(BUF_NET), parse_trace(
            dest.read_text()))

    def test_overlapping_outputs_mean_no_witness(self, capsys, workspace):
        net = workspace("c0.net", CONST_NET)
        rc, out, _ = run(capsys, ["witness", net, "0", "1", "1"])
        assert rc == 1
        assert "verdict: none" in out

    def test_deep_rounds(self, capsys, workspace):
        net = workspace("buf.net", BUF_NET)
        rc, out, err = run(capsys, ["witness", net, "0", "1", "3000"])
        assert (rc, err) == (0, "")
        t = parse_trace(out)
        assert len(t) == 3001 and trace_check(parse_netlist(BUF_NET), t)

    def test_more_rounds_than_the_state_cap_is_a_budget_error(self, capsys, workspace):
        net = workspace("buf.net", BUF_NET)
        start = time.perf_counter()
        rc, out, err = run(capsys, ["witness", net, "0", "1", "100000000"])
        assert time.perf_counter() - start < 1
        assert (rc, out) == (3, "")
        assert err == ("error: 100000000 rounds exceed the state budget of 1000000; "
                       "raise the max-states cap\n")


# a valid parameter set for each parameter count of the component table
VALID_PARAMS = {0: [], 1: ["3"], 2: ["4", "1"]}
TAKES = {0: "takes no parameters", 1: "takes one parameter", 2: "takes channels and word width"}


class TestComponent:
    @pytest.mark.parametrize("name", sorted(COMPONENTS))
    def test_report_and_netlist_both_work(self, capsys, name):
        count, _, checks = COMPONENTS[name]
        params = VALID_PARAMS[count]
        rc, out, _ = run(capsys, ["component", name, *params])
        assert rc == 0
        assert f"component: {name}" in out
        verdicts = [line for line in out.splitlines() if line.startswith("check: ")]
        assert len(verdicts) == len(checks)
        for line in verdicts:
            failing = name == "mux" and "containing mux" in line
            assert line.endswith(": no" if failing else ": yes"), line
        rc, out, _ = run(capsys, ["component", name, *params,
                                  "--emit", "netlist"])
        assert rc == 0
        assert validate(parse_netlist(out)) == []
        for wrong in ([], ["1"], ["4", "1"], ["2", "2", "2"]):
            if len(wrong) != count:
                assert run(capsys, ["component", name, *wrong]) == (
                    2, "", f"error: {name} {TAKES[count]}\n")

    def test_netlist_matches_the_builder(self, capsys):
        rc, out, _ = run(capsys, ["component", "counter", "3",
                                  "--emit", "netlist"])
        assert rc == 0
        assert parse_netlist(out) == build_counter(3)

    def test_mux_report_carries_the_counterexample(self, capsys):
        rc, out, _ = run(capsys, ["component", "mux"])
        assert rc == 0
        assert "plain mux spec at round 1: yes" in out
        assert "containing mux spec at round 1: no" in out
        assert "witness input: 11M" in out

    def test_cmux_reports_pass(self, capsys):
        for name, rounds in (("cmux1", 1), ("cmux-clocked", 2)):
            rc, out, _ = run(capsys, ["component", name])
            assert rc == 0
            assert f"containing mux spec at round {rounds}: yes" in out

    def test_sorting_network_report_lists_layers(self, capsys):
        rc, out, _ = run(capsys, ["component", "sorting-network", "4", "1"])
        assert rc == 0
        assert "layers: 3" in out
        assert "layer[0]: (0,1) (2,3)" in out

    @pytest.mark.parametrize("channels", ["0", "1", "9"])
    def test_sorting_network_channel_bounds(self, capsys, channels):
        assert run(capsys, ["component", "sorting-network", channels, "2"]) == (
            2, "", f"error: sorting network takes 2 to 8 channels, got {channels}\n")

    @pytest.mark.parametrize("params,message", [
        (["tc-to-brgc", "0"], "TC-to-BRGC conversion takes 1 to 5 output bits, got 0"),
        (["tc-to-brgc", "6"], "TC-to-BRGC conversion takes 1 to 5 output bits, got 6"),
        (["brgc-to-tc", "0"], "BRGC-to-TC conversion takes 1 to 4 input bits, got 0"),
        (["brgc-to-tc", "5"], "BRGC-to-TC conversion takes 1 to 4 input bits, got 5"),
        (["two-sort", "0"], "two-sort synthesis takes words of 1 to 3 bits, got 0"),
        (["two-sort", "4"], "two-sort synthesis takes words of 1 to 3 bits, got 4"),
        (["sorting-network", "4", "0"], "sorting network takes words of 1 to 3 bits, got 0"),
        (["sorting-network", "4", "9"], "sorting network takes words of 1 to 3 bits, got 9"),
    ])
    def test_width_bounds_name_the_range_and_the_value(self, capsys, params, message):
        assert run(capsys, ["component", *params]) == (2, "", f"error: {message}\n")

    def test_unknown_name(self, capsys):
        rc, _, err = run(capsys, ["component", "frobnicator"])
        assert rc == 2
        assert "unknown component" in err

    def test_wrong_parameter_shapes(self, capsys):
        assert run(capsys, ["component", "mux", "3"])[0] == 2
        assert run(capsys, ["component", "two-sort"])[0] == 2
        assert run(capsys, ["component", "counter", "three"])[0] == 2
        assert run(capsys, ["component", "two-sort", "9"])[0] == 2

    @pytest.mark.parametrize("name,what", [("fanout-buffer", "fan-out"),
                                           ("counter", "counter"),
                                           ("selector", "selector")])
    def test_round_counts_above_the_cap_are_input_errors(self, capsys, name, what):
        # 129 first: without a cap it builds fast and fails here, before
        # the huge count would run for minutes
        assert run(capsys, ["component", name, "129"])[0] == 2
        start = time.perf_counter()
        rc, out, err = run(capsys, ["component", name, "100000000"])
        assert time.perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert err == f"error: {what} is capped at 128 rounds\n"


class TestPipeline:
    READINGS = ["1110000", "111M000", "1100000", "1111100"]

    def test_frozen_report(self, capsys):
        rc, out, _ = run(capsys, ["pipeline", *self.READINGS,
                                  "--faults", "1"])
        assert rc == 0
        assert out == ("command: pipeline\n"
                       "nodes: 4\n"
                       "faults: 1\n"
                       "readings: 1110000, 111M000, 1100000, 1111100\n"
                       "low: 0000111\n"
                       "high: 000M111\n")

    def test_netlist_emission(self, capsys):
        rc, out, _ = run(capsys, ["pipeline", *self.READINGS,
                                  "--faults", "1", "--emit", "netlist"])
        assert rc == 0
        c = parse_netlist(out)
        assert validate(c) == []
        assert c.m == 28 and c.n == 14

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, ["pipeline", *self.READINGS,
                                   "--faults", "1"])
        _, again, _ = run(capsys, ["pipeline", *self.READINGS,
                                   "--faults", "1"])
        assert first == again

    def test_one_node_is_below_the_sorters_channel_range(self, capsys):
        assert run(capsys, ["pipeline", "111", "--faults", "0"]) == (
            2, "", "error: sorting network takes 2 to 8 channels, got 1\n")

    def test_readings_wider_than_the_sorters_words(self, capsys):
        assert run(capsys, ["pipeline", *["1" * 3 + "0" * 12] * 4, "--faults", "1"]) == (
            2, "", "error: sorting network takes words of 1 to 3 bits, got 4\n")

    def test_too_many_faults(self, capsys):
        rc, _, err = run(capsys, ["pipeline", "100", "110", "000",
                                  "--faults", "1"])
        assert rc == 2
        assert err == "error: need more than 3f = 3 nodes, got 3\n"

    @pytest.mark.parametrize("emit", ["report", "netlist"])
    def test_negative_faults(self, capsys, emit):
        assert run(capsys, ["pipeline", "10", "10", "10", "--faults", "-1",
                            "--emit", emit]) == (
            2, "", "error: fault count must be nonnegative, got -1\n")

    def test_imprecise_reading_rejected(self, capsys):
        rc, _, err = run(capsys, ["pipeline", "MMM", "110", "000", "100",
                                  "--faults", "1"])
        assert rc == 2
        assert err == "error: not a TDC reading: MMM\n"

    @pytest.mark.parametrize("reading", ["011", "0M1"])
    def test_zeros_first_readings_rejected(self, capsys, reading):
        rc, out, err = run(capsys, ["pipeline", *[reading] * 4, "--faults", "1"])
        assert (rc, out) == (2, "")
        assert err == f"error: not a TDC reading: {reading}\n"

    @pytest.mark.parametrize("k", [6, 12])
    def test_wide_readings_are_refused_in_order_within_the_limits(self, capsys, k):
        # above width 10 each reading is checked on its own digits, so a width-4095
        # reading costs no table of 8,191 rail pairs before the pipeline refuses k
        width = (1 << k) - 1
        good, meta = "1" * 5 + "0" * (width - 5), "1" * 5 + "M" + "0" * (width - 6)
        bad = good[:-1] + "1"
        for readings, err in [
                ([good, meta, good, good], f"TC-to-BRGC conversion takes 1 to 5 output bits, got {k}"),
                ([good, good, bad, meta], f"not a TDC reading: {bad}"),
                ([good, good, bad], "need more than 3f = 3 nodes, got 3"),
                ([good, good, good[1:], bad], "readings must share one width")]:
            argv = ["pipeline", *readings, "--faults", "1"]
            with limited(argv):
                rc = main(argv)
            assert (rc, *capsys.readouterr()) == (2, "", f"error: {err}\n")


class TestLoadMemo:
    """`mc` keeps the parse of each netlist and spec text it has read in this
    process, for at most 32 texts of at most 16 KiB; every command reports as
    if it had parsed its files afresh."""

    @staticmethod
    def load_twice(path, parse):
        first = cli._load(path, parse)
        assert cli._load(path, parse) is first
        return first

    def test_every_corpus_netlist_loads_as_a_fresh_parse(self, workspace, corpus_mixed,
                                                         corpus_simple, corpus_masked_locals):
        circuits = corpus_mixed + corpus_simple + corpus_masked_locals + [
            build_mux(), build_cmux_combinational(), build_fanout_buffer(3), build_counter(4)]
        for i, c in enumerate(circuits):
            text = emit_netlist(c)
            got = self.load_twice(workspace(f"c{i}.net", text), parse_netlist)
            assert got == parse_netlist(text) == c, c.name
            assert emit_netlist(got) == text

    def test_every_corpus_spec_loads_as_a_fresh_parse(self, workspace):
        from conftest import bool_tables, mm_example_spec
        from mcsim.analysis import closure_bool, parse_spec_table
        from mcsim.components import masking_fanout_spec
        specs = [closure_bool(t) for m in (1, 2) for t in bool_tables(m)]
        specs += [mux_spec(), cmux_spec(), masking_fanout_spec(3), mm_example_spec()]
        for i, f in enumerate(specs):
            text = emit_spec_table(f)
            got = self.load_twice(workspace(f"f{i}.spec", text), parse_spec_table)
            assert got == parse_spec_table(text) == f, text
            assert emit_spec_table(got) == text

    def test_a_damaged_file_fails_alike_every_time(self, capsys, workspace):
        net = workspace("bad.net", BUF_NET.replace("gate g BUF I", "gate g"))
        spec = workspace("bad.spec", "spec m=1 n=1\n0 -> 00\n1 -> 1\nM -> *\n")
        good = workspace("buf.net", BUF_NET)
        for argv, err in [(["sim", net, "0", "1"], "line 4: expected: gate <id> <KIND> <src> ..."),
                          (["check", good, spec, "1"], "line 2: row width disagrees with header"),
                          (["synth", spec], "line 2: row width disagrees with header")]:
            for _ in range(2):
                assert run(capsys, argv) == (2, "", f"error: {err}\n"), argv
        # only the good netlist is kept
        assert cli._parsed.cache_info().currsize == 1

    def test_a_rewritten_file_reports_its_new_text(self, capsys, workspace):
        net, spec = workspace("c.net", ""), workspace("f.spec", "")
        argvs = (["sim", net, "1", "1"], ["check", net, spec, "1"])
        seen = []
        for text, row in ((BUF_NET, "0 -> 0"), (CONST_NET, "0 -> 1")):
            workspace("c.net", text)
            workspace("f.spec", f"spec m=1 n=1\n{row}\n1 -> 1\nM -> *\n")
            got = [run(capsys, argv) for argv in argvs]
            cli._parsed.cache_clear()
            assert got == [run(capsys, argv) for argv in argvs]
            seen.append([(rc, out.splitlines()[1]) for rc, out, _ in got])
        assert seen == [[(0, "circuit: buf")] * 2,
                        [(0, "circuit: always_zero"), (1, "circuit: always_zero")]]

    def test_the_33rd_text_evicts_the_least_recently_used(self, workspace):
        paths = [workspace(f"c{i}.net", BUF_NET.replace("buf", f"buf{i}")) for i in range(33)]
        kept = [cli._load(p, parse_netlist) for p in paths[:32]]
        assert cli._parsed.cache_info().currsize == 32
        assert cli._load(paths[0], parse_netlist) is kept[0]   # now the most recent
        cli._load(paths[32], parse_netlist)
        assert cli._parsed.cache_info().currsize == 32
        assert cli._load(paths[0], parse_netlist) is kept[0]
        again = cli._load(paths[1], parse_netlist)
        assert again is not kept[1] and again == kept[1]

    def test_a_text_over_16_kib_is_never_kept(self, workspace):
        pad = 16384 - len(BUF_NET) - 1
        at = workspace("at.net", BUF_NET + "#" * pad + "\n")
        over = workspace("over.net", BUF_NET + "#" * (pad + 1) + "\n")
        assert cli._load(at, parse_netlist) is cli._load(at, parse_netlist)
        first = cli._load(over, parse_netlist)
        assert cli._load(over, parse_netlist) is not first
        assert cli._parsed.cache_info().currsize == 1

    def test_repeated_commands_match_fresh_parses_past_the_compile(self, capsys, tmp_path,
                                                                   corpus_mixed, monkeypatch):
        # 300 rounds of one circuit's sim, witness and check: its plan compiles
        # partway, and every report and written file stays what a fresh parse gives.
        # A read word the DAG's memo holds runs no plan, and these commands read a
        # few dozen words, so the kept circuit compiles after 8 runs, in the first round
        import random
        c = next(c for c in corpus_mixed if c.m >= 2 and c.k >= 1 and len(c.dag.gates) >= 4)
        net = tmp_path / "c.net"
        net.write_text(emit_netlist(c))
        rng = random.Random("load memo rounds")
        rows = "".join(f"{x} -> {''.join(rng.choice('01M') for _ in range(c.n))}\n"
                       for x in map(str, all_words(c.m)))
        spec = tmp_path / "f.spec"
        spec.write_text(f"spec m={c.m} n={c.n}\n{rows}")
        trace, witness = tmp_path / "sim.trace", tmp_path / "w.trace"
        x, y = "M" * c.m, "0" * c.m
        commands = [["sim", str(net), x, "5", "--trace", str(trace)],
                    ["witness", str(net), y, "1" * c.m, "3", "-o", str(witness)],
                    ["check", str(net), str(spec), "2"]]

        def once(argv, fresh):
            if fresh:
                cli._parsed.cache_clear()
            for p in (trace, witness):
                p.unlink(missing_ok=True)
            got = run(capsys, argv)
            return got + tuple(p.read_bytes() if p.exists() else None for p in (trace, witness))

        want = [once(argv, True) for argv in commands]
        assert [w[0] for w in want] == [0, 0, 1] and None not in (want[0][3], want[1][4])
        monkeypatch.setattr(netlist, "_COMPILE_AFTER", 8)
        cli._parsed.cache_clear()
        plan = cli._load(str(net), parse_netlist).dag._plan
        assert plan[3] is None
        for _ in range(300):
            assert [once(argv, False) for argv in commands] == want
        assert cli._load(str(net), parse_netlist).dag._plan is plan and plan[3] is not None
        assert [once(argv, True) for argv in commands] == want
