"""Batch front end: simulate, check, synthesize, unroll, hunt witnesses,
and emit library components.

Every command prints a deterministic key-value report (or the produced
artifact itself) and signals its outcome through the exit code: 0 pass,
1 semantic failure with a counterexample, 2 malformed input, 3 budget
exceeded or out of memory. Configuration is flags only.
"""

from __future__ import annotations

import functools
import os
import sys
import types

from . import analysis, components, executor
from .netlist import emit_netlist, parse_netlist
from .ternary_core import (
    DEFAULT_MAX_STATES,
    BudgetError,
    InputError,
    _cubes_text,
    word,
)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}")


def _write_text(path, text):
    """Write through a fresh .<random>.tmp beside path that only this call
    creates, then rename it over path; the mode is what open(path, "w")
    gives. The name does not grow with path's, so any name open() takes
    will do."""
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)  # this call made it, so a failed write leaves none behind
            raise
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}")


_parsed = functools.lru_cache(maxsize=32)(lambda parse, text: parse(text))


def _load(path, parse):
    """parse(the text at path), for a pure parse with a frozen value: the 32 last loaded texts
    of at most 16 KiB keep theirs, and what it builds later, for the next commands to reuse."""
    text = _read_text(path)
    return parse(text) if len(text) > 1 << 14 else _parsed(parse, text)


def _spec_shape(f, natural):
    return f"{'natural' if natural else 'general'} m={f.m} n={f.n}"


def _failed(lines, v):
    """Exit 1 with the report lines and the verdict's witness."""
    return 1, "\n".join(lines + [f"witness input: {v.witness_input}",
                                 f"witness output: {v.witness_output}"])


def _deliver(args, text, report):
    """The artifact itself, or, with --out, written there and report()'s lines."""
    if args.out is None:
        return 0, text.rstrip("\n")
    _write_text(args.out, text)
    return 0, "\n".join(report() + [f"written: {args.out}"])


# ---------------------------------------------------------------------------
# Commands: each returns (exit code, report text)

def cmd_sim(args):
    c = _load(args.netlist, parse_netlist)
    iota = word(args.input)
    if args.rounds < 0:
        raise InputError("round count must be nonnegative")
    # each round is at least one report line, and a memo hit spends no
    # states, so the cap bounds the round count on its own
    executor.check_round_budget(args.rounds, args.max_states)
    lines = ["command: sim",
             f"circuit: {c.name}",
             f"input: {iota}",
             f"rounds: {args.rounds}",
             f"max states: {args.max_states}"]
    distinct, loop = executor._frontiers(c, iota, args.rounds, args.max_states)
    states = [_cubes_text(c.m + c.k + c.n, s) for s in distinct]
    outs = [_cubes_text(c.n, executor._output_cubes(c, s)) for s in distinct]
    rounds = args.rounds + 1
    lines += [f"states[{t}]: {s}" for t, s in enumerate(executor.unrolled(states, loop, rounds))]
    lines += [f"outputs[{t}]: {s}" for t, s in enumerate(executor.unrolled(outs, loop, rounds)) if t]
    lines.append(f"peak state cubes: {max(map(len, distinct))}")
    if args.trace is not None:
        if args.rounds < 1:
            raise InputError("a trace needs at least one round")
        rows = executor._trace_walk(c, iota, args.rounds)
        _write_text(args.trace, executor._trace_text(rows, [c.trace_widths] * len(rows)))
        lines.append(f"trace written: {args.trace}")
    return 0, "\n".join(lines)


def cmd_check(args):
    c = _load(args.netlist, parse_netlist)
    f = _load(args.spec, analysis.parse_spec_table)
    v = executor.implements(c, args.rounds, f, max_states=args.max_states)
    lines = ["command: check",
             f"circuit: {c.name}",
             f"spec: {_spec_shape(f, analysis.is_natural(f))}",
             f"rounds: {args.rounds}",
             f"verdict: {'yes' if v.ok else 'no'}"]
    return (0, "\n".join(lines)) if v.ok else _failed(lines, v)


def cmd_closure(args):
    table = analysis.parse_truth_table(_read_text(args.table))
    f = analysis.closure_bool(table)
    # a closure is natural by construction
    return _deliver(args, analysis.emit_spec_table(f), lambda: [
        "command: closure", f"spec: {_spec_shape(f, True)}"])


def cmd_synth(args):
    f = _load(args.spec, analysis.parse_spec_table)
    natural = analysis.is_natural(f)
    lines = ["command: synth", f"spec: {_spec_shape(f, natural)}"]
    if natural:
        target = f
    else:
        target = analysis.find_natural_subfunction(f,
                                                   max_nodes=args.max_states)
        if target is None:
            lines.append("verdict: no natural subfunction")
            return 1, "\n".join(lines)
    c = analysis.synthesize(target)
    v = executor.implements(c, 1, f, max_states=args.max_states)
    if not v.ok:
        return _failed(lines + ["verdict: synthesized circuit failed its own check"], v)
    return _deliver(args, emit_netlist(c), lambda: lines + [
        f"circuit: {c.name}", f"gates: {len(c.dag.gates)}", "verdict: yes"])


def cmd_unroll(args):
    c = _load(args.netlist, parse_netlist)
    u = analysis.unroll(c, args.rounds)
    return _deliver(args, emit_netlist(u), lambda: [
        "command: unroll", f"circuit: {u.name}", f"rounds: {args.rounds}"])


def cmd_witness(args):
    c = _load(args.netlist, parse_netlist)
    iota, iota2 = word(args.input), word(args.input2)
    t = analysis.metastable_witness(c, args.rounds, iota, iota2,
                                    max_states=args.max_states)
    if t is None:
        return 1, "\n".join(["command: witness",
                             f"circuit: {c.name}",
                             "verdict: none (output sets overlap)"])
    return _deliver(args, executor.emit_trace(t), lambda: [
        "command: witness", f"circuit: {c.name}", f"from: {iota}", f"to: {iota2}",
        f"rounds: {args.rounds}", "verdict: witness"])


def component_table():
    """Every component `mc component` builds: name -> (parameter count,
    builder, contract checks). A check is (label, spec builder, round); both
    builders take the component's parameters, and a round of None is its
    first parameter. Built per call, so a rebound `components` function
    (a tracer's wrapper, say) is the one called."""
    cmux = ("containing mux", components.cmux_spec)
    return {
        "mux": (0, components.build_mux, [("plain mux", components.mux_spec, 1), (*cmux, 1)]),
        "cmux1": (0, components.build_cmux_combinational, [(*cmux, 1)]),
        "cmux-clocked": (0, components.build_cmux_clocked, [(*cmux, 2)]),
        "fanout-buffer": (1, components.build_fanout_buffer,
                          [("masking fan-out", components.masking_fanout_spec, None)]),
        "counter": (1, components.build_counter, []),
        "selector": (1, components.build_selector, []),
        "tc-to-brgc": (1, components.build_tc_to_brgc, []),
        "two-sort": (1, components.build_two_sort, []),
        "brgc-to-tc": (1, components.build_brgc_to_tc, []),
        # builds the comparator schedule too, for the layers lines
        "sorting-network": (2, components.build_sorting_network, []),
    }


def cmd_component(args):
    try:
        nums = [int(p) for p in args.params]
    except ValueError:
        raise InputError(f"component parameters must be integers: {args.params}")
    table = component_table()
    if args.name not in table:
        raise InputError(f"unknown component {args.name!r}; known: {', '.join(sorted(table))}")
    count, build, checks = table[args.name]
    if len(nums) != count:
        takes = ("no parameters", "one parameter", "channels and word width")[count]
        raise InputError(f"{args.name} takes {takes}")
    built = build(*nums)
    net, c = built if isinstance(built, tuple) else (None, built)
    if args.emit == "netlist":
        return 0, emit_netlist(c).rstrip("\n")
    lines = ["command: component",
             f"component: {args.name}",
             f"circuit: {c.name}",
             f"inputs: {c.m}",
             f"locals: {c.k}",
             f"outputs: {c.n}",
             f"gates: {len(c.dag.gates)}"]
    if net is not None:
        lines.append(f"layers: {len(net.layers)}")
        for i, layer in enumerate(net.layers):
            pairs = " ".join(f"({lo},{hi})" for lo, hi in layer)
            lines.append(f"layer[{i}]: {pairs}")
    for label, spec, r in checks:
        r = nums[0] if r is None else r
        v = executor.implements(c, r, spec(*nums))
        lines.append(f"check: {label} spec at round {r}: {'yes' if v.ok else 'no'}")
        if not v.ok:
            lines.append(f"witness input: {v.witness_input}")
    return 0, "\n".join(lines)


def cmd_pipeline(args):
    readings = [word(t) for t in args.readings]
    n = len(readings)
    low, high = components.clock_sync_select(n, args.faults, readings)
    if args.emit == "netlist":
        c = components.build_pipeline(n, components.pipeline_bits(len(readings[0])), args.faults)
        return 0, emit_netlist(c).rstrip("\n")
    return 0, "\n".join(["command: pipeline",
                         f"nodes: {n}",
                         f"faults: {args.faults}",
                         f"readings: {', '.join(args.readings)}",
                         f"low: {low}",
                         f"high: {high}"])


# ---------------------------------------------------------------------------

ROUNDS = ("rounds", {"type": int})
BUDGET = ("--max-states", {"type": int, "default": DEFAULT_MAX_STATES,
                           "help": "state-enumeration budget"})
EMIT = ("--emit", {"choices": ("netlist", "report"), "default": "report"})
# mc's commands: name -> (help, handler, [(an argument's flags, its add_argument keywords)])
COMMANDS = {
    "sim": ("enumerate reachable states and outputs", cmd_sim, [
        ("netlist", {}), ("input", {"help": "input word over {0,1,M}"}), ROUNDS,
        ("--trace", {"help": "also write one concrete execution here"}), BUDGET]),
    "check": ("does the circuit implement the spec", cmd_check,
              [("netlist", {}), ("spec", {}), ROUNDS, BUDGET]),
    "closure": ("metastable closure of a Boolean truth table", cmd_closure,
                [("table", {}), ("-o --out", {"help": "write the spec here (default: stdout)"})]),
    "synth": ("netlist realizing a specification", cmd_synth, [
        ("spec", {}), ("-o --out", {"help": "write the netlist here (default: stdout)"}), BUDGET]),
    "unroll": ("combinational r-round copy of a circuit", cmd_unroll,
               [("netlist", {}), ROUNDS, ("-o --out", {})]),
    "witness": ("execution forced metastable between two inputs", cmd_witness, [
        ("netlist", {}), ("input", {}), ("input2", {}), ROUNDS, ("-o --out", {}), BUDGET]),
    "component": ("emit a library component", cmd_component,
                  [("name", {}), ("params", {"nargs": "*"}), EMIT]),
    "pipeline": ("select fault-tolerant clock bounds from TDC readings", cmd_pipeline,
                 [("readings", {"nargs": "+", "help": "ones-first TC words"}),
                  ("--faults", {"type": int, "required": True}), EMIT]),
}


@functools.cache
def build_parser():
    import argparse   # only help, errors and the variadic commands need it
    parser = argparse.ArgumentParser(
        prog="mc",
        description="Worst-case metastability propagation in clocked "
                    "circuits: simulate, check, synthesize.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, kw in arguments:
            p.add_argument(*flags.split(), **kw)
        p.set_defaults(func=func)
    parser.commands = sub.choices   # command name -> its parser, for main's one pass
    return parser


def _plain_args(argv):
    """What argv[0]'s own parser makes of argv[1:] when argv is plain: each token from "-" is
    one of the command's one-value options, followed by a value not from "-", the other tokens
    are exactly its fixed positionals, and each value converts. Otherwise None, for argparse."""
    command = argv and COMMANDS.get(argv[0])
    if not command:
        return None
    args, options, positionals = {"func": command[1]}, {}, []
    for flags, kw in command[2]:
        if not kw.keys() <= {"type", "default", "help"}:
            return None   # nargs, choices and required are argparse's to read
        if flags[0] != "-":
            positionals.append((flags, kw.get("type", str)))
            continue
        names = flags.split()
        dest = next((n for n in names if n[:2] == "--"), names[0]).lstrip("-").replace("-", "_")
        args[dest] = kw.get("default")
        for name in names:
            options[name] = dest, kw.get("type", str)
    tokens, pending = iter(argv[1:]), iter(positionals)
    try:
        for token in tokens:
            if token[:1] == "-":
                dest, convert = options[token]
                token = next(tokens, "-")   # a missing value reads as a dash
                if token[:1] == "-":
                    return None
            else:
                dest, convert = next(pending)
            args[dest] = convert(token)
    except (KeyError, StopIteration, ValueError):
        return None
    return None if next(pending, None) else types.SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if (args := _plain_args(argv)) is None:   # help, errors and variadic commands: argparse's
        parser = build_parser()
        own = argv and parser.commands.get(argv[0])   # a command's parser takes the rest at once
        args, extra = own.parse_known_args(argv[1:]) if own else parser.parse_known_args(argv)
        if extra:   # what either pass leaves over, the full parse's own error
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if getattr(args, "max_states", 0) < 0:
            raise InputError(f"--max-states must be at least 0, not {args.max_states}")
        code, text = args.func(args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return 3
    try:
        if text:
            print(text, flush=True)
    except OSError as e:
        # a closed pipe, say; the interpreter's last flush then goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {e.strerror or e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
