"""Record one sha256 per argv of mc's argv corpus, for tests/test_cli_digests.py.

Each argv of test_cli.argv_corpus, and of the commands below on a feedback
circuit with a masked register, on general specs and on every component, runs
through cli.main in a fresh working directory that holds the corpus's input
files under relative names, with COLUMNS=80. Its digest covers the exit code, stdout, stderr and every file
left in the directory. The record keeps the Python minor version it was taken
on, since argparse's help text differs between versions.

Re-record only for an intended change of mc's output:

    PYTHONPATH=src python tests/record_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from mcsim import cli
from test_cli import AND_CLOSURE_SPEC, AND_TABLE, BUF_NET, FEEDBACK_TEXT, argv_corpus

# a general spec that is not natural but has a natural subfunction, and one that has none
GENERAL_SPEC = """\
spec m=2 n=2
00 -> 00
01 -> 01, 10
0M -> 0M, 10
10 -> 01, 10
11 -> 11
1M -> M1, 1M
M0 -> 0M, M0
M1 -> M1, 1M
MM -> MM
"""
SPLIT_SPEC = "spec m=1 n=1\n0 -> 0\n1 -> 1\nM -> 0, 1\n"

RECORD = Path(__file__).with_name("cli_digests.json")
INPUTS = {"buf.net": BUF_NET, "and.spec": AND_CLOSURE_SPEC, "and.table": AND_TABLE,
          "fb.net": FEEDBACK_TEXT, "gen.spec": GENERAL_SPEC, "split.spec": SPLIT_SPEC}
OUT = "out.txt"
# valid parameters of each component that takes any
PARAMS = {"fanout-buffer": ["3"], "counter": ["3"], "selector": ["3"], "tc-to-brgc": ["2"],
          "two-sort": ["2"], "brgc-to-tc": ["2"], "sorting-network": ["4", "2"]}


def corpus() -> list[list[str]]:
    argvs = argv_corpus("buf.net", "and.spec", "and.table", OUT)
    argvs += [["sim", "fb.net", "MM", "5"], ["sim", "fb.net", "MM", "5", "--trace", OUT],
              ["witness", "fb.net", "00", "11", "2", "-o", OUT],
              ["synth", "gen.spec"], ["synth", "gen.spec", "-o", OUT], ["synth", "split.spec"],
              ["check", "fb.net", "and.spec", "1"], ["check", "fb.net", "and.spec", "3"],
              ["check", "buf.net", "split.spec", "1"]]
    for name in cli.COMPONENTS:
        component = ["component", name, *PARAMS.get(name, [])]
        argvs += [component, component + ["--emit", "netlist"]]
    return argvs


def python_version() -> str:
    return "{}.{}".format(*sys.version_info)


def digest(argv: list[str]) -> str:
    """sha256 of what cli.main(argv) does in a fresh directory holding INPUTS."""
    home, out, err = os.getcwd(), io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(tmp)
        try:
            for name, text in INPUTS.items():
                Path(name).write_text(text)
            cli._parsed.cache_clear()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as e:
                    code = e.code
            files = sorted((p.name, p.read_bytes()) for p in Path(tmp).iterdir())
        finally:
            os.chdir(home)
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue(), files)).encode()).hexdigest()


if __name__ == "__main__":
    record = {"python": python_version(),
              "digests": {json.dumps(argv): digest(argv) for argv in corpus()}}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {RECORD}")
