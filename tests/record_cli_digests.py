"""Record one sha256 per argv of mc's argv corpus, for tests/test_cli_digests.py.

Each argv of test_cli.argv_corpus runs through cli.main in a fresh working
directory that holds the corpus's input files under relative names, with
COLUMNS=80. Its digest covers the exit code, stdout, stderr and every file
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
from test_cli import AND_CLOSURE_SPEC, AND_TABLE, BUF_NET, argv_corpus

RECORD = Path(__file__).with_name("cli_digests.json")
INPUTS = {"buf.net": BUF_NET, "and.spec": AND_CLOSURE_SPEC, "and.table": AND_TABLE}
OUT = "out.txt"


def corpus() -> list[list[str]]:
    return argv_corpus(*INPUTS, OUT)


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
