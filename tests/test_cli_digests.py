"""mc's exit code, stdout, stderr and written files on the argv corpus match the
digests recorded by tests/record_cli_digests.py, byte for byte."""

import json
import sys

import pytest

from mcsim import cli
from record_cli_digests import RECORD, corpus, digest, python_version


@pytest.fixture
def recorded():
    record = json.loads(RECORD.read_text())
    if record["python"] != python_version():
        pytest.skip(f"digests recorded on Python {record['python']}, not {python_version()}: "
                    "argparse's help text differs between versions")
    return record["digests"]


def test_the_corpus_reads_as_recorded(recorded):
    argvs = {json.dumps(argv): argv for argv in corpus()}
    assert sorted(argvs) == sorted(recorded)
    assert [key for key, argv in argvs.items() if digest(argv) != recorded[key]] == []


@pytest.mark.parametrize("argv, name, wrap", [
    (["closure", "and.table", "-o", "out.txt"], "_write_text",
     lambda write: lambda path, text: write(path, text + "\n")),
    (["closure", "and.table", "--out=out.txt"], "_spec_shape",
     lambda shape: lambda f, natural: shape(f, natural) + " "),
    (["sim", "buf.net", "M", "-1"], "main",
     lambda main: lambda argv: print(file=sys.stderr) or main(argv)),
    (["sim", "buf.net", "M", "3"], "main", lambda main: lambda argv: main(argv) + 1),
])
def test_a_changed_output_is_caught(recorded, monkeypatch, argv, name, wrap):
    # a written file, a report line, stderr and the exit code, each changed by one character
    assert digest(argv) == recorded[json.dumps(argv)]
    monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
    assert digest(argv) != recorded[json.dumps(argv)]
