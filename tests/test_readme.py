"""README's examples run as written: the Quick tour's netlist and `mc sim` report, and the
Library snippet, so a change to a report or an API cannot leave them stale."""

import re
from pathlib import Path

from mcsim.cli import main
from mcsim.executor import implements

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(section: str) -> list[str]:
    """The fenced code blocks of README's `## <section>`, in order, without their fences."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```[a-z]*\n(.*?)^```$", body, re.M | re.S)


def test_the_quick_tour_sim_prints_what_readme_shows(capsys, monkeypatch, tmp_path):
    netlist, session = blocks("Quick tour")[:2]
    (tmp_path / "fb.net").write_text(netlist)
    monkeypatch.chdir(tmp_path)
    command, *shown = session.splitlines()
    assert command == "$ mc sim fb.net MM 4" and shown.count("...") == 1
    assert main(command.split()[2:]) == 0
    lines = capsys.readouterr().out.splitlines()
    head, tail = shown[:shown.index("...")], shown[shown.index("...") + 1:]
    assert lines[:len(head)] == head and lines[len(lines) - len(tail):] == tail
    assert len(lines) > len(head) + len(tail)


def test_the_library_snippet_runs(capsys, monkeypatch, tmp_path):
    (tmp_path / "fb.net").write_text(blocks("Quick tour")[0])
    monkeypatch.chdir(tmp_path)
    snippet, = [b for b in blocks("Library") if "import" in b]
    names = {}
    exec(snippet, names)
    assert implements(names["gate"], 1, names["and_m"]).ok is True
    assert capsys.readouterr().out.splitlines()[-1] == "True"
