"""The README's examples run as written.

The ``python`` block under "Library" is executed, and every ``lcasched``
command under "Command line" but ``sweep`` (whose full grid the AC-1
acceptance test already runs) goes through ``cli.main`` in a scratch
directory, in README order, so ``run --jobs-file`` reads the trace that
``generate`` wrote.
"""

import re
import shlex
from pathlib import Path

from lcasched.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _first_block_after(heading, language=""):
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```$", section, flags=re.M | re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch):
    exec(compile(_first_block_after("## Library", "python"), "README.md", "exec"), {})

    text = _first_block_after("## Command line").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("lcasched ")]
    assert [argv[0] for argv in commands] == ["generate", "run", "run", "sweep", "oracle"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] != "sweep":
            assert main(argv) == 0, argv
    assert (tmp_path / "jobs.csv").exists()
