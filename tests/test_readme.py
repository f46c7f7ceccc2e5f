"""The README's library quickstart and command-line walkthrough run as written."""

import math
import re
import shlex
from pathlib import Path

from conftest import random_set
from covagg import write_descriptor_file
from covagg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_code():
    """The python block under the "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under the Library quickstart heading"
    return match.group(1)


def test_library_quickstart_runs(rng, tmp_path, monkeypatch):
    for name in ("image", "other"):
        write_descriptor_file(random_set(rng, 50, 80, name), tmp_path / f"{name}.cvd")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(quickstart_code(), str(README), "exec"), namespace)
    assert math.isfinite(namespace["theta"]) and math.isfinite(namespace["best"])
    assert -math.pi < namespace["theta"] <= math.pi


def walkthrough_commands():
    """The ``covagg`` command lines of the "Command-line walkthrough" bash block."""
    section = README.read_text(encoding="utf-8").split("## Command-line walkthrough", 1)[1]
    match = re.search(r"```bash\n(.*?)```", section, re.DOTALL)
    assert match, "no bash block under the Command-line walkthrough heading"
    lines = match.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("covagg ")]


def test_command_line_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough_commands()
    assert [argv[1] for argv in commands] == ["synth", "encode", "query", "evaluate",
                                              "run-manifest"]
    for argv in commands:
        if argv[1] == "run-manifest":
            encoded = (tmp_path / "db.cvv").read_bytes()
            (tmp_path / "db.cvv").unlink()
        assert main(argv[1:]) == 0, " ".join(argv)
    assert (tmp_path / "db.cvv").read_bytes() == encoded
    assert "mAP" in capsys.readouterr().out
