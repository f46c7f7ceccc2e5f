"""The README's library quickstart runs as written."""

import math
import re
from pathlib import Path

from conftest import random_set
from covagg import write_descriptor_file

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
