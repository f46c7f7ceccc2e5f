"""perfbench's tracer binds covagg functions and parameters by name.

The tracer skips a target it cannot find, so a renamed or deleted
function would silently drop out of the per-layer metrics. This test
loads ``perfbench/tracer.py`` without installing its wrappers and checks
every binding against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
from unittest.mock import MagicMock

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(module_name, attr_path):
    owner = importlib.import_module(f"covagg.{module_name}")
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    return owner


class _Bound(dict):
    """Bound arguments that remember which names a counter reads."""

    def __init__(self, names):
        super().__init__((name, MagicMock()) for name in names)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("target", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_every_target_is_a_covagg_callable(target):
    _, module_name, attr_path, _ = target
    assert callable(_resolve(module_name, attr_path))


def test_counters_bind_parameters_the_targets_have():
    read = set()
    for name, module_name, attr_path, counter in tracer.TARGETS:
        if counter is None:
            continue
        bound = _Bound(inspect.signature(_resolve(module_name, attr_path)).parameters)
        try:
            counter(tracer.Tracer(), bound, None)
        except KeyError as exc:
            pytest.fail(f"{name}: counter reads {exc} but the target has no such parameter")
        read |= bound.read
    assert {"X", "db_vectors", "n_rot", "path"} <= read
