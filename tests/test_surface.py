"""Runtime modules define only what the package, its CLI or the benchmark's tracer calls.

Every top-level function and every class method and property of each
runtime module (each file of ``src/covagg`` but ``oracle.py``) must be
referenced from a runtime module: by name, as ``module.name`` or, for
a method or property, as an attribute. ``__init__.py`` re-exports do not
count, so a function that only ``tests/``, ``covagg.oracle``,
``scripts/`` or ``perfbench/`` calls fails here unless it is a CLI
entry point, a dunder, bound by perfbench's tracer, or in ``KEPT``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covagg"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# (module, name) -> why it stays though no runtime module calls it
KEPT = {
    ("aggregate", "aggregate"): "README library quickstart",
    ("scoring", "score_cosine"): "README library quickstart",
    ("scoring", "score_polynomial"): "README library quickstart",
    ("scoring", "max_score"): "README library quickstart",
    ("scoring", "count_block_dots"): "the 1+4N block-product cost test reads it",
}


def _runtime_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracle.py"}


def _tracer_targets():
    """(module, attribute path) of each ``TARGETS`` entry, loaded without installing wrappers."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(module_name, attr_path) for _, module_name, attr_path, _ in module.TARGETS}


def _definitions(tree):
    """(path, name) of each top-level function and each method or property of a class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions):
                    yield f"{node.name}.{member.name}", member.name


def _references(modules):
    """Names read as names or as ``module.name``, and attributes read on any object."""
    names, attributes = set(), set()
    for stem, tree in modules.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    names.add(node.attr)
    return names, attributes


def _exempt(name: str) -> bool:
    return name.startswith("cmd_") or name == "main" or (
        name.startswith("__") and name.endswith("__"))


def test_every_runtime_definition_has_a_runtime_caller():
    modules = _runtime_modules()
    names, attributes = _references(modules)
    targets = _tracer_targets()
    unused = []
    for stem, tree in modules.items():
        for path, name in _definitions(tree):
            referenced = attributes if "." in path else names
            if (name in referenced or _exempt(name) or (stem, path) in targets
                    or (stem, path) in KEPT):
                continue
            unused.append(f"{stem}.{path}")
    assert not unused, f"defined in a runtime module but called by none: {unused}"


def test_every_kept_name_is_still_defined():
    modules = _runtime_modules()
    defined = {(stem, path) for stem, tree in modules.items() for path, _ in _definitions(tree)}
    assert set(KEPT) <= defined, sorted(set(KEPT) - defined)
