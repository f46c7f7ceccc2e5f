"""In-memory span tracer that wraps covagg's public functions from outside.

Nothing under ``src/`` knows about tracing. ``install`` replaces each
target function with a wrapper everywhere a caller looks it up: every
``covagg.*`` module attribute bound to the original object (for example
both ``covagg.scoring.query_multi_rotation`` and
``covagg.cli.query_multi_rotation``), or the class attribute for a
method. A target that no longer exists is reported as absent and skipped.

A span is ``[name, start, end, parent]``; the parent is the index of the
enclosing span, so spans of one query hang under that query's root span.
A span's self time is its duration minus the part of it covered by its
child spans; busy time counts only the outermost span of a name, so a
function reached through itself is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and counters kept in memory until ``write``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self.notes = []
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans) -> dict:
    """Per span name: calls, busy_s (outermost spans only) and self_s."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += duration - _covered(children[index], start, end)
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["busy_s"] += duration
    return dict(stats)


# ---------------------------------------------------------------------------
# counters computed at the wrapped boundary from the call's arguments


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _bytes_read(tracer, bound, result):
    tracer.add("fileio.bytes_read", _file_size(bound["path"]))


def _bytes_written(tracer, bound, result):
    tracer.add("fileio.bytes_written", _file_size(bound["path"]))


def _rows(counter):
    def count(tracer, bound, result):
        tracer.add(counter, len(bound["X"]))

    return count


def _matmul_cost(tracer, bound, result):
    db = bound["db_vectors"]
    n_db, dim = len(db), len(db[0])
    tracer.add("scoring.query_multi_rotation.flops", 2.0 * bound["n_rot"] * dim * n_db)
    tracer.add("scoring.query_multi_rotation.bytes", 8.0 * dim * n_db)


def _block_dots(tracer, bound, result):
    # 1 + 4N base-dim products per polynomial, from the call count; the
    # package's own block-dot counter is test instrumentation.
    tracer.add("scoring.block_dots", 1 + 4 * bound["X"].n_freq)


# (span name, module under covagg, attribute path, counter or None)
TARGETS = (
    ("fileio.read_descriptor_file", "fileio", "read_descriptor_file", _bytes_read),
    ("fileio.read_vector_file", "fileio", "read_vector_file", _bytes_read),
    ("fileio.load_model", "fileio", "load_model", _bytes_read),
    ("fileio.write_vector_file", "fileio", "write_vector_file", _bytes_written),
    ("fileio.save_model", "fileio", "save_model", _bytes_written),
    ("cli.encode", "cli", "cmd_encode", None),
    ("pipeline.build", "pipeline", "PipelineConfig.build", None),
    ("pipeline.prepare", "pipeline", "Pipeline.prepare", None),
    ("pipeline.encode", "pipeline", "Pipeline.encode", None),
    ("pipeline.encode_rotations", "pipeline", "Pipeline.encode_rotations", None),
    ("monomial.phi_monomial_batch", "monomial", "phi_monomial_batch",
     _rows("monomial.phi_monomial_batch.rows")),
    ("descriptors.embed_batch", "descriptors", "embed_batch",
     _rows("descriptors.embed_batch.rows")),
    ("angle_map.angle_feature_batch", "angle_map", "angle_feature_batch", None),
    ("aggregate.aggregate", "aggregate", "aggregate", None),
    ("aggregate.aggregate_rotations", "aggregate", "aggregate_rotations", None),
    ("postprocess.power_law", "postprocess", "power_law", None),
    ("postprocess.adapted_power_law", "postprocess", "adapted_power_law", None),
    ("postprocess.rn_apply", "postprocess", "rn_apply", None),
    ("postprocess.truncate_l2", "postprocess", "truncate_l2", None),
    ("postprocess.rn_train", "postprocess", "rn_train", None),
    ("scoring.query_multi_rotation", "scoring", "query_multi_rotation", _matmul_cost),
    ("scoring.score_polynomial", "scoring", "score_polynomial", _block_dots),
    ("scoring.max_score", "scoring", "max_score", None),
    ("retrieval.rank_by_score", "retrieval", "rank_by_score", None),
    ("retrieval.average_precision", "retrieval", "average_precision", None),
    ("codebooks.pca_train", "codebooks", "pca_train", None),
    ("codebooks.gmm_train", "codebooks", "gmm_train", None),
)


def _wrap(tracer, name, fn, counter):
    signature = inspect.signature(fn) if counter is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, result)
            except (KeyError, TypeError, AttributeError, IndexError) as exc:
                tracer.notes.append(f"{name}: counter unavailable ({exc})")
        return result

    return wrapper


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target; returns (absent target names, undo callable)."""
    modules = [m for key, m in list(sys.modules.items()) if key == "covagg" or key.startswith("covagg.")]
    absent, undo = [], []
    for name, module_name, attr_path, counter in targets:
        owner = sys.modules.get(f"covagg.{module_name}")
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            absent.append(name)
            continue
        wrapper = _wrap(tracer, name, original, counter)
        if owner_path:
            sites = [(owner, attr)]
        else:
            sites = [
                (module, key)
                for module in modules
                for key, value in list(vars(module).items())
                if value is original
            ]
        for site, key in sites:
            setattr(site, key, wrapper)
            undo.append((site, key, original))

    def uninstall():
        for site, key, original in reversed(undo):
            setattr(site, key, original)

    return absent, uninstall
