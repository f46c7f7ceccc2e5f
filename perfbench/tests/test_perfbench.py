"""Tests for the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import layers
import measure
import run
import tracer as tracing
import workloads


def toy(name):
    spec = workloads.toy(name)
    spec["name"] = f"{name}-toy"
    return spec


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_toy_workload_passes_its_checks_traced_and_untraced(name):
    record = run.run_workload(toy(name), seed=3, seconds=0.0, trace=True)
    plain, traced = record["runs"]
    for result in record["runs"]:
        assert result["errors"] == []
        assert result["correct"] and result["failed"] == 0
    assert plain["attempted"] == traced["attempted"]
    for metric, _ in run.END_TO_END:
        assert plain["metrics"][metric] > 0, metric
    assert traced["trace"]["absent"] == [] and traced["trace"]["notes"] == []

    per_layer = record["summary"]["metrics"]
    assert [m for m in per_layer] == [m for m, _ in layers.PER_LAYER]
    value = {m: v["value"] for m, v in per_layer.items()}
    spec = toy(name)
    n_db, n_q = workloads.n_database(spec), workloads.n_queries(spec)
    n_heldout = spec["corpus"]["heldout_images"]
    # held-out files are read by train-pca, train-gmm and their encode;
    # database files once per encode, queries once, plus the re-encoded samples
    assert value["fileio.read_descriptor_file.calls"] == (
        3 * n_heldout + spec["encode_reps"] * n_db + n_q + spec["reencode_samples"]
    )
    assert value["aggregate.aggregate_rotations.calls"] == n_q
    assert value["scoring.block_dots"] == value["scoring.score_polynomial.calls"] * (
        1 + 4 * spec["pipeline"]["n_freq"]
    )
    assert value["scoring.score_polynomial.calls"] == n_q * min(spec["rescore_top"], n_db)
    if spec["training"] is not None:
        assert value["postprocess.rn_apply.calls"] > 0 and value["codebooks.gmm_train.busy_s"] > 0
        assert value["monomial.phi_monomial_batch.rows"] == 0
    else:
        assert value["postprocess.rn_apply.calls"] == 0 and value["codebooks.pca_train.busy_s"] == 0
        assert value["monomial.phi_monomial_batch.rows"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    corpus = toy(name)["corpus"]
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.write_corpus(corpus, seed, tmp_path / label)

    def contents(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    a, b, c = (contents(tmp_path / label) for label in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_self_time_subtracts_children_and_busy_counts_outermost_spans():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["c", 6.0, 8.0, 3],
        ["a", 6.5, 7.0, 4],
    ]
    stats = tracing.span_stats(spans)
    assert stats["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert stats["a"] == {"calls": 3, "busy_s": 7.0, "self_s": 4.5}
    assert stats["b"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert stats["c"] == {"calls": 1, "busy_s": 2.0, "self_s": 1.5}
    assert tracing._covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 6.0) == 4.0


def test_tracer_patches_every_lookup_site_and_reports_absent_targets():
    import covagg.cli
    import covagg.scoring

    original = covagg.scoring.query_multi_rotation
    t = tracing.Tracer()
    targets = tracing.TARGETS + (("scoring.gone", "scoring", "no_such_function", None),
                                 ("gone.module", "no_such_module", "f", None))
    absent, uninstall = tracing.install(t, targets)
    try:
        assert absent == ["scoring.gone", "gone.module"]
        assert covagg.cli.query_multi_rotation is covagg.scoring.query_multi_rotation
        assert covagg.scoring.query_multi_rotation is not original
    finally:
        uninstall()
    assert covagg.scoring.query_multi_rotation is original
    assert covagg.cli.query_multi_rotation is original


def test_corrupted_vector_file_is_a_failed_operation(tmp_path, monkeypatch):
    import covagg.fileio

    spec = toy("phi2-bigdb")
    gen.write_corpus(spec["corpus"], 4, tmp_path / "corpus")
    (tmp_path / "work").mkdir()
    write = covagg.fileio.write_vector_file

    def write_then_truncate(path, *args, **kwargs):
        write(path, *args, **kwargs)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])

    monkeypatch.setattr(covagg.fileio, "write_vector_file", write_then_truncate)
    result = measure.run(spec, tmp_path / "corpus", tmp_path / "work", 4, 0.0)
    n_q = workloads.n_queries(spec)
    assert not result["correct"]
    assert result["attempted"] == 2 + n_q
    assert result["failed"] == 1 + n_q
    assert result["errors"][0].startswith("load: FormatError")


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phi3-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
