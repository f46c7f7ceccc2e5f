"""Smoke runs of the scripts under ``scripts/`` with tiny arguments."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import covagg

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, args, cwd):
    # the scripts import the same covagg package the tests do
    package_root = str(Path(covagg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_synthetic_retrieval_experiment(tmp_path):
    result = run_script(
        "synthetic_retrieval_experiment.py",
        ["--queries", "2", "--distractors", "6", "--nfreqs", "0", "3"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.strip().splitlines()[-2:]
    assert [row.split()[0] for row in rows] == ["0", "3"]
    for row in rows:
        assert 0.0 <= float(row.split()[2]) <= 1.0


def test_angle_kernel_study(tmp_path):
    out_dir = tmp_path / "study"
    result = run_script(
        "angle_kernel_study.py",
        ["--kappas", "8", "--nfreqs", "3", "--grid", "16", "--out-dir", str(out_dir)],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    summary = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "kappa,n_freq,sup_error"
    assert len(summary) == 2
    assert 0.0 <= float(summary[1].split(",")[2]) < 1.0


def test_scoring_sweep(tmp_path):
    result = run_script(
        "scoring_sweep.py",
        ["--shapes", "5x56", "3x50", "--rotations", "1", "6", "8", "--repeats", "2"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    entries = {(e["n_db"], e["dim"], e["n_rot"]): e for e in report["results"]}
    assert len(entries) == 6
    # 56 = 8 x (2 * 3 + 1) has the block layout, 50 has not
    assert [entries[(5, 56, r)]["base_rows"] for r in (1, 6, 8)] == [1, 3, 2]
    # the scorer reads turns off polynomials at 4 | R only; half turns stay timed
    turns = [entries[(5, 56, r)]["turns"] for r in (1, 6, 8)]
    assert [(t["n_turns"], t["picked"]) for t in turns] == [(1, False), (2, False), (4, True)]
    assert all("turns" not in entries[(3, 50, r)] for r in (1, 6, 8))
    for entry in entries.values():
        assert entry["rows"]["best_ms"] >= 0.0 and entry["rows"]["spread_ms"] >= 0.0


def test_encode_sweep(tmp_path):
    result = run_script(
        "encode_sweep.py", ["--rows", "3", "--blocks", "1", "2", "--repeats", "1"], tmp_path
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    shapes = {e["pipeline"]: (e["width"], e["output_dim"], e["rows"]) for e in report["results"]}
    assert shapes == {"rn": (1344, 512, 3), "power-law": (3696, 3696, 3),
                      "identity": (41888, 41888, 3)}
    for entry in report["results"]:
        assert entry["rows_bytes_block"] == max(1, report["rows_bytes"] // (8 * entry["width"]))
        assert [b["rows_per_block"] for b in entry["blocks"]] == [1, 2]
        for block in entry["blocks"]:
            assert block["best_ms"] >= 0.0 and block["spread_ms"] >= 0.0
            assert block["max_diff"] < 1e-12


def test_encode_sweep_per_image(tmp_path):
    result = run_script("encode_sweep.py", ["--per-image", "--images", "9", "--repeats", "2"], tmp_path)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert (report["images"], report["descriptors"], report["dim"]) == (9, 64, 32)
    assert report["rows_per_block"] == max(1, report["rows_bytes"] // (8 * 3696))
    assert list(report["stages"]) == ["read", "aggregate", "postprocess", "encode"]
    for stage in report["stages"].values():
        assert 0.0 < stage["best_us"] <= stage["median_us"]
    assert list(tmp_path.iterdir()) == []  # the corpus lives in a temporary directory


def test_train_memory(tmp_path):
    work = tmp_path / "work"
    result = run_script(
        "train_memory.py",
        ["--images", "24", "--descriptors", "8", "--dim", "8", "--pca-dim", "4", "--k", "2",
         "--iters", "2", "--work", str(work)],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
    assert [e["command"] for e in report["results"]] == [
        "train-pca", "train-pca --sample", "train-kmeans", "train-gmm", "encode", "train-rn"]
    assert report["baseline_rss_mb"] > 0.0
    outputs = ["pca.cvm", "pca-sample.cvm", "kmeans.cvm", "gmm.cvm", "heldout.cvv", "rn.cvm"]
    for entry, output in zip(report["results"], outputs, strict=True):
        assert entry["peak_rss_mb"] > 0.0 and entry["seconds"] > 0.0
        assert entry["sha256"] == hashlib.sha256((work / output).read_bytes()).hexdigest()
    assert len(list((work / "heldout").iterdir())) == 24
