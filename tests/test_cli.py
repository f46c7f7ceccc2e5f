import json
import struct

import numpy as np
import pytest

from conftest import random_set
from covagg import read_vector_file, write_descriptor_file
from covagg.cli import main


@pytest.fixture
def corpus_dir(tmp_path):
    code = main(
        [
            "synth", "--out-dir", str(tmp_path / "corpus"),
            "--queries", "4", "--matches", "2", "--distractors", "10",
            "--descriptors", "12", "--dim", "8", "--seed", "3",
            "--shared-fraction", "0.9", "--noise-sigma", "0.05",
        ]
    )
    assert code == 0
    return tmp_path / "corpus"


def encode_args(corpus_dir, out, extra=()):
    return [
        "encode", str(corpus_dir / "database"), "--out", str(out),
        "--family", "phi1", "--input-dim", "8", "--kappa", "8", "--nfreq", "3",
        "--power-law", "0.2", *extra,
    ]


def test_synth_layout(corpus_dir):
    assert len(list((corpus_dir / "queries").iterdir())) == 4
    assert len(list((corpus_dir / "database").iterdir())) == 4 * 2 + 10
    assert (corpus_dir / "groundtruth.txt").exists()


def test_encode_query_evaluate_round(corpus_dir, tmp_path, capsys):
    db_path = tmp_path / "db.cvv"
    assert main(encode_args(corpus_dir, db_path)) == 0
    capsys.readouterr()

    store = read_vector_file(db_path)
    assert len(store) == 18
    assert store.base_dim == 8 and store.n_freq == 3

    query_file = sorted((corpus_dir / "queries").iterdir())[0]
    code = main(
        [
            "query", "--db", str(db_path), "--query-desc", str(query_file),
            "--rotations", "8", "--top", "5",
            "--family", "phi1", "--input-dim", "8", "--power-law", "0.2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["rank", "image_id", "score", "theta_star"]
    assert len(lines) == 6
    first = lines[1].split("\t")
    assert first[0] == "1"
    # the planted matches for query000 should surface on top
    assert first[1].startswith("match000")

    code = main(
        [
            "evaluate", "--db", str(db_path),
            "--queries", str(corpus_dir / "queries"),
            "--gt", str(corpus_dir / "groundtruth.txt"),
            "--rotations", "8",
            "--family", "phi1", "--input-dim", "8", "--power-law", "0.2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("mAP\t")
    assert 0.0 <= float(out[-1].split("\t")[1]) <= 1.0
    assert len(out) == 5  # four queries + the summary line


def test_manifest_replay_is_bit_identical(corpus_dir, tmp_path, capsys):
    out_a = tmp_path / "a.cvv"
    manifest = tmp_path / "encode.json"
    assert main(encode_args(corpus_dir, out_a, ("--manifest", str(manifest)))) == 0
    payload = json.loads(manifest.read_text())
    assert payload["command"] == "encode"

    # replay into a different output location
    out_b = tmp_path / "b.cvv"
    payload["args"]["out"] = str(out_b)
    manifest.write_text(json.dumps(payload))
    assert main(["run-manifest", str(manifest)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_encode_parallel_matches_serial(corpus_dir, tmp_path):
    serial = tmp_path / "serial.cvv"
    parallel = tmp_path / "parallel.cvv"
    assert main(encode_args(corpus_dir, serial)) == 0
    assert main(encode_args(corpus_dir, parallel, ("--jobs", "4"))) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_train_commands_produce_models(corpus_dir, tmp_path, capsys):
    db_dir = str(corpus_dir / "database")
    pca_path = tmp_path / "pca.cvm"
    km_path = tmp_path / "km.cvm"
    gmm_path = tmp_path / "gmm.cvm"
    assert main(["train-pca", "--train-descriptors", db_dir,
                 "--out-dim", "4", "--out", str(pca_path)]) == 0
    assert main(["train-kmeans", "--train-descriptors", db_dir, "--k", "4",
                 "--seed", "5", "--out", str(km_path)]) == 0
    assert main(["train-gmm", "--train-descriptors", db_dir, "--k", "2",
                 "--seed", "5", "--out", str(gmm_path)]) == 0

    vec_path = tmp_path / "vlad.cvv"
    assert main([
        "encode", db_dir, "--out", str(vec_path),
        "--family", "vlad", "--codebook", str(km_path), "--power-law", "0.4",
    ]) == 0
    store = read_vector_file(vec_path)
    assert store.base_dim == 4 * 8

    rn_path = tmp_path / "rn.cvm"
    with pytest.warns(UserWarning, match="sample span"):
        assert main(["train-rn", "--vectors", str(vec_path), "--out", str(rn_path)]) == 0

    fisher_path = tmp_path / "fisher.cvv"
    assert main([
        "encode", db_dir, "--out", str(fisher_path),
        "--family", "fisher", "--gmm", str(gmm_path),
        "--adapted-power-law", "0.4", "--truncate", "16",
    ]) == 0
    store = read_vector_file(fisher_path)
    assert store.dim == 16
    assert store.n_freq == 0  # truncation flattens the block layout


def test_angle_kernel_dump(tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    assert main(["angle-kernel-dump", "--kappa", "8", "--nfreq", "3",
                 "--grid", "11", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,k_vm,k_bar"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-np.pi)
    assert float(first[1]) == pytest.approx(0.0, abs=1e-9)


def test_angle_kernel_dump_cosine_power(tmp_path):
    out = tmp_path / "cp.csv"
    assert main(["angle-kernel-dump", "--angle-family", "cosine-power",
                 "--cosine-power", "4", "--grid", "9", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    for line in lines[1:]:
        delta, target, series = map(float, line.split(","))
        assert target == pytest.approx(np.cos(delta / 2.0) ** 4, abs=1e-10)
        assert series == pytest.approx(target, abs=1e-10)  # expansion is exact


def test_sim_hist_command(tmp_path, capsys, rng):
    a = random_set(rng, 20, 8, "a")
    b = random_set(rng, 20, 8, "b")
    pa, pb = tmp_path / "a.cvd", tmp_path / "b.cvd"
    write_descriptor_file(a, pa)
    write_descriptor_file(b, pb)
    out = tmp_path / "hist.csv"
    assert main(["sim-hist", "--a", str(pa), "--b", str(pb),
                 "--bins", "8", "--value-bins", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 8 * 5
    counts = sum(int(line.split(",")[5]) for line in lines[1:])
    assert counts == 20


class TestExitCodes:
    def test_format_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cvd"
        bad.write_bytes(b"garbage!")
        code = main(["encode", str(bad), "--out", str(tmp_path / "o.cvv"),
                     "--family", "phi1", "--input-dim", "8"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_contract_error_is_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.cvd"
        from covagg import DescriptorSet
        write_descriptor_file(DescriptorSet(np.empty((0, 8)), np.empty(0)), empty)
        code = main(["encode", str(empty), "--out", str(tmp_path / "o.cvv"),
                     "--family", "phi1", "--input-dim", "8"])
        assert code == 3

    def test_degenerate_data_is_4(self, tmp_path, capsys):
        from covagg import DescriptorSet
        x = np.zeros((2, 4))
        x[0, 0] = 1.0
        x[1, 0] = -1.0
        cancel = tmp_path / "cancel.cvd"
        write_descriptor_file(DescriptorSet(x, [0.5, 0.5]), cancel)
        code = main(["encode", str(cancel), "--out", str(tmp_path / "o.cvv"),
                     "--family", "phi1", "--input-dim", "4", "--nfreq", "0"])
        assert code == 4

    def test_oversized_vector_header_is_2(self, tmp_path, capsys):
        db = tmp_path / "huge.cvv"
        db.write_bytes(b"CVAGVEC1" + struct.pack("<IIII", 100000, 100000, 3, 1))
        query = tmp_path / "q.cvd"
        write_descriptor_file(random_set(np.random.default_rng(0), 4, 8), query)
        code = main(["query", "--db", str(db), "--query-desc", str(query),
                     "--family", "phi1", "--input-dim", "8"])
        assert code == 2
        assert "header declares" in capsys.readouterr().err

    def test_zero_rotations_is_3(self, corpus_dir, tmp_path, capsys):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        query = sorted((corpus_dir / "queries").iterdir())[0]
        code = main(["query", "--db", str(db), "--query-desc", str(query), "--rotations", "0",
                     "--family", "phi1", "--input-dim", "8", "--power-law", "0.2"])
        assert code == 3
        assert "n_rot" in capsys.readouterr().err

    def test_missing_input_is_3(self, tmp_path, capsys):
        code = main(["encode", str(tmp_path / "nope.cvd"),
                     "--out", str(tmp_path / "o.cvv"),
                     "--family", "phi1", "--input-dim", "8"])
        assert code == 3

    def test_missing_model_file_is_clean_error(self, corpus_dir, tmp_path, capsys):
        code = main(["encode", str(corpus_dir / "database"),
                     "--out", str(tmp_path / "o.cvv"),
                     "--family", "vlad", "--codebook", str(tmp_path / "nope.cvm")])
        assert code == 3
        err = capsys.readouterr().err
        assert "covagg: error" in err and "nope.cvm" in err
