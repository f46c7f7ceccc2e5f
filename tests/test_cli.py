import json
import struct

import numpy as np
import pytest

from conftest import random_set
from covagg import (
    PipelineConfig,
    query_multi_rotation,
    read_descriptor_file,
    read_vector_file,
    write_descriptor_file,
    write_vector_file,
)
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


def test_query_scores_with_the_stored_config(corpus_dir, tmp_path, capsys):
    db = tmp_path / "db.cvv"
    assert main(["encode", str(corpus_dir / "database"), "--out", str(db), "--family", "phi1",
                 "--input-dim", "8", "--kappa", "8", "--adapted-power-law", "0.7"]) == 0
    query = sorted((corpus_dir / "queries").iterdir())[0]
    capsys.readouterr()
    assert main(["query", "--db", str(db), "--query-desc", str(query),
                 "--rotations", "4", "--top", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()

    config = PipelineConfig(family="phi1", input_dim=8, kappa=8.0, power_law=0.7,
                            adapted_power_law=True)
    store = read_vector_file(db)
    assert store.config == config
    scores, thetas = query_multi_rotation(
        read_descriptor_file(query), config.build(), store.vectors, 4
    )
    order = sorted(range(len(store)), key=lambda i: (-scores[i], store.image_ids[i]))
    assert lines == ["rank\timage_id\tscore\ttheta_star"] + [
        f"{rank}\t{store.image_ids[i]}\t{scores[i]:.8f}\t{thetas[i]:.8f}"
        for rank, i in enumerate(order, start=1)
    ]


@pytest.mark.parametrize(
    "flags, stored",
    [
        (["--cosine-power", "6"], {"angle_family": "von_mises", "cosine_power": None, "n_freq": 3}),
        (["--angle-family", "cosine-power", "--cosine-power", "6", "--nfreq", "1"],
         {"angle_family": "cosine_power", "cosine_power": 6, "n_freq": 3}),
    ],
)
def test_stored_angle_config_is_canonical(corpus_dir, tmp_path, flags, stored):
    db = tmp_path / "db.cvv"
    assert main(["encode", str(corpus_dir / "database"), "--out", str(db), "--family", "phi1",
                 "--input-dim", "8", *flags]) == 0
    config = read_vector_file(db).config.to_dict()
    assert {key: config[key] for key in stored} == stored


@pytest.mark.parametrize("command", ["query", "evaluate"])
def test_pipeline_flags_are_refused(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    for flag in ("--family", "--kappa", "--nfreq", "--angle-family", "--input-dim", "--pca",
                 "--codebook", "--gmm", "--power-law", "--rn ", "--truncate"):
        assert flag not in help_text
    inputs = {"query": ["--query-desc", "q.cvd"],
              "evaluate": ["--queries", "queries", "--gt", "gt.txt"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--db", "db.cvv", *inputs, "--kappa", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kappa 2" in capsys.readouterr().err


def test_model_paths_are_stored_absolute(corpus_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train-kmeans", "--train-descriptors", str(corpus_dir / "database"),
                 "--k", "4", "--seed", "5", "--out", "km.cvm"]) == 0
    assert main(["encode", str(corpus_dir / "database"), "--out", "db.cvv",
                 "--family", "vlad", "--codebook", "km.cvm"]) == 0
    assert read_vector_file("db.cvv").config.codebook_path == str(tmp_path / "km.cvm")
    monkeypatch.chdir(corpus_dir)
    query = sorted((corpus_dir / "queries").iterdir())[0]
    assert main(["query", "--db", str(tmp_path / "db.cvv"), "--query-desc", str(query)]) == 0


def test_evaluate_manifest_replay_reproduces_stdout(corpus_dir, tmp_path, capsys):
    db = tmp_path / "db.cvv"
    assert main(encode_args(corpus_dir, db)) == 0
    manifest = tmp_path / "evaluate.json"
    capsys.readouterr()
    assert main(["evaluate", "--db", str(db), "--queries", str(corpus_dir / "queries"),
                 "--gt", str(corpus_dir / "groundtruth.txt"), "--rotations", "4",
                 "--manifest", str(manifest)]) == 0
    first = capsys.readouterr().out
    assert "kappa" not in json.loads(manifest.read_text())["args"]
    assert main(["run-manifest", str(manifest)]) == 0
    assert capsys.readouterr().out == first


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
        db.write_bytes(b"CVAGVEC2" + struct.pack("<IIII", 100000, 100000, 3, 2) + b"{}")
        query = tmp_path / "q.cvd"
        write_descriptor_file(random_set(np.random.default_rng(0), 4, 8), query)
        code = main(["query", "--db", str(db), "--query-desc", str(query)])
        assert code == 2
        assert "header declares" in capsys.readouterr().err

    def test_zero_rotations_is_3(self, corpus_dir, tmp_path, capsys):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        query = sorted((corpus_dir / "queries").iterdir())[0]
        code = main(["query", "--db", str(db), "--query-desc", str(query), "--rotations", "0"])
        assert code == 3
        assert "n_rot" in capsys.readouterr().err

    def test_layout_not_matching_config_is_2(self, tmp_path, capsys):
        db = tmp_path / "db.cvv"
        write_vector_file(db, ["a"], np.ones((1, 7)), base_dim=1, n_freq=3,
                          config=PipelineConfig(family="phi1", input_dim=8))
        query = tmp_path / "q.cvd"
        write_descriptor_file(random_set(np.random.default_rng(0), 4, 8), query)
        assert main(["query", "--db", str(db), "--query-desc", str(query)]) == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("sample", ["-5", "0"])
    def test_non_positive_sample_is_3(self, corpus_dir, tmp_path, capsys, sample):
        code = main(["train-pca", "--train-descriptors", str(corpus_dir / "database"),
                     "--out-dim", "4", "--out", str(tmp_path / "pca.cvm"), "--sample", sample])
        assert code == 3
        assert "--sample must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "pca.cvm").exists()

    def test_negative_top_is_3(self, corpus_dir, tmp_path, capsys):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        query = sorted((corpus_dir / "queries").iterdir())[0]
        capsys.readouterr()
        assert main(["query", "--db", str(db), "--query-desc", str(query), "--top", "-2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--top must be non-negative" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_is_3(self, corpus_dir, tmp_path, capsys, jobs):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, tmp_path / "other.cvv", ("--jobs", jobs))) == 3
        assert not (tmp_path / "other.cvv").exists()
        assert main(encode_args(corpus_dir, db)) == 0
        capsys.readouterr()
        assert main(["evaluate", "--db", str(db), "--queries", str(corpus_dir / "queries"),
                     "--gt", str(corpus_dir / "groundtruth.txt"), "--jobs", jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs must be a positive integer" in captured.err

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
