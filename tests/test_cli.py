import json
import struct
import sys
import threading

import numpy as np
import pytest

from conftest import random_set
from covagg import (
    DescriptorSet,
    GmmModel,
    PcaModel,
    PipelineConfig,
    load_model,
    pca_train,
    preprocess_batch,
    query_multi_rotation,
    read_descriptor_file,
    read_vector_file,
    rootsift_batch,
    save_model,
    wrap_angle,
    write_descriptor_file,
    write_vector_file,
)
from covagg import cli
from covagg.cli import main
from covagg.fileio import MODEL_MAGIC, VECTOR_MAGIC


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


# magic, kind tag, then u32 dimension count and two dims
MODEL_HEADER = len(MODEL_MAGIC) + 4 + 12


def encode_args(corpus_dir, out, extra=()):
    return [
        "encode", str(corpus_dir / "database"), "--out", str(out),
        "--family", "phi1", "--input-dim", "8", "--kappa", "8", "--nfreq", "3",
        "--power-law", "0.2", *extra,
    ]


def edit_stored_config(path, **changes):
    """Rewrite the config of a vector file in place, bypassing ``PipelineConfig``."""
    data = path.read_bytes()
    start = len(VECTOR_MAGIC) + 16
    (length,) = struct.unpack_from("<I", data, start - 4)
    config = json.dumps({**json.loads(data[start : start + length]), **changes}).encode()
    path.write_bytes(
        data[: start - 4] + struct.pack("<I", len(config)) + config + data[start + length :]
    )


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


def test_non_utf8_ground_truth_is_2(corpus_dir, tmp_path, capsys):
    db = tmp_path / "db.cvv"
    assert main(encode_args(corpus_dir, db)) == 0
    gt = tmp_path / "gt.txt"
    gt.write_bytes(b"\xff\n")
    assert main(["evaluate", "--db", str(db), "--queries", str(corpus_dir / "queries"),
                 "--gt", str(gt)]) == 2
    assert "gt.txt: not UTF-8" in capsys.readouterr().err


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


def test_covariant_query_matches_rotated_rows(corpus_dir, tmp_path, capsys):
    db = tmp_path / "db.cvv"
    assert main(["encode", str(corpus_dir / "database"), "--out", str(db), "--family", "phi3",
                 "--input-dim", "8", "--adapted-power-law", "0.2"]) == 0
    query = sorted((corpus_dir / "queries").iterdir())[1]
    capsys.readouterr()
    assert main(["query", "--db", str(db), "--query-desc", str(query),
                 "--rotations", "8", "--top", "0"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]

    store = read_vector_file(db)
    pipeline = store.config.build()
    assert pipeline.commuting_turns(8) == 8
    grid = 2.0 * np.pi * np.arange(8) / 8
    by_rotation = pipeline.encode_rotations(read_descriptor_file(query), grid) @ store.vectors.T
    scores = by_rotation.max(axis=0)
    thetas = wrap_angle(grid[np.argmax(by_rotation, axis=0)])
    order = sorted(range(len(store)), key=lambda i: (-scores[i], store.image_ids[i]))
    assert [row[1] for row in rows] == [store.image_ids[i] for i in order]
    assert [row[3] for row in rows] == [f"{thetas[i]:.8f}" for i in order]
    assert max(abs(float(row[2]) - scores[i]) for row, i in zip(rows, order)) < 1e-8


@pytest.mark.parametrize(
    "flags, stored",
    [
        (["--kappa", "4", "--nfreq", "2"],
         {"angle_family": "von_mises", "kappa": 4.0, "cosine_power": None, "n_freq": 2}),
        (["--angle-family", "cosine-power", "--cosine-power", "6"],
         {"angle_family": "cosine_power", "cosine_power": 6, "n_freq": 3, "kappa": 8.0}),
    ],
)
def test_stored_angle_config_is_canonical(corpus_dir, tmp_path, flags, stored):
    db = tmp_path / "db.cvv"
    assert main(["encode", str(corpus_dir / "database"), "--out", str(db), "--family", "phi1",
                 "--input-dim", "8", *flags]) == 0
    config = read_vector_file(db).config.to_dict()
    assert {key: config[key] for key in stored} == stored


def angle_command(corpus_dir, command):
    """Arguments of ``command`` short of its angle flags and ``--out``."""
    query = str(sorted((corpus_dir / "queries").iterdir())[0])
    return {
        "encode": ["encode", str(corpus_dir / "database"), "--family", "phi1",
                   "--input-dim", "8"],
        "angle-kernel-dump": ["angle-kernel-dump"],
        "sim-hist": ["sim-hist", "--a", query, "--b", query],
    }[command]


@pytest.mark.parametrize("command", ["encode", "angle-kernel-dump", "sim-hist"])
def test_cosine_power_without_its_family_is_3(corpus_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = angle_command(corpus_dir, command)
    capsys.readouterr()
    assert main([*argv, "--out", str(out), "--cosine-power", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cosine-power is read only with --angle-family cosine-power" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--nfreq", "1"), ("--kappa", "4")])
@pytest.mark.parametrize("command", ["encode", "angle-kernel-dump", "sim-hist"])
def test_von_mises_flag_with_cosine_power_is_3(corpus_dir, tmp_path, capsys, command, flag,
                                                value):
    out = tmp_path / "out"
    argv = angle_command(corpus_dir, command)
    capsys.readouterr()
    assert main([*argv, "--out", str(out), "--angle-family", "cosine-power",
                 "--cosine-power", "6", flag, value]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} is read only with --angle-family von-mises" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--nfreq", str(10**13)], f"n_freq must be an integer in [0, 64], got {10**13}"),
     (["--angle-family", "cosine-power", "--cosine-power", str(2 * 10**13)],
      f"cosine-power family needs an even power in [2, 128], got {2 * 10**13}")],
    ids=["nfreq", "cosine-power"],
)
@pytest.mark.parametrize("command", ["encode", "angle-kernel-dump", "sim-hist"])
def test_frequency_count_above_the_bound_is_3(corpus_dir, tmp_path, capsys, command, flags,
                                              message):
    out = tmp_path / "out"
    argv = angle_command(corpus_dir, command)
    capsys.readouterr()
    assert main([*argv, "--out", str(out), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["angle-kernel-dump", "--grid", str(10**13)],
     ["sim-hist", "--bins", str(10**7), "--value-bins", str(10**7)],
     ["synth", "--descriptors", str(10**13)]],
    ids=["grid", "sim-hist-bins", "synth-descriptors"],
)
def test_size_too_large_to_allocate_is_one_error_line(corpus_dir, tmp_path, capsys, command):
    # each size fails numpy's first allocation at once, before any work is done
    query = str(sorted((corpus_dir / "queries").iterdir())[0])
    inputs = {"angle-kernel-dump": [], "sim-hist": ["--a", query, "--b", query],
              "synth": ["--out-dir", str(tmp_path / "synth")]}[command[0]]
    capsys.readouterr()
    assert main([*command, *inputs]) == 3
    err = capsys.readouterr().err
    assert err.startswith("covagg: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--no-power-law", "--power-law", "0.3"],
        ["--power-law", "0.3", "--adapted-power-law", "0.5"],
        ["--no-power-law", "--adapted-power-law", "0.5"],
    ],
    ids=["none-and-plain", "plain-and-adapted", "none-and-adapted"],
)
def test_conflicting_power_law_flags_are_2(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["encode", str(tmp_path / "x.cvd"), "--out", str(tmp_path / "o.cvv"),
              "--family", "phi1", "--input-dim", "8", *flags])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, flags, stored",
    [
        ("phi1", [], 0.2),
        ("vlad", [], 0.4),
        ("phi1", ["--no-power-law"], None),
    ],
    ids=["phi1-default", "vlad-default", "phi1-none"],
)
def test_encode_stores_the_resolved_power_law(corpus_dir, tmp_path, family, flags, stored):
    db_dir = str(corpus_dir / "database")
    if family == "vlad":
        assert main(["train-kmeans", "--train-descriptors", db_dir, "--k", "4",
                     "--seed", "5", "--out", str(tmp_path / "km.cvm")]) == 0
        model_flags = ["--codebook", str(tmp_path / "km.cvm")]
    else:
        model_flags = ["--input-dim", "8"]
    db = tmp_path / "db.cvv"
    assert main(["encode", db_dir, "--out", str(db), "--family", family,
                 *model_flags, *flags]) == 0
    config = read_vector_file(db).config
    assert config.power_law == stored
    assert config.build().power_exponent == stored


def test_vlad_recipe_on_a_reduced_pca(corpus_dir, tmp_path):
    db_dir = str(corpus_dir / "database")
    pca, km = str(tmp_path / "pca.cvm"), str(tmp_path / "km.cvm")
    assert main(["train-pca", "--train-descriptors", db_dir, "--out-dim", "4",
                 "--out", pca]) == 0
    assert main(["train-kmeans", "--train-descriptors", db_dir, "--k", "3", "--seed", "0",
                 "--out", km, "--pca", pca]) == 0
    db = tmp_path / "db.cvv"
    assert main(["encode", db_dir, "--out", str(db), "--family", "vlad",
                 "--pca", pca, "--codebook", km, "--power-law", "0.4"]) == 0
    assert read_vector_file(db).base_dim == 3 * 4


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
    assert main(encode_args(corpus_dir, serial, ("--jobs", "1"))) == 0
    # worker threads write their rows of one shared matrix; switch threads
    # often so a lost or misplaced row write would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for jobs in ("2", "4"):
            parallel = tmp_path / f"jobs{jobs}.cvv"
            assert main(encode_args(corpus_dir, parallel, ("--jobs", jobs))) == 0
            assert serial.read_bytes() == parallel.read_bytes()
    finally:
        sys.setswitchinterval(interval)
    store = read_vector_file(serial)
    paths = sorted((corpus_dir / "database").iterdir())
    assert store.image_ids == [p.stem for p in paths]
    pipeline = store.config.build()
    for row, path in enumerate(paths):
        expected = pipeline.encode(read_descriptor_file(path)).astype(np.float32)
        assert np.array_equal(store.vectors[row], expected)


@pytest.mark.parametrize(
    "flags, turns",
    [(["--power-law", "0.2"], 4), (["--power-law", "0.2", "--truncate", "40"], 1)],
    ids=["quarter-turn-coefficients", "truncated-rotated-rows"],
)
def test_evaluate_prints_the_same_on_any_jobs(corpus_dir, tmp_path, capsys, monkeypatch, flags,
                                              turns):
    db = tmp_path / "db.cvv"
    assert main(["encode", str(corpus_dir / "database"), "--out", str(db), "--family", "phi1",
                 "--input-dim", "8", *flags]) == 0
    assert read_vector_file(db).config.build().commuting_turns(8) == turns
    started = []
    thread_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    printed = {}
    try:
        for jobs in (1, 2, 4):
            started.clear()
            capsys.readouterr()
            assert main(["evaluate", "--db", str(db), "--queries", str(corpus_dir / "queries"),
                         "--gt", str(corpus_dir / "groundtruth.txt"), "--rotations", "8",
                         "--jobs", str(jobs)]) == 0
            printed[jobs] = capsys.readouterr().out
            # --jobs 1 runs on the caller's thread; more start at most --jobs threads
            assert (len(started) > 0) == (jobs > 1) and len(started) <= jobs
    finally:
        sys.setswitchinterval(interval)
    assert printed[1].count("\n") == 5  # four queries and the mAP line
    assert printed[2] == printed[1] and printed[4] == printed[1]


def test_rn_store_encodes_the_same_in_blocks_on_any_jobs(corpus_dir, tmp_path, monkeypatch):
    db_dir = str(corpus_dir / "database")
    pca, gmm, rn = (tmp_path / name for name in ("pca.cvm", "gmm.cvm", "rn.cvm"))
    assert main(["train-pca", "--train-descriptors", db_dir, "--out-dim", "4",
                 "--out", str(pca)]) == 0
    assert main(["train-gmm", "--train-descriptors", db_dir, "--pca", str(pca), "--k", "2",
                 "--seed", "5", "--out", str(gmm)]) == 0
    fisher = ["--family", "fisher", "--pca", str(pca), "--gmm", str(gmm), "--power-law", "0.4"]
    assert main(["encode", db_dir, "--out", str(tmp_path / "heldout.cvv"), *fisher]) == 0
    with pytest.warns(UserWarning, match="sample span"):
        assert main(["train-rn", "--vectors", str(tmp_path / "heldout.cvv"),
                     "--out", str(rn)]) == 0
    flags = [*fisher, "--rn", str(rn), "--truncate", "16"]
    paths = sorted((corpus_dir / "database").iterdir())
    assert len(paths) == 18
    # 2 * 4 * 7 = 56 encoded dims; 17-row blocks leave one image for the last block
    for block_rows in (1, 2, 17):
        monkeypatch.setattr(cli, "ROWS_BYTES", block_rows * 8 * 56)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in ("1", "2"):
                assert main(["encode", db_dir, "--out", str(tmp_path / f"jobs{jobs}.cvv"),
                             "--jobs", jobs, *flags]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert (tmp_path / "jobs2.cvv").read_bytes() == (tmp_path / "jobs1.cvv").read_bytes()
        store = read_vector_file(tmp_path / "jobs1.cvv")
        assert store.image_ids == [p.stem for p in paths] and store.vectors.shape == (18, 16)
        pipeline = store.config.build()
        for row, path in enumerate(paths):
            expected = pipeline.encode(read_descriptor_file(path))
            assert np.max(np.abs(store.vectors[row] - expected)) < 1e-6


@pytest.mark.parametrize(
    "edit, message",
    [({"no_power_law": True, "power_law": 0.3}, "not allowed with argument"),
     ({"family": "phi9"}, "invalid choice"),
     ({"nfreq": "three"}, "invalid int value"),
     ({"jobs": 2.0}, "invalid int value"),
     ({"no_power_law": "yes"}, "must be true or false"),
     ({"colour": "red"}, "unknown encode arguments"),
     ({"kappa": [8.0, 4.0]}, "must be a single value"),
     ({"descriptors": "database"}, "must be a list")],
    ids=["exclusive-flags", "bad-choice", "bad-type", "float-for-int", "non-bool-flag",
         "unknown-key", "list-for-value", "value-for-list"],
)
def test_manifest_replay_runs_the_parser_checks(corpus_dir, tmp_path, capsys, edit, message):
    manifest = tmp_path / "encode.json"
    assert main(encode_args(corpus_dir, tmp_path / "a.cvv", ("--manifest", str(manifest)))) == 0
    payload = json.loads(manifest.read_text())
    payload["args"].update(edit, out=str(tmp_path / "b.cvv"))
    manifest.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["run-manifest", str(manifest)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.cvv").exists()


@pytest.mark.parametrize("text", ["{not json", "[]", '{"command": "encode", "args": []}'])
def test_malformed_manifest_is_2(tmp_path, capsys, text):
    manifest = tmp_path / "bad.json"
    manifest.write_text(text)
    assert main(["run-manifest", str(manifest)]) == 2
    assert "manifest" in capsys.readouterr().err


def test_query_and_train_manifests_replay_exactly(corpus_dir, tmp_path, capsys):
    db = tmp_path / "db.cvv"
    assert main(encode_args(corpus_dir, db)) == 0
    query = sorted((corpus_dir / "queries").iterdir())[0]
    capsys.readouterr()
    assert main(["query", "--db", str(db), "--query-desc", str(query), "--rotations", "4",
                 "--top", "0", "--manifest", str(tmp_path / "query.json")]) == 0
    first = capsys.readouterr().out
    assert main(["run-manifest", str(tmp_path / "query.json")]) == 0
    assert capsys.readouterr().out == first

    pca = tmp_path / "pca.cvm"
    assert main(["train-pca", "--train-descriptors", str(corpus_dir / "database"),
                 str(corpus_dir / "queries"), "--out-dim", "4", "--sample", "100",
                 "--out", str(pca), "--manifest", str(tmp_path / "pca.json")]) == 0
    trained = pca.read_bytes()
    pca.unlink()
    assert main(["run-manifest", str(tmp_path / "pca.json")]) == 0
    assert pca.read_bytes() == trained


@pytest.mark.parametrize("argv", [
    ["train-gmm", "--k", "2", "--iters", "-1"],
    ["train-pca", "--out-dim", "4", "--sample", "0"],
])
def test_refused_command_writes_no_manifest(corpus_dir, tmp_path, capsys, argv):
    manifest = tmp_path / "m.json"
    assert main([*argv, "--train-descriptors", str(corpus_dir / "database"),
                 "--out", str(tmp_path / "model.cvm"), "--manifest", str(manifest)]) == 3
    assert not manifest.exists()
    assert not (tmp_path / "model.cvm").exists()


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


@pytest.fixture(scope="module")
def staged_corpus(tmp_path_factory):
    """Raw files of 1, 3 and 17 descriptors (and one empty one), more than
    3 * TRAIN_CHUNK rows in all, their RootSIFT blocks as read, and a PCA model."""
    root = tmp_path_factory.mktemp("staged")
    corpus = root / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(7)
    sizes = [1, 3, 17] * (3 * cli.TRAIN_CHUNK // 21 + 20) + [0]
    blocks = []
    for i, n in enumerate(sizes):
        raw = rng.gamma(0.5, 1.0, (n, 16)) + 1e-3
        path = corpus / f"f{i:05d}.cvd"
        write_descriptor_file(DescriptorSet(raw, rng.uniform(-3, 3, n), image_id=f"f{i}", raw=True), path)
        if n:
            blocks.append(rootsift_batch(read_descriptor_file(path).descriptors))
    pca = root / "pca.cvm"
    save_model(pca, pca_train(np.vstack(blocks), 6))
    return corpus, pca, blocks


@pytest.mark.parametrize("sample", [None, 5000], ids=["all", "sample"])
@pytest.mark.parametrize("with_pca", [False, True], ids=["rootsift", "pca"])
def test_training_matrix_is_the_stacked_formula_bit_for_bit(staged_corpus, monkeypatch,
                                                            with_pca, sample):
    corpus, pca, blocks = staged_corpus
    argv = ["train-gmm", "--train-descriptors", str(corpus), "--k", "2", "--out", "gmm.cvm",
            "--seed", "4"]
    argv += ["--pca", str(pca)] if with_pca else []
    argv += ["--sample", str(sample)] if sample else []
    calls = []

    def counted(X, model):
        calls.append(X.shape[0])
        return preprocess_batch(X, model)

    monkeypatch.setattr(cli, "preprocess_batch", counted)
    data = cli._load_training_matrix(cli.build_parser().parse_args(argv))

    # the whole corpus stacked, projected in one call, then sampled
    expected = np.vstack(blocks)
    if with_pca:
        expected = preprocess_batch(expected, load_model(pca, PcaModel))
    if sample:
        keep = np.random.default_rng(4).choice(expected.shape[0], size=sample, replace=False)
        expected = expected[np.sort(keep)]
    assert data.shape == expected.shape
    assert data.tobytes() == expected.tobytes()
    if with_pca:
        assert len(calls) > 2 and min(calls) >= cli.TRAIN_CHUNK
        assert sum(calls) == sum(block.shape[0] for block in blocks)
    else:
        assert calls == []


def test_corpus_smaller_than_a_chunk_is_projected_in_one_call(staged_corpus, tmp_path, monkeypatch):
    corpus, pca, _ = staged_corpus
    calls = []

    def counted(X, model):
        calls.append(X.shape[0])
        return preprocess_batch(X, model)

    monkeypatch.setattr(cli, "preprocess_batch", counted)
    files = sorted(corpus.iterdir())[:30]  # 210 descriptors
    args = cli.build_parser().parse_args(["train-gmm", "--train-descriptors", *map(str, files),
                                          "--k", "2", "--pca", str(pca), "--out", "gmm.cvm"])
    assert cli._load_training_matrix(args).shape == (210, 6)
    assert calls == [210]


@pytest.mark.parametrize("pca", ["missing.cvm", "corpus"], ids=["missing-pca", "not-a-model"])
def test_later_file_fault_is_reported_before_a_pca_fault(staged_corpus, tmp_path, capsys, pca):
    # the model is first needed after 2 * TRAIN_CHUNK rows, long before the cut last file
    corpus, _, _ = staged_corpus
    cut = tmp_path / "cut.cvd"
    cut.write_bytes(sorted(corpus.iterdir())[0].read_bytes()[:-3])
    pca_path = tmp_path / pca
    if pca == "corpus":
        pca_path.write_bytes(b"not a model")
    code = main(["train-gmm", "--train-descriptors", str(corpus), str(cut), "--k", "2",
                 "--pca", str(pca_path), "--out", str(tmp_path / "gmm.cvm")])
    assert code == 2
    assert f"{cut}: truncated while reading record" in capsys.readouterr().err


@pytest.mark.parametrize("with_pca", [False, True], ids=["rootsift", "pca"])
def test_training_files_of_another_dim_are_3_after_every_file_is_read(staged_corpus, tmp_path,
                                                                      capsys, with_pca):
    corpus, pca, _ = staged_corpus
    other = tmp_path / "other.cvd"
    write_descriptor_file(DescriptorSet(np.ones((2, 8)), np.zeros(2), image_id="o", raw=True), other)
    cut = tmp_path / "cut.cvd"
    cut.write_bytes(other.read_bytes()[:-3])

    def train(*paths):
        return main(["train-gmm", "--k", "2", "--out", str(tmp_path / "gmm.cvm"),
                     *(["--pca", str(pca)] if with_pca else []),
                     "--train-descriptors", *map(str, paths)])

    assert train(other, corpus) == 3
    assert f"{corpus}/f00000.cvd: descriptor dim 16 differs from the 8 of earlier files" in (
        capsys.readouterr().err)
    assert train(other, corpus, cut) == 2
    assert f"{cut}: truncated while reading record" in capsys.readouterr().err


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
        assert "--rotations must be a positive integer" in capsys.readouterr().err

    def test_empty_query_file_is_3_and_named(self, corpus_dir, tmp_path, capsys):
        from covagg import DescriptorSet
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        empty = tmp_path / "empty.cvd"
        write_descriptor_file(DescriptorSet(np.empty((0, 8)), np.empty(0)), empty)
        capsys.readouterr()
        assert main(["query", "--db", str(db), "--query-desc", str(empty)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{empty}: cannot encode an empty descriptor set" in captured.err

    @pytest.mark.parametrize(
        "changes, flags",
        [({"kappa": -1.0}, ["--kappa", "-1"]),
         ({"n_freq": -2}, ["--nfreq", "-2"]),
         ({"angle_family": "bogus"}, None),
         ({"power_law": 7.0}, ["--power-law", "7"]),
         ({"family": "fisher", "input_dim": None}, None),
         ({"angle_family": "cosine_power", "cosine_power": 6, "n_freq": 1},
          ["--angle-family", "cosine-power", "--cosine-power", "6", "--nfreq", "1"]),
         ({"cosine_power": 6}, ["--cosine-power", "6"]),
         ({"angle_family": "cosine_power", "cosine_power": 6, "kappa": 2.0},
          ["--angle-family", "cosine-power", "--cosine-power", "6", "--kappa", "2"])],
        ids=["kappa", "n_freq", "angle_family", "power_law", "fisher-without-gmm",
             "n_freq-under-cosine-power", "cosine_power-under-von-mises",
             "kappa-under-cosine-power"],
    )
    def test_out_of_range_stored_config_is_2(self, corpus_dir, tmp_path, capsys, changes, flags):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        edit_stored_config(db, **changes)
        query = sorted((corpus_dir / "queries").iterdir())[0]
        capsys.readouterr()
        assert main(["query", "--db", str(db), "--query-desc", str(query)]) == 2
        assert f"{db}: bad pipeline config" in capsys.readouterr().err
        if flags is None:
            return
        # encode refuses the same values before it reads any descriptor file
        garbage = tmp_path / "garbage.cvd"
        garbage.write_bytes(b"garbage!")
        out = tmp_path / "o.cvv"
        assert main(["encode", str(garbage), "--out", str(out), "--family", "phi1",
                     "--input-dim", "8", *flags]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["query", "evaluate"])
    @pytest.mark.parametrize("input_dim", [0, -4])
    def test_non_positive_stored_input_dim_is_2_and_names_the_store(
            self, corpus_dir, tmp_path, capsys, command, input_dim):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        edit_stored_config(db, input_dim=input_dim)
        if command == "query":
            argv = ["query", "--query-desc", str(sorted((corpus_dir / "queries").iterdir())[0])]
        else:
            argv = ["evaluate", "--queries", str(corpus_dir / "queries"),
                    "--gt", str(corpus_dir / "groundtruth.txt")]
        capsys.readouterr()
        assert main([*argv, "--db", str(db)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{db}: bad pipeline config" in captured.err
        assert f"input_dim must be at least 1, got {input_dim}" in captured.err

    def test_encode_with_non_positive_input_dim_is_3(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "o.cvv"
        assert main(encode_args(corpus_dir, out, ["--input-dim", "0"])) == 3
        assert "input_dim must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["query", "evaluate"])
    def test_stored_config_not_fitting_its_dims_is_3_and_names_the_store(
            self, corpus_dir, tmp_path, capsys, command):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        edit_stored_config(db, truncate=10000)
        if command == "query":
            argv = ["query", "--query-desc", str(sorted((corpus_dir / "queries").iterdir())[0])]
        else:
            argv = ["evaluate", "--queries", str(corpus_dir / "queries"),
                    "--gt", str(corpus_dir / "groundtruth.txt")]
        capsys.readouterr()
        assert main([*argv, "--db", str(db)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{db}: truncate=10000 exceeds encoded dim 56" in captured.err

    def test_layout_not_matching_config_is_2(self, tmp_path, capsys):
        db = tmp_path / "db.cvv"
        write_vector_file(db, ["a"], np.ones((1, 7)), base_dim=1, n_freq=3,
                          config=PipelineConfig(family="phi1", input_dim=8))
        query = tmp_path / "q.cvd"
        write_descriptor_file(random_set(np.random.default_rng(0), 4, 8), query)
        assert main(["query", "--db", str(db), "--query-desc", str(query)]) == 2
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-kmeans", "train-gmm"])
    def test_non_pca_model_as_pca_is_3(self, corpus_dir, tmp_path, capsys, command):
        db_dir = str(corpus_dir / "database")
        km = str(tmp_path / "km.cvm")
        assert main(["train-kmeans", "--train-descriptors", db_dir, "--k", "3",
                     "--seed", "0", "--out", km]) == 0
        capsys.readouterr()
        code = main([command, "--train-descriptors", db_dir, "--k", "2",
                     "--out", str(tmp_path / "out.cvm"), "--pca", km])
        assert code == 3
        assert "does not hold a pca model" in capsys.readouterr().err
        assert not (tmp_path / "out.cvm").exists()

    @pytest.mark.parametrize(
        "family, flag, model, offset, message",
        [("phi1", "--pca", pca_train(np.random.default_rng(0).standard_normal((40, 8)), 4),
          MODEL_HEADER + 8 * 8, "pca basis rows are not orthonormal"),
         ("fisher", "--gmm", GmmModel(np.array([0.25, 0.75]), np.eye(2, 8), np.ones((2, 8))),
          MODEL_HEADER, "gmm weights must be positive and sum to 1")],
        ids=["pca-basis", "gmm-weights"],
    )
    def test_model_failing_its_checks_is_2_and_named(self, corpus_dir, tmp_path, capsys, family,
                                                     flag, model, offset, message):
        # one stored real edited: the pca basis follows the 8-real mean
        path = tmp_path / "bad.cvm"
        save_model(path, model)
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = struct.pack("<d", 0.5)
        path.write_bytes(bytes(data))
        out = tmp_path / "o.cvv"
        capsys.readouterr()
        assert main(["encode", str(corpus_dir / "database"), "--out", str(out),
                     "--family", family, flag, str(path)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("truncate", ["0", "-3"])
    def test_truncate_below_one_is_3(self, corpus_dir, tmp_path, capsys, truncate):
        out = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, out, ("--truncate", truncate))) == 3
        assert "truncate must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-kmeans", "train-gmm"])
    def test_negative_iters_is_3(self, corpus_dir, tmp_path, capsys, command):
        argv = [command, "--train-descriptors", str(corpus_dir / "database"), "--k", "2",
                "--out", str(tmp_path / "model.cvm")]
        assert main([*argv, "--iters", "-1"]) == 3
        assert "iteration count must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "model.cvm").exists()
        assert main([*argv, "--iters", "0"]) == 0
        assert (tmp_path / "model.cvm").exists()

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

    def test_repeated_image_id_is_3_and_writes_nothing(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_descriptor_file(random_set(rng, 4, 8), tmp_path / sub / "same.cvd")
        out = tmp_path / "o.cvv"
        code = main(["encode", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out),
                     "--family", "phi1", "--input-dim", "8"])
        assert code == 3
        assert "image id 'same' occurs more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_store_with_repeated_id_is_2(self, tmp_path, capsys):
        db = tmp_path / "db.cvv"
        write_vector_file(db, ["ab", "ac"], np.ones((2, 56)), base_dim=8, n_freq=3,
                          config=PipelineConfig(family="phi1", input_dim=8))
        data = db.read_bytes()
        assert data.count(b"ac") == 1
        db.write_bytes(data.replace(b"ac", b"ab"))
        query = tmp_path / "q.cvd"
        write_descriptor_file(random_set(np.random.default_rng(0), 4, 8), query)
        assert main(["query", "--db", str(db), "--query-desc", str(query)]) == 2
        assert f"{db}: image id 'ab' occurs more than once" in capsys.readouterr().err

    def test_errors_name_the_offending_file(self, corpus_dir, tmp_path, capsys):
        from covagg import DescriptorSet
        database = tmp_path / "database"
        database.mkdir()
        write_descriptor_file(random_set(np.random.default_rng(0), 4, 8), database / "ok.cvd")
        empty = database / "zz_empty.cvd"
        write_descriptor_file(DescriptorSet(np.empty((0, 8)), np.empty(0)), empty)
        code = main(["encode", str(database), "--out", str(tmp_path / "o.cvv"),
                     "--family", "phi1", "--input-dim", "8"])
        assert code == 3
        assert f"{empty}: cannot encode an empty descriptor set" in capsys.readouterr().err

        x = np.zeros((2, 4))
        x[0, 0], x[1, 0] = 1.0, -1.0
        cancel = tmp_path / "cancel.cvd"
        write_descriptor_file(DescriptorSet(x, [0.5, 0.5]), cancel)
        code = main(["encode", str(cancel), "--out", str(tmp_path / "o.cvv"),
                     "--family", "phi1", "--input-dim", "4", "--nfreq", "0"])
        assert code == 4
        assert f"{cancel}: aggregated vector has no usable magnitude" in capsys.readouterr().err

        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        queries = tmp_path / "queries"
        queries.mkdir()
        query = queries / (sorted((corpus_dir / "queries").iterdir())[0].stem + ".cvd")
        write_descriptor_file(DescriptorSet(np.empty((0, 8)), np.empty(0)), query)
        capsys.readouterr()
        code = main(["evaluate", "--db", str(db), "--queries", str(queries),
                     "--gt", str(corpus_dir / "groundtruth.txt")])
        assert code == 3
        assert f"{query}: cannot encode an empty descriptor set" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, code, message", [
        ("nan", 2, "non-finite record value at byte {offset}"),
        ("not-unit", 3, "descriptors must be finite unit vectors within 1e-06; worst deviation 1"),
        ("wrong-dim", 3, "descriptor dim 16 does not match configured dim 32"),
    ])
    def test_a_fault_in_the_middle_of_a_block_names_its_file(self, tmp_path, capsys, fault, code,
                                                              message):
        # phi2 at d = 32, N = 3: 3696-wide rows, so one block holds 8 images
        block_rows = cli.ROWS_BYTES // (8 * 3696)
        assert block_rows >= 3
        rng = np.random.default_rng(0)
        database = tmp_path / "database"
        database.mkdir()
        for i in range(block_rows):
            write_descriptor_file(random_set(rng, 16, 32), database / f"img{i}.cvd")
        bad = database / "img2.cvd"
        offset = 20 + 4 * (5 * 33 + 7)  # record 5, component 7
        if fault == "nan":
            data = bytearray(bad.read_bytes())
            data[offset : offset + 4] = struct.pack("<f", np.nan)
            bad.write_bytes(bytes(data))
        elif fault == "not-unit":
            from covagg import DescriptorSet
            dset = random_set(rng, 16, 32)
            write_descriptor_file(DescriptorSet(2.0 * dset.descriptors, dset.angles), bad)
        else:
            write_descriptor_file(random_set(rng, 16, 16), bad)
        out = tmp_path / "o.cvv"
        assert main(["encode", str(database), "--out", str(out), "--family", "phi2",
                     "--input-dim", "32"]) == code
        assert f"{bad}: {message.format(offset=offset)}" in capsys.readouterr().err
        assert not out.exists()

    def test_query_without_ground_truth_is_3_and_named(self, corpus_dir, tmp_path, capsys):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        stranger = tmp_path / "stranger.cvd"
        write_descriptor_file(random_set(np.random.default_rng(0), 4, 8), stranger)
        capsys.readouterr()
        code = main(["evaluate", "--db", str(db), "--queries", str(stranger),
                     "--gt", str(corpus_dir / "groundtruth.txt")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{stranger}: no ground-truth entry for query 'stranger'" in captured.err

    def test_evaluate_zero_rotations_is_3(self, corpus_dir, tmp_path, capsys):
        db = tmp_path / "db.cvv"
        assert main(encode_args(corpus_dir, db)) == 0
        capsys.readouterr()
        code = main(["evaluate", "--db", str(db), "--queries", str(corpus_dir / "queries"),
                     "--gt", str(corpus_dir / "groundtruth.txt"), "--rotations", "0"])
        assert code == 3
        assert "--rotations must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "evaluate"])
    def test_rotations_above_the_bound_is_3_before_the_store_is_read(
        self, corpus_dir, tmp_path, capsys, command
    ):
        # 10^15 angles cannot be allocated; the store does not exist, so only a
        # check made before anything is read names the flag
        query = sorted((corpus_dir / "queries").iterdir())[0]
        inputs = {
            "query": ["--query-desc", str(query)],
            "evaluate": ["--queries", str(corpus_dir / "queries"),
                         "--gt", str(corpus_dir / "groundtruth.txt")],
        }[command]
        code = main([command, "--db", str(tmp_path / "missing.cvv"), *inputs,
                     "--rotations", str(10**15)])
        assert code == 3
        assert f"--rotations must be at most 360, got {10**15}" in capsys.readouterr().err
