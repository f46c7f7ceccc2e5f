"""Memory budgets of the vector store, the weighted sums, scoring and training, measured with tracemalloc.

tracemalloc sees numpy's array buffers, so a peak bounds every matrix a
call holds at once, not just Python objects.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import random_set
from covagg import (
    CodebookModel,
    FisherEmbedding,
    GmmModel,
    DescriptorSet,
    MonomialConfig,
    PipelineConfig,
    RnModel,
    VladEmbedding,
    load_model,
    pca_train,
    query_multi_rotation,
    read_vector_file,
    rn_train,
    save_model,
    write_descriptor_file,
    write_vector_file,
)
from covagg.cli import TRAIN_CHUNK, _load_training_matrix, build_parser, main
from covagg.descriptors import embed_weighted_sum
from covagg.monomial import phi_monomial_weighted_sum

MIB = 1 << 20


def traced_peak(func, *args):
    """Peak traced bytes allocated while ``func(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = func(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_read_holds_the_matrix_and_one_chunk(tmp_path):
    # phi2 at d=32, N=3: 528 * 7 = 3696 components per row
    count, base_dim, n_freq = 2000, 528, 3
    dim = base_dim * (2 * n_freq + 1)
    config = PipelineConfig(family="phi2", input_dim=32, power_law=0.2)
    path = tmp_path / "db.cvv"
    vectors = np.random.default_rng(0).standard_normal((count, dim)).astype(np.float32)
    write_vector_file(path, [f"img{i:05d}" for i in range(count)], vectors,
                      base_dim=base_dim, n_freq=n_freq, config=config)
    del vectors
    peak, store = traced_peak(read_vector_file, path)
    matrix = count * dim * 8
    assert store.vectors.nbytes == matrix
    # holding the file's bytes or a float32 copy next to the matrix adds 28 MiB
    assert peak < matrix + 8 * MIB, f"peak {peak / MIB:.1f} MiB over a {matrix / MIB:.1f} MiB matrix"


def test_model_load_holds_its_arrays_and_no_chunk(tmp_path):
    dim = 1100  # above the size whose Gram matrix is checked, so the norm probe runs
    rotation = np.eye(dim)[np.random.default_rng(0).permutation(dim)]
    path = tmp_path / "rn.cvm"
    save_model(path, RnModel(rotation=rotation, eigenvalues=np.ones(dim)))
    del rotation
    peak, model = traced_peak(load_model, path, RnModel)
    arrays = model.rotation.nbytes + model.eigenvalues.nbytes
    # reading through a 4 MiB buffer would add it to the 9.2 MiB of arrays
    assert peak < arrays + MIB, f"peak {peak / MIB:.2f} MiB over {arrays / MIB:.2f} MiB of arrays"


@pytest.fixture
def corpus_dir(tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path / "corpus"), "--queries", "2",
                 "--matches", "2", "--distractors", "296", "--descriptors", "64",
                 "--dim", "32", "--seed", "1"]) == 0
    return tmp_path / "corpus"


def test_encode_holds_the_float32_payload_and_one_image(corpus_dir, tmp_path, capsys):
    argv = ["encode", str(corpus_dir / "database"), "--out", str(tmp_path / "db.cvv"),
            "--family", "phi2", "--input-dim", "32"]
    assert main(argv) == 0  # warm caches (angle tables, moment gathers) outside the trace
    peak, code = traced_peak(main, argv)
    assert code == 0
    count, dim = 300, 3696
    payload = count * dim * 4
    # one phi2 image of 64 descriptors peaks near 0.25 MiB; an n x D float64
    # copy of the vectors would add 8.5 MiB
    assert peak < payload + 2 * MIB, f"peak {peak / MIB:.1f} MiB over a {payload / MIB:.1f} MiB payload"
    assert read_vector_file(tmp_path / "db.cvv").vectors.shape == (count, dim)


@pytest.mark.parametrize("family", ["vlad", "fisher"])
def test_codebook_weighted_sum_never_builds_the_embedding(family):
    n, k, d, K = 512, 8, 24, 7
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    W = rng.standard_normal((n, K))
    means = X[:k].copy()
    if family == "vlad":
        emb = VladEmbedding(CodebookModel(means))
    else:
        emb = FisherEmbedding(GmmModel(np.full(k, 1.0 / k), means, np.full((k, d), 0.05)))
    embed_weighted_sum(W, X, emb)  # warm lazily built state outside the trace
    peak, out = traced_peak(embed_weighted_sum, W, X, emb)
    assert out.shape == (K, k * d)
    embedding = n * k * d * 8
    # vlad peaks near 340 KiB and fisher near 390 KiB of a 768 KiB embedding
    assert peak < embedding, f"peak {peak / 1024:.0f} KiB over a {embedding / 1024:.0f} KiB embedding"


def test_phi3_weighted_sum_holds_the_pair_rows_and_the_read_moments():
    n, d, K = 512, 32, 7
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    W = rng.standard_normal((n, K))
    config = MonomialConfig(3, d)
    phi_monomial_weighted_sum(W, X, config)  # warm the cached gather plan outside the trace
    peak, out = traced_peak(phi_monomial_weighted_sum, W, X, config)
    assert out.shape == (K, config.output_dim)
    # the 2.1 MiB pair rows, 0.9 MiB of left rows and 0.4 MiB of blocked moments
    # peak near 4.1 MiB; all K*d x d(d+1)/2 moments from two gathered pair
    # matrices peaked near 5.1 MiB
    assert peak < 4.75 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_rotated_row_scoring_copies_no_database():
    # phi2 at d=32 with a plain power law, truncated to its full width so that
    # it takes the rows path: 2000 x 3696 float64 (56 MiB)
    pipeline = PipelineConfig(family="phi2", input_dim=32, power_law=0.2, truncate=3696).build()
    assert pipeline.commuting_turns(8) == 1
    rng = np.random.default_rng(0)
    db = rng.standard_normal((2000, pipeline.output_dim))
    query = random_set(rng, 64, 32, "q")
    query_multi_rotation(query, pipeline, db, 8)  # warm the angle tables outside the trace
    peak, (scores, _) = traced_peak(query_multi_rotation, query, pipeline, db, 8)
    assert scores.shape == (2000,)
    # the 2000 x 8 score matrix is 0.12 MiB and the whole call peaks near 0.9 MiB;
    # a transposed or float32-upcast copy of the store would add 28-56 MiB
    budget = db.shape[0] * 8 * 8 + 2 * MIB
    assert peak < budget, f"peak {peak / MIB:.2f} MiB against a {budget / MIB:.2f} MiB budget"


@pytest.mark.parametrize("truncate", [None, 3696], ids=["quarter-turns", "rows-tiles"])
def test_float32_store_is_widened_a_tile_at_a_time(truncate):
    # phi2 at d=32 with a plain power law: 2000 x 3696 float32 (28 MiB); untruncated
    # it takes the coefficient kernel at R = 8, truncated the rotated-row tiles
    config = PipelineConfig(family="phi2", input_dim=32, power_law=0.2, truncate=truncate)
    pipeline = config.build()
    assert pipeline.commuting_turns(8) == (4 if truncate is None else 1)
    rng = np.random.default_rng(0)
    db = rng.standard_normal((2000, pipeline.output_dim)).astype(np.float32)
    query = random_set(rng, 64, 32, "q")
    query_multi_rotation(query, pipeline, db, 8)  # warm the angle tables outside the trace
    peak, (scores, _) = traced_peak(query_multi_rotation, query, pipeline, db, 8)
    assert np.array_equal(scores, query_multi_rotation(query, pipeline, db.astype(np.float64), 8)[0])
    # widened tiles peak near 4 MiB on the kernel and 1 MiB on the rows tiles;
    # a float64 copy of the store would add 56 MiB
    budget = 8 * MIB
    assert peak < budget, f"peak {peak / MIB:.2f} MiB against a {budget / MIB:.2f} MiB budget"


@pytest.mark.parametrize("truncate, n_rot", [(None, 1), (3696, 12)], ids=["one-rotation", "twelve"])
def test_float32_store_is_widened_a_tile_at_a_time_by_the_single_product(truncate, n_rot):
    # the rotated-row scores take one product at R = 1 on every store, and at R > 8
    # where g = 1; over 2000 x 3696 float32 (28 MiB) they used to widen the store whole
    config = PipelineConfig(family="phi2", input_dim=32, power_law=0.2, truncate=truncate)
    pipeline = config.build()
    assert pipeline.commuting_turns(n_rot) == 1
    rng = np.random.default_rng(0)
    db = rng.standard_normal((2000, pipeline.output_dim))
    db = (db / np.linalg.norm(db, axis=1)[:, None]).astype(np.float32)  # unit rows, as stored
    query = random_set(rng, 64, 32, "q")
    query_multi_rotation(query, pipeline, db, n_rot)  # warm the angle tables outside the trace
    peak, (scores, thetas) = traced_peak(query_multi_rotation, query, pipeline, db, n_rot)
    wide_scores, wide_thetas = query_multi_rotation(query, pipeline, db.astype(np.float64), n_rot)
    assert np.max(np.abs(scores - wide_scores)) <= 1e-15
    assert np.array_equal(thetas, wide_thetas)
    # 2 MiB widened tiles; a float64 copy of the store would add 56 MiB
    budget = 8 * MIB
    assert peak < budget, f"peak {peak / MIB:.2f} MiB against a {budget / MIB:.2f} MiB budget"


def test_staged_training_loader_never_holds_the_raw_corpus(tmp_path):
    # 120 raw files of 250 descriptors of dim 64: a 14.6 MiB RootSIFT corpus
    # projected to 16 dims, a 3.7 MiB prepared matrix
    n_files, per_file, dim, out_dim = 120, 250, 64, 16
    rng = np.random.default_rng(0)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(n_files):
        raw = rng.gamma(0.5, 1.0, (per_file, dim)) + 1e-3
        write_descriptor_file(DescriptorSet(raw, np.zeros(per_file), image_id=f"t{i}", raw=True),
                              corpus / f"t{i:04d}.cvd")
    pca = tmp_path / "pca.cvm"
    save_model(pca, pca_train(rng.standard_normal((200, dim)), out_dim))
    args = build_parser().parse_args(["train-gmm", "--train-descriptors", str(corpus), "--k", "2",
                                      "--pca", str(pca), "--out", str(tmp_path / "gmm.cvm")])
    peak, data = traced_peak(_load_training_matrix, args)
    assert data.shape == (n_files * per_file, out_dim)
    staging = (2 * TRAIN_CHUNK + per_file) * dim * 8
    # staged, it peaks near 10.9 MiB; the raw corpus, its stack and its centered
    # copy held at once peaked near 48 MiB
    budget = 2 * data.nbytes + staging + MIB
    assert peak < budget, f"peak {peak / MIB:.2f} MiB against a {budget / MIB:.2f} MiB budget"


def test_model_save_copies_no_array(tmp_path):
    dim = 1100
    model = RnModel(rotation=np.eye(dim)[np.random.default_rng(0).permutation(dim)],
                    eigenvalues=np.ones(dim))
    path = tmp_path / "rn.cvm"
    peak, _ = traced_peak(save_model, path, model)
    # tobytes() and a joined payload held two more 9.2 MiB copies of the rotation,
    # an 18.5 MiB peak
    assert peak < MIB, f"peak {peak / MIB:.2f} MiB"
    assert load_model(path, RnModel).rotation.tobytes() == model.rotation.tobytes()


def test_rn_training_holds_one_centered_matrix_and_two_square_ones():
    n, dim = 600, 400
    vectors = np.random.default_rng(0).standard_normal((n, dim))
    peak, model = traced_peak(rn_train, vectors)
    assert model.dim == dim
    # it peaks near 3.1 MiB, the centered vectors and their covariance; LAPACK's
    # workspace is allocated outside numpy and is not traced. A copy of the
    # vectors, a second covariance and an F-ordered eigenvector copy peaked
    # near 9.8 MiB
    budget = n * dim * 8 + 2 * dim * dim * 8 + MIB // 2
    assert peak < budget, f"peak {peak / MIB:.2f} MiB against a {budget / MIB:.2f} MiB budget"
