"""Acceptance checks, one per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each check pins its tolerance explicitly.
"""

import time

import numpy as np
import pytest

from conftest import unit_rows
from covagg import (
    AngleMapConfig,
    CodebookModel,
    DescriptorSet,
    FisherEmbedding,
    GmmModel,
    MonomialConfig,
    Pipeline,
    ScorePolynomial,
    SynthConfig,
    VladEmbedding,
    adapted_power_law,
    angle_feature_batch,
    average_precision,
    count_block_dots,
    fourier_coeffs,
    generate_corpus,
    max_score,
    mean_ap,
    monomial_output_dim,
    power_law,
    query_multi_rotation,
    rank_by_score,
    score_cosine,
    score_polynomial,
    truncate_l2,
    truncated_kernel,
    vm_kernel,
)
from covagg.aggregate import _raw_sum, aggregate
from covagg.monomial import phi_monomial_batch
from covagg.oracle import brute_match_kernel, modulate, rotate_set


def report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_angle_map_exactness():
    start = time.perf_counter()
    thetas = np.linspace(-np.pi, np.pi, 1024)
    worst = 0.0
    for kappa in (2.0, 4.0, 8.0, 32.0):
        for n_freq in (1, 3, 10):
            coeffs = fourier_coeffs(AngleMapConfig(kappa=kappa, n_freq=n_freq))
            feats = angle_feature_batch(thetas, coeffs)
            gram = feats @ feats.T
            target = truncated_kernel(thetas[:, None] - thetas[None, :], coeffs)
            worst = max(worst, float(np.max(np.abs(gram - target))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    report(1, f"max |<a,a>-series| = {worst:.2e} over 1024^2 grids in {elapsed:.2f}s")


def test_criterion_02_von_mises_endpoints():
    for kappa in (2.0, 4.0, 8.0, 32.0):
        assert abs(vm_kernel(0.0, kappa) - 1.0) < 1e-12
        assert abs(vm_kernel(np.pi, kappa)) < 1e-12
    report(2, "k(0)=1 and k(pi)=0 to 1e-12 for kappa in {2,4,8,32}")


def test_criterion_03_cosine_power_identity():
    thetas = np.linspace(-np.pi, np.pi, 181)
    for power in (2, 4, 8):
        coeffs = fourier_coeffs(AngleMapConfig(family="cosine_power", power=power))
        feats = angle_feature_batch(thetas, coeffs)
        gram = feats @ feats.T
        target = np.cos((thetas[:, None] - thetas[None, :]) / 2.0) ** power
        assert np.max(np.abs(gram - target)) < 1e-12
        descending = np.linspace(0.0, np.pi, 1024)
        values = truncated_kernel(descending, coeffs)
        assert np.all(values >= -1e-12) and np.all(values <= 1.0 + 1e-12)
        assert np.all(np.diff(values) <= 1e-12)
    report(3, "feature map reproduces cos^P(delta/2) exactly for P in {2,4,8}")


def test_criterion_04_monomial_kernel_exactness():
    rng = np.random.default_rng(9)
    assert monomial_output_dim(2, 80) == 3240
    assert monomial_output_dim(3, 80) == 88560
    worst = 0.0
    for d in (8, 80):
        for degree in (2, 3):
            config = MonomialConfig(degree, d)
            for _ in range(10):
                X = unit_rows(rng, 100, d)
                Y = unit_rows(rng, 100, d)
                lhs = np.sum(phi_monomial_batch(X, config) * phi_monomial_batch(Y, config), axis=1)
                rhs = np.sum(X * Y, axis=1) ** degree
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10
    report(4, f"1000 pairs per (d, p): max |<phi,phi> - <x,y>^p| = {worst:.2e}")


def test_criterion_05_modulation_identity():
    rng = np.random.default_rng(10)
    coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
    worst = 0.0
    for _ in range(1000):
        v, w = rng.standard_normal((2, 32))
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        a1, a2 = angle_feature_batch(np.array([t1, t2]), coeffs)
        lhs = float(np.dot(modulate(v, a1), modulate(w, a2)))
        rhs = float(np.dot(v, w)) * truncated_kernel(t1 - t2, coeffs)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    report(5, f"1000 trials: max modulation-identity error = {worst:.2e}")


def test_criterion_06_aggregate_matches_oracle():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
    codebook = CodebookModel(rng.standard_normal((4, 8)))
    weights = rng.uniform(0.5, 1.5, 3)
    gmm = GmmModel(
        weights / weights.sum(), rng.standard_normal((3, 8)), rng.uniform(0.5, 2.0, (3, 8))
    )
    families = {
        "monomial": MonomialConfig(2, 8),
        "vlad": VladEmbedding(codebook),
        "fisher": FisherEmbedding(gmm),
    }
    worst = {name: 0.0 for name in families}
    for trial in range(100):
        xs = DescriptorSet(unit_rows(rng, 10, 8), rng.uniform(-np.pi, np.pi, 10), "x")
        ys = DescriptorSet(unit_rows(rng, 10, 8), rng.uniform(-np.pi, np.pi, 10), "y")
        for name, emb in families.items():
            lhs = score_cosine(aggregate(xs, emb, coeffs), aggregate(ys, emb, coeffs))
            rhs = brute_match_kernel(xs, ys, emb, coeffs)
            worst[name] = max(worst[name], abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    assert all(err < 1e-8 for err in worst.values()), worst
    assert elapsed < 30.0
    summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(6, f"100 set pairs per family: {summary} in {elapsed:.1f}s")


def test_criterion_07_rotation_covariance():
    rng = np.random.default_rng(12)
    coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
    emb = MonomialConfig(1, 8)

    # (a) global shift leaves the aggregated norm unchanged
    worst_norm = 0.0
    for _ in range(20):
        dset = DescriptorSet(unit_rows(rng, 15, 8), rng.uniform(-np.pi, np.pi, 15))
        shift = rng.uniform(-np.pi, np.pi)
        moved = rotate_set(dset, shift)
        n0 = np.linalg.norm(_raw_sum(dset.angles, dset.descriptors, emb, coeffs))
        n1 = np.linalg.norm(_raw_sum(moved.angles, moved.descriptors, emb, coeffs))
        worst_norm = max(worst_norm, abs(n0 - n1))
    assert worst_norm < 1e-10

    # (b) the score polynomial of a shifted set is the original, shifted
    grid = np.linspace(-np.pi, np.pi, 256)
    worst_poly = 0.0
    for _ in range(10):
        xs = DescriptorSet(unit_rows(rng, 10, 8), rng.uniform(-np.pi, np.pi, 10), "x")
        ys = DescriptorSet(unit_rows(rng, 10, 8), rng.uniform(-np.pi, np.pi, 10), "y")
        shift = rng.uniform(-np.pi, np.pi)
        base = score_polynomial(aggregate(xs, emb, coeffs), aggregate(ys, emb, coeffs))
        moved = score_polynomial(
            aggregate(rotate_set(xs, shift), emb, coeffs), aggregate(ys, emb, coeffs)
        )
        worst_poly = max(
            worst_poly, float(np.max(np.abs(moved.evaluate(grid) - base.evaluate(grid + shift))))
        )
    assert worst_poly < 1e-9

    # (c) the sampled-and-refined maximum matches a dense grid
    dense = np.linspace(-np.pi, np.pi, 10_000)
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        poly = ScorePolynomial(
            c0=float(rng.standard_normal()), a=rng.standard_normal(n), b=rng.standard_normal(n)
        )
        _, value = max_score(poly, samples=64)
        worst_gap = max(worst_gap, float(np.max(poly.evaluate(dense))) - value)
    assert worst_gap < 1e-6
    report(
        7,
        f"norm shift {worst_norm:.1e}, polynomial shift {worst_poly:.1e}, "
        f"dense-grid gap {worst_gap:.1e}",
    )


def test_criterion_08_cost_contract():
    rng = np.random.default_rng(13)
    emb = MonomialConfig(1, 8)
    for n_freq in (0, 1, 3, 6):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
        X = aggregate(
            DescriptorSet(unit_rows(rng, 6, 8), rng.uniform(-np.pi, np.pi, 6)), emb, coeffs
        )
        Y = aggregate(
            DescriptorSet(unit_rows(rng, 6, 8), rng.uniform(-np.pi, np.pi, 6)), emb, coeffs
        )
        with count_block_dots() as counter:
            score_polynomial(X, Y)
        assert counter.count == 1 + 4 * n_freq
    report(8, "score_polynomial uses exactly 1+4N block inner products for N in {0,1,3,6}")


def test_criterion_09_dimension_ledger():
    rng = np.random.default_rng(14)

    def encoded_dim(emb, n_freq, d):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
        dset = DescriptorSet(unit_rows(rng, 3, d), rng.uniform(-np.pi, np.pi, 3))
        return aggregate(dset, emb, coeffs).dim

    for n_freq, want in ((1, 240), (3, 560), (6, 1040)):
        assert encoded_dim(MonomialConfig(1, 80), n_freq, 80) == want
    assert encoded_dim(MonomialConfig(2, 80), 3, 80) == 22680
    vlad = VladEmbedding(CodebookModel(rng.standard_normal((32, 128))))
    assert encoded_dim(vlad, 3, 128) == 28672
    fisher = FisherEmbedding(
        GmmModel(np.full(32, 1 / 32.0), rng.standard_normal((32, 80)), np.ones((32, 80)))
    )
    assert encoded_dim(fisher, 3, 80) == 17920
    report(9, "encoded dims: {240, 560, 1040}, 22680, 28672, 17920 all exact")


def _independent_ap(ranked, relevant, junk):
    """Vectorized re-derivation of average precision for cross-checking."""
    kept = [image_id for image_id in ranked if image_id not in junk]
    flags = np.array([image_id in relevant for image_id in kept], dtype=bool)
    if not flags.any():
        return 0.0
    hits = np.cumsum(flags)
    ranks = np.nonzero(flags)[0] + 1
    return float(np.sum(hits[flags] / ranks) / len(relevant))


def _evaluate_corpus(queries, database, ground_truth, dim, n_freq, n_rot):
    coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
    pipe = Pipeline(embedding=MonomialConfig(1, dim), coeffs=coeffs, power_exponent=0.2)
    db = np.stack([pipe.encode(dset) for dset in database])
    ids = [dset.image_id for dset in database]
    aps = []
    for query in queries:
        scores, _ = query_multi_rotation(query, pipe, db, n_rot)
        ranked = rank_by_score(ids, scores)
        entry = ground_truth[query.image_id]
        ap = average_precision(ranked, entry)
        check = _independent_ap(ranked, entry.relevant, entry.junk)
        assert abs(ap - check) < 1e-12
        aps.append(ap)
    result = mean_ap(aps)
    assert abs(result - float(np.mean(aps))) < 1e-12
    return result


def test_criterion_10_synthetic_end_to_end():
    start = time.perf_counter()
    config = SynthConfig(seed=7)
    queries, database, ground_truth = generate_corpus(config)
    assert len(database) == 200
    modulated = _evaluate_corpus(queries, database, ground_truth, config.dim, 3, 8)
    plain = _evaluate_corpus(queries, database, ground_truth, config.dim, 0, 1)
    elapsed = time.perf_counter() - start
    assert modulated - plain >= 0.10
    assert elapsed < 120.0
    report(
        10,
        f"mAP modulated={modulated:.3f} vs plain={plain:.3f} "
        f"(gap {modulated - plain:+.3f}) on 200 images in {elapsed:.1f}s",
    )


def test_criterion_11_postprocessing_properties():
    rng = np.random.default_rng(15)
    coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
    emb = MonomialConfig(1, 8)
    dset = DescriptorSet(unit_rows(rng, 12, 8), rng.uniform(-np.pi, np.pi, 12))
    vec = aggregate(dset, emb, coeffs)

    adapted = adapted_power_law(vec, 0.4)
    for n in range(1, 4):
        before = np.arctan2(vec.blocks[2 * n], vec.blocks[2 * n - 1])
        after = np.arctan2(adapted.blocks[2 * n], adapted.blocks[2 * n - 1])
        assert np.max(np.abs(before - after)) < 1e-10

    for _ in range(20):
        v = rng.standard_normal(50)
        assert abs(np.linalg.norm(power_law(v, 0.3)) - 1.0) < 1e-12
        assert abs(np.linalg.norm(truncate_l2(v, 7)) - 1.0) < 1e-12

    entry_relevant = frozenset({"a", "c"})
    from covagg import GroundTruthEntry

    ap = average_precision(["a", "b", "c", "d"], GroundTruthEntry(entry_relevant))
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-15)
    report(11, "phase preservation, unit norms, and the 5/6 hand case all hold")
