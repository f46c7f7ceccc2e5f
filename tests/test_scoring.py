from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_set
from covagg import (
    AngleMapConfig,
    CodebookModel,
    ContractError,
    FisherEmbedding,
    GmmModel,
    ModulatedVector,
    MonomialConfig,
    Pipeline,
    RnModel,
    ScorePolynomial,
    VladEmbedding,
    count_block_dots,
    fourier_coeffs,
    max_score,
    query_multi_rotation,
    score_coefficients,
    score_cosine,
    score_polynomial,
    wrap_angle,
)
from covagg import oracle, scoring
from covagg.aggregate import aggregate, rotated_rows
from covagg.oracle import rotate_set
from covagg.angle_map import harmonics
from covagg.scoring import MAX_ROTATIONS

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
EMB8 = MonomialConfig(1, 8)


def make_pipeline(n_freq=3, exponent=None, dim=8, adapted=False):
    coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
    return Pipeline(
        embedding=MonomialConfig(1, dim),
        coeffs=coeffs,
        power_exponent=exponent,
        adapted=adapted,
    )


def truncated_pipeline(truncate_dim=50):
    """A plain-power-law phi1 pipeline (d = 8, N = 3) truncated to ``truncate_dim`` components."""
    return Pipeline(EMB8, K8_N3, power_exponent=0.3, truncate_dim=truncate_dim)


def quarter_turn(rows, base_dim, n_freq, k):
    """Rows turned by k quarter turns: frequency n's (c, s) pair becomes
    (c, s), (s, -c), (-c, -s) or (-s, c) for n * k = 0, 1, 2, 3 mod 4."""
    blocks = rows.reshape(rows.shape[0], 2 * n_freq + 1, base_dim)
    out = blocks.copy()
    for n in range(1, n_freq + 1):
        c, s = blocks[:, 2 * n - 1], blocks[:, 2 * n]
        out[:, 2 * n - 1], out[:, 2 * n] = [(c, s), (s, -c), (-c, -s), (-s, c)][n * k % 4]
    return out.reshape(rows.shape)


def covariant_pipeline(rng, family, adapted):
    """A pipeline of ``family`` with no post-processing or the adapted power law."""
    if family == "vlad":
        embedding = VladEmbedding(CodebookModel(rng.standard_normal((4, 8))))
    elif family == "fisher":
        weights = rng.uniform(0.5, 1.5, 3)
        embedding = FisherEmbedding(GmmModel(
            weights / weights.sum(), rng.standard_normal((3, 8)), rng.uniform(0.5, 2.0, (3, 8))
        ))
    else:
        embedding = MonomialConfig(int(family[-1]), 8)
    return Pipeline(embedding, K8_N3, power_exponent=0.3 if adapted else None,
                    adapted=adapted)


class TestScoreCosine:
    def test_self_similarity(self, rng):
        X = aggregate(random_set(rng, 10, 8), EMB8, K8_N3)
        assert score_cosine(X, X) == pytest.approx(1.0, abs=1e-12)

    def test_negated_vector(self, rng):
        X = aggregate(random_set(rng, 10, 8), EMB8, K8_N3)
        neg = ModulatedVector(-X.values, X.base_dim, X.n_freq)
        assert score_cosine(X, neg) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_oracle(self, rng):
        xs = random_set(rng, 10, 8, "x")
        ys = random_set(rng, 10, 8, "y")
        X = aggregate(xs, EMB8, K8_N3)
        Y = aggregate(ys, EMB8, K8_N3)
        assert abs(score_cosine(X, Y) - oracle.brute_match_kernel(xs, ys, EMB8, K8_N3)) < 1e-8

    def test_symmetry(self, rng):
        X = aggregate(random_set(rng, 6, 8, "x"), EMB8, K8_N3)
        Y = aggregate(random_set(rng, 6, 8, "y"), EMB8, K8_N3)
        assert score_cosine(X, Y) == pytest.approx(score_cosine(Y, X), abs=1e-15)

    def test_config_mismatch(self, rng):
        X = aggregate(random_set(rng, 6, 8), EMB8, K8_N3)
        other = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=2))
        Y = aggregate(random_set(rng, 6, 8), EMB8, other)
        with pytest.raises(ContractError):
            score_cosine(X, Y)


class TestScorePolynomial:
    @pytest.mark.parametrize("field", ["c0", "a", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coefficients(self, field, bad):
        coeffs = {"c0": 0.5, "a": np.array([0.1, 0.2]), "b": np.array([0.3, 0.4])}
        coeffs[field] = bad if field == "c0" else np.array([0.1, bad])
        with pytest.raises(ContractError, match="finite"):
            ScorePolynomial(**coeffs)

    def test_self_score_at_zero(self, rng):
        X = aggregate(random_set(rng, 10, 8), EMB8, K8_N3)
        poly = score_polynomial(X, X)
        assert poly.evaluate(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_matches_block_rotation(self, rng):
        X = aggregate(random_set(rng, 10, 8, "x"), EMB8, K8_N3)
        Y = aggregate(random_set(rng, 10, 8, "y"), EMB8, K8_N3)
        poly = score_polynomial(X, Y)
        thetas = np.linspace(-np.pi, np.pi, 32)
        rotated = [ModulatedVector(row, X.base_dim, X.n_freq) for row in rotated_rows(X, thetas)]
        for theta, rot in zip(thetas, rotated):
            assert abs(poly.evaluate(theta) - score_cosine(rot, Y)) < 1e-10

    def test_angle_shift_translates_polynomial(self, rng):
        xs = random_set(rng, 10, 8, "x")
        ys = random_set(rng, 10, 8, "y")
        shift = 0.83
        base = score_polynomial(aggregate(xs, EMB8, K8_N3), aggregate(ys, EMB8, K8_N3))
        shifted = score_polynomial(
            aggregate(rotate_set(xs, shift), EMB8, K8_N3), aggregate(ys, EMB8, K8_N3)
        )
        grid = np.linspace(-np.pi, np.pi, 256)
        assert np.max(np.abs(shifted.evaluate(grid) - base.evaluate(grid + shift))) < 1e-9

    def test_swap_reverses_angle(self, rng):
        X = aggregate(random_set(rng, 8, 8, "x"), EMB8, K8_N3)
        Y = aggregate(random_set(rng, 8, 8, "y"), EMB8, K8_N3)
        pxy = score_polynomial(X, Y)
        pyx = score_polynomial(Y, X)
        grid = np.linspace(-np.pi, np.pi, 64)
        assert pxy.evaluate(grid) == pytest.approx(pyx.evaluate(-grid), abs=1e-12)

    def test_degenerates_to_cosine_for_n0(self, rng):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=0))
        X = aggregate(random_set(rng, 8, 8, "x"), EMB8, coeffs)
        Y = aggregate(random_set(rng, 8, 8, "y"), EMB8, coeffs)
        poly = score_polynomial(X, Y)
        assert poly.n_freq == 0
        assert poly.evaluate(1.234) == pytest.approx(score_cosine(X, Y), abs=1e-15)

    @pytest.mark.parametrize("n_freq", [0, 1, 3, 6])
    def test_block_dot_count(self, rng, n_freq):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
        X = aggregate(random_set(rng, 6, 8, "x"), EMB8, coeffs)
        Y = aggregate(random_set(rng, 6, 8, "y"), EMB8, coeffs)
        with count_block_dots() as counter:
            score_polynomial(X, Y)
        assert counter.count == 1 + 4 * n_freq

    def test_evaluate_on_a_scalar_equals_its_array_result(self):
        thetas = np.linspace(-np.pi, np.pi, 37)
        values = BRACKET_POLY.evaluate(thetas)
        for theta, value in zip(thetas, values):
            assert BRACKET_POLY.evaluate(float(theta)) == value


class TestCountBlockDots:
    @pytest.mark.parametrize("n_freq", [0, 1, 3])
    def test_covariant_query_counts_one_polynomial_per_row(self, rng, n_freq):
        pipe = make_pipeline(n_freq=n_freq, exponent=0.3, adapted=True)
        assert pipe.commuting_turns(8) == 8
        db = np.stack([pipe.encode(random_set(rng, 12, 8, f"d{i}")) for i in range(5)])
        with count_block_dots() as counter:
            query_multi_rotation(random_set(rng, 12, 8, "q"), pipe, db, n_rot=8)
        assert counter.count == (1 + 4 * n_freq) * 5

    @pytest.mark.parametrize("n_freq", [0, 1, 3])
    def test_covariant_query_at_one_rotation_counts_nothing(self, rng, n_freq):
        # at R = 1 every store takes the single product of its one row: 2N + 1
        # block products per database row, none of them in the coefficient kernel
        pipe = make_pipeline(n_freq=n_freq, exponent=0.3, adapted=True)
        assert pipe.commuting_turns(1) == 1
        db = np.stack([pipe.encode(random_set(rng, 12, 8, f"d{i}")) for i in range(5)])
        with count_block_dots() as counter:
            query_multi_rotation(random_set(rng, 12, 8, "q"), pipe, db, n_rot=1)
        assert counter.count == 0

    def test_rows_path_counts_nothing(self, rng):
        rn = RnModel(rotation=np.eye(56), eigenvalues=np.ones(56))
        for pipe in (Pipeline(EMB8, K8_N3, power_exponent=0.3, rn=rn),
                     truncated_pipeline()):
            assert pipe.commuting_turns(8) == 1
            db = np.stack([pipe.encode(random_set(rng, 12, 8, f"d{i}")) for i in range(5)])
            with count_block_dots() as counter:
                query_multi_rotation(random_set(rng, 12, 8, "q"), pipe, db, n_rot=8)
            assert counter.count == 0

    # half turns (n_rot = 2 mod 4) take the rows path
    @pytest.mark.parametrize("n_rot, base_rows", [(2, 0), (4, 1), (6, 0), (8, 2), (12, 3)])
    def test_quarter_turn_path_counts_one_polynomial_per_base_row(self, rng, n_rot, base_rows):
        pipe = make_pipeline(exponent=0.3)
        assert pipe.commuting_turns(n_rot) == (4 if base_rows else 1)
        db = np.stack([pipe.encode(random_set(rng, 12, 8, f"d{i}")) for i in range(5)])
        with count_block_dots() as counter:
            query_multi_rotation(random_set(rng, 12, 8, "q"), pipe, db, n_rot=n_rot)
        assert counter.count == base_rows * (1 + 4 * 3) * 5

    def test_nested_counter_hides_the_outer_one(self, rng):
        X = aggregate(random_set(rng, 6, 8, "x"), EMB8, K8_N3)
        Y = aggregate(random_set(rng, 6, 8, "y"), EMB8, K8_N3)
        with count_block_dots() as outer:
            score_polynomial(X, Y)
            with count_block_dots() as inner:
                score_polynomial(X, Y)
                score_polynomial(X, Y)
            assert outer.count == 13
            score_polynomial(X, Y)
        assert (outer.count, inner.count) == (26, 26)

    def test_worker_thread_does_not_touch_the_callers_counter(self, rng):
        X = aggregate(random_set(rng, 6, 8, "x"), EMB8, K8_N3)
        Y = aggregate(random_set(rng, 6, 8, "y"), EMB8, K8_N3)
        with count_block_dots() as counter:
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(score_polynomial, X, Y).result()
            assert counter.count == 0
            score_polynomial(X, Y)
        assert counter.count == 13


class TestScoreCoefficients:
    @pytest.mark.parametrize("n_freq", [0, 1, 3])
    @pytest.mark.parametrize("dim", [1, 8])
    def test_rows_match_score_polynomial(self, rng, n_freq, dim):
        coeffs = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=n_freq))
        emb = MonomialConfig(1, dim)
        # an odd count of unit descriptors cannot cancel at dim 1, n_freq 0
        X = aggregate(random_set(rng, 11, dim, "x"), emb, coeffs)
        db = np.stack([aggregate(random_set(rng, 11, dim, f"y{i}"), emb, coeffs).values
                       for i in range(6)])
        rows = score_coefficients(X, db)
        assert rows.shape == (6, 2 * n_freq + 1)
        for row, values in zip(rows, db):
            Y = ModulatedVector(values, dim, n_freq)
            poly = score_polynomial(X, Y)
            # [c0, a_1, b_1, ..., a_N, b_N], the order of harmonics
            interleaved = np.concatenate([[poly.c0], np.column_stack([poly.a, poly.b]).ravel()])
            assert np.max(np.abs(row - interleaved)) < 1e-12
            # reference: the 1 + 4N block products one at a time
            expected = [np.dot(X.blocks[0], Y.blocks[0])]
            for n in range(1, n_freq + 1):
                xc, xs = X.blocks[2 * n - 1], X.blocks[2 * n]
                yc, ys = Y.blocks[2 * n - 1], Y.blocks[2 * n]
                expected += [np.dot(xc, yc) + np.dot(xs, ys), np.dot(xs, yc) - np.dot(xc, ys)]
            assert np.max(np.abs(row - expected)) < 1e-12


# At 16 and 64 samples the best grid sample lies more than half a
# spacing from this polynomial's peak
BRACKET_POLY = ScorePolynomial(
    c0=0.641171817084584,
    a=np.array([
        1.5085690498162747, 1.7450655684271512, -1.0761951898622146,
        -0.08529692411889785, 0.16035986838960548, 0.8760129465808347,
    ]),
    b=np.array([
        1.2487050701896434, -0.31005044070138726, -0.009267006715762688,
        2.133259089136987, -0.5805891134862654, -0.3534001184194652,
    ]),
)


class TestMaxScore:
    def test_constant_polynomial(self):
        poly = ScorePolynomial(c0=0.42, a=np.zeros(2), b=np.zeros(2))
        theta, value = max_score(poly, samples=16)
        assert value == pytest.approx(0.42, abs=1e-12)
        assert -np.pi < theta <= np.pi

    def test_no_frequencies(self):
        poly = ScorePolynomial(c0=0.42, a=np.zeros(0), b=np.zeros(0))
        theta, value = max_score(poly, samples=1)
        assert value == 0.42
        assert -np.pi < theta <= np.pi

    def test_pure_cosine(self):
        poly = ScorePolynomial(c0=0.1, a=np.array([1.0]), b=np.array([0.0]))
        theta, value = max_score(poly, samples=16)
        assert abs(theta) < 1e-6
        assert value == pytest.approx(1.1, abs=1e-10)

    def test_beats_dense_grid(self, rng):
        dense_grid = np.linspace(-np.pi, np.pi, 10_000)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            poly = ScorePolynomial(
                c0=float(rng.standard_normal()),
                a=rng.standard_normal(n),
                b=rng.standard_normal(n),
            )
            theta, value = max_score(poly, samples=64)
            assert value >= float(np.max(poly.evaluate(dense_grid))) - 1e-6
            assert -np.pi < theta <= np.pi

    @pytest.mark.parametrize("samples", [16, 64, 256])
    def test_peak_between_grid_samples(self, samples):
        dense_max = float(np.max(BRACKET_POLY.evaluate(np.linspace(-np.pi, np.pi, 2_000_001))))
        theta, value = max_score(BRACKET_POLY, samples=samples)
        assert value >= dense_max - 1e-12
        assert BRACKET_POLY.evaluate(theta) == value

    def test_vanishing_top_frequency(self):
        # a_N = b_N = 0 zeroes the end coefficients of the derivative polynomial
        poly = ScorePolynomial(c0=0.2, a=np.array([0.3, -1.1, 0.0]), b=np.array([0.7, 0.4, 0.0]))
        dense_max = float(np.max(poly.evaluate(np.linspace(-np.pi, np.pi, 200_001))))
        theta, value = max_score(poly, samples=7)
        assert value >= dense_max - 1e-12
        assert poly.evaluate(theta) == value

    def test_subnormal_top_frequency(self):
        # a von Mises angle map with kappa = 3e-4 and N = 64 gives such terms
        poly = ScorePolynomial(c0=0.1, a=np.array([1.0, 0.0, 5.9e-320]), b=np.zeros(3))
        theta, value = max_score(poly, samples=7)
        assert theta == 0.0
        assert value == pytest.approx(1.1, abs=1e-15)

    def test_maximum_at_pi_is_reported_as_pi(self):
        poly = ScorePolynomial(c0=0.0, a=np.array([-1.0]), b=np.array([0.0]))
        theta, value = max_score(poly, samples=4)
        assert theta == np.pi
        assert value == 1.0

    def test_requires_enough_samples(self):
        poly = ScorePolynomial(c0=0.0, a=np.zeros(3), b=np.zeros(3))
        with pytest.raises(ContractError):
            max_score(poly, samples=6)


class TestQueryMultiRotation:
    def test_single_rotation_equals_plain_encode(self, rng):
        pipe = make_pipeline(exponent=0.2)
        query = random_set(rng, 12, 8, "q")
        db_sets = [random_set(rng, 12, 8, f"d{i}") for i in range(5)]
        db = np.stack([pipe.encode(s) for s in db_sets])
        scores, thetas = query_multi_rotation(query, pipe, db, n_rot=1)
        direct = db @ pipe.encode(query)
        assert scores == pytest.approx(direct, abs=1e-12)
        assert np.all(thetas == 0.0)

    def test_rotated_copy_found_at_matching_hypothesis(self, rng):
        query = random_set(rng, 15, 8, "q")
        planted_rotation = 2.0 * np.pi * 3.0 / 8.0
        copy = rotate_set(query, planted_rotation)
        distractors = [random_set(rng, 15, 8, f"d{i}") for i in range(4)]

        # no post-processing: the matching hypothesis recovers self-similarity
        plain = make_pipeline()
        db = np.stack([plain.encode(s) for s in [copy] + distractors])
        scores, thetas = query_multi_rotation(query, plain, db, n_rot=8)
        assert scores[0] == pytest.approx(1.0, abs=1e-6)
        assert thetas[0] == pytest.approx(planted_rotation, abs=1e-12)
        assert np.argmax(scores) == 0

        # with power-law post-processing the best hypothesis is unchanged
        powered = make_pipeline(exponent=0.2)
        db = np.stack([powered.encode(s) for s in [copy] + distractors])
        scores, thetas = query_multi_rotation(query, powered, db, n_rot=8)
        assert thetas[0] == pytest.approx(planted_rotation, abs=1e-12)
        assert np.argmax(scores) == 0

    @pytest.mark.parametrize("family", ["phi1", "phi3", "vlad", "fisher"])
    @pytest.mark.parametrize("adapted", [False, True], ids=["none", "adapted"])
    @pytest.mark.parametrize("n_rot", [1, 3, 8])
    def test_covariant_path_matches_rotated_rows(self, rng, family, adapted, n_rot):
        pipe = covariant_pipeline(rng, family, adapted)
        assert pipe.commuting_turns(n_rot) == n_rot
        query = random_set(rng, 20, 8, "q")
        db = np.stack([pipe.encode(random_set(rng, 20, 8, f"d{i}")) for i in range(6)])
        scores, thetas = query_multi_rotation(query, pipe, db, n_rot=n_rot)
        grid = 2.0 * np.pi * np.arange(n_rot) / n_rot
        by_rotation = pipe.encode_rotations(query, grid) @ db.T
        best = np.argmax(by_rotation, axis=0)
        assert np.max(np.abs(scores - by_rotation.max(axis=0))) < 1e-12
        assert np.array_equal(thetas, wrap_angle(grid[best]))

    @pytest.mark.parametrize("n_rot", [1, 8])
    def test_covariant_path_encodes_one_rotation(self, rng, monkeypatch, n_rot):
        # whatever n_rot, a covariant query post-processes one row, at theta = 0
        pipe = make_pipeline(exponent=0.3, adapted=True)
        db = np.stack([pipe.encode(random_set(rng, 12, 8, f"d{i}")) for i in range(3)])
        calls = []
        encode_rotations = Pipeline.encode_rotations

        def spy(self, dset, thetas):
            calls.append(np.asarray(thetas).tolist())
            return encode_rotations(self, dset, thetas)

        monkeypatch.setattr(Pipeline, "encode_rotations", spy)
        scores, _ = query_multi_rotation(random_set(rng, 12, 8, "q"), pipe, db, n_rot=n_rot)
        assert scores.shape == (3,)
        assert calls == [[0.0]]

    @pytest.mark.parametrize("adapted", [False, True], ids=["quarter-turns", "covariant"])
    def test_empty_database(self, rng, adapted):
        pipe = make_pipeline(exponent=0.3, adapted=adapted)
        assert pipe.commuting_turns(8) == (8 if adapted else 4)
        scores, thetas = query_multi_rotation(
            random_set(rng, 12, 8), pipe, np.empty((0, pipe.output_dim)), n_rot=8
        )
        assert scores.shape == (0,) and thetas.shape == (0,)

    @pytest.mark.parametrize("adapted", [False, True], ids=["rows", "covariant"])
    def test_rejects_database_of_wrong_width(self, rng, adapted):
        pipe = make_pipeline(exponent=0.3, adapted=adapted)
        with pytest.raises(ContractError, match="dim"):
            query_multi_rotation(random_set(rng, 12, 8), pipe, np.zeros((2, 48)), n_rot=8)

    def test_rejects_bad_rotation_count(self, rng):
        pipe = make_pipeline()
        with pytest.raises(ContractError):
            query_multi_rotation(random_set(rng, 4, 8), pipe, np.zeros((2, 56)), n_rot=0)

    def test_rejects_more_rotations_than_the_bound(self, rng):
        pipe = make_pipeline()
        query = random_set(rng, 4, 8)
        scores, _ = query_multi_rotation(query, pipe, np.zeros((2, 56)), n_rot=MAX_ROTATIONS)
        assert scores.shape == (2,)
        # refused before the grid of angles is allocated, not with a MemoryError
        for n_rot in (MAX_ROTATIONS + 1, 10**15):
            with pytest.raises(ContractError, match=rf"\[1, {MAX_ROTATIONS}\], got {n_rot}"):
                query_multi_rotation(query, pipe, np.zeros((2, 56)), n_rot=n_rot)


class TestQuarterTurns:
    """A plain-power-law store scores n_rot = 4m rotations from m post-processed
    rows, each read off at its quarter turns; other n_rot take the rows path."""

    @pytest.mark.parametrize("n_freq", [1, 3, 4])
    def test_quarter_turn_is_a_signed_block_permutation(self, rng, n_freq):
        pipe = make_pipeline(n_freq=n_freq, exponent=0.3)
        query = random_set(rng, 20, 8, "q")
        thetas = rng.uniform(-np.pi, np.pi, 5)
        rows = pipe.encode_rotations(query, thetas)
        for k in range(4):
            turned = pipe.encode_rotations(query, thetas + k * np.pi / 2)
            # exact but for the rounding of cos and sin at n(theta + k pi / 2), which the
            # signed power amplifies in small components: 1.9e-14 at worst over 150 draws
            assert np.max(np.abs(turned - quarter_turn(rows, 8, n_freq, k))) < 1e-13

    @pytest.fixture
    def small_tiles(self, monkeypatch):
        # 4-row tiles at one base row; 9 rows at three base rows end in a one-row tile
        monkeypatch.setattr(scoring, "_COEF_TILE_MADDS", 56 * 4)

    @staticmethod
    def check_against_rotated_rows(rng, db, n_rot):
        pipe = make_pipeline(exponent=0.3)
        assert pipe.commuting_turns(8) == 4
        query = random_set(rng, 20, 8, "q")
        scores, thetas = query_multi_rotation(query, pipe, db, n_rot=n_rot)
        grid = 2.0 * np.pi * np.arange(n_rot) / n_rot
        by_rotation = pipe.encode_rotations(query, grid) @ np.asarray(db, dtype=np.float64).T
        assert np.max(np.abs(scores - by_rotation.max(axis=0))) < 1e-12
        assert np.array_equal(thetas, wrap_angle(grid[np.argmax(by_rotation, axis=0)]))

    @staticmethod
    def database(rng, n_db=23):
        # the zero row ties every rotation: the first one wins
        pipe = make_pipeline(exponent=0.3)
        rows = [pipe.encode(random_set(rng, 20, 8, f"d{i}")) for i in range(n_db - 1)]
        return np.stack(rows + [np.zeros(pipe.output_dim)])

    @pytest.mark.parametrize("n_rot", [1, 2, 3, 4, 6, 8, 12, 16])
    @pytest.mark.parametrize("n_db", [1, 9, 23])
    def test_matches_rotated_rows(self, rng, small_tiles, n_rot, n_db):
        self.check_against_rotated_rows(rng, self.database(rng, n_db), n_rot)

    def test_float32_database(self, rng, small_tiles):
        self.check_against_rotated_rows(rng, self.database(rng).astype(np.float32), 8)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_database(self, rng, small_tiles, layout):
        db = self.database(rng)
        if layout == "fortran":
            db = np.asfortranarray(db)
        else:
            wide = np.zeros((db.shape[0], 2 * db.shape[1]))
            wide[:, ::2] = db
            db = wide[:, ::2]
        assert not db.flags.c_contiguous
        self.check_against_rotated_rows(rng, db, 8)

    @pytest.mark.parametrize("n_turns", [1, 2, 4])
    def test_quarter_turn_harmonics_are_exact(self, n_turns):
        basis = scoring._turn_harmonics(n_turns, 5)
        assert np.all(np.isin(basis, [-1.0, 0.0, 1.0]))
        assert np.max(np.abs(basis - harmonics(2 * np.pi * np.arange(n_turns) / n_turns, 5))) < 1e-14


class TestRotatedRowTiles:
    """The rows path streams the database in tiles; small tile constants make
    23 rows x 50 dims cross several row tiles and column blocks (16 + 16 + 16 + 2)."""

    @pytest.fixture
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(scoring, "_TILE_COLS", 16)
        monkeypatch.setattr(scoring, "_TILE_MADDS", 16 * 8 * 5)  # 5 rows at R = 8, 13 at R = 3

    @staticmethod
    def check_against_one_product(rng, db, n_rot):
        pipe = truncated_pipeline()
        assert pipe.commuting_turns(n_rot) == 1
        query = random_set(rng, 20, 8, "q")
        scores, thetas = query_multi_rotation(query, pipe, db, n_rot=n_rot)
        grid = 2.0 * np.pi * np.arange(n_rot) / n_rot
        by_rotation = pipe.encode_rotations(query, grid) @ db.T
        assert by_rotation.dtype == np.float64
        assert np.max(np.abs(scores - by_rotation.max(axis=0))) < 1e-12
        assert np.array_equal(thetas, wrap_angle(grid[np.argmax(by_rotation, axis=0)]))

    @staticmethod
    def database(rng, n_db=23):
        pipe = truncated_pipeline()
        return np.stack([pipe.encode(random_set(rng, 20, 8, f"d{i}")) for i in range(n_db)])

    # R = 1 and R = 9 take the single product; 3 and 8 take tiles
    @pytest.mark.parametrize("n_rot", [1, 3, 8, 9])
    @pytest.mark.parametrize("n_db", [1, 10, 23])
    def test_matches_one_product(self, rng, small_tiles, n_rot, n_db):
        self.check_against_one_product(rng, self.database(rng, n_db), n_rot)

    def test_float32_database(self, rng, small_tiles):
        self.check_against_one_product(rng, self.database(rng).astype(np.float32), 8)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_database(self, rng, small_tiles, layout):
        db = self.database(rng)
        if layout == "fortran":
            db = np.asfortranarray(db)
        else:
            wide = np.zeros((db.shape[0], 2 * db.shape[1]))
            wide[:, ::2] = db
            db = wide[:, ::2]
        assert not db.flags.c_contiguous
        self.check_against_one_product(rng, db, 8)

    def test_default_tiles_of_a_larger_database(self, rng):
        # at R = 8 the default shape gives 30-row tiles and a 52-component last block
        rows = rng.standard_normal((8, 2100)) / np.sqrt(2100)
        db = rng.standard_normal((700, 2100)) / np.sqrt(2100)
        tiled = scoring._rotated_row_scores(rows, db)
        assert np.max(np.abs(tiled - db @ rows.T)) < 1e-12


def test_max_invariant_under_global_shift(rng):
    # no non-linear post-processing: the best achievable score does not
    # depend on either image's global orientation
    xs = random_set(rng, 10, 8, "x")
    ys = random_set(rng, 10, 8, "y")
    X = aggregate(xs, EMB8, K8_N3)
    Y = aggregate(ys, EMB8, K8_N3)
    _, base = max_score(score_polynomial(X, Y), samples=256)
    Xs = aggregate(rotate_set(xs, 1.9), EMB8, K8_N3)
    _, shifted = max_score(score_polynomial(Xs, Y), samples=256)
    assert shifted == pytest.approx(base, abs=1e-6)


class TestCommutingTurns:
    N_ROT = (1, 2, 3, 4, 6, 8, 12)

    def test_truth_table(self):
        dim = 8 * 7
        rn = RnModel(rotation=np.eye(dim), eigenvalues=np.ones(dim))
        every, none = list(self.N_ROT), [1] * len(self.N_ROT)
        # (pipeline, commuting_turns(n) for n in N_ROT)
        table = [
            (make_pipeline(), every),
            (make_pipeline(exponent=0.3, adapted=True), every),
            (make_pipeline(exponent=0.3), [1, 1, 1, 4, 1, 4, 4]),
            (Pipeline(EMB8, K8_N3, rn=rn), none),
            (Pipeline(EMB8, K8_N3, truncate_dim=20), none),
            (Pipeline(EMB8, K8_N3, power_exponent=0.3, rn=rn), none),
            (truncated_pipeline(), none),
        ]
        for pipe, turns in table:
            assert [pipe.commuting_turns(n) for n in self.N_ROT] == turns

    # cos 0 = 1 and sin 0 = 0 exactly, so the base row at theta = 0 is the
    # aggregate itself: reading every turn off it loses nothing
    @pytest.mark.parametrize("family", ["phi1", "phi3", "vlad", "fisher"])
    @pytest.mark.parametrize("adapted", [False, True], ids=["none", "adapted"])
    def test_zero_rotation_of_a_covariant_pipeline_is_the_aggregate(self, rng, family, adapted):
        pipe = covariant_pipeline(rng, family, adapted)
        query = random_set(rng, 20, 8, "q")
        row = pipe.encode_rotations(query, [0.0])[0]
        assert row.tobytes() == pipe.encode(query).tobytes()

    def test_zero_rotation_of_a_plain_power_law_is_encode(self, rng):
        pipe = make_pipeline(exponent=0.3)
        query = random_set(rng, 20, 8, "q")
        assert pipe.encode_rotations(query, [0.0])[0].tobytes() == pipe.encode(query).tobytes()
