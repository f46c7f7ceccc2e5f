import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_set, unit_rows
from covagg import (
    AngleMapConfig,
    CodebookModel,
    ContractError,
    CovaggError,
    DescriptorSet,
    FormatError,
    GmmModel,
    PcaModel,
    PipelineConfig,
    RnModel,
    fourier_coeffs,
    load_model,
    pca_train,
    read_descriptor_file,
    read_vector_file,
    rn_train,
    save_model,
    similarity_histogram,
    truncated_kernel,
    write_descriptor_file,
    write_vector_file,
)
import covagg.fileio as fileio_module
from covagg.angle_map import SIM_HIST_HEADER
from covagg.cli import main
from covagg.fileio import DESCRIPTOR_MAGIC, MODEL_MAGIC, VECTOR_MAGIC

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
CONFIG = PipelineConfig(family="phi1", input_dim=8, power_law=0.2)
# magic, then u32 count, base_dim, n_freq and config length
VECTOR_HEADER = len(VECTOR_MAGIC) + 16
# magic, kind tag, then u32 dimension count and two dims
MODEL_HEADER = len(MODEL_MAGIC) + 4 + 12


class TestDescriptorFile:
    def test_round_trip_is_bit_identical(self, rng, tmp_path):
        dset = random_set(rng, 25, 16, "img_a")
        path = tmp_path / "img_a.cvd"
        write_descriptor_file(dset, path)
        first = path.read_bytes()
        loaded = read_descriptor_file(path)
        assert loaded.image_id == "img_a"
        write_descriptor_file(loaded, path)
        assert path.read_bytes() == first

    def test_raw_flag_round_trip(self, rng, tmp_path):
        raw = DescriptorSet(rng.uniform(0, 1, (4, 8)), rng.uniform(-3, 3, 4), raw=True)
        path = tmp_path / "raw.cvd"
        write_descriptor_file(raw, path)
        assert read_descriptor_file(path).raw is True

    def test_truncated_file_names_byte_counts(self, rng, tmp_path):
        dset = random_set(rng, 10, 8)
        path = tmp_path / "cut.cvd"
        write_descriptor_file(dset, path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FormatError, match="expected .* bytes"):
            read_descriptor_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cvd"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 12)
        with pytest.raises(FormatError, match="bad magic"):
            read_descriptor_file(path)

    def test_non_finite_value_reports_offset(self, rng, tmp_path):
        dset = random_set(rng, 3, 4, "x")
        path = tmp_path / "nan.cvd"
        write_descriptor_file(dset, path)
        data = bytearray(path.read_bytes())
        header = len(DESCRIPTOR_MAGIC) + 12
        data[header : header + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"byte {header}"):
            read_descriptor_file(path)

    def test_trailing_garbage_rejected(self, rng, tmp_path):
        dset = random_set(rng, 3, 4)
        path = tmp_path / "extra.cvd"
        write_descriptor_file(dset, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_descriptor_file(path)

    def test_empty_set_is_valid_file(self, tmp_path):
        empty = DescriptorSet(np.empty((0, 8)), np.empty(0), "nothing")
        path = tmp_path / "empty.cvd"
        write_descriptor_file(empty, path)
        loaded = read_descriptor_file(path)
        assert len(loaded) == 0
        assert loaded.dim == 8

    def test_no_temp_files_left_behind(self, rng, tmp_path):
        dset = random_set(rng, 5, 4)
        write_descriptor_file(dset, tmp_path / "a.cvd")
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []


def test_failed_atomic_write_is_reraised_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"before")
    # the second part is not bytes-like, so the write fails after the first
    with pytest.raises(TypeError):
        fileio_module.atomic_write_bytes(path, b"first part", object())
    assert path.read_bytes() == b"before"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestVectorFile:
    def test_round_trip(self, rng, tmp_path):
        vectors = rng.standard_normal((5, 21)).astype(np.float32).astype(np.float64)
        ids = [f"img{i:02d}" for i in range(5)]
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ids, vectors, base_dim=3, n_freq=3, config=CONFIG)
        store = read_vector_file(path)
        assert store.image_ids == ids
        assert store.base_dim == 3 and store.n_freq == 3 and store.config == CONFIG
        assert np.array_equal(store.vectors, vectors)

    def test_unicode_ids(self, rng, tmp_path):
        vectors = rng.standard_normal((1, 7))
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["croisé_07"], vectors, base_dim=1, n_freq=3, config=CONFIG)
        assert read_vector_file(path).image_ids == ["croisé_07"]

    def test_layout_mismatch_rejected(self, rng, tmp_path):
        with pytest.raises(ContractError, match="base_dim"):
            write_vector_file(
                tmp_path / "bad.cvv", ["a"], rng.standard_normal((1, 10)),
                base_dim=3, n_freq=1, config=CONFIG,
            )

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["a"], rng.standard_normal((1, 7)),
                          base_dim=1, n_freq=3, config=CONFIG)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError, match="truncated"):
            read_vector_file(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # 100000 records of 100000 * 7 components would need 522 GiB
        path = tmp_path / "huge.cvv"
        path.write_bytes(b"CVAGVEC2" + struct.pack("<IIII", 100000, 100000, 3, 2) + b"{}")
        with pytest.raises(FormatError, match="header declares 100000 vectors"):
            read_vector_file(path)

    def test_layout_is_header_config_ids_matrix(self, tmp_path):
        vectors = np.arange(14.0).reshape(2, 7)
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["a", "bc"], vectors, base_dim=1, n_freq=3, config=CONFIG)
        config_json = json.dumps(CONFIG.to_dict(), sort_keys=True, separators=(",", ":"))
        assert path.read_bytes() == (
            b"CVAGVEC2" + struct.pack("<IIII", 2, 1, 3, len(config_json))
            + config_json.encode("ascii")
            + struct.pack("<I", 1) + b"a" + struct.pack("<I", 2) + b"bc"
            + vectors.astype("<f4").tobytes()
        )

    def test_non_finite_value_reports_offset(self, tmp_path):
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["a"], np.ones((1, 7)), base_dim=1, n_freq=3, config=CONFIG)
        data = bytearray(path.read_bytes())
        data[-8:-4] = struct.pack("<f", np.inf)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"non-finite vector value at byte {len(data) - 8}"):
            read_vector_file(path)

    def test_payload_spanning_several_chunks(self, rng, tmp_path, monkeypatch):
        vectors = rng.standard_normal((5, 21)).astype(np.float32)
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, [f"img{i}" for i in range(5)], vectors,
                          base_dim=3, n_freq=3, config=CONFIG)
        monkeypatch.setattr(fileio_module, "READ_CHUNK", 40)  # 10 reals: 11 chunks, last of 5
        store = read_vector_file(path)
        assert store.vectors.dtype == np.float64
        assert np.array_equal(store.vectors, vectors)

    def test_non_finite_value_in_last_chunk_reports_offset(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, [f"img{i}" for i in range(5)], rng.standard_normal((5, 21)),
                          base_dim=3, n_freq=3, config=CONFIG)
        data = bytearray(path.read_bytes())
        nan_at = len(data) - 3 * 4  # real 102 of 105, in the last chunk (reals 100-104)
        data[nan_at : nan_at + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(data))
        monkeypatch.setattr(fileio_module, "READ_CHUNK", 40)
        with pytest.raises(FormatError, match=f"non-finite vector value at byte {nan_at}$"):
            read_vector_file(path)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda data: data[:-1], "truncated while reading vector at byte"),
         (lambda data: data + b"\x00", "1 unexpected trailing bytes")],
        ids=["truncated", "trailing-byte"],
    )
    def test_damaged_payload_exits_2(self, rng, tmp_path, monkeypatch, capsys, edit, message):
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, [f"img{i}" for i in range(5)], rng.standard_normal((5, 21)),
                          base_dim=3, n_freq=3, config=CONFIG)
        path.write_bytes(edit(path.read_bytes()))
        monkeypatch.setattr(fileio_module, "READ_CHUNK", 40)
        assert main(["train-rn", "--vectors", str(path), "--out", str(tmp_path / "rn.cvm")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rn.cvm").exists()

    def test_float64_and_float32_inputs_store_the_same_bytes(self, rng, tmp_path):
        vectors = rng.standard_normal((4, 7))
        stored = []
        for name, matrix in [("f8", vectors), ("f4", vectors.astype(np.float32)),
                             ("fortran", np.asfortranarray(vectors))]:
            write_vector_file(tmp_path / name, list("abcd"), matrix,
                              base_dim=1, n_freq=3, config=CONFIG)
            stored.append((tmp_path / name).read_bytes())
        assert stored[0] == stored[1] == stored[2]

    def test_invalid_utf8_id_rejected(self, tmp_path):
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["a"], np.ones((1, 7)), base_dim=1, n_freq=3, config=CONFIG)
        data = bytearray(path.read_bytes())
        id_at = VECTOR_HEADER + struct.unpack_from("<I", data, VECTOR_HEADER - 4)[0] + 4
        assert data[id_at : id_at + 1] == b"a"
        data[id_at] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"invalid UTF-8 image id at byte {id_at}"):
            read_vector_file(path)

    def test_repeated_id_refused_before_writing(self, tmp_path):
        path = tmp_path / "vecs.cvv"
        with pytest.raises(ContractError, match="image id 'b' occurs more than once"):
            write_vector_file(path, ["a", "b", "b"], np.ones((3, 7)),
                              base_dim=1, n_freq=3, config=CONFIG)
        assert list(tmp_path.iterdir()) == []

    def test_repeated_id_in_file_rejected(self, tmp_path):
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["ab", "ac"], np.ones((2, 7)), base_dim=1, n_freq=3, config=CONFIG)
        data = path.read_bytes()
        assert data.count(b"ac") == 1
        path.write_bytes(data.replace(b"ac", b"ab"))
        with pytest.raises(FormatError, match=re.escape(f"{path}: image id 'ab' occurs")):
            read_vector_file(path)

    def test_v1_file_rejected(self, tmp_path):
        path = tmp_path / "old.cvv"
        path.write_bytes(
            b"CVAGVEC1" + struct.pack("<IIIII", 1, 1, 0, 1, 1) + b"a" + struct.pack("<f", 1.0)
        )
        with pytest.raises(FormatError, match="bad magic"):
            read_vector_file(path)

    @pytest.mark.parametrize(
        "config_json",
        [
            b"{not json",
            b"\xff\xfe",
            b"[]",
            json.dumps({**CONFIG.to_dict(), "colour": "red"}).encode(),
            json.dumps({k: v for k, v in CONFIG.to_dict().items() if k != "kappa"}).encode(),
            json.dumps({**CONFIG.to_dict(), "kappa": "8"}).encode(),
            json.dumps({**CONFIG.to_dict(), "n_freq": 3.0}).encode(),
            json.dumps({**CONFIG.to_dict(), "adapted_power_law": 0}).encode(),
            json.dumps({**CONFIG.to_dict(), "rn_path": 7}).encode(),
            json.dumps({**CONFIG.to_dict(), "family": "phi9"}).encode(),
            json.dumps({**CONFIG.to_dict(), "pca_reduce": None}).encode(),
            json.dumps({**CONFIG.to_dict(), "skip_power_law": False}).encode(),
            json.dumps({**CONFIG.to_dict(), "power_law": None, "adapted_power_law": True}).encode(),
            json.dumps({**CONFIG.to_dict(), "truncate": 0}).encode(),
            json.dumps({**CONFIG.to_dict(), "truncate": -3}).encode(),
            json.dumps({**CONFIG.to_dict(), "kappa": -1.0}).encode(),
            json.dumps({**CONFIG.to_dict(), "n_freq": -2}).encode(),
            json.dumps({**CONFIG.to_dict(), "angle_family": "bogus"}).encode(),
            json.dumps({**CONFIG.to_dict(), "angle_family": "cosine_power"}).encode(),
            json.dumps({**CONFIG.to_dict(), "power_law": 7.0}).encode(),
            json.dumps({**CONFIG.to_dict(), "power_law": 0.0}).encode(),
        ],
        ids=["malformed", "not-utf8", "not-an-object", "unknown-key", "missing-key",
             "str-for-float", "float-for-int", "int-for-bool", "int-for-path", "bad-family",
             "pca-reduce-key", "skip-power-law-key", "adapted-without-exponent",
             "zero-truncate", "negative-truncate", "negative-kappa", "negative-n-freq",
             "bad-angle-family", "cosine-power-without-power", "power-law-above-one",
             "zero-power-law"],
    )
    def test_bad_config_rejected(self, tmp_path, config_json):
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["a"], np.ones((1, 7)), base_dim=1, n_freq=3, config=CONFIG)
        data = path.read_bytes()
        old_len = struct.unpack_from("<I", data, VECTOR_HEADER - 4)[0]
        path.write_bytes(
            data[: VECTOR_HEADER - 4] + struct.pack("<I", len(config_json)) + config_json
            + data[VECTOR_HEADER + old_len :]
        )
        with pytest.raises(FormatError) as exc:
            read_vector_file(path)
        assert str(exc.value).startswith(f"{path}: bad pipeline config at byte {VECTOR_HEADER}")

    @pytest.mark.parametrize(
        "changes",
        [{"kappa": -1.0}, {"n_freq": -2}, {"angle_family": "bogus"}, {"power_law": 7.0},
         {"power_law": 7.0, "adapted_power_law": True}],
        ids=["kappa", "n_freq", "angle_family", "power_law", "adapted_power_law"],
    )
    def test_out_of_range_config_is_refused_on_construction(self, changes):
        with pytest.raises(ContractError):
            PipelineConfig(**{**CONFIG.to_dict(), **changes})


class TestModelFiles:
    def test_pca_round_trip(self, rng, tmp_path):
        model = pca_train(rng.standard_normal((50, 8)), 5)
        path = tmp_path / "pca.cvm"
        save_model(path, model)
        loaded = load_model(path, PcaModel)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.basis, model.basis)
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)

    def test_codebook_round_trip(self, rng, tmp_path):
        model = CodebookModel(rng.standard_normal((6, 4)))
        path = tmp_path / "km.cvm"
        save_model(path, model)
        assert np.array_equal(load_model(path, CodebookModel).centroids, model.centroids)

    def test_gmm_round_trip(self, rng, tmp_path):
        weights = np.array([0.25, 0.75])
        model = GmmModel(weights, rng.standard_normal((2, 3)), np.ones((2, 3)))
        path = tmp_path / "gmm.cvm"
        save_model(path, model)
        loaded = load_model(path, GmmModel)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.means, model.means)
        assert np.array_equal(loaded.variances, model.variances)

    def test_rn_round_trip(self, rng, tmp_path):
        model = rn_train(rng.standard_normal((30, 6)), exponent=0.5)
        path = tmp_path / "rn.cvm"
        save_model(path, model)
        loaded = load_model(path, RnModel)
        assert isinstance(loaded, RnModel)
        assert np.array_equal(loaded.rotation, model.rotation)
        assert loaded.exponent == model.exponent
        assert loaded.whiten == model.whiten

    @pytest.mark.parametrize("kind", ["pca", "codebook", "gmm", "rn"])
    def test_non_finite_value_reports_offset(self, rng, tmp_path, kind):
        path = tmp_path / f"{kind}.cvm"
        model = _small_model(kind, rng)
        save_model(path, model)
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"non-finite .* value at byte {len(data) - 8}"):
            load_model(path, type(model))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "mystery.cvm"
        path.write_bytes(b"CVAGMDL1" + b"XYZ\x00" + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="unknown model kind"):
            load_model(path, PcaModel)

    @pytest.mark.parametrize("stored, kind", [("codebook", PcaModel), ("pca", GmmModel),
                                              ("gmm", RnModel), ("rn", CodebookModel)])
    def test_other_kind_is_refused(self, rng, tmp_path, stored, kind):
        path = tmp_path / f"{stored}.cvm"
        save_model(path, _small_model(stored, rng))
        name = {PcaModel: "pca", GmmModel: "gmm", RnModel: "rn", CodebookModel: "codebook"}[kind]
        with pytest.raises(ContractError, match=re.escape(f"{path} does not hold a {name} model")):
            load_model(path, kind)

    @pytest.mark.parametrize(
        "kind, offset, value, message",
        [("pca", MODEL_HEADER + 4 * 8, 0.5, "pca basis rows are not orthonormal"),
         ("gmm", MODEL_HEADER, 0.3, "gmm weights must be positive and sum to 1")],
        ids=["pca-basis", "gmm-weights"],
    )
    def test_model_failing_its_checks_names_the_path(self, rng, tmp_path, kind, offset, value,
                                                     message):
        # the pca model maps 4 to 3 dims, so its basis follows a 4-real mean
        path = tmp_path / f"{kind}.cvm"
        model = _small_model(kind, rng)
        save_model(path, model)
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            load_model(path, type(model))


class TestSimilarityHistogram:
    EMPTY = DescriptorSet(np.empty((0, 8)), np.empty(0))

    def make_pairs(self, descriptors, deltas):
        """Two sets pairing each row with itself at angle difference ``delta``."""
        return (
            DescriptorSet(descriptors, np.zeros(len(deltas))),
            DescriptorSet(descriptors.copy(), -np.asarray(deltas)),
        )

    def test_point_mass_at_identical_pairs(self, rng):
        X = unit_rows(rng, 10, 8)
        set_a, set_b = self.make_pairs(X, np.zeros(10))
        rows = similarity_histogram(set_a, set_b, bins=8, coeffs=K8_N3, value_bins=10)
        assert len(rows) == 80
        header_idx = {name: i for i, name in enumerate(SIM_HIST_HEADER)}
        populated = [r for r in rows if r[header_idx["count_raw"]] > 0]
        # identical descriptors at delta 0: all raw mass at similarity 1
        assert len(populated) == 1
        row = populated[0]
        assert row[header_idx["delta_lo"]] <= 0.0 <= row[header_idx["delta_hi"]]
        assert row[header_idx["sim_hi"]] == pytest.approx(1.0)
        assert row[header_idx["count_raw"]] == 10

    def test_modulated_mass_scaled_by_kernel(self, rng):
        # point mass at a fixed angle difference: the modulated histogram
        # is the raw histogram relocated to sim * k(delta)
        delta = 1.1
        X = unit_rows(rng, 16, 8)
        set_a, set_b = self.make_pairs(X, np.full(16, delta))
        rows = similarity_histogram(set_a, set_b, bins=8, coeffs=K8_N3, value_bins=400)
        header_idx = {name: i for i, name in enumerate(SIM_HIST_HEADER)}
        expected = 1.0 * truncated_kernel(delta, K8_N3)
        hit = [
            r
            for r in rows
            if r[header_idx["count_modulated"]] > 0
            and r[header_idx["sim_lo"]] <= expected < r[header_idx["sim_hi"]]
        ]
        assert sum(r[header_idx["count_modulated"]] for r in hit) == 16

    def test_eight_bins_default_shape(self, rng):
        rows = similarity_histogram(self.EMPTY, self.EMPTY, bins=8, coeffs=K8_N3, value_bins=24)
        assert len(rows) == 8 * 24
        assert all(r[5] == 0 and r[6] == 0 for r in rows)

    def test_rejects_bad_bins(self):
        with pytest.raises(ContractError):
            similarity_histogram(self.EMPTY, self.EMPTY, bins=0, coeffs=K8_N3)

    def test_rejects_unequal_sets(self, rng):
        with pytest.raises(ContractError, match="record counts"):
            similarity_histogram(random_set(rng, 3, 8), random_set(rng, 2, 8), 8, K8_N3)
        with pytest.raises(ContractError, match="descriptor dims"):
            similarity_histogram(random_set(rng, 3, 8), random_set(rng, 3, 4), 8, K8_N3)

    def test_pair_similarities_are_row_dot_products(self, rng):
        # each pair lands in the value bin of np.dot of its rows
        set_a, set_b = random_set(rng, 50, 16), random_set(rng, 50, 16)
        rows = similarity_histogram(set_a, set_b, bins=1, coeffs=K8_N3, value_bins=50)
        sims = np.array([np.dot(a, b) for a, b in zip(set_a.descriptors, set_b.descriptors)])
        expected = np.bincount(np.clip(((sims + 1.0) / 2.0 * 50).astype(int), 0, 49),
                               minlength=50)
        assert [r[5] for r in rows] == expected.tolist()


def _small_model(kind, rng):
    if kind == "pca":
        return pca_train(rng.standard_normal((20, 4)), 3)
    if kind == "codebook":
        return CodebookModel(rng.standard_normal((3, 4)))
    if kind == "gmm":
        return GmmModel(np.array([0.25, 0.75]), rng.standard_normal((2, 3)), np.ones((2, 3)))
    return rn_train(rng.standard_normal((12, 5)), exponent=0.5)


def _mutations(size):
    """A truncation to fewer than ``size`` bytes, or up to 8 byte overwrites."""
    cut = st.integers(0, size - 1).map(lambda n: ("cut", n))
    writes = st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, 255)),
                      min_size=1, max_size=8).map(lambda w: ("set", w))
    return st.one_of(cut, writes)


def _mutate(data, mutation):
    how, arg = mutation
    if how == "cut":
        return data[:arg]
    out = bytearray(data)
    for pos, value in arg:
        out[pos] = value
    return bytes(out)


FUZZ = settings(derandomize=True, max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestParsersNeverCrash:
    """Every truncation or overwrite of a valid file parses or raises a CovaggError."""

    def check(self, path, original, parse, data):
        path.write_bytes(_mutate(original, data.draw(_mutations(len(original)))))
        try:
            parse(path)
        except CovaggError:
            pass

    @FUZZ
    @given(data=st.data())
    def test_descriptor_file(self, tmp_path, data):
        path = tmp_path / "fuzz.cvd"
        write_descriptor_file(random_set(np.random.default_rng(0), 3, 4), path)
        self.check(path, path.read_bytes(), read_descriptor_file, data)

    @pytest.mark.parametrize("kind", ["pca", "codebook", "gmm", "rn"])
    @FUZZ
    @given(data=st.data())
    def test_model_file(self, tmp_path, kind, data):
        path = tmp_path / "fuzz.cvm"
        model = _small_model(kind, np.random.default_rng(0))
        save_model(path, model)
        self.check(path, path.read_bytes(), lambda p: load_model(p, type(model)), data)

    @FUZZ
    @given(data=st.data())
    def test_vector_file(self, tmp_path, data):
        path = tmp_path / "fuzz.cvv"
        vectors = np.random.default_rng(0).standard_normal((2, 7))
        write_vector_file(path, ["a", "b"], vectors, base_dim=1, n_freq=3, config=CONFIG)
        self.check(path, path.read_bytes(), read_vector_file, data)
