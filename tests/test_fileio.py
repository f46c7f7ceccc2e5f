import struct

import numpy as np
import pytest

from conftest import random_set, unit_rows
from covagg import (
    AngleMapConfig,
    CodebookModel,
    ContractError,
    DescriptorRecord,
    DescriptorSet,
    FormatError,
    GmmModel,
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
from covagg.fileio import DESCRIPTOR_MAGIC, SIM_HIST_HEADER

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))


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


class TestVectorFile:
    def test_round_trip(self, rng, tmp_path):
        vectors = rng.standard_normal((5, 21)).astype(np.float32).astype(np.float64)
        ids = [f"img{i:02d}" for i in range(5)]
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ids, vectors, base_dim=3, n_freq=3, family="phi2")
        store = read_vector_file(path)
        assert store.image_ids == ids
        assert store.base_dim == 3 and store.n_freq == 3 and store.family == "phi2"
        assert np.array_equal(store.vectors, vectors)

    def test_unicode_ids(self, rng, tmp_path):
        vectors = rng.standard_normal((1, 7))
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["croisé_07"], vectors, base_dim=1, n_freq=3, family="phi1")
        assert read_vector_file(path).image_ids == ["croisé_07"]

    def test_layout_mismatch_rejected(self, rng, tmp_path):
        with pytest.raises(ContractError, match="base_dim"):
            write_vector_file(
                tmp_path / "bad.cvv", ["a"], rng.standard_normal((1, 10)),
                base_dim=3, n_freq=1, family="phi1",
            )

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "vecs.cvv"
        write_vector_file(path, ["a"], rng.standard_normal((1, 7)),
                          base_dim=1, n_freq=3, family="phi1")
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(FormatError, match="truncated"):
            read_vector_file(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # 100000 records of 100000 * 7 components would need 522 GiB
        path = tmp_path / "huge.cvv"
        path.write_bytes(b"CVAGVEC1" + struct.pack("<IIII", 100000, 100000, 3, 1))
        with pytest.raises(FormatError, match="header declares 100000 vectors"):
            read_vector_file(path)


class TestModelFiles:
    def test_pca_round_trip(self, rng, tmp_path):
        model = pca_train(rng.standard_normal((50, 8)), 5)
        path = tmp_path / "pca.cvm"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.basis, model.basis)
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)

    def test_codebook_round_trip(self, rng, tmp_path):
        model = CodebookModel(rng.standard_normal((6, 4)))
        path = tmp_path / "km.cvm"
        save_model(path, model)
        assert np.array_equal(load_model(path).centroids, model.centroids)

    def test_gmm_round_trip(self, rng, tmp_path):
        weights = np.array([0.25, 0.75])
        model = GmmModel(weights, rng.standard_normal((2, 3)), np.ones((2, 3)))
        path = tmp_path / "gmm.cvm"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.means, model.means)
        assert np.array_equal(loaded.variances, model.variances)

    def test_rn_round_trip(self, rng, tmp_path):
        model = rn_train(rng.standard_normal((30, 6)), exponent=0.5)
        path = tmp_path / "rn.cvm"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, RnModel)
        assert np.array_equal(loaded.rotation, model.rotation)
        assert loaded.exponent == model.exponent
        assert loaded.whiten == model.whiten

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "mystery.cvm"
        path.write_bytes(b"CVAGMDL1" + b"XYZ\x00" + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="unknown model kind"):
            load_model(path)


class TestSimilarityHistogram:
    def make_pairs(self, rng, descriptors, deltas):
        pairs = []
        for x, delta in zip(descriptors, deltas):
            pairs.append(
                (DescriptorRecord(x, 0.0), DescriptorRecord(x.copy(), -float(delta)))
            )
        return pairs

    def test_point_mass_at_identical_pairs(self, rng):
        X = unit_rows(rng, 10, 8)
        pairs = self.make_pairs(rng, X, np.zeros(10))
        rows = similarity_histogram(pairs, bins=8, coeffs=K8_N3, value_bins=10)
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
        pairs = self.make_pairs(rng, X, np.full(16, delta))
        rows = similarity_histogram(pairs, bins=8, coeffs=K8_N3, value_bins=400)
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
        rows = similarity_histogram([], bins=8, coeffs=K8_N3, value_bins=24)
        assert len(rows) == 8 * 24
        assert all(r[5] == 0 and r[6] == 0 for r in rows)

    def test_rejects_bad_bins(self):
        with pytest.raises(ContractError):
            similarity_histogram([], bins=0, coeffs=K8_N3)
