import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_set, unit_rows
from covagg import (
    AngleMapConfig,
    ContractError,
    GmmModel,
    MonomialConfig,
    Pipeline,
    PipelineConfig,
    RnModel,
    fourier_coeffs,
    load_model,
    rn_apply,
    rn_train,
    save_model,
    truncate_l2,
)

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"family": "fisher", "gmm_path": "g.cvm", "codebook_path": "k.cvm"}, "codebook"),
        ({"family": "phi2", "input_dim": 8, "codebook_path": "k.cvm"}, "codebook"),
        ({"family": "vlad", "codebook_path": "k.cvm", "gmm_path": "g.cvm"}, "gmm"),
        ({"family": "phi3", "input_dim": 8, "gmm_path": "g.cvm"}, "gmm"),
        ({"family": "phi2", "pca_path": "p.cvm", "input_dim": 8}, "input_dim"),
        ({"family": "vlad", "codebook_path": "k.cvm", "input_dim": 8}, "input_dim"),
        ({"family": "fisher", "gmm_path": "g.cvm", "pca_path": "p.cvm", "input_dim": 3},
         "input_dim"),
        ({"family": "phi1", "input_dim": 8, "adapted_power_law": True}, "exponent"),
    ],
    ids=["codebook-for-fisher", "codebook-for-phi2", "gmm-for-vlad", "gmm-for-phi3",
         "input-dim-with-pca", "input-dim-for-vlad", "input-dim-for-fisher",
         "adapted-without-exponent"],
)
def test_config_refuses_fields_its_family_never_reads(fields, message):
    with pytest.raises(ContractError, match=message):
        PipelineConfig(**fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"family": "vlad"}, "vlad needs codebook_path"),
        ({"family": "fisher", "pca_path": "p.cvm"}, "fisher needs gmm_path"),
        ({"family": "phi2"}, "phi2 needs input_dim"),
        ({"family": "phi1", "input_dim": 8, "cosine_power": 6},
         "the von_mises kernel runs n_freq=3 and cosine_power=None, not 3 and 6"),
        ({"family": "phi1", "input_dim": 8, "angle_family": "cosine_power", "cosine_power": 6,
          "n_freq": 1}, "the cosine_power kernel runs n_freq=3 and cosine_power=6, not 1 and 6"),
    ],
    ids=["vlad-without-codebook", "fisher-without-gmm", "phi2-without-input-dim",
         "cosine-power-under-von-mises", "n-freq-under-cosine-power"],
)
def test_config_refuses_what_it_cannot_run_as_recorded(fields, message):
    with pytest.raises(ContractError, match=re.escape(message)):
        PipelineConfig(**fields)


@pytest.mark.parametrize(
    "fields",
    [
        {"family": "phi3", "input_dim": 32, "power_law": 0.2, "adapted_power_law": True},
        {"family": "phi2", "pca_path": "p.cvm", "power_law": None},
        {"family": "phi1", "input_dim": 8, "angle_family": "cosine_power", "cosine_power": 6,
         "n_freq": 3},
        {"family": "vlad", "pca_path": "p.cvm", "codebook_path": "k.cvm", "power_law": 0.4},
        {"family": "fisher", "pca_path": "p.cvm", "gmm_path": "g.cvm", "rn_path": "r.cvm",
         "power_law": 0.4, "truncate": 512},
    ],
    ids=["phi3-input-dim", "phi2-pca", "cosine-power", "vlad", "fisher-rn"],
)
def test_config_accepts_the_fields_its_family_reads(fields):
    assert PipelineConfig.from_dict(PipelineConfig(**fields).to_dict()) == PipelineConfig(**fields)


def test_pipeline_refuses_adapted_power_law_without_exponent():
    with pytest.raises(ContractError, match="exponent"):
        Pipeline("phi1", MonomialConfig(1, 8), K8_N3, adapted=True)


def test_encode_rotations_needs_a_rotation(rng):
    pipe = Pipeline("phi1", MonomialConfig(1, 8), K8_N3, power_exponent=0.2)
    with pytest.raises(ContractError, match="rotation"):
        pipe.encode_rotations(random_set(rng, 10, 8), [])


def test_build_checks_rn_and_truncate_against_the_encoded_dim(tmp_path):
    # phi1 at input_dim 8 with 3 frequencies encodes 8 * 7 = 56 dims
    PipelineConfig(family="phi1", input_dim=8, truncate=56).build()
    with pytest.raises(ContractError, match="exceeds encoded dim 56"):
        PipelineConfig(family="phi1", input_dim=8, truncate=57).build()
    save_model(tmp_path / "rn.cvm", RnModel(rotation=np.eye(55)))
    with pytest.raises(ContractError, match="does not match encoded dim 56"):
        PipelineConfig(family="phi1", input_dim=8, rn_path=str(tmp_path / "rn.cvm")).build()


@pytest.mark.parametrize("truncate", [0, -3])
def test_config_refuses_truncate_below_one(truncate):
    with pytest.raises(ContractError, match="truncate must be at least 1"):
        PipelineConfig(family="phi1", input_dim=8, truncate=truncate)


class TestRnRowSlice:
    """RN followed by truncation applies only the kept rows of the rotation."""

    TRUNCATE = 20

    @pytest.fixture
    def models(self, rng, tmp_path):
        # fisher at k=2, d=4 with 3 frequencies encodes 2 * 4 * 7 = 56 dims
        gmm = GmmModel(np.array([0.4, 0.6]), unit_rows(rng, 2, 4), rng.uniform(0.05, 0.3, (2, 4)))
        save_model(tmp_path / "gmm.cvm", gmm)
        paths = {}
        for name, whiten in [("exponent", False), ("whiten", True)]:
            paths[name] = tmp_path / f"rn-{name}.cvm"
            save_model(paths[name], rn_train(rng.standard_normal((200, 56)), 0.5, whiten=whiten))
        return tmp_path / "gmm.cvm", paths

    def config(self, gmm_path, rn_path):
        return PipelineConfig(family="fisher", gmm_path=str(gmm_path), power_law=0.4,
                              rn_path=str(rn_path), truncate=self.TRUNCATE)

    @pytest.mark.parametrize("kind", ["exponent", "whiten"])
    def test_matches_truncating_the_full_model(self, rng, models, kind):
        gmm_path, rn_paths = models
        pipe = self.config(gmm_path, rn_paths[kind]).build()
        full = load_model(rn_paths[kind], RnModel)
        assert pipe.rn.rotation.shape == (self.TRUNCATE, 56)
        unreduced = replace(pipe, rn=None, truncate_dim=None)
        dset = random_set(rng, 30, 4)
        thetas = np.linspace(-np.pi, np.pi, 8, endpoint=False)
        ref = truncate_l2(rn_apply(unreduced.encode(dset), full), self.TRUNCATE)
        assert np.max(np.abs(pipe.encode(dset) - ref)) < 1e-12
        ref_rows = truncate_l2(rn_apply(unreduced.encode_rotations(dset, thetas), full),
                               self.TRUNCATE)
        assert np.max(np.abs(pipe.encode_rotations(dset, thetas) - ref_rows)) < 1e-12

    def test_slice_is_a_view_of_the_loaded_rotation(self, models):
        full = load_model(models[1]["whiten"], RnModel)
        head = full.leading_rows(self.TRUNCATE)
        assert np.shares_memory(head.rotation, full.rotation)
        assert np.array_equal(head.rotation, full.rotation[: self.TRUNCATE])
        assert head.eigenvalues is full.eigenvalues
        assert head.dim == full.dim == 56

    def test_saving_a_slice_is_refused(self, models, tmp_path):
        head = load_model(models[1]["exponent"], RnModel).leading_rows(self.TRUNCATE)
        with pytest.raises(ContractError, match="square"):
            save_model(tmp_path / "head.cvm", head)
        assert not (tmp_path / "head.cvm").exists()
