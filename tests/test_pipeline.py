import numpy as np
import pytest

from conftest import random_set
from covagg import (
    AngleMapConfig,
    ContractError,
    MonomialConfig,
    Pipeline,
    PipelineConfig,
    RnModel,
    fourier_coeffs,
    save_model,
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
    "fields",
    [
        {"family": "phi3", "input_dim": 32, "power_law": 0.2, "adapted_power_law": True},
        {"family": "phi2", "pca_path": "p.cvm", "power_law": None},
        {"family": "vlad", "pca_path": "p.cvm", "codebook_path": "k.cvm", "power_law": 0.4},
        {"family": "fisher", "pca_path": "p.cvm", "gmm_path": "g.cvm", "rn_path": "r.cvm",
         "power_law": 0.4, "truncate": 512},
    ],
    ids=["phi3-input-dim", "phi2-pca", "vlad", "fisher-rn"],
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
