"""Every integer argument of the library refuses a non-integer with ContractError.

NaN, infinities and None must not escape as the ValueError, OverflowError
or TypeError that ``int()`` raises on them.
"""

import json

import numpy as np
import pytest

from conftest import random_set, unit_rows
from covagg import (
    COSINE_POWER,
    AngleMapConfig,
    ContractError,
    MonomialConfig,
    Pipeline,
    PipelineConfig,
    ScorePolynomial,
    bessel_i,
    fourier_coeffs,
    gmm_train,
    kmeans_train,
    max_score,
    pca_train,
    query_multi_rotation,
    similarity_histogram,
    truncate_l2,
)

K8_N3 = fourier_coeffs(AngleMapConfig(kappa=8.0, n_freq=3))
DATA = unit_rows(np.random.default_rng(0), 40, 4)
SET = random_set(np.random.default_rng(1), 6, 4)
PIPELINE = Pipeline(MonomialConfig(1, 4), K8_N3, power_exponent=0.5)
POLY = ScorePolynomial(c0=0.1, a=np.array([0.2]), b=np.array([0.3]))

ENTRY_POINTS = {
    "AngleMapConfig.n_freq": lambda x: AngleMapConfig(n_freq=x),
    "AngleMapConfig.power": lambda x: AngleMapConfig(family=COSINE_POWER, power=x),
    "bessel_i.order": lambda x: bessel_i(x, 1.0),
    "similarity_histogram.bins": lambda x: similarity_histogram(SET, SET, x, K8_N3),
    "similarity_histogram.value_bins":
        lambda x: similarity_histogram(SET, SET, 4, K8_N3, value_bins=x),
    "pca_train.out_dim": lambda x: pca_train(DATA, x),
    "kmeans_train.k": lambda x: kmeans_train(DATA, x),
    "kmeans_train.max_iter": lambda x: kmeans_train(DATA, 2, max_iter=x),
    "gmm_train.k": lambda x: gmm_train(DATA, x),
    "gmm_train.max_iter": lambda x: gmm_train(DATA, 2, max_iter=x),
    "MonomialConfig.input_dim": lambda x: MonomialConfig(2, x),
    "max_score.samples": lambda x: max_score(POLY, samples=x),
    "query_multi_rotation.n_rot":
        lambda x: query_multi_rotation(SET, PIPELINE, np.zeros((3, PIPELINE.output_dim)), x),
    "truncate_l2.d_out": lambda x: truncate_l2(np.ones(8), x),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None, 2.5],
                         ids=["nan", "inf", "-inf", "none", "fraction"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integer_is_a_contract_error(entry, value):
    with pytest.raises(ContractError):
        ENTRY_POINTS[entry](value)


# None leaves these optional fields unset, which is valid
@pytest.mark.parametrize("value", [np.nan, np.inf, 2.5], ids=["nan", "inf", "fraction"])
@pytest.mark.parametrize("field", ["input_dim", "truncate"])
def test_non_integer_pipeline_config_field_is_a_contract_error(field, value):
    with pytest.raises(ContractError, match=f"{field} must be at least 1"):
        PipelineConfig(**{"family": "phi1", "input_dim": 4, "truncate": 4, field: value})


@pytest.mark.parametrize("value", [4, 4.0, np.int64(4), np.float32(4.0)],
                         ids=["int", "float", "int64", "float32"])
def test_whole_reals_of_any_type_are_integers(value):
    config = AngleMapConfig(n_freq=value)
    assert config.n_freq == 4 and type(config.n_freq) is int
    assert type(AngleMapConfig(family=COSINE_POWER, power=value).power) is int
    assert truncate_l2(np.ones(8), value).shape == (4,)
    embedding = MonomialConfig(2, value)
    assert type(embedding.input_dim) is int and type(embedding.output_dim) is int
    assert len(similarity_histogram(SET, SET, value, K8_N3, value_bins=value)) == 16
    config = PipelineConfig(family="phi1", input_dim=value, truncate=value)
    assert PipelineConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
