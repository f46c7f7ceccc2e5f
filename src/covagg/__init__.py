"""Orientation-covariant aggregation of local image descriptors.

Aggregates a set of (descriptor, dominant orientation) pairs into one
fixed-length vector whose inner products approximate a match kernel that
weighs descriptor similarity by orientation consistency, plus the
rotation-invariant scoring and retrieval evaluation built on top.
"""

from .aggregate import ModulatedVector
from .angle_map import (
    COSINE_POWER,
    VON_MISES,
    AngleMapConfig,
    FourierCoefficients,
    angle_feature_batch,
    bessel_i,
    fourier_coeffs,
    harmonics,
    similarity_histogram,
    truncated_kernel,
    vm_kernel,
    wrap_angle,
)
from .codebooks import (
    CodebookModel,
    GmmModel,
    PcaModel,
    gmm_posteriors,
    gmm_train,
    kmeans_train,
    pca_train,
)
from .descriptors import (
    DescriptorSet,
    EmbeddingConfig,
    FisherEmbedding,
    VladEmbedding,
    embed_batch,
    preprocess_batch,
    rootsift_batch,
)
from .errors import ContractError, CovaggError, DegenerateDataError, FormatError
from .fileio import (
    VectorStore,
    load_model,
    read_descriptor_file,
    read_vector_file,
    save_model,
    write_descriptor_file,
    write_vector_file,
)
from .monomial import MonomialConfig, monomial_output_dim
from .pipeline import Pipeline, PipelineConfig, default_power_exponent
from .postprocess import (
    RnModel,
    adapted_power_law,
    power_law,
    rn_apply,
    rn_train,
    truncate_l2,
)
from .retrieval import (
    GroundTruthEntry,
    average_precision,
    mean_ap,
    rank_by_score,
    read_ground_truth,
    write_ground_truth,
)
from .scoring import (
    ScorePolynomial,
    count_block_dots,
    max_score,
    query_multi_rotation,
    score_coefficients,
    score_cosine,
    score_polynomial,
)
from .synth import SynthConfig, generate_corpus

__version__ = "0.1.0"
