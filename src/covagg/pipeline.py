"""End-to-end encoding: prepare, embed, modulate, aggregate, post-process.

A ``Pipeline`` bundles everything needed to turn a descriptor set into a
database-ready vector. ``PipelineConfig`` is its serializable
counterpart: plain parameters plus model file paths, as stored in the
header of every vector file.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .aggregate import ModulatedVector, aggregate, aggregate_rotations
from .angle_map import (
    VON_MISES,
    AngleMapConfig,
    FourierCoefficients,
    fourier_coeffs,
)
from .codebooks import CodebookModel, GmmModel, PcaModel
from .descriptors import (
    DescriptorSet,
    EmbeddingConfig,
    FisherEmbedding,
    VladEmbedding,
    preprocess_batch,
    rootsift_batch,
)
from .errors import ContractError
from .monomial import MonomialConfig
from .postprocess import RnModel, adapted_power_law, power_law, rn_apply, truncate_l2

MONOMIAL_DEGREES = {"phi1": 1, "phi2": 2, "phi3": 3}
FAMILIES = ("phi1", "phi2", "phi3", "vlad", "fisher")

# Exponents that work well per coding family; monomial embeddings want a
# stronger correction than the codebook families.
DEFAULT_POWER_LAW = {"phi1": 0.2, "phi2": 0.2, "phi3": 0.2, "vlad": 0.4, "fisher": 0.4}


def default_power_exponent(family: str) -> float:
    if family not in DEFAULT_POWER_LAW:
        raise ContractError(f"unknown coding family {family!r}")
    return DEFAULT_POWER_LAW[family]


@dataclass(frozen=True)
class Pipeline:
    """Resolved encoding pipeline with loaded models."""

    family: str
    embedding: EmbeddingConfig
    coeffs: FourierCoefficients
    pca: Optional[PcaModel] = None
    pca_reduce: bool = True
    power_exponent: Optional[float] = None
    adapted: bool = False
    rn: Optional[RnModel] = None
    truncate_dim: Optional[int] = None

    @property
    def n_freq(self) -> int:
        return self.coeffs.n_freq

    @property
    def base_dim(self) -> int:
        return self.embedding.output_dim

    @property
    def output_dim(self) -> int:
        if self.truncate_dim is not None:
            return self.truncate_dim
        return self.base_dim * (2 * self.n_freq + 1)

    def stored_layout(self) -> tuple[int, int]:
        """(base_dim, n_freq) describing the final vector layout.

        Truncation destroys the block structure, so truncated vectors
        are declared as flat (length, 0).
        """
        if self.truncate_dim is not None:
            return self.truncate_dim, 0
        return self.base_dim, self.n_freq

    def prepare(self, dset: DescriptorSet) -> DescriptorSet:
        """Square-root normalize raw descriptors and apply PCA if configured."""
        X = dset.descriptors
        changed = False
        if dset.raw:
            X = rootsift_batch(X)
            changed = True
        if self.pca is not None:
            X = preprocess_batch(X, self.pca, self.pca_reduce)
            changed = True
        if not changed:
            return dset
        return DescriptorSet(X, dset.angles, image_id=dset.image_id)

    def encode_modulated(self, dset: DescriptorSet) -> ModulatedVector:
        """Aggregated vector before any non-linear post-processing."""
        return aggregate(self.prepare(dset), self.embedding, self.coeffs)

    def postprocess_vector(self, vec: ModulatedVector) -> np.ndarray:
        if self.power_exponent is not None:
            if self.adapted:
                values = adapted_power_law(vec, self.power_exponent).values
            else:
                values = power_law(vec.values, self.power_exponent)
        else:
            values = np.asarray(vec.values)
        if self.rn is not None:
            values = rn_apply(values, self.rn)
        if self.truncate_dim is not None:
            values = truncate_l2(values, self.truncate_dim)
        return np.asarray(values, dtype=np.float64)

    def encode(self, dset: DescriptorSet) -> np.ndarray:
        """Full pipeline: database-ready vector for one image."""
        return self.postprocess_vector(self.encode_modulated(dset))

    def encode_rotations(self, dset: DescriptorSet, thetas) -> np.ndarray:
        """One fully post-processed vector per global rotation hypothesis.

        The set is aggregated once and block-rotated per rotation before
        post-processing, which matches encoding the rotated sets exactly.
        """
        prepared = self.prepare(dset)
        vecs = aggregate_rotations(prepared, self.embedding, self.coeffs, thetas)
        return np.stack([self.postprocess_vector(v) for v in vecs])


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotated ``hint``; ints pass as floats."""
    kinds = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in kinds
    if isinstance(value, int) and float in kinds:
        return True
    return isinstance(value, kinds)


@dataclass(frozen=True)
class PipelineConfig:
    """Serializable pipeline description; model files referenced by path."""

    family: str
    kappa: float = 8.0
    n_freq: int = 3
    angle_family: str = VON_MISES
    cosine_power: Optional[int] = None
    input_dim: Optional[int] = None
    pca_path: Optional[str] = None
    pca_reduce: Optional[bool] = None
    codebook_path: Optional[str] = None
    gmm_path: Optional[str] = None
    power_law: Optional[float] = None
    skip_power_law: bool = False
    adapted_power_law: bool = False
    rn_path: Optional[str] = None
    truncate: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"unknown coding family {self.family!r}; choose from {FAMILIES}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> PipelineConfig:
        """Inverse of ``to_dict``: every field present, each of its declared type."""
        if not isinstance(data, dict):
            raise ContractError(f"pipeline config must be a mapping, got {type(data).__name__}")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        unknown = sorted(set(data) - set(names))
        if missing or unknown:
            raise ContractError(f"pipeline config lacks keys {missing}, has unknown keys {unknown}")
        hints = typing.get_type_hints(cls)
        for name in names:
            if not _has_type(data[name], hints[name]):
                raise ContractError(f"pipeline config {name!r} has a wrong type: {data[name]!r}")
        return cls(**data)

    def build(self) -> Pipeline:
        """Load referenced models, resolve defaults, and validate dims."""
        from .fileio import load_model  # deferred to keep module imports acyclic

        pca = None
        if self.pca_path is not None:
            pca = load_model(self.pca_path)
            if not isinstance(pca, PcaModel):
                raise ContractError(f"{self.pca_path} does not hold a pca model")
        reduce = self.pca_reduce
        if reduce is None:
            reduce = self.family != "vlad"

        if self.family in MONOMIAL_DEGREES:
            if pca is not None:
                dim = pca.out_dim if reduce else pca.input_dim
            elif self.input_dim is not None:
                dim = int(self.input_dim)
            else:
                raise ContractError(
                    "monomial families need either a pca model or an explicit input_dim"
                )
            embedding: EmbeddingConfig = MonomialConfig(
                degree=MONOMIAL_DEGREES[self.family], input_dim=dim
            )
        elif self.family == "vlad":
            if self.codebook_path is None:
                raise ContractError("vlad needs a codebook model")
            codebook = load_model(self.codebook_path)
            if not isinstance(codebook, CodebookModel):
                raise ContractError(f"{self.codebook_path} does not hold a codebook model")
            embedding = VladEmbedding(codebook=codebook)
        else:
            if self.gmm_path is None:
                raise ContractError("fisher needs a gmm model")
            gmm = load_model(self.gmm_path)
            if not isinstance(gmm, GmmModel):
                raise ContractError(f"{self.gmm_path} does not hold a gmm model")
            embedding = FisherEmbedding(gmm=gmm)

        if pca is not None and not isinstance(embedding, MonomialConfig):
            expected = pca.out_dim if reduce else pca.input_dim
            if embedding.input_dim != expected:
                raise ContractError(
                    f"pca produces {expected}-dim descriptors but the "
                    f"{self.family} model expects {embedding.input_dim}"
                )

        coeffs = fourier_coeffs(
            AngleMapConfig(self.kappa, self.n_freq, self.angle_family, self.cosine_power)
        )

        if self.skip_power_law:
            exponent = None
        elif self.power_law is not None:
            exponent = float(self.power_law)
        else:
            exponent = default_power_exponent(self.family)

        rn = None
        if self.rn_path is not None:
            rn = load_model(self.rn_path)
            if not isinstance(rn, RnModel):
                raise ContractError(f"{self.rn_path} does not hold an rn model")
            full_dim = embedding.output_dim * (2 * coeffs.n_freq + 1)
            if rn.dim != full_dim:
                raise ContractError(
                    f"rn model dim {rn.dim} does not match encoded dim {full_dim}"
                )

        pipeline = Pipeline(
            family=self.family,
            embedding=embedding,
            coeffs=coeffs,
            pca=pca,
            pca_reduce=reduce,
            power_exponent=exponent,
            adapted=self.adapted_power_law,
            rn=rn,
            truncate_dim=self.truncate,
        )
        if self.truncate is not None and self.truncate > pipeline.base_dim * (
            2 * pipeline.n_freq + 1
        ):
            raise ContractError(
                f"truncate={self.truncate} exceeds encoded dim "
                f"{pipeline.base_dim * (2 * pipeline.n_freq + 1)}"
            )
        return pipeline
