"""End-to-end encoding: prepare, embed, modulate, aggregate, post-process.

A ``Pipeline`` bundles everything needed to turn a descriptor set into a
database-ready vector. ``PipelineConfig`` is its serializable
counterpart: plain parameters plus model file paths, as stored in the
header of every vector file. A config is complete and canonical or it is
not constructed, so ``PipelineConfig.build`` only loads the models and
checks the dimensions that need them.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .aggregate import ModulatedVector, aggregate, rotated_rows
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
from .postprocess import (
    RnModel,
    _check_exponent,
    adapted_power_law,
    power_law,
    rn_apply,
    truncate_l2,
)

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
    power_exponent: Optional[float] = None
    adapted: bool = False
    rn: Optional[RnModel] = None
    truncate_dim: Optional[int] = None

    def __post_init__(self):
        if self.adapted and self.power_exponent is None:
            raise ContractError("the adapted power law needs an exponent")

    @property
    def n_freq(self) -> int:
        return self.coeffs.n_freq

    @property
    def base_dim(self) -> int:
        return self.embedding.output_dim

    @property
    def output_dim(self) -> int:
        length, n_freq = self.stored_layout()
        return length * (2 * n_freq + 1)

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
        if not dset.raw and self.pca is None:
            return dset
        X = rootsift_batch(dset.descriptors) if dset.raw else dset.descriptors
        if self.pca is not None:
            X = preprocess_batch(X, self.pca)
        return DescriptorSet(X, dset.angles, image_id=dset.image_id)

    @property
    def block_covariant(self) -> bool:
        """Whether every stage after aggregation commutes with ``rotated_rows``.

        Then ``_postprocess_rows`` is the identity, a stored vector keeps
        the block layout, and ``encode_rotations`` is
        ``rotated_rows(modulated(dset), thetas)``.
        """
        plain_power_law = self.power_exponent is not None and not self.adapted
        return not plain_power_law and self.rn is None and self.truncate_dim is None

    def modulated(self, dset: DescriptorSet) -> ModulatedVector:
        """Aggregate and apply the adapted power law: the stages that commute with rotation."""
        vec = aggregate(self.prepare(dset), self.embedding, self.coeffs)
        if self.adapted:
            vec = adapted_power_law(vec, self.power_exponent)
        return vec

    def _postprocess_rows(self, rows: np.ndarray) -> np.ndarray:
        """Plain power law, RN and truncation, applied to each row."""
        if self.power_exponent is not None and not self.adapted:
            rows = power_law(rows, self.power_exponent)
        if self.rn is not None:
            rows = rn_apply(rows, self.rn)
        if self.truncate_dim is not None:
            rows = truncate_l2(rows, self.truncate_dim)
        return rows

    def encode(self, dset: DescriptorSet) -> np.ndarray:
        """Full pipeline: database-ready vector for one image."""
        return self._postprocess_rows(self.modulated(dset).values)

    def encode_rotations(self, dset: DescriptorSet, thetas) -> np.ndarray:
        """Row i is ``encode`` of the set rotated by ``thetas[i]``.

        The set is aggregated once and takes the adapted power law, which
        commutes with ``rotated_rows``, before rotation; the rotated rows
        take the plain power law, RN and truncation as one matrix.
        """
        thetas = np.atleast_1d(thetas)
        if thetas.size == 0:
            raise ContractError("encode_rotations needs at least one rotation")
        return self._postprocess_rows(rotated_rows(self.modulated(dset), thetas))


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
    """Serializable pipeline description; model files referenced by path.

    Every field is a resolved decision: ``power_law`` is the exponent
    (``None``: no power law), and a PCA model's ``out_dim`` is the
    dimension the embedding receives. A config the pipeline cannot run
    exactly as recorded is refused: each model path and ``input_dim`` is
    set exactly when the family reads it, and ``n_freq`` and
    ``cosine_power`` are the values the angle kernel runs.
    """

    family: str
    kappa: float = 8.0
    n_freq: int = 3
    angle_family: str = VON_MISES
    cosine_power: Optional[int] = None
    input_dim: Optional[int] = None
    pca_path: Optional[str] = None
    codebook_path: Optional[str] = None
    gmm_path: Optional[str] = None
    power_law: Optional[float] = None
    adapted_power_law: bool = False
    rn_path: Optional[str] = None
    truncate: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"unknown coding family {self.family!r}; choose from {FAMILIES}")
        reads = {
            "codebook_path": (self.family == "vlad", "only by vlad"),
            "gmm_path": (self.family == "fisher", "only by fisher"),
            "input_dim": (self.family in MONOMIAL_DEGREES and self.pca_path is None,
                          "only by monomial families without a pca model"),
        }
        for name, (read, readers) in reads.items():
            if (getattr(self, name) is not None) != read:
                raise ContractError(
                    f"{self.family} {'needs' if read else 'reads no'} {name}; it is read {readers}"
                )
        amap = self.angle_map()
        if (self.n_freq, self.cosine_power) != (amap.n_freq, amap.power):
            raise ContractError(
                f"the {self.angle_family} kernel runs n_freq={amap.n_freq} and "
                f"cosine_power={amap.power}, not {self.n_freq} and {self.cosine_power}"
            )
        if self.power_law is not None:
            _check_exponent(self.power_law)
        elif self.adapted_power_law:
            raise ContractError("the adapted power law needs an exponent")
        if self.truncate is not None and self.truncate < 1:
            raise ContractError(f"truncate must be at least 1, got {self.truncate}")

    def angle_map(self) -> AngleMapConfig:
        """The angle kernel this config names; constructing it validates the fields."""
        return AngleMapConfig(self.kappa, self.n_freq, self.angle_family, self.cosine_power)

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
        """Load the referenced models and check the dims that need them."""
        from .fileio import load_model  # deferred to keep module imports acyclic

        pca = None if self.pca_path is None else load_model(self.pca_path, PcaModel)
        if self.family in MONOMIAL_DEGREES:
            embedding: EmbeddingConfig = MonomialConfig(
                degree=MONOMIAL_DEGREES[self.family],
                input_dim=pca.out_dim if pca is not None else int(self.input_dim),
            )
        elif self.family == "vlad":
            embedding = VladEmbedding(codebook=load_model(self.codebook_path, CodebookModel))
        else:
            embedding = FisherEmbedding(gmm=load_model(self.gmm_path, GmmModel))

        if pca is not None and embedding.input_dim != pca.out_dim:
            raise ContractError(
                f"pca produces {pca.out_dim}-dim descriptors but the "
                f"{self.family} model expects {embedding.input_dim}"
            )

        coeffs = fourier_coeffs(self.angle_map())

        encoded_dim = embedding.output_dim * (2 * coeffs.n_freq + 1)
        rn = None
        if self.rn_path is not None:
            rn = load_model(self.rn_path, RnModel)
            if rn.dim != encoded_dim:
                raise ContractError(
                    f"rn model dim {rn.dim} does not match encoded dim {encoded_dim}"
                )
        if self.truncate is not None and self.truncate > encoded_dim:
            raise ContractError(f"truncate={self.truncate} exceeds encoded dim {encoded_dim}")
        if rn is not None and self.truncate is not None:
            rn = rn.leading_rows(self.truncate)  # truncation keeps only these rows

        return Pipeline(
            family=self.family,
            embedding=embedding,
            coeffs=coeffs,
            pca=pca,
            power_exponent=None if self.power_law is None else float(self.power_law),
            adapted=self.adapted_power_law,
            rn=rn,
            truncate_dim=self.truncate,
        )
