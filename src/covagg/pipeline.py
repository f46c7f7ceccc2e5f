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
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from types import MappingProxyType
from typing import Optional

import numpy as np

from .aggregate import ModulatedVector, aggregate_into, rotated_rows
from .angle_map import (
    COSINE_POWER,
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
from .errors import ContractError, check_integer
from .monomial import MonomialConfig
from .postprocess import (
    RnModel,
    _check_exponent,
    adapted_power_law_rows,
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

    @property
    def modulated_dim(self) -> int:
        """Length of an aggregated row, the row that post-processing takes."""
        return self.base_dim * (2 * self.n_freq + 1)

    def stored_layout(self) -> tuple[int, int]:
        """(base_dim, n_freq) describing the final vector layout.

        Truncation destroys the block structure, so truncated vectors
        are declared as flat (length, 0).
        """
        if self.truncate_dim is not None:
            return self.truncate_dim, 0
        return self.base_dim, self.n_freq

    def prepare(self, dset: DescriptorSet) -> np.ndarray:
        """The rows the embedding takes: the descriptors after RootSIFT (if raw) and PCA.

        They are not wrapped in a second ``DescriptorSet``: the set is
        checked already, and both steps keep finite rows finite.
        """
        X = rootsift_batch(dset.descriptors) if dset.raw else dset.descriptors
        if self.pca is not None:
            X = preprocess_batch(X, self.pca)
        return X

    def commuting_turns(self, n_rot: int) -> int:
        """g: the turns by 2 pi k / g, of a grid of n_rot, that commute with post-processing.

        The scorer reads those off score polynomials instead of rotated rows. A
        rotation turns each (cos, sin) block pair, whose modulus the adapted power
        law reads (g = n_rot); a quarter turn permutes each pair with signs, which
        the plain power law commutes with (g = 4 if 4 | n_rot; half turns were measured
        no faster, ``scripts/scoring_sweep.py``). RN and truncation mix blocks (g = 1).
        """
        if self.rn is not None or self.truncate_dim is not None:
            return 1
        if self.power_exponent is None or self.adapted:
            return n_rot
        return 4 if n_rot % 4 == 0 else 1

    def _modulated_rows(self, dsets: Iterable[DescriptorSet], count: int) -> np.ndarray:
        """(count, modulated_dim) matrix: row i is the aggregate of the i-th set.

        The rows take the adapted power law, if configured, and nothing else:
        these are the stages that commute with rotation. Each set is
        aggregated straight into its row, one at a time and in order, so
        ``dsets`` may read each set only when it is reached; it must yield
        exactly ``count`` sets.
        """
        rows = np.empty((count, self.modulated_dim))
        for row, dset in zip(rows, dsets, strict=True):
            aggregate_into(row, dset.angles, self.prepare(dset), self.embedding, self.coeffs)
        if self.adapted:
            adapted_power_law_rows(rows, self.n_freq, self.power_exponent)
        return rows

    def _postprocess_rows(self, rows: np.ndarray) -> np.ndarray:
        """Plain power law, RN and truncation of each row of a matrix the caller owns.

        The power law overwrites ``rows``; RN and truncation return new rows.
        """
        if self.power_exponent is not None and not self.adapted:
            rows = power_law(rows, self.power_exponent, out=rows)
        if self.rn is not None:
            rows = rn_apply(rows, self.rn)
        if self.truncate_dim is not None:
            rows = truncate_l2(rows, self.truncate_dim)
        return rows

    def encode_block(self, dsets: Iterable[DescriptorSet], count: int) -> np.ndarray:
        """Full pipeline: row i is the database-ready vector of the i-th of ``count`` sets.

        Each set is aggregated into its row of one float64 block
        (``_modulated_rows``); the plain power law then runs in place on
        the block, and RN and truncation once on it, so RN reads its
        rotation once per block rather than once per image.
        """
        return self._postprocess_rows(self._modulated_rows(dsets, count))

    def encode(self, dset: DescriptorSet) -> np.ndarray:
        """Full pipeline: database-ready vector for one image."""
        return self.encode_block([dset], 1)[0]

    def encode_rotations(self, dset: DescriptorSet, thetas) -> np.ndarray:
        """Row i is ``encode`` of the set rotated by ``thetas[i]``.

        The set is aggregated once and takes the adapted power law, which
        commutes with ``rotated_rows``, before rotation; the rotated rows
        take the plain power law, RN and truncation as one matrix.
        """
        thetas = np.atleast_1d(thetas)
        if thetas.size == 0:
            raise ContractError("encode_rotations needs at least one rotation")
        values = self._modulated_rows([dset], 1)[0]
        base = ModulatedVector(values=values, base_dim=self.base_dim, n_freq=self.n_freq)
        return self._postprocess_rows(rotated_rows(base, thetas))


@lru_cache(maxsize=None)
def _field_kinds(cls) -> MappingProxyType:
    """Each field of the dataclass ``cls``, in order, and the types its hint admits.

    Resolving the hints took about 170 us, so it is done once per class
    rather than on every store read.
    """
    hints = typing.get_type_hints(cls)
    # read-only, since every caller gets the same mapping
    return MappingProxyType(
        {f.name: typing.get_args(hints[f.name]) or (hints[f.name],) for f in fields(cls)}
    )


def _has_type(value, kinds: tuple) -> bool:
    """Whether a JSON value is one of the types ``kinds``; ints pass as floats."""
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
    set exactly when the family reads it, ``n_freq`` and
    ``cosine_power`` are the values the angle kernel runs, and the
    cosine-power kernel, which reads no ``kappa``, records the default 8.0.
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
        if amap.family == COSINE_POWER and self.kappa != 8.0:
            raise ContractError(
                f"the cosine_power kernel reads no kappa, recorded as 8.0, not {self.kappa!r}"
            )
        if self.power_law is not None:
            _check_exponent(self.power_law)
        elif self.adapted_power_law:
            raise ContractError("the adapted power law needs an exponent")
        for name in ("input_dim", "truncate"):
            value = getattr(self, name)
            if value is not None:
                value = check_integer(value, f"{name} must be at least 1, got {value}", 1)
                object.__setattr__(self, name, value)

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
        kinds = _field_kinds(cls)
        missing = [name for name in kinds if name not in data]
        unknown = sorted(set(data) - set(kinds))
        if missing or unknown:
            raise ContractError(f"pipeline config lacks keys {missing}, has unknown keys {unknown}")
        for name, admitted in kinds.items():
            if not _has_type(data[name], admitted):
                raise ContractError(f"pipeline config {name!r} has a wrong type: {data[name]!r}")
        return cls(**data)

    def build(self) -> Pipeline:
        """Load the referenced models and check the dims that need them."""
        from .fileio import load_model  # deferred to keep module imports acyclic

        pca = None if self.pca_path is None else load_model(self.pca_path, PcaModel)
        if self.family in MONOMIAL_DEGREES:
            embedding: EmbeddingConfig = MonomialConfig(
                degree=MONOMIAL_DEGREES[self.family],
                input_dim=pca.out_dim if pca is not None else self.input_dim,
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
            embedding=embedding,
            coeffs=coeffs,
            pca=pca,
            power_exponent=None if self.power_law is None else float(self.power_law),
            adapted=self.adapted_power_law,
            rn=rn,
            truncate_dim=self.truncate,
        )
