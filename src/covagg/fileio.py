"""Binary file formats and atomic writes.

All integer header fields are unsigned 32-bit little-endian. Payload
reals are 32-bit little-endian for descriptor and vector files (halving
I/O for the large aggregated vectors) and 64-bit for model files, where
exact round trips of trained parameters matter. No reader accepts a
non-finite real. Every write goes to a temporary file in the destination
directory followed by an atomic rename.

Layouts:

* descriptor file (magic ``CVAGDSC1``): dim, count, flags, then per
  record ``dim`` descriptor components followed by one angle in radians.
  Flag bit 0 marks raw (histogram) descriptors that still need
  square-root normalization.
* model file (magic ``CVAGMDL1``): a 4-byte kind tag, a dimension list,
  then the model arrays row-major. Kinds: ``PCA\\0`` (mean, basis,
  eigenvalues), ``KMN\\0`` (centroids), ``GMM\\0`` (weights, means,
  variances), ``RNM\\0`` (exponent, eigenvalues, rotation).
* vector file (magic ``CVAGVEC2``): count, base dim, frequency count,
  the length-prefixed canonical JSON of the ``PipelineConfig`` that
  encoded the vectors, ``count`` length-prefixed UTF-8 image ids, then
  all vectors as one row-major ``count x base_dim * (2 * n_freq + 1)``
  matrix. Vectors whose block structure was destroyed (e.g. by
  truncation) are stored with the plain length as base dim and a
  frequency count of zero.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codebooks import CodebookModel, GmmModel, PcaModel
from .descriptors import DescriptorSet
from .errors import ContractError, FormatError
from .pipeline import PipelineConfig
from .postprocess import RnModel

DESCRIPTOR_MAGIC = b"CVAGDSC1"
MODEL_MAGIC = b"CVAGMDL1"
VECTOR_MAGIC = b"CVAGVEC2"

DESC_FLAG_RAW = 0x1

_KIND_PCA = b"PCA\x00"
_KIND_KMEANS = b"KMN\x00"
_KIND_GMM = b"GMM\x00"
_KIND_RN = b"RNM\x00"


def atomic_write_bytes(path, *parts):
    """Write the bytes-like ``parts`` in turn to ``path`` via a temp file and atomic rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=".tmp-covagg-")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Reader:
    """Byte cursor that reports offsets in parse errors."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.path = str(path)
        self.offset = 0

    def skip(self, count: int, what: str) -> int:
        """Move past ``count`` bytes, checking they exist; returns their start."""
        if self.offset + count > len(self.data):
            missing = self.offset + count - len(self.data)
            raise FormatError(
                f"{self.path}: truncated while reading {what} at byte {self.offset}: "
                f"expected {self.offset + count} bytes total, file has {len(self.data)} "
                f"({missing} missing)"
            )
        self.offset += count
        return self.offset - count

    def take(self, count: int, what: str) -> bytes:
        start = self.skip(count, what)
        return self.data[start : self.offset]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def reals(self, count: int, dtype: str, what: str) -> np.ndarray:
        """``count`` reals of the little-endian ``dtype`` as a new float64 array.

        The file bytes are viewed, not copied, and checked for
        non-finite values before they are widened.
        """
        size = np.dtype(dtype).itemsize
        start = self.skip(count * size, what)
        raw = np.frombuffer(self.data, dtype=dtype, count=count, offset=start)
        if not np.isfinite(raw).all():
            offset = start + int(np.argmin(np.isfinite(raw))) * size
            raise FormatError(f"{self.path}: non-finite {what} value at byte {offset}")
        return raw.astype(np.float64)

    def expect_end(self):
        if self.offset != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.offset} unexpected trailing bytes "
                f"at byte {self.offset}"
            )


def _read_magic(path, magic: bytes) -> _Reader:
    """A reader over the whole file at ``path``, placed after its checked magic."""
    with open(path, "rb") as handle:
        reader = _Reader(handle.read(), path)
    found = reader.take(len(magic), "magic")
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r} at byte 0, expected {magic!r}")
    return reader


def write_descriptor_file(dset: DescriptorSet, path):
    """Serialize a descriptor set; losslessly round-trips 32-bit data."""
    n, dim = dset.descriptors.shape
    flags = DESC_FLAG_RAW if dset.raw else 0
    header = DESCRIPTOR_MAGIC + struct.pack("<III", dim, n, flags)
    payload = np.empty((n, dim + 1), dtype="<f4")
    payload[:, :dim] = dset.descriptors
    payload[:, dim] = dset.angles
    atomic_write_bytes(path, header, payload)


def read_descriptor_file(path, image_id: str | None = None) -> DescriptorSet:
    """Parse a descriptor file; the image id defaults to the file stem."""
    reader = _read_magic(path, DESCRIPTOR_MAGIC)
    dim = reader.u32("descriptor dim")
    count = reader.u32("record count")
    flags = reader.u32("flags")
    if dim < 1:
        raise FormatError(f"{path}: descriptor dim must be positive, got {dim}")
    table = reader.reals(count * (dim + 1), "<f4", "record").reshape(count, dim + 1)
    reader.expect_end()
    return DescriptorSet(
        descriptors=table[:, :dim],
        angles=table[:, dim],
        image_id=image_id if image_id is not None else Path(path).stem,
        raw=bool(flags & DESC_FLAG_RAW),
    )


@dataclass(frozen=True)
class VectorStore:
    """In-memory view of a vector file and the pipeline that encoded it."""

    image_ids: list
    vectors: np.ndarray
    base_dim: int
    n_freq: int
    config: PipelineConfig

    def __len__(self) -> int:
        return len(self.image_ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def write_vector_file(path, image_ids, vectors, base_dim: int, n_freq: int,
                      config: PipelineConfig):
    """Store ``vectors``, one row per image id, with the config that encoded them."""
    vectors = np.asarray(vectors, dtype=np.float64)
    image_ids = [str(image_id).encode("utf-8") for image_id in image_ids]
    if vectors.ndim != 2 or vectors.shape[0] != len(image_ids):
        raise ContractError("need a 2-D vector array with one row per image id")
    if not isinstance(config, PipelineConfig):
        raise ContractError(f"need a PipelineConfig, got {type(config).__name__}")
    expected = base_dim * (2 * n_freq + 1)
    if vectors.shape[1] != expected:
        raise ContractError(
            f"vector length {vectors.shape[1]} does not equal base_dim*(2*n_freq+1)={expected}"
        )
    config_json = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    header = VECTOR_MAGIC + struct.pack("<IIII", len(image_ids), base_dim, n_freq,
                                        len(config_json))
    id_table = b"".join(struct.pack("<I", len(raw_id)) + raw_id for raw_id in image_ids)
    atomic_write_bytes(path, header, config_json, id_table, vectors.astype("<f4"))


def read_vector_file(path) -> VectorStore:
    reader = _read_magic(path, VECTOR_MAGIC)
    count = reader.u32("record count")
    base_dim = reader.u32("base dim")
    n_freq = reader.u32("frequency count")
    dim = base_dim * (2 * n_freq + 1)
    if dim < 1:
        raise FormatError(f"{path}: vector length computes to {dim}")
    min_size = reader.offset + 4 + count * (4 + 4 * dim)
    if len(reader.data) < min_size:
        raise FormatError(
            f"{path}: truncated: header declares {count} vectors of {dim} components, "
            f"which need at least {min_size} bytes; file has {len(reader.data)}"
        )
    config_len = reader.u32("config length")
    config_start = reader.offset
    config_json = reader.take(config_len, "config")
    try:
        config = PipelineConfig.from_dict(json.loads(config_json.decode("utf-8")))
    except (ValueError, RecursionError, ContractError) as exc:
        raise FormatError(f"{path}: bad pipeline config at byte {config_start}: {exc}") from exc
    ids = []
    for _ in range(count):
        id_len = reader.u32("image id length")
        raw_id = reader.take(id_len, "image id")
        try:
            ids.append(raw_id.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: invalid UTF-8 image id at byte {reader.offset - id_len}"
            ) from exc
    vectors = reader.reals(count * dim, "<f4", "vector").reshape(count, dim)
    reader.expect_end()
    return VectorStore(
        image_ids=ids, vectors=vectors, base_dim=base_dim, n_freq=n_freq, config=config
    )


def _pack_dims(*dims: int) -> bytes:
    return struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)


def save_model(path, model):
    """Serialize a trained model (PCA, codebook, GMM or RN)."""
    if isinstance(model, PcaModel):
        body = _pack_dims(model.out_dim, model.input_dim)
        arrays = [model.mean, model.basis, model.eigenvalues]
        kind = _KIND_PCA
    elif isinstance(model, CodebookModel):
        body = _pack_dims(model.k, model.dim)
        arrays = [model.centroids]
        kind = _KIND_KMEANS
    elif isinstance(model, GmmModel):
        body = _pack_dims(model.k, model.dim)
        arrays = [model.weights, model.means, model.variances]
        kind = _KIND_GMM
    elif isinstance(model, RnModel):
        body = _pack_dims(model.dim, 1 if model.whiten else 0)
        eig = model.eigenvalues if model.eigenvalues is not None else np.zeros(model.dim)
        arrays = [np.asarray([model.exponent]), eig, model.rotation]
        kind = _KIND_RN
    else:
        raise ContractError(f"cannot serialize model of type {type(model).__name__}")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    atomic_write_bytes(path, MODEL_MAGIC + kind + body + payload)


def load_model(path):
    reader = _read_magic(path, MODEL_MAGIC)
    kind = reader.take(4, "model kind")
    n_dims = reader.u32("dimension count")
    dims = [reader.u32(f"dimension {i}") for i in range(n_dims)]
    if kind == _KIND_PCA:
        if n_dims != 2:
            raise FormatError(f"{path}: pca model needs 2 dims, got {n_dims}")
        out_dim, in_dim = dims
        mean = reader.reals(in_dim, "<f8", "mean")
        basis = reader.reals(out_dim * in_dim, "<f8", "basis").reshape(out_dim, in_dim)
        eig = reader.reals(out_dim, "<f8", "eigenvalues")
        reader.expect_end()
        return PcaModel(mean=mean, basis=basis, eigenvalues=eig)
    if kind == _KIND_KMEANS:
        if n_dims != 2:
            raise FormatError(f"{path}: codebook model needs 2 dims, got {n_dims}")
        k, d = dims
        cents = reader.reals(k * d, "<f8", "centroids").reshape(k, d)
        reader.expect_end()
        return CodebookModel(centroids=cents)
    if kind == _KIND_GMM:
        if n_dims != 2:
            raise FormatError(f"{path}: gmm model needs 2 dims, got {n_dims}")
        k, d = dims
        weights = reader.reals(k, "<f8", "weights")
        means = reader.reals(k * d, "<f8", "means").reshape(k, d)
        variances = reader.reals(k * d, "<f8", "variances").reshape(k, d)
        reader.expect_end()
        return GmmModel(weights=weights, means=means, variances=variances)
    if kind == _KIND_RN:
        if n_dims != 2:
            raise FormatError(f"{path}: rn model needs 2 dims, got {n_dims}")
        dim, whiten = dims
        exponent = float(reader.reals(1, "<f8", "exponent")[0])
        eig = reader.reals(dim, "<f8", "eigenvalues")
        rotation = reader.reals(dim * dim, "<f8", "rotation").reshape(dim, dim)
        reader.expect_end()
        return RnModel(
            rotation=rotation, exponent=exponent, whiten=bool(whiten), eigenvalues=eig
        )
    raise FormatError(f"{path}: unknown model kind {kind!r} at byte {len(MODEL_MAGIC)}")

