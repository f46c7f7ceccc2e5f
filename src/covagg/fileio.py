"""Binary file formats, CSV emitters and atomic writes.

All integer header fields are unsigned 32-bit little-endian. Payload
reals are 32-bit little-endian for descriptor and vector files (halving
I/O for the large aggregated vectors) and 64-bit for model files, where
exact round trips of trained parameters matter. Every write goes to a
temporary file in the destination directory followed by an atomic
rename.

Layouts:

* descriptor file (magic ``CVAGDSC1``): dim, count, flags, then per
  record ``dim`` descriptor components followed by one angle in radians.
  Flag bit 0 marks raw (histogram) descriptors that still need
  square-root normalization.
* model file (magic ``CVAGMDL1``): a 4-byte kind tag, a dimension list,
  then the model arrays row-major. Kinds: ``PCA\\0`` (mean, basis,
  eigenvalues), ``KMN\\0`` (centroids), ``GMM\\0`` (weights, means,
  variances), ``RNM\\0`` (exponent, eigenvalues, rotation).
* vector file (magic ``CVAGVEC1``): count, base dim, frequency count,
  coding-family tag, then per record a length-prefixed UTF-8 image id and
  ``base_dim * (2 * n_freq + 1)`` components. Vectors whose block
  structure was destroyed (e.g. by truncation) are stored with the plain
  length as base dim and a frequency count of zero.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .angle_map import FourierCoefficients, truncated_kernel, wrap_angle
from .codebooks import CodebookModel, GmmModel, PcaModel
from .descriptors import DescriptorSet
from .errors import ContractError, FormatError
from .postprocess import RnModel

DESCRIPTOR_MAGIC = b"CVAGDSC1"
MODEL_MAGIC = b"CVAGMDL1"
VECTOR_MAGIC = b"CVAGVEC1"

DESC_FLAG_RAW = 0x1

FAMILY_TAGS = {"phi1": 1, "phi2": 2, "phi3": 3, "vlad": 10, "fisher": 20}
TAG_FAMILIES = {tag: name for name, tag in FAMILY_TAGS.items()}

_KIND_PCA = b"PCA\x00"
_KIND_KMEANS = b"KMN\x00"
_KIND_GMM = b"GMM\x00"
_KIND_RN = b"RNM\x00"


def atomic_write_bytes(path, data: bytes):
    """Write ``data`` to ``path`` via a temp file and atomic rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=".tmp-covagg-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
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

    def take(self, count: int, what: str) -> bytes:
        if self.offset + count > len(self.data):
            missing = self.offset + count - len(self.data)
            raise FormatError(
                f"{self.path}: truncated while reading {what} at byte {self.offset}: "
                f"expected {self.offset + count} bytes total, file has {len(self.data)} "
                f"({missing} missing)"
            )
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f32_array(self, count: int, what: str) -> np.ndarray:
        raw = self.take(4 * count, what)
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)

    def f64_array(self, count: int, what: str) -> np.ndarray:
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8").copy()

    def expect_end(self):
        if self.offset != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.offset} unexpected trailing bytes "
                f"at byte {self.offset}"
            )

    def check_finite(self, values: np.ndarray, payload_start: int, what: str):
        bad = np.nonzero(~np.isfinite(values.ravel()))[0]
        if bad.size:
            offset = payload_start + int(bad[0]) * 4
            raise FormatError(f"{self.path}: non-finite {what} value at byte {offset}")


def write_descriptor_file(dset: DescriptorSet, path):
    """Serialize a descriptor set; losslessly round-trips 32-bit data."""
    n, dim = dset.descriptors.shape
    flags = DESC_FLAG_RAW if dset.raw else 0
    header = DESCRIPTOR_MAGIC + struct.pack("<III", dim, n, flags)
    payload = np.empty((n, dim + 1), dtype="<f4")
    payload[:, :dim] = dset.descriptors
    payload[:, dim] = dset.angles
    atomic_write_bytes(path, header + payload.tobytes())


def read_descriptor_file(path, image_id: str | None = None) -> DescriptorSet:
    """Parse a descriptor file; the image id defaults to the file stem."""
    with open(path, "rb") as handle:
        data = handle.read()
    reader = _Reader(data, path)
    magic = reader.take(len(DESCRIPTOR_MAGIC), "magic")
    if magic != DESCRIPTOR_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {DESCRIPTOR_MAGIC!r}")
    dim = reader.u32("descriptor dim")
    count = reader.u32("record count")
    flags = reader.u32("flags")
    if dim < 1:
        raise FormatError(f"{path}: descriptor dim must be positive, got {dim}")
    payload_start = reader.offset
    values = reader.f32_array(count * (dim + 1), "records")
    reader.expect_end()
    reader.check_finite(values, payload_start, "record")
    table = values.reshape(count, dim + 1)
    return DescriptorSet(
        descriptors=table[:, :dim].copy(),
        angles=table[:, dim].copy(),
        image_id=image_id if image_id is not None else Path(path).stem,
        raw=bool(flags & DESC_FLAG_RAW),
    )


@dataclass(frozen=True)
class VectorStore:
    """In-memory view of a vector file."""

    image_ids: list
    vectors: np.ndarray
    base_dim: int
    n_freq: int
    family: str

    def __len__(self) -> int:
        return len(self.image_ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def write_vector_file(path, image_ids, vectors, base_dim: int, n_freq: int, family: str):
    vectors = np.asarray(vectors, dtype=np.float64)
    image_ids = list(image_ids)
    if vectors.ndim != 2 or vectors.shape[0] != len(image_ids):
        raise ContractError("need a 2-D vector array with one row per image id")
    if family not in FAMILY_TAGS:
        raise ContractError(f"unknown coding family {family!r}")
    expected = base_dim * (2 * n_freq + 1)
    if vectors.shape[1] != expected:
        raise ContractError(
            f"vector length {vectors.shape[1]} does not equal base_dim*(2*n_freq+1)={expected}"
        )
    parts = [
        VECTOR_MAGIC,
        struct.pack("<IIII", len(image_ids), base_dim, n_freq, FAMILY_TAGS[family]),
    ]
    payload = vectors.astype("<f4")
    for i, image_id in enumerate(image_ids):
        encoded = str(image_id).encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(payload[i].tobytes())
    atomic_write_bytes(path, b"".join(parts))


def read_vector_file(path) -> VectorStore:
    with open(path, "rb") as handle:
        data = handle.read()
    reader = _Reader(data, path)
    magic = reader.take(len(VECTOR_MAGIC), "magic")
    if magic != VECTOR_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {VECTOR_MAGIC!r}")
    count = reader.u32("record count")
    base_dim = reader.u32("base dim")
    n_freq = reader.u32("frequency count")
    tag = reader.u32("family tag")
    if tag not in TAG_FAMILIES:
        raise FormatError(f"{path}: unknown family tag {tag} at byte {reader.offset - 4}")
    dim = base_dim * (2 * n_freq + 1)
    if dim < 1:
        raise FormatError(f"{path}: vector length computes to {dim}")
    min_size = reader.offset + count * (4 + 4 * dim)
    if len(data) < min_size:
        raise FormatError(
            f"{path}: truncated: header declares {count} vectors of {dim} components, "
            f"which need at least {min_size} bytes; file has {len(data)}"
        )
    ids = []
    vectors = np.empty((count, dim))
    for i in range(count):
        id_len = reader.u32("image id length")
        raw_id = reader.take(id_len, "image id")
        try:
            ids.append(raw_id.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: invalid UTF-8 image id at byte {reader.offset - id_len}"
            ) from exc
        payload_start = reader.offset
        row = reader.f32_array(dim, f"vector {i}")
        reader.check_finite(row, payload_start, "vector")
        vectors[i] = row
    reader.expect_end()
    return VectorStore(
        image_ids=ids, vectors=vectors, base_dim=base_dim, n_freq=n_freq,
        family=TAG_FAMILIES[tag],
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
    with open(path, "rb") as handle:
        data = handle.read()
    reader = _Reader(data, path)
    magic = reader.take(len(MODEL_MAGIC), "magic")
    if magic != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {MODEL_MAGIC!r}")
    kind = reader.take(4, "model kind")
    n_dims = reader.u32("dimension count")
    dims = [reader.u32(f"dimension {i}") for i in range(n_dims)]
    if kind == _KIND_PCA:
        if n_dims != 2:
            raise FormatError(f"{path}: pca model needs 2 dims, got {n_dims}")
        out_dim, in_dim = dims
        mean = reader.f64_array(in_dim, "mean")
        basis = reader.f64_array(out_dim * in_dim, "basis").reshape(out_dim, in_dim)
        eig = reader.f64_array(out_dim, "eigenvalues")
        reader.expect_end()
        return PcaModel(mean=mean, basis=basis, eigenvalues=eig)
    if kind == _KIND_KMEANS:
        if n_dims != 2:
            raise FormatError(f"{path}: codebook model needs 2 dims, got {n_dims}")
        k, d = dims
        cents = reader.f64_array(k * d, "centroids").reshape(k, d)
        reader.expect_end()
        return CodebookModel(centroids=cents)
    if kind == _KIND_GMM:
        if n_dims != 2:
            raise FormatError(f"{path}: gmm model needs 2 dims, got {n_dims}")
        k, d = dims
        weights = reader.f64_array(k, "weights")
        means = reader.f64_array(k * d, "means").reshape(k, d)
        variances = reader.f64_array(k * d, "variances").reshape(k, d)
        reader.expect_end()
        return GmmModel(weights=weights, means=means, variances=variances)
    if kind == _KIND_RN:
        if n_dims != 2:
            raise FormatError(f"{path}: rn model needs 2 dims, got {n_dims}")
        dim, whiten = dims
        exponent = float(reader.f64_array(1, "exponent")[0])
        eig = reader.f64_array(dim, "eigenvalues")
        rotation = reader.f64_array(dim * dim, "rotation").reshape(dim, dim)
        reader.expect_end()
        return RnModel(
            rotation=rotation, exponent=exponent, whiten=bool(whiten), eigenvalues=eig
        )
    raise FormatError(f"{path}: unknown model kind {kind!r} at byte {len(MODEL_MAGIC)}")


SIM_HIST_HEADER = (
    "angle_bin", "delta_lo", "delta_hi", "sim_lo", "sim_hi", "count_raw", "count_modulated",
)


def similarity_histogram(pairs, bins: int, coeffs: FourierCoefficients, value_bins: int = 24):
    """Per-angle-bin histograms of raw and angle-weighted pair similarities.

    ``pairs`` is a sequence of (record, record) tuples of matched
    descriptors. Angle differences split [-pi, pi] into ``bins`` equal
    bins; within each, both the plain inner products and the products
    weighted by the angle kernel are histogrammed over [-1, 1] with
    ``value_bins`` cells. Returns a list of rows matching
    ``SIM_HIST_HEADER``.
    """
    if int(bins) != bins or bins < 1:
        raise ContractError(f"bins must be a positive integer, got {bins!r}")
    if int(value_bins) != value_bins or value_bins < 1:
        raise ContractError(f"value_bins must be a positive integer, got {value_bins!r}")
    pairs = list(pairs)
    if pairs:
        sims = np.array([float(np.dot(a.descriptor, b.descriptor)) for a, b in pairs])
        deltas = np.asarray(wrap_angle(np.array([a.angle - b.angle for a, b in pairs])))
        modulated = sims * truncated_kernel(deltas, coeffs)
        angle_idx = np.clip(
            ((deltas + np.pi) / (2.0 * np.pi) * bins).astype(int), 0, bins - 1
        )
        raw_counts = np.zeros((bins, value_bins), dtype=np.int64)
        mod_counts = np.zeros((bins, value_bins), dtype=np.int64)
        for values, counts in ((sims, raw_counts), (modulated, mod_counts)):
            value_idx = np.clip(
                ((values + 1.0) / 2.0 * value_bins).astype(int), 0, value_bins - 1
            )
            np.add.at(counts, (angle_idx, value_idx), 1)
    else:
        raw_counts = np.zeros((bins, value_bins), dtype=np.int64)
        mod_counts = np.zeros((bins, value_bins), dtype=np.int64)
    angle_edges = np.linspace(-np.pi, np.pi, bins + 1)
    value_edges = np.linspace(-1.0, 1.0, value_bins + 1)
    rows = []
    for bi in range(bins):
        for vi in range(value_bins):
            rows.append(
                (
                    bi,
                    float(angle_edges[bi]),
                    float(angle_edges[bi + 1]),
                    float(value_edges[vi]),
                    float(value_edges[vi + 1]),
                    int(raw_counts[bi, vi]),
                    int(mod_counts[bi, vi]),
                )
            )
    return rows
