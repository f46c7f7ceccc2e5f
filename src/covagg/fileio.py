"""Binary file formats and atomic writes.

All integer header fields are unsigned 32-bit little-endian. Payload
reals are 32-bit little-endian for descriptor and vector files (halving
I/O for the large aggregated vectors) and 64-bit for model files, where
exact round trips of trained parameters matter. No reader accepts a
non-finite real. Every write goes to a temporary file in the destination
directory followed by an atomic rename.

Readers stream from the open file. Every length a header declares is
checked against the file size before anything is allocated, and each
table of reals is read ``READ_CHUNK`` bytes at a time through one reused
buffer into the float64 array it fills. A vector file's payload is thus
never held whole as bytes or as float32 next to its float64 matrix, and
the writer stores a float32 matrix as it is, without a copy.

Layouts:

* descriptor file (magic ``CVAGDSC1``): dim, count, flags, then per
  record ``dim`` descriptor components followed by one angle in radians.
  Flag bit 0 marks raw (histogram) descriptors that still need
  square-root normalization.
* model file (magic ``CVAGMDL1``): a 4-byte kind tag, a dimension list
  of two, then the model arrays row-major. Kinds: ``PCA\\0`` (mean,
  basis, eigenvalues), ``KMN\\0`` (centroids), ``GMM\\0`` (weights,
  means, variances), ``RNM\\0`` (exponent, eigenvalues, rotation).
  ``load_model(path, kind)`` is the one place a model file becomes a
  model: it returns the class ``kind`` or refuses a file of another
  kind, and a model that fails its own checks is a format error that
  names the file.
* vector file (magic ``CVAGVEC2``): count, base dim, frequency count,
  the length-prefixed canonical JSON of the ``PipelineConfig`` that
  encoded the vectors (a config that ``PipelineConfig`` refuses is a
  format error), ``count`` length-prefixed UTF-8 image ids, then
  all vectors as one row-major ``count x base_dim * (2 * n_freq + 1)``
  matrix. Vectors whose block structure was destroyed (e.g. by
  truncation) are stored with the plain length as base dim and a
  frequency count of zero.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from collections import Counter
from contextlib import contextmanager
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

# Bytes of payload per read of a real-valued table; read at call time.
READ_CHUNK = 4 << 20


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
    """Cursor over an open binary file that reports offsets in parse errors.

    The file size is taken once, up front, so every length a header
    declares is checked against it before anything is read or allocated.
    """

    def __init__(self, handle, path):
        self.handle = handle
        self.path = str(path)
        self.size = os.fstat(handle.fileno()).st_size
        self.offset = 0

    def _truncated(self, count: int, what: str, have: int) -> FormatError:
        return FormatError(
            f"{self.path}: truncated while reading {what} at byte {self.offset}: "
            f"expected {self.offset + count} bytes total, file has {have} "
            f"({self.offset + count - have} missing)"
        )

    def need(self, count: int, what: str):
        """Check that the next ``count`` bytes exist."""
        if self.offset + count > self.size:
            raise self._truncated(count, what, self.size)

    def take(self, count: int, what: str) -> bytes:
        self.need(count, what)
        data = self.handle.read(count)
        if len(data) != count:
            raise self._truncated(count, what, self.offset + len(data))
        self.offset += count
        return data

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def reals(self, count: int, dtype: str, what: str) -> np.ndarray:
        """``count`` reals of the little-endian ``dtype`` as a new float64 array.

        They are read ``READ_CHUNK`` bytes at a time into one reused
        buffer and checked for non-finite values before they are widened,
        so the file's bytes are never held whole.
        """
        size = np.dtype(dtype).itemsize
        start = self.offset
        self.need(count * size, what)
        out = np.empty(count, dtype=np.float64)
        step = max(1, READ_CHUNK // size)
        buffer = np.empty(min(step, count), dtype=dtype)
        for lo in range(0, count, step):
            chunk = buffer[: min(step, count - lo)]
            got = self.handle.readinto(chunk)
            if got != chunk.nbytes:
                raise self._truncated(chunk.nbytes, what, self.offset + got)
            self.offset += got
            finite = np.isfinite(chunk)
            if not finite.all():
                offset = start + (lo + int(np.argmin(finite))) * size
                raise FormatError(f"{self.path}: non-finite {what} value at byte {offset}")
            out[lo : lo + chunk.size] = chunk
        return out

    def expect_end(self):
        if self.offset != self.size:
            raise FormatError(
                f"{self.path}: {self.size - self.offset} unexpected trailing bytes "
                f"at byte {self.offset}"
            )


@contextmanager
def _open_checked(path, magic: bytes):
    """A reader over the file at ``path``, placed after its checked magic."""
    with open(path, "rb") as handle:
        reader = _Reader(handle, path)
        found = reader.take(len(magic), "magic")
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r} at byte 0, expected {magic!r}")
        yield reader


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
    with _open_checked(path, DESCRIPTOR_MAGIC) as reader:
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
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    image_ids = [str(image_id).encode("utf-8") for image_id in image_ids]
    if vectors.ndim != 2 or vectors.shape[0] != len(image_ids):
        raise ContractError("need a 2-D vector array with one row per image id")
    if not isinstance(config, PipelineConfig):
        raise ContractError(f"need a PipelineConfig, got {type(config).__name__}")
    repeated = [i for i, n in Counter(image_ids).items() if n > 1]
    if repeated:
        raise ContractError(f"image id {repeated[0].decode('utf-8')!r} occurs more than once")
    expected = base_dim * (2 * n_freq + 1)
    if vectors.shape[1] != expected:
        raise ContractError(
            f"vector length {vectors.shape[1]} does not equal base_dim*(2*n_freq+1)={expected}"
        )
    config_json = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    header = VECTOR_MAGIC + struct.pack("<IIII", len(image_ids), base_dim, n_freq,
                                        len(config_json))
    id_table = b"".join(struct.pack("<I", len(raw_id)) + raw_id for raw_id in image_ids)
    atomic_write_bytes(path, header, config_json, id_table, vectors)


def read_vector_file(path) -> VectorStore:
    with _open_checked(path, VECTOR_MAGIC) as reader:
        count = reader.u32("record count")
        base_dim = reader.u32("base dim")
        n_freq = reader.u32("frequency count")
        dim = base_dim * (2 * n_freq + 1)
        if dim < 1:
            raise FormatError(f"{path}: vector length computes to {dim}")
        min_size = reader.offset + 4 + count * (4 + 4 * dim)
        if reader.size < min_size:
            raise FormatError(
                f"{path}: truncated: header declares {count} vectors of {dim} components, "
                f"which need at least {min_size} bytes; file has {reader.size}"
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
        repeated = [i for i, n in Counter(ids).items() if n > 1]
        if repeated:
            raise FormatError(f"{path}: image id {repeated[0]!r} occurs more than once")
        vectors = reader.reals(count * dim, "<f4", "vector").reshape(count, dim)
        reader.expect_end()
        return VectorStore(
            image_ids=ids, vectors=vectors, base_dim=base_dim, n_freq=n_freq, config=config
        )


# model class: (name, kind tag, its two stored dims, array name -> shape given those dims)
_MODEL_FORMATS = {
    PcaModel: ("pca", b"PCA\x00", lambda m: (m.out_dim, m.input_dim),
               lambda out, d: {"mean": (d,), "basis": (out, d), "eigenvalues": (out,)}),
    CodebookModel: ("codebook", b"KMN\x00", lambda m: (m.k, m.dim),
                    lambda k, d: {"centroids": (k, d)}),
    GmmModel: ("gmm", b"GMM\x00", lambda m: (m.k, m.dim),
               lambda k, d: {"weights": (k,), "means": (k, d), "variances": (k, d)}),
    RnModel: ("rn", b"RNM\x00", lambda m: (m.dim, int(m.whiten)),
              lambda dim, _: {"exponent": (), "eigenvalues": (dim,), "rotation": (dim, dim)}),
}


def save_model(path, model):
    """Serialize a trained model (PCA, codebook, GMM or RN); absent arrays are stored as zeros."""
    if type(model) not in _MODEL_FORMATS:
        raise ContractError(f"cannot serialize model of type {type(model).__name__}")
    if isinstance(model, RnModel) and model.rotation.shape[0] != model.dim:
        raise ContractError("only a square rn model can be saved, not a row slice")
    _, tag, dims_of, layout = _MODEL_FORMATS[type(model)]
    dims = dims_of(model)
    arrays = [
        np.zeros(shape) if getattr(model, name) is None else getattr(model, name)
        for name, shape in layout(*dims).items()
    ]
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    atomic_write_bytes(path, MODEL_MAGIC + tag + struct.pack("<3I", 2, *dims) + payload)


def load_model(path, kind):
    """The model of class ``kind`` stored at ``path``.

    ``kind`` is ``PcaModel``, ``CodebookModel``, ``GmmModel`` or
    ``RnModel``. A file of another kind is a ContractError; a file whose
    arrays fail the model's own checks is a FormatError naming the path.
    """
    name, own_tag, _, layout = _MODEL_FORMATS[kind]
    with _open_checked(path, MODEL_MAGIC) as reader:
        tag = reader.take(4, "model kind")
        if tag not in {fmt[1] for fmt in _MODEL_FORMATS.values()}:
            raise FormatError(f"{path}: unknown model kind {tag!r} at byte {len(MODEL_MAGIC)}")
        if tag != own_tag:
            raise ContractError(f"{path} does not hold a {name} model")
        n_dims = reader.u32("dimension count")
        if n_dims != 2:
            raise FormatError(f"{path}: {name} model needs 2 dims, got {n_dims}")
        dims = reader.u32("dimension 0"), reader.u32("dimension 1")
        arrays = {
            field: reader.reals(math.prod(shape), "<f8", field).reshape(shape)
            for field, shape in layout(*dims).items()
        }
        reader.expect_end()
    if kind is RnModel:
        arrays.update(exponent=float(arrays["exponent"]), whiten=bool(dims[1]))
    try:
        return kind(**arrays)
    except ContractError as exc:
        raise FormatError(f"{path}: {exc}") from exc
