"""Model serialization, IDX dataset ingestion, synthetic data, the cache
of synthetic splits and probe passes, and report files.

Model files and cache entries share one container (`_encode_records`,
`_decode_records`): npy records whose headers must match byte for byte,
then a chained CRC-32 of the records' bytes as a uint32 scalar record,
with nothing after it. A model file (schema 3) opens with one uint8 record
holding its UTF-8 JSON header (schema version, each layer's widths,
activation and whether it has a bias, and the metadata), followed by each
layer's weights and then bias as little-endian float64 C-order records, so
a load reproduces every weight bit for bit. The two uses differ only in
policy: a corrupt model is a `ModelFormatError` naming the file, a corrupt
cache entry is a miss. Schema 3 is the only model format read: the JSON
model files of schema 1 and 2 are refused, and morphkit 0.1.0, the last
version to read them, converts one by loading it and saving it again.
IDX files follow the classic big-endian layout (magic, dims,
unsigned bytes); gzipped files are handled transparently by extension.

The cache under `$XDG_CACHE_HOME/morphkit` (default `~/.cache/morphkit`)
holds three kinds of entry (`_read_entry`, `_write_entry`). One is a split
of a synthetic draw, named by a hash of everything that decides the draw.
One is the float32 rounding of such a split's features with its labels,
under the same name with `-float32` after the split, which training reads
(written from the float64 split the first time something trains on it),
so a split that is trained on takes 1.5 times its float64 bytes on disk.
One is a parent's probe pass on rows of a float64 split
(`probe_cache_path`), named by a hash of the split's entry, the row sample,
the insertion point and a digest of the parent. Every read checks dtype,
shape and CRC-32, so a hit has the bits of a fresh computation and anything
else is a miss. A hit's arrays are read-only views of a read-only memory
mapping of the entry.
morphkit only ever replaces an entry atomically, and a live mapping keeps
the bytes of the file it mapped. An entry must never be edited in place
while a command runs (delete the directory instead): the mapping would see
bytes written after the CRC-32 check, and an entry cut short kills the
process with SIGBUS at the first touch past its new end. The generators
themselves stay pure.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import gzip
import hashlib
import io as stdio
import json
import logging
import math
import mmap
import os
import secrets
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import IdxFormatError, ModelFormatError, MorphkitError, OutOfRangeError
from .linalg import all_finite
from .morph import MorphReport, PreparedProbe
from .network import ACTIVATION_KINDS, Layer, Mlp

log = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 3
_UINT8 = np.dtype("u1")
_FLOAT64_LE = np.dtype("<f8")
_INT64_LE = np.dtype("<i8")
_UINT32_LE = np.dtype("<u4")

# Bump whenever a cache entry could differ from a fresh computation: a
# change to the entry layout, to what a generator draws (tests/test_io.py
# pins the generators' output, so such a change fails there first) or to
# what a probe pass computes.
DATASET_CACHE_FORMAT = 1

# `synth_lowrank_dataset` draws its noise, and `write_cached_split` rounds
# a split, in blocks of rows of about this many entries (2 MiB of float64)
_BLOCK_ENTRIES = 1 << 18

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

REPORT_CSV_COLUMNS = [f.name for f in dataclasses.fields(MorphReport)]


@contextlib.contextmanager
def _atomic_open(path, newline=None, binary=False):
    """Open a fresh temporary file next to `path` for text (or `binary`)
    writing. When the block finishes it replaces `path` in one step; when
    the block raises it is removed, so `path` keeps its old contents either
    way."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with (open(tmp, "xb") if binary else
              open(tmp, "x", encoding="utf-8", newline=newline)) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass
class Dataset:
    """Feature matrix with integer class labels. Float32 features stay
    float32 and any other features become float64; labels must be finite
    whole numbers, and become int64."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features)
        self.features = (features if features.dtype == np.float32
                         else features.astype(np.float64, copy=False))
        labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D")
        if labels.ndim != 1 or labels.shape[0] != self.features.shape[0]:
            raise ValueError(
                f"{labels.shape[0] if labels.ndim == 1 else '?'} labels "
                f"for {self.features.shape[0]} feature rows"
            )
        self.labels = _whole_labels(labels)
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _whole_labels(labels: np.ndarray) -> np.ndarray:
    """1-D `labels` as int64, refusing with a ValueError that names the
    first row any label that is not a finite whole number int64 can hold."""
    if labels.dtype.kind not in "biu":
        labels = labels.astype(np.float64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range casts are caught below
        whole = labels.astype(np.int64, copy=False)
    if whole is not labels:
        bad = np.flatnonzero(whole != labels)
        if bad.size:
            raise ValueError(f"labels must be finite whole numbers in int64's range; "
                             f"row {bad[0]} holds {labels[bad[0]].item()!r}")
    return whole


def _checksum(arrays) -> int:
    crc = 0
    for array in arrays:
        crc = zlib.crc32(array, crc)
    return crc


@functools.lru_cache(maxsize=64)
def _npy_header(dtype: np.dtype, shape: tuple) -> bytes:
    buf = stdio.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape,
    })
    return buf.getvalue()


def _record_at(buf, offset: int, dtype: np.dtype, shape: tuple) -> tuple[np.ndarray, int]:
    """The npy record at `offset` of `buf`, which must hold exactly `dtype`
    and `shape` in C order, as a view of `buf`, and the offset after it. Its
    header must equal the one `np.save` writes for them byte for byte, so a
    corrupt header is never parsed and never sizes a view."""
    header = _npy_header(dtype, shape)
    end = offset + len(header)
    count = math.prod(shape)
    stop = end + count * dtype.itemsize
    if buf[offset:end] != header:
        raise ValueError(f"byte {offset}: not an npy header for {dtype} {shape}")
    if stop > len(buf):
        raise ValueError(f"truncated: the record at byte {offset} ends at byte {stop}, "
                         f"the file at byte {len(buf)}")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=end).reshape(shape), stop


def _byte_string_at(buf, offset: int) -> np.ndarray:
    """The uint8 record at `offset` of `buf`, of the length its npy header
    declares (`_record_at`). Only that length is read from the header
    before the whole header is compared byte for byte."""
    start = offset + len(np.lib.format.MAGIC_PREFIX) + 4  # version, header length
    text = bytes(buf[start:start + int.from_bytes(buf[start - 2:start], "little")])
    digits = text.partition(b"'shape': (")[2].partition(b",")[0]
    if not digits.isdigit():
        raise ValueError(f"byte {offset}: not an npy header of a byte string")
    return _record_at(buf, offset, _UINT8, (int(digits),))[0]


def _encode_records(fh, arrays) -> None:
    """Write the C-contiguous little-endian `arrays` to the binary file `fh`
    as npy records, then the CRC-32 of their bytes, chained in order, as a
    uint32 scalar record."""
    crc = np.array(_checksum(arrays), dtype=_UINT32_LE)
    for array in (*arrays, crc):
        np.lib.format.write_array(fh, array, allow_pickle=False)


def _encode_split(fh, features: np.ndarray, dtype: np.dtype, labels: np.ndarray) -> None:
    """`_encode_records(fh, [features.astype(dtype), labels])`, byte for
    byte, with the features cast and written a block of rows at a time, so
    that no cast copy of them is ever held whole. A rounding to another
    dtype with a non-finite entry, such as a float64 value beyond float32's
    range, raises `OutOfRangeError`."""
    fh.write(_npy_header(dtype, features.shape))
    crc = 0
    rows = max(1, _BLOCK_ENTRIES // max(1, features.shape[1]))
    for start in range(0, features.shape[0], rows):
        with np.errstate(over="ignore"):
            block = np.ascontiguousarray(features[start:start + rows], dtype=dtype)
        if dtype != features.dtype and not all_finite(block):
            raise OutOfRangeError(f"the {dtype.name} rounding of the features is not finite")
        fh.write(block)
        crc = zlib.crc32(block, crc)
    for array in (labels, np.array(zlib.crc32(labels, crc), dtype=_UINT32_LE)):
        np.lib.format.write_array(fh, array, allow_pickle=False)


def _decode_records(buf, layout) -> list[np.ndarray]:
    """The arrays of `_encode_records`' records in `buf`, one per
    `(dtype, shape)` of `layout`, as views of `buf`. The checksum record
    must follow them, end `buf` and match them; any fault raises
    ValueError. Each caller sets its own policy for a fault."""
    arrays, offset = [], 0
    for dtype, shape in layout:
        array, offset = _record_at(buf, offset, dtype, tuple(shape))
        arrays.append(array)
    crc, offset = _record_at(buf, offset, _UINT32_LE, ())
    if offset != len(buf):
        raise ValueError(f"{len(buf) - offset} bytes after the checksum")
    if int(crc) != _checksum(arrays):
        raise ValueError("checksum mismatch")
    return arrays


def save_model(mlp: Mlp, path, metadata: dict | None = None) -> None:
    """Write the network as a schema-3 model file in one atomic replace:
    a uint8 record of the UTF-8 JSON header (schema_version, each layer's
    `in`, `out`, `activation` and whether it has a `bias`, and `metadata`),
    then each layer's weights and bias as little-endian float64 C-order
    records, then the CRC-32 of all the records. Every weight round-trips
    bit for bit, and equal arguments give equal bytes."""
    header = json.dumps({
        "schema_version": MODEL_SCHEMA_VERSION,
        "layers": [{"in": layer.d_in, "out": layer.d_out, "activation": layer.activation,
                    "bias": layer.bias is not None} for layer in mlp.layers],
        "metadata": dict(metadata or {}),
    }, separators=(",", ":")).encode("utf-8")
    header += b" " * (-len(header) % _FLOAT64_LE.itemsize)  # aligns every float64 record
    arrays = [np.frombuffer(header, dtype=_UINT8)]
    for layer in mlp.layers:
        arrays += [np.ascontiguousarray(a, dtype=_FLOAT64_LE)
                   for a in (layer.weight, layer.bias) if a is not None]
    with _atomic_open(path, binary=True) as fh:
        _encode_records(fh, arrays)


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ModelFormatError(f"{where}: missing required field {key!r}")
    return doc[key]


def _require_width(raw: dict, key: str, where: str) -> int:
    value = _require(raw, key, where)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ModelFormatError(f"{where}.{key}: expected a positive integer, got {value!r}")
    return value


def _record_model(raw: bytearray, path) -> tuple[list, dict]:
    """Each layer's (weights, bias, activation), as writeable views of
    `raw`, and the metadata of a schema-3 model file's bytes. Bytes that do
    not start with the npy magic, a JSON model file's among them, are
    refused before anything is parsed."""
    if not raw.startswith(np.lib.format.MAGIC_PREFIX):
        raise ModelFormatError(
            f"{path}: not a schema-3 model file (it does not start with the npy magic); "
            "JSON model files (schema 1 and 2) are no longer read: to convert one, "
            "load it and save it again with morphkit 0.1.0"
        )
    try:
        header = _byte_string_at(raw, 0)
        doc = json.loads(header.tobytes().decode("utf-8"))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from exc
    version = _require(doc, "schema_version", str(path))
    if version != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(f"{path}: schema_version {version!r} is not supported "
                               f"(expected {MODEL_SCHEMA_VERSION})")
    raw_layers = _require(doc, "layers", str(path))
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ModelFormatError(f"{path}: layers: expected a nonempty list")
    layout, kinds = [(_UINT8, header.shape)], []
    for k, entry in enumerate(raw_layers):
        where = f"{path}: layers[{k}]"
        d_in = _require_width(entry, "in", where)
        d_out = _require_width(entry, "out", where)
        activation = _require(entry, "activation", where)
        if activation not in ACTIVATION_KINDS:
            raise ModelFormatError(f"{where}.activation: unknown kind {activation!r}")
        has_bias = _require(entry, "bias", where)
        if not isinstance(has_bias, bool):
            raise ModelFormatError(f"{where}.bias: expected true or false, got {has_bias!r}")
        layout.append((_FLOAT64_LE, (d_in, d_out)))
        if has_bias:
            layout.append((_FLOAT64_LE, (d_out,)))
        kinds.append((activation, has_bias))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelFormatError(f"{path}: metadata: expected an object")
    try:
        arrays = iter(_decode_records(raw, layout)[1:])
    except ValueError as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from exc
    parts = [(next(arrays), next(arrays) if has_bias else None, activation)
             for activation, has_bias in kinds]
    return parts, metadata


def load_model(path) -> tuple[Mlp, dict]:
    """Load a schema-3 model file (`save_model`), returning the network and
    its metadata dict.

    A file that does not start with the npy magic, a bad header, short or
    trailing bytes, a checksum mismatch or any other fault raises
    ModelFormatError naming the file. The weights and biases are fresh,
    writeable float64 arrays: views of a buffer that nothing else holds."""
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(raw)
    parts, metadata = _record_model(raw, path)
    layers = []
    for k, (weights, bias, activation) in enumerate(parts):
        try:
            layers.append(Layer(weights, bias, activation))
        except MorphkitError as exc:  # such as bytes that decode to NaN
            raise ModelFormatError(f"{path}: layers[{k}]: {exc}") from exc
    try:
        return Mlp(layers), metadata
    except MorphkitError as exc:  # widths that do not chain
        raise ModelFormatError(f"{path}: {exc}") from exc


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_be32(fh, path, what) -> int:
    data = fh.read(4)
    if len(data) != 4:
        raise IdxFormatError(f"{path}: truncated while reading {what}")
    return struct.unpack(">I", data)[0]


def read_idx(images_path, labels_path) -> Dataset:
    """Decode an IDX image/label file pair into a Dataset.

    Pixels are flattened row-major per image and scaled to [0, 1].
    """
    with _open_maybe_gzip(images_path) as fh:
        magic = _read_be32(fh, images_path, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}, "
                f"expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        count = _read_be32(fh, images_path, "image count")
        rows = _read_be32(fh, images_path, "row count")
        cols = _read_be32(fh, images_path, "column count")
        raw = fh.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise IdxFormatError(
                f"{images_path}: truncated pixel data "
                f"({len(raw)} of {count * rows * cols} bytes)"
            )
    features = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    features = features.astype(np.float64) / 255.0

    with _open_maybe_gzip(labels_path) as fh:
        magic = _read_be32(fh, labels_path, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}, "
                f"expected 0x{IDX_LABEL_MAGIC:08x}"
            )
        label_count = _read_be32(fh, labels_path, "label count")
        if label_count != count:
            raise IdxFormatError(
                f"{labels_path}: {label_count} labels for {count} images"
            )
        raw = fh.read(label_count)
        if len(raw) != label_count:
            raise IdxFormatError(
                f"{labels_path}: truncated label data "
                f"({len(raw)} of {label_count} bytes)"
            )
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    return Dataset(features=features, labels=labels)


def synth_dataset(seed: int, n: int, d: int, classes: int, separation: float = 6.0) -> Dataset:
    """Gaussian class blobs (unit per-dimension noise) whose means sit at
    least `separation` apart; labels round-robin so classes stay balanced.
    """
    if n < 1 or d < 1 or classes < 1:
        raise ValueError("n, d and classes must all be >= 1")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(classes, d))
    if classes > 1:
        gaps = [
            np.linalg.norm(means[i] - means[j])
            for i in range(classes)
            for j in range(i + 1, classes)
        ]
        means *= separation / max(min(gaps), 1e-12)
    labels = np.arange(n) % classes
    features = means[labels] + rng.normal(size=(n, d))
    return Dataset(features=features, labels=labels)


def synth_lowrank_dataset(
    seed: int,
    n: int,
    d: int = 784,
    classes: int = 10,
    spacing: float = 10.0,
    side_dims: int = 30,
    side_scale: float = 0.45,
    ambient: float = 0.01,
) -> Dataset:
    """Class blobs embedded in a low-dimensional subspace of d dims, with
    class means spread `spacing` apart along one dominant direction.

    High-dimensional features with low intrinsic dimension and one strong
    principal direction are the regime where hidden activations become
    heavily correlated (as image features are), which is what makes width
    sparsification bite. Used by the desk-scale experiment.
    """
    if n < 1 or d < 1 or classes < 1 or side_dims < 0:
        raise ValueError("n, d and classes must be >= 1 and side_dims >= 0")
    if side_dims + 1 > d:
        raise ValueError("side_dims + 1 must not exceed the feature count")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    main = spacing * (labels - (classes - 1) / 2) + rng.normal(size=n)
    side_means = side_scale * rng.normal(size=(classes, side_dims))
    side = side_means[labels] + side_scale * rng.normal(size=(n, side_dims))
    latent = np.column_stack([main, side])
    basis = rng.normal(size=(side_dims + 1, d)) / np.sqrt(d)
    # the bits of `latent @ basis + ambient * noise` (IEEE addition
    # commutes), with the noise drawn and added a block of rows at a time:
    # a Generator draws row after row, so the stream is the same, and only
    # one n x d array is ever alive
    features = latent @ basis
    block = max(1, _BLOCK_ENTRIES // d)
    for start in range(0, n, block):
        noise = rng.normal(size=(min(block, n - start), d))
        noise *= ambient
        features[start:start + block] += noise
    return Dataset(features=features, labels=labels)


def _cache_path(name: str, key: dict, suffix: str) -> str:
    """`$XDG_CACHE_HOME/morphkit/<name>-<32 hex of the key><suffix>.npys`,
    the key completed with DATASET_CACHE_FORMAT and the numpy version. A
    relative XDG_CACHE_HOME is ignored, as the XDG spec says."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    text = json.dumps({"format": DATASET_CACHE_FORMAT, "numpy": np.__version__, **key},
                      sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]
    return os.path.join(base, "morphkit", f"{name}-{digest}{suffix}.npys")


def dataset_cache_path(generator: str, params: dict, split: str, dtype=np.float64) -> str:
    """The cache entry of one split of a synthetic draw, with float64
    features, or `<name>-<hash>-<split>-float32.npys` for their float32
    rounding when `dtype` is float32. Its name hashes the generator, its
    fully resolved parameters, the numpy version (Generator streams may
    change between releases) and DATASET_CACHE_FORMAT."""
    kind = "" if np.dtype(dtype) == np.float64 else f"-{np.dtype(dtype).name}"
    return _cache_path(generator, {"generator": generator, "params": params},
                       f"-{split}{kind}")


def probe_cache_path(dataset_entry: str, split: str, probe_size: int, seed: int,
                     insert_after: int, parent_digest: str) -> str:
    """The cache entry of a parent's probe pass on rows of a cached split:
    `probe-<32 hex>.npys` next to `dataset_entry`, the split's entry. Its
    name hashes DATASET_CACHE_FORMAT, the numpy version, the split entry's
    name, the split, the probe size, the row-sampling seed, the insertion
    point and `morph.parent_digest` of the parent. Like a draw's
    `latent @ basis`, the pass is matrix products whose bits depend on the
    BLAS and its thread count, which the key does not hold: a hit has the
    bits of a fresh pass on the same machine, numpy build and thread
    count."""
    return _cache_path("probe", {
        "dataset_entry": os.path.basename(dataset_entry), "split": split,
        "probe_size": probe_size, "seed": seed, "insert_after": insert_after,
        "parent_digest": parent_digest,
    }, "")


def _read_entry(path, layout, what: str) -> list[np.ndarray] | None:
    """The arrays of the cache entry at `path` (`_decode_records` of
    `layout`), or None on a miss: a missing, truncated or corrupt entry is
    a miss. A hit's arrays are read-only views of a read-only memory mapping
    of the entry, so a hit copies nothing. Logs one INFO line, "`what`
    cache hit" or "miss", either way.
    """
    try:
        with open(path, "rb") as fh:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        arrays = _decode_records(buf, layout)
    except FileNotFoundError:
        log.info("%s cache miss: %s", what, path)
        return None
    except (OSError, ValueError) as exc:  # mmap refuses an empty file with ValueError
        log.info("%s cache miss (%s): %s", what, exc, path)
        return None
    log.info("%s cache hit: %s", what, path)
    return arrays


def _write_entry(path, encode, what: str) -> bool:
    """Write a cache entry at `path` in one atomic replace, `encode` writing
    its records to the open binary file; returns whether it was written.
    A cache that cannot be written, or records that `encode` refuses with
    `OutOfRangeError`, are logged and skipped and leave no file: the caller
    already holds the arrays."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with _atomic_open(path, binary=True) as fh:
            encode(fh)
    except (OSError, OutOfRangeError) as exc:
        log.info("%s cache not written (%s): %s", what, exc, path)
        return False
    return True


def read_cached_split(path, shape: tuple, dtype=np.float64) -> Dataset | None:
    """The split cached at `path`, or None on a miss (see `_read_entry`):
    `shape` little-endian features of `dtype` (float64 or float32), then
    int64 labels."""
    layout = [(np.dtype(dtype).newbyteorder("<"), shape), (_INT64_LE, shape[:1])]
    arrays = _read_entry(path, layout, "dataset")
    return None if arrays is None else Dataset(*arrays)


def write_cached_split(path, data: Dataset, dtype=None) -> bool:
    """Cache `data` at `path` (see `_write_entry`), its features in their
    own dtype or rounded to `dtype`, a block of rows at a time
    (`_encode_split`). Returns whether the entry was written: a rounding
    with a non-finite entry is not."""
    dtype = np.dtype(data.features.dtype if dtype is None else dtype).newbyteorder("<")
    labels = np.ascontiguousarray(data.labels, dtype=_INT64_LE)
    return _write_entry(path, lambda fh: _encode_split(fh, data.features, dtype, labels),
                        "dataset")


def read_cached_probe(path, insert_after: int, parent_digest: str,
                      shapes: tuple) -> PreparedProbe | None:
    """The probe pass cached at `path` as a PreparedProbe for the parent
    whose `morph.parent_digest` is `parent_digest`, or None on a miss (see
    `_read_entry`): little-endian float64 `a1` and `downstream_pre` of
    `shapes`."""
    arrays = _read_entry(path, [(_FLOAT64_LE, shape) for shape in shapes], "probe")
    return None if arrays is None else PreparedProbe(insert_after, *arrays, parent_digest)


def write_cached_probe(path, prepared: PreparedProbe) -> None:
    """Cache `prepared`'s arrays at `path` (see `_write_entry`)."""
    arrays = [np.ascontiguousarray(a, dtype=_FLOAT64_LE)
              for a in (prepared.a1, prepared.downstream_pre)]
    _write_entry(path, lambda fh: _encode_records(fh, arrays), "probe")


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(reports: list[MorphReport], path) -> None:
    """Emit one row per report, one column per MorphReport field."""
    if not reports:
        raise ValueError("no reports to write")
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_COLUMNS)
        for rep in reports:
            writer.writerow([_format_value(getattr(rep, name)) for name in REPORT_CSV_COLUMNS])


@contextlib.contextmanager
def writing_report_json(report: MorphReport, path):
    """Write `report` to `path` as JSON when the block finishes; when the
    block raises, `path` keeps its old contents. A file written inside the
    block with `_atomic_open` (as `save_model` writes) and the report are
    then all or nothing, bar a failure of the report's final rename."""
    with _atomic_open(path) as fh:
        json.dump(dataclasses.asdict(report), fh, indent=1)
        fh.write("\n")
        yield


def save_report_json(report: MorphReport, path) -> None:
    with writing_report_json(report, path):
        pass


def load_report_json(path) -> MorphReport:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    names = {f.name for f in dataclasses.fields(MorphReport)}
    unknown = set(doc) - names
    if unknown:
        raise ModelFormatError(f"{path}: unknown report fields {sorted(unknown)}")
    try:
        return MorphReport(**doc)
    except TypeError as exc:
        raise ModelFormatError(f"{path}: incomplete report ({exc})") from exc
