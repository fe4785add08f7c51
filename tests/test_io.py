"""Serialization, IDX ingestion, synthetic data, and report CSV tests."""

import base64
import csv
import dataclasses
import gzip
import hashlib
import io
import json
import math
import os
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import morphkit
from morphkit import io as mio
from morphkit import verify
from morphkit.errors import IdxFormatError, ModelFormatError
from morphkit.io import (
    Dataset,
    load_model,
    load_report_json,
    read_idx,
    save_model,
    save_report_json,
    synth_dataset,
    synth_lowrank_dataset,
    write_report_csv,
)
from morphkit.linalg import least_squares
from morphkit.morph import MorphReport, parent_digest, prepare_probe
from morphkit.network import ACTIVATION_KINDS, Layer, Mlp, forward


def random_net(seed, bias=True):
    rng = np.random.default_rng(seed)
    return Mlp(
        [
            Layer(rng.normal(size=(4, 6)), rng.normal(size=6) if bias else None, "relu"),
            Layer(rng.normal(size=(6, 5)), rng.normal(size=5) if bias else None, "tanh"),
            Layer(rng.normal(size=(5, 3)), rng.normal(size=3) if bias else None, "identity"),
        ]
    )


def write_idx_fixture(tmp_path, pixels, labels, gz=False):
    """Author IDX files directly with struct, independent of the reader."""
    count, rows, cols = pixels.shape
    img_path = tmp_path / ("img.idx3.gz" if gz else "img.idx3")
    lbl_path = tmp_path / ("lbl.idx1.gz" if gz else "lbl.idx1")
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())
    with opener(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return img_path, lbl_path


def write_record_model(path, doc, arrays=()):
    """Write a schema-3 container by hand: the header document `doc`, then
    `arrays` as little-endian float64 records, through `_encode_records`, so
    that the CRC-32 holds and a load reaches the checks behind it."""
    header = np.frombuffer(json.dumps(doc).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        mio._encode_records(fh, [header, *(np.asarray(a, dtype="<f8") for a in arrays)])


def small_header(**fields):
    """The header document of one 2-to-3 relu layer with a bias (`SMALL_ARRAYS`),
    with `fields` replacing the layer's own."""
    layer = {"in": 2, "out": 3, "activation": "relu", "bias": True, **fields}
    return {"schema_version": 3, "layers": [layer], "metadata": {}}


SMALL_ARRAYS = (np.ones((2, 3)), np.ones(3))


def record_bounds(raw):
    """The byte offset at which each npy record of a saved model starts, and
    the file's length, read with numpy's own npy parser."""
    fh = io.BytesIO(raw)
    bounds = []
    while fh.tell() < len(raw):
        bounds.append(fh.tell())
        assert np.lib.format.read_magic(fh) == (1, 0)
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        fh.seek(math.prod(shape) * dtype.itemsize, 1)
    return bounds + [len(raw)]


class TestModelRoundTrip:
    @pytest.mark.parametrize("bias", [True, False])
    def test_forward_outputs_identical(self, tmp_path, bias):
        net = random_net(0, bias=bias)
        path = tmp_path / "net.model"
        save_model(net, path, metadata={"seed": 0, "note": "fixture"})
        loaded, meta = load_model(path)
        assert meta == {"seed": 0, "note": "fixture"}
        probe = np.random.default_rng(1).normal(size=(7, 4))
        before = forward(net, probe).activations[-1]
        after = forward(loaded, probe).activations[-1]
        np.testing.assert_array_equal(before, after)

    def test_weights_bit_exact(self, tmp_path):
        net = random_net(2)
        net.layers[0].weight[1, 2] = -0.0
        net.layers[1].bias[0] = 5e-324
        path = tmp_path / "net.model"
        save_model(net, path)
        loaded, _ = load_model(path)
        assert_same_layers(net, loaded)

    def test_writes_schema_3_records(self, tmp_path):
        # read back with numpy's own npy reader, independent of load_model
        net = random_net(5)
        net.layers[1] = Layer(net.layers[1].weight, None, "tanh")
        path = tmp_path / "net.model"
        save_model(net, path, metadata={"note": "readable"})
        raw = path.read_bytes()
        fh = io.BytesIO(raw)
        records = []
        while fh.tell() < len(raw):
            records.append(np.lib.format.read_array(fh, allow_pickle=False))
        header = json.loads(records[0].tobytes())
        assert records[0].dtype == np.uint8
        # the header is padded so that every record starts 8-byte aligned
        assert [b % 8 for b in record_bounds(raw)[:-1]] == [0] * 7
        assert header == {"schema_version": 3, "metadata": {"note": "readable"}, "layers": [
            {"in": 4, "out": 6, "activation": "relu", "bias": True},
            {"in": 6, "out": 5, "activation": "tanh", "bias": False},
            {"in": 5, "out": 3, "activation": "identity", "bias": True}]}
        arrays = [net.layers[0].weight, net.layers[0].bias, net.layers[1].weight,
                  net.layers[2].weight, net.layers[2].bias]
        assert len(records) == len(arrays) + 2
        for got, want in zip(records[1:], arrays):
            assert got.dtype == np.dtype("<f8") and got.tobytes() == want.tobytes()
        crc = 0
        for record in records[:-1]:
            crc = zlib.crc32(record.tobytes(), crc)
        assert records[-1].dtype == np.dtype("<u4") and records[-1].shape == ()
        assert int(records[-1]) == crc

    def test_loaded_arrays_are_fresh_and_writeable(self, tmp_path):
        net = random_net(6)
        path = tmp_path / "net.model"
        save_model(net, path)
        loaded, _ = load_model(path)
        arrays = [a for layer in loaded.layers for a in (layer.weight, layer.bias)]
        for k, array in enumerate(arrays):
            assert array.dtype == np.float64 and array.flags.writeable and array.flags.aligned
            assert not any(np.shares_memory(array, other) for other in arrays[k + 1:])
        loaded.layers[0].weight[0, 0] = 7.0  # the file and the saved network keep their values
        assert_same_layers(net, load_model(path)[0])

    def test_hand_written_v2_loads_bit_exact(self, tmp_path):
        # a schema-2 document as written before record files (base64
        # little-endian float64) is refused; its layers and metadata, written
        # here as the schema-3 file its conversion holds, load bit for bit
        text = (
            '{"schema_version": 2, "layers": ['
            '{"in": 2, "out": 2, "activation": "relu",'
            ' "weights": "AAAAAAAAAIABAAAAAAAAAP///////+9/mpmZmZmZuT8=",'
            ' "bias": "AAAAAAAAEIAr5nCLaBIAgA=="},'
            '{"in": 2, "out": 1, "activation": "identity",'
            ' "weights": "AAAAAAAA+D/////////v/w==", "bias": null}'
            '], "metadata": {"seed": 3, "nested": {"list": [1, 2.5]}}}'
        )
        w0 = np.array([[-0.0, 5e-324], [1.7976931348623157e308, 0.1]])
        b0 = np.array([-2.2250738585072014e-308, -1e-310])
        w1 = np.array([[1.5], [-1.7976931348623157e308]])
        assert_converted_document_loads(tmp_path, text, [w0, b0, w1])

    def test_hand_written_v1_loads_bit_exact(self, tmp_path):
        # a schema-1 document as written before base64 arrays (nested lists of
        # repr floats) is refused; its conversion loads bit for bit
        text = (
            '{"schema_version": 1, "layers": ['
            '{"in": 2, "out": 3, "activation": "tanh",'
            ' "weights": [[-0.0, 5e-324, 1.7976931348623157e+308],'
            ' [0.1, -2.2250738585072014e-308, -1e-310]],'
            ' "bias": [0.30000000000000004, -0.0, 1]},'
            '{"in": 3, "out": 1, "activation": "identity",'
            ' "weights": [[1.5], [-1.7976931348623157e+308], [2]], "bias": null}'
            '], "metadata": {"seed": 3}}'
        )
        w0 = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                       [0.1, -2.2250738585072014e-308, -1e-310]])
        b0 = np.array([0.30000000000000004, -0.0, 1.0])
        w1 = np.array([[1.5], [-1.7976931348623157e308], [2.0]])
        assert_converted_document_loads(tmp_path, text, [w0, b0, w1])

    def test_unknown_metadata_keys_survive(self, tmp_path):
        net = random_net(3)
        path = tmp_path / "net.model"
        save_model(net, path, metadata={"custom": {"deep": [1, 2]}, "x": "y"})
        _, meta = load_model(path)
        assert meta["custom"] == {"deep": [1, 2]}
        assert meta["x"] == "y"

    @pytest.mark.parametrize("version", [0, 1, 2, "3", 99])
    def test_version_mismatch(self, tmp_path, version):
        # the JSON schemas' numbers, a string and a future version, each in a
        # record header
        path = tmp_path / "net.model"
        write_record_model(path, {**small_header(), "schema_version": version}, SMALL_ARRAYS)
        assert_refused(path, rf"schema_version {re.escape(repr(version))} is not supported")

    def test_missing_field_names_path(self, tmp_path):
        doc = small_header()
        del doc["layers"][0]["bias"]
        path = tmp_path / "net.model"
        write_record_model(path, doc, SMALL_ARRAYS)
        assert_refused(path, r"layers\[0\]: missing required field 'bias'")

    def test_shape_mismatch_reported(self, tmp_path):
        # the declared widths fix each record's npy header: a record of
        # another shape is refused, though the checksum holds
        path = tmp_path / "net.model"
        write_record_model(path, small_header(**{"in": 3}), SMALL_ARRAYS)
        assert_refused(path, r"not an npy header for float64 \(3, 3\)")

    @pytest.mark.parametrize("width", [0, -2, "3", 2.0, None, True])
    def test_declared_width_must_be_positive_integer(self, tmp_path, width):
        path = tmp_path / "net.model"
        write_record_model(path, small_header(**{"in": width}), SMALL_ARRAYS)
        assert_refused(path, r"layers\[0\]\.in: expected a positive integer")

    @pytest.mark.parametrize("doc, message", [
        (small_header(activation="softmax"), r"layers\[0\]\.activation: unknown kind 'softmax'"),
        (small_header(bias=1), r"layers\[0\]\.bias: expected true or false, got 1"),
        ({**small_header(), "layers": []}, "layers: expected a nonempty list"),
        ({**small_header(), "metadata": [1]}, "metadata: expected an object"),
        ([3], "missing required field 'schema_version'"),
    ], ids=["activation", "bias", "no layers", "metadata", "not an object"])
    def test_bad_header_field_is_refused(self, tmp_path, doc, message):
        path = tmp_path / "net.model"
        write_record_model(path, doc, SMALL_ARRAYS)
        assert_refused(path, message)

    def test_widths_that_do_not_chain_are_refused(self, tmp_path):
        doc = small_header()
        doc["layers"].append({"in": 4, "out": 1, "activation": "identity", "bias": False})
        path = tmp_path / "net.model"
        write_record_model(path, doc, [*SMALL_ARRAYS, np.ones((4, 1))])
        assert_refused(path, "layer 0 outputs 3 features but layer 1 expects 4")

    @pytest.mark.parametrize("field, shape, name", [("weights", (2, 3), "layer weight"),
                                                    ("bias", (3,), "layer bias")])
    def test_bytes_decoding_to_nan_are_not_finite(self, tmp_path, field, shape, name):
        # well-formed records that hold NaN: the file parses and its checksum
        # holds, the layer refuses them, and the error names the file and the layer
        arrays = dict(zip(["weights", "bias"], SMALL_ARRAYS))
        arrays[field] = np.full(shape, np.nan)
        path = tmp_path / "net.model"
        write_record_model(path, small_header(), arrays.values())
        assert assert_refused(path) == f"{path}: layers[0]: {name}: contains non-finite entries"


def assert_refused(path, match=None):
    with pytest.raises(ModelFormatError, match=match) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    return str(info.value)


def assert_converted_document_loads(tmp_path, text, arrays):
    """`text`, a JSON model document, is refused with the conversion hint; the
    schema-3 file it converts to (its header fields and metadata, then
    `arrays`, the weights and biases it holds, in layer order) loads with
    every value bit for bit."""
    old = tmp_path / "old.model"
    old.write_text(text)
    assert_refused(old, r"JSON model files \(schema 1 and 2\) are no longer read")
    doc = json.loads(text)
    held = [value for d in doc["layers"] for value in (d["weights"], d["bias"]) if value is not None]
    for value, array in zip(held, arrays, strict=True):
        # schema 2 held base64 little-endian float64, schema 1 nested lists
        decoded = (np.frombuffer(base64.b64decode(value), dtype="<f8") if isinstance(value, str)
                   else np.array(value, dtype=np.float64))
        assert decoded.tobytes() == np.ascontiguousarray(array).tobytes()
    header = {"schema_version": 3, "metadata": doc["metadata"], "layers": [
        {"in": d["in"], "out": d["out"], "activation": d["activation"], "bias": d["bias"] is not None}
        for d in doc["layers"]]}
    new = tmp_path / "converted.model"
    write_record_model(new, header, arrays)
    net, meta = load_model(new)
    assert meta == doc["metadata"]
    layers, rest = [], list(arrays)
    for d in doc["layers"]:
        weight = rest.pop(0)
        layers.append(Layer(weight, rest.pop(0) if d["bias"] is not None else None, d["activation"]))
    assert_same_layers(Mlp(layers), net)

NPY_MAGIC = np.lib.format.MAGIC_PREFIX
# JSON model files, which morphkit 0.1.0 was the last version to read: schema 1
# (nested number lists) and schema 2 (base64 little-endian float64)
SCHEMA1_MODEL = ('{"schema_version": 1, "layers": [{"in": 2, "out": 1, "activation": "identity",'
                 ' "weights": [[1.5], [-0.0]], "bias": null}], "metadata": {"seed": 3}}')
SCHEMA2_MODEL = ('{"schema_version": 2, "layers": [{"in": 2, "out": 1, "activation": "identity",'
                 ' "weights": "AAAAAAAA+D/////////v/w==", "bias": null}], "metadata": {"seed": 3}}')


class TestModelCorruption:
    """Any change to a schema-3 file's bytes is refused, naming the file."""

    def small_model(self, tmp_path):
        net = Mlp([Layer(np.array([[0.5, -0.0], [5e-324, -2.0]]), np.array([1.0, -1.0]), "relu"),
                   Layer(np.array([[3.0], [0.25]]), None, "identity")])
        path = tmp_path / "net.model"
        save_model(net, path, metadata={"seed": 1})
        return path, path.read_bytes()

    @pytest.mark.parametrize("mask", [0xFF, 0x01, 0x80], ids=["ff", "01", "80"])
    def test_every_flipped_byte_is_refused(self, tmp_path, mask):
        path, raw = self.small_model(tmp_path)
        for k in range(len(raw)):
            path.write_bytes(raw[:k] + bytes([raw[k] ^ mask]) + raw[k + 1:])
            assert_refused(path)

    def test_flipped_weight_byte_is_a_checksum_mismatch(self, tmp_path):
        path, raw = self.small_model(tmp_path)
        k = record_bounds(raw)[1] + 128 + 3  # inside the first weight record's data
        path.write_bytes(raw[:k] + bytes([raw[k] ^ 0x10]) + raw[k + 1:])
        assert assert_refused(path) == f"{path}: corrupt model file (checksum mismatch)"

    def test_truncation_at_each_record_boundary_is_refused(self, tmp_path):
        path, raw = self.small_model(tmp_path)
        bounds = record_bounds(raw)
        assert len(bounds) == 6  # header, 2 weights, 1 bias, checksum, end
        cuts = {cut for b in bounds[:-1] for cut in (b, b + 1, b + 127, b + 128, b + 129)}
        for cut in sorted(c for c in cuts | {len(raw) - 1} if c < len(raw)):
            path.write_bytes(raw[:cut])
            assert_refused(path)

    @pytest.mark.parametrize("tail", [b"\0", b"\n", bytes(132)])
    def test_trailing_bytes_are_refused(self, tmp_path, tail):
        path, raw = self.small_model(tmp_path)
        path.write_bytes(raw + tail)
        assert_refused(path, "bytes after the checksum")

    def test_verify_check_refuses_a_loader_that_skips_the_checksum(self, monkeypatch):
        verify.check_model_roundtrip(0)
        monkeypatch.setattr(mio, "_checksum", lambda arrays: 0)  # written and read as 0
        with pytest.raises(AssertionError, match="flipped loaded"):
            verify.check_model_roundtrip(0)

    def test_json_claiming_schema_3_is_refused(self, tmp_path):
        # JSON text is refused before it is parsed, whatever schema it claims
        path = tmp_path / "net.model"
        path.write_text(json.dumps({**small_header(), "schema_version": 3}))
        assert_refused(path, r"\(schema 1 and 2\) are no longer read")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(raw=(st.binary(max_size=64)
                | st.builds(lambda k, tail: NPY_MAGIC[:k] + tail, st.integers(0, len(NPY_MAGIC)),
                            st.binary(max_size=16))).filter(lambda raw: not raw.startswith(NPY_MAGIC)))
    @example(raw=SCHEMA1_MODEL.encode())
    @example(raw=SCHEMA2_MODEL.encode())
    def test_bytes_without_the_npy_magic_are_refused(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("model") / "net.model"
        path.write_bytes(raw)
        message = assert_refused(path, r"JSON model files \(schema 1 and 2\) are no longer read")
        assert message.endswith("load it and save it again with morphkit 0.1.0")


def test_package_and_pyproject_versions_agree():
    # the refusal of JSON model files points at 0.1.0, the last version that read them
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")) as fh:
        pyproject = fh.read()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M)[1] == morphkit.__version__


def assert_same_layers(net, loaded):
    assert len(loaded.layers) == len(net.layers)
    for a, b in zip(net.layers, loaded.layers):
        assert a.activation == b.activation
        assert b.weight.shape == a.weight.shape
        assert b.weight.tobytes() == a.weight.tobytes()
        assert (b.bias is None) == (a.bias is None)
        if a.bias is not None:
            assert b.bias.tobytes() == a.bias.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


# the values most likely to lose bits on the way through a file
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308])


@st.composite
def mlps(draw):
    """Depth 1-3, widths 1-12, each layer with or without a bias."""
    widths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
    layers = []
    for d_in, d_out in zip(widths, widths[1:]):
        weight = draw(hnp.arrays(np.float64, (d_in, d_out), elements=EDGE_FLOATS | FINITE))
        bias = draw(st.none() | hnp.arrays(np.float64, d_out, elements=EDGE_FLOATS | FINITE))
        layers.append(Layer(weight, bias, draw(st.sampled_from(ACTIVATION_KINDS))))
    return Mlp(layers)


def float_or_nan_equal(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and (struct.pack("<d", a) == struct.pack("<d", b)
                                   if isinstance(a, float) else a == b)


class TestGeneratedRoundTrips:
    """Any finite float64, -0.0 and subnormals included, survives a file."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(net=mlps(), metadata=st.dictionaries(st.text(), JSON_VALUES, max_size=4))
    def test_model_round_trip(self, tmp_path_factory, net, metadata):
        path = tmp_path_factory.mktemp("model") / "net.model"
        save_model(net, path, metadata=metadata)
        loaded, meta = load_model(path)
        assert_same_layers(net, loaded)
        # the JSON text tells -0.0 from 0.0 and 1 from 1.0 and True, where == does not
        assert json.dumps(meta, sort_keys=True) == json.dumps(metadata, sort_keys=True)

    @settings(max_examples=60, deadline=None)
    @given(
        accs=st.tuples(*[st.floats(0, 1) | st.just(float("nan"))] * 3),
        numbers=st.tuples(FINITE, FINITE, FINITE, FINITE, FINITE | st.just(float("nan"))),
        counts=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 9),
                         st.integers(0, 10**4)),
        text=st.text(),
    )
    def test_report_round_trip(self, tmp_path_factory, accs, numbers, counts, text):
        report = MorphReport(
            run_id=text, algorithm="alg3", activation="relu",
            n_redundant=counts[0], n_sparse=counts[1], ridge_fallbacks=counts[2],
            compression_ratio=numbers[0], preservation_max=numbers[1],
            preservation_rms=numbers[2], wall_time_s=numbers[3], sparse_stop_reason=text,
            sparse_sweeps=counts[3], sparse_objective=numbers[4],
            acc_parent=accs[0], acc_post_morph=accs[1], acc_after_finetune=accs[2],
        )
        path = tmp_path_factory.mktemp("report") / "r.report.json"
        save_report_json(report, path)
        loaded = load_report_json(path)
        for field in dataclasses.fields(MorphReport):
            a, b = getattr(report, field.name), getattr(loaded, field.name)
            assert float_or_nan_equal(a, b), field.name

    def test_report_without_solver_fields_loads(self, tmp_path):
        # reports written before sparse_sweeps and sparse_objective existed
        doc = dataclasses.asdict(sample_report())
        del doc["sparse_sweeps"], doc["sparse_objective"]
        path = tmp_path / "old.report.json"
        path.write_text(json.dumps(doc))
        loaded = load_report_json(path)
        assert loaded.sparse_sweeps == 0 and np.isnan(loaded.sparse_objective)
        restored = dataclasses.replace(loaded, sparse_sweeps=37, sparse_objective=12.75)
        assert restored == sample_report()

    @pytest.mark.parametrize("text", ["null", "5", '"x"', "[1]"])
    def test_report_that_is_no_json_object_is_refused(self, tmp_path, text):
        path = tmp_path / "r.report.json"
        path.write_text(text)
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: not a report"):
            load_report_json(path)


class TestReadIdx:
    @pytest.mark.skipif(
        "MORPHKIT_MNIST" not in __import__("os").environ,
        reason="set MORPHKIT_MNIST to a directory with the official IDX files",
    )
    def test_official_mnist_dimensions(self):
        import os

        root = os.environ["MORPHKIT_MNIST"]
        pair = []
        for kind in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
            for cand in (kind, kind + ".gz"):
                path = os.path.join(root, cand)
                if os.path.exists(path):
                    pair.append(path)
                    break
        if len(pair) != 2:
            pytest.skip("official MNIST training files not found")
        data = read_idx(*pair)
        assert data.features.shape == (60000, 784)
        assert np.unique(data.labels).tolist() == list(range(10))

    def test_fixture_decodes_to_known_values(self, tmp_path):
        pixels = np.array(
            [[[0, 128, 255], [10, 20, 30]], [[1, 2, 3], [4, 5, 6]]], dtype=np.uint8
        )
        img, lbl = write_idx_fixture(tmp_path, pixels, [7, 2])
        data = read_idx(img, lbl)
        assert data.features.shape == (2, 6)
        np.testing.assert_allclose(
            data.features[0], np.array([0, 128, 255, 10, 20, 30]) / 255.0
        )
        np.testing.assert_array_equal(data.labels, [7, 2])

    def test_gzip_transparent(self, tmp_path):
        pixels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        img, lbl = write_idx_fixture(tmp_path, pixels, [0, 1], gz=True)
        data = read_idx(img, lbl)
        assert data.features.shape == (2, 6)
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_wrong_image_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_fixture(tmp_path, pixels, [0])
        raw = bytearray(img.read_bytes())
        raw[3] = 0x01
        img.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="image magic"):
            read_idx(img, lbl)

    def test_wrong_label_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_fixture(tmp_path, pixels, [0])
        raw = bytearray(lbl.read_bytes())
        raw[3] = 0x03
        lbl.write_bytes(bytes(raw))
        with pytest.raises(IdxFormatError, match="label magic"):
            read_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        img, _ = write_idx_fixture(tmp_path, pixels, [0, 1])
        other = tmp_path / "other"
        other.mkdir()
        _, lbl = write_idx_fixture(other, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 2])
        with pytest.raises(IdxFormatError, match="labels for"):
            read_idx(img, lbl)

    def test_truncated_pixels(self, tmp_path):
        pixels = np.zeros((2, 3, 3), dtype=np.uint8)
        img, lbl = write_idx_fixture(tmp_path, pixels, [0, 1])
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(IdxFormatError, match="truncated"):
            read_idx(img, lbl)

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("which,dims", [
        ("image", (3, 2, 3)), ("image", (1024, 1024, 64)), ("image", (2**32 - 1,) * 3),
        ("image", (0, 2**32 - 1, 2**32 - 1)), ("label", (3,)), ("label", (2**32 - 1,)),
    ], ids=["one image past the file", "64 MiB", "product past an index",
            "no images of a width past an index", "one label past the file",
            "labels past the file"])
    def test_header_that_declares_more_than_the_file_is_refused_unread(self, tmp_path, gz,
                                                                       which, dims):
        img, lbl = write_idx_fixture(tmp_path, np.zeros((2, 2, 3), np.uint8), [0, 1], gz=gz)
        path, magic = (img, 0x00000803) if which == "image" else (lbl, 0x00000801)
        opener = gzip.open if gz else open
        with opener(path, "rb") as fh:
            data = fh.read()[4 + 4 * len(dims):]
        with opener(path, "wb") as fh:
            fh.write(struct.pack(f">{1 + len(dims)}I", magic, *dims) + data)
        tracemalloc.start()
        try:
            with pytest.raises(IdxFormatError, match=f"^{re.escape(str(path))}: truncated"):
                read_idx(img, lbl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak} bytes allocated before the refusal"

    @pytest.mark.parametrize("damage", ["truncated", "bad crc", "flipped byte", "not gzip"])
    def test_damaged_gzip_is_refused_by_name(self, tmp_path, damage):
        img, lbl = write_idx_fixture(tmp_path, np.arange(240, dtype=np.uint8).reshape(4, 6, 10),
                                     [0, 1, 2, 3], gz=True)
        raw = img.read_bytes()
        mid = len(raw) // 2
        img.write_bytes({"truncated": raw[:-12], "bad crc": raw[:-8] + bytes(4) + raw[-4:],
                         "flipped byte": raw[:mid] + bytes([raw[mid] ^ 0xFF]) + raw[mid + 1:],
                         "not gzip": b"IDX" + raw[3:]}[damage])
        with pytest.raises(IdxFormatError, match=f"^{re.escape(str(img))}: corrupt gzip data"):
            read_idx(img, lbl)

    def test_bytes_after_the_data_are_ignored(self, tmp_path):
        pixels = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        img, lbl = write_idx_fixture(tmp_path, pixels, [0, 1])
        want = read_idx(img, lbl)
        img.write_bytes(img.read_bytes() + b"tail")
        lbl.write_bytes(lbl.read_bytes() + b"tail")
        data = read_idx(img, lbl)
        assert data.features.tobytes() == want.features.tobytes()
        assert data.labels.tobytes() == want.labels.tobytes()


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(5, 100, 4, 3)
        b = synth_dataset(5, 100, 4, 3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_single_class(self):
        data = synth_dataset(6, 50, 3, 1)
        assert (data.labels == 0).all()

    def test_balanced(self):
        data = synth_dataset(7, 90, 4, 3)
        counts = np.bincount(data.labels)
        assert counts.tolist() == [30, 30, 30]

    def test_linear_probe_separates_blobs(self):
        # independent linear read-out: one-hot least squares, argmax decision
        data = synth_dataset(8, 600, 10, 4, separation=6.0)
        onehot = np.eye(4)[data.labels]
        w = least_squares(np.hstack([data.features, np.ones((600, 1))]), onehot)
        preds = (np.hstack([data.features, np.ones((600, 1))]) @ w).argmax(axis=1)
        assert (preds == data.labels).mean() >= 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_dataset(0, 0, 3, 2)


class TestLowRankDataset:
    def test_deterministic_and_balanced(self):
        a = synth_lowrank_dataset(11, 200, d=50, classes=10, side_dims=8)
        b = synth_lowrank_dataset(11, 200, d=50, classes=10, side_dims=8)
        np.testing.assert_array_equal(a.features, b.features)
        assert np.bincount(a.labels).tolist() == [20] * 10

    def test_low_intrinsic_dimension(self):
        data = synth_lowrank_dataset(12, 400, d=100, classes=10, side_dims=8, ambient=0.0)
        rank = np.linalg.matrix_rank(data.features - data.features.mean(0))
        assert rank <= 9  # main direction + side dims

    def test_nearest_mean_probe_separates(self):
        # one-hot least squares masks middle classes on collinear means, so
        # probe with nearest class mean instead
        data = synth_lowrank_dataset(13, 500, d=60, classes=5, side_dims=8, spacing=10.0)
        means = np.stack([data.features[data.labels == c].mean(0) for c in range(5)])
        dists = ((data.features[:, None, :] - means[None]) ** 2).sum(axis=2)
        assert (dists.argmin(axis=1) == data.labels).mean() >= 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_lowrank_dataset(0, 10, d=4, classes=2, side_dims=9)

    def test_draw_keeps_one_feature_matrix_alive(self):
        n, d = 7000, 784
        tracemalloc.start()
        try:
            synth_lowrank_dataset(11, n, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * d * 8, f"traced peak {peak / (n * d * 8):.2f} x the features"


class TestGeneratorPins:
    """The dataset cache serves a stored split as a fresh draw, so a change
    to what a generator draws must come with a new DATASET_CACHE_FORMAT."""

    @pytest.mark.parametrize("draw,digest", [
        (lambda: synth_dataset(3, 50, 6, 3),
         "f24cb8ce1dc1ad119d606b707efe27bfbe1f66aac8bf03c9533cb8cfa92a2d8e"),
        (lambda: synth_lowrank_dataset(5, 40, d=20, classes=4, side_dims=3),
         "7eda6967a7089d8702659c342dfb542085dd3d9e8dfb3e55957c2eb45bbc9791"),
        # 1001 rows of 784 features span several of the draw's noise blocks
        (lambda: synth_lowrank_dataset(13, 1001),
         "97dff229944a73caadc41104b551e502bc8d4e028db04a517e6794f143a6a053"),
    ], ids=["synth", "lowrank", "lowrank-blocks"])
    def test_draw_is_pinned(self, draw, digest):
        data = draw()
        h = hashlib.sha256(data.features.tobytes())
        h.update(data.labels.tobytes())
        assert h.hexdigest() == digest, (
            "the generator draws different bits: bump io.DATASET_CACHE_FORMAT "
            "so no cached split is served as this draw, then update the pin"
        )
        assert mio.DATASET_CACHE_FORMAT == 1


def cache_entry(tmp_path, rows=5, d=3, seed=0):
    data = synth_dataset(seed, rows, d, 2) if rows else Dataset(np.zeros((0, d)), np.zeros(0))
    path = tmp_path / "entry.npys"
    mio.write_cached_split(path, data)
    return path, data


class TestDatasetCache:
    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_round_trip_is_bit_exact(self, tmp_path, rows):
        path, data = cache_entry(tmp_path, rows=rows)
        back = mio.read_cached_split(path, (rows, 3))
        assert back.features.tobytes() == data.features.tobytes()
        assert back.labels.tobytes() == data.labels.tobytes()
        assert back.features.dtype == np.float64 and back.labels.dtype == np.int64
        # views of the read-only mapping: nothing copied, nothing writable
        for array in (back.features, back.labels):
            assert not array.flags.writeable and not array.flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.npys"]

    def test_entry_bytes_are_pinned(self, tmp_path):
        # the layout every cache entry shares; a change here must bump
        # DATASET_CACHE_FORMAT, or old entries would be read as new ones
        path, _ = cache_entry(tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "f63892ef8bd3803f97f228a7d33fb1f31f6ad5548e002bcf0b66076ece76e367"

    def test_replacing_an_entry_keeps_a_live_read(self, tmp_path):
        path, old = cache_entry(tmp_path, seed=0)
        live = mio.read_cached_split(path, (5, 3))
        new = synth_dataset(1, 5, 3, 2)
        assert new.features.tobytes() != old.features.tobytes()
        mio.write_cached_split(path, new)
        # the atomic replace gives the path a new file; the mapping keeps the old one
        assert live.features.tobytes() == old.features.tobytes()
        assert live.labels.tobytes() == old.labels.tobytes()
        back = mio.read_cached_split(path, (5, 3))
        assert back.features.tobytes() == new.features.tobytes()
        assert back.labels.tobytes() == new.labels.tobytes()

    def test_every_flipped_byte_is_a_miss(self, tmp_path):
        path, _ = cache_entry(tmp_path)
        raw = path.read_bytes()
        for k in range(len(raw)):
            path.write_bytes(raw[:k] + bytes([raw[k] ^ 0xFF]) + raw[k + 1:])
            assert mio.read_cached_split(path, (5, 3)) is None, f"byte {k} of {len(raw)}"

    def test_truncated_or_extended_entry_is_a_miss(self, tmp_path):
        path, _ = cache_entry(tmp_path)
        raw = path.read_bytes()
        for cut in (0, 3, 100, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            assert mio.read_cached_split(path, (5, 3)) is None, cut
        path.write_bytes(raw + b"\0")
        assert mio.read_cached_split(path, (5, 3)) is None

    @pytest.mark.parametrize("shape", [(4, 3), (5, 4), (6, 3)])
    def test_unexpected_shape_is_a_miss(self, tmp_path, shape):
        path, _ = cache_entry(tmp_path)
        assert mio.read_cached_split(path, shape) is None

    def test_foreign_npy_is_a_miss(self, tmp_path):
        # a well-formed npy record of another dtype or layout never loads
        path = tmp_path / "entry.npys"
        for array in (np.zeros((5, 3), dtype=np.float32), np.asfortranarray(np.zeros((5, 3))),
                      np.array([{"x": 1}], dtype=object)):
            with open(path, "wb") as fh:
                np.lib.format.write_array(fh, array, allow_pickle=True)
            assert mio.read_cached_split(path, (5, 3)) is None

    @pytest.mark.parametrize("rows", [0, 7])
    def test_float32_entry_round_trip(self, tmp_path, rows):
        _, data = cache_entry(tmp_path, rows=rows)
        rounded = Dataset(data.features.astype(np.float32), data.labels)
        path = tmp_path / "entry-float32.npys"
        mio.write_cached_split(path, rounded)
        back = mio.read_cached_split(path, (rows, 3), np.float32)
        assert back.features.dtype == np.float32 and back.labels.dtype == np.int64
        assert back.features.tobytes() == rounded.features.tobytes()
        assert back.labels.tobytes() == data.labels.tobytes()
        assert not back.features.flags.writeable and not back.features.flags.owndata
        # 4 bytes less per feature than the float64 entry, all else equal
        assert path.stat().st_size == (tmp_path / "entry.npys").stat().st_size - 4 * rows * 3

    def test_entry_of_the_other_feature_dtype_is_a_miss(self, tmp_path):
        path64, data = cache_entry(tmp_path)
        path32 = tmp_path / "entry-float32.npys"
        mio.write_cached_split(path32, Dataset(data.features.astype(np.float32), data.labels))
        assert mio.read_cached_split(path64, (5, 3), np.float32) is None
        assert mio.read_cached_split(path32, (5, 3)) is None

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert mio.read_cached_split(tmp_path / "absent.npys", (5, 3)) is None

    def test_unwritable_location_is_skipped(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        mio.write_cached_split(blocker / "morphkit" / "entry.npys", synth_dataset(0, 5, 3, 2))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_interrupted_write_leaves_no_entry(self, tmp_path, monkeypatch):
        def failing_write(fh, array, **kw):
            fh.write(b"\x93NUMPY")
            raise OSError("disk full")

        monkeypatch.setattr(mio.np.lib.format, "write_array", failing_write)
        mio.write_cached_split(tmp_path / "entry.npys", synth_dataset(0, 5, 3, 2))
        assert list(tmp_path.iterdir()) == []

    def test_path_hashes_every_resolved_parameter(self, monkeypatch):
        params = {"n": 10, "test": 5, "d": 3, "seed": 0, "sep": 6.0}
        path = mio.dataset_cache_path("synth", params, "train")
        assert path == mio.dataset_cache_path("synth", dict(reversed(params.items())), "train")
        others = [mio.dataset_cache_path("lowrank", params, "train"),
                  mio.dataset_cache_path("synth", {**params, "sep": 6.5}, "train")]
        for target, name, value in ((mio.np, "__version__", "0.0.0"),
                                    (mio, "DATASET_CACHE_FORMAT", mio.DATASET_CACHE_FORMAT + 1)):
            with monkeypatch.context() as m:
                m.setattr(target, name, value)
                others.append(mio.dataset_cache_path("synth", params, "train"))
        assert len({path, *others}) == 5
        name = os.path.basename(path)
        assert name.startswith("synth-") and name.endswith("-train.npys")
        # the float32 entry of the split: the same hash, `-float32` after the split
        assert mio.dataset_cache_path("synth", params, "train", np.float32) == \
            path[:-len(".npys")] + "-float32.npys"

    def test_probe_path_hashes_every_key_part(self, monkeypatch):
        split = mio.dataset_cache_path("synth", {"n": 10}, "train")
        key = dict(dataset_entry=split, split="train", probe_size=4096, seed=0,
                   insert_after=0, parent_digest="ab" * 32)
        path = mio.probe_cache_path(**key)
        changed = {"dataset_entry": mio.dataset_cache_path("synth", {"n": 11}, "train"),
                   "split": "test", "probe_size": 4095, "seed": 1, "insert_after": 1,
                   "parent_digest": "cd" * 32}
        others = [mio.probe_cache_path(**{**key, name: value}) for name, value in changed.items()]
        for target, name, value in ((mio.np, "__version__", "0.0.0"),
                                    (mio, "DATASET_CACHE_FORMAT", mio.DATASET_CACHE_FORMAT + 1)):
            with monkeypatch.context() as m:
                m.setattr(target, name, value)
                others.append(mio.probe_cache_path(**key))
        assert len({path, *others}) == 9
        assert os.path.dirname(path) == os.path.dirname(split)
        assert re.fullmatch(r"probe-[0-9a-f]{32}[.]npys", os.path.basename(path))

    def test_probe_entry_round_trip(self, tmp_path):
        parent = random_net(3)
        prepared = prepare_probe(parent, 0, np.random.default_rng(4).normal(size=(9, 4)))
        path = tmp_path / "probe.npys"
        mio.write_cached_probe(path, prepared)
        shapes = (prepared.a1.shape, prepared.downstream_pre.shape)
        back = mio.read_cached_probe(path, 0, parent_digest(parent, 0), shapes)
        assert (back.insert_after, back.parent_digest) == (0, prepared.parent_digest)
        for got, want in ((back.a1, prepared.a1), (back.downstream_pre, prepared.downstream_pre)):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert not got.flags.writeable and not got.flags.owndata
        assert mio.read_cached_probe(path, 0, prepared.parent_digest,
                                     (shapes[0], (9, shapes[1][1] + 1))) is None

    @pytest.mark.parametrize("xdg,expected", [
        ("/srv/cache", "/srv/cache/morphkit"),
        ("", "~/.cache/morphkit"),
        ("relative/cache", "~/.cache/morphkit"),  # the XDG spec ignores relative paths
    ])
    def test_location_follows_xdg_cache_home(self, monkeypatch, xdg, expected):
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        path = mio.dataset_cache_path("synth", {}, "test")
        assert os.path.dirname(path) == os.path.expanduser(expected)


def sample_report(**kw):
    base = dict(
        algorithm="alg1",
        activation="relu",
        n_redundant=100,
        n_sparse=41,
        compression_ratio=0.41,
        preservation_max=0.001234,
        preservation_rms=0.000456,
        sparse_stop_reason="converged",
        sparse_sweeps=37,
        sparse_objective=12.75,
        wall_time_s=1.25,
        run_id="run-1",
        acc_parent=0.97,
        acc_post_morph=0.96,
        acc_after_finetune=0.971,
    )
    base.update(kw)
    return MorphReport(**base)


class TestReportCsv:
    def test_single_report_two_lines(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv([sample_report()], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "run_id,algorithm,activation,n_redundant,n_sparse,compression_ratio,"
            "preservation_max,preservation_rms,sparse_stop_reason,sparse_sweeps,"
            "sparse_objective,ridge_fallbacks,"
            "acc_parent,acc_post_morph,acc_after_finetune,wall_time_s"
        )

    def test_ratio_column_consistent(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv([sample_report(n_sparse=37, compression_ratio=0.37)], path)
        with open(path) as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["compression_ratio"]) == int(row["n_sparse"]) / int(row["n_redundant"])

    def test_reparse_recovers_values(self, tmp_path):
        reports = [
            sample_report(run_id="a", preservation_max=1.2345678901234e-7),
            sample_report(run_id="b", algorithm="alg3", wall_time_s=0.1 + 0.2),
        ]
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["preservation_max"]) == reports[0].preservation_max
        assert float(rows[1]["wall_time_s"]) == reports[1].wall_time_s
        assert rows[1]["algorithm"] == "alg3"

    def test_header_is_every_report_field(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv([sample_report(ridge_fallbacks=2)], path)
        with open(path, newline="") as fh:
            header, row = list(csv.reader(fh))
        assert header == [f.name for f in dataclasses.fields(MorphReport)]
        assert dict(zip(header, row))["ridge_fallbacks"] == "2"

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report_csv([], tmp_path / "empty.csv")


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))

    def test_negative_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, -1]))

    @pytest.mark.parametrize("labels,row,shown", [
        ([0.5, 1.7, 2.0], 0, "0.5"),  # once truncated to [0, 1, 2]
        ([0.0, 1e30, 1.0], 1, "1e+30"),  # whole, but beyond int64
        ([0.0, 1.0, np.nan], 2, "nan"),
    ], ids=["fraction", "beyond-int64", "nan"])
    def test_label_that_is_not_a_finite_whole_number_is_refused(self, labels, row, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy cast warning on the way
            with pytest.raises(ValueError, match=rf"^labels must be finite whole numbers in "
                                                 rf"int64's range; row {row} holds {re.escape(shown)}$"):
                Dataset(np.zeros((3, 2)), np.array(labels))

    @pytest.mark.parametrize("labels", [np.array([2.0, 0.0, -0.0]), np.array([2, 0, 0], np.uint8),
                                        np.array([2, 0, 0], np.uint64)])
    def test_whole_labels_of_any_numeric_dtype_become_int64(self, labels):
        data = Dataset(np.zeros((3, 2)), labels)
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [2, 0, 0]

    @pytest.mark.parametrize("dtype,kept", [(np.float32, np.float32), (np.float64, np.float64),
                                            (np.float16, np.float64), (np.int64, np.float64)])
    def test_float32_features_stay_float32(self, dtype, kept):
        features = np.arange(6).reshape(3, 2).astype(dtype)
        data = Dataset(features, [0, 1, 2])
        assert data.features.dtype == kept
        assert data.features.tolist() == features.tolist()


def _failing_dump(doc, fh, **kw):
    fh.write('{"partial": ')
    raise RuntimeError("interrupted mid-write")


def _failing_write_array(fh, array, **kw):
    fh.write(b"\x93NUMPY")
    raise RuntimeError("interrupted mid-write")


class TestAtomicWrites:
    """An interrupted write leaves the previous file and no temporary."""

    def test_model_write_interrupted(self, tmp_path, monkeypatch):
        path = tmp_path / "net.model"
        save_model(random_net(0), path, metadata={"v": 1})
        before = path.read_bytes()
        monkeypatch.setattr(mio.np.lib.format, "write_array", _failing_write_array)
        with pytest.raises(RuntimeError, match="interrupted"):
            save_model(random_net(1), path, metadata={"v": 2})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.model"]
        monkeypatch.undo()
        assert load_model(path)[1] == {"v": 1}

    def test_report_write_interrupted(self, tmp_path, monkeypatch):
        path = tmp_path / "child.report.json"
        save_report_json(sample_report(), path)
        before = path.read_bytes()
        monkeypatch.setattr(mio.json, "dump", _failing_dump)
        with pytest.raises(RuntimeError, match="interrupted"):
            save_report_json(sample_report(acc_post_morph=0.5), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["child.report.json"]
        monkeypatch.undo()
        assert load_report_json(path) == sample_report()

    def test_completed_write_replaces_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "child.report.json"
        save_report_json(sample_report(), path)
        save_report_json(sample_report(acc_post_morph=0.5), path)
        assert load_report_json(path).acc_post_morph == 0.5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["child.report.json"]
