"""Serialization, IDX ingestion, synthetic data, and report CSV tests."""

import base64
import csv
import dataclasses
import gzip
import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from morphkit import io as mio
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
from morphkit.morph import MorphReport
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

    def test_writes_schema_2_base64(self, tmp_path):
        net = random_net(5, bias=False)
        path = tmp_path / "net.model"
        save_model(net, path, metadata={"note": "readable"})
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 2
        assert doc["metadata"] == {"note": "readable"}
        first = doc["layers"][0]
        assert (first["in"], first["out"], first["activation"], first["bias"]) == (4, 6, "relu", None)
        raw = base64.b64decode(first["weights"], validate=True)
        np.testing.assert_array_equal(np.frombuffer(raw, "<f8").reshape(4, 6), net.layers[0].weight)

    def test_hand_written_v1_loads_bit_exact(self, tmp_path):
        # schema 1, as written before base64 arrays: nested lists of repr floats
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
        path = tmp_path / "old.model"
        path.write_text(text)
        net, meta = load_model(path)
        assert meta == {"seed": 3}
        want = [
            [[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.2250738585072014e-308, -1e-310]],
            [[1.5], [-1.7976931348623157e308], [2.0]],
        ]
        for layer, w in zip(net.layers, want):
            assert layer.weight.tobytes() == np.array(w).tobytes()
        assert net.layers[0].bias.tobytes() == np.array([0.30000000000000004, -0.0, 1.0]).tobytes()
        assert net.layers[1].bias is None
        assert [layer.activation for layer in net.layers] == ["tanh", "identity"]

    def test_unknown_metadata_keys_survive(self, tmp_path):
        net = random_net(3)
        path = tmp_path / "net.model"
        save_model(net, path, metadata={"custom": {"deep": [1, 2]}, "x": "y"})
        _, meta = load_model(path)
        assert meta["custom"] == {"deep": [1, 2]}
        assert meta["x"] == "y"

    def test_truncated_file(self, tmp_path):
        net = random_net(4)
        path = tmp_path / "net.model"
        save_model(net, path)
        data = path.read_text()
        path.write_text(data[: len(data) // 2])
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(path)

    @pytest.mark.parametrize("version", [0, 3, 99])
    def test_version_mismatch(self, tmp_path, version):
        path = tmp_path / "net.model"
        path.write_text(json.dumps({"schema_version": version, "layers": []}))
        with pytest.raises(ModelFormatError, match="schema_version"):
            load_model(path)

    def test_missing_field_names_path(self, tmp_path):
        doc = {
            "schema_version": 1,
            "layers": [{"in": 2, "out": 2, "activation": "relu", "weights": [[1, 0], [0, 1]]}],
        }
        path = tmp_path / "net.model"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"layers\[0\].*bias"):
            load_model(path)

    def test_shape_mismatch_reported(self, tmp_path):
        doc = {
            "schema_version": 1,
            "layers": [
                {"in": 3, "out": 2, "activation": "relu", "weights": [[1, 0], [0, 1]], "bias": None}
            ],
        }
        path = tmp_path / "net.model"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="weights"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("weights", "not*base64", "not valid base64"),
            ("weights", "AAA", "not valid base64"),  # padding missing
            ("weights", "AAAA\u00e9AAA", "not valid base64"),  # not ASCII
            ("weights", base64.b64encode(bytes(8 * 5)).decode(), "40 bytes, expected 48"),
            ("weights", base64.b64encode(bytes(8 * 7)).decode(), "56 bytes, expected 48"),
            ("bias", base64.b64encode(bytes(8 * 2)).decode(), "16 bytes, expected 24"),
            ("bias", "", "0 bytes, expected 24"),
            ("weights", [[0.0] * 3] * 2, "expected a base64 string, got list"),
            ("bias", [0.0, 0.0, 0.0], "expected a base64 string, got list"),
            ("bias", 0, "expected a base64 string, got int"),
        ],
    )
    def test_bad_v2_array_names_field(self, tmp_path, field, value, message):
        path = tmp_path / "net.model"
        save_model(Mlp([Layer(np.ones((2, 3)), np.ones(3), "relu")]), path)
        doc = json.loads(path.read_text())
        doc["layers"][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=rf"layers\[0\]\.{field}: {message}"):
            load_model(path)

    @pytest.mark.parametrize("width", [0, -2, "3", 2.0, None])
    def test_declared_width_must_be_positive_integer(self, tmp_path, width):
        path = tmp_path / "net.model"
        save_model(Mlp([Layer(np.ones((2, 3)), None, "relu")]), path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["in"] = width
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"layers\[0\]\.in: expected a positive integer"):
            load_model(path)


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


@st.composite
def mlps(draw):
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    layers = []
    for d_in, d_out in zip(widths, widths[1:]):
        weight = draw(hnp.arrays(np.float64, (d_in, d_out), elements=FINITE))
        bias = draw(st.none() | hnp.arrays(np.float64, d_out, elements=FINITE))
        layers.append(Layer(weight, bias, draw(st.sampled_from(ACTIVATION_KINDS))))
    return Mlp(layers)


def float_or_nan_equal(a, b) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and (struct.pack("<d", a) == struct.pack("<d", b)
                                   if isinstance(a, float) else a == b)


class TestGeneratedRoundTrips:
    """Any finite float64, -0.0 and subnormals included, survives a file."""

    @settings(max_examples=60, deadline=None)
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
        assert data.num_classes == 10

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


class TestGeneratorPins:
    """The dataset cache serves a stored split as a fresh draw, so a change
    to what a generator draws must come with a new DATASET_CACHE_FORMAT."""

    @pytest.mark.parametrize("draw,digest", [
        (lambda: synth_dataset(3, 50, 6, 3),
         "f24cb8ce1dc1ad119d606b707efe27bfbe1f66aac8bf03c9533cb8cfa92a2d8e"),
        (lambda: synth_lowrank_dataset(5, 40, d=20, classes=4, side_dims=3),
         "7eda6967a7089d8702659c342dfb542085dd3d9e8dfb3e55957c2eb45bbc9791"),
    ], ids=["synth", "lowrank"])
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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.npys"]

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


def _failing_dump(doc, fh, **kw):
    fh.write('{"partial": ')
    raise RuntimeError("interrupted mid-write")


class TestAtomicWrites:
    """An interrupted write leaves the previous file and no temporary."""

    def test_model_write_interrupted(self, tmp_path, monkeypatch):
        path = tmp_path / "net.model"
        save_model(random_net(0), path, metadata={"v": 1})
        before = path.read_bytes()
        monkeypatch.setattr(mio.json, "dump", _failing_dump)
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
