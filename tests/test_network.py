"""Network tests: activations, initialization, forward taps, training."""

import copy
import importlib
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from morphkit.errors import (
    MorphkitError, NotFiniteError, OutOfRangeError, ShapeError, TrainingDivergedError,
)
from morphkit.io import Dataset, synth_dataset
from morphkit.morph import prepare_probe
from morphkit.network import (
    ACTIVATION_KINDS,
    Layer,
    Mlp,
    TrainConfig,
    _activate,
    _copied,
    _layer_outputs,
    evaluate,
    forward,
    init_weights,
    loss_and_gradients,
    train_sgd,
)
from morphkit.verify import (
    _layer_bytes, _reference_sgd, check_trainer_reference, gradient_check, random_mlp,
)


class TestLayer:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_non_finite_entry_is_not_finite_error(self, part, value):
        weight, bias = np.ones((2, 3)), np.ones(3)
        (weight if part == "weight" else bias)[0] = value
        with pytest.raises(NotFiniteError, match=f"^layer {part}: contains non-finite entries$"):
            Layer(weight, bias, "relu")


class TestActivations:
    def test_relu_example(self):
        np.testing.assert_array_equal(
            _activate("relu", np.array([[-1.0, 2.0]])), [[0.0, 2.0]]
        )

    def test_zero_values(self):
        assert _activate("tanh", np.zeros((1, 1)))[0, 0] == 0.0
        assert _activate("sigmoid", np.zeros((1, 1)))[0, 0] == 0.5

    def test_relu_absolute_value_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7))
        lhs = _activate("relu", x) + _activate("relu", -x)
        np.testing.assert_allclose(lhs, np.abs(x), atol=1e-12)

    def test_monotone_and_bounded(self):
        x = np.concatenate([[-800.0], np.linspace(-30, 30, 4001), [800.0]]).reshape(1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ACTIVATION_KINDS:
                y = _activate(kind, x)
                assert (np.diff(y[0]) >= 0).all(), kind
                # the training step's in-place path gives the same bits
                assert _activate(kind, x.copy(), in_place=True).tobytes() == y.tobytes(), kind
            s = _activate("sigmoid", x)[0]
        assert (_activate("relu", x) >= 0).all()
        # exp(800) overflows without a warning, so sigmoid saturates exactly
        assert (s[0], s[-1]) == (0.0, 1.0)
        assert (s[1:-1] > 0).all() and (s[1:-1] < 1).all()
        # tanh saturates to exactly +-1.0 in float64 beyond |x| ~ 19
        t = _activate("tanh", np.linspace(-15, 15, 4001).reshape(1, -1))
        assert (t > -1).all() and (t < 1).all()

    def test_positive_homogeneity_holds_for_relu_and_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6))
        for s in (0.0, 0.3, 2.5):
            for kind in ("relu", "identity"):
                np.testing.assert_allclose(
                    _activate(kind, s * x),
                    s * _activate(kind, x),
                    atol=1e-12,
                )

    def test_positive_homogeneity_fails_for_sigmoid_and_tanh(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6))
        s = 2.5
        for kind in ("sigmoid", "tanh"):
            lhs = _activate(kind, s * x)
            rhs = s * _activate(kind, x)
            assert np.abs(lhs - rhs).max() > 1e-3, kind

    def test_unknown_kind(self):
        # `Layer` refuses the kind, so `_activate` never sees it
        with pytest.raises(ValueError, match="^unknown activation 'gelu'"):
            Layer(np.zeros((1, 1)), None, "gelu")


class TestInitWeights:
    def test_deterministic(self):
        a = init_weights(10, 8, "relu", seed=42)
        b = init_weights(10, 8, "relu", seed=42)
        np.testing.assert_array_equal(a, b)

    def test_relu_variance(self):
        w = init_weights(100, 4000, "relu", seed=0)
        assert 0.018 <= w.var() <= 0.022

    def test_tanh_variance(self):
        w = init_weights(100, 4000, "tanh", seed=0)
        assert 0.009 <= w.var() <= 0.011


class TestForward:
    def test_identity_layer_passthrough(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 4))
        net = Mlp([Layer(np.eye(4), None, "identity")])
        taps = forward(net, x)
        np.testing.assert_array_equal(taps.pre_activations[0], x)

    def test_two_layer_hand_example(self):
        # x(2x2) -> relu(x W1) -> x W2, checked by hand arithmetic
        w1 = np.array([[1.0, -1.0], [2.0, 1.0]])
        w2 = np.array([[1.0], [1.0]])
        net = Mlp([Layer(w1, None, "relu"), Layer(w2, None, "identity")])
        x = np.array([[1.0, 0.0], [1.0, -1.0]])
        taps = forward(net, x)
        np.testing.assert_array_equal(taps.pre_activations[0], [[1.0, -1.0], [-1.0, -2.0]])
        np.testing.assert_array_equal(taps.activations[0], [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(taps.pre_activations[1], [[1.0], [0.0]])

    def test_taps_consistent(self):
        rng = np.random.default_rng(4)
        net = random_mlp(rng, [5, 7, 4, 3], ["tanh", "relu", "identity"])
        taps = forward(net, rng.normal(size=(9, 5)))
        for k, layer in enumerate(net.layers):
            np.testing.assert_allclose(
                taps.activations[k],
                _activate(layer.activation, taps.pre_activations[k]),
                atol=1e-12,
            )

    def test_row_local(self):
        rng = np.random.default_rng(5)
        net = random_mlp(rng, [4, 6, 2], ["sigmoid", "identity"])
        x = rng.normal(size=(8, 4))
        whole = forward(net, x).activations[-1]
        rows = np.vstack([forward(net, x[i : i + 1]).activations[-1] for i in range(8)])
        np.testing.assert_allclose(whole, rows, atol=1e-12)

    def test_dimension_error_names_layer(self):
        net = Mlp([Layer(np.eye(3), None, "relu")])
        with pytest.raises(ShapeError, match="3"):
            forward(net, np.ones((2, 5)))


CHAIN_RULE = "^layer 0 outputs 3 features but layer 1 expects 5$"


class TestLayerChain:
    def test_broken_chain_refused_at_construction(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ShapeError, match=CHAIN_RULE):
            Mlp([Layer(rng.normal(size=(4, 3)), None, "relu"),
                 Layer(rng.normal(size=(5, 2)), None, "identity")])
        with pytest.raises(ShapeError, match="^an Mlp needs at least one layer$"):
            Mlp([])

    @pytest.mark.parametrize("call", ["forward", "evaluate", "train_sgd", "loss_and_gradients",
                                      "prepare_probe"])
    def test_chain_broken_after_construction_refused(self, call):
        # every entry point that runs the network states the rule as Mlp does
        rng = np.random.default_rng(17)
        net = random_mlp(rng, [4, 3, 3, 2], ["relu", "tanh", "identity"])
        net.layers[1] = Layer(rng.normal(size=(5, 3)), None, "tanh")
        data = synth_dataset(7, 20, 4, 2)
        calls = {
            "forward": lambda: forward(net, data.features),
            "evaluate": lambda: evaluate(net, data),
            "train_sgd": lambda: train_sgd(net, data, TrainConfig(epochs=1)),
            "loss_and_gradients": lambda: loss_and_gradients(net, data.features, data.labels),
            "prepare_probe": lambda: prepare_probe(net, 0, data.features),
        }
        with pytest.raises(ShapeError, match=CHAIN_RULE):
            calls[call]()


class TestDataCheck:
    """`loss_and_gradients` makes the data check of `train_sgd` and
    `evaluate`, which `TestTrainSgd` and `TestEvaluate` cover."""

    def net(self):
        return random_mlp(np.random.default_rng(18), [4, 3, 3], ["relu", "identity"])

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, label):
        with pytest.raises(ShapeError, match=rf"^input: labels must lie in \[0, 3\) for a network "
                                             rf"of 3 outputs; got label {label}$"):
            loss_and_gradients(self.net(), np.ones((4, 4)), np.array([0, 1, label, 2]))

    @pytest.mark.parametrize("labels", [np.array([0, 1, 2]), np.array([[0, 1], [2, 0]]),
                                        np.array([0.0, 1.0, 2.0, 0.0])])
    def test_labels_not_one_integer_per_row(self, labels):
        with pytest.raises(ShapeError, match="^input: labels must be 1-D integers, one per row"):
            loss_and_gradients(self.net(), np.ones((4, 4)), labels)

    def test_no_rows(self):
        with pytest.raises(ShapeError, match="^input: 0 rows, and at least one is needed .*n >= 1"):
            loss_and_gradients(self.net(), np.zeros((0, 4)), np.zeros(0, dtype=int))


class TestGradients:
    def test_4_3_2_net(self):
        rng = np.random.default_rng(6)
        net = random_mlp(rng, [4, 3, 2], ["tanh", "identity"])
        x = rng.normal(size=(6, 4))
        labels = rng.integers(0, 2, size=6)
        gradient_check(net, x, labels)

    @pytest.mark.parametrize(
        "widths,acts",
        [
            ([5, 4, 3], ["relu", "identity"]),
            ([4, 6, 5, 3], ["sigmoid", "tanh", "identity"]),
            ([3, 4, 4, 4, 2], ["relu", "tanh", "sigmoid", "identity"]),
        ],
    )
    def test_deeper_nets(self, widths, acts):
        rng = np.random.default_rng(sum(widths))
        net = random_mlp(rng, widths, acts)
        x = rng.normal(size=(5, widths[0]))
        labels = rng.integers(0, widths[-1], size=5)
        gradient_check(net, x, labels)


def blob_net(rng, d_in, hidden, classes):
    return Mlp(
        [
            Layer(init_weights(d_in, hidden, "relu", 1), np.zeros(hidden), "relu"),
            Layer(init_weights(hidden, classes, "identity", 2), np.zeros(classes), "identity"),
        ]
    )


def layer_bytes(net):
    return [_layer_bytes(l) for l in net.layers]


@st.composite
def training_runs(draw):
    """A net of depth 1-4 and widths 1-12 with any activations, each bias
    present or absent; data whose row count leaves a partial last batch or
    fits in one batch smaller than the batch size; 0-2 epochs, momentum and
    weight decay each zero or positive."""
    depth = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 12), min_size=depth + 1, max_size=depth + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = Mlp([
        Layer(rng.normal(size=(widths[k], widths[k + 1])) / np.sqrt(widths[k]),
              rng.normal(size=widths[k + 1]) * 0.2 if draw(st.booleans()) else None,
              draw(st.sampled_from(ACTIVATION_KINDS)))
        for k in range(depth)
    ])
    n = draw(st.integers(3, 30))
    if draw(st.booleans()):
        batch = n + draw(st.integers(1, 4))
    else:
        batch = draw(st.integers(2, n - 1))
        if n % batch == 0:  # leave a partial last batch
            n += 1
    data = Dataset(rng.normal(size=(n, widths[0])), rng.integers(0, widths[-1], size=n))
    cfg = TrainConfig(learning_rate=draw(st.sampled_from([0.0, 0.05, 0.2])),
                      momentum=draw(st.sampled_from([0.0, 0.9])),
                      weight_decay=draw(st.sampled_from([0.0, 1e-3])),
                      epochs=draw(st.integers(0, 2)), batch_size=batch,
                      seed=draw(st.integers(0, 2**31 - 1)))
    return net, data, cfg


class TestTrainSgd:
    def test_zero_epochs_keeps_weights(self):
        rng = np.random.default_rng(7)
        data = synth_dataset(0, 50, 4, 2)
        net = random_mlp(rng, [4, 3, 2], ["relu", "identity"])
        cfg = TrainConfig(epochs=0, seed=0)
        trained, history = train_sgd(net, data, cfg)
        assert history == []
        for before, after in zip(net.layers, trained.layers):
            np.testing.assert_array_equal(before.weight, after.weight)

    def test_zero_learning_rate_keeps_weights(self):
        rng = np.random.default_rng(8)
        data = synth_dataset(1, 60, 4, 2)
        net = random_mlp(rng, [4, 3, 2], ["relu", "identity"])
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=0)
        trained, history = train_sgd(net, data, cfg)
        assert [row.epoch for row in history] == [1, 2, 3]
        for before, after in zip(net.layers, trained.layers):
            np.testing.assert_allclose(before.weight, after.weight, atol=1e-12)

    def test_input_network_untouched(self):
        rng = np.random.default_rng(9)
        data = synth_dataset(2, 60, 4, 2)
        net = random_mlp(rng, [4, 3, 2], ["relu", "identity"])
        snapshot = copy.deepcopy(net)
        train_sgd(net, data, TrainConfig(epochs=2, learning_rate=0.05, seed=0))
        for before, after in zip(snapshot.layers, net.layers):
            np.testing.assert_array_equal(before.weight, after.weight)

    def test_fits_separable_blobs(self):
        rng = np.random.default_rng(10)
        data = synth_dataset(3, 400, 2, 2)
        net = blob_net(rng, 2, 8, 2)
        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.0, epochs=50, batch_size=32, seed=0)
        _, history = train_sgd(net, data, cfg)
        assert history[-1].accuracy >= 0.99

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(size=(64, 4)) * 50, rng.integers(0, 2, size=64))
        net = random_mlp(rng, [4, 8, 2], ["relu", "identity"])
        cfg = TrainConfig(learning_rate=1e6, momentum=0.0, epochs=50, seed=0)
        with pytest.raises(TrainingDivergedError, match="learning"):
            train_sgd(net, data, cfg)

    def test_learning_rate_beyond_float32_raises_instead_of_returning_inf(self):
        # refused before any cast, so with no overflow warning
        data = synth_dataset(6, 40, 4, 2)
        net = random_mlp(np.random.default_rng(16), [4, 3, 2], ["relu", "identity"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match=r"^learning_rate: 1e\+39 is beyond "
                                                      r"3.40282e\+38, the largest finite float32"):
                train_sgd(net, data, TrainConfig(learning_rate=1e39, epochs=1, batch_size=64))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_weight_decay_beyond_float32_is_refused_up_front(self, epochs):
        data = synth_dataset(6, 40, 4, 2)
        net = random_mlp(np.random.default_rng(16), [4, 3, 2], ["relu", "identity"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match=r"^weight_decay: 4e\+38 is beyond "
                                                      r"3.40282e\+38, the largest finite float32"):
                train_sgd(net, data, TrainConfig(weight_decay=4e38, epochs=epochs))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_that_overflows_the_weights_raises_instead_of_returning_inf(self):
        # a float32 learning rate whose one step, which no later loss
        # checks, takes the weights past float32's range
        data = synth_dataset(6, 40, 4, 2)
        net = random_mlp(np.random.default_rng(16), [4, 3, 2], ["relu", "identity"])
        with pytest.raises(TrainingDivergedError, match="^a weight became non-finite at epoch 1; "
                                                        "the learning rate 3e[+]38 "):
            train_sgd(net, data, TrainConfig(learning_rate=3e38, epochs=1, batch_size=64))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_feature_beyond_float32_is_refused_up_front(self, epochs):
        data = synth_dataset(6, 40, 4, 2)
        data.features[7, 1] = -1e39
        net = random_mlp(np.random.default_rng(17), [4, 3, 2], ["relu", "identity"])
        with pytest.raises(OutOfRangeError, match=r"^training features: an entry of magnitude "
                                                  r"1e\+39 is beyond 3.40282e\+38, the largest"):
            train_sgd(net, data, TrainConfig(learning_rate=0.0, epochs=epochs))

    @pytest.mark.parametrize("field", ["weight", "bias"])
    def test_parameter_beyond_float32_is_refused_up_front(self, field):
        data = synth_dataset(6, 40, 4, 2)
        net = random_mlp(np.random.default_rng(18), [4, 3, 2], ["relu", "identity"])
        getattr(net.layers[1], field)[1] = 4e38
        with pytest.raises(OutOfRangeError, match=f"^layer 1 {field}: an entry of magnitude "
                                                  r"4e\+38 is beyond 3.40282e\+38"):
            train_sgd(net, data, TrainConfig(learning_rate=0.0, epochs=1))

    def test_split_is_cast_one_batch_at_a_time(self):
        # a float32 copy of this 6000x784 split would take 18.8 MB; the peak
        # of what training allocates must stay well under it
        rng = np.random.default_rng(20)
        data = Dataset(rng.normal(size=(6000, 784)), rng.integers(0, 10, size=6000))
        net = Mlp([Layer(init_weights(784, 64, "relu", 1), np.zeros(64), "relu"),
                   Layer(init_weights(64, 10, "identity", 2), np.zeros(10), "identity")])
        cfg = TrainConfig(epochs=1, batch_size=48)
        tracemalloc.start()
        try:
            train_sgd(net, data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * data.features.size * 4, f"peak {peak / 2**20:.1f} MiB"

    def test_float32_split_is_trained_on_in_place(self):
        # neither a float64 copy (37.6 MB) nor a float32 one (18.8 MB) of
        # this float32 split: the peak of what training allocates stays well
        # under the split's own size
        rng = np.random.default_rng(20)
        data = Dataset(rng.normal(size=(6000, 784)).astype(np.float32),
                       rng.integers(0, 10, size=6000))
        assert data.features.dtype == np.float32
        net = Mlp([Layer(init_weights(784, 64, "relu", 1), np.zeros(64), "relu"),
                   Layer(init_weights(64, 10, "identity", 2), np.zeros(10), "identity")])
        cfg = TrainConfig(epochs=1, batch_size=48)
        tracemalloc.start()
        try:
            train_sgd(net, data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * data.features.nbytes, f"peak {peak / 2**20:.1f} MiB"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(run=training_runs())
    def test_float32_rounding_of_a_split_trains_to_the_same_bytes(self, run):
        net, data, cfg = run
        rounded = Dataset(data.features.astype(np.float32), data.labels)
        assert rounded.features.dtype == np.float32
        trained, history = train_sgd(net, rounded, cfg)
        want, want_history = train_sgd(net, data, cfg)
        assert layer_bytes(trained) == layer_bytes(want)
        assert history == want_history

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_loop(self, seed):
        assert check_trainer_reference(seed) == 5

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(run=training_runs())
    def test_matches_reference_loop_on_generated_nets(self, run):
        net, data, cfg = run
        trained, history = train_sgd(net, data, cfg)
        want, want_history = _reference_sgd(net, data, cfg)
        assert layer_bytes(trained) == layer_bytes(want)
        assert history == want_history
        assert all(type(v) is float for row in history for v in (row.loss, row.accuracy))

    def test_one_forward_backward_and_update_call_per_layer_and_step(self, monkeypatch):
        # bottom up forward; top down, each layer's backward then its update
        network = importlib.import_module("morphkit.network")
        net = random_mlp(np.random.default_rng(21), [4, 5, 6, 3], ["relu", "tanh", "identity"])
        data = synth_dataset(9, 20, 4, 3)
        cfg = TrainConfig(epochs=2, batch_size=10, seed=0)
        want, _ = train_sgd(net, data, cfg)
        calls = []
        for name in ("_forward_layer", "_backward_layer", "_update_layer"):
            original = getattr(network, name)
            monkeypatch.setattr(network, name, lambda layer, *a, _name=name, _fn=original:
                                calls.append((_name, layer.d_in)) or _fn(layer, *a))
        trained, _ = train_sgd(net, data, cfg)
        step = ([("_forward_layer", d) for d in (4, 5, 6)]
                + [(name, d) for d in (6, 5, 4) for name in ("_backward_layer", "_update_layer")])
        assert calls == step * 4  # 2 epochs of 2 steps
        assert layer_bytes(trained) == layer_bytes(want)

    def test_features_are_read_once_for_both_checks(self, monkeypatch):
        # the finiteness check and the float32 range rule share one sum of squares
        network, linalg = (importlib.import_module(f"morphkit.{m}") for m in ("network", "linalg"))
        data = synth_dataset(6, 60, 4, 2)
        reads = []
        original = linalg.sum_of_squares
        for module in (network, linalg):
            monkeypatch.setattr(module, "sum_of_squares",
                                lambda arr: reads.append(arr is data.features) or original(arr))
        train_sgd(random_mlp(np.random.default_rng(14), [4, 3, 2], ["relu", "identity"]),
                  data, TrainConfig(epochs=1, seed=0))
        assert reads.count(True) == 1

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_logs_one_info_line_per_epoch(self, caplog, epochs):
        data = synth_dataset(6, 60, 4, 2)
        net = random_mlp(np.random.default_rng(14), [4, 3, 2], ["relu", "identity"])
        with caplog.at_level(logging.INFO, logger="morphkit.network"):
            _, history = train_sgd(net, data, TrainConfig(epochs=epochs, seed=0))
        lines = [r.getMessage() for r in caplog.records if r.name == "morphkit.network"]
        assert len(lines) == epochs
        for row, line in zip(history, lines):
            assert line.startswith(f"epoch {row.epoch} of {epochs}: loss {row.loss:.6g}, "
                                   f"accuracy {row.accuracy:.4f}, "), line
            assert line.endswith(" s"), line

    def test_data_checked_once(self, monkeypatch):
        # one check over every row up front; no evaluate and no checked
        # forward pass, so the mini-batches run unchecked
        network = importlib.import_module("morphkit.network")
        checks = []
        checked = network._checked_input
        monkeypatch.setattr(network, "_checked_input",
                            lambda mlp, x, name, *rest: checks.append((x, name))
                            or checked(mlp, x, name, *rest))
        for name in ("evaluate", "forward"):
            monkeypatch.setattr(network, name, lambda *a, _name=name: pytest.fail(f"{_name} called"))
        data = synth_dataset(6, 60, 4, 2)
        train_sgd(random_mlp(np.random.default_rng(14), [4, 3, 2], ["relu", "identity"]),
                  data, TrainConfig(epochs=2, batch_size=16, seed=0))
        assert [(x is data.features, name) for x, name in checks] == [(True, "training features")]

    def test_non_finite_feature_names_the_training_features(self):
        data = synth_dataset(6, 60, 4, 2)
        data.features[17, 2] = np.nan
        net = random_mlp(np.random.default_rng(14), [4, 3, 2], ["relu", "identity"])
        with pytest.raises(NotFiniteError, match="^training features: contains non-finite entries$"):
            train_sgd(net, data, TrainConfig(epochs=1, seed=0))

    def test_empty_training_data_rejected(self):
        net = random_mlp(np.random.default_rng(15), [4, 3, 2], ["relu", "identity"])
        with pytest.raises(ShapeError, match="^training features: 0 rows, and at least one is "
                                             "needed .*n >= 1"):
            train_sgd(net, Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int)), TrainConfig())

    def test_label_range_checked(self):
        net = random_mlp(np.random.default_rng(15), [4, 3, 2], ["relu", "identity"])
        data = Dataset(np.ones((3, 4)), np.array([0, 2, 1]))
        with pytest.raises(ShapeError, match=r"^training features: labels must lie in \[0, 2\) "
                                             r"for a network of 2 outputs; got label 2$"):
            train_sgd(net, data, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["learning_rate", "momentum", "weight_decay"])
    def test_non_finite_value_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            TrainConfig(**{name: value})


class TestTrainAbove:
    """`train_sgd` with `frozen` layers: the fine-tune of the layers above
    an insertion."""

    @staticmethod
    def frozen_outputs(net, k, features):
        """The outputs of float32 copies of the first `k` layers on the
        float32 rounding of `features`, in one pass."""
        lower = _copied(Mlp(net.layers[:k]), np.float32)
        return _layer_outputs(lower, features.astype(np.float32))[-1]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(run=training_runs(), data=st.data())
    def test_trains_the_upper_layers_on_the_frozen_outputs(self, run, data):
        net, split, cfg = run
        assume(len(net.layers) >= 2)
        k = data.draw(st.integers(1, len(net.layers) - 1))
        snapshot = layer_bytes(net)
        tuned, history = train_sgd(net, split, cfg, k)
        upper, want_history = train_sgd(
            Mlp(net.layers[k:]), Dataset(self.frozen_outputs(net, k, split.features),
                                         split.labels), cfg)
        assert layer_bytes(tuned) == snapshot[:k] + layer_bytes(upper)
        assert history == want_history
        assert layer_bytes(net) == snapshot
        assert all(a.dtype == np.float64 for l in tuned.layers for a in (l.weight, l.bias)
                   if a is not None)

    def test_without_frozen_layers_or_epochs_it_is_train_sgd(self):
        net = random_mlp(np.random.default_rng(22), [4, 5, 6, 3], ["relu", "tanh", "identity"])
        data = synth_dataset(9, 40, 4, 3)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=1)
        want, want_history = train_sgd(net, data, cfg)
        tuned, history = train_sgd(net, data, cfg, 0)
        assert layer_bytes(tuned) == layer_bytes(want) and history == want_history
        for k in (1, 2):
            tuned, history = train_sgd(net, data, TrainConfig(epochs=0), k)
            assert layer_bytes(tuned) == layer_bytes(net) and history == []

    @pytest.mark.parametrize("k", [-1, 3])
    def test_must_leave_a_layer_to_train(self, k):
        net = random_mlp(np.random.default_rng(22), [4, 5, 6, 3], ["relu", "tanh", "identity"])
        with pytest.raises(ValueError, match=r"^frozen must lie in \[0, 3\)"):
            train_sgd(net, synth_dataset(9, 40, 4, 3), TrainConfig(epochs=1), k)

    def test_float64_split_and_its_float32_rounding_give_the_same_bytes(self):
        # 3,000 rows of 200 features are three blocks of the frozen pass
        rng = np.random.default_rng(23)
        data = Dataset(rng.normal(size=(3000, 200)), rng.integers(0, 3, size=3000))
        rounded = Dataset(data.features.astype(np.float32), data.labels)
        net = random_mlp(rng, [200, 8, 6, 3], ["relu", "relu", "identity"])
        cfg = TrainConfig(epochs=1, batch_size=256, seed=2)
        tuned, history = train_sgd(net, data, cfg, 1)
        want, want_history = train_sgd(net, rounded, cfg, 1)
        assert layer_bytes(tuned) == layer_bytes(want) and history == want_history

    def test_split_is_cast_one_block_at_a_time(self):
        # a float32 copy of this 6000x784 split would take 18.8 MB; the peak
        # of what a frozen fine-tune allocates must stay well under it
        rng = np.random.default_rng(20)
        data = Dataset(rng.normal(size=(6000, 784)), rng.integers(0, 10, size=6000))
        net = Mlp([Layer(init_weights(784, 64, "relu", 1), np.zeros(64), "relu"),
                   Layer(init_weights(64, 32, "relu", 2), np.zeros(32), "relu"),
                   Layer(init_weights(32, 10, "identity", 3), np.zeros(10), "identity")])
        tracemalloc.start()
        try:
            train_sgd(net, data, TrainConfig(epochs=1, batch_size=48), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * data.features.size * 4, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("where", ["layer 0 weight", "layer 0 bias", "layer 2 weight",
                                       "learning_rate", "feature", "label", "width"])
    def test_refuses_what_train_sgd_refuses_with_its_message(self, where):
        # the checks of the frozen part run as in a fine-tune of every layer
        rng = np.random.default_rng(24)
        net = random_mlp(rng, [4, 5, 6, 3], ["relu", "tanh", "identity"])
        data = synth_dataset(9, 40, 4, 3)
        cfg = TrainConfig(epochs=1)
        if where.startswith("layer"):
            _, k, field = where.split()
            getattr(net.layers[int(k)], field)[1] = 4e38
        elif where == "learning_rate":
            cfg = TrainConfig(learning_rate=1e39, epochs=1)
        elif where == "feature":
            data.features[3, 1] = -1e39
        elif where == "label":
            data.labels[5] = 3
        else:
            data = synth_dataset(9, 40, 5, 3)
        with pytest.raises(MorphkitError) as want:
            train_sgd(net, data, cfg, 0)
        with pytest.raises(type(want.value)) as got:
            train_sgd(net, data, cfg, 2)
        assert str(got.value) == str(want.value)
        if where.startswith("layer"):
            assert isinstance(got.value, OutOfRangeError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_frozen_outputs_beyond_float32_are_refused(self):
        net = random_mlp(np.random.default_rng(25), [4, 5, 3], ["relu", "identity"])
        net.layers[0].weight[:] = 3e38
        data = synth_dataset(9, 40, 4, 3)
        data.features[:] = np.abs(data.features) + 1.0
        with pytest.raises(OutOfRangeError, match="^layer 0 outputs: not finite in float32"):
            train_sgd(net, data, TrainConfig(epochs=1), 1)


class TestEvaluate:
    def test_perfect_net(self):
        labels = np.array([0, 1, 2, 1])
        onehot = np.eye(3)[labels] * 10.0
        net = Mlp([Layer(np.eye(3), None, "identity")])
        data = Dataset(onehot, labels)
        loss, acc = evaluate(net, data)
        assert acc == 1.0
        assert loss < 1e-3

    def test_constant_output_matches_direct_count(self):
        rng = np.random.default_rng(12)
        data = synth_dataset(4, 200, 5, 10)
        net = Mlp([Layer(np.zeros((5, 10)), np.arange(10.0), "identity")])
        _, acc = evaluate(net, data)
        expected = (data.labels == 9).mean()  # argmax always lands on class 9
        assert acc == pytest.approx(expected)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(13)
        data = synth_dataset(5, 80, 4, 3)
        net = blob_net(rng, 4, 6, 3)
        loss_a, acc_a = evaluate(net, data)
        perm = rng.permutation(80)
        loss_b, acc_b = evaluate(net, Dataset(data.features[perm], data.labels[perm]))
        assert acc_a == acc_b
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    def test_empty_dataset(self):
        net = Mlp([Layer(np.eye(2), None, "identity")])
        with pytest.raises(ShapeError, match="^evaluation features: 0 rows"):
            evaluate(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))

    def test_label_range_checked(self):
        net = Mlp([Layer(np.eye(2), None, "identity")])
        with pytest.raises(ShapeError, match=r"must lie in \[0, 2\) .* got label 5$"):
            evaluate(net, Dataset(np.zeros((3, 2)), np.array([0, 1, 5])))

    def test_non_finite_feature_names_the_evaluation_features(self):
        net = Mlp([Layer(np.eye(2), None, "identity")])
        with pytest.raises(NotFiniteError, match="^evaluation features: contains non-finite"):
            evaluate(net, Dataset(np.array([[0.0, 1.0], [np.inf, 0.0]]), np.array([0, 1])))

    def test_float32_input_is_computed_in_float64(self):
        # evaluate, loss_and_gradients and prepare_probe give the bits of
        # the same call on the float64 cast of float32 input
        rng = np.random.default_rng(23)
        net = random_mlp(rng, [6, 7, 5, 3], ["relu", "tanh", "identity"])
        x32 = rng.normal(size=(40, 6)).astype(np.float32)
        x64 = x32.astype(np.float64)
        labels = rng.integers(0, 3, size=40)
        assert evaluate(net, Dataset(x32, labels)) == evaluate(net, Dataset(x64, labels))
        loss32, grads32 = loss_and_gradients(net, x32, labels)
        loss64, grads64 = loss_and_gradients(net, x64, labels)
        assert np.float64(loss32).tobytes() == np.float64(loss64).tobytes()
        for (dw32, db32), (dw64, db64) in zip(grads32, grads64):
            assert dw32.dtype == np.float64 and dw32.tobytes() == dw64.tobytes()
            assert db32.tobytes() == db64.tobytes()
        for at in (0, 1):
            got, want = prepare_probe(net, at, x32), prepare_probe(net, at, x64)
            for a, b in ((got.a1, want.a1), (got.downstream_pre, want.downstream_pre)):
                assert a.dtype == np.float64 and a.tobytes() == b.tobytes()
            assert got.parent_digest == want.parent_digest

    def test_data_checked_once_without_forward(self, monkeypatch):
        # one check, then the unchecked pass that keeps no pre-activation
        network = importlib.import_module("morphkit.network")
        checks, passes = [], []
        checked, outputs = network._checked_input, network._layer_outputs
        monkeypatch.setattr(network, "_checked_input",
                            lambda mlp, x, name, *rest: checks.append((x, name))
                            or checked(mlp, x, name, *rest))
        monkeypatch.setattr(network, "_layer_outputs",
                            lambda mlp, x: passes.append(x) or outputs(mlp, x))
        monkeypatch.setattr(network, "forward", lambda *a: pytest.fail("forward called"))
        data = synth_dataset(8, 40, 4, 3)
        net = random_mlp(np.random.default_rng(19), [4, 5, 3], ["relu", "identity"])
        loss, accuracy = evaluate(net, data)
        assert [(x is data.features, name) for x, name in checks] == [(True, "evaluation features")]
        assert len(passes) == 1
        # the bits of the checked forward pass that keeps every tap
        monkeypatch.undo()
        logits = forward(net, data.features).activations[-1]
        log_probs = logits - logits.max(axis=1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        assert loss == -float(log_probs[np.arange(40), data.labels].mean())
        assert accuracy == float((logits.argmax(axis=1) == data.labels).mean())
