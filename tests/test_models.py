import numpy as np
import pytest

from lognet import (
    ConfigError,
    Dataset,
    DenseStack,
    ShapeError,
    TrainConfig,
    TrainingError,
    ValidationError,
    count_params,
    dnn_hidden_widths,
    forward,
    gradient_check,
    init_dnn,
    model_size_bytes,
    train_dnn,
    train_softmax,
)
from lognet.gates import GateType, LogicEncoderConfig
from lognet.models import BYTES_PER_PARAM, dnn_hidden_activations, softmax
from lognet import pipeline
from lognet.pipeline import DnnClassifier, LogNetClassifier


def _accuracy(model, X, labels):
    probs = forward(model, X)
    preds = np.asarray(model.class_labels)[np.argmax(probs, axis=1)]
    return (preds == np.asarray(labels)).mean()


class TestSoftmaxForward:
    def test_zero_model_is_uniform(self):
        m = DenseStack(((np.zeros((5, 4)), np.zeros(4)),), (0, 1, 2, 3))
        probs = forward(m, np.ones(5))
        np.testing.assert_allclose(probs, 0.25)

    def test_bias_only_closed_form(self):
        # softmax([ln 2, 0]) = [2/3, 1/3].
        m = DenseStack(((np.zeros((3, 2)), np.array([np.log(2.0), 0.0])),), (0, 1))
        probs = forward(m, np.zeros(3))
        np.testing.assert_allclose(probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = DenseStack(((rng.normal(size=(8, 6)), rng.normal(size=6)),), tuple(range(6)))
        probs = forward(m, rng.uniform(size=(40, 8)))
        assert probs.min() >= 0.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_shift_invariant(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(30, 7))
        assert np.array_equal(
            np.argmax(softmax(logits), axis=1), np.argmax(softmax(logits + 123.0), axis=1)
        )

    def test_dimension_mismatch(self):
        m = DenseStack(((np.zeros((5, 2)), np.zeros(2)),), (0, 1))
        with pytest.raises(ShapeError):
            forward(m, np.zeros(4))

    def test_extreme_logits_stay_finite(self):
        m = DenseStack(((np.array([[1000.0, -1000.0]]), np.zeros(2)),), (0, 1))
        probs = forward(m, np.array([1.0]))
        assert np.all(np.isfinite(probs)) and probs.sum() == pytest.approx(1.0)


class TestTrainSoftmax:
    def test_complementary_one_bit_latents_reach_full_accuracy(self):
        X = [np.array([1.0]), np.array([0.0])]
        model, history = train_softmax(X, [0, 1], TrainConfig(epochs=150, learning_rate=0.01))
        assert _accuracy(model, np.stack(X), [0, 1]) == 1.0
        assert len(history) == 150

    def test_single_class_converges_to_certainty(self):
        model, history = train_softmax([np.array([1.0, 0.0])], [7], TrainConfig(epochs=150))
        assert forward(model, np.array([1.0, 0.0]))[0] == pytest.approx(1.0)
        assert abs(history[-1]) < 1e-9

    def test_conflicting_labels_converge_to_even_split(self):
        X = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        model, _ = train_softmax(X, [0, 1], TrainConfig(epochs=400))
        np.testing.assert_allclose(forward(model, X[0]), [0.5, 0.5], atol=1e-3)

    def test_empty_training_set(self):
        with pytest.raises(TrainingError):
            train_softmax(np.empty((0, 4)), [], TrainConfig(epochs=1))

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [False, True], np.array([0.0, 1.0])])
    def test_labels_that_are_no_integers_are_rejected(self, labels):
        with pytest.raises(ValidationError, match="^labels must be integers, got "):
            train_softmax(np.eye(2), labels, TrainConfig(epochs=1))
        with pytest.raises(ValidationError, match="^class_labels must be integers, got "):
            train_softmax(np.eye(2), [0, 1], TrainConfig(epochs=1), class_labels=labels)
        with pytest.raises(ValidationError, match="^class_labels must be integers, got "):
            DenseStack(((np.zeros((2, 2)), np.zeros(2)),), labels)

    def test_label_missing_from_class_set(self):
        with pytest.raises(ValidationError):
            train_softmax([np.array([1.0])], [5], TrainConfig(epochs=1), class_labels=(0, 1))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, (30, 8)).astype(np.float64)
        y = rng.integers(0, 3, 30)
        a, ha = train_softmax(X, y, TrainConfig(epochs=40, seed=11, batch_size=8))
        b, hb = train_softmax(X, y, TrainConfig(epochs=40, seed=11, batch_size=8))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert ha == hb


class TestDnnModel:
    def test_hidden_widths_halve(self):
        assert dnn_hidden_widths(164, 2) == [164, 82, 41]
        assert dnn_hidden_widths(5, 3) == [5, 3, 2, 1]

    @pytest.mark.parametrize("bad,rule", [(-1, "non-negative"), ("a", "an integer"),
                                          (1.5, "an integer"), (True, "an integer")],
                             ids=["-1", "str", "1.5", "True"])
    def test_init_seed_takes_the_settings_seed_rule(self, bad, rule):
        with pytest.raises(ConfigError, match=f"^seed must be {rule}, got {bad!r}$"):
            init_dnn(4, 1, (0, 1), bad)

    @pytest.mark.parametrize("bad", ["a", 2.5, True, 0], ids=["str", "2.5", "True", "0"])
    def test_input_dim_that_is_no_positive_integer_names_it(self, bad):
        with pytest.raises(ValidationError, match="^input_dim must be a positive integer, got "):
            dnn_hidden_widths(bad, 1)

    def test_halving_rule_enforced(self):
        layers = ((np.zeros((8, 3)), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2)))
        with pytest.raises(ValidationError):
            DenseStack(layers, (0, 1))

    def test_zero_model_uniform(self):
        layers = ((np.zeros((4, 2)), np.zeros(2)), (np.zeros((2, 3)), np.zeros(3)))
        m = DenseStack(layers, (0, 1, 2))
        np.testing.assert_allclose(forward(m, np.ones(4)), 1 / 3)

    def test_relu_clips_negative_preactivation(self):
        # One hidden neuron: w=1, bias=-0.3, input 0.2 -> relu(-0.1) = 0.
        layers = ((np.array([[1.0]]), np.array([-0.3])), (np.ones((1, 2)), np.zeros(2)))
        m = DenseStack(layers, (0, 1))
        assert dnn_hidden_activations(m, np.array([[0.2]]))[0, 0] == 0.0
        assert dnn_hidden_activations(m, np.array([[0.5]]))[0, 0] == pytest.approx(0.2)

    def test_identity_chain_passes_logit_through(self):
        # Logits (0.7, 0) after an identity hidden layer: log(p0 / p1) recovers 0.7.
        layers = ((np.array([[1.0]]), np.zeros(1)), (np.array([[1.0, 0.0]]), np.zeros(2)))
        m = DenseStack(layers, (0, 1))
        p0, p1 = forward(m, np.array([0.7]))
        assert np.log(p0 / p1) == pytest.approx(0.7)

    def test_shape_mismatch(self):
        m = init_dnn(6, 1, (0, 1), seed=0)
        with pytest.raises(ShapeError):
            forward(m, np.zeros(5))


def _ci0(labels, rows) -> Dataset:
    """A dataset of one row per label, all from one device at CI:0."""
    return Dataset.from_columns(labels, ["d"] * len(labels), [0] * len(labels), rows)


def _xor_dataset():
    xy = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
    return _ci0(np.repeat([0, 0, 1, 1], 3), np.repeat(xy, 3, axis=0))


class TestTrainDnn:
    def test_xor_exceeds_single_hidden_unit_capacity(self):
        # Input dim 2 halves to one hidden ReLU, which cannot realize the
        # exclusive-or labeling; 75% is the best achievable split.
        ds = _xor_dataset()
        best = 0.0
        for seed in range(4):
            m, _ = train_dnn(ds, 1, TrainConfig(epochs=400, seed=seed))
            probs = forward(m, ds.rss_matrix())
            preds = np.asarray(m.class_labels)[np.argmax(probs, axis=1)]
            best = max(best, (preds == ds.rp_id).mean())
        assert best < 1.0

    def test_separable_blobs_reach_99_percent(self):
        rng = np.random.default_rng(7)
        labels = np.repeat([0, 1], 40)
        centers = np.where(labels == 0, 0.25, 0.75)[:, None]
        ds = _ci0(labels, np.clip(rng.normal(centers, 0.08, (80, 4)), 0, 1))
        m, history = train_dnn(ds, 1, TrainConfig(epochs=300, seed=0))
        probs = forward(m, ds.rss_matrix())
        preds = np.asarray(m.class_labels)[np.argmax(probs, axis=1)]
        assert (preds == ds.rp_id).mean() >= 0.99
        # Smoothed loss trend is non-increasing on separable data.
        smooth = np.convolve(history, np.ones(25) / 25, mode="valid")
        assert smooth[-1] < smooth[0]

    def test_zero_epochs_returns_seeded_init(self):
        ds = _xor_dataset()
        m, history = train_dnn(ds, 1, TrainConfig(epochs=0, seed=9))
        ref = init_dnn(2, 1, m.class_labels, seed=9)
        for (W, b), (Wr, br) in zip(m.layers, ref.layers):
            assert np.array_equal(W, Wr) and np.array_equal(b, br)
        assert history == []

    def test_unnormalized_dataset_rejected(self):
        ds = _ci0([0, 0], [[-40.0, -60.0]] * 2)
        with pytest.raises(ValidationError):
            train_dnn(ds, 1, TrainConfig(epochs=1))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, 24)
        ds = _ci0(labels, rng.uniform(0, 1, (24, 6)))
        a, _ = train_dnn(ds, 2, TrainConfig(epochs=25, seed=4, batch_size=7))
        b, _ = train_dnn(ds, 2, TrainConfig(epochs=25, seed=4, batch_size=7))
        for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)


class TestParamAccounting:
    def test_softmax_closed_form(self):
        m = DenseStack(((np.zeros((82, 61)), np.zeros(61)),), tuple(range(61)))
        assert count_params(m) == 82 * 61 + 61 == 5063
        assert model_size_bytes(m) == 5063 * BYTES_PER_PARAM

    def test_dnn_closed_form(self):
        m = init_dnn(164, 1, tuple(range(61)), seed=0)
        assert m.widths == (164, 82, 61)
        assert count_params(m) == 164 * 82 + 82 + 82 * 61 + 61 == 18593

    def test_empty_model_has_zero_params(self):
        assert count_params(DenseStack((), ())) == 0

    def test_classifiers_count_their_model(self):
        head = DenseStack(((np.zeros((82, 61)), np.zeros(61)),), tuple(range(61)))
        lognet = LogNetClassifier(LogicEncoderConfig(GateType.NOR, 0.5, 1), head, 164)
        dnn = DnnClassifier(init_dnn(164, 1, tuple(range(61)), seed=0))
        assert count_params(lognet) == count_params(head) == 5063
        assert count_params(dnn) == count_params(dnn.model) == 18593

    def test_object_without_layers_is_rejected(self):
        with pytest.raises(ConfigError, match="cannot count parameters of object"):
            count_params(object())


class TestGradientCheck:
    def test_softmax_head_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        m = DenseStack(((rng.normal(0, 0.3, (6, 4)), rng.normal(0, 0.1, 4)),), (0, 1, 2, 3))
        x = rng.uniform(0.1, 1.0, 6)
        assert gradient_check(m, (x, 2), epsilon=1e-5) < 1e-5

    def test_dnn_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        m = init_dnn(8, 2, (0, 1, 2), seed=3)
        x = rng.uniform(0.05, 0.95, 8)
        assert gradient_check(m, (x, 1), epsilon=1e-5) < 1e-5

    def test_zero_input_bias_gradient_closed_form(self):
        # With x = 0 the logits equal the biases, so the bias gradient is
        # softmax(biases) - one_hot(label) and the weight gradient vanishes.
        from lognet.models import _loss_and_grads

        rng = np.random.default_rng(2)
        W = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        m = DenseStack(((W, b),), (0, 1, 2))
        x = np.zeros((1, 5))
        _, grads = _loss_and_grads([np.array(W), np.array(b)], x, np.array([1]))
        expected = softmax(b[None, :])[0]
        expected[1] -= 1.0
        np.testing.assert_allclose(grads[1], expected, atol=1e-12)
        assert np.all(grads[0] == 0.0)
        assert gradient_check(m, (x[0], 1), epsilon=1e-5) < 1e-5

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        m = init_dnn(5, 1, (0, 1), seed=8)
        x = rng.uniform(0.1, 0.9, 5)
        assert gradient_check(m, (x, 0)) == gradient_check(m, (x, 0))

    def test_epsilon_range_enforced(self):
        m = DenseStack(((np.zeros((2, 2)), np.zeros(2)),), (0, 1))
        with pytest.raises(ConfigError):
            gradient_check(m, (np.ones(2), 0), epsilon=1e-2)

    @pytest.mark.parametrize("bad", ["a", True, None, 10**400], ids=["str", "True", "None", "huge"])
    def test_epsilon_that_is_no_number_names_it(self, bad):
        m = DenseStack(((np.zeros((2, 2)), np.zeros(2)),), (0, 1))
        with pytest.raises(ConfigError, match=r"^epsilon must be a number in \[1e-7, 1e-3\], got "):
            gradient_check(m, (np.ones(2), 0), epsilon=bad)

    def test_object_without_layers_is_rejected(self):
        with pytest.raises(ConfigError, match="does not support object"):
            gradient_check(object(), (np.ones(2), 0))


class TestDivergence:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_softmax_divergence_names_the_epoch(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch 1 of 5"):
            train_softmax(X, [0, 1] * 3, TrainConfig(learning_rate=1e308, epochs=5))

    def test_dnn_divergence_names_the_epoch(self):
        labels = np.arange(6) % 2
        ds = _ci0(labels, np.column_stack([labels, 1 - labels]))
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch 1 of 5"):
            train_dnn(ds, 1, TrainConfig(learning_rate=1e308, epochs=5))


class TestOneModelType:
    def test_softmax_head_and_mlp_are_one_type(self):
        head, _ = train_softmax(np.eye(2), [0, 1], TrainConfig(epochs=1))
        assert type(head) is type(init_dnn(4, 1, (0, 1), seed=0)) is DenseStack
        # Both classifiers call the one forward pass, under the names perfbench patches.
        assert pipeline.softmax_forward is pipeline.dnn_forward is forward

    def test_softmax_head_is_the_one_layer_stack(self):
        W, b = np.arange(6.0).reshape(3, 2), np.array([0.5, -0.5])
        head = DenseStack(((W, b),), (4, 9))
        assert len(head.layers) == 1
        assert head.widths == (3, 2) and head.input_dim == 3 and head.class_labels == (4, 9)
        assert head.weights is head.layers[0][0] and head.biases is head.layers[0][1]
        assert np.array_equal(head.weights, W) and np.array_equal(head.biases, b)

    def test_weights_and_biases_are_the_output_layers(self):
        m = init_dnn(6, 2, (0, 1, 2), seed=3)
        assert m.widths == (6, 3, 2, 3)
        assert m.weights is m.layers[-1][0] and m.biases is m.layers[-1][1]

    @pytest.mark.parametrize("x", [[[0.0, 1.0, 1.0]], [0.0, 1.0, 1.0], [[0, 1, 1], [1, 0, 0]]])
    def test_forward_takes_sequences_as_float64(self, x):
        rng = np.random.default_rng(8)
        head = DenseStack(((rng.normal(size=(3, 4)), rng.normal(size=4)),), (0, 1, 2, 3))
        expected = forward(head, np.asarray(x, dtype=np.float64))
        assert np.array_equal(forward(head, x), expected)
        assert np.shape(expected) == np.shape(x)[:-1] + (4,)

    @pytest.mark.parametrize("x", [1.0, np.zeros((1, 1, 3)), np.zeros(4), np.zeros((2, 2))])
    def test_forward_rejects_other_shapes(self, x):
        head = DenseStack(((np.zeros((3, 2)), np.zeros(2)),), (0, 1))
        with pytest.raises(ShapeError, match="does not match model input_dim 3"):
            forward(head, x)

    def test_training_inputs_must_match_the_labels(self):
        with pytest.raises(ShapeError, match="do not match 3 labels"):
            train_softmax(np.zeros((2, 4)), [0, 1, 1], TrainConfig(epochs=1))

    def test_a_lognet_head_is_one_layer(self):
        encoder = LogicEncoderConfig(GateType.NOR, 0.5, 1)
        with pytest.raises(ShapeError, match="one softmax layer, got 2"):
            LogNetClassifier(encoder, init_dnn(4, 1, (0, 1), seed=0), 8)
