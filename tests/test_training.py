"""The training loop against a reference copy of the two-pass loop it
replaced: per epoch, one gradient pass, a second forward pass for the loss,
`softmax` and `log_softmax` each exponentiating the logits, hidden layers
computed out of place as `relu(a @ W + b)`, and an Adam step that allocates
its temporaries. Weights and loss histories must match bit for bit, and a
divergence must name the same epoch. The serving forward pass, which shares
the in-place hidden layers, must match the out-of-place reference too."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lognet import (
    Dataset,
    TrainConfig,
    TrainingError,
    train_dnn,
    train_softmax,
)
from lognet.models import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _flat_params,
    _init_linear,
    _loss_and_grads,
    _params_to_layers,
    dnn_hidden_activations,
    dnn_hidden_widths,
    forward,
    init_dnn,
    softmax,
)
from lognet.models import DenseStack

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_sparse_cross_entropy(logits, class_idx):
    logits = np.atleast_2d(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return float(-logp[np.arange(len(class_idx)), class_idx].mean())


def reference_activations(layers, X):
    acts = [X]
    for W, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ W + b, 0.0))
    return acts


def reference_logits(layers, X):
    W_out, b_out = layers[-1]
    z = reference_activations(layers, X)[-1] @ W_out
    z += b_out
    return z


def reference_grads(params, X, y_idx):
    layers = _params_to_layers(params)
    acts = reference_activations(layers, X)
    W_out, b_out = layers[-1]
    delta = softmax(acts[-1] @ W_out + b_out)
    m = len(y_idx)
    delta[np.arange(m), y_idx] -= 1.0
    delta /= m
    grads = []
    for k in range(len(layers) - 1, -1, -1):
        W, _ = layers[k]
        grads.insert(0, delta.sum(axis=0))
        grads.insert(0, acts[k].T @ delta)
        if k > 0:
            delta = (delta @ W.T) * (acts[k] > 0)
    return grads


class ReferenceAdam:
    def __init__(self, shapes, lr):
        self.lr, self.t = lr, 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        lr_t = self.lr * np.sqrt(1.0 - ADAM_BETA2**self.t) / (1.0 - ADAM_BETA1**self.t)
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= lr_t * m / (np.sqrt(v) + ADAM_EPS)


def reference_batches(n, cfg, rng):
    if cfg.batch_size is None or cfg.batch_size >= n:
        yield np.arange(n)
        return
    order = rng.permutation(n)
    for start in range(0, n, cfg.batch_size):
        yield order[start : start + cfg.batch_size]


def reference_fit(params, X, y_idx, cfg, rng):
    layers = _params_to_layers(params)
    opt = ReferenceAdam([p.shape for p in params], cfg.learning_rate)
    history = []
    for _ in range(cfg.epochs):
        for idx in reference_batches(X.shape[0], cfg, rng):
            opt.step(params, reference_grads(params, X[idx], y_idx[idx]))
        history.append(reference_sparse_cross_entropy(reference_logits(layers, X), y_idx))
        if not math.isfinite(history[-1]):
            raise TrainingError(
                f"loss became {history[-1]} at epoch {len(history)} of {cfg.epochs}; "
                f"try a smaller learning_rate than {cfg.learning_rate}"
            )
    return history


def outcome(train):
    """('ok', parameter bytes, history) or ('error', message) of a training call."""
    with np.errstate(all="ignore"):
        try:
            params, history = train()
        except TrainingError as exc:
            return ("error", str(exc))
    return ("ok", [p.tobytes() for p in params], history)


def trained(X, labels, depth, cfg, class_labels=None):
    """train_softmax (depth 0) or train_dnn, as flat parameters and history."""
    if depth == 0:
        model, history = train_softmax(X, labels, cfg, class_labels)
    else:
        ds = Dataset.from_columns(labels, ["d"] * len(labels), [0] * len(labels), X)
        model, history = train_dnn(ds, depth, cfg, class_labels)
    return _flat_params(model.layers), history


def reference_trained(X, labels, depth, cfg, class_labels=None):
    classes = tuple(sorted(set(int(l) for l in labels)) if class_labels is None else class_labels)
    y_idx = np.searchsorted(classes, labels)
    X = np.asarray(X, dtype=np.float64)
    if depth == 0:
        rng = np.random.default_rng(cfg.seed)
        params = list(_init_linear(rng, X.shape[1], len(classes)))
    else:
        params = _flat_params(init_dnn(X.shape[1], depth, classes, cfg.seed).layers)
        rng = np.random.default_rng(cfg.seed)
    return params, reference_fit(params, X, y_idx, cfg, rng)


def assert_same_training(X, labels, depth, cfg, class_labels=None):
    got = outcome(lambda: trained(X, labels, depth, cfg, class_labels))
    expected = outcome(lambda: reference_trained(X, labels, depth, cfg, class_labels))
    assert got == expected
    return got


@st.composite
def training_cases(draw):
    depth = draw(st.integers(0, 2))
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 7))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 3)))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(0.0, 1.0)))
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([1e-3, 0.01, 0.3, 9e157, 1e308])),
        epochs=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        batch_size=draw(st.one_of(st.none(), st.integers(1, 14))),
    )
    return X, labels, depth, cfg


@SETTINGS
@given(training_cases())
def test_training_equals_the_two_pass_reference(case):
    assert_same_training(*case)


@pytest.mark.parametrize("epochs", [0, 1, 7])
@pytest.mark.parametrize("batch_size", [None, 9, 3], ids=["full", "batch>=n", "minibatch"])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_every_path_equals_the_two_pass_reference(depth, batch_size, epochs):
    rng = np.random.default_rng(depth * 100 + epochs)
    X = rng.uniform(0.0, 1.0, (9, 6))
    labels = rng.integers(0, 3, 9)
    got = assert_same_training(X, labels, depth, TrainConfig(0.05, epochs, 11, batch_size))
    assert got[0] == "ok" and len(got[2]) == epochs


@st.composite
def stacks(draw):
    n = draw(st.integers(1, 10))
    widths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    values = st.floats(-50.0, 50.0)
    params = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        params.append(draw(arrays(np.float64, (fan_in, fan_out), elements=values)))
        params.append(draw(arrays(np.float64, fan_out, elements=values)))
    X = draw(arrays(np.float64, (n, widths[0]), elements=st.floats(-5.0, 5.0)))
    y_idx = draw(arrays(np.int64, n, elements=st.integers(0, widths[-1] - 1)))
    return params, X, y_idx


@SETTINGS
@given(stacks())
def test_fused_loss_and_grads_equal_the_separate_passes(stack):
    params, X, y_idx = stack
    loss, grads = _loss_and_grads(params, X, y_idx)
    logits = reference_logits(_params_to_layers(params), X)
    assert loss == reference_sparse_cross_entropy(logits, y_idx)
    expected = reference_grads(params, X, y_idx)
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in expected]
    assert _loss_and_grads(params, X, y_idx, with_grads=False) == (loss, None)
    no_loss, alone = _loss_and_grads(params, X, y_idx, with_loss=False)
    assert no_loss is None and [g.tobytes() for g in alone] == [g.tobytes() for g in expected]


@st.composite
def dense_stacks(draw):
    """A softmax head (depth 0) or an MLP of depth 1-3 and a batch of inputs for it."""
    depth = draw(st.integers(0, 3))
    d = draw(st.integers(1, 9))
    classes = draw(st.integers(1, 5))
    widths = ([d] if depth == 0 else dnn_hidden_widths(d, depth)) + [classes]
    values = st.floats(-50.0, 50.0)
    layers = tuple(
        (draw(arrays(np.float64, (fan_in, fan_out), elements=values)),
         draw(arrays(np.float64, fan_out, elements=values)))
        for fan_in, fan_out in zip(widths, widths[1:])
    )
    X = draw(arrays(np.float64, (draw(st.integers(1, 10)), d), elements=st.floats(-5.0, 5.0)))
    return DenseStack(layers, tuple(range(classes))), X


@SETTINGS
@given(dense_stacks())
def test_forward_equals_the_out_of_place_reference(case):
    model, X = case
    for x, batch in ((X, X), (X[0], X[:1])):
        logits = reference_logits(model.layers, batch)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        expected = (e / e.sum(axis=-1, keepdims=True)).reshape(x.shape[:-1] + (-1,))
        assert forward(model, x).tobytes() == expected.tobytes()
    if len(model.layers) > 1:
        hidden = reference_activations(model.layers, X)[-1]
        assert dnn_hidden_activations(model, X).tobytes() == hidden.tobytes()


# One row pushes class 0 up while Adam's momentum keeps the weight growing
# after the class saturates, so 1e150 * W overflows a few epochs in: at
# learning rate 9e157 the full-batch loss first turns nan at epoch 3, and
# with one row per minibatch (two Adam steps an epoch) at epoch 2.
OVERFLOW_X = np.array([[1e150], [1e150]])
OVERFLOW = dict(X=OVERFLOW_X, labels=[0, 0], depth=0, class_labels=(0, 1))


@pytest.mark.parametrize("epochs,batch_size,message", [
    (10, None, "epoch 3 of 10"),
    (3, None, "epoch 3 of 3"),
    (5, 1, "epoch 2 of 5"),
    (2, 1, "epoch 2 of 2"),
], ids=["full-batch", "full-batch-final-epoch", "minibatch", "minibatch-final-epoch"])
def test_divergence_names_the_epoch_on_every_path(epochs, batch_size, message):
    cfg = TrainConfig(learning_rate=9e157, epochs=epochs, seed=1, batch_size=batch_size)
    got = assert_same_training(cfg=cfg, **OVERFLOW)
    assert got[0] == "error" and message in got[1]
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match=message):
        train_softmax(OVERFLOW_X, [0, 0], cfg, class_labels=(0, 1))


def test_one_epoch_before_the_divergence_trains_cleanly():
    cfg = TrainConfig(learning_rate=9e157, epochs=2, seed=1)
    got = assert_same_training(cfg=cfg, **OVERFLOW)
    assert got[0] == "ok" and len(got[2]) == 2


@pytest.mark.parametrize("batch_size", [None, 1])
def test_zero_epochs_return_the_initial_weights(batch_size):
    X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    model, history = train_softmax(X, [0, 1, 1], TrainConfig(epochs=0, seed=5, batch_size=batch_size))
    W, b = _init_linear(np.random.default_rng(5), 2, 2)
    assert history == []
    assert model.weights.tobytes() == W.tobytes() and model.biases.tobytes() == b.tobytes()
