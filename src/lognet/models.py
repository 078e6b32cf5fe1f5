"""Trainable classifier heads: a softmax layer over latent codes and a
down-sampling MLP baseline. Both are one model type, `DenseStack` (the
softmax head is the stack with no hidden layer), so they share one forward
pass, one backward pass, one Adam training loop and one parameter count."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, _check_fields, _check_seed, _has_type, _must_be, _readonly
from .errors import ConfigError, ShapeError, TrainingError, ValidationError
from .gates import ceil_chain, check_depth

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Size accounting assumes one float64 per parameter.
BYTES_PER_PARAM = 8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings shared by both model families."""

    learning_rate: float = 0.01
    epochs: int = 150
    seed: int = 0
    batch_size: int | None = None  # None = full batch

    def __post_init__(self):
        _check_fields(self)
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(_must_be("epochs", "non-negative", self.epochs))
        _check_seed("train seed", self.seed)
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(_must_be("batch_size", "positive", self.batch_size))


def _check_class_labels(class_labels: Sequence[int]) -> tuple[int, ...]:
    labels = tuple(class_labels)
    if not _has_type(labels, tuple[int, ...]):  # a fraction or a bool is no label to truncate
        raise ValidationError(_must_be("class_labels", "integers", class_labels))
    labels = tuple(map(int, labels))
    if len(set(labels)) != len(labels) or list(labels) != sorted(labels):
        raise ValidationError("class_labels must be distinct and sorted")
    return labels


def _check_stack(layers, class_labels) -> tuple[tuple, tuple[int, ...]]:
    """Read-only float64 (weights, biases) pairs and labels of a dense stack.

    Shapes must chain layer to layer, hidden widths must halve (ceil
    division) and there must be one class label per output.
    """
    labels = _check_class_labels(class_labels)
    clean = []
    prev_out = None
    for i, (W, b) in enumerate(layers):
        try:
            W = np.asarray(W, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"layer {i} weights and biases must be numeric arrays") from None
        if W.ndim != 2 or b.shape != (W.shape[1],):
            raise ShapeError(f"layer {i} has inconsistent weight/bias shapes")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValidationError(f"layer {i} weights and biases must be finite")
        if prev_out is not None and W.shape[0] != prev_out:
            raise ShapeError(
                f"layer {i} expects {W.shape[0]} inputs but layer {i - 1} emits {prev_out}"
            )
        prev_out = W.shape[1]
        clean.append((_readonly(W), _readonly(b)))
    if clean:
        # The final (classifier) width is free.
        widths = [clean[0][0].shape[0]] + [W.shape[1] for W, _ in clean]
        for k in range(1, len(widths) - 1):
            expected = ceil_chain(widths[k - 1], 1)
            if widths[k] != expected:
                raise ValidationError(
                    f"hidden width {widths[k]} at layer {k} violates the halving "
                    f"rule (expected ceil({widths[k - 1]}/2) = {expected})"
                )
        if widths[-1] == 0:
            raise ShapeError("the last layer has no outputs")
        if len(labels) != widths[-1]:
            raise ShapeError(f"{len(labels)} class labels for {widths[-1]} outputs")
    return tuple(clean), labels


@dataclass(frozen=True, eq=False)
class DenseStack:
    """Dense layers whose hidden widths halve layer by layer (ceil division).

    The softmax head is the one-layer stack over latent bits; the MLP
    baseline adds hidden layers over normalized fingerprints.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]  # (weights (in, out), biases (out,))
    class_labels: tuple[int, ...]

    def __post_init__(self):
        layers, labels = _check_stack(self.layers, self.class_labels)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "class_labels", labels)

    @property
    def widths(self) -> tuple[int, ...]:
        if not self.layers:
            return ()
        return (self.layers[0][0].shape[0],) + tuple(W.shape[1] for W, _ in self.layers)

    @property
    def input_dim(self) -> int:
        if not self.layers:
            raise ShapeError("empty model has no input dimension")
        return int(self.layers[0][0].shape[0])

    @property
    def weights(self) -> np.ndarray:
        """The output layer's (in, classes) weight matrix."""
        return self.layers[-1][0]

    @property
    def biases(self) -> np.ndarray:
        """The output layer's (classes,) bias vector."""
        return self.layers[-1][1]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax via max-shifted exponentiation, computed in one fresh array."""
    logits = np.asarray(logits, dtype=np.float64)
    return _softmax_into(logits, np.empty_like(logits))


def _softmax_into(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax of float64 `logits` written to `out`, which may be `logits` itself."""
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def forward(model: DenseStack, x) -> np.ndarray:
    """Class probabilities for one input vector, or per row of an (m, input_dim) batch.

    The pass walks the stack by rebinding `x`, so each layer's input is
    released as soon as the next layer exists. A caller that hands over a
    temporary (`forward(model, normalize_values(...))`) thus holds at most two
    adjacent layers at once; CPython >= 3.11 gives the callee the only
    reference to such an argument.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    if x.ndim == 1:
        x = x.reshape(1, -1)
    dim = model.input_dim
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"input of shape {shape} does not match model input_dim {dim}")
    for W, b in model.layers[:-1]:
        x = _hidden_layer(x, W, b)
    W_out, b_out = model.layers[-1]
    x = x @ W_out
    x += b_out
    probs = _softmax_into(x, x)
    return probs[0] if len(shape) == 1 else probs


def dnn_hidden_activations(model: DenseStack, X: np.ndarray) -> np.ndarray:
    """Activations of the last hidden layer for a (samples, input_dim) batch.

    Like `forward`, it holds only the layer it reads and the one it writes.
    """
    if len(model.layers) < 2:
        raise ShapeError("model has no hidden layer")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for W, b in model.layers[:-1]:
        X = _hidden_layer(X, W, b)
    return X


def _hidden_layer(a: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One hidden layer's ReLU output, in a fresh array.

    The bias and ReLU work in place on the matmul output: the same ufuncs in
    the same order as `np.maximum(a @ W + b, 0.0)`, without two temporaries.
    """
    h = a @ W
    h += b
    np.maximum(h, 0.0, out=h)
    return h


def _activations(layers, X: np.ndarray) -> list[np.ndarray]:
    """The input, then each hidden layer's ReLU output (training keeps them all for backprop)."""
    acts = [X]
    for W, b in layers[:-1]:
        acts.append(_hidden_layer(acts[-1], W, b))
    return acts


def dnn_hidden_widths(input_dim: int, hidden_layers: int) -> list[int]:
    """Widths [input, h1, ..., hH] under the ceil-halving rule."""
    check_depth(hidden_layers)
    if not (_has_type(input_dim, int) and input_dim >= 1):
        raise ValidationError(_must_be("input_dim", "a positive integer", input_dim))
    return [ceil_chain(int(input_dim), k) for k in range(hidden_layers + 1)]


class Adam:
    """Adam over a flat list of parameter arrays, updated in place.

    Each parameter has two scratch arrays, so a step allocates nothing; it
    evaluates m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr_t*m) / (sqrt(v) + eps) in that order.
    """

    def __init__(self, shapes, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self._scratch = [(np.empty(s), np.empty(s)) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        lr_t = self.lr * np.sqrt(1.0 - ADAM_BETA2**self.t) / (1.0 - ADAM_BETA1**self.t)
        for p, g, m, v, (a, d) in zip(params, grads, self.m, self.v, self._scratch):
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            a *= g
            v += a
            np.sqrt(v, out=d)
            d += ADAM_EPS
            np.multiply(m, lr_t, out=a)
            a /= d
            p -= a


def _init_linear(rng: np.random.Generator, fan_in: int, fan_out: int):
    """Uniform init scaled by fan-in; biases start at zero."""
    limit = 1.0 / np.sqrt(max(fan_in, 1))
    W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    b = np.zeros(fan_out)
    return W, b


def _class_index(labels: np.ndarray, class_labels: tuple[int, ...]) -> np.ndarray:
    lookup = {c: i for i, c in enumerate(class_labels)}
    try:
        return np.asarray([lookup[int(l)] for l in labels], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"label {exc.args[0]} is not in the class set") from None


def _training_targets(X: np.ndarray, labels, class_labels) -> tuple[tuple[int, ...], np.ndarray]:
    """The classes of a non-empty (rows, dim) training set and each row's class index.

    The classes are `class_labels` when given, else the sorted distinct labels.
    """
    y = np.asarray(labels)
    if X.shape[0] == 0:
        raise TrainingError("training set is empty")
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ShapeError(f"training inputs of shape {X.shape} do not match {y.size} labels")
    if y.dtype.kind not in "iu":  # a fraction or a bool is no label to truncate
        raise ValidationError(_must_be("labels", "integers", labels))
    if class_labels is None:
        classes = tuple(sorted(set(y.tolist())))
    else:
        classes = _check_class_labels(class_labels)
    return classes, _class_index(y, classes)


def _fit(params: list[np.ndarray], X: np.ndarray, y_idx: np.ndarray,
         cfg: TrainConfig, rng: np.random.Generator) -> list[float]:
    """Adam on mean cross-entropy over a flat [W1, b1, ..., Wk, bk] stack.

    Updates `params` in place; `rng` orders the minibatches. Returns the
    per-epoch full-set loss history; raises TrainingError, naming the epoch,
    once that loss is not finite.

    A full-batch epoch's loss is taken at the parameters that the next
    epoch's gradients use, so one forward pass serves both: `epochs + 1`
    passes in all, the last one for the final loss only.
    """
    opt = Adam([p.shape for p in params], cfg.learning_rate)
    history: list[float] = []

    def record(loss: float) -> None:
        history.append(loss)
        if not math.isfinite(loss):
            raise TrainingError(
                f"loss became {loss} at epoch {len(history)} of {cfg.epochs}; "
                f"try a smaller learning_rate than {cfg.learning_rate}"
            )

    n = X.shape[0]
    if cfg.batch_size is None or cfg.batch_size >= n:
        grads = _loss_and_grads(params, X, y_idx, with_loss=False)[1] if cfg.epochs else None
        for epoch in range(1, cfg.epochs + 1):
            opt.step(params, grads)
            loss, grads = _loss_and_grads(params, X, y_idx, with_grads=epoch < cfg.epochs)
            record(loss)
        return history
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            opt.step(params, _loss_and_grads(params, X[idx], y_idx[idx], with_loss=False)[1])
        record(_loss_and_grads(params, X, y_idx, with_grads=False)[0])
    return history


def train_softmax(latents, labels, cfg: TrainConfig,
                  class_labels=None) -> tuple[DenseStack, list[float]]:
    """Fit the softmax head with Adam on mean cross-entropy.

    Returns the trained model and the per-epoch loss history (full-set loss
    after each epoch's updates). Deterministic for a fixed config. Raises
    TrainingError, naming the epoch, once that loss is not finite.
    """
    X = np.asarray(latents, dtype=np.float64)
    classes, y_idx = _training_targets(X, labels, class_labels)

    # Batch order continues the stream that drew the initial weights.
    rng = np.random.default_rng(cfg.seed)
    params = list(_init_linear(rng, X.shape[1], len(classes)))
    history = _fit(params, X, y_idx, cfg, rng)
    return DenseStack(((params[0], params[1]),), classes), history


def init_dnn(input_dim: int, hidden_layers: int, class_labels: Sequence[int],
             seed: int) -> DenseStack:
    """Seeded random initialization following the halving-width rule."""
    classes = _check_class_labels(class_labels)
    _check_seed("seed", seed)
    widths = dnn_hidden_widths(input_dim, hidden_layers) + [len(classes)]
    rng = np.random.default_rng(seed)
    layers = [_init_linear(rng, widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
    return DenseStack(tuple(layers), classes)


def train_dnn(ds: Dataset, hidden_layers: int, cfg: TrainConfig,
              class_labels=None) -> tuple[DenseStack, list[float]]:
    """Train the down-sampling MLP on a normalized dataset.

    Returns the model and the per-epoch full-set loss history; raises
    TrainingError, naming the epoch, once that loss is not finite.
    """
    X = ds.rss_matrix()
    classes, y_idx = _training_targets(X, ds.rp_id, class_labels)
    if X.size and (X.min() < 0.0 or X.max() > 1.0):
        raise ValidationError("train_dnn expects a normalized dataset (values in [0, 1])")

    # Batch order uses a fresh stream from the same seed as init_dnn.
    params = _flat_params(init_dnn(ds.ap_count, hidden_layers, classes, cfg.seed).layers)
    history = _fit(params, X, y_idx, cfg, np.random.default_rng(cfg.seed))
    return DenseStack(_params_to_layers(params), classes), history


def _flat_params(layers) -> list[np.ndarray]:
    """Writable copies of a stack's arrays, as [W1, b1, ..., Wk, bk]."""
    return [np.array(a) for W, b in layers for a in (W, b)]


def _params_to_layers(params) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    return tuple((params[i], params[i + 1]) for i in range(0, len(params), 2))


def _loss_and_grads(params, X: np.ndarray, y_idx: np.ndarray, with_loss: bool = True,
                    with_grads: bool = True) -> tuple[float | None, list[np.ndarray] | None]:
    """Mean cross-entropy of a flat [W1, b1, ..., Wk, bk] stack and its gradients.

    One forward pass and one exp serve both: the loss is the mean of
    `log(sum(exp(shifted))) - shifted[true class]` over the max-shifted
    logits, and the output delta starts from `softmax` of the same logits,
    bit for bit. Each is None when not asked for.
    """
    layers = _params_to_layers(params)
    acts = _activations(layers, X)
    W_out, b_out = layers[-1]
    # One array holds the max-shifted logits, then their exp, then the output delta.
    delta = acts[-1] @ W_out
    delta += b_out
    delta -= delta.max(axis=-1, keepdims=True)
    m = len(y_idx)
    rows = np.arange(m)
    true_shifted = delta[rows, y_idx] if with_loss else None
    np.exp(delta, out=delta)
    exp_sums = delta.sum(axis=-1, keepdims=True)
    loss = float(-(true_shifted - np.log(exp_sums[:, 0])).mean()) if with_loss else None
    if not with_grads:
        return loss, None

    delta /= exp_sums
    delta[rows, y_idx] -= 1.0
    delta /= m

    grads: list[np.ndarray] = []
    for k in range(len(layers) - 1, -1, -1):
        W, _ = layers[k]
        grads.insert(0, delta.sum(axis=0))
        grads.insert(0, acts[k].T @ delta)
        if k > 0:
            delta = delta @ W.T
            delta *= acts[k] > 0
    return loss, grads


def count_params(model) -> int:
    """Trainable parameter count of a model or classifier; gate layers contribute nothing."""
    try:
        layers = model.layers
    except AttributeError:
        raise ConfigError(f"cannot count parameters of {type(model).__name__}") from None
    return sum(W.size + b.size for W, b in layers)


def model_size_bytes(model) -> int:
    """Serialized parameter payload at BYTES_PER_PARAM bytes per parameter."""
    return count_params(model) * BYTES_PER_PARAM


def gradient_check(model, sample, epsilon: float = 1e-5) -> float:
    """Compare the training loss's analytic gradients against its central finite differences.

    `sample` is an (input, label) pair; the input is a latent vector for a
    softmax head or a normalized fingerprint vector for an MLP (batches work
    too). The deviation of each parameter array is the largest absolute
    analytic/numeric difference relative to the largest gradient magnitude in
    that array; the maximum over arrays is returned. Arrays whose gradients
    vanish on both sides contribute zero.
    """
    if not (_has_type(epsilon, float) and 1e-7 <= epsilon <= 1e-3):
        raise ConfigError(_must_be("epsilon", "a number in [1e-7, 1e-3]", epsilon))
    try:
        layers, classes = model.layers, model.class_labels
    except AttributeError:
        raise ConfigError(f"gradient check does not support {type(model).__name__}") from None
    x, y = sample
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y_idx = _class_index(np.atleast_1d(np.asarray(y, dtype=np.int64)), classes)
    params = _flat_params(layers)
    _, analytic = _loss_and_grads(params, X, y_idx)

    def loss() -> float:
        return _loss_and_grads(params, X, y_idx, with_grads=False)[0]

    worst = 0.0
    for p, g in zip(params, analytic):
        numeric = np.empty_like(p)
        flat_p = p.ravel()
        flat_n = numeric.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + epsilon
            hi = loss()
            flat_p[i] = orig - epsilon
            lo = loss()
            flat_p[i] = orig
            flat_n[i] = (hi - lo) / (2.0 * epsilon)
        scale = max(np.abs(g).max(initial=0.0), np.abs(numeric).max(initial=0.0))
        if scale == 0.0:
            continue
        worst = max(worst, float(np.abs(g - numeric).max() / max(scale, 1e-6)))
    return worst
