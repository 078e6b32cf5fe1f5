"""Trainable classifier heads: a softmax layer over latent codes and a
down-sampling MLP baseline. Both are one model type, `DenseStack` (the
softmax head is the stack with no hidden layer), so they share one forward
pass, one backward pass, one Adam training loop and one parameter count."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, _check_fields, _check_seed, _floats, _has_type, _must_be, _readonly
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

    There must be at least one layer, shapes must chain layer to layer,
    hidden widths must halve (ceil division) and there must be one class label
    per output.
    """
    labels = _check_class_labels(class_labels)
    clean = []
    prev_out = None
    for i, (W, b) in enumerate(layers):
        W, b = (_floats(f"layer {i} weights and biases", a, "numeric arrays") for a in (W, b))
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
    if not clean:
        raise ShapeError("a dense stack needs at least one layer")
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
        return (self.layers[0][0].shape[0],) + tuple(W.shape[1] for W, _ in self.layers)

    @property
    def input_dim(self) -> int:
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
    logits = _floats("logits", logits)
    return _softmax_into(logits, np.empty_like(logits))


def _softmax_into(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax of float64 `logits` written to `out`, which may be `logits` itself.

    Logits that hold one row in total (a single query) reduce to scalars, which skips two
    keepdims results and their broadcasts. The max is exact in any order and a one-row sum
    runs the same contiguous loop, so the bits are those of the row-wise reductions.
    """
    # The ufunc reductions `ndarray.max` and `.sum` run, without their Python-level wrapper.
    if logits.ndim < 2 or logits.size == logits.shape[-1]:
        np.subtract(logits, np.maximum.reduce(logits, axis=None), out=out)
        np.exp(out, out=out)
        out /= np.add.reduce(out, axis=None)
    else:
        np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def forward(model: DenseStack, x) -> np.ndarray:
    """Class probabilities for one input vector, or per row of an (m, input_dim) batch.

    The pass walks the stack by rebinding `x`, so each layer's input is
    released as soon as the next layer exists. A caller that hands over a
    temporary (`forward(model, normalize_values(...))`) thus holds at most two
    adjacent layers at once; CPython >= 3.11 gives the callee the only
    reference to such an argument.
    """
    x = _floats("x", x)
    shape = x.shape
    if x.ndim == 1:
        x = x.reshape(1, -1)
    dim = model.layers[0][0].shape[0]  # `input_dim`, without the property call
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
    X = np.atleast_2d(_floats("X", X))
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


def dnn_hidden_widths(input_dim: int, hidden_layers: int) -> list[int]:
    """Widths [input, h1, ..., hH] under the ceil-halving rule."""
    check_depth(hidden_layers)
    if not (_has_type(input_dim, int) and input_dim >= 1):
        raise ValidationError(_must_be("input_dim", "a positive integer", input_dim))
    return [ceil_chain(int(input_dim), k) for k in range(hidden_layers + 1)]


class Adam:
    """Adam over one flat float64 parameter vector, updated in place.

    The moments m and v and two scratch vectors have the parameters' length,
    so a step allocates nothing and runs each of its 12 ufunc calls once over
    the whole vector, at any depth. It evaluates m = b1*m + (1-b1)*g,
    v = b2*v + ((1-b2)*g)*g and p -= (lr_t*m) / (sqrt(v) + eps) in that order.
    """

    def __init__(self, size: int, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        self.t += 1
        lr_t = self.lr * np.sqrt(1.0 - ADAM_BETA2**self.t) / (1.0 - ADAM_BETA1**self.t)
        m, v, (a, d) = self.m, self.v, self._scratch
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


def _fit(layers, X: np.ndarray, y_idx: np.ndarray, cfg: TrainConfig,
         rng: np.random.Generator) -> tuple[tuple, list[float]]:
    """Adam on mean cross-entropy over a copy of a dense stack's (weights, biases) layers.

    The parameters live in one float64 vector whose reshaped views are
    [W1, b1, ..., Wk, bk], and the gradients in one vector of the same layout
    that each backward pass overwrites, so a step builds no gradient list and
    Adam runs once over the whole vector. `rng` orders the minibatches, which
    are gathered into one buffer per fit; the layer outputs and deltas go to
    one `_workspace` per fit. Returns the trained layers, read-only views of
    that vector, and the per-epoch full-set loss history; raises
    TrainingError, naming the epoch, once that loss is not finite.

    A full-batch epoch's loss is taken at the parameters that the next
    epoch's gradients use, so one forward pass serves both: `epochs + 1`
    passes in all, the last one for the final loss only.
    """
    arrays = [a for W, b in layers for a in (W, b)]
    shapes = [a.shape for a in arrays]
    theta = np.concatenate([a.ravel() for a in arrays])
    grad = np.empty_like(theta)
    params, grads = _views(theta, shapes), _views(grad, shapes)
    work = _workspace(layers, X.shape[0])
    opt = Adam(theta.size, cfg.learning_rate)
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
        if cfg.epochs:
            _backprop(params, X, y_idx, grads, work, with_loss=False)
        for epoch in range(1, cfg.epochs + 1):
            opt.step(theta, grad)
            record(_backprop(params, X, y_idx, grads if epoch < cfg.epochs else None, work))
    else:
        X_batch = np.empty((cfg.batch_size, X.shape[1]))
        y_batch = np.empty(cfg.batch_size, dtype=y_idx.dtype)
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                Xb, yb = X_batch[: idx.size], y_batch[: idx.size]
                # A permutation's indices are in range; "clip" lets take write `out` unbuffered.
                np.take(X, idx, axis=0, out=Xb, mode="clip")
                np.take(y_idx, idx, out=yb, mode="clip")
                _backprop(params, Xb, yb, grads, work, with_loss=False)
                opt.step(theta, grad)
            record(_backprop(params, X, y_idx, None, work))
    theta.setflags(write=False)
    return _params_to_layers(params), history


def train_softmax(latents, labels, cfg: TrainConfig,
                  class_labels=None) -> tuple[DenseStack, list[float]]:
    """Fit the softmax head with Adam on mean cross-entropy.

    Returns the trained model and the per-epoch loss history (full-set loss
    after each epoch's updates). Deterministic for a fixed config. Raises
    TrainingError, naming the epoch, once that loss is not finite.
    """
    X = _floats("latents", latents)
    classes, y_idx = _training_targets(X, labels, class_labels)

    # Batch order continues the stream that drew the initial weights.
    rng = np.random.default_rng(cfg.seed)
    layers, history = _fit((_init_linear(rng, X.shape[1], len(classes)),), X, y_idx, cfg, rng)
    return DenseStack(layers, classes), history


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
    init = init_dnn(ds.ap_count, hidden_layers, classes, cfg.seed)
    layers, history = _fit(init.layers, X, y_idx, cfg, np.random.default_rng(cfg.seed))
    return DenseStack(layers, classes), history


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of `flat`, one per shape, reshaped to it."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def _flat_params(layers) -> list[np.ndarray]:
    """Writable copies of a stack's arrays, as [W1, b1, ..., Wk, bk]."""
    return [np.array(a) for W, b in layers for a in (W, b)]


def _params_to_layers(params) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    return tuple((params[i], params[i + 1]) for i in range(0, len(params), 2))


def _loss_and_grads(params, X: np.ndarray, y_idx: np.ndarray, with_loss: bool = True,
                    with_grads: bool = True) -> tuple[float | None, list[np.ndarray] | None]:
    """Mean cross-entropy of a flat [W1, b1, ..., Wk, bk] stack and its gradients.

    Each is None when not asked for.
    """
    grads = [np.empty_like(p) for p in params] if with_grads else None
    work = _workspace(_params_to_layers(params), X.shape[0])
    return _backprop(params, X, y_idx, grads, work, with_loss), grads


def _workspace(layers, rows: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """`_backprop`'s buffers for batches of up to `rows` rows: each layer's
    output, and the delta that the backward pass carries into each hidden
    layer. A fit allocates them once, so its epochs allocate no row-sized
    array but the ReLU masks."""
    outs = [np.empty((rows, W.shape[1])) for W, _ in layers]
    return outs, [np.empty_like(h) for h in outs[:-1]]


def _backprop(params, X: np.ndarray, y_idx: np.ndarray, grads: list[np.ndarray] | None,
              work, with_loss: bool = True) -> float | None:
    """Mean cross-entropy of a flat [W1, b1, ..., Wk, bk] stack, or None without
    `with_loss`; its gradients are written into `grads`, arrays shaped as
    `params`, unless that is None. `work` is a `_workspace` for at least as
    many rows as `X` has.

    One forward pass and one exp serve both: the loss is the mean of
    `log(sum(exp(shifted))) - shifted[true class]` over the max-shifted
    logits, and the output delta starts from `softmax` of the same logits,
    bit for bit.
    """
    layers = _params_to_layers(params)
    outs, backs = work
    m = len(y_idx)
    acts = [X]
    for (W, b), out in zip(layers[:-1], outs):
        # `_hidden_layer`, written into this layer's buffer.
        h = np.matmul(acts[-1], W, out=out[:m])
        h += b
        acts.append(np.maximum(h, 0.0, out=h))
    W_out, b_out = layers[-1]
    # One array holds the max-shifted logits, then their exp, then the output delta.
    delta = np.matmul(acts[-1], W_out, out=outs[-1][:m])
    delta += b_out
    delta -= delta.max(axis=-1, keepdims=True)
    rows = np.arange(m)
    true_shifted = delta[rows, y_idx] if with_loss else None
    np.exp(delta, out=delta)
    exp_sums = delta.sum(axis=-1, keepdims=True)
    loss = float(-(true_shifted - np.log(exp_sums[:, 0])).mean()) if with_loss else None
    if grads is None:
        return loss

    delta /= exp_sums
    delta[rows, y_idx] -= 1.0
    delta /= m

    for k in range(len(layers) - 1, -1, -1):
        np.matmul(acts[k].T, delta, out=grads[2 * k])
        np.add.reduce(delta, axis=0, out=grads[2 * k + 1])
        if k > 0:
            delta = np.matmul(delta, layers[k][0].T, out=backs[k - 1][:m])
            delta *= acts[k] > 0
    return loss


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
    softmax head or a normalized fingerprint vector for an MLP. A batch takes
    one label per row, and labels follow the trainer's rule. The deviation of
    each parameter array is the largest absolute analytic/numeric difference
    relative to the largest gradient magnitude in that array; the maximum over
    arrays is returned. Arrays whose gradients vanish on both sides contribute
    zero.
    """
    if not (_has_type(epsilon, float) and 1e-7 <= epsilon <= 1e-3):
        raise ConfigError(_must_be("epsilon", "a number in [1e-7, 1e-3]", epsilon))
    try:
        layers, classes = model.layers, model.class_labels
    except AttributeError:
        raise ConfigError(f"gradient check does not support {type(model).__name__}") from None
    x, y = sample
    X = np.atleast_2d(_floats("sample input", x))
    _, y_idx = _training_targets(X, np.atleast_1d(y), classes)
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
