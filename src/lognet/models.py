"""Trainable classifier heads: a softmax layer over latent codes and a
down-sampling MLP baseline, sharing one Adam optimizer and loss."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigError, ShapeError, TrainingError, ValidationError
from .gates import LatentCode

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
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_class_labels(class_labels: Sequence[int]) -> tuple[int, ...]:
    labels = tuple(int(c) for c in class_labels)
    if len(set(labels)) != len(labels) or list(labels) != sorted(labels):
        raise ValidationError("class_labels must be distinct and sorted")
    return labels


@dataclass(frozen=True, eq=False)
class SoftmaxModel:
    """Single fully connected softmax layer over latent bits."""

    weights: np.ndarray  # (latent_dim, num_classes)
    biases: np.ndarray  # (num_classes,)
    class_labels: tuple[int, ...]

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        labels = _check_class_labels(self.class_labels)
        if W.ndim != 2:
            raise ShapeError("weights must be a 2-D matrix")
        if b.shape != (W.shape[1],):
            raise ShapeError(f"biases shape {b.shape} does not match {W.shape[1]} classes")
        if len(labels) != W.shape[1]:
            raise ShapeError(f"{len(labels)} class labels for {W.shape[1]} output columns")
        object.__setattr__(self, "weights", _readonly(W))
        object.__setattr__(self, "biases", _readonly(b))
        object.__setattr__(self, "class_labels", labels)

    @property
    def latent_dim(self) -> int:
        return int(self.weights.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.weights.shape[1])


@dataclass(frozen=True, eq=False)
class DnnModel:
    """Dense network whose hidden widths halve layer by layer (ceil division)."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]  # (weights (in, out), biases (out,))
    class_labels: tuple[int, ...]

    def __post_init__(self):
        labels = _check_class_labels(self.class_labels)
        clean = []
        prev_out = None
        for i, (W, b) in enumerate(self.layers):
            W = np.asarray(W, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if W.ndim != 2 or b.shape != (W.shape[1],):
                raise ShapeError(f"layer {i} has inconsistent weight/bias shapes")
            if prev_out is not None and W.shape[0] != prev_out:
                raise ShapeError(
                    f"layer {i} expects {W.shape[0]} inputs but layer {i - 1} emits {prev_out}"
                )
            prev_out = W.shape[1]
            clean.append((_readonly(W), _readonly(b)))
        if clean:
            # Hidden widths must follow the ceil-halving pattern; the final
            # (classifier) width is free.
            widths = [clean[0][0].shape[0]] + [W.shape[1] for W, _ in clean]
            for k in range(1, len(widths) - 1):
                expected = (widths[k - 1] + 1) // 2
                if widths[k] != expected:
                    raise ValidationError(
                        f"hidden width {widths[k]} at layer {k} violates the halving "
                        f"rule (expected ceil({widths[k - 1]}/2) = {expected})"
                    )
            if len(labels) != widths[-1]:
                raise ShapeError(f"{len(labels)} class labels for {widths[-1]} outputs")
        object.__setattr__(self, "layers", tuple(clean))
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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax via max-shifted exponentiation."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sparse_cross_entropy(logits: np.ndarray, class_idx: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes."""
    logp = _log_softmax(np.atleast_2d(logits))
    return float(-logp[np.arange(len(class_idx)), class_idx].mean())


def as_latent_matrix(latents) -> np.ndarray:
    """Coerce a LatentCode, array, or sequence of either into a float (m, D) matrix."""
    if isinstance(latents, LatentCode):
        return latents.bits.astype(np.float64)[None, :]
    if isinstance(latents, np.ndarray):
        arr = latents.astype(np.float64)
        return arr[None, :] if arr.ndim == 1 else arr
    rows = [lat.bits if isinstance(lat, LatentCode) else np.asarray(lat) for lat in latents]
    if not rows:
        return np.empty((0, 0), dtype=np.float64)
    return np.stack(rows).astype(np.float64)


def softmax_forward(model: SoftmaxModel, latent) -> np.ndarray:
    """Class probabilities for one latent code (or a batch of them)."""
    single = isinstance(latent, LatentCode) or (
        isinstance(latent, np.ndarray) and latent.ndim == 1
    )
    X = as_latent_matrix(latent)
    if X.shape[1] != model.latent_dim:
        raise ShapeError(
            f"latent length {X.shape[1]} does not match model latent_dim {model.latent_dim}"
        )
    probs = softmax(X @ model.weights + model.biases)
    return probs[0] if single else probs


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def dnn_forward(model: DnnModel, fp) -> np.ndarray:
    """Class probabilities for one normalized fingerprint (or a batch matrix)."""
    x = fp.rss if hasattr(fp, "rss") else np.asarray(fp, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if X.shape[1] != model.input_dim:
        raise ShapeError(
            f"input length {X.shape[1]} does not match model input_dim {model.input_dim}"
        )
    probs = softmax(_dnn_logits(model.layers, X))
    return probs[0] if single else probs


def dnn_hidden_activations(model: DnnModel, X: np.ndarray) -> np.ndarray:
    """Activations of the last hidden layer for a (samples, input_dim) batch."""
    if len(model.layers) < 2:
        raise ShapeError("model has no hidden layer")
    a = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for W, b in model.layers[:-1]:
        a = relu(a @ W + b)
    return a


def _dnn_logits(layers, X: np.ndarray) -> np.ndarray:
    a = X
    for W, b in layers[:-1]:
        a = relu(a @ W + b)
    W_out, b_out = layers[-1]
    return a @ W_out + b_out


def dnn_hidden_widths(input_dim: int, hidden_layers: int) -> list[int]:
    """Widths [input, h1, ..., hH] under the ceil-halving rule."""
    if hidden_layers < 1:
        raise ConfigError(f"hidden_layers must be >= 1, got {hidden_layers}")
    widths = [int(input_dim)]
    for _ in range(hidden_layers):
        widths.append((widths[-1] + 1) // 2)
    return widths


class Adam:
    """Adam over a flat list of parameter arrays."""

    def __init__(self, shapes, learning_rate: float,
                 beta1: float = ADAM_BETA1, beta2: float = ADAM_BETA2, eps: float = ADAM_EPS):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        lr_t = self.lr * np.sqrt(1.0 - self.beta2**self.t) / (1.0 - self.beta1**self.t)
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr_t * m / (np.sqrt(v) + self.eps)


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


def _resolve_classes(labels: np.ndarray, class_labels) -> tuple[int, ...]:
    if class_labels is None:
        return tuple(sorted({int(l) for l in labels}))
    return _check_class_labels(class_labels)


def _batches(n: int, cfg: TrainConfig, rng: np.random.Generator):
    if cfg.batch_size is None or cfg.batch_size >= n:
        yield np.arange(n)
        return
    order = rng.permutation(n)
    for start in range(0, n, cfg.batch_size):
        yield order[start : start + cfg.batch_size]


def train_softmax(latents, labels, cfg: TrainConfig,
                  class_labels=None) -> tuple[SoftmaxModel, list[float]]:
    """Fit the softmax head with Adam on mean cross-entropy.

    Returns the trained model and the per-epoch loss history (full-set loss
    after each epoch's updates). Deterministic for a fixed config. Raises
    TrainingError, naming the epoch, once that loss is not finite.
    """
    X = as_latent_matrix(latents)
    y = np.asarray(labels, dtype=np.int64)
    if X.shape[0] == 0:
        raise TrainingError("training set is empty")
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"{X.shape[0]} latents but {y.shape[0]} labels")
    classes = _resolve_classes(y, class_labels)
    y_idx = _class_index(y, classes)

    rng = np.random.default_rng(cfg.seed)
    W, b = _init_linear(rng, X.shape[1], len(classes))
    params = [W, b]
    opt = Adam([p.shape for p in params], cfg.learning_rate)

    history = []
    for _ in range(cfg.epochs):
        for idx in _batches(X.shape[0], cfg, rng):
            grads = _softmax_grads(params, X[idx], y_idx[idx])
            opt.step(params, grads)
        history.append(sparse_cross_entropy(X @ params[0] + params[1], y_idx))
        _check_loss(history, cfg)
    return SoftmaxModel(params[0], params[1], classes), history


def _check_loss(history: list[float], cfg: TrainConfig) -> None:
    """Stop training once the latest recorded loss is not finite."""
    if not math.isfinite(history[-1]):
        raise TrainingError(
            f"loss became {history[-1]} at epoch {len(history)} of {cfg.epochs}; "
            f"try a smaller learning_rate than {cfg.learning_rate}"
        )


def _softmax_grads(params, X: np.ndarray, y_idx: np.ndarray) -> list[np.ndarray]:
    W, b = params
    probs = softmax(X @ W + b)
    probs[np.arange(len(y_idx)), y_idx] -= 1.0
    probs /= len(y_idx)
    return [X.T @ probs, probs.sum(axis=0)]


def init_dnn(input_dim: int, hidden_layers: int, class_labels: Sequence[int],
             seed: int) -> DnnModel:
    """Seeded random initialization following the halving-width rule."""
    classes = _check_class_labels(class_labels)
    widths = dnn_hidden_widths(input_dim, hidden_layers) + [len(classes)]
    rng = np.random.default_rng(seed)
    layers = [_init_linear(rng, widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
    return DnnModel(tuple(layers), classes)


def train_dnn(ds: Dataset, hidden_layers: int, cfg: TrainConfig,
              class_labels=None) -> tuple[DnnModel, list[float]]:
    """Train the down-sampling MLP on a normalized dataset.

    Returns the model and the per-epoch full-set loss history; raises
    TrainingError, naming the epoch, once that loss is not finite.
    """
    X = ds.rss_matrix()
    y = ds.labels()
    if X.shape[0] == 0:
        raise TrainingError("training set is empty")
    if X.size and (X.min() < 0.0 or X.max() > 1.0):
        raise ValidationError("train_dnn expects a normalized dataset (values in [0, 1])")
    classes = _resolve_classes(y, class_labels)
    y_idx = _class_index(y, classes)

    model = init_dnn(ds.ap_count, hidden_layers, classes, cfg.seed)
    params = [np.array(a) for W, b in model.layers for a in (W, b)]
    rng = np.random.default_rng(cfg.seed)
    opt = Adam([p.shape for p in params], cfg.learning_rate)

    history = []
    for _ in range(cfg.epochs):
        for idx in _batches(X.shape[0], cfg, rng):
            grads = _dnn_grads(params, X[idx], y_idx[idx])
            opt.step(params, grads)
        layers = _params_to_layers(params)
        history.append(sparse_cross_entropy(_dnn_logits(layers, X), y_idx))
        _check_loss(history, cfg)
    return DnnModel(_params_to_layers(params), classes), history


def _params_to_layers(params) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    return tuple((params[i], params[i + 1]) for i in range(0, len(params), 2))


def _dnn_grads(params, X: np.ndarray, y_idx: np.ndarray) -> list[np.ndarray]:
    layers = _params_to_layers(params)
    # Forward with cached activations.
    acts = [X]
    for W, b in layers[:-1]:
        acts.append(relu(acts[-1] @ W + b))
    W_out, b_out = layers[-1]
    probs = softmax(acts[-1] @ W_out + b_out)

    m = len(y_idx)
    delta = probs
    delta[np.arange(m), y_idx] -= 1.0
    delta /= m

    grads: list[np.ndarray] = []
    for k in range(len(layers) - 1, -1, -1):
        W, _ = layers[k]
        grads.insert(0, delta.sum(axis=0))
        grads.insert(0, acts[k].T @ delta)
        if k > 0:
            delta = (delta @ W.T) * (acts[k] > 0)
    return grads


def count_params(model) -> int:
    """Trainable parameter count; gate layers contribute nothing."""
    if isinstance(model, SoftmaxModel):
        return int(model.weights.size + model.biases.size)
    if isinstance(model, DnnModel):
        return int(sum(W.size + b.size for W, b in model.layers))
    head = getattr(model, "head", None)
    if head is not None:
        return count_params(head)
    inner = getattr(model, "model", None)
    if inner is not None:
        return count_params(inner)
    raise ConfigError(f"cannot count parameters of {type(model).__name__}")


def model_size_bytes(model) -> int:
    """Serialized parameter payload at BYTES_PER_PARAM bytes per parameter."""
    return count_params(model) * BYTES_PER_PARAM


def _model_params_and_loss(model, x: np.ndarray, y_idx: np.ndarray):
    """Mutable parameter copies plus a loss closure over them."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if isinstance(model, SoftmaxModel):
        params = [np.array(model.weights), np.array(model.biases)]

        def loss() -> float:
            return sparse_cross_entropy(X @ params[0] + params[1], y_idx)

        def grads() -> list[np.ndarray]:
            return _softmax_grads(params, X, y_idx)

    elif isinstance(model, DnnModel):
        params = [np.array(a) for W, b in model.layers for a in (W, b)]

        def loss() -> float:
            return sparse_cross_entropy(_dnn_logits(_params_to_layers(params), X), y_idx)

        def grads() -> list[np.ndarray]:
            return _dnn_grads(params, X, y_idx)

    else:
        raise ConfigError(f"gradient check does not support {type(model).__name__}")
    return params, loss, grads


def gradient_check(model, sample, epsilon: float = 1e-5) -> float:
    """Compare analytic loss gradients against central finite differences.

    `sample` is an (input, label) pair; the input is a latent vector for a
    SoftmaxModel or a normalized fingerprint vector for a DnnModel (batches
    work too). The deviation of each parameter array is the largest absolute
    analytic/numeric difference relative to the largest gradient magnitude in
    that array; the maximum over arrays is returned. Arrays whose gradients
    vanish on both sides contribute zero.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    x, y = sample
    y_idx_raw = np.atleast_1d(np.asarray(y, dtype=np.int64))
    labels = model.class_labels
    y_idx = _class_index(y_idx_raw, labels)

    params, loss, grads = _model_params_and_loss(model, x, y_idx)
    analytic = grads()

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
