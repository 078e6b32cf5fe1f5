"""End-to-end classifiers pairing raw-RSS preprocessing with trained heads."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import (
    DEFAULT_RSS_HI,
    DEFAULT_RSS_LO,
    Dataset,
    _check_dataset,
    _has_type,
    _floats,
    _must_be,
    _readonly,
    binarize_matrix,
    check_rss_range,
    check_threshold,
    normalize,
    normalize_values,
)
from .errors import LogNetError, ParseError, ShapeError, ValidationError
from .fileio import atomic_open, read_json
from .gates import GateType, LogicEncoderConfig, ceil_chain, encode_matrix
from .models import DenseStack, TrainConfig, forward, train_dnn, train_softmax

SCHEMA_VERSION = 1

# The names each classifier calls the forward pass by. Both are `forward`;
# perfbench patches each one here, under its own name, to time the head.
softmax_forward = dnn_forward = forward

# How json.dumps writes save_model's stand-in for parameter array i: "\0i".
_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def encode_rss(
    rss: np.ndarray,
    encoder: LogicEncoderConfig,
    rss_lo: float = DEFAULT_RSS_LO,
    rss_hi: float = DEFAULT_RSS_HI,
) -> np.ndarray:
    """Gate-encode a raw dBm matrix, NaN-free, into uint8 latents; its bits are `rss >= cut`."""
    cut = _raw_cut(encoder.threshold, rss_lo, rss_hi)
    rss = _floats("rss", rss)
    if np.isnan(rss).any():
        raise ValidationError(_must_be("rss", "free of NaN", rss))
    return encode_matrix(rss >= cut, encoder.gate, encoder.hidden_layers)


def _raw_cut(threshold: float, lo: float, hi: float) -> float:
    """The smallest float64 x that `binarize_matrix(normalize_values(x, lo, hi), threshold)`
    makes active, so `rss >= x` gives that rule's bits exactly. The arguments are checked on
    every call, and `_bisect_cut` memoizes the cut of each checked triple."""
    lo, hi = check_rss_range(lo, hi)
    check_threshold(threshold)
    return _bisect_cut(threshold, lo, hi)


@lru_cache(maxsize=64, typed=True)
def _bisect_cut(threshold: float, lo: float, hi: float) -> float:
    """`_raw_cut` of a checked triple. The rule is monotone in float64, inactive at lo and
    active at hi, which scales to exactly 1.0, so bisection over the float64 ordering (|x|'s
    bit pattern as an integer, negated for a negative x) finds its step in (lo, hi] in <= 64
    probes."""
    place = lambda x: int(np.float64(abs(x)).view(np.int64)) * (-1 if x < 0 else 1)
    value = lambda n: float(np.int64(abs(n)).view(np.float64)) * (-1 if n < 0 else 1)
    active = lambda n: binarize_matrix(normalize_values(value(n), lo, hi), threshold)
    a, b = place(lo), place(hi)
    while b - a > 1:
        m = (a + b) // 2
        a, b = (a, m) if active(m) else (m, b)
    return value(b)


def _setup(clf, stack: DenseStack) -> None:
    """Check a classifier's RSS range and build, once, the label array predict indexes."""
    check_rss_range(clf.rss_lo, clf.rss_hi)
    object.__setattr__(clf, "_classes", _readonly(np.asarray(stack.class_labels)))


def _check_aps(clf, ds: Dataset) -> None:
    try:
        aps = ds.ap_count
    except AttributeError:  # a try, not a type check: on CPython >= 3.11 it costs a query nothing
        raise ValidationError(_must_be("ds", Dataset, ds)) from None
    if aps != clf.input_dim:
        raise ShapeError(f"dataset has {aps} APs but the model expects {clf.input_dim}")


def _predict(clf, ds: Dataset) -> np.ndarray:
    """The RP label of each fingerprint's most probable class.

    Each classifier binds this as `predict` in its own class body, so that
    patching one class's method leaves the other's alone.
    """
    return clf._classes[clf.predict_proba(ds).argmax(axis=1)]


@dataclass(frozen=True)
class LogNetClassifier:
    """Logic-gate encoder plus trained softmax head over raw dBm fingerprints."""

    encoder: LogicEncoderConfig
    head: DenseStack  # one layer, (latent_dim, classes)
    ap_count: int
    rss_lo: float = DEFAULT_RSS_LO
    rss_hi: float = DEFAULT_RSS_HI

    def __post_init__(self):
        _setup(self, self.head)
        if len(self.head.layers) != 1:
            raise ShapeError(f"a lognet head is one softmax layer, got {len(self.head.layers)}")
        if self.head.input_dim != self.latent_dim:
            raise ShapeError(
                f"head takes {self.head.input_dim} latent bits but {self.ap_count} APs "
                f"encode to {self.latent_dim} at depth {self.encoder.hidden_layers}"
            )
        object.__setattr__(self, "_cut", _raw_cut(self.encoder.threshold, self.rss_lo, self.rss_hi))

    @property
    def input_dim(self) -> int:
        return self.ap_count

    @property
    def latent_dim(self) -> int:
        return ceil_chain(self.ap_count, self.encoder.hidden_layers)

    @property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The trained dense stack: the softmax head as one layer."""
        return self.head.layers

    def latent_matrix(self, ds: Dataset) -> np.ndarray:
        """Binary latent codes for every fingerprint, as a uint8 matrix (a Dataset has no NaN)."""
        _check_aps(self, ds)
        return encode_matrix(ds.rss_matrix() >= self._cut, self.encoder.gate,
                             self.encoder.hidden_layers)

    def predict_proba(self, ds: Dataset) -> np.ndarray:
        return softmax_forward(self.head, self.latent_matrix(ds))

    predict = _predict


@dataclass(frozen=True)
class DnnClassifier:
    """Down-sampling MLP over normalized fingerprints."""

    model: DenseStack
    rss_lo: float = DEFAULT_RSS_LO
    rss_hi: float = DEFAULT_RSS_HI

    def __post_init__(self):
        _setup(self, self.model)

    @property
    def input_dim(self) -> int:
        return self.model.input_dim

    @property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return self.model.layers

    def predict_proba(self, ds: Dataset) -> np.ndarray:
        _check_aps(self, ds)
        # Handed over unbound, so the forward pass frees it once the first hidden layer exists.
        return dnn_forward(self.model, normalize_values(ds.rss_matrix(), self.rss_lo, self.rss_hi))

    predict = _predict


def fit_lognet(
    train_ds: Dataset,
    encoder: LogicEncoderConfig,
    cfg: TrainConfig,
    rss_lo: float = DEFAULT_RSS_LO,
    rss_hi: float = DEFAULT_RSS_HI,
) -> tuple[LogNetClassifier, list[float]]:
    """Encode a raw training dataset and fit the softmax head on the latents."""
    _check_dataset("train_ds", train_ds)
    # A Dataset holds no NaN, so its bits skip `encode_rss`'s scan; the classifier below
    # finds this cut memoized.
    bits = train_ds.rss_matrix() >= _raw_cut(encoder.threshold, rss_lo, rss_hi)
    latents = encode_matrix(bits, encoder.gate, encoder.hidden_layers)
    head, history = train_softmax(latents, train_ds.rp_id, cfg)
    clf = LogNetClassifier(encoder, head, train_ds.ap_count, rss_lo, rss_hi)
    return clf, history


def fit_dnn(
    train_ds: Dataset,
    hidden_layers: int,
    cfg: TrainConfig,
    rss_lo: float = DEFAULT_RSS_LO,
    rss_hi: float = DEFAULT_RSS_HI,
) -> tuple[DnnClassifier, list[float]]:
    """Normalize a raw training dataset and fit the MLP baseline."""
    _check_dataset("train_ds", train_ds)
    model, history = train_dnn(normalize(train_ds, rss_lo, rss_hi), hidden_layers, cfg)
    return DnnClassifier(model, rss_lo, rss_hi), history


def save_model(clf, path: str) -> None:
    """Write a classifier as a self-describing JSON document.

    Parameter arrays are stored row-major as nested lists; floats use Python's
    shortest round-trip representation, so save -> load -> forward is
    bit-exact. The file holds exactly `json.dumps(doc, indent=1,
    sort_keys=True) + "\n"` of the document with the arrays as lists, but the
    arrays are written one row at a time, so the model is never held as Python
    floats all at once. The file is replaced atomically: a failed save leaves
    any previous file at `path` intact.
    """
    arrays: list[np.ndarray] = []

    def streamed(a: np.ndarray) -> str:
        """A placeholder for `a` in the document; no other string holds a NUL."""
        arrays.append(a)
        return f"\0{len(arrays) - 1}"

    if isinstance(clf, LogNetClassifier):
        stack = clf.head
        doc = {
            "family": "lognet",
            "encoder": {
                "gate": clf.encoder.gate.value,
                "threshold": clf.encoder.threshold,
                "hidden_layers": clf.encoder.hidden_layers,
                "ap_count": clf.ap_count,
            },
            "weights": streamed(stack.weights),
            "biases": streamed(stack.biases),
        }
    elif isinstance(clf, DnnClassifier):
        stack = clf.model
        doc = {
            "family": "dnn",
            "widths": list(stack.widths),
            "layers": [{"weights": streamed(W), "biases": streamed(b)} for W, b in stack.layers],
        }
    else:
        raise ShapeError(f"cannot serialize {type(clf).__name__}")
    doc |= {"schema_version": SCHEMA_VERSION, "rss_lo": clf.rss_lo, "rss_hi": clf.rss_hi,
            "class_labels": list(stack.class_labels)}
    # Text pieces alternate with the index of the array each placeholder stands for.
    # With indent=1, a value nested `level` deep sits on a line indented `level` spaces.
    pieces = _PLACEHOLDER.split(json.dumps(doc, indent=1, sort_keys=True))
    with atomic_open(path) as fh:
        for text, index in zip(pieces[::2], pieces[1::2]):
            fh.write(text)
            line = text[text.rfind("\n") + 1:]
            _write_json_array(fh, arrays[int(index)], len(line) - len(line.lstrip(" ")))
        fh.write(pieces[-1] + "\n")


def _write_json_array(fh, a: np.ndarray, level: int) -> None:
    """Write `a` as `json.dumps(a.tolist(), indent=1)` lays it out `level` spaces deep.

    Each 1-D row goes through `tolist`, and `repr` is the float formatter
    `json` itself uses.
    """
    if len(a) == 0:
        fh.write("[]")
        return
    inner = "\n" + " " * (level + 1)
    if a.ndim == 1:
        fh.write("[" + inner + ("," + inner).join(map(repr, a.tolist())))
    else:
        for i, row in enumerate(a):
            fh.write(("," if i else "[") + inner)
            _write_json_array(fh, row, level + 1)
    fh.write("\n" + " " * level + "]")


def load_model(path: str):
    """Load a classifier written by save_model.

    Any document that does not describe a valid classifier raises ParseError
    naming `path`: a missing key, a value of the wrong type, parameter arrays
    that the model constructors reject, or a softmax head whose input width
    is not the encoder's latent width.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(_must_be("model document", dict, doc), path=path)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}", path=path)
    family = doc.get("family")
    if family not in ("lognet", "dnn"):
        raise ParseError(f"unknown model family {family!r}", path=path)
    try:
        rss_range = _field(doc, "rss_lo", float), _field(doc, "rss_hi", float)
        labels = _field(doc, "class_labels", list[int])
        if family == "lognet":
            enc = _field(doc, "encoder", dict)
            encoder = LogicEncoderConfig(
                gate=GateType.from_name(_field(enc, "gate", str, "encoder")),
                threshold=_field(enc, "threshold", float, "encoder"),
                hidden_layers=_field(enc, "hidden_layers", int, "encoder"),
            )
            head = DenseStack(((_field(doc, "weights"), _field(doc, "biases")),), labels)
            ap_count = _field(enc, "ap_count", int, "encoder")
            return LogNetClassifier(encoder, head, ap_count, *rss_range)
        layers = tuple(
            (_field(layer, "weights", where=f"layers[{i}]"),
             _field(layer, "biases", where=f"layers[{i}]"))
            for i, layer in enumerate(_field(doc, "layers", list))
        )
        return DnnClassifier(DenseStack(layers, labels), *rss_range)
    except LogNetError as exc:
        raise ParseError(str(exc), path=path) from None


def _field(obj, key: str, kind=object, where: str = ""):
    """`obj[key]` of a JSON document, checked to have type hint `kind` by `_has_type`.

    `where` names `obj` in messages; by default it is the model document.
    """
    if not isinstance(obj, dict):
        raise ValidationError(_must_be(where or "model document", dict, obj))
    if key not in obj:
        raise ValidationError(f"{where or 'model document'} lacks key {key!r}")
    value = obj[key]
    if kind is not object and not _has_type(value, kind):
        raise ValidationError(_must_be(f"{where}.{key}" if where else key, kind, value))
    return value
