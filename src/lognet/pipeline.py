"""End-to-end classifiers pairing raw-RSS preprocessing with trained heads."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import (
    DEFAULT_RSS_HI,
    DEFAULT_RSS_LO,
    Dataset,
    binarize_matrix,
    normalize,
    normalize_values,
)
from .errors import ParseError, ShapeError
from .fileio import atomic_open, read_json
from .gates import GateType, LogicEncoderConfig, ceil_chain, encode_matrix
from .models import (
    DnnModel,
    SoftmaxModel,
    TrainConfig,
    dnn_forward,
    softmax_forward,
    train_dnn,
    train_softmax,
)

SCHEMA_VERSION = 1


def encode_rss(
    rss: np.ndarray,
    encoder: LogicEncoderConfig,
    rss_lo: float = DEFAULT_RSS_LO,
    rss_hi: float = DEFAULT_RSS_HI,
) -> np.ndarray:
    """Normalize, binarize and gate-encode a raw dBm matrix into uint8 latents."""
    norm = normalize_values(rss, rss_lo, rss_hi)
    bits = binarize_matrix(norm, encoder.threshold)
    return encode_matrix(bits, encoder.gate, encoder.hidden_layers)


@dataclass(frozen=True)
class LogNetClassifier:
    """Logic-gate encoder plus trained softmax head over raw dBm fingerprints."""

    encoder: LogicEncoderConfig
    head: SoftmaxModel
    ap_count: int
    rss_lo: float = DEFAULT_RSS_LO
    rss_hi: float = DEFAULT_RSS_HI

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
        """Binary latent codes for every fingerprint, as a uint8 matrix."""
        self._check(ds)
        return encode_rss(ds.rss_matrix(), self.encoder, self.rss_lo, self.rss_hi)

    def predict_proba(self, ds: Dataset) -> np.ndarray:
        return softmax_forward(self.head, self.latent_matrix(ds))

    def predict(self, ds: Dataset) -> np.ndarray:
        probs = self.predict_proba(ds)
        classes = np.asarray(self.head.class_labels)
        return classes[np.argmax(probs, axis=1)]

    def _check(self, ds: Dataset) -> None:
        if ds.ap_count != self.ap_count:
            raise ShapeError(
                f"dataset has {ds.ap_count} APs but the model expects {self.ap_count}"
            )


@dataclass(frozen=True)
class DnnClassifier:
    """Down-sampling MLP over normalized fingerprints."""

    model: DnnModel
    rss_lo: float = DEFAULT_RSS_LO
    rss_hi: float = DEFAULT_RSS_HI

    @property
    def input_dim(self) -> int:
        return self.model.input_dim

    @property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return self.model.layers

    def predict_proba(self, ds: Dataset) -> np.ndarray:
        if ds.ap_count != self.input_dim:
            raise ShapeError(
                f"dataset has {ds.ap_count} APs but the model expects {self.input_dim}"
            )
        norm = normalize_values(ds.rss_matrix(), self.rss_lo, self.rss_hi)
        return dnn_forward(self.model, norm)

    def predict(self, ds: Dataset) -> np.ndarray:
        probs = self.predict_proba(ds)
        classes = np.asarray(self.model.class_labels)
        return classes[np.argmax(probs, axis=1)]


def fit_lognet(
    train_ds: Dataset,
    encoder: LogicEncoderConfig,
    cfg: TrainConfig,
    rss_lo: float = DEFAULT_RSS_LO,
    rss_hi: float = DEFAULT_RSS_HI,
) -> tuple[LogNetClassifier, list[float]]:
    """Encode a raw training dataset and fit the softmax head on the latents."""
    latents = encode_rss(train_ds.rss_matrix(), encoder, rss_lo, rss_hi)
    head, history = train_softmax(latents, train_ds.labels(), cfg)
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
    model, history = train_dnn(normalize(train_ds, rss_lo, rss_hi), hidden_layers, cfg)
    return DnnClassifier(model, rss_lo, rss_hi), history


def save_model(clf, path: str) -> None:
    """Write a classifier as a self-describing JSON document.

    Parameter arrays are stored row-major as nested lists; floats use Python's
    shortest round-trip representation, so save -> load -> forward is
    bit-exact. The file is replaced atomically: a failed save leaves any
    previous file at `path` intact.
    """
    if isinstance(clf, LogNetClassifier):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "family": "lognet",
            "rss_lo": clf.rss_lo,
            "rss_hi": clf.rss_hi,
            "encoder": {
                "gate": clf.encoder.gate.value,
                "threshold": clf.encoder.threshold,
                "hidden_layers": clf.encoder.hidden_layers,
                "ap_count": clf.ap_count,
            },
            "class_labels": list(clf.head.class_labels),
            "weights": clf.head.weights.tolist(),
            "biases": clf.head.biases.tolist(),
        }
    elif isinstance(clf, DnnClassifier):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "family": "dnn",
            "rss_lo": clf.rss_lo,
            "rss_hi": clf.rss_hi,
            "widths": list(clf.model.widths),
            "class_labels": list(clf.model.class_labels),
            "layers": [
                {"weights": W.tolist(), "biases": b.tolist()} for W, b in clf.model.layers
            ],
        }
    else:
        raise ShapeError(f"cannot serialize {type(clf).__name__}")
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path: str):
    """Load a classifier written by save_model."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object", path=path)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}", path=path)
    family = doc.get("family")
    try:
        if family == "lognet":
            enc = doc["encoder"]
            encoder = LogicEncoderConfig(
                gate=GateType.from_name(enc["gate"]),
                threshold=enc["threshold"],
                hidden_layers=enc["hidden_layers"],
            )
            head = SoftmaxModel(
                np.asarray(doc["weights"], dtype=np.float64),
                np.asarray(doc["biases"], dtype=np.float64),
                tuple(doc["class_labels"]),
            )
            return LogNetClassifier(encoder, head, enc["ap_count"], doc["rss_lo"], doc["rss_hi"])
        if family == "dnn":
            layers = tuple(
                (
                    np.asarray(layer["weights"], dtype=np.float64),
                    np.asarray(layer["biases"], dtype=np.float64),
                )
                for layer in doc["layers"]
            )
            model = DnnModel(layers, tuple(doc["class_labels"]))
            return DnnClassifier(model, doc["rss_lo"], doc["rss_hi"])
    except KeyError as exc:
        raise ParseError(f"model document lacks key {exc.args[0]!r}", path=path) from None
    raise ParseError(f"unknown model family {family!r}", path=path)
