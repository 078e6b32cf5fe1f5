"""Metrics and analyses: localization error, latency, latent diffing, bitmaps."""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, RpMap, _check_dataset, _field_hints, _floats, _has_type, _must_be
from .errors import ShapeError, ValidationError
from .fileio import atomic_open, read_pgm, write_pgm
from .gates import LatentCode, _windows, check_bits
from .models import count_params, model_size_bytes
from .pipeline import _check_aps, _field


def sample_errors(preds, truth, rp_map: RpMap) -> np.ndarray:
    """Per-sample Euclidean distance in meters between predicted and true RPs."""
    preds, truth = np.asarray(preds), np.asarray(truth)
    if preds.shape != truth.shape:
        raise ShapeError(f"{preds.size} predictions for {truth.size} ground-truth labels")
    if preds.size == 0:
        raise ValidationError("cannot score an empty prediction list")
    if preds.ndim != 1:
        raise ShapeError(f"predictions and labels must be 1-D, got shape {preds.shape}")
    for name, ids in (("predictions", preds), ("labels", truth)):
        if ids.dtype.kind not in "iu":  # a fraction or a bool is no RP id to truncate
            raise ValidationError(_must_be(name, "integers", ids))
    ids, first, index = np.unique(np.concatenate((preds, truth)), return_index=True,
                                  return_inverse=True)
    xy = np.empty((ids.size, 2))
    # Look each RP up in order of first use, so the first unknown prediction
    # (else the first unknown label) is the one an UnknownRpError names.
    for k in np.argsort(first).tolist():
        xy[k] = rp_map.coords(int(ids[k]))
    return np.linalg.norm(xy[index[:preds.size]] - xy[index[preds.size:]], axis=1)


def mean_localization_error(preds, truth, rp_map: RpMap) -> float:
    """Mean distance in meters between predicted and true RP coordinates."""
    return float(sample_errors(preds, truth, rp_map).mean())


@dataclass(frozen=True)
class CiStats:
    """Error and accuracy summary for one collection instance."""

    mean_error_m: float
    min_error_m: float
    max_error_m: float
    accuracy: float
    samples: int

    def __post_init__(self):
        if not self.min_error_m <= self.mean_error_m <= self.max_error_m:
            raise ValidationError("per-CI stats require min <= mean <= max")
        if self.mean_error_m < 0:
            raise ValidationError("mean error must be non-negative")


@dataclass
class EvalReport:
    """Per-CI metrics plus model accounting and a reproducibility config echo."""

    per_ci: dict[int, CiStats]
    model_meta: dict
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.per_ci:
            raise ValidationError("report must cover at least one collection instance")

    def to_json(self) -> str:
        doc = {
            "schema_version": 1,
            "per_ci": {str(ci): asdict(s) for ci, s in sorted(self.per_ci.items())},
            "model_meta": self.model_meta,
            "config": self.config,
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """The report that `to_json` wrote; other text raises ValidationError saying what is wrong."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"report is not JSON: {exc}") from None
        per_ci = {}
        for ci, stats in _field(doc, "per_ci", dict, "report").items():
            if not ci.isdecimal():
                raise ValidationError(_must_be("report.per_ci key", "a CI number", ci))
            where = f"report.per_ci[{ci}]"
            per_ci[int(ci)] = CiStats(**{name: _field(stats, name, kind, where)
                                         for name, kind in _field_hints(CiStats).items()})
        return cls(per_ci, _field(doc, "model_meta", dict, "report"), doc.get("config", {}))

    def write(self, path: str) -> None:
        """Replace `path` atomically with the JSON report."""
        with atomic_open(path) as fh:
            fh.write(self.to_json())


def evaluate(classifier, test: Dataset, rp_map: RpMap, config: dict | None = None) -> EvalReport:
    """Score a classifier per collection instance on a (possibly multi-CI) test set."""
    _check_dataset("test", test)
    _check_aps(classifier, test)
    rp_map.require_covers(test)
    per_ci = {}
    for ci in test.cis:
        subset = test.with_ci(ci)
        preds = classifier.predict(subset)
        errors = sample_errors(preds, subset.rp_id, rp_map)
        lo, hi = float(errors.min()), float(errors.max())
        per_ci[ci] = CiStats(
            # A float mean of equal samples can round just outside [lo, hi].
            mean_error_m=min(max(float(errors.mean()), lo), hi),
            min_error_m=lo,
            max_error_m=hi,
            accuracy=float((preds == subset.rp_id).mean()),
            samples=int(len(subset)),
        )
    meta = {
        "params": count_params(classifier),
        "size_bytes": model_size_bytes(classifier),
    }
    return EvalReport(per_ci, meta, config or {})


@dataclass(frozen=True)
class LatencyResult:
    """Median full-test-set inference time plus the machine it was measured on."""

    milliseconds: float
    repetitions: int
    environment: dict


def environment_descriptor() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def measure_latency(classifier, test: Dataset, repetitions: int) -> LatencyResult:
    """Median wall-clock time of full-test-set inference, preprocessing included."""
    _check_dataset("test", test)
    if not (_has_type(repetitions, int) and repetitions >= 3):
        raise ValidationError(_must_be("repetitions", "an integer >= 3", repetitions))
    classifier.predict(test)  # warm-up outside the timed region
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        classifier.predict(test)
        times.append(time.perf_counter() - start)
    return LatencyResult(
        milliseconds=float(np.median(times) * 1e3),
        repetitions=repetitions,
        environment=environment_descriptor(),
    )


def majority_by_rp(rp_ids, bits) -> tuple[list[int], np.ndarray]:
    """Sorted RP ids and each RP's bitwise majority row; ties resolve to 1.

    `bits` holds one {0,1} row per entry of `rp_ids`.
    """
    bits = check_bits(bits)
    if bits.ndim != 2:
        raise ShapeError(f"latent rows must form a 2-D matrix, got shape {bits.shape}")
    if len(rp_ids) != len(bits):
        raise ShapeError(f"{len(rp_ids)} RP ids for {len(bits)} latent rows")
    if len(rp_ids) == 0:
        raise ValidationError("majority over an empty latent list")
    rps, group, counts = np.unique(rp_ids, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    ones = np.add.reduceat(bits[np.argsort(group)].astype(np.int64), starts, axis=0)
    return rps.tolist(), (2 * ones >= counts[:, None]).astype(np.uint8)


@dataclass(frozen=True)
class LatentDiff:
    """Positions where two RPs' majority latents disagree, with AP traces."""

    rp_a: int
    rp_b: int
    differing_bits: tuple[int, ...]
    ap_windows: tuple[range, ...]  # one window per differing bit
    majority_a: LatentCode
    majority_b: LatentCode

    @classmethod
    def between(cls, maj_a: LatentCode, maj_b: LatentCode, rp_a: int, rp_b: int) -> "LatentDiff":
        """Where two RPs' already-voted majority codes disagree."""
        if len(maj_a) != len(maj_b) or maj_a.input_len != maj_b.input_len:
            raise ShapeError("latent codes have mismatched shapes")
        differing = np.flatnonzero(maj_a.bits != maj_b.bits)
        windows = _windows(differing, maj_a.depth, maj_a.input_len)
        return cls(rp_a, rp_b, tuple(differing.tolist()), windows, maj_a, maj_b)

    def format_table(self) -> str:
        """Human-readable table: bit index -> AP window -> per-class bits."""
        lines = [
            f"latent diff: rp {self.rp_a} vs rp {self.rp_b} "
            f"({len(self.differing_bits)} differing bits)",
            f"{'bit':>5}  {'ap window':>14}  rp{self.rp_a:<6} rp{self.rp_b:<6}",
        ]
        bits_a, bits_b = self.majority_a.bits.tolist(), self.majority_b.bits.tolist()
        for bit, window in zip(self.differing_bits, self.ap_windows):
            span = f"[{window.start}, {window.stop})"
            lines.append(f"{bit:>5}  {span:>14}  {bits_a[bit]:<8} {bits_b[bit]:<8}")
        if not self.differing_bits:
            lines.append("  (identical latents)")
        return "\n".join(lines)


def write_latent_bitmap(rows: np.ndarray, path: str) -> None:
    """Write {0,1} latent rows as a PGM, one pixel row each: 0 maps to black, 1 to white."""
    write_pgm(check_bits(rows) * np.uint8(255), path)


def export_gray_bitmap(matrix: np.ndarray, path: str) -> None:
    """Write a real-valued matrix as a grayscale PGM with linear scaling."""
    arr = _floats("matrix", matrix)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError("grayscale export requires a non-empty 2-D matrix")
    if not np.isfinite(arr).all():
        raise ValidationError("grayscale export requires finite values")
    lo, hi = float(arr.min()), float(arr.max())
    # Halve only a range whose width overflows: halving is inexact on subnormals.
    k = 1.0 if math.isfinite(hi - lo) else 0.5
    scaled = np.zeros_like(arr) if hi == lo else (arr * k - lo * k) / (hi * k - lo * k)
    write_pgm(np.round(scaled * 255).astype(np.uint8), path)


def read_latent_bitmap(path: str) -> np.ndarray:
    """Read a latent bitmap back into a {0,1} matrix."""
    return (read_pgm(path) >= 128).astype(np.uint8)
