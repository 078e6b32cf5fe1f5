"""Experiment configuration and the end-to-end train/evaluate pipeline."""

from __future__ import annotations

import dataclasses
import numbers
import os
import shutil
import sys
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import DEFAULT_RSS_HI, DEFAULT_RSS_LO, Dataset, split_train_test
from .errors import ConfigError, StageError, ValidationError
from .evaluate import (
    EvalReport,
    evaluate,
    export_gray_bitmap,
    export_latent_bitmap,
    latent_diff,
    majority_by_rp,
    measure_latency,
)
from .fileio import (
    atomic_write,
    read_delta_csv,
    read_fingerprints_csv,
    read_rp_map_csv,
    write_fingerprints_csv,
    write_latents_csv,
    write_rp_map_csv,
)
from .gates import GateType, LatentCode, LogicEncoderConfig
from .models import TrainConfig, dnn_hidden_activations
from .noise import (
    NoiseMode,
    NoiseSpec,
    SynthSpec,
    TemporalSchedule,
    simulate_cis,
    synth_dataset,
)
from .pipeline import DnnClassifier, LogNetClassifier, fit_dnn, fit_lognet, save_model

# Training epoch defaults per family: the gate encoder needs no training, so
# only its head is fitted and far fewer epochs suffice.
DEFAULT_EPOCHS = {"lognet": 150, "dnn": 500}

OUT_ROOT_ENV = "LOGNET_OUT_ROOT"


@dataclass
class ExperimentConfig:
    """Everything one pipeline run needs; exactly one data source is allowed."""

    out_dir: str
    data_path: str | None = None
    rp_map_path: str | None = None
    synth: SynthSpec | None = None
    model_family: str = "lognet"
    gate: GateType = GateType.NOR
    hidden_layers: int = 1
    threshold: float = 0.5
    rss_lo: float = DEFAULT_RSS_LO
    rss_hi: float = DEFAULT_RSS_HI
    per_rp_holdout: int = 1
    train: TrainConfig | None = None
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec(NoiseMode.ED, -4.0, 1.0, 0))
    schedule: TemporalSchedule = field(default_factory=TemporalSchedule.default)
    latency_repetitions: int = 3

    def __post_init__(self):
        if self.train is None:
            self.train = TrainConfig(epochs=DEFAULT_EPOCHS.get(self.model_family, 150))

    def validate(self) -> None:
        has_files = self.data_path is not None
        if has_files == (self.synth is not None):
            raise ConfigError("exactly one of data paths or a synth spec must be given")
        if has_files:
            if self.rp_map_path is None:
                raise ConfigError("a fingerprint CSV needs an accompanying RP map CSV")
            for p in (self.data_path, self.rp_map_path):
                if not os.path.exists(p):
                    raise ConfigError(f"referenced file does not exist: {p}")
        if self.model_family not in ("lognet", "dnn"):
            raise ConfigError(f"model family must be 'lognet' or 'dnn', got '{self.model_family}'")
        if self.per_rp_holdout < 1:
            raise ConfigError("the pipeline needs per_rp_holdout >= 1 to form a test split")
        if self.hidden_layers < 1:
            raise ConfigError(f"hidden_layers must be >= 1, got {self.hidden_layers}")
        if self.latency_repetitions < 3:
            raise ConfigError("latency_repetitions must be >= 3")

    def encoder_config(self) -> LogicEncoderConfig:
        return LogicEncoderConfig(self.gate, self.threshold, self.hidden_layers)

    def to_dict(self) -> dict:
        """Full echo of every knob and seed needed to reproduce the run."""
        return {
            "out_dir": self.out_dir,
            "data": (
                {"fingerprints": self.data_path, "rp_map": self.rp_map_path}
                if self.data_path is not None
                else None
            ),
            "synth": dataclasses.asdict(self.synth) if self.synth is not None else None,
            "model": {
                "family": self.model_family,
                "gate": self.gate.value if self.model_family == "lognet" else None,
                "hidden_layers": self.hidden_layers,
                "threshold": self.threshold,
            },
            "rss_range": [self.rss_lo, self.rss_hi],
            "per_rp_holdout": self.per_rp_holdout,
            "train": dataclasses.asdict(self.train),
            "noise": {
                "mode": self.noise.mode.value,
                "delta": np.asarray(self.noise.delta).tolist(),
                "sigma": np.asarray(self.noise.stochastic_sigma).tolist(),
                "seed": self.noise.seed,
            },
            "schedule": [list(e) for e in self.schedule.entries],
            "latency_repetitions": self.latency_repetitions,
        }

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "ExperimentConfig":
        def respath(p):
            if p is None or os.path.isabs(p) or base_dir == ".":
                return p
            return os.path.join(base_dir, p)

        _check_keys(doc, _CONFIG_KEYS)
        data = doc.get("data") or {}
        synth_doc = doc.get("synth")
        model = doc.get("model") or {}
        family = model.get("family", "lognet")
        train_doc = {"epochs": DEFAULT_EPOCHS.get(family, 150), **(doc.get("train") or {})}
        train = TrainConfig(**train_doc)
        noise_doc = doc.get("noise") or {}
        mode = NoiseMode.from_name(noise_doc.get("mode", "ed"))
        if "delta_csv" in noise_doc:
            delta = read_delta_csv(respath(noise_doc["delta_csv"]))
        else:
            delta = noise_doc.get("delta", -4.0)
        noise = NoiseSpec(mode, delta, noise_doc.get("sigma", 0.0), noise_doc.get("seed", 0))
        sched_doc = doc.get("schedule")
        schedule = (
            TemporalSchedule(sched_doc) if sched_doc is not None else TemporalSchedule.default()
        )
        rss_range = doc.get("rss_range", [DEFAULT_RSS_LO, DEFAULT_RSS_HI])
        gate_name = model.get("gate") or "nor"
        return cls(
            out_dir=respath(doc.get("out_dir", "out")),
            data_path=respath(data.get("fingerprints")),
            rp_map_path=respath(data.get("rp_map")),
            synth=_synth_spec(synth_doc) if synth_doc is not None else None,
            model_family=family,
            gate=GateType.from_name(gate_name),
            hidden_layers=model.get("hidden_layers", 1),
            threshold=model.get("threshold", 0.5),
            rss_lo=rss_range[0],
            rss_hi=rss_range[1],
            per_rp_holdout=doc.get("per_rp_holdout", 1),
            train=train,
            noise=noise,
            schedule=schedule,
            latency_repetitions=doc.get("latency_repetitions", 3),
        )


# Every key from_dict reads: section name -> its keys, each leaf holding the
# type its value must have. A JSON array is a list or tuple, a float is a
# finite number (an int counts), and a bool is not a number. A null section
# means its defaults.
_CONFIG_KEYS = {
    "out_dir": str,
    "data": {"fingerprints": str | None, "rp_map": str | None},
    "synth": typing.get_type_hints(SynthSpec),
    "model": {"family": str, "gate": str | None, "hidden_layers": int, "threshold": float},
    "rss_range": tuple[float, float],
    "per_rp_holdout": int,
    "train": typing.get_type_hints(TrainConfig),
    "noise": {
        "mode": str,
        "delta": float | list[float],
        "delta_csv": str,
        "sigma": float | list[float],
        "seed": int,
    },
    "schedule": list[tuple[int, float]],
    "latency_repetitions": int,
}


def _check_keys(doc, allowed: dict, prefix: str = "") -> None:
    """Reject a key that from_dict would ignore, or a value of the wrong type, naming its path."""
    if not isinstance(doc, dict):
        where = f"config key '{prefix[:-1]}'" if prefix else "config"
        raise ConfigError(f"{where} must hold a JSON object")
    for key, value in doc.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        kind = allowed[key]
        if isinstance(kind, dict):
            if value is not None:
                _check_keys(value, kind, f"{prefix}{key}.")
        elif not _has_type(value, kind):
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            raise ConfigError(f"config key '{prefix}{key}' must be {name}, got {value!r}")


def _has_type(value, kind) -> bool:
    """Whether a config value has a leaf type of _CONFIG_KEYS."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return any(_has_type(value, k) for k in args)
    if origin is list:
        return isinstance(value, (list, tuple)) and all(_has_type(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_has_type, value, args)))
    if isinstance(value, bool):
        return False
    if kind is float:
        # NaN, an infinity or an int beyond float64's range is no usable float.
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Integral if kind is int else kind)


def _synth_spec(doc: dict) -> SynthSpec:
    fields = dataclasses.fields(SynthSpec)
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in doc]
    if missing:
        raise ConfigError(f"missing config key 'synth.{missing[0]}'")
    return SynthSpec(**doc)


def _write_lognet_artifacts(clf: LogNetClassifier, train_ds: Dataset, out: Path) -> None:
    rp_ids, rows = majority_by_rp(train_ds.labels(), clf.latent_matrix(train_ds))
    write_latents_csv(rp_ids, rows, out / "latents.csv")
    depth, n = clf.encoder.hidden_layers, clf.ap_count
    by_rp = {rp: LatentCode(row, depth, n) for rp, row in zip(rp_ids, rows)}
    export_latent_bitmap(by_rp, out / "latent_bitmap.pgm")
    blocks = []
    for rp_a, rp_b in zip(rp_ids, rp_ids[1:]):
        diff = latent_diff([by_rp[rp_a]], [by_rp[rp_b]], rp_a, rp_b)
        blocks.append(diff.format_table())
    atomic_write(out / "trace.txt", "\n\n".join(blocks) + "\n")


def _write_dnn_artifacts(clf: DnnClassifier, train_ds: Dataset, out: Path) -> None:
    from .data import normalize_values

    norm = normalize_values(train_ds.rss_matrix(), clf.rss_lo, clf.rss_hi)
    hidden = dnn_hidden_activations(clf.model, norm)
    labels = train_ds.labels()
    rp_ids = sorted(set(int(l) for l in labels))
    rows = np.stack([hidden[labels == rp].mean(axis=0) for rp in rp_ids])
    export_gray_bitmap(rows, out / "latent_gray.pgm")


@contextmanager
def _stage(name: str, out: Path):
    """Run one pipeline stage; on failure move out/.staging to out/quarantine and raise StageError."""
    try:
        yield
    except Exception as exc:
        quarantine = out / "quarantine"
        if quarantine.exists():
            shutil.rmtree(quarantine)
        (out / ".staging").rename(quarantine)
        raise StageError(name, exc) from exc


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Run synth-or-ingest -> normalize -> split -> train -> evaluate -> artifacts.

    All outputs land in cfg.out_dir. Artifacts are staged and only moved into
    place when the run succeeds; on failure the partial outputs end up under
    cfg.out_dir/quarantine and a StageError names the failed stage.
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    staging = out / ".staging"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)

    # Stage: load (synthesize or ingest a clean CI:0 dataset).
    with _stage("load", out):
        if cfg.synth is not None:
            ds, rp_map = synth_dataset(cfg.synth)
            write_fingerprints_csv(ds, staging / "fingerprints.csv")
            write_rp_map_csv(rp_map, staging / "rp_map.csv")
        else:
            ds = read_fingerprints_csv(cfg.data_path)
            rp_map = read_rp_map_csv(cfg.rp_map_path)
        if ds.cis != (0,):
            raise ValidationError(
                "the pipeline trains at CI:0 and simulates later CIs itself; "
                "use the 'eval' command to score existing multi-CI data"
            )
        rp_map.require_covers(ds)

    with _stage("split", out):
        train_ds, test_ds = split_train_test(ds, cfg.per_rp_holdout, cfg.train.seed)
    del ds  # the split copied its rows; release the full matrix for the later stages

    # Stage: train at CI:0.
    with _stage("train", out):
        if cfg.model_family == "lognet":
            clf, history = fit_lognet(
                train_ds, cfg.encoder_config(), cfg.train, cfg.rss_lo, cfg.rss_hi
            )
        else:
            clf, history = fit_dnn(train_ds, cfg.hidden_layers, cfg.train, cfg.rss_lo, cfg.rss_hi)

    # Stage: simulate the temporal schedule over the held-out fingerprints.
    with _stage("simulate", out):
        test_cis = simulate_cis(test_ds, cfg.noise, cfg.schedule)

    # Stage: evaluate across all CIs.
    with _stage("evaluate", out):
        report = evaluate(clf, test_cis, rp_map, config=cfg.to_dict())
        report.model_meta.update(
            {
                "family": cfg.model_family,
                "gate": cfg.gate.value if cfg.model_family == "lognet" else None,
                "hidden_layers": cfg.hidden_layers,
                "final_loss": history[-1] if history else None,
            }
        )

    # Stage: latency (kept out of the deterministic report body by field name).
    with _stage("latency", out):
        latency = measure_latency(clf, test_cis, cfg.latency_repetitions)
        report.model_meta["latency_ms"] = latency.milliseconds
        report.model_meta["environment"] = latency.environment

    with _stage("artifacts", out):
        save_model(clf, staging / "model.json")
        if history:
            lines = ["epoch,loss"] + [f"{i},{repr(l)}" for i, l in enumerate(history)]
            atomic_write(staging / "loss_history.csv", "\n".join(lines) + "\n")
        if isinstance(clf, LogNetClassifier):
            _write_lognet_artifacts(clf, train_ds, staging)
        else:
            _write_dnn_artifacts(clf, train_ds, staging)
        report.write(staging / "report.json")

    for item in sorted(staging.iterdir()):
        target = out / item.name
        if target.exists():
            target.unlink()
        item.rename(target)
    staging.rmdir()
    return report


def _dataset_signature(cfg: ExperimentConfig) -> dict:
    echo = cfg.to_dict()
    return {
        k: echo[k]
        for k in ("data", "synth", "rss_range", "per_rp_holdout", "noise", "schedule")
    } | {"seed": cfg.train.seed}


@dataclass
class ComparisonTable:
    """One row per model variant with per-CI errors and model accounting."""

    cis: tuple[int, ...]
    rows: list[dict]

    def header(self) -> list[str]:
        return ["model", "gate", "hidden_layers", "params", "size_bytes", "latency_ms"] + [
            f"err_ci{ci}_m" for ci in self.cis
        ]

    def _cells(self, row: dict) -> list[str]:
        fixed = [
            row["model"],
            row["gate"] or "-",
            str(row["hidden_layers"]),
            str(row["params"]),
            str(row["size_bytes"]),
            f"{row['latency_ms']:.3f}",
        ]
        return fixed + [f"{row['per_ci'][ci]:.4f}" for ci in self.cis]

    def to_csv(self, path: str) -> None:
        lines = [",".join(self.header())] + [",".join(self._cells(r)) for r in self.rows]
        atomic_write(path, "\n".join(lines) + "\n")

    def format_text(self) -> str:
        table = [self.header()] + [self._cells(r) for r in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table
        )


def compare_models(cfgs: Sequence[ExperimentConfig]) -> ComparisonTable:
    """Run several variants over one dataset and tabulate the results.

    All configs must describe the same dataset, split and noise seeds; only
    the model settings may differ.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValidationError("compare_models needs at least one config")
    reference = _dataset_signature(cfgs[0])
    for cfg in cfgs[1:]:
        if _dataset_signature(cfg) != reference:
            raise ValidationError("all compared configs must share dataset settings and seeds")
    if len({cfg.out_dir for cfg in cfgs}) != len(cfgs):
        raise ValidationError("each compared config needs its own out_dir")

    rows = []
    cis: tuple[int, ...] = ()
    for cfg in cfgs:
        report = run_experiment(cfg)
        cis = tuple(sorted(report.per_ci))
        rows.append(
            {
                "model": cfg.model_family,
                "gate": cfg.gate.value if cfg.model_family == "lognet" else None,
                "hidden_layers": cfg.hidden_layers,
                "params": report.model_meta["params"],
                "size_bytes": report.model_meta["size_bytes"],
                "latency_ms": report.model_meta["latency_ms"],
                "per_ci": {ci: report.per_ci[ci].mean_error_m for ci in report.per_ci},
            }
        )
    return ComparisonTable(cis, rows)
