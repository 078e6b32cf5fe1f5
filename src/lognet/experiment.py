"""Experiment configuration and the end-to-end train/evaluate pipeline."""

from __future__ import annotations

import dataclasses
import os
import shutil
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    DEFAULT_RSS_HI, DEFAULT_RSS_LO, DEFAULT_THRESHOLD, Dataset, _check_fields, _field_hints,
    _has_type, _must_be, check_rss_range, check_threshold, normalize_values, split_train_test,
)
from .errors import ConfigError, StageError, ValidationError
from .evaluate import (
    EvalReport,
    LatentDiff,
    evaluate,
    export_gray_bitmap,
    majority_by_rp,
    measure_latency,
    write_latent_bitmap,
)
from .fileio import (
    _copy_verified,
    _sha256,
    atomic_write,
    read_delta_csv,
    read_fingerprints_csv,
    read_rp_map_csv,
    write_fingerprints_csv,
    write_latents_csv,
    write_rp_map_csv,
)
from .gates import GateType, LatentCode, LogicEncoderConfig, check_depth
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

# repr(synth spec) -> (path, SHA-256) of the fingerprints.csv that the last
# successful run of that spec left in its out_dir. The repr tells 1 from 1.0.
_SYNTH_FILES: dict[str, tuple[Path, str]] = {}


@dataclass(frozen=True)
class ConfigKey:
    """One key path of the run-config document, and the CLI flag that overrides it.

    `attr` is the ExperimentConfig attribute it sets: "noise.seed" is the `seed`
    of `noise`, and a tuple of names takes the value's items in turn. `kind` is
    the JSON type of the value, `required` whether its section must give it,
    and `parse` makes the attribute's value from it. Defaults are not kept
    here: an omitted key keeps the value ExperimentConfig(...) gives it.
    """

    path: str
    attr: str | tuple[str, ...]
    kind: object
    flag: str | None = None
    metavar: str | None = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    parse: typing.Callable | None = None
    is_path: bool = False  # a file or directory
    required: bool = False


def _spec_keys(section: str, spec: type, **flags: tuple) -> list[ConfigKey]:
    """One key per field of the dataclass behind a section, typed as the field."""
    hints = _field_hints(spec)
    return [ConfigKey(f"{section}.{f.name}", f"{section}.{f.name}", hints[f.name],
                      *flags.get(f.name, ()), required=f.default is MISSING)
            for f in dataclasses.fields(spec)]


# The run-config schema, in CLI flag order. Parsing, type checks, the echo and
# the CLI flags all derive from it.
CONFIG_KEYS = {key.path: key for key in (
    ConfigKey("data.fingerprints", "data_path", str | None, "--data", "CSV",
              "fingerprint CSV path", is_path=True),
    ConfigKey("data.rp_map", "rp_map_path", str | None, "--rp-map", "CSV",
              "RP coordinate CSV path", is_path=True),
    *_spec_keys("synth", SynthSpec, num_rps=("--synth-rps", "K"), num_aps=("--synth-aps", "N"),
                fingerprints_per_rp=("--synth-per-rp", "M"), seed=("--synth-seed", "N")),
    ConfigKey("model.family", "model_family", str, "--model", help="model family",
              choices=tuple(DEFAULT_EPOCHS)),
    ConfigKey("model.gate", "gate", str | None, "--gate",
              help="logic gate for lognet", choices=tuple(g.value for g in GateType),
              parse=GateType.from_name),
    ConfigKey("model.hidden_layers", "hidden_layers", int, "--hidden", "N",
              "number of hidden/logic layers"),
    ConfigKey("model.threshold", "threshold", float, "--threshold", "F",
              "binarization threshold in (0,1)"),
    *_spec_keys("train", TrainConfig, learning_rate=("--lr", "F", "learning rate"),
                epochs=("--epochs", "N", "training epochs"),
                seed=("--seed", "N", "seed for split/init/batching"),
                batch_size=("--batch-size", "N", "minibatch size (default full batch)")),
    ConfigKey("noise.mode", "noise.mode", str, "--noise-mode",
              help="noise structure", choices=tuple(m.value for m in NoiseMode),
              parse=NoiseMode.from_name),
    ConfigKey("noise.delta", "noise.delta", float | list[float], "--delta", "DB",
              "ED delta in dB"),
    # Reads noise.delta from a file; the echo holds the deltas under noise.delta.
    ConfigKey("noise.delta_csv", "noise.delta", str, "--delta-csv", "CSV",
              "per-AP deltas (ap_index,delta_db)", parse=read_delta_csv, is_path=True),
    ConfigKey("noise.sigma", "noise.stochastic_sigma", float | list[float], "--sigma", "DB",
              "stochastic jitter stddev in dB"),
    ConfigKey("noise.seed", "noise.seed", int, "--noise-seed", "N", "noise seed"),
    ConfigKey("schedule", "schedule.entries", list[tuple[int, float]], "--schedule", "FILE",
              "JSON temporal schedule [[ci, mult], ...]"),
    ConfigKey("per_rp_holdout", "per_rp_holdout", int, "--holdout", "N",
              "test fingerprints per (RP, CI)"),
    ConfigKey("out_dir", "out_dir", str, "--out", "DIR", is_path=True),
    ConfigKey("rss_range", ("rss_lo", "rss_hi"), tuple[float, float]),
    ConfigKey("latency_repetitions", "latency_repetitions", int),
)}


def key_tree(pairs) -> dict:
    """The nested document holding each (dotted key path, value) pair; a later pair wins."""
    tree: dict = {}
    for path, value in pairs:
        *sections, leaf = path.split(".")
        node = tree
        for name in sections:
            node = node.setdefault(name, {})
        node[leaf] = value
    return tree


# The key types by section, as _check_keys walks them with `_has_type`.
_CONFIG_KEYS = key_tree((key.path, key.kind) for key in CONFIG_KEYS.values())


@dataclass
class ExperimentConfig:
    """Everything one pipeline run needs; exactly one data source is allowed.

    Its defaults, and those of its section dataclasses, are the defaults of a
    config file and of the command line too.
    """

    out_dir: str = "out"
    data_path: str | None = None
    rp_map_path: str | None = None
    synth: SynthSpec | None = None
    model_family: str = "lognet"
    gate: GateType = GateType.NOR
    hidden_layers: int = 1
    threshold: float = DEFAULT_THRESHOLD
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
        paths = {name: key.path for key in CONFIG_KEYS.values()
                 for name in (key.attr if isinstance(key.attr, tuple) else (key.attr,))}
        _check_fields(self, lambda name: f"config key '{paths.get(name, name)}': {name}")
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
        _naming_key("model.hidden_layers", check_depth, self.hidden_layers)
        if self.latency_repetitions < 3:
            raise ConfigError("latency_repetitions must be >= 3")
        if self.model_family == "lognet":  # a dnn binarizes nothing, so takes any threshold
            _naming_key("model.threshold", check_threshold, self.threshold)
        _naming_key("rss_range", check_rss_range, self.rss_lo, self.rss_hi)

    def encoder_config(self) -> LogicEncoderConfig:
        return LogicEncoderConfig(self.gate, self.threshold, self.hidden_layers)

    def to_dict(self) -> dict:
        """Full echo of every knob and seed needed to reproduce the run."""
        # attribute -> key path; of two keys that set one attribute, the first echoes it
        paths = {key.attr: key.path for key in reversed(CONFIG_KEYS.values())}
        echo = key_tree((path, _echo(self, attr)) for attr, path in paths.items())
        if self.data_path is None:
            echo["data"] = None
        if self.synth is None:
            echo["synth"] = None
        if self.model_family != "lognet":
            echo["model"]["gate"] = None
        return echo

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "ExperimentConfig":
        """Build a config from a document; a relative path is taken from `base_dir`.

        An omitted key (or a null one, where its type allows null) keeps the
        value the constructor gives it, and a partly given `train`, `noise` or
        `schedule` section replaces only the keys it gives. There is a synth spec only if the document gives a
        synth section.
        """
        _check_keys(doc, _CONFIG_KEYS)
        attrs = []
        for key in CONFIG_KEYS.values():
            section, _, leaf = key.path.rpartition(".")
            value = ((doc.get(section) or {}) if section else doc).get(leaf)
            if value is None and key.required and doc.get(section) is not None:
                raise ConfigError(f"missing config key '{key.path}'")
            if value is None:  # the attribute keeps its default
                continue
            if key.is_path and not (os.path.isabs(value) or base_dir == "."):
                value = os.path.join(base_dir, value)
            value = key.parse(value) if key.parse else value
            attrs += zip(key.attr, value) if isinstance(key.attr, tuple) else [(key.attr, value)]
        kwargs = key_tree(attrs)
        if "synth" in kwargs:
            kwargs["synth"] = SynthSpec(**kwargs["synth"])
        sections = {name: kwargs.pop(name, {}) for name in ("train", "noise", "schedule")}
        cfg = cls(**kwargs)
        for name, given in sections.items():
            setattr(cfg, name, dataclasses.replace(getattr(cfg, name), **given))
        return cfg


def _echo(cfg: ExperimentConfig, attr):
    """A ConfigKey's attribute as the echo holds it: enums by value, arrays as lists."""
    if isinstance(attr, tuple):
        return [_echo(cfg, name) for name in attr]
    value = cfg
    for name in attr.split("."):
        value = None if value is None else getattr(value, name)  # a synth of None
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    return [list(e) for e in value] if isinstance(value, tuple) else value  # schedule entries


def _naming_key(path: str, check, *args) -> None:
    """Run check(*args), naming config key `path` in the ConfigError it raises."""
    try:
        check(*args)
    except ConfigError as exc:
        raise ConfigError(f"config key '{path}': {exc}") from None


def _check_keys(doc, allowed: dict, prefix: str = "") -> None:
    """Reject a key that from_dict would ignore, or a value of the wrong type, naming its path."""
    if not isinstance(doc, dict):
        where = f"config key '{prefix[:-1]}'" if prefix else "config"
        raise ConfigError(_must_be(where, dict, doc))
    for key, value in doc.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        kind = allowed[key]
        if isinstance(kind, dict):
            if value is not None:
                _check_keys(value, kind, f"{prefix}{key}.")
        elif not _has_type(value, kind):
            raise ConfigError(_must_be(f"config key '{prefix}{key}'", kind, value))


def _write_lognet_artifacts(clf: LogNetClassifier, train_ds: Dataset, out: Path) -> None:
    rp_ids, rows = majority_by_rp(train_ds.rp_id, clf.latent_matrix(train_ds))
    write_latents_csv(rp_ids, rows, out / "latents.csv")
    write_latent_bitmap(rows, out / "latent_bitmap.pgm")
    codes = [LatentCode(row, clf.encoder.hidden_layers, clf.ap_count) for row in rows]
    blocks = [LatentDiff.between(a, b, rp_a, rp_b).format_table()
              for rp_a, rp_b, a, b in zip(rp_ids, rp_ids[1:], codes, codes[1:])]
    atomic_write(out / "trace.txt", "\n\n".join(blocks) + "\n")


def _write_dnn_artifacts(clf: DnnClassifier, train_ds: Dataset, out: Path) -> None:
    hidden = dnn_hidden_activations(
        clf.model, normalize_values(train_ds.rss_matrix(), clf.rss_lo, clf.rss_hi)
    )
    # One block of row indices per RP, ascending; the stable sort keeps each
    # block in row order, so every mean adds the same rows in the same order
    # as a per-RP mask would.
    order = np.argsort(train_ds.rp_id, kind="stable")
    _, starts = np.unique(train_ds.rp_id[order], return_index=True)
    rows = np.stack([hidden[block].mean(axis=0) for block in np.split(order, starts[1:])])
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


def _stage_synth_csv(ds: Dataset, spec: SynthSpec, path: Path) -> str:
    """Write the fingerprints.csv of `spec`'s dataset `ds` at `path`; return its SHA-256.

    The file a past run of the same spec registered is copied if it still
    has its registered digest. Synthesis and formatting are deterministic,
    so its bytes are those a fresh write gives. Otherwise `ds` is formatted
    afresh and the new file hashed.
    """
    known = _SYNTH_FILES.get(repr(spec))
    if known and _copy_verified(known[0], path, known[1]):
        return known[1]
    write_fingerprints_csv(ds, path)
    return _sha256(path)


def fit_model(train_ds: Dataset, cfg: ExperimentConfig):
    """Fit cfg's model family on a raw dataset; return (classifier, loss history)."""
    if cfg.model_family == "lognet":
        return fit_lognet(train_ds, cfg.encoder_config(), cfg.train, cfg.rss_lo, cfg.rss_hi)
    return fit_dnn(train_ds, cfg.hidden_layers, cfg.train, cfg.rss_lo, cfg.rss_hi)


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Run synth-or-ingest -> normalize -> split -> train -> evaluate -> artifacts.

    All outputs land in cfg.out_dir. Artifacts are staged and only moved into
    place when the run succeeds; on failure the partial outputs end up under
    cfg.out_dir/quarantine and a StageError names the failed stage. A
    synthetic run writes fingerprints.csv and rp_map.csv too; once it
    succeeds, a later run of the same spec in this process copies its
    fingerprints.csv, SHA-256 verified, instead of formatting it again.
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
            synth_sha256 = _stage_synth_csv(ds, cfg.synth, staging / "fingerprints.csv")
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
        clf, history = fit_model(train_ds, cfg)

    # Stage: simulate the temporal schedule over the held-out fingerprints.
    with _stage("simulate", out):
        test_cis = simulate_cis(test_ds, cfg.noise, cfg.schedule)
    del test_ds  # simulate_cis copied its rows; evaluate and latency read only test_cis

    # Stage: evaluate across all CIs.
    with _stage("evaluate", out):
        report = evaluate(clf, test_cis, rp_map, config=cfg.to_dict())
        model = report.config["model"]
        report.model_meta.update({k: model[k] for k in ("family", "gate", "hidden_layers")})
        report.model_meta["final_loss"] = history[-1] if history else None

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
        item.replace(out / item.name)
    staging.rmdir()
    if cfg.synth is not None:
        _SYNTH_FILES[repr(cfg.synth)] = ((out / "fingerprints.csv").absolute(), synth_sha256)
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
        meta = report.model_meta
        per_ci = {ci: stats.mean_error_m for ci, stats in report.per_ci.items()}
        keys = ("gate", "hidden_layers", "params", "size_bytes", "latency_ms")
        rows.append({"model": meta["family"], "per_ci": per_ci} | {k: meta[k] for k in keys})
    return ComparisonTable(cis, rows)
