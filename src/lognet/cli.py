"""Command-line entry point: synth, train, eval, encode, bitmap, trace, compare, run."""

from __future__ import annotations

import argparse
import os
import sys
import typing
from pathlib import Path

from .data import _must_be
from .errors import ConfigError, LogNetError
from .evaluate import LatentDiff, evaluate, majority_by_rp, write_latent_bitmap
from .experiment import (
    CONFIG_KEYS,
    OUT_ROOT_ENV,
    ExperimentConfig,
    compare_models,
    fit_model,
    key_tree,
    run_experiment,
)
from .fileio import (
    atomic_write,
    read_fingerprints_csv,
    read_json,
    read_latents_csv,
    read_rp_map_csv,
    write_fingerprints_csv,
    write_latents_csv,
    write_rp_map_csv,
)
from .gates import LatentCode, ceil_chain
from .noise import SynthSpec, synth_dataset
from .pipeline import encode_rss, load_model, save_model


def _default_out(command: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV, "runs")
    return os.path.join(root, command)


def _out_dir(args) -> Path:
    out = Path(args.out if args.out else _default_out(args.command))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _flag_type(kind):
    """The argparse type of a flag for a key of JSON type `kind`: int, float or text."""
    first = (typing.get_args(kind) or (kind,))[0]
    return first if first in (int, float) else None


def _add_config_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """Add the flag of each config key in the named sections or key paths (or all), in table order."""
    for key in CONFIG_KEYS.values():
        named = key.path in sections or key.path.split(".")[0] in sections
        if key.flag and (named or not sections):
            p.add_argument(key.flag, dest=_dest(key.flag), type=_flag_type(key.kind),
                           metavar=key.metavar, choices=key.choices, help=key.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lognet",
        description="Logic-gate fingerprint encoder, DNN baseline, noise simulator "
        "and evaluation harness for Wi-Fi RSS indoor localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic CI:0 dataset")
    p.add_argument("--rps", type=int, required=True, help="number of reference points")
    p.add_argument("--aps", type=int, required=True, help="number of access points")
    p.add_argument("--per-rp", type=int, help="fingerprints per RP")
    p.add_argument("--seed", type=int)
    p.add_argument("--pattern", choices=["window", "random", "beacon-tint"])
    p.add_argument("--geometry", choices=["path", "grid"])
    _add_config_flags(p, "out_dir")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on a full fingerprint CSV")
    _add_config_flags(p, "data.fingerprints", "model", "train", "out_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a (multi-CI) dataset")
    p.add_argument("--model-file", required=True, metavar="JSON", help="saved model path")
    _add_config_flags(p, "data", "out_dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("encode", help="emit per-fingerprint latent codes as CSV")
    _add_config_flags(p, "data.fingerprints", "model.gate", "model.hidden_layers",
                      "model.threshold", "out_dir")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("bitmap", help="render latent codes as a binary-pixel PGM")
    p.add_argument("--latents", required=True, metavar="CSV")
    _add_config_flags(p, "out_dir")
    p.set_defaults(func=cmd_bitmap)

    p = sub.add_parser("trace", help="diff two RPs' latents and trace bits to APs")
    p.add_argument("--latents", required=True, metavar="CSV")
    _add_config_flags(p, "data.fingerprints")
    p.add_argument("--rp-a", type=int, required=True)
    p.add_argument("--rp-b", type=int, required=True)
    p.add_argument("--out", metavar="DIR", help="also write trace.txt here")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("run", help="full pipeline: load/synth, split, train, simulate, evaluate")
    p.add_argument("--config", metavar="JSON", help="experiment config file; flags override")
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several model variants on one dataset")
    p.add_argument("--config", metavar="JSON", help="base experiment config; flags override")
    _add_config_flags(p, "data", "synth")
    p.add_argument(
        "--variants",
        required=True,
        help="comma list like lognet-nor-1,lognet-xor-1,dnn-1,dnn-2",
    )
    _add_config_flags(p, "train", "noise", "schedule", "per_rp_holdout", "out_dir")
    p.set_defaults(func=cmd_compare)

    return parser


def cmd_synth(args) -> int:
    flags = {"fingerprints_per_rp": args.per_rp, "seed": args.seed, "base_pattern": args.pattern,
             "geometry": args.geometry}
    given = {name: value for name, value in flags.items() if value is not None}
    ds, rp_map = synth_dataset(SynthSpec(args.rps, args.aps, **given))
    out = _out_dir(args)
    write_fingerprints_csv(ds, out / "fingerprints.csv")
    write_rp_map_csv(rp_map, out / "rp_map.csv")
    print(f"wrote {len(ds)} fingerprints ({args.rps} RPs x {args.aps} APs) to {out}")
    return 0


def cmd_train(args) -> int:
    if not args.data:
        raise ConfigError("train requires --data")
    ds = read_fingerprints_csv(args.data)
    cfg = ExperimentConfig.from_dict(_flag_overrides(args))
    clf, history = fit_model(ds, cfg)
    out = _out_dir(args)
    save_model(clf, out / "model.json")
    loss = f"; final loss {history[-1]:.6f}" if history else ""
    print(f"trained {cfg.model_family} on {len(ds)} fingerprints{loss}")
    print(f"model written to {out / 'model.json'}")
    return 0


def cmd_eval(args) -> int:
    if not args.data or not args.rp_map:
        raise ConfigError("eval requires --data and --rp-map")
    clf = load_model(args.model_file)
    ds = read_fingerprints_csv(args.data)
    rp_map = read_rp_map_csv(args.rp_map)
    report = evaluate(clf, ds, rp_map)
    out = _out_dir(args)
    report.write(out / "report.json")
    for ci, stats in sorted(report.per_ci.items()):
        print(
            f"ci {ci}: mean {stats.mean_error_m:.3f} m  "
            f"min {stats.min_error_m:.3f}  max {stats.max_error_m:.3f}  "
            f"accuracy {stats.accuracy:.3f}"
        )
    print(f"report written to {out / 'report.json'}")
    return 0


def cmd_encode(args) -> int:
    if not args.data:
        raise ConfigError("encode requires --data")
    ds = read_fingerprints_csv(args.data)
    encoder = ExperimentConfig.from_dict(_flag_overrides(args)).encoder_config()
    latents = encode_rss(ds.rss_matrix(), encoder)
    out = _out_dir(args)
    write_latents_csv(ds.rp_id, latents, out / "latents.csv")
    print(f"encoded {len(ds)} fingerprints into {latents.shape[1]}-bit latents at {out / 'latents.csv'}")
    return 0


def cmd_bitmap(args) -> int:
    rp_ids, bits = read_latents_csv(args.latents)
    _, rows = majority_by_rp(rp_ids, bits)
    out = _out_dir(args)
    write_latent_bitmap(rows, out / "latent_bitmap.pgm")
    print(f"wrote {rows.shape[0]}x{rows.shape[1]} bitmap to {out / 'latent_bitmap.pgm'}")
    return 0


def cmd_trace(args) -> int:
    if not args.data:
        raise ConfigError("trace requires --data")
    data = read_fingerprints_csv(args.data)
    n = data.ap_count
    ids, rows = majority_by_rp(*read_latents_csv(args.latents))
    unknown = sorted(set(ids) - set(data.rp_id.tolist()))
    if unknown:
        raise ConfigError(f"rp {unknown[0]} of {args.latents} has no fingerprint in {args.data}")
    width = rows.shape[1]  # ceil(n / 2**depth); at width 1 every valid depth gives [0, n)
    depth = max((n - 1).bit_length() - (width - 1).bit_length(), 0)
    if ceil_chain(n, depth) != width:
        raise ConfigError(f"{width}-bit latents in {args.latents} come from no encoder depth "
                          f"over the {n} APs of {args.data}")

    def code_for(rp: int) -> LatentCode:
        if rp not in ids:
            raise ConfigError(f"no latents for rp {rp} in {args.latents}")
        return LatentCode(rows[ids.index(rp)], depth, n)

    diff = LatentDiff.between(code_for(args.rp_a), code_for(args.rp_b), args.rp_a, args.rp_b)
    table = diff.format_table()
    print(table)
    if args.out:
        out = _out_dir(args)
        atomic_write(out / "trace.txt", table + "\n")
        print(f"trace written to {out / 'trace.txt'}")
    return 0


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _flag_overrides(args) -> dict:
    """Map provided CLI flags onto the config-file schema (flags win)."""
    pairs = []
    for key in CONFIG_KEYS.values():
        value = getattr(args, _dest(key.flag), None) if key.flag else None  # subcommands lack some
        if value is None or value == "":
            continue
        if key.is_path:
            value = os.path.abspath(value)
        elif key.path == "schedule":  # the flag names a JSON file holding the schedule
            sched = read_json(value)
            if isinstance(sched, dict) and "entries" not in sched:
                raise ConfigError(_must_be(f"schedule file {value}",
                                           'a list or an object with "entries"', sched))
            value = sched["entries"] if isinstance(sched, dict) else sched
        pairs.append((key.path, value))
    over = key_tree(pairs)
    if "fingerprints" in over.get("data", {}):
        over["data"].setdefault("rp_map", None)
    return over


def _merged_config(args) -> tuple[dict, str]:
    """The --config document (if any) with flag overrides, and its base directory.

    The document's out_dir defaults to the command's directory under the run root.
    """
    doc, base_dir = {}, "."
    if args.config:
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError(_must_be(f"config file {args.config}", dict, doc))
        base_dir = os.path.dirname(os.path.abspath(args.config))
    merged = _deep_merge(doc, _flag_overrides(args))
    merged.setdefault("out_dir", _default_out(args.command))
    return merged, base_dir


def _prefer_synth(doc: dict) -> None:
    """A synth spec wins unless fingerprint paths were explicitly given."""
    if doc.get("synth") and not (doc.get("data") or {}).get("fingerprints"):
        doc["data"] = None


def _experiment_config(args) -> ExperimentConfig:
    merged, base_dir = _merged_config(args)
    _prefer_synth(merged)
    return ExperimentConfig.from_dict(merged, base_dir)


def cmd_run(args) -> int:
    cfg = _experiment_config(args)
    report = run_experiment(cfg)
    for ci, stats in sorted(report.per_ci.items()):
        print(f"ci {ci}: mean error {stats.mean_error_m:.3f} m  accuracy {stats.accuracy:.3f}")
    print(f"artifacts in {cfg.out_dir}")
    return 0


def _parse_variant(text: str) -> dict:
    parts = text.strip().lower().split("-")
    if parts[0] == "dnn":
        model = {"family": "dnn", "gate": None}
        depth = parts[1] if len(parts) > 1 else None
    elif parts[0] == "lognet":
        if len(parts) < 2:
            raise ConfigError(f"variant '{text}' needs a gate, e.g. lognet-nor-1")
        model = {"family": "lognet", "gate": parts[1]}
        depth = parts[2] if len(parts) > 2 else None
    else:
        raise ConfigError(f"variant '{text}' must start with 'lognet' or 'dnn'")
    if depth is not None:
        try:
            model["hidden_layers"] = int(depth)
        except ValueError:
            raise ConfigError(f"variant '{text}' needs an integer depth, got '{depth}'") from None
    return model


def cmd_compare(args) -> int:
    merged, base_dir = _merged_config(args)
    # The table's directory is resolved as each variant's out_dir is (and as `run`'s is).
    out_root = Path(ExperimentConfig.from_dict({"out_dir": merged["out_dir"]}, base_dir).out_dir)

    variants = [v for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("--variants must list at least one model variant")
    cfgs = []
    for name in variants:
        variant_doc = _deep_merge(merged, {"model": _parse_variant(name)})
        variant_doc["out_dir"] = str(out_root / name.strip().lower())
        _prefer_synth(variant_doc)
        cfgs.append(ExperimentConfig.from_dict(variant_doc, base_dir))
    table = compare_models(cfgs)
    out_root.mkdir(parents=True, exist_ok=True)
    table.to_csv(out_root / "comparison.csv")
    text = table.format_text()
    atomic_write(out_root / "comparison.txt", text + "\n")
    print(text)
    print(f"comparison written to {out_root}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LogNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
