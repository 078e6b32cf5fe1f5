import copy
import json
from pathlib import Path

import numpy as np
import pytest

from lognet import (
    ExperimentConfig,
    GateType,
    LatentCode,
    LatentDiff,
    LogicEncoderConfig,
    SynthSpec,
    read_fingerprints_csv,
    read_latents_csv,
    read_pgm,
    synth_dataset,
    write_fingerprints_csv,
    write_latent_bitmap,
    write_latents_csv,
)
from lognet.cli import _flag_overrides, build_parser, main
from lognet.pipeline import encode_rss


def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--rps", "4", "--aps", "8", "--per-rp", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    assert (out / "fingerprints.csv").exists()
    assert (out / "rp_map.csv").exists()


def test_flags_left_out_take_the_config_dataclass_defaults(tmp_path, fixture_dir):
    assert main(["synth", "--rps", "4", "--aps", "8", "--out", str(tmp_path / "s")]) == 0
    write_fingerprints_csv(synth_dataset(SynthSpec(4, 8))[0], tmp_path / "expected.csv")
    assert (tmp_path / "s" / "fingerprints.csv").read_bytes() == \
        (tmp_path / "expected.csv").read_bytes()
    data = f"{fixture_dir}/fingerprints_2rp3ap.csv"
    assert main(["encode", "--data", data, "--out", str(tmp_path / "e")]) == 0
    expected = encode_rss(read_fingerprints_csv(data).rss_matrix(),
                          ExperimentConfig().encoder_config())
    assert np.array_equal(read_latents_csv(tmp_path / "e" / "latents.csv")[1], expected)
    run = ExperimentConfig.from_dict(_flag_overrides(build_parser().parse_args(["run"])))
    assert run.to_dict() == ExperimentConfig().to_dict()


def test_trace_takes_a_depth_past_the_ap_count_bit_length(tmp_path, capsys):
    write_latents_csv([0, 1], np.array([[0], [1]], dtype=np.uint8), tmp_path / "latents.csv")
    for depth in ("70", "1000000000000000000000"):
        assert main(["trace", "--latents", str(tmp_path / "latents.csv"), "--rp-a", "0",
                     "--rp-b", "1", "--hidden", depth, "--ap-count", "5"]) == 0
        assert "[0, 5)" in capsys.readouterr().out


def test_trace_rejects_latents_whose_width_the_depth_does_not_give(tmp_path, capsys):
    write_latents_csv([0, 1], np.array([[0, 1], [1, 1]], dtype=np.uint8), tmp_path / "latents.csv")
    assert main(["trace", "--latents", str(tmp_path / "latents.csv"), "--rp-a", "0",
                 "--rp-b", "1", "--hidden", "1", "--ap-count", "5"]) == 1
    assert capsys.readouterr().err == (
        "error: latent of depth 1 over 5 inputs must have 3 bits, got 2\n")


def test_encode_takes_a_depth_past_width_1(tmp_path, fixture_dir):
    # The fixture's 3 APs reach width 1 after 2 layers; NOR then negates the
    # bit at every layer, so depth 10**12 encodes like depth 4.
    data = f"{fixture_dir}/fingerprints_2rp3ap.csv"
    assert main(["encode", "--data", data, "--gate", "nor", "--hidden", "1000000000000",
                 "--out", str(tmp_path)]) == 0
    expected = encode_rss(read_fingerprints_csv(data).rss_matrix(),
                          LogicEncoderConfig(GateType.NOR, 0.5, 4))
    assert np.array_equal(read_latents_csv(tmp_path / "latents.csv")[1], expected)


def test_encode_bitmap_trace_chain(tmp_path, fixture_dir, capsys):
    out = tmp_path / "enc"
    assert main(["encode", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--gate", "nor", "--hidden", "1", "--out", str(out)]) == 0
    rp_ids, bits = read_latents_csv(out / "latents.csv")
    assert bits.shape == (12, 2)

    assert main(["bitmap", "--latents", str(out / "latents.csv"), "--out", str(out)]) == 0
    assert read_pgm(out / "latent_bitmap.pgm").shape == (2, 2)

    assert main(["trace", "--latents", str(out / "latents.csv"),
                 "--rp-a", "0", "--rp-b", "1", "--hidden", "1", "--ap-count", "3",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "rp 0 vs rp 1" in printed
    assert (out / "trace.txt").exists()


def test_run_artifacts_match_the_public_latent_path(tmp_path, capsys):
    # A lognet run's latents.csv holds one majority row per RP; trace.txt,
    # latent_bitmap.pgm, `lognet trace` and `lognet bitmap` must all agree
    # with the public latent API applied to those rows.
    run = tmp_path / "run"
    assert main(["run", "--synth-rps", "8", "--synth-aps", "20", "--synth-per-rp", "6",
                 "--model", "lognet", "--gate", "nor", "--hidden", "1", "--epochs", "5",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    rp_ids, rows = read_latents_csv(run / "latents.csv")
    assert rp_ids.tolist() == list(range(8)) and rows.shape == (8, 10)
    codes = {rp: LatentCode(row, 1, 20) for rp, row in zip(rp_ids.tolist(), rows)}
    pairs = list(zip(rp_ids.tolist(), rp_ids.tolist()[1:]))
    diffs = [LatentDiff.between(codes[a], codes[b], a, b) for a, b in pairs]
    blocks = [diff.format_table() for diff in diffs]
    assert any(diff.differing_bits for diff in diffs)
    assert (run / "trace.txt").read_text() == "\n\n".join(blocks) + "\n"
    write_latent_bitmap(rows, tmp_path / "public.pgm")
    pgm = (run / "latent_bitmap.pgm").read_bytes()
    assert pgm == (tmp_path / "public.pgm").read_bytes()

    for (rp_a, rp_b), block in zip(pairs, blocks):
        assert main(["trace", "--latents", str(run / "latents.csv"), "--rp-a", str(rp_a),
                     "--rp-b", str(rp_b), "--hidden", "1", "--ap-count", "20"]) == 0
        assert capsys.readouterr().out == block + "\n"
    cli_out = tmp_path / "cli"
    assert main(["trace", "--latents", str(run / "latents.csv"), "--rp-a", "0",
                 "--rp-b", "1", "--hidden", "1", "--ap-count", "20", "--out", str(cli_out)]) == 0
    assert (cli_out / "trace.txt").read_text() == blocks[0] + "\n"
    assert main(["bitmap", "--latents", str(run / "latents.csv"), "--out", str(cli_out)]) == 0
    assert (cli_out / "latent_bitmap.pgm").read_bytes() == pgm
    assert np.array_equal(read_pgm(cli_out / "latent_bitmap.pgm"), rows * np.uint8(255))


def test_trace_and_bitmap_vote_over_per_fingerprint_rows(tmp_path, capsys):
    # A file with several rows per RP, as `lognet encode` writes: trace and
    # bitmap must majority-vote each RP's rows, ties to 1.
    rng = np.random.default_rng(11)
    rp_ids = rng.permutation(np.repeat(np.arange(5), 4))
    bits = rng.integers(0, 2, (20, 8)).astype(np.uint8)
    write_latents_csv(rp_ids, bits, tmp_path / "latents.csv")
    votes = np.stack([2 * bits[rp_ids == rp].sum(axis=0) >= 4 for rp in range(5)]).astype(np.uint8)
    codes = {rp: LatentCode(votes[rp], 1, 16) for rp in range(5)}
    assert any((2 * bits[rp_ids == rp].sum(axis=0) == 4).any() for rp in range(5))  # a tie
    for rp_a, rp_b in ((0, 1), (3, 2), (4, 4)):
        assert main(["trace", "--latents", str(tmp_path / "latents.csv"), "--rp-a", str(rp_a),
                     "--rp-b", str(rp_b), "--hidden", "1", "--ap-count", "16"]) == 0
        expected = LatentDiff.between(codes[rp_a], codes[rp_b], rp_a, rp_b).format_table()
        assert capsys.readouterr().out == expected + "\n"
    write_latent_bitmap(votes, tmp_path / "public.pgm")
    assert main(["bitmap", "--latents", str(tmp_path / "latents.csv"),
                 "--out", str(tmp_path / "cli")]) == 0
    assert (tmp_path / "cli" / "latent_bitmap.pgm").read_bytes() == \
        (tmp_path / "public.pgm").read_bytes()


def test_train_then_eval(tmp_path, fixture_dir):
    out = tmp_path / "train"
    assert main(["train", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--model", "lognet", "--gate", "nor", "--epochs", "60",
                 "--out", str(out)]) == 0
    assert main(["eval", "--model-file", str(out / "model.json"),
                 "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--rp-map", f"{fixture_dir}/rp_map_2rp.csv",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["per_ci"]["0"]["accuracy"] == 1.0


def test_run_on_fixture_produces_ten_ci_report(tmp_path, fixture_dir):
    out = tmp_path / "run"
    assert main(["run", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--rp-map", f"{fixture_dir}/rp_map_2rp.csv",
                 "--model", "lognet", "--gate", "nor", "--epochs", "40",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(int(ci) for ci in report["per_ci"]) == list(range(10))


def test_run_flags_override_config_file(tmp_path, fixture_dir):
    cfg = {
        "synth": {"num_rps": 4, "num_aps": 8, "fingerprints_per_rp": 4, "seed": 2},
        "model": {"family": "lognet", "gate": "and", "hidden_layers": 1},
        "train": {"epochs": 10, "seed": 0},
        "out_dir": str(tmp_path / "from-file"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "from-flags"
    assert main(["run", "--config", str(cfg_path), "--gate", "nor",
                 "--epochs", "12", "--out", str(out)]) == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    assert echo["model"]["gate"] == "nor"
    assert echo["train"]["epochs"] == 12


def test_run_rejects_both_sources(tmp_path, fixture_dir, capsys):
    code = main(["run", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--rp-map", f"{fixture_dir}/rp_map_2rp.csv",
                 "--synth-rps", "4", "--synth-aps", "8",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


def test_run_nonzero_exit_on_stage_failure(tmp_path, fixture_dir, capsys):
    bad_map = tmp_path / "bad_map.csv"
    bad_map.write_text("rp_id,x_m,y_m\n0,0.0,0.0\n")  # rp 1 missing
    code = main(["run", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--rp-map", str(bad_map), "--epochs", "5",
                 "--out", str(tmp_path / "fail")])
    assert code == 1
    assert "load" in capsys.readouterr().err


def test_compare_variants(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--synth-rps", "6", "--synth-aps", "12",
                 "--synth-per-rp", "4", "--variants", "lognet-nor-1,lognet-xor-1,dnn-1",
                 "--epochs", "8", "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert len(lines) == 4
    assert (out / "comparison.txt").exists()


def test_compare_writes_its_table_where_its_runs_go(tmp_path, monkeypatch):
    # With no out_dir, a config's relative default out root is taken from the
    # config's directory, for `run` and for all of `compare`'s outputs alike.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LOGNET_OUT_ROOT", raising=False)
    sub = tmp_path / "sub"
    sub.mkdir()
    doc = {"synth": {"num_rps": 4, "num_aps": 8, "fingerprints_per_rp": 4}, "train": {"epochs": 3}}
    (sub / "cfg.json").write_text(json.dumps(doc))
    assert main(["compare", "--config", "sub/cfg.json", "--variants", "lognet-nor-1,dnn-1"]) == 0
    assert main(["run", "--config", "sub/cfg.json"]) == 0
    assert {p.name for p in (sub / "runs" / "compare").iterdir()} == {
        "comparison.csv", "comparison.txt", "lognet-nor-1", "dnn-1"}
    assert (sub / "runs" / "run" / "report.json").exists()
    assert not (tmp_path / "runs").exists()


def test_env_var_sets_default_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("LOGNET_OUT_ROOT", str(tmp_path / "root"))
    assert main(["synth", "--rps", "3", "--aps", "6"]) == 0
    assert (tmp_path / "root" / "synth" / "fingerprints.csv").exists()


def test_delta_csv_flag_feeds_non_ed_noise(tmp_path):
    delta_path = tmp_path / "delta.csv"
    lines = ["ap_index,delta_db"] + [f"{i},{(-1.0) ** i * 2.0}" for i in range(8)]
    delta_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert main(["run", "--synth-rps", "4", "--synth-aps", "8",
                 "--noise-mode", "non-ed", "--delta-csv", str(delta_path),
                 "--epochs", "8", "--out", str(out)]) == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    assert echo["noise"]["mode"] == "non-ed"
    assert len(echo["noise"]["delta"]) == 8


def test_schedule_file_flag(tmp_path):
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps([[0, 0.0], [1, 0.5], [4, 1.0]]))
    out = tmp_path / "run"
    assert main(["run", "--synth-rps", "4", "--synth-aps", "8",
                 "--schedule", str(sched_path), "--epochs", "8",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(int(ci) for ci in report["per_ci"]) == [0, 1, 4]


def test_train_with_zero_epochs_prints_no_final_loss(tmp_path, fixture_dir, capsys):
    out = tmp_path / "train0"
    assert main(["train", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--epochs", "0", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "trained lognet on 12 fingerprints" in printed
    assert "final loss" not in printed
    assert (out / "model.json").exists()


def test_malformed_config_file_is_a_config_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"synth": {"num_rps": 4,')
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    for cfg_path in (broken, not_object, tmp_path / "missing.json"):
        for command in (["run"], ["compare", "--variants", "dnn-1"]):
            code = main(command + ["--config", str(cfg_path), "--out", str(tmp_path / "x")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(cfg_path) in err


def test_unknown_or_missing_synth_key_is_named(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for synth, key in (({"num_rps": 4, "num_aps": 8, "rooms": 3}, "synth.rooms"),
                       ({"num_aps": 8}, "synth.num_rps")):
        cfg_path.write_text(json.dumps({"synth": synth}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err


def test_model_file_missing_key_is_a_parse_error(tmp_path, fixture_dir, capsys):
    out = tmp_path / "train"
    assert main(["train", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--epochs", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "model.json").read_text())
    del doc["encoder"]
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    code = main(["eval", "--model-file", str(bad),
                 "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--rp-map", f"{fixture_dir}/rp_map_2rp.csv", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "'encoder'" in err


# Each section's flags, and the config-file overrides they make.
SECTION_FLAGS = {
    "data": (["--data", "f.csv"], {"fingerprints": "f.csv", "rp_map": None}),
    "synth": (["--synth-rps", "4", "--synth-aps", "8", "--synth-per-rp", "3", "--synth-seed", "5"],
              {"num_rps": 4, "num_aps": 8, "fingerprints_per_rp": 3, "seed": 5}),
    "model": (["--model", "dnn", "--gate", "xor", "--hidden", "2", "--threshold", "0.25"],
              {"family": "dnn", "gate": "xor", "hidden_layers": 2, "threshold": 0.25}),
    "train": (["--lr", "0.5", "--epochs", "0", "--seed", "7", "--batch-size", "16"],
              {"learning_rate": 0.5, "epochs": 0, "seed": 7, "batch_size": 16}),
    "noise": (["--noise-mode", "non-ed", "--delta", "-3", "--delta-csv", "d.csv", "--sigma", "0",
               "--noise-seed", "9"],
              {"mode": "non-ed", "delta": -3.0, "delta_csv": "d.csv", "sigma": 0.0, "seed": 9}),
    "schedule": (["--schedule", "sched.json"], [[0, 0.0], [1, 1.0]]),
    "per_rp_holdout": (["--holdout", "2"], 2),
    "out_dir": (["--out", "o"], "o"),
}


@pytest.mark.parametrize("command,sections", [
    (["run"], tuple(SECTION_FLAGS)),
    (["train"], ("data", "model", "train", "out_dir")),
    (["compare", "--variants", "dnn-1"],
     ("data", "synth", "train", "noise", "schedule", "per_rp_holdout", "out_dir")),
], ids=["run", "train", "compare"])
def test_every_run_flag_maps_onto_its_config_key(tmp_path, monkeypatch, command, sections):
    monkeypatch.chdir(tmp_path)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"entries": [[0, 0.0], [1, 1.0]]}))
    argv = command + [arg for section in sections for arg in SECTION_FLAGS[section][0]]
    expected = copy.deepcopy({section: SECTION_FLAGS[section][1] for section in sections})
    expected["data"]["fingerprints"] = str(tmp_path / "f.csv")
    expected["out_dir"] = str(tmp_path / "o")
    if "noise" in expected:
        expected["noise"]["delta_csv"] = str(tmp_path / "d.csv")
    assert _flag_overrides(build_parser().parse_args(argv)) == expected
    assert _flag_overrides(build_parser().parse_args(command)) == {}


@pytest.mark.parametrize("command", ["", "synth", "train", "eval", "encode", "bitmap", "trace",
                                     "run", "compare"])
def test_help_text_matches_its_snapshot(command, fixture_dir, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main([command, "--help"] if command else ["--help"])
    expected = Path(fixture_dir, "help", f"{command or 'lognet'}.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_train_rejects_rp_map(fixture_dir, tmp_path, capsys):
    # train never reads an RP map, so it does not take the flag.
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
              "--rp-map", "x.csv", "--epochs", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rp-map x.csv" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_encode_rejects_rp_map(fixture_dir, tmp_path, capsys):
    # encode never reads an RP map, so it does not take the flag.
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
              "--rp-map", "x.csv", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rp-map x.csv" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--rps", "1", "--aps", "4"],
    ["train", "--data", "missing.csv"],
    ["eval", "--model-file", "missing.json", "--data", "missing.csv", "--rp-map", "missing.csv"],
    ["encode", "--data", "missing.csv"],
    ["bitmap", "--latents", "missing.csv"],
    ["compare", "--data", "missing.csv", "--rp-map", "missing.csv", "--variants", "dnn-1"],
    ["run", "--data", "missing.csv", "--rp-map", "missing.csv"],
], ids=lambda argv: argv[0])
def test_failed_command_creates_no_output_dir(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LOGNET_OUT_ROOT", str(tmp_path / "root"))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "root").exists()


def test_threshold_and_rss_range_fail_before_any_stage(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["run", "--synth-rps", "4", "--synth-aps", "8", "--threshold", "1.5",
                 "--out", str(out)]) == 1
    assert "config key 'model.threshold'" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"synth": {"num_rps": 4, "num_aps": 8}, "rss_range": [0, -100]}))
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "config key 'rss_range'" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_model_or_data_file_exits_one(tmp_path, fixture_dir, capsys):
    missing = tmp_path / "missing.json"
    assert main(["eval", "--model-file", str(missing),
                 "--data", f"{fixture_dir}/fingerprints_2rp3ap.csv",
                 "--rp-map", f"{fixture_dir}/rp_map_2rp.csv", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("rp_id,device_id,ci,ap_000\n0,café,0,-40.0\n".encode("latin-1"))
    assert main(["encode", "--data", str(latin1), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(latin1) in err and "UTF-8" in err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"synth": {"num_rps": 4, "num_aps": 8}, "train": {"epoch": 3}}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.epoch" in err


def test_variant_with_non_integer_depth_exits_one(tmp_path, capsys):
    assert main(["compare", "--synth-rps", "4", "--synth-aps", "8",
                 "--variants", "lognet-nor-x", "--out", str(tmp_path / "cmp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lognet-nor-x" in err


def test_bad_schedule_or_non_utf8_config_file_exits_one(tmp_path, capsys):
    no_entries = tmp_path / "sched.json"
    no_entries.write_text(json.dumps({"x": 1}))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"out_dir": "café"}'.encode("latin-1"))
    for flag, path in (("--schedule", no_entries), ("--schedule", latin1), ("--config", latin1)):
        code = main(["run", "--synth-rps", "4", "--synth-aps", "8", flag, str(path),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("argv,field", [
    (["synth", "--rps", "3", "--aps", "5", "--seed", "-1"], "synth seed"),
    (["train", "--data", "FIXTURE", "--seed", "-2"], "train seed"),
    (["run", "--synth-rps", "4", "--synth-aps", "8", "--seed", "-1"], "train seed"),
    (["run", "--synth-rps", "4", "--synth-aps", "8", "--synth-seed", "-1"], "synth seed"),
    (["run", "--synth-rps", "4", "--synth-aps", "8", "--noise-seed", "-1"], "noise seed"),
    (["run", "--config", "CONFIG"], "train seed"),
], ids=["synth", "train", "run-seed", "run-synth-seed", "run-noise-seed", "run-config"])
def test_negative_seed_is_a_config_error_naming_the_field(tmp_path, fixture_dir, monkeypatch,
                                                          capsys, argv, field):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"synth": {"num_rps": 4, "num_aps": 8}, "train": {"seed": -3}}))
    paths = {"FIXTURE": f"{fixture_dir}/fingerprints_2rp3ap.csv", "CONFIG": str(config)}
    monkeypatch.setenv("LOGNET_OUT_ROOT", str(tmp_path / "root"))
    out = tmp_path / "out"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be non-negative, got -")
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "root").exists()
