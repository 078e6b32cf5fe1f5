import dataclasses
import hashlib
import json
import math
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from lognet import (
    ConfigError,
    Dataset,
    ExperimentConfig,
    GateType,
    LogicEncoderConfig,
    NoiseMode,
    NoiseSpec,
    StageError,
    SynthSpec,
    TemporalSchedule,
    TrainConfig,
    ValidationError,
    compare_models,
    run_experiment,
    synth_dataset,
    write_fingerprints_csv,
)
from lognet import experiment
from lognet.cli import main
from lognet.experiment import CONFIG_KEYS, ConfigKey


def _synth_cfg(out_dir, family="lognet", gate=GateType.NOR, hidden=1, epochs=40, seed=0):
    return ExperimentConfig(
        out_dir=str(out_dir),
        synth=SynthSpec(num_rps=8, num_aps=16, fingerprints_per_rp=6, seed=7),
        model_family=family,
        gate=gate,
        hidden_layers=hidden,
        train=TrainConfig(epochs=epochs, seed=seed),
        noise=NoiseSpec(NoiseMode.ED, -4.0, 1.0, seed=3),
    )


class TestExperimentConfig:
    def test_requires_exactly_one_source(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = _synth_cfg(tmp_path)
        cfg.data_path = "somewhere.csv"
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_referenced_files_must_exist(self, tmp_path):
        cfg = ExperimentConfig(
            out_dir=str(tmp_path), data_path="missing.csv", rp_map_path="missing_map.csv"
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_from_dict_round_trips_echo(self, tmp_path):
        cfg = _synth_cfg(tmp_path)
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone.to_dict() == cfg.to_dict()

    def test_reloaded_echo_keeps_relative_paths_as_given(self):
        doc = {"out_dir": "out", "data": {"fingerprints": "fp.csv", "rp_map": "map.csv"}}
        first = ExperimentConfig.from_dict(doc)
        second = ExperimentConfig.from_dict(first.to_dict())
        assert first.out_dir == second.out_dir == "out"
        assert (second.data_path, second.rp_map_path) == ("fp.csv", "map.csv")
        nested = ExperimentConfig.from_dict(doc, base_dir="/cfg")
        assert (nested.out_dir, nested.data_path) == ("/cfg/out", "/cfg/fp.csv")

    @pytest.mark.parametrize("family", ["lognet", "dnn"])
    def test_file_defaults_match_the_constructor(self, family):
        doc = {"synth": {"num_rps": 4, "num_aps": 8}, "model": {"family": family}}
        built = ExperimentConfig(synth=SynthSpec(4, 8), model_family=family)
        assert ExperimentConfig.from_dict(doc).to_dict() == built.to_dict()
        assert built.out_dir == "out" and built.noise.stochastic_sigma == 1.0
        noise = ExperimentConfig.from_dict(doc | {"noise": {"delta": -8}}).noise
        assert (noise.mode, noise.delta, noise.stochastic_sigma, noise.seed) == (
            NoiseMode.ED, -8.0, 1.0, 0)
        train = ExperimentConfig.from_dict(doc | {"train": {"learning_rate": 0.05}}).train
        assert (train.learning_rate, train.epochs) == (0.05, built.train.epochs)

    @pytest.mark.parametrize("change,key", [
        ({"threshold": 1.5}, "model.threshold"),
        ({"threshold": 0.0}, "model.threshold"),
        ({"rss_lo": float("nan")}, "rss_range"),
        ({"rss_hi": float("inf")}, "rss_range"),
        ({"rss_lo": 0.0, "rss_hi": -100.0}, "rss_range"),
    ])
    def test_values_a_stage_would_reject_fail_validation(self, tmp_path, change, key):
        cfg = dataclasses.replace(_synth_cfg(tmp_path), **change)
        with pytest.raises(ConfigError, match=f"config key '{key}': "):
            cfg.validate()

    def test_dnn_takes_any_threshold(self, tmp_path):
        cfg = _synth_cfg(tmp_path, family="dnn")
        cfg.threshold = 1.5
        cfg.validate()

    def test_family_epoch_defaults(self):
        doc = {"synth": {"num_rps": 4, "num_aps": 8}, "model": {"family": "dnn"}}
        assert ExperimentConfig.from_dict(doc).train.epochs == 500
        doc["model"]["family"] = "lognet"
        assert ExperimentConfig.from_dict(doc).train.epochs == 150


class TestRunExperiment:
    def test_smoke_run_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        report = run_experiment(_synth_cfg(out))
        assert sorted(report.per_ci) == list(range(10))
        for name in (
            "report.json",
            "model.json",
            "latents.csv",
            "latent_bitmap.pgm",
            "trace.txt",
            "loss_history.csv",
            "fingerprints.csv",
            "rp_map.csv",
        ):
            assert (out / name).exists(), name
        assert not (out / ".staging").exists()

    def test_rerun_of_same_config_is_byte_identical_modulo_latency(self, tmp_path):
        out = tmp_path / "run"

        def snapshot():
            run_experiment(_synth_cfg(out))
            doc = json.loads((out / "report.json").read_text())
            doc["model_meta"].pop("latency_ms")
            doc["model_meta"].pop("environment")
            return json.dumps(doc, sort_keys=True).encode()

        assert snapshot() == snapshot()

    def test_dnn_family_writes_gray_latents(self, tmp_path):
        out = tmp_path / "dnn"
        report = run_experiment(_synth_cfg(out, family="dnn", epochs=30))
        assert (out / "latent_gray.pgm").exists()
        assert report.model_meta["family"] == "dnn"

    def test_multi_ci_input_fails_in_load_stage(self, tmp_path, fixture_dir, tiny_dataset):
        from lognet import write_fingerprints_csv

        ds = tiny_dataset  # its last six rows move to CI:1
        bad = Dataset.from_columns(ds.rp_id, ds.device_id, np.repeat([0, 1], 6), ds.rss)
        data = tmp_path / "multi.csv"
        write_fingerprints_csv(bad, data)
        cfg = ExperimentConfig(
            out_dir=str(tmp_path / "out"),
            data_path=str(data),
            rp_map_path=f"{fixture_dir}/rp_map_2rp.csv",
            train=TrainConfig(epochs=5),
        )
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "load"
        assert (tmp_path / "out" / "quarantine").exists()

    def test_config_echo_reproduces_run(self, tmp_path):
        run_experiment(_synth_cfg(tmp_path / "first"))
        echo = json.loads((tmp_path / "first" / "report.json").read_text())["config"]
        echo["out_dir"] = str(tmp_path / "second")
        run_experiment(ExperimentConfig.from_dict(echo))
        a = json.loads((tmp_path / "first" / "report.json").read_text())["per_ci"]
        b = json.loads((tmp_path / "second" / "report.json").read_text())["per_ci"]
        assert a == b


class TestCompareModels:
    def test_six_gates_plus_dnn_gives_seven_rows(self, tmp_path):
        cfgs = [_synth_cfg(tmp_path / g.value, gate=g, epochs=15) for g in GateType]
        cfgs.append(_synth_cfg(tmp_path / "dnn", family="dnn", epochs=15))
        table = compare_models(cfgs)
        assert len(table.rows) == 7
        assert {row["model"] for row in table.rows} == {"lognet", "dnn"}
        text = table.format_text()
        assert "err_ci9_m" in text.splitlines()[0]

    def test_lognet_params_strictly_decrease_with_depth(self, tmp_path):
        cfgs = [_synth_cfg(tmp_path / f"h{h}", hidden=h, epochs=10) for h in range(1, 5)]
        table = compare_models(cfgs)
        params = [row["params"] for row in table.rows]
        assert all(b < a for a, b in zip(params, params[1:]))

    def test_empty_config_list_rejected(self):
        with pytest.raises(ValidationError):
            compare_models([])

    def test_mismatched_seeds_rejected(self, tmp_path):
        a = _synth_cfg(tmp_path / "a", epochs=5, seed=0)
        b = _synth_cfg(tmp_path / "b", epochs=5, seed=1)
        with pytest.raises(ValidationError):
            compare_models([a, b])

    def test_shared_out_dir_rejected(self, tmp_path):
        a = _synth_cfg(tmp_path / "same", epochs=5)
        b = _synth_cfg(tmp_path / "same", family="dnn", epochs=5)
        with pytest.raises(ValidationError):
            compare_models([a, b])

    def test_csv_export(self, tmp_path):
        cfgs = [
            _synth_cfg(tmp_path / "nor", gate=GateType.NOR, epochs=10),
            _synth_cfg(tmp_path / "dnn", family="dnn", epochs=10),
        ]
        table = compare_models(cfgs)
        out = tmp_path / "comparison.csv"
        table.to_csv(out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("model,gate,hidden_layers,params,size_bytes,latency_ms")


class TestSynthFileReuse:
    """A synthetic run copies the fingerprints.csv that the last successful run of the same
    spec wrote, if its SHA-256 still matches, instead of formatting the dataset again."""

    @pytest.fixture
    def writes(self, monkeypatch):
        """The paths run_experiment formats a fingerprints.csv at, in call order."""
        paths = []

        def counting(ds, path):
            paths.append(Path(path))
            write_fingerprints_csv(ds, path)

        monkeypatch.setattr(experiment, "write_fingerprints_csv", counting)
        return paths

    @staticmethod
    def fresh(spec, path) -> bytes:
        write_fingerprints_csv(synth_dataset(spec)[0], path)
        return path.read_bytes()

    @staticmethod
    def cfg(out, **synth):
        return dataclasses.replace(_synth_cfg(out, epochs=2),
                                   synth=SynthSpec(8, 16, 6, seed=7, **synth))

    def registered(self, spec):
        path, digest = experiment._SYNTH_FILES[repr(spec)]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        return path

    @pytest.mark.parametrize("pattern", ["window", "random", "beacon-tint"])
    def test_formatting_a_spec_twice_gives_the_bytes_lognet_synth_writes(self, tmp_path, pattern):
        spec = SynthSpec(6, 16, 3, seed=5, base_pattern=pattern)
        assert main(["synth", "--rps", "6", "--aps", "16", "--per-rp", "3", "--seed", "5",
                     "--pattern", pattern, "--out", str(tmp_path / "cli")]) == 0
        cli = (tmp_path / "cli" / "fingerprints.csv").read_bytes()
        assert self.fresh(spec, tmp_path / "a.csv") == self.fresh(spec, tmp_path / "b.csv") == cli
        jittered = dataclasses.replace(spec, jitter_sigma_db=1.5)
        assert self.fresh(jittered, tmp_path / "c.csv") == self.fresh(jittered, tmp_path / "d.csv")

    def test_a_copied_file_equals_a_fresh_write(self, tmp_path, writes):
        a, b = self.cfg(tmp_path / "a"), self.cfg(tmp_path / "b")
        run_experiment(a)
        run_experiment(b)
        assert writes == [tmp_path / "a" / ".staging" / "fingerprints.csv"]
        expected = self.fresh(a.synth, tmp_path / "fresh.csv")
        for out in ("a", "b"):
            assert (tmp_path / out / "fingerprints.csv").read_bytes() == expected
            assert (tmp_path / out / "rp_map.csv").exists()
        assert self.registered(a.synth) == (tmp_path / "b" / "fingerprints.csv").absolute()

    @pytest.mark.parametrize("damage", ["one byte changed", "deleted"])
    def test_a_damaged_source_is_written_afresh_and_registered_again(self, tmp_path, writes,
                                                                     damage):
        run_experiment(self.cfg(tmp_path / "a"))
        source = tmp_path / "a" / "fingerprints.csv"
        if damage == "deleted":
            source.unlink()
        else:
            data = bytearray(source.read_bytes())
            data[-3] ^= 1  # a digit of the last value
            source.write_bytes(bytes(data))
        cfg = self.cfg(tmp_path / "b")
        run_experiment(cfg)
        assert len(writes) == 2
        expected = self.fresh(cfg.synth, tmp_path / "fresh.csv")
        assert (tmp_path / "b" / "fingerprints.csv").read_bytes() == expected
        assert self.registered(cfg.synth) == (tmp_path / "b" / "fingerprints.csv").absolute()
        run_experiment(self.cfg(tmp_path / "c"))
        assert len(writes) == 2
        assert (tmp_path / "c" / "fingerprints.csv").read_bytes() == expected

    def test_an_int_and_a_float_field_share_nothing(self, tmp_path, writes):
        as_int, as_float = self.cfg(tmp_path / "i", strong_dbm=-40), self.cfg(tmp_path / "f")
        assert as_int.synth == as_float.synth and repr(as_int.synth) != repr(as_float.synth)
        run_experiment(as_int)
        run_experiment(as_float)
        assert len(writes) == 2
        assert self.registered(as_int.synth) == (tmp_path / "i" / "fingerprints.csv").absolute()
        assert self.registered(as_float.synth) == (tmp_path / "f" / "fingerprints.csv").absolute()

    def test_a_quarantined_run_registers_nothing(self, tmp_path, writes):
        failing = dataclasses.replace(self.cfg(tmp_path / "bad"), per_rp_holdout=6)
        with pytest.raises(StageError, match="'split'"):
            run_experiment(failing)
        assert experiment._SYNTH_FILES == {}
        run_experiment(self.cfg(tmp_path / "good"))
        with pytest.raises(StageError, match="'split'"):
            run_experiment(failing)  # copies from "good", then fails again
        assert len(writes) == 2
        assert (tmp_path / "bad" / "quarantine" / "fingerprints.csv").read_bytes() == \
            (tmp_path / "good" / "fingerprints.csv").read_bytes()
        assert self.registered(failing.synth) == (tmp_path / "good" / "fingerprints.csv").absolute()

    def test_a_rerun_into_the_same_out_dir_copies_its_own_file(self, tmp_path, writes):
        cfg = self.cfg(tmp_path / "run")
        run_experiment(cfg)
        run_experiment(cfg)
        assert len(writes) == 1
        assert (tmp_path / "run" / "fingerprints.csv").read_bytes() == \
            self.fresh(cfg.synth, tmp_path / "fresh.csv")
        assert not (tmp_path / "run" / ".staging").exists()
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(
            ["report.json", "model.json", "latents.csv", "latent_bitmap.pgm", "trace.txt",
             "loss_history.csv", "fingerprints.csv", "rp_map.csv"])
        self.registered(cfg.synth)


class TestConfigKeys:
    @pytest.mark.parametrize("doc,key", [
        ({"train": {"epoch": 3}}, "train.epoch"),
        ({"modle": {}}, "modle"),
        ({"model": {"family": "dnn", "layers": 2}}, "model.layers"),
        ({"noise": {"mode": "ed", "jitter": 1.0}}, "noise.jitter"),
        ({"data": {"fingerprints": "f.csv", "map": "m.csv"}}, "data.map"),
        ({"synth": {"num_rps": 4, "num_aps": 8, "rooms": 3}}, "synth.rooms"),
    ])
    def test_unknown_key_names_its_path(self, doc, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("doc,key", [
        ({"train": {"epochs": "x"}}, "train.epochs"),
        ({"rss_range": 5}, "rss_range"),
        ({"rss_range": [-100, 0, 5]}, "rss_range"),
        ({"schedule": 3}, "schedule"),
        ({"schedule": [[0, "a"]]}, "schedule"),
        ({"noise": {"sigma": "a"}}, "noise.sigma"),
        ({"noise": {"delta": 10**400}}, "noise.delta"),
        ({"per_rp_holdout": "1"}, "per_rp_holdout"),
        ({"model": {"hidden_layers": "2"}}, "model.hidden_layers"),
        ({"model": {"threshold": float("nan")}}, "model.threshold"),
        ({"train": {"seed": True}}, "train.seed"),
        ({"train": {"learning_rate": None}}, "train.learning_rate"),
        ({"synth": {"num_rps": 4.0, "num_aps": 8}}, "synth.num_rps"),
    ])
    def test_wrong_value_type_names_its_path(self, doc, key):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be "):
            ExperimentConfig.from_dict(doc)

    def test_int_is_accepted_as_a_float(self):
        doc = {"synth": {"num_rps": 4, "num_aps": 8, "strong_dbm": -40}, "rss_range": [-100, 0]}
        cfg = ExperimentConfig.from_dict(doc)
        assert (cfg.synth.strong_dbm, cfg.rss_lo, cfg.rss_hi) == (-40.0, -100.0, 0.0)

    def test_keys_declare_no_defaults_and_only_synth_sizes_are_required(self):
        assert "default" not in {f.name for f in dataclasses.fields(ConfigKey)}
        required = {key.path for key in CONFIG_KEYS.values() if key.required}
        assert required == {"synth.num_rps", "synth.num_aps"}
        with pytest.raises(ConfigError, match="missing config key 'synth.num_aps'"):
            ExperimentConfig.from_dict({"synth": {"num_rps": 4}})

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="'train' must be a JSON object"):
            ExperimentConfig.from_dict({"train": 5})

    def test_every_report_config_loads_back(self, tmp_path, fixture_dir):
        variants = [
            _synth_cfg(tmp_path / "lognet"),
            _synth_cfg(tmp_path / "dnn", family="dnn", epochs=5),
            ExperimentConfig(
                out_dir=str(tmp_path / "files"),
                data_path=f"{fixture_dir}/fingerprints_2rp3ap.csv",
                rp_map_path=f"{fixture_dir}/rp_map_2rp.csv",
                train=TrainConfig(epochs=5, batch_size=4),
                noise=NoiseSpec(NoiseMode.NON_ED, [1.0, -2.0, 0.5], [0.0, 1.0, 0.5], seed=2),
            ),
        ]
        for cfg in variants:
            run_experiment(cfg)
            echo = json.loads((Path(cfg.out_dir) / "report.json").read_text())["config"]
            assert ExperimentConfig.from_dict(echo).to_dict() == echo


def _wrong_values(obj):
    """(field, value) for each field of dataclass `obj` and each value of the wrong type for it.

    A field that takes no str gets a str and one that takes a str an int; a number gets a
    bool; a float gets 10**400 and NaN, and an int that takes no float gets 2.5.
    """
    for field, kind in typing.get_type_hints(type(obj)).items():
        kinds = typing.get_args(kind) if typing.get_origin(kind) is types.UnionType else (kind,)
        wrong = [1] if str in kinds else ["a"]
        if float in kinds:
            wrong += [True, 10**400, math.nan]
        elif int in kinds:
            wrong += [True, 2.5]
        yield from ((field, value) for value in wrong)


SETTINGS = (SynthSpec(4, 8), TrainConfig(), NoiseSpec(NoiseMode.ED, -4.0, 1.0),
            TemporalSchedule.default(), LogicEncoderConfig(GateType.NOR))


class TestFieldTypes:
    """Every settings dataclass checks its fields' types by the rule config files use."""

    @pytest.mark.parametrize("obj,field,value", [
        pytest.param(obj, field, value, id=f"{type(obj).__name__}.{field}={value!r:.8}")
        for obj in SETTINGS for field, value in _wrong_values(obj)
    ])
    def test_constructor_names_class_and_field(self, obj, field, value):
        with pytest.raises(ConfigError, match=rf"^{type(obj).__name__}\.{field} must be "):
            dataclasses.replace(obj, **{field: value})

    @pytest.mark.parametrize("field,value", [
        pytest.param(field, value, id=f"{field}={value!r:.8}")
        for field, value in _wrong_values(ExperimentConfig())
    ])
    def test_validate_names_the_config_key(self, tmp_path, field, value):
        cfg = dataclasses.replace(_synth_cfg(tmp_path), **{field: value})
        with pytest.raises(ConfigError, match=rf"^config key '[a-z_.]+': {field} must be "):
            cfg.validate()

    @pytest.mark.parametrize("make,name", [
        (lambda: TrainConfig("a"), "TrainConfig.learning_rate"),
        (lambda: TrainConfig(epochs=2.5), "TrainConfig.epochs"),
        (lambda: SynthSpec("a", 4), "SynthSpec.num_rps"),
        (lambda: SynthSpec(4, 8, seed=1.5), "SynthSpec.seed"),
        (lambda: LogicEncoderConfig(GateType.NOR, 0.5, 1.5), "LogicEncoderConfig.hidden_layers"),
        (lambda: LogicEncoderConfig(GateType.NOR, 0.5, "a"), "LogicEncoderConfig.hidden_layers"),
        (lambda: NoiseSpec(NoiseMode.ED, "a"), "NoiseSpec.delta"),
        (lambda: NoiseSpec(NoiseMode.NON_ED, [1.0, math.inf]), "NoiseSpec.delta"),
        (lambda: TemporalSchedule(((0, 0.0), (1, "x"))), "TemporalSchedule.entries"),
        (lambda: TemporalSchedule(((0, 0.0), (1.7, 1.0))), "TemporalSchedule.entries"),
    ])
    def test_values_that_passed_or_raised_raw_errors(self, make, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be "):
            make()

    @pytest.mark.parametrize("change,message", [
        ({"rss_lo": math.nan}, "config key 'rss_range': rss_lo must be a number, got nan"),
        ({"rss_hi": "0"}, "config key 'rss_range': rss_hi must be a number, got '0'"),
        ({"hidden_layers": "2"}, "config key 'model.hidden_layers': hidden_layers must be an integer"),
        ({"gate": "nor"}, "config key 'model.gate': gate must be a GateType, got 'nor'"),
        ({"data_path": 3}, "config key 'data.fingerprints': data_path must be a string or null"),
        ({"schedule": None}, "config key 'schedule': schedule must be a TemporalSchedule, got None"),
    ])
    def test_validate_message_names_the_key_path(self, tmp_path, change, message):
        cfg = dataclasses.replace(_synth_cfg(tmp_path), **change)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert str(err.value).startswith(message)


class TestConfigEquality:
    def test_configs_with_per_ap_noise_compare_by_value(self, tmp_path):
        noise = NoiseSpec(NoiseMode.NON_ED, [-4.0, -2.0], [1.0, 0.5], seed=3)
        cfg = dataclasses.replace(_synth_cfg(tmp_path), noise=noise)
        same = dataclasses.replace(cfg, noise=NoiseSpec(NoiseMode.NON_ED, np.array([-4.0, -2.0]),
                                                        np.array([1.0, 0.5]), seed=3))
        assert cfg == same
        assert cfg != dataclasses.replace(cfg, noise=noise.scaled(0.5))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
