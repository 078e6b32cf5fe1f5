import ast
import copy
import dataclasses
import functools
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest

import lognet
from lognet import (
    CiStats,
    DenseStack,
    EvalReport,
    GateType,
    LogicEncoderConfig,
    ParseError,
    RpMap,
    ShapeError,
    ValidationError,
    SynthSpec,
    TrainConfig,
    read_delta_csv,
    read_fingerprints_csv,
    read_latents_csv,
    read_pgm,
    read_rp_map_csv,
    synth_dataset,
    write_fingerprints_csv,
    write_latents_csv,
    write_pgm,
    write_rp_map_csv,
)
from lognet.experiment import ComparisonTable
from lognet.fileio import atomic_write, read_json
from lognet.pipeline import (
    DnnClassifier, LogNetClassifier, fit_dnn, fit_lognet, load_model, save_model,
)


class TestFingerprintCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        ds, _ = synth_dataset(SynthSpec(num_rps=4, num_aps=7, fingerprints_per_rp=3,
                                        seed=5, jitter_sigma_db=1.7))
        path = tmp_path / "fp.csv"
        write_fingerprints_csv(ds, path)
        assert read_fingerprints_csv(path) == ds

    def test_minimal_fixture_parses(self, fixture_dir):
        ds = read_fingerprints_csv(f"{fixture_dir}/fingerprints_2rp3ap.csv")
        assert ds.ap_count == 3
        assert ds.rp_ids == frozenset({0, 1})
        assert len(ds) == 12

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "rp_id,device_id,ci,ap_000,ap_001\n"
            "0,d,0,-40.0,-50.0\n"
            "1,d,0,-40.0\n"
        )
        with pytest.raises(ParseError) as err:
            read_fingerprints_csv(path)
        assert err.value.line == 3

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "rp_id,device_id,ci,ap_000\n"
            "0,d,0,-40.0\n"
            "0,d,0,n/a\n"
        )
        with pytest.raises(ParseError) as err:
            read_fingerprints_csv(path)
        assert err.value.line == 3

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("rp,dev,ci,ap_000\n0,d,0,-40.0\n")
        with pytest.raises(ParseError) as err:
            read_fingerprints_csv(path)
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_fingerprints_csv(path)


class TestRpMapCsv:
    def test_round_trip(self, tmp_path):
        rp_map = RpMap({0: (0.0, 0.0), 3: (2.5, -1.25), 7: (10.0, 4.0)})
        path = tmp_path / "map.csv"
        write_rp_map_csv(rp_map, path)
        assert read_rp_map_csv(path).entries == rp_map.entries

    def test_duplicate_rp_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("rp_id,x_m,y_m\n0,0.0,0.0\n0,1.0,1.0\n")
        with pytest.raises(ParseError) as err:
            read_rp_map_csv(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("rp_id,x,y\n0,0.0,0.0\n")
        with pytest.raises(ParseError):
            read_rp_map_csv(path)

    @pytest.mark.parametrize("rp_id", ["-5", str(2**63)])
    def test_rp_id_outside_the_id_range_rejected(self, tmp_path, rp_id):
        path = tmp_path / "ids.csv"
        path.write_text(f"rp_id,x_m,y_m\n0,0.0,0.0\n{rp_id},1.0,1.0\n")
        with pytest.raises(ParseError, match="rp_id must be") as err:
            read_rp_map_csv(path)
        assert err.value.path == path and err.value.line == 3

    @pytest.mark.parametrize("x", ["nan", "1e999", "-inf"])
    def test_coordinate_that_is_not_finite_rejected(self, tmp_path, x):
        path = tmp_path / "xy.csv"
        path.write_text(f"rp_id,x_m,y_m\n0,0.0,0.0\n1,{x},0.0\n")
        with pytest.raises(ParseError, match="coordinates for rp 1 must be two finite") as err:
            read_rp_map_csv(path)
        assert err.value.path == path and err.value.line == 3


class TestLatentsCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, (6, 10)).astype(np.uint8)
        rp_ids = [0, 0, 1, 1, 2, 2]
        path = tmp_path / "lat.csv"
        write_latents_csv(rp_ids, bits, path)
        got_ids, got_bits = read_latents_csv(path)
        assert got_ids.tolist() == rp_ids
        assert np.array_equal(got_bits, bits)

    @pytest.mark.parametrize("bits", [[[2, 0], [1, 0]], [[0, 1], [256, -1]], [[0.5, 1], [0, 1]]])
    def test_writer_rejects_a_non_bit_and_writes_nothing(self, tmp_path, bits):
        path = tmp_path / "lat.csv"
        with pytest.raises(ValidationError, match="only 0 and 1"):
            write_latents_csv([0, 1], bits, path)
        assert not path.exists()

    def test_writer_rejects_a_row_count_mismatch_as_a_shape_error(self, tmp_path):
        path = tmp_path / "lat.csv"
        with pytest.raises(ShapeError, match=r"3 rp_ids for latent rows of shape \(2, 4\)"):
            write_latents_csv([0, 1, 2], np.zeros((2, 4), np.uint8), path)
        with pytest.raises(ShapeError, match=r"1 rp_ids for latent rows of shape \(4,\)"):
            write_latents_csv([0], np.zeros(4, np.uint8), path)
        assert not path.exists()

    def test_non_bit_value_rejected(self, tmp_path):
        path = tmp_path / "lat.csv"
        path.write_text("rp_id,bit_000\n0,2\n")
        with pytest.raises(ParseError) as err:
            read_latents_csv(path)
        assert err.value.line == 2

    def test_a_non_bit_fails_the_bit_rule_at_its_line(self, tmp_path):
        path = tmp_path / "lat.csv"
        path.write_text("rp_id,bit_000,bit_001\n0,1,0\n1,0,2\n")
        with pytest.raises(ParseError, match="bits must contain only 0 and 1") as err:
            read_latents_csv(path)
        assert err.value.path == path and err.value.line == 3

    @pytest.mark.parametrize("rp_id", ["-5", str(2**63)])
    def test_rp_id_outside_the_id_range_rejected(self, tmp_path, rp_id):
        path = tmp_path / "lat.csv"
        path.write_text(f"rp_id,bit_000,bit_001\n0,1,0\n{rp_id},0,1\n")
        with pytest.raises(ParseError, match="rp_id must be") as err:
            read_latents_csv(path)
        assert err.value.path == path and err.value.line == 3

    @pytest.mark.parametrize("header", ["rp_id,foo,bar", "rp_id,bit_0,bit_1",
                                        "rp_id,bit_001,bit_000", "id,bit_000,bit_001"])
    def test_header_needs_exact_bit_column_names(self, tmp_path, header):
        path = tmp_path / "lat.csv"
        path.write_text(header + "\n0,1,0\n")
        with pytest.raises(ParseError, match="header must be rp_id,bit_000") as err:
            read_latents_csv(path)
        assert err.value.line == 1


class TestDeltaCsv:
    def test_reads_vector_in_index_order(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("ap_index,delta_db\n1,-2.5\n0,3.0\n2,0.0\n")
        np.testing.assert_allclose(read_delta_csv(path), [3.0, -2.5, 0.0])

    def test_missing_index_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("ap_index,delta_db\n0,1.0\n2,1.0\n")
        with pytest.raises(ParseError, match="missing"):
            read_delta_csv(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("ap_index,delta_db\n0,1.0\n0,2.0\n")
        with pytest.raises(ParseError) as err:
            read_delta_csv(path)
        assert err.value.line == 3


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (13, 29)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        assert np.array_equal(read_pgm(path), img)

    @pytest.mark.parametrize("pixels", [[[300, -1, 128]], [[0.0, 0.5, 1.0]], [[0.0, np.nan, 1.0]],
                                        [["0", "1", "2"]]], ids=["range", "fraction", "nan", "text"])
    def test_pixel_that_is_no_byte_rejected(self, tmp_path, pixels):
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValidationError, match=r"integers in \[0, 255\]"):
            write_pgm(np.array(pixels), path)
        assert not path.exists()

    def test_integer_valued_pixels_of_any_dtype_are_written(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.array([[0.0, 128.0, 255.0], [True, False, True]]), path)
        assert read_pgm(path).tolist() == [[0, 128, 255], [1, 0, 1]]

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\xff\x01\x02")
        img = read_pgm(path)
        assert img.tolist() == [[0, 255], [1, 2]]

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ParseError):
            read_pgm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ParseError):
            read_pgm(path)

    @pytest.mark.parametrize("data", [b"P5\n-1 -1\n255\nA", b"P5\n0 5\n255\n", b"P5\n3 0\n255\n"])
    def test_non_positive_size_rejected(self, tmp_path, data):
        path = tmp_path / "size.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="size must be positive") as err:
            read_pgm(path)
        assert str(path) in str(err.value)

    def test_missing_file_or_directory_is_a_parse_error(self, tmp_path):
        for path in (tmp_path / "missing.pgm", tmp_path):
            with pytest.raises(ParseError, match="cannot read file") as err:
                read_pgm(path)
            assert str(path) in str(err.value)


class TestModelSerialization:
    def test_lognet_round_trip_is_bit_exact(self, tmp_path):
        ds, _ = synth_dataset(SynthSpec(num_rps=6, num_aps=14, fingerprints_per_rp=3, seed=2))
        clf, _ = fit_lognet(ds, LogicEncoderConfig(GateType.XNOR, 0.45, 2), TrainConfig(epochs=25))
        path = tmp_path / "model.json"
        save_model(clf, path)
        clone = load_model(path)
        assert clone.encoder == clf.encoder
        assert clone.ap_count == clf.ap_count
        assert np.array_equal(clone.head.weights, clf.head.weights)
        assert np.array_equal(clone.head.biases, clf.head.biases)
        np.testing.assert_array_equal(clone.predict_proba(ds), clf.predict_proba(ds))

    def test_dnn_round_trip_is_bit_exact(self, tmp_path):
        ds, _ = synth_dataset(SynthSpec(num_rps=5, num_aps=12, fingerprints_per_rp=3, seed=3))
        clf, _ = fit_dnn(ds, 2, TrainConfig(epochs=25))
        path = tmp_path / "model.json"
        save_model(clf, path)
        clone = load_model(path)
        assert clone.model.widths == clf.model.widths
        for (W, b), (Wc, bc) in zip(clf.model.layers, clone.model.layers):
            assert np.array_equal(W, Wc) and np.array_equal(b, bc)
        np.testing.assert_array_equal(clone.predict_proba(ds), clf.predict_proba(ds))

    def test_unknown_family_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"schema_version": 1, "family": "svm"}')
        with pytest.raises(ParseError):
            load_model(path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"schema_version": 99, "family": "dnn"}')
        with pytest.raises(ParseError):
            load_model(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError, match="must be a JSON object") as err:
            load_model(path)
        assert str(path) in str(err.value)


def _pinned_classifiers():
    """A lognet (XNOR, depth 2) and a depth-2 dnn with exactly representable parameters."""
    lognet = LogNetClassifier(
        LogicEncoderConfig(GateType.XNOR, 0.25, 2),
        DenseStack((([[0.5, -0.25, 1.0], [0.0, 2.0, -1.5]], [0.125, 0.0, -0.75]),), (3, 7, 9)),
        6,
    )
    dnn = DnnClassifier(DenseStack((
        ([[1.0, -1.0], [0.5, 0.25], [-2.0, 0.0], [0.75, -0.5]], [0.0, 0.5]),
        ([[1.5], [-0.125]], [-1.0]),
        ([[2.0, -2.0]], [0.25, -0.25]),
    ), (0, 5)), -90.0, -10.0)
    return {"lognet_xnor_depth2.json": lognet, "dnn_depth2.json": dnn}


@pytest.mark.parametrize("name", sorted(_pinned_classifiers()))
def test_model_document_bytes_are_pinned(tmp_path, fixture_dir, name):
    """save_model writes exactly the recorded document, and load -> save repeats it."""
    expected = (Path(fixture_dir) / "model" / name).read_bytes()
    path = tmp_path / name
    save_model(_pinned_classifiers()[name], path)
    assert path.read_bytes() == expected
    again = tmp_path / f"again-{name}"
    save_model(load_model(path), again)
    assert again.read_bytes() == expected


class TestModelDocumentValidation:
    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        """The documents save_model writes for a small lognet and dnn."""
        tmp = tmp_path_factory.mktemp("models")
        ds, _ = synth_dataset(SynthSpec(num_rps=4, num_aps=6, fingerprints_per_rp=2, seed=1))
        docs = {}
        for name, (clf, _) in (("lognet", fit_lognet(ds, LogicEncoderConfig(GateType.NOR), TrainConfig(epochs=2))),
                               ("dnn", fit_dnn(ds, 1, TrainConfig(epochs=2)))):
            save_model(clf, tmp / name)
            docs[name] = json.loads((tmp / name).read_text())
        return docs

    @pytest.mark.parametrize("family,path,value,message", [
        ("lognet", ("weights",), "x", "numeric arrays"),
        ("lognet", ("weights",), [[0.1, 0.2], [0.3]], "numeric arrays"),
        ("lognet", ("biases",), [0.0, float("nan"), 0.0, 0.0], "finite"),
        ("lognet", ("encoder", "gate"), 3, "encoder.gate must be a string"),
        ("lognet", ("encoder", "threshold"), "a", "encoder.threshold must be a number"),
        ("lognet", ("encoder", "hidden_layers"), 1.5, "encoder.hidden_layers must be an integer"),
        ("lognet", ("encoder", "ap_count"), 12, "head takes 3 latent bits but 12 APs encode to 6"),
        ("lognet", ("encoder",), [1], "encoder must be a JSON object"),
        ("lognet", ("class_labels",), [0, 1, 2, 3.5], "class_labels must be list[int]"),
        ("lognet", ("class_labels",), [False, 1, 2, 3], "class_labels must be list[int]"),
        ("lognet", ("rss_lo",), 0.0, "rss range must be finite with lo < hi"),
        ("lognet", ("rss_hi",), True, "rss_hi must be a number"),
        ("dnn", ("layers", 0, "weights"), "x", "layer 0 weights and biases must be numeric arrays"),
        ("dnn", ("layers", 1, "biases"), [[0.0]], "layer 1 has inconsistent weight/bias shapes"),
        ("dnn", ("layers", 1), 7, "layers[1] must be a JSON object"),
        ("dnn", ("layers",), [], "at least one layer"),
        ("dnn", ("class_labels",), "abcd", "class_labels must be list[int]"),
    ])
    def test_invalid_document_is_a_parse_error_naming_the_file(self, tmp_path, docs, family, path,
                                                               value, message):
        doc = copy.deepcopy(docs[family])
        *parents, key = path
        functools.reduce(operator.getitem, parents, doc)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_model(bad)
        assert str(err.value).startswith(f"{bad}: ")

    def test_head_without_outputs_is_a_parse_error(self, tmp_path, docs):
        doc = {**docs["lognet"], "weights": [[], [], []], "biases": [], "class_labels": []}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="the last layer has no outputs"):
            load_model(bad)

    def test_saved_documents_load(self, tmp_path, docs):
        for doc in docs.values():
            path = tmp_path / "model.json"
            path.write_text(json.dumps(doc))
            load_model(path)


class TestUnreadableFiles:
    @pytest.mark.parametrize("reader,header", [
        (read_fingerprints_csv, b"rp_id,device_id,ci,ap_000\n"),
        (read_rp_map_csv, b"rp_id,x_m,y_m\n"),
        (read_latents_csv, b"rp_id,bit_000\n"),
        (read_delta_csv, b"ap_index,delta_db\n"),
    ])
    def test_invalid_utf8_and_missing_file_are_parse_errors(self, tmp_path, reader, header):
        path = tmp_path / "bad.csv"
        path.write_bytes(header + b"0,\xff,0,1\n")
        with pytest.raises(ParseError, match="not valid UTF-8") as err:
            reader(path)
        assert str(path) in str(err.value)
        with pytest.raises(ParseError, match="cannot read file") as err:
            reader(tmp_path / "missing.csv")
        assert str(tmp_path / "missing.csv") in str(err.value)

    def test_csv_syntax_error_is_a_parse_error_with_its_line(self, tmp_path):
        path = tmp_path / "long.csv"
        field = b'"' + b"x" * 200_000 + b'"'  # beyond csv's field size limit
        path.write_bytes(b"rp_id,device_id,ci,ap_000\n0,d,0,-40.0\n0," + field + b",0,-40.0\n")
        with pytest.raises(ParseError, match="field limit") as err:
            read_fingerprints_csv(path)
        assert err.value.line == 3

    def test_latent_rp_id_beyond_int64_is_a_parse_error(self, tmp_path):
        path = tmp_path / "lat.csv"
        path.write_text("rp_id,bit_000\n0,1\n99999999999999999999,1\n")
        with pytest.raises(ParseError, match="int64") as err:
            read_latents_csv(path)
        assert err.value.line == 3

    def test_read_json_names_the_file(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text('{"a": [1, 2.5]}')
        assert read_json(good) == {"a": [1, 2.5]}
        for name, data, message in (("broken.json", b'{"a": ', "invalid JSON"),
                                    ("digits.json", b"1" * 5000, "invalid JSON"),
                                    ("deep.json", b"[" * 100_000, "invalid JSON"),
                                    ("latin1.json", b'{"a": "\xe9"}', "not valid UTF-8")):
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(ParseError, match=message) as err:
                read_json(path)
            assert str(path) in str(err.value)
        with pytest.raises(ParseError, match="cannot read file"):
            read_json(tmp_path / "missing.json")

    def test_model_file_missing_or_not_utf8(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read file"):
            load_model(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"family": "\xff"}')
        with pytest.raises(ParseError, match="not valid UTF-8"):
            load_model(bad)


class TestAtomicWrites:
    def test_failed_model_save_keeps_previous_file(self, tmp_path):
        ds, _ = synth_dataset(SynthSpec(num_rps=4, num_aps=8, fingerprints_per_rp=2, seed=1))
        clf, _ = fit_lognet(ds, LogicEncoderConfig(GateType.NOR, 0.5, 1), TrainConfig(epochs=2))
        path = tmp_path / "model.json"
        save_model(clf, path)
        before = path.read_bytes()
        # numpy float32 is not JSON-serializable: json.dump fails part-way.
        broken = dataclasses.replace(clf, rss_lo=np.float32(-100.0))
        with pytest.raises(TypeError):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_failed_report_write_keeps_previous_file(self, tmp_path):
        report = EvalReport({0: CiStats(0.0, 0.0, 0.0, 1.0, 1)}, {"params": 1})
        path = tmp_path / "report.json"
        report.write(path)
        before = path.read_text()
        report.model_meta["latency_ms"] = np.float32(1.0)
        with pytest.raises(TypeError):
            report.write(path)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("write", [
        lambda p: save_model(DnnClassifier(DenseStack(((np.ones((2, 2)), np.zeros(2)),), (0, 1))), p),
        lambda p: atomic_write(p, "text\n"),
    ], ids=["save_model", "atomic_write"])
    def test_a_missing_directory_is_named_by_the_target(self, tmp_path, write):
        path = tmp_path / "missing" / "model.json"
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: cannot write file") as info:
            write(path)
        assert ".tmp" not in str(info.value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [
        lambda p: write_fingerprints_csv(
            synth_dataset(SynthSpec(num_rps=2, num_aps=3, fingerprints_per_rp=2))[0], p),
        lambda p: write_rp_map_csv(RpMap({0: (0.0, 1.0)}), p),
        lambda p: write_latents_csv([0], np.ones((1, 3), np.uint8), p),
        lambda p: write_pgm(np.ones((2, 3), np.uint8), p),
        lambda p: atomic_write(p, "text\n"),
        lambda p: ComparisonTable((0,), [{"model": "dnn", "gate": None, "hidden_layers": 1,
                                          "params": 1, "size_bytes": 8, "latency_ms": 0.5,
                                          "per_ci": {0: 0.0}}]).to_csv(p),
    ], ids=["fingerprints", "rp_map", "latents", "pgm", "text", "comparison"])
    def test_every_writer_replaces_its_target_atomically(self, tmp_path, monkeypatch, write):
        path = tmp_path / "target"
        path.write_bytes(b"previous")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("lognet.fileio.os.replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            write(path)
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["target"]
        monkeypatch.undo()
        write(path)
        assert path.read_bytes() != b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["target"]


# Attribute and function names through which Python code opens, reads or writes a file.
_FILE_ACCESS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_access_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in _FILE_ACCESS:
                yield node


def test_only_fileio_touches_files():
    """Every file lognet opens goes through fileio.reading or fileio.atomic_open."""
    offenders = []
    for path in sorted(Path(lognet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "fileio.py":
            for func in tree.body:
                if isinstance(func, ast.FunctionDef) and func.name not in ("reading", "atomic_open"):
                    offenders += [f"{path.name}:{c.lineno}" for c in _file_access_calls(func)]
        else:
            offenders += [f"{path.name}:{c.lineno}" for c in _file_access_calls(tree)]
    assert offenders == []


def test_only_data_names_the_row_type():
    """`Fingerprint` lives in data.py and is exported; no other module names it."""
    offenders = []
    for path in sorted(Path(lognet.__file__).parent.glob("*.py")):
        if path.name in ("data.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # The name of a Name, an Attribute, an imported alias or a definition.
            if "Fingerprint" in (getattr(node, key, None) for key in ("id", "attr", "name")):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
