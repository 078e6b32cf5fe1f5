"""Property tests of the CSV and PGM loaders, the fingerprint writer, config parsing,
the model writer and the model loader."""

import csv
import io
import json
import types
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lognet import (
    RSS_SENTINEL,
    Dataset,
    DenseStack,
    ExperimentConfig,
    GateType,
    LogicEncoderConfig,
    LogNetError,
    ParseError,
    read_delta_csv,
    read_fingerprints_csv,
    read_latents_csv,
    read_pgm,
    read_rp_map_csv,
    write_fingerprints_csv,
)
from lognet.experiment import _CONFIG_KEYS
from lognet.gates import ceil_chain
from lognet.models import dnn_hidden_widths
from lognet.pipeline import DnnClassifier, LogNetClassifier, load_model, save_model

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

FP_HEADER = "rp_id,device_id,ci,ap_000,ap_001,ap_002\n"
RP_HEADER = "rp_id,x_m,y_m\n"

# Any text, minus lone surrogates, which UTF-8 cannot encode.
DEVICE_IDS = st.one_of(
    st.sampled_from(["synth", "a,b", 'say "hi"', " padded ", "", "two\nlines", "\r"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
RSS_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([RSS_SENTINEL, -0.0, 0.0, -100.0000000001]),
)
IDS = st.integers(0, 2**63 - 1)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("props")


@st.composite
def datasets(draw):
    aps = draw(st.integers(1, 9))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(RSS_VALUES, min_size=aps, max_size=aps), min_size=n, max_size=n))
    return Dataset.from_columns(
        draw(st.lists(IDS, min_size=n, max_size=n)),
        draw(st.lists(DEVICE_IDS, min_size=n, max_size=n)),
        draw(st.lists(IDS, min_size=n, max_size=n)),
        np.asarray(rows, dtype=np.float64),
    )


def _csv_writer_bytes(ds: Dataset) -> bytes:
    """Reference: the csv.writer loop that wrote fingerprint CSVs row by row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["rp_id", "device_id", "ci"] + [f"ap_{i:03d}" for i in range(ds.ap_count)])
    for fp in ds:
        writer.writerow([fp.rp_id, fp.device_id, fp.ci] + [repr(float(v)) for v in fp.rss])
    return buf.getvalue().encode("utf-8")


def _loads_or_lognet_error(reader, path):
    try:
        reader(path)
    except LogNetError:
        pass


NEAR_CSV = st.text(st.sampled_from('0123456789-+._e,"\n\r abdfinx\xe9'), max_size=120)


@SETTINGS
@given(data=st.one_of(
    st.binary(max_size=200),
    st.tuples(st.sampled_from([FP_HEADER, RP_HEADER]), NEAR_CSV).map(lambda t: "".join(t).encode()),
    st.tuples(st.sampled_from([FP_HEADER, RP_HEADER]), st.binary(max_size=60)).map(
        lambda t: t[0].encode() + t[1]),
))
def test_any_bytes_load_or_raise_a_lognet_error(work, data):
    path = work / "any.csv"
    path.write_bytes(data)
    _loads_or_lognet_error(read_fingerprints_csv, path)
    _loads_or_lognet_error(read_rp_map_csv, path)


@SETTINGS
@given(ds=datasets())
def test_write_read_is_bit_exact_and_matches_csv_writer(work, ds):
    path = work / "round.csv"
    write_fingerprints_csv(ds, path)
    assert path.read_bytes() == _csv_writer_bytes(ds)
    back = read_fingerprints_csv(path)
    assert back == ds
    assert back.rss_matrix().tobytes() == ds.rss_matrix().tobytes()


FAULTS = {
    "extra": (lambda f: f + ["1.0"], "expected 6 fields, got 7"),
    "missing": (lambda f: f[:-1], "expected 6 fields, got 5"),
    "nan": (lambda f: f[:4] + ["nan"] + f[5:], "rss values must be finite"),
    "inf": (lambda f: f[:5] + ["-inf"], "rss values must be finite"),
    "rp_id": (lambda f: ["-3"] + f[1:], "rp_id must be non-negative, got -3"),
    "ci": (lambda f: f[:2] + ["-2"] + f[3:], "ci must be non-negative, got -2"),
    "text": (lambda f: f[:3] + ["n/a"] + f[4:], "non-numeric field"),
}


@SETTINGS
@given(
    rows=st.integers(1, 8),
    blanks=st.lists(st.integers(0, 8), max_size=4),
    bad=st.integers(0, 7),
    fault=st.sampled_from(sorted(FAULTS)),
)
def test_faulty_row_reports_its_error_and_line(work, rows, blanks, bad, fault):
    bad %= rows
    corrupt, message = FAULTS[fault]
    records = []  # csv records after the header; [] is a blank line
    for i in range(rows):
        records.extend([] for b in blanks if b == i)
        fields = [str(i), "dev,ice", "0", "-40.0", "-55.5", "-100.0"]
        if i == bad:
            bad_record, fields = len(records), corrupt(fields)
        records.append(fields)
    buf = io.StringIO(newline="")
    buf.write(FP_HEADER)
    for rec in records:
        if rec:
            csv.writer(buf).writerow(rec)
        else:
            buf.write("\r\n")
    path = work / "fault.csv"
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")
    with pytest.raises(ParseError) as err:
        read_fingerprints_csv(path)
    # Line 1 is the header; every record, blank or not, is one line.
    assert err.value.line == bad_record + 2
    assert message in str(err.value) and str(path) in str(err.value)


LATENT_HEADER = "rp_id,bit_000,bit_001\n"
DELTA_HEADER = "ap_index,delta_db\n"


@SETTINGS
@given(data=st.one_of(
    st.binary(max_size=200),
    st.tuples(st.sampled_from([LATENT_HEADER, DELTA_HEADER]), NEAR_CSV).map(
        lambda t: "".join(t).encode()),
    st.tuples(st.sampled_from([LATENT_HEADER, DELTA_HEADER]), st.binary(max_size=60)).map(
        lambda t: t[0].encode() + t[1]),
))
def test_any_bytes_load_or_raise_a_lognet_error_in_the_latent_and_delta_readers(work, data):
    path = work / "any.csv"
    path.write_bytes(data)
    _loads_or_lognet_error(read_latents_csv, path)
    _loads_or_lognet_error(read_delta_csv, path)


NEAR_PGM_HEADER = st.text(st.sampled_from("P5 \n#0123456789-+_x"), max_size=24).map(str.encode)


@SETTINGS
@given(data=st.one_of(
    st.binary(max_size=80),
    st.tuples(NEAR_PGM_HEADER, st.binary(max_size=40)).map(lambda t: t[0] + t[1]),
))
@example(b"P5\n-1 -1\n255\nA")
@example(b"P5\n0 5\n255\n")
@example(b"P5\n1 1\n" + b"9" * 5000 + b"\n\x00")
def test_any_bytes_load_or_raise_a_lognet_error_in_the_pgm_reader(work, data):
    path = work / "any.pgm"
    path.write_bytes(data)
    _loads_or_lognet_error(read_pgm, path)


# Any JSON value; Python's json module also reads NaN and the infinities.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
              st.sampled_from([2**64, -(10**400), 0.5, "nor", "non-ed", "beacon-tint"])),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def _typed(kind):
    """Values of a config leaf's declared type, so parsing gets past the type check."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return st.one_of(*map(_typed, args))
    if origin is list:
        return st.lists(_typed(args[0]), max_size=4)
    if origin is tuple:
        return st.tuples(*map(_typed, args)).map(list)
    return {
        int: st.integers(),
        float: st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
        str: st.sampled_from(["nor", "xor", "dnn", "lognet", "ed", "non-ed", "random",
                              "beacon-tint", "grid", ""]) | st.text(max_size=6),
        type(None): st.none(),
    }[kind]


def _entries(keys: dict):
    """Objects over some of a table's keys, each valued well-typed or at random."""
    def value(kind):
        return (_entries(kind) if isinstance(kind, dict) else _typed(kind)) | JSON_VALUES

    return st.fixed_dictionaries({}, optional={k: value(kind) for k, kind in keys.items()})


CONFIG_DOCS = _entries(_CONFIG_KEYS) | JSON_VALUES


@SETTINGS
@given(doc=CONFIG_DOCS)
@example({"train": {"epochs": "x"}})
@example({"rss_range": 5})
@example({"schedule": 3})
@example({"noise": {"sigma": "a"}})
@example({"per_rp_holdout": "1"})
@example({"model": {"hidden_layers": "2"}})
@example({"noise": {"delta": 10**400}})
@example({"noise": {"delta_csv": "a\x00b"}})
def test_any_json_config_loads_or_raises_a_lognet_error(doc):
    # Round-trip through the codec so the document is one json.load can return.
    doc = json.loads(json.dumps(doc))
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except LogNetError:
        return
    ExperimentConfig.from_dict(cfg.to_dict())  # a loaded config's echo loads too


# The documents save_model writes for a lognet over 3 APs (NOR, depth 1, so
# 2 latent bits) and for a dnn with widths 3 -> 2 -> 2; each loads.
MODEL_DOCS = (
    {"schema_version": 1, "family": "lognet", "rss_lo": -100.0, "rss_hi": 0.0,
     "encoder": {"gate": "nor", "threshold": 0.5, "hidden_layers": 1, "ap_count": 3},
     "class_labels": [0, 1], "weights": [[0.5, -0.5], [1.0, 0.0]], "biases": [0.0, 0.1]},
    {"schema_version": 1, "family": "dnn", "rss_lo": -100.0, "rss_hi": 0.0, "widths": [3, 2, 2],
     "class_labels": [4, 7],
     "layers": [{"weights": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], "biases": [0.0, 0.0]},
                {"weights": [[1.0, -1.0], [0.5, 0.25]], "biases": [0.1, -0.1]}]},
)


def _paths(value, prefix=()):
    """The path of every value inside a JSON document, the root included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def model_docs(draw):
    """A saved model document with a few values replaced by any JSON value or removed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(MODEL_DOCS))))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(JSON_VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES | st.sampled_from([3, 1.5, -1, 2**63]))
    return doc


@SETTINGS
@given(doc=model_docs())
@example({**MODEL_DOCS[0], "weights": "x"})
@example({**MODEL_DOCS[0], "weights": [[0.5, -0.5], [1.0]]})
@example({**MODEL_DOCS[0], "encoder": {**MODEL_DOCS[0]["encoder"], "gate": 3}})
@example({**MODEL_DOCS[0], "encoder": {**MODEL_DOCS[0]["encoder"], "threshold": "a"}})
@example({**MODEL_DOCS[0], "encoder": {**MODEL_DOCS[0]["encoder"], "ap_count": 6}})
@example({**MODEL_DOCS[0], "encoder": {**MODEL_DOCS[0]["encoder"], "hidden_layers": 2**64}})
@example({**MODEL_DOCS[1], "rss_lo": -(10**400)})
def test_any_json_model_document_loads_or_raises_a_lognet_error(work, doc):
    path = work / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_model(path)
    except LogNetError as exc:
        assert isinstance(exc, ParseError) and str(exc).startswith(f"{path}: ")


def reference_model_text(clf) -> str:
    """The model document as `json.dumps` writes it with every array as nested lists."""
    if isinstance(clf, LogNetClassifier):
        stack = clf.head
        doc = {
            "family": "lognet",
            "encoder": {"gate": clf.encoder.gate.value, "threshold": clf.encoder.threshold,
                        "hidden_layers": clf.encoder.hidden_layers, "ap_count": clf.ap_count},
            "weights": stack.weights.tolist(),
            "biases": stack.biases.tolist(),
        }
    else:
        stack = clf.model
        doc = {"family": "dnn", "widths": list(stack.widths),
               "layers": [{"weights": W.tolist(), "biases": b.tolist()} for W, b in stack.layers]}
    doc |= {"schema_version": 1, "rss_lo": clf.rss_lo, "rss_hi": clf.rss_hi,
            "class_labels": list(stack.class_labels)}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# Floats that repr writes in exponent form, the signed zero and the extremes.
PARAM_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-05, 1e+16, -0.0, 5e-324, 1.7976931348623157e+308, -1.5e-7, 0.1]),
)


@st.composite
def classifiers(draw):
    """A lognet or dnn classifier of depth 1-3 with arbitrary finite parameters."""
    def matrix(rows, cols):
        return draw(arrays(np.float64, (rows, cols), elements=PARAM_VALUES))

    depth = draw(st.integers(1, 3))
    inputs = draw(st.integers(1, 9))
    labels = sorted(draw(st.sets(st.integers(-5, 10**9), min_size=1, max_size=4)))
    rss_lo = draw(st.sampled_from([-100.0, -100, -90.5]))
    rss_hi = draw(st.sampled_from([0.0, 0, -10.25]))
    if draw(st.booleans()):
        encoder = LogicEncoderConfig(draw(st.sampled_from(list(GateType))),
                                     draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                                     depth)
        latent = ceil_chain(inputs, depth)
        head = DenseStack(((matrix(latent, len(labels)), matrix(1, len(labels))[0]),), labels)
        return LogNetClassifier(encoder, head, inputs, rss_lo, rss_hi)
    widths = dnn_hidden_widths(inputs, depth) + [len(labels)]
    layers = tuple((matrix(a, b), matrix(1, b)[0]) for a, b in zip(widths, widths[1:]))
    return DnnClassifier(DenseStack(layers, labels), rss_lo, rss_hi)


@SETTINGS
@given(clf=classifiers())
@example(clf=DnnClassifier(DenseStack(
    ((np.array([[1e-05, 1e+16], [-0.0, 5e-324], [0.1, -1.5e-7], [2.0, 1e22]]),
      np.array([1.7976931348623157e+308, -0.0])),
     (np.array([[0.5], [2.5e-300]]), np.array([-1e+16])),
     (np.array([[3.0, -7e22]]), np.array([0.0, 1e-05]))),
    (2, 9)), -100.0, 0.0))
def test_model_writer_equals_json_dumps_of_the_listed_document(work, clf):
    path = work / "written.json"
    save_model(clf, path)
    assert path.read_text(encoding="utf-8") == reference_model_text(clf)
