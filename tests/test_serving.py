"""The serving path: each predict stage equals its reference formula bit for
bit, never writes into its caller's array, and serves a row alone exactly as
it serves that row in a batch."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lognet import (
    Dataset,
    Fingerprint,
    GateType,
    LogicEncoderConfig,
    NoiseMode,
    NoiseSpec,
    ConfigError,
    ShapeError,
    SynthSpec,
    TemporalSchedule,
    TrainConfig,
    ValidationError,
    binarize_matrix,
    normalize_values,
    simulate_cis,
    synth_dataset,
)
from lognet import pipeline
from lognet.gates import encode_matrix
from lognet.models import (DenseStack, dnn_hidden_activations, dnn_hidden_widths, forward,
                           init_dnn, softmax, train_softmax)
from lognet.pipeline import DnnClassifier, LogNetClassifier, _raw_cut, encode_rss, fit_dnn, fit_lognet

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_normalize(values, lo, hi):
    """Clip, then scale, over the float64 bounds that `check_rss_range` makes of lo and hi."""
    lo, hi = float(lo), float(hi)
    return (np.clip(np.asarray(values, dtype=np.float64), lo, hi) - lo) / (hi - lo)


def reference_softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def assert_bit_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


SHAPES = st.one_of(st.tuples(st.integers(0, 40)), st.tuples(st.integers(0, 4), st.integers(1, 40)))
BOUNDS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, -100, -100.0, 1, 2**53 + 1]),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def normalize_cases(draw):
    lo, hi = sorted(draw(st.lists(BOUNDS, min_size=2, max_size=2, unique=True)))
    assume(float(lo) < float(hi) and np.isfinite(float(hi) - float(lo)))  # a valid range
    special = st.sampled_from([lo, hi, -0.0, 0.0, -1e308, 1e308, -np.inf, np.inf, 5e-324])
    values = draw(arrays(np.float64, draw(SHAPES),
                         elements=st.floats(allow_nan=False) | special))
    return values, lo, hi


class TestBitIdentity:
    @SETTINGS
    @given(case=normalize_cases())
    @example(case=(np.array([-0.0, 0.0, -1e300, 1e300]), 0, 1))
    @example(case=(np.array([[-0.0, 0.0], [-100.0, 0.0]]), -100, 0))
    @example(case=(np.array([-0.0, 0.0, np.inf]), -0.0, 5e-324))
    @example(case=(np.array([2.0, 2.0**60]), 1, 2**53 + 1))
    @example(case=(np.array([2.0**60]), -3, 2**53 + 3))
    @example(case=(np.array([0.0]), np.int64(-2**62 - 2**61), np.int64(2**62)))
    def test_normalize_equals_clip_then_scale(self, case):
        values, lo, hi = case
        with np.errstate(all="ignore"):
            assert_bit_equal(normalize_values(values, lo, hi), reference_normalize(values, lo, hi))

    def test_normalize_of_a_large_strided_matrix_equals_clip_then_scale(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-130.0, 20.0, (607, 164))
        values[::5, ::7] = rng.choice([-0.0, 0.0, -100.0, np.inf, -np.inf], values[::5, ::7].shape)
        for v in (values, values[:, 3:90], values.T, np.asfortranarray(values), values.ravel()):
            assert_bit_equal(normalize_values(v), reference_normalize(v, -100.0, 0.0))

    @SETTINGS
    @given(logits=arrays(np.float64, SHAPES.filter(lambda s: s[-1] > 0),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(logits=np.array([[1e308, -1e308, 0.0], [-0.0, 0.0, 5e-324]]))
    def test_softmax_equals_the_three_line_formula(self, logits):
        with np.errstate(all="ignore"):
            assert_bit_equal(softmax(logits), reference_softmax(logits))

    @SETTINGS
    @given(values=arrays(np.float64, SHAPES, elements=st.floats(0.0, 1.0)),
           threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_binarize_is_the_inclusive_threshold(self, values, threshold):
        assert_bit_equal(binarize_matrix(values, threshold), (values >= threshold).astype(np.uint8))

    @SETTINGS
    @given(values=arrays(np.float64, SHAPES.filter(lambda s: np.prod(s) > 0),
                         elements=st.floats(0.0, 1.0)),
           outside=st.floats(allow_nan=False).filter(lambda v: not 0.0 <= v <= 1.0),
           data=st.data())
    @example(values=np.array([0.5]), outside=-5e-324, data=None)
    @example(values=np.array([0.5]), outside=1.0000000000000002, data=None)
    @example(values=np.array([0.5]), outside=np.nan, data=None)
    def test_binarize_rejects_values_outside_the_unit_interval(self, values, outside, data):
        values = values.copy()
        where = 0 if data is None else data.draw(st.integers(0, values.size - 1))
        values.flat[where] = outside
        with pytest.raises(ValidationError, match="normalized values in"):
            binarize_matrix(values)


def rule_bits(values, threshold, lo, hi):
    """The activity bits by their definition: normalize, then binarize."""
    return binarize_matrix(normalize_values(values, lo, hi), threshold)


def paired(values):
    """`values` with each entry twice in a row: AND over each pair returns the entry's bit, so a
    depth-1 AND code is the pipeline's own activity bits."""
    return np.repeat(np.asarray(values, dtype=np.float64).reshape(1, -1), 2, axis=1)


def and_classifier(aps, threshold, lo, hi):
    encoder = LogicEncoderConfig(GateType.AND, threshold, 1)
    head = DenseStack(((np.zeros((aps, 2)), np.zeros(2)),), (0, 1))
    return LogNetClassifier(encoder, head, 2 * aps, lo, hi)


@st.composite
def cut_cases(draw):
    """A valid rss range, a threshold in (0, 1), and values around the range's raw cut: the cut
    and its neighbours a few ulps away, both zeros, both infinities, the bounds and any float."""
    lo, hi = sorted(draw(st.lists(BOUNDS, min_size=2, max_size=2, unique=True)))
    assume(float(lo) < float(hi) and np.isfinite(float(hi) - float(lo)))  # a valid range
    threshold = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    cut = _raw_cut(threshold, lo, hi)
    near, down, up = [cut], cut, cut
    for _ in range(3):
        with np.errstate(over="ignore"):  # a cut at the top of float64 has +inf above it
            down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        near += [down, up]
    special = st.sampled_from(near + [lo, hi, -0.0, 0.0, -np.inf, np.inf])
    values = draw(st.lists(st.floats(allow_nan=False) | special, min_size=1, max_size=30))
    return np.array(values + near, dtype=np.float64), threshold, lo, hi


class TestRawCut:
    """lognet's activity bits are one raw compare against a cut derived from the normalize and
    binarize rule; they equal that rule's bits bit for bit."""

    @pytest.mark.parametrize("threshold,cut", [(0.5, -50.0), (0.4, -60.0), (0.35, -65.0)])
    def test_default_range_cuts(self, threshold, cut):
        assert _raw_cut(threshold, -100.0, 0.0) == cut
        assert and_classifier(1, threshold, -100.0, 0.0)._cut == cut

    @SETTINGS
    @given(case=cut_cases())
    @example(case=(np.array([-50.0, -50.00000000000001, -0.0, 0.0, np.inf, -np.inf]),
                   0.5, -100.0, 0.0))
    @example(case=(np.array([-1e300, 0.0, 1e300, 5e-324, -5e-324]), 0.3, -1e300, 1e300))
    @example(case=(np.array([-0.0, 0.0, 5e-324, 1e-323, np.inf]), 0.5, -0.0, 1e-323))
    @example(case=(np.array([-0.0, 0.0, -1.0, -0.5]), 0.999, -1.0, -0.0))
    @example(case=(np.array([0.0, 2.0**53, np.inf]), 0.9999999999999999, -1, 2**53 + 1))
    @example(case=(np.array([0.0, 2.0**60, np.inf]), 0.5, -3, 2**53 + 3))
    @example(case=(np.array([0.0, -2.0**62, np.inf]), 0.5, np.int64(-2**62 - 2**61),
                   np.int64(2**62)))
    def test_raw_compare_equals_normalize_then_binarize(self, case):
        values, threshold, lo, hi = case
        expected = rule_bits(values, threshold, lo, hi)
        encoder = LogicEncoderConfig(GateType.AND, threshold, 1)
        assert_bit_equal(encode_rss(paired(values), encoder, lo, hi)[0], expected)
        finite = values[np.isfinite(values)]
        if finite.size:
            ds = Dataset.from_columns([0], ["d"], [0], paired(finite))
            latents = and_classifier(finite.size, threshold, lo, hi).latent_matrix(ds)
            assert_bit_equal(latents[0], rule_bits(finite, threshold, lo, hi))

    @pytest.mark.parametrize("lo,hi,threshold", [
        (0.0, -100.0, 0.5), (-100.0, float("nan"), 0.5), ("a", 0.0, 0.5),
        (-100.0, 0.0, 0.0), (-100.0, 0.0, 1.0), (-100.0, 0.0, "a"),
        (-5e-324, -0.0, 1.5),  # adjacent bounds: no probe would test the threshold
    ])
    def test_bad_range_or_threshold_fails_before_any_probe(self, monkeypatch, lo, hi, threshold):
        def no_probe(*args, **kwargs):
            raise AssertionError("probed with a bad range or threshold")

        monkeypatch.setattr(pipeline, "normalize_values", no_probe)
        monkeypatch.setattr(pipeline, "binarize_matrix", no_probe)
        with pytest.raises(ConfigError):
            _raw_cut(threshold, lo, hi)

    def test_encode_rss_rejects_nan_and_names_rss(self):
        encoder = LogicEncoderConfig(GateType.NOR, 0.5, 1)
        for rss in ([[np.nan, -50.0]], np.array([-50.0, -20.0, np.nan, -90.0]).reshape(2, 2)):
            with pytest.raises(ValidationError, match="^rss must be free of NaN, got"):
                encode_rss(rss, encoder)
        with pytest.raises(ValidationError, match="^rss must be an array of numbers, got"):
            encode_rss([["a", "b"]], encoder)

    def test_one_fit_derives_the_cut_once_and_scans_no_nan(self, monkeypatch):
        train, _ = synth_dataset(SynthSpec(num_rps=4, num_aps=10, fingerprints_per_rp=2, seed=3))
        probes, scanned = [], []
        binarize, isnan = pipeline.binarize_matrix, np.isnan

        def counted(*args, **kwargs):
            probes.append(1)
            return binarize(*args, **kwargs)

        def watched(x, *args, **kwargs):
            scanned.append(np.shape(x))
            return isnan(x, *args, **kwargs)

        monkeypatch.setattr(pipeline, "binarize_matrix", counted)
        monkeypatch.setattr(np, "isnan", watched)
        pipeline._bisect_cut.cache_clear()  # earlier tests may have derived this cut already
        fit_lognet(train, LogicEncoderConfig(GateType.NOR, 0.45, 1), TrainConfig(epochs=2))
        assert 0 < len(probes) <= 64
        assert train.rss.shape not in scanned

    @pytest.mark.parametrize("lo,hi,threshold", [
        (True, 2.0, 0.5), (1.0, 2.0, True), (1, 2, 1), (1.0, 2.0, np.array([0.5])),
    ])
    def test_a_memoized_cut_still_checks_each_argument(self, lo, hi, threshold):
        _raw_cut(0.5, 1.0, 2.0)
        with pytest.raises(ConfigError):
            _raw_cut(threshold, lo, hi)

    @pytest.mark.parametrize("value,bit", [(np.inf, 1), (-np.inf, 0)])
    def test_encode_rss_keeps_the_bits_of_an_infinity(self, value, bit):
        encoder = LogicEncoderConfig(GateType.AND, 0.5, 1)
        assert encode_rss(paired([value]), encoder).tolist() == [[bit]]
        assert rule_bits(np.array([value]), 0.5, -100.0, 0.0).tolist() == [bit]

    @pytest.mark.parametrize("pattern", ["window", "random", "beacon-tint"])
    @pytest.mark.parametrize("threshold,lo,hi", [
        (0.5, -100.0, 0.0), (0.4, -100.0, 0.0), (0.35, -100.0, 0.0), (0.45, -110.0, -20.0),
    ])
    def test_fit_and_serve_equal_the_normalize_then_binarize_reference(self, pattern, threshold,
                                                                       lo, hi):
        spec = SynthSpec(num_rps=6, num_aps=20, fingerprints_per_rp=3, seed=2,
                         base_pattern=pattern, jitter_sigma_db=3.0)
        train, _ = synth_dataset(spec)
        encoder = LogicEncoderConfig(GateType.NOR, threshold, 1)
        cfg = TrainConfig(epochs=20, seed=1)
        clf, history = fit_lognet(train, encoder, cfg, lo, hi)
        reference = encode_matrix(rule_bits(train.rss, threshold, lo, hi), GateType.NOR, 1)
        head, expected_history = train_softmax(reference, train.rp_id, cfg)
        assert history == expected_history
        assert_bit_equal(clf.head.weights, head.weights)
        assert_bit_equal(clf.latent_matrix(train), reference)
        assert_bit_equal(clf.predict_proba(train), forward(head, reference))


@pytest.fixture(scope="module")
def served():
    """A trained lognet and dnn and a drifted pool of held-out fingerprints."""
    spec = SynthSpec(num_rps=8, num_aps=24, fingerprints_per_rp=3, seed=4,
                     base_pattern="beacon-tint", jitter_sigma_db=1.0)
    train, _ = synth_dataset(spec)
    lognet, _ = fit_lognet(train, LogicEncoderConfig(GateType.NOR, 0.5, 1), TrainConfig(epochs=60))
    dnn, _ = fit_dnn(train, 1, TrainConfig(epochs=100))
    held_out, _ = synth_dataset(SynthSpec(8, 24, 2, seed=9, base_pattern="beacon-tint",
                                          jitter_sigma_db=1.0))
    drift = NoiseSpec(NoiseMode.NON_ED, np.linspace(-20.0, 20.0, 24), 2.0, seed=1)
    return lognet, dnn, simulate_cis(held_out, drift, TemporalSchedule.default())


class TestServingInvariants:
    def test_a_row_alone_is_served_as_in_the_batch(self, served):
        lognet, dnn, pool = served
        batch = lognet.predict(pool), dnn.predict(pool)
        latents = lognet.latent_matrix(pool)
        assert len(set(batch[0].tolist())) > 1 and len(set(batch[1].tolist())) > 1
        for i, fp in enumerate(pool):
            one = Dataset((fp,), pool.ap_count)
            assert lognet.predict(one).tolist() == [batch[0][i]]
            assert dnn.predict(one).tolist() == [batch[1][i]]
            assert np.array_equal(lognet.latent_matrix(one), latents[i : i + 1])

    def test_a_dataset_without_rows_gets_no_predictions(self, served):
        lognet, dnn, pool = served
        empty = Dataset.from_columns([], [], [], np.zeros((0, pool.ap_count)))
        assert lognet.latent_matrix(empty).shape == (0, lognet.latent_dim)
        for clf in (lognet, dnn):
            assert clf.predict(empty).shape == (0,)
            assert clf.predict_proba(empty).shape == (0, 8)

    def test_predictions_are_fresh_arrays(self, served):
        lognet, dnn, pool = served
        for clf in (lognet, dnn):
            first = clf.predict(pool)
            expected = first.copy()
            first[:] = -1
            assert np.array_equal(clf.predict(pool), expected)

    def test_stages_leave_a_writable_input_unchanged(self, served):
        lognet, dnn, pool = served
        rng = np.random.default_rng(0)
        raw = rng.uniform(-120.0, 10.0, (5, pool.ap_count))
        unit = rng.uniform(0.0, 1.0, (5, pool.ap_count))
        latents = lognet.latent_matrix(pool)[:5].copy()
        logits = rng.normal(0.0, 3.0, (5, 7))
        calls = [
            (lambda x: normalize_values(x), raw),
            (lambda x: normalize_values(x), raw[0].copy()),
            (lambda x: binarize_matrix(x), unit),
            (softmax, logits),
            (softmax, logits[0].copy()),
            (lambda x: forward(lognet.head, x), latents),
            (lambda x: forward(lognet.head, x), latents[0].astype(np.float64)),
            (lambda x: forward(dnn.model, x), unit),
            (lambda x: forward(dnn.model, x), unit[0].copy()),
            (lambda x: dnn_hidden_activations(dnn.model, x), unit),
            (lambda x: dnn_hidden_activations(dnn.model, x), unit[0].copy()),
        ]
        for stage, x in calls:
            assert x.flags.writeable
            before = x.copy()
            out = stage(x)
            assert np.array_equal(x, before)
            assert out.flags.writeable and not np.shares_memory(out, x)


class TestLognetServesFromRawDbm:
    def test_lognet_serving_never_normalizes_or_binarizes(self, served, monkeypatch):
        lognet, dnn, pool = served
        expected = lognet.predict(pool), lognet.predict_proba(pool), lognet.latent_matrix(pool)

        class Called(Exception):
            pass

        def forbidden(*args, **kwargs):
            raise Called

        monkeypatch.setattr(pipeline, "normalize_values", forbidden)
        monkeypatch.setattr(pipeline, "binarize_matrix", forbidden)
        got = lognet.predict(pool), lognet.predict_proba(pool), lognet.latent_matrix(pool)
        for g, e in zip(got, expected):
            assert_bit_equal(g, e)
        with pytest.raises(Called):  # the dnn's input stage still scales the dBm values
            dnn.predict(pool)


class TestWrongApCount:
    """Every serving entry point checks the dataset's AP count itself."""

    @pytest.mark.parametrize("which,method", [
        (0, "predict"), (0, "predict_proba"), (0, "latent_matrix"),
        (1, "predict"), (1, "predict_proba"),
    ])
    def test_raises_shape_error_naming_both_counts(self, served, which, method):
        clf = served[which]
        ds = Dataset.from_columns([0], ["d"], [0], np.full((1, 23), -50.0))
        with pytest.raises(ShapeError, match="dataset has 23 APs but the model expects 24"):
            getattr(clf, method)(ds)


class TestNotADataset:
    """A query that is no Dataset is named as such, not met with a raw AttributeError; a
    Fingerprint of the model's width has an `ap_count` too, and is no Dataset either."""

    @pytest.mark.parametrize("which,method", [
        (0, "predict"), (0, "predict_proba"), (0, "latent_matrix"),
        (1, "predict"), (1, "predict_proba"),
    ])
    @pytest.mark.parametrize("query", [np.zeros((1, 24)), None, [[-50.0] * 24],
                                       Fingerprint(0, "d", 0, [-50.0] * 24)],
                             ids=["ndarray", "None", "list", "Fingerprint"])
    def test_raises_validation_error_naming_dataset(self, served, which, method, query):
        with pytest.raises(ValidationError, match="^ds must be a Dataset, got "):
            getattr(served[which], method)(query)


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of the allocations `call()` makes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before CPython 3.11 the caller's frame keeps its own reference to a temporary "
           "argument, so the forward pass cannot free the normalized batch",
)
class TestServingMemory:
    """A predict holds its normalized batch only until the first hidden layer
    exists, and after that at most two adjacent layers (building scale: 520
    APs, 400 RPs)."""

    ROWS, APS, CLASSES = 2000, 520, 400
    MARGIN = 2**19  # the softmax's per-row max and sum, and small bookkeeping

    def layer_bytes(self, hidden_layers: int) -> list[int]:
        widths = dnn_hidden_widths(self.APS, hidden_layers) + [self.CLASSES]
        return [self.ROWS * w * 8 for w in widths]

    def test_predict_proba_frees_the_normalized_batch(self):
        rng = np.random.default_rng(0)
        ds = Dataset.from_columns(np.arange(self.ROWS) % self.CLASSES, ["d"] * self.ROWS,
                                  np.zeros(self.ROWS, np.int64),
                                  rng.uniform(-100.0, 0.0, (self.ROWS, self.APS)))
        clf = DnnClassifier(init_dnn(self.APS, 1, range(self.CLASSES), seed=0))
        normalized, hidden, _ = self.layer_bytes(1)
        peak = traced_peak(lambda: clf.predict_proba(ds))
        # Holding the logits next to both would add another 6.4 MB.
        assert peak < normalized + hidden + self.MARGIN

    def test_a_deep_forward_holds_two_adjacent_layers(self):
        rng = np.random.default_rng(1)
        model = init_dnn(self.APS, 2, range(self.CLASSES), seed=0)
        sizes = self.layer_bytes(2)
        peak = traced_peak(lambda: forward(model, rng.uniform(0.0, 1.0, (self.ROWS, self.APS))))
        assert peak < max(a + b for a, b in zip(sizes, sizes[1:])) + self.MARGIN
