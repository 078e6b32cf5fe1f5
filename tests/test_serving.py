"""The serving path: each predict stage equals its reference formula bit for
bit, never writes into its caller's array, and serves a row alone exactly as
it serves that row in a batch."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lognet import (
    Dataset,
    GateType,
    LogicEncoderConfig,
    NoiseMode,
    NoiseSpec,
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
from lognet.models import dnn_hidden_activations, dnn_hidden_widths, forward, init_dnn, softmax
from lognet.pipeline import DnnClassifier, fit_dnn, fit_lognet

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_normalize(values, lo, hi):
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
