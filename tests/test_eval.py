import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from lognet import (
    Dataset,
    DenseStack,
    EvalReport,
    GateType,
    LatentCode,
    LatentDiff,
    LogicEncoderConfig,
    RpMap,
    ShapeError,
    SynthSpec,
    TrainConfig,
    UnknownRpError,
    ValidationError,
    evaluate,
    export_gray_bitmap,
    majority_by_rp,
    mean_localization_error,
    measure_latency,
    read_latent_bitmap,
    read_pgm,
    sample_errors,
    synth_dataset,
    trace_bit_to_aps,
    write_latent_bitmap,
)
from lognet.gates import ceil_chain
from lognet.pipeline import LogNetClassifier, fit_dnn, fit_lognet

PATH_MAP = RpMap({rp: (float(rp), 0.0) for rp in range(8)})


class TestMeanError:
    def test_perfect_prediction_is_zero(self):
        assert mean_localization_error([0, 1, 2], [0, 1, 2], PATH_MAP) == 0.0

    def test_one_rp_off_on_unit_path(self):
        assert mean_localization_error([1, 2, 3], [0, 1, 2], PATH_MAP) == 1.0

    def test_half_correct_half_two_off(self):
        assert mean_localization_error([0, 3], [0, 1], PATH_MAP) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 8, 20)
        b = rng.integers(0, 8, 20)
        assert mean_localization_error(a, b, PATH_MAP) == mean_localization_error(b, a, PATH_MAP)

    def test_unknown_rp(self):
        with pytest.raises(UnknownRpError):
            mean_localization_error([99], [0], PATH_MAP)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mean_localization_error([0, 1], [0], PATH_MAP)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_localization_error([], [], PATH_MAP)

    @pytest.mark.parametrize("preds, truth, named", [
        ([0, 99, 98], [97, 0, 96], 99),  # the first unknown prediction, not the smallest id
        ([0, 1, 2], [0, 97, 96], 97),    # else the first unknown label
        ([96, 0], [1, 95], 96),
    ])
    def test_unknown_rp_names_the_first_unknown_prediction_then_label(self, preds, truth, named):
        with pytest.raises(UnknownRpError, match=rf"rp_id {named} has no coordinates"):
            sample_errors(preds, truth, PATH_MAP)

    def test_shape_and_empty_checks_come_before_rp_lookup(self):
        with pytest.raises(ShapeError):
            sample_errors([99, 98], [97], PATH_MAP)
        with pytest.raises(ValidationError):
            sample_errors([], [], RpMap({}))

    @pytest.mark.parametrize("preds,truth,name", [
        ([1.5, 0.9], [1, 0], "predictions"),  # int64 would truncate both to known RPs
        (["a"], [0], "predictions"),
        ([1, 0], [True, False], "labels"),
        ([1, 0], [1.0, 0.0], "labels"),
    ], ids=["fractions", "str", "bool-labels", "float-labels"])
    def test_ids_that_are_no_integers(self, preds, truth, name):
        with pytest.raises(ValidationError, match=f"^{name} must be integers, got "):
            sample_errors(preds, truth, PATH_MAP)

    def test_non_vector_input_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            sample_errors([[0, 1]], [[1, 0]], PATH_MAP)

    def test_errors_equal_the_per_sample_lookup(self):
        rng = np.random.default_rng(5)
        rp_map = RpMap({rp: tuple(rng.normal(0.0, 30.0, 2)) for rp in range(40)})
        preds, truth = rng.integers(0, 40, 500), rng.integers(0, 40, 500)
        expected = np.linalg.norm(np.stack([rp_map.coords(int(p)) for p in preds])
                                  - np.stack([rp_map.coords(int(t)) for t in truth]), axis=1)
        assert np.array_equal(sample_errors(preds, truth, rp_map), expected)


class TestEvaluate:
    def test_separable_synthetic_reaches_zero_error(self):
        ds, rp_map = synth_dataset(SynthSpec(num_rps=8, num_aps=16, fingerprints_per_rp=4, seed=0))
        clf, _ = fit_lognet(ds, LogicEncoderConfig(GateType.NOR, 0.5, 1), TrainConfig(epochs=150))
        report = evaluate(clf, ds, rp_map)
        assert report.per_ci[0].mean_error_m == 0.0
        assert report.per_ci[0].accuracy == 1.0

    def test_single_rp_map_always_zero(self):
        ds = Dataset.from_columns([3] * 4, ["d"] * 4, [0] * 4, [[-40.0, -80.0]] * 4)
        clf, _ = fit_lognet(ds, LogicEncoderConfig(GateType.NOR, 0.5, 1), TrainConfig(epochs=10))
        report = evaluate(clf, ds, RpMap({3: (2.0, 5.0)}))
        assert report.per_ci[0].mean_error_m == 0.0

    def test_report_has_one_entry_per_ci(self):
        # Rows alternate between RP 0 and RP 1, two rows per CI.
        test = Dataset.from_columns([0, 1] * 10, ["d"] * 20, np.repeat(range(10), 2),
                                    [[-40.0, -80.0], [-80.0, -40.0]] * 10)
        train = test.with_ci(0)
        clf, _ = fit_lognet(train, LogicEncoderConfig(GateType.NOR, 0.5, 1), TrainConfig(epochs=100))
        report = evaluate(clf, test, RpMap({0: (0.0, 0.0), 1: (1.0, 0.0)}))
        assert sorted(report.per_ci) == list(range(10))
        for stats in report.per_ci.values():
            assert stats.min_error_m <= stats.mean_error_m <= stats.max_error_m

    def test_report_json_round_trip(self):
        ds, rp_map = synth_dataset(SynthSpec(num_rps=4, num_aps=8, fingerprints_per_rp=2, seed=1))
        clf, _ = fit_lognet(ds, LogicEncoderConfig(GateType.AND, 0.5, 1), TrainConfig(epochs=20))
        report = evaluate(clf, ds, rp_map, config={"seed": 1})
        clone = EvalReport.from_json(report.to_json())
        assert clone.per_ci == report.per_ci
        assert clone.config == report.config

    @pytest.mark.parametrize("text,message", [
        ("{}", "report lacks key 'per_ci'"),
        ("[]", "report must be a JSON object, got []"),
        ('{"per_ci": {"0": {"mean_error_m": 0.0, "min_error_m": 0.0, "max_error_m": 0.0, '
         '"accuracy": 1.0}}, "model_meta": {}}', "report.per_ci[0] lacks key 'samples'"),
        ('{"per_ci": {"one": {}}, "model_meta": {}}', "report.per_ci key must be a CI number"),
        ("per_ci", "report is not JSON"),
    ], ids=["empty-object", "array", "entry-lacks-a-field", "key-no-ci", "not-json"])
    def test_report_json_that_is_no_report(self, text, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            EvalReport.from_json(text)

    def test_ap_mismatch_reads_as_the_classifiers_and_comes_first(self):
        ds, _ = synth_dataset(SynthSpec(num_rps=4, num_aps=8, fingerprints_per_rp=2, seed=1))
        other, _ = synth_dataset(SynthSpec(num_rps=4, num_aps=6, fingerprints_per_rp=2, seed=1))
        clf, _ = fit_lognet(ds, LogicEncoderConfig(GateType.AND, 0.5, 1), TrainConfig(epochs=5))
        with pytest.raises(ShapeError, match="^dataset has 6 APs but the model expects 8$"):
            evaluate(clf, other, RpMap({}))  # before the RP map's coverage is checked

    def test_shape_mismatch(self):
        ds, rp_map = synth_dataset(SynthSpec(num_rps=4, num_aps=8, fingerprints_per_rp=2, seed=1))
        other, _ = synth_dataset(SynthSpec(num_rps=4, num_aps=6, fingerprints_per_rp=2, seed=1))
        clf, _ = fit_lognet(ds, LogicEncoderConfig(GateType.AND, 0.5, 1), TrainConfig(epochs=5))
        with pytest.raises(ShapeError):
            evaluate(clf, other, rp_map)


def _latency_dataset(n_fps: int, seed: int = 0) -> tuple:
    spec = SynthSpec(num_rps=16, num_aps=164, fingerprints_per_rp=max(2, n_fps // 16), seed=seed)
    return synth_dataset(spec)


class TestLatency:
    def test_positive_and_finite(self, tiny_dataset, tiny_rp_map):
        clf, _ = fit_lognet(tiny_dataset, LogicEncoderConfig(GateType.NOR, 0.5, 1), TrainConfig(epochs=5))
        result = measure_latency(clf, tiny_dataset, repetitions=3)
        assert result.milliseconds > 0 and np.isfinite(result.milliseconds)
        assert result.environment["numpy"]

    def test_minimum_repetitions(self, tiny_dataset):
        clf, _ = fit_lognet(tiny_dataset, LogicEncoderConfig(GateType.NOR, 0.5, 1), TrainConfig(epochs=5))
        with pytest.raises(ValidationError):
            measure_latency(clf, tiny_dataset, repetitions=2)

    @pytest.mark.parametrize("bad", ["a", 3.5, 3.0, True, 2], ids=["str", "3.5", "3.0", "True", "2"])
    def test_repetitions_must_be_an_integer_from_3(self, tiny_dataset, bad):
        clf, _ = fit_lognet(tiny_dataset, LogicEncoderConfig(GateType.NOR, 0.5, 1), TrainConfig(epochs=5))
        with pytest.raises(ValidationError, match=f"^repetitions must be an integer >= 3, got {bad!r}$"):
            measure_latency(clf, tiny_dataset, bad)

    def test_deeper_encoder_is_not_twice_slower(self):
        # Extra gate layers shrink the softmax head, so a 4-layer encoder
        # must stay within 2x of the 1-layer encoder on the same data.
        ds, _ = _latency_dataset(2048)
        cfg = TrainConfig(epochs=2)
        shallow, _ = fit_lognet(ds, LogicEncoderConfig(GateType.NOR, 0.5, 1), cfg)
        deep, _ = fit_lognet(ds, LogicEncoderConfig(GateType.NOR, 0.5, 4), cfg)
        for clf in (shallow, deep):
            clf.predict(ds)
        t1 = min(measure_latency(shallow, ds, repetitions=9).milliseconds for _ in range(2))
        t4 = min(measure_latency(deep, ds, repetitions=9).milliseconds for _ in range(2))
        assert t4 <= 2.0 * t1

    def test_doubling_data_scales_roughly_linearly(self):
        # Both sizes sit well beyond cache so the workload is memory-bound
        # and scales linearly; smaller pairs straddle cache boundaries. Each
        # size's 164-column float64 matrices (43 MB and 86 MB) also exceed
        # glibc's 32 MB mmap threshold, so both page-fault alike on every call.
        spec = SynthSpec(num_rps=16, num_aps=164, fingerprints_per_rp=4096, seed=0)
        double, _ = synth_dataset(spec)  # 65536 rows
        def first(n):
            return Dataset.from_columns(double.rp_id[:n], double.device_id[:n], double.ci[:n],
                                        double.rss[:n])

        base, small = first(32768), first(512)
        clf, _ = fit_dnn(small, 1, TrainConfig(epochs=2))
        # BLAS threads run slow for about a second after the host idles, so
        # the two sizes alternate and each keeps its fastest round: a slow
        # first round cannot land on one size only.
        t1, t2 = float("inf"), float("inf")
        for _ in range(3):
            t1 = min(t1, measure_latency(clf, base, repetitions=5).milliseconds)
            t2 = min(t2, measure_latency(clf, double, repetitions=5).milliseconds)
        assert 1.5 * t1 <= t2 <= 3.0 * t1


def vote(codes: list[LatentCode]) -> LatentCode:
    """One RP's majority code, voted by `majority_by_rp`."""
    _, rows = majority_by_rp([0] * len(codes), np.stack([c.bits for c in codes]))
    return LatentCode(rows[0], codes[0].depth, codes[0].input_len)


def vote_and_diff(codes_a, codes_b, rp_a=0, rp_b=1) -> LatentDiff:
    """Where the majority codes of two RPs' code lists disagree."""
    return LatentDiff.between(vote(codes_a), vote(codes_b), rp_a, rp_b)


class TestLatentDiff:
    def _codes(self, rows, depth=1, input_len=6):
        return [LatentCode(np.asarray(r, dtype=np.uint8), depth, input_len) for r in rows]

    def test_majority_resolves_ties_to_one(self):
        codes = self._codes([[1, 0, 1], [0, 1, 1]])
        assert vote(codes).bits.tolist() == [1, 1, 1]

    def test_identical_classes_have_empty_diff(self):
        a = self._codes([[1, 0, 1]])
        assert vote_and_diff(a, a).differing_bits == ()

    def test_single_sample_diff_position(self):
        a = self._codes([[1, 0, 1]])
        b = self._codes([[1, 1, 1]])
        assert vote_and_diff(a, b).differing_bits == (1,)

    def test_complement_codes_differ_everywhere(self):
        a = self._codes([[0, 1, 0]])
        b = self._codes([[1, 0, 1]])
        assert vote_and_diff(a, b).differing_bits == (0, 1, 2)

    def test_symmetric_as_position_set(self):
        rng = np.random.default_rng(1)
        a = self._codes(rng.integers(0, 2, (5, 3)))
        b = self._codes(rng.integers(0, 2, (4, 3)))
        assert vote_and_diff(a, b).differing_bits == vote_and_diff(b, a).differing_bits

    def test_windows_match_trace(self):
        a = self._codes([[1, 0, 1]])
        b = self._codes([[0, 1, 0]])
        diff = vote_and_diff(a, b, rp_a=5, rp_b=6)
        for bit, window in zip(diff.differing_bits, diff.ap_windows):
            assert window == trace_bit_to_aps(bit, 1, 6)

    def test_table_rendering(self):
        a = self._codes([[1, 0, 1]])
        b = self._codes([[1, 1, 1]])
        table = vote_and_diff(a, b, rp_a=5, rp_b=6).format_table()
        assert "rp 5 vs rp 6" in table and "[2, 4)" in table

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            vote_and_diff(self._codes([[1, 0]], input_len=4), self._codes([[1, 0, 1]]))


def reference_trace_table(latents_a, latents_b, rp_a, rp_b):
    """The per-bit trace table as it was first written: numpy scalars per bit and
    one bounds-checked `trace_bit_to_aps` call per differing bit."""
    maj_a, maj_b = vote(latents_a), vote(latents_b)
    differing = tuple(int(i) for i in np.flatnonzero(maj_a.bits != maj_b.bits))
    windows = tuple(trace_bit_to_aps(i, maj_a.depth, maj_a.input_len) for i in differing)
    lines = [
        f"latent diff: rp {rp_a} vs rp {rp_b} ({len(differing)} differing bits)",
        f"{'bit':>5}  {'ap window':>14}  rp{rp_a:<6} rp{rp_b:<6}",
    ]
    for bit, window in zip(differing, windows):
        span = f"[{window.start}, {window.stop})"
        lines.append(f"{bit:>5}  {span:>14}  {maj_a.bits[bit]:<8} {maj_b.bits[bit]:<8}")
    if not differing:
        lines.append("  (identical latents)")
    return "\n".join(lines), windows


@st.composite
def latent_pairs(draw):
    """Two lists of random latent codes over one depth and input length, with RP ids."""
    depth = draw(st.integers(1, 5))
    input_len = draw(st.integers(1, 70))
    width = ceil_chain(input_len, depth)
    codes = st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                     min_size=1, max_size=4)
    rows_a = draw(codes)
    rows_b = rows_a if draw(st.integers(0, 5)) == 0 else draw(codes)
    rp_a, rp_b = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
    return [[LatentCode(np.asarray(r, dtype=np.uint8), depth, input_len) for r in rows]
            for rows in (rows_a, rows_b)] + [rp_a, rp_b]


class TestTraceTableBytes:
    """`LatentDiff.format_table()` is the text of trace.txt; it must keep
    the bytes of the per-bit reference formatter."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=latent_pairs())
    @example(case=[[LatentCode(np.array([1, 0], dtype=np.uint8), 2, 7)],
                   [LatentCode(np.array([0, 1], dtype=np.uint8), 2, 7)], 3, 12])
    @example(case=[[LatentCode(np.array([1, 0, 1], dtype=np.uint8), 3, 19)]] * 2 + [0, 1])
    def test_table_equals_the_per_bit_reference(self, case):
        a, b, rp_a, rp_b = case
        diff = vote_and_diff(a, b, rp_a, rp_b)
        expected, windows = reference_trace_table(a, b, rp_a, rp_b)
        assert diff.format_table() == expected
        assert diff.ap_windows == windows

    def test_clipped_last_window_and_identical_pair(self):
        # Depth 2 over 7 APs: bit 1 covers APs 4..6 only.
        a = [LatentCode(np.array([1, 0], dtype=np.uint8), 2, 7)]
        b = [LatentCode(np.array([0, 1], dtype=np.uint8), 2, 7)]
        assert vote_and_diff(a, b, 3, 12).format_table() == "\n".join([
            "latent diff: rp 3 vs rp 12 (2 differing bits)",
            "  bit       ap window  rp3      rp12    ",
            "    0          [0, 4)  1        0       ",
            "    1          [4, 7)  0        1       ",
        ])
        assert vote_and_diff(a, a, 3, 3).format_table().endswith("\n  (identical latents)")


class TestBitmaps:
    def test_building_scale_dimensions(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "latent.pgm"
        write_latent_bitmap(rng.integers(0, 2, (61, 82)).astype(np.uint8), path)
        img = read_pgm(path)
        assert img.shape == (61, 82)

    def test_all_zero_is_black(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_latent_bitmap(np.zeros((3, 8), dtype=np.uint8), path)
        assert not read_pgm(path).any()

    def test_round_trip_reproduces_bits(self, tmp_path):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, (7, 10)).astype(np.uint8)
        path = tmp_path / "rt.pgm"
        write_latent_bitmap(bits, path)
        assert np.array_equal(read_latent_bitmap(path), bits)

    def test_rows_sorted_by_rp_id(self, tmp_path):
        ids, rows = majority_by_rp([4, 2], np.array([[1, 1], [0, 0]], dtype=np.uint8))
        path = tmp_path / "sorted.pgm"
        write_latent_bitmap(rows, path)
        img = read_pgm(path)
        assert ids == [2, 4]
        assert img[0].tolist() == [0, 0] and img[1].tolist() == [255, 255]

    def test_non_bit_value_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="only 0 and 1"):
            write_latent_bitmap([[0, 1, 2]], tmp_path / "two.pgm")
        assert not (tmp_path / "two.pgm").exists()

    def test_gray_export_scales_linearly(self, tmp_path):
        path = tmp_path / "gray.pgm"
        export_gray_bitmap(np.array([[0.0, 0.5, 1.0]]), path)
        assert read_pgm(path)[0].tolist() == [0, 128, 255]

    def test_gray_export_survives_a_range_wider_than_float64(self, tmp_path):
        path = tmp_path / "gray.pgm"
        export_gray_bitmap(np.array([[-1e308, 0.0, 1e308]]), path)
        assert read_pgm(path)[0].tolist() == [0, 128, 255]

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                           max_size=12), subnormal=st.booleans())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(values=[0.0, 5e-324], subnormal=False)
    def test_gray_export_matches_the_unhalved_formula_where_it_fits(self, tmp_path, values,
                                                                   subnormal):
        arr = np.array([values]) * (5e-324 if subnormal else 1.0)
        lo, hi = arr.min(), arr.max()
        with np.errstate(over="ignore"):
            assume(np.isfinite(hi - lo))
        # The formula the export used before it handled an overflowing range.
        scaled = np.zeros_like(arr) if hi == lo else (arr - lo) / (hi - lo)
        path = tmp_path / "gray.pgm"
        export_gray_bitmap(arr, path)
        assert np.array_equal(read_pgm(path), np.round(scaled * 255).astype(np.uint8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gray_export_rejects_non_finite_values(self, tmp_path, bad):
        path = tmp_path / "gray.pgm"
        with pytest.raises(ValidationError, match="finite"):
            export_gray_bitmap(np.array([[0.0, bad, 1.0]]), path)
        assert not path.exists()


class TestMajorityByRp:
    def test_matches_a_per_rp_vote(self):
        rng = np.random.default_rng(7)
        rp_ids = rng.integers(0, 5, 40)
        bits = rng.integers(0, 2, (40, 9)).astype(np.uint8)
        ids, rows = majority_by_rp(rp_ids, bits)
        assert ids == sorted(set(rp_ids.tolist()))
        assert rows.dtype == np.uint8 and rows.shape == (len(ids), 9)
        for rp, row in zip(ids, rows):
            group = bits[rp_ids == rp]
            assert np.array_equal(row, 2 * group.sum(axis=0) >= len(group))

    def test_ties_resolve_to_one(self):
        ids, rows = majority_by_rp([3, 3], np.array([[1, 0], [0, 1]], dtype=np.uint8))
        assert ids == [3] and rows.tolist() == [[1, 1]]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            majority_by_rp([], np.zeros((0, 4), dtype=np.uint8))

    def test_fewer_ids_than_rows_rejected(self):
        bits = np.zeros((5, 2), dtype=np.uint8)
        with pytest.raises(ShapeError, match="3 RP ids for 5 latent rows"):
            majority_by_rp([0, 0, 1], bits)

    def test_more_ids_than_rows_rejected(self):
        bits = np.zeros((5, 2), dtype=np.uint8)
        with pytest.raises(ShapeError, match="6 RP ids for 5 latent rows"):
            majority_by_rp([0, 0, 1, 1, 2, 2], bits)

    def test_non_bit_value_rejected(self):
        with pytest.raises(ValidationError, match="only 0 and 1"):
            majority_by_rp([0, 1], [[2, 0], [1, 5]])


class TestCiStatsRounding:
    def test_equal_non_integer_errors_keep_mean_within_min_max(self):
        # The float mean of three 0.1 m errors is 0.10000000000000002 > max.
        head = DenseStack(((np.zeros((1, 2)), np.array([0.0, 1.0])),), (0, 1))
        clf = LogNetClassifier(LogicEncoderConfig(GateType.NOR), head, ap_count=2)
        test = Dataset.from_columns([0] * 3, ["d"] * 3, [0] * 3, [[-40.0, -80.0]] * 3)
        report = evaluate(clf, test, RpMap({0: (0.0, 0.0), 1: (0.1, 0.0)}))
        stats = report.per_ci[0]
        assert stats.samples == 3 and stats.accuracy == 0.0
        assert stats.min_error_m == stats.mean_error_m == stats.max_error_m == 0.1
