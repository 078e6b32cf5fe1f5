import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from lognet import (
    ConfigError,
    Dataset,
    Fingerprint,
    GateType,
    LogicEncoderConfig,
    NoiseMode,
    RpMap,
    SplitError,
    TrainConfig,
    UnknownRpError,
    ValidationError,
    binarize_matrix,
    dnn_hidden_widths,
    encode_matrix,
    normalize,
    normalize_values,
    split_train_test,
)
from lognet import pipeline


# Columns of two ids, each first entry no id: a fraction, which int64 would
# truncate; a str; a bool, which is an int to Python; and a NaN.
NON_IDS = [[0.5, 1.7], ["a", "b"], [True, False], [float("nan"), 1]]
NON_ID_NAMES = ["fraction", "str", "bool", "nan"]


class TestFingerprint:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Fingerprint(0, "d", 0, [np.nan, -50.0])

    def test_rejects_negative_ids(self):
        with pytest.raises(ValidationError):
            Fingerprint(-1, "d", 0, [-50.0])
        with pytest.raises(ValidationError):
            Fingerprint(0, "d", -2, [-50.0])

    @pytest.mark.parametrize("bad", NON_IDS, ids=NON_ID_NAMES)
    @pytest.mark.parametrize("field", ["rp_id", "ci"])
    def test_rejects_non_integer_ids(self, field, bad):
        ids = {"rp_id": 0, "ci": 0, field: bad[0]}
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got "):
            Fingerprint(ids["rp_id"], "d", ids["ci"], [-50.0])

    @pytest.mark.parametrize("rss", [["a"], [[-50.0], [-60.0, -70.0]], [10**400]],
                             ids=["str", "ragged", "int-beyond-float64"])
    def test_rss_that_is_no_vector_of_numbers_names_rss(self, rss):
        with pytest.raises(ValidationError, match="^rss must be a vector of numbers, got "):
            Fingerprint(0, "d", 0, rss)

    def test_rss_is_immutable(self):
        fp = Fingerprint(0, "d", 0, [-50.0, -60.0])
        with pytest.raises(ValueError):
            fp.rss[0] = 0.0

    def test_equality_compares_values(self):
        a = Fingerprint(0, "d", 0, [-50.0, -60.0])
        b = Fingerprint(0, "d", 0, [-50.0, -60.0])
        c = Fingerprint(0, "d", 0, [-50.0, -61.0])
        assert a == b and a != c


class TestDataset:
    def test_rejects_mixed_ap_counts(self):
        fps = [Fingerprint(0, "d", 0, [-50.0, -60.0]), Fingerprint(1, "d", 0, [-50.0])]
        with pytest.raises(ValidationError, match="has 1 APs, expected 2"):
            Dataset(fps, 2)

    def test_from_columns_rejects_an_int_beyond_float64(self):
        with pytest.raises(ValidationError, match=r"rss must be an \(n, ap_count\) matrix"):
            Dataset.from_columns([0], ["d"], [0], [[10**400]])

    def test_from_columns_rejects_ragged_rows(self):
        with pytest.raises(ValidationError, match=r"rss must be an \(n, ap_count\) matrix"):
            Dataset.from_columns([0, 1], ["d", "d"], [0, 0], [[-50.0, -60.0], [-50.0]])

    def test_rp_ids_and_cis(self, tiny_dataset):
        assert tiny_dataset.rp_ids == frozenset({0, 1})
        assert tiny_dataset.cis == (0,)
        assert tiny_dataset.ap_count == 3

    def test_empty_split_keeps_ap_count(self, tiny_dataset):
        empty = Dataset((), tiny_dataset.ap_count)
        assert len(empty) == 0 and empty.ap_count == 3


class TestRpMap:
    def test_coords_and_lookup_error(self, tiny_rp_map):
        assert np.allclose(tiny_rp_map.coords(1), [1.0, 0.0])
        with pytest.raises(UnknownRpError):
            tiny_rp_map.coords(7)

    @pytest.mark.parametrize("xy", [(np.inf, 0.0), (0.0, np.nan), (10**400, 0.0)])
    def test_rejects_non_finite(self, xy):
        with pytest.raises(ValidationError, match="coordinates for rp 0"):
            RpMap({0: xy})

    @pytest.mark.parametrize("xy", [("a", 0.0), (1.0,), 5, (1.0, 2.0, 3.0), (True, 0.0),
                                    (0.0, np.bool_(False)), "xy", None])
    def test_rejects_coordinates_that_are_not_two_numbers(self, xy):
        with pytest.raises(ValidationError, match="must be two finite numbers"):
            RpMap({0: xy})

    def test_coordinates_become_floats(self):
        rp_map = RpMap({np.int64(2): [np.float32(0.5), 3], 0: np.array([1.0, -2.0])})
        assert rp_map.entries == {2: (0.5, 3.0), 0: (1.0, -2.0)}
        assert all(type(v) is float for xy in rp_map.entries.values() for v in xy)
        assert all(type(k) is int for k in rp_map.entries)

    @pytest.mark.parametrize("rp_id", [1.7, -3, True, 2**63, "a", None])
    def test_rejects_a_key_that_is_no_rp_id(self, rp_id):
        with pytest.raises(ValidationError, match="rp_id"):
            RpMap({rp_id: (0.0, 0.0)})

    def test_require_covers(self, tiny_dataset):
        with pytest.raises(UnknownRpError):
            RpMap({0: (0.0, 0.0)}).require_covers(tiny_dataset)


class TestNormalize:
    def test_bounds_map_to_unit_interval(self):
        assert normalize_values(np.array([-100.0]), -100.0, 0.0)[0] == 0.0
        assert normalize_values(np.array([0.0]), -100.0, 0.0)[0] == 1.0

    def test_midpoint(self):
        # (-50 - (-100)) / (0 - (-100)) = 0.5 by hand.
        assert normalize_values(np.array([-50.0]), -100.0, 0.0)[0] == 0.5

    def test_clamps_out_of_range(self):
        out = normalize_values(np.array([-150.0, 10.0]), -100.0, 0.0)
        assert out[0] == 0.0 and out[1] == 1.0

    def test_bad_range_is_config_error(self, tiny_dataset):
        with pytest.raises(ConfigError):
            normalize(tiny_dataset, 0.0, -100.0)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        v = np.sort(rng.uniform(-120.0, 5.0, 200))
        out = normalize_values(v)
        assert np.all(np.diff(out) >= 0)

    def test_dataset_values_in_unit_interval(self, tiny_dataset):
        norm = normalize(tiny_dataset)
        X = norm.rss_matrix()
        assert X.min() >= 0.0 and X.max() <= 1.0


class TestBinarize:
    def test_direct_threshold(self):
        assert binarize_matrix([0.7, 0.3], 0.5).tolist() == [1, 0]

    def test_boundary_is_inclusive(self):
        assert binarize_matrix([0.5, 0.5], 0.5).tolist() == [1, 1]

    def test_strict_sides_of_boundary(self):
        assert binarize_matrix([0.49999, 0.50001], 0.5).tolist() == [0, 1]

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValidationError):
            binarize_matrix([-40.0, 0.5], 0.5)

    def test_threshold_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                binarize_matrix([0.5], bad)

    def test_sub_threshold_jitter_keeps_bits(self):
        # Jitter that never moves a normalized value across the threshold
        # cannot change the binarized fingerprint.
        rng = np.random.default_rng(1)
        for _ in range(50):
            raw = rng.uniform(-100.0, 0.0, 32)
            base = binarize_matrix(normalize_values(raw)[None, :])
            jittered = np.where(raw >= -50.0, rng.uniform(-50.0, 0.0, 32),
                                rng.uniform(-100.0, -50.0001, 32))
            moved = binarize_matrix(normalize_values(jittered)[None, :])
            assert np.array_equal(base, moved)


class TestSplit:
    def test_five_one_ratio(self, tiny_dataset):
        train, test = split_train_test(tiny_dataset, 1, seed=0)
        assert len(train) == 10 and len(test) == 2
        for rp in (0, 1):
            assert sum(fp.rp_id == rp for fp in train) == 5
            assert sum(fp.rp_id == rp for fp in test) == 1

    def test_zero_holdout_degenerates(self, tiny_dataset):
        train, test = split_train_test(tiny_dataset, 0, seed=3)
        assert train == tiny_dataset and len(test) == 0

    def test_same_seed_same_split(self, tiny_dataset):
        a = split_train_test(tiny_dataset, 2, seed=9)
        b = split_train_test(tiny_dataset, 2, seed=9)
        assert a[0] == b[0] and a[1] == b[1]

    def test_partition(self, tiny_dataset):
        def contents(ds):
            return [(fp.rp_id, fp.device_id, fp.ci, tuple(fp.rss.tolist())) for fp in ds]

        train, test = split_train_test(tiny_dataset, 2, seed=5)
        rows = contents(tiny_dataset)
        assert len(set(rows)) == len(rows)  # each row is told apart by its content
        assert sorted(contents(train) + contents(test)) == sorted(rows)

    def test_too_small_group_names_offender(self):
        ds = Dataset.from_columns([3, 3], ["d", "d"], [1, 1], [[-50.0], [-60.0]])
        with pytest.raises(SplitError, match=r"rp_id=3 ci=1"):
            split_train_test(ds, 2, seed=0)

    def test_stratified_per_ci(self):
        # Four rows for each (ci, rp) pair, with ci outermost.
        ci, rp, k = (col.ravel() for col in np.indices((2, 2, 4)))
        rss = np.column_stack([-40.0 - k, np.full(16, -80.0)])
        ds = Dataset.from_columns(rp, ["d"] * 16, ci, rss)
        train, test = split_train_test(ds, 1, seed=2)
        for ci in (0, 1):
            for rp in (0, 1):
                assert sum(fp.rp_id == rp and fp.ci == ci for fp in test) == 1


def _split_by_row(ds, per_rp_holdout, seed):
    """Reference split: the per-row loop the columnar split replaced."""
    groups = {}
    for idx, fp in enumerate(ds):
        groups.setdefault((fp.rp_id, fp.ci), []).append(idx)
    rng = np.random.default_rng(seed)
    test_idx = set()
    for key in sorted(groups):
        members = groups[key]
        order = rng.permutation(len(members))
        test_idx.update(members[i] for i in order[:per_rp_holdout])
    fps = tuple(ds)
    train = [fp for i, fp in enumerate(fps) if i not in test_idx]
    test = [fp for i, fp in enumerate(fps) if i in test_idx]
    return Dataset(train, ds.ap_count), Dataset(test, ds.ap_count)


class TestColumnarDataset:
    def test_rss_matrix_is_the_stored_read_only_matrix(self, tiny_dataset):
        X = tiny_dataset.rss_matrix()
        assert X is tiny_dataset.rss_matrix() and X.shape == (12, 3)
        with pytest.raises(ValueError):
            X[0, 0] = 0.0
        assert not tiny_dataset.rp_id.flags.writeable

    def test_iterated_rows_are_views_and_not_validated_again(self, monkeypatch):
        import lognet.data

        ds = Dataset.from_columns([0, 1], ["a", "b"], [0, 2], [[-40.0, -50.0], [-60.0, -70.0]])
        expected = [Fingerprint(0, "a", 0, [-40.0, -50.0]), Fingerprint(1, "b", 2, [-60.0, -70.0])]

        def never(*args):
            raise AssertionError("row validated again")

        monkeypatch.setattr(lognet.data, "check_fingerprint", never)
        rows = list(ds)
        assert rows == expected
        assert all(np.shares_memory(fp.rss, ds.rss_matrix()) for fp in rows)

    def test_an_iterated_row_is_freed_once_the_caller_drops_it(self, tiny_dataset):
        row = next(iter(tiny_dataset))
        ref = weakref.ref(row)
        del row
        gc.collect()
        assert ref() is None

    def test_a_given_fingerprint_is_freed_once_the_caller_drops_it(self):
        fp = Fingerprint(0, "d", 0, [-50.0])
        ds = Dataset((fp,), 1)
        ref = weakref.ref(fp)
        del fp
        gc.collect()
        assert ref() is None
        assert ds.rss_matrix().tolist() == [[-50.0]]

    def test_from_columns_rejects_what_fingerprint_rejects(self):
        with pytest.raises(ValidationError, match="row 1: rss values must be finite"):
            Dataset.from_columns([0, 1], ["d", "d"], [0, 0], [[-50.0], [np.inf]])
        with pytest.raises(ValidationError, match="row 0: ci must be non-negative"):
            Dataset.from_columns([0], ["d"], [-1], [[-50.0]])
        with pytest.raises(ValidationError, match="below 2\\*\\*63"):
            Dataset.from_columns([2**63], ["d"], [0], [[-50.0]])
        with pytest.raises(ValidationError):
            Dataset.from_columns([0, 1], ["d"], [0, 0], [[-50.0], [-60.0]])

    @pytest.mark.parametrize("bad", NON_IDS, ids=NON_ID_NAMES)
    @pytest.mark.parametrize("field", ["rp_id", "ci"])
    def test_from_columns_rejects_non_integer_ids(self, field, bad):
        cols = {"rp_id": [0, 1], "ci": [0, 0], field: bad}
        with pytest.raises(ValidationError, match=f"^row 0: {field} must be an integer, got "):
            Dataset.from_columns(cols["rp_id"], ["a", "b"], cols["ci"], np.full((2, 3), -50.0))

    def test_from_columns_names_the_first_row_without_an_id(self):
        with pytest.raises(ValidationError, match="^row 1: rp_id must be an integer, got 1.5$"):
            Dataset.from_columns(np.array([0, 1.5], dtype=object), ["a", "b"], [0, 0],
                                 np.full((2, 3), -50.0))

    def test_immutable_and_copyable(self, tiny_dataset):
        with pytest.raises(AttributeError):
            tiny_dataset.ap_count = 4
        for clone in (pickle.loads(pickle.dumps(tiny_dataset)), copy.deepcopy(tiny_dataset)):
            assert clone == tiny_dataset and not clone.rss_matrix().flags.writeable

    def test_equality_compares_every_column(self, tiny_dataset):
        assert tiny_dataset == Dataset(tuple(tiny_dataset), 3)
        other = Dataset.from_columns(
            tiny_dataset.rp_id, ["x"] * len(tiny_dataset), tiny_dataset.ci, tiny_dataset.rss
        )
        assert other != tiny_dataset

    @pytest.mark.parametrize("holdout,seed", [(0, 1), (1, 0), (2, 9), (3, 4)])
    def test_split_matches_the_per_row_reference(self, holdout, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 3, (80, 2))
        pad = np.repeat(np.arange(9), 4)  # four padding rows for each (rp, ci) in range(3)**2
        ds = Dataset.from_columns(
            np.concatenate([ids[:, 0], pad // 3]), [f"d{k}" for k in range(80)] + ["pad"] * 36,
            np.concatenate([ids[:, 1], pad % 3]),
            np.vstack([rng.uniform(-90.0, -30.0, (80, 5)), np.full((36, 5), -50.0)]),
        )
        assert split_train_test(ds, holdout, seed) == _split_by_row(ds, holdout, seed)


BAD_RANGES = [
    (float("nan"), 0.0), (-100.0, float("nan")), (-float("inf"), 0.0), (-100.0, float("inf")),
    (0.0, -100.0), (-50.0, -50.0), ("a", 0.0), (-100.0, None), (False, True), (0, True),
]


class TestRssRangeCheck:
    """Every entry point that scales dBm rejects a non-finite or empty range up front."""

    @pytest.mark.parametrize("lo,hi", BAD_RANGES)
    def test_normalize_values(self, lo, hi):
        with pytest.raises(ConfigError, match="rss range must be finite with lo < hi"):
            normalize_values(np.array([-50.0, -20.0]), lo, hi)

    @pytest.mark.parametrize("lo,hi", BAD_RANGES)
    def test_encode_rss(self, lo, hi):
        encoder = LogicEncoderConfig(GateType.NOR, 0.5, 1)
        with pytest.raises(ConfigError, match="rss range"):
            pipeline.encode_rss(np.array([[-30.0, -30.0, -90.0, -90.0]]), encoder, lo, hi)

    @pytest.mark.parametrize("family", ["lognet", "dnn"])
    @pytest.mark.parametrize("lo,hi", BAD_RANGES[:4])
    def test_fit_rejects_the_range_before_training(self, tiny_dataset, monkeypatch, family, lo, hi):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with a bad rss range")

        monkeypatch.setattr(pipeline, "train_softmax", no_training)
        monkeypatch.setattr(pipeline, "train_dnn", no_training)
        cfg = TrainConfig(epochs=3)
        with pytest.raises(ConfigError, match="rss range"):
            if family == "lognet":
                pipeline.fit_lognet(tiny_dataset, LogicEncoderConfig(GateType.NOR, 0.5, 1), cfg,
                                    lo, hi)
            else:
                pipeline.fit_dnn(tiny_dataset, 1, cfg, lo, hi)


# Past Python's 4300-digit limit on converting an int to str.
HUGE = 10**5000


class TestHugeIntsInMessages:
    """A rejected int too long for str() still gets its error, not a ValueError from str()."""

    def test_rp_map_key(self):
        with pytest.raises(ValidationError,
                           match=r"^rp_id must be below 2\*\*63, got <int too long to show>$"):
            RpMap({HUGE: (0.0, 0.0)})

    def test_dataset_column(self):
        with pytest.raises(ValidationError, match=r"^row 0: rp_id must be below 2\*\*63, got <int"):
            Dataset.from_columns([HUGE], ["d"], [0], [[-50.0]])

    def test_rss_range(self):
        with pytest.raises(ConfigError, match="rss range must be finite with lo < hi, got <list"):
            normalize_values(np.zeros(2), -HUGE, 0.0)


class TestScalarArguments:
    """A free function's scalar argument of the wrong type is a ConfigError, not a raw error."""

    @pytest.mark.parametrize("bad", ["a", None, np.array([0.4, 0.6]), HUGE],
                             ids=["str", "None", "array", "huge"])
    def test_threshold_that_is_no_number_in_range(self, bad):
        with pytest.raises(ConfigError, match=r"^threshold must be in \(0, 1\), got "):
            binarize_matrix(np.zeros(2), bad)

    @pytest.mark.parametrize("bad", ["a", None, 0, -HUGE], ids=["str", "None", "0", "-huge"])
    def test_encoder_hidden_layers_that_is_no_number_from_1(self, bad):
        with pytest.raises(ConfigError, match="^hidden_layers must be an integer >= 1, got "):
            encode_matrix(np.zeros((1, 2), np.uint8), GateType.NOR, bad)

    @pytest.mark.parametrize("bad", ["a", None, 1.5, 1.0, True, 0, -HUGE],
                             ids=["str", "None", "1.5", "1.0", "True", "0", "-huge"])
    def test_dnn_hidden_layers_that_is_no_integer_from_1(self, bad):
        with pytest.raises(ConfigError, match="^hidden_layers must be an integer >= 1, got "):
            dnn_hidden_widths(4, bad)

    @pytest.mark.parametrize("bad", ["a", -HUGE, -1, 0.5, 1.5, True],
                             ids=["str", "-huge", "-1", "0.5", "1.5", "True"])
    def test_split_holdout_that_is_no_non_negative_integer(self, tiny_dataset, bad):
        with pytest.raises(ConfigError, match="^per_rp_holdout must be a non-negative integer, got "):
            split_train_test(tiny_dataset, bad, 0)

    @pytest.mark.parametrize("bad,rule", [(-1, "non-negative"), ("a", "an integer"),
                                          (1.5, "an integer"), (True, "an integer")],
                             ids=["-1", "str", "1.5", "True"])
    def test_split_seed_takes_the_settings_seed_rule(self, tiny_dataset, bad, rule):
        with pytest.raises(ConfigError, match=f"^seed must be {rule}, got {bad!r}$"):
            split_train_test(tiny_dataset, 1, bad)

    @pytest.mark.parametrize("bad", ["a", 2.0, True, 0, -HUGE], ids=["str", "2.0", "True", "0", "-huge"])
    def test_dataset_ap_count_that_is_no_positive_integer(self, bad):
        with pytest.raises(ValidationError, match="^ap_count must be a positive integer, got "):
            Dataset((), bad)

    @pytest.mark.parametrize("parse,what", [(GateType.from_name, "gate"),
                                            (NoiseMode.from_name, "noise mode")])
    def test_enum_names(self, parse, what):
        valid = ", ".join(member.value for member in parse.__self__)
        for bad, shown in ((3, "3"), ("x", "'x'"), (None, "None")):
            message = rf"^{what} must be one of \({valid}\), got {shown}$"
            with pytest.raises(ConfigError, match=message):
                parse(bad)
