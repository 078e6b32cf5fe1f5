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
    LatentCode,
    LogicEncoderConfig,
    RpMap,
    SplitError,
    TrainConfig,
    UnknownRpError,
    ValidationError,
    binarize,
    binarize_matrix,
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
        with pytest.raises(ValidationError):
            Dataset.from_fingerprints(fps)

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
        fp = Fingerprint(0, "d", 0, [0.7, 0.3])
        assert binarize(fp, 0.5).bits.tolist() == [1, 0]

    def test_boundary_is_inclusive(self):
        fp = Fingerprint(0, "d", 0, [0.5, 0.5])
        assert binarize(fp, 0.5).bits.tolist() == [1, 1]

    def test_strict_sides_of_boundary(self):
        fp = Fingerprint(0, "d", 0, [0.49999, 0.50001])
        assert binarize(fp, 0.5).bits.tolist() == [0, 1]

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValidationError):
            binarize(Fingerprint(0, "d", 0, [-40.0, 0.5]), 0.5)

    def test_binarize_is_the_depth_0_code_of_binarize_matrix(self):
        rng = np.random.default_rng(12)
        for n in (1, 7, 164):
            fp = Fingerprint(0, "d", 0, rng.uniform(0.0, 1.0, n))
            assert binarize(fp) == LatentCode(binarize_matrix(fp.rss), 0, n)

    def test_threshold_out_of_range(self):
        fp = Fingerprint(0, "d", 0, [0.5])
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                binarize(fp, bad)

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
        fps = [Fingerprint(3, "d", 1, [-50.0]), Fingerprint(3, "d", 1, [-60.0])]
        ds = Dataset.from_fingerprints(fps)
        with pytest.raises(SplitError, match=r"rp_id=3 ci=1"):
            split_train_test(ds, 2, seed=0)

    def test_stratified_per_ci(self):
        fps = []
        for ci in (0, 1):
            for rp in (0, 1):
                for k in range(4):
                    fps.append(Fingerprint(rp, "d", ci, [-40.0 - k, -80.0]))
        ds = Dataset.from_fingerprints(fps)
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
    fps = ds.fingerprints
    train = [fp for i, fp in enumerate(fps) if i not in test_idx]
    test = [fp for i, fp in enumerate(fps) if i in test_idx]
    return Dataset(train, ds.ap_count), Dataset(test, ds.ap_count)


class TestColumnarDataset:
    def test_rss_matrix_is_the_stored_read_only_matrix(self, tiny_dataset):
        X = tiny_dataset.rss_matrix()
        assert X is tiny_dataset.rss_matrix() and X.shape == (12, 3)
        with pytest.raises(ValueError):
            X[0, 0] = 0.0
        assert not tiny_dataset.labels().flags.writeable

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
        assert list(ds.fingerprints) == expected

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
        assert tiny_dataset == Dataset(tiny_dataset.fingerprints, 3)
        other = Dataset.from_columns(
            tiny_dataset.rp_id, ["x"] * len(tiny_dataset), tiny_dataset.ci, tiny_dataset.rss
        )
        assert other != tiny_dataset

    @pytest.mark.parametrize("holdout,seed", [(0, 1), (1, 0), (2, 9), (3, 4)])
    def test_split_matches_the_per_row_reference(self, holdout, seed):
        rng = np.random.default_rng(seed)
        fps = [
            Fingerprint(int(rp), f"d{k}", int(ci), rng.uniform(-90.0, -30.0, 5))
            for k, (rp, ci) in enumerate(rng.integers(0, 3, (80, 2)))
        ]
        fps += [Fingerprint(rp, "pad", ci, [-50.0] * 5) for rp in range(3) for ci in range(3)
                for _ in range(4)]
        ds = Dataset.from_fingerprints(fps)
        assert split_train_test(ds, holdout, seed) == _split_by_row(ds, holdout, seed)


BAD_RANGES = [
    (float("nan"), 0.0), (-100.0, float("nan")), (-float("inf"), 0.0), (-100.0, float("inf")),
    (0.0, -100.0), (-50.0, -50.0),
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
