"""Fingerprint domain types and the normalize/binarize/split front-end."""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SplitError, UnknownRpError, ValidationError

# A non-detected AP is recorded as exactly this dBm value. It normalizes to 0
# and binarizes to 0, so a missing AP behaves like an inactive one.
RSS_SENTINEL = -100.0

# Fixed global dBm range used for min-max scaling. A global range (rather than
# per-dataset min/max) keeps later collection instances on the same scale as
# the training data.
DEFAULT_RSS_LO = -100.0
DEFAULT_RSS_HI = 0.0

DEFAULT_THRESHOLD = 0.5

# rp_id and ci are stored as int64 columns.
_ID_LIMIT = 2**63


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _has_type(value, kind) -> bool:
    """Whether `value` has type hint `kind`, by the one field-type rule: a bool is no number, a
    float is finite (an int counts), and a `list[...]` or `tuple[...]` takes a list or a tuple."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return any(_has_type(value, k) for k in args)
    if origin is list or (origin is tuple and args[-1] is Ellipsis):
        return isinstance(value, (list, tuple)) and all(_has_type(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_has_type, value, args)))
    if isinstance(value, bool):
        return False
    if kind is float:
        try:  # NaN, an infinity or an int beyond float64's range is no usable float
            return isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:
            return False
    return isinstance(value, numbers.Integral if kind is int else kind)


# The field hints of a dataclass, resolved once per class: uncached, a call costs about 150 µs.
_field_hints = functools.cache(typing.get_type_hints)

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a JSON array",
               dict: "a JSON object", np.ndarray: "an array", type(None): "null"}


def _shown(value) -> str:
    """`value` as a message shows it: its repr, cut to 60 characters."""
    try:
        text = repr(value)
    except ValueError:  # it holds an int too long for str()
        return f"<{type(value).__name__} too long to show>"
    return text if len(text) <= 60 else text[:57] + "..."


def _must_be(name: str, kind, value) -> str:
    """The one message for a rejected value. `kind` is a phrase or a type hint; a class that
    `_KIND_NAMES` lacks is "a <name>", and a generic hint is named by its text."""
    kinds = typing.get_args(kind) if typing.get_origin(kind) is types.UnionType else (kind,)
    what = " or ".join(_KIND_NAMES.get(k) or (f"a {k.__name__}" if isinstance(k, type) else str(k))
                       for k in kinds)
    return f"{name} must be {what}, got {_shown(value)}"


def _same(a, b, names) -> bool:
    """Value equality: NotImplemented unless `b` is an instance of `a`'s type, else whether
    every field in `names` is equal in both by `np.array_equal`."""
    if not isinstance(b, type(a)):
        return NotImplemented
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


def _enum_named(cls, what: str, name):
    """The member of enum `cls` whose value is str `name`, trimmed and lower-cased, else a
    ConfigError."""
    try:
        return cls(name.strip().lower())
    except (AttributeError, ValueError):  # no str, or no member's value
        valid = ", ".join(m.value for m in cls)
        raise ConfigError(_must_be(what, f"one of ({valid})", name)) from None


def _check_seed(name: str, seed) -> None:
    """Raise ConfigError unless `seed` is a non-negative integer by `_has_type`, naming it `name`."""
    if not _has_type(seed, int):
        raise ConfigError(_must_be(name, int, seed))
    if seed < 0:
        raise ConfigError(_must_be(name, "non-negative", seed))


def _check_fields(obj, name=None) -> None:
    """Raise ConfigError unless each field of dataclass `obj` has its hint's type by `_has_type`,
    naming the field as `name(field)` does, by default as `Class.field`."""
    for field, kind in _field_hints(type(obj)).items():
        value = getattr(obj, field)
        if not _has_type(value, kind):
            where = name(field) if name else f"{type(obj).__name__}.{field}"
            raise ConfigError(_must_be(where, kind, value))


def _id_error(name: str, value) -> str | None:
    """Why `value` is no rp_id or ci, or None if it is one.

    An id is a non-bool integer in [0, 2**63).
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        return _must_be(name, int, value)
    if value < 0:
        return _must_be(name, "non-negative", value)
    if value >= _ID_LIMIT:
        return _must_be(name, "below 2**63", value)
    return None


def _check_id(name: str, value) -> int:
    """`value` if it is an rp_id or ci by `_id_error`'s rule, else a ValidationError."""
    error = _id_error(name, value)
    if error:
        raise ValidationError(error)
    return value


def _id_column_ok(col: np.ndarray) -> np.ndarray:
    """Which entries of an rp_id or ci column `_id_error` accepts."""
    if col.dtype.kind in "iu":
        return (col >= 0) & (col < _ID_LIMIT)
    return np.array([_id_error("", v) is None for v in col.tolist()], dtype=bool)


def check_fingerprint(rp_id: int, ci: int, rss) -> np.ndarray:
    """Validate one fingerprint's fields; return its RSS as a float64 vector.

    Raises ValidationError for RSS entries that are no numbers, an empty or
    non-1-D RSS vector, a non-finite RSS value, or an rp_id or ci that is not
    an integer in [0, 2**63), checked in that order.
    """
    try:
        rss = np.asarray(rss, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged, or an entry that is no float
        raise ValidationError(_must_be("rss", "a vector of numbers", rss)) from None
    if rss.ndim != 1 or rss.size == 0:
        raise ValidationError("rss must be a non-empty 1-D vector")
    if not np.isfinite(rss).all():
        raise ValidationError("rss values must be finite")
    _check_id("rp_id", rp_id)
    _check_id("ci", ci)
    return rss


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """One RSS vector (dBm per AP) tagged with RP label, device and collection instance."""

    rp_id: int
    device_id: str
    ci: int
    rss: np.ndarray  # dBm per AP

    def __post_init__(self):
        object.__setattr__(self, "rss", _readonly(check_fingerprint(self.rp_id, self.ci, self.rss)))

    @classmethod
    def _row(cls, rp_id: int, device_id: str, ci: int, rss: np.ndarray) -> "Fingerprint":
        """A row of a Dataset, whose columns are validated already."""
        fp = object.__new__(cls)
        fp.__dict__.update(rp_id=rp_id, device_id=device_id, ci=ci, rss=rss)
        return fp

    @property
    def ap_count(self) -> int:
        return int(self.rss.size)

    def __eq__(self, other) -> bool:
        return _same(self, other, ("rp_id", "device_id", "ci", "rss"))


class Dataset:
    """Fingerprints sharing one AP inventory, stored as read-only columns.

    `rss` is an (n, ap_count) float64 matrix, `rp_id` and `ci` are int64
    vectors and `device_id` an object vector of str, one entry per row.
    Iterating builds one `Fingerprint` per row from the columns as it goes,
    without validating it again; the dataset keeps no row.
    """

    __slots__ = ("ap_count", "rss", "rp_id", "ci", "device_id")

    def __init__(self, fingerprints: Iterable[Fingerprint], ap_count: int):
        fps = tuple(fingerprints)
        # An exact int takes the short path: localize builds one dataset per query.
        if not (type(ap_count) is int or _has_type(ap_count, int)) or ap_count <= 0:
            raise ValidationError(_must_be("ap_count", "a positive integer", ap_count))
        for fp in fps:
            if fp.rss.size != ap_count:
                raise ValidationError(
                    f"fingerprint for rp {fp.rp_id} has {fp.ap_count} APs, expected {ap_count}"
                )
        self._adopt(
            ap_count,
            np.array([fp.rss for fp in fps], dtype=np.float64).reshape(len(fps), ap_count),
            np.array([fp.rp_id for fp in fps], dtype=np.int64),
            np.array([fp.ci for fp in fps], dtype=np.int64),
            np.array([fp.device_id for fp in fps], dtype=object),
        )

    def _adopt(self, ap_count, rss, rp_id, ci, device_id) -> None:
        for col in (rss, rp_id, ci, device_id):
            col.setflags(write=False)
        init = object.__setattr__
        init(self, "ap_count", int(ap_count))
        init(self, "rss", rss)
        init(self, "rp_id", rp_id)
        init(self, "ci", ci)
        init(self, "device_id", device_id)

    @classmethod
    def _of(cls, ap_count, rss, rp_id, ci, device_id) -> "Dataset":
        """Wrap columns that are validated already, without copying them."""
        ds = object.__new__(cls)
        ds._adopt(ap_count, rss, rp_id, ci, device_id)
        return ds

    @classmethod
    def from_columns(cls, rp_id, device_id: Sequence[str], ci, rss) -> "Dataset":
        """Build a dataset from per-row columns and an (n, ap_count) RSS matrix.

        The arrays are adopted without a copy where their dtype already fits,
        and they become read-only. Raises ValidationError on mismatched
        lengths or on a row that `Fingerprint` would reject.
        """
        try:
            rss = np.asarray(rss, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):  # ragged rows, or an entry that is no float
            rss = None
        if rss is None or rss.ndim != 2 or rss.shape[1] == 0:
            raise ValidationError("rss must be an (n, ap_count) matrix with ap_count >= 1")
        n = rss.shape[0]
        ids, cis = (np.asarray(col) for col in (rp_id, ci))
        device_id = np.asarray(device_id, dtype=object)
        if any(col.shape != (n,) for col in (ids, cis, device_id)):
            raise ValidationError(f"rp_id, device_id and ci must each hold {n} entries")
        ok = np.isfinite(rss).all(axis=1) & _id_column_ok(ids) & _id_column_ok(cis)
        bad = np.flatnonzero(~ok)
        if bad.size:
            i = int(bad[0])
            try:
                check_fingerprint(ids[i : i + 1].tolist()[0], cis[i : i + 1].tolist()[0], rss[i])
            except ValidationError as exc:
                raise ValidationError(f"row {i}: {exc}") from None
        return cls._of(
            rss.shape[1], rss, ids.astype(np.int64, copy=False), cis.astype(np.int64, copy=False),
            device_id,
        )

    def __len__(self) -> int:
        return self.rss.shape[0]

    def __iter__(self) -> Iterator[Fingerprint]:
        return map(Fingerprint._row, self.rp_id.tolist(), self.device_id.tolist(),
                   self.ci.tolist(), self.rss)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Dataset._of, (self.ap_count, self.rss, self.rp_id, self.ci, self.device_id)

    def __eq__(self, other) -> bool:
        return _same(self, other, ("ap_count", "rss", "rp_id", "ci", "device_id"))

    def __repr__(self) -> str:
        return f"Dataset({len(self)} fingerprints, ap_count={self.ap_count})"

    @property
    def rp_ids(self) -> frozenset[int]:
        return frozenset(self.rp_id.tolist())

    @property
    def cis(self) -> tuple[int, ...]:
        return tuple(np.unique(self.ci).tolist())

    def rss_matrix(self) -> np.ndarray:
        """The read-only (num_fingerprints, ap_count) RSS matrix, without a copy."""
        return self.rss

    def _take(self, rows) -> "Dataset":
        """Sub-dataset of the rows selected by a boolean mask or index array."""
        return Dataset._of(
            self.ap_count, self.rss[rows], self.rp_id[rows], self.ci[rows], self.device_id[rows]
        )

    def with_ci(self, ci: int) -> "Dataset":
        """Sub-dataset containing only the given collection instance."""
        return self._take(self.ci == ci)


def _check_rp_entry(rp_id, xy) -> tuple[float, float]:
    """RP `rp_id`'s (x, y) in meters as floats, else a ValidationError.

    `rp_id` must be an id by `_check_id`, and `xy` exactly two floats by `_has_type`.
    """
    _check_id("rp_id", rp_id)
    try:
        x, y = xy
    except (TypeError, ValueError):  # no pair
        x = y = None
    if not (_has_type(x, float) and _has_type(y, float)):
        raise ValidationError(_must_be(f"coordinates for rp {rp_id}", "two finite numbers", xy))
    return float(x), float(y)


@dataclass(frozen=True)
class RpMap:
    """Planar (x, y) coordinates in meters for each reference point."""

    entries: Mapping[int, tuple[float, float]]

    def __post_init__(self):
        clean = {}
        for rp_id, xy in dict(self.entries).items():
            clean[int(rp_id)] = _check_rp_entry(rp_id, xy)  # checked before int() runs
        object.__setattr__(self, "entries", clean)

    def __contains__(self, rp_id: int) -> bool:
        return rp_id in self.entries

    @property
    def rp_ids(self) -> frozenset[int]:
        return frozenset(self.entries)

    def coords(self, rp_id: int) -> np.ndarray:
        if rp_id not in self.entries:
            raise UnknownRpError(f"rp_id {rp_id} has no coordinates")
        return np.asarray(self.entries[rp_id], dtype=np.float64)

    def require_covers(self, ds: Dataset) -> None:
        missing = sorted(ds.rp_ids - self.rp_ids)
        if missing:
            raise UnknownRpError(f"rp map lacks coordinates for rp_ids {missing}")


def check_rss_range(lo, hi) -> None:
    """Raise ConfigError unless [lo, hi] is a finite dBm range with lo < hi; a bool is no bound."""
    # `_has_type`'s rule for a float, by a shorter path: `predict` runs this on every call.
    try:
        finite = math.isfinite(lo) and math.isfinite(hi)
    except (TypeError, OverflowError):  # no number, or an int beyond float64's range
        finite = False
    if not (finite and lo < hi) or isinstance(lo, bool) or isinstance(hi, bool):
        raise ConfigError(_must_be("rss range", "finite with lo < hi", [lo, hi]))


def normalize_values(
    values: np.ndarray, lo: float = DEFAULT_RSS_LO, hi: float = DEFAULT_RSS_HI
) -> np.ndarray:
    """Clamp dBm values into [lo, hi] and scale linearly onto [0, 1].

    Returns a fresh float64 array equal bit for bit to
    `(np.clip(values, lo, hi) - lo) / (hi - lo)`, computed in that one array.
    """
    check_rss_range(lo, hi)
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(values.shape)
    # maximum(lo, x), not maximum(x, lo): on a tie of signed zeros it keeps x, as np.clip does.
    np.maximum(lo, values, out=out)
    np.minimum(out, hi, out=out)
    out -= lo
    out /= hi - lo
    return out


def normalize(ds: Dataset, lo: float = DEFAULT_RSS_LO, hi: float = DEFAULT_RSS_HI) -> Dataset:
    """Normalize every fingerprint in the dataset onto [0, 1]."""
    return Dataset.from_columns(ds.rp_id, ds.device_id, ds.ci, normalize_values(ds.rss, lo, hi))


def binarize_matrix(values: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Threshold normalized values into activity bits, element by element.

    The comparison is inclusive: a value exactly at the threshold counts as
    active (1).
    """
    check_threshold(threshold)
    values = np.asarray(values, dtype=np.float64)
    # Written so that a NaN, which fails every comparison, is rejected too.
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValidationError(
            "binarize expects normalized values in [0, 1]; run normalize() first"
        )
    return (values >= threshold).view(np.uint8)


def check_threshold(threshold: float) -> None:
    """Raise ConfigError unless the binarization threshold is a number in (0, 1)."""
    try:  # `predict` runs this on every call, so only a failed comparison costs more
        inside = 0.0 < threshold < 1.0
    except (TypeError, ValueError):  # no number, or an array of several
        inside = False
    if not inside:
        raise ConfigError(_must_be("threshold", "in (0, 1)", threshold))


def split_train_test(ds: Dataset, per_rp_holdout: int, seed: int) -> tuple[Dataset, Dataset]:
    """Hold out `per_rp_holdout` fingerprints per (rp_id, ci) group for testing.

    The holdout is chosen by a seeded shuffle, stratified per reference point
    and collection instance, so the same seed always produces the same split.
    Train and test partition the dataset exactly.
    """
    if not (_has_type(per_rp_holdout, int) and per_rp_holdout >= 0):
        raise ConfigError(_must_be("per_rp_holdout", "a non-negative integer", per_rp_holdout))
    _check_seed("seed", seed)

    # Rows sorted by (rp_id, ci); the sort is stable, so each group keeps row order.
    order = np.lexsort((ds.ci, ds.rp_id))
    rp, ci = ds.rp_id[order], ds.ci[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (rp[1:] != rp[:-1]) | (ci[1:] != ci[:-1])
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, len(order)))
    small = np.flatnonzero(sizes < per_rp_holdout + 1)
    if small.size:
        g = small[0]
        raise SplitError(
            f"group rp_id={rp[starts[g]]} ci={ci[starts[g]]} has {sizes[g]} fingerprints; "
            f"need at least {per_rp_holdout + 1} for a holdout of {per_rp_holdout}"
        )

    rng = np.random.default_rng(seed)
    test = np.zeros(len(order), dtype=bool)
    for start, size in zip(starts.tolist(), sizes.tolist()):
        members = order[start : start + size]
        test[members[rng.permutation(size)[:per_rp_holdout]]] = True
    return ds._take(~test), ds._take(test)
