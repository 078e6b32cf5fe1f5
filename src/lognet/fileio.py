"""Every file lognet reads or writes: CSV tables, JSON documents and PGM bitmaps.

Reads go through `reading`, which reports an unreadable or undecodable file
as a ParseError naming it; writes go through `atomic_open`, which replaces
the target only once the whole file is written. The CSV formats are
line-oriented UTF-8 with `.` as the decimal separator. Floats are written
with Python's shortest round-trip representation, so write -> read is
lossless.
"""

from __future__ import annotations

import csv
import io
import json
import os
import uuid
from contextlib import contextmanager, suppress

import numpy as np

from .data import Dataset, RpMap, _check_id, _check_rp_entry, check_fingerprint
from .errors import ParseError, ShapeError, ValidationError
from .gates import check_bits

_FP_FIXED_COLS = ("rp_id", "device_id", "ci")


@contextmanager
def reading(path, binary: bool = False):
    """Open `path` as UTF-8 text, or as bytes with `binary`.

    A file that cannot be opened or decoded raises ParseError naming it.
    """
    if "\0" in os.fspath(path):  # open() raises ValueError for it
        raise ParseError("cannot read file: the path contains a NUL byte", path=path)
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    try:
        with open(path, "rb" if binary else "r", **text) as fh:
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror or exc}", path=path) from None
    except UnicodeDecodeError:
        raise ParseError("file is not valid UTF-8", path=path) from None


def read_json(path):
    """The JSON document at `path`; an unreadable file or invalid JSON raises ParseError."""
    with reading(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, or nesting too deep
        raise ParseError(f"invalid JSON: {exc}", path=path) from None


@contextmanager
def atomic_open(path, binary: bool = False):
    """A file, UTF-8 text or bytes, whose contents replace `path` only if the block succeeds.

    The block writes a temp file in the target directory, which os.replace
    then renames over `path`. On any failure the temp file is removed and a
    previous file at `path` is left as it was. Text is written untranslated
    (newline=""), so csv.writer's \\r\\n line ends are kept.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{uuid.uuid4().hex}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, "xb" if binary else "x", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write(path, text: str) -> None:
    """Replace `path` atomically with the UTF-8 `text`."""
    with atomic_open(path) as fh:
        fh.write(text)


def _read_csv(path, header_rule, add_row, what: str) -> None:
    """Feed each data row of the CSV at `path` to `add_row`, reporting faults with their line.

    `header_rule(header)` checks the header and returns the field count of
    every row. Blank rows are skipped. A ValidationError from either callable
    is reported at its line, as is any other ValueError from `add_row`, as a
    non-numeric field. A file with no data rows is an error naming `what`.
    """
    with reading(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("empty file", path=path, line=1)
            try:
                width = header_rule(header)
            except ValidationError as exc:
                raise ParseError(str(exc), path=path, line=1) from None
            rows = 0
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(f"expected {width} fields, got {len(row)}", path=path, line=lineno)
                try:
                    add_row(row)
                except ValidationError as exc:
                    raise ParseError(str(exc), path=path, line=lineno) from None
                except ValueError as exc:
                    raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno) from None
                rows += 1
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", path=path, line=reader.line_num) from None
    if not rows:
        raise ParseError(f"no {what} rows", path=path, line=2)


def _exact_header(*names: str):
    """A header rule for _read_csv that accepts exactly `names`."""

    def rule(header: list[str]) -> int:
        if header != list(names):
            raise ValidationError(f"header must be {','.join(names)}")
        return len(names)

    return rule


def _indexed_header(prefix: str, count: int) -> list[str]:
    """`count` column names: `prefix` and an index zero-padded to at least 3 digits."""
    width = max(3, len(str(max(count - 1, 0))))
    return [f"{prefix}{i:0{width}d}" for i in range(count)]


def _csv_field(value) -> str:
    """`value` as csv.writer's default dialect writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[: -len(",\r\n")]


def write_fingerprints_csv(ds: Dataset, path: str) -> None:
    """Write a dataset in the `rp_id,device_id,ci,ap_000,...` schema.

    The bytes are those of csv.writer's default dialect with every RSS value
    written as repr(float). Rows are formatted and written one at a time.
    """
    device_ids = ds.device_id.tolist()
    quoted = {dev: _csv_field(dev) for dev in set(device_ids)}
    with atomic_open(path) as fh:
        csv.writer(fh).writerow(list(_FP_FIXED_COLS) + _indexed_header("ap_", ds.ap_count))
        for rp_id, dev, ci, rss in zip(ds.rp_id.tolist(), device_ids, ds.ci.tolist(), ds.rss):
            fh.write(f"{rp_id},{quoted[dev]},{ci},{','.join(map(repr, rss.tolist()))}\r\n")


def read_fingerprints_csv(path: str) -> Dataset:
    """Parse a fingerprint CSV, reporting the offending line on any violation.

    Rows are checked in file order, so the first bad row is the one
    reported. Each row's RSS fields are converted in one call and copied
    into the dataset's matrix.
    """
    rp_ids, device_ids, cis = [], [], []
    rss = None

    def header_rule(header):
        nonlocal rss
        if tuple(header[:3]) != _FP_FIXED_COLS or len(header) < 4:
            raise ValidationError(
                f"header must start with {','.join(_FP_FIXED_COLS)} followed by AP columns"
            )
        if header[3:] != _indexed_header("ap_", len(header) - 3):
            raise ValidationError("malformed AP column names")
        # Rows are written into one matrix that doubles when full. resize()
        # reallocates in place (nothing else references `rss`), so the file
        # is never held twice, as it would be by stacking per-row arrays.
        rss = np.empty((64, len(header) - 3))
        return len(header)

    def add_row(row):
        rp_id, ci = int(row[0]), int(row[2])
        values = np.fromiter(map(float, row[3:]), np.float64, rss.shape[1])
        check_fingerprint(rp_id, ci, values)
        if len(rp_ids) == len(rss):
            rss.resize((2 * len(rss), rss.shape[1]), refcheck=False)
        rss[len(rp_ids)] = values
        rp_ids.append(rp_id)
        device_ids.append(row[1])
        cis.append(ci)

    _read_csv(path, header_rule, add_row, "fingerprint")
    rss.resize((len(rp_ids), rss.shape[1]), refcheck=False)
    return Dataset.from_columns(rp_ids, device_ids, cis, rss)


def write_rp_map_csv(rp_map: RpMap, path: str) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["rp_id", "x_m", "y_m"])
        for rp_id in sorted(rp_map.entries):
            x, y = rp_map.entries[rp_id]
            writer.writerow([rp_id, repr(x), repr(y)])


def read_rp_map_csv(path: str) -> RpMap:
    entries = {}

    def add_row(row):
        rp_id = int(row[0])
        if rp_id in entries:
            raise ValidationError(f"duplicate rp_id {rp_id}")
        entries[rp_id] = _check_rp_entry(rp_id, (float(row[1]), float(row[2])))

    _read_csv(path, _exact_header("rp_id", "x_m", "y_m"), add_row, "coordinate")
    return RpMap(entries)


def write_latents_csv(rp_ids, bit_matrix: np.ndarray, path: str) -> None:
    """Write latent codes in the `rp_id,bit_000,...` schema, one row per code."""
    bits = check_bits(bit_matrix)
    rp_ids = list(rp_ids)
    if bits.ndim != 2 or len(rp_ids) != len(bits):
        raise ShapeError(f"{len(rp_ids)} rp_ids for latent rows of shape {bits.shape}")
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["rp_id"] + _indexed_header("bit_", bits.shape[1]))
        for rp_id, row in zip(rp_ids, bits):
            writer.writerow([rp_id] + [int(b) for b in row])


def read_latents_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read latent codes back as (rp_ids, (rows, bits) uint8 matrix)."""
    rp_ids, rows = [], []

    def header_rule(header):
        if len(header) < 2 or header != ["rp_id"] + _indexed_header("bit_", len(header) - 1):
            raise ValidationError("header must be rp_id,bit_000,...")
        return len(header)

    def add_row(row):
        rp_id, bits = int(row[0]), [int(v) for v in row[1:]]
        check_bits(bits)
        _check_id("rp_id", rp_id)
        rp_ids.append(rp_id)
        rows.append(bits)

    _read_csv(path, header_rule, add_row, "latent")
    return np.asarray(rp_ids, dtype=np.int64), np.asarray(rows, dtype=np.uint8)


def read_delta_csv(path: str) -> np.ndarray:
    """Read a per-AP delta vector from `ap_index,delta_db` rows.

    Indices must cover 0..N-1 exactly once; the vector length is inferred.
    """
    deltas: dict[int, float] = {}

    def add_row(row):
        idx, value = int(row[0]), float(row[1])
        if idx in deltas:
            raise ValidationError(f"duplicate ap_index {idx}")
        deltas[idx] = value

    _read_csv(path, _exact_header("ap_index", "delta_db"), add_row, "delta")
    expected = set(range(len(deltas)))
    if set(deltas) != expected:
        missing = sorted(expected - set(deltas))
        raise ParseError(f"ap_index values must cover 0..{len(deltas) - 1}; missing {missing}", path=path)
    return np.asarray([deltas[i] for i in range(len(deltas))], dtype=np.float64)


def write_pgm(matrix: np.ndarray, path: str) -> None:
    """Write a 2-D matrix of integers in [0, 255] as a raw (P5) graymap with maxval 255."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError("PGM export requires a non-empty 2-D matrix")
    with np.errstate(invalid="ignore"):  # NaN or inf casts to some byte; the compare rejects it
        pixels = arr.astype(np.uint8) if arr.dtype.kind in "biuf" else None
    if pixels is None or not np.array_equal(pixels, arr):
        raise ValidationError("PGM pixels must be integers in [0, 255]")
    arr = pixels
    height, width = arr.shape
    with atomic_open(path, binary=True) as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a raw (P5) graymap back into a 2-D uint8 matrix."""
    with reading(path, binary=True) as fh:
        data = fh.read()
    tokens, offset = _pgm_header_tokens(data, path)
    magic, width, height, maxval = tokens
    if magic != b"P5":
        raise ParseError(f"not a raw PGM (magic {magic!r})", path=path)
    try:
        width, height, maxval = int(width), int(height), int(maxval)
    except ValueError:
        raise ParseError("non-numeric PGM header fields", path=path) from None
    if width <= 0 or height <= 0:
        raise ParseError(f"PGM size must be positive, got {width}x{height}", path=path)
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval}; expected 255", path=path)
    raster = data[offset : offset + width * height]
    if len(raster) != width * height:
        raise ParseError(
            f"raster has {len(raster)} bytes; expected {width * height}", path=path
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _pgm_header_tokens(data: bytes, path: str) -> tuple[list[bytes], int]:
    """First four whitespace-separated PGM header tokens, skipping '#' comments."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise ParseError("truncated PGM header", path=path)
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < len(data) and not data[i : i + 1].isspace():
                i += 1
            tokens.append(data[start:i])
    # Exactly one whitespace byte separates the header from the raster.
    return tokens, i + 1
