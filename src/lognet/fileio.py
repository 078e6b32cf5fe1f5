"""CSV ingestion and export for fingerprints, RP maps, latents and deltas.

All formats are line-oriented UTF-8 with `.` as the decimal separator.
Floats are written with Python's shortest round-trip representation, so
write -> read is lossless.
"""

from __future__ import annotations

import csv
import io
import os
import uuid
from contextlib import contextmanager, suppress

import numpy as np

from .data import Dataset, RpMap, check_fingerprint
from .errors import ParseError, ValidationError

_FP_FIXED_COLS = ("rp_id", "device_id", "ci")


@contextmanager
def reading(path):
    """Open `path` as UTF-8 text; a file that cannot be opened or decoded raises ParseError."""
    if "\0" in os.fspath(path):  # open() raises ValueError for it
        raise ParseError("cannot read file: the path contains a NUL byte", path=path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror or exc}", path=path) from None
    except UnicodeDecodeError:
        raise ParseError("file is not valid UTF-8", path=path) from None


@contextmanager
def _csv_rows(path):
    """A csv.reader over `path`; malformed CSV raises ParseError with its line."""
    with reading(path) as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", path=path, line=reader.line_num) from None


def _header(reader, path) -> list[str]:
    header = next(reader, None)
    if header is None:
        raise ParseError("empty file", path=path, line=1)
    return header


@contextmanager
def atomic_open(path):
    """A UTF-8 text file whose contents replace `path` only if the block succeeds.

    The block writes a temp file in the target directory, which os.replace
    then renames over `path`. On any failure the temp file is removed and a
    previous file at `path` is left as it was.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _ap_header(ap_count: int) -> list[str]:
    width = max(3, len(str(max(ap_count - 1, 0))))
    return [f"ap_{i:0{width}d}" for i in range(ap_count)]


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(_FP_FIXED_COLS) + _ap_header(ds.ap_count))
        for rp_id, dev, ci, rss in zip(ds.rp_id.tolist(), device_ids, ds.ci.tolist(), ds.rss):
            fh.write(f"{rp_id},{quoted[dev]},{ci},{','.join(map(repr, rss.tolist()))}\r\n")


def read_fingerprints_csv(path: str) -> Dataset:
    """Parse a fingerprint CSV, reporting the offending line on any violation.

    Rows are checked in file order, so the first bad row is the one
    reported. Each row's RSS fields are converted in one call and copied
    into the dataset's matrix.
    """
    with _csv_rows(path) as reader:
        header = _header(reader, path)
        if tuple(header[:3]) != _FP_FIXED_COLS or len(header) < 4:
            raise ParseError(
                f"header must start with {','.join(_FP_FIXED_COLS)} followed by AP columns",
                path=path,
                line=1,
            )
        ap_count = len(header) - 3
        if header[3:] != _ap_header(ap_count):
            raise ParseError("malformed AP column names", path=path, line=1)

        rp_ids, device_ids, cis = [], [], []
        # Rows are written into one matrix that doubles when full. resize()
        # reallocates in place (nothing else references `rss`), so the file
        # is never held twice, as it would be by stacking per-row arrays.
        rss = np.empty((64, ap_count))
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + ap_count:
                raise ParseError(
                    f"expected {3 + ap_count} fields, got {len(row)}", path=path, line=lineno
                )
            try:
                rp_id = int(row[0])
                ci = int(row[2])
                values = np.fromiter(map(float, row[3:]), np.float64, ap_count)
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno) from None
            try:
                check_fingerprint(rp_id, ci, values)
            except ValidationError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
            if len(rp_ids) == len(rss):
                rss.resize((2 * len(rss), ap_count), refcheck=False)
            rss[len(rp_ids)] = values
            rp_ids.append(rp_id)
            device_ids.append(row[1])
            cis.append(ci)
        if not rp_ids:
            raise ParseError("no fingerprint rows", path=path, line=2)
        rss.resize((len(rp_ids), ap_count), refcheck=False)
    return Dataset.from_columns(rp_ids, device_ids, cis, rss)


def write_rp_map_csv(rp_map: RpMap, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rp_id", "x_m", "y_m"])
        for rp_id in sorted(rp_map.entries):
            x, y = rp_map.entries[rp_id]
            writer.writerow([rp_id, repr(x), repr(y)])


def read_rp_map_csv(path: str) -> RpMap:
    with _csv_rows(path) as reader:
        header = _header(reader, path)
        if header != ["rp_id", "x_m", "y_m"]:
            raise ParseError("header must be rp_id,x_m,y_m", path=path, line=1)
        entries = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", path=path, line=lineno)
            try:
                rp_id, x, y = int(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno) from None
            if rp_id in entries:
                raise ParseError(f"duplicate rp_id {rp_id}", path=path, line=lineno)
            entries[rp_id] = (x, y)
        if not entries:
            raise ParseError("no coordinate rows", path=path, line=2)
    return RpMap(entries)


def write_latents_csv(rp_ids, bit_matrix: np.ndarray, path: str) -> None:
    """Write latent codes in the `rp_id,bit_000,...` schema, one row per code."""
    bits = np.asarray(bit_matrix, dtype=np.uint8)
    rp_ids = list(rp_ids)
    if bits.ndim != 2 or len(rp_ids) != bits.shape[0]:
        raise ParseError(f"{len(rp_ids)} rp_ids for {bits.shape[0]} latent rows", path=path)
    width = max(3, len(str(max(bits.shape[1] - 1, 0))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rp_id"] + [f"bit_{i:0{width}d}" for i in range(bits.shape[1])])
        for rp_id, row in zip(rp_ids, bits):
            writer.writerow([rp_id] + [int(b) for b in row])


def read_latents_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read latent codes back as (rp_ids, (rows, bits) uint8 matrix)."""
    with _csv_rows(path) as reader:
        header = _header(reader, path)
        if not header or header[0] != "rp_id" or len(header) < 2:
            raise ParseError("header must be rp_id,bit_000,...", path=path, line=1)
        n_bits = len(header) - 1
        rp_ids, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1 + n_bits:
                raise ParseError(
                    f"expected {1 + n_bits} fields, got {len(row)}", path=path, line=lineno
                )
            try:
                rp_ids.append(int(row[0]))
                bits = [int(v) for v in row[1:]]
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno) from None
            if any(b not in (0, 1) for b in bits):
                raise ParseError("latent bits must be 0 or 1", path=path, line=lineno)
            if not -(2**63) <= rp_ids[-1] < 2**63:
                raise ParseError(f"rp_id {rp_ids[-1]} does not fit in int64", path=path, line=lineno)
            rows.append(bits)
        if not rows:
            raise ParseError("no latent rows", path=path, line=2)
    return np.asarray(rp_ids, dtype=np.int64), np.asarray(rows, dtype=np.uint8)


def read_delta_csv(path: str) -> np.ndarray:
    """Read a per-AP delta vector from `ap_index,delta_db` rows.

    Indices must cover 0..N-1 exactly once; the vector length is inferred.
    """
    with _csv_rows(path) as reader:
        header = _header(reader, path)
        if header != ["ap_index", "delta_db"]:
            raise ParseError("header must be ap_index,delta_db", path=path, line=1)
        deltas: dict[int, float] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", path=path, line=lineno)
            try:
                idx, value = int(row[0]), float(row[1])
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno) from None
            if idx in deltas:
                raise ParseError(f"duplicate ap_index {idx}", path=path, line=lineno)
            deltas[idx] = value
    if not deltas:
        raise ParseError("no delta rows", path=path, line=2)
    expected = set(range(len(deltas)))
    if set(deltas) != expected:
        missing = sorted(expected - set(deltas))
        raise ParseError(f"ap_index values must cover 0..{len(deltas) - 1}; missing {missing}", path=path)
    return np.asarray([deltas[i] for i in range(len(deltas))], dtype=np.float64)
