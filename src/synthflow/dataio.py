"""CSV ingestion, schema application, and reversible min-max scaling.

A :class:`FeatureSchema` names every column of a flow CSV and assigns it a
role. Numeric and categorical columns become matrix features (categoricals
are integer-coded through a frozen dictionary carried by the schema), drop
columns are ignored, and the single label column keeps its text for
filtering. Cleaning maps infinities to the column's finite extrema and drops
rows with unparseable cells, so the resulting matrix is always finite.

Ingest streams: :func:`parse_csv` reads only the header and hands back the
data records as a lazy iterator of raw text, and :func:`clean_numeric`
parses them a block of :data:`BLOCK_ROWS` at a time (numpy's C reader, or
cell by cell where a block needs it), keeps the rows of the selected labels
in one growing float64 matrix and the stats of every row. Memory is bounded
by one block plus the selected rows.

Every artifact file is written through :func:`atomic_write`, so a reader
sees either the previous file or the complete new one.

The dataset cache and the model checkpoint are each two files: a raw
float64 ``.npy`` beside a small JSON document that describes it (for the
dataset: schema, stats, labels and the matrix shape). The JSON document is
the commit record: :func:`save_cache` removes the old one before it writes
the matrix and writes the new one last, so an interrupted save leaves no
document, never an old document paired with a new matrix.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import shutil
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, fields
from itertools import chain, compress, islice
from pathlib import Path

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
DROP = "drop"
LABEL = "label"
_ROLES = (NUMERIC, CATEGORICAL, DROP, LABEL)

DATASET_FORMAT = "sgdata"
DATASET_VERSION = 2


class DataError(ValueError):
    """Malformed input data or an impossible data request."""


@contextmanager
def atomic_write(path):
    """Stream UTF-8 text to ``<path>.tmp``, then move it over ``path``.

    The rename happens only when the block finishes; if it raises, the
    temporary file is removed and ``path`` keeps its previous content. The
    block's own error is the one raised; a failed write names the file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # the block's own error is the one to raise
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno and exc.filename is None:
            exc.filename = str(tmp)  # a write or close error carries no file name
        raise


def write_json(path, doc, indent: int | None = None) -> None:
    """Write ``doc`` as one JSON document plus a trailing newline.

    ``json.dumps`` rather than ``json.dump``: only the one-shot call uses
    the C encoder (for ``indent=None``); the bytes are the same.
    """
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=indent))
        fh.write("\n")


def read_json(path, decode=None):
    """Read the UTF-8 JSON document at ``path`` and return ``decode(doc)``,
    or the document itself when ``decode`` is None.

    Every failure is a :class:`DataError` that names the file: it cannot be
    read, it is not UTF-8 JSON ("corrupt"), or ``decode`` raises a
    ``KeyError``, ``TypeError``, ``AttributeError`` or ``ValueError``
    ("malformed"; a ``DataError`` keeps its own message after the path).
    """
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise DataError(f"{path} is corrupt: {exc}") from exc
    if decode is None:
        return doc
    try:
        return decode(doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"{path} is malformed: {exc!r}") from exc


def _csv_line(cells) -> str:
    return ",".join([
        (f'"{c}"' if "," in c else c) if isinstance(c, str) else repr(c)
        for c in cells
    ]) + "\n"


def write_csv(path, header, rows) -> None:
    """Write a CSV artifact one row at a time.

    Text cells are quoted only when they contain a comma; every other cell
    is its ``repr``, which round-trips floats exactly. Pass plain Python
    numbers (``ndarray.tolist()``), not numpy scalars.
    """
    with atomic_write(path) as fh:
        fh.write(_csv_line(header))
        for row in rows:
            fh.write(_csv_line(row))


def _write_float_rows(fh, matrix: np.ndarray) -> None:
    for row in matrix:  # one row's text at a time: memory stays flat
        fh.write(",".join(map(repr, row.tolist())) + "\n")


def write_matrix_csv(path, header, matrix: np.ndarray) -> None:
    """Write a float64 matrix as a CSV artifact: the bytes :func:`write_csv`
    writes for its rows' ``tolist()``, from two processes.

    Float ``repr`` is the cost, so a worker made with ``os.fork`` formats
    the second half of the rows into ``<name>.part`` while this process
    writes the header and the first half into ``<name>.tmp``; the part is
    then appended and removed. The worker is reaped on every path; one
    that fails raises ``OSError`` and leaves ``path`` as it was. Without
    ``os.fork`` this process writes every row.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    with atomic_write(path) as fh:
        fh.write(_csv_line(header))
        if not hasattr(os, "fork"):
            _write_float_rows(fh, matrix)
            return
        half = len(matrix) // 2
        pid = os.fork()
        if pid == 0:  # the worker: leaves by os._exit alone, flushing nothing inherited
            code = 1
            try:
                with open(part, "w", encoding="utf-8", newline="") as out:
                    _write_float_rows(out, matrix[half:])
                code = 0
            finally:
                os._exit(code)
        try:
            try:
                _write_float_rows(fh, matrix[:half])
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0:
                raise OSError(f"the worker writing {part} exited with {status}")
            fh.flush()
            with open(part, "rb") as rest:
                shutil.copyfileobj(rest, fh.buffer)
        except BaseException:
            with suppress(OSError):  # as in atomic_write: the first error is raised
                part.unlink(missing_ok=True)
            raise
        part.unlink()


def config_from_dict(cls, data: dict):
    """Build the config dataclass ``cls`` from a JSON object.

    Anything but an object, and unknown keys, are rejected; JSON lists
    become tuples.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


def check_count(name: str, value, minimum: int) -> None:
    """Reject a config count or size that is not an ``int`` (a float or a
    bool) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_finite(name: str, value) -> None:
    """Reject a config number that is a bool, NaN or infinite; a value that
    is not a number raises ``TypeError``."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class Column:
    name: str
    role: str
    categories: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise DataError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.role == CATEGORICAL and not self.categories:
            raise DataError(
                f"column {self.name!r}: categorical columns need a frozen "
                f"category list"
            )


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column contract between a raw CSV and the feature matrix."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate column names in schema: {dupes}")
        labels = [c for c in self.columns if c.role == LABEL]
        if len(labels) != 1:
            raise DataError(f"schema needs exactly one label column, got {len(labels)}")
        if not self.feature_columns():
            raise DataError("schema needs at least one numeric column")

    def feature_columns(self) -> list[Column]:
        """Columns that become matrix features, in schema order.

        Categorical columns are integer-coded and then treated as numeric, so
        they count as features.
        """
        return [c for c in self.columns if c.role in (NUMERIC, CATEGORICAL)]

    def feature_names(self) -> list[str]:
        return [c.name for c in self.feature_columns()]

    @property
    def label_column(self) -> Column:
        return next(c for c in self.columns if c.role == LABEL)

    def to_dict(self) -> dict:
        cols = []
        for c in self.columns:
            entry: dict = {"name": c.name, "role": c.role}
            if c.categories is not None:
                entry["categories"] = list(c.categories)
            cols.append(entry)
        return {"columns": cols}

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureSchema":
        try:
            cols = data["columns"]
        except (TypeError, KeyError) as exc:
            raise DataError("schema document needs a 'columns' list") from exc
        parsed = []
        for entry in cols:
            cats = entry.get("categories")
            parsed.append(
                Column(
                    name=str(entry["name"]),
                    role=str(entry["role"]).lower(),
                    categories=tuple(cats) if cats is not None else None,
                )
            )
        return cls(tuple(parsed))


def schema_from_json(path) -> FeatureSchema:
    """Load a schema override from a JSON file."""
    return read_json(path, FeatureSchema.from_dict)


def schema_to_json(schema: FeatureSchema, path) -> None:
    write_json(path, schema.to_dict(), indent=2)


@dataclass
class RawTable:
    """Header names plus an iterable of data records, each the raw text of a
    CSV record of ``len(header)`` cells (lines, if a quoted cell holds one).

    :func:`parse_csv` returns the records as a one-shot lazy iterator.
    """

    header: list[str]
    rows: Iterable[str]


def _mangle_duplicates(names: list[str]) -> list[str]:
    """Disambiguate repeated header names with .1/.2 suffixes.

    CICIDS2017 ships a duplicated 'Fwd Header Length' column; schemas refer
    to the second occurrence as 'Fwd Header Length.1'.
    """
    seen: dict[str, int] = {}
    out = []
    for name in names:
        count = seen.get(name, 0)
        seen[name] = count + 1
        out.append(name if count == 0 else f"{name}.{count}")
    return out


def _record(line: str, lines) -> tuple[list[str], str]:
    """The cells of the CSV record that starts with ``line`` and its raw
    text, which a quoted cell may carry on over further ``lines``."""
    taken = [line]
    more = (taken.append(text) or text for text in lines)
    return next(csv.reader(chain([line], more)), []), "".join(taken)


def _records(source, names: list[str] | None) -> Iterator:
    """Yield the header (read from the file when ``names`` is None), then
    the raw text of each non-blank data record. A path is opened here and
    closed when the iterator ends or is discarded."""
    path = isinstance(source, (str, Path))
    where = f"{source}: " if path else ""
    headerless = names is not None
    fh = open(source, encoding="utf-8-sig", errors="replace", newline="") if path else source
    with fh if path else nullcontext():
        if not headerless:
            first = next(filter(None, csv.reader(fh)), None)
            if first is None:
                raise DataError("empty CSV: no header row found")
            names = _mangle_duplicates([cell.strip() for cell in first])
        yield names
        width, n = len(names), 0
        for line in fh:
            # a line of width - 1 commas and no quote is a record of width
            # cells; the csv module reads any other: blank, quoted or ragged
            if line.count(",") != width - 1 or '"' in line:
                try:
                    cells, line = _record(line, fh)
                except csv.Error as exc:  # an unbalanced quote overruns the field limit
                    raise DataError(f"{where}unreadable row {n + 1}: {exc}") from exc
                if not cells:
                    continue
                if len(cells) != width:
                    raise DataError(
                        f"{where}ragged row {n + 1}: expected {width} cells, got {len(cells)}"
                    )
            n += 1
            yield line
    if headerless and n == 0:
        raise DataError(f"{where}empty CSV: no data rows found")


def parse_csv(source, has_header: bool = True, names: list[str] | None = None) -> RawTable:
    """Read the header of a comma-separated file; stream its data records.

    ``source`` is a path, read as UTF-8 without its byte-order mark, or an
    open text stream. Header cells are whitespace-trimmed and duplicates
    are suffix-mangled. For headerless files pass ``has_header=False`` and
    supply ``names`` (for example from a schema). Only the header is read
    here: the returned table's ``rows`` is a lazy iterator of raw record
    texts, and a path stays open until it is exhausted. Blank lines are
    skipped; a ragged row, or a headerless file without data rows, raises
    :class:`DataError` when the iterator reaches it, naming the 1-based
    data row and, for a path, the file.
    """
    if not has_header and not names:
        raise DataError("headerless CSV needs schema-supplied column names")
    records = _records(source, None if has_header else list(names))
    return RawTable(next(records), records)


# Records per block in clean_numeric. On a 30k-record CICIDS-shaped file it
# took the same time with 256-, 1024- and 4096-record blocks (64 was about
# 15% slower), so the block stays small: its raw text, and its str cells when
# the csv module splits it (about 1.3 MB for 85 columns), are then a small
# share of ingest memory.
BLOCK_ROWS = 256

_LOADTXT = {"delimiter": ",", "comments": None, "ndmin": 2}


def _loadtxt(block: list[str], numeric_cols: list[int], text_cols: list[int]):
    """The block's numeric columns as a float64 matrix and its text columns
    as lists of str, read by numpy's C reader; None when the block is not
    for it: a quote is the csv module's to read, numpy's text type drops a
    trailing NUL, and the C reader rejects some cells ``float`` reads."""
    if any('"' in line or "\0" in line for line in block):
        return None
    try:
        numbers = np.loadtxt(block, usecols=numeric_cols, **_LOADTXT)
        return numbers, np.loadtxt(block, dtype=str, usecols=text_cols, **_LOADTXT).T.tolist()
    except ValueError:
        return None


def _parse_cell(cell: str, cats: dict[str, float] | None) -> float:
    cell = cell.strip()
    if cats is not None:
        return cats.get(cell, np.nan)
    try:
        return float(cell)
    except ValueError:
        return np.nan


def clean_numeric(
    table: RawTable, schema: FeatureSchema, wanted
) -> tuple[np.ndarray, list[str], Counter, int, NormalizationStats]:
    """Parse to a finite float64 matrix the rows :func:`filter_by_label` selects.

    Policy: NaN or unparseable cells (including unknown categorical values)
    drop the whole row. The stats are each column's finite min and max over
    all kept rows, a zero extreme as +0.0; +Infinity becomes the max and
    -Infinity the min. Returns (values, labels, label_counts, dropped,
    stats): the selected rows, columns in schema feature order, and their
    trimmed labels, then the trimmed labels of all kept rows counted. No
    kept row, a column without a finite value or no selected row (in that
    order) is a :class:`DataError`.

    Only the selected rows of each block of :data:`BLOCK_ROWS` records are
    kept. numpy's C reader parses a block (:func:`_loadtxt`): the numeric
    columns as float64, the categorical and label columns as text. A block
    it cannot take goes through the csv module and :func:`_parse_cell`,
    which states the rules (a numeric column tries one ``float`` pass
    first); every cell the C reader accepts, ``float`` reads the same.
    """
    index = {name: i for i, name in enumerate(table.header)}
    feature_cols = schema.feature_columns()
    required = [c.name for c in feature_cols] + [schema.label_column.name]
    missing = [name for name in required if name not in index]
    if missing:
        raise DataError(f"schema columns missing from CSV header: {missing}")

    pick = operator.itemgetter(*(index[name] for name in required))
    cat_maps: list[dict[str, float] | None] = [
        {v: float(i) for i, v in enumerate(c.categories)} if c.role == CATEGORICAL else None
        for c in feature_cols
    ]
    numeric = [j for j, cats in enumerate(cat_maps) if cats is None]
    text = [j for j, cats in enumerate(cat_maps) if cats is not None]
    numeric_cols = [index[required[j]] for j in numeric]
    text_cols = [index[required[j]] for j in text] + [index[required[-1]]]

    d = len(feature_cols)
    # Each block's selected rows are appended by growing one matrix in place
    # (``resize`` reallocates): joining a list of blocks at the end would
    # hold the matrix twice. No view of it exists while it grows.
    values = np.empty((0, d))
    labels: list[str] = []
    label_counts: Counter = Counter()
    dropped = 0
    col_min, col_max = np.full(d, np.inf), np.full(d, -np.inf)
    rows = iter(table.rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        m = len(block)
        parsed = np.empty((m, d))
        if read := _loadtxt(block, numeric_cols, text_cols):
            parsed[:, numeric], (*cells, block_labels) = read
            columns = zip(text, cells)
        else:  # the csv module splits every column
            *cells, block_labels = zip(*map(pick, csv.reader(block)))
            columns = enumerate(cells)
        for j, col in columns:
            if cat_maps[j] is None:
                try:  # float ignores surrounding whitespace: the same values
                    parsed[:, j] = np.fromiter(map(float, col), np.float64, m)
                    continue
                except ValueError:
                    pass
            parsed[:, j] = [_parse_cell(cell, cat_maps[j]) for cell in col]
        keep = ~np.isnan(parsed).any(axis=1)
        kept = parsed[keep]
        finite = np.isfinite(kept)
        np.minimum(col_min, kept.min(axis=0, initial=np.inf, where=finite), out=col_min)
        np.maximum(col_max, kept.max(axis=0, initial=-np.inf, where=finite), out=col_max)
        kept_labels = [lbl.strip() for lbl in compress(block_labels, keep)]
        label_counts.update(kept_labels)
        dropped += m - len(kept)

        selected = filter_by_label(kept_labels, wanted)
        n = len(values)
        values.resize((n + np.count_nonzero(selected), d), refcheck=False)
        values[n:] = kept[selected]
        labels += compress(kept_labels, selected)

    if not label_counts:
        raise DataError(f"cannot normalize matrix of shape {values.shape}")
    for j in np.flatnonzero(col_min == np.inf):
        raise DataError(f"column {feature_cols[j].name!r} has no finite values")
    if not labels:
        raise DataError(
            f"no rows match labels {sorted({str(w).strip().lower() for w in wanted})}; "
            f"available: {sorted(label_counts)}"
        )
    stats = NormalizationStats(col_min + 0.0, col_max + 0.0)  # -0.0 + 0.0 is +0.0
    for column, lo, hi in zip(values.T, stats.col_min, stats.col_max):
        column[column == np.inf] = hi
        column[column == -np.inf] = lo
    return values, labels, label_counts, dropped, stats


@dataclass
class NormalizationStats:
    """Per-feature min/max in original units; the key to denormalization."""

    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self) -> None:
        self.col_min = np.asarray(self.col_min, dtype=np.float64)
        self.col_max = np.asarray(self.col_max, dtype=np.float64)
        if self.col_min.shape != self.col_max.shape or self.col_min.ndim != 1:
            raise DataError("normalization stats need matching 1-d min/max")
        if not (np.isfinite(self.col_min).all() and np.isfinite(self.col_max).all()):
            raise DataError("normalization stats must be finite")
        if (self.col_min > self.col_max).any():
            raise DataError("normalization stats with min > max")

    @property
    def width(self) -> int:
        return self.col_min.shape[0]

    def to_dict(self) -> dict:
        return {"min": self.col_min.tolist(), "max": self.col_max.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "NormalizationStats":
        return cls(np.asarray(data["min"]), np.asarray(data["max"]))


def minmax_normalize(values: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Scale each column of the float64 matrix ``values`` in place from its
    [min, max] in ``stats`` to [0, 1] and return it; a constant column maps
    to 0. The values must lie in that range, as :func:`clean_numeric` leaves them."""
    span = stats.col_max - stats.col_min
    values -= stats.col_min
    values /= np.where(span > 0, span, 1.0)
    values[:, span == 0] = 0.0
    return values


def denormalize(normalized: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Map normalized values back to feature units; no clamping."""
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 2 or normalized.shape[1] != stats.width:
        raise DataError(
            f"matrix has {normalized.shape[-1] if normalized.ndim else '?'} "
            f"columns, stats describe {stats.width}"
        )
    return normalized * (stats.col_max - stats.col_min) + stats.col_min


@dataclass
class DatasetMatrix:
    """Normalized feature matrix plus labels, stats, and schema provenance."""

    features: np.ndarray
    labels: list[str]
    stats: NormalizationStats
    schema: FeatureSchema

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        d = len(self.schema.feature_names())
        if self.features.ndim != 2 or self.features.shape[1] != d:
            raise DataError(
                f"feature matrix shape {self.features.shape} does not match "
                f"schema width {d}"
            )
        if len(self.labels) != self.features.shape[0]:
            raise DataError("label count does not match row count")
        f = self.features
        if not ((f >= 0.0) & (f <= 1.0)).all():  # a NaN or ±inf cell fails too
            raise DataError("dataset features must be finite and lie in [0, 1]")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def filter_by_label(labels, wanted) -> np.ndarray:
    """The boolean mask of the ``labels`` that match one of ``wanted``, a
    nonempty set of label texts; case and surrounding whitespace do not
    count. :func:`clean_numeric` applies it to each block's kept rows."""
    wanted = {str(w).strip().lower() for w in wanted}
    return np.array([lbl.strip().lower() in wanted for lbl in labels], dtype=bool)


def matrix_path(path) -> Path:
    """The ``.npy`` file that holds the matrix of the dataset cache at ``path``."""
    return Path(path).with_suffix(".npy")


def save_cache(path, doc: dict, matrix: np.ndarray) -> None:
    """Write a two-file cache: ``matrix`` as little-endian float64 ``.npy``
    at :func:`matrix_path`, then the JSON document ``doc`` at ``path``.

    The old document is removed before the matrix is written, so a save that
    stops part-way leaves no document rather than one that describes a
    different matrix.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    with atomic_write(matrix_path(path)) as fh:
        np.save(fh.buffer, np.ascontiguousarray(matrix, dtype="<f8"), allow_pickle=False)
    write_json(path, doc)


def load_cache_matrix(path, shape: tuple) -> np.ndarray:
    """The matrix that :func:`save_cache` wrote beside the document at
    ``path``, checked to be finite little-endian float64 of ``shape``; every
    defect is a :class:`DataError` that names the ``.npy`` file."""
    path = matrix_path(path)
    try:
        with open(path, "rb") as fh:
            matrix = np.load(fh, allow_pickle=False)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, EOFError) as exc:
        raise DataError(f"{path} is corrupt: {exc}") from exc
    if not isinstance(matrix, np.ndarray) or matrix.dtype != np.dtype("<f8"):
        raise DataError(f"{path} is not little-endian float64")
    if matrix.shape != shape:
        raise DataError(
            f"{path} has shape {matrix.shape}, its document records {shape}"
        )
    if not np.isfinite(matrix).all():
        raise DataError(f"{path} holds non-finite values")
    return matrix


def save_dataset(data: DatasetMatrix, path) -> None:
    """Write the dataset cache with :func:`save_cache`: the matrix, then the
    document (schema, stats, labels and the matrix shape)."""
    doc = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "schema": data.schema.to_dict(),
        "stats": data.stats.to_dict(),
        "labels": data.labels,
        "features": {"shape": list(data.features.shape)},
    }
    save_cache(path, doc, data.features)


def load_dataset(path) -> DatasetMatrix:
    """Read the dataset cache written by :func:`save_dataset`; every defect
    in either file is a :class:`DataError` that names the file."""

    def decode(doc) -> DatasetMatrix:
        if not isinstance(doc, dict) or doc.get("format") != DATASET_FORMAT:
            raise DataError("not a dataset cache")
        if doc.get("version") != DATASET_VERSION:
            raise DataError(
                f"version {doc.get('version')} unsupported "
                f"(expected {DATASET_VERSION}); re-run 'ingest'"
            )
        schema = FeatureSchema.from_dict(doc["schema"])
        stats = NormalizationStats.from_dict(doc["stats"])
        labels = list(doc["labels"])
        features = load_cache_matrix(path, tuple(doc["features"]["shape"]))
        return DatasetMatrix(features, labels, stats, schema)

    return read_json(path, decode)
