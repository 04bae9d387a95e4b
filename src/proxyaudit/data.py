"""Typed immutable tabular datasets: loading, validation, derivation, splits.

Internal representation: categorical columns are code arrays (-1 = missing)
against an ordered category list, each in the narrowest signed integer type
that holds its codes (``ColumnSchema.dtype``: int8 up to 128 categories);
numeric columns are float64 (NaN = missing). Code that does arithmetic on
codes widens them first: a narrow array times a number stays narrow. Arrays
are marked read-only; every transformation returns a new Dataset. Rows with
missing values are dropped per computation (pairwise deletion) by the
measurement modules, never globally at load.

``load_csv`` decodes column by column. It reads the file in chunks that end
at a line break (``\\n``, ``\\r\\n`` or a bare ``\\r``), never seeking, so a
pipe loads as a file does. A plain chunk (no quote, NUL or bare ``\\r``, and
``width - 1`` commas on every line, checked on its bytes with numpy) is
tokenized with ``str.split``; from the first chunk that is not plain,
``csv.reader`` tokenizes the rest of the file. Both tokenizers hand one list
of raw cells per column to the same decoder. Bytes that are not UTF-8 and
``csv.Error`` are ``ParseError`` (exit 2 on the command line).

The decoder writes each batch's values into one array per column. The first
batch sizes them: the file's size times the rows per byte read so far, with
1/16 to spare. A file that holds more rows makes them grow, estimated the
same way, or by half where its size says nothing (a pipe reports 0). Once
the file is read they are trimmed in place to the rows loaded, and the
``Dataset`` keeps them without a copy; so a load holds each column about
once, plus one chunk's cells.
"""

import csv
import io
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from . import documents
from .errors import InsufficientDataError, ParseError, ValidationError
from .models import read_json, write_json

CATEGORICAL = "categorical"
NUMERIC = "numeric"


@dataclass(frozen=True)
class ColumnSchema:
    """Name, kind, and (for categorical columns) the ordered category list.

    A table stores the column in ``dtype``: float64 for a numeric column, and
    for a categorical one of k categories the narrowest signed integer type
    that holds its codes -1..k-1, ``np.min_scalar_type(-k)``: int8 up to 128
    categories, int16 up to 32,768, and int32 beyond.
    """

    name: str
    kind: str
    categories: tuple = None
    missing_token: str = "?"
    # category -> code, built once; not part of the schema's identity
    _codes: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ValidationError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.categories:
                raise ValidationError(f"column {self.name!r}: categorical without categories")
            cats = tuple(str(c) for c in self.categories)
            if len(set(cats)) != len(cats):
                raise ValidationError(f"column {self.name!r}: duplicate categories")
            object.__setattr__(self, "categories", cats)
            object.__setattr__(self, "_codes", {c: code for code, c in enumerate(cats)})
        elif self.categories is not None:
            raise ValidationError(f"column {self.name!r}: numeric columns carry no categories")

    @property
    def dtype(self):
        if self.kind == CATEGORICAL:
            return np.min_scalar_type(-len(self.categories))
        return np.dtype(np.float64)

    def code_of(self, value):
        """Category code for a cell value; -1 for the missing token/None."""
        if value is None or value == self.missing_token:
            return -1
        return self._codes.get(value, -2)  # -2: unknown, resolved by the loader


@dataclass
class LoadReport:
    """What happened during a load: row count, missing cells, coerced values."""

    n_rows: int = 0
    missing_by_column: dict = field(default_factory=dict)
    unknown_values: list = field(default_factory=list)  # (row, column, raw) capped
    n_unknown: int = 0

    _CAP = 100


class _CellsAt(Mapping):
    """Columns read at ``rows``: each lookup gathers the cells anew."""

    def __init__(self, columns, rows):
        self._columns, self._rows = columns, rows

    def __getitem__(self, name):
        cells = self._columns[name][self._rows]
        cells.setflags(write=False)
        return cells

    def __iter__(self):
        return iter(self._columns)

    def __len__(self):
        return len(self._columns)


class Dataset:
    """Immutable typed table; the universe every audit measure operates on.

    ``Dataset(schema, columns)`` copies every array it is given, so no array
    or view its caller keeps can change the table later. A read-only array
    is copied too: a writable view of it may still be alive. The arrays a
    table keeps are read-only and reachable through no writable view. So
    ``load_csv``, ``select`` and ``with_column`` hand the arrays they have
    just made, and the columns of the table they start from, to ``_of``,
    which keeps them as they are; ``with_column`` still copies the one new
    array its caller passes.
    """

    def __init__(self, schema, columns, load_report=None):
        self._take(tuple(schema), columns, load_report, copy=True)

    @classmethod
    def _of(cls, schema, columns, load_report=None):
        """A Dataset on arrays of the right dtype that no caller can write;
        it keeps them without copying."""
        d = cls.__new__(cls)
        d._take(schema, columns, load_report, copy=False)
        return d

    def _take(self, schema, columns, load_report, copy):
        self._schema = schema
        names = [c.name for c in self._schema]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate column names in schema")
        self._by_name = {c.name: c for c in self._schema}
        self._columns = {}
        n_rows = None
        for col in self._schema:
            if col.name not in columns:
                raise ValidationError(f"no data for column {col.name!r}")
            arr = _as_column(col, columns[col.name], copy)
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise ValidationError(f"column {col.name!r}: length mismatch")
            arr.setflags(write=False)
            self._columns[col.name] = arr
        self._n_rows = 0 if n_rows is None else int(n_rows)
        self.load_report = load_report

    # --- introspection ---------------------------------------------------

    @property
    def n_rows(self):
        return self._n_rows

    @property
    def schema(self):
        return self._schema

    @property
    def column_names(self):
        return [c.name for c in self._schema]

    def schema_of(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown column {name!r}") from None

    def categories(self, name):
        col = self.schema_of(name)
        if col.kind != CATEGORICAL:
            raise ValidationError(f"column {name!r} is not categorical")
        return col.categories

    def codes(self, name):
        """The column's codes over every row, not a copy: -1 is missing, and
        the dtype is the schema's (``ColumnSchema.dtype``), as narrow as int8.
        Widen them before arithmetic, which would wrap or raise in place."""
        col = self.schema_of(name)
        if col.kind != CATEGORICAL:
            raise ValidationError(f"column {name!r} is not categorical")
        return self._columns[name]

    def values(self, name):
        col = self.schema_of(name)
        if col.kind != NUMERIC:
            raise ValidationError(f"column {name!r} is not numeric")
        return self._columns[name]

    def column_array(self, name):
        """The column's array over every row (codes or values), not a copy."""
        self.schema_of(name)
        return self._columns[name]

    def is_missing(self, name):
        col = self.schema_of(name)
        arr = self._columns[name]
        return (arr < 0) if col.kind == CATEGORICAL else np.isnan(arr)

    def complete_mask(self, names):
        """True where every named column has a value."""
        mask = np.ones(self._n_rows, dtype=bool)
        for name in names:
            mask &= ~self.is_missing(name)
        return mask

    def cell(self, i, name):
        """Python value of one cell: category string, float, or None."""
        col = self.schema_of(name)
        raw = self._columns[name][i]
        if col.kind == CATEGORICAL:
            return None if raw < 0 else col.categories[raw]
        return None if math.isnan(raw) else float(raw)

    def record(self, i, columns=None):
        """One row as a {column: value} dict (None for missing cells)."""
        names = self.column_names if columns is None else list(columns)
        return {name: self.cell(i, name) for name in names}

    def value_counts(self, name):
        """Counts of non-missing categories, in schema order."""
        col = self.schema_of(name)
        if col.kind != CATEGORICAL:
            raise ValidationError(f"column {name!r} is not categorical")
        codes = self._columns[name]
        counts = np.bincount(codes[codes >= 0], minlength=len(col.categories))
        return dict(zip(col.categories, counts.tolist()))

    # --- transformation --------------------------------------------------

    def _read_at(self, rows):
        """A Dataset of the rows ``rows`` (an integer row-index array) that
        keeps no column: each column read gathers its cells at the rows
        anew, read-only. A reader that holds one column at a time, such as
        ``exact_correspondence``, so holds one copy of a column's rows."""
        view = Dataset.__new__(Dataset)
        view._schema, view._by_name = self._schema, self._by_name
        view._columns = _CellsAt(self._columns, rows)
        view._n_rows = len(rows)
        view.load_report = None
        return view

    def select(self, rows):
        """New Dataset keeping the given rows (boolean mask or index array)."""
        rows = np.asarray(rows)
        if rows.dtype == bool and rows.shape[0] != self._n_rows:
            raise ValidationError("selection mask length mismatch")
        cols = {name: arr[rows] for name, arr in self._columns.items()}
        return Dataset._of(self._schema, cols)

    def with_column(self, schema, array):
        """New Dataset with one column appended."""
        if schema.name in self._by_name:
            raise ValidationError(f"column {schema.name!r} already exists")
        cols = dict(self._columns)
        cols[schema.name] = _as_column(schema, array, copy=True)
        return Dataset._of(self._schema + (schema,), cols)

    def equals(self, other):
        """Cell-exact equality (schema and data). Numeric cells compare by
        their bits, as ``report.dataset_fingerprint`` hashes them, so ``-0.0``
        is not ``0.0``; codes compare by value, whatever type stores them."""
        if self._schema != other._schema or self._n_rows != other._n_rows:
            return False
        for name, arr in self._columns.items():
            b = other._columns[name]
            if arr.dtype == np.float64:
                arr, b = arr.view(np.int64), b.view(np.int64)
            if not np.array_equal(arr, b):
                return False
        return True

    # --- serialization ---------------------------------------------------

    def to_csv(self, path):
        """Write the table as CSV with a header; missing cells become the missing token."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.column_names)
            cols = [(c, self._columns[c.name]) for c in self._schema]
            for i in range(self._n_rows):
                row = []
                for col, arr in cols:
                    if col.kind == CATEGORICAL:
                        code = arr[i]
                        row.append(col.missing_token if code < 0 else col.categories[code])
                    else:
                        v = float(arr[i])
                        if math.isnan(v):
                            row.append(col.missing_token)
                        elif v.is_integer() and (v != 0 or math.copysign(1.0, v) > 0):
                            row.append(str(int(v)))
                        else:  # a fraction, an infinity, or -0.0, whose sign int() drops
                            row.append(repr(v))
                writer.writerow(row)


def _as_column(col, array, copy):
    """``array`` in ``col.dtype``. Categorical codes are checked on the
    caller's array, before the cast, which would truncate a fraction, warn on
    a NaN and wrap a code too wide for the type: each must be a whole number
    in -1..k-1."""
    arr = np.asarray(array)
    if col.kind == CATEGORICAL and arr.size:
        if arr.dtype.kind == "f":
            whole = np.isfinite(arr).all() and (arr == np.trunc(arr)).all()
        else:
            whole = arr.dtype.kind in "biu"
        if not whole:
            raise ValidationError(f"column {col.name!r}: codes must be whole numbers")
        if arr.max() >= len(col.categories) or arr.min() < -1:
            raise ValidationError(f"column {col.name!r}: code out of range")
    return arr.astype(col.dtype, copy=copy)


def schema_to_json(schema):
    return {
        "columns": [
            {
                "name": c.name,
                "kind": c.kind,
                **({"categories": list(c.categories)} if c.kind == CATEGORICAL else {}),
                "missing_token": c.missing_token,
            }
            for c in schema
        ]
    }


def schema_from_json(obj):
    documents.check("dataset_schema", obj, "dataset schema")
    return tuple(ColumnSchema(**c) for c in obj["columns"])


def write_schema_json(schema, path):
    write_json(path, schema_to_json(schema))


def read_schema_json(path):
    return schema_from_json(read_json(path, "dataset schema"))


# Bytes read from the CSV at a time; each chunk is extended to the end of its line.
_CHUNK_BYTES = 1 << 16
# Rows that csv.reader hands to the decoder at a time.
_READER_ROWS = 1 << 11


def load_csv(path, schema, *, header=True):
    """Load a CSV file against a schema.

    Cells are whitespace-trimmed before interpretation, and blank lines are
    skipped. A cell equal to the column's missing token is missing. Unknown
    categorical values, and numeric cells that do not parse to a finite
    number (``nan``, ``inf``, ``-inf`` included), become missing and are
    recorded in the load report. A row with the wrong number of cells is a
    ``ParseError``, and so are bytes that are not UTF-8 and any ``csv.Error``
    (a NUL on Python 3.10, a field over ``csv.field_size_limit()``); each
    names the data row it stopped at. ``header=True`` requires the first row
    to name exactly the schema's columns (any order); ``header=False`` takes
    cells in schema order.

    The file is read in chunks of about 64 KiB, each ending at a line
    break of either kind (``\\n`` or a bare ``\\r``). A plain chunk
    (no quote, no NUL, no ``\\r`` outside ``\\r\\n``, no line longer than the
    field limit, and the same number of commas on every line) is tokenized
    with ``str.split``. From the first chunk that is not plain,
    ``csv.reader`` reads the rest of the file, since a quoted field may span
    chunks. Both feed one column decoder.
    """
    try:
        with open(path, "rb") as fh:
            table = _ColumnDecoder(tuple(schema), header, os.fstat(fh.fileno()).st_size)
            chunks = _chunks(fh, table)
            for raw, text in chunks:
                if not _is_plain(raw, table.width):
                    lines = chain.from_iterable(
                        io.StringIO(t, newline="") for _, t in chain([(raw, text)], chunks)
                    )
                    table.add_reader(lines)
                    break
                table.add_plain(text)
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"data row {table.n_rows} is not valid UTF-8: {exc.reason}", row_index=table.n_rows
        ) from None
    except csv.Error as exc:
        raise ParseError(f"data row {table.n_rows}: {exc}", row_index=table.n_rows) from None
    return table.dataset()


def _chunks(fh, table):
    """Line-aligned ``(bytes, text)`` chunks of a binary file, counted in
    ``table.bytes_read``.

    Where the bytes are not UTF-8, the whole lines before the bad byte come
    out as a chunk of their own, and then the ``UnicodeDecodeError`` is raised.
    """
    while True:
        raw = fh.read(_CHUNK_BYTES)
        if not raw:
            return
        raw += _rest_of_line(fh, raw[-1:])
        table.bytes_read += len(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            cut = max(raw.rfind(b"\n", 0, exc.start), raw.rfind(b"\r", 0, exc.start)) + 1
            if cut:
                yield raw[:cut], raw[:cut].decode("utf-8")
            raise
        yield raw, text


def _rest_of_line(fh, last):
    """The bytes of ``fh`` up to its next line break, ``\\n`` or bare ``\\r``,
    where ``last`` is the byte read before them; a ``\\r\\n`` is kept whole.

    It looks ahead with ``peek`` and never seeks, so a pipe reads as a file.
    """
    tail = []
    while last not in (b"\n", b"\r"):
        ahead = fh.peek()
        if not ahead:
            break
        ends = [i for i in (ahead.find(b"\n"), ahead.find(b"\r")) if i >= 0]
        tail.append(fh.read(min(ends) + 1 if ends else len(ahead)))
        last = tail[-1][-1:]
    if last == b"\r" and fh.peek()[:1] == b"\n":
        tail.append(fh.read(1))
    return b"".join(tail)


def _is_plain(raw, width):
    """Whether ``str.split`` tokenizes the chunk exactly as ``csv.reader`` does.

    That holds without quotes, NULs and bare ``\\r``, when no line is longer
    than the field limit and every line has ``width - 1`` commas: among the
    comma and newline bytes, every ``width``-th is a newline and no other is.
    """
    if not width or b'"' in raw or b"\0" in raw or raw.count(b"\r") != raw.count(b"\r\n"):
        return False
    b = np.frombuffer(raw, np.uint8)
    seps = np.flatnonzero((b == 44) | (b == 10))
    newlines = np.flatnonzero(b[seps] == 10)
    tail = not raw.endswith(b"\n")  # the last line has no newline
    if len(seps) + tail != (len(newlines) + tail) * width or not np.array_equal(
        newlines, np.arange(width - 1, len(seps), width)
    ):
        return False
    bounds = np.concatenate(([-1], seps[newlines], [len(raw)]))
    return int(np.diff(bounds).max()) - 1 < csv.field_size_limit()


def _reader_batches(lines):
    """Rows of ``csv.reader`` in lists of up to ``_READER_ROWS``.

    On a ``csv.Error`` or ``UnicodeDecodeError`` the rows read before it come
    out first, so a bad row earlier in the file is still reported first.
    """
    batch, error = [], None
    try:
        for row in csv.reader(lines):
            batch.append(row)
            if len(batch) == _READER_ROWS:
                yield batch
                batch = []
    except (csv.Error, UnicodeDecodeError) as exc:
        error = exc
    yield batch
    if error is not None:
        raise error


class _ColumnDecoder:
    """Turns tokenized cells into typed columns and a ``LoadReport``.

    Each batch arrives as one list of raw cells per column, and each column
    is decoded in one pass: a categorical column looks every distinct raw
    string up once, a numeric column maps ``float`` over its cells and falls
    back to cell-by-cell handling only when that raises or when its missing
    token parses as a number. The decoded values go straight into one array
    per column, sized for the rows the file is expected to hold (``_reserve``)
    and trimmed to the rows it held.
    """

    def __init__(self, schema, header, size):
        self.schema = schema
        self.width = len(schema)
        self.header_pending = header
        self.order = list(range(self.width))  # file column of each schema column
        self.n_rows = 0
        self.report = LoadReport(missing_by_column={c.name: 0 for c in schema})
        self.columns = [np.empty(0, c.dtype) for c in schema]
        self.capacity = 0  # rows each column has room for
        self.size = size  # bytes in the file; 0 where unknown, as for a pipe
        self.bytes_read = 0
        self.lookups = [{} for _ in schema]  # categorical: raw cell -> code

    def add_plain(self, text):
        """Cells of a plain chunk, split on commas and newlines."""
        if text.endswith("\n"):
            text = text[:-1]
        flat = text.replace("\n", ",").split(",")
        if self.width == 1:
            flat = list(filter(str.strip, flat))  # a blank line is no row
        if self.header_pending and flat:
            self._read_header(flat[: self.width])
            del flat[: self.width]
        self._decode([flat[j :: self.width] for j in self.order], len(flat) // self.width)

    def add_reader(self, lines):
        """Cells of the rows ``csv.reader`` reads from ``lines``."""
        for rows in _reader_batches(lines):
            self.add_rows(rows)
            del rows  # so one batch, not two, is held while the next is read

    def add_rows(self, rows):
        """Cells of rows from ``csv.reader``."""
        rows = [r for r in rows if len(r) > 1 or (r and r[0].strip())]
        if self.header_pending and rows:
            self._read_header(rows.pop(0))
        for i, row in enumerate(rows):
            if len(row) != self.width:
                raise ParseError(
                    f"row has {len(row)} cells, expected {self.width}", row_index=self.n_rows + i
                )
        self._decode([list(map(itemgetter(j), rows)) for j in self.order], len(rows))

    def _read_header(self, cells):
        cells = [c.strip() for c in cells]
        names = [c.name for c in self.schema]
        if sorted(cells) != sorted(names):
            raise ParseError(f"header {cells!r} does not match schema columns {names!r}", row_index=0)
        self.order = [cells.index(n) for n in names]
        self.header_pending = False

    def _reserve(self, n):
        """Room in every column for ``n`` rows more.

        The columns grow to the rows the whole file holds at the rows per
        byte read so far, with 1/16 to spare, so by at least 1/16. Where the
        size tells nothing (a pipe reports 0, and a file may have grown),
        they grow by half.
        """
        need = self.n_rows + n
        if need <= self.capacity:
            return
        if self.bytes_read <= self.size:
            self.capacity = math.ceil(need * self.size / self.bytes_read * 17 / 16)
        else:
            self.capacity = max(need, self.capacity * 3 // 2)
        for arr in self.columns:
            # each column is this decoder's alone, with no view of it alive
            arr.resize(self.capacity, refcheck=False)

    def _decode(self, columns, n):
        self._reserve(n)
        start = self.n_rows
        keys = []  # row * width + schema column of each unknown cell
        for k, (col, cells) in enumerate(zip(self.schema, columns)):
            if col.kind == CATEGORICAL:
                lookup = self.lookups[k]
                for raw in set(cells).difference(lookup):
                    lookup[raw] = col.code_of(raw.strip())
                values = np.fromiter(map(lookup.__getitem__, cells), col.dtype, n)
                unknown = values == -2
                values[unknown] = -1
                missing = values < 0
            else:
                values, blank = _floats(cells, col.missing_token)
                missing = ~np.isfinite(values)
                values[missing] = np.nan
                unknown = missing.copy()
                unknown[blank] = False
            self.report.missing_by_column[col.name] += int(np.count_nonzero(missing))
            keys.append(np.flatnonzero(unknown) * self.width + k)
            self.columns[k][start : start + n] = values
        keys = np.sort(np.concatenate(keys)) if keys else np.empty(0, np.int64)
        report = self.report
        report.n_unknown += len(keys)
        for key in keys[: report._CAP - len(report.unknown_values)].tolist():
            i, k = divmod(key, self.width)
            report.unknown_values.append(
                (self.n_rows + i, self.schema[k].name, columns[k][i].strip())
            )
        self.n_rows += n

    def dataset(self):
        self.report.n_rows = self.n_rows
        for arr in self.columns:
            arr.resize(self.n_rows, refcheck=False)
        columns = {col.name: arr for col, arr in zip(self.schema, self.columns)}
        return Dataset._of(self.schema, columns, load_report=self.report)


def _parses_as_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _floats(cells, token):
    """Float64 values of numeric cells, and the rows that hold no value.

    Every cell goes through ``float()``. Cells equal to the missing token or
    empty after stripping are NaN and listed in the second result; a cell
    that does not parse is NaN too, but not listed.
    """
    if not _parses_as_float(token):
        try:
            return np.fromiter(map(float, cells), np.float64, len(cells)), []
        except ValueError:
            pass
    values, blank = [], []
    for cell in cells:
        cell = cell.strip()
        if cell == token or not cell:
            blank.append(len(values))
            values.append(math.nan)
            continue
        try:
            values.append(float(cell))
        except ValueError:
            values.append(math.nan)
    return np.array(values, dtype=np.float64), blank


def derive_feature(d, name, rule):
    """Append a binary categorical column: does the row match a descriptor?

    ``rule`` is a ``SubgroupDescriptor`` (a conjunction of equality and
    interval conditions). The new column has categories ("false", "true");
    rows where any column the rule references is missing get a missing value.
    """
    schema = ColumnSchema(name, CATEGORICAL, ("false", "true"))
    codes = np.where(d.complete_mask(rule.columns), rule.mask(d), schema.dtype.type(-1))
    return d.with_column(schema, codes)


def split_holdout(d, fraction, seed):
    """Deterministically split the rows of ``d`` into two sorted row-index
    arrays of ceil(fraction*N) and N - ceil(fraction*N) rows, not copies;
    pass them to ``d.select`` or as the ``rows=`` of ``beam_search`` and
    ``validate``, where row sets stop (``exact_correspondence`` scores a whole
    table). The first part is the first ceil(fraction*N) rows of one seeded
    permutation, marked in a boolean mask; each part is read off the mask in
    row order, so neither is sorted."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must lie in (0,1), got {fraction}")
    if d.n_rows < 2:
        raise InsufficientDataError("need at least 2 rows to split")
    n_first = math.ceil(fraction * d.n_rows)
    perm = np.random.default_rng(seed).permutation(d.n_rows)
    in_first = np.zeros(d.n_rows, dtype=bool)
    in_first[perm[:n_first]] = True
    del perm
    first = np.flatnonzero(in_first)
    return first, np.flatnonzero(np.logical_not(in_first, out=in_first))


@dataclass(frozen=True)
class AuditConfig:
    """Role assignment: which columns are protected, candidates, target."""

    protected: tuple
    candidates: tuple
    target: str = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "protected", tuple(self.protected))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        overlap = set(self.protected) & set(self.candidates)
        if overlap:
            raise ValidationError(f"protected and candidate columns overlap: {sorted(overlap)}")
        if not self.protected:
            raise ValidationError("at least one protected column is required")

    def check_against(self, schema):
        """Verify every named column exists in the dataset schema (a
        sequence of ``ColumnSchema``) and every protected one is categorical,
        so no data is needed."""
        kinds = {c.name: c.kind for c in schema}
        for group, cols in (("protected", self.protected), ("candidates", self.candidates)):
            for c in cols:
                if c not in kinds:
                    raise ValidationError(f"{group} column {c!r} not in dataset")
        for c in self.protected:
            if kinds[c] != CATEGORICAL:
                raise ValidationError(f"protected column {c!r} must be categorical")
        if self.target is not None and self.target not in kinds:
            raise ValidationError(f"target column {self.target!r} not in dataset")
