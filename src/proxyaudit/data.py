"""Typed immutable tabular datasets: loading, validation, derivation, splits.

Internal representation: categorical columns are int64 code arrays (-1 =
missing) against an ordered category list; numeric columns are float64 (NaN =
missing). Arrays are marked read-only; every transformation returns a new
Dataset. Rows with missing values are dropped per computation (pairwise
deletion) by the measurement modules, never globally at load.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParseError, ValidationError

CATEGORICAL = "categorical"
NUMERIC = "numeric"


@dataclass(frozen=True)
class ColumnSchema:
    """Name, kind, and (for categorical columns) the ordered category list."""

    name: str
    kind: str
    categories: tuple = None
    missing_token: str = "?"

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
        elif self.categories is not None:
            raise ValidationError(f"column {self.name!r}: numeric columns carry no categories")

    def code_of(self, value):
        """Category code for a cell value; -1 for the missing token/None."""
        if value is None or value == self.missing_token:
            return -1
        try:
            return self.categories.index(value)
        except ValueError:
            return -2  # unknown category sentinel, resolved by the loader


@dataclass
class LoadReport:
    """What happened during a load: row count, missing cells, coerced values."""

    n_rows: int = 0
    missing_by_column: dict = field(default_factory=dict)
    unknown_values: list = field(default_factory=list)  # (row, column, raw) capped
    n_unknown: int = 0

    _CAP = 100

    def record_unknown(self, row, column, raw):
        self.n_unknown += 1
        if len(self.unknown_values) < self._CAP:
            self.unknown_values.append((row, column, raw))


class Dataset:
    """Immutable typed table; the universe every audit measure operates on."""

    def __init__(self, schema, columns, load_report=None):
        self._schema = tuple(schema)
        names = [c.name for c in self._schema]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate column names in schema")
        self._by_name = {c.name: c for c in self._schema}
        self._columns = {}
        n_rows = None
        for col in self._schema:
            if col.name not in columns:
                raise ValidationError(f"no data for column {col.name!r}")
            arr = np.asarray(columns[col.name])
            if col.kind == CATEGORICAL:
                arr = arr.astype(np.int64, copy=True)
                if arr.size and (arr.max(initial=-1) >= len(col.categories) or arr.min(initial=0) < -1):
                    raise ValidationError(f"column {col.name!r}: code out of range")
            else:
                arr = arr.astype(np.float64, copy=True)
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

    def select(self, rows):
        """New Dataset keeping the given rows (boolean mask or index array)."""
        rows = np.asarray(rows)
        if rows.dtype == bool and rows.shape[0] != self._n_rows:
            raise ValidationError("selection mask length mismatch")
        cols = {name: arr[rows] for name, arr in self._columns.items()}
        return Dataset(self._schema, cols)

    def with_column(self, schema, array):
        """New Dataset with one column appended."""
        if schema.name in self._by_name:
            raise ValidationError(f"column {schema.name!r} already exists")
        cols = dict(self._columns)
        cols[schema.name] = array
        return Dataset(self._schema + (schema,), cols)

    def equals(self, other):
        """Cell-exact equality (schema and data)."""
        if self._schema != other._schema or self._n_rows != other._n_rows:
            return False
        for name, arr in self._columns.items():
            b = other._columns[name]
            if arr.dtype == np.float64:
                if not np.array_equal(arr, b, equal_nan=True):
                    return False
            elif not np.array_equal(arr, b):
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
                        v = arr[i]
                        if math.isnan(v):
                            row.append(col.missing_token)
                        elif float(v).is_integer():
                            row.append(str(int(v)))
                        else:
                            row.append(repr(float(v)))
                writer.writerow(row)


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
    try:
        cols = obj["columns"]
        return tuple(
            ColumnSchema(
                name=c["name"],
                kind=c["kind"],
                categories=tuple(c["categories"]) if c.get("categories") is not None else None,
                missing_token=c.get("missing_token", "?"),
            )
            for c in cols
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed schema document: {exc}") from None


def write_schema_json(schema, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_to_json(schema), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_schema_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return schema_from_json(json.load(fh))


def load_csv(path, schema, *, header=True):
    """Load a CSV file against a schema.

    Cells are whitespace-trimmed before interpretation, and blank lines are
    skipped. A cell equal to the column's missing token is missing. Unknown
    categorical values, and numeric cells that do not parse to a finite
    number (``nan``, ``inf``, ``-inf`` included), become missing and are
    recorded in the load report. A row with the wrong number of cells is a
    ``ParseError``. ``header=True`` requires the first row to name exactly
    the schema's columns (any order); ``header=False`` takes cells in schema
    order.
    """
    schema = tuple(schema)
    report = LoadReport(missing_by_column={c.name: 0 for c in schema})
    store = {c.name: [] for c in schema}
    order = list(range(len(schema)))

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = True
        row_index = 0
        for raw_row in reader:
            if not raw_row or (len(raw_row) == 1 and not raw_row[0].strip()):
                continue
            cells = [c.strip() for c in raw_row]
            if first and header:
                first = False
                names = [c.name for c in schema]
                if sorted(cells) != sorted(names):
                    raise ParseError(
                        f"header {cells!r} does not match schema columns {names!r}", row_index=0
                    )
                order = [cells.index(n) for n in names]
                continue
            first = False
            if len(cells) != len(schema):
                raise ParseError(
                    f"row has {len(cells)} cells, expected {len(schema)}", row_index=row_index
                )
            for k, col in enumerate(schema):
                raw = cells[order[k]]
                if col.kind == CATEGORICAL:
                    code = col.code_of(raw)
                    if code == -2:
                        report.record_unknown(row_index, col.name, raw)
                        code = -1
                    if code < 0:
                        report.missing_by_column[col.name] += 1
                    store[col.name].append(code)
                else:
                    if raw == col.missing_token or raw == "":
                        report.missing_by_column[col.name] += 1
                        store[col.name].append(np.nan)
                    else:
                        try:
                            value = float(raw)
                        except ValueError:
                            value = math.nan
                        if not math.isfinite(value):
                            report.record_unknown(row_index, col.name, raw)
                            report.missing_by_column[col.name] += 1
                            value = math.nan
                        store[col.name].append(value)
            row_index += 1

    report.n_rows = row_index
    cols = {
        c.name: np.asarray(store[c.name], dtype=np.int64 if c.kind == CATEGORICAL else np.float64)
        for c in schema
    }
    return Dataset(schema, cols, load_report=report)


def derive_feature(d, name, rule):
    """Append a binary categorical column: does the row match a descriptor?

    ``rule`` is a ``SubgroupDescriptor`` (a conjunction of equality and
    interval conditions). The new column has categories ("false", "true");
    rows where any column the rule references is missing get a missing value.
    """
    codes = np.where(d.complete_mask(rule.columns), rule.mask(d), -1)
    return d.with_column(ColumnSchema(name, CATEGORICAL, ("false", "true")), codes)


def split_holdout(d, fraction, seed):
    """Deterministically split rows into (ceil(fraction*N), rest) partitions."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must lie in (0,1), got {fraction}")
    if d.n_rows < 2:
        raise InsufficientDataError("need at least 2 rows to split")
    n_first = math.ceil(fraction * d.n_rows)
    perm = np.random.default_rng(seed).permutation(d.n_rows)
    first = np.sort(perm[:n_first])
    second = np.sort(perm[n_first:])
    return d.select(first), d.select(second)


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

    def check_against(self, d):
        """Verify every named column exists in the dataset schema."""
        names = set(d.column_names)
        for group, cols in (("protected", self.protected), ("candidates", self.candidates)):
            for c in cols:
                if c not in names:
                    raise ValidationError(f"{group} column {c!r} not in dataset")
        if self.target is not None and self.target not in names:
            raise ValidationError(f"target column {self.target!r} not in dataset")
