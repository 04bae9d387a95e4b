import csv
import io
import math
import os
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyaudit import data
from proxyaudit.data import (
    CATEGORICAL,
    NUMERIC,
    AuditConfig,
    ColumnSchema,
    Dataset,
    derive_feature,
    load_csv,
    read_schema_json,
    split_holdout,
    write_schema_json,
)
from proxyaudit.descriptors import Condition, SubgroupDescriptor
from proxyaudit.errors import InsufficientDataError, ParseError, ValidationError

import oracles
from csv_cases import csv_files
from oracles import load_csv_reference


SCHEMA = [
    ColumnSchema("color", CATEGORICAL, ("red", "green", "blue")),
    ColumnSchema("size", NUMERIC),
]


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestColumnSchema:
    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValidationError):
            ColumnSchema("c", CATEGORICAL, ("a", "a"))

    def test_numeric_with_categories_rejected(self):
        with pytest.raises(ValidationError):
            ColumnSchema("c", NUMERIC, ("a",))

    def test_categorical_needs_categories(self):
        with pytest.raises(ValidationError):
            ColumnSchema("c", CATEGORICAL)


class TestLoadCsv:
    def test_three_row_file_with_one_missing_cell(self, tmp_path):
        # hand-checked: row 1 has a "?" in the color column
        p = write(tmp_path, "color,size\nred,1\n?,2\nblue,3\n")
        d = load_csv(p, SCHEMA)
        assert d.n_rows == 3
        assert d.load_report.missing_by_column == {"color": 1, "size": 0}
        assert d.cell(1, "color") is None
        assert d.cell(2, "size") == 3.0

    def test_whitespace_trimmed(self, tmp_path):
        p = write(tmp_path, "color,size\n red , 1 \n")
        d = load_csv(p, SCHEMA)
        assert d.cell(0, "color") == "red"

    def test_empty_file_with_header_only(self, tmp_path):
        p = write(tmp_path, "color,size\n")
        d = load_csv(p, SCHEMA)
        assert d.n_rows == 0

    def test_headerless_schema_order(self, tmp_path):
        p = write(tmp_path, "green,2.5\n", name="raw.csv")
        d = load_csv(p, SCHEMA, header=False)
        assert d.record(0) == {"color": "green", "size": 2.5}

    def test_reordered_header(self, tmp_path):
        p = write(tmp_path, "size,color\n7,blue\n")
        d = load_csv(p, SCHEMA)
        assert d.record(0) == {"color": "blue", "size": 7.0}

    def test_malformed_row_length(self, tmp_path):
        p = write(tmp_path, "color,size\nred,1\ngreen\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, SCHEMA)
        assert exc.value.row_index == 1

    def test_unknown_category_becomes_missing_and_recorded(self, tmp_path):
        p = write(tmp_path, "color,size\npurple,1\n")
        d = load_csv(p, SCHEMA)
        assert d.cell(0, "color") is None
        assert d.load_report.n_unknown == 1
        assert d.load_report.unknown_values == [(0, "color", "purple")]

    def test_non_finite_numerics_become_missing_and_recorded(self, tmp_path):
        schema = [ColumnSchema("x", NUMERIC)]
        p = write(tmp_path, "x\n1\nnan\ninf\n-inf\n?\n")
        d = load_csv(p, schema)
        assert d.is_missing("x").tolist() == [False, True, True, True, True]
        assert d.load_report.missing_by_column == {"x": 4}
        assert d.load_report.unknown_values == [(1, "x", "nan"), (2, "x", "inf"), (3, "x", "-inf")]

    def test_many_categories_load_in_linear_time(self, tmp_path):
        # a code is one dict lookup; a search of the category tuple for each
        # distinct cell took about 2 s here
        n, k = 50_000, 20_000
        cats = tuple(f"pc{i:05d}" for i in range(k))
        codes = np.random.default_rng(0).permutation(np.arange(n) % k)
        schema = [ColumnSchema("postcode", CATEGORICAL, cats), ColumnSchema("x", NUMERIC)]
        p = write(tmp_path, "postcode,x\n" + "".join(f"{cats[c]},{c % 97}\n" for c in codes))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            d = load_csv(p, schema)
            times.append(time.perf_counter() - start)
        assert d.codes("postcode").dtype == np.int16
        assert d.codes("postcode").tolist() == codes.tolist()
        assert min(times) < 0.5

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_loads_like_the_file(self, tmp_path):
        # a pipe has no size and cannot seek; plain chunks, then csv.reader
        lines = ["size,color"] + [f"{i % 9}.25,{('red', 'blue', '?')[i % 3]}" for i in range(3_000)]
        lines[2_000] = '"7",green'
        body = "\r\n".join(lines).encode()
        p = tmp_path / "data.csv"
        p.write_bytes(body)
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(body,), daemon=True)
        writer.start()
        with mock.patch.object(data, "_CHUNK_BYTES", 1_000):
            d = load_csv(fifo, SCHEMA)
            writer.join(timeout=30)
            assert not writer.is_alive()
            want = load_csv(p, SCHEMA)
        assert d.n_rows == 3_000 and d.equals(want)
        assert vars(d.load_report) == vars(want.load_report)

    def test_round_trip_is_cell_exact(self, tmp_path):
        # -0.0 keeps its sign and a subnormal its bits: equals() cannot tell
        # -0.0 from 0.0, so the bits are compared too
        p = write(tmp_path, "color,size\nred,1\n?,2.25\nblue,?\nred,-0.0\nred,0\nblue,5e-324\n")
        d = load_csv(p, SCHEMA)
        out = tmp_path / "out.csv"
        d.to_csv(out)
        write_schema_json(d.schema, tmp_path / "out.schema.json")
        schema2 = read_schema_json(tmp_path / "out.schema.json")
        d2 = load_csv(out, schema2)
        assert d.equals(d2)
        size = d.column_array("size")
        assert size[3:].view(np.int64).tolist() == [-(1 << 63), 0, 1]
        assert d2.column_array("size").view(np.int64).tolist() == size.view(np.int64).tolist()
        assert out.read_text().splitlines()[4:] == ["red,-0.0", "red,0", "blue,5e-324"]


def load_outcome(loader, path, schema, header):
    """The Dataset a loader returns, or its exception's type, message and row."""
    try:
        return loader(path, schema, header=header)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row_index", None)


def assert_loads_like_reference(path, schema, header=True):
    got = load_outcome(load_csv, path, schema, header)
    want = load_outcome(load_csv_reference, path, schema, header)
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset), got
        assert got.equals(want)
        assert vars(got.load_report) == vars(want.load_report)
    else:
        assert got == want
    return got


class TestColumnarLoadMatchesReference:
    """``load_csv`` against the row-by-row loader it replaced, on generated
    files, with chunks and reader batches down to one line and one row so
    that every file spans many of them."""

    @given(
        case=csv_files(),
        chunk_bytes=st.sampled_from([1, 7, 64, data._CHUNK_BYTES]),
        reader_rows=st.sampled_from([1, 3, data._READER_ROWS]),
        field_limit=st.sampled_from([None, 12]),
    )
    @settings(max_examples=400, deadline=None)
    def test_generated_files(self, case, chunk_bytes, reader_rows, field_limit):
        text, schema, header = case
        limit = csv.field_size_limit()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes), \
                mock.patch.object(data, "_READER_ROWS", reader_rows):
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                if field_limit is not None:
                    csv.field_size_limit(field_limit)
                assert_loads_like_reference(path, schema, header)
            finally:
                csv.field_size_limit(limit)

    def test_quote_in_a_late_chunk(self, tmp_path):
        # plain chunks first, then a quoted newline far past the first chunk
        schema = [ColumnSchema("color", CATEGORICAL, ("red", "green", "blue")),
                  ColumnSchema("size", NUMERIC)]
        lines = ["size,color"] + [f"{i % 7}.5,{('red', 'blue', 'pink')[i % 3]}" for i in range(80_000)]
        lines[65_000] = '"4\n",green'
        lines[70_000] = "nan,?"
        p = write(tmp_path, "\n".join(lines) + "\n")
        assert p.stat().st_size > 2 * data._CHUNK_BYTES
        d = assert_loads_like_reference(p, schema)
        assert d.n_rows == 80_000 and d.cell(64_999, "size") == 4.0
        assert d.load_report.n_unknown == 80_000 // 3 + 1
        assert len(d.load_report.unknown_values) == 100

    def test_csv_reader_reads_on_from_the_first_chunk_that_is_not_plain(self, tmp_path):
        # a bare \r in the second chunk, no quote anywhere: the chunk before
        # it is split, and csv.reader reads that chunk and every later one
        schema = [ColumnSchema("color", CATEGORICAL, ("red", "green", "blue")),
                  ColumnSchema("size", NUMERIC)]
        lines = ["size,color"] + [f"{i % 7}.5,{('red', 'blue', '?')[i % 3]}" for i in range(20_000)]
        text = "\n".join(lines) + "\n"
        cut = text.index("\n", data._CHUNK_BYTES + 100)
        p = write(tmp_path, text[:cut] + "\r" + text[cut + 1:])
        with mock.patch.object(data._ColumnDecoder, "add_plain", autospec=True,
                               side_effect=data._ColumnDecoder.add_plain) as split:
            d = assert_loads_like_reference(p, schema)
        assert d.n_rows == 20_000 and split.call_count == 1

    def test_first_ragged_row_is_reported(self, tmp_path):
        lines = ["color,size"] + ["red,1"] * 30_000 + ["red"] + ["green,2"] * 10 + ["a,b,c"]
        p = write(tmp_path, "\r\n".join(lines))
        with pytest.raises(ParseError, match="row has 1 cells") as exc:
            load_csv(p, SCHEMA)
        assert exc.value.row_index == 30_000
        assert_loads_like_reference(p, SCHEMA)

    @pytest.mark.parametrize("last", ["green", "green,2,3"])
    def test_ragged_last_line_without_newline(self, tmp_path, last):
        p = write(tmp_path, "color,size\nred,1\n" + last)
        with pytest.raises(ParseError, match="row has") as exc:
            load_csv(p, SCHEMA)
        assert exc.value.row_index == 1
        assert_loads_like_reference(p, SCHEMA)

    def test_missing_token_that_parses_as_a_number(self, tmp_path):
        schema = [ColumnSchema("x", NUMERIC, missing_token="-1")]
        p = write(tmp_path, "x\n-1\n 2 \n-1.0\n\x1c3\x1c\n")
        d = assert_loads_like_reference(p, schema)
        assert d.values("x").tolist()[1:] == [2.0, -1.0, 3.0]
        assert d.load_report.missing_by_column == {"x": 1}

    def test_one_column_with_blank_lines(self, tmp_path):
        schema = [ColumnSchema("x", NUMERIC)]
        p = write(tmp_path, "\n7\n \n\t\r\n8\n\n", name="raw.csv")
        d = assert_loads_like_reference(p, schema, header=False)
        assert d.values("x").tolist() == [7.0, 8.0]

    def test_unicode_line_separators_stay_inside_cells(self, tmp_path):
        schema = [ColumnSchema("c", CATEGORICAL, ("a\u2028b", "c")), ColumnSchema("x", NUMERIC)]
        p = write(tmp_path, "c,x\na\u2028b,1\x85\nc\x1c,2\n")
        d = assert_loads_like_reference(p, schema)
        assert d.record(0) == {"c": "a\u2028b", "x": 1.0}
        assert d.record(1) == {"c": "c", "x": 2.0}

    @pytest.mark.parametrize("first", [b"red", b'"red"'])
    def test_undecodable_bytes_name_their_row(self, tmp_path, first):
        # plain chunks, and csv.reader once a quote comes before the bad byte
        p = tmp_path / "bad.csv"
        p.write_bytes(b"color,size\n" + first + b",1\ngreen,2\nbl\xffue,3\nred,4\n")
        with pytest.raises(ParseError, match="data row 2 is not valid UTF-8: invalid start byte"):
            load_csv(p, SCHEMA)
        with pytest.raises(ParseError, match="invalid start byte"):
            load_csv_reference(p, SCHEMA)

    def test_chunks_end_at_either_line_break(self):
        # a bare CR ends a chunk as LF does, and a CRLF is never split
        rows = [f"red,{i}" for i in range(200)]
        body = ("color,size\r\n" + "\r\n".join(rows[:100]) + "\r" + "\r".join(rows[100:])).encode()
        for chunk_bytes in range(1, 14):
            with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes):
                table = data._ColumnDecoder(tuple(SCHEMA), True, len(body))
                chunks = [raw for raw, _ in data._chunks(io.BufferedReader(io.BytesIO(body)), table)]
            assert b"".join(chunks) == body and table.bytes_read == len(body)
            assert all(raw.endswith((b"\r\n", b"\r")) for raw in chunks[:-1])
            assert not any(raw.startswith(b"\n") for raw in chunks)

    def test_bare_cr_file_is_read_in_many_chunks(self, tmp_path):
        lines = ["color,size"] + [f"{('red', 'green')[i % 2]},{i}" for i in range(5_000)]
        crlf = write(tmp_path, "\r\n".join(lines) + "\r\n", name="crlf.csv")
        cr = write(tmp_path, "\r".join(lines) + "\r", name="cr.csv")
        with mock.patch.object(data, "_CHUNK_BYTES", 4_096):
            with open(cr, "rb") as fh:
                table = data._ColumnDecoder(tuple(SCHEMA), True, cr.stat().st_size)
                sizes = [len(raw) for raw, _ in data._chunks(fh, table)]
            assert len(sizes) > 1 and max(sizes) < 4_096 + 20
            d = load_csv(cr, SCHEMA)
            assert d.equals(load_csv(crlf, SCHEMA))
        assert d.n_rows == 5_000

    def test_field_over_the_limit_is_a_parse_error(self, tmp_path):
        p = write(tmp_path, f'color,size\nred,1\n"{"x" * 140_000}",2\n')
        with pytest.raises(ParseError, match=r"data row 1: field larger than field limit") as exc:
            load_csv(p, SCHEMA)
        assert exc.value.row_index == 1
        assert_loads_like_reference(p, SCHEMA)



class TestDataset:
    def test_immutable_arrays(self, toy_dataset):
        with pytest.raises(ValueError):
            toy_dataset.codes("sex")[0] = 1

    def test_code_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Dataset([SCHEMA[0]], {"color": np.array([3])})

    @pytest.mark.parametrize("codes", [
        np.array([0.5, 1.7]),  # a cast truncates them to 0 and 1
        np.array([np.nan, 1.0]),  # a cast warns
        np.array([2**64 - 1, 0], dtype=np.uint64),  # a cast wraps it to -1, missing
    ], ids=["fractions", "nan", "uint64-max"])
    def test_codes_are_checked_before_the_cast(self, codes):
        with pytest.raises(ValidationError, match="column 'color'"):
            Dataset([SCHEMA[0]], {"color": codes})
        d = Dataset([SCHEMA[1]], {"size": np.zeros(2)})
        with pytest.raises(ValidationError, match="column 'color'"):
            d.with_column(SCHEMA[0], codes)

    def test_a_code_wrapped_into_range_by_the_cast_is_rejected(self):
        # int8 codes: 256 and -255 would become 0 and 1
        for code in (256, -255):
            with pytest.raises(ValidationError, match="column 'color': code out of range"):
                Dataset([SCHEMA[0]], {"color": np.array([code, 0])})

    def test_whole_float_codes_are_taken(self):
        d = Dataset([SCHEMA[0]], {"color": np.array([2.0, -1.0])})
        assert d.codes("color").dtype == np.int8
        assert d.codes("color").tolist() == [2, -1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(SCHEMA, {"color": np.array([0]), "size": np.array([1.0, 2.0])})

    def test_caller_arrays_are_copied(self):
        # a writable array, and a read-only one whose writable view stays alive
        codes = np.array([0, 1, 2])
        sizes = np.zeros(3)
        view = sizes[:]
        sizes.setflags(write=False)
        colors = Dataset([SCHEMA[0]], {"color": codes})
        d = Dataset([SCHEMA[1]], {"size": sizes})
        codes[0] = 2
        view[0] = 5.0
        assert colors.codes("color").tolist() == [0, 1, 2]
        assert d.values("size").tolist() == [0.0, 0.0, 0.0]
        grown = d.with_column(ColumnSchema("n", NUMERIC), view)
        view[1] = 5.0
        assert grown.values("n").tolist() == [5.0, 0.0, 0.0]

    def test_value_counts_ignores_missing(self, toy_dataset):
        assert toy_dataset.value_counts("sex") == {"female": 2, "male": 3}

    def test_select_by_mask(self, toy_dataset):
        subset = toy_dataset.select(toy_dataset.codes("sex") == 1)
        assert subset.n_rows == 3

    def test_complete_mask(self, toy_dataset):
        mask = toy_dataset.complete_mask(["sex", "years_since_graduation"])
        assert mask.tolist() == [True, True, True, True, False, True]


def wide_lines(rows, seed=0):
    """Schema and CSV lines of a 21-column table like the wide benchmark
    input: 13 categorical and 8 numeric columns, about 2% of the cells of
    four of them ``?``."""
    rng = np.random.default_rng(seed)
    schema, cells = [], []
    for j in range(13):
        cats = tuple(f"c{j}v{i}" for i in range(2 + j % 5))
        schema.append(ColumnSchema(f"cat{j}", CATEGORICAL, cats))
        cells.append(np.array(cats, dtype=object)[rng.integers(0, len(cats), rows)])
    for j in range(8):
        schema.append(ColumnSchema(f"num{j}", NUMERIC))
        cells.append(np.round(rng.normal(0.0, 10.0 ** (j % 5), rows), j % 3).astype(str).astype(object))
    for j in (1, 9, 14, 15):
        cells[j][rng.random(rows) < 0.02] = "?"
    header = ",".join(c.name for c in schema)
    return schema, [header] + [",".join(row) for row in zip(*cells)]


class TestLoadMemory:
    """``load_csv`` holds each column once, plus about one chunk of cells."""

    ROWS = 50_000
    # the most a load may hold at once, a row: the table's 77 bytes (13 int8
    # code columns and 8 float64 ones) plus one chunk's cells, or one batch
    # of csv.reader rows, spread over the rows
    BYTES_PER_ROW = 180

    def traced_load(self, path, schema):
        """The Dataset, and the most memory its load held at once."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            d = load_csv(path, schema)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        return d, peak

    def assert_lean(self, path, schema):
        d, peak = self.traced_load(path, schema)
        columns = [d.column_array(c.name) for c in schema]
        assert d.n_rows == self.ROWS
        for arr in columns:
            assert not arr.flags.writeable and arr.base is None and arr.shape == (self.ROWS,)
        assert peak < self.BYTES_PER_ROW * self.ROWS
        return d

    def test_plain_file(self, tmp_path):
        schema, lines = wide_lines(self.ROWS)
        self.assert_lean(write(tmp_path, "\n".join(lines) + "\n"), schema)

    def test_columns_grow_when_later_rows_are_shorter(self, tmp_path):
        # padded cells make the first chunk's rows long, so the size estimate
        # falls short; the loaded table equals the unpadded file's
        schema, lines = wide_lines(self.ROWS, seed=1)
        padded = [",".join(f" {c}      " for c in line.split(",")) for line in lines[1:3_001]]
        p = write(tmp_path, "\n".join(lines[:1] + padded + lines[3_001:]) + "\n")
        capacities = []
        reserve = data._ColumnDecoder._reserve

        def spy(table, n):
            reserve(table, n)
            capacities.append(table.capacity)

        with mock.patch.object(data._ColumnDecoder, "_reserve", spy):
            d = self.assert_lean(p, schema)
        assert len(set(capacities)) > 1
        assert d.equals(load_csv(write(tmp_path, "\n".join(lines) + "\n", name="plain.csv"), schema))

    def test_file_read_by_csv_reader(self, tmp_path):
        # a quote in an early row sends the rest of the file through csv.reader
        schema, lines = wide_lines(self.ROWS, seed=2)
        lines[100] = '"' + lines[100].replace(",", '",', 1)
        self.assert_lean(write(tmp_path, "\n".join(lines) + "\n"), schema)


def rule(*conditions):
    return SubgroupDescriptor(conditions)


class TestDeriveFeature:
    def test_school_conjunction_matches_row_oracle(self, toy_dataset):
        school = rule(
            Condition.equals("school_attended", "X"),
            Condition.interval("years_since_graduation", lo=30),
        )
        d2 = derive_feature(toy_dataset, "attended_singlesex_school", school)

        def predicate(r):
            if r["school_attended"] is None or r["years_since_graduation"] is None:
                return None
            return r["school_attended"] == "X" and r["years_since_graduation"] >= 30

        expected = [predicate(toy_dataset.record(i)) for i in range(toy_dataset.n_rows)]
        got = [d2.cell(i, "attended_singlesex_school") for i in range(d2.n_rows)]
        assert got == [None if e is None else ("true" if e else "false") for e in expected]

    def test_original_untouched_and_length_preserved(self, toy_dataset):
        d2 = derive_feature(toy_dataset, "flag", rule())
        assert "flag" not in toy_dataset.column_names
        assert d2.n_rows == toy_dataset.n_rows

    def test_tautology_constant_column(self, toy_dataset):
        d2 = derive_feature(toy_dataset, "flag", rule())
        assert set(d2.codes("flag").tolist()) == {1}

    def test_missing_propagates(self, toy_dataset):
        d2 = derive_feature(
            toy_dataset, "f", rule(Condition.interval("years_since_graduation", lo=0))
        )
        assert d2.cell(4, "f") is None

    def test_interval_test_on_categorical_errors(self, toy_dataset):
        with pytest.raises(ValidationError):
            derive_feature(toy_dataset, "f", rule(Condition.interval("school_attended", lo=3)))

    def test_string_compare_on_numeric_errors(self, toy_dataset):
        with pytest.raises(ValidationError):
            derive_feature(
                toy_dataset, "f", rule(Condition.equals("years_since_graduation", "ten"))
            )

    def test_unknown_column_errors(self, toy_dataset):
        with pytest.raises(ValidationError):
            derive_feature(toy_dataset, "f", rule(Condition.equals("nope", "1")))

    def test_existing_name_rejected(self, toy_dataset):
        with pytest.raises(ValidationError):
            derive_feature(toy_dataset, "sex", rule())

    def test_unknown_category_literal_matches_nothing(self, toy_dataset):
        # a category the column lacks could match no row: the rule is rejected
        with pytest.raises(ValidationError):
            derive_feature(toy_dataset, "f", rule(Condition.equals("sex", "other")))


def split_copies(d, fraction, seed):
    return tuple(d.select(rows) for rows in split_holdout(d, fraction, seed))


class TestSplitHoldout:
    def test_sizes_and_determinism(self, toy_dataset):
        schema = [ColumnSchema("x", NUMERIC)]
        d = Dataset([schema[0]], {"x": np.arange(10.0)})
        a, b = split_copies(d, 0.3, seed=7)
        assert (a.n_rows, b.n_rows) == (3, 7)
        a2, b2 = split_copies(d, 0.3, seed=7)
        assert a.equals(a2) and b.equals(b2)

    def test_ceil_size(self):
        d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.arange(7.0)})
        a, b = split_copies(d, 0.5, seed=0)
        assert (a.n_rows, b.n_rows) == (4, 3)

    def test_parts_are_sorted_row_indices(self):
        d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.arange(9.0)})
        a, b = split_holdout(d, 0.4, seed=3)
        assert a.dtype.kind == b.dtype.kind == "i"
        assert np.all(np.diff(a) > 0) and np.all(np.diff(b) > 0)
        assert sorted(a.tolist() + b.tolist()) == list(range(9))

    def test_too_small_errors(self):
        d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.array([1.0])})
        with pytest.raises(InsufficientDataError):
            split_holdout(d, 0.5, seed=0)

    @given(
        n=st.integers(min_value=2, max_value=200),
        fraction=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, fraction, seed):
        d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.arange(float(n))})
        a, b = split_copies(d, fraction, seed)
        assert a.n_rows == math.ceil(fraction * n)
        assert a.n_rows + b.n_rows == n
        union = sorted(a.values("x").tolist() + b.values("x").tolist())
        assert union == list(range(n))

    @given(
        n=st.sampled_from([2, 3, 7, 1000]),
        fraction=st.sampled_from([0.01, 0.1, 0.4, 0.5, 0.75, 0.99]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_parts_equal_both_sorted_halves_of_the_permutation(self, n, fraction, seed):
        d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.arange(float(n))})
        got = split_holdout(d, fraction, seed)
        want = oracles.split_holdout_sorted(d, fraction, seed)
        for part, expected in zip(got, want):
            assert part.dtype == expected.dtype
            assert part.tolist() == expected.tolist()

    def test_split_reads_both_parts_off_one_mask(self):
        """A split holds 1.5 arrays of a number per row at most; sorting both
        halves of the permutation holds 2."""
        n = 100_000
        d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.arange(float(n))})
        split_holdout(d, 0.4, seed=0)
        tracemalloc.start()
        try:
            split_holdout(d, 0.4, seed=0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n


class TestAuditConfig:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            AuditConfig(protected=("sex",), candidates=("sex", "age"))

    def test_check_against_unknown_column(self, toy_dataset):
        cfg = AuditConfig(protected=("sex",), candidates=("nope",))
        with pytest.raises(ValidationError):
            cfg.check_against(toy_dataset.schema)

    def test_check_against_numeric_protected_column(self, toy_dataset):
        cfg = AuditConfig(protected=("years_since_graduation",), candidates=("school_attended",))
        with pytest.raises(ValidationError, match="protected column 'years_since_graduation' "
                                                  "must be categorical"):
            cfg.check_against(toy_dataset.schema)

    def test_valid_config_passes(self, toy_dataset):
        cfg = AuditConfig(protected=("sex",), candidates=("school_attended",))
        cfg.check_against(toy_dataset.schema)
