import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_round_trip_is_cell_exact(self, tmp_path):
        p = write(tmp_path, "color,size\nred,1\n?,2.25\nblue,?\n")
        d = load_csv(p, SCHEMA)
        out = tmp_path / "out.csv"
        d.to_csv(out)
        write_schema_json(d.schema, tmp_path / "out.schema.json")
        schema2 = read_schema_json(tmp_path / "out.schema.json")
        d2 = load_csv(out, schema2)
        assert d.equals(d2)


class TestDataset:
    def test_immutable_arrays(self, toy_dataset):
        with pytest.raises(ValueError):
            toy_dataset.codes("sex")[0] = 1

    def test_code_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Dataset([SCHEMA[0]], {"color": np.array([3])})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(SCHEMA, {"color": np.array([0]), "size": np.array([1.0, 2.0])})

    def test_value_counts_ignores_missing(self, toy_dataset):
        assert toy_dataset.value_counts("sex") == {"female": 2, "male": 3}

    def test_select_by_mask(self, toy_dataset):
        subset = toy_dataset.select(toy_dataset.codes("sex") == 1)
        assert subset.n_rows == 3

    def test_complete_mask(self, toy_dataset):
        mask = toy_dataset.complete_mask(["sex", "years_since_graduation"])
        assert mask.tolist() == [True, True, True, True, False, True]


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


class TestSplitHoldout:
    def test_sizes_and_determinism(self, toy_dataset):
        schema = [ColumnSchema("x", NUMERIC)]
        d = Dataset([schema[0]], {"x": np.arange(10.0)})
        a, b = split_holdout(d, 0.3, seed=7)
        assert (a.n_rows, b.n_rows) == (3, 7)
        a2, b2 = split_holdout(d, 0.3, seed=7)
        assert a.equals(a2) and b.equals(b2)

    def test_ceil_size(self):
        d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.arange(7.0)})
        a, b = split_holdout(d, 0.5, seed=0)
        assert (a.n_rows, b.n_rows) == (4, 3)

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
        a, b = split_holdout(d, fraction, seed)
        assert a.n_rows == math.ceil(fraction * n)
        assert a.n_rows + b.n_rows == n
        union = sorted(a.values("x").tolist() + b.values("x").tolist())
        assert union == list(range(n))


class TestAuditConfig:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            AuditConfig(protected=("sex",), candidates=("sex", "age"))

    def test_check_against_unknown_column(self, toy_dataset):
        cfg = AuditConfig(protected=("sex",), candidates=("nope",))
        with pytest.raises(ValidationError):
            cfg.check_against(toy_dataset)

    def test_valid_config_passes(self, toy_dataset):
        cfg = AuditConfig(protected=("sex",), candidates=("school_attended",))
        cfg.check_against(toy_dataset)
