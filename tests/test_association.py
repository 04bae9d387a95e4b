import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxyaudit.association import (
    ContingencyTable,
    _chi2,
    _prune,
    association_scan,
    binned_column,
    contingency,
    cramers_v,
    cramers_v_from_counts,
    nmi_from_counts,
    counts_significance,
    normalized_mutual_information,
)
from proxyaudit.data import CATEGORICAL, NUMERIC, ColumnSchema, Dataset
from proxyaudit.errors import InsufficientDataError, ParameterError, ValidationError

import goldens
import oracles


def binary_dataset(a_codes, b_codes, cats_a=("a0", "a1"), cats_b=("b0", "b1")):
    schema = [ColumnSchema("a", CATEGORICAL, cats_a), ColumnSchema("b", CATEGORICAL, cats_b)]
    return Dataset(schema, {"a": np.asarray(a_codes), "b": np.asarray(b_codes)})


class TestContingency:
    def test_published_sex_relationship_counts(self, table2_dataset):
        t = contingency(table2_dataset, "sex", "relationship")
        assert t.counts.tolist() == [list(r) for r in goldens.SEX_RELATIONSHIP_COUNTS]
        assert t.total == goldens.ADULT_N
        assert t.row_marginals().tolist() == list(goldens.SEX_TOTALS)

    def test_published_laos_column(self, table3_dataset):
        t = contingency(table3_dataset, "race", "native-country")
        laos = t.counts[:, t.col_cats.index("Laos")]
        assert laos.tolist() == list(goldens.LAOS_COUNTS)
        us = t.counts[:, t.col_cats.index("United-States")]
        assert us.tolist() == list(goldens.US_COUNTS)

    def test_self_cross_is_diagonal(self, table2_dataset):
        t = contingency(table2_dataset, "sex", "sex")
        off_diag = t.counts - np.diag(np.diag(t.counts))
        assert not off_diag.any()
        assert np.diag(t.counts).tolist() == list(goldens.SEX_TOTALS)

    def test_numeric_column_rejected(self, toy_dataset):
        with pytest.raises(ValidationError):
            contingency(toy_dataset, "sex", "years_since_graduation")

    def test_pairwise_deletion(self):
        d = binary_dataset([0, 1, -1, 0], [0, -1, 1, 1])
        t = contingency(d, "a", "b")
        assert t.total == 2
        assert t.counts.tolist() == [[1, 1], [0, 0]]

    def test_marginals_match_value_counts_on_complete_rows(self, toy_dataset):
        t = contingency(toy_dataset, "sex", "school_attended")
        complete = toy_dataset.select(toy_dataset.complete_mask(["sex", "school_attended"]))
        assert dict(zip(t.row_cats, t.row_marginals().tolist())) == complete.value_counts("sex")


class TestNMI:
    def test_identity_is_one(self, table2_dataset):
        s = normalized_mutual_information(table2_dataset, "sex", "sex")
        assert s.value == 1.0

    def test_published_joint_matches_frozen_oracle(self, table2_dataset):
        s = normalized_mutual_information(table2_dataset, "sex", "relationship")
        assert s.value == pytest.approx(goldens.SEX_RELATIONSHIP_NMI_ARITHMETIC, abs=1e-6)
        assert abs(s.value - goldens.NMI_TABLE[("sex", "relationship")]) <= goldens.NMI_TOLERANCE
        assert s.n_effective == goldens.ADULT_N

    def test_geometric_normalization(self, table2_dataset):
        s = normalized_mutual_information(
            table2_dataset, "sex", "relationship", normalization="geometric"
        )
        assert s.value == pytest.approx(goldens.SEX_RELATIONSHIP_NMI_GEOMETRIC, abs=1e-6)

    def test_independent_binary_columns_near_zero(self):
        rng = np.random.default_rng(1234)
        d = binary_dataset(rng.integers(0, 2, 10_000), rng.integers(0, 2, 10_000))
        s = normalized_mutual_information(d, "a", "b")
        assert s.value <= 0.01

    def test_symmetry_exact(self, table2_dataset):
        ab = normalized_mutual_information(table2_dataset, "sex", "relationship")
        ba = normalized_mutual_information(table2_dataset, "relationship", "sex")
        assert ab.value == ba.value

    def test_both_constant_degenerate(self):
        d = binary_dataset([0, 0, 0], [1, 1, 1])
        s = normalized_mutual_information(d, "a", "b")
        assert s.value == 1.0 and s.degenerate

    def test_one_constant_is_zero(self):
        d = binary_dataset([0, 0, 0, 0], [0, 1, 0, 1])
        s = normalized_mutual_information(d, "a", "b")
        assert s.value == 0.0 and s.degenerate

    def test_insufficient_rows(self):
        d = binary_dataset([0, -1], [0, 0])
        with pytest.raises(InsufficientDataError):
            normalized_mutual_information(d, "a", "b")

    def test_bijective_relabeling_is_one(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 3, 500)
        d = binary_dataset(a, (2 - a), cats_a=("x", "y", "z"), cats_b=("u", "v", "w"))
        s = normalized_mutual_information(d, "a", "b")
        assert s.value == 1.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_and_bounds(self, data):
        r = data.draw(st.integers(2, 4))
        c = data.draw(st.integers(2, 4))
        counts = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 20), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        )
        if counts.sum() < 2:
            counts[0, 0] += 2
        value, _ = nmi_from_counts(counts)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(oracles.nmi_arithmetic(counts.tolist()), abs=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_merging_categories_never_increases_raw_mi(self, data):
        # data-processing inequality at the plug-in level, against the oracle
        r = data.draw(st.integers(2, 4))
        c = data.draw(st.integers(3, 5))
        counts = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 15), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        )
        if counts.sum() < 2:
            counts[0, 0] += 2
        j = data.draw(st.integers(0, c - 2))
        merged = np.concatenate(
            [counts[:, :j], (counts[:, j] + counts[:, j + 1])[:, None], counts[:, j + 2 :]],
            axis=1,
        )
        assert oracles.mutual_information(merged.tolist()) <= (
            oracles.mutual_information(counts.tolist()) + 1e-12
        )


class TestCramersV:
    def test_perfect_diagonal(self):
        d = binary_dataset([0] * 10 + [1] * 10, [0] * 10 + [1] * 10)
        assert cramers_v(d, "a", "b").value == pytest.approx(1.0)

    def test_independent_proportional_is_zero(self):
        # counts [[10, 20], [30, 60]] are exactly proportional
        a = [0] * 30 + [1] * 90
        b = [0] * 10 + [1] * 20 + [0] * 30 + [1] * 60
        d = binary_dataset(a, b)
        s = cramers_v(d, "a", "b")
        assert s.value == pytest.approx(0.0, abs=1e-12)
        assert s.p_value == pytest.approx(1.0)

    def test_published_joint_matches_frozen_chi2_oracle(self, table2_dataset):
        s = cramers_v(table2_dataset, "sex", "relationship")
        assert s.value == pytest.approx(goldens.SEX_RELATIONSHIP_CRAMERS_V, rel=1e-9)

    def test_constant_column_warns_zero(self):
        d = binary_dataset([0, 0, 0, 0], [0, 1, 0, 1])
        s = cramers_v(d, "a", "b")
        assert s.value == 0.0 and s.warning


class TestSignificance:
    def test_small_diagonal_is_extreme(self):
        # expected cells are 11.5 (>= 5) so the chi2 branch applies; the
        # p-value is still far below 1e-9 either way (the Fraction-exact
        # hypergeometric oracle pins the Fisher value of this table too)
        t = ContingencyTable("a", "b", ("a0", "a1"), ("b0", "b1"),
                             np.array([[23, 0], [0, 23]]), 46)
        p, method = counts_significance(t.counts, detail=True)
        assert p < 1e-9
        assert method == "chi2"
        assert oracles.fisher_exact_two_sided(23, 0, 0, 23) == pytest.approx(
            goldens.FISHER_DIAG_23, rel=1e-12
        )

    def test_fisher_branch_when_expected_below_five(self):
        t = ContingencyTable("a", "b", ("a0", "a1"), ("b0", "b1"),
                             np.array([[5, 0], [0, 5]]), 10)
        p, method = counts_significance(t.counts, detail=True)
        assert method == "fisher_exact"  # expected cells are 2.5
        assert p == pytest.approx(oracles.fisher_exact_two_sided(5, 0, 0, 5), rel=1e-9)

    def test_laos_column_takes_fisher_branch(self, table3_dataset):
        # collapse to (Asian-Pac-Islander vs rest) x (Laos vs United-States)
        t = contingency(table3_dataset, "race", "native-country")
        api = t.row_cats.index("Asian-Pac-Islander")
        counts = t.counts
        collapsed = np.array(
            [
                [counts[api, 0], counts[api, 1]],
                [counts[:, 0].sum() - counts[api, 0], counts[:, 1].sum() - counts[api, 1]],
            ]
        )
        t2 = ContingencyTable("race", "native-country", ("api", "rest"),
                              ("Laos", "United-States"), collapsed, int(collapsed.sum()))
        p, method = counts_significance(t2.counts, detail=True)
        assert method == "fisher_exact"  # expected Laos/API cell is far below 5
        assert p == pytest.approx(goldens.FISHER_LAOS_API, rel=1e-6)

    def test_chi2_branch_on_large_table(self, table2_dataset):
        t = contingency(table2_dataset, "sex", "relationship")
        p, method = counts_significance(t.counts, detail=True)
        assert method == "chi2"
        assert p < 1e-12

    def test_proportional_table_p_one(self):
        t = ContingencyTable("a", "b", ("a0", "a1"), ("b0", "b1"),
                             np.array([[10, 20], [30, 60]]), 120)
        assert counts_significance(t.counts) == pytest.approx(1.0)

    def test_zero_total_errors(self):
        t = ContingencyTable("a", "b", ("a0",), ("b0",), np.array([[0]]), 0)
        with pytest.raises(InsufficientDataError):
            counts_significance(t.counts)

    def test_degenerate_table_p_one(self):
        t = ContingencyTable("a", "b", ("a0", "a1"), ("b0", "b1"),
                             np.array([[5, 7], [0, 0]]), 12)
        p, method = counts_significance(t.counts, detail=True)
        assert p == 1.0 and method == "degenerate"


@st.composite
def pruned_tables(draw):
    """Tables from 2x2 to 6x6 with no all-zero row or column; each cell is
    drawn at its own magnitude, from single digits up to 10**6."""
    r, c = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cell = st.integers(0, 6).flatmap(lambda e: st.integers(0, 10**e))
    cells = draw(st.lists(cell, min_size=r * c, max_size=r * c))
    pruned = _prune(np.array(cells, dtype=np.int64).reshape(r, c))
    assume(min(pruned.shape) >= 2)
    return pruned


class TestChi2Exactness:
    """The numpy statistic and ``scipy.special.chdtrc`` give the float bits of
    ``scipy.stats.chi2_contingency(..., correction=False)``."""

    @settings(max_examples=600, deadline=None)
    @given(pruned_tables())
    def test_statistic_and_p_value_equal_scipy_stats(self, pruned):
        want_stat, want_p = oracles.chi2_reference(pruned)
        stat, expected = _chi2(pruned)
        assert stat.hex() == want_stat.hex()
        # the Fisher branch's small-cell check reads the same expected counts
        outer = np.outer(pruned.sum(axis=1), pruned.sum(axis=0)) / pruned.sum()
        assert expected.tobytes() == outer.tobytes()
        n, k = int(pruned.sum()), min(pruned.shape) - 1
        value, _ = cramers_v_from_counts(pruned)
        assert value.hex() == math.sqrt(want_stat / (n * k)).hex()
        p, method = counts_significance(pruned, detail=True)
        if method == "chi2":
            assert p.hex() == want_p.hex()
        else:
            assert pruned.shape == (2, 2) and (outer < 5).any()


class TestScan:
    def test_single_candidate(self, table2_dataset):
        scores = association_scan(table2_dataset, ["sex"], ["relationship"])
        assert len(scores) == 1
        assert scores[0].var_b == "relationship"

    def test_empty_candidates(self, table2_dataset):
        assert association_scan(table2_dataset, ["sex"], []) == []

    def test_constant_candidate_ranks_last_with_zero(self):
        rng = np.random.default_rng(0)
        n = 1000
        schema = [
            ColumnSchema("a", CATEGORICAL, ("a0", "a1")),
            ColumnSchema("b", CATEGORICAL, ("b0", "b1")),
            ColumnSchema("const", CATEGORICAL, ("k",)),
        ]
        a = rng.integers(0, 2, n)
        d = Dataset(schema, {"a": a, "b": a ^ 1, "const": np.zeros(n, dtype=np.int64)})
        scores = association_scan(d, ["a"], ["b", "const"])
        assert [s.var_b for s in scores] == ["b", "const"]
        assert scores[-1].value == 0.0

    def test_pair_without_complete_rows_is_left_out(self):
        # "x" is all missing and "c" has one observed row: neither pair can be
        # scored, and neither ends the scan
        schema = [
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
            ColumnSchema("x", NUMERIC),
            ColumnSchema("c", CATEGORICAL, ("a", "b")),
            ColumnSchema("ok", CATEGORICAL, ("a", "b")),
        ]
        d = Dataset(schema, {
            "s": np.array([0, 1] * 5),
            "x": np.full(10, np.nan),
            "c": np.array([0] + [-1] * 9),
            "ok": np.array([0, 0, 1, 1, 0] * 2),
        })
        for measure in ("nmi", "cramers_v"):
            scores = association_scan(d, ["s"], ["x", "c", "ok"], measure=measure)
            assert [s.var_b for s in scores] == ["ok"]

    @pytest.mark.parametrize("bins", [0, 1, -3])
    def test_bins_below_two_raises(self, toy_dataset, bins):
        with pytest.raises(ParameterError, match="bins must be at least 2"):
            association_scan(toy_dataset, ["sex"], ["years_since_graduation"], bins=bins)

    def test_numeric_candidate_is_binned(self, toy_dataset):
        scores = association_scan(toy_dataset, ["sex"], ["years_since_graduation"], bins=2)
        assert len(scores) == 1
        assert 0.0 <= scores[0].value <= 1.0

    def test_repeat_scan_identical(self, table2_dataset):
        s1 = association_scan(table2_dataset, ["sex"], ["relationship"])
        s2 = association_scan(table2_dataset, ["sex"], ["relationship"])
        assert [(s.var_a, s.var_b, s.value) for s in s1] == [
            (s.var_a, s.var_b, s.value) for s in s2
        ]

    def test_cramers_v_measure(self, table2_dataset):
        scores = association_scan(table2_dataset, ["sex"], ["relationship"], measure="cramers_v")
        assert scores[0].value == pytest.approx(goldens.SEX_RELATIONSHIP_CRAMERS_V, rel=1e-9)


class TestBinning:
    def test_binned_column_codes(self):
        d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.array([1.0, 2, 3, 4, np.nan])})
        codes, labels = binned_column(d, "x", 2)
        # median of [1, 2, 3, 4] is 2.5: values below go to bin 0, above to bin 1
        assert codes.tolist() == [0, 0, 1, 1, -1]
        assert len(labels) == 2


def test_association_scan_bins_and_counts_without_gathered_copies():
    """A scan holds 2.5 arrays of a number per row at most; one that gathers
    the complete rows of each pair, keeps a binned column while it bins the
    next, and copies the cells its quantile reorders holds 4."""
    n = 100_000
    rng = np.random.default_rng(4)
    x = rng.normal(size=n)
    x[rng.random(n) < 0.05] = np.nan
    z = rng.integers(0, 50, n) / 2.0
    z[rng.random(n) < 0.05] = np.nan
    d = Dataset(
        [ColumnSchema("s", CATEGORICAL, ("f", "m")), ColumnSchema("c", CATEGORICAL, ("a", "b", "c")),
         ColumnSchema("x", NUMERIC), ColumnSchema("z", NUMERIC)],
        {"s": rng.integers(-1, 2, n), "c": rng.integers(-1, 3, n), "x": x, "z": z},
    )
    association_scan(d, ("s",), ("c", "x", "z"))
    tracemalloc.start()
    try:
        association_scan(d, ("s",), ("c", "x", "z"))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n
