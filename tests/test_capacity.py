import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goldens
import oracles
from proxyaudit.capacity import (
    CapacityScore,
    TREE_MIN_LEAF,
    _CartTree,
    _design_matrix,
    _value_ranks,
    balanced_accuracy,
    clopper_pearson,
    exact_correspondence,
    predictive_capacity,
)
from proxyaudit.data import CATEGORICAL, NUMERIC, ColumnSchema, Dataset
from proxyaudit.descriptors import Condition, SubgroupDescriptor
from proxyaudit.errors import (
    InsufficientDataError,
    ParameterError,
    ValidationError,
)


def crit(*conds):
    return SubgroupDescriptor(conds)


# --- Clopper-Pearson interval ------------------------------------------------


def test_clopper_pearson_boundary_closed_forms():
    # dual route: at k = 0 and k = n the exact interval has closed forms
    # hi = 1 - (alpha/2)**(1/n) and lo = (alpha/2)**(1/n)
    for n in (1, 7, 50, 2331):
        lo, hi = clopper_pearson(0, n, alpha=0.05)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / n), abs=1e-12)
        lo, hi = clopper_pearson(n, n, alpha=0.05)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1.0 / n), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 500), k_frac=st.floats(0, 1), tighter=st.booleans())
def test_clopper_pearson_brackets_and_widens(n, k_frac, tighter):
    k = min(n, int(round(k_frac * n)))
    lo, hi = clopper_pearson(k, n, alpha=0.05)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
    alpha2 = 0.2 if tighter else 0.01
    lo2, hi2 = clopper_pearson(k, n, alpha=alpha2)
    if alpha2 > 0.05:  # larger alpha: narrower interval
        assert lo2 >= lo and hi2 <= hi
    else:
        assert lo2 <= lo and hi2 >= hi


def test_clopper_pearson_empty_sample():
    with pytest.raises(InsufficientDataError):
        clopper_pearson(0, 0)


@pytest.mark.parametrize(
    "k, n, alpha",
    [(-1, 10, 0.05), (11, 10, 0.05), (2, 1, 0.05), (3, 10, 0.0), (3, 10, 1.0),
     (3, 10, -0.1), (3, 10, 1.5), (3, 10, float("nan"))],
)
def test_clopper_pearson_rejects_impossible_inputs(k, n, alpha):
    with pytest.raises(ParameterError):
        clopper_pearson(k, n, alpha)


@settings(max_examples=600, deadline=None)
@given(
    n=st.one_of(st.integers(1, 60), st.integers(1, 10**6)),
    k_frac=st.floats(0, 1),
    alpha=st.one_of(
        st.sampled_from((0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9)),
        st.floats(1e-6, 1 - 1e-6),
    ),
)
@example(n=1, k_frac=0.0, alpha=0.05)
@example(n=1, k_frac=1.0, alpha=0.05)
@example(n=1000, k_frac=0.0, alpha=0.01)
@example(n=1000, k_frac=1.0, alpha=0.2)
def test_clopper_pearson_equals_beta_quantiles(n, k_frac, alpha):
    k = min(n, int(round(k_frac * n)))
    lo, hi = clopper_pearson(k, n, alpha)
    want_lo, want_hi = oracles.clopper_pearson_reference(k, n, alpha)
    assert (lo.hex(), hi.hex()) == (want_lo.hex(), want_hi.hex())


# --- exact correspondence ----------------------------------------------------


def test_wife_purity_matches_published_counts(table2_dataset):
    q = crit(Condition.equals("relationship", "Wife"))
    score = exact_correspondence(table2_dataset, q, ("sex", "Female"))
    assert score.measure == "purity"
    assert score.support == 2331
    assert score.value == pytest.approx(goldens.WIFE_FEMALE_PURITY, abs=1e-12)
    assert score.p_value < 1e-12
    assert score.ci_low <= score.value <= score.ci_high
    assert score.ci_low > 0.99  # high even at the pessimistic end


def test_wife_purity_against_loop_oracle(table2_dataset):
    rows = [table2_dataset.record(i) for i in range(table2_dataset.n_rows)]
    expected, n = oracles.purity(
        rows, lambda r: r["relationship"] == "Wife", lambda r: r["sex"] == "Female"
    )
    q = crit(Condition.equals("relationship", "Wife"))
    score = exact_correspondence(table2_dataset, q, ("sex", "Female"))
    assert score.support == n
    assert score.value == pytest.approx(expected, abs=1e-12)


def test_tautology_purity_is_base_rate(table2_dataset):
    score = exact_correspondence(table2_dataset, crit(), ("sex", "Female"))
    assert score.support == goldens.ADULT_N
    assert score.value == pytest.approx(goldens.SEX_TOTALS[0] / goldens.ADULT_N, abs=1e-12)


def test_purities_partition_to_one(table2_dataset):
    # every matched row carries exactly one protected category
    for rel in goldens.RELATIONSHIP_CATS:
        q = crit(Condition.equals("relationship", rel))
        total = sum(
            exact_correspondence(table2_dataset, q, ("sex", s)).value
            for s in goldens.SEX_CATS
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_support_shrinks_under_extension():
    rng = np.random.default_rng(7)
    n = 400
    d = Dataset(
        [
            ColumnSchema("grp", CATEGORICAL, ("a", "b")),
            ColumnSchema("flag", CATEGORICAL, ("no", "yes")),
            ColumnSchema("x", NUMERIC),
        ],
        {
            "grp": rng.integers(0, 2, n),
            "flag": rng.integers(0, 2, n),
            "x": rng.normal(size=n),
        },
    )
    base = crit(Condition.equals("flag", "yes"))
    extended = base.extended(Condition.interval("x", lo=0.0))
    s_base = exact_correspondence(d, base, ("grp", "a"))
    s_ext = exact_correspondence(d, extended, ("grp", "a"))
    assert s_ext.support <= s_base.support


def test_missing_rows_leave_the_denominator(toy_dataset):
    # school X matches rows 0, 1, 4 but row 4 has no recorded sex
    q = crit(Condition.equals("school_attended", "X"))
    score = exact_correspondence(toy_dataset, q, ("sex", "female"))
    assert score.support == 2
    assert score.value == pytest.approx(0.5)


def test_rejects_criterion_on_protected_column(table2_dataset):
    q = crit(Condition.equals("sex", "Female"))
    with pytest.raises(ValidationError):
        exact_correspondence(table2_dataset, q, ("sex", "Female"))


def test_rejects_unknown_protected_category(table2_dataset):
    q = crit(Condition.equals("relationship", "Wife"))
    with pytest.raises(ValidationError):
        exact_correspondence(table2_dataset, q, ("sex", "Other"))


def test_rejects_numeric_protected_column(toy_dataset):
    q = crit(Condition.equals("school_attended", "X"))
    with pytest.raises(ValidationError):
        exact_correspondence(toy_dataset, q, ("years_since_graduation", "35"))


def test_zero_support_raises(table2_dataset):
    q = crit(Condition.equals("relationship", "Wife"))
    without_wives = table2_dataset.select(np.nonzero(~q.mask(table2_dataset))[0])
    with pytest.raises(InsufficientDataError):
        exact_correspondence(without_wives, q, ("sex", "Female"))


def test_capacity_score_validates_bounds():
    with pytest.raises(ValidationError):
        CapacityScore(
            proxy=("x",), protected_value="s", measure="predictive",
            value=1.2, support=10, p_value=0.5, ci_low=0.0, ci_high=1.0,
        )
    with pytest.raises(ValidationError):
        CapacityScore(
            proxy=("x",), protected_value="s", measure="predictive",
            value=0.5, support=10, p_value=0.5, ci_low=0.6, ci_high=1.0,
        )


def test_capacity_score_json_round_trip(table2_dataset):
    q = crit(Condition.equals("relationship", "Wife"))
    score = exact_correspondence(table2_dataset, q, ("sex", "Female"))
    obj = score.to_json()
    assert obj["measure"] == "purity"
    assert obj["protected_value"] == ["sex", "Female"]
    assert obj["support"] == 2331
    assert "warning" not in obj


# --- internal learners -------------------------------------------------------


def xor_dataset(per_cell=10):
    a, b, s = [], [], []
    for va in (0, 1):
        for vb in (0, 1):
            a.extend([va] * per_cell)
            b.extend([vb] * per_cell)
            s.extend([va ^ vb] * per_cell)
    return Dataset(
        [
            ColumnSchema("a", CATEGORICAL, ("0", "1")),
            ColumnSchema("b", CATEGORICAL, ("0", "1")),
            ColumnSchema("s", CATEGORICAL, ("neg", "pos")),
        ],
        {"a": np.array(a), "b": np.array(b), "s": np.array(s)},
    )


def test_xor_splits_tree():
    d = xor_dataset()
    tree = predictive_capacity(d, ("a", "b"), "s", folds=5, seed=0)
    # a depth-2 tree recovers the parity exactly
    assert tree.value == 1.0


def test_copied_column_has_full_capacity():
    rng = np.random.default_rng(3)
    s = rng.integers(0, 2, 60)
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
            ColumnSchema("mirror", CATEGORICAL, ("f", "m")),
        ],
        {"s": s, "mirror": s.copy()},
    )
    score = predictive_capacity(d, ("mirror",), "s", folds=5, seed=1)
    assert score.value == 1.0
    assert score.p_value < 1e-9


def test_independent_noise_has_no_capacity():
    rng = np.random.default_rng(11)
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
            ColumnSchema("noise", NUMERIC),
        ],
        {"s": rng.integers(0, 2, 500), "noise": rng.normal(size=500)},
    )
    score = predictive_capacity(d, ("noise",), "s", folds=5, seed=2)
    assert 0.0 <= score.value <= 0.15


def test_three_class_copy_normalizes_to_one():
    codes = np.repeat([0, 1, 2], 12)
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("a", "b", "c")),
            ColumnSchema("mirror", CATEGORICAL, ("a", "b", "c")),
        ],
        {"s": codes, "mirror": codes.copy()},
    )
    score = predictive_capacity(d, ("mirror",), "s", folds=4, seed=0)
    assert score.value == 1.0


def test_balanced_accuracy_matches_loop_oracle():
    rng = np.random.default_rng(5)
    y_true = rng.integers(0, 3, 200)
    y_pred = rng.integers(0, 3, 200)
    confusion = np.zeros((3, 3), dtype=np.int64)
    for t, q in zip(y_true, y_pred):
        confusion[t, q] += 1
    ours = balanced_accuracy(confusion)
    assert ours == pytest.approx(
        oracles.balanced_accuracy(y_true.tolist(), y_pred.tolist()), abs=1e-12
    )


def test_fold_merge_is_noted_not_warned():
    codes = np.array([0] * 3 + [1] * 30)
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("rare", "common")),
            ColumnSchema("mirror", CATEGORICAL, ("rare", "common")),
        ],
        {"s": codes, "mirror": codes.copy()},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score = predictive_capacity(d, ("mirror",), "s", folds=5, seed=0)
    assert score.warning == "class counts below 5 folds; refit with 3 merged folds"
    assert "warning" in score.to_json()
    assert 0.0 <= score.value <= 1.0


def test_rarest_class_below_two_rows():
    codes = np.array([0] + [1] * 20)
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("rare", "common")),
            ColumnSchema("x", NUMERIC),
        ],
        {"s": codes, "x": np.arange(21, dtype=float)},
    )
    with pytest.raises(InsufficientDataError):
        predictive_capacity(d, ("x",), "s", folds=5, seed=0)


def test_single_observed_class():
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
            ColumnSchema("x", NUMERIC),
        ],
        {"s": np.zeros(20, dtype=np.int64), "x": np.arange(20, dtype=float)},
    )
    with pytest.raises(InsufficientDataError, match="single category"):
        predictive_capacity(d, ("x",), "s", folds=5, seed=0)


def test_parameter_validation():
    d = xor_dataset()
    with pytest.raises(ParameterError):
        predictive_capacity(d, ("a",), "s", folds=1)
    with pytest.raises(ValidationError):
        predictive_capacity(d, (), "s")
    with pytest.raises(TypeError):  # folds and seed are keyword-only
        predictive_capacity(d, ("a",), "s", 5)


def test_predictive_capacity_is_deterministic():
    d = xor_dataset()
    first = predictive_capacity(d, ("a", "b"), "s", folds=5, seed=9)
    second = predictive_capacity(d, ("a", "b"), "s", folds=5, seed=9)
    assert first.value == second.value
    assert first.p_value == second.p_value
    assert first.ci_low == second.ci_low and first.ci_high == second.ci_high


def test_row_order_does_not_change_capacity():
    rng = np.random.default_rng(21)
    n = 200
    s = rng.integers(0, 2, n)
    noisy = np.where(rng.random(n) < 0.2, 1 - s, s)
    columns = {"s": s, "proxy": noisy}
    schema = [
        ColumnSchema("s", CATEGORICAL, ("f", "m")),
        ColumnSchema("proxy", CATEGORICAL, ("f", "m")),
    ]
    d = Dataset(schema, columns)
    perm = rng.permutation(n)
    shuffled = Dataset(schema, {k: v[perm] for k, v in columns.items()})
    a = predictive_capacity(d, ("proxy",), "s", folds=5, seed=4)
    b = predictive_capacity(shuffled, ("proxy",), "s", folds=5, seed=4)
    assert a.value == b.value
    assert a.p_value == b.p_value


def test_relabeling_protected_categories_keeps_value():
    rng = np.random.default_rng(13)
    s = rng.integers(0, 2, 80)
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
            ColumnSchema("mirror", CATEGORICAL, ("f", "m")),
        ],
        {"s": s, "mirror": s.copy()},
    )
    swapped = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("m", "f")),
            ColumnSchema("mirror", CATEGORICAL, ("f", "m")),
        ],
        {"s": 1 - s, "mirror": s.copy()},
    )
    a = predictive_capacity(d, ("mirror",), "s", folds=5, seed=0)
    b = predictive_capacity(swapped, ("mirror",), "s", folds=5, seed=0)
    assert a.value == b.value == 1.0


def test_capacity_monotone_as_noise_vanishes():
    rng = np.random.default_rng(97)
    n = 900
    s = rng.integers(0, 2, n)
    values = []
    for noise in (0.3, 0.1, 0.0):
        flipped = np.where(rng.random(n) < noise, 1 - s, s)
        d = Dataset(
            [
                ColumnSchema("s", CATEGORICAL, ("f", "m")),
                ColumnSchema("proxy", CATEGORICAL, ("f", "m")),
            ],
            {"s": s, "proxy": flipped},
        )
        values.append(predictive_capacity(d, ("proxy",), "s", folds=5, seed=0).value)
    assert values[0] <= values[1] <= values[2]
    assert values[2] == 1.0


def test_classify_link_thresholds(table2_dataset):
    from proxyaudit.capacity import (
        INEXTRICABLE_LINK,
        STATISTICAL_ASSOCIATION,
        classify_link,
    )

    q = crit(Condition.equals("relationship", "Wife"))
    strong = exact_correspondence(table2_dataset, q, ("sex", "Female"))
    assert classify_link(strong) == INEXTRICABLE_LINK
    weak = exact_correspondence(table2_dataset, crit(), ("sex", "Female"))
    assert classify_link(weak) == STATISTICAL_ASSOCIATION
    # the CI floor alone can demote a perfect-purity finding
    tiny = CapacityScore(
        proxy=("x",), protected_value="s", measure="purity",
        value=1.0, support=10, p_value=0.01, ci_low=0.69, ci_high=1.0,
    )
    assert classify_link(tiny) == STATISTICAL_ASSOCIATION


# --- learners on the design matrix -------------------------------------------


def mixed_dataset(n=300, seed=17):
    rng = np.random.default_rng(seed)
    age = rng.normal(40.0, 12.0, n)
    city = rng.integers(0, 3, n)
    logit = 0.08 * (age - 40.0) + np.where(city == 0, 1.0, -0.5) + rng.normal(0, 0.5, n)
    label = (logit > 0).astype(np.int64)
    return Dataset(
        [
            ColumnSchema("age", NUMERIC),
            ColumnSchema("city", CATEGORICAL, ("north", "south", "west")),
            ColumnSchema("grp", CATEGORICAL, ("lo", "hi")),
        ],
        {"age": age, "city": city, "grp": label},
    )


def test_feature_encoder_layout():
    d = mixed_dataset(40)
    rows = np.arange(40)
    X = _design_matrix(d, ("age", "city"), rows)
    assert X.shape == (40, 4) and X.dtype == np.float64
    # numerics pass through; city expands to north, south, west indicators
    assert np.array_equal(X[:, 0], d.values("age"))
    assert np.array_equal(X[:, 1] + X[:, 2] + X[:, 3], np.ones(40))
    assert np.array_equal(np.argmax(X[:, 1:], axis=1), d.codes("city"))
    assert np.array_equal(_design_matrix(d, ("age", "city"), rows[::3]), X[::3])


def test_tree_learns_the_generating_rule():
    d = mixed_dataset()
    X = _design_matrix(d, ("age", "city"), np.arange(d.n_rows))
    y = d.codes("grp")
    _tree, predicted = fit_and_classify(X, y, np.arange(d.n_rows), X, 2, 3, 5)
    assert np.mean(predicted == y) > 0.8


def test_value_ranks_index_sorted_distinct_values():
    X = np.array([[2.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [5.5, 1.0]])
    ranks, values = _value_ranks(X)
    assert [v.tolist() for v in values] == [[0.0, 2.0, 5.5], [1.0]]
    assert ranks.tolist() == [[1, 0, 0, 2], [0, 0, 0, 0]]
    for j in range(2):
        assert np.array_equal(values[j][ranks[j]], X[:, j])


def node_bits(nodes):
    """Tree nodes with thresholds as float bits, comparable with ``==``."""
    out = []
    for node in nodes:
        entry = {"counts": [int(c) for c in node["counts"]]}
        if "feat" in node:
            entry.update(feat=node["feat"], thr=float(node["thr"]).hex(),
                         left=node["left"], right=node["right"])
        out.append(entry)
    return out


def row_cells(X, y, rows):
    """The table X with one cell of weight 1 per row in ``rows``."""
    return (*_value_ranks(X), rows, y[rows], np.ones(rows.shape[0]))


def fit_and_classify(X, y, rows, queries, n_classes, max_depth, min_leaf):
    """A tree fit on the rows ``rows`` of X, and the classes it gives the
    rows of ``queries``, appended to the ranked table and passed as held."""
    table = np.vstack([X, queries])
    held = np.arange(X.shape[0], table.shape[0])
    tree = _CartTree(max_depth, min_leaf).fit(*row_cells(table, y, rows), n_classes, held)
    return tree, tree.predicted[held]


def grouped_cells(X, y, rows, n_classes, rng):
    """The distinct rows of X[rows] as a table, with one weighted cell per
    (distinct row, class) that holds rows, in a shuffled order."""
    ids = {}
    for x in X[rows].tolist():
        ids.setdefault(tuple(x), len(ids))  # -0.0 and 0.0 share a key
    table = np.array(list(ids), dtype=np.float64).reshape(len(ids), X.shape[1])
    counts = np.zeros((len(ids), n_classes), dtype=np.int64)
    for x, label in zip(X[rows].tolist(), y[rows].tolist()):
        counts[ids[tuple(x)], label] += 1
    row, label = np.nonzero(counts)
    shuffle = rng.permutation(row.shape[0])
    row, label = row[shuffle], label[shuffle]
    return (*_value_ranks(table), row, label, counts[row, label].astype(np.float64))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, TREE_MIN_LEAF))
def test_tree_on_ranks_equals_copy_based_fit_node_for_node(seed, max_depth, min_leaf):
    rng = np.random.default_rng(seed)
    n, p, k = int(rng.integers(2, 120)), int(rng.integers(1, 4)), int(rng.integers(2, 4))
    X = rng.integers(-3, 4, size=(n, p)).astype(np.float64)
    if seed % 3 == 0:
        X[:, 0] = rng.normal(size=n)  # distinct values
    X[X == 0.0] = rng.choice([-0.0, 0.0], size=int(np.count_nonzero(X == 0.0)))
    y = rng.integers(0, k, size=n)
    rows = np.nonzero(rng.random(n) < 0.8)[0]  # a training fold's rows
    want = node_bits(oracles.cart_fit_copies(X[rows], y[rows], k, max_depth, min_leaf))
    for cells in (row_cells(X, y, rows), grouped_cells(X, y, rows, k, rng)):
        tree = _CartTree(max_depth, min_leaf).fit(*cells, k)
        assert node_bits(tree.nodes) == want


def test_tree_partitions_by_value_where_a_midpoint_rounds_onto_a_value():
    # the midpoint of 1.0 and the next float rounds to 1.0, so ``x < thr``
    # sends both values right; a split by rank would send 1.0 left
    X = np.array([[1.0], [np.nextafter(1.0, 2.0)]] * 6)
    y = np.array([0, 1] * 6)
    tree = _CartTree(2, 1).fit(*row_cells(X, y, np.arange(12)), 2)
    assert tree.nodes[0]["thr"] == 1.0
    assert tree.nodes[1]["counts"].tolist() == [0, 0]
    assert node_bits(tree.nodes) == node_bits(oracles.cart_fit_copies(X, y, 2, 2, 1))


def test_empty_leaf_predicts_class_0_without_dividing():
    # the left leaf of this tree holds no training row (see above), and
    # class 1 is the majority everywhere else
    X = np.array([[1.0], [np.nextafter(1.0, 2.0)]] * 6)
    y = np.array([1, 1] * 5 + [0, 0])
    queries = np.array([[0.5], [1.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree, got = fit_and_classify(X, y, np.arange(12), queries, 2, 2, 1)
    assert tree.nodes[1]["counts"].tolist() == [0, 0]
    assert got.tolist() == [0, 1, 1]
    assert got.tolist() == oracles.cart_predict(tree.nodes, queries.tolist())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_tree_predict_matches_row_walk(seed, max_depth, min_leaf):
    rng = np.random.default_rng(seed)
    n, p, k = int(rng.integers(2, 60)), int(rng.integers(1, 4)), int(rng.integers(2, 4))
    X = rng.integers(0, 5, size=(n, p)).astype(np.float64)  # ties on purpose
    y = rng.integers(0, k, size=n)
    # split thresholds are midpoints of the integer values: query them too
    grid = rng.choice(np.arange(-1.0, 5.5, 0.5), size=(int(rng.integers(0, 40)), p))
    queries = np.vstack([X, grid])
    tree, got = fit_and_classify(X, y, np.arange(n), queries, k, max_depth, min_leaf)
    assert got.tolist() == oracles.cart_predict(tree.nodes, queries.tolist())
    # held rows leave the tree as it is
    alone = _CartTree(max_depth, min_leaf).fit(*row_cells(X, y, np.arange(n)), k)
    assert node_bits(tree.nodes) == node_bits(alone.nodes)


def differential_column(kind, n, rng):
    """One feature column of ``n`` rows; categoricals come with their
    category count and use only some of their categories."""
    if kind == "signed_zero":
        return rng.choice([-0.0, 0.0, 0.5, -1.0], n), None
    if kind == "distinct":
        return rng.permutation(n) * 0.37 - 5.0, None
    if kind == "integer":
        return rng.integers(-2, 3, n).astype(np.float64), None
    n_categories = int(rng.integers(2, 7))
    used = rng.choice(n_categories, int(rng.integers(1, n_categories + 1)), replace=False)
    return rng.choice(used, n), n_categories


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 200),
    kinds=st.lists(st.sampled_from(["signed_zero", "distinct", "integer", "categorical"]),
                   min_size=1, max_size=3),
    n_classes=st.integers(2, 3),
    rare=st.sampled_from([None, 1, 2, 3, 4]),
    missing=st.sampled_from([0.0, 0.1]),
    folds=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_predictive_capacity_equals_row_path_reference(n, kinds, n_classes, rare, missing,
                                                       folds, seed):
    rng = np.random.default_rng(seed)
    schema, columns, names = [], {}, []
    for i, kind in enumerate(kinds):
        name = f"f{i}"
        values, n_categories = differential_column(kind, n, rng)
        if n_categories is None:
            values[rng.random(n) < missing] = np.nan
            schema.append(ColumnSchema(name, NUMERIC))
        else:
            values[rng.random(n) < missing] = -1
            schema.append(ColumnSchema(name, CATEGORICAL,
                                       tuple(f"c{j}" for j in range(n_categories))))
        columns[name] = values
        names.append(name)
    # the protected column follows the first feature on about half the rows
    first = np.nan_to_num(columns["f0"]).astype(np.int64) % n_classes
    protected = np.where(rng.random(n) < 0.5, first, rng.integers(0, n_classes, n))
    if rare is not None:  # the last class on a few rows: merged folds
        protected[protected == n_classes - 1] = 0
        protected[rng.choice(n, min(rare, n), replace=False)] = n_classes - 1
    protected[rng.random(n) < missing] = -1
    schema.append(ColumnSchema("p", CATEGORICAL, tuple(f"p{j}" for j in range(n_classes))))
    columns["p"] = protected
    d = Dataset(schema, columns)

    try:
        want = oracles.predictive_capacity_reference(d, names, "p", folds=folds, seed=seed)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            predictive_capacity(d, names, "p", folds=folds, seed=seed)
        return
    got = predictive_capacity(d, names, "p", folds=folds, seed=seed)
    fields = ("value", "ci_low", "ci_high", "p_value")
    assert [float(getattr(got, f)).hex() for f in fields] == \
        [float(getattr(want, f)).hex() for f in fields]
    assert (got.support, got.warning) == (want.support, want.warning)


def test_predictive_capacity_drops_incomplete_rows(toy_dataset):
    # rows 4 and 5 are incomplete in sex/school; 4 complete rows remain
    score = predictive_capacity(toy_dataset, ("school_attended",), "sex", folds=2)
    assert score.support == 4


def test_predictive_capacity_rejects_numeric_protected(toy_dataset):
    with pytest.raises(ValidationError):
        predictive_capacity(toy_dataset, ("sex",), "years_since_graduation")


def test_predictive_capacity_rejects_a_proxy_set_holding_the_protected_column(toy_dataset):
    # a column always predicts itself: scored, it reads as full capacity
    with pytest.raises(ValidationError, match="references the protected column 'sex'"):
        predictive_capacity(toy_dataset, ("school_attended", "sex"), "sex", folds=2)
