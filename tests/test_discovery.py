import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldens
import oracles
from proxyaudit import report
from proxyaudit.capacity import exact_correspondence
from proxyaudit.data import CATEGORICAL, NUMERIC, AuditConfig, ColumnSchema, Dataset
from proxyaudit.descriptors import Condition, SubgroupDescriptor
from proxyaudit.discovery import (
    UNVALIDATED,
    VALIDATED,
    DiscoveryResult,
    beam_search,
    enumerate_conditions,
    validate,
)
from proxyaudit.errors import ParameterError, ValidationError
from proxyaudit.synth import preset

# --- enumerate_conditions ----------------------------------------------------


def test_binary_categorical_yields_two_conditions():
    d = Dataset(
        [ColumnSchema("flag", CATEGORICAL, ("no", "yes"))],
        {"flag": np.array([0, 1, 0, 1])},
    )
    conds = enumerate_conditions(d, ["flag"], bins=4)
    assert len(conds) == 2
    assert [c.category for c in conds] == ["no", "yes"]


def test_six_category_column_yields_six_conditions(table2_dataset):
    conds = enumerate_conditions(table2_dataset, ["relationship"], bins=4)
    assert len(conds) == 6
    assert [c.category for c in conds] == list(goldens.RELATIONSHIP_CATS)


def test_numeric_bins_4_yields_ten_conditions():
    rng = np.random.default_rng(0)
    d = Dataset([ColumnSchema("x", NUMERIC)], {"x": rng.normal(size=500)})
    conds = enumerate_conditions(d, ["x"], bins=4)
    # 4 equal-frequency intervals plus a below/at-or-above pair per interior cut
    assert len(conds) == 10
    intervals = [c for c in conds if not math.isinf(c.lo) and not math.isinf(c.hi)]
    half_lines = [c for c in conds if math.isinf(c.lo) or math.isinf(c.hi)]
    assert len(intervals) == 4
    assert len(half_lines) == 6


def test_interval_conditions_partition_complete_rows():
    rng = np.random.default_rng(1)
    x = rng.normal(size=300)
    x[::17] = np.nan
    d = Dataset([ColumnSchema("x", NUMERIC)], {"x": x})
    conds = enumerate_conditions(d, ["x"], bins=4)
    intervals = [c for c in conds if not math.isinf(c.lo) and not math.isinf(c.hi)]
    stacked = np.sum([c.mask(d) for c in intervals], axis=0)
    complete = d.complete_mask(["x"])
    # every non-missing row falls in exactly one interval, including both extremes
    assert np.array_equal(stacked, complete.astype(stacked.dtype))


def test_constant_and_missing_columns_contribute_nothing():
    d = Dataset(
        [ColumnSchema("c", NUMERIC), ColumnSchema("m", NUMERIC)],
        {"c": np.full(10, 3.0), "m": np.full(10, np.nan)},
    )
    assert enumerate_conditions(d, ["c", "m"], bins=4) == []


def test_enumeration_is_deterministic(table2_dataset):
    a = enumerate_conditions(table2_dataset, ["relationship", "sex"], bins=4)
    b = enumerate_conditions(table2_dataset, ["relationship", "sex"], bins=4)
    assert a == b


def test_enumeration_rejects_tiny_bins(toy_dataset):
    with pytest.raises(ParameterError):
        enumerate_conditions(toy_dataset, ["years_since_graduation"], bins=1)


# --- quality -----------------------------------------------------------------


def wife_descriptor():
    return SubgroupDescriptor((Condition.equals("relationship", "Wife"),))


def wife_quality(d, gamma):
    """Quality of relationship=Wife for sex=Female, as a depth-1 beam reports it."""
    config = AuditConfig(protected=("sex",), candidates=("relationship",))
    results = beam_search(d, config, max_depth=1, gamma=gamma, top_k=20)
    (q,) = [
        r.quality for r in results
        if r.proxy == wife_descriptor() and r.protected_target == ("sex", "Female")
    ]
    return q


def test_gamma_zero_is_purity_exactly(table2_dataset):
    q = wife_quality(table2_dataset, gamma=0.0)
    purity = exact_correspondence(
        table2_dataset, wife_descriptor(), ("sex", "Female")
    ).value
    assert q == purity


def test_quality_formula_from_published_counts(table2_dataset):
    # independent arithmetic from the frozen joint counts
    support = 2331
    expected = (support / goldens.ADULT_N) ** 0.25 * (2328 / support)
    q = wife_quality(table2_dataset, gamma=0.25)
    assert q == pytest.approx(expected, abs=1e-12)


# --- beam_search -------------------------------------------------------------


def adult_config():
    return AuditConfig(protected=("sex",), candidates=("relationship",))


def test_adult_depth1_recovers_published_proxies(table2_dataset):
    stats = {}
    results = beam_search(
        table2_dataset, adult_config(), beam_width=10, max_depth=1,
        min_support=30, gamma=0.25, top_k=20, stats_out=stats,
    )
    assert results, "expected findings on the published counts"
    # the rankings follow coverage-weighted purity: Husband/Male dominates
    # globally, Wife/Female is the best finding for the Female target
    top = results[0]
    assert top.proxy.as_text() == 'relationship = "Husband"'
    assert top.protected_target == ("sex", "Male")
    females = [r for r in results if r.protected_target == ("sex", "Female")]
    assert females[0].proxy.as_text() == 'relationship = "Wife"'
    assert females[0].capacity.value == pytest.approx(
        goldens.WIFE_FEMALE_PURITY, abs=1e-12
    )
    assert stats["descriptors_evaluated"] > 0
    assert stats["targets"] == [("sex", "Female"), ("sex", "Male")]


def test_beam_search_is_deterministic(table2_dataset):
    runs = [
        [
            r.to_json()
            for r in beam_search(
                table2_dataset, adult_config(), beam_width=3, max_depth=1,
                min_support=30, gamma=0.25, top_k=5,
            )
        ]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_min_support_floor_excludes_small_groups(table2_dataset):
    results = beam_search(
        table2_dataset, adult_config(), beam_width=10, max_depth=1,
        min_support=2500, gamma=0.25, top_k=20,
    )
    texts = [r.proxy.as_text() for r in results]
    assert 'relationship = "Wife"' not in texts  # 2331 matches < 2500
    assert 'relationship = "Husband"' in texts


def test_unreachable_support_returns_empty_with_counts(table2_dataset):
    stats = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = beam_search(
            table2_dataset, adult_config(), beam_width=10, max_depth=1,
            min_support=10**6, gamma=0.25, top_k=20, stats_out=stats,
        )
    assert results == []
    assert stats["descriptors_evaluated"] == 0
    assert stats["below_support"] > 0


def test_top_k_truncates(table2_dataset):
    results = beam_search(
        table2_dataset, adult_config(), beam_width=10, max_depth=1,
        min_support=30, gamma=0.25, top_k=1,
    )
    assert len(results) == 1


def test_no_proxy_references_protected_columns(table2_dataset):
    results = beam_search(
        table2_dataset, adult_config(), beam_width=10, max_depth=1,
        min_support=30, gamma=0.25, top_k=20,
    )
    for r in results:
        assert "sex" not in r.proxy.columns


def test_parameter_validation(table2_dataset):
    cfg = adult_config()
    for kwargs in (
        {"beam_width": 0}, {"max_depth": 0}, {"top_k": 0},
        {"min_support": 0}, {"gamma": -0.1},
    ):
        with pytest.raises(ParameterError):
            beam_search(table2_dataset, cfg, **kwargs)
    with pytest.raises(ValidationError):
        beam_search(
            table2_dataset,
            AuditConfig(protected=("sex",), candidates=("no_such_column",)),
        )


def planted_conjunction_dataset(n_per_cell=40, seed=5):
    """c1 in {a,b,c} x c2 in {x,y}; s is male exactly on the (a, x) cell,
    fair-coin elsewhere."""
    rng = np.random.default_rng(seed)
    c1, c2, s = [], [], []
    for i in range(3):
        for j in range(2):
            c1.extend([i] * n_per_cell)
            c2.extend([j] * n_per_cell)
            if i == 0 and j == 0:
                s.extend([1] * n_per_cell)
            else:
                s.extend(rng.integers(0, 2, n_per_cell).tolist())
    return Dataset(
        [
            ColumnSchema("c1", CATEGORICAL, ("a", "b", "c")),
            ColumnSchema("c2", CATEGORICAL, ("x", "y")),
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
        ],
        {"c1": np.array(c1), "c2": np.array(c2), "s": np.array(s)},
    )


def manual_quality(d, desc, target, gamma, min_support):
    """Independent route: explicit coverage arithmetic over masks."""
    complete = d.complete_mask(list(desc.columns) + [target[0]])
    support = int(np.count_nonzero(desc.mask(d) & complete))
    if support < min_support:
        return None
    purity = exact_correspondence(d, desc, target).value
    return (support / int(np.count_nonzero(complete))) ** gamma * purity


def exhaustive_depth2_optimum(d, conditions, target, gamma, min_support):
    best_q, best_masks = -math.inf, []
    descriptors = [SubgroupDescriptor((c,)) for c in conditions]
    for i, a in enumerate(conditions):
        for b in conditions[i + 1 :]:
            if a.column != b.column:
                descriptors.append(SubgroupDescriptor((a, b)))
    for desc in descriptors:
        q = manual_quality(d, desc, target, gamma, min_support)
        if q is None:
            continue
        if q > best_q + 1e-15:
            best_q, best_masks = q, [desc.mask(d).tobytes()]
        elif abs(q - best_q) <= 1e-15:
            best_masks.append(desc.mask(d).tobytes())
    return best_q, best_masks


def test_wide_beam_matches_exhaustive_depth2_oracle():
    d = planted_conjunction_dataset()
    config = AuditConfig(protected=("s",), candidates=("c1", "c2"))
    conditions = enumerate_conditions(d, config.candidates, bins=4)
    results = beam_search(
        d, config, beam_width=len(conditions), max_depth=2,
        min_support=30, gamma=0.25, top_k=50,
    )
    per_target_best = {}
    for r in results:
        per_target_best.setdefault(r.protected_target, r)
    for target, r in per_target_best.items():
        oracle_q, oracle_masks = exhaustive_depth2_optimum(
            d, conditions, target, gamma=0.25, min_support=30
        )
        assert r.quality == pytest.approx(oracle_q, abs=1e-12)
        assert r.proxy.mask(d).tobytes() in oracle_masks


def test_narrow_beam_never_beats_exhaustive():
    d = planted_conjunction_dataset(seed=8)
    config = AuditConfig(protected=("s",), candidates=("c1", "c2"))
    conditions = enumerate_conditions(d, config.candidates, bins=4)
    results = beam_search(
        d, config, beam_width=1, max_depth=2, min_support=30, gamma=0.25, top_k=50
    )
    for r in results:
        oracle_q, _ = exhaustive_depth2_optimum(
            d, conditions, r.protected_target, gamma=0.25, min_support=30
        )
        assert r.quality <= oracle_q + 1e-12


def test_planted_conjunction_is_found_with_purity_one():
    d = planted_conjunction_dataset()
    config = AuditConfig(protected=("s",), candidates=("c1", "c2"))
    results = beam_search(
        d, config, beam_width=10, max_depth=2, min_support=30, gamma=0.25, top_k=50
    )
    males = [r for r in results if r.protected_target == ("s", "m")]
    top = males[0]
    planted = SubgroupDescriptor(
        (Condition.equals("c1", "a"), Condition.equals("c2", "x"))
    )
    assert np.array_equal(top.proxy.mask(d), planted.mask(d))
    assert top.capacity.value == 1.0
    assert top.capacity.support == 40


def test_extensionally_equal_descriptors_are_deduplicated():
    # a two-valued numeric column: interval and half-line forms match the
    # same rows and must collapse to one result per distinct row set
    rng = np.random.default_rng(3)
    x = np.repeat([1.0, 2.0], 50)
    s = rng.integers(0, 2, 100)
    d = Dataset(
        [ColumnSchema("x", NUMERIC), ColumnSchema("s", CATEGORICAL, ("f", "m"))],
        {"x": x, "s": s},
    )
    config = AuditConfig(protected=("s",), candidates=("x",))
    results = beam_search(
        d, config, beam_width=10, max_depth=1, min_support=10, gamma=0.25, top_k=50
    )
    for target in {r.protected_target for r in results}:
        masks = [
            r.proxy.mask(d).tobytes() for r in results if r.protected_target == target
        ]
        assert len(masks) == len(set(masks))


# --- counts-first search against the per-child reference -------------------


@st.composite
def search_cases(draw, max_rows=40):
    """Small tables with missing cells, categorical and numeric candidates
    (copies of earlier candidates tie every quality they reach; constant or
    all-missing numerics give no condition, so some searches have none), and
    search parameters, with min_support often at one condition's exact
    support."""
    n = draw(st.integers(4, max_rows))
    schema, columns = [], {}

    def codes(k):
        return np.array(draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n)))

    protected = []
    for j in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, 3))
        schema.append(ColumnSchema(f"p{j}", CATEGORICAL, ("f", "m", "x")[:k]))
        columns[f"p{j}"] = codes(k)
        protected.append(f"p{j}")
    candidates = []
    for j in range(draw(st.integers(1, 4))):
        name = f"c{j}"
        kind = draw(st.sampled_from(["categorical", "numeric", "copy", "constant"]))
        if kind == "constant":
            schema.append(ColumnSchema(name, NUMERIC))
            columns[name] = np.full(n, draw(st.sampled_from([math.nan, 2.0])))
        elif kind == "copy" and candidates:
            source = draw(st.sampled_from(candidates))
            col = next(c for c in schema if c.name == source)
            schema.append(ColumnSchema(name, col.kind, col.categories))
            columns[name] = columns[source]
        elif kind == "numeric":
            cells = st.sampled_from([math.nan, 0.0, 1.0, 2.0, 2.5, 7.0])
            schema.append(ColumnSchema(name, NUMERIC))
            columns[name] = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
        else:
            k = draw(st.integers(1, 3))
            schema.append(ColumnSchema(name, CATEGORICAL, ("a", "b", "c")[:k]))
            columns[name] = codes(k)
        candidates.append(name)
    d = Dataset(schema, columns)
    config = AuditConfig(protected=tuple(protected), candidates=tuple(candidates))
    bins = draw(st.integers(2, 4))
    conditions = enumerate_conditions(d, config.candidates, bins)
    if conditions and draw(st.booleans()):
        cond = draw(st.sampled_from(conditions))
        present = ~d.is_missing(draw(st.sampled_from(protected)))
        boundary = int(np.count_nonzero(cond.mask(d) & present))
        min_support = max(1, boundary + draw(st.sampled_from([0, 1])))
    else:
        min_support = draw(st.integers(1, 6))
    kwargs = {
        "beam_width": draw(st.integers(1, 4)),
        "max_depth": draw(st.integers(1, 3)),
        "min_support": min_support,
        "gamma": draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])),
        "top_k": draw(st.integers(1, 8)),
        "bins": bins,
    }
    return d, config, kwargs


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_counts_first_search_equals_reference(case):
    d, config, kwargs = case
    stats, expected_stats = {}, {}
    results = beam_search(d, config, stats_out=stats, **kwargs)
    expected = oracles.beam_search_reference(d, config, stats_out=expected_stats, **kwargs)
    assert [r.to_json() for r in results] == [r.to_json() for r in expected]
    assert [r.quality.hex() for r in results] == [r.quality.hex() for r in expected]
    assert stats == expected_stats


@st.composite
def row_set_cases(draw):
    """A search case on up to 150 rows, with training and holdout row sets
    of any size (most are not a multiple of 64, so the packed words end in
    padding bits)."""
    d, config, kwargs = draw(search_cases(max_rows=150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def row_set():
        share = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]))
        return np.flatnonzero(rng.random(d.n_rows) < share)

    return d, config, kwargs, row_set(), row_set()


def same_results(got, expected):
    assert [r.to_json() for r in got] == [r.to_json() for r in expected]
    assert [r.quality.hex() for r in got] == [r.quality.hex() for r in expected]


def score_bits(s):
    """A purity score's support and value and the bits of its exact
    statistics (None for no score)."""
    if s is None:
        return None
    return s.support, s.value, s.p_value.hex(), s.ci_low.hex(), s.ci_high.hex()


@settings(max_examples=150, deadline=None)
@given(row_set_cases())
def test_search_on_row_sets_equals_search_on_copies(case):
    d, config, kwargs, train, holdout = case
    part = d.select(train)
    stats, copy_stats, expected_stats = {}, {}, {}
    results = beam_search(d, config, rows=train, stats_out=stats, **kwargs)
    on_copy = beam_search(part, config, stats_out=copy_stats, **kwargs)
    expected = oracles.beam_search_reference(part, config, stats_out=expected_stats, **kwargs)
    same_results(results, on_copy)
    same_results(results, expected)
    assert stats == copy_stats == expected_stats

    # each result's capacity is exact_correspondence on a copy of the
    # training rows, to the bit
    for r in results:
        expected = exact_correspondence(part, r.proxy, r.protected_target)
        assert score_bits(r.capacity) == score_bits(expected)

    # validation on a holdout set, on no rows, and on the rows that the first
    # result does not match (that result comes back unvalidated) equals the
    # copy-based reference validation, to the bit
    holdouts = [holdout, np.empty(0, dtype=np.intp)]
    if results:
        holdouts.append(np.flatnonzero(~results[0].proxy.mask(d)))
    m_tests = max(1, stats["descriptors_evaluated"])
    for rows in holdouts:
        got = validate(results, d, m_tests, rows=rows)
        expected = oracles.validate_reference(results, d.select(rows), m_tests)
        same_results(got, expected)
        assert [score_bits(r.holdout_capacity) for r in got] == [
            score_bits(r.holdout_capacity) for r in expected
        ]
    if results:
        assert got[0].status == UNVALIDATED


@pytest.mark.parametrize(
    "rows",
    [np.ones(1000, dtype=bool), np.array([0.0, 1.0]), np.array([1000]), np.array([-1, 2, 3])],
    ids=["bool-mask", "floats", "past-the-end", "negative"],
)
def test_entry_points_reject_what_is_not_a_row_index_array(rows):
    """A mask, floats or an index outside 0..n_rows-1 is a ParameterError
    naming ``rows`` at every entry point that takes a row set; none of them
    fails inside packing, raises a bare IndexError or wraps an index."""
    d = planted_conjunction_dataset(n_per_cell=1000 // 6 + 1).select(np.arange(1000))
    config = AuditConfig(protected=("s",), candidates=("c1", "c2"))
    results = beam_search(d, config, min_support=1)
    assert results
    calls = [
        lambda: enumerate_conditions(d, config.candidates, rows=rows),
        lambda: beam_search(d, config, min_support=1, rows=rows),
        lambda: validate(results, d, 1, rows=rows),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="rows"):
            call()


@pytest.mark.parametrize("dtype", [np.intp, np.uint8, np.float64, bool])
def test_an_empty_row_set_of_any_dtype_is_no_rows(dtype):
    d = planted_conjunction_dataset()
    config = AuditConfig(protected=("s",), candidates=("c1", "c2"))
    results = beam_search(d, config, min_support=1)
    rows = np.array([], dtype=dtype)
    assert enumerate_conditions(d, config.candidates, rows=rows) == enumerate_conditions(
        d.select(np.array([], dtype=np.intp)), config.candidates
    )
    assert beam_search(d, config, min_support=1, rows=rows) == []
    assert {r.status for r in validate(results, d, 1, rows=rows)} == {UNVALIDATED}


def test_search_without_conditions_reports_nothing():
    """Constant and all-missing candidates give no condition to search."""
    d = Dataset(
        [ColumnSchema("s", CATEGORICAL, ("f", "m")), ColumnSchema("c", NUMERIC),
         ColumnSchema("m", NUMERIC)],
        {"s": np.arange(100) % 2, "c": np.full(100, 3.0), "m": np.full(100, np.nan)},
    )
    config = AuditConfig(protected=("s",), candidates=("c", "m"))
    for rows in (None, np.arange(1, 100, 3)):
        stats = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beam_search(d, config, min_support=1, rows=rows, stats_out=stats) == []
        assert stats == {"descriptors_evaluated": 0, "below_support": 0,
                         "targets": [("s", "f"), ("s", "m")], "conditions": 0}


@settings(max_examples=100, deadline=None)
@given(search_cases(max_rows=150), st.sampled_from([0.2, 0.4, 0.5, 0.9]), st.integers(0, 9))
def test_run_discovery_equals_copy_based_reference(case, fraction, seed):
    d, config, kwargs = case
    kwargs = dict(kwargs, holdout_fraction=fraction, seed=seed)
    got = report.run_discovery(d, config, **kwargs)
    expected = oracles.run_discovery_reference(d, config, **kwargs)
    assert got[0] == expected[0]
    same_results(got[1], expected[1])


def test_run_discovery_equals_reference_on_the_planted_preset():
    scenario = preset("james")
    d = scenario.sample(5000, seed=4)
    config = AuditConfig(
        protected=scenario.roles["protected"], candidates=scenario.roles["candidates"]
    )
    got = report.run_discovery(d, config, seed=3)
    expected = oracles.run_discovery_reference(d, config, seed=3)
    assert got[0]["validated"], "the planted proxy should validate"
    assert got[0] == expected[0]
    same_results(got[1], expected[1])


def test_search_memory_is_condition_masks_plus_beam():
    """The traced peak of a search stays under half of one byte-per-row mask
    per condition plus a few per beam slot: packed masks take a bit a row,
    and a boolean mask per condition alone exceeds the bound."""
    n = 20_000
    rng = np.random.default_rng(11)
    schema = [ColumnSchema("s", CATEGORICAL, ("f", "m"))]
    columns = {"s": rng.integers(-1, 2, n)}
    for j in range(18):
        schema.append(ColumnSchema(f"c{j}", CATEGORICAL, ("a", "b")))
        columns[f"c{j}"] = rng.integers(-1, 2, n)
    for j in range(2):
        x = rng.normal(size=n)
        x[rng.random(n) < 0.02] = np.nan
        schema.append(ColumnSchema(f"x{j}", NUMERIC))
        columns[f"x{j}"] = x
    d = Dataset(schema, columns)
    config = AuditConfig(protected=("s",), candidates=tuple(c.name for c in schema[1:]))
    kwargs = {"beam_width": 10, "max_depth": 2, "min_support": 30, "top_k": 20}
    n_conditions = len(enumerate_conditions(d, config.candidates, bins=4))
    # the first search fills CPython's free lists (freed sort-key tuples stay
    # allocated there), so the traced search counts only what it holds
    beam_search(d, config, **kwargs)
    tracemalloc.start()
    try:
        beam_search(d, config, **kwargs)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (n_conditions + 4 * kwargs["beam_width"] + 8) * n // 2


def test_discovery_reads_row_sets_without_copying_the_table():
    """Split, search and validation hold under 64 bytes a row; copying both
    parts of the split alone takes the table's 77 (13 int8 code columns and 8
    float64 ones)."""
    n = 20_000
    rng = np.random.default_rng(5)
    schema = [ColumnSchema("group", CATEGORICAL, ("a", "b"))]
    columns = {"group": rng.integers(0, 2, n)}
    for j, k in enumerate((4, 5, 3, 4, 5, 6, 3, 2, 4, 6, 3, 5)):
        schema.append(ColumnSchema(f"c{j}", CATEGORICAL, tuple("pqrstu"[:k])))
        columns[f"c{j}"] = rng.integers(-1 if j < 2 else 0, k, n)
    for j in range(8):
        x = rng.normal(size=n)
        x[rng.random(n) < 0.02] = np.nan
        schema.append(ColumnSchema(f"x{j}", NUMERIC))
        columns[f"x{j}"] = x
    d = Dataset(schema, columns)
    config = AuditConfig(protected=("group",), candidates=tuple(c.name for c in schema[1:]))
    report.run_discovery(d, config, seed=1)
    tracemalloc.start()
    try:
        report.run_discovery(d, config, seed=1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * n


# --- validate ----------------------------------------------------------------


def test_planted_proxy_survives_validation():
    from proxyaudit.data import split_holdout

    # a purity-1.0 finding needs >= 72 holdout matches for its exact-binomial
    # lower bound to clear the 0.95 floor; 300 rows per cell leaves plenty
    d = planted_conjunction_dataset(n_per_cell=300, seed=11)
    holdout, train = (d.select(rows) for rows in split_holdout(d, 0.5, seed=11))
    config = AuditConfig(protected=("s",), candidates=("c1", "c2"))
    stats = {}
    results = beam_search(
        train, config, beam_width=10, max_depth=2, min_support=30,
        gamma=0.25, top_k=10, stats_out=stats,
    )
    survivors = validate(results, holdout, m_tests=stats["descriptors_evaluated"])
    validated = [r for r in survivors if r.status == VALIDATED]
    assert validated, "planted proxy should survive holdout validation"
    top = validated[0]
    planted = SubgroupDescriptor(
        (Condition.equals("c1", "a"), Condition.equals("c2", "x"))
    )
    assert np.array_equal(top.proxy.mask(d), planted.mask(d))
    assert top.holdout_capacity.value == 1.0
    assert top.adjusted_p >= top.capacity.p_value
    assert top.adjusted_p < 0.001


def test_m_tests_one_keeps_raw_p(table2_dataset):
    results = beam_search(
        table2_dataset, adult_config(), beam_width=10, max_depth=1,
        min_support=30, gamma=0.25, top_k=3,
    )
    validated = validate(results, table2_dataset, m_tests=1)
    for r in validated:
        if r.status == VALIDATED:
            assert r.adjusted_p == r.capacity.p_value


def test_bonferroni_multiplies_and_caps(table2_dataset):
    results = beam_search(
        table2_dataset, adult_config(), beam_width=10, max_depth=1,
        min_support=30, gamma=0.25, top_k=3,
    )
    m = 50
    validated = validate(results, table2_dataset, m_tests=m)
    for r in validated:
        assert r.adjusted_p == min(1.0, r.capacity.p_value * m)


def test_lucky_noise_finding_is_dropped():
    # purity 1.0 on 5 training rows, coin-flip purity on plentiful holdout rows
    train = Dataset(
        [
            ColumnSchema("c", CATEGORICAL, ("p", "q")),
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
        ],
        {
            "c": np.array([0] * 5 + [1] * 10),
            "s": np.array([1] * 5 + [0, 1] * 5),
        },
    )
    rng = np.random.default_rng(2)
    holdout = Dataset(
        train.schema,
        {"c": np.zeros(200, dtype=np.int64), "s": rng.integers(0, 2, 200)},
    )
    config = AuditConfig(protected=("s",), candidates=("c",))
    results = beam_search(
        train, config, beam_width=5, max_depth=1, min_support=5,
        gamma=0.25, top_k=5,
    )
    lucky = [r for r in results if r.capacity.value == 1.0]
    assert lucky, "the 5-row fluke should appear on training data"
    survivors = validate(lucky, holdout, m_tests=10)
    assert survivors == []


def test_no_holdout_match_marks_unvalidated():
    d = planted_conjunction_dataset()
    config = AuditConfig(protected=("s",), candidates=("c1", "c2"))
    results = beam_search(
        d, config, beam_width=10, max_depth=2, min_support=30, gamma=0.25, top_k=5
    )
    target_result = results[0]
    # a holdout slice from which every matching row has been removed
    mask = target_result.proxy.mask(d)
    empty_holdout = d.select(np.nonzero(~mask)[0])
    out = validate([target_result], empty_holdout, m_tests=3)
    assert len(out) == 1
    assert out[0].status == UNVALIDATED
    assert out[0].holdout_capacity is None
    assert out[0].adjusted_p == min(1.0, target_result.capacity.p_value * 3)


def test_validate_rejects_bad_m_tests(table2_dataset):
    with pytest.raises(ParameterError):
        validate([], table2_dataset, m_tests=0)


# --- DiscoveryResult invariants ----------------------------------------------


def test_result_rejects_adjusted_p_below_raw():
    from proxyaudit.capacity import CapacityScore

    score = CapacityScore(
        proxy=("c",), protected_value=("s", "m"), measure="purity",
        value=0.9, support=100, p_value=0.01, ci_low=0.8, ci_high=0.96,
    )
    with pytest.raises(ValidationError):
        DiscoveryResult(
            proxy=wife_descriptor(),
            protected_target=("s", "m"),
            quality=0.5,
            capacity=score,
            adjusted_p=0.005,
        )


def test_validated_status_requires_holdout_score(table2_dataset):
    score = exact_correspondence(table2_dataset, wife_descriptor(), ("sex", "Female"))
    with pytest.raises(ValidationError):
        DiscoveryResult(
            proxy=wife_descriptor(),
            protected_target=("sex", "Female"),
            quality=0.5,
            capacity=score,
            adjusted_p=score.p_value,
            status=VALIDATED,
        )


def test_result_json_shape(table2_dataset):
    results = beam_search(
        table2_dataset, adult_config(), beam_width=10, max_depth=1,
        min_support=30, gamma=0.25, top_k=1,
    )
    obj = results[0].to_json()
    assert set(obj) >= {
        "proxy", "proxy_text", "protected_target", "quality", "capacity",
        "adjusted_p", "status",
    }
    assert obj["status"] == "candidate"
