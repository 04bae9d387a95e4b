"""Proxy-use measurement tests.

Flip counts are checked against brute-force per-row recomputation; linear
deltas against the closed form w·Δx (property-tested over random specs);
causal propagation against a hand-computed chain and, bit for bit, against
the scalar reference in ``oracles.py`` over random graphs. The
capacity-without-use test is the separation the engine exists to draw: a
perfect proxy the model ignores must show zero use.
"""

import itertools
import json
import tracemalloc

import numpy as np
import oracles
import pytest
import rss
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyaudit.capacity import predictive_capacity
from proxyaudit.data import CATEGORICAL, NUMERIC, ColumnSchema, Dataset
from proxyaudit.descriptors import Condition, SubgroupDescriptor
from proxyaudit.errors import (
    GraphError,
    InsufficientDataError,
    ParameterError,
    ValidationError,
)
from proxyaudit.intervention import (
    MIXED,
    TOWARD_FAVOURABLE,
    TOWARD_UNFAVOURABLE,
    Assignment,
    ICECurve,
    InterventionRecord,
    UseSummary,
    causal_intervention,
    counterfactual_delta,
    flip_analysis,
    ice_curve,
)
from proxyaudit.models import (
    FAVOURABLE,
    UNFAVOURABLE,
    BuiltinModelHandle,
    DecisionRule,
    ModelSpec,
    decide,
)
from proxyaudit.synth import CausalGraphSpec, preset, sample


def linear_handle(coefficients, intercept=0.0, features=None):
    if features is None:
        features = tuple(sorted({c.split("=")[0] for c in coefficients}))
    spec = ModelSpec(
        "linear",
        {"coefficients": dict(coefficients), "intercept": intercept},
        tuple(features),
    )
    return BuiltinModelHandle(spec)


RULE = DecisionRule(threshold=0.5, favourable_direction="score_above")


# --- counterfactual_delta -------------------------------------------------------


def test_zero_coefficient_gives_delta_zero_exactly():
    m = linear_handle({"proxy": 0.0, "other": 2.0})
    rec = counterfactual_delta(
        m, {"proxy": 10.0, "other": 1.0}, [Assignment("proxy", -10.0)]
    )
    assert rec.delta == 0.0
    assert rec.baseline_score == rec.counterfactual_score == 2.0


def test_linear_delta_is_weight_times_change():
    m = linear_handle({"proxy": 3.0}, intercept=7.5)
    rec = counterfactual_delta(m, {"proxy": 2.0}, [Assignment("proxy", 5.0)])
    assert rec.delta == pytest.approx(9.0, abs=1e-12)


def test_resume_style_indicator_penalty():
    # a toy screener that downgrades rows carrying a "women's" token
    m = linear_handle(
        {"contains_womens=true": -1.2, "years": 0.3},
        intercept=1.0,
        features=("contains_womens", "years"),
    )
    row = {"contains_womens": "false", "years": 4.0}
    rec = counterfactual_delta(m, row, [Assignment("contains_womens", "true")])
    assert rec.delta == pytest.approx(-1.2, abs=1e-12)


def test_delta_antisymmetric_under_swap():
    m = linear_handle({"x": 1.7, "y": -0.4})
    base = {"x": 1.0, "y": 2.0}
    cf_assign = [Assignment("x", 3.0), Assignment("y", 0.5)]
    fwd = counterfactual_delta(m, base, cf_assign)
    back = counterfactual_delta(
        m, {"x": 3.0, "y": 0.5},
        [Assignment("x", 1.0), Assignment("y", 2.0)],
    )
    assert fwd.delta == -back.delta


def test_empty_assignments_delta_exactly_zero():
    m = linear_handle({"x": 123.456}, intercept=-9.9)
    rec = counterfactual_delta(m, {"x": 0.123456789}, [])
    assert rec.delta == 0.0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_linear_delta_equals_inner_product_property(data):
    n_feat = data.draw(st.integers(1, 6))
    names = [f"f{i}" for i in range(n_feat)]
    finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
    weights = {n: data.draw(finite) for n in names}
    base = {n: data.draw(finite) for n in names}
    shift = {n: data.draw(finite) for n in names}
    m = linear_handle(weights, intercept=data.draw(finite), features=names)
    rec = counterfactual_delta(
        m, base, [Assignment(n, shift[n]) for n in names]
    )
    expected = sum(weights[n] * (shift[n] - base[n]) for n in names)
    assert rec.delta == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_rule_produces_outcomes_and_flip():
    m = linear_handle({"x": 1.0})
    rec = counterfactual_delta(
        m, {"x": 1.0}, [Assignment("x", 0.0)], rule=RULE, row_index=7
    )
    assert rec.row_index == 7
    assert rec.baseline_outcome == FAVOURABLE
    assert rec.counterfactual_outcome == UNFAVOURABLE
    assert rec.flipped


def test_without_rule_outcomes_are_none():
    m = linear_handle({"x": 1.0})
    rec = counterfactual_delta(m, {"x": 1.0}, [Assignment("x", 0.0)])
    assert rec.baseline_outcome is None
    assert rec.counterfactual_outcome is None
    assert not rec.flipped


def test_assignment_outside_model_features_rejected():
    m = linear_handle({"x": 1.0})
    with pytest.raises(ValidationError, match="does not read"):
        counterfactual_delta(m, {"x": 1.0}, [Assignment("ghost", 1.0)])


@pytest.mark.parametrize(
    "row, value, message",
    [
        ({"x": None}, 1.0, "row 7 (observed): missing value for feature 'x'"),
        ({"x": 1.0}, None, "row 7 (counterfactual): missing value for feature 'x'"),
    ],
)
def test_row_error_names_the_dataset_row_once(row, value, message):
    m = linear_handle({"x": 1.0})
    with pytest.raises(ValidationError) as exc:
        counterfactual_delta(m, row, [Assignment("x", value)], row_index=7)
    assert str(exc.value) == message


def test_bool_is_not_a_number_for_a_numeric_feature():
    # scoring and flip analysis share one test: a bool is no real
    m = linear_handle({"x": 2.0})
    with pytest.raises(ValidationError, match="numeric value"):
        counterfactual_delta(m, {"x": 1.0}, [Assignment("x", True)])
    d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.array([1.0, 2.0])})
    with pytest.raises(ValidationError, match="numeric column needs a real"):
        flip_analysis(m, RULE, d, [Assignment("x", True)])


@pytest.mark.parametrize(
    "condition, message",
    [
        # dataset row 0 is not selected; row 1's observed row fails first
        (Condition.interval("x", lo=2.0),
         "row 1 (observed): feature 'sex' needs a numeric value, got 'male'"),
        # row 0's observed row goes left; its counterfactual goes right
        (Condition.interval("x", hi=4.0),
         "row 0 (counterfactual): feature 'sex' needs a numeric value, got 'female'"),
    ],
    ids=["observed", "counterfactual"],
)
def test_flip_row_error_names_the_dataset_row_once(condition, message):
    schema = [ColumnSchema("sex", CATEGORICAL, ("female", "male")), ColumnSchema("x", NUMERIC)]
    d = Dataset(schema, {"sex": np.array([0, 1, 1, 0, 1]), "x": np.array([1.0, 5.0, 2.0, 7.0, 3.0])})
    # x < 4 is a leaf; the other side reads the categorical sex as a number
    m = BuiltinModelHandle(ModelSpec(
        "decision_tree",
        {"root": 0, "nodes": [
            {"id": 0, "kind": "split", "column": "x", "threshold": 4.0, "left": 1, "right": 2},
            {"id": 1, "kind": "leaf", "value": 0.0},
            {"id": 2, "kind": "split", "column": "sex", "threshold": 0.5, "left": 3, "right": 4},
            {"id": 3, "kind": "leaf", "value": 1.0},
            {"id": 4, "kind": "leaf", "value": 2.0},
        ]},
        ("x", "sex"),
    ))
    with pytest.raises(ValidationError) as exc:
        flip_analysis(m, RULE, d, [Assignment("x", 6.0)], SubgroupDescriptor((condition,)))
    assert str(exc.value) == message


def test_record_invariants_enforced():
    with pytest.raises(ValidationError, match="delta"):
        InterventionRecord(0, 1.0, 2.0, 5.0)
    with pytest.raises(ValidationError, match="flipped"):
        InterventionRecord(
            0, 1.0, 2.0, 1.0,
            baseline_outcome=FAVOURABLE,
            counterfactual_outcome=FAVOURABLE,
            flipped=True,
        )


# --- flip_analysis --------------------------------------------------------------


def straddle_dataset():
    """20 rows around the 0.5 threshold; score = 0.1*x + penalty*flag."""
    schema = [
        ColumnSchema("x", NUMERIC),
        ColumnSchema("flag", CATEGORICAL, ("no", "yes")),
        ColumnSchema("grp", CATEGORICAL, ("a", "b")),
    ]
    x = np.array([
        1.0, 2.0, 3.0, 4.0, 4.9, 5.1, 5.5, 6.0, 6.5, 7.0,
        7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 5.2, 5.05, 4.5, 0.5,
    ])
    flag = np.zeros(20, dtype=np.int64)  # all start at "no"
    grp = np.array([0, 1] * 10, dtype=np.int64)
    return Dataset(schema, {"x": x, "flag": flag, "grp": grp})


def straddle_model():
    return linear_handle(
        {"x": 0.1, "flag=yes": -0.2}, features=("x", "flag")
    )


def test_flip_count_matches_brute_force():
    d = straddle_dataset()
    m = straddle_model()
    assignments = [Assignment("flag", "yes")]
    summary, records = flip_analysis(m, RULE, d, assignments)
    # oracle: recompute every row by hand
    expected_flips = 0
    for i in range(d.n_rows):
        base = 0.1 * d.cell(i, "x")
        cf = base - 0.2
        if decide(RULE, base) != decide(RULE, cf):
            expected_flips += 1
    assert expected_flips > 0  # fixture must actually straddle
    assert summary.flip_count == expected_flips
    assert summary.n == d.n_rows
    assert summary.flip_rate == expected_flips / d.n_rows
    assert summary.direction_of_harm == TOWARD_UNFAVOURABLE
    assert summary.mean_delta == pytest.approx(-0.2, abs=1e-12)
    assert summary.mean_abs_delta == pytest.approx(0.2, abs=1e-12)
    flipped_rows = [r for r in records if r.flipped]
    assert len(flipped_rows) == expected_flips
    assert all(r.counterfactual_outcome == UNFAVOURABLE for r in flipped_rows)


def test_model_ignoring_proxy_shows_zero_use():
    d = straddle_dataset()
    m = linear_handle({"x": 0.1, "flag=yes": 0.0}, features=("x", "flag"))
    summary, records = flip_analysis(m, RULE, d, [Assignment("flag", "yes")])
    assert summary.flip_count == 0
    assert summary.mean_abs_delta == 0.0
    assert summary.direction_of_harm == MIXED  # no flips: no direction
    assert not summary.significant_influence_flag
    assert all(r.delta == 0.0 for r in records)


def test_selector_restricts_rows_and_counts():
    d = straddle_dataset()
    m = straddle_model()
    sel = SubgroupDescriptor((Condition.equals("grp", "a"),))
    summary, records = flip_analysis(m, RULE, d, [Assignment("flag", "yes")], sel)
    assert summary.n == 10
    assert {r.row_index for r in records} == set(range(0, 20, 2))


def test_reverse_assignment_covers_all_selected():
    d = straddle_dataset()
    m = straddle_model()
    summary, _ = flip_analysis(m, RULE, d, [Assignment("flag", "no")])
    assert summary.n == d.n_rows  # flag already "no": deltas all zero
    assert summary.mean_abs_delta == 0.0


def test_favourable_direction_flip():
    d = straddle_dataset()
    m = straddle_model()
    # rows start at "no"; removing the penalty is modeled by assigning a
    # bonus category on a model where "yes" raises the score
    m_up = linear_handle({"x": 0.1, "flag=yes": 0.2}, features=("x", "flag"))
    summary, _ = flip_analysis(m_up, RULE, d, [Assignment("flag", "yes")])
    assert summary.direction_of_harm == TOWARD_FAVOURABLE
    assert summary.flip_count > 0
    del m


def test_empty_selection_raises():
    d = straddle_dataset()
    m = straddle_model()
    sel = SubgroupDescriptor(
        (Condition.interval("x", lo=1000.0, hi=2000.0),)
    )
    with pytest.raises(InsufficientDataError):
        flip_analysis(m, RULE, d, [Assignment("flag", "yes")], sel)


def test_significance_flag_floors():
    d = straddle_dataset()
    m = straddle_model()
    assignments = [Assignment("flag", "yes")]
    # generous floors: not significant
    s_high, _ = flip_analysis(
        m, RULE, d, assignments,
        flip_rate_floor=0.99, score_floor_fraction=10_000.0,
    )
    assert not s_high.significant_influence_flag
    # default floors: the 0.2 shift dwarfs 5% of the baseline IQR
    s_default, _ = flip_analysis(m, RULE, d, assignments)
    assert s_default.significant_influence_flag


def test_incomplete_feature_rows_are_dropped():
    schema = [ColumnSchema("x", NUMERIC), ColumnSchema("flag", CATEGORICAL, ("no", "yes"))]
    x = np.array([1.0, np.nan, 6.0, 7.0])
    flag = np.array([0, 0, -1, 0], dtype=np.int64)
    d = Dataset(schema, {"x": x, "flag": flag})
    m = straddle_model()
    summary, records = flip_analysis(m, RULE, d, [Assignment("flag", "yes")])
    assert summary.n == 2
    assert {r.row_index for r in records} == {0, 3}


def test_bad_assignment_values_rejected():
    d = straddle_dataset()
    m = straddle_model()
    with pytest.raises(ValidationError, match="unknown category"):
        flip_analysis(m, RULE, d, [Assignment("flag", "maybe")])
    with pytest.raises(ValidationError, match="real"):
        flip_analysis(m, RULE, d, [Assignment("x", "tall")])
    with pytest.raises(ParameterError):
        flip_analysis(m, RULE, d, [])


def test_summary_invariants_enforced():
    with pytest.raises(ValidationError, match="flip_rate"):
        UseSummary((), 10, 0.0, 0.0, 3, 0.5, MIXED, False)
    with pytest.raises(ValidationError, match="direction"):
        UseSummary((), 10, 0.0, 0.0, 0, 0.0, "sideways", False)


def test_batching_preserves_order_on_large_selection():
    # more rows than one 500-pair batch to cross the chunk boundary
    n = 1203
    rng = np.random.default_rng(0)
    schema = [ColumnSchema("x", NUMERIC), ColumnSchema("flag", CATEGORICAL, ("no", "yes"))]
    d = Dataset(
        schema,
        {"x": rng.uniform(0, 10, n), "flag": np.zeros(n, dtype=np.int64)},
    )
    m = straddle_model()
    summary, records = flip_analysis(m, RULE, d, [Assignment("flag", "yes")])
    assert summary.n == n
    assert [r.row_index for r in records] == list(range(n))
    x = d.column_array("x")
    for r in records[::97]:
        assert r.baseline_score == pytest.approx(0.1 * x[r.row_index], abs=1e-12)
        assert r.delta == pytest.approx(-0.2, abs=1e-12)


def _traced_peak(fn):
    """Peak bytes ``fn()`` allocates, measured on its second call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "coefficients, limit",
    [
        # one categorical feature, assigned: the rows are numbered by its codes
        ({"c=b": 1.0}, 3.5),
        # and a numeric feature left free, whose 40 values repeat
        ({"c=b": 1.0, "x": 0.25}, 4.5),
    ],
)
def test_flip_numbers_rows_without_an_interleaved_copy(coefficients, limit):
    """A flip holds ``limit`` arrays of a number per selected row at most;
    one that repeats each feature column into 2n interleaved rows holds 7.6
    and 9.6, and one that keeps row indices, two scores a row and a sorted
    copy of its keys holds 4.3 and 5.1."""
    n = 100_000
    rng = np.random.default_rng(3)
    d = Dataset(
        [ColumnSchema("c", CATEGORICAL, ("a", "b", "c")), ColumnSchema("x", NUMERIC)],
        {"c": rng.integers(0, 3, n), "x": rng.integers(0, 40, n) / 4.0},
    )
    m = linear_handle(coefficients)
    peak = _traced_peak(lambda: flip_analysis(m, RULE, d, [Assignment("c", "b")]))
    assert peak < limit * 8 * n


_FLIP_RSS = """
import json, sys
import numpy as np
from proxyaudit.data import CATEGORICAL, NUMERIC, ColumnSchema, Dataset
from proxyaudit.intervention import Assignment, flip_analysis
from proxyaudit.models import BuiltinModelHandle, DecisionRule, ModelSpec

coefficients = json.loads(sys.argv[1])
m = BuiltinModelHandle(ModelSpec("linear", {"coefficients": coefficients, "intercept": 0.0},
                                 tuple(sorted({c.split("=")[0] for c in coefficients}))))
rule = DecisionRule(0.5, "score_above")

def inputs(n):
    rng = np.random.default_rng(3)
    return Dataset([ColumnSchema("c", CATEGORICAL, ("a", "b", "c")), ColumnSchema("x", NUMERIC)],
                   {"c": rng.integers(0, 3, n, dtype=np.int8), "x": rng.integers(0, 40, n) / 4.0})

def call(d):
    flip_analysis(m, rule, d, [Assignment("c", "b")])
"""


@rss.linux_only
@pytest.mark.parametrize(
    "coefficients, limit",
    [
        # one categorical feature, assigned: the rows are numbered by its codes
        ({"c=b": 1.0}, 24),
        # and a numeric feature left free, whose 40 values repeat
        ({"c=b": 1.0, "x": 0.25}, 32),
    ],
)
def test_flip_rss_growth_counts_sort_buffers(coefficients, limit):
    """A flip on 1M rows grows the resident set by ``limit`` bytes a row at
    most, numpy's sort buffers included (``rss.growth_per_row``). On x86-64
    Linux with numpy 2.4 this numbering grows it by about 19 and 26 bytes a
    row, and one that lexsorts 2n interleaved rows by 52 and 66."""
    assert rss.growth_per_row(_FLIP_RSS, json.dumps(coefficients)) < limit


@pytest.mark.parametrize(
    "selector",
    [None, SubgroupDescriptor((Condition.interval("x", lo=3.0),))],
)
def test_compact_flip_records_equal_the_per_row_records(selector):
    """``flip_analysis`` returns one number a record (the selection mask,
    each distinct baseline row's scores and each record's row); every index,
    negative ones too, and every slice gives the records of the per-row form
    that the every-row reference builds for the same flip."""
    n = 300
    rng = np.random.default_rng(8)
    x = rng.integers(0, 20, n) / 2.0
    x[rng.random(n) < 0.1] = np.nan  # an incomplete row is never selected
    d = Dataset(
        [ColumnSchema("c", CATEGORICAL, ("a", "b", "c")), ColumnSchema("x", NUMERIC)],
        {"c": rng.integers(0, 3, n), "x": x},
    )
    m = linear_handle({"c=b": 0.6, "x": 0.05})
    assignments = [Assignment("c", "b")]
    _summary, got = flip_analysis(m, RULE, d, assignments, selector)
    _summary, want = oracles.flip_analysis_reference(m, RULE, d, assignments, selector)
    assert 0 < len(got) == len(want) < n
    for k in range(-len(want), len(want)):
        assert got[k] == want[k]
    for k in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[k]
    for part in (slice(None), slice(None, None, -1), slice(5, -7, 3), slice(-40, None),
                 slice(len(want), None), slice(None, 0)):
        assert got[part] == want[part]
    assert list(got) == list(want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_flip_renumbers_keys_too_wide_for_int64(seed, n_assigned):
    # 8 features of 300 distinct values: 300**8 possible rows, more than an
    # int64 key could number, which the lexsort of the features' own keys
    # never has to
    rng = np.random.default_rng(seed)
    names = [f"f{j}" for j in range(8)]
    n = 300
    columns = {name: rng.permutation(n) * 0.5 - 20.0 for name in names}
    columns["f0"][:10] = -0.0  # repeats, and -0.0 against an assigned 0.0
    d = Dataset([ColumnSchema(name, NUMERIC) for name in names], columns)
    m = linear_handle({name: float(rng.normal()) for name in names})
    targets = rng.choice(names, n_assigned, replace=False)
    assignments = [Assignment(str(f), float(rng.choice(columns[f]))) for f in targets]
    assignments.append(Assignment("f0", 0.0))
    got_summary, got = flip_analysis(m, RULE, d, assignments)
    want_summary, want = oracles.flip_analysis_reference(m, RULE, d, assignments)
    assert repr(got_summary) == repr(want_summary)
    for field in ("row_index", "baseline_score", "counterfactual_score"):
        assert [getattr(r, field) for r in got] == [getattr(r, field) for r in want]


# --- ice_curve ------------------------------------------------------------------


def test_linear_ice_curve_is_affine():
    m = linear_handle({"x": 2.5, "y": -1.0})
    curve = ice_curve(
        m, {"x": 0.0, "y": 3.0}, "x", grid_size=11, value_range=(-5.0, 5.0)
    )
    grid = np.array(curve.grid)
    scores = np.array(curve.scores)
    slope, intercept = np.polyfit(grid, scores, 1)
    assert np.max(np.abs(scores - (slope * grid + intercept))) < 1e-9
    assert slope == pytest.approx(2.5, abs=1e-9)


def test_constant_model_gives_flat_curve():
    m = linear_handle({"x": 0.0}, intercept=4.2)
    curve = ice_curve(m, {"x": 1.0}, "x", grid_size=5, value_range=(0.0, 1.0))
    assert set(curve.scores) == {4.2}


def test_tree_ice_curve_steps_at_split():
    spec = ModelSpec(
        "decision_tree",
        {
            "root": 0,
            "nodes": [
                {"id": 0, "kind": "split", "column": "x", "threshold": 5.0,
                 "left": 1, "right": 2},
                {"id": 1, "kind": "leaf", "value": 0.2},
                {"id": 2, "kind": "split", "column": "x", "threshold": 8.0,
                 "left": 3, "right": 4},
                {"id": 3, "kind": "leaf", "value": 0.7},
                {"id": 4, "kind": "leaf", "value": 0.9},
            ],
        },
        ("x",),
    )
    m = BuiltinModelHandle(spec)
    curve = ice_curve(m, {"x": 0.0}, "x", grid_size=101, value_range=(0.0, 10.0))
    for g, s in zip(curve.grid, curve.scores):
        if g < 5.0:
            assert s == 0.2
        elif g < 8.0:
            assert s == 0.7
        else:
            assert s == 0.9
    # exactly two jumps
    jumps = sum(
        1 for a, b in zip(curve.scores, curve.scores[1:]) if a != b
    )
    assert jumps == 2


def test_categorical_ice_reproduces_baseline_at_own_value():
    m = linear_handle(
        {"flag=yes": -0.2, "x": 0.1}, intercept=1.0, features=("flag", "x")
    )
    row = {"flag": "no", "x": 3.0}
    baseline = m.predict_batch([row])[0]
    curve = ice_curve(m, row, "flag", categories=("no", "yes"))
    assert curve.grid == ("no", "yes")
    assert curve.scores[0] == baseline
    assert curve.scores[1] == pytest.approx(baseline - 0.2, abs=1e-12)


def test_categorical_grid_from_dataset_schema_order():
    d = straddle_dataset()
    m = straddle_model()
    curve = ice_curve(m, d.record(0), "flag", dataset=d)
    assert curve.grid == ("no", "yes")


def test_numeric_range_from_dataset():
    d = straddle_dataset()
    m = straddle_model()
    curve = ice_curve(m, d.record(0), "x", grid_size=3, dataset=d)
    assert curve.grid[0] == 0.5
    assert curve.grid[-1] == 10.0


@pytest.mark.parametrize("value", [np.nan, 1.5])
def test_ice_without_an_observed_span_is_insufficient_data(value):
    d = straddle_dataset()
    d = Dataset(d.schema, {
        "x": np.full(20, value), "flag": d.codes("flag"), "grp": d.codes("grp"),
    })
    with pytest.raises(InsufficientDataError, match="fewer than 2 distinct"):
        ice_curve(straddle_model(), {"x": 1.0, "flag": "no"}, "x", dataset=d)


def test_ice_parameter_errors():
    m = straddle_model()
    row = {"x": 1.0, "flag": "no"}
    with pytest.raises(ParameterError, match="at least 2"):
        ice_curve(m, row, "x", grid_size=1, value_range=(0.0, 1.0))
    with pytest.raises(ParameterError, match="value_range or a dataset"):
        ice_curve(m, row, "x")
    with pytest.raises(ParameterError, match="degenerate"):
        ice_curve(m, row, "x", value_range=(2.0, 2.0))
    with pytest.raises(ValidationError, match="does not read"):
        ice_curve(m, row, "ghost", value_range=(0.0, 1.0))


def test_ice_curve_invariants():
    with pytest.raises(ValidationError, match="length"):
        ICECurve(0, "x", (1.0, 2.0), (0.5,))
    with pytest.raises(ValidationError, match="increasing"):
        ICECurve(0, "x", (2.0, 1.0), (0.5, 0.6))


# --- causal_intervention --------------------------------------------------------


def chain_graph():
    """major -> experience with slope 2; noise kept via residuals."""
    return CausalGraphSpec(
        nodes=(("major", NUMERIC), ("experience", NUMERIC)),
        edges=(("major", "experience"),),
        mechanisms={
            "major": {
                "kind": "linear_gaussian", "parents": [],
                "weights": {}, "intercept": 0.0, "noise_sd": 1.0,
            },
            "experience": {
                "kind": "linear_gaussian", "parents": ["major"],
                "weights": {"major": 2.0}, "intercept": 0.0, "noise_sd": 1.0,
            },
        },
    )


def test_chain_propagation_hand_computed():
    g = chain_graph()
    m = linear_handle({"experience": 0.5}, features=("experience",))
    row = {"major": 3.0, "experience": 7.0}  # residual = 7 - 2*3 = 1
    rec = causal_intervention(g, m, row, [Assignment("major", 4.0)])
    # new experience = 2*4 + 1 = 9; delta = 0.5 * (9 - 7) = 1.0
    assert rec.delta == pytest.approx(1.0, abs=1e-9)


def test_sink_node_intervention_equals_counterfactual_delta():
    g = chain_graph()
    m = linear_handle({"experience": 0.5}, features=("experience",))
    row = {"major": 3.0, "experience": 7.0}
    causal = causal_intervention(g, m, row, [Assignment("experience", 2.0)])
    direct = counterfactual_delta(m, row, [Assignment("experience", 2.0)])
    assert causal.baseline_score == direct.baseline_score
    assert causal.counterfactual_score == direct.counterfactual_score
    assert causal.delta == direct.delta


@pytest.mark.parametrize(
    "age, which",
    [(62.0, "observed"), (55.0, "counterfactual")],
)
def test_causal_row_error_names_the_dataset_row_once(age, which):
    # the tree reads the categorical "sex" as a number past age 60, so only a
    # row that reaches that split fails
    m = BuiltinModelHandle(ModelSpec(
        "decision_tree",
        {"root": 0, "nodes": [
            {"id": 0, "kind": "split", "column": "age", "threshold": 60.0, "left": 1, "right": 2},
            {"id": 1, "kind": "leaf", "value": 0.0},
            {"id": 2, "kind": "split", "column": "sex", "threshold": 0.5, "left": 3, "right": 4},
            {"id": 3, "kind": "leaf", "value": 0.0},
            {"id": 4, "kind": "leaf", "value": 1.0},
        ]},
        ("age", "sex"),
    ))
    row = {"sex": "male", "age": age, "reached_statutory_retirement": "false"}
    with pytest.raises(ValidationError) as exc:
        causal_intervention(preset("james").graph, m, row, [Assignment("age", 70.0)], row_index=4)
    assert str(exc.value) == f"row 4 ({which}): feature 'sex' needs a numeric value, got 'male'"


def test_unread_node_without_read_descendants_gives_zero_delta():
    g = CausalGraphSpec(
        nodes=(("a", NUMERIC), ("b", NUMERIC)),
        edges=(),
        mechanisms={
            "a": {"kind": "linear_gaussian", "parents": [], "weights": {},
                  "intercept": 0.0, "noise_sd": 1.0},
            "b": {"kind": "linear_gaussian", "parents": [], "weights": {},
                  "intercept": 0.0, "noise_sd": 1.0},
        },
    )
    m = linear_handle({"b": 3.0}, features=("b",))
    rec = causal_intervention(
        g, m, {"a": 1.0, "b": 2.0}, [Assignment("a", 99.0)]
    )
    assert rec.delta == 0.0


def test_threshold_descendants_recompute_deterministically():
    g = preset("james").graph
    m = linear_handle(
        {"reached_statutory_retirement=true": 1.0},
        features=("reached_statutory_retirement",),
    )
    row = {"sex": "male", "age": 63.0, "reached_statutory_retirement": "false"}
    # do(age := 70) pushes a 63-year-old man past his cutoff
    rec = causal_intervention(g, m, row, [Assignment("age", 70.0)])
    assert rec.delta == 1.0
    # do(sex := female) flips the cutoff from 65 to 60, so 63 counts as past
    rec2 = causal_intervention(g, m, row, [Assignment("sex", "female")])
    assert rec2.delta == 1.0
    # the same change for a 58-year-old moves nothing
    row_young = {"sex": "male", "age": 58.0, "reached_statutory_retirement": "false"}
    rec3 = causal_intervention(g, m, row_young, [Assignment("sex", "female")])
    assert rec3.delta == 0.0


def test_unchanged_parents_keep_observed_value():
    # intervening on a parent while re-assigning it its observed value
    # leaves stochastic descendants untouched (no re-draw)
    g = preset("descendant").graph
    m = linear_handle({"P=p1": 1.0}, features=("P",))
    row = {"U": "u0", "A": "a0", "P": "p1"}
    rec = causal_intervention(g, m, row, [Assignment("A", "a0")], seed=5)
    assert rec.delta == 0.0


def test_stochastic_descendants_redraw_with_fixed_seed():
    g = preset("descendant").graph
    m = linear_handle({"P=p1": 1.0}, features=("P",))
    row = {"U": "u0", "A": "a0", "P": "p0"}
    recs = [
        causal_intervention(g, m, row, [Assignment("A", "a1")], seed=11)
        for _ in range(3)
    ]
    assert len({r.counterfactual_score for r in recs}) == 1  # seed-fixed
    # across many seeds the re-drawn P tracks its CPT: P(p1|a1) = 0.9
    hits = sum(
        causal_intervention(
            g, m, row, [Assignment("A", "a1")], seed=s
        ).counterfactual_score
        for s in range(400)
    )
    assert 0.9 * 400 - 3 * np.sqrt(400 * 0.09) <= hits <= 0.9 * 400 + 3 * np.sqrt(400 * 0.09)


def test_graph_errors():
    g = chain_graph()
    m = linear_handle({"experience": 0.5}, features=("experience",))
    row = {"major": 3.0, "experience": 7.0}
    with pytest.raises(GraphError, match="non-node"):
        causal_intervention(g, m, row, [Assignment("ghost", 1.0)])
    m_outside = linear_handle({"salary": 1.0}, features=("salary",))
    with pytest.raises(GraphError, match="does not cover"):
        causal_intervention(g, m_outside, row, [Assignment("major", 1.0)])
    with pytest.raises(ValidationError, match="lacks values"):
        causal_intervention(g, m, {"major": 3.0}, [Assignment("major", 1.0)])
    with pytest.raises(ValidationError, match="unknown category"):
        causal_intervention(
            preset("james").graph,
            linear_handle(
                {"reached_statutory_retirement=true": 1.0},
                features=("reached_statutory_retirement",),
            ),
            {"sex": "male", "age": 63.0, "reached_statutory_retirement": "false"},
            [Assignment("sex", "unknown")],
        )


@st.composite
def causal_cases(draw):
    """A random 2-5 node graph mixing all four mechanism kinds, a linear model
    reading every node, an observed row sampled from the graph, and
    assignments to any of its nodes (roots, middle nodes, sinks)."""
    nodes, edges, mechanisms, categories = [], [], {}, {}
    weights = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 3.0])

    def some_of(names):
        # the latest eligible node is always a parent, so chains are common
        more = draw(st.lists(st.sampled_from(names[:-1]), max_size=1)) if names[:-1] else []
        return list(draw(st.permutations(more + [names[-1]])))

    def table(parents, width):
        out = {}
        for combo in itertools.product(*(categories[p] for p in parents)):
            mass = draw(st.lists(st.integers(0, 4), min_size=width, max_size=width))
            mass[draw(st.integers(0, width - 1))] += 1
            out["|".join(combo)] = [w / sum(mass) for w in mass]
        return out

    for i in range(draw(st.integers(2, 5))):
        name = f"n{i}"
        cats = [n for n, k in nodes if k == CATEGORICAL]
        nums = [n for n, k in nodes if k == NUMERIC]
        kinds = ["cpt", "cpt", "discrete_numeric", "linear_gaussian"]
        if cats and nums:
            kinds += ["threshold"] * 3
        kind = draw(st.sampled_from(kinds))
        if kind in ("cpt", "discrete_numeric"):
            parents = some_of(cats) if cats else []
            width = draw(st.integers(2, 3))
            mech = {"kind": kind, "parents": parents, "table": table(parents, width)}
            if kind == "cpt":
                categories[name] = [f"{name}_{j}" for j in range(width)]
                mech["categories"] = categories[name]
            else:
                mech["values"] = sorted(
                    draw(st.sets(st.integers(-5, 5), min_size=width, max_size=width))
                )
        elif kind == "linear_gaussian":
            parents = some_of(nums) if nums else []
            mech = {
                "kind": kind, "parents": parents,
                "weights": {p: draw(weights) for p in parents},
                "intercept": draw(st.sampled_from([0.0, 1.0, -2.5])),
                "noise_sd": draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            }
        else:
            source, by = draw(st.sampled_from(nums)), draw(st.sampled_from(cats))
            parents = draw(st.permutations([source, by]))
            mech = {
                "kind": kind, "parents": list(parents), "source": source, "by": by,
                "cutoffs": {
                    c: draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0])) for c in categories[by]
                },
            }
            categories[name] = ["false", "true"]
        nodes.append((name, CATEGORICAL if name in categories else NUMERIC))
        edges += [(p, name) for p in mech["parents"]]
        mechanisms[name] = mech
    g = CausalGraphSpec(nodes=nodes, edges=edges, mechanisms=mechanisms)

    row = sample(g, 3, draw(st.integers(0, 50))).record(draw(st.integers(0, 2)))
    # nodes with children are drawn more often: they start propagation
    parents = [p for p, _c in g.edges]
    pool = st.sampled_from(list(g.node_names) + parents)
    targets = draw(st.lists(pool, unique=True, min_size=1, max_size=2))
    assignments = [
        Assignment(t, draw(st.sampled_from(categories[t])) if t in categories
                   else draw(st.sampled_from([-3.0, -0.5, 0.0, 1.0, 2.5, 4.0])))
        for t in targets
    ]
    coefficients = {}
    for n, k in nodes:
        if k == NUMERIC:
            coefficients[n] = draw(weights)
        else:
            coefficients.update({f"{n}={c}": draw(weights) for c in categories[n]})
    m = linear_handle(coefficients, features=g.node_names)
    return g, m, row, assignments, draw(st.integers(0, 50))


@settings(max_examples=400, deadline=None)
@given(causal_cases())
def test_causal_intervention_equals_scalar_reference(case):
    g, m, row, assignments, seed = case
    got = causal_intervention(g, m, row, assignments, seed=seed, rule=RULE)
    want = oracles.causal_intervention_reference(
        g, m, row, assignments, seed=seed, rule=RULE
    )
    assert got.to_json() == want.to_json()
    assert got.baseline_score.hex() == want.baseline_score.hex()
    assert got.counterfactual_score.hex() == want.counterfactual_score.hex()


class _TopUniform:
    """Stands in for a generator whose every uniform is 0.9999999999."""

    def random(self, size=None):
        return 0.9999999999 if size is None else np.full(size, 0.9999999999)


def test_redraw_guards_the_last_table_edge(monkeypatch):
    # [0.5, 0.4999999995] passes the 1e-9 sum check, but its cumulative
    # sum ends below a uniform of 0.9999999999
    g = CausalGraphSpec(
        nodes=(("A", CATEGORICAL), ("B", CATEGORICAL)),
        edges=(("A", "B"),),
        mechanisms={
            "A": {"kind": "cpt", "parents": [], "categories": ["a0", "a1"],
                  "table": {"": [0.5, 0.5]}},
            "B": {"kind": "cpt", "parents": ["A"], "categories": ["b0", "b1"],
                  "table": {"a0": [1.0, 0.0], "a1": [0.5, 0.4999999995]}},
        },
    )
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _TopUniform())
    m = linear_handle({"B=b1": 1.0}, features=("B",))
    rec = causal_intervention(g, m, {"A": "a0", "B": "b0"}, [Assignment("A", "a1")])
    assert rec.counterfactual_score == 1.0  # the last category, b1


JAMES_ROW = {"sex": "male", "age": 63.0, "reached_statutory_retirement": "false"}


@pytest.mark.parametrize("value", ["seventy", True])
def test_causal_assignment_to_numeric_node_needs_a_real(value):
    m = linear_handle(
        {"reached_statutory_retirement=true": 1.0},
        features=("reached_statutory_retirement",),
    )
    with pytest.raises(ValidationError, match="numeric column needs a real"):
        causal_intervention(preset("james").graph, m, JAMES_ROW, [Assignment("age", value)])


def test_causal_observed_row_with_unknown_category_is_rejected():
    m = linear_handle(
        {"reached_statutory_retirement=true": 1.0},
        features=("reached_statutory_retirement",),
    )
    row = dict(JAMES_ROW, sex="other")
    with pytest.raises(ValidationError, match="observed 'sex'='other': unknown category"):
        causal_intervention(preset("james").graph, m, row, [Assignment("age", 70.0)])


# --- capacity without use --------------------------------------------------------


def test_capacity_without_use_separation():
    """A perfect proxy the model ignores: full capacity, exactly zero use."""
    p = preset("capacity_no_use")
    d = p.sample(2000, seed=1)
    # capacity route: P reconstructs A perfectly
    cap = predictive_capacity(d, ("P",), "A", seed=0)
    assert cap.value >= 0.99
    # use route: the attached no-use model carries weight 0 on P
    m = BuiltinModelHandle(p.models["no_use"])
    rule = p.decision_rule
    summary, _ = flip_analysis(m, rule, d, [Assignment("P", "a0")])
    assert summary.flip_count == 0
    assert summary.flip_rate == 0.0
    assert summary.mean_abs_delta == 0.0
    assert not summary.significant_influence_flag
    # contrast: the use-variant model moves scores and flips decisions
    m_use = BuiltinModelHandle(p.models["use"])
    summary_use, _ = flip_analysis(m_use, rule, d, [Assignment("P", "a1")])
    assert summary_use.flip_count > 0
    assert summary_use.significant_influence_flag
    assert summary_use.direction_of_harm == TOWARD_UNFAVOURABLE
