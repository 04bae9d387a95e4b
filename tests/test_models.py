import http.server
import json
import os
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyaudit.data import CATEGORICAL, NUMERIC, ColumnSchema, Dataset
from proxyaudit.descriptors import Condition, SubgroupDescriptor
from proxyaudit.errors import (
    ConnectivityError,
    InsufficientDataError,
    ProtocolError,
    SpecError,
    ValidationError,
)
from proxyaudit.intervention import Assignment, flip_analysis
from proxyaudit.models import (
    ROWS_PER_CALL,
    BuiltinModelHandle,
    DecisionRule,
    ModelHandle,
    ModelSpec,
    SubprocessModelHandle,
    decide,
    load_model,
    probe_timeout,
)

import goldens
import oracles

FIXTURES = Path(__file__).parent / "fixtures"
# a float no test spec holds otherwise, swapped for the text 1e999 once written
HUGE = 1.2345e300


def linear_spec(coefficients, intercept, features):
    return ModelSpec("linear", {"coefficients": coefficients, "intercept": intercept}, features)


def logistic_spec(coefficients, intercept, features):
    return ModelSpec("logistic", {"coefficients": coefficients, "intercept": intercept}, features)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            ModelSpec("mystery", {}, ("x",))

    def test_coefficient_for_unknown_feature(self):
        with pytest.raises(SpecError):
            linear_spec({"y": 1.0}, 0.0, ("x",))

    def test_uncovered_feature(self):
        with pytest.raises(SpecError):
            linear_spec({"x": 1.0}, 0.0, ("x", "z"))

    def test_one_of_k_coefficient_covers_feature(self):
        spec = linear_spec({"sex=male": -1.0}, 0.0, ("sex",))
        assert spec.kind == "linear"

    def test_check_against_a_schema(self):
        schema = [ColumnSchema("sex", CATEGORICAL, ("female", "male")), ColumnSchema("age", NUMERIC)]
        linear_spec({"sex=male": -1.0, "age": 0.5}, 0.0, ("sex", "age")).check_against(schema)
        probe = ModelSpec("external_subprocess", {"command": ["probe"]}, ("sex", "age"))
        probe.check_against(schema)  # a probe's reads are its own: columns only
        with pytest.raises(ValidationError, match="model feature 'ghost' is not a dataset column"):
            ModelSpec("external_subprocess", {"command": ["probe"]}, ("ghost",)).check_against(schema)
        with pytest.raises(ValidationError, match="category 'x' not in column 'sex'"):
            linear_spec({"sex=x": -1.0}, 0.0, ("sex",)).check_against(schema)

    def test_tree_cycle_rejected(self):
        nodes = [
            {"id": 0, "kind": "split", "column": "x", "threshold": 1.0, "left": 1, "right": 0},
            {"id": 1, "kind": "leaf", "value": 0.0},
        ]
        with pytest.raises(SpecError):
            ModelSpec("decision_tree", {"root": 0, "nodes": nodes}, ("x",))

    def test_tree_unreachable_node_rejected(self):
        nodes = [
            {"id": 0, "kind": "leaf", "value": 0.0},
            {"id": 1, "kind": "leaf", "value": 1.0},
        ]
        with pytest.raises(SpecError):
            ModelSpec("decision_tree", {"root": 0, "nodes": nodes}, ("x",))

    def test_tree_missing_child_rejected(self):
        nodes = [
            {"id": 0, "kind": "split", "column": "x", "threshold": 1.0, "left": 1, "right": 2},
            {"id": 1, "kind": "leaf", "value": 0.0},
        ]
        with pytest.raises(SpecError):
            ModelSpec("decision_tree", {"root": 0, "nodes": nodes}, ("x",))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tree_links_checked_as_the_path_walk_checks_them(self, data):
        # node tables of up to 6 nodes whose children and root may be
        # missing (id k), repeated, shared or on a cycle
        k = data.draw(st.integers(1, 6))
        ref = st.integers(0, k)
        nodes = [
            {"id": i, "kind": "leaf", "value": 0.0} if data.draw(st.booleans()) else
            {"id": i, "kind": "split", "column": "x", "threshold": 1.0,
             "left": data.draw(ref), "right": data.draw(ref)}
            for i in range(k)
        ]
        root = data.draw(ref)
        if oracles.tree_links_ok(nodes, root):
            ModelSpec("decision_tree", {"root": root, "nodes": nodes}, ("x",))
        else:
            with pytest.raises(SpecError):
                ModelSpec("decision_tree", {"root": root, "nodes": nodes}, ("x",))

    def test_tree_with_shared_children_checks_in_linear_time(self):
        # 40 splits whose left and right both name the next node: 2**40
        # root-to-leaf paths, one node each to check. A fresh interpreter, so
        # a check that walks every path fails on the timeout, not hangs
        code = (
            "from proxyaudit.models import ModelSpec\n"
            "nodes = [{'id': i, 'kind': 'split', 'column': 'x', 'threshold': float(i),"
            " 'left': i + 1, 'right': i + 1} for i in range(40)]\n"
            "nodes.append({'id': 40, 'kind': 'leaf', 'value': 1.0})\n"
            "ModelSpec('decision_tree', {'root': 0, 'nodes': nodes}, ('x',))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_tree_split_needs_one_test(self):
        nodes = [
            {"id": 0, "kind": "split", "column": "x", "threshold": 1.0, "category": "a",
             "left": 1, "right": 1},
            {"id": 1, "kind": "leaf", "value": 0.0},
        ]
        with pytest.raises(SpecError):
            ModelSpec("decision_tree", {"root": 0, "nodes": nodes}, ("x",))

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "linear", "parameters": {"coefficients": {"x": "2"}, "intercept": 0.0},
             "feature_order": ["x"]},
            {"kind": "linear", "parameters": {"coefficients": {"x": 2.0}, "intercept": "0.5"},
             "feature_order": ["x"]},
            {"kind": "logistic", "parameters": {"coefficients": {"x": True}, "intercept": 0.0},
             "feature_order": ["x"]},
            {"kind": "decision_tree", "parameters": {"root": 0, "nodes": [
                {"id": 0, "kind": "leaf", "value": True}]}, "feature_order": ["x"]},
            {"kind": "decision_tree", "parameters": {"root": 0, "nodes": [
                {"id": 0, "kind": "split", "column": "x", "threshold": "1", "left": 1, "right": 1},
                {"id": 1, "kind": "leaf", "value": 0.0}]}, "feature_order": ["x"]},
            {"kind": "linear", "parameters": {"coefficients": {"x": 2.0}, "intercept": 0.0},
             "feature_order": "x"},
            [{"kind": "linear"}],
            {"kind": "linear", "parameters": "x", "feature_order": ["x"]},
            {"kind": "decision_tree", "parameters": {"root": 0, "nodes": ["x"]},
             "feature_order": ["x"]},
            {"kind": "external_subprocess", "parameters": {"command": [1, 2]},
             "feature_order": ["x"]},
            # json.dumps writes these as NaN and -Infinity, which are not JSON
            {"kind": "linear", "parameters": {"coefficients": {"x": float("nan")},
                                              "intercept": 0.0}, "feature_order": ["x"]},
            {"kind": "logistic", "parameters": {"coefficients": {"x": 1.0},
                                                "intercept": -float("inf")},
             "feature_order": ["x"]},
            # HUGE is written as 1e999, a float too large to be finite
            {"kind": "linear", "parameters": {"coefficients": {"x": HUGE},
                                              "intercept": 0.0}, "feature_order": ["x"]},
            {"kind": "decision_tree", "parameters": {"root": 0, "nodes": [
                {"id": 0, "kind": "split", "column": "x", "threshold": -HUGE,
                 "left": 1, "right": 1},
                {"id": 1, "kind": "leaf", "value": 0.0}]}, "feature_order": ["x"]},
            {"kind": "decision_tree", "parameters": {"root": 0, "nodes": [
                {"id": 0, "kind": "leaf", "value": HUGE}]}, "feature_order": ["x"]},
            # an integer too large for a float
            {"kind": "linear", "parameters": {"coefficients": {"x": 1.0},
                                              "intercept": 10**400}, "feature_order": ["x"]},
            # a node id or reference that is neither an integer nor a string
            {"kind": "decision_tree", "parameters": {"root": 0, "nodes": [
                {"id": [0], "kind": "leaf", "value": 0.0}]}, "feature_order": ["x"]},
            {"kind": "decision_tree", "parameters": {"root": [0], "nodes": [
                {"id": 0, "kind": "leaf", "value": 0.0}]}, "feature_order": ["x"]},
            *(
                {"kind": "decision_tree", "parameters": {"root": 0, "nodes": [
                    {"id": 0, "kind": "split", "column": "x", "threshold": 1.0,
                     "left": 1, "right": 1, side: [1]},
                    {"id": 1, "kind": "leaf", "value": 0.0}]}, "feature_order": ["x"]}
                for side in ("left", "right")
            ),
        ],
    )
    def test_spec_file_needs_real_numbers_and_json_shapes(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace(repr(HUGE), "1e999"))
        with pytest.raises(SpecError):
            ModelSpec.load(path)

    def test_json_round_trip(self, tmp_path):
        spec = logistic_spec({"x1": 2.0, "x2": -1.0}, 0.5, ("x1", "x2"))
        path = tmp_path / "model.json"
        spec.save(path)
        assert ModelSpec.load(path) == spec

    def test_save_and_load_score_bit_equal(self, tmp_path):
        # coefficients given out of sorted order: the saved file sorts them,
        # and the spec in memory must sum them in that same order
        spec = logistic_spec(
            {"x1": 2.0, "x2": -1.0, "c=a": 0.5, "c=b": -0.25}, 0.5, ("x1", "c", "x2")
        )
        assert list(spec.parameters["coefficients"]) == ["c=a", "c=b", "x1", "x2"]
        path = tmp_path / "model.json"
        spec.save(path)
        n = 4_500
        rng = np.random.default_rng(3)
        columns = {
            "x1": rng.normal(size=n),
            "x2": rng.normal(size=n) * 1e3,
            "c": rng.choice(np.array(["a", "b", "z"], dtype=object), size=n),
        }
        before = BuiltinModelHandle(spec).score_columns(columns, n)
        after = BuiltinModelHandle(ModelSpec.load(path)).score_columns(columns, n)
        assert before.tobytes() == after.tobytes()


class TestBuiltinPrediction:
    @pytest.mark.parametrize("kind", ["linear", "decision_tree"])
    def test_bool_feature_value_is_not_a_number(self, kind):
        if kind == "linear":
            spec = linear_spec({"x": 2.0}, 0.0, ("x",))
        else:
            spec = ModelSpec("decision_tree", {"root": 0, "nodes": [
                {"id": 0, "kind": "split", "column": "x", "threshold": 0.5, "left": 1, "right": 2},
                {"id": 1, "kind": "leaf", "value": 0.0},
                {"id": 2, "kind": "leaf", "value": 1.0}]}, ("x",))
        with pytest.raises(ValidationError, match="numeric value"):
            load_model(spec).predict_batch([[True]])

    def test_logistic_closed_form(self):
        m = load_model(logistic_spec({"x1": 2.0, "x2": -1.0}, 0.5, ("x1", "x2")))
        assert m.predict_batch([[1.0, 1.0]])[0] == pytest.approx(goldens.SIGMOID_1_5, abs=1e-12)

    def test_single_leaf_tree(self):
        spec = ModelSpec(
            "decision_tree",
            {"root": 0, "nodes": [{"id": 0, "kind": "leaf", "value": 0.3}]},
            ("x",),
        )
        m = load_model(spec)
        assert m.predict_batch([[1.0], [99.0], [-5.0]]) == [0.3, 0.3, 0.3]

    def test_linear_affine(self):
        m = load_model(linear_spec({"x": 3.0}, 1.0, ("x",)))
        assert m.predict_batch([[0.0], [1.0], [2.0]]) == [1.0, 4.0, 7.0]

    def test_empty_rows(self):
        m = load_model(linear_spec({"x": 3.0}, 1.0, ("x",)))
        assert m.predict_batch([]) == []

    def test_depth_two_tree_hand_traced(self):
        nodes = [
            {"id": 0, "kind": "split", "column": "x", "threshold": 5.0, "left": 1, "right": 2},
            {"id": 1, "kind": "split", "column": "c", "category": "red", "left": 3, "right": 4},
            {"id": 2, "kind": "leaf", "value": 0.9},
            {"id": 3, "kind": "leaf", "value": 0.1},
            {"id": 4, "kind": "leaf", "value": 0.5},
        ]
        m = load_model(ModelSpec("decision_tree", {"root": 0, "nodes": nodes}, ("x", "c")))
        rows = [
            {"x": 3.0, "c": "red"},     # left, then category match -> 0.1
            {"x": 3.0, "c": "blue"},    # left, then no match -> 0.5
            {"x": 5.0, "c": "red"},     # threshold tie goes right -> 0.9
            {"x": 7.0, "c": "blue"},    # right -> 0.9
        ]
        assert m.predict_batch(rows) == [0.1, 0.5, 0.9, 0.9]

    def test_one_of_k_indicator(self):
        m = load_model(linear_spec({"sex=male": -1.2, "x": 1.0}, 0.0, ("sex", "x")))
        assert m.predict_batch([{"sex": "male", "x": 2.0}, {"sex": "female", "x": 2.0}]) == [
            0.8,
            2.0,
        ]

    def test_missing_feature_reports_row(self):
        m = load_model(linear_spec({"x": 3.0}, 1.0, ("x",)))
        with pytest.raises(ValidationError, match="row 1"):
            m.predict_batch([{"x": 1.0}, {"y": 2.0}])

    def test_row_length_mismatch(self):
        m = load_model(linear_spec({"x": 3.0}, 1.0, ("x",)))
        with pytest.raises(ValidationError, match="row 0"):
            m.predict_batch([[1.0, 2.0]])

    def test_batch_invariance(self):
        m = load_model(linear_spec({"x": 3.0, "y": -2.0}, 1.0, ("x", "y")))
        rng = np.random.default_rng(3)
        rows = [[float(a), float(b)] for a, b in rng.normal(size=(40, 2))]
        joint = m.predict_batch(rows)
        assert joint == m.predict_batch(rows[:17]) + m.predict_batch(rows[17:])

    def test_matches_spreadsheet_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = {
                "x": float(rng.normal()),
                "y": float(rng.normal()),
                "c=red": float(rng.normal()),
            }
            b = float(rng.normal())
            m = load_model(linear_spec(w, b, ("x", "y", "c")))
            row = {
                "x": float(rng.normal()),
                "y": float(rng.normal()),
                "c": rng.choice(["red", "blue"]),
            }
            want = oracles.linear_score(w, b, ("x", "y", "c"), row)
            assert m.predict_batch([row])[0] == pytest.approx(want, rel=1e-12)


# --- columnar evaluator vs the per-row reference --------------------------------

CATS = ("a", "b", "c")
# cells a caller might send by mistake or on purpose: missing, a category in
# a numeric slot, numbers in a categorical slot
ODD_CELLS = (None, "a", "zz", 1.5, 2, True)
# values drawn both as cells and as thresholds, so rows land on a split
TIES = (-1.0, 0.0, 0.5, 2.0)


@st.composite
def builtin_cases(draw):
    """A random builtin spec plus a batch of rows, some of them invalid."""
    names = [f"f{j}" for j in range(draw(st.integers(1, 3)))]
    numeric = {name: draw(st.booleans()) for name in names}
    weight = st.floats(-1e3, 1e3) | st.integers(-5, 5)
    kind = draw(st.sampled_from(("linear", "logistic", "decision_tree")))
    if kind == "decision_tree":
        nodes = []

        def grow(depth):
            node = {"id": len(nodes)}
            nodes.append(node)
            if depth == 0 or draw(st.booleans()):
                node.update(kind="leaf", value=draw(st.floats(-10, 10)))
                return node["id"]
            column = draw(st.sampled_from(names))
            node.update(kind="split", column=column)
            # mostly the test that fits the column's type, sometimes the other
            if numeric[column] == (draw(st.integers(0, 4)) > 0):
                node["threshold"] = draw(st.sampled_from(TIES))
            else:
                node["category"] = draw(st.sampled_from(CATS))
            node["left"] = grow(depth - 1)
            node["right"] = grow(depth - 1)
            return node["id"]

        root = grow(3)
        parameters = {"root": root, "nodes": draw(st.permutations(nodes))}
    else:
        coefficients = {}
        for name in names:
            if numeric[name]:
                coefficients[name] = draw(weight)
                if draw(st.booleans()):  # an indicator no number can match
                    coefficients[f"{name}=1.0"] = draw(weight)
            else:
                for cat in draw(st.lists(st.sampled_from(CATS), min_size=1, unique=True)):
                    coefficients[f"{name}={cat}"] = draw(weight)
        order = draw(st.permutations(list(coefficients)))
        parameters = {
            "coefficients": {k: coefficients[k] for k in order},
            "intercept": draw(weight),
        }
    spec = ModelSpec(kind, parameters, names)

    def cell(name):
        if draw(st.integers(0, 29)) == 0:
            return draw(st.sampled_from(ODD_CELLS))
        if numeric[name]:
            return draw(st.sampled_from(TIES) | st.floats(-5, 5) | st.integers(-3, 3))
        return draw(st.sampled_from(CATS))

    rows = []
    for _ in range(draw(st.integers(0, 25))):
        row = {name: cell(name) for name in names}
        if draw(st.integers(0, 59)) == 0:
            row.pop(draw(st.sampled_from(names)))
        rows.append(row if draw(st.booleans()) else [row.get(n) for n in names])
    return spec, rows


def bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=400, deadline=None)
@given(builtin_cases())
def test_columnar_scores_equal_row_reference(case):
    spec, rows = case
    m = load_model(spec)
    try:
        want = oracles.builtin_scores(spec.kind, spec.parameters, spec.feature_order, rows)
    except oracles.InvalidRow:
        with pytest.raises(ValidationError):
            m.predict_batch(rows)
        return
    got = m.predict_batch(rows)
    assert all(type(s) is float for s in got)
    assert bits(got) == bits(want)
    # the same rows as typed columns, the way flip analysis sends them
    columns = {}
    for j, name in enumerate(spec.feature_order):
        cells = [row[name] if isinstance(row, dict) else row[j] for row in rows]
        numbers = all(isinstance(v, (int, float)) for v in cells)
        columns[name] = np.array(cells, dtype=np.float64 if numbers else object)
    assert bits(m.score_columns(columns, len(rows))) == bits(want)


# --- row batches: predict_batch vs the checked-loop reference --------------------

# each spec reads its features in the order given: numeric "x", categorical "c"
ROW_SPECS = (
    linear_spec({"x": 1.5, "c=a": -2.0, "c=b": 0.25}, 0.5, ("x", "c")),
    ModelSpec(
        "decision_tree",
        {"root": 0, "nodes": [
            {"id": 0, "kind": "split", "column": "c", "category": "a", "left": 1, "right": 2},
            {"id": 1, "kind": "leaf", "value": 0.25},
            {"id": 2, "kind": "split", "column": "x", "threshold": 0.5, "left": 3, "right": 4},
            {"id": 3, "kind": "leaf", "value": -1.0},
            {"id": 4, "kind": "leaf", "value": 3.0},
        ]},
        ("c", "x"),
    ),
    linear_spec({}, 2.0, ()),  # no features: every row is empty
)
# cells that are not plain numbers or categories, each valid in some slot
ROW_ODD_CELLS = (
    None, True, False, np.float64(0.75), np.int64(-2), np.bool_(True), np.str_("a"),
    [1.0], [1.0, 2.0], ["a"], [[0.5]],
)


class _Recorder(ModelHandle):
    """Keeps the columns it is asked to score; scores every row 0."""

    def score_columns(self, columns, n_rows):
        self.columns = columns
        return np.zeros(n_rows)


@st.composite
def row_batches(draw):
    """A spec and rows as lists, tuples or dicts; some batches clean, some
    with odd cells, wrong lengths or missing keys in any row."""
    spec = draw(st.sampled_from(ROW_SPECS))
    order = spec.feature_order
    shape = draw(st.sampled_from(("list", "tuple", "mixed")))
    odd_rate = draw(st.sampled_from((0, 0, 5, 40)))  # in 100 cells
    bad_rows = draw(st.sampled_from((0, 0, 3)))  # in 100 rows

    def cell(name):
        if draw(st.integers(0, 99)) < odd_rate:
            return draw(st.sampled_from(ROW_ODD_CELLS))
        if name == "x":
            return draw(st.sampled_from(TIES) | st.floats(-5, 5) | st.integers(-3, 3))
        return draw(st.sampled_from(CATS))

    rows = []
    for _ in range(draw(st.integers(0, 30))):
        values = [cell(f) for f in order]
        if draw(st.integers(0, 99)) < bad_rows:
            if values and draw(st.booleans()):
                values.pop(draw(st.integers(0, len(values) - 1)))
            else:
                values.append(cell("x"))
        kind = shape if shape != "mixed" else draw(st.sampled_from(("list", "tuple", "dict")))
        if kind == "dict":
            rows.append(dict(zip(order, values)))
        else:
            rows.append(values if kind == "list" else tuple(values))
    return spec, rows


def _outcome(score, rows):
    try:
        return [s.hex() for s in score(rows)]
    except Exception as exc:  # the same class and message from both
        return (type(exc).__name__, str(exc))


@settings(max_examples=600, deadline=None)
@given(row_batches())
def test_predict_batch_equals_checked_loop(case):
    spec, rows = case
    m = load_model(spec)
    want = _outcome(lambda r: oracles.predict_batch_reference(m, r), rows)
    assert _outcome(m.predict_batch, rows) == want
    # both fill each column with the rows' own cell objects, in row order
    recorder, reference = _Recorder(spec), _Recorder(spec)
    if isinstance(want, list):
        recorder.predict_batch(rows)
        oracles.predict_batch_reference(reference, rows)
        for f in spec.feature_order:
            got, wanted = recorder.columns[f], reference.columns[f]
            assert got.dtype == object and got.shape == (len(rows),)
            assert list(map(id, got)) == list(map(id, wanted))


@pytest.mark.parametrize(
    "rows, message",
    [
        # a None in a row before a wrong-length row is what the loop meets first
        ([[1.0, "a"], [None, "a"], [1.0]], "row 1: missing value for feature 'x'"),
        ([[1.0, "a"], [1.0], [None, "a"]], "row 1: got 1 values for 2 features"),
        ([(1.0, "a")] * 50 + [(1.0, None)], "row 50: missing value for feature 'c'"),
        ([[1.0, "a"], {"x": 1.0}], "row 1: missing feature 'c'"),
        ([[True, "a"]], "row 0: feature 'x' needs a numeric value, got True"),
    ],
)
def test_predict_batch_names_the_first_bad_row(rows, message):
    m = load_model(ROW_SPECS[0])
    with pytest.raises(ValidationError) as exc:
        m.predict_batch(rows)
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as ref:
        oracles.predict_batch_reference(m, rows)
    assert str(ref.value) == message


@pytest.mark.parametrize("n_rows", [1, 2, 3])
def test_list_cell_reaches_score_columns_as_one_object(n_rows):
    # n lists of n values would broadcast into an (n, n) block; one list of
    # one value would be unpacked into its cell
    rows = [[[float(i)] * n_rows] for i in range(n_rows)]
    m = _Recorder(ModelSpec("linear", {"coefficients": {"x": 1.0}, "intercept": 0.0}, ("x",)))
    m.predict_batch(rows)
    column = m.columns["x"]
    assert column.dtype == object and column.shape == (n_rows,)
    assert all(cell is row[0] for cell, row in zip(column, rows))
    with pytest.raises(ValidationError, match=r"row 0: feature 'x' needs a numeric value, got \["):
        load_model(m.spec).predict_batch(rows)


class TestDecide:
    def test_above_favourable(self):
        assert decide(DecisionRule(0.5, "score_above"), 0.6) == "favourable"

    def test_tie_is_unfavourable(self):
        assert decide(DecisionRule(0.5, "score_above"), 0.5) == "unfavourable"
        assert decide(DecisionRule(0.5, "score_below"), 0.5) == "unfavourable"

    def test_below_direction(self):
        assert decide(DecisionRule(700.0, "score_below"), 650.0) == "favourable"
        assert decide(DecisionRule(700.0, "score_below"), 720.0) == "unfavourable"

    def test_favourable_is_elementwise_decide(self):
        scores = np.array([0.2, 0.5, 0.7])
        for rule in (DecisionRule(0.5, "score_above"), DecisionRule(0.5, "score_below")):
            want = [decide(rule, float(s)) == "favourable" for s in scores]
            assert rule.favourable(scores).tolist() == want

    def test_bad_direction_rejected(self):
        with pytest.raises(ValidationError):
            DecisionRule(0.5, "sideways")


def subprocess_spec(*args, features=("x",)):
    return ModelSpec(
        "external_subprocess",
        {"command": [sys.executable, *args]},
        features,
    )


class TestSubprocessProbe:
    def test_spec_wrapped_probe_matches_builtin(self, tmp_path):
        inner = logistic_spec({"x1": 2.0, "x2": -1.0}, 0.5, ("x1", "x2"))
        spec_path = tmp_path / "inner.json"
        inner.save(spec_path)
        outer = subprocess_spec(
            "-m", "proxyaudit.probe_reference", "--spec", str(spec_path),
            features=("x1", "x2"),
        )
        rng = np.random.default_rng(0)
        rows = [[float(a), float(b)] for a, b in rng.normal(size=(100, 2))]
        direct = load_model(inner).predict_batch(rows)
        with load_model(outer, timeout=15) as m:
            probed = m.predict_batch(rows)
        # JSON floats round-trip exactly
        assert np.array(probed).tobytes() == np.array(direct).tobytes()

    def test_pipelined_columns_match_builtin(self, tmp_path):
        # 4,500 rows: more batches than the window holds, the last one partial
        n = 4 * ROWS_PER_CALL + ROWS_PER_CALL // 2
        assert SubprocessModelHandle.WINDOW < -(-n // ROWS_PER_CALL)
        inner = logistic_spec(
            {"x1": 2.0, "x2": -1.0, "c=a": 0.5, "c=b": -0.25}, 0.5, ("x1", "c", "x2")
        )
        spec_path = tmp_path / "inner.json"
        inner.save(spec_path)
        outer = subprocess_spec(
            "-m", "proxyaudit.probe_reference", "--spec", str(spec_path),
            features=inner.feature_order,
        )
        rng = np.random.default_rng(3)
        columns = {
            "x1": rng.normal(size=n),
            "x2": rng.normal(size=n) * 1e3,
            "c": rng.choice(np.array(["a", "b", "z"], dtype=object), size=n),
        }
        direct = BuiltinModelHandle(inner).score_columns(columns, n)
        with load_model(outer, timeout=15) as m:
            probed = m.score_columns(columns, n)
            assert m.transport_retries == 0
        assert probed.dtype == np.float64
        assert probed.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("entry", ["score_columns", "predict_batch"])
    def test_probe_dying_with_requests_outstanding_is_resent(self, entry):
        # each probe answers one batch: 3 failures, one more than a batch may
        # have, so the count must restart with every accepted reply; rows
        # given to either entry point go out ROWS_PER_CALL to a message
        x = np.arange(4 * ROWS_PER_CALL) / 7.0

        def score(m):
            if entry == "score_columns":
                return m.score_columns({"x": x}, x.size)
            return np.array(m.predict_batch([[v] for v in x.tolist()]))

        with load_model(subprocess_spec(str(FIXTURES / "bad_probe.py"), "healthy"), timeout=15) as m:
            healthy = score(m)
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "dies-after-one")
        with load_model(spec, timeout=15) as m:
            probed = score(m)
            assert m.transport_retries == 3
        assert probed.tobytes() == healthy.tobytes()

    def test_missing_row_value_raises_before_any_message(self, monkeypatch):
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "healthy")
        with load_model(spec, timeout=15) as m:

            def send(_message):
                raise AssertionError("a row with a missing value reached the probe")

            monkeypatch.setattr(m, "_send", send)
            with pytest.raises(ValidationError, match="row 1: missing value for feature 'x'"):
                m.predict_batch([[1.0], {"x": None}])

    def test_out_of_order_reply_is_protocol_error(self):
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "swapped")
        with load_model(spec, timeout=5) as m:
            with pytest.raises(ProtocolError) as exc:
                # distinct rows: equal ones would go out once, in one message
                x = np.arange(2 * ROWS_PER_CALL, dtype=np.float64)
                m.score_columns({"x": x}, x.size)
            assert "does not echo" in str(exc.value)
            assert m.transport_retries == 0

    def test_probe_that_stops_reading_times_out(self):
        # each predict message outgrows a pipe buffer, so a blocking write
        # would wait on the probe forever instead of timing out
        features = tuple(f"x{i}" for i in range(8))
        columns = {f: np.random.default_rng(i).normal(size=4 * ROWS_PER_CALL)
                   for i, f in enumerate(features)}
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "stalls", features=features)
        with load_model(spec, timeout=0.5) as m:
            with pytest.raises(ConnectivityError):
                m.score_columns(columns, 4 * ROWS_PER_CALL)
            assert m.transport_retries == 2

    @pytest.mark.parametrize(
        "mode",
        ["wrong-id", "short-scores", "not-json", "bool-scores", "nan-scores", "huge-scores",
         "overflow-scores"],
    )
    def test_protocol_violations_never_retried(self, mode):
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), mode)
        with load_model(spec, timeout=15) as m:
            with pytest.raises(ProtocolError) as exc:
                m.predict_batch([[1.0]])
            assert exc.value.payload is not None
            assert m.transport_retries == 0

    def test_reply_not_utf8_is_protocol_error_at_once(self, capfd):
        # the pipe carries bytes, so a bad byte reaches the one reply decoder
        # instead of killing the reader thread and waiting out the timeout
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "not-utf8")
        with load_model(spec, timeout=5) as m:
            started = time.monotonic()
            with pytest.raises(ProtocolError, match="scores reply is not UTF-8 JSON") as exc:
                m.predict_batch([[1.0]])
            assert time.monotonic() - started < 5
            assert m.transport_retries == 0
        assert exc.value.payload.endswith('"note": "\ufffd"}')
        assert "Exception in thread" not in capfd.readouterr().err

    def test_probe_that_cannot_restart_is_unreachable(self, tmp_path):
        # the probe dies after the handshake, and its executable is gone
        # before the restart: a connectivity error, as at first start
        wrapper = tmp_path / "vanish.sh"
        wrapper.write_text(
            f"#!/bin/sh\nexec {shlex.quote(sys.executable)} "
            f"{shlex.quote(str(FIXTURES / 'bad_probe.py'))} dies\n"
        )
        wrapper.chmod(0o755)
        spec = ModelSpec("external_subprocess", {"command": [str(wrapper)]}, ("x",))
        with load_model(spec, timeout=5) as m:
            wrapper.unlink()
            with pytest.raises(ConnectivityError, match="could not start probe"):
                m.predict_batch([[1.0]])
            assert m.transport_retries == 1

    def test_rejected_row_is_answered_not_retried(self, tmp_path):
        # the reference probe replies with the model's error and stops, so a
        # bad row is a protocol error at once, never a dead probe to respawn
        spec_path = tmp_path / "inner.json"
        linear_spec({"x": 2.0}, 1.0, ("x",)).save(spec_path)
        outer = subprocess_spec("-m", "proxyaudit.probe_reference", "--spec", str(spec_path))
        with load_model(outer, timeout=15) as m:
            with pytest.raises(ProtocolError) as exc:
                m.predict_batch([["abc"]])
            assert "row 0: feature 'x' needs a numeric value, got 'abc'" in str(exc.value)
            assert json.loads(exc.value.payload)["type"] == "error"
            assert m.transport_retries == 0

    def test_handshake_violation(self):
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "no-ready")
        with pytest.raises(ProtocolError):
            load_model(spec, timeout=15)

    def test_silent_probe_times_out(self):
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "silent")
        with pytest.raises(ConnectivityError):
            load_model(spec, timeout=0.5)

    def test_dying_probe_retried_at_most_twice(self):
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "dies")
        with load_model(spec, timeout=5) as m:
            with pytest.raises(ConnectivityError):
                m.predict_batch([[1.0]])
            assert m.transport_retries == 2

    def test_timeout_env_override(self, monkeypatch):
        monkeypatch.setenv("PROXYAUDIT_PROBE_TIMEOUT_SECS", "0.4")
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "silent")
        with pytest.raises(ConnectivityError):
            load_model(spec)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_timeout_env_must_be_finite(self, monkeypatch, raw):
        # nan would turn the timeout off; inf overflows the platform time_t
        monkeypatch.setenv("PROXYAUDIT_PROBE_TIMEOUT_SECS", raw)
        with pytest.raises(ValidationError):
            probe_timeout()

    def test_unspawnable_command(self):
        spec = ModelSpec(
            "external_subprocess", {"command": ["/nonexistent-probe-binary"]}, ("x",)
        )
        with pytest.raises(ConnectivityError):
            load_model(spec)


# --- rows a probe is sent ----------------------------------------------------------


def _predict_sizes(m, monkeypatch):
    """Rows in each predict message ``m`` sends from now on."""
    sizes, send = [], m._send

    def counted(message):
        if message["type"] == "predict":
            sizes.append(len(message["rows"]))
        send(message)

    monkeypatch.setattr(m, "_send", counted)
    return sizes


def _objects(values):
    return np.fromiter(values, dtype=object, count=len(values))


class TestDistinctRows:
    def test_two_category_flip_sends_two_rows(self, monkeypatch):
        # 50k rows, baseline and counterfactual: 100k rows scored, 2 distinct
        flag = np.arange(50_000) % 3 == 0
        d = Dataset([ColumnSchema("flag", CATEGORICAL, ("no", "yes"))], {"flag": flag.astype(int)})
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "counting", features=("flag",))
        with load_model(spec, timeout=15) as m:
            sizes = _predict_sizes(m, monkeypatch)
            _, records = flip_analysis(m, DecisionRule(1.5), d, [Assignment("flag", "yes")])
        assert sizes == [2]
        # row 0 is a "yes" row, so ["yes"] is received first and ["no"] second
        assert [r.counterfactual_score for r in records] == [1.0] * flag.size
        assert [r.baseline_score for r in records] == np.where(flag, 1.0, 2.0).tolist()

    @pytest.mark.parametrize(
        "c, x, features, assignments, selector, sent, baseline, counterfactual",
        [
            # row 0's counterfactual ("b", 1.0) is row 1's baseline: sent once
            ("aba", [1.0, 1.0, 2.0], ("c", "x"), {"c": "b"}, None,
             [["a", 1.0], ["b", 1.0], ["a", 2.0], ["b", 2.0]], [1, 2, 3], [2, 2, 4]),
            # row 0's counterfactual is its own baseline
            ("ba", [1.0, 1.0], ("c", "x"), {"c": "b"}, None,
             [["b", 1.0], ["a", 1.0]], [1, 2], [1, 1]),
            # assigned values absent from the data: -0.0 is not 0.0, nor 0.0 -0.0
            ("aaa", [0.0, 1.0, 0.0], ("x",), {"x": -0.0}, None,
             [[0.0], [-0.0], [1.0]], [1, 3, 1], [2, 2, 2]),
            ("aaa", [-0.0, 5.5, -0.0], ("x",), {"x": 0.0}, None,
             [[-0.0], [0.0], [5.5]], [1, 3, 1], [2, 2, 2]),
            ("aaa", [1.0, 2.0, 1.0], ("x",), {"x": 7}, None,
             [[1.0], [7.0], [2.0]], [1, 3, 1], [2, 2, 2]),
            # a selector on a two-feature model, with c left free; row 3 is out
            ("ababa", [1.0, 2.0, 3.0, -1.0, 2.0], ("c", "x"), {"x": 2.0},
             SubgroupDescriptor((Condition.interval("x", lo=0.0),)),
             [["a", 1.0], ["a", 2.0], ["b", 2.0], ["a", 3.0]], [1, 3, 4, 2], [2, 3, 2, 2]),
        ],
    )
    def test_flip_sends_each_distinct_row_once(self, monkeypatch, c, x, features, assignments,
                                               selector, sent, baseline, counterfactual):
        d = Dataset(
            [ColumnSchema("c", CATEGORICAL, ("a", "b")), ColumnSchema("x", NUMERIC)],
            {"c": ["ab".index(v) for v in c], "x": x},
        )
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "counting", features=features)
        with load_model(spec, timeout=15) as m:
            rows, send = [], m._send

            def recorded(message):
                rows.extend(message.get("rows", ()))
                send(message)

            monkeypatch.setattr(m, "_send", recorded)
            _, records = flip_analysis(
                m, DecisionRule(1.5), d, [Assignment(k, v) for k, v in assignments.items()],
                selector,
            )
        # JSON text tells -0.0 from 0.0
        assert json.dumps(rows) == json.dumps(sent)
        assert [r.baseline_score for r in records] == baseline
        assert [r.counterfactual_score for r in records] == counterfactual

    @pytest.mark.parametrize(
        "column, received",
        [
            # every row given, ROWS_PER_CALL to a message, in row order
            (np.arange(2 * ROWS_PER_CALL + 500) / 7.0, list(range(1, 2 * ROWS_PER_CALL + 501))),
            # repeated rows too: only a flip collapses them
            (np.array([0.0, -0.0, 0.0, -0.0, 1.0]), [1, 2, 3, 4, 5]),
            (_objects(["b", "a", "b", "b", "c"]), [1, 2, 3, 4, 5]),
        ],
    )
    def test_rows_received(self, monkeypatch, column, received):
        spec = subprocess_spec(str(FIXTURES / "bad_probe.py"), "counting")
        with load_model(spec, timeout=15) as m:
            sizes = _predict_sizes(m, monkeypatch)
            scores = m.score_columns({"x": column}, column.size)
        assert scores.tolist() == received
        assert sizes == [min(ROWS_PER_CALL, column.size - s) for s in range(0, column.size, ROWS_PER_CALL)]


DIFF_FEATURES = ("x", "c", "y")
DIFF_INNER = (
    linear_spec({"x": 1.5, "y": -0.25, "c=a": 2.0, "c=1": -1.0}, 0.5, DIFF_FEATURES),
    logistic_spec({"x": 0.75, "y": -0.5, "c=a": 1.0, "c=1": -0.5}, -0.25, DIFF_FEATURES),
    ModelSpec(
        "decision_tree",
        {"root": 0, "nodes": [
            {"id": 0, "kind": "split", "column": "c", "category": "a", "left": 1, "right": 2},
            {"id": 1, "kind": "split", "column": "x", "threshold": 0.0, "left": 3, "right": 4},
            {"id": 2, "kind": "split", "column": "y", "threshold": 1.0, "left": 5, "right": 6},
            {"id": 3, "kind": "leaf", "value": -1.0},
            {"id": 4, "kind": "leaf", "value": 0.5},
            {"id": 5, "kind": "leaf", "value": 2.0},
            {"id": 6, "kind": "leaf", "value": 3.25},
        ]},
        DIFF_FEATURES,
    ),
)


@pytest.fixture(scope="module")
def diff_probes(tmp_path_factory):
    """The reference probe serving each ``DIFF_INNER`` spec, and a probe
    scoring each row by its JSON text, which no two rows written apart share."""
    specs = []
    for i, inner in enumerate(DIFF_INNER):
        path = tmp_path_factory.mktemp("probes") / f"inner{i}.json"
        inner.save(path)
        specs.append(subprocess_spec(
            "-m", "proxyaudit.probe_reference", "--spec", str(path), features=DIFF_FEATURES
        ))
    specs.append(subprocess_spec(str(FIXTURES / "bad_probe.py"), "digest", features=DIFF_FEATURES))
    handles = [load_model(spec, timeout=15) for spec in specs]
    yield handles
    for m in handles:
        m.close()


@pytest.fixture(scope="module")
def empty_row_probe():
    """The JSON-text probe of a spec with no features: every row is empty."""
    with load_model(subprocess_spec(str(FIXTURES / "bad_probe.py"), "digest", features=()),
                    timeout=15) as m:
        yield m


# number cells: 1, 1.0 and -0.0, 0.0 score alike but are written apart
NUMBER_CELLS = (0, 0.0, -0.0, 1, 1.0, 2, -2.5)
# category cells of many types, each equal to another under == or a category
MIXED_CELLS = ("a", "b", "1", 1, 1.0, True, False, 0, ["a"], {"a": 1}, [])


def _diff_column(rng, pattern, n):
    if pattern == "repeats":  # duplicate-heavy, -0.0 and 0.0 among them
        return rng.choice(np.array([-0.0, 0.0, 1.0, 0.5, -2.0]), n)
    if pattern == "distinct":
        return rng.normal(size=n)
    if pattern == "many":  # up to a few hundred values
        return rng.integers(0, int(rng.integers(2, 400)), n) / 8.0
    if pattern == "numbers":
        return _objects([NUMBER_CELLS[i] for i in rng.integers(0, len(NUMBER_CELLS), n)])
    if pattern == "categories":
        return _objects([("a", "b", "1", "zz")[i] for i in rng.integers(0, 4, n)])
    if pattern == "labels":  # distinct strings
        return _objects([f"r{i}" for i in rng.permutation(n)])
    return _objects([MIXED_CELLS[i] for i in rng.integers(0, len(MIXED_CELLS), n)])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 10) | st.integers(0, 2 * ROWS_PER_CALL + 100),
    numeric=st.tuples(*[st.sampled_from(("repeats", "distinct", "many", "numbers"))] * 2),
    categorical=st.sampled_from(("categories", "labels", "mixed")),
)
def test_probe_score_columns_equals_reference(diff_probes, empty_row_probe, seed, n, numeric,
                                              categorical):
    rng = np.random.default_rng(seed)
    columns = {
        "x": _diff_column(rng, numeric[0], n),
        "c": _diff_column(rng, categorical, n),
        "y": _diff_column(rng, numeric[1], n),
    }
    for m in (*diff_probes, empty_row_probe):
        want = oracles.probe_score_columns_reference(m, columns, n)
        assert m.score_columns(columns, n).tobytes() == want.tobytes()


# --- flips score each distinct dataset row once --------------------------------------

FLIP_SCHEMA = (
    ColumnSchema("x", NUMERIC),
    ColumnSchema("c", CATEGORICAL, ("a", "b", "1", "zz")),
    ColumnSchema("y", NUMERIC),
    ColumnSchema("g", CATEGORICAL, ("p", "q")),
)
FLIP_SELECTORS = (
    None,
    SubgroupDescriptor((Condition.equals("g", "p"),)),
    SubgroupDescriptor((Condition.interval("x", lo=0.0),)),
    SubgroupDescriptor((Condition.equals("c", "a"), Condition.interval("y", hi=1.0))),
)


@st.composite
def flip_cases(draw):
    """A dataset over ``FLIP_SCHEMA`` (its numbers repeated, ``-0.0`` and
    ``0.0`` among them, or all distinct; some cells missing), a selector, a
    decision rule and assignments to one to three model features."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12) | st.integers(1, 700))
    missing = draw(st.sampled_from((0.0, 0.0, 0.1)))
    columns = {
        "x": _diff_column(rng, draw(st.sampled_from(("repeats", "distinct", "many"))), n),
        "c": rng.integers(0, draw(st.integers(1, 4)), n),
        "y": _diff_column(rng, draw(st.sampled_from(("repeats", "distinct", "many"))), n),
        "g": rng.integers(0, 2, n),
    }
    for cells in columns.values():
        cells[rng.random(n) < missing] = np.nan if cells.dtype == np.float64 else -1
    values = {
        "x": st.sampled_from((0.0, -0.0, 1, 0.5, 2.75)),
        "y": st.sampled_from((0.0, -0.0, -2.0, 1.5)),
        "c": st.sampled_from(FLIP_SCHEMA[1].categories),
    }
    targets = draw(st.lists(st.sampled_from(DIFF_FEATURES), min_size=1, max_size=3, unique=True))
    return (
        Dataset(FLIP_SCHEMA, columns),
        draw(st.sampled_from(FLIP_SELECTORS)),
        DecisionRule(draw(st.sampled_from((0.0, 0.5, 1.0))),
                     draw(st.sampled_from(("score_above", "score_below")))),
        [Assignment(f, draw(values[f])) for f in targets],
    )


def _flip_outcome(analyse, m, case):
    d, selector, rule, assignments = case
    try:
        summary, records = analyse(m, rule, d, assignments, selector)
    except InsufficientDataError as exc:
        return str(exc)
    return (
        repr(summary),
        [r.row_index for r in records],
        np.array([r.baseline_score for r in records]).tobytes(),
        np.array([r.counterfactual_score for r in records]).tobytes(),
    )


@settings(max_examples=100, deadline=None)
@given(flip_cases())
def test_flip_analysis_equals_every_row_reference(diff_probes, case):
    for m in (*map(BuiltinModelHandle, DIFF_INNER), *diff_probes):
        want = _flip_outcome(oracles.flip_analysis_reference, m, case)
        assert _flip_outcome(flip_analysis, m, case) == want


@settings(max_examples=40, deadline=None)
@given(flip_cases())
def test_flip_sends_distinct_interleaved_rows_in_first_order(diff_probes, case):
    d, selector, rule, assignments = case
    recorder = _Recorder(DIFF_INNER[0])
    try:
        oracles.flip_analysis_reference(recorder, rule, d, assignments, selector)
    except InsufficientDataError:
        return
    # the JSON texts of every interleaved row, each once, as first met
    rows = zip(*(recorder.columns[f].tolist() for f in DIFF_FEATURES))
    want = list(dict.fromkeys(json.dumps(row) for row in rows))
    probe = diff_probes[-1]
    sent, send = [], probe._send

    def recorded(message):
        sent.extend(json.dumps(row) for row in message.get("rows", ()))
        send(message)

    probe._send = recorded
    try:
        flip_analysis(probe, rule, d, assignments, selector)
    finally:
        del probe._send
    assert sent == want


class _ProbeHTTPHandler(http.server.BaseHTTPRequestHandler):
    fail_with = None  # set on the class by the fixture

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        if self.fail_with == "http-500":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        scores = [2.0 * float(r[0]) + 1.0 for r in payload["rows"]]
        if self.fail_with == "bad-body":
            body = b"not json"
        elif self.fail_with == "bad-bytes":
            body = b'{"type": "scores", "id": %d, "scores": [0.0], "note": "\xff"}' % payload["id"]
        else:
            body = json.dumps(
                {"type": "scores", "id": payload["id"], "scores": scores}
            ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_probe():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ProbeHTTPHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        _ProbeHTTPHandler.fail_with = None


class TestHttpProbe:
    def test_round_trip(self, http_probe):
        spec = ModelSpec("external_http", {"endpoint": http_probe}, ("x",))
        m = load_model(spec, timeout=5)
        assert m.predict_batch([[0.0], [2.0]]) == [1.0, 5.0]

    def test_non_200_is_protocol_error(self, http_probe):
        spec = ModelSpec("external_http", {"endpoint": http_probe}, ("x",))
        m = load_model(spec, timeout=5)
        _ProbeHTTPHandler.fail_with = "http-500"
        with pytest.raises(ProtocolError):
            m.predict_batch([[1.0]])

    def test_bad_body_is_protocol_error(self, http_probe):
        spec = ModelSpec("external_http", {"endpoint": http_probe}, ("x",))
        m = load_model(spec, timeout=5)
        _ProbeHTTPHandler.fail_with = "bad-body"
        with pytest.raises(ProtocolError):
            m.predict_batch([[1.0]])

    def test_body_not_utf8_is_protocol_error(self, http_probe):
        spec = ModelSpec("external_http", {"endpoint": http_probe}, ("x",))
        m = load_model(spec, timeout=5)
        _ProbeHTTPHandler.fail_with = "bad-bytes"
        with pytest.raises(ProtocolError, match="not UTF-8 JSON"):
            m.predict_batch([[1.0]])

    def test_unreachable_endpoint(self):
        spec = ModelSpec("external_http", {"endpoint": "http://127.0.0.1:1"}, ("x",))
        with pytest.raises(ConnectivityError):
            load_model(spec, timeout=0.5)
