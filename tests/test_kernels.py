"""Oracle tests: the numpy kernels must equal the references in ``oracles``
exactly, tie-breaks and score bits included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_capacity import grouped_cells, mixed_dataset, row_cells
from proxyaudit import kernels
from proxyaudit.association import contingency
from proxyaudit.capacity import predictive_capacity


@pytest.mark.parametrize("seed", range(8))
def test_joint_counts_backends_agree(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 500))
    ka, kb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    a = rng.integers(-1, ka, n)
    b = rng.integers(-1, kb, n)
    a[0] = b[-1] = -1  # every draw has missing codes on both sides
    counts, n_eff = kernels.joint_counts(a, b, ka, kb)
    want, want_n = oracles.joint_counts(a.tolist(), b.tolist(), ka, kb)
    assert counts.dtype == np.int64
    assert counts.tolist() == want
    assert n_eff == want_n


@st.composite
def code_pairs(draw):
    """Two code columns of n rows in -1..ka-1 and -1..kb-1: a row may miss
    either code, both, or (when drawn so) every row misses one."""
    n = draw(st.integers(0, 50))
    ka, kb = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.integers(-1, ka - 1), min_size=n, max_size=n)), dtype=np.int64)
    b = np.array(draw(st.lists(st.integers(-1, kb - 1), min_size=n, max_size=n)), dtype=np.int64)
    blank = draw(st.sampled_from(["none", "a", "b", "both"]))
    if blank in ("a", "both"):
        a[:] = -1
    if blank in ("b", "both"):
        b[:] = -1
    return a, b, ka, kb


@settings(max_examples=300, deadline=None)
@given(code_pairs())
def test_joint_counts_equals_gathered_reference(case):
    a, b, ka, kb = case
    counts, n_eff = kernels.joint_counts(a, b, ka, kb)
    want, want_n = oracles.joint_counts_gathered(a, b, ka, kb)
    assert counts.dtype == want.dtype and counts.shape == want.shape
    assert counts.flags.c_contiguous
    assert counts.tolist() == want.tolist()
    assert type(n_eff) is int and n_eff == want_n


def split_of(X, y, rows, n_classes, min_leaf):
    """``kernels.best_split`` on the node ``rows`` of X, one cell of weight 1
    per row, with X ranked over all of its rows."""
    return kernels.best_split(*row_cells(X, y, rows), n_classes, min_leaf)


def bits(split):
    feat, thr, score = split
    return feat, float(thr).hex(), float(score).hex()


@pytest.mark.parametrize("seed", range(12))
def test_best_split_backends_and_oracle_agree(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(4, 120))
    f = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    if seed % 2:
        X = rng.normal(size=(n, f))
    else:
        # duplicate-heavy values exercise the distinct-boundary logic and ties
        X = rng.integers(0, 6, (n, f)).astype(np.float64)
    y = rng.integers(0, k, n)
    min_leaf = int(rng.integers(1, 4))
    got = split_of(X, y, np.arange(n), k, min_leaf)
    assert got == oracles.best_split(X, y, k, min_leaf)
    assert bits(got) == bits(oracles.best_split_sorted(X, y, k, min_leaf))
    # the same node as weighted cells of its distinct rows
    grouped = kernels.best_split(*grouped_cells(X, y, np.arange(n), k, rng), k, min_leaf)
    assert bits(grouped) == bits(got)


# cell values per column kind: 0/1 indicators, integers, rounded floats, and
# signed zeros, which compare equal and so share one distinct value
CELLS = {
    "indicator": st.sampled_from([0.0, 1.0]),
    "integer": st.integers(-3, 3).map(float),
    "rounded": st.floats(-2.0, 2.0).map(lambda v: round(v, 1)),
    "signed_zero": st.sampled_from([-0.0, 0.0, 0.5, -1.0]),
}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_best_split_bit_equal_to_sort_oracle_on_row_subsets(data):
    n = data.draw(st.integers(1, 40), label="n")
    kinds = data.draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3),
                      label="kinds")
    k = data.draw(st.integers(2, 3), label="n_classes")
    min_leaf = data.draw(st.integers(1, 4), label="min_leaf")
    X = np.column_stack([
        np.array(data.draw(st.lists(CELLS[kind], min_size=n, max_size=n)), dtype=np.float64)
        for kind in kinds
    ])
    y = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                 dtype=np.int64)
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)), label="rows")),
                    dtype=np.intp)
    want = bits(oracles.best_split_sorted(X[rows], y[rows], k, min_leaf))
    assert bits(split_of(X, y, rows, k, min_leaf)) == want
    cells = grouped_cells(X, y, rows, k, np.random.default_rng(n))
    assert bits(kernels.best_split(*cells, k, min_leaf)) == want


def test_best_split_no_admissible_split():
    X = np.ones((10, 2))
    y = np.array([0, 1] * 5)
    assert split_of(X, y, np.arange(10), 2, 1)[0] == -1


def test_best_split_ignores_values_absent_from_the_node():
    # value 1 lies only outside the node: the one boundary is 0 | 2
    X = np.array([[0.0], [1.0], [2.0], [0.0], [2.0]])
    y = np.array([0, 1, 1, 0, 1])
    assert split_of(X, y, np.array([0, 2, 3, 4]), 2, 1) == (0, 1.0, 4.0)


def test_zero_gain_split_still_found():
    # XOR: no single split reduces impurity, but admissible splits exist
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    y = np.array([0, 1, 1, 0] * 10)
    feat, thr, score = split_of(X, y, np.arange(40), 2, 1)
    assert feat == 0 and thr == 0.5  # first candidate wins the tie


def test_active_backend_reports_selection():
    assert kernels.active_backend() == "numpy"


def test_callers_look_up_kernels_at_call_time(monkeypatch, toy_dataset):
    # tracing wraps the module attributes; a caller that bound a kernel at
    # import time would slip past it
    calls = {"joint_counts": 0, "best_split": 0}

    def counting(name):
        inner = getattr(kernels, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(kernels, name, counting(name))
    contingency(toy_dataset, "sex", "school_attended")
    # training folds of 150 rows are large enough for the tree to split
    predictive_capacity(mixed_dataset(), ("age", "city"), "grp", folds=2)
    assert calls["joint_counts"] > 0
    assert calls["best_split"] > 0
