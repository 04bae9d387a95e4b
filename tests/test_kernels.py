"""Oracle tests: the numpy kernels must equal the loop references in
``oracles`` exactly, tie-breaks included."""

import numpy as np
import pytest

import oracles
from test_capacity import mixed_dataset
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
    got = kernels.best_split(X, y, k, min_leaf)
    assert got == oracles.best_split(X, y, k, min_leaf)


def test_best_split_no_admissible_split():
    X = np.ones((10, 2))
    y = np.array([0, 1] * 5)
    assert kernels.best_split(X, y, 2, 1)[0] == -1


def test_zero_gain_split_still_found():
    # XOR: no single split reduces impurity, but admissible splits exist
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    y = np.array([0, 1, 1, 0] * 10)
    feat, thr, score = kernels.best_split(X, y, 2, 1)
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
