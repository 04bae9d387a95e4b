"""Categorical codes kept in their narrowest integer type give the outputs
that int64 codes give.

``oracles.widened(d)`` is ``d`` with every code array copied to int64. The
association scan, predictive capacity, beam search and validation, flip
analysis with and without a selector, and the dataset fingerprint must give
equal outputs on both, every float to the bit. Category counts straddle the
int8 and int16 ranges, every column holds its top code (127 where it is
int8's largest), and the flips' all-categorical models key more distinct
rows than int8 or int16 holds. The sites that widen codes before arithmetic
are ``discovery._targets_of`` and ``report.dataset_fingerprint``; those that
stay safe on narrow codes are ``kernels.joint_counts`` (an intp copy of
``a_codes``), ``capacity._fold_counts`` (a key negated in
``min_scalar_type(-k)`` and labels in ``min_scalar_type(n_classes)``),
``intervention._pair_rows`` (codes only sorted and compared, in their own
type) and ``flip_analysis`` (a category's code written into a gathered copy
of its own column).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyaudit import report, synth
from proxyaudit.association import association_scan
from proxyaudit.capacity import predictive_capacity
from proxyaudit.data import CATEGORICAL, NUMERIC, AuditConfig, ColumnSchema, Dataset, load_csv
from proxyaudit.descriptors import Condition, SubgroupDescriptor
from proxyaudit.discovery import beam_search, validate
from proxyaudit.errors import InsufficientDataError
from proxyaudit.intervention import Assignment, flip_analysis
from proxyaudit.models import BuiltinModelHandle, DecisionRule, ModelSpec

import oracles

CATEGORY_COUNTS = (1, 2, 127, 128, 129, 300)


def bits(x):
    """``x`` as nested lists, with every float as its ``.hex()``."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return [type(x).__name__, bits(dataclasses.astuple(x))]
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return bits(x.tolist())
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    return x


def outcome(run, *args, **kwargs):
    """The bits of ``run``'s result, or the text of the data error it raised."""
    try:
        return bits(run(*args, **kwargs))
    except InsufficientDataError as exc:
        return str(exc)


@st.composite
def tables(draw):
    """A protected column, two or three categorical candidates and a numeric
    one, some cells missing. Each categorical column uses a few of its
    categories, its top code among them; the protected column follows the
    first candidate on about half the rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 250))
    missing = draw(st.sampled_from((0.0, 0.1)))

    def codes(k):
        used = np.unique(np.append(rng.choice(k, min(k, int(rng.integers(1, 4))), replace=False),
                                   k - 1))
        cells = rng.choice(used, n)
        cells[rng.random(n) < missing] = -1
        cells[rng.integers(0, n)] = k - 1
        return cells

    schema, columns = [], {}
    for j, k in enumerate(draw(st.lists(st.sampled_from(CATEGORY_COUNTS), min_size=2,
                                        max_size=3))):
        schema.append(ColumnSchema(f"c{j}", CATEGORICAL, tuple(f"v{i}" for i in range(k))))
        columns[f"c{j}"] = codes(k)
    schema.append(ColumnSchema("x", NUMERIC))
    columns["x"] = rng.integers(-3, 4, n) * 0.75
    columns["x"][rng.random(n) < missing] = np.nan
    k_p = draw(st.sampled_from((2, 128, 129, 300)))
    p = codes(k_p)
    follows = rng.random(n) < 0.5
    p[follows] = columns["c0"][follows] % k_p
    p[rng.integers(0, n)] = k_p - 1
    schema.append(ColumnSchema("p", CATEGORICAL, tuple(f"p{i}" for i in range(k_p))))
    columns["p"] = p
    return Dataset(schema, columns), rng


@settings(max_examples=60, deadline=None)
@given(tables(), st.data())
def test_narrow_codes_give_the_outputs_of_int64_codes(case, data):
    d, rng = case
    wide = oracles.widened(d)
    categorical = [c.name for c in d.schema if c.kind == CATEGORICAL and c.name != "p"]
    assert all(d.codes(name).dtype.itemsize < 8 for name in categorical)
    assert all(wide.codes(name).dtype == np.int64 for name in categorical)
    candidates = tuple(categorical) + ("x",)

    for table in (d, wide):
        assert d.equals(table) and table.equals(d)
    assert report.dataset_fingerprint(d) == report.dataset_fingerprint(wide)

    def both(run, *args, **kwargs):
        assert outcome(run, d, *args, **kwargs) == outcome(run, wide, *args, **kwargs)

    both(association_scan, ("p",), candidates, bins=3)
    both(predictive_capacity, tuple(categorical), "p", folds=3, seed=1)
    both(predictive_capacity, candidates, "p", folds=2, seed=2)

    config = AuditConfig(protected=("p",), candidates=candidates)
    train = np.flatnonzero(rng.random(d.n_rows) < 0.6)
    holdout = np.setdiff1d(np.arange(d.n_rows), train)
    kwargs = {"beam_width": 2, "max_depth": 2, "min_support": 1, "top_k": 6, "bins": 3}
    for rows in (None, train):
        got = beam_search(d, config, rows=rows, **kwargs)
        assert bits(got) == bits(beam_search(wide, config, rows=rows, **kwargs))
        assert bits(validate(got, d, 7, rows=holdout)) == bits(validate(got, wide, 7, rows=holdout))

    # a model on every categorical candidate: its distinct rows outnumber
    # int8's range, and int16's where two columns hold 129 or more
    features = tuple(categorical) + (("x",) if data.draw(st.booleans()) else ())
    coefficients = {"x": 0.5}
    for name in categorical:
        for cat in rng.choice(d.categories(name), 3):
            coefficients[f"{name}={cat}"] = float(rng.normal())
    m = BuiltinModelHandle(ModelSpec(
        "linear", {"coefficients": {k: v for k, v in coefficients.items()
                                    if k.split("=")[0] in features},
                   "intercept": -0.25}, features))
    rule = DecisionRule(0.0, "score_above")
    top = d.categories("c0")[-1]
    assignments = [
        Assignment(f, float(data.draw(st.sampled_from((0.0, 1.5)))) if f == "x"
                   else data.draw(st.sampled_from((d.categories(f)[0], d.categories(f)[-1]))))
        for f in data.draw(st.lists(st.sampled_from(features), min_size=1, unique=True))
    ]

    def flips(analyse, t, selector):
        summary, records = analyse(m, rule, t, assignments, selector)
        return summary, list(records)

    for selector in (None, SubgroupDescriptor((Condition.equals("c0", top),)),
                     SubgroupDescriptor((Condition.interval("x", lo=0.0),))):
        got = outcome(flips, flip_analysis, d, selector)
        assert got == outcome(flips, flip_analysis, wide, selector)
        assert got == outcome(flips, oracles.flip_analysis_reference, wide, selector)


def test_james_table_holds_ten_bytes_a_row(tmp_path):
    """Two two-category columns in int8 and ages in float64."""
    n = 5_000
    d = synth.preset("james").sample(n, seed=1)
    path = tmp_path / "james.csv"
    d.to_csv(path)
    for table in (d, load_csv(path, d.schema)):
        dtypes = [table.column_array(c.name).dtype for c in table.schema]
        assert dtypes == [np.int8, np.float64, np.int8]
        assert sum(table.column_array(c.name).nbytes for c in table.schema) == 10 * n


@pytest.mark.parametrize("k, dtype", [(1, np.int8), (128, np.int8), (129, np.int16),
                                      (32_768, np.int16), (32_769, np.int32)])
def test_codes_take_the_narrowest_type_that_holds_them(k, dtype):
    col = ColumnSchema("c", CATEGORICAL, tuple(map(str, range(k))))
    d = Dataset([col], {"c": np.array([-1, k - 1, 0])})
    assert col.dtype == dtype and d.codes("c").dtype == dtype
    assert d.codes("c").tolist() == [-1, k - 1, 0]
    assert [d.cell(i, "c") for i in range(3)] == [None, str(k - 1), "0"]
