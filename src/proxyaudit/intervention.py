"""Proxy-use measurement: counterfactual score deltas, decision flips, ICE
curves, do-style causal interventions, and group-level use summaries.

Capacity (a column *could* reconstruct the protected attribute) and use (the
model's output *actually moves* when that column moves) are measured
separately; this module covers use. Flips, ICE sweeps, counterfactual
deltas and causal interventions reach every model kind through one scoring
path, :meth:`~proxyaudit.models.ModelHandle.score_columns`: flips hand it
the columns of each distinct dataset row once, the others rows through
``predict_batch``, which rejects a missing value for builtins and probes
alike. Baseline and counterfactual rows are scored together in one call, so
deltas for deterministic models are exact, and a model that ignores its
proxy column yields deltas of 0.0 exactly — the capacity-without-use case.

Causal mode propagates an assignment through a
:class:`~proxyaudit.synth.CausalGraphSpec` before scoring: nodes with a
changed parent are recomputed in topological order by the sampler's own
:func:`~proxyaudit.synth.node_values` (do-intervention semantics), after the
assignments and the observed row pass the flip analysis's value check. Noise
is held fixed where the mechanism is invertible (linear-Gaussian residuals)
and re-drawn from a fixed-seed generator where it is not; full abduction is
deliberately out of scope.
"""
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import CATEGORICAL
from .errors import (
    GraphError,
    InsufficientDataError,
    ParameterError,
    ValidationError,
)
from .models import _is_real, decide

TOWARD_UNFAVOURABLE = "toward_unfavourable"
TOWARD_FAVOURABLE = "toward_favourable"
MIXED = "mixed"


@dataclass(frozen=True)
class Assignment:
    """Set one column to a fixed value (a category string or a real)."""

    column: str
    value: object

    def to_json(self):
        return {"column": self.column, "value": self.value}


@dataclass(frozen=True)
class InterventionRecord:
    """One row's baseline-vs-counterfactual comparison."""

    row_index: int
    baseline_score: float
    counterfactual_score: float
    delta: float
    baseline_outcome: str = None
    counterfactual_outcome: str = None
    flipped: bool = False

    def __post_init__(self):
        if self.delta != self.counterfactual_score - self.baseline_score:
            raise ValidationError("delta must equal counterfactual - baseline")
        if self.flipped != (
            self.baseline_outcome is not None
            and self.baseline_outcome != self.counterfactual_outcome
        ):
            raise ValidationError("flipped must mirror an outcome change")

    def to_json(self):
        return {
            "row_index": self.row_index,
            "baseline_score": self.baseline_score,
            "counterfactual_score": self.counterfactual_score,
            "delta": self.delta,
            "baseline_outcome": self.baseline_outcome,
            "counterfactual_outcome": self.counterfactual_outcome,
            "flipped": self.flipped,
        }


@dataclass(frozen=True)
class ICECurve:
    """Model score swept over one column's value range, all else held fixed."""

    row_index: int
    column: str
    grid: tuple
    scores: tuple

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "scores", tuple(self.scores))
        if len(self.grid) != len(self.scores):
            raise ValidationError("grid and scores must have equal length")
        numeric = all(isinstance(v, (int, float)) for v in self.grid)
        if numeric and any(
            b <= a for a, b in zip(self.grid, self.grid[1:])
        ):
            raise ValidationError("numeric grid must be strictly increasing")

    def to_json(self):
        return {
            "row_index": self.row_index,
            "column": self.column,
            "grid": list(self.grid),
            "scores": list(self.scores),
        }


@dataclass(frozen=True)
class UseSummary:
    """Group-level aggregate of one intervention applied to many rows."""

    assignments: tuple
    n: int
    mean_delta: float
    mean_abs_delta: float
    flip_count: int
    flip_rate: float
    direction_of_harm: str
    significant_influence_flag: bool

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))
        if self.n < 1:
            raise ValidationError("summary needs at least one row")
        if self.flip_rate != self.flip_count / self.n:
            raise ValidationError("flip_rate must equal flip_count / n")
        if self.direction_of_harm not in (
            TOWARD_UNFAVOURABLE, TOWARD_FAVOURABLE, MIXED,
        ):
            raise ValidationError(
                f"unknown direction_of_harm {self.direction_of_harm!r}"
            )

    def to_json(self):
        return {
            "assignments": [a.to_json() for a in self.assignments],
            "n": self.n,
            "mean_delta": self.mean_delta,
            "mean_abs_delta": self.mean_abs_delta,
            "flip_count": self.flip_count,
            "flip_rate": self.flip_rate,
            "direction_of_harm": self.direction_of_harm,
            "significant_influence_flag": self.significant_influence_flag,
        }


# --- single-row interventions --------------------------------------------------


def _check_feature_assignments(feature_order, assignments):
    for a in assignments:
        if a.column not in feature_order:
            raise ValidationError(
                f"assignment targets {a.column!r}, which the model does not read"
            )


def _with_assignments(row, assignments):
    out = dict(row)
    for a in assignments:
        out[a.column] = a.value
    return out


def _score_pair(m, row, cf_row, rule, row_index):
    """Record of ``row`` scored as observed and as ``cf_row`` in one
    ``predict_batch`` call. A row error names the dataset row once and says
    which of the two rows failed."""
    try:
        base, cf = m.predict_batch([row, cf_row])
    except ValidationError as exc:
        # predict_batch names the failing row by its position: "row 0" or "row 1"
        raise _pair_error(exc, lambda k: (row_index, k)) from None
    return _record_from_scores(base, cf, rule, row_index)


def _pair_error(exc, locate):
    """``exc``, which names a scored row ``k``, renamed to name dataset row
    ``locate(k)[0]`` and its observed (0) or counterfactual (1) row."""
    position, _, detail = str(exc).partition(": ")
    row, side = locate(int(position.removeprefix("row ")))
    return ValidationError(f"row {row} ({'counterfactual' if side else 'observed'}): {detail}")


def _record_from_scores(base, cf, rule, row_index):
    base_out = cf_out = None
    if rule is not None:
        base_out, cf_out = decide(rule, base), decide(rule, cf)
    return InterventionRecord(
        row_index=row_index,
        baseline_score=base,
        counterfactual_score=cf,
        delta=cf - base,
        baseline_outcome=base_out,
        counterfactual_outcome=cf_out,
        flipped=base_out is not None and base_out != cf_out,
    )


def counterfactual_delta(m, row, assignments, *, rule=None, row_index=-1):
    """Score one row as observed and with the assignments applied.

    Both rows go through one ``predict_batch`` call, so for deterministic
    models an empty assignment list yields a delta of exactly 0.0. Without a
    decision rule the outcome fields are None and ``flipped`` is False.
    """
    _check_feature_assignments(m.feature_order, assignments)
    return _score_pair(m, row, _with_assignments(row, assignments), rule, row_index)


def ice_curve(
    m, row, column, grid_size=20,
    *, dataset=None, value_range=None, categories=None, row_index=-1,
):
    """Model score swept over one column, everything else held at the row.

    Numeric columns need a range: either ``value_range=(lo, hi)`` or a
    ``dataset`` whose observed min..max supplies it; the grid is
    ``grid_size`` equally spaced points. Categorical columns sweep the full
    category list in schema order (``categories`` or the dataset schema), so
    the row's own value appears on the grid and reproduces the baseline
    score exactly.
    """
    _check_feature_assignments(m.feature_order, (Assignment(column, None),))
    grid = None
    if categories is not None:
        grid = tuple(categories)
    elif dataset is not None and dataset.schema_of(column).kind == CATEGORICAL:
        grid = dataset.schema_of(column).categories
    if grid is None:
        if value_range is not None:
            lo, hi = float(value_range[0]), float(value_range[1])
        elif dataset is not None:
            values = dataset.column_array(column)
            values = values[~np.isnan(values)]
            if values.size == 0 or values.min() == values.max():
                raise InsufficientDataError(
                    f"column {column!r} has fewer than 2 distinct observed values to span"
                )
            lo, hi = float(values.min()), float(values.max())
        else:
            raise ParameterError(
                "numeric sweep needs value_range or a dataset to take the "
                "observed range from"
            )
        if grid_size < 2:
            raise ParameterError("numeric grid needs at least 2 points")
        if not lo < hi:
            raise ParameterError(f"degenerate sweep range [{lo}, {hi}]")
        grid = tuple(float(v) for v in np.linspace(lo, hi, grid_size))
    rows = [_with_assignments(row, (Assignment(column, v),)) for v in grid]
    return ICECurve(row_index=row_index, column=column, grid=grid, scores=m.predict_batch(rows))


# --- group-level flips ----------------------------------------------------------


class FlipRecords(Sequence):
    """The per-row records of a flip analysis, in row order, each built when
    indexed. Record i is the i-th row ``mask`` selects, of run ``run_of[i]``
    (a distinct baseline row), scored ``baselines[run_of[i]]`` and
    ``counterfactuals[run_of[i]]``: one number a record; the row numbers are
    built once, on first access."""

    def __init__(self, mask, baselines, counterfactuals, run_of, rule):
        self._rows, self._mask, self._run_of = None, mask, run_of
        self._scores = baselines, counterfactuals, rule

    def __len__(self):
        return len(self._run_of)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        if self._rows is None:
            self._rows = np.flatnonzero(self._mask)
        row = int(self._rows[k])
        base, cf, rule = self._scores
        at = self._run_of[k]
        return _record_from_scores(float(base[at]), float(cf[at]), rule, row)


def _check_assignments_against(schema_of, assignments, what="assignment"):
    """Each value is a category of its column, or a real for a numeric one."""
    for a in assignments:
        col = schema_of(a.column)
        if col.kind == CATEGORICAL:
            if a.value not in col.categories:
                raise ValidationError(
                    f"{what} {a.column!r}={a.value!r}: unknown category"
                )
        elif not _is_real(a.value):
            raise ValidationError(
                f"{what} {a.column!r}={a.value!r}: numeric column needs a real"
            )


def _pair_rows(d, features, mask, assigned):
    """Number the distinct rows among the interleaved baseline (position
    ``2i``) and counterfactual (``2i + 1``) rows of the i-th of the rows
    ``mask`` selects, with no interleaved copy. Returns ``(firsts, run_of,
    run_base, run_cf)``: ``firsts`` holds each distinct row's first position,
    in increasing order, and row i's baseline is distinct row
    ``run_base[run_of[i]]``, its counterfactual ``run_cf[run_of[i]]``.

    Each feature keys the selected rows by its stored cells: a category by
    its code, in the column's own type, a number by its float64 bits, so
    ``-0.0`` and ``0.0`` stay apart. One stable :func:`kernels._lexsort_runs`
    over the free features' keys, then the assigned ones', puts the rows in
    runs, one per distinct baseline row, and the runs that share the free
    features' cells side by side: such a group shares one counterfactual
    row, which is also the group's run whose assigned cells are the assigned
    values, if it has one."""
    free, fixed, value = [], [], []
    for f in features:
        key = d.column_array(f)[mask]
        if d.schema_of(f).kind == CATEGORICAL:
            v = d.categories(f).index(assigned[f]) if f in assigned else None
        else:
            key = key.view(np.int64)
            v = np.float64(assigned[f]).view(np.int64) if f in assigned else None
        if f in assigned:
            fixed.append(key)
            value.append(v)
        else:
            free.append(key)
    order, new = kernels._lexsort_runs(free + fixed)  # a run per distinct baseline row
    starts = np.flatnonzero(new)
    run_first = order[starts]  # the sort is stable: each run's first row
    is_value = np.ones(starts.size, dtype=bool)
    for key, v in zip(fixed, value):
        is_value &= key[run_first] == v
    del fixed, key
    group_new = np.zeros(order.size, dtype=bool)
    group_new[0] = True
    kernels._mark_runs(free, order, group_new)
    del free
    group_new = group_new[starts]  # a group starts with a run
    del starts
    run_of = np.empty(order.size, dtype=np.int64)
    # a run's index counts the runs started after the first
    new[0] = False
    runs = 0
    for start in range(0, order.size, kernels._RUN_BLOCK):
        ids = np.cumsum(new[start:start + kernels._RUN_BLOCK], dtype=np.int64)
        ids += runs
        runs = int(ids[-1])
        run_of[order[start:start + kernels._RUN_BLOCK]] = ids
    del order, new
    group_of = np.cumsum(group_new) - 1
    # each group's counterfactual row is first met with the group's first row
    group_pos = 2 * np.minimum.reduceat(run_first, np.flatnonzero(group_new)) + 1
    del group_new
    run_pos = 2 * run_first
    same = np.flatnonzero(is_value)  # at most one per group
    del is_value
    run_pos[same] = np.minimum(run_pos[same], group_pos[group_of[same]])
    alone = np.ones(group_pos.size, dtype=bool)
    alone[group_of[same]] = False
    positions = np.concatenate([run_pos, group_pos[alone]])
    by_first = np.argsort(positions)  # the positions are distinct
    rank = np.empty(positions.size, dtype=np.intp)
    rank[by_first] = np.arange(positions.size)
    run_base = rank[: run_pos.size]
    group_cf = np.empty(group_pos.size, dtype=np.intp)
    group_cf[alone] = rank[run_pos.size:]
    group_cf[group_of[same]] = run_base[same]
    return positions[by_first], run_of, run_base, group_cf[group_of]


def flip_analysis(
    m, rule, d, assignments, selector=None,
    *, flip_rate_floor=0.01, score_floor_fraction=0.05,
):
    """Apply one intervention to every selected row and aggregate.

    Selection is the selector's match set (everything when absent)
    intersected with rows complete in the model's feature columns. Baseline
    and counterfactual rows are interleaved, and each distinct one is scored
    once, in order of first occurrence, in one ``score_columns`` call: a
    model reading one two-valued column scores two rows. Rows are keyed by
    the dataset's typed cells, and numbered by one stable lexsort of the
    selected rows' cells with no 2n-row copy (:func:`_pair_rows`). A row
    error names the dataset row and which of its pair failed. Outcomes are
    counted per distinct baseline row (a run), each weighed by its rows; the
    per-row deltas are the runs' differences read at each row's run, and the
    baselines are gathered only for the two percentiles. The records come
    back as a lazy, compact :class:`FlipRecords`.
    ``significant_influence_flag`` is set when the flip rate reaches
    ``flip_rate_floor`` or the mean absolute delta is nonzero and reaches
    ``score_floor_fraction`` of the baseline-score interquartile range.
    """
    if not assignments:
        raise ParameterError("flip_analysis needs at least one assignment")
    _check_feature_assignments(m.feature_order, assignments)
    _check_assignments_against(d.schema_of, assignments)
    mask = np.ones(d.n_rows, dtype=bool)
    if selector is not None:
        mask &= selector.mask(d)
    mask &= d.complete_mask(m.feature_order)
    if not mask.any():
        raise InsufficientDataError("no rows selected for flip analysis")

    assigned = {a.column: a.value for a in assignments}  # the last one wins
    firsts, run_of, run_base, run_cf = _pair_rows(d, m.feature_order, mask, assigned)
    rows, counterfactual = np.flatnonzero(mask)[firsts // 2], firsts % 2 == 1
    columns = {}
    for f in m.feature_order:
        col = d.schema_of(f)
        distinct = d.column_array(f)[rows]
        if f in assigned:
            value = assigned[f]
            distinct[counterfactual] = col.categories.index(value) if col.kind == CATEGORICAL else value
        if col.kind == CATEGORICAL:
            distinct = np.array(col.categories, dtype=object)[distinct]
        columns[f] = distinct
    del counterfactual
    try:
        scores = m.score_columns(columns, firsts.size)
    except ValidationError as exc:
        # the model names a distinct row; its first interleaved row is a pair's
        raise _pair_error(exc, lambda k: (int(rows[k]), int(firsts[k] % 2))) from None
    del columns, rows
    # each run's scores; a row's are its run's, so a count over the rows is
    # a count over the runs, each weighed by its rows
    base_run, cf_run = scores[run_base], scores[run_cf]
    del scores, run_base, run_cf
    n = run_of.size
    # the same per-row differences, in the same order, as baseline from
    # counterfactual row by row: their means keep their bits
    deltas = (cf_run - base_run)[run_of]
    mean_delta = float(deltas.mean())
    mean_abs_delta = float(np.abs(deltas, out=deltas).mean())
    del deltas
    favourable = rule.favourable(cf_run)
    flipped = rule.favourable(base_run) != favourable
    run_rows = np.bincount(run_of, minlength=base_run.size)
    to_unfav = int(run_rows[flipped & ~favourable].sum())
    to_fav = int(run_rows[flipped & favourable].sum())
    del run_rows
    flip_rate = (to_unfav + to_fav) / n
    # two calls: one call for both percentiles can differ in the last bit;
    # the baselines are this function's own gather, so both may reorder it
    baselines = base_run[run_of]
    iqr = float(np.percentile(baselines, 75, overwrite_input=True)
                - np.percentile(baselines, 25, overwrite_input=True))
    del baselines
    significant = flip_rate >= flip_rate_floor or (
        mean_abs_delta > 0 and mean_abs_delta >= score_floor_fraction * iqr
    )
    if to_unfav and not to_fav:
        direction = TOWARD_UNFAVOURABLE
    elif to_fav and not to_unfav:
        direction = TOWARD_FAVOURABLE
    else:
        direction = MIXED
    summary = UseSummary(
        assignments=tuple(assignments),
        n=n,
        mean_delta=mean_delta,
        mean_abs_delta=mean_abs_delta,
        flip_count=to_unfav + to_fav,
        flip_rate=flip_rate,
        direction_of_harm=direction,
        significant_influence_flag=significant,
    )
    return summary, FlipRecords(mask, base_run, cf_run, run_of, rule)


# --- causal mode ----------------------------------------------------------------


def _require_node_values(g, row):
    missing = [n for n in g.node_names if n not in row or row[n] is None]
    if missing:
        raise ValidationError(
            f"row lacks values for graph nodes {sorted(missing)}"
        )


def _node_arrays(schema, row):
    """A row's node values as one-row category-code or float arrays."""
    return {
        n: np.array([c.categories.index(row[n]) if c.kind == CATEGORICAL else float(row[n])])
        for n, c in schema.items()
    }


def causal_intervention(scm, m, row, assignments, *, seed=0, rule=None, row_index=-1):
    """Do-intervention: assign, recompute descendants, then score.

    Assignments may target any graph node, including ones the model never
    reads — the effect then flows through recomputed descendants (a node
    whose parents end up unchanged keeps its observed value). Linear-Gaussian
    mechanisms preserve the noise implied by the observed row; probability
    tables are re-drawn from a generator seeded with ``seed``. An
    intervention on a sink node reduces to :func:`counterfactual_delta`.
    """
    from .synth import node_values  # only causal interventions need the sampler

    node_names = set(scm.node_names)
    missing_features = [f for f in m.feature_order if f not in node_names]
    if missing_features:
        raise GraphError(
            f"graph does not cover model features {sorted(missing_features)}"
        )
    for a in assignments:
        if a.column not in node_names:
            raise GraphError(f"assignment targets non-node column {a.column!r}")
    _require_node_values(scm, row)
    schema = {col.name: col for col in scm.schema}
    _check_assignments_against(schema.get, assignments)
    _check_assignments_against(
        schema.get, [Assignment(n, row[n]) for n in scm.node_names], "observed"
    )

    cf_row = _with_assignments(row, assignments)
    observed, values = _node_arrays(schema, row), _node_arrays(schema, cf_row)
    assigned = {a.column for a in assignments}
    rng = np.random.default_rng(seed)
    for name in scm.topological_order():
        if name in assigned or all(
            values[p][0] == observed[p][0] for p in scm.parents_of(name)
        ):
            continue  # undisturbed: keep the observed value
        noise = None
        if scm.mechanisms[name]["kind"] == "linear_gaussian":
            # the observed residual; x + -0.0 is exactly x
            noise = observed[name] - node_values(scm, name, observed, 1, rng, -0.0)
        values[name] = node_values(scm, name, values, 1, rng, noise)
        value, col = values[name][0], schema[name]
        cf_row[name] = col.categories[value] if col.kind == CATEGORICAL else float(value)

    return _score_pair(m, row, cf_row, rule, row_index)
