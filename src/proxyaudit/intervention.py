"""Proxy-use measurement: counterfactual score deltas, decision flips, ICE
curves, do-style causal interventions, and group-level use summaries.

Capacity (a column *could* reconstruct the protected attribute) and use (the
model's output *actually moves* when that column moves) are measured
separately; this module covers use. Flips, ICE sweeps, counterfactual
deltas and causal interventions reach every model kind through one scoring
path, :meth:`~proxyaudit.models.ModelHandle.score_columns`: flips hand it
the columns of distinct rows, the others rows through ``predict_batch``,
which rejects a missing value for builtins and probes alike. The flips of
one audit share a :class:`FlipKey`, which numbers the model's rows once:
over an audit, a model scores each distinct baseline row once, and each
flip's distinct counterfactual rows that are not baseline rows. A
single-row intervention scores its baseline and counterfactual rows
together in one call. Deltas for deterministic models are exact, and a
model that ignores its proxy column yields deltas of 0.0 exactly — the
capacity-without-use case.

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


def _bits(cells):
    """A feature's cells as a sort key: a category's codes as they are, a
    number's float64 bits, so ``-0.0`` and ``0.0`` stay apart."""
    return cells.view(np.int64) if cells.dtype == np.float64 else cells


class FlipKey:
    """The rows of ``d`` complete in ``m``'s features, numbered once for
    every flip of an audit. Nothing is numbered until the first flip needs
    it; then ``ids`` holds each complete row's distinct-row id (its run), in
    the narrowest unsigned type that fits. The key also holds each run's
    first row, cells and row count, the baseline score of each run a flip
    has scored (``scored`` marks them), and the baselines' interquartile
    range over every complete row once a flip without a selector has taken
    it."""

    def __init__(self, m, d):
        self.model, self.dataset = m, d
        self.ids = None

    def _number(self):
        features, d = self.model.feature_order, self.dataset
        self.complete = complete = d.complete_mask(features)
        whole = bool(complete.all())
        keys = [_bits(d.column_array(f) if whole else d.column_array(f)[complete])
                for f in features]
        self.ids, first = np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.intp)
        if keys[0].size:
            self.ids, first = _run_ids(keys)
        del keys
        if not whole:
            first = np.flatnonzero(complete)[first]
        self.first = first
        self.cells = {f: d.column_array(f)[first] for f in features}
        self.counts = np.bincount(self.ids, minlength=first.size)
        self.scores = np.zeros(first.size)
        self.scored = np.zeros(first.size, dtype=bool)
        self.iqr = None


def _run_ids(keys):
    """``(ids, first)`` of rows keyed by ``keys``: each row's distinct-row
    id, in the narrowest unsigned type that fits, and each run's first
    row."""
    order, new = kernels._lexsort_runs(keys, stable=False)
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    ids = np.empty(order.size, dtype=np.min_scalar_type(first.size - 1))
    run = 0  # the run of the row before the block
    for start in range(0, order.size, kernels._RUN_BLOCK):
        j = np.cumsum(new[start:start + kernels._RUN_BLOCK], dtype=np.intp)
        j += run - 1
        run = int(j[-1]) + 1
        ids[order[start:start + kernels._RUN_BLOCK]] = j
    return ids, first


def _iqr(base_run, run_of):
    """Interquartile range of the baselines ``base_run[run_of]``."""
    # two calls: one call for both percentiles can differ in the last bit;
    # the baselines are this function's own gather, so both may reorder it
    baselines = base_run[run_of]
    return float(np.percentile(baselines, 75, overwrite_input=True)
                 - np.percentile(baselines, 25, overwrite_input=True))


def flip_analysis(
    m, rule, d, assignments, selector=None,
    *, key=None, flip_rate_floor=0.01, score_floor_fraction=0.05,
):
    """Apply one intervention to every selected row and aggregate.

    Selection is the selector's match set (everything when absent)
    intersected with rows complete in the model's feature columns. ``key``
    numbers the rows: a :class:`FlipKey` of ``m`` and ``d`` that the flips
    of one audit share, or a new one when absent. A selector restricts its
    ids and does not re-sort. A flip's counterfactual rows are its distinct
    baseline rows (runs) with the assigned columns made constant, so runs
    that share the free features' cells share one counterfactual row, found
    by one sort of the runs' free cells; when every feature is assigned,
    that is one row. Each distinct row has a first interleaved position,
    2i for the i-th selected row's baseline and 2i + 1 for its
    counterfactual, and the rows that no flip on ``key`` has scored are
    scored in that order in one ``score_columns`` call. So a flip on a new
    key sends a probe each distinct interleaved row once, in order of first
    occurrence, and the flips sharing a key send each distinct baseline row
    once. A row error names the dataset row and which of its pair failed.
    Outcomes are counted per run, each weighed by its rows; the per-row
    deltas are the runs' differences read at each row's run, in row order,
    so their means keep the bits of a row-by-row computation. The baseline
    percentiles are taken once per key, or per flip when a selector
    restricts the rows. The records come back as a lazy, compact
    :class:`FlipRecords`.
    ``significant_influence_flag`` is set when the flip rate reaches
    ``flip_rate_floor`` or the mean absolute delta is nonzero and reaches
    ``score_floor_fraction`` of the baseline-score interquartile range.
    """
    if not assignments:
        raise ParameterError("flip_analysis needs at least one assignment")
    _check_feature_assignments(m.feature_order, assignments)
    _check_assignments_against(d.schema_of, assignments)
    if key is None:
        key = FlipKey(m, d)
    elif key.model is not m or key.dataset is not d:
        raise ParameterError("flip key numbers another model's or dataset's rows")
    if key.ids is None:
        key._number()
    n_runs = key.first.size
    if selector is None:
        mask, run_of, run_rows, first = key.complete, key.ids, key.counts, key.first
    else:
        mask = selector.mask(d) & key.complete
        run_of = key.ids[mask[key.complete]]
        run_rows = np.bincount(run_of, minlength=n_runs)
        # each run's first selected row; a run not selected comes after every row
        first = np.full(n_runs, d.n_rows)
        np.minimum.at(first, run_of, np.flatnonzero(mask))
    if not run_of.size:
        raise InsufficientDataError("no rows selected for flip analysis")

    assigned = {}  # the last one wins
    for a in assignments:
        col = d.schema_of(a.column)
        code = col.categories.index(a.value) if col.kind == CATEGORICAL else a.value
        assigned[a.column] = np.array(code, dtype=key.cells[a.column].dtype)
    # runs that share the free features' cells share one counterfactual row,
    # first met with the group's first selected row
    free = [_bits(key.cells[f]) for f in m.feature_order if f not in assigned]
    if free:
        order, new = kernels._lexsort_runs(free, stable=False)
        starts = np.flatnonzero(new)
        rep, group_first = order[starts], np.minimum.reduceat(first[order], starts)
        group_of = np.empty(n_runs, dtype=np.intp)
        group_of[order] = np.cumsum(new) - 1
        del order, new, starts
    else:
        rep, group_first = np.zeros(1, dtype=np.intp), first.min(keepdims=True)
        group_of = np.zeros(n_runs, dtype=np.intp)
    del free
    # the run, if any, whose row is its group's counterfactual row
    is_value = np.ones(n_runs, dtype=bool)
    for f, code in assigned.items():
        is_value &= _bits(key.cells[f]) == _bits(code)
    same = np.flatnonzero(is_value)  # at most one a group
    del is_value
    match = np.full(rep.size, -1, dtype=np.intp)
    match[group_of[same]] = same
    # each distinct row's first interleaved position: 2i for the i-th row's
    # baseline, 2i + 1 for its counterfactual; 2 * d.n_rows or later for none
    base_pos, cf_pos = 2 * first, 2 * group_first + 1
    base_pos[same] = np.minimum(base_pos[same], cf_pos[group_of[same]])
    todo = np.flatnonzero((base_pos < 2 * d.n_rows) & ~key.scored)
    alone = np.flatnonzero((group_first < d.n_rows) & (match < 0))
    src = np.concatenate([todo, rep[alone]])
    positions = np.concatenate([base_pos[todo], cf_pos[alone]])
    del base_pos, cf_pos, group_first, rep
    sent = np.argsort(positions)  # the positions are distinct
    src, positions = src[sent], positions[sent]
    counterfactual = positions % 2 == 1
    columns = {}
    for f in m.feature_order:
        col = d.schema_of(f)
        distinct = key.cells[f][src]
        if f in assigned:
            distinct[counterfactual] = assigned[f]
        if col.kind == CATEGORICAL:
            distinct = np.array(col.categories, dtype=object)[distinct]
        columns[f] = distinct
    del src, counterfactual
    try:
        scores = m.score_columns(columns, positions.size)
    except ValidationError as exc:
        # the model names a distinct row; its first interleaved row is a pair's
        raise _pair_error(exc, lambda k: divmod(int(positions[k]), 2)) from None
    del columns, positions
    scored = np.empty(scores.size)
    scored[sent] = scores
    key.scores[todo] = scored[:todo.size]
    key.scored[todo] = True
    # a group neither matched nor selected reads a stray score, which no row reads
    group_cf = key.scores[match]
    group_cf[alone] = scored[todo.size:]
    # each run's scores; a row's are its run's, so a count over the rows is
    # a count over the runs, each weighed by its rows
    base_run, cf_run = key.scores, group_cf[group_of]
    del scores, scored, sent, todo, alone, match, group_cf, group_of
    n = run_of.size
    # the same per-row differences, in the same order, as baseline from
    # counterfactual row by row: their means keep their bits
    deltas = (cf_run - base_run)[run_of]
    mean_delta = float(deltas.mean())
    mean_abs_delta = float(np.abs(deltas, out=deltas).mean())
    del deltas
    favourable = rule.favourable(cf_run)
    flipped = rule.favourable(base_run) != favourable
    to_unfav = int(run_rows @ (flipped & ~favourable))
    to_fav = int(run_rows @ (flipped & favourable))
    flip_rate = (to_unfav + to_fav) / n
    if selector is None and key.iqr is None:
        key.iqr = _iqr(base_run, run_of)
    iqr = key.iqr if selector is None else _iqr(base_run, run_of)
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
