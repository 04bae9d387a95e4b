"""Proxy-capacity scoring beyond pairwise association.

Two measures: exact-correspondence *purity* of a conjunctive criterion for a
protected value (with an exact binomial confidence interval), and *predictive
capacity* — chance-normalized cross-validated balanced accuracy of predicting
the protected column from a feature set, using the engine's own learner.

The learner is a CART-style decision tree with Gini impurity, written from
scratch so audits do not depend on an external ML stack, with its depth and
leaf size fixed in this module. It is private to predictive capacity: it fits
multiclass class codes inside each cross-validation fold and is never exported
as an audited model (``models.ModelSpec`` is the one model format).

Each ``predictive_capacity`` call numbers the distinct feature rows among
its complete rows once (``_fold_counts``) and counts every (fold, distinct
row, class) cell with one ``bincount``. A fold's tree fits on the nonzero
cells of the other folds, each weighted by its count, over the design matrix
of the distinct rows, ranked once (``_value_ranks``): a node is an array of
cells, and ``kernels.best_split`` sums their weights per distinct value
instead of sorting the node. Held-out rows follow the training cells down
every split to their leaf's class, and the confusion matrix behind every
statistic comes from the counts. Rows are dealt to folds in the ``np.lexsort``
order of their design rows, and a repeated row only adds weight, so the
folds, the trees and the scores are those of a fit on every row.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import kernels
from .association import counts_significance
from .data import CATEGORICAL
from .descriptors import SubgroupDescriptor
from .errors import InsufficientDataError, ParameterError, ValidationError

# Report-level thresholds on purity and the low end of its 95% interval: a
# finding at or above both marks is treated as a deterministic-link candidate;
# anything below stays in statistical-association territory.
RED_FLAG_PURITY = 0.99
RED_FLAG_CI_FLOOR = 0.95
INEXTRICABLE_LINK = "inextricable-link candidate"
STATISTICAL_ASSOCIATION = "statistical association (indirect-discrimination territory)"


def classify_link(score):
    """Label a purity score as a deterministic-link candidate or not."""
    if score.value >= RED_FLAG_PURITY and score.ci_low >= RED_FLAG_CI_FLOOR:
        return INEXTRICABLE_LINK
    return STATISTICAL_ASSOCIATION


@dataclass(frozen=True)
class CapacityScore:
    """A (proxy, protected value) capacity measurement in [0, 1]."""

    proxy: object  # SubgroupDescriptor or tuple of column names
    protected_value: object  # (column, category) or column name
    measure: str  # purity | predictive
    value: float
    support: int
    p_value: float
    ci_low: float
    ci_high: float
    warning: str = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(f"capacity value {self.value} outside [0, 1]")
        if self.support <= 0:
            raise ValidationError("capacity support must be positive")
        if not self.ci_low <= self.value <= self.ci_high:
            raise ValidationError("confidence interval must bracket the value")

    def to_json(self):
        proxy = (
            self.proxy.to_json()
            if isinstance(self.proxy, SubgroupDescriptor)
            else list(self.proxy)
        )
        out = {
            "proxy": proxy,
            "protected_value": list(self.protected_value)
            if isinstance(self.protected_value, tuple)
            else self.protected_value,
            "measure": self.measure,
            "value": self.value,
            "support": self.support,
            "p_value": self.p_value,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }
        if self.warning:
            out["warning"] = self.warning
        return out


def clopper_pearson(k, n, alpha=0.05):
    """Exact binomial (Clopper-Pearson) two-sided confidence interval."""
    if n <= 0:
        raise InsufficientDataError("empty sample")
    if not 0 <= k <= n:
        raise ParameterError(f"successes k={k} outside [0, n={n}]")
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha={alpha} outside (0, 1)")
    lo = 0.0 if k == 0 else float(special.betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(special.betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


def target_rows(d, protected_target, columns=()):
    """(present, is_target) row masks of a protected (column, category) for a
    criterion over ``columns``, which may not include the protected column."""
    column, category = protected_target
    schema = d.schema_of(column)
    if schema.kind != CATEGORICAL:
        raise ValidationError(f"protected column {column!r} must be categorical")
    if category not in schema.categories:
        raise ValidationError(f"category {category!r} not in column {column!r}")
    if column in columns:
        raise ValidationError(f"criterion references the protected column {column!r}")
    codes = d.codes(column)
    return codes >= 0, codes == schema.categories.index(category)


def exact_correspondence(d, q, protected_value):
    """Purity of criterion q for a (column, category) protected value.

    value = fraction of q-matching rows carrying the protected value, over
    rows complete in every referenced column; support = number of matching
    rows; significance = chi-squared/Fisher on the q-vs-protected 2x2 table;
    interval = 95% Clopper-Pearson bounds on the value. Every row of ``d`` is
    counted, on boolean masks over the whole table; to score a row set of one
    table, use discovery's ``beam_search`` and ``validate``, which read it.
    """
    present, is_cat = target_rows(d, protected_value, q.columns)
    # a condition never matches a missing cell, so matching rows are complete
    complete = d.complete_mask(q.columns) & present
    match = q.mask(d) & present
    support = int(np.count_nonzero(match))
    if support == 0:
        raise InsufficientDataError("criterion matches no complete rows")

    hits = int(np.count_nonzero(match & is_cat))
    value = hits / support

    outside = complete & ~match
    n_out = int(np.count_nonzero(outside))
    hits_out = int(np.count_nonzero(outside & is_cat))
    table = np.array([[hits, support - hits], [hits_out, n_out - hits_out]])
    p_value = counts_significance(table)

    lo, hi = clopper_pearson(hits, support)
    return CapacityScore(
        proxy=q,
        protected_value=tuple(protected_value),
        measure="purity",
        value=value,
        support=support,
        p_value=float(p_value),
        ci_low=lo,
        ci_high=hi,
    )


# --- internal learner --------------------------------------------------------

# the CART tree behind every predictive-capacity score
TREE_MAX_DEPTH = 3
TREE_MIN_LEAF = 5


def _design_matrix(d, features, rows):
    """Float64 learner input: numerics pass through, categoricals expand to
    one-of-K indicator columns in category order."""
    blocks = []
    for name in features:
        schema = d.schema_of(name)
        if schema.kind == CATEGORICAL:
            codes = d.codes(name)[rows]
            blocks += [(codes == c).astype(np.float64) for c in range(len(schema.categories))]
        else:
            blocks.append(d.values(name)[rows])
    return np.column_stack(blocks)


def _value_ranks(X):
    """Each column of X as (ranks, values): ``values[j]`` holds the sorted
    distinct values of column j and ``ranks[j]`` each row's index into them.
    One sort per column serves every node of every fold's tree."""
    ranks = np.empty((X.shape[1], X.shape[0]), dtype=np.intp)
    values = []
    for j in range(X.shape[1]):
        distinct, ranks[j] = np.unique(X[:, j], return_inverse=True)
        values.append(distinct)
    return ranks, values


def _fold_counts(d, features, complete, y_codes, observed, folds, n_classes, seed):
    """Deal the rows ``complete`` marks (labels ``y_codes``) to folds and
    count them by distinct feature row.

    Rows are put in the ``np.lexsort`` order of their design-matrix rows
    (first column primary, ties in row order), so the deal depends only on
    the data's content; within each observed class, in class order, they are
    permuted once and dealt round-robin. Distinct feature rows are numbered
    in that order; numeric cells compare by value, so ``-0.0`` and ``0.0``
    are one value. Returns (counts, firsts): ``counts[fold, t, class]`` rows
    of distinct feature row t, and ``firsts[t]`` one dataset row that has it.

    When every row is complete, the columns themselves are the sort keys (a
    category's negated codes, in their stored narrow type) and the sort
    order is the dataset rows. Otherwise each key is gathered at the
    complete rows, and the sorted positions are taken to dataset rows in the
    order's buffer. Either way the sort keys are read in sort order a block
    at a time and go once the rows are sorted, labels deal in the narrowest
    integer type, each class's shuffle is taken into its index's buffer, and
    the ``bincount`` index is built in place.
    """
    every_row = bool(complete.all())
    keys = []
    for name in features:
        if d.schema_of(name).kind == CATEGORICAL:
            # a one-of-K block sorts with its last category lowest; a
            # gathered copy of the codes is negated in place
            codes = d.codes(name) if every_row else d.codes(name)[complete]
            keys.append(np.negative(codes, out=None if every_row else codes))
        else:
            keys.append(d.values(name) if every_row else d.values(name)[complete])
    rows, new = kernels._lexsort_runs(keys)
    del keys
    if not every_row:
        # each sorted row's dataset row (indices always valid)
        np.take(np.flatnonzero(complete), rows, out=rows, mode="clip")
    firsts = rows[new]
    y = y_codes[rows].astype(np.min_scalar_type(n_classes))
    del rows
    index = np.empty(y.shape[0], dtype=np.int64)  # each row's fold, then its cell
    rng = np.random.default_rng(seed)
    for c in observed:
        at = np.flatnonzero(y == c)
        perm = rng.permutation(at.shape[0])
        np.take(at, perm, out=perm, mode="clip")
        del at
        # the p-th row of the shuffled class goes to fold p % folds
        for fold in range(folds):
            index[perm[fold::folds]] = fold
        del perm
    # index = (fold * n_distinct + distinct row) * n_classes + class, with
    # the narrow labels added into the int64 buffer, never multiplied
    n_distinct = firsts.shape[0]
    index *= n_distinct * n_classes
    index += y
    del y
    new[0] = False
    # each row's distinct row: an int64 copy of the flags summed in place (a
    # cumsum of the flags into int64 would cast a copy of them first)
    ids = new.astype(np.int64)
    del new
    np.cumsum(ids, out=ids)
    ids *= n_classes
    index += ids
    del ids
    counts = np.bincount(index, minlength=folds * n_distinct * n_classes)
    del index
    # int32 halves the table, which has a cell per distinct row when no row
    # repeats; a cell counts at most ``complete.sum()`` rows
    counts = counts.astype(np.int32).reshape(folds, n_distinct, n_classes)
    return counts, firsts


class _CartTree:
    """CART-style classifier: Gini impurity, deterministic tie-breaks,
    zero-gain splits allowed while a node is impure. It fits on weighted
    cells of a ranked table (``_value_ranks``) and classifies held-out rows
    of the same table as it splits."""

    def __init__(self, max_depth, min_leaf):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.nodes = []  # dicts: split {feat, thr, left, right} | leaf {counts}

    def fit(self, ranks, values, rows, y, weights, n_classes, held=()):
        """Fit on weighted cells: cell i is row ``rows[i]`` of the ranked
        table with label ``y[i]``, counted ``weights[i]`` times. The tree is
        the one a fit on every row, each cell repeated, would give. Table
        row r in ``held`` goes down with the cells, and ``predicted[r]`` is
        its leaf's most frequent training class (the lowest on a tie, 0 in a
        leaf no training row reached)."""
        self.n_classes = n_classes
        self.predicted = np.zeros(ranks.shape[1], dtype=np.int64)
        self._build(ranks, values, rows, y, weights, np.asarray(held, dtype=np.intp), depth=0)
        return self

    def _build(self, ranks, values, rows, y, weights, held, depth):
        index = len(self.nodes)
        counts = np.bincount(y, weights=weights, minlength=self.n_classes).astype(np.int64)
        node = {"counts": counts}
        self.nodes.append(node)
        # held rows take this node's class until a split's leaves overwrite it
        self.predicted[held] = np.argmax(counts)
        pure = np.count_nonzero(counts) <= 1
        if depth >= self.max_depth or pure or counts.sum() < 2 * self.min_leaf:
            return index
        feat, thr, _score = kernels.best_split(
            ranks, values, rows, y, weights, self.n_classes, self.min_leaf
        )
        if feat < 0:
            return index
        # compare values, not ranks, for training cells and held rows alike
        left = values[feat][ranks[feat][rows]] < thr
        held_left = values[feat][ranks[feat][held]] < thr
        node["feat"] = int(feat)
        node["thr"] = float(thr)
        # compress: a boolean index is several times slower on large nodes
        right = ~left
        node["left"] = self._build(ranks, values, rows.compress(left), y.compress(left),
                                   weights.compress(left), held.compress(held_left), depth + 1)
        node["right"] = self._build(ranks, values, rows.compress(right), y.compress(right),
                                    weights.compress(right), held.compress(~held_left), depth + 1)
        return index


def balanced_accuracy(confusion):
    """Mean per-class recall over the classes present: row c of the
    confusion matrix counts the rows of class c by predicted class."""
    recalls = [int(row[c]) / int(row.sum()) for c, row in enumerate(confusion) if row.any()]
    return float(np.mean(recalls))


def check_proxy_set(proxy_set, protected, schema):
    """Raise ``ValidationError`` unless ``proxy_set`` names one or more
    columns of ``schema`` (a sequence of ``ColumnSchema``), none of them in
    ``protected``, so no data is needed."""
    if not proxy_set:
        raise ValidationError("proxy_set must be non-empty")
    names = {c.name for c in schema}
    for name in proxy_set:
        if name not in names:
            raise ValidationError(f"unknown column {name!r}")
        if name in protected:
            raise ValidationError(f"proxy set references the protected column {name!r}")


def predictive_capacity(d, proxy_set, protected, *, folds=5, seed=0):
    """Chance-normalized CV balanced accuracy of predicting the protected
    column from a feature set: value = max(0, (b - 1/k) / (1 - 1/k)). Folds
    merged for a rare class are noted in the score's ``warning``, not warned."""
    check_proxy_set(proxy_set, (protected,), d.schema)
    if folds < 2:
        raise ParameterError("folds must be at least 2")
    schema = d.schema_of(protected)
    if schema.kind != CATEGORICAL:
        raise ValidationError(f"protected column {protected!r} must be categorical")

    complete = d.complete_mask(list(proxy_set) + [protected])
    support = int(np.count_nonzero(complete))
    if support < 2:
        raise InsufficientDataError("fewer than 2 complete rows")
    y_codes = d.codes(protected)
    class_counts = np.bincount(y_codes[complete], minlength=len(schema.categories))
    observed = np.nonzero(class_counts)[0]
    k = observed.size
    if k < 2:
        raise InsufficientDataError(
            f"protected column {protected!r} has a single category on complete rows"
        )
    min_count = int(class_counts[observed].min())
    if min_count < 2:
        raise InsufficientDataError(
            "the rarest protected category has fewer than 2 rows; cannot cross-validate"
        )
    effective_folds = min(folds, min_count)
    warning = None
    if effective_folds < folds:
        warning = f"class counts below {folds} folds; refit with {effective_folds} merged folds"

    n_classes = len(schema.categories)
    counts, firsts = _fold_counts(
        d, proxy_set, complete, y_codes, observed, effective_folds, n_classes, seed
    )
    ranks, values = _value_ranks(_design_matrix(d, proxy_set, firsts))
    total = counts.sum(axis=0)
    # whole numbers, exact in float64 below 2**53
    confusion = np.zeros((n_classes, n_classes))
    for f in range(effective_folds):
        others = total - counts[f]
        train, label = np.nonzero(others)
        held = np.nonzero(counts[f].any(axis=1))[0]
        predicted = _CartTree(TREE_MAX_DEPTH, TREE_MIN_LEAF).fit(
            ranks, values, train, label, others[train, label].astype(np.float64), n_classes, held
        ).predicted[held]
        for c in range(n_classes):
            confusion[c] += np.bincount(predicted, weights=counts[f, held, c],
                                        minlength=n_classes)
    confusion = confusion.astype(np.int64)

    b = balanced_accuracy(confusion)
    chance = 1.0 / k
    value = max(0.0, (b - chance) / (1.0 - chance))

    # conservative interval: exact binomial bounds per class recall, averaged,
    # then chance-normalized
    los, his = [], []
    for c in observed:
        lo, hi = clopper_pearson(int(confusion[c, c]), int(confusion[c].sum()))
        los.append(lo)
        his.append(hi)
    value_lo = max(0.0, (float(np.mean(los)) - chance) / (1.0 - chance))
    value_hi = max(0.0, (float(np.mean(his)) - chance) / (1.0 - chance))
    value_lo, value_hi = min(value_lo, value), max(value_hi, value)

    p_value = counts_significance(confusion)

    return CapacityScore(
        proxy=tuple(proxy_set),
        protected_value=protected,
        measure="predictive",
        value=value,
        support=support,
        p_value=float(p_value),
        ci_low=value_lo,
        ci_high=value_hi,
        warning=warning,
    )
