"""Hot numeric kernels, in plain numpy.

``joint_counts`` builds the contingency tables behind the association scan;
``best_split`` is the Gini split scan of the CART learner behind predictive
capacity. Callers look both up as module attributes at call time, so they
can be wrapped (for tracing) without touching the callers.
``_lexsort_runs`` is the package's one numbering of distinct feature rows:
predictive capacity's folds use it, and flip analysis numbers the model's
rows with it once per audit, then a flip's distinct rows by the features it
leaves free. ``_mark_runs`` finds the runs of equal rows in a sort order.

``best_split`` sorts nothing. Its caller ranks each feature column once
(the sorted distinct values and every table row's rank among them), and a
tree node is an array of weighted cells: a table row, a class label and a
count. Per node and column, a weighted ``bincount`` over the ranks gives the
weight at each distinct value, and one over ``rank * n_classes + label`` its
class counts; a ``cumsum`` over the values present in the node gives the
exact left-side counts at every boundary between them. This is a histogram
split with one bin per distinct value, so it finds the split a full sort of
the node's rows, each cell repeated by its count, would find. Counts are
whole numbers held as float64, exact below 2**53.

``best_split`` fixes the order in which it accumulates scores: the float bits
of a score decide its tie-breaks, and the tie-breaks decide the trees and so
the bytes of the audit report.
"""

import numpy as np


def joint_counts(a_codes, b_codes, ka, kb):
    """Count co-occurrences of category codes; a code of -1 means missing.

    Returns (counts[ka, kb] int64, n_effective) over pairwise-complete rows.
    A missing code counts in one extra leading row or column: the cell index
    ``(a + 1) * (kb + 1) + (b + 1)`` is built in place in one copy of
    ``a_codes``, so no row is gathered, and the complete rows' counts are the
    table without that row and column.
    """
    index = a_codes.astype(np.intp)
    index += 1
    index *= kb + 1
    index += b_codes
    index += 1
    flat = np.bincount(index, minlength=(ka + 1) * (kb + 1))
    del index
    counts = np.ascontiguousarray(flat.reshape(ka + 1, kb + 1)[1:, 1:])
    return counts, int(counts.sum())


def best_split(ranks, values, rows, y, weights, n_classes, min_leaf):
    """Best Gini split of a node of weighted cells, labels in
    ``0..n_classes-1``.

    Column ``j`` is given by ``values[j]``, its sorted distinct values, and
    ``ranks[j]``, each table row's index into them. Cell i of the node is
    table row ``rows[i]`` with label ``y[i]``, counted ``weights[i]`` times
    (whole numbers, as float64). The score maximized is
    sum_l c_l^2/n_l + sum_r c_r^2/n_r over weighted counts, which orders
    splits identically to Gini impurity decrease for a fixed node. A split is
    admissible when both sides keep a weight of at least ``min_leaf``. Ties go
    to the lower feature index, then the lower threshold, the midpoint of the
    two values present in the node on either side of the boundary. Returns
    (feat, threshold, score); feat = -1 when no admissible split exists.
    """
    n = weights.sum()
    best_feat = -1
    best_thr = 0.0
    best_score = -np.inf
    for j, vals in enumerate(values):
        k = vals.shape[0]
        node_ranks = ranks[j][rows]
        weight = np.bincount(node_ranks, weights=weights, minlength=k)
        present = np.nonzero(weight)[0]
        # weight on the left side of each boundary between present values
        nleft = np.cumsum(weight[present])[:-1]
        at = np.nonzero((nleft >= min_leaf) & ((n - nleft) >= min_leaf))[0]
        if at.size == 0:
            continue
        counts = np.bincount(node_ranks * n_classes + y, weights=weights,
                             minlength=k * n_classes).reshape(k, n_classes)
        cum = np.cumsum(counts[present], axis=0)
        total = cum[-1]
        nl = nleft[at]
        nr = n - nl
        score_l = np.zeros(at.shape[0])
        score_r = np.zeros(at.shape[0])
        # one class at a time: this order fixes the float bits of each score,
        # which decide tie-breaks and with them the report bytes
        for c in range(n_classes):
            cl = cum[at, c]
            cr = total[c] - cl
            score_l += cl * cl / nl
            score_r += cr * cr / nr
        score = score_l + score_r
        idx = int(np.argmax(score))  # first maximum: the lowest threshold
        if score[idx] > best_score:  # strict: the lower feature keeps a tie
            best_score = score[idx]
            best_feat = j
            best_thr = (vals[present[at[idx]]] + vals[present[at[idx] + 1]]) / 2.0
    return best_feat, best_thr, best_score


# sorted rows per block of ``_mark_runs`` and of its callers' block loops
_RUN_BLOCK = 1 << 14


def _mark_runs(keys, order, new):
    """Set ``new[i]`` where sorted row i (row ``order[i]``) differs from
    sorted row i - 1 in any of ``keys``, 1-D arrays. The keys are read in
    sorted order a block of rows at a time, so no key is gathered whole."""
    for start in range(1, order.shape[0], _RUN_BLOCK):
        at = order[start - 1:start + _RUN_BLOCK]
        for key in keys:
            key = key[at]
            new[start:start + _RUN_BLOCK] |= key[1:] != key[:-1]


def _lexsort_runs(keys, stable=True):
    """``(order, new)`` of rows keyed by ``keys``, 1-D arrays, the first
    primary: ``order`` is their stable ``np.lexsort`` order, and ``new`` flags
    each sorted row that starts a distinct row, so ``order[new]`` holds each
    distinct row's first row. Capacity's folds deal their rows in the
    stable order. Each key may have its own dtype. With ``stable=False`` a
    single key is sorted by numpy's default sort, which is not stable and
    needs no work buffer: a stable sort holds a row index a row for a key of
    16 bits or fewer, and sorts a 64-bit key several times slower. A run's
    first row is then the least of its rows, not its first in ``order``."""
    order = np.lexsort(keys[::-1]) if stable or len(keys) > 1 else np.argsort(keys[0])
    new = np.zeros(order.shape[0], dtype=bool)
    new[0] = True
    _mark_runs(keys, order, new)
    return order, new


def active_backend():
    """Name of the kernel implementation (recorded in run provenance)."""
    return "numpy"
