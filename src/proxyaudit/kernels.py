"""Hot numeric kernels, in plain numpy.

``joint_counts`` builds the contingency tables behind the association scan;
``best_split`` is the Gini split scan of the CART learner behind predictive
capacity. Callers look both up as module attributes at call time, so they
can be wrapped (for tracing) without touching the callers.

``best_split`` sorts nothing. Its caller ranks each feature column once
(the sorted distinct values and every row's rank among them), and a tree node
is a row-index array. Per node and column, one ``bincount`` over
``rank * n_classes + label`` gives the class counts of each distinct value; a
``cumsum`` over the values present in the node gives the exact left-side
counts at every boundary between them. This is a histogram split with one
bin per distinct value, so it finds the same split as a full sort.

``best_split`` fixes the order in which it accumulates scores: the float bits
of a score decide its tie-breaks, and the tie-breaks decide the trees and so
the bytes of the audit report.
"""

import numpy as np


def joint_counts(a_codes, b_codes, ka, kb):
    """Count co-occurrences of category codes; codes < 0 mean missing.

    Returns (counts[ka, kb] int64, n_effective) over pairwise-complete rows.
    """
    ok = (a_codes >= 0) & (b_codes >= 0)
    a = a_codes[ok].astype(np.int64)
    b = b_codes[ok].astype(np.int64)
    flat = np.bincount(a * kb + b, minlength=ka * kb)
    return flat.reshape(ka, kb), int(a.shape[0])


def best_split(ranks, values, rows, y, n_classes, min_leaf):
    """Best Gini split of the node ``rows`` for labels ``y`` in
    ``0..n_classes-1``.

    Column ``j`` is given by ``values[j]``, its sorted distinct values, and
    ``ranks[j]``, each row's index into them; ``rows`` indexes ``ranks[j]``
    and ``y``. The score maximized is sum_l c_l^2/n_l + sum_r c_r^2/n_r, which
    orders splits identically to Gini impurity decrease for a fixed node. A
    split is admissible when both sides keep at least ``min_leaf`` rows. Ties
    go to the lower feature index, then the lower threshold, the midpoint of
    the two values present in the node on either side of the boundary.
    Returns (feat, threshold, score); feat = -1 when no admissible split
    exists.
    """
    n = rows.shape[0]
    yn = y[rows]
    best_feat = -1
    best_thr = 0.0
    best_score = -np.inf
    for j, vals in enumerate(values):
        k = vals.shape[0]
        counts = np.bincount(ranks[j][rows] * n_classes + yn, minlength=k * n_classes)
        counts = counts.reshape(k, n_classes)
        present = np.nonzero(counts.any(axis=1))[0]
        cum = np.cumsum(counts[present], axis=0)
        # rows on the left side of each boundary between present values
        nleft = cum[:-1].sum(axis=1)
        at = np.nonzero((nleft >= min_leaf) & ((n - nleft) >= min_leaf))[0]
        if at.size == 0:
            continue
        total = cum[-1]
        nl = nleft[at].astype(np.float64)
        nr = (n - nleft[at]).astype(np.float64)
        score_l = np.zeros(at.shape[0])
        score_r = np.zeros(at.shape[0])
        # one class at a time: this order fixes the float bits of each score,
        # which decide tie-breaks and with them the report bytes
        for c in range(n_classes):
            cl = cum[at, c].astype(np.float64)
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


def active_backend():
    """Name of the kernel implementation (recorded in run provenance)."""
    return "numpy"
