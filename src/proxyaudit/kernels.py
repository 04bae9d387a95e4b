"""Hot numeric kernels, in plain numpy.

``joint_counts`` builds the contingency tables behind the association scan;
``best_split`` is the Gini split scan of the CART learner behind predictive
capacity. Callers look both up as module attributes at call time, so they
can be wrapped (for tracing) without touching the callers.

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


def best_split(X, y, n_classes, min_leaf):
    """Best Gini split of ``X`` for labels ``y`` in ``0..n_classes-1``.

    The score maximized is sum_l c_l^2/n_l + sum_r c_r^2/n_r, which orders
    splits identically to Gini impurity decrease for a fixed node. A split is
    admissible when both sides keep at least ``min_leaf`` rows. Ties go to the
    lower feature index, then the lower threshold. Returns
    (feat, threshold, score); feat = -1 when no admissible split exists.
    """
    n = X.shape[0]
    best_feat = -1
    best_thr = 0.0
    best_score = -np.inf
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        ys = y[order]
        # rows on the left side of each boundary between distinct values
        pos = np.nonzero(xs[1:] != xs[:-1])[0] + 1
        pos = pos[(pos >= min_leaf) & ((n - pos) >= min_leaf)]
        if pos.size == 0:
            continue
        onehot = np.zeros((n, n_classes), dtype=np.int64)
        onehot[np.arange(n), ys] = 1
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        nl = pos.astype(np.float64)
        nr = (n - pos).astype(np.float64)
        score_l = np.zeros(pos.shape[0])
        score_r = np.zeros(pos.shape[0])
        # one class at a time: this order fixes the float bits of each score,
        # which decide tie-breaks and with them the report bytes
        for c in range(n_classes):
            cl = cum[pos - 1, c].astype(np.float64)
            cr = total[c] - cl
            score_l += cl * cl / nl
            score_r += cr * cr / nr
        score = score_l + score_r
        idx = int(np.argmax(score))  # first maximum: the lowest threshold
        if score[idx] > best_score:  # strict: the lower feature keeps a tie
            best_score = score[idx]
            best_feat = j
            best_thr = (xs[pos[idx] - 1] + xs[pos[idx]]) / 2.0
    return best_feat, best_thr, best_score


def active_backend():
    """Name of the kernel implementation (recorded in run provenance)."""
    return "numpy"
