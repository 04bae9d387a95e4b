"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written the slow, obvious way (python loops,
Fractions) and shares no code with the package under test, except
``beam_search_reference``, which scores every descriptor through the
package's ``exact_correspondence`` as the search once did, and the two
``scipy.stats`` references (``chi2_reference``, ``clopper_pearson_reference``),
which are the calls the package made before it moved to ``scipy.special``,
and ``causal_intervention_reference``, the package's scalar do-intervention
before it moved onto the sampler's node code (it scores through the model
handle and returns an ``InterventionRecord``), and ``best_split_sorted`` and
``cart_fit_copies``, the package's split scan and tree fit before they moved
onto value ranks and row-index nodes (one argsort per column per node, and a
copy of the node's rows at every split), and ``load_csv_reference``, the
package's row-by-row CSV loader before columnar decode (it builds the
package's ``Dataset`` and ``LoadReport``), and ``predict_batch_reference``,
the package's checked row-to-column loop, kept apart from the package so that
any faster row path must match its scores and its first error (it scores
through the model handle's ``score_columns``), and
``probe_score_columns_reference``, an external probe's ``score_columns``
before duplicate rows were collapsed (it sends every row through the
handle's ``_score_batches``), and ``predictive_capacity_reference``, the
package's predictive capacity before it fitted on distinct feature rows (a
design matrix over every complete row, ``cart_fit_copies`` per fold; it
returns a ``CapacityScore`` and uses the package's ``clopper_pearson`` and
``counts_significance``), and ``flip_analysis_reference``, the package's flip
analysis before it scored each distinct dataset row once (it scores every
interleaved baseline and counterfactual row through one ``score_columns``
call, builds the package's ``UseSummary`` and returns a list of the
package's ``InterventionRecord``, one a row), and
``run_discovery_reference``, the package's discovery stage before the search
read row sets of one table (``split_holdout_copies`` copies both parts with
``Dataset.select``, the package's ``beam_search`` reads the training copy and
``validate_reference`` the held-out copy), and ``validate_reference``, the
package's holdout validation before its scores came from one loop over row
sets (it re-scores every result through the package's
``exact_correspondence`` on the table it is given and builds the package's
``DiscoveryResult``), and ``joint_counts_gathered`` and ``split_holdout_sorted``,
the package's ``kernels.joint_counts`` before it indexed missing codes into
an extra row and column (it gathers the pairwise-complete codes) and its
``data.split_holdout`` before it read both parts off one mask (it sorts both
halves of the permutation), and ``widened``, a table as the package stored it
before categorical codes took their narrowest integer type (int64 codes).
"""

import csv
import math
from fractions import Fraction
from numbers import Real

import numpy as np
from scipy import stats
from scipy.special import expit


def entropy(counts):
    n = sum(counts)
    return -sum((c / n) * math.log(c / n) for c in counts if c)


def mutual_information(table):
    """Plug-in MI (nats) of a joint count table given as list of lists."""
    n = sum(sum(r) for r in table)
    rows = [sum(r) for r in table]
    cols = [sum(r[j] for r in table) for j in range(len(table[0]))]
    mi = 0.0
    for i, r in enumerate(table):
        for j, c in enumerate(r):
            if c:
                mi += (c / n) * math.log(c * n / (rows[i] * cols[j]))
    return mi


def nmi_arithmetic(table):
    n = sum(sum(r) for r in table)
    rows = [sum(r) for r in table]
    cols = [sum(r[j] for r in table) for j in range(len(table[0]))]
    ha, hb = entropy(rows), entropy(cols)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return min(1.0, max(0.0, mutual_information(table) / (0.5 * (ha + hb))))


def chi2_statistic(table):
    n = sum(sum(r) for r in table)
    rows = [sum(r) for r in table]
    cols = [sum(r[j] for r in table) for j in range(len(table[0]))]
    stat = 0.0
    for i, r in enumerate(table):
        for j, c in enumerate(r):
            e = rows[i] * cols[j] / n
            stat += (c - e) ** 2 / e
    return stat


def chi2_reference(pruned):
    """(statistic, p-value) of Pearson's chi-squared test without continuity
    correction, for a table with no all-zero row or column."""
    stat, p = stats.chi2_contingency(pruned, correction=False)[:2]
    return float(stat), float(p)


def clopper_pearson_reference(k, n, alpha):
    """Clopper-Pearson interval from beta quantiles."""
    lo = 0.0 if k == 0 else float(stats.beta.ppf(alpha / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(stats.beta.ppf(1 - alpha / 2, k + 1, n - k))
    return lo, hi


def fisher_exact_two_sided(a, b, c, d):
    """Exact two-sided Fisher p for [[a, b], [c, d]] by full enumeration."""
    r1, r2 = a + b, c + d
    c1 = a + c
    n = r1 + r2
    denom = Fraction(math.comb(n, c1))

    def p_of(x):
        if x < 0 or x > r1 or c1 - x < 0 or c1 - x > r2:
            return Fraction(0)
        return Fraction(math.comb(r1, x)) * Fraction(math.comb(r2, c1 - x)) / denom

    p_obs = p_of(a)
    total = Fraction(0)
    for x in range(0, min(r1, c1) + 1):
        px = p_of(x)
        if px <= p_obs:
            total += px
    return float(total)


def purity(rows, predicate, protected_check):
    """Fraction of predicate-matching rows satisfying protected_check, by loop."""
    match = [r for r in rows if predicate(r)]
    if not match:
        return None, 0
    hits = sum(1 for r in match if protected_check(r))
    return hits / len(match), len(match)


def population_nmi_binary_confounder(p_u, p_a_given_u, p_p_given_u):
    """Exact NMI (arithmetic) of A, P when both depend on a binary U."""
    joint = [[0.0, 0.0], [0.0, 0.0]]
    for u, pu in enumerate((1 - p_u, p_u)):
        pa = p_a_given_u[u]
        pp = p_p_given_u[u]
        for a, qa in enumerate((1 - pa, pa)):
            for p, qp in enumerate((1 - pp, pp)):
                joint[a][p] += pu * qa * qp
    pa_m = [joint[0][0] + joint[0][1], joint[1][0] + joint[1][1]]
    pp_m = [joint[0][0] + joint[1][0], joint[0][1] + joint[1][1]]
    mi = 0.0
    for a in range(2):
        for p in range(2):
            if joint[a][p] > 0:
                mi += joint[a][p] * math.log(joint[a][p] / (pa_m[a] * pp_m[p]))
    ha = -sum(q * math.log(q) for q in pa_m if q)
    hb = -sum(q * math.log(q) for q in pp_m if q)
    return mi / (0.5 * (ha + hb))


def balanced_accuracy(y_true, y_pred):
    """Mean per-class recall over classes present in y_true."""
    classes = sorted(set(y_true))
    recalls = []
    for c in classes:
        idx = [i for i, t in enumerate(y_true) if t == c]
        recalls.append(sum(1 for i in idx if y_pred[i] == c) / len(idx))
    return sum(recalls) / len(recalls)


def linear_score(coefficients, intercept, feature_order, row):
    """Spreadsheet-style evaluation of a one-of-K linear spec on one record."""
    total = intercept
    for name, w in coefficients.items():
        if "=" in name:
            col, _, cat = name.partition("=")
            total += w * (1.0 if row[col] == cat else 0.0)
        else:
            total += w * float(row[name])
    return total


def joint_counts(a_codes, b_codes, ka, kb):
    """Joint category counts over pairwise-complete rows, by loop.

    Codes < 0 are missing. Returns (counts as list of lists, n_effective).
    """
    counts = [[0] * kb for _ in range(ka)]
    n_eff = 0
    for a, b in zip(a_codes, b_codes):
        if a >= 0 and b >= 0:
            counts[a][b] += 1
            n_eff += 1
    return counts, n_eff


def best_split(X, y, n_classes, min_leaf):
    """Exhaustive Gini split scan with the documented tie-break order.

    Scores every boundary between distinct sorted values of every feature as
    sum_l c_l^2/n_l + sum_r c_r^2/n_r, each sum taken class by class in label
    order, so the scores are bit-exact. The first strict maximum wins, so ties
    go to the lower feature, then the lower threshold.
    """

    def side_score(side):
        total = 0.0
        for c in range(n_classes):
            cnt = float(sum(1 for _, label in side if label == c))
            total += cnt * cnt / len(side)
        return total

    n = len(y)
    best = (-1, 0.0, -math.inf)
    for j in range(len(X[0])):
        pairs = sorted((float(X[i][j]), int(y[i])) for i in range(n))
        for p in range(1, n):
            lo, hi = pairs[p - 1][0], pairs[p][0]
            if lo == hi or p < min_leaf or n - p < min_leaf:
                continue
            score = side_score(pairs[:p]) + side_score(pairs[p:])
            if score > best[2]:
                best = (j, (lo + hi) / 2.0, score)
    return best


def best_split_sorted(X, y, n_classes, min_leaf):
    """Gini split scan by sorting: argsort each column of the node, cumsum an
    n x C one-hot of the sorted labels, and score each boundary between
    distinct values class by class, as ``best_split`` (same result)."""
    n = X.shape[0]
    best_feat = -1
    best_thr = 0.0
    best_score = -np.inf
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        ys = y[order]
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
        for c in range(n_classes):
            cl = cum[pos - 1, c].astype(np.float64)
            cr = total[c] - cl
            score_l += cl * cl / nl
            score_r += cr * cr / nr
        score = score_l + score_r
        idx = int(np.argmax(score))
        if score[idx] > best_score:
            best_score = score[idx]
            best_feat = j
            best_thr = (xs[pos[idx] - 1] + xs[pos[idx]]) / 2.0
    return best_feat, best_thr, best_score


def cart_fit_copies(X, y, n_classes, max_depth, min_leaf):
    """CART node list (split: feat/thr/left/right; leaf: counts) grown with
    ``best_split_sorted`` on copies ``X[mask]`` of each node's rows."""
    nodes = []

    def build(X, y, depth):
        index = len(nodes)
        counts = np.bincount(y, minlength=n_classes)
        node = {"counts": counts}
        nodes.append(node)
        if depth >= max_depth or np.count_nonzero(counts) <= 1 or y.shape[0] < 2 * min_leaf:
            return index
        feat, thr, _score = best_split_sorted(X, y, n_classes, min_leaf)
        if feat < 0:
            return index
        left = X[:, feat] < thr
        node["feat"] = int(feat)
        node["thr"] = float(thr)
        node["left"] = build(X[left], y[left], depth + 1)
        node["right"] = build(X[~left], y[~left], depth + 1)
        return index

    build(X, y, 0)
    return nodes


class InvalidRow(ValueError):
    """A row the builtin-model reference refuses to score."""


def builtin_scores(kind, parameters, feature_order, rows):
    """Builtin model spec scored one row at a time.

    Each row is a {feature: value} dict or a sequence in feature order. A
    linear score starts at the intercept and adds ``w * value`` (or ``w``
    times a 1.0/0.0 indicator) coefficient by coefficient; a tree walks from
    the root, left when ``value < threshold`` or ``value == category``;
    logistic applies ``expit``. Raises InvalidRow for a missing feature, a
    wrong-length row, a None value, or a non-number (a bool is not a number)
    where a number is read (for trees, only on the path the row takes).
    """
    def number(v, index, name):
        if not isinstance(v, Real) or isinstance(v, bool):
            raise InvalidRow(f"row {index}: {name!r} needs a number, got {v!r}")
        return float(v)

    nodes = {n["id"]: n for n in parameters.get("nodes", [])}
    out = []
    for index, row in enumerate(rows):
        if isinstance(row, dict):
            if any(f not in row for f in feature_order):
                raise InvalidRow(f"row {index}: missing feature")
            values = [row[f] for f in feature_order]
        else:
            values = list(row)
            if len(values) != len(feature_order):
                raise InvalidRow(f"row {index}: wrong length")
        if any(v is None for v in values):
            raise InvalidRow(f"row {index}: missing value")
        by_name = dict(zip(feature_order, values))
        if kind == "decision_tree":
            node = nodes[parameters["root"]]
            while node["kind"] == "split":
                v = by_name[node["column"]]
                if "threshold" in node:
                    left = number(v, index, node["column"]) < node["threshold"]
                else:
                    left = v == node["category"]
                node = nodes[node["left"] if left else node["right"]]
            out.append(float(node["value"]))
            continue
        total = float(parameters["intercept"])
        for name, w in parameters["coefficients"].items():
            if "=" in name:
                col, _, cat = name.partition("=")
                total += w * (1.0 if by_name[col] == cat else 0.0)
            else:
                total += w * number(by_name[name], index, name)
        out.append(total)
    if kind == "logistic":
        return [float(expit(z)) for z in out]
    return out


def predict_batch_reference(handle, rows):
    """``handle.predict_batch(rows)`` as a checked loop: each row (a dict by
    feature name or a sequence in feature order) is checked and copied cell
    by cell into one object column per feature, then the columns are scored
    by ``handle.score_columns``."""
    from proxyaudit.errors import ValidationError

    order = handle.feature_order
    columns = {f: np.empty(len(rows), dtype=object) for f in order}
    for i, row in enumerate(rows):
        if isinstance(row, dict):
            try:
                values = [row[f] for f in order]
            except KeyError as exc:
                raise ValidationError(f"row {i}: missing feature {exc}") from None
        else:
            values = list(row)
            if len(values) != len(order):
                raise ValidationError(f"row {i}: got {len(values)} values for {len(order)} features")
        for f, v in zip(order, values):
            if v is None:
                raise ValidationError(f"row {i}: missing value for feature {f!r}")
            columns[f][i] = v
    return handle.score_columns(columns, len(rows)).tolist()


def cart_predict(nodes, X):
    """Class of the leaf each row of X reaches, one row at a time, in a CART
    node list (split: feat/thr/left/right; leaf: counts): the first class
    with the most training rows there, so 0 in a leaf that has none."""
    out = []
    for x in X:
        node = nodes[0]
        while "feat" in node:
            node = nodes[node["left"] if x[node["feat"]] < node["thr"] else node["right"]]
        counts = [int(c) for c in node["counts"]]
        out.append(counts.index(max(counts)))
    return out


def tree_links_ok(nodes, root):
    """Whether a decision-tree node table (unique ids; split nodes name
    ``left`` and ``right``) links into a tree spec: the root and every child
    named on a path exist, no path repeats a node, and every node is on some
    path. Walks every root-to-leaf path, so it is exponential in the depth
    where children are shared: small tables only."""
    by_id = {node["id"]: node for node in nodes}
    reached = set()

    def walk(nid, path):
        if nid in path or nid not in by_id:
            return False
        reached.add(nid)
        node = by_id[nid]
        return node["kind"] == "leaf" or (
            walk(node["left"], path | {nid}) and walk(node["right"], path | {nid})
        )

    return walk(root, frozenset()) and reached == set(by_id)


def predictive_capacity_reference(d, proxy_set, protected, *, folds=5, seed=0):
    """Predictive capacity on every complete row: a one-of-K design matrix,
    each observed class's rows put in ``np.lexsort`` order of their design
    rows (first column primary) and dealt round-robin after one permutation
    per class, a ``cart_fit_copies`` tree per fold, ``cart_predict`` for
    each held-out row, and the score arithmetic of the package."""
    from proxyaudit.association import counts_significance
    from proxyaudit.capacity import (
        TREE_MAX_DEPTH, TREE_MIN_LEAF, CapacityScore, clopper_pearson,
    )
    from proxyaudit.data import CATEGORICAL
    from proxyaudit.errors import InsufficientDataError

    rows = np.nonzero(d.complete_mask(list(proxy_set) + [protected]))[0]
    if rows.size < 2:
        raise InsufficientDataError("fewer than 2 complete rows")
    y = d.codes(protected)[rows]
    n_classes = len(d.categories(protected))
    class_counts = np.bincount(y, minlength=n_classes)
    observed = np.nonzero(class_counts)[0]
    if observed.size < 2 or class_counts[observed].min() < 2:
        raise InsufficientDataError("cannot cross-validate")
    effective = min(folds, int(class_counts[observed].min()))
    warning = None
    if effective < folds:
        warning = f"class counts below {folds} folds; refit with {effective} merged folds"

    blocks = []
    for name in proxy_set:
        if d.schema_of(name).kind == CATEGORICAL:
            codes = d.codes(name)[rows]
            blocks += [(codes == c).astype(np.float64)
                       for c in range(len(d.categories(name)))]
        else:
            blocks.append(d.values(name)[rows])
    X = np.column_stack(blocks)

    rng = np.random.default_rng(seed)
    fold_of = np.empty(rows.size, dtype=np.int64)
    for c in observed:
        idx = np.nonzero(y == c)[0]
        idx = idx[np.lexsort(X[idx].T[::-1])]
        idx = idx[rng.permutation(idx.size)]
        fold_of[idx] = np.arange(idx.size) % effective
    predicted = np.empty(rows.size, dtype=np.int64)
    for f in range(effective):
        test = fold_of == f
        nodes = cart_fit_copies(X[~test], y[~test], n_classes, TREE_MAX_DEPTH, TREE_MIN_LEAF)
        predicted[test] = cart_predict(nodes, X[test])

    chance = 1.0 / observed.size
    recalls, los, his = [], [], []
    for c in observed:
        n_c = int(np.count_nonzero(y == c))
        k_c = int(np.count_nonzero(predicted[y == c] == c))
        recalls.append(k_c / n_c)
        lo, hi = clopper_pearson(k_c, n_c)
        los.append(lo)
        his.append(hi)
    value = max(0.0, (float(np.mean(recalls)) - chance) / (1.0 - chance))
    value_lo = max(0.0, (float(np.mean(los)) - chance) / (1.0 - chance))
    value_hi = max(0.0, (float(np.mean(his)) - chance) / (1.0 - chance))

    confusion = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(y.tolist(), predicted.tolist()):
        confusion[t][p] += 1
    return CapacityScore(
        proxy=tuple(proxy_set),
        protected_value=protected,
        measure="predictive",
        value=value,
        support=int(rows.size),
        p_value=float(counts_significance(np.array(confusion, dtype=np.int64))),
        ci_low=min(value_lo, value),
        ci_high=max(value_hi, value),
        warning=warning,
    )


def beam_search_reference(d, config, beam_width, max_depth, min_support, gamma,
                          top_k, *, bins, stats_out):
    """Beam search that scores every child through ``exact_correspondence``.

    Same enumeration, beams, tie order, pooling, deduplication and stats as
    ``discovery.beam_search``; each child's masks and completeness are
    rebuilt from the dataset, and its quality is
    ``coverage ** gamma * score.value``.
    """
    from proxyaudit.capacity import exact_correspondence
    from proxyaudit.descriptors import SubgroupDescriptor
    from proxyaudit.discovery import DiscoveryResult, enumerate_conditions

    def order(entry):
        q, r = entry
        return (-q, r.proxy.depth,
                tuple(c.sort_key() for c in r.proxy.conditions),
                r.protected_target)

    conditions = enumerate_conditions(d, config.candidates, bins)
    targets = []
    for column in config.protected:
        counts = d.value_counts(column)
        targets += [(column, cat) for cat in d.schema_of(column).categories
                    if counts[cat] > 0]
    pool, evaluated, below_support = [], 0, 0
    for target in targets:
        seen = set()
        beam = [(SubgroupDescriptor(()), None)]
        for _depth in range(max_depth):
            scored = []
            for parent, parent_support in beam:
                for cond in conditions:
                    if cond.column in parent.columns:
                        continue
                    child = parent.extended(cond)
                    if child in seen:
                        continue
                    seen.add(child)
                    complete = d.complete_mask(list(child.columns) + [target[0]])
                    support = int((child.mask(d) & complete).sum())
                    assert parent_support is None or support <= parent_support
                    if support < min_support:
                        below_support += 1
                        continue
                    evaluated += 1
                    score = exact_correspondence(d, child, target)
                    coverage = support / int(complete.sum())
                    q = coverage**gamma * score.value
                    scored.append((q, DiscoveryResult(
                        proxy=child, protected_target=target, quality=q,
                        capacity=score, adjusted_p=score.p_value)))
            scored.sort(key=order)
            beam = [(r.proxy, r.capacity.support) for _q, r in scored[:beam_width]]
            pool.extend(scored)
            if not beam:
                break
    pool.sort(key=order)
    out, seen_masks = [], set()
    for _q, result in pool:
        key = (result.protected_target, result.proxy.mask(d).tobytes())
        if key in seen_masks:
            continue
        seen_masks.add(key)
        out.append(result)
        if len(out) == top_k:
            break
    stats_out.update(descriptors_evaluated=evaluated, below_support=below_support,
                     targets=targets, conditions=len(conditions))
    return out


def validate_reference(results, d, m_tests):
    """Re-score results on every row of ``d`` and Bonferroni-adjust p-values:
    a result whose holdout CI lower bound falls below the red-flag floor is
    dropped, one matching no complete row is kept as unvalidated."""
    from dataclasses import replace

    from proxyaudit.capacity import RED_FLAG_CI_FLOOR, exact_correspondence
    from proxyaudit.discovery import UNVALIDATED, VALIDATED
    from proxyaudit.errors import InsufficientDataError, ParameterError

    if m_tests < 1:
        raise ParameterError("m_tests must be at least 1")
    out = []
    for result in results:
        adjusted = min(1.0, result.capacity.p_value * m_tests)
        try:
            holdout = exact_correspondence(d, result.proxy, result.protected_target)
        except InsufficientDataError:
            out.append(replace(result, adjusted_p=adjusted, status=UNVALIDATED))
            continue
        if holdout.ci_low < RED_FLAG_CI_FLOOR:
            continue
        out.append(
            replace(result, adjusted_p=adjusted, holdout_capacity=holdout, status=VALIDATED)
        )
    return out


def split_holdout_copies(d, fraction, seed):
    """Deterministically split rows into (ceil(fraction*N), rest) partitions."""
    from proxyaudit.errors import InsufficientDataError, ValidationError

    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must lie in (0,1), got {fraction}")
    if d.n_rows < 2:
        raise InsufficientDataError("need at least 2 rows to split")
    n_first = math.ceil(fraction * d.n_rows)
    perm = np.random.default_rng(seed).permutation(d.n_rows)
    first = np.sort(perm[:n_first])
    second = np.sort(perm[n_first:])
    return d.select(first), d.select(second)


def run_discovery_reference(
    d, config,
    *, beam_width=10, max_depth=2, min_support=30, gamma=0.25,
    top_k=20, bins=4, holdout_fraction=0.4, seed=0,
):
    """Holdout split, beam search on the training part, validation on the
    held-out part. Returns every validated finding plus search accounting;
    data too small to split is a recorded skip with empty counts."""
    from proxyaudit.discovery import VALIDATED, beam_search
    from proxyaudit.errors import InsufficientDataError

    try:
        holdout, train = split_holdout_copies(d, holdout_fraction, seed)
    except InsufficientDataError as exc:
        skip = {"kind": "discovery", "columns": list(config.protected), "reason": str(exc)}
        return {"train_rows": 0, "holdout_rows": 0, "m_tests": 1, "validated": [],
                "unvalidated": [], "skipped": [skip]}, []
    stats = {}
    results = beam_search(
        train, config,
        beam_width=beam_width, max_depth=max_depth, min_support=min_support,
        gamma=gamma, top_k=top_k, bins=bins, stats_out=stats,
    )
    m_tests = max(1, stats.get("descriptors_evaluated", len(results)))
    validated = validate_reference(results, holdout, m_tests) if results else []
    kept = [r for r in validated if r.status == VALIDATED]
    return {
        "train_rows": train.n_rows,
        "holdout_rows": holdout.n_rows,
        "m_tests": m_tests,
        "search": stats,
        "candidates_returned": len(results),
        "validated": [r.to_json() for r in kept],
        "unvalidated": [r.to_json() for r in validated if r.status != VALIDATED],
    }, kept


def _descendants_of(g, names):
    """All graph nodes reachable from the given set, excluding the set."""
    out, frontier = set(), list(names)
    while frontier:
        parent = frontier.pop()
        for child in (c for p, c in g.edges if p == parent):
            if child not in out:
                out.add(child)
                frontier.append(child)
    return out - set(names)


def _apply_mechanism(g, name, parent_values, observed, rng):
    """One node's counterfactual value given new parent values, one scalar
    at a time: linear-Gaussian keeps the observed residual, thresholds
    recompute, probability tables re-draw one uniform from ``rng``."""
    mech = g.mechanisms[name]
    kind = mech["kind"]
    if kind == "linear_gaussian":
        base = float(mech.get("intercept", 0.0))
        observed_base = base
        for p in g.parents_of(name):
            base += mech["weights"][p] * parent_values[p]
            observed_base += mech["weights"][p] * observed["parents"][p]
        residual = observed["value"] - observed_base
        return base + residual
    if kind == "threshold":
        cutoff = mech["cutoffs"][parent_values[mech["by"]]]
        return "true" if parent_values[mech["source"]] >= cutoff else "false"
    parents = g.parents_of(name)
    key = "|".join(tuple(str(parent_values[p]) for p in parents))
    probs = mech["table"][key]
    draw = int((rng.random() > np.cumsum(probs)).sum())
    if kind == "cpt":
        return mech["categories"][draw]
    return float(mech["values"][draw])


def causal_intervention_reference(scm, m, row, assignments, *, seed=0, rule=None,
                                  row_index=-1):
    """Do-intervention on valid input: descendants of the assigned nodes are
    recomputed scalar by scalar in topological order (a node whose parents
    are unchanged keeps its observed value), then both rows are scored in
    one ``predict_batch`` call."""
    from proxyaudit.intervention import InterventionRecord
    from proxyaudit.models import decide

    cf_row = dict(row)
    for a in assignments:
        cf_row[a.column] = a.value
    to_recompute = _descendants_of(scm, {a.column for a in assignments})
    rng = np.random.default_rng(seed)
    for name in scm.topological_order():
        if name not in to_recompute:
            continue
        parents = scm.parents_of(name)
        new_parents = {p: cf_row[p] for p in parents}
        old_parents = {p: row[p] for p in parents}
        if new_parents == old_parents:
            continue
        cf_row[name] = _apply_mechanism(
            scm, name, new_parents,
            {"value": row[name], "parents": old_parents},
            rng,
        )
    base, cf = m.predict_batch([row, cf_row])
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


def _record_unknown(report, row, column, raw):
    report.n_unknown += 1
    if len(report.unknown_values) < report._CAP:
        report.unknown_values.append((row, column, raw))


def load_csv_reference(path, schema, *, header=True):
    """The package's row-by-row CSV loader before it moved to columnar decode:
    ``csv.reader`` over the text file, every cell stripped and decoded on its
    own. Bytes that are not UTF-8 and ``csv.Error`` become ``ParseError``
    naming the data row the reader had reached."""
    from proxyaudit.data import CATEGORICAL, Dataset, LoadReport
    from proxyaudit.errors import ParseError

    schema = tuple(schema)
    report = LoadReport(missing_by_column={c.name: 0 for c in schema})
    store = {c.name: [] for c in schema}
    order = list(range(len(schema)))

    row_index = 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            first = True
            for raw_row in reader:
                if not raw_row or (len(raw_row) == 1 and not raw_row[0].strip()):
                    continue
                cells = [c.strip() for c in raw_row]
                if first and header:
                    first = False
                    names = [c.name for c in schema]
                    if sorted(cells) != sorted(names):
                        raise ParseError(
                            f"header {cells!r} does not match schema columns {names!r}", row_index=0
                        )
                    order = [cells.index(n) for n in names]
                    continue
                first = False
                if len(cells) != len(schema):
                    raise ParseError(
                        f"row has {len(cells)} cells, expected {len(schema)}", row_index=row_index
                    )
                for k, col in enumerate(schema):
                    raw = cells[order[k]]
                    if col.kind == CATEGORICAL:
                        code = col.code_of(raw)
                        if code == -2:
                            _record_unknown(report, row_index, col.name, raw)
                            code = -1
                        if code < 0:
                            report.missing_by_column[col.name] += 1
                        store[col.name].append(code)
                    else:
                        if raw == col.missing_token or raw == "":
                            report.missing_by_column[col.name] += 1
                            store[col.name].append(np.nan)
                        else:
                            try:
                                value = float(raw)
                            except ValueError:
                                value = math.nan
                            if not math.isfinite(value):
                                _record_unknown(report, row_index, col.name, raw)
                                report.missing_by_column[col.name] += 1
                                value = math.nan
                            store[col.name].append(value)
                row_index += 1
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"data row {row_index} is not valid UTF-8: {exc.reason}", row_index=row_index
        ) from None
    except csv.Error as exc:
        raise ParseError(f"data row {row_index}: {exc}", row_index=row_index) from None

    report.n_rows = row_index
    cols = {
        c.name: np.asarray(store[c.name], dtype=np.int64 if c.kind == CATEGORICAL else np.float64)
        for c in schema
    }
    return Dataset(schema, cols, load_report=report)


def probe_score_columns_reference(handle, columns, n_rows):
    """An external probe's ``handle.score_columns(columns, n_rows)`` sending
    every row: row ``i`` is the tuple of each feature column's ``.tolist()``
    cell ``i`` (an empty tuple when the spec has no features), rows go
    ``ROWS_PER_CALL`` to a message through ``handle._score_batches``, and the
    scores come back in row order."""
    from proxyaudit.models import ROWS_PER_CALL

    cells = [columns[f].tolist() for f in handle.feature_order]
    rows = [tuple(cell[i] for cell in cells) for i in range(n_rows)]
    batches = [rows[start : start + ROWS_PER_CALL] for start in range(0, n_rows, ROWS_PER_CALL)]
    scores = [s for batch in handle._score_batches(batches) for s in batch.tolist()]
    return np.array(scores, dtype=np.float64)


def flip_analysis_reference(
    m, rule, d, assignments, selector=None,
    *, flip_rate_floor=0.01, score_floor_fraction=0.05,
):
    """``flip_analysis`` scoring every row: the selected rows' features as
    category strings (object) or floats, each row repeated as its baseline
    and its counterfactual, all ``2 * n`` rows in one ``m.score_columns``
    call."""
    from proxyaudit.data import CATEGORICAL
    from proxyaudit.errors import InsufficientDataError, ParameterError
    from proxyaudit.intervention import (
        MIXED,
        TOWARD_FAVOURABLE,
        TOWARD_UNFAVOURABLE,
        InterventionRecord,
        UseSummary,
        _check_assignments_against,
        _check_feature_assignments,
    )
    from proxyaudit.models import FAVOURABLE, UNFAVOURABLE

    if not assignments:
        raise ParameterError("flip_analysis needs at least one assignment")
    _check_feature_assignments(m.feature_order, assignments)
    _check_assignments_against(d.schema_of, assignments)
    mask = np.ones(d.n_rows, dtype=bool)
    if selector is not None:
        mask &= selector.mask(d)
    mask &= d.complete_mask(m.feature_order)
    indices = np.nonzero(mask)[0]
    if indices.size == 0:
        raise InsufficientDataError("no rows selected for flip analysis")

    columns = {}
    for f in m.feature_order:
        if d.schema_of(f).kind == CATEGORICAL:
            observed = np.array(d.categories(f), dtype=object)[d.codes(f)[indices]]
        else:
            observed = d.column_array(f)[indices]
        # even positions are baseline rows, odd ones their counterfactuals
        columns[f] = np.repeat(observed, 2)
    for a in assignments:
        columns[a.column][1::2] = a.value
    scores = m.score_columns(columns, 2 * indices.size)
    baselines, counterfactuals = scores[0::2], scores[1::2]

    deltas = counterfactuals - baselines
    favourable = rule.favourable(counterfactuals)
    flipped = rule.favourable(baselines) != favourable
    to_unfav = int(np.count_nonzero(flipped & ~favourable))
    to_fav = int(np.count_nonzero(flipped & favourable))
    flip_rate = (to_unfav + to_fav) / indices.size
    mean_abs_delta = float(np.abs(deltas).mean())
    iqr = float(np.percentile(baselines, 75) - np.percentile(baselines, 25))
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
        n=indices.size,
        mean_delta=float(deltas.mean()),
        mean_abs_delta=mean_abs_delta,
        flip_count=to_unfav + to_fav,
        flip_rate=flip_rate,
        direction_of_harm=direction,
        significant_influence_flag=significant,
    )
    outcomes = np.where(rule.favourable(scores), FAVOURABLE, UNFAVOURABLE).tolist()
    records = [
        InterventionRecord(
            row_index=i, baseline_score=base, counterfactual_score=cf, delta=cf - base,
            baseline_outcome=base_out, counterfactual_outcome=cf_out, flipped=base_out != cf_out,
        )
        for i, base, cf, base_out, cf_out in zip(
            indices.tolist(), baselines.tolist(), counterfactuals.tolist(),
            outcomes[0::2], outcomes[1::2],
        )
    ]
    return summary, records


def joint_counts_gathered(a_codes, b_codes, ka, kb):
    """``(counts[ka, kb] int64, n_effective)`` over the rows where both codes
    are >= 0, from the gathered codes of those rows and one ``bincount``."""
    ok = (a_codes >= 0) & (b_codes >= 0)
    a = a_codes[ok].astype(np.int64, copy=False)
    a *= kb
    a += b_codes[ok]
    flat = np.bincount(a, minlength=ka * kb)
    return flat.reshape(ka, kb), int(a.shape[0])


def split_holdout_sorted(d, fraction, seed):
    """The two sorted row-index arrays of ceil(fraction*N) and the remaining
    rows: both halves of one seeded permutation, each sorted."""
    from proxyaudit.errors import InsufficientDataError, ValidationError

    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must lie in (0,1), got {fraction}")
    if d.n_rows < 2:
        raise InsufficientDataError("need at least 2 rows to split")
    n_first = math.ceil(fraction * d.n_rows)
    perm = np.random.default_rng(seed).permutation(d.n_rows)
    return np.sort(perm[:n_first]), np.sort(perm[n_first:])


def widened(d):
    """``d`` with every categorical column's codes copied to int64, as tables
    held them before codes took the narrowest type. Built around
    ``Dataset._of``, which would narrow them again."""
    from proxyaudit.data import CATEGORICAL, Dataset

    w = Dataset.__new__(Dataset)
    w._schema, w._by_name, w._n_rows, w.load_report = d._schema, d._by_name, d.n_rows, d.load_report
    w._columns = {}
    for col in d.schema:
        cells = d.column_array(col.name)
        if col.kind == CATEGORICAL:
            cells = cells.astype(np.int64)
            cells.setflags(write=False)
        w._columns[col.name] = cells
    return w
