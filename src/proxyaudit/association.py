"""Pairwise association measures: contingency tables, NMI, Cramér's V, scans.

All measures operate on pairwise-complete rows (rows missing in either column
are dropped for that pair only). Entropies are plug-in estimates in natural
log; NMI divides mutual information by a mean of the marginal entropies
(arithmetic by default, configurable) and clamps to [0, 1].
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import kernels
from .data import CATEGORICAL
from .descriptors import _fmt
from .errors import InsufficientDataError, ParameterError, ValidationError

NORMALIZATIONS = ("arithmetic", "geometric", "min", "max")


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts of two categorical columns over pairwise-complete rows."""

    row_var: str
    col_var: str
    row_cats: tuple
    col_cats: tuple
    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.row_cats), len(self.col_cats)):
            raise ValidationError("counts shape does not match category lists")
        if int(counts.sum()) != self.total:
            raise ValidationError("total does not equal the sum of counts")

    def row_marginals(self):
        return self.counts.sum(axis=1)

    def restrict_cols(self, keep):
        """Sub-table keeping only the named column categories."""
        idx = [self.col_cats.index(c) for c in keep]
        sub = self.counts[:, idx]
        return ContingencyTable(
            row_var=self.row_var,
            col_var=self.col_var,
            row_cats=self.row_cats,
            col_cats=tuple(keep),
            counts=sub,
            total=int(sub.sum()),
        )

    def to_json(self):
        return {
            "row_var": self.row_var,
            "col_var": self.col_var,
            "row_cats": list(self.row_cats),
            "col_cats": list(self.col_cats),
            "counts": self.counts.tolist(),
            "total": self.total,
        }


@dataclass(frozen=True)
class AssociationScore:
    """A scored (var_a, var_b) pair in [0, 1] with its significance."""

    var_a: str
    var_b: str
    measure: str
    value: float
    n_effective: int
    p_value: float
    normalization: str = None
    degenerate: bool = False
    warning: str = None

    def to_json(self):
        out = {
            "var_a": self.var_a,
            "var_b": self.var_b,
            "measure": self.measure,
            "value": self.value,
            "n_effective": self.n_effective,
            "p_value": self.p_value,
        }
        if self.normalization:
            out["normalization"] = self.normalization
        if self.degenerate:
            out["degenerate"] = True
        if self.warning:
            out["warning"] = self.warning
        return out


def contingency(d, a, b):
    """Joint counts of two categorical columns (schema category order)."""
    for name in (a, b):
        if d.schema_of(name).kind != CATEGORICAL:
            raise ValidationError(f"contingency requires categorical columns; {name!r} is not")
    cats_a = d.categories(a)
    cats_b = d.categories(b)
    counts, n_eff = kernels.joint_counts(d.codes(a), d.codes(b), len(cats_a), len(cats_b))
    return ContingencyTable(
        row_var=a, col_var=b, row_cats=cats_a, col_cats=cats_b, counts=counts, total=n_eff
    )


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(counts):
    """Plug-in MI in nats from a joint count matrix."""
    n = counts.sum()
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    mi = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            c = counts[i, j]
            if c > 0:
                mi += (c / n) * math.log(c * n / (rows[i] * cols[j]))
    return mi


def nmi_from_counts(counts, normalization="arithmetic"):
    """(value, degenerate) for a joint count matrix."""
    if normalization not in NORMALIZATIONS:
        raise ValidationError(f"unknown NMI normalization {normalization!r}")
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n < 2:
        raise InsufficientDataError("fewer than 2 pairwise-complete rows")
    h_a = _entropy(counts.sum(axis=1), n)
    h_b = _entropy(counts.sum(axis=0), n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0, True  # both constant: trivially interchangeable
    if h_a == 0.0 or h_b == 0.0:
        return 0.0, True  # one constant: carries no information
    mi = _mutual_information(counts)
    if normalization == "arithmetic":
        denom = 0.5 * (h_a + h_b)
    elif normalization == "geometric":
        denom = math.sqrt(h_a * h_b)
    elif normalization == "min":
        denom = min(h_a, h_b)
    else:
        denom = max(h_a, h_b)
    return min(1.0, max(0.0, mi / denom)), False


def _score(var_a, var_b, counts, n_eff, measure, normalization):
    """AssociationScore of one pair's joint counts (value first, then p)."""
    if measure == "nmi":
        value, degenerate = nmi_from_counts(counts, normalization)
        extra = {"normalization": normalization, "degenerate": degenerate}
    else:
        value, warning = cramers_v_from_counts(counts)
        extra = {"warning": warning}
    return AssociationScore(
        var_a=var_a, var_b=var_b, measure=measure, value=value, n_effective=n_eff,
        p_value=counts_significance(counts), **extra,
    )


def normalized_mutual_information(d, a, b, *, normalization="arithmetic"):
    """NMI of two categorical columns; symmetric by construction."""
    # canonical orientation so score(a, b) == score(b, a) bit-exactly
    table = contingency(d, *sorted((a, b)))
    return _score(a, b, table.counts, table.total, "nmi", normalization)


def cramers_v_from_counts(counts):
    """(value, warning) for a joint count matrix."""
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n < 2:
        raise InsufficientDataError("fewer than 2 pairwise-complete rows")
    pruned = _prune(counts)
    if min(pruned.shape) < 2:
        return 0.0, "degenerate table (a variable is constant); V set to 0"
    chi2, _ = _chi2(pruned)
    k = min(pruned.shape) - 1
    return math.sqrt(chi2 / (n * k)), None


def cramers_v(d, a, b):
    """Cramér's V of two categorical columns."""
    table = contingency(d, *sorted((a, b)))
    return _score(a, b, table.counts, table.total, "cramers_v", None)


def _prune(counts):
    """Drop all-zero rows and columns (empty categories)."""
    counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    return counts


def _chi2(pruned):
    """(Pearson chi-squared statistic, expected counts) of a pruned table,
    without continuity correction."""
    rows, cols = pruned.sum(axis=1, keepdims=True), pruned.sum(axis=0, keepdims=True)
    expected = rows * cols / pruned.sum()
    return float(((pruned - expected) ** 2 / expected).sum()), expected


def counts_significance(counts, *, detail=False):
    """P-value of dependence for a joint count matrix; with ``detail``,
    ``(p_value, method)``.

    Chi-squared test for general tables; Fisher's exact test when the pruned
    table is 2x2 and any expected cell count falls below 5 (the small-support
    caution path). Tables where a variable is constant give p = 1.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.sum() == 0:
        raise InsufficientDataError("zero-total contingency table")
    pruned = _prune(counts)
    if min(pruned.shape) < 2:
        p, method = 1.0, "degenerate"
    else:
        chi2, expected = _chi2(pruned)
        if pruned.shape == (2, 2) and (expected < 5).any():
            # the only caller of scipy.stats, imported here so that other
            # runs never load it
            from scipy import stats

            p = float(stats.fisher_exact(pruned, alternative="two-sided")[1])
            method = "fisher_exact"
        else:
            r, c = pruned.shape
            p = float(special.chdtrc((r - 1) * (c - 1), chi2))
            method = "chi2"
    return (p, method) if detail else p


def equal_frequency_bins(values, bins):
    """Strictly increasing interior quantile cut points (may be fewer than
    requested when the data are too discrete)."""
    valid = values[~np.isnan(values)]
    if valid.size == 0:
        return np.array([])
    # ``valid`` is this function's own copy, so the quantile may reorder it
    qs = np.quantile(valid, [i / bins for i in range(1, bins)], overwrite_input=True)
    return np.unique(qs)


def binned_column(d, name, bins):
    """View of a numeric column as categorical codes via equal-frequency bins.

    Returns (codes, categories): bin k covers [edge_{k-1}, edge_k) with the
    first bin open below and the last open above; NaN maps to -1. Every cell
    is binned where it lies, NaN too, and NaN rows are set to -1 after, so
    no copy of the column is gathered.
    """
    x = d.values(name)
    edges = equal_frequency_bins(x, bins)
    codes = np.searchsorted(edges, x, side="right")
    codes[np.isnan(x)] = -1
    labels = []
    for k in range(len(edges) + 1):
        lo = "-inf" if k == 0 else _fmt(edges[k - 1])
        hi = "+inf" if k == len(edges) else _fmt(edges[k])
        labels.append(f"[{lo}, {hi})")
    return codes, tuple(labels)


def _as_categorical(d, name, bins):
    """(codes, n_categories) for a column, binning numerics on the fly."""
    schema = d.schema_of(name)
    if schema.kind == CATEGORICAL:
        return d.codes(name), len(schema.categories)
    codes, labels = binned_column(d, name, bins)
    return codes, len(labels)


def association_scan(d, protected, candidates, *, measure="nmi", normalization="arithmetic", bins=10):
    """Score every protected x candidate pair, ranked descending.

    Numeric candidates are binned into equal-frequency bins first. Pairs with
    fewer than 2 complete rows are left out of the ranking. Ties break by
    ascending p-value, then lexicographic pair name.
    """
    if measure not in ("nmi", "cramers_v"):
        raise ValidationError(f"unknown scan measure {measure!r}")
    if bins < 2:
        raise ParameterError("bins must be at least 2")
    scores = []
    for a in protected:
        codes_a, ka = _as_categorical(d, a, bins)
        for b in candidates:
            codes_b, kb = _as_categorical(d, b, bins)
            counts, n_eff = kernels.joint_counts(codes_a, codes_b, ka, kb)
            del codes_b  # a binned column is not kept while the next is binned
            if n_eff < 2:
                continue
            scores.append(_score(a, b, counts, n_eff, measure, normalization))
    scores.sort(key=lambda s: (-s.value, s.p_value, s.var_a, s.var_b))
    return scores


def scan_to_json(scores):
    return [s.to_json() for s in scores]
