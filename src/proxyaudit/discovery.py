"""Beam search for complex proxies: conjunctions of candidate-column
conditions scoring high on coverage-weighted purity for a protected value.

The search is levelwise and fully deterministic: candidate conditions come
from a fixed enumeration, beams break ties by depth and then by descriptor
text, and every evaluated descriptor is counted toward the Bonferroni budget
used by holdout validation.
"""

import heapq
from dataclasses import dataclass, replace

import numpy as np

from .association import equal_frequency_bins
from .capacity import RED_FLAG_CI_FLOOR, CapacityScore, exact_correspondence, target_rows
from .data import CATEGORICAL
from .descriptors import Condition, SubgroupDescriptor
from .errors import InsufficientDataError, ParameterError, ValidationError

CANDIDATE = "candidate"
VALIDATED = "validated"
UNVALIDATED = "unvalidated"


@dataclass(frozen=True)
class DiscoveryResult:
    """One discovered proxy descriptor with its capacity evidence."""

    proxy: SubgroupDescriptor
    protected_target: tuple  # (column, category)
    quality: float
    capacity: CapacityScore
    adjusted_p: float
    holdout_capacity: CapacityScore = None
    status: str = CANDIDATE

    def __post_init__(self):
        if self.adjusted_p < self.capacity.p_value:
            raise ValidationError("adjusted p-value below the raw p-value")
        if self.status not in (CANDIDATE, VALIDATED, UNVALIDATED):
            raise ValidationError(f"unknown result status {self.status!r}")
        if self.status == VALIDATED and self.holdout_capacity is None:
            raise ValidationError("validated results need a holdout capacity score")

    def to_json(self):
        out = {
            "proxy": self.proxy.to_json(),
            "proxy_text": self.proxy.as_text(),
            "protected_target": list(self.protected_target),
            "quality": self.quality,
            "capacity": self.capacity.to_json(),
            "adjusted_p": self.adjusted_p,
            "status": self.status,
        }
        if self.holdout_capacity is not None:
            out["holdout_capacity"] = self.holdout_capacity.to_json()
        return out


def _row_index(d, rows):
    """``rows`` as row indices of ``d``, every row for None. Anything but a
    1-D integer array of indices in 0..n_rows-1 raises, so a mask or a
    negative index cannot pass for a row set; an empty array is no rows."""
    if rows is None:
        return np.arange(d.n_rows)
    index = np.asarray(rows)
    if index.ndim == 1 and index.size == 0:
        return index.astype(np.intp)
    if index.ndim != 1 or index.dtype.kind not in "iu" or not (
        0 <= index.min() and index.max() < d.n_rows
    ):
        raise ParameterError(f"rows must be a 1-D array of integer row indices in [0, {d.n_rows})")
    return index


def enumerate_conditions(d, columns, bins=4, *, rows=None):
    """Atomic conditions for the search space, in deterministic order.

    Categorical columns contribute one equality condition per declared
    category. Numeric columns contribute ``bins`` equal-frequency intervals
    over the range observed at ``rows`` (every row by default) plus a
    below/at-or-above half-line pair per interior cut point (constant or
    all-missing columns contribute nothing).
    """
    if bins < 2:
        raise ParameterError("bins must be at least 2")
    rows = _row_index(d, rows)
    out = []
    for name in columns:
        schema = d.schema_of(name)
        if schema.kind == CATEGORICAL:
            out.extend(Condition.equals(name, cat) for cat in schema.categories)
            continue
        values = d.values(name)[rows]
        valid = values[~np.isnan(values)]
        del values  # the cut points come from the same cells, NaN or not
        if valid.size == 0:
            continue
        lo, hi = float(valid.min()), float(valid.max())
        if lo == hi:
            continue
        cuts = [float(c) for c in equal_frequency_bins(valid, bins) if lo < c < hi]
        edges = [lo] + cuts + [hi]
        for i in range(len(edges) - 1):
            last = i == len(edges) - 2
            out.append(
                Condition.interval(name, lo=edges[i], hi=edges[i + 1], hi_closed=last)
            )
        for c in cuts:
            out.append(Condition.interval(name, hi=c))
            out.append(Condition.interval(name, lo=c))
    return out


def _quality(support, hits, n_complete, gamma):
    """Coverage-weighted purity from counts: support and hits of the matching
    rows, n_complete rows complete in the descriptor's and target's columns."""
    return (support / n_complete) ** gamma * (hits / support)


def _targets_of(d, protected_columns, rows):
    targets = []
    for column in protected_columns:
        schema = d.schema_of(column)  # categorical, by ``config.check_against``
        codes = d.codes(column)[rows].astype(np.intp)  # +1 would wrap narrow codes
        codes += 1  # a missing cell counts in bin 0
        counts = np.bincount(codes, minlength=len(schema.categories) + 1)
        targets.extend(
            (column, cat) for cat, count in zip(schema.categories, counts[1:]) if count
        )
    return targets


def _words(masks, n):
    """Each boolean mask of n rows packed into one row of uint64 words; the
    bits past n are 0, so popcounts and bytes depend on the n rows alone."""
    packed = [np.packbits(mask) for mask in masks]
    out = np.zeros((len(packed), -(-n // 64)), dtype=np.uint64)
    if packed:
        out.view(np.uint8)[:, : -(-n // 8)] = packed
    return out


def _condition_masks(d, conditions, rows):
    """Each condition's mask over ``rows``, reading each column's cells at
    those rows once (``conditions`` come grouped by column)."""
    column = cells = None
    for cond in conditions:
        schema = cond.check_against(d)
        if cond.column != column:
            column, cells = cond.column, d.column_array(cond.column)[rows]
        yield cond.matches(cells, schema)


def _popcount(words):
    return np.bitwise_count(words).sum(axis=-1)


def _purities(d, pairs, rows):
    """Each (descriptor, target) pair's :func:`exact_correspondence` over
    ``rows`` of ``d`` (None means every row), or None where the descriptor
    matches no complete row. At rows, it reads ``d`` through
    ``Dataset._read_at``, which gathers a column's cells at the rows on each
    read and keeps none, so a score holds one column's cells at a time."""
    at = d if rows is None else d._read_at(rows)
    for q, target in pairs:
        try:
            score = exact_correspondence(at, q, target)
        except InsufficientDataError:
            score = None
        yield score


def _ranked_pool(d, rows, conditions, targets, beam_width, max_depth, min_support, gamma):
    """Every scored (quality, descriptor, target, mask key) of the per-target
    beams, lazily in report order, with the evaluated and below-support counts.

    Each condition's mask over ``rows``, each candidate column's present mask
    and each target's (present, is_target) masks are packed into rows of
    uint64 words, so a mask of n rows takes n / 8 bytes. All children of a
    parent are scored at once: one ``&`` with the parent's words and one
    ``bitwise_count`` sum give every child's support, and one more ``&``
    with the target's words every child's hits. Complete-row counts are
    cached by column set. A child is the sorted tuple of its conditions'
    ranks in ``Condition.sort_key`` order, so ranks order children as their
    descriptors' sort keys do; a descriptor is built only for an entry the
    caller takes, and the mask key (its packed rows) only then too.
    """
    n = len(rows)
    # a repeated condition would make one descriptor twice; ranks need none
    conditions = sorted(set(conditions), key=Condition.sort_key)
    words = _words(_condition_masks(d, conditions, rows), n)
    columns = list(dict.fromkeys(cond.column for cond in conditions))
    column_of = np.array([columns.index(cond.column) for cond in conditions], dtype=np.intp)
    present_of = _words((~d.is_missing(name)[rows] for name in columns), n)
    n_complete = {}
    scratch = np.empty_like(words)
    # one sorted run of (-quality, depth, ranks, target, parent, rank, support)
    # per target and level; no two entries share (depth, ranks, target), so
    # tuples compare by the report's order alone, never by the fields after
    runs = []
    evaluated = 0
    below_support = 0
    for target in targets:
        present, is_target = _words((mask[rows] for mask in target_rows(d, target)), n)
        # beam entries: (ranks, their column indices, support, words of the
        # matching rows with the protected value present); the neutral root
        # is never itself reported, only refined
        beam = [((), (), None, present)]
        for depth in range(1, max_depth + 1):
            run = []
            for p, (ranks, cols, parent_support, parent_words) in enumerate(beam):
                eligible = np.ones(len(conditions), dtype=bool)
                for c in cols:
                    eligible &= column_of != c
                # an earlier parent of this level made a child already iff
                # the child holds it: it then differs from this parent by
                # one condition, and only that condition makes the repeat
                for earlier in beam[:p]:
                    extra = set(earlier[0]).difference(ranks)
                    if len(extra) == 1:
                        eligible[extra.pop()] = False
                np.bitwise_and(words, parent_words, out=scratch)
                support = _popcount(scratch)
                if parent_support is not None and support.max(initial=0) > parent_support:
                    raise ValidationError(
                        "refinement support exceeded its parent's support"
                    )
                kept = eligible & (support >= min_support)
                below_support += int(np.count_nonzero(eligible & ~kept))
                scratch &= is_target
                hits = _popcount(scratch)
                kept = np.flatnonzero(kept)
                for i, s, h in zip(kept.tolist(), support[kept].tolist(), hits[kept].tolist()):
                    child_cols = (*cols, int(column_of[i]))
                    key = (target[0], frozenset(child_cols))
                    if key not in n_complete:
                        complete = np.bitwise_and.reduce(present_of[list(child_cols)])
                        n_complete[key] = int(_popcount(complete & present))
                    q = _quality(s, h, n_complete[key], gamma)
                    run.append((-q, depth, tuple(sorted((*ranks, i))), target, p, i, s))
            evaluated += len(run)
            run.sort()
            runs.append(run)
            if not run or depth == max_depth:
                break
            # survivors' rows are rebuilt from their parent's: keeping every
            # scored child's rows would hold one mask per child
            beam = [
                (child, (*beam[p][1], int(column_of[i])), s, beam[p][3] & words[i])
                for _q, _depth, child, _t, p, i, s in run[:beam_width]
            ]

    def pool():
        for neg_q, _depth, ranks, target, *_ in heapq.merge(*runs):
            proxy = SubgroupDescriptor(tuple(conditions[r] for r in ranks))
            mask_key = np.bitwise_and.reduce(words[list(ranks)]).tobytes()
            yield -neg_q, proxy, target, mask_key

    return pool(), evaluated, below_support


def beam_search(
    d,
    config,
    beam_width=10,
    max_depth=3,
    min_support=30,
    gamma=0.25,
    top_k=20,
    *,
    bins=4,
    rows=None,
    stats_out=None,
):
    """Levelwise beam search over candidate-column conjunctions, one beam per
    protected (column, category) target, pooled into a global top_k.

    The search reads only ``rows`` of ``d``, an integer row-index array such
    as one part of :func:`~proxyaudit.data.split_holdout` (None means every
    row; anything else raises ``ParameterError``); the table is never copied.
    Children are ranked on two integer counts over packed row bits: support
    (matching rows with the protected value present) and hits (those carrying
    the target category); a child's rows are its parent's rows and one
    condition's rows. The exact statistics (:func:`exact_correspondence`:
    significance test and Clopper-Pearson interval) run only for the
    deduplicated top_k results that are returned, on their columns read at
    ``rows`` one column at a time.

    Every scored (descriptor, target) pair counts toward the Bonferroni
    budget reported in ``stats_out['descriptors_evaluated']``, which
    :func:`validate` uses as its default m_tests. When nothing reaches
    ``min_support`` the result is ``[]``, with those counts; nothing is warned.
    """
    if beam_width < 1:
        raise ParameterError("beam_width must be at least 1")
    if max_depth < 1:
        raise ParameterError("max_depth must be at least 1")
    if top_k < 1:
        raise ParameterError("top_k must be at least 1")
    if min_support < 1:
        raise ParameterError("min_support must be at least 1")
    if gamma < 0:
        raise ParameterError("gamma must be non-negative")
    config.check_against(d.schema)
    index = _row_index(d, rows)

    conditions = enumerate_conditions(d, config.candidates, bins, rows=index)
    targets = _targets_of(d, config.protected, index)
    pool, evaluated, below_support = _ranked_pool(
        d, index, conditions, targets, beam_width, max_depth, min_support, gamma
    )

    # every pool entry has support >= min_support >= 1, so each is scored
    deduped = {}
    for q, proxy, target, mask_key in pool:
        deduped.setdefault((target, mask_key), (q, proxy, target))
        if len(deduped) == top_k:
            break
    entries = deduped.values()
    scores = _purities(
        d, ((proxy, target) for _q, proxy, target in entries), None if rows is None else index
    )
    results = [
        DiscoveryResult(
            proxy=proxy, protected_target=target, quality=q, capacity=score,
            adjusted_p=score.p_value,
        )
        for (q, proxy, target), score in zip(entries, scores)
    ]

    if stats_out is not None:
        stats_out["descriptors_evaluated"] = evaluated
        stats_out["below_support"] = below_support
        stats_out["targets"] = targets
        stats_out["conditions"] = len(conditions)
    return results


def validate(results, d, m_tests, *, rows=None):
    """Re-score results on held-out ``rows`` of ``d``, an integer row-index
    array (None means every row; anything else raises ``ParameterError``),
    and Bonferroni-adjust p-values.

    Survivors keep a holdout capacity score and status ``validated``; results
    whose holdout purity CI lower bound falls below the red-flag floor are
    dropped; descriptors matching no holdout row are kept but marked
    ``unvalidated`` rather than silently removed.
    """
    if m_tests < 1:
        raise ParameterError("m_tests must be at least 1")
    if rows is not None:
        rows = _row_index(d, rows)
    scores = _purities(d, ((r.proxy, r.protected_target) for r in results), rows)
    out = []
    for result, holdout in zip(results, scores):
        adjusted = min(1.0, result.capacity.p_value * m_tests)
        if holdout is None:
            out.append(
                replace(result, adjusted_p=adjusted, status=UNVALIDATED)
            )
            continue
        if holdout.ci_low < RED_FLAG_CI_FLOOR:
            continue
        out.append(
            replace(
                result,
                adjusted_p=adjusted,
                holdout_capacity=holdout,
                status=VALIDATED,
            )
        )
    return out
