"""Beam search for complex proxies: conjunctions of candidate-column
conditions scoring high on coverage-weighted purity for a protected value.

The search is levelwise and fully deterministic: candidate conditions come
from a fixed enumeration, beams break ties by depth and then by descriptor
text, and every evaluated descriptor is counted toward the Bonferroni budget
used by holdout validation.
"""

import heapq
import warnings
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


def enumerate_conditions(d, columns, bins=4):
    """Atomic conditions for the search space, in deterministic order.

    Categorical columns contribute one equality condition per declared
    category. Numeric columns contribute ``bins`` equal-frequency intervals
    over the observed range plus a below/at-or-above half-line pair per
    interior cut point (constant or all-missing columns contribute nothing).
    """
    if bins < 2:
        raise ParameterError("bins must be at least 2")
    out = []
    for name in columns:
        schema = d.schema_of(name)
        if schema.kind == CATEGORICAL:
            out.extend(Condition.equals(name, cat) for cat in schema.categories)
            continue
        values = d.values(name)
        valid = values[~np.isnan(values)]
        if valid.size == 0:
            continue
        lo, hi = float(valid.min()), float(valid.max())
        if lo == hi:
            continue
        cuts = [float(c) for c in equal_frequency_bins(values, bins) if lo < c < hi]
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


def _count_complete(d, columns, column):
    return int(np.count_nonzero(d.complete_mask(list(columns) + [column])))


def _descriptor_order(entry):
    """Quality-descending, then shallower, then lexicographic descriptor."""
    q, proxy, target = entry[:3]
    return (
        -q,
        proxy.depth,
        tuple(c.sort_key() for c in proxy.conditions),
        target,
    )


def _targets_of(d, protected_columns):
    targets = []
    for column in protected_columns:
        schema = d.schema_of(column)
        if schema.kind != CATEGORICAL:
            raise ValidationError(f"protected column {column!r} must be categorical")
        counts = d.value_counts(column)
        targets.extend(
            (column, cat) for cat in schema.categories if counts.get(cat, 0) > 0
        )
    return targets


def _ranked_pool(d, conditions, targets, beam_width, max_depth, min_support, gamma):
    """Every scored (quality, descriptor, target) of the per-target beams,
    lazily in report order, with the evaluated and below-support counts.

    Children are ranked on integer counts alone; each condition's mask is
    built once, and only the beam's survivors keep their rows.
    """
    condition_masks = [cond.mask(d) for cond in conditions]
    n_complete = {}
    rows = np.empty(d.n_rows, dtype=bool)
    # one sorted run of (quality, descriptor, target) per target and level
    runs = []
    evaluated = 0
    below_support = 0
    for target in targets:
        column = target[0]
        present, is_target = target_rows(d, target)
        # beam entries: (descriptor, its support, its matching rows with the
        # protected value present); the neutral root is never itself
        # reported, only refined
        beam = [(SubgroupDescriptor(()), None, present)]
        for depth in range(1, max_depth + 1):
            # scored entries: pool entry + (parent index, condition index,
            # support); children of one level all have the same depth, so
            # no child can repeat one of an earlier level
            scored = []
            seen = set()
            for p, (parent, parent_support, parent_rows) in enumerate(beam):
                for i, cond in enumerate(conditions):
                    if cond.column in parent.columns:
                        continue
                    child = parent.extended(cond)
                    if child in seen:
                        continue
                    seen.add(child)
                    np.logical_and(parent_rows, condition_masks[i], out=rows)
                    support = int(np.count_nonzero(rows))
                    if parent_support is not None and support > parent_support:
                        raise ValidationError(
                            "refinement support exceeded its parent's support"
                        )
                    if support < min_support:
                        below_support += 1
                        continue
                    evaluated += 1
                    np.logical_and(rows, is_target, out=rows)
                    hits = int(np.count_nonzero(rows))
                    key = (child.columns, column)
                    if key not in n_complete:
                        n_complete[key] = _count_complete(d, *key)
                    q = _quality(support, hits, n_complete[key], gamma)
                    scored.append((q, child, target, p, i, support))
            scored.sort(key=_descriptor_order)
            runs.append([entry[:3] for entry in scored])
            if not scored or depth == max_depth:
                break
            # survivors' rows are rebuilt from their parent's: keeping every
            # scored child's rows would hold one mask per child
            beam = [
                (child, support, beam[p][2] & condition_masks[i])
                for _q, child, _t, p, i, support in scored[:beam_width]
            ]
    # merging keeps equal keys in run order, as a stable sort of all runs would
    return heapq.merge(*runs, key=_descriptor_order), evaluated, below_support


def beam_search(
    d_train,
    config,
    beam_width=10,
    max_depth=3,
    min_support=30,
    gamma=0.25,
    top_k=20,
    *,
    bins=4,
    stats_out=None,
):
    """Levelwise beam search over candidate-column conjunctions, one beam per
    protected (column, category) target, pooled into a global top_k.

    Children are ranked on two integer counts: support (matching rows with
    the protected value present) and hits (those carrying the target
    category); a child's rows are its parent's rows and one condition's
    mask. The exact statistics (:func:`exact_correspondence`: significance
    test and Clopper-Pearson interval) run only for the deduplicated top_k
    results that are returned.

    Every scored (descriptor, target) pair counts toward the Bonferroni
    budget reported in ``stats_out['descriptors_evaluated']``, which
    :func:`validate` uses as its default m_tests.
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
    config.check_against(d_train.schema)

    conditions = enumerate_conditions(d_train, config.candidates, bins)
    targets = _targets_of(d_train, config.protected)
    pool, evaluated, below_support = _ranked_pool(
        d_train, conditions, targets, beam_width, max_depth, min_support, gamma
    )

    deduped = []
    seen_masks = set()
    for q, proxy, target in pool:
        key = (target, proxy.mask(d_train).tobytes())
        if key in seen_masks:
            continue
        seen_masks.add(key)
        score = exact_correspondence(d_train, proxy, target)
        deduped.append(
            DiscoveryResult(
                proxy=proxy,
                protected_target=target,
                quality=q,
                capacity=score,
                adjusted_p=score.p_value,
            )
        )
        if len(deduped) == top_k:
            break

    if stats_out is not None:
        stats_out["descriptors_evaluated"] = evaluated
        stats_out["below_support"] = below_support
        stats_out["targets"] = targets
        stats_out["conditions"] = len(conditions)
    if not deduped:
        warnings.warn(
            f"no descriptor reached min_support={min_support}; nothing to report"
        )
    return deduped


def validate(results, d_holdout, m_tests):
    """Re-score results on held-out rows and Bonferroni-adjust p-values.

    Survivors keep a holdout capacity score and status ``validated``; results
    whose holdout purity CI lower bound falls below the red-flag floor are
    dropped; descriptors matching no holdout row are kept but marked
    ``unvalidated`` rather than silently removed.
    """
    if m_tests < 1:
        raise ParameterError("m_tests must be at least 1")
    out = []
    for result in results:
        adjusted = min(1.0, result.capacity.p_value * m_tests)
        try:
            holdout = exact_correspondence(
                d_holdout, result.proxy, result.protected_target
            )
        except InsufficientDataError:
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
