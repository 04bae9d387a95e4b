"""Audit report assembly: pipeline fragments, red-flag logic, and rendering.

A report is a plain JSON-serializable dict; every number in it comes from one
of the measurement modules, and the red-flag logic is a pure function of
those reported numbers plus the echoed thresholds, so a reader can re-derive
each label from the JSON alone. Serialization is ``models.json_text``, which
sorts keys and pins float formatting, making reports byte-stable for
identical inputs, seed, and tool version; ``generated_at`` honours the
``SOURCE_DATE_EPOCH`` convention so pipelines can pin the timestamp too.

A finding is flagged only on the conjunction the framework requires:
a *validated, near-deterministic* proxy (capacity) whose assignment *also*
moves decisions toward the unfavourable outcome (use). Capacity alone is
reported, but labeled capacity-only.
"""

import datetime as _dt
import hashlib
import math
import os

import jsonschema
import numpy as np

from . import __version__, documents
from .association import association_scan, contingency, scan_to_json
from .capacity import INEXTRICABLE_LINK, classify_link, predictive_capacity
from .data import CATEGORICAL, NUMERIC, split_holdout
from .discovery import VALIDATED, beam_search, validate
from .errors import InsufficientDataError, ValidationError
from .intervention import (
    TOWARD_UNFAVOURABLE,
    Assignment,
    _check_assignments_against,
    _check_feature_assignments,
    flip_analysis,
    ice_curve,
)
from .models import json_text

RED_FLAG_LABEL = "potential inherent-discrimination red flag"
CAPACITY_ONLY_LABEL = "capacity-only finding"
USE_SKIPPED = "skipped"


def utc_timestamp():
    """ISO-8601 UTC second timestamp; SOURCE_DATE_EPOCH pins it when set."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    when = (
        _dt.datetime.fromtimestamp(int(epoch), _dt.timezone.utc)
        if epoch
        else _dt.datetime.now(_dt.timezone.utc)
    )
    return when.replace(microsecond=0).isoformat()


# Rows of a column hashed at a time; its codes are widened one block at a time.
_HASH_ROWS = 1 << 16


def dataset_fingerprint(d):
    """Row count plus per-column and combined content hashes.

    A column hashes the bytes of its cells as float64 values or int64 codes,
    whatever type the table stores them in; hashing a column block by block
    gives the digest of its whole bytes, so no int64 copy of it is made."""
    columns = {}
    combined = hashlib.sha256()
    for col in d.schema:
        cells, digest = d.column_array(col.name), hashlib.sha256()
        wide = np.int64 if col.kind == CATEGORICAL else np.float64
        for start in range(0, cells.shape[0], _HASH_ROWS):
            digest.update(np.ascontiguousarray(cells[start:start + _HASH_ROWS], dtype=wide))
        columns[col.name] = digest.hexdigest()[:16]
        combined.update(col.name.encode("utf-8"))
        combined.update(columns[col.name].encode("ascii"))
    return {
        "n_rows": d.n_rows,
        "columns": columns,
        "digest": combined.hexdigest()[:16],
    }


# --- pipeline fragments ---------------------------------------------------------


def run_capacity(
    d, protected, candidates, proxy_sets=(),
    *, normalization="arithmetic", bins=10, folds=5, seed=0,
):
    """Association scan, contingency drill-down of each top pair, and
    predictive capacity of each configured proxy set against each protected
    column. Pairs and proxy sets with too few complete rows are listed under
    ``skipped`` (written only when non-empty) instead of ending the audit.
    A fold merge is written as its entry's ``warning``, from
    ``CapacityScore.warning``; nothing is warned."""
    fragment = {"scan": [], "contingency": [], "predictive": []}
    skipped = []
    if candidates:
        scores = association_scan(
            d, protected, candidates, normalization=normalization, bins=bins
        )
        fragment["scan"] = scan_to_json(scores)
        ranked = {(s.var_a, s.var_b) for s in scores}
        skipped += [
            {"kind": "scan", "columns": [p, c],
             "reason": "fewer than 2 pairwise-complete rows"}
            for p in protected for c in candidates if (p, c) not in ranked
        ]
        for p in protected:
            top = next(
                (
                    s for s in scores
                    if s.var_a == p and d.schema_of(s.var_b).kind == CATEGORICAL
                ),
                None,
            )
            if top is not None:
                table = contingency(d, top.var_a, top.var_b)
                fragment["contingency"].append(table.to_json())
    for proxy_set in proxy_sets:
        for p in protected:
            try:
                score = predictive_capacity(d, tuple(proxy_set), p, folds=folds, seed=seed)
            except InsufficientDataError as exc:
                skipped.append(
                    {"kind": "predictive", "columns": [p, *proxy_set], "reason": str(exc)}
                )
                continue
            entry = score.to_json()
            entry["link_class"] = classify_link(score)
            fragment["predictive"].append(entry)
    if skipped:
        fragment["skipped"] = skipped
    return fragment


def run_discovery(
    d, config,
    *, beam_width=10, max_depth=2, min_support=30, gamma=0.25,
    top_k=20, bins=4, holdout_fraction=0.4, seed=0,
):
    """Holdout split, beam search on the training rows, validation on the
    held-out rows; both parts are row sets of ``d``, never copies. Returns
    every validated finding plus search accounting; data too small to split
    is a recorded skip with empty counts."""
    try:
        holdout, train = split_holdout(d, holdout_fraction, seed)
    except InsufficientDataError as exc:
        skip = {"kind": "discovery", "columns": list(config.protected), "reason": str(exc)}
        return {"train_rows": 0, "holdout_rows": 0, "m_tests": 1, "validated": [],
                "unvalidated": [], "skipped": [skip]}, []
    stats = {}
    results = beam_search(
        d, config,
        beam_width=beam_width, max_depth=max_depth, min_support=min_support,
        gamma=gamma, top_k=top_k, bins=bins, rows=train, stats_out=stats,
    )
    m_tests = max(1, stats.get("descriptors_evaluated", len(results)))
    validated = validate(results, d, m_tests, rows=holdout) if results else []
    kept = [r for r in validated if r.status == VALIDATED]
    return {
        "train_rows": len(train),
        "holdout_rows": len(holdout),
        "m_tests": m_tests,
        "search": stats,
        "candidates_returned": len(results),
        "validated": [r.to_json() for r in kept],
        "unvalidated": [r.to_json() for r in validated if r.status != VALIDATED],
    }, kept


def check_use(
    feature_order, d, assignments=(), selector=None,
    ice_columns=(), ice_row=None, ice_grid_size=20,
):
    """Raise on a use config that no data could satisfy: an assignment to a
    column the model does not read or to a value outside its column's schema,
    a flip selector condition the schema cannot test, an ICE column the model
    does not read, a numeric ICE column swept on fewer than 2 points, or an
    ICE row outside ``d`` when ``d`` has rows. Needs only the model's
    declared features, so it runs before any stage; returns the ICE row, or
    ``None`` when ``d`` has no rows to sweep."""
    _check_feature_assignments(feature_order, assignments)
    _check_assignments_against(d.schema_of, assignments)
    if assignments and selector is not None:  # only flip analysis reads it
        for cond in selector.conditions:
            try:
                cond.check_against(d)
            except ValidationError as exc:
                raise ValidationError(f"use.selector: {exc}") from None
    unread = [c for c in ice_columns if c not in feature_order]
    if unread:
        raise ValidationError(
            f"use.ice_columns names {unread[0]!r}, which the model does not read"
        )
    numeric = [c for c in ice_columns if d.schema_of(c).kind == NUMERIC]
    if numeric and ice_grid_size < 2:
        raise ValidationError(
            f"use.ice_grid_size must be at least 2 to sweep numeric column "
            f"{numeric[0]!r}, got {ice_grid_size!r}"
        )
    if not d.n_rows:
        return None  # no row to sweep, whether or not ice_row names one
    if ice_row is None:
        return 0
    if ice_columns and not (type(ice_row) is int and 0 <= ice_row < d.n_rows):
        raise ValidationError(f"use.ice_row must be a row in 0..{d.n_rows - 1}, got {ice_row!r}")
    return ice_row


def run_use(
    m, rule, d, assignments=(), selector=None,
    *, flip_rate_floor=0.01, score_floor_fraction=0.05,
    ice_columns=(), ice_row=None, ice_grid_size=20,
):
    """Flip analysis for the assignment list (if any) plus ICE sweeps. A flip
    analysis with no selected complete row, and a sweep with no row (empty
    data, whatever ``ice_row`` names), whose row misses another model feature
    or whose column has no span of observed values, are listed under
    ``skipped`` (written only when non-empty) instead of ending the audit.
    The config errors of :func:`check_use` are raised first."""
    row_index = check_use(
        m.feature_order, d, assignments, selector, ice_columns, ice_row, ice_grid_size
    )
    fragment, skipped = {"summaries": [], "ice": []}, []
    if assignments:
        try:
            # only the summary: a flip's records hold a number a selected row
            summary = flip_analysis(
                m, rule, d, assignments, selector,
                flip_rate_floor=flip_rate_floor,
                score_floor_fraction=score_floor_fraction,
            )[0]
            fragment["summaries"].append(summary.to_json())
        except InsufficientDataError as exc:
            columns = [a.column for a in assignments]
            skipped.append({"kind": "flip", "columns": columns, "reason": str(exc)})
    row = d.record(row_index) if ice_columns and row_index is not None else {}
    for column in ice_columns:
        absent = [f for f in m.feature_order if f != column and f in row and row[f] is None]
        try:
            if row_index is None:
                raise InsufficientDataError("no data row to sweep")
            if absent:
                raise InsufficientDataError(f"row {row_index}: missing value for feature {absent[0]!r}")
            curve = ice_curve(m, row, column, ice_grid_size, dataset=d, row_index=row_index)
            fragment["ice"].append(curve.to_json())
        except InsufficientDataError as exc:
            skipped.append({"kind": "ice", "columns": [column], "reason": str(exc)})
    if skipped:
        fragment["skipped"] = skipped
    return fragment


# --- red-flag conjunction -------------------------------------------------------


def representative_assignments(proxy, feature_order, d):
    """Assignments that move a row *into* the proxy region, restricted to
    columns the model reads: equality conditions pin the category; interval
    conditions take the midpoint of the bounds (clamped to the observed
    column range when a side is open)."""
    features = set(feature_order)
    out = []
    for cond in proxy.conditions:
        if cond.column not in features:
            continue
        if cond.kind == "equals":
            out.append(Assignment(cond.column, cond.category))
            continue
        values = d.column_array(cond.column)
        observed = values[~np.isnan(values)]
        lo = float(observed.min()) if math.isinf(cond.lo) else cond.lo
        hi = float(observed.max()) if math.isinf(cond.hi) else cond.hi
        out.append(Assignment(cond.column, (lo + hi) / 2.0))
    return out


def derive_red_flags(
    kept_results, m, rule, d,
    *, flip_rate_floor=0.01, score_floor_fraction=0.05,
):
    """Label each validated finding by the two-part standard.

    A finding earns the red-flag label only when its holdout capacity
    classifies as an inextricable-link candidate AND assigning rows into the
    proxy region significantly moves decisions toward the unfavourable
    outcome. Everything else stays capacity-only; findings whose descriptor
    touches no model feature record a skipped use check.
    """
    findings = []
    for result in kept_results:
        capacity = result.holdout_capacity or result.capacity
        link = classify_link(capacity)
        entry = {
            "proxy": result.proxy.to_json(),
            "proxy_text": result.proxy.as_text(),
            "protected_target": list(result.protected_target),
            "link_class": link,
            "holdout_capacity": capacity.to_json(),
            "adjusted_p": result.adjusted_p,
            "use": USE_SKIPPED,
            "label": CAPACITY_ONLY_LABEL,
        }
        if link == INEXTRICABLE_LINK and m is not None and rule is not None:
            assignments = representative_assignments(
                result.proxy, m.feature_order, d
            )
            if assignments:
                # the records go at once, not alive through the next flip
                summary = flip_analysis(
                    m, rule, d, assignments,
                    flip_rate_floor=flip_rate_floor,
                    score_floor_fraction=score_floor_fraction,
                )[0]
                entry["use"] = summary.to_json()
                if (
                    summary.significant_influence_flag
                    and summary.direction_of_harm == TOWARD_UNFAVOURABLE
                ):
                    entry["label"] = RED_FLAG_LABEL
        findings.append(entry)
    return findings


def red_flag_count(findings):
    return sum(1 for f in findings if f["label"] == RED_FLAG_LABEL)


# --- assembly and rendering -----------------------------------------------------


def assemble(config_echo, d, sections, findings, seed):
    return {
        "tool_version": __version__,
        "generated_at": utc_timestamp(),
        "seed": seed,
        "config": config_echo,
        "dataset": dataset_fingerprint(d),
        "sections": sections,
        "red_flags": findings,
        "red_flag_count": red_flag_count(findings),
    }


def report_json_bytes(report):
    """The report's ``json_text`` as UTF-8 bytes."""
    return json_text(report).encode("utf-8")


def validate_report(report):
    """Check the report against the published schema; raises on mismatch."""
    error = jsonschema.exceptions.best_match(
        documents.validator("audit_report").iter_errors(report)
    )
    if error is not None:
        raise ValidationError(f"report fails its schema: {error.message}")


def _md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return out


def _skipped_lines(section):
    return [
        f"- skipped {s['kind']} ({', '.join(s['columns'])}): {s['reason']}"
        for s in section.get("skipped", [])
    ]


def render_markdown(report):
    """Human-readable mirror of the JSON, in presentation order: scan table,
    contingency drill-downs, discovery, use, then flags."""
    lines = [
        "# Proxy audit report",
        "",
        f"- tool version: {report['tool_version']}",
        f"- generated at: {report['generated_at']}",
        f"- seed: {report['seed']}",
        f"- dataset: {report['dataset']['n_rows']} rows, "
        f"digest `{report['dataset']['digest']}`",
        "",
    ]
    sections = report["sections"]
    capacity = sections.get("capacity")
    if capacity:
        if capacity["scan"]:
            lines += ["## Association scan", ""]
            lines += _md_table(
                ["protected", "candidate", "measure", "value", "p-value", "n"],
                [
                    (
                        s["var_a"], s["var_b"], s["measure"],
                        f"{s['value']:.3f}", f"{s['p_value']:.3g}",
                        s["n_effective"],
                    )
                    for s in capacity["scan"]
                ],
            )
            lines.append("")
        for table in capacity["contingency"]:
            lines += [
                f"## Contingency: {table['row_var']} x {table['col_var']}",
                "",
            ]
            lines += _md_table(
                [table["row_var"] + " \\ " + table["col_var"]]
                + list(table["col_cats"]),
                [
                    [row_name] + list(counts)
                    for row_name, counts in zip(table["row_cats"], table["counts"])
                ],
            )
            lines.append("")
        if capacity["predictive"]:
            lines += ["## Predictive capacity", ""]
            lines += _md_table(
                ["proxy set", "protected", "value", "CI", "class"],
                [
                    (
                        " + ".join(p["proxy"]), str(p["protected_value"]),
                        f"{p['value']:.3f}",
                        f"[{p['ci_low']:.3f}, {p['ci_high']:.3f}]",
                        p["link_class"],
                    )
                    for p in capacity["predictive"]
                ],
            )
            lines.append("")
        skipped = _skipped_lines(capacity)
        if skipped:
            lines += skipped + [""]
    discovery = sections.get("discovery")
    if discovery:
        lines += [
            "## Subgroup discovery",
            "",
            f"- training rows: {discovery['train_rows']}, "
            f"holdout rows: {discovery['holdout_rows']}",
            f"- descriptors tested: {discovery['m_tests']} "
            f"(Bonferroni correction factor)",
            f"- validated findings: {len(discovery['validated'])}",
            *_skipped_lines(discovery),
            "",
        ]
        if discovery["validated"]:
            lines += _md_table(
                ["subgroup", "protected value", "holdout purity", "adjusted p"],
                [
                    (
                        r["proxy_text"],
                        ":".join(r["protected_target"]),
                        f"{r['holdout_capacity']['value']:.4f}",
                        f"{r['adjusted_p']:.3g}",
                    )
                    for r in discovery["validated"]
                ],
            )
            lines.append("")
    use = sections.get("use")
    if use == USE_SKIPPED:
        lines += ["## Proxy use", "", "_skipped: no model supplied_", ""]
    elif use:
        lines += ["## Proxy use", ""]
        for s in use["summaries"]:
            assigns = ", ".join(
                f"{a['column']}:={a['value']!r}" for a in s["assignments"]
            )
            lines += [
                f"- intervention [{assigns}] over {s['n']} rows: "
                f"flip rate {s['flip_rate']:.4f}, "
                f"mean |delta| {s['mean_abs_delta']:.4f}, "
                f"direction {s['direction_of_harm']}, "
                f"significant: {s['significant_influence_flag']}",
            ]
        lines += _skipped_lines(use) + [""]
    flags = report["red_flags"]
    lines += ["## Findings", ""]
    if not flags:
        lines.append("_no validated findings_")
    for f in flags:
        lines += [
            f"### {f['proxy_text']} -> "
            f"{':'.join(f['protected_target'])}",
            "",
            f"- label: **{f['label']}**",
            f"- link class: {f['link_class']}",
            f"- holdout purity: {f['holdout_capacity']['value']:.4f} "
            f"(CI low {f['holdout_capacity']['ci_low']:.4f})",
            f"- adjusted p: {f['adjusted_p']:.3g}",
        ]
        if f["use"] != USE_SKIPPED:
            lines += [
                f"- use: flip rate {f['use']['flip_rate']:.4f} toward "
                f"{f['use']['direction_of_harm']}, significant: "
                f"{f['use']['significant_influence_flag']}",
            ]
        lines.append("")
    lines += [
        "---",
        "",
        "_Findings are potential red flags for further review, not legal "
        "conclusions and not a certification of nondiscrimination._",
        "",
    ]
    return "\n".join(lines)
