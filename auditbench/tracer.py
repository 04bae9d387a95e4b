"""Traced audit: time each proxyaudit layer from outside, in one process.

Run as ``python3 auditbench/tracer.py SPANS_JSON full --config ... --data ...
--out ...``. The script imports ``proxyaudit.cli``, wraps the public
functions of the layer modules where their callers look them up, runs
``proxyaudit.cli.main`` in process and, when the audit ends, writes every
span to ``SPANS_JSON``. No file of the program changes.

A span records its name, start, end, parent span and run id, plus counts
taken at the same boundary. The span name's prefix is the layer:
``data``, ``association``, ``kernels``, ``capacity``, ``discovery``,
``intervention``, ``models``, ``report``, and ``cli`` for the orchestration
that drives them (``cli.main`` and the pipeline fragments ``report.run_*``,
``report.derive_red_flags`` and ``report.assemble``). :func:`layer_metrics`
turns the spans into per-layer self times and counts.
"""

import functools
import importlib
import json
import os
import resource
import sys
import time

RED_FLAG_SPAN = "cli.derive_red_flags"
USE_SPAN = "cli.run_use"


class Tracer:
    """In-memory span recorder for one audit."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def span(self, name, fn, count=None):
        """``fn`` wrapped so that each call records a span named ``name``;
        ``count(result, args, kwargs)`` returns the counts to attach."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {
                "id": len(tracer.spans),
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "run": tracer.run_id,
                "start": time.perf_counter(),
            }
            tracer.spans.append(record)
            tracer._stack.append(record["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                record["counts"] = count(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attribute, name, count=None):
        setattr(owner, attribute,
                self.span(name, getattr(owner, attribute), count))


def _load_counts(dataset, _args, _kwargs):
    load = dataset.load_report
    return {"rows": load.n_rows,
            "missing_cells": sum(load.missing_by_column.values())}


def _beam_counts(results, _args, kwargs):
    stats = kwargs.get("stats_out") or {}
    return {"descriptors_evaluated": stats.get("descriptors_evaluated", 0),
            "below_support": stats.get("below_support", 0),
            "candidates_returned": len(results)}


def _exit_counts(_result, args, _kwargs):
    return {"transport_retries": getattr(args[0], "transport_retries", 0)}


def install(tracer):
    """Wrap each layer's public functions at the names their callers use."""
    from proxyaudit import cli, discovery, kernels, models, report

    patches = [
        (cli, "load_csv", "data.load_csv", _load_counts),
        (report, "split_holdout", "data.split_holdout", None),
        (report, "association_scan", "association.scan",
         lambda r, a, k: {"pairs": len(r)}),
        (report, "contingency", "association.contingency", None),
        # association and capacity call kernels.<name> at call time
        (kernels, "joint_counts", "kernels.joint_counts", None),
        (kernels, "best_split", "kernels.best_split", None),
        (report, "predictive_capacity", "capacity.predictive", None),
        # discovery imports exact_correspondence by name
        (discovery, "exact_correspondence", "capacity.exact_correspondence", None),
        (report, "beam_search", "discovery.beam", _beam_counts),
        (report, "validate", "discovery.validate", None),
        (report, "flip_analysis", "intervention.flip",
         lambda r, a, k: {"rows": r[0].n}),
        (report, "ice_curve", "intervention.ice", None),
        (cli, "load_model", "models.open", None),
        (models.ModelHandle, "__exit__", "models.close", _exit_counts),
        (report, "dataset_fingerprint", "report.fingerprint", None),
        (report, "validate_report", "report.validate", None),
        (report, "report_json_bytes", "report.serialize",
         lambda r, a, k: {"bytes": len(r)}),
        (report, "render_markdown", "report.serialize", None),
        # pipeline fragments: orchestration that lives in report.py
        (report, "run_capacity", "cli.run_capacity", None),
        (report, "run_discovery", "cli.run_discovery", None),
        (report, "run_use", USE_SPAN, None),
        (report, "derive_red_flags", RED_FLAG_SPAN, None),
        (report, "assemble", "cli.assemble", None),
    ]
    for handle in (models.BuiltinModelHandle, models.SubprocessModelHandle,
                   models.HttpModelHandle):
        patches.append((handle, "predict_batch", "models.predict",
                        lambda r, a, k: {"rows": len(a[1])}))
    for owner, attribute, name, count in patches:
        tracer.patch(owner, attribute, name, count)
    return cli


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    tracer.span("setup.import", importlib.import_module)("proxyaudit.cli")
    cli = install(tracer)
    code = 0
    try:
        tracer.span("cli.main", cli.main)(cli_args, standalone_mode=False)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
        code = code if isinstance(code, int) else 1
    # the only children of this process are model probes
    probe_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "probe_peak_rss_kb": probe_kb,
                   "spans": tracer.spans}, fh)
    return code


# --- derivation ---------------------------------------------------------------


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _under(spans_by_id, span, ancestor_name):
    parent = span["parent"]
    while parent is not None:
        if spans_by_id[parent]["name"] == ancestor_name:
            return True
        parent = spans_by_id[parent]["parent"]
    return False


LAYERS = ("data", "association", "kernels", "capacity", "discovery",
          "intervention", "models", "report", "cli")


def layer_metrics(trace):
    """Per-layer metrics of one traced audit. ``*_s`` of a named span is its
    self time, except the intervention totals (``redflags_s``, ``use_s``,
    ``ice_s``), which include the model calls beneath them; ``<layer>.self_s``
    sums the self time of every span of that layer."""
    spans = [s for s in trace["spans"] if s["name"] != "setup.import"]
    by_id = {s["id"]: s for s in trace["spans"]}
    own = self_times(trace["spans"])

    def total(name, where=None):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and (where is None or where(s)))

    def self_of(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in spans
                   if s["name"] == name)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s["name"].split(".", 1)[0]] += own[s["id"]]

    evaluated = count("discovery.beam", "descriptors_evaluated")
    rows_scored = count("models.predict", "rows")
    predict_s = self_of("models.predict")
    m = {
        "data.load_s": self_of("data.load_csv"),
        "data.rows": count("data.load_csv", "rows"),
        "data.missing_cells": count("data.load_csv", "missing_cells"),
        "association.scan_s": self_of("association.scan"),
        "association.pairs": count("association.scan", "pairs"),
        "association.contingency_s": self_of("association.contingency"),
        "kernels.joint_counts_calls": calls("kernels.joint_counts"),
        "kernels.best_split_calls": calls("kernels.best_split"),
        "kernels.best_split_s": self_of("kernels.best_split"),
        "capacity.predictive_s": self_of("capacity.predictive"),
        "capacity.exact_correspondence_calls":
            calls("capacity.exact_correspondence"),
        "capacity.exact_correspondence_s":
            self_of("capacity.exact_correspondence"),
        "discovery.beam_s": self_of("discovery.beam"),
        "discovery.validate_s": self_of("discovery.validate"),
        "discovery.descriptors_evaluated": evaluated,
        "discovery.below_support": count("discovery.beam", "below_support"),
        "discovery.ms_per_descriptor":
            1000.0 * total("discovery.beam") / evaluated if evaluated else 0.0,
        "discovery.kept_ratio":
            count("discovery.beam", "candidates_returned") / evaluated
            if evaluated else 0.0,
        "intervention.redflags_s": total(
            "intervention.flip", lambda s: _under(by_id, s, RED_FLAG_SPAN)),
        "intervention.use_s": total(
            "intervention.flip", lambda s: _under(by_id, s, USE_SPAN)),
        "intervention.ice_s": total("intervention.ice"),
        "intervention.rows_intervened": count("intervention.flip", "rows"),
        "models.open_s": self_of("models.open"),
        "models.predict_calls": calls("models.predict"),
        "models.rows_scored": rows_scored,
        "models.predict_s": predict_s,
        "models.rows_per_s": rows_scored / predict_s if predict_s else 0.0,
        "models.transport_retries": count("models.close", "transport_retries"),
        "models.probe_peak_rss_mb": trace["probe_peak_rss_kb"] / 1024.0,
        "report.fingerprint_s": self_of("report.fingerprint"),
        "report.validate_s": self_of("report.validate"),
        "report.serialize_s": self_of("report.serialize"),
        "report.bytes": count("report.serialize", "bytes"),
        "trace.spans": len(trace["spans"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
