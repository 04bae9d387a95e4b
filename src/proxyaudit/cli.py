"""Command-line entry points: capacity, discover, use, full, synth.

The audit commands run one pipeline, ``_run_audit``, over their ``STAGES``:
``full`` runs capacity, discovery and use; ``capacity``, ``discover`` and
``use`` each run one stage and write the section ``full`` would. Before the
data is loaded, the config and the dataset schema are checked against the
bundled ``schemas/config.schema.json`` and ``schemas/dataset_schema.schema.json``
(keys, types, ranges, finite numbers; the config schema also holds each
option section's defaults), the decision rule, the model spec and the use
selector are built, and the audit roles are checked against the schema's
columns. The use step's preconditions (a model spec the dataset schema can
feed, assignments to columns the model reads and to values their schema
allows, a selector the schema can test, a model and a decision rule, ICE
columns the model reads, a grid of at least 2 points for a numeric ICE
column, an ICE row inside non-empty data) are checked before any stage.

Exit codes separate findings from failures: 0 means the audit ran (whatever
it found), 2 is a usage or configuration error, 3 is a runtime failure, and
``--fail-on-red-flag`` opts into exit 4 when red flags are present — so a CI
pipeline can distinguish "found discrimination" from "tool broke".

Relative ``schema_path``/``model_path`` resolve against the config file's
directory. The config, the dataset schema and the model spec are each read by
``models.read_json``: bytes that are not UTF-8, or text that is not strict
JSON, make a configuration error that names the document (``config:``,
``dataset schema:``, ``model spec:``).

The console script and ``python -m proxyaudit.cli`` both enter through
:func:`run`. It calls ``gc.freeze()`` once the imports are done, so no
collection, those at interpreter exit included, walks the import-time objects
again, and then calls the click group :func:`main`. ``main`` leaves the
collector alone, so calling it in process (``CliRunner``, the benchmark's
tracer) changes no GC state. Only the ``synth`` command imports ``synth``.
"""

import contextlib
import gc
import sys
from pathlib import Path

import click

from . import __version__, documents, report
from .capacity import RED_FLAG_CI_FLOOR, RED_FLAG_PURITY, check_proxy_set
from .data import (
    AuditConfig,
    load_csv,
    read_schema_json,
    schema_from_json,
    write_schema_json,
)
from .descriptors import SubgroupDescriptor
from .errors import (
    ParameterError,
    ParseError,
    ProxyAuditError,
    ValidationError,
)
from .intervention import Assignment, FlipKey
from .models import DecisionRule, ModelSpec, load_model, read_json, write_json

_FORMATS = ("json", "md")

# The stages each command runs, in pipeline order. ``full`` is the paper's
# test: the capacity step, the use step, and a red flag only where both hold.
STAGES = {
    "capacity": ("capacity",),
    "discover": ("discovery",),
    "use": ("use",),
    "full": ("capacity", "discovery", "use"),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_RED_FLAG = 4

_CONFIG_PROPERTIES = documents.schema("config")["properties"]
TOP_LEVEL_KEYS = tuple(_CONFIG_PROPERTIES)
# The option sections, the config objects whose every key has a default, with
# those defaults; a JSON list default becomes a tuple, which no run can change.
SECTIONS = {
    section: {
        key: tuple(p["default"]) if isinstance(p["default"], list) else p["default"]
        for key, p in prop["properties"].items()
    }
    for section, prop in _CONFIG_PROPERTIES.items()
    if "properties" in prop and all("default" in p for p in prop["properties"].values())
}


def _fail(code, message):
    click.echo(f"proxyaudit: error: {message}", err=True)
    sys.exit(code)


def _guard(body):
    """Map exception classes onto the exit-code contract."""
    try:
        return body()
    except (ValidationError, ParseError, ParameterError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except FileNotFoundError as exc:
        _fail(EXIT_CONFIG, f"file not found: {exc.filename or exc}")
    except ProxyAuditError as exc:
        _fail(EXIT_RUNTIME, str(exc))
    except Exception as exc:  # tool broke: never report as a finding
        _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")


class RunSettings:
    """Everything a command needs, resolved from config file + flags."""

    def __init__(self, config_path, data_path, model_path, seed, out_dir, formats):
        self.formats = tuple(f.strip() for f in formats.split(",") if f.strip())
        bad = [f for f in self.formats if f not in _FORMATS]
        if bad or not self.formats:
            raise ValidationError(f"unknown output format(s): {bad or formats!r}")
        config_path = Path(config_path)
        raw = read_json(config_path, "config")
        documents.check("config", raw, "config")
        base = config_path.parent
        # each section as the config sets it (echoed in the report) and as the
        # pipeline runs it: defaults filled in, assignments and selector built
        self.configured = {section: dict(raw.get(section, {})) for section in SECTIONS}
        self.options = {
            section: {**defaults, **self.configured[section]}
            for section, defaults in SECTIONS.items()
        }
        use = self.options["use"]
        use["assignments"] = [Assignment(a["column"], a["value"]) for a in use["assignments"]]
        # an absent, null or {} selector selects every row
        try:
            use["selector"] = (
                SubgroupDescriptor.from_json(use["selector"]) if use["selector"] else None
            )
        except ValidationError as exc:  # what the config schema cannot say
            raise ValidationError(f"config 'use.selector': {exc}") from None
        self.floors = {key: use[key] for key in ("flip_rate_floor", "score_floor_fraction")}

        self.decision_rule = (
            DecisionRule.from_json(raw["decision_rule"])
            if raw.get("decision_rule")
            else None
        )
        resolved_model = model_path or (
            base / raw["model_path"] if raw.get("model_path") else None
        )
        self.model_spec = (
            ModelSpec.load(resolved_model) if resolved_model else None
        )

        if "schema" in raw:
            schema = schema_from_json(raw["schema"])
        elif "schema_path" in raw:
            schema = read_schema_json(base / raw["schema_path"])
        else:
            raise ValidationError(
                "config needs a dataset schema ('schema' or 'schema_path')"
            )
        self.audit = AuditConfig(
            protected=tuple(raw.get("protected", ())),
            candidates=tuple(raw.get("candidates", ())),
            target=raw.get("target"),
            seed=raw.get("seed", 0),
        )
        self.audit.check_against(schema)
        self.proxy_sets = [tuple(s) for s in raw.get("proxy_sets", [])]
        for i, proxy_set in enumerate(self.proxy_sets):
            try:
                check_proxy_set(proxy_set, self.audit.protected, schema)
            except ValidationError as exc:
                raise ValidationError(f"config 'proxy_sets[{i}]': {exc}") from None
        self.dataset = load_csv(data_path, schema)
        self.seed = int(seed) if seed is not None else self.audit.seed
        self.out_dir = Path(out_dir)

    def config_echo(self):
        return {
            "protected": list(self.audit.protected),
            "candidates": list(self.audit.candidates),
            "target": self.audit.target,
            "proxy_sets": [list(s) for s in self.proxy_sets],
            "decision_rule": (
                self.decision_rule.to_json() if self.decision_rule else None
            ),
            "model": self.model_spec.kind if self.model_spec else None,
            "scan": self.configured["scan"],
            "capacity": self.configured["capacity"],
            "discovery": self.configured["discovery"],
            "use": {k: v for k, v in self.configured["use"].items() if k != "assignments"},
            "thresholds": {
                "red_flag_purity": RED_FLAG_PURITY,
                "red_flag_ci_floor": RED_FLAG_CI_FLOOR,
                **self.floors,
            },
        }

    def write(self, rpt):
        report.validate_report(rpt)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        if "json" in self.formats:
            path = self.out_dir / "report.json"
            path.write_bytes(report.report_json_bytes(rpt))
            written.append(path)
        if "md" in self.formats:
            path = self.out_dir / "report.md"
            path.write_text(report.render_markdown(rpt), encoding="utf-8")
            written.append(path)
        for path in written:
            click.echo(f"wrote {path}")
        click.echo(f"red flags: {rpt['red_flag_count']}")
        return rpt


def _run_audit(rs, stages):
    """Run ``stages`` in pipeline order and write the report, raising the use
    step's config errors, the model spec's against the dataset schema
    included, before the first stage runs. Findings come from
    discovery, through the use step when there is a model."""
    use, alone = rs.options["use"], stages == STAGES["use"]
    model = rs.model_spec if "use" in stages else None
    if alone and not use["assignments"]:
        raise ValidationError("config use.assignments is empty")
    if (alone or model is not None) and rs.decision_rule is None:
        raise ValidationError("config needs a decision_rule to audit model use")
    if alone and model is None:
        raise ValidationError("this command needs a model: pass --model or set model_path")
    if model is not None:
        model.check_against(rs.dataset.schema)
        report.check_use(
            model.feature_order, rs.dataset, use["assignments"], use["selector"],
            use["ice_columns"], use["ice_row"], use["ice_grid_size"],
        )

    sections, findings = {}, []
    if "capacity" in stages:
        sections["capacity"] = report.run_capacity(
            rs.dataset, rs.audit.protected, rs.audit.candidates, rs.proxy_sets,
            **rs.options["scan"], **rs.options["capacity"], seed=rs.seed,
        )
    if "discovery" in stages:
        sections["discovery"], kept = report.run_discovery(
            rs.dataset, rs.audit, **rs.options["discovery"], seed=rs.seed
        )
    if "use" in stages and model is None:
        sections["use"] = report.USE_SKIPPED
    with load_model(model) if model is not None else contextlib.nullcontext() as m:
        # red flags and use flips share one numbering of the model's rows
        key = FlipKey(m, rs.dataset) if m is not None else None
        if "discovery" in stages:
            findings = report.derive_red_flags(
                kept, m, rs.decision_rule, rs.dataset, key=key, **rs.floors
            )
        if m is not None:
            sections["use"] = report.run_use(m, rs.decision_rule, rs.dataset, key=key, **use)
    return rs.write(
        report.assemble(rs.config_echo(), rs.dataset, sections, findings, rs.seed)
    )


def _settings_options(fn):
    for deco in reversed(
        (
            click.option(
                "--config", "config_path", required=True,
                type=click.Path(exists=True, dir_okay=False),
                help="Audit config JSON.",
            ),
            click.option(
                "--data", "data_path", required=True,
                type=click.Path(exists=True, dir_okay=False),
                help="Dataset CSV.",
            ),
            click.option(
                "--model", "model_path", default=None,
                type=click.Path(exists=True, dir_okay=False),
                help="Model spec JSON (overrides config model_path).",
            ),
            click.option("--out", "out_dir", default=".", help="Output directory."),
            click.option(
                "--seed", default=None, type=click.IntRange(min=0),
                help="Override the config seed.",
            ),
            click.option(
                "--format", "formats", default="json,md",
                help="Comma list of output formats (json, md).",
            ),
        )
    ):
        fn = deco(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="proxyaudit")
def main():
    """Audit tabular decision models for proxy capacity and proxy use."""


@main.command("capacity")
@_settings_options
def cmd_capacity(**settings):
    """Association scan, contingency drill-downs, predictive capacity."""
    _guard(lambda: _run_audit(RunSettings(**settings), STAGES["capacity"]))


@main.command("discover")
@_settings_options
def cmd_discover(**settings):
    """Beam-search subgroup discovery with holdout validation."""
    _guard(lambda: _run_audit(RunSettings(**settings), STAGES["discover"]))


@main.command("use")
@_settings_options
def cmd_use(**settings):
    """Flip analysis and ICE curves for configured interventions."""
    _guard(lambda: _run_audit(RunSettings(**settings), STAGES["use"]))


@main.command("full")
@_settings_options
@click.option(
    "--fail-on-red-flag", is_flag=True,
    help="Exit 4 when the report contains at least one red flag.",
)
def cmd_full(fail_on_red_flag, **settings):
    """Capacity, discovery, then use; findings labeled by the two-part
    standard (validated near-deterministic proxy AND significant influence
    toward the unfavourable outcome)."""
    rpt = _guard(lambda: _run_audit(RunSettings(**settings), STAGES["full"]))
    if fail_on_red_flag and rpt["red_flag_count"] > 0:
        sys.exit(EXIT_RED_FLAG)


@main.command("synth")
@click.option("--preset", "preset_name", required=True, help="Scenario name.")
@click.option("--rows", default=5000, show_default=True, help="Sample size.")
@click.option(
    "--seed", default=None, type=click.IntRange(min=0),
    help="Sampling seed (defaults to the preset's frozen seed).",
)
@click.option("--out", "out_dir", default=".", help="Output directory.")
def cmd_synth(preset_name, rows, seed, out_dir):
    """Generate a scenario preset: data, schema, config, graph, models."""

    def body():
        from . import synth

        try:
            scenario = synth.preset(preset_name)
        except LookupError as exc:
            raise ValidationError(str(exc)) from None
        if rows < 1:
            raise ParameterError("--rows must be at least 1")
        sample_seed = scenario.graph.seed if seed is None else int(seed)
        d = scenario.sample(rows, sample_seed)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

        d.to_csv(out / "data.csv")
        write_schema_json(d.schema, out / "schema.json")
        scenario.graph.save(out / "graph.json")
        model_paths = {}
        for key, spec in scenario.models.items():
            path = out / f"model_{key}.json"
            spec.save(path)
            model_paths[key] = path.name

        roles = scenario.roles
        config = {
            "protected": list(roles.get("protected", ())),
            "candidates": list(roles.get("candidates", ())),
            "target": roles.get("outcome"),
            "seed": sample_seed,
            "schema_path": "schema.json",
            "proxy_sets": [list(roles.get("candidates", ()))]
            if roles.get("candidates")
            else [],
            "discovery": dict(SECTIONS["discovery"]),
        }
        if scenario.decision_rule is not None:
            config["decision_rule"] = scenario.decision_rule.to_json()
        if "use" in model_paths:
            config["model_path"] = model_paths["use"]
        elif model_paths:
            config["model_path"] = sorted(model_paths.values())[0]
        write_json(out / "config.json", config)
        write_json(out / "ground_truth.json", scenario.ground_truth)
        for name in ("data.csv", "schema.json", "config.json", "graph.json",
                     "ground_truth.json", *sorted(model_paths.values())):
            click.echo(f"wrote {out / name}")

    _guard(body)


def run():
    """Process entry: move every object the imports made to the GC's
    permanent generation, so no collection walks them again, then run
    :func:`main`."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
