"""Report assembly tests: fragments, red-flag conjunction, schema, rendering.

The red-flag invariant tested at the bottom is the load-bearing one: every
label in the JSON must be re-derivable from the reported numbers and the
echoed thresholds alone.
"""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from proxyaudit import documents, report
from proxyaudit.capacity import INEXTRICABLE_LINK, RED_FLAG_CI_FLOOR, RED_FLAG_PURITY
from proxyaudit.data import CATEGORICAL, NUMERIC, AuditConfig, ColumnSchema, Dataset
from proxyaudit.descriptors import Condition, SubgroupDescriptor
from proxyaudit.errors import ValidationError
from proxyaudit.intervention import TOWARD_UNFAVOURABLE, Assignment
from proxyaudit.models import BuiltinModelHandle, DecisionRule, ModelSpec
from proxyaudit.synth import preset

SCHEMAS = Path(documents.__file__).parent / "schemas"


@pytest.fixture(scope="module")
def james():
    return preset("james")


@pytest.fixture(scope="module")
def james_data(james):
    return james.sample(4000, seed=0)


@pytest.fixture(scope="module")
def james_discovery(james_data):
    config = AuditConfig(
        protected=("sex",),
        candidates=("age", "reached_statutory_retirement"),
        seed=20,
    )
    return report.run_discovery(james_data, config, seed=20)


def test_timestamp_honours_source_date_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert report.utc_timestamp() == "2023-11-14T22:13:20+00:00"
    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    assert report.utc_timestamp().endswith("+00:00")


def test_dataset_fingerprint_tracks_content(james_data, james):
    fp1 = report.dataset_fingerprint(james_data)
    fp2 = report.dataset_fingerprint(james_data)
    assert fp1 == fp2
    assert fp1["n_rows"] == 4000
    assert set(fp1["columns"]) == set(james_data.column_names)
    other = report.dataset_fingerprint(james.sample(4000, seed=1))
    assert other["digest"] != fp1["digest"]


def test_run_capacity_fragment_shape(james_data):
    frag = report.run_capacity(
        james_data, ("sex",), ("age", "reached_statutory_retirement"),
        proxy_sets=(("age", "reached_statutory_retirement"),), seed=0,
    )
    assert len(frag["scan"]) == 2
    values = [s["value"] for s in frag["scan"]]
    assert values == sorted(values, reverse=True)
    # drill-down targets the top *categorical* candidate
    assert len(frag["contingency"]) == 1
    assert frag["contingency"][0]["col_var"] == "reached_statutory_retirement"
    assert len(frag["predictive"]) == 1
    assert "link_class" in frag["predictive"][0]


def test_run_capacity_empty_candidates(james_data):
    frag = report.run_capacity(james_data, ("sex",), ())
    assert frag == {"scan": [], "contingency": [], "predictive": []}


def test_run_capacity_lists_skipped_pairs_and_proxy_sets():
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
            ColumnSchema("x", NUMERIC),
            ColumnSchema("c", CATEGORICAL, ("a", "b")),
        ],
        {
            "s": np.array([0, 1] * 10),
            "x": np.full(20, np.nan),
            "c": np.array([0, 0, 1, 1] * 5),
        },
    )
    frag = report.run_capacity(d, ("s",), ("x", "c"), proxy_sets=(("x",), ("c",)))
    assert [e["var_b"] for e in frag["scan"]] == ["c"]
    assert [p["proxy"] for p in frag["predictive"]] == [["c"]]
    assert frag["skipped"] == [
        {"kind": "scan", "columns": ["s", "x"],
         "reason": "fewer than 2 pairwise-complete rows"},
        {"kind": "predictive", "columns": ["s", "x"],
         "reason": "fewer than 2 complete rows"},
    ]


def test_run_use_lists_skipped_flips_and_sweeps(monkeypatch):
    d = Dataset(
        [
            ColumnSchema("s", CATEGORICAL, ("f", "m")),
            ColumnSchema("x", NUMERIC),
            ColumnSchema("c", CATEGORICAL, ("a", "b")),
        ],
        {
            "s": np.array([0, 1] * 10),
            "x": np.full(20, np.nan),
            "c": np.array([0, 0, 1, 1] * 5),
        },
    )
    m = BuiltinModelHandle(
        ModelSpec("linear", {"coefficients": {"x": 1.0, "c=b": 1.0}, "intercept": 0.0}, ("x", "c"))
    )
    rule = DecisionRule(threshold=0.5, favourable_direction="score_above")
    frag = report.run_use(
        m, rule, d, [Assignment("c", "b")], ice_columns=("x", "c"), ice_row=0
    )
    assert frag == {
        "summaries": [],
        "ice": [],
        "skipped": [
            {"kind": "flip", "columns": ["c"],
             "reason": "no rows selected for flip analysis"},
            {"kind": "ice", "columns": ["x"],
             "reason": "column 'x' has fewer than 2 distinct observed values to span"},
            {"kind": "ice", "columns": ["c"],
             "reason": "row 0: missing value for feature 'x'"},
        ],
    }
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rpt = report.assemble({"thresholds": {}}, d, {"use": frag}, [], seed=0)
    report.validate_report(rpt)
    md = report.render_markdown(rpt)
    assert "- skipped flip (c): no rows selected for flip analysis" in md
    assert "- skipped ice (c): row 0: missing value for feature 'x'" in md


def test_check_use_tests_the_selector_only_where_flips_read_it():
    d = Dataset(
        [ColumnSchema("c", CATEGORICAL, ("a", "b")), ColumnSchema("x", NUMERIC)],
        {"c": np.array([0, 1]), "x": np.array([0.5, 1.5])},
    )
    lost = SubgroupDescriptor((Condition.equals("c", "a"), Condition.equals("nope", "x")))
    assignment = [Assignment("c", "b")]
    assert report.check_use(("c", "x"), d, (), lost) == 0
    with pytest.raises(ValidationError, match="use.selector: unknown column 'nope'"):
        report.check_use(("c", "x"), d, assignment, lost)
    kind = SubgroupDescriptor((Condition.interval("c", 0, 1),))
    with pytest.raises(ValidationError, match="use.selector: interval condition on non-numeric 'c'"):
        report.check_use(("c", "x"), d, assignment, kind)
    assert report.check_use(("c", "x"), d, assignment, SubgroupDescriptor(
        (Condition.equals("c", "b"), Condition.interval("x", 1.0))
    )) == 0


def test_check_use_has_no_ice_row_in_empty_data():
    d = Dataset([ColumnSchema("x", NUMERIC)], {"x": np.array([], dtype=np.float64)})
    assert report.check_use(("x",), d, ice_columns=("x",)) is None
    assert report.check_use(("x",), d, ice_columns=("x",), ice_row=0) is None
    with pytest.raises(ValidationError, match="use.ice_grid_size must be at least 2"):
        report.check_use(("x",), d, ice_columns=("x",), ice_grid_size=1)


def test_run_discovery_returns_validated_planted(james_discovery, james_data):
    fragment, kept = james_discovery
    assert fragment["train_rows"] + fragment["holdout_rows"] == 4000
    assert fragment["m_tests"] >= len(fragment["validated"])
    assert len(kept) == len(fragment["validated"]) >= 1
    # the planted male subgroup is among the validated findings
    planted = SubgroupDescriptor(
        (
            Condition.interval("age", lo=61.0, hi=66.0),
            Condition.equals("reached_statutory_retirement", "false"),
        )
    )
    planted_mask = planted.mask(james_data)
    hits = [
        r for r in kept
        if tuple(r.protected_target) == ("sex", "male")
        and (r.proxy.mask(james_data) == planted_mask).all()
    ]
    assert len(hits) == 1
    assert hits[0].holdout_capacity.value == 1.0


def test_representative_assignments(james_data):
    proxy = SubgroupDescriptor(
        (
            Condition.interval("age", lo=61.0, hi=66.0),
            Condition.equals("reached_statutory_retirement", "false"),
        )
    )
    full = report.representative_assignments(
        proxy, ("age", "reached_statutory_retirement"), james_data
    )
    assert {a.column: a.value for a in full} == {
        "age": 63.5,
        "reached_statutory_retirement": "false",
    }
    only_ret = report.representative_assignments(
        proxy, ("reached_statutory_retirement",), james_data
    )
    assert [a.column for a in only_ret] == ["reached_statutory_retirement"]
    # a half-line clamps its open side to the observed range
    half = SubgroupDescriptor((Condition.interval("age", lo=61.0),))
    (a,) = report.representative_assignments(half, ("age",), james_data)
    assert a.value == pytest.approx((61.0 + 72.0) / 2)


def test_derive_red_flags_conjunction(james, james_data, james_discovery):
    _fragment, kept = james_discovery
    rule = james.decision_rule
    with BuiltinModelHandle(james.models["use"]) as m:
        findings = report.derive_red_flags(kept, m, rule, james_data)
    assert report.red_flag_count(findings) == 1
    (flag,) = [f for f in findings if f["label"] == report.RED_FLAG_LABEL]
    assert flag["protected_target"] == ["sex", "male"]
    assert flag["use"]["direction_of_harm"] == TOWARD_UNFAVOURABLE
    assert flag["use"]["significant_influence_flag"]
    # the model that ignores the proxy demotes everything to capacity-only
    with BuiltinModelHandle(james.models["ignore"]) as m_ignore:
        findings_ignore = report.derive_red_flags(kept, m_ignore, rule, james_data)
    assert report.red_flag_count(findings_ignore) == 0
    assert all(
        f["label"] == report.CAPACITY_ONLY_LABEL for f in findings_ignore
    )


def test_derive_red_flags_without_model_skips_use(james_data, james_discovery):
    _fragment, kept = james_discovery
    findings = report.derive_red_flags(kept, None, None, james_data)
    assert findings
    assert all(f["use"] == report.USE_SKIPPED for f in findings)
    assert report.red_flag_count(findings) == 0


def full_james_report(james, james_data, james_discovery, model_key):
    fragment, kept = james_discovery
    sections = {
        "capacity": report.run_capacity(
            james_data, ("sex",), ("age", "reached_statutory_retirement"),
            proxy_sets=(("age", "reached_statutory_retirement"),), seed=20,
        ),
        "discovery": fragment,
        "use": {"summaries": [], "ice": []},
    }
    with BuiltinModelHandle(james.models[model_key]) as m:
        findings = report.derive_red_flags(
            kept, m, james.decision_rule, james_data
        )
    echo = {
        "protected": ["sex"],
        "thresholds": {
            "red_flag_purity": RED_FLAG_PURITY,
            "red_flag_ci_floor": RED_FLAG_CI_FLOOR,
            "flip_rate_floor": 0.01,
            "score_floor_fraction": 0.05,
        },
    }
    return report.assemble(echo, james_data, sections, findings, seed=20)


def test_assembled_report_validates_and_is_byte_stable(
    monkeypatch, james, james_data, james_discovery
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rpt1 = full_james_report(james, james_data, james_discovery, "use")
    rpt2 = full_james_report(james, james_data, james_discovery, "use")
    report.validate_report(rpt1)
    assert report.report_json_bytes(rpt1) == report.report_json_bytes(rpt2)
    assert rpt1["red_flag_count"] == 1


def test_schema_rejects_malformed_reports(monkeypatch, james, james_data, james_discovery):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rpt = full_james_report(james, james_data, james_discovery, "use")
    broken = json.loads(report.report_json_bytes(rpt))
    del broken["red_flags"]
    with pytest.raises(ValidationError, match="schema"):
        report.validate_report(broken)
    wrong_type = json.loads(report.report_json_bytes(rpt))
    wrong_type["red_flag_count"] = "one"
    with pytest.raises(ValidationError, match="schema"):
        report.validate_report(wrong_type)
    bad_label = json.loads(report.report_json_bytes(rpt))
    bad_label["red_flags"][0]["label"] = "definitely illegal"
    with pytest.raises(ValidationError, match="schema"):
        report.validate_report(bad_label)


def test_schema_types_the_search_counts_and_the_fold_note(
    monkeypatch, james, james_data, james_discovery
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rpt = full_james_report(james, james_data, james_discovery, "use")
    search = rpt["sections"]["discovery"]["search"]
    assert set(search) == {"descriptors_evaluated", "below_support", "targets", "conditions"}
    noted = json.loads(report.report_json_bytes(rpt))
    noted["sections"]["capacity"]["predictive"][0]["warning"] = "refit with 3 merged folds"
    report.validate_report(noted)
    edits = [
        lambda r: r["sections"]["discovery"]["search"].update(below_support=-1),
        lambda r: r["sections"]["discovery"]["search"].update(conditions=1.5),
        lambda r: r["sections"]["discovery"]["search"].update(extra=0),
        lambda r: r["sections"]["discovery"]["search"].update(targets=[["sex"]]),
        lambda r: r["sections"]["discovery"]["search"].pop("descriptors_evaluated"),
        lambda r: r["sections"]["capacity"]["predictive"][0].update(warning=3),
    ]
    for edit in edits:
        broken = json.loads(report.report_json_bytes(rpt))
        edit(broken)
        with pytest.raises(ValidationError, match="schema"):
            report.validate_report(broken)


@pytest.mark.parametrize(
    "path", sorted(SCHEMAS.glob("*.schema.json")), ids=lambda path: path.name
)
def test_bundled_schema_is_valid_under_its_metaschema(path):
    # the shared validators are built once and so do not check the schema
    # itself on every document
    schema = json.loads(path.read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    assert cls is jsonschema.Draft202012Validator
    cls.check_schema(schema)


@pytest.mark.parametrize(
    "kind, value, ok",
    [
        ("number", 1, True), ("number", -2.5, True), ("number", float("nan"), False),
        ("number", float("inf"), False), ("number", True, False), ("number", 10**400, False),
        ("integer", 3, True), ("integer", 2.0, False), ("integer", True, False),
    ],
)
def test_shared_validator_types_are_finite_and_never_bool(kind, value, ok):
    # every bundled schema is checked with these types: JSON has no NaN or
    # Infinity, and a bool is never a number
    assert documents.validator("audit_report").is_type(value, kind) is ok


def test_schema_error_message_is_jsonschemas_best_match(
    monkeypatch, james, james_data, james_discovery
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rpt = full_james_report(james, james_data, james_discovery, "use")
    broken = json.loads(report.report_json_bytes(rpt))
    broken["red_flag_count"] = "one"
    del broken["seed"]
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(instance=broken, schema=documents.schema("audit_report"))
    with pytest.raises(ValidationError) as got:
        report.validate_report(broken)
    assert str(got.value) == f"report fails its schema: {want.value.message}"


def test_red_flag_labels_rederivable_from_json_alone(
    monkeypatch, james, james_data, james_discovery
):
    """Recompute every label from reported numbers + echoed thresholds."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rpt = json.loads(report.report_json_bytes(
        full_james_report(james, james_data, james_discovery, "use")
    ))
    thresholds = rpt["config"]["thresholds"]
    for finding in rpt["red_flags"]:
        cap = finding["holdout_capacity"]
        is_link = (
            cap["value"] >= thresholds["red_flag_purity"]
            and cap["ci_low"] >= thresholds["red_flag_ci_floor"]
        )
        assert is_link == (finding["link_class"] == INEXTRICABLE_LINK)
        expected_red = (
            is_link
            and finding["use"] != report.USE_SKIPPED
            and finding["use"]["significant_influence_flag"]
            and finding["use"]["direction_of_harm"] == "toward_unfavourable"
        )
        assert expected_red == (finding["label"] == report.RED_FLAG_LABEL)


def test_markdown_rendering(monkeypatch, james, james_data, james_discovery):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rpt = full_james_report(james, james_data, james_discovery, "use")
    md = report.render_markdown(rpt)
    assert "# Proxy audit report" in md
    assert "## Association scan" in md
    assert "## Contingency" in md
    assert "## Subgroup discovery" in md
    assert report.RED_FLAG_LABEL in md
    assert "not a certification of nondiscrimination" in md
    # presentation order: scan before contingency before discovery before use
    order = [
        md.index("## Association scan"),
        md.index("## Contingency"),
        md.index("## Subgroup discovery"),
        md.index("## Findings"),
    ]
    assert order == sorted(order)


def test_markdown_marks_skipped_use(monkeypatch, james_data):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rpt = report.assemble(
        {"thresholds": {}}, james_data,
        {"use": report.USE_SKIPPED}, [], seed=0,
    )
    md = report.render_markdown(rpt)
    assert "_skipped: no model supplied_" in md
