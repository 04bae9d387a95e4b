"""End-to-end command-line tests: synth artifacts, the audit subcommands,
exit-code contract, and report determinism."""

import gc
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyaudit import cli, documents, intervention, report, synth
from proxyaudit.cli import main
from proxyaudit.association import NORMALIZATIONS
from proxyaudit.capacity import INEXTRICABLE_LINK
from proxyaudit.data import ColumnSchema, read_schema_json
from proxyaudit.descriptors import Condition
from proxyaudit.models import BuiltinModelHandle, DecisionRule, ModelSpec, decide

from csv_cases import csv_files

EPOCH = {"SOURCE_DATE_EPOCH": "1700000000"}
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def runner():
    return CliRunner()


def synth_out(runner, tmp_path, name, rows=2000, seed=None):
    out = tmp_path / name
    args = ["synth", "--preset", name, "--rows", str(rows), "--out", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return out


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


# --- synth ----------------------------------------------------------------------


def test_synth_writes_complete_scenario(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=500)
    for name in (
        "data.csv", "schema.json", "config.json", "graph.json",
        "ground_truth.json", "model_use.json", "model_ignore.json",
    ):
        assert (out / name).exists(), name
    rows = (out / "data.csv").read_text().strip().splitlines()
    assert len(rows) == 501  # header + data
    config = json.loads((out / "config.json").read_text())
    assert config["protected"] == ["sex"]
    assert config["model_path"] == "model_use.json"
    assert config["decision_rule"]["favourable_direction"] == "score_above"


def test_synth_is_deterministic(runner, tmp_path):
    a = synth_out(runner, tmp_path, "confounder", rows=300, seed=9)
    b_dir = tmp_path / "confounder_b"
    result = runner.invoke(
        main,
        ["synth", "--preset", "confounder", "--rows", "300", "--seed", "9",
         "--out", str(b_dir)],
    )
    assert result.exit_code == 0
    assert (a / "data.csv").read_bytes() == (b_dir / "data.csv").read_bytes()


def test_synth_unknown_preset_exits_2(runner, tmp_path):
    result = runner.invoke(
        main, ["synth", "--preset", "nonesuch", "--out", str(tmp_path / "x")]
    )
    assert result.exit_code == 2
    assert "unknown preset" in result.output


def test_synth_rejects_bad_rows(runner, tmp_path):
    result = runner.invoke(
        main,
        ["synth", "--preset", "james", "--rows", "0", "--out", str(tmp_path / "x")],
    )
    assert result.exit_code == 2


# --- full pipeline on james ------------------------------------------------------


@pytest.fixture(scope="module")
def james_dir(tmp_path_factory):
    runner = CliRunner()
    out = tmp_path_factory.mktemp("cli") / "james"
    result = runner.invoke(
        main,
        ["synth", "--preset", "james", "--rows", "2500", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


def run_full(runner, james_dir, out_name, *extra):
    out = james_dir / out_name
    result = runner.invoke(
        main,
        [
            "full",
            "--config", str(james_dir / "config.json"),
            "--data", str(james_dir / "data.csv"),
            "--out", str(out),
            *extra,
        ],
        env=EPOCH,
    )
    return result, out


def test_full_finds_exactly_one_red_flag(runner, james_dir):
    result, out = run_full(runner, james_dir, "run_use")
    assert result.exit_code == 0, result.output
    rpt = read_report(out)
    assert rpt["red_flag_count"] == 1
    (flag,) = [
        f for f in rpt["red_flags"] if f["label"] == report.RED_FLAG_LABEL
    ]
    assert flag["protected_target"] == ["sex", "male"]
    assert flag["use"]["direction_of_harm"] == "toward_unfavourable"
    assert flag["holdout_capacity"]["value"] == 1.0
    assert "skipped" not in rpt["sections"]["capacity"]
    report.validate_report(rpt)
    assert (out / "report.md").exists()


def test_full_with_ignore_model_has_zero_red_flags(runner, james_dir):
    result, out = run_full(
        runner, james_dir, "run_ignore",
        "--model", str(james_dir / "model_ignore.json"),
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(out)
    assert rpt["red_flag_count"] == 0
    assert rpt["red_flags"], "capacity findings must still be reported"
    assert all(
        f["label"] == report.CAPACITY_ONLY_LABEL for f in rpt["red_flags"]
    )


def test_full_reports_are_byte_identical(runner, james_dir):
    _r1, out1 = run_full(runner, james_dir, "determinism_a")
    _r2, out2 = run_full(runner, james_dir, "determinism_b")
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.md").read_bytes() == (out2 / "report.md").read_bytes()


def test_fail_on_red_flag_exits_4(runner, james_dir):
    result, _out = run_full(
        runner, james_dir, "run_flagged", "--fail-on-red-flag"
    )
    assert result.exit_code == 4
    result_ok, _ = run_full(
        runner, james_dir, "run_flag_ignore",
        "--model", str(james_dir / "model_ignore.json"),
        "--fail-on-red-flag",
    )
    assert result_ok.exit_code == 0


def test_full_without_model_skips_use(runner, james_dir, tmp_path):
    config = json.loads((james_dir / "config.json").read_text())
    del config["model_path"]
    stripped = james_dir / "config_nomodel.json"
    stripped.write_text(json.dumps(config))
    out = tmp_path / "run_nomodel"
    result = runner.invoke(
        main,
        ["full", "--config", str(stripped), "--data", str(james_dir / "data.csv"),
         "--out", str(out)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(out)
    assert rpt["sections"]["use"] == "skipped"
    assert rpt["red_flag_count"] == 0
    assert all(f["use"] == "skipped" for f in rpt["red_flags"])


def test_full_skips_all_missing_candidate(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=500)
    header, *rows = (out / "data.csv").read_text().splitlines()
    age = header.split(",").index("age")
    blanked = [header]
    for line in rows:
        cells = line.split(",")
        cells[age] = "?"
        blanked.append(",".join(cells))
    data = out / "data_no_age.csv"
    data.write_text("\n".join(blanked) + "\n")
    run = tmp_path / "run_no_age"
    result = runner.invoke(
        main,
        ["full", "--config", str(out / "config.json"), "--data", str(data),
         "--out", str(run)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(run)
    report.validate_report(rpt)
    capacity = rpt["sections"]["capacity"]
    assert [s["var_b"] for s in capacity["scan"]] == ["reached_statutory_retirement"]
    assert capacity["predictive"] == []
    assert capacity["skipped"] == [
        {"kind": "scan", "columns": ["sex", "age"],
         "reason": "fewer than 2 pairwise-complete rows"},
        {"kind": "predictive",
         "columns": ["sex", "age", "reached_statutory_retirement"],
         "reason": "fewer than 2 complete rows"},
    ]
    assert "- skipped scan (sex, age):" in (run / "report.md").read_text()


def test_full_skips_proxy_set_with_single_protected_category(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=500)
    header, *rows = (out / "data.csv").read_text().splitlines()
    sex = header.split(",").index("sex")
    males = [header]
    for line in rows:
        cells = line.split(",")
        cells[sex] = "male"
        males.append(",".join(cells))
    data = out / "data_all_male.csv"
    data.write_text("\n".join(males) + "\n")
    run = tmp_path / "run_all_male"
    result = runner.invoke(
        main,
        ["full", "--config", str(out / "config.json"), "--data", str(data),
         "--out", str(run)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(run)
    report.validate_report(rpt)
    capacity = rpt["sections"]["capacity"]
    assert capacity["predictive"] == []
    assert capacity["skipped"] == [
        {"kind": "predictive",
         "columns": ["sex", "age", "reached_statutory_retirement"],
         "reason": "protected column 'sex' has a single category on complete rows"},
    ]


def _blank_cells(path, column, rows):
    """Rewrite a CSV with the given data rows' cells of one column as '?'."""
    header, *lines = path.read_text().splitlines()
    k = header.split(",").index(column)
    out = [header]
    for i, line in enumerate(lines):
        cells = line.split(",")
        if rows is None or i in rows:
            cells[k] = "?"
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


def _write_use_config(out, use):
    config = json.loads((out / "config.json").read_text())
    config["use"] = use
    path = out / "config_use.json"
    path.write_text(json.dumps(config))
    return path


# The use section of each preset that has a use model: its flip assignment.
_DEGENERATE_USE = {
    "james": {"assignments": [{"column": "reached_statutory_retirement", "value": "false"}]},
    "capacity_no_use": {"assignments": [{"column": "P", "value": "a0"}]},
}


def _benchmark_workloads():
    """The benchmark's ``auditbench/workloads.py``, loaded from its file."""
    path = ROOT / "auditbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def preset_inputs(tmp_path_factory):
    """A 200-row synth of each preset: its schema and its config, audited
    with the preset's use model and a use assignment where it has one; and,
    as ``wide``, the benchmark's wide-search inputs at 200 rows, whose config
    names its tree model."""
    root = tmp_path_factory.mktemp("degenerate")
    wide = _benchmark_workloads().wide_search(None, root / "wide", seed=3, rows=200)
    inputs = {"wide": (read_schema_json(root / "wide" / "schema.json"), wide.config)}
    for name in synth.PRESET_NAMES:
        out = root / name
        assert CliRunner().invoke(
            main, ["synth", "--preset", name, "--rows", "200", "--out", str(out)]
        ).exit_code == 0
        config = out / "config.json"
        if name in _DEGENERATE_USE:
            config = _write_use_config(out, _DEGENERATE_USE[name])
        inputs[name] = read_schema_json(out / "schema.json"), config
    return inputs


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def _audit_fails_soft(schema, config, data):
    text, _, _ = data.draw(csv_files(schema, header=True, max_rows=30, malformed=False))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning ends the run with exit 3
        csv_path, out = Path(tmp) / "data.csv", Path(tmp) / "audit"
        csv_path.write_text(text, encoding="utf-8", newline="")
        result = CliRunner().invoke(
            main, ["full", "--config", str(config), "--data", str(csv_path), "--out", str(out)]
        )
        assert result.exit_code in (0, 2), result.output
        if result.exit_code == 0:
            report.validate_report(read_report(out))


def test_degenerate_data_fails_soft(preset_inputs):
    # tiny n; constant, single-category and all-missing columns; nan and inf
    # cells; random missingness, on every preset's config and the benchmark's
    # wide config: the audit runs (0) or rejects the input (2), warning
    # nothing. A search that finds nothing is in the report alone.
    assert set(preset_inputs) == {"wide", *synth.PRESET_NAMES}
    for schema, config in preset_inputs.values():
        _audit_fails_soft(schema, config)


def test_fold_merge_is_reported_not_warned(runner, tmp_path):
    # 3 rows hold the condition: capacity cross-validates on 3 merged folds
    out = synth_out(runner, tmp_path, "huntington", rows=200)
    rows = ["absent,member,deny", "absent,non_member,deny", "absent,member,grant",
            "present,member,deny", "present,non_member,grant", "absent,member,deny",
            "present,member,deny"]
    data = out / "tiny.csv"
    data.write_text("\n".join(["condition,support_group,outcome", *rows]) + "\n")
    proc = run_module("full", "--config", str(out / "config.json"), "--data", str(data),
                      "--out", str(out / "run"), flags=("-X", "dev", "-W", "error::UserWarning"))
    assert (proc.returncode, proc.stderr) == (0, "")
    sections = read_report(out / "run")["sections"]
    [entry] = sections["capacity"]["predictive"]
    assert entry["warning"] == "class counts below 5 folds; refit with 3 merged folds"
    # discovery found nothing, and the report says so
    assert sections["discovery"]["candidates_returned"] == 0
    assert sections["discovery"]["search"]["below_support"] == 4
    assert sections["discovery"]["search"]["descriptors_evaluated"] == 0


def test_full_skips_flip_analysis_without_complete_rows(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=500)
    _blank_cells(out / "data.csv", "reached_statutory_retirement", None)
    config = _write_use_config(out, {
        "assignments": [{"column": "reached_statutory_retirement", "value": "false"}],
    })
    run = tmp_path / "run"
    result = runner.invoke(
        main,
        ["full", "--config", str(config), "--data", str(out / "data.csv"),
         "--out", str(run)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(run)
    report.validate_report(rpt)
    assert rpt["sections"]["use"] == {
        "summaries": [],
        "ice": [],
        "skipped": [
            {"kind": "flip", "columns": ["reached_statutory_retirement"],
             "reason": "no rows selected for flip analysis"},
        ],
    }
    md = (run / "report.md").read_text()
    assert (
        "- skipped flip (reached_statutory_retirement): "
        "no rows selected for flip analysis"
    ) in md


def test_full_skips_a_red_flag_flip_without_complete_rows(runner, tmp_path):
    """A red-flag flip that selects no complete row leaves its finding's use
    skipped and its capacity-only label, as a finding on no model feature
    does; the audit does not end with exit 3."""
    out = synth_out(runner, tmp_path, "capacity_no_use", rows=3000, seed=3)
    _blank_cells(out / "data.csv", "X", None)
    run = tmp_path / "run"
    result = runner.invoke(
        main,
        ["full", "--config", str(out / "config.json"), "--data", str(out / "data.csv"),
         "--model", str(out / "model_use.json"), "--out", str(run)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(run)
    report.validate_report(rpt)
    assert rpt["red_flag_count"] == 0
    links = [f for f in rpt["red_flags"] if f["link_class"] == INEXTRICABLE_LINK]
    assert links
    assert all(f["use"] == report.USE_SKIPPED and f["label"] == report.CAPACITY_ONLY_LABEL
               for f in rpt["red_flags"])


def test_full_skips_ice_row_missing_another_feature(runner, tmp_path):
    out = synth_out(runner, tmp_path, "capacity_no_use", rows=300)
    _blank_cells(out / "data.csv", "X", {0})
    config = _write_use_config(out, {
        "assignments": [{"column": "P", "value": "a0"}],
        "ice_columns": ["P"], "ice_row": 0,
    })
    run = tmp_path / "run"
    result = runner.invoke(
        main,
        ["full", "--config", str(config), "--data", str(out / "data.csv"),
         "--out", str(run)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(run)
    report.validate_report(rpt)
    use = rpt["sections"]["use"]
    assert len(use["summaries"]) == 1
    assert use["ice"] == []
    assert use["skipped"] == [
        {"kind": "ice", "columns": ["P"],
         "reason": "row 0: missing value for feature 'X'"},
    ]
    assert "- skipped ice (P): row 0: missing value for feature 'X'" in (
        run / "report.md"
    ).read_text()


@pytest.mark.parametrize("blank_flags", [False, True])
def test_full_ice_column_the_model_does_not_read_exits_2(runner, tmp_path, blank_flags):
    # the james model reads only the flag; with every flag cell missing the
    # sweep would be skipped, but the config error must not depend on data
    out = synth_out(runner, tmp_path, "james", rows=40)
    if blank_flags:
        _blank_cells(out / "data.csv", "reached_statutory_retirement", None)
    config = _write_use_config(out, {
        "assignments": [{"column": "reached_statutory_retirement", "value": "true"}],
        "ice_columns": ["age"],
    })
    run = tmp_path / "run"
    result = runner.invoke(
        main,
        ["full", "--config", str(config), "--data", str(out / "data.csv"),
         "--out", str(run)],
    )
    assert result.exit_code == 2, result.output
    assert "use.ice_columns names 'age', which the model does not read" in result.output
    assert not (run / "report.json").exists()


def _no_stage(*_args, **_kwargs):
    raise AssertionError("a stage ran before the config was checked")


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"decision_rule": None}, "config needs a decision_rule to audit model use"),
        ({"use": {"ice_columns": ["age"]}},
         "use.ice_columns names 'age', which the model does not read"),
        ({"use": {"ice_columns": ["reached_statutory_retirement"], "ice_row": 40}},
         "use.ice_row must be a row in 0..39, got 40"),
        ({"use": {"assignments": [{"column": "reached_statutory_retirement", "value": "maybe"}]}},
         "assignment 'reached_statutory_retirement'='maybe': unknown category"),
        ({"use": {"assignments": [{"column": "age", "value": 70.0}]}},
         "assignment targets 'age', which the model does not read"),
        *(
            ({"use": {
                "assignments": [{"column": "reached_statutory_retirement", "value": "true"}],
                "selector": {"conditions": [condition]},
            }}, message)
            for condition, message in (
                ({"kind": "equals", "column": "nope", "category": "x"},
                 "use.selector: unknown column 'nope'"),
                ({"kind": "equals", "column": "sex", "category": "x"},
                 "use.selector: category 'x' not in column 'sex'"),
                ({"kind": "in_interval", "column": "sex", "lo": 1},
                 "use.selector: interval condition on non-numeric 'sex'"),
            )
        ),
    ],
)
def test_full_checks_the_config_before_any_stage_runs(
    runner, tmp_path, monkeypatch, edit, message
):
    out = synth_out(runner, tmp_path, "james", rows=40)
    config = json.loads((out / "config.json").read_text())
    config.update(edit)
    path = out / "config_late.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(report, "run_capacity", _no_stage)
    monkeypatch.setattr(report, "run_discovery", _no_stage)
    run = tmp_path / "run"
    result = runner.invoke(
        main,
        ["full", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(run)],
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (run / "report.json").exists()


def test_ice_grid_size_is_checked_for_numeric_ice_columns_only(runner, tmp_path, monkeypatch):
    # the capacity_no_use model reads numeric X and categorical P; a
    # categorical sweep takes every category, whatever the grid size
    out = synth_out(runner, tmp_path, "capacity_no_use", rows=300)
    data = ["--data", str(out / "data.csv")]
    numeric = _write_use_config(out, {"ice_columns": ["P", "X"], "ice_grid_size": 1})
    with monkeypatch.context() as patch:
        patch.setattr(report, "run_capacity", _no_stage)
        patch.setattr(report, "run_discovery", _no_stage)
        result = runner.invoke(
            main, ["full", "--config", str(numeric), *data, "--out", str(tmp_path / "x")]
        )
    assert result.exit_code == 2, result.output
    assert "use.ice_grid_size must be at least 2 to sweep numeric column 'X', got 1" in (
        result.output
    )
    categorical = _write_use_config(out, {"ice_columns": ["P"], "ice_grid_size": 1})
    result = runner.invoke(
        main, ["full", "--config", str(categorical), *data, "--out", str(tmp_path / "p")],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    (curve,) = read_report(tmp_path / "p")["sections"]["use"]["ice"]
    assert curve["column"] == "P" and len(curve["grid"]) > 1


@pytest.mark.parametrize("ice_row", [None, 0, 5])
def test_header_only_data_skips_ice_sweeps_with_or_without_a_row(runner, tmp_path, ice_row):
    # a named row cannot lie inside data that has none, so its sweep is the
    # same recorded skip as an unnamed one, not a config error
    out = synth_out(runner, tmp_path, "james", rows=1)
    data = out / "data.csv"
    data.write_text(data.read_text().splitlines()[0] + "\n")
    sweep = {"ice_columns": ["reached_statutory_retirement"], "ice_row": ice_row}
    config = _write_use_config(out, sweep)
    result = runner.invoke(
        main, ["full", "--config", str(config), "--data", str(data), "--out", str(out / "x")],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(out / "x")
    report.validate_report(rpt)
    assert rpt["sections"]["use"] == {
        "summaries": [],
        "ice": [],
        "skipped": [{"kind": "ice", "columns": ["reached_statutory_retirement"],
                     "reason": "no data row to sweep"}],
    }


def _no_load(*_args, **_kwargs):
    raise AssertionError("the data was loaded before the config was checked")


@pytest.mark.parametrize(
    "section, key, value, wanted",
    [
        ("scan", "bins", 1, "an integer of at least 2"),
        ("discovery", "bins", 1, "an integer of at least 2"),
        ("capacity", "folds", 1, "an integer of at least 2"),
        ("discovery", "beam_width", 0, "an integer of at least 1"),
        ("discovery", "max_depth", 0, "an integer of at least 1"),
        ("discovery", "min_support", 0, "an integer of at least 1"),
        ("discovery", "top_k", -1, "an integer of at least 1"),
        ("discovery", "gamma", -0.5, "a finite number of at least 0"),
        ("discovery", "holdout_fraction", 0, "a finite number above 0 and below 1"),
        ("discovery", "holdout_fraction", 1, "a finite number above 0 and below 1"),
        ("discovery", "holdout_fraction", 1.5, "a finite number above 0 and below 1"),
    ],
)
def test_option_out_of_range_exits_2_before_the_load(
    runner, tmp_path, monkeypatch, section, key, value, wanted
):
    out = synth_out(runner, tmp_path, "james", rows=40)
    config = json.loads((out / "config.json").read_text())
    config[section] = {**config.get(section, {}), key: value}
    path = out / "config_range.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(cli, "load_csv", _no_load)
    run = tmp_path / "run"
    result = runner.invoke(
        main,
        ["full", "--config", str(path), "--data", str(out / "data.csv"), "--out", str(run)],
    )
    assert result.exit_code == 2, result.output
    assert f"config '{section}.{key}' must be {wanted}, got {value!r}" in result.output
    assert not (run / "report.json").exists()


# --- capacity / discover / use subcommands ----------------------------------------


def test_capacity_command_and_json_only_format(runner, tmp_path):
    out = synth_out(runner, tmp_path, "school", rows=2000)
    run = tmp_path / "cap"
    result = runner.invoke(
        main,
        ["capacity", "--config", str(out / "config.json"),
         "--data", str(out / "data.csv"), "--out", str(run),
         "--format", "json"],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    assert (run / "report.json").exists()
    assert not (run / "report.md").exists()
    rpt = read_report(run)
    assert rpt["sections"]["capacity"]["scan"]
    assert rpt["sections"]["capacity"]["predictive"]
    # the school candidates reconstruct sex at >= 0.9 normalized capacity
    (pred,) = rpt["sections"]["capacity"]["predictive"]
    assert pred["value"] >= 0.85


def test_capacity_empty_candidates_ok(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=300)
    config = json.loads((out / "config.json").read_text())
    config["candidates"] = []
    config["proxy_sets"] = []
    path = out / "config_empty.json"
    path.write_text(json.dumps(config))
    run = out / "cap_empty"
    result = runner.invoke(
        main,
        ["capacity", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(run)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    assert read_report(run)["sections"]["capacity"]["scan"] == []


def test_discover_independence_validates_nothing(runner, tmp_path):
    out = synth_out(runner, tmp_path, "independence", rows=2000, seed=4)
    run = tmp_path / "disc"
    result = runner.invoke(
        main,
        ["discover", "--config", str(out / "config.json"),
         "--data", str(out / "data.csv"), "--out", str(run)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(run)
    assert rpt["sections"]["discovery"]["validated"] == []
    assert rpt["red_flag_count"] == 0


def test_use_command_capacity_no_use(runner, tmp_path):
    out = synth_out(runner, tmp_path, "capacity_no_use", rows=1500)
    config = json.loads((out / "config.json").read_text())
    config["use"] = {"assignments": [{"column": "P", "value": "a0"}],
                     "ice_columns": ["X"], "ice_row": 0}
    config["model_path"] = "model_no_use.json"
    path = out / "config_use.json"
    path.write_text(json.dumps(config))
    run = out / "use_zero"
    result = runner.invoke(
        main,
        ["use", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(run)],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    rpt = read_report(run)
    (summary,) = rpt["sections"]["use"]["summaries"]
    assert summary["flip_rate"] == 0.0
    assert summary["mean_abs_delta"] == 0.0
    assert not summary["significant_influence_flag"]
    assert rpt["sections"]["use"]["ice"]
    # the use-variant model crosses the threshold for the protected group
    run2 = out / "use_nonzero"
    result2 = runner.invoke(
        main,
        ["use", "--config", str(path), "--data", str(out / "data.csv"),
         "--model", str(out / "model_use.json"), "--out", str(run2)],
        env=EPOCH,
    )
    assert result2.exit_code == 0, result2.output
    (summary2,) = read_report(run2)["sections"]["use"]["summaries"]
    assert summary2["significant_influence_flag"]
    assert summary2["flip_count"] > 0
    # oracle: brute-force the flip count from the raw data and model
    spec = ModelSpec.load(out / "model_use.json")
    rule = DecisionRule.from_json(config["decision_rule"])
    rows = [
        line.split(",") for line in
        (out / "data.csv").read_text().strip().splitlines()[1:]
    ]
    header = (out / "data.csv").read_text().splitlines()[0].split(",")
    a_idx, p_idx, x_idx = header.index("A"), header.index("P"), header.index("X")
    with BuiltinModelHandle(spec) as m:
        expected = 0
        for cells in rows:
            base_row = {"P": cells[p_idx], "X": float(cells[x_idx])}
            cf_row = dict(base_row, P="a0")
            base, cf = m.predict_batch([base_row, cf_row])
            if decide(rule, base) != decide(rule, cf):
                expected += 1
    assert summary2["flip_count"] == expected


def test_use_without_model_exits_2(runner, tmp_path):
    out = synth_out(runner, tmp_path, "capacity_no_use", rows=400)
    config = json.loads((out / "config.json").read_text())
    config["use"] = {"assignments": [{"column": "P", "value": "a0"}]}
    del config["model_path"]
    path = out / "config_nm.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(
        main,
        ["use", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2
    assert "model" in result.output


def test_use_without_assignments_exits_2(runner, tmp_path):
    out = synth_out(runner, tmp_path, "capacity_no_use", rows=400)
    result = runner.invoke(
        main,
        ["use", "--config", str(out / "config.json"),
         "--data", str(out / "data.csv"), "--out", str(out / "x")],
    )
    assert result.exit_code == 2
    assert "assignments" in result.output


def test_full_runs_ice_sweeps_without_assignments(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=300)
    config = json.loads((out / "config.json").read_text())
    assert "use" not in config
    result = runner.invoke(
        main, ["full", "--config", str(out / "config.json"),
               "--data", str(out / "data.csv"), "--out", str(out / "plain")],
    )
    assert result.exit_code == 0, result.output
    assert read_report(out / "plain")["sections"]["use"] == {"summaries": [], "ice": []}

    config["use"] = {"ice_columns": ["reached_statutory_retirement"]}
    path = out / "config_ice.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(
        main, ["full", "--config", str(path), "--data", str(out / "data.csv"),
               "--out", str(out / "x")],
    )
    assert result.exit_code == 0, result.output
    use = read_report(out / "x")["sections"]["use"]
    assert use["summaries"] == []
    assert [curve["column"] for curve in use["ice"]] == ["reached_statutory_retirement"]


@pytest.mark.parametrize("command", ["use", "full"])
@pytest.mark.parametrize("ice_row", [300, 5000, -1, 1.5, "abc"])
def test_bad_ice_row_exits_2(runner, tmp_path, command, ice_row):
    out = synth_out(runner, tmp_path, "james", rows=300)
    config = json.loads((out / "config.json").read_text())
    config["use"] = {
        "assignments": [{"column": "reached_statutory_retirement", "value": "true"}],
        "ice_columns": ["reached_statutory_retirement"], "ice_row": ice_row,
    }
    path = out / "config_ice.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(
        main,
        [command, "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2, result.output
    assert "ice_row" in result.output


# each preset's use section, or None where it ships no model for ``use``
_AGREEMENT_USE = {
    "james": {"assignments": [{"column": "reached_statutory_retirement", "value": "true"}],
              "ice_columns": ["reached_statutory_retirement"]},
    "capacity_no_use": {"assignments": [{"column": "P", "value": "a0"}], "ice_columns": ["X"]},
    "school": None,
    "independence": None,
}


@pytest.mark.parametrize("preset", sorted(_AGREEMENT_USE))
def test_each_command_writes_its_section_of_full(runner, tmp_path, preset):
    """``capacity``, ``discover`` and ``use`` are stages of ``full``: each
    writes its section byte for byte as ``full`` does, and the rest of the
    report too, save the findings."""
    out = synth_out(runner, tmp_path, preset, rows=600)
    use = _AGREEMENT_USE[preset]
    config = _write_use_config(out, use) if use else out / "config.json"
    reports = {}
    for command in ("full", "capacity", "discover", "use"):
        result = runner.invoke(
            main,
            [command, "--config", str(config), "--data", str(out / "data.csv"),
             "--out", str(out / command), "--format", "json"],
            env=EPOCH,
        )
        if command == "use" and not use:
            assert result.exit_code == 2, result.output
            continue
        assert result.exit_code == 0, result.output
        reports[command] = read_report(out / command)
    full = reports.pop("full")
    for command, rpt in reports.items():
        section = {"capacity": "capacity", "discover": "discovery", "use": "use"}[command]
        assert list(rpt["sections"]) == [section]
        assert report.report_json_bytes(rpt["sections"][section]) == (
            report.report_json_bytes(full["sections"][section])
        ), command
        assert rpt.keys() == full.keys()
        for key in rpt.keys() - {"sections", "red_flags", "red_flag_count"}:
            assert rpt[key] == full[key], (command, key)


# --- config and format error paths ------------------------------------------------


def test_config_column_mismatch_exits_2(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=300)
    config = json.loads((out / "config.json").read_text())
    config["candidates"] = ["no_such_column"]
    path = out / "config_bad.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(
        main,
        ["capacity", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2
    assert "no_such_column" in result.output


@pytest.mark.parametrize(
    "section, key",
    [(None, "candiates"), ("discovery", "beam_widht"), ("scan", "bin"),
     ("capacity", "fold"), ("use", "ice_rows")],
)
def test_unknown_config_key_exits_2(runner, tmp_path, section, key):
    out = synth_out(runner, tmp_path, "james", rows=500)
    config = json.loads((out / "config.json").read_text())
    (config if section is None else config.setdefault(section, {}))[key] = 3
    path = out / "config_typo.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(
        main,
        ["full", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2, result.output
    assert (key if section is None else f"{section}.{key}") in result.output
    assert not (out / "x" / "report.json").exists()


_USE_RETIRED = {"assignments": [{"column": "reached_statutory_retirement", "value": "true"}]}
# a float that no config holds, swapped for the text 1e999 once written
_HUGE = 1.2345e300


@pytest.mark.parametrize(
    "key, edit",
    [
        ("seed", {"seed": "x"}),
        ("seed", {"seed": 1.5}),
        ("protected", {"protected": "sex"}),
        pytest.param("decision_rule.threshold", {"decision_rule": {"threshold": "x"}},
                     id="threshold-edit3"),
        pytest.param("decision_rule.threshold",
                     {"decision_rule": {"favourable_direction": "score_above"}},
                     id="threshold-edit4"),
        ("discovery.beam_width", {"discovery": {"beam_width": "10"}}),
        ("discovery.max_depth", {"discovery": {"max_depth": 1.5}}),
        ("capacity.folds", {"capacity": {"folds": "5"}}),
        ("scan.bins", {"scan": {"bins": "x"}}),
        ("use.assignments", {"use": {"assignments": "x"}}),
        pytest.param("use.assignments[0].value", {"use": {"assignments": [{"column": "age"}]}},
                     id="use.assignments-edit10"),
        *(
            pytest.param(f"use.selector.{key}", {"use": {**_USE_RETIRED, "selector": selector}},
                         id=f"use.selector-edit{i}")
            for i, (key, selector) in enumerate((
                ("conditions[0].category", {"conditions": [{"kind": "equals"}]}),
                ("conditions", {"conditions": "x"}),
                ("conditions[0]", {"conditions": ["x"]}),
                ("conditions[0].category", {"conditions": [{"kind": "equals", "column": "sex"}]}),
                ("conditions[0].column",
                 {"conditions": [{"kind": "equals", "column": 1, "category": "male"}]}),
                ("conditions[0].lo",
                 {"conditions": [{"kind": "in_interval", "column": "age", "lo": "x"}]}),
                ("conditions[0].hi",
                 {"conditions": [{"kind": "in_interval", "column": "age", "hi": True}]}),
                ("conditions[0].lo_closed",
                 {"conditions": [{"kind": "in_interval", "column": "age", "lo": 60,
                                  "lo_closed": "false"}]}),
            ), start=11)
        ),
    ],
)
def test_config_value_of_wrong_type_exits_2(runner, tmp_path, key, edit):
    out = synth_out(runner, tmp_path, "james", rows=600)
    config = json.loads((out / "config.json").read_text())
    config.update(edit)
    path = out / "config_typed.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(
        main,
        ["full", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2, result.output
    assert f"'{key}'" in result.output
    assert not (out / "x" / "report.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"decision_rule": {"threshold": 0.5, "favorable_direction": "score_below"}},
         "unknown config key(s): decision_rule.favorable_direction"),
        ({"use": {**_USE_RETIRED, "selector": {"condition": [
            {"kind": "equals", "column": "sex", "category": "male"}]}}},
         "unknown config key(s): use.selector.condition"),
        ({"use": {**_USE_RETIRED, "selector": {"conditions": [
            {"kind": "equals", "column": "sex", "categroy": "male"}]}}},
         "unknown config key(s): use.selector.conditions[0].categroy"),
        ({"use": {"assignments": [{"column": "sex", "value": "male", "vlaue": "female"}]}},
         "unknown config key(s): use.assignments[0].vlaue"),
        ({"seed": -1}, "config 'seed' must be a non-negative integer, got -1"),
        ({"seed": 2.0}, "config 'seed' must be a non-negative integer, got 2.0"),
        ({"scan": {"normalization": "arithmetc"}},
         "config 'scan.normalization' must be one of"),
        ({"scan": 10}, "config 'scan' must be an object, got 10"),
        # what the schema cannot say is checked when the selector is built
        ({"use": {**_USE_RETIRED, "selector": {"conditions": [
            {"kind": "in_interval", "column": "age", "lo": 60, "hi": 50}]}}},
         "config 'use.selector': interval bounds must satisfy lo < hi, got [60.0, 50.0]"),
        ({"use": {**_USE_RETIRED, "selector": {"conditions": [
            {"kind": "in_interval", "column": "age", "lo": 60},
            {"kind": "in_interval", "column": "age", "hi": 50}]}}},
         "config 'use.selector': at most one condition per column in a descriptor"),
        # the audit roles need only the schema's column names
        ({"protected": []}, "at least one protected column is required"),
        ({"candidates": ["nope"]}, "candidates column 'nope' not in dataset"),
        ({"candidates": ["sex", "age"]}, "protected and candidate columns overlap: ['sex']"),
        ({"proxy_sets": [["age"], ["age", "nope"]]},
         "config 'proxy_sets[1]': unknown column 'nope'"),
        ({"proxy_sets": [[]]}, "config 'proxy_sets[0]': proxy_set must be non-empty"),
        ({"proxy_sets": [["sex", "age"]]},
         "config 'proxy_sets[0]': proxy set references the protected column 'sex'"),
        ({"protected": ["age"], "candidates": ["reached_statutory_retirement"],
          "proxy_sets": [["reached_statutory_retirement"]]},
         "protected column 'age' must be categorical"),
    ],
    ids=["favorable_direction", "selector.condition", "condition.categroy",
         "assignment.vlaue", "seed-1", "seed2.0", "normalization", "scan",
         "selector.lo_above_hi", "selector.same_column", "no_protected",
         "unknown_candidate", "protected_candidate", "unknown_proxy_column",
         "empty_proxy_set", "protected_proxy_column", "numeric_protected"],
)
def test_config_defect_exits_2_before_the_load(runner, tmp_path, monkeypatch, edit, message):
    out = synth_out(runner, tmp_path, "james", rows=40)
    config = json.loads((out / "config.json").read_text())
    config.update(edit)
    path = out / "config_defect.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(cli, "load_csv", _no_load)
    result = runner.invoke(
        main,
        ["full", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (out / "x" / "report.json").exists()


def _tree_split(**split):
    """A one-split tree spec over ``split["column"]``."""
    return {"kind": "decision_tree", "feature_order": [split["column"]], "parameters": {
        "root": 0, "nodes": [{"id": 0, "kind": "split", "left": 1, "right": 2, **split},
                             {"id": 1, "kind": "leaf", "value": 1.0},
                             {"id": 2, "kind": "leaf", "value": 0.0}]}}


def _linear(coefficients, features=("reached_statutory_retirement",)):
    return {"kind": "linear", "feature_order": list(features),
            "parameters": {"coefficients": coefficients, "intercept": 0.0}}


@pytest.mark.parametrize(
    "spec, message",
    [
        (_linear({"reached_statutory_retirement=yes": 1.0}),
         "model coefficient 'reached_statutory_retirement=yes': category 'yes' "
         "not in column 'reached_statutory_retirement'"),
        (_linear({"reached_statutory_retirement": 1.0}),
         "model coefficient 'reached_statutory_retirement' needs a numeric column; "
         "'reached_statutory_retirement' is categorical"),
        (_linear({"age=61": 1.0}, ["age"]),
         "model coefficient 'age=61' needs a categorical column; 'age' is numeric"),
        (_tree_split(column="age", category="61"),
         "model tree node 0 needs a categorical column; 'age' is numeric"),
        (_tree_split(column="reached_statutory_retirement", threshold=0.5),
         "model tree node 0 needs a numeric column; "
         "'reached_statutory_retirement' is categorical"),
        (_tree_split(column="reached_statutory_retirement", category="yes"),
         "model tree node 0: category 'yes' not in column 'reached_statutory_retirement'"),
        (_linear({"age": 1.0, "ghost": 1.0}, ["age", "ghost"]),
         "model feature 'ghost' is not a dataset column"),
        ({"kind": "external_subprocess", "feature_order": ["age", "ghost"],
          "parameters": {"command": ["no-such-probe"]}},
         "model feature 'ghost' is not a dataset column"),
    ],
    ids=["unknown_category", "plain_on_categorical", "one_of_k_on_numeric",
         "category_split_on_numeric", "threshold_split_on_categorical",
         "unknown_split_category", "unknown_feature", "probe_unknown_feature"],
)
def test_model_spec_defect_exits_2_before_any_stage(runner, tmp_path, monkeypatch, spec, message):
    out = synth_out(runner, tmp_path, "james", rows=40)
    (out / "model_defect.json").write_text(json.dumps(spec))

    def no_stage(*_args, **_kwargs):
        raise AssertionError("a stage ran before the model spec was checked")

    monkeypatch.setattr(report, "run_capacity", no_stage)
    result = runner.invoke(
        main,
        ["full", "--config", str(out / "config.json"), "--data", str(out / "data.csv"),
         "--model", str(out / "model_defect.json"), "--out", str(out / "x")],
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (out / "x" / "report.json").exists()


def _set(index, **values):
    """An edit of a dataset schema document that sets keys of one column."""
    return lambda doc: doc["columns"][index].update(values)


@pytest.mark.parametrize("inline", [False, True], ids=["schema_path", "inline"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(0, name=7), "dataset schema 'columns[0].name' must be a column name, got 7"),
        (_set(0, categories=[1, 2]), "dataset schema 'columns[0].categories["),
        (_set(1, missing_token=5), "dataset schema 'columns[1].missing_token' must be a string, got 5"),
        (_set(1, missing_token=None),
         "dataset schema 'columns[1].missing_token' must be a string, got None"),
        (_set(1, kind="number"), "dataset schema 'columns[1].kind' must be"),
        (_set(2, label="flag"), "unknown dataset schema key(s): columns[2].label"),
        (lambda doc: doc.update(version=2), "unknown dataset schema key(s): version"),
        (lambda doc: doc.pop("columns"), "dataset schema 'columns' must be a list of columns"),
        # json.dumps writes NaN, which is not JSON; the message names the document
        (_set(1, missing_token=float("nan")),
         {True: "config: NaN is not a JSON number",
          False: "dataset schema: NaN is not a JSON number"}),
    ],
    ids=["name7", "categories12", "missing_token5", "missing_token_null", "kind",
         "column_key", "top_level_key", "no_columns", "nan"],
)
def test_dataset_schema_defect_exits_2_before_the_load(
    runner, tmp_path, monkeypatch, inline, edit, message
):
    # the inline "schema" and the file at "schema_path" are checked alike
    out = synth_out(runner, tmp_path, "james", rows=40)
    schema = json.loads((out / "schema.json").read_text())
    edit(schema)
    config = json.loads((out / "config.json").read_text())
    if inline:
        del config["schema_path"]
        config["schema"] = schema
    else:
        (out / "schema_defect.json").write_text(json.dumps(schema))
        config["schema_path"] = "schema_defect.json"
    path = out / "config_defect.json"
    path.write_text(json.dumps(config))
    monkeypatch.setattr(cli, "load_csv", _no_load)
    result = runner.invoke(
        main,
        ["full", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2, result.output
    if isinstance(message, dict):  # the inline schema is part of the config
        message = message[inline]
    assert message in result.output
    assert not (out / "x" / "report.json").exists()


@pytest.mark.parametrize("command", ["full", "synth"])
def test_negative_seed_flag_exits_2(runner, tmp_path, monkeypatch, command):
    out = synth_out(runner, tmp_path, "james", rows=40)
    monkeypatch.setattr(cli, "load_csv", _no_load)
    args = (
        ["synth", "--preset", "james", "--seed", "-1", "--out", str(tmp_path / "s")]
        if command == "synth"
        else ["full", "--config", str(out / "config.json"), "--data", str(out / "data.csv"),
              "--seed", "-5", "--out", str(out / "x")]
    )
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output
    assert not (tmp_path / "s").exists() and not (out / "x").exists()


@pytest.mark.parametrize("name", synth.PRESET_NAMES)
def test_synth_documents_meet_the_bundled_schemas(runner, tmp_path, name):
    # every config and dataset schema that synth writes stays valid
    out = synth_out(runner, tmp_path, name, rows=30)
    documents.check("config", json.loads((out / "config.json").read_text()), "config")
    schema = json.loads((out / "schema.json").read_text())
    documents.check("dataset_schema", schema, "dataset schema")


@pytest.mark.parametrize(
    "edit, constant",
    [
        ({"decision_rule": {"threshold": float("nan")}}, "NaN"),
        ({"discovery": {"gamma": float("inf")}}, "Infinity"),
        ({"use": {**_USE_RETIRED, "flip_rate_floor": float("nan")}}, "NaN"),
        ({"use": {**_USE_RETIRED, "score_floor_fraction": -float("inf")}}, "-Infinity"),
        # written as 1e999, which reads as a float too large to be finite
        ({"decision_rule": {"threshold": _HUGE}}, "1e999"),
        ({"discovery": {"gamma": _HUGE}}, "1e999"),
        ({"use": {**_USE_RETIRED, "flip_rate_floor": _HUGE}}, "1e999"),
        ({"use": {**_USE_RETIRED, "score_floor_fraction": -_HUGE}}, "-1e999"),
    ],
)
def test_config_non_finite_constant_exits_2(runner, tmp_path, monkeypatch, edit, constant):
    # Python's json writes and reads NaN and Infinity; JSON has neither
    out = synth_out(runner, tmp_path, "james", rows=300)
    config = json.loads((out / "config.json").read_text())
    config.update(edit)
    path = out / "config_nan.json"
    path.write_text(json.dumps(config).replace(repr(_HUGE), "1e999"))
    assert constant in path.read_text()
    monkeypatch.setattr(cli, "load_csv", _no_load)
    result = runner.invoke(
        main,
        ["full", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2, result.output
    if "1e999" in constant:
        got = "inf" if constant == "1e999" else "-inf"
        assert re.search(f"'[a-z_.]+' must be a finite number.*, got {got}$", result.output, re.M)
    else:
        assert f"config: {constant} is not a JSON number" in result.output
    assert not (out / "x" / "report.json").exists()


@pytest.mark.parametrize("bins", [0, 1, -3])
def test_scan_bins_below_two_exits_2(runner, tmp_path, bins):
    out = synth_out(runner, tmp_path, "james", rows=300)
    config = json.loads((out / "config.json").read_text())
    config["scan"] = {"bins": bins}
    path = out / "config_bins.json"
    path.write_text(json.dumps(config))
    result = runner.invoke(
        main,
        ["capacity", "--config", str(path), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2, result.output
    assert f"config 'scan.bins' must be an integer of at least 2, got {bins}" in result.output
    assert not (out / "x" / "report.json").exists()


def test_empty_use_selector_selects_every_row(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=600)
    uses = []
    for name, use in (("absent", _USE_RETIRED), ("null", {**_USE_RETIRED, "selector": None}),
                      ("empty", {**_USE_RETIRED, "selector": {}})):
        path = _write_use_config(out, use)
        result = runner.invoke(
            main,
            ["full", "--config", str(path), "--data", str(out / "data.csv"),
             "--out", str(out / name)],
            env=EPOCH,
        )
        assert result.exit_code == 0, result.output
        uses.append(read_report(out / name)["sections"]["use"])
    assert uses[0]["summaries"][0]["n"] == 600
    assert uses[1] == uses[0] and uses[2] == uses[0]


def _declared_defaults(node):
    """Every ``default`` that a JSON Schema declares, at any depth."""
    if isinstance(node, dict):
        yield from ([node["default"]] if "default" in node else [])
        for value in node.values():
            yield from _declared_defaults(value)


def test_section_options_match_the_fragments_they_are_spread_into():
    """Each SECTIONS key is passed by name into its pipeline fragment, so it
    must be a keyword parameter there with the same default; every other
    default a bundled input schema declares is its receiver's default too."""
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    config, dataset = documents.schema("config"), documents.schema("dataset_schema")
    rule = config["properties"]["decision_rule"]["properties"]
    condition = (
        config["properties"]["use"]["properties"]["selector"]["properties"]["conditions"]
        ["items"]["properties"]
    )
    column = dataset["properties"]["columns"]["items"]["properties"]
    documented = [
        (DecisionRule, "favourable_direction", rule["favourable_direction"]["default"]),
        (Condition, "lo_closed", condition["lo_closed"]["default"]),
        (Condition, "hi_closed", condition["hi_closed"]["default"]),
        (ColumnSchema, "missing_token", column["missing_token"]["default"]),
    ]
    assert len([*_declared_defaults(config), *_declared_defaults(dataset)]) == (
        sum(map(len, cli.SECTIONS.values())) + len(documented)
    )
    assert config["properties"]["scan"]["properties"]["normalization"]["enum"] == list(
        NORMALIZATIONS
    )
    receivers = {
        "scan": report.run_capacity,
        "capacity": report.run_capacity,
        "discovery": report.run_discovery,
        "use": report.run_use,
    }
    checks = [
        (receivers[section], key, default)
        for section, defaults in cli.SECTIONS.items()
        for key, default in defaults.items()
    ] + [
        (fn, key, cli.SECTIONS["use"][key])
        for fn in (report.derive_red_flags, intervention.flip_analysis)
        for key in ("flip_rate_floor", "score_floor_fraction")
    ] + documented
    for fn, key, default in checks:
        param = inspect.signature(fn).parameters.get(key)
        assert param is not None and param.kind in keyword, (fn.__name__, key)
        assert param.default == default, (fn.__name__, key, param.default, default)


@pytest.mark.parametrize("header_only", [False, True])
def test_full_skips_discovery_below_two_rows(runner, tmp_path, header_only):
    out = synth_out(runner, tmp_path, "james", rows=1)
    data = out / "data.csv"
    if header_only:
        data.write_text(data.read_text().splitlines()[0] + "\n")
    result = runner.invoke(
        main,
        ["full", "--config", str(out / "config.json"), "--data", str(data),
         "--out", str(out / "x")],
        env=EPOCH,
    )
    assert result.exit_code == 0, result.output
    discovery = read_report(out / "x")["sections"]["discovery"]
    assert discovery["skipped"] == [
        {"kind": "discovery", "columns": ["sex"], "reason": "need at least 2 rows to split"}
    ]
    assert discovery["m_tests"] == 1 and discovery["validated"] == []
    assert "- skipped discovery (sex): need at least 2 rows to split" in (
        (out / "x" / "report.md").read_text()
    )


def test_readme_config_block_documents_every_key():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Config format\n\n```jsonc\n", 1)[1].split("```", 1)[0]
    config = json.loads(re.sub(r"//.*", "", block))
    assert set(config) == set(cli.TOP_LEVEL_KEYS) - {"schema"}
    for section, defaults in cli.SECTIONS.items():
        assert set(config[section]) == set(defaults), section
    documents.check("config", config, "config")


def test_malformed_config_json_exits_2(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=300)
    bad = out / "broken.json"
    bad.write_text("{not json")
    result = runner.invoke(
        main,
        ["capacity", "--config", str(bad), "--data", str(out / "data.csv"),
         "--out", str(out / "x")],
    )
    assert result.exit_code == 2


def test_unknown_format_exits_2(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=300)
    result = runner.invoke(
        main,
        ["capacity", "--config", str(out / "config.json"),
         "--data", str(out / "data.csv"), "--out", str(out / "x"),
         "--format", "pdf"],
    )
    assert result.exit_code == 2


def test_missing_model_file_exits_2(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=300)
    result = runner.invoke(
        main,
        ["full", "--config", str(out / "config.json"),
         "--data", str(out / "data.csv"),
         "--model", str(out / "no_model.json"), "--out", str(out / "x")],
    )
    assert result.exit_code == 2


def test_undecodable_data_exits_2(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=50)
    lines = (out / "data.csv").read_bytes().splitlines(keepends=True)
    lines[30] = lines[30].replace(b"male", b"ma\xffle", 1)
    (out / "data.csv").write_bytes(b"".join(lines))
    result, _ = run_full(runner, out, "x")
    assert result.exit_code == 2, result.output
    assert "data row 29 is not valid UTF-8: invalid start byte" in result.output


def test_field_over_the_csv_limit_exits_2(runner, tmp_path):
    out = synth_out(runner, tmp_path, "james", rows=50)
    lines = (out / "data.csv").read_text().splitlines()
    lines[10] = '"' + "x" * 140_000 + '",70,true'
    (out / "data.csv").write_text("\n".join(lines) + "\n")
    result, _ = run_full(runner, out, "x")
    assert result.exit_code == 2, result.output
    assert "data row 9: field larger than field limit" in result.output


def test_version_option(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "proxyaudit" in result.output


# --- process entry -----------------------------------------------------------------


def run_module(*args, code=None, flags=()):
    """``python -m proxyaudit.cli ARGS`` (or ``python -c CODE``) in a fresh
    interpreter, started with the interpreter ``flags``, that imports the
    package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **EPOCH)
    argv = ["-c", code] if code is not None else ["-m", "proxyaudit.cli", *args]
    return subprocess.run(
        [sys.executable, *flags, *argv], env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def james_2000(tmp_path_factory):
    out = tmp_path_factory.mktemp("entry") / "james"
    result = CliRunner().invoke(
        main, ["synth", "--preset", "james", "--rows", "2000", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    return out


def test_module_entry_writes_the_in_process_report(runner, james_2000, tmp_path):
    inputs = ["--config", str(james_2000 / "config.json"), "--data", str(james_2000 / "data.csv")]
    proc = run_module("full", *inputs, "--out", str(tmp_path / "module"))
    assert proc.returncode == 0, proc.stderr
    # calling the click group in process leaves the collector as it was
    frozen = gc.get_freeze_count()
    result = runner.invoke(main, ["full", *inputs, "--out", str(tmp_path / "runner")], env=EPOCH)
    assert result.exit_code == 0, result.output
    assert gc.get_freeze_count() == frozen
    assert (tmp_path / "module" / "report.json").read_bytes() == (
        tmp_path / "runner" / "report.json"
    ).read_bytes()


def test_module_entry_keeps_the_exit_codes(james_2000, tmp_path):
    config = json.loads((james_2000 / "config.json").read_text())
    del config["decision_rule"]
    norule = james_2000 / "config_entry_norule.json"
    norule.write_text(json.dumps(config))
    data = ["--data", str(james_2000 / "data.csv")]
    proc = run_module("full", "--config", str(norule), *data, "--out", str(tmp_path / "a"))
    assert proc.returncode == 2, proc.stderr
    assert "needs a decision_rule" in proc.stderr
    proc = run_module(
        "full", "--config", str(james_2000 / "config.json"), *data,
        "--out", str(tmp_path / "b"), "--fail-on-red-flag",
    )
    assert proc.returncode == 4, proc.stderr


def test_console_script_enters_through_run():
    pyproject = (ROOT / "pyproject.toml").read_text().splitlines()
    assert 'proxyaudit = "proxyaudit.cli:run"' in pyproject


def test_run_freezes_the_imported_objects():
    code = (
        "import gc, sys\n"
        "from proxyaudit import cli\n"
        "before = gc.get_freeze_count()\n"
        "sys.argv = ['proxyaudit', '--version']\n"
        "try:\n"
        "    cli.run()\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(before, gc.get_freeze_count())\n"
    )
    proc = run_module(code=code)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split()[-2:])
    assert before == 0 and after > 0


# --- benchmark hooks ---------------------------------------------------------------


def test_benchmark_tracer_sees_every_layer_hook(james_dir, tmp_path):
    """The benchmark's traced run wraps layer functions by name; a refactor
    that moves one of them must not silently empty its metrics."""
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **EPOCH)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "auditbench" / "tracer.py"), str(spans_path),
         "full", "--config", str(james_dir / "config.json"),
         "--data", str(james_dir / "data.csv"), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["exit_code"] == 0
    spans = trace["spans"]
    names = {s["name"] for s in spans}
    assert {"models.open", "models.close", "intervention.flip"} <= names
    # one search and one validation, each scoring every returned result
    # through discovery's exact_correspondence
    (beam,) = [s for s in spans if s["name"] == "discovery.beam"]
    assert len([s for s in spans if s["name"] == "discovery.validate"]) == 1
    scored = [spans[s["parent"]]["name"] for s in spans
              if s["name"] == "capacity.exact_correspondence"]
    returned = beam["counts"]["candidates_returned"]
    assert returned > 0
    assert sorted(scored) == ["discovery.beam"] * returned + ["discovery.validate"] * returned
    flips = [s for s in trace["spans"] if s["name"] == "intervention.flip"]
    assert all(s["counts"]["rows"] > 0 for s in flips)
    assert read_report(tmp_path / "out")["red_flag_count"] == 1
