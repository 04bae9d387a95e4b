"""Seeded inputs for the audit benchmark and the expectations each report
must meet.

Each workload writes a config, a CSV and a model spec into a fresh
directory and names the ``proxyaudit full`` arguments that audit them. The
program receives only these files. ``james_use_200k`` and ``probe_50k`` come
from the program's own ``synth`` command; ``wide_search_50k`` is generated
here with numpy, so its bytes do not depend on the program under test.
"""

import csv
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Rows per workload; the smoke mode scales them down to ``SMOKE_ROWS``.
JAMES_ROWS = 200_000
WIDE_ROWS = 50_000
PROBE_ROWS = 50_000
SMOKE_ROWS = 5_000


# Every workload plants one proxy that its model uses.
EXPECTED_RED_FLAGS = 1
RED_FLAG_LABEL = "potential inherent-discrimination red flag"


@dataclass
class Inputs:
    """Files of one workload and the arguments that audit them."""

    config: Path
    data: Path
    model: Path | None = None
    # builtin model whose audit the report's red flags must equal
    reference_model: Path | None = None
    # conditions of the proxy the report must flag
    planted_proxy: list | None = None

    def full_args(self, out_dir, model=None):
        args = ["full", "--config", str(self.config), "--data", str(self.data),
                "--out", str(out_dir)]
        model = model or self.model
        if model is not None:
            args += ["--model", str(model)]
        return args


def _synth(env, preset, rows, seed, out):
    subprocess.run(
        [sys.executable, "-m", "proxyaudit.cli", "synth", "--preset", preset,
         "--rows", str(rows), "--seed", str(seed), "--out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def james_use(env, out, seed, rows=JAMES_ROWS):
    """The james preset as written: a linear model that reads the planted
    age-band x retirement-flag proxy for sex, so one red flag is expected."""
    _synth(env, "james", rows, seed, out)
    return Inputs(out / "config.json", out / "data.csv")


def probe(env, out, seed, rows=PROBE_ROWS):
    """The james model served by the reference probe over the NDJSON pipe.
    Its red flags must equal those of the builtin audit of the same data."""
    _synth(env, "james", rows, seed, out)
    builtin = out / "model_use.json"
    spec = json.loads(builtin.read_text(encoding="utf-8"))
    probe_spec = {
        "kind": "external_subprocess",
        "parameters": {
            "command": [sys.executable, "-m", "proxyaudit.probe_reference",
                        "--spec", str(builtin)],
        },
        "feature_order": spec["feature_order"],
    }
    model = out / "model_probe.json"
    model.write_text(json.dumps(probe_spec, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
    return Inputs(out / "config.json", out / "data.csv", model=model,
                  reference_model=builtin)


# --- wide_search_50k ----------------------------------------------------------

_PLANS = ["basic", "plus", "pro", "gold"]
_ZONES = ["n", "e", "s", "w", "c"]
# categorical noise columns: name -> category count
_CATEGORICAL_NOISE = {
    "channel": 3, "device": 4, "segment": 5, "language": 6, "payment": 3,
    "contract": 2, "referral": 4, "region": 6, "tier": 3, "support": 5,
}
_NUMERIC_NOISE = ["age", "income", "tenure", "visits", "balance", "spend",
                  "distance", "rating"]
# columns that get about 2% missing cells; none is read by the model
_WITH_MISSING = ("income", "tenure", "channel", "region")
MISSING_SHARE = 0.02

# Planted proxy: plan=gold AND zone=c happens only for group b. Neither column
# alone separates the groups, so only the depth-2 search recovers it.
_PLANTED = [
    {"kind": "equals", "column": "plan", "category": "gold"},
    {"kind": "equals", "column": "zone", "category": "c"},
]

# The model under audit reads the planted columns and age: rows moved into
# the proxy region score 0.2 (unfavourable) where they would score >= 0.55.
_TREE = {
    "kind": "decision_tree",
    "feature_order": ["plan", "zone", "age"],
    "parameters": {
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "split", "column": "zone", "category": "c",
             "left": 1, "right": 2},
            {"id": 1, "kind": "split", "column": "plan", "category": "gold",
             "left": 3, "right": 4},
            {"id": 2, "kind": "split", "column": "age", "threshold": 40.0,
             "left": 5, "right": 6},
            {"id": 3, "kind": "leaf", "value": 0.2},
            {"id": 4, "kind": "leaf", "value": 0.55},
            {"id": 5, "kind": "leaf", "value": 0.7},
            {"id": 6, "kind": "leaf", "value": 0.6},
        ],
    },
}


def _wide_table(rng, rows):
    group_b = rng.random(rows) < 0.5
    columns = {"group": np.where(group_b, "b", "a").astype(object)}

    plan = rng.integers(0, len(_PLANS), rows)
    # zone=c is common in group b and rare in group a, and never paired with
    # plan=gold there, so the pair is pure and zone=c stays in the beam
    zone_p = {True: [0.15, 0.15, 0.15, 0.15, 0.40],
              False: [0.225, 0.225, 0.225, 0.225, 0.10]}
    zone = np.empty(rows, dtype=np.int64)
    for is_b in (True, False):
        idx = np.nonzero(group_b == is_b)[0]
        zone[idx] = rng.choice(len(_ZONES), idx.size, p=zone_p[is_b])
    clash = (~group_b) & (plan == 3) & (zone == 4)
    zone[clash] = rng.integers(0, 4, int(clash.sum()))
    columns["plan"] = np.array(_PLANS, dtype=object)[plan]
    columns["zone"] = np.array(_ZONES, dtype=object)[zone]

    # noise columns, each with a weak tilt toward group b
    for name, k in _CATEGORICAL_NOISE.items():
        codes = rng.integers(0, k, rows)
        tilt = group_b & (rng.random(rows) < 0.05)
        codes[tilt] = 0
        columns[name] = np.array([f"{name[:2]}{i}" for i in range(k)],
                                 dtype=object)[codes]
    shift = group_b.astype(float)
    columns["age"] = rng.integers(18, 81, rows).astype(float)
    columns["income"] = np.round(rng.normal(40_000 + 2_000 * shift, 12_000), 2)
    columns["tenure"] = np.round(rng.exponential(5.0 + 0.5 * shift), 3)
    columns["visits"] = rng.poisson(4.0 + 0.3 * shift).astype(float)
    columns["balance"] = np.round(rng.normal(0.0, 1_000.0, rows), 2)
    columns["spend"] = np.round(rng.gamma(2.0, 50.0 + 5.0 * shift), 2)
    columns["distance"] = np.round(rng.uniform(0.0, 100.0, rows), 1)
    columns["rating"] = rng.integers(1, 6, rows).astype(float)

    for name in _WITH_MISSING:
        lost = rng.random(rows) < MISSING_SHARE
        col = columns[name].astype(object)
        col[lost] = "?"
        columns[name] = col
    return columns


def _cell(v):
    if isinstance(v, str):
        return v
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def wide_search(env, out, seed, rows=WIDE_ROWS):
    """One protected column, 20 candidates (12 categorical, 8 numeric) with a
    planted two-column proxy and about 2% missing cells in four columns.
    Discovery at depth 2 dominates; a small decision tree is audited with a
    use assignment and two ICE columns."""
    del env  # generated here, not by the program
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    columns = _wide_table(rng, rows)
    names = list(columns)
    with open(out / "data.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        cells = [[_cell(v) for v in columns[n]] for n in names]
        writer.writerows(zip(*cells))

    schema = [{"name": "group", "kind": "categorical", "categories": ["a", "b"],
               "missing_token": "?"},
              {"name": "plan", "kind": "categorical", "categories": _PLANS,
               "missing_token": "?"},
              {"name": "zone", "kind": "categorical", "categories": _ZONES,
               "missing_token": "?"}]
    for name, k in _CATEGORICAL_NOISE.items():
        schema.append({"name": name, "kind": "categorical",
                       "categories": [f"{name[:2]}{i}" for i in range(k)],
                       "missing_token": "?"})
    for name in _NUMERIC_NOISE:
        schema.append({"name": name, "kind": "numeric", "missing_token": "?"})
    (out / "schema.json").write_text(
        json.dumps({"columns": schema}, indent=2) + "\n", encoding="utf-8")
    (out / "model_tree.json").write_text(
        json.dumps(_TREE, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    candidates = [c for c in names if c != "group"]
    config = {
        "protected": ["group"],
        "candidates": candidates,
        "target": None,
        "seed": seed,
        "schema_path": "schema.json",
        "proxy_sets": [["plan", "zone"]],
        "model_path": "model_tree.json",
        "decision_rule": {"threshold": 0.5, "favourable_direction": "score_above"},
        "scan": {"normalization": "arithmetic", "bins": 10},
        "capacity": {"folds": 5},
        "discovery": {"beam_width": 10, "max_depth": 2, "min_support": 30,
                      "gamma": 0.1, "top_k": 20, "bins": 4,
                      "holdout_fraction": 0.4},
        "use": {"assignments": [{"column": "zone", "value": "c"}],
                "selector": None, "ice_columns": ["age", "zone"], "ice_row": 0,
                "flip_rate_floor": 0.01, "score_floor_fraction": 0.05},
    }
    (out / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return Inputs(out / "config.json", out / "data.csv",
                  planted_proxy=_PLANTED)


WORKLOADS = {
    "james_use_200k": james_use,
    "wide_search_50k": wide_search,
    "probe_50k": probe,
}


def check_report(inputs, report, reference=None):
    """Semantic expectations of one report; returns a list of problems.

    Exactly one red flag; for ``wide_search_50k`` it is the planted
    conjunction, and for ``probe_50k`` the red flags equal those of the
    builtin audit of the same data (``reference``).
    """
    problems = []
    if report["red_flag_count"] != EXPECTED_RED_FLAGS:
        problems.append(f"red_flag_count {report['red_flag_count']} != "
                        f"{EXPECTED_RED_FLAGS}")
    if inputs.planted_proxy is not None:
        def key(conditions):
            return sorted(json.dumps(c, sort_keys=True) for c in conditions)

        flagged = [key(f["proxy"]["conditions"]) for f in report["red_flags"]
                   if f["label"] == RED_FLAG_LABEL]
        if key(inputs.planted_proxy) not in flagged:
            problems.append(f"planted proxy not among red flags {flagged}")
    if reference is not None and report["red_flags"] != reference["red_flags"]:
        problems.append("red flags differ from the builtin audit of the same data")
    return problems
