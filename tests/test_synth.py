"""Synthetic-data generator tests.

Distributional checks run at fixed seeds with 3-sigma binomial tolerances;
population ground truths (NMI, purity) come from the exact enumeration
oracles in tests/oracles.py and were frozen in tests/goldens.py before the
sampler existed.
"""

import math
import re

import numpy as np
import pytest

from proxyaudit import synth
from proxyaudit.association import normalized_mutual_information
from proxyaudit.data import CATEGORICAL, NUMERIC
from proxyaudit.errors import ParameterError, ValidationError
from proxyaudit.models import DecisionRule
from proxyaudit.synth import CausalGraphSpec, ScenarioPreset, preset, sample

import goldens
import oracles


def constant_graph(p_true=1.0):
    return CausalGraphSpec(
        nodes=(("flag", CATEGORICAL),),
        edges=(),
        mechanisms={
            "flag": {
                "kind": "cpt",
                "parents": [],
                "categories": ["false", "true"],
                "table": {"": [1.0 - p_true, p_true]},
            }
        },
    )


def copy_chain_graph(fidelity=1.0):
    return CausalGraphSpec(
        nodes=(("A", CATEGORICAL), ("P", CATEGORICAL)),
        edges=(("A", "P"),),
        mechanisms={
            "A": {
                "kind": "cpt", "parents": [], "categories": ["a0", "a1"],
                "table": {"": [0.5, 0.5]},
            },
            "P": {
                "kind": "cpt", "parents": ["A"], "categories": ["p0", "p1"],
                "table": {
                    "a0": [fidelity, 1.0 - fidelity],
                    "a1": [1.0 - fidelity, fidelity],
                },
            },
        },
    )


# --- sampling semantics -------------------------------------------------------


def test_sampling_is_bit_for_bit_reproducible():
    g = preset("james").graph
    d1 = sample(g, 4000, seed=99)
    d2 = sample(g, 4000, seed=99)
    for name in d1.column_names:
        assert np.array_equal(
            d1.column_array(name), d2.column_array(name), equal_nan=True
        )


def test_different_seeds_differ():
    g = copy_chain_graph(0.8)
    d1 = sample(g, 1000, seed=1)
    d2 = sample(g, 1000, seed=2)
    assert not np.array_equal(d1.codes("P"), d2.codes("P"))


def test_single_node_certain_category_is_constant():
    d = sample(constant_graph(1.0), 500, seed=0)
    assert np.all(d.codes("flag") == 1)
    d0 = sample(constant_graph(0.0), 500, seed=0)
    assert np.all(d0.codes("flag") == 0)


def test_columns_come_out_in_declaration_order():
    d = preset("school").sample(10)
    assert d.column_names == [
        "sex", "cohort", "school_attended", "years_since_graduation",
    ]
    assert d.schema_of("years_since_graduation").kind == NUMERIC
    assert d.schema_of("cohort").kind == CATEGORICAL


def test_root_marginal_within_three_binomial_sigma():
    n = 10_000
    d = sample(copy_chain_graph(1.0), n, seed=5)
    k = int((d.codes("A") == 1).sum())
    sigma = math.sqrt(n * 0.5 * 0.5)
    assert abs(k - n * 0.5) <= 3 * sigma


def test_cpt_conditional_rates_within_three_sigma():
    g = copy_chain_graph(0.8)
    d = sample(g, 20_000, seed=8)
    a, p = d.codes("A"), d.codes("P")
    for a_val in (0, 1):
        rows = a == a_val
        n = int(rows.sum())
        match = int((p[rows] == a_val).sum())
        sigma = math.sqrt(n * 0.8 * 0.2)
        assert abs(match - 0.8 * n) <= 3 * sigma


def test_copy_chain_nmi_near_one():
    d = sample(copy_chain_graph(1.0), 10_000, seed=3)
    assert np.array_equal(d.codes("A"), d.codes("P"))
    score = normalized_mutual_information(d, "A", "P")
    assert score.value >= 0.99


def test_linear_gaussian_moments():
    g = CausalGraphSpec(
        nodes=(("x", NUMERIC), ("y", NUMERIC)),
        edges=(("x", "y"),),
        mechanisms={
            "x": {"kind": "linear_gaussian", "parents": [], "weights": {},
                  "intercept": 2.0, "noise_sd": 1.0},
            "y": {"kind": "linear_gaussian", "parents": ["x"],
                  "weights": {"x": 3.0}, "intercept": -1.0, "noise_sd": 0.5},
        },
    )
    d = sample(g, 50_000, seed=4)
    x, y = d.column_array("x"), d.column_array("y")
    assert abs(x.mean() - 2.0) < 0.02
    assert abs(x.std() - 1.0) < 0.02
    resid = y - (3.0 * x - 1.0)
    assert abs(resid.mean()) < 0.01
    assert abs(resid.std() - 0.5) < 0.01


def test_zero_noise_linear_gaussian_is_deterministic_but_consumes_stream():
    base = {
        "x": {"kind": "linear_gaussian", "parents": [], "weights": {},
              "intercept": 1.5, "noise_sd": 0.0},
        "z": {"kind": "linear_gaussian", "parents": [], "weights": {},
              "intercept": 0.0, "noise_sd": 1.0},
    }
    g = CausalGraphSpec(
        nodes=(("x", NUMERIC), ("z", NUMERIC)), edges=(), mechanisms=base,
    )
    d = sample(g, 100, seed=6)
    assert np.all(d.column_array("x") == 1.5)
    # the sd=0 node still consumes its normal draws, so downstream draws are
    # identical to a graph where that node has sd>0 replaced AFTER it
    g2 = CausalGraphSpec(
        nodes=(("x", NUMERIC), ("z", NUMERIC)), edges=(),
        mechanisms={**base, "x": {**base["x"], "noise_sd": 2.0}},
    )
    d2 = sample(g2, 100, seed=6)
    assert np.array_equal(d.column_array("z"), d2.column_array("z"))


def test_sample_rejects_nonpositive_n():
    with pytest.raises(ParameterError):
        sample(constant_graph(), 0, seed=0)


# --- validation ---------------------------------------------------------------


def test_cyclic_graph_rejected_before_sampling():
    with pytest.raises(ValidationError, match="cycle"):
        CausalGraphSpec(
            nodes=(("a", CATEGORICAL), ("b", CATEGORICAL)),
            edges=(("a", "b"), ("b", "a")),
            mechanisms={
                "a": {"kind": "cpt", "parents": ["b"], "categories": ["x", "y"],
                      "table": {"x": [1, 0], "y": [0, 1]}},
                "b": {"kind": "cpt", "parents": ["a"], "categories": ["x", "y"],
                      "table": {"x": [1, 0], "y": [0, 1]}},
            },
        )


def test_cpt_row_not_summing_to_one_rejected():
    with pytest.raises(ValidationError, match="sum to 1"):
        constant_bad = CausalGraphSpec(
            nodes=(("flag", CATEGORICAL),),
            edges=(),
            mechanisms={
                "flag": {"kind": "cpt", "parents": [],
                         "categories": ["false", "true"],
                         "table": {"": [0.5, 0.6]}},
            },
        )
        del constant_bad


def test_cpt_negative_mass_rejected():
    with pytest.raises(ValidationError, match="negative"):
        CausalGraphSpec(
            nodes=(("flag", CATEGORICAL),),
            edges=(),
            mechanisms={
                "flag": {"kind": "cpt", "parents": [],
                         "categories": ["false", "true"],
                         "table": {"": [-0.1, 1.1]}},
            },
        )


def test_cpt_missing_parent_configuration_rejected():
    with pytest.raises(ValidationError, match="parent"):
        CausalGraphSpec(
            nodes=(("A", CATEGORICAL), ("P", CATEGORICAL)),
            edges=(("A", "P"),),
            mechanisms={
                "A": {"kind": "cpt", "parents": [], "categories": ["a0", "a1"],
                      "table": {"": [0.5, 0.5]}},
                "P": {"kind": "cpt", "parents": ["A"], "categories": ["p0", "p1"],
                      "table": {"a0": [1.0, 0.0]}},  # a1 row missing
            },
        )


def test_mechanism_parents_must_match_graph_edges():
    with pytest.raises(ValidationError, match="parents"):
        CausalGraphSpec(
            nodes=(("A", CATEGORICAL), ("P", CATEGORICAL)),
            edges=(("A", "P"),),
            mechanisms={
                "A": {"kind": "cpt", "parents": [], "categories": ["a0", "a1"],
                      "table": {"": [0.5, 0.5]}},
                "P": {"kind": "cpt", "parents": [], "categories": ["p0", "p1"],
                      "table": {"": [0.5, 0.5]}},  # ignores the declared edge
            },
        )


def test_mechanism_kind_must_match_node_kind():
    with pytest.raises(ValidationError, match="numeric"):
        CausalGraphSpec(
            nodes=(("x", CATEGORICAL),),
            edges=(),
            mechanisms={
                "x": {"kind": "linear_gaussian", "parents": [], "weights": {},
                      "intercept": 0.0, "noise_sd": 1.0},
            },
        )


def test_mechanism_kind_is_checked_before_a_child_reads_its_categories():
    # the child is declared first, but its table reads the parent's categories
    with pytest.raises(ValidationError, match="node 'a': linear_gaussian mechanisms are numeric"):
        CausalGraphSpec(
            nodes=(("b", CATEGORICAL), ("a", CATEGORICAL)),
            edges=(("a", "b"),),
            mechanisms={
                "b": {"kind": "cpt", "parents": ["a"], "categories": ["x", "y"],
                      "table": {"": [0.5, 0.5]}},
                "a": {"kind": "linear_gaussian", "parents": [], "weights": {},
                      "intercept": 0.0, "noise_sd": 1.0},
            },
        )


def test_probability_table_rejects_numeric_parent():
    with pytest.raises(ValidationError, match="categorical"):
        CausalGraphSpec(
            nodes=(("x", NUMERIC), ("flag", CATEGORICAL)),
            edges=(("x", "flag"),),
            mechanisms={
                "x": {"kind": "linear_gaussian", "parents": [], "weights": {},
                      "intercept": 0.0, "noise_sd": 1.0},
                "flag": {"kind": "cpt", "parents": ["x"],
                         "categories": ["false", "true"],
                         "table": {"": [0.5, 0.5]}},
            },
        )


def test_edge_referencing_unknown_node_rejected():
    with pytest.raises(ValidationError, match="unknown"):
        CausalGraphSpec(
            nodes=(("a", CATEGORICAL),),
            edges=(("a", "ghost"),),
            mechanisms={
                "a": {"kind": "cpt", "parents": [], "categories": ["x", "y"],
                      "table": {"": [0.5, 0.5]}},
            },
        )


def test_duplicate_node_names_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        CausalGraphSpec(
            nodes=(("a", CATEGORICAL), ("a", CATEGORICAL)),
            edges=(),
            mechanisms={
                "a": {"kind": "cpt", "parents": [], "categories": ["x", "y"],
                      "table": {"": [0.5, 0.5]}},
            },
        )


def test_threshold_cutoffs_must_cover_every_category():
    with pytest.raises(ValidationError, match="cutoffs"):
        CausalGraphSpec(
            nodes=(("age", NUMERIC), ("sex", CATEGORICAL), ("r", CATEGORICAL)),
            edges=(("age", "r"), ("sex", "r")),
            mechanisms={
                "age": {"kind": "discrete_numeric", "parents": [],
                        "values": [50.0, 70.0], "table": {"": [0.5, 0.5]}},
                "sex": {"kind": "cpt", "parents": [],
                        "categories": ["female", "male"],
                        "table": {"": [0.5, 0.5]}},
                "r": {"kind": "threshold", "parents": ["age", "sex"],
                      "source": "age", "by": "sex",
                      "cutoffs": {"female": 60.0}},  # male cutoff missing
            },
        )


def test_linear_gaussian_rejects_categorical_parent_and_negative_sd():
    with pytest.raises(ValidationError, match="numeric"):
        CausalGraphSpec(
            nodes=(("a", CATEGORICAL), ("y", NUMERIC)),
            edges=(("a", "y"),),
            mechanisms={
                "a": {"kind": "cpt", "parents": [], "categories": ["x", "z"],
                      "table": {"": [0.5, 0.5]}},
                "y": {"kind": "linear_gaussian", "parents": ["a"],
                      "weights": {"a": 1.0}, "intercept": 0.0, "noise_sd": 1.0},
            },
        )
    with pytest.raises(ValidationError, match="noise_sd"):
        CausalGraphSpec(
            nodes=(("y", NUMERIC),),
            edges=(),
            mechanisms={
                "y": {"kind": "linear_gaussian", "parents": [], "weights": {},
                      "intercept": 0.0, "noise_sd": -1.0},
            },
        )


def test_discrete_numeric_values_must_be_strictly_increasing():
    with pytest.raises(ValidationError, match="increasing"):
        CausalGraphSpec(
            nodes=(("v", NUMERIC),),
            edges=(),
            mechanisms={
                "v": {"kind": "discrete_numeric", "parents": [],
                      "values": [3.0, 1.0], "table": {"": [0.5, 0.5]}},
            },
        )


def _set(mechanism, path, value):
    """Put ``value`` at ``path`` (keys, then an index or key) in a mechanism."""
    *keys, last = path
    for key in keys:
        mechanism = mechanism[key]
    mechanism[last] = value


@pytest.mark.parametrize(
    "preset_name, node, path, value, key",
    [
        ("james", "sex", ("table", "", 0), math.nan, 'sex.table[""][0]'),
        ("james", "reached_statutory_retirement", ("cutoffs", "male"), math.nan,
         "reached_statutory_retirement.cutoffs.male"),
        ("james", "age", ("values", -1), math.inf, "age.values[16]"),
        ("independence", "c2", ("intercept",), math.nan, "c2.intercept"),
        ("independence", "c2", ("noise_sd",), math.inf, "c2.noise_sd"),
        ("james", "reached_statutory_retirement", ("cutoffs", "male"), "65",
         "reached_statutory_retirement.cutoffs.male"),
    ],
    ids=["nan-cpt-row", "nan-cutoff", "inf-value", "nan-intercept", "inf-noise-sd", "str-cutoff"],
)
def test_graph_parameters_must_be_finite_numbers(preset_name, node, path, value, key):
    obj = preset(preset_name).graph.to_json()  # a fresh graph per call
    _set(obj["mechanisms"][node], path, value)
    wanted = re.escape(f"causal graph 'mechanisms.{key}' must be a ") + "(non-negative )?finite number"
    with pytest.raises(ValidationError, match=wanted):
        CausalGraphSpec.from_json(obj)


def test_linear_gaussian_weights_must_be_finite_numbers():
    with pytest.raises(
        ValidationError, match="causal graph 'mechanisms.y.weights.x' must be a finite number, got nan"
    ):
        CausalGraphSpec(
            nodes=(("x", NUMERIC), ("y", NUMERIC)),
            edges=(("x", "y"),),
            mechanisms={
                "x": {"kind": "linear_gaussian", "parents": [], "weights": {},
                      "intercept": 0.0, "noise_sd": 1.0},
                "y": {"kind": "linear_gaussian", "parents": ["x"],
                      "weights": {"x": math.nan}, "intercept": 0.0, "noise_sd": 1.0},
            },
        )


def test_graph_file_rejects_json_constants(tmp_path):
    path = tmp_path / "graph.json"
    preset("james").graph.save(path)
    text = path.read_text(encoding="utf-8").replace("60.0", "NaN", 1)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match="causal graph: NaN is not a JSON number"):
        CausalGraphSpec.load(path)


# --- serialization ------------------------------------------------------------


def test_graph_json_round_trip_preserves_sampling(tmp_path):
    g = preset("james").graph
    restored = CausalGraphSpec.from_json(g.to_json())
    assert restored.to_json() == g.to_json()
    path = tmp_path / "graph.json"
    g.save(path)
    loaded = CausalGraphSpec.load(path)
    d1, d2 = sample(g, 500, seed=12), sample(loaded, 500, seed=12)
    for name in d1.column_names:
        assert np.array_equal(
            d1.column_array(name), d2.column_array(name), equal_nan=True
        )


# --- presets ------------------------------------------------------------------


def test_unknown_preset_raises_lookup_error():
    with pytest.raises(LookupError, match="unknown preset"):
        preset("nonesuch")


def test_all_presets_build_and_sample():
    for name in synth.PRESET_NAMES:
        p = preset(name)
        assert isinstance(p, ScenarioPreset)
        assert p.name == name
        d = p.sample(200)
        assert d.n_rows == 200
        for col in p.roles.get("protected", ()):
            assert col in d.column_names
        for col in p.roles.get("candidates", ()):
            assert col in d.column_names


def test_confounder_fork_has_no_direct_edge_but_descendant_does():
    assert ("A", "P") not in preset("confounder").graph.edges
    assert ("A", "P") in preset("descendant").graph.edges


def test_confounder_sample_nmi_matches_population_value():
    # dual route: the golden was frozen from the exact-enumeration oracle;
    # recompute it here and compare the 50k-row sample against both
    pop = oracles.population_nmi_binary_confounder(0.5, (0.1, 0.9), (0.1, 0.9))
    assert pop == pytest.approx(goldens.CONFOUNDER_POPULATION_NMI, abs=5e-7)
    d = preset("confounder").sample(50_000, seed=3)
    value = normalized_mutual_information(d, "A", "P").value
    assert value == pytest.approx(pop, abs=0.02)
    assert 0.05 < value < 0.95  # association without determinism


def test_vocabulary_association_is_below_proxy_threshold():
    pop = oracles.population_nmi_binary_confounder(0.5, (0.3, 0.7), (0.3, 0.7))
    assert pop == pytest.approx(goldens.VOCABULARY_POPULATION_NMI, abs=5e-7)
    d = preset("vocabulary").sample(50_000, seed=1)
    value = normalized_mutual_information(d, "A", "P").value
    assert value == pytest.approx(pop, abs=0.01)
    assert value < 0.05


def test_conditional_independence_given_confounder():
    # d-separation smoke test: stratifying the fork on U kills the
    # association; stratifying the chain does not
    d = preset("confounder").sample(50_000, seed=11)
    for u in (0, 1):
        sub = d.select(d.codes("U") == u)
        assert normalized_mutual_information(sub, "A", "P").value < 0.02
    d = preset("descendant").sample(50_000, seed=11)
    for u in (0, 1):
        sub = d.select(d.codes("U") == u)
        assert normalized_mutual_information(sub, "A", "P").value > 0.2


def test_huntington_member_purity_matches_bayes():
    gt = preset("huntington").ground_truth
    assert gt["member_purity"] == pytest.approx(
        goldens.HUNTINGTON_MEMBER_PURITY, abs=1e-12
    )
    # Bayes recomputed inline: P(present)=0.3, P(member|present)=0.85,
    # P(member|absent)=0.02
    bayes = 0.3 * 0.85 / (0.3 * 0.85 + 0.7 * 0.02)
    assert gt["member_purity"] == pytest.approx(bayes, abs=1e-15)
    d = preset("huntington").sample(100_000, seed=9)
    member = d.codes("support_group") == 1
    present = d.codes("condition") == 1
    sample_purity = (member & present).sum() / member.sum()
    assert sample_purity == pytest.approx(bayes, abs=0.01)


def test_james_threshold_and_planted_subgroup():
    p = preset("james")
    d = p.sample(5000, seed=0)
    age = d.column_array("age")
    sex = d.codes("sex")  # 0 female, 1 male
    ret = d.codes("reached_statutory_retirement")
    cutoff = np.where(sex == 1, 65.0, 60.0)
    assert np.array_equal(ret, (age >= cutoff).astype(np.int64))
    # the planted subgroup — not yet retired but past the female cutoff —
    # is exclusively male, by construction
    planted = (ret == 0) & (age >= 61.0) & (age < 66.0)
    assert planted.sum() > 300
    assert np.all(sex[planted] == 1)
    assert p.ground_truth["purity"] == 1.0
    assert abs(planted.mean() - p.ground_truth["population_coverage"]) < 0.02


def test_james_age_quartiles_land_on_designed_cuts():
    # the age grid was designed so that equal-frequency quartile cuts of a
    # large sample land at 61 and 66, isolating the planted interval
    d = preset("james").sample(5000, seed=0)
    q25, q50 = np.quantile(d.column_array("age"), [0.25, 0.5])
    assert q25 == 61.0
    assert q50 == 66.0


def test_james_models_and_rule_are_attached():
    p = preset("james")
    assert set(p.models) == {"use", "ignore"}
    assert isinstance(p.decision_rule, DecisionRule)
    coef = p.models["use"].parameters["coefficients"]
    assert coef["reached_statutory_retirement=true"] == 1.0
    assert p.models["ignore"].parameters["coefficients"][
        "reached_statutory_retirement=true"
    ] == 0.0


def test_school_bayes_balanced_accuracy_from_cpts():
    # the Bayes-optimal classifier maps old_x -> male, recent -> female;
    # its per-class recall is 0.975 each, straight from the cohort CPT
    gt = preset("school").ground_truth
    assert gt["bayes_balanced_accuracy"] == pytest.approx(
        goldens.SCHOOL_BAYES_BALANCED_ACCURACY, abs=1e-12
    )
    d = preset("school").sample(50_000, seed=2)
    years = d.column_array("years_since_graduation")
    cohort = d.codes("cohort")  # 0 old_x, 1 recent
    # years >= 30 recovers the cohort exactly
    assert np.array_equal(cohort, (years < 30).astype(np.int64))
    sex = d.codes("sex")
    pred_male = years >= 30.0
    recall_male = pred_male[sex == 1].mean()
    recall_female = (~pred_male)[sex == 0].mean()
    bacc = 0.5 * (recall_male + recall_female)
    assert bacc == pytest.approx(0.975, abs=0.01)


def test_capacity_no_use_exact_copy_and_models():
    p = preset("capacity_no_use")
    d = p.sample(10_000, seed=2)
    assert np.array_equal(d.codes("A"), d.codes("P"))
    assert normalized_mutual_information(d, "A", "P").value == 1.0
    assert p.models["no_use"].parameters["coefficients"]["P=a1"] == 0.0
    assert p.models["use"].parameters["coefficients"]["P=a1"] == -2.0


def test_independence_preset_columns_are_independent():
    d = preset("independence").sample(50_000, seed=7)
    assert normalized_mutual_information(d, "A", "c1").value < 0.001
    a = d.codes("A")
    c2 = d.column_array("c2")
    assert abs(c2[a == 0].mean() - c2[a == 1].mean()) < 0.05
