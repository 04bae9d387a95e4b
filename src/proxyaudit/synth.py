"""Structural-causal-model data generator with frozen scenario presets.

A :class:`CausalGraphSpec` is a DAG of categorical/numeric nodes, each with a
mechanism: a conditional probability table (``cpt``), a linear-Gaussian
equation (``linear_gaussian``), a deterministic parent-dependent threshold
(``threshold``), or a discrete distribution over numeric values
(``discrete_numeric``). Sampling is ancestral in topological order from one
NumPy PCG64 stream (``numpy.random.default_rng``), so identical
(graph, n, seed) inputs reproduce bit-for-bit anywhere NumPy runs.
:func:`node_values` is the one implementation of each mechanism, used by
sampling and by causal interventions (on one-row arrays) alike.

A graph is checked as it is built, from Python or from JSON
(:meth:`CausalGraphSpec.load` reads its file through ``models.read_json``):
``documents.check`` holds it to the bundled ``causal_graph`` schema, so a
malformed graph raises ``ValidationError`` naming its key path, such as
``mechanisms.y.weights.x``.

Each preset freezes the quantitative choices its scenario needs (CPT
strengths, value grids, attached model weights) together with the analytic
ground truth those numbers imply.
"""

import itertools
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

import numpy as np

from . import documents
from .data import CATEGORICAL, NUMERIC, ColumnSchema, Dataset
from .descriptors import Condition, SubgroupDescriptor
from .errors import GraphError, ParameterError, ValidationError
from .models import DecisionRule, ModelSpec, read_json, write_json

CONFIG_SEP = "|"


def _config_key(values):
    return CONFIG_SEP.join(values)


@dataclass(frozen=True)
class CausalGraphSpec:
    """DAG + per-node mechanisms; validates eagerly, before any sampling.

    The fields are checked against ``schemas/causal_graph.schema.json`` as
    they are given (names, kinds, key sets, finite numbers, signs); then the
    checks that need the graph: mechanism parents match the edges, tables
    cover the parent configurations at their width and sum to 1, the graph
    is acyclic, discrete values increase, cutoffs cover their categories and
    each node's kind is its mechanism's."""

    nodes: tuple  # ((name, kind), ...) in declaration order
    edges: tuple  # ((parent, child), ...)
    mechanisms: dict  # name -> mechanism dict (see module docstring)
    seed: int = 0

    def __post_init__(self):
        documents.check("causal_graph", vars(self), "causal graph")  # the fields as given
        object.__setattr__(self, "nodes", tuple((n, k) for n, k in self.nodes))
        object.__setattr__(self, "edges", tuple((p, c) for p, c in self.edges))
        self._validate()

    # --- structure ---------------------------------------------------------

    @property
    def node_names(self):
        return tuple(n for n, _k in self.nodes)

    def kind_of(self, name):
        for n, k in self.nodes:
            if n == name:
                return k
        raise GraphError(f"no node named {name!r}")

    def parents_of(self, name):
        return tuple(p for p, c in self.edges if c == name)

    def topological_order(self):
        ts = TopologicalSorter()
        for name in self.node_names:
            ts.add(name, *self.parents_of(name))
        try:
            return tuple(ts.static_order())
        except CycleError as exc:
            raise ValidationError(f"graph has a cycle: {exc.args[1]}") from None

    def categories_of(self, name):
        mech = self.mechanisms[name]
        if mech["kind"] == "threshold":
            return ("false", "true")
        if mech["kind"] == "cpt":
            return tuple(mech["categories"])
        raise GraphError(f"node {name!r} is not categorical")

    @property
    def schema(self):
        """The nodes' column schemas, in declaration order."""
        return tuple(
            ColumnSchema(n, k, self.categories_of(n) if k == CATEGORICAL else None)
            for n, k in self.nodes
        )

    # --- validation --------------------------------------------------------

    def _validate(self):
        names = self.node_names
        if len(set(names)) != len(names):
            raise ValidationError("duplicate node names")
        for p, c in self.edges:
            if p not in names or c not in names:
                raise ValidationError(f"edge ({p!r}, {c!r}) references unknown nodes")
        order = self.topological_order()  # raises on cycles
        missing = set(names) - set(self.mechanisms)
        if missing:
            raise ValidationError(f"nodes without mechanisms: {sorted(missing)}")
        extra = set(self.mechanisms) - set(names)
        if extra:
            raise ValidationError(f"mechanisms for unknown nodes: {sorted(extra)}")
        for name in order:  # parents first: a table reads its parents' categories
            self._validate_mechanism(name)

    def _parent_configs(self, parents):
        """All parent category combinations, in declaration-order product."""
        pools = [self.categories_of(p) for p in parents]
        return [_config_key(combo) for combo in itertools.product(*pools)]

    def _validate_mechanism(self, name):
        mech = self.mechanisms[name]
        kind = mech["kind"]
        declared_parents = tuple(mech.get("parents", ()))
        if declared_parents != self.parents_of(name):
            raise ValidationError(
                f"node {name!r}: mechanism parents {declared_parents} do not match "
                f"graph parents {self.parents_of(name)}"
            )
        node_kind = self.kind_of(name)
        if kind in ("cpt", "threshold") and node_kind != CATEGORICAL:
            raise ValidationError(f"node {name!r}: {kind} mechanisms are categorical")
        if kind in ("linear_gaussian", "discrete_numeric") and node_kind != NUMERIC:
            raise ValidationError(f"node {name!r}: {kind} mechanisms are numeric")

        if kind in ("cpt", "discrete_numeric"):
            non_cat = [p for p in declared_parents if self.kind_of(p) != CATEGORICAL]
            if non_cat:
                raise ValidationError(
                    f"node {name!r}: probability-table parents must be "
                    f"categorical, got numeric {non_cat}"
                )
        if kind == "cpt":
            self._validate_prob_table(name, mech["table"], declared_parents, len(mech["categories"]))
        elif kind == "discrete_numeric":
            values = mech["values"]
            if sorted(set(values)) != list(values):
                raise ValidationError(
                    f"node {name!r}: discrete_numeric needs strictly increasing values"
                )
            self._validate_prob_table(name, mech["table"], declared_parents, len(values))
        elif kind == "linear_gaussian":
            numeric_parents = tuple(
                p for p in declared_parents if self.kind_of(p) == NUMERIC
            )
            if numeric_parents != declared_parents:
                raise ValidationError(
                    f"node {name!r}: linear_gaussian parents must be numeric"
                )
            if set(mech.get("weights", {})) != set(declared_parents):
                raise ValidationError(
                    f"node {name!r}: weights must cover exactly the parents"
                )
        else:  # threshold
            source, by = mech["source"], mech["by"]
            if set(declared_parents) != {source, by} or len(declared_parents) != 2:
                raise ValidationError(
                    f"node {name!r}: threshold needs parents (source, by)"
                )
            if self.kind_of(source) != NUMERIC or self.kind_of(by) != CATEGORICAL:
                raise ValidationError(
                    f"node {name!r}: threshold source must be numeric, by categorical"
                )
            if set(mech["cutoffs"]) != set(self.categories_of(by)):
                raise ValidationError(
                    f"node {name!r}: cutoffs must cover every category of {by!r}"
                )

    def _validate_prob_table(self, name, table, parents, width):
        expected = set(self._parent_configs(parents))
        if set(table) != expected:
            raise ValidationError(
                f"node {name!r}: table rows must cover exactly the parent "
                f"configurations ({sorted(expected)})"
            )
        for key, probs in table.items():
            if len(probs) != width:
                raise ValidationError(f"node {name!r}: row {key!r} has wrong width")
            if abs(sum(probs) - 1.0) > 1e-9:
                raise ValidationError(f"node {name!r}: row {key!r} does not sum to 1")

    # --- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "nodes": [[n, k] for n, k in self.nodes],
            "edges": [[p, c] for p, c in self.edges],
            "mechanisms": self.mechanisms,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(obj):
        # the document as a whole (an object with known keys); construction
        # checks its fields
        documents.check("causal_graph", obj, "causal graph")
        return CausalGraphSpec(**obj)

    @staticmethod
    def load(path):
        return CausalGraphSpec.from_json(read_json(path, "causal graph"))

    def save(self, path):
        write_json(path, self.to_json())


# --- sampling ----------------------------------------------------------------


def _config_index(g, parents, values, n):
    """Per-row index into a node's parent-configuration list (the list is in
    product order, so the index is a mixed-radix number over parent codes)."""
    idx = np.zeros(n, dtype=np.int64)
    for p in parents:
        idx = idx * len(g.categories_of(p)) + values[p]
    return idx, g._parent_configs(parents)


def _draw_from_table(rng, table, configs, config_idx):
    """Vectorized inverse-CDF draw: one uniform per row, row-order stable."""
    prob_rows = np.array([table[key] for key in configs], dtype=np.float64)
    cum = np.cumsum(prob_rows, axis=1)
    cum[:, -1] = 1.0  # guard the last edge against float undersum
    u = rng.random(config_idx.shape[0])
    return (u[:, None] > cum[config_idx]).sum(axis=1)


def node_values(g, name, values, n, rng, noise=None):
    """A node's category codes or floats for ``n`` rows from its parents'
    ``values``. Probability tables draw one uniform per row from ``rng``; a
    linear-Gaussian node adds ``noise``, drawn from ``rng`` when None."""
    mech = g.mechanisms[name]
    kind = mech["kind"]
    parents = g.parents_of(name)
    if kind in ("cpt", "discrete_numeric"):
        idx, configs = _config_index(g, parents, values, n)
        draws = _draw_from_table(rng, mech["table"], configs, idx)
        if kind == "cpt":
            return draws
        return np.asarray(mech["values"], dtype=np.float64)[draws]
    if kind == "linear_gaussian":
        value = np.full(n, float(mech.get("intercept", 0.0)))
        for p in parents:
            value += mech["weights"][p] * values[p]
        if noise is None:
            noise = rng.normal(0.0, mech.get("noise_sd", 0.0), n)
        return value + noise
    # threshold
    cutoffs = np.array([mech["cutoffs"][c] for c in g.categories_of(mech["by"])])
    return (values[mech["source"]] >= cutoffs[values[mech["by"]]]).astype(np.int64)


def sample(g, n, seed):
    """Ancestral sampling: one PCG64 stream, topological node order, columns
    emitted in declaration order. Bit-for-bit reproducible per (g, n, seed)."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    rng = np.random.default_rng(seed)
    values = {}
    for name in g.topological_order():
        values[name] = node_values(g, name, values, n, rng)
    return Dataset(g.schema, values)


# --- presets -----------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioPreset:
    """A frozen scenario: graph, audit roles, optional models, ground truth."""

    name: str
    graph: CausalGraphSpec
    ground_truth: dict
    roles: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    decision_rule: DecisionRule = None

    def sample(self, n, seed=None):
        return sample(self.graph, n, self.graph.seed if seed is None else seed)


def _binary_cpt(name_probs):
    """CPT table {config: [P(cat0), P(cat1)]} from {config: P(cat1)}."""
    return {key: [1.0 - p, p] for key, p in name_probs.items()}


def _james():
    ages = list(range(52, 59)) + [61, 62, 63] + list(range(66, 73))
    probs = [0.03] * 7 + [0.08] * 3 + [0.55 / 7] * 7
    graph = CausalGraphSpec(
        nodes=(
            ("sex", CATEGORICAL),
            ("age", NUMERIC),
            ("reached_statutory_retirement", CATEGORICAL),
        ),
        edges=(
            ("age", "reached_statutory_retirement"),
            ("sex", "reached_statutory_retirement"),
        ),
        mechanisms={
            "sex": {
                "kind": "cpt",
                "parents": [],
                "categories": ["female", "male"],
                "table": {"": [0.45, 0.55]},
            },
            "age": {
                "kind": "discrete_numeric",
                "parents": [],
                "values": [float(a) for a in ages],
                "table": {"": probs},
            },
            "reached_statutory_retirement": {
                "kind": "threshold",
                "parents": ["age", "sex"],
                "source": "age",
                "by": "sex",
                "cutoffs": {"female": 60.0, "male": 65.0},
            },
        },
        seed=20,
    )
    planted = SubgroupDescriptor(
        (
            Condition.equals("reached_statutory_retirement", "false"),
            Condition.interval("age", lo=61.0, hi=66.0),
        )
    )
    # free entry goes to people past their statutory retirement age; the
    # planted criterion therefore disadvantages exactly the 61-65 men
    model_use = ModelSpec(
        "linear",
        {"coefficients": {"reached_statutory_retirement=true": 1.0}, "intercept": 0.0},
        ("reached_statutory_retirement",),
    )
    model_ignore = ModelSpec(
        "linear",
        {"coefficients": {"reached_statutory_retirement=true": 0.0}, "intercept": 0.0},
        ("reached_statutory_retirement",),
    )
    return ScenarioPreset(
        name="james",
        graph=graph,
        roles={
            "protected": ("sex",),
            "candidates": ("age", "reached_statutory_retirement"),
        },
        models={"use": model_use, "ignore": model_ignore},
        decision_rule=DecisionRule(threshold=0.5, favourable_direction="score_above"),
        ground_truth={
            "planted_proxy": planted.to_json(),
            "planted_proxy_text": planted.as_text(),
            "protected_target": ["sex", "male"],
            "purity": 1.0,
            "population_coverage": 0.55 * 0.24,
            "use_flag_with_model": {"use": True, "ignore": False},
        },
    )


def _school():
    years = [float(y) for y in range(5, 45)]
    old = [0.0] * 25 + [1.0 / 15] * 15
    recent = [1.0 / 25] * 25 + [0.0] * 15
    graph = CausalGraphSpec(
        nodes=(
            ("sex", CATEGORICAL),
            ("cohort", CATEGORICAL),
            ("school_attended", CATEGORICAL),
            ("years_since_graduation", NUMERIC),
        ),
        edges=(
            ("sex", "cohort"),
            ("cohort", "school_attended"),
            ("cohort", "years_since_graduation"),
        ),
        mechanisms={
            "sex": {
                "kind": "cpt",
                "parents": [],
                "categories": ["female", "male"],
                "table": {"": [0.5, 0.5]},
            },
            "cohort": {
                "kind": "cpt",
                "parents": ["sex"],
                "categories": ["old_x", "recent"],
                # school X ran boys-only until the switch: almost every
                # old-cohort graduate is male
                "table": {"female": [0.025, 0.975], "male": [0.975, 0.025]},
            },
            "school_attended": {
                "kind": "cpt",
                "parents": ["cohort"],
                "categories": ["X", "Y"],
                "table": {"old_x": [1.0, 0.0], "recent": [0.3, 0.7]},
            },
            "years_since_graduation": {
                "kind": "discrete_numeric",
                "parents": ["cohort"],
                "values": years,
                "table": {"old_x": old, "recent": recent},
            },
        },
        seed=21,
    )
    return ScenarioPreset(
        name="school",
        graph=graph,
        roles={
            "protected": ("sex",),
            "candidates": ("school_attended", "years_since_graduation"),
        },
        ground_truth={
            # years >= 30 identifies the old cohort exactly, which carries
            # sex at strength 0.975 in both directions
            "bayes_balanced_accuracy": 0.975,
            "predictive_capacity_value": 0.95,
            "proxy_set": ["school_attended", "years_since_graduation"],
        },
    )


def _u_fork(a_strength, p_strength, extra_nodes=(), extra_edges=(), extra_mechs=None, seed=22):
    nodes = (("U", CATEGORICAL), ("A", CATEGORICAL), ("P", CATEGORICAL)) + tuple(extra_nodes)
    edges = (("U", "A"), ("U", "P")) + tuple(extra_edges)
    mechanisms = {
        "U": {
            "kind": "cpt", "parents": [], "categories": ["u0", "u1"],
            "table": {"": [0.5, 0.5]},
        },
        "A": {
            "kind": "cpt", "parents": ["U"], "categories": ["a0", "a1"],
            "table": _binary_cpt({"u0": 1 - a_strength, "u1": a_strength}),
        },
        "P": {
            "kind": "cpt", "parents": ["U"], "categories": ["p0", "p1"],
            "table": _binary_cpt({"u0": 1 - p_strength, "u1": p_strength}),
        },
    }
    mechanisms.update(extra_mechs or {})
    return CausalGraphSpec(nodes=nodes, edges=edges, mechanisms=mechanisms, seed=seed)


def _confounder():
    return ScenarioPreset(
        name="confounder",
        graph=_u_fork(0.9, 0.9, seed=22),
        roles={"protected": ("A",), "candidates": ("P",), "stratify": "U"},
        ground_truth={
            "population_nmi": 0.31992295427172024,
            "edge_a_to_p": False,
            "conditionally_independent_given_u": True,
        },
    )


def _descendant():
    graph = CausalGraphSpec(
        nodes=(("U", CATEGORICAL), ("A", CATEGORICAL), ("P", CATEGORICAL)),
        edges=(("U", "A"), ("A", "P")),
        mechanisms={
            "U": {
                "kind": "cpt", "parents": [], "categories": ["u0", "u1"],
                "table": {"": [0.5, 0.5]},
            },
            "A": {
                "kind": "cpt", "parents": ["U"], "categories": ["a0", "a1"],
                "table": _binary_cpt({"u0": 0.1, "u1": 0.9}),
            },
            "P": {
                "kind": "cpt", "parents": ["A"], "categories": ["p0", "p1"],
                "table": _binary_cpt({"a0": 0.1, "a1": 0.9}),
            },
        },
        seed=23,
    )
    return ScenarioPreset(
        name="descendant",
        graph=graph,
        roles={"protected": ("A",), "candidates": ("P",), "stratify": "U"},
        ground_truth={
            "edge_a_to_p": True,
            "conditionally_independent_given_u": False,
        },
    )


def _vocabulary():
    graph = _u_fork(
        0.7, 0.7,
        extra_nodes=(("Y", CATEGORICAL),),
        extra_edges=(("P", "Y"),),
        extra_mechs={
            "Y": {
                "kind": "cpt", "parents": ["P"], "categories": ["y0", "y1"],
                "table": _binary_cpt({"p0": 0.3, "p1": 0.8}),
            },
        },
        seed=24,
    )
    return ScenarioPreset(
        name="vocabulary",
        graph=graph,
        roles={"protected": ("A",), "candidates": ("P",), "outcome": "Y"},
        ground_truth={
            # association exists but is far too weak to act as a proxy
            "population_nmi": 0.018546104966346438,
            "proxy_capacity": False,
        },
    )


def _huntington():
    graph = CausalGraphSpec(
        nodes=(
            ("condition", CATEGORICAL),
            ("support_group", CATEGORICAL),
            ("outcome", CATEGORICAL),
        ),
        edges=(("condition", "support_group"), ("condition", "outcome")),
        mechanisms={
            "condition": {
                "kind": "cpt", "parents": [], "categories": ["absent", "present"],
                "table": {"": [0.7, 0.3]},
            },
            "support_group": {
                "kind": "cpt", "parents": ["condition"],
                "categories": ["non_member", "member"],
                "table": _binary_cpt({"absent": 0.02, "present": 0.85}),
            },
            "outcome": {
                "kind": "cpt", "parents": ["condition"],
                "categories": ["deny", "grant"],
                "table": _binary_cpt({"absent": 0.7, "present": 0.2}),
            },
        },
        seed=25,
    )
    return ScenarioPreset(
        name="huntington",
        graph=graph,
        roles={
            "protected": ("condition",),
            "candidates": ("support_group",),
            "outcome": "outcome",
        },
        ground_truth={
            # P(condition present | member) from the table above
            "member_purity": 0.9479553903345724,
            "proxy_capacity": True,
            "deterministic_link": False,
        },
    )


def _parttime():
    graph = CausalGraphSpec(
        nodes=(
            ("sex", CATEGORICAL),
            ("part_time", CATEGORICAL),
            ("outcome", CATEGORICAL),
        ),
        edges=(("sex", "part_time"), ("part_time", "outcome")),
        mechanisms={
            "sex": {
                "kind": "cpt", "parents": [], "categories": ["female", "male"],
                "table": {"": [0.5, 0.5]},
            },
            "part_time": {
                "kind": "cpt", "parents": ["sex"], "categories": ["no", "yes"],
                "table": _binary_cpt({"female": 0.4, "male": 0.1}),
            },
            "outcome": {
                "kind": "cpt", "parents": ["part_time"], "categories": ["deny", "grant"],
                "table": _binary_cpt({"no": 0.8, "yes": 0.3}),
            },
        },
        seed=26,
    )
    return ScenarioPreset(
        name="parttime",
        graph=graph,
        roles={
            "protected": ("sex",),
            "candidates": ("part_time",),
            "outcome": "outcome",
        },
        ground_truth={"mediated_effect": True, "deterministic_link": False},
    )


def _capacity_no_use():
    graph = CausalGraphSpec(
        nodes=(("A", CATEGORICAL), ("P", CATEGORICAL), ("X", NUMERIC)),
        edges=(("A", "P"),),
        mechanisms={
            "A": {
                "kind": "cpt", "parents": [], "categories": ["a0", "a1"],
                "table": {"": [0.5, 0.5]},
            },
            "P": {
                "kind": "cpt", "parents": ["A"], "categories": ["a0", "a1"],
                "table": {"a0": [1.0, 0.0], "a1": [0.0, 1.0]},  # exact copy
            },
            "X": {
                "kind": "linear_gaussian", "parents": [],
                "weights": {}, "intercept": 0.0, "noise_sd": 1.0,
            },
        },
        seed=27,
    )
    model_no_use = ModelSpec(
        "linear",
        {"coefficients": {"P=a1": 0.0, "X": 1.0}, "intercept": 0.0},
        ("P", "X"),
    )
    model_use = ModelSpec(
        "linear",
        {"coefficients": {"P=a1": -2.0, "X": 1.0}, "intercept": 0.0},
        ("P", "X"),
    )
    return ScenarioPreset(
        name="capacity_no_use",
        graph=graph,
        roles={"protected": ("A",), "candidates": ("P", "X")},
        models={"no_use": model_no_use, "use": model_use},
        decision_rule=DecisionRule(threshold=0.0, favourable_direction="score_above"),
        ground_truth={
            "nmi": 1.0,
            "no_use": {"flip_rate": 0.0, "mean_abs_delta": 0.0},
            "use_weight": -2.0,
        },
    )


def _independence():
    graph = CausalGraphSpec(
        nodes=(("A", CATEGORICAL), ("c1", CATEGORICAL), ("c2", NUMERIC)),
        edges=(),
        mechanisms={
            "A": {
                "kind": "cpt", "parents": [], "categories": ["a0", "a1"],
                "table": {"": [0.5, 0.5]},
            },
            "c1": {
                "kind": "cpt", "parents": [], "categories": ["k0", "k1", "k2"],
                "table": {"": [1 / 3, 1 / 3, 1 / 3]},
            },
            "c2": {
                "kind": "linear_gaussian", "parents": [],
                "weights": {}, "intercept": 0.0, "noise_sd": 1.0,
            },
        },
        seed=28,
    )
    return ScenarioPreset(
        name="independence",
        graph=graph,
        roles={"protected": ("A",), "candidates": ("c1", "c2")},
        ground_truth={
            "max_predictive_capacity": 0.0,
            "expected_validated_findings": 0,
        },
    )


_PRESETS = {
    "james": _james,
    "school": _school,
    "confounder": _confounder,
    "descendant": _descendant,
    "vocabulary": _vocabulary,
    "huntington": _huntington,
    "parttime": _parttime,
    "capacity_no_use": _capacity_no_use,
    "independence": _independence,
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name):
    """A frozen scenario by name; unknown names raise a lookup error."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()
