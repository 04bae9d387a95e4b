"""Every JSON document the audit reads fails with its own error class.

One property covers the four documents as ``synth`` writes them: the james
config and dataset schema, each preset's model specs and each preset's
causal graph. A document edited by key (a key dropped, an unknown key added,
a value swapped for another JSON type) or by byte (the file truncated, or a
``0xff`` byte inserted) must load or raise ``ValidationError`` (``SpecError``
for a model spec), both from the decoded object and from the file. No
``KeyError``, ``TypeError``, ``ValueError``, ``UnicodeDecodeError`` or
``json.JSONDecodeError`` may escape.
"""

import copy
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyaudit import documents
from proxyaudit.cli import main
from proxyaudit.data import read_schema_json, schema_from_json
from proxyaudit.errors import SpecError, ValidationError
from proxyaudit.models import ModelSpec, read_json
from proxyaudit.synth import PRESET_NAMES, CausalGraphSpec, preset


def _config_load(path):
    documents.check("config", read_json(path, "config"), "config")


# label -> (check of the decoded object, load of the file, error class)
READERS = {
    "config": (lambda obj: documents.check("config", obj, "config"), _config_load, ValidationError),
    "dataset schema": (schema_from_json, read_schema_json, ValidationError),
    "model spec": (ModelSpec.from_json, ModelSpec.load, SpecError),
    "causal graph": (CausalGraphSpec.from_json, CausalGraphSpec.load, ValidationError),
}

# One value of each JSON type, by type: a swap takes a value of another type.
JSON_VALUES = {
    "null": [None],
    "boolean": [True],
    "number": [0, -1, 2.5],
    "string": ["", "x"],
    "array": [[], [7], ["x"], [{}], [[]]],
    "object": [{}, {"x": 1}, {"": []}],
}


def _json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The (label, file bytes) of each document ``synth`` writes, and a path
    to write edited documents to."""
    root = tmp_path_factory.mktemp("synth")
    runner = CliRunner()
    found = []
    for name in PRESET_NAMES:
        out = root / name
        result = runner.invoke(main, ["synth", "--preset", name, "--rows", "5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        if name == "james":
            found += [("config", out / "config.json"), ("dataset schema", out / "schema.json")]
        found += [("model spec", path) for path in sorted(out.glob("model_*.json"))]
        found.append(("causal graph", out / "graph.json"))
    assert {label for label, _path in found} == set(READERS)
    return [(label, path.read_bytes()) for label, path in found], root / "edited.json"


@st.composite
def key_edits(draw, doc):
    """``doc`` with one key dropped, one unknown key added or one value
    swapped for a value of another JSON type."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    objects = [p for p in paths if isinstance(_at(doc, p), dict)]
    edit = draw(st.sampled_from(["drop", "add", "swap"]))
    if edit == "drop" and len(paths) > 1:
        *parent, key = draw(st.sampled_from(paths[1:]))
        del _at(doc, parent)[key]
    elif edit == "add" and objects:
        _at(doc, draw(st.sampled_from(objects)))["zz_unknown"] = draw(st.sampled_from([1, "x"]))
    else:
        path = draw(st.sampled_from(paths))
        kind = _json_type(_at(doc, path))
        new = draw(st.sampled_from([v for t, vs in JSON_VALUES.items() if t != kind for v in vs]))
        if not path:
            return copy.deepcopy(new)
        *parent, key = path
        _at(doc, parent)[key] = copy.deepcopy(new)
    return doc


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_an_edited_document_loads_or_raises_its_own_class(written, data):
    documents_written, path = written
    label, raw = data.draw(st.sampled_from(documents_written))
    check, load, error = READERS[label]
    if data.draw(st.booleans()):
        doc = data.draw(key_edits(json.loads(raw)))
        path.write_text(json.dumps(doc), encoding="utf-8")
        for read in (lambda: check(copy.deepcopy(doc)), lambda: load(path)):
            try:
                read()
            except error:
                pass
    else:
        at = data.draw(st.integers(0, len(raw) - 1))
        edited = raw[:at] if data.draw(st.booleans()) else raw[:at] + b"\xff" + raw[at:]
        path.write_bytes(edited)
        try:
            load(path)
        except error as exc:
            # a file that is no longer JSON is named by its document
            assert str(exc).startswith(label), str(exc)


@pytest.mark.parametrize("label", sorted(READERS))
@pytest.mark.parametrize(
    "text", [b"{not json", b'{"a": 1,\xff}', b'{"a": NaN}', b"[" * 100_000],
    ids=["syntax", "xff", "nan", "deep"],
)
def test_bad_bytes_raise_the_documents_class_naming_it(tmp_path, label, text):
    _check, load, error = READERS[label]
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    with pytest.raises(error) as exc:
        load(path)
    assert str(exc.value).startswith(f"{label}: ")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda sex: sex["table"].update({"": 0.5}),
         """causal graph 'mechanisms.sex.table[""]' must be a list of probabilities, got 0.5"""),
        (lambda sex: sex["table"].update({"": [0.45, None]}),
         """causal graph 'mechanisms.sex.table[""][1]' must be """),
        (lambda sex: sex.update({"a.b": 1}),
         """unknown causal graph key(s): mechanisms.sex["a.b"]"""),
    ],
    ids=["empty-key", "empty-key-index", "dotted-key"],
)
def test_an_empty_or_dotted_key_is_named_in_brackets(edit, message):
    obj = preset("james").graph.to_json()  # a fresh graph per call
    edit(obj["mechanisms"]["sex"])
    with pytest.raises(ValidationError) as exc:
        CausalGraphSpec.from_json(obj)
    assert str(exc.value).startswith(message), str(exc.value)
