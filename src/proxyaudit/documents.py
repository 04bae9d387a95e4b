"""The bundled JSON Schemas (``proxyaudit/schemas/<name>.schema.json``) and
one validator class for all of them: the config, the dataset schema, the
causal graph and the audit report. Every document the audit reads comes from
``models.read_json``; :func:`check` holds it to its schema.

JSON Schema's ``number`` here is a finite number and its ``integer`` an
``int``; neither is ever a bool, so ``2.0``, ``true`` and ``1e999`` (which
reads as infinity) fail where a schema asks for a number or an integer. An
``array`` is a list or a tuple, both of which ``json`` writes as an array,
so a graph built in Python is checked as its JSON would be.
"""

import functools
import importlib.resources
import json

import jsonschema

from .errors import ValidationError
from .models import _is_real

_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "number": lambda _checker, value: _is_real(value),
        "integer": lambda _checker, value: isinstance(value, int) and not isinstance(value, bool),
        "array": lambda _checker, value: isinstance(value, (list, tuple)),
    }),
)


@functools.cache
def schema(name):
    path = importlib.resources.files("proxyaudit.schemas") / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


@functools.cache
def validator(name):
    """Validator of a bundled schema, built on first use. It skips the
    metaschema check that ``jsonschema.validate`` repeats on every call; the
    bundled schemas are checked against their metaschema by the tests."""
    return _Validator(schema(name))


def _key(path):
    """``path`` as text, such as ``a.b[0]``. A key that is empty or holds
    ``.``, ``[`` or ``]`` goes in brackets as JSON: ``table[""]``."""
    out = ""
    for part in path:
        if isinstance(part, int):
            out += f"[{part}]"
        elif not part or set(part) & set(".[]"):
            out += f"[{json.dumps(part)}]"
        else:
            out += f".{part}" if out else part
    return out


def _wanted(node, path):
    """The description of the deepest described schema along ``path``. An
    index takes its ``prefixItems`` entry, else ``items``; a key its entry
    in ``properties``, else ``additionalProperties`` (objects keyed by name)."""
    wanted = node["description"]
    for part in path:
        if isinstance(part, int):
            node = node["prefixItems"][part] if "prefixItems" in node else node["items"]
        else:
            node = node.get("properties", {}).get(part, node.get("additionalProperties"))
        wanted = node.get("description", wanted)
    return wanted


def check(name, document, label):
    """Raise ``ValidationError`` unless ``document`` meets the bundled schema
    ``name``. Every unknown key goes into one message; otherwise the best
    matching error names its key: ``<label> '<key>' must be <wanted>, got
    <value>``, where ``<wanted>`` is the nearest property description."""
    errors = list(validator(name).iter_errors(document))
    unknown = sorted(
        _key([*e.absolute_path, k])
        for e in errors if e.validator == "additionalProperties"
        for k in e.instance if k not in e.schema.get("properties", {})
    )
    if unknown:
        raise ValidationError(f"unknown {label} key(s): {', '.join(unknown)}")
    error = jsonschema.exceptions.best_match(errors)
    if error is None:
        return
    path, got = list(error.absolute_path), repr(error.instance)
    if error.validator == "required":
        path.append(next(k for k in error.validator_value if k not in error.instance))
        got = "nothing"
    key = f" '{_key(path)}'" if path else ""
    raise ValidationError(f"{label}{key} must be {_wanted(schema(name), path)}, got {got}")
