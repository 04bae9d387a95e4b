"""The bundled JSON Schemas (``proxyaudit/schemas/<name>.schema.json``) and
one validator class for all of them: the config, the dataset schema and the
audit report.

JSON Schema's ``number`` here is a finite number and its ``integer`` an
``int``; neither is ever a bool, so ``2.0``, ``true`` and ``1e999`` (which
reads as infinity) fail where a schema asks for a number or an integer.
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
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _wanted(node, path):
    """The description of the deepest described schema along ``path``."""
    wanted = node["description"]
    for part in path:
        node = node["items"] if isinstance(part, int) else node["properties"][part]
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
