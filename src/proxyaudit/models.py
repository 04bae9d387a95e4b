"""Uniform prediction interface: builtin model formats, external probes, and
the decision rule mapping scores to favourable/unfavourable outcomes.

Every model kind implements one scoring method, ``score_columns``, over one
array per feature; ``ModelHandle.predict_batch`` turns rows into columns for
all of them in one checked loop, which raises each row error (a missing
feature, a wrong row length, a ``None`` value) at the first row that has
one. Builtin kinds — ``linear``, ``logistic`` (one-of-K
coefficients named ``column=category``) and ``decision_tree`` (a node table)
— run on numpy alone, bar the logistic's ``scipy.special.expit``. External
kinds take rows as newline-delimited JSON over a subprocess's stdin/stdout
or HTTP POST /predict: every row of a call, in order, ``ROWS_PER_CALL`` rows
per message. A caller that scores repeated rows collapses them first, as
flip analysis does. urllib is imported only when an ``external_http`` probe
sends.

Up to ``WINDOW`` predict messages may await replies at once: 4 on a
subprocess probe, 1 on HTTP (urllib is synchronous). A probe answers in
request order, one UTF-8 JSON line per request echoing its id; a reply that
is not UTF-8 JSON (``_decode_reply`` decodes every one), does not echo the
oldest outstanding id, or holds a score that is not finite, is a protocol
violation.

External transport failures are retried (counted, never silent): the probe
is restarted and every unanswered request resent, until the oldest one has
failed more than twice; a probe that cannot be started, at first or on a
restart, is unreachable. Protocol violations are never retried, as retrying
can mask a nondeterministic model.

Every JSON document the package writes is ``json_text``, which never holds
the ``NaN`` or ``Infinity`` that ``read_json`` refuses.
"""

import json
import math
import os
import queue
import subprocess
import threading
from collections import deque
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from numbers import Real

import numpy as np

from .errors import ConnectivityError, ParseError, ProtocolError, SpecError, ValidationError

FAVOURABLE = "favourable"
UNFAVOURABLE = "unfavourable"

BUILTIN_KINDS = ("linear", "logistic", "decision_tree")
EXTERNAL_KINDS = ("external_subprocess", "external_http")

DEFAULT_PROBE_TIMEOUT_SECS = 10.0
MAX_TRANSPORT_RETRIES = 2
# rows per predict call when columns are scored through the row protocol
ROWS_PER_CALL = 1_000


def _reject_constant(name):
    raise ParseError(f"{name} is not a JSON number")


# Decodes every JSON document and probe reply, raising ``ParseError`` on the
# NaN and Infinity that ``json`` accepts; one instance serves every reply.
JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def read_json(path, label, error=ValidationError):
    """The JSON document in the file at ``path``: the one reader of the config,
    the dataset schema, model specs and causal graphs. Bytes that are not
    UTF-8, a JSON syntax error, a ``NaN`` or ``Infinity`` and arrays or
    objects nested past the interpreter's recursion limit raise ``error``
    with a message that starts with the document's ``label``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return JSON_DECODER.decode(fh.read())
    except (UnicodeDecodeError, json.JSONDecodeError, ParseError, RecursionError) as exc:
        raise error(f"{label}: {exc}") from None


def json_text(document):
    """A JSON document's text: sorted keys, two-space indent, one final
    newline. ``NaN`` and ``Infinity`` raise ``ValueError``."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, document):
    """Write ``json_text(document)`` to the file at ``path`` as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(document))


def _is_real(value):
    """A finite JSON number: a real that is not a bool. ``1e999`` reads as
    infinity, and an integer too large for a float overflows."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def probe_timeout():
    raw = os.environ.get("PROXYAUDIT_PROBE_TIMEOUT_SECS")
    if raw is None:
        return DEFAULT_PROBE_TIMEOUT_SECS
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:  # nan would turn the timeout off
        raise ValidationError(f"PROXYAUDIT_PROBE_TIMEOUT_SECS must be finite and above 0, got {raw!r}")
    return value


@dataclass(frozen=True)
class DecisionRule:
    """Threshold plus direction turning a score into an outcome."""

    threshold: float
    favourable_direction: str = "score_above"

    def __post_init__(self):
        object.__setattr__(self, "threshold", float(self.threshold))
        if self.favourable_direction not in ("score_above", "score_below"):
            raise ValidationError(
                f"favourable_direction must be score_above or score_below, "
                f"got {self.favourable_direction!r}"
            )

    def favourable(self, score):
        """True where a score (scalar or array) is favourable; ties are not."""
        if self.favourable_direction == "score_above":
            return score > self.threshold
        return score < self.threshold

    def to_json(self):
        return {"threshold": self.threshold, "favourable_direction": self.favourable_direction}

    @staticmethod
    def from_json(obj):
        return DecisionRule(**obj)


def decide(rule, score):
    """Outcome of one score; a score exactly on the threshold is unfavourable."""
    return FAVOURABLE if rule.favourable(score) else UNFAVOURABLE


def _node_ref(nid):
    """A tree node's id, or a reference to one: an integer or a string."""
    if not isinstance(nid, (int, str)) or isinstance(nid, bool):
        raise SpecError(f"tree node id must be an integer or a string, got {nid!r}")
    return nid


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description; see module docstring for formats."""

    kind: str
    parameters: dict
    feature_order: tuple

    def __post_init__(self):
        object.__setattr__(self, "feature_order", tuple(self.feature_order))
        self.validate()
        if self.kind in ("linear", "logistic"):
            # scores sum coefficients in dict order: keep the order save() writes
            coefficients = dict(sorted(self.parameters["coefficients"].items()))
            object.__setattr__(self, "parameters", {**self.parameters, "coefficients": coefficients})

    def validate(self):
        if self.kind not in BUILTIN_KINDS + EXTERNAL_KINDS:
            raise SpecError(f"unknown model kind {self.kind!r}")
        if not all(isinstance(f, str) for f in self.feature_order):
            raise SpecError(
                f"feature_order must list column names, got {list(self.feature_order)!r}"
            )
        if len(set(self.feature_order)) != len(self.feature_order):
            raise SpecError("duplicate names in feature_order")
        p = self.parameters
        if not isinstance(p, dict):
            raise SpecError(f"model parameters must be a JSON object, got {p!r}")
        if self.kind in ("linear", "logistic"):
            if not isinstance(p.get("coefficients"), dict) or not _is_real(p.get("intercept")):
                raise SpecError(f"{self.kind} spec needs coefficients and a numeric intercept")
            covered = set()
            for name, weight in p["coefficients"].items():
                if not _is_real(weight):
                    raise SpecError(f"coefficient {name!r} must be a number, got {weight!r}")
                col = name.partition("=")[0] if "=" in name else name
                if col not in self.feature_order:
                    raise SpecError(f"coefficient {name!r} names no declared feature")
                covered.add(col)
            missing = set(self.feature_order) - covered
            if missing:
                raise SpecError(f"features without coefficients: {sorted(missing)}")
        elif self.kind == "decision_tree":
            self._validate_tree()
        elif self.kind == "external_subprocess":
            cmd = p.get("command")
            if not isinstance(cmd, (list, tuple)) or not cmd or not all(isinstance(c, str) for c in cmd):
                raise SpecError("external_subprocess spec needs a non-empty list of command strings")
        else:  # external_http
            if not isinstance(p.get("endpoint"), str) or not p["endpoint"]:
                raise SpecError("external_http spec needs an endpoint URL")

    def _validate_tree(self):
        p = self.parameters
        nodes = p.get("nodes")
        if not isinstance(nodes, list) or not nodes or "root" not in p:
            raise SpecError("decision_tree spec needs a node list and a root id")
        by_id = {}
        for node in nodes:
            if not isinstance(node, dict):
                raise SpecError(f"tree node must be a JSON object, got {node!r}")
            nid = _node_ref(node.get("id"))
            if nid in by_id:
                raise SpecError(f"duplicate node id {nid}")
            by_id[nid] = node
        root = _node_ref(p["root"])
        if root not in by_id:
            raise SpecError("root id not in node table")
        # each reachable node is checked once, however many splits name it;
        # the child links are then sorted to find a cycle
        links = TopologicalSorter()
        seen = set()
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            node = by_id[nid]
            kind = node.get("kind")
            if kind == "leaf":
                if not _is_real(node.get("value")):
                    raise SpecError(f"leaf {nid} needs a numeric value")
            elif kind == "split":
                if node.get("column") not in self.feature_order:
                    raise SpecError(f"split {nid} names no declared feature")
                if ("threshold" in node) == ("category" in node):
                    raise SpecError(f"split {nid} needs exactly one of threshold/category")
                if not _is_real(node.get("threshold", 0.0)):
                    raise SpecError(f"split {nid} threshold must be a number")
                children = [_node_ref(node.get("left")), _node_ref(node.get("right"))]
                for child in children:
                    if child not in by_id:
                        raise SpecError(f"child id {child} not in node table")
                stack += children
                links.add(nid, *children)
            else:
                raise SpecError(f"node {nid} has unknown kind {kind!r}")
        try:
            links.prepare()
        except CycleError as exc:
            raise SpecError(f"cycle through node {exc.args[1][0]}") from None
        unreachable = set(by_id) - seen
        if unreachable:
            raise SpecError(f"unreachable nodes: {sorted(unreachable, key=repr)}")

    def check_against(self, schema):
        """Raise ``ValidationError`` unless the dataset schema (a sequence of
        ``ColumnSchema``) can feed this spec, so no data is needed: every
        feature is a column, and for builtin kinds every coefficient and tree
        split reads a column of the kind it needs, a one-of-K coefficient or
        category split naming one of its categories. Otherwise a read would
        fail on every row, or a term would never fire."""
        columns = {c.name: c for c in schema}
        for name in self.feature_order:
            if name not in columns:
                raise ValidationError(f"model feature {name!r} is not a dataset column")
        reads = []  # (what, column, reads a category, the category)
        if self.kind in ("linear", "logistic"):
            for name in self.parameters["coefficients"]:
                column, one_of_k, category = name.partition("=")
                reads.append((f"coefficient {name!r}", column, bool(one_of_k), category))
        elif self.kind == "decision_tree":
            for node in self.parameters["nodes"]:
                if node["kind"] == "split":
                    reads.append((f"tree node {node['id']!r}", node["column"],
                                  "category" in node, node.get("category")))
        for what, column, by_category, category in reads:
            kind = columns[column].kind
            if by_category != (kind == "categorical"):
                need = "categorical" if by_category else "numeric"
                raise ValidationError(f"model {what} needs a {need} column; {column!r} is {kind}")
            if by_category and category not in columns[column].categories:
                raise ValidationError(
                    f"model {what}: category {category!r} not in column {column!r}"
                )

    def to_json(self):
        return {
            "kind": self.kind,
            "parameters": self.parameters,
            "feature_order": list(self.feature_order),
        }

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or not isinstance(obj.get("feature_order", []), list):
            raise SpecError("model spec must be a JSON object whose feature_order is a list")
        try:
            return ModelSpec(
                kind=obj["kind"],
                parameters=obj["parameters"],
                feature_order=tuple(obj["feature_order"]),
            )
        except KeyError as exc:
            raise SpecError(f"model spec missing field {exc}") from None

    @staticmethod
    def load(path):
        return ModelSpec.from_json(read_json(path, "model spec", SpecError))

    def save(self, path):
        write_json(path, self.to_json())


def _row_values(row, feature_order, index):
    """Feature values of one row, in declared order."""
    if isinstance(row, dict):
        try:
            return [row[f] for f in feature_order]
        except KeyError as exc:
            raise ValidationError(f"row {index}: missing feature {exc}") from None
    values = list(row)
    if len(values) != len(feature_order):
        raise ValidationError(
            f"row {index}: got {len(values)} values for {len(feature_order)} features"
        )
    return values


class ModelHandle:
    """Opaque batch scorer; stateless with respect to calls. Each kind
    implements ``score_columns``; ``predict_batch`` serves them all, copying
    each row's cells into one object column per feature in a checked loop."""

    def __init__(self, spec):
        self.spec = spec

    @property
    def feature_order(self):
        return self.spec.feature_order

    def predict_batch(self, rows):
        """Scores of rows, each a dict by feature name or a sequence in
        declared order, as a list of floats. A missing (``None``) value is
        an error for every model kind, raised before any row is scored."""
        order = self.spec.feature_order
        columns = {f: np.empty(len(rows), dtype=object) for f in order}
        for i, row in enumerate(rows):
            for f, v in zip(order, _row_values(row, order, i)):
                if v is None:
                    raise ValidationError(f"row {i}: missing value for feature {f!r}")
                columns[f][i] = v
        return self.score_columns(columns, len(rows)).tolist()

    def score_columns(self, columns, n_rows):
        """Float64 scores of ``n_rows`` rows given as feature columns: each
        feature maps to a 1-D array, float64 if numeric, category strings
        (object) if categorical."""
        raise NotImplementedError

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _numeric(values, rows, name):
    """``values`` as float64; object cells must be numbers (rows name them)."""
    if values.dtype == object:
        for i, v in zip(rows, values):
            if not _is_real(v):
                raise ValidationError(
                    f"row {i}: feature {name!r} needs a numeric value, got {v!r}"
                )
    return values.astype(np.float64, copy=False)


class BuiltinModelHandle(ModelHandle):
    def score_columns(self, columns, n_rows):
        """Scores of whole columns; linear sums run coefficient by coefficient
        (the float operations of scoring each row alone), trees split row-index
        arrays node by node. ``columns == category`` is elementwise (numpy 1.25+)."""
        params = self.spec.parameters
        if self.spec.kind == "decision_tree":
            nodes = {node["id"]: node for node in params["nodes"]}
            out = np.empty(n_rows, dtype=np.float64)
            stack = [(nodes[params["root"]], np.arange(n_rows))]
            while stack:
                node, rows = stack.pop()
                if not rows.size:
                    continue
                if node["kind"] == "leaf":
                    out[rows] = float(node["value"])
                    continue
                values = columns[node["column"]][rows]
                if "threshold" in node:
                    go_left = _numeric(values, rows, node["column"]) < node["threshold"]
                else:
                    go_left = values == node["category"]
                stack.append((nodes[node["right"]], rows[~go_left]))
                stack.append((nodes[node["left"]], rows[go_left]))
            return out
        total = np.full(n_rows, float(params["intercept"]))
        for name, w in params["coefficients"].items():
            if "=" in name:
                col, _, cat = name.partition("=")
                total += w * (columns[col] == cat).astype(np.float64)
            else:
                total += w * _numeric(columns[name], range(n_rows), name)
        if self.spec.kind == "logistic":
            # imported here so that linear and tree specs run on numpy alone
            from scipy.special import expit

            return expit(total)
        return total


# --- external probes --------------------------------------------------------


def _decode_reply(raw, what):
    """A probe reply's bytes as ``(message, text)``: UTF-8, then strict JSON.
    Either failing is a ``ProtocolError`` whose payload is the text, bad bytes
    replaced."""
    try:
        text = raw.decode("utf-8")
        return JSON_DECODER.decode(text), text
    except (UnicodeDecodeError, json.JSONDecodeError, ParseError, RecursionError):
        text = raw.decode("utf-8", "replace")
        raise ProtocolError(f"{what} reply is not UTF-8 JSON", payload=text) from None


def _validate_scores_message(msg, expected_id, n_rows, raw):
    if not isinstance(msg, dict) or msg.get("type") != "scores":
        raise ProtocolError(f"expected a scores message, got {msg!r}", payload=raw)
    if msg.get("id") != expected_id:
        raise ProtocolError(
            f"scores id {msg.get('id')!r} does not echo request id {expected_id}", payload=raw
        )
    scores = msg.get("scores")
    if not isinstance(scores, list) or len(scores) != n_rows:
        raise ProtocolError(f"expected {n_rows} scores, got {scores!r}", payload=raw)
    # ``type(v) in (int, float)`` for every score: the JSON numbers of
    # ``JSON_DECODER``, and not ``true``/``false`` (bool subclasses int)
    if not set(map(type, scores)) <= {int, float}:
        raise ProtocolError("scores must all be numbers", payload=raw)
    try:
        values = np.array(scores, dtype=np.float64)
        finite = np.isfinite(values).all()  # ``1e999`` decodes to infinity
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ProtocolError("scores must all be finite numbers", payload=raw)
    return values


class _TransportFailure(Exception):
    """Internal marker: the transport (not the protocol) broke."""


class _ProbeHandle(ModelHandle):
    """External row scorer: one predict message per batch over a transport
    (``_send``, then ``_recv`` for the oldest reply), with up to ``WINDOW``
    messages in flight; transport failures are retried, protocol errors
    never."""

    def __init__(self, spec, timeout=None):
        super().__init__(spec)
        self.timeout = probe_timeout() if timeout is None else timeout
        self.transport_retries = 0
        self._next_id = 0

    def _recover(self):
        """Make the transport usable again after a failure."""

    def score_columns(self, columns, n_rows):
        """Float64 scores of feature columns: every row, in order,
        ``ROWS_PER_CALL`` rows per predict message. Rows are sliced from the
        columns as their batch is sent and go out as tuples (JSON writes them
        as lists); with no features every row is the empty row."""
        order = self.spec.feature_order
        starts = range(0, n_rows, ROWS_PER_CALL)
        batches = (
            list(zip(*(columns[f][start : start + ROWS_PER_CALL].tolist() for f in order)))
            or [()] * min(ROWS_PER_CALL, n_rows - start)
            for start in starts
        )
        scores = np.empty(n_rows, dtype=np.float64)
        for start, batch_scores in zip(starts, self._score_batches(batches)):
            scores[start : start + ROWS_PER_CALL] = batch_scores
        return scores

    def _score_batches(self, batches):
        """Scores of each batch of payload rows, yielded in order. Up to
        ``WINDOW`` predict messages are in flight, and replies must come in
        request order. After a transport failure the transport is recovered
        and every unanswered batch resent in order under fresh ids; once the
        oldest unanswered batch has failed more than ``MAX_TRANSPORT_RETRIES``
        times, the probe is unreachable."""
        batches = iter(batches)
        unsent = deque()  # batches to send again before drawing on ``batches``
        in_flight = deque()  # (request id, rows), oldest first
        failures = 0  # of the oldest unanswered batch
        while True:
            try:
                while len(in_flight) < self.WINDOW:
                    rows = unsent.popleft() if unsent else next(batches, None)
                    if rows is None:
                        break
                    request_id = self._next_id
                    self._next_id += 1
                    in_flight.append((request_id, rows))
                    self._send({"type": "predict", "id": request_id, "rows": rows})
                if not in_flight:
                    return
                raw = self._recv()
            except _TransportFailure as exc:
                failures += 1
                if failures > MAX_TRANSPORT_RETRIES:
                    raise ConnectivityError(str(exc)) from None
                self.transport_retries += 1
                try:
                    self._recover()
                except _TransportFailure as exc2:
                    raise ConnectivityError(str(exc2)) from None
                unsent.extendleft(reversed([rows for _, rows in in_flight]))
                in_flight.clear()
                continue
            request_id, rows = in_flight.popleft()
            msg, text = _decode_reply(raw, "scores")
            scores = _validate_scores_message(msg, request_id, len(rows), text)
            failures = 0
            yield scores


def _pump(stdout, lines):
    """Queue the probe's output lines as bytes, then ``None`` when it closes."""
    with stdout:
        for line in stdout:
            lines.put(line)
    lines.put(None)


def _feed(outbox, stdin):
    """Write queued byte lines to the probe's stdin until ``None``, then close it.
    Writing here keeps a probe that stops reading from blocking the caller
    past its reply timeout; a write to a dead probe ends the feed, and the
    caller sees the probe's output close."""
    try:
        for line in iter(outbox.get, None):
            stdin.write(line)
            stdin.flush()
    except (OSError, ValueError):
        pass
    finally:
        try:
            stdin.close()
        except OSError:
            pass


class SubprocessModelHandle(_ProbeHandle):
    """Newline-delimited JSON over a child process's stdin/stdout."""

    WINDOW = 4

    def __init__(self, spec, timeout=None):
        super().__init__(spec, timeout)
        self._proc = None
        self._lines = None
        self._outbox = None
        self._spawn()

    def _spawn(self):
        """Start the probe and shake hands; the one place a probe starts."""
        try:
            self._proc = subprocess.Popen(
                list(self.spec.parameters["command"]),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise _TransportFailure(f"could not start probe: {exc}") from None
        self._lines = queue.Queue()
        self._outbox = queue.Queue()
        threading.Thread(target=_pump, args=(self._proc.stdout, self._lines), daemon=True).start()
        threading.Thread(target=_feed, args=(self._outbox, self._proc.stdin), daemon=True).start()
        try:
            self._handshake()
        except (ProtocolError, _TransportFailure):
            self.close()  # the feed would keep the probe's stdin open
            raise

    def _handshake(self):
        self._send({"type": "hello", "features": list(self.spec.feature_order)})
        msg, text = _decode_reply(self._recv(), "handshake")
        if not isinstance(msg, dict) or msg.get("type") != "ready":
            raise ProtocolError(f"expected a ready message, got {msg!r}", payload=text)

    def _send(self, obj):
        self._outbox.put((json.dumps(obj) + "\n").encode("utf-8"))

    def _recv(self):
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            raise _TransportFailure(f"probe gave no reply within {self.timeout} s") from None
        if line is None:
            raise _TransportFailure("probe process closed its output")
        return line.rstrip(b"\n")

    def _recover(self):
        self.close()
        self._spawn()

    def close(self):
        proc = self._proc
        if proc is None:
            return
        self._outbox.put(None)  # the feed closes stdin
        try:
            proc.terminate()
            proc.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
        self._proc = None


class HttpModelHandle(_ProbeHandle):
    """HTTP probe: POST /predict with the subprocess predict payload."""

    WINDOW = 1  # urllib is synchronous

    def __init__(self, spec, timeout=None):
        super().__init__(spec, timeout)
        endpoint = spec.parameters["endpoint"].rstrip("/")
        self._url = endpoint if endpoint.endswith("/predict") else endpoint + "/predict"
        self._replies = deque()
        # health check: an empty predict must round-trip
        list(self._score_batches([[]]))

    def _send(self, message):
        """POST one message; its reply waits for ``_recv``."""
        import urllib.error  # imported here: only HTTP probes pay for urllib
        import urllib.request

        request = urllib.request.Request(
            self._url, data=json.dumps(message).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as exc:  # a reply, but not a 200
            status, raw = exc.code, exc.read()
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise _TransportFailure(f"probe endpoint unreachable: {exc}") from None
        if status != 200:
            raise ProtocolError(f"probe answered HTTP {status}", payload=raw.decode("utf-8", "replace"))
        self._replies.append(raw)

    def _recv(self):
        return self._replies.popleft()


def load_model(spec, *, timeout=None):
    """Instantiate a ModelHandle for a validated spec."""
    if spec.kind in BUILTIN_KINDS:
        return BuiltinModelHandle(spec)
    try:
        if spec.kind == "external_subprocess":
            return SubprocessModelHandle(spec, timeout=timeout)
        return HttpModelHandle(spec, timeout=timeout)
    except _TransportFailure as exc:
        raise ConnectivityError(str(exc)) from None

