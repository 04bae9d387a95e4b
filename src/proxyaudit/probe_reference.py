"""Reference probe process speaking the newline-delimited JSON protocol.

Run as ``python -m proxyaudit.probe_reference`` to serve a fixed affine
function of the single declared feature (score = 2*x + 1), or pass
``--spec model.json`` to wrap any builtin model spec. One JSON message per
line, UTF-8; replies are flushed immediately.
"""

import argparse
import json
import sys

AFFINE_WEIGHT = 2.0
AFFINE_INTERCEPT = 1.0


def _reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(score_rows, stdin=None):
    """Protocol loop: hello/ready handshake, then predict/scores."""
    stdin = sys.stdin if stdin is None else stdin
    features = None
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        msg = json.loads(line)
        if msg.get("type") == "hello":
            features = msg.get("features", [])
            _reply({"type": "ready"})
        elif msg.get("type") == "predict":
            scores = score_rows(features, msg.get("rows", []))
            _reply({"type": "scores", "id": msg.get("id"), "scores": scores})
        else:
            _reply({"type": "error", "message": f"unknown message type {msg.get('type')!r}"})
            return


def _default_scorer(features, rows):
    return [AFFINE_WEIGHT * float(row[0]) + AFFINE_INTERCEPT for row in rows]


def _spec_scorer(spec_path):
    # imported lazily so the affine default has no package dependencies; a
    # linear or tree spec then runs on numpy alone (a logistic one adds
    # scipy.special)
    from .models import BuiltinModelHandle, ModelSpec

    handle = BuiltinModelHandle(ModelSpec.load(spec_path))

    def score(features, rows):
        return handle.predict_batch(rows)

    return score


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", help="builtin model spec (JSON) to wrap")
    args = parser.parse_args(argv)
    scorer = _spec_scorer(args.spec) if args.spec else _default_scorer
    serve(scorer)


if __name__ == "__main__":
    main()
