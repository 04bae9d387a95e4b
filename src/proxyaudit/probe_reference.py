"""Reference probe process speaking the newline-delimited JSON protocol.

Run as ``python -m proxyaudit.probe_reference --spec model.json`` to serve a
builtin model spec over stdin/stdout: one JSON message per line, UTF-8;
replies are flushed immediately. A linear or tree spec runs on numpy alone
(a logistic one adds ``scipy.special``).
"""

import argparse
import json
import sys

from .errors import ValidationError
from .models import BuiltinModelHandle, ModelSpec


def _reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(handle):
    """Protocol loop on stdin/stdout: hello/ready handshake, then
    predict/scores. A predict whose rows the model rejects, and any other
    message type, is answered with an error and ends the loop."""
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        msg = json.loads(line)
        if msg.get("type") == "hello":
            _reply({"type": "ready"})
        elif msg.get("type") == "predict":
            try:
                scores = handle.predict_batch(msg.get("rows", []))
            except ValidationError as exc:
                _reply({"type": "error", "id": msg.get("id"), "message": str(exc)})
                return
            _reply({"type": "scores", "id": msg.get("id"), "scores": scores})
        else:
            _reply({"type": "error", "message": f"unknown message type {msg.get('type')!r}"})
            return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True, help="builtin model spec (JSON) to serve")
    args = parser.parse_args(argv)
    serve(BuiltinModelHandle(ModelSpec.load(args.spec)))


if __name__ == "__main__":
    main()
