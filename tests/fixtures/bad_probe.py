"""Misbehaving probe processes for protocol-violation tests.

Usage: python bad_probe.py <mode>, where mode is one of:
  no-ready        answers the handshake with a wrong message type
  wrong-id        answers predicts with a non-echoing id
  short-scores    returns one score fewer than requested
  not-json        answers predicts with a non-JSON line
  not-utf8        answers predicts with a scores line holding a 0xff byte
  bool-scores     answers ``true`` as every score
  nan-scores      answers ``NaN`` as every score (Python's json writes it)
  huge-scores     answers an integer too large for a float as every score
  overflow-scores answers ``1e999`` as every score, a float that overflows
  swapped         holds the first predict and answers the second one first
  silent          never answers anything (forces a timeout)
  stalls          stops reading its input right after the handshake
  dies            exits cleanly right after the handshake
  dies-after-one  answers its first predict, then exits
  counting        scores the k-th row it receives as k (from 1), so a row's
                  score is its place in the rows received, and the highest
                  score their number
  digest          scores each row by a digest of its JSON text, so two rows
                  score alike only when they are written alike

Any other mode is a healthy probe scoring each row ``[x]`` as ``2x + 1``.
"""

import hashlib
import json
import sys
import time


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def scores(msg):
    return {"type": "scores", "id": msg.get("id"),
            "scores": [2.0 * row[0] + 1.0 for row in msg.get("rows", [])]}


def digest(row):
    """A float from 52 bits of the SHA-256 of the row's JSON text."""
    text = json.dumps(row).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:7], "big") % 2**52 / 2**20


def main():
    mode = sys.argv[1]
    held = None
    received = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        msg = json.loads(line)
        if msg.get("type") == "hello":
            if mode == "silent":
                continue
            if mode == "no-ready":
                reply({"type": "howdy"})
            else:
                reply({"type": "ready"})
            if mode == "dies":
                return
            if mode == "stalls":
                time.sleep(60)
        elif msg.get("type") == "predict":
            rows = msg.get("rows", [])
            if mode == "silent":
                continue
            if mode == "wrong-id":
                reply({"type": "scores", "id": msg.get("id", 0) + 999, "scores": [0.0] * len(rows)})
            elif mode == "short-scores":
                reply({"type": "scores", "id": msg.get("id"), "scores": [0.0] * max(0, len(rows) - 1)})
            elif mode == "not-json":
                sys.stdout.write("scores: all fine\n")
                sys.stdout.flush()
            elif mode == "not-utf8":
                text = json.dumps({"type": "scores", "id": msg.get("id"), "scores": [0.0] * len(rows)})
                sys.stdout.buffer.write(text[:-1].encode("utf-8") + b', "note": "\xff"}\n')
                sys.stdout.buffer.flush()
            elif mode == "bool-scores":
                reply({"type": "scores", "id": msg.get("id"), "scores": [True] * len(rows)})
            elif mode == "nan-scores":
                reply({"type": "scores", "id": msg.get("id"), "scores": [float("nan")] * len(rows)})
            elif mode == "huge-scores":
                reply({"type": "scores", "id": msg.get("id"), "scores": [10**400] * len(rows)})
            elif mode == "overflow-scores":
                sys.stdout.write(json.dumps({"type": "scores", "id": msg.get("id"),
                                             "scores": [1.0] * len(rows)}).replace("1.0", "1e999") + "\n")
                sys.stdout.flush()
            elif mode == "counting":
                reply({"type": "scores", "id": msg.get("id"),
                       "scores": list(range(received + 1, received + len(rows) + 1))})
                received += len(rows)
            elif mode == "digest":
                reply({"type": "scores", "id": msg.get("id"), "scores": list(map(digest, rows))})
            elif mode == "swapped" and held is None:
                held = msg
            elif mode == "swapped":
                reply(scores(msg))
                reply(scores(held))
            else:
                reply(scores(msg))
                if mode == "dies-after-one":
                    return


if __name__ == "__main__":
    main()
