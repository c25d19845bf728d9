#!/usr/bin/env python3
"""Hostile strings through every JSON exporter, strict-parsed.

Runs tests/hostile_json.cc's generator, which names a metric, a span label
and a tracer lane with a string holding a quote, a backslash, a control
byte and an invalid UTF-8 byte, and sends that string to the admin plane as
an unknown command.  Then replays the generator's journal through
olev_replay from a path that carries the same string.  Every document must
be strict JSON -- UTF-8, no raw control characters -- and must read the
string back, with U+FFFD in place of the invalid byte.

Usage:
  tests/check_hostile_json.py GENERATOR OLEV_REPLAY   exit 1 on any failure
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HOSTILE = b'q"b\\c\x01d\xff'  # keep in step with hostile_json.cc's kHostile
READ_BACK = 'q"b\\c\x01d\ufffd'  # U+FFFD replaces the invalid byte


def strict_load(name: str, data: bytes) -> object:
    """Parses `data` as strict JSON; raises ValueError naming the document."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"{name}: not strict JSON ({error}): {data[:200]!r}")


def expect(name: str, condition: bool, detail: str) -> None:
    if not condition:
        raise ValueError(f"{name}: {detail}")


def check_metrics(doc: dict) -> None:
    for family, prefix in (("counters", "counter."), ("gauges", "gauge."),
                           ("histograms", "histogram.")):
        expect("metrics", prefix + READ_BACK in doc[family],
               f"{family} lack the hostile name")


def check_trace(doc: dict) -> None:
    events = doc["traceEvents"]
    expect("trace", any(e.get("args", {}).get("label") == READ_BACK
                        for e in events if e.get("ph") == "B"),
           "no span carries the hostile label")
    expect("trace", any(e.get("name") == "thread_name" and
                        e["args"]["name"] == READ_BACK for e in events),
           "no lane carries the hostile name")


def check_admin(doc: dict) -> None:
    expect("admin", READ_BACK in doc["error"],
           "the error does not quote the command")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    generator, replay = argv[1], argv[2]
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([generator, tmp], check=True)
        for name, check in (("metrics", check_metrics), ("trace", check_trace),
                            ("admin", check_admin)):
            try:
                with open(os.path.join(tmp, name + ".json"), "rb") as f:
                    check(strict_load(name, f.read()))
            except (ValueError, KeyError, TypeError) as error:
                failures.append(f"{name}: {error}")

        journal = os.path.join(os.fsencode(tmp), b"journal-" + HOSTILE + b".bin")
        shutil.copyfile(os.path.join(tmp, "journal.bin"), journal)
        result = subprocess.run([os.fsencode(replay), b"--journal", journal],
                                stdout=subprocess.PIPE, check=True)
        try:
            doc = strict_load("replay", result.stdout)
            expect("replay", doc["journal"] == os.path.join(
                tmp, "journal-" + READ_BACK + ".bin"),
                   f"journal path read back as {doc['journal']!r}")
            expect("replay", doc["replayed"] == 1, "expected one record")
        except (ValueError, KeyError, TypeError) as error:
            failures.append(f"replay: {error}")

    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    if not failures:
        print("hostile strings: metrics, trace, admin and replay all parse")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
