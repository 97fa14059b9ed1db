#!/usr/bin/env python3
"""Request-deadline test for the aitiad binary on long access loops.

Usage: aitiad_deadline_test.py <aitiad> <traces-dir>

Each case sends one inline .ait diagnose request to `aitiad --once` and
times it from the request line to the response line.

- long_loop.ait with "deadline_ms": 2000: one slice loads a global 30,000
  times while the other stores to it 30,000 times, and nothing fails. The
  daemon must answer "degraded" within 2,200 ms: the deadline plus 10%.
- long_loop_loads.ait with "deadline_ms": 2000: both slices only load, so
  no pair conflicts and the search ends "not_reproduced" before the
  deadline.

The exit status is 1 if any case failed.
"""

import json
import os
import select
import subprocess
import sys
import time

DEADLINE_MS = 2000
CEILING_MS = 2200
failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def diagnose(aitiad, trace):
    with open(trace) as f:
        request = {"verb": "diagnose", "id": "loop", "ait": f.read(), "deadline_ms": DEADLINE_MS}
    proc = subprocess.Popen([aitiad, "--once"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        start = time.monotonic()
        proc.stdin.write(json.dumps(request).encode() + b"\n")
        proc.stdin.flush()
        line = b""
        while not line.endswith(b"\n"):
            if not select.select([proc.stdout], [], [], 60)[0]:
                return None, None
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return None, None
            line += chunk
        elapsed_ms = (time.monotonic() - start) * 1000
        return json.loads(line.split(b"\n", 1)[0]), elapsed_ms
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)


def main():
    aitiad, traces = sys.argv[1], sys.argv[2]
    cases = [("long_loop.ait", "degraded", CEILING_MS),
             ("long_loop_loads.ait", "not_reproduced", DEADLINE_MS)]
    for name, want, ceiling_ms in cases:
        response, elapsed_ms = diagnose(aitiad, os.path.join(traces, name))
        if response is None:
            check(False, f"{name}: no response line")
            continue
        status = response.get("status")
        check(status == want, f"{name}: status {status}, want {want}")
        check(elapsed_ms <= ceiling_ms,
              f"{name}: answered after {elapsed_ms:.0f} ms, ceiling {ceiling_ms} ms")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
