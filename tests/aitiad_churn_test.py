#!/usr/bin/env python3
"""Connection-churn test for the aitiad binary (Linux: reads /proc).

Usage: aitiad_churn_test.py <aitiad>

A cycle connects, pings, closes, and waits for the connection's reader
thread to exit, so connections never overlap and the allocator's arena count
cannot drift with timing. Phase 1: after 10,000 cycles the thread count is
back to its start value and VmSize is within 64 MB of VmSize after 1,000.
Phase 2, address space capped as by `ulimit -v 200000`: the daemon answers
1,000 cycles, holds 40 idle connections (shedding those it cannot give a
thread with one "overloaded" line), answers a ping on one it kept, and exits
0 on SIGTERM. Both phases run; the exit status is 1 if either failed.
"""

import resource
import select
import signal
import socket
import subprocess
import sys
import time

PING = b'{"verb":"ping","id":"p"}\n'
failures = []
daemons = []


def check(ok, message):
    if not ok:
        failures.append(message)
    return ok


def start_daemon(aitiad, as_limit_kb=None):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (as_limit_kb * 1024,) * 2)

    proc = subprocess.Popen([aitiad, "--port", "0"], stdout=subprocess.PIPE, text=True,
                            preexec_fn=limit if as_limit_kb else None)
    daemons.append(proc)
    line = proc.stdout.readline()
    return proc, int(line.rsplit(":", 1)[1])


def status(pid):
    with open("/proc/%d/status" % pid) as f:
        rows = (row.split(":", 1) for row in f)
        return {k: int(v.split()[0]) for k, v in rows if k in ("VmSize", "VmRSS", "Threads")}


def settle(pid, threads):
    deadline = time.monotonic() + 10
    while status(pid)["Threads"] != threads and time.monotonic() < deadline:
        time.sleep(0.0001)
    return status(pid)["Threads"] == threads


def read_line(sock):
    sock.settimeout(10)
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            break
        data += chunk
    return data.decode(errors="replace")


def churn(proc, port, cycles, threads, label):
    for i in range(cycles):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(PING)
            reply = read_line(s)
        if not check('"status":"ok"' in reply and settle(proc.pid, threads),
                     "%s: cycle %d: reply %r, or its reader never exited" % (label, i, reply)):
            return


def stop(proc, label):
    if not check(proc.poll() is None, "%s: daemon died (exit %s)" % (label, proc.returncode)):
        return
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=60)
    check(code == 0, "%s: daemon exited %d after SIGTERM (want 0)" % (label, code))


def phase_churn(aitiad):
    proc, port = start_daemon(aitiad)
    start = status(proc.pid)
    churn(proc, port, 1000, start["Threads"], "churn")
    at_1k = status(proc.pid)
    churn(proc, port, 9000, start["Threads"], "churn")
    at_10k = status(proc.pid)
    print("churn: start %s, after 1000 cycles %s, after 10000 %s" % (start, at_1k, at_10k))
    check(at_10k["Threads"] == start["Threads"], "churn: threads did not return to start")
    check(at_10k["VmSize"] - at_1k["VmSize"] <= 64 * 1024,
          "churn: VmSize grew from %d kB to %d kB" % (at_1k["VmSize"], at_10k["VmSize"]))
    stop(proc, "churn")


def phase_limited(aitiad):
    proc, port = start_daemon(aitiad, as_limit_kb=200000)
    churn(proc, port, 1000, status(proc.pid)["Threads"], "limited")
    idle = [socket.create_connection(("127.0.0.1", port), timeout=10) for _ in range(40)]
    # A shed connection gets one line and EOF; a served one stays silent.
    time.sleep(1.0)
    readable = select.select(idle, [], [], 1.0)[0]
    shed = [s for s in readable if "overloaded" in read_line(s)]
    kept = [s for s in idle if s not in readable]
    print("limited: %d of %d idle connections shed as overloaded" % (len(shed), len(idle)))
    check(len(shed) == len(readable), "limited: a connection closed without 'overloaded'")
    if check(kept, "limited: no idle connection was served"):
        kept[0].sendall(PING)
        reply = read_line(kept[0])
        check('"status":"ok"' in reply, "limited: ping answered %r" % reply)
    for s in idle:
        s.close()
    stop(proc, "limited")


def main():
    for phase in (phase_churn, phase_limited):
        try:
            phase(sys.argv[1])
        except (OSError, ValueError, IndexError, subprocess.TimeoutExpired) as e:
            failures.append("%s: %r" % (phase.__name__, e))
    for proc in daemons:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    print("FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
