#!/usr/bin/env python3
"""Connection and client-behaviour test for the aitiad binary (Linux: reads /proc).

Usage: aitiad_churn_test.py <aitiad>

Each phase starts its own daemon; all phases run, and the exit status is 1
if any failed.

- churn: a cycle connects, pings, closes, and waits for the connection's
  reader thread to exit, so connections never overlap and the allocator's
  arena count cannot drift with timing. After 10,000 cycles the thread count
  is back to its start value and VmSize is within 64 MB of VmSize after 1,000.
- limited, address space capped as by `ulimit -v 200000`: the daemon answers
  1,000 cycles, holds 40 idle connections (shedding those it cannot give a
  thread with one "overloaded" line), answers a ping on one it kept, and
  exits 0 on SIGTERM.
- shutdown_verb: the "shutdown" verb alone, with no later connection, makes
  the daemon exit 0 within 10 s.
- stalled_reader: a client with a 4 KB receive buffer pipelines diagnoses
  for 2 s and reads nothing. Another client, retrying on "overloaded" as the
  hint asks, gets "ok" within 10 s, and with --drain-grace-ms 1000 the daemon
  exits 0 within 15 s of SIGTERM.
- descriptors, RLIMIT_NOFILE 16 with 16 clients connected: the daemon uses
  under 0.2 CPU-seconds in 1 s while the backlog waits, answers the last
  client's ping once 8 others close, and exits 0 on SIGTERM.
"""

import os
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


def start_daemon(aitiad, *flags, limits=()):
    def limit():
        for which, value in limits:
            resource.setrlimit(which, (value, value))

    proc = subprocess.Popen([aitiad, "--port", "0", *flags], stdout=subprocess.PIPE, text=True,
                            preexec_fn=limit if limits else None)
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


def cpu_seconds(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")  # utime + stime


def read_line(sock, timeout=10):
    sock.settimeout(timeout)
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


def stop(proc, label, timeout=60):
    if not check(proc.poll() is None, "%s: daemon died (exit %s)" % (label, proc.returncode)):
        return
    proc.send_signal(signal.SIGTERM)
    exited(proc, label, timeout, "SIGTERM")


def exited(proc, label, timeout, cause):
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        check(False, "%s: daemon still running %d s after %s" % (label, timeout, cause))
        return
    check(code == 0, "%s: daemon exited %d after %s (want 0)" % (label, code, cause))


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
    proc, port = start_daemon(aitiad, limits=[(resource.RLIMIT_AS, 200000 * 1024)])
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


def phase_shutdown_verb(aitiad):
    proc, port = start_daemon(aitiad)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(b'{"verb":"shutdown","id":"s"}\n')
        reply = read_line(s)
    check('"draining":true' in reply, "shutdown_verb: verb answered %r" % reply)
    exited(proc, "shutdown_verb", 10, "the shutdown verb")


def phase_stalled_reader(aitiad):
    proc, port = start_daemon(aitiad, "--drain-grace-ms", "1000")
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled.connect(("127.0.0.1", port))
    stalled.setblocking(False)
    batch = b'{"verb":"diagnose","scenario":"CVE-2017-15649","no_cache":true}\n' * 16
    unsent = b""
    end = time.monotonic() + 2
    while time.monotonic() < end:
        try:
            unsent = unsent or batch
            unsent = unsent[stalled.send(unsent):]
        except BlockingIOError:
            time.sleep(0.01)
        except OSError:
            break  # the daemon dropped the connection
    reply = ""
    end = time.monotonic() + 10
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        while time.monotonic() < end:
            s.sendall(b'{"verb":"diagnose","id":"other","scenario":"fig-1"}\n')
            try:
                reply = read_line(s, max(end - time.monotonic(), 0.1))
            except socket.timeout:
                reply = "no answer within 10 s"
                break
            if '"overloaded"' not in reply:
                break
            time.sleep(0.05)
    check('"status":"ok"' in reply, "stalled_reader: the other client got %r" % reply)
    stop(proc, "stalled_reader", timeout=15)
    stalled.close()


def phase_descriptors(aitiad):
    proc, port = start_daemon(aitiad, limits=[(resource.RLIMIT_NOFILE, 16)])
    clients = [socket.create_connection(("127.0.0.1", port), timeout=10) for _ in range(16)]
    time.sleep(0.2)
    before = cpu_seconds(proc.pid)
    time.sleep(1.0)
    used = cpu_seconds(proc.pid) - before
    print("descriptors: %.2f CPU-seconds in 1 s with the backlog waiting" % used)
    check(used < 0.2, "descriptors: daemon used %.2f CPU-seconds in 1 s" % used)
    for s in clients[:8]:
        s.close()
    clients[-1].sendall(PING)
    reply = read_line(clients[-1])
    check('"status":"ok"' in reply, "descriptors: last client's ping answered %r" % reply)
    for s in clients[8:]:
        s.close()
    stop(proc, "descriptors")


def main():
    for phase in (phase_churn, phase_limited, phase_shutdown_verb, phase_stalled_reader,
                  phase_descriptors):
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
