#!/bin/sh
# Load/chaos acceptance test for the aitiad daemon (ISSUE 6 acceptance run).
#
# Replays the full 22-bug corpus from 8 concurrent clients with fault
# injection enabled inside every diagnosis, against a deliberately small
# admission queue. The loadgen asserts the robustness contract: the daemon
# never dies, every request gets exactly one terminal response, floods shed
# as 'overloaded', svc.queue_depth_peak stays within shards x capacity, and
# svc.duplicate_responses is 0. Afterwards the daemon must still drain to
# exit 0 on SIGTERM.
#
# Usage: aitiad_chaos_test.sh <aitiad> <aitiad_loadgen> <workdir> [clients] [rounds]
set -u

AITIAD=$1
LOADGEN=$2
WORK=$3
CLIENTS=${4:-8}
ROUNDS=${5:-2}
mkdir -p "$WORK"
OUT="$WORK/daemon.out"
METRICS="$WORK/metrics.json"
rm -f "$OUT" "$METRICS"

fail() {
    echo "FAIL: $1" >&2
    [ -n "${DPID:-}" ] && kill -KILL "$DPID" 2>/dev/null
    exit 1
}

# Queue bound: 4 shards x 4 slots. The loadgen checks peak depth <= 16.
"$AITIAD" --port 0 --workers 4 --queue-shards 4 --shard-capacity 4 \
    --chaos-seed 20260809 --chaos-drop 30 --chaos-wakeup 20 --chaos-abort 10 \
    --metrics-json "$METRICS" >"$OUT" 2>"$WORK/daemon.err" &
DPID=$!

PORT=""
i=0
while [ $i -lt 100 ]; do
    PORT=$(sed -n 's/^aitiad: listening on 127.0.0.1:\([0-9]*\)$/\1/p' "$OUT")
    [ -n "$PORT" ] && break
    kill -0 "$DPID" 2>/dev/null || fail "daemon died during startup"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$PORT" ] || fail "daemon never printed its port"

"$LOADGEN" --port "$PORT" --clients "$CLIENTS" --rounds "$ROUNDS" \
    --expect-bounded-queue 16 --timeout 150 >"$WORK/loadgen.json"
LSTATUS=$?
cat "$WORK/loadgen.json"
[ "$LSTATUS" -eq 0 ] || fail "loadgen contract check failed (exit $LSTATUS)"

kill -0 "$DPID" 2>/dev/null || fail "daemon died during the chaos run"
kill -TERM "$DPID"
wait "$DPID"
DSTATUS=$?
[ "$DSTATUS" -eq 0 ] || fail "daemon exited $DSTATUS after SIGTERM (want 0)"
[ -s "$METRICS" ] || fail "metrics flight record missing or empty"

echo "PASS: chaos run survived; summary in $WORK/loadgen.json"
exit 0
