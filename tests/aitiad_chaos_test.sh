#!/bin/sh
# Load run for the aitiad daemon: replays the 28-scenario corpus from 8
# concurrent clients, with the result cache off so every request loads a
# worker. The loadgen asserts the robustness contract: the daemon never dies,
# every request gets exactly one terminal response, svc.queue_depth_peak
# stays within the 32-slot admission queue, and svc.duplicate_responses is 0.
# Eight closed-loop clients never fill that queue, so this run sheds nothing;
# aitiad_churn_test's stalled-reader phase is where TCP clients meet
# 'overloaded'. A second pass with a 1 ms deadline must answer at least one
# 'degraded'. After the SIGTERM drain (exit 0), the flight record must show
# accepted == completed and no duplicate response.
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

"$AITIAD" --port 0 --workers 4 --cache-capacity 0 \
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
    --expect-bounded-queue 32 --timeout 150 >"$WORK/loadgen.json"
LSTATUS=$?
cat "$WORK/loadgen.json"
[ "$LSTATUS" -eq 0 ] || fail "loadgen contract check failed (exit $LSTATUS)"

"$LOADGEN" --port "$PORT" --clients "$CLIENTS" --rounds "$ROUNDS" --deadline-ms 1 \
    --expect-bounded-queue 32 --timeout 150 >"$WORK/loadgen_deadline.json"
LSTATUS=$?
cat "$WORK/loadgen_deadline.json"
[ "$LSTATUS" -eq 0 ] || fail "1 ms deadline pass: loadgen contract check failed (exit $LSTATUS)"
DEGRADED=$(sed -n 's/.*"degraded":\([0-9]*\).*/\1/p' "$WORK/loadgen_deadline.json")
[ -n "$DEGRADED" ] && [ "$DEGRADED" -gt 0 ] \
    || fail "1 ms deadline pass answered no 'degraded' (degraded=${DEGRADED:-missing})"

kill -0 "$DPID" 2>/dev/null || fail "daemon died during the load run"
kill -TERM "$DPID"
wait "$DPID"
DSTATUS=$?
[ "$DSTATUS" -eq 0 ] || fail "daemon exited $DSTATUS after SIGTERM (want 0)"
[ -s "$METRICS" ] || fail "metrics flight record missing or empty"

# Same books check as aitiad_drain_test.sh: svc sorts last in the snapshot,
# so its section is the tail after '"svc": '.
SVC=$(sed -n 's/.*"svc": //p' "$METRICS")
[ -n "$SVC" ] || fail "metrics record lacks the svc section"
echo "$SVC" | grep -q '"duplicate_responses": 0' \
    || fail "duplicate responses recorded during the load run"
ACCEPTED=$(echo "$SVC" | sed -n 's/.*"accepted": \([0-9]*\).*/\1/p')
COMPLETED=$(echo "$SVC" | sed -n 's/.*"completed": \([0-9]*\).*/\1/p')
[ -n "$ACCEPTED" ] && [ -n "$COMPLETED" ] || fail "accepted/completed counters missing"
[ "$ACCEPTED" -eq "$COMPLETED" ] \
    || fail "load run lost work: accepted=$ACCEPTED completed=$COMPLETED"

echo "PASS: load run survived; accepted=$ACCEPTED completed=$COMPLETED degraded=$DEGRADED;" \
    "summaries in $WORK/loadgen.json and $WORK/loadgen_deadline.json"
exit 0
