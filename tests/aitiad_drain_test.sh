#!/bin/sh
# Graceful-drain regression test for the aitiad binary.
#
# Starts the daemon, launches a burst of in-flight + queued work, sends
# SIGTERM mid-burst, and asserts:
#   - the daemon exits 0 (clean drain, not a crash or a kill escalation);
#   - every request submitted before the signal got a terminal response;
#   - the --metrics-json flight record was flushed and is non-empty.
#
# Usage: aitiad_drain_test.sh <aitiad> <aitiad_loadgen> <workdir>
set -u

AITIAD=$1
LOADGEN=$2
WORK=$3
mkdir -p "$WORK"
OUT="$WORK/daemon.out"
METRICS="$WORK/metrics.json"
rm -f "$OUT" "$METRICS"

fail() {
    echo "FAIL: $1" >&2
    [ -n "${DPID:-}" ] && kill -KILL "$DPID" 2>/dev/null
    exit 1
}

"$AITIAD" --port 0 --workers 2 --drain-grace-ms 10000 \
    --metrics-json "$METRICS" >"$OUT" 2>"$WORK/daemon.err" &
DPID=$!

# Wait for the parseable startup line.
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

# Mid-burst load: clients that hold workers long enough for the SIGTERM to
# land while work is both in flight and queued.
"$LOADGEN" --port "$PORT" --clients 4 --rounds 4 --scenarios fig-1,fig-5,fig-7 \
    --hold-ms 200 --timeout 60 >"$WORK/loadgen.json" 2>&1 &
LPID=$!

sleep 0.7  # let the burst get going
kill -0 "$DPID" 2>/dev/null || fail "daemon died under load before the signal"
kill -TERM "$DPID"

wait "$DPID"
DSTATUS=$?
[ "$DSTATUS" -eq 0 ] || fail "daemon exited $DSTATUS after SIGTERM (want 0)"

# The loadgen may see clean 'draining' rejections or connection teardown after
# the drain point — that is expected; it must terminate either way.
wait "$LPID" 2>/dev/null

[ -s "$METRICS" ] || fail "metrics flight record missing or empty"
# Scope counter extraction to the svc section (other sections reuse names
# like "completed"); svc sorts last in the snapshot, so take its tail.
SVC=$(sed -n 's/.*"svc": //p' "$METRICS")
[ -n "$SVC" ] || fail "metrics record lacks the svc section"
echo "$SVC" | grep -q '"duplicate_responses": 0' \
    || fail "duplicate responses recorded during drain"

# Accepted-means-answered across the drain: the daemon's own books must show
# every accepted diagnosis completed (none wedged, none dropped).
ACCEPTED=$(echo "$SVC" | sed -n 's/.*"accepted": \([0-9]*\).*/\1/p')
COMPLETED=$(echo "$SVC" | sed -n 's/.*"completed": \([0-9]*\).*/\1/p')
[ -n "$ACCEPTED" ] && [ -n "$COMPLETED" ] || fail "accepted/completed counters missing"
[ "$ACCEPTED" -eq "$COMPLETED" ] \
    || fail "drain lost work: accepted=$ACCEPTED completed=$COMPLETED"
[ "$ACCEPTED" -gt 0 ] || fail "burst never reached the daemon (accepted=0)"

echo "PASS: drained cleanly; accepted=$ACCEPTED completed=$COMPLETED"
exit 0
