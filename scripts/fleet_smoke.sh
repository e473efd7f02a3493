#!/usr/bin/env sh
# fleet_smoke.sh — end-to-end smoke of durable warm state and fleet mode.
#
# Phase A (one replica, direct): run the 21-workload suite against an idiomd
# with -state-dir, restart it, and assert the restarted process answers the
# whole suite byte-identically with ZERO fresh solves (everything from the
# disk spill) and still serves the pack registered before the restart.
#
# Phase B (two replicas + idiomfront): the suite through the consistent-hash
# front door, twice; pass 2 must add no per-replica misses (>= 99% warm is the
# gate; zero is what we assert). The suite then goes through the front's
# /v1/match/stream: one error-free line per module, seqs 0..N-1 once each,
# and a stream body with one malformed item gets the replica's 400
# invalid_request envelope. A replica is then restarted on its state dir and
# must answer warm through the router, and a third replica booted with
# -warm-from inherits phase A's memo and answers the suite with zero solves.
#
# Phase C (fairness through the router): cmd/soak -addr drives two
# authenticated -no-memo replicas behind a fresh front, asserting the
# fair-share, auth, deadline and drain contracts hold across the fleet
# boundary.
#
# CI runs this as `make fleet-smoke`; locally it is the same command.
set -eu

BASE_PORT="${FLEET_SMOKE_PORT:-8191}"
A1="127.0.0.1:$BASE_PORT"
B1="127.0.0.1:$((BASE_PORT + 1))"
B2="127.0.0.1:$((BASE_PORT + 2))"
B3="127.0.0.1:$((BASE_PORT + 3))"
FRONT="127.0.0.1:$((BASE_PORT + 4))"
C1="127.0.0.1:$((BASE_PORT + 5))"
C2="127.0.0.1:$((BASE_PORT + 6))"
FRONT2="127.0.0.1:$((BASE_PORT + 7))"

WORK=$(mktemp -d)
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT INT TERM

fail() {
    echo "fleet_smoke: $1" >&2
    for log in "$WORK"/*.log; do
        [ -f "$log" ] && { echo "--- $log" >&2; tail -20 "$log" >&2; }
    done
    exit 1
}

go build -o "$WORK/idiomd" ./cmd/idiomd
go build -o "$WORK/idiomfront" ./cmd/idiomfront
go build -o "$WORK/suitejson" ./cmd/suitejson
go build -o "$WORK/soak" ./cmd/soak
go build -o "$WORK/idlc" ./cmd/idlc

"$WORK/suitejson" >"$WORK/suite.json"

wait_healthy() {
    i=0
    until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && fail "$1 never became healthy"
        sleep 0.1
    done
}

# stat_of ADDR KEY: first occurrence of "KEY": N in the replica's /statsz.
stat_of() {
    curl -fsS "http://$1/statsz" | grep -o "\"$2\": [0-9]*" | head -1 | grep -o '[0-9]*$'
}

# normalize FILE: strip the run-dependent fields (wall time, memo counter
# snapshot) from a detect response, leaving only what the protocol pins.
normalize() {
    sed '/"elapsed_ns"/d;/"memo": {/,/^[[:space:]]*},\{0,1\}$/d' "$1"
}

run_suite() {
    curl -fsS -X POST "http://$1/v1/detect" --data-binary @"$WORK/suite.json"
}

# --- Phase A: warm restart of a single replica -----------------------------

STATE_A="$WORK/state-a"
"$WORK/idiomd" -addr "$A1" -state-dir "$STATE_A" >"$WORK/a1.log" 2>&1 &
A_PID=$!
PIDS="$PIDS $A_PID"
wait_healthy "$A1"

# Register a pack before the restart; it must survive without re-registration.
"$WORK/idlc" -source >"$WORK/pack.idl"
PACKSRC=$(awk 'BEGIN{ORS="\\n"} {print}' "$WORK/pack.idl")
printf '{"pack":"fleet","source":"%s","idioms":[{"name":"Dot","top":"Reduction","class":"Scalar Reduction","scheme":"reduction","kind":"reduction"}]}' "$PACKSRC" >"$WORK/packbody.json"
REG=$(curl -fsS -X POST "http://$A1/v1/idioms" --data-binary @"$WORK/packbody.json")
case "$REG" in
*'"name": "fleet"'*) ;;
*) fail "phase A: pack registration failed: $REG" ;;
esac

run_suite "$A1" >"$WORK/a_pass1.json"
normalize "$WORK/a_pass1.json" >"$WORK/a_pass1.norm"

# Graceful stop (drains + flushes the spill), then boot a fresh process on
# the same state dir.
kill -TERM "$A_PID"
wait "$A_PID" 2>/dev/null || true
"$WORK/idiomd" -addr "$A1" -state-dir "$STATE_A" >"$WORK/a1b.log" 2>&1 &
A_PID=$!
PIDS="$PIDS $A_PID"
wait_healthy "$A1"

PACKS=$(curl -fsS "http://$A1/v1/idioms?pack=fleet")
case "$PACKS" in
*'"name": "fleet"'*) ;;
*) fail "phase A: pack did not survive the restart: $PACKS" ;;
esac
MATCH=$(curl -fsS -X POST "http://$A1/v1/match" -d '{
  "name": "dot.c",
  "pack": "fleet",
  "source": "double dot(double* x, double* y, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; } return s; }"
}')
case "$MATCH" in
*'"idiom": "Dot"'*) ;;
*) fail "phase A: replayed pack did not serve /v1/match: $MATCH" ;;
esac

run_suite "$A1" >"$WORK/a_pass2.json"
normalize "$WORK/a_pass2.json" >"$WORK/a_pass2.norm"
cmp -s "$WORK/a_pass1.norm" "$WORK/a_pass2.norm" ||
    fail "phase A: restarted replica's suite results differ from the original run"

MISSES=$(stat_of "$A1" misses)
SPILL_HITS=$(stat_of "$A1" spill_hits)
[ "$MISSES" -eq 0 ] || fail "phase A: restarted replica re-solved $MISSES times; want 0 (disk-warm)"
[ "$SPILL_HITS" -gt 0 ] || fail "phase A: restarted replica reported no disk read-throughs"
echo "fleet_smoke: phase A OK (restart warm: 0 misses, $SPILL_HITS spill hits, pack survived)"

# --- Phase B: two replicas behind idiomfront -------------------------------

STATE_B1="$WORK/state-b1"
STATE_B2="$WORK/state-b2"
"$WORK/idiomd" -addr "$B1" -state-dir "$STATE_B1" >"$WORK/b1.log" 2>&1 &
B1_PID=$!
PIDS="$PIDS $B1_PID"
"$WORK/idiomd" -addr "$B2" -state-dir "$STATE_B2" >"$WORK/b2.log" 2>&1 &
B2_PID=$!
PIDS="$PIDS $B2_PID"
wait_healthy "$B1"
wait_healthy "$B2"
"$WORK/idiomfront" -addr "$FRONT" -replicas "http://$B1,http://$B2" >"$WORK/front.log" 2>&1 &
F_PID=$!
PIDS="$PIDS $F_PID"
wait_healthy "$FRONT"

# Pack broadcast: one POST lands it on every replica.
REG=$(curl -fsS -X POST "http://$FRONT/v1/idioms" --data-binary @"$WORK/packbody.json")
case "$REG" in
*'"name": "fleet"'*) ;;
*) fail "phase B: pack broadcast failed: $REG" ;;
esac
for R in "$B1" "$B2"; do
    curl -fsS "http://$R/v1/idioms?pack=fleet" | grep -q '"name": "fleet"' ||
        fail "phase B: replica $R missing the broadcast pack"
done

run_suite "$FRONT" >"$WORK/b_pass1.json"
normalize "$WORK/b_pass1.json" >"$WORK/b_pass1.norm"
# The fleet's answers must equal the single-replica answers for the same body.
cmp -s "$WORK/a_pass1.norm" "$WORK/b_pass1.norm" ||
    fail "phase B: fleet suite results differ from the single-replica run"

B1_M1=$(stat_of "$B1" misses)
B2_M1=$(stat_of "$B2" misses)
B1_C1=$(stat_of "$B1" completed)
B2_C1=$(stat_of "$B2" completed)
[ "$B1_C1" -gt 0 ] || fail "phase B: replica 1 served nothing; routing is not spreading"
[ "$B2_C1" -gt 0 ] || fail "phase B: replica 2 served nothing; routing is not spreading"

run_suite "$FRONT" >"$WORK/b_pass2.json"
normalize "$WORK/b_pass2.json" >"$WORK/b_pass2.norm"
cmp -s "$WORK/b_pass1.norm" "$WORK/b_pass2.norm" ||
    fail "phase B: pass 2 through the front differs from pass 1"
B1_M2=$(stat_of "$B1" misses)
B2_M2=$(stat_of "$B2" misses)
[ "$B1_M2" -eq "$B1_M1" ] && [ "$B2_M2" -eq "$B2_M1" ] ||
    fail "phase B: pass 2 added misses (r1 $B1_M1->$B1_M2, r2 $B2_M1->$B2_M2); want fully memo-warm"

# The match pipeline through the front: one NDJSON line per module, each
# global seq exactly once, and no in-band error anywhere.
curl -fsS -X POST "http://$FRONT/v1/match/stream" --data-binary @"$WORK/suite.json" >"$WORK/b_match.ndjson"
N=$(grep -c '"source":' "$WORK/suite.json")
LINES=$(wc -l <"$WORK/b_match.ndjson")
[ "$LINES" -eq "$N" ] || fail "phase B: /v1/match/stream via the front sent $LINES lines for $N modules"
grep -o '^{"seq":[0-9]*' "$WORK/b_match.ndjson" | sed 's/.*://' | sort -n >"$WORK/b_match.seqs"
seq 0 $((N - 1)) | cmp -s - "$WORK/b_match.seqs" ||
    fail "phase B: /v1/match/stream via the front did not carry seqs 0..$((N - 1)) exactly once each"
! grep -q '"error"' "$WORK/b_match.ndjson" ||
    fail "phase B: /v1/match/stream via the front reported an error: $(grep -m1 '"error"' "$WORK/b_match.ndjson")"

# One rejection policy: a stream body with one malformed item gets the
# replica's own 400 invalid_request envelope from the front, byte for byte,
# instead of a 200 stream that solves the valid module.
BAD='[{"name":"ok.c","source":"int f(){return 0;}"},{"name":"bad.c","source":"int g(){return 1;}","idioms":5}]'
CODE=$(curl -s -o "$WORK/b_bad_front.json" -w '%{http_code}' -X POST "http://$FRONT/v1/match/stream" -d "$BAD")
[ "$CODE" -eq 400 ] || fail "phase B: malformed stream item via the front answered $CODE; want 400"
grep -q '"code": "invalid_request"' "$WORK/b_bad_front.json" ||
    fail "phase B: malformed stream item via the front: $(cat "$WORK/b_bad_front.json")"
curl -s -o "$WORK/b_bad_replica.json" -X POST "http://$B1/v1/match/stream" -d "$BAD"
cmp -s "$WORK/b_bad_front.json" "$WORK/b_bad_replica.json" ||
    fail "phase B: the front's envelope for a malformed stream item differs from the replica's"

# Restart replica 1 on its state dir: it must answer warm through the router.
kill -TERM "$B1_PID"
wait "$B1_PID" 2>/dev/null || true
"$WORK/idiomd" -addr "$B1" -state-dir "$STATE_B1" >"$WORK/b1b.log" 2>&1 &
B1_PID=$!
PIDS="$PIDS $B1_PID"
wait_healthy "$B1"
run_suite "$FRONT" >"$WORK/b_pass3.json"
normalize "$WORK/b_pass3.json" >"$WORK/b_pass3.norm"
cmp -s "$WORK/b_pass1.norm" "$WORK/b_pass3.norm" ||
    fail "phase B: suite after replica restart differs"
B1_M3=$(stat_of "$B1" misses)
[ "$B1_M3" -eq 0 ] || fail "phase B: restarted replica re-solved $B1_M3 times behind the router; want 0"

# Warm handoff: a brand-new replica inherits phase A's full-suite memo over
# HTTP and answers the whole suite without a single solve.
"$WORK/idiomd" -addr "$B3" -state-dir "$WORK/state-b3" -warm-from "http://$A1" >"$WORK/b3.log" 2>&1 &
B3_PID=$!
PIDS="$PIDS $B3_PID"
wait_healthy "$B3"
run_suite "$B3" >"$WORK/b3_pass.json"
normalize "$WORK/b3_pass.json" >"$WORK/b3_pass.norm"
cmp -s "$WORK/a_pass1.norm" "$WORK/b3_pass.norm" ||
    fail "phase B: warm-from replica's results differ from the donor's"
B3_M=$(stat_of "$B3" misses)
[ "$B3_M" -eq 0 ] || fail "phase B: warm-from replica re-solved $B3_M times; want 0 (inherited memo)"
curl -fsS "http://$B3/v1/idioms?pack=fleet" | grep -q '"name": "fleet"' ||
    fail "phase B: warm-from replica did not inherit the donor's pack"
echo "fleet_smoke: phase B OK (fleet warm passes, restart warm via router, snapshot handoff)"

# Free phase A/B processes before the soak phase.
for p in $A_PID $B1_PID $B2_PID $B3_PID $F_PID; do
    kill -TERM "$p" 2>/dev/null || true
    wait "$p" 2>/dev/null || true
done
PIDS=""

# --- Phase C: fairness soak through the router -----------------------------

"$WORK/soak" -print-keys >"$WORK/keys.txt"
# -no-memo: every solve pays full price, so the fairness gates are load-
# bearing (the soak's own in-process mode runs the same way).
"$WORK/idiomd" -addr "$C1" -no-memo -keys "$WORK/keys.txt" >"$WORK/c1.log" 2>&1 &
PIDS="$PIDS $!"
"$WORK/idiomd" -addr "$C2" -no-memo -keys "$WORK/keys.txt" >"$WORK/c2.log" 2>&1 &
PIDS="$PIDS $!"
wait_healthy "$C1"
wait_healthy "$C2"
"$WORK/idiomfront" -addr "$FRONT2" -replicas "http://$C1,http://$C2" >"$WORK/front2.log" 2>&1 &
PIDS="$PIDS $!"
wait_healthy "$FRONT2"

# The light tenant's one module hashes to a single replica, so its global
# share floor is roughly half the single-replica guarantee: 0.2 across two.
"$WORK/soak" -addr "http://$FRONT2" -duration 9s -min-share 0.2 -p99-floor 1s ||
    fail "phase C: soak through the router violated a fairness contract"
echo "fleet_smoke: phase C OK (fair-share soak held through the front door)"

echo "fleet_smoke: OK"
