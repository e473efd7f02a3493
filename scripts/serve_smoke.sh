#!/usr/bin/env sh
# serve_smoke.sh — end-to-end smoke of the HTTP front door: build idiomd,
# start it, wait for /healthz, run one streamed detection via curl, register
# an idiom pack and run a /v1/match round-trip against it (live, no
# restart), send one module that fails to compile and one that used to crash
# the C frontend, check the server still answers and /statsz (every queue
# gauge back at 0), shut down. CI runs this as a job step; `make
# serve-smoke` runs the same thing locally.
set -eu

ADDR="127.0.0.1:${IDIOMD_PORT:-8173}"
BIN="$(mktemp -d)/idiomd"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/idiomd

"$BIN" -addr "$ADDR" >"$LOG" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT INT TERM

# Wait for liveness (up to ~10s).
i=0
until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "serve_smoke: idiomd never became healthy" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

OUT=$(curl -fsS -X POST "http://$ADDR/v1/detect/stream" -d '{
  "name": "dot.c",
  "source": "double dot(double* x, double* y, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; } return s; }"
}')
echo "$OUT"
case "$OUT" in
*'"idiom":"Reduction"'*) ;;
*)
    echo "serve_smoke: streamed detection did not report the Reduction idiom" >&2
    exit 1
    ;;
esac

# Register an idiom pack on the live server (no rebuild, no restart) and
# run the full match pipeline against it. The pack source is the built-in
# IDL library dumped by idlc — the same registration path a user pack takes.
PACKIDL=$(mktemp)
go run ./cmd/idlc -source >"$PACKIDL"
# The IDL contains no quotes or backslashes; newline-escaping is enough to
# embed it as a JSON string.
PACKSRC=$(awk 'BEGIN{ORS="\\n"} {print}' "$PACKIDL")
PACKBODY=$(mktemp)
printf '{"pack":"smoke","source":"%s","idioms":[{"name":"Dot","top":"Reduction","class":"Scalar Reduction","scheme":"reduction","kind":"reduction"}]}' "$PACKSRC" >"$PACKBODY"
REG=$(curl -fsS -X POST "http://$ADDR/v1/idioms" --data-binary @"$PACKBODY")
case "$REG" in
*'"name": "smoke"'*) ;;
*)
    echo "serve_smoke: pack registration failed: $REG" >&2
    exit 1
    ;;
esac

MATCH=$(curl -fsS -X POST "http://$ADDR/v1/match" -d '{
  "name": "dot.c",
  "pack": "smoke",
  "source": "double dot(double* x, double* y, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s = s + x[i]*y[i]; } return s; }"
}')
echo "$MATCH"
case "$MATCH" in
*'"idiom": "Dot"'*) ;;
*)
    echo "serve_smoke: /v1/match did not detect the pack idiom" >&2
    exit 1
    ;;
esac
case "$MATCH" in
*'lift.reduction#'*) ;;
*)
    echo "serve_smoke: /v1/match did not transform the pack idiom" >&2
    exit 1
    ;;
esac
case "$MATCH" in
*'"backend": "lift"'*) ;;
*)
    echo "serve_smoke: /v1/match carried no backend selection" >&2
    exit 1
    ;;
esac

curl -fsS "http://$ADDR/v1/backends" >/dev/null

# Explain-mode round-trip: an almost-GEMM (accumulation twisted to c*A + B,
# so every opcode GEMM wants is present but the solver rejects it) must come
# back unmatched with a GEMM near-miss row attributing the rejection to the
# constraint solver. Same source as idiomatic/testdata/nearmiss_gemm.golden.json.
EXPLAIN=$(curl -fsS -X POST "http://$ADDR/v1/match" -d '{
  "name": "almost_gemm.c",
  "opts": {"explain": true},
  "source": "void almost_gemm(int n, float* A, float* B, float* C) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { C[i*n + j] = 0.0f; float c = 0.0f; for (int k = 0; k < n; k++) { c = c * A[i*n + k] + B[k*n + j]; } C[i*n + j] = c; } } }"
}')
echo "$EXPLAIN"
case "$EXPLAIN" in
*'"near_misses"'*) ;;
*)
    echo "serve_smoke: explain-mode /v1/match carried no near-miss diagnostics" >&2
    exit 1
    ;;
esac
case "$EXPLAIN" in
*'"idiom": "GEMM"'*) ;;
*)
    echo "serve_smoke: almost-GEMM near miss did not report the GEMM idiom" >&2
    exit 1
    ;;
esac
case "$EXPLAIN" in
*'rejected during constraint solving'*) ;;
*)
    echo "serve_smoke: GEMM near miss lacked the solver-rejection delta" >&2
    exit 1
    ;;
esac

# A module that fails to compile is answered in-band and must leave the
# queues like any other.
BROKEN=$(curl -fsS -X POST "http://$ADDR/v1/detect" -d '{"name": "broken.c", "source": "int broken( {"}')
echo "$BROKEN"
case "$BROKEN" in
*'"error"'*) ;;
*)
    echo "serve_smoke: broken module carried no in-band error" >&2
    exit 1
    ;;
esac

# A redefined function once panicked the C frontend and took the whole
# process down. It must fail in-band, and the server must keep serving.
CRASHER=$(curl -fsS -X POST "http://$ADDR/v1/detect" -d '{"name": "redef.c", "source": "void A(int m, int n){} void A(int m){}"}')
echo "$CRASHER"
case "$CRASHER" in
*'"error"'*) ;;
*)
    echo "serve_smoke: the frontend crasher carried no in-band error" >&2
    exit 1
    ;;
esac
if ! curl -fsS "http://$ADDR/healthz" >/dev/null; then
    echo "serve_smoke: idiomd stopped answering after the frontend crasher" >&2
    cat "$LOG" >&2
    exit 1
fi

STATS=$(curl -fsS "http://$ADDR/statsz")
case "$STATS" in
*'"completed": 5'*) ;;
*)
    echo "serve_smoke: /statsz did not count the requests: $STATS" >&2
    exit 1
    ;;
esac
case "$STATS" in
*'"packs": 1'*) ;;
*)
    echo "serve_smoke: /statsz did not count the registered pack: $STATS" >&2
    exit 1
    ;;
esac
# Schema v7 removed the prescreen scheduler's gauges and the memo cost table;
# v8 removed the admission-slot gauges; v9 removed the pack-log counters.
for gone in '"prune_mode"' '"cost_entries"' '"detect_slots"' '"detect_active"' '"packs_logged"' '"packs_abandoned"'; do
    case "$STATS" in
    *$gone*)
        echo "serve_smoke: /statsz still reports the removed $gone field: $STATS" >&2
        exit 1
        ;;
    esac
done

# Top-level fields sit at two-space indent; per-client rows nest deeper.
for want in '"schema": 9' '"in_flight": 0' '"compile_queue": 0' '"ready_queue": 0' '"panics": 0'; do
    if ! printf '%s\n' "$STATS" | grep -q "^  $want,\{0,1\}\$"; then
        echo "serve_smoke: /statsz lacks $want after every request finished: $STATS" >&2
        exit 1
    fi
done

curl -fsS "http://$ADDR/v1/idioms" >/dev/null
curl -fsS "http://$ADDR/v1/idioms?pack=smoke" >/dev/null

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "serve_smoke: OK"
